"""Benchmark: implementation-flow throughput (seed flow vs fast flow).

Measures, per suite design, the seed place-and-route flow (the tuple-based
PathFinder router, swap-and-recompute annealer and linear-scan bit
accounting preserved in :mod:`oracles.reference_flow`) against

* the **cold** fast flow — integer-indexed routing graph, incremental
  annealing, memoized PIP tables, nothing on disk yet, and
* the **warm** flow — a second run served entirely from the persistent
  flow-artifact store.

The numbers land in ``BENCH_flow.json`` at the repository root (per-design
seconds, route-iteration counts, totals and speedups) so the flow's
performance trajectory is tracked across PRs;
``benchmarks/check_regression.py`` gates CI on the normalized speedups.
Every measured implementation is also asserted bit-identical across the
three flows — the benchmark doubles as the suite-scale golden-equivalence
test.

Two further sections land in the same file:

* ``parallel_cold`` — the cold suite flow at ``jobs=1`` vs ``jobs=N``
  (the suite's designs implemented in N worker processes), asserted
  bit-identical across job counts at fixed seed.  The speedup bar is
  derived in the same run from what fanning whole designs out can give
  at best, ``min(jobs, cpu_count, total / longest design)``, times
  ``PARALLEL_EFFICIENCY``; the bar that applied is recorded with the
  numbers, and a companion test checks that a forced-serial ``jobs``
  path fails it.
* ``defeat_map_build`` — the vectorized defeat-map build vs the python
  taint flood (:mod:`oracles.flood`), asserted prediction-identical
  (including per-class counts), with the speedup over the *committed*
  flood baselines held to an absolute floor.

Knobs: ``REPRO_BENCH_SCALE`` selects the suite scale (see conftest);
``REPRO_BENCH_FLOW_MIN_SPEEDUP`` / ``REPRO_BENCH_FLOW_WARM_MIN_SPEEDUP``
/ ``REPRO_BENCH_FLOW_PARALLEL_MIN_SPEEDUP`` /
``REPRO_BENCH_FLOW_MAP_MIN_SPEEDUP`` relax the local acceptance bars on
noisy shared runners; ``REPRO_BENCH_FLOW_JOBS`` sets the parallel
leg's worker-process count (``jobs``).
"""

import gc
import json
import os
import time

import pytest

from repro.analysis.layout import LayoutAnalyzer
from repro.experiments import DESIGN_ORDER, device_for
from repro.experiments.designs import implement_design_suite
from repro.fpga.bitgen import generate_bitstream
from repro.fpga.config import ConfigLayout, clear_layout_cache
from repro.fpga.routing import clear_routing_graph_cache
from repro.pnr import FlowArtifactStore, estimate_timing, implement, pack

from oracles.flood import FloodAnalyzer
from oracles.reference_flow import (reference_bit_stats, reference_place,
                                    reference_route_design)

#: Required cold-flow speedup over the seed flow (locally ~2.5x; shared CI
#: runners relax the bar via the env knob, the regression gate compares
#: normalized speedups instead).
MIN_COLD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_FLOW_MIN_SPEEDUP", "2.0"))

#: Required warm (cache-hit) speedup over the seed flow: a hit unpickles
#: an artifact instead of placing and routing, locally 30x+.
MIN_WARM_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_FLOW_WARM_MIN_SPEEDUP", "10.0"))

#: Worker processes (``jobs``) for the parallel cold leg, one design per
#: worker.
FLOW_JOBS = int(os.environ.get("REPRO_BENCH_FLOW_JOBS", "4"))

#: Share of the ideal jobs=N speedup the cold suite must reach.  The
#: parallel leg pays what the serial one does not: every worker fills
#: its own lazy device tables (the serial leg fills them once per device
#: and its later designs reuse them; ~0.5 s of the TMR designs' cost),
#: forks the pool and pickles each implementation back to the parent.
#: On a shared 2-core host single rounds reached 0.51-0.96 of the ideal
#: and the fastest of three 0.65-0.82 (1.23-1.48x against an ideal of
#: 1.8-1.92x), while a forced-serial jobs=N leg read 0.85-1.12x (at
#: most 0.6 of the ideal): 0.65 sits between the two, with a thin
#: margin on either side.
PARALLEL_EFFICIENCY = 0.65

#: Alternating rounds of the two cold legs; each leg keeps its fastest
#: round, so one slow round on a shared host does not decide the gate.
PARALLEL_ROUNDS = 3

#: Optional explicit relaxation of the derived bar (shared CI runners);
#: it can only lower the bar, never raise it.
PARALLEL_RELAXED_BAR = os.environ.get("REPRO_BENCH_FLOW_PARALLEL_MIN_SPEEDUP")

#: Required defeat-map build speedup over the *committed* python flood
#: (the per-design ``defeat_map_seconds`` the retired prefilter
#: benchmark recorded before the vectorized build landed, measured on
#: the same reference container as every committed baseline).
MIN_MAP_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_FLOW_MAP_MIN_SPEEDUP", "5.0"))

#: The committed python-flood build seconds, a historical record: the
#: prefilter benchmark's ``BENCH_predict.json`` held them until the
#: vectorized build landed, and that file is gone with the prefilter.
#: Machine-specific like every committed baseline; the in-run
#: flood-vs-vectorized ratio next to them stays portable.
COMMITTED_FLOOD_SECONDS = {
    "standard": 0.2421,
    "TMR_p2": 1.7964,
    "TMR_p3_nv": 1.0619,
}

#: written into the session's ``bench_out_dir`` (committed baselines are
#: only overwritten under ``--update-baselines``)
BENCH_NAME = "BENCH_flow.json"


def _seed_implement(suite, name):
    """The seed flow, stage by stage, on fresh per-design caches."""
    definition = suite.flat[name]
    device = device_for(suite, name)
    packed = pack(definition)
    placement = reference_place(
        definition, packed, device, seed=1,
        anneal_moves_per_slice=suite.scale.anneal_moves_per_slice)
    routing = reference_route_design(definition, packed, placement, device,
                                     max_iterations=20)
    timing = estimate_timing(definition, placement)
    layout = ConfigLayout(device)  # the seed built a fresh layout per design
    bitstream, resources, layout = generate_bitstream(
        definition, device, packed, placement, routing, layout)
    stats = reference_bit_stats(device, layout, resources.lut_sites,
                                resources.ff_sites, resources.used_slices,
                                routing)
    assert stats == resources.stats
    return {
        "placement": placement,
        "routing": routing,
        "timing": timing,
        "bitstream": bitstream,
        "stats": stats,
    }


def _fast_implement(suite, name, store):
    definition = suite.flat[name]
    device = device_for(suite, name)
    return implement(
        definition, device, seed=1,
        anneal_moves_per_slice=suite.scale.anneal_moves_per_slice,
        artifact_store=store)


def _timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def _merge_sections(bench_out_dir, updates):
    """Merge *updates* into the session's BENCH_flow.json.

    The three flow benchmarks write disjoint top-level sections of one
    report; pytest runs them in file order, so the throughput test lays
    the base payload down first and the later sections graft onto it.
    """
    path = bench_out_dir / BENCH_NAME
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(updates)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_flow_throughput(benchmark, design_suite, tmp_path_factory,
                         bench_out_dir):
    suite = design_suite
    store = FlowArtifactStore(tmp_path_factory.mktemp("flow-artifacts"))

    seed_results = {}
    seed_seconds = {}
    for name in DESIGN_ORDER:
        seed_results[name], seed_seconds[name] = _timed(
            lambda name=name: _seed_implement(suite, name))

    # Cold: empty artifact store, no memoized routing graphs or layouts.
    clear_routing_graph_cache()
    clear_layout_cache()
    cold_results = {}
    cold_seconds = {}
    for name in DESIGN_ORDER:
        cold_results[name], cold_seconds[name] = _timed(
            lambda name=name: _fast_implement(suite, name, store))
    assert store.stats.flow_misses == len(DESIGN_ORDER)
    assert store.stats.flow_stores == len(DESIGN_ORDER)

    # Warm: every design served from the on-disk store.  A collection
    # pause landing inside a millisecond-scale cache-hit measurement
    # once produced a phantom warm>cold anomaly in the committed
    # baselines (TMR_p3_nv), so each warm run is timed with the
    # collector quiesced, and the store hit is asserted per design —
    # a design silently missing the store can never hide in the totals
    # again.
    warm_results = {}
    warm_seconds = {}
    for name in DESIGN_ORDER:
        hits_before = store.stats.flow_hits
        misses_before = store.stats.flow_misses
        gc.collect()
        gc.disable()
        try:
            warm_results[name], warm_seconds[name] = _timed(
                lambda name=name: _fast_implement(suite, name, store))
        finally:
            gc.enable()
        assert store.stats.flow_hits == hits_before + 1, \
            f"{name}: warm run missed the flow store"
        assert store.stats.flow_misses == misses_before, \
            f"{name}: warm run recorded a store miss"
    assert store.stats.flow_hits == len(DESIGN_ORDER)

    # A warm (unpickling) run must never cost more than the cold flow
    # it replaces — for every design, not just in aggregate.
    for name in DESIGN_ORDER:
        assert warm_seconds[name] <= cold_seconds[name], \
            (f"{name}: warm {warm_seconds[name]:.4f}s exceeded cold "
             f"{cold_seconds[name]:.4f}s")

    # Suite-scale golden equivalence: seed == cold == warm, bit for bit.
    for name in DESIGN_ORDER:
        seed = seed_results[name]
        cold = cold_results[name]
        warm = warm_results[name]
        assert seed["placement"].slice_tiles == cold.placement.slice_tiles
        assert seed["placement"].port_pads == cold.placement.port_pads
        assert {n: t.parent for n, t in seed["routing"].routes.items()} == \
            {n: t.parent for n, t in cold.routing.routes.items()}
        assert seed["routing"].pip_owner == cold.routing.pip_owner
        assert seed["stats"] == cold.resources.stats
        assert seed["timing"] == cold.timing
        assert bytes(seed["bitstream"].bits) == bytes(cold.bitstream.bits)
        assert bytes(warm.bitstream.bits) == bytes(cold.bitstream.bits)
        assert {n: t.parent for n, t in warm.routing.routes.items()} == \
            {n: t.parent for n, t in cold.routing.routes.items()}

    payload = {
        "scale": suite.scale.name,
        "anneal_moves_per_slice": suite.scale.anneal_moves_per_slice,
        "router_iterations": 20,
        "designs": {},
    }
    for name in DESIGN_ORDER:
        routing = cold_results[name].routing
        payload["designs"][name] = {
            "seed_seconds": round(seed_seconds[name], 4),
            "cold_seconds": round(cold_seconds[name], 4),
            "warm_seconds": round(warm_seconds[name], 4),
            "cold_speedup_vs_seed": round(
                seed_seconds[name] / cold_seconds[name], 2),
            "warm_speedup_vs_seed": round(
                seed_seconds[name] / warm_seconds[name], 2),
            "route_iterations": routing.iterations,
            "routed_nets": len(routing.routes),
            "slices": cold_results[name].slice_count,
        }
    seed_total = sum(seed_seconds.values())
    cold_total = sum(cold_seconds.values())
    warm_total = sum(warm_seconds.values())
    payload["totals"] = {
        "seed_seconds": round(seed_total, 4),
        "cold_seconds": round(cold_total, 4),
        "warm_seconds": round(warm_total, 4),
        "cold_speedup_vs_seed": round(seed_total / cold_total, 2),
        "warm_speedup_vs_seed": round(seed_total / warm_total, 2),
    }

    _merge_sections(bench_out_dir, payload)
    benchmark.extra_info["flow"] = payload
    benchmark.pedantic(lambda: payload, rounds=1, iterations=1)

    assert payload["totals"]["cold_speedup_vs_seed"] >= MIN_COLD_SPEEDUP, \
        payload["totals"]
    assert payload["totals"]["warm_speedup_vs_seed"] >= MIN_WARM_SPEEDUP, \
        payload["totals"]


def _jobs_leg_seconds(suite, jobs):
    """Seconds for one cold ``implement_design_suite(jobs=jobs)`` call."""
    _clear_device_caches()
    start = time.perf_counter()
    results = implement_design_suite(suite, jobs=jobs)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def cold_legs(design_suite):
    """Both cold legs, alternating for ``PARALLEL_ROUNDS`` rounds.

    Returns the jobs=1 and jobs=N results plus each leg's fastest
    round: per-design seconds for jobs=1 (it implements one design at
    a time) and whole-suite seconds for jobs=N.
    """
    design_seconds = None
    parallel_seconds = float("inf")
    for _round in range(PARALLEL_ROUNDS):
        base, seconds = {}, {}
        _clear_device_caches()
        for name in DESIGN_ORDER:
            start = time.perf_counter()
            base.update(implement_design_suite(design_suite, designs=[name]))
            seconds[name] = time.perf_counter() - start
        if design_seconds is None or \
                sum(seconds.values()) < sum(design_seconds.values()):
            design_seconds = seconds
        parallel, round_seconds = _jobs_leg_seconds(design_suite, FLOW_JOBS)
        parallel_seconds = min(parallel_seconds, round_seconds)
    return base, parallel, design_seconds, parallel_seconds


def _clear_device_caches():
    clear_routing_graph_cache()
    clear_layout_cache()
    gc.collect()


def _gate_applies(jobs, cpu_count):
    """The speedup gate needs worker processes and cores to run them."""
    return jobs > 1 and cpu_count >= 2


def _parallel_section(design_seconds, parallel_seconds, jobs, cpu_count):
    """The ``parallel_cold`` report, with the bar derived from this run.

    Fanning whole designs out cannot beat the job count, the core count
    or the suite's total over its longest design (Amdahl), so the ideal
    speedup is the smallest of the three and the bar is
    ``PARALLEL_EFFICIENCY`` of it, lowered further only by an explicit
    ``REPRO_BENCH_FLOW_PARALLEL_MIN_SPEEDUP``.
    """
    serial_seconds = sum(design_seconds.values())
    ideal = min(jobs, cpu_count,
                serial_seconds / max(design_seconds.values()))
    derived_bar = round(PARALLEL_EFFICIENCY * ideal, 2)
    bar = derived_bar if PARALLEL_RELAXED_BAR is None \
        else min(derived_bar, float(PARALLEL_RELAXED_BAR))
    return {
        "cpu_count": cpu_count,
        "jobs": jobs,
        "jobs_1_seconds": round(serial_seconds, 4),
        "jobs_n_seconds": round(parallel_seconds, 4),
        "speedup_jobs_n_vs_1": round(serial_seconds / parallel_seconds, 2),
        "design_seconds": {name: round(seconds, 4)
                           for name, seconds in design_seconds.items()},
        "ideal_speedup": round(ideal, 2),
        "efficiency": PARALLEL_EFFICIENCY,
        "derived_bar": derived_bar,
        "bar": bar,
        "identical_across_jobs": True,
        "gate_applied": _gate_applies(jobs, cpu_count),
    }


def test_parallel_cold_flow(benchmark, cold_legs, bench_out_dir):
    """Cold suite flow at jobs=1 vs jobs=N, bit-identical results.

    ``jobs`` implements the suite's designs in that many worker
    processes; each design still runs the serial annealer and router,
    so the two legs must produce byte-identical bitstreams.  On a
    multi-core host the speedup is held to the bar derived from this
    run (see :func:`_parallel_section`).
    """
    base, parallel, design_seconds, parallel_seconds = cold_legs
    for name in DESIGN_ORDER:
        serial_run, parallel_run = base[name], parallel[name]
        assert serial_run.placement.slice_tiles == \
            parallel_run.placement.slice_tiles, name
        assert serial_run.placement.port_pads == \
            parallel_run.placement.port_pads, name
        assert {n: t.parent
                for n, t in serial_run.routing.routes.items()} == \
            {n: t.parent for n, t in parallel_run.routing.routes.items()}, \
            name
        assert serial_run.routing.pip_owner == \
            parallel_run.routing.pip_owner, name
        assert bytes(serial_run.bitstream.bits) == \
            bytes(parallel_run.bitstream.bits), name

    section = _parallel_section(design_seconds, parallel_seconds, FLOW_JOBS,
                                os.cpu_count() or 1)
    _merge_sections(bench_out_dir, {"parallel_cold": section})
    benchmark.extra_info["parallel_cold"] = section
    benchmark.pedantic(lambda: section, rounds=1, iterations=1)

    if section["gate_applied"]:
        assert section["speedup_jobs_n_vs_1"] >= section["bar"], section


def test_parallel_cold_gate_rejects_serial_jobs(design_suite, cold_legs,
                                                monkeypatch):
    """Mutation check: a ``jobs`` path that runs serially fails the gate.

    With the worker pool stubbed out, ``implement_design_suite``'s
    serial pass implements every design, so the jobs=N leg measures
    serial execution.  It gets the same fastest-of-``PARALLEL_ROUNDS``
    treatment as the real leg and is held to the bar derived from the
    shared jobs=1 leg.
    """
    from repro.experiments import designs

    cpu_count = os.cpu_count() or 1
    if not _gate_applies(FLOW_JOBS, cpu_count):
        pytest.skip(f"jobs={FLOW_JOBS} on {cpu_count} core(s): the speedup "
                    f"gate does not apply")
    monkeypatch.setattr(designs, "_implement_parallel",
                        lambda *args, **kwargs: {})
    forced_seconds = min(_jobs_leg_seconds(design_suite, FLOW_JOBS)[1]
                         for _round in range(PARALLEL_ROUNDS))
    section = _parallel_section(cold_legs[2], forced_seconds, FLOW_JOBS,
                                cpu_count)
    # The derived bar, not an explicit relaxation of it, is what must
    # catch a serial path.
    assert section["speedup_jobs_n_vs_1"] < section["derived_bar"], section


def test_defeat_map_build(benchmark, design_suite, implementations,
                          bench_out_dir):
    """Vectorized defeat-map build vs the python taint flood.

    Asserts the two paths produce *identical* prediction dictionaries
    (hence identical per-class counts), records both build times, and
    holds the vectorized build to the ≥5x acceptance floor over the
    committed flood baselines (the pre-vectorization
    ``defeat_map_seconds`` the retired prefilter benchmark recorded on
    the same reference container).  The in-run flood next to it keeps a
    machine-portable ratio in the report.
    """
    section = {
        "min_speedup_vs_committed_flood": MIN_MAP_SPEEDUP,
        # Both legs run with the process-shared tile/PIP caches warm
        # (the service steady state).  The committed flood could never
        # amortize those across builds — its per-analyzer caches died
        # with each map — so the committed numbers are its steady state
        # too, and the comparison is like for like.
        "measurement": "steady-state (shared caches warm, best of 3)",
        "designs": {},
    }
    for name in DESIGN_ORDER:
        impl = implementations[name]
        gc.collect()
        flood_map, flood_seconds = _timed(
            lambda impl=impl: FloodAnalyzer(impl).build_map())
        vector_seconds = None
        vector_map = None
        for _ in range(3):  # best-of-3 damps single-core scheduler noise
            gc.collect()
            vector_map, seconds = _timed(
                lambda impl=impl: LayoutAnalyzer(impl).build_map())
            vector_seconds = seconds if vector_seconds is None \
                else min(vector_seconds, seconds)

        assert vector_map.predictions == flood_map.predictions, name
        assert vector_map.counts() == flood_map.counts(), name

        committed = COMMITTED_FLOOD_SECONDS.get(name)
        row = {
            "bits": len(flood_map.predictions),
            "flood_seconds": round(flood_seconds, 4),
            "vectorized_seconds": round(vector_seconds, 4),
            "speedup_vs_flood_in_run": round(
                flood_seconds / vector_seconds, 2),
            "committed_flood_seconds": committed,
            "speedup_vs_committed_flood": round(
                committed / vector_seconds, 2) if committed else None,
            "identical_to_flood": True,
            "classes": flood_map.counts(),
        }
        section["designs"][name] = row

    _merge_sections(bench_out_dir, {"defeat_map_build": section})
    benchmark.extra_info["defeat_map_build"] = section
    benchmark.pedantic(lambda: section, rounds=1, iterations=1)

    for name, row in section["designs"].items():
        speedup = row["speedup_vs_committed_flood"]
        if speedup is not None:
            assert speedup >= MIN_MAP_SPEEDUP, (name, row)
