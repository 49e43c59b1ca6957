"""Benchmark: campaign engine throughput (faults/sec per backend).

Measures the Table 3 FIR campaign on the standard and medium-partition TMR
filter versions through every execution backend, against a baseline that
replays the seed's strictly serial one-bit-at-a-time loop (fresh compiled
design, fresh fault list, fresh golden trace, one simulator per fault, no
caching).  The numbers land in ``BENCH_campaign.json`` at the repository
root so the performance trajectory of the campaign hot path can be tracked
across PRs.

For the bit-parallel ``vector`` backend the report also records shard
sizes and lane utilization (how full the big-int lanes actually were), so
speedup figures stay interpretable across machines and fault mixes: a
campaign that only fills a third of its lanes has that much headroom
before the kernel itself is the limit.

The numpy-compiled backend is additionally measured at a *saturating*
injection count (default 10^6; ``REPRO_BENCH_NUMPY_FAULTS``): its
per-unique-fault sweeps amortize over duplicate injections, so its
throughput keeps climbing well past the smoke sample, which is the
regime million-injection campaigns run in.  That row reports a
*throughput* speedup — numpy faults/sec at the saturating count over the
seed loop's faults/sec at the smoke sample (per-fault seed cost is flat,
so the ratio is fair), plus the lane-utilization figures the cross-cone
packer is gated on.

Knobs: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FAULTS`` (see conftest).
"""

import dataclasses
import gc
import json
import os
import time

from repro.faults import (CampaignConfig, FaultListManager, NumpyBackend,
                          VectorBackend, clear_cache, default_stimulus,
                          run_campaign)
from repro.experiments import campaign_config_for
from repro.faults.campaign import SAMPLE_FRACTION
from repro.sim import CompiledDesign

BENCH_FAULTS = int(os.environ.get("REPRO_BENCH_FAULTS", "0")) or None

#: Required best-backend speedup over the seed serial loop.  Locally the
#: engine sustains 2.4-3.8x; shared CI runners are noisy, so their
#: workflow relaxes the bar via this knob (the JSON report still records
#: the measured numbers either way).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

#: Required speedup of the bit-parallel vector backend over the seed
#: serial loop (locally it sustains 20x+; relaxed on shared CI runners).
VECTOR_MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_VECTOR_MIN_SPEEDUP", "5.0"))

#: Saturating injection count for the numpy backend's throughput row.
NUMPY_SATURATED_FAULTS = int(
    os.environ.get("REPRO_BENCH_NUMPY_FAULTS", "1000000"))

#: Required throughput speedup of the numpy backend at the saturating
#: count, on the best design (relaxed on shared CI runners).
#: Recalibrated from 60 when the fault-list/resource tables moved onto
#: the shared per-layout cache: the seed serial loop — the denominator
#: of every normalized speedup here — builds its fault list ~2x faster
#: now (the enumeration tables are built once per device instead of
#: once per FaultListManager), so the ratio shrank from ~100-130x to
#: ~60-66x with the numpy kernel's absolute throughput unchanged.
NUMPY_MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_NUMPY_MIN_SPEEDUP", "50.0"))

#: Mean-lane-utilization floor for the cross-cone packer.
NUMPY_UTILIZATION_FLOOR = float(
    os.environ.get("REPRO_BENCH_NUMPY_UTILIZATION_FLOOR", "0.6"))

#: design versions measured (the unprotected filter plus the paper's
#: optimal partition)
MEASURED_DESIGNS = ("standard", "TMR_p2")

#: written into the session's ``bench_out_dir`` (committed baselines are
#: only overwritten under ``--update-baselines``)
BENCH_NAME = "BENCH_campaign.json"


def _seed_serial_loop(implementation, config: CampaignConfig) -> dict:
    """Replay of the pre-engine campaign loop, nothing shared or cached.

    Per fault, exactly what the seed's injection manager did: model the
    effect, flip the bit in a bitstream copy, recompute the fan-out cone
    and build a fresh simulator (full O(gates) program derivation).
    """
    from repro.faults import FaultModeler
    from repro.sim import Simulator, compare_traces

    compiled = CompiledDesign(implementation.design)
    stimulus = default_stimulus(implementation, config)
    fault_list = FaultListManager(implementation).build(
        config.fault_list_mode)
    count = config.num_faults if config.num_faults is not None else \
        max(1, int(len(fault_list) * SAMPLE_FRACTION))
    fault_bits = fault_list.sample(count, config.seed)

    modeler = FaultModeler(implementation, compiled)
    golden = Simulator(compiled).run(stimulus, record_nets=True)
    wrong = 0
    for bit in fault_bits:
        effect = modeler.effect_of_bit(bit)
        if not effect.has_effect:
            continue
        faulty_bitstream = implementation.bitstream.copy()
        faulty_bitstream.bits[effect.bit] ^= 1
        cone = compiled.fault_cone(effect.overlay.seed_nets) \
            if effect.overlay.seed_nets else None
        simulator = Simulator(compiled, effect.overlay)
        if cone is not None:
            trace = simulator.run(stimulus, golden=golden, cone=cone)
        else:
            trace = simulator.run(stimulus)
        comparison = compare_traces(trace, golden,
                                    skip_cycles=config.skip_cycles)
        wrong += comparison.wrong_answer
    return {"injected": len(fault_bits), "wrong": wrong}


#: Rounds per timed leg.  A leg's time is its fastest round: the seed
#: loop and the vector campaign take tens of milliseconds, so a single
#: collector pause or host stall in one round would otherwise decide a
#: bar that compares two such times.
TIMING_ROUNDS = 5


def _timed(thunk):
    # Every timed leg, seed loop and backend alike, starts from the same
    # collector state: what the previous leg left is collected off the
    # clock instead of in a pause inside a ~15 ms campaign.
    gc.collect()
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def _fastest(thunk, verdict):
    """(last value, fastest time) over ``TIMING_ROUNDS`` timed rounds.

    The rounds of a leg repeat one deterministic computation, so every
    round's ``verdict(value)`` must equal the first round's.
    """
    value, best = _timed(thunk)
    expected = verdict(value)
    for _ in range(TIMING_ROUNDS - 1):
        value, seconds = _timed(thunk)
        assert verdict(value) == expected
        best = min(best, seconds)
    return value, best


def test_campaign_engine_throughput(benchmark, design_suite,
                                    implementations, bench_out_dir):
    config = campaign_config_for(design_suite, num_faults=BENCH_FAULTS)

    clear_cache()
    payload = {
        "scale": design_suite.scale.name,
        "num_faults": config.num_faults,
        "workload_cycles": config.workload_cycles,
        "designs": {},
    }
    for name in MEASURED_DESIGNS:
        implementation = implementations[name]

        # Fastest round, like the backends below: the seed loop is the
        # denominator of every normalized speedup (including the CI
        # regression gate), so a one-off stall here would skew them all.
        baseline, baseline_seconds = _fastest(
            lambda: _seed_serial_loop(implementation, config),
            verdict=lambda counts: counts)
        baseline_fps = baseline["injected"] / baseline_seconds

        measured = {}
        reference = None
        backends = {
            "serial": "serial",
            "vector": VectorBackend(),
            "numpy": NumpyBackend(),
        }
        for backend_name, backend in backends.items():
            # The first round may fill the cache; the later ones run at
            # the steady state repeated campaigns run at.
            result, best_seconds = _fastest(
                lambda: run_campaign(implementation, config,
                                     backend=backend),
                verdict=lambda result: (result.injected,
                                        result.wrong_answers))
            if reference is None:
                reference = result
            assert result.wrong_answers == baseline["wrong"]
            assert result.wrong_answer_percent == \
                reference.wrong_answer_percent
            measured[backend_name] = {
                "seconds": round(best_seconds, 4),
                "faults_per_second": round(
                    result.injected / best_seconds, 1),
                "speedup_vs_seed_serial": round(
                    baseline_seconds / best_seconds, 2),
            }
            if isinstance(backend, (VectorBackend, NumpyBackend)):
                stats = backend.last_run_stats
                measured[backend_name]["lane_width"] = stats["lane_width"]
                measured[backend_name]["packed_faults"] = \
                    stats["packed_faults"]
                measured[backend_name]["peak_lane_utilization"] = round(
                    stats["peak_lane_utilization"], 4)
                measured[backend_name]["mean_lane_utilization"] = round(
                    stats["mean_lane_utilization"], 4)
                measured[backend_name]["shards"] = [
                    {"lanes": shard["lanes"], "passes": shard["passes"],
                     "coned": shard["coned"],
                     "cone_gates": shard["cone_gates"],
                     "cycles_simulated": shard["cycles_simulated"]}
                    for shard in stats["shards"]]
            if isinstance(backend, NumpyBackend):
                stats = backend.last_run_stats
                measured[backend_name]["unique_faults"] = \
                    stats["unique_faults"]
                measured[backend_name]["demuxed_faults"] = \
                    stats["demuxed_faults"]

        best_backend = max(measured,
                           key=lambda k: measured[k]["faults_per_second"])
        payload["designs"][name] = {
            "seed_serial": {
                "seconds": round(baseline_seconds, 4),
                "faults_per_second": round(baseline_fps, 1),
            },
            "backends": measured,
            "best_backend": best_backend,
            "best_speedup": measured[best_backend][
                "speedup_vs_seed_serial"],
        }

        # Saturating-draw throughput row: one warm run (the smoke
        # runs above already filled the program/golden caches, which
        # is the steady state huge campaigns start from).  The
        # speedup is a faults/sec ratio against the seed loop — its
        # per-fault cost is flat in the draw size, so measuring the
        # seed at the smoke sample and numpy at the saturating draw
        # compares like with like without an hours-long baseline.
        saturated_config = dataclasses.replace(
            config, num_faults=NUMPY_SATURATED_FAULTS)
        saturated_backend = NumpyBackend()
        result, seconds = _timed(
            lambda: run_campaign(implementation, saturated_config,
                                 backend=saturated_backend))
        stats = saturated_backend.last_run_stats
        saturated_fps = result.injected / seconds
        payload["designs"][name]["numpy_saturated"] = {
            "num_faults": NUMPY_SATURATED_FAULTS,
            "seconds": round(seconds, 4),
            "faults_per_second": round(saturated_fps, 1),
            "speedup_vs_seed_serial_throughput": round(
                saturated_fps / baseline_fps, 2),
            "unique_faults": stats["unique_faults"],
            "demuxed_faults": stats["demuxed_faults"],
            "packed_faults": stats["packed_faults"],
            "peak_lane_utilization": round(
                stats["peak_lane_utilization"], 4),
            "mean_lane_utilization": round(
                stats["mean_lane_utilization"], 4),
        }

    payload["numpy_best_saturated_speedup"] = max(
        row["numpy_saturated"]["speedup_vs_seed_serial_throughput"]
        for row in payload["designs"].values())

    (bench_out_dir / BENCH_NAME).write_text(
        json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info["campaign_engine"] = payload
    benchmark.pedantic(lambda: payload, rounds=1, iterations=1)

    # The engine's acceptance bars: at least one backend sustains >= 2x
    # the seed serial loop's faults/sec on the Table 3 campaign, and the
    # bit-parallel vector backend sustains >= 5x on its own (both relaxed
    # on noisy shared runners through the REPRO_BENCH_*MIN_SPEEDUP knobs).
    for name, row in payload["designs"].items():
        assert row["best_speedup"] >= MIN_SPEEDUP, (name, row)
        assert row["backends"]["vector"]["speedup_vs_seed_serial"] >= \
            VECTOR_MIN_SPEEDUP, (name, row)

    # Numpy backend bars: the cross-cone packer keeps the lanes at least
    # 60% full on every measured campaign, and at the saturating draw the
    # best design clears the 60x throughput bar over the seed loop (the
    # same floors ``check_regression.py`` holds the committed report to).
    for name, row in payload["designs"].items():
        assert row["backends"]["numpy"]["mean_lane_utilization"] >= \
            NUMPY_UTILIZATION_FLOOR, (name, row)
        assert row["numpy_saturated"]["mean_lane_utilization"] >= \
            NUMPY_UTILIZATION_FLOOR, (name, row)
    assert payload["numpy_best_saturated_speedup"] >= \
        NUMPY_MIN_SPEEDUP, payload["numpy_best_saturated_speedup"]
