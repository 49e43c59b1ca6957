"""Benchmark: predictive fault-list pruning (static campaign prefilter).

Measures, per design, the Table 3 campaign with and without the layout
analyzer's ``prefilter="static"`` knob: the defeat map is built once (a
static per-design artifact amortized over every later campaign — seeds,
workloads, upset models) and passed in explicitly, then the prefiltered
campaign — which hands the execution backend only the injections that can
possibly change an output — is measured against the full campaign both
cold (empty campaign cache, the first-campaign regime) and warm (the
steady state of scenario matrices).

The headline metric is ``simulated_reduction``: how many times fewer
injections the execution backend evaluates.  Wall times are recorded too,
but most pruned bits are no-effect upsets that were cheap to evaluate, so
the wall-time gain is modest — the count reduction is what scales (every
skipped injection also skips its fault modeling, task construction and
verdict classification at every later seed/workload/model combination).

The defeat-map build itself is costed separately
(``defeat_map_seconds``) and then *folded back in*: ``speedup_with_map``
is the cold campaign speedup when the map build is charged to that one
campaign (the pay-it-all-upfront worst case), and
``campaigns_to_amortize_map`` is how many cold campaigns it takes for
the map to pay for itself.  That keeps the prefilter's known soft spot —
a map that costs more to build than it saves — visible and gateable
instead of hidden in an untimed setup step.

The numbers land in ``BENCH_predict.json`` at the repository root; the CI
regression gate (``benchmarks/check_regression.py --predict-baseline ...``)
tracks the pruning ratios across PRs.

Knobs: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FAULTS`` (see conftest);
``REPRO_BENCH_PREDICT_MIN_SPEEDUP`` relaxes the wall-time floor on noisy
shared runners (the pruning-ratio bar is count-based and portable).
"""

import json
import os
import time

from repro.analysis.layout import defeat_map_for
from repro.experiments import campaign_config_for
from repro.faults import clear_cache, implementation_fingerprint, \
    run_campaign
from repro.service.tier import SharedCacheTier

BENCH_FAULTS = int(os.environ.get("REPRO_BENCH_FAULTS", "0")) or None

#: Wall-time floor: the prefiltered campaign must not be *pathologically*
#: slower than the full one.  Smoke-scale campaigns finish in fractions
#: of a second, so the ratio jitters around 1.0 with scheduler noise —
#: the floor only catches a prefilter that somehow doubles the campaign
#: cost; the headline saving is the simulated-fault count, asserted
#: separately and machine-independent.
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_PREDICT_MIN_SPEEDUP", "0.5"))

#: Floor on the cold speedup with the defeat-map build charged to the
#: campaign (``speedup_with_map``).  Catches a map build that blows up
#: to many multiples of the campaign it serves; relaxed on noisy shared
#: runners via the env knob.
MAP_MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_PREDICT_MAP_MIN_SPEEDUP", "0.2"))

#: Required reduction of backend-simulated faults on the paper's optimal
#: partition: the acceptance bar of the predictive-pruning feature.
MIN_REDUCTION_TMR_P2 = 1.5

#: design versions measured (the unprotected filter plus the paper's
#: optimal partition and the unvoted-register worst case)
MEASURED_DESIGNS = ("standard", "TMR_p2", "TMR_p3_nv")

#: written into the session's ``bench_out_dir`` (committed baselines are
#: only overwritten under ``--update-baselines``)
BENCH_NAME = "BENCH_predict.json"


def _timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def test_predictive_prefilter(benchmark, design_suite, implementations,
                              bench_out_dir, tmp_path_factory):
    config = campaign_config_for(design_suite, num_faults=BENCH_FAULTS)
    prefiltered_config = campaign_config_for(
        design_suite, num_faults=BENCH_FAULTS, prefilter="static")
    tier = SharedCacheTier(tmp_path_factory.mktemp("cache-tier"))

    clear_cache()
    payload = {
        "scale": design_suite.scale.name,
        "num_faults": config.num_faults,
        "workload_cycles": config.workload_cycles,
        "designs": {},
    }
    for name in MEASURED_DESIGNS:
        implementation = implementations[name]

        # The defeat map is the static artifact the prefilter consumes —
        # built once per design and amortized over every later campaign
        # (seeds, workloads, upset models) — so it is built outside the
        # timed region, passed in explicitly, and costed separately.
        defeat_map, map_seconds = _timed(
            lambda: defeat_map_for(implementation,
                                   mode=config.fault_list_mode,
                                   use_cache=False))

        # Cold runs: each campaign starts from an empty campaign cache,
        # the regime of the *first* campaign on a design, where the
        # prefiltered run skips the fault modeling of every silent bit.
        # Best of two per variant — the runs are fractions of a second,
        # so a single timer blip would swing the reported ratio.
        cold_pre = cold_full = None
        pre_result = full_result = None
        for _ in range(2):
            clear_cache()
            pre_result, seconds = _timed(
                lambda: run_campaign(implementation, prefiltered_config,
                                     backend="serial",
                                     defeat_map=defeat_map))
            cold_pre = seconds if cold_pre is None \
                else min(cold_pre, seconds)
            clear_cache()
            full_result, seconds = _timed(
                lambda: run_campaign(implementation, config,
                                     backend="serial"))
            cold_full = seconds if cold_full is None \
                else min(cold_full, seconds)

        # Warm runs: repeated campaigns over the shared campaign cache
        # (the steady state of scenario matrices and repeated seeds).
        warm_pre = warm_full = None
        warm_pre_result = warm_full_result = None
        for _ in range(2):
            warm_pre_result, seconds = _timed(
                lambda: run_campaign(implementation, prefiltered_config,
                                     backend="serial",
                                     defeat_map=defeat_map))
            warm_pre = seconds if warm_pre is None \
                else min(warm_pre, seconds)
            warm_full_result, seconds = _timed(
                lambda: run_campaign(implementation, config,
                                     backend="serial"))
            warm_full = seconds if warm_full is None \
                else min(warm_full, seconds)

        # Prefiltering must not change a single aggregate.
        for candidate in (pre_result, warm_pre_result, warm_full_result):
            assert candidate.wrong_answers == full_result.wrong_answers
            assert candidate.injected == full_result.injected
            assert candidate.effect_table() == full_result.effect_table()

        reduction = (full_result.injected / pre_result.simulated
                     if pre_result.simulated else float("inf"))
        per_campaign_saving = cold_full - cold_pre
        campaigns_to_amortize = (
            round(map_seconds / per_campaign_saving, 1)
            if per_campaign_saving > 0 else None)

        # The shared cache tier's amortization story: the map is built
        # (and stored) once *ever*, then every later campaign — in this
        # process or any other service worker — pays a pickle load
        # instead of the analyzer pass.  A warm-tier campaign therefore
        # amortizes the map after ~1 campaign; the build cost is paid by
        # exactly one job fleet-wide.
        fingerprint = implementation_fingerprint(implementation)
        _, map_store_seconds = _timed(
            lambda: tier.store_defeat_map(fingerprint,
                                          config.fault_list_mode,
                                          defeat_map))
        loaded_map, map_load_seconds = _timed(
            lambda: tier.load_defeat_map(fingerprint,
                                         config.fault_list_mode))
        assert loaded_map is not None
        assert loaded_map.predictions == defeat_map.predictions
        amortize_with_tier = (
            round(map_load_seconds / per_campaign_saving, 2)
            if per_campaign_saving > 0 else None)

        payload["designs"][name] = {
            "injected": full_result.injected,
            "simulated_full": full_result.injected,
            "simulated_prefiltered": pre_result.simulated,
            "skipped_silent": pre_result.skipped_silent,
            "simulated_reduction": round(reduction, 2),
            "full_seconds": round(cold_full, 4),
            "prefiltered_seconds": round(cold_pre, 4),
            "speedup": round(cold_full / cold_pre, 2),
            "warm_full_seconds": round(warm_full, 4),
            "warm_prefiltered_seconds": round(warm_pre, 4),
            "warm_speedup": round(warm_full / warm_pre, 2),
            "defeat_map_seconds": round(map_seconds, 4),
            "speedup_with_map": round(
                cold_full / (cold_pre + map_seconds), 2),
            "campaigns_to_amortize_map": campaigns_to_amortize,
            "map_tier_store_seconds": round(map_store_seconds, 4),
            "map_tier_load_seconds": round(map_load_seconds, 4),
            "map_tier_load_speedup_vs_build": round(
                map_seconds / map_load_seconds, 1)
            if map_load_seconds > 0 else None,
            "campaigns_to_amortize_map_with_tier": amortize_with_tier,
            "fault_list_bits": len(defeat_map),
            "classes": defeat_map.counts(),
            "layout_defeat_probability": round(
                defeat_map.defeat_probability(), 5),
        }

    (bench_out_dir / BENCH_NAME).write_text(
        json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info["predictive_prefilter"] = payload
    benchmark.pedantic(lambda: payload, rounds=1, iterations=1)

    # Acceptance bars: the static prefilter cuts the backend-simulated
    # fault count of the optimal partition by >= 1.5x (count-based,
    # machine-independent) and the prefiltered campaign must not be
    # materially slower than the full one (floor relaxed further on
    # noisy shared runners via the env knob).
    tmr_p2 = payload["designs"]["TMR_p2"]
    assert tmr_p2["simulated_reduction"] >= MIN_REDUCTION_TMR_P2, tmr_p2
    for name, row in payload["designs"].items():
        assert row["simulated_reduction"] >= 1.0, (name, row)
        assert row["speedup"] >= MIN_SPEEDUP, (name, row)
        assert row["speedup_with_map"] >= MAP_MIN_SPEEDUP, (name, row)

    # The vectorized analyzer now rebuilds a smoke-scale map about as
    # fast as the tier deserializes one, so load-beats-build no longer
    # holds at this scale (the crossover stays visible per design via
    # ``map_tier_load_speedup_vs_build``); the tier's remaining value
    # here is cross-process amortization — one build fleet-wide — not
    # single-process latency.  What must still hold is that a tier load
    # never costs *multiples* of a rebuild, which would mean the stored
    # artifact has bloated.
    for name, row in payload["designs"].items():
        assert row["map_tier_load_seconds"] < \
            5 * row["defeat_map_seconds"] + 0.05, (name, row)
