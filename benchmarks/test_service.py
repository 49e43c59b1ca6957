"""Benchmark: campaign service throughput over the shared warm-cache tier.

Measures the :class:`repro.service.CampaignService` end to end with N
concurrent submitters (default 4), each submitting the Table 3 FIR
campaign restricted to a *different* suite design, so no submitter rides
another's in-process caches within a wave — every warm number below is
earned by the persistent tier, not by lucky intra-wave sharing.

Two waves run against the same on-disk tier:

* the **cold** wave starts from an empty tier and empty in-process
  caches — every job places and routes its design, builds its fault
  list and simulates its golden trace from scratch (persisting each into
  the tier), and
* the **warm** wave simulates a service restart (in-process caches and
  suite memo cleared, a fresh :class:`CampaignService` on the same tier
  directory) and re-submits the same campaigns under *different seeds* —
  so the campaigns themselves are new work and only the per-design
  artifacts (flow, golden trace, fault list) come from the tier.

A coalescing segment then proves request dedup end to end: two identical
submissions produce one computed job observed by both submitters, and a
third (forced, fresh) computation of the same spec reproduces the shared
report bit for bit.

The numbers land in ``BENCH_service.json`` (jobs/sec, per-job latency
p50/p99, tier hit rates, cold vs warm aggregate speedup) and the CI
regression gate (``check_regression.py --service-baseline ...``) tracks
them across PRs.

Knobs: ``REPRO_BENCH_SERVICE_MIN_WARM_SPEEDUP`` relaxes the warm-over-
cold floor on noisy shared runners, ``REPRO_BENCH_SERVICE_MAX_P99``
bounds the warm-wave per-job latency, ``REPRO_BENCH_SERVICE_FAULTS``
scales the per-job campaign.
"""

import json
import math
import os
import threading
import time

from repro import pipeline
from repro.faults import clear_cache
from repro.pipeline import stable_report
from repro.fpga.config import clear_layout_cache
from repro.fpga.routing import clear_routing_graph_cache
from repro.service import (CampaignService, SharedCacheTier,
                           deactivate_tier)
from repro.service.jobs import JobSpec
from repro.service.orchestrator import DEFAULT_MAX_PARALLEL

#: The scenario every submitter draws from; its per-design restriction is
#: what keeps the wave's submitters from sharing in-process work.
SCENARIO = "table3-fir"
SCALE = os.environ.get("REPRO_BENCH_SERVICE_SCALE", "smoke")

#: One design per submitter (distinct, so a wave shares nothing but the
#: suite build): the unprotected filter, the paper's three partitions.
SUBMITTER_DESIGNS = ("standard", "TMR_p1", "TMR_p2", "TMR_p3_nv")

#: Injections per job — small enough that the per-design artifacts (flow,
#: golden trace, fault list), not the campaign loop, dominate a job; that
#: is the regime the tier exists for, and the published hit rates and
#: speedups describe it.
SERVICE_FAULTS = int(os.environ.get("REPRO_BENCH_SERVICE_FAULTS", "100"))

#: Required aggregate speedup of the warm wave over the cold wave (the
#: service acceptance bar; relaxed on noisy shared runners via the knob).
#: Recalibrated from 3.0 when the parallel cold flow landed: the cold
#: wave itself got ~2x faster (batched router, vectorized defeat maps),
#: so the warm-over-cold ratio shrank even though warm latency did not
#: regress.  2.0 still catches a warm path degenerating to cold cost.
MIN_WARM_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SERVICE_MIN_WARM_SPEEDUP", "2.0"))

#: Ceiling on the warm wave's p99 per-job latency, seconds.  Generous —
#: it exists to catch a warm path that degenerated to cold-path cost,
#: not to benchmark the machine.
MAX_WARM_P99 = float(
    os.environ.get("REPRO_BENCH_SERVICE_MAX_P99", "30.0"))

#: Floor on the warm wave's tier hit rate (hits over tier lookups).  A
#: warm restart should serve every per-design artifact from the tier.
MIN_WARM_HIT_RATE = float(
    os.environ.get("REPRO_BENCH_SERVICE_MIN_HIT_RATE", "0.75"))

#: written into the session's ``bench_out_dir`` (committed baselines are
#: only overwritten under ``--update-baselines``)
BENCH_NAME = "BENCH_service.json"


def _simulate_restart() -> None:
    """Drop every in-process cache, keeping only what is on disk.

    This is what a service restart (or a different worker host mounting
    the same tier) actually looks like: the suite memo, campaign caches,
    routing graphs and config layouts are process state and vanish; the
    tier directory is all that survives.
    """
    clear_cache()
    pipeline._SUITE_MEMO.clear()
    clear_routing_graph_cache()
    clear_layout_cache()
    deactivate_tier()


def _quantile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _spec_for(design: str, seed: int) -> JobSpec:
    return JobSpec(SCENARIO, scale=SCALE, num_faults=SERVICE_FAULTS,
                   seed=seed, designs=(design,))


def _run_wave(tier_root, seed_base: int):
    """One wave: N concurrent submitters against a service on *tier_root*.

    Returns (wall seconds, per-job latencies, jobs, tier) with the
    service stopped and the tier deactivated — each wave owns a fresh
    :class:`CampaignService` so wave boundaries behave like restarts.
    """
    tier = SharedCacheTier(tier_root)
    service = CampaignService(tier=tier).start()
    jobs = []
    jobs_lock = threading.Lock()

    def submitter(offset: int, design: str) -> None:
        job = service.submit(_spec_for(design, seed_base + offset))
        with jobs_lock:
            jobs.append(job)

    threads = [threading.Thread(target=submitter, args=(offset, design))
               for offset, design in enumerate(SUBMITTER_DESIGNS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    settled = service.wait(timeout=600)
    wall = time.perf_counter() - start
    service.stop()
    assert settled, "service wave did not settle within its timeout"
    failed = [(job.id, job.error) for job in jobs if job.state != "done"]
    assert not failed, failed
    latencies = [job.finished_at - job.submitted_at for job in jobs]
    return wall, latencies, jobs, tier


def _wave_row(wall, latencies, tier) -> dict:
    tier_stats = tier.stats.as_dict()
    # Shard-checkpoint counters (shard_hits/shard_misses) are excluded:
    # they track crash-resume coverage, not warm-artifact reuse, and a
    # wave of fresh seeds would dilute the published hit rate with one
    # structural miss per campaign.
    hits = sum(
        count for key, count in tier_stats.items()
        if key.endswith("_hits") and not key.startswith("shard_"))
    lookups = hits + sum(
        count for key, count in tier_stats.items()
        if key.endswith("_misses") and not key.startswith("shard_"))
    return {
        "wall_seconds": round(wall, 4),
        "jobs_per_second": round(len(latencies) / wall, 3),
        "latency_p50_seconds": round(_quantile(latencies, 0.50), 4),
        "latency_p99_seconds": round(_quantile(latencies, 0.99), 4),
        "tier_hit_rate": round(hits / lookups, 4) if lookups else None,
        "tier": tier_stats,
        "flow": {key[len("flow_"):]: count
                 for key, count in tier_stats.items()
                 if key.startswith("flow_")},
    }


def _recovery_spec(seed: int) -> JobSpec:
    # Backend pinned to sharded: shard checkpoints are what the recovery
    # segment measures, and a spec without a backend would also shard
    # (the service default) — pinning just makes the intent explicit.
    return JobSpec(SCENARIO, scale=SCALE, num_faults=SERVICE_FAULTS,
                   seed=seed, designs=(SUBMITTER_DESIGNS[0],),
                   backend="sharded")


def _campaign_execution(report) -> dict:
    """The sharded backend's run stats for the segment's one design."""
    for stage in report["stages"]:
        if stage["name"] == "campaign":
            return stage["summary"]["execution"][SUBMITTER_DESIGNS[0]]
    raise AssertionError("no campaign stage in report")


def _run_recovery(tmp_path_factory) -> dict:
    """Crash/resume segment: journal recovery + shard-checkpoint reuse.

    Three runs, all sharded with the shard floor forced down so even the
    smoke-scale campaign splits into multiple checkpointable shards:

    * an **uninterrupted** reference on its own tier (the cold cost and
      the byte-identity yardstick),
    * a **crash** run that dies after two shard checkpoints (a simulated
      SIGKILL: the job never settles, no clean-shutdown marker), then a
      restart on the same tier whose journal recovery resubmits the job
      and whose rerun reloads the checkpointed shards, and
    * a **worker-kill** run where chaos SIGKILLs the worker evaluating
      shard 1 exactly once and supervision retries it.
    """
    from repro.service import chaos

    controlled = ("REPRO_SHARD_MIN_TASKS", "REPRO_SHARD_WORKERS",
                  chaos.CHAOS_ENV_VAR, chaos.CHAOS_STATE_ENV_VAR)
    saved = {key: os.environ.get(key) for key in controlled}
    os.environ["REPRO_SHARD_MIN_TASKS"] = "0"
    os.environ["REPRO_SHARD_WORKERS"] = "2"
    os.environ.pop(chaos.CHAOS_ENV_VAR, None)
    os.environ.pop(chaos.CHAOS_STATE_ENV_VAR, None)
    try:
        spec = _recovery_spec(seed=4000)

        # Uninterrupted reference.
        _simulate_restart()
        with CampaignService(
                tier=tmp_path_factory.mktemp("recovery-ref")) as service:
            start = time.perf_counter()
            reference = service.run(spec, timeout=600)
            cold_wall = time.perf_counter() - start
            assert reference.state == "done", reference.error
        reference_bytes = json.dumps(stable_report(reference.report),
                                     sort_keys=True)
        shards_total = _campaign_execution(reference.report)["shards"]

        # Crash after two shard checkpoints, then restart + resume.
        crash_tier = tmp_path_factory.mktemp("recovery-crash")
        _simulate_restart()
        os.environ[chaos.CHAOS_ENV_VAR] = "crash-after-shards:2"
        os.environ[chaos.CHAOS_STATE_ENV_VAR] = str(
            tmp_path_factory.mktemp("recovery-chaos"))
        crashed = CampaignService(tier=crash_tier).start()
        crashed.submit(spec)
        assert not crashed.wait(timeout=600), \
            "the chaos crash point never fired"
        crashed.stop(timeout=1.0)
        os.environ.pop(chaos.CHAOS_ENV_VAR)

        _simulate_restart()
        start = time.perf_counter()
        with CampaignService(tier=crash_tier) as recovered:
            recovery = dict(recovered.last_recovery)
            assert recovered.wait(timeout=600)
            resumed = recovered.queue.jobs()[0]
            assert resumed.state == "done", resumed.error
            resume_wall = time.perf_counter() - start
        execution = _campaign_execution(resumed.report)
        resume_identical = json.dumps(stable_report(resumed.report),
                                      sort_keys=True) == reference_bytes

        # Worker kill: supervision retries the SIGKILLed shard.
        _simulate_restart()
        os.environ[chaos.CHAOS_ENV_VAR] = "kill-shard:1"
        os.environ[chaos.CHAOS_STATE_ENV_VAR] = str(
            tmp_path_factory.mktemp("recovery-kill-chaos"))
        with CampaignService(
                tier=tmp_path_factory.mktemp("recovery-kill")) as service:
            killed = service.run(spec, timeout=600)
            assert killed.state == "done", killed.error
        os.environ.pop(chaos.CHAOS_ENV_VAR)

        return {
            "shards_total": shards_total,
            "shards_recomputed": execution["checkpoint_stores"],
            "checkpoint_hits": execution["checkpoint_hits"],
            "cold_wall_seconds": round(cold_wall, 4),
            "resume_wall_seconds": round(resume_wall, 4),
            "resume_speedup_vs_cold": round(cold_wall / resume_wall, 2),
            "resume_identical": resume_identical,
            "recovered_jobs": recovery["recovered_jobs"],
            "clean_shutdown_marker": recovery["clean_shutdown"],
            "worker_kill": {
                "retries_taken": _campaign_execution(
                    killed.report)["retries"],
                "report_identical": json.dumps(
                    stable_report(killed.report),
                    sort_keys=True) == reference_bytes,
            },
        }
    finally:
        _simulate_restart()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def test_service_throughput(benchmark, bench_out_dir, tmp_path_factory):
    tier_root = tmp_path_factory.mktemp("service-tier")

    # Earlier tests in this pytest process may have warmed the in-process
    # caches; the cold wave must start genuinely cold.
    _simulate_restart()
    cold_wall, cold_latencies, _, cold_tier = _run_wave(tier_root, 1000)

    _simulate_restart()
    warm_wall, warm_latencies, _, warm_tier = _run_wave(tier_root, 2000)

    # Coalescing proof: two identical submissions against the warm tier
    # produce ONE computed job that both submitters observe, and a
    # forced fresh computation of the same spec reproduces the shared
    # report bit for bit.
    _simulate_restart()
    service = CampaignService(tier=SharedCacheTier(tier_root)).start()
    try:
        spec = _spec_for(SUBMITTER_DESIGNS[0], seed=3000)
        first = service.submit(spec)
        second = service.submit(spec)
        assert service.wait(timeout=600)
        coalesced = service.queue.stats()["coalesced"]
        jobs_created = len(service.queue.jobs())
        # Reports are compared through stable_report: timings and cache
        # hit/miss counters legitimately vary run to run; everything the
        # paper cares about (verdicts, tables, provenance) must not.
        shared_report = json.dumps(stable_report(first.report),
                                   sort_keys=True)
        # Finished jobs do not absorb new submissions, so resubmitting
        # the *identical* spec now forces a genuinely fresh computation —
        # whose report must reproduce the coalesced one bit for bit.
        recompute = service.run(spec, timeout=600)
        coalescing_row = {
            "submissions": 2,
            "jobs_created": jobs_created,
            "coalesced": coalesced,
            "same_job": first is second,
            "recompute_was_fresh": recompute is not first,
            "reports_identical": json.dumps(
                stable_report(second.report),
                sort_keys=True) == shared_report,
            "recompute_identical": json.dumps(
                stable_report(recompute.report),
                sort_keys=True) == shared_report,
        }
    finally:
        service.stop()
        deactivate_tier()

    recovery_row = _run_recovery(tmp_path_factory)

    payload = {
        "scenario": SCENARIO,
        "scale": SCALE,
        "num_faults": SERVICE_FAULTS,
        "submitters": len(SUBMITTER_DESIGNS),
        "designs": list(SUBMITTER_DESIGNS),
        "max_parallel": DEFAULT_MAX_PARALLEL,
        "backend": "sharded",
        "cold": _wave_row(cold_wall, cold_latencies, cold_tier),
        "warm": _wave_row(warm_wall, warm_latencies, warm_tier),
        "warm_vs_cold_speedup": round(cold_wall / warm_wall, 2),
        "coalescing": coalescing_row,
        "recovery": recovery_row,
    }

    (bench_out_dir / BENCH_NAME).write_text(
        json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info["service"] = payload
    benchmark.pedantic(lambda: payload, rounds=1, iterations=1)

    # Acceptance bars: a warm restart of the service runs the same wave
    # at >= 3x aggregate throughput purely off the tier (relaxed on
    # noisy shared runners via the env knob), the warm wave's per-design
    # artifacts actually came from the tier, its tail latency stayed
    # bounded, and identical submissions provably coalesced.
    assert payload["warm_vs_cold_speedup"] >= MIN_WARM_SPEEDUP, payload
    warm = payload["warm"]
    assert warm["tier_hit_rate"] is not None \
        and warm["tier_hit_rate"] >= MIN_WARM_HIT_RATE, warm
    assert warm["latency_p99_seconds"] <= MAX_WARM_P99, warm
    assert coalescing_row["coalesced"] == 1, coalescing_row
    assert coalescing_row["same_job"], coalescing_row
    assert coalescing_row["jobs_created"] == 1, coalescing_row
    assert coalescing_row["recompute_was_fresh"], coalescing_row
    assert coalescing_row["reports_identical"], coalescing_row
    assert coalescing_row["recompute_identical"], coalescing_row

    # Recovery bars: the resumed job reloaded at least the checkpoints
    # taken before the crash and recomputed only the rest; its report —
    # and the worker-kill run's — reproduce the uninterrupted reference
    # bit for bit.  (Wall-clock resume speedup is recorded but gated in
    # check_regression.py, where CI can relax it for noisy runners.)
    assert recovery_row["recovered_jobs"] == 1, recovery_row
    assert not recovery_row["clean_shutdown_marker"], recovery_row
    assert recovery_row["checkpoint_hits"] >= 2, recovery_row
    assert recovery_row["checkpoint_hits"] + \
        recovery_row["shards_recomputed"] == \
        recovery_row["shards_total"], recovery_row
    assert recovery_row["resume_identical"], recovery_row
    assert recovery_row["worker_kill"]["retries_taken"] >= 1, recovery_row
    assert recovery_row["worker_kill"]["report_identical"], recovery_row
