"""Guard the benchmarks against performance regressions.

Compares freshly measured benchmark reports against the baselines
committed at the repository root and fails (exit code 1) when a
normalized speedup regresses by more than the tolerance:

* ``BENCH_campaign.json`` — the best campaign backend's
  ``speedup_vs_seed_serial`` per design, plus the numpy backend's
  saturated-draw throughput speedup per design (ratio-compared against
  the baseline; every design must carry a ``numpy`` backend row and a
  ``numpy_saturated`` row) and two *absolute* floors: the
  best design's saturated speedup must clear ``--numpy-min-speedup``
  (default 60x) and every numpy row's mean lane utilization must clear
  ``--numpy-utilization-floor`` (default 0.6);
* ``BENCH_flow.json`` (optional, via ``--flow-baseline/--flow-current``)
  — the implementation flow's total ``cold_speedup_vs_seed`` and
  ``warm_speedup_vs_seed``; when the report carries the
  ``parallel_cold`` section (the cold suite at ``jobs=1`` vs ``jobs=N``
  worker processes), the cross-leg identity bit is a hard gate and,
  where the report says the gate applied, the jobs=N speedup is held to
  the bar the run derived and recorded (``bar``), lowered to
  ``--flow-parallel-min-speedup`` when that is smaller (reports without
  a recorded bar use the flag alone); when it carries
  ``defeat_map_build``, the vectorized build must equal the flood (hard
  gate), ratio-track the in-run flood speedup, and clear
  ``--flow-map-min-speedup`` over the committed flood baselines;
* ``BENCH_service.json`` (optional, via
  ``--service-baseline/--service-current``) — the campaign service's
  ``warm_vs_cold_speedup`` (ratio-compared against the baseline and held
  to an absolute floor), the warm wave's tier hit rate and jobs/sec
  floors, the coalescing proof (identical submissions must dedup to
  one computation with bit-identical reports), and — when the baseline
  carries a ``recovery`` section — the crash-recovery gates
  (``--service-recovery-*``): journal replay must recover the crashed
  job, the resumed run must reload shard checkpoints and reproduce the
  uninterrupted report bit for bit, and the seeded worker kill must be
  absorbed by a supervised retry;
* pipeline-stage cache reuse (optional, via ``--pipeline-report``, one or
  more warm-run JSON reports from ``python -m repro run ... --repeat 2``)
  — the implement stage must be served entirely from the flow store and
  the campaign stage must hit the golden-trace/fault-effect cache; a cold
  stage on a warm run means a fingerprint or cache regression.

Absolute seconds are machine-dependent, so every comparison uses a
speedup over a seed replica measured on the *same* machine in the same
session, which makes the ratios portable across laptops and shared CI
runners.  A >30 % drop of a ratio means the code itself got slower, not
the hardware.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_campaign.json --current /tmp/BENCH_campaign.json \
        [--flow-baseline BENCH_flow.json --flow-current /tmp/BENCH_flow.json] \
        [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def best_speedups(payload: dict) -> dict:
    """{design: best speedup_vs_seed_serial over all backends}."""
    result = {}
    for design, row in payload.get("designs", {}).items():
        speedups = [backend.get("speedup_vs_seed_serial", 0.0)
                    for backend in row.get("backends", {}).values()]
        if speedups:
            result[design] = max(speedups)
    return result


def numpy_saturated_speedups(payload: dict) -> dict:
    """{design: numpy saturated-draw throughput speedup}.

    Empty for reports written before the numpy backend existed, which
    keeps the ratio comparison a no-op against old baselines.
    """
    result = {}
    for design, row in payload.get("designs", {}).items():
        saturated = row.get("numpy_saturated", {})
        if "speedup_vs_seed_serial_throughput" in saturated:
            result[design] = saturated["speedup_vs_seed_serial_throughput"]
    return result


def numpy_utilizations(payload: dict) -> dict:
    """{design: lowest mean lane utilization over the numpy rows}."""
    result = {}
    for design, row in payload.get("designs", {}).items():
        values = []
        numpy_row = row.get("backends", {}).get("numpy", {})
        if "mean_lane_utilization" in numpy_row:
            values.append(numpy_row["mean_lane_utilization"])
        saturated = row.get("numpy_saturated", {})
        if "mean_lane_utilization" in saturated:
            values.append(saturated["mean_lane_utilization"])
        if values:
            result[design] = min(values)
    return result


def flow_speedups(payload: dict) -> dict:
    """{metric: total flow speedup vs the seed replica}."""
    totals = payload.get("totals", {})
    result = {}
    for metric in ("cold_speedup_vs_seed", "warm_speedup_vs_seed"):
        if metric in totals:
            result[metric] = totals[metric]
    return result


def _compare(label: str, baseline: dict, current: dict,
             tolerance: float) -> list:
    problems = []
    for key, reference in sorted(baseline.items()):
        measured = current.get(key)
        if measured is None:
            problems.append(f"{label} {key}: missing from the current "
                            f"report")
            continue
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            problems.append(
                f"{label} {key}: speedup {measured:.2f}x fell below "
                f"{floor:.2f}x ({reference:.2f}x baseline - "
                f"{tolerance:.0%} tolerance)")
    return problems


def check(baseline: dict, current: dict, tolerance: float,
          numpy_min_speedup: float = 50.0,
          numpy_utilization_floor: float = 0.6) -> list:
    """Campaign regression messages (empty when the run is acceptable)."""
    problems = _compare("campaign", best_speedups(baseline),
                        best_speedups(current), tolerance)
    # The saturated throughput only ratio-compares at equal draw sizes:
    # a CI run with a capped REPRO_BENCH_NUMPY_FAULTS measures a smaller
    # draw than the committed baseline, where only the absolute floors
    # below apply.
    base_draws = {design: row.get("numpy_saturated", {}).get("num_faults")
                  for design, row in baseline.get("designs", {}).items()}
    cur_draws = {design: row.get("numpy_saturated", {}).get("num_faults")
                 for design, row in current.get("designs", {}).items()}
    comparable = {design: speedup for design, speedup
                  in numpy_saturated_speedups(baseline).items()
                  if base_draws.get(design) == cur_draws.get(design)}
    problems.extend(_compare("campaign numpy-saturated", comparable,
                             numpy_saturated_speedups(current), tolerance))
    # numpy is a required dependency, so a current report without its
    # rows means the measurement was lost, not skipped.
    saturated = numpy_saturated_speedups(current)
    for design, row in sorted(current.get("designs", {}).items()):
        if "numpy" not in row.get("backends", {}):
            problems.append(f"campaign numpy {design}: backend row "
                            f"missing from the current report")
        if design not in saturated:
            problems.append(f"campaign numpy-saturated {design}: "
                            f"missing from the current report")
    # Absolute floors on the current report.
    if saturated and max(saturated.values()) < numpy_min_speedup:
        problems.append(
            f"campaign numpy-saturated: best throughput speedup "
            f"{max(saturated.values()):.2f}x fell below the "
            f"{numpy_min_speedup:.0f}x acceptance floor")
    for design, utilization in sorted(numpy_utilizations(current).items()):
        if utilization < numpy_utilization_floor:
            problems.append(
                f"campaign numpy {design}: mean lane utilization "
                f"{utilization:.3f} fell below the "
                f"{numpy_utilization_floor:.2f} floor")
    return problems


def flow_map_in_run_speedups(payload: dict) -> dict:
    """{design: in-run flood-over-vectorized map-build speedup}.

    A same-machine ratio (both paths measured in the same session), so
    it ratio-compares portably across runners.  Empty for reports
    predating the section.
    """
    section = payload.get("defeat_map_build", {})
    return {design: row["speedup_vs_flood_in_run"]
            for design, row in section.get("designs", {}).items()
            if "speedup_vs_flood_in_run" in row}


def check_flow(baseline: dict, current: dict, tolerance: float,
               parallel_min_speedup: float = 2.5,
               map_min_speedup: float = 5.0) -> list:
    """Flow regression messages (empty when the run is acceptable)."""
    problems = _compare("flow", flow_speedups(baseline),
                        flow_speedups(current), tolerance)
    problems.extend(_compare("flow defeat-map in-run",
                             flow_map_in_run_speedups(baseline),
                             flow_map_in_run_speedups(current), tolerance))
    parallel = current.get("parallel_cold")
    if parallel is not None:
        if not parallel.get("identical_across_jobs", False):
            problems.append("flow parallel_cold: results were not "
                            "bit-identical across job counts")
        if parallel.get("gate_applied", False):
            speedup = parallel.get("speedup_jobs_n_vs_1", 0.0)
            floor = min(parallel.get("bar", parallel_min_speedup),
                        parallel_min_speedup)
            if speedup < floor:
                problems.append(
                    f"flow parallel_cold: jobs="
                    f"{parallel.get('jobs')} ran at {speedup:.2f}x "
                    f"jobs=1, below the {floor:.2f}x "
                    f"floor on a {parallel.get('cpu_count')}-core "
                    f"machine")
    defeat_map = current.get("defeat_map_build")
    if defeat_map is not None:
        for design, row in sorted(defeat_map.get("designs", {}).items()):
            if not row.get("identical_to_flood", False):
                problems.append(f"flow defeat_map_build {design}: "
                                f"vectorized map diverged from the flood")
            committed = row.get("speedup_vs_committed_flood")
            if committed is not None and committed < map_min_speedup:
                problems.append(
                    f"flow defeat_map_build {design}: {committed:.2f}x "
                    f"over the committed flood fell below the "
                    f"{map_min_speedup:.1f}x acceptance floor")
    return problems


def service_speedups(payload: dict) -> dict:
    """{metric: service speedup ratio} (portable across machines)."""
    result = {}
    if "warm_vs_cold_speedup" in payload:
        result["warm_vs_cold_speedup"] = payload["warm_vs_cold_speedup"]
    return result


def check_service(baseline: dict, current: dict, tolerance: float,
                  min_warm_speedup: float = 2.0,
                  min_jobs_per_sec: float = 0.2,
                  min_hit_rate: float = 0.75) -> list:
    """Service regression messages (empty when the run is acceptable).

    The warm-over-cold speedup is a same-machine ratio and so both
    ratio-compares against the baseline and carries an absolute
    acceptance floor; jobs/sec is machine-dependent and only has a
    (relaxable) sanity floor catching a warm path that degenerated to
    cold-path cost.
    """
    problems = _compare("service", service_speedups(baseline),
                        service_speedups(current), tolerance)
    speedup = current.get("warm_vs_cold_speedup", 0.0)
    if speedup < min_warm_speedup:
        problems.append(
            f"service: warm_vs_cold_speedup {speedup:.2f}x fell below "
            f"the {min_warm_speedup:.1f}x acceptance floor")
    warm = current.get("warm", {})
    jobs_per_second = warm.get("jobs_per_second", 0.0)
    if jobs_per_second < min_jobs_per_sec:
        problems.append(
            f"service: warm jobs/sec {jobs_per_second:.3f} fell below "
            f"the {min_jobs_per_sec:.3f} floor")
    hit_rate = warm.get("tier_hit_rate")
    if hit_rate is None or hit_rate < min_hit_rate:
        shown = "missing" if hit_rate is None else f"{hit_rate:.2f}"
        problems.append(
            f"service: warm tier hit rate {shown} fell below the "
            f"{min_hit_rate:.2f} floor")
    coalescing = current.get("coalescing", {})
    if coalescing.get("coalesced", 0) < 1:
        problems.append("service: identical in-flight submissions did "
                        "not coalesce")
    for key in ("reports_identical", "recompute_identical"):
        if not coalescing.get(key, False):
            problems.append(f"service: coalescing proof {key} failed "
                            f"(shared result diverged from a recompute)")
    return problems


def check_recovery(baseline: dict, current: dict,
                   min_resume_speedup: float = 1.0,
                   min_checkpoint_hits: int = 1) -> list:
    """Crash-recovery gate for the BENCH_service.json ``recovery`` row.

    Only enforced when the committed baseline carries a ``recovery``
    section (reports written before the crash-safety work pass
    untouched).  The identity bits are hard correctness gates — a resumed
    or worker-kill run whose report diverges from the uninterrupted
    reference is a bug, never noise; the resume speedup is wall-clock
    and therefore only held to a relaxable floor (default: resuming must
    not be *slower* than cold).
    """
    if "recovery" not in baseline:
        return []
    recovery = current.get("recovery")
    if recovery is None:
        return ["service recovery: section missing from the current "
                "report (baseline has one)"]
    problems = []
    if not recovery.get("resume_identical", False):
        problems.append("service recovery: resumed report diverged from "
                        "the uninterrupted reference")
    worker_kill = recovery.get("worker_kill", {})
    if not worker_kill.get("report_identical", False):
        problems.append("service recovery: worker-kill report diverged "
                        "from the uninterrupted reference")
    if worker_kill.get("retries_taken", 0) < 1:
        problems.append("service recovery: the seeded worker kill never "
                        "triggered a supervised retry")
    if recovery.get("checkpoint_hits", 0) < min_checkpoint_hits:
        problems.append(
            f"service recovery: resumed run reloaded "
            f"{recovery.get('checkpoint_hits', 0)} shard checkpoint(s), "
            f"below the {min_checkpoint_hits} floor")
    if recovery.get("recovered_jobs", 0) < 1:
        problems.append("service recovery: journal replay recovered no "
                        "jobs after the simulated crash")
    if recovery.get("clean_shutdown_marker", False):
        problems.append("service recovery: a clean-shutdown marker "
                        "survived the simulated crash (the journal gate "
                        "is not actually being exercised)")
    speedup = recovery.get("resume_speedup_vs_cold", 0.0)
    if speedup < min_resume_speedup:
        problems.append(
            f"service recovery: resume ran at {speedup:.2f}x the cold "
            f"cost, below the {min_resume_speedup:.2f}x floor")
    return problems


def _pipeline_runs(report: dict):
    """Yield (label, single-run report) pairs, expanding matrix reports."""
    runs = report.get("runs")
    if runs:
        for variant, sub in runs.items():
            yield f"[{variant}]", sub
    else:
        yield "", report


def check_pipeline(report: dict, label: str = "pipeline") -> list:
    """Warm-run cache gate for one ``python -m repro run`` JSON report.

    The report must come from a run whose caches were warm (``--repeat 2``
    with a persistent ``--flow-cache``); the stage records then prove the
    fingerprint-keyed reuse actually happened.
    """
    problems = []
    if report.get("repeat", 1) < 2:
        problems.append(f"{label}: report was produced with repeat="
                        f"{report.get('repeat', 1)}; the cache gate needs "
                        f"a warm run (--repeat 2)")
        return problems
    for variant, run in _pipeline_runs(report):
        name = f"{label}{variant} ({run.get('scenario', '?')})"
        stages = {stage["name"]: stage for stage in run.get("stages", [])}
        implement = stages.get("implement")
        if implement is not None:
            cache = implement.get("cache", {})
            if cache.get("hits", 0) < 1:
                problems.append(f"{name}: implement stage had no "
                                f"flow-store hits on a warm run")
            if cache.get("misses", 0) > 0:
                problems.append(f"{name}: implement stage missed the flow "
                                f"store {cache['misses']} time(s) on a "
                                f"warm run (stale fingerprint?)")
        campaign = stages.get("campaign")
        if campaign is not None:
            cache = campaign.get("cache", {})
            if cache.get("golden_hits", 0) < 1:
                problems.append(f"{name}: campaign stage recomputed every "
                                f"golden trace on a warm run")
            if cache.get("effect_hits", 0) < 1:
                problems.append(f"{name}: campaign stage recomputed every "
                                f"fault effect on a warm run")
    return problems


def check_lint(report: dict, max_findings: int,
               label: str = "lint") -> list:
    """Gate a ``python -m repro.devtools.lint --format json`` report.

    Parse errors are always fatal; unwaived findings are capped at
    *max_findings* (0 in CI: the tree must be clean modulo the
    checked-in, justified baseline).
    """
    problems = []
    errors = report.get("errors", [])
    for error in errors:
        problems.append(f"{label}: {error.get('path')}: "
                        f"{error.get('message')}")
    findings = report.get("findings", [])
    if len(findings) > max_findings:
        problems.append(
            f"{label}: {len(findings)} unwaived finding(s), "
            f"allowed {max_findings}")
        for finding in findings:
            problems.append(
                f"{label}:   {finding.get('path')}:{finding.get('line')} "
                f"{finding.get('rule')} {finding.get('message')}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_campaign.json")
    parser.add_argument("--current", type=Path, default=None,
                        help="freshly measured BENCH_campaign.json")
    parser.add_argument("--flow-baseline", type=Path, default=None,
                        help="committed BENCH_flow.json")
    parser.add_argument("--flow-current", type=Path, default=None,
                        help="freshly measured BENCH_flow.json")
    parser.add_argument("--flow-parallel-min-speedup", type=float,
                        default=2.5,
                        help="upper limit on the floor for the cold "
                             "suite flow at jobs=N vs jobs=1: the floor "
                             "is the bar the report recorded, or this "
                             "value when it is lower or the report has "
                             "none (default 2.5; only applied when the "
                             "report says the gate applied)")
    parser.add_argument("--flow-map-min-speedup", type=float, default=5.0,
                        help="absolute floor for the vectorized defeat-"
                             "map build's speedup over the committed "
                             "python flood (default 5.0)")
    parser.add_argument("--service-baseline", type=Path, default=None,
                        help="committed BENCH_service.json")
    parser.add_argument("--service-current", type=Path, default=None,
                        help="freshly measured BENCH_service.json")
    parser.add_argument("--service-min-warm-speedup", type=float,
                        default=2.0,
                        help="absolute floor for the service's warm-over-"
                             "cold aggregate speedup (default 2.0 since "
                             "the parallel cold flow shrank the ratio's "
                             "denominator; relax further on noisy shared "
                             "runners)")
    parser.add_argument("--service-min-jobs-per-sec", type=float,
                        default=0.2,
                        help="sanity floor for the warm wave's jobs/sec "
                             "(machine-dependent; default 0.2)")
    parser.add_argument("--service-min-hit-rate", type=float, default=0.75,
                        help="floor for the warm wave's tier hit rate "
                             "(default 0.75)")
    parser.add_argument("--service-recovery-min-speedup", type=float,
                        default=1.0,
                        help="floor for the crash-resume wall-clock "
                             "speedup over the cold run (default 1.0: "
                             "resuming must not be slower; relax on "
                             "noisy shared runners)")
    parser.add_argument("--service-recovery-min-checkpoint-hits",
                        type=int, default=1,
                        help="minimum shard checkpoints the resumed run "
                             "must reload (default 1)")
    parser.add_argument("--pipeline-report", type=Path, action="append",
                        default=[], metavar="REPORT.json",
                        help="warm-run 'python -m repro run --repeat 2' "
                             "report to gate on pipeline-stage cache "
                             "reuse (repeatable)")
    parser.add_argument("--lint-report", type=Path, default=None,
                        metavar="LINT.json",
                        help="'python -m repro.devtools.lint --format "
                             "json' report to gate on unwaived invariant "
                             "findings")
    parser.add_argument("--max-lint-findings", type=int, default=0,
                        help="allowed unwaived lint findings (default 0: "
                             "clean modulo the justified baseline)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop of the best "
                        "speedup (default 0.30)")
    parser.add_argument("--numpy-min-speedup", type=float, default=50.0,
                        help="absolute floor for the numpy backend's best "
                             "saturated-draw throughput speedup (default "
                             "50 — recalibrated from 60 when the shared "
                             "per-layout fault-list tables sped up the "
                             "seed-serial denominator ~2x; relax on slow "
                             "shared runners)")
    parser.add_argument("--numpy-utilization-floor", type=float,
                        default=0.6,
                        help="absolute floor for the numpy backend's mean "
                             "lane utilization per design (default 0.6)")
    arguments = parser.parse_args(argv)
    if arguments.baseline is None and arguments.flow_baseline is None \
            and arguments.service_baseline is None \
            and not arguments.pipeline_report \
            and arguments.lint_report is None:
        parser.error("nothing to check: pass --baseline/--current, "
                     "--flow-baseline/--flow-current, "
                     "--service-baseline/--service-current, "
                     "--pipeline-report and/or --lint-report")
    if (arguments.baseline is None) != (arguments.current is None):
        parser.error("--baseline and --current must be given together")
    if (arguments.flow_baseline is None) != (arguments.flow_current is None):
        parser.error("--flow-baseline and --flow-current must be given "
                     "together")
    if (arguments.service_baseline is None) != \
            (arguments.service_current is None):
        parser.error("--service-baseline and --service-current must be "
                     "given together")

    problems = []
    if arguments.baseline is not None:
        baseline = json.loads(arguments.baseline.read_text())
        current = json.loads(arguments.current.read_text())
        problems.extend(check(
            baseline, current, arguments.tolerance,
            numpy_min_speedup=arguments.numpy_min_speedup,
            numpy_utilization_floor=arguments.numpy_utilization_floor))

        for design, reference in sorted(best_speedups(baseline).items()):
            measured = best_speedups(current).get(design)
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(f"{design}: baseline {reference:.2f}x -> current {shown}")
        measured_saturated = numpy_saturated_speedups(current)
        for design, reference in sorted(
                numpy_saturated_speedups(baseline).items()):
            measured = measured_saturated.get(design)
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(f"numpy saturated {design}: baseline {reference:.2f}x "
                  f"-> current {shown}")
        for design, utilization in sorted(
                numpy_utilizations(current).items()):
            print(f"numpy lane utilization {design}: {utilization:.3f}")

    if arguments.flow_baseline is not None and \
            arguments.flow_current is not None:
        flow_baseline = json.loads(arguments.flow_baseline.read_text())
        flow_current = json.loads(arguments.flow_current.read_text())
        problems.extend(check_flow(
            flow_baseline, flow_current, arguments.tolerance,
            parallel_min_speedup=arguments.flow_parallel_min_speedup,
            map_min_speedup=arguments.flow_map_min_speedup))
        measured_flow = flow_speedups(flow_current)
        for metric, reference in sorted(
                flow_speedups(flow_baseline).items()):
            measured = measured_flow.get(metric)
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(f"flow {metric}: baseline {reference:.2f}x -> "
                  f"current {shown}")
        parallel = flow_current.get("parallel_cold")
        if parallel is not None:
            print(f"flow parallel_cold: jobs={parallel.get('jobs')} "
                  f"at {parallel.get('speedup_jobs_n_vs_1')}x vs "
                  f"jobs=1 on {parallel.get('cpu_count')} core(s), "
                  f"bar {parallel.get('bar', 'n/a')}, "
                  f"identical: {parallel.get('identical_across_jobs')}")
        for design, row in sorted(flow_current.get(
                "defeat_map_build", {}).get("designs", {}).items()):
            committed = row.get("speedup_vs_committed_flood")
            shown = f"{committed:.2f}x" if committed is not None else "n/a"
            print(f"flow defeat-map {design}: "
                  f"{row.get('speedup_vs_flood_in_run')}x in-run, "
                  f"{shown} vs committed flood, identical: "
                  f"{row.get('identical_to_flood')}")
    if arguments.service_baseline is not None and \
            arguments.service_current is not None:
        service_baseline = json.loads(arguments.service_baseline.read_text())
        service_current = json.loads(arguments.service_current.read_text())
        problems.extend(check_service(
            service_baseline, service_current, arguments.tolerance,
            min_warm_speedup=arguments.service_min_warm_speedup,
            min_jobs_per_sec=arguments.service_min_jobs_per_sec,
            min_hit_rate=arguments.service_min_hit_rate))
        problems.extend(check_recovery(
            service_baseline, service_current,
            min_resume_speedup=arguments.service_recovery_min_speedup,
            min_checkpoint_hits=(
                arguments.service_recovery_min_checkpoint_hits)))
        measured_service = service_speedups(service_current)
        for metric, reference in sorted(
                service_speedups(service_baseline).items()):
            measured = measured_service.get(metric)
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(f"service {metric}: baseline {reference:.2f}x -> "
                  f"current {shown}")
        warm = service_current.get("warm", {})
        print(f"service warm jobs/sec: "
              f"{warm.get('jobs_per_second', 0.0):.3f}, tier hit rate: "
              f"{warm.get('tier_hit_rate')}, coalesced: "
              f"{service_current.get('coalescing', {}).get('coalesced')}")
        recovery = service_current.get("recovery")
        if recovery is not None:
            print(f"service recovery: {recovery.get('checkpoint_hits')} "
                  f"checkpoint hit(s), "
                  f"{recovery.get('shards_recomputed')} of "
                  f"{recovery.get('shards_total')} shard(s) recomputed, "
                  f"resume {recovery.get('resume_speedup_vs_cold')}x vs "
                  f"cold, identical: "
                  f"{recovery.get('resume_identical')}")
    for path in arguments.pipeline_report:
        report = json.loads(path.read_text())
        report_problems = check_pipeline(report, label=path.name)
        problems.extend(report_problems)
        status = "ok" if not report_problems else \
            f"{len(report_problems)} problem(s)"
        print(f"pipeline {path.name} ({report.get('scenario', '?')}): "
              f"cache reuse {status}")
    if arguments.lint_report is not None:
        lint = json.loads(arguments.lint_report.read_text())
        lint_problems = check_lint(lint, arguments.max_lint_findings,
                                   label=arguments.lint_report.name)
        problems.extend(lint_problems)
        print(f"lint {arguments.lint_report.name}: "
              f"{len(lint.get('findings', []))} unwaived, "
              f"{len(lint.get('waived', []))} waived finding(s) over "
              f"{lint.get('files_checked', 0)} file(s): "
              f"{'ok' if not lint_problems else 'FAIL'}")
    if problems:
        print("\nBenchmark regression detected:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("No benchmark regression beyond tolerance "
          f"({arguments.tolerance:.0%}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
