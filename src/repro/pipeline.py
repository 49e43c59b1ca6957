"""Declarative experiment pipelines over the repository's stages.

The paper's experiment is one path through a fixed sequence of stages:

.. code-block:: text

    RTL build -> techmap -> TMR transform -> pack/place/route -> bitgen
        -> fault campaign -> analysis -> report

Before this module each table/figure driver re-implemented that sequence
with its own suite/flow/backend plumbing.  Here the sequence is a
first-class object: a :class:`Pipeline` is an ordered list of named,
fingerprint-keyed :class:`Stage` steps operating on a shared
:class:`PipelineContext`.  Stages are *thin* — the heavy lifting (and the
heavy caching) stays in the layers built by earlier PRs:

* the **implement** stage consults the persistent
  :class:`~repro.pnr.artifacts.FlowArtifactStore` (PR 3), so repeated
  pipeline runs skip place-and-route;
* the **campaign** stage runs through the process-wide campaign cache
  (PR 1) and any :mod:`~repro.faults.engine` backend (PR 1/2), so golden
  traces, fault effects and cones are shared between scenario variants;
* the **build** stage memoizes design suites per (scale, partition
  recipe) within the process.

Every stage records its input fingerprint, wall time and cache hit/miss
deltas into the run report, which :func:`build_report` assembles into one
uniform schema (:data:`REPORT_SCHEMA`) — scenario id, seed, backend,
upset model and tool versions included — consumed by ``python -m repro``,
the campaign service and the CI gate alike.

Scenario *definitions* (which designs, which axes, which analyses) live in
:mod:`repro.scenarios`; this module only knows how to execute one resolved
:class:`~repro.scenarios.Scenario`, which is the one description of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import platform
import sys
import time
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from . import __version__
from .analysis import (area_overhead, best_partition, improvement_factor,
                       performance_degradation, resource_table,
                       routing_effect_share)
from .faults import (CampaignResult, cache_stats, resolve_backend,
                     resolve_upset_model, run_campaign)
from .pnr import Implementation
from .pnr.artifacts import TOOL_VERSION, StoreLike, resolve_store
from .experiments.designs import (PAPER_TABLE2_FMAX, PAPER_TABLE2_SLICES,
                                  PAPER_TABLE3_PERCENT, PAPER_TABLE4,
                                  DesignSuite, build_design_suite,
                                  campaign_config_for,
                                  implement_design_suite)

if TYPE_CHECKING:
    from .scenarios import Scenario

#: Identity of the report layout emitted by :func:`build_report`.  Bump when
#: a key is renamed or its meaning changes; additions are backward
#: compatible.  All keys are snake_case — the drivers historically mixed
#: casings, this schema is now the only JSON surface.
REPORT_SCHEMA = "repro.scenario-report/1"

#: Machine-facing progress hook: ``(design, faults done, faults total)``.
ProgressCallback = Callable[[str, int, int], None]

#: Suites already built this process, keyed by their build recipe.
_SUITE_MEMO: Dict[Tuple, DesignSuite] = {}


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
class PipelineContext:
    """Mutable state threaded through one pipeline run.

    Every experiment knob (scale, backend, upset model, fault list,
    seed, floorplan, partition selector, analyses) is read from
    ``scenario``, one resolved scenario variant.  The context adds only
    how the run is delivered (flow-worker count, flow store, progress
    reporting) and the artefacts the stages produce (suite,
    implementations, campaign results, derived analyses).  ``designs``
    starts as the scenario's list; the build stage fills it in when the
    shortlist selector derives the designs.
    """

    def __init__(self, scenario: "Scenario", *, jobs: int = 1,
                 flow_cache: StoreLike = None,
                 progress: bool = False,
                 progress_callback: Optional[ProgressCallback] = None
                 ) -> None:
        self.scenario = scenario
        self.designs: List[str] = list(scenario.designs)
        self.jobs = jobs
        self.store = resolve_store(flow_cache)
        self.progress = progress
        #: machine-facing progress hook ``(design, done, total)`` — the
        #: service's job monitor; independent of the human ``progress`` flag
        self.progress_callback = progress_callback
        # artefacts produced by the stages
        self.suite: Optional[DesignSuite] = None
        self.implementations: Optional[Dict[str, Implementation]] = None
        self.campaigns: Dict[str, CampaignResult] = {}
        self.derived: Dict[str, object] = {}

    def identity(self) -> str:
        """The run-invariant part of every stage fingerprint."""
        scenario = self.scenario
        return (f"scenario={scenario.id}|scale={scenario.scale}"
                f"|designs={','.join(self.designs)}"
                f"|partitions={scenario.partition_selector}"
                f":{scenario.shortlist_size}"
                f"|floorplan={scenario.floorplan_domains}"
                f"|flow={TOOL_VERSION}")


def _digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"|")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Stage library
# ----------------------------------------------------------------------
class Stage:
    """One named, fingerprint-keyed pipeline step."""

    name: str = "abstract"

    def fingerprint(self, ctx: PipelineContext, previous: str) -> str:
        """Content key of this stage's inputs, chained on *previous*."""
        return _digest(previous, self.name, self._inputs(ctx))

    def _inputs(self, ctx: PipelineContext) -> str:
        return ""

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        """Execute the stage; the returned summary lands in the report."""
        raise NotImplementedError

    def cache_snapshot(self, ctx: PipelineContext) -> Dict[str, int]:
        """Counters whose delta across :meth:`run` measures cache reuse."""
        return {}


def get_suite(scale: str, partition_selector: str = "canonical",
              shortlist_size: int = 3) -> Tuple[DesignSuite, List[str], bool]:
    """Build (or reuse) the design suite for one build recipe.

    Returns ``(suite, generated_design_names, memo_hit)``.  The canonical
    recipe produces the paper's five versions; the ``shortlist`` recipe
    additionally applies TMR for the Pareto-optimal strategies of
    :func:`repro.core.optimizer.sweep_partitions` and returns their design
    names.  Suites are memoized per recipe within the process, so the
    generated names (and therefore the flow fingerprints) are stable
    across repeated scenario runs.
    """
    key = (scale, partition_selector, shortlist_size)
    memo_hit = key in _SUITE_MEMO
    if memo_hit:
        suite = _SUITE_MEMO[key]
        generated = [name for name in suite.flat
                     if name.startswith("TMR_shortlist")]
        return suite, generated, True

    suite = build_design_suite(scale)
    generated: List[str] = []
    if partition_selector == "shortlist":
        from .core import pareto_front, sweep_partitions
        from .experiments.designs import _optimize
        from .netlist import flatten

        sweep = sweep_partitions(suite.netlist, suite.source)
        front = pareto_front(sweep.candidates)[:max(1, shortlist_size)]
        for index, candidate in enumerate(front):
            slug = "".join(char for char in
                           candidate.strategy.describe().lower()
                           if char.isalnum())
            name = f"TMR_shortlist{index}_{slug}"
            flat = _optimize(
                flatten(suite.netlist, candidate.result.definition,
                        flat_name=f"{name}_{suite.scale.name}"))
            suite.flat[name] = flat
            suite.tmr[name] = candidate.result
            generated.append(name)
    elif partition_selector != "canonical":
        raise ValueError(f"unknown partition selector "
                         f"{partition_selector!r}; choose 'canonical' or "
                         f"'shortlist'")
    _SUITE_MEMO[key] = suite
    return suite, generated, False


class BuildStage(Stage):
    """RTL build, techmap, TMR transform and flattening."""

    name = "build"

    def _inputs(self, ctx: PipelineContext) -> str:
        return ctx.identity()

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        scenario = ctx.scenario
        ctx.suite, generated, memo_hit = get_suite(
            scenario.scale, scenario.partition_selector,
            scenario.shortlist_size)
        # An empty design list means "derived by the build stage"; an
        # explicit list (e.g. a --design restriction) is honoured.
        if scenario.partition_selector == "shortlist" and not ctx.designs:
            ctx.designs = ["standard"] + generated
        missing = [name for name in ctx.designs
                   if name not in ctx.suite.flat]
        if missing:
            raise KeyError(f"designs not in the built suite: {missing}; "
                           f"available: {sorted(ctx.suite.flat)}")
        spec = ctx.suite.spec
        return {
            "suite_memo_hit": memo_hit,
            "designs": list(ctx.designs),
            "taps": spec.taps,
            "data_width": spec.data_width,
        }


class ImplementStage(Stage):
    """Pack, place, route and bitstream generation (flow-cache backed)."""

    name = "implement"

    def _inputs(self, ctx: PipelineContext) -> str:
        return f"{ctx.identity()}|jobs-independent"

    def cache_snapshot(self, ctx: PipelineContext) -> Dict[str, int]:
        if ctx.store is None:
            return {"hits": 0, "misses": 0, "stores": 0}
        stats = ctx.store.stats
        return {"hits": stats.flow_hits, "misses": stats.flow_misses,
                "stores": stats.flow_stores}

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        assert ctx.suite is not None, "build stage must run first"
        ctx.implementations = implement_design_suite(
            ctx.suite, designs=list(ctx.designs),
            floorplan_domains=ctx.scenario.floorplan_domains,
            jobs=ctx.jobs, artifact_store=ctx.store)
        return {"implementations": {
            name: implementation.summary()
            for name, implementation in ctx.implementations.items()}}


class CampaignStage(Stage):
    """Fault-injection campaigns through the configured engine backend."""

    name = "campaign"

    def _inputs(self, ctx: PipelineContext) -> str:
        # The backend is deliberately absent: every backend produces
        # bit-identical campaign results, so it does not change the result
        # identity (it is still recorded in the report).
        scenario = ctx.scenario
        model = resolve_upset_model(scenario.upset_model).describe()
        return (f"{ctx.identity()}|seed={scenario.seed}"
                f"|faults={scenario.num_faults}"
                f"|model={model}"
                f"|mode={scenario.fault_list_mode}")

    def cache_snapshot(self, ctx: PipelineContext) -> Dict[str, int]:
        return dict(cache_stats())

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        assert ctx.implementations is not None, \
            "implement stage must run first"
        assert ctx.suite is not None
        scenario = ctx.scenario
        config = campaign_config_for(
            ctx.suite, scenario.num_faults,
            fault_list_mode=scenario.fault_list_mode, seed=scenario.seed,
            upset_model=scenario.upset_model)
        engine = resolve_backend(scenario.backend)
        execution: Dict[str, object] = {}
        for name in ctx.designs:
            callback = None
            if ctx.progress_callback is not None:
                monitor = ctx.progress_callback
                callback = lambda done, total, design=name: monitor(
                    design, done, total)
            elif ctx.progress:
                # stderr so ``--json`` runs keep a machine-readable stdout
                callback = lambda done, total, design=name: print(
                    f"  {design}: {done}/{total} faults", file=sys.stderr,
                    flush=True)
            ctx.campaigns[name] = run_campaign(
                ctx.implementations[name], config, progress=callback,
                backend=engine)
            stats = getattr(engine, "last_run_stats", None)
            if stats:
                execution[name] = dict(stats)
        return {
            "injected": {name: result.injected
                         for name, result in ctx.campaigns.items()},
            "backend": engine.name,
            "upset_model": resolve_upset_model(
                scenario.upset_model).describe(),
            # Per-design execution provenance (shard counts, retries,
            # checkpoint hits, backend degradations).  Volatile by
            # definition — a resumed run reports checkpoint hits where a
            # cold run reports stores — so stable_report() scrubs it.
            "execution": execution,
        }


# ----------------------------------------------------------------------
# Analyses (the analyze stage's dispatch table)
# ----------------------------------------------------------------------
def table3_summary(results: Dict[str, CampaignResult]) -> Dict[str, object]:
    """Headline quantities derived from the Table 3 campaigns."""
    summary: Dict[str, object] = {
        name: result.summary_row() for name, result in results.items()}
    tmr_versions = [n for n in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv")
                    if n in results]
    if "TMR_p1" in results and "TMR_p2" in results:
        summary["improvement_p1_to_p2"] = round(
            improvement_factor(results, "TMR_p1", "TMR_p2"), 2)
    if tmr_versions:
        summary["best_tmr_partition"] = best_partition(results, tmr_versions)
    return summary


def table4_claims(results: Dict[str, CampaignResult]) -> Dict[str, object]:
    """The qualitative claims the paper draws from Table 4."""
    claims: Dict[str, object] = {}
    tmr_names = [n for n in results if n.startswith("TMR")]
    claims["lut_upsets_defeat_tmr"] = any(
        results[name].by_category.get("LUT") is not None and
        results[name].by_category["LUT"].wrong > 0 for name in tmr_names)
    claims["routing_effect_share"] = {
        name: round(routing_effect_share(result), 3)
        for name, result in results.items()}
    return claims


def resources_analysis(implementations: Dict[str, Implementation],
                       designs: Sequence[str]) -> Dict[str, object]:
    """The Table 2 analogue: per-design resources and overheads."""
    rows = resource_table(implementations, order=designs)
    reference = "standard" if "standard" in implementations \
        else rows[0].design
    overhead = area_overhead(rows, reference)
    slowdown = performance_degradation(rows, reference)
    table: Dict[str, object] = {}
    for row in rows:
        entry = row.as_dict()
        entry["area_overhead_vs_standard"] = round(overhead[row.design], 2)
        entry["relative_fmax_vs_standard"] = round(slowdown[row.design], 2)
        entry["paper_slices"] = PAPER_TABLE2_SLICES.get(row.design)
        entry["paper_fmax_mhz"] = PAPER_TABLE2_FMAX.get(row.design)
        table[row.design] = entry
    return table


def _analyze_resources(ctx: PipelineContext) -> Dict[str, object]:
    assert ctx.implementations is not None, "implement stage must run first"
    return resources_analysis(ctx.implementations, ctx.designs)


def _analyze_table3(ctx: PipelineContext) -> Dict[str, object]:
    summary = table3_summary(ctx.campaigns)
    summary["paper_wrong_percent"] = {
        name: PAPER_TABLE3_PERCENT[name] for name in ctx.campaigns
        if name in PAPER_TABLE3_PERCENT}
    return summary


def _analyze_table4(ctx: PipelineContext) -> Dict[str, object]:
    return {
        "effects": {name: result.effect_table()
                    for name, result in ctx.campaigns.items()},
        "paper_effects": {name: PAPER_TABLE4[name] for name in ctx.campaigns
                          if name in PAPER_TABLE4},
        "claims": table4_claims(ctx.campaigns),
    }


def _analyze_figures(ctx: PipelineContext) -> Dict[str, object]:
    from .experiments.figures import run_figures

    return run_figures(suite=ctx.suite)


def _analyze_figure1_upsets(ctx: PipelineContext) -> Dict[str, object]:
    """Figure 1's example routing upsets, measured per campaigned design."""
    from .experiments.figures import figure1_upset_demo

    return {name: figure1_upset_demo(result)
            for name, result in ctx.campaigns.items()}


def _analyze_sweep(ctx: PipelineContext) -> Dict[str, object]:
    from .experiments.ablations import partition_sweep

    return partition_sweep(suite=ctx.suite)


def _defeat_maps_of(ctx: PipelineContext) -> Dict[str, object]:
    from .analysis.layout import defeat_map_for

    assert ctx.implementations is not None, "implement stage must run first"
    return {name: defeat_map_for(ctx.implementations[name],
                                 mode=ctx.scenario.fault_list_mode)
            for name in ctx.designs}


def _analyze_defeat_map(ctx: PipelineContext) -> Dict[str, object]:
    """Static defeat maps per design, next to the netlist-only estimate."""
    from .core.analysis import estimate_robustness

    summary: Dict[str, object] = {}
    for name, defeat_map in _defeat_maps_of(ctx).items():
        entry = defeat_map.summary()
        tmr_result = (ctx.suite.tmr.get(name)
                      if ctx.suite is not None else None)
        if tmr_result is not None:
            netlist_estimate = estimate_robustness(tmr_result.definition)
            entry["netlist_defeat_probability"] = round(
                netlist_estimate.cross_domain_defeat_probability, 5)
        summary[name] = entry
    return summary


def _analyze_prediction(ctx: PipelineContext) -> Dict[str, object]:
    """Cross-validate the static defeat map against measured campaigns.

    For every campaigned design, the statically predicted defeat-capable
    set must cover every bit that measured a wrong answer, and no bit
    predicted silent may have measured one.
    """
    from .analysis.layout import prediction_vs_campaign

    summary: Dict[str, object] = {}
    for name, defeat_map in _defeat_maps_of(ctx).items():
        campaign = ctx.campaigns.get(name)
        if campaign is None:
            continue
        entry = prediction_vs_campaign(defeat_map, campaign.results)
        # Constant keys kept so the pinned report digests do not move.
        entry["skipped_silent"] = 0
        entry["simulated"] = campaign.injected
        summary[name] = entry
    summary["all_supersets_hold"] = all(
        entry["superset_holds"] for entry in summary.values()
        if isinstance(entry, dict))
    return summary


#: analysis name -> function(ctx) -> JSON-serializable summary
ANALYSES = {
    "resources": _analyze_resources,
    "table3": _analyze_table3,
    "table4": _analyze_table4,
    "figures": _analyze_figures,
    "figure1_upsets": _analyze_figure1_upsets,
    "sweep": _analyze_sweep,
    "defeat_map": _analyze_defeat_map,
    "prediction_vs_campaign": _analyze_prediction,
}


class AnalyzeStage(Stage):
    """Derive the scenario's analyses from the produced artefacts."""

    name = "analyze"

    def _inputs(self, ctx: PipelineContext) -> str:
        analyses = ctx.scenario.analyses
        return f"{ctx.identity()}|analyses={','.join(analyses)}"

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        analyses = ctx.scenario.analyses
        for analysis in analyses:
            if analysis not in ANALYSES:
                raise KeyError(f"unknown analysis {analysis!r}; available: "
                               f"{sorted(ANALYSES)}")
            ctx.derived[analysis] = ANALYSES[analysis](ctx)
        return {"analyses": list(analyses)}


#: stage name -> class, the library scenarios compose their pipelines from
STAGE_LIBRARY = {
    BuildStage.name: BuildStage,
    ImplementStage.name: ImplementStage,
    CampaignStage.name: CampaignStage,
    AnalyzeStage.name: AnalyzeStage,
}


def pipeline_for(stage_names: Sequence[str]) -> "Pipeline":
    """Instantiate a pipeline from stage-library names, in order."""
    try:
        return Pipeline([STAGE_LIBRARY[name]() for name in stage_names])
    except KeyError as error:
        raise KeyError(f"unknown pipeline stage {error.args[0]!r}; "
                       f"available: {sorted(STAGE_LIBRARY)}") from None


# ----------------------------------------------------------------------
# Execution and reporting
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StageRecord:
    """Execution record of one stage within one pipeline run."""

    name: str
    fingerprint: str
    seconds: float
    cache: Dict[str, int]
    summary: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "seconds": round(self.seconds, 4),
            "cache": dict(self.cache),
            "summary": self.summary,
        }


class Pipeline:
    """An ordered list of stages executed over one context."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages = list(stages)

    def run(self, ctx: PipelineContext) -> Dict[str, object]:
        """Execute every stage and assemble the uniform run report."""
        records: List[StageRecord] = []
        chain = _digest(ctx.identity())
        for stage in self.stages:
            chain = stage.fingerprint(ctx, chain)
            before = stage.cache_snapshot(ctx)
            started = time.time()
            summary = stage.run(ctx)
            elapsed = time.time() - started
            after = stage.cache_snapshot(ctx)
            delta = {key: after.get(key, 0) - before.get(key, 0)
                     for key in after}
            records.append(StageRecord(stage.name, chain, elapsed, delta,
                                       summary))
        return build_report(ctx, records)


def _campaign_entry(result: CampaignResult) -> Dict[str, object]:
    return {
        "injected": result.injected,
        "wrong": result.wrong_answers,
        "wrong_percent": round(result.wrong_answer_percent, 2),
        "fault_list_size": result.fault_list_size,
        "fault_list_mode": result.mode,
        "backend": result.backend,
        "upset_model": result.upset_model,
        "seed": result.seed,
        # Constant keys kept so the pinned report digests do not move.
        "prefilter": "none",
        "skipped_silent": 0,
        "simulated": result.injected,
        "effects": result.effect_table(),
        "faults_per_second": round(result.faults_per_second, 1),
    }


def report_provenance(scenario: "Scenario") -> Dict[str, object]:
    """The provenance block shared by every report (single-run or matrix).

    Backend and upset-model specs are resolved to their canonical names
    so the same configuration always serializes identically.
    """
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.id,
        "scale": scenario.scale,
        "seed": scenario.seed,
        "backend": resolve_backend(scenario.backend).name,
        "upset_model": resolve_upset_model(scenario.upset_model).describe(),
        "fault_list_mode": scenario.fault_list_mode,
        "num_faults": scenario.num_faults,
        "tool_version": {
            "repro": __version__,
            "flow": TOOL_VERSION,
            "python": platform.python_version(),
        },
    }


def build_report(ctx: PipelineContext,
                 records: Sequence[StageRecord]) -> Dict[str, object]:
    """The uniform report of one pipeline run (:data:`REPORT_SCHEMA`).

    Every field is snake_case and every run — driver, CLI or CI — carries
    the same provenance block (scenario id, seed, backend, upset model,
    tool versions), fixing the historically inconsistent driver JSON.
    """
    designs: Dict[str, object] = {}
    for name in ctx.designs:
        entry: Dict[str, object] = {}
        if ctx.implementations and name in ctx.implementations:
            entry["implementation"] = ctx.implementations[name].summary()
        if name in ctx.campaigns:
            entry["campaign"] = _campaign_entry(ctx.campaigns[name])
        if entry:
            designs[name] = entry
    report = report_provenance(ctx.scenario)
    report.update({
        "designs": designs,
        "derived": ctx.derived,
        "stages": [record.as_dict() for record in records],
    })
    return report


#: Report keys whose values vary run to run — timings, and the cache
#: hit/miss counters that depend on how warm the process-wide caches were
#: when the run started; stripped when comparing reports for determinism.
#: (The CI cache gate reads the *raw* report, where the counters matter.)
VOLATILE_REPORT_KEYS = ("seconds", "faults_per_second", "duration_seconds",
                        "cache", "suite_memo_hit", "execution")


def stable_report(report: Dict[str, object]) -> Dict[str, object]:
    """A deep copy of *report* with the volatile per-run fields removed."""
    def scrub(value):
        if isinstance(value, dict):
            return {key: scrub(item) for key, item in value.items()
                    if key not in VOLATILE_REPORT_KEYS}
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    return scrub(report)


def render_markdown(report: Dict[str, object]) -> str:
    """A human-readable Markdown rendering of one scenario report."""
    lines: List[str] = []
    runs = report.get("runs")
    lines.append(f"# Scenario `{report['scenario']}`")
    lines.append("")
    lines.append(f"- scale: `{report['scale']}` · seed: `{report['seed']}` "
                 f"· backend: `{report['backend']}` · upset model: "
                 f"`{report['upset_model']}`")
    versions = report.get("tool_version", {})
    lines.append(f"- tool: repro {versions.get('repro')} / "
                 f"{versions.get('flow')} on Python "
                 f"{versions.get('python')}")
    lines.append("")
    if runs:
        for variant, sub in runs.items():
            lines.append(f"## Variant `{variant}`")
            lines.append("")
            lines.extend(_markdown_body(sub))
    else:
        lines.extend(_markdown_body(report))
    return "\n".join(lines)


def _markdown_body(report: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    designs = report.get("designs", {})
    if designs:
        has_campaign = any("campaign" in entry for entry in designs.values())
        if has_campaign:
            lines.append("| design | slices | fmax (MHz) | injected | "
                         "wrong | wrong % |")
            lines.append("|---|---:|---:|---:|---:|---:|")
        else:
            lines.append("| design | slices | fmax (MHz) |")
            lines.append("|---|---:|---:|")
        for name, entry in designs.items():
            implementation = entry.get("implementation", {})
            campaign = entry.get("campaign")
            row = [name,
                   str(implementation.get("slices", "-")),
                   str(implementation.get("fmax_mhz", "-"))]
            if has_campaign:
                if campaign:
                    row += [str(campaign["injected"]),
                            str(campaign["wrong"]),
                            f"{campaign['wrong_percent']:.2f}"]
                else:
                    row += ["-", "-", "-"]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    derived = report.get("derived", {})
    for analysis, payload in derived.items():
        lines.append(f"### {analysis}")
        lines.append("")
        lines.append("```json")
        import json

        lines.append(json.dumps(payload, indent=2, default=str,
                                sort_keys=True))
        lines.append("```")
        lines.append("")
    stages = report.get("stages", [])
    if stages:
        lines.append("### stages")
        lines.append("")
        lines.append("| stage | fingerprint | seconds | cache |")
        lines.append("|---|---|---:|---|")
        for stage in stages:
            cache = ", ".join(f"{key}={value}"
                              for key, value in stage["cache"].items()
                              if value) or "-"
            lines.append(f"| {stage['name']} | `{stage['fingerprint']}` | "
                         f"{stage['seconds']:.2f} | {cache} |")
        lines.append("")
    return lines
