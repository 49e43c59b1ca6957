"""Scenario registry: named, declarative experiment configurations.

A :class:`Scenario` names one point (or one *matrix*) of the experiment
space the paper samples by hand: which designs, at which scale, under
which :mod:`~repro.faults.upsets` model, through which campaign backend,
with which analyses.  Scenarios are data — running one is
:func:`run_scenario`, which expands the scenario's axes into variants,
pushes each through the :mod:`repro.pipeline` stage library and merges
the per-variant reports into one uniform document.

Matrix axes make the registry a run-matrix enumerator: an axis is a
``(field, values)`` pair and the cartesian product of all axes yields the
variants.  Because every variant runs through the same fingerprint-keyed
stages, shared work (the built suite, place-and-route artifacts in the
flow store, golden traces and fault effects in the campaign cache) is
computed once and reused across the matrix.

Built-in scenarios cover the paper's tables and figures plus the new
multi-bit/accumulated-upset campaigns; projects can
:func:`register_scenario` their own.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from .experiments.designs import DESIGN_ORDER, scale_by_name
from .faults import (FAULT_LIST_MODES, resolve_backend,
                     resolve_upset_model)
from .pipeline import (PipelineContext, ProgressCallback, StoreLike,
                       pipeline_for, report_provenance)

#: One matrix axis: a Scenario field name and its candidate values.
Axis = Tuple[str, Tuple[object, ...]]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, declarative experiment configuration."""

    id: str
    title: str
    description: str = ""
    #: default experiment scale (overridable per run)
    scale: str = "fast"
    #: design versions evaluated; empty means "derived by the build stage"
    #: (the shortlist selector fills it in)
    designs: Tuple[str, ...] = DESIGN_ORDER
    #: campaign execution backend
    backend: str = "serial"
    #: upset model spec (see :mod:`repro.faults.upsets`)
    upset_model: str = "single"
    fault_list_mode: str = "design"
    #: upsets per design (``None``: the scale's default)
    num_faults: Optional[int] = None
    seed: int = 2005
    #: pipeline stages, in order (names from the stage library)
    stages: Tuple[str, ...] = ("build", "implement", "campaign", "analyze")
    #: analyses computed by the analyze stage
    analyses: Tuple[str, ...] = ("table3",)
    floorplan_domains: bool = False
    #: how the build stage picks TMR variants: the paper's four canonical
    #: partitions, or the optimizer's Pareto shortlist
    partition_selector: str = "canonical"
    shortlist_size: int = 3
    #: matrix axes expanded into variants by :meth:`variants`
    axes: Tuple[Axis, ...] = ()

    def variants(self) -> Iterator[Tuple[str, "Scenario"]]:
        """Expand the axes into ``(variant_id, concrete scenario)`` pairs."""
        if not self.axes:
            yield "", self
            return
        fields = [axis[0] for axis in self.axes]
        for combo in itertools.product(*(axis[1] for axis in self.axes)):
            overrides: Dict[str, Any] = dict(zip(fields, combo))
            variant_id = ",".join(f"{field}={value}"
                                  for field, value in overrides.items())
            yield variant_id, dataclasses.replace(self, axes=(), **overrides)


#: The registry, in registration order (also the ``repro list`` order).
SCENARIOS: "Dict[str, Scenario]" = {}


def register_scenario(scenario: Scenario,
                      replace: bool = False) -> Scenario:
    """Add *scenario* to the registry (``replace=True`` to overwrite)."""
    if not replace and scenario.id in SCENARIOS:
        raise ValueError(f"scenario {scenario.id!r} is already registered")
    SCENARIOS[scenario.id] = scenario
    return scenario


def scenario_by_name(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: "
                       + ", ".join(sorted(SCENARIOS))) from None


def list_scenarios() -> List[Scenario]:
    return list(SCENARIOS.values())


# ----------------------------------------------------------------------
# Built-in catalog
# ----------------------------------------------------------------------
register_scenario(Scenario(
    id="table2-fir",
    title="Table 2 — resources and performance",
    description="Implement the five filter versions and report slices, "
                "bitstream composition and estimated Fmax next to the "
                "paper's numbers.",
    stages=("build", "implement", "analyze"),
    analyses=("resources",),
))

register_scenario(Scenario(
    id="table3-fir",
    title="Table 3 — fault-injection campaign",
    description="One single-bit-upset campaign per filter version; "
                "wrong-answer percentages and the medium-partition "
                "improvement factor.",
    analyses=("table3",),
))

register_scenario(Scenario(
    id="huge-fir",
    title="Monte-Carlo campaign — 10^6 injections",
    description="The Table 3 campaign on the unprotected and "
                "medium-partition versions at the huge scale: one million "
                "injections per design, covering every programmable bit "
                "plus a reproducible with-replacement tail.  Duplicate "
                "injections collapse onto shared lanes, so only the "
                "numpy-compiled backend makes this scale practical.",
    scale="huge",
    designs=("standard", "TMR_p2"),
    backend="numpy",
    analyses=("table3",),
))

register_scenario(Scenario(
    id="chaos-fir",
    title="Chaos campaign — recovery under injected failures",
    description="The Table 3 campaign on the unprotected and "
                "medium-partition versions through the supervised "
                "sharded backend.  Run under REPRO_CHAOS (see "
                "repro.service.chaos) it exercises worker death, torn "
                "tier writes and disk-full at seeded fault points while "
                "the verdicts must stay bit-identical to an undisturbed "
                "run; without chaos configured it is an ordinary sharded "
                "campaign.",
    scale="tiny",
    designs=("standard", "TMR_p2"),
    backend="sharded",
    analyses=("table3",),
))

register_scenario(Scenario(
    id="table4-fir",
    title="Table 4 — effects of error-causing upsets",
    description="The Table 3 campaigns aggregated by effect category "
                "(LUT / MUX / Open / Bridge / Conflict / ...).",
    analyses=("table3", "table4"),
))

register_scenario(Scenario(
    id="figures-fir",
    title="Figures 1-4 — structural properties",
    description="Machine-checkable structural facts of the TMR schemes "
                "(triplication, voter barriers, partitions).",
    stages=("build", "analyze"),
    analyses=("figures",),
))

register_scenario(Scenario(
    id="figure1-upsets",
    title="Figure 1 — example routing upsets",
    description="One campaign on the plain (minimum-partition) TMR "
                "version: a routing upset confined to one domain (upset "
                "'a', masked by the voters) and one coupling two domains "
                "(upset 'b', defeating the TMR), with the masked and "
                "defeating counts of the routing categories.",
    designs=("TMR_p3",),
    backend="vector",
    analyses=("figure1_upsets",),
))

register_scenario(Scenario(
    id="ablation-sweep",
    title="Analytical voter-granularity sweep",
    description="The optimizer's analytical design-space sweep behind "
                "the 'there is an optimal partition' conclusion.",
    stages=("build", "analyze"),
    analyses=("sweep",),
))

register_scenario(Scenario(
    id="floorplan-fir",
    title="Floorplanning ablation",
    description="Interleaved placement versus per-domain column bands on "
                "the minimum-partition TMR version.",
    scale="smoke",
    designs=("TMR_p3",),
    analyses=("table3",),
    axes=(("floorplan_domains", (False, True)),),
))

register_scenario(Scenario(
    id="mbu-fir",
    title="Adjacent multi-bit upsets",
    description="Each injection flips a cluster of two adjacent "
                "configuration cells (the dominant multi-cell-upset mode "
                "of scaled SRAM processes).",
    scale="smoke",
    designs=("standard", "TMR_p2"),
    backend="vector",
    upset_model="mbu:2",
    analyses=("table3",),
))

register_scenario(Scenario(
    id="accumulate-fir",
    title="Accumulated upsets between scrubs",
    description="Upsets accrue in groups of four before the scrubber "
                "repairs the configuration — the regime studied by the "
                "TMR-partitioning dependability literature.",
    scale="smoke",
    designs=("standard", "TMR_p2"),
    backend="vector",
    upset_model="accumulate:4",
    analyses=("table3",),
))

register_scenario(Scenario(
    id="upset-matrix",
    title="Upset-model matrix",
    description="single vs mbu:2 vs accumulate:4 on the unprotected and "
                "medium-partition versions — how the TMR advantage "
                "degrades as injections grow denser.",
    scale="smoke",
    designs=("standard", "TMR_p2"),
    backend="vector",
    analyses=("table3",),
    axes=(("upset_model", ("single", "mbu:2", "accumulate:4")),),
))

register_scenario(Scenario(
    id="backend-matrix",
    title="Backend equivalence matrix",
    description="The same campaign through the serial, vector and sharded "
                "engines; all variants must agree bit for bit.",
    scale="smoke",
    designs=("standard", "TMR_p2"),
    analyses=("table3",),
    axes=(("backend", ("serial", "vector", "sharded")),),
))

register_scenario(Scenario(
    id="defeat-map-fir",
    title="Layout-aware defeat map",
    description="Classify every fault-list bit of each implemented "
                "version as silent / single-domain-correctable / "
                "cross-domain-defeat-capable by walking the routed "
                "layout, and compare the layout-aware defeat probability "
                "with the netlist-only analytical estimate.",
    scale="smoke",
    stages=("build", "implement", "analyze"),
    analyses=("defeat_map",),
))

register_scenario(Scenario(
    id="prediction-vs-campaign",
    title="Static prediction vs measured campaign",
    description="Cross-validate the layout analyzer against injection: "
                "the predicted defeat-capable set must cover every "
                "measured wrong-answer bit and silent predictions must "
                "never measure wrong.  The map stays an analysis: the "
                "campaign injects every sampled upset, so the measurement "
                "is independent of the prediction it validates.",
    scale="smoke",
    backend="vector",
    analyses=("table3", "prediction_vs_campaign"),
))

register_scenario(Scenario(
    id="partition-shortlist",
    title="Optimizer shortlist campaign",
    description="Sweep voter partitions analytically, implement the "
                "Pareto-optimal shortlist and confirm it with measured "
                "campaigns — the workflow the paper's conclusions "
                "recommend.",
    scale="smoke",
    designs=(),  # derived by the build stage from the optimizer shortlist
    backend="vector",
    partition_selector="shortlist",
    analyses=("table3",),
))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def validate_scenario(scenario: Scenario) -> None:
    """Reject a scenario whose knobs cannot run, before any work starts.

    Checks the backend, upset model, scale, fault-list mode, fault count,
    seed and (under the canonical partition selector, whose design names
    are known before the build) the designs of every matrix variant, and
    raises :class:`ValueError` (or :class:`KeyError` for an unknown
    scale).  :func:`run_scenario` calls it before the expensive
    build/implement stages, and the campaign service before it queues or
    journals a submission.
    """
    for _, variant in scenario.variants():
        resolve_backend(variant.backend)
        resolve_upset_model(variant.upset_model)
        scale_by_name(variant.scale)
        if variant.fault_list_mode not in FAULT_LIST_MODES:
            raise ValueError(f"unknown fault-list mode "
                             f"{variant.fault_list_mode!r}; choose from "
                             f"{FAULT_LIST_MODES}")
        faults = variant.num_faults
        if faults is not None and (isinstance(faults, bool)
                                   or not isinstance(faults, int)
                                   or faults < 0):
            raise ValueError(f"num_faults must be a non-negative integer, "
                             f"not {faults!r}")
        seed = variant.seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, not {seed!r}")
        if variant.partition_selector == "canonical":
            if not variant.designs:
                raise ValueError(f"designs must name at least one of "
                                 f"{DESIGN_ORDER}")
            unknown = [name for name in variant.designs
                       if name not in DESIGN_ORDER]
            if unknown:
                raise ValueError(f"unknown designs {unknown}; choose from "
                                 f"{DESIGN_ORDER}")


def resolve_scenario(scenario: Union[str, Scenario],
                     **overrides: object) -> Scenario:
    """The scenario that *scenario* with keyword *overrides* runs.

    ``None`` keeps a field's default.  Overriding a field that is also a
    matrix axis collapses that axis.  :func:`run_scenario` and the
    service's ``JobSpec.resolve`` both go through here, so a job's
    fingerprint describes exactly what executes.
    """
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    given: Dict[str, Any] = {name: value
                             for name, value in overrides.items()
                             if value is not None}
    if "designs" in given:
        given["designs"] = tuple(given["designs"])
    if not given:
        return scenario
    collapsed = tuple(axis for axis in scenario.axes
                      if axis[0] not in given)
    return dataclasses.replace(scenario, axes=collapsed, **given)


def run_scenario(scenario: Union[str, Scenario], *,
                 scale: Optional[str] = None,
                 backend: Optional[str] = None,
                 upset_model: Optional[str] = None,
                 num_faults: Optional[int] = None,
                 seed: Optional[int] = None,
                 fault_list_mode: Optional[str] = None,
                 designs: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 flow_cache: StoreLike = None,
                 progress: bool = False,
                 progress_callback: Optional[ProgressCallback] = None,
                 repeat: int = 1) -> Dict[str, object]:
    """Run one scenario (expanding its matrix axes) and return the report.

    Keyword overrides replace the scenario's defaults before the axes are
    expanded — overriding a field that is also an axis collapses that
    axis.  *repeat* re-runs the whole scenario that many times in-process
    and returns the **last** run's report: with a persistent *flow_cache*
    the second run exercises every cache layer, which is what the CI gate
    measures.
    """
    scenario = resolve_scenario(
        scenario, scale=scale, backend=backend, upset_model=upset_model,
        num_faults=num_faults, seed=seed,
        fault_list_mode=fault_list_mode, designs=designs)
    validate_scenario(scenario)
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    report: Dict[str, object] = {}
    for _ in range(repeat):
        report = _run_once(scenario, jobs=jobs, flow_cache=flow_cache,
                           progress=progress,
                           progress_callback=progress_callback)
    report["repeat"] = repeat
    return report


def _run_once(scenario: Scenario, *, jobs: int, flow_cache: StoreLike,
              progress: bool,
              progress_callback: Optional[ProgressCallback] = None
              ) -> Dict[str, object]:
    def execute(variant: Scenario) -> Dict[str, object]:
        ctx = PipelineContext(variant, jobs=jobs, flow_cache=flow_cache,
                              progress=progress,
                              progress_callback=progress_callback)
        return pipeline_for(variant.stages).run(ctx)

    variants = list(scenario.variants())
    if len(variants) == 1 and variants[0][0] == "":
        return execute(variants[0][1])

    runs: Dict[str, object] = {}
    for variant_id, variant in variants:
        runs[variant_id] = execute(variant)
    report = report_provenance(scenario)
    report.update({
        "axes": [{"field": field, "values": list(values)}
                 for field, values in scenario.axes],
        "runs": runs,
    })
    return report
