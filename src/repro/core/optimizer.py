"""Voter-partition design-space exploration.

The paper demonstrates experimentally that an intermediate partition
(TMR_p2) beats both extremes; this module automates that search.  For a
component-level design it sweeps candidate partition strategies, estimates
robustness with the analytical model of :mod:`repro.core.analysis` and a
simple area/performance model, and reports the Pareto-optimal choices.  The
full fault-injection campaign can then be reserved for the few shortlisted
candidates (this is the workflow the paper's conclusions recommend).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from ..netlist.ir import Definition, Netlist
from ..netlist.traversal import combinational_predecessors
from .analysis import RobustnessEstimate, estimate_robustness
from .partition import (AllComponents, ByComponentType, EveryKth, NoPartition,
                        PartitionStrategy, combinational_components,
                        component_topological_order, is_register_component)
from .tmr import TMRConfig, TMRResult, apply_tmr
from .voters import is_voter


@dataclasses.dataclass
class CandidateEvaluation:
    """Metrics for one candidate partition strategy."""

    strategy: PartitionStrategy
    config: TMRConfig
    result: TMRResult
    robustness: RobustnessEstimate
    #: LUT-equivalent area estimate of the TMR overhead (voters only)
    voter_area_luts: int
    #: additional logic levels introduced on the longest path
    extra_logic_levels: int

    @property
    def defeat_probability(self) -> float:
        return self.robustness.cross_domain_defeat_probability

    def summary_row(self) -> Dict[str, object]:
        return {
            "partition": self.strategy.describe(),
            "voters": self.result.voter_count,
            "regions": self.robustness.num_regions,
            "defeat_probability": round(self.defeat_probability, 5),
            "voter_area_luts": self.voter_area_luts,
            "extra_logic_levels": self.extra_logic_levels,
        }


@dataclasses.dataclass
class SweepResult:
    """All candidate evaluations plus the selected optimum."""

    candidates: List[CandidateEvaluation]
    best: CandidateEvaluation

    def table(self) -> List[Dict[str, object]]:
        return [candidate.summary_row() for candidate in self.candidates]


def default_candidates(definition: Definition) -> List[PartitionStrategy]:
    """The candidate set swept by default: both extremes, the component-type
    partitions present in the design, and a few granularities."""
    strategies: List[PartitionStrategy] = [NoPartition(), AllComponents()]
    component_types = sorted({
        str(inst.properties.get("component"))
        for inst in combinational_components(definition)
        if inst.properties.get("component") is not None})
    for component_type in component_types:
        strategies.append(ByComponentType((component_type,)))
    num_components = len(combinational_components(definition))
    for k in (2, 3, 4):
        if 1 < k < max(2, num_components):
            strategies.append(EveryKth(k))
    return strategies


def _estimate_extra_levels(result: TMRResult) -> int:
    """Voter LUT levels added on the longest register-to-register path.

    Walks the TMR'd component netlist in topological order (register
    stages cut the graph, exactly as they cut timing paths) and counts,
    per instance, the maximum number of voter LUTs on any combinational
    path ending there.  The result is the voter depth of the critical
    path — the quantity the paper's Table 2 performance column reacts to —
    rather than the design-wide voted-block count, which overcounts
    barriers that sit on parallel (non-critical) paths.
    """
    definition = result.definition
    voters_on_path: Dict[str, int] = {}
    deepest = 0
    for instance in component_topological_order(definition):
        if is_register_component(instance) and not is_voter(instance):
            # Register outputs start a fresh timing path.
            voters_on_path[instance.name] = 0
            continue
        depth = 0
        for predecessor in combinational_predecessors(instance):
            if predecessor.parent is not definition or \
                    predecessor.name == instance.name:
                continue
            if is_register_component(predecessor) and \
                    not is_voter(predecessor):
                continue
            depth = max(depth, voters_on_path.get(predecessor.name, 0))
        if is_voter(instance):
            depth += 1
        voters_on_path[instance.name] = depth
        deepest = max(deepest, depth)
    # Every TMR version ends in at least the final output voter.
    return max(deepest, 1)


def sweep_partitions(netlist: Netlist, top: Definition,
                     strategies: Optional[Sequence[PartitionStrategy]] = None,
                     voter_cost_weight: float = 0.0) -> SweepResult:
    """Evaluate candidate partitions and pick the best one.

    The best candidate has the lowest analytical defeat probability plus
    *voter_cost_weight* times its voter area, mirroring the paper's
    "robustness at acceptable cost" criterion.  Every candidate votes its
    register stages.
    """
    strategies = list(strategies) if strategies is not None \
        else default_candidates(top)
    if not strategies:
        raise ValueError("no partition strategies to sweep")

    candidates: List[CandidateEvaluation] = []
    tmr_library = netlist.get_library("tmr")
    for index, strategy in enumerate(strategies):
        # Pick a suffix that does not collide with earlier sweeps over the
        # same netlist.
        suffix_index = index
        while f"{top.name}_tmr_sweep{suffix_index}" in tmr_library:
            suffix_index += len(strategies)
        config = TMRConfig(partition=strategy,
                           name_suffix=f"_tmr_sweep{suffix_index}")
        result = apply_tmr(netlist, top, config)
        robustness = estimate_robustness(result.definition)
        candidates.append(CandidateEvaluation(
            strategy=strategy,
            config=config,
            result=result,
            robustness=robustness,
            voter_area_luts=result.voter_count,
            extra_logic_levels=_estimate_extra_levels(result),
        ))

    best = min(candidates,
               key=lambda candidate: candidate.robustness.score(
                   voter_cost_weight))
    return SweepResult(candidates, best)


def pareto_front(candidates: Iterable[CandidateEvaluation]
                 ) -> List[CandidateEvaluation]:
    """Candidates not dominated in (defeat probability, voter area)."""
    candidate_list = list(candidates)
    front: List[CandidateEvaluation] = []
    for candidate in candidate_list:
        dominated = False
        for other in candidate_list:
            if other is candidate:
                continue
            if (other.defeat_probability <= candidate.defeat_probability and
                    other.voter_area_luts <= candidate.voter_area_luts and
                    (other.defeat_probability < candidate.defeat_probability
                     or other.voter_area_luts < candidate.voter_area_luts)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda c: (c.defeat_probability, c.voter_area_luts))
    return front
