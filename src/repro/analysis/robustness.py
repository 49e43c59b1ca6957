"""Cross-design robustness analysis combining campaigns and structure.

These helpers post-process campaign results into the quantities the paper
argues about: the improvement factor of the best partition over plain TMR,
the trade-off curve between voter count and measured vulnerability, and the
domain-crossing statistics of each placed-and-routed version.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.analysis import estimate_robustness
from ..core.tmr import TMRResult
from ..faults.campaign import CampaignConfig, CampaignResult, run_campaigns
from ..faults.engine import BackendLike, ProgressCallback
from ..pnr.flow import Implementation


@dataclasses.dataclass
class TradeoffPoint:
    """One design version in the robustness/cost design space."""

    design: str
    voters: int
    slices: int
    fmax_mhz: float
    wrong_answer_percent: float
    analytical_defeat_probability: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "voters": self.voters,
            "slices": self.slices,
            "fmax_mhz": round(self.fmax_mhz, 1),
            "wrong_answer_percent": round(self.wrong_answer_percent, 3),
            "analytical_defeat_probability":
                None if self.analytical_defeat_probability is None
                else round(self.analytical_defeat_probability, 5),
        }


def improvement_factor(results: Mapping[str, CampaignResult],
                       reference: str, improved: str) -> float:
    """How many times fewer wrong answers *improved* has versus *reference*.

    The paper's headline is ``improvement_factor(results, "TMR_p1",
    "TMR_p2") ~= 4``.
    """
    reference_pct = results[reference].wrong_answer_percent
    improved_pct = results[improved].wrong_answer_percent
    if improved_pct == 0.0:
        return float("inf") if reference_pct > 0 else 1.0
    return reference_pct / improved_pct


def best_partition(results: Mapping[str, CampaignResult],
                   candidates: Optional[Sequence[str]] = None) -> str:
    """The design version with the lowest wrong-answer percentage."""
    names = list(candidates) if candidates is not None else list(results)
    return min(names, key=lambda name: results[name].wrong_answer_percent)


def tradeoff_curve(implementations: Mapping[str, Implementation],
                   campaigns: Mapping[str, CampaignResult],
                   tmr_results: Optional[Mapping[str, TMRResult]] = None
                   ) -> List[TradeoffPoint]:
    """Assemble the voters-versus-vulnerability curve across versions."""
    points: List[TradeoffPoint] = []
    for name, implementation in implementations.items():
        campaign = campaigns.get(name)
        if campaign is None:
            continue
        voters = 0
        analytical = None
        if tmr_results is not None and name in tmr_results:
            voters = tmr_results[name].voter_count
            analytical = estimate_robustness(
                tmr_results[name].definition).cross_domain_defeat_probability
        points.append(TradeoffPoint(
            design=name,
            voters=voters,
            slices=implementation.slice_count,
            fmax_mhz=implementation.timing.fmax_mhz,
            wrong_answer_percent=campaign.wrong_answer_percent,
            analytical_defeat_probability=analytical,
        ))
    points.sort(key=lambda point: point.voters)
    return points


def campaign_tradeoff(implementations: Mapping[str, Implementation],
                      config: Optional[CampaignConfig] = None,
                      tmr_results: Optional[Mapping[str, TMRResult]] = None,
                      backend: BackendLike = None,
                      progress: Optional[ProgressCallback] = None
                      ) -> List[TradeoffPoint]:
    """Run the campaigns through the execution engine and build the curve.

    One-call form of :func:`tradeoff_curve` for callers that have the
    implemented versions but no campaign results yet; *backend* selects the
    campaign execution backend (``"serial"``, the bit-parallel
    ``"vector"``, the numpy-compiled ``"numpy"`` or the process-parallel
    ``"sharded"``),
    and repeated calls reuse the
    golden-trace / fault-effect cache.
    """
    campaigns = run_campaigns(dict(implementations), config,
                              progress=progress, backend=backend)
    return tradeoff_curve(implementations, campaigns,
                          tmr_results=tmr_results)


def routing_effect_share(result: CampaignResult) -> float:
    """Fraction of error-causing upsets attributed to routing effects.

    The paper observes that routing resources dominate the error-causing
    upsets and that LUT upsets never defeat the TMR.
    """
    from ..faults import categories

    routing = sum(result.by_category[c].wrong
                  for c in categories.ROUTING_CATEGORIES
                  if c in result.by_category)
    total = sum(count.wrong for count in result.by_category.values())
    return routing / total if total else 0.0


def domain_crossing_summary(implementation: Implementation
                            ) -> Dict[str, int]:
    """Placed-and-routed cross-domain adjacency statistics.

    Counts routed nets per TMR domain and the number of tiles through which
    nets of more than one domain pass — the physical opportunity for a single
    routing upset to couple two domains.
    """
    from ..fpga.routing import node_tile

    domain_of_net: Dict[str, Optional[int]] = {}
    for net in implementation.design.nets.values():
        value = net.properties.get("domain")
        domain_of_net[net.name] = int(value) if value is not None else None

    tiles_domains: Dict[Tuple[int, int], set] = {}
    nets_per_domain: Dict[Optional[int], int] = {}
    for net_name, tree in implementation.routing.routes.items():
        domain = domain_of_net.get(net_name)
        nets_per_domain[domain] = nets_per_domain.get(domain, 0) + 1
        for node in tree.nodes():
            if node[0] != "wire":
                continue
            tile = node_tile(implementation.device, node)
            tiles_domains.setdefault(tile, set()).add(domain)

    mixed_tiles = sum(1 for domains in tiles_domains.values()
                      if len({d for d in domains if d is not None}) > 1)
    return {
        "routed_nets": len(implementation.routing.routes),
        "tiles_with_routing": len(tiles_domains),
        "tiles_with_multiple_domains": mixed_tiles,
        "nets_domain_0": nets_per_domain.get(0, 0),
        "nets_domain_1": nets_per_domain.get(1, 0),
        "nets_domain_2": nets_per_domain.get(2, 0),
        "nets_shared": nets_per_domain.get(None, 0),
    }
