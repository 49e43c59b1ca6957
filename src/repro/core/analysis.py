"""Structural analysis of TMR netlists: domain isolation, voter regions and
an analytical estimate of the probability that a routing upset defeats TMR.

The analytical model captures the paper's qualitative argument: a routing
upset that bridges signals of two *different* redundant domains defeats the
TMR only when both corrupted signals are voted by the same voter barrier
(they live in the same *voter region*).  Splitting the logic into more
regions shrinks that probability, but every region adds voters (area, delay
and additional inter-domain wiring).  The fault-injection campaigns measure
the same effect on the placed-and-routed design.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Optional, Set

from ..netlist.ir import Definition, Instance, InstancePin, Net, TopPin
from .partition import is_register_component
from .voters import DOMAIN_PROPERTY, VOTED_NET_PROPERTY, is_voter


@dataclasses.dataclass
class DomainIsolationReport:
    """Result of checking that redundant domains only meet at voters."""

    ok: bool
    #: nets whose pins span more than one domain without being voter inputs
    violations: List[str]
    #: number of nets per domain (None key = shared / undomained logic)
    nets_per_domain: Dict[Optional[int], int]
    #: number of instances per domain
    instances_per_domain: Dict[Optional[int], int]


def domain_of_instance(instance: Instance) -> Optional[int]:
    value = instance.properties.get(DOMAIN_PROPERTY)
    return int(value) if value is not None else None


def domain_of_net(net: Net) -> Optional[int]:
    value = net.properties.get(DOMAIN_PROPERTY)
    return int(value) if value is not None else None


def check_domain_isolation(definition: Definition) -> DomainIsolationReport:
    """Verify the Figure 1/3 property: domains only interconnect at voters.

    Every net must be readable by instances of a single domain, except that
    voter instances legitimately read all three domains, and shared logic
    (final output voters, non-triplicated clocks) has no domain.
    """
    violations: List[str] = []
    nets_per_domain: Dict[Optional[int], int] = defaultdict(int)
    instances_per_domain: Dict[Optional[int], int] = defaultdict(int)

    for instance in definition.instances.values():
        instances_per_domain[domain_of_instance(instance)] += 1

    for net in definition.nets.values():
        nets_per_domain[domain_of_net(net)] += 1
        reader_domains: Set[int] = set()
        for pin in net.sinks():
            if not isinstance(pin, InstancePin):
                continue
            if is_voter(pin.instance):
                continue  # voters are allowed to read all domains
            domain = domain_of_instance(pin.instance)
            if domain is not None:
                reader_domains.add(domain)
        driver_domains: Set[int] = set()
        for pin in net.drivers():
            if isinstance(pin, InstancePin):
                domain = domain_of_instance(pin.instance)
                if domain is not None:
                    driver_domains.add(domain)
        spanned = reader_domains | driver_domains
        if len(spanned) > 1:
            violations.append(net.name)

    return DomainIsolationReport(
        ok=not violations,
        violations=violations,
        nets_per_domain=dict(nets_per_domain),
        instances_per_domain=dict(instances_per_domain),
    )


# ----------------------------------------------------------------------
# Voter regions
# ----------------------------------------------------------------------
@dataclasses.dataclass
class VoterRegionReport:
    """Partition of a domain's nets into voter regions.

    A *voter region* is the set of nets between voter barriers: an upset
    confined to one region of one domain is corrected by that region's
    voters.  Two same-region upsets in two different domains defeat the TMR.
    """

    #: region id -> number of nets in the region (per single domain)
    region_sizes: Dict[int, int]
    #: net name -> region id (domain-0 nets only; regions are symmetric)
    net_regions: Dict[str, int]
    #: number of regions
    num_regions: int
    #: region id -> seed label ("voter:<voted net>", "ff:<instance>",
    #: "input:<net>" or "cone:<net>"); labels are domain-invariant except
    #: for the ``_tr<d>`` markers, which lets layout analyses match up the
    #: corresponding regions of different domains
    region_seeds: Dict[int, str] = dataclasses.field(default_factory=dict)

    def normalized_sizes(self) -> List[float]:
        total = sum(self.region_sizes.values())
        if total == 0:
            return []
        return [size / total for size in self.region_sizes.values()]

    def same_region_collision_probability(self) -> float:
        """Probability that two independently, uniformly chosen nets fall in
        the same voter region — the analytical proxy for the fraction of
        domain-crossing routing upsets that defeat the TMR."""
        fractions = self.normalized_sizes()
        return sum(f * f for f in fractions)


def compute_voter_regions(definition: Definition,
                          domain: int = 0) -> VoterRegionReport:
    """Group the nets of one domain into voter regions.

    Traversal starts at voter outputs, primary inputs and flip-flop outputs
    of the chosen domain and flows forward; a region ends where a voter
    input or a state-element input is reached (a flip-flop output seeds its
    own region, so the flood must not run through the register).  Because
    the three domains are structurally identical it is sufficient to
    analyse one of them.

    Every seed class gets its own region: each voter output feeding the
    domain, each flip-flop / register-stage output, and each disjoint
    primary-input cone.  Undomained nets (shared clocks, final voted
    outputs) are skipped during the flood-fill and never appear in
    ``region_sizes``.
    """
    region_of_net: Dict[str, int] = {}
    region_seeds: Dict[int, str] = {}
    next_region = 0

    def net_in_domain(net: Net) -> bool:
        net_domain = domain_of_net(net)
        if net_domain is not None:
            return net_domain == domain
        # Undomained nets (shared clocks, final outputs) are skipped.
        return False

    def is_region_barrier(instance: Instance) -> bool:
        return is_voter(instance) or is_register_component(instance)

    def assign(net: Net, region: int) -> None:
        stack = [net]
        while stack:
            current = stack.pop()
            if current.name in region_of_net or not net_in_domain(current):
                continue
            region_of_net[current.name] = region
            for pin in current.sinks():
                if not isinstance(pin, InstancePin):
                    continue
                instance = pin.instance
                if is_region_barrier(instance):
                    continue  # regions end at voter / register inputs
                inst_domain = domain_of_instance(instance)
                if inst_domain is not None and inst_domain != domain:
                    continue
                for out_pin in instance.pins():
                    if out_pin.is_driver and out_pin.net is not None:
                        if out_pin.net.name not in region_of_net:
                            stack.append(out_pin.net)

    def seed(net: Net, label: str) -> None:
        nonlocal next_region
        if net.name in region_of_net or not net_in_domain(net):
            return
        region_seeds[next_region] = label
        assign(net, next_region)
        next_region += 1

    # 1. Voter outputs feeding this domain, in definition order.
    for instance in definition.instances.values():
        if not is_voter(instance):
            continue
        voted = instance.properties.get(VOTED_NET_PROPERTY)
        for pin in instance.pins():
            if pin.is_driver and pin.net is not None:
                seed(pin.net, f"voter:{voted}" if voted is not None
                     else f"voter:{instance.name}")

    # 2. Flip-flop / register-stage outputs of this domain.
    for instance in definition.instances.values():
        if is_voter(instance) or not is_register_component(instance):
            continue
        for pin in instance.pins():
            if pin.is_driver and pin.net is not None:
                seed(pin.net, f"ff:{instance.name}")

    # 3. Each disjoint primary-input cone.
    for pin in definition.top_pins():
        if isinstance(pin, TopPin) and pin.is_driver and pin.net is not None:
            seed(pin.net, f"input:{pin.net.name}")

    # 4. Any remaining cone (constants, undriven islands), deterministically.
    for name in sorted(definition.nets):
        net = definition.nets[name]
        if net.name not in region_of_net:
            seed(net, f"cone:{net.name}")

    region_sizes: Dict[int, int] = defaultdict(int)
    for region in region_of_net.values():
        region_sizes[region] += 1
    return VoterRegionReport(dict(region_sizes), region_of_net,
                             len(region_sizes), region_seeds)


# ----------------------------------------------------------------------
# Analytical robustness estimate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RobustnessEstimate:
    """Closed-form estimate of TMR vulnerability to routing upsets."""

    #: probability that a domain-crossing short defeats the TMR
    cross_domain_defeat_probability: float
    #: number of voter regions per domain
    num_regions: int
    #: voters inserted (all domains, all roles)
    voter_count: int
    #: nets per domain considered by the model
    nets_per_domain: int

    def score(self, voter_cost_weight: float = 0.0) -> float:
        """Lower is better; optionally penalise voter count (area cost)."""
        return self.cross_domain_defeat_probability + \
            voter_cost_weight * self.voter_count


def estimate_robustness(definition: Definition,
                        domain: int = 0,
                        implementation=None) -> RobustnessEstimate:
    """Estimate how often a random domain-crossing short defeats the TMR.

    The netlist-only model assumes the two shorted signals are chosen
    uniformly from two different domains (no floorplanning — the paper's
    setting) and that the TMR fails exactly when both fall into the same
    voter region.  When an *implementation*
    (:class:`~repro.pnr.flow.Implementation`) is supplied, the uniform-net
    proxy is replaced by the layout-aware defeat probability of
    :mod:`repro.analysis.layout`, computed over the actual fault list of
    the routed design.
    """
    if implementation is not None:
        if implementation.design is not definition:
            raise ValueError(
                f"implementation implements "
                f"{implementation.design.name!r}, not the given "
                f"definition {definition.name!r}; pass "
                f"implementation.design (the layout-aware estimate is "
                f"computed from the routed design)")
        from ..analysis.layout import layout_robustness

        return layout_robustness(implementation, domain)
    regions = compute_voter_regions(definition, domain)
    voters = [inst for inst in definition.instances.values()
              if is_voter(inst)]
    nets_in_domain = sum(regions.region_sizes.values())
    return RobustnessEstimate(
        cross_domain_defeat_probability=
        regions.same_region_collision_probability(),
        num_regions=regions.num_regions,
        voter_count=len(voters),
        nets_per_domain=nets_in_domain,
    )
