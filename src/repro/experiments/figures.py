"""Experiment driver for the paper's figures.

The figures in the paper are structural schematics rather than data plots;
their reproducible content is the *structure* of the generated netlists:

* **Figure 1** — the plain TMR scheme: triplicated inputs, three redundant
  logic domains, an output majority voter, and the two example routing upsets
  ("a" within one domain is masked, "b" across domains may defeat the TMR).
* **Figure 2** — the TMR register with voters and refresh.
* **Figure 3** — the partitioned TMR scheme in which upset "b" is blocked by
  a voter barrier.
* **Figure 4** — the three partitioned filter architectures (p1/p2/p3).

``run_figures`` verifies each of those structural properties on generated
netlists and returns a machine-checkable summary.  ``python -m repro run
figures-fir`` reports the summary, and ``python -m repro run
figure1-upsets`` measures Figure 1's two example routing upsets with a
campaign on TMR_p3.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import (NUM_DOMAINS, build_voted_register, check_domain_isolation,
                    compute_voter_regions, voter_instances)
from ..faults import CampaignResult, categories
from ..netlist import Netlist, flatten
from ..sim import CompiledDesign, Simulator
from .designs import DesignSuite, build_design_suite


def figure1_summary(suite: DesignSuite) -> Dict[str, object]:
    """Structural facts of the plain TMR scheme (minimum partition)."""
    result = suite.tmr["TMR_p3"]
    definition = result.definition
    isolation = check_domain_isolation(definition)
    input_ports = [name for name in definition.ports
                   if definition.ports[name].direction.value == "input"]
    triplicated_inputs = all(
        any(name.endswith(f"_tr{domain}") for name in input_ports)
        for domain in range(NUM_DOMAINS))
    return {
        "domains": NUM_DOMAINS,
        "inputs_triplicated": triplicated_inputs,
        "single_voted_output": "DOUT" in definition.ports,
        "domains_isolated_outside_voters": isolation.ok,
        "output_voters": result.voters_by_role.get("output", 0),
    }


def figure2_summary() -> Dict[str, object]:
    """Structural and behavioural facts of the voted register macro."""
    netlist = Netlist("figure2")
    width = 4
    macro = build_voted_register(netlist, width)
    netlist.set_top(macro)
    flat = flatten(netlist, macro)
    compiled = CompiledDesign(flat)

    # Behavioural check: a corrupted flip-flop in one domain is out-voted.
    stimulus = [{f"D_tr{d}": 5 for d in range(3)} for _ in range(3)]
    trace = Simulator(compiled).run(stimulus)
    voted_outputs = {f"Q_tr{d}": trace.outputs[-1][f"Q_tr{d}"]
                     for d in range(3)}
    all_equal = len({tuple(bits) for bits in voted_outputs.values()}) == 1

    return {
        "flip_flops": sum(1 for i in macro.instances.values()
                          if i.reference.name == "FD"),
        "voters": len(voter_instances(macro)),
        "voters_per_bit_per_domain": len(voter_instances(macro)) // width
        // NUM_DOMAINS == 1,
        "clocks_triplicated": all(f"C_tr{d}" in macro.ports
                                  for d in range(3)),
        "domain_outputs_agree": all_equal,
    }


def figure3_summary(suite: DesignSuite) -> Dict[str, object]:
    """The partition property: voter barriers split each domain into regions."""
    summary = {}
    for name in ("TMR_p1", "TMR_p2", "TMR_p3"):
        result = suite.tmr[name]
        regions = compute_voter_regions(result.definition)
        summary[name] = {
            "voters": result.voter_count,
            "regions_per_domain": regions.num_regions,
            "same_region_collision_probability": round(
                regions.same_region_collision_probability(), 4),
        }
    ordered = [summary[n]["regions_per_domain"]
               for n in ("TMR_p3", "TMR_p2", "TMR_p1")]
    summary["regions_increase_with_partitioning"] = \
        ordered[0] <= ordered[1] <= ordered[2]
    return summary


def figure4_summary(suite: DesignSuite) -> Dict[str, object]:
    """The three filter architectures: what gets voted in each version."""
    components = suite.components
    summary: Dict[str, object] = {}
    for name, result in suite.tmr.items():
        voted_blocks = sorted({net.rsplit("[", 1)[0]
                               for net in result.voted_nets})
        summary[name] = {
            "voter_luts": result.voter_count,
            "voted_nets": len(result.voted_nets),
            "voted_blocks": len(voted_blocks),
            "voters_by_role": dict(result.voters_by_role),
        }
    summary["component_inventory"] = {
        "multipliers": len(components.multipliers),
        "adders": len(components.adders),
        "registers": len(components.registers),
    }
    return summary


def figure1_upset_demo(result: CampaignResult) -> Dict[str, object]:
    """Measured counterparts of Figure 1's two example routing upsets.

    Figure 1 annotates the plain TMR scheme with upset "a" (a routing fault
    confined to one redundant domain, masked by the voters) and upset "b" (a
    routing fault coupling two domains, able to defeat the TMR).  This demo
    reads one campaign on an implemented TMR version and returns a concrete
    example of each, alongside the masked/error counts of the routing
    categories.
    """
    routing = [r for r in result.results
               if r.category in categories.ROUTING_CATEGORIES
               and r.has_effect]
    masked = next((r for r in routing if not r.wrong_answer), None)
    defeating = next((r for r in routing if r.wrong_answer), None)

    def describe(record) -> Optional[Dict[str, object]]:
        if record is None:
            return None
        return {
            "bit": record.bit,
            "category": record.category,
            "wrong_answer": record.wrong_answer,
            "detail": record.detail,
        }

    return {
        "routing_upsets_with_effect": len(routing),
        "routing_upsets_masked": sum(1 for r in routing
                                     if not r.wrong_answer),
        "routing_upsets_defeating": sum(1 for r in routing
                                        if r.wrong_answer),
        "upset_a_masked_in_domain": describe(masked),
        "upset_b_defeats_tmr": describe(defeating),
    }


def run_figures(suite: Optional[DesignSuite] = None, scale: str = "fast"
                ) -> Dict[str, object]:
    if suite is None:
        suite = build_design_suite(scale)
    return {
        "figure1": figure1_summary(suite),
        "figure2": figure2_summary(),
        "figure3": figure3_summary(suite),
        "figure4": figure4_summary(suite),
    }
