"""Majority voter construction.

A TMR majority voter is a three-input majority function; on the target
fabric it fits in a single LUT ("one majority voter can be implemented by one
LUT", Section 2 of the paper).  Because that LUT is itself susceptible to
upsets, intermediate voters are triplicated — one voter per redundant domain
— so a corrupted voter only corrupts the domain it feeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cells.library import Library, shared_cell_library
from ..cells.lut import INIT_VOTER
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Definition, Instance, Net, Netlist, NetlistError

#: Property key marking voter instances in generated netlists.
VOTER_PROPERTY = "voter"
#: Property key recording which original (pre-TMR) net a voter votes.
VOTED_NET_PROPERTY = "voted_net"
#: Property key recording the TMR domain an instance belongs to.
DOMAIN_PROPERTY = "domain"


def insert_majority_voter(definition: Definition, inputs: Sequence[Net],
                          output: Net, cell_library: Optional[Library] = None,
                          name: Optional[str] = None,
                          domain: Optional[int] = None,
                          voted_net: Optional[str] = None,
                          role: str = "voter") -> Instance:
    """Insert a single majority-voter LUT into *definition*.

    *inputs* must be the three redundant versions of one signal (order
    irrelevant); *output* receives the voted value.
    """
    if len(inputs) != 3:
        raise NetlistError(f"majority voter needs 3 inputs, got {len(inputs)}")
    cells = cell_library if cell_library is not None else shared_cell_library()
    lut3 = cells.definitions["LUT3"]
    voter_name = name if name is not None else \
        definition.make_unique_name("voter")
    voter = definition.add_instance(lut3, voter_name)
    voter.properties["INIT"] = INIT_VOTER
    voter.properties[VOTER_PROPERTY] = role
    if domain is not None:
        voter.properties[DOMAIN_PROPERTY] = domain
    if voted_net is not None:
        voter.properties[VOTED_NET_PROPERTY] = voted_net
    for position, net in enumerate(inputs):
        voter.connect(f"I{position}", net, 0)
    voter.connect("O", output, 0)
    return voter


def is_voter(instance: Instance) -> bool:
    """True when *instance* is a voter inserted by the TMR engine."""
    return VOTER_PROPERTY in instance.properties


def voter_instances(definition: Definition) -> List[Instance]:
    """All voter instances in a definition (non-recursive)."""
    return [inst for inst in definition.instances.values() if is_voter(inst)]


def build_voted_register(netlist: Netlist, width: int,
                         name: Optional[str] = None,
                         cell_library: Optional[Library] = None) -> Definition:
    """Build the paper's Figure 2 macro: a TMR register with voters.

    The macro holds, per bit, three flip-flops (one per domain, each on its
    own clock) whose outputs are voted by three majority voters; each
    domain's downstream logic reads its own voter output, so a flip-flop
    upset is out-voted immediately and the register "refreshes" to the
    correct value at the next clock edge.

    Ports::

        D_tr0/D_tr1/D_tr2[width]  - per-domain data inputs
        C_tr0/C_tr1/C_tr2         - per-domain clocks
        Q_tr0/Q_tr1/Q_tr2[width]  - per-domain voted outputs

    The TMR engine inserts this structure inline (nets and LUTs at the top
    level); this standalone macro exists for documentation, the Figure 2
    benchmark and direct use in hand-built designs.
    """
    if width < 1:
        raise NetlistError("voted register width must be >= 1")
    module_name = name if name is not None else f"tmr_voted_reg{width}"
    existing = netlist.find_definition(module_name)
    if existing is not None:
        return existing
    cells = cell_library if cell_library is not None else shared_cell_library()
    builder = NetlistBuilder.new_module(netlist, module_name, "tmr_macros",
                                        cells)

    clocks = [builder.input(f"C_tr{domain}", 1)[0] for domain in range(3)]
    data = [builder.input(f"D_tr{domain}", width) for domain in range(3)]
    outputs = [builder.output(f"Q_tr{domain}", width) for domain in range(3)]

    for bit in range(width):
        raw_q: List[Net] = []
        for domain in range(3):
            q_net = builder.wire(f"q_raw_tr{domain}[{bit}]")
            flip_flop = builder.instantiate(
                "FD", f"ff_tr{domain}_{bit}", C=clocks[domain],
                D=data[domain][bit], Q=q_net)
            flip_flop.properties[DOMAIN_PROPERTY] = domain
            raw_q.append(q_net)
        for domain in range(3):
            insert_majority_voter(
                builder.definition, raw_q, outputs[domain][bit],
                cell_library=cells, name=f"voter_tr{domain}_{bit}",
                domain=domain, voted_net=f"Q[{bit}]", role="register-voter")
    return builder.finish()
