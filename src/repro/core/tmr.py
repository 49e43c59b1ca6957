"""Triple Modular Redundancy insertion with configurable voter partitioning.

This module implements the paper's design-space knob: given a component-level
design, :func:`apply_tmr` produces a new netlist in which

* every component instance is triplicated into domains ``tr0``/``tr1``/``tr2``
  (Figure 1);
* every input port is triplicated so no external pin is a single point of
  failure;
* register stages are (optionally) turned into *TMR registers with voters and
  refresh* (Figure 2);
* the outputs of the components selected by the partition strategy receive
  triplicated majority-voter barriers (Figure 3);
* the outermost outputs are voted down to single signals (Figure 1's "TMR
  output majority voter").

The five filter versions evaluated in the paper are different instantiations
of :class:`TMRConfig` over the same FIR netlist (see
``repro.experiments.designs``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..cells.library import Library, shared_cell_library
from ..netlist.ir import (Definition, Direction, Instance, InstancePin, Net, Netlist, NetlistError)
from .partition import (NoPartition, PartitionStrategy, is_register_component,
                        register_components)
from .voters import DOMAIN_PROPERTY, insert_majority_voter

#: Number of redundant domains in triple modular redundancy.
NUM_DOMAINS = 3
#: Suffix applied to per-domain object names, e.g. ``mult_3_tr1``.
DOMAIN_SUFFIXES = tuple(f"_tr{d}" for d in range(NUM_DOMAINS))


@dataclasses.dataclass
class TMRConfig:
    """Configuration of one TMR instantiation."""

    #: which component outputs receive intermediate voter barriers
    partition: PartitionStrategy = dataclasses.field(default_factory=NoPartition)
    #: turn register stages into voted registers with refresh (Figure 2)
    vote_registers: bool = True
    #: keep three output ports instead of voting down to one signal
    triplicate_outputs: bool = False
    #: suffix of the generated definition name
    name_suffix: str = "_tmr"

    def describe(self) -> str:
        parts = [f"partition={self.partition.describe()}"]
        parts.append("voted-regs" if self.vote_registers else "unvoted-regs")
        if self.triplicate_outputs:
            parts.append("triplicated-outputs")
        return ", ".join(parts)


@dataclasses.dataclass
class TMRResult:
    """Outcome of a TMR transformation."""

    definition: Definition
    config: TMRConfig
    source: Definition
    #: names of original nets that received intermediate voter barriers
    voted_nets: List[str]
    #: number of voter LUT instances inserted (all roles)
    voter_count: int
    #: voter count by role: barrier / register / output
    voters_by_role: Dict[str, int]
    #: number of logic partitions (voted blocks) per domain, including the
    #: final output block
    partition_count: int
    #: per-domain copies of each original input port: port -> [tr0, tr1, tr2]
    input_port_map: Dict[str, List[str]]
    #: output port map (original -> generated)
    output_port_map: Dict[str, List[str]]

    def summary(self) -> str:
        return (f"{self.definition.name}: {self.config.describe()}; "
                f"{self.voter_count} voters, "
                f"{len(self.voted_nets)} voted nets, "
                f"{self.partition_count} partitions")


def apply_tmr(netlist: Netlist, top: Definition, config: Optional[TMRConfig]
              = None, cell_library: Optional[Library] = None,
              name: Optional[str] = None) -> TMRResult:
    """Triplicate *top* and insert voters according to *config*."""
    config = config if config is not None else TMRConfig()
    cells = cell_library if cell_library is not None else shared_cell_library()
    if top.is_primitive:
        raise NetlistError("cannot apply TMR to a primitive definition")

    tmr_name = name if name is not None else f"{top.name}{config.name_suffix}"
    library = netlist.get_library("tmr")
    if tmr_name in library:
        raise NetlistError(f"library 'tmr' already contains {tmr_name!r}")
    tmr = library.add_definition(tmr_name)
    tmr.properties["tmr_source"] = top.name
    tmr.properties["tmr_config"] = config

    voted_instances = set(config.partition.select(top))
    if config.vote_registers:
        voted_instances |= {inst.name for inst in register_components(top)}

    # ------------------------------------------------------------------
    # 1. Ports and per-domain nets
    # ------------------------------------------------------------------
    domain_nets: Dict[str, List[Net]] = {}
    for net in top.nets.values():
        copies = []
        for domain in range(NUM_DOMAINS):
            copy = tmr.add_net(f"{net.name}{DOMAIN_SUFFIXES[domain]}")
            copy.properties = dict(net.properties)
            copy.properties[DOMAIN_PROPERTY] = domain
            copies.append(copy)
        domain_nets[net.name] = copies

    input_port_map: Dict[str, List[str]] = {}
    output_port_map: Dict[str, List[str]] = {}
    for port in top.ports.values():
        if port.direction is Direction.INPUT:
            input_port_map[port.name] = _create_input_ports(
                tmr, top, port, domain_nets)
        # Output ports are created later, after voter barriers, because the
        # final voters must read the post-barrier nets.

    # ------------------------------------------------------------------
    # 2. Triplicate instances
    # ------------------------------------------------------------------
    for inst in top.instances.values():
        for domain in range(NUM_DOMAINS):
            copy = tmr.add_instance(inst.reference,
                                    f"{inst.name}{DOMAIN_SUFFIXES[domain]}")
            copy.properties = dict(inst.properties)
            copy.properties[DOMAIN_PROPERTY] = domain
            copy.properties["tmr_block"] = inst.name
            for pin in inst.pins():
                if pin.net is None:
                    continue
                target = domain_nets[pin.net.name][domain]
                copy.connect(pin.port_name, target, pin.index)

    # ------------------------------------------------------------------
    # 3. Voter barriers after the selected components
    # ------------------------------------------------------------------
    # sink_nets tracks, per original net and domain, the net downstream
    # sinks should read (the voted copy once a barrier is inserted).
    sink_nets: Dict[str, List[Net]] = {name: list(nets)
                                       for name, nets in domain_nets.items()}
    voted_net_names: List[str] = []
    voters_by_role: Dict[str, int] = {"barrier": 0, "register": 0, "output": 0}

    for inst_name in sorted(voted_instances):
        original = top.instances[inst_name]
        role = "register" if is_register_component(original) else "barrier"
        for net_name in _output_net_names(original):
            if net_name in voted_net_names:
                continue
            voted_net_names.append(net_name)
            raw = domain_nets[net_name]
            _insert_barrier(tmr, cells, net_name, raw, sink_nets, role,
                            block=inst_name)
            voters_by_role[role] += NUM_DOMAINS

    # ------------------------------------------------------------------
    # 4. Output ports and the final output voters
    # ------------------------------------------------------------------
    for port in top.output_ports():
        output_port_map[port.name] = _create_output_ports(
            tmr, top, port, config, cells, sink_nets, voters_by_role)

    voter_count = sum(voters_by_role.values())

    result = TMRResult(
        definition=tmr,
        config=config,
        source=top,
        voted_nets=voted_net_names,
        voter_count=voter_count,
        voters_by_role=voters_by_role,
        partition_count=len({_block_of_net(top, n) for n in voted_net_names})
        + 1,
        input_port_map=input_port_map,
        output_port_map=output_port_map,
    )
    tmr.properties["tmr_result_summary"] = result.summary()
    return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _create_input_ports(tmr: Definition, top: Definition, port,
                        domain_nets: Dict[str, List[Net]]) -> List[str]:
    """Create one copy of an input port per domain."""
    created: List[str] = []
    for domain in range(NUM_DOMAINS):
        port_name = f"{port.name}{DOMAIN_SUFFIXES[domain]}"
        tmr.add_port(port_name, Direction.INPUT, port.width)
        created.append(port_name)
        for bit in port.bits():
            pin = top.top_pin(port.name, bit)
            if pin.net is None:
                continue
            domain_nets[pin.net.name][domain].connect(
                tmr.top_pin(port_name, bit))
    return created


def _output_net_names(instance: Instance) -> List[str]:
    """Original nets driven by an instance's output ports."""
    names: List[str] = []
    for pin in instance.pins():
        if pin.is_driver and pin.net is not None:
            names.append(pin.net.name)
    return names


def _insert_barrier(tmr: Definition, cells: Library, net_name: str,
                    raw: List[Net], sink_nets: Dict[str, List[Net]],
                    role: str, block: str) -> None:
    """Insert one voter per domain for one original net."""
    # Collect the sink pins per domain before any voter input is attached.
    pending_sinks: List[List] = []
    for domain in range(NUM_DOMAINS):
        pending_sinks.append([pin for pin in raw[domain].sinks()
                              if isinstance(pin, InstancePin)])

    voted: List[Net] = []
    for domain in range(NUM_DOMAINS):
        voted_net = tmr.add_net(f"{net_name}_voted{DOMAIN_SUFFIXES[domain]}")
        voted_net.properties[DOMAIN_PROPERTY] = domain
        voted_net.properties["voted_copy_of"] = net_name
        voter = insert_majority_voter(
            tmr, raw, voted_net, cell_library=cells,
            name=tmr.make_unique_name(f"voter_{role}"),
            domain=domain, voted_net=net_name, role=role)
        # Keep the voter physically close to the component whose output
        # it votes: the packer clusters by this tag.
        voter.properties["tmr_block"] = block
        voted.append(voted_net)

    for domain in range(NUM_DOMAINS):
        for pin in pending_sinks[domain]:
            voted[domain].connect(pin)
        sink_nets[net_name][domain] = voted[domain]


def _create_output_ports(tmr: Definition, top: Definition, port,
                         config: TMRConfig, cells: Library,
                         sink_nets: Dict[str, List[Net]],
                         voters_by_role: Dict[str, int]) -> List[str]:
    """Create output ports, inserting the final output voters by default."""
    created: List[str] = []
    if config.triplicate_outputs:
        for domain in range(NUM_DOMAINS):
            port_name = f"{port.name}{DOMAIN_SUFFIXES[domain]}"
            tmr.add_port(port_name, Direction.OUTPUT, port.width)
            created.append(port_name)
            for bit in port.bits():
                pin = top.top_pin(port.name, bit)
                if pin.net is None:
                    continue
                sink_nets[pin.net.name][domain].connect(
                    tmr.top_pin(port_name, bit))
        return created

    tmr.add_port(port.name, Direction.OUTPUT, port.width)
    created.append(port.name)
    for bit in port.bits():
        pin = top.top_pin(port.name, bit)
        if pin.net is None:
            continue
        net_name = pin.net.name
        output_net = tmr.add_net(f"{net_name}_out")
        insert_majority_voter(
            tmr, [sink_nets[net_name][d] for d in range(NUM_DOMAINS)],
            output_net, cell_library=cells,
            name=tmr.make_unique_name("voter_output"),
            domain=None, voted_net=net_name, role="output")
        voters_by_role["output"] += 1
        output_net.connect(tmr.top_pin(port.name, bit))
    return created


def _block_of_net(top: Definition, net_name: str) -> str:
    """The component instance that drives an original net (for partition
    counting)."""
    net = top.nets.get(net_name)
    if net is None:
        return net_name
    for pin in net.drivers():
        if isinstance(pin, InstancePin):
            return pin.instance.name
    return net_name
