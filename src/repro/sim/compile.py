"""Compilation of a flat primitive netlist into a levelized simulation program.

The compiled form indexes every net with an integer slot and turns every
combinational primitive into a compact gate record evaluated in topological
order; flip-flops are collected into a separate table updated at the clock
edge.  Both the reference simulator and the fault-injection campaigns share
this structure: faults are expressed as overlays that patch gate INITs, pin
sources or flip-flop behaviour without recompiling.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..cells.lut import lut_init_of
from ..cells.library import FF_CELLS, LUT_CELLS, lut_input_count
from ..netlist.ir import Definition, Direction, Instance, InstancePin, \
    NetlistError
from ..netlist.traversal import topological_levels

#: Gate kind codes used by the evaluator.
KIND_LUT = 0
KIND_BUF = 1      # IBUF / OBUF / BUFG: output follows input
KIND_CONST0 = 2   # GND
KIND_CONST1 = 3   # VCC


@dataclasses.dataclass
class Gate:
    """One combinational primitive in evaluation order."""

    index: int
    name: str
    kind: int
    init: int
    num_inputs: int
    input_nets: Tuple[int, ...]
    output_net: int
    instance: Instance
    level: int


@dataclasses.dataclass
class FlipFlop:
    """One state element."""

    index: int
    name: str
    cell: str
    d_net: int
    q_net: int
    ce_net: int        # -1 when absent (always enabled)
    reset_net: int     # -1 when absent
    reset_is_async: bool
    init_value: int
    instance: Instance


@dataclasses.dataclass
class PortBinding:
    """Mapping of a top-level port to its net slots (LSB first)."""

    name: str
    direction: Direction
    net_indices: Tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.net_indices)


class CompiledDesign:
    """Levelized, index-based view of a flat primitive netlist."""

    def __init__(self, definition: Definition) -> None:
        self.definition = definition
        self.net_index: Dict[str, int] = {}
        self.net_names: List[str] = []
        self.gates: List[Gate] = []
        self.flip_flops: List[FlipFlop] = []
        self.inputs: Dict[str, PortBinding] = {}
        self.outputs: Dict[str, PortBinding] = {}
        self.clock_nets: List[int] = []
        self.gate_index_by_name: Dict[str, int] = {}
        self.ff_index_by_name: Dict[str, int] = {}
        #: lazily built fan-out adjacency (net -> sink gates / flip-flops and
        #: net -> driving gates / flip-flops), shared by every fault-cone
        #: computation on this design
        self._fanout_maps: Optional[Tuple[Dict[int, List[int]],
                                          Dict[int, List[int]],
                                          Dict[int, List[int]],
                                          Dict[int, List[int]]]] = None
        self._build()

    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def net_id(self, name: str) -> int:
        return self.net_index[name]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        definition = self.definition
        for inst in definition.instances.values():
            if not inst.is_primitive:
                raise NetlistError(
                    f"simulation requires a flat netlist; {inst.name!r} "
                    f"instantiates non-primitive {inst.reference.name!r}")

        for net in definition.nets.values():
            self.net_index[net.name] = len(self.net_names)
            self.net_names.append(net.name)

        clock_net_names = self._identify_clock_nets()
        self.clock_nets = [self.net_index[n] for n in clock_net_names]

        for port in definition.ports.values():
            indices = []
            for bit in port.bits():
                pin = definition.top_pin(port.name, bit)
                if pin.net is None:
                    indices.append(-1)
                else:
                    indices.append(self.net_index[pin.net.name])
            binding = PortBinding(port.name, port.direction, tuple(indices))
            if port.direction is Direction.INPUT:
                self.inputs[port.name] = binding
            else:
                self.outputs[port.name] = binding

        levels = topological_levels(definition)
        level_number = 0
        for level in levels:
            emitted_any = False
            for inst in level:
                cell = inst.reference.name
                if cell in FF_CELLS:
                    self._add_flip_flop(inst)
                    continue
                self._add_gate(inst, level_number)
                emitted_any = True
            if emitted_any:
                level_number += 1

    def _identify_clock_nets(self) -> List[str]:
        """Nets that only feed flip-flop clock pins (and BUFG inputs)."""
        clock_nets = []
        for net in self.definition.nets.values():
            sinks = net.sinks()
            if not sinks:
                continue
            is_clock = True
            for pin in sinks:
                if not isinstance(pin, InstancePin):
                    is_clock = False
                    break
                cell = pin.instance.reference.name
                if cell in FF_CELLS and pin.port_name == "C":
                    continue
                if cell == "BUFG" and pin.port_name == "I":
                    continue
                is_clock = False
                break
            if is_clock:
                clock_nets.append(net.name)
        return clock_nets

    def _net_slot(self, instance: Instance, port: str, default: int = -1) -> int:
        net = instance.net_of(port)
        if net is None:
            return default
        return self.net_index[net.name]

    def _add_gate(self, instance: Instance, level: int) -> None:
        cell = instance.reference.name
        if cell in LUT_CELLS:
            count = lut_input_count(cell)
            inputs = tuple(self._net_slot(instance, f"I{i}")
                           for i in range(count))
            gate = Gate(len(self.gates), instance.name, KIND_LUT,
                        lut_init_of(instance), count, inputs,
                        self._net_slot(instance, "O"), instance, level)
        elif cell in ("IBUF", "OBUF", "BUFG"):
            gate = Gate(len(self.gates), instance.name, KIND_BUF, 0, 1,
                        (self._net_slot(instance, "I"),),
                        self._net_slot(instance, "O"), instance, level)
        elif cell == "GND":
            gate = Gate(len(self.gates), instance.name, KIND_CONST0, 0, 0, (),
                        self._net_slot(instance, "G"), instance, level)
        elif cell == "VCC":
            gate = Gate(len(self.gates), instance.name, KIND_CONST1, 0, 0, (),
                        self._net_slot(instance, "P"), instance, level)
        else:
            raise NetlistError(f"cannot compile cell type {cell!r}")
        self.gates.append(gate)
        self.gate_index_by_name[instance.name] = gate.index

    def _add_flip_flop(self, instance: Instance) -> None:
        cell = instance.reference.name
        init = instance.properties.get("FF_INIT", 0)
        if isinstance(init, str):
            init = int(init, 0)
        flip_flop = FlipFlop(
            index=len(self.flip_flops),
            name=instance.name,
            cell=cell,
            d_net=self._net_slot(instance, "D"),
            q_net=self._net_slot(instance, "Q"),
            ce_net=self._net_slot(instance, "CE") if "CE" in
            instance.reference.ports else -1,
            reset_net=self._net_slot(instance, "R") if "R" in
            instance.reference.ports else
            (self._net_slot(instance, "CLR") if "CLR" in
             instance.reference.ports else -1),
            reset_is_async=cell == "FDCE",
            init_value=int(init) & 1,
            instance=instance,
        )
        self.flip_flops.append(flip_flop)
        self.ff_index_by_name[instance.name] = flip_flop.index

    # ------------------------------------------------------------------
    def _fanout(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]],
                               Dict[int, List[int]], Dict[int, List[int]]]:
        """Net fan-out / driver adjacency, built once per compiled design."""
        if self._fanout_maps is None:
            sink_gates: Dict[int, List[int]] = {}
            driver_gates: Dict[int, List[int]] = {}
            for gate in self.gates:
                for net in gate.input_nets:
                    sink_gates.setdefault(net, []).append(gate.index)
                if gate.output_net >= 0:
                    driver_gates.setdefault(gate.output_net,
                                            []).append(gate.index)
            ff_sinks: Dict[int, List[int]] = {}
            driver_ffs: Dict[int, List[int]] = {}
            for flip_flop in self.flip_flops:
                for net in (flip_flop.d_net, flip_flop.ce_net,
                            flip_flop.reset_net):
                    if net >= 0:
                        ff_sinks.setdefault(net, []).append(flip_flop.index)
                if flip_flop.q_net >= 0:
                    driver_ffs.setdefault(flip_flop.q_net,
                                          []).append(flip_flop.index)
            self._fanout_maps = (sink_gates, ff_sinks, driver_gates,
                                 driver_ffs)
        return self._fanout_maps

    def fault_cone(self, net_indices: Sequence[int]) -> "FaultCone":
        """Transitive fan-out closure of a seed set of nets.

        The closure crosses flip-flop boundaries (a corrupted D corrupts Q on
        the next cycle), which makes the result safe to use as an "active
        cone" when re-simulating a fault against stored golden values: any
        gate or flip-flop outside the cone provably keeps its golden value.
        """
        sink_gates, ff_sinks, driver_gates, driver_ffs = self._fanout()

        seen_nets = set()
        seen_gates = set()
        seen_ffs = set()
        stack = [n for n in net_indices if n >= 0]

        # The drivers of the seed nets themselves must be re-evaluated: a LUT
        # whose INIT is corrupted, or a flip-flop whose initial value is
        # flipped, seeds the cone through its *output* net.
        for net in stack:
            seen_gates.update(driver_gates.get(net, ()))
            seen_ffs.update(driver_ffs.get(net, ()))
        while stack:
            net = stack.pop()
            if net in seen_nets:
                continue
            seen_nets.add(net)
            for gate_index in sink_gates.get(net, ()):
                if gate_index not in seen_gates:
                    seen_gates.add(gate_index)
                    out = self.gates[gate_index].output_net
                    if out >= 0 and out not in seen_nets:
                        stack.append(out)
            for ff_index in ff_sinks.get(net, ()):
                if ff_index not in seen_ffs:
                    seen_ffs.add(ff_index)
                    q_net = self.flip_flops[ff_index].q_net
                    if q_net >= 0 and q_net not in seen_nets:
                        stack.append(q_net)
        return FaultCone(sorted(seen_gates), sorted(seen_ffs),
                         sorted(seen_nets))


@dataclasses.dataclass
class FaultCone:
    """Gates, flip-flops and nets reachable from a fault's injection nets."""

    gate_indices: List[int]
    ff_indices: List[int]
    net_indices: List[int]

    # Cones are memoized per seed-net tuple (repro.faults.cache and the
    # campaign context), so one cone object serves many simulations; the
    # gate membership set the simulators filter programs with is memoized
    # alongside instead of being rebuilt from the sorted list per run.
    @property
    def gate_set(self) -> frozenset:
        cached = self.__dict__.get("_gate_set")
        if cached is None:
            cached = frozenset(self.gate_indices)
            self._gate_set = cached
        return cached

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_gate_set", None)
        return state
