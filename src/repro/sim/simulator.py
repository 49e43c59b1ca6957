"""Three-valued levelized cycle simulator.

The simulator evaluates a :class:`~repro.sim.compile.CompiledDesign` cycle by
cycle: primary inputs are applied, the combinational gates are evaluated in
topological order (optionally several settle passes when a fault overlay
introduces shorts), primary outputs are sampled, and flip-flops update at the
end of the cycle — matching the paper's fault-injection setup where the DUT
and the golden device are compared "every clock cycle".

Two execution modes exist:

* **full** — every gate is evaluated; used for golden (fault-free) runs,
  which also record every net value per cycle;
* **cone** — given a recorded golden trace and the fault's fan-out cone, only
  gates and flip-flops inside the cone are re-evaluated; everything outside
  provably keeps its golden value.  This is what makes software bitstream
  fault-injection campaigns tractable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..cells import logic
from .compile import KIND_BUF, KIND_CONST0, KIND_LUT, CompiledDesign, FaultCone
from .overlay import FaultOverlay


@dataclasses.dataclass
class SimulationTrace:
    """Result of a simulation run."""

    #: per cycle: {port name: list of bit values, LSB first}
    outputs: List[Dict[str, List[int]]]
    #: per cycle: full net value arrays (only recorded when requested)
    net_values: Optional[List[List[int]]] = None
    #: per cycle: flip-flop state *entering* the cycle
    ff_states: Optional[List[List[int]]] = None
    #: memoized ports provably free of X on every cycle (traces are
    #: immutable once a run returns, so one scan serves every consumer)
    _all_known_ports: Optional[frozenset] = dataclasses.field(
        default=None, repr=False, compare=False)

    def all_known_ports(self) -> frozenset:
        """Ports whose outputs are 0/1 on every recorded cycle.

        Golden traces are compared against thousands of faulty traces per
        campaign; scanning for X once here lets the comparison and the
        integer conversion skip the per-cycle per-bit re-scan entirely.
        """
        if self._all_known_ports is None:
            unknown_ports = set()
            unknown = logic.UNKNOWN
            for cycle in self.outputs:
                for port, bits in cycle.items():
                    if port not in unknown_ports and unknown in bits:
                        unknown_ports.add(port)
            ports = self.outputs[0].keys() if self.outputs else ()
            self._all_known_ports = frozenset(
                port for port in ports if port not in unknown_ports)
        return self._all_known_ports

    def output_ints(self, port: str, signed: bool = True) -> List[Optional[int]]:
        """Outputs of *port* per cycle as integers (None when any bit is X)."""
        result: List[Optional[int]] = []
        scan_for_unknown = port not in self.all_known_ports()
        for cycle in self.outputs:
            bits = cycle[port]
            if scan_for_unknown and any(b == logic.UNKNOWN for b in bits):
                result.append(None)
                continue
            value = logic.bits_to_int(bits)
            if signed and bits and bits[-1] == logic.ONE:
                value -= 1 << len(bits)
            result.append(value)
        return result


class Simulator:
    """Executes a compiled design, optionally under a fault overlay.

    Building the per-gate evaluation program is O(gates); fault-injection
    campaigns construct one simulator per fault, so they pass
    *base_program* — the program of an overlay-free simulator on the same
    design — and only the entries touched by this overlay's LUT-INIT and
    gate-pin overrides are rebuilt (O(overlay) instead of O(gates)).
    """

    def __init__(self, design: CompiledDesign,
                 overlay: Optional[FaultOverlay] = None,
                 base_program=None) -> None:
        self.design = design
        self.overlay = overlay if overlay is not None else FaultOverlay()
        if base_program is not None:
            self._gate_program = self._patch_program(base_program)
        else:
            self._gate_program = self._build_program()
        self._passes = self.overlay.required_passes()

    @property
    def program(self):
        """The resolved per-gate evaluation program (shareable, read-only)."""
        return self._gate_program

    # ------------------------------------------------------------------
    def _patch_program(self, base_program):
        """Rebuild only the program entries this overlay touches."""
        overlay = self.overlay
        touched = set(overlay.lut_init_overrides)
        touched.update(index for index, _pos in overlay.gate_pin_overrides)
        if not touched:
            return base_program
        program = list(base_program)
        for index in touched:
            gate = self.design.gates[index]
            init = overlay.lut_init_overrides.get(index, gate.init)
            pins = tuple(
                (net, overlay.gate_pin_overrides.get((index, position)))
                for position, net in enumerate(gate.input_nets))
            program[index] = (gate.kind, init, pins, gate.output_net,
                              gate.index)
        return program

    def _build_program(self):
        """Pre-resolve per-gate evaluation records with overlay applied."""
        program = []
        overlay = self.overlay
        for gate in self.design.gates:
            init = overlay.lut_init_overrides.get(gate.index, gate.init)
            pins = []
            for position, net in enumerate(gate.input_nets):
                override = overlay.gate_pin_overrides.get(
                    (gate.index, position))
                pins.append((net, override))
            program.append((gate.kind, init, tuple(pins), gate.output_net,
                            gate.index))
        return program

    # ------------------------------------------------------------------
    def run(self, stimulus: Sequence[Dict[str, int]],
            record_nets: bool = False,
            golden: Optional[SimulationTrace] = None,
            cone: Optional[FaultCone] = None) -> SimulationTrace:
        """Simulate one cycle per stimulus entry.

        Each stimulus entry maps input port names to integer values (two's
        complement for signed buses).  When *golden* and *cone* are provided
        the simulator only re-evaluates the cone (fault mode).
        """
        design = self.design
        overlay = self.overlay
        num_nets = design.num_nets
        values = [logic.UNKNOWN] * num_nets

        cone_mode = golden is not None and cone is not None
        if cone_mode and (golden.net_values is None or
                          golden.ff_states is None):
            raise ValueError("cone simulation requires a golden trace "
                             "recorded with record_nets=True")

        if cone_mode:
            active_gates = cone.gate_set
            program = [entry for entry in self._gate_program
                       if entry[4] in active_gates]
            active_ffs = [design.flip_flops[i] for i in cone.ff_indices]
        else:
            program = self._gate_program
            active_ffs = design.flip_flops

        # Flip-flop state entering the first cycle.
        ff_state: Dict[int, int] = {}
        for flip_flop in design.flip_flops:
            init = overlay.ff_init_overrides.get(flip_flop.index,
                                                 flip_flop.init_value)
            ff_state[flip_flop.index] = logic.ONE if init else logic.ZERO

        net_override_items = list(overlay.net_overrides.items())
        outputs: List[Dict[str, List[int]]] = []
        recorded_nets: List[List[int]] = [] if record_nets else None
        recorded_ffs: List[List[int]] = [] if record_nets else None

        net_overrides = overlay.net_overrides
        for cycle, input_values in enumerate(stimulus):
            if cone_mode:
                values = list(golden.net_values[cycle])
            self._apply_inputs(values, input_values)
            # Present flip-flop state on Q nets.
            for flip_flop in active_ffs:
                if flip_flop.q_net >= 0:
                    values[flip_flop.q_net] = ff_state[flip_flop.index]
            if record_nets:
                recorded_ffs.append([ff_state[f.index]
                                     for f in design.flip_flops])
            for net, override in net_override_items:
                values[net] = override.resolve(values)

            for _ in range(self._passes):
                self._evaluate_pass(program, values, overlay, net_overrides)
                for net, override in net_override_items:
                    values[net] = override.resolve(values)

            outputs.append(self._sample_outputs(values))
            if record_nets:
                recorded_nets.append(list(values))

            # Clock edge: compute next states, then publish them.
            next_state: Dict[int, int] = {}
            for flip_flop in active_ffs:
                next_state[flip_flop.index] = self._ff_next(
                    flip_flop, values, ff_state[flip_flop.index], overlay)
            ff_state.update(next_state)

        return SimulationTrace(outputs, recorded_nets, recorded_ffs)

    # ------------------------------------------------------------------
    def _apply_inputs(self, values: List[int],
                      input_values: Dict[str, int]) -> None:
        for port_name, binding in self.design.inputs.items():
            if port_name not in input_values:
                continue
            value = input_values[port_name]
            if isinstance(value, (list, tuple)):
                bits = list(value)
            else:
                bits = logic.int_to_bits(int(value), binding.width)
            for position, net in enumerate(binding.net_indices):
                if net >= 0:
                    values[net] = bits[position]

    def _sample_outputs(self, values: List[int]) -> Dict[str, List[int]]:
        sampled: Dict[str, List[int]] = {}
        overrides = self.overlay.output_pin_overrides
        for port_name, binding in self.design.outputs.items():
            bits = []
            for position, net in enumerate(binding.net_indices):
                override = overrides.get((port_name, position)) \
                    if overrides else None
                if override is not None:
                    bits.append(override.resolve(values))
                else:
                    bits.append(values[net] if net >= 0 else logic.UNKNOWN)
            sampled[port_name] = bits
        return sampled

    @staticmethod
    def _evaluate_pass(program, values: List[int], overlay: FaultOverlay,
                       net_overrides=None) -> None:
        lut_eval = logic.lut_eval
        unknown = logic.UNKNOWN
        overrides = net_overrides if net_overrides else None
        for kind, init, pins, out_net, _gate_index in program:
            if out_net < 0:
                continue
            if kind == KIND_LUT:
                address = 0
                has_unknown = False
                input_values = []
                for position, (net, override) in enumerate(pins):
                    if override is not None:
                        value = override.resolve(values)
                    elif net >= 0:
                        value = values[net]
                    else:
                        value = unknown
                    input_values.append(value)
                    if value == unknown:
                        has_unknown = True
                    else:
                        address |= value << position
                if has_unknown:
                    values[out_net] = lut_eval(init, input_values, len(pins))
                else:
                    values[out_net] = (init >> address) & 1
            elif kind == KIND_BUF:
                net, override = pins[0]
                if override is not None:
                    values[out_net] = override.resolve(values)
                else:
                    values[out_net] = values[net] if net >= 0 else unknown
            elif kind == KIND_CONST0:
                values[out_net] = logic.ZERO
            else:  # KIND_CONST1
                values[out_net] = logic.ONE
            if overrides is not None:
                # A shorted / corrupted net takes its overridden value the
                # moment its driver writes it, so downstream gates evaluated
                # later in the same pass observe the fault.
                net_override = overrides.get(out_net)
                if net_override is not None:
                    values[out_net] = net_override.resolve(values)

    @staticmethod
    def _ff_next(flip_flop, values: List[int], current: int,
                 overlay: FaultOverlay) -> int:
        def read(port: str, net: int, default: int) -> int:
            override = overlay.ff_pin_overrides.get((flip_flop.index, port))
            if override is not None:
                return override.resolve(values)
            if net < 0:
                return default
            return values[net]

        data = read("D", flip_flop.d_net, logic.UNKNOWN)
        enable = read("CE", flip_flop.ce_net, logic.ONE)
        reset = read("R", flip_flop.reset_net, logic.ZERO)

        if reset == logic.ONE:
            return logic.ZERO
        if reset == logic.UNKNOWN:
            return logic.UNKNOWN
        if flip_flop.ce_net >= 0 or (flip_flop.index, "CE") in \
                overlay.ff_pin_overrides:
            return logic.mux(enable, current, data)
        return data
