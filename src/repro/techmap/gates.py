"""Gate-level construction helpers that emit LUT primitives directly.

The RTL generators in :mod:`repro.rtl` express arithmetic in terms of simple
gates; :class:`GateBuilder` lowers each gate onto the smallest LUT primitive
that implements it (this is the "technology mapping" step of the flow — the
optional LUT-merging optimizer in :mod:`repro.techmap.mapper` then packs
chains of small LUTs into fuller LUT4s).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..cells import lut as lut_inits
from ..cells.library import lut_cell_for_inputs
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Net, NetlistError


class GateBuilder:
    """Lowers boolean gates onto LUT primitives inside one definition."""

    def __init__(self, builder: NetlistBuilder) -> None:
        if builder.cell_library is None:
            raise NetlistError("GateBuilder requires a cell library")
        self.builder = builder
        self.definition = builder.definition
        self.cells = builder.cell_library

    # ------------------------------------------------------------------
    # Core LUT instantiation
    # ------------------------------------------------------------------
    def lut(self, init: int, inputs: Sequence[Net],
            output: Optional[Net] = None,
            name_hint: str = "lut") -> Net:
        """Instantiate a LUT with the given INIT over *inputs* (I0 first)."""
        count = len(inputs)
        if not 1 <= count <= 4:
            raise NetlistError(f"LUT must have 1..4 inputs, got {count}")
        reference = lut_cell_for_inputs(self.cells, count)
        out = output if output is not None else self.builder.wire(
            self.definition.make_unique_name(name_hint))
        instance = self.definition.add_instance(
            reference, self.definition.make_unique_name(name_hint))
        instance.properties["INIT"] = init
        for index, net in enumerate(inputs):
            instance.connect(f"I{index}", net, 0)
        instance.connect("O", out, 0)
        return out

    # ------------------------------------------------------------------
    # Named gates
    # ------------------------------------------------------------------
    def buf(self, a: Net, output: Optional[Net] = None) -> Net:
        return self.lut(lut_inits.INIT_BUF, [a], output, "buf")

    def inv(self, a: Net, output: Optional[Net] = None) -> Net:
        return self.lut(lut_inits.INIT_INV, [a], output, "inv")

    def and2(self, a: Net, b: Net, output: Optional[Net] = None) -> Net:
        return self.lut(lut_inits.INIT_AND2, [a, b], output, "and")

    def xor2(self, a: Net, b: Net, output: Optional[Net] = None) -> Net:
        return self.lut(lut_inits.INIT_XOR2, [a, b], output, "xor")

    def xor3(self, a: Net, b: Net, c: Net, output: Optional[Net] = None) -> Net:
        return self.lut(lut_inits.INIT_XOR3, [a, b, c], output, "xor3")

    def majority3(self, a: Net, b: Net, c: Net,
                  output: Optional[Net] = None) -> Net:
        """Majority-of-three — the TMR voter function in one LUT."""
        return self.lut(lut_inits.INIT_MAJ3, [a, b, c], output, "maj")

    # ------------------------------------------------------------------
    # Arithmetic bit slices
    # ------------------------------------------------------------------
    def half_adder(self, a: Net, b: Net) -> Tuple[Net, Net]:
        """Return (sum, carry)."""
        return self.xor2(a, b), self.and2(a, b)

    def full_adder(self, a: Net, b: Net, carry_in: Net) -> Tuple[Net, Net]:
        """Return (sum, carry_out) — one XOR3 LUT plus one MAJ3 LUT."""
        total = self.xor3(a, b, carry_in)
        carry = self.majority3(a, b, carry_in)
        return total, carry

    # ------------------------------------------------------------------
    # Word helpers
    # ------------------------------------------------------------------
    def constant(self, value: int) -> Net:
        return self.builder.power() if value else self.builder.ground()
