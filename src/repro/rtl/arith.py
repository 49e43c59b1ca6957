"""Structural arithmetic generators: adders and constant multipliers.

Every generator returns a self-contained :class:`Definition` so that the FIR
case study is assembled from *components* — exactly the granularity at which
the paper discusses TMR voter insertion ("each combinational logic component,
such as an adder or a multiplier").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cells.library import shared_cell_library
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Definition, Library, Net, Netlist, NetlistError
from ..techmap.gates import GateBuilder


def _builder(netlist: Netlist, name: str, library_name: str = "components",
             cell_library: Optional[Library] = None) -> NetlistBuilder:
    cells = cell_library if cell_library is not None else shared_cell_library()
    return NetlistBuilder.new_module(netlist, name, library_name, cells)


def ripple_carry_adder(netlist: Netlist, width: int,
                       name: Optional[str] = None,
                       with_carry_out: bool = False,
                       cell_library: Optional[Library] = None) -> Definition:
    """Build a *width*-bit ripple-carry adder component ``S = A + B``.

    Ports: ``A[width]``, ``B[width]``, ``S[width]`` and optionally ``CO``.
    Overflow wraps (two's-complement addition), matching the filter's use of
    fixed 18-bit accumulation.
    """
    if width < 1:
        raise NetlistError("adder width must be >= 1")
    module_name = name if name is not None else f"adder{width}"
    existing = netlist.find_definition(module_name)
    if existing is not None:
        return existing
    builder = _builder(netlist, module_name, cell_library=cell_library)
    gates = GateBuilder(builder)

    a = builder.input("A", width)
    b = builder.input("B", width)
    s = builder.output("S", width)
    carry = builder.ground()
    for bit in range(width):
        if bit < width - 1 or with_carry_out:
            total, carry_out = gates.full_adder(a[bit], b[bit], carry)
        else:
            total = gates.xor3(a[bit], b[bit], carry)
            carry_out = carry
        gates.buf(total, s[bit])
        carry = carry_out
    if with_carry_out:
        co = builder.output("CO", 1)
        gates.buf(carry, co[0])
    return builder.finish()


def _shifted_addend(gates: GateBuilder, builder: NetlistBuilder,
                    source: Sequence[Net], shift: int, out_width: int,
                    ) -> List[Net]:
    """Sign-extend *source* and shift it left by *shift*, as pure wiring."""
    in_width = len(source)
    sign = source[in_width - 1]
    addend: List[Net] = []
    for bit in range(out_width):
        position = bit - shift
        if position < 0:
            addend.append(builder.ground())
        elif position < in_width:
            addend.append(source[position])
        else:
            addend.append(sign)
    return addend


def constant_multiplier(netlist: Netlist, coefficient: int, in_width: int,
                        out_width: int, name: Optional[str] = None,
                        cell_library: Optional[Library] = None) -> Definition:
    """Build a signed constant multiplier ``P = coefficient * A``.

    *A* is a two's-complement ``in_width``-bit input; *P* is a
    two's-complement ``out_width``-bit output.  The multiplier is realised as
    a shift-and-add network over the set bits of ``|coefficient|`` followed by
    an optional negation stage, which is how constant-coefficient multipliers
    are implemented in LUT fabric without dedicated multiplier blocks.
    """
    sign = "m" if coefficient < 0 else ""
    module_name = name if name is not None else \
        f"mult_{sign}{abs(coefficient)}_{in_width}x{out_width}"
    existing = netlist.find_definition(module_name)
    if existing is not None:
        return existing
    builder = _builder(netlist, module_name, cell_library=cell_library)
    gates = GateBuilder(builder)

    a = builder.input("A", in_width)
    p = builder.output("P", out_width)
    magnitude = abs(coefficient)

    if magnitude == 0:
        zero = builder.ground()
        for bit in range(out_width):
            gates.buf(zero, p[bit])
        return builder.finish()

    shifts = [position for position in range(magnitude.bit_length())
              if (magnitude >> position) & 1]
    partial = _shifted_addend(gates, builder, a, shifts[0], out_width)
    for shift in shifts[1:]:
        addend = _shifted_addend(gates, builder, a, shift, out_width)
        partial = _add_words(gates, partial, addend)

    if coefficient < 0:
        partial = _negate_word(gates, builder, partial)

    for bit in range(out_width):
        gates.buf(partial[bit], p[bit])
    return builder.finish()


def _add_words(gates: GateBuilder, a: Sequence[Net], b: Sequence[Net],
               ) -> List[Net]:
    """Ripple-add two equal-width words inside the current definition."""
    if len(a) != len(b):
        raise NetlistError("word widths differ in _add_words")
    width = len(a)
    result: List[Net] = []
    carry = gates.builder.ground()
    for bit in range(width):
        if bit < width - 1:
            total, carry = gates.full_adder(a[bit], b[bit], carry)
        else:
            total = gates.xor3(a[bit], b[bit], carry)
        result.append(total)
    return result


def _negate_word(gates: GateBuilder, builder: NetlistBuilder,
                 word: Sequence[Net]) -> List[Net]:
    """Two's-complement negation of a word inside the current definition."""
    width = len(word)
    result: List[Net] = []
    carry = builder.power()
    for bit in range(width):
        inverted = gates.inv(word[bit])
        if bit < width - 1:
            total, carry = gates.half_adder(inverted, carry)
        else:
            total = gates.xor2(inverted, carry)
        result.append(total)
    return result


def min_output_width(coefficients: Sequence[int], data_width: int) -> int:
    """Smallest signed width that holds ``sum(|c_i|) * max|A|`` without overflow.

    This reproduces the paper's sizing argument: the 11-tap filter with the
    given coefficients fits in 18-bit accumulators for 9-bit samples.
    """
    total_gain = sum(abs(c) for c in coefficients)
    if total_gain == 0:
        return data_width
    max_input_magnitude = 1 << (data_width - 1)
    max_output_magnitude = total_gain * max_input_magnitude
    width = 1
    while (1 << (width - 1)) < max_output_magnitude:
        width += 1
    return width
