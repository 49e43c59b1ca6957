"""Cell-level reference models: one primitive, one vote, one truth table.

The compiled simulator evaluates whole netlists as levelized gate programs;
these per-instance models state what each primitive means, so the tests
can check the cell library and the voter INIT against them:

* :func:`combinational_output` for LUTs, buffers and constants and
  :func:`sequential_next_state` for flip-flops at the clock edge, on the
  three-valued logic of :mod:`repro.cells.logic`;
* :func:`majority`, the TMR voter function;
* :func:`init_from_truth_table` and its inverse :func:`truth_table`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.cells import logic
from repro.cells.library import FF_CELLS, LUT_CELLS, lut_input_count
from repro.cells.lut import lut_init_of
from repro.netlist.ir import Instance


def majority(a: int, b: int, c: int) -> int:
    """Majority of three values; this is the TMR voter function.

    The vote is resolved whenever two inputs agree on a known value, even if
    the third is unknown — which is exactly why TMR masks a single corrupted
    domain.
    """
    if a == b and a != logic.UNKNOWN:
        return a
    if a == c and a != logic.UNKNOWN:
        return a
    if b == c and b != logic.UNKNOWN:
        return b
    return logic.UNKNOWN


def init_from_truth_table(rows: Sequence[int], num_inputs: int) -> int:
    """Build an INIT from an explicit truth table (entry *i* = output at *i*)."""
    if len(rows) != (1 << num_inputs):
        raise ValueError(
            f"truth table for LUT{num_inputs} needs {1 << num_inputs} rows, "
            f"got {len(rows)}")
    init = 0
    for address, value in enumerate(rows):
        if value & 1:
            init |= 1 << address
    return init


def truth_table(init: int, num_inputs: int) -> List[int]:
    """Inverse of :func:`init_from_truth_table`."""
    return [(init >> address) & 1 for address in range(1 << num_inputs)]


def combinational_output(instance: Instance,
                         inputs: Mapping[str, int]) -> Optional[int]:
    """Evaluate the single output of a combinational primitive.

    *inputs* maps port names (e.g. ``"I0"``) to logic values.  Returns the
    output value, or ``None`` if the cell is sequential (handled elsewhere).
    """
    cell = instance.reference.name
    if cell in FF_CELLS:
        return None
    if cell == "GND":
        return logic.ZERO
    if cell == "VCC":
        return logic.ONE
    if cell in ("IBUF", "OBUF", "BUFG"):
        return inputs.get("I", logic.UNKNOWN)
    if cell in LUT_CELLS:
        count = lut_input_count(cell)
        values = [inputs.get(f"I{i}", logic.UNKNOWN) for i in range(count)]
        return logic.lut_eval(lut_init_of(instance), values, count)
    raise ValueError(f"cannot evaluate unknown cell type {cell!r}")


def sequential_next_state(instance: Instance, inputs: Mapping[str, int],
                          current_state: int) -> int:
    """Compute the next Q of a flip-flop at an active clock edge.

    The clock itself is handled by the simulator (it decides when an edge
    happened); this function applies clock-enable and reset semantics.
    """
    cell = instance.reference.name
    if cell not in FF_CELLS:
        raise ValueError(f"{cell!r} is not a flip-flop")

    data = inputs.get("D", logic.UNKNOWN)
    enable = inputs.get("CE", logic.ONE)
    if cell == "FD":
        return data
    if cell == "FDR":
        reset = inputs.get("R", logic.ZERO)
        if reset == logic.ONE:
            return logic.ZERO
        if reset == logic.UNKNOWN:
            return logic.UNKNOWN
        return data
    if cell == "FDRE":
        reset = inputs.get("R", logic.ZERO)
        if reset == logic.ONE:
            return logic.ZERO
        if reset == logic.UNKNOWN:
            return logic.UNKNOWN
        return logic.mux(enable, current_state, data)
    if cell == "FDCE":
        # Asynchronous clear is applied by the simulator whenever CLR is
        # high; at the clock edge it simply wins over the data.
        clear = inputs.get("CLR", logic.ZERO)
        if clear == logic.ONE:
            return logic.ZERO
        if clear == logic.UNKNOWN:
            return logic.UNKNOWN
        return logic.mux(enable, current_state, data)
    raise AssertionError(f"unhandled flip-flop {cell}")
