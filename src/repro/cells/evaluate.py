"""Behavioural evaluation of primitive cells for the logic simulator.

The simulator calls :func:`combinational_output` for LUTs, buffers and
constants, and :func:`sequential_next_state` for flip-flops at the clock
edge.  All functions operate on three-valued logic from
:mod:`repro.cells.logic`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..netlist.ir import Instance
from . import logic
from .library import FF_CELLS, LUT_CELLS, lut_input_count

#: Default INIT used if a LUT instance is missing one (a buffer of I0).
DEFAULT_LUT_INIT = 2  # O = I0 for a LUT1; harmless for larger LUTs


def lut_init_of(instance: Instance) -> int:
    """Return the INIT property of a LUT instance (0 if unset)."""
    init = instance.properties.get("INIT", 0)
    if isinstance(init, str):
        init = int(init, 0)
    return int(init)


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
