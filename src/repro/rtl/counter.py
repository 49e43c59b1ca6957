"""State-machine-logic components: counters and accumulators.

The paper (Section 2) distinguishes *Throughput Logic* (the FIR filter) from
*State-machine Logic*, "any structure where a registered output ... is fed
back into any prior stage", for which voters in the feedback path are
mandatory so the system can recover by itself.  These generators provide the
state-machine examples used by the documentation and the extra experiments.
"""

from __future__ import annotations

from typing import Optional

from ..cells.library import shared_cell_library
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Definition, Library, Netlist, NetlistError
from ..techmap.gates import GateBuilder
from .arith import ripple_carry_adder


def up_counter(netlist: Netlist, width: int, name: Optional[str] = None,
               with_enable: bool = True,
               cell_library: Optional[Library] = None) -> Definition:
    """Build a wrap-around up counter with synchronous reset.

    Ports: ``C``, ``R`` (synchronous reset), optional ``CE``, output
    ``Q[width]``.  The increment is a half-adder chain; the register feedback
    loop makes this the canonical state-machine-logic example.
    """
    if width < 1:
        raise NetlistError("counter width must be >= 1")
    module_name = name if name is not None else f"counter{width}"
    existing = netlist.find_definition(module_name)
    if existing is not None:
        return existing
    cells = cell_library if cell_library is not None else shared_cell_library()
    builder = NetlistBuilder.new_module(netlist, module_name, "work", cells)
    gates = GateBuilder(builder)

    clock = builder.input("C", 1)[0]
    reset = builder.input("R", 1)[0]
    enable = builder.input("CE", 1)[0] if with_enable else None
    q = builder.output("Q", width)

    # next = q + 1 (half-adder chain)
    carry = builder.power()
    next_bits = []
    for bit in range(width):
        if bit < width - 1:
            total, carry = gates.half_adder(q[bit], carry)
        else:
            total = gates.xor2(q[bit], carry)
        next_bits.append(total)

    for bit in range(width):
        connections = {"C": clock, "D": next_bits[bit], "R": reset,
                       "Q": q[bit]}
        if with_enable:
            builder.instantiate("FDRE", f"ff_{bit}", CE=enable, **connections)
        else:
            builder.instantiate("FDR", f"ff_{bit}", **connections)
    return builder.finish()


def accumulator(netlist: Netlist, data_width: int, acc_width: int,
                name: Optional[str] = None,
                cell_library: Optional[Library] = None) -> Definition:
    """Build an accumulator ``acc <= acc + DIN`` with synchronous reset.

    Ports: ``C``, ``R``, ``DIN[data_width]``, ``Q[acc_width]``.  The adder is
    instantiated as a separate component so TMR partitioning can place a
    voter between the adder and the state register.
    """
    if acc_width < data_width:
        raise NetlistError("accumulator width must be >= data width")
    module_name = name if name is not None else f"acc{data_width}_{acc_width}"
    existing = netlist.find_definition(module_name)
    if existing is not None:
        return existing
    cells = cell_library if cell_library is not None else shared_cell_library()
    builder = NetlistBuilder.new_module(netlist, module_name, "work", cells)

    clock = builder.input("C", 1)[0]
    reset = builder.input("R", 1)[0]
    din = builder.input("DIN", data_width)
    q = builder.output("Q", acc_width)

    # Sign-extend DIN to the accumulator width (pure wiring).
    extended = list(din) + [din[data_width - 1]] * (acc_width - data_width)

    adder_def = ripple_carry_adder(netlist, acc_width, cell_library=cells)
    total = builder.bus("sum", acc_width)
    adder = builder.submodule(adder_def, "acc_adder", A=list(q), B=extended,
                              S=total)
    adder.properties["component"] = "adder"

    for bit in range(acc_width):
        builder.instantiate("FDR", f"ff_{bit}", C=clock, R=reset,
                            D=total[bit], Q=q[bit])
    return builder.finish()
