"""LUT INIT value construction helpers.

A ``LUTk`` primitive stores its truth table in an ``INIT`` integer: bit *i*
of INIT is the LUT output when the input address (I0 = LSB) equals *i*.
These helpers build INIT values from Python functions, read an instance's
INIT, and provide the canonical INITs used by the technology mapper and the
TMR voter generator.
"""

from __future__ import annotations

from typing import Callable

from ..netlist.ir import Instance


def init_from_function(function: Callable[..., int], num_inputs: int) -> int:
    """Build an INIT integer from a boolean function of *num_inputs* args."""
    if not 1 <= num_inputs <= 6:
        raise ValueError(f"unsupported LUT size: {num_inputs}")
    init = 0
    for address in range(1 << num_inputs):
        arguments = [(address >> bit) & 1 for bit in range(num_inputs)]
        if function(*arguments) & 1:
            init |= 1 << address
    return init


def lut_init_of(instance: Instance) -> int:
    """Return the INIT property of a LUT instance (0 if unset)."""
    init = instance.properties.get("INIT", 0)
    if isinstance(init, str):
        init = int(init, 0)
    return int(init)


# ----------------------------------------------------------------------
# Canonical INITs (I0 is the least-significant address bit)
# ----------------------------------------------------------------------

#: LUT1 buffer: O = I0
INIT_BUF = init_from_function(lambda a: a, 1)
#: LUT1 inverter: O = ~I0
INIT_INV = init_from_function(lambda a: 1 - a, 1)

#: LUT2 basics
INIT_AND2 = init_from_function(lambda a, b: a & b, 2)
INIT_OR2 = init_from_function(lambda a, b: a | b, 2)
INIT_XOR2 = init_from_function(lambda a, b: a ^ b, 2)
INIT_XNOR2 = init_from_function(lambda a, b: 1 - (a ^ b), 2)
INIT_NAND2 = init_from_function(lambda a, b: 1 - (a & b), 2)
INIT_NOR2 = init_from_function(lambda a, b: 1 - (a | b), 2)
INIT_ANDNOT2 = init_from_function(lambda a, b: a & (1 - b), 2)

#: LUT3: full-adder sum (a ^ b ^ cin) and carry (majority)
INIT_XOR3 = init_from_function(lambda a, b, c: a ^ b ^ c, 3)
INIT_MAJ3 = init_from_function(lambda a, b, c: (a & b) | (a & c) | (b & c), 3)
#: LUT3 2:1 mux — I2 is the select, I0 selected when S=0, I1 when S=1.
INIT_MUX2 = init_from_function(lambda a, b, s: b if s else a, 3)
INIT_AND3 = init_from_function(lambda a, b, c: a & b & c, 3)
INIT_OR3 = init_from_function(lambda a, b, c: a | b | c, 3)

#: LUT4
INIT_XOR4 = init_from_function(lambda a, b, c, d: a ^ b ^ c ^ d, 4)
INIT_AND4 = init_from_function(lambda a, b, c, d: a & b & c & d, 4)
INIT_OR4 = init_from_function(lambda a, b, c, d: a | b | c | d, 4)

#: The TMR majority voter is a 3-input majority function in a single LUT —
#: this is exactly what the paper means by "one majority voter can be
#: implemented by one LUT".
INIT_VOTER = INIT_MAJ3
