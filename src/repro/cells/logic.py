"""Three-valued (0 / 1 / X) logic used throughout simulation.

Values are plain integers: ``ZERO = 0``, ``ONE = 1`` and ``UNKNOWN = 2``.
Keeping them as small ints keeps the levelized simulator fast and lets fault
effects (floating inputs, driver conflicts) propagate pessimistically as X.
"""

from __future__ import annotations

from typing import List, Sequence

ZERO = 0
ONE = 1
UNKNOWN = 2

VALUES = (ZERO, ONE, UNKNOWN)


def not_(a: int) -> int:
    if a == UNKNOWN:
        return UNKNOWN
    return ONE - a


def and_(a: int, b: int) -> int:
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE and b == ONE:
        return ONE
    return UNKNOWN


def or_(a: int, b: int) -> int:
    if a == ONE or b == ONE:
        return ONE
    if a == ZERO and b == ZERO:
        return ZERO
    return UNKNOWN


def mux(select: int, if_zero: int, if_one: int) -> int:
    """Two-input multiplexer with X-pessimism on the select."""
    if select == ZERO:
        return if_zero
    if select == ONE:
        return if_one
    if if_zero == if_one:
        return if_zero
    return UNKNOWN


def resolve_drivers(values: Sequence[int]) -> int:
    """Resolve several drivers shorted onto one node.

    No driver yields X (floating); one driver passes through; agreeing
    drivers keep their value; disagreeing or unknown drivers yield X.  This
    models the electrical conflict created by a *Bridge*/*Conflict* routing
    upset pessimistically.
    """
    if not values:
        return UNKNOWN
    first = values[0]
    for value in values[1:]:
        if value != first:
            return UNKNOWN
    return first


def lut_eval(init: int, inputs: Sequence[int], num_inputs: int) -> int:
    """Evaluate a LUT with the given INIT bit vector.

    ``init`` is interpreted the Xilinx way: bit ``i`` of INIT is the output
    when the inputs (I0 = LSB of the address) encode ``i``.  Unknown inputs
    cause both possible addresses to be explored; if all reachable entries
    agree the output is still known.
    """
    if len(inputs) != num_inputs:
        raise ValueError(
            f"LUT{num_inputs} expects {num_inputs} inputs, got {len(inputs)}")

    unknown_positions = [i for i, v in enumerate(inputs) if v == UNKNOWN]
    if not unknown_positions:
        address = 0
        for position, value in enumerate(inputs):
            address |= (value & 1) << position
        return (init >> address) & 1

    # Enumerate the possible addresses induced by unknown inputs.  With at
    # most 4 inputs this enumerates at most 16 entries.
    base_address = 0
    for position, value in enumerate(inputs):
        if value == ONE:
            base_address |= 1 << position
    seen = None
    for combo in range(1 << len(unknown_positions)):
        address = base_address
        for bit, position in enumerate(unknown_positions):
            if (combo >> bit) & 1:
                address |= 1 << position
        entry = (init >> address) & 1
        if seen is None:
            seen = entry
        elif seen != entry:
            return UNKNOWN
    return seen if seen is not None else UNKNOWN


def bits_to_int(bits: Sequence[int]) -> int:
    """Convert a LSB-first sequence of known logic values to an integer.

    Raises ``ValueError`` if any bit is unknown.
    """
    value = 0
    for position, bit in enumerate(bits):
        if bit == UNKNOWN:
            raise ValueError("cannot convert unknown bit to integer")
        value |= (bit & 1) << position
    return value


def int_to_bits(value: int, width: int) -> List[int]:
    """Convert an integer to a LSB-first list of logic values."""
    if value < 0:
        value &= (1 << width) - 1
    return [(value >> i) & 1 for i in range(width)]

