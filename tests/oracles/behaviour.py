"""Behavioural models of the generated RTL, and the trace check against them.

The RTL generators build gate-level netlists; these cycle-level models say
what those netlists must compute, so the tests can simulate a generated
design and compare its output stream with the model's.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.rtl import FirSpec
from repro.sim import SimulationTrace


def fir_reference(spec: FirSpec, samples: Sequence[int]) -> List[int]:
    """Bit-accurate behavioural model of the generated filter.

    *samples* are signed integers presented one per clock cycle on ``DIN``.
    The returned list contains, for each cycle, the value visible on ``DOUT``
    during that cycle (combinational response to the current input and the
    delay-line state *before* the cycle's clock edge), wrapped to the signed
    output width exactly like the hardware adders wrap.
    """
    mask = (1 << spec.output_width) - 1
    sign_bit = 1 << (spec.output_width - 1)
    delays = [0] * (spec.taps - 1)
    outputs: List[int] = []
    for sample in samples:
        taps = [sample] + delays
        accumulator = 0
        for coefficient, value in zip(spec.coefficients, taps):
            accumulator = (accumulator + coefficient * value) & mask
        signed = accumulator - (1 << spec.output_width) \
            if accumulator & sign_bit else accumulator
        outputs.append(signed)
        if delays:
            delays = [sample] + delays[:-1]
    return outputs


def counter_reference(width: int, cycles: int, enable_pattern=None,
                      reset_pattern=None) -> list:
    """Behavioural model of :func:`repro.rtl.up_counter`.

    Returns the Q value visible *during* each cycle (before that cycle's
    clock edge).
    """
    mask = (1 << width) - 1
    state = 0
    outputs = []
    for cycle in range(cycles):
        outputs.append(state)
        enable = 1 if enable_pattern is None else enable_pattern[cycle]
        reset = 0 if reset_pattern is None else reset_pattern[cycle]
        if reset:
            state = 0
        elif enable:
            state = (state + 1) & mask
    return outputs


def trace_matches_reference(trace: SimulationTrace, port: str,
                            reference: Sequence[int], signed: bool = True,
                            skip_cycles: int = 0) -> bool:
    """Check a simulated output stream against a behavioural reference."""
    produced = trace.output_ints(port, signed)
    for cycle, (got, expected) in enumerate(zip(produced, reference)):
        if cycle < skip_cycles:
            continue
        if got != expected:
            return False
    return True
