"""Golden-versus-DUT output comparison.

The paper's fault-injection system compares the DUT against a golden device
"every clock cycle"; a fault is classified as a *Wrong Answer* when any
output differs on any cycle.  :func:`compare_traces` implements that
comparison over simulation traces, treating an unknown (X) DUT output as wrong whenever the
golden output is known — the pessimistic reading of a floating or conflicting
signal reaching the output pads.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..cells import logic
from .simulator import SimulationTrace


@dataclasses.dataclass
class ComparisonResult:
    """Outcome of comparing a DUT trace against the golden trace."""

    wrong_answer: bool
    first_mismatch_cycle: Optional[int]
    mismatching_cycles: int
    mismatching_ports: List[str]

    @property
    def silent(self) -> bool:
        """True when the fault never produced an observable difference."""
        return not self.wrong_answer


def _bits_mismatch(dut_bits: Sequence[int], golden_bits: Sequence[int]) -> bool:
    for dut, gold in zip(dut_bits, golden_bits):
        if gold == logic.UNKNOWN:
            continue
        if dut != gold:
            return True
    return False


def compare_traces(dut: SimulationTrace, golden: SimulationTrace,
                   skip_cycles: int = 0) -> ComparisonResult:
    """Compare two traces cycle by cycle over every output port.

    *skip_cycles* ignores the first cycles (useful when the golden device and
    the DUT need a warm-up period, e.g. while X values flush out of
    uninitialised paths).
    """
    if len(dut.outputs) != len(golden.outputs):
        raise ValueError("traces have different lengths")
    first_mismatch: Optional[int] = None
    mismatching_cycles = 0
    mismatching_ports: List[str] = []
    # Ports the golden device never drives to X compare with one C-level
    # list inequality (a DUT X still mismatches: UNKNOWN != 0/1), instead
    # of re-scanning every bit for X on every cycle of every fault.
    fully_known = golden.all_known_ports()

    for cycle, (dut_out, golden_out) in enumerate(zip(dut.outputs,
                                                      golden.outputs)):
        if cycle < skip_cycles:
            continue
        cycle_mismatch = False
        for port in golden_out:
            if port in fully_known:
                mismatch = dut_out[port] != golden_out[port]
            else:
                mismatch = _bits_mismatch(dut_out[port], golden_out[port])
            if mismatch:
                cycle_mismatch = True
                if port not in mismatching_ports:
                    mismatching_ports.append(port)
        if cycle_mismatch:
            mismatching_cycles += 1
            if first_mismatch is None:
                first_mismatch = cycle

    return ComparisonResult(
        wrong_answer=first_mismatch is not None,
        first_mismatch_cycle=first_mismatch,
        mismatching_cycles=mismatching_cycles,
        mismatching_ports=mismatching_ports,
    )
