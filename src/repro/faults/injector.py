"""Fault Injection Manager: inject one configuration upset and classify it.

For every selected bit the manager flips the bit in a copy of the bitstream
(the faulty bitstream the paper downloads into the device), derives the
behavioural overlay through the fault models, re-simulates the workload over
the fault's fan-out cone against the recorded golden trace, and compares the
outputs cycle by cycle — a *Wrong Answer* when any output ever differs from
the golden device's.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..pnr.flow import Implementation
from ..sim.compile import CompiledDesign
from ..sim.simulator import SimulationTrace
from .models import EFFECT_ROWS, FaultEffect


@dataclasses.dataclass(frozen=True, slots=True)
class FaultResult:
    """Outcome of injecting one configuration upset."""

    bit: int
    resource_kind: str
    category: str
    has_effect: bool
    wrong_answer: bool
    first_mismatch_cycle: Optional[int]
    detail: str = ""

    @property
    def silent(self) -> bool:
        return not self.wrong_answer


class FaultRecords(Sequence[FaultResult]):
    """A campaign's per-injection records, stored as columns.

    A read-only sequence of :class:`FaultResult`: each item is built on
    access from the columns (primary bit, :data:`~repro.faults.models.
    EFFECT_ROWS` index, detail string, wrong-answer byte, first
    mismatching cycle or ``-1``), so a million-injection campaign holds
    five columns instead of a million objects.  Slicing returns a list.
    """

    __slots__ = ("bits", "rows", "details", "wrong", "first_mismatch")

    def __init__(self, bits: array, rows: array, details: List[str],
                 wrong: bytearray, first_mismatch: array) -> None:
        if not len(bits) == len(rows) == len(details) == len(wrong) \
                == len(first_mismatch):
            raise ValueError("record columns differ in length")
        self.bits = bits
        self.rows = rows
        self.details = details
        self.wrong = wrong
        self.first_mismatch = first_mismatch

    def __len__(self) -> int:
        return len(self.bits)

    def _record(self, index: int) -> FaultResult:
        row = EFFECT_ROWS[self.rows[index]]
        first = self.first_mismatch[index]
        return FaultResult(
            bit=self.bits[index], resource_kind=row.resource_kind,
            category=row.category, has_effect=row.has_effect,
            wrong_answer=bool(self.wrong[index]),
            first_mismatch_cycle=first if first >= 0 else None,
            detail=self.details[index])

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[FaultResult, List[FaultResult]]:
        if isinstance(index, slice):
            return [self._record(position)
                    for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        return self._record(index)

    def __iter__(self) -> Iterator[FaultResult]:
        return map(self._record, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaultRecords):
            return (self.bits == other.bits and self.rows == other.rows
                    and self.details == other.details
                    and self.wrong == other.wrong
                    and self.first_mismatch == other.first_mismatch)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class FaultInjectionManager:
    """Runs single-fault experiments against a golden reference.

    The evaluation itself lives in :class:`repro.faults.engine.
    CampaignContext`; this manager remains the one-fault-at-a-time surface
    (and keeps the paper-faithful step of flipping the bit in a copy of the
    bitstream, even though the simulator consumes the overlay).
    """

    def __init__(self, implementation: Implementation,
                 compiled: CompiledDesign,
                 stimulus: Sequence[Dict[str, int]],
                 output_ports: Optional[Sequence[str]] = None,
                 skip_cycles: int = 0) -> None:
        from .engine import CampaignContext

        self.implementation = implementation
        self.compiled = compiled
        self.stimulus = list(stimulus)
        self.output_ports = list(output_ports) if output_ports else None
        self.skip_cycles = skip_cycles
        self.context = CampaignContext(
            implementation, compiled, self.stimulus,
            skip_cycles=skip_cycles, output_ports=self.output_ports)
        self.modeler = self.context.modeler
        #: the golden device run: full simulation with every net recorded so
        #: that faulty runs can be confined to the fault's fan-out cone
        self.context.prepare()
        self.golden: SimulationTrace = self.context.golden

    # --------------------------------------------------------------
    def golden_outputs(self) -> SimulationTrace:
        return self.golden

    def inject(self, bit: int) -> FaultResult:
        """Inject a single bit flip and classify its outcome."""
        effect = self.modeler.effect_of_bit(bit)
        return self._evaluate(effect)

    def inject_effect(self, effect: FaultEffect) -> FaultResult:
        """Evaluate an already-modelled effect (used by the campaign runner)."""
        return self._evaluate(effect)

    # --------------------------------------------------------------
    def _evaluate(self, effect: FaultEffect) -> FaultResult:
        if effect.has_effect:
            # The faulty bitstream: flip the bit in a copy (kept faithful to
            # the paper's flow even though the simulator consumes the
            # overlay).
            faulty_bitstream = self.implementation.bitstream.copy()
            faulty_bitstream.flip_bit(effect.bit)
        return self.context.evaluate(effect)
