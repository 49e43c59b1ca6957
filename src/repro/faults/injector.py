"""Per-injection outcomes: one configuration upset, classified.

A :class:`FaultResult` is the outcome of one upset: the behavioural
overlay of the flipped bit (see :mod:`repro.faults.models`) re-simulated
over the fault's fan-out cone against the golden trace, with a *Wrong
Answer* when any output ever differs from the golden device's (see
:meth:`repro.faults.engine.CampaignContext.first_mismatch`).  A campaign
keeps its outcomes as columns, read through :class:`FaultRecords`.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Iterator, List, Optional, Sequence, Union

from .models import EFFECT_ROWS


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
