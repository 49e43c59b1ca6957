"""The single-fault oracle: one modelled bit, one serial simulation.

Campaigns model and simulate injections as columns
(:meth:`~repro.faults.engine.CampaignContext.injections_for` and the
backends).  These helpers take one bit at a time through the same
campaign context, for tests that check a campaign's records, or a
modelled effect, against the per-bit view.
"""

from __future__ import annotations

from repro.faults import FaultResult
from repro.faults.engine import CampaignContext
from repro.faults.models import FaultEffect


def effect_slot(context: CampaignContext, bit: int) -> int:
    """The ``context.effects`` slot of *bit*, modelling it on a miss."""
    return context.injections_for((bit,)).slots[0]


def effect_of_bit(context: CampaignContext, bit: int) -> FaultEffect:
    """A :class:`FaultEffect` view of *bit*'s memoized effect."""
    return context.effects.effect(effect_slot(context, bit))


def evaluate(context: CampaignContext, effect: FaultEffect) -> FaultResult:
    """Evaluate one modelled effect against the golden reference."""
    has_effect = effect.has_effect
    first = context.first_mismatch(effect.overlay) if has_effect else None
    return FaultResult(
        bit=effect.bit,
        resource_kind=effect.resource[0],
        category=effect.category,
        has_effect=has_effect,
        wrong_answer=first is not None,
        first_mismatch_cycle=first,
        detail=effect.detail,
    )
