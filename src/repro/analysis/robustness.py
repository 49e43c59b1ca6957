"""Cross-design robustness figures computed from campaign results.

These helpers post-process campaign results into the quantities the paper
argues about: the improvement factor of the best partition over plain TMR
and the share of error-causing upsets that routing resources account for.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..faults.campaign import CampaignResult


def improvement_factor(results: Mapping[str, CampaignResult],
                       reference: str, improved: str) -> float:
    """How many times fewer wrong answers *improved* has versus *reference*.

    The paper's headline is ``improvement_factor(results, "TMR_p1",
    "TMR_p2") ~= 4``.
    """
    reference_pct = results[reference].wrong_answer_percent
    improved_pct = results[improved].wrong_answer_percent
    if improved_pct == 0.0:
        return float("inf") if reference_pct > 0 else 1.0
    return reference_pct / improved_pct


def best_partition(results: Mapping[str, CampaignResult],
                   candidates: Optional[Sequence[str]] = None) -> str:
    """The design version with the lowest wrong-answer percentage."""
    names = list(candidates) if candidates is not None else list(results)
    return min(names, key=lambda name: results[name].wrong_answer_percent)


def routing_effect_share(result: CampaignResult) -> float:
    """Fraction of error-causing upsets attributed to routing effects.

    The paper observes that routing resources dominate the error-causing
    upsets and that LUT upsets never defeat the TMR.
    """
    from ..faults import categories

    routing = sum(result.by_category[c].wrong
                  for c in categories.ROUTING_CATEGORIES
                  if c in result.by_category)
    total = sum(count.wrong for count in result.by_category.values())
    return routing / total if total else 0.0
