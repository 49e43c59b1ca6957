"""Ablation experiments beyond the paper's tables.

Studies the paper motivates but does not quantify:

* **Partition-granularity sweep** (:func:`partition_sweep`) — the
  optimizer's analytical sweep over voter granularities, the design-space
  picture behind the paper's "there is an optimal partition" conclusion
  (``python -m repro run ablation-sweep``).
* **Fault-list selection** — how counting only programmed bits instead of
  every design-related bit changes the measured percentages (``python -m
  repro run table3-fir --fault-list programmed``).
* **Floorplanning** — the paper's future-work item: confine each TMR domain
  to its own column band and measure how much of the remaining vulnerability
  disappears, at the cost of longer voter nets (``python -m repro run
  floorplan-fir`` runs both placements).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core import EveryKth, sweep_partitions
from .designs import DesignSuite, build_design_suite


def partition_sweep(suite: Optional[DesignSuite] = None, scale: str = "fast",
                    granularities: Sequence[int] = (1, 2, 3, 4, 6),
                    ) -> Dict[str, object]:
    """Analytical sweep of voter granularity on the filter."""
    if suite is None:
        suite = build_design_suite(scale)
    strategies = [EveryKth(k) for k in granularities]
    sweep = sweep_partitions(suite.netlist, suite.source,
                             strategies=strategies)
    return {
        "candidates": sweep.table(),
        "best": sweep.best.summary_row(),
    }
