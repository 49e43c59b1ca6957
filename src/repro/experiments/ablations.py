"""Ablation experiments beyond the paper's tables.

Three studies the paper motivates but does not quantify:

* **Partition-granularity sweep** (:func:`partition_sweep`) — the
  optimizer's analytical sweep over voter granularities, the design-space
  picture behind the paper's "there is an optimal partition" conclusion
  (``python -m repro run ablation-sweep``).
* **Fault-list selection** (:func:`fault_list_mode_study`) — how counting
  only programmed bits instead of every design-related bit changes the
  measured percentages (``python -m repro run table3-fir --fault-list
  programmed`` for the full suite).
* **Floorplanning** — the paper's future-work item: confine each TMR domain
  to its own column band and measure how much of the remaining vulnerability
  disappears, at the cost of longer voter nets (``python -m repro run
  floorplan-fir`` runs both placements).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core import EveryKth, sweep_partitions
from ..faults import run_campaign
from ..faults.engine import BackendLike, resolve_backend
from ..pnr import Implementation
from .designs import DesignSuite, build_design_suite, campaign_config_for


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


def fault_list_mode_study(implementation: Implementation,
                          suite: DesignSuite,
                          num_faults: Optional[int] = None,
                          backend: BackendLike = None) -> Dict[str, object]:
    """How the fault-list selection mode changes the measured percentages."""
    engine = resolve_backend(backend)
    out: Dict[str, object] = {}
    for mode in ("design", "programmed"):
        config = campaign_config_for(suite, num_faults, fault_list_mode=mode)
        result = run_campaign(implementation, config, backend=engine)
        out[mode] = result.summary_row()
    return out
