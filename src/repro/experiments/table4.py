"""Table 4: classification of error-causing upsets.

The campaigns of Table 3 already classify every injected upset by its effect
(LUT / MUX / Initialization / Open / Bridge / Input-Antenna / Conflict /
Others); :func:`run_table4` aggregates the error-causing ones per design
version, which is the paper's Table 4.  ``python -m repro run table4-fir``
is the command line.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..faults import CampaignResult
from ..faults.engine import BackendLike
from ..pnr import Implementation
from .designs import DesignSuite
from .table3 import run_table3


def run_table4(results: Optional[Dict[str, CampaignResult]] = None,
               suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", num_faults: Optional[int] = None,
               backend: BackendLike = None) -> Dict[str, Dict[str, int]]:
    """Return the per-design effect breakdown of error-causing upsets.

    *backend* selects the campaign execution backend (``"serial"``, the
    bit-parallel ``"vector"``, the numpy-compiled ``"numpy"`` or the
    process-parallel ``"sharded"``).
    """
    if results is None:
        results = run_table3(suite=suite, implementations=implementations,
                             scale=scale, num_faults=num_faults,
                             backend=backend)
    table: Dict[str, Dict[str, int]] = {}
    for name, result in results.items():
        table[name] = result.effect_table()
    return table
