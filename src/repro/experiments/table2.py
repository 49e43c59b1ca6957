"""Table 2: area, bitstream composition, performance.

:func:`run_table2` builds the five filter versions, implements each on its
device profile and returns the Table 2 analogue next to the paper's
reference numbers.  It is a library wrapper over the ``table2-fir``
scenario of the pipeline engine; ``python -m repro run table2-fir`` is the
command line.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..pnr import Implementation
from ..pnr.artifacts import StoreLike
from .designs import DESIGN_ORDER, DesignSuite


def run_table2(suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", jobs: int = 1,
               flow_cache: StoreLike = None
               ) -> Dict[str, Dict[str, object]]:
    """Compute the Table 2 analogue; returns one dict per design."""
    from ..pipeline import PipelineContext, pipeline_for, resources_analysis

    ctx = PipelineContext(
        scenario_id="table2-fir",
        scale=scale,
        designs=DESIGN_ORDER,
        jobs=jobs,
        flow_cache=flow_cache,
    )
    ctx.suite = suite
    ctx.implementations = implementations
    if implementations is not None:
        # Pre-built implementations are all the analysis needs — keep the
        # historical fast path that never builds the suite.
        ctx.designs = [name for name in DESIGN_ORDER
                       if name in implementations]
    else:
        pipeline_for(("build", "implement")).run(ctx)
    return resources_analysis(ctx)
