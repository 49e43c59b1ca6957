"""Table 3: fault-injection campaign results.

:func:`run_table3` implements the five filter versions and runs one
bitstream fault-injection campaign per version.  It is a library wrapper
over the ``table3-fir`` scenario of the pipeline engine (``python -m repro
run table3-fir`` is the command line) and keeps its historical signature
for callers that pre-build the suite or the implementations.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..faults import CampaignConfig, CampaignResult
from ..faults.engine import BackendLike
from ..pnr import Implementation
from ..pnr.artifacts import StoreLike
from .designs import DESIGN_ORDER, DesignSuite


def campaign_config_for(suite: DesignSuite,
                        num_faults: Optional[int] = None,
                        fault_list_mode: str = "design",
                        seed: int = 2005,
                        upset_model: str = "single") -> CampaignConfig:
    return CampaignConfig(
        num_faults=num_faults if num_faults is not None
        else suite.scale.campaign_faults,
        workload_cycles=suite.scale.workload_cycles,
        fault_list_mode=fault_list_mode,
        seed=seed,
        upset_model=upset_model,
    )


def run_table3(suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", num_faults: Optional[int] = None,
               fault_list_mode: str = "design",
               progress: bool = False,
               backend: BackendLike = None,
               jobs: int = 1,
               flow_cache: StoreLike = None,
               upset_model: str = "single") -> Dict[str, CampaignResult]:
    """Run the Table 3 campaigns and return one result per design.

    *backend* selects the campaign execution backend (``"serial"``, the
    bit-parallel ``"vector"``, the numpy-compiled ``"numpy"`` or the
    process-parallel ``"sharded"``); every
    backend yields identical results.  *upset_model* selects how many bits
    one injection flips (``"single"``, ``"mbu[:k]"``, ``"accumulate[:k]"``
    — see :mod:`repro.faults.upsets`).  *jobs* and *flow_cache* speed up
    the implementation step (parallel place-and-route, persistent flow
    artifacts).  None of these knobs changes any campaign number.
    """
    from ..pipeline import PipelineContext, pipeline_for

    ctx = PipelineContext(
        scenario_id="table3-fir",
        scale=scale,
        designs=DESIGN_ORDER,
        backend=backend if backend is not None else "serial",
        upset_model=upset_model,
        fault_list_mode=fault_list_mode,
        num_faults=num_faults,
        jobs=jobs,
        flow_cache=flow_cache,
        progress=progress,
    )
    ctx.suite = suite
    ctx.implementations = implementations
    if implementations is not None:
        ctx.designs = [name for name in DESIGN_ORDER
                       if name in implementations]
    pipeline_for(("build", "implement", "campaign")).run(ctx)
    return ctx.campaigns
