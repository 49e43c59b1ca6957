"""The paper's five filter versions and the analyses behind its figures.

:mod:`~repro.experiments.designs` builds and implements the five filter
versions and holds the paper's reference numbers and the per-scale
campaign configuration; :mod:`~repro.experiments.figures` and
:mod:`~repro.experiments.ablations` compute the figure summaries and the
ablation studies.  Tables 2-4 are scenarios of the pipeline engine:
``python -m repro run table2-fir`` (or ``table3-fir``, ``table4-fir``)
is the command line and :func:`repro.run_scenario` the library call; see
``python -m repro list``.
"""

from .designs import (DESIGN_ORDER, PAPER_TABLE2_FMAX, PAPER_TABLE2_SLICES,
                      PAPER_TABLE3_PERCENT, PAPER_TABLE4, SCALES, DesignSuite,
                      Scale, build_design_suite, campaign_config_for,
                      device_for, fir_spec_for, implement_design_suite,
                      scale_by_name, tmr_configs)
from .figures import (figure1_summary, figure1_upset_demo, figure2_summary,
                      figure3_summary, figure4_summary, run_figures)
from .ablations import partition_sweep

__all__ = [
    "DESIGN_ORDER", "PAPER_TABLE2_FMAX", "PAPER_TABLE2_SLICES",
    "PAPER_TABLE3_PERCENT", "PAPER_TABLE4", "SCALES", "DesignSuite", "Scale",
    "build_design_suite", "campaign_config_for", "device_for",
    "fir_spec_for", "implement_design_suite", "scale_by_name",
    "tmr_configs", "figure1_summary", "figure1_upset_demo",
    "figure2_summary", "figure3_summary", "figure4_summary", "run_figures",
    "partition_sweep",
]
