"""Library entry points that regenerate every table and figure of the paper.

``python -m repro run <scenario>`` is the command line over them (see
``python -m repro list``).
"""

from .designs import (DESIGN_ORDER, PAPER_TABLE2_FMAX, PAPER_TABLE2_SLICES,
                      PAPER_TABLE3_PERCENT, PAPER_TABLE4, SCALES, DesignSuite,
                      Scale, build_design_suite, device_for, fir_spec_for,
                      implement_design_suite, scale_by_name, tmr_configs)
from .table2 import run_table2
from .table3 import campaign_config_for, run_table3
from .table4 import run_table4
from .figures import (ascii_partition_diagram, figure1_summary,
                      figure1_upset_demo, figure2_summary, figure3_summary,
                      figure4_summary, run_figures)
from .ablations import fault_list_mode_study, partition_sweep

__all__ = [
    "DESIGN_ORDER", "PAPER_TABLE2_FMAX", "PAPER_TABLE2_SLICES",
    "PAPER_TABLE3_PERCENT", "PAPER_TABLE4", "SCALES", "DesignSuite", "Scale",
    "build_design_suite", "device_for", "fir_spec_for",
    "implement_design_suite", "scale_by_name", "tmr_configs", "run_table2",
    "campaign_config_for", "run_table3", "run_table4",
    "ascii_partition_diagram", "figure1_summary", "figure1_upset_demo",
    "figure2_summary", "figure3_summary", "figure4_summary", "run_figures",
    "fault_list_mode_study", "partition_sweep",
]
