"""Resource, robustness and trade-off reporting (paper Tables 2-4)."""

from .layout import (CLASSIFICATIONS, CORRECTABLE, DEFEAT, SILENT,
                     BitPrediction, DefeatMap, LayoutAnalyzer,
                     defeat_map_for, layout_robustness,
                     prediction_vs_campaign)
from .resources import (ResourceRow, area_overhead, format_resource_table,
                        performance_degradation, resource_row, resource_table)
from .robustness import (best_partition, improvement_factor,
                         routing_effect_share)

__all__ = [
    "ResourceRow", "area_overhead", "format_resource_table",
    "performance_degradation", "resource_row", "resource_table",
    "best_partition", "improvement_factor", "routing_effect_share",
    # layout-aware defeat analysis
    "CLASSIFICATIONS", "CORRECTABLE", "DEFEAT", "SILENT", "BitPrediction",
    "DefeatMap", "LayoutAnalyzer", "defeat_map_for", "layout_robustness",
    "prediction_vs_campaign",
]
