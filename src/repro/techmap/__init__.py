"""Gate-to-LUT construction and LUT packing optimization."""

from .gates import GateBuilder
from .mapper import MapperReport, merge_luts, remove_buffer_luts

__all__ = ["GateBuilder", "MapperReport", "merge_luts", "remove_buffer_luts"]
