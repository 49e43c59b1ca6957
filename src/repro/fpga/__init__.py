"""FPGA device model: fabric, configuration memory and bitstream generation."""

from .bitgen import (FlipFlopSite, LutSite, UsedResources,
                     compute_design_bit_stats, generate_bitstream)
from .config import (KIND_LUT_BIT, KIND_PIP, KIND_SLICE_CFG, LUT_BITS,
                     SLICE_CFG_BITS, BitstreamStats, ConfigLayout,
                     ConfigMemory, lut_bit, pip_resource, slice_cfg)
from .device import (DIRECTIONS, FF_SLOTS, LUT_SLOTS, SLICE_INPUT_PINS,
                     SLICE_OUTPUT_PINS, Device, DeviceSpec, PadSite)
from .routing import (Node, Pip, incoming_wires, ipin, node_tile, opin,
                      pad_input, pad_output, pips_into_tile, wire)
from .spartan2e import (PROFILES, TINY, XC2S15E, XC2S50E, XC2S200E, XC2S600E,
                        device_by_name, smallest_device_for)

__all__ = [
    "FlipFlopSite", "LutSite", "UsedResources", "compute_design_bit_stats",
    "generate_bitstream", "KIND_LUT_BIT", "KIND_PIP", "KIND_SLICE_CFG",
    "LUT_BITS", "SLICE_CFG_BITS", "BitstreamStats", "ConfigLayout",
    "ConfigMemory", "lut_bit", "pip_resource", "slice_cfg", "DIRECTIONS",
    "FF_SLOTS", "LUT_SLOTS", "SLICE_INPUT_PINS", "SLICE_OUTPUT_PINS",
    "Device", "DeviceSpec", "PadSite", "Node", "Pip",
    "incoming_wires", "ipin", "node_tile", "opin",
    "pad_input", "pad_output", "pips_into_tile", "wire", "PROFILES", "TINY",
    "XC2S15E", "XC2S50E", "XC2S200E", "XC2S600E", "device_by_name",
    "smallest_device_for",
]
