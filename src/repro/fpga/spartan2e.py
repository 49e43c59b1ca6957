"""Device profiles.

``XC2S200E`` approximates the paper's Spartan-IIE part: the paper describes
its configuration memory as 1,442,016 bits in 2,501 frames of 576 bits
controlling an array of 28 x 42 slices.  Our fabric model is not
bit-compatible with the proprietary Xilinx format, so the profile reproduces
the array geometry and frame length; the absolute bit count differs while the
routing-versus-logic composition stays in the same ~80-90% range.

The TMR versions of the paper's filter need roughly 3-4x the unprotected
area; profiles with larger arrays (and wider channels) are provided so that
every variant places and routes, along with reduced profiles for fast tests
and campaigns.
"""

from __future__ import annotations

from typing import Dict

from .device import Device, DeviceSpec

#: The paper's device: 28 x 42 slice array, 576-bit frames.
XC2S200E = DeviceSpec(name="XC2S200E", columns=42, rows=28,
                      wires_per_direction=8, pads_per_tile=2, frame_bits=576)

#: A larger profile in the same family, used when a TMR variant of the
#: full-size filter does not fit the XC2S200E-sized array.
XC2S600E = DeviceSpec(name="XC2S600E", columns=72, rows=48,
                      wires_per_direction=10, pads_per_tile=2, frame_bits=576)

#: Reduced profiles for fast fault-injection campaigns and unit tests.
XC2S50E = DeviceSpec(name="XC2S50E", columns=28, rows=16,
                     wires_per_direction=8, pads_per_tile=2, frame_bits=576)
XC2S15E = DeviceSpec(name="XC2S15E", columns=16, rows=10,
                     wires_per_direction=8, pads_per_tile=2, frame_bits=576)
#: Tiny device for unit tests of the fabric itself.
TINY = DeviceSpec(name="TINY", columns=6, rows=5, wires_per_direction=8,
                  pads_per_tile=2, frame_bits=64)

PROFILES: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (XC2S200E, XC2S600E, XC2S50E, XC2S15E, TINY)
}


def device_by_name(name: str) -> Device:
    """Instantiate a device from a profile name."""
    try:
        return Device(PROFILES[name])
    except KeyError:
        raise KeyError(
            f"unknown device profile {name!r}; available: "
            + ", ".join(sorted(PROFILES))) from None


#: share of a device's tiles an automatically sized design may fill, so
#: the placer and router have slack, as a real flow would
DEVICE_UTILIZATION = 0.7


def smallest_device_for(num_luts: int, num_ffs: int) -> Device:
    """Pick the smallest profile able to hold the given logic.

    Each tile provides two LUTs and two flip-flops; the design may fill
    at most ``DEVICE_UTILIZATION`` of the array.
    """
    needed_tiles = max(
        (num_luts + 1) // 2, (num_ffs + 1) // 2, 1) / DEVICE_UTILIZATION
    for spec in sorted(PROFILES.values(), key=lambda s: s.num_tiles):
        if spec.name == "TINY":
            continue
        if spec.num_tiles >= needed_tiles:
            return Device(spec)
    return Device(XC2S600E)
