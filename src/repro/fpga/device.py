"""Island-style FPGA device model.

The device is a rectangular array of tiles; every tile contains one *slice*
(two 4-input LUTs and two flip-flops, the Spartan-II slice organisation) and
a switch box through which general routing wires pass.  I/O pads sit on the
perimeter.  The geometry, channel width and configuration-bit layout are
parameterized by :class:`DeviceSpec`; the profiles in
:mod:`repro.fpga.spartan2e` approximate the XC2S200E used in the paper and
provide scaled variants for fast campaigns.

Coordinates are ``(x, y)`` with ``x`` the column (0 at the left) and ``y``
the row (0 at the bottom).  A wire owned by tile ``(x, y)`` in direction
``d`` terminates in the adjacent tile; wires whose far end would fall outside
the array do not exist.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

#: Routing directions and their coordinate deltas.
DIRECTIONS: Dict[str, Tuple[int, int]] = {
    "N": (0, 1),
    "S": (0, -1),
    "E": (1, 0),
    "W": (-1, 0),
}

OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

#: Slice output pins: LUT F output, LUT G output, flip-flop X and Y outputs.
SLICE_OUTPUT_PINS = ("X", "Y", "XQ", "YQ")
#: Slice input pins reachable through the general routing (the clock uses the
#: dedicated global network and is not part of the routed fabric).
SLICE_INPUT_PINS = ("F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4",
                    "BX", "BY", "CE", "SR")
#: LUT slots and flip-flop slots inside a slice.
LUT_SLOTS = ("F", "G")
FF_SLOTS = ("FFX", "FFY")

#: Map (LUT slot, logical input index) -> slice input pin.
LUT_INPUT_PIN = {
    ("F", 0): "F1", ("F", 1): "F2", ("F", 2): "F3", ("F", 3): "F4",
    ("G", 0): "G1", ("G", 1): "G2", ("G", 2): "G3", ("G", 3): "G4",
}
#: Map LUT slot -> slice output pin, and FF slot -> output pin / bypass pin.
LUT_OUTPUT_PIN = {"F": "X", "G": "Y"}
FF_OUTPUT_PIN = {"FFX": "XQ", "FFY": "YQ"}
FF_DATA_PIN = {"FFX": "BX", "FFY": "BY"}
#: The LUT slot whose output has a dedicated path to each FF slot's D input.
FF_PAIRED_LUT = {"FFX": "F", "FFY": "G"}


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Geometry and fabric parameters of a device."""

    name: str
    #: number of tile columns and rows (one slice per tile)
    columns: int
    rows: int
    #: general-routing wires per direction per tile
    wires_per_direction: int = 8
    #: I/O pads per perimeter tile
    pads_per_tile: int = 2
    #: configuration frame length in bits (used for frame-style addressing)
    frame_bits: int = 576

    @property
    def num_tiles(self) -> int:
        return self.columns * self.rows

    @property
    def num_slices(self) -> int:
        return self.num_tiles

    def __post_init__(self) -> None:
        if self.columns < 2 or self.rows < 2:
            raise ValueError("device needs at least a 2x2 tile array")
        if self.wires_per_direction < 2:
            raise ValueError("need at least 2 wires per direction")


@dataclasses.dataclass(frozen=True)
class PadSite:
    """One I/O pad location on the device perimeter."""

    index: int
    x: int
    y: int
    #: which side of the die the pad sits on (N/S/E/W)
    side: str

    @property
    def name(self) -> str:
        return f"PAD{self.index}"


class Device:
    """A concrete device: geometry plus derived site tables."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.pads: List[PadSite] = self._build_pads()
        self._pads_by_tile: Dict[Tuple[int, int], List[PadSite]] = {}
        for pad in self.pads:
            self._pads_by_tile.setdefault((pad.x, pad.y), []).append(pad)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def columns(self) -> int:
        return self.spec.columns

    @property
    def rows(self) -> int:
        return self.spec.rows

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.columns and 0 <= y < self.rows

    def tiles(self) -> Iterator[Tuple[int, int]]:
        for y in range(self.rows):
            for x in range(self.columns):
                yield (x, y)

    def neighbor(self, x: int, y: int, direction: str
                 ) -> Optional[Tuple[int, int]]:
        dx, dy = DIRECTIONS[direction]
        nx, ny = x + dx, y + dy
        if self.in_bounds(nx, ny):
            return (nx, ny)
        return None

    def wire_exists(self, x: int, y: int, direction: str) -> bool:
        """A wire exists only when its far end lands inside the array."""
        return self.neighbor(x, y, direction) is not None

    def perimeter_tiles(self) -> List[Tuple[int, int]]:
        result = []
        for x in range(self.columns):
            result.append((x, 0))
        for y in range(1, self.rows):
            result.append((self.columns - 1, y))
        for x in range(self.columns - 2, -1, -1):
            result.append((x, self.rows - 1))
        for y in range(self.rows - 2, 0, -1):
            result.append((0, y))
        return result

    def _build_pads(self) -> List[PadSite]:
        pads: List[PadSite] = []
        index = 0
        for (x, y) in self.perimeter_tiles():
            if y == 0:
                side = "S"
            elif y == self.rows - 1:
                side = "N"
            elif x == 0:
                side = "W"
            else:
                side = "E"
            for _ in range(self.spec.pads_per_tile):
                pads.append(PadSite(index, x, y, side))
                index += 1
        return pads

    def pads_at(self, x: int, y: int) -> List[PadSite]:
        return self._pads_by_tile.get((x, y), [])

    @property
    def num_pads(self) -> int:
        return len(self.pads)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"Device({self.spec.name!r}, {self.columns}x{self.rows} "
                f"tiles, W={self.spec.wires_per_direction}, "
                f"{self.num_pads} pads)")
