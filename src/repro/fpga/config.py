"""Configuration-memory model: bit addressing, frames and decode database.

Every programmable resource of the device owns one or more configuration
bits.  The layout assigns each tile a contiguous bit region containing, in
order: the two LUT truth tables (16 bits each), the slice customization bits
and one bit per PIP owned by the tile.  Global bit addresses are grouped into
fixed-size *frames* purely for reporting, mirroring the frame-organized
configuration memory of the Spartan-IIE (2,501 frames of 576 bits on the
XC2S200E).

The :class:`ConfigLayout` is bidirectional — ``bit_of(resource)`` and
``resource_of(bit)`` — which is exactly the "database of the programmed
resources obtained by decoding the Xilinx bitstream" that the paper's fault
list manager relies on; here we own the format, so the database is computed
rather than reverse-engineered.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Tuple

from .device import DIRECTIONS as DIRECTIONS_DELTA
from .device import LUT_SLOTS, Device
from .routing import Pip, count_tile_pips, pips_into_tile

#: Truth-table bits per LUT.
LUT_BITS = 16
#: Slice customization bits, in layout order.  INIT bits give the flip-flop
#: power-up value ("Initialization" upsets in Table 4); the others control
#: intra-CLB multiplexers ("MUX" upsets).
SLICE_CFG_BITS = (
    "FFX_INIT", "FFY_INIT",        # flip-flop power-up / reset value
    "FFX_DMUX", "FFY_DMUX",        # FF data from paired LUT vs BX/BY bypass
    "FFX_CEMUX", "FFY_CEMUX",      # clock-enable used vs tied active
    "FFX_SRMODE", "FFY_SRMODE",    # sync reset vs set behaviour
    "CLKINV",                      # clock polarity for the slice
)
#: Logic (non-routing) bits per tile.
TILE_LOGIC_BITS = 2 * LUT_BITS + len(SLICE_CFG_BITS)

#: Resource kinds appearing in the decode database.
KIND_LUT_BIT = "lut_bit"
KIND_SLICE_CFG = "slice_cfg"
KIND_PIP = "pip"

Resource = Tuple


def lut_bit(x: int, y: int, slot: str, bit: int) -> Resource:
    return (KIND_LUT_BIT, x, y, slot, bit)


def slice_cfg(x: int, y: int, name: str) -> Resource:
    return (KIND_SLICE_CFG, x, y, name)


def pip_resource(pip: Pip) -> Resource:
    return (KIND_PIP, pip[0], pip[1])


class ConfigLayout:
    """Deterministic mapping between configuration bits and resources."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._tile_base: Dict[Tuple[int, int], int] = {}
        self._tile_order: List[Tuple[int, int]] = []
        self._tile_starts: List[int] = []
        self._pip_count_cache: Dict[Tuple, int] = {}
        self._tile_pip_cache: Dict[Tuple[int, int], List[Pip]] = {}
        self._tile_pip_index_cache: Dict[Tuple[int, int], Dict[Pip, int]] = {}
        self._tile_fanin_cache: Dict[Tuple[int, int], Dict[Tuple, int]] = {}
        self._tile_pip_bits_cache: Dict[Tuple[int, int],
                                        Dict[Tuple, List[Tuple[Pip, int]]]] \
            = {}
        self._resource_by_bit: Dict[int, Resource] = {}
        self.total_bits = self._assign_tiles()

    def __getstate__(self) -> Dict[str, object]:
        # The per-tile PIP caches are large, derived purely from the
        # device, and rebuilt on demand; keep them out of pickled
        # implementations (the on-disk flow-artifact store).
        state = self.__dict__.copy()
        state["_pip_count_cache"] = {}
        state["_tile_pip_cache"] = {}
        state["_tile_pip_index_cache"] = {}
        state["_tile_fanin_cache"] = {}
        state["_tile_pip_bits_cache"] = {}
        state["_resource_by_bit"] = {}
        return state

    # ------------------------------------------------------------------
    def _tile_class(self, x: int, y: int) -> Tuple:
        """Tiles with the same border situation have identical PIP counts."""
        device = self.device
        outgoing = tuple(sorted(
            direction for direction in ("N", "S", "E", "W")
            if device.wire_exists(x, y, direction)))
        arriving = tuple(sorted(
            direction for direction in ("N", "S", "E", "W")
            if device.in_bounds(x - DIRECTIONS_DELTA[direction][0],
                                y - DIRECTIONS_DELTA[direction][1])))
        return (outgoing, arriving, len(device.pads_at(x, y)))

    def _pip_count(self, x: int, y: int) -> int:
        key = self._tile_class(x, y)
        if key not in self._pip_count_cache:
            self._pip_count_cache[key] = count_tile_pips(self.device, x, y)
        return self._pip_count_cache[key]

    def _assign_tiles(self) -> int:
        offset = 0
        for (x, y) in self.device.tiles():
            self._tile_base[(x, y)] = offset
            self._tile_order.append((x, y))
            self._tile_starts.append(offset)
            offset += TILE_LOGIC_BITS + self._pip_count(x, y)
        return offset

    # ------------------------------------------------------------------
    @property
    def frame_bits(self) -> int:
        return self.device.spec.frame_bits

    # ------------------------------------------------------------------
    def _tile_pips(self, x: int, y: int) -> List[Pip]:
        key = (x, y)
        if key not in self._tile_pip_cache:
            self._tile_pip_cache[key] = pips_into_tile(self.device, x, y)
        return self._tile_pip_cache[key]

    def _tile_pip_index(self, x: int, y: int) -> Dict[Pip, int]:
        key = (x, y)
        if key not in self._tile_pip_index_cache:
            self._tile_pip_index_cache[key] = {
                pip: index for index, pip in enumerate(self._tile_pips(x, y))}
        return self._tile_pip_index_cache[key]

    def pip_fanin_counts(self, x: int, y: int) -> Dict[Tuple, int]:
        """Candidate-PIP count per destination node of one tile.

        This is the quantity the Table 2 bit accounting sums per used
        destination; precomputing it turns the seed's linear scan over the
        tile's PIP list (per node!) into one dictionary lookup.
        """
        key = (x, y)
        counts = self._tile_fanin_cache.get(key)
        if counts is None:
            counts = {}
            for _source, destination in self._tile_pips(x, y):
                counts[destination] = counts.get(destination, 0) + 1
            self._tile_fanin_cache[key] = counts
        return counts

    def pip_bits_by_destination(self, x: int, y: int
                                ) -> Dict[Tuple, List[Tuple[Pip, int]]]:
        """Destination node -> [(pip, bit address)] for one tile.

        The fault-list builder enumerates every candidate PIP bit of every
        used destination node; pairing PIPs with their bit addresses once
        per tile (in the canonical layout order) replaces a ``bit_of``
        call per PIP with plain list iteration, and the layout-level cache
        shares the result across every fault list built on the device.
        """
        key = (x, y)
        fanin = self._tile_pip_bits_cache.get(key)
        if fanin is None:
            base = self._tile_base[key] + TILE_LOGIC_BITS
            fanin = {}
            for index, pip in enumerate(self._tile_pips(x, y)):
                fanin.setdefault(pip[1], []).append((pip, base + index))
            self._tile_pip_bits_cache[key] = fanin
        return fanin

    # ------------------------------------------------------------------
    def bit_of(self, resource: Resource) -> int:
        """Global bit address of a resource."""
        kind = resource[0]
        if kind == KIND_LUT_BIT:
            _, x, y, slot, bit = resource
            if slot not in LUT_SLOTS:
                raise KeyError(f"unknown LUT slot {slot!r}")
            if not 0 <= bit < LUT_BITS:
                raise KeyError(f"LUT bit {bit} out of range")
            return self._tile_base[(x, y)] + LUT_SLOTS.index(slot) * LUT_BITS \
                + bit
        if kind == KIND_SLICE_CFG:
            _, x, y, name = resource
            return self._tile_base[(x, y)] + 2 * LUT_BITS + \
                SLICE_CFG_BITS.index(name)
        if kind == KIND_PIP:
            pip = (resource[1], resource[2])
            from .routing import pip_tile

            x, y = pip_tile(self.device, pip)
            index = self._tile_pip_index(x, y).get(pip)
            if index is None:
                raise KeyError(f"PIP {pip!r} does not exist in tile "
                               f"({x}, {y})")
            return self._tile_base[(x, y)] + TILE_LOGIC_BITS + index
        raise KeyError(f"unknown resource kind {kind!r}")

    def resource_of(self, bit: int) -> Resource:
        """Inverse mapping: which resource a bit address controls.

        Memoized a tile at a time: the fault models and the layout
        analyzer resolve every bit of a fault list, and tiles worth of
        consecutive bits share the bisect and the PIP enumeration.
        """
        cached = self._resource_by_bit.get(bit)
        if cached is not None:
            return cached
        if not 0 <= bit < self.total_bits:
            raise IndexError(f"bit {bit} outside configuration memory "
                             f"(0..{self.total_bits - 1})")
        tile_index = bisect.bisect_right(self._tile_starts, bit) - 1
        x, y = self._tile_order[tile_index]
        base = self._tile_starts[tile_index]
        table = self._resource_by_bit
        for offset in range(LUT_BITS):
            table[base + offset] = lut_bit(x, y, "F", offset)
            table[base + LUT_BITS + offset] = lut_bit(x, y, "G", offset)
        for offset, name in enumerate(SLICE_CFG_BITS):
            table[base + 2 * LUT_BITS + offset] = slice_cfg(x, y, name)
        pip_base = base + TILE_LOGIC_BITS
        for index, pip in enumerate(self._tile_pips(x, y)):
            table[pip_base + index] = pip_resource(pip)
        return table[bit]


#: ConfigLayout per DeviceSpec.  The layout is a pure function of the
#: device geometry, so one instance (and its lazily filled PIP caches)
#: serves every design implemented on that profile.
_LAYOUT_CACHE: Dict[object, ConfigLayout] = {}


def shared_layout(device: Device) -> ConfigLayout:
    """The memoized configuration layout of a device profile."""
    layout = _LAYOUT_CACHE.get(device.spec)
    if layout is None:
        layout = ConfigLayout(device)
        _LAYOUT_CACHE[device.spec] = layout
    return layout


def clear_layout_cache() -> None:
    """Drop memoized layouts (used by cold-start benchmarks)."""
    _LAYOUT_CACHE.clear()


@dataclasses.dataclass
class BitstreamStats:
    """Composition of a bitstream's programmed (or design-related) bits."""

    routing_bits: int = 0
    lut_bits: int = 0
    ff_bits: int = 0

    @property
    def total(self) -> int:
        return self.routing_bits + self.lut_bits + self.ff_bits

    def routing_fraction(self) -> float:
        return self.routing_bits / self.total if self.total else 0.0


class ConfigMemory:
    """The configuration memory contents (one byte per bit for simplicity)."""

    def __init__(self, layout: ConfigLayout) -> None:
        self.layout = layout
        self.bits = bytearray(layout.total_bits)

    def set_bit(self, bit: int, value: int = 1) -> None:
        self.bits[bit] = 1 if value else 0

    def set_resource(self, resource: Resource, value: int = 1) -> None:
        self.set_bit(self.layout.bit_of(resource), value)

    def programmed_bits(self) -> List[int]:
        """Addresses of all bits currently set to one."""
        return [index for index, value in enumerate(self.bits) if value]

    def copy(self) -> "ConfigMemory":
        duplicate = ConfigMemory(self.layout)
        duplicate.bits = bytearray(self.bits)
        return duplicate
