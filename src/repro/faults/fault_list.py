"""Fault List Manager.

The paper's fault-injection system first identifies "the configuration
memory bits that are actually programmed to implement the DUT and generates
the bit-flips only for them", using a database of the programmed resources
obtained by decoding the bitstream.  This module plays the same role: it
enumerates the configuration bits *related to the implemented design* and
draws a reproducible random sample from them.

Three selection modes are provided:

* ``design`` (default) — every bit of every resource serving the design:
  the 16 truth-table bits of each used LUT, the configuration bits of each
  used flip-flop/slice, and every candidate PIP bit of every routing node the
  design occupies (so both the programmed PIPs and the unprogrammed
  candidates of used multiplexers are injectable, which is what makes
  Bridge/Conflict/Antenna effects reachable).
* ``extended`` — ``design`` plus the candidate PIPs of the *unused* input
  pins of used slices (stray-antenna territory).
* ``programmed`` — only bits currently set to one in the bitstream (pure
  Open/LUT upsets; matches the narrowest reading of the paper's selection).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Set, Tuple

from ..fpga.config import LUT_BITS, lut_bit, slice_cfg
from ..fpga.device import SLICE_INPUT_PINS
from ..fpga.routing import Node, Pip, ipin
from ..pnr.flow import Implementation
from .seeds import substream

FAULT_LIST_MODES = ("design", "extended", "programmed")


@dataclasses.dataclass
class FaultList:
    """An ordered list of injectable configuration bits."""

    mode: str
    bits: List[int]
    #: composition of the list by resource kind
    composition: Dict[str, int]

    def __len__(self) -> int:
        return len(self.bits)

    def sample(self, count: int, seed: int = 2005) -> List[int]:
        """Reproducible random sample (the paper samples roughly 10% of
        the relevant bits).

        Up to the population size the draw is without replacement and
        stays bit-identical to the seed campaigns.  Beyond it — the
        ``huge`` Monte-Carlo scale injects orders of magnitude more
        upsets than there are programmable bits — the whole population
        is included once and the remainder is drawn with replacement.
        The tail generator is seeded on the *labeled substream*
        ``derive_seed(seed, "oversample")`` (see
        :mod:`repro.faults.seeds`), never on the raw seed: a sharded
        worker that re-derives the base permutation from the same seed
        therefore can never track the tail stream, and every injection
        count remains reproducible from ``(seed, count)`` alone.
        """
        if count == len(self.bits):
            return list(self.bits)
        if count > len(self.bits):
            tail = substream(seed, "oversample")
            return list(self.bits) + tail.choices(
                self.bits, k=count - len(self.bits))
        return random.Random(seed).sample(self.bits, count)


class FaultListManager:
    """Builds fault lists for an implemented design."""

    def __init__(self, implementation: Implementation) -> None:
        self.implementation = implementation
        self.layout = implementation.layout
        self.device = implementation.device

    # --------------------------------------------------------------
    def _tile_fanin(self, tile: Tuple[int, int]
                    ) -> Dict[Node, List[Tuple[Pip, int]]]:
        # Destination node -> [(pip, bit address)], cached on the shared
        # layout so repeated fault-list builds skip the enumeration.
        return self.layout.pip_bits_by_destination(*tile)

    def _bits_into_node(self, node: Node) -> List[int]:
        from ..fpga.routing import node_tile

        tile = node_tile(self.device, node)
        return [bit for _pip, bit in self._tile_fanin(tile).get(node, [])]

    # --------------------------------------------------------------
    def build(self, mode: str = "design") -> FaultList:
        if mode not in FAULT_LIST_MODES:
            raise ValueError(f"unknown fault list mode {mode!r}; choose from "
                             f"{FAULT_LIST_MODES}")
        if mode == "programmed":
            bits = self.implementation.bitstream.programmed_bits()
            return FaultList(mode, bits, {"programmed": len(bits)})

        resources = self.implementation.resources
        bits: List[int] = []
        composition: Dict[str, int] = {"lut": 0, "ff": 0, "routing": 0,
                                       "routing_unused_inputs": 0}

        for site in resources.lut_sites:
            for table_bit in range(LUT_BITS):
                bits.append(self.layout.bit_of(
                    lut_bit(site.x, site.y, site.slot, table_bit)))
                composition["lut"] += 1

        seen_slices: Set[Tuple[int, int]] = set()
        for site in resources.ff_sites:
            suffix = "X" if site.slot == "FFX" else "Y"
            for name in (f"FF{suffix}_INIT", f"FF{suffix}_DMUX",
                         f"FF{suffix}_CEMUX", f"FF{suffix}_SRMODE"):
                bits.append(self.layout.bit_of(slice_cfg(site.x, site.y,
                                                         name)))
                composition["ff"] += 1
        for (x, y) in resources.used_slices:
            if (x, y) in seen_slices:
                continue
            seen_slices.add((x, y))
            bits.append(self.layout.bit_of(slice_cfg(x, y, "CLKINV")))
            composition["ff"] += 1

        # Every PIP bit belongs to exactly one destination node and the
        # routing bit range of a tile is disjoint from its logic bits, so
        # deduplication per *node* suffices (used_nodes is a dict — its
        # keys are already unique).
        for node in resources.used_nodes:
            if node[0] in ("wire", "ipin", "pad_i"):
                node_bits = self._bits_into_node(node)
                bits.extend(node_bits)
                composition["routing"] += len(node_bits)

        if mode == "extended":
            used_input_nodes = {node for node in resources.used_nodes
                                if node[0] == "ipin"}
            seen_nodes: Set[Node] = set()
            for (x, y) in resources.used_slices:
                for pin in SLICE_INPUT_PINS:
                    node = ipin(x, y, pin)
                    if node in used_input_nodes or node in seen_nodes:
                        continue
                    seen_nodes.add(node)
                    node_bits = self._bits_into_node(node)
                    bits.extend(node_bits)
                    composition["routing_unused_inputs"] += len(node_bits)

        return FaultList(mode, bits, composition)
