"""Placement: assign slices to tiles and top-level ports to I/O pads.

The constructive placer keeps the packer's locality order and fills a
centred rectangular window of the array in serpentine order; an optional
simulated-annealing refinement then reduces total half-perimeter wirelength.
A *floorplan* can confine each TMR domain to its own column band — the
dedicated-floorplanning mitigation the paper mentions as future work, which
we evaluate as an ablation experiment.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.ir import Definition, InstancePin
from ..fpga.device import Device
from .pack import PackResult


@dataclasses.dataclass
class Floorplan:
    """Column bands per TMR domain: domain -> (min column, max column)."""

    domain_columns: Dict[int, Tuple[int, int]]

    @classmethod
    def vertical_thirds(cls, device: Device, guard_columns: int = 1
                        ) -> "Floorplan":
        """Split the array into three vertical bands, one per domain."""
        width = device.columns // 3
        bands = {}
        for domain in range(3):
            low = domain * width
            high = (domain + 1) * width - 1 if domain < 2 else \
                device.columns - 1
            if domain > 0:
                low += guard_columns
            bands[domain] = (low, high)
        return cls(bands)


@dataclasses.dataclass
class Placement:
    """Result of placement."""

    device: Device
    #: slice index -> tile (x, y)
    slice_tiles: List[Tuple[int, int]]
    #: (port name, bit) -> pad index
    port_pads: Dict[Tuple[str, int], int]
    #: flat cell name -> tile (x, y)  (derived convenience map)
    cell_tiles: Dict[str, Tuple[int, int]]
    #: total half-perimeter wirelength after placement
    wirelength: int = 0


def _domain_of_slice(definition: Definition, pack_result: PackResult,
                     slice_index: int) -> Optional[int]:
    for cell_name in pack_result.slices[slice_index].cells.values():
        instance = definition.instances.get(cell_name)
        if instance is None:
            continue
        domain = instance.properties.get("domain")
        if domain is not None:
            return int(domain)
    return None


def _serpentine_tiles(device: Device, columns: Sequence[int]
                      ) -> List[Tuple[int, int]]:
    """Tiles of the selected columns in a serpentine (boustrophedon) order."""
    tiles: List[Tuple[int, int]] = []
    for position, x in enumerate(columns):
        rows = range(device.rows) if position % 2 == 0 \
            else range(device.rows - 1, -1, -1)
        for y in rows:
            tiles.append((x, y))
    return tiles


def _build_net_endpoints(definition: Definition, pack_result: PackResult
                         ) -> List[List[str]]:
    """Cells touched by each multi-terminal net (for wirelength estimation)."""
    endpoints: List[List[str]] = []
    for net in definition.nets.values():
        cells = []
        for pin in net.pins:
            if isinstance(pin, InstancePin) and \
                    pin.instance.name in pack_result.cell_site:
                cells.append(pin.instance.name)
        if len(cells) > 1:
            endpoints.append(cells)
    return endpoints


def _wirelength(endpoints: List[List[str]],
                cell_tiles: Dict[str, Tuple[int, int]]) -> int:
    total = 0
    for cells in endpoints:
        xs = [cell_tiles[c][0] for c in cells]
        ys = [cell_tiles[c][1] for c in cells]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def place(definition: Definition, pack_result: PackResult, device: Device,
          seed: int = 1, floorplan: Optional[Floorplan] = None,
          anneal_moves_per_slice: int = 0,
          target_utilization: float = 0.55) -> Placement:
    """Place packed slices onto the device.

    *anneal_moves_per_slice* controls the optional simulated-annealing
    refinement (0 disables it; 10-50 gives a meaningful wirelength
    reduction at a modest runtime cost).  *target_utilization* spreads the
    design over a window larger than its slice count so the router has
    spare channel capacity — packing a region at 100% density is what makes
    island-style fabrics unroutable.
    """
    num_slices = pack_result.num_slices
    if num_slices > device.spec.num_tiles:
        raise ValueError(
            f"design needs {num_slices} slices but {device.spec.name} has "
            f"only {device.spec.num_tiles}")

    rng = random.Random(seed)
    slice_tiles: List[Optional[Tuple[int, int]]] = [None] * num_slices

    if floorplan is None:
        spread_tiles = min(device.spec.num_tiles,
                           max(num_slices,
                               int(num_slices / max(target_utilization,
                                                    0.05))))
        columns_needed = min(device.columns,
                             max(1, -(-spread_tiles // device.rows)))
        first_column = max(0, (device.columns - columns_needed) // 2)
        ordered_tiles = _serpentine_tiles(
            device, range(first_column, first_column + columns_needed))
        # Distribute the slices evenly over the window instead of packing
        # the first tiles back to back.
        if num_slices > 0:
            stride = len(ordered_tiles) / num_slices
            used_positions = set()
            for index in range(num_slices):
                position = min(int(index * stride), len(ordered_tiles) - 1)
                while position in used_positions:
                    position += 1
                used_positions.add(position)
                slice_tiles[index] = ordered_tiles[position]
    else:
        # Group slices by domain and fill each domain's column band.
        by_domain: Dict[Optional[int], List[int]] = {}
        for index in range(num_slices):
            domain = _domain_of_slice(definition, pack_result, index)
            by_domain.setdefault(domain, []).append(index)
        shared = by_domain.pop(None, [])
        for domain, indices in sorted(by_domain.items()):
            low, high = floorplan.domain_columns.get(
                domain, (0, device.columns - 1))
            ordered_tiles = _serpentine_tiles(device, range(low, high + 1))
            if len(indices) > len(ordered_tiles):
                raise ValueError(
                    f"domain {domain} needs {len(indices)} tiles but its "
                    f"floorplan band holds only {len(ordered_tiles)}")
            for offset, slice_index in enumerate(indices):
                slice_tiles[slice_index] = ordered_tiles[offset]
        # Shared logic (output voters etc.) goes wherever tiles remain.
        used = {tile for tile in slice_tiles if tile is not None}
        free = [tile for tile in _serpentine_tiles(
            device, range(device.columns)) if tile not in used]
        for offset, slice_index in enumerate(shared):
            slice_tiles[slice_index] = free[offset]

    cell_tiles: Dict[str, Tuple[int, int]] = {}
    for slice_index, tile in enumerate(slice_tiles):
        for cell_name in pack_result.slices[slice_index].cells.values():
            cell_tiles[cell_name] = tile

    endpoints = _build_net_endpoints(definition, pack_result)
    wirelength = _wirelength(endpoints, cell_tiles)

    if anneal_moves_per_slice > 0 and num_slices > 2 and floorplan is None:
        wirelength = _anneal(definition, pack_result, device, slice_tiles,
                             endpoints, rng,
                             anneal_moves_per_slice * num_slices)
        # The anneal moves slices, not cells: rebuild the derived map once
        # instead of patching it on every accepted swap.
        for slice_index, tile in enumerate(slice_tiles):
            for cell_name in pack_result.slices[slice_index].cells.values():
                cell_tiles[cell_name] = tile

    port_pads = _assign_pads(definition, device)

    return Placement(
        device=device,
        slice_tiles=[tile for tile in slice_tiles],
        port_pads=port_pads,
        cell_tiles=cell_tiles,
        wirelength=wirelength,
    )


def _anneal(definition: Definition, pack_result: PackResult, device: Device,
            slice_tiles: List[Tuple[int, int]],
            endpoints: List[List[str]], rng: random.Random,
            moves: int) -> int:
    """Pairwise-swap simulated annealing on slice locations.

    Cost evaluation is incremental: nets are reduced to slice-index lists
    once, per-net half-perimeter lengths are cached, and a proposed swap
    recomputes only the touched nets' bounding boxes — the same integers
    the seed annealer produced by swapping cell tiles and re-deriving, so
    the accept/reject sequence (and the RNG stream) is unchanged.
    """
    # Nets as slice-index lists, plus nets touching each slice.
    net_slices, nets_of_slice = _net_tables(pack_result, endpoints)

    def net_length(net_index: int) -> int:
        xs = [slice_tiles[s][0] for s in net_slices[net_index]]
        ys = [slice_tiles[s][1] for s in net_slices[net_index]]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    lengths = [net_length(i) for i in range(len(endpoints))]
    current = sum(lengths)
    num_slices = len(slice_tiles)
    temperature = max(2.0, current / max(1, len(endpoints)) * 0.5)

    for move in range(moves):
        a = rng.randrange(num_slices)
        b = rng.randrange(num_slices)
        if a == b:
            continue
        affected = set(nets_of_slice.get(a, ())) | set(nets_of_slice.get(b, ()))
        before = sum(lengths[i] for i in affected)
        slice_tiles[a], slice_tiles[b] = slice_tiles[b], slice_tiles[a]
        new_lengths = {i: net_length(i) for i in affected}
        after = sum(new_lengths.values())
        delta = after - before
        if delta <= 0 or rng.random() < pow(2.718281828, -delta / temperature):
            current += delta
            for net_index, length in new_lengths.items():
                lengths[net_index] = length
        else:
            slice_tiles[a], slice_tiles[b] = slice_tiles[b], slice_tiles[a]
        if move and move % max(1, moves // 10) == 0:
            temperature = max(temperature * 0.7, 0.05)
    return current


def _net_tables(pack_result: PackResult, endpoints: List[List[str]]
                ) -> Tuple[List[List[int]], Dict[int, List[int]]]:
    """Nets as slice-index lists plus the nets touching each slice."""
    cell_slice: Dict[str, int] = {}
    for slice_index, assignment in enumerate(pack_result.slices):
        for cell in assignment.cells.values():
            cell_slice[cell] = slice_index
    net_slices: List[List[int]] = []
    nets_of_slice: Dict[int, List[int]] = {}
    for net_index, cells in enumerate(endpoints):
        slices_of_net: List[int] = []
        seen_slices = set()
        for cell in cells:
            slice_index = cell_slice[cell]
            if slice_index not in seen_slices:
                seen_slices.add(slice_index)
                slices_of_net.append(slice_index)
                nets_of_slice.setdefault(slice_index, []).append(net_index)
        net_slices.append(slices_of_net)
    return net_slices, nets_of_slice


def _assign_pads(definition: Definition, device: Device
                 ) -> Dict[Tuple[str, int], int]:
    """Deterministic port-bit to pad assignment.

    Signals are spread evenly around the whole pad ring so that the routes
    into the placement window do not all squeeze through one corner of the
    array — the same reason board designers distribute a wide bus over
    several package banks.
    """
    signals: List[Tuple[str, int]] = []
    for port in definition.ports.values():
        for bit in port.bits():
            signals.append((port.name, bit))

    if len(signals) > device.num_pads:
        raise ValueError(
            f"design needs {len(signals)} pads but {device.spec.name} has "
            f"only {device.num_pads}")

    port_pads: Dict[Tuple[str, int], int] = {}
    if not signals:
        return port_pads
    stride = device.num_pads / len(signals)
    used: set = set()
    for index, key in enumerate(signals):
        pad = min(int(index * stride), device.num_pads - 1)
        while pad in used:
            pad = (pad + 1) % device.num_pads
        used.add(pad)
        port_pads[key] = pad
    return port_pads
