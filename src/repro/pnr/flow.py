"""End-to-end implementation flow: pack → place → route → bitstream.

:func:`implement` is the one-call entry point used by the experiments: it
takes a flat primitive netlist, selects (or accepts) a device, and returns an
:class:`Implementation` bundling every artefact the fault-injection campaign
and the resource reports need.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..fpga.bitgen import UsedResources, generate_bitstream
from ..fpga.config import ConfigLayout, ConfigMemory, shared_layout
from ..fpga.device import Device
from ..fpga.spartan2e import smallest_device_for
from ..netlist.ir import Definition
from .artifacts import StoreLike, flow_fingerprint, resolve_store
from .pack import PackResult, pack
from .place import Floorplan, Placement, place
from .route import RoutingResult, route_design
from .timing import TimingReport, estimate_timing


@dataclasses.dataclass
class Implementation:
    """A fully implemented design on a device."""

    design: Definition
    device: Device
    packing: PackResult
    placement: Placement
    routing: RoutingResult
    timing: TimingReport
    bitstream: ConfigMemory
    layout: ConfigLayout
    resources: UsedResources

    @property
    def slice_count(self) -> int:
        return sum(1 for s in self.packing.slices if not s.is_empty())

    def summary(self) -> Dict[str, object]:
        stats = self.resources.stats
        return {
            "design": self.design.name,
            "device": self.device.spec.name,
            "slices": self.slice_count,
            "luts": self.packing.num_luts,
            "ffs": self.packing.num_ffs,
            "routed_nets": len(self.routing.routes),
            "routing_bits": stats.routing_bits,
            "lut_bits": stats.lut_bits,
            "ff_bits": stats.ff_bits,
            "fmax_mhz": round(self.timing.fmax_mhz, 1),
        }


def implement(definition: Definition, device: Optional[Device] = None,
              seed: int = 1, floorplan: Optional[Floorplan] = None,
              anneal_moves_per_slice: int = 4,
              router_iterations: int = 20,
              target_utilization: float = 0.55,
              artifact_store: StoreLike = None) -> Implementation:
    """Implement a flat netlist on a device.

    When *device* is omitted the smallest profile that fits the design at a
    comfortable utilization is selected automatically.  If the router cannot
    resolve congestion, the flow retries with a sparser placement (lower
    utilization target) before giving up — the same escalation a human would
    apply.

    *artifact_store* (a directory path or
    :class:`~repro.pnr.artifacts.FlowArtifactStore`) enables the persistent
    flow cache: the call's inputs are fingerprinted, a stored
    implementation with that fingerprint is returned directly, and a miss
    stores the freshly computed one.  The flow is deterministic in its
    fingerprinted inputs, so cached and recomputed implementations are
    bit-identical.
    """
    from .route import RoutingError

    store = resolve_store(artifact_store)
    fingerprint = None

    def lookup(target_device: Device):
        return flow_fingerprint(
            definition, target_device, seed=seed, floorplan=floorplan,
            anneal_moves_per_slice=anneal_moves_per_slice,
            router_iterations=router_iterations,
            target_utilization=target_utilization)

    # With an explicit device the cache can answer before packing; the
    # auto-sized path needs the pack statistics to pick the device first.
    if store is not None and device is not None:
        fingerprint = lookup(device)
        cached = store.load(fingerprint, definition)
        if cached is not None:
            return cached

    packed = pack(definition)
    if device is None:
        device = smallest_device_for(packed.num_luts, packed.num_ffs)
        if store is not None:
            fingerprint = lookup(device)
            cached = store.load(fingerprint, definition)
            if cached is not None:
                return cached
    layout = shared_layout(device)

    placement = None
    routing = None
    utilization = target_utilization
    attempts = 3
    for attempt in range(attempts):
        placement = place(definition, packed, device, seed=seed + attempt,
                          floorplan=floorplan,
                          anneal_moves_per_slice=anneal_moves_per_slice,
                          target_utilization=utilization)
        try:
            routing = route_design(definition, packed, placement, device,
                                   max_iterations=router_iterations
                                   + 8 * attempt)
            break
        except RoutingError:
            if attempt == attempts - 1 or floorplan is not None:
                raise
            utilization = max(0.25, utilization * 0.7)
    timing = estimate_timing(definition, placement)
    bitstream, resources, layout = generate_bitstream(
        definition, device, packed, placement, routing, layout)

    implementation = Implementation(
        design=definition,
        device=device,
        packing=packed,
        placement=placement,
        routing=routing,
        timing=timing,
        bitstream=bitstream,
        layout=layout,
        resources=resources,
    )
    if store is not None and fingerprint is not None:
        store.store(fingerprint, implementation)
    return implementation
