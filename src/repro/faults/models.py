"""Fault models: translate one flipped configuration bit into its behavioural
effect on the implemented design.

The :class:`FaultModeler` owns all the cross-references between the
configuration layout, the used-resource database, the routed netlist and the
compiled simulation model.  Given a bit address it returns a
:class:`FaultEffect` carrying

* the Table 4 effect category (LUT / MUX / Initialization / Open / Bridge /
  Input-Antenna / Conflict / Others), and
* a :class:`~repro.sim.overlay.FaultOverlay` describing exactly how the
  simulated design behaves with that bit flipped (possibly empty when the
  upset provably cannot change any signal).

Operational definitions of the routing categories (all PIP bits are
independent pass-transistor-style bits in our fabric model):

* used PIP turned off                                  -> **Open**: every sink
  reached through the PIP's destination node floats (reads X).
* new PIP onto a *used* input-mux / pad node from a driven signal
                                                        -> **Bridge**: that sink
  reads the short of its own signal and the intruding one (unknown whenever
  the two disagree).
* new PIP shorting two *used, driven* wires             -> **Conflict**: the
  downstream sinks of both nets read the shorted (indeterminate-on-disagree)
  value — the mechanism by which one upset corrupts two TMR domains at once.
* new PIP from a driven signal onto an *unused* input node
                                                        -> **Input-Antenna**:
  harmless unless the node is an unused physical input of a used LUT, in
  which case the LUT output is forced low whenever the stray signal is high
  (the physical truth table holds zeros in the entries the stray input
  addresses).
* anything else                                         -> **Others** /
  **Bridge** with no behavioural effect.

Campaigns memoize modelled effects in :class:`EffectColumns`, which keeps
per bit a row of :data:`EFFECT_ROWS` and the detail string, and an
overlay only where the bit changes the design.
"""

from __future__ import annotations

import dataclasses
import threading
from array import array
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..fpga.bitgen import UsedResources
from ..fpga.config import (KIND_LUT_BIT, KIND_PIP, KIND_SLICE_CFG,
                           ConfigLayout, Resource)
from ..fpga.device import FF_PAIRED_LUT, Device
from ..fpga.routing import Pip
from ..pnr.flow import Implementation
from ..pnr.route import SinkSpec
from ..sim.compile import CompiledDesign
from ..sim.overlay import (BLEND_AND_NOT, BLEND_SHORT, FaultOverlay,
                           SourceOverride)
from . import categories

#: Slice input pins that are physical LUT inputs, mapped to (slot, position).
_LUT_PIN_TO_SLOT = {
    "F1": ("F", 0), "F2": ("F", 1), "F3": ("F", 2), "F4": ("F", 3),
    "G1": ("G", 0), "G2": ("G", 1), "G3": ("G", 2), "G4": ("G", 3),
}

#: Serializes :meth:`EffectColumns.add` (appends are short and rare
#: next to the modelling that precedes them).
_APPEND_LOCK = threading.Lock()

#: The two constant overrides, shared by every overlay that uses one.
_FLOATING = SourceOverride.floating()
_STUCK_HIGH = SourceOverride.constant(1)


@dataclasses.dataclass
class FaultEffect:
    """The modelled consequence of flipping one configuration bit."""

    bit: int
    resource: Resource
    category: str
    overlay: FaultOverlay
    detail: str = ""

    @property
    def has_effect(self) -> bool:
        return not self.overlay.is_empty()


class EffectRow(NamedTuple):
    """The verdict surface one modelled effect shares with many others."""

    resource_kind: str
    category: str
    has_effect: bool


#: Every verdict surface an effect can have, in a fixed order: a row index
#: means the same in every process, so shard payloads and checkpoints
#: carry small integers instead of strings.
EFFECT_ROWS: Tuple[EffectRow, ...] = tuple(
    EffectRow(kind, category, has_effect)
    for kind in (KIND_LUT_BIT, KIND_SLICE_CFG, KIND_PIP)
    for category in categories.TABLE4_ORDER
    for has_effect in (False, True))

#: :data:`EFFECT_ROWS` position of each row.
EFFECT_ROW_INDEX: Dict[Tuple[str, str, bool], int] = {
    row: index for index, row in enumerate(EFFECT_ROWS)}

#: What an effect is memoized under: its bit, or a multi-bit cluster.
EffectKey = Union[int, Tuple[int, ...]]


class EffectColumns:
    """Modelled effects stored as columns, one slot per distinct key.

    A key is a bit (a single-bit effect) or a bit tuple (the merged
    effect of one multi-bit injection).  Per slot the columns hold the
    effect's :data:`EFFECT_ROWS` index, its primary bit, its resource
    and its detail string; a :class:`FaultOverlay` is kept only for
    effectful slots, so most bits that change nothing cost no objects.
    :meth:`effect` rebuilds a :class:`FaultEffect` view on access.

    Appends hold a lock (the service's worker threads share one memo
    per implementation): the columns must stay aligned.  Two threads
    modelling the same key both compute it; the first append wins.  The
    lock is module-wide, so a memo pickles like plain data.
    """

    def __init__(self) -> None:
        self._slot_of: Dict[EffectKey, int] = {}
        #: slot -> key, bit and resource of the effect
        self.keys: List[EffectKey] = []
        self.bits = array("q")
        self.resources: List[Resource] = []
        #: slot -> EFFECT_ROWS index
        self.rows = array("B")
        self.details: List[str] = []
        #: slot -> overlay, effectful (or seed-carrying) slots only
        self.overlays: Dict[int, FaultOverlay] = {}

    def slot_of(self, key: EffectKey) -> Optional[int]:
        return self._slot_of.get(key)

    def add(self, key: EffectKey, effect: FaultEffect) -> int:
        """Store *effect* under *key*; the slot of the stored effect."""
        overlay = effect.overlay
        has_effect = not overlay.is_empty()
        # EffectRow hashes as the plain tuple it is.
        row = EFFECT_ROW_INDEX[(effect.resource[0], effect.category,
                                has_effect)]
        with _APPEND_LOCK:
            slot = self._slot_of.get(key)
            if slot is not None:
                return slot
            slot = len(self.keys)
            self.keys.append(key)
            self.bits.append(effect.bit)
            self.resources.append(effect.resource)
            self.rows.append(row)
            self.details.append(effect.detail)
            # An empty overlay may still name seed nets (an open with no
            # sinks left); a multi-bit merge unions those, so keep it.
            if has_effect or overlay.seed_nets:
                self.overlays[slot] = overlay
            self._slot_of[key] = slot
        return slot

    def effect(self, slot: int) -> FaultEffect:
        """A :class:`FaultEffect` view of one slot (built per call)."""
        overlay = self.overlays.get(slot)
        return FaultEffect(self.bits[slot], self.resources[slot],
                           EFFECT_ROWS[self.rows[slot]].category,
                           overlay if overlay is not None
                           else FaultOverlay(), self.details[slot])


class FaultModeler:
    """Maps configuration bits of an implementation onto fault overlays."""

    def __init__(self, implementation: Implementation,
                 compiled: CompiledDesign) -> None:
        self.implementation = implementation
        self.compiled = compiled
        self.device: Device = implementation.device
        self.layout: ConfigLayout = implementation.layout
        self.resources: UsedResources = implementation.resources
        self.routing = implementation.routing
        self._net_id = compiled.net_index
        self._gate_index = compiled.gate_index_by_name
        self._ff_index = compiled.ff_index_by_name
        #: one instance per distinct net/blend override (they are frozen)
        self._overrides: Dict[SourceOverride, SourceOverride] = {}

    def _shared(self, override: SourceOverride) -> SourceOverride:
        return self._overrides.setdefault(override, override)

    # ------------------------------------------------------------------
    def effect_of_bit(self, bit: int) -> FaultEffect:
        resource = self.layout.resource_of(bit)
        kind = resource[0]
        if kind == KIND_LUT_BIT:
            return self._lut_effect(bit, resource)
        if kind == KIND_SLICE_CFG:
            return self._slice_cfg_effect(bit, resource)
        return self._pip_effect(bit, resource)

    # ------------------------------------------------------------------
    # CLB logic bits
    # ------------------------------------------------------------------
    def _lut_effect(self, bit: int, resource: Resource) -> FaultEffect:
        _, x, y, slot, table_bit = resource
        site = self.resources.lut_site_at(x, y, slot)
        overlay = FaultOverlay(description=f"LUT bit {table_bit} at "
                               f"({x},{y}) {slot}")
        if site is None:
            return FaultEffect(bit, resource, categories.LUT, overlay,
                               "unused LUT site")
        if table_bit >= (1 << site.logical_inputs):
            return FaultEffect(bit, resource, categories.LUT, overlay,
                               "upset in unused truth-table region")
        gate_index = self._gate_index.get(site.cell)
        if gate_index is None:
            return FaultEffect(bit, resource, categories.LUT, overlay,
                               "cell not in compiled design")
        gate = self.compiled.gates[gate_index]
        overlay.lut_init_overrides[gate_index] = gate.init ^ (1 << table_bit)
        overlay.seed_nets = (gate.output_net,)
        return FaultEffect(bit, resource, categories.LUT, overlay,
                           f"minterm {table_bit} of {site.cell} flipped")

    def _slice_cfg_effect(self, bit: int, resource: Resource) -> FaultEffect:
        _, x, y, name = resource
        overlay = FaultOverlay(description=f"slice cfg {name} at ({x},{y})")
        if name == "CLKINV":
            category = categories.MUX
            return FaultEffect(bit, resource, category, overlay,
                               "clock polarity bit (no functional model)")

        suffix = "FFX" if name.startswith("FFX") else "FFY"
        site = self.resources.ff_site_at(x, y, suffix)
        if name.endswith("_INIT") or name.endswith("_SRMODE"):
            category = categories.INITIALIZATION
        else:
            category = categories.MUX
        if site is None:
            return FaultEffect(bit, resource, category, overlay,
                               "unused flip-flop site")
        ff_index = self._ff_index.get(site.cell)
        if ff_index is None:
            return FaultEffect(bit, resource, category, overlay,
                               "cell not in compiled design")
        flip_flop = self.compiled.flip_flops[ff_index]

        if name.endswith("_INIT"):
            overlay.ff_init_overrides[ff_index] = 1 - site.init_value
            overlay.seed_nets = (flip_flop.q_net,)
            detail = f"power-up value of {site.cell} flipped"
        elif name.endswith("_DMUX"):
            overlay.seed_nets = (flip_flop.q_net,)
            if site.data_from_lut:
                # Data now comes from the unrouted bypass pin: floating.
                overlay.ff_pin_overrides[(ff_index, "D")] = _FLOATING
                detail = f"{site.cell} data input detached from its LUT"
            else:
                paired = self.resources.lut_site_at(x, y,
                                                    FF_PAIRED_LUT[suffix])
                if paired is None:
                    overlay.ff_pin_overrides[(ff_index, "D")] = _FLOATING
                    detail = f"{site.cell} data input switched to empty LUT"
                else:
                    paired_gate = self.compiled.gates[
                        self._gate_index[paired.cell]]
                    overlay.ff_pin_overrides[(ff_index, "D")] = \
                        self._shared(SourceOverride.net(
                            paired_gate.output_net))
                    detail = (f"{site.cell} data input switched to "
                              f"{paired.cell}")
        elif name.endswith("_CEMUX"):
            overlay.seed_nets = (flip_flop.q_net,)
            if site.uses_clock_enable:
                overlay.ff_pin_overrides[(ff_index, "CE")] = _STUCK_HIGH
                detail = f"{site.cell} clock enable stuck active"
            else:
                overlay.ff_pin_overrides[(ff_index, "CE")] = _FLOATING
                detail = f"{site.cell} clock enable floating"
        else:  # _SRMODE
            detail = "set/reset mode bit (no functional model)"
        return FaultEffect(bit, resource, category, overlay, detail)

    # ------------------------------------------------------------------
    # Routing bits
    # ------------------------------------------------------------------
    def _pip_effect(self, bit: int, resource: Resource) -> FaultEffect:
        pip: Pip = (resource[1], resource[2])
        source, destination = pip
        if pip in self.resources.used_pips:
            return self._open_effect(bit, resource, pip)
        return self._new_pip_effect(bit, resource, pip)

    def _open_effect(self, bit: int, resource: Resource,
                     pip: Pip) -> FaultEffect:
        net_name = self.resources.used_pips[pip]
        overlay = FaultOverlay(description=f"open on net {net_name}")
        tree = self.routing.routes.get(net_name)
        if tree is None:
            return FaultEffect(bit, resource, categories.OPEN, overlay,
                               "route tree missing")
        affected = tree.sinks_through(pip[1])
        for spec in affected:
            self._override_sink(overlay, spec, _FLOATING)
        net_id = self._net_id.get(net_name, -1)
        overlay.seed_nets = (net_id,) if net_id >= 0 else ()
        return FaultEffect(bit, resource, categories.OPEN, overlay,
                           f"{len(affected)} sink(s) of {net_name} float")

    def _new_pip_effect(self, bit: int, resource: Resource,
                        pip: Pip) -> FaultEffect:
        source, destination = pip
        source_net = self.routing.node_owner.get(source)
        dest_net = self.routing.node_owner.get(destination)
        dest_kind = destination[0]

        if dest_net is not None and source_net is not None and \
                source_net != dest_net:
            if dest_kind == "wire":
                return self._conflict_effect(bit, resource, pip, source_net,
                                             dest_net)
            return self._bridge_effect(bit, resource, pip, source_net,
                                       dest_net)
        if dest_net is not None and source_net is None:
            overlay = FaultOverlay(
                description=f"bridge of {dest_net} to an undriven wire")
            return FaultEffect(bit, resource, categories.BRIDGE, overlay,
                               "used signal bridged to floating wire "
                               "(no logical effect)")
        if source_net is not None and dest_net is None:
            return self._antenna_effect(bit, resource, pip, source_net)
        overlay = FaultOverlay(description="PIP between unused resources")
        return FaultEffect(bit, resource, categories.OTHERS, overlay,
                           "both ends unused")

    def _conflict_effect(self, bit: int, resource: Resource, pip: Pip,
                         source_net: str, dest_net: str) -> FaultEffect:
        overlay = FaultOverlay(
            description=f"conflict between {source_net} and {dest_net}")
        source_id = self._net_id.get(source_net, -1)
        dest_id = self._net_id.get(dest_net, -1)
        blend = self._shared(SourceOverride.blend_of(dest_id, source_id,
                                                     BLEND_SHORT))
        affected = 0
        dest_tree = self.routing.routes.get(dest_net)
        if dest_tree is not None:
            for spec in dest_tree.sinks_through(pip[1]):
                self._override_sink(overlay, spec, blend)
                affected += 1
        source_tree = self.routing.routes.get(source_net)
        if source_tree is not None and pip[0] in source_tree.nodes():
            reverse_blend = self._shared(SourceOverride.blend_of(
                source_id, dest_id, BLEND_SHORT))
            for spec in source_tree.sinks_through(pip[0]):
                self._override_sink(overlay, spec, reverse_blend)
                affected += 1
        overlay.seed_nets = tuple(n for n in (source_id, dest_id) if n >= 0)
        overlay.comb_passes = 3
        return FaultEffect(bit, resource, categories.CONFLICT, overlay,
                           f"{affected} sink(s) see the short of "
                           f"{source_net} and {dest_net}")

    def _bridge_effect(self, bit: int, resource: Resource, pip: Pip,
                       source_net: str, dest_net: str) -> FaultEffect:
        overlay = FaultOverlay(
            description=f"bridge of {source_net} onto {dest_net} at "
            f"{pip[1]}")
        source_id = self._net_id.get(source_net, -1)
        dest_id = self._net_id.get(dest_net, -1)
        blend = self._shared(SourceOverride.blend_of(dest_id, source_id,
                                                     BLEND_SHORT))
        affected = 0
        dest_tree = self.routing.routes.get(dest_net)
        if dest_tree is not None:
            for spec in dest_tree.sinks_through(pip[1]):
                self._override_sink(overlay, spec, blend)
                affected += 1
        overlay.seed_nets = tuple(n for n in (source_id, dest_id) if n >= 0)
        overlay.comb_passes = 3
        return FaultEffect(bit, resource, categories.BRIDGE, overlay,
                           f"{affected} sink(s) of {dest_net} shorted with "
                           f"{source_net}")

    def _antenna_effect(self, bit: int, resource: Resource, pip: Pip,
                        source_net: str) -> FaultEffect:
        destination = pip[1]
        overlay = FaultOverlay(
            description=f"antenna from {source_net} onto {destination}")
        if destination[0] != "ipin":
            return FaultEffect(bit, resource, categories.INPUT_ANTENNA,
                               overlay, "stray drive of an unused wire")
        _, x, y, pin = destination
        slot_info = _LUT_PIN_TO_SLOT.get(pin)
        if slot_info is None:
            return FaultEffect(bit, resource, categories.INPUT_ANTENNA,
                               overlay, "stray drive of an unused control pin")
        slot, position = slot_info
        site = self.resources.lut_site_at(x, y, slot)
        if site is None or position < site.logical_inputs:
            return FaultEffect(bit, resource, categories.INPUT_ANTENNA,
                               overlay, "stray drive of an unused LUT input")
        # A used LUT whose physical input `position` is unused: driving it
        # high addresses the all-zero upper half of the physical table.
        gate_index = self._gate_index.get(site.cell)
        if gate_index is None:
            return FaultEffect(bit, resource, categories.INPUT_ANTENNA,
                               overlay, "cell not in compiled design")
        gate = self.compiled.gates[gate_index]
        source_id = self._net_id.get(source_net, -1)
        overlay.net_overrides[gate.output_net] = self._shared(
            SourceOverride.blend_of(gate.output_net, source_id,
                                    BLEND_AND_NOT))
        overlay.seed_nets = (gate.output_net,)
        overlay.comb_passes = 3
        return FaultEffect(bit, resource, categories.INPUT_ANTENNA, overlay,
                           f"unused input of {site.cell} driven by "
                           f"{source_net}")

    # ------------------------------------------------------------------
    def _override_sink(self, overlay: FaultOverlay, spec: SinkSpec,
                       override: SourceOverride) -> None:
        """Attach an override to the right simulator entity for one sink."""
        if spec.cell is None:
            overlay.output_pin_overrides[(spec.port, spec.bit)] = override
            return
        gate_index = self._gate_index.get(spec.cell)
        if gate_index is not None:
            position = int(spec.port[1:]) if spec.port.startswith("I") else 0
            overlay.gate_pin_overrides[(gate_index, position)] = override
            return
        ff_index = self._ff_index.get(spec.cell)
        if ff_index is not None:
            port = spec.port
            if port in ("R", "CLR"):
                port = "R"
            overlay.ff_pin_overrides[(ff_index, port)] = override
