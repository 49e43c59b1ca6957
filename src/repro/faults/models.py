"""Fault models: translate one flipped configuration bit into its behavioural
effect on the implemented design.

The :class:`FaultModeler` owns all the cross-references between the
configuration layout, the used-resource database, the routed netlist and the
compiled simulation model.  Given a bit address it writes

* the Table 4 effect category (LUT / MUX / Initialization / Open / Bridge /
  Input-Antenna / Conflict / Others), and
* the override rows describing exactly how the simulated design behaves
  with that bit flipped (none when the upset provably cannot change any
  signal)

into a slot of :class:`EffectColumns`, with no Python object per bit:
each override is one row of plain integers
(:class:`~repro.sim.overlay.OverlayColumns`), and the sink targets of a
routing node are worked out once per modeler.  A
:class:`~repro.sim.overlay.FaultOverlay` (and a :class:`FaultEffect`
around it) is only a view built on demand.

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
per bit a row of :data:`EFFECT_ROWS`, the detail string and the override
columns.
"""

from __future__ import annotations

import dataclasses
import threading
from array import array
from typing import (Dict, Iterable, List, NamedTuple, Optional, Tuple,
                    TypeVar, Union)

from ..fpga.bitgen import FlipFlopSite, LutSite, UsedResources
from ..fpga.config import (KIND_LUT_BIT, KIND_PIP, KIND_SLICE_CFG,
                           ConfigLayout, Resource)
from ..fpga.device import FF_PAIRED_LUT, Device
from ..fpga.routing import Pip
from ..pnr.flow import Implementation
from ..pnr.route import SinkSpec
from ..sim.compile import CompiledDesign
from ..sim.overlay import (BLEND_AND_NOT, BLEND_SHORT, FF_PORTS, FLOATING,
                           OVERRIDE_WIDTH, ROW_FF_INIT, ROW_FF_PIN,
                           ROW_GATE_PIN, ROW_LUT_INIT, ROW_NET,
                           ROW_OUTPUT_PIN, FaultOverlay, OverlayColumns,
                           SourceOverride)
from . import categories

#: Slice input pins that are physical LUT inputs, mapped to (slot, position).
_LUT_PIN_TO_SLOT = {
    "F1": ("F", 0), "F2": ("F", 1), "F3": ("F", 2), "F4": ("F", 3),
    "G1": ("G", 0), "G2": ("G", 1), "G3": ("G", 2), "G4": ("G", 3),
}

#: Serializes writes to every :class:`EffectColumns` (modelling a missing
#: bit included), so a memo's columns stay aligned.
_APPEND_LOCK = threading.Lock()

_FF_D = FF_PORTS.index("D")
_FF_CE = FF_PORTS.index("CE")
_STUCK_HIGH = SourceOverride.constant(1)

#: An occupied LUT or flip-flop site.
Site = TypeVar("Site", LutSite, FlipFlopSite)

#: Per (net, node): the number of sinks through the node, then the
#: ``row kind, target, argument`` of each sink that gets an override,
#: flat (a flat tuple of atoms is one object the collector untracks).
_SinkTargets = Tuple[object, ...]


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

#: What :meth:`FaultModeler.write_bit` returns next to the rows it
#: writes: resource, category, detail, seed nets and combinational
#: settle passes.
Modelled = Tuple[Resource, str, str, Tuple[int, ...], int]


class EffectColumns(OverlayColumns):
    """Modelled effects stored as columns, one slot per distinct key.

    A key is a bit (a single-bit effect) or a bit tuple (the merged
    effect of one multi-bit injection).  Per slot the columns hold the
    effect's :data:`EFFECT_ROWS` index, its primary bit, its resource
    and its detail string, and, as :class:`~repro.sim.overlay.
    OverlayColumns`, its override rows, settle passes and seed nets: no
    Python object is kept per effect.  :meth:`effect`
    and :meth:`overlay` build :class:`FaultEffect` and
    :class:`FaultOverlay` views on access, for the serial backend and
    the multi-bit merge.

    Appends hold a lock (the service's worker threads share one memo
    per implementation): the columns must stay aligned.  A bit is
    modelled under the lock, straight into the columns; a key already
    stored returns its slot.  The lock is module-wide, so a memo
    pickles like plain data.
    """

    def __init__(self) -> None:
        super().__init__()
        self._slot_of: Dict[EffectKey, int] = {}
        #: slot -> key, bit and resource of the effect
        self.keys: List[EffectKey] = []
        self.bits = array("q")
        self.resources: List[Resource] = []
        #: slot -> EFFECT_ROWS index
        self.rows = array("B")
        self.details: List[str] = []

    def slot_of(self, key: EffectKey) -> Optional[int]:
        return self._slot_of.get(key)

    def add(self, key: EffectKey, effect: FaultEffect) -> int:
        """Store *effect* under *key*; the slot of the stored effect."""
        overlay = effect.overlay
        with _APPEND_LOCK:
            slot = self._slot_of.get(key)
            if slot is not None:
                return slot
            self.write_rows(overlay)
            return self._close(key, effect.bit, (
                effect.resource, effect.category, effect.detail,
                overlay.seed_nets, overlay.comb_passes))

    def model_bits(self, bits: Iterable[int],
                   modeler: "FaultModeler") -> int:
        """Model every bit of *bits* not stored yet; how many were not.

        The lock is only taken when a bit is missing: a process forked
        while another thread holds it still reads every bit it
        inherited.
        """
        slot_of = self._slot_of
        missing = [bit for bit in bits if bit not in slot_of]
        if missing:
            overrides = self.overrides
            write = modeler.write_bit
            with _APPEND_LOCK:
                for bit in missing:
                    if bit in slot_of:
                        continue
                    mark = len(overrides)
                    try:
                        modelled = write(self, bit)
                    except BaseException:
                        del overrides[mark:]
                        raise
                    self._close(bit, bit, modelled)
        return len(missing)

    def slots(self, keys: Iterable[EffectKey]) -> array:
        """The slot of every key (each must be stored)."""
        return array("i", map(self._slot_of.__getitem__, keys))

    def _close(self, key: EffectKey, bit: int, modelled: Modelled) -> int:
        resource, category, detail, seeds, comb = modelled
        has_effect = len(self.overrides) > self.row_start[-1] * \
            OVERRIDE_WIDTH
        slot = self.close_slot(seeds, comb)
        self.keys.append(key)
        self.bits.append(bit)
        self.resources.append(resource)
        self.rows.append(EFFECT_ROW_INDEX[(resource[0], category,
                                           has_effect)])
        self.details.append(detail)
        self._slot_of[key] = slot
        return slot

    def effect(self, slot: int) -> FaultEffect:
        """A :class:`FaultEffect` view of one slot (built per call)."""
        return FaultEffect(self.bits[slot], self.resources[slot],
                           EFFECT_ROWS[self.rows[slot]].category,
                           self.overlay(slot), self.details[slot])


class FaultModeler:
    """Maps configuration bits of an implementation onto override rows."""

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
        #: (x, y, slot) -> the occupied LUT / flip-flop site there
        self.lut_sites = _site_index(self.resources.lut_sites)
        self.ff_sites = _site_index(self.resources.ff_sites)
        #: (net, node) -> (sinks through the node, their override targets)
        self._targets: Dict[Tuple[str, object], _SinkTargets] = {}

    # ------------------------------------------------------------------
    def effect_of_bit(self, bit: int) -> FaultEffect:
        """A :class:`FaultEffect` view of *bit*, modelled on its own."""
        columns = OverlayColumns()
        resource, category, detail, seeds, comb = \
            self.write_bit(columns, bit)
        slot = columns.close_slot(seeds, comb)
        return FaultEffect(bit, resource, category, columns.overlay(slot),
                           detail)

    def write_bit(self, columns: OverlayColumns, bit: int) -> Modelled:
        """Append *bit*'s override rows to *columns*' open slot.

        Returns the rest of the effect (see :data:`Modelled`); the
        caller closes the slot.
        """
        resource = self.layout.resource_of(bit)
        kind = resource[0]
        if kind == KIND_LUT_BIT:
            return self._lut_effect(columns, resource)
        if kind == KIND_SLICE_CFG:
            return self._slice_cfg_effect(columns, resource)
        return self._pip_effect(columns, resource)

    # ------------------------------------------------------------------
    # CLB logic bits
    # ------------------------------------------------------------------
    def _lut_effect(self, columns: OverlayColumns,
                    resource: Resource) -> Modelled:
        _, x, y, slot, table_bit = resource
        site = self.lut_sites.get((x, y, slot))
        if site is None:
            return (resource, categories.LUT, "unused LUT site", (), 1)
        if table_bit >= (1 << site.logical_inputs):
            return (resource, categories.LUT,
                    "upset in unused truth-table region", (), 1)
        gate_index = self._gate_index.get(site.cell)
        if gate_index is None:
            return (resource, categories.LUT, "cell not in compiled design",
                    (), 1)
        gate = self.compiled.gates[gate_index]
        columns.overrides.extend(
            (ROW_LUT_INIT, gate_index, gate.init ^ (1 << table_bit))
            + FLOATING)
        return (resource, categories.LUT,
                f"minterm {table_bit} of {site.cell} flipped",
                (gate.output_net,), 1)

    def _slice_cfg_effect(self, columns: OverlayColumns,
                          resource: Resource) -> Modelled:
        _, x, y, name = resource
        if name == "CLKINV":
            return (resource, categories.MUX,
                    "clock polarity bit (no functional model)", (), 1)

        suffix = "FFX" if name.startswith("FFX") else "FFY"
        site = self.ff_sites.get((x, y, suffix))
        if name.endswith("_INIT") or name.endswith("_SRMODE"):
            category = categories.INITIALIZATION
        else:
            category = categories.MUX
        if site is None:
            return (resource, category, "unused flip-flop site", (), 1)
        ff_index = self._ff_index.get(site.cell)
        if ff_index is None:
            return (resource, category, "cell not in compiled design", (), 1)
        flip_flop = self.compiled.flip_flops[ff_index]
        extend = columns.overrides.extend
        seeds: Tuple[int, ...] = (flip_flop.q_net,)

        if name.endswith("_INIT"):
            extend((ROW_FF_INIT, ff_index, 1 - site.init_value) + FLOATING)
            detail = f"power-up value of {site.cell} flipped"
        elif name.endswith("_DMUX"):
            source = FLOATING
            if site.data_from_lut:
                # Data now comes from the unrouted bypass pin: floating.
                detail = f"{site.cell} data input detached from its LUT"
            else:
                paired = self.lut_sites.get((x, y, FF_PAIRED_LUT[suffix]))
                if paired is None:
                    detail = f"{site.cell} data input switched to empty LUT"
                else:
                    paired_gate = self.compiled.gates[
                        self._gate_index[paired.cell]]
                    source = SourceOverride.net(paired_gate.output_net)
                    detail = (f"{site.cell} data input switched to "
                              f"{paired.cell}")
            extend((ROW_FF_PIN, ff_index, _FF_D) + source)
        elif name.endswith("_CEMUX"):
            if site.uses_clock_enable:
                extend((ROW_FF_PIN, ff_index, _FF_CE) + _STUCK_HIGH)
                detail = f"{site.cell} clock enable stuck active"
            else:
                extend((ROW_FF_PIN, ff_index, _FF_CE) + FLOATING)
                detail = f"{site.cell} clock enable floating"
        else:  # _SRMODE
            detail = "set/reset mode bit (no functional model)"
            seeds = ()
        return resource, category, detail, seeds, 1

    # ------------------------------------------------------------------
    # Routing bits
    # ------------------------------------------------------------------
    def _pip_effect(self, columns: OverlayColumns,
                    resource: Resource) -> Modelled:
        pip: Pip = (resource[1], resource[2])
        net_name = self.resources.used_pips.get(pip)
        if net_name is not None:
            return self._open_effect(columns, resource, pip, net_name)
        return self._new_pip_effect(columns, resource, pip)

    def _open_effect(self, columns: OverlayColumns, resource: Resource,
                     pip: Pip, net_name: str) -> Modelled:
        if net_name not in self.routing.routes:
            return (resource, categories.OPEN, "route tree missing", (), 1)
        sinks = self._write_sinks(columns, net_name, pip[1], FLOATING)
        net_id = self._net_id.get(net_name, -1)
        return (resource, categories.OPEN,
                f"{sinks} sink(s) of {net_name} float",
                (net_id,) if net_id >= 0 else (), 1)

    def _new_pip_effect(self, columns: OverlayColumns, resource: Resource,
                        pip: Pip) -> Modelled:
        source, destination = pip
        source_net = self.routing.node_owner.get(source)
        dest_net = self.routing.node_owner.get(destination)

        if dest_net is not None and source_net is not None and \
                source_net != dest_net:
            if destination[0] == "wire":
                return self._short_effect(columns, resource, pip, source_net,
                                          dest_net, conflict=True)
            return self._short_effect(columns, resource, pip, source_net,
                                      dest_net, conflict=False)
        if dest_net is not None and source_net is None:
            return (resource, categories.BRIDGE,
                    "used signal bridged to floating wire "
                    "(no logical effect)", (), 1)
        if source_net is not None and dest_net is None:
            return self._antenna_effect(columns, resource, pip, source_net)
        return (resource, categories.OTHERS, "both ends unused", (), 1)

    def _short_effect(self, columns: OverlayColumns, resource: Resource,
                      pip: Pip, source_net: str, dest_net: str,
                      conflict: bool) -> Modelled:
        """Conflict (two driven wires) or bridge (onto a used pin)."""
        source_id = self._net_id.get(source_net, -1)
        dest_id = self._net_id.get(dest_net, -1)
        affected = 0
        if dest_net in self.routing.routes:
            affected = self._write_sinks(
                columns, dest_net, pip[1],
                SourceOverride.blend_of(dest_id, source_id, BLEND_SHORT))
        seeds = tuple(n for n in (source_id, dest_id) if n >= 0)
        if not conflict:
            return (resource, categories.BRIDGE,
                    f"{affected} sink(s) of {dest_net} shorted with "
                    f"{source_net}", seeds, 3)
        if source_net in self.routing.routes:
            # No sinks when the PIP's source node is off the source tree.
            affected += self._write_sinks(
                columns, source_net, pip[0],
                SourceOverride.blend_of(source_id, dest_id, BLEND_SHORT))
        return (resource, categories.CONFLICT,
                f"{affected} sink(s) see the short of {source_net} and "
                f"{dest_net}", seeds, 3)

    def _antenna_effect(self, columns: OverlayColumns, resource: Resource,
                        pip: Pip, source_net: str) -> Modelled:
        destination = pip[1]
        if destination[0] != "ipin":
            return (resource, categories.INPUT_ANTENNA,
                    "stray drive of an unused wire", (), 1)
        _, x, y, pin = destination
        slot_info = _LUT_PIN_TO_SLOT.get(pin)
        if slot_info is None:
            return (resource, categories.INPUT_ANTENNA,
                    "stray drive of an unused control pin", (), 1)
        slot, position = slot_info
        site = self.lut_sites.get((x, y, slot))
        if site is None or position < site.logical_inputs:
            return (resource, categories.INPUT_ANTENNA,
                    "stray drive of an unused LUT input", (), 1)
        # A used LUT whose physical input `position` is unused: driving it
        # high addresses the all-zero upper half of the physical table.
        gate_index = self._gate_index.get(site.cell)
        if gate_index is None:
            return (resource, categories.INPUT_ANTENNA,
                    "cell not in compiled design", (), 1)
        out = self.compiled.gates[gate_index].output_net
        columns.overrides.extend(
            (ROW_NET, out, 0)
            + SourceOverride.blend_of(out, self._net_id.get(source_net, -1),
                                      BLEND_AND_NOT))
        return (resource, categories.INPUT_ANTENNA,
                f"unused input of {site.cell} driven by {source_net}",
                (out,), 3)

    # ------------------------------------------------------------------
    def _write_sinks(self, columns: OverlayColumns, net_name: str,
                     node: object, source: SourceOverride) -> int:
        """Override every sink of *net_name* served through *node*.

        Returns the number of sinks through the node (sinks whose cell
        the compiled design lacks get no row).
        """
        key = (net_name, node)
        targets = self._targets.get(key)
        if targets is None:
            specs = self.routing.routes[net_name].sinks_through(node)
            flat: List[object] = [len(specs)]
            for spec in specs:
                flat.extend(self._sink_target(spec))
            targets = self._targets[key] = tuple(flat)
        extend = columns.overrides.extend
        for index in range(1, len(targets), 3):
            kind, target, argument = targets[index:index + 3]
            if kind == ROW_OUTPUT_PIN:
                target = columns.port_id(target)
            extend((kind, target, argument) + source)
        return targets[0]

    def _sink_target(self, spec: SinkSpec) -> Tuple:
        """``(row kind, target, argument)`` overriding one sink, or ``()``."""
        if spec.cell is None:
            return (ROW_OUTPUT_PIN, spec.port, spec.bit)
        gate_index = self._gate_index.get(spec.cell)
        if gate_index is not None:
            position = int(spec.port[1:]) if spec.port.startswith("I") else 0
            return (ROW_GATE_PIN, gate_index, position)
        ff_index = self._ff_index.get(spec.cell)
        if ff_index is not None:
            port = "R" if spec.port in ("R", "CLR") else spec.port
            return (ROW_FF_PIN, ff_index, FF_PORTS.index(port))
        return ()


def _site_index(sites: Iterable[Site]) -> Dict[Tuple[int, int, str], Site]:
    """Sites by ``(x, y, slot)``; the first site wins, as in a list scan."""
    index: Dict[Tuple[int, int, str], Site] = {}
    for site in sites:
        index.setdefault((site.x, site.y, site.slot), site)
    return index
