"""Fault overlays: non-destructive modifications applied during simulation.

A :class:`FaultOverlay` describes how a single configuration-memory upset
changes the behaviour of the compiled design — without rebuilding or
recompiling the netlist.  The fault-injection manager translates each flipped
bit into one overlay; the simulator interprets it.

Supported effects:

* LUT INIT overrides (a flipped LUT truth-table bit);
* gate-input / flip-flop-input source overrides — read a constant, read a
  different net, or read the wired-AND/wired-OR blend of two nets (routing
  *Open*, *Bridge* and input-mux rewiring effects);
* net overrides — replace a net's value right after its driver writes it
  (routing *Conflict*: two driven wires shorted);
* flip-flop configuration overrides (initial value, clock-enable stuck,
  reset stuck).

Campaigns keep many overlays at once, so they store them as
:class:`OverlayColumns`: per override one row of :data:`OVERRIDE_WIDTH`
plain integers (row kind, target, argument and the
:class:`SourceOverride`'s kind, net a, net b, value and blend code), and
per overlay slot its range of rows, its settle passes and its seed nets.
No Python object is kept per overlay or per override;
:meth:`OverlayColumns.overlay` rebuilds a :class:`FaultOverlay` view of
one slot on demand.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from ..cells import logic

#: Pin/net override kinds (a :class:`SourceOverride` is all integers).
SOURCE_CONST = 0            # read a constant (0 / 1 / X)
SOURCE_NET = 1              # read another net
SOURCE_BLEND = 2            # combine two nets (wired-AND / wired-OR / X)

#: Blend modes for shorted signals, by code; :data:`BLEND_NAMES` holds
#: their names.
#: ``short`` is the default physical model for two driven signals fighting
#: through a pass transistor: when they agree the value survives, when they
#: disagree the node floats to an indeterminate level and *both* readers see
#: an unknown — which is precisely how a single routing upset can corrupt two
#: TMR domains in the same clock cycle.
BLEND_SHORT = 0
BLEND_WIRED_AND = 1
BLEND_WIRED_OR = 2
#: ``a AND NOT b`` — used when an antenna drives an unused LUT input whose
#: physical truth-table entries are zero (the output is forced low whenever
#: the stray signal is high).
BLEND_AND_NOT = 3
BLEND_UNKNOWN = 4
BLEND_NAMES = ("short", "wired_and", "wired_or", "and_not", "unknown")


class SourceOverride(NamedTuple):
    """Replacement source for a gate input, flip-flop input or net value.

    Five plain integers, so one override is also the source part of an
    :class:`OverlayColumns` row and a lane kernel operand as it is.
    """

    kind: int
    net_a: int = -1
    net_b: int = -1
    value: int = logic.UNKNOWN
    blend: int = BLEND_WIRED_AND

    @classmethod
    def constant(cls, value: int) -> "SourceOverride":
        return cls(SOURCE_CONST, value=value)

    @classmethod
    def floating(cls) -> "SourceOverride":
        """An open connection: the sink sees an unknown (floating) value."""
        return cls(SOURCE_CONST, value=logic.UNKNOWN)

    @classmethod
    def net(cls, net_index: int) -> "SourceOverride":
        return cls(SOURCE_NET, net_a=net_index)

    @classmethod
    def blend_of(cls, net_a: int, net_b: int,
                 mode: Union[int, str] = BLEND_SHORT) -> "SourceOverride":
        """A blend of two nets; *mode* is a ``BLEND_*`` code or name."""
        if isinstance(mode, str):
            mode = BLEND_NAMES.index(mode) if mode in BLEND_NAMES \
                else BLEND_UNKNOWN
        return cls(SOURCE_BLEND, net_a, net_b, blend=mode)

    def resolve(self, values: List[int]) -> int:
        """Compute the override value given the current net value array."""
        if self.kind == SOURCE_CONST:
            return self.value
        if self.kind == SOURCE_NET:
            return values[self.net_a] if self.net_a >= 0 else logic.UNKNOWN
        a = values[self.net_a] if self.net_a >= 0 else logic.UNKNOWN
        b = values[self.net_b] if self.net_b >= 0 else logic.UNKNOWN
        if self.blend == BLEND_SHORT:
            return logic.resolve_drivers([a, b])
        if self.blend == BLEND_WIRED_AND:
            return logic.and_(a, b)
        if self.blend == BLEND_WIRED_OR:
            return logic.or_(a, b)
        if self.blend == BLEND_AND_NOT:
            return logic.and_(a, logic.not_(b))
        return logic.UNKNOWN


#: The open connection, shared by every row and lane that floats a sink
#: (also the unused source part of INIT rows).
FLOATING = SourceOverride.floating()


@dataclasses.dataclass
class FaultOverlay:
    """The complete behavioural effect of one injected configuration upset."""

    #: gate index -> replacement INIT
    lut_init_overrides: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: (gate index, input position) -> override
    gate_pin_overrides: Dict[Tuple[int, int], SourceOverride] = \
        dataclasses.field(default_factory=dict)
    #: (flip-flop index, port name in {"D", "CE", "R"}) -> override
    ff_pin_overrides: Dict[Tuple[int, str], SourceOverride] = \
        dataclasses.field(default_factory=dict)
    #: flip-flop index -> replacement power-up value
    ff_init_overrides: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: net index -> override applied right after the net's driver writes it
    net_overrides: Dict[int, SourceOverride] = \
        dataclasses.field(default_factory=dict)
    #: (output port name, bit) -> override applied when sampling outputs
    #: (models routing upsets between the last logic and the output pad)
    output_pin_overrides: Dict[Tuple[str, int], SourceOverride] = \
        dataclasses.field(default_factory=dict)
    #: number of combinational settle passes per cycle (shorts can create
    #: backward dependencies; extra passes let them converge)
    comb_passes: int = 1
    #: nets where the fault first manifests (seed of the fault cone); the
    #: fault models store a tuple, which the collector stops tracking
    seed_nets: Sequence[int] = ()

    def is_empty(self) -> bool:
        """True when the upset provably cannot change any net value."""
        return not (self.lut_init_overrides or self.gate_pin_overrides or
                    self.ff_pin_overrides or self.ff_init_overrides or
                    self.net_overrides or self.output_pin_overrides)

    def required_passes(self) -> int:
        """Settle passes needed: more than one when shorts are present.

        The rule is :meth:`OverlayColumns.close_slot`'s, over this
        overlay's rows.
        """
        return OverlayColumns.of((self,)).passes[0]


# ----------------------------------------------------------------------
# Overlays as integer columns
# ----------------------------------------------------------------------
#: Override row kinds: what a row's target and argument name.
ROW_LUT_INIT = 0     # gate index; argument: the replacement INIT
ROW_GATE_PIN = 1     # gate index; argument: the input position
ROW_FF_PIN = 2       # flip-flop index; argument: its FF_PORTS index
ROW_FF_INIT = 3      # flip-flop index; argument: the power-up value
ROW_NET = 4          # net index; argument unused
ROW_OUTPUT_PIN = 5   # port id (OverlayColumns.ports); argument: the bit

#: Flip-flop ports an override can replace, by ``ROW_FF_PIN`` argument.
FF_PORTS = ("D", "CE", "R")
#: Integers per override row: kind, target, argument, then the source.
OVERRIDE_WIDTH = 8


class OverlayColumns:
    """Many fault overlays as integer columns, one slot per overlay.

    ``overrides`` holds one row of :data:`OVERRIDE_WIDTH` integers per
    override, row-major: the ``ROW_*`` kind, the target index, the
    argument (input position, flip-flop port, INIT or bit) and the five
    fields of the :class:`SourceOverride`.  Slot *s* owns rows
    ``row_start[s]`` up to ``row_start[s + 1]`` and the seed nets
    ``seed_nets[seed_start[s]:seed_start[s + 1]]``; ``passes[s]`` is
    its :meth:`FaultOverlay.required_passes`, and ``comb_passes``
    completes the :meth:`overlay` view.  Output-pin
    rows name their port by its index in ``ports``.  Columns only grow:
    a slot's rows never move once the slot is closed.
    """

    def __init__(self) -> None:
        self.overrides = array("q")
        self.row_start = array("i", [0])
        self.seed_nets = array("i")
        self.seed_start = array("i", [0])
        self.passes = array("B")
        self.comb_passes = array("B")
        self.ports: List[str] = []
        self._port_ids: Dict[str, int] = {}

    @classmethod
    def of(cls, overlays: Iterable[FaultOverlay]) -> "OverlayColumns":
        columns = cls()
        for overlay in overlays:
            columns.add_overlay(overlay)
        return columns

    def __len__(self) -> int:
        return len(self.passes)

    def port_id(self, port: str) -> int:
        port_id = self._port_ids.get(port)
        if port_id is None:
            port_id = self._port_ids[port] = len(self.ports)
            self.ports.append(port)
        return port_id

    def write_rows(self, overlay: FaultOverlay) -> None:
        """Append the rows of *overlay*'s overrides to the open slot."""
        extend = self.overrides.extend
        for gate, init in overlay.lut_init_overrides.items():
            extend((ROW_LUT_INIT, gate, init) + FLOATING)
        for (gate, position), override in overlay.gate_pin_overrides.items():
            extend((ROW_GATE_PIN, gate, position) + override)
        for (flip_flop, port), override in overlay.ff_pin_overrides.items():
            extend((ROW_FF_PIN, flip_flop, FF_PORTS.index(port)) + override)
        for flip_flop, value in overlay.ff_init_overrides.items():
            extend((ROW_FF_INIT, flip_flop, value) + FLOATING)
        for net, override in overlay.net_overrides.items():
            extend((ROW_NET, net, 0) + override)
        for (port, bit), override in overlay.output_pin_overrides.items():
            extend((ROW_OUTPUT_PIN, self.port_id(port), bit) + override)

    def close_slot(self, seed_nets: Iterable[int], comb_passes: int) -> int:
        """Make the rows appended since the last slot a new slot.

        Its settle passes are *comb_passes*, raised to 3 when a net
        override, or a pin override reading a net, can feed back within
        a cycle.
        """
        table = self.overrides
        first = self.row_start[-1] * OVERRIDE_WIDTH
        stop = len(table)
        passes = comb_passes
        while first < stop and passes < 3:
            kind = table[first]
            if kind == ROW_NET or (kind in (ROW_GATE_PIN, ROW_FF_PIN)
                                   and table[first + 3] != SOURCE_CONST):
                passes = 3
            first += OVERRIDE_WIDTH
        self.row_start.append(stop // OVERRIDE_WIDTH)
        self.seed_nets.extend(seed_nets)
        self.seed_start.append(len(self.seed_nets))
        self.passes.append(passes)
        self.comb_passes.append(comb_passes)
        return len(self.passes) - 1

    def add_overlay(self, overlay: FaultOverlay) -> int:
        """Store *overlay* as a new slot; its slot."""
        self.write_rows(overlay)
        return self.close_slot(overlay.seed_nets, overlay.comb_passes)

    def seeds(self, slot: int) -> Sequence[int]:
        return self.seed_nets[self.seed_start[slot]:self.seed_start[slot + 1]]

    def overlay(self, slot: int) -> FaultOverlay:
        """A :class:`FaultOverlay` view of one slot (built per call)."""
        overlay = FaultOverlay(comb_passes=self.comb_passes[slot],
                               seed_nets=tuple(self.seeds(slot)))
        table = self.overrides
        for base in range(self.row_start[slot] * OVERRIDE_WIDTH,
                          self.row_start[slot + 1] * OVERRIDE_WIDTH,
                          OVERRIDE_WIDTH):
            kind, target, argument = table[base:base + 3]
            if kind == ROW_LUT_INIT:
                overlay.lut_init_overrides[target] = argument
            elif kind == ROW_FF_INIT:
                overlay.ff_init_overrides[target] = argument
            else:
                override = SourceOverride._make(table[base + 3:base + 8])
                if kind == ROW_GATE_PIN:
                    overlay.gate_pin_overrides[(target, argument)] = override
                elif kind == ROW_FF_PIN:
                    overlay.ff_pin_overrides[
                        (target, FF_PORTS[argument])] = override
                elif kind == ROW_NET:
                    overlay.net_overrides[target] = override
                else:
                    overlay.output_pin_overrides[
                        (self.ports[target], argument)] = override
        return overlay


class Lanes(NamedTuple):
    """A shard by slot: lane *i* carries slot ``slots[i]`` of ``columns``."""

    columns: OverlayColumns
    slots: Sequence[int]

    def passes(self) -> int:
        """Settle passes covering every lane."""
        passes = self.columns.passes
        return max((passes[slot] for slot in self.slots), default=1)


#: What a lane kernel accepts: a shard by slot, or plain overlays.
LanesLike = Union[Lanes, Sequence[FaultOverlay]]


def as_lanes(overlays: LanesLike) -> Lanes:
    """*overlays* as :class:`Lanes` (plain overlays become new columns)."""
    if isinstance(overlays, Lanes):
        return overlays
    columns = OverlayColumns.of(overlays)
    return Lanes(columns, range(len(columns)))
