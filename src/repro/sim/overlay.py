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
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from ..cells import logic

#: Pin/net override kinds.
SOURCE_NET = "net"          # read another net
SOURCE_CONST = "const"      # read a constant (0 / 1 / X)
SOURCE_BLEND = "blend"      # combine two nets (wired-AND / wired-OR / X)

#: Blend modes for shorted signals.
#: ``short`` is the default physical model for two driven signals fighting
#: through a pass transistor: when they agree the value survives, when they
#: disagree the node floats to an indeterminate level and *both* readers see
#: an unknown — which is precisely how a single routing upset can corrupt two
#: TMR domains in the same clock cycle.
BLEND_SHORT = "short"
BLEND_WIRED_AND = "wired_and"
BLEND_WIRED_OR = "wired_or"
#: ``a AND NOT b`` — used when an antenna drives an unused LUT input whose
#: physical truth-table entries are zero (the output is forced low whenever
#: the stray signal is high).
BLEND_AND_NOT = "and_not"
BLEND_UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class SourceOverride:
    """Replacement source for a gate input, flip-flop input or net value."""

    kind: str
    net_a: int = -1
    net_b: int = -1
    value: int = logic.UNKNOWN
    blend: str = BLEND_WIRED_AND

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
                 mode: str = BLEND_SHORT) -> "SourceOverride":
        return cls(SOURCE_BLEND, net_a=net_a, net_b=net_b, blend=mode)

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


@dataclasses.dataclass
class FaultOverlay:
    """The complete behavioural effect of one injected configuration upset."""

    #: human-readable description (resource + effect), for reports
    description: str = ""
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
        """Settle passes needed: more than one when shorts are present."""
        if self.net_overrides or any(
                o.kind == SOURCE_BLEND or o.kind == SOURCE_NET
                for o in list(self.gate_pin_overrides.values())
                + list(self.ff_pin_overrides.values())):
            return max(self.comb_passes, 3)
        return self.comb_passes
