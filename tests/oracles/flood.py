"""The per-net taint flood: the defeat map's reference classifier.

:class:`~repro.analysis.layout.LayoutAnalyzer` propagates taint once
for the whole design (one closure bitset per net) and classifies routing
bits from per-node sink signatures and logic bits from the modeler's
override rows.  :class:`FloodAnalyzer` is the original per-bit path it
replaced: model each bit as a :class:`~repro.faults.models.FaultEffect`,
take the overlay's entry nets, flood a taint from each through gates and
flip-flops (voters absorb it) and hand what it reached to the shared
:meth:`~repro.analysis.layout.LayoutAnalyzer._resolve` tail.  The
equivalence tests and the flow benchmark hold the production map to it,
prediction for prediction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.layout import (SILENT, BitPrediction, DefeatMap,
                                   LayoutAnalyzer, Verdict)
from repro.faults.fault_list import FaultList, FaultListManager
from repro.faults.models import FaultEffect


@dataclasses.dataclass(frozen=True)
class TaintSummary:
    """Forward closure of one seed net, with voters absorbing."""

    #: redundant domains of the tainted nets (None filtered out)
    domains: FrozenSet[int]
    #: (voter gate index, tainted input net) pairs where the taint stopped
    voter_hits: FrozenSet[Tuple[int, int]]
    #: whether an output port net was tainted (no voter in between)
    reaches_output: bool


class FloodAnalyzer(LayoutAnalyzer):
    """Classifies every bit by flooding a taint from its overlay."""

    def __init__(self, implementation) -> None:
        super().__init__(implementation)
        compiled = self.compiled
        self._net_sink_gates: Dict[int, List[int]] = {}
        self._net_sink_ffs: Dict[int, List[int]] = {}
        for gate in compiled.gates:
            for net in gate.input_nets:
                if net >= 0:
                    self._net_sink_gates.setdefault(net, []).append(
                        gate.index)
        for flip_flop in compiled.flip_flops:
            for net in (flip_flop.d_net, flip_flop.ce_net,
                        flip_flop.reset_net):
                if net >= 0:
                    self._net_sink_ffs.setdefault(net, []).append(
                        flip_flop.index)
        self._taint_memo: Dict[int, TaintSummary] = {}

    # ------------------------------------------------------------------
    def _taint_of_net(self, seed: int) -> TaintSummary:
        """Memoized forward closure of one net (voters absorb).

        Closures are unions over seeds, so multi-net entries combine the
        per-net memos instead of re-walking the graph.
        """
        memo = self._taint_memo.get(seed)
        if memo is not None:
            return memo
        tainted: Set[int] = set()
        voter_hits: Set[Tuple[int, int]] = set()
        reaches_output = False
        stack = [seed]
        gates = self.compiled.gates
        flip_flops = self.compiled.flip_flops
        while stack:
            net = stack.pop()
            if net in tainted:
                continue
            tainted.add(net)
            if net in self._output_nets:
                reaches_output = True
            for gate_index in self._net_sink_gates.get(net, ()):
                if gate_index in self._voter_gates:
                    voter_hits.add((gate_index, net))
                    continue  # the majority voter absorbs a single taint
                out = gates[gate_index].output_net
                if out >= 0 and out not in tainted:
                    stack.append(out)
            for ff_index in self._net_sink_ffs.get(net, ()):
                q_net = flip_flops[ff_index].q_net
                if q_net >= 0 and q_net not in tainted:
                    stack.append(q_net)
        domains = frozenset(domain for domain in
                            (self._net_domain[net] for net in tainted)
                            if domain is not None)
        memo = TaintSummary(domains, frozenset(voter_hits), reaches_output)
        self._taint_memo[seed] = memo
        return memo

    def _entry_nets(self, effect: FaultEffect
                    ) -> Tuple[Set[int], Set[Tuple[int, int]]]:
        """Nets that first carry a wrong value, plus direct voter-pin hits.

        An override on a voter's *input pin* corrupts only what that voter
        reads — the voter may still absorb it — so it is recorded as a
        ``(voter gate, input position)`` hit instead of tainting the
        voter's output.  An override of the voter's own truth table breaks
        the voter itself and taints its output.
        """
        overlay = effect.overlay
        gates = self.compiled.gates
        flip_flops = self.compiled.flip_flops
        entries: Set[int] = set()
        voter_pin_hits: Set[Tuple[int, int]] = set()

        for gate_index in overlay.lut_init_overrides:
            out = gates[gate_index].output_net
            if out >= 0:
                entries.add(out)
        for (gate_index, position) in overlay.gate_pin_overrides:
            if gate_index in self._voter_gates:
                voter_pin_hits.add((gate_index, position))
                continue
            out = gates[gate_index].output_net
            if out >= 0:
                entries.add(out)
        for (ff_index, _port) in overlay.ff_pin_overrides:
            q_net = flip_flops[ff_index].q_net
            if q_net >= 0:
                entries.add(q_net)
        for ff_index in overlay.ff_init_overrides:
            q_net = flip_flops[ff_index].q_net
            if q_net >= 0:
                entries.add(q_net)
        for net in overlay.net_overrides:
            if net >= 0:
                entries.add(net)
        return entries, voter_pin_hits

    # ------------------------------------------------------------------
    def classify_effect(self, effect: FaultEffect) -> BitPrediction:
        resource_kind = effect.resource[0]
        if not effect.has_effect:
            return BitPrediction(
                bit=effect.bit, resource_kind=resource_kind,
                category=effect.category, classification=SILENT,
                has_effect=False, detail=effect.detail)

        entries, voter_pin_hits = self._entry_nets(effect)
        domains: Set[int] = set()
        voter_hits: Set[Tuple[int, int]] = set()
        reaches_output = bool(effect.overlay.output_pin_overrides)
        for entry in sorted(entries):
            summary = self._taint_of_net(entry)
            domains.update(summary.domains)
            voter_hits.update(summary.voter_hits)
            reaches_output = reaches_output or summary.reaches_output

        # Count *distinct corrupted input positions* per voter: a taint
        # arriving on input net N and a pin override of the position
        # that reads N are the same corrupted leg, not two.
        corrupted_positions: Dict[int, Set[int]] = {}
        for (gate_index, net) in voter_hits:
            inputs = self.compiled.gates[gate_index].input_nets
            positions = corrupted_positions.setdefault(gate_index, set())
            positions.update(position for position, input_net
                             in enumerate(inputs) if input_net == net)
        for (gate_index, position) in voter_pin_hits:
            corrupted_positions.setdefault(gate_index, set()).add(position)

        classification, domains_tuple, barriers, reaches_output = \
            self._resolve(domains, corrupted_positions, reaches_output)
        return BitPrediction(
            bit=effect.bit, resource_kind=resource_kind,
            category=effect.category, classification=classification,
            has_effect=True, detail=effect.detail,
            domains=domains_tuple, barriers=barriers,
            reaches_output=reaches_output)

    def classify_bit(self, bit: int) -> BitPrediction:
        return self.classify_effect(self.modeler.effect_of_bit(bit))

    def build_map(self, fault_list: Optional[FaultList] = None,
                  mode: str = "design") -> DefeatMap:
        """Classify every bit of *fault_list* (built on demand), one by one."""
        if fault_list is None:
            fault_list = FaultListManager(self.implementation).build(mode)
        defeat_map = DefeatMap(self.implementation.design.name,
                               fault_list.mode)
        for bit in fault_list.bits:
            prediction = self.classify_bit(bit)
            defeat_map.add(bit, defeat_map.verdict_id(Verdict._make(
                getattr(prediction, field) for field in Verdict._fields)),
                prediction.detail)
        return defeat_map
