"""Layout-aware dependability analysis of implemented TMR designs.

The paper's central claim is that TMR defeat is a property of the *routed
layout*: a single configuration upset only defeats the voting when the
wrong values it creates reach one voter barrier from two redundant domains
at once.  The analytical model in :mod:`repro.core.analysis` approximates
that over the unplaced netlist with a uniform-net assumption; this module
computes it exactly for one implemented design by walking the routed
implementation — the :class:`~repro.faults.models.FaultModeler`'s
bit-to-overlay mapping over the :class:`~repro.fpga.config.ConfigLayout`,
the route trees and the compiled netlist.

For every configuration bit of the fault list the
:class:`LayoutAnalyzer` answers "where can this upset's effect go?" by
propagating a taint from the overrides' entry nets through the compiled
design.  Voter LUTs *absorb* the taint (a majority voter with at most one
corrupted input provably outputs the golden value, and the simulator's
three-valued LUT evaluation honours that even for unknowns); flip-flops
propagate it; output ports observe it.  The propagation yields one of
three static verdicts per bit:

* **silent** — the overlay is empty, or its taint dead-ends before any
  output port and before any voter (the fault cone provably contains no
  observable net).
* **single-domain-correctable** — the taint reaches voter barriers, but
  every voter sees at most one corrupted input; the redundancy is
  predicted to out-vote the upset.
* **cross-domain-defeat-capable** — the taint reaches an output port
  without passing a voter (this includes every observable upset of the
  unprotected design and upsets past the final output voter), or some
  voter sees corrupted values on two or more inputs (the Figure 1 "upset
  b" mechanism: one routing short corrupting two domains inside the same
  voter region).

The defeat-capable set is a *superset* of the bits that can produce wrong
answers — the ``prediction-vs-campaign`` scenario cross-validates that
against measured campaigns — and the silent set is *sound*: a bit
predicted silent can never produce an output mismatch.

The taint is propagated once for the whole design: every net's forward
closure is one bitset, and a bit's verdict decodes the union of its entry
nets' closures.  Routing (PIP) bits, the bulk of a fault list, take those
unions from per-(net, routing node) sink signatures without modelling
each bit; LUT and slice-configuration bits read the override rows the
:class:`~repro.faults.models.FaultModeler` writes for them.  The per-net
flood these closures replaced is the equivalence oracle in
``tests/oracles/flood.py``.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from collections.abc import Mapping
from itertools import compress
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, \
    Optional, Sequence, Set, Tuple

import numpy as _np

from ..core.analysis import RobustnessEstimate, compute_voter_regions, \
    domain_of_net
from ..core.tmr import DOMAIN_SUFFIXES
from ..core.voters import VOTED_NET_PROPERTY, VOTER_PROPERTY, is_voter
from ..faults import categories
from ..faults.fault_list import FaultList, FaultListManager
from ..faults.models import FaultModeler, _LUT_PIN_TO_SLOT
from ..fpga.config import KIND_PIP, Resource
from ..pnr.flow import Implementation
from ..sim.compile import CompiledDesign
from ..sim.overlay import (OVERRIDE_WIDTH, ROW_FF_INIT, ROW_FF_PIN,
                           ROW_GATE_PIN, ROW_LUT_INIT, ROW_OUTPUT_PIN,
                           OverlayColumns)

#: Static per-bit verdicts of the layout analyzer.
SILENT = "silent"
CORRECTABLE = "single-domain-correctable"
DEFEAT = "cross-domain-defeat-capable"
CLASSIFICATIONS = (SILENT, CORRECTABLE, DEFEAT)

#: The verdict of an upset that writes no override: it leaves the design
#: untouched.  Compared by identity, next to the interned union verdicts.
_NO_EFFECT = (SILENT, (), (), False)


@dataclasses.dataclass(frozen=True)
class BitPrediction:
    """The static classification of one configuration bit."""

    bit: int
    resource_kind: str
    category: str
    classification: str
    has_effect: bool
    detail: str
    #: redundant domains that can carry a wrong value under this upset
    domains: Tuple[int, ...] = ()
    #: canonical voter barriers ("role:voted_net") the taint reaches
    barriers: Tuple[str, ...] = ()
    #: whether the taint reaches an output port without passing a voter
    reaches_output: bool = False

    @property
    def is_silent(self) -> bool:
        return self.classification == SILENT


class Verdict(NamedTuple):
    """Everything a :class:`BitPrediction` says except its bit and detail."""

    resource_kind: str
    category: str
    classification: str
    has_effect: bool
    domains: Tuple[int, ...]
    barriers: Tuple[str, ...]
    reaches_output: bool


class DefeatMap:
    """Per-design static defeat map: one prediction per fault-list bit.

    A map holds tens of thousands of bits but far fewer distinct verdicts,
    so it is stored as columns: ``bits`` (fault-list order, each
    bit once), ``rows`` (each bit's index into the interned ``verdicts``
    table) and ``details`` (each bit's detail string).  Aggregates tally
    ``rows``; :attr:`predictions` is a read-only mapping that builds a
    :class:`BitPrediction` per lookup.
    """

    def __init__(self, design: str, mode: str) -> None:
        self.design = design
        self.mode = mode
        self.bits = array("q")
        self.rows = array("i")
        self.details: List[str] = []
        self.verdicts: List[Verdict] = []
        self._ids: Dict[Verdict, int] = {}
        # Lookup caches, rebuilt whenever the columns have grown.
        self._index: Dict[int, int] = {}
        self._tallied: Tuple[int, List[Tuple[Verdict, int]]] = (0, [])

    def __getstate__(self) -> Dict[str, object]:
        # The interning dict and lookup caches are rebuilt, never pickled.
        return {key: value for key, value in vars(self).items()
                if not key.startswith("_")}

    def __setstate__(self, state: Dict[str, object]) -> None:
        vars(self).update(state)
        self._ids = {verdict: row for row, verdict in enumerate(self.verdicts)}
        self._index, self._tallied = {}, (0, [])

    def verdict_id(self, verdict: Verdict) -> int:
        """Row of *verdict* in the interned table (appended when new)."""
        row = self._ids.get(verdict)
        if row is None:
            row = self._ids[verdict] = len(self.verdicts)
            self.verdicts.append(verdict)
        return row

    def add(self, bit: int, row: int, detail: str) -> None:
        self.bits.append(bit)
        self.rows.append(row)
        self.details.append(detail)

    @property
    def predictions(self) -> Mapping[int, BitPrediction]:
        return _PredictionView(self)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DefeatMap):
            return NotImplemented
        return (self.design, self.mode) == (other.design, other.mode) and \
            self.predictions == other.predictions

    def _position(self, bit: int) -> Optional[int]:
        index = self._index
        if len(index) != len(self.bits):
            index = self._index = dict(zip(self.bits, range(len(self.bits))))
        return index.get(bit)

    def classification_of(self, bit: int) -> Optional[str]:
        position = self._position(bit)
        return None if position is None \
            else self.verdicts[self.rows[position]].classification

    def is_silent(self, bit: int) -> bool:
        """True only for bits *proved* silent (unknown bits are not)."""
        return self.classification_of(bit) == SILENT

    def _bits_where(self, wanted: Callable[[Verdict], bool]) -> List[int]:
        flags = [wanted(verdict) for verdict in self.verdicts]
        return sorted(compress(self.bits, map(flags.__getitem__, self.rows)))

    def bits_of_class(self, classification: str) -> List[int]:
        return self._bits_where(
            lambda verdict: verdict.classification == classification)

    def defeat_capable_bits(self) -> FrozenSet[int]:
        return frozenset(self.bits_of_class(DEFEAT))

    def _tally(self) -> List[Tuple[Verdict, int]]:
        """``(verdict, bits)`` pairs, in order of each verdict's first bit."""
        if self._tallied[0] != len(self.rows):
            self._tallied = (len(self.rows), [
                (self.verdicts[row], count)
                for row, count in Counter(self.rows).items()])
        return self._tallied[1]

    def counts(self) -> Dict[str, int]:
        counts = {classification: 0 for classification in CLASSIFICATIONS}
        for verdict, count in self._tally():
            counts[verdict.classification] += count
        return counts

    def cross_domain_bits(self) -> List[int]:
        """Bits whose effect can corrupt two or more redundant domains."""
        return self._bits_where(lambda verdict: len(verdict.domains) >= 2)

    def defeat_probability(self) -> float:
        """Fraction of domain-crossing upsets predicted to defeat the TMR.

        The layout-aware analogue of
        :meth:`~repro.core.analysis.VoterRegionReport.same_region_collision_probability`:
        among the fault-list bits that corrupt signals of two or more
        redundant domains at once, the share whose corruptions meet at a
        common voter barrier (or escape voting entirely).
        """
        crossing = defeats = 0
        for verdict, count in self._tally():
            if len(verdict.domains) >= 2:
                crossing += count
                if verdict.classification == DEFEAT:
                    defeats += count
        return defeats / crossing if crossing else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-serializable digest for reports and the analyze stage."""
        by_category: Dict[str, Dict[str, int]] = {}
        for verdict, count in self._tally():
            bucket = by_category.setdefault(
                verdict.category,
                {classification: 0 for classification in CLASSIFICATIONS})
            bucket[verdict.classification] += count
        return {
            "design": self.design,
            "fault_list_mode": self.mode,
            "bits": len(self),
            "classes": self.counts(),
            "by_category": by_category,
            "cross_domain_bits": sum(
                count for verdict, count in self._tally()
                if len(verdict.domains) >= 2),
            "layout_defeat_probability": round(self.defeat_probability(), 5),
        }


class _PredictionView(Mapping):
    """Read-only ``bit -> BitPrediction`` view of a :class:`DefeatMap`."""

    __slots__ = ("_map",)

    def __init__(self, defeat_map: DefeatMap) -> None:
        self._map = defeat_map

    def __getitem__(self, bit: int) -> BitPrediction:
        defeat_map = self._map
        position = defeat_map._position(bit)
        if position is None:
            raise KeyError(bit)
        return BitPrediction(
            bit=bit, detail=defeat_map.details[position],
            **defeat_map.verdicts[defeat_map.rows[position]]._asdict())

    def __iter__(self) -> Iterator[int]:
        return iter(self._map.bits)

    def __len__(self) -> int:
        return len(self._map.bits)


class LayoutAnalyzer:
    """Classifies configuration bits of one implemented design.

    The analyzer cross-references the implementation's fault models with
    the compiled netlist: per bit it derives the *entry nets* of the
    upset's overrides (the first nets that can carry a wrong value),
    unions their taint closures through gates and flip-flops — voter LUTs
    absorb the taint, recording which inputs arrived corrupted — and
    classifies the bit by what the taint reached.
    """

    def __init__(self, implementation: Implementation) -> None:
        self.implementation = implementation
        self.compiled = CompiledDesign(implementation.design)
        self.modeler = FaultModeler(implementation, self.compiled)
        self._build_structure()
        self._closure = None
        self._rows: Optional[List[int]] = None
        self._union_memo: Dict[int, Tuple] = {}
        self._sink_sig_memo: Dict[Tuple[str, object], Tuple] = {}
        #: the modeler writes each logic bit's override rows here; the
        #: rows are dropped once the bit is classified
        self._scratch = OverlayColumns()

    # ------------------------------------------------------------------
    def _build_structure(self) -> None:
        compiled = self.compiled
        definition = self.implementation.design

        self._net_domain: List[Optional[int]] = [None] * compiled.num_nets
        for name, index in compiled.net_index.items():
            net = definition.nets.get(name)
            if net is not None:
                self._net_domain[index] = domain_of_net(net)

        self._voter_gates: Dict[int, str] = {}
        for gate in compiled.gates:
            instance = gate.instance
            if instance is not None and is_voter(instance):
                self._voter_gates[gate.index] = _barrier_key(instance)

        self._output_nets: Set[int] = set()
        for binding in compiled.outputs.values():
            self._output_nets.update(net for net in binding.net_indices
                                     if net >= 0)

    # ------------------------------------------------------------------
    # Vectorized taint propagation
    # ------------------------------------------------------------------
    def _closure_bits(self):
        """Per-net taint-closure bitsets, swept with numpy all at once.

        Bit layout per net: one bit per redundant domain value present in
        the design, one ``reaches_output`` bit, then one bit per (voter
        gate, input position) slot.  ``closure[n]`` is the union of the
        local bits of every net reachable from ``n`` through non-voter
        gates and flip-flops — exactly what a per-net taint flood
        summarizes, for *all* seed nets in one fixpoint sweep over the
        sparse int-indexed net adjacency.
        """
        if self._closure is not None:
            return self._closure
        compiled = self.compiled
        num_nets = compiled.num_nets

        self._domain_values = sorted(
            {domain for domain in self._net_domain if domain is not None})
        domain_bit = {domain: index
                      for index, domain in enumerate(self._domain_values)}
        output_bit = len(self._domain_values)
        self._output_bit = output_bit

        slot_gate: List[int] = []
        slot_position: List[int] = []
        local_bits: List[Tuple[int, int]] = []
        for gate_index in sorted(self._voter_gates):
            inputs = compiled.gates[gate_index].input_nets
            for position, input_net in enumerate(inputs):
                slot = output_bit + 1 + len(slot_gate)
                slot_gate.append(gate_index)
                slot_position.append(position)
                if input_net >= 0:
                    local_bits.append((input_net, slot))
        self._slot_gate = slot_gate
        self._slot_position = slot_position

        for net, domain in enumerate(self._net_domain):
            if domain is not None:
                local_bits.append((net, domain_bit[domain]))
        for net in self._output_nets:
            local_bits.append((net, output_bit))

        words = (output_bit + 1 + len(slot_gate) + 63) // 64
        closure = _np.zeros((num_nets, words), dtype=_np.uint64)
        for net, bit in local_bits:
            closure[net, bit >> 6] |= _np.uint64(1 << (bit & 63))

        edges: List[Tuple[int, int]] = []
        for gate in compiled.gates:
            if gate.index in self._voter_gates or gate.output_net < 0:
                continue  # voters absorb the taint
            for net in gate.input_nets:
                if net >= 0:
                    edges.append((net, gate.output_net))
        for flip_flop in compiled.flip_flops:
            if flip_flop.q_net < 0:
                continue
            for net in (flip_flop.d_net, flip_flop.ce_net,
                        flip_flop.reset_net):
                if net >= 0:
                    edges.append((net, flip_flop.q_net))
        if edges:
            src = _np.asarray([edge[0] for edge in edges], dtype=_np.intp)
            dst = _np.asarray([edge[1] for edge in edges], dtype=_np.intp)
            while True:
                previous = closure.copy()
                _np.bitwise_or.at(closure, src, closure[dst])
                if _np.array_equal(closure, previous):
                    break
        self._closure = closure
        return closure

    def _row_ints(self) -> List[int]:
        """Each net's closure bitset as one python integer.

        A bit's verdict unions its entry nets' closures; with integer
        rows that union is a single big-int OR per net (C speed) instead
        of python set/dict merges, and equal unions — however the entry
        sets differed — share one decoded verdict through ``_union_memo``.
        """
        rows = self._rows
        if rows is None:
            closure = self._closure_bits()
            data = _np.ascontiguousarray(
                closure.astype("<u8", copy=False)).tobytes()
            stride = closure.shape[1] * 8
            rows = [int.from_bytes(data[offset:offset + stride], "little")
                    for offset in range(0, len(data), stride)]
            self._rows = rows
            self._slot_mask = {
                (gate, position): 1 << (self._output_bit + 1 + slot)
                for slot, (gate, position)
                in enumerate(zip(self._slot_gate, self._slot_position))}
            self._output_mask = 1 << self._output_bit
        return rows

    def _union_verdict(self, union: int) -> Tuple:
        """Memoized verdict of one closure-bitset union integer."""
        resolved = self._union_memo.get(union)
        if resolved is not None:
            return resolved
        output_bit = self._output_bit
        domain_values = self._domain_values
        slot_gate = self._slot_gate
        slot_position = self._slot_position
        domains: Set[int] = set()
        corrupted_positions: Dict[int, Set[int]] = {}
        reaches_output = False
        remaining = union
        while remaining:
            low = remaining & -remaining
            index = low.bit_length() - 1
            remaining ^= low
            if index < output_bit:
                domains.add(domain_values[index])
            elif index == output_bit:
                reaches_output = True
            else:
                slot = index - output_bit - 1
                corrupted_positions.setdefault(slot_gate[slot], set()).add(
                    slot_position[slot])
        resolved = self._resolve(domains, corrupted_positions,
                                 reaches_output)
        self._union_memo[union] = resolved
        return resolved

    def _resolve(self, domains: Set[int],
                 corrupted_positions: Dict[int, Set[int]],
                 reaches_output: bool) -> Tuple:
        """Classification tail shared with the flood oracle."""
        # A voter input position carries one redundant domain's copy.
        defeated = False
        for positions in corrupted_positions.values():
            for position in positions:
                if position < 3:
                    domains.add(position)
            if len(positions) >= 2:
                defeated = True
        barriers = tuple(sorted({self._voter_gates[gate_index]
                                 for gate_index in corrupted_positions}))
        if reaches_output or defeated:
            classification = DEFEAT
        elif corrupted_positions:
            classification = CORRECTABLE
        else:
            # The taint dead-ended: no output, no voter — provably silent.
            classification = SILENT
        return (classification, tuple(sorted(domains)), barriers,
                reaches_output)

    # ------------------------------------------------------------------
    def _row_verdict(self, bit: int) -> Tuple[Resource, str, str, Tuple]:
        """Classify *bit* from the override rows the modeler writes.

        Returns the bit's resource, category, detail and verdict
        (:data:`_NO_EFFECT` when no override was written).  Each row ORs
        its entry net's closure into one union: a LUT INIT override
        taints the gate's output (a voter with a broken truth table
        included); a pin override of a *voter* input only sets that
        input's slot, since the voter may still out-vote it; other gate
        and flip-flop overrides taint the gate output or ``Q``; a net
        override taints the net; an output-pin override reaches the
        output.
        """
        scratch = self._scratch
        overrides = scratch.overrides
        del overrides[:]
        resource, category, detail = self.modeler.write_bit(scratch, bit)[:3]
        if not overrides:
            return resource, category, detail, _NO_EFFECT
        rows = self._row_ints()
        gates = self.compiled.gates
        flip_flops = self.compiled.flip_flops
        union = 0
        for base in range(0, len(overrides), OVERRIDE_WIDTH):
            kind, target, argument = overrides[base:base + 3]
            if kind == ROW_OUTPUT_PIN:
                union |= self._output_mask
                continue
            if kind == ROW_GATE_PIN and target in self._voter_gates:
                union |= self._slot_mask[(target, argument)]
                continue
            if kind in (ROW_LUT_INIT, ROW_GATE_PIN):
                net = gates[target].output_net
            elif kind in (ROW_FF_PIN, ROW_FF_INIT):
                net = flip_flops[target].q_net
            else:  # ROW_NET
                net = target
            if net >= 0:
                union |= rows[net]
        verdict = self._union_memo.get(union) or self._union_verdict(union)
        return resource, category, detail, verdict

    def classify_bit(self, bit: int) -> BitPrediction:
        resource, category, detail, verdict = self._row_verdict(bit)
        classification, domains, barriers, reaches_output = verdict
        return BitPrediction(
            bit=bit, resource_kind=resource[0], category=category,
            classification=classification,
            has_effect=verdict is not _NO_EFFECT, detail=detail,
            domains=domains, barriers=barriers,
            reaches_output=reaches_output)

    # ------------------------------------------------------------------
    # Bulk classification
    # ------------------------------------------------------------------
    def _sink_signature(self, net_name: str, node) -> Tuple:
        """What corrupting net *net_name* downstream of *node* can touch.

        Returns ``(closure_union, num_sinks, num_overrides)`` — the
        overlay signature the routing fault models would produce by
        overriding every sink served through *node*, without
        materializing the overlay.  ``closure_union`` is the OR of the
        entry nets' closure-bitset integers (plus direct voter-pin slot
        bits and the output bit), ready for :meth:`_union_verdict`;
        ``num_sinks`` feeds the models' "N sink(s) ..." detail strings;
        ``num_overrides`` tells whether the overlay would be non-empty
        (sinks whose cell is absent from the compiled design attach no
        override).  Memoized per (net, node): every candidate PIP bit
        landing on the same routing node shares the answer.
        """
        key = (net_name, node)
        signature = self._sink_sig_memo.get(key)
        if signature is not None:
            return signature
        compiled = self.compiled
        gate_index_of = compiled.gate_index_by_name.get
        ff_index_of = compiled.ff_index_by_name.get
        rows = self._row_ints()
        slot_mask = self._slot_mask
        union = 0
        reaches_output = False
        overrides = 0
        specs = self.implementation.routing.routes[net_name] \
            .sinks_through(node)
        for spec in specs:
            if spec.cell is None:
                reaches_output = True
                overrides += 1
                continue
            gate_index = gate_index_of(spec.cell)
            if gate_index is not None:
                overrides += 1
                if gate_index in self._voter_gates:
                    position = int(spec.port[1:]) \
                        if spec.port.startswith("I") else 0
                    union |= slot_mask[(gate_index, position)]
                else:
                    out = compiled.gates[gate_index].output_net
                    if out >= 0:
                        union |= rows[out]
                continue
            ff_index = ff_index_of(spec.cell)
            if ff_index is not None:
                overrides += 1
                q_net = compiled.flip_flops[ff_index].q_net
                if q_net >= 0:
                    union |= rows[q_net]
        if reaches_output:
            union |= self._output_mask
        signature = (union, len(specs), overrides)
        self._sink_sig_memo[key] = signature
        return signature

    def _bulk_predictions(self, bits: Sequence[int],
                          defeat_map: DefeatMap) -> None:
        """Classify a fault list, appending verdict rows and details.

        PIP bits mirror the routing buckets of
        :class:`~repro.faults.models.FaultModeler` bit for bit — same
        categories, same detail strings, same silent/has-effect
        decisions — but resolve each bucket with dictionary lookups and
        the memoized per-(net, node) sink signatures instead of writing
        override rows.  LUT and slice-configuration bits (under a tenth
        of a map) take the modeler's rows (:meth:`_row_verdict`).  The
        equivalence suite asserts prediction-for-prediction equality
        against the flood oracle on every design.
        """
        implementation = self.implementation
        resources = implementation.resources
        routing = implementation.routing
        used_pips_get = resources.used_pips.get
        node_owner_get = routing.node_owner.get
        routes = routing.routes
        gate_index_of = self.compiled.gate_index_by_name.get
        gates = self.compiled.gates
        layout = implementation.layout
        resource_of = layout.resource_of
        resource_memo_get = layout._resource_by_bit.get
        sink_signature = self._sink_signature
        sig_memo_get = self._sink_sig_memo.get
        union_verdict = self._union_verdict
        row_verdict = self._row_verdict
        rows = self._row_ints()
        # Memo hits are the overwhelmingly common case; look them up
        # without a function call (verdict tuples are never empty, so
        # ``or`` falls through exactly on a miss).
        union_memo_get = self._union_memo.get
        lut_site_get = self.modeler.lut_sites.get
        slot_of_pin = _LUT_PIN_TO_SLOT.get
        add = defeat_map.add
        KIND_PIP_ = KIND_PIP
        OPEN, CONFLICT, BRIDGE = categories.OPEN, categories.CONFLICT, \
            categories.BRIDGE
        ANTENNA, OTHERS = categories.INPUT_ANTENNA, categories.OTHERS

        # Verdict rows per (kind, category, union verdict).  Union
        # verdicts are interned in the union memo, so object identity is
        # a valid (and hash-free) key; _NO_EFFECT stands for the upsets
        # that leave the design untouched.
        row_ids: Dict[Tuple[str, str, int], int] = {}

        def row_of(kind: str, category: str,
                   verdict: Tuple = _NO_EFFECT) -> int:
            key = (kind, category, id(verdict))
            row = row_ids.get(key)
            if row is None:
                row = row_ids[key] = defeat_map.verdict_id(Verdict(
                    kind, category, verdict[0], verdict is not _NO_EFFECT,
                    *verdict[1:]))
            return row

        # Bridge bits into one destination node differ only in the
        # intruding net's name: the verdict row is shared.
        bridge_tails: Dict[object, Tuple[int, int]] = {}

        for bit in bits:
            resource = resource_memo_get(bit) or resource_of(bit)
            kind = resource[0]
            if kind == KIND_PIP_:
                pip = (resource[1], resource[2])
                source, destination = pip
                used_net = used_pips_get(pip)
                if used_net is not None:
                    # Open: every sink through the destination floats.
                    if used_net not in routes:
                        add(bit, row_of(kind, OPEN), "route tree missing")
                        continue
                    sig = sig_memo_get((used_net, destination)) or \
                        sink_signature(used_net, destination)
                    detail = f"{sig[1]} sink(s) of {used_net} float"
                    if not sig[2]:
                        add(bit, row_of(kind, OPEN), detail)
                        continue
                    verdict = union_memo_get(sig[0]) or union_verdict(sig[0])
                    add(bit, row_of(kind, OPEN, verdict), detail)
                    continue
                source_net = node_owner_get(source)
                dest_net = node_owner_get(destination)
                if dest_net is not None and source_net is not None and \
                        source_net != dest_net:
                    if destination[0] == "wire":
                        # Conflict: both nets' downstream sinks see it.
                        dsig = None if dest_net not in routes else \
                            sink_signature(dest_net, destination)
                        ssig = None
                        source_tree = routes.get(source_net)
                        if source_tree is not None and \
                                source in source_tree.nodes():
                            ssig = sink_signature(source_net, source)
                        if dsig is None:
                            sig = ssig
                        elif ssig is None:
                            sig = dsig
                        else:
                            sig = (dsig[0] | ssig[0], dsig[1] + ssig[1],
                                   dsig[2] + ssig[2])
                        num_sinks = sig[1] if sig is not None else 0
                        detail = (f"{num_sinks} sink(s) see the short of "
                                  f"{source_net} and {dest_net}")
                        if sig is None or not sig[2]:
                            add(bit, row_of(kind, CONFLICT), detail)
                        else:
                            verdict = union_memo_get(sig[0]) or \
                                union_verdict(sig[0])
                            add(bit, row_of(kind, CONFLICT, verdict), detail)
                        continue
                    # Bridge: only the invaded input's net suffers; the
                    # verdict tail is per destination, not per source.
                    tail = bridge_tails.get(destination)
                    if tail is None:
                        dsig = None if dest_net not in routes else \
                            sink_signature(dest_net, destination)
                        if dsig is None or not dsig[2]:
                            tail = (dsig[1] if dsig else 0,
                                    row_of(kind, BRIDGE))
                        else:
                            tail = (dsig[1], row_of(
                                kind, BRIDGE, union_memo_get(dsig[0])
                                or union_verdict(dsig[0])))
                        bridge_tails[destination] = tail
                    num_sinks, row = tail
                    add(bit, row, f"{num_sinks} sink(s) of {dest_net} "
                                  f"shorted with {source_net}")
                    continue
                if dest_net is not None and source_net is None:
                    add(bit, row_of(kind, BRIDGE), "used signal bridged to "
                        "floating wire (no logical effect)")
                    continue
                if source_net is None or dest_net is not None:
                    # Both ends unused — or both owned by the same net.
                    add(bit, row_of(kind, OTHERS), "both ends unused")
                    continue
                # Antenna: a driven signal onto an unused node.
                if destination[0] != "ipin":
                    add(bit, row_of(kind, ANTENNA),
                        "stray drive of an unused wire")
                    continue
                _, x, y, pin = destination
                slot_info = slot_of_pin(pin)
                if slot_info is None:
                    add(bit, row_of(kind, ANTENNA),
                        "stray drive of an unused control pin")
                    continue
                slot, position = slot_info
                site = lut_site_get((x, y, slot))
                if site is None or position < site.logical_inputs:
                    add(bit, row_of(kind, ANTENNA),
                        "stray drive of an unused LUT input")
                    continue
                gate_index = gate_index_of(site.cell)
                if gate_index is None:
                    add(bit, row_of(kind, ANTENNA),
                        "cell not in compiled design")
                    continue
                output_net = gates[gate_index].output_net
                union = rows[output_net] if output_net >= 0 else 0
                verdict = union_memo_get(union) or union_verdict(union)
                add(bit, row_of(kind, ANTENNA, verdict),
                    f"unused input of {site.cell} driven by {source_net}")
                continue
            _resource, category, detail, verdict = row_verdict(bit)
            add(bit, row_of(kind, category, verdict), detail)

    # ------------------------------------------------------------------
    def build_map(self, fault_list: Optional[FaultList] = None,
                  mode: str = "design") -> DefeatMap:
        """Classify every bit of *fault_list* (built on demand)."""
        if fault_list is None:
            fault_list = FaultListManager(self.implementation).build(mode)
        defeat_map = DefeatMap(self.implementation.design.name,
                               fault_list.mode)
        self._bulk_predictions(fault_list.bits, defeat_map)
        return defeat_map


def _barrier_key(instance) -> str:
    """Domain-invariant identity of a voter barrier.

    The three per-domain voter LUTs of one barrier share the original
    (pre-TMR) net they vote, so corruptions of different domains arriving
    at "the same barrier" compare equal under this key.
    """
    role = instance.properties.get(VOTER_PROPERTY, "voter")
    voted = instance.properties.get(VOTED_NET_PROPERTY)
    if voted is not None:
        return f"{role}:{voted}"
    name = instance.name
    for suffix in DOMAIN_SUFFIXES:
        name = name.replace(suffix, "_tr*")
    return f"{role}:{name}"


# ----------------------------------------------------------------------
# Map construction with campaign-cache memoization
# ----------------------------------------------------------------------
def defeat_map_for(implementation: Implementation,
                   mode: str = "design") -> DefeatMap:
    """The (memoized) static defeat map of one implemented design.

    The map is stored in the process-wide campaign cache next to the
    golden traces and fault effects, so repeated analyses classify each
    design once.
    """
    from ..faults.cache import get_cache
    from ..service.tier import active_tier

    cache = get_cache()
    entry = cache.entry_for(implementation)

    def build() -> DefeatMap:
        # Building the map is costly, so an in-memory miss reads through
        # the persistent tier first: a map built by any earlier process
        # over a bit-identical implementation is exactly this one.
        tier = active_tier()
        if tier is not None:
            stored = tier.load_defeat_map(entry.fingerprint, mode)
            if stored is not None:
                return stored
        analyzer = LayoutAnalyzer(implementation)
        fault_list = entry.fault_list(mode, cache.stats)
        defeat_map = analyzer.build_map(fault_list)
        if tier is not None:
            tier.store_defeat_map(entry.fingerprint, mode, defeat_map)
        return defeat_map

    return entry.defeat_map(mode, build, cache.stats)


# ----------------------------------------------------------------------
# Layout-aware robustness estimate
# ----------------------------------------------------------------------
def layout_robustness(implementation: Implementation,
                      domain: int = 0,
                      defeat_map: Optional[DefeatMap] = None
                      ) -> RobustnessEstimate:
    """A :class:`~repro.core.analysis.RobustnessEstimate` from the layout.

    Replaces the uniform-net collision proxy with the measured share of
    domain-crossing fault-list bits whose corruptions meet at a common
    voter barrier (or bypass voting), and reads region/voter counts from
    the implemented flat netlist instead of the component-level one.
    """
    if defeat_map is None:
        defeat_map = defeat_map_for(implementation)
    definition = implementation.design
    regions = compute_voter_regions(definition, domain)
    voter_count = sum(1 for instance in definition.instances.values()
                      if is_voter(instance))
    return RobustnessEstimate(
        cross_domain_defeat_probability=defeat_map.defeat_probability(),
        num_regions=regions.num_regions,
        voter_count=voter_count,
        nets_per_domain=sum(regions.region_sizes.values()),
    )


def prediction_vs_campaign(defeat_map: DefeatMap,
                           campaign_results: Sequence
                           ) -> Dict[str, object]:
    """Cross-validate the static map against one measured campaign.

    The defeat-capable set must cover every bit that measured a wrong
    answer (``superset_holds``); silent predictions must never have
    measured one (``silent_sound``).  *campaign_results* is the
    ``results`` list of a :class:`~repro.faults.campaign.CampaignResult`.
    """
    measured_wrong: Set[int] = set()
    measured_silent_violations: List[int] = []
    injected_bits: Set[int] = set()
    for result in campaign_results:
        injected_bits.add(result.bit)
        if result.wrong_answer:
            measured_wrong.add(result.bit)
            if defeat_map.is_silent(result.bit):
                measured_silent_violations.append(result.bit)
    predicted_defeat = defeat_map.defeat_capable_bits()
    uncovered = sorted(measured_wrong - predicted_defeat)
    predicted_in_sample = predicted_defeat & injected_bits
    return {
        "injected_bits": len(injected_bits),
        "measured_wrong_bits": len(measured_wrong),
        "predicted_defeat_capable_in_sample": len(predicted_in_sample),
        "superset_holds": not uncovered,
        "uncovered_wrong_bits": uncovered[:20],
        "silent_sound": not measured_silent_violations,
        "silent_violations": sorted(measured_silent_violations)[:20],
        # How sharp the static prediction is: of the injected bits it
        # flagged defeat-capable, the share that measured wrong.
        "precision": round(len(measured_wrong & predicted_in_sample)
                           / len(predicted_in_sample), 4)
        if predicted_in_sample else None,
        "layout_defeat_probability":
            round(defeat_map.defeat_probability(), 5),
    }
