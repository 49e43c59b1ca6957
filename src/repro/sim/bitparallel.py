"""Bit-parallel (PPSFP-style) fault simulation kernel.

The scalar :class:`~repro.sim.simulator.Simulator` evaluates one fault at a
time, one gate at a time.  This module evaluates an entire *shard* of faults
in one sweep by packing them into the bit lanes of Python big integers:
lane *i* of every word is fault *i* of the shard, so one ``&``/``|``/``^``
over two words simulates one gate for every fault in the shard at once —
the classic parallel-fault / parallel-pattern single-fault technique of
hardware fault simulators, applied to the paper's exhaustive bitstream
fault-injection campaigns.

Two-mask ``(v, k)`` encoding
----------------------------

Simulation is three-valued ({0, 1, X}), so one bit per lane is not enough.
Every net carries **two** lane words:

* ``v`` — the *value* word: lane bit set iff the lane's value is known 1;
* ``k`` — the *known* word: lane bit set iff the lane's value is 0 or 1.

giving the encoding ``0 -> (0, 1)``, ``1 -> (1, 1)``, ``X -> (0, 0)`` per
lane (the fourth combination ``(1, 0)`` is never produced; all operators
below keep the representation canonical, i.e. ``v & ~k == 0``).  The
three-valued connectives then become two or three word operations each::

    NOT(a)    v' = k_a & ~v_a                 k' = k_a
    AND(a,b)  v' = v_a & v_b                  k' = (k_a & k_b) | (k_a & ~v_a) | (k_b & ~v_b)
    OR(a,b)   v' = v_a | v_b                  k' = (k_a & k_b) | v_a | v_b
    XOR(a,b)  k' = k_a & k_b                  v' = (v_a ^ v_b) & k'

LUTs are compiled once per design by Shannon-expanding their INIT table
into a mux tree whose constant branches are folded away (``mux(x, 0, 1)``
is ``x``, ``mux(x, e, ~e)`` is ``x ^ e``, ...), which reduces typical
mapped logic (adder XOR chains, AND/OR gating, TMR majority voters) to a
handful of word operations.  The mux-tree semantics are *exactly* those of
:func:`repro.cells.logic.lut_eval`: an unknown input yields a known output
iff every truth-table entry reachable through the unknown address bits
agrees.

Fault overlays become *lane-select masks*: a LUT INIT override turns the
affected truth-table entries into per-lane constant words, a pin/net/FF
override is blended into only the lanes whose fault carries it.  Lanes
beyond the shard population simply re-simulate the golden circuit and are
ignored at verdict demux.  The kernel supports the same two execution
modes as the scalar simulator: *full* (every gate, state persists across
cycles) and *cone* (only the union fan-out cone of the shard's faults is
re-evaluated; everything else is re-seeded from the recorded golden trace
every cycle, matching ``Simulator.run(golden=..., cone=...)`` lane by
lane).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..cells import logic
from .compile import (KIND_BUF, KIND_CONST0, KIND_CONST1, KIND_LUT,
                      CompiledDesign, FaultCone)
from .overlay import (BLEND_AND_NOT, BLEND_SHORT, BLEND_WIRED_AND,
                      BLEND_WIRED_OR, SOURCE_CONST, SOURCE_NET,
                      FaultOverlay, SourceOverride)
from .simulator import SimulationTrace

# ----------------------------------------------------------------------
# Expression trees (compile time only)
# ----------------------------------------------------------------------
_T_CMASK = 0   # (tag, value_word) — per-lane known constant
_T_X = 1       # (tag,) — unknown in every lane
_T_VAR = 2     # (tag, ref) — a LUT input (pin position, later net slot)
_T_NOT = 3     # (tag, sub)
_T_AND = 4     # (tag, a, b)
_T_OR = 5      # (tag, a, b)
_T_XOR = 6     # (tag, a, b)
_T_MUX = 7     # (tag, ref, if0, if1) — select is a LUT input
_T_MUXX = 8    # (tag, if0, if1) — select is unknown in every lane


def _neg(node: Tuple, all_mask: int) -> Tuple:
    """NOT with double-negation and constant folding.

    Mixed per-lane constants appear when a shard patches the same LUT
    differently across lanes (e.g. two faults flipping adjacent INIT
    bits); negating one is a plain complement under the lane mask.
    """
    if node[0] == _T_NOT:
        return node[1]
    if node[0] == _T_CMASK:
        return (_T_CMASK, node[1] ^ all_mask)
    return (_T_NOT, node)


def _fold_xor(var: Tuple, other: Tuple, all_mask: int) -> Tuple:
    """``var ^ other`` with the NOT pulled out of *other* when present."""
    if other[0] == _T_NOT:
        return _neg((_T_XOR, var, other[1]), all_mask)
    return (_T_XOR, var, other)


def _fold_mux(position: int, if0: Tuple, if1: Tuple, all_mask: int) -> Tuple:
    """One Shannon step ``mux(input[position], if0, if1)``, folded.

    Every rewrite below is exact in three-valued semantics (checked by the
    exhaustive kernel tests against :func:`logic.lut_eval`): e.g.
    ``mux(x, 0, e)`` equals ``x AND e`` including the unknown-select case,
    because both yield X unless ``e`` resolves the ambiguity to 0.
    """
    if if0 == if1:
        return if0
    var = (_T_VAR, position)
    zero = (_T_CMASK, 0)
    one = (_T_CMASK, all_mask)
    if if0 == zero and if1 == one:
        return var
    if if0 == one and if1 == zero:
        return (_T_NOT, var)
    if if0 == zero:
        return (_T_AND, var, if1)
    if if1 == zero:
        return (_T_AND, (_T_NOT, var), if0)
    if if0 == one:
        return (_T_OR, (_T_NOT, var), if1)
    if if1 == one:
        return (_T_OR, var, if0)
    if if1 == _neg(if0, all_mask) or if0 == _neg(if1, all_mask):
        # mux(x, e, ~e) == x ^ e and mux(x, ~e, e) == x ^ ~e.
        return _fold_xor(var, if0, all_mask)
    if if0[0] == _T_NOT and if1[0] == _T_NOT:
        # mux(x, ~a, ~b) == ~mux(x, a, b) — exposes XOR chains above.
        return _neg(_fold_mux(position, if0[1], if1[1], all_mask), all_mask)
    return (_T_MUX, position, if0, if1)


def _lut_tree(entry_words: Sequence[int], num_inputs: int,
              all_mask: int) -> Tuple:
    """Shannon-fold a truth table (one lane word per entry) into a tree."""
    nodes: List[Tuple] = [(_T_CMASK, word) for word in entry_words]
    for position in range(num_inputs):
        nodes = [_fold_mux(position, nodes[j], nodes[j + 1], all_mask)
                 for j in range(0, len(nodes), 2)]
    return nodes[0]


def _remap_leaves(node: Tuple, net_of_position: Sequence[int]) -> Tuple:
    """Replace positional VAR/MUX refs with net slots (X for unconnected)."""
    tag = node[0]
    if tag in (_T_CMASK, _T_X):
        return node
    if tag == _T_VAR:
        net = net_of_position[node[1]]
        return (_T_VAR, net) if net >= 0 else (_T_X,)
    if tag == _T_NOT:
        return (_T_NOT, _remap_leaves(node[1], net_of_position))
    if tag == _T_MUX:
        if0 = _remap_leaves(node[2], net_of_position)
        if1 = _remap_leaves(node[3], net_of_position)
        net = net_of_position[node[1]]
        if net < 0:
            return (_T_MUXX, if0, if1)
        return (_T_MUX, net, if0, if1)
    return (tag, _remap_leaves(node[1], net_of_position),
            _remap_leaves(node[2], net_of_position))


# ----------------------------------------------------------------------
# Postfix programs (run time)
# ----------------------------------------------------------------------
_OP_CONST = 0   # push (arg, all)
_OP_X = 1       # push (0, 0)
_OP_VAR = 2     # push net / pin slot `arg`
_OP_NOT = 3
_OP_AND = 4
_OP_OR = 5
_OP_XOR = 6
_OP_MUX = 7     # select from net / pin slot `arg`, pops if1 then if0
_OP_MUXX = 8    # select unknown, pops if1 then if0


def _flatten(node: Tuple, ops: List[Tuple[int, int]]) -> None:
    tag = node[0]
    if tag == _T_CMASK:
        ops.append((_OP_CONST, node[1]))
    elif tag == _T_X:
        ops.append((_OP_X, 0))
    elif tag == _T_VAR:
        ops.append((_OP_VAR, node[1]))
    elif tag == _T_NOT:
        _flatten(node[1], ops)
        ops.append((_OP_NOT, 0))
    elif tag == _T_MUX:
        _flatten(node[2], ops)
        _flatten(node[3], ops)
        ops.append((_OP_MUX, node[1]))
    elif tag == _T_MUXX:
        _flatten(node[1], ops)
        _flatten(node[2], ops)
        ops.append((_OP_MUXX, 0))
    else:
        _flatten(node[1], ops)
        _flatten(node[2], ops)
        ops.append(({_T_AND: _OP_AND, _T_OR: _OP_OR, _T_XOR: _OP_XOR}[tag],
                    0))


# Entry kinds of the per-gate evaluation program.  The two-operand shapes
# cover the vast majority of mapped logic and dodge the postfix machine.
_E_CONST0 = 0    # out := 0 in every lane
_E_CONST1 = 1    # out := 1 in every lane
_E_COPY = 2      # out := net a (BUF and LUT pass-through)
_E_NOT = 3       # out := ~net a
_E_AND2 = 4      # out := net a & net b
_E_OR2 = 5       # out := net a | net b
_E_XOR2 = 6      # out := net a ^ net b
_E_XNOR2 = 7     # out := ~(net a ^ net b)
_E_X = 8         # out := X in every lane (unconnected input)
_E_TREE = 9      # out := postfix program over net slots
_E_PINS = 10     # out := postfix program over per-pin override slots
_E_CONSTM = 11   # out := known per-lane constant word `a`


@dataclasses.dataclass(frozen=True)
class _Entry:
    """One gate of the lane program, in evaluation order."""

    kind: int
    out_net: int
    a: int = -1
    b: int = -1
    ops: Optional[Tuple[Tuple[int, int], ...]] = None
    #: pin slots for _E_PINS: ((net, ((lane_mask, override), ...)), ...)
    pins: Optional[Tuple] = None
    #: lane-masked net overrides applied right after this gate writes
    post: Optional[Tuple] = None
    gate_index: int = -1


def _specialize(tree: Tuple, out_net: int, gate_index: int) -> _Entry:
    """Collapse a remapped tree into the cheapest entry shape."""
    tag = tree[0]
    if tag == _T_CMASK:
        if tree[1] == 0:
            return _Entry(_E_CONST0, out_net, gate_index=gate_index)
        if tree[1] == -1:
            # The base program folds with a nominal all-ones mask.
            return _Entry(_E_CONST1, out_net, gate_index=gate_index)
        # A shard-patched LUT can collapse to a per-lane constant word.
        return _Entry(_E_CONSTM, out_net, a=tree[1], gate_index=gate_index)
    if tag == _T_X:
        return _Entry(_E_X, out_net, gate_index=gate_index)
    if tag == _T_VAR:
        return _Entry(_E_COPY, out_net, a=tree[1], gate_index=gate_index)
    if tag == _T_NOT and tree[1][0] == _T_VAR:
        return _Entry(_E_NOT, out_net, a=tree[1][1], gate_index=gate_index)
    two_op = {_T_AND: _E_AND2, _T_OR: _E_OR2, _T_XOR: _E_XOR2}
    if tag in two_op and tree[1][0] == _T_VAR and tree[2][0] == _T_VAR:
        return _Entry(two_op[tag], out_net, a=tree[1][1], b=tree[2][1],
                      gate_index=gate_index)
    if tag == _T_NOT and tree[1][0] == _T_XOR and \
            tree[1][1][0] == _T_VAR and tree[1][2][0] == _T_VAR:
        return _Entry(_E_XNOR2, out_net, a=tree[1][1][1], b=tree[1][2][1],
                      gate_index=gate_index)
    ops: List[Tuple[int, int]] = []
    _flatten(tree, ops)
    return _Entry(_E_TREE, out_net, ops=tuple(ops), gate_index=gate_index)


class VectorProgram:
    """The base (fault-free) lane program of one compiled design.

    Built once per design — campaigns memoize it per implementation
    fingerprint (see :meth:`repro.faults.cache.CampaignCacheEntry
    .vector_program`) — then patched per fault shard with lane-select
    masks by :func:`patch_program`.
    """

    def __init__(self, design: CompiledDesign) -> None:
        self.design = design
        self.num_nets = design.num_nets
        self.entries: List[_Entry] = []
        # A nominal mask wide enough for constant folding; folding only
        # distinguishes all-zeros from all-ones, so any width works and
        # the runtime rescales constants to the shard's lane width.
        for gate in design.gates:
            if gate.kind == KIND_CONST0:
                self.entries.append(_Entry(_E_CONST0, gate.output_net,
                                           gate_index=gate.index))
            elif gate.kind == KIND_CONST1:
                self.entries.append(_Entry(_E_CONST1, gate.output_net,
                                           gate_index=gate.index))
            elif gate.kind == KIND_BUF:
                net = gate.input_nets[0]
                kind = _E_COPY if net >= 0 else _E_X
                self.entries.append(_Entry(kind, gate.output_net, a=net,
                                           gate_index=gate.index))
            else:
                self.entries.append(_lut_entry(gate, [], -1))
        self._pin_ops: Dict[Tuple[int, int],
                            Tuple[Tuple[int, int], ...]] = {}

    def pin_ops(self, gate, all_mask: int) -> Tuple[Tuple[int, int], ...]:
        """Memoized :func:`_position_ops` of *gate*'s own INIT.

        Every shard that patches a pin of the LUT but no lane's INIT
        evaluates these ops over its pin slots.
        """
        key = (gate.index, all_mask)
        if key not in self._pin_ops:
            self._pin_ops[key] = _position_ops(gate, [], all_mask)
        return self._pin_ops[key]


def _lane_lut_tree(gate, lanes_init: List[Tuple[int, int]],
                   all_mask: int) -> Tuple:
    """The Shannon tree of *gate* with per-lane INIT overrides applied."""
    words = []
    for address in range(1 << gate.num_inputs):
        word = all_mask if (gate.init >> address) & 1 else 0
        for mask, new_init in lanes_init:
            if (new_init >> address) & 1:
                word |= mask
            else:
                word &= ~mask
        words.append(word)
    return _lut_tree(words, gate.num_inputs, all_mask)


def _lut_entry(gate, lanes_init: List[Tuple[int, int]],
               all_mask: int) -> _Entry:
    """The entry of :func:`_lane_lut_tree` over *gate*'s input nets."""
    tree = _remap_leaves(_lane_lut_tree(gate, lanes_init, all_mask),
                         gate.input_nets)
    return _specialize(tree, gate.output_net, gate.index)


def _position_ops(gate, lanes_init: List[Tuple[int, int]],
                  all_mask: int) -> Tuple[Tuple[int, int], ...]:
    """Postfix ops of :func:`_lane_lut_tree`, indexed by pin position."""
    ops: List[Tuple[int, int]] = []
    _flatten(_lane_lut_tree(gate, lanes_init, all_mask), ops)
    return tuple(ops)


def compile_vector_program(design: CompiledDesign) -> VectorProgram:
    """Compile *design* into a reusable lane program."""
    return VectorProgram(design)


# ----------------------------------------------------------------------
# Shard patching
# ----------------------------------------------------------------------
def patch_program(program: VectorProgram, overlays: Sequence[FaultOverlay],
                  all_mask: int):
    """Apply a shard of overlays (lane *i* = overlay *i*) to the program.

    Returns ``(entries, pre_net_overrides)``: the patched entry list and the
    lane-masked net overrides the sweep applies before/after every settle
    pass (mirroring the scalar simulator's application points).
    """
    design = program.design
    init_masks: Dict[int, List[Tuple[int, int]]] = {}
    pin_masks: Dict[int, Dict[int, List[Tuple[int, SourceOverride]]]] = {}
    net_masks: Dict[int, List[Tuple[int, SourceOverride]]] = {}
    for lane, overlay in enumerate(overlays):
        mask = 1 << lane
        for gate_index, new_init in overlay.lut_init_overrides.items():
            init_masks.setdefault(gate_index, []).append((mask, new_init))
        for (gate_index, position), override in \
                overlay.gate_pin_overrides.items():
            pin_masks.setdefault(gate_index, {}).setdefault(
                position, []).append((mask, override))
        for net, override in overlay.net_overrides.items():
            net_masks.setdefault(net, []).append((mask, override))

    entries = list(program.entries)
    position_of_gate = {entry.gate_index: index
                        for index, entry in enumerate(entries)}
    for gate_index in sorted(set(init_masks) | set(pin_masks)):
        gate = design.gates[gate_index]
        if gate.kind == KIND_BUF:
            # A buffer carries no truth table; only its pin can be patched.
            overridden = pin_masks[gate_index]
            pins = ((gate.input_nets[0], tuple(overridden.get(0, ()))),)
            entries[position_of_gate[gate_index]] = _Entry(
                _E_PINS, gate.output_net, ops=((_OP_VAR, 0),), pins=pins,
                gate_index=gate_index)
            continue
        if gate.kind != KIND_LUT:
            continue
        lanes_init = init_masks.get(gate_index, [])
        overridden = pin_masks.get(gate_index)
        if overridden is None:
            entry = _lut_entry(gate, lanes_init, all_mask)
        else:
            ops = _position_ops(gate, lanes_init, all_mask) if lanes_init \
                else program.pin_ops(gate, all_mask)
            pins = tuple(
                (net, tuple(overridden.get(position, ())))
                for position, net in enumerate(gate.input_nets))
            entry = _Entry(_E_PINS, gate.output_net, ops=ops,
                           pins=pins, gate_index=gate_index)
        entries[position_of_gate[gate_index]] = entry

    # Attach net overrides to their driver entries (applied the moment the
    # driver writes, so later gates in the same pass observe the fault)
    # and collect them for the pre-pass / post-pass application loops.
    pre_net_overrides = [(net, tuple(lane_overrides))
                         for net, lane_overrides in net_masks.items()]
    driver_of_net = {entry.out_net: index
                     for index, entry in enumerate(entries)}
    for net, lane_overrides in net_masks.items():
        index = driver_of_net.get(net)
        if index is not None:
            entries[index] = dataclasses.replace(
                entries[index], post=tuple(lane_overrides))
    return entries, pre_net_overrides


# ----------------------------------------------------------------------
# Settle-pass feedback cone
# ----------------------------------------------------------------------
_TWO_KINDS = frozenset((_E_AND2, _E_OR2, _E_XOR2, _E_XNOR2))
_ONE_KINDS = frozenset((_E_COPY, _E_NOT))


def _override_read_nets(override: SourceOverride) -> Tuple[int, ...]:
    if override.kind == SOURCE_CONST:
        return ()
    if override.kind == SOURCE_NET:
        return (override.net_a,) if override.net_a >= 0 else ()
    return tuple(net for net in (override.net_a, override.net_b)
                 if net >= 0)


def _entry_reads(entry) -> set:
    """Nets whose value the entry observes during its evaluation."""
    reads: set = set()
    kind = entry.kind
    if kind in _ONE_KINDS:
        reads.add(entry.a)
    elif kind in _TWO_KINDS:
        reads.add(entry.a)
        reads.add(entry.b)
    elif kind == _E_TREE:
        for code, arg in entry.ops:
            if code == _OP_VAR or code == _OP_MUX:
                reads.add(arg)
    elif kind == _E_PINS:
        for net, lane_overrides in entry.pins:
            if net >= 0:
                reads.add(net)
            for _mask, override in lane_overrides:
                reads.update(_override_read_nets(override))
    if entry.post is not None:
        for _mask, override in entry.post:
            # The post blend reading the entry's own output sees the value
            # just written — satisfied by scatter-before-blend, not a
            # cross-entry dependency.
            reads.update(net for net in _override_read_nets(override)
                         if net != entry.out_net)
    return reads


def _dirty_nets(entries, reads, seed_nets) -> set:
    """Nets whose value can change after the first settle pass.

    Passes beyond the first exist to let override-induced backward
    dependencies (shorts, rewired pins, net conflicts) converge.  Only
    entries transitively reading a net some override writes — plus the
    override-bearing entries themselves — can compute a different value
    in pass 2+; everything else provably reproduces its pass-1 output,
    so sweeping only the entries that drive these nets is exact, not an
    approximation.  *reads* holds :func:`_entry_reads` of each entry.
    """
    dirty = set(seed_nets)
    dirty.update(entry.out_net for entry in entries
                 if entry.kind == _E_PINS or entry.post is not None)
    changed = bool(dirty)
    while changed:
        changed = False
        for entry, entry_reads in zip(entries, reads):
            if entry.out_net not in dirty and \
                    not entry_reads.isdisjoint(dirty):
                dirty.add(entry.out_net)
                changed = True
    return dirty


# ----------------------------------------------------------------------
# Lane-wise primitives
# ----------------------------------------------------------------------
def _resolve_lanes(override: SourceOverride, net_v: List[int],
                   net_k: List[int], all_mask: int) -> Tuple[int, int]:
    """Lane-wise :meth:`SourceOverride.resolve`."""
    kind = override.kind
    if kind == SOURCE_CONST:
        value = override.value
        if value == logic.ONE:
            return all_mask, all_mask
        if value == logic.ZERO:
            return 0, all_mask
        return 0, 0
    if kind == SOURCE_NET:
        net = override.net_a
        if net < 0:
            return 0, 0
        return net_v[net], net_k[net]
    net_a, net_b = override.net_a, override.net_b
    va, ka = (net_v[net_a], net_k[net_a]) if net_a >= 0 else (0, 0)
    vb, kb = (net_v[net_b], net_k[net_b]) if net_b >= 0 else (0, 0)
    blend = override.blend
    if blend == BLEND_SHORT:
        same = ((va ^ vb) ^ all_mask) & ((ka ^ kb) ^ all_mask)
        return va & same, ka & same
    if blend == BLEND_WIRED_AND:
        return (va & vb,
                (ka & kb) | (ka & (va ^ all_mask)) | (kb & (vb ^ all_mask)))
    if blend == BLEND_WIRED_OR:
        return va | vb, (ka & kb) | va | vb
    if blend == BLEND_AND_NOT:
        nv, nk = kb & (vb ^ all_mask), kb
        return (va & nv,
                (ka & nk) | (ka & (va ^ all_mask)) | (nk & (nv ^ all_mask)))
    return 0, 0


def _blend_lanes(base: Tuple[int, int], lane_overrides,
                 net_v: List[int], net_k: List[int],
                 all_mask: int) -> Tuple[int, int]:
    """Replace the lanes selected by each (mask, override) pair."""
    v, k = base
    for mask, override in lane_overrides:
        ov, ok = _resolve_lanes(override, net_v, net_k, all_mask)
        keep = mask ^ all_mask
        v = (v & keep) | (ov & mask)
        k = (k & keep) | (ok & mask)
    return v, k


def _run_ops(ops, pins_v, pins_k, all_mask: int) -> Tuple[int, int]:
    """Execute one postfix program against per-slot (v, k) arrays."""
    stack: List[Tuple[int, int]] = []
    push = stack.append
    pop = stack.pop
    for code, arg in ops:
        if code == _OP_VAR:
            push((pins_v[arg], pins_k[arg]))
        elif code == _OP_AND:
            vb, kb = pop()
            va, ka = pop()
            push((va & vb, (ka & kb) | (ka & (va ^ all_mask)) |
                  (kb & (vb ^ all_mask))))
        elif code == _OP_OR:
            vb, kb = pop()
            va, ka = pop()
            push((va | vb, (ka & kb) | va | vb))
        elif code == _OP_XOR:
            vb, kb = pop()
            va, ka = pop()
            k = ka & kb
            push(((va ^ vb) & k, k))
        elif code == _OP_NOT:
            va, ka = pop()
            push((ka & (va ^ all_mask), ka))
        elif code == _OP_MUX:
            v1, k1 = pop()
            v0, k0 = pop()
            vs, ks = pins_v[arg], pins_k[arg]
            sel1 = ks & vs
            sel0 = ks & (vs ^ all_mask)
            unk = ks ^ all_mask
            agree = k0 & k1 & ((v0 ^ v1) ^ all_mask)
            push(((sel1 & v1) | (sel0 & v0) | (unk & agree & v0),
                  (sel1 & k1) | (sel0 & k0) | (unk & agree)))
        elif code == _OP_MUXX:
            v1, k1 = pop()
            v0, k0 = pop()
            agree = k0 & k1 & ((v0 ^ v1) ^ all_mask)
            push((agree & v0, agree))
        elif code == _OP_CONST:
            push((arg, all_mask))
        else:  # _OP_X
            push((0, 0))
    return stack[-1]


def _evaluate_pass(entries, net_v: List[int], net_k: List[int],
                   all_mask: int) -> None:
    """One settle pass: evaluate every entry in levelized order."""
    for entry in entries:
        out = entry.out_net
        if out < 0:
            continue
        kind = entry.kind
        if kind == _E_AND2:
            va, ka = net_v[entry.a], net_k[entry.a]
            vb, kb = net_v[entry.b], net_k[entry.b]
            net_v[out] = va & vb
            net_k[out] = (ka & kb) | (ka & (va ^ all_mask)) | \
                (kb & (vb ^ all_mask))
        elif kind == _E_XOR2:
            k = net_k[entry.a] & net_k[entry.b]
            net_v[out] = (net_v[entry.a] ^ net_v[entry.b]) & k
            net_k[out] = k
        elif kind == _E_XNOR2:
            k = net_k[entry.a] & net_k[entry.b]
            net_v[out] = ((net_v[entry.a] ^ net_v[entry.b]) ^ all_mask) & k
            net_k[out] = k
        elif kind == _E_OR2:
            va, vb = net_v[entry.a], net_v[entry.b]
            net_v[out] = va | vb
            net_k[out] = (net_k[entry.a] & net_k[entry.b]) | va | vb
        elif kind == _E_COPY:
            net_v[out] = net_v[entry.a]
            net_k[out] = net_k[entry.a]
        elif kind == _E_NOT:
            k = net_k[entry.a]
            net_v[out] = k & (net_v[entry.a] ^ all_mask)
            net_k[out] = k
        elif kind == _E_TREE:
            net_v[out], net_k[out] = _run_ops(entry.ops, net_v, net_k,
                                              all_mask)
        elif kind == _E_PINS:
            pins_v: List[int] = []
            pins_k: List[int] = []
            for net, lane_overrides in entry.pins:
                base = (net_v[net], net_k[net]) if net >= 0 else (0, 0)
                if lane_overrides:
                    base = _blend_lanes(base, lane_overrides, net_v, net_k,
                                        all_mask)
                pins_v.append(base[0])
                pins_k.append(base[1])
            net_v[out], net_k[out] = _run_ops(entry.ops, pins_v, pins_k,
                                              all_mask)
        elif kind == _E_CONST0:
            net_v[out] = 0
            net_k[out] = all_mask
        elif kind == _E_CONST1:
            net_v[out] = all_mask
            net_k[out] = all_mask
        elif kind == _E_CONSTM:
            net_v[out] = entry.a
            net_k[out] = all_mask
        else:  # _E_X
            net_v[out] = 0
            net_k[out] = 0
        if entry.post is not None:
            v, k = _blend_lanes((net_v[out], net_k[out]), entry.post,
                                net_v, net_k, all_mask)
            net_v[out] = v
            net_k[out] = k


# ----------------------------------------------------------------------
# Flip-flop lane records
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _LaneFlipFlop:
    """Per-shard flip-flop record with lane-masked overrides."""

    d_net: int
    ce_net: int
    r_net: int
    q_net: int
    d_overrides: Tuple = ()
    ce_overrides: Tuple = ()
    r_overrides: Tuple = ()
    state_v: int = 0
    state_k: int = 0


def _build_flip_flops(design: CompiledDesign,
                      overlays: Sequence[FaultOverlay],
                      active_indices: Optional[Sequence[int]],
                      all_mask: int) -> List[_LaneFlipFlop]:
    pin_masks: Dict[Tuple[int, str], List[Tuple[int, SourceOverride]]] = {}
    init_masks: Dict[int, Tuple[int, int]] = {}
    for lane, overlay in enumerate(overlays):
        mask = 1 << lane
        for (ff_index, port), override in overlay.ff_pin_overrides.items():
            pin_masks.setdefault((ff_index, port), []).append((mask,
                                                               override))
        for ff_index, value in overlay.ff_init_overrides.items():
            set_mask, clear_mask = init_masks.get(ff_index, (0, 0))
            if value:
                set_mask |= mask
            else:
                clear_mask |= mask
            init_masks[ff_index] = (set_mask, clear_mask)

    indices = active_indices if active_indices is not None else \
        range(len(design.flip_flops))
    records = []
    for index in indices:
        flip_flop = design.flip_flops[index]
        state_v = all_mask if flip_flop.init_value else 0
        set_mask, clear_mask = init_masks.get(index, (0, 0))
        state_v = (state_v | set_mask) & ~clear_mask
        records.append(_LaneFlipFlop(
            d_net=flip_flop.d_net, ce_net=flip_flop.ce_net,
            r_net=flip_flop.reset_net, q_net=flip_flop.q_net,
            d_overrides=tuple(pin_masks.get((index, "D"), ())),
            ce_overrides=tuple(pin_masks.get((index, "CE"), ())),
            r_overrides=tuple(pin_masks.get((index, "R"), ())),
            state_v=state_v, state_k=all_mask))
    return records


def _ff_next(record: _LaneFlipFlop, net_v: List[int], net_k: List[int],
             all_mask: int) -> Tuple[int, int]:
    """Lane-wise replica of :meth:`Simulator._ff_next`."""
    d_net = record.d_net
    data = (net_v[d_net], net_k[d_net]) if d_net >= 0 else (0, 0)
    if record.d_overrides:
        data = _blend_lanes(data, record.d_overrides, net_v, net_k, all_mask)
    ce_net = record.ce_net
    enable = (net_v[ce_net], net_k[ce_net]) if ce_net >= 0 \
        else (all_mask, all_mask)
    if record.ce_overrides:
        enable = _blend_lanes(enable, record.ce_overrides, net_v, net_k,
                              all_mask)
    r_net = record.r_net
    reset = (net_v[r_net], net_k[r_net]) if r_net >= 0 else (0, all_mask)
    if record.r_overrides:
        reset = _blend_lanes(reset, record.r_overrides, net_v, net_k,
                             all_mask)

    # mux(enable, current, data); a lane without clock enable reads the
    # known-1 default and the mux degenerates to `data`, like the scalar.
    vs, ks = enable
    sel1 = ks & vs
    sel0 = ks & (vs ^ all_mask)
    unk = ks ^ all_mask
    v0, k0 = record.state_v, record.state_k
    v1, k1 = data
    agree = k0 & k1 & ((v0 ^ v1) ^ all_mask)
    next_v = (sel1 & v1) | (sel0 & v0) | (unk & agree & v0)
    next_k = (sel1 & k1) | (sel0 & k0) | (unk & agree)

    # Reset wins: known-1 forces 0, unknown forces X, known-0 keeps.
    rv, rk = reset
    keep = rk & (rv ^ all_mask)
    return next_v & keep, (next_k & keep) | (rk & rv)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LaneOutcome:
    """Verdict-relevant result of one lane."""

    wrong_answer: bool
    first_mismatch_cycle: Optional[int]


@dataclasses.dataclass
class VectorResult:
    """Result of one shard sweep."""

    #: per lane, the first cycle an output differed (``None``: never)
    first_mismatch: List[Optional[int]]
    cycles_simulated: int
    #: per cycle {port: [(v, k) per bit]} — only with record_lane_outputs
    lane_outputs: Optional[List[Dict[str, List[Tuple[int, int]]]]] = None

    @property
    def outcomes(self) -> List[LaneOutcome]:
        """One :class:`LaneOutcome` per lane (built per access)."""
        return [LaneOutcome(cycle is not None, cycle)
                for cycle in self.first_mismatch]


def broadcast_trace(golden: SimulationTrace,
                    all_mask: int) -> List[Tuple[List[int], List[int]]]:
    """Broadcast a recorded golden trace into per-cycle lane words.

    Shareable across every shard of a campaign (build once, pass as the
    *reseed* argument of :func:`simulate_lanes`).
    """
    if golden.net_values is None:
        raise ValueError("cone-mode lane simulation requires a golden "
                         "trace recorded with record_nets=True")
    reseed = []
    one = logic.ONE
    unknown = logic.UNKNOWN
    for values in golden.net_values:
        v_row = [all_mask if value == one else 0 for value in values]
        k_row = [0 if value == unknown else all_mask for value in values]
        reseed.append((v_row, k_row))
    return reseed


def broadcast_inputs(design: CompiledDesign, stimulus, all_mask: int):
    """Per-cycle broadcast (net, v, k) triples for the applied inputs.

    Like :func:`broadcast_trace`, the result only depends on the stimulus
    and lane width — build it once per campaign and pass it as the
    *inputs* argument of :func:`simulate_lanes` instead of re-decoding
    the stimulus for every shard.
    """
    per_cycle = []
    for input_values in stimulus:
        triples = []
        for port_name, binding in design.inputs.items():
            if port_name not in input_values:
                continue
            value = input_values[port_name]
            if isinstance(value, (list, tuple)):
                bits = list(value)
            else:
                bits = logic.int_to_bits(int(value), binding.width)
            for position, net in enumerate(binding.net_indices):
                if net < 0:
                    continue
                bit = bits[position]
                triples.append((net,
                                all_mask if bit == logic.ONE else 0,
                                0 if bit == logic.UNKNOWN else all_mask))
        per_cycle.append(triples)
    return per_cycle


def simulate_lanes(program: VectorProgram,
                   overlays: Sequence[FaultOverlay],
                   stimulus,
                   golden: SimulationTrace,
                   passes: Optional[int] = None,
                   skip_cycles: int = 0,
                   ports: Optional[Sequence[str]] = None,
                   cone: Optional[FaultCone] = None,
                   width: Optional[int] = None,
                   reseed: Optional[List[Tuple[List[int],
                                               List[int]]]] = None,
                   inputs: Optional[List[List[Tuple[int, int,
                                                    int]]]] = None,
                   record_lane_outputs: bool = False) -> VectorResult:
    """Simulate every overlay of a shard in one bit-parallel sweep.

    Lane *i* carries ``overlays[i]``; lanes up to *width* beyond the shard
    population re-simulate the golden circuit and are ignored.  With
    *cone* (the union fan-out cone of the shard) only cone gates and
    flip-flops are evaluated and everything else is re-seeded from the
    golden trace each cycle — the lane-wise equivalent of the scalar
    simulator's cone mode.  *passes* must cover every overlay's
    ``required_passes()`` (the default takes their maximum); extra
    settle passes leave a settled lane unchanged, so the results stay
    bit-identical to the scalar simulator.  Passes after the first
    evaluate only the override feedback cone (:func:`_dirty_nets`).
    """
    lanes = len(overlays)
    lane_width = width if width is not None else lanes
    if lane_width < lanes:
        raise ValueError(f"width {lane_width} cannot hold {lanes} lanes")
    all_mask = (1 << lane_width) - 1 if lane_width else 0
    used_mask = (1 << lanes) - 1
    if passes is None:
        passes = max((overlay.required_passes() for overlay in overlays),
                     default=1)

    design = program.design
    entries, pre_net_overrides = patch_program(program, overlays, all_mask)
    if cone is not None:
        active_gates = cone.gate_set
        entries = [entry for entry in entries
                   if entry.gate_index in active_gates]
        flip_flops = _build_flip_flops(design, overlays, cone.ff_indices,
                                       all_mask)
        if reseed is None:
            reseed = broadcast_trace(golden, all_mask)
    else:
        flip_flops = _build_flip_flops(design, overlays, None, all_mask)
    # Passes after the first only re-evaluate the override feedback cone:
    # every other entry reproduces its pass-1 value.
    settle = entries
    if passes > 1:
        dirty = _dirty_nets(entries, [_entry_reads(entry)
                                      for entry in entries],
                            [net for net, _ in pre_net_overrides])
        settle = [entry for entry in entries if entry.out_net in dirty]

    output_masks: Dict[Tuple[str, int], Tuple] = {}
    for lane, overlay in enumerate(overlays):
        for key, override in overlay.output_pin_overrides.items():
            output_masks.setdefault(key, []).append((1 << lane, override))
    output_masks = {key: tuple(value) for key, value in
                    output_masks.items()}

    inputs_per_cycle = inputs if inputs is not None else \
        broadcast_inputs(design, stimulus, all_mask)
    port_names = list(ports) if ports is not None else \
        list(design.outputs)
    # (port, bit, net, golden bit per cycle) for the comparison loop
    compare_plan = []
    for port_name in port_names:
        binding = design.outputs[port_name]
        for position, net in enumerate(binding.net_indices):
            compare_plan.append((port_name, position, net))

    net_v = [0] * design.num_nets
    net_k = [0] * design.num_nets

    first_mismatch: List[Optional[int]] = [None] * lanes
    pending = used_mask
    lane_outputs: Optional[List[Dict[str, List[Tuple[int, int]]]]] = \
        [] if record_lane_outputs else None
    cycles_simulated = 0

    for cycle, _ in enumerate(stimulus):
        cycles_simulated = cycle + 1
        if reseed is not None:
            seed_v, seed_k = reseed[cycle]
            net_v = list(seed_v)
            net_k = list(seed_k)
        for net, v, k in inputs_per_cycle[cycle]:
            net_v[net] = v
            net_k[net] = k
        for record in flip_flops:
            if record.q_net >= 0:
                net_v[record.q_net] = record.state_v
                net_k[record.q_net] = record.state_k
        for net, lane_overrides in pre_net_overrides:
            v, k = _blend_lanes((net_v[net], net_k[net]), lane_overrides,
                                net_v, net_k, all_mask)
            net_v[net] = v
            net_k[net] = k

        for settle_pass in range(passes):
            _evaluate_pass(settle if settle_pass else entries, net_v, net_k,
                           all_mask)
            for net, lane_overrides in pre_net_overrides:
                v, k = _blend_lanes((net_v[net], net_k[net]),
                                    lane_overrides, net_v, net_k, all_mask)
                net_v[net] = v
                net_k[net] = k

        # Sample outputs and fold the golden comparison into lane masks.
        golden_out = golden.outputs[cycle]
        mismatch = 0
        sampled: Optional[Dict[str, List[Tuple[int, int]]]] = \
            {} if record_lane_outputs else None
        for port_name, position, net in compare_plan:
            v, k = (net_v[net], net_k[net]) if net >= 0 else (0, 0)
            lane_overrides = output_masks.get((port_name, position))
            if lane_overrides is not None:
                v, k = _blend_lanes((v, k), lane_overrides, net_v, net_k,
                                    all_mask)
            if sampled is not None:
                sampled.setdefault(port_name, []).append((v, k))
            if cycle < skip_cycles:
                continue
            gold = golden_out[port_name][position]
            if gold == logic.UNKNOWN:
                continue
            expect = all_mask if gold == logic.ONE else 0
            mismatch |= (k ^ all_mask) | (v ^ expect)
        if sampled is not None:
            lane_outputs.append(sampled)

        fresh = mismatch & pending
        if fresh:
            pending &= ~fresh
            while fresh:
                low = fresh & -fresh
                first_mismatch[low.bit_length() - 1] = cycle
                fresh ^= low

        # Clock edge: compute every next state, then publish.
        next_states = [_ff_next(record, net_v, net_k, all_mask)
                       for record in flip_flops]
        for record, (state_v, state_k) in zip(flip_flops, next_states):
            record.state_v = state_v
            record.state_k = state_k

        if pending == 0 and not record_lane_outputs:
            # Every lane already produced a wrong answer; later cycles
            # cannot change any verdict.
            break

    return VectorResult(first_mismatch, cycles_simulated, lane_outputs)
