"""Numpy-compiled (vectorized PPSFP) fault-simulation kernel.

:mod:`repro.sim.bitparallel` packs a fault shard into the bit lanes of
Python big integers, but still *interprets* the lane program one entry at
a time — at smoke scale the Python loop over the levelized gate list is
the floor, not the word arithmetic.  This module compiles that same lane
program into a short sequence of **vectorized numpy operations** over
``uint64[lanes/64]`` lane-word arrays:

* every net owns one row of a preallocated state matrix per mask plane
  (``v`` = known-1, ``k`` = known, exactly the two-mask encoding of
  :mod:`.bitparallel`), followed by four slot rows (X, known-1, known-0,
  trash) and the *shadow rows* of patched LUT and buffer pins;
* entries are grouped by dependency level into *conflict-free batches*
  (no entry reads a net another batch member writes, writes a net another
  member reads, or re-writes a written net), so each batch evaluates as a
  handful of gather → compute → scatter array operations instead of one
  Python iteration per gate;
* within a batch, same-shape work fuses: all AND2 gates become one
  fancy-indexed sweep, LUT mux trees sharing a postfix skeleton (every
  TMR voter, every adder column) evaluate as one stacked postfix run;
* overlay patching stays in :func:`.bitparallel.patch_program`, over
  the shard's override rows as :class:`.bitparallel.ShardOverrides`
  buckets them — the patched entries are what gets compiled.
  Lane-masked overrides become stacked masked stores
  (:class:`_BlendPlan`; runtime blends gather and store only the lane
  words some lane selects): a batch first copies each overridden pin's
  net into its shadow row and blends the pin overrides in there, so
  patched entries are plain trees over shadow rows and fuse with the
  unpatched ones; net overrides blend into the net rows after the
  batch writes, and overridden flip-flop pins and output bits read
  edge shadow rows filled the same way after the settle passes;
* the entries are batched once per shard.  Settle passes beyond the
  first only re-evaluate the *override feedback cone* (entries
  transitively reading a net any override writes), reusing the steps of
  every batch that lies wholly inside it; every other entry provably
  recomputes its pass-1 value, so skipping it is exact, and shards that
  mix 1-pass and 3-pass faults stop paying the full sweep three times.

Because every lane word is a whole ``uint64`` (shard capacity rounds up
to 64), the big-int ``x ^ all_mask`` complement becomes plain ``~x``:
lanes past the shard population simulate the fault-free circuit, exactly
like the big-int kernel's ghost lanes, and are ignored at verdict demux.

Results are bit-identical to :func:`.bitparallel.simulate_lanes` (and
therefore to the scalar :class:`~repro.sim.simulator.Simulator`) — the
equivalence is enforced lane by lane in ``tests/test_npkernel.py``.

numpy is a required dependency of the package, so this kernel backs the
``numpy`` campaign backend unconditionally.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as _np

from ..cells import logic
from .bitparallel import (VectorProgram, VectorResult, _ONE_KINDS,
                          _TWO_KINDS, _build_flip_flops, _dirty_nets,
                          _E_AND2, _E_CONST0, _E_CONST1, _E_CONSTM, _E_COPY,
                          _E_OR2, _E_PINS, _E_TREE, _E_X, _E_XOR2,
                          _entry_reads, _OP_AND, _OP_CONST, _OP_MUX,
                          _OP_MUXX, _OP_NOT, _OP_OR, _OP_VAR, _OP_X, _OP_XOR,
                          ShardOverrides, broadcast_inputs, patch_program)
from .compile import CompiledDesign, FaultCone
from .overlay import (BLEND_AND_NOT, BLEND_SHORT, BLEND_WIRED_AND,
                      BLEND_WIRED_OR, SOURCE_CONST, SOURCE_NET, LanesLike,
                      SourceOverride, as_lanes)
from .simulator import SimulationTrace

_U64_MAX = _np.uint64(0xFFFFFFFFFFFFFFFF)
_U64_0 = _np.uint64(0)


# ----------------------------------------------------------------------
# Lane-word <-> array conversion
# ----------------------------------------------------------------------
def _mask_matrix(masks, words: int):
    """Big-int lane words -> one row of little-endian uint64 words each."""
    size = words * 8
    raw = b"".join(mask.to_bytes(size, "little") for mask in masks)
    return _np.frombuffer(raw, dtype="<u8").astype(_np.uint64).reshape(
        -1, words)


def _row_int(row) -> int:
    """Rebuild the big-int lane word of one state row (test demux)."""
    return int.from_bytes(_np.ascontiguousarray(row,
                                                dtype="<u8").tobytes(),
                          "little")


def broadcast_trace_numpy(golden: SimulationTrace):
    """Golden trace as per-cycle broadcast planes ``(gv, gk)``.

    ``gv[cycle]`` / ``gk[cycle]`` hold one uint64 per net (0 or all-ones)
    that the cone-mode sweep broadcasts across the shard's lane words —
    the array twin of :func:`.bitparallel.broadcast_trace`.
    """
    if golden.net_values is None:
        raise ValueError("cone-mode lane simulation requires a golden "
                         "trace recorded with record_nets=True")
    values = _np.array(golden.net_values, dtype=_np.int64)
    gv = _np.where(values == logic.ONE, _U64_MAX, _U64_0)
    gk = _np.where(values == logic.UNKNOWN, _U64_0, _U64_MAX)
    return gv.astype(_np.uint64), gk.astype(_np.uint64)


def broadcast_inputs_numpy(design: CompiledDesign, stimulus):
    """Per-cycle ``(net_idx, v, k)`` input-store arrays for the sweep.

    Reuses the big-int decoder (one-lane nominal mask) so port/bit
    handling stays in exactly one place, then broadcasts each applied bit
    to a full uint64 word.
    """
    per_cycle = []
    for triples in broadcast_inputs(design, stimulus, 1):
        idx = _np.array([net for net, _v, _k in triples], dtype=_np.intp)
        v = _np.array([_U64_MAX if v else 0 for _n, v, _k in triples],
                      dtype=_np.uint64).reshape(-1, 1)
        k = _np.array([_U64_MAX if k else 0 for _n, _v, k in triples],
                      dtype=_np.uint64).reshape(-1, 1)
        per_cycle.append((idx, v, k))
    return per_cycle


# ----------------------------------------------------------------------
# Sweep compilation: conflict-free batches -> fused array steps
# ----------------------------------------------------------------------
_CONST_KINDS = frozenset((_E_CONST0, _E_CONST1, _E_CONSTM, _E_X))

# Step opcodes of the compiled sweep.
_ST_TWO = 0     # (code, kind, a_idx, b_idx, out_idx)
_ST_ONE = 1     # (code, kind, a_idx, out_idx)
_ST_CONST = 2   # (code, v_mat, k_mat, out_idx)
_ST_TREE = 3    # (code, compiled postfix ops, out_idx)
_ST_PINS = 4    # (code, src_idx, first_row, end_row, _BlendPlan) — shadows
_ST_BLEND = 5   # (code, _BlendPlan) — deferred post overrides of a batch


def _lane_matrix(lane_lists, words: int):
    """One ``uint64`` mask row per list of lane indices, by one scatter."""
    counts = [len(lanes) for lanes in lane_lists]
    lanes = _np.fromiter(itertools.chain.from_iterable(lane_lists),
                         dtype=_np.int64, count=sum(counts))
    rows = _np.repeat(_np.arange(len(lane_lists)), counts)
    matrix = _np.zeros((len(lane_lists), words), dtype=_np.uint64)
    _np.bitwise_or.at(matrix, (rows, lanes >> 6),
                      _np.left_shift(_np.uint64(1),
                                     (lanes & 63).astype(_np.uint64)))
    return matrix


# Runtime-resolved override tags of the stacked blend groups.
_BK_NET = 0
_BK_SHORT = 1
_BK_WAND = 2
_BK_WOR = 3
_BK_ANDNOT = 4
_BLEND_TAGS = {BLEND_SHORT: _BK_SHORT, BLEND_WIRED_AND: _BK_WAND,
               BLEND_WIRED_OR: _BK_WOR, BLEND_AND_NOT: _BK_ANDNOT}


class _BlendPlan:
    """Ordered lane-masked overrides compiled into stacked array stores.

    Input is a sequence of ``(out_row, lane_mask, source)`` triples in
    their sequential application order; every mask selects one lane
    (``1 << lane``, as :class:`.bitparallel.ShardOverrides` builds them).
    The compiler splits them into *waves* — a triple opens a new wave
    when it reads a net an earlier triple of the wave writes, so every
    gather within a wave observes the pre-wave state exactly as the
    sequential big-int loop would.  Within a wave, constant overrides
    fold per target row into one masked scatter, and runtime overrides
    (net reroutes, shorts, wired blends) stack per blend kind into a
    single gather → formula → masked-scatter group over just the lane
    words some lane selects (masks are sparse: one lane in 64 words).
    Triples landing on the same target come from different lanes (an
    overlay holds at most one override per net or pin), so their masks
    are disjoint: identical ``(target, sources)`` pairs merge their
    lanes, and a target word still repeated (rerouted to different
    sources on different lanes) folds through a segment reduction
    before one store.
    """

    __slots__ = ("waves",)


def _compile_blend_plan(triples, words: int,
                        x_slot: int) -> Optional[_BlendPlan]:
    if not triples:
        return None
    waves_raw: List[List[Tuple]] = []
    wave: List[Tuple] = []
    wave_writes: set = set()
    for out, mask, source in triples:
        # The raw source fields over-approximate the reads (a detached
        # or unread field is -1, or at worst splits a wave early).
        if wave and not wave_writes.isdisjoint(source[1:3]):
            waves_raw.append(wave)
            wave = []
            wave_writes = set()
        wave.append((out, mask, source))
        wave_writes.add(out)
    waves_raw.append(wave)

    plan = _BlendPlan()
    plan.waves = []
    for raw in waves_raw:
        # target row -> (replaced lanes, lanes set to 1, known lanes)
        const_lanes: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        runtime: Dict[int, Dict[Tuple[int, int, int], List[int]]] = {}
        for out, mask, source in raw:
            lane = mask.bit_length() - 1
            fixed = _const_resolution(source)
            if fixed is not None:
                fold = const_lanes.get(out)
                if fold is None:
                    fold = const_lanes[out] = ([], [], [])
                fold[0].append(lane)
                if fixed[0]:
                    fold[1].append(lane)
                if fixed[1]:
                    fold[2].append(lane)
            else:
                kind, net_a, net_b, _value, blend = source
                tag = _BK_NET if kind == SOURCE_NET else _BLEND_TAGS[blend]
                key = (out, net_a if net_a >= 0 else x_slot,
                       net_b if net_b >= 0 else x_slot)
                runtime.setdefault(tag, {}).setdefault(key, []).append(lane)

        stacked = []
        for tag, merged in runtime.items():
            keys = sorted(merged)
            mask_mat = _lane_matrix([merged[key] for key in keys], words)
            # Only the lane words a key selects are gathered and stored:
            # one element per (key, word) with a lane set, ordered by
            # (target, word) so repeats of one target word form a run.
            key_of, word = _np.nonzero(mask_mat)
            outs = _idx([out for out, _a, _b in keys])[key_of]
            order = _np.lexsort((word, outs))
            key_of, word, outs = key_of[order], word[order], outs[order]
            bits = mask_mat[key_of, word]
            a_idx = _idx([a for _o, a, _b in keys])[key_of]
            b_idx = _idx([b for _o, _a, b in keys])[key_of]
            starts = _np.flatnonzero(
                (_np.diff(outs, prepend=-1) != 0)
                | (_np.diff(word, prepend=-1) != 0))
            if starts.size == len(outs):
                stacked.append((tag, None, outs, word, a_idx, b_idx, word,
                                ~bits, bits))
            else:
                stacked.append((tag, starts, outs[starts], word[starts],
                                a_idx, b_idx, word,
                                ~_np.bitwise_or.reduceat(bits, starts),
                                bits))
        const_scatter = None
        if const_lanes:
            folds = list(const_lanes.values())
            const_scatter = (
                _idx(list(const_lanes)),
                ~_lane_matrix([fold[0] for fold in folds], words),
                _lane_matrix([fold[1] for fold in folds], words),
                _lane_matrix([fold[2] for fold in folds], words))
        plan.waves.append((const_scatter, stacked))
    return plan


def _apply_blend_plan(plan: _BlendPlan, net_v, net_k) -> None:
    for const_scatter, stacked in plan.waves:
        for (tag, seg, out_idx, out_word, a_idx, b_idx, word, keep,
             mask) in stacked:
            va = net_v[a_idx, word]
            ka = net_k[a_idx, word]
            if tag == _BK_NET:
                ov, ok = va, ka
            else:
                vb = net_v[b_idx, word]
                kb = net_k[b_idx, word]
                if tag == _BK_SHORT:
                    same = ~(va ^ vb) & ~(ka ^ kb)
                    ov, ok = va & same, ka & same
                elif tag == _BK_WAND:
                    ov = va & vb
                    ok = (ka & kb) | (ka & ~va) | (kb & ~vb)
                elif tag == _BK_WOR:
                    ov = va | vb
                    ok = (ka & kb) | va | vb
                else:  # _BK_ANDNOT — wired-AND against b's complement
                    nv = kb & ~vb
                    ov = va & nv
                    ok = (ka & kb) | (ka & ~va) | (kb & ~nv)
            ov = ov & mask
            ok = ok & mask
            if seg is not None:
                ov = _np.bitwise_or.reduceat(ov, seg)
                ok = _np.bitwise_or.reduceat(ok, seg)
            net_v[out_idx, out_word] = net_v[out_idx, out_word] & keep | ov
            net_k[out_idx, out_word] = net_k[out_idx, out_word] & keep | ok
        if const_scatter is not None:
            out_idx, keep, set_v, set_k = const_scatter
            net_v[out_idx] = net_v[out_idx] & keep | set_v
            net_k[out_idx] = net_k[out_idx] & keep | set_k


def _const_rows(entry, all_mask: int, words: int, zrow, frow):
    kind = entry.kind
    if kind == _E_CONST0:
        return zrow, frow
    if kind == _E_CONST1:
        return frow, frow
    if kind == _E_CONSTM:
        return _mask_matrix((entry.a & all_mask,), words)[0], frow
    return zrow, zrow  # _E_X


def _idx(values):
    return _np.array(values, dtype=_np.intp)


def _const_resolution(source: SourceOverride):
    """The fixed ``(v, k)`` bit pair a source resolves to, or None.

    Mirrors :func:`.bitparallel._resolve_lanes` on overrides that never
    read live state: declared constants, detached reroutes, unknown blend kinds
    and blends whose sources are both detached (every supported blend
    of two unknowns is unknown).
    """
    kind, net_a, net_b, value, blend = source
    if kind == SOURCE_CONST:
        if value == logic.ONE:
            return (1, 1)
        if value == logic.ZERO:
            return (0, 1)
        return (0, 0)
    if kind == SOURCE_NET:
        return (0, 0) if net_a < 0 else None
    if blend not in _BLEND_TAGS:
        return (0, 0)
    if net_a < 0 and net_b < 0:
        return (0, 0)
    return None


def _shadow_pins(entry, x_slot: int, first_shadow: int,
                 shadow_src: List[int], shadow_triples: List[Tuple]):
    """Rewrite a patched-pin entry as a plain entry over state rows.

    Every pin some lane overrides gets the next shadow row: its base row
    (the pin's net, or the X slot for an unconnected pin) goes onto
    *shadow_src* and its lane overrides onto *shadow_triples* as
    ``(shadow_row, mask, source)``.  Other pins read their net row
    directly.
    """
    rows = []
    for net, lane_overrides in entry.pins:
        row = net if net >= 0 else x_slot
        if lane_overrides:
            shadow = first_shadow + len(shadow_src)
            shadow_src.append(row)
            shadow_triples.extend((shadow, mask, source)
                                  for mask, source in lane_overrides)
            row = shadow
        rows.append(row)
    ops = tuple((code, rows[arg]) if code == _OP_VAR or code == _OP_MUX
                else (code, arg) for code, arg in entry.ops)
    if len(ops) == 1 and ops[0][0] == _OP_VAR:  # BUF or pass-through LUT
        return dataclasses.replace(entry, kind=_E_COPY, a=ops[0][1],
                                   ops=None, pins=None)
    return dataclasses.replace(entry, kind=_E_TREE, ops=ops, pins=None)


def _emit_batch(batch, all_mask: int, words: int, x_slot: int, zrow,
                frow) -> Tuple[List[Tuple], int]:
    """Fuse one conflict-free batch into per-shape array steps.

    Returns the steps and the number of shadow rows they use.  Patched
    pins become shadow rows after the four slot rows (see
    :func:`_shadow_pins`): the batch opens with one ``_ST_PINS`` step
    that copies their base rows in with one fancy-index copy and applies
    every pin override of the batch as one stacked blend plan, and the
    patched entries then fuse with the plain trees of their skeleton.
    Post overrides (net faults attached to driver entries) are stripped
    off and applied as one stacked blend plan at the end of the batch.
    Both are exact because of the batch rule: no member reads a batch
    write, so resolving every pin before the first write and every post
    override after the last one changes no value any member observes.
    """
    twos: Dict[int, List] = {}
    ones: Dict[int, List] = {}
    consts: List = []
    trees: Dict[Tuple[int, ...], List] = {}
    posts: List[Tuple] = []
    shadow_src: List[int] = []
    shadow_triples: List[Tuple] = []
    first_shadow = x_slot + 4
    for entry in batch:
        if entry.post is not None:
            for mask, source in entry.post:
                posts.append((entry.out_net, mask, source))
            entry = dataclasses.replace(entry, post=None)
        if entry.kind == _E_PINS:
            entry = _shadow_pins(entry, x_slot, first_shadow, shadow_src,
                                 shadow_triples)
        if entry.kind in _TWO_KINDS:
            twos.setdefault(entry.kind, []).append(entry)
        elif entry.kind in _ONE_KINDS:
            ones.setdefault(entry.kind, []).append(entry)
        elif entry.kind in _CONST_KINDS:
            consts.append(entry)
        else:
            trees.setdefault(tuple(code for code, _arg in entry.ops),
                             []).append(entry)
    steps: List[Tuple] = []
    if shadow_src:
        steps.append((_ST_PINS, _idx(shadow_src), first_shadow,
                      first_shadow + len(shadow_src),
                      _compile_blend_plan(shadow_triples, words, x_slot)))
    for kind, group in twos.items():
        steps.append((_ST_TWO, kind,
                      _idx([entry.a for entry in group]),
                      _idx([entry.b for entry in group]),
                      _idx([entry.out_net for entry in group])))
    for kind, group in ones.items():
        steps.append((_ST_ONE, kind,
                      _idx([entry.a for entry in group]),
                      _idx([entry.out_net for entry in group])))
    if consts:
        rows = [_const_rows(entry, all_mask, words, zrow, frow)
                for entry in consts]
        steps.append((_ST_CONST,
                      _np.stack([v for v, _k in rows]),
                      _np.stack([k for _v, k in rows]),
                      _idx([entry.out_net for entry in consts])))
    for codes, group in trees.items():
        count = len(group)
        ops: List[Tuple] = []
        # One shared index array per distinct slot vector, so the
        # evaluator's per-call selector cache (keyed by array identity)
        # hits for every MUX level switching on the same pins.
        arg_memo: Dict[Tuple[int, ...], object] = {}
        for position, code in enumerate(codes):
            if code == _OP_VAR or code == _OP_MUX:
                slots = tuple(entry.ops[position][1] for entry in group)
                arr = arg_memo.get(slots)
                if arr is None:
                    arr = arg_memo[slots] = _idx(slots)
                ops.append((code, arr))
            elif code == _OP_CONST:
                v_mat = _mask_matrix(
                    [entry.ops[position][1] & all_mask for entry in group],
                    words)
                ops.append((_OP_CONST,
                            (v_mat, _np.full((count, words), _U64_MAX,
                                             dtype=_np.uint64))))
            elif code == _OP_X:
                zeros = _np.zeros((count, words), dtype=_np.uint64)
                ops.append((_OP_CONST, (zeros, zeros)))
            else:
                ops.append((code, None))
        steps.append((_ST_TREE, _fuse_ops(ops),
                      _idx([entry.out_net for entry in group])))
    if posts:
        steps.append((_ST_BLEND,
                      _compile_blend_plan(posts, words, x_slot)))
    return steps, len(shadow_src)


def _compile_sweep(entries, seed_nets, all_mask: int, words: int,
                   x_slot: int, zrow, frow) -> Tuple[List, List, int]:
    """Batch the (patched) entry list once and compile both sweeps.

    Returns ``(steps, reduced_steps, shadow_rows)``: the first settle
    pass, every later one, and the most shadow rows any batch uses.

    Batching is by level (as soon as possible): an entry goes into the
    batch after the last one holding an earlier entry that writes a net
    it reads (it must see that write) or that reads or writes its output
    (that entry must not see this write).  Every member of a batch
    therefore observes exactly the state the sequential big-int pass
    shows it and writes a distinct net — gather/compute/scatter order
    across the fused steps cannot change any value, so the batched sweep
    equals the sequential pass bit for bit, with fewer batches than
    cutting the entry list into consecutive runs.  The later-pass sweep
    keeps only the override feedback cone (:func:`_dirty_nets`): it
    reuses a batch's steps when every member is in the cone and emits
    steps for just the cone members otherwise.  A subset of a
    conflict-free batch is still conflict-free and the batches keep
    their order, so that sweep is exact too.
    """
    entries = [entry for entry in entries if entry.out_net >= 0]
    reads = [_entry_reads(entry) for entry in entries]
    batches: List[List] = []
    # net -> batch of its writer / latest batch reading it
    writer_level: Dict[int, int] = {}
    reader_level: Dict[int, int] = {}
    for entry, entry_reads in zip(entries, reads):
        out = entry.out_net
        level = max(reader_level.get(out, -1), writer_level.get(out, -1)) + 1
        for net in entry_reads:
            written = writer_level.get(net)
            if written is not None and written >= level:
                level = written + 1
        if level == len(batches):
            batches.append([])
        batches[level].append(entry)
        writer_level[out] = level
        for net in entry_reads:
            if reader_level.get(net, -1) < level:
                reader_level[net] = level

    compiled = [_emit_batch(batch, all_mask, words, x_slot, zrow, frow)
                for batch in batches]
    steps = [step for batch_steps, _rows in compiled for step in batch_steps]
    dirty = _dirty_nets(entries, reads, seed_nets)
    reduced: List[Tuple] = []
    for batch, (batch_steps, _rows) in zip(batches, compiled):
        cone = [entry for entry in batch if entry.out_net in dirty]
        if len(cone) == len(batch):
            reduced.extend(batch_steps)
        elif cone:
            reduced.extend(_emit_batch(cone, all_mask, words, x_slot, zrow,
                                       frow)[0])
    return (steps, reduced or steps,
            max((rows for _steps, rows in compiled), default=0))


# ----------------------------------------------------------------------
# Shard plans
# ----------------------------------------------------------------------
class _ShardPlan:
    """Everything overlay-dependent, compiled once per (shard, width).

    ``steps`` is the first settle pass and ``reduced_steps`` every later
    one; both come from one batching of the patched entries and share
    the step tuples of every batch that lies wholly in the override
    feedback cone.  ``rows`` is the height of the state matrices: one
    row per net, the X / known-1 / known-0 slots, the trash row, the
    shadow rows of the batch with the most patched pins, then one edge
    shadow row per overridden flip-flop pin or output bit (``edge``
    fills them after the settle passes; ``ff_d``/``ff_ce``/``ff_r`` and
    ``output_rows`` point at them).
    """

    __slots__ = ("lanes", "words", "num_nets", "rows", "steps",
                 "reduced_steps",
                 "pre_blend", "ff_d", "ff_ce", "ff_r", "ff_q",
                 "ff_state_v", "ff_state_k", "output_rows", "edge",
                 "pending0", "zrow")


def _build_shard_plan(program: VectorProgram, overlays: LanesLike,
                      width: Optional[int],
                      cone: Optional[FaultCone]) -> _ShardPlan:
    shard = ShardOverrides(overlays)
    lanes = shard.count
    lane_width = width if width is not None else lanes
    if lane_width < lanes:
        raise ValueError(f"width {lane_width} cannot hold {lanes} lanes")
    words = max(1, (lane_width + 63) // 64)
    all_mask = (1 << (words * 64)) - 1
    design = program.design

    entries, pre_net_overrides = patch_program(program, shard, all_mask)
    if cone is not None:
        active = cone.gate_set
        entries = [entry for entry in entries
                   if entry.gate_index in active]
        records = _build_flip_flops(design, shard, cone.ff_indices,
                                    all_mask)
    else:
        records = _build_flip_flops(design, shard, None, all_mask)

    plan = _ShardPlan()
    plan.lanes = lanes
    plan.words = words
    plan.num_nets = design.num_nets
    plan.zrow = _np.zeros(words, dtype=_np.uint64)
    plan.pending0 = _mask_matrix(((1 << lanes) - 1,), words)[0]

    x_slot = design.num_nets
    plan.steps, plan.reduced_steps, shadow_rows = _compile_sweep(
        entries, [net for net, _ in pre_net_overrides], all_mask, words,
        x_slot, plan.zrow, _np.full(words, _U64_MAX, dtype=_np.uint64))
    plan.pre_blend = _compile_blend_plan(
        [(net, mask, source)
         for net, lane_overrides in pre_net_overrides
         for mask, source in lane_overrides],
        words, x_slot)

    # Flip-flop pins and output bits read their net rows; absent pins read
    # the constant slot rows (X / known-1 / known-0) and absent flip-flop
    # outputs scatter into the trash row.  A pin or output bit some lane
    # overrides reads an *edge shadow row* instead, refilled after the
    # settle passes of every cycle by one copy + blend plan.
    one_slot, zero_slot, trash = x_slot + 1, x_slot + 2, x_slot + 3
    first_edge = x_slot + 4 + shadow_rows
    edge_src: List[int] = []
    edge_triples: List[Tuple] = []

    def edge_row(row: int, lane_overrides) -> int:
        if not lane_overrides:
            return row
        shadow = first_edge + len(edge_src)
        edge_src.append(row)
        edge_triples.extend((shadow, mask, source)
                            for mask, source in lane_overrides)
        return shadow

    plan.ff_d = _idx([edge_row(r.d_net if r.d_net >= 0 else x_slot,
                               r.d_overrides) for r in records])
    plan.ff_ce = _idx([edge_row(r.ce_net if r.ce_net >= 0 else one_slot,
                                r.ce_overrides) for r in records])
    plan.ff_r = _idx([edge_row(r.r_net if r.r_net >= 0 else zero_slot,
                               r.r_overrides) for r in records])
    plan.ff_q = _idx([r.q_net if r.q_net >= 0 else trash
                      for r in records])
    plan.ff_state_v = _mask_matrix([r.state_v for r in records], words)
    plan.ff_state_k = _mask_matrix([r.state_k for r in records], words)

    plan.output_rows = {}
    for (port, position), lane_overrides in shard.outputs.items():
        net = design.outputs[port].net_indices[position]
        plan.output_rows[(port, position)] = edge_row(
            net if net >= 0 else x_slot, lane_overrides)
    plan.edge = (_ST_PINS, _idx(edge_src), first_edge,
                 first_edge + len(edge_src),
                 _compile_blend_plan(edge_triples, words, x_slot)) \
        if edge_src else None
    plan.rows = first_edge + len(edge_src)
    return plan


# ----------------------------------------------------------------------
# Golden comparison plans
# ----------------------------------------------------------------------
class _ComparePlan:
    """Per-cycle gather indices and expected words for output sampling."""

    __slots__ = ("positions", "cycles")


def _compile_compare(design: CompiledDesign,
                     golden: SimulationTrace) -> _ComparePlan:
    positions: List[Tuple[str, int, int]] = []
    for port_name in design.outputs:
        binding = design.outputs[port_name]
        for position, net in enumerate(binding.net_indices):
            positions.append((port_name, position, net))
    x_slot = design.num_nets  # a net-less output bit mismatches like X
    plan = _ComparePlan()
    plan.positions = tuple(positions)
    cycles = []
    for golden_out in golden.outputs:
        idx: List[int] = []
        expect: List[int] = []
        for port_name, position, net in positions:
            gold = golden_out[port_name][position]
            if gold == logic.UNKNOWN:
                continue
            idx.append(net if net >= 0 else x_slot)
            expect.append(0xFFFFFFFFFFFFFFFF if gold == logic.ONE else 0)
        cycles.append((_np.array(idx, dtype=_np.intp),
                       _np.array(expect, dtype=_np.uint64).reshape(-1, 1)))
    plan.cycles = cycles
    return plan


# ----------------------------------------------------------------------
# Row-wise primitives (lane-masked overrides, postfix programs)
# ----------------------------------------------------------------------
#: Fused ``CONST, CONST, MUX`` triple over fully-known constant leaves —
#: the bottom level of every LUT Shannon tree.  Payload carries the
#: selector slot plus precomputed leaf matrices (see :func:`_fuse_ops`).
_OP_MUXC = 9


def _fuse_ops(ops) -> Tuple:
    """Peephole-fuse constant-leaf MUXes in a stacked postfix program.

    A ``CONST c0, CONST c1, MUX sel`` triple with both leaves fully
    known (LUT INIT bits always are) needs none of the general
    three-valued agreement machinery per op: the disagreement mask and
    the X-select fallback value are constants.  The fused payload is
    ``(sel, c0v, c1v, agree, agree & c0v)``.
    """
    fused: List[Tuple] = []
    for code, payload in ops:
        if code == _OP_MUX and len(fused) >= 2 \
                and fused[-1][0] == _OP_CONST \
                and fused[-2][0] == _OP_CONST:
            (c1v, c1k) = fused[-1][1]
            (c0v, c0k) = fused[-2][1]
            if bool((c0k == _U64_MAX).all()) and \
                    bool((c1k == _U64_MAX).all()):
                agree = ~(c0v ^ c1v)
                del fused[-2:]
                fused.append((_OP_MUXC,
                              (payload, c0v, c1v, agree, agree & c0v)))
                continue
        fused.append((code, payload))
    return tuple(fused)


def _run_ops_compiled(ops, slot_v, slot_k):
    """Postfix machine over stacked row matrices.

    ``slot_v`` / ``slot_k`` are the state matrices and every VAR/MUX
    payload is an index array gathering one row per skeleton-grouped
    tree (net, slot or shadow rows); the op formulas are the big-int
    kernel's with ``~`` in place of ``^ all_mask``.  Selector masks are
    memoized per selector array: every MUX of one Shannon-tree level
    switches on the same pins.
    """
    stack: List[Tuple] = []
    push = stack.append
    pop = stack.pop
    sel_cache: Dict = {}
    for code, payload in ops:
        if code == _OP_VAR:
            push((slot_v[payload], slot_k[payload]))
        elif code == _OP_MUXC:
            sel, c0v, c1v, agreec, ac = payload
            key = id(sel)
            got = sel_cache.get(key)
            if got is None:
                vs, ks = slot_v[sel], slot_k[sel]
                got = (ks & vs, ks & ~vs, ~ks, ks)
                sel_cache[key] = got
            sel1, sel0, unk, ks = got
            push(((sel1 & c1v) | (sel0 & c0v) | (unk & ac),
                  ks | (unk & agreec)))
        elif code == _OP_MUX:
            v1, k1 = pop()
            v0, k0 = pop()
            key = id(payload)
            got = sel_cache.get(key)
            if got is None:
                vs, ks = slot_v[payload], slot_k[payload]
                got = (ks & vs, ks & ~vs, ~ks, ks)
                sel_cache[key] = got
            sel1, sel0, unk, _ks = got
            agree = k0 & k1 & ~(v0 ^ v1)
            u = unk & agree
            push(((sel1 & v1) | (sel0 & v0) | (u & v0),
                  (sel1 & k1) | (sel0 & k0) | u))
        elif code == _OP_AND:
            vb, kb = pop()
            va, ka = pop()
            push((va & vb, (ka & kb) | (ka & ~va) | (kb & ~vb)))
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
            push((ka & ~va, ka))
        elif code == _OP_MUXX:
            v1, k1 = pop()
            v0, k0 = pop()
            agree = k0 & k1 & ~(v0 ^ v1)
            push((agree & v0, agree))
        else:  # _OP_CONST — payload is a prebuilt (v, k) pair
            push(payload)
    return stack[-1]


def _run_pass(steps, net_v, net_k) -> None:
    """One settle pass: every fused step, gather -> compute -> scatter."""
    for step in steps:
        code = step[0]
        if code == _ST_TWO:
            _, kind, a, b, out = step
            va = net_v[a]
            vb = net_v[b]
            if kind == _E_AND2:
                ka = net_k[a]
                kb = net_k[b]
                net_v[out] = va & vb
                net_k[out] = (ka & kb) | (ka & ~va) | (kb & ~vb)
            elif kind == _E_OR2:
                net_v[out] = va | vb
                net_k[out] = (net_k[a] & net_k[b]) | va | vb
            elif kind == _E_XOR2:
                k = net_k[a] & net_k[b]
                net_v[out] = (va ^ vb) & k
                net_k[out] = k
            else:  # _E_XNOR2
                k = net_k[a] & net_k[b]
                net_v[out] = ~(va ^ vb) & k
                net_k[out] = k
        elif code == _ST_ONE:
            _, kind, a, out = step
            if kind == _E_COPY:
                net_v[out] = net_v[a]
                net_k[out] = net_k[a]
            else:  # _E_NOT
                k = net_k[a]
                net_v[out] = k & ~net_v[a]
                net_k[out] = k
        elif code == _ST_TREE:
            _, ops, out = step
            v, k = _run_ops_compiled(ops, net_v, net_k)
            net_v[out] = v
            net_k[out] = k
        elif code == _ST_PINS:
            _, src, first, end, blend = step
            net_v[first:end] = net_v[src]
            net_k[first:end] = net_k[src]
            _apply_blend_plan(blend, net_v, net_k)
        elif code == _ST_CONST:
            _, v_mat, k_mat, out = step
            net_v[out] = v_mat
            net_k[out] = k_mat
        else:  # _ST_BLEND
            _apply_blend_plan(step[1], net_v, net_k)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _run_shard_plan(plan: _ShardPlan, golden: SimulationTrace,
                    compare: _ComparePlan, passes: int, skip_cycles: int,
                    reseed, inputs,
                    record_lane_outputs: bool) -> VectorResult:
    np = _np
    words = plan.words
    num_nets = plan.num_nets
    zrow = plan.zrow
    net_v = np.zeros((plan.rows, words), dtype=np.uint64)
    net_k = np.zeros((plan.rows, words), dtype=np.uint64)
    net_v[num_nets + 1] = _U64_MAX   # known-1 slot (absent CE)
    net_k[num_nets + 1] = _U64_MAX
    net_k[num_nets + 2] = _U64_MAX   # known-0 slot (absent reset)

    state_v = plan.ff_state_v.copy()
    state_k = plan.ff_state_k.copy()
    has_ffs = plan.ff_q.size > 0
    pending = plan.pending0.copy()
    first_mismatch: List[Optional[int]] = [None] * plan.lanes
    lane_outputs: Optional[List[Dict[str, List[Tuple[int, int]]]]] = \
        [] if record_lane_outputs else None
    slow_sample = record_lane_outputs or bool(plan.output_rows)
    gv = gk = None
    if reseed is not None:
        gv, gk = reseed
    cycles_simulated = 0

    for cycle in range(len(inputs)):
        cycles_simulated = cycle + 1
        if gv is not None:
            net_v[:num_nets] = gv[cycle][:, None]
            net_k[:num_nets] = gk[cycle][:, None]
        in_idx, in_v, in_k = inputs[cycle]
        if in_idx.size:
            net_v[in_idx] = in_v
            net_k[in_idx] = in_k
        if has_ffs:
            net_v[plan.ff_q] = state_v
            net_k[plan.ff_q] = state_k
        if plan.pre_blend is not None:
            _apply_blend_plan(plan.pre_blend, net_v, net_k)

        _run_pass(plan.steps, net_v, net_k)
        if plan.pre_blend is not None:
            _apply_blend_plan(plan.pre_blend, net_v, net_k)
        for _ in range(passes - 1):
            # Later passes only re-settle the override feedback cone,
            # and stop early at the fixed point: unchanged net rows
            # would make the next pass recompute exactly themselves
            # (shadow rows are refilled before every read).
            prev_v = net_v[:num_nets].copy()
            prev_k = net_k[:num_nets].copy()
            _run_pass(plan.reduced_steps, net_v, net_k)
            if plan.pre_blend is not None:
                _apply_blend_plan(plan.pre_blend, net_v, net_k)
            if np.array_equal(net_v[:num_nets], prev_v) and \
                    np.array_equal(net_k[:num_nets], prev_k):
                break
        if plan.edge is not None:
            _run_pass((plan.edge,), net_v, net_k)

        # Sample outputs; fold golden disagreement into per-word masks.
        if slow_sample:
            golden_out = golden.outputs[cycle]
            mismatch = zrow
            sampled: Optional[Dict[str, List[Tuple[int, int]]]] = \
                {} if record_lane_outputs else None
            for port_name, position, net in compare.positions:
                row = plan.output_rows.get((port_name, position),
                                           net if net >= 0 else num_nets)
                v, k = net_v[row], net_k[row]
                if sampled is not None:
                    sampled.setdefault(port_name, []).append(
                        (_row_int(v), _row_int(k)))
                if cycle < skip_cycles:
                    continue
                gold = golden_out[port_name][position]
                if gold == logic.UNKNOWN:
                    continue
                expect = _U64_MAX if gold == logic.ONE else _U64_0
                mismatch = mismatch | ~k | (v ^ expect)
            if sampled is not None:
                lane_outputs.append(sampled)
        elif cycle >= skip_cycles:
            idx, expect = compare.cycles[cycle]
            if idx.size:
                mismatch = np.bitwise_or.reduce(
                    ~net_k[idx] | (net_v[idx] ^ expect), axis=0)
            else:
                mismatch = zrow
        else:
            mismatch = zrow

        fresh = mismatch & pending
        if fresh.any():
            pending = pending & ~fresh
            for word_index in np.nonzero(fresh)[0]:
                word = int(fresh[word_index])
                base = int(word_index) << 6
                while word:
                    low = word & -word
                    first_mismatch[base + low.bit_length() - 1] = cycle
                    word ^= low

        # Clock edge: gather pins (overridden ones from their edge shadow
        # rows) and advance states.
        if has_ffs:
            dv = net_v[plan.ff_d]
            dk = net_k[plan.ff_d]
            ev = net_v[plan.ff_ce]
            ek = net_k[plan.ff_ce]
            rv = net_v[plan.ff_r]
            rk = net_k[plan.ff_r]
            sel1 = ek & ev
            sel0 = ek & ~ev
            unk = ~ek
            agree = state_k & dk & ~(state_v ^ dv)
            next_v = (sel1 & dv) | (sel0 & state_v) | (unk & agree
                                                       & state_v)
            next_k = (sel1 & dk) | (sel0 & state_k) | (unk & agree)
            keep = rk & ~rv
            state_v = next_v & keep
            state_k = (next_k & keep) | (rk & rv)

        if not record_lane_outputs and not pending.any():
            break

    return VectorResult(first_mismatch, cycles_simulated, lane_outputs)


# ----------------------------------------------------------------------
# Program wrapper with campaign-lifetime memos
# ----------------------------------------------------------------------
class NumpyProgram:
    """A design's lane program plus compiled-artefact memos.

    Campaigns memoize one instance per implementation fingerprint (see
    :meth:`repro.faults.cache.CampaignCacheEntry.numpy_program`), so
    repeated runs reuse shard plans (the patched, batch-compiled sweeps),
    golden broadcasts, input stores and comparison plans.  Memo keys pin
    their keyed objects, which keeps ``id()``-based keys collision-free.
    """

    #: shard plans kept per program (LRU)
    MAX_PLANS = 512
    #: golden / stimulus derived memos kept per program
    MAX_AUX = 8

    def __init__(self, program: VectorProgram) -> None:
        self.program = program
        self.design = program.design
        self._plans: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._reseeds: "OrderedDict[int, Tuple]" = OrderedDict()
        self._inputs: "OrderedDict[int, Tuple]" = OrderedDict()
        self._compares: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    def shard_plan(self, overlays: LanesLike,
                   width: Optional[int] = None,
                   cone: Optional[FaultCone] = None,
                   key: Optional[Tuple] = None) -> _ShardPlan:
        if key is not None:
            hit = self._plans.get(key)
            if hit is not None:
                self._plans.move_to_end(key)
                return hit[0]
        plan = _build_shard_plan(self.program, overlays, width, cone)
        if key is not None:
            self._plans[key] = (plan, cone)
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
        return plan

    def reseed_for(self, golden: SimulationTrace):
        hit = self._reseeds.get(id(golden))
        if hit is None:
            hit = (golden, broadcast_trace_numpy(golden))
            self._reseeds[id(golden)] = hit
            while len(self._reseeds) > self.MAX_AUX:
                self._reseeds.popitem(last=False)
        return hit[1]

    def inputs_for(self, stimulus):
        hit = self._inputs.get(id(stimulus))
        if hit is None:
            hit = (stimulus, broadcast_inputs_numpy(self.design, stimulus))
            self._inputs[id(stimulus)] = hit
            while len(self._inputs) > self.MAX_AUX:
                self._inputs.popitem(last=False)
        return hit[1]

    def compare_for(self, golden: SimulationTrace) -> _ComparePlan:
        key = id(golden)
        hit = self._compares.get(key)
        if hit is None:
            hit = (golden, _compile_compare(self.design, golden))
            self._compares[key] = hit
            while len(self._compares) > self.MAX_AUX:
                self._compares.popitem(last=False)
        return hit[1]

    # ------------------------------------------------------------------
    def simulate_shard(self, overlays: LanesLike, stimulus,
                       golden: SimulationTrace,
                       passes: Optional[int] = None,
                       skip_cycles: int = 0,
                       cone: Optional[FaultCone] = None,
                       width: Optional[int] = None,
                       plan_key: Optional[Tuple] = None,
                       record_lane_outputs: bool = False) -> VectorResult:
        """Simulate one shard through its (memoized) compiled sweep.

        The contract and result of :func:`.bitparallel.simulate_lanes`:
        lane *i* carries ``overlays[i]`` (or slot ``slots[i]`` of a
        :class:`~repro.sim.overlay.Lanes` shard), lanes up to *width*
        beyond the shard replay the golden circuit, and *plan_key*, when
        given, memoizes the shard plan for a repeat of the same shard.
        """
        lanes = as_lanes(overlays)
        if passes is None:
            passes = lanes.passes()
        plan = self.shard_plan(lanes, width, cone, key=plan_key)
        reseed = self.reseed_for(golden) if cone is not None else None
        inputs = self.inputs_for(stimulus)
        compare = self.compare_for(golden)
        return _run_shard_plan(plan, golden, compare, passes, skip_cycles,
                               reseed, inputs, record_lane_outputs)


def compile_numpy_program(program: VectorProgram) -> NumpyProgram:
    """Wrap a lane program for numpy-compiled shard sweeps."""
    return NumpyProgram(program)
