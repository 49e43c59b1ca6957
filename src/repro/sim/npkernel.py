"""Numpy-compiled (vectorized PPSFP) fault-simulation kernel.

:mod:`repro.sim.bitparallel` packs a fault shard into the bit lanes of
Python big integers, but still *interprets* the lane program one entry at
a time — at smoke scale the Python loop over the levelized gate list is
the floor, not the word arithmetic.  This module compiles that same lane
program into a short sequence of **vectorized numpy operations** over
``uint64[lanes/64]`` lane-word arrays:

* every net owns one row of a preallocated ``(nets, words)`` state matrix
  per mask plane (``v`` = known-1, ``k`` = known, exactly the two-mask
  encoding of :mod:`.bitparallel`);
* consecutive entries are greedily grouped into *conflict-free batches*
  (no entry reads a net another batch member writes, writes a net another
  member reads, or re-writes a written net), so each batch evaluates as a
  handful of gather → compute → scatter array operations instead of one
  Python iteration per gate;
* within a batch, same-shape work fuses: all AND2 gates become one
  fancy-indexed sweep, LUT mux trees sharing a postfix skeleton (every
  TMR voter, every adder column) evaluate as one stacked postfix run;
* overlay patching stays in :func:`.bitparallel.patch_program` — the
  patched entries are what gets compiled — and lane-masked overrides
  become masked row stores;
* settle passes beyond the first only re-evaluate the *override feedback
  cone* (entries transitively reading a net any override writes); every
  other entry provably recomputes its pass-1 value, so skipping it is
  exact, and shards that mix 1-pass and 3-pass faults stop paying the
  full sweep three times.

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
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..cells import logic
from .bitparallel import (VectorProgram, VectorResult,
                          _build_flip_flops, _E_AND2, _E_CONST0, _E_CONST1,
                          _E_CONSTM, _E_COPY, _E_NOT, _E_OR2, _E_PINS,
                          _E_TREE, _E_X, _E_XNOR2, _E_XOR2, _OP_AND,
                          _OP_CONST, _OP_MUX, _OP_MUXX, _OP_NOT, _OP_OR,
                          _OP_VAR, _OP_X, _OP_XOR, broadcast_inputs,
                          patch_program)
from .compile import CompiledDesign, FaultCone
from .overlay import (BLEND_AND_NOT, BLEND_SHORT, BLEND_WIRED_AND,
                      BLEND_WIRED_OR, SOURCE_CONST, SOURCE_NET,
                      FaultOverlay, SourceOverride)
from .simulator import SimulationTrace

_U64_MAX = _np.uint64(0xFFFFFFFFFFFFFFFF)
_U64_0 = _np.uint64(0)


# ----------------------------------------------------------------------
# Lane-word <-> array conversion
# ----------------------------------------------------------------------
def _mask_words(mask: int, words: int):
    """Split a big-int lane word into little-endian uint64 words."""
    return _np.frombuffer(mask.to_bytes(words * 8, "little"),
                          dtype="<u8").astype(_np.uint64)


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
_TWO_KINDS = frozenset((_E_AND2, _E_OR2, _E_XOR2, _E_XNOR2))
_ONE_KINDS = frozenset((_E_COPY, _E_NOT))
_CONST_KINDS = frozenset((_E_CONST0, _E_CONST1, _E_CONSTM, _E_X))

# Step opcodes of the compiled sweep.
_ST_TWO = 0     # (code, kind, a_idx, b_idx, out_idx)
_ST_ONE = 1     # (code, kind, a_idx, out_idx)
_ST_CONST = 2   # (code, v_mat, k_mat, out_idx)
_ST_TREE = 3    # (code, compiled postfix ops, out_idx)
_ST_MTREE = 5   # (code, pin_specs, ops, out_idx) — masked-pin tree group
_ST_BLEND = 6   # (code, _BlendPlan) — deferred post overrides of a batch


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


def _compile_lane_masks(lane_overrides, words: int):
    """``(mask, override)`` pairs -> ``(keep, mask, override)`` rows."""
    compiled = []
    for mask, override in lane_overrides:
        mask_row = _mask_words(mask, words)
        compiled.append((~mask_row, mask_row, override))
    return tuple(compiled)


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

    Input is a sequence of ``(out_net, lane_mask, override)`` triples in
    their sequential application order.  The compiler splits them into
    *waves* — a triple opens a new wave when it reads a net an earlier
    triple of the wave writes, so every gather within a wave observes the
    pre-wave state exactly as the sequential big-int loop would.  Within
    a wave, constant overrides fold per target net into one masked
    scatter, and runtime overrides (net reroutes, shorts, wired blends)
    stack per blend kind into a single gather → formula → masked-scatter
    group; duplicate target nets (one per lane, disjoint masks) either
    merge at compile time or accumulate through ``ufunc.at`` scatters.
    """

    __slots__ = ("waves",)


def _compile_blend_plan(triples, words: int, x_slot: int, zrow,
                        frow) -> Optional[_BlendPlan]:
    if not triples:
        return None
    waves_raw: List[List[Tuple]] = []
    wave: List[Tuple] = []
    wave_writes: set = set()
    for out, mask, override in triples:
        if wave and (_override_read_nets(override) and
                     set(_override_read_nets(override)) & wave_writes):
            waves_raw.append(wave)
            wave = []
            wave_writes = set()
        wave.append((out, mask, override))
        wave_writes.add(out)
    waves_raw.append(wave)

    plan = _BlendPlan()
    plan.waves = []
    for raw in waves_raw:
        const_by_out: Dict[int, List] = {}
        runtime: Dict[int, List[Tuple]] = {}
        for out, mask, override in raw:
            fixed = _const_resolution(override)
            if fixed is not None:
                fold = const_by_out.get(out)
                if fold is None:
                    fold = [frow.copy(), zrow.copy(), zrow.copy()]
                    const_by_out[out] = fold
                mask_row = _mask_words(mask, words)
                fold[0] &= ~mask_row
                if fixed[0]:
                    fold[1] |= mask_row
                if fixed[1]:
                    fold[2] |= mask_row
            else:
                tag = _BK_NET if override.kind == SOURCE_NET \
                    else _BLEND_TAGS[override.blend]
                runtime.setdefault(tag, []).append((out, mask, override))

        stacked = []
        for tag, items in runtime.items():
            # An overlay holds at most one override per net, so triples
            # landing on the same target come from different lanes and
            # carry disjoint masks: merge identical (out, sources) pairs
            # by OR-ing masks; targets still duplicated (rerouted to
            # different sources on different lanes) fold per unique
            # target through a segment reduction before one store.
            merged: Dict[Tuple, int] = {}
            for out, mask, ov in items:
                key = (out,
                       ov.net_a if ov.net_a >= 0 else x_slot,
                       ov.net_b if ov.net_b >= 0 else x_slot)
                merged[key] = merged.get(key, 0) | mask
            keys = sorted(merged)
            mask_mat = _np.stack([_mask_words(merged[key], words)
                                  for key in keys])
            a_idx = _idx([a for _o, a, _b in keys])
            b_idx = _idx([b for _o, _a, b in keys])
            unique_outs = sorted(set(out for out, _a, _b in keys))
            if len(unique_outs) == len(keys):
                stacked.append((tag, None,
                                _idx([out for out, _a, _b in keys]),
                                a_idx, b_idx, ~mask_mat, mask_mat))
            else:
                seg = _idx([next(i for i, key in enumerate(keys)
                                 if key[0] == out) for out in unique_outs])
                keep = _np.stack([
                    _np.bitwise_and.reduce(
                        ~mask_mat[[i for i, key in enumerate(keys)
                                   if key[0] == out]], axis=0)
                    for out in unique_outs])
                stacked.append((tag, seg, _idx(unique_outs), a_idx, b_idx,
                                keep, mask_mat))
        const_scatter = None
        if const_by_out:
            const_scatter = (
                _idx(list(const_by_out)),
                _np.stack([fold[0] for fold in const_by_out.values()]),
                _np.stack([fold[1] for fold in const_by_out.values()]),
                _np.stack([fold[2] for fold in const_by_out.values()]))
        plan.waves.append((const_scatter, stacked))
    return plan


def _apply_blend_plan(plan: _BlendPlan, net_v, net_k) -> None:
    for const_scatter, stacked in plan.waves:
        for tag, seg, out_idx, a_idx, b_idx, keep, mask in stacked:
            va = net_v[a_idx]
            ka = net_k[a_idx]
            if tag == _BK_NET:
                ov, ok = va, ka
            else:
                vb = net_v[b_idx]
                kb = net_k[b_idx]
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
                ov = _np.bitwise_or.reduceat(ov, seg, axis=0)
                ok = _np.bitwise_or.reduceat(ok, seg, axis=0)
            net_v[out_idx] = net_v[out_idx] & keep | ov
            net_k[out_idx] = net_k[out_idx] & keep | ok
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
        return _mask_words(entry.a & all_mask, words), frow
    return zrow, zrow  # _E_X


def _idx(values):
    return _np.array(values, dtype=_np.intp)


def _const_resolution(override: SourceOverride):
    """The fixed ``(v, k)`` bit pair an override resolves to, or None.

    Mirrors :func:`_resolve_rows` on overrides that never read live
    state: declared constants, detached reroutes, unknown blend kinds
    and blends whose sources are both detached (every supported blend
    of two unknowns is unknown).
    """
    kind = override.kind
    if kind == SOURCE_CONST:
        if override.value == logic.ONE:
            return (1, 1)
        if override.value == logic.ZERO:
            return (0, 1)
        return (0, 0)
    if kind == SOURCE_NET:
        return (0, 0) if override.net_a < 0 else None
    if override.blend not in _BLEND_TAGS:
        return (0, 0)
    if override.net_a < 0 and override.net_b < 0:
        return (0, 0)
    return None


def _compile_pin_runtime(items, words: int, x_slot: int) -> Tuple:
    """Stack runtime pin overrides into masked scatter groups.

    *items* is a list of ``(row, lane_mask, override)`` for one pin
    position, every override reading live state.  Application order is
    immaterial: an overlay holds at most one override per gate pin, so
    overrides landing on the same gathered row always come from
    different lanes and carry disjoint masks.  The compiler merges
    identical ``(row, source)`` pairs by OR-ing their masks; rows that
    still repeat within a group (same pin rerouted to *different*
    sources on different lanes) compile into one segment-reduced store:
    ``bitwise_or.reduceat`` folds the disjoint masked resolves per
    unique row, exactly composing the per-lane replacements.
    """
    by_tag: Dict[int, Dict[Tuple, int]] = {}
    for row, mask, override in items:
        if override.kind == SOURCE_NET:
            tag, a, b = _BK_NET, override.net_a, None
        else:
            tag = _BLEND_TAGS[override.blend]
            a = override.net_a if override.net_a >= 0 else x_slot
            b = override.net_b if override.net_b >= 0 else x_slot
        merged = by_tag.setdefault(tag, {})
        key = (row, a, b)
        merged[key] = merged.get(key, 0) | mask
    steps: List[Tuple] = []
    for tag, merged in by_tag.items():
        keys = sorted(merged)
        mask_mat = _np.stack([_mask_words(merged[key], words)
                              for key in keys])
        p1 = _idx([a for _r, a, _b in keys])
        p2 = _idx([b for _r, _a, b in keys]) if tag != _BK_NET else None
        unique_rows = sorted(set(row for row, _a, _b in keys))
        if len(unique_rows) == len(keys):
            steps.append((tag, None, _idx([row for row, _a, _b in keys]),
                          ~mask_mat, mask_mat, p1, p2))
        else:
            seg = _idx([next(i for i, key in enumerate(keys)
                             if key[0] == row) for row in unique_rows])
            keep = _np.stack([
                _np.bitwise_and.reduce(
                    ~mask_mat[[i for i, key in enumerate(keys)
                               if key[0] == row]], axis=0)
                for row in unique_rows])
            steps.append((tag, seg, _idx(unique_rows), keep, mask_mat,
                          p1, p2))
    return tuple(steps)


def _emit_batch(batch, all_mask: int, words: int, x_slot: int, zrow, frow,
                steps: List[Tuple]) -> None:
    """Fuse one conflict-free batch into per-shape array steps.

    Post overrides (net faults attached to driver entries) are stripped
    off and applied as one stacked blend plan at the end of the batch:
    the batch rule guarantees no batch member reads a batch write, so no
    evaluation order within the batch can observe the difference, and the
    bearing entries fall back into their fused buckets instead of running
    as per-entry Python steps.
    """
    twos: Dict[int, List] = {}
    ones: Dict[int, List] = {}
    consts: List = []
    trees: Dict[Tuple[int, ...], List] = {}
    mtrees: Dict[Tuple, List] = {}
    posts: List[Tuple] = []
    for entry in batch:
        if entry.post is not None:
            for mask, override in entry.post:
                posts.append((entry.out_net, mask, override))
            entry = dataclasses.replace(entry, post=None)
        if entry.kind == _E_PINS:
            # VAR/MUX payloads are pin positions and must agree for
            # the group to share one compiled op list; CONST payloads
            # stack per entry and stay out of the key.
            mtrees.setdefault(
                (tuple((code, arg) if code == _OP_VAR
                       or code == _OP_MUX else (code, None)
                       for code, arg in entry.ops),
                 len(entry.pins)), []).append(entry)
        elif entry.kind in _TWO_KINDS:
            twos.setdefault(entry.kind, []).append(entry)
        elif entry.kind in _ONE_KINDS:
            ones.setdefault(entry.kind, []).append(entry)
        elif entry.kind in _CONST_KINDS:
            consts.append(entry)
        else:
            trees.setdefault(tuple(code for code, _arg in entry.ops),
                             []).append(entry)
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
                v_mat = _np.stack(
                    [_mask_words(entry.ops[position][1] & all_mask, words)
                     for entry in group])
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
    for (keyed_ops, num_pins), group in mtrees.items():
        codes = tuple(code for code, _arg in keyed_ops)
        count = len(group)
        pin_specs: List[Tuple] = []
        for position in range(num_pins):
            net_idx = _idx([entry.pins[position][0]
                            if entry.pins[position][0] >= 0 else x_slot
                            for entry in group])
            keep = set_v = set_k = None
            runtime_items: List[Tuple] = []
            for row, entry in enumerate(group):
                for mask, override in entry.pins[position][1]:
                    fixed = _const_resolution(override)
                    if fixed is None:
                        # Reads live state — stacked runtime scatter.
                        runtime_items.append((row, mask, override))
                        continue
                    # Resolves at compile time; fold the disjoint
                    # replacements into one masked store.
                    if keep is None:
                        keep = _np.full((count, words), _U64_MAX,
                                        dtype=_np.uint64)
                        set_v = _np.zeros((count, words), dtype=_np.uint64)
                        set_k = _np.zeros((count, words), dtype=_np.uint64)
                    mask_row = _mask_words(mask, words)
                    keep[row] &= ~mask_row
                    set_v[row] |= mask_row if fixed[0] else 0
                    set_k[row] |= mask_row if fixed[1] else 0
            pin_specs.append((net_idx, keep, set_v, set_k,
                              _compile_pin_runtime(runtime_items, words,
                                                   x_slot)))
        ops = []
        for position, code in enumerate(codes):
            if code == _OP_CONST:
                v_mat = _np.stack(
                    [_mask_words(entry.ops[position][1] & all_mask, words)
                     for entry in group])
                ops.append((_OP_CONST,
                            (v_mat, _np.full((count, words), _U64_MAX,
                                             dtype=_np.uint64))))
            elif code == _OP_X:
                zeros = _np.zeros((count, words), dtype=_np.uint64)
                ops.append((_OP_CONST, (zeros, zeros)))
            else:
                # VAR/MUX payloads are pin positions, shared by the group.
                ops.append((code, group[0].ops[position][1]))
        steps.append((_ST_MTREE, tuple(pin_specs), _fuse_ops(ops),
                      _idx([entry.out_net for entry in group])))
    if posts:
        steps.append((_ST_BLEND,
                      _compile_blend_plan(posts, words, x_slot, zrow,
                                          frow)))


def _compile_sweep(entries, all_mask: int, words: int, x_slot: int, zrow,
                   frow) -> List[Tuple]:
    """Greedy conflict-free batching of the (patched) entry list.

    An entry joins the current batch only when it reads nothing the batch
    writes, and its output is neither read nor written by the batch.
    Within a batch every member therefore observes exactly the pre-batch
    state and writes a distinct net — gather/compute/scatter order across
    the fused steps cannot change any value, so the batched sweep equals
    the sequential big-int pass bit for bit.
    """
    steps: List[Tuple] = []
    batch: List = []
    batch_reads: set = set()
    batch_writes: set = set()
    for entry in entries:
        out = entry.out_net
        if out < 0:
            continue
        reads = _entry_reads(entry)
        if batch and ((reads & batch_writes) or out in batch_reads
                      or out in batch_writes):
            _emit_batch(batch, all_mask, words, x_slot, zrow, frow, steps)
            batch = []
            batch_reads = set()
            batch_writes = set()
        batch.append(entry)
        batch_reads |= reads
        batch_writes.add(out)
    if batch:
        _emit_batch(batch, all_mask, words, x_slot, zrow, frow, steps)
    return steps


def _reduced_entries(entries, seed_nets) -> List:
    """Entries that can change value after the first settle pass.

    Passes beyond the first exist to let override-induced backward
    dependencies (shorts, rewired pins, net conflicts) converge.  Only
    entries transitively reading a net some override writes — plus the
    override-bearing entries themselves — can compute a different value
    in pass 2+; everything else provably reproduces its pass-1 output,
    so the reduced list is exact, not an approximation.
    """
    dirty = set(seed_nets)
    for entry in entries:
        if entry.out_net >= 0 and (entry.kind == _E_PINS
                                   or entry.post is not None):
            dirty.add(entry.out_net)
    if not dirty:
        return []
    changed = True
    while changed:
        changed = False
        for entry in entries:
            out = entry.out_net
            if out < 0 or out in dirty:
                continue
            if _entry_reads(entry) & dirty:
                dirty.add(out)
                changed = True
    return [entry for entry in entries if entry.out_net in dirty]


# ----------------------------------------------------------------------
# Shard plans
# ----------------------------------------------------------------------
class _ShardPlan:
    """Everything overlay-dependent, compiled once per (shard, width)."""

    __slots__ = ("lanes", "words", "num_nets", "steps", "reduced_steps",
                 "pre_blend", "ff_d", "ff_ce", "ff_r", "ff_q",
                 "ff_state_v", "ff_state_k", "ff_overrides", "output_masks",
                 "pending0", "zrow", "frow")


def _build_shard_plan(program: VectorProgram,
                      overlays: Sequence[FaultOverlay],
                      width: Optional[int],
                      cone: Optional[FaultCone]) -> _ShardPlan:
    lanes = len(overlays)
    lane_width = width if width is not None else lanes
    if lane_width < lanes:
        raise ValueError(f"width {lane_width} cannot hold {lanes} lanes")
    words = max(1, (lane_width + 63) // 64)
    all_mask = (1 << (words * 64)) - 1
    design = program.design

    entries, pre_net_overrides = patch_program(program, overlays, all_mask)
    if cone is not None:
        active = cone.gate_set
        entries = [entry for entry in entries
                   if entry.gate_index in active]
        records = _build_flip_flops(design, overlays, cone.ff_indices,
                                    all_mask)
    else:
        records = _build_flip_flops(design, overlays, None, all_mask)

    plan = _ShardPlan()
    plan.lanes = lanes
    plan.words = words
    plan.num_nets = design.num_nets
    plan.zrow = _np.zeros(words, dtype=_np.uint64)
    plan.frow = _np.full(words, _U64_MAX, dtype=_np.uint64)
    plan.pending0 = _mask_words((1 << lanes) - 1, words)

    x_slot = design.num_nets
    plan.steps = _compile_sweep(entries, all_mask, words, x_slot,
                                plan.zrow, plan.frow)
    reduced = _reduced_entries(entries,
                               [net for net, _ in pre_net_overrides])
    plan.reduced_steps = _compile_sweep(reduced, all_mask, words, x_slot,
                                        plan.zrow, plan.frow) \
        if reduced else plan.steps
    plan.pre_blend = _compile_blend_plan(
        [(net, mask, override)
         for net, lane_overrides in pre_net_overrides
         for mask, override in lane_overrides],
        words, x_slot, plan.zrow, plan.frow)

    # Flip-flop index arrays; absent pins read the constant slot rows
    # (X / known-1 / known-0), absent outputs scatter into the trash row.
    num_nets = design.num_nets
    x_slot, one_slot, zero_slot, trash = (num_nets, num_nets + 1,
                                          num_nets + 2, num_nets + 3)
    plan.ff_d = _idx([r.d_net if r.d_net >= 0 else x_slot
                      for r in records])
    plan.ff_ce = _idx([r.ce_net if r.ce_net >= 0 else one_slot
                       for r in records])
    plan.ff_r = _idx([r.r_net if r.r_net >= 0 else zero_slot
                      for r in records])
    plan.ff_q = _idx([r.q_net if r.q_net >= 0 else trash
                      for r in records])
    if records:
        plan.ff_state_v = _np.stack([_mask_words(r.state_v, words)
                                     for r in records])
        plan.ff_state_k = _np.stack([_mask_words(r.state_k, words)
                                     for r in records])
    else:
        plan.ff_state_v = _np.zeros((0, words), dtype=_np.uint64)
        plan.ff_state_k = _np.zeros((0, words), dtype=_np.uint64)
    ff_overrides = []
    for position, record in enumerate(records):
        for port, lane_overrides in (("D", record.d_overrides),
                                     ("CE", record.ce_overrides),
                                     ("R", record.r_overrides)):
            if lane_overrides:
                ff_overrides.append(
                    (position, port,
                     _compile_lane_masks(lane_overrides, words)))
    plan.ff_overrides = tuple(ff_overrides)

    output_masks: Dict[Tuple[str, int], List] = {}
    for lane, overlay in enumerate(overlays):
        for key, override in overlay.output_pin_overrides.items():
            output_masks.setdefault(key, []).append((1 << lane, override))
    plan.output_masks = {
        key: _compile_lane_masks(lane_overrides, words)
        for key, lane_overrides in output_masks.items()}
    return plan


# ----------------------------------------------------------------------
# Golden comparison plans
# ----------------------------------------------------------------------
class _ComparePlan:
    """Per-cycle gather indices and expected words for output sampling."""

    __slots__ = ("positions", "cycles")


def _compile_compare(design: CompiledDesign, golden: SimulationTrace,
                     ports: Optional[Sequence[str]]) -> _ComparePlan:
    port_names = list(ports) if ports is not None else list(design.outputs)
    positions: List[Tuple[str, int, int]] = []
    for port_name in port_names:
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
def _resolve_rows(override: SourceOverride, net_v, net_k, zrow, frow):
    """Array twin of :func:`.bitparallel._resolve_lanes` on state rows."""
    kind = override.kind
    if kind == SOURCE_CONST:
        value = override.value
        if value == logic.ONE:
            return frow, frow
        if value == logic.ZERO:
            return zrow, frow
        return zrow, zrow
    if kind == SOURCE_NET:
        net = override.net_a
        if net < 0:
            return zrow, zrow
        return net_v[net], net_k[net]
    net_a, net_b = override.net_a, override.net_b
    va, ka = (net_v[net_a], net_k[net_a]) if net_a >= 0 else (zrow, zrow)
    vb, kb = (net_v[net_b], net_k[net_b]) if net_b >= 0 else (zrow, zrow)
    blend = override.blend
    if blend == BLEND_SHORT:
        same = ~(va ^ vb) & ~(ka ^ kb)
        return va & same, ka & same
    if blend == BLEND_WIRED_AND:
        return va & vb, (ka & kb) | (ka & ~va) | (kb & ~vb)
    if blend == BLEND_WIRED_OR:
        return va | vb, (ka & kb) | va | vb
    if blend == BLEND_AND_NOT:
        nv, nk = kb & ~vb, kb
        return va & nv, (ka & nk) | (ka & ~va) | (nk & ~nv)
    return zrow, zrow


def _blend_rows(v, k, lane_overrides, net_v, net_k, zrow, frow):
    """Replace the lanes selected by each compiled (keep, mask, override)."""
    for keep, mask, override in lane_overrides:
        ov, ok = _resolve_rows(override, net_v, net_k, zrow, frow)
        v = (v & keep) | (ov & mask)
        k = (k & keep) | (ok & mask)
    return v, k


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
    """Postfix machine over rows or stacked row matrices.

    ``slot_v`` / ``slot_k`` index net rows (tree entries), per-pin rows
    (pin-override entries) or — with per-op index arrays — whole stacked
    gather matrices (skeleton-grouped trees); the op formulas are the
    big-int kernel's with ``~`` in place of ``^ all_mask``.  Selector
    masks are memoized per selector slot: every MUX of one Shannon-tree
    level switches on the same pin.
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
            key = sel if sel.__class__ is int else id(sel)
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
            key = payload if payload.__class__ is int else id(payload)
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


def _run_pass(steps, net_v, net_k, zrow, frow) -> None:
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
        elif code == _ST_MTREE:
            _, pin_specs, ops, out = step
            pins_v: List = []
            pins_k: List = []
            for net_idx, keep, set_v, set_k, runtime in pin_specs:
                # The gather is a fancy-index copy, so the runtime
                # scatters below mutate a private matrix, never state.
                bv = net_v[net_idx]
                bk = net_k[net_idx]
                if keep is not None:
                    bv = bv & keep | set_v
                    bk = bk & keep | set_k
                for tag, seg, rows, keepm, maskm, p1, p2 in runtime:
                    va = net_v[p1]
                    ka = net_k[p1]
                    if tag == _BK_NET:
                        ov, ok = va, ka
                    else:
                        vb = net_v[p2]
                        kb = net_k[p2]
                        if tag == _BK_SHORT:
                            same = ~(va ^ vb) & ~(ka ^ kb)
                            ov, ok = va & same, ka & same
                        elif tag == _BK_WAND:
                            ov = va & vb
                            ok = (ka & kb) | (ka & ~va) | (kb & ~vb)
                        elif tag == _BK_WOR:
                            ov = va | vb
                            ok = (ka & kb) | va | vb
                        else:  # _BK_ANDNOT
                            nv = kb & ~vb
                            ov = va & nv
                            ok = (ka & kb) | (ka & ~va) | (kb & ~nv)
                    ov = ov & maskm
                    ok = ok & maskm
                    if seg is not None:
                        # Same pin rerouted to different sources on
                        # different lanes: the disjoint masked resolves
                        # fold per unique row before one plain store.
                        ov = _np.bitwise_or.reduceat(ov, seg, axis=0)
                        ok = _np.bitwise_or.reduceat(ok, seg, axis=0)
                    bv[rows] = bv[rows] & keepm | ov
                    bk[rows] = bk[rows] & keepm | ok
                pins_v.append(bv)
                pins_k.append(bk)
            v, k = _run_ops_compiled(ops, pins_v, pins_k)
            net_v[out] = v
            net_k[out] = k
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
    zrow, frow = plan.zrow, plan.frow
    net_v = np.zeros((num_nets + 4, words), dtype=np.uint64)
    net_k = np.zeros((num_nets + 4, words), dtype=np.uint64)
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
    slow_sample = record_lane_outputs or bool(plan.output_masks)
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

        _run_pass(plan.steps, net_v, net_k, zrow, frow)
        if plan.pre_blend is not None:
            _apply_blend_plan(plan.pre_blend, net_v, net_k)
        for _ in range(passes - 1):
            # Later passes only re-settle the override feedback cone,
            # and stop early at the fixed point: an unchanged state
            # would make the next pass recompute exactly itself.
            prev_v = net_v.copy()
            prev_k = net_k.copy()
            _run_pass(plan.reduced_steps, net_v, net_k, zrow, frow)
            if plan.pre_blend is not None:
                _apply_blend_plan(plan.pre_blend, net_v, net_k)
            if np.array_equal(net_v, prev_v) and \
                    np.array_equal(net_k, prev_k):
                break

        # Sample outputs; fold golden disagreement into per-word masks.
        if slow_sample:
            golden_out = golden.outputs[cycle]
            mismatch = zrow
            sampled: Optional[Dict[str, List[Tuple[int, int]]]] = \
                {} if record_lane_outputs else None
            for port_name, position, net in compare.positions:
                if net >= 0:
                    v, k = net_v[net], net_k[net]
                else:
                    v, k = zrow, zrow
                lane_overrides = plan.output_masks.get((port_name,
                                                       position))
                if lane_overrides is not None:
                    v, k = _blend_rows(v, k, lane_overrides, net_v, net_k,
                                       zrow, frow)
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

        # Clock edge: gather pins, blend lane overrides, advance states.
        if has_ffs:
            dv = net_v[plan.ff_d]
            dk = net_k[plan.ff_d]
            ev = net_v[plan.ff_ce]
            ek = net_k[plan.ff_ce]
            rv = net_v[plan.ff_r]
            rk = net_k[plan.ff_r]
            for position, port, lane_overrides in plan.ff_overrides:
                if port == "D":
                    dv[position], dk[position] = _blend_rows(
                        dv[position], dk[position], lane_overrides,
                        net_v, net_k, zrow, frow)
                elif port == "CE":
                    ev[position], ek[position] = _blend_rows(
                        ev[position], ek[position], lane_overrides,
                        net_v, net_k, zrow, frow)
                else:
                    rv[position], rk[position] = _blend_rows(
                        rv[position], rk[position], lane_overrides,
                        net_v, net_k, zrow, frow)
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
    def shard_plan(self, overlays: Sequence[FaultOverlay],
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

    def compare_for(self, golden: SimulationTrace,
                    ports: Optional[Sequence[str]]) -> _ComparePlan:
        key = (id(golden), tuple(ports) if ports is not None else None)
        hit = self._compares.get(key)
        if hit is None:
            hit = (golden, _compile_compare(self.design, golden, ports))
            self._compares[key] = hit
            while len(self._compares) > self.MAX_AUX:
                self._compares.popitem(last=False)
        return hit[1]

    # ------------------------------------------------------------------
    def simulate_shard(self, overlays: Sequence[FaultOverlay], stimulus,
                       golden: SimulationTrace,
                       passes: Optional[int] = None,
                       skip_cycles: int = 0,
                       ports: Optional[Sequence[str]] = None,
                       cone: Optional[FaultCone] = None,
                       width: Optional[int] = None,
                       plan_key: Optional[Tuple] = None,
                       record_lane_outputs: bool = False) -> VectorResult:
        """Memo-backed equivalent of :func:`simulate_lanes_numpy`."""
        if passes is None:
            passes = max((overlay.required_passes()
                          for overlay in overlays), default=1)
        plan = self.shard_plan(overlays, width, cone, key=plan_key)
        reseed = self.reseed_for(golden) if cone is not None else None
        inputs = self.inputs_for(stimulus)
        compare = self.compare_for(golden, ports)
        return _run_shard_plan(plan, golden, compare, passes, skip_cycles,
                               reseed, inputs, record_lane_outputs)


def compile_numpy_program(program: VectorProgram) -> NumpyProgram:
    """Wrap a lane program for numpy-compiled shard sweeps."""
    return NumpyProgram(program)


def simulate_lanes_numpy(program: VectorProgram,
                         overlays: Sequence[FaultOverlay],
                         stimulus,
                         golden: SimulationTrace,
                         passes: Optional[int] = None,
                         skip_cycles: int = 0,
                         ports: Optional[Sequence[str]] = None,
                         cone: Optional[FaultCone] = None,
                         width: Optional[int] = None,
                         reseed=None,
                         inputs=None,
                         record_lane_outputs: bool = False) -> VectorResult:
    """Drop-in twin of :func:`.bitparallel.simulate_lanes`.

    Same contract, same semantics, same :class:`VectorResult` — evaluated
    through the compiled numpy sweep.  *reseed* / *inputs*, when given,
    are the array forms built by :func:`broadcast_trace_numpy` /
    :func:`broadcast_inputs_numpy`.
    """
    if isinstance(program, NumpyProgram):
        program = program.program
    if passes is None:
        passes = max((overlay.required_passes() for overlay in overlays),
                     default=1)
    plan = _build_shard_plan(program, overlays, width, cone)
    if cone is not None and reseed is None:
        reseed = broadcast_trace_numpy(golden)
    if inputs is None:
        inputs = broadcast_inputs_numpy(program.design, stimulus)
    compare = _compile_compare(program.design, golden, ports)
    return _run_shard_plan(plan, golden, compare, passes, skip_cycles,
                           reseed, inputs, record_lane_outputs)
