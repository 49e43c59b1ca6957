"""Tests for the bit-parallel (PPSFP-style) lane simulation kernel.

Three layers of evidence that the ``(v, k)`` two-mask encoding is exact:

* the folded LUT mux trees agree with :func:`repro.cells.logic.lut_eval`
  for every INIT (exhaustively up to LUT3, sampled LUT4) over every
  three-valued input combination;
* random multi-lane words evaluate each lane exactly as the scalar
  three-valued operators do;
* whole-design sweeps (full and cone mode, with overlays) demux lane by
  lane into the same traces the scalar :class:`Simulator` produces.
"""

import itertools
import random

import pytest

from repro.cells import logic
from repro.sim import (FaultOverlay, Simulator, SourceOverride,
                       compile_vector_program, simulate_lanes)
from repro.sim import bitparallel as bp


def _pack_lanes(values):
    """Pack a list of per-lane three-valued values into (v, k) words."""
    v = k = 0
    for lane, value in enumerate(values):
        if value == logic.ONE:
            v |= 1 << lane
        if value != logic.UNKNOWN:
            k |= 1 << lane
    return v, k


def _unpack_lane(v, k, lane):
    if not (k >> lane) & 1:
        return logic.UNKNOWN
    return (v >> lane) & 1


def _tree_entry(init, num_inputs):
    words = [-1 if (init >> address) & 1 else 0
             for address in range(1 << num_inputs)]
    tree = bp._lut_tree(words, num_inputs, -1)
    tree = bp._remap_leaves(tree, list(range(num_inputs)))
    return bp._specialize(tree, num_inputs, 0)


def _eval_entry(entry, input_words, all_mask):
    num_inputs = len(input_words)
    net_v = [word[0] for word in input_words] + [0]
    net_k = [word[1] for word in input_words] + [0]
    bp._evaluate_pass([entry], net_v, net_k, all_mask)
    return net_v[num_inputs], net_k[num_inputs]


class TestLutTrees:
    @pytest.mark.parametrize("num_inputs", [1, 2, 3])
    def test_exhaustive_against_lut_eval(self, num_inputs):
        combos = list(itertools.product(logic.VALUES, repeat=num_inputs))
        for init in range(1 << (1 << num_inputs)):
            entry = _tree_entry(init, num_inputs)
            for inputs in combos:
                v, k = _eval_entry(entry, [_pack_lanes([value])
                                           for value in inputs], 1)
                assert _unpack_lane(v, k, 0) == \
                    logic.lut_eval(init, list(inputs), num_inputs), \
                    (hex(init), inputs)

    def test_sampled_lut4_against_lut_eval(self):
        rng = random.Random(2005)
        combos = list(itertools.product(logic.VALUES, repeat=4))
        for _ in range(150):
            init = rng.getrandbits(16)
            entry = _tree_entry(init, 4)
            for inputs in combos:
                v, k = _eval_entry(entry, [_pack_lanes([value])
                                           for value in inputs], 1)
                assert _unpack_lane(v, k, 0) == \
                    logic.lut_eval(init, list(inputs), 4), \
                    (hex(init), inputs)

    def test_lanes_are_independent(self):
        rng = random.Random(7)
        lanes = 61  # prime-ish width, exercises high lane bits
        all_mask = (1 << lanes) - 1
        for _ in range(60):
            num_inputs = rng.randint(1, 4)
            init = rng.getrandbits(1 << num_inputs)
            entry = _tree_entry(init, num_inputs)
            columns = [[rng.choice(logic.VALUES) for _ in range(lanes)]
                       for _ in range(num_inputs)]
            v, k = _eval_entry(entry, [_pack_lanes(column)
                                       for column in columns], all_mask)
            assert v & ~k & all_mask == 0  # canonical: X lanes carry v=0
            for lane in range(lanes):
                inputs = [column[lane] for column in columns]
                assert _unpack_lane(v, k, lane) == \
                    logic.lut_eval(init, inputs, num_inputs)

    def test_common_gates_fold_to_specialized_entries(self):
        # XOR2 (0x6), AND2 (0x8), OR2 (0xE) must bypass the postfix machine.
        assert _tree_entry(0x6, 2).kind == bp._E_XOR2
        assert _tree_entry(0x8, 2).kind == bp._E_AND2
        assert _tree_entry(0xE, 2).kind == bp._E_OR2
        assert _tree_entry(0x9, 2).kind == bp._E_XNOR2
        assert _tree_entry(0x2, 1).kind == bp._E_COPY      # buffer
        assert _tree_entry(0x1, 1).kind == bp._E_NOT       # inverter
        assert _tree_entry(0x0, 2).kind == bp._E_CONST0
        assert _tree_entry(0xF, 2).kind == bp._E_CONST1
        # XOR3 (parity) folds into a chain, not a 16-op mux cascade.
        entry = _tree_entry(0x96, 3)
        assert entry.kind == bp._E_TREE and len(entry.ops) <= 5


class TestBlendLanes:
    def test_short_blend_matches_resolve_drivers(self):
        rng = random.Random(11)
        lanes = 33
        all_mask = (1 << lanes) - 1
        for _ in range(40):
            a = [rng.choice(logic.VALUES) for _ in range(lanes)]
            b = [rng.choice(logic.VALUES) for _ in range(lanes)]
            net_v = [0, 0]
            net_k = [0, 0]
            net_v[0], net_k[0] = _pack_lanes(a)
            net_v[1], net_k[1] = _pack_lanes(b)
            for blend, reference in (
                    ("short", lambda x, y: logic.resolve_drivers([x, y])),
                    ("wired_and", logic.and_),
                    ("wired_or", logic.or_),
                    ("and_not",
                     lambda x, y: logic.and_(x, logic.not_(y)))):
                override = SourceOverride.blend_of(0, 1, blend)
                v, k = bp._resolve_lanes(override, net_v, net_k, all_mask)
                assert v & ~k & all_mask == 0
                for lane in range(lanes):
                    assert _unpack_lane(v, k, lane) == \
                        reference(a[lane], b[lane]), (blend, lane)


class TestWholeDesignSweeps:
    def _stimulus(self, design, cycles, seed):
        rng = random.Random(seed)
        stimulus = []
        for _ in range(cycles):
            cycle = {}
            for name, binding in design.inputs.items():
                if name.upper().startswith("CLK"):
                    continue
                cycle[name] = rng.getrandbits(binding.width)
            stimulus.append(cycle)
        return stimulus

    def _overlays(self, design):
        """A heterogeneous shard: INIT flip, pin overrides, FF upsets."""
        lut = next(g for g in design.gates if g.kind == 0 and g.num_inputs)
        flip_flop = design.flip_flops[0]
        overlays = []

        flipped = FaultOverlay()
        flipped.lut_init_overrides[lut.index] = lut.init ^ 1
        flipped.seed_nets = [lut.output_net]
        overlays.append(flipped)

        floating = FaultOverlay()
        floating.gate_pin_overrides[(lut.index, 0)] = \
            SourceOverride.floating()
        floating.seed_nets = [n for n in lut.input_nets if n >= 0][:1]
        overlays.append(floating)

        stuck = FaultOverlay()
        stuck.ff_init_overrides[flip_flop.index] = \
            1 - flip_flop.init_value
        stuck.seed_nets = [flip_flop.q_net]
        overlays.append(stuck)

        detached = FaultOverlay()
        detached.ff_pin_overrides[(flip_flop.index, "D")] = \
            SourceOverride.floating()
        detached.seed_nets = [flip_flop.q_net]
        overlays.append(detached)
        return overlays

    def _assert_lanes_match_scalar(self, design, overlays, stimulus,
                                   golden, cone_of):
        program = compile_vector_program(design)
        result = simulate_lanes(
            program, overlays, stimulus, golden,
            passes=max(o.required_passes() for o in overlays),
            cone=cone_of, width=max(len(overlays), 7),
            record_lane_outputs=True)
        for lane, overlay in enumerate(overlays):
            simulator = Simulator(design, overlay)
            if cone_of is not None:
                trace = simulator.run(stimulus, golden=golden,
                                      cone=cone_of)
            else:
                trace = simulator.run(stimulus)
            for cycle, expected in enumerate(trace.outputs):
                sampled = result.lane_outputs[cycle]
                for port, bits in expected.items():
                    got = [_unpack_lane(v, k, lane)
                           for v, k in sampled[port]]
                    assert got == bits, (lane, cycle, port)

    def test_full_mode_matches_scalar_per_lane(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = self._stimulus(design, 6, seed=21)
        golden = Simulator(design).run(stimulus, record_nets=True)
        overlays = self._overlays(design)
        self._assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                        cone_of=None)

    def test_cone_mode_matches_scalar_per_lane(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = self._stimulus(design, 6, seed=22)
        golden = Simulator(design).run(stimulus, record_nets=True)
        overlays = [o for o in self._overlays(design)
                    if o.required_passes() == 1]
        seeds = sorted({net for o in overlays for net in o.seed_nets})
        cone = design.fault_cone(seeds)
        self._assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                        cone_of=cone)

    def test_ghost_lanes_replay_golden(self, tiny_fir_compiled):
        # Lanes beyond the shard population (width > len(overlays)) and
        # an empty overlay lane must both reproduce the golden outputs.
        design = tiny_fir_compiled
        stimulus = self._stimulus(design, 5, seed=23)
        golden = Simulator(design).run(stimulus, record_nets=True)
        program = compile_vector_program(design)
        result = simulate_lanes(program, [FaultOverlay()], stimulus,
                                golden, passes=1, width=9,
                                record_lane_outputs=True)
        assert result.outcomes[0].wrong_answer is False
        assert result.outcomes[0].first_mismatch_cycle is None
        for cycle, expected in enumerate(golden.outputs):
            sampled = result.lane_outputs[cycle]
            for port, bits in expected.items():
                for lane in (0, 8):
                    got = [_unpack_lane(v, k, lane)
                           for v, k in sampled[port]]
                    assert got == bits

    def test_same_lut_adjacent_init_faults_share_a_shard(
            self, tiny_fir_compiled):
        # Two lanes flipping *adjacent* truth-table bits of one LUT build
        # mixed per-lane constant entries at Shannon level 0; the fold
        # must complement them as lane words (regression: this used to
        # trip the "constants are folded before negation" assertion).
        design = tiny_fir_compiled
        lut = next(g for g in design.gates
                   if g.kind == 0 and g.num_inputs >= 2)
        overlays = []
        for table_bit in range(4):
            overlay = FaultOverlay()
            overlay.lut_init_overrides[lut.index] = \
                lut.init ^ (1 << table_bit)
            overlay.seed_nets = [lut.output_net]
            overlays.append(overlay)
        stimulus = self._stimulus(design, 6, seed=24)
        golden = Simulator(design).run(stimulus, record_nets=True)
        self._assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                        cone_of=None)

    def test_width_must_hold_all_lanes(self, tiny_fir_compiled):
        program = compile_vector_program(tiny_fir_compiled)
        golden = Simulator(tiny_fir_compiled).run([{}], record_nets=True)
        with pytest.raises(ValueError):
            simulate_lanes(program, [FaultOverlay(), FaultOverlay()],
                           [{}], golden, width=1)
