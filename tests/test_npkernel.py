"""Tests for the numpy-compiled fault-simulation kernel and its backend.

Mirrors tests/test_bitparallel.py for the compiled sweep: whole-design
lane sweeps (full and cone mode, heterogeneous overlay shards) must demux
lane by lane into the traces the scalar :class:`Simulator` produces, LUT
INIT sweeps must agree for every truth table, and the campaign-level
:class:`NumpyBackend` must be a bit-identical drop-in for SerialBackend —
including ``first_mismatch_cycle`` — under every upset model, while its
cross-cone scheduler keeps the packed lanes nearly full.
"""

import random

import pytest

from repro.cells import logic
from repro.faults import (CampaignConfig, NumpyBackend, clear_cache,
                          run_campaign)
from repro.sim import (FaultOverlay, Simulator, SourceOverride,
                       compile_vector_program, simulate_lanes,
                       simulate_lanes_numpy)


def _unpack_lane(v, k, lane):
    if not (k >> lane) & 1:
        return logic.UNKNOWN
    return (v >> lane) & 1


def _stimulus(design, cycles, seed):
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


def _heterogeneous_overlays(design):
    """A mixed shard: INIT flip, pin overrides, FF upsets, net blends."""
    lut = next(g for g in design.gates if g.kind == 0 and g.num_inputs)
    flip_flop = design.flip_flops[0]
    overlays = []

    flipped = FaultOverlay(description="LUT INIT flip")
    flipped.lut_init_overrides[lut.index] = lut.init ^ 1
    flipped.seed_nets = [lut.output_net]
    overlays.append(flipped)

    floating = FaultOverlay(description="open on a LUT input")
    floating.gate_pin_overrides[(lut.index, 0)] = SourceOverride.floating()
    floating.seed_nets = [n for n in lut.input_nets if n >= 0][:1]
    overlays.append(floating)

    stuck = FaultOverlay(description="FF power-up flip")
    stuck.ff_init_overrides[flip_flop.index] = 1 - flip_flop.init_value
    stuck.seed_nets = [flip_flop.q_net]
    overlays.append(stuck)

    detached = FaultOverlay(description="FF data detached")
    detached.ff_pin_overrides[(flip_flop.index, "D")] = \
        SourceOverride.floating()
    detached.seed_nets = [flip_flop.q_net]
    overlays.append(detached)

    # A runtime pin blend (reads live state every settle pass): the
    # compiled sweep must route it through the stacked scatter path.
    other_net = next(n for n in lut.input_nets if n >= 0)
    shorted = FaultOverlay(description="input bridged to another net")
    shorted.gate_pin_overrides[(lut.index, min(1, lut.num_inputs - 1))] = \
        SourceOverride.blend_of(other_net, lut.output_net, "short")
    shorted.seed_nets = [lut.output_net]
    overlays.append(shorted)
    return overlays


def _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                               cone_of, width=None):
    program = compile_vector_program(design)
    result = simulate_lanes_numpy(
        program, overlays, stimulus, golden,
        passes=max(o.required_passes() for o in overlays),
        cone=cone_of, width=width or max(len(overlays), 7),
        record_lane_outputs=True)
    for lane, overlay in enumerate(overlays):
        simulator = Simulator(design, overlay)
        if cone_of is not None:
            trace = simulator.run(stimulus, golden=golden, cone=cone_of)
        else:
            trace = simulator.run(stimulus)
        for cycle, expected in enumerate(trace.outputs):
            sampled = result.lane_outputs[cycle]
            for port, bits in expected.items():
                got = [_unpack_lane(v, k, lane) for v, k in sampled[port]]
                assert got == bits, (overlay.description, cycle, port)
    return result


class TestInitSweeps:
    def test_every_lut2_init_matches_scalar(self, tiny_fir_compiled):
        # One lane per possible truth table of one LUT: the compiled
        # batch stacks sixteen different specialized entries (constants,
        # buffers, inverters, two-input gates, full mux trees) and every
        # lane must still reproduce its scalar trace exactly.
        design = tiny_fir_compiled
        lut = next(g for g in design.gates
                   if g.kind == 0 and g.num_inputs == 2)
        overlays = []
        for init in range(16):
            overlay = FaultOverlay(description=f"INIT={init:04b}")
            overlay.lut_init_overrides[lut.index] = init
            overlay.seed_nets = [lut.output_net]
            overlays.append(overlay)
        stimulus = _stimulus(design, 6, seed=31)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=None)

    def test_sampled_wide_lut_inits_match_scalar(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        lut = max((g for g in design.gates if g.kind == 0),
                  key=lambda g: g.num_inputs)
        rng = random.Random(2005)
        overlays = []
        for _ in range(40):
            init = rng.getrandbits(1 << lut.num_inputs)
            overlay = FaultOverlay(description=f"INIT={init:#x}")
            overlay.lut_init_overrides[lut.index] = init
            overlay.seed_nets = [lut.output_net]
            overlays.append(overlay)
        stimulus = _stimulus(design, 6, seed=32)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=None)


class TestWholeDesignSweeps:
    def test_full_mode_matches_scalar_per_lane(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = _stimulus(design, 6, seed=21)
        golden = Simulator(design).run(stimulus, record_nets=True)
        overlays = _heterogeneous_overlays(design)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=None)

    def test_cone_mode_matches_scalar_per_lane(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = _stimulus(design, 6, seed=22)
        golden = Simulator(design).run(stimulus, record_nets=True)
        overlays = [o for o in _heterogeneous_overlays(design)
                    if o.required_passes() == 1]
        seeds = sorted({net for o in overlays for net in o.seed_nets})
        cone = design.fault_cone(seeds)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=cone)

    def test_matches_bigint_kernel_outcomes(self, tiny_fir_compiled):
        # The two kernels share one contract: identical outcomes
        # (wrong_answer and first mismatching cycle) per lane.
        design = tiny_fir_compiled
        stimulus = _stimulus(design, 8, seed=25)
        golden = Simulator(design).run(stimulus, record_nets=True)
        overlays = _heterogeneous_overlays(design)
        program = compile_vector_program(design)
        passes = max(o.required_passes() for o in overlays)
        bigint = simulate_lanes(program, overlays, stimulus, golden,
                                passes=passes)
        compiled = simulate_lanes_numpy(program, overlays, stimulus,
                                        golden, passes=passes)
        assert [(o.wrong_answer, o.first_mismatch_cycle)
                for o in compiled.outcomes] == \
            [(o.wrong_answer, o.first_mismatch_cycle)
             for o in bigint.outcomes]

    def test_ghost_lanes_replay_golden(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = _stimulus(design, 5, seed=23)
        golden = Simulator(design).run(stimulus, record_nets=True)
        program = compile_vector_program(design)
        result = simulate_lanes_numpy(program, [FaultOverlay()], stimulus,
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

    def test_adjacent_init_faults_share_a_shard(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        lut = next(g for g in design.gates
                   if g.kind == 0 and g.num_inputs >= 2)
        overlays = []
        for table_bit in range(4):
            overlay = FaultOverlay(description=f"INIT bit {table_bit}")
            overlay.lut_init_overrides[lut.index] = \
                lut.init ^ (1 << table_bit)
            overlay.seed_nets = [lut.output_net]
            overlays.append(overlay)
        stimulus = _stimulus(design, 6, seed=24)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=None)

    def test_multiword_shards_keep_lanes_independent(self,
                                                     tiny_fir_compiled):
        # More lanes than one uint64 word, with the shard replicated so
        # high-word lanes carry real faults.
        design = tiny_fir_compiled
        base = _heterogeneous_overlays(design)
        overlays = (base * 16)[:70]
        stimulus = _stimulus(design, 6, seed=26)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                   cone_of=None, width=70)


class TestNumpyBackendEquivalence:
    """NumpyBackend is a bit-identical drop-in for SerialBackend."""

    @staticmethod
    def _verdict_stream(result):
        return [(r.bit, r.category, r.has_effect, r.wrong_answer,
                 r.first_mismatch_cycle) for r in result.results]

    @pytest.mark.parametrize("case", range(4))
    def test_randomized_campaigns_bit_identical(
            self, tiny_fir_implementation, tiny_tmr_implementation, case):
        rng = random.Random(3000 + case)
        target = tiny_fir_implementation if case % 2 == 0 else \
            tiny_tmr_implementation
        config = CampaignConfig(
            num_faults=rng.randint(40, 90),
            workload_cycles=rng.randint(4, 8),
            seed=rng.randint(0, 10_000),
            workload_seed=rng.randint(0, 10_000),
            skip_cycles=rng.choice((0, 1)),
        )
        serial = run_campaign(target, config, backend="serial")
        compiled = run_campaign(
            target, config,
            backend=NumpyBackend(lane_width=rng.choice((4, 64, 1024))))
        assert self._verdict_stream(compiled) == \
            self._verdict_stream(serial)
        assert compiled.wrong_answers == serial.wrong_answers
        assert compiled.effect_table() == serial.effect_table()

    @pytest.mark.parametrize("upset_model",
                             ["single", "mbu:2", "accumulate:3"])
    def test_upset_models_bit_identical(self, tiny_fir_implementation,
                                        upset_model):
        config = CampaignConfig(num_faults=60, workload_cycles=6, seed=17,
                                upset_model=upset_model)
        serial = run_campaign(tiny_fir_implementation, config,
                              backend="serial")
        compiled = run_campaign(tiny_fir_implementation, config,
                                backend="numpy")
        assert self._verdict_stream(compiled) == \
            self._verdict_stream(serial)

    def test_oversampled_draw_bit_identical(self, tiny_fir_implementation):
        # The huge-scale regime in miniature: more injections than
        # programmable bits, so duplicates collapse onto shared lanes and
        # must demux back into per-injection verdicts.
        from repro.faults import FaultListManager

        population = len(FaultListManager(
            tiny_fir_implementation).build("design"))
        config = CampaignConfig(num_faults=population + 150,
                                workload_cycles=5, seed=11)
        serial = run_campaign(tiny_fir_implementation, config,
                              backend="serial")
        backend = NumpyBackend()
        compiled = run_campaign(tiny_fir_implementation, config,
                                backend=backend)
        assert compiled.injected == population + 150
        assert self._verdict_stream(compiled) == \
            self._verdict_stream(serial)
        stats = backend.last_run_stats
        assert stats["demuxed_faults"] == population + 150
        assert stats["unique_faults"] < stats["demuxed_faults"]


class TestCrossConePacking:
    def test_scheduler_packs_lanes_across_cones(self,
                                                tiny_fir_implementation):
        # Every effectful fault has its own cone; the packer must still
        # produce near-full shards (not one shard per cone).
        config = CampaignConfig(num_faults=120, workload_cycles=6, seed=9)
        backend = NumpyBackend()
        result = run_campaign(tiny_fir_implementation, config,
                              backend=backend)
        stats = backend.last_run_stats
        assert result.backend == "numpy"
        assert stats["packed_faults"] == sum(stat["lanes"]
                                             for stat in stats["shards"])
        # Coned faults pack into one union-cone shard (plus at most one
        # shard for faults without seed nets).
        assert len(stats["shards"]) <= 2
        assert stats["mean_lane_utilization"] >= 0.6
        assert stats["peak_lane_utilization"] <= 1.0

    def test_utilization_accounts_word_quantized_capacity(
            self, tiny_fir_implementation):
        config = CampaignConfig(num_faults=40, workload_cycles=5, seed=3)
        backend = NumpyBackend(lane_width=8)
        run_campaign(tiny_fir_implementation, config, backend=backend)
        stats = backend.last_run_stats
        # Capacity is per-shard ceil(lanes/64)*64 — an 8-lane shard still
        # occupies one 64-bit word.
        total_capacity = sum(((stat["lanes"] + 63) // 64) * 64
                             for stat in stats["shards"])
        assert stats["mean_lane_utilization"] == pytest.approx(
            stats["packed_faults"] / total_capacity)

    def test_narrow_lanes_still_bit_identical(self, tiny_fir_implementation):
        config = CampaignConfig(num_faults=80, workload_cycles=6, seed=5)
        serial = run_campaign(tiny_fir_implementation, config,
                              backend="serial")
        narrow = run_campaign(tiny_fir_implementation, config,
                              backend=NumpyBackend(lane_width=1))
        assert [(r.bit, r.wrong_answer, r.first_mismatch_cycle)
                for r in narrow.results] == \
            [(r.bit, r.wrong_answer, r.first_mismatch_cycle)
             for r in serial.results]


class TestProgramCache:
    def test_numpy_program_cached_across_campaigns(
            self, tiny_fir_implementation):
        from repro.faults import cache_stats

        config = CampaignConfig(num_faults=60, workload_cycles=5, seed=7)
        clear_cache()
        run_campaign(tiny_fir_implementation, config, backend="numpy")
        first = cache_stats()
        assert first["numpy_program_misses"] >= 1
        run_campaign(tiny_fir_implementation, config, backend="numpy")
        second = cache_stats()
        assert second["numpy_program_hits"] > first["numpy_program_hits"]
        assert second["numpy_program_misses"] == \
            first["numpy_program_misses"]

