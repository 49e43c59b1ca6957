"""Tests for the numpy-compiled fault-simulation kernel and its backend.

Mirrors tests/test_bitparallel.py for the compiled sweep: whole-design
lane sweeps (full and cone mode, heterogeneous overlay shards) must demux
lane by lane into the traces the scalar :class:`Simulator` produces, LUT
INIT sweeps must agree for every truth table, and the campaign-level
:class:`NumpyBackend` must be a bit-identical drop-in for SerialBackend —
including ``first_mismatch_cycle`` — under every upset model, while its
cross-cone scheduler keeps the packed lanes nearly full.  Shards built to
hit each shadow-row path (per-lane reroutes, mixed constant and runtime
overrides, buffer and open pins, register pins and output bits) and the
settle-pass sweep's batch reuse must match the big-int kernel too.
"""

import random

import pytest

from repro.cells import INIT_XOR2, logic
from repro.cells.library import shared_cell_library
from repro.faults import (CampaignConfig, NumpyBackend, VectorBackend,
                          clear_cache, run_campaign)
from repro.netlist import Netlist, NetlistBuilder
from repro.sim import (BLEND_AND_NOT, BLEND_WIRED_OR, CompiledDesign,
                       FaultOverlay, Simulator, SourceOverride,
                       compile_numpy_program, compile_vector_program,
                       simulate_lanes)
from repro.sim import npkernel


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

    flipped = FaultOverlay()
    flipped.lut_init_overrides[lut.index] = lut.init ^ 1
    flipped.seed_nets = [lut.output_net]
    overlays.append(flipped)

    floating = FaultOverlay()
    floating.gate_pin_overrides[(lut.index, 0)] = SourceOverride.floating()
    floating.seed_nets = [n for n in lut.input_nets if n >= 0][:1]
    overlays.append(floating)

    stuck = FaultOverlay()
    stuck.ff_init_overrides[flip_flop.index] = 1 - flip_flop.init_value
    stuck.seed_nets = [flip_flop.q_net]
    overlays.append(stuck)

    detached = FaultOverlay()
    detached.ff_pin_overrides[(flip_flop.index, "D")] = \
        SourceOverride.floating()
    detached.seed_nets = [flip_flop.q_net]
    overlays.append(detached)

    # A runtime pin blend (reads live state every settle pass): the
    # compiled sweep must route it through the stacked scatter path.
    other_net = next(n for n in lut.input_nets if n >= 0)
    shorted = FaultOverlay()
    shorted.gate_pin_overrides[(lut.index, min(1, lut.num_inputs - 1))] = \
        SourceOverride.blend_of(other_net, lut.output_net, "short")
    shorted.seed_nets = [lut.output_net]
    overlays.append(shorted)
    return overlays


def _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                               cone_of, width=None):
    program = compile_vector_program(design)
    result = compile_numpy_program(program).simulate_shard(
        overlays, stimulus, golden,
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
                assert got == bits, (lane, cycle, port)
    return result


def _assert_lanes_match_both(design, overlays, stimulus, golden, cone_of):
    """Numpy lanes equal the scalar traces and the big-int lanes."""
    result = _assert_lanes_match_scalar(design, overlays, stimulus, golden,
                                        cone_of)
    bigint = simulate_lanes(
        compile_vector_program(design), overlays, stimulus, golden,
        passes=max(o.required_passes() for o in overlays), cone=cone_of,
        record_lane_outputs=True)
    for cycle, sampled in enumerate(bigint.lane_outputs):
        for port, words in sampled.items():
            for lane in range(len(overlays)):
                assert [_unpack_lane(v, k, lane)
                        for v, k in result.lane_outputs[cycle][port]] == \
                    [_unpack_lane(v, k, lane) for v, k in words], \
                    (lane, cycle, port)
    assert [(o.wrong_answer, o.first_mismatch_cycle)
            for o in result.outcomes] == \
        [(o.wrong_answer, o.first_mismatch_cycle) for o in bigint.outcomes]


def _pin_overlay(gate, position, override):
    overlay = FaultOverlay()
    overlay.gate_pin_overrides[(gate.index, position)] = override
    overlay.seed_nets = [gate.output_net]
    return overlay


def _plan(design, overlays, cone=None):
    return npkernel._build_shard_plan(compile_vector_program(design),
                                      overlays, None, cone)


def _pin_groups(plan):
    """The stacked blend groups and constant folds of the pin steps."""
    groups, folds = [], []
    for step in plan.steps:
        if step[0] == npkernel._ST_PINS:
            for const_scatter, stacked in step[4].waves:
                groups.extend(stacked)
                if const_scatter is not None:
                    folds.append(const_scatter)
    return groups, folds


@pytest.fixture()
def buffered_design():
    """Buffered input, a LUT3 with an open I2, a register, two outputs.

    ``Y = OBUF(lut_open(IBUF(A), B, open))``; ``Z = Q xor C`` with ``Q``
    the registered ``lut_open`` output.
    """
    netlist = Netlist("pins")
    builder = NetlistBuilder.new_module(netlist, "dut", "work",
                                        shared_cell_library())
    clk = builder.input("CLK", 1)[0]
    a, b, c = (builder.input(name, 1)[0] for name in "ABC")
    y = builder.output("Y", 1)[0]
    z = builder.output("Z", 1)[0]
    a_buf, mixed, q = builder.wire("a_buf"), builder.wire("mixed"), \
        builder.wire("q")
    builder.instantiate("IBUF", "ibuf_a", I=a, O=a_buf)
    builder.instantiate("LUT3", "lut_open", properties={"INIT": 0b10010110},
                        I0=a_buf, I1=b, O=mixed)
    builder.instantiate("OBUF", "obuf_y", I=mixed, O=y)
    builder.instantiate("FD", "state", C=clk, D=mixed, Q=q)
    builder.instantiate("LUT2", "lut_z", properties={"INIT": INIT_XOR2},
                        I0=q, I1=c, O=z)
    return CompiledDesign(builder.finish(set_top=True))


class TestShadowPins:
    """Patched LUT and buffer pins evaluate through shadow rows."""

    def test_pin_rerouted_to_different_sources_per_lane(
            self, tiny_fir_compiled):
        design = tiny_fir_compiled
        lut = next(g for g in design.gates
                   if g.kind == 0 and g.num_inputs >= 2)
        others = [n for n in range(design.num_nets)
                  if n not in lut.input_nets and n != lut.output_net]
        overlays = [_pin_overlay(lut, 0,
                                 SourceOverride.net(net))
                    for net in others[:3] + others[-2:]]
        overlays += [_pin_overlay(lut, 0,
                                  SourceOverride.blend_of(lut.input_nets[1],
                                                          net))
                     for net in others[3:5]]
        # Both kinds repeat one shadow row with different sources, so
        # both stacked groups fold through the segment reduction.
        groups, _folds = _pin_groups(_plan(design, overlays))
        assert len(groups) == 2
        assert all(seg is not None for _tag, seg, *_rest in groups)
        stimulus = _stimulus(design, 6, seed=41)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=None)

    def test_constant_and_runtime_overrides_share_a_pin(
            self, tiny_fir_compiled):
        design = tiny_fir_compiled
        lut = next(g for g in design.gates
                   if g.kind == 0 and g.num_inputs >= 2)
        other = next(n for n in range(design.num_nets)
                     if n not in lut.input_nets and n != lut.output_net)
        overlays = [
            _pin_overlay(lut, 1, SourceOverride.constant(1)),
            _pin_overlay(lut, 1, SourceOverride.constant(0)),
            _pin_overlay(lut, 1, SourceOverride.floating()),
            _pin_overlay(lut, 1,
                         SourceOverride.net(other)),
            _pin_overlay(lut, 1, SourceOverride.blend_of(
                lut.input_nets[1], other, BLEND_WIRED_OR)),
        ]
        groups, folds = _pin_groups(_plan(design, overlays))
        const_rows = {int(row) for out_idx, *_masks in folds
                      for row in out_idx}
        runtime_rows = {int(row) for _tag, _seg, out_idx, *_rest in groups
                        for row in out_idx}
        assert const_rows & runtime_rows
        stimulus = _stimulus(design, 6, seed=42)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=None)

    def test_buffer_pins_and_unconnected_lut_pins(self, buffered_design):
        design = buffered_design
        gate = {g.name: g for g in design.gates}
        ibuf, lut, obuf, lut_z = (gate["ibuf_a"], gate["lut_open"],
                                  gate["obuf_y"], gate["lut_z"])
        assert lut.input_nets[2] < 0
        net_b, net_c = design.inputs["B"].net_indices[0], \
            design.inputs["C"].net_indices[0]
        net_a = design.inputs["A"].net_indices[0]
        overlays = [
            _pin_overlay(ibuf, 0, SourceOverride.net(net_b)),
            _pin_overlay(ibuf, 0,
                         SourceOverride.constant(1)),
            _pin_overlay(ibuf, 0,
                         SourceOverride.blend_of(net_a, net_c)),
            _pin_overlay(lut, 2, SourceOverride.net(net_c)),
            _pin_overlay(lut, 2,
                         SourceOverride.constant(1)),
            _pin_overlay(lut, 1, SourceOverride.floating()),
            _pin_overlay(obuf, 0, SourceOverride.blend_of(
                lut.output_net, lut_z.input_nets[0], BLEND_WIRED_OR)),
            _pin_overlay(lut_z, 0, SourceOverride.blend_of(
                lut_z.input_nets[0], net_c, BLEND_AND_NOT)),
        ]
        stimulus = _stimulus(design, 8, seed=43)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=None)

    def test_feedback_cone_splitting_a_batch(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        luts = [g for g in design.gates if g.kind == 0 and g.num_inputs >= 2]
        lut = luts[len(luts) // 2]
        overlays = [_pin_overlay(lut, 0,
                                 SourceOverride.blend_of(lut.input_nets[0],
                                                         net))
                    for net in (luts[-1].output_net, luts[0].output_net)]
        plan = _plan(design, overlays)
        assert max(o.required_passes() for o in overlays) > 1
        # Some batch mixes cone and non-cone entries: its later-pass
        # steps are emitted anew, while whole-cone batches are reused.
        full = {id(step) for step in plan.steps}
        assert any(id(step) not in full for step in plan.reduced_steps)
        assert any(id(step) in full for step in plan.reduced_steps)
        stimulus = _stimulus(design, 8, seed=44)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=None)

    def test_flip_flop_pins_and_output_bits(self, buffered_design):
        # Overridden register pins (absent CE and reset included) and
        # output bits read edge shadow rows filled after the passes.
        design = buffered_design
        gate = {g.name: g for g in design.gates}
        flip_flop = design.flip_flops[0]
        net_b, net_c = design.inputs["B"].net_indices[0], \
            design.inputs["C"].net_indices[0]
        mixed = gate["lut_open"].output_net

        def ff_overlay(port, override):
            overlay = FaultOverlay()
            overlay.ff_pin_overrides[(flip_flop.index, port)] = override
            overlay.seed_nets = [flip_flop.q_net]
            return overlay

        def out_overlay(port, override):
            overlay = FaultOverlay()
            overlay.output_pin_overrides[(port, 0)] = override
            return overlay

        overlays = [
            ff_overlay("D", SourceOverride.net(net_c)),
            ff_overlay("D",
                       SourceOverride.blend_of(mixed, net_b)),
            ff_overlay("D", SourceOverride.floating()),
            ff_overlay("CE", SourceOverride.net(net_b)),
            ff_overlay("R", SourceOverride.net(net_c)),
            ff_overlay("R", SourceOverride.constant(1)),
            out_overlay("Y", SourceOverride.net(net_c)),
            out_overlay("Y",
                        SourceOverride.blend_of(mixed, net_b,
                                                BLEND_WIRED_OR)),
            out_overlay("Z", SourceOverride.constant(0)),
        ]
        plan = _plan(design, overlays)
        edge_rows = range(plan.edge[2], plan.edge[3])
        assert int(plan.ff_d[0]) in edge_rows
        assert plan.output_rows[("Y", 0)] in edge_rows
        stimulus = _stimulus(design, 8, seed=46)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=None)

    def test_all_dirty_cone_reuses_every_step(self, buffered_design):
        design = buffered_design
        gate = {g.name: g for g in design.gates}
        lut, lut_z = gate["lut_open"], gate["lut_z"]
        other = design.inputs["C"].net_indices[0]
        overlays = [
            _pin_overlay(lut, 0,
                         SourceOverride.blend_of(lut.input_nets[0], other)),
            _pin_overlay(lut_z, 0, SourceOverride.net(other)),
        ]
        cone = design.fault_cone([lut.output_net])
        plan = _plan(design, overlays, cone)
        # Every cone entry is patched or reads the patched LUT, so every
        # batch is reused as it is (not the fallback to the whole list).
        assert plan.reduced_steps is not plan.steps
        assert [id(step) for step in plan.reduced_steps] == \
            [id(step) for step in plan.steps]
        stimulus = _stimulus(design, 6, seed=45)
        golden = Simulator(design).run(stimulus, record_nets=True)
        _assert_lanes_match_both(design, overlays, stimulus, golden,
                                 cone_of=cone)


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
            overlay = FaultOverlay()
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
            overlay = FaultOverlay()
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
        compiled = compile_numpy_program(program).simulate_shard(
            overlays, stimulus, golden, passes=passes)
        assert [(o.wrong_answer, o.first_mismatch_cycle)
                for o in compiled.outcomes] == \
            [(o.wrong_answer, o.first_mismatch_cycle)
             for o in bigint.outcomes]

    def test_ghost_lanes_replay_golden(self, tiny_fir_compiled):
        design = tiny_fir_compiled
        stimulus = _stimulus(design, 5, seed=23)
        golden = Simulator(design).run(stimulus, record_nets=True)
        program = compile_vector_program(design)
        result = compile_numpy_program(program).simulate_shard(
            [FaultOverlay()], stimulus, golden, passes=1, width=9,
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
            overlay = FaultOverlay()
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

    @pytest.mark.parametrize("backend_class", [VectorBackend, NumpyBackend],
                             ids=["vector", "numpy"])
    def test_oversampled_draw_bit_identical(self, tiny_fir_implementation,
                                            backend_class):
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
        backend = backend_class()
        compiled = run_campaign(tiny_fir_implementation, config,
                                backend=backend)
        assert compiled.injected == population + 150
        assert self._verdict_stream(compiled) == \
            self._verdict_stream(serial)
        stats = backend.last_run_stats
        assert stats["demuxed_faults"] == population + 150
        assert stats["unique_faults"] < stats["demuxed_faults"]


class TestCrossConePacking:
    # Utilization is lanes over sweep capacity, and a vector sweep's
    # capacity is its whole lane width: vector runs one word wide, the
    # capacity numpy's 40-lane sweep here rounds up to.
    @pytest.mark.parametrize("make_backend", [
        lambda: VectorBackend(lane_width=64), NumpyBackend],
        ids=["vector", "numpy"])
    def test_scheduler_packs_lanes_across_cones(self,
                                                tiny_fir_implementation,
                                                make_backend):
        # Every effectful fault has its own cone; the packer must still
        # produce near-full shards (not one shard per cone).
        config = CampaignConfig(num_faults=120, workload_cycles=6, seed=9)
        backend = make_backend()
        result = run_campaign(tiny_fir_implementation, config,
                              backend=backend)
        stats = backend.last_run_stats
        assert result.backend == backend.name
        assert stats["packed_faults"] == sum(stat["lanes"]
                                             for stat in stats["shards"])
        # Coned faults pack into one union-cone shard (plus at most one
        # shard for faults without seed nets).
        assert len(stats["shards"]) <= 2
        assert stats["mean_lane_utilization"] >= 0.6
        assert stats["peak_lane_utilization"] <= 1.0

    def test_lane_backends_share_one_schedule(self,
                                              tiny_tmr_implementation):
        # One driver packs for both executors: at equal lane width they
        # sweep the same shards, mixed pass counts included.
        config = CampaignConfig(num_faults=150, workload_cycles=5, seed=13)
        schedules = []
        for backend in (VectorBackend(lane_width=8),
                        NumpyBackend(lane_width=8)):
            run_campaign(tiny_tmr_implementation, config, backend=backend)
            schedules.append([(stat["lanes"], stat["passes"], stat["coned"])
                              for stat in backend.last_run_stats["shards"]])
        assert schedules[0] == schedules[1]
        assert len({passes for _lanes, passes, _coned in schedules[0]}) > 1

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

