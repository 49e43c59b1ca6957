"""Tests for the campaign execution engine and the golden-trace cache.

The invariant the engine refactor must preserve: every backend produces
bit-identical campaign aggregates (wrong-answer percentages, Table 4
category counts, per-fault records) for the same sampled fault list.
"""

import gc
import pickle
import random

import pytest

from repro.faults import (BACKEND_CHOICES, BACKENDS, CampaignConfig,
                          ExecutionBackend, NumpyBackend, SerialBackend,
                          ShardedBackend, VectorBackend, VerdictColumns,
                          cache_stats, clear_cache,
                          default_stimulus, get_cache,
                          implementation_fingerprint, resolve_backend,
                          run_campaign)
from repro.pnr import FlowArtifactStore, implement

CONFIG = CampaignConfig(num_faults=120, workload_cycles=6, seed=9)

#: instances so the sharded backend actually forks even on a 1-CPU box
#: (min_tasks=0 defeats its small-campaign inline fallback — the pool
#: path itself is under test), and narrow vector/numpy backends so the
#: lane packer must produce several shards per campaign
BACKENDS_UNDER_TEST = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: ShardedBackend(workers=2, min_tasks=0),
                 id="sharded"),
    pytest.param(lambda: ShardedBackend(workers=2, min_tasks=0,
                                        inner="serial"),
                 id="sharded-serial"),
    pytest.param(lambda: VectorBackend(), id="vector"),
    pytest.param(lambda: VectorBackend(lane_width=8), id="vector-narrow"),
    pytest.param(lambda: NumpyBackend(), id="numpy"),
    pytest.param(lambda: NumpyBackend(lane_width=8), id="numpy-narrow"),
]


@pytest.fixture(scope="module")
def implementation(tiny_fir_implementation):
    return tiny_fir_implementation


@pytest.fixture(scope="module")
def serial_reference(implementation):
    clear_cache()
    return run_campaign(implementation, CONFIG)


class TestBackendEquivalence:
    @pytest.mark.parametrize("make_backend", BACKENDS_UNDER_TEST)
    def test_backends_bit_identical(self, implementation, serial_reference,
                                    make_backend):
        result = run_campaign(implementation, CONFIG,
                              backend=make_backend())
        reference = serial_reference
        assert result.injected == reference.injected
        assert result.fault_list_size == reference.fault_list_size
        assert result.wrong_answers == reference.wrong_answers
        assert result.wrong_answer_percent == reference.wrong_answer_percent
        assert result.effect_table() == reference.effect_table()
        assert {name: (count.injected, count.wrong)
                for name, count in result.by_category.items()} == \
            {name: (count.injected, count.wrong)
             for name, count in reference.by_category.items()}
        assert [r.bit for r in result.results] == \
            [r.bit for r in reference.results]
        assert [(r.category, r.has_effect, r.wrong_answer,
                 r.first_mismatch_cycle) for r in result.results] == \
            [(r.category, r.has_effect, r.wrong_answer,
              r.first_mismatch_cycle) for r in reference.results]

    @pytest.mark.parametrize("make_backend", BACKENDS_UNDER_TEST)
    def test_backend_name_recorded(self, implementation, make_backend):
        backend = make_backend()
        result = run_campaign(implementation, CONFIG, backend=backend)
        assert result.backend == backend.name

    def test_explicit_fault_bits_honoured(self, implementation):
        bits = run_campaign(implementation, CONFIG).results
        subset = [r.bit for r in bits[:20]]
        result = run_campaign(implementation, CONFIG, fault_bits=subset)
        assert [r.bit for r in result.results] == subset

    def test_progress_cadence_matches_seed(self, implementation):
        fault_list_bits = [r.bit for r in
                           run_campaign(implementation, CONFIG).results]
        bits = (fault_list_bits * 3)[:250]
        for backend in ("serial", "vector",
                        ShardedBackend(workers=2, min_tasks=0),
                        ShardedBackend(workers=2, min_tasks=0,
                                       inner="serial")):
            calls = []
            run_campaign(implementation, CONFIG, fault_bits=bits,
                         backend=backend,
                         progress=lambda done, total: calls.append(
                             (done, total)))
            assert calls == [(250, 250)]


class TestCache:
    def test_cached_rerun_identical_and_hits(self, implementation):
        clear_cache()
        cold = run_campaign(implementation, CONFIG)
        before = cache_stats()
        warm = run_campaign(implementation, CONFIG)
        after = cache_stats()
        assert warm.wrong_answer_percent == cold.wrong_answer_percent
        assert warm.effect_table() == cold.effect_table()
        assert after["golden_hits"] > before["golden_hits"]
        assert after["effect_hits"] >= before["effect_hits"] + CONFIG.num_faults
        assert after["fault_list_hits"] > before["fault_list_hits"]

    def test_fingerprint_stable_and_content_based(self, implementation):
        first = implementation_fingerprint(implementation)
        assert first == implementation_fingerprint(implementation)
        assert get_cache().fingerprint_of(implementation) == first

    def test_reloaded_implementation_gets_the_same_entry(
            self, tiny_fir_flat, small_device, tmp_path):
        # Entries are keyed by content: once the implementation an entry
        # was made for is collected, a bit-identical one reloaded from
        # the flow store finds that entry, memos and all.
        store = FlowArtifactStore(tmp_path / "flow-cache")
        clear_cache()
        implementation = implement(tiny_fir_flat, small_device,
                                   anneal_moves_per_slice=2,
                                   artifact_store=store)
        entry = get_cache().entry_for(implementation)
        del implementation
        gc.collect()
        assert entry._implementation() is None
        reloaded = implement(tiny_fir_flat, small_device,
                             anneal_moves_per_slice=2, artifact_store=store)
        assert store.stats.flow_hits == 1
        assert get_cache().entry_for(reloaded) is entry
        assert entry._implementation() is reloaded
        clear_cache()

    def test_clear_cache_resets(self, implementation):
        run_campaign(implementation, CONFIG)
        assert len(get_cache()) >= 1
        clear_cache()
        assert len(get_cache()) == 0
        assert sum(cache_stats().values()) == 0


class TestEngineApi:
    def test_resolve_backend_forms(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("vector"), VectorBackend)
        assert isinstance(resolve_backend("sharded"), ShardedBackend)
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert isinstance(resolve_backend(VectorBackend), VectorBackend)
        instance = ShardedBackend(workers=3)
        assert resolve_backend(instance) is instance
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(TypeError):
            resolve_backend(42)
        assert issubclass(SerialBackend, ExecutionBackend)

    def test_backend_registry_is_the_documented_four(self):
        assert BACKEND_CHOICES == ("serial", "vector", "numpy", "sharded")
        assert set(BACKENDS) == set(BACKEND_CHOICES)
        for removed in ("batch", "process", "pool", "service", "np"):
            with pytest.raises(ValueError) as excinfo:
                resolve_backend(removed)
            assert str(list(BACKEND_CHOICES)) in str(excinfo.value)

    def test_tasks_and_verdicts_picklable(self, implementation,
                                          serial_reference):
        from repro.faults import CampaignContext

        context = CampaignContext(
            implementation,
            stimulus=default_stimulus(implementation, CONFIG))
        bits = [r.bit for r in serial_reference.results[:5]]
        # A shard crosses the process boundary as its bit slice and comes
        # back as verdict columns.
        injections = context.tasks_for_groups([(bit,) for bit in bits])
        assert pickle.loads(pickle.dumps(injections.bits)) == \
            injections.bits
        verdicts = SerialBackend().run(context, injections)
        round_trip = pickle.loads(pickle.dumps(verdicts))
        assert isinstance(round_trip, VerdictColumns)
        assert round_trip == verdicts
        assert [bool(wrong) for wrong in round_trip.wrong] == \
            [r.wrong_answer for r in serial_reference.results[:5]]

    def test_mutated_bitstream_gets_fresh_cache_entry(self, implementation):
        entry = get_cache().entry_for(implementation)
        implementation.bitstream.bits[0] ^= 1
        try:
            assert get_cache().entry_for(implementation) is not entry
        finally:
            implementation.bitstream.bits[0] ^= 1
        assert get_cache().fingerprint_of(implementation) == \
            entry.fingerprint


class TestVectorLaneEquivalence:
    """Property: VectorBackend is a bit-identical drop-in for SerialBackend.

    Randomized campaigns (different sampling seeds, workload streams and
    lane widths, on both the plain and the TMR filter) must demux the
    packed lanes into exactly the verdict stream the scalar cone
    simulator produces — including the first mismatching cycle.
    """

    @staticmethod
    def _verdict_stream(result):
        return [(r.bit, r.category, r.has_effect, r.wrong_answer,
                 r.first_mismatch_cycle) for r in result.results]

    @pytest.mark.parametrize("case", range(4))
    def test_randomized_campaigns_bit_identical(self, implementation,
                                               tiny_tmr_implementation,
                                               case):
        rng = random.Random(1000 + case)
        target = implementation if case % 2 == 0 else \
            tiny_tmr_implementation
        config = CampaignConfig(
            num_faults=rng.randint(40, 90),
            workload_cycles=rng.randint(4, 8),
            seed=rng.randint(0, 10_000),
            workload_seed=rng.randint(0, 10_000),
            skip_cycles=rng.choice((0, 1)),
        )
        serial = run_campaign(target, config, backend="serial")
        vector = run_campaign(
            target, config,
            backend=VectorBackend(lane_width=rng.choice((4, 32, 256))))
        assert self._verdict_stream(vector) == self._verdict_stream(serial)
        assert vector.wrong_answers == serial.wrong_answers
        assert vector.effect_table() == serial.effect_table()

    def test_explicit_lane_packing_covers_every_fault(self, implementation,
                                                      serial_reference):
        # A lane width of one degenerates to per-fault sweeps and must
        # still agree — exercises single-lane masks and shard demux.
        bits = [r.bit for r in serial_reference.results[:25]]
        serial = run_campaign(implementation, CONFIG, fault_bits=bits,
                              backend="serial")
        backend = VectorBackend(lane_width=1)
        vector = run_campaign(implementation, CONFIG, fault_bits=bits,
                              backend=backend)
        assert self._verdict_stream(vector) == self._verdict_stream(serial)
        assert backend.last_run_stats["packed_faults"] == sum(
            1 for r in serial.results if r.has_effect)
        assert backend.last_run_stats["peak_lane_utilization"] == 1.0

    def test_vector_program_cached_across_campaigns(self, implementation):
        clear_cache()
        run_campaign(implementation, CONFIG, backend="vector")
        first = cache_stats()
        assert first["vector_program_misses"] >= 1
        run_campaign(implementation, CONFIG, backend="vector")
        second = cache_stats()
        assert second["vector_program_hits"] > first["vector_program_hits"]
        assert second["vector_program_misses"] == \
            first["vector_program_misses"]


class TestDefaultStimulus:
    def test_plain_design_uses_sorted_first_port(self, implementation):
        stimulus = default_stimulus(implementation, CONFIG)
        assert len(stimulus) == CONFIG.workload_cycles
        ports = implementation.design.ports
        data_ports = sorted(
            name for name in ports
            if ports[name].direction.value == "input"
            and not name.upper().startswith("CLK"))
        assert set(stimulus[0]) == {data_ports[0]}
        assert stimulus == default_stimulus(implementation, CONFIG)

    def test_tmr_design_drives_all_domains(self, tiny_tmr_implementation):
        stimulus = default_stimulus(tiny_tmr_implementation, CONFIG)
        assert len(stimulus) == CONFIG.workload_cycles
        base = sorted(stimulus[0])
        assert any(name.endswith("_tr0") for name in base)
        for cycle in stimulus:
            values = {}
            for name, value in cycle.items():
                assert name[-4:-1] == "_tr"
                values.setdefault(name[:-4], set()).add(value)
            for domain_values in values.values():
                assert len(domain_values) == 1
