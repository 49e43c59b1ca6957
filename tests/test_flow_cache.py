"""Persistent flow-artifact store: hits, misses, recovery, equivalence."""

import multiprocessing
import pickle

import pytest

from repro.fpga import device_by_name
from repro.pnr import (FlowArtifactStore, Floorplan, TOOL_VERSION,
                       flow_fingerprint, implement)
from repro.pnr.artifacts import FLOW_NAMESPACE


@pytest.fixture()
def store(tmp_path):
    return FlowArtifactStore(tmp_path / "flow-cache")


def _artifact_path(store, definition, device):
    """Where ``implement(..., anneal_moves_per_slice=2)`` stores its result."""
    key = flow_fingerprint(definition, device, anneal_moves_per_slice=2)
    return store.persistent.path_of(FLOW_NAMESPACE, key)


def _same_implementation(a, b):
    assert a.placement.slice_tiles == b.placement.slice_tiles
    assert a.placement.port_pads == b.placement.port_pads
    assert a.placement.wirelength == b.placement.wirelength
    assert a.routing.routes.keys() == b.routing.routes.keys()
    for name, tree in a.routing.routes.items():
        assert tree.parent == b.routing.routes[name].parent
        assert tree.sinks == b.routing.routes[name].sinks
    assert a.routing.pip_owner == b.routing.pip_owner
    assert bytes(a.bitstream.bits) == bytes(b.bitstream.bits)
    assert a.resources.stats == b.resources.stats
    assert a.timing == b.timing
    assert a.packing.cell_site == b.packing.cell_site


class TestStoreBasics:
    def test_miss_then_hit_bit_identical(self, tiny_fir_flat, small_device,
                                         store):
        cold = implement(tiny_fir_flat, small_device,
                         anneal_moves_per_slice=2, artifact_store=store)
        assert store.stats.flow_misses == 1 and store.stats.flow_stores == 1
        warm = implement(tiny_fir_flat, small_device,
                         anneal_moves_per_slice=2, artifact_store=store)
        assert store.stats.flow_hits == 1
        _same_implementation(cold, warm)
        # The loaded artifact carries the caller's netlist, not a copy.
        assert warm.design is tiny_fir_flat

    def test_store_accepts_directory_path(self, tiny_fir_flat, small_device,
                                          tmp_path):
        root = tmp_path / "by-path"
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=str(root))
        key = flow_fingerprint(tiny_fir_flat, small_device,
                               anneal_moves_per_slice=2)
        assert (root / "flow" / key[:2] / f"{key}.pkl").exists()

    def test_corrupt_entry_recovered(self, tiny_fir_flat, small_device,
                                     store):
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        path = _artifact_path(store, tiny_fir_flat, small_device)
        path.write_bytes(b"not a pickle at all")
        recovered = implement(tiny_fir_flat, small_device,
                              anneal_moves_per_slice=2,
                              artifact_store=store)
        assert store.stats.corrupt_evictions == 1
        assert recovered.routing.routes
        # The recompute rewrote a good artifact; the next run hits again.
        hits_before = store.stats.flow_hits
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        assert store.stats.flow_hits == hits_before + 1

    def test_foreign_envelope_version_evicted(self, tiny_fir_flat,
                                              small_device, store):
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        path = _artifact_path(store, tiny_fir_flat, small_device)
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = "tier-0-obsolete"
        path.write_bytes(pickle.dumps(envelope))
        misses_before = store.stats.flow_misses
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        assert store.stats.flow_misses == misses_before + 1
        assert store.stats.corrupt_evictions == 1

    def test_tool_version_bump_never_serves_stale(self, tiny_fir_flat,
                                                  small_device, store,
                                                  monkeypatch):
        from repro.pnr import artifacts

        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        stale = _artifact_path(store, tiny_fir_flat, small_device)
        monkeypatch.setattr(artifacts, "TOOL_VERSION",
                            TOOL_VERSION + "-next")
        assert _artifact_path(store, tiny_fir_flat, small_device) != stale
        hits_before = store.stats.flow_hits
        misses_before = store.stats.flow_misses
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        assert store.stats.flow_hits == hits_before
        assert store.stats.flow_misses == misses_before + 1

    def test_stored_artifact_detaches_netlist(self, tiny_fir_flat,
                                              small_device, store):
        implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2,
                  artifact_store=store)
        path = _artifact_path(store, tiny_fir_flat, small_device)
        payload = pickle.loads(path.read_bytes())["payload"]
        assert payload["implementation"].design is None
        assert payload["design_name"] == tiny_fir_flat.name


class TestFingerprint:
    def test_key_stability_and_sensitivity(self, tiny_fir_flat,
                                           small_device):
        base = flow_fingerprint(tiny_fir_flat, small_device, seed=1)
        assert base == flow_fingerprint(tiny_fir_flat, small_device, seed=1)
        assert base != flow_fingerprint(tiny_fir_flat, small_device, seed=2)
        assert base != flow_fingerprint(tiny_fir_flat, small_device, seed=1,
                                        anneal_moves_per_slice=9)
        assert base != flow_fingerprint(tiny_fir_flat, small_device, seed=1,
                                        router_iterations=5)
        other_device = device_by_name("XC2S50E")
        assert base != flow_fingerprint(tiny_fir_flat, other_device, seed=1)
        floorplan = Floorplan.vertical_thirds(small_device)
        assert base != flow_fingerprint(tiny_fir_flat, small_device, seed=1,
                                        floorplan=floorplan)

    def test_keys_pinned_to_recorded_literals(self, tiny_fir_flat,
                                              small_device):
        # Recorded literals: flow artifacts and stage results written by
        # earlier releases must keep hitting, so neither key may drift
        # unless TOOL_VERSION is bumped on purpose.
        from repro import SCENARIOS
        from repro.pipeline import PipelineContext

        assert flow_fingerprint(tiny_fir_flat, small_device) == (
            "3cad3083af6b290cd208aba6334a9929"
            "f61ae0465baf14f6837ef1b505bfc69c")
        assert PipelineContext(SCENARIOS["table3-fir"]).identity() == (
            "scenario=table3-fir|scale=fast"
            "|designs=standard,TMR_p1,TMR_p2,TMR_p3,TMR_p3_nv"
            "|partitions=canonical:3|floorplan=False|flow=flow-1")

    def test_tool_version_in_key(self, tiny_fir_flat, small_device,
                                 monkeypatch):
        from repro.pnr import artifacts

        base = flow_fingerprint(tiny_fir_flat, small_device)
        monkeypatch.setattr(artifacts, "TOOL_VERSION",
                            TOOL_VERSION + "-next")
        assert flow_fingerprint(tiny_fir_flat, small_device) != base


class TestSuiteIntegration:
    """Cache-hit runs reproduce the experiment tables byte for byte."""

    @pytest.fixture(scope="class")
    def smoke_suite(self):
        from repro.experiments import build_design_suite

        return build_design_suite("smoke")

    def test_tables_identical_cold_vs_cache_hit(self, smoke_suite, tmp_path):
        import json

        from repro.experiments import (campaign_config_for,
                                       implement_design_suite)
        from repro.faults import run_campaign

        store = FlowArtifactStore(tmp_path / "suite-cache")
        designs = ["standard", "TMR_p3"]
        cold = implement_design_suite(smoke_suite, designs=designs,
                                      artifact_store=store)
        warm = implement_design_suite(smoke_suite, designs=designs,
                                      artifact_store=store)
        assert store.stats.flow_hits == len(designs)
        for name in designs:
            _same_implementation(cold[name], warm[name])

        def tables(implementations):
            config = campaign_config_for(smoke_suite, 40)
            results = {name: run_campaign(implementations[name], config,
                                          backend="vector")
                       for name in designs}
            payload = {name: result.summary_row()
                       for name, result in results.items()}
            payload["table4"] = {name: result.effect_table()
                                 for name, result in results.items()}
            return json.dumps(payload, sort_keys=True, default=str)

        assert tables(cold) == tables(warm)

    def test_parallel_jobs_match_serial(self, smoke_suite):
        from repro.experiments import implement_design_suite

        designs = ["standard", "TMR_p3_nv"]
        serial = implement_design_suite(smoke_suite, designs=designs)
        parallel = implement_design_suite(smoke_suite, designs=designs,
                                          jobs=2)
        for name in designs:
            _same_implementation(serial[name], parallel[name])
            assert parallel[name].design is smoke_suite.flat[name]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="flow workers inherit the suite through fork")
    def test_parallel_workers_implement_the_callers_suite(self):
        """Workers implement the caller's suite, not a rebuilt recipe.

        Swapping two flat definitions gives a suite that
        ``build_design_suite("tiny")`` cannot reproduce; every pending
        design must still come back from the pool, byte-identical to the
        serial flow over the same suite.
        """
        from repro.experiments import build_design_suite
        from repro.experiments.designs import (_implement_parallel,
                                               implement_design_suite)

        suite = build_design_suite("tiny")
        suite.flat["TMR_p3"], suite.flat["TMR_p3_nv"] = \
            suite.flat["TMR_p3_nv"], suite.flat["TMR_p3"]
        pending = ["TMR_p3", "TMR_p3_nv"]
        serial = implement_design_suite(suite, designs=pending)
        parallel = _implement_parallel(suite, pending,
                                       floorplan_domains=False, seed=1,
                                       jobs=2)
        assert sorted(parallel) == sorted(pending)
        for name in pending:
            _same_implementation(serial[name], parallel[name])
            assert parallel[name].design is suite.flat[name]
