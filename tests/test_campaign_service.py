"""Tests of the campaign service: queue, tier, orchestrator, HTTP, seeds.

The heavy campaign content is covered by the engine/pipeline suites; here
every scenario run uses the ``tiny`` scale so the service's *semantics* —
lifecycle, in-flight coalescing, tier persistence, failure surfacing,
report identity with a direct ``run_scenario`` call — are exercised end
to end in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import threading
import time
import urllib.request

import pytest

from repro.analysis.layout import DefeatMap, LayoutAnalyzer, defeat_map_for
from repro.faults import (CampaignConfig, CampaignWorkerError,
                          ShardedBackend, clear_cache, derive_seed,
                          get_cache, run_campaign, split_shards, substream)
from repro.faults.fault_list import FaultList
from repro.pipeline import stable_report
from repro.scenarios import run_scenario, scenario_by_name
from repro.service import (CampaignService, JobQueue, JobSpec, JobState,
                           SharedCacheTier, activate_tier, active_tier,
                           deactivate_tier, job_fingerprint)
from repro.service.httpd import (fetch_job, fetch_report, make_server,
                                 submit_job, wait_for_job)
from repro.service.tier import (DEFEAT_MAP_NAMESPACE, TIER_VERSION,
                                PersistentStore)


@pytest.fixture(autouse=True)
def no_ambient_tier():
    """Every test starts and ends without a process-wide tier."""
    deactivate_tier()
    yield
    deactivate_tier()


def tiny_spec(**overrides) -> JobSpec:
    defaults = dict(scale="tiny", num_faults=30, designs=("standard",))
    defaults.update(overrides)
    return JobSpec("table3-fir", **defaults)


def _die_in_worker(shard_index, shard):
    # Module-level so the executor can pickle it by reference; a test-local
    # closure would fail to serialize instead of exercising the crash path.
    os._exit(13)


# ----------------------------------------------------------------------
# Seed derivation (the sharded-worker reproducibility contract)
# ----------------------------------------------------------------------
class TestSeeds:
    def test_derive_seed_is_stable(self):
        # Pinned values: changing the derivation silently re-randomizes
        # every recorded oversampled draw (treat like a tool-version bump).
        assert derive_seed(2005, "oversample") == 8090250657571724634
        assert derive_seed(7, "shard", 3) == 241020708290790905

    def test_derive_seed_pure_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        # Labeled substreams never track the raw seed.
        assert derive_seed(1, "a") != 1

    def test_substream_independent_of_raw_stream(self):
        import random

        raw = random.Random(5)
        labeled = substream(5, "oversample")
        assert [raw.random() for _ in range(4)] != \
            [labeled.random() for _ in range(4)]

    @pytest.mark.parametrize("count,shards", [
        (0, 1), (1, 1), (5, 2), (10, 3), (10, 10), (3, 8), (100, 7)])
    def test_split_shards_cover_and_disjoint(self, count, shards):
        ranges = split_shards(count, shards)
        flattened = [i for start, stop in ranges for i in range(start, stop)]
        assert flattened == list(range(count))
        sizes = [stop - start for start, stop in ranges]
        if count:
            assert max(sizes) - min(sizes) <= 1

    def test_split_shards_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_shards(10, 0)

    def test_oversample_reproducible_and_covering(self):
        fault_list = FaultList(mode="design", bits=list(range(10, 20)),
                               composition={"lut": 10})
        draw = fault_list.sample(25, seed=42)
        again = fault_list.sample(25, seed=42)
        assert draw == again
        # The whole population appears once before the replacement tail.
        assert draw[:10] == fault_list.bits
        assert set(draw[10:]) <= set(fault_list.bits)
        # The tail rides a labeled substream, not the raw seed.
        assert fault_list.sample(25, seed=43) != draw
        # Below the population size the draw matches the seed semantics.
        import random

        assert fault_list.sample(4, seed=42) == \
            random.Random(42).sample(fault_list.bits, 4)


# ----------------------------------------------------------------------
# The persistent tier
# ----------------------------------------------------------------------
class TestSharedCacheTier:
    def test_golden_and_defeat_map_and_fault_list_round_trip(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        key = (("i", (1, 2)),)
        assert tier.load_golden("fp", key) is None
        assert tier.store_golden("fp", key, {"trace": 1}, {"program": 2})
        assert tier.load_golden("fp", key) == ({"trace": 1}, {"program": 2})

        assert tier.load_defeat_map("fp", "design") is None
        assert tier.store_defeat_map("fp", "design", {"map": 3})
        assert tier.load_defeat_map("fp", "design") == {"map": 3}

        assert tier.load_fault_list("fp", "design") is None
        fault_list = FaultList(mode="design", bits=[4, 5],
                               composition={"lut": 2})
        assert tier.store_fault_list("fp", "design", fault_list)
        assert tier.load_fault_list("fp", "design") == fault_list

        stats = tier.stats.as_dict()
        assert stats["golden_hits"] == stats["golden_misses"] == 1
        assert stats["defeat_map_stores"] == 1
        assert stats["fault_list_hits"] == 1
        assert tier.stats.hit_rate() == 0.5

    def test_reload_from_second_store_instance(self, tmp_path):
        SharedCacheTier(tmp_path).store_defeat_map("fp", "design", [1, 2])
        assert SharedCacheTier(tmp_path).load_defeat_map(
            "fp", "design") == [1, 2]

    def test_corrupt_entry_evicted_as_miss(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        tier.store_golden("fp", ("k",), "trace", "program")
        path = tier._store.path_of("golden", tier.golden_key("fp", ("k",)))
        path.write_bytes(b"not a pickle")
        assert tier.load_golden("fp", ("k",)) is None
        assert not path.exists()
        assert tier.stats.corrupt_evictions == 1

    def test_version_mismatch_evicted_as_miss(self, tmp_path, monkeypatch):
        store = PersistentStore(tmp_path)
        store.store("golden", "key", "payload")
        monkeypatch.setattr("repro.pnr.artifacts.TIER_VERSION",
                            TIER_VERSION + "-next")
        assert store.load("golden", "key") is None
        assert not store.path_of("golden", "key").exists()

    def test_foreign_key_evicted_as_miss(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.store("golden", "key-a", "payload")
        source = store.path_of("golden", "key-a")
        target = store.path_of("golden", "ke-renamed")
        target.parent.mkdir(parents=True, exist_ok=True)
        source.rename(target)
        assert store.load("golden", "ke-renamed") is None
        assert not target.exists()

    def test_lru_eviction_spares_recently_used(self, tmp_path):
        tier = SharedCacheTier(tmp_path, max_bytes=10 ** 9)
        for index in range(3):
            tier.store_defeat_map("fp", f"mode{index}", b"x" * 2000)
        # Deterministic recency: mode0 oldest, mode2 newest.
        now = time.time()
        for index in range(3):
            path = tier._store.path_of(
                "defeat-map", tier.defeat_map_key("fp", f"mode{index}"))
            os.utime(path, (now - 100 + index, now - 100 + index))
        tier.max_bytes = 2 * tier.total_bytes() // 3
        assert tier.enforce_budget() >= 1
        assert tier.load_defeat_map("fp", "mode0") is None
        assert tier.load_defeat_map("fp", "mode2") is not None
        assert tier.stats.lru_evictions >= 1
        assert tier.stats.bytes_evicted > 0

    def test_flow_stores_respect_budget(self, tmp_path,
                                       tiny_fir_implementation):
        tier = SharedCacheTier(tmp_path)
        # Keys sort in write order, so an mtime tie still evicts "aa...".
        assert tier.flow_store.store("aa" * 32, tiny_fir_implementation)
        tier.max_bytes = 3 * tier.total_bytes() // 2
        assert tier.flow_store.store("bb" * 32, tiny_fir_implementation)
        assert tier.total_bytes() <= tier.max_bytes
        assert tier.stats.lru_evictions == 1
        design = tiny_fir_implementation.design
        assert tier.flow_store.load("aa" * 32, design) is None
        assert tier.flow_store.load("bb" * 32, design) is not None

    def test_load_refreshes_recency(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        tier.store_defeat_map("fp", "old-but-hot", [1])
        tier.store_defeat_map("fp", "cold", [2])
        now = time.time()
        for mode, age in (("old-but-hot", 200), ("cold", 100)):
            path = tier._store.path_of(
                "defeat-map", tier.defeat_map_key("fp", mode))
            os.utime(path, (now - age, now - age))
        assert tier.load_defeat_map("fp", "old-but-hot") is not None
        tier.max_bytes = tier.total_bytes() - 1
        tier.enforce_budget()
        # The refreshed entry survived; the untouched one was evicted.
        assert tier.load_defeat_map("fp", "old-but-hot") is not None
        assert tier.load_defeat_map("fp", "cold") is None

    def test_store_failure_is_silent(self, tmp_path, monkeypatch):
        tier = SharedCacheTier(tmp_path)
        monkeypatch.setattr(os, "replace",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("disk full")))
        assert not tier.store_defeat_map("fp", "design", [1])
        assert tier.stats.store_failures == 1

    def test_activate_and_deactivate(self, tmp_path):
        assert active_tier() is None
        tier = activate_tier(tmp_path)
        assert isinstance(tier, SharedCacheTier)
        assert active_tier() is tier
        deactivate_tier()
        assert active_tier() is None


class TestTierReadThrough:
    """The campaign cache serves fault lists and golden traces from the
    tier across a simulated process restart."""

    def test_campaign_artifacts_survive_restart(self, tmp_path,
                                                tiny_fir_implementation):
        config = CampaignConfig(num_faults=25, workload_cycles=6, seed=9)
        tier = SharedCacheTier(tmp_path)
        activate_tier(tier)

        clear_cache()
        first = run_campaign(tiny_fir_implementation, config,
                             backend="serial")
        assert tier.stats.fault_list_stores == 1
        assert tier.stats.golden_stores == 1

        clear_cache()  # the restart: only the tier survives
        second = run_campaign(tiny_fir_implementation, config,
                              backend="serial")
        assert tier.stats.fault_list_hits == 1
        assert tier.stats.golden_hits == 1
        assert second.wrong_answers == first.wrong_answers
        assert second.effect_table() == first.effect_table()

        # Without the tier the same restart recomputes from scratch and
        # must agree — the tier never changes results, only costs.
        deactivate_tier()
        clear_cache()
        fresh = run_campaign(tiny_fir_implementation, config,
                             backend="serial")
        assert fresh.wrong_answers == first.wrong_answers
        assert fresh.effect_table() == first.effect_table()

    def test_defeat_map_round_trips(self, tmp_path, tiny_fir_implementation):
        built = LayoutAnalyzer(tiny_fir_implementation).build_map()
        tier = SharedCacheTier(tmp_path)
        assert tier.store_defeat_map("fp", built.mode, built)
        loaded = tier.load_defeat_map("fp", built.mode)
        size = len(pickle.dumps(built, pickle.HIGHEST_PROTOCOL))
        message = (f"{size} pickled bytes for {len(built)} bits "
                   f"({size / len(built):.1f} bytes per bit)")
        assert loaded is not built, message
        assert loaded.predictions == built.predictions, message
        assert loaded.summary() == built.summary(), message

    def test_stale_defeat_map_entry_is_a_miss(self, tmp_path,
                                             tiny_fir_implementation):
        """A map pickled before the columnar layout (a dict of
        predictions) must never be served: its key is a plain miss."""
        fresh = LayoutAnalyzer(tiny_fir_implementation).build_map()
        stale = object.__new__(DefeatMap)
        vars(stale).update(design=fresh.design, mode=fresh.mode,
                           predictions=dict(fresh.predictions))
        tier = SharedCacheTier(tmp_path)
        clear_cache()
        fingerprint = get_cache().entry_for(
            tiny_fir_implementation).fingerprint
        assert tier._store.store(DEFEAT_MAP_NAMESPACE,
                                 f"{fingerprint}-{fresh.mode}", stale)
        activate_tier(tier)
        served = defeat_map_for(tiny_fir_implementation, mode=fresh.mode)
        assert tier.stats.defeat_map_misses == 1
        assert tier.stats.defeat_map_hits == 0
        assert len(served.bits) == len(fresh)
        assert served == fresh
        clear_cache()


# ----------------------------------------------------------------------
# Job specs, fingerprints, queue
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({"scenario": "table3-fir", "bogus": 1})

    def test_from_dict_requires_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            JobSpec.from_dict({"scale": "tiny"})

    def test_round_trip_preserves_designs_tuple(self):
        spec = tiny_spec(designs=["standard", "TMR_p2"])
        assert spec.designs == ("standard", "TMR_p2")
        again = JobSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec

    def test_fingerprint_collapses_explicit_defaults(self):
        scenario = scenario_by_name("table3-fir")
        assert job_fingerprint(JobSpec("table3-fir")) == job_fingerprint(
            JobSpec("table3-fir", scale=scenario.scale,
                    seed=scenario.seed))

    def test_fingerprint_separates_real_differences(self):
        base = tiny_spec()
        assert job_fingerprint(base) != job_fingerprint(
            dataclasses.replace(base, seed=123))
        assert job_fingerprint(base) != job_fingerprint(
            dataclasses.replace(base, designs=("TMR_p2",)))

    def test_fingerprints_pinned_to_recorded_literals(self):
        # Journals and tier entries are keyed by these digests: a job
        # journaled by an earlier release must resolve to the same key.
        # Recorded before the single-value options were folded away.
        assert job_fingerprint(JobSpec("table3-fir")) == \
            "7081c6349f5f53670465aa5761539767cf71dde0"
        assert job_fingerprint(JobSpec(
            "table3-fir", scale="tiny", backend="vector",
            upset_model="mbu:2", num_faults=40, seed=3,
            fault_list_mode="programmed", designs=("standard", "TMR_p2"),
            timeout_s=30.0)) == "917fc820e7a34f891d96fa5d4c95b9fdf1cbe1a8"

    def test_unknown_scenario_raises_at_fingerprint_time(self):
        with pytest.raises(KeyError):
            job_fingerprint(JobSpec("no-such-scenario"))

    def test_resolve_matches_what_run_scenario_executes(self, monkeypatch):
        # One override rule: a spec overriding the backend axis and the
        # designs resolves to the very scenario run_scenario expands.
        import repro.scenarios as scenarios

        executed = []
        monkeypatch.setattr(
            scenarios, "_run_once",
            lambda scenario, **_kwargs: executed.append(scenario) or {})
        spec = JobSpec("backend-matrix", scale="tiny", backend="vector",
                       designs=("TMR_p2",))
        run_scenario(spec.scenario, **spec.overrides())
        assert executed == [spec.resolve()]
        assert spec.resolve().axes == ()
        assert spec.resolve().designs == ("TMR_p2",)


class TestJobQueue:
    def test_lifecycle(self):
        queue = JobQueue()
        job, created = queue.submit(tiny_spec())
        assert created and job.state == JobState.PENDING
        queue.mark_running(job)
        assert job.state == JobState.RUNNING
        queue.finish(job, {"ok": True})
        assert job.state == JobState.DONE
        assert job.report == {"ok": True}
        assert job.done_event.is_set()
        assert job.elapsed() is not None

    def test_in_flight_coalescing(self):
        queue = JobQueue()
        first, created_first = queue.submit(tiny_spec())
        second, created_second = queue.submit(tiny_spec())
        assert created_first and not created_second
        assert first is second
        assert first.submissions == 2
        assert queue.coalesced == 1
        third, created_third = queue.submit(tiny_spec(seed=99))
        assert created_third and third is not first

    def test_finished_jobs_do_not_absorb(self):
        queue = JobQueue()
        job, _created = queue.submit(tiny_spec())
        queue.finish(job, {})
        again, created = queue.submit(tiny_spec())
        assert created and again is not job

    def test_failed_job_records_error(self):
        queue = JobQueue()
        job, _created = queue.submit(tiny_spec())
        queue.fail(job, "boom")
        assert job.state == JobState.FAILED
        assert job.error == "boom"
        assert queue.stats()["by_state"][JobState.FAILED] == 1


# ----------------------------------------------------------------------
# The sharded execution backend
# ----------------------------------------------------------------------
class TestShardedBackend:
    CONFIG = CampaignConfig(num_faults=60, workload_cycles=6, seed=9)

    def test_matches_serial_with_real_workers(self,
                                              tiny_fir_implementation):
        serial = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend="serial")
        backend = ShardedBackend(workers=2, min_tasks=0)
        sharded = run_campaign(tiny_fir_implementation, self.CONFIG,
                               backend=backend)
        assert not backend.last_run_stats.get("inline")
        assert sharded.wrong_answers == serial.wrong_answers
        assert sharded.injected == serial.injected
        assert sharded.effect_table() == serial.effect_table()

    def test_small_campaigns_fall_back_inline(self,
                                              tiny_fir_implementation):
        backend = ShardedBackend(workers=2)  # default min_tasks=1000
        result = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend=backend)
        assert backend.last_run_stats["inline"]
        assert backend.name == "sharded:inline-fallback"
        serial = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend="serial")
        assert result.effect_table() == serial.effect_table()
        # The fallback name is per run: forcing the pool restores it.
        backend.min_tasks = 0
        run_campaign(tiny_fir_implementation, self.CONFIG, backend=backend)
        assert backend.name == "sharded"

    def test_killed_workers_self_heal_via_degradation(
            self, tiny_fir_implementation, monkeypatch):
        # Every worker dies hard on every shard; supervision must retry,
        # respawn the pool, exhaust the retry budget and degrade the
        # shards inline — the campaign completes with results identical
        # to serial, and the whole ordeal lands in last_run_stats.
        from repro.faults import engine

        monkeypatch.setattr(engine, "_run_task_shard", _die_in_worker)
        backend = ShardedBackend(workers=2, min_tasks=0,
                                 max_shard_retries=1, retry_backoff_s=0.01)
        sharded = run_campaign(tiny_fir_implementation, self.CONFIG,
                               backend=backend)
        stats = backend.last_run_stats
        assert stats["retries"] >= 1
        assert stats["degradations"]
        assert all(entry["to"].startswith("inline:")
                   for entry in stats["degradations"])
        serial = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend="serial")
        assert sharded.wrong_answers == serial.wrong_answers
        assert sharded.effect_table() == serial.effect_table()

    def test_exhausted_degradation_surfaces_not_hangs(
            self, tiny_fir_implementation, monkeypatch):
        # Only when workers die AND every inline fallback fails may the
        # campaign abort — and it must do so loudly, never hang.
        from repro.faults import engine

        def broken_inline(inner, context, shard):
            raise ValueError("inline evaluation broken too")

        monkeypatch.setattr(engine, "_run_task_shard", _die_in_worker)
        monkeypatch.setattr(engine, "_evaluate_shard_locally",
                            broken_inline)
        backend = ShardedBackend(workers=2, min_tasks=0,
                                 max_shard_retries=0, retry_backoff_s=0.01)
        with pytest.raises(CampaignWorkerError,
                           match="degradation fallback"):
            run_campaign(tiny_fir_implementation, self.CONFIG,
                         backend=backend)


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
class TestCampaignService:
    def test_job_runs_to_done_with_report(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier") as service:
            job = service.run(tiny_spec(), timeout=300)
            assert job.state == JobState.DONE
            assert job.report["schema"] == "repro.scenario-report/1"
            assert job.report["backend"].startswith("sharded")
            assert "standard" in job.report["designs"]
            assert job.progress  # the monitor callback fed live progress
            json.dumps(job.snapshot())  # snapshots are JSON-safe

    def test_report_identical_to_direct_run_scenario(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier") as service:
            job = service.run(tiny_spec(), timeout=300)
        deactivate_tier()
        direct = run_scenario("table3-fir", scale="tiny", num_faults=30,
                              designs=("standard",), backend="sharded")
        assert stable_report(job.report) == stable_report(direct)

    def test_in_flight_submissions_coalesce(self, tmp_path):
        # One slot + a blocker guarantees the identical pair is still
        # pending when the second submission lands.
        with CampaignService(tier=tmp_path / "tier",
                             max_parallel=1) as service:
            blocker = service.submit(tiny_spec(seed=7))
            first = service.submit(tiny_spec())
            second = service.submit(tiny_spec())
            assert first is second
            assert first.submissions == 2
            assert service.queue.coalesced == 1
            assert service.wait(timeout=300)
            assert blocker.state == first.state == JobState.DONE
            # Settled jobs never absorb: the same spec now starts fresh.
            fresh = service.submit(tiny_spec())
            assert fresh is not first
            assert fresh.wait(timeout=300)
            assert stable_report(fresh.report) == \
                stable_report(first.report)

    def test_failed_job_surfaces_error(self, tmp_path):
        # Shortlist design names exist only once the build stage ran, so
        # this spec passes submit-time validation and fails in the worker.
        spec = dataclasses.replace(tiny_spec(designs=("no-such-design",)),
                                   scenario="partition-shortlist")
        with CampaignService(tier=tmp_path / "tier") as service:
            job = service.run(spec, timeout=300)
            assert job.state == JobState.FAILED
            assert "no-such-design" in job.error

    def test_dead_sharded_worker_fails_job_without_hanging(
            self, tmp_path, monkeypatch):
        from repro.service import orchestrator

        def crash(*args, **kwargs):
            raise CampaignWorkerError(
                "a sharded campaign worker died after 0/30 verdicts")

        monkeypatch.setattr(orchestrator, "run_scenario", crash)
        with CampaignService(tier=tmp_path / "tier") as service:
            job = service.run(tiny_spec(), timeout=60)
            assert job.state == JobState.FAILED
            assert "worker died" in job.error

    def test_invalid_default_backend_rejected_at_submit(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier",
                             default_backend="bogus") as service:
            with pytest.raises(ValueError, match="unknown campaign backend"):
                service.submit(tiny_spec())
            assert service.queue.jobs() == []

    def test_submit_requires_started_service(self):
        service = CampaignService()
        with pytest.raises(Exception, match="not running"):
            service.submit(tiny_spec())

    def test_stats_expose_queue_and_tier(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier") as service:
            service.run(tiny_spec(), timeout=300)
            stats = service.stats()
            assert stats["queue"]["jobs"] == 1
            assert stats["default_backend"] == "sharded"
            assert "stats" in stats["tier"]


# ----------------------------------------------------------------------
# The HTTP surface
# ----------------------------------------------------------------------
class TestHttpApi:
    @pytest.fixture()
    def served(self, tmp_path):
        service = CampaignService(tier=tmp_path / "tier").start()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield service, f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_submit_wait_report_round_trip(self, served):
        service, url = served
        snapshot = submit_job(url, tiny_spec().as_dict())
        assert snapshot["state"] in (JobState.PENDING, JobState.RUNNING)
        assert snapshot["coalesced"] is False
        final = wait_for_job(url, snapshot["id"], timeout=300)
        assert final["state"] == JobState.DONE
        report = fetch_report(url, snapshot["id"])
        assert report == service.queue.get(snapshot["id"]).report
        with urllib.request.urlopen(f"{url}/stats", timeout=60) as response:
            stats = json.loads(response.read())
        assert stats["queue"]["jobs"] == 1
        listing = fetch_job(url, snapshot["id"])
        assert listing["id"] == snapshot["id"]

    def test_duplicate_submission_reports_coalesced(self, served):
        _service, url = served
        blocker = submit_job(url, tiny_spec(seed=7).as_dict())
        first = submit_job(url, tiny_spec().as_dict())
        second = submit_job(url, tiny_spec().as_dict())
        assert second["id"] == first["id"]
        assert second["coalesced"] is True
        assert second["submissions"] == 2
        for job_id in (blocker["id"], first["id"]):
            assert wait_for_job(url, job_id,
                                timeout=300)["state"] == JobState.DONE

    def test_bad_spec_is_rejected(self, served):
        _service, url = served
        with pytest.raises(RuntimeError, match="unknown job spec fields"):
            submit_job(url, {"scenario": "table3-fir", "bogus": 1})
        # The retired campaign prefilter is a foreign field like any other.
        with pytest.raises(RuntimeError, match="unknown job spec fields"):
            submit_job(url, {"scenario": "table3-fir", "prefilter": "static"})
        with pytest.raises(RuntimeError, match="unknown scenario"):
            submit_job(url, {"scenario": "no-such-scenario"})

    @pytest.mark.parametrize("field, value, message", [
        ("backend", "bogus", "unknown campaign backend"),
        ("backend", 5, "backend must be None, a name"),
        ("upset_model", "mbu:zz", "must be an integer"),
        ("scale", "huge2", "unknown scale"),
        ("fault_list_mode", "nope", "unknown fault-list mode"),
    ])
    def test_unrunnable_spec_is_400_and_never_journaled(
            self, served, field, value, message):
        service, url = served
        with pytest.raises(RuntimeError, match=rf"\(400\).*{message}"):
            submit_job(url, {"scenario": "table3-fir", field: value})
        assert service.queue.jobs() == []
        assert service.journal.replay().replayed == 0

    @pytest.mark.parametrize("field, value, message", [
        ("designs", "standard", "designs must be a list"),
        ("designs", ["TMR_p9"], "unknown designs"),
        ("num_faults", -5, "num_faults must be a non-negative integer"),
        ("num_faults", "many", "num_faults must be a non-negative integer"),
        ("num_faults", True, "num_faults must be a non-negative integer"),
        ("designs", [], "designs must name at least one"),
        ("seed", "abc", "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
    ], ids=["bare-design-name", "unknown-design", "negative-faults",
            "string-faults", "bool-faults", "no-designs", "string-seed",
            "bool-seed"])
    def test_unrunnable_designs_or_faults_are_400_and_never_journaled(
            self, served, field, value, message):
        service, url = served
        with pytest.raises(RuntimeError, match=rf"\(400\).*{message}"):
            submit_job(url, {"scenario": "table3-fir", field: value})
        assert service.queue.jobs() == []
        assert service.journal.replay().replayed == 0

    @pytest.mark.parametrize("timeout", [
        float("nan"), float("inf"), True, "5", -1, 0],
        ids=["nan", "inf", "bool", "string", "negative", "zero"])
    def test_bad_timeout_is_400_and_never_journaled(self, served, timeout):
        service, url = served
        with pytest.raises(RuntimeError,
                           match=r"\(400\).*timeout_s must be a finite"):
            submit_job(url, dict(tiny_spec().as_dict(), timeout_s=timeout))
        assert service.queue.jobs() == []
        assert service.journal.replay().replayed == 0

    def test_unknown_job_is_404(self, served):
        _service, url = served
        with pytest.raises(RuntimeError, match="404"):
            fetch_job(url, "job-9999")
