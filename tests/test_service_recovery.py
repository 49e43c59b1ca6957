"""Crash-safety tests: journal, shard checkpoints, chaos, recovery.

Everything here runs the ``tiny`` scale so the *recovery semantics* —
durable job journal, shard-level checkpoint/resume, worker supervision
with retry and backend degradation, deadline/cancel propagation, the
drain protocol — are exercised end to end in seconds.  The headline
contract under test: a campaign interrupted at a seeded chaos fault
point and resumed after a (simulated) full service restart recomputes
only the missing shards and produces a stable report byte-identical to
an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import pipeline
from repro.faults import clear_cache, run_campaign, CampaignConfig, \
    ShardedBackend
from repro.fpga.config import clear_layout_cache
from repro.fpga.routing import clear_routing_graph_cache
from repro.pipeline import stable_report
from repro.pnr import implement
from repro.scenarios import run_scenario, scenario_by_name
from repro.service import (CampaignService, ChaosConfig, ChaosCrash,
                           JobJournal, JobSpec, JobState, ServiceDraining,
                           SharedCacheTier, activate_tier, deactivate_tier)
from repro.service import chaos
from repro.service.httpd import (MAX_WAIT_SECONDS, fetch_job, make_server,
                                 submit_job, wait_for_job)
from repro.service.journal import JOURNAL_VERSION


@pytest.fixture(autouse=True)
def no_ambient_tier():
    deactivate_tier()
    yield
    deactivate_tier()


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV_VAR, raising=False)
    monkeypatch.delenv(chaos.CHAOS_STATE_ENV_VAR, raising=False)


def _simulate_restart() -> None:
    """Drop every in-process cache; only the tier directory survives."""
    clear_cache()
    pipeline._SUITE_MEMO.clear()
    clear_routing_graph_cache()
    clear_layout_cache()
    deactivate_tier()


def tiny_spec(**overrides) -> JobSpec:
    defaults = dict(scale="tiny", num_faults=30, designs=("standard",))
    defaults.update(overrides)
    return JobSpec("table3-fir", **defaults)


# ----------------------------------------------------------------------
# The job journal
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_record_replay_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        spec = tiny_spec().as_dict()
        assert journal.record("submitted", job_id="job-0001",
                              fingerprint="f1", spec=spec)
        journal.record("running", job_id="job-0001")
        journal.record("submitted", job_id="job-0002",
                       fingerprint="f2", spec=spec)
        journal.record("done", job_id="job-0001")
        replay = journal.replay()
        assert replay.replayed == 4
        assert replay.settled == 1
        assert not replay.clean_shutdown
        assert [info["job_id"] for info in replay.unsettled] == ["job-0002"]
        assert replay.unsettled[0]["spec"] == spec
        assert replay.unsettled[0]["state"] == "submitted"

    def test_torn_tail_line_is_skipped_not_poisonous(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("submitted", job_id="job-0001",
                       fingerprint="f", spec=tiny_spec().as_dict())
        with open(journal.path, "a") as handle:
            handle.write('{"version": "' + JOURNAL_VERSION
                         + '", "event": "runn')  # the crash arrived here
        replay = journal.replay()
        assert replay.corrupt_lines == 1
        assert len(replay.unsettled) == 1

    def test_foreign_version_counts_as_corrupt(self, tmp_path):
        journal = JobJournal(tmp_path)
        with open(journal.path, "a") as handle:
            handle.write(json.dumps({"version": "journal-999",
                                     "event": "submitted",
                                     "job_id": "job-0001",
                                     "spec": {}}) + "\n")
        replay = journal.replay()
        assert replay.corrupt_lines == 1
        assert not replay.unsettled

    def test_shutdown_marker_only_counts_when_last(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("shutdown", clean=True)
        assert journal.replay().clean_shutdown
        journal.record("submitted", job_id="job-0001", fingerprint="f",
                       spec=tiny_spec().as_dict())
        replay = journal.replay()
        assert not replay.clean_shutdown
        assert len(replay.unsettled) == 1

    def test_reset_truncates_atomically(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("submitted", job_id="job-0001", fingerprint="f",
                       spec=tiny_spec().as_dict())
        journal.reset()
        replay = journal.replay()
        assert replay.replayed == 0 and not replay.unsettled
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_file_replays_empty(self, tmp_path):
        replay = JobJournal(tmp_path / "fresh").replay()
        assert replay.replayed == 0
        assert not replay.clean_shutdown


# ----------------------------------------------------------------------
# The chaos harness
# ----------------------------------------------------------------------
class TestChaosHarness:
    def test_parse_points(self):
        config = ChaosConfig.parse(
            "kill-shard:1; corrupt:golden ;write-latency:0.5;enospc")
        assert config.args("kill-shard") == ("1",)
        assert config.args("corrupt") == ("golden",)
        assert config.args("write-latency") == ("0.5",)
        assert config.args("enospc") == ()
        assert config.args("not-configured") is None

    def test_claim_fires_once_with_state_dir(self, tmp_path):
        config = ChaosConfig.parse("kill-shard:0",
                                   state_dir=str(tmp_path))
        assert config.claim("kill-shard-0")
        assert not config.claim("kill-shard-0")
        assert config.claim("another-label")

    def test_claim_without_state_dir_fires_every_visit(self):
        config = ChaosConfig.parse("kill-shard:0")
        assert config.claim("x") and config.claim("x")

    def test_enospc_degrades_store_not_computation(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "enospc")
        tier = SharedCacheTier(tmp_path)
        assert not tier.store_defeat_map("fp", "design", [1])
        assert tier.stats.store_failures == 1
        assert tier.load_defeat_map("fp", "design") is None  # plain miss

    def test_enospc_scoped_to_namespace(self, tmp_path, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "enospc:golden")
        tier = SharedCacheTier(tmp_path)
        assert not tier.store_golden("fp", ("k",), "t", "p")
        assert tier.store_defeat_map("fp", "design", [1])

    def test_corrupt_write_is_evicted_on_next_load(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "corrupt:defeat-map")
        tier = SharedCacheTier(tmp_path)
        assert tier.store_defeat_map("fp", "design", list(range(100)))
        assert tier.load_defeat_map("fp", "design") is None
        assert tier.stats.corrupt_evictions == 1
        # The eviction removed the torn file; a re-store (the chaos point
        # fires per-visit without a state dir, so scope it away) works.
        monkeypatch.delenv(chaos.CHAOS_ENV_VAR)
        assert tier.store_defeat_map("fp", "design", [2])
        assert tier.load_defeat_map("fp", "design") == [2]

    def test_corrupt_flow_artifact_is_evicted_and_recomputed(
            self, tmp_path, monkeypatch, tiny_fir_flat, small_device):
        def run():
            return implement(tiny_fir_flat, small_device,
                             anneal_moves_per_slice=2,
                             artifact_store=tier.flow_store)

        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "corrupt:flow")
        tier = SharedCacheTier(tmp_path)
        first = run()
        assert tier.stats.flow_stores == 1
        monkeypatch.delenv(chaos.CHAOS_ENV_VAR)
        recomputed = run()
        assert tier.stats.corrupt_evictions == 1
        assert tier.stats.flow_hits == 0 and tier.stats.flow_misses == 2
        warm = run()
        assert tier.stats.flow_hits == 1
        for again in (recomputed, warm):
            assert bytes(again.bitstream.bits) == bytes(first.bitstream.bits)
            assert again.routing.pip_owner == first.routing.pip_owner
            assert again.placement.slice_tiles == first.placement.slice_tiles

    def test_enospc_flow_degrades_store_not_implement(
            self, tmp_path, monkeypatch, tiny_fir_flat, small_device):
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "enospc:flow")
        tier = SharedCacheTier(tmp_path)
        implementation = implement(tiny_fir_flat, small_device,
                                   anneal_moves_per_slice=2,
                                   artifact_store=tier.flow_store)
        assert implementation.routing.routes
        assert tier.stats.store_failures == 1
        assert tier.stats.flow_stores == 0
        assert tier.total_bytes() == 0

    def test_crash_after_shards_raises_chaoscrash(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "crash-after-shards:2")
        monkeypatch.setenv(chaos.CHAOS_STATE_ENV_VAR, str(tmp_path))
        chaos.on_shard_checkpointed(1)  # below the threshold
        with pytest.raises(ChaosCrash):
            chaos.on_shard_checkpointed(2)
        chaos.on_shard_checkpointed(5)  # fire-once: the marker is claimed


# ----------------------------------------------------------------------
# Tier robustness satellites
# ----------------------------------------------------------------------
class TestTierRobustness:
    def test_orphan_tmp_files_swept_on_startup(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        tier.store_defeat_map("fp", "design", [1])
        orphan = tmp_path / "defeat-map" / ".deadbeef.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"torn write from a killed process")
        reopened = SharedCacheTier(tmp_path)
        assert not orphan.exists()
        assert reopened.stats.orphan_tmp_removed == 1
        assert reopened.load_defeat_map("fp", "design") == [1]

    def test_shard_verdict_round_trip_and_counters(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        assert tier.load_shard_verdicts("campaign-4-2-0") is None
        assert tier.store_shard_verdicts("campaign-4-2-0",
                                         {"start": 0, "stop": 2,
                                          "verdicts": [1, 2]})
        assert tier.load_shard_verdicts("campaign-4-2-0") == {
            "start": 0, "stop": 2, "verdicts": [1, 2]}
        assert tier.stats.shard_misses == 1
        assert tier.stats.shard_hits == 1
        assert tier.stats.shard_stores == 1

    def test_shard_counters_excluded_from_hit_rate(self, tmp_path):
        tier = SharedCacheTier(tmp_path)
        tier.store_golden("fp", ("k",), "t", "p")
        assert tier.load_golden("fp", ("k",)) is not None
        before = tier.stats.hit_rate()
        tier.load_shard_verdicts("missing")  # a structural miss
        assert tier.stats.hit_rate() == before


# ----------------------------------------------------------------------
# Shard checkpoints: store, resume, identity
# ----------------------------------------------------------------------
class TestShardCheckpoints:
    CONFIG = CampaignConfig(num_faults=40, workload_cycles=6, seed=9)

    def test_checkpointed_rerun_is_bit_identical(self, tmp_path,
                                                 tiny_fir_implementation):
        activate_tier(SharedCacheTier(tmp_path))
        backend = ShardedBackend(workers=2, min_tasks=0)
        first = run_campaign(tiny_fir_implementation, self.CONFIG,
                             backend=backend)
        stored = backend.last_run_stats["checkpoint_stores"]
        assert stored == backend.last_run_stats["shards"] >= 2
        assert backend.last_run_stats["checkpoint_hits"] == 0

        clear_cache()  # the restart: only the tier survives
        backend = ShardedBackend(workers=2, min_tasks=0)
        second = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend=backend)
        assert backend.last_run_stats["checkpoint_hits"] == stored
        assert backend.last_run_stats["checkpoint_stores"] == 0
        assert second.wrong_answers == first.wrong_answers
        assert second.effect_table() == first.effect_table()
        assert [dataclasses.asdict(r) for r in second.results] == \
            [dataclasses.asdict(r) for r in first.results]

    def test_checkpoints_respect_campaign_identity(self, tmp_path,
                                                   tiny_fir_implementation):
        activate_tier(SharedCacheTier(tmp_path))
        backend = ShardedBackend(workers=2, min_tasks=0)
        run_campaign(tiny_fir_implementation, self.CONFIG, backend=backend)
        other = ShardedBackend(workers=2, min_tasks=0)
        run_campaign(tiny_fir_implementation,
                     CampaignConfig(num_faults=40, workload_cycles=6,
                                    seed=10),  # different sampling seed
                     backend=other)
        assert other.last_run_stats["checkpoint_hits"] == 0

    def test_inline_path_checkpoints_too(self, tmp_path,
                                         tiny_fir_implementation):
        activate_tier(SharedCacheTier(tmp_path))
        backend = ShardedBackend(workers=2)  # below min_tasks: inline
        first = run_campaign(tiny_fir_implementation, self.CONFIG,
                             backend=backend)
        assert backend.last_run_stats["inline"]
        assert backend.last_run_stats["checkpoint_stores"] == 1
        clear_cache()
        backend = ShardedBackend(workers=2)
        second = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend=backend)
        assert backend.last_run_stats["checkpoint_hits"] == 1
        assert second.effect_table() == first.effect_table()

    def test_no_tier_means_no_checkpointing(self, tiny_fir_implementation):
        backend = ShardedBackend(workers=2, min_tasks=0)
        run_campaign(tiny_fir_implementation, self.CONFIG, backend=backend)
        assert backend.last_run_stats["checkpoint_stores"] == 0
        assert backend.last_run_stats["checkpoint_hits"] == 0


# ----------------------------------------------------------------------
# Seeded worker kill: supervision retries and the campaign survives
# ----------------------------------------------------------------------
class TestSeededWorkerKill:
    def test_killed_worker_is_retried_and_campaign_succeeds(
            self, tmp_path, monkeypatch, tiny_fir_implementation):
        config = CampaignConfig(num_faults=40, workload_cycles=6, seed=9)
        serial = run_campaign(tiny_fir_implementation, config,
                              backend="serial")
        # The worker evaluating shard 1 dies with a SIGKILL-grade
        # os._exit exactly once (the state dir claims the fault point);
        # the respawned pool must finish the campaign bit-identically.
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "kill-shard:1")
        monkeypatch.setenv(chaos.CHAOS_STATE_ENV_VAR,
                           str(tmp_path / "chaos-state"))
        backend = ShardedBackend(workers=2, min_tasks=0,
                                 retry_backoff_s=0.01)
        killed = run_campaign(tiny_fir_implementation, config,
                              backend=backend)
        assert backend.last_run_stats["retries"] >= 1
        assert killed.wrong_answers == serial.wrong_answers
        assert killed.effect_table() == serial.effect_table()


# ----------------------------------------------------------------------
# The headline: crash, restart, resume — byte-identical
# ----------------------------------------------------------------------
class TestCrashRestartResume:
    @pytest.fixture(autouse=True)
    def pinned_shard_schedule(self, monkeypatch):
        # Pin the shard schedule so checkpoint keys and chaos fault
        # points are deterministic across the reference and crash runs.
        monkeypatch.setenv("REPRO_SHARD_MIN_TASKS", "0")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "2")

    def _stable_bytes(self, report) -> bytes:
        return json.dumps(stable_report(report), sort_keys=True).encode()

    def test_resumed_job_byte_identical_to_uninterrupted(
            self, tmp_path, monkeypatch):
        spec = tiny_spec()

        # Reference: an uninterrupted run on its own tier.
        _simulate_restart()
        with CampaignService(tier=tmp_path / "tier-ref") as service:
            reference = service.run(spec, timeout=300)
            assert reference.state == JobState.DONE
        reference_bytes = self._stable_bytes(reference.report)

        # Crash run: the service "dies" (ChaosCrash, which like a real
        # SIGKILL never settles the job) after two shard checkpoints.
        _simulate_restart()
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "crash-after-shards:2")
        monkeypatch.setenv(chaos.CHAOS_STATE_ENV_VAR,
                           str(tmp_path / "chaos-state"))
        crashed = CampaignService(tier=tmp_path / "tier-crash").start()
        job = crashed.submit(spec)
        assert not crashed.wait(timeout=300)  # the job never settled
        assert job.state == JobState.RUNNING  # only the journal knows
        crashed.stop(timeout=1.0)  # incomplete drain: no clean marker

        # Restart on the same tier: recovery replays the journal,
        # resubmits the unsettled job, and the rerun reloads the two
        # checkpointed shards instead of recomputing them.
        monkeypatch.delenv(chaos.CHAOS_ENV_VAR)
        _simulate_restart()
        with CampaignService(tier=tmp_path / "tier-crash") as recovered:
            assert recovered.last_recovery["recovered_jobs"] == 1
            assert not recovered.last_recovery["clean_shutdown"]
            assert recovered.wait(timeout=300)
            jobs = recovered.queue.jobs()
            assert len(jobs) == 1
            resumed = jobs[0]
            assert resumed.recovered
            assert resumed.snapshot()["recovered"]
            assert resumed.state == JobState.DONE
            execution = self._execution_stats(resumed.report)
            assert execution["checkpoint_hits"] >= 2
            assert execution["checkpoint_hits"] + \
                execution["checkpoint_stores"] == execution["shards"]
        assert self._stable_bytes(resumed.report) == reference_bytes

    def _execution_stats(self, report):
        for stage in report["stages"]:
            if stage["name"] == "campaign":
                return stage["summary"]["execution"]["standard"]
        raise AssertionError("no campaign stage in report")

    def test_resume_identity_across_backends(self, tmp_path, monkeypatch):
        """The resumed sharded report agrees with every in-process
        backend once backend provenance is set aside (the aggregate
        bit-identity contract of the engine suite, extended to the
        crash/resume path)."""
        spec = tiny_spec()

        _simulate_restart()
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "crash-after-shards:2")
        monkeypatch.setenv(chaos.CHAOS_STATE_ENV_VAR,
                           str(tmp_path / "chaos-state"))
        crashed = CampaignService(tier=tmp_path / "tier").start()
        crashed.submit(spec)
        assert not crashed.wait(timeout=300)
        crashed.stop(timeout=1.0)
        monkeypatch.delenv(chaos.CHAOS_ENV_VAR)
        _simulate_restart()
        with CampaignService(tier=tmp_path / "tier") as recovered:
            assert recovered.wait(timeout=300)
            resumed = recovered.queue.jobs()[0]
            assert resumed.state == JobState.DONE

        resumed_scrubbed = self._strip_backend(stable_report(resumed.report))
        for backend in ("serial", "vector", "numpy"):
            _simulate_restart()
            direct = run_scenario("table3-fir", scale="tiny", num_faults=30,
                                  designs=("standard",), backend=backend)
            assert self._strip_backend(stable_report(direct)) == \
                resumed_scrubbed, f"backend {backend} disagrees"

    def _strip_backend(self, value):
        if isinstance(value, dict):
            return {key: self._strip_backend(item)
                    for key, item in value.items() if key != "backend"}
        if isinstance(value, list):
            return [self._strip_backend(item) for item in value]
        return value

    def test_clean_shutdown_leaves_nothing_to_recover(self, tmp_path):
        _simulate_restart()
        service = CampaignService(tier=tmp_path / "tier").start()
        job = service.run(tiny_spec(), timeout=300)
        assert job.state == JobState.DONE
        service.stop()
        _simulate_restart()
        with CampaignService(tier=tmp_path / "tier") as reopened:
            assert reopened.last_recovery["clean_shutdown"]
            assert reopened.last_recovery["recovered_jobs"] == 0
            assert not reopened.queue.jobs()

    def test_unparseable_unsettled_spec_is_dropped(self, tmp_path):
        """An unsettled job journaled by an older release, whose spec
        carries a field this release no longer knows (the retired
        campaign prefilter), is counted and dropped: the service still
        starts and queues nothing."""
        JobJournal(tmp_path / "tier" / "journal").record(
            "submitted", job_id="job-0001", fingerprint="f",
            spec={"scenario": "table3-fir", "prefilter": "static"})
        _simulate_restart()
        with CampaignService(tier=tmp_path / "tier") as service:
            assert service.last_recovery["invalid_specs"] == 1
            assert service.last_recovery["recovered_jobs"] == 0
            assert service.queue.jobs() == []


# ----------------------------------------------------------------------
# Deadlines, cancellation, draining
# ----------------------------------------------------------------------
class TestDeadlinesAndCancellation:
    def test_timeout_s_is_delivery_only(self):
        from repro.service import job_fingerprint

        assert job_fingerprint(tiny_spec()) == \
            job_fingerprint(tiny_spec(timeout_s=5.0))
        spec = JobSpec.from_dict(tiny_spec(timeout_s=5.0).as_dict())
        assert spec.timeout_s == 5.0
        assert "timeout_s" not in spec.overrides()

    def test_deadline_cancels_queued_job(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier",
                             max_parallel=1) as service:
            blocker = service.submit(tiny_spec(seed=7))
            doomed = service.submit(tiny_spec(timeout_s=0.01))
            assert doomed.wait(timeout=60)
            assert doomed.state == JobState.CANCELLED
            assert "deadline" in doomed.error
            assert blocker.wait(timeout=300)
            assert blocker.state == JobState.DONE

    def test_cancel_pending_job_settles_immediately(self, tmp_path):
        with CampaignService(tier=tmp_path / "tier",
                             max_parallel=1) as service:
            blocker = service.submit(tiny_spec(seed=7))
            victim = service.submit(tiny_spec())
            service.cancel(victim.id)
            assert victim.wait(timeout=60)
            assert victim.state == JobState.CANCELLED
            assert blocker.wait(timeout=300)

    def test_draining_service_refuses_submissions(self, tmp_path):
        service = CampaignService(tier=tmp_path / "tier").start()
        service.run(tiny_spec(), timeout=300)
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        stopper.join()
        with pytest.raises((ServiceDraining, Exception)):
            service.submit(tiny_spec(seed=99))


# ----------------------------------------------------------------------
# The HTTP operational surface
# ----------------------------------------------------------------------
class TestHttpOperations:
    @pytest.fixture()
    def served(self, tmp_path):
        service = CampaignService(tier=tmp_path / "tier").start()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield service, server, f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_healthz_and_readyz(self, served):
        _service, _server, url = served
        with urllib.request.urlopen(f"{url}/healthz") as response:
            assert response.status == 200
        with urllib.request.urlopen(f"{url}/readyz") as response:
            assert response.status == 200

    def test_draining_returns_503_with_retry_after(self, served):
        _service, server, url = served
        server.draining = True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/readyz")
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"]
        request = urllib.request.Request(
            f"{url}/jobs", data=json.dumps(tiny_spec().as_dict()).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"]
        server.draining = False
        with urllib.request.urlopen(f"{url}/readyz") as response:
            assert response.status == 200

    def test_wait_is_clamped_server_side(self, served):
        _service, _server, url = served
        snapshot = submit_job(url, tiny_spec().as_dict())
        # Negative and absurd waits are clamped, not honored: the
        # request returns promptly with a snapshot either way.
        listing = fetch_job(url, snapshot["id"], wait=-5)
        assert listing["id"] == snapshot["id"]
        assert MAX_WAIT_SECONDS <= 60.0
        final = wait_for_job(url, snapshot["id"], timeout=300)
        assert final["state"] == JobState.DONE

    def test_cancel_endpoint_and_409_report(self, served):
        service, _server, url = served
        blocker = submit_job(url, tiny_spec(seed=7).as_dict())
        victim = submit_job(url, tiny_spec().as_dict())
        request = urllib.request.Request(
            f"{url}/jobs/{victim['id']}/cancel", data=b"{}",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            cancelled = json.loads(response.read())
        assert cancelled["id"] == victim["id"]
        final = wait_for_job(url, victim["id"], timeout=60)
        assert final["state"] == JobState.CANCELLED
        with pytest.raises(RuntimeError, match="409"):
            _request_report(url, victim["id"])
        assert wait_for_job(url, blocker["id"],
                            timeout=300)["state"] == JobState.DONE

    def test_recovered_flag_in_snapshot(self, served):
        _service, _server, url = served
        snapshot = submit_job(url, tiny_spec().as_dict())
        assert snapshot["recovered"] is False


def _request_report(url: str, job_id: str):
    from repro.service.httpd import fetch_report

    return fetch_report(url, job_id)


# ----------------------------------------------------------------------
# The chaos scenario
# ----------------------------------------------------------------------
class TestChaosScenario:
    def test_registered_with_sharded_backend(self):
        scenario = scenario_by_name("chaos-fir")
        assert scenario.backend == "sharded"
        assert scenario.scale == "tiny"
        assert set(scenario.designs) == {"standard", "TMR_p2"}
