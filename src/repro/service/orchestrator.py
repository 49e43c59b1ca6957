"""The campaign orchestrator: an asyncio job runner over the cache tier.

:class:`CampaignService` owns

* a :class:`~repro.service.jobs.JobQueue` (submissions, coalescing),
* an asyncio event loop on a daemon thread (so the service embeds in any
  host — the CLI's HTTP server, a test, a notebook — without requiring
  the host to be async),
* a semaphore bounding how many campaigns execute concurrently, each on
  its own worker thread via :func:`asyncio.to_thread`,
* the process-wide :class:`~repro.service.tier.SharedCacheTier`, which
  it activates so golden traces and defeat maps persist across jobs and
  across service restarts (the flow store rides inside the same tier).

Campaign *compute* does not run on the loop: a job is one synchronous
:func:`repro.scenarios.run_scenario` call on a worker thread, optionally
sharded across worker *processes* by the engine's ``sharded`` backend.
The loop only sequences jobs, which keeps submission and status queries
responsive while campaigns crunch.

Failure surfacing: any exception escaping a job — including
:class:`~repro.faults.engine.CampaignWorkerError` from a killed sharded
worker — marks the job ``failed`` with the formatted cause; it never
hangs the queue or the loop.

Crash safety (PR 8): when the service has a cache tier, every job
lifecycle event is journaled to an append-only WAL under the tier root
*before* the state change is acted on (see :mod:`repro.service.journal`).
On start the journal is replayed and jobs that never settled — the
previous incarnation crashed mid-campaign — are resubmitted; their shard
checkpoints (stored by the ``sharded`` backend under the same tier) make
the rerun recompute only the missing shards while producing a
byte-identical stable report.  ``stop()`` drains in-flight jobs and
writes a clean ``shutdown`` marker so the next start knows it is not
recovering from a crash.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

from ..scenarios import run_scenario, validate_scenario
from .chaos import ChaosCrash
from .jobs import Job, JobQueue, JobSpec, JobState
from .journal import JobJournal
from .tier import SharedCacheTier, TierLike, activate_tier, resolve_tier

#: Default cap on concurrently executing jobs.  Two keeps a long campaign
#: from starving short ones while bounding memory (each running job holds
#: its pipeline context).
DEFAULT_MAX_PARALLEL = 2


class ServiceError(RuntimeError):
    """The service was used in an invalid state (not started, stopped)."""


class ServiceDraining(ServiceError):
    """The service is shutting down and no longer accepts submissions."""


class _JobInterrupted(Exception):
    """Raised inside a worker's progress callback to tear the job down.

    Cancellation is cooperative: the campaign engine ticks progress
    every shard/interval, the monitor checks the job's cancel event and
    deadline at each tick, and this exception unwinds the pipeline.
    """


class CampaignService:
    """Accepts :class:`JobSpec` submissions and runs them to reports.

    Parameters
    ----------
    tier:
        The shared warm-cache tier (a :class:`SharedCacheTier`, a
        directory path, or ``None`` to run without persistence).  The
        service activates it process-wide so every cache layer reads
        through it.
    max_parallel:
        Concurrently executing jobs (queue depth is unbounded).
    default_backend:
        Applied to submissions that do not pin a backend — the service
        default is the engine's ``sharded`` backend.  Normalization
        happens at submission time, so the job's fingerprint, its report
        provenance and a direct ``run_scenario`` call all agree.
    """

    def __init__(self, *, tier: TierLike = None,
                 max_parallel: int = DEFAULT_MAX_PARALLEL,
                 default_backend: Optional[str] = "sharded") -> None:
        if max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
        self.queue = JobQueue()
        self.tier: Optional[SharedCacheTier] = resolve_tier(tier)
        self.max_parallel = max_parallel
        self.default_backend = default_backend
        self.journal: Optional[JobJournal] = None
        #: outcome of the last startup recovery (see :meth:`_recover`)
        self.last_recovery: Dict[str, object] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._futures: List["asyncio.Future"] = []
        self._draining = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CampaignService":
        with self._lock:
            if self._loop is not None:
                return self
            activate_tier(self.tier)
            if self.tier is not None:
                self.journal = JobJournal(self.tier.root / "journal")
            self._draining = False
            self._loop = asyncio.new_event_loop()
            # The semaphore must be created on the service loop.
            self._semaphore = asyncio.Semaphore(self.max_parallel)
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name="repro-campaign-service", daemon=True)
            self._thread.start()
        # Outside the lock: recovery resubmits through the normal path,
        # which needs the loop (started above) and takes the lock itself.
        self._recover()
        return self

    def _recover(self) -> None:
        """Replay the journal and resubmit jobs that never settled.

        The previous incarnation crashed (or was SIGKILLed) with these
        jobs queued or running; their shard checkpoints are still in the
        tier, so the resubmitted runs recompute only what is missing.
        The journal is compacted before resubmission — the recovered
        jobs are re-journaled as fresh submissions with a
        ``recovered_from`` pointer to their old id.
        """
        if self.journal is None:
            return
        replay = self.journal.replay()
        # Accumulate locally and publish with one assignment at the end:
        # incrementing through self.last_recovery would be an unlocked
        # read-modify-write racing any stats() reader (lint C201).
        recovery: Dict[str, object] = {
            "recovered_jobs": 0,
            "clean_shutdown": replay.clean_shutdown,
            "replayed": replay.replayed,
            "settled": replay.settled,
            "corrupt_lines": replay.corrupt_lines,
            "invalid_specs": 0,
        }
        if replay.replayed or replay.corrupt_lines:
            self.journal.reset()
        for info in replay.unsettled:
            try:
                spec = JobSpec.from_dict(dict(info["spec"]))
                job, coalesced = self.submit_detailed(
                    spec, recovered_from=str(info["job_id"]))
            except (ValueError, KeyError, TypeError):
                # A spec this incarnation cannot parse (foreign field,
                # retired scenario) is dropped, not fatal: recovery must
                # never prevent the service from starting.
                recovery["invalid_specs"] += 1
                continue
            if not coalesced:
                job.recovered = True
                recovery["recovered_jobs"] += 1
        self.last_recovery = recovery

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain running jobs, journal a clean shutdown, stop the loop.

        New submissions are refused (``ServiceDraining``) the moment stop
        begins.  The clean ``shutdown`` marker is only written when every
        job actually settled within *timeout* — an incomplete drain must
        look like a crash to the next start so it recovers the stragglers.
        """
        with self._lock:
            self._draining = True
            loop, thread = self._loop, self._thread
        if loop is None:
            return
        drained = self.wait(timeout=timeout)
        with self._lock:
            if self._loop is not loop:
                return  # a concurrent stop() won the race and finished
            self._loop = self._thread = self._semaphore = None
        if drained and self.journal is not None:
            self.journal.record("shutdown", clean=True)
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        loop.close()

    @property
    def draining(self) -> bool:
        """Whether the service is refusing new work pending shutdown."""
        with self._lock:
            return self._draining

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Queue *spec*; returns immediately with the (possibly shared) job.

        Identical in-flight submissions coalesce: the returned job may
        already be computing on behalf of an earlier submitter, and both
        observe the single result.
        """
        return self.submit_detailed(spec)[0]

    def submit_detailed(self, spec: JobSpec,
                        recovered_from: Optional[str] = None
                        ) -> Tuple[Job, bool]:
        """:meth:`submit`, also reporting whether *this* call coalesced.

        The flag comes straight from the queue's atomic submit — callers
        (the HTTP handler) must not infer it from shared counters, which
        race under concurrent submissions.  A spec whose scenario,
        backend, upset model, scale or fault-list mode cannot run
        raises :class:`KeyError`/:class:`ValueError` here, before it
        is queued or journaled.
        """
        with self._lock:
            loop = self._loop
            draining = self._draining
        if loop is None:
            raise ServiceError("service is not running; call start() first")
        if draining:
            raise ServiceDraining("service is draining; resubmit after "
                                  "restart")
        if spec.backend is None and self.default_backend is not None:
            spec = dataclasses.replace(spec, backend=self.default_backend)
        validate_scenario(spec.resolve())
        job, created = self.queue.submit(spec)
        if created:
            # WAL discipline: the submission is durable *before* the
            # compute is scheduled, so a crash between here and settle
            # leaves a replayable record.
            if self.journal is not None:
                fields: Dict[str, object] = {
                    "job_id": job.id, "fingerprint": job.fingerprint,
                    "spec": job.spec.as_dict()}
                if recovered_from is not None:
                    fields["recovered_from"] = recovered_from
                self.journal.record("submitted", **fields)
            future = asyncio.run_coroutine_threadsafe(
                self._run_job(job), loop)
            with self._lock:
                self._futures.append(future)
        return job, not created

    def run(self, spec: JobSpec,
            timeout: Optional[float] = None) -> Job:
        """Submit and block until the job settles (convenience)."""
        job = self.submit(spec)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job.id} did not settle in {timeout}s")
        return job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        semaphore = self._semaphore
        assert semaphore is not None
        remaining = job.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self._settle_cancelled(job, "deadline exceeded before start")
            return
        try:
            await asyncio.wait_for(semaphore.acquire(), timeout=remaining)
        except asyncio.TimeoutError:
            self._settle_cancelled(job, "deadline exceeded while queued")
            return
        try:
            await asyncio.to_thread(self._execute, job)
        finally:
            semaphore.release()

    def _settle_cancelled(self, job: Job, reason: str) -> None:
        self.queue.cancel(job, reason)
        if self.journal is not None:
            self.journal.record("cancelled", job_id=job.id, reason=reason)

    def _execute(self, job: Job) -> None:
        if job.done_event.is_set():
            # Cancelled while waiting on the semaphore (client ask) —
            # nothing to run.
            return
        self.queue.mark_running(job)
        if self.journal is not None:
            self.journal.record("running", job_id=job.id)

        def monitor(design: str, done: int, total: int) -> None:
            job.progress[design] = {"done": done, "total": total}
            # Cooperative teardown: cancellation and deadlines are
            # observed at progress ticks (every shard / backend
            # interval), the natural safe points of a campaign.
            if job.cancel_event.is_set():
                raise _JobInterrupted("cancelled")
            remaining = job.deadline_remaining()
            if remaining is not None and remaining <= 0:
                raise _JobInterrupted("deadline exceeded")

        try:
            report = run_scenario(
                job.spec.scenario,
                flow_cache=self.tier.flow_store if self.tier else None,
                progress_callback=monitor,
                **job.spec.overrides())
        except ChaosCrash:
            # The chaos harness simulating a hard service crash: like a
            # real SIGKILL the job must never settle — only the journal
            # knows about it, and the next start recovers it.
            raise
        except _JobInterrupted as exc:
            self._settle_cancelled(job, str(exc))
        except Exception as exc:
            tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.queue.fail(job, tail)
            if self.journal is not None:
                self.journal.record("failed", job_id=job.id, error=tail)
        else:
            self.queue.finish(job, report)
            if self.journal is not None:
                self.journal.record("done", job_id=job.id)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str, reason: str = "cancelled by client"
               ) -> Job:
        """Cancel a job; settles immediately when it has not started.

        A *running* job only gets its cancel event set here — the worker
        observes it at the next progress tick and settles the job itself
        (cooperative teardown).  Raises :class:`KeyError` for unknown ids.
        """
        job = self.queue.get(job_id)
        if job.state == JobState.PENDING:
            self._settle_cancelled(job, reason)
        elif job.state == JobState.RUNNING:
            job.cancel_event.set()
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job has settled."""
        with self._lock:
            futures = list(self._futures)
        deadline: Optional[float] = None
        if timeout is not None:
            deadline = time.monotonic() + timeout
        for future in futures:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                future.result(timeout=remaining)
            except Exception:
                # Job failures are recorded on the job itself.
                pass
        return all(job.done_event.is_set() for job in self.queue.jobs())

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {"queue": self.queue.stats(),
                                  "max_parallel": self.max_parallel,
                                  "default_backend": self.default_backend,
                                  "draining": self.draining}
        if self.last_recovery:
            out["recovery"] = dict(self.last_recovery)
        if self.tier is not None:
            out["tier"] = self.tier.summary()
        return out
