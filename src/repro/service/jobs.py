"""Job queue for the campaign service: submissions, states, coalescing.

A *job* is one scenario run — a :class:`JobSpec` naming a registered
scenario plus the same keyword overrides :func:`repro.scenarios.run_scenario`
accepts.  The queue assigns ids, tracks lifecycle state
(``pending → running → done | failed``), and **coalesces** concurrent
identical submissions: the spec is resolved against the scenario's
defaults into a content fingerprint, and while a job for that
fingerprint is in flight any further submission joins it instead of
spawning a second compute.  All joiners observe the one result — the
acceptance criterion is one compute, N bit-identical reports.

Coalescing is in-flight only.  A *finished* job does not absorb new
submissions (a client may legitimately want a fresh run, e.g. after
changing code); re-running a warm spec is cheap anyway because the
shared cache tier hands back the expensive artefacts.

Everything is thread-safe under one lock; the queue itself never runs
jobs — that is the orchestrator's business.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..scenarios import Scenario, resolve_scenario


class JobState:
    """Lifecycle states of a job (plain strings: JSON-friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: states in which a job can still absorb identical submissions
    IN_FLIGHT = (PENDING, RUNNING)
    ALL = (PENDING, RUNNING, DONE, FAILED, CANCELLED)


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One campaign submission: a scenario plus optional overrides.

    ``None`` means "the scenario's default"; the fingerprint is computed
    from the *resolved* values, so ``JobSpec("table3-fir")`` and
    ``JobSpec("table3-fir", scale="fast")`` coalesce when ``fast`` is
    already the scenario's default scale.
    """

    scenario: str
    scale: Optional[str] = None
    backend: Optional[str] = None
    upset_model: Optional[str] = None
    num_faults: Optional[int] = None
    seed: Optional[int] = None
    fault_list_mode: Optional[str] = None
    designs: Optional[Tuple[str, ...]] = None
    #: wall-clock budget for the whole job (queue wait included); ``None``
    #: means unbounded.  A *delivery* knob, not a compute knob: it is
    #: excluded from the fingerprint, so coalesced joiners share the
    #: first submission's deadline.
    timeout_s: Optional[float] = None

    #: fields that shape *how* the job is delivered rather than *what* it
    #: computes — excluded from overrides(), resolve() and the fingerprint
    DELIVERY_FIELDS = ("timeout_s",)

    def __post_init__(self) -> None:
        if self.designs is not None and not isinstance(self.designs, tuple):
            object.__setattr__(self, "designs", tuple(self.designs))
        timeout = self.timeout_s
        if timeout is not None and (
                isinstance(timeout, bool)
                or not isinstance(timeout, (int, float))
                or not math.isfinite(timeout) or timeout <= 0):
            raise ValueError(f"timeout_s must be a finite number of "
                             f"seconds > 0, not {timeout!r}")

    # ------------------------------------------------------------------
    def overrides(self) -> Dict[str, object]:
        """The non-default fields, as ``run_scenario`` keyword arguments."""
        out: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            if field.name == "scenario" or field.name in self.DELIVERY_FIELDS:
                continue
            value = getattr(self, field.name)
            if value is not None:
                out[field.name] = value
        return out

    def resolve(self) -> Scenario:
        """The concrete scenario this spec runs (defaults applied).

        Raises :class:`KeyError` for an unknown scenario name — callers
        surface that at submission time, not inside a worker.
        """
        return resolve_scenario(self.scenario, **self.overrides())

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"scenario": self.scenario}
        for key, value in self.overrides().items():
            out[key] = list(value) if isinstance(value, tuple) else value
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown job spec fields: {', '.join(unknown)}")
        if "scenario" not in data:
            raise ValueError("job spec needs a 'scenario' field")
        kwargs = dict(data)
        designs = kwargs.get("designs")
        if designs is not None:
            # tuple("standard") would split a bare name into letters
            if not isinstance(designs, (list, tuple)):
                raise ValueError(f"designs must be a list of design "
                                 f"names, not {designs!r}")
            kwargs["designs"] = tuple(designs)
        return cls(**kwargs)


def job_fingerprint(spec: JobSpec) -> str:
    """Content fingerprint of the work *spec* resolves to.

    Two specs with the same fingerprint run the exact same pipeline over
    the exact same inputs and produce bit-identical stable reports, so
    the queue may serve both from one compute.  The digest covers every
    field of the resolved scenario (axes included).
    """
    resolved = dataclasses.asdict(spec.resolve())
    material = repr(sorted(resolved.items()))
    return hashlib.sha1(material.encode()).hexdigest()


@dataclasses.dataclass
class Job:
    """One queued campaign and everything observers may poll."""

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = JobState.PENDING
    #: total submissions served by this job (1 + coalesced joiners)
    submissions: int = 1
    report: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: live progress from the pipeline: {"done": int, "total": int, ...}
    progress: Dict[str, object] = dataclasses.field(default_factory=dict)
    submitted_at: float = dataclasses.field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: resubmitted from the journal after a restart (provenance only)
    recovered: bool = False
    #: absolute ``time.monotonic()`` deadline derived from the spec's
    #: ``timeout_s`` at submission; ``None`` means unbounded
    deadline: Optional[float] = None
    done_event: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False)
    #: set by :meth:`JobQueue.cancel` / the orchestrator's deadline watch;
    #: the running worker polls it and tears down cooperatively
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job settles (done, failed or cancelled)."""
        return self.done_event.wait(timeout)

    def deadline_remaining(self) -> Optional[float]:
        """Seconds left before the deadline, or ``None`` when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def elapsed(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return (self.finished_at or time.time()) - self.started_at

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe status view (report served separately)."""
        return {
            "id": self.id,
            "spec": self.spec.as_dict(),
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submissions": self.submissions,
            "progress": dict(self.progress),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": self.elapsed(),
            "error": self.error,
            "recovered": self.recovered,
        }


class JobQueue:
    """Thread-safe job registry with in-flight request coalescing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._in_flight: Dict[str, str] = {}  # fingerprint -> job id
        self._counter = itertools.count(1)
        self.coalesced = 0  # joiners served without a compute

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Register *spec*; returns ``(job, created)``.

        ``created`` is False when the submission coalesced onto an
        in-flight job with the same fingerprint — the caller must only
        schedule execution when it is True.
        """
        fingerprint = job_fingerprint(spec)  # raises on unknown scenario
        with self._lock:
            existing_id = self._in_flight.get(fingerprint)
            if existing_id is not None:
                job = self._jobs[existing_id]
                if job.state in JobState.IN_FLIGHT:
                    job.submissions += 1
                    self.coalesced += 1
                    return job, False
            job = Job(id=f"job-{next(self._counter):04d}", spec=spec,
                      fingerprint=fingerprint)
            if spec.timeout_s is not None:
                job.deadline = time.monotonic() + spec.timeout_s
            self._jobs[job.id] = job
            self._in_flight[fingerprint] = job.id
            return job, True

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.state = JobState.RUNNING
            job.started_at = time.time()

    def finish(self, job: Job, report: Dict[str, object]) -> None:
        self._settle(job, JobState.DONE, report=report)

    def fail(self, job: Job, error: str) -> None:
        self._settle(job, JobState.FAILED, error=error)

    def cancel(self, job: Job, reason: str) -> None:
        """Settle *job* as cancelled (deadline exceeded or client ask).

        Also sets the job's ``cancel_event`` so a running worker tears
        down at its next progress tick instead of computing to the end.
        """
        job.cancel_event.set()
        self._settle(job, JobState.CANCELLED, error=reason)

    def _settle(self, job: Job, state: str, *,
                report: Optional[Dict[str, object]] = None,
                error: Optional[str] = None) -> None:
        with self._lock:
            if job.state not in JobState.IN_FLIGHT:
                # Already settled — a late deadline/cancel must not
                # clobber a delivered report (or vice versa).
                return
            job.state = state
            job.report = report
            job.error = error
            job.finished_at = time.time()
            if self._in_flight.get(job.fingerprint) == job.id:
                del self._in_flight[job.fingerprint]
        job.done_event.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            by_state = {state: 0 for state in JobState.ALL}
            submissions = 0
            for job in self._jobs.values():
                by_state[job.state] += 1
                submissions += job.submissions
            return {
                "jobs": len(self._jobs),
                "submissions": submissions,
                "coalesced": self.coalesced,
                "by_state": by_state,
            }
