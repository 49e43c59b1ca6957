"""Deterministic chaos harness: seeded fault-point injection for the service.

The campaign service claims to be crash-safe (journaled jobs, shard
checkpoints, worker supervision).  This module makes those claims
testable by injecting failures at *named, deterministic fault points*
instead of relying on luck:

=====================  ==================================================
Point spec             Effect
=====================  ==================================================
``kill-shard:K``       the worker process evaluating shard ``K`` calls
                       ``os._exit(137)`` — a SIGKILL-grade death the
                       sharded backend's supervision must absorb
``crash-after-shards:K``  raise :class:`ChaosCrash` in the *parent* once
                       ``K`` shard checkpoints have been stored this
                       run — simulates the whole service dying
                       mid-campaign without settling the job
``write-latency:S``    sleep ``S`` seconds before every tier write
``enospc[:NS]``        tier writes (to namespace ``NS``, or all) raise
                       ``OSError(ENOSPC)`` — the store must degrade to
                       "not persisted", never fail the computation
``corrupt[:NS]``       truncate the entry just written to namespace
                       ``NS`` (a torn write) — the next reader must
                       evict it as corrupt and recompute
=====================  ==================================================

Activation is ambient so fault points reach worker *processes* without
threading knobs through every layer: set ``REPRO_CHAOS`` to a
``;``-separated list of point specs.  Determinism comes from the specs
themselves — every point fires at an exact shard index / store count,
never probabilistically, so a chaos run is as reproducible as the
campaign it perturbs.

Fire-once semantics: when ``REPRO_CHAOS_STATE`` names a directory, each
event-like point (kill, crash, corrupt) fires exactly once per state
directory — the claim is an atomic ``O_CREAT | O_EXCL`` marker-file
create, which is race-free across worker processes.  Without a state
directory those points fire on *every* visit, which is the way to drive
a shard into retry exhaustion and backend degradation.  ``enospc`` and
``write-latency`` model persistent conditions and always apply.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import time
from typing import Dict, Optional, Tuple

#: Point specs, e.g. ``kill-shard:1;corrupt:golden;write-latency:0.01``.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Directory holding fire-once markers; unset means "fire every visit".
CHAOS_STATE_ENV_VAR = "REPRO_CHAOS_STATE"

#: Exit status of a chaos-killed worker (the SIGKILL convention).
KILLED_WORKER_STATUS = 137


class ChaosCrash(Exception):
    """A simulated hard crash of the service process.

    Deliberately escapes the orchestrator's job-failure handling: a real
    SIGKILL never gets to mark its job failed, so neither does this —
    the job stays unsettled and only the journal knows about it.
    """


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One parsed ``REPRO_CHAOS`` value."""

    raw: str
    #: point kind -> argument strings (empty tuple for bare points)
    points: Dict[str, Tuple[str, ...]]
    state_dir: Optional[str] = None

    @classmethod
    def parse(cls, raw: str,
              state_dir: Optional[str] = None) -> "ChaosConfig":
        points: Dict[str, Tuple[str, ...]] = {}
        for item in raw.split(";"):
            item = item.strip()
            if not item:
                continue
            kind, _, argument = item.partition(":")
            points[kind.strip()] = tuple(
                part.strip() for part in argument.split(":")) \
                if argument else ()
        return cls(raw=raw, points=points, state_dir=state_dir)

    # ------------------------------------------------------------------
    def args(self, kind: str) -> Optional[Tuple[str, ...]]:
        """The point's arguments, or ``None`` when it is not configured."""
        return self.points.get(kind)

    def claim(self, label: str) -> bool:
        """Whether this visit of a fire-once point should fire.

        With a state directory the claim is an exclusive marker-file
        create — atomic across processes, so exactly one visitor wins.
        Without one every visit fires.
        """
        if self.state_dir is None:
            return True
        try:
            os.makedirs(self.state_dir, exist_ok=True)
            fd = os.open(os.path.join(self.state_dir, f"{label}.fired"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # An unusable state dir must not turn chaos into a hang;
            # degrade to fire-every-visit.
            return True
        os.close(fd)
        return True


def active_chaos() -> Optional[ChaosConfig]:
    """The chaos configuration of this process, or ``None``.

    Read from the environment on every call (cheap: one getenv plus a
    memoized parse) so forked worker processes — which inherit the
    environment — see the same fault points as the parent.
    """
    global _CACHED
    raw = os.environ.get(CHAOS_ENV_VAR)
    if not raw:
        return None
    state_dir = os.environ.get(CHAOS_STATE_ENV_VAR) or None
    cached = _CACHED
    if cached is not None and cached.raw == raw \
            and cached.state_dir == state_dir:
        return cached
    _CACHED = ChaosConfig.parse(raw, state_dir)
    return _CACHED


_CACHED: Optional[ChaosConfig] = None


# ----------------------------------------------------------------------
# Fault-point hooks (called from the tier and the sharded backend)
# ----------------------------------------------------------------------
def on_shard_start(shard_index: int) -> None:
    """Worker-side hook: die hard when this shard is the seeded target."""
    config = active_chaos()
    if config is None:
        return
    args = config.args("kill-shard")
    if args and args[0].isdigit() and int(args[0]) == shard_index \
            and config.claim(f"kill-shard-{shard_index}"):
        os._exit(KILLED_WORKER_STATUS)


def on_shard_checkpointed(stored_this_run: int) -> None:
    """Parent-side hook: simulate the service dying after ``K`` stores."""
    config = active_chaos()
    if config is None:
        return
    args = config.args("crash-after-shards")
    if args and args[0].isdigit() and stored_this_run >= int(args[0]) \
            and config.claim("crash-after-shards"):
        raise ChaosCrash(
            f"chaos: simulated service crash after {stored_this_run} "
            "shard checkpoints")


def _namespace_matches(args: Tuple[str, ...], namespace: str) -> bool:
    return not args or not args[0] or args[0] == namespace


def before_tier_write(namespace: str) -> None:
    """Pre-write hook: inject latency and/or a disk-full failure."""
    config = active_chaos()
    if config is None:
        return
    latency = config.args("write-latency")
    if latency and latency[0]:
        try:
            time.sleep(float(latency[0]))
        except ValueError:
            pass
    enospc = config.args("enospc")
    if enospc is not None and _namespace_matches(enospc, namespace):
        raise OSError(errno.ENOSPC,
                      f"chaos: simulated disk-full writing {namespace!r}")


def after_tier_write(namespace: str, path: "os.PathLike[str]") -> None:
    """Post-write hook: tear the entry that was just persisted."""
    config = active_chaos()
    if config is None:
        return
    corrupt = config.args("corrupt")
    if corrupt is None or not _namespace_matches(corrupt, namespace):
        return
    if not config.claim(f"corrupt-{namespace}"):
        return
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
    except OSError:
        pass
