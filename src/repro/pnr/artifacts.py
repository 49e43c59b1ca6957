"""Persistent, content-addressed store of every pickled artifact.

The paper's experiments re-implement the same five filter versions for
every table, ablation, scale and floorplan variant; place-and-route is a
pure function of (flat netlist, device, floorplan, flow parameters, tool
version), so its result can live on disk and be reused by every later run
of any scenario.  The campaign service's cache tier
(:mod:`repro.service.tier`) keeps golden traces, defeat maps, fault lists
and shard checkpoints in the same store.

* :func:`flow_fingerprint` canonically serializes the flow's inputs into
  a SHA-256 key.  The netlist part iterates ports/instances/pins in
  sorted order, so the key is stable across processes, hash seeds and
  rebuilds of the same design.  ``TOOL_VERSION`` is hashed in, so an
  artifact of an older flow is never looked up again.
* :class:`PersistentStore` maps a ``(namespace, key)`` pair to a pickled
  payload under ``<root>/<namespace>/<key[:2]>/<key>.pkl``.  Writes are
  atomic (temp file + ``os.replace``); corrupted, foreign or
  version-stale entries are evicted and treated as misses, so an
  interrupted run can never poison later ones; and every write is
  followed by least-recently-used eviction down to a byte budget.
* :class:`FlowArtifactStore` is the ``flow`` namespace's format adapter.
  The netlist graph itself is *not* pickled (it is deeply recursive and
  the caller necessarily holds an equivalent definition — it hashed into
  the key); the design is detached before writing and re-attached on
  load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, \
    Union

from ..fpga.device import Device
from ..netlist.ir import Definition
from .place import Floorplan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .flow import Implementation

#: Bump on any change that alters flow outputs (router costs, placement
#: schedule, bit accounting): it is hashed into every flow fingerprint,
#: so old artifacts then miss instead of resurrecting stale results.
TOOL_VERSION = "flow-1"

#: Bump when the envelope or a persisted payload's layout changes; old
#: entries then miss instead of resurrecting incompatible pickles.
TIER_VERSION = "tier-1"

#: Default eviction budget: generous for laptops, bounded for CI caches.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Namespace (subdirectory) of the place-and-route implementations.
FLOW_NAMESPACE = "flow"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclasses.dataclass
class TierStats:
    """Hit/miss/store counters of one :class:`PersistentStore`."""

    golden_hits: int = 0
    golden_misses: int = 0
    golden_stores: int = 0
    defeat_map_hits: int = 0
    defeat_map_misses: int = 0
    defeat_map_stores: int = 0
    fault_list_hits: int = 0
    fault_list_misses: int = 0
    fault_list_stores: int = 0
    flow_hits: int = 0
    flow_misses: int = 0
    flow_stores: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    shard_stores: int = 0
    corrupt_evictions: int = 0
    lru_evictions: int = 0
    bytes_evicted: int = 0
    store_failures: int = 0
    orphan_tmp_removed: int = 0

    def __post_init__(self) -> None:
        # Counters are bumped from concurrent service jobs; a bare
        # ``+= 1`` is a read-modify-write that loses updates under
        # threads.  The lock is a plain attribute (not a field), so
        # ``dataclasses.asdict`` never tries to copy it.
        self.lock = threading.Lock()

    def bump(self, counter: str, amount: int = 1) -> None:
        with self.lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def as_dict(self) -> Dict[str, int]:
        with self.lock:
            return dataclasses.asdict(self)

    def hit_rate(self) -> float:
        """Aggregate campaign-artefact hit rate.

        Flow counters are left out because the implement stage reports
        them itself.  Shard-checkpoint counters are deliberately excluded:
        checkpoints only hit when a campaign *resumes* after a crash, so
        counting their routine cold misses would dilute the warm-cache
        rate the service benchmarks gate on.
        """
        hits = self.golden_hits + self.defeat_map_hits \
            + self.fault_list_hits
        total = hits + self.golden_misses + self.defeat_map_misses \
            + self.fault_list_misses
        return hits / total if total else 0.0


class PersistentStore:
    """Namespaced on-disk pickle store with an LRU byte budget.

    Payloads travel inside a ``{"version", "namespace", "key", "payload"}``
    envelope; version or key mismatches (a foreign or renamed file) and
    unpicklable garbage are evicted and treated as misses, so an
    interrupted writer can never poison later readers.  Writes are atomic
    (temp file in the target directory + ``os.replace``), and each one is
    followed by eviction of the least-recently-*used* entries (reads
    refresh mtimes) until every ``.pkl`` under the root fits ``max_bytes``.
    Entries are content-addressed, so deletion is always safe: a later
    reader simply recomputes.
    """

    def __init__(self, root: Union[str, Path],
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stats = TierStats()
        #: serializes eviction scans (reads/writes need no lock: atomic
        #: replace + corrupt-entry eviction already tolerate races)
        self._evict_lock = threading.Lock()
        self._sweep_orphan_tmp()

    def _sweep_orphan_tmp(self) -> int:
        """Remove ``*.tmp`` files left behind by crashed writers.

        Atomic stores stage through a temp file and ``os.replace``; a
        writer killed between the two leaves the temp file orphaned
        forever (it is never read — only ``.pkl`` entries are).  Startup
        is the safe moment to sweep them: a *live* concurrent writer's
        temp file exists only for the milliseconds between create and
        replace, and losing that race merely costs the writer one
        ``store_failures``-counted retry-less store — never the
        computation, never a corrupt entry.
        """
        removed = 0
        for path in sorted(self.root.glob("**/*.tmp")):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            self.stats.bump("orphan_tmp_removed", removed)
        return removed

    def path_of(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.pkl"

    def load(self, namespace: str, key: str) -> Optional[object]:
        path = self.path_of(namespace, key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._evict(path)
            return None
        if not isinstance(envelope, dict) \
                or envelope.get("version") != TIER_VERSION \
                or envelope.get("namespace") != namespace \
                or envelope.get("key") != key:
            self._evict(path)
            return None
        try:
            # Refresh recency so LRU eviction spares warm entries.
            os.utime(path)
        except OSError:
            pass
        return envelope["payload"]

    def store(self, namespace: str, key: str, payload: object) -> bool:
        # Imported at call time: the ``repro.service`` package imports
        # the pipeline, which imports this module.
        from ..service import chaos

        path = self.path_of(namespace, key)
        envelope = {
            "version": TIER_VERSION,
            "namespace": namespace,
            "key": key,
            "payload": payload,
        }
        try:
            chaos.before_tier_write(namespace)
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp",
                delete=False)
            try:
                with handle:
                    pickle.dump(envelope, handle, protocol=_PICKLE_PROTOCOL)
                os.replace(handle.name, path)
            except BaseException:
                os.unlink(handle.name)
                raise
        except Exception:
            # A read-only or full disk must never fail the computation
            # the artefact came from; it is merely not persisted.
            self.stats.bump("store_failures")
            return False
        chaos.after_tier_write(namespace, path)
        self.enforce_budget()
        return True

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
            self.stats.bump("corrupt_evictions")
        except OSError:
            pass

    def _entries(self) -> Iterable[Tuple[Path, os.stat_result]]:
        for path in self.root.glob("**/*.pkl"):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def total_bytes(self) -> int:
        return sum(stat.st_size for _path, stat in self._entries())

    def enforce_budget(self) -> int:
        """Evict least-recently-used entries down to ``max_bytes``.

        Returns the number of evicted files.
        """
        with self._evict_lock:
            entries: List[Tuple[float, int, Path]] = [
                (stat.st_mtime, stat.st_size, path)
                for path, stat in self._entries()]
            total = sum(size for _mtime, size, _path in entries)
            if total <= self.max_bytes:
                return 0
            evicted = 0
            for _mtime, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
                self.stats.bump("lru_evictions")
                self.stats.bump("bytes_evicted", size)
            return evicted


def netlist_fingerprint(definition: Definition) -> str:
    """Canonical content hash of a flat netlist.

    Hashes the interface (ports), every instance's cell type, properties
    and pin connections, and the top-level port connections — all in
    sorted order, so two independently built but structurally identical
    definitions (e.g. ``build_design_suite`` run in another process)
    produce the same digest.
    """
    digest = hashlib.sha256()
    update = digest.update
    update(definition.name.encode())
    for port_name in sorted(definition.ports):
        port = definition.ports[port_name]
        update(f"|port:{port_name}:{port.direction.value}"
               f":{port.width}".encode())
        for bit in port.bits():
            net = None
            pin = definition._top_pins.get((port_name, bit))
            if pin is not None and pin.net is not None:
                net = pin.net.name
            update(f"|top:{bit}:{net}".encode())
    for instance_name in sorted(definition.instances):
        instance = definition.instances[instance_name]
        update(f"|inst:{instance_name}:{instance.reference.name}".encode())
        for key in sorted(instance.properties):
            update(f"|prop:{key}:{instance.properties[key]!r}".encode())
        connections = sorted(
            (port_name, index, pin.net.name)
            for (port_name, index), pin in instance._pins.items()
            if pin.net is not None)
        for port_name, index, net_name in connections:
            update(f"|pin:{port_name}:{index}:{net_name}".encode())
    return digest.hexdigest()


def flow_fingerprint(definition: Definition, device: Device,
                     seed: int = 1,
                     floorplan: Optional[Floorplan] = None,
                     anneal_moves_per_slice: int = 4,
                     router_iterations: int = 20,
                     target_utilization: float = 0.55) -> str:
    """Content key of one ``implement`` call: netlist + device + knobs.

    ``:overuse=False`` is a fixed part of the key text: keys stored by
    earlier releases, which hashed a router option there, keep matching.
    """
    digest = hashlib.sha256()
    digest.update(netlist_fingerprint(definition).encode())
    spec = device.spec
    digest.update(
        f"|device:{spec.name}:{spec.columns}x{spec.rows}"
        f":w{spec.wires_per_direction}:p{spec.pads_per_tile}"
        f":f{spec.frame_bits}".encode())
    if floorplan is not None:
        for domain in sorted(floorplan.domain_columns):
            low, high = floorplan.domain_columns[domain]
            digest.update(f"|fp:{domain}:{low}:{high}".encode())
    digest.update(
        f"|flow:{TOOL_VERSION}:seed={seed}"
        f":anneal={anneal_moves_per_slice}"
        f":iters={router_iterations}"
        f":overuse=False"
        f":util={target_utilization!r}".encode())
    return digest.hexdigest()


class FlowArtifactStore:
    """The ``flow`` namespace of a :class:`PersistentStore`.

    *store* is the store to share (a cache tier's) or the root directory
    of a standalone one.  Hits, misses and stores count into the store's
    ``flow_*`` counters.
    """

    def __init__(self, store: Union[str, Path, PersistentStore]) -> None:
        self.persistent = store if isinstance(store, PersistentStore) \
            else PersistentStore(store)
        self.stats = self.persistent.stats

    def load(self, key: str, design: Definition) -> Optional["Implementation"]:
        """Load the implementation stored under *key*, or ``None``.

        *design* is re-attached as the implementation's netlist: the
        artifact deliberately travels without its (recursive) netlist
        graph, and the key already proves the caller's definition is the
        one that was implemented.
        """
        payload = self.persistent.load(FLOW_NAMESPACE, key)
        if payload is None:
            self.stats.bump("flow_misses")
            return None
        implementation = payload["implementation"]
        implementation.design = design
        # Rebind the (cache-stripped) pickled layout to the process-wide
        # shared instance so its lazily built PIP tables are paid for once
        # per device profile, not once per loaded artifact.
        from ..fpga.config import shared_layout

        layout = shared_layout(implementation.device)
        if layout.total_bits == implementation.layout.total_bits:
            implementation.layout = layout
            implementation.bitstream.layout = layout
        self.stats.bump("flow_hits")
        return implementation

    def store(self, key: str, implementation: "Implementation") -> bool:
        """Persist *implementation* under *key*; returns success."""
        ok = self.persistent.store(FLOW_NAMESPACE, key, {
            "design_name": implementation.design.name,
            "implementation": dataclasses.replace(implementation,
                                                  design=None),
        })
        if ok:
            self.stats.bump("flow_stores")
        return ok


#: Anything ``implement(..., artifact_store=...)`` accepts.
StoreLike = Union[None, str, Path, FlowArtifactStore]


def resolve_store(store: StoreLike) -> Optional[FlowArtifactStore]:
    """Normalize the ``artifact_store=`` knob (``None`` stays ``None``)."""
    if store is None or isinstance(store, FlowArtifactStore):
        return store
    return FlowArtifactStore(store)
