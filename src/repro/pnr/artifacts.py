"""Persistent, content-addressed store for implementation artifacts.

The paper's experiment drivers re-implement the same five filter versions
for every table, ablation, scale and floorplan variant; place-and-route is
a pure function of (flat netlist, device, floorplan, flow parameters, tool
version), so its result can live on disk and be reused by every later run
of any experiment CLI.

* :func:`flow_fingerprint` canonically serializes those inputs into a
  SHA-256 key.  The netlist part iterates ports/instances/pins in sorted
  order, so the key is stable across processes, hash seeds and rebuilds
  of the same design.
* :class:`FlowArtifactStore` maps a key to a pickled
  :class:`~repro.pnr.flow.Implementation` under
  ``<root>/<key[:2]>/<key>.pkl``.  The netlist graph itself is *not*
  pickled (it is deeply recursive and the caller necessarily holds an
  equivalent definition — it hashed into the key); the design is detached
  before writing and re-attached on load.  Writes are atomic
  (temp file + ``os.replace``) and corrupted or stale entries are evicted
  and treated as misses, so an interrupted run can never poison later
  ones.

The store is deliberately dumb: no locking beyond atomic replace, no
eviction policy.  Artifacts are small (a few MB at paper scale) and a CI
cache or ``rm -rf`` manages their lifetime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..fpga.device import Device
from ..netlist.ir import Definition
from .place import Floorplan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .flow import Implementation

#: Bump on any change that alters flow outputs (router costs, placement
#: schedule, bit accounting, pickle format): old artifacts then miss
#: instead of resurrecting stale results.
TOOL_VERSION = "flow-1"

#: Pickle format stored inside each artifact file.
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/error counters of one :class:`FlowArtifactStore`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evictions: int = 0
    store_failures: int = 0

    def __post_init__(self) -> None:
        # The campaign service implements designs from concurrent jobs;
        # a bare ``+= 1`` is a read-modify-write that loses updates under
        # threads.  The lock is a plain attribute (not a field), so
        # ``dataclasses.asdict`` never tries to copy it.
        self.lock = threading.Lock()

    def bump(self, counter: str) -> None:
        with self.lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def as_dict(self) -> Dict[str, int]:
        with self.lock:
            return dataclasses.asdict(self)


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
                     allow_overuse: bool = False,
                     target_utilization: float = 0.55) -> str:
    """Content key of one ``implement`` call: netlist + device + knobs."""
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
        f":overuse={allow_overuse}"
        f":util={target_utilization!r}".encode())
    return digest.hexdigest()


class FlowArtifactStore:
    """On-disk content-addressed store of implementations."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def path_of(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self.path_of(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    # ------------------------------------------------------------------
    def load(self, key: str, design: Definition) -> Optional["Implementation"]:
        """Load the implementation stored under *key*, or ``None``.

        *design* is re-attached as the implementation's netlist: the
        artifact deliberately travels without its (recursive) netlist
        graph, and the key already proves the caller's definition is the
        one that was implemented.
        """
        path = self.path_of(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.bump("misses")
            return None
        except Exception:
            # Truncated write, foreign file, unpicklable garbage: evict
            # and fall back to a recompute.
            self._evict(path)
            self.stats.bump("misses")
            return None
        if not isinstance(payload, dict) \
                or payload.get("tool_version") != TOOL_VERSION \
                or payload.get("key") != key:
            self._evict(path)
            self.stats.bump("misses")
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
        try:
            # Refresh recency: when the store lives inside a shared cache
            # tier, LRU eviction ranks entries by mtime, and a hit must
            # spare a warm artifact before an idle one.
            os.utime(path)
        except OSError:
            pass
        self.stats.bump("hits")
        return implementation

    def store(self, key: str, implementation: "Implementation") -> bool:
        """Persist *implementation* under *key*; returns success."""
        path = self.path_of(key)
        payload = {
            "tool_version": TOOL_VERSION,
            "key": key,
            "design_name": implementation.design.name,
            "device": implementation.device.spec.name,
            "implementation": dataclasses.replace(implementation,
                                                  design=None),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp",
                delete=False)
            try:
                with handle:
                    pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
                os.replace(handle.name, path)
            except BaseException:
                os.unlink(handle.name)
                raise
        except Exception:
            # A read-only cache directory or a full disk must never fail
            # the flow itself; the artifact is merely not persisted.
            self.stats.bump("store_failures")
            return False
        self.stats.bump("stores")
        return True

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
            self.stats.bump("corrupt_evictions")
        except OSError:
            pass

    def clear(self) -> None:
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                path.unlink()
            except OSError:
                pass


#: Anything ``implement(..., artifact_store=...)`` accepts.
StoreLike = Union[None, str, Path, FlowArtifactStore]


def resolve_store(store: StoreLike) -> Optional[FlowArtifactStore]:
    """Normalize the ``artifact_store=`` knob (``None`` stays ``None``)."""
    if store is None:
        return None
    if isinstance(store, FlowArtifactStore):
        return store
    return FlowArtifactStore(store)
