"""Core data model of the invariant analyzer: rules, findings, config.

A *rule* is a named invariant class (``D101`` — unsorted filesystem
iteration); a *finding* is one concrete violation at ``file:line``.
Findings are plain frozen dataclasses so the whole report is trivially
JSON-serializable and order-stable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple


@dataclasses.dataclass(frozen=True, slots=True)
class Rule:
    """One invariant class the analyzer enforces."""

    id: str
    title: str
    rationale: str
    hint: str


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One violation: rule + location + enough context to waive it."""

    rule: str
    path: str
    line: int
    col: int
    #: dotted qualname of the enclosing class/function ("<module>" at
    #: module level) — the unit a waiver pins to
    scope: str
    message: str
    hint: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


RULES: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    RULES[rule.id] = rule
    return rule


register(Rule(
    "D101", "unsorted filesystem iteration",
    "os.listdir/glob/iterdir order is filesystem-dependent; any result "
    "that flows into a fingerprint, report, shard schedule or pickled "
    "artifact must be sorted",
    "wrap the call in sorted(...), or waive with a justification that "
    "every consumer is order-free"))
register(Rule(
    "D102", "ordered sequence built from unordered set iteration",
    "iterating a set/frozenset into a list, tuple or generator bakes "
    "PYTHONHASHSEED-dependent order into the result",
    "iterate sorted(<set>) instead"))
register(Rule(
    "D103", "builtin hash() in result-producing code",
    "hash() of str/bytes is salted per process (PYTHONHASHSEED); "
    "fingerprints and schedules derived from it are not reproducible",
    "use hashlib (see repro.faults.seeds.derive_seed) instead"))
register(Rule(
    "D104", "wall-clock read in a result-producing module",
    "time.time()/datetime.now() values differ per run; outside "
    "documented timing/provenance fields they break bit-identity",
    "use time.monotonic() for intervals, or waive naming the documented "
    "provenance field the value feeds"))
register(Rule(
    "D105", "module-global random stream",
    "the global random module is shared, seedable by anyone, and "
    "PYTHONHASHSEED-adjacent; campaigns must draw from the documented "
    "substream contract",
    "use repro.faults.seeds.substream(...) or a local random.Random(seed)"))
register(Rule(
    "C201", "unlocked mutation in a lock-owning class",
    "the class guards state with a lock, but this read-modify-write "
    "(+=, .append, ...) runs outside any 'with <lock>:' block — the "
    "exact lost-update class of the PR-7 TierStats.bump bug",
    "wrap the mutation in 'with self.<lock>:' or move it into a locked "
    "method"))
register(Rule(
    "C202", "blocking call inside 'async def'",
    "time.sleep/fsync/subprocess block the event loop; the orchestrator "
    "loop must only sequence jobs, never wait on them",
    "use await asyncio.sleep(...) or asyncio.to_thread(...)"))
register(Rule(
    "C203", "unlocked shared-state mutation in a service-shared module",
    "this module's objects are shared between the asyncio orchestrator, "
    "its daemon thread and worker callbacks; a bare += or .append is a "
    "read-modify-write that loses updates under threads",
    "guard the attribute with a lock (see TierStats.bump) or prove the "
    "object is confined to one thread in a waiver"))
register(Rule(
    "A301", "raw writable open() bypassing the atomic-write helpers",
    "a plain open(..., 'w') under the tier/journal roots can be torn by "
    "a crash; durable artefacts must stage through temp-file + fsync + "
    "os.replace",
    "use the one atomic store, PersistentStore.store, or waive citing "
    "the documented durability contract"))
register(Rule(
    "A302", "raw pickle.dump outside the atomic-write pattern",
    "pickling straight into a final path leaves a corrupt entry when "
    "interrupted; readers then depend on eviction heuristics",
    "store through PersistentStore.store, the one NamedTemporaryFile + "
    "os.replace write"))
register(Rule(
    "P401", "backend payload type is not a frozen/slots dataclass",
    "verdict payloads cross process boundaries; frozen+slots "
    "guarantees picklability, immutability in flight and a stable "
    "attribute set",
    "declare the class @dataclasses.dataclass(frozen=True, slots=True)"))
register(Rule(
    "P402", "lazy-export drift in repro/__init__",
    "_PUBLIC_API names a module attribute that does not exist; the "
    "import error only surfaces on first attribute access",
    "fix the (module, attribute) entry or remove the export"))
register(Rule(
    "W001", "unused waiver",
    "the baseline waives a finding the analyzer no longer emits; stale "
    "waivers hide regressions",
    "delete the waiver from lint-baseline.toml"))
register(Rule(
    "W002", "waiver without a justification",
    "every intentional exception must say why it is safe",
    "add a non-empty justification string"))


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Repository-specific knobs of the analyzer.

    The defaults encode *this* repo's invariants; the test corpus
    constructs variants pointing at fixture trees.
    """

    #: path fragments marking modules whose objects are shared between
    #: the orchestrator loop, its daemon thread and worker callbacks
    #: (the C203 scope)
    shared_path_markers: Tuple[str, ...] = (
        "repro/service/",
        "repro/pnr/artifacts.py",
        "repro/faults/cache.py",
    )
    #: path suffix -> class names that must be frozen+slots dataclasses
    #: (the P401 scope: payloads pickled across process boundaries — a
    #: sharded worker's verdict columns, which are also what a shard
    #: checkpoint stores)
    payload_classes: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("repro/faults/engine.py", ("VerdictColumns",)),
    )
    #: path suffix of the lazy-export module checked by P402
    public_api_module: str = "repro/__init__.py"
    #: rule ids to skip entirely
    disabled: Tuple[str, ...] = ()

    def is_shared_module(self, posix_path: str) -> bool:
        return any(marker in posix_path
                   for marker in self.shared_path_markers)

    def payload_classes_for(self, posix_path: str) -> Tuple[str, ...]:
        for suffix, names in self.payload_classes:
            if posix_path.endswith(suffix):
                return names
        return ()

    def enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disabled
