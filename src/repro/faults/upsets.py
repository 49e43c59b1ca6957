"""Upset models: how many configuration bits one injection flips.

The paper (and PRs 1-3) evaluate the classical single-bit-upset model: one
sampled configuration bit per injection.  Follow-up work on SRAM-based
FPGAs (Hoque et al. on TMR partitioning dependability, Giordano et al. on
configuration redundancy) evaluates two further regimes that this module
adds as a pluggable axis:

* ``single`` — one flipped bit per injection.  Bit-identical to the seed
  campaign semantics: the sampled bits, their order and their modelled
  effects are exactly those of the historical code path.
* ``mbu`` (multi-bit upset) — one particle strike flips a small cluster of
  *physically adjacent* configuration cells.  Adjacency is modelled in the
  configuration-memory address space: each sampled primary bit is extended
  with its next ``size - 1`` neighbouring addresses (reflected at the top
  of the address space), and the whole cluster is present simultaneously
  during one faulty run.
* ``accumulate`` — upsets accrue between scrubbing passes.  The sampled
  upset stream is split into consecutive groups of ``interval`` bits; each
  group is evaluated with all of its upsets present at once (the state of
  the device just before the scrubber repairs the configuration), and the
  golden comparison restarts from a repaired device for the next group.

Every model draws its primary bits through
:meth:`~repro.faults.fault_list.FaultList.sample` — a reproducible sample
*without replacement* — so campaigns are deterministic under a fixed seed
across processes and execution backends.

:func:`merged_effect` composes the per-bit :class:`FaultEffect`\\ s of one
multi-bit injection into a single effect/overlay.  LUT truth-table upsets
compose by XOR against the base INIT (two flips of the same table are both
applied, and flipping the same minterm twice cancels, as in the silicon);
the remaining override kinds are disjoint by construction (each
configuration bit owns its resource) and merge by dict union.
"""

from __future__ import annotations

import abc
from typing import (TYPE_CHECKING, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..sim.compile import CompiledDesign
from ..sim.overlay import FaultOverlay
from .models import FaultEffect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fault_list import FaultList

#: One injection: the tuple of configuration bits flipped simultaneously.
Injection = Tuple[int, ...]

#: The documented model names, for CLI ``choices=`` and error messages.
UPSET_MODEL_CHOICES = ("single", "mbu", "accumulate")


class UpsetModel(abc.ABC):
    """Strategy interface: turn a fault list into a list of injections."""

    #: registry name, also used in reports
    name: str = "abstract"

    @abc.abstractmethod
    def injections(self, fault_list: "FaultList", count: int, seed: int,
                   total_bits: Optional[int] = None
                   ) -> Sequence[Injection]:
        """Sample *count* upsets and group them into injection units.

        *total_bits* bounds the configuration address space (used by
        models that extend a sampled bit with physical neighbours).
        """

    def describe(self) -> str:
        """Canonical parameterized spelling, parseable by
        :func:`resolve_upset_model`."""
        return self.name


class SingleBitInjections(Sequence[Injection]):
    """Single-bit injections as a read-only view over one bit column.

    Each item is the one-bit injection ``(bit,)``, built on access, so a
    million-injection campaign keeps its sampled bits and no tuples.
    Slicing returns a view of the sliced column.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int]) -> None:
        self.bits = bits

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Injection, "SingleBitInjections"]:
        if isinstance(index, slice):
            return SingleBitInjections(self.bits[index])
        return (self.bits[index],)

    def __iter__(self) -> Iterator[Injection]:
        return ((bit,) for bit in self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SingleBitInjections):
            return list(self.bits) == list(other.bits)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class SingleUpset(UpsetModel):
    """One bit per injection — the seed campaign semantics, bit-identical."""

    name = "single"

    def injections(self, fault_list: "FaultList", count: int, seed: int,
                   total_bits: Optional[int] = None) -> SingleBitInjections:
        return SingleBitInjections(fault_list.sample(count, seed))


class MultiBitUpset(UpsetModel):
    """Adjacent multi-bit upsets: one strike flips a cluster of cells."""

    name = "mbu"

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("mbu cluster size must be at least 1")
        self.size = size

    def describe(self) -> str:
        return f"{self.name}:{self.size}"

    def injections(self, fault_list: "FaultList", count: int, seed: int,
                   total_bits: Optional[int] = None) -> List[Injection]:
        groups: List[Injection] = []
        for bit in fault_list.sample(count, seed):
            # Grow a contiguous address window around the primary bit:
            # upward while the address space allows, downward otherwise,
            # so edge clusters stay physically adjacent (no holes).
            low = high = bit
            cluster = [bit]
            for _ in range(1, self.size):
                if total_bits is None or high + 1 < total_bits:
                    high += 1
                    cluster.append(high)
                elif low - 1 >= 0:
                    low -= 1
                    cluster.append(low)
                else:
                    break
            groups.append(tuple(cluster))
        return groups


class AccumulatedUpset(UpsetModel):
    """Upsets accrue across a scrubbing interval before being repaired."""

    name = "accumulate"

    def __init__(self, interval: int = 4) -> None:
        if interval < 1:
            raise ValueError("accumulation interval must be at least 1")
        self.interval = interval

    def describe(self) -> str:
        return f"{self.name}:{self.interval}"

    def injections(self, fault_list: "FaultList", count: int, seed: int,
                   total_bits: Optional[int] = None) -> List[Injection]:
        sample = fault_list.sample(count, seed)
        return [tuple(sample[start:start + self.interval])
                for start in range(0, len(sample), self.interval)]


#: Registry of model names accepted by the ``upset_model=`` knob.
UPSET_MODELS = {
    SingleUpset.name: SingleUpset,
    MultiBitUpset.name: MultiBitUpset,
    AccumulatedUpset.name: AccumulatedUpset,
    # convenience aliases
    "sbu": SingleUpset,
    "mcu": MultiBitUpset,
    "scrub": AccumulatedUpset,
}

UpsetModelLike = Union[None, str, UpsetModel]


def resolve_upset_model(model: UpsetModelLike = None) -> UpsetModel:
    """Normalize the ``upset_model=`` knob into an :class:`UpsetModel`.

    Accepts ``None`` (single, the seed semantics), a registry name with an
    optional integer parameter (``"mbu"``, ``"mbu:3"``, ``"accumulate:8"``),
    a model class or a ready instance.
    """
    if model is None:
        return SingleUpset()
    if isinstance(model, UpsetModel):
        return model
    if isinstance(model, type) and issubclass(model, UpsetModel):
        return model()
    if isinstance(model, str):
        key, _, parameter = model.strip().lower().partition(":")
        if key in UPSET_MODELS:
            cls = UPSET_MODELS[key]
            if not parameter:
                return cls()
            try:
                argument = int(parameter)
            except ValueError:
                raise ValueError(
                    f"upset model parameter must be an integer, got "
                    f"{model!r}") from None
            if cls is SingleUpset:
                raise ValueError("the single-bit model takes no parameter")
            return cls(argument)
        raise ValueError(f"unknown upset model {model!r}; choose from "
                         f"{sorted(set(UPSET_MODELS))} (optionally "
                         f"parameterized, e.g. 'mbu:3', 'accumulate:8')")
    raise TypeError(f"upset_model must be None, a name or an UpsetModel, "
                    f"got {type(model).__name__}")


def merged_effect(bits: Sequence[int], effects: Sequence[FaultEffect],
                  compiled: CompiledDesign) -> FaultEffect:
    """Compose the per-bit effects of one multi-bit injection.

    The merged effect's category and resource are those of the first
    constituent with a behavioural effect (the primary upset of the
    cluster), falling back to the first constituent — a deterministic
    choice, so Table 4 style breakdowns stay seed-stable.
    """
    if len(effects) == 1:
        return effects[0]
    overlay = FaultOverlay()
    seed_nets = set()
    for effect in effects:
        source = effect.overlay
        for gate_index, init in source.lut_init_overrides.items():
            base = compiled.gates[gate_index].init
            current = overlay.lut_init_overrides.get(gate_index, base)
            # XOR composition: apply this bit's flip mask on top of the
            # flips already accumulated for the same truth table.
            overlay.lut_init_overrides[gate_index] = current ^ (init ^ base)
        overlay.gate_pin_overrides.update(source.gate_pin_overrides)
        overlay.ff_pin_overrides.update(source.ff_pin_overrides)
        overlay.ff_init_overrides.update(source.ff_init_overrides)
        overlay.net_overrides.update(source.net_overrides)
        overlay.output_pin_overrides.update(source.output_pin_overrides)
        overlay.comb_passes = max(overlay.comb_passes, source.comb_passes)
        seed_nets.update(source.seed_nets)
    overlay.seed_nets = tuple(sorted(seed_nets))

    primary = next((effect for effect in effects if effect.has_effect),
                   effects[0])
    active = [effect.category for effect in effects if effect.has_effect]
    detail = (f"{len(bits)}-bit upset"
              + (f" [{' + '.join(active)}]" if active else " [no effect]"))
    return FaultEffect(bit=bits[0], resource=primary.resource,
                       category=primary.category, overlay=overlay,
                       detail=detail)
