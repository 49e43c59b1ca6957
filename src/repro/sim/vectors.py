"""Stimulus generation for simulation and fault-injection campaigns."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence


def random_samples(count: int, width: int, seed: int = 2005) -> List[int]:
    """Deterministic pseudo-random signed samples (seeded for repeatability).

    The default seed is the paper's publication year so that every campaign
    in the repository applies the identical input stream.
    """
    generator = random.Random(seed)
    low = -(1 << (width - 1))
    high = (1 << (width - 1)) - 1
    return [generator.randint(low, high) for _ in range(count)]


def stimulus_from_samples(samples: Sequence[int], port: str = "DIN",
                          ) -> List[Dict[str, int]]:
    """Wrap a sample stream into per-cycle input dictionaries."""
    return [{port: sample} for sample in samples]


def tmr_stimulus_from_samples(samples: Sequence[int], port: str = "DIN",
                              ) -> List[Dict[str, int]]:
    """Per-cycle inputs for a TMR design with triplicated input ports.

    The same sample is applied to ``{port}_tr0 .. {port}_tr2``, reflecting
    that the three redundant domains receive copies of the same external
    signal through their own package pins.
    """
    return [{f"{port}_tr{domain}": sample for domain in range(3)}
            for sample in samples]


def campaign_workload(width: int, cycles: int = 12, seed: int = 2005,
                      ) -> List[int]:
    """The default fault-injection workload: impulse, then random samples.

    The first sample is a full-scale impulse (propagates through every tap),
    followed by seeded random data.  *cycles* counts total samples.
    """
    if cycles < 1:
        raise ValueError("workload needs at least one cycle")
    samples = [(1 << (width - 1)) - 1]
    samples.extend(random_samples(cycles - 1, width, seed))
    return samples
