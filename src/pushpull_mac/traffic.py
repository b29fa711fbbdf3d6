"""Stochastic models and seeds: arrival offsets, semantic queries and
value-threshold push triggers.

Poisson arrival counts are drawn in :func:`~.mac_cff.simulate_cff` itself,
and sensor observations, uniform on [0, 1) and redrawn for every device each
frame, in the RCS kernel (:mod:`.mac_rcs`).  Every draw comes from a
caller-supplied ``numpy.random.Generator`` so that a (seed, config) pair
fully determines a run.  Replications use seeds derived with
:func:`derive_seed` and therefore merge deterministically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "sample_arrival_offsets",
    "SemanticQuery",
    "PushTrigger",
    "derive_seed",
    "SEED_LIMIT",
]

SEED_LIMIT = 2**64  # seeds are 64-bit: a larger one would alias a smaller one


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replication seed: master XOR replication index (64-bit)."""
    if master_seed < 0 or index < 0:
        raise ValueError("seeds and indices must be non-negative")
    if master_seed >= SEED_LIMIT or index >= SEED_LIMIT:
        raise ValueError("seeds and indices must be below 2**64")
    return master_seed ^ index


def sample_arrival_offsets(counts: np.ndarray, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Slot offsets within a frame for consecutive arrival batches, ascending
    within each batch.

    Batch ``i`` holds ``counts[i]`` arrivals (one class in one frame); the
    result lists the batches back to back.  Conditioned on the frame count,
    Poisson arrival positions are iid uniform over the frame's slots.  All
    batches come from one draw, which yields the same values as one draw per
    batch in order (same bound, so the generator stream is consumed alike).
    """
    offsets = rng.integers(0, n_slots, size=int(np.sum(counts)), dtype=np.int64)
    # one sort orders every batch: batch i is lifted to [i*n_slots, (i+1)*n_slots)
    lift = np.arange(0, len(counts) * n_slots, n_slots, dtype=np.int64).repeat(counts)
    offsets += lift
    offsets.sort()
    offsets -= lift
    return offsets


@dataclass(frozen=True, slots=True)
class SemanticQuery:
    """Value interval broadcast by the BS; a device matches iff lo <= value <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("query bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"query interval empty: lo={self.lo} > hi={self.hi}")

    def match_mask(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.lo) & (values <= self.hi)


@dataclass(frozen=True, slots=True)
class PushTrigger:
    """Value-threshold push model: a device pushes iff its drawn value exceeds
    ``threshold`` (push probability 1 - threshold per device per frame)."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0,1]: {self.threshold}")

    def fires(self, values: np.ndarray) -> np.ndarray:
        """Which drawn values trigger a push."""
        return values > self.threshold
