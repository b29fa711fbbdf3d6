"""Stochastic generators: packet arrivals, sensor observations, semantic
queries and value-threshold push triggers.

Every generator draws from a caller-supplied ``numpy.random.Generator`` so
that a (seed, config) pair fully determines a run.  Replications use seeds
derived with :func:`derive_seed` and therefore merge deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

__all__ = [
    "PoissonArrivals",
    "sample_frame_arrival_counts",
    "sample_arrival_offsets",
    "sort_arrival_offsets",
    "ObservationModel",
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


@dataclass(frozen=True, slots=True)
class PoissonArrivals:
    """Open-loop Poisson arrival process binned to the slot grid."""

    rate: float  # packets per second
    slot_duration: float  # seconds

    def __post_init__(self) -> None:
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not (self.slot_duration > 0.0):
            raise ValueError(f"slot_duration must be positive, got {self.slot_duration}")

    @property
    def mean_per_slot(self) -> float:
        return self.rate * self.slot_duration


def sample_frame_arrival_counts(
    process: PoissonArrivals, n_slots: int, n_frames: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-frame arrival counts for ``n_frames`` frames of ``n_slots`` slots.

    Equivalent in distribution to summing per-slot draws (Poisson
    superposition); one vectorized draw keeps long runs cheap.
    """
    if n_slots < 1 or n_frames < 1:
        raise ValueError("n_slots and n_frames must be >= 1")
    if process.rate == 0.0:
        return np.zeros(n_frames, dtype=np.int64)
    return rng.poisson(process.mean_per_slot * n_slots, size=n_frames).astype(np.int64)


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
    return sort_arrival_offsets(offsets, counts, n_slots)


def sort_arrival_offsets(offsets: np.ndarray, counts: np.ndarray, n_slots: int) -> np.ndarray:
    """Sort int64 ``offsets`` (each below ``n_slots``) ascending within each
    consecutive batch of ``counts[i]`` values, in place; returns ``offsets``."""
    # one sort orders every batch: batch i is lifted to [i*n_slots, (i+1)*n_slots)
    lift = np.arange(0, len(counts) * n_slots, n_slots, dtype=np.int64).repeat(counts)
    offsets += lift
    offsets.sort()
    offsets -= lift
    return offsets


@dataclass(frozen=True, slots=True)
class ObservationModel:
    """Per-device sensor values, redrawn independently each frame.

    Default is uniform on [0, 1]; ``fixed`` pins every device to a constant
    (useful for deterministic tests).
    """

    fixed: Optional[tuple[float, ...]] = None

    def sample(self, n_devices: int, rng: np.random.Generator) -> np.ndarray:
        if n_devices < 0:
            raise ValueError("n_devices must be >= 0")
        if self.fixed is not None:
            if len(self.fixed) != n_devices:
                raise ValueError(
                    f"fixed observations cover {len(self.fixed)} devices, expected {n_devices}"
                )
            return np.asarray(self.fixed, dtype=np.float64)
        # same doubles as rng.uniform(0.0, 1.0, n) at about half the call cost
        return rng.random(n_devices)


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

    @property
    def match_probability(self) -> float:
        """Match probability under the default uniform-[0,1] observation model."""
        return max(0.0, min(self.hi, 1.0) - max(self.lo, 0.0))


@dataclass(frozen=True, slots=True)
class PushTrigger:
    """Value-threshold push model: a device pushes iff its drawn value exceeds
    ``threshold`` (push probability 1 - threshold per device per frame)."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0,1]: {self.threshold}")

    def push_mask(self, n_devices: int, rng: np.random.Generator) -> np.ndarray:
        if n_devices < 0:
            raise ValueError("n_devices must be >= 0")
        return self.fires(rng.random(n_devices))

    def fires(self, values: np.ndarray) -> np.ndarray:
        """Which drawn values trigger a push."""
        return values > self.threshold
