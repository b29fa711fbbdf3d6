"""Latency, reliability and accuracy accounting.

A :class:`MetricsRecord` holds one latency sample per *arrived* packet once a
run is finalized (undelivered packets carry +inf), so reliability is a plain
fraction of samples.  Records merge associatively for replication
aggregation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .core import PacketClass

__all__ = ["EmptySampleError", "MetricsRecord", "merge_records", "reliability_within", "empirical_quantile"]


class EmptySampleError(ValueError):
    """Raised when a statistic is requested over zero samples."""


@dataclass(slots=True)
class MetricsRecord:
    """Per-class counters and latency samples, plus per-frame RCS counters."""

    pull_latencies: List[float] = field(default_factory=list)
    push_latencies: List[float] = field(default_factory=list)
    pull_arrived: int = 0
    pull_delivered: int = 0
    pull_failed: int = 0
    push_arrived: int = 0
    push_delivered: int = 0
    push_failed: int = 0
    rcs_frames: int = 0
    rcs_retrieval_successes: int = 0
    rcs_push_attempts: int = 0
    rcs_push_successes: int = 0

    def latencies(self, klass: PacketClass) -> List[float]:
        return self.pull_latencies if klass is PacketClass.PULL else self.push_latencies

    def arrived(self, klass: PacketClass) -> int:
        return self.pull_arrived if klass is PacketClass.PULL else self.push_arrived

    def delivered(self, klass: PacketClass) -> int:
        return self.pull_delivered if klass is PacketClass.PULL else self.push_delivered

    def failed(self, klass: PacketClass) -> int:
        return self.pull_failed if klass is PacketClass.PULL else self.push_failed

    def add_arrivals(self, klass: PacketClass, n: int = 1) -> None:
        if klass is PacketClass.PULL:
            self.pull_arrived += n
        else:
            self.push_arrived += n

    def extend_deliveries(self, klass: PacketClass, latencies: np.ndarray) -> None:
        lats = np.asarray(latencies, dtype=np.float64).tolist()
        if klass is PacketClass.PULL:
            self.pull_delivered += len(lats)
            self.pull_latencies.extend(lats)
        else:
            self.push_delivered += len(lats)
            self.push_latencies.extend(lats)

    def add_failures(self, klass: PacketClass, n: int = 1) -> None:
        """Record ``n`` packets that will never be delivered (latency +inf)."""
        if klass is PacketClass.PULL:
            self.pull_failed += n
            self.pull_latencies.extend([math.inf] * n)
        else:
            self.push_failed += n
            self.push_latencies.extend([math.inf] * n)

    # -- RCS counters ------------------------------------------------------
    @property
    def retrieval_accuracy(self) -> Optional[float]:
        if self.rcs_frames == 0:
            return None
        return self.rcs_retrieval_successes / self.rcs_frames

    @property
    def push_success_rate(self) -> Optional[float]:
        if self.rcs_push_attempts == 0:
            return None
        return self.rcs_push_successes / self.rcs_push_attempts

    def merge(self, other: "MetricsRecord") -> None:
        """Fold ``other`` into this record (counters add, samples concatenate)."""
        self.pull_latencies.extend(other.pull_latencies)
        self.push_latencies.extend(other.push_latencies)
        self.pull_arrived += other.pull_arrived
        self.pull_delivered += other.pull_delivered
        self.pull_failed += other.pull_failed
        self.push_arrived += other.push_arrived
        self.push_delivered += other.push_delivered
        self.push_failed += other.push_failed
        self.rcs_frames += other.rcs_frames
        self.rcs_retrieval_successes += other.rcs_retrieval_successes
        self.rcs_push_attempts += other.rcs_push_attempts
        self.rcs_push_successes += other.rcs_push_successes


def merge_records(records: Iterable[MetricsRecord]) -> MetricsRecord:
    """Merge records in the given (replication-index) order."""
    merged = MetricsRecord()
    for rec in records:
        merged.merge(rec)
    return merged


def reliability_within(record: MetricsRecord, klass: PacketClass, latency_target: float) -> float:
    """Fraction of arrived packets of ``klass`` delivered within ``latency_target`` seconds.

    Packets still in flight at the horizon count against the target (they have
    no finite sample yet but sit in the arrival denominator).
    """
    arrived = record.arrived(klass)
    if arrived == 0:
        raise EmptySampleError(f"no {klass.value} arrivals recorded")
    samples = record.latencies(klass)
    met = sum(1 for lat in samples if lat <= latency_target)
    return met / arrived


def empirical_quantile(samples: Sequence[float], p: float) -> float:
    """Order-statistic quantile: smallest value v with at least p of samples <= v.

    1-based index ceil(p*n) in the ascending sort; no interpolation.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p out of (0,1]: {p}")
    n = len(samples)
    if n == 0:
        raise EmptySampleError("empirical_quantile over empty samples")
    ordered = sorted(samples)
    # guard against float product landing just above an exact integer
    idx = math.ceil(p * n - 1e-9)
    idx = min(max(idx, 1), n)
    return ordered[idx - 1]
