"""Latency and reliability accounting for CFF runs, in slot units.

A :class:`MetricsRecord` keeps, per traffic class, the measured arrivals, the
measured misses (packets never delivered) and an int64 array of delivered
latencies in slots.  Delivered is the array's length, so ``delivered +
failed == arrived`` checks a run's conservation.  Latencies become seconds
only where they are compared with a target (:func:`reliability_within`) or
listed (:meth:`MetricsRecord.latencies`).  Records of equal slot duration
merge class by class for replication aggregation.
"""
from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

from .core import PacketClass

__all__ = ["EmptySampleError", "MetricsRecord", "merge_records", "reliability_within", "empirical_quantile"]

_NO_SLOTS = np.empty(0, dtype=np.int64)


class EmptySampleError(ValueError):
    """Raised when a statistic is requested over zero samples."""


class MetricsRecord:
    """Per-class arrivals, misses and delivered latencies (slots) of CFF runs
    with one slot duration (seconds)."""

    __slots__ = ("slot_duration", "_slots", "_arrived", "_failed")

    def __init__(self, slot_duration: float) -> None:
        self.slot_duration = slot_duration
        self._slots = dict.fromkeys(PacketClass, _NO_SLOTS)
        self._arrived = dict.fromkeys(PacketClass, 0)
        self._failed = dict.fromkeys(PacketClass, 0)

    def add(self, klass: PacketClass, latency_slots=(), failed: int = 0, arrived: int = 0) -> None:
        """Append delivered latencies (slots) and count misses and arrivals."""
        if len(latency_slots):
            self._slots[klass] = np.concatenate((self._slots[klass], np.asarray(latency_slots, dtype=np.int64)))
        self._failed[klass] += failed
        self._arrived[klass] += arrived

    def latency_slots(self, klass: PacketClass) -> np.ndarray:
        return self._slots[klass]

    def arrived(self, klass: PacketClass) -> int:
        return self._arrived[klass]

    def delivered(self, klass: PacketClass) -> int:
        return len(self._slots[klass])

    def failed(self, klass: PacketClass) -> int:
        return self._failed[klass]

    def latencies(self, klass: PacketClass) -> List[float]:
        """Delivered latencies in seconds, then one +inf per miss."""
        return (self._slots[klass] * self.slot_duration).tolist() + [math.inf] * self._failed[klass]

    def merge(self, other: "MetricsRecord") -> None:
        """Fold ``other`` into this record, class by class."""
        if other.slot_duration != self.slot_duration:
            raise ValueError(
                f"cannot merge records of slot durations {self.slot_duration} and {other.slot_duration}"
            )
        for klass in PacketClass:
            self.add(klass, other._slots[klass], other._failed[klass], other._arrived[klass])


def merge_records(records: Iterable[MetricsRecord]) -> MetricsRecord:
    """Merge records in the given (replication-index) order."""
    records = list(records)
    if not records:
        raise ValueError("merge_records needs at least one record: the merged record takes its slot duration")
    merged = MetricsRecord(records[0].slot_duration)
    for rec in records:
        merged.merge(rec)
    return merged


def reliability_within(record: MetricsRecord, klass: PacketClass, latency_target: float) -> float:
    """Fraction of arrived packets of ``klass`` delivered within ``latency_target`` seconds.

    A latency of k slots meets the target iff the float64 product
    ``k * slot_duration <= latency_target``; on the paper frame 300 * 1e-4
    exceeds 0.03, so a 300-slot delivery is late at 30 ms.  Misses sit in
    the arrival denominator.
    """
    arrived = record.arrived(klass)
    if arrived == 0:
        raise EmptySampleError(f"no {klass.value} arrivals recorded")
    met = np.count_nonzero(record.latency_slots(klass) * record.slot_duration <= latency_target)
    return int(met) / arrived


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
