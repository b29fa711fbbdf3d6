"""Latency and reliability accounting for CFF runs, in slot units.

A :class:`MetricsRecord` keeps, per traffic class, the measured arrivals, the
measured misses (packets never delivered) and an int64 array of delivered
latencies in slots.  The delivered count is the array's length, so
``len(latency_slots) + failed == arrived`` checks a run's conservation.
Latencies become seconds only where they are compared with a target
(:func:`reliability_within`) or listed with one +inf per miss
(:meth:`MetricsRecord.latencies`, which the benchmark tracer counts).
Records of equal slot duration merge class by class for replication
aggregation.
"""
from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .core import PacketClass

__all__ = ["EmptySampleError", "MetricsRecord", "merge_records", "reliability_within"]

_NO_SLOTS = np.empty(0, dtype=np.int64)
_CLASSES = tuple(PacketClass)


class EmptySampleError(ValueError):
    """Raised when a statistic is requested over zero samples."""


class MetricsRecord:
    """Per-class arrivals, misses and delivered latencies (slots) of CFF runs
    with one slot duration (seconds)."""

    __slots__ = ("slot_duration", "_classes")

    def __init__(self, slot_duration: float) -> None:
        self.slot_duration = slot_duration
        # per class: [latency slots, misses, arrivals], one lookup an add
        self._classes = {klass: [_NO_SLOTS, 0, 0] for klass in _CLASSES}

    def add(self, klass: PacketClass, latency_slots=(), failed: int = 0, arrived: int = 0) -> None:
        """Append delivered latencies (slots) and count misses and arrivals."""
        entry = self._classes[klass]
        if len(latency_slots):
            entry[0] = np.concatenate((entry[0], np.asarray(latency_slots, dtype=np.int64)))
        entry[1] += failed
        entry[2] += arrived

    def latency_slots(self, klass: PacketClass) -> np.ndarray:
        return self._classes[klass][0]

    def failed(self, klass: PacketClass) -> int:
        return self._classes[klass][1]

    def arrived(self, klass: PacketClass) -> int:
        return self._classes[klass][2]

    def latencies(self, klass: PacketClass) -> List[float]:
        """Delivered latencies in seconds, then one +inf per miss."""
        return (self.latency_slots(klass) * self.slot_duration).tolist() + [math.inf] * self.failed(klass)

    def merge(self, other: "MetricsRecord") -> None:
        """Fold ``other`` into this record, class by class."""
        if other.slot_duration != self.slot_duration:
            raise ValueError(
                f"cannot merge records of slot durations {self.slot_duration} and {other.slot_duration}"
            )
        for klass, entry in other._classes.items():
            self.add(klass, *entry)


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
