"""Latency and reliability accounting for CFF runs, in slot units.

A :class:`MetricsRecord` keeps, per traffic class, the measured arrivals, the
measured misses (packets never delivered) and an int64 array of delivered
latencies in slots.  The delivered count is the array's length, so
``len(latency_slots) + failed == arrived`` checks a run's conservation.
A target in seconds becomes whole slots only in :func:`slot_budget`, the
on-time rule of :func:`reliability_within` and the push abort.  Latencies become
seconds only in :meth:`MetricsRecord.latencies`, which the tracer counts.
Records of equal slot duration merge class by class for replication
aggregation (:func:`merge_records`).
"""
from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .core import PacketClass

__all__ = ["EmptySampleError", "MetricsRecord", "merge_records", "reliability_within", "slot_budget"]

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


def merge_records(records: Iterable[MetricsRecord]) -> MetricsRecord:
    """Merge records of one slot duration class by class, in the given
    (replication-index) order: one concatenation per class."""
    records = list(records)
    if not records:
        raise ValueError("merge_records needs at least one record: the merged record takes its slot duration")
    merged = MetricsRecord(records[0].slot_duration)
    for rec in records:
        if rec.slot_duration != merged.slot_duration:
            raise ValueError(
                f"cannot merge records of slot durations {merged.slot_duration} and {rec.slot_duration}"
            )
    for klass, entry in merged._classes.items():
        entry[0] = np.concatenate([rec.latency_slots(klass) for rec in records])
        entry[1] = sum(rec.failed(klass) for rec in records)
        entry[2] = sum(rec.arrived(klass) for rec in records)
    return merged


def slot_budget(latency_target: float, slot_duration: float) -> int:
    """The most whole slots k with float64 ``k * slot_duration <= latency_target``
    (seconds): floor(L / dt) moved a step or two at most.  A latency is on time
    iff it is at most the budget; on the paper frame 300 * 1e-4 > 0.03, so the
    budget at 30 ms is 299.  An infinite target puts every latency on time."""
    if latency_target == math.inf:
        return int(np.iinfo(np.int64).max)
    k = math.floor(latency_target / slot_duration)
    while k * slot_duration > latency_target:
        k -= 1
    while (k + 1) * slot_duration <= latency_target:
        k += 1
    return k


def reliability_within(record: MetricsRecord, klass: PacketClass, latency_target: float) -> float:
    """Fraction of arrived packets of ``klass`` delivered within ``latency_target``
    seconds, that is within its :func:`slot_budget`.  Misses sit in the
    arrival denominator."""
    arrived = record.arrived(klass)
    if arrived == 0:
        raise EmptySampleError(f"no {klass.value} arrivals recorded")
    met = np.count_nonzero(record.latency_slots(klass) <= slot_budget(latency_target, record.slot_duration))
    return int(met) / arrived
