"""CFF frame simulator: a contention-free scheduled pull sub-frame followed by
a contention push sub-frame with 1-persistent retransmission.

Arrivals batch at frame boundaries: packets arriving during frame f become
eligible at frame f+1 (the scheduler only knows, and devices only hear the
beacon about, what is pending at the boundary).  Collided push packets
re-contend in every subsequent frame, drawing a fresh uniform slot in that
frame's push sub-frame, until success or the horizon.

Packets are global arrival-slot indices held in int64 arrays: the pull queue
is a FIFO window over one preallocated buffer, the push backlog an array
filtered after each contention round.  Capacity probes above the service
ceiling back up to ~1e5 contenders per frame, far past what a per-object loop
sustains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import FrameConfig, PacketClass, stable_floor
from .metrics import MetricsRecord
from .traffic import PoissonArrivals, sample_arrival_offsets, sample_frame_arrival_counts

__all__ = ["PushAbortRule", "schedule_pull", "simulate_cff", "uniform_slot_contention"]

# on_delivery(klass, arrival_slots, delivery_slots), once per delivering sub-frame
DeliveryCallback = Callable[[PacketClass, np.ndarray, np.ndarray], None]


@dataclass(frozen=True, slots=True)
class PushAbortRule:
    """Certified early exit for capacity probes.

    Once the count of push packets that are provably late (their deadline
    passed while still pending) exceeds the run's miss budget
    (1 - target_reliability) x total measured arrivals, the final reliability
    cannot reach the target, so the run may stop.  The returned record then
    understates reliability (remaining arrivals count as misses) but the
    pass/fail comparison against the target is exact, and the run stays
    deterministic.
    """

    latency_target: float  # seconds
    target_reliability: float

    def __post_init__(self) -> None:
        if not (self.latency_target > 0):
            raise ValueError("latency_target must be positive")
        if not 0.0 < self.target_reliability <= 1.0:
            raise ValueError("target_reliability must be in (0,1]")


def uniform_slot_contention(
    n_contenders: int, n_slots: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Framed-ALOHA contention round.

    Every contender picks one of ``n_slots`` slots uniformly and independently;
    a slot chosen by exactly one contender is a success.  Returns
    (choices, per-slot counts, per-contender winner mask).
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    choices = rng.integers(0, n_slots, size=n_contenders, dtype=np.int64)
    counts = np.bincount(choices, minlength=n_slots)
    winner_mask = counts[choices] == 1
    return choices, counts, winner_mask


def schedule_pull(
    queue: np.ndarray, capacity: int, frame_start_slot: int = 0, packet_slots: int = 1
) -> np.ndarray:
    """Serve up to ``capacity`` packets from the head of ``queue``, collision-free.

    ``queue`` holds the pending arrival slots, oldest first.  Served packets
    fill consecutive ``packet_slots``-wide blocks starting at
    ``frame_start_slot``; the result is each one's delivery slot (the end slot
    of its block), in queue order.  The caller drops that many packets off the
    head; the rest stay queued for the next frame.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if packet_slots < 1:
        raise ValueError("packet_slots must be >= 1")
    n_served = min(len(queue), capacity)
    return frame_start_slot - 1 + packet_slots * np.arange(1, n_served + 1, dtype=np.int64)


def simulate_cff(
    config: FrameConfig,
    pull_rate: float,
    push_rate: float,
    horizon_frames: int,
    seed: int,
    *,
    warmup_frames: int = 0,
    push_retransmit: bool = True,
    on_delivery: Optional[DeliveryCallback] = None,
    push_abort: Optional[PushAbortRule] = None,
) -> MetricsRecord:
    """Run ``horizon_frames`` CFF frames and return the metrics record.

    Packets arriving during warm-up frames are simulated but not measured.
    Anything undelivered at the horizon counts as failed (latency +inf).
    ``push_retransmit=False`` drops collided push packets after their single
    attempt (slotted-ALOHA test mode).  ``on_delivery(klass, arrival_slots,
    delivery_slots)`` sees every delivery, warm-up included, once per
    sub-frame that delivers.  ``push_abort`` enables the certified early exit
    used by capacity probes far above capacity.
    """
    if horizon_frames < 1:
        raise ValueError(f"horizon_frames must be >= 1, got {horizon_frames}")
    if pull_rate < 0 or push_rate < 0:
        raise ValueError("rates must be >= 0")
    if not 0 <= warmup_frames < horizon_frames:
        raise ValueError(f"warmup_frames must be in [0, {horizon_frames}), got {warmup_frames}")

    rng = np.random.default_rng(seed)
    S = config.slots_per_frame
    slot_dur = config.slot_duration
    pull_capacity = config.pull_tx_capacity
    pull_stride = config.pull_packet_slots
    push_ops = config.push_tx_capacity
    push_stride = config.push_packet_slots
    pull_start_off = config.data_start_slot
    push_start_off = config.data_start_slot + config.pull_slot_budget
    measured_from_slot = warmup_frames * S

    record = MetricsRecord()
    empty_i64 = np.empty(0, dtype=np.int64)

    # Canonical draw order: both per-frame count batches up front, then per
    # frame: push contention, pull arrival offsets, push arrival offsets.
    pull_proc = PoissonArrivals(pull_rate, slot_dur)
    push_proc = PoissonArrivals(push_rate, slot_dur)
    pull_counts = sample_frame_arrival_counts(pull_proc, S, horizon_frames, rng)
    push_counts = sample_frame_arrival_counts(push_proc, S, horizon_frames, rng)

    # certified-abort bookkeeping: with counts batched, the run's total
    # measured arrivals (and hence its miss budget) are known exactly
    late_slots = 0
    late_budget = math.inf
    late_cum = 0
    if push_abort is not None:
        # latency <= target  <=>  delivery_slot - arrival_slot + 1 <= late_slots
        late_slots = stable_floor(push_abort.latency_target / slot_dur)
        total_measured_push = int(push_counts[warmup_frames:].sum())
        late_budget = (1.0 - push_abort.target_reliability) * total_measured_push

    # pending packets as arrival slots: the pull FIFO is pull_arrivals[head:tail]
    # (arrival order), the push backlog pend_arrival
    pull_arrivals = np.empty(int(pull_counts.sum()), dtype=np.int64)
    head = tail = 0
    pend_arrival = empty_i64

    for f in range(horizon_frames):
        base = f * S
        measured_frame = f >= warmup_frames

        # pull sub-frame: contention-free FIFO service
        if pull_capacity and head < tail:
            delivery_slots = schedule_pull(
                pull_arrivals[head:tail], pull_capacity, base + pull_start_off, pull_stride
            )
            served = pull_arrivals[head : head + delivery_slots.size]
            head += delivery_slots.size
            lats = (delivery_slots + 1 - served) * slot_dur
            record.extend_deliveries(PacketClass.PULL, lats[served >= measured_from_slot])
            if on_delivery is not None:
                on_delivery(PacketClass.PULL, served, delivery_slots)

        # push sub-frame: framed-ALOHA contention among everything pending
        n_pending = pend_arrival.size
        if n_pending and push_ops > 0:
            choices, _, winner_mask = uniform_slot_contention(n_pending, push_ops, rng)
            if winner_mask.any():
                won_arrival = pend_arrival[winner_mask]
                delivery_slots = base + push_start_off + (choices[winner_mask] + 1) * push_stride - 1
                lats = (delivery_slots + 1 - won_arrival) * slot_dur
                record.extend_deliveries(PacketClass.PUSH, lats[won_arrival >= measured_from_slot])
                if on_delivery is not None:
                    on_delivery(PacketClass.PUSH, won_arrival, delivery_slots)
            loser_mask = ~winner_mask
            if push_retransmit:
                pend_arrival = pend_arrival[loser_mask]
            else:
                lost = int(np.count_nonzero(pend_arrival[loser_mask] >= measured_from_slot))
                record.add_failures(PacketClass.PUSH, lost)
                pend_arrival = empty_i64

        # certified abort: count packets that became provably late this frame
        # (arrival windows are disjoint across frames, so nothing double-counts)
        if push_abort is not None and pend_arrival.size:
            hi = (f + 1) * S - late_slots
            lo_bound = f * S - late_slots
            late_cum += int(
                np.count_nonzero(
                    (pend_arrival > lo_bound)
                    & (pend_arrival <= hi)
                    & (pend_arrival >= measured_from_slot)
                )
            )
            if late_cum > late_budget:
                _finalize_aborted(
                    record,
                    pull_arrivals[head:tail],
                    pend_arrival,
                    pull_counts,
                    push_counts,
                    first_unsimulated_frame=f,
                    warmup_frames=warmup_frames,
                    measured_from_slot=measured_from_slot,
                )
                return record

        # arrivals during frame f join the queues after its sub-frames, so they
        # are eligible from frame f+1
        n_pull = int(pull_counts[f])
        if n_pull:
            pull_arrivals[tail : tail + n_pull] = base + sample_arrival_offsets(n_pull, S, rng)
            tail += n_pull
            if measured_frame:
                record.add_arrivals(PacketClass.PULL, n_pull)
        n_push = int(push_counts[f])
        if n_push:
            pend_arrival = np.concatenate((pend_arrival, base + sample_arrival_offsets(n_push, S, rng)))
            if measured_frame:
                record.add_arrivals(PacketClass.PUSH, n_push)

    # horizon: everything still pending fails with latency +inf
    _finalize_aborted(
        record,
        pull_arrivals[head:tail],
        pend_arrival,
        pull_counts,
        push_counts,
        first_unsimulated_frame=horizon_frames,
        warmup_frames=warmup_frames,
        measured_from_slot=measured_from_slot,
    )
    return record


def _finalize_aborted(
    record: MetricsRecord,
    pull_pending: np.ndarray,
    push_pending: np.ndarray,
    pull_counts: np.ndarray,
    push_counts: np.ndarray,
    first_unsimulated_frame: int,
    warmup_frames: int,
    measured_from_slot: int,
) -> None:
    """Close a run at the horizon or an abort: every pending arrival slot and
    every not-yet-simulated arrival counts as a miss, keeping arrived ==
    delivered + failed exact.  At the horizon the future slices are empty."""
    record.add_failures(PacketClass.PULL, int(np.count_nonzero(pull_pending >= measured_from_slot)))
    record.add_failures(PacketClass.PUSH, int(np.count_nonzero(push_pending >= measured_from_slot)))
    start = max(first_unsimulated_frame, warmup_frames)
    future_pull = int(pull_counts[start:].sum())
    future_push = int(push_counts[start:].sum())
    record.add_arrivals(PacketClass.PULL, future_pull)
    record.add_failures(PacketClass.PULL, future_pull)
    record.add_arrivals(PacketClass.PUSH, future_push)
    record.add_failures(PacketClass.PUSH, future_push)
