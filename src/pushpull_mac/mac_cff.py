"""CFF frame simulator: a contention-free scheduled pull sub-frame followed by
a contention push sub-frame with 1-persistent retransmission.

Arrivals batch at frame boundaries: packets arriving during frame f become
eligible at frame f+1 (the scheduler only knows, and devices only hear the
beacon about, what is pending at the boundary).  Collided push packets
re-contend in every subsequent frame, drawing a fresh uniform slot in that
frame's push sub-frame, until success or the horizon.

Packets are global arrival-slot indices held in int64 arrays.  Only push
contention rounds run frame by frame: the push backlog is an array filtered
after each round.  Capacity probes above the service ceiling back up to ~1e5
contenders per frame, far past what a per-object loop sustains.  The pull
FIFO draws no randomness, so its whole run is served at once in closed form
(:func:`schedule_pull`) from the per-frame arrival counts.  Arrival offsets
are drawn only when a contention round (or the abort check) needs the
backlog, or at the end of the run: all offset draws between two rounds share
one bound, so one draw yields exactly the values of the per-frame draws.
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
    joining: np.ndarray,
    capacity: int,
    slots_per_frame: int,
    start_offset: int = 0,
    packet_slots: int = 1,
) -> np.ndarray:
    """Serve a FIFO over consecutive frames, collision-free, in closed form.

    ``joining[g]`` packets join the back of the queue before frame ``g``'s
    pull sub-frame, which serves up to ``capacity`` packets from the head in
    consecutive ``packet_slots``-wide blocks starting at slot ``start_offset``
    of the frame (frame ``g`` starts at slot ``g * slots_per_frame``).  The
    result is each served packet's delivery slot (the end slot of its block),
    in queue order; the packets past its length are still queued after the
    last frame.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if packet_slots < 1:
        raise ValueError("packet_slots must be >= 1")
    eligible = np.cumsum(joining, dtype=np.int64)
    ramp = capacity * np.arange(eligible.size, dtype=np.int64)
    # served by the end of frame g, D(g) = min(D(g-1) + capacity, eligible(g))
    # with D(-1) = 0, unrolled: capacity*g + min(capacity, min_{h<=g} eligible(h) - capacity*h)
    done = ramp + np.minimum(np.minimum.accumulate(eligible - ramp), capacity)
    per_frame = np.diff(done, prepend=0)
    frame = np.repeat(np.arange(eligible.size, dtype=np.int64), per_frame)
    block = np.arange(frame.size, dtype=np.int64) - np.repeat(done - per_frame, per_frame)
    return frame * slots_per_frame + start_offset + (block + 1) * packet_slots - 1


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
    sub-frame that delivers: the push sub-frames in frame order as they run,
    then the pull sub-frames in frame order.  ``push_abort`` enables the
    certified early exit used by capacity probes far above capacity.
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
    push_ops = config.push_tx_capacity
    push_stride = config.push_packet_slots
    push_start_off = config.data_start_slot + config.pull_slot_budget
    measured_from_slot = warmup_frames * S

    record = MetricsRecord()

    # Canonical draw order: both per-frame count batches up front, then per
    # frame: push contention, pull arrival offsets, push arrival offsets.  The
    # offset draws between two contention rounds are batched into one below.
    pull_counts = sample_frame_arrival_counts(PoissonArrivals(pull_rate, slot_dur), S, horizon_frames, rng)
    push_counts = sample_frame_arrival_counts(PoissonArrivals(push_rate, slot_dur), S, horizon_frames, rng)
    push_per_frame = push_counts.tolist()

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

    # The run's arrivals in stream order (pull f, push f, pull f+1, ...) have
    # known batch sizes.  Frames [0, drawn) have their arrival slots in
    # drawn_parts, and those of their push packets still pending in
    # pend_arrival.
    batches = np.stack((pull_counts, push_counts), axis=1).ravel()
    is_push = np.repeat(np.tile((False, True), horizon_frames), batches)
    frame_base = np.repeat(np.arange(0, horizon_frames * S, S, dtype=np.int64), pull_counts + push_counts)
    frame_start = [0] + np.cumsum(pull_counts + push_counts).tolist()
    drawn_parts = []

    def draw_arrivals(lo: int, hi: int) -> np.ndarray:
        """Draw the arrival slots of frames [lo, hi); return the push ones."""
        a, b = frame_start[lo], frame_start[hi]
        slots = sample_arrival_offsets(batches[2 * lo : 2 * hi], S, rng)
        slots += frame_base[a:b]
        drawn_parts.append(slots)
        return slots[is_push[a:b]]

    drawn = 0
    undrawn_push = 0  # push arrivals of frames [drawn, f)
    pend_arrival = np.empty(0, dtype=np.int64)
    arrived_frames = horizon_frames  # frames whose arrivals joined the queues

    for f in range(horizon_frames):
        # this frame's contention round and abort check read the backlog, and
        # the round's draw follows the offsets of every earlier frame
        if drawn < f and (undrawn_push or pend_arrival.size):
            pend_arrival = np.concatenate((pend_arrival, draw_arrivals(drawn, f)))
            drawn, undrawn_push = f, 0
        # push sub-frame: framed-ALOHA contention among everything pending
        n_pending = pend_arrival.size
        if n_pending and push_ops > 0:
            choices, _, winner_mask = uniform_slot_contention(n_pending, push_ops, rng)
            if winner_mask.any():
                won_arrival = pend_arrival[winner_mask]
                # opportunity k ends at slot f*S + push_start_off + (k+1)*push_stride - 1
                delivery_slots = choices[winner_mask] * push_stride + (f * S + push_start_off + push_stride - 1)
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
                pend_arrival = pend_arrival[:0]

        # certified abort: count packets that became provably late this frame
        # (arrival windows are disjoint across frames, so nothing double-counts)
        if push_abort is not None and pend_arrival.size:
            lo = max(f * S - late_slots + 1, measured_from_slot)
            hi = (f + 1) * S - late_slots
            late_cum += int(np.count_nonzero((pend_arrival >= lo) & (pend_arrival <= hi)))
            if late_cum > late_budget:
                arrived_frames = f
                break

        # arrivals during frame f join the queues after its sub-frames, so they
        # are eligible from frame f+1
        undrawn_push += push_per_frame[f]

    if drawn < arrived_frames:
        pend_arrival = np.concatenate((pend_arrival, draw_arrivals(drawn, arrived_frames)))
    # every run has drawn by now: an abort needs a drawn, nonempty backlog
    all_slots = np.concatenate(drawn_parts)
    pull_arrivals = all_slots[~is_push[: all_slots.size]]  # FIFO order

    # pull sub-frames: contention-free FIFO service, closed form over the
    # frames that ran (an aborted frame's pull sub-frame ran before the abort)
    n_served = 0
    if config.pull_tx_capacity and pull_arrivals.size:
        pull_frames = min(arrived_frames + 1, horizon_frames)
        delivery_slots = schedule_pull(
            np.concatenate(([0], pull_counts[: pull_frames - 1])),
            config.pull_tx_capacity,
            S,
            config.data_start_slot,
            config.pull_packet_slots,
        )
        n_served = delivery_slots.size
        served = pull_arrivals[:n_served]
        lats = (delivery_slots + 1 - served) * slot_dur
        record.extend_deliveries(PacketClass.PULL, lats[served >= measured_from_slot])
        if on_delivery is not None and n_served:
            cuts = np.flatnonzero(np.diff(delivery_slots // S)) + 1
            for arrival, delivery in zip(np.split(served, cuts), np.split(delivery_slots, cuts)):
                on_delivery(PacketClass.PULL, arrival, delivery)

    _close_run(
        record,
        pull_arrivals[n_served:],
        pend_arrival,
        pull_counts,
        push_counts,
        arrived_frames=arrived_frames,
        warmup_frames=warmup_frames,
        measured_from_slot=measured_from_slot,
    )
    return record


def _close_run(
    record: MetricsRecord,
    pull_pending: np.ndarray,
    push_pending: np.ndarray,
    pull_counts: np.ndarray,
    push_counts: np.ndarray,
    arrived_frames: int,
    warmup_frames: int,
    measured_from_slot: int,
) -> None:
    """Close a run at the horizon or an abort: count the measured arrivals,
    and as a miss every pending arrival slot and every arrival of the frames
    from ``arrived_frames`` on (never simulated), keeping arrived ==
    delivered + failed exact.  At the horizon the future slices are empty."""
    start = max(arrived_frames, warmup_frames)
    for klass, pending, counts in (
        (PacketClass.PULL, pull_pending, pull_counts),
        (PacketClass.PUSH, push_pending, push_counts),
    ):
        record.add_arrivals(klass, int(counts[warmup_frames:].sum()))
        record.add_failures(klass, int(np.count_nonzero(pending >= measured_from_slot)) + int(counts[start:].sum()))
