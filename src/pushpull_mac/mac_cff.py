"""CFF frame simulator: a contention-free scheduled pull sub-frame followed by
a contention push sub-frame with 1-persistent retransmission.

Arrivals batch at frame boundaries: packets arriving during frame f become
eligible at frame f+1 (the scheduler only knows, and devices only hear the
beacon about, what is pending at the boundary).  Collided push packets
re-contend in every subsequent frame, drawing a fresh uniform slot in that
frame's push sub-frame, until success or the horizon.

Random stream.  After the two per-frame count draws, every draw of a run is
a bounded 32-bit integer draw, in this order per frame: the push contention
round (one draw below ``push_tx_capacity`` per pending packet, as
:func:`uniform_slot_contention` makes it), then the frame's pull and push
arrival offsets (below S, as :func:`sample_arrival_offsets` makes them).
These two are the per-draw forms of what ``simulate_cff`` replays; no kernel
calls them.  With no doubles left to draw, numpy's buffered high half is
simply the next half, so these draws are consecutive 32-bit halves of the
raw PCG64 output.  ``simulate_cff`` fetches that output a window at a time
and replays numpy's bounded-integer rule on it (:mod:`.rawdraw`), so a seed
gives the records of the per-draw ``Generator`` calls.  A take of n draws
spans n halves and those the rule rejects among them, listed once per bound
and window (:class:`_HalfStream`); only the values a round needs are
computed (see below).  If numpy changes that rule, the pinned outputs in the
tests fail instead of the output changing silently.

The framed-ALOHA rule (a slot chosen by exactly one contender succeeds) is
written once, in :func:`contention_rounds`, for one round or many at once;
it returns who won.  Every array kernel decides its rounds with it: the push
rounds here, the shared rounds of :mod:`.mac_rcs`, and the per-draw
:func:`uniform_slot_contention`.  Its one scalar form is the RCS reserved
round (see :mod:`.mac_rcs` for why it stays scalar).

Packets are global arrival-slot indices held in int64 arrays.  Only push
contention rounds run frame by frame: the pending push packets are ascending
indices into the run's push arrivals (arrival slots never decrease with the
index), a round is one :func:`contention_rounds` call over a slice of draws
computed ahead (for a window's worth of short rounds, or for one long
round), and offset draws are only taken.  Capacity probes stay below the
service ceiling (``capacity.max_class_rate``) and push probes stop at their
certified abort, so their backlogs stay moderate: the largest push round
computed is 610 contenders in the benchmark's ``cff_frontier`` workload and
about 9500 in ``configs/cff_frontier.json``.  Fixed-rate overloads back up
further (about 13500 in the benchmark's ``cff_mixed`` at alpha 0.8), past
what a per-object loop sustains.  Such a collapsed backlog redraws every frame and
almost never wins: if the first ``_PREFIX_PER_SLOT`` x K draws of a round
(K = ``push_tx_capacity`` >= 2) already put two in every slot, no slot can
end with exactly one, so the round has no winner, exactly.  A winnerless round
leaves the pending packets as they are, so the next frame's round size is
known: the pending ones plus the frame's arrivals.  In a run that
retransmits and has no abort rule, once more than 16 x K packets are
pending, ``_HalfStream.take_winnerless`` takes a stretch of frames in one
step: it fetches their halves at once, rejection-checks them, certifies
every round's prefix from the slot counts of one ``np.bincount`` call
over all the prefixes and computes nothing more of the rounds.  The frame
loop joins the taken frames' arrivals to the backlog at once.  The first
frame that fails (its prefix leaves a slot with fewer than two, or the rule
rejects a half of it below K or of its offsets below S) ends the stretch and
runs frame by frame, its round computed in full.  Runs with an abort rule or
without retransmission go frame by frame throughout.

A frame step does only what the next frame depends on: one stream call
(``_HalfStream.step``, mostly one comparison and a slice) takes the round's
draws, then the frame's offsets, or with nothing pending the offsets of
every frame up to the next push arrival; the round is decided, its losers
kept pending and the frame's push arrivals appended.  Nothing reads a
delivery before the run ends, so a decided round is held as it is (the
frame, and references to its pending packets, draws and win mask) and the
winners' delivery slots are settled in bulk, many rounds in one pass: once
the held rounds pass ``_HELD_CONTENDERS`` contenders, which bounds the
memory they keep alive, and once after the loop.  The abort check after
frame f counts frame f - lag's pending packets with two binary searches, but
only when the oldest pending packet arrived in that frame or before: the
pending packets ascend, so otherwise none of that frame's is pending,
exactly; near capacity that is most frames.  The abort frame's offsets were
taken in its step; closing the stream cuts the offsets at the frames that
arrived.  At the end of the run the offsets are lifted to arrival slots in
one sort, latencies and ``on_delivery`` calls are built from the settled
winners, and the pull FIFO, which draws no randomness, is served in closed
form (:func:`schedule_pull`).

The run record (:class:`MetricsRecord`) is a frozen value that
``simulate_cff`` builds once at the end of a run, and :func:`merge_records`
once per pooling.  Per class it holds an int64 array of the measured
deliveries' latencies in slots, the misses and the measured arrivals, so
``len(latency_slots) + failed == arrived``.  :func:`reliability_within`
counts a latency on time iff it is within :func:`~.core.slot_budget`, the
push abort's rule, and reads None for a class with no arrival, as the RCS
push success probability does with no push attempted.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .core import FrameConfig, PacketClass, slot_budget
from .rawdraw import bounded, halves_of, rejected, span_end, span_halves

__all__ = [
    "MetricsRecord", "PushAbortRule", "merge_records", "reliability_within", "schedule_pull", "simulate_cff",
    "uniform_slot_contention", "sample_arrival_offsets"
]

# on_delivery(klass, arrival_slots, delivery_slots), once per delivering sub-frame
DeliveryCallback = Callable[[PacketClass, np.ndarray, np.ndarray], None]

# raw 64-bit outputs fetched at a time; a take longer than that fetches what it needs
_WINDOW_WORDS = 4096

# draws per slot in the prefix that certifies a long round winnerless (see
# above); a winnerless round of K slots still fails the check, and runs frame
# by frame, when some slot holds fewer than two of them: probability about
# 17 * K * exp(-16) (4e-5 at K = 20)
_PREFIX_PER_SLOT = 16

# (round, slot) pairs a contention_rounds call counts in full (int64, 512 KiB)
# when they outnumber its contenders; past that it counts only the slots
# chosen.  No benchmark or acceptance configuration gets there: push rounds
# have at most a few hundred slots, and an RCS window of the benchmark's
# population (about 125 frames) stays under it up to 512 shared slots.
_DENSE_SLOTS = 2**16

# contenders of the push rounds held before their winners are settled in one
# pass; a held round keeps its pending packets, its win mask and its draws
# alive, and its draws may be a view of a whole window of them, so a larger
# cap costs memory on collapsed backlogs (2**16 raised the peak RSS of
# cff_mixed sweeps by 1.3 MiB, 3.5 %), a smaller one settles more often
_HELD_CONTENDERS = 2**10

# a count of one as a 0-d array: comparing with it skips the promotion of a
# Python int, about half the cost of the comparison on a round's few counts
_ONE = np.array(1, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    """Per-class delivered latencies (int64 slots, in delivery order), misses
    and arrivals of CFF runs with one slot duration (seconds)."""

    slot_duration: float
    classes: Dict[PacketClass, Tuple[np.ndarray, int, int]]

    def latency_slots(self, klass: PacketClass) -> np.ndarray:
        return self.classes[klass][0]

    def failed(self, klass: PacketClass) -> int:
        return self.classes[klass][1]

    def arrived(self, klass: PacketClass) -> int:
        return self.classes[klass][2]

    def latencies(self, klass: PacketClass) -> List[float]:
        """Delivered latencies in seconds, then one +inf per miss."""
        return (self.latency_slots(klass) * self.slot_duration).tolist() + [math.inf] * self.failed(klass)


def merge_records(records: Iterable[MetricsRecord]) -> MetricsRecord:
    """Merge records of one slot duration class by class, in the given
    (replication-index) order: one concatenation per class."""
    records = list(records)
    if not records:
        raise ValueError("merge_records needs at least one record: the merged record takes its slot duration")
    slot_duration = records[0].slot_duration
    for rec in records:
        if rec.slot_duration != slot_duration:
            raise ValueError(f"cannot merge records of slot durations {slot_duration} and {rec.slot_duration}")
    return MetricsRecord(
        slot_duration,
        {
            klass: (
                np.concatenate([rec.latency_slots(klass) for rec in records]),
                sum(rec.failed(klass) for rec in records),
                sum(rec.arrived(klass) for rec in records),
            )
            for klass in PacketClass
        },
    )


def reliability_within(record: MetricsRecord, klass: PacketClass, latency_target: float) -> Optional[float]:
    """Fraction of the arrived ``klass`` packets delivered within
    ``latency_target`` seconds, that is within its :func:`~.core.slot_budget`
    (misses sit in the denominator); None when no packet of the class arrived."""
    arrived = record.arrived(klass)
    if not arrived:
        return None
    met = np.count_nonzero(record.latency_slots(klass) <= slot_budget(latency_target, record.slot_duration))
    return int(met) / arrived


@dataclass(frozen=True, slots=True)
class PushAbortRule:
    """Certified early exit for capacity probes.

    Lateness is judged per arrival frame, from arrival counts alone.  A push
    packet of frame g still pending after frame f's round is delivered at
    slot (f+1) x S or later, so its latency is at least (f - g) x S + 2
    slots.  It is late once that exceeds the target's slot budget B
    (:func:`~.core.slot_budget`, the reliability metric's rule), so
    every packet of frame g is late from frame g + lag on, lag = max(1,
    ceil((B - 1) / S)), and the rule counts frame g's packets still pending
    after that frame's round.  This lags a per-slot deadline by at most one
    frame.  Once the count exceeds the run's miss budget (1 -
    target_reliability) x total measured arrivals, the final reliability
    cannot reach the target, so the run may stop.  The returned record then
    understates reliability (remaining arrivals count as misses) but the
    pass/fail comparison against the target is exact, and the run stays
    deterministic.  A run that does not stop gives the same record as without
    the rule.  The capacity evaluator gives every push run the probe's own
    target.
    """

    latency_target: float  # seconds
    target_reliability: float

    def __post_init__(self) -> None:
        if not 0 < self.latency_target < math.inf:
            raise ValueError("latency_target must be positive and finite")
        if not 0.0 < self.target_reliability <= 1.0:
            raise ValueError("target_reliability must be in (0,1]")


def contention_rounds(
    choice: np.ndarray, n_slots: int, group: Optional[np.ndarray] = None, n_groups: int = 1
) -> np.ndarray:
    """The framed-ALOHA rule: a slot chosen by exactly one contender is a
    success (Schoute 1983).  Every array kernel decides its rounds here.

    Contender i picks slot ``choice[i]`` (int64, below ``n_slots``) of round
    ``group[i]`` (below ``n_groups``); without ``group`` all contenders share
    one round.  Returns the per-contender win mask.  With one slot a lone
    contender wins; with none nobody does and only ``len(choice)`` is read.
    Rounds of more than ``_DENSE_SLOTS`` (round, slot) pairs in all, and more
    pairs than contenders, count only the slots chosen, so memory follows
    the contenders, not the slots.
    """
    if n_slots < 1:
        return np.zeros(len(choice), dtype=bool)
    key = choice if group is None else group * n_slots + choice
    if n_groups * n_slots <= _DENSE_SLOTS or n_groups * n_slots <= len(key):
        return np.bincount(key)[key] == _ONE
    _, inverse, seen = np.unique(key, return_inverse=True, return_counts=True)
    return seen[inverse] == _ONE


def uniform_slot_contention(
    n_contenders: int, n_slots: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Framed-ALOHA contention round, drawn per call.

    Every contender picks one of ``n_slots`` slots uniformly and independently
    and :func:`contention_rounds` decides the round.  Returns (choices,
    per-slot counts, per-contender winner mask).
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    choices = rng.integers(0, n_slots, size=n_contenders, dtype=np.int64)
    return choices, np.bincount(choices, minlength=n_slots), contention_rounds(choices, n_slots)


def sample_arrival_offsets(counts: np.ndarray, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Slot offsets within a frame for consecutive arrival batches, ascending
    within each batch, drawn per call.

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


def schedule_pull(
    joining: np.ndarray,
    capacity: int,
    slots_per_frame: int,
    packet_slots: int = 1,
) -> np.ndarray:
    """Serve a FIFO over consecutive frames, collision-free, in closed form.

    ``joining[g]`` packets join the back of the queue before frame ``g``'s
    pull sub-frame, which serves up to ``capacity`` packets from the head in
    consecutive ``packet_slots``-wide blocks starting at the frame's first
    slot (frame ``g`` starts at slot ``g * slots_per_frame``).  The
    result is each served packet's delivery slot (the end slot of its block),
    in queue order; the packets past its length are still queued after the
    last frame.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if packet_slots < 1:
        raise ValueError("packet_slots must be >= 1")
    frames = np.arange(len(joining), dtype=np.int64)
    ramp = capacity * frames
    # served by the end of frame g, D(g) = min(D(g-1) + capacity, eligible(g))
    # with D(-1) = 0, unrolled: capacity*g + min(capacity, min_{h<=g} eligible(h) - capacity*h)
    done = ramp + np.minimum(np.minimum.accumulate(np.cumsum(joining, dtype=np.int64) - ramp), capacity)
    before = np.concatenate(([0], done[:-1]))  # D(g-1)
    # the k-th packet served, in frame g, ends block k - D(g-1) of that frame
    served = np.repeat(frames * slots_per_frame - before * packet_slots, done - before)
    first_end = packet_slots - 1  # where block 0 of frame 0 ends
    return served + np.arange(first_end, first_end + served.size * packet_slots, packet_slots)


class _HalfStream:
    """A run's bounded draws: consecutive 32-bit halves of raw PCG64 output,
    fetched about ``_WINDOW_WORDS`` outputs at a time (the first window about
    as many as the run is expected to take, if fewer).

    ``step(n, m)`` takes a frame's draws: its round's n draws below the push
    capacity, returned, then its m arrival offsets below S.  A step that ends
    by ``limit`` (the window's end, the end of the push draws computed, or
    the first listed rejected half of either bound; -1 until both lists are
    built, and while a draw below the push capacity or S consumes nothing)
    is one comparison and a slice.  Any other take goes through ``_take(n,
    bound)``, which refills and lists a bound's rejected halves once a
    window, from its first take there to the window's end (one list if S
    equals the push capacity).  ``take_winnerless`` takes whole frames whose
    rounds it certifies winnerless (see the module docstring), fetching at
    most ``budget`` halves unless the first frame needs more; it computes
    only their prefixes and their offsets.  The offsets of a window's steps
    are read in one gather when it is dropped, and ``close(count)`` returns
    the first count taken, in stream order.  A take lies in one window: a
    window that falls short is replaced by its unused tail plus fresh output.
    The push draws are computed from a round's first half to its end, or a
    window's worth ahead when rounds are short (to the window's end, they
    raised cff_mixed's peak RSS by 1 %).  The window lives in one buffer kept
    for the run: a fresh one per refill fragmented the heap (+0.7 MiB peak
    on cff_mixed).
    """

    def __init__(self, bit_generator: np.random.BitGenerator, n_slots: int, push_ops: int, expected: int) -> None:
        self.bit_generator = bit_generator
        self.n_slots = n_slots
        self.push_ops = push_ops
        self.prefix = _PREFIX_PER_SLOT * push_ops  # a longer backlog is taken in stretches
        self.budget = 16 * _WINDOW_WORDS  # halves a stretch of winnerless frames fetches at most (2**16)
        self.ahead = min(_WINDOW_WORDS, expected // 2)  # words a refill fetches past the take's need
        self.buffer = np.empty(0, dtype=np.uint64)  # holds the window's words at its front
        self.words = self.buffer
        self.halves = halves_of(self.words)
        self.size = 0  # halves in the window
        self.h = 0  # next unused half
        self.limit = -1  # a step ending by here holds no rejected half and only computed push draws
        self.rejected: Dict[int, List[int]] = {}  # bound -> its rejected halves, once listed
        self.choice_from = self.choice_to = -1  # the halves the push draws are computed for, if any
        self.choice = np.empty(0, dtype=np.int64)  # choice[i - choice_from]: the draw below push_ops from half i
        self.spans: List[int] = []  # offset takes in this window: start, end, start, end, ...
        self.read: List[np.ndarray] = []  # offset draws of dropped windows

    def _refill(self, short: int) -> None:
        """Keep the window's unused tail and append at least ``short`` halves."""
        self._read_spans()
        keep = self.h // 2
        tail = self.words[keep:]
        fresh = self.bit_generator.random_raw(self.ahead + (short + 1) // 2)
        self.ahead = _WINDOW_WORDS
        n = len(tail) + len(fresh)
        if len(self.buffer) < n:
            self.buffer = np.empty(max(n, 2 * len(self.buffer)), dtype=np.uint64)
        self.buffer[: len(tail)] = tail  # may overlap the tail; numpy copies safely
        self.buffer[len(tail) : n] = fresh
        self.words = self.buffer[:n]
        self.h -= 2 * keep
        self.halves = halves_of(self.words)
        self.size = len(self.halves)
        self.rejected, self.choice_to, self.limit = {}, -1, -1  # of the dropped window

    def _take(self, n: int, bound: int) -> Tuple[int, int]:
        """The span of halves that yields the next ``n`` draws below ``bound``."""
        end = self.h + n
        while True:
            if end > self.size:
                self._refill(end - self.size)
                end = self.h + n
            rej = self.rejected.get(bound)
            if rej is None:
                rej = self.rejected[bound] = [self.h + i for i in rejected(self.halves[self.h :], bound)]
            if rej:
                end = span_end(self.h, n, rej)
            if end <= self.size:
                h, self.h = self.h, end
                return h, end

    def step(self, n: int, m: int) -> np.ndarray:
        """Take a frame's draws: a contention round's ``n`` slot choices
        (returned, int64), then ``m`` arrival offsets."""
        h = self.h
        end = h + n + m
        if end <= self.limit:
            self.h = end
            self.spans += (h + n, end)
            return self.choice[h - self.choice_from : h + n - self.choice_from]
        if self.push_ops < 2 or not n:  # a bound-1 draw is 0 and consumes nothing
            choice = np.zeros(n, dtype=np.int64)
        else:
            h, end = self._take(n, self.push_ops)
            if end > self.choice_to:
                self.choice_from, self.choice_to = h, min(self.size, max(end, h + 2 * _WINDOW_WORDS))
                self.choice = bounded(self.halves[h : self.choice_to], self.push_ops)
            choice = self.choice[h - self.choice_from : end - self.choice_from]
            if end - h > n:  # drop the span's rejected halves
                rej = self.rejected[self.push_ops]
                first = bisect_left(rej, h)
                choice = np.delete(choice, [i - h for i in rej[first : first + end - h - n]])
        if m and self.n_slots >= 2:
            span = self._take(m, self.n_slots)  # may refill, which reads and resets spans
            self.spans += span
        self.limit = min(self.size, self.choice_to) if min(self.push_ops, self.n_slots) >= 2 else -1
        for bound in (self.push_ops, self.n_slots):
            rej = self.rejected.get(bound)
            if rej is None:  # not listed in this window yet
                self.limit = -1
            elif rej and rej[-1] >= self.h:
                self.limit = min(self.limit, rej[bisect_left(rej, self.h)])
        return choice

    def take_winnerless(self, rounds: np.ndarray, offsets: np.ndarray) -> int:
        """Take whole frames in bulk, from the first, while each one's
        contention round is certified winnerless (see the module docstring);
        returns how many.

        Candidate frame j draws a round of ``rounds[j]`` choices, more than
        ``prefix`` of them, then ``offsets[j]`` arrival offsets.  The frames
        that fit ``budget`` halves (at least one) are fetched at once, and
        one ``bincount`` over all their prefixes counts each round's slots.
        The first frame that fails ends the stretch untaken: its prefix leaves
        a slot with fewer than two, or the rule rejects a half of it below K
        or of its offsets below S.
        """
        sizes = rounds + offsets
        ends = np.cumsum(sizes)
        m = max(1, int(ends.searchsorted(self.budget, "right")))
        ends, rounds, offsets = ends[:m], rounds[:m], offsets[:m]
        need = int(ends[-1])
        if self.h + need > self.size:
            self._refill(self.h + need - self.size)
        halves = self.halves[self.h : self.h + need]
        starts = ends - sizes[:m]
        ok = m
        rej = rejected(halves, self.push_ops)
        if rej:
            ok = int(ends.searchsorted(rej[0], "right"))
        o_ends = np.cumsum(offsets)
        drawn = halves[span_halves(np.column_stack((ends - offsets, ends)).ravel())]
        rej = rejected(drawn, self.n_slots)
        ok = min(ok, int(o_ends.searchsorted(rej[0], "right"))) if rej else ok
        if ok:  # the prefixes' slot counts, all rounds at once, certify every round
            K = self.push_ops
            choice = bounded(halves[(starts[:ok, None] + np.arange(self.prefix)).ravel()], K)
            key = choice + np.arange(0, ok * K, K).repeat(self.prefix)  # round r's slot s counts at r*K + s
            fails = np.flatnonzero(np.bincount(key, minlength=ok * K).reshape(ok, K).min(axis=1) < 2)
            ok = int(fails[0]) if fails.size else ok
        if ok:
            self.h += int(ends[ok - 1])
            self._read_spans()
            self.read.append(bounded(drawn[: int(o_ends[ok - 1])], self.n_slots))
        return ok

    def _read_spans(self) -> None:
        """Compute the offset draws taken in this window, in one gather."""
        if not self.spans:
            return
        index = span_halves(self.spans)
        if self.rejected[self.n_slots]:  # drop the spans' rejected halves
            index = index[~np.isin(index, self.rejected[self.n_slots])]
        self.read.append(bounded(self.halves[index], self.n_slots))
        self.spans = []

    def close(self, count: int) -> np.ndarray:
        """The first ``count`` offset draws taken, in stream order (int64);
        drops the window."""
        if self.n_slots == 1:
            return np.zeros(count, dtype=np.int64)
        self._read_spans()
        offsets = np.concatenate(self.read) if self.read else np.empty(0, dtype=np.int64)
        self.buffer = self.words = self.halves = self.choice = self.read = None
        return offsets[:count]


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
    The record holds the measured packets' latencies in slots; anything
    undelivered at the horizon counts as a miss.
    ``push_retransmit=False`` drops collided push packets after their single
    attempt (slotted-ALOHA test mode).  ``on_delivery(klass, arrival_slots,
    delivery_slots)`` sees every delivery, warm-up included, once per
    sub-frame that delivers: the push sub-frames in frame order, then the
    pull sub-frames in frame order.  ``push_abort`` enables the certified
    early exit used by capacity probes far above capacity.
    """
    if horizon_frames < 1:
        raise ValueError(f"horizon_frames must be >= 1, got {horizon_frames}")
    for rate in (pull_rate, push_rate):
        if not 0 <= rate < math.inf:
            raise ValueError(f"rates must be finite and >= 0, got {rate}")
    if not 0 <= warmup_frames < horizon_frames:
        raise ValueError(f"warmup_frames must be in [0, {horizon_frames}), got {warmup_frames}")
    S = config.slots_per_frame
    push_ops = config.push_tx_capacity

    rng = np.random.default_rng(seed)
    slot_dur = config.slot_duration
    push_stride = config.push_packet_slots
    measured_from_slot = warmup_frames * S

    # Canonical draw order: both per-frame Poisson count batches up front (a
    # zero rate draws nothing), then per frame: push contention, pull arrival
    # offsets, push arrival offsets.
    pull_counts, push_counts = (
        rng.poisson(rate * slot_dur * S, size=horizon_frames).astype(np.int64)
        if rate
        else np.zeros(horizon_frames, dtype=np.int64)
        for rate in (pull_rate, push_rate)
    )
    # push packets are numbered in arrival order: packet i arrives in frame g
    # iff cum_push[g] <= i < cum_push[g+1]; the lists are the loop's scalar views
    co = np.concatenate(([0], np.cumsum(pull_counts + push_counts)))
    cp = np.concatenate(([0], np.cumsum(push_counts)))
    cum_offsets, cum_push = co.tolist(), cp.tolist()
    n_warm = cum_push[warmup_frames]  # push packets from this index on are measured

    # Certified-abort bookkeeping.  With counts batched, the run's total
    # measured arrivals (and hence its miss budget) are known exactly.  A
    # push packet of frame g still pending after frame f's round is delivered
    # at slot (f+1)*S or later, so its latency is at least (f-g)*S + 2 slots:
    # every packet of frame g is late from frame g + lag on.  After frame f's
    # round the newly late packets are the pending ones of frame f - lag, an
    # index range of pend.
    late_cum = 0
    late_budget = math.inf
    lag = 1
    abort = push_abort is not None
    if abort:
        late_budget = (1.0 - push_abort.target_reliability) * (cum_push[-1] - n_warm)
        lag = max(1, -(-(slot_budget(push_abort.latency_target, slot_dur) - 1) // S))

    # a first window of about the run's offsets and two draws per push arrival
    stream = _HalfStream(rng.bit_generator, S, push_ops, cum_offsets[-1] + 2 * cum_push[-1])
    ids = np.arange(cum_push[-1])  # slices of it join pend
    pend = ids[:0]  # pending push packets, ascending
    # rounds not yet settled, (frame, pending, choices, win mask, size): references,
    # since every round replaces pend; settled in bulk into won
    held: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, int]] = []
    held_size = 0  # their contenders
    first_end = config.pull_slot_budget + push_stride - 1  # where opportunity 0 of frame 0 ends
    won = [(pend, pend)]  # (packets, delivery slots) of settled rounds, in round order
    dropped = 0  # measured packets dropped after their single attempt (no retransmission)
    arrived_frames = horizon_frames  # frames whose arrivals joined the queues

    # pending packets above which frames are taken in stretches; runs with an
    # abort or without retransmission go frame by frame, so that the abort
    # and the single-attempt drops are counted in one place
    stretch_above = stream.prefix if push_ops >= 2 and push_retransmit and not abort else math.inf
    step, held_cap = stream.step, _HELD_CONTENDERS
    f = 0
    while f < horizon_frames:
        n = pend.size
        # a collapsed backlog: take the frames from f in bulk while their
        # rounds are certified winnerless; the pending packets only gain the
        # frames' arrivals, so every round's size is known up front
        if n > stretch_above:
            stop = min(horizon_frames, f + stream.budget // stream.prefix + 1)
            rounds = cp[f:stop] + (n - cum_push[f])
            offsets = co[f + 1 : stop + 1] - co[f:stop]
            taken = stream.take_winnerless(rounds, offsets)
            if taken:
                pend = np.concatenate((pend, ids[cum_push[f] : cum_push[f + taken]]))
                f += taken
                continue

        # one step takes frame f's round, then its offsets (its arrivals are
        # eligible from frame f+1); with nothing pending, nothing contends or
        # turns late until push packets arrive, so the step takes the offsets
        # of every frame up to the next one with push arrivals
        g = f + 1 if n else min(bisect_right(cum_push, cum_push[f]), horizon_frames)
        choice = step(n if push_ops else 0, cum_offsets[g] - cum_offsets[f])  # no slot, no round

        # push sub-frame: framed-ALOHA contention among everything pending;
        # nothing reads the deliveries before the run ends, so the round is
        # held and its winners' slots are computed later, many rounds at once
        if push_ops and n:
            win = contention_rounds(choice, push_ops)
            held.append((f, pend, choice, win, n))
            held_size += n
            if held_size > held_cap:
                won.append(_settle(held, S, first_end, push_stride))
                held, held_size = [], 0
            pend = pend[~win]
            if not push_retransmit:
                dropped += int(np.count_nonzero(pend >= n_warm))
                pend = pend[:0]
            n = pend.size

        # certified abort: count the pending packets that turned late this
        # frame (each frame's packets turn late once, so nothing double-counts);
        # pend ascends, so frame f - lag has none pending when the oldest one
        # arrived after it, and near capacity most frames end there.  The
        # frame's offsets were taken; close() drops them.
        if abort and n and f >= lag:
            hi = cum_push[f - lag + 1]
            if pend[0] < hi:
                lo = max(cum_push[f - lag], n_warm)
                if hi > lo:
                    late_cum += int(pend.searchsorted(hi) - pend.searchsorted(lo))
                    if late_cum > late_budget:
                        arrived_frames = f
                        break

        a, b = cum_push[f], cum_push[g]
        if b > a:  # pend is the slice ids[a - n : a] when empty, or with no push slot (nothing leaves it)
            pend = np.concatenate((pend, ids[a:b])) if n and push_ops else ids[a - n : b]
        f = g

    if held:
        won.append(_settle(held, S, first_end, push_stride))
    pull_arrivals, push_arrivals = _arrival_slots(
        stream.close(cum_offsets[arrived_frames]), pull_counts[:arrived_frames], push_counts[:arrived_frames], S
    )
    # push deliveries in the order the rounds made them: by frame, then in
    # pending order (ascending packet index)
    won_packets, won_slots = map(np.concatenate, zip(*won))
    push_latency = _deliver(PacketClass.PUSH, push_arrivals[won_packets], won_slots, measured_from_slot, S, on_delivery)

    # pull sub-frames: contention-free FIFO service, closed form over the
    # frames that ran (an aborted frame's pull sub-frame ran before the abort)
    n_served = 0
    pull_latency = np.empty(0, dtype=np.int64)
    if config.pull_tx_capacity and pull_arrivals.size:
        pull_frames = min(arrived_frames + 1, horizon_frames)
        delivery_slots = schedule_pull(
            np.concatenate(([0], pull_counts[: pull_frames - 1])),
            config.pull_tx_capacity,
            S,
            config.pull_packet_slots,
        )
        n_served = delivery_slots.size
        pull_latency = _deliver(
            PacketClass.PULL, pull_arrivals[:n_served], delivery_slots, measured_from_slot, S, on_delivery
        )

    # close the run at the horizon or the abort: a miss is every measured
    # packet still queued, pending or dropped, and every arrival of the
    # frames from arrived_frames on (never simulated), so arrived == delivered
    # + failed exactly; at the horizon the future slices are empty
    start = max(arrived_frames, warmup_frames)
    pull_left = int(np.count_nonzero(pull_arrivals[n_served:] >= measured_from_slot))
    push_left = int(np.count_nonzero(pend >= n_warm)) + dropped
    return MetricsRecord(
        slot_dur,
        {
            klass: (latency, left + int(counts[start:].sum()), int(counts[warmup_frames:].sum()))
            for klass, latency, left, counts in (
                (PacketClass.PULL, pull_latency, pull_left, pull_counts),
                (PacketClass.PUSH, push_latency, push_left, push_counts),
            )
        },
    )


def _settle(
    held: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, int]], S: int, first_end: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The winners of held rounds ``(frame, pending, choices, win mask,
    size)``, in round order, and their delivery slots: opportunity k of frame
    f ends at slot f*S + first_end + k*stride."""
    frames, pends, choices, wins, sizes = zip(*held)
    win = np.concatenate(wins)
    slots = np.concatenate(choices) * stride + np.repeat(np.array(frames, dtype=np.int64) * S + first_end, sizes)
    return np.concatenate(pends)[win], slots[win]


def _arrival_slots(
    offsets: np.ndarray, pull_counts: np.ndarray, push_counts: np.ndarray, S: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(pull, push) arrival slots from the offset draws of consecutive frames,
    taken in stream order (pull f, push f, pull f+1, ...); each class's slots
    ascend, so the pull ones are the FIFO order."""
    # frame f's offsets are lifted to its slots, f*S + offset, and the push
    # ones by a further F*S, so one sort orders each class, pull before push
    F = len(pull_counts)
    lifts = np.arange(0, F * S, S) + np.array(((0,), (F * S,)))  # rows: pull, push
    slots = offsets + lifts.T.ravel().repeat(np.array((pull_counts, push_counts)).T.ravel())
    slots.sort()
    n_pull = int(pull_counts.sum())
    return slots[:n_pull], slots[n_pull:] - F * S


def _deliver(
    klass: PacketClass,
    arrivals: np.ndarray,
    deliveries: np.ndarray,
    measured_from_slot: int,
    S: int,
    on_delivery: Optional[DeliveryCallback],
) -> np.ndarray:
    """The measured latencies (slots) of deliveries made in frame order
    (packets that arrived from slot ``measured_from_slot`` on are measured),
    with one ``on_delivery`` call per delivering sub-frame."""
    latency = (deliveries + 1 - arrivals)[arrivals >= measured_from_slot]
    if on_delivery is not None and deliveries.size:
        cuts = np.flatnonzero(np.diff(deliveries // S)) + 1
        for arrival, delivery in zip(np.split(arrivals, cuts), np.split(deliveries, cuts)):
            on_delivery(klass, arrival, delivery)
    return latency
