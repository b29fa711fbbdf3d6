"""RCS frame simulator: query-triggered pull contention in reserved slots,
then shared slots where residual pull responses and push traffic contend
together.

Queries are per-frame: devices that fail both the reserved attempt and the
single shared retry do not carry over (the next frame is a fresh query).

``run_rcs_frame`` simulates one frame with one numpy call per draw.
``simulate_rcs`` with independent frames runs whole blocks of frames from
the generator's raw 64-bit output instead (``_independent_frames``): it
replays numpy's own sampling rules on that output, so a seed gives the same
frames, draw for draw, as a loop of ``run_rcs_frame`` calls.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .core import FrameConfig
from .mac_cff import uniform_slot_contention
from .rawdraw import MAX_BOUND, bounded, halves_of, rejected, span_end
from .traffic import ObservationModel, PushTrigger, SemanticQuery

__all__ = ["RcsPopulation", "FrameResult", "FrameLog", "RcsResult", "run_rcs_frame", "simulate_rcs"]


@dataclass(frozen=True, slots=True)
class RcsPopulation:
    """Disjoint pull- and push-enabled device sets with their data models.

    Device ids: pull devices are 0..n_pull-1, push devices follow.
    """

    n_pull_devices: int
    n_push_devices: int
    trigger: PushTrigger
    observations: ObservationModel = ObservationModel()

    def __post_init__(self) -> None:
        if self.n_pull_devices < 0 or self.n_push_devices < 0:
            raise ValueError("device counts must be >= 0")


class FrameResult(NamedTuple):
    """One frame's counts, the row ``FrameLog`` stores: query-matching pull
    devices, pull successes in the reserved and in the shared portion, push
    attempts and push successes.  A frame retrieves successfully iff every
    query-matching device got its response through."""

    matched_pull: int
    pull_succeeded_reserved: int
    pull_succeeded_shared: int
    push_attempted: int
    push_succeeded: int

    @property
    def pull_succeeded(self) -> int:
        return self.pull_succeeded_reserved + self.pull_succeeded_shared

    @property
    def retrieval_success(self) -> bool:
        return self.pull_succeeded == self.matched_pull


def _contention_slots(config: FrameConfig) -> Tuple[int, int]:
    """(reserved opportunities, shared opportunities) for RCS."""
    if config.pull_packet_slots != config.push_packet_slots:
        raise ValueError(
            "RCS shared contention requires equal pull/push packet sizes, "
            f"got {config.pull_packet_slots} and {config.push_packet_slots}"
        )
    return config.pull_tx_capacity, config.push_tx_capacity


def run_rcs_frame(
    config: FrameConfig,
    population: RcsPopulation,
    query: SemanticQuery,
    rng: np.random.Generator,
) -> FrameResult:
    """Simulate one RCS frame.

    Observations are drawn fresh, query-matching pull devices contend in the
    reserved slots (skipped if that budget is zero), then the unsuccessful
    ones retry once alongside the frame's pushing devices in the shared slots.
    Inter- and intra-class collisions are both plain losses.
    """
    reserved_ops, shared_ops = _contention_slots(config)
    return _run_frame(reserved_ops, shared_ops, population, query, rng)[0]


def _run_frame(
    reserved_ops: int,
    shared_ops: int,
    population: RcsPopulation,
    query: SemanticQuery,
    rng: np.random.Generator,
    pending: Optional[np.ndarray] = None,
) -> Tuple[FrameResult, Optional[np.ndarray]]:
    """One RCS frame; returns its counts and the next ``pending`` mask.

    ``pending`` (persistent-backlog mode) marks push devices whose update
    collided earlier: they re-attempt this frame and their fresh trigger draw
    is discarded.  Both modes make the same draws in the same order, so they
    differ only in which devices enter the shared contention.  Without
    ``pending`` the returned mask is None.
    """
    # canonical draw order: observations, push triggers, reserved, shared
    observations = population.observations.sample(population.n_pull_devices, rng)
    n_matched = int(np.count_nonzero(query.match_mask(observations)))
    push_mask = population.trigger.push_mask(population.n_push_devices, rng)
    if pending is not None:
        push_mask |= pending
    n_pushing = int(np.count_nonzero(push_mask))

    n_res_won = 0
    if reserved_ops > 0 and n_matched:
        n_res_won = int(np.count_nonzero(uniform_slot_contention(n_matched, reserved_ops, rng)[2]))
    n_stragglers = n_matched - n_res_won

    pull_shared_succeeded = push_succeeded = 0
    if shared_ops > 0 and n_stragglers + n_pushing:
        winner_mask = uniform_slot_contention(n_stragglers + n_pushing, shared_ops, rng)[2]
        # the frame's stragglers come first, then its pushing devices
        pull_shared_succeeded = int(np.count_nonzero(winner_mask[:n_stragglers]))
        push_won = winner_mask[n_stragglers:]
        push_succeeded = int(np.count_nonzero(push_won))
        if pending is not None:
            # delivered updates leave the backlog; collided ones stay pending
            push_mask[np.flatnonzero(push_mask)[push_won]] = False

    result = FrameResult(n_matched, n_res_won, pull_shared_succeeded, n_pushing, push_succeeded)
    return result, (push_mask if pending is not None else None)


class FrameLog(Sequence):
    """Per-frame counts of a run, read back as ``FrameResult`` rows.

    Row ``i`` holds frame ``i``'s (matched, reserved pull successes, shared
    pull successes, push attempts, push successes); results are built on
    access, so a long run stores five integers per frame.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return FrameResult(*(int(x) for x in self.counts[index]))


@dataclass(frozen=True, slots=True)
class RcsResult:
    """An RCS run (or replications pooled by concatenating their counts): its
    frames, and the two estimates read from their counts."""

    frames: FrameLog

    @property
    def retrieval_accuracy(self) -> float:
        """Fraction of frames in which every matching device was received."""
        matched, reserved, shared = self.frames.counts[:, :3].T
        return int(np.count_nonzero(reserved + shared == matched)) / len(self.frames)

    @property
    def push_success_prob(self) -> Optional[float]:
        """Push successes over attempts, pooled across frames; None when no
        push was ever attempted."""
        attempted, succeeded = self.frames.counts[:, 3:].sum(axis=0).tolist()
        return succeeded / attempted if attempted else None


_FRAMES_PER_BLOCK = 128


def _array(typecode: str, values: np.ndarray) -> array:
    """``values`` as an ``array``: indexing it in a scalar loop is cheaper
    than indexing an ndarray, and building it copies bytes instead of making
    ``tolist``'s Python ints."""
    out = array(typecode)
    out.frombytes(values.view(np.uint8))
    return out


def _window_counts(mask: np.ndarray, offset: int, width: int, n_starts: int) -> array:
    """For each start word p < ``n_starts``, how many of the words
    p + offset .. p + offset + width - 1 are set in ``mask``.  The result is
    an ``array``, for the scalar frame walk."""
    total = np.zeros(len(mask) + 1, dtype=np.int32)
    np.cumsum(mask, out=total[1:])
    return _array("i", total[offset + width : offset + width + n_starts] - total[offset : offset + n_starts])


def _independent_frames(
    reserved_ops: int,
    shared_ops: int,
    population: RcsPopulation,
    query: SemanticQuery,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n_frames`` independent RCS frames as ``FrameLog`` counts, the same
    frames a loop of ``_run_frame`` calls on ``rng`` gives.

    Every draw ``_run_frame`` makes comes from PCG64's 64-bit outputs:
    ``random`` turns one output into a double ((x >> 11) * 2**-53), and
    ``integers`` below 2**32 takes 32-bit halves, low half first, keeping the
    unused high half in the generator for the next 32-bit draw, whatever
    doubles come between.  A block of frames is therefore one ``random_raw``
    call: each output's double and both halves' bounded draws are computed
    for the whole block, and a scalar pass walks the frames, reading a
    frame's match and push counts at its start word and running its reserved
    round, whose winners fix the shared round's size and so where the next
    frame starts.  The shared rounds then run together on one ``bincount``.
    ``rng`` is left past the words drawn, so it is spent after the call.
    """
    n_pull, n_push = population.n_pull_devices, population.n_push_devices
    if max(reserved_ops, shared_ops) >= MAX_BOUND:
        raise ValueError("contention rounds need fewer than 2**32 slots")
    fixed_matches = None
    if population.observations.fixed is not None:  # no observation draws
        fixed_matches = int(np.count_nonzero(query.match_mask(population.observations.sample(n_pull, rng))))
    n_obs = n_pull if fixed_matches is None else 0
    n_dbl = n_obs + n_push  # doubles at a frame's start
    # words a frame can take without rejections: its doubles, then at most
    # n_pull reserved and n_pull + n_push shared 32-bit draws
    worst = n_dbl + (2 * n_pull + n_push + 1) // 2
    rate = worst  # words drawn per frame, re-estimated after each block
    counts = np.zeros((n_frames, 5), dtype=np.int64)
    words = np.empty(0, dtype=np.uint64)
    p = 0  # first unused 64-bit word
    lead = -1  # index of the buffered high half, if any
    slack = 4
    f = 0
    while f < n_frames:
        keep = p if lead < 0 else min(p, lead // 2)
        block = min(n_frames - f, _FRAMES_PER_BLOCK)
        short = int(block * rate) + worst + slack - (len(words) - p)
        words = np.concatenate((words[keep:], rng.bit_generator.random_raw(max(short, 0))))
        p -= keep
        if lead >= 0:
            lead -= 2 * keep
        doubles = (words >> np.uint64(11)) * 2.0**-53
        n_starts = len(words) - n_dbl + 1
        if fixed_matches is None:
            matched_at = _window_counts(query.match_mask(doubles), 0, n_obs, n_starts)
        else:
            matched_at = array("i", [fixed_matches]) * n_starts
        pushing_at = _window_counts(population.trigger.fires(doubles), n_obs, n_push, n_starts)
        del doubles
        halves = halves_of(words)
        if reserved_ops >= 2:
            res_choice = _array("I", bounded(halves, reserved_ops).astype(np.uint32))  # 4 bytes a draw
            res_rejected = rejected(halves, reserved_ops)
        if shared_ops >= 2:
            sh_rejected = rejected(halves, shared_ops)

        f0, p0 = f, p
        matched_l, won_l, pushing_l, lead_l, start_l, end_l = [], [], [], [], [], []
        while f < f0 + block and p + worst <= len(words):
            # the frame's 32-bit draws: the buffered half (if any), then
            # fresh halves from the word after its doubles
            h = first = 2 * (p + n_dbl)
            ld = lead
            matched, pushing = matched_at[p], pushing_at[p]
            won = 0
            if matched and reserved_ops >= 2:
                need, drawn = matched, res_choice[:0]
                if ld >= 0:
                    if ld not in res_rejected:
                        drawn = res_choice[ld : ld + 1]
                        need -= 1
                    ld = -1
                if res_rejected:
                    end = span_end(h, need, res_rejected)
                    drawn += array("I", (c for i, c in enumerate(res_choice[h:end], h) if i not in res_rejected))
                else:
                    end = h + need
                    drawn += res_choice[h:end]
                h = end
                won = list(map(drawn.count, drawn)).count(1)
            elif matched and reserved_ops:  # one slot: a lone contender gets through
                won = int(matched == 1)
            shared_lead = -1
            shared_start = h
            need = matched - won + pushing
            if need and shared_ops >= 2:
                if ld >= 0:
                    if ld not in sh_rejected:
                        shared_lead = ld
                        need -= 1
                    ld = -1
                h = span_end(h, need, sh_rejected) if sh_rejected else h + need
            if h > len(halves):  # rejections overran the words drawn
                slack *= 2
                break
            lead = h if (h - first) % 2 else ld  # an odd count leaves a high half
            p = (h + 1) // 2
            matched_l.append(matched)
            won_l.append(won)
            pushing_l.append(pushing)
            lead_l.append(shared_lead)
            start_l.append(shared_start)
            end_l.append(h)
            f += 1
        if f == f0:
            continue
        # a little above the mean, so the next block rarely runs short
        rate = min(worst, 1.05 * (p - p0) / (f - f0))

        k = f - f0
        matched = np.array(matched_l, dtype=np.int64)
        won = np.array(won_l, dtype=np.int64)
        pushing = np.array(pushing_l, dtype=np.int64)
        stragglers = matched - won
        contenders = stragglers + pushing
        if shared_ops >= 2:
            lead_a = np.array(lead_l, dtype=np.int64)
            start_a = np.array(start_l, dtype=np.int64)
            has_lead = lead_a >= 0
            # a buffered half is its frame's first draw: widen the span by one
            # in front, then point that entry at the buffered half
            span = np.array(end_l, dtype=np.int64) - start_a + has_lead
            first_at = np.cumsum(span) - span
            frame_of = np.repeat(np.arange(k), span)
            idx = np.arange(len(frame_of)) + np.repeat(start_a - has_lead - first_at, span)
            idx[first_at[has_lead]] = lead_a[has_lead]
            if sh_rejected:
                accepted = np.isin(idx, sh_rejected, invert=True)
                frame_of, idx = frame_of[accepted], idx[accepted]
            key = frame_of * shared_ops + bounded(halves[idx], shared_ops)
            win = np.bincount(key, minlength=k * shared_ops)[key] == 1
            # the frame's stragglers come first, then its pushing devices
            pull_win = np.arange(len(key)) < np.repeat(np.cumsum(contenders) - pushing, contenders)
            shared_pull = np.bincount(frame_of[win & pull_win], minlength=k)
            push_won = np.bincount(frame_of[win & ~pull_win], minlength=k)
        elif shared_ops == 1:  # one slot: a lone contender gets through
            alone = contenders == 1
            shared_pull = (alone & (stragglers == 1)).astype(np.int64)
            push_won = (alone & (pushing == 1)).astype(np.int64)
        else:
            shared_pull = push_won = np.zeros(k, dtype=np.int64)
        counts[f0:f] = np.column_stack((matched, won, shared_pull, pushing, push_won))
    return counts


def simulate_rcs(
    config: FrameConfig,
    population: RcsPopulation,
    query: SemanticQuery,
    n_frames: int,
    seed: int,
    *,
    persistent_push_backlog: bool = False,
) -> RcsResult:
    """Run ``n_frames`` RCS frames.

    Retrieval accuracy is the fraction of frames in which every matching
    device was received (vacuously successful with zero matches); push success
    probability pools attempts across frames.  Frames are independent by
    default (failed devices abandon at the frame end) and run in blocks
    (``_independent_frames``), giving the frames a loop of ``run_rcs_frame``
    calls on ``default_rng(seed)`` gives.  With ``persistent_push_backlog``
    collided push updates carry over and retry until delivered: the run is a
    loop of ``_run_frame`` calls that carries the pending mask from frame to
    frame, so its frames part from the ``run_rcs_frame`` loop's once an
    update is pending (``test_persistent_backlog_pinned`` pins them).
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    rng = np.random.default_rng(seed)
    reserved_ops, shared_ops = _contention_slots(config)  # hoisted: loop invariant
    if persistent_push_backlog:
        rows = []
        pending = np.zeros(population.n_push_devices, dtype=bool)
        for _ in range(n_frames):
            row, pending = _run_frame(reserved_ops, shared_ops, population, query, rng, pending)
            rows.append(row)
        counts = np.array(rows, dtype=np.int64)
    else:
        counts = _independent_frames(reserved_ops, shared_ops, population, query, n_frames, rng)
    return RcsResult(FrameLog(counts))
