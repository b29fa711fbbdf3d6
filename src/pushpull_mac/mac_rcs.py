"""RCS frame simulator: query-triggered pull contention in reserved slots,
then shared slots where residual pull responses and push traffic contend
together.

Queries are per-frame: devices that fail both the reserved attempt and the
single shared retry do not carry over (the next frame is a fresh query).

Per frame, in this draw order: every pull device's observation (one double,
uniform on [0, 1)) is tested against the query, every push device's drawn
value against the push trigger, then the matching pull devices contend in
the reserved slots, and the unsuccessful ones retry once alongside the
pushing devices in the shared slots (one slot draw per contender, as
``mac_cff.uniform_slot_contention`` makes it).  ``simulate_rcs`` runs whole
blocks of frames from the generator's raw 64-bit output
(``_independent_frames``): it replays numpy's own sampling rules on that
output, so a seed gives the frames that one numpy call per draw gives, draw
for draw.

Both rounds follow the framed-ALOHA rule, a slot chosen by exactly one
contender succeeds, whose array form is ``mac_cff.contention_rounds``.  A
block's shared rounds are one call of it, with any number of shared slots
(none or one included).  The reserved round is the rule's one scalar form
(a count of the choices seen once): its winners fix the shared round's
size, so where the frame's draws end and the next frame's begin, and the
walk must decide it frame by frame, on at most ``n_pull`` draws, where a
numpy call costs more than the scalar count.  It stays scalar until the
reserved draws are taken in bulk per block.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import FrameConfig
from .mac_cff import contention_rounds
from .rawdraw import MAX_BOUND, bounded, doubles_of, halves_of, rejected, span_end
from .traffic import PushTrigger, SemanticQuery

# the per-draw form of the contention rounds replayed here; it stays
# importable from this module, where the benchmark tracer
# (perfbench/tracer.py) looks it up
from .mac_cff import uniform_slot_contention  # noqa: F401

__all__ = ["RcsPopulation", "RcsResult", "simulate_rcs"]


@dataclass(frozen=True, slots=True)
class RcsPopulation:
    """Disjoint pull- and push-enabled device sets and the push trigger.

    Device ids: pull devices are 0..n_pull-1, push devices follow.
    """

    n_pull_devices: int
    n_push_devices: int
    trigger: PushTrigger

    def __post_init__(self) -> None:
        if self.n_pull_devices < 0 or self.n_push_devices < 0:
            raise ValueError("device counts must be >= 0")


def _contention_slots(config: FrameConfig) -> Tuple[int, int]:
    """(reserved opportunities, shared opportunities) for RCS."""
    if config.pull_packet_slots != config.push_packet_slots:
        raise ValueError(
            "RCS shared contention requires equal pull/push packet sizes, "
            f"got {config.pull_packet_slots} and {config.push_packet_slots}"
        )
    return config.pull_tx_capacity, config.push_tx_capacity


@dataclass(frozen=True, slots=True)
class RcsResult:
    """An RCS run (or replications pooled by concatenating their counts).

    ``frames`` is an (n_frames, 5) int64 array; row ``i`` holds frame ``i``'s
    query-matching pull devices, pull successes in the reserved and in the
    shared portion, push attempts and push successes.  A frame retrieves
    successfully iff every query-matching device got its response through.
    """

    frames: np.ndarray

    @property
    def retrieval_accuracy(self) -> float:
        """Fraction of frames in which every matching device was received."""
        matched, reserved, shared = self.frames[:, :3].T
        return int(np.count_nonzero(reserved + shared == matched)) / len(self.frames)

    @property
    def push_success_prob(self) -> Optional[float]:
        """Push successes over attempts, pooled across frames; None when no
        push was ever attempted."""
        attempted, succeeded = self.frames[:, 3:].sum(axis=0).tolist()
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
    """``n_frames`` independent RCS frames as ``RcsResult.frames`` counts, the
    same frames one numpy call per draw on ``rng`` gives.

    Every draw of a frame comes from PCG64's 64-bit outputs (``rawdraw``):
    ``random`` turns one output into a double, and ``integers``
    below 2**32 takes 32-bit halves, low half first, keeping the
    unused high half in the generator for the next 32-bit draw, whatever
    doubles come between.  A block of frames is therefore one ``random_raw``
    call: each output's double and both halves' bounded draws are computed
    for the whole block, and a scalar pass walks the frames, reading a
    frame's match and push counts at its start word and running its reserved
    round, whose winners fix the shared round's size and so where the next
    frame starts.  The shared rounds then run together in one
    ``contention_rounds`` call.  ``rng`` is left past the words drawn, so it
    is spent after the call.
    """
    n_pull, n_push = population.n_pull_devices, population.n_push_devices
    if max(reserved_ops, shared_ops) >= MAX_BOUND:
        raise ValueError("contention rounds need fewer than 2**32 slots")
    n_dbl = n_pull + n_push  # doubles at a frame's start
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
        doubles = doubles_of(words)
        n_starts = len(words) - n_dbl + 1
        matched_at = _window_counts(query.match_mask(doubles), 0, n_pull, n_starts)
        pushing_at = _window_counts(population.trigger.fires(doubles), n_pull, n_push, n_starts)
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
            if matched and reserved_ops:
                if reserved_ops == 1:  # a bound-1 draw is 0 and takes no half
                    drawn = array("I", bytes(4 * matched))
                else:
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
                # the framed-ALOHA rule in its one scalar form (module docstring)
                won = list(map(drawn.count, drawn)).count(1)
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
        contenders = matched - won + pushing
        frame_of = np.repeat(np.arange(k), contenders)
        if shared_ops >= 2:
            lead_a = np.array(lead_l, dtype=np.int64)
            start_a = np.array(start_l, dtype=np.int64)
            has_lead = lead_a >= 0
            # a buffered half is its frame's first draw: widen the span by one
            # in front, then point that entry at the buffered half
            span = np.array(end_l, dtype=np.int64) - start_a + has_lead
            first_at = np.cumsum(span) - span
            idx = np.arange(span.sum()) + np.repeat(start_a - has_lead - first_at, span)
            idx[first_at[has_lead]] = lead_a[has_lead]
            if sh_rejected:
                idx = idx[np.isin(idx, sh_rejected, invert=True)]
            choice = bounded(halves[idx], shared_ops)
        else:  # a bound-1 draw is 0 and takes no half; with no slot nothing is drawn
            choice = np.zeros(len(frame_of), dtype=np.int64)
        win, _ = contention_rounds(choice, shared_ops, frame_of, k)
        # the frame's stragglers come first, then its pushing devices
        pull_win = np.arange(len(choice)) < np.repeat(np.cumsum(contenders) - pushing, contenders)
        shared_pull = np.bincount(frame_of[win & pull_win], minlength=k)
        push_won = np.bincount(frame_of[win & ~pull_win], minlength=k)
        counts[f0:f] = np.column_stack((matched, won, shared_pull, pushing, push_won))
    return counts


def simulate_rcs(
    config: FrameConfig,
    population: RcsPopulation,
    query: SemanticQuery,
    n_frames: int,
    seed: int,
) -> RcsResult:
    """Run ``n_frames`` independent RCS frames.

    Retrieval accuracy is the fraction of frames in which every matching
    device was received (vacuously successful with zero matches); push success
    probability pools attempts across frames.  Failed devices abandon at the
    frame end, so the frames run in blocks (``_independent_frames``), giving
    the frames that one numpy call per draw on ``default_rng(seed)`` gives.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    reserved_ops, shared_ops = _contention_slots(config)
    counts = _independent_frames(reserved_ops, shared_ops, population, query, n_frames, np.random.default_rng(seed))
    return RcsResult(counts)
