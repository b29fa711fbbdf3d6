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
``mac_cff.uniform_slot_contention`` makes it).  ``simulate_rcs`` walks the
generator's raw 64-bit output a fixed window at a time
(``_independent_frames``): it replays numpy's own sampling rules on that
output, so a seed gives the frames that one numpy call per draw gives, draw
for draw.

Both rounds follow the framed-ALOHA rule, a slot chosen by exactly one
contender succeeds, whose array form is ``mac_cff.contention_rounds``.  A
window's shared rounds are one call of it, with any number of shared slots
(none or one included).  The reserved round is the rule's one scalar form:
its winners fix the shared round's size, so where the frame's draws end and
the next frame's begin, and the walk must decide it frame by frame, on at
most ``n_pull`` draws, where a numpy call costs more than a scalar rule.
With k distinct slots among the m matching devices' choices, at most one
slot is chosen twice when k >= m - 1, so the winners are 2k - m; below that,
the choices seen once are counted.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import FrameConfig
from .mac_cff import contention_rounds
from .rawdraw import bounded, halves_of, least_word, rejected, span_end, span_halves
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


# fresh raw 64-bit outputs a window fetches (at least two frames' worst
# case); in-process rcs_grid sweeps read 8192 as fast as 16384, which took
# 0.7 MiB more RSS, and 4096 10-15 % slower
_WINDOW_WORDS = 8192


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
    an ``array`` of the narrowest type that holds ``width``, for the scalar
    frame walk.

    The counts are sums of shifted slices: ``run`` holds the sums of 1, 2,
    4, ... consecutive words in turn, and each set bit of ``width`` adds
    one of them, from where the last one added ends (a ``cumsum`` is
    sequential and several times slower).
    """
    dtype = np.min_scalar_type(width)
    out = np.zeros(n_starts, dtype=dtype)
    run = mask[offset : offset + n_starts + width - 1].astype(dtype)
    step = at = 0  # run sums 2**step words; counted words so far
    while width >> step:
        if width >> step & 1:
            out += run[at : at + n_starts]
            at += 1 << step
        if width >> step + 1:
            run = run[: -(1 << step)] + run[1 << step :]
        step += 1
    return _array(dtype.char, out)


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
    doubles come between.  A window of raw output is one ``random_raw``
    call of ``_WINDOW_WORDS`` fresh words (at least twice a frame's worst
    case, at most the worst case of the frames left and one more) after the
    unused words of the last window, those after the one word of a pending
    buffered half.  For the whole window, the match and push tests are made
    on the raw words (a bound on a double is a bound on its word,
    ``rawdraw.least_word``), their counts over a frame's observations are
    taken at every start word (``_window_counts``), and both halves' bounded
    draws are computed.  Then a scalar pass walks the frames while a frame's
    worst case fits, reading a frame's match and push counts at its start
    word and running its reserved round, whose winners fix the shared
    round's size and so where the next frame starts (a frame whose
    rejections overrun the window starts the next one).  The
    walk lists the halves of each shared round as spans, an accepted
    buffered half as a span of one half before the fresh ones; one gather
    (``rawdraw.span_halves``) reads them and the window's shared rounds run
    together in one ``contention_rounds`` call.  ``rng`` is left past the
    words drawn, so it is spent after the call.
    """
    n_pull, n_push = population.n_pull_devices, population.n_push_devices
    n_dbl = n_pull + n_push  # doubles at a frame's start
    # words a frame can take without rejections: its doubles, then at most
    # n_pull reserved and n_pull + n_push shared 32-bit draws
    worst = n_dbl + (2 * n_pull + n_push + 1) // 2
    # a double d matches iff lo <= d <= hi and pushes iff d > threshold,
    # tested on its raw word against the bounds' least raw words (Python ints:
    # numpy compares 2**64, which no word reaches, exactly)
    match_lo, match_end = least_word(query.lo), least_word(query.hi, strict=True)
    push_lo = least_word(population.trigger.threshold, strict=True)
    res_type = np.min_scalar_type(reserved_ops - 1)  # a reserved draw's narrowest type
    counts = np.zeros((n_frames, 5), dtype=np.int64)
    words = np.empty(0, dtype=np.uint64)
    p = 0  # first unused 64-bit word
    lead = -1  # index of the buffered high half, if any
    f = 0
    while f < n_frames:
        held = words[lead // 2 : lead // 2 + 1] if lead >= 0 else words[:0]  # a buffered half's word
        fresh = min(max(_WINDOW_WORDS, 2 * worst), (n_frames - f + 1) * worst)  # a short run fetches less
        words = np.concatenate((held, words[p:], rng.bit_generator.random_raw(fresh)))
        p, lead = len(held), 1 if lead >= 0 else -1
        n_starts = len(words) - n_dbl + 1
        matched_at = _window_counts((words >= match_lo) & (words < match_end), 0, n_pull, n_starts)
        pushing_at = _window_counts(words >= push_lo, n_pull, n_push, n_starts)
        halves = halves_of(words)
        if reserved_ops >= 2:
            res_choice = _array(res_type.char, bounded(halves, reserved_ops).astype(res_type))
            res_rejected = rejected(halves, reserved_ops)
        if shared_ops >= 2:
            sh_rejected = rejected(halves, shared_ops)

        last = len(words) - worst  # the last start word whose frame's worst case fits
        n_halves = 2 * len(words)
        f0 = f
        matched_l, won_l, pushing_l = [], [], []
        spans = []  # the shared rounds' halves: start, end, start, end, ...
        while f < n_frames and p <= last:
            # the frame's 32-bit draws: the buffered half (if any), then
            # fresh halves from the word after its doubles
            h = first = 2 * (p + n_dbl)
            ld = lead
            matched, pushing = matched_at[p], pushing_at[p]
            won = 0
            if matched and reserved_ops == 1:  # a bound-1 draw is 0 and takes no half: a lone device wins
                won = int(matched == 1)
            elif matched and reserved_ops:
                if res_rejected:  # rare: the rejected halves are skipped
                    need, drawn = matched, res_choice[:0]
                    if ld >= 0:
                        if ld not in res_rejected:
                            drawn = res_choice[ld : ld + 1]
                            need -= 1
                        ld = -1
                    end = span_end(h, need, res_rejected)
                    drawn += array(res_type.char, (c for i, c in enumerate(res_choice[h:end], h) if i not in res_rejected))
                    h = end
                elif ld >= 0:  # the buffered half, then fresh ones
                    drawn = res_choice[ld : ld + 1] + res_choice[h : h + matched - 1]
                    h += matched - 1
                    ld = -1
                else:
                    drawn = res_choice[h : h + matched]
                    h += matched
                # the framed-ALOHA rule in its scalar form (module docstring)
                distinct = len(set(drawn))
                won = 2 * distinct - matched if distinct >= matched - 1 else list(map(drawn.count, drawn)).count(1)
            lead_span = ()  # an accepted buffered half: the shared round's first draw
            start = h
            need = matched - won + pushing
            if need and shared_ops >= 2:
                if ld >= 0:
                    if ld not in sh_rejected:
                        lead_span = (ld, ld + 1)
                        need -= 1
                    ld = -1
                h = span_end(h, need, sh_rejected) if sh_rejected else h + need
            if h > n_halves:  # rejections overran the window: the frame starts the next one
                break
            lead = h if (h - first) % 2 else ld  # an odd count leaves a high half
            p = (h + 1) // 2
            matched_l.append(matched)
            won_l.append(won)
            pushing_l.append(pushing)
            spans += lead_span
            spans += (start, h)
            f += 1
        k = f - f0  # none when the window's first frame overran it
        rows = counts[f0:f]
        rows[:, 0], rows[:, 1], rows[:, 3] = matched_l, won_l, pushing_l
        matched, won, pushing = rows[:, 0], rows[:, 1], rows[:, 3]
        contenders = matched - won + pushing
        frame_of = np.repeat(np.arange(k), contenders)
        if shared_ops >= 2:
            idx = span_halves(spans)
            if sh_rejected:
                idx = idx[np.isin(idx, sh_rejected, invert=True)]
            choice = bounded(halves[idx], shared_ops)
        else:  # a bound-1 draw is 0 and takes no half; with no slot nothing is drawn
            choice = np.zeros(len(frame_of), dtype=np.int64)
        win = contention_rounds(choice, shared_ops, frame_of, k)
        # the frame's stragglers come first, then its pushing devices
        pull_win = np.arange(len(choice)) < np.repeat(np.cumsum(contenders) - pushing, contenders)
        rows[:, 2] = np.bincount(frame_of[win & pull_win], minlength=k)
        rows[:, 4] = np.bincount(frame_of[win & ~pull_win], minlength=k)
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
    frame end, so the frames are walked on windows of raw output
    (``_independent_frames``), giving the frames that one numpy call per
    draw on ``default_rng(seed)`` gives.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    reserved_ops, shared_ops = _contention_slots(config)
    counts = _independent_frames(reserved_ops, shared_ops, population, query, n_frames, np.random.default_rng(seed))
    return RcsResult(counts)
