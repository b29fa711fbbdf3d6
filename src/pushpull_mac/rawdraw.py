"""numpy's double and bounded 32-bit integer draws, replayed on raw PCG64
output.

``Generator.random()`` turns one 64-bit output x into the double
(x >> 11) * 2**-53, so a test of that double against a bound is a test of x
against the bound's least raw word (``least_word``).
``Generator.integers(0, bound)`` with 2 <= bound < 2**32 (numpy 2.x) draws
from 32-bit halves of the bit generator's 64-bit outputs, low half first,
and keeps an unused high half in the generator for the next 32-bit draw,
whatever doubles come between.  A
half x is Lemire's multiply-shift: it draws (x * bound) >> 32, unless the low
32 bits of x * bound fall below 2**32 % bound, which rejects x (the next half
is taken instead).  A bound of 1 draws 0 and consumes nothing.

The RCS and CFF kernels take windows of ``bit_generator.random_raw`` output
and apply these helpers to them, so a seed gives the values the per-draw
``Generator`` calls give.  Their bounds are at most a frame's slot count,
which ``FrameConfig`` keeps below 2**32 (``core.SLOT_LIMIT``).  If numpy
changes these rules, the pinned outputs in the tests fail instead of the
output changing silently.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Sequence

import numpy as np

__all__ = ["least_word", "halves_of", "bounded", "rejected", "span_end", "span_halves"]

def least_word(bound: float, strict: bool = False) -> int:
    """The least raw 64-bit output whose double is at least ``bound`` (above
    it if ``strict``), or 2**64 when none is: the double of x is at least
    (above) ``bound`` iff x >= least_word.

    The doubles are k * 2**-53 for k = x >> 11 < 2**53, and scaling a bound
    by 2**53 is exact, so the test is on k against the scaled bound.
    """
    scaled = min(max(bound, -1.0), 2.0) * 2.0**53  # clamped first: every double is in [0, 1)
    k = math.floor(scaled) + 1 if strict else math.ceil(scaled)
    return min(max(k, 0), 2**53) << 11


def halves_of(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw 64-bit outputs, in draw order (low half first)."""
    return words.astype("<u8", copy=False).view("<u4")


def bounded(halves: np.ndarray, bound: int) -> np.ndarray:
    """The draw below ``bound`` each half gives if accepted, as int64."""
    product = np.multiply(halves, bound, dtype=np.uint64)
    product >>= np.uint64(32)
    return product.view(np.int64)  # values < 2**32: the same bits


def rejected(halves: np.ndarray, bound: int) -> List[int]:
    """Sorted indices of the halves a draw below ``bound`` rejects."""
    low = halves * np.uint32(bound)  # wraps: the low 32 product bits
    threshold = np.uint32(2**32 % bound)
    if not low.size or low.min() >= threshold:  # the common case: nothing rejected
        return []
    return np.flatnonzero(low < threshold).tolist()


def span_end(start: int, need: int, rejected: List[int]) -> int:
    """End of the run of halves from ``start`` that yields ``need`` accepted
    draws, given the sorted indices of rejected halves."""
    end = start + need
    i = bisect_left(rejected, start)
    while i < len(rejected) and rejected[i] < end:
        end += 1
        i += 1
    return end


def span_halves(spans: Sequence[int]) -> np.ndarray:
    """The indices of the halves in spans given as ``start, end, start, end,
    ...``, span by span (int64)."""
    bounds = np.asarray(spans, dtype=np.int64)
    ends = bounds[1::2]
    lengths = ends - bounds[0::2]
    return np.arange(int(lengths.sum())) + np.repeat(ends - lengths.cumsum(), lengths)
