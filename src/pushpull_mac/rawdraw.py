"""numpy's bounded 32-bit integer draw, replayed on raw PCG64 output.

``Generator.integers(0, bound)`` with 2 <= bound < 2**32 (numpy 2.x) draws
from 32-bit halves of the bit generator's 64-bit outputs, low half first, and
keeps an unused high half in the generator for the next 32-bit draw, whatever
doubles come between.  A half x is Lemire's multiply-shift: it draws
(x * bound) >> 32, unless the low 32 bits of x * bound fall below
2**32 % bound, which rejects x (the next half is taken instead).  A bound of
1 draws 0 and consumes nothing.

The RCS and CFF kernels take blocks of ``bit_generator.random_raw`` output
and apply these helpers to them, so a seed gives the values the per-draw
``Generator`` calls give.  If numpy changes this rule, the pinned outputs in
the tests fail instead of the output changing silently.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import List

import numpy as np

__all__ = ["MAX_BOUND", "halves_of", "bounded", "rejected", "span_end"]

MAX_BOUND = 2**32  # bounds from here on take numpy's 64-bit path, not replayed


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
