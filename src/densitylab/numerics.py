"""Numeric kernels: compensated summation, reciprocal-power range sums,
and exact integer m-th roots.

Everything downstream reduces to sums of the form

    sum_{x in S, lo <= x <= hi} x**(-beta),   0 <= beta <= 1,

either over explicit element arrays (compensated prefix sums, queried by
difference) or over full integer ranges (exact vectorized summation below a
cutoff, Euler-Maclaurin tail expansion above it).  ``BlockSums`` answers
windows over a union of integer blocks from the range sums: each whole block
once, then only the parts of the blocks a window cuts.

Accuracy notes
--------------
* ``PrefixSums`` stores the plain float64 cumulative sum together with the
  cumulative rounding-error correction recovered by TwoSum.  The first-order
  rounding error of the running sum is captured exactly for any terms (for
  non-increasing positive terms it is the error Fast2Sum would give); what
  remains is the rounding of the correction accumulation itself, a
  second-order effect below 1e-12 even for 1e9 terms.  The documented
  worst-case error is < 1e-10 per 1e9 terms.
* The Euler-Maclaurin tail is only used with endpoints >= EM_START, where the
  first omitted term is below 1e-18; exact summation covers everything else.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PrefixSums",
    "BlockSums",
    "power_sum_range",
    "harmonic_range",
    "harmonic_number",
    "floor_nth_root",
    "ceil_nth_root",
    "geometric_grid",
]

# Ranges at most this long are summed exactly (vectorized, pairwise).
EXACT_RANGE_LIMIT = 1 << 22
# Euler-Maclaurin endpoints must be at least this large.
EM_START = 10**4


class PrefixSums:
    """Compensated prefix sums of ``weights`` (positive).

    ``range_sum(i, j)`` returns ``sum(weights[i:j])`` with the first-order
    rounding of the cumulative sum corrected for, so differences of far-apart
    prefixes stay accurate to ~1e-13 relative even over 1e7+ terms.
    """

    def __init__(self, weights: np.ndarray):
        w = np.ascontiguousarray(weights, dtype=np.float64)
        s = np.zeros(len(w) + 1)
        np.cumsum(w, out=s[1:])
        # TwoSum error of each step s[i + 1] = s[i] + w[i], in place
        e = s[1:] - s[:-1]
        t = s[1:] - e
        np.subtract(s[:-1], t, out=t)
        np.subtract(w, e, out=e)
        e += t
        del t
        c = np.zeros(len(w) + 1)
        np.cumsum(e, out=c[1:])
        self._s = s
        self._c = c

    def range_sum(self, i, j):
        """Sum of weights[i:j]; i, j may be scalars or index arrays."""
        s, c = self._s, self._c
        return (s[j] - s[i]) + (c[j] - c[i])

    @property
    def total(self) -> float:
        return float(self._s[-1] + self._c[-1])


def _em_tail(n: float, beta: float) -> float:
    # Asymptotic expansion of sum_{x<=n} x**(-beta) minus its constant term;
    # only differences with both endpoints >= EM_START - 1 are ever taken, so
    # the constant cancels.  First omitted term is O(n**(-beta-5)).
    if beta == 1.0:
        inv = 1.0 / n
        inv2 = inv * inv
        return math.log(n) + inv * (0.5 - inv * (1.0 / 12.0 - inv2 / 120.0))
    p = n ** (1.0 - beta)
    inv = 1.0 / n
    out = p / (1.0 - beta) + 0.5 * p * inv
    out -= (beta / 12.0) * p * inv * inv
    out += (beta * (beta + 1.0) * (beta + 2.0) / 720.0) * p * inv ** 4
    return out


def _exact_range(lo: int, hi: int, beta: float) -> float:
    if beta == 0.0:
        return float(hi - lo + 1)
    x = np.arange(lo, hi + 1, dtype=np.float64)
    if beta == 1.0:
        terms = np.reciprocal(x)
    else:
        terms = x ** (-beta)
    return float(np.sum(terms))


def power_sum_range(lo: int, hi: int, beta: float) -> float:
    """sum_{x=lo}^{hi} x**(-beta) for integers 1 <= lo <= hi, 0 <= beta <= 1.

    Exact vectorized summation for ranges up to EXACT_RANGE_LIMIT terms;
    longer ranges use an exact head below EM_START plus an Euler-Maclaurin
    tail whose truncation error is far below 1e-15.
    """
    if hi < lo:
        return 0.0
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if beta == 0.0:
        return float(hi - lo + 1)
    if hi - lo + 1 <= EXACT_RANGE_LIMIT:
        return _exact_range(lo, hi, beta)
    total = 0.0
    start = lo
    if start < EM_START:
        total += _exact_range(start, EM_START - 1, beta)
        start = EM_START
    return total + (_em_tail(float(hi), beta) - _em_tail(float(start - 1), beta))


class BlockSums:
    """Window sums of x**(-beta) over a union of sorted disjoint integer
    blocks [starts[b], ends[b]], without materializing its members.

    Each block is summed once with ``power_sum_range`` into ``PrefixSums``,
    so a window takes the blocks it covers whole by difference; the parts of
    the at most two blocks it cuts are summed with ``power_sum_range``.
    Windows holding the same members give the same float.
    """

    def __init__(self, starts, ends, beta: float):
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = np.asarray(ends, dtype=np.int64)
        self._beta = beta
        blocks = zip(self._starts.tolist(), self._ends.tolist())
        self._whole = PrefixSums([power_sum_range(a, b, beta) for a, b in blocks])

    def window_sums(self, lo, hi) -> np.ndarray:
        """Sum over the members in each window [lo, hi] (int64 arrays, lo <= hi)."""
        starts, ends, last = self._starts, self._ends, len(self._starts) - 1
        first = np.searchsorted(starts, lo, side="left")  # blocks starting below lo
        stop = np.searchsorted(ends, hi, side="right")  # blocks ending at or below hi
        out = self._whole.range_sum(first, np.maximum(stop, first))
        if last < 0:
            return out
        # the cut blocks: one starting below lo that reaches lo, one starting
        # in [lo, hi] that runs past hi
        for w in np.flatnonzero((first > 0) & (ends[first - 1] >= lo)).tolist():
            out[w] += power_sum_range(int(lo[w]), int(min(ends[first[w] - 1], hi[w])), self._beta)
        for w in np.flatnonzero((stop >= first) & (stop <= last) & (starts[np.minimum(stop, last)] <= hi)).tolist():
            out[w] += power_sum_range(int(starts[stop[w]]), int(hi[w]), self._beta)
        return out


def harmonic_range(lo: int, hi: int) -> float:
    """H(hi) - H(lo-1) = sum of 1/x over the integer range [lo, hi]."""
    return power_sum_range(lo, hi, 1.0)


def harmonic_number(n: int) -> float:
    """The n-th harmonic number H(n)."""
    if n < 1:
        return 0.0
    return harmonic_range(1, n)


def floor_nth_root(a: int, m: int) -> int:
    """Largest r with r**m <= a, by integer binary search (a >= 0, m >= 1)."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    if m == 1 or a < 2:
        return a
    if m == 2:
        return math.isqrt(a)
    lo, hi = 1, 1 << (a.bit_length() // m + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**m <= a:
            lo = mid
        else:
            hi = mid - 1
    return lo


def ceil_nth_root(a: int, m: int) -> int:
    """Smallest r with r**m >= a."""
    r = floor_nth_root(a, m)
    return r if r**m == a else r + 1


def geometric_grid(lo: int, hi: int, ratio: float = math.sqrt(2.0)) -> list[int]:
    """Strictly increasing integer grid from lo to at most hi, step ~ratio."""
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    grid = []
    g = lo
    while g <= hi:
        grid.append(g)
        g = max(g + 1, int(g * ratio + 0.5))
    return grid
