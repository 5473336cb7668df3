"""Numeric kernels: compensated summation, reciprocal-power range sums,
and exact integer m-th roots.

Everything downstream reduces to sums of the form

    sum_{x in S, lo <= x <= hi} x**(-beta),   0 <= beta <= 1,

either over explicit element arrays (compensated prefix sums, queried by
difference) or over full integer ranges (exact vectorized summation below a
cutoff, Euler-Maclaurin tail expansion above it).  ``BlockSums`` answers
windows over a union of integer blocks from the range sums: each whole block
once, then only the parts of the blocks a window cuts.  Its largest window
is found by bound-then-verify: an O(1) estimate of every cut part bounds each
window within WINDOW_MAX_DELTA = 1e-12 relative (plus the rounding bound of
an Euler-Maclaurin tail), and only the windows whose bound reaches the
largest one are summed exactly.  Every window whose exact float is the
maximum is among them, so the reported value and first maximizer are the
exact path's, bit for bit; the estimates only decide what is summed.

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
* The window-max estimate (``_estimate_range``) is within 5e-15 relative of
  the true sum, and a cut part summed term by term within 4e-14, so
  WINDOW_MAX_DELTA = 1e-12 holds both with a margin above 10.  A part longer
  than EXACT_RANGE_LIMIT is summed as a difference of two EM tails of size
  log(hi) or hi**(1-beta)/(1-beta), whose rounding is relatively larger on
  short, far-out parts; its slack adds 16 ulps of that size.
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
# BlockSums.window_max: relative bound on the distance between a window's
# O(1) estimate and its exact-path float (both well below 1e-13 relative).
WINDOW_MAX_DELTA = 1e-12
# ... and the estimate's exact head runs below this switch point.
_EST_SWITCH = 256


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

    ``window_max`` finds the largest window by bound-then-verify: every
    cut part is first estimated in O(1) (``_estimate_range``), a window is
    kept only when its estimate plus its slack reaches the largest estimate
    minus slack, and only the kept windows' cut parts are summed exactly,
    with the same float operations as ``window_sums``.  The slack is
    ``WINDOW_MAX_DELTA`` times the estimate, plus, for a cut part that
    ``power_sum_range`` sums by its Euler-Maclaurin tail, a bound on that
    tail's rounding.  It bounds the distance between a window's estimate and
    its exact-path float, so every window whose float is the maximum is
    kept, and the reported value and first index are those of
    ``window_sums`` bit for bit.
    """

    def __init__(self, starts, ends, beta: float):
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = np.asarray(ends, dtype=np.int64)
        self._beta = beta
        blocks = zip(self._starts.tolist(), self._ends.tolist())
        self._whole = PrefixSums([power_sum_range(a, b, beta) for a, b in blocks])

    def _parts(self, lo, hi):
        """The covered whole blocks' sum of each window [lo, hi], and its
        cut parts as (window indices, part starts, part ends): the block
        starting below lo that reaches lo, then the block starting in
        [lo, hi] that runs past hi."""
        starts, ends, last = self._starts, self._ends, len(self._starts) - 1
        first = np.searchsorted(starts, lo, side="left")  # blocks starting below lo
        stop = np.searchsorted(ends, hi, side="right")  # blocks ending at or below hi
        covered = self._whole.range_sum(first, np.maximum(stop, first))
        if last < 0:
            return covered, ()
        w = np.flatnonzero((first > 0) & (ends[first - 1] >= lo))
        left = (w, lo[w], np.minimum(ends[first[w] - 1], hi[w]))
        w = np.flatnonzero((stop >= first) & (stop <= last) & (starts[np.minimum(stop, last)] <= hi))
        right = (w, starts[stop[w]], hi[w])
        return covered, (left, right)

    def _add_exact(self, out, cuts):
        # out[i] += each cut part of window i, left part first
        for w, a, b in cuts:
            for i, x, y in zip(w.tolist(), a.tolist(), b.tolist()):
                out[i] += power_sum_range(x, y, self._beta)

    def window_sums(self, lo, hi) -> np.ndarray:
        """Sum over the members in each window [lo, hi] (int64 arrays, lo <= hi)."""
        out, cuts = self._parts(lo, hi)
        self._add_exact(out, cuts)
        return out

    def window_max(self, lo, hi) -> tuple[float, int]:
        """(value, index) of the largest window sum over the windows [lo, hi]
        (int64 arrays, lo <= hi, at least one window): ``np.argmax`` of
        ``window_sums(lo, hi)`` and its float, bit for bit, but only the
        windows that can win are summed exactly."""
        covered, cuts = self._parts(lo, hi)
        est = covered.copy()
        tail_slack = np.zeros(len(est))
        for w, a, b in cuts:
            est[w] += _estimate_range(a, b, self._beta)
            long = (b - a) >= EXACT_RANGE_LIMIT  # summed by power_sum_range's EM tail
            tail_slack[w[long]] += _em_rounding(b[long], self._beta)
        slack = WINDOW_MAX_DELTA * est + tail_slack
        kept = est + slack >= np.max(est - slack)
        values = np.where(kept, covered, -np.inf)  # a pruned window never wins
        self._add_exact(values, [(w[kept[w]], a[kept[w]], b[kept[w]]) for w, a, b in cuts])
        i = int(np.argmax(values))
        return values[i], i


def _estimate_range(lo, hi, beta: float) -> np.ndarray:
    """O(1) estimate of sum_{x=lo}^{hi} x**(-beta) for each pair of int64
    arrays lo <= hi, within 5e-15 relative of the true sum.

    Terms below _EST_SWITCH are summed exactly (a head of at most
    _EST_SWITCH - 1 terms, clipped at hi).  From a = max(lo, _EST_SWITCH) to
    hi, Euler-Maclaurin through the B4 term, with the integral in difference
    form so nothing cancels.  f = x**(-beta) is completely monotone, so the
    error is at most the first omitted term, beta(beta+1)...(beta+4)/30240 *
    a**(-beta-5) <= 4e-3 a**(-5) times the first term a**(-beta): below
    4e-15 relative for a >= 256, and rounding adds about 1e-15.
    """
    out = np.zeros(len(lo))
    h = np.flatnonzero(lo < _EST_SWITCH)
    if len(h):
        x = lo[h, None] + np.arange(_EST_SWITCH)
        terms = _powers(x.astype(np.float64), beta)
        terms[x > np.minimum(hi[h], _EST_SWITCH - 1)[:, None]] = 0.0
        out[h] = terms.sum(axis=1)
    a_int = np.maximum(lo, _EST_SWITCH)
    t = np.flatnonzero(hi >= a_int)
    a = a_int[t].astype(np.float64)
    b = hi[t].astype(np.float64)
    ratio = np.log1p((hi[t] - a_int[t]).astype(np.float64) / a)  # log(b / a)
    if beta == 1.0:
        integral = ratio
    else:
        integral = a ** (1.0 - beta) * np.expm1((1.0 - beta) * ratio) / (1.0 - beta)
    fa, fb = _powers(a, beta), _powers(b, beta)
    out[t] += (integral + 0.5 * (fa + fb) + (beta / 12.0) * (fa / a - fb / b)
               - (beta * (beta + 1.0) * (beta + 2.0) / 720.0) * (fa / a**3 - fb / b**3))
    return out


def _powers(x: np.ndarray, beta: float) -> np.ndarray:
    return np.reciprocal(x) if beta == 1.0 else x ** (-beta)


def _em_rounding(hi, beta: float) -> np.ndarray:
    # bound on the rounding of power_sum_range's EM tail difference over
    # [lo, hi]: a few ulps of the tail's size at hi, _em_tail(hi) ~ T(hi)
    x = hi.astype(np.float64)
    size = np.log(x) if beta == 1.0 else x ** (1.0 - beta) / (1.0 - beta)
    return 16.0 * np.finfo(np.float64).eps * size


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
