"""Numeric kernels: compensated summation, reciprocal-power range sums,
and exact integer m-th roots.

Everything downstream reduces to sums of the form

    sum_{x in S, lo <= x <= hi} x**(-beta),   0 <= beta <= 1,

either over explicit element arrays (compensated prefix sums, queried by
difference) or over full integer ranges, which one kernel, ``power_sums``,
answers in O(1) per range: at most EXACT_TERMS terms term by term, a longer
range as an exact head below EXACT_TERMS plus an Euler-Maclaurin tail.
``BlockSums`` answers windows over a union of integer blocks from it: each
whole block once, then only the parts of the blocks a window cuts.

Accuracy notes
--------------
* ``PrefixSums`` stores the plain float64 cumulative sum together with the
  cumulative rounding-error correction recovered by TwoSum.  The first-order
  rounding error of the running sum is captured exactly for any terms (for
  non-increasing positive terms it is the error Fast2Sum would give); what
  remains is the rounding of the correction accumulation itself, a
  second-order effect below 1e-12 even for 1e9 terms.  The documented
  worst-case error is < 1e-10 per 1e9 terms.  Precisely, with u = 2**-53,
  ``range_sum(i, j)`` for rows i < j < r is within 3u V + 8 (r u)**2 S of
  the true sum V of its weights, where S is the sum of the first r - 1
  weights: the correction kept at row k has gathered at most (k u)**2 S of
  rounding, and the two differences and their sum add at most
  3u V + 4 r u**2 S more.  The Banach scan's skip margin
  (``density._window_max``) is built from this bound.  A table is one pass
  in chunks of _CHUNK weights, carried from chunk to chunk, that keeps the
  rows at chosen entry counts: every row has the bits of one sequential
  cumulative sum, and so does a row carried on from a kept one.
* ``power_sums`` is within 1e-14 relative of the true sum of every range,
  at any distance from 1: its Euler-Maclaurin tail starts at
  x >= EXACT_TERMS, where the truncation error is below 4e-15 relative, and
  its integral is taken in difference form (log1p, expm1), so no two large
  values cancel.  A range's float depends only on the range, not on the
  other ranges of the call or its place among them.
"""

from __future__ import annotations

import math

from ._np import np

__all__ = [
    "PrefixSums",
    "BlockSums",
    "power_sums",
    "power_sum_range",
    "harmonic_range",
    "harmonic_number",
    "floor_nth_root",
    "ceil_nth_root",
    "geometric_grid",
    "round12",
]

# Ranges of at most this many terms are summed term by term; a longer one
# sums its terms below this term by term and the rest by Euler-Maclaurin.
EXACT_TERMS = 256
# Rows summed term by term at once: a chunk's terms are one
# _ROWS x EXACT_TERMS matrix, so memory does not grow with the range count.
_ROWS = 1 << 10
# Weights per chunk of a ``PrefixSums`` pass, so its temporaries are one chunk long.
_CHUNK = 1 << 16
# Entry counts between the kept rows of a table read by ``carried``.
STRIDE = 16


class PrefixSums:
    """Compensated prefix sums of positive weights kept after the sorted entry
    counts of ``at_counts(counts, weights_of)``, where ``weights_of(index)``
    gives the weights of the entries a slice or an index array names:
    ``range_sum(i, j)`` sums weights[counts[i]:counts[j]] with the rounding
    of the cumulative sum corrected for, to ~1e-13 relative over 1e7+ terms."""

    def __init__(self, s: np.ndarray, c: np.ndarray):
        self._s, self._c = s, c

    @classmethod
    def at_counts(cls, counts: np.ndarray, weights_of, old: PrefixSums | None = None) -> PrefixSums:
        """The table kept at the sorted entry counts ``counts`` (int64, at
        least one), from the weights of the first counts[-1] entries.
        ``old``, the table kept at a prefix of ``counts`` over the same
        weights, is copied, and the pass carries on from its last row,
        reading only the weights past it, with the bits of a fresh pass."""
        r = 0 if old is None else len(old._s)
        carry = (0, 0.0, 0.0) if old is None else (int(counts[r - 1]), old._s[-1], old._c[-1])
        table = cls(*_running_sums(weights_of, counts, carry))
        if r:
            table._s[:r], table._c[:r] = old._s, old._c
        return table

    def range_sum(self, i, j):
        """Sum of weights[counts[i]:counts[j]]; i, j may be scalars, index
        arrays or slices."""
        s, c = self._s, self._c
        return (s[j] - s[i]) + (c[j] - c[i])

    @property
    def total(self) -> float:
        return float(self._s[-1] + self._c[-1])

    def carried(self, counts: np.ndarray, weights_of) -> tuple[np.ndarray, np.ndarray]:
        """The sums (s, c) after each entry count of ``counts`` (int64, any
        order) from this table, kept at every STRIDE-th count.  Counts that
        span at most STRIDE entries each take one pass in sorted order from
        the kept row below the least; others each carry the kept row below
        them over fewer than STRIDE weights, along axis 0 of a (depth,
        counts) array, _CHUNK // STRIDE counts at a time."""
        s, c, step = np.empty(len(counts)), np.empty(len(counts)), max(1, _CHUNK // STRIDE)
        if len(counts) and counts.max() - (least := int(counts.min())) <= STRIDE * len(counts):
            order, q = np.argsort(counts, kind="stable"), least // STRIDE
            s[order], c[order] = _running_sums(weights_of, counts[order], (q * STRIDE, self._s[q], self._c[q]))
            return s, c
        for p in range(0, len(counts), step):
            r = counts[p : p + step]
            (k, d), cols = np.divmod(r, STRIDE), np.arange(len(r))
            seg_s, seg_c = np.empty((int(d.max()) + 1, len(r))), np.empty((int(d.max()) + 1, len(r)))
            seg_s[0], seg_c[0] = self._s[k], self._c[k]
            if len(seg_s) > 1:  # entry max(r) - 1 exists; the entries past it, which no row reads, are clipped
                idx = np.minimum(k * STRIDE + np.arange(len(seg_s) - 1)[:, None], r.max() - 1)
                _two_sum(seg_s, seg_c, weights_of(idx))
            s[p : p + step], c[p : p + step] = seg_s[d, cols], seg_c[d, cols]
        return s, c


def _running_sums(weights_of, counts: np.ndarray, carry=(0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """The compensated running sums (s, c) after each of the sorted entry
    counts ``counts``, carried on from ``carry`` = (start, s, c), the sums
    after the first start <= counts[0] weights.  A chunk of entries lo to
    hi - 1 carries them on in one chunk-long buffer whose first slot holds
    the sums after lo weights, so every sum has the bits of one sequential
    cumulative sum, wherever the chunks start."""
    (start, carry_s, carry_c), n = carry, int(counts[-1])
    s, c = np.full(len(counts), carry_s), np.full(len(counts), carry_c)
    buf_s, buf_c = np.empty(min(n - start, _CHUNK) + 1), np.empty(min(n - start, _CHUNK) + 1)
    buf_s[0], buf_c[0] = carry_s, carry_c
    for lo in range(start, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        seg_s, seg_c = buf_s[: hi - lo + 1], buf_c[: hi - lo + 1]
        _two_sum(seg_s, seg_c, weights_of(slice(lo, hi)))
        r0, r1 = np.searchsorted(counts, (lo, hi), side="right")  # the counts in (lo, hi]
        at = counts[r0:r1] - lo
        s[r0:r1], c[r0:r1] = seg_s[at], seg_c[at]
        buf_s[0], buf_c[0] = seg_s[-1], seg_c[-1]
    return s, c


def _two_sum(seg_s: np.ndarray, seg_c: np.ndarray, w: np.ndarray) -> None:
    """Carry the running sums in seg_s[0] and seg_c[0] on over the weights w,
    in place along axis 0: row i gets the sums after i weights (TwoSum)."""
    seg_s[1:] = w
    np.cumsum(seg_s, axis=0, out=seg_s)
    # TwoSum error of each step seg_s[i + 1] = seg_s[i] + w[i], in seg_c[1:]
    s0, s1, e = seg_s[:-1], seg_s[1:], seg_c[1:]
    np.subtract(s1, s0, out=e)
    t = s1 - e
    np.subtract(s0, t, out=t)
    np.subtract(w, e, out=e)
    e += t
    np.cumsum(seg_c, axis=0, out=seg_c)


def power_sums(lo, hi, beta: float) -> np.ndarray:
    """sum_{x=lo}^{hi} x**(-beta) for each pair of integer arrays lo, hi
    (int64, or object arrays of Python ints of any size), 1 <= lo,
    0 <= beta <= 1; an empty range (hi < lo) sums to 0.

    A range of at most EXACT_TERMS terms is summed term by term, as one
    zero-padded row of EXACT_TERMS terms, in chunks of _ROWS rows.  A longer
    range sums its terms below EXACT_TERMS the same way, and from
    a = max(lo, EXACT_TERMS) to hi takes Euler-Maclaurin through the B4
    term, with the integral in difference form so nothing cancels.
    f = x**(-beta) is completely monotone, so that error is at most the first
    omitted term, beta(beta+1)...(beta+4)/30240 * a**(-beta-5) <= 4e-3 a**(-5)
    times the first term a**(-beta): below 4e-15 relative for a >= 256, and
    rounding adds about 1e-15.  Every step is elementwise or one fixed-width
    row, so a range's float does not depend on the other ranges of the call.
    """
    out = np.zeros(len(lo))
    long = hi - lo >= EXACT_TERMS
    top = np.where(long, EXACT_TERMS - 1, hi)  # the last term summed term by term
    rows = np.flatnonzero(lo <= top)
    for c in range(0, len(rows), _ROWS):
        r = rows[c : c + _ROWS]
        x = lo[r, None] + np.arange(EXACT_TERMS)
        terms = _powers(x.astype(np.float64), beta)
        terms[x > top[r, None]] = 0.0
        out[r] = terms.sum(axis=1)
    t = np.flatnonzero(long)
    a_int = np.maximum(lo[t], EXACT_TERMS)
    a, b = a_int.astype(np.float64), hi[t].astype(np.float64)
    ratio = np.log1p((hi[t] - a_int).astype(np.float64) / a)  # log(b / a)
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


def power_sum_range(lo: int, hi: int, beta: float) -> float:
    """sum_{x=lo}^{hi} x**(-beta) for integers 1 <= lo <= hi, 0 <= beta <= 1:
    ``power_sums`` of the one range, within 1e-14 relative.  The endpoints
    may be Python ints of any size (they are passed as object arrays);
    beta = 0 counts the range exactly."""
    if hi < lo:
        return 0.0
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if beta == 0.0:
        return float(hi - lo + 1)
    return float(power_sums(np.array([lo], dtype=object), np.array([hi], dtype=object), beta)[0])


class BlockSums:
    """Window sums of x**(-beta) over a union of sorted disjoint integer
    blocks [starts[b], ends[b]], without materializing its members.

    One ``power_sums`` call sums every block into ``PrefixSums``, so a window
    takes the blocks it covers whole by difference; the parts of the at most
    two blocks it cuts take one ``power_sums`` call per side.  Windows
    holding the same members give the same float.
    """

    def __init__(self, starts, ends, beta: float):
        starts = self._starts = np.asarray(starts, dtype=np.int64)
        ends = self._ends = np.asarray(ends, dtype=np.int64)
        self._beta = beta
        self._whole = PrefixSums.at_counts(np.arange(len(starts) + 1), lambda i: power_sums(starts[i], ends[i], beta))

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

    def window_sums(self, lo, hi) -> np.ndarray:
        """Sum over the members in each window [lo, hi] (int64 arrays, lo <= hi)."""
        out, cuts = self._parts(lo, hi)
        for w, a, b in cuts:  # the left parts, then the right ones
            out[w] += power_sums(a, b, self._beta)
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


def round12(v: float) -> float:
    """Round to 12 significant digits (report serialization contract)."""
    return float(f"{v:.12g}")


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
