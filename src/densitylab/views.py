"""The array layer: a set's view up to a horizon, the sum tables that
count and sum its members in windows, and the sieves that build the
members of squarefree and primes.

This module answers, for every set kind, how many members lie in [lo, hi]
and what their x**(-beta) sum is, for arrays of windows at once
(``_View.window_sums``).  ``build`` makes a set's view, and
``IntegerSetSpec.view`` caches it.  That method and
``IntegerSetSpec.members`` import this module on first use, and
``density`` at import, so the point-query commands (searches, certify,
productset on small windows, monad) never compile it or load numpy.  It
uses the real numpy module, not the lazy stand-in of ``densitylab._np``.

Views
-----
An ``ElementView`` holds a set's sorted members (uint32 for the sieve kinds
and ``even``, int64 for ``explicit``) and reads its x**(-beta) sums from a
``PrefixSums`` table kept at every STRIDE-th member count.  A
``BlockView`` holds the sorted disjoint blocks of ``full``,
``interval_union`` and ``example2`` and sums them in closed form with
``BlockSums``, without materializing a member.  A sieve kind's view grows
with the horizon (``_sieve_members``): the larger view copies the smaller
one's members, sieves only the integers above them, and keeps its sum
tables, which extend.

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
* ``power_sums`` answers sum_{x=lo}^{hi} x**(-beta) in O(1) per range,
  vectorized, within 1e-14 relative of the true sum of every range, at any
  distance from 1: its Euler-Maclaurin tail starts at x >= EXACT_TERMS,
  where the truncation error is below 4e-15 relative, and its integral is
  taken in difference form (log1p, expm1), so no two large values cancel.
  A range's float depends only on the range, not on the other ranges of
  the call or its place among them.  ``numerics.power_sum_range`` is its
  scalar twin for one range.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import ValidationError
from .intset import _SIEVE_KINDS, _check_size, _small_primes
from .numerics import EXACT_TERMS

# numpy last: a module compiled after numpy has loaded raises the process's
# peak RSS (0.2 MiB for numerics on a density request)
from ._np import numpy as np

__all__ = ["PrefixSums", "BlockSums", "power_sums", "ElementView", "BlockView"]

# ---------------------------------------------------------------------------
# Sum tables
# ---------------------------------------------------------------------------

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
    """sum_{x=lo}^{hi} x**(-beta) for each pair of int64 arrays lo, hi,
    1 <= lo, 0 <= beta <= 1; an empty range (hi < lo) sums to 0.

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


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


class _View:
    """What both views share: the horizon, and the sum tables that a view
    and its clips hold in one dict."""

    def table(self, key, size: int, build):
        """The table of ``key`` if built at ``size`` or above, else
        ``build(old)`` kept at ``size``, where ``old`` is the smaller table or
        None: an element view's tables extend it, a block view's ignore it."""
        if self._tables.get(key, (-1,))[0] < size:
            self._tables[key] = (size, build(self._tables.pop(key, (0, None))[1]))
        return self._tables[key][1]

    def window_sums(self, lo, hi, beta=None, below=None):
        """The members in each window [lo, hi] (int64 arrays; scalars on an
        element view count): their count when ``beta`` is None, else their
        x**(-beta) sum, read at both ends at once from ``sums_table``.
        ``below``, when given, is |A cap [1, lo - 1]|."""
        if below is None:
            below = self.count_le(lo - 1)
        top = self.count_le(hi)
        del hi  # the caller passed the tops without a name: they are not held while the sums are read
        if beta is None:
            return top - below
        s, c = self.sums_table(beta).carried(np.concatenate((below, top)), _member_weights(self.starts, beta))
        return (s[len(top) :] - s[: len(top)]) + (c[len(top) :] - c[: len(top)])


def _member_weights(a: np.ndarray, beta: float):
    """``weights_of`` for a ``PrefixSums`` pass over the members a."""
    return lambda i: _powers(a[i].astype(np.float64), beta)


class ElementView(_View):
    """The members of a set up to a horizon as a sorted array, each a block
    of its own: ``starts`` and ``ends`` are that array, uint32 for the sieve
    kinds and ``even`` (4 bytes per member) and int64 for ``explicit``.  It
    holds nothing else but its sum tables, and counts by binary search in
    ``count_le``, the one place that searches the members."""

    def __init__(self, horizon: int, members: np.ndarray, tables: dict | None = None):
        self.horizon, self._tables = horizon, {} if tables is None else tables
        self.starts = self.ends = members

    def clip(self, horizon: int) -> "ElementView":
        """The view up to a smaller horizon, sharing this one's members and tables."""
        return ElementView(horizon, self.starts[: self.count_le(horizon)], self._tables)

    def sums_table(self, beta: float):
        """The ``PrefixSums`` of x**(-beta) over the members kept at every
        STRIDE-th member count: holding no members, it extends as they grow."""
        def build(old):
            counts = np.arange(0, len(self.starts) + 1, STRIDE)
            return PrefixSums.at_counts(counts, _member_weights(self.starts, beta), old)
        return self.table(beta, self.horizon, build)

    def count_le(self, x):
        """|A cap [1, x]| for each x (array or scalar).  On uint32 members
        other keys are clipped to [0, horizon] and cast to uint32 first:
        numpy converts the whole member array on every search with keys of
        another dtype, and no member lies outside that range.  A uint32 view
        exists only where the horizon is below 2^32, so neither its keys nor
        the window tops computed from its members wrap."""
        a = self.starts
        if a.dtype.kind == "u" and getattr(x, "dtype", None) != a.dtype:
            if getattr(x, "ndim", 0):
                x = np.maximum(x, 0)
                x = np.minimum(x, self.horizon, out=x).astype(a.dtype)
            else:  # a scalar key is clipped in Python ints: no array is built
                x = a.dtype.type(min(max(int(x), 0), self.horizon))
        return a.searchsorted(x, side="right")

    def blocks_le(self, x):
        """The blocks starting at or below each x: the members, counted."""
        return self.count_le(x)

    def below(self, i: int, j: int) -> np.ndarray:
        """The members below starts[i], ..., starts[j - 1], all of them
        below index len(starts): i, ..., j - 1."""
        return np.arange(i, j, dtype=np.int64)


class BlockView(_View):
    """A set up to a horizon as sorted disjoint blocks [starts[b], ends[b]]
    (int64 arrays), with the members below each block counted once; their
    x**(-beta) sums come from ``BlockSums``, in closed form."""

    def __init__(self, horizon: int, starts: np.ndarray, ends: np.ndarray, tables: dict | None = None):
        self.horizon, self._tables = horizon, {} if tables is None else tables
        self.starts, self.ends = starts, ends
        self._ends0 = np.concatenate(([0], ends))  # index 0: no block
        self._below = np.zeros(len(starts) + 1, dtype=np.int64)  # then |A|
        np.cumsum(ends - starts + 1, out=self._below[1:])

    def clip(self, horizon: int) -> "BlockView":
        """The view up to a smaller horizon, sharing this one's tables."""
        i = self.blocks_le(horizon)
        return BlockView(horizon, self.starts[:i], np.minimum(self.ends[:i], horizon), self._tables)

    def window_sums(self, lo, hi, beta=None, below=None):
        if beta is None:
            return super().window_sums(lo, hi, below=below)
        return self.table(beta, self.horizon, lambda old: BlockSums(self.starts, self.ends, beta)).window_sums(lo, hi)

    def count_le(self, x):
        """|A cap [1, x]| for each x >= 0 (int64 array or scalar) up to the
        horizon."""
        i = self.blocks_le(x)
        return self._below[i] - np.maximum(self._ends0[i] - x, 0)  # the last may run past x

    def blocks_le(self, x):
        """The blocks starting at or below each x (int64 array or scalar)."""
        return np.searchsorted(self.starts, x, side="right")

    def below(self, i: int, j: int) -> np.ndarray:
        """The members below starts[i], ..., starts[j - 1], all of them
        below index len(starts)."""
        return self._below[i:j]


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------

_SEGMENT = 1 << 22


def _sieve_segment(kind: str, lo: int, hi: int) -> np.ndarray:
    """Boolean mask over [lo, hi] for a sieve kind."""
    size = hi - lo + 1
    mask = np.ones(size, dtype=bool)
    if lo < 1:
        raise ValidationError("sieve range starts at 1")
    primes = _small_primes()
    primes = primes[: bisect_right(primes, math.isqrt(hi))]
    if kind == "squarefree":
        for p in primes:
            q = p * p
            start = ((lo + q - 1) // q) * q
            if start <= hi:
                mask[start - lo :: q] = False
    else:  # primes
        if lo == 1:
            mask[0] = False
        for p in primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start <= hi:
                mask[start - lo :: p] = False
        for p in primes[bisect_left(primes, lo) :]:  # small primes themselves stay marked
            mask[p - lo] = True
    return mask


def _sieve_members(kind: str, hi: int, old: ElementView | None = None) -> ElementView:
    """The view of a sieve kind up to hi.

    It grows from ``old``, the kind's view up to a smaller horizon h0, or
    from nothing (h0 = 0), so a fresh build takes the same path: old's
    members are copied, and only the integers in (h0, hi] are sieved and
    decoded into uint32 members (every sieve horizon is below 2^32); the size
    cap counts the whole new view.  Old's members are held only until they
    are copied.  Its tables, which extend (``_View.table``),
    are carried over in a copy of its dict, so old itself is not changed."""
    if old is None:  # the view of nothing, up to 0
        old = ElementView(0, np.empty(0, dtype=np.uint32))
    h0, members_below, tables = old.horizon, old.starts, dict(old._tables)
    old = None
    # Pass 1 sieves and counts each segment and packs it into one temporary
    # of bits over (h0, hi] (bit p is h0 + 1 + p; a segment is a whole
    # number of bytes); pass 2 writes the members into one buffer of the
    # exact size, unpacking 2^16 integers at a time, and drops the bits, so
    # the peak is the bits, that buffer, one segment and the old members.
    octets = np.zeros(-(-(hi - h0) // 8), dtype=np.uint8)
    total = len(members_below)
    for lo in range(h0 + 1, hi + 1, _SEGMENT):
        seg = _sieve_segment(kind, lo, min(hi, lo + _SEGMENT - 1))
        total += int(np.count_nonzero(seg))
        _check_size(total)  # trip before the build grows any further
        packed = np.packbits(seg, bitorder="little")
        del seg  # not held while the next one is sieved
        b0 = (lo - h0 - 1) // 8
        octets[b0 : b0 + len(packed)] = packed
    arr = np.empty(total, dtype=np.uint32)
    pos = len(members_below)
    arr[:pos], members_below = members_below, None
    for b0 in range(0, len(octets), 1 << 13):  # the bits past hi are zero
        offsets = np.flatnonzero(np.unpackbits(octets[b0 : b0 + (1 << 13)], bitorder="little"))
        np.add(offsets, h0 + 1 + 8 * b0, out=arr[pos : pos + len(offsets)], casting="unsafe")  # all below 2^32
        pos += len(offsets)
    arr.flags.writeable = False
    return ElementView(hi, arr, tables)


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build(spec, horizon: int, take) -> ElementView | BlockView:
    """The view of ``spec`` up to ``horizon``, whose caps
    ``IntegerSetSpec.view`` has checked, in place of the cached view that
    ``take(spec)`` takes out of the cache (None if there is none).  A sieve
    kind hands that view, unnamed, to ``_sieve_members`` to grow from, so
    only that frame holds it; the other kinds drop it before they build.
    ``even`` holds uint32 members, ``explicit`` its int64 elements below
    2^63 (its view never grows), and the block kinds their blocks starting
    at or below the horizon, the last one clipped to it."""
    if spec.kind in _SIEVE_KINDS:
        return _sieve_members(spec.kind, horizon, take(spec))
    take(spec)
    if spec.kind == "even":
        members = np.arange(2, horizon + 1, 2, dtype=np.uint32)
    elif spec.kind == "explicit":
        members, horizon = np.asarray(spec.elements[: bisect_left(spec.elements, 2**63)], dtype=np.int64), 2**63 - 1
    else:
        i = bisect_right(spec._blocks[0], horizon)  # blocks starting at or below the horizon
        starts, ends = spec._blocks[0][:i], spec._blocks[1][:i]
        if i and ends[-1] > horizon:
            ends[-1] = horizon
        return BlockView(horizon, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64))
    members.flags.writeable = False  # cached: every caller shares it
    return ElementView(horizon, members)
