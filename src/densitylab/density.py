"""Finite-horizon density functionals.

Implements counting and logarithmic density profiles, the Banach window
supremum

    g_H(n) = max over k with k*n <= H+1 of  sum_{x in A, k <= x < k*n} 1/x,

the Banach log density estimate min_n g_H(n)/ln(n), the Banach (counting)
density window maximum, and the weighted family

    bd_m window value at k:  (1/(m*n)) * sum_{x in A, k <= x <= (ceil(k^(1/m))+n)^m} x^(-(m-1)/m).

All window maxima are exact over the truncated k-range, so no candidate
maximum is sampled away.  Every functional reads the set through
``IntegerSetSpec.view``: a ``BlockView`` of the blocks of ``full``,
``interval_union`` and ``example2``, or an ``ElementView`` of the sorted
members of the other kinds.  Both count the members up to x (``count_le``)
and sum the counts or the x^(-beta) of the members in windows
(``window_sums``), so a type test remains only where an algorithm runs on
one of them alone: the galloping count scan (``_count_max``), the members
below each candidate of ``_window_max`` (an element view's rows lo to
hi - 1; a block view's ``below``), an element view's enclosing windows
(``_row``) and bd_m's sums at perfect powers (``_root_sums``).

The Banach windows and the count windows (bd, and bd_m at m = 1) never fall
while k steps over a non-member and never rise while it steps over a member,
so the maximum sits at a block start (a member, on an element view) or at
the last k.  ``_window_max`` scans those candidates in blocks of 2^5 to
2^16, so no temporary grows with |A|, and skips a block when one enclosing
window, [its first candidate, the top of its last], sums to no more than
the best so far less a margin for the rounding of both sums (0 for
counts).  Every evaluated window is summed as in a full scan, so values and
k* keep their bits.  A skipped block, or one that raised the best, doubles
the next; a block that cannot be skipped after a block that did not raise
the best is halved until it can, or until it is 2^5 candidates long.  The
maxima of the benchmarked sets sit at small k, so a Banach scan evaluates
a few blocks of 2^5 windows; at worst, windows that rise with k, it
evaluates every window and one enclosing sum per block.  The count
windows on an element view take one galloping pass instead
(``_count_max``): the window at a[i] holds more than the best count c so
far exactly when a[i + c] - a[i] <= n, so one difference per member finds
the better windows of a block (2^10 members, doubling up to 2^16 while it
finds none), and only those are counted: at worst, when the counts rise
member by member, every member.  The m-th root windows evaluate the left endpoint of each segment of
constant ceil(k^(1/m)), where the value is non-increasing.

Every window sum of x^(-beta) comes from a table held by the set's cached
view, built once per size (``IntegerSetSpec.view``).  A block view is
summed in closed form by ``BlockSums``, never materialized, so also above
the materialization cap.  The closed form is one O(1) kernel,
``numerics.power_sums``, within 1e-14 relative of each range, and a window's
float does not depend on the other windows of the call.  An element view
(``even`` too: its own closed form had no caller) reads compensated prefix
sums.  The reciprocal sums of the log profile and Banach come from a table
kept at every ``numerics.STRIDE``-th member count, 16 bytes per STRIDE
members (``ElementView.sums_table``): any other row is carried on from the
kept row below it with the float operations of the pass, so it has the
bits of a table with a row per member.  bd_m at m >= 2 reads sums kept only
at the member counts of the perfect m-th powers, since its windows
[(t-1)^m + 1, (t+n)^m] start and end there (``_root_sums``).  Both tables
are one chunked pass, which a larger view or root carries on from the last
kept row instead of starting again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numerics
from ._np import numpy as np
from .errors import DomainError, ValidationError
from .intset import BlockView, ElementView, IntegerSetSpec, _member_weights
from .numerics import PrefixSums, floor_nth_root, geometric_grid

__all__ = [
    "DensityProfile",
    "default_checkpoints",
    "counting_profile",
    "log_profile",
    "count_extremes",
    "banach_window_sup",
    "banach_window_sup_at",
    "lbd_estimate",
    "lbd_profile",
    "bd_estimate",
    "bd_estimate_at",
    "bdm_window_sup",
    "bdm_window_sup_at",
]

FUNCTIONALS = ("upper_count", "lower_count", "upper_log", "lower_log", "banach", "banach_log", "bd_m")


@dataclass(frozen=True)
class DensityProfile:
    """Checkpoint sequence (n, value) for one density functional."""

    functional: str
    horizon: int
    checkpoints: tuple[tuple[int, float], ...]
    m: int | None = None

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ValidationError(f"unknown functional {self.functional!r}")
        ns = [n for n, _ in self.checkpoints]
        if ns != sorted(ns):
            raise ValidationError("checkpoints must be sorted by n")
        if any(v < 0 for _, v in self.checkpoints):
            raise ValidationError("density values are nonnegative")

    @property
    def final_value(self) -> float:
        return self.checkpoints[-1][1]

    @property
    def running_min(self) -> float:
        return min(v for _, v in self.checkpoints)

    @property
    def running_max(self) -> float:
        return max(v for _, v in self.checkpoints)


def default_checkpoints(horizon: int) -> list[int]:
    """Powers of two in [2, horizon], always including the horizon."""
    if horizon < 2:
        raise ValidationError("horizon must be >= 2")
    pts = []
    p = 2
    while p < horizon:
        pts.append(p)
        p <<= 1
    pts.append(horizon)
    return pts


def _root_sums(root: int, m: int, view: ElementView) -> PrefixSums:
    """The sums of x**(-(m-1)/m) over the members of an element view of
    horizon at least root**m, kept only at the member counts
    |A cap [1, s**m]| for s = 0..root: ``range_sum(t - 1, t + n)`` is the
    window [(t-1)**m + 1, (t+n)**m], bit for bit the full table's sum.  One
    chunked pass over the members <= root**m builds it, the view's table m
    (no beta is 2 or more); a larger root's table has root r's rows 0..r, so
    it extends root r's table, reading only the members above r**m, also
    when the view has grown since (``IntegerSetSpec.view``)."""

    def build(old):
        counts = view.count_le(np.arange(root + 1, dtype=np.int64) ** m)
        return PrefixSums.at_counts(counts, _member_weights(view.starts, (m - 1) / m), old)

    return view.table(m, root, build)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def _validate_checkpoints(checkpoints, horizon, minimum=1):
    pts = [int(n) for n in checkpoints]
    if not pts:
        raise ValidationError("need at least one checkpoint")
    if any(n < minimum for n in pts):
        raise ValidationError(f"checkpoints must be >= {minimum}")
    if max(pts) > horizon:
        raise ValidationError("checkpoint beyond horizon")
    return sorted(set(pts))


def counting_profile(spec: IntegerSetSpec, kind: str, horizon: int, checkpoints=None) -> DensityProfile:
    """|A cap [1,n]| / n at each checkpoint (exact count, one division)."""
    if kind not in ("upper", "lower"):
        raise ValidationError("kind must be 'upper' or 'lower'")
    pts = _validate_checkpoints(checkpoints or default_checkpoints(horizon), horizon)
    counts = spec.view(horizon).count_le(np.asarray(pts, dtype=np.int64))
    values = [(n, int(c) / n) for n, c in zip(pts, counts)]
    return DensityProfile(f"{kind}_count", horizon, tuple(values))


def log_profile(spec: IntegerSetSpec, horizon: int, checkpoints=None, kind: str = "upper") -> DensityProfile:
    """(1/ln n) * sum_{x in A, x <= n} 1/x at each checkpoint.

    The reciprocal sum is accumulated in increasing x, with compensated
    summation over an element view and in closed form over a block view.
    """
    if kind not in ("upper", "lower"):
        raise ValidationError("kind must be 'upper' or 'lower'")
    pts = _validate_checkpoints(checkpoints or default_checkpoints(horizon), horizon, minimum=2)
    tops = np.asarray(pts, dtype=np.int64)
    sums = spec.view(horizon).window_sums(np.ones_like(tops), tops, 1.0)
    values = [(n, float(s) / math.log(n)) for n, s in zip(pts, sums)]
    return DensityProfile(f"{kind}_log", horizon, tuple(values))


def count_extremes(spec: IntegerSetSpec, horizon: int) -> tuple[float, float]:
    """Exact (min, max) of |A cap [1,n]| / n over every n in [1, horizon].

    The ratio never falls inside a block and falls across a gap, so its
    local maxima sit at block ends (on an element view, its members) and
    its local minima just before the next block start and at the horizon:
    both extremes come from the view's blocks and the members up to each
    block end (``below``), and a block view is never materialized.
    """
    view = spec.view(horizon)
    starts = view.starts
    if len(starts) == 0:
        return 0.0, 0.0
    upto = view.below(1, len(starts) + 1)  # the members up to each block end
    ratios = upto / view.ends
    hi = float(ratios.max())
    lows = [0.0] if starts[0] > 1 else []
    if len(starts) > 1:  # before each next block, written over the ratios
        gaps = np.subtract(starts[1:], 1, out=ratios[:-1])
        lows.append(float(np.divide(upto[:-1], gaps, out=gaps).min()))
    lows.append(int(upto[-1]) / horizon)
    return min(lows), hi


# ---------------------------------------------------------------------------
# Banach and count window scans
# ---------------------------------------------------------------------------


# Candidates per block of a window scan, and members per block of a count
# scan: a block starts at _FIRST_WINDOWS and _FIRST_BLOCK, and doubles, up to
# _CHUNK, while the scan rules it out, so no temporary is more than one chunk
# long.  An evaluated window carries its two rows over up to STRIDE - 1
# weights each, so the window scan starts small.
_CHUNK = 1 << 16
_FIRST_BLOCK = 1 << 10
_FIRST_WINDOWS = 1 << 5
# A computed reciprocal window sum V' of a window whose true sum is V, on a
# view of r - 1 members or blocks, has |V' - V| <= _REL * V + _ABS * r**2.
# _REL holds the 1e-14 relative bound of ``numerics.power_sums`` (a block
# view's block sums and cut parts) and a few roundings, 3u of them from the
# difference of two ``PrefixSums`` rows; _ABS * r**2 is the second-order
# term of the compensated prefix sums, 8 (r u)**2 S, where u = 2**-53 and S,
# the sum of the table's rows, is below 1 + 63 ln 2 for reciprocals of
# integers below 2**63 (see ``PrefixSums``).
_U = 2.0**-53
_REL = 1e-14 + 8 * _U
_ABS = 8 * _U * _U * (1 + 63 * math.log(2))


def _window_max(view, kmax: int, tops, sums: bool = False):
    """The best window [k, tops(k)] over 1 <= k <= kmax on a set view, as
    (value, k): the value is the count of members in the window (block views
    only; ``_count_max`` answers element views), or, with ``sums``, their
    reciprocal sum.

    The window functionals here never fall while k steps over a non-member
    and never rise while it steps over a member, so the maximum is attained
    at a block start at or below kmax (for an element view, at an element) or
    at kmax.  Only those candidates are scanned, in blocks, the last ending
    with kmax unless kmax is a block start.  A block's enclosing window,
    [its first candidate, the top of its last], holds each of its windows,
    so the block is skipped when that window's value plus a margin is at
    most the best so far.  The margin, 3 (_REL * value + _ABS * r**2),
    covers the error of both computed sums; counts are exact, so theirs is
    0.  It decides only what is skipped: an evaluated block sums its windows
    as a full scan does.  A block starts at _FIRST_WINDOWS candidates and
    doubles up to _CHUNK while the scan skips it or it raises the best.
    Unless the last evaluated block raised the best, a block that is not
    skipped is halved, and its first half tested again, down to
    _FIRST_WINDOWS candidates before it is evaluated: a narrower enclosing
    window rules out more, and a test costs two rows where an evaluation
    costs two per window.  A block evaluated without raising the best
    starts the next again at _FIRST_WINDOWS.  At worst, windows that rise
    with k, nothing is skipped, and each block costs one more window sum.

    The view counts the members below each block start (an element view's
    rows lo to hi - 1, kmax's being j), so only the window tops (and a block
    view's kmax) need a search.  On an element view the enclosing window is
    widened to the kept rows at or outside it (``_row``): its sum is larger,
    which keeps the skip sound, and it carries no weights unless its top
    passes the last kept row.  A later block replaces the best only when
    strictly larger, so k is the first maximizing candidate; a window's
    value does not depend on its block.
    """
    starts, element = view.starts, isinstance(view, ElementView)
    beta = 1.0 if sums else None
    rel, err = (_REL, _ABS * (len(starts) + 1) ** 2) if sums else (0, 0)
    j = int(view.blocks_le(kmax))
    count = j if j and starts[j - 1] == kmax else j + 1  # the candidates: j block starts, then kmax
    best, lo, size, rising = -1, 0, _FIRST_WINDOWS, True  # every value is at least 0
    if element:
        table, stride = view.sums_table(beta), numerics.STRIDE
    while lo < count:
        hi = min(lo + min(size, _CHUNK), count)
        cands = starts[lo : min(hi, j)]
        if hi > j:  # the last candidate is kmax
            cands = np.append(cands, kmax)
        if element:  # from the kept rows at or outside the enclosing window
            t = -(-int(view.count_le(tops(int(cands[-1])))) // stride) * stride
            (s0, c0), (s1, c1) = _row(table, starts, lo - lo % stride), _row(table, starts, min(t, len(starts)))
            cover = (s1 - s0) + (c1 - c0)
        else:
            below = view.below(lo, min(hi, j))
            if hi > j:
                below = np.append(below, view.count_le(kmax - 1))
            cover = view.window_sums(cands[:1], tops(cands[-1:]), beta, below[:1])[0]
        if cover + 3 * (rel * cover + err) <= best:  # no window of the block beats the best
            lo, size = hi, size * 2
        elif not rising and hi - lo > _FIRST_WINDOWS:  # try the narrower enclosing window of its first half
            size = (hi - lo) // 2
        else:
            values = view.window_sums(cands, tops(cands), beta, np.arange(lo, hi) if element else below)
            i = int(np.argmax(values))
            rising = bool(values[i] > best)
            if rising:
                best, k = values[i], int(cands[i])
            lo, size = hi, size * 2 if rising else _FIRST_WINDOWS
    return best, k


def _row(table, a: np.ndarray, r: int) -> tuple[float, float]:
    """The reciprocal sums (s, c) after the first r members a, carried on
    from the kept row of ``ElementView.sums_table`` below r in Python
    floats, with the float operations of a ``PrefixSums`` pass: the same
    bits as a table row."""
    q = r // numerics.STRIDE
    s, c = table._s.item(q), table._c.item(q)
    for x in a[q * numerics.STRIDE : r].tolist():
        w = 1.0 / float(x)
        t = s + w
        e = t - s
        s, c = t, c + ((w - e) + (s - (t - e)))
    return s, c


def _count_max(view, kmax: int, n: int) -> tuple[int, int]:
    """The largest count of members in a window [k, k + n], 1 <= k <= kmax,
    as (count, k*): k* is the smallest member k <= kmax whose window reaches
    it, else kmax.

    A block view scans its block starts with ``_window_max``.  An element
    view a = view.starts takes one galloping pass over its j members <= kmax:
    the window at a[i] holds more than ``best`` members exactly when
    a[i + best] - a[i] <= n, so a block's differences find its better
    windows, only those are counted, and its first maximum becomes the best.
    A block starts at _FIRST_BLOCK members and doubles up to _CHUNK while it
    finds none.  kmax's own window, two scalar counts, wins only when it
    holds more (a member wins a tie).
    """
    if isinstance(view, BlockView):
        value, k = _window_max(view, kmax, lambda k: k + n)
        return int(value), k
    a = view.starts
    j = int(view.count_le(kmax))
    best, first, lo, size = 1, 0, 0, _FIRST_BLOCK  # a[0] spans one member, if j > 0
    while best <= n and lo < min(j, len(a) - best):  # a[i + best] exists for i < len(a) - best
        hi = min(lo + min(size, _CHUNK), j, len(a) - best)
        idx = np.flatnonzero(a[lo + best : hi + best] - a[lo:hi] <= n) + lo
        size *= 2
        if len(idx):  # a[idx] <= kmax: the tops a[idx] + n stay within the horizon
            counts = view.count_le(a[idx] + n) - idx
            i = int(np.argmax(counts))
            best, first, size = int(counts[i]), int(idx[i]), _FIRST_BLOCK
        lo = hi
    top = int(view.count_le(kmax + n) - view.count_le(kmax - 1))
    return (top, kmax) if top > best or not j else (best, int(a[first]))


def banach_window_sup_at(spec: IntegerSetSpec, n: int, horizon: int) -> tuple[float, int]:
    """(g_H(n), smallest maximizing k) with windows [k, k*n) and k*n <= horizon + 1.

    Stepping from k to k+1 drops 1/k when k is a member and adds the members
    of [k*n, k*n + n), at most n terms each at most 1/(k*n), so less than
    1/k in all: the sum falls past a member and never falls past a
    non-member, and ``_window_max`` finds the maximum at a block start or at
    kmax, k1.  The smallest maximizer is p // n + 1, where p is the largest
    member of k1's window (0 if it is empty), read from the view.  A member e in
    [p // n + 1, k1) would have p < e*n, so e's window would hold e and all
    of k1's window and beat it; hence every window from p // n + 1 to k1
    holds the same members and gives the same float.
    """
    n = int(n)
    if n < 2:
        raise DomainError("window ratio n must be >= 2")
    if n > horizon:
        raise DomainError("need n <= horizon")
    view = spec.view(horizon)
    value, k1 = _window_max(view, (horizon + 1) // n, lambda k: (k - 1) * n + (n - 1), sums=True)
    i = int(view.blocks_le(k1 * n - 1))
    p = min(int(view.ends[i - 1]), k1 * n - 1) if i else 0
    return float(value), p // n + 1


def banach_window_sup(spec: IntegerSetSpec, n: int, horizon: int) -> float:
    """g_H(n): largest reciprocal sum of A over any window [k, k*n) in range."""
    return banach_window_sup_at(spec, n, horizon)[0]


def lbd_profile(spec: IntegerSetSpec, n_max: int, horizon: int) -> list[tuple[int, int, float]]:
    """Rows (n, k_star, g_H(n)/ln n) over a geometric n-grid in [2, n_max]."""
    if not 2 <= n_max <= horizon:
        raise DomainError("need 2 <= n_max <= horizon")
    rows = []
    for n in geometric_grid(2, n_max):
        g, k_star = banach_window_sup_at(spec, n, horizon)
        rows.append((n, k_star, g / math.log(n)))
    return rows


def lbd_estimate(spec: IntegerSetSpec, n_max: int, horizon: int) -> float:
    """min over the n-grid of g_H(n)/ln n: an upper estimate of the Banach
    log density whose bias shrinks as n_max and the horizon grow."""
    rows = lbd_profile(spec, n_max, horizon)
    return min(v for _, _, v in rows)


def bd_estimate_at(spec: IntegerSetSpec, n: int, horizon: int) -> tuple[float, int]:
    """(max over k <= H-n of |A cap [k, k+n]|/(n+1), k*).

    ``_count_max`` evaluates the members (on a block view, at the block
    starts) and H-n, so k* is the smallest member k reaching the maximum, or
    H-n when none does.  That is not always the smallest maximizing k: a
    window starting below the first member of its best window reaches the
    same count (primes, n = 2, H = 1000: k* = 2, and k = 1 counts the same
    two primes).
    """
    n = int(n)
    if not 1 <= n < horizon:
        raise DomainError("need 1 <= n < horizon")
    best, k_star = _count_max(spec.view(horizon), horizon - n, n)
    return best / (n + 1), k_star


def bd_estimate(spec: IntegerSetSpec, n: int, horizon: int) -> float:
    """Banach (counting) density window maximum for window length n+1."""
    return bd_estimate_at(spec, n, horizon)[0]


# ---------------------------------------------------------------------------
# Weighted (m-th root) window scans
# ---------------------------------------------------------------------------


def bdm_window_sup_at(spec: IntegerSetSpec, m: int, n: int, horizon: int) -> tuple[float, int]:
    """Maximum over k of (1/(m n)) sum_{x in A cap [k, (ceil(k^(1/m))+n)^m]} x^(-(m-1)/m).

    m = 1 is the window count scan of ``bd_estimate_at`` (same k*), divided
    by n.  For m >= 2, integer m-th roots are exact (binary search); the value
    is non-increasing while ceil(k^(1/m)) stays fixed, so only the left
    endpoint of each root segment (plus k = 1) needs evaluation, which makes
    the scan exact at every horizon.  Window t is [(t-1)^m + 1, (t+n)^m]:
    its sum comes from ``_root_sums`` on an element view (``even`` too: no
    caller needed a closed form for it) and from the view's ``window_sums``
    on a block view; ties resolve to the smallest k.
    """
    m, n = int(m), int(n)
    if m < 1:
        raise DomainError("m must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")

    if m == 1:
        kmax = horizon - n
        if kmax < 1:
            return 0.0, 0
        best, k_star = _count_max(spec.view(horizon), kmax, n)
        return best / n, k_star

    root = floor_nth_root(horizon, m)
    tmax = root - n
    if tmax < 1:
        return 0.0, 0
    view = spec.view(horizon)
    if isinstance(view, ElementView):  # window t reads rows t - 1 and t + n
        sums = _root_sums(root, m, view).range_sum(slice(0, tmax), slice(n + 1, root + 1))
    else:
        ts = np.arange(1, tmax + 1, dtype=np.int64)  # exact: every (t + n)**m <= horizon < 2**63
        sums = view.window_sums((ts - 1) ** m + 1, (ts + n) ** m, (m - 1) / m)
    i = int(np.argmax(sums))  # window i + 1, the first maximizer, has the smallest k
    return float(sums[i]) / (m * n), i**m + 1


def bdm_window_sup(spec: IntegerSetSpec, m: int, n: int, horizon: int) -> float:
    """Finite window supremum of the m-th root weighted density family."""
    return bdm_window_sup_at(spec, m, n, horizon)[0]
