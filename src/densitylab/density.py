"""Finite-horizon density functionals.

Implements counting and logarithmic density profiles, the Banach window
supremum

    g_H(n) = max over k with k*n <= H+1 of  sum_{x in A, k <= x < k*n} 1/x,

the Banach log density estimate min_n g_H(n)/ln(n), the Banach (counting)
density window maximum, and the weighted family

    bd_m window value at k:  (1/(m*n)) * sum_{x in A, k <= x <= (ceil(k^(1/m))+n)^m} x^(-(m-1)/m).

All window maxima are exact over the truncated k-range, so no candidate
maximum is sampled away.  The Banach windows and the count windows (bd, and
bd_m at m = 1) share one scan, ``_window_max``: their values never fall while
k steps over a non-member and never rise while it steps over a member, so
only the set's block starts (its elements, for an element view) and the last
k are evaluated.  The m-th root windows evaluate the left endpoint of each
segment of constant ceil(k^(1/m)), where the value is non-increasing.
Every window sum of x^(-beta) comes from ``_power_sums``: block views
(``full``, ``interval_union``, ``example2``) in closed form, never
materialized, so also above the materialization cap; element views from
compensated prefix sums (``even`` too: its own closed form had no caller).
The Banach scan and bd_m at m >= 2 only need the largest window, so on a
block view they ask ``BlockSums.window_max`` (``_power_sum_max``): it
estimates every window in O(1), sums exactly only those within the relative
bound ``numerics.WINDOW_MAX_DELTA`` of the best estimate, and so reports the
exact path's float and first maximizing k, bit for bit as a full scan would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .intset import IntegerSetSpec, block_offsets, count_le
from .numerics import BlockSums, PrefixSums, floor_nth_root, geometric_grid

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


def default_checkpoints(horizon: int, start: int = 2) -> list[int]:
    """Powers of two in [start, horizon], always including the horizon."""
    if horizon < 2:
        raise ValidationError("horizon must be >= 2")
    pts = []
    p = 1 << max(1, int(start).bit_length() - 1)
    if p < start:
        p <<= 1
    while p < horizon:
        pts.append(p)
        p <<= 1
    pts.append(horizon)
    return pts


# ---------------------------------------------------------------------------
# Power sums: cached prefix sums of an element view, block sums of a block view
# ---------------------------------------------------------------------------

# One entry per (spec, beta): the largest horizon built so far and its table,
# ``PrefixSums`` of the weights x**(-beta) of an element view's members or
# the ``BlockSums`` of a block view.  Both answer a smaller horizon's windows
# as they are (prefix sums are built front to back); a larger horizon
# rebuilds the entry, as intset's sieve cache does.  The entry count is
# bounded so a long-lived process that sees many specs does not keep all.
_WEIGHTS_CACHE: dict = {}
_WEIGHTS_CACHE_ENTRIES = 64


def _table(spec: IntegerSetSpec, horizon: int, beta: float, view):
    """The cached ``PrefixSums`` (element view) or ``BlockSums`` (block view)
    of x**(-beta) over ``view = spec.view(horizon)``."""
    starts, ends = view
    key = (spec, beta)
    hit = _WEIGHTS_CACHE.get(key)
    if hit is None or hit[0] < horizon:
        _WEIGHTS_CACHE.pop(key, None)  # the smaller entry is not held while the larger one builds
        if len(_WEIGHTS_CACHE) >= _WEIGHTS_CACHE_ENTRIES:
            _WEIGHTS_CACHE.clear()
        if starts is ends:
            x = starts.astype(np.float64)
            table = PrefixSums(np.reciprocal(x) if beta == 1.0 else x ** (-beta))
        else:
            table = BlockSums(starts, ends, beta)
        hit = _WEIGHTS_CACHE[key] = (horizon, table)
    return hit[1]


def _power_sums(spec: IntegerSetSpec, horizon: int, beta: float, view, bounds, counts=None) -> np.ndarray:
    """Sum of x**(-beta) over the members of ``view = spec.view(horizon)`` in
    each window [lo, hi] of (lo, hi) = bounds(): in closed form over a block
    view (``BlockSums``), from prefix sums over an element view, read at the
    member counts |A cap [1, lo - 1]| and |A cap [1, hi]| that ``counts()``
    gives (Banach's block offsets; no window tops are held) or else counted."""
    table = _table(spec, horizon, beta, view)
    if view[0] is not view[1]:
        return table.window_sums(*bounds())
    if counts is None:
        lo, hi = bounds()
        return table.range_sum(count_le(view, lo - 1), count_le(view, hi))
    return table.range_sum(*counts())


def _power_sum_max(spec: IntegerSetSpec, horizon: int, beta: float, view, bounds, counts=None) -> tuple[float, int]:
    """(value, index) of the largest ``_power_sums`` window, the first one on
    ties.  A block view asks ``BlockSums.window_max``, which sums exactly only
    the windows whose O(1) estimate can reach the maximum and returns the
    same float and index as the full scan; an element view takes the argmax
    of its prefix-sum differences."""
    if view[0] is not view[1]:
        return _table(spec, horizon, beta, view).window_max(*bounds())
    sums = _power_sums(spec, horizon, beta, view, bounds, counts)
    i = int(np.argmax(sums))
    return sums[i], i


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
        raise CapacityError("checkpoint beyond horizon")
    return sorted(set(pts))


def counting_profile(spec: IntegerSetSpec, kind: str, horizon: int, checkpoints=None) -> DensityProfile:
    """|A cap [1,n]| / n at each checkpoint (exact count, one division)."""
    if kind not in ("upper", "lower"):
        raise ValidationError("kind must be 'upper' or 'lower'")
    pts = _validate_checkpoints(checkpoints or default_checkpoints(horizon), horizon)
    counts = count_le(spec.view(horizon), np.asarray(pts, dtype=np.int64))
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
    sums = _power_sums(spec, horizon, 1.0, spec.view(horizon), lambda: (np.ones_like(tops), tops))
    values = [(n, float(s) / math.log(n)) for n, s in zip(pts, sums)]
    return DensityProfile(f"{kind}_log", horizon, tuple(values))


def count_extremes(spec: IntegerSetSpec, horizon: int) -> tuple[float, float]:
    """Exact (min, max) of |A cap [1,n]| / n over every n in [1, horizon].

    The ratio has local maxima exactly at n = a_i (i-th element) and local
    minima just before the next element and at the horizon, so both extremes
    are computed from the element array alone.
    """
    elems = spec.members(1, horizon)
    total = len(elems)
    if total == 0:
        return 0.0, 0.0
    idx = np.arange(1, total + 1, dtype=np.float64)
    hi = float(np.max(idx / elems))
    lows = [0.0] if elems[0] > 1 else []
    if total > 1:
        lows.append(float(np.min(idx[:-1] / (elems[1:] - 1))))
    lows.append(total / horizon)
    return min(lows), hi


# ---------------------------------------------------------------------------
# Banach and count window scans
# ---------------------------------------------------------------------------


def _window_max(view: tuple[np.ndarray, np.ndarray], kmax: int, tops, weights=None):
    """The best window [k, tops(k)] over 1 <= k <= kmax on a set view, as
    (value, k): the value is the count of members in the window, or, given
    ``weights = (spec, horizon, beta)``, their x**(-beta) sum, maximized by
    ``_power_sum_max``.

    The window functionals here never fall while k steps over a non-member
    and never rise while it steps over a member, so the maximum is attained
    at a block start at or below kmax (for an element view, at an element) or
    at kmax; only those candidates are scanned.  The members below a block
    start are its block offset, so only kmax's left count and the window tops
    need a search.  k is the first maximizing candidate.
    """
    starts = view[0]
    j = int(np.searchsorted(starts, kmax, side="right"))
    cands = np.append(starts[:j], kmax)

    def counts():
        return np.append(block_offsets(view)[:j], count_le(view, kmax - 1)), count_le(view, tops(cands))

    if weights is None:
        below, upto = counts()
        values = upto - below
        i = int(np.argmax(values))
        value = values[i]
    else:
        value, i = _power_sum_max(*weights, view, lambda: (cands, tops(cands)), counts)
    return value, int(cands[i])  # cands are sorted: the first maximizer


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
    value, k1 = _window_max(view, (horizon + 1) // n, lambda k: k * n - 1, (spec, horizon, 1.0))
    i = int(np.searchsorted(view[0], k1 * n - 1, side="right"))
    p = min(int(view[1][i - 1]), k1 * n - 1) if i else 0
    return float(value), p // n + 1


def banach_window_sup(spec: IntegerSetSpec, n: int, horizon: int) -> float:
    """g_H(n): largest reciprocal sum of A over any window [k, k*n) in range."""
    return banach_window_sup_at(spec, n, horizon)[0]


def lbd_profile(spec: IntegerSetSpec, n_max: int, horizon: int, grid=None) -> list[tuple[int, int, float]]:
    """Rows (n, k_star, g_H(n)/ln n) over a geometric n-grid in [2, n_max]."""
    if not 2 <= n_max <= horizon:
        raise DomainError("need 2 <= n_max <= horizon")
    ns = grid if grid is not None else geometric_grid(2, n_max)
    rows = []
    for n in ns:
        g, k_star = banach_window_sup_at(spec, n, horizon)
        rows.append((n, k_star, g / math.log(n)))
    return rows


def lbd_estimate(spec: IntegerSetSpec, n_max: int, horizon: int, grid=None) -> float:
    """min over the n-grid of g_H(n)/ln n: an upper estimate of the Banach
    log density whose bias shrinks as n_max and the horizon grow."""
    rows = lbd_profile(spec, n_max, horizon, grid)
    return min(v for _, _, v in rows)


def bd_estimate_at(spec: IntegerSetSpec, n: int, horizon: int) -> tuple[float, int]:
    """(max over k <= H-n of |A cap [k, k+n]|/(n+1), k*).

    ``_window_max`` scans the block starts and H-n, so k* is the smallest
    member k reaching the maximum, or H-n when none does.  That is not
    always the smallest maximizing k: a window starting below the first
    member of its best window reaches the same count (primes, n = 2,
    H = 1000: k* = 2, and k = 1 counts the same two primes).
    """
    n = int(n)
    if not 1 <= n < horizon:
        raise DomainError("need 1 <= n < horizon")
    best, k_star = _window_max(spec.view(horizon), horizon - n, lambda k: k + n)
    return int(best) / (n + 1), k_star


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
    the scan exact at every horizon.  The best window comes from ``_power_sum_max``
    (``even`` reads its elements like any element kind: no caller needed a
    closed form for it); ties resolve to the smallest k.
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
        best, k_star = _window_max(spec.view(horizon), kmax, lambda k: k + n)
        return int(best) / n, k_star

    tmax = floor_nth_root(horizon, m) - n
    if tmax < 1:
        return 0.0, 0
    ts = range(1, tmax + 1)
    ks = np.asarray([1 if t == 1 else (t - 1) ** m + 1 for t in ts], dtype=np.int64)
    tops = np.asarray([(t + n) ** m for t in ts], dtype=np.int64)
    best, i = _power_sum_max(spec, horizon, (m - 1) / m, spec.view(horizon), lambda: (ks, tops))
    return float(best) / (m * n), int(ks[i])  # ks are sorted: the first maximizer has the smallest k


def bdm_window_sup(spec: IntegerSetSpec, m: int, n: int, horizon: int) -> float:
    """Finite window supremum of the m-th root weighted density family."""
    return bdm_window_sup_at(spec, m, n, horizon)[0]
