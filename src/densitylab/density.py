"""Finite-horizon density functionals.

Implements counting and logarithmic density profiles, the Banach window
supremum

    g_H(n) = max over k with k*n <= H+1 of  sum_{x in A, k <= x < k*n} 1/x,

the Banach log density estimate min_n g_H(n)/ln(n), the Banach (counting)
density window maximum, and the weighted family

    bd_m window value at k:  (1/(m*n)) * sum_{x in A, k <= x <= (ceil(k^(1/m))+n)^m} x^(-(m-1)/m).

All window maxima are exact over the truncated k-range: the scans enumerate
every k at which the window contents change (plus segment left endpoints for
the m-th root windows, where the value is non-increasing between changes of
ceil(k^(1/m))), so no candidate maximum is sampled away.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .intset import IntegerSetSpec
from .numerics import PrefixSums, ceil_nth_root, floor_nth_root, geometric_grid, power_sum_range

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

_STRUCTURED = ("full", "even", "interval_union", "example2")


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


def thread_count() -> int:
    """Worker cap from DENSITYLAB_THREADS (default 1, sequential)."""
    raw = os.environ.get("DENSITYLAB_THREADS", "1")
    try:
        t = int(raw)
    except ValueError:
        raise ValidationError(f"DENSITYLAB_THREADS must be an integer, got {raw!r}")
    return max(1, t)


# ---------------------------------------------------------------------------
# Cached element arrays and weight prefix sums
# ---------------------------------------------------------------------------

_PREFIX_CACHE: dict = {}
_ELEMS_CACHE: dict = {}


def _elements(spec: IntegerSetSpec, horizon: int) -> np.ndarray:
    key = (spec, horizon)
    arr = _ELEMS_CACHE.get(key)
    if arr is None:
        arr = spec.members(1, horizon)
        arr.flags.writeable = False
        if len(_ELEMS_CACHE) > 64:
            _ELEMS_CACHE.clear()
        _ELEMS_CACHE[key] = arr
    return arr


def _prefix(spec: IntegerSetSpec, horizon: int, beta: float) -> tuple[np.ndarray, PrefixSums]:
    key = (spec, horizon, beta)
    hit = _PREFIX_CACHE.get(key)
    if hit is None:
        elems = _elements(spec, horizon)
        x = elems.astype(np.float64)
        if beta == 1.0:
            w = np.reciprocal(x)
        elif beta == 0.0:
            w = np.ones_like(x)
        else:
            w = x ** (-beta)
        hit = (elems, PrefixSums(w))
        if len(_PREFIX_CACHE) > 64:
            _PREFIX_CACHE.clear()
        _PREFIX_CACHE[key] = hit
    return hit


def _power_sum_over(spec: IntegerSetSpec, lo: int, hi: int, beta: float) -> float:
    """sum of x**(-beta) over spec's members in [lo, hi], without
    materializing structured kinds."""
    if hi < lo:
        return 0.0
    kind = spec.kind
    if kind == "full":
        return power_sum_range(lo, hi, beta)
    if kind == "even":
        lo2 = (lo + 1) // 2
        hi2 = hi // 2
        if hi2 < lo2:
            return 0.0
        return 2.0 ** (-beta) * power_sum_range(lo2, hi2, beta)
    block = spec.block_union()
    if block is not None:
        total = 0.0
        for a, b in block.clip(lo, hi).components:
            total += power_sum_range(a, b, beta)
        return total
    raise ValidationError(f"no closed-form sums for kind {spec.kind!r}")


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
    elems = _elements(spec, horizon)
    counts = np.searchsorted(elems, np.asarray(pts, dtype=np.int64), side="right")
    values = [(n, int(c) / n) for n, c in zip(pts, counts)]
    return DensityProfile(f"{kind}_count", horizon, tuple(values))


def log_profile(spec: IntegerSetSpec, horizon: int, checkpoints=None, kind: str = "upper") -> DensityProfile:
    """(1/ln n) * sum_{x in A, x <= n} 1/x at each checkpoint.

    The reciprocal sum is accumulated in increasing x with compensated
    summation.
    """
    if kind not in ("upper", "lower"):
        raise ValidationError("kind must be 'upper' or 'lower'")
    pts = _validate_checkpoints(checkpoints or default_checkpoints(horizon), horizon, minimum=2)
    elems, prefix = _prefix(spec, horizon, 1.0)
    idx = np.searchsorted(elems, np.asarray(pts, dtype=np.int64), side="right")
    sums = prefix.range_sum(np.zeros_like(idx), idx)
    values = [(n, float(s) / math.log(n)) for n, s in zip(pts, sums)]
    return DensityProfile(f"{kind}_log", horizon, tuple(values))


def count_extremes(spec: IntegerSetSpec, horizon: int) -> tuple[float, float]:
    """Exact (min, max) of |A cap [1,n]| / n over every n in [1, horizon].

    The ratio has local maxima exactly at n = a_i (i-th element) and local
    minima just before the next element and at the horizon, so both extremes
    are computed from the element array alone.
    """
    elems = _elements(spec, horizon)
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
# Banach window scans
# ---------------------------------------------------------------------------


# The Banach scan marks its candidates in a bool mask over [1, kmax] while
# kmax is at most this many times |A|, so the mask never takes more than eight
# times the memory of the element array; sparser sets sort the candidates.
_MASK_PER_ELEMENT = 64


def _max_reduce(cands: np.ndarray, values: np.ndarray) -> tuple[float, int]:
    # candidates are sorted, so the first maximizer has the smallest k
    i = int(np.argmax(values))
    return float(values[i]), int(cands[i])


def _chunked_scan(cands: np.ndarray, evaluate, threads: int) -> tuple[float, int]:
    """Evaluate window sums over sorted candidate k's in chunks and max-reduce.

    Each window sum is computed by the same prefix difference regardless of
    chunking and ties resolve to the smallest k, so the result is
    bit-identical for any thread count.  Workers are capped at the CPU count.
    """
    if len(cands) == 0:
        return 0.0, 0
    threads = max(1, min(threads, len(cands), os.cpu_count() or 1))
    if threads == 1:
        return _max_reduce(cands, evaluate(cands))
    chunks = np.array_split(cands, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda ch: _max_reduce(ch, evaluate(ch)), chunks))
    best_v, best_k = results[0]
    for v, k in results[1:]:
        if v > best_v or (v == best_v and k < best_k):
            best_v, best_k = v, k
    return best_v, best_k


def banach_window_sup_at(spec: IntegerSetSpec, n: int, horizon: int) -> tuple[float, int]:
    """(g_H(n), maximizing k) with windows [k, k*n) and k*n <= horizon + 1.

    Window contents change only at k = a+1 (element a drops out below) and
    k = floor(a/n)+1 (element a enters on top), so scanning those candidate
    k's plus k = 1 yields the exact truncated supremum.  The candidates are
    deduplicated and sorted before any search; ties resolve to the smallest k.
    For a dense set they are marked in a bool mask over [1, kmax]; when kmax
    exceeds ``_MASK_PER_ELEMENT`` times |A| they are sorted with ``np.unique``
    instead, so memory and time follow |A| rather than the horizon.
    """
    n = int(n)
    if n < 2:
        raise DomainError("window ratio n must be >= 2")
    if n > horizon:
        raise DomainError("need n <= horizon")
    kmax = (horizon + 1) // n
    if kmax < 1:
        return 0.0, 0
    elems, prefix = _prefix(spec, horizon, 1.0)
    if len(elems) == 0:
        return 0.0, 1
    i = np.searchsorted(elems, kmax, side="left")
    j = np.searchsorted(elems, kmax * n, side="left")
    if kmax <= _MASK_PER_ELEMENT * len(elems):
        # one temporary at a time keeps the peak at one element-sized array
        mask = np.zeros(kmax + 1, dtype=bool)
        mask[1] = True
        mask[elems[:i] + 1] = True
        mask[elems[:j] // n + 1] = True
        cands = np.flatnonzero(mask)
    else:
        cands = np.unique(np.concatenate(([1], elems[:i] + 1, elems[:j] // n + 1)))

    def evaluate(ks: np.ndarray) -> np.ndarray:
        i0 = np.searchsorted(elems, ks, side="left")
        i1 = np.searchsorted(elems, ks * n, side="left")
        return prefix.range_sum(i0, i1)

    value, k_star = _chunked_scan(cands, evaluate, thread_count())
    return value, k_star


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


def _window_count_max(elems: np.ndarray, n: int, kmax: int) -> tuple[int, int]:
    """(max over 1 <= k <= kmax of |A cap [k, k+n]|, smallest maximizing k).

    While k-1 is not an element the count cannot decrease as k grows, so the
    maximum is attained with the window's left edge on an element (or at
    kmax); only those candidates are scanned.  Element i's left index is i,
    so only kmax's left index and the right ends need a search.
    """
    j = int(np.searchsorted(elems, kmax, side="right"))
    cands = np.append(elems[:j], kmax)
    i0 = np.append(np.arange(j), np.searchsorted(elems, kmax, side="left"))
    counts = np.searchsorted(elems, cands + n, side="right") - i0
    i = int(np.argmax(counts))  # cands are sorted: first maximizer is the smallest k
    return int(counts[i]), int(cands[i])


def bd_estimate_at(spec: IntegerSetSpec, n: int, horizon: int) -> tuple[float, int]:
    """(max over k <= H-n of |A cap [k, k+n]|/(n+1), maximizing k).

    Ties resolve to the smallest k; see ``_window_count_max`` for the scan.
    """
    n = int(n)
    if not 1 <= n < horizon:
        raise DomainError("need 1 <= n < horizon")
    best, k_star = _window_count_max(_elements(spec, horizon), n, horizon - n)
    return best / (n + 1), k_star


def bd_estimate(spec: IntegerSetSpec, n: int, horizon: int) -> float:
    """Banach (counting) density window maximum for window length n+1."""
    return bd_estimate_at(spec, n, horizon)[0]


# ---------------------------------------------------------------------------
# Weighted (m-th root) window scans
# ---------------------------------------------------------------------------


def _counts_in_windows(kind: str, block, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|A cap [lo, hi]| for full, even, or a block union ``block``."""
    if kind == "full":
        return (hi - lo + 1).astype(np.int64)
    if kind == "even":
        return hi // 2 - (lo - 1) // 2
    counts = np.zeros(len(lo), dtype=np.int64)
    for a, b in block.components:
        top = np.minimum(hi, b)
        bot = np.maximum(lo, a)
        counts += np.maximum(top - bot + 1, 0)
    return counts


def bdm_window_sup_at(spec: IntegerSetSpec, m: int, n: int, horizon: int) -> tuple[float, int]:
    """Maximum over k of (1/(m n)) sum_{x in A cap [k, (ceil(k^(1/m))+n)^m]} x^(-(m-1)/m).

    Integer m-th roots are exact (binary search); for m >= 2 the value is
    non-increasing while ceil(k^(1/m)) stays fixed, so only the left endpoint
    of each root segment (plus k = 1) needs evaluation, which makes the scan
    exact at every horizon.
    """
    m, n = int(m), int(n)
    if m < 1:
        raise DomainError("m must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    beta = (m - 1) / m

    if m == 1:
        kmax = horizon - n
        if kmax < 1:
            return 0.0, 0
        if spec.kind not in _STRUCTURED:
            best, k_star = _window_count_max(_elements(spec, horizon), n, kmax)
            return best / n, k_star
        block = spec.block_union()
        if block is not None:
            # every window ends at or below the horizon, so clipping the blocks
            # there is exact and keeps block ends within int64
            block = block.clip(1, horizon)
            starts = np.asarray([a for a, _ in block.components if a <= kmax], dtype=np.int64)
            cands = np.concatenate((starts, np.asarray([1, kmax], dtype=np.int64)))
        else:
            cands = np.asarray([1, kmax], dtype=np.int64)
        counts = _counts_in_windows(spec.kind, block, cands, cands + n)
        best = int(np.max(counts))
        k_star = int(np.min(cands[counts == best]))
        return best / (m * n), k_star

    tmax = floor_nth_root(horizon, m) - n
    if tmax < 1:
        return 0.0, 0
    ts = range(1, tmax + 1)
    ks = [1 if t == 1 else (t - 1) ** m + 1 for t in ts]
    tops = [(t + n) ** m for t in ts]

    if spec.kind in _STRUCTURED:
        best_v, best_k = -1.0, 0
        for k, top in zip(ks, tops):
            v = _power_sum_over(spec, k, top, beta)
            if v > best_v:
                best_v, best_k = v, k
        return best_v / (m * n), best_k

    elems, prefix = _prefix(spec, horizon, beta)
    ks_arr = np.asarray(ks, dtype=np.int64)
    tops_arr = np.asarray(tops, dtype=np.int64)
    i0 = np.searchsorted(elems, ks_arr, side="left")
    i1 = np.searchsorted(elems, tops_arr, side="right")
    sums = prefix.range_sum(i0, i1)
    i = int(np.argmax(sums))
    return float(sums[i]) / (m * n), int(ks_arr[i])


def bdm_window_sup(spec: IntegerSetSpec, m: int, n: int, horizon: int) -> float:
    """Finite window supremum of the m-th root weighted density family."""
    return bdm_window_sup_at(spec, m, n, horizon)[0]
