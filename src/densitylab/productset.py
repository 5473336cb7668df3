"""Windowed productsets A*B and multiplicative gap analysis.

For a window [x, n*x], the gap statistic m is the largest ceiling ratio
between consecutive productset elements inside the window, with the leading
gap from x to the first product included (the window start is prepended to
the sequence whenever the first product exceeds it).  With that convention
m is sound by construction: every interval [u, m*u] inside [x, n*x] whose
start does not exceed the last product meets A*B.

``gap_witness`` scans window starts and reports the x minimizing m.  Each
window is enumerated by a probe, a leapfrog join of A and B by point queries
(``next_member``/``prev_member``) that gives up past a budget of distinct
products: nothing is materialized, so a sieve kind answers by its
pure-Python membership test near each window and is never sieved for it,
and a scan of small windows loads no numpy.  The probe has one budget,
EXACT_SCAN_MAX_PRODUCTS distinct products.  The first window past it, and
every later window of the scan that is enumerated in full, takes the array
path (``products_in``) instead.  Two explicit sets whose products up to the
horizon fit it are scanned exactly, at the starts where the statistic can
change, from the products the same probe lists over [1, horizon].  Once a
window with m = 2 is on record only singleton windows (m = 1) can improve
the report, so later candidates are probed for a second distinct product
only; the result is identical to evaluating every candidate in full.
"""

from __future__ import annotations

import math

from ._np import np
from .errors import CapacityError, DomainError
from .intset import IntegerSetSpec, _Value
from .numerics import geometric_grid

__all__ = ["GapReport", "products_in", "max_gap_ratio", "gap_witness"]

PRODUCT_HORIZON = 10**9
_CHUNK = 1 << 23
# the probe's budget of distinct products: for the product list of an
# explicit-by-explicit pair's exact scan, and for each window it enumerates
EXACT_SCAN_MAX_PRODUCTS = 4096


class GapReport(_Value):
    """Gap analysis of A*B over the window [x, n*x]."""

    _fields = ("n", "x", "m", "products_examined", "window")

    def __init__(self, n: int, x: int, m: int, products_examined: int, window: tuple[int, int]):
        if m < 1:
            raise DomainError("gap ratio bound must be >= 1")
        if x * n > window[1]:
            raise DomainError("window does not cover [x, n*x]")
        self.__dict__.update(n=n, x=x, m=m, products_examined=products_examined, window=window)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "x": self.x,
            "m": self.m,
            "products": self.products_examined,
            "lo": self.window[0],
            "hi": self.window[1],
        }


def products_in(a_spec: IntegerSetSpec, b_spec: IntegerSetSpec, lo: int, hi: int) -> np.ndarray:
    """Sorted distinct {a*b : a in A, b in B, lo <= a*b <= hi}.

    Materializes only the factors that can take part: A up to
    hi // min(B) and B up to hi // min(A).  Iterates a over that part of A
    and range-scans B cap [ceil(lo/a), floor(hi/a)], in flat vectorized
    chunks of about _CHUNK products, each sorted and made distinct before
    they are merged, so memory holds one chunk's raw products at a time.
    The cap applies to the window clipped to its largest possible product,
    so a window above every product of two finite sets is empty.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi or lo < 1:
        raise DomainError("need 1 <= lo <= hi")
    hi = _capped_top(a_spec, b_spec, hi)
    a_min, b_min = a_spec.next_member(1, hi), b_spec.next_member(1, hi)
    if lo > hi or a_min is None or b_min is None:
        return np.empty(0, dtype=np.int64)
    a_elems, b_elems = a_spec.members(1, hi // b_min), b_spec.members(1, hi // a_min)
    b_lo = np.searchsorted(b_elems, -(-lo // a_elems), side="left")
    b_hi = np.searchsorted(b_elems, hi // a_elems, side="right")
    nz = np.flatnonzero(b_hi > b_lo)
    if len(nz) == 0:
        return np.empty(0, dtype=np.int64)
    lens = b_hi[nz] - b_lo[nz]
    ends = np.cumsum(lens)
    # a chunk closes at the range whose running end first reaches a multiple
    # of _CHUNK, so it holds under _CHUNK products plus that one range
    cuts = np.searchsorted(ends, np.arange(_CHUNK, int(ends[-1]), _CHUNK)) + 1
    bounds = [0, *cuts.tolist(), len(nz)]
    pieces = []
    for start, stop in zip(bounds, bounds[1:]):
        if start == stop:  # a range spanning several multiples
            continue
        sel, reps = nz[start:stop], lens[start:stop]
        first = ends[start:stop] - reps  # running start of each range
        pos = np.arange(first[0], ends[stop - 1], dtype=np.int64) + np.repeat(b_lo[sel] - first, reps)
        pieces.append(_distinct(np.repeat(a_elems[sel], reps) * b_elems[pos]))
    return pieces[0] if len(pieces) == 1 else _distinct(np.concatenate(pieces))


def _capped_top(a_spec: IntegerSetSpec, b_spec: IntegerSetSpec, hi: int) -> int:
    """hi, or when hi is past PRODUCT_HORIZON the largest product a*b of
    members a, b <= hi (0 when A or B has none); CapacityError when that is
    still past PRODUCT_HORIZON."""
    if hi > PRODUCT_HORIZON:
        a_top, b_top = a_spec.prev_member(hi), b_spec.prev_member(hi)
        hi = min(hi, (a_top or 0) * (b_top or 0))
        if hi > PRODUCT_HORIZON:
            raise CapacityError(f"productset window capped at {PRODUCT_HORIZON}")
    return hi


def _distinct(prods: np.ndarray) -> np.ndarray:
    """prods sorted in place, without repeats."""
    prods.sort()
    # distinct by neighbour inequality; np.unique takes a far slower hash path
    return prods[np.concatenate(([True], prods[1:] != prods[:-1]))]


def max_gap_ratio(products) -> int:
    """max over consecutive pairs of ceil(c_{i+1}/c_i); 1 for a singleton."""
    c = np.asarray(products, dtype=np.int64)
    if len(c) == 0:
        raise DomainError("gap ratio of an empty list")
    if np.any(c[:-1] >= c[1:]) or c[0] < 1:
        raise DomainError("need a strictly increasing positive list")
    if len(c) == 1:
        return 1
    return int(np.max(-((-c[1:]) // c[:-1])))


def _window_gap(products, x: int) -> int:
    """Gap statistic with the leading gap from x included, of a sorted list
    of Python ints or a sorted int64 array."""
    if isinstance(products, list):
        return max(-(-q // p) for p, q in zip([x, *products], products))
    if products[0] > x:
        return max(-(-int(products[0]) // x), max_gap_ratio(products))
    return max_gap_ratio(products)


def _probe(a_spec: IntegerSetSpec, b_spec: IntegerSetSpec, lo: int, hi: int, cap: int) -> list[int] | None:
    """The sorted distinct products in [lo, hi] when there are at most cap,
    else None, by a leapfrog join over point queries.

    Walks a upward over A cap [1, hi // min(B)] and asks B for its members
    in [ceil(lo/a), hi // a] one by one; the walk stops as soon as it has
    more than cap distinct products.  When a has no partner, a leaps to the
    least member of A at or above ceil(lo / bp), bp the greatest member of B
    at most hi // a: every a'' below that has a''*bp < lo, and no b above bp
    pairs with a'' >= a, so the leap skips no pair.  The bp of successive
    leaps strictly decrease, so the walk takes at most min(|A'|, |B'| + P + 1)
    steps over the factors A', B' that can pair and the P pairs in the window.
    """
    b_min = b_spec.next_member(1, hi)
    if b_min is None:
        return []
    a_top = hi // b_min
    a = a_spec.next_member(1, a_top)
    seen: set[int] = set()
    while a is not None:
        b = b_spec.next_member(-(-lo // a), hi // a)
        if b is None:
            bp = b_spec.prev_member(hi // a)
            if bp is None:
                break
            a = a_spec.next_member(max(a + 1, -(-lo // bp)), a_top)
            continue
        while b is not None:
            seen.add(a * b)
            if len(seen) > cap:
                return None
            b = b_spec.next_member(b + 1, hi // a)
        a = a_spec.next_member(a + 1, a_top)
    return sorted(seen)


def _exact_candidates(prods: list[int], n: int, x_max: int) -> list[int]:
    """The window starts in [1, x_max] where the gap statistic can change:
    1, x_max, and p - 1, p, p + 1, ceil(p/n) and ceil(p/n) - 1 for each
    product p."""
    cands = {1, x_max}
    for p in prods:
        for c in (p - 1, p, p + 1, -(-p // n), -(-p // n) - 1):
            if 1 <= c <= x_max:
                cands.add(c)
    return sorted(cands)


def _best_window(a_spec: IntegerSetSpec, b_spec: IntegerSetSpec, n: int, cands) -> GapReport | None:
    """The start x in ``cands`` (sorted) with the least gap statistic of
    A*B over [x, n*x], ties to the smallest x; None when every window is
    empty.  Windows are probed for their products, each within the budget
    EXACT_SCAN_MAX_PRODUCTS, until one holds more; that window and every
    later one enumerated in full take ``products_in``."""
    best: GapReport | None = None
    dense = False
    for x in cands:
        lo, hi = x, n * x
        if best is not None and best.m <= 1:
            break
        if best is not None and best.m == 2:
            # multi-product windows cannot beat m = 2; only a singleton
            # window whose product equals x (m = 1) improves the report
            if _probe(a_spec, b_spec, lo, hi, 1) == [x]:
                best = GapReport(n, x, 1, 1, (lo, hi))
                break
            continue
        top = _capped_top(a_spec, b_spec, hi)
        if lo > top:
            continue
        prods = None if dense else _probe(a_spec, b_spec, lo, top, EXACT_SCAN_MAX_PRODUCTS)
        if prods is None:
            dense = True
            prods = products_in(a_spec, b_spec, lo, top)
        if len(prods) == 0:
            continue
        m = _window_gap(prods, x)
        if best is None or m < best.m:
            best = GapReport(n, x, m, len(prods), (lo, hi))
    return best


def gap_witness(a_spec: IntegerSetSpec, b_spec: IntegerSetSpec, n: int, horizon: int,
                grid_ratio: float = 1.1) -> GapReport | None:
    """Report the window start x in [1, horizon/n] minimizing the gap
    statistic m of A*B over [x, n*x] (ties to the smallest x); None when
    every candidate window is empty.

    Candidate starts lie on a geometric grid of ratio ``grid_ratio``, a
    finite number above 1 (DomainError otherwise, for every pair).  Two
    explicit sets get an exact change-point scan instead when ``_probe``
    lists their products up to the horizon within its budget,
    EXACT_SCAN_MAX_PRODUCTS.  It runs in two passes: the first finds the
    least statistic m* over the starts near each product p, the second
    scans the starts ceil(p/m*) it did not, where the leading gap ceil(p/x)
    first reaches m*, and the least (m, x) of both passes is reported.
    Full enumeration runs until a window with the multi-product floor m = 2
    is found; afterwards candidates are probed for singleton windows only,
    which is equivalent and far cheaper: the leapfrog ``_probe`` decides
    each by point queries.  Windows enumerated in full cap their products
    at PRODUCT_HORIZON; windows probed for singletons on sieve kinds cap at
    MEMBERSHIP_HORIZON.
    """
    if not (math.isfinite(grid_ratio) and grid_ratio > 1):
        raise DomainError(f"grid ratio must be a finite number above 1, got {grid_ratio!r}")
    n = int(n)
    if n < 2:
        raise DomainError("need n >= 2")
    x_max = horizon // n
    if x_max < 1:
        raise DomainError("horizon admits no window")
    prods = None
    if a_spec.kind == b_spec.kind == "explicit":
        prods = _probe(a_spec, b_spec, 1, _capped_top(a_spec, b_spec, horizon), EXACT_SCAN_MAX_PRODUCTS)
    if prods is None:
        return _best_window(a_spec, b_spec, n, geometric_grid(1, x_max, grid_ratio))
    cands = _exact_candidates(prods, n, x_max)
    best = _best_window(a_spec, b_spec, n, cands)
    if best is not None and best.m > 1:
        starts = {-(-p // best.m) for p in prods if p <= best.m * x_max} - set(cands)
        extra = _best_window(a_spec, b_spec, n, sorted(starts))
        if extra is not None and (extra.m, extra.x) < (best.m, best.x):
            best = extra
    return best
