"""Searches for approximate geometric progressions and m-th powers of
arithmetic progressions inside integer sets.

The approximation relation: x is an n-approximation of a when
x/n < a < x*n (strict, symmetric in x and a).  A pattern X is an
n-approximate subset of A when every term of X has such a match in A.

Search order and tie-breaking: witnesses minimize (a, r) (respectively
(a, d)) lexicographically; matches are the nearest set element in log
distance, ties to the smaller element.  Both conventions are arbitrary but
fixed so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .intset import _SIEVE_KINDS, IntegerSetSpec, _check_size
from .numerics import ceil_nth_root, floor_nth_root

__all__ = [
    "GeoProgression",
    "PowerProgression",
    "ApproxWitness",
    "is_n_approx",
    "approx_subset",
    "find_geo",
    "find_gp3",
    "gp_free_certify",
    "find_power_ap",
]

GP_CERTIFY_HORIZON = 10**6


@dataclass(frozen=True)
class GeoProgression:
    """Geometric progression a * r**i, i = 0, ..., l-1."""

    a: int
    r: int
    l: int

    def __post_init__(self):
        if self.a < 1 or self.r < 1 or self.l < 1:
            raise DomainError("need a, r, l >= 1")

    @property
    def terms(self) -> list[int]:
        return [self.a * self.r**i for i in range(self.l)]

    def to_json(self) -> dict:
        return {"a": self.a, "r": self.r, "l": self.l}


@dataclass(frozen=True)
class PowerProgression:
    """m-th powers of an arithmetic progression of roots:
    (ceil(a^(1/m)) + i*d)^m, i = 0, ..., l-1."""

    a: int
    d: int
    l: int
    m: int

    def __post_init__(self):
        if self.a < 1 or self.d < 1 or self.l < 1 or self.m < 1:
            raise DomainError("need a, d, l, m >= 1")

    @property
    def terms(self) -> list[int]:
        t0 = ceil_nth_root(self.a, self.m)
        return [(t0 + i * self.d) ** self.m for i in range(self.l)]

    def to_json(self) -> dict:
        return {"a": self.a, "d": self.d, "l": self.l, "m": self.m}


@dataclass(frozen=True)
class ApproxWitness:
    """A pattern, the approximation quality n, and one match per term."""

    progression: GeoProgression | PowerProgression | None
    n: int
    matches: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for x, a in self.matches:
            if not is_n_approx(x, a, self.n):
                raise DomainError(f"match ({x}, {a}) is not an {self.n}-approximation")

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "matches": [[x, a] for x, a in self.matches]}
        if self.progression is not None:
            out.update(self.progression.to_json())
        return out


def is_n_approx(x: int, a: int, n: int) -> bool:
    """True when x/n < a < x*n, in exact integer arithmetic."""
    if x < 1 or a < 1 or n < 1:
        raise DomainError("need x, a, n >= 1")
    return x < a * n and a < x * n


def _nearest_match(spec: IntegerSetSpec, x: int, n: int, limit: int) -> int | None:
    """Nearest set element inside (x/n, x*n) by |ln a - ln x|, ties to the
    smaller element; None if the range holds no element."""
    lo = x // n + 1           # least integer strictly above x/n
    hi = x * n - 1            # greatest integer strictly below x*n
    if hi > limit:
        hi = min(hi, limit)
    if hi < lo:
        return None
    below = spec.prev_member(min(x, hi))
    if below is not None and below < lo:
        below = None
    above = spec.next_member(max(x, lo), hi)
    if below is None:
        return above
    if above is None:
        return below
    # compare ln x - ln below vs ln above - ln x exactly: x*x vs below*above
    return below if x * x <= below * above else above


def approx_subset(x_terms, spec: IntegerSetSpec, n: int, horizon: int) -> ApproxWitness | None:
    """Match every x in X to its nearest n-approximation in A, or None.

    All match windows must close below the horizon (x*n <= horizon).
    """
    terms = [int(x) for x in x_terms]
    if any(x < 1 for x in terms):
        raise DomainError("terms must be positive")
    if any(x * n > horizon for x in terms):
        raise DomainError("term window exceeds the horizon")
    matches = []
    for x in terms:
        a = _nearest_match(spec, x, n, horizon)
        if a is None:
            return None
        matches.append((x, a))
    return ApproxWitness(None, n, tuple(matches))


# ---------------------------------------------------------------------------
# Vectorized "does (x/n, x*n) meet A" tests; this is the inner loop of both
# searches.
# ---------------------------------------------------------------------------


def _allowed(view: tuple[np.ndarray, np.ndarray], xs: np.ndarray, n: int) -> np.ndarray:
    """True where the open window (x/n, x*n) meets A.

    ``view`` is the (starts, ends) pair of ``IntegerSetSpec.view``.  The least
    member at or above lo = x//n + 1 is max(starts[i], lo) for the first
    block i ending at or above lo; the window meets A when that block exists
    and that member lies below x*n.
    """
    starts, ends = view
    if len(ends) == 0:
        return np.zeros(len(xs), dtype=bool)
    lo = xs // n + 1
    idx = np.searchsorted(ends, lo, side="left")
    ok = idx < len(ends)
    first = np.maximum(starts[np.minimum(idx, len(ends) - 1)], lo)
    return ok & (first < xs * n)


def find_geo(spec: IntegerSetSpec, l: int, n: int, min_a: int, min_r: int, horizon: int) -> ApproxWitness | None:
    """Smallest (a, r), lexicographically, with a > min_a, r > min_r and
    a * r**(l-1) * n <= horizon whose geometric progression is an
    n-approximate subset of A; None when the whole truncated space fails.

    For each ratio r the least working a is found by a vectorized scan;
    minimizing (least a, r) over r then yields the global lexicographic
    minimum.  Ratios are restricted to integers; rational ratios only enter
    the exact 3-term check in find_gp3.
    """
    if l < 1 or n < 1 or min_a < 0 or min_r < 0:
        raise DomainError("bad search parameters")
    if (min_a + 1) * (min_r + 1) ** (l - 1) * n > horizon:
        raise DomainError("horizon admits no candidate progression")
    if horizon * n > 2**62:
        raise CapacityError("horizon too large for the vectorized scan")
    view = spec.view(horizon)
    best: tuple[int, int] | None = None
    r = min_r + 1
    while l > 1 or r == min_r + 1:
        if (min_a + 1) * r ** (l - 1) * n > horizon:
            break
        a_cap = horizon // (n * r ** (l - 1))
        a_lo = min_a + 1
        if best is not None:
            if best[0] == a_lo:
                break  # no later ratio beats the least admissible a
            a_cap = min(a_cap, best[0] - 1)  # only strictly smaller a helps
        if a_cap >= a_lo:
            _check_size(a_cap - a_lo + 1)
            a_vals = np.arange(a_lo, a_cap + 1, dtype=np.int64)
            ok = np.ones(len(a_vals), dtype=bool)
            for i in range(l):
                ok &= _allowed(view, a_vals * r**i, n)
                if not ok.any():
                    break
            hits = np.flatnonzero(ok)
            if len(hits):
                a = int(a_vals[hits[0]])
                if best is None or (a, r) < best:
                    best = (a, r)
        r += 1
    if best is None:
        return None
    a, r = best
    prog = GeoProgression(a, r, l)
    witness = approx_subset(prog.terms, spec, n, horizon)
    return ApproxWitness(prog, n, witness.matches)


def find_gp3(spec: IntegerSetSpec, horizon: int) -> tuple[int, int, int] | None:
    """First 3-term geometric progression a < b < c with b*b = a*c, a and b
    at most the horizon, all three in A; None when there is none.

    For each a, admissible b are the multiples of s(a) = prod p^ceil(e/2)
    over the factorization a = prod p^e (the least s with a | s*s), which
    keeps the exhaustive scan near-linear.

    Squarefree numbers and primes hold no such progression, so for those
    kinds the answer is None without a scan.  Take b in A above a with
    a | b*b; b is a multiple k*s of s = s(a), and s <= a < b gives k >= 2.
    Then c = b*b/a = k^2 * (s*s/a) with s*s/a an integer, so c has the square
    factor k^2 and is neither squarefree nor prime.  Other kinds are scanned;
    there c may exceed the horizon and is then tested with ``spec.contains``.
    """
    if horizon > GP_CERTIFY_HORIZON:
        raise CapacityError(f"3-term scan capped at horizon {GP_CERTIFY_HORIZON}")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if spec.kind in _SIEVE_KINDS:
        return None
    elems = spec.members(1, horizon)
    if len(elems) < 2:
        return None
    member = np.zeros(horizon + 1, dtype=bool)
    member[elems] = True
    spf = _smallest_prime_factor(horizon)
    for a in elems.tolist():
        s = _sqrt_multiple(a, spf)
        for b in range(((a + s) // s) * s, horizon + 1, s):
            if not member[b]:
                continue
            c = (b * b) // a  # exact: a | b*b by choice of s
            if c <= horizon:
                if member[c]:
                    return a, b, c
            elif spec.contains(c):
                return a, b, c
    return None


def gp_free_certify(spec: IntegerSetSpec, horizon: int) -> bool:
    """True when A holds no 3-term geometric progression a < b <= horizon,
    b*b = a*c (rational ratio allowed); exhaustive."""
    return find_gp3(spec, horizon) is None


def _smallest_prime_factor(limit: int) -> np.ndarray:
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            sl[sl == np.arange(p * p, limit + 1, p)] = p
    return spf


def _sqrt_multiple(a: int, spf: np.ndarray) -> int:
    """Least s such that a divides s*s."""
    s = 1
    while a > 1:
        p = int(spf[a])
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        s *= p ** ((e + 1) // 2)
    return s


def find_power_ap(spec: IntegerSetSpec, m: int, l: int, n: int, min_a: int, min_d: int, horizon: int) -> ApproxWitness | None:
    """Smallest (a, d), lexicographically, with a > min_a, d > min_d whose
    m-th power pattern (ceil(a^(1/m)) + i*d)^m, i < l, is an n-approximate
    subset of A within the horizon.

    The pattern depends on a only through t0 = ceil(a^(1/m)), so for each
    (d, t0) the least admissible a = max(min_a + 1, (t0-1)^m + 1) represents
    its whole root segment.
    """
    if m < 1 or l < 1 or n < 1 or min_a < 0 or min_d < 0:
        raise DomainError("bad search parameters")
    if horizon * n > 2**62:
        raise CapacityError("horizon too large for the vectorized scan")
    t_floor = ceil_nth_root(min_a + 1, m)
    if (t_floor + (l - 1) * (min_d + 1)) ** m * n > horizon:
        raise DomainError("horizon admits no candidate pattern")
    view = spec.view(horizon)
    t_top = floor_nth_root(horizon // n, m)
    best: tuple[int, int] | None = None
    d = min_d + 1
    while l > 1 or d == min_d + 1:
        if (t_floor + (l - 1) * d) ** m * n > horizon:
            break
        # largest usable root start for this d: (t + (l-1)d)^m * n <= horizon
        # exactly when t + (l-1)d <= floor((horizon // n)^(1/m))
        t_hi = t_top - (l - 1) * d
        if best is not None:
            if best[0] == min_a + 1:
                break  # no later step beats the least admissible a
            # only strictly smaller a helps: (t-1)^m + 1 < best a
            t_hi = min(t_hi, floor_nth_root(best[0] - 2, m) + 1)
        if t_hi >= t_floor:
            _check_size(t_hi - t_floor + 1)
            t_vals = np.arange(t_floor, t_hi + 1, dtype=np.int64)
            a_vals = np.maximum(min_a + 1, (t_vals - 1) ** m + 1)
            ok = np.ones(len(t_vals), dtype=bool)
            for i in range(l):
                ok &= _allowed(view, (t_vals + i * d) ** m, n)
                if not ok.any():
                    break
            hits = np.flatnonzero(ok)
            if len(hits):
                a = int(a_vals[hits[0]])
                cand = (a, d)
                if best is None or cand < best:
                    best = cand
        d += 1
    if best is None:
        return None
    a, d = best
    prog = PowerProgression(a, d, l, m)
    witness = approx_subset(prog.terms, spec, n, horizon)
    return ApproxWitness(prog, n, witness.matches)
