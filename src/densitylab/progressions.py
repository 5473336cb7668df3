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

from ._np import np
from .errors import CapacityError, DomainError, ValidationError
from .intset import _SIEVE_KINDS, IntegerSetSpec, _Value
from .numerics import ceil_nth_root

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
SEARCH_STEP_LIMIT = 2**18  # outer steps of each search order


class GeoProgression(_Value):
    """Geometric progression a * r**i, i = 0, ..., l-1."""

    _fields = ("a", "r", "l")

    def __init__(self, a: int, r: int, l: int):
        if a < 1 or r < 1 or l < 1:
            raise DomainError("need a, r, l >= 1")
        self.__dict__.update(a=a, r=r, l=l)

    @property
    def terms(self) -> list[int]:
        return [self.a * self.r**i for i in range(self.l)]

    def to_json(self) -> dict:
        return {"a": self.a, "r": self.r, "l": self.l}


class PowerProgression(_Value):
    """m-th powers of an arithmetic progression of roots:
    (ceil(a^(1/m)) + i*d)^m, i = 0, ..., l-1."""

    _fields = ("a", "d", "l", "m")

    def __init__(self, a: int, d: int, l: int, m: int):
        if a < 1 or d < 1 or l < 1 or m < 1:
            raise DomainError("need a, d, l, m >= 1")
        self.__dict__.update(a=a, d=d, l=l, m=m)

    @property
    def terms(self) -> list[int]:
        t0 = ceil_nth_root(self.a, self.m)
        return [(t0 + i * self.d) ** self.m for i in range(self.l)]

    def to_json(self) -> dict:
        return {"a": self.a, "d": self.d, "l": self.l, "m": self.m}


class ApproxWitness(_Value):
    """A pattern, the approximation quality n, and one match per term."""

    _fields = ("progression", "n", "matches")

    def __init__(self, progression: GeoProgression | PowerProgression | None, n: int,
                 matches: tuple[tuple[int, int], ...]):
        for x, a in matches:
            if not is_n_approx(x, a, n):
                raise DomainError(f"match ({x}, {a}) is not an {n}-approximation")
        self.__dict__.update(progression=progression, n=n, matches=matches)

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
    hi = min(x * n - 1, limit)  # greatest integer strictly below x*n
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


def _allowed(spec: IntegerSetSpec, x: int, n: int, horizon: int) -> int | None:
    """Least x' >= x whose open window (x'/n, x'*n) meets A cap [1, horizon],
    or None.

    For n >= 2 the window of x' holds a member s exactly when
    s//n + 1 <= x' <= s*n - 1, so the answer comes from the least member
    s > x//n: it is max(x, s//n + 1).  One ``next_member`` point query
    answers it, so no kind is materialized.  For n = 1 every window is empty.
    """
    s = spec.next_member(x // n + 1, horizon) if n > 1 else None
    return None if s is None else max(x, s // n + 1)


def _least_start(spec, n: int, horizon: int, a: int, a_cap: int, l: int, term, least) -> int | None:
    """Least start in [a, a_cap] whose terms term(start, i), i < l, all have
    windows meeting A, or None.

    Each term is nondecreasing in the start, and least(y, i) is the least
    start whose i-th term is at least y.  When a term's window misses A the
    start leaps to the least one whose term reaches the next allowed value,
    so the term passes a gap of the n-neighbourhood of A cap [1, horizon]:
    there are at most about l times as many leaps as that neighbourhood has
    gaps.
    """
    i = passed = 0
    while a <= a_cap:
        x = term(a, i)
        y = _allowed(spec, x, n, horizon)
        if y is None:
            return None
        if y > x:
            a, passed = least(y, i), 0
            continue
        passed += 1
        if passed == l:
            return a
        i = (i + 1) % l
    return None


def _least_pair(spec, n: int, horizon: int, a: int, k0: int, l: int, term, least, k_least) -> tuple[int, int] | None:
    """Least (start, k), lexicographically, with start >= a and k >= k0
    whose terms term(start, i, k), i < l, are allowed and at most x_top, the
    largest x with x*n <= horizon whose window can meet A; or None.

    Terms grow with the start and with k; least(y, i, k) and k_least(y, i,
    start) are the least start and the least k whose i-th term reaches y.
    Two exact orders run in lockstep and the first to end answers: by start,
    the least k of each allowed start, and by k, the least start of each k
    while one fits under x_top.  Past SEARCH_STEP_LIMIT steps, and for
    horizons above 2^63 - 1 (sieve kinds: above MEMBERSHIP_HORIZON),
    CapacityError.
    """
    if horizon >= 2**63:
        raise CapacityError("horizon exceeds 2^63 - 1")
    top = spec.prev_member(horizon)
    x_top = min(horizon // n, top * n - 1) if top is not None else 0  # 0: no term fits

    def first(a):  # least start >= a whose first term is allowed
        return _least_start(spec, n, horizon, a, least(x_top + 1, l - 1, k0) - 1, 1, lambda a, i: term(a, 0, k0),
                            lambda y, i: least(y, 0, k0))

    def by_start(a):
        while a is not None:
            k = _least_start(spec, n, horizon, k0, k_least(x_top + 1, l - 1, a) - 1, l, lambda k, i: term(a, i, k),
                             lambda y, i: k_least(y, i, a))
            if k is not None:
                return a, k
            yield
            a = first(a + 1)

    def by_k(k, best=None):
        while (a_cap := least(x_top + 1, l - 1, k) - 1) >= a_lo:
            a_cap = min(a_cap, best[0] - 1) if best else a_cap  # only smaller starts help
            a = _least_start(spec, n, horizon, a_lo, a_cap, l, lambda a, i: term(a, i, k), lambda y, i: least(y, i, k))
            best, k = (a, k) if a is not None else best, k + 1
            yield
        return best

    if (a_lo := first(a)) is None or l == 1:
        return a_lo and (a_lo, k0)
    orders = by_start(a_lo), by_k(k0)
    for _ in range(SEARCH_STEP_LIMIT):
        for order in orders:
            try:
                next(order)
            except StopIteration as end:
                return end.value
    raise CapacityError(f"no answer within {SEARCH_STEP_LIMIT} starts and as many ratios or steps")


def _witness(prog, spec: IntegerSetSpec, n: int, horizon: int) -> ApproxWitness:
    return ApproxWitness(prog, n, approx_subset(prog.terms, spec, n, horizon).matches)


def find_geo(spec: IntegerSetSpec, l: int, n: int, min_a: int, min_r: int, horizon: int) -> ApproxWitness | None:
    """Smallest (a, r), lexicographically, with a > min_a, r > min_r and
    a * r**(l-1) * n <= horizon whose geometric progression is an
    n-approximate subset of A; None when the whole truncated space fails.

    The search is _least_pair's over starts a and ratios r.  Ratios are
    restricted to integers; rational ratios only enter the exact 3-term
    check in find_gp3.
    """
    if l < 1 or n < 1 or min_a < 0 or min_r < 0:
        raise DomainError("bad search parameters")
    if (min_a + 1) * (min_r + 1) ** (l - 1) * n > horizon:
        raise DomainError("horizon admits no candidate progression")
    best = _least_pair(spec, n, horizon, min_a + 1, min_r + 1, l, lambda a, i, r: a * r**i,
                       lambda y, i, r: -(-y // r**i), lambda y, i, a: ceil_nth_root(-(-y // a), i))
    return best and _witness(GeoProgression(*best, l), spec, n, horizon)


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
    its whole root segment, and a grows with t0: the search is _least_pair's
    over root starts t0 and steps d.
    """
    if m < 1 or l < 1 or n < 1 or min_a < 0 or min_d < 0:
        raise DomainError("bad search parameters")
    t_floor = ceil_nth_root(min_a + 1, m)
    if (t_floor + (l - 1) * (min_d + 1)) ** m * n > horizon:
        raise DomainError("horizon admits no candidate pattern")
    best = _least_pair(spec, n, horizon, t_floor, min_d + 1, l, lambda t, i, d: (t + i * d) ** m,
                       lambda y, i, d: ceil_nth_root(y, m) - i * d, lambda y, i, t: -(-(ceil_nth_root(y, m) - t) // i))
    return best and _witness(PowerProgression(max(min_a + 1, (best[0] - 1) ** m + 1), best[1], l, m), spec, n, horizon)
