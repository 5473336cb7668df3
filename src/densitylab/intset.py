"""Integer set specifications, interval unions, and the window type.

An IntegerSetSpec is a declarative description of a (possibly infinite)
subset of the positive integers: an explicit list, a union of intervals, a
sieve family (squarefree / primes), the trivial families (full / even), or
the "example2" construction of cubically separated blocks [u_i, j*u_i] with
u_0 = 2 and u_{i+1} = (j*u_i)**3 + 1.

IntervalSet is a sorted disjoint union of integer intervals with maximal
components; it doubles as the finite stand-in for internal sets decomposed
into connected components, and carries the interval-inversion algebra
u -> floor(N/u).

This is the point layer: parsing, membership, and the walks
``next_member``/``prev_member``, in Python ints.  A set's view up to a
horizon counts and sums its members in windows; the views, their sum
tables and the sieves are the array layer, ``densitylab.views``, which
``IntegerSetSpec.view`` and ``members`` import on first use, so a process
that only asks point queries never compiles it.  The largest view of each
set is cached here with its sum tables (``_VIEWS``), the package's one
cache.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress, islice

from ._np import np
from .errors import CapacityError, DomainError, ValidationError

__all__ = [
    "IntegerSetSpec",
    "IntervalSet",
    "Window",
    "SIEVE_HORIZON",
    "materialize",
    "contains",
    "example2_set",
    "classify",
    "invert_intervals",
]

SIEVE_HORIZON = 10**9
# Single-point sieve membership reaches further: it builds no array.
MEMBERSHIP_HORIZON = 10**12
# Refuse to materialize element arrays beyond this many entries.
MATERIALIZE_LIMIT = 1 << 27

_SIEVE_KINDS = ("squarefree", "primes")
_KINDS = ("explicit", "interval_union", "squarefree", "primes", "full", "even", "example2")
# the keys of a JSON spec's params, by kind; the other kinds take none
_PARAMS = {"explicit": ("elements",), "interval_union": ("intervals",), "example2": ("j", "depth")}


class _Value:
    """Field-wise ``==``, hash and repr over the names in ``_fields``, and no
    attribute assignment: the set, interval and window types are cache keys
    or parts of one, and the reports and witnesses built from them are
    values too.  ``__init__`` writes the fields into the instance's
    ``__dict__``, past ``__setattr__``, as a pickle restores them."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntervalSet(_Value):
    """Sorted disjoint union of integer intervals [a_i, b_i].

    Components are normalized on construction: sorted, overlapping or
    adjacent intervals merged, so every instance has maximal components
    (a_{i+1} > b_i + 1).
    """

    _fields = ("components",)

    def __init__(self, components: tuple[tuple[int, int], ...]):
        merged: list[tuple[int, int]] = []
        for a, b in sorted(_integers(pair, "interval endpoints") for pair in components):
            if a < 1 or b < a:
                raise ValidationError(f"bad interval [{a}, {b}]")
            if merged and a <= merged[-1][1] + 1:
                pa, pb = merged[-1]
                merged[-1] = (pa, max(pb, b))
            else:
                merged.append((a, b))
        self.__dict__["components"] = tuple(merged)

    def __len__(self) -> int:
        return len(self.components)

    def __bool__(self) -> bool:
        return bool(self.components)

    def count(self) -> int:
        """Total number of integers covered."""
        return sum(b - a + 1 for a, b in self.components)

    def contains(self, x: int) -> bool:
        i = bisect_right(self.components, (x, math.inf))  # components starting at or below x
        return i > 0 and x <= self.components[i - 1][1]

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        """Intersection with [lo, hi]."""
        out = []
        for a, b in self.components:
            if b < lo or a > hi:
                continue
            out.append((max(a, lo), min(b, hi)))
        return IntervalSet(tuple(out))

    def members(self, lo: int, hi: int) -> np.ndarray:
        clipped = self.clip(lo, hi)
        if clipped.count() > MATERIALIZE_LIMIT:
            raise CapacityError("interval union too large to materialize")
        parts = [np.arange(a, b + 1, dtype=np.int64) for a, b in clipped.components]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def to_json(self) -> list[list[int]]:
        return [[a, b] for a, b in self.components]

    @classmethod
    def from_json(cls, pairs) -> "IntervalSet":
        """The union of a JSON array of [a, b] pairs; an entry that is not a
        pair is named in the error, not the whole array."""
        if not isinstance(pairs, (list, tuple)):
            raise ValidationError("intervals must be an array of [a, b] pairs")
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValidationError(f"bad interval {pair!r}: not an [a, b] pair")
        return cls(tuple(pairs))


class Window(_Value):
    """Scan window [k, N*k] with normalizer ln N."""

    _fields = ("k", "N")

    def __init__(self, k: int, N: int):
        if k < 1:
            raise ValidationError("window start k must be >= 1")
        if N < 2:
            raise ValidationError("window span N must be >= 2 (ln N > 0)")
        self.__dict__.update(k=k, N=N)

    @property
    def lo(self) -> int:
        return self.k

    @property
    def hi(self) -> int:
        return self.N * self.k

    @property
    def log_span(self) -> float:
        return math.log(self.N)

    def contains(self, x: int) -> bool:
        return self.k <= x <= self.N * self.k


# The largest view of each set built so far, with its sum tables, for at
# most _VIEW_SETS sets, so a long-lived process does not keep every set.
_VIEWS: dict = {}
_VIEW_SETS = 64


def _take_view(spec) -> views.ElementView | views.BlockView | None:
    """The cached view of ``spec``, taken out of the cache (None if there is
    none); the cache is emptied when it still holds _VIEW_SETS sets."""
    view = _VIEWS.pop(spec, None)
    if len(_VIEWS) >= _VIEW_SETS:
        _VIEWS.clear()
    return view


def _example2_blocks(j: int, depth: int) -> tuple[tuple[int, int], ...]:
    u = 2
    blocks = [(2, 2 * j)]
    for _ in range(depth):
        u = (j * u) ** 3 + 1
        blocks.append((u, j * u))
    return tuple(blocks)


class IntegerSetSpec(_Value):
    """Declarative integer set: kind plus kind-dependent parameters."""

    _fields = ("kind", "elements", "intervals", "j", "depth")

    def __init__(self, kind: str, elements: tuple[int, ...] = (), intervals: IntervalSet | None = None,
                 j: int = 0, depth: int = 0):
        if kind not in _KINDS:
            raise ValidationError(f"unknown set kind {kind!r}")
        if kind == "explicit":
            elements = _integers(elements, "explicit elements")
            increasing = all(map(operator.lt, elements, islice(elements, 1, None)))
            if elements and (elements[0] if increasing else min(elements)) < 1:  # the least element
                raise ValidationError("explicit elements must be positive")
            if not increasing:
                raise ValidationError("explicit elements must be strictly increasing")
        elif elements:
            raise ValidationError("elements only valid for kind 'explicit'")
        if kind == "interval_union":
            if intervals is None:
                raise ValidationError("interval_union requires intervals")
        elif intervals is not None:
            raise ValidationError("intervals only valid for kind 'interval_union'")
        if kind == "example2":
            j, depth = _integers((j, depth), "example2 j and depth")
            if j < 2:
                raise ValidationError("example2 requires j >= 2")
            if depth < 0:
                raise ValidationError("example2 requires depth >= 0")
        elif j or depth:
            raise ValidationError("j/depth only valid for kind 'example2'")
        self.__dict__.update(kind=kind, elements=elements, intervals=intervals, j=j, depth=depth)
        # Block starts and ends in Python ints, set once for every kind with
        # blocks: full is the one block [1, inf), explicit its singletons.
        if kind == "full":
            blocks = ([1], [math.inf])
        elif kind == "explicit":
            blocks = (elements, elements)
        else:
            union = self.block_union()
            blocks = union if union is None else ([a for a, _ in union.components], [b for _, b in union.components])
        self.__dict__["_blocks"] = blocks

    # -- constructors ------------------------------------------------------

    @classmethod
    def explicit(cls, elements) -> "IntegerSetSpec":
        return cls("explicit", elements=tuple(sorted(set(_integers(elements, "explicit elements")))))

    @classmethod
    def interval_union(cls, intervals: IntervalSet) -> "IntegerSetSpec":
        return cls("interval_union", intervals=intervals)

    @classmethod
    def squarefree(cls) -> "IntegerSetSpec":
        return cls("squarefree")

    @classmethod
    def primes(cls) -> "IntegerSetSpec":
        return cls("primes")

    @classmethod
    def full(cls) -> "IntegerSetSpec":
        return cls("full")

    @classmethod
    def even(cls) -> "IntegerSetSpec":
        return cls("even")

    @classmethod
    def example2(cls, j: int, depth: int) -> "IntegerSetSpec":
        return cls("example2", j=j, depth=depth)

    # -- structure ---------------------------------------------------------

    def block_union(self) -> IntervalSet | None:
        """IntervalSet view for interval-structured kinds, else None."""
        if self.kind == "interval_union":
            return self.intervals
        if self.kind == "example2":
            return IntervalSet(_example2_blocks(self.j, self.depth))
        return None

    def view(self, horizon: int) -> views.ElementView | views.BlockView:
        """The set capped at [1, horizon]: a ``BlockView`` of its blocks for
        ``full``, ``interval_union`` and ``example2``, an ``ElementView`` of
        its sorted members for the other kinds, ``even`` and ``explicit``
        included: 4 bytes per member (8 for ``explicit``) plus its sum
        tables, nothing sized by the horizon.  The blocks are the cached
        endpoints clipped to the horizon by bisection before any int64 array is built
        (example2 block ends pass int64 at depth 4), so a block view never
        materializes and ``density`` sums it in closed form, also above the
        materialization cap.  Horizons above 2^63 - 1 raise CapacityError.
        The largest view so far is cached (``_VIEWS``): a smaller horizon gets
        a clip sharing its arrays and tables.  A larger one makes a new view,
        built by ``views.build``, which takes the cached one out of the cache
        (``_take_view``), so no frame here holds it.  A sieve kind's view
        grows from it (``views._sieve_members``): its members are held only until they are
        copied, and its tables, which extend, are kept.  The other kinds
        drop the cached view and build anew.  An explicit view holds
        its elements below 2^63: it never grows."""
        horizon = int(horizon)
        if horizon < 1:
            raise ValidationError("need horizon >= 1")
        if horizon >= 2**63:
            raise CapacityError("horizon exceeds 2^63 - 1")
        view = _VIEWS.get(self)
        if view is None or view.horizon < horizon:
            view = None  # the smaller view is handed to the build, not held here
            if self.kind in _SIEVE_KINDS and horizon > SIEVE_HORIZON:
                raise CapacityError(f"sieve horizon capped at {SIEVE_HORIZON}")
            if self.kind == "even":
                _check_size(horizon // 2)
            from . import views

            view = views.build(self, horizon, _take_view)
        _VIEWS[self] = view
        return view if view.horizon == horizon else view.clip(horizon)

    # -- membership and materialization -------------------------------------

    def contains(self, x: int) -> bool:
        x = int(x)
        if x < 1:
            raise DomainError("membership defined for positive integers only")
        if self._blocks is not None:
            starts, ends = self._blocks
            i = bisect_right(starts, x)  # blocks starting at or below x
            return i > 0 and x <= ends[i - 1]
        if self.kind == "even":
            return x % 2 == 0
        if x > MEMBERSHIP_HORIZON:
            raise CapacityError(f"sieve membership supported up to {MEMBERSHIP_HORIZON}")
        if self.kind == "squarefree":
            return _is_squarefree(x)
        return _is_prime(x)

    def members(self, lo: int, hi: int) -> np.ndarray:
        """Sorted int64 array of the set's members in [lo, hi], read from
        ``view(hi)``: a copy of that range, which callers may multiply."""
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise ValidationError("need 1 <= lo <= hi")
        from .views import BlockView

        view = self.view(hi)
        if isinstance(view, BlockView):
            return IntervalSet(tuple(zip(view.starts.tolist(), view.ends.tolist()))).members(lo, hi)
        return view.starts[int(view.count_le(lo - 1)) :].astype(np.int64)

    def next_member(self, x: int, limit: int) -> int | None:
        """Least member >= x, or None if there is none up to ``limit``."""
        if x > limit:
            return None
        x = max(1, int(x))
        if self._blocks is not None:
            starts, ends = self._blocks
            i = bisect_left(ends, x)  # the first block ending at or above x
            if i == len(ends):
                return None
            cand = max(starts[i], x)
            return cand if cand <= limit else None
        # even and the sieve kinds: scan upward; squarefree and prime gaps
        # are tiny relative to every supported horizon.
        y = x
        while y <= limit:
            if self.contains(y):
                return y
            y += 1
        return None

    def prev_member(self, x: int) -> int | None:
        """Greatest member <= x, or None."""
        if x < 1:
            return None
        x = int(x)
        if self._blocks is not None:
            starts, ends = self._blocks
            i = bisect_right(starts, x)  # blocks starting at or below x
            return min(ends[i - 1], x) if i else None
        y = x
        while y >= 1:
            if self.contains(y):
                return y
            y -= 1
        return None

    def __hash__(self) -> int:
        # An explicit set hashes its whole elements tuple, and the view
        # cache looks a spec up on every call, so the hash is kept per object.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = super().__hash__()
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a pickle leaves the hash out
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # -- serialization -------------------------------------------------------

    def to_json(self, elements=list) -> dict:
        """The spec as a JSON object; an explicit set's element list is
        ``elements(self.elements)``, a list unless the caller puts a stand-in
        in its place (the report header writes the list itself)."""
        params: dict = {}
        if self.kind == "explicit":
            params["elements"] = elements(self.elements)
        elif self.kind == "interval_union":
            params["intervals"] = self.intervals.to_json()
        elif self.kind == "example2":
            params["j"] = self.j
            params["depth"] = self.depth
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj) -> "IntegerSetSpec":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj, parse_float=_exact_number)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"bad set spec JSON: {exc}") from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("set spec must be an object with a 'kind' field")
        kind, params = obj["kind"], obj.get("params", {})
        if kind not in _KINDS:
            raise ValidationError(f"unknown set kind {kind!r}")
        if not isinstance(params, dict):
            raise ValidationError("set spec params must be an object")
        for key in params:
            if key not in _PARAMS.get(kind, ()):
                raise ValidationError(f"{kind} params take no key {key!r}")
        if kind == "explicit":
            return cls("explicit", elements=params.get("elements", ()))  # __init__ converts them
        if kind == "interval_union":
            return cls("interval_union", intervals=IntervalSet.from_json(params.get("intervals", [])))
        if kind == "example2":
            try:
                return cls("example2", j=params["j"], depth=params["depth"])
            except KeyError as exc:
                raise ValidationError("example2 requires params j and depth") from exc
        return cls(kind)


def _exact_number(text: str):
    """The integer that a decimal literal names, read exactly (1e25 is
    10**25), or NaN, which every integer check rejects (2.5; 1e400, past the
    largest float).  Text that is no number raises ValueError."""
    v = float(text)
    mant, _, exp = text.replace("_", "").strip().lower().partition("e")
    whole, _, frac = mant.partition(".")
    if (exp or mant != whole) and not math.isfinite(v):  # digits alone are read as int() reads them
        return math.nan
    digits = (whole + frac).rstrip("0")  # the value is int(digits) * 10**shift
    shift = int(exp or 0) - len(frac) + len(whole + frac) - len(digits)
    if not digits.strip("+-"):
        return 0
    return int(digits) * 10**shift if shift >= 0 else math.nan


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each equal to its value, as an int or an
    integral float (1e6) is: NaN, infinities, fractions, strings and objects
    raise ValidationError.  A tuple of ints alone, found by one scan of the
    types, is returned as it is."""
    try:
        values = tuple(values)
        if set(map(type, values)) <= {int}:
            return values
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != values:
        raise ValidationError(f"{what} must be integers")
    return ints


def _check_size(n: int):
    if n > MATERIALIZE_LIMIT:
        raise CapacityError(f"materialization of {n} elements exceeds the supported cap")


# ---------------------------------------------------------------------------
# Point membership
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _small_primes() -> list[int]:
    # the primes up to sqrt(SIEVE_HORIZON): they sieve every segment
    # (``views._sieve_segment``), and they pass the cube root of every x up
    # to MEMBERSHIP_HORIZON
    limit = math.isqrt(SIEVE_HORIZON)
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), mask))


# Point membership is pure Python and builds no array.  A squarefree test
# divides out the primes up to the cube root of what is left; a cofactor
# with no prime factor that small has at most two, so it is squarefree
# unless it is a perfect square.  A prime test tries the first primes, which
# end most non-members and decide every x below 131**2, then runs
# Miller-Rabin with the witnesses 2..17, exact below 3.4e14 (G. Jaeschke,
# "On strong pseudoprimes to several bases", Math. Comp. 61, 1993).
_TRIAL_PREFIX = 32
_WITNESSES = (2, 3, 5, 7, 11, 13, 17)


def _is_squarefree(x: int) -> bool:
    for p in _small_primes():
        if p * p * p > x:
            break
        if x % p == 0:
            x //= p
            if x % p == 0:
                return False
    r = math.isqrt(x)
    return x == 1 or r * r != x


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    for p in _small_primes()[:_TRIAL_PREFIX]:
        if p * p > x:
            return True
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def materialize(spec: IntegerSetSpec, lo: int, hi: int) -> np.ndarray:
    """Sorted array of exactly the members of ``spec`` in [lo, hi]."""
    return spec.members(lo, hi)


def contains(spec: IntegerSetSpec, x: int) -> bool:
    """Membership test, consistent with materialize."""
    return spec.contains(x)


def example2_set(j: int, depth: int) -> IntervalSet:
    """Blocks [u_i, j*u_i], i = 0..depth, with u_0 = 2, u_{i+1} = (j*u_i)**3 + 1.

    The recursion fixes the minimal admissible growth choice so results are
    reproducible.
    """
    return IntegerSetSpec.example2(j, depth).block_union()


def classify(s: IntervalSet, n: int, ratio_floor=2.5) -> dict:
    """Classify components: big (all b/a >= ratio_floor) and separated
    (a_{i+1} > 2*b_i for adjacent pairs)."""
    if not s:
        raise DomainError("classify needs a nonempty interval set")
    comps = s.components
    if comps[0][0] < 1 or comps[-1][1] > n:
        raise DomainError("components must lie within [1, N]")
    if not ratio_floor > 2:
        raise DomainError("ratio_floor must exceed 2")
    big = all(b >= ratio_floor * a for a, b in comps)
    separated = all(nxt[0] > 2 * cur[1] for cur, nxt in zip(comps, comps[1:]))
    return {"big": big, "separated": separated}


def invert_intervals(s: IntervalSet, n: int) -> IntervalSet:
    """Map each component [a, b] to [floor(N/b), floor(N/a)], re-sorted.

    Requires separated components with every b_i <= N/2; under that
    precondition the images are pairwise disjoint.
    """
    if not s:
        raise DomainError("cannot invert an empty interval set")
    comps = s.components
    if any(nxt[0] <= 2 * cur[1] for cur, nxt in zip(comps, comps[1:])):
        raise DomainError("inversion requires separated components (a_{i+1} > 2 b_i)")
    if comps[-1][1] * 2 > n:
        raise DomainError("inversion requires all b_i <= N/2")
    inverted = tuple((n // b, n // a) for a, b in comps)
    return IntervalSet(inverted)
