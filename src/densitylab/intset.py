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

A set's view up to a horizon counts and sums its members in windows; the
largest view of each set is cached here with its sum tables (``_VIEWS``).
A sieve kind's view grows with the horizon: the larger view copies the
smaller one's members, sieves only the integers above them, and keeps its
sum tables, which extend.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
    "ElementView",
    "BlockView",
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


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint union of integer intervals [a_i, b_i].

    Components are normalized on construction: sorted, overlapping or
    adjacent intervals merged, so every instance has maximal components
    (a_{i+1} > b_i + 1).
    """

    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: list[tuple[int, int]] = []
        for a, b in sorted(_integers(pair, "interval endpoints") for pair in self.components):
            if a < 1 or b < a:
                raise ValidationError(f"bad interval [{a}, {b}]")
            if merged and a <= merged[-1][1] + 1:
                pa, pb = merged[-1]
                merged[-1] = (pa, max(pb, b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "components", tuple(merged))

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


@dataclass(frozen=True)
class Window:
    """Scan window [k, N*k] with normalizer ln N."""

    k: int
    N: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("window start k must be >= 1")
        if self.N < 2:
            raise ValidationError("window span N must be >= 2 (ln N > 0)")

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
    from .numerics import _powers
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
            from .numerics import STRIDE, PrefixSums
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
            else:  # a scalar key reads no attribute of the lazy np (0.5 µs each)
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
        from .numerics import BlockSums
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


# The largest view of each set built so far, with its sum tables, for at
# most _VIEW_SETS sets, so a long-lived process does not keep every set.
_VIEWS: dict = {}
_VIEW_SETS = 64


def _take_view(spec) -> ElementView | BlockView | None:
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


@dataclass(frozen=True)
class IntegerSetSpec:
    """Declarative integer set: kind plus kind-dependent parameters."""

    kind: str
    elements: tuple[int, ...] = ()
    intervals: IntervalSet | None = None
    j: int = 0
    depth: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown set kind {self.kind!r}")
        if self.kind == "explicit":
            elems = _integers(self.elements, "explicit elements")
            increasing = all(map(operator.lt, elems, islice(elems, 1, None)))
            if elems and (elems[0] if increasing else min(elems)) < 1:  # the least element
                raise ValidationError("explicit elements must be positive")
            if not increasing:
                raise ValidationError("explicit elements must be strictly increasing")
            object.__setattr__(self, "elements", elems)
        elif self.elements:
            raise ValidationError("elements only valid for kind 'explicit'")
        if self.kind == "interval_union":
            if self.intervals is None:
                raise ValidationError("interval_union requires intervals")
        elif self.intervals is not None:
            raise ValidationError("intervals only valid for kind 'interval_union'")
        if self.kind == "example2":
            for name, value in zip(("j", "depth"), _integers((self.j, self.depth), "example2 j and depth")):
                object.__setattr__(self, name, value)
            if self.j < 2:
                raise ValidationError("example2 requires j >= 2")
            if self.depth < 0:
                raise ValidationError("example2 requires depth >= 0")
        elif self.j or self.depth:
            raise ValidationError("j/depth only valid for kind 'example2'")
        # Block starts and ends in Python ints, set once for every kind with
        # blocks: full is the one block [1, inf), explicit its singletons.
        if self.kind == "full":
            blocks = ([1], [math.inf])
        elif self.kind == "explicit":
            blocks = (self.elements, self.elements)
        else:
            union = self.block_union()
            blocks = union if union is None else ([a for a, _ in union.components], [b for _, b in union.components])
        object.__setattr__(self, "_blocks", blocks)

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

    def view(self, horizon: int) -> ElementView | BlockView:
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
        and the cached one is taken out of the cache and handed to the build,
        so no frame here holds it.  A sieve kind's view grows from it
        (``_sieve_members``): its members are held only until they are
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
            view = self._build_view(horizon)
        _VIEWS[self] = view
        return view if view.horizon == horizon else view.clip(horizon)

    def _build_view(self, horizon: int) -> ElementView | BlockView:
        """The view up to ``horizon``, in place of the cached one: a sieve
        kind hands it to ``_sieve_members`` to grow from, unnamed, so only
        that frame holds it; the other kinds drop it before they build."""
        if self.kind in _SIEVE_KINDS:
            if horizon > SIEVE_HORIZON:
                raise CapacityError(f"sieve horizon capped at {SIEVE_HORIZON}")
            return _sieve_members(self.kind, horizon, _take_view(self))
        _take_view(self)
        if self.kind == "even":
            _check_size(horizon // 2)
            members = np.arange(2, horizon + 1, 2, dtype=np.uint32)
        elif self.kind == "explicit":
            members, horizon = np.asarray(self.elements[: bisect_left(self.elements, 2**63)], dtype=np.int64), 2**63 - 1
        else:
            i = bisect_right(self._blocks[0], horizon)  # blocks starting at or below the horizon
            starts, ends = self._blocks[0][:i], self._blocks[1][:i]
            if i and ends[-1] > horizon:
                ends[-1] = horizon
            return BlockView(horizon, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64))
        members.flags.writeable = False  # cached: every caller shares it
        return ElementView(horizon, members)

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
            h = hash((self.kind, self.elements, self.intervals, self.j, self.depth))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a pickle leaves the hash out
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        params: dict = {}
        if self.kind == "explicit":
            params["elements"] = list(self.elements)
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
            return cls("explicit", elements=params.get("elements", ()))  # __post_init__ converts them
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
# Sieves
# ---------------------------------------------------------------------------

_SEGMENT = 1 << 22


@lru_cache(maxsize=1)
def _small_primes() -> list[int]:
    # the primes up to sqrt(SIEVE_HORIZON): they sieve every segment, and
    # they pass the cube root of every x up to MEMBERSHIP_HORIZON
    limit = math.isqrt(SIEVE_HORIZON)
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), mask))


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
