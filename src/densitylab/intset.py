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
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, ValidationError

__all__ = [
    "IntegerSetSpec",
    "IntervalSet",
    "Window",
    "SIEVE_HORIZON",
    "materialize",
    "contains",
    "block_offsets",
    "count_le",
    "example2_set",
    "classify",
    "invert_intervals",
]

SIEVE_HORIZON = 10**9
# Single-point sieve membership reaches further (trial division).
MEMBERSHIP_HORIZON = 10**12
# Refuse to materialize element arrays beyond this many entries.
MATERIALIZE_LIMIT = 1 << 27

_SIEVE_KINDS = ("squarefree", "primes")
_KINDS = ("explicit", "interval_union", "squarefree", "primes", "full", "even", "example2")


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint union of integer intervals [a_i, b_i].

    Components are normalized on construction: sorted, overlapping or
    adjacent intervals merged, so every instance has maximal components
    (a_{i+1} > b_i + 1).
    """

    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        comps = []
        for a, b in self.components:
            a, b = int(a), int(b)
            if a < 1 or b < a:
                raise ValidationError(f"bad interval [{a}, {b}]")
            comps.append((a, b))
        comps.sort()
        merged: list[tuple[int, int]] = []
        for a, b in comps:
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
        lo, hi = 0, len(self.components) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            a, b = self.components[mid]
            if x < a:
                hi = mid - 1
            elif x > b:
                lo = mid + 1
            else:
                return True
        return False

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
        try:
            return cls(tuple((int(a), int(b)) for a, b in pairs))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad interval list: {pairs!r}") from exc


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
            elems = tuple(int(x) for x in self.elements)
            if any(x < 1 for x in elems):
                raise ValidationError("explicit elements must be positive")
            if any(b <= a for a, b in zip(elems, elems[1:])):
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
            if self.j < 2:
                raise ValidationError("example2 requires j >= 2")
            if self.depth < 0:
                raise ValidationError("example2 requires depth >= 0")
        elif self.j or self.depth:
            raise ValidationError("j/depth only valid for kind 'example2'")

    # -- constructors ------------------------------------------------------

    @classmethod
    def explicit(cls, elements) -> "IntegerSetSpec":
        return cls("explicit", elements=tuple(sorted(set(int(x) for x in elements))))

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

    def view(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """A cap [1, horizon] as sorted disjoint blocks (starts, ends).

        full is the single block [1, horizon]; interval_union and example2
        clip their cached block endpoints to the horizon by bisection before
        any int64 array is built (example2 block ends pass int64 at depth 4).
        None of the three materializes; ``density`` sums their blocks in
        closed form, also above the materialization cap.  Every other kind,
        ``even`` included, gives its element array as both starts and ends,
        so ``starts is ends``.
        """
        horizon = int(horizon)
        if self.kind == "full":
            starts, ends = [1], [horizon]
        else:
            blocks = self._block_ends()
            if blocks is None:
                elems = self.members(1, horizon)
                return elems, elems
            i = bisect_right(blocks[0], horizon)  # blocks starting at or below the horizon
            starts, ends = blocks[0][:i], blocks[1][:i]
            if i and ends[-1] > horizon:
                ends[-1] = horizon
        return np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)

    # -- membership and materialization -------------------------------------

    def contains(self, x: int) -> bool:
        x = int(x)
        if x < 1:
            raise DomainError("membership defined for positive integers only")
        kind = self.kind
        if kind == "full":
            return True
        if kind == "even":
            return x % 2 == 0
        if kind == "explicit":
            arr = self._explicit_array()
            i = int(np.searchsorted(arr, x))
            return i < len(arr) and int(arr[i]) == x
        if kind in ("interval_union", "example2"):
            starts, ends = self._block_ends()
            i = bisect_right(starts, x)  # blocks starting at or below x
            return i > 0 and x <= ends[i - 1]
        if x > MEMBERSHIP_HORIZON:
            raise CapacityError(f"sieve membership supported up to {MEMBERSHIP_HORIZON}")
        if kind == "squarefree":
            return _is_squarefree(x)
        return _is_prime(x)

    def members(self, lo: int, hi: int) -> np.ndarray:
        """Sorted int64 array of the set's members in [lo, hi]."""
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise ValidationError("need 1 <= lo <= hi")
        kind = self.kind
        if kind == "full":
            _check_size(hi - lo + 1)
            return np.arange(lo, hi + 1, dtype=np.int64)
        if kind == "even":
            start = lo + (lo % 2)
            _check_size(max(0, (hi - start) // 2 + 1))
            return np.arange(start, hi + 1, 2, dtype=np.int64)
        if kind == "explicit":
            arr = self._explicit_array()
            i0 = int(np.searchsorted(arr, lo, side="left"))
            i1 = int(np.searchsorted(arr, hi, side="right"))
            return arr[i0:i1]
        if kind in ("interval_union", "example2"):
            return self.block_union().members(lo, hi)
        if hi > SIEVE_HORIZON:
            raise CapacityError(f"sieve horizon capped at {SIEVE_HORIZON}")
        full = _sieve_members(kind, hi)
        i0 = int(np.searchsorted(full, lo, side="left"))
        return full[i0:]

    def next_member(self, x: int, limit: int) -> int | None:
        """Least member >= x, or None if there is none up to ``limit``."""
        if x > limit:
            return None
        x = max(1, int(x))
        kind = self.kind
        if kind == "full":
            return x
        if kind == "even":
            nxt = x + (x % 2)
            return nxt if nxt <= limit else None
        if kind == "explicit":
            arr = self._explicit_array()
            i = int(np.searchsorted(arr, x, side="left"))
            if i == len(arr) or int(arr[i]) > limit:
                return None
            return int(arr[i])
        if kind in ("interval_union", "example2"):
            starts, ends = self._block_ends()
            i = bisect_left(ends, x)  # the first block ending at or above x
            if i == len(ends):
                return None
            cand = max(starts[i], x)
            return cand if cand <= limit else None
        # Sieve kinds: scan upward; squarefree and prime gaps are tiny
        # relative to every supported horizon.
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
        kind = self.kind
        if kind == "full":
            return x
        if kind == "even":
            return x - (x % 2) if x >= 2 else None
        if kind == "explicit":
            arr = self._explicit_array()
            i = int(np.searchsorted(arr, x, side="right"))
            return int(arr[i - 1]) if i else None
        if kind in ("interval_union", "example2"):
            starts, ends = self._block_ends()
            i = bisect_right(starts, x)  # blocks starting at or below x
            return min(ends[i - 1], x) if i else None
        y = x
        while y >= 1:
            if self.contains(y):
                return y
            y -= 1
        return None

    def __hash__(self) -> int:
        # An explicit set hashes its whole elements tuple, and the density
        # caches look a spec up on every call, so the hash is kept per object.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.kind, self.elements, self.intervals, self.j, self.depth))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a pickle leaves the hash out
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def _explicit_array(self) -> np.ndarray:
        arr = self.__dict__.get("_elements_arr")
        if arr is None:
            arr = np.asarray(self.elements, dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, "_elements_arr", arr)
        return arr

    def _block_ends(self) -> tuple[list[int], list[int]] | None:
        """Block starts and ends of an interval-structured kind as Python-int
        lists, kept per spec like the explicit array; None for other kinds."""
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            union = self.block_union()
            if union is None:
                return None
            blocks = ([a for a, _ in union.components], [b for _, b in union.components])
            object.__setattr__(self, "_blocks", blocks)
        return blocks

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
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"bad set spec JSON: {exc}") from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("set spec must be an object with a 'kind' field")
        kind = obj["kind"]
        params = obj.get("params", {}) or {}
        if kind == "explicit":
            return cls("explicit", elements=tuple(int(x) for x in params.get("elements", [])))
        if kind == "interval_union":
            return cls("interval_union", intervals=IntervalSet.from_json(params.get("intervals", [])))
        if kind == "example2":
            try:
                return cls("example2", j=int(params["j"]), depth=int(params["depth"]))
            except KeyError as exc:
                raise ValidationError("example2 requires params j and depth") from exc
        return cls(kind)


def _check_size(n: int):
    if n > MATERIALIZE_LIMIT:
        raise CapacityError(f"materialization of {n} elements exceeds the supported cap")


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------

_SEGMENT = 1 << 22


@lru_cache(maxsize=1)
def _small_prime_list() -> list:
    return _small_primes().tolist()


@lru_cache(maxsize=1)
def _small_primes() -> np.ndarray:
    # big enough for segmented sieving to SIEVE_HORIZON and for trial
    # division membership up to MEMBERSHIP_HORIZON
    limit = math.isqrt(MEMBERSHIP_HORIZON) + 1
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_segment(kind: str, lo: int, hi: int) -> np.ndarray:
    """Boolean mask over [lo, hi] for a sieve kind."""
    size = hi - lo + 1
    mask = np.ones(size, dtype=bool)
    if lo < 1:
        raise ValidationError("sieve range starts at 1")
    root = math.isqrt(hi)
    primes = _small_primes()
    primes = primes[primes <= root]
    if kind == "squarefree":
        for p in primes.tolist():
            q = p * p
            start = ((lo + q - 1) // q) * q
            if start <= hi:
                mask[start - lo :: q] = False
    else:  # primes
        if lo == 1:
            mask[0] = False
        for p in primes.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start <= hi:
                mask[start - lo :: p] = False
        # small primes themselves stay marked
        inside = primes[(primes >= lo) & (primes <= hi)]
        mask[inside - lo] = True
    return mask


# One cached element array per sieve kind, grown on demand.
_SIEVE_CACHE: dict[str, tuple[int, np.ndarray]] = {}


def _sieve_members(kind: str, hi: int) -> np.ndarray:
    cached = _SIEVE_CACHE.get(kind)
    if cached is not None and cached[0] >= hi:
        arr = cached[1]
        i1 = int(np.searchsorted(arr, hi, side="right"))
        return arr[:i1]
    # Pass 1 sieves and counts each segment and keeps it bit-packed (one
    # bit per integer); pass 2 writes the members into one buffer of the
    # exact size, so the peak is that buffer plus one segment.
    packed = []
    total = 0
    for lo in range(1, hi + 1, _SEGMENT):
        seg = _sieve_segment(kind, lo, min(hi, lo + _SEGMENT - 1))
        total += int(np.count_nonzero(seg))
        _check_size(total)  # trip before the build grows any further
        packed.append((lo, len(seg), np.packbits(seg)))
        del seg  # not held while the buffer fills
    arr = np.empty(total, dtype=np.int64)
    pos = 0
    for lo, size, bits in packed:
        offsets = np.flatnonzero(np.unpackbits(bits, count=size))
        np.add(offsets, lo, out=arr[pos : pos + len(offsets)])
        pos += len(offsets)
    arr.flags.writeable = False
    _SIEVE_CACHE[kind] = (hi, arr)
    return arr


def _is_squarefree(x: int) -> bool:
    if x < 4:
        return True
    for p in _small_prime_list():
        q = p * p
        if q > x:
            return True
        if x % q == 0:
            return False
    return True


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    for p in _small_prime_list():
        if p * p > x:
            return True
        if x % p == 0:
            return x == p
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


def block_offsets(view: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Members before each block of a view, then |A|: entry i is
    |A cap [1, starts[i] - 1]|, so an element view gives 0, 1, ..., |A|."""
    starts, ends = view
    if starts is ends:
        return np.arange(len(starts) + 1)
    out = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(ends - starts + 1, out=out[1:])
    return out


def count_le(view: tuple[np.ndarray, np.ndarray], x):
    """|A cap [1, x]| for each x >= 0 (int64 array or scalar), read from a
    view of ``IntegerSetSpec.view`` whose horizon is at least x."""
    starts, ends = view
    i = np.searchsorted(starts, x, side="right")  # blocks starting at or below x
    if starts is ends:
        return i
    # the last of those blocks may run past x; index 0 means no block
    last_end = np.concatenate(([0], ends))[i]
    return block_offsets(view)[i] - np.maximum(last_end - x, 0)


def example2_set(j: int, depth: int) -> IntervalSet:
    """Blocks [u_i, j*u_i], i = 0..depth, with u_0 = 2, u_{i+1} = (j*u_i)**3 + 1.

    The recursion fixes the minimal admissible growth choice so results are
    reproducible.
    """
    if j < 2:
        raise ValidationError("need j >= 2")
    if depth < 0:
        raise ValidationError("need depth >= 0")
    return IntervalSet(_example2_blocks(j, depth))


def classify(s: IntervalSet, n: int, ratio_floor=2.5) -> dict:
    """Classify components: big (all b/a >= ratio_floor) and separated
    (a_{i+1} > 2*b_i for adjacent pairs)."""
    if not s:
        raise DomainError("classify needs a nonempty interval set")
    comps = s.components
    if comps[0][0] < 1 or comps[-1][1] > n:
        raise DomainError("components must lie within [1, N]")
    if ratio_floor <= 2:
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
