import math
import pickle
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import intset, numerics
from densitylab.errors import CapacityError, DomainError, ValidationError
from densitylab.intset import (
    BlockView,
    ElementView,
    IntegerSetSpec,
    IntervalSet,
    Window,
    classify,
    contains,
    example2_set,
    invert_intervals,
    materialize,
)

from oracles import brute_primes, brute_squarefree, is_prime_td, is_squarefree_td


# ---------------------------------------------------------------------------
# materialize / contains
# ---------------------------------------------------------------------------


def test_materialize_full():
    assert materialize(IntegerSetSpec.full(), 1, 5).tolist() == [1, 2, 3, 4, 5]


def test_materialize_squarefree_hand_sieve():
    assert materialize(IntegerSetSpec.squarefree(), 1, 12).tolist() == [1, 2, 3, 5, 6, 7, 10, 11]


def test_materialize_squarefree_vs_trial_division():
    assert materialize(IntegerSetSpec.squarefree(), 1, 3000).tolist() == brute_squarefree(3000)


def test_materialize_primes_vs_trial_division():
    assert materialize(IntegerSetSpec.primes(), 1, 3000).tolist() == brute_primes(3000)


def test_materialize_example2():
    got = materialize(IntegerSetSpec.example2(2, 2), 1, 10**4)
    expected = list(range(2, 5)) + list(range(65, 131))
    assert got.tolist() == expected


def test_materialize_subrange_consistency():
    spec = IntegerSetSpec.squarefree()
    whole = materialize(spec, 1, 500)
    part = materialize(spec, 101, 400)
    assert part.tolist() == [x for x in whole.tolist() if 101 <= x <= 400]


def test_contains_examples():
    assert not contains(IntegerSetSpec.squarefree(), 12)
    assert not contains(IntegerSetSpec.even(), 7)
    assert contains(IntegerSetSpec.example2(2, 3), 130)


def _prime_below_td(x):
    while not is_prime_td(x):
        x -= 1
    return x


def test_contains_large_x_vs_trial_division():
    # square factors and prime factors near 1e6 lie past the trial prefix of
    # small primes: squarefree divides out the primes up to the cube root and
    # tests the cofactor for a square, primes run Miller-Rabin
    rng = np.random.RandomState(12)
    xs = [int(x) for base in (10**8, 10**11, 10**12 - 10**6) for x in base + rng.randint(0, 10**6, size=3)]
    for q in (1, 2, 3):
        p = _prime_below_td(math.isqrt(10**12 // q))
        xs.append(p * p * q)  # no square factor below p
    p = _prime_below_td(10**6)
    xs += [p * _prime_below_td(p - 1), 137 * 137 * 1009, 139 * 1000003]
    xs.append(next(x for x in range(10**12 - 10**6, 10**12) if is_prime_td(x)))
    sf, primes = IntegerSetSpec.squarefree(), IntegerSetSpec.primes()
    for x in xs:
        assert sf.contains(x) == is_squarefree_td(x), x
        assert primes.contains(x) == is_prime_td(x), x


@pytest.mark.parametrize("kind, brute", [("squarefree", brute_squarefree), ("primes", brute_primes)])
def test_contains_exhaustive_vs_oracle(kind, brute):
    spec, hi = IntegerSetSpec(kind), 2 * 10**6
    assert [x for x in range(1, hi + 1) if spec.contains(x)] == brute(hi)


def test_is_prime_rejects_pseudoprimes():
    # 561 and 41041 are Carmichael numbers, so every Fermat test passes them;
    # the rest are strong pseudoprimes to the bases 2..5, 2..7, 2..7, 2..11
    # and 2..13, so only the last witnesses reject them
    for x in (561, 41041, 25326001, 3215031751, 118670087467, 2152302898747, 3474749660383):
        assert not intset._is_prime(x), x


def test_squarefree_square_factors_at_the_cube_root_cut():
    # p**3, p*p*q and p*q*q with both primes near x**(1/3): a square factor
    # is found by division below the cut or as a square cofactor above it
    sf = IntegerSetSpec.squarefree()
    for top in (10**3, 10**4 - 50, 10**4):
        p = _prime_below_td(top)
        q = _prime_below_td(p - 1)
        r = _prime_below_td(q - 1)
        for x in (p**3, q**3, p * p * q, q * q * p, p * p * r, r * r * p):
            assert not sf.contains(x), x
        assert sf.contains(p * q * r) and sf.contains(p * q)
    p = _prime_below_td(10**6)  # the largest prime below 1e6
    assert p == 999983 and not sf.contains(p * p) and sf.contains(p * p - 1) == is_squarefree_td(p * p - 1)


def test_sieve_membership_cap():
    for spec in (IntegerSetSpec.squarefree(), IntegerSetSpec.primes()):
        assert spec.contains(10**12) is False
        with pytest.raises(CapacityError):
            spec.contains(10**12 + 1)


def test_sieve_horizon_cap():
    with pytest.raises(CapacityError):
        materialize(IntegerSetSpec.squarefree(), 1, 10**9 + 1)


@pytest.fixture()
def empty_view_cache(monkeypatch):
    monkeypatch.setattr(intset, "_VIEWS", {})


@pytest.mark.parametrize("kind, brute", [("squarefree", brute_squarefree), ("primes", brute_primes)])
def test_sieve_build_vs_trial_division(kind, brute):
    for hi in (1, 2, 3, 4, 9, 10, 97, 2000):
        got = intset._sieve_members(kind, hi).starts
        assert got.dtype == np.uint32 and got.tolist() == brute(hi)


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_sieve_build_at_segment_edges(kind, k, delta):
    hi = k * intset._SEGMENT + delta
    got = intset._sieve_members(kind, hi).starts
    want = np.flatnonzero(intset._sieve_segment(kind, 1, hi)) + 1
    assert got.dtype == np.uint32 and np.array_equal(got, want)
    assert not got.flags.writeable


def test_sieve_build_cap_trips_before_allocation(monkeypatch, empty_view_cache):
    # the buffer is filled only after every segment is counted, so a cap trip
    # in the first of three segments means no buffer was allocated
    sieved = []
    segment = intset._sieve_segment

    def counting_segment(kind, lo, hi):
        sieved.append((lo, hi))
        return segment(kind, lo, hi)

    monkeypatch.setattr(intset, "MATERIALIZE_LIMIT", 1000)
    monkeypatch.setattr(intset, "_sieve_segment", counting_segment)
    with pytest.raises(CapacityError):
        IntegerSetSpec.squarefree().view(3 * intset._SEGMENT)
    assert sieved == [(1, intset._SEGMENT)]
    assert intset._VIEWS == {}


_BRUTE = {"squarefree": brute_squarefree, "primes": brute_primes}


def _check_members(view, want):
    # the view holds exactly the oracle's members up to its horizon, read only,
    # and counts the members up to every x in [0, horizon] as the oracle does,
    # as one array and, within 130 of 0, the horizon and each segment edge,
    # as scalars
    want = [x for x in want if x <= view.horizon]
    assert view.starts.dtype == np.uint32 and view.starts.tolist() == want and not view.starts.flags.writeable
    xs = np.arange(view.horizon + 1, dtype=np.int64)
    oracle = [bisect_right(want, x) for x in xs.tolist()]
    assert view.count_le(xs).tolist() == oracle
    edges = [0, view.horizon] + list(range(0, view.horizon + 1, intset._SEGMENT))
    for x in sorted({x for e in edges for x in range(e - 130, e + 131) if 0 <= x <= view.horizon}):
        assert view.count_le(x) == oracle[x], x


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
def test_sieve_view_holds_the_oracle_members(kind, monkeypatch, empty_view_cache):
    # at horizons on and around byte, word and segment edges, with segments
    # of 1000 integers: a whole number of bytes but not of 64-bit words
    monkeypatch.setattr(intset, "_SEGMENT", 1000)
    spec, seg = IntegerSetSpec(kind), 1000
    want = _BRUTE[kind](3 * seg + 5)
    for horizon in (1, 2, 7, 8, 9, 63, 64, 65, 127, seg - 1, seg, seg + 1, 2 * seg + 1, 3 * seg + 5):
        intset._VIEWS.clear()
        view = spec.view(horizon)
        assert type(view) is ElementView and view.horizon == horizon
        _check_members(view, want)


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
def test_sieve_view_of_a_smaller_horizon_reads_the_larger_cache(kind, empty_view_cache):
    # a later, smaller horizon clips the view built at the larger one: its
    # members are a slice of the cached array, and its tables are the same dict
    spec = IntegerSetSpec(kind)
    spec.view(10**5)
    view = spec.view(5 * 10**4)
    cached = intset._VIEWS[IntegerSetSpec(kind)]  # an equal spec finds the same view
    assert cached.horizon == 10**5 and view.starts.base is cached.starts and view._tables is cached._tables
    _check_members(view, _BRUTE[kind](5 * 10**4))


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
def test_sieve_scalar_count_le(kind, empty_view_cache):
    # a scalar query counts as the oracle does for Python ints, numpy integers
    # and 0-d arrays, on a view and on its clip
    horizon = 10**4 + 37
    want = _BRUTE[kind](horizon)
    view = IntegerSetSpec(kind).view(horizon)
    for v in (view, view.clip(5000)):
        for x in (0, 1, 7, 8, 63, 64, 65, 127, 128, v.horizon - 1, v.horizon):
            for q in (x, np.int64(x), np.uint32(x), np.array(x)):
                assert int(v.count_le(q)) == bisect_right(want, x), (v.horizon, repr(q))


@pytest.mark.parametrize("kind", ["squarefree", "primes", "even"])
def test_uint32_count_le_at_and_past_the_uint32_range(kind, empty_view_cache):
    # keys are clipped to [0, horizon] before the uint32 members are
    # searched, so keys at and past 2^32 count every member instead of
    # wrapping or raising, as scalars (Python ints and int64) and as arrays
    H = 5000
    view = IntegerSetSpec(kind).view(H)
    size = len(view.starts)
    assert view.starts.dtype == np.uint32 and size
    xs = [0, H, 2**32 - 1, 2**32, 2**40]
    want = [0, size, size, size, size]
    assert [int(view.count_le(x)) for x in xs] == want
    assert [int(view.count_le(np.int64(x))) for x in xs] == want
    assert view.count_le(np.array(xs, dtype=np.int64)).tolist() == want
    assert view.clip(H // 2).count_le(np.array(xs, dtype=np.int64)).tolist() == [0] + [view.count_le(H // 2)] * 4


@pytest.mark.parametrize("spec", [IntegerSetSpec.squarefree(), IntegerSetSpec.primes(), IntegerSetSpec.even(),
                                  IntegerSetSpec.explicit([3, 5, 8, 2**40]), IntegerSetSpec.full()])
def test_materialize_returns_an_int64_copy(spec, empty_view_cache):
    # uint32 members come out widened, so callers may multiply them; every
    # kind returns a fresh int64 array of the members in [lo, hi]
    got = materialize(spec, 3, 5000)
    assert got.dtype == np.int64 and got.flags.writeable
    assert got.tolist() == [x for x in range(3, 5001) if spec.contains(x)]
    got[:] = 0
    assert materialize(spec, 3, 5000).tolist() == [x for x in range(3, 5001) if spec.contains(x)]


def test_explicit_elements_are_checked_without_copies():
    # a tuple of ints is kept as it is, without a copy; a list that breaks
    # both rules is named not positive before not increasing
    elems = (1, 4, 9)
    assert IntegerSetSpec("explicit", elements=elems).elements is elems
    assert IntegerSetSpec("explicit", elements=[True, 2.0, 3]).elements == (1, 2, 3)
    for bad, message in [((0, 1), "positive"), ((5, 0), "positive"), ((0, 0), "positive"), ((-1,), "positive"),
                         ((3, 2), "strictly increasing"), ((1, 1), "strictly increasing"),
                         ((1, 2.5), "must be integers"), ((1, "2"), "must be integers"), (5, "must be integers")]:
        with pytest.raises(ValidationError, match=message):
            IntegerSetSpec("explicit", elements=bad)


def test_sieve_view_holds_nothing_sized_by_the_horizon(empty_view_cache):
    # an element view's arrays are its members, 4 bytes each (uint32), and
    # its sum tables, kept at every STRIDE-th member: no array grows with the
    # horizon
    view = IntegerSetSpec.squarefree().view(10**6)
    view.sums_table(1.0)
    arrays = {id(a): a for a in vars(view).values() if isinstance(a, np.ndarray)}
    assert sum(a.nbytes for a in arrays.values()) == 4 * len(view.starts) == 4 * 607_926
    rows = len(view.starts) // numerics.STRIDE + 1
    assert [(len(t._s), len(t._c)) for _, t in view._tables.values()] == [(rows, rows)]


def _assert_same_sieve(grown, fresh):
    assert grown.horizon == fresh.horizon
    assert np.array_equal(grown.starts, fresh.starts) and not grown.starts.flags.writeable


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
def test_grown_sieve_view_equals_a_fresh_build(kind):
    # a view grown from a smaller one copies its members and sieves only the
    # integers above them: the members of a build from nothing, with old
    # horizons off the byte and word edges (639, 63, 9), on both sides of a
    # segment edge, one integer more, and a chain of five steps checked
    # against the oracle; the old view is left as it was
    seg = intset._SEGMENT
    steps = [(640, 5000), (639, 5000), (64, 65), (63, 64), (9, 17), (1, 2), (seg - 1, seg + 70),
             (seg + 1, seg + 64), (seg - 1, seg), (seg, seg + 1), (seg + 1, 2 * seg + 1)]
    for h0, h in steps:
        old = intset._sieve_members(kind, h0)
        before = old.starts.copy()
        _assert_same_sieve(intset._sieve_members(kind, h, old), intset._sieve_members(kind, h))
        assert old.horizon == h0 and np.array_equal(old.starts, before)
    view, want = None, _BRUTE[kind](2 * 10**5 + 63)
    for h in (100, 4097, 4160, 70_001, 2 * 10**5 + 63):
        view = intset._sieve_members(kind, h, view)
        assert view.starts.tolist() == want[: bisect_right(want, h)], h


def test_grown_sieve_view_keeps_its_tables_and_the_old_view_is_unchanged(empty_view_cache):
    # the cached view of a larger horizon grows from the smaller one and
    # carries its tables over in a dict of its own; a table asked for at the
    # larger size is built from the smaller one, and the old view keeps its own
    spec = IntegerSetSpec.squarefree()
    view = spec.view(10**4)
    root_sums = view.table(2, 100, lambda old: "root sums")
    view.table(1.0, 10**4, lambda old: "reciprocal sums")
    grown = spec.view(2 * 10**4)
    assert grown.horizon == 2 * 10**4 and grown is not view and grown._tables is not view._tables
    assert sorted(grown._tables, key=str) == [1.0, 2] and grown.table(2, 100, None) is root_sums
    olds = []
    assert grown.table(1.0, 2 * 10**4, lambda old: olds.append(old) or "grown sums") == "grown sums"
    assert olds == ["reciprocal sums"]
    assert view._tables == {2: (100, "root sums"), 1.0: (10**4, "reciprocal sums")}


@given(st.sampled_from(["full", "even", "squarefree", "primes"]),
       st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_materialize_contains_consistency(kind, lo, span):
    spec = IntegerSetSpec(kind)
    hi = lo + span
    got = set(materialize(spec, lo, hi).tolist())
    for x in range(lo, hi + 1):
        assert (x in got) == contains(spec, x)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=0, max_size=50),
       st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=1000))
@settings(max_examples=60)
def test_explicit_consistency(elements, lo, span):
    spec = IntegerSetSpec.explicit(elements)
    hi = lo + span
    got = set(materialize(spec, lo, hi).tolist())
    assert got == {x for x in elements if lo <= x <= hi}


def test_next_prev_member():
    e2 = IntegerSetSpec.example2(2, 2)
    assert e2.next_member(5, 10**7) == 65
    assert e2.prev_member(64) == 4
    assert e2.prev_member(1) is None
    sf = IntegerSetSpec.squarefree()
    assert sf.next_member(48, 100) == 51
    assert sf.prev_member(50) == 47
    ev = IntegerSetSpec.even()
    assert (ev.next_member(-3, 10), ev.next_member(7, 100), ev.next_member(8, 8), ev.next_member(9, 9)) == (2, 8, 8, None)
    assert (ev.prev_member(9), ev.prev_member(2), ev.prev_member(1)) == (8, 2, None)


def test_view_counts_equal_element_counts(canonical_specs):
    rng = np.random.RandomState(11)
    specs = list(canonical_specs.values())
    specs += [IntegerSetSpec.explicit([3, 5, 6, 7, 100]), IntegerSetSpec.explicit([])]
    for _ in range(20):
        comps = [(a, a + int(rng.randint(0, 300))) for a in rng.randint(1, 2000, size=5).tolist()]
        specs.append(IntegerSetSpec.interval_union(IntervalSet(tuple(comps))))
    H = 2000
    xs = np.arange(0, H + 1, dtype=np.int64)
    for spec in specs:
        view = spec.view(H)
        elems = spec.members(1, H)
        want = np.searchsorted(elems, xs, side="right")
        assert np.array_equal(view.count_le(xs), want)
        assert all(view.count_le(x) == want[x] for x in (0, 1, 17, H))
        blocks = spec.kind in ("full", "interval_union", "example2")
        assert type(view) is (BlockView if blocks else ElementView)
        starts = view.starts
        if blocks:
            assert np.array_equal(view.below(0, len(starts)), view.count_le(starts - 1))
            assert np.array_equal(view.below(0, len(starts) + 1), np.append(view.count_le(starts - 1), len(elems)))
            assert len(starts) <= max(1, len(spec.block_union() or ()))  # endpoints, not elements
        else:  # the members below starts[i] are i: the scans read an element view's rows as a slice
            assert np.array_equal(view.count_le(starts - 1), np.arange(len(starts)))
            assert np.array_equal(starts, elems) and np.array_equal(view.ends, elems)


def _random_unions(rng, count):
    specs = []
    for _ in range(count):
        comps = [(a, a + int(rng.randint(0, 40))) for a in rng.randint(1, 600, size=int(rng.randint(1, 12))).tolist()]
        specs.append(IntegerSetSpec.interval_union(IntervalSet(tuple(comps))))
    return specs


def test_block_view_equals_clipped_union():
    # the cached endpoints clipped by bisection give the blocks of an
    # IntervalSet clip, at horizons on, inside and between blocks; example2
    # at depth 5 has blocks past int64, which the clip must drop first
    specs = _random_unions(np.random.RandomState(5), 30)
    specs += [IntegerSetSpec.example2(2, 5), IntegerSetSpec.example2(3, 5)]
    for spec in specs:
        comps = spec.block_union().components
        horizons = {e + d for a, b in comps for e in (a, b, (a + b) // 2) for d in (-1, 0, 1)}
        horizons |= {1, 2**63 - 1}
        for H in sorted(h for h in horizons if 1 <= h < 2**63):
            clipped = spec.block_union().clip(1, H).components
            view = spec.view(H)
            starts, ends = view.starts, view.ends
            assert starts.tolist() == [a for a, _ in clipped] and ends.tolist() == [b for _, b in clipped]


def test_block_walks_vs_brute_scan():
    specs = _random_unions(np.random.RandomState(6), 40) + [IntegerSetSpec.example2(2, 1)]
    for spec in specs:
        members = set(spec.members(1, spec.block_union().components[-1][1]).tolist())
        top = max(members)
        for x in range(0, top + 4):  # gaps, block edges and past the last block
            up = next((y for y in range(max(x, 1), top + 1) if y in members), None)
            down = next((y for y in range(x, 0, -1) if y in members), None)
            for limit in (x, x + 3, top + 10):
                assert spec.next_member(x, limit) == (up if up is not None and up <= limit else None)
            assert spec.prev_member(x) == down
            if x >= 1:
                assert spec.contains(x) == (x in members)


# ---------------------------------------------------------------------------
# IntervalSet
# ---------------------------------------------------------------------------


def test_spec_hash_is_kept_per_object():
    a = IntegerSetSpec.explicit(range(1, 1000))
    b = IntegerSetSpec.explicit(range(1, 1000))
    assert "_hash" not in a.__dict__
    assert a == b and hash(a) == hash(b)
    assert a.__dict__["_hash"] == hash(a)
    object.__setattr__(a, "_hash", 7)
    assert hash(a) == 7  # later calls read the stored value
    assert a == b
    # string hashes differ between processes: a pickle carries no hash
    c = pickle.loads(pickle.dumps(b))
    assert "_hash" not in c.__dict__ and c == b and hash(c) == hash(b)


def test_interval_set_normalizes():
    s = IntervalSet(((10, 20), (21, 30), (5, 8), (40, 50), (45, 60)))
    assert s.components == ((5, 8), (10, 30), (40, 60))
    assert s.count() == 4 + 21 + 21


def test_interval_set_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        IntervalSet(((5, 4),))
    with pytest.raises(ValidationError):
        IntervalSet(((0, 4),))


def test_interval_set_contains_and_clip():
    s = IntervalSet(((10, 30), (100, 200)))
    assert s.contains(10) and s.contains(200) and not s.contains(31)
    assert s.clip(20, 150).components == ((20, 30), (100, 150))
    assert s.clip(31, 99).components == ()


def test_interval_set_json_round_trip():
    s = IntervalSet(((3, 7), (100, 120)))
    assert IntervalSet.from_json(s.to_json()) == s


# ---------------------------------------------------------------------------
# example2_set
# ---------------------------------------------------------------------------


def test_example2_blocks():
    assert example2_set(2, 1).components == ((2, 4), (65, 130))
    assert example2_set(2, 2).components == ((2, 4), (65, 130), (2197001, 4394002))
    assert example2_set(3, 0).components == ((2, 6),)


def test_example2_recursion_rule():
    # u_{i+1} = (j*u_i)**3 + 1, the minimal admissible growth
    comps = example2_set(3, 3).components
    for (a, b), (a2, _) in zip(comps, comps[1:]):
        assert b == 3 * a
        assert a2 == (3 * a) ** 3 + 1


def test_example2_validation():
    with pytest.raises(ValidationError):
        example2_set(1, 2)


# ---------------------------------------------------------------------------
# classify / invert_intervals
# ---------------------------------------------------------------------------


def test_classify_examples():
    n = 10**6
    assert classify(IntervalSet(((10, 30),)), n, 2.5) == {"big": True, "separated": True}
    assert classify(IntervalSet(((10, 19),)), n, 2.5)["big"] is False
    assert classify(IntervalSet(((10, 30), (50, 200))), n, 2.5)["separated"] is False
    for floor in (2, 1.5, float("nan")):  # nan compares false both ways
        with pytest.raises(DomainError, match="ratio_floor"):
            classify(IntervalSet(((10, 30),)), n, floor)


def test_invert_intervals_examples():
    assert invert_intervals(IntervalSet(((7, 10),)), 100).components == ((10, 14),)
    assert invert_intervals(IntervalSet(((10**3, 10**4),)), 10**12).components == ((10**8, 10**9),)
    assert invert_intervals(IntervalSet(((2, 4), (10, 20))), 1000).components == ((50, 100), (250, 500))


def test_invert_intervals_preconditions():
    with pytest.raises(DomainError):
        invert_intervals(IntervalSet(((10, 30), (50, 200))), 10**6)  # not separated
    with pytest.raises(DomainError):
        invert_intervals(IntervalSet(((10, 60),)), 100)  # b > N/2


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=10**12))
@settings(max_examples=300)
def test_double_inversion_bound(x, n):
    # for x <= N/2: x <= floor(N/floor(N/x)) <= 2x, exactly in integers
    if 2 * x > n:
        x = n // 2
    if x < 1:
        return
    y = n // (n // x)
    assert x <= y <= 2 * x


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=4, max_value=10**12))
@settings(max_examples=300)
def test_inversion_ratio_bound(u, v, n):
    # u <= v <= N/2  =>  floor(N/u)/floor(N/v) <= 2 v/u, exactly in rationals
    u, v = min(u, v), max(u, v)
    if 2 * v > n:
        return
    assert (n // u) * u <= 2 * v * (n // v)


@given(st.integers(min_value=3, max_value=10**5), st.integers(min_value=3, max_value=20),
       st.integers(min_value=10, max_value=10**12))
@settings(max_examples=200)
def test_inverted_big_interval_stays_big(a, ratio, n):
    # floor(N/a)/floor(N/b) > (b/a)(1 - a/N) - 2/floor(N/b), exact rationals
    b = a * ratio
    if 2 * b > n:
        return
    lhs = Fraction(n // a, n // b)
    rhs = Fraction(b, a) * (1 - Fraction(a, n)) - Fraction(2, n // b)
    assert lhs > rhs


def test_window_validation():
    w = Window(10**3, 10**6)
    assert w.lo == 10**3 and w.hi == 10**9
    assert w.log_span == pytest.approx(math.log(10**6))
    with pytest.raises(ValidationError):
        Window(0, 10)
    with pytest.raises(ValidationError):
        Window(5, 1)


def test_spec_json_round_trip():
    for spec in (
        IntegerSetSpec.full(),
        IntegerSetSpec.even(),
        IntegerSetSpec.squarefree(),
        IntegerSetSpec.primes(),
        IntegerSetSpec.explicit([3, 5, 11]),
        IntegerSetSpec.interval_union(IntervalSet(((10, 20), (40, 80)))),
        IntegerSetSpec.example2(2, 3),
    ):
        assert IntegerSetSpec.from_json(spec.to_json()) == spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        IntegerSetSpec("explicit", elements=(5, 5))
    with pytest.raises(ValidationError):
        IntegerSetSpec("example2", j=1, depth=2)
    with pytest.raises(ValidationError):
        IntegerSetSpec("nonsense")
    with pytest.raises(ValidationError):
        IntegerSetSpec.from_json({"params": {}})
