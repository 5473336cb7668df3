import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import intset
from densitylab.errors import CapacityError, DomainError, ValidationError
from densitylab.intset import (
    IntegerSetSpec,
    IntervalSet,
    Window,
    block_offsets,
    classify,
    contains,
    count_le,
    example2_set,
    invert_intervals,
    materialize,
)

from oracles import brute_primes, brute_squarefree


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


def test_sieve_horizon_cap():
    with pytest.raises(CapacityError):
        materialize(IntegerSetSpec.squarefree(), 1, 10**9 + 1)


@pytest.fixture()
def empty_sieve_cache(monkeypatch):
    monkeypatch.setattr(intset, "_SIEVE_CACHE", {})


@pytest.mark.parametrize("kind, brute", [("squarefree", brute_squarefree), ("primes", brute_primes)])
def test_sieve_build_vs_trial_division(kind, brute, empty_sieve_cache):
    for hi in (1, 2, 3, 4, 9, 10, 97, 2000):
        intset._SIEVE_CACHE.clear()
        got = intset._sieve_members(kind, hi)
        assert got.dtype == np.int64 and got.tolist() == brute(hi)


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_sieve_build_at_segment_edges(kind, k, delta, empty_sieve_cache):
    hi = k * intset._SEGMENT + delta
    got = intset._sieve_members(kind, hi)
    want = np.flatnonzero(intset._sieve_segment(kind, 1, hi)) + 1
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert not got.flags.writeable


def test_sieve_build_cap_trips_before_allocation(monkeypatch, empty_sieve_cache):
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
        intset._sieve_members("squarefree", 3 * intset._SEGMENT)
    assert sieved == [(1, intset._SEGMENT)]
    assert intset._SIEVE_CACHE == {}


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
        assert np.array_equal(count_le(view, xs), want)
        assert all(count_le(view, x) == want[x] for x in (0, 1, 17, H))
        assert np.array_equal(block_offsets(view), np.append(count_le(view, view[0] - 1), len(elems)))
        blocks = spec.kind in ("full", "interval_union", "example2")
        assert (view[0] is view[1]) == (not blocks)
        if blocks:
            assert len(view[0]) <= max(1, len(spec.block_union() or ()))  # endpoints, not elements
        else:
            assert np.array_equal(view[0], elems)


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
            starts, ends = spec.view(H)
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
