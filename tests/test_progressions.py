import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.errors import CapacityError, DomainError
from densitylab.intset import IntegerSetSpec, IntervalSet
from densitylab.numerics import ceil_nth_root, floor_nth_root
from densitylab import progressions, views
from densitylab.progressions import (
    _allowed,
    ApproxWitness,
    GeoProgression,
    PowerProgression,
    approx_subset,
    find_geo,
    find_gp3,
    find_power_ap,
    gp_free_certify,
    is_n_approx,
)

from oracles import brute_find_geo, brute_find_gp3, brute_find_power_ap, brute_gp3_free, brute_primes, brute_squarefree, has_n_approx, is_prime_td, is_squarefree_td

FULL = IntegerSetSpec.full()
SQUAREFREE = IntegerSetSpec.squarefree()
EVEN = IntegerSetSpec.even()


def _random_explicit(rng, hi, size):
    els = sorted(rng.choice(np.arange(1, hi + 1), size=size, replace=False).tolist())
    return IntegerSetSpec.explicit(els), els


def _random_intervals(rng, hi, count):
    """Random interval union inside [1, hi], some components touching hi."""
    comps = []
    for _ in range(count):
        a = int(rng.randint(1, hi + 1))
        comps.append((a, min(hi + 50, a + int(rng.randint(0, hi // 8 + 1)))))
    return IntegerSetSpec.interval_union(IntervalSet(tuple(comps)))


# ---------------------------------------------------------------------------
# is_n_approx
# ---------------------------------------------------------------------------


def test_is_n_approx_examples():
    assert is_n_approx(10, 15, 2)
    assert not is_n_approx(10, 20, 2)   # strict upper bound
    assert is_n_approx(7, 7, 2)
    assert not is_n_approx(7, 7, 1)     # n = 1 windows are empty


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=1, max_value=10**4))
@settings(max_examples=300)
def test_is_n_approx_symmetry(x, a, n):
    assert is_n_approx(x, a, n) == is_n_approx(a, x, n)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=100))
@settings(max_examples=300)
def test_is_n_approx_monotone_in_n(x, a, n, bump):
    if is_n_approx(x, a, n):
        assert is_n_approx(x, a, n + bump)


# ---------------------------------------------------------------------------
# approx_subset
# ---------------------------------------------------------------------------


def test_approx_subset_examples():
    w = approx_subset([11, 121, 1331], FULL, 2, 10**4)
    assert w.matches == ((11, 11), (121, 121), (1331, 1331))
    w = approx_subset([7], EVEN, 2, 100)
    assert w.matches == ((7, 8),)
    assert approx_subset([7], IntegerSetSpec.explicit([100]), 2, 10**3) is None


def test_approx_subset_nearest_tie_prefers_smaller():
    # 6*6 = 4*9: equal log distance, pick 4
    w = approx_subset([6], IntegerSetSpec.explicit([4, 9]), 2, 100)
    assert w.matches == ((6, 4),)


def test_approx_subset_nearest_is_log_nearest():
    # 49 -> candidates 47 and 51; 49^2 = 2401 > 47*51 = 2397, so 51 wins
    w = approx_subset([49], IntegerSetSpec.explicit([47, 51]), 3, 10**3)
    assert w.matches == ((49, 51),)


def test_approx_subset_horizon_guard():
    with pytest.raises(DomainError):
        approx_subset([100], FULL, 10, 500)


def test_witness_validates_matches():
    with pytest.raises(DomainError):
        ApproxWitness(None, 2, ((10, 20),))


def test_witnesses_are_values():
    geo = GeoProgression(a=3, r=2, l=3)
    witness = ApproxWitness(geo, n=2, matches=((3, 4), (6, 6), (12, 11)))
    same = ApproxWitness(GeoProgression(3, 2, 3), 2, ((3, 4), (6, 6), (12, 11)))
    assert witness == same and hash(witness) == hash(same) and geo.terms == [3, 6, 12]
    assert witness != ApproxWitness(geo, 3, witness.matches) and geo != PowerProgression(3, 2, 3, 1)
    assert repr(geo) == "GeoProgression(a=3, r=2, l=3)"
    assert PowerProgression(11, 6, 4, 2) == PowerProgression(a=11, d=6, l=4, m=2)
    with pytest.raises(AttributeError):
        witness.n = 3
    with pytest.raises(DomainError, match="need a, r, l >= 1"):
        GeoProgression(0, 2, 3)
    with pytest.raises(DomainError, match="need a, d, l, m >= 1"):
        PowerProgression(1, 1, 1, 0)
    with pytest.raises(DomainError, match=r"match \(10, 20\) is not an 2-approximation"):
        ApproxWitness(None, 2, ((10, 20),))


# ---------------------------------------------------------------------------
# _allowed point queries on the set view
# ---------------------------------------------------------------------------


def _brute_allowed(spec, x, n, horizon, steps):
    """Least x' in [x, x + steps) whose window (x'/n, x'*n) holds a member
    up to the horizon, by stepping x'; None when none does."""
    def meets(y):
        return spec.next_member(y // n + 1, min(y * n - 1, horizon)) is not None
    return next((y for y in range(x, x + steps) if meets(y)), None), meets


def _check_allowed(spec, horizon, rng, ns=(1, 2, 3, 10), steps=800):
    """_allowed(spec, x, n, horizon) against a brute scan, x on block edges
    (of at most 300 blocks, sampled for element views), in gaps, past the
    last block and at random."""
    view = spec.view(horizon)
    starts, ends = view.starts.tolist(), view.ends.tolist()
    if len(starts) > 300:
        keep = sorted(rng.choice(len(starts), size=300, replace=False).tolist()) + [len(starts) - 1]
        starts, ends = [starts[i] for i in keep], [ends[i] for i in keep]
    for n in ns:
        edges = {v + e for s, t in zip(starts, ends) for v in (s * n, t * n, s // n, t // n) for e in (-2, -1, 0, 1)}
        xs = sorted({x for x in edges if x >= 1} | set(rng.randint(1, horizon // n + 1, size=40).tolist()))
        for x in xs:
            got = _allowed(spec, x, n, horizon)
            want, meets = _brute_allowed(spec, x, n, horizon, steps)
            assert (got == x) == meets(x), (x, n)
            if want is not None:
                assert got == want, (x, n)
            else:  # beyond the stepped range: check the answer itself
                assert got is None or (got >= x + steps and meets(got) and not meets(got - 1)), (x, n)
        assert _allowed(spec, ends[-1] * max(n, 2), n, horizon) is None  # past the last block
    assert all(_allowed(spec, x, 1, horizon) is None for x in starts + ends)  # n = 1 windows are empty


def test_allowed_blocks_equal_elements(rng):
    # a union's block view and its explicit twin's element view answer alike
    for _ in range(25):
        horizon = int(rng.randint(50, 5000))
        spec = _random_intervals(rng, horizon, int(rng.randint(1, 8)))
        twin = IntegerSetSpec.explicit(spec.members(1, horizon).tolist())
        assert len(spec.view(horizon).starts) <= len(spec.intervals)  # endpoints, not elements
        for n in (1, 2, 3, 10):
            xs = rng.randint(1, horizon // n + 1, size=100).tolist()
            assert [_allowed(spec, x, n, horizon) for x in xs] == [_allowed(twin, x, n, horizon) for x in xs], n
        _check_allowed(spec, horizon, rng)


def test_allowed_full_is_one_block(rng):
    view = FULL.view(10**9)
    starts, ends = view.starts, view.ends
    assert starts.tolist() == [1] and ends.tolist() == [10**9]
    assert all(_allowed(FULL, x, 2, 10**9) == x for x in range(1, 1000))
    assert all(_allowed(FULL, x, 1, 10**9) is None for x in range(1, 1000))  # n = 1 windows are empty
    _check_allowed(FULL, 10**9, rng)


def test_allowed_example2_blocks_beyond_int64(rng):
    # block ends of depth 5 exceed int64; the view clips them at the horizon
    spec = IntegerSetSpec.example2(2, 5)
    view = spec.view(10**9)
    assert view.starts.tolist() == [2, 65, 2197001] and view.ends.tolist() == [4, 130, 4394002]
    _check_allowed(spec, 10**9, rng)


@pytest.mark.parametrize("spec", [SQUAREFREE, IntegerSetSpec.primes()], ids=["squarefree", "primes"])
def test_allowed_sieve_kinds_by_point_queries(spec, rng, monkeypatch):
    # the oracle's edges come from the sieved view; _allowed itself sieves nothing
    _check_allowed(spec, 10**6, rng)
    sieve = []
    monkeypatch.setattr(views, "_sieve_members", lambda kind, hi, old=None: sieve.append(hi))
    assert _allowed(spec, 10**6 // 3, 3, 10**6) == 10**6 // 3
    assert sieve == []


# ---------------------------------------------------------------------------
# find_geo
# ---------------------------------------------------------------------------


def test_find_geo_full_lexicographic_minimum():
    w = find_geo(FULL, 3, 2, 10, 10, 10**6)
    assert (w.progression.a, w.progression.r) == (11, 11)
    assert w.progression.terms == [11, 121, 1331]


def test_find_geo_squarefree_witness_revalidates():
    w = find_geo(SQUAREFREE, 3, 2, 10, 10, 10**6)
    assert w is not None
    again = approx_subset(w.progression.terms, SQUAREFREE, 2, 10**6)
    assert again is not None and again.matches == w.matches


def test_find_geo_infeasible_bounds():
    with pytest.raises(DomainError):
        find_geo(FULL, 5, 10, 10**3, 10**3, 10**6)


def test_find_geo_matches_brute_oracle(rng):
    for _ in range(25):
        spec, els = _random_explicit(rng, 3000, int(rng.randint(20, 400)))
        n = int(rng.randint(2, 4))
        want = brute_find_geo(els, 3, n, 2, 2, 3000)
        got = find_geo(spec, 3, n, 2, 2, 3000)
        if want is None:
            assert got is None
        else:
            assert (got.progression.a, got.progression.r) == want


def _gapped(rng, hi):
    """A few members with ratios up to 9 between neighbours: their
    n-neighbourhood has gaps, so the searches leap."""
    els, x = [], int(rng.randint(1, 400))
    while x <= hi:
        els.append(x)
        x = int(x * rng.uniform(1.1, 9)) + 1
    return els


def test_least_start_vs_brute(rng):
    # a leap must re-check every term at the new start
    for _ in range(150):
        els = _gapped(rng, 10**6)
        spec = IntegerSetSpec.explicit(els)
        n, l, k, m = int(rng.randint(2, 4)), int(rng.randint(1, 5)), int(rng.randint(1, 9)), int(rng.randint(1, 4))
        a0 = int(rng.randint(1, 60))
        geo = (lambda a, i: a * k**i, lambda y, i: -(-y // k**i), 10**6 // n // k ** (l - 1))
        power = (lambda t, i: (t + i * k) ** m, lambda y, i: ceil_nth_root(y, m) - i * k,
                 floor_nth_root(10**6 // n, m) - (l - 1) * k)
        for term, least, cap in (geo, power):
            want = next((a for a in range(a0, cap + 1)
                         if all(has_n_approx(els, term(a, i), n) for i in range(l))), None)
            assert progressions._least_start(spec, n, 10**6, a0, cap, l, term, least) == want


# (elements, op, m, l, n, min_a, min_r or min_d, horizon): the first witness
# found is beaten by a later ratio or step, the least start is reached only
# by a leap, or the search by ratio answers first
GAPPED_SEARCHES = [
    ([269, 1711, 12633, 27075, 158110, 529159], "geo", 0, 4, 2, 1, 2, 53663),
    ([40, 143, 400, 2970, 11174, 26993, 131701, 260841], "geo", 0, 4, 2, 293, 1, 26816),
    ([207, 1684, 6301, 40604, 101016, 238963], "pap", 2, 3, 2, 281, 1, 2826),
    ([97, 714, 4710, 34124, 147116, 914678], "pap", 2, 4, 2, 253, 18, 16823),
    ([314, 2698, 24053, 72265, 612523], "pap", 2, 4, 2, 8, 15, 39792),
    ([202, 1503, 5046, 39452, 220384], "pap", 2, 4, 2, 281, 8, 4392),
    # the search by ratio answers first: over a thousand starts fail
    ([2172, 4344, 93614, 246189, 273917, 966960], "geo", 0, 3, 2, 27, 8, 1933920),
    ([1985, 3970, 377742, 7255146], "geo", 0, 3, 2, 21, 8, 14510292),
]


def test_searches_match_brute_on_gapped_sets(rng):
    cases = list(GAPPED_SEARCHES)
    for _ in range(20):
        els = _gapped(rng, 5000)
        cases += [(els, "geo", 0, int(rng.randint(2, 5)), 2, int(rng.randint(0, 300)), int(rng.randint(0, 6)), 5000),
                  (els, "pap", int(rng.randint(1, 4)), int(rng.randint(2, 5)), 2, int(rng.randint(0, 300)),
                   int(rng.randint(0, 6)), 5000)]
    for els, op, m, l, n, min_a, min_k, horizon in cases:
        spec = IntegerSetSpec.explicit(els)
        try:
            if op == "geo":
                got = find_geo(spec, l, n, min_a, min_k, horizon)
                want = brute_find_geo(els, l, n, min_a, min_k, horizon)
            else:
                got = find_power_ap(spec, m, l, n, min_a, min_k, horizon)
                want = brute_find_power_ap(els, m, l, n, min_a, min_k, horizon)
        except DomainError:
            continue  # the horizon admits no candidate
        got = got and (got.progression.a, got.progression.r if op == "geo" else got.progression.d)
        assert got == want, (els, op, m, l, n, min_a, min_k, horizon)


def test_find_geo_blocks_equal_explicit_and_brute(rng):
    specs = [IntegerSetSpec.example2(2, 2), IntegerSetSpec.example2(3, 1)]
    specs += [_random_intervals(rng, 3000, int(rng.randint(1, 6))) for _ in range(15)]
    for spec in specs:
        els = spec.members(1, 3000).tolist()
        as_explicit = IntegerSetSpec.explicit(els)
        for n, min_a, min_r in ((2, 2, 2), (3, 1, 1), (2, 20, 3)):
            got = find_geo(spec, 3, n, min_a, min_r, 3000)
            same = find_geo(as_explicit, 3, n, min_a, min_r, 3000)
            want = brute_find_geo(els, 3, n, min_a, min_r, 3000)
            assert (got and got.to_json()) == (same and same.to_json())
            assert (got and (got.progression.a, got.progression.r)) == want


def test_find_geo_blocked_by_cubic_gap_set():
    # the cubically separated block set defeats every search with
    # min_a = min_r = n^3 * j; checked here for j = 2 and n <= 4
    # (n = 1 is vacuous -- strict 1-approximation windows are empty -- so it
    # gets a small horizon)
    spec = IntegerSetSpec.example2(2, 4)
    assert find_geo(spec, 3, 1, 2, 2, 10**6) is None
    for n in (2, 3, 4):
        m = n**3 * 2
        assert find_geo(spec, 3, n, m, m, 10**8) is None


def test_find_geo_below_block_threshold_succeeds():
    # with min bounds below the blocking threshold a witness exists inside
    # a single block: [65, 130] holds r = 2 progressions exactly
    spec = IntegerSetSpec.example2(2, 4)
    w = find_geo(spec, 3, 2, 2, 1, 10**6)
    assert w is not None
    again = approx_subset(w.progression.terms, spec, 2, 10**6)
    assert again is not None


# ---------------------------------------------------------------------------
# gp_free_certify
# ---------------------------------------------------------------------------


def test_gp_free_examples():
    assert gp_free_certify(SQUAREFREE, 10**4)
    assert not gp_free_certify(FULL, 100)
    assert find_gp3(FULL, 100) == (1, 2, 4)
    assert gp_free_certify(IntegerSetSpec.explicit([2, 3, 5]), 10)


def test_find_gp3_sieve_kinds_match_trial_division_oracle():
    # the sieve kinds are answered without a scan; the oracle scans every
    # pair and decides c > horizon by trial division
    horizon = 3000
    for spec, els, member in ((SQUAREFREE, brute_squarefree(horizon), is_squarefree_td),
                              (IntegerSetSpec.primes(), brute_primes(horizon), is_prime_td)):
        assert find_gp3(spec, horizon) == brute_find_gp3(els, horizon, member) is None


def test_gp_free_matches_brute_oracle(rng):
    for _ in range(30):
        spec, els = _random_explicit(rng, 400, int(rng.randint(5, 120)))
        assert gp_free_certify(spec, 400) == brute_gp3_free(els, 400)


def test_find_gp3_returns_valid_triple(rng):
    for _ in range(40):
        spec, els = _random_explicit(rng, 300, int(rng.randint(20, 150)))
        triple = find_gp3(spec, 300)
        if triple is not None:
            a, b, c = triple
            assert a < b < c and b * b == a * c
            assert all(spec.contains(v) for v in triple)


# ---------------------------------------------------------------------------
# find_power_ap
# ---------------------------------------------------------------------------


def test_find_power_ap_full():
    w = find_power_ap(FULL, 2, 4, 2, 10, 5, 10**6)
    assert (w.progression.a, w.progression.d) == (11, 6)
    assert w.progression.terms == [16, 100, 256, 484]
    # every term matched exactly in the full set
    assert all(x == a for x, a in w.matches)


def test_find_power_ap_empty():
    assert find_power_ap(IntegerSetSpec.explicit([]), 2, 3, 2, 1, 1, 10**4) is None


def test_find_power_ap_squarefree_revalidates():
    w = find_power_ap(SQUAREFREE, 2, 3, 3, 10, 2, 10**6)
    assert w is not None
    again = approx_subset(w.progression.terms, SQUAREFREE, 3, 10**6)
    assert again is not None and again.matches == w.matches


def test_root_start_cap_closed_form():
    # find_power_ap takes the largest root start t with (t + (l-1)d)^m n <= H
    # as floor_nth_root(H // n, m) - (l-1)d; the reference is the decrement
    # loop it replaced
    for m in (1, 2, 3, 4):
        for l in (1, 2, 3, 5):
            for d in (1, 2, 7, 40):
                for n in (1, 2, 3, 10):
                    for horizon in (1, 7, 64, 1000, 10**6 + 1, 3**20, 10**12):
                        t_hi = ceil_nth_root(horizon // n, m)
                        while (t_hi + (l - 1) * d) ** m * n > horizon:
                            t_hi -= 1
                        assert floor_nth_root(horizon // n, m) - (l - 1) * d == t_hi


def test_find_power_ap_blocks_equal_explicit(rng):
    specs = [IntegerSetSpec.example2(2, 2), IntegerSetSpec.example2(3, 1)]
    specs += [_random_intervals(rng, 5000, int(rng.randint(1, 6))) for _ in range(15)]
    for spec in specs:
        as_explicit = IntegerSetSpec.explicit(spec.members(1, 5000).tolist())
        for m, l, n, min_a, min_d in ((2, 3, 2, 3, 1), (3, 3, 2, 1, 1), (2, 2, 3, 30, 2), (1, 3, 2, 5, 5)):
            got = find_power_ap(spec, m, l, n, min_a, min_d, 5000)
            want = find_power_ap(as_explicit, m, l, n, min_a, min_d, 5000)
            assert (got and got.to_json()) == (want and want.to_json())


def test_find_power_ap_matches_brute_oracle(rng):
    # later steps d scan only root starts whose a beats the best so far; the
    # oracle scans every (a, d) in order
    for _ in range(12):
        spec, els = _random_explicit(rng, 700, int(rng.randint(20, 300)))
        for m, l, n, min_a, min_d in ((1, 3, 2, 5, 1), (2, 3, 2, 3, 1), (3, 2, 2, 1, 0), (2, 2, 3, 0, 2)):
            got = find_power_ap(spec, m, l, n, min_a, min_d, 700)
            want = brute_find_power_ap(els, m, l, n, min_a, min_d, 700)
            assert (got and (got.progression.a, got.progression.d)) == want


def _count_allowed(monkeypatch):
    calls = []
    allowed = progressions._allowed

    def counting(spec, x, n, horizon):
        calls.append(x)
        assert len(calls) < 1000, "unbounded search"  # fail fast instead of hanging
        return allowed(spec, x, n, horizon)

    monkeypatch.setattr(progressions, "_allowed", counting)
    return calls


def test_searches_stop_at_least_admissible_a(monkeypatch):
    # the least allowed first term a_lo is tried first: when it has a
    # witness the search ends there, so a full set at H = 1e12 is answered
    # without walking the ratios (they would otherwise run on to r = 5e11):
    # one query for a_lo, then one per term
    calls = _count_allowed(monkeypatch)
    w = find_geo(FULL, 2, 2, 0, 10**5, 10**12)
    assert (w.progression.a, w.progression.r) == (1, 10**5 + 1) and len(calls) == 3
    calls.clear()
    w = find_power_ap(FULL, 2, 3, 2, 0, 0, 10**12)
    assert (w.progression.a, w.progression.d) == (1, 1) and len(calls) == 4
    # a_lo = 2 > min_a + 1 (a leap from 1, then its check) ends the search
    sparse = IntegerSetSpec.explicit([3, 5, 11])
    calls.clear()
    w = find_geo(sparse, 2, 2, 0, 0, 10**12)
    assert (w.progression.a, w.progression.r) == (2, 1) and len(calls) == 4
    # with l = 1 only the first term counts: (a_lo, min_r + 1)
    w = find_geo(sparse, 1, 2, 0, 5, 10**12)
    assert (w.progression.a, w.progression.r) == (2, 6)
    # every term is at most 11*2 - 1, so ratios past 21 // a_lo are never tried
    calls.clear()
    assert find_geo(sparse, 2, 2, 0, 20, 10**12) is None and len(calls) == 1
    # n = 1 windows are empty: the first query ends each search
    calls.clear()
    assert find_geo(FULL, 3, 1, 0, 0, 10**12) is None
    assert find_power_ap(FULL, 2, 3, 1, 0, 0, 10**12) is None and len(calls) == 2


def test_search_orders_in_lockstep(monkeypatch):
    # {1, 1e12}: the only second terms are near 1e12, so walking the ratios
    # (steps) from 11 would take 5e11 of them; the order by start finds the
    # least ratio of a = 1 in one leap
    calls = _count_allowed(monkeypatch)
    spec = IntegerSetSpec.explicit([1, 10**12])
    w = find_geo(spec, 2, 2, 0, 10, 10**13)
    assert (w.progression.a, w.progression.r) == (1, 5 * 10**11 + 1)
    w = find_power_ap(spec, 1, 2, 2, 0, 10, 10**13)
    assert (w.progression.a, w.progression.d) == (1, 5 * 10**11)
    assert len(calls) < 20
    monkeypatch.setattr(progressions, "SEARCH_STEP_LIMIT", 100)
    # [X, 2X] and 1e6 with X = 1e4: no start up to 1e6 // 11**2 has a ratio,
    # thousands of starts, while the order by ratio ends after four
    calls.clear()
    assert find_geo(IntegerSetSpec.explicit([10**4, 2 * 10**4, 10**6]), 3, 2, 0, 10, 2 * 10**6) is None
    # adding {1} lets the ratios of a = 1 run to about 2e9 as well: both
    # orders walk millions of steps, and the search exits on the cap
    calls.clear()
    with pytest.raises(CapacityError):
        find_geo(IntegerSetSpec.explicit([1, 10**6, 2 * 10**6, 4 * 10**18]), 3, 2, 0, 10, 9 * 10**18)
    # with X = 20 the starts run out first
    calls.clear()
    assert find_geo(IntegerSetSpec.explicit([1, 20, 40, 4 * 10**18]), 3, 2, 0, 10, 9 * 10**18) is None


def test_search_scan_range_capped():
    # the scanned a or root-start range is bounded by the largest allowed
    # term, not by a size cap: these requests answer at 1e12 without
    # materializing anything, and each witness re-validates
    spec = IntegerSetSpec.interval_union(IntervalSet(((1, 10**12),)))
    for s in (FULL, spec):
        w = find_geo(s, 3, 2, 1, 1, 10**12)
        assert (w.progression.a, w.progression.r) == (2, 2)
        assert approx_subset(w.progression.terms, s, 2, 10**12).matches == w.matches
        w = find_power_ap(s, 1, 3, 2, 0, 0, 10**12)
        assert (w.progression.a, w.progression.d) == (1, 1)
        assert approx_subset(w.progression.terms, s, 2, 10**12).matches == w.matches


def test_find_power_ap_least_pair(rng):
    # brute check of lexicographic minimality on small instances
    for _ in range(10):
        spec, els = _random_explicit(rng, 2000, int(rng.randint(100, 900)))
        got = find_power_ap(spec, 2, 2, 2, 3, 1, 2000)
        import oracles

        want = None
        for a in range(4, 2001):
            t0 = oracles._ceil_root(a, 2)
            for d in range(2, 50):
                terms = [(t0 + i * d) ** 2 for i in range(2)]
                if terms[-1] * 2 > 2000:
                    break
                if all(oracles.has_n_approx(els, x, 2) for x in terms):
                    want = (a, d)
                    break
            if want:
                break
        if want is None:
            assert got is None
        else:
            assert (got.progression.a, got.progression.d) == want


def test_progression_json():
    w = find_geo(FULL, 3, 2, 10, 10, 10**6)
    js = w.to_json()
    assert js["a"] == 11 and js["r"] == 11 and js["l"] == 3 and js["n"] == 2
    assert js["matches"] == [[11, 11], [121, 121], [1331, 1331]]
    p = PowerProgression(11, 6, 4, 2)
    assert p.to_json() == {"a": 11, "d": 6, "l": 4, "m": 2}
