import math

import numpy as np
import pytest

from densitylab import density as density_module
from densitylab import numerics
from densitylab.errors import DomainError
from densitylab.intset import IntegerSetSpec, IntervalSet
from densitylab.density import (
    banach_window_sup,
    banach_window_sup_at,
    bd_estimate,
    bd_estimate_at,
    bdm_window_sup,
    bdm_window_sup_at,
    count_extremes,
    counting_profile,
    default_checkpoints,
    lbd_estimate,
    lbd_profile,
    log_profile,
)

from oracles import (
    brute_banach_sup,
    brute_bd,
    brute_bdm,
    brute_harmonic,
    brute_log_value,
    brute_window_count_max,
)

EMPTY = IntegerSetSpec.explicit([])
FULL = IntegerSetSpec.full()
EVEN = IntegerSetSpec.even()

# Frozen oracle values (math.fsum / full scans; see oracles.py).
LOG_FULL_1E6 = 1.0417802992136762   # sum_{x<=1e6} 1/x / ln 1e6
LOG_EVEN_1E6 = 0.49580433473043406
H9 = 2.828968253968254              # H_9 = g(10) for the full set
BANACH_INTERVAL_1E4 = 2.3070933429107248  # H_999 - H_99, attained at k=100


# ---------------------------------------------------------------------------
# counting_profile / log_profile
# ---------------------------------------------------------------------------


def test_counting_full_is_one():
    prof = counting_profile(FULL, "upper", 10**4)
    assert all(v == 1.0 for _, v in prof.checkpoints)


def test_counting_even():
    prof = counting_profile(EVEN, "lower", 10**4, [10**4])
    assert prof.final_value == 0.5


def test_counting_squarefree_1e7():
    # segmented sieve count oracle: 6079291 squarefree integers below 1e7
    prof = counting_profile(IntegerSetSpec.squarefree(), "lower", 10**7, [10**7])
    assert prof.final_value == 6079291 / 10**7
    assert prof.final_value == pytest.approx(0.6079, abs=1e-3)


def test_log_profile_empty():
    prof = log_profile(EMPTY, 10**4)
    assert prof.final_value == 0.0


def test_log_profile_full_1e6():
    prof = log_profile(FULL, 10**6, [10**6])
    assert prof.final_value == pytest.approx(LOG_FULL_1E6, abs=1e-12)
    assert prof.final_value == pytest.approx(1.0418, abs=1e-3)


def test_log_profile_even_1e6():
    prof = log_profile(EVEN, 10**6, [10**6])
    assert prof.final_value == pytest.approx(LOG_EVEN_1E6, abs=1e-12)
    assert prof.final_value == pytest.approx(0.50, abs=0.01)


def test_log_profile_vs_fsum_oracle(rng):
    # an element view (prefix sums) and two block views (closed form)
    els = sorted(rng.choice(np.arange(1, 20001), size=5000, replace=False).tolist())
    H = 2 * 10**4
    for spec in (IntegerSetSpec.explicit(els), _random_union(rng, H), IntegerSetSpec.example2(2, 2)):
        members = spec.members(1, H).tolist()
        prof = log_profile(spec, H, [3, 100, 130, 5000, H])
        for n, v in prof.checkpoints:
            assert v == pytest.approx(brute_log_value(members, n), abs=1e-12)


def test_default_checkpoints():
    assert default_checkpoints(100) == [2, 4, 8, 16, 32, 64, 100]
    assert default_checkpoints(64) == [2, 4, 8, 16, 32, 64]


def test_count_extremes_exact():
    els = [3, 4, 10]
    cmin, cmax = count_extremes(IntegerSetSpec.explicit(els), 20)
    # max at n=4 (2/4 -> wait: ratios at elements: 1/3, 2/4, 3/10)
    assert cmax == max(1 / 3, 2 / 4, 3 / 10)
    # min just before elements and at the horizon: 0 (n < 3)
    assert cmin == 0.0
    cmin2, cmax2 = count_extremes(FULL, 50)
    assert (cmin2, cmax2) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# banach_window_sup
# ---------------------------------------------------------------------------


def test_banach_empty():
    assert banach_window_sup(EMPTY, 10, 10**4) == 0.0
    # the only element lies above every window: all windows are empty and
    # the maximizer is still k = 1
    assert banach_window_sup_at(IntegerSetSpec.explicit([60]), 2, 60) == (0.0, 1)


def test_banach_full_window_at_one():
    value, k_star = banach_window_sup_at(FULL, 10, 10**6)
    assert value == pytest.approx(H9, abs=1e-12)
    assert value == pytest.approx(2.8290, abs=1e-4)
    assert k_star == 1


def test_banach_interval_union():
    spec = IntegerSetSpec.interval_union(IntervalSet(((100, 1000),)))
    value, k_star = banach_window_sup_at(spec, 10, 10**4)
    # oracle: exhaustive k-scan gives H_999 - H_99 at k = 100
    assert value == pytest.approx(BANACH_INTERVAL_1E4, abs=1e-12)
    assert value == pytest.approx(brute_harmonic(100, 999), abs=1e-12)
    assert k_star == 100


@pytest.mark.parametrize("seed,n", [(1, 2), (2, 3), (3, 7), (4, 10)])
def test_banach_vs_exhaustive_oracle(seed, n):
    rng = np.random.RandomState(seed)
    els = sorted(rng.choice(np.arange(1, 5001), size=800, replace=False).tolist())
    spec = IntegerSetSpec.explicit(els)
    got, got_k = banach_window_sup_at(spec, n, 5000)
    want, want_k = brute_banach_sup(els, n, 5000)
    assert got == pytest.approx(want, abs=1e-11)
    assert got_k == want_k


@pytest.mark.parametrize("seed,n", [(5, 2), (6, 3), (7, 10), (8, 100)])
def test_banach_sparse_vs_exhaustive_oracle(seed, n):
    # 20 elements below 5000: the scan sees 20 block starts and kmax, and the
    # best window mostly starts below its first member, so k* is a step back
    rng = np.random.RandomState(seed)
    els = sorted(rng.choice(np.arange(1, 5001), size=20, replace=False).tolist())
    got, got_k = banach_window_sup_at(IntegerSetSpec.explicit(els), n, 5000)
    want, want_k = brute_banach_sup(els, n, 5000)
    assert got == pytest.approx(want, abs=1e-12)
    assert got_k == want_k


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_banach_few_elements_huge_horizon(n):
    # windows starting above max(A) are empty, so the brute scan up to
    # k = max(A) + 1 is the whole answer; memory must follow |A|, not H
    els = [2, 3, 5, 7, 1000, 1001, 4999]
    got, got_k = banach_window_sup_at(IntegerSetSpec.explicit(els), n, 10**12)
    want, want_k = brute_banach_sup(els, n, (max(els) + 1) * n)
    assert got == pytest.approx(want, abs=1e-12)
    assert got_k == want_k


def test_banach_smallest_maximizer_vs_exhaustive_oracle(rng):
    # the scan's best candidate is a block start or kmax; k* steps back from
    # it over the level run before it and must be the oracle's smallest k
    H = 1000
    specs = [_random_union(rng, 900) for _ in range(12)]
    specs += [IntegerSetSpec.explicit(sorted(rng.choice(np.arange(1, 901), size=int(rng.randint(1, 30)),
                                                        replace=False).tolist())) for _ in range(8)]
    specs += [IntegerSetSpec.example2(2, 2), FULL,
              # every best window starts below the set's first member
              IntegerSetSpec.explicit([100]), IntegerSetSpec.explicit([300, 301, 700]),
              # for n = 2 the best window is kmax's, [500, 999], and no member starts it
              IntegerSetSpec.explicit([3] + list(range(600, 901)))]
    for spec in specs:
        els = spec.members(1, H).tolist()
        for n in (2, 3, 10, 100):
            got, got_k = banach_window_sup_at(spec, n, H)
            want, want_k = brute_banach_sup(els, n, H)
            assert got_k == want_k
            assert got == pytest.approx(want, abs=1e-12)
    assert banach_window_sup_at(IntegerSetSpec.explicit([100]), 2, H) == (0.01, 51)
    assert banach_window_sup_at(specs[-1], 2, H)[1] == 451


def test_banach_subadditivity_exact(canonical_specs):
    # g(n^j) <= j*g(n), both sides from the same summation scheme
    H = 10**5
    for spec in canonical_specs.values():
        cache = {}

        def g(n, spec=spec, cache=cache):
            if n not in cache:
                cache[n] = banach_window_sup(spec, n, H)
            return cache[n]

        for n in range(2, 21):
            for j in range(1, 5):
                if n**j > H:
                    break
                assert g(n**j) <= j * g(n)


# ---------------------------------------------------------------------------
# lbd_estimate
# ---------------------------------------------------------------------------


def test_lbd_empty():
    assert lbd_estimate(EMPTY, 100, 10**4) == 0.0


def test_lbd_is_grid_min_and_oracle_checked():
    spec = IntegerSetSpec.explicit(list(range(50, 120)) + list(range(1000, 1600)))
    H = 10**4
    rows = lbd_profile(spec, 100, H)
    assert lbd_estimate(spec, 100, H) == min(v for _, _, v in rows)
    els = spec.members(1, H).tolist()
    for n, _, v in rows:
        want, _ = brute_banach_sup(els, n, H)
        assert v == pytest.approx(want / math.log(n), abs=1e-11)


def test_lbd_full_upper_bias():
    # known bias: estimate = 1 + (gamma-ish)/ln(n_max); far above is wrong,
    # below 1 impossible
    v = lbd_estimate(FULL, 1000, 10**6)
    assert 1.0 < v < 1.1


def test_lbd_validation():
    with pytest.raises(DomainError):
        lbd_estimate(FULL, 1, 10**4)


# ---------------------------------------------------------------------------
# bd_estimate
# ---------------------------------------------------------------------------


def test_bd_full():
    assert bd_estimate(FULL, 17, 10**4) == 1.0


def test_bd_even_window_101():
    assert bd_estimate(EVEN, 101, 10**5) == 51 / 102


def test_bd_example2_window_inside_block():
    assert bd_estimate(IntegerSetSpec.example2(2, 2), 100, 10**7) == 1.0


@pytest.mark.parametrize("seed,n", [(5, 3), (6, 10), (7, 25)])
def test_bd_vs_exhaustive_oracle(seed, n):
    rng = np.random.RandomState(seed)
    els = sorted(rng.choice(np.arange(1, 2001), size=400, replace=False).tolist())
    got = bd_estimate(IntegerSetSpec.explicit(els), n, 2000)
    assert got == brute_bd(els, n, 2000)


# ---------------------------------------------------------------------------
# bdm_window_sup
# ---------------------------------------------------------------------------


def test_bdm_empty():
    assert bdm_window_sup(EMPTY, 2, 5, 10**4) == 0.0


def test_bdm_m1_equals_window_count_form(rng):
    for _ in range(10):
        els = sorted(rng.choice(np.arange(1, 3001), size=500, replace=False).tolist())
        spec = IntegerSetSpec.explicit(els)
        n = int(rng.randint(2, 40))
        assert bdm_window_sup(spec, 1, n, 3000) == brute_window_count_max(els, n, 3000)


@pytest.mark.parametrize("n", [2, 3, 10, 40, 100])
def test_bdm_m1_example2_blocks_beyond_int64(n):
    # the top block of example2(2, 4) ends far above int64; windows never
    # reach it, so the count form must still match the brute scan
    spec = IntegerSetSpec.example2(2, 4)
    H = 5000
    els = spec.members(1, H).tolist()
    assert bdm_window_sup(spec, 1, n, H) == brute_window_count_max(els, n, H)


@pytest.mark.parametrize("H", [11, 100, 101, 1000, 1001])
@pytest.mark.parametrize("n", [2, 4, 10])
def test_bdm_m1_even_vs_brute(n, H):
    # every window start counts, not only k = 1 and k = H - n
    els = list(range(2, H + 1, 2))
    assert bdm_window_sup(EVEN, 1, n, H) == brute_window_count_max(els, n, H)


def _random_union(rng, hi):
    comps = []
    for _ in range(int(rng.randint(1, 8))):
        a = int(rng.randint(1, hi + 1))
        comps.append((a, a + int(rng.randint(0, hi // 6 + 1))))
    return IntegerSetSpec.interval_union(IntervalSet(tuple(comps)))


def test_window_count_blocks_equal_explicit(rng):
    # block views and element arrays give the same (value, k*) to bd and to bd_m at m = 1
    specs = [_random_union(rng, 3000) for _ in range(40)]
    specs += [IntegerSetSpec.example2(2, 2), IntegerSetSpec.example2(3, 4), FULL,
              IntegerSetSpec.interval_union(IntervalSet(((5, 10),)))]
    for spec in specs:
        for H in (100, 1001, 3000):
            twin = IntegerSetSpec.explicit(spec.members(1, H).tolist())
            for n in (1, 2, 3, 10, 40, 99):
                assert bd_estimate_at(spec, n, H) == bd_estimate_at(twin, n, H)
                assert bdm_window_sup_at(spec, 1, n, H) == bdm_window_sup_at(twin, 1, n, H)
    one_block = IntegerSetSpec.interval_union(IntervalSet(((5, 10),)))
    assert bdm_window_sup_at(one_block, 1, 10, 100) == (0.6, 5)
    assert bd_estimate_at(one_block, 10, 100) == (6 / 11, 5)
    # the best window starts at kmax = H - n, which is no member
    tail = [1, 95, 96, 97, 98, 99, 100]
    for spec in (IntegerSetSpec.explicit(tail), IntegerSetSpec.interval_union(IntervalSet(((1, 1), (95, 100))))):
        assert bd_estimate_at(spec, 10, 100) == (6 / 11, 90)
        assert bdm_window_sup_at(spec, 1, 10, 100) == (0.6, 90)


def test_window_count_full_huge_horizon_reads_no_members(monkeypatch):
    def no_members(self, lo, hi):
        raise AssertionError("members called")

    monkeypatch.setattr(IntegerSetSpec, "members", no_members)
    H = 10**12
    assert bd_estimate_at(FULL, 10, H) == (1.0, 1)
    assert bdm_window_sup_at(FULL, 1, 10, H) == (1.1, 1)
    assert counting_profile(FULL, "upper", H, [10, H]).checkpoints == ((10, 1.0), (H, 1.0))
    # the weighted functionals sum block views in closed form
    assert banach_window_sup_at(FULL, 10, H) == (pytest.approx(H9, abs=1e-12), 1)
    (_, lo), (_, hi) = log_profile(FULL, H, [10, H]).checkpoints
    assert lo == pytest.approx(brute_harmonic(1, 10) / math.log(10), abs=1e-12)
    assert hi == pytest.approx(1 + 0.5772156649015329 / math.log(H), abs=1e-12)
    # n = 9990 leaves ten windows of about 1e12 terms each; the sum over
    # [(t-1)^3 + 1, (t+n)^3] tends to 3(n+1) from below as t grows
    value, k_star = bdm_window_sup_at(FULL, 3, 9990, H)
    assert k_star == 9**3 + 1
    assert value == pytest.approx(9991 / 9990, abs=1e-6)
    # example2(2, 4) up to 1e12: blocks [2, 4], [65, 130], [2197001, 4394002]
    ex2 = IntegerSetSpec.example2(2, 4)
    assert banach_window_sup_at(ex2, 10, H) == (pytest.approx(1 / 2 + 1 / 3 + 1 / 4, abs=1e-15), 1)
    big = math.log(4394002.5 / 2197000.5)  # H(b) - H(a - 1) to within 1e-14
    (_, lo), (_, hi) = log_profile(ex2, H, [10, H]).checkpoints
    assert lo == pytest.approx((1 / 2 + 1 / 3 + 1 / 4) / math.log(10), abs=1e-15)
    assert hi == pytest.approx((1 / 2 + 1 / 3 + 1 / 4 + brute_harmonic(65, 130) + big) / math.log(H), abs=1e-12)
    value, k_star = bdm_window_sup_at(ex2, 3, 9990, H)
    assert k_star == 1  # only k = 1 reaches the blocks below 65
    small = math.fsum(x ** (-2 / 3) for x in list(range(2, 5)) + list(range(65, 131)))
    big = 3 * (4394002.5 ** (1 / 3) - 2197000.5 ** (1 / 3))  # midpoint rule, error below 1e-12
    assert value == pytest.approx((small + big) / (3 * 9990), abs=1e-15)


@pytest.mark.parametrize("spec", [IntegerSetSpec.squarefree(),
                                  IntegerSetSpec.explicit(range(1, 10**5 + 1, 7))])
def test_weights_cache_slices_match_fresh_builds(spec, monkeypatch):
    def calls(H):
        return (log_profile(spec, H), lbd_profile(spec, 64, H), bdm_window_sup_at(spec, 2, 16, H))

    cache = {}
    monkeypatch.setattr(density_module, "_WEIGHTS_CACHE", cache)
    fresh = {}
    for H in (10**5, 2 * 10**4):
        cache.clear()
        fresh[H] = calls(H)
    cache.clear()
    for H in (10**5, 2 * 10**4, 10**5):
        assert calls(H) == fresh[H]  # bit-identical
    assert sorted(cache) == [(spec, 0.5), (spec, 1.0)]
    assert all(entry[0] == 10**5 for entry in cache.values())


def test_bdm_full_sums_only_the_windows_that_can_win(monkeypatch):
    # 9,900 windows of up to 2e6 terms each; the estimates leave 4 of them
    # to sum exactly, plus the one whole block [1, 1e8] at build
    calls = []
    real = numerics.power_sum_range
    monkeypatch.setattr(numerics, "power_sum_range", lambda a, b, beta: calls.append(b - a + 1) or real(a, b, beta))
    monkeypatch.setattr(density_module, "_WEIGHTS_CACHE", {})
    value, k_star = bdm_window_sup_at(FULL, 2, 100, 10**8)
    assert (value, k_star) == (1.0099999974492373, 97990202)
    assert len(calls) <= 5


@pytest.mark.parametrize("m,n,H", [(2, 3, 4000), (2, 7, 4000), (3, 2, 8000)])
def test_bdm_vs_exhaustive_oracle(m, n, H):
    rng = np.random.RandomState(m * 100 + n)
    els = sorted(rng.choice(np.arange(1, H + 1), size=H // 5, replace=False).tolist())
    got = bdm_window_sup(IntegerSetSpec.explicit(els), m, n, H)
    assert got == pytest.approx(brute_bdm(els, m, n, H), abs=1e-11)


def test_bdm_structured_matches_element_backed(rng):
    # block kinds summed in closed form give the k* and, to rounding, the
    # values of their explicit twins summed from prefix sums
    specs = [_random_union(rng, 10**5) for _ in range(6)]
    specs += [FULL, IntegerSetSpec.example2(2, 4), IntegerSetSpec.example2(3, 3)]
    for spec in specs:
        for H in (3000, 10**5):
            twin = IntegerSetSpec.explicit(spec.members(1, H).tolist())
            for n in (2, 3, 10, 40):
                pairs = [(bdm_window_sup_at(spec, 2, n, H), bdm_window_sup_at(twin, 2, n, H)),
                         (banach_window_sup_at(spec, n, H), banach_window_sup_at(twin, n, H))]
                for (got, got_k), (want, want_k) in pairs:
                    assert got_k == want_k
                    assert got == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# cross-functional invariants
# ---------------------------------------------------------------------------


def test_shift_invariance_of_log_density():
    # |f_A(H) - f_{A+t}(H)| <= sum_{x in A, x <= t} 1/x + t*sum_{x>t} 1/x^2
    # + t/H; the first term dominates when A has small elements, so the
    # discrepancy only becomes small for sets bounded away from the origin.
    H = 10**6
    base = IntegerSetSpec.squarefree().members(1, H)
    ref = log_profile(IntegerSetSpec.squarefree(), H, [H]).final_value
    for t in (1, 17, 100):
        shifted = IntegerSetSpec.explicit((base + t)[base + t <= H].tolist())
        got = log_profile(shifted, H, [H]).final_value
        head = brute_harmonic(1, t) + 1.0 + t / H
        assert abs(got - ref) <= head / math.log(H)


def test_shift_invariance_away_from_origin():
    # for sets with min element >> t the final-checkpoint drift is tiny
    H = 10**6
    base = IntegerSetSpec.squarefree().members(10**5, H)
    ref = log_profile(IntegerSetSpec.explicit(base.tolist()), H, [H]).final_value
    for t in (1, 17, 100):
        shifted = IntegerSetSpec.explicit((base + t)[base + t <= H].tolist())
        got = log_profile(shifted, H, [H]).final_value
        assert abs(got - ref) <= 0.01


def test_monotone_in_subset(rng):
    H = 2 * 10**4
    sup = sorted(rng.choice(np.arange(1, H + 1), size=6000, replace=False).tolist())
    keep = rng.random(len(sup)) < 0.7
    sub = [x for x, k in zip(sup, keep) if k]
    a, b = IntegerSetSpec.explicit(sub), IntegerSetSpec.explicit(sup)
    assert counting_profile(a, "upper", H, [H]).final_value <= counting_profile(b, "upper", H, [H]).final_value
    assert log_profile(a, H, [H]).final_value <= log_profile(b, H, [H]).final_value
    assert banach_window_sup(a, 8, H) <= banach_window_sup(b, 8, H)
    assert bd_estimate(a, 20, H) <= bd_estimate(b, 20, H)
    assert bdm_window_sup(a, 2, 5, H) <= bdm_window_sup(b, 2, 5, H)
    assert lbd_estimate(a, 100, H) <= lbd_estimate(b, 100, H)
