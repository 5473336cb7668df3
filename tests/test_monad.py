import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.errors import DomainError, ValidationError
from densitylab.intset import IntegerSetSpec, IntervalSet, Window
from densitylab.monad import (
    InversionCheckReport,
    RatioCut,
    ScaleCheckReport,
    WindowMeasureReport,
    big_estimate,
    density_minus,
    density_plus,
    equivalent,
    interval_measure,
    inversion_check,
    invert_point,
    local_density_estimate,
    monad_of,
    nu,
    nu_m,
    phi,
    root_shift,
    scale_check,
)

from conftest import random_big_intervals, tiled_big_intervals
from oracles import brute_harmonic

# Frozen oracle values (math.fsum over the stated ranges).
NU_10_100_1E6 = 0.17070735488033095        # (H_100 - H_9)/ln 1e6
SCALE7_DISCREPANCY = 0.0031921462431436236  # |sum[10,1e3] - sum[70,7e3]|/ln 1e6


# ---------------------------------------------------------------------------
# nu / interval_measure / big_estimate
# ---------------------------------------------------------------------------


def test_nu_whole_window():
    w = Window(10**3, 10**6)
    r = nu(w, IntervalSet(((w.lo, w.hi),)))
    assert abs(r.value - 1.0) <= 5 / math.log(10**6)


def test_nu_empty():
    w = Window(1, 10**6)
    assert nu(w, IntervalSet(())).value == 0.0
    assert nu(w, []).value == 0.0


def test_nu_small_interval_frozen():
    w = Window(1, 10**6)
    r = nu(w, IntervalSet(((10, 100),)))
    assert r.value == pytest.approx(NU_10_100_1E6, abs=1e-12)
    assert r.value == pytest.approx(brute_harmonic(10, 100) / math.log(10**6), abs=1e-12)


def test_nu_element_list_matches_interval():
    w = Window(1, 10**4)
    a = nu(w, IntervalSet(((50, 500),)))
    b = nu(w, list(range(50, 501)))
    assert a.value == pytest.approx(b.value, abs=a.error_bound + b.error_bound + 1e-15)


def test_nu_domain_error():
    w = Window(10, 100)
    with pytest.raises(DomainError):
        nu(w, [5])
    with pytest.raises(DomainError):
        nu(w, IntervalSet(((500, 2000),)))


def test_nu_additive_over_disjoint_sets():
    w = Window(1, 10**8)
    s1 = IntervalSet(((10, 99),))
    s2 = IntervalSet(((200, 3000),))
    both = IntervalSet(s1.components + s2.components)
    lhs = nu(w, both)
    rhs1, rhs2 = nu(w, s1), nu(w, s2)
    tol = lhs.error_bound + rhs1.error_bound + rhs2.error_bound + 1e-15
    assert lhs.value == pytest.approx(rhs1.value + rhs2.value, abs=tol)


def test_interval_measure_examples():
    w = Window(10**3, 10**12)
    assert interval_measure(w, w.k, w.k * 10**6) == pytest.approx(0.5, abs=1e-12)
    assert interval_measure(w, 5000, 5000) == 0.0
    assert interval_measure(Window(1, 10**6), 10, 100) == pytest.approx(1 / 6, abs=1e-12)
    with pytest.raises(DomainError):
        interval_measure(w, 1, 2)


def test_interval_measure_agrees_with_nu():
    w = Window(10**3, 10**12)
    a, b = 5 * 10**4, 9 * 10**6
    tol = (2 / a + 2 / w.k) / w.log_span
    assert interval_measure(w, a, b) == pytest.approx(nu(w, IntervalSet(((a, b),))).value, abs=tol)


def test_big_estimate_examples():
    w = Window(1, 10**12)
    s = IntervalSet(((10**3, 10**4),))
    est = big_estimate(w, s)
    assert est == pytest.approx(1 / 12, abs=1e-9)
    assert abs(est - nu(w, s).value) <= 1e-4
    whole = IntervalSet(((w.lo, w.hi),))
    assert big_estimate(w, whole) == pytest.approx(1.0, abs=1e-12)
    two = IntervalSet(((10**2, 10**3), (10**5, 10**6)))
    assert big_estimate(w, two) == pytest.approx(1 / 6, abs=1e-9)


def test_big_estimate_rejects_thin_components():
    w = Window(1, 10**6)
    with pytest.raises(DomainError):
        big_estimate(w, IntervalSet(((100, 150),)))


def test_big_estimate_agreement_random(rng):
    w = Window(1, 10**12)
    for _ in range(25):
        s = random_big_intervals(rng, 10**11, count=int(rng.randint(1, 8)))
        tol = max(math.log(a) - math.log(a - 1) for a, _ in s.components) / math.log(2)
        assert abs(big_estimate(w, s) - nu(w, s).value) <= tol + 1e-9


# ---------------------------------------------------------------------------
# phi / monad_of / equivalent
# ---------------------------------------------------------------------------


def test_phi_endpoints_and_midpoint():
    w = Window(17, 10**6)
    assert phi(w, w.k) == 0.0
    assert phi(w, w.hi) == pytest.approx(1.0, abs=1e-12)
    assert phi(Window(1, 10**6), 10**3) == pytest.approx(0.5, abs=1e-12)


def test_monad_of_examples():
    assert monad_of(Window(1, 10**12), RatioCut(Fraction(10)), 10**4) == (10**3, 10**5)
    assert monad_of(Window(1, 10**6), RatioCut(Fraction(1)), 1234) == (1234, 1234)
    assert monad_of(Window(1, 10**6), RatioCut(Fraction(10)), 2) == (1, 20)


def test_equivalent_examples():
    ten = RatioCut(Fraction(10))
    assert equivalent(ten, 50, 400)
    assert not equivalent(ten, 50, 5000)
    assert equivalent(RatioCut(Fraction(3, 2)), 7, 7)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9),
       st.fractions(min_value=1, max_value=50))
@settings(max_examples=200)
def test_equivalent_symmetric_and_scale_free(a, b, rho):
    cut = RatioCut(rho)
    assert equivalent(cut, a, b) == equivalent(cut, b, a)
    assert equivalent(cut, a, b) == equivalent(cut, 7 * a, 7 * b)


@given(st.integers(min_value=1, max_value=10**8), st.integers(min_value=1, max_value=10**8),
       st.integers(min_value=1, max_value=10**8), st.integers(min_value=1, max_value=10**8),
       st.fractions(min_value=1, max_value=20))
@settings(max_examples=200)
def test_equivalence_congruence_squares_the_cut(a, a2, b, b2, rho):
    # products stay equivalent for the squared cut: exactly why cuts must be
    # closed under multiplication
    cut = RatioCut(rho)
    if equivalent(cut, a, a2) and equivalent(cut, b, b2):
        assert equivalent(cut.squared(), a * b, a2 * b2)


@given(st.integers(min_value=1, max_value=10**11), st.fractions(min_value=1, max_value=100))
@settings(max_examples=200)
def test_monad_interval_property(a, rho):
    w = Window(1, 10**12)
    if not w.contains(a):
        return
    cut = RatioCut(rho)
    lo, hi = monad_of(w, cut, a)
    assert lo <= a <= hi
    for x in {lo, hi, (lo + a) // 2, (a + hi) // 2}:
        assert equivalent(cut, a, x)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_phi_order_isomorphism(a, b):
    w = Window(1, 10**6)
    cut = RatioCut(Fraction(10))
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    if equivalent(cut, a, b):
        assert abs(phi(w, a) - phi(w, b)) <= cut.log_rho / w.log_span * (1 + 1e-12)
    else:
        assert phi(w, a) < phi(w, b)


# ---------------------------------------------------------------------------
# scale_check / inversion
# ---------------------------------------------------------------------------


def test_scale_check_identity():
    w = Window(1, 10**6)
    r = scale_check(w, IntervalSet(((10, 10**3),)), 1)
    assert r.discrepancy == 0.0


def test_scale_check_large_scale():
    w = Window(1, 10**12)
    r = scale_check(w, IntervalSet(((10**3, 10**6),)), 10**3)
    assert r.nu_source == pytest.approx(0.25, abs=2e-4)
    assert r.nu_image == pytest.approx(0.25, abs=2e-4)
    assert r.discrepancy < 1e-4
    assert r.discrepancy <= r.bound


def test_scale_check_small_start_frozen():
    # fsum oracle puts the s=7 discrepancy of [10, 10^3] at 3.19e-3, inside
    # the stated bound 3/(10 ln N) + 1e-6
    w = Window(1, 10**6)
    r = scale_check(w, IntervalSet(((10, 10**3),)), 7)
    assert r.discrepancy == pytest.approx(SCALE7_DISCREPANCY, abs=1e-9)
    assert r.discrepancy <= r.bound


def test_scale_check_random_within_bound(rng):
    w = Window(1, 10**12)
    for _ in range(20):
        s = random_big_intervals(rng, 10**9, count=int(rng.randint(1, 6)))
        scale = int(rng.randint(2, 1000))
        r = scale_check(w, s, scale)
        assert r.discrepancy <= r.bound


def test_scale_invariance_of_interval_measure(rng):
    w = Window(1, 10**12)
    for _ in range(200):
        a = int(rng.randint(10**3, 10**6))
        b = a + int(rng.randint(0, 10**6))
        c = int(rng.randint(1, 10**4))
        va = nu(w, IntervalSet(((a, b),))).value
        vb = nu(w, IntervalSet(((a * c, b * c),))).value
        assert abs(va - vb) <= 10 / (a * w.log_span)


def test_invert_point():
    assert invert_point(100, 7) == 14
    assert invert_point(100, 14) == 7
    assert invert_point(10**6, 1) == 10**6


def test_inversion_check_symmetric_block():
    w = Window(1, 10**12)
    r = inversion_check(w, IntervalSet(((10**3, 10**4),)))
    assert r.nu_set == pytest.approx(1 / 12, abs=1e-4)
    assert r.nu_inverse == pytest.approx(1 / 12, abs=1e-4)
    assert r.discrepancy < 1e-4
    assert r.discrepancy <= r.bound


def test_inversion_check_ratio_block():
    w = Window(1, 10**12)
    a = 10**4
    r = inversion_check(w, IntervalSet(((a, int(2.5 * a)),)))
    assert r.discrepancy < 1e-3
    assert r.discrepancy <= r.bound


def test_inversion_check_mirrored_pair_is_fixed_point():
    # S = {[1e3,1e4], [1e8,1e9]} maps onto itself under u -> floor(N/u)
    w = Window(1, 10**12)
    s = IntervalSet(((10**3, 10**4), (10**8, 10**9)))
    r = inversion_check(w, s, margin=1000)
    assert r.nu_set == r.nu_inverse  # identical underlying set, exact
    assert r.discrepancy == 0.0


def test_inversion_check_preconditions():
    w = Window(1, 10**12)
    with pytest.raises(DomainError):
        inversion_check(Window(2, 10**12), IntervalSet(((10**3, 10**4),)))
    with pytest.raises(DomainError):
        inversion_check(w, IntervalSet(((10**3, 10**4),)), margin=10)
    with pytest.raises(DomainError):
        inversion_check(w, IntervalSet(((10**10, 5 * 10**10),)))


# ---------------------------------------------------------------------------
# local densities
# ---------------------------------------------------------------------------


def test_density_plus_full_window():
    w = Window(1, 10**12)
    x_set = IntervalSet(((1, 10**12),))
    rows = density_plus(w, RatioCut(Fraction(10)), x_set, 10**4, [100.0, 1000.0])
    for _, v in rows:
        assert v == pytest.approx(1.0, abs=0.01)


def test_density_plus_interior_vs_edge():
    w = Window(1, 10**12)
    x_set = IntervalSet(((1, 10**6),))  # [k, k*sqrt(N)]
    deep = density_plus(w, RatioCut(Fraction(10)), x_set, 10**3, [100.0])
    assert deep[0][1] == pytest.approx(1.0, abs=0.01)
    edge = density_plus(w, RatioCut(Fraction(10)), x_set, 10**6, [100.0])
    assert edge[0][1] <= 1e-5


def test_density_minus_mirrors():
    w = Window(1, 10**12)
    x_set = IntervalSet(((10**6, 10**12),))  # top half
    rows = density_minus(w, RatioCut(Fraction(10)), x_set, 10**9, [100.0])
    assert rows[0][1] == pytest.approx(1.0, abs=0.01)
    rows_edge = density_minus(w, RatioCut(Fraction(10)), x_set, 10**6, [100.0])
    assert rows_edge[0][1] <= 1e-5


def test_density_plus_grid_validation():
    w = Window(1, 10**6)
    x_set = IntervalSet(((1, 10**6),))
    with pytest.raises(DomainError):
        density_plus(w, RatioCut(Fraction(10)), x_set, 10**5, [100.0])  # exceeds window
    with pytest.raises(DomainError):
        density_plus(w, RatioCut(Fraction(10)), x_set, 10, [5.0])  # r <= rho


def test_local_density_estimate_is_min():
    assert local_density_estimate([(10.0, 0.5), (100.0, 0.3)]) == 0.3


def test_lebesgue_density_points(rng):
    # Almost every point of a union of big tiled intervals is a density
    # point: sampled log-uniformly from X below the window cap, the local
    # measure at r = 100 exceeds 0.99 except for boundary mass
    # sum_i 2 ln(r * rho)/ln N, which the tiling keeps tiny.
    n_window = 10**12
    w = Window(1, n_window)
    cut = RatioCut(Fraction(10))
    r = 100.0
    x_set = tiled_big_intervals(rng, n_window)
    sample_from = x_set.clip(1, n_window // 101)
    logs = [(math.log(a), math.log(b)) for a, b in sample_from.components]
    weights = np.asarray([hi - lo for lo, hi in logs])
    weights = weights / weights.sum()
    hits = 0
    trials = 200
    for _ in range(trials):
        i = int(rng.choice(len(logs), p=weights))
        u = rng.uniform(*logs[i])
        x = min(max(int(math.exp(u)), sample_from.components[i][0]), sample_from.components[i][1])
        rows = density_plus(w, cut, x_set, x, [r])
        if local_density_estimate(rows) > 0.99:
            hits += 1
    assert hits / trials >= 0.95


# ---------------------------------------------------------------------------
# root-coordinate measures
# ---------------------------------------------------------------------------


def test_nu_m_counting_reduction():
    # m = 1: weights are 1, so the measure is count/Nroot
    s = list(range(50, 150))
    assert nu_m(10**3, 1, s, 10) == len(s) / 10**3


def test_nu_m_interval_example():
    v = nu_m(10**3, 2, IntervalSet(((10**4, 10**6),)), 10**4)
    assert v == pytest.approx(0.9, abs=(2 / 100 + 2 / 2) / 10**3)


def test_nu_m_empty_and_domain():
    assert nu_m(10**3, 2, [], 10**4) == 0.0
    with pytest.raises(DomainError):
        nu_m(10, 2, [5], 100)


def test_nu_m_interval_form_agreement(rng):
    for _ in range(50):
        m = int(rng.randint(1, 5))
        n_root = int(rng.randint(10, 1000))
        k = int(rng.randint(1, 10**6))
        top = (math.ceil(k ** (1 / m)) + n_root) ** m
        a = int(rng.randint(k, max(k + 1, top // 2)))
        b = int(rng.randint(a, top))
        v = nu_m(n_root, m, IntervalSet(((a, b),)), k)
        closed = (b ** (1 / m) - a ** (1 / m)) / n_root
        assert abs(v - closed) <= (2 / a ** (1 / m) + 2 / m) / n_root


def test_root_shift_examples():
    assert root_shift(100, 5, 2) == 225
    assert root_shift(101, 0, 2) == 121
    assert root_shift(8, 1, 3) == 27


def test_root_shift_measure_invariance(rng):
    for _ in range(50):
        m = int(rng.randint(1, 4))
        n_root = int(rng.randint(50, 500))
        k = int(rng.randint(1, 10**4))
        top = (math.ceil(k ** (1 / m)) + n_root) ** m
        a = int(rng.randint(k, max(k + 1, top // 3)))
        b = int(rng.randint(a, max(a + 1, top // 2)))
        c = int(rng.randint(0, n_root // 4))
        sa, sb = root_shift(a, c, m), root_shift(b, c, m)
        if sb > top:
            continue
        va = nu_m(n_root, m, IntervalSet(((a, b),)), k)
        vb = nu_m(n_root, m, IntervalSet(((sa, sb),)), k)
        assert abs(va - vb) <= (4 / a ** (1 / m) + 4 / m) / n_root


def test_reports_are_values():
    w = Window(1, 10**6)
    report = WindowMeasureReport(w, value=0.5, error_bound=1e-9)
    same = WindowMeasureReport(Window(1, 10**6), 0.5, 1e-9)
    assert report == same and hash(report) == hash(same) and report != WindowMeasureReport(w, 0.25, 1e-9)
    assert report.to_json() == {"window": {"k": 1, "N": 10**6}, "value": 0.5, "error_bound": 1e-09}
    assert repr(report) == "WindowMeasureReport(window=Window(k=1, N=1000000), value=0.5, error_bound=1e-09)"
    with pytest.raises(ValidationError, match="error bound must be nonnegative"):
        WindowMeasureReport(w, 0.5, -1.0)
    with pytest.raises(ValidationError, match=r"measure outside \[0, 1 \+ 5/ln N\]"):
        WindowMeasureReport(w, 2.0, 0.0)
    scale = ScaleCheckReport(0.25, nu_image=0.25, discrepancy=0.0, bound=1e-3)
    inversion = InversionCheckReport(0.25, nu_inverse=0.25, discrepancy=0.0, bound=1e-3)
    assert scale == ScaleCheckReport(0.25, 0.25, 0.0, 1e-3) and scale != inversion
    assert inversion == InversionCheckReport(nu_set=0.25, nu_inverse=0.25, discrepancy=0.0, bound=1e-3)
    for value in (report, scale, inversion):
        with pytest.raises(AttributeError):
            value.bound = 0.0
