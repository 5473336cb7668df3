import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import numerics
from densitylab.numerics import (
    BlockSums,
    PrefixSums,
    ceil_nth_root,
    floor_nth_root,
    geometric_grid,
    harmonic_number,
    harmonic_range,
    power_sum_range,
)

from oracles import brute_harmonic


def test_prefix_sums_match_fsum():
    w = 1.0 / np.arange(1, 200001, dtype=np.float64)
    ps = PrefixSums(w)
    assert ps.total == pytest.approx(math.fsum(w.tolist()), abs=1e-14)
    assert ps.range_sum(50000, 150000) == pytest.approx(
        math.fsum(w[50000:150000].tolist()), abs=1e-13
    )


def test_prefix_sums_head_is_a_build_over_the_head():
    rng = np.random.RandomState(3)
    x = np.cumsum(rng.randint(1, 9, size=50000)).astype(np.float64)
    for beta in (1.0, 0.5, 2 / 3):
        w = np.reciprocal(x) if beta == 1.0 else x ** (-beta)
        whole = PrefixSums(w)
        # a cached build answers a smaller horizon's queries as they are
        for n in (0, 1, 2, 777, 49999, 50000):
            built = PrefixSums(w[:n])
            assert np.array_equal(whole._s[: n + 1], built._s) and np.array_equal(whole._c[: n + 1], built._c)


def test_prefix_sums_empty_and_singleton():
    assert PrefixSums(np.empty(0)).total == 0.0
    assert PrefixSums(np.asarray([0.25])).total == 0.25


def _random_blocks(rng, count, gap, length):
    starts, ends, x = [], [], 0
    for _ in range(count):
        x += int(rng.randint(2, gap + 2))  # a non-member between blocks
        starts.append(x)
        x += int(rng.randint(0, length))
        ends.append(x)
    return starts, ends


def test_block_sums_vs_fsum_oracle(rng):
    # windows inside one block, in a gap, across many blocks, past either end
    starts, ends = _random_blocks(rng, 60, 40, 30)
    members = [x for a, b in zip(starts, ends) for x in range(a, b + 1)]
    lo = rng.randint(1, ends[-1] + 20, size=400)
    hi = lo + rng.randint(0, rng.choice([3, 40, 3000], size=400))
    for beta in (1.0, 0.5, 2 / 3):
        got = BlockSums(starts, ends, beta).window_sums(lo, hi)
        for a, b, g in zip(lo.tolist(), hi.tolist(), got):
            want = math.fsum(x ** -beta for x in members if a <= x <= b)
            assert g == pytest.approx(want, rel=1e-13, abs=1e-300)
    assert BlockSums([], [], 1.0).window_sums(np.array([1]), np.array([5])).tolist() == [0.0]


def test_block_sums_cut_at_most_two_blocks_per_window(rng, monkeypatch):
    # whole blocks are summed once at build; a window sums only the parts of
    # the blocks it cuts, so its cost does not grow with the blocks it covers
    starts, ends = _random_blocks(rng, 5000, 50, 50)
    calls = []
    real = numerics.power_sum_range
    monkeypatch.setattr(numerics, "power_sum_range", lambda a, b, beta: calls.append(b - a + 1) or real(a, b, beta))
    sums = BlockSums(starts, ends, 1.0)
    assert len(calls) == 5000
    calls.clear()
    lo = np.asarray(starts[:2000], dtype=np.int64)
    sums.window_sums(lo, lo * 2 + 7)
    assert len(calls) <= 2 * 2000 and max(calls) <= 50
    # windows holding the same members give the same float
    a = sums.window_sums(np.array([starts[9] - 1, starts[9]]), np.array([ends[40], ends[40] + 1]))
    assert a[0] == a[1]


def _window_cases(rng):
    """(starts, ends, lo, hi) cases for window_max: random unions, cut parts
    below, across and above the estimate's switch point, exact ties, windows
    in gaps, windows that are all zero and an empty union."""
    S = numerics._EST_SWITCH
    cases = []
    starts, ends = _random_blocks(rng, 60, 40, 30)
    for span in (3, 40, 3000):
        lo = rng.randint(1, ends[-1] + 20, size=300)
        cases.append((starts, ends, lo, lo + rng.randint(0, span, size=300)))
    starts, ends = [S - 60, S + 40, 4 * S, 10 * S], [S + 20, 3 * S, 8 * S, 10**6]
    lo = np.arange(1, 12 * S, 7)
    for span in (5, 300, 5000, 10**6):
        cases.append((starts, ends, lo, lo + span))
    # ties: the best members come first at windows 2 and 3 (the same window)
    # and again at 5, whose lo lies in the gap below the block
    lo = np.array([S + 40, S + 500, S - 60, S - 60, 5 * S, S - 61, S - 50])
    hi = np.array([3 * S, 3 * S + 2, 3 * S, 3 * S, 8 * S, 3 * S + 1, 3 * S])
    cases.append((starts, ends, lo, hi))
    gaps = np.array([S + 21, S + 30, 3 * S + 1, 9 * S])
    cases.append((starts, ends, gaps, gaps + np.array([0, 19, 100, S - 1])))  # all zero
    cases.append(([], [], np.array([1, 5]), np.array([5, 9])))
    # near ties in one large block: windows [lo, 2 lo] whose values differ
    # by less than the rounding of power_sum_range's Euler-Maclaurin tail
    lo = 10**15 + rng.randint(0, 10**9, size=100).astype(np.int64) * 10**6
    cases.append(([1], [10**17], lo, 2 * lo))
    # ... and windows just past EXACT_RANGE_LIMIT terms far out, whose tail
    # rounding is far above WINDOW_MAX_DELTA relative
    lo = 10**15 + rng.randint(0, 10**6, size=100).astype(np.int64)
    cases.append(([1], [10**17], lo, lo + numerics.EXACT_RANGE_LIMIT + 4))
    return cases


@pytest.mark.parametrize("beta", [1.0, 0.5, 2 / 3])
def test_block_sums_window_max_is_argmax_of_window_sums(rng, beta):
    for starts, ends, lo, hi in _window_cases(rng):
        lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
        sums = BlockSums(starts, ends, beta)
        full = sums.window_sums(lo, hi)
        i = int(np.argmax(full))
        value, j = sums.window_max(lo, hi)
        assert (float(value).hex(), j) == (float(full[i]).hex(), i)


@pytest.mark.parametrize("beta", [1.0, 0.5, 2 / 3, 0.75])
def test_estimate_range_vs_fsum(beta):
    # head below the switch point, Euler-Maclaurin above it, and both
    S = numerics._EST_SWITCH
    for lo in (1, S - 1, S, S + 1, 10**9):
        for length in (1, 2, 255, 256, 10**4, 10**6):
            x = np.arange(lo, lo + length, dtype=np.float64)
            want = math.fsum((np.reciprocal(x) if beta == 1.0 else x ** -beta).tolist())
            got = numerics._estimate_range(np.array([lo]), np.array([lo + length - 1]), beta)[0]
            assert abs(got - want) <= 1e-2 * numerics.WINDOW_MAX_DELTA * want


@pytest.mark.parametrize("lo,hi,beta", [
    (1, 10**6, 1.0),
    (1000, 5 * 10**6, 1.0),
    (7, 10**6, 0.5),
    (123, 6 * 10**6, 0.75),
    (1, 100, 0.0),
])
def test_power_sum_range_vs_exact(lo, hi, beta):
    x = np.arange(lo, hi + 1, dtype=np.float64)
    exact = float(np.sum(x ** (-beta))) if beta else float(hi - lo + 1)
    assert power_sum_range(lo, hi, beta) == pytest.approx(exact, rel=1e-12)


def test_harmonic_vs_fsum():
    assert harmonic_number(9) == pytest.approx(brute_harmonic(1, 9), abs=1e-14)
    assert harmonic_range(10, 100) == pytest.approx(brute_harmonic(10, 100), abs=1e-13)
    assert harmonic_range(5, 4) == 0.0


def test_power_sum_range_crosses_em_cutoff_consistently():
    # values on either side of the exact/Euler-Maclaurin switch agree
    a = power_sum_range(3, 2**22 + 2, 1.0)
    b = power_sum_range(3, 2**22 + 1, 1.0) + 1.0 / (2**22 + 2)
    assert a == pytest.approx(b, abs=1e-12)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_integer_roots_exact(a, m):
    r = floor_nth_root(a, m)
    assert r**m <= a
    assert (r + 1) ** m > a
    c = ceil_nth_root(a, m)
    assert c**m >= a
    if c:
        assert (c - 1) ** m < a


def test_geometric_grid_prefix_and_monotone():
    grid = geometric_grid(2, 1000)
    assert grid[:7] == [2, 3, 4, 6, 8, 11, 16]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[-1] <= 1000
    with pytest.raises(ValueError):
        geometric_grid(2, 10, ratio=1.0)
