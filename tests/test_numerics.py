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


def _prefix(w):
    return PrefixSums.at_counts(np.arange(len(w) + 1), lambda i: w[i])


def test_prefix_sums_match_fsum():
    w = 1.0 / np.arange(1, 200001, dtype=np.float64)
    ps = _prefix(w)
    assert ps.total == pytest.approx(math.fsum(w.tolist()), abs=1e-14)
    assert ps.range_sum(50000, 150000) == pytest.approx(
        math.fsum(w[50000:150000].tolist()), abs=1e-13
    )


def test_prefix_sums_head_is_a_build_over_the_head():
    rng = np.random.RandomState(3)
    x = np.cumsum(rng.randint(1, 9, size=50000)).astype(np.float64)
    for beta in (1.0, 0.5, 2 / 3):
        w = np.reciprocal(x) if beta == 1.0 else x ** (-beta)
        whole = _prefix(w)
        # a cached build answers a smaller horizon's queries as they are
        for n in (0, 1, 2, 777, 49999, 50000):
            built = _prefix(w[:n])
            assert np.array_equal(whole._s[: n + 1], built._s) and np.array_equal(whole._c[: n + 1], built._c)


def test_prefix_sums_empty_and_singleton():
    assert _prefix(np.empty(0)).total == 0.0
    assert _prefix(np.asarray([0.25])).total == 0.25


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_prefix_sums_chunked_build_matches_one_cumsum(rng, monkeypatch, chunk):
    # the chunked build carries its running sums from chunk to chunk, so
    # both tables keep the bits of one sequential cumulative sum
    monkeypatch.setattr(numerics, "_CHUNK", chunk)
    x = np.cumsum(rng.randint(1, 9, size=2000)).astype(np.float64)
    for w in (np.reciprocal(x), x**-0.5, rng.random_sample(7), np.empty(0)):
        s = np.zeros(len(w) + 1)
        np.cumsum(w, out=s[1:])
        e = (w - (s[1:] - s[:-1])) + (s[:-1] - (s[1:] - (s[1:] - s[:-1])))  # TwoSum error of each step
        c = np.zeros(len(w) + 1)
        np.cumsum(e, out=c[1:])
        asked = []
        built = PrefixSums.at_counts(np.arange(len(w) + 1), lambda i: asked.append(i.stop - i.start) or w[i])
        assert np.array_equal(built._s, s) and np.array_equal(built._c, c)
        assert all(0 < k <= chunk for k in asked) and sum(asked) == len(w)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_prefix_sums_at_counts_extend_with_the_bits_of_a_fresh_pass(rng, monkeypatch, chunk):
    # a table kept at a prefix of the counts carries its pass on from its
    # last row, reading only the weights past that row's count: every row
    # has the bits of a fresh pass, also where counts repeat the last old
    # count or no weight lies past it
    monkeypatch.setattr(numerics, "_CHUNK", chunk)
    x = np.cumsum(rng.randint(1, 9, size=3000)).astype(np.float64)
    for w in (np.reciprocal(x), x**-0.5, x ** (-2 / 3)):
        def weights_of(i, w=w):
            return w[i]

        counts = np.unique(np.concatenate(([0], rng.randint(0, len(w) + 1, size=40))))
        counts = np.sort(np.concatenate((counts, counts[rng.randint(0, len(counts), size=10)])))
        for r in (1, 2, len(counts) // 2, len(counts) - 1, len(counts)):
            old = PrefixSums.at_counts(counts[:r], weights_of)
            read = []
            grown = PrefixSums.at_counts(counts, lambda i: read.append((i.start, i.stop)) or w[i], old)
            fresh = PrefixSums.at_counts(counts, weights_of)
            assert np.array_equal(grown._s.view(np.int64), fresh._s.view(np.int64)), r
            assert np.array_equal(grown._c.view(np.int64), fresh._c.view(np.int64)), r
            assert sum(hi - lo for lo, hi in read) == counts[-1] - counts[r - 1]
            assert all(lo >= counts[r - 1] for lo, _ in read)


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
    # whole blocks are summed in one call at build; a window sums only the
    # parts of the blocks it cuts, one call per side, so its cost does not
    # grow with the blocks it covers
    starts, ends = _random_blocks(rng, 5000, 50, 50)
    calls = []
    real = numerics.power_sums
    monkeypatch.setattr(numerics, "power_sums", lambda a, b, beta: calls.append(b - a + 1) or real(a, b, beta))
    sums = BlockSums(starts, ends, 1.0)
    assert len(calls) == 1 and len(calls[0]) == 5000
    calls.clear()
    lo = np.asarray(starts[:2000], dtype=np.int64)
    sums.window_sums(lo, lo * 2 + 7)
    parts = np.concatenate(calls)
    assert len(calls) <= 2 and len(parts) and parts.max() <= 50
    # windows holding the same members give the same float
    a = sums.window_sums(np.array([starts[9] - 1, starts[9]]), np.array([ends[40], ends[40] + 1]))
    assert a[0] == a[1]


@pytest.mark.parametrize("beta", [1.0, 0.5, 2 / 3, 0.75])
def test_estimate_range_vs_fsum(beta):
    # power_sums: term by term up to EXACT_TERMS terms; past that an exact
    # head below EXACT_TERMS, Euler-Maclaurin above it, or both
    S = numerics.EXACT_TERMS
    for lo in (1, S - 1, S, S + 1, 10**9):
        for length in (1, 2, 255, 256, 257, 10**4, 10**6):
            x = np.arange(lo, lo + length, dtype=np.float64)
            want = math.fsum((np.reciprocal(x) if beta == 1.0 else x ** -beta).tolist())
            got = numerics.power_sums(np.array([lo]), np.array([lo + length - 1]), beta)[0]
            assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("beta", [1.0, 0.5, 2 / 3])
def test_power_sums_bits_do_not_depend_on_position(rng, monkeypatch, beta):
    # a range's float is the same in one long call, in shifted slices of it
    # and alone, also when the term-by-term rows run in chunks of 3: Banach's
    # smallest-k rule and BlockSums' equal windows rely on it
    S = numerics.EXACT_TERMS
    count = 3001
    lo = np.where(rng.rand(count) < 0.5, rng.randint(1, 2 * S, count), rng.randint(1, 10**12, count))
    length = np.where(rng.rand(count) < 0.5, rng.randint(0, S + 40, count), rng.randint(1, 10**7, count))
    lo, hi = lo.astype(np.int64), (lo + length - 1).astype(np.int64)  # a few empty ranges
    whole = numerics.power_sums(lo, hi, beta)
    for shift in (1, 3, 1000):
        assert np.array_equal(numerics.power_sums(lo[shift:], hi[shift:], beta), whole[shift:])
    alone = [numerics.power_sums(lo[i : i + 1], hi[i : i + 1], beta)[0] for i in range(0, count, 29)]
    assert np.array_equal(alone, whole[::29])
    monkeypatch.setattr(numerics, "_ROWS", 3)
    assert np.array_equal(numerics.power_sums(lo, hi, beta), whole)


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
    # values on either side of the term-by-term/Euler-Maclaurin switch agree,
    # at the switch and far past it
    for length in (numerics.EXACT_TERMS, 2**22):
        a = power_sum_range(3, length + 3, 1.0)
        b = power_sum_range(3, length + 2, 1.0) + 1.0 / (length + 3)
        assert a == pytest.approx(b, abs=1e-12)


def test_power_sum_range_far_from_one():
    # reference: mpmath at 50 digits, digamma(hi + 1) - digamma(lo)
    # = 4.1943089912038881280097378524962696e-09
    want = 4.194308991203888e-09
    assert abs(power_sum_range(10**15, 10**15 + 2**22 + 4, 1.0) - want) <= 1e-15 * want


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
