import math
import tracemalloc

import numpy as np
import pytest

from densitylab import density as density_module
from densitylab import intset, numerics
from densitylab.errors import DomainError, ValidationError
from densitylab.intset import ElementView, IntegerSetSpec, IntervalSet
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

from conftest import random_explicit
from oracles import (
    brute_banach_sup,
    brute_bd,
    brute_bd_at,
    brute_bdm,
    brute_count_extremes,
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


def test_count_extremes_vs_brute(rng):
    # block views read their block ends and the members below each block
    # start, element views their members: both give the brute float bits
    # over every n up to H, blocks starting at 1 and cut by H included
    specs = [_random_union(rng, 3000) for _ in range(30)]
    specs += [IntegerSetSpec.interval_union(IntervalSet(((1, 5), (9, 9), (40, 70)))),
              IntegerSetSpec.example2(2, 2), IntegerSetSpec.example2(3, 4), FULL, EVEN,
              random_explicit(rng, 10**4, 0.05)]
    for spec in specs:
        for H in (1, 64, 3000, 10**4):
            members = [x for x in range(1, H + 1) if spec.contains(x)]
            assert count_extremes(spec, H) == brute_count_extremes(members, H), (spec, H)


def test_count_extremes_blocks_never_materialize():
    # past the materialization cap: one block, or one far from 1
    assert count_extremes(FULL, 10**9) == (1.0, 1.0)
    far = IntegerSetSpec.interval_union(IntervalSet(((10**12, 2 * 10**12),)))
    assert count_extremes(far, 4 * 10**12) == (0.0, (10**12 + 1) / (2 * 10**12))


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


def _every_candidate(view, kmax, n):
    """The Banach scan without blocks or skips: (value, k) of the first
    maximum of window_sums over every block start <= kmax and kmax itself."""
    starts = view.starts
    cands = starts[: np.searchsorted(starts, kmax, side="right")]
    if not (len(cands) and cands[-1] == kmax):
        cands = np.append(cands, kmax)
    values = view.window_sums(cands, cands * n - 1, 1.0)
    i = int(np.argmax(values))
    return float(values[i]).hex(), int(cands[i])


def _scan_cases(rng):
    """(spec, n, horizon, brute) for the Banach block scan: brute says
    whether ``brute_banach_sup`` runs in time."""
    cases = []
    for _ in range(40):
        H = int(rng.randint(4, 400))
        els = (np.flatnonzero(rng.random_sample(H) < rng.choice([0.05, 0.3, 0.8])) + 1).tolist()
        cases += [(els, n, H) for n in sorted({2, 3, int(rng.randint(2, H + 1))})]
    for _ in range(6):
        H = int(rng.randint(500, 4000))
        els = (np.flatnonzero(rng.random_sample(H) < rng.choice([0.05, 0.3, 0.7])) + 1).tolist()
        cases += [(els, n, H) for n in (2, 3, int(rng.randint(4, 60)))]
    # rising density, P(x in A) = x/H: windows rise with k and nothing is skipped
    rising = (np.flatnonzero(rng.random_sample(3000) < np.arange(1, 3001) / 3000) + 1).tolist()
    cases += [(rising, n, 3000) for n in (2, 3, 10)]
    # the maximum in a late block: sparse members, then a full run from 2400
    late = sorted(set((np.flatnonzero(rng.random_sample(2400) < 0.02) + 1).tolist()) | set(range(2400, 2700)))
    cases += [(late, n, 6000) for n in (2, 3, 10)]
    cases += [
        # 1/4 = 1/10 + 1/12 + 1/15: members 4 and 10 tie, in two blocks of 1
        ([4, 10, 12, 15], 2, 40),
        ([32, 80, 96, 120], 2, 320),
        # the same tie, and every later window sums to less
        ([4, 10, 12, 15] + list(range(1000, 4000, 97)), 2, 8000),
        # kmax = 8 is no member and its window [8, 16) ties member 4's
        ([4, 10, 12, 15], 2, 15),
        # kmax = 16 is a member: its own window ties its candidate
        ([8, 16], 2, 32),
        # kmax = 500's window [500, 999] wins over every member
        ([3] + list(range(600, 901)), 2, 1000),
        # every member is above kmax: only kmax's window is scanned
        ([96, 97, 99], 2, 100),
    ]
    cases = [(IntegerSetSpec.explicit(els), n, H, True) for els, n, H in cases]
    # members near 2**61: weights near 4e-19, so the margin's absolute part,
    # 8 (r u)**2 S, outweighs its relative part by far
    for scale in (2**10, 2**41):  # members within 2**30 of 2**61, or spread up to 2**62
        big = np.unique(2**61 + rng.randint(0, 2**20, size=600) * scale + rng.randint(0, 5, size=600)).tolist()
        cases += [(IntegerSetSpec.explicit(big), n, 2**63 - 1, False) for n in (2, 3)]
    big = [1, 2, 3] + np.unique(2**61 + rng.randint(0, 2**40, size=400)).tolist()
    cases += [(IntegerSetSpec.explicit(big), 2, 2**63 - 1, False)]
    # block views: unions of 4 to 9 blocks, example2 (3 blocks up to 5000),
    # and a union of 1,500 blocks
    for _ in range(12):
        H = int(rng.randint(100, 400))
        starts = np.sort(rng.choice(np.arange(1, H // 10), size=int(rng.randint(4, 10)), replace=False)) * 10
        spec = IntegerSetSpec.interval_union(IntervalSet(tuple((a, a + int(rng.randint(0, 9))) for a in starts)))
        assert len(spec.view(H).starts) > 3
        cases += [(spec, n, H, True) for n in sorted({2, 3, int(rng.randint(2, H))})]
    cases += [(IntegerSetSpec.example2(2, 4), n, H, True) for n in (2, 3, 10, 40) for H in (200, 5000)]
    evens = np.sort(rng.choice(np.arange(1, 3001), size=1500, replace=False)) * 2
    many = IntegerSetSpec.interval_union(IntervalSet(tuple((a, a) for a in evens.tolist())))
    assert len(many.view(6000).starts) == 1500  # more blocks than _FIRST_BLOCK
    cases += [(many, n, 6000, True) for n in (2, 3, 10)]
    return cases


@pytest.mark.parametrize("size", [1, 3, 1 << 16])
def test_banach_chunked_scan_vs_oracle(rng, monkeypatch, size):
    # blocks of `size` candidates: the scan skips a block only when its
    # enclosing window rules it out, keeps each block's first maximum (the
    # last block ends with kmax) and lets a later block replace it only when
    # strictly larger: the same (value, k) as the scan of every candidate,
    # bit for bit, over members or block starts, and the brute scan's k*
    cases = _scan_cases(rng)
    want = [banach_window_sup_at(spec, n, H) for spec, n, H, _ in cases]
    bd_want = [bd_estimate_at(spec, n, H) for spec, n, H, _ in cases if spec.kind != "explicit"]
    monkeypatch.setattr(density_module, "_FIRST_BLOCK", size)
    monkeypatch.setattr(density_module, "_FIRST_WINDOWS", size)
    monkeypatch.setattr(density_module, "_CHUNK", size)
    monkeypatch.setattr(intset, "_VIEWS", {})
    bd_got = []
    for (spec, n, H, brute), one_scan in zip(cases, want):
        view, kmax = spec.view(H), (H + 1) // n
        value, k = density_module._window_max(view, kmax, lambda k: k * n - 1, sums=True)
        assert (float(value).hex(), k) == _every_candidate(view, kmax, n), (spec, n, H)
        got = banach_window_sup_at(spec, n, H)
        assert got == one_scan and got[0] == value, (spec, n, H)
        els = spec.members(1, H).tolist() if brute else None
        if brute:
            best, k_star = brute_banach_sup(els, n, H)
            assert got[1] == k_star and got[0] == pytest.approx(best, abs=1e-12), (spec, n, H)
        if spec.kind != "explicit":
            bd_got.append(bd_estimate_at(spec, n, H))
            best, k_star = brute_bd_at(els, n, H)
            assert bd_got[-1] == (best / (n + 1), k_star), (spec, n, H)
    assert bd_got == bd_want
    assert banach_window_sup_at(IntegerSetSpec.explicit([4, 10, 12, 15]), 2, 40) == (0.25, 3)
    assert banach_window_sup_at(IntegerSetSpec.explicit([4, 10, 12, 15]), 2, 15) == (0.25, 3)
    assert banach_window_sup_at(IntegerSetSpec.explicit([4, 10, 12, 15] + list(range(1000, 4000, 97))), 2,
                                8000) == (0.25, 3)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("stride", [1, 3, 16])
def test_strided_reads_have_the_bits_of_a_row_per_member(rng, monkeypatch, chunk, stride):
    # an element view keeps its reciprocal sums at every stride-th member
    # count and carries any other row on from the kept row below it: in
    # one pass for rows close together, each on its own for rows far apart,
    # in Python floats for the scan's enclosing windows. Every read has the
    # bits of a table with a row per member, on an empty view, on one
    # shorter than a stride and on a sieve view that grew, whose extended
    # table equals a fresh build; the Banach scans agree with the brute scan
    monkeypatch.setattr(numerics, "_CHUNK", chunk)
    monkeypatch.setattr(numerics, "STRIDE", stride)
    views = {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    sf = IntegerSetSpec.squarefree()
    sf.view(1000)
    grown = sf.view(1000).sums_table(1.0)
    for spec, H in ((EMPTY, 100), (IntegerSetSpec.explicit([3, 5, 8, 13, 21]), 30), (sf, 5000)):
        view = spec.view(H)
        assert spec is not sf or view._tables[1.0][1] is grown  # carried over from the view at 1000
        a = view.starts
        table = view.sums_table(1.0)
        full = numerics.PrefixSums.at_counts(np.arange(len(a) + 1), lambda i: 1.0 / a[i].astype(np.float64))
        rows = sorted({r for r in (0, 1, 15, 16, 17, len(a) - 1, len(a)) if 0 <= r <= len(a)})
        for r in rows:  # one row each, then pairs far apart, then all at once in reverse
            assert density_module._row(table, a, r) == (full._s[r], full._c[r]), (spec, r)
        for ask in [[r] for r in rows] + [[0, r] for r in rows] + [rows[::-1]]:
            s, c = table.carried(np.array(ask, dtype=np.int64), intset._member_weights(a, 1.0))
            assert np.array_equal(s.view(np.int64), full._s[ask].view(np.int64)), (spec, ask)
            assert np.array_equal(c.view(np.int64), full._c[ask].view(np.int64)), (spec, ask)
        assert len(table._s) == len(a) // stride + 1
    # counts spread far apart carry a (depth, counts) array on, depth - 1
    # being the most weights past a kept row: every depth up to STRIDE has
    # the bits of the full table (a is sf's members up to 5000)
    for depth in range(1, stride + 1):
        ask = rng.randint(0, len(a) // stride, size=64) * stride + rng.randint(0, depth, size=64)
        ask[:2] = depth - 1, (len(a) // stride - 1) * stride + depth - 1
        assert ask.max() - ask.min() > stride * len(ask)  # not one sorted pass
        s, c = table.carried(ask, intset._member_weights(a, 1.0))
        assert np.array_equal(s.view(np.int64), full._s[ask].view(np.int64)), depth
        assert np.array_equal(c.view(np.int64), full._c[ask].view(np.int64)), depth
    views.clear()
    fresh = sf.view(5000).sums_table(1.0)
    assert np.array_equal(table._s.view(np.int64), fresh._s.view(np.int64))  # the table extended to 5000
    assert np.array_equal(table._c.view(np.int64), fresh._c.view(np.int64))
    els = (np.flatnonzero(rng.random_sample(3000) < 0.2) + 1).tolist()
    for spec, H in ((IntegerSetSpec.explicit(els), 3000), (sf, 3000), (IntegerSetSpec.primes(), 4000)):
        members = spec.members(1, H).tolist()
        for n in (2, 3, 10, 97):
            got, got_k = banach_window_sup_at(spec, n, H)
            best, k_star = brute_banach_sup(members, n, H)
            assert got_k == k_star and got == pytest.approx(best, abs=1e-12), (spec, n)


def test_banach_tops_stay_below_2_63_where_kmax_n_reaches_it(monkeypatch):
    # at H = 2**63 - 1 and n = 2**59, kmax * n = 2**63: the tops
    # (k - 1) n + (n - 1) stay in int64 on the scalar and the array path,
    # where k n - 1 wrapped twice (scalars raise under errstate), and the
    # scan agrees with the brute scan of every k <= kmax = 16
    H, n = 2**63 - 1, 2**59
    els = [1, 3, 7, 2**59 - 1, 2**60 + 7, 2**62, 3 * 2**61, 2**63 - 2]
    seen, window_max = [], density_module._window_max
    monkeypatch.setattr(density_module, "_window_max", lambda view, kmax, tops, sums=False: (
        seen.append((kmax, tops)) or window_max(view, kmax, tops, sums)))
    got = banach_window_sup_at(IntegerSetSpec.explicit(els), n, H)
    [(kmax, tops)] = seen
    assert kmax * n == 2**63
    ks = np.arange(1, kmax + 1, dtype=np.int64)
    with np.errstate(over="raise"):
        assert tops(np.int64(kmax)) == tops(kmax) == 2**63 - 1
        assert tops(ks).tolist() == [k * n - 1 for k in range(1, kmax + 1)]
    best, k_star = brute_banach_sup(els, n, H)
    assert got[1] == k_star and got[0] == pytest.approx(best, abs=1e-12)


def test_banach_grid_reads_few_window_rows(monkeypatch):
    # squarefree's windows peak at k = 1 and later blocks sum below the
    # best, so the enclosing windows, read at kept rows, rule out almost
    # every block: a grid of scans over 607,926 members reads under |A|/512
    # windows (two rows each) and carries its sums over under |A|/32
    # weights (a full scan of every candidate reads about 1.7 |A| windows)
    spec, H = IntegerSetSpec.squarefree(), 10**6
    monkeypatch.setattr(intset, "_VIEWS", {})
    size = len(spec.view(H).starts)
    rows, weights, carried = [], [], numerics.PrefixSums.carried

    def spy_carried(table, counts, weights_of):
        rows.append(len(counts))
        return carried(table, counts, lambda i: weights.append(np.size(i)) or weights_of(i))

    monkeypatch.setattr(numerics.PrefixSums, "carried", spy_carried)
    lbd_profile(spec, 1000, H)
    assert rows and sum(rows) / 2 <= size / 512
    assert sum(weights) <= size / 32


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


def test_domain_edges_hold_at_equality():
    # each documented limit is reached exactly: the value at the edge is the
    # oracle's and one step past it raises
    els, H = [3, 4, 10, 11], 12
    spec = IntegerSetSpec.explicit(els)
    assert default_checkpoints(2) == [2]
    with pytest.raises(ValidationError):
        default_checkpoints(1)
    # one member: no gap between members to take a minimum over
    assert count_extremes(IntegerSetSpec.explicit([5]), 20) == (0.0, 0.2)
    assert count_extremes(IntegerSetSpec.explicit([1]), 10) == (0.1, 1.0)
    assert banach_window_sup_at(spec, H, H) == brute_banach_sup(els, H, H) == (0.7742424242424242, 1)
    with pytest.raises(DomainError):
        banach_window_sup_at(spec, H + 1, H)
    for n, k_star, v in lbd_profile(spec, H, H):
        value, k = brute_banach_sup(els, n, H)
        assert k_star == k and v == pytest.approx(value / math.log(n), abs=1e-12)
    with pytest.raises(DomainError):
        lbd_profile(spec, H + 1, H)
    best, k_star = brute_bd_at(els, H - 1, H)
    assert bd_estimate_at(spec, H - 1, H) == (best / H, k_star) == (1 / 3, 1)
    with pytest.raises(DomainError):
        bd_estimate_at(spec, H, H)
    assert bdm_window_sup_at(spec, 2, 1, 1) == bdm_window_sup_at(spec, 1, 1, 1) == (0.0, 0)
    with pytest.raises(DomainError):
        bdm_window_sup_at(spec, 1, 1, 0)


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


@pytest.fixture(
    params=[(None, None), (3, None), (1, None), (1 << 16, None), (None, 1), (3, 1)],
    ids=["chunk-default", "chunk-3", "chunk-1", "chunk-65536", "block-1", "chunk-3-block-1"],
)
def scan_sizes(request, monkeypatch):
    # chunks of 1 or 3 members cap every block of the count scan, so windows
    # straddle block boundaries; first blocks of 1 member make every better
    # window restart the doubling
    chunk, first = request.param
    if chunk is not None:
        monkeypatch.setattr(density_module, "_CHUNK", chunk)
    if first is not None:
        monkeypatch.setattr(density_module, "_FIRST_BLOCK", first)


def _bd_cases(rng):
    """(elements, n, horizon): seeded random explicit sets, then edge cases."""
    cases = []
    for _ in range(60):
        H = int(rng.randint(2, 300))
        els = (np.flatnonzero(rng.random_sample(H) < rng.choice([0.02, 0.2, 0.6, 0.95])) + 1).tolist()
        cases += [(els, n, H) for n in sorted({1, 2, int(rng.randint(1, H)), H - 1})]
    cases += [
        ([], 5, 100),  # empty set
        ([96, 97, 99], 10, 100),  # every member above kmax = 90
        ([1, 95, 96, 97, 98, 99, 100], 10, 100),  # kmax's window is the best
        ([2, 4, 96, 100], 10, 100),  # kmax ties member 2, which wins
        ([3, 7, 20], 50, 100),  # n >= |A|
        ([1, 2], 5, 10),  # the best window ends at the last member
        ([2, 3, 5, 7, 11, 13], 1, 20),  # n = 1
        (list(range(10, 60)) + list(range(70, 140)), 30, 200),  # long dense runs
        (list(range(1, 201)), 7, 200),  # every k is a member
    ]
    return cases


def test_bd_at_vs_oracle(rng, scan_sizes):
    for els, n, H in _bd_cases(rng):
        spec = IntegerSetSpec.explicit(els)
        best, k_star = brute_bd_at(els, n, H)
        assert bd_estimate_at(spec, n, H) == (best / (n + 1), k_star), (els, n, H)
        assert bdm_window_sup_at(spec, 1, n, H) == (best / n, k_star), (els, n, H)


def _rising(m, n):
    """2m members floor((n + 1/2) * log2(i + 2)), i < 2m, and the horizon
    their largest: the window [a_i, a_i + n] reaches a_(2i+1), so along the
    m or so members <= H - n the window counts rise member by member."""
    els = [math.floor((n + 0.5) * math.log2(i + 2)) for i in range(2 * m)]
    assert all(map(int.__lt__, els, els[1:]))  # needs 2m + 2 <= n * 1.44
    return els, els[-1]


def test_bd_vs_oracles_at_every_scan_size(rng, scan_sizes):
    for _ in range(8):
        els = sorted(rng.choice(np.arange(1, 1201), size=int(rng.randint(1, 400)), replace=False).tolist())
        spec = IntegerSetSpec.explicit(els)
        for n in (1, 2, int(rng.randint(3, 60)), 1199):
            assert bd_estimate(spec, n, 1200) == brute_bd(els, n, 1200), (els, n)
            assert bdm_window_sup(spec, 1, n, 1200) == brute_window_count_max(els, n, 1200), (els, n)
    els, H = _rising(150, 400)
    for n in (40, 400, 1000):
        best, k_star = brute_bd_at(els, n, H)
        assert bd_estimate_at(IntegerSetSpec.explicit(els), n, H) == (best / (n + 1), k_star), n


@pytest.mark.parametrize("first,m,n", [(None, 20000, 40000), (8, 400, 1000)])
def test_bd_rising_counts_take_one_count_per_block(monkeypatch, first, m, n):
    # window counts that rise member by member put a better window in every
    # block, the scan's worst case: each block stays at its first size, so
    # count_le is called once per block, plus once for the members <= kmax
    # and twice for kmax's window
    if first is not None:
        monkeypatch.setattr(density_module, "_FIRST_BLOCK", first)
    block = density_module._FIRST_BLOCK
    els, H = _rising(m, n)
    view = IntegerSetSpec.explicit(els).view(H)
    j = int(view.count_le(H - n))
    calls, count_le = [], ElementView.count_le

    def spy_count_le(view, x):
        calls.append(np.size(x))
        return count_le(view, x)

    monkeypatch.setattr(ElementView, "count_le", spy_count_le)
    got = density_module._count_max(view, H - n, n)
    assert j // block < len(calls) <= -(-j // block) + 3 <= -(-2 * m // block) + 3
    if m <= 400:
        assert got == brute_bd_at(els, n, H)


def test_bd_element_view_sends_no_bulk_search(monkeypatch, rng):
    # an element view counts only the members whose window beats the best
    # count so far, and kmax's window: no count queries every member.  Every
    # element view counts by binary search, so on the sieve view and on an
    # explicit one (about 1e5 members) each search must reach a spy
    H = 10**6
    squarefree, explicit = IntegerSetSpec.squarefree(), random_explicit(rng, H, 0.1)
    searched, counted, missed = [], [], []
    searchsorted, count_le = np.searchsorted, ElementView.count_le

    class SpiedMembers(np.ndarray):
        # count_le searches by the members array's own method
        def searchsorted(self, v, *args, **kwargs):
            searched.append(np.size(v))
            return super().searchsorted(v, *args, **kwargs)

    def spy_searchsorted(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    def spy_count_le(view, x):
        counted.append(np.size(x))
        seen = len(searched)
        result = count_le(view, x)
        missed.append(len(searched) == seen)  # its search went past the spies
        return result

    monkeypatch.setattr(np, "searchsorted", spy_searchsorted)
    monkeypatch.setattr(ElementView, "count_le", spy_count_le)
    for spec in (squarefree, explicit):
        spec.view(H)
        cached = intset._VIEWS[spec]  # the views bd reads are it or its clips
        monkeypatch.setattr(cached, "starts", cached.starts.view(SpiedMembers))
        size = len(spec.view(H).starts)
        for n in (2, 33, 1000, 10**5):
            del searched[:], counted[:], missed[:]
            bd_estimate_at(spec, n, H)
            assert counted and sum(counted) <= size / 4, (spec.kind, n)
            # a search that skipped both spies would go unchecked
            assert searched and sum(searched) <= size / 4 and not any(missed), (spec.kind, n)


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


@pytest.mark.parametrize("m", [2, 3])
def test_root_sums_match_the_full_prefix_sums(rng, monkeypatch, m):
    # bd_m keeps its sums only at the member counts of the perfect m-th
    # powers, in one chunked pass. With 3 weights per chunk those counts fall
    # at 0, on chunk edges and at the last member, and every row keeps the
    # bits of a full table's, also when a smaller horizon follows a larger
    # one and reads a prefix of the cached rows
    monkeypatch.setattr(numerics, "_CHUNK", 3)
    views = {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    beta, hit = (m - 1) / m, {"edge": False, "last": False}
    for _ in range(30):
        H = int(rng.randint(2**m, 3000))
        els = (np.flatnonzero(rng.random_sample(H) < rng.choice([0.02, 0.3, 0.9])) + 1).tolist()
        spec = IntegerSetSpec.explicit(els)
        a = spec.view(H).starts
        full = numerics.PrefixSums.at_counts(np.arange(len(a) + 1), lambda i: a[i].astype(np.float64) ** -beta)
        big = numerics.floor_nth_root(H, m)
        for h in (H, int(rng.randint(1, H + 1)), H):
            root = numerics.floor_nth_root(h, m)
            counts = spec.view(h).count_le(np.arange(root + 1) ** m)
            table = density_module._root_sums(root, m, spec.view(h))
            assert views[spec]._tables[m][0] == big  # grow-only by root
            assert np.array_equal(table._s[: root + 1], full._s[counts])
            assert np.array_equal(table._c[: root + 1], full._c[counts])
            hit["edge"] |= bool(np.any((counts > 0) & (counts % 3 == 0) & (counts < len(a))))
            hit["last"] |= bool(counts[-1] == len(a) > 0)
            n = int(rng.randint(1, 4))
            tmax = root - n
            if tmax < 1:
                continue
            # bd_m's windows are the full table's, bit for bit
            ts = np.arange(1, tmax + 1)
            ks, tops = (ts - 1) ** m + 1, (ts + n) ** m
            sums = full.range_sum(spec.view(h).count_le(ks - 1), spec.view(h).count_le(tops))
            i = int(np.argmax(sums))
            assert bdm_window_sup_at(spec, m, n, h) == (float(sums[i]) / (m * n), int(ks[i]))
        views.clear()
    assert hit == {"edge": True, "last": True}


@pytest.mark.parametrize("kind", ["squarefree", "primes"])
@pytest.mark.parametrize("m", [2, 3])
def test_grown_root_sums_equal_a_fresh_pass(kind, m, monkeypatch):
    # as a sieve view grows, bd_m's sums at the perfect powers carry on from
    # the last row of the smaller table, reading only the members above its
    # root**m, and keep the bits of a fresh ``at_counts`` pass (3 weights per
    # chunk, so both passes cross many chunk edges at different places)
    monkeypatch.setattr(numerics, "_CHUNK", 3)
    monkeypatch.setattr(intset, "_VIEWS", {})
    spec, beta, read = IntegerSetSpec(kind), (m - 1) / m, []
    weights = density_module._member_weights
    monkeypatch.setattr(density_module, "_member_weights",
                        lambda a, b: (lambda i: read.append((i.start, i.stop)) or weights(a, b)(i)))
    last, horizons, grown = 0, (1000, 1001, 4096, 4159, 30_000, 70_001), []
    for h in horizons:
        root, read[:] = numerics.floor_nth_root(h, m), []
        view = spec.view(h)
        table = density_module._root_sums(root, m, view)
        counts = view.count_le(np.arange(root + 1, dtype=np.int64) ** m)
        fresh = numerics.PrefixSums.at_counts(counts, weights(view.starts, beta))
        assert np.array_equal(table._s.view(np.int64), fresh._s.view(np.int64)), h
        assert np.array_equal(table._c.view(np.int64), fresh._c.view(np.int64)), h
        assert sum(hi - lo for lo, hi in read) == counts[-1] - last and all(lo >= last for lo, _ in read), h
        last = int(counts[-1])
        grown.append(bdm_window_sup_at(spec, m, 5, h))
    for h, got in zip(horizons, grown):
        intset._VIEWS.clear()
        assert bdm_window_sup_at(spec, m, 5, h) == got, h


def test_a_sieve_view_grows_without_its_per_member_table(monkeypatch):
    # test_a_larger_table_is_built_without_the_smaller_one for a view that
    # grows: the reciprocal sums at H/2, kept at every STRIDE-th member
    # (0.3 MB; one row per member took 4.9 MB), are carried over to the
    # larger sieve view and extended there, so the growth and the log
    # profile at H peak no more above what was held before them than a
    # fresh build and log profile at H less that table, and the extended
    # table has the bits of a fresh one.  (With 4-byte members the fresh
    # build alone no longer outweighs the profile's chunk buffers.)
    spec, H, slack = IntegerSetSpec.squarefree(), 10**6, 2**20
    views = {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    tracemalloc.start()
    try:
        spec.view(H)
        log_profile(spec, H, [H])
        fresh = tracemalloc.get_traced_memory()[1]
        views.clear()
        base = tracemalloc.get_traced_memory()[0]
        log_profile(spec, H // 2, [H // 2])
        table = views[spec]._tables[1.0][1]
        size = table._s.nbytes + table._c.nbytes
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        spec.view(H)
        assert views[spec]._tables[1.0][1] is table  # carried over, not dropped
        table = None
        log_profile(spec, H, [H])
        assert tracemalloc.get_traced_memory()[1] - held <= fresh - base - size + slack
    finally:
        tracemalloc.stop()
    grown = views[spec]._tables[1.0][1]
    views.clear()
    rebuilt = spec.view(H).sums_table(1.0)
    assert len(grown._s) == len(spec.view(H).starts) // numerics.STRIDE + 1
    assert np.array_equal(grown._s.view(np.int64), rebuilt._s.view(np.int64))
    assert np.array_equal(grown._c.view(np.int64), rebuilt._c.view(np.int64))


@pytest.mark.parametrize("spec", [IntegerSetSpec.squarefree(),
                                  IntegerSetSpec.explicit(range(1, 10**5 + 1, 7))])
def test_weights_cache_slices_match_fresh_builds(spec, monkeypatch):
    def calls(H):
        return (log_profile(spec, H), lbd_profile(spec, 64, H), bdm_window_sup_at(spec, 2, 16, H))

    views = {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    fresh = {}
    for H in (10**5, 2 * 10**4):
        views.clear()
        fresh[H] = calls(H)
    views.clear()
    for H in (10**5, 2 * 10**4, 10**5):
        assert calls(H) == fresh[H]  # bit-identical
    # one view per set, holding the reciprocal sums per member, keyed by
    # beta and sized by horizon, and bd_m's sums at the perfect squares,
    # keyed by m and sized by root
    assert list(views) == [spec]
    tables = views[spec]._tables
    assert sorted(tables) == [1.0, 2]
    assert tables[1.0][0] == 10**5 and tables[2][0] == math.isqrt(10**5)


def test_bdm_full_value_and_k_star_pins():
    # 9,900 windows of up to 2e6 terms each, every one summed in O(1).
    # References: mpmath at 50 digits, the Hurwitz zeta difference over the
    # k* window [k, (ceil(sqrt(k)) + n)^2], divided by 2n
    value, k_star = bdm_window_sup_at(FULL, 2, 100, 10**8)
    assert (value, k_star) == (1.0099999974492375, 97990202)
    assert abs(value - 1.00999999744923730314) <= 2 * math.ulp(value)
    # far out the windows differ by an ulp or two, so k* follows the last
    # bits: the true maximum, 1.015151514897175918745..., is at 995718026
    value, k_star = bdm_window_sup_at(FULL, 2, 66, 10**9)
    assert k_star == 995718026
    assert abs(value - 1.015151514897175918745) <= 2 * math.ulp(value)


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


def test_element_view_temporaries_are_bounded(monkeypatch):
    # the prefix-sum build, the Banach scan and bd_m's pass run in chunks, so
    # on an element view none holds |A|-long temporaries: squarefree at 1e6
    # has 607,926 members, 4.9 MB per float64 array
    spec, H, slack = IntegerSetSpec.squarefree(), 10**6, 4 * 2**20
    monkeypatch.setattr(intset, "_VIEWS", {})
    spec.view(H)  # the elements are held before tracing starts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log_profile(spec, H)
        held, peak = tracemalloc.get_traced_memory()
        table = spec.view(H)._tables[1.0][1]
        assert peak - base <= table._s.nbytes + table._c.nbytes + slack
        tracemalloc.reset_peak()
        lbd_profile(spec, 1000, H)
        assert tracemalloc.get_traced_memory()[1] - held <= 2**20  # blocks of few windows: no chunk is long
        # bd_m keeps 1,001 sums at the perfect squares, not a second table
        tracemalloc.reset_peak()
        bdm_window_sup_at(spec, 2, 16, H)
        assert tracemalloc.get_traced_memory()[1] - held <= slack
    finally:
        tracemalloc.stop()


def test_reciprocal_sums_hold_one_byte_per_member(monkeypatch):
    # the log profile and a grid of Banach scans keep the reciprocal sums
    # only at every STRIDE-th member count, 16 bytes per STRIDE members: on
    # squarefree at 1e6 they hold |A| bytes beyond the members, where one
    # row per member held 16 |A|
    spec, H, slack = IntegerSetSpec.squarefree(), 10**6, 2**16
    monkeypatch.setattr(intset, "_VIEWS", {})
    size = len(spec.view(H).starts)  # the members are held before tracing starts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log_profile(spec, H)
        lbd_profile(spec, 1000, H)
        assert tracemalloc.get_traced_memory()[0] - base <= size + slack
    finally:
        tracemalloc.stop()


def test_bd_temporaries_are_one_chunk_long(monkeypatch):
    # the count scan's blocks stop doubling at _CHUNK members, so its largest
    # temporary is one difference per member of a chunk (256 KiB in uint32), not
    # of all 607,926 members of squarefree at 1e6
    spec, H = IntegerSetSpec.squarefree(), 10**6
    monkeypatch.setattr(intset, "_VIEWS", {})
    spec.view(H)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n in (1, 2, 33, 1000, 10**5):
            bd_estimate_at(spec, n, H)
        assert tracemalloc.get_traced_memory()[1] - base <= 2**20
    finally:
        tracemalloc.stop()


def test_a_larger_table_is_built_without_the_smaller_one():
    # an explicit view never grows, only its tables do: the reciprocal sums
    # at H/2 (8 MB here) are dropped before those at H build, so the two
    # calls peak no higher than one call at H on a fresh set of the same size
    H, slack = 2 * 10**6, 2**20

    def peak(spec, horizons):
        spec.view(H)  # the elements are held before tracing starts
        tracemalloc.start()
        try:
            for h in horizons:
                log_profile(spec, h, [h])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fresh = peak(IntegerSetSpec.explicit(range(2, H + 1, 2)), [H])
    assert peak(IntegerSetSpec.explicit(range(1, H + 1, 2)), [H // 2, H]) <= fresh + slack


# ---------------------------------------------------------------------------
# uint32 members
# ---------------------------------------------------------------------------


def _bits(value):
    # floats by their bits, containers item by item, integers as ints
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return float(value).hex() if isinstance(value, float) else int(value)


def _every_functional(spec, H):
    grid = (2, 3, 5, 11, 64)
    return (counting_profile(spec, "upper", H).checkpoints, log_profile(spec, H).checkpoints,
            count_extremes(spec, H), lbd_profile(spec, 64, H),
            [banach_window_sup_at(spec, n, H) for n in grid], [bd_estimate_at(spec, n, H) for n in grid],
            [bdm_window_sup_at(spec, m, n, H) for m in (1, 2, 3) for n in (1, 2, 5, 16)])


@pytest.mark.parametrize("kind", ["squarefree", "primes", "even"])
def test_uint32_views_give_the_bits_of_int64_members(kind, monkeypatch):
    # every functional on the uint32 view of a sieve kind or even, and on
    # its clips, gives the (value, k*) bits of an int64 array of the same
    # members
    spec, H = IntegerSetSpec(kind), 3000
    views = {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    got = [_bits(_every_functional(spec, h)) for h in (H, 1000, 97)]
    members = views[spec].starts
    assert members.dtype == np.uint32 and views[spec].horizon == H
    views[spec] = ElementView(H, members.astype(np.int64))
    assert [_bits(_every_functional(spec, h)) for h in (H, 1000, 97)] == got


def test_every_member_search_gets_keys_of_the_member_dtype(monkeypatch, rng):
    # numpy converts a whole uint32 member array to search it with int64 or
    # Python-int keys, so every search of the members of a sieve kind or even
    # gets uint32 keys; an explicit view's int64 members get int64 keys
    keys = []

    class SpiedMembers(np.ndarray):
        # np.searchsorted calls the array's own method too
        def searchsorted(self, v, *args, **kwargs):
            keys.append((self.dtype, np.asarray(v).dtype))
            return super().searchsorted(v, *args, **kwargs)

    H, views = 10**5, {}
    monkeypatch.setattr(intset, "_VIEWS", views)
    specs = [IntegerSetSpec.squarefree(), IntegerSetSpec.primes(), EVEN, random_explicit(rng, H, 0.1)]
    for spec, dtype in zip(specs, (np.uint32, np.uint32, np.uint32, np.int64)):
        spec.view(H)
        cached = views[spec]  # the views read are it or its clips
        cached.starts = cached.ends = cached.starts.view(SpiedMembers)
        del keys[:]
        for h in (H, H // 3):
            _every_functional(spec, h)
            lbd_profile(spec, 1000, h)
            spec.members(7, h)
        assert keys and set(keys) == {(np.dtype(dtype), np.dtype(dtype))}, spec.kind


def test_cli_functionals_hold_four_plus_one_bytes_per_member(monkeypatch):
    # squarefree at 1e6 holds its 607,926 members at 4 bytes each, and each
    # of the density CLI's functionals peaks within (4 + 1) bytes per member
    # (the members and the reciprocal sums kept at every STRIDE-th member)
    # and a few chunk-long temporaries: int64 members, or one search that
    # converts the members to int64, goes past it
    spec, H, slack = IntegerSetSpec.squarefree(), 10**6, 3 * 2**20
    grid = numerics.geometric_grid(2, 1000)
    monkeypatch.setattr(intset, "_VIEWS", {})
    steps = {
        "count": lambda: counting_profile(spec, "upper", H),
        "log": lambda: log_profile(spec, H),
        "bd": lambda: [bd_estimate_at(spec, n, H) for n in grid],
        "banach": lambda: lbd_profile(spec, 1000, H),
        "bd_m": lambda: [bdm_window_sup_at(spec, 2, n, H) for n in grid],
    }
    tracemalloc.start()
    try:
        members = spec.view(H).starts
        assert members.nbytes == 4 * len(members) == 4 * 607_926
        bound = 5 * len(members) + slack
        members = None
        assert tracemalloc.get_traced_memory()[1] <= bound  # the sieve build
        for name, step in steps.items():
            tracemalloc.reset_peak()
            step()
            assert tracemalloc.get_traced_memory()[1] <= bound, name
    finally:
        tracemalloc.stop()
