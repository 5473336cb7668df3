import numpy as np
import pytest

from densitylab.errors import CapacityError, DomainError
from densitylab.intset import IntegerSetSpec
from densitylab.productset import GapReport, gap_witness, max_gap_ratio, products_in

from oracles import brute_max_gap_ratio, brute_primes, brute_products

FULL = IntegerSetSpec.full()
SQUAREFREE = IntegerSetSpec.squarefree()
EXPL = IntegerSetSpec.explicit


def test_products_in_examples():
    assert products_in(EXPL([2, 3]), EXPL([5, 7]), 1, 100).tolist() == [10, 14, 15, 21]
    assert products_in(FULL, FULL, 10, 20).tolist() == list(range(10, 21))
    assert products_in(EXPL([2]), EXPL([2]), 5, 100).tolist() == []


def test_products_in_validation():
    with pytest.raises(DomainError):
        products_in(FULL, FULL, 10, 5)
    with pytest.raises(CapacityError):
        products_in(FULL, FULL, 1, 10**9 + 1)


def test_products_in_matches_brute(rng):
    for _ in range(30):
        na, nb = int(rng.randint(1, 60)), int(rng.randint(1, 60))
        a = sorted(rng.choice(np.arange(1, 500), size=na, replace=False).tolist())
        b = sorted(rng.choice(np.arange(1, 500), size=nb, replace=False).tolist())
        lo = int(rng.randint(1, 1000))
        hi = lo + int(rng.randint(0, 20000))
        got = products_in(EXPL(a), EXPL(b), lo, hi).tolist()
        assert got == brute_products(a, b, lo, hi)


def test_products_in_bounded_factors_match_brute(rng, monkeypatch):
    # each factor set is materialized only up to hi // min(other set)
    calls = []
    members = IntegerSetSpec.members

    def spy(self, lo, hi):
        calls.append((self.kind, hi))
        return members(self, lo, hi)

    monkeypatch.setattr(IntegerSetSpec, "members", spy)
    primes = IntegerSetSpec.primes()
    ex2 = IntegerSetSpec.example2(2, 2)
    for _ in range(20):
        lo = int(rng.randint(1, 2000))
        hi = lo + int(rng.randint(0, 6000))
        calls.clear()
        got = products_in(ex2, primes, lo, hi).tolist()
        assert got == brute_products(ex2.members(1, hi).tolist(), brute_primes(hi), lo, hi)
        assert calls[:2] == [("example2", hi // 2), ("primes", hi // 2)]
    a = sorted(rng.choice(np.arange(50, 500), size=30, replace=False).tolist())
    b = sorted(rng.choice(np.arange(20, 500), size=30, replace=False).tolist())
    for lo, hi in ((1, 999), (1000, 1000), (1000, 30000), (5000, 250000)):
        calls.clear()
        got = products_in(EXPL(a), EXPL(b), lo, hi).tolist()
        assert got == brute_products(a, b, lo, hi)
        assert calls == [("explicit", hi // b[0]), ("explicit", hi // a[0])]
    # a factor set with no member up to hi materializes nothing
    calls.clear()
    assert products_in(EXPL([7]), EXPL([500]), 1, 100).tolist() == []
    assert calls == []


def test_max_gap_ratio_examples():
    assert max_gap_ratio([10, 14, 15, 21]) == 2
    assert max_gap_ratio([5]) == 1
    assert max_gap_ratio([3, 9, 10]) == 3
    with pytest.raises(DomainError):
        max_gap_ratio([])
    with pytest.raises(DomainError):
        max_gap_ratio([5, 5])


def test_max_gap_ratio_matches_brute(rng):
    for _ in range(50):
        vals = sorted(set(rng.randint(1, 10**6, size=int(rng.randint(1, 40))).tolist()))
        assert max_gap_ratio(vals) == brute_max_gap_ratio(vals)


def _soundness(report: GapReport, a_spec, b_spec):
    """Definitional re-check: every [u, m*u] inside the window with u at
    most the last product meets the product list."""
    prods = products_in(a_spec, b_spec, report.window[0], report.window[1]).tolist()
    assert len(prods) == report.products_examined
    m, x = report.m, report.x
    assert prods[0] <= m * x
    for p, q in zip(prods, prods[1:]):
        assert q <= m * p  # consecutive-pair certificate
    # direct spot checks at the worst breakpoints u = p + 1
    import bisect

    for p in prods[:-1]:
        u = p + 1
        if u * m <= report.window[1]:
            i = bisect.bisect_left(prods, u)
            assert i < len(prods) and prods[i] <= m * u


def test_gap_witness_full_full():
    r = gap_witness(FULL, FULL, 16, 10**6)
    assert r.m == 2
    _soundness(r, FULL, FULL)


def test_gap_witness_singleton_window():
    r = gap_witness(EXPL([10]), EXPL([10]), 4, 10**4)
    assert r.m == 1 and r.x == 100 and r.window == (100, 400)
    assert r.products_examined == 1


def test_gap_witness_empty():
    assert gap_witness(EXPL([]), EXPL([7]), 4, 10**4) is None


def test_gap_witness_validation():
    with pytest.raises(DomainError):
        gap_witness(FULL, FULL, 1, 100)


def test_gap_witness_squarefree_small_m():
    for n in (4, 16):
        r = gap_witness(SQUAREFREE, SQUAREFREE, n, 10**6)
        assert r.m == 2
        _soundness(r, SQUAREFREE, SQUAREFREE)


def test_gap_monotone_in_n(rng):
    # for fixed x, enlarging the window cannot decrease the statistic
    from densitylab.productset import _window_gap

    for _ in range(20):
        a = sorted(rng.choice(np.arange(1, 300), size=40, replace=False).tolist())
        b = sorted(rng.choice(np.arange(1, 300), size=40, replace=False).tolist())
        x = int(rng.randint(1, 50))
        prev = None
        for n in (2, 4, 8, 16, 32):
            prods = products_in(EXPL(a), EXPL(b), x, n * x)
            if len(prods) == 0:
                prev = None
                continue
            m = _window_gap(prods, x)
            if prev is not None:
                assert m >= prev
            prev = m


def test_gap_report_json():
    r = gap_witness(EXPL([10]), EXPL([10]), 4, 10**4)
    assert r.to_json() == {"n": 4, "x": 100, "m": 1, "products": 1, "lo": 100, "hi": 400}
