import bisect

import numpy as np
import pytest

from densitylab import intset, productset
from densitylab.errors import CapacityError, DomainError
from densitylab.intset import IntegerSetSpec, IntervalSet
from densitylab.numerics import geometric_grid
from densitylab.productset import GapReport, gap_witness, max_gap_ratio, products_in

from oracles import (
    brute_gap_witness,
    brute_gap_witness_every_start,
    brute_max_gap_ratio,
    brute_primes,
    brute_products,
    brute_squarefree,
)

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
    # full x full: long b-ranges for small a and many repeated products
    got = products_in(FULL, FULL, 60000, 100000).tolist()
    assert got == brute_products(range(1, 100001), [1], 60000, 100000)
    assert products_in(FULL, FULL, 1, 400).tolist() == brute_products(range(1, 401), range(1, 401), 1, 400)


def test_products_in_chunks_match_one_chunk(monkeypatch, rng):
    # ranges cut into chunks, one range spanning several chunk sizes; each
    # chunk is made distinct before the chunks are merged
    a = sorted(rng.choice(np.arange(1, 300), size=40, replace=False).tolist())
    b = sorted(rng.choice(np.arange(1, 3000), size=400, replace=False).tolist())
    want = products_in(EXPL(a), EXPL(b), 1, 100000).tolist()
    for chunk in (1, 7, 64):
        monkeypatch.setattr(productset, "_CHUNK", chunk)
        assert products_in(EXPL(a), EXPL(b), 1, 100000).tolist() == want
        # full x full: each chunk repeats products within itself and of others
        assert products_in(FULL, FULL, 2000, 4000).tolist() == list(range(2000, 4001))
    assert want == brute_products(a, b, 1, 100000)


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


@pytest.mark.parametrize("ratio", [0.5, 1, 1.0, -2.0, float("nan"), float("inf")])
def test_gap_witness_checks_grid_ratio(ratio):
    # a finite number above 1, as the CLI's --grid-ratio, for every pair:
    # the exact scan of two explicit sets reads no grid, yet checks it too
    for a, b in ((EXPL([2, 3]), EXPL([5, 7])), (FULL, SQUAREFREE)):
        with pytest.raises(DomainError, match="grid ratio"):
            gap_witness(a, b, 2, 100, ratio)


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


def _oracle_elements(spec, horizon):
    if spec.kind == "squarefree":
        return brute_squarefree(horizon)
    if spec.kind == "primes":
        return brute_primes(horizon)
    return spec.members(1, horizon).tolist()


def _random_spec(rng, horizon):
    kind = rng.choice(["explicit", "explicit", "interval_union", "example2", "full", "even", "squarefree", "primes"])
    if kind == "explicit":
        size = int(rng.randint(1, 12))
        return EXPL(rng.choice(np.arange(1, horizon + 1), size=size, replace=False).tolist())
    if kind == "interval_union":
        comps = []
        for _ in range(int(rng.randint(1, 5))):
            a = int(rng.randint(1, horizon + 1))
            comps.append((a, a + int(rng.randint(0, horizon // 20 + 1))))
        return IntegerSetSpec.interval_union(IntervalSet(tuple(comps)))
    if kind == "example2":
        return IntegerSetSpec.example2(int(rng.randint(2, 4)), 2)
    return getattr(IntegerSetSpec, kind)()


# (A, B, n, horizon): singleton windows (m = 1) reached after a window with
# m = 2, when the probe answers; in the last, the window at x = 12 holds 18
# and 12 from different factors a, each with one b
PROBE_CASES = [
    (EXPL([10]), EXPL([10]), 4, 10**4),
    (EXPL([1, 2, 3, 100]), EXPL([1]), 2, 400),
    (EXPL([2, 3, 7, 200]), IntegerSetSpec.example2(2, 0), 3, 2000),
    (IntegerSetSpec.example2(2, 1), EXPL([1, 50]), 2, 2000),
    (EXPL([1, 3, 30, 31]), EXPL([1, 2, 1000]), 2, 4000),
    (EXPL([2, 3]), EXPL([4, 9]), 2, 100),
]


def test_gap_witness_vs_full_enumeration_oracle(rng):
    # every candidate window enumerated in full gives the same report as the
    # m = 2 probe
    cases = list(PROBE_CASES)
    for _ in range(40):
        horizon = int(rng.choice([300, 600, 2000]))
        a, b = _random_spec(rng, horizon), _random_spec(rng, horizon)
        cases.append((a, b, int(rng.choice([2, 3, 4, 16])), horizon))
    singletons = 0
    for a, b, n, horizon in cases:
        a_el, b_el = _oracle_elements(a, horizon), _oracle_elements(b, horizon)
        want = brute_gap_witness(a_el, b_el, n, _oracle_starts(a, b, a_el, b_el, n, horizon))
        got = gap_witness(a, b, n, horizon)
        assert (got and (got.x, got.m, got.products_examined)) == want, (a, b, n, horizon)
        singletons += bool(want and want[1] == 1)
    assert singletons >= len(PROBE_CASES)


def _exact_scan_applies(a_spec, b_spec, a, b, horizon):
    return a_spec.kind == b_spec.kind == "explicit" and len(
        brute_products(a, b, 1, horizon)) <= productset.EXACT_SCAN_MAX_PRODUCTS


def _oracle_starts(a_spec, b_spec, a, b, n, horizon):
    """Every start up to horizon // n where the exact scan applies, else the
    geometric grid."""
    if _exact_scan_applies(a_spec, b_spec, a, b, horizon):
        return range(1, horizon // n + 1)
    return geometric_grid(1, horizon // n, 1.1)


def test_exact_scan_vs_every_start(rng):
    # explicit x explicit reports the least x with the least statistic over
    # every start: [18, 54] holds 35 with leading gap ceil(35/18) = 2, which
    # only a start ceil(p/m) found after the first pass reaches
    r = gap_witness(EXPL([1]), EXPL([35]), 3, 100)
    assert (r.x, r.m, r.products_examined) == (18, 2, 1)
    for _ in range(300):
        top = int(rng.choice([20, 60, 200]))
        a, b = (sorted(rng.choice(np.arange(1, top + 1), size=int(rng.randint(1, 4)), replace=False).tolist())
                for _ in range(2))
        n, horizon = int(rng.choice([2, 3, 5])), int(rng.choice([100, 500, 3000]))
        got = gap_witness(EXPL(a), EXPL(b), n, horizon)
        want = brute_gap_witness(a, b, n, range(1, horizon // n + 1))
        assert (got and (got.x, got.m, got.products_examined)) == want, (a, b, n, horizon)
        assert brute_gap_witness_every_start(a, b, n, horizon) == want


def _brute_candidates(a, b, n, horizon, cap):
    prods = brute_products(a, b, 1, horizon)
    if len(prods) > cap:
        return None
    x_max = horizon // n
    cands = {1, x_max}
    for p in prods:
        cands |= {c for c in (p - 1, p, p + 1, -(-p // n), -(-p // n) - 1) if 1 <= c <= x_max}
    return sorted(cands)


def _exact_scan_products(a_spec, b_spec, horizon):
    """The product list of an explicit pair's exact scan, as ``gap_witness``
    takes it: the probe over [1, horizon] capped, within its budget."""
    top = productset._capped_top(a_spec, b_spec, horizon)
    return productset._probe(a_spec, b_spec, 1, top, productset.EXACT_SCAN_MAX_PRODUCTS)


def test_exact_candidates_vs_brute(rng, monkeypatch):
    # the probe gives up past the budget without gathering every product;
    # pairs fall on both sides of the budget, and no set is materialized
    calls = []
    monkeypatch.setattr(productset, "products_in", lambda *args: calls.append(args))
    seen = set()
    for cap, size_max in ((productset.EXACT_SCAN_MAX_PRODUCTS, 150), (40, 12)):
        monkeypatch.setattr(productset, "EXACT_SCAN_MAX_PRODUCTS", cap)
        for _ in range(40):
            a, b, a_spec, b_spec = _random_explicit_pair(rng, size_max=size_max, top=int(rng.choice([300, 3000])))
            n, horizon = int(rng.choice([2, 3, 16])), int(rng.choice([1000, 10**5, 2 * 10**9]))
            prods = _exact_scan_products(a_spec, b_spec, horizon)
            got = None if prods is None else productset._exact_candidates(prods, n, horizon // n)
            assert got == _brute_candidates(a, b, n, horizon, cap), (a, b, n, horizon)
            seen.add((cap, got is None))
    assert len(seen) == 4
    assert _exact_scan_products(EXPL([200]), EXPL([300]), 100) == []
    assert productset._exact_candidates([], 2, 50) == [1, 50]
    assert calls == []
    # a product past the cap raises as products_in does
    with pytest.raises(CapacityError):
        gap_witness(EXPL([3, 10**6]), EXPL([7, 10**4]), 2, 2 * 10**10)
    # gap_witness takes the exact scan for two explicit sets whose list is
    # within the budget, and for no other pair
    monkeypatch.undo()
    monkeypatch.setattr(productset, "EXACT_SCAN_MAX_PRODUCTS", 40)
    scanned = []
    candidates = productset._exact_candidates
    monkeypatch.setattr(productset, "_exact_candidates", lambda *args: scanned.append(args) or candidates(*args))
    for a_spec, b_spec, exact in ((EXPL([1]), EXPL(list(range(1, 41))), True),
                                  (EXPL([1]), EXPL(list(range(1, 42))), False),
                                  (EXPL([2]), IntegerSetSpec.primes(), False)):
        scanned.clear()
        gap_witness(a_spec, b_spec, 2, 100)
        assert bool(scanned) == exact, (a_spec, b_spec)


def test_exact_candidates_many_factors_decide_at_once(monkeypatch):
    # 5,000 factors a each give a distinct product a*min(B) up to the horizon:
    # the first factor's row passes the budget, and the walk stops there
    rng = np.random.RandomState(17)
    a, b = (EXPL(rng.choice(np.arange(1, 10**5), size=5000, replace=False).tolist()) for _ in range(2))
    calls = []
    monkeypatch.setattr(productset, "products_in", lambda *args: calls.append(args))
    assert _exact_scan_products(a, b, 10**9) is None
    got, visited = _walk(monkeypatch, a, b, 1, 10**9, productset.EXACT_SCAN_MAX_PRODUCTS)
    assert got is None and visited == [a.elements[0]]
    assert calls == []


def _walk(monkeypatch, a_spec, b_spec, lo, hi, cap):
    """(the probe's answer, the factors a its walk visited)."""
    visited = []
    next_member = IntegerSetSpec.next_member

    def spy(self, x, limit):
        got = next_member(self, x, limit)
        if self is a_spec and got is not None:
            visited.append(got)
        return got

    with monkeypatch.context() as patch:
        patch.setattr(IntegerSetSpec, "next_member", spy)
        return productset._probe(a_spec, b_spec, lo, hi, cap), visited


def _random_explicit_pair(rng, size_max=400, top=3000):
    """Two random explicit sets as element lists and specs (distinct objects,
    so a spy can tell the factor sets apart)."""
    a, b = (sorted(rng.choice(np.arange(1, top + 1), size=int(rng.randint(1, size_max + 1)),
                              replace=False).tolist()) for _ in range(2))
    return a, b, EXPL(a), EXPL(b)


def _window_products(all_products, lo, hi):
    return all_products[bisect.bisect_left(all_products, lo) : bisect.bisect_right(all_products, hi)]


def test_probe_stress_vs_brute_oracle(rng, monkeypatch):
    # the leapfrog walk has no step cap: long walks over narrow windows, where
    # most factors a have no partner, answer like the brute product list: the
    # window's products when there are at most cap, else None, with cap 1
    # (a singleton probe) and caps on both sides of the window's count
    longest, gave_up = 0, 0
    for _ in range(12):
        a, b, a_spec, b_spec = _random_explicit_pair(rng)
        every = brute_products(a, b, 1, a[-1] * b[-1])
        for _ in range(25):
            lo = int(rng.randint(1, a[-1] * b[-1] + 2))
            hi = lo + int(rng.choice([0, 1, 5, 50, lo // 100, lo]))
            prods = _window_products(every, lo, hi)
            for cap in {1, max(1, len(prods) - 1), max(1, len(prods))}:
                got, visited = _walk(monkeypatch, a_spec, b_spec, lo, hi, cap)
                assert got == (prods if len(prods) <= cap else None), (lo, hi, cap)
                longest, gave_up = max(longest, len(visited)), gave_up + (got is None)
    assert longest > 64 and gave_up
    # whole reports, singleton windows probed after an m = 2 window included
    for size_max, n in ((400, 2), (60, 3), (30, 2), (30, 16)):
        a, b, a_spec, b_spec = _random_explicit_pair(rng, size_max)
        horizon = 4 * a[-1] * b[-1]
        got = gap_witness(a_spec, b_spec, n, horizon)
        if _exact_scan_applies(a_spec, b_spec, a, b, horizon):
            want = brute_gap_witness_every_start(a, b, n, horizon)
        else:
            want = brute_gap_witness(a, b, n, geometric_grid(1, horizon // n, 1.1))
        assert (got.x, got.m, got.products_examined) == want


def test_probe_step_bound(rng, monkeypatch):
    # every leap passes a member bp of B' that no later step sees again, so
    # the walk takes at most min(|A'|, |B'| + P + 1) steps: A', B' the factors
    # that can pair (a * min(B) <= hi, min(A) * b <= hi), P the pairs whose
    # product lies in [lo, hi]; a walk stepping a by one over B's gaps does not
    for size_max, top in ((400, 3000), (40, 3000), (400, 400)):
        for _ in range(8):
            a, b, a_spec, b_spec = _random_explicit_pair(rng, size_max, top)
            for _ in range(20):
                lo = int(rng.randint(1, a[-1] * b[-1] + 2))
                hi = lo + int(rng.choice([0, 3, 40, lo // 50, lo]))
                cap = int(rng.choice([1, productset.EXACT_SCAN_MAX_PRODUCTS]))
                _, visited = _walk(monkeypatch, a_spec, b_spec, lo, hi, cap)
                a_can = [x for x in a if x * b[0] <= hi]
                b_can = [y for y in b if a[0] * y <= hi]
                pairs = sum(lo <= x * y <= hi for x in a_can for y in b_can)
                assert len(visited) == len(set(visited))
                assert len(visited) <= min(len(a_can), len(b_can) + pairs + 1), (lo, hi)


def test_gap_witness_sieves_only_before_m2(monkeypatch):
    # every window of these scans holds at most EXACT_SCAN_MAX_PRODUCTS
    # products, so the probe enumerates each by point queries, before the
    # first window with m = 2 and after it: no set is sieved or materialized
    calls, events = [], []
    sieve = intset._sieve_members
    monkeypatch.setattr(intset, "_sieve_members", lambda kind, hi, old=None: calls.append(hi) or sieve(kind, hi, old))
    members = IntegerSetSpec.members
    monkeypatch.setattr(IntegerSetSpec, "members", lambda self, lo, hi: events.append("members") or members(self, lo, hi))
    probe = productset._probe
    monkeypatch.setattr(productset, "_probe", lambda *args: events.append("probe") or probe(*args))
    primes, ex2 = IntegerSetSpec.primes(), IntegerSetSpec.example2(2, 4)
    sparse = EXPL([3, 1000003, 7000000019])
    for a, b, n, horizon, want in ((primes, primes, 4, 10**8, (2, 2, 2)),
                                   (ex2, SQUAREFREE, 2, 10**8, (1, 2, 1)),
                                   (primes, sparse, 2, 10**9, (3, 2, 1)),
                                   (sparse, primes, 2, 10**10, (3, 2, 1))):
        events.clear()
        r = gap_witness(a, b, n, horizon)
        assert (r.x, r.m, r.products_examined) == want
        assert "probe" in events and "members" not in events
    assert calls == []


def test_gap_witness_past_the_probe_budget_takes_the_array_path(monkeypatch):
    # [10^4, 2*10^4] x full: the windows [x, 4x] on the grid hold 0, then 37,
    # 1041, 2145 and 3361 products, which the probe enumerates; the next
    # holds 4697, past the budget, so it and every later window enumerated
    # in full take products_in, and the probe spends its budget once
    a_spec = IntegerSetSpec.interval_union(IntervalSet(((10**4, 2 * 10**4),)))
    probed, arrays = [], []
    probe, array = productset._probe, productset.products_in

    def spy_probe(a, b, lo, hi, cap):
        got = probe(a, b, lo, hi, cap)
        probed.append((lo, cap, got))
        return got

    monkeypatch.setattr(productset, "_probe", spy_probe)
    monkeypatch.setattr(productset, "products_in", lambda a, b, lo, hi: arrays.append(lo) or array(a, b, lo, hi))
    horizon, n = 10**5, 4
    r = gap_witness(a_spec, FULL, n, horizon)
    # the factors b <= horizon // 10^4 are every b that can pair
    want = brute_gap_witness(range(10**4, 2 * 10**4 + 1), range(1, horizon // 10**4 + 1), n,
                             geometric_grid(1, horizon // n, 1.1))
    assert (r.x, r.m, r.products_examined) == want == (5379, 2, 10759)
    full = [(lo, got) for lo, cap, got in probed if cap == productset.EXACT_SCAN_MAX_PRODUCTS]
    assert [lo for lo, got in full if got is None] == [3674] == [full[-1][0]]
    assert [len(got) for _, got in full if got] == [37, 1041, 2145, 3361]
    assert arrays == [3674, 4041, 4445, 4890, 5379]
    # past the m = 2 window, the probe asks for singletons only
    assert all(cap == 1 for lo, cap, _ in probed if lo > 5379) and len(probed) > len(full)
