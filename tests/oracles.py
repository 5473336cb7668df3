"""Independent brute-force oracles.

Everything here is written the dumb, obviously-correct way (math.fsum,
full scans, trial division, crossing off the multiples of every d) and deliberately shares no code with the
library paths it checks.  Frozen expected values in the test modules were
computed with these oracles.
"""

import math
from bisect import bisect_left, bisect_right


def brute_squarefree(hi):
    """Squarefree list: every multiple of d*d is crossed off, for every
    d >= 2 (prime or not), so x survives when no d*d divides it."""
    keep = [True] * (hi + 1)
    for d in range(2, math.isqrt(hi) + 1):
        for x in range(d * d, hi + 1, d * d):
            keep[x] = False
    return [x for x in range(1, hi + 1) if keep[x]]


def brute_primes(hi):
    """Prime list: every multiple x >= d*d of d is crossed off, for every
    d >= 2 (prime or not), so x >= 2 survives when no d <= sqrt(x) divides it."""
    keep = [True] * (hi + 1)
    for d in range(2, math.isqrt(hi) + 1):
        for x in range(d * d, hi + 1, d):
            keep[x] = False
    return [x for x in range(2, hi + 1) if keep[x]]


def brute_harmonic(lo, hi):
    return math.fsum(1.0 / x for x in range(lo, hi + 1))


def brute_log_value(elements, n):
    return math.fsum(1.0 / x for x in elements if x <= n) / math.log(n)


def brute_banach_sup(elements, n, horizon):
    """g_H(n) by scanning every k with k*n <= horizon + 1."""
    best, best_k = 0.0, 0
    for k in range(1, (horizon + 1) // n + 1):
        i0 = bisect_left(elements, k)
        i1 = bisect_left(elements, k * n)
        s = math.fsum(1.0 / x for x in elements[i0:i1])
        if s > best:
            best, best_k = s, k
    return best, best_k


def brute_bd(elements, n, horizon):
    """Banach density window max by scanning every k <= horizon - n."""
    best = 0
    for k in range(1, horizon - n + 1):
        c = bisect_right(elements, k + n) - bisect_left(elements, k)
        best = max(best, c)
    return best / (n + 1)


def brute_bd_at(elements, n, horizon):
    """(best count, k*) of the windows [k, k+n], k <= horizon - n, by
    scanning every k: k* is the smallest member k <= horizon - n whose
    window reaches the best count, else horizon - n."""
    kmax = horizon - n
    counts = [bisect_right(elements, k + n) - bisect_left(elements, k) for k in range(1, kmax + 1)]
    best = max(counts)
    for x in elements:
        if x <= kmax and counts[x - 1] == best:
            return best, x
    return best, kmax


def _ceil_root(a, m):
    r = round(a ** (1.0 / m))
    while r**m < a:
        r += 1
    while r > 1 and (r - 1) ** m >= a:
        r -= 1
    return r


def brute_bdm(elements, m, n, horizon):
    """Weighted root-window max by scanning every k."""
    best = 0.0
    k = 1
    while True:
        top = (_ceil_root(k, m) + n) ** m
        if top > horizon:
            break
        i0 = bisect_left(elements, k)
        i1 = bisect_right(elements, top)
        s = math.fsum(x ** (-(m - 1) / m) for x in elements[i0:i1])
        best = max(best, s / (m * n))
        k += 1
    return best


def brute_count_extremes(elements, horizon):
    """(min, max) over every n in [1, horizon] of |A cap [1, n]| / n."""
    members, count, ratios = set(elements), 0, []
    for n in range(1, horizon + 1):
        count += n in members
        ratios.append(count / n)
    return min(ratios), max(ratios)


def brute_window_count_max(elements, n, horizon):
    """max over k of |A cap [k, k+n]| / n (the m=1 weighted form)."""
    best = 0
    for k in range(1, horizon - n + 1):
        c = bisect_right(elements, k + n) - bisect_left(elements, k)
        best = max(best, c)
    return best / n


def has_n_approx(elements, x, n):
    i = bisect_right(elements, x * n - 1)
    return i > 0 and elements[i - 1] * n > x


def brute_find_geo(elements, l, n, min_a, min_r, horizon):
    """Lexicographically least (a, r): plain triple-nested scan."""
    a = min_a + 1
    while a * (min_r + 1) ** (l - 1) * n <= horizon:
        r = min_r + 1
        while a * r ** (l - 1) * n <= horizon:
            if all(has_n_approx(elements, a * r**i, n) for i in range(l)):
                return a, r
            r += 1
        a += 1
    return None


def brute_find_power_ap(elements, m, l, n, min_a, min_d, horizon):
    """Lexicographically least (a, d) whose pattern (ceil(a^(1/m)) + i*d)^m,
    i < l, is n-approximated with n times its last term within the horizon:
    plain nested scan over a, then d."""
    a = min_a + 1
    while (_ceil_root(a, m) + (l - 1) * (min_d + 1)) ** m * n <= horizon:
        t0 = _ceil_root(a, m)
        d = min_d + 1
        while (t0 + (l - 1) * d) ** m * n <= horizon:
            if all(has_n_approx(elements, (t0 + i * d) ** m, n) for i in range(l)):
                return a, d
            d += 1
        a += 1
    return None


def brute_gp3_free(elements, horizon):
    """No 3-term GP with b*b = a*c: cubic scan over element pairs."""
    elem_set = set(elements)
    els = [x for x in elements if x <= horizon]
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if (b * b) % a == 0:
                c = (b * b) // a
                if c in elem_set:
                    return False
    return True


def brute_products(a_elements, b_elements, lo, hi):
    out = set()
    for a in a_elements:
        for b in b_elements:
            if lo <= a * b <= hi:
                out.add(a * b)
    return sorted(out)


def brute_gap_witness(a_elements, b_elements, n, cands):
    """(x, m, product count) of the window [x, n*x], x in cands, with the
    least gap statistic m, ties to the smallest x; None when every window is
    empty.  Every window is enumerated in full, its leading gap from x
    included."""
    best = None
    for x in sorted(cands):
        a_in, b_in = [a for a in a_elements if a <= n * x], [b for b in b_elements if b <= n * x]
        prods = brute_products(a_in, b_in, x, n * x)
        if prods:
            m = max(-(-prods[0] // x), brute_max_gap_ratio(prods))
            if best is None or m < best[1]:
                best = (x, m, len(prods))
    return best


def brute_gap_witness_every_start(a_elements, b_elements, n, horizon):
    """``brute_gap_witness`` over every start x in [1, horizon // n], fast
    enough for tens of millions of starts: the windows of 2^18 starts at a
    time are cut from the sorted list of every product up to the horizon,
    and the largest ceiling ratio of consecutive products in each window is
    read from a sparse table (level l holds the maxima of 2^l ratios)."""
    import numpy as np

    prods = np.array(brute_products(a_elements, b_elements, 1, horizon), dtype=np.int64)
    ratios = -(-prods[1:] // prods[:-1])
    levels = [ratios]
    while 2 ** len(levels) <= len(ratios):
        half = 2 ** (len(levels) - 1)
        levels.append(np.maximum(levels[-1][:-half], levels[-1][half:]))
    best = None
    for x0 in range(1, horizon // n + 1, 1 << 18):
        x = np.arange(x0, min(x0 + (1 << 18), horizon // n + 1), dtype=np.int64)
        i = np.searchsorted(prods, x, side="left")
        j = np.searchsorted(prods, n * x, side="right")
        x, i, j = x[j > i], i[j > i], j[j > i]
        m = -(-prods[i] // x)  # the leading gap
        pairs = j - i - 1  # the window's ratios are ratios[i : j - 1]
        for level, table in enumerate(levels):
            w = np.flatnonzero((pairs >= 2**level) & (pairs < 2 ** (level + 1)))
            inner = np.maximum(table[i[w]], table[j[w] - 1 - 2**level])
            m[w] = np.maximum(m[w], inner)
        if len(m) and (best is None or m.min() < best[1]):
            k = int(np.argmin(m))
            best = (int(x[k]), int(m[k]), int(j[k] - i[k]))
    return best


def brute_max_gap_ratio(products):
    if len(products) < 2:
        return 1
    return max(-(-q // p) for p, q in zip(products, products[1:]))


def brute_find_gp3(elements, horizon, member_beyond):
    """First (a, b, c) with a < b <= horizon in A, b*b = a*c and c in A, in
    (a, b) order; c <= horizon is looked up in the element list and
    c > horizon is decided by ``member_beyond(c)``."""
    elem_set = set(elements)
    els = [x for x in elements if x <= horizon]
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if (b * b) % a:
                continue
            c = (b * b) // a
            if (c in elem_set) if c <= horizon else member_beyond(c):
                return a, b, c
    return None


def is_squarefree_td(x):
    return all(x % (d * d) for d in range(2, math.isqrt(x) + 1))


def is_prime_td(x):
    return x >= 2 and all(x % d for d in range(2, math.isqrt(x) + 1))
