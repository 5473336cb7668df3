"""Scalar numeric kernels: reciprocal-power range sums, harmonic numbers,
exact integer m-th roots, geometric grids and the 12-digit rounding of
reports.  Everything here runs on Python ints and floats and builds no
array; the array kernels (``PrefixSums``, ``BlockSums``, ``power_sums``)
are in ``densitylab.views``.

Everything downstream reduces to sums of the form

    sum_{x in S, lo <= x <= hi} x**(-beta),   0 <= beta <= 1,

over a set's members or over full integer ranges.  ``power_sum_range``
sums one range: at most EXACT_TERMS terms term by term, a longer range as
an exact head below EXACT_TERMS plus an Euler-Maclaurin tail.  It is the
scalar twin of ``views.power_sums``, with the same formula and its 1e-14
relative bound in Python floats.  It uses only ``math`` operations and
float arithmetic, none of which numpy picks a kernel for by CPU, so it
gives the same bits whatever CPU features numpy finds; it may differ from
``power_sums`` in the last place.

``PrefixSums`` read through this module is the class of ``views``
(loading it): the span tracer of ``perfbench`` wraps
``numerics.PrefixSums`` in place.
"""

from __future__ import annotations

import math

__all__ = [
    "power_sum_range",
    "harmonic_range",
    "harmonic_number",
    "floor_nth_root",
    "ceil_nth_root",
    "geometric_grid",
    "round12",
]

# Ranges of at most this many terms are summed term by term; a longer one
# sums its terms below this term by term and the rest by Euler-Maclaurin.
EXACT_TERMS = 256


def power_sum_range(lo: int, hi: int, beta: float) -> float:
    """sum_{x=lo}^{hi} x**(-beta) for integers 1 <= lo <= hi, 0 <= beta <= 1,
    within 1e-14 relative: the scalar twin of ``power_sums``, with its formula
    in Python floats.  The head of at most EXACT_TERMS terms is summed by
    ``math.fsum``, so the float may differ from ``power_sums`` in the last
    place.  The endpoints may be Python ints of any size; beta = 0 counts the
    range exactly."""
    if hi < lo:
        return 0.0
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if beta == 0.0:
        return float(hi - lo + 1)
    top = EXACT_TERMS - 1 if hi - lo >= EXACT_TERMS else hi  # the last term summed term by term
    head = math.fsum(_power(float(x), beta) for x in range(lo, top + 1))
    if top == hi:
        return head
    a_int = max(lo, EXACT_TERMS)
    a, b = float(a_int), float(hi)
    ratio = math.log1p(float(hi - a_int) / a)  # log(b / a)
    integral = ratio if beta == 1.0 else a ** (1.0 - beta) * math.expm1((1.0 - beta) * ratio) / (1.0 - beta)
    fa, fb = _power(a, beta), _power(b, beta)
    return head + (integral + 0.5 * (fa + fb) + (beta / 12.0) * (fa / a - fb / b)
                   - (beta * (beta + 1.0) * (beta + 2.0) / 720.0) * (fa / a**3 - fb / b**3))


def _power(x: float, beta: float) -> float:
    return 1.0 / x if beta == 1.0 else x ** -beta


def harmonic_range(lo: int, hi: int) -> float:
    """H(hi) - H(lo-1) = sum of 1/x over the integer range [lo, hi]."""
    return power_sum_range(lo, hi, 1.0)


def harmonic_number(n: int) -> float:
    """The n-th harmonic number H(n)."""
    if n < 1:
        return 0.0
    return harmonic_range(1, n)


def floor_nth_root(a: int, m: int) -> int:
    """Largest r with r**m <= a, by integer binary search (a >= 0, m >= 1)."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    if m == 1 or a < 2:
        return a
    if m == 2:
        return math.isqrt(a)
    lo, hi = 1, 1 << (a.bit_length() // m + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**m <= a:
            lo = mid
        else:
            hi = mid - 1
    return lo


def ceil_nth_root(a: int, m: int) -> int:
    """Smallest r with r**m >= a."""
    r = floor_nth_root(a, m)
    return r if r**m == a else r + 1


def round12(v: float) -> float:
    """Round to 12 significant digits (report serialization contract)."""
    return float(f"{v:.12g}")


def geometric_grid(lo: int, hi: int, ratio: float = math.sqrt(2.0)) -> list[int]:
    """Strictly increasing integer grid from lo to at most hi, step ~ratio."""
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    grid = []
    g = lo
    while g <= hi:
        grid.append(g)
        g = max(g + 1, int(g * ratio + 0.5))
    return grid


def __getattr__(name):
    if name == "PrefixSums":
        from .views import PrefixSums

        return PrefixSums
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
