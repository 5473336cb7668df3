"""Finite simulator of the harmonic measure on a window [k, N*k].

The measure of a set S inside the window is

    nu(S) = sum_{a in S} 1/(a * ln N),

so intervals get measure close to their normalized log-length
(ln b - ln a)/ln N.  A ratio cut rho plays the role of a multiplicative
tolerance: a ~ b when max(a,b)/min(a,b) <= rho, the class of a is the
integer interval [ceil(a/rho), floor(a*rho)] clipped to the window, and the
log coordinate map

    phi(a) = (ln a - ln k)/ln N

sends the window order-isomorphically onto [0, 1].

Every approximation made by replacing harmonic sums with log-lengths (or by
integer floors during inversion) is tracked by explicit additive bounds,
derived from ln(s+1) - ln(r) <= sum_{i=r}^{s} 1/i <= ln(s) - ln(r-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._np import np
from .errors import DomainError, ValidationError
from .intset import IntervalSet, Window, classify, invert_intervals
from .numerics import ceil_nth_root, harmonic_range, power_sum_range, round12

__all__ = [
    "RatioCut",
    "WindowMeasureReport",
    "ScaleCheckReport",
    "InversionCheckReport",
    "nu",
    "interval_measure",
    "big_estimate",
    "phi",
    "monad_of",
    "equivalent",
    "scale_check",
    "invert_point",
    "inversion_check",
    "density_plus",
    "density_minus",
    "local_density_estimate",
    "nu_m",
    "root_shift",
]


@dataclass(frozen=True)
class RatioCut:
    """Multiplicative tolerance rho >= 1, kept exact as a Fraction."""

    rho: Fraction

    def __post_init__(self):
        rho = self.rho if isinstance(self.rho, Fraction) else Fraction(self.rho)
        if rho < 1:
            raise ValidationError("ratio cut requires rho >= 1")
        object.__setattr__(self, "rho", rho)

    @property
    def log_rho(self) -> float:
        return math.log(self.rho)

    def squared(self) -> "RatioCut":
        return RatioCut(self.rho * self.rho)


@dataclass(frozen=True)
class WindowMeasureReport:
    """A window measure value together with its summation error bound.

    Values lie in [0, 1 + 5/ln N]: subsets of the window cannot exceed the
    whole-window measure, which itself is 1 up to the harmonic-number
    correction (at most 5/ln N for every supported window).
    """

    window: Window
    value: float
    error_bound: float

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValidationError("error bound must be nonnegative")
        cap = 1.0 + 5.0 / self.window.log_span
        if not -self.error_bound <= self.value <= cap + self.error_bound:
            raise ValidationError("measure outside [0, 1 + 5/ln N]")

    def to_json(self) -> dict:
        return {
            "window": {"k": self.window.k, "N": self.window.N},
            "value": round12(self.value),
            "error_bound": round12(self.error_bound),
        }


def _as_components(window: Window, s) -> tuple[tuple[int, int], ...] | np.ndarray:
    """Validate S inside the window; return components or an element array."""
    if isinstance(s, IntervalSet):
        if s and (s.components[0][0] < window.lo or s.components[-1][1] > window.hi):
            raise DomainError("set does not lie inside the window")
        return s.components
    arr = np.asarray(s, dtype=np.int64)
    if arr.size and (int(arr.min()) < window.lo or int(arr.max()) > window.hi):
        raise DomainError("element outside the window")
    return arr


def nu(window: Window, s) -> WindowMeasureReport:
    """Harmonic window measure sum_{a in S} 1/(a ln N) of an IntervalSet or
    element list inside [k, N*k].

    Interval components are summed in O(1) each by ``power_sum_range``
    (within 1e-14 relative per component); element lists are summed
    pairwise.  The error bound reported covers summation error only.
    """
    comps = _as_components(window, s)
    log_n = window.log_span
    if not isinstance(comps, tuple):  # an element array
        if comps.size == 0:
            return WindowMeasureReport(window, 0.0, 0.0)
        raw = float(np.sum(np.reciprocal(comps.astype(np.float64))))
        err = (math.log2(comps.size) + 2) * 2.3e-16 * raw
        return WindowMeasureReport(window, raw / log_n, err / log_n)
    total = 0.0
    err = 0.0
    for a, b in comps:
        part = harmonic_range(a, b)
        total += part
        err += 1e-13 * (1.0 + part)
    return WindowMeasureReport(window, total / log_n, err / log_n)


def interval_measure(window: Window, a: int, b: int) -> float:
    """(ln b - ln a)/ln N; agrees with nu on [a, b] within (2/a + 2/k)/ln N."""
    if not window.lo <= a <= b <= window.hi:
        raise DomainError("need k <= a <= b <= N*k")
    return (math.log(b) - math.log(a)) / window.log_span


def big_estimate(window: Window, s: IntervalSet, ratio_floor=2.5) -> float:
    """Log-length estimate (1/ln N) sum_i (ln b_i - ln a_i) for a set with
    big components; agrees with nu within
    (1/ln 2) * max_i (ln a_i - ln(a_i - 1)) plus summation slack."""
    if not s:
        raise DomainError("big_estimate needs a nonempty set")
    if not classify(s, window.hi, ratio_floor)["big"]:
        raise DomainError("big_estimate requires big components")
    _as_components(window, s)
    return sum(math.log(b) - math.log(a) for a, b in s.components) / window.log_span


def phi(window: Window, a: int) -> float:
    """Log coordinate (ln a - ln k)/ln N in [0, 1]."""
    if not window.contains(a):
        raise DomainError("point outside the window")
    return (math.log(a) - math.log(window.k)) / window.log_span


def monad_of(window: Window, cut: RatioCut, a: int) -> tuple[int, int]:
    """Equivalence class of a under the ratio cut, clipped to the window:
    [max(k, ceil(a/rho)), min(N*k, floor(a*rho))]."""
    p, q = cut.rho.numerator, cut.rho.denominator
    lo = max(window.lo, -((-a * q) // p))
    hi = min(window.hi, (a * p) // q)
    return lo, hi


def equivalent(cut: RatioCut, a: int, b: int) -> bool:
    """max(a,b)/min(a,b) <= rho, evaluated in exact integer arithmetic."""
    if a < 1 or b < 1:
        raise DomainError("equivalence defined for positive integers")
    lo, hi = (a, b) if a <= b else (b, a)
    return hi * cut.rho.denominator <= lo * cut.rho.numerator


@dataclass(frozen=True)
class ScaleCheckReport:
    nu_source: float
    nu_image: float
    discrepancy: float
    bound: float

    def to_json(self) -> dict:
        return {
            "nu_source": round12(self.nu_source),
            "nu_image": round12(self.nu_image),
            "discrepancy": round12(self.discrepancy),
            "bound": round12(self.bound),
        }


def scale_check(window: Window, s: IntervalSet, scale: int) -> ScaleCheckReport:
    """Empirical check that scaling x -> scale*x preserves the window measure.

    nu_source is nu of S in (k, N); nu_image sums 1/(x ln N) over the scaled
    components [scale*a_i, scale*b_i] inside the window (k*scale, N).  The
    discrepancy obeys  <= 3 * (#components) / (min a_i * ln N) + 1e-6.
    """
    if scale < 1:
        raise DomainError("scale must be a positive integer")
    if not s:
        raise DomainError("scale_check needs a nonempty set")
    if not classify(s, window.hi, 2.5)["big"]:
        raise DomainError("scale_check requires big components")
    source = nu(window, s)
    image_window = Window(window.k * scale, window.N)
    image = IntervalSet(tuple((a * scale, b * scale) for a, b in s.components))
    target = nu(image_window, image)
    discrepancy = abs(source.value - target.value)
    bound = 3.0 * len(s.components) / (s.components[0][0] * window.log_span) + 1e-6
    return ScaleCheckReport(source.value, target.value, discrepancy, bound)


def invert_point(n: int, u: int) -> int:
    """floor(N/u), the window involution on points."""
    if not 1 <= u <= n:
        raise DomainError("need 1 <= u <= N")
    return n // u


@dataclass(frozen=True)
class InversionCheckReport:
    nu_set: float
    nu_inverse: float
    discrepancy: float
    bound: float

    def to_json(self) -> dict:
        return {
            "nu_set": round12(self.nu_set),
            "nu_inverse": round12(self.nu_inverse),
            "discrepancy": round12(self.discrepancy),
            "bound": round12(self.bound),
        }


def inversion_check(window: Window, s: IntervalSet, margin: int = 1000) -> InversionCheckReport:
    """Check nu(S) = nu(S^{-1}) for big, separated S with b_i <= N/margin.

    The bound combines the end-point drifts |ln((N-a_i)/N)| with explicit
    floor slack: two |ln(1 - b_i/N)| terms for the floored endpoints and the
    harmonic-vs-log correction 1/(a_i - 1) + 1/(floor(N/b_i) - 1) per
    component, all divided by ln N, plus the fixed 1e-4 allowance.
    """
    if window.k != 1:
        raise DomainError("inversion_check expects a window with k = 1")
    if margin < 1000:
        raise DomainError("margin must be at least 1000")
    n = window.N
    flags = classify(s, n, 2.5)
    if not (flags["big"] and flags["separated"]):
        raise DomainError("inversion_check requires big and separated components")
    if any(b * margin > n for _, b in s.components):
        raise DomainError(f"components must satisfy b_i <= N/{margin}")
    inverse = invert_intervals(s, n)
    nu_set = nu(window, s)
    nu_inv = nu(window, inverse)
    slack = 0.0
    for a, b in s.components:
        slack += abs(math.log((n - a) / n))
        slack += 2.0 * abs(math.log1p(-b / n))
        slack += 1.0 / max(1, a - 1) + 1.0 / max(1, n // b - 1)
    bound = slack / window.log_span + 1e-4
    return InversionCheckReport(nu_set.value, nu_inv.value, abs(nu_set.value - nu_inv.value), bound)


def _local_measures(window: Window, cut: RatioCut, x_set: IntervalSet, x: int, r_grid, bounds):
    """(r, nu-sum of X over bounds(r) / ln r) for each r of the grid, in
    increasing r; ``bounds(r)`` is the (lo, hi) of the window at x, widest
    at the largest r."""
    if not window.contains(x):
        raise DomainError("base point outside the window")
    rs = sorted(float(r) for r in r_grid)
    if not rs:
        raise DomainError("empty r grid")
    if Fraction(rs[0]) <= cut.rho:
        raise DomainError("grid values must exceed the cut rho")
    windows = [bounds(r) for r in rs]
    if windows[-1][0] < window.lo or windows[-1][1] > window.hi:
        raise DomainError("grid exceeds the window")
    sums = [sum(harmonic_range(a, b) for a, b in x_set.clip(lo, hi).components) for lo, hi in windows]
    return [(r, total / math.log(r)) for r, total in zip(rs, sums)]


def density_plus(window: Window, cut: RatioCut, x_set: IntervalSet, x: int, r_grid) -> list[tuple[float, float]]:
    """Local measures of X over right windows [x, floor(x*r)], normalized by
    ln r, for each r in the grid (all r must exceed the cut's rho).

    The local density estimate at x is the minimum over the grid tail; see
    ``local_density_estimate``.
    """
    return _local_measures(window, cut, x_set, x, r_grid, lambda r: (x, math.floor(x * r)))


def density_minus(window: Window, cut: RatioCut, x_set: IntervalSet, x: int, r_grid) -> list[tuple[float, float]]:
    """Mirrored local measures over left windows [floor(x/r), x].

    The mirror convention: the left window is [floor(x/r), x] and the
    normalizer is the same ln r.
    """
    return _local_measures(window, cut, x_set, x, r_grid, lambda r: (math.floor(x / r), x))


def local_density_estimate(rows: list[tuple[float, float]]) -> float:
    """Finite local density estimate: minimum local measure over the grid."""
    if not rows:
        raise DomainError("no local measures")
    return min(v for _, v in rows)


def nu_m(n_root: int, m: int, s, k: int) -> float:
    """Root-coordinate window measure (1/(m*Nroot)) sum_{a in S} a^(-(m-1)/m)
    for S inside I = [k, (ceil(k^(1/m)) + Nroot)^m]."""
    if m < 1 or n_root < 1 or k < 1:
        raise DomainError("need m, Nroot, k >= 1")
    top = (ceil_nth_root(k, m) + n_root) ** m
    beta = (m - 1) / m
    if isinstance(s, IntervalSet):
        if s and (s.components[0][0] < k or s.components[-1][1] > top):
            raise DomainError("set outside the root window")
        total = sum(power_sum_range(a, b, beta) for a, b in s.components)
    else:
        arr = np.asarray(s, dtype=np.int64)
        if arr.size == 0:
            return 0.0
        if int(arr.min()) < k or int(arr.max()) > top:
            raise DomainError("element outside the root window")
        total = float(np.sum(arr.astype(np.float64) ** (-beta))) if beta else float(arr.size)
    return total / (m * n_root)


def root_shift(a: int, c: int, m: int) -> int:
    """(ceil(a^(1/m)) + c)^m with the root taken exactly in integers."""
    if a < 1 or m < 1 or c < 0:
        raise DomainError("need a >= 1, c >= 0, m >= 1")
    return (ceil_nth_root(a, m) + c) ** m
