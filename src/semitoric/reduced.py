"""Reduced one-degree-of-freedom models around the NS and SN singularities.

Everything here lives in r1-scaled units: the level offset l and the fibre
coordinate p2 are dimensionless multiples of r1 and the only geometric
parameter is the ratio R = r2/r1.  The reduced Hamiltonian on a level
splits as A_l(p2) + sqrt(B_l(p2)) cos(q2); B >= 0 defines the physical
region.  The SN model uses the reflected coordinates (q2 -> -q2,
p2 -> 2R - p2), so both labels share the convention that the physical
interval starts at p2 = 0.

A_l and B_l are written down once for both labels, in ``_chart_a`` and
``_chart_b``, on the p2-independent terms of a level (``_chart_terms``)
and spin 1's level offset: with sigma = +1 for NS and -1 for SN,
A_l = (1 - 2 s1)(sigma (1 - 2 s2) - (1 - s2)(p2 - l) + s2 p2/R) and
B_l = 4 c^2 (p2/R)((p2 - 2R)/R) x (x - 2) with x = p2 - sigma l, so no two
terms of size R cancel.  ``chart(label, l, params)`` returns them as
functions of p2, and ``cartography.image_boundary`` calls them on all its
levels.  The level and p2 broadcast as NumPy arrays do, each element with
the operations of a float call in the same order, so all give the same
bits; mpf parameters give mpf values.  ``reduced_A`` and ``reduced_B`` are
scalar conveniences over ``chart``.  ``DHFunction.rho`` also takes a float
or an array.  ``gamma_B`` (shared with ``height``) gives the closed-form
roots of P_0 (``roots_P0``).  ``p0_quadratic_roots`` gives the roots of
P_0's quadratic factor from the factored l = 0 chart (``p0_factors``) with
no cancellation: ``roots_P0`` checks its closed form against them, and the
height oracle's arccos zone ends at the near one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .model import ModelParams

LABELS = ("NS", "SN")


def _check_label(label: str) -> int:
    """sigma of the label: +1 for NS, -1 for SN."""
    if label not in LABELS:
        raise ValueError(f"label must be 'NS' or 'SN', got {label!r}")
    return 1 if label == "NS" else -1


def _chart_terms(label: str, l, params: ModelParams):
    """(k, base, m, c4): the p2-independent terms of the chart, with
    k = 1 - 2 s1, base = sigma (1 - 2 s2), m = sigma l in the shape of ``l``
    and c4 = 4 c^2, so that A_l = k (base - (1 - s2)(p2 - l) + s2 p2/R)
    and B_l = c4 (p2/R) ((p2 - 2R)/R) x (x - 2) with x = p2 - m.
    """
    sigma = _check_label(label)
    c = params.coupling
    return 1 - 2 * params.s1, sigma * (1 - 2 * params.s2), sigma * l, 4 * c * c


def _chart_a(k, base, s2, R, x, p2):
    # x = p2 - l: no two terms of size R cancel.
    return k * (base - (1 - s2) * x + s2 * (p2 / R))


def _chart_b(c4, R, x, p2, p2_2r):
    # x = p2 - m and p2_2r = p2 - 2R, formed by the caller.
    return c4 * (p2 / R) * (p2_2r / R) * x * (x - 2)


def chart(label: str, l, params: ModelParams):
    """The reduced chart at level offset ``l`` as a pair of functions (A, B).

    A(p2) is the polynomial part A_l(p2) of the reduced Hamiltonian and
    B(p2) the radicand B_l(p2), non-negative exactly on the physical region.
    ``l`` and ``p2`` broadcast: a float or an array of either, for example
    a column of levels against one row of p2 values per level.
    """
    k, base, m, c4 = _chart_terms(label, l, params)
    R, s2 = params.R, params.s2
    return (lambda p2: _chart_a(k, base, s2, R, p2 - l, p2),
            lambda p2: _chart_b(c4, R, p2 - m, p2, p2 - 2 * R))


def reduced_A(label: str, l: float, p2: float, params: ModelParams) -> float:
    """Polynomial part A_l(p2) of the reduced Hamiltonian."""
    return chart(label, l, params)[0](p2)


def reduced_B(label: str, l: float, p2: float, params: ModelParams) -> float:
    """Radicand B_l(p2); non-negative exactly on the physical region."""
    return chart(label, l, params)[1](p2)


def physical_interval(label: str, l: float, R: float):
    """p2-interval [max(0, m), min(2R, m + 2)] of the physical region at
    level offset ``l``, with m = l for NS and -l for SN."""
    m = _check_label(label) * l
    if not -2.0 <= m <= 2.0 * R:
        span = "[-2, 2R]" if label == "NS" else "[-2R, 2]"
        raise ValueError(f"l = {l} outside {span} for {label}")
    lo, hi = max(0.0, m), min(2.0 * R, m + 2.0)
    if lo > hi:
        raise ValueError("empty physical interval")
    return lo, hi


def _k_and_m(s1, s2, r2, r1=1):
    """(r1 k, m) = ((2 s1 - 1)(r2 (s2 - 1) + r1 s2), s1^2 - s1 + s2^2 - s2).
    Called as (s1, s2, R) it gives k itself (1 * s2 is s2 exactly), zero on
    both case-III lines; with the radii it needs no division by r1."""
    m = s1 * s1 - s1 + s2 * s2 - s2
    return (2 * s1 - 1) * (r2 * (s2 - 1) + r1 * s2), m


def gamma_B(s1: float, s2: float, R: float) -> float:
    """k^2 + 4 (R - 1)^2 m^2, a sum of squares (see
    ``height.closed_form_F``)."""
    k, m = _k_and_m(s1, s2, R)
    return k * k + 4 * ((R - 1) * (R - 1)) * (m * m)


def p0_factors(label: str, params: ModelParams):
    """(kb, k/R): the two constants of the factored l = 0 chart.

    For both labels A(p2) - H_crit = (k/R) p2 and B(p2) =
    kb p2^2 (2R - p2)(2 - p2), with kb = 4c^2/R^2 and
    k = (1-2s1)(s2(1+R) - R), so P_0 = p2^2 (kb (2R - p2)(2 - p2) - (k/R)^2).
    """
    _check_label(label)
    R, s1, s2 = params.R, params.s1, params.s2
    c = params.coupling
    k = (1 - 2 * s1) * (s2 * (1 + R) - R)
    return 4 * c * c / R ** 2, k / R


def p0_coefficients(label: str, params: ModelParams) -> np.ndarray:
    """Coefficients of P_0 (l = h = 0), highest degree first, expanded from
    the factored form of ``p0_factors``."""
    (a4, kr), R = p0_factors(label, params), params.R
    # a4 * p2^2 * (p2^2 - 2(R+1) p2 + 4R) - (k/R)^2 p2^2
    return np.array([a4, -2 * (R + 1) * a4, 4 * R * a4 - kr ** 2, 0.0, 0.0])


def p0_quadratic_roots(label: str, params: ModelParams):
    """Roots (near, far) of the quadratic factor of P_0, from ``p0_factors``.

    P_0 = kb p2^2 (p2^2 - 2 (R + 1) p2 + 4R - K^2) with K^2 = (k/R)^2 / kb,
    so far = (R + 1) + sqrt((R - 1)^2 + K^2) and near = (4R - K^2) / far.
    The radicand is a sum of squares and far a sum of positive terms, so
    neither cancels, whereas the discriminant c3^2 - 4 c4 c2 of the
    expanded coefficients does as (R - 1)^2 + K^2 goes to 0.  Only
    4R - K^2 can cancel: next to the degeneracy band, where near itself
    goes to 0.
    """
    (kb, kr), R = p0_factors(label, params), params.R
    k2 = kr * kr / kb
    far = (R + 1) + math.sqrt((R - 1) * (R - 1) + k2)
    return (4 * R - k2) / far, far


@dataclass(frozen=True)
class QuarticRoots:
    z1: complex
    z2: complex
    z3: complex
    z4: complex
    all_real: bool

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3, self.z4])


def roots_P0(label: str, params: ModelParams) -> QuarticRoots:
    """Roots (0, 0, zeta3, zeta4) of P_0 in closed form.

    zeta_{3,4} = 1 + R -/+ sqrt(gamma_B) / (2 c), cross-checked to 1e-9
    against the roots of the quadratic factor of the chart's P_0
    (``p0_quadratic_roots``); the double root 0 is the factor p2^2 of that
    P_0.
    """
    _check_label(label)
    R, s1, s2 = params.R, params.s1, params.s2
    c = params.coupling
    if c == 0.0:
        raise ValueError("coupling vanishes at (s1, s2) corners; P0 is degenerate")
    half_span = math.sqrt(gamma_B(s1, s2, R)) / (2 * c)
    z3 = 1 + R - half_span
    z4 = 1 + R + half_span
    chart = p0_quadratic_roots(label, params)
    if not (abs(chart[0] - z3) <= 1e-9 and abs(chart[1] - z4) <= 1e-9):
        raise ConsistencyError(
            f"closed-form roots {z3}, {z4} disagree with the roots {chart} of "
            f"the quadratic factor of the chart's P_0")
    return QuarticRoots(0.0, 0.0, z3, z4, all_real=True)


@dataclass(frozen=True)
class DHFunction:
    """Piecewise-linear Duistermaat-Heckman profile in scaled NS units.

    ``breakpoints`` is a list of (l, slope-after) pairs; the profile is zero
    at both ends of ``domain`` and the slope drops by one at each interior
    breakpoint (the focus-focus levels); it is linear between its ``knots``.
    """

    breakpoints: tuple
    domain: tuple
    knots: tuple = field(init=False, repr=False, compare=False)  # (ls, rho)

    def __post_init__(self):
        lo, hi = self.domain
        ls = [lo] + [bp[0] for bp in self.breakpoints[1:]] + [hi]
        values = [0.0]
        for (_, slope), x0, x1 in zip(self.breakpoints, ls, ls[1:]):
            values.append(values[-1] + slope * (x1 - x0))
        object.__setattr__(self, "knots", (tuple(ls), tuple(values)))

    def rho(self, l):
        """The profile at ``l``, a float or an array (NaN is outside), by
        ``np.interp`` over the knots: its slopes are exactly 1, 0 and -1 (the
        last by Sterbenz), so every value has the bits of the knots' sum."""
        lo, hi = self.domain
        x = np.asarray(l, dtype=float)
        inside = (lo <= x) & (x <= hi)
        if not inside.all():
            raise ValueError(f"l = {x[~inside][0]} outside domain "
                             f"{self.domain}")
        y = np.interp(x, *self.knots)
        return float(y) if y.ndim == 0 else y

    def slope_jump(self, l: float) -> float:
        """Change of slope at an interior breakpoint."""
        for i, (bl, slope_after) in enumerate(self.breakpoints):
            if bl == l and i > 0:
                return slope_after - self.breakpoints[i - 1][1]
        raise ValueError(f"no interior breakpoint at l = {l}")


@functools.lru_cache(maxsize=16, typed=True)
def dh_function(R: float) -> DHFunction:
    """DH profile rho(l) = min(2R, l+2) - max(0, l) on [-2, 2R] for R > 1,
    memoised per R and its type; a rejected R raises on every call."""
    if not (1.0 < R < math.inf):  # NaN knots would pass every check
        raise ValueError(f"dh_function requires a finite R > 1, got R = "
                         f"{R!r} (apply the sphere-swap symmetry for R < 1)")
    dh = DHFunction(
        breakpoints=((-2.0, 1.0), (0.0, 0.0), (2.0 * R - 2.0, -1.0)),
        domain=(-2.0, 2.0 * R),
    )
    # Both are linear between the knots, so this checks the whole domain.
    for l, value in zip(*dh.knots):
        hi = l + 2.0 if l + 2.0 < 2.0 * R else 2.0 * R
        if abs(value - (hi - (l if l > 0.0 else 0.0))) > 1e-12:
            raise ConsistencyError("DH profile disagrees with interval length")
    return dh


def ff_levels(R: float):
    """Scaled NS-chart l-values of the two focus-focus levels."""
    return (0.0, 2.0 * R - 2.0)
