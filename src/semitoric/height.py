"""Height invariant (h1, h2): closed-form evaluation with case logic plus an
independent quadrature oracle on the reduced phase space.

The closed form is evaluated through a partial-fraction decomposition into
two elementary definite integrals (the numerically tame path) and
cross-checked against the direct arctan/log expression; the two must agree
to 1e-8 or a branch-selection error is raised.

The oracle never touches the closed forms: it measures the area of the
sublevel set of the reduced Hamiltonian below the critical value by
adaptive quadrature of the angular width 2*arccos((A - H_crit)/sqrt(B)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reduced
from .errors import (BranchSelectionError, ConsistencyError,
                     DegenerateSystemError)
from .model import ModelParams, ns_frame
from .numerics import QuadratureSettings, find_root_bisect, integrate
from .singularity import discriminant_E

# E in (-ILL_CONDITIONED_BAND, 0) is computable but flagged: the closed form
# and the oracle sit on a genuine conditioning cliff there.
ILL_CONDITIONED_BAND = 1e-6
CASE_III_BAND = 1e-12
CROSS_CHECK_TOL = 1e-8


def gamma_A(s1: float, s2: float, R: float) -> float:
    return (-R ** 2 * (1 - 2 * s1) ** 2 * (s2 - 1) ** 2
            + 2 * R * (8 * s1 ** 4 - 16 * s1 ** 3
                       + 4 * s1 ** 2 * (3 * s2 ** 2 - 3 * s2 + 2)
                       - 12 * s1 * (s2 - 1) * s2
                       + s2 * (8 * s2 ** 3 - 16 * s2 ** 2 + 7 * s2 + 1))
            - (1 - 2 * s1) ** 2 * s2 ** 2)


def gamma_B(s1: float, s2: float, R: float) -> float:
    return (R ** 2 * (4 * s1 ** 4 - 8 * s1 ** 3
                      + 4 * s1 ** 2 * (3 * s2 ** 2 - 4 * s2 + 2)
                      - 4 * s1 * (3 * s2 ** 2 - 4 * s2 + 1)
                      + (s2 - 1) ** 2 * (4 * s2 ** 2 + 1))
            - 2 * R * (4 * s1 ** 4 - 8 * s1 ** 3
                       + 4 * s1 ** 2 * (s2 ** 2 - s2 + 1)
                       - 4 * s1 * (s2 - 1) * s2
                       + s2 * (4 * s2 ** 3 - 8 * s2 ** 2 + 3 * s2 + 1))
            + 4 * s1 ** 4 - 8 * s1 ** 3
            + 4 * s1 ** 2 * (3 * s2 ** 2 - 2 * s2 + 1)
            + 4 * s1 * s2 * (2 - 3 * s2)
            + s2 ** 2 * (4 * s2 ** 2 - 8 * s2 + 5))


def _gamma_C(s1, s2, R, sqrt_gb):
    return (-4 * R ** 2 * s1 ** 2 * s2 ** 2 + 8 * R ** 2 * s1 ** 2 * s2
            - 4 * R ** 2 * s1 ** 2 + 4 * R ** 2 * s1 * s2 ** 2
            - 8 * R ** 2 * s1 * s2 + 4 * R ** 2 * s1
            - R ** 2 * s2 ** 2 + 2 * R ** 2 * s2 - R ** 2
            + 8 * R * s1 ** 4 - 16 * R * s1 ** 3
            + 8 * R * s1 ** 2 * s2 ** 2 - 8 * R * s1 ** 2 * s2
            + 8 * R * s1 ** 2 - 8 * R * s1 * s2 ** 2 + 8 * R * s1 * s2
            + 8 * R * s2 ** 4 - 16 * R * s2 ** 3 + 6 * R * s2 ** 2
            + 2 * R * s2
            + 4 * sqrt_gb * (-s1 ** 2 + s1 - s2 ** 2 + s2)
            - 8 * s1 ** 4 + 16 * s1 ** 3 - 20 * s1 ** 2 * s2 ** 2
            + 16 * s1 ** 2 * s2 - 8 * s1 ** 2 + 20 * s1 * s2 ** 2
            - 16 * s1 * s2 - 8 * s2 ** 4 + 16 * s2 ** 3 - 9 * s2 ** 2)


def _gamma_D(s1, s2, R, sqrt_gb):
    return (-8 * R ** 2 * s1 ** 4 + 16 * R ** 2 * s1 ** 3
            - 20 * R ** 2 * s1 ** 2 * s2 ** 2 + 24 * R ** 2 * s1 ** 2 * s2
            - 12 * R ** 2 * s1 ** 2 + 20 * R ** 2 * s1 * s2 ** 2
            - 24 * R ** 2 * s1 * s2 + 4 * R ** 2 * s1
            - 8 * R ** 2 * s2 ** 4 + 16 * R ** 2 * s2 ** 3
            - 9 * R ** 2 * s2 ** 2 + 2 * R ** 2 * s2 - R ** 2
            + 4 * R * sqrt_gb * (-s1 ** 2 + s1 - s2 ** 2 + s2)
            + 8 * R * s1 ** 4 - 16 * R * s1 ** 3
            + 8 * R * s1 ** 2 * s2 ** 2 - 8 * R * s1 ** 2 * s2
            + 8 * R * s1 ** 2 - 8 * R * s1 * s2 ** 2 + 8 * R * s1 * s2
            + 8 * R * s2 ** 4 - 16 * R * s2 ** 3 + 6 * R * s2 ** 2
            + 2 * R * s2
            - 4 * s1 ** 2 * s2 ** 2 + 4 * s1 * s2 ** 2 - s2 ** 2)


@dataclass(frozen=True)
class GammaCoeffs:
    gA: float
    gB: float
    gC: float
    gD: float


def gamma_coefficients(params: ModelParams) -> GammaCoeffs:
    """The four closed-form coefficients; gC and gD consume sqrt(gB)."""
    s1, s2, R = params.s1, params.s2, params.R
    ga = gamma_A(s1, s2, R)
    gb = gamma_B(s1, s2, R)
    if gb < 0:
        raise ValueError(
            f"gamma_B = {gb:.3e} < 0; gC/gD are not real (inconsistent with "
            f"a focus-focus regime)")
    sq = math.sqrt(gb)
    return GammaCoeffs(ga, gb, _gamma_C(s1, s2, R, sq), _gamma_D(s1, s2, R, sq))


def integral_NA(alpha: float, beta: float, gamma: float) -> float:
    """Closed form of int_0^x+ dx / sqrt(alpha x^2 + beta x + gamma), where
    x+ is the smaller root of the radicand."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        raise ValueError("beta^2 - 4 alpha gamma must be non-negative")
    if alpha * gamma < 0:
        raise ValueError("alpha * gamma must be non-negative")
    arg = -math.sqrt(disc) / (beta + 2 * math.sqrt(alpha * gamma))
    if arg <= 0:
        raise ValueError(f"log argument {arg:.3e} not positive")
    return math.log(arg) / math.sqrt(alpha)


def integral_NB(alpha: float, beta: float, gamma: float, delta: float) -> float:
    """Closed form of int_0^x+ dx / ((delta - x) sqrt(alpha x^2+beta x+gamma)).

    Uses the arctan branch when its radicand is positive, otherwise the
    equivalent log branch.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        raise ValueError("beta^2 - 4 alpha gamma must be non-negative")
    upper = (-beta - math.sqrt(disc)) / (2 * alpha)
    if 0.0 <= delta <= upper:
        raise ValueError("delta must lie outside the integration interval")
    w = gamma + delta * (beta + alpha * delta)
    if -w > 0:
        num = 2 * gamma + delta * (beta + math.sqrt(disc))
        den = 2 * math.sqrt(-gamma * w)
        return 2.0 / math.sqrt(-w) * math.atan(num / den)
    if w <= 0:
        raise ValueError("degenerate radicand in N_B")
    num = -2 * gamma - beta * delta + 2 * math.sqrt(gamma * gamma + gamma * delta * (beta + alpha * delta))
    return math.log(num / (delta * math.sqrt(disc))) / math.sqrt(w)


def _quadratic_coeffs(s1, s2, R):
    """(alpha, beta, gamma) of the denominator quadratic Q(p2)."""
    c2 = (s1 ** 2 - s1 + (s2 - 1) * s2) ** 2
    return 4 * c2, -8 * (1 + R) * c2, gamma_A(s1, s2, R)


def _v_coeffs(s1, s2, R):
    v1 = -(2 * s1 - 1) * (R * s2 - R + s2)
    v2 = -(-2 * R * s1 * s2 + 2 * R * s1 + R * s2 - R - 2 * s1 * s2 + s2)
    v3 = -(-2 * R ** 2 * s1 * s2 + 2 * R ** 2 * s1 + R ** 2 * s2 - R ** 2
           - 2 * R * s1 * s2 + R * s2)
    return v1, v2, v3


def closed_form_F(s1: float, s2: float, R: float) -> float:
    """The elementary-function expression whose value determines h1.

    Primary path: twice the partial-fraction decomposition
    V1 N_A + V2 N_B(., 2) + V3 N_B(., 2R).  Two of the three terms admit a
    branch-stable arctan/log rewriting in the gamma coefficients; those are
    recomputed independently as a cross-check.  (The remaining term has no
    single-branch arctan form valid on the whole focus-focus region, so it
    is not double-evaluated.)
    """
    ga = gamma_A(s1, s2, R)
    if ga <= 0:
        raise ValueError(f"gamma_A = {ga:.3e} <= 0: outside the focus-focus "
                         f"regime")
    denom_factor = (2 * s1 - 1) * (R * (s2 - 1) + s2)
    if denom_factor == 0.0:
        raise ValueError("on the trivial-case boundary (case III); F is not "
                         "defined there")
    alpha, beta, gamma = _quadratic_coeffs(s1, s2, R)
    v1, v2, v3 = _v_coeffs(s1, s2, R)
    t_log = 2.0 * v1 * integral_NA(alpha, beta, gamma)
    t_mid = 2.0 * v2 * integral_NB(alpha, beta, gamma, 2.0)
    t_far = 2.0 * v3 * integral_NB(alpha, beta, gamma, 2.0 * R)
    f_primary = t_log + t_mid + t_far

    gb = gamma_B(s1, s2, R)
    if gb < 0:
        raise ValueError(f"gamma_B = {gb:.3e} < 0")
    sq_gb, sq_ga = math.sqrt(gb), math.sqrt(ga)
    gd = _gamma_D(s1, s2, R, sq_gb)
    m = s1 ** 2 - s1 + s2 ** 2 - s2
    t_log_check = (denom_factor / m
                   * math.log(-sq_gb / (2 * (R + 1) * m + sq_ga)))
    t_far_check = 4.0 * R * math.atan(gd / (sq_ga * denom_factor))
    scale = max(1.0, abs(f_primary))
    if abs(t_log - t_log_check) > CROSS_CHECK_TOL * scale or \
            abs(t_far - t_far_check) > CROSS_CHECK_TOL * scale:
        raise BranchSelectionError(
            f"closed-form paths disagree: ({t_log!r}, {t_far!r}) vs "
            f"({t_log_check!r}, {t_far_check!r}) at (s1, s2, R) = "
            f"({s1}, {s2}, {R})")
    return f_primary


def case_id(params: ModelParams) -> str:
    """Case label I..V from the signs of s1 - 1/2 and s2 - R/(R+1)."""
    R = params.R
    a = params.s1 - 0.5
    b = params.s2 - R / (R + 1)
    if abs(a) <= CASE_III_BAND or abs(b) <= CASE_III_BAND:
        return "III"
    if a < 0:
        return "I" if b < 0 else "II"
    return "IV" if b < 0 else "V"


@dataclass(frozen=True)
class HeightInvariant:
    h1: float
    h2: float
    case_ns: str
    method: str                 # closed-form | quadrature | both
    ill_conditioned: bool = False
    discrepancy: float = float("nan")  # |closed - oracle|, method 'both' only


def _require_focus_focus(params: ModelParams) -> float:
    e = discriminant_E(params)
    if e >= 0 or abs(e) <= 1e-10 * params.r1 * params.r2:
        raise DegenerateSystemError(
            f"E = {e:.6e} >= 0: no focus-focus points, height undefined")
    return e


def height_closed(params: ModelParams) -> HeightInvariant:
    """Height invariant from the closed form."""
    e = _require_focus_focus(params)
    work = ns_frame(params)
    case = case_id(work)
    ill = -ILL_CONDITIONED_BAND < e < 0
    if case == "III":
        return HeightInvariant(1.0, 1.0, case, "closed-form", ill)
    # Canonicalize to s1 < 1/2 through the exact mirror identity
    # h1(s1) = h2(1 - s1): F is evaluated on one side only, so the identity
    # holds to the last bit instead of to roundoff.
    if work.s1 > 0.5:
        f = -closed_form_F(1.0 - work.s1, work.s2, work.R)
    else:
        f = closed_form_F(work.s1, work.s2, work.R)
    if case in ("I", "V"):
        h1 = 2.0 - f / (2.0 * math.pi)
    else:  # II, IV
        h1 = -f / (2.0 * math.pi)
    return HeightInvariant(h1, 2.0 - h1, case, "closed-form", ill)


def height_oracle(label: str, params: ModelParams, tol: float = 1e-9) -> float:
    """Height of one singularity by direct area quadrature.

    Works on the reduced l = 0 phase space: the level-set area below the
    critical value is the integral over p2 of the angular measure of
    {q2 : A + sqrt(B) cos(q2) < H_crit}, which is 2*pi, 0 or
    2*arccos((A - H_crit)/sqrt(B)).  Returns area / (2 pi).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_focus_focus(params)
    R = params.R
    lo, hi = reduced.physical_interval(label, 0.0, R)
    crit = reduced.critical_h(label, params)
    # The SN chart reverses the orientation of the second integral: the set
    # below the critical value upstairs is the set above it in the chart
    # (verified against ambient Monte Carlo sampling in the test suite).
    orient = 1.0 if label == "NS" else -1.0

    a_of, b_of = reduced.chart(label, 0.0, params)

    def p_of(p2):
        d = crit - a_of(p2)
        return b_of(p2) - d * d

    # Locate the transitions between the arccos zone (P > 0) and the
    # saturated zones (P < 0) by a sign scan plus bisection.  The scan grid
    # carries geometric tails at both ends so that transitions close to an
    # endpoint (where B has its zeros) are not missed.
    span = hi - lo
    tails = np.array([10.0 ** -k for k in range(3, 13)]) * span
    grid = np.unique(np.concatenate([
        np.linspace(lo, hi, 513)[1:-1], lo + tails, hi - tails]))
    signs = np.sign(p_of(grid))
    cuts = [lo]
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        cuts.append(find_root_bisect(p_of, float(grid[i]),
                                     float(grid[i + 1]), 1e-14))
    cuts.append(hi)

    max_excess = 0.0

    def width(p2):
        nonlocal max_excess
        b = b_of(p2)
        d = orient * (a_of(p2) - crit)
        if b <= 0.0:
            return 2.0 * math.pi if d < 0 else 0.0
        ratio = d / math.sqrt(b)
        if abs(ratio) > 1.0:
            max_excess = max(max_excess, abs(ratio) - 1.0)
            ratio = math.copysign(1.0, ratio)
        return 2.0 * math.acos(ratio)

    settings = QuadratureSettings(abs_tol=0.5 * tol, rel_tol=0.5 * tol,
                                  endpoint_mode="both")
    area = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-14:
            continue
        mid = 0.5 * (a + b)
        if p_of(mid) > 0.0:
            val, _ = integrate(width, a, b, settings)
            area += val
        else:
            const = 2.0 * math.pi if orient * (crit - a_of(mid)) > 0.0 else 0.0
            area += const * (b - a)
    if max_excess > 1e-8:
        raise ConsistencyError(
            f"arccos argument exceeded [-1, 1] by {max_excess:.3e}: "
            f"sign error, not roundoff")
    return area / (2.0 * math.pi)


def height_both(params: ModelParams, tol: float = 1e-9) -> HeightInvariant:
    """Closed form and oracle together, with their discrepancy recorded."""
    closed = height_closed(params)
    work = ns_frame(params)
    h1_q = height_oracle("NS", work, tol)
    h2_q = height_oracle("SN", work, tol)
    disc = max(abs(closed.h1 - h1_q), abs(closed.h2 - h2_q))
    return HeightInvariant(closed.h1, closed.h2, closed.case_ns, "both",
                           closed.ill_conditioned, disc)
