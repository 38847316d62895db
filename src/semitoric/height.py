"""Height invariant (h1, h2): a closed form in kappa and R plus an
independent quadrature oracle on the reduced phase space.

The closed form depends on the couplings only through kappa = k / |m|
(k and m of ``_k_and_m``) and R, in the NS frame R > 1: the paper's
gamma_A is m^2 (16 R - kappa^2), so focus-focus is kappa^2 < 16 R, and
h1 = 1 + t, h2 = 1 - t with t = sgn(kappa) g(|kappa|, R) / (2 pi), one
kernel g (``_height_kernel``) for floats and grids.  ``closed_form_F`` =
sgn(kappa) (2 pi - g) takes the same path (``_signed_kernel``), and the
kernel's check D = 16 R - kappa^2 > 0 is its regime check.  The cases are
the sign of kappa (I, V: kappa > 0; II, IV: kappa < 0; III: kappa = 0,
t = 0), and the s1 mirror kappa -> -kappa swaps h1 and h2 bit for bit.
g is the paper's partial fractions over its elementary integrals N_A and
N_B collapsed to one log and two arctans without cancellation
(``closed_form_F``); the paper's form itself is held test-side
(``_paper_terms`` in ``tests/conftest.py``).

The oracle never touches the closed forms: it measures the area of the
sublevel set of the reduced Hamiltonian below the critical value by
adaptive quadrature of the angular width 2*arccos((A - H_crit)/sqrt(B)).
It evaluates that width from the exact factorisation of the l = 0 chart
(``reduced.p0_factors``), 2*acos(K/sqrt((2R - p2)(2 - p2))), in which the
common factor p2 of A - H_crit and sqrt(B) has cancelled, so it holds down
to the degeneracy band of E.  The width is an arccos on one zone [0, z)
and constant beyond it; z is the near root of the quadratic factor of the
chart's own P_0 = B - (H_crit - A)^2 (``reduced.p0_quadratic_roots``),
never ``gamma_B`` or ``roots_P0``, and is checked to be a root of that
factor where it lies below the end of the physical interval.

Floats and arrays.  The closed-form functions take floats or NumPy arrays
(broadcast together); ``case_id`` and ``height_closed`` take a ModelParams
or a ``ParamGrid``.  Each formula is written once, and on arrays it gives
the float call's bits cell by cell: powers are products in one fixed
association (``x * x``, ``x * x * x``, ``(x * x) * (x * x)``), and every
elementary function is NumPy's on floats and grids (``np.sqrt``,
``np.log``, ``np.arctan2``, ``np.copysign``;
``tests/test_elementwise.py`` checks that a float call gives the vector
loop's element).  Float calls return Python floats.

Errors on arrays.  Where the float call raises, or may (a value it divides
by, or takes the log of, is not finite), the array element is NaN.
On a ParamGrid ``height_closed`` reports no such cell: E = -r1^2 gamma_A
= -r1^2 m^2 (16 R - kappa^2), so every focus-focus cell has D > 0 and a
finite t, and a self-check raises ``ConsistencyError`` where one is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import reduced
from .errors import ConsistencyError, DegenerateSystemError
from .model import CASE_III_BAND, ModelParams, ParamGrid, ns_frame
from .numerics import integrate
from .reduced import _k_and_m, gamma_B
from .singularity import (discriminant_E, is_degenerate, is_focus_focus,
                          is_ill_conditioned)

# Largest |P_0| on the chart at the oracle's cut z < hi, relative to the
# size of its terms (see ``height_oracle``).  Measured on z from the
# factored roots, both labels in the NS and the raw frame: at most 3.7e-16
# on 400 000 cuts of focus-focus points with R in [1/8, 8], 3.6e-16 with s1
# within 1e-3 of 1/2, 3.3e-16 with R within 1e-3 of 1 and 2.0e-16 with
# -E/(r1 r2) down to 1e-10; 5.8e-5 at (1, 2, 0.3, 0.55) with K^2 of the
# roots scaled by 1.01.
CUT_RESIDUAL_TOL = 1e-8


def _nan_where(fails, value):
    """``value`` with NaN where a check failed or ``value`` is not finite:
    the array elements only the float path can decide."""
    return np.where(fails | ~np.isfinite(value), np.nan, value)


def _check_finite(name, *args):
    """Float path: raise unless every argument is finite.  NaN fails no
    ``<`` check and infinities give NaN through the formulas, so without
    this a non-finite argument would come back as a silent NaN."""
    if not all(map(math.isfinite, args)):
        raise ValueError(f"{name} needs finite arguments, got "
                         f"({', '.join(repr(float(v)) for v in args)})")


def _height_kernel(a, R):
    """g(a, R) for a = |kappa|, the kernel of ``height_closed`` and
    ``closed_form_F``.  With D = 16 R - a^2, S = sqrt(a^2 + 4 (R - 1)^2)
    and v = 2 a sqrt D,

        g = a log((2 (1 + R) + sqrt D) / S) + 2 atan2(v, 16 (R - 1) - 2 a^2)
            - 2 R atan2(v, 16 R (R - 1) + 2 a^2).

    Each atan2 is twice an arctan of ``closed_form_F``'s form, by the half
    angle atan(v / (u + sqrt(u^2 + v^2))) = atan2(v, u) / 2, where
    sqrt(u^2 + v^2) is 8 S and 8 R S.  atan2 needs no branch on the sign of
    u, no term cancels, and g(0, R) = 0 for R > 1.  ``ValueError`` on
    floats for D <= 0 (outside the focus-focus regime), and for S^2 = 0
    (a = 0 at R = 1) or S^2 = inf (|R - 1| above about 1e154), where the log
    is not finite; inside both bounds every term is finite.
    """
    a2 = a * a
    d, s_sq = 16 * R - a2, a2 + 4 * ((R - 1) * (R - 1))
    floats = not isinstance(d, np.ndarray)
    if floats and not d > 0:
        raise ValueError(f"16 R - kappa^2 = {d:.3e} <= 0: outside the "
                         f"focus-focus regime")
    if floats and not 0 < s_sq < math.inf:
        raise ValueError(f"kappa^2 + 4 (R - 1)^2 = {s_sq:.3e}: the "
                         f"kernel's log is not finite")
    sq_d = np.sqrt(d)
    v = 2 * a * sq_d
    g = (a * np.log((2 * (1 + R) + sq_d) / np.sqrt(s_sq))
         + 2 * np.arctan2(v, 16 * (R - 1) - 2 * a2)
         - 2 * R * np.arctan2(v, 16 * R * (R - 1) + 2 * a2))
    return g if floats else _nan_where(~(d > 0), g)


def _signed_kernel(s1, s2, R):
    """(k, sgn(kappa), g(|kappa|, R)) with k, m of ``_k_and_m`` and kappa =
    k / |m|, for ``_t`` and ``closed_form_F``.  m = 0 (zero coupling) makes
    kappa infinite, and so D = -inf, on floats as on arrays.  ``ValueError``
    on floats for k = 0 (case III), ahead of the kernel."""
    k, m = _k_and_m(s1, s2, R)
    if isinstance(k, np.ndarray):
        kappa = k / abs(m)
    elif k == 0.0:
        raise ValueError("on the trivial-case boundary (case III); F is not "
                         "defined there")
    else:
        kappa = k / abs(m) if m else k * math.inf
    return k, np.copysign(1.0, kappa), _height_kernel(abs(kappa), R)


def closed_form_F(s1, s2, R):
    """The elementary-function expression whose value determines h1.

    The paper's form is twice v1 N_A + v2 N_B(., 2) + v3 N_B(., 2R) over
    the quadratic (alpha, beta, gamma_A) of ``_paper_terms`` in
    ``tests/conftest.py``.  In k, m of ``_k_and_m`` and kappa = k / |m|,
    sympy gives alpha = 4 m^2, gamma_A = m^2 (16 R - kappa^2),
    gamma_B = m^2 (kappa^2 + 4 (R - 1)^2), (v1, v2, v3) = (-k, k, R k) and
    an N_B radicand w = -k^2 at delta = 2 and 2R.  So N_B is on its arctan
    branch, 2 v2 / sqrt(-w) = 2 sgn k, and
    F = -kappa log((2 (1 + R) + sqrt D) / S) + 4 atan(x_2) + 4 R atan(x_2R)
    with D, S of ``_height_kernel`` and x_delta = (P_delta + 4 delta S) /
    (2 kappa sqrt D), P_2 = 16 (R - 1) - 2 kappa^2,
    P_2R = -16 R (R - 1) - 2 kappa^2.  F is odd in kappa, and for kappa > 0
    x_delta > 0 and atan(x_2) = pi/2 - atan(1/x_2), so
    F = sgn(kappa) (2 pi - g(|kappa|, R)) at every R.
    ``tests/test_closed_form_reference.py`` checks F against the paper's
    form in 100-digit mpmath.

    ``ValueError`` on floats, NaN on arrays, for non-finite arguments, for
    k = 0 (case III, where F is not defined) and outside the kernel's
    domain (D <= 0, outside the focus-focus regime, or a log that is not
    finite).
    """
    floats = max(map(np.ndim, (s1, s2, R))) == 0
    if floats:
        _check_finite("closed_form_F", s1, s2, R)
    with np.errstate(all="ignore"):
        k, sign, g = _signed_kernel(s1, s2, R)
        f = sign * (2 * math.pi - g)
    return float(f) if floats else _nan_where(k == 0.0, f)


def case_id(params: ModelParams | ParamGrid):
    """Case label I..V from the signs of s1 - 1/2 and s2 - R/(R+1); for a
    ParamGrid, an array of labels over the grid."""
    R = params.R
    a = params.s1 - 0.5
    b = params.s2 - R / (R + 1)
    if isinstance(params, ParamGrid):
        labels = np.where(a < 0, np.where(b < 0, "I", "II"),
                          np.where(b < 0, "IV", "V"))
        return np.where((abs(a) <= CASE_III_BAND) | (abs(b) <= CASE_III_BAND),
                        "III", labels)
    if abs(a) <= CASE_III_BAND or abs(b) <= CASE_III_BAND:
        return "III"
    if a < 0:
        return "I" if b < 0 else "II"
    return "IV" if b < 0 else "V"


@dataclass(frozen=True)
class HeightInvariant:
    """The height invariant in the NS frame.  ``ill_conditioned`` means that
    E lies within 1e-6 r1 r2 below 0, so NS and SN are close to changing
    type; it does not mean a loss of accuracy (there, both methods gave h1
    within 4.4e-16 of 50-digit mpmath)."""
    h1: float
    h2: float
    case_ns: str
    method: str                 # closed-form | quadrature | both
    ill_conditioned: bool = False
    discrepancy: float = float("nan")  # |closed - oracle|, method 'both' only


def _require_focus_focus(params: ModelParams) -> float:
    e = discriminant_E(params)
    if not is_focus_focus(e, params):
        where = ("inside the degeneracy band" if is_degenerate(e, params)
                 else ">= 0")
        raise DegenerateSystemError(
            f"E = {e:.6e} {where}: no focus-focus points, height undefined")
    return e


def _t(work):
    """t = h1 - 1 = 1 - h2 in the NS frame ``work`` (module docstring)."""
    _, sign, g = _signed_kernel(work.s1, work.s2, work.R)
    return sign * g / (2 * math.pi)


def height_closed(params: ModelParams | ParamGrid) -> HeightInvariant:
    """Height invariant from the closed form, with t = 0 in case III.

    On a ParamGrid the fields are arrays over the grid (case_ns holds the
    labels), and h1 and h2 are NaN in the cells without focus-focus points.
    """
    if isinstance(params, ParamGrid):
        return _height_closed_grid(params)
    e = _require_focus_focus(params)
    work = ns_frame(params)
    case = case_id(work)
    t = 0.0 if case == "III" else float(_t(work))
    return HeightInvariant(1.0 + t, 1.0 - t, case, "closed-form",
                           is_ill_conditioned(e, params))


def _height_closed_grid(grid: ParamGrid) -> HeightInvariant:
    """``height_closed`` in every cell of a grid with a few array calls."""
    with np.errstate(all="ignore"):
        e = discriminant_E(grid)
        work = ns_frame(grid)
        case = case_id(work)
        t = np.where(case == "III", 0.0, _t(work))
        ff = is_focus_focus(e, grid)
    if not np.isfinite(t[ff]).all():
        raise ConsistencyError("closed-form height not finite in a "
                               "focus-focus cell")
    return HeightInvariant(np.where(ff, 1.0 + t, np.nan),
                           np.where(ff, 1.0 - t, np.nan), case, "closed-form",
                           is_ill_conditioned(e, grid))


def height_oracle(label: str, params: ModelParams, tol: float = 1e-9) -> float:
    """Height of one singularity by direct area quadrature.

    Works on the reduced l = 0 phase space: the level-set area below the
    critical value is the integral over p2 of the angular measure of
    {q2 : A + sqrt(B) cos(q2) < H_crit}, which is 2*pi, 0 or
    2*arccos((A - H_crit)/sqrt(B)).  Returns area / (2 pi).

    At l = 0 the chart factors exactly (``reduced.p0_factors``):
    A - H_crit = (k/R) p2 and B = kb p2^2 q(p2) with q = (2R - p2)(2 - p2).
    The factor p2 cancels from the arccos argument, which becomes
    K / sqrt(q) with K = orient (k/R) / sqrt(kb), so nothing cancels next to
    p2 = 0 however close E is to 0.  This is the chart's own algebra, not
    the closed form, whose integrals come from the paper's partial
    fractions and gamma coefficients; the oracle stays independent of it.

    q decreases on the physical interval [lo, hi], so the arccos zone
    kb q > (k/R)^2 is exactly [lo, z) with z = min(near, hi), near the
    smaller root of the quadratic factor of P_0 = p2^2 (kb q - (k/R)^2)
    (``reduced.p0_quadratic_roots``); on [z, hi] the width is 2 pi or 0.
    The zone is integrated in t on [0, pi/2] with p2 = lo + (z - lo) sin^2 t,
    which smooths the width's square-root ends; one loop per GK15 panel
    gives width times Jacobian at all 15 nodes.  Raises ConsistencyError
    when a near root below hi is no root of kb q - (k/R)^2 or the arccos
    argument leaves [-1, 1].  Only the tests check ``p0_factors`` against
    ``chart``: z and the integrand share it.
    """
    _require_focus_focus(params)
    two_r = 2.0 * params.R
    lo, hi = reduced.physical_interval(label, 0.0, params.R)
    kb, kr = reduced.p0_factors(label, params)
    kr2 = kr * kr
    # The SN chart reverses the orientation of the second integral: the set
    # below the critical value upstairs is the set above it in the chart
    # (verified against ambient Monte Carlo sampling in the test suite).
    orient = 1.0 if label == "NS" else -1.0
    K = orient * kr / math.sqrt(kb)

    # A wrong z inside the arccos zone leaves no overshoot, so a near root
    # below hi is checked: with q = (2R - z)(2 - z), |kb q - (k/R)^2| may
    # not exceed CUT_RESIDUAL_TOL times kb q + (k/R)^2 plus |z d(kb q)/dz|,
    # the change of kb q over z's own rounding, which dominates where 2 - z
    # or 2R - z is small.  A near root at or past hi is not checked: z
    # clamps to hi, where q may have a double root (R = 1) and no first-order
    # change bounds the residual, and the zone is then all of [lo, hi], so a
    # near wrongly past hi leaves K / sqrt(q) > 1 on the part it misses,
    # which the overshoot check sees.
    near = reduced.p0_quadratic_roots(label, params)[0]
    z = min(near, hi)
    if near < hi:
        q = (two_r - z) * (2.0 - z)
        residual = abs(kb * q - kr2)
        scale = kb * q + kr2 + kb * z * ((two_r - z) + (2.0 - z))
        if not residual <= CUT_RESIDUAL_TOL * scale:
            raise ConsistencyError(
                f"P_0 root cut at p2 = {z!r} is no root of the factored "
                f"chart: |P_0 / p2^2| = {residual:.3e} > "
                f"{CUT_RESIDUAL_TOL:g} x {scale:.3e}")

    outside = 2.0 * math.pi if K < 0 else 0.0
    w = z - lo
    max_excess = 0.0

    def panel(ts):  # in t, on the arccos zone [lo, z]
        nonlocal max_excess
        out = []
        for t in ts:
            sn, cs = math.sin(t), math.cos(t)
            p2 = lo + w * sn * sn
            q = (two_r - p2) * (2.0 - p2)
            if q <= 0.0:
                v = outside
            else:
                ratio = K / math.sqrt(q)
                if abs(ratio) > 1.0:
                    max_excess = max(max_excess, abs(ratio) - 1.0)
                    ratio = math.copysign(1.0, ratio)
                v = 2.0 * math.acos(ratio)
            out.append(v * 2.0 * w * sn * cs)
        return out

    area, _ = integrate(panel, 0.0, 0.5 * math.pi, 0.5 * tol)
    area += outside * (hi - z)
    if max_excess > 1e-8:
        raise ConsistencyError(
            f"arccos argument exceeded [-1, 1] by {max_excess:.3e}: "
            f"sign error, not roundoff")
    return area / (2.0 * math.pi)


def height_quadrature(params: ModelParams, tol=1e-9) -> HeightInvariant:
    """Height invariant from the oracle: h1 from the NS and h2 from the SN
    ``height_oracle`` in the NS frame, with the case and the
    ill-conditioned flag from the same E as ``height_closed``."""
    e = _require_focus_focus(params)
    work = ns_frame(params)
    return HeightInvariant(height_oracle("NS", work, tol),
                           height_oracle("SN", work, tol), case_id(work),
                           "quadrature", is_ill_conditioned(e, params))


def height_both(params: ModelParams, tol: float = 1e-9) -> HeightInvariant:
    """Closed form and oracle together, with their discrepancy recorded."""
    closed, oracle = height_closed(params), height_quadrature(params, tol)
    return replace(closed, method="both", discrepancy=max(
        abs(closed.h1 - oracle.h1), abs(closed.h2 - oracle.h2)))
