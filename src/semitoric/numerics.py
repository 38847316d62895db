"""Shared numerical kernels: adaptive quadrature, bisection, golden-section
extremization and a quartic root solver.  ``integrate`` calls its integrand
once per GK15 panel, on all 15 nodes, maps no endpoints and takes one
tolerance ``tol``, absolute below |value| = 1 and relative above.  A
panel's K15 and G7 are ``math.fsum`` of the rounded products w_i f_i,
correctly rounded: a dot product (``@``) takes the order and bits of the
BLAS build, and ``sum()`` is compensated from Python 3.12 on, so either
would tie the oracle's last bits to the machine.

``quartic_roots`` (companion-matrix eigenvalues) has no caller in the
package: it is the independent reference against which acceptance
criterion 7 checks the closed-form roots of P_0.  At run time
``reduced.roots_P0`` checks them against the quadratic factor of the
chart's own P_0 instead.  Nor has ``minimize_golden``, which takes one
float bracket and calls its objective on one float at a time: the image
envelope takes its extremes from a bracketed Newton solve for each side's
one critical point (``cartography``).

All routines are deterministic and free of global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import NonconvergenceError


# Gauss 7 / Kronrod 15 rule on [-1, 1], symmetric about 0: the Kronrod
# nodes below 0 with their weights, and the Gauss weights of the odd
# Kronrod nodes (indices 1, 3, 5) below 0.
_LEFT_NODES = [-0.991455371120813, -0.949107912342759, -0.864864423359769,
               -0.741531185599394, -0.586087235467691, -0.405845151377397,
               -0.207784955007898]
_LEFT_WEIGHTS = [0.022935322010529, 0.063092092629979, 0.104790010322250,
                 0.140653259715525, 0.169004726639267, 0.190350578064785,
                 0.204432940075298]
_LEFT_GAUSS = [0.129484966168870, 0.279705391489277, 0.381830050505119]
_KRONROD_NODES = _LEFT_NODES + [0.0] + [-x for x in _LEFT_NODES[::-1]]
_KRONROD_WEIGHTS = _LEFT_WEIGHTS + [0.209482141084728] + _LEFT_WEIGHTS[::-1]
_GAUSS_WEIGHTS = _LEFT_GAUSS + [0.417959183673469] + _LEFT_GAUSS[::-1]


def _weighted_sum(weights, values):
    """``math.fsum`` of the rounded products w_i v_i, with NaN for inf - inf
    and +-inf past the float range where fsum raises: on an overflowing
    partial sum it sums at 1/16 scale, exact, where 16 terms cannot."""
    try:
        return math.fsum(map(mul, weights, values))
    except OverflowError:
        return 16.0 * _weighted_sum(weights, [v * 0.0625 for v in values])
    except ValueError:  # inf - inf
        return math.nan


def _gk15(f, a, b):
    """Single Gauss-Kronrod panel; returns (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # Plain floats, not NumPy scalars, whose arithmetic is slower.
    fx = f([mid + half * x for x in _KRONROD_NODES])
    k15 = half * _weighted_sum(_KRONROD_WEIGHTS, fx)
    g7 = half * _weighted_sum(_GAUSS_WEIGHTS, fx[1::2])
    try:
        return k15, (200.0 * abs(k15 - g7)) ** 1.5
    except OverflowError:  # float ** raises past the range where * gives inf
        return k15, math.inf


def integrate(f, a, b, tol=1e-10, max_subdivisions=2000):
    """Adaptive Gauss-Kronrod integration of ``f`` over ``(a, b)``.

    ``f`` takes one panel's 15 Kronrod nodes as a list of floats and returns
    their values.  Returns ``(value, error_estimate)`` once the estimate is
    at most ``max(tol, tol * |value|)``.  No endpoint is mapped: the caller
    maps an inverse-square-root end away itself.  After
    ``max_subdivisions`` splits NonconvergenceError carries the ten worst
    panels (a, b, value, error).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_subdivisions < 8:
        raise ValueError("max_subdivisions must be >= 8")
    if not a < b:
        raise ValueError("require a < b")

    # Worklist of parallel lists, refined worst-first.
    val, err = _gk15(f, a, b)
    los, his, vals, errs = [a], [b], [val], [err]
    n_splits = 0
    while True:
        total, total_err = sum(vals), sum(errs)
        bound = max(tol, tol * abs(total))
        if total_err <= bound:
            return total, total_err
        if n_splits >= max_subdivisions:
            trace = sorted(zip(los, his, vals, errs), key=lambda p: -p[3])[:10]
            raise NonconvergenceError(
                f"quadrature did not converge: error {total_err:.3e} > tol "
                f"{bound:.3e} after {n_splits} subdivisions", trace)
        worst = errs.index(max(errs))
        pa, pb = los.pop(worst), his.pop(worst)
        del vals[worst], errs[worst]
        pm = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = _gk15(f, pa, pm), _gk15(f, pm, pb)
        los += [pa, pm]
        his += [pm, pb]
        vals += [v1, v2]
        errs += [e1, e2]
        n_splits += 1


# Bisection and golden section also stop once no float lies strictly
# between the bracket ends: an absolute ``tol`` below the float spacing
# there (1e-14 past |x| = 16, 1e-10 past |x| = 2**19) can never be met.
# The step cap is a last guard; it exceeds the ~3000 golden steps (~2100
# halvings) that shrink the widest finite bracket to adjacent floats.
_MAX_STEPS = 4000


def find_root_bisect(f, a, b, tol=1e-13):
    """Bisection root of ``f`` on a bracketing interval ``[a, b]``.

    Stops when the bracket is narrower than ``tol`` or cannot be split any
    further in floating point.
    """
    if not a < b:
        raise ValueError("require a < b")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have opposite signs")
    for _ in range(_MAX_STEPS):
        if not b - a > tol:
            break
        m = 0.5 * (a + b)
        if m == a or m == b:  # adjacent floats: tol is below their spacing
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_local(f, a, b, tol):
    """Golden section of unimodal ``f`` on [a, b]: the final midpoint and
    ``f`` there, once the bracket is no wider than ``tol``, has no float
    inside or has taken ``_MAX_STEPS`` steps."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_STEPS):
        xm = 0.5 * (a + b)
        if not b - a > tol or xm == a or xm == b:
            break
        # f1 <= f2 keeps [a, x2], otherwise [x1, b] (also when one is NaN).
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


@dataclass
class GoldenResult:
    """Minimizer, minimum and whether the seed grid showed one basin."""

    x: float
    fx: float
    unimodal: bool = True


def minimize_golden(f, a, b, tol=1e-10, n_seed=64):
    """Minimum of ``f`` on the float bracket [a, b] by multi-start golden
    section, with ``f(x)`` called on one float at a time.

    Seeds on an ``n_seed``-point grid, refines every local basin and returns
    the first basin, in grid order, with the smallest value; NaN never
    wins, and where no basin beats inf the result is (a, inf).  ``unimodal``
    is False when the seed grid shows more than one basin.  ``ValueError``
    unless a < b are floats and n_seed >= 2.
    """
    if np.ndim(a) or np.ndim(b):
        raise ValueError("minimize_golden takes one float bracket [a, b]")
    if not a < b:
        raise ValueError("require a < b")
    if not n_seed >= 2:
        raise ValueError(f"n_seed must be >= 2, got {n_seed!r}")
    xs = np.linspace(a, b, n_seed).tolist()
    fs = [f(x) for x in xs]
    # Local-minimum seeds (including endpoints) in grid order.
    padded = [math.inf] + fs + [math.inf]
    basins = [i for i in range(n_seed)
              if padded[i + 1] <= padded[i] and padded[i + 1] <= padded[i + 2]]
    best_x, best_fx = xs[0], math.inf
    for i in basins:
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n_seed - 1)]
        x, fx = _golden_local(f, lo, hi, tol) if hi > lo else (xs[i], fs[i])
        if fx < best_fx:  # ties keep the earlier basin
            best_x, best_fx = x, fx
    return GoldenResult(best_x, best_fx, len(basins) <= 1)


def quartic_roots(coeffs):
    """All four roots of a quartic, highest-degree coefficient first.

    Companion-matrix eigenvalues followed by one Newton polish step.  Returns
    a complex array sorted by ascending real part, ties by imaginary part.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (5,):
        raise ValueError("expected 5 coefficients")
    if c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    monic = c / c[0]
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = -monic[::-1][:4]
    roots = np.linalg.eigvals(comp)
    poly = np.polynomial.Polynomial(monic[::-1])
    dpoly = poly.deriv()
    polished = []
    for r in roots:
        d = dpoly(r)
        if d != 0:
            step = poly(r) / d
            if abs(step) < 1e-2 * (1.0 + abs(r)):
                r = r - step
        polished.append(r)
    out = np.array(polished)
    # Snap near-real roots so that sorting and downstream code see them real.
    real_mask = np.abs(out.imag) < 1e-10 * (1.0 + np.abs(out.real))
    out[real_mask] = out[real_mask].real
    order = np.lexsort((out.imag, out.real))
    return out[order]
