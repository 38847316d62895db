"""Shared numerical kernels: adaptive quadrature, bisection, golden-section
extremization, a quartic root solver, and ``LibmArray``, the float64 array
type on which the closed forms give the same bits as on Python floats.

All routines are deterministic and free of global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonconvergenceError


class LibmArray(np.ndarray):
    """A float64 array whose ``**`` rounds each element as Python's float
    ``**`` does: the C library's ``pow``, one element at a time.

    NumPy's own power loops differ from ``x ** k`` on Python floats in the
    last bit for some inputs (on an AVX-512 host with NumPy 2.4.6,
    ``np.power(a, 3)`` on 5475 and ``a ** 2`` on about 200 of 200 000
    doubles).  Every other arithmetic operation is one correctly rounded
    IEEE operation in both, so a formula written once with ``**``, ``+``,
    ``-``, ``*`` and ``/`` gives bit-identical results on floats and on
    LibmArray operands.  NumPy operations keep the type; ``np.where`` and
    other non-ufunc functions return a plain array, so wrap their results
    with ``libm_array`` before raising them to a power.
    """

    def __pow__(self, k):
        return libm_array([v ** k for v in self.ravel().tolist()]
                          ).reshape(self.shape)


def libm_array(values) -> LibmArray:
    """``values`` as a float64 LibmArray."""
    return np.asarray(values, dtype=float).view(LibmArray)


# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss weights aligned with the odd Kronrod nodes (indices 1,3,...,13).
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


@dataclass
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    endpoint_mode: str = "none"  # none | inverse-sqrt-left | inverse-sqrt-right | both

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")
        if self.endpoint_mode not in ("none", "inverse-sqrt-left",
                                      "inverse-sqrt-right", "both"):
            raise ValueError(f"unknown endpoint_mode {self.endpoint_mode!r}")


def _gk15(f, a, b):
    """Single Gauss-Kronrod panel; returns (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _KRONROD_NODES
    fx = np.array([f(xi) for xi in x])
    k15 = half * float(_KRONROD_WEIGHTS @ fx)
    g7 = half * float(_GAUSS_WEIGHTS @ fx[1::2])
    return k15, (200.0 * abs(k15 - g7)) ** 1.5


def integrate(f, a, b, settings: QuadratureSettings | None = None):
    """Adaptive Gauss-Kronrod integration of ``f`` over ``(a, b)``.

    Returns ``(value, error_estimate)``.  With an endpoint mode other than
    ``none`` the integral is first mapped through x = a + (b-a) sin^2(t),
    which removes inverse-square-root singularities at either endpoint.
    """
    if settings is None:
        settings = QuadratureSettings()
    if not a < b:
        raise ValueError("require a < b")

    if settings.endpoint_mode != "none":
        width = b - a

        def g(t):
            s, c = math.sin(t), math.cos(t)
            return f(a + width * s * s) * 2.0 * width * s * c

        inner = QuadratureSettings(settings.abs_tol, settings.rel_tol,
                                   settings.max_subdivisions, "none")
        return integrate(g, 0.0, 0.5 * math.pi, inner)

    # Worklist of (a, b, value, error), refined worst-first.
    val, err = _gk15(f, a, b)
    panels = [(a, b, val, err)]
    n_splits = 0
    while True:
        total = sum(p[2] for p in panels)
        total_err = sum(p[3] for p in panels)
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if total_err <= tol:
            return total, total_err
        if n_splits >= settings.max_subdivisions:
            trace = sorted(panels, key=lambda p: -p[3])[:10]
            raise NonconvergenceError(
                f"quadrature did not converge: error {total_err:.3e} > tol "
                f"{tol:.3e} after {n_splits} subdivisions", trace)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        pa, pb, _, _ = panels.pop(worst)
        pm = 0.5 * (pa + pb)
        panels.append((pa, pm, *_gk15(f, pa, pm)))
        panels.append((pm, pb, *_gk15(f, pm, pb)))
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
    """Golden-section minimization of unimodal ``f`` on [a, b]."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_STEPS):
        xm = 0.5 * (a + b)
        if not b - a > tol or xm == a or xm == b:
            break
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
    x: float
    fx: float
    unimodal: bool = True


def minimize_golden(f, a, b, tol=1e-10, n_seed=64):
    """Minimum of ``f`` on [a, b]: multi-start golden-section refinement.

    Seeds on an ``n_seed``-point grid, refines every local basin and returns
    the best minimizer found.  ``unimodal`` is False when the seed grid shows
    more than one basin.
    """
    if not a < b:
        raise ValueError("require a < b")
    xs = np.linspace(a, b, n_seed)
    fs = np.array([f(x) for x in xs])
    # Local-minimum seeds (including endpoints).
    basins = []
    for i in range(n_seed):
        left = fs[i - 1] if i > 0 else np.inf
        right = fs[i + 1] if i < n_seed - 1 else np.inf
        if fs[i] <= left and fs[i] <= right:
            basins.append(i)
    best = GoldenResult(xs[0], fs[0], unimodal=len(basins) <= 1)
    best.fx = np.inf
    for i in basins:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, n_seed - 1)]
        if hi > lo:
            x, fx = _golden_local(f, lo, hi, tol)
        else:
            x, fx = xs[i], fs[i]
        if fx < best.fx:
            best.x, best.fx = x, fx
    return best


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
