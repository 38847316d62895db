"""The height's closed-form kernel, proved rather than sampled.

With a = |kappa|, D = 16 R - a^2, S = sqrt(a^2 + 4 (R - 1)^2) and
L(a, R) = log((2 (1 + R) + sqrt D) / S), the log of
``height._height_kernel``:

- dg/da = L: the derivatives of the two atan2 terms cancel a dL/da;
- L > 0 wherever D > 0, because (2 (1 + R) + sqrt D)^2 - S^2
  = 2 D + 4 (1 + R) sqrt D, so t = sgn(kappa) g / (2 pi) is strictly
  increasing in kappa and, at fixed R, the height determines kappa;
- g(0, R) = 0 for R > 1.

So g(a, R) is the integral of L from 0 to a, the parameter-derivative form
of the oracle's area, whose variable is the chart's K of
``reduced.p0_factors``: K = -orient kappa / 2.  The last test ties the
proved formula to the code: ``_height_kernel`` against the same formula in
50-digit mpmath.  The symbolic parts skip without sympy, the mpmath part
without mpmath.
"""

import math

import numpy as np
import pytest

from semitoric.height import _height_kernel
from semitoric.model import ModelParams, ns_frame
from semitoric.reduced import _k_and_m, p0_factors
from semitoric.singularity import discriminant_E, is_focus_focus


def kernel_terms(lib, a, R):
    """(L, (u1, u2), v) of the kernel g = a L + 2 atan2(v, u1)
    - 2 R atan2(v, u2) in ``lib`` (sympy or mpmath)."""
    d = 16 * R - a * a
    s = lib.sqrt(a * a + 4 * (R - 1) ** 2)
    log = lib.log((2 * (1 + R) + lib.sqrt(d)) / s)
    u = (16 * (R - 1) - 2 * a * a, 16 * R * (R - 1) + 2 * a * a)
    return log, u, 2 * a * lib.sqrt(d)


def test_derivative_is_the_log():
    sp = pytest.importorskip("sympy")
    a, R = sp.symbols("a R", positive=True)
    log, (u1, u2), v = kernel_terms(sp, a, R)

    def d_atan2(u):  # d/da atan2(v, u), on every branch
        return (u * sp.diff(v, a) - v * sp.diff(u, a)) / (u * u + v * v)

    dg = sp.diff(a * log, a) + 2 * d_atan2(u1) - 2 * R * d_atan2(u2)
    assert sp.simplify(dg - log) == 0


def test_log_is_positive():
    sp = pytest.importorskip("sympy")
    a, R = sp.symbols("a R", positive=True)
    d = 16 * R - a * a
    lhs = (2 * (1 + R) + sp.sqrt(d)) ** 2 - (a * a + 4 * (R - 1) ** 2)
    assert sp.expand(lhs - (2 * d + 4 * (1 + R) * sp.sqrt(d))) == 0


def test_kernel_vanishes_at_zero():
    sp = pytest.importorskip("sympy")
    a, r = sp.symbols("a r", positive=True)
    R = 1 + r
    log, (u1, u2), v = kernel_terms(sp, a, R)
    g = a * log + 2 * sp.atan2(v, u1) - 2 * R * sp.atan2(v, u2)
    assert sp.simplify(g.subs(a, 0)) == 0


def focus_focus_points(n, seed):
    """Seeded focus-focus ModelParams in the NS frame, R log-uniform on
    [1/8, 8] before the frame change."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        params = ModelParams(1.0, R, *map(float, rng.uniform(0.0, 1.0, 2)))
        if is_focus_focus(discriminant_E(params), params):
            points.append(ns_frame(params))
    return points


def test_oracle_variable_is_half_kappa():
    # K = orient (k/R) / sqrt(kb) from the chart, kappa = k / |m| from the
    # closed form's own k and m.
    for params in focus_focus_points(300, seed=2901):
        k, m = _k_and_m(params.s1, params.s2, params.R)
        kappa = k / abs(m)
        for label, orient in (("NS", 1.0), ("SN", -1.0)):
            kb, kr = p0_factors(label, params)
            K = orient * kr / math.sqrt(kb)
            assert abs(K + orient * kappa / 2) <= 1e-13 * abs(kappa / 2), (
                label, params)


def test_kernel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2902)
    n = 1000
    R = np.exp(rng.uniform(math.log(1 / 8), math.log(8), n))
    a = 4 * np.sqrt(R) * rng.uniform(0.0, 1.0, n)
    worst = 0.0
    with mpmath.workdps(50):
        for a_f, R_f in zip(a.tolist(), R.tolist()):
            if not 16 * R_f - a_f * a_f > 0:
                continue
            a_m, R_m = mpmath.mpf(a_f), mpmath.mpf(R_f)
            log, (u1, u2), v = kernel_terms(mpmath, a_m, R_m)
            g = (a_m * log + 2 * mpmath.atan2(v, u1)
                 - 2 * R_m * mpmath.atan2(v, u2))
            err = abs(_height_kernel(a_f, R_f) - g) / (2 * mpmath.pi)
            worst = max(worst, float(err))
    assert worst <= 1e-15, worst
