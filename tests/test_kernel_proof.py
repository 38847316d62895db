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
``reduced.p0_factors``: K = -orient kappa / 2.  ``_height_kernel`` is
checked against the same formula in 50-digit mpmath.

The oracle's half: for K > 0 the area is A(K) = int_0^near 2 acos(K / sqrt q)
dp2, q = (2R - p2)(2 - p2), with near the smaller root of q = K^2, and

- dA/dK = -2 log((sqrt far + sqrt near) / (sqrt far - sqrt near)): the
  boundary term is acos(1) = 0 and q - K^2 = (near - p2)(far - p2);
- that log's argument is L's at a = 2 K, since near far = 4R - K^2 and
  near + far = 2 (1 + R);
- A(0, R) = 2 pi, a width of pi on [0, 2], for R > 1.

So A = 2 pi - g(2K, R), the closed form, and ``height_oracle`` is checked
against 2 pi plus the integral of dA/dK in mpmath.  Last, kappa under the
family's two discrete symmetries: the s1 mirror maps it to -kappa, and the
sphere swap leaves (kappa, R) in the NS frame unchanged.  The symbolic
parts skip without sympy, the mpmath parts without mpmath.
"""

import math

import numpy as np
import pytest

from semitoric.height import _height_kernel, height_oracle
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


def test_area_derivative_is_the_log():
    sp = pytest.importorskip("sympy")
    # d/dK 2 acos(K / sqrt Q) = -2 / sqrt(Q - K^2), at Q - K^2 = e > 0.
    Q, e, K = sp.symbols("Q e K", positive=True)
    dw = sp.diff(2 * sp.acos(K / sp.sqrt(Q)), K).subs(K, sp.sqrt(Q - e))
    assert sp.simplify(dw + 2 / sp.sqrt(e)) == 0
    # near, far: the roots of q = K^2, which q takes at near.
    p2, R = sp.symbols("p2 R", positive=True)
    q = (2 * R - p2) * (2 - p2)
    root = sp.sqrt((R - 1) ** 2 + K ** 2)
    near, far = R + 1 - root, R + 1 + root
    assert sp.expand(q - K ** 2 - (near - p2) * (far - p2)) == 0
    assert sp.simplify(q.subs(p2, near) - K ** 2) == 0
    # int_0^near dp2 / sqrt((near - p2)(far - p2)) by its antiderivative,
    # with far = near + d and p2 = near - e on the zone.
    n, d = sp.symbols("n d", positive=True)
    f = n + d
    anti = -2 * sp.log(sp.sqrt(n - p2) + sp.sqrt(f - p2))
    slope = sp.diff(anti, p2) - 1 / sp.sqrt((n - p2) * (f - p2))
    assert sp.simplify(slope.subs(p2, n - e)) == 0
    ratio = (sp.sqrt(f) + sp.sqrt(n)) / (sp.sqrt(f) - sp.sqrt(n))
    assert sp.simplify(sp.exp(anti.subs(p2, n) - anti.subs(p2, 0))
                       - ratio) == 0


def test_area_log_is_the_kernel_log():
    # With near = n and far = n + d: R = (n + far) / 2 - 1 and
    # K^2 = 4R - n far; at a = 2K, L's argument is the ratio of dA/dK.
    sp = pytest.importorskip("sympy")
    n, d = sp.symbols("n d", positive=True)
    f = n + d
    R = (n + f) / 2 - 1
    a2 = 4 * (4 * R - n * f)
    D = sp.factor(sp.expand(16 * R - a2))
    S = sp.sqrt(sp.factor(sp.expand(a2 + 4 * (R - 1) ** 2)))
    ratio = (sp.sqrt(f) + sp.sqrt(n)) / (sp.sqrt(f) - sp.sqrt(n))
    assert sp.simplify((2 * (1 + R) + sp.sqrt(D)) / S - ratio) == 0


def test_area_at_zero_is_two_pi():
    sp = pytest.importorskip("sympy")
    p2, r = sp.symbols("p2 r", positive=True)
    R = 1 + r
    near = R + 1 - sp.sqrt((R - 1) ** 2)  # K = 0
    assert sp.simplify(near - 2) == 0
    assert sp.integrate(2 * sp.acos(0), (p2, 0, near)) == 2 * sp.pi


def test_oracle_is_the_integrated_derivative():
    # A(K) = 2 pi + int_0^K dA/dK', for the label whose K is positive.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for params in focus_focus_points(40, seed=2903):
            for label, orient in (("NS", 1.0), ("SN", -1.0)):
                kb, kr = p0_factors(label, params)
                K = orient * kr / math.sqrt(kb)
                if K > 0:
                    break
            R = mpmath.mpf(params.R)

            def slope(k):
                root = mpmath.sqrt((R - 1) ** 2 + k * k)
                sn, sf = mpmath.sqrt(R + 1 - root), mpmath.sqrt(R + 1 + root)
                return -2 * mpmath.log((sf + sn) / (sf - sn))

            area = 2 * mpmath.pi + mpmath.quad(slope, [0, K])
            h = float(area / (2 * mpmath.pi))
            worst = max(worst, abs(height_oracle(label, params) - h))
    assert worst <= 1e-9, worst


def kappa_of(params):
    """kappa = k / |m| of ``_k_and_m`` in the NS frame, and that frame's R."""
    work = ns_frame(params)
    k, m = _k_and_m(work.s1, work.s2, work.R)
    return k / abs(m), work.R


def test_mirror_and_swap_on_kappa_symbolic():
    # In the raw frame the mirror s1 -> 1 - s1 negates k and keeps m; the
    # swap (s2, R) -> (1 - s2, 1 / R) maps k to -k / R and keeps m, and
    # ns_frame undoes it.
    sp = pytest.importorskip("sympy")
    s1, s2, R = sp.symbols("s1 s2 R", positive=True)
    k, m = _k_and_m(s1, s2, R)
    k_mirror, m_mirror = _k_and_m(1 - s1, s2, R)
    assert sp.expand(k_mirror + k) == 0 and sp.expand(m_mirror - m) == 0
    k_swap, m_swap = _k_and_m(s1, 1 - s2, 1 / R)
    assert sp.expand(R * k_swap + k) == 0 and sp.expand(m_swap - m) == 0


def test_mirror_and_swap_on_kappa():
    # On dyadic s1 and s2, 1 - s1 and 1 - (1 - s2) are exact, so kappa
    # maps bit for bit: the mirror to -kappa at the same R, the swap to the
    # same (kappa, R).
    rng = np.random.default_rng(2904)
    for _ in range(300):
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        s1, s2 = (int(i) / 1024 for i in rng.integers(1, 1024, 2))
        params = ModelParams(1.0, R, s1, s2)
        kappa, R_ns = kappa_of(params)
        assert kappa_of(ModelParams(1.0, R, 1 - s1, s2)) == (-kappa, R_ns)
        assert kappa_of(ModelParams(R, 1.0, s1, 1 - s2)) == (kappa, R_ns)
