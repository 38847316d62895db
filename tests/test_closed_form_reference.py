"""``closed_form_F`` against the paper's partial-fraction form in 100-digit
mpmath (``paper_F`` in conftest), on generic focus-focus points and on
rings around the crossing of the two case-III lines, the paper's
elementary integrals N_A and N_B (``paper_N`` in conftest) against 40-digit
mpmath quadrature, plus the algebraic identities behind the factored
formula and the height's variable kappa = k / |m| (sympy).  Each part is
skipped when its library is not installed."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import gamma_A
from semitoric.height import closed_form_F, gamma_B, height_closed
from semitoric.model import ModelParams, ns_frame
from semitoric.reduced import _k_and_m, p0_factors
from semitoric.singularity import discriminant_E
from test_acceptance import _random_ff

REL_BOUND = 1e-13
RING_EPS = [10.0 ** -n for n in range(1, 13)]
RING_ANGLES = [(j + 0.5) * 2 * math.pi / 16 for j in range(16)]


def ring_points(R):
    """(s1, s2) on circles of radius eps around (1/2, R/(R+1)), at 16
    angles off the axes: every quadrant, so both sides of both lines."""
    centre = R / (R + 1.0)
    for eps in RING_EPS:
        for theta in RING_ANGLES:
            yield (0.5 + eps * math.cos(theta),
                   centre + eps * math.sin(theta))


def generic_points(n, seed=71):
    """Seeded focus-focus (s1, s2, R) with R log-uniform on [1/8, 8] and
    -E/(r1 r2) above 1e-4."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        s1, s2 = map(float, rng.uniform(0.0, 1.0, 2))
        if discriminant_E(ModelParams(1.0, R, s1, s2)) < -1e-4 * R:
            points.append((s1, s2, R))
    return points


def assert_matches_paper(paper_F, s1, s2, R):
    f, exact = closed_form_F(s1, s2, R), paper_F(s1, s2, R)
    assert abs(f - exact) <= REL_BOUND * max(1.0, abs(exact)), (s1, s2, R)


class TestAgainstPaperForm:
    def test_generic_points(self, paper_F):
        for s1, s2, R in generic_points(200):
            assert_matches_paper(paper_F, s1, s2, R)

    @pytest.mark.parametrize("R", [0.5, 2.0, 8.0, 1.0 + 1e-4])
    def test_rings_around_the_crossing(self, paper_F, R):
        for s1, s2 in ring_points(R):
            assert_matches_paper(paper_F, s1, s2, R)
            height_closed(ModelParams(1.0, R, s1, s2))  # returns

    @pytest.mark.parametrize("R", [0.5, 2.0, 8.0])
    def test_height_tends_to_one(self, R):
        # The hard switch to (1, 1) inside CASE_III_BAND agrees with the
        # limit: h1 - 1 is O(k) as k, zero on both lines, goes to 0.
        for s1, s2 in ring_points(R):
            p = ModelParams(1.0, R, s1, s2)
            w = ns_frame(p)
            k = (2 * w.s1 - 1) * (w.R * (w.s2 - 1) + w.s2)
            assert abs(height_closed(p).h1 - 1.0) <= abs(k), (s1, s2, R)


def criterion_9_points(quadratic):
    """(R, alpha, beta, gamma) of the 100 points of acceptance criterion 9's
    N-vs-quadrature leg: its seeded draws replayed, after the 1000 draws of
    its gamma identity, with its filter 2 - x+ >= 1e-2 on the coefficients
    of ``quadratic`` (conftest's ``paper_N.quadratic``)."""
    rng = np.random.default_rng(20240817)  # conftest's ``rng``
    for _ in range(1000):
        rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    points = []
    while len(points) < 100:
        p = _random_ff(rng, 1, e_below=-1e-4)[0]
        alpha, beta, gamma = quadratic(p.s1, p.s2, p.R)
        upper = ((-beta - math.sqrt(beta * beta - 4 * alpha * gamma))
                 / (2 * alpha))
        if 2.0 - upper >= 1e-2:
            points.append((p.R, alpha, beta, gamma))
    return points


def test_elementary_integrals_match_mpmath(paper_N):
    # Criterion 9 compares N_A and N_B with float GK15 quadrature, which is
    # itself up to 6.3e-10 off; here the reference is 40-digit mpmath on the
    # same points, and the bound measures the closed forms (measured:
    # 6.4e-13, the same with 60 digits).
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for R, alpha, beta, gamma in criterion_9_points(paper_N.quadratic):
            a, b, g = map(mpmath.mpf, (alpha, beta, gamma))
            root = mpmath.sqrt(b * b - 4 * a * g)
            upper, gap = (-b - root) / (2 * a), root / a
            # With x = x+ - y^2 the radicand a (x+ - x)(x- - x) becomes
            # a y^2 (gap + y^2), and the integrands are smooth in y.
            def n_b(delta):
                return mpmath.quad(
                    lambda y: 2 / ((delta - upper + y * y)
                                   * mpmath.sqrt(a * (gap + y * y))),
                    [0, mpmath.sqrt(upper)])

            n_a = mpmath.quad(lambda y: 2 / mpmath.sqrt(a * (gap + y * y)),
                              [0, mpmath.sqrt(upper)])
            worst = max(worst, abs(paper_N.A(alpha, beta, gamma) - n_a))
            for delta in (2.0, 2.0 * R):
                worst = max(worst, abs(paper_N.B(alpha, beta, gamma, delta)
                                       - n_b(mpmath.mpf(delta))))
    assert worst <= 1e-12, worst


def test_discriminant_in_kappa():
    # E = -r1^2 m^2 (16 R - kappa^2) with the package's own k and m: every
    # focus-focus point (E < 0) has D = 16 R - kappa^2 > 0, so the grid
    # height is finite wherever it reports one.
    sp = pytest.importorskip("sympy")
    s1, s2, R, r1 = sp.symbols("s1 s2 R r1", positive=True)
    k, m = _k_and_m(s1, s2, R)
    e = discriminant_E(SimpleNamespace(r1=r1, r2=R * r1, s1=s1, s2=s2))
    kappa = k / m  # only kappa^2 enters
    assert sp.cancel(e + r1 ** 2 * m ** 2 * (16 * R - kappa ** 2)) == 0


def test_factored_identities(paper_terms):
    sp = pytest.importorskip("sympy")
    s1, s2, R, r1 = sp.symbols("s1 s2 R r1", positive=True)
    alpha, beta, gamma, (v1, v2, v3) = paper_terms(s1, s2, R)
    k = (2 * s1 - 1) * (R * (s2 - 1) + s2)
    m = s1 ** 2 - s1 + s2 ** 2 - s2
    gamma_b = k ** 2 + 4 * (R - 1) ** 2 * m ** 2
    e = discriminant_E(SimpleNamespace(r1=r1, r2=R * r1, s1=s1, s2=s2))

    def zero(expr):
        return sp.expand(expr) == 0

    assert zero(gamma_A(s1, s2, R) - gamma)
    assert zero(gamma_B(s1, s2, R) - gamma_b)
    assert zero(v1 + k) and zero(v2 - k) and zero(v3 - R * k)
    assert zero(alpha - 4 * m ** 2)
    assert zero(beta * beta - 4 * alpha * gamma - 16 * m ** 2 * gamma_b)
    assert zero(gamma_b - (4 * (1 + R) ** 2 * m ** 2 - gamma))
    assert zero(gamma + e / r1 ** 2)
    assert zero(gamma - (16 * R * m ** 2 - k ** 2))
    # The height's kappa = k / |m|, with |m| = c = -m on the unit square.
    c = s1 + s2 - s1 ** 2 - s2 ** 2
    kappa = k / c
    assert zero(sp.cancel(gamma - m ** 2 * (16 * R - kappa ** 2)))
    assert zero(sp.cancel(gamma_b - m ** 2 * (kappa ** 2 + 4 * (R - 1) ** 2)))
    # The oracle's K = orient (k/R) / sqrt(kb) of ``reduced.p0_factors``,
    # with sqrt(kb) = 2 c / R: K = -orient kappa / 2 in the sign of k here.
    for label in ("NS", "SN"):
        kb, kr = p0_factors(label, SimpleNamespace(R=R, s1=s1, s2=s2,
                                                   coupling=c))
        assert zero(kb - (2 * c / R) ** 2)
        assert zero(sp.cancel(kr / (2 * c / R) + kappa / 2))
    # P in k and m, as closed_form_F computes it at delta = 2 and 2R.
    for delta, p_km in ((2, 16 * (R - 1) * m ** 2 - 2 * k ** 2),
                        (2 * R, -16 * R * (R - 1) * m ** 2 - 2 * k ** 2)):
        # N_B's radicand is -k^2: always the arctan branch, sqrt(-w) = |k|.
        assert zero(gamma + delta * (beta + alpha * delta) + k ** 2)
        p = 2 * gamma - 8 * delta * (1 + R) * m ** 2
        assert zero(p - p_km)
        q = 4 * delta * m  # |m| in the formula; only q^2 enters here
        assert zero(p * p - q * q * gamma_b + 4 * k ** 2 * gamma)
