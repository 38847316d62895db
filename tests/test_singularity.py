"""Fixed-point classification, the discriminant E and the rank-1 criterion."""

import math
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from conftest import gamma_A, linearised_flow
from semitoric import cartography
from semitoric.errors import DegenerateSystemError
from semitoric.model import ModelParams, ParamGrid
from semitoric.numerics import find_root_bisect
from semitoric.singularity import (DEGENERACY_BAND, check_semitoric,
                                   classify_fixed_points, discriminant_E,
                                   is_degenerate, is_focus_focus, n_ff,
                                   rank1_margin)


class TestDiscriminant:
    def test_reference_values(self):
        assert abs(discriminant_E(ModelParams(1, 2, 0.5, 0.5)) + 8.0) < 1e-12
        assert abs(discriminant_E(ModelParams(1, 2, 0.0, 0.0)) - 4.0) < 1e-12

    def test_corners_never_focus_focus(self):
        for R in (1.5, 2.0, 3.0, 0.5, 0.2):
            for s1 in (0.0, 1.0):
                for s2 in (0.0, 1.0):
                    assert n_ff(ModelParams(1.0, R, s1, s2)) == 0

    def test_s1_mirror_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r2, s1, s2 = rng.uniform(1.1, 5), rng.uniform(0, 1), rng.uniform(0, 1)
            a = discriminant_E(ModelParams(1.0, r2, s1, s2))
            b = discriminant_E(ModelParams(1.0, r2, 1.0 - s1, s2))
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def _expanded_E(r1, r2, s1, s2):
    """The paper's expanded polynomial for E, powers as products."""
    u, v, w = 1 - 2 * s1, s1 - 1, s2 - 1
    return (r2 * r2 * (u * u) * (w * w)
            + r1 * r1 * (u * u) * (s2 * s2)
            - 2 * r1 * r2 * (8 * (v * v) * (s1 * s1) + s2
                             - 12 * v * s1 * s2
                             + (7 + 12 * v * s1) * (s2 * s2)
                             - 16 * (s2 * s2 * s2)
                             + 8 * ((s2 * s2) * (s2 * s2))))


def _exact_E(r1, r2, s1, s2):
    """E in exact rational arithmetic at float inputs."""
    r1, r2, s1, s2 = map(Fraction, (r1, r2, s1, s2))
    r1k = (2 * s1 - 1) * (r2 * (s2 - 1) + r1 * s2)
    m = s1 * s1 - s1 + s2 * s2 - s2
    return r1k * r1k - 16 * r1 * r2 * m * m


def _rounding_bound(r1, r2, s1, s2):
    """A bound on |fl(E) - E| for ``discriminant_E`` at float inputs.

    With u = 2^-53, gamma_n = n u / (1 - n u), a = 2 s1 - 1,
    B = r2 |s2 - 1| + r1 s2 (so |r1 k| <= |a| B) and
    M = s1^2 + s1 + s2^2 + s2 (so |m| <= M), the standard model
    fl(x op y) = (x op y)(1 + d), |d| <= u, gives, operation by operation:
    |fl(r2 (s2 - 1) + r1 s2) - b| <= gamma_3 B; |fl(r1 k) - r1 k| <=
    gamma_5 |a| B; |fl((r1 k)^2) - (r1 k)^2| <= gamma_11 a^2 B^2;
    |fl(m) - m| <= gamma_4 M (four terms summed left to right);
    |fl(m^2) - m^2| <= gamma_9 M^2; |fl(r1 r2 (16 m^2)) - 16 r1 r2 m^2|
    <= gamma_11 16 r1 r2 M^2 (the factor 16 is exact); and the last subtraction adds u times the sum
    of the two terms, so

        |fl(E) - E| <= gamma_12 (a^2 B^2 + 16 r1 r2 M^2).

    Exact in rationals, barring underflow and overflow.
    """
    r1, r2, s1, s2 = map(Fraction, (r1, r2, s1, s2))
    u = Fraction(1, 2 ** 53)
    gamma_12 = 12 * u / (1 - 12 * u)
    a = 2 * s1 - 1
    big_b = r2 * abs(s2 - 1) + r1 * s2
    big_m = s1 * s1 + s1 + s2 * s2 + s2
    return gamma_12 * (a * a * big_b * big_b + 16 * r1 * r2 * big_m * big_m)


def _near_root_s1(rng, R):
    """An s1 within a few ulps of a root of E at a random s2, or None.

    With x = 2 s1 - 1, c = s2 (R + 1) - R and q = 1/4 + s2 (1 - s2),
    k = x c and m = x^2 / 4 - q < 0, so E = 0 is
    sqrt(R) x^2 + |c| |x| - 4 sqrt(R) q = 0, a quadratic in |x|."""
    s2 = float(rng.uniform(0, 1))
    c, q = s2 * (R + 1) - R, 0.25 + s2 * (1 - s2)
    x = (math.sqrt(c * c + 16 * R * q) - abs(c)) / (2 * math.sqrt(R))
    if not x < 1.0:
        return None
    s1 = 0.5 * (1.0 + float(rng.choice((-1.0, 1.0))) * x)
    return s1 + int(rng.integers(-4, 5)) * math.ulp(s1), s2


class TestTwoSquares:
    """E = (r1 k)^2 - 16 r1 r2 m^2, checked symbolically and against exact
    rational arithmetic."""

    def test_paper_gamma_expands_to_two_squares(self):
        sp = pytest.importorskip("sympy")
        s1, s2, r1, r2 = sp.symbols("s1 s2 r1 r2", positive=True)
        r1k = (2 * s1 - 1) * (r2 * (s2 - 1) + r1 * s2)
        m = s1 * s1 - s1 + s2 * s2 - s2
        two_squares = r1k ** 2 - 16 * r1 * r2 * m ** 2
        assert sp.expand(-r1 ** 2 * gamma_A(s1, s2, r2 / r1)
                         - two_squares) == 0
        assert sp.expand(_expanded_E(r1, r2, s1, s2) - two_squares) == 0

    @staticmethod
    def _errors(points):
        """Worst |E - exact| / (r1 r2) of ``discriminant_E`` and of the
        expanded form, after checking the rounding bound at every point."""
        worst_new = worst_old = 0.0
        for r1, r2, s1, s2 in points:
            exact = _exact_E(r1, r2, s1, s2)
            new = discriminant_E(ModelParams(r1, r2, s1, s2))
            err = abs(Fraction(new) - exact)
            assert err <= _rounding_bound(r1, r2, s1, s2), (r1, r2, s1, s2)
            scale = Fraction(r1) * Fraction(r2)
            worst_new = max(worst_new, float(err / scale))
            old = _expanded_E(r1, r2, s1, s2)
            worst_old = max(worst_old,
                            float(abs(Fraction(old) - exact) / scale))
        return worst_new, worst_old

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_error_against_exact(self, scale):
        rng = np.random.default_rng(4301)
        points = []
        for _ in range(2000):
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            s1, s2 = map(float, rng.uniform(0, 1, 2))
            points.append((scale, scale * R, s1, s2))
        worst_new, worst_old = self._errors(points)
        assert worst_new <= worst_old, (worst_new, worst_old)

    def test_error_next_to_roots(self):
        rng = np.random.default_rng(4302)
        points = []
        while len(points) < 300:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            at = _near_root_s1(rng, R)
            if at is not None:
                scale = (1.0, 1e-100, 1e100)[len(points) % 3]
                points.append((scale, scale * R, *at))
        for r1, r2, s1, s2 in points:
            exact = _exact_E(r1, r2, s1, s2)
            assert abs(exact) <= 1e-13 * Fraction(r1) * Fraction(r2)
        worst_new, worst_old = self._errors(points)
        assert worst_new <= worst_old, (worst_new, worst_old)

    def test_top_of_the_radius_range(self):
        """Radii whose squares are near the top of the float range, which
        ``ModelParams`` accepts.  r1 r2 is formed before the factor 16, so
        E is finite, within the rounding bound and of the exact sign
        wherever 16 r1 r2 m^2 is in the float range: at seeded points, at
        points near a root and at the m = 0 corners.  Beyond it E is -inf,
        and there the exact E lies below -0.8 times the largest float."""
        rng = np.random.default_rng(4303)
        points = [(1e154, 2e153, 0.0, 0.01), (1e154, 2e153, 0.0, 0.0),
                  (1e154, 2e153, 0.0, 1.0), (1e154, 2e153, 1.0, 0.0),
                  (1e154, 2e153, 1.0, 1.0)]
        while len(points) < 405:
            R = float(rng.uniform(1 / 8, 1.3))
            at = _near_root_s1(rng, R) if len(points) % 2 else None
            points.append((1e154, 1e154 * R,
                           *(at or map(float, rng.uniform(0, 1, 2)))))
        top = Fraction(sys.float_info.max)
        beyond = 0
        for r1, r2, s1, s2 in points:
            p = ModelParams(r1, r2, s1, s2)
            exact, e = _exact_E(r1, r2, s1, s2), discriminant_E(p)
            f1, f2 = Fraction(s1), Fraction(s2)
            m = f1 * f1 - f1 + f2 * f2 - f2
            if 16 * Fraction(r1) * Fraction(r2) * m * m >= top:
                beyond += 1
                assert e == -math.inf and exact < -top * 4 / 5
                assert n_ff(p) == 2
                continue
            assert abs(Fraction(e) - exact) <= _rounding_bound(r1, r2, s1, s2)
            if abs(exact) > DEGENERACY_BAND * Fraction(r1) * Fraction(r2):
                assert (e < 0) == (exact < 0) == (n_ff(p) == 2)
        assert 0 < beyond < len(points) // 2


def williamson_type(b, c, eigenvalues):
    """The Williamson type of lambda^4 + b lambda^2 + c, which must agree
    with the pattern of the eigenvalues: all on the imaginary axis for
    elliptic-elliptic, a quadruple +-alpha +- i beta off both axes for
    focus-focus (to 1e-7 of the largest |lambda|)."""
    d = b * b - 4 * c
    kind = ("focus-focus" if d < 0 else "elliptic-elliptic"
            if d > 0 and b > 0 and c > 0 else "other")
    size = 1e-7 * np.abs(eigenvalues).max()
    off_real = np.abs(eigenvalues.real) > size
    off_imag = np.abs(eigenvalues.imag) > size
    pattern = ("elliptic-elliptic" if off_imag.all() and not off_real.any()
               else "focus-focus" if off_imag.all() and off_real.all()
               else "other")
    return kind if kind == pattern else f"{kind} / {pattern}"


class TestWilliamsonTypes:
    """Criterion 5's companion: the types that ``classify_fixed_points``
    reads off E against those of the linearised flow, built from h_func
    and l_func alone (``conftest.linearised_flow``)."""

    def test_types_and_e_agree_with_the_linearised_flow(self):
        # R = r2 (r1 = 1) log-uniform on [2^-511, 2^511], every R with R^2
        # and R^-2 finite and normal; every second point has s1 within
        # sqrt(min(R, 1/R)) / 2 of 1/2, where the focus-focus region lies
        # at extreme R.  Outside the degeneracy band.  At NS and SN,
        # b^2 - 4c = E (2 mu r1 r2 + (1 - 2 s1)(r1 s2 + r2 (1 - s2)))^2 /
        # (r1 r2)^4: E from the flow is E exactly, and discriminant_E
        # within its rounding bound of it.
        rng = np.random.default_rng(20261020)
        kinds = []
        while len(kinds) < 120:
            R = float(2.0 ** rng.uniform(-511.0, 511.0))
            half = 0.5 * math.sqrt(min(R, 1.0 / R))
            s1 = float(rng.uniform(0.0, 1.0) if len(kinds) % 2 else
                       0.5 + half * rng.uniform(-1.0, 1.0))
            p = ModelParams(1.0, R, s1, float(rng.uniform(0.0, 1.0)))
            e = discriminant_E(p)
            if is_degenerate(e, p):
                continue
            flow = linearised_flow(p)
            got = {pid: williamson_type(f.b, f.c, f.eigenvalues)
                   for pid, f in flow.items()}
            assert got == {r.point_id: r.kind
                           for r in classify_fixed_points(p)}, p
            r1, r2, s1, s2 = map(Fraction, (p.r1, p.r2, p.s1, p.s2))
            x = (1 - 2 * s1) * (r1 * s2 + r2 * (1 - s2))
            for pid in ("NS", "SN"):
                f = flow[pid]
                e_flow = ((f.b * f.b - 4 * f.c) * (r1 * r2) ** 4
                          / (2 * f.mu * r1 * r2 + x) ** 2)
                assert e_flow == _exact_E(*astuple(p)), (p, pid)
                assert abs(Fraction(e) - e_flow) <= _rounding_bound(
                    *astuple(p)), (p, pid)
            kinds.append(got["NS"])
        # Both types of NS and SN occur.
        assert 0.2 < kinds.count("focus-focus") / len(kinds) < 0.8


class TestClassification:
    def test_focus_focus_case(self):
        reports = classify_fixed_points(ModelParams(1, 2, 0.5, 0.5))
        kinds = {r.point_id: r.kind for r in reports}
        assert kinds["NN"] == kinds["SS"] == "elliptic-elliptic"
        assert kinds["NS"] == kinds["SN"] == "focus-focus"

    def test_toric_type_case(self):
        reports = classify_fixed_points(ModelParams(1, 2, 0.05, 0.05))
        assert all(r.kind == "elliptic-elliptic" for r in reports)

    def test_special_branch_matches_limit(self):
        # Classification at s1 = 1/2 agrees with classifications just off it.
        for s2 in (0.1, 0.4, 0.75):
            p0 = ModelParams(1, 2, 0.5, s2)
            kinds = [r.kind for r in classify_fixed_points(p0)]
            for ds in (-1e-4, 1e-4):
                p = ModelParams(1, 2, 0.5 + ds, s2)
                assert [r.kind for r in classify_fixed_points(p)] == kinds

    def test_degenerate_band_raises(self):
        # Walk E to zero along s1 at fixed (s2, R).
        f = lambda s1: discriminant_E(ModelParams(1, 2, s1, 0.1))
        s1_star = find_root_bisect(f, 0.05, 0.25, tol=1e-15)
        p = ModelParams(1, 2, s1_star, 0.1)
        assert abs(discriminant_E(p)) <= 1e-12
        with pytest.raises(DegenerateSystemError):
            n_ff(p)
        kinds = {r.point_id: r.kind for r in classify_fixed_points(p)}
        assert kinds["NS"] == "degenerate"

    def test_boundary_point_residual(self):
        f = lambda s2: discriminant_E(ModelParams(1, 2, 0.5, s2))
        # At s1 = 1/2 the discriminant stays negative: no root to find.
        assert all(f(s2) < 0 for s2 in np.linspace(0.0, 1.0, 101))


class TestRank1:
    def test_margin_negative_inside_strip(self):
        p = ModelParams(1.0, 2.0, 0.3, 0.6)
        for z1 in np.linspace(-0.99, 0.99, 21):
            assert rank1_margin(float(z1), 0.0, p) < 0

    def test_rejects_boundary(self):
        p = ModelParams(1.0, 2.0, 0.3, 0.6)
        for z1, z2 in ((1.0, 0.0), (0.0, -1.0), (0.0, 10.0),
                       (float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(ValueError):
                rank1_margin(z1, z2, p)

    def test_check_semitoric_verdicts(self):
        v = check_semitoric(ModelParams(1, 2, 0.5, 0.5))
        assert v.is_semitoric and v.n_ff == 2 and not v.degenerate
        v0 = check_semitoric(ModelParams(1, 2, 0.0, 0.0))
        assert v0.is_semitoric and v0.n_ff == 0 and not v0.degenerate


def _random_params(rng, n, log_ratio):
    """n seeded parameter points with r1/r2 = 10 ** (+-log_ratio draws)."""
    out = []
    for _ in range(n):
        r1 = 10.0 ** (rng.choice((-1, 1)) * rng.uniform(*log_ratio))
        out.append(ModelParams(float(r1), 1.0,
                               *(float(v) for v in rng.uniform(0, 1, 2))))
    return out


class TestRank1Arrays:
    def test_array_equals_float_calls(self):
        rng = np.random.default_rng(17)
        edge = np.array([-1 + 2 ** -53, -(1 - 1e-6), 0.0, 1 - 1e-6,
                         1 - 2 ** -53])
        for p in _random_params(rng, 20, (0.0, 3.0)):
            z1 = np.concatenate([rng.uniform(-1, 1, 10), edge])[:, None]
            z2 = np.concatenate([rng.uniform(-1, 1, 10), edge])[None, :]
            got = rank1_margin(z1, z2, p)
            assert got.shape == (15, 15)
            for (i, j), v in np.ndenumerate(got):
                want = rank1_margin(float(z1[i, 0]), float(z2[0, j]), p)
                assert np.isfinite(v) and v < 0
                assert v.tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, np.nan, -np.inf])
    def test_array_outside_strip_raises(self, bad):
        p = ModelParams(1.0, 2.0, 0.3, 0.6)
        inside = np.linspace(-0.9, 0.9, 7)
        with pytest.raises(ValueError):
            rank1_margin(np.append(inside, bad)[:, None], inside[None, :], p)
        with pytest.raises(ValueError):
            rank1_margin(inside[:, None], np.append(inside, bad)[None, :], p)

    def test_extreme_radius_ratios(self):
        # r1/r2 from 1e13 to 1e18 and back: the verdict comes from E alone.
        rng = np.random.default_rng(29)
        for p in _random_params(rng, 1000, (13.0, 18.0)):
            v = check_semitoric(p)
            assert v.is_semitoric == (not v.degenerate)


def _near_band_params(rng, n):
    """n seeded points with |E| / (r1 r2) log-uniform within a factor of 2
    of DEGENERACY_BAND on both sides, E of either sign, R log-uniform on
    [1/8, 8]: s1 in (0, 1/2) solves E = target by bisection at a random s2
    (E at s1 = 1/2 is below -r1 r2)."""
    out = []
    while len(out) < n:
        R = float(np.exp(rng.uniform(np.log(1 / 8), np.log(8))))
        s2 = float(rng.uniform(0, 1))
        target = (rng.choice((-1.0, 1.0)) * DEGENERACY_BAND * R
                  * float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
        excess = lambda s1: discriminant_E(ModelParams(1.0, R, s1, s2)) - target
        lo, hi = 0.0, 0.5
        if excess(lo) <= 0.0:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        out.append(ModelParams(1.0, R, lo, s2))
    return out


def _ratio_params(rng, n):
    """n seeded points with r1/r2 = 10 ** +-U(0, 18), half of them with s1
    within sqrt(r_min / r_max) / 2 of 1/2, where E < 0 survives the
    ratio."""
    out = []
    for p in _random_params(rng, n, (0.0, 18.0)):
        if rng.uniform() < 0.5:
            ratio = min(p.r1, p.r2) / max(p.r1, p.r2)
            s1 = 0.5 + 0.5 * float(rng.uniform(-1, 1)) * ratio ** 0.5
            p = ModelParams(p.r1, p.r2, s1, p.s2)
        out.append(p)
    return out


class TestIsFocusFocus:
    def test_below_the_band_exactly(self):
        # E < 0 and not is_degenerate, at the band's edges, next to them,
        # at 0 and at NaN.
        p = ModelParams(1.0, 3.0, 0.3, 0.4)
        band = DEGENERACY_BAND * p.r1 * p.r2
        for e in (-band, np.nextafter(-band, -1.0), np.nextafter(-band, 0.0),
                  -0.0, 0.0, band, -1.0, 1.0, np.nan):
            assert is_focus_focus(e, p) == (e < 0 and not is_degenerate(e, p))

    def test_grid_equals_float_calls(self):
        rng = np.random.default_rng(41)
        grid = ParamGrid(1.0, 2.5, np.sort(rng.uniform(0, 1, 23)),
                         np.sort(rng.uniform(0, 1, 19)))
        e = discriminant_E(grid)
        got = is_focus_focus(e, grid)
        assert got.shape == (23, 19) and got.any() and not got.all()
        for (i, j), v in np.ndenumerate(got):
            cell = ModelParams(1.0, 2.5, float(grid.s1[i, 0]),
                               float(grid.s2[0, j]))
            assert v == is_focus_focus(discriminant_E(cell), cell)


@pytest.mark.parametrize("points, seed, kinds", [
    (_near_band_params, 31, {"degenerate", "focus-focus", "elliptic-elliptic"}),
    (_ratio_params, 37, {"focus-focus", "elliptic-elliptic"}),
], ids=["band-edge", "radius-ratio"])
def test_verdict_matches_classification_and_image(points, seed, kinds):
    # One rule everywhere: check_semitoric, classify_fixed_points, n_ff and
    # the image's focus-focus values agree next to the band edge and at
    # radius ratios up to 1e18.
    seen = set()
    for p in points(np.random.default_rng(seed), 500):
        v = check_semitoric(p)
        kind = classify_fixed_points(p)[1].kind
        degenerate = kind == "degenerate"
        assert (v.is_semitoric, v.degenerate, v.n_ff) == (
            not degenerate, degenerate, 2 if kind == "focus-focus" else 0)
        if degenerate:
            with pytest.raises(DegenerateSystemError):
                n_ff(p)
        else:
            assert n_ff(p) == v.n_ff
        ff_values = cartography.image_boundary(p, 16).ff_values
        assert bool(ff_values) == (v.n_ff == 2)
        seen.add(kind)
    assert seen == kinds
