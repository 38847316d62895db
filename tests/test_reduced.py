"""Reduced one-degree-of-freedom models, their quartic and the DH profile."""

import itertools
import math

import numpy as np
import pytest

import semitoric
from semitoric import height, reduced
from semitoric.errors import ConsistencyError
from semitoric.model import FIXED_POINTS, ModelParams, momentum_map
from semitoric.numerics import quartic_roots
from semitoric.singularity import discriminant_E


@pytest.fixture
def params():
    return ModelParams(1.0, 2.0, 0.3, 0.6)


class TestReducedModel:
    def test_chart_value_at_singularity(self, params):
        # A_0(0) in the NS chart equals H at the NS fixed point.
        a = reduced.reduced_A("NS", 0.0, 0.0, params)
        assert abs(a - momentum_map(FIXED_POINTS["NS"], params).h_val) < 1e-14
        a = reduced.reduced_A("SN", 0.0, 0.0, params)
        assert abs(a - (-momentum_map(FIXED_POINTS["NS"], params).h_val)) < 1e-14

    def test_chart_value_at_lateral_corner(self, params):
        # At l = 2R the NS fiber degenerates to the N x N point.
        R = params.R
        a = reduced.reduced_A("NS", 2.0 * R, 2.0 * R, params)
        assert abs(a - momentum_map(FIXED_POINTS["NN"], params).h_val) < 1e-13

    def test_b_vanishes_on_interval_ends(self, params):
        for label in reduced.LABELS:
            for l in (-0.5, 0.0, 0.7):
                lo, hi = reduced.physical_interval(label, l, params.R)
                assert abs(reduced.reduced_B(label, l, lo, params)) < 1e-13
                assert abs(reduced.reduced_B(label, l, hi, params)) < 1e-13

    def test_b_positive_inside(self, params):
        lo, hi = reduced.physical_interval("NS", 0.3, params.R)
        for p2 in np.linspace(lo, hi, 33)[1:-1]:
            assert reduced.reduced_B("NS", 0.3, float(p2), params) > 0

    def test_rejects_unknown_label(self, params):
        with pytest.raises(ValueError):
            reduced.reduced_A("XX", 0.0, 0.0, params)

    def test_interval_bounds_validated(self, params):
        with pytest.raises(ValueError):
            reduced.physical_interval("NS", -3.0, params.R)
        with pytest.raises(ValueError):
            reduced.physical_interval("SN", 3.0, params.R)


def literal_A(label, l, p2, params):
    """A_l(p2) in spin 1's offset p2 - l, written out."""
    s1, s2 = params.s1, params.s2
    base = (1 - 2 * s2) if label == "NS" else -(1 - 2 * s2)
    return (1 - 2 * s1) * (base - (1 - s2) * (p2 - l) + s2 * (p2 / params.R))


def literal_B(label, l, p2, params):
    """B_l(p2) in the offset x = p2 - m (m = l for NS, -l for SN), written
    out."""
    R = params.R
    c = params.coupling
    x = p2 - l if label == "NS" else p2 + l
    return 4 * c * c * (p2 / R) * ((p2 - 2 * R) / R) * x * (x - 2)


def p2_form_A(label, l, p2, params):
    """A_l(p2) as written in p2 before the offset form: its two terms of
    size R cancel."""
    R, s1, s2 = params.R, params.s1, params.s2
    if label == "NS":
        return (1.0 / R) * (1 - 2 * s1) * (
            R * (1 + l - 2 * s2 - l * s2) + p2 * (s2 - R + R * s2))
    return (1.0 / R) * (1 - 2 * s1) * (
        R * (-1 + l + 2 * s2 - l * s2) + p2 * (s2 - R + R * s2))


def chart_cases():
    """(label, l, params, p2 grid): both labels, R on both sides of 1."""
    rng = np.random.default_rng(41)
    for R in (0.2, 0.7, 1.3, 2.0, 5.5):
        for s1, s2 in [(0.3, 0.6), (0.5, 0.5), (0.0, 1.0),
                       tuple(rng.uniform(0, 1, 2))]:
            params = ModelParams(1.0, R, float(s1), float(s2))
            grid = np.concatenate([np.linspace(-0.5, 2 * R + 2.5, 41),
                                   rng.uniform(-1.0, 2 * R + 3.0, 24),
                                   [0.0, -0.0, 2 * R]])
            for label in reduced.LABELS:
                for l in (-2.0, -0.5, 0.0, 0.3, 2 * R - 2, 2 * R):
                    yield label, l, params, grid


class TestChart:
    def test_matches_literal_formulas(self):
        for label, l, params, grid in chart_cases():
            A, B = reduced.chart(label, l, params)
            for p2 in map(float, grid):
                assert A(p2) == literal_A(label, l, p2, params)
                assert B(p2) == literal_B(label, l, p2, params)
                assert reduced.reduced_A(label, l, p2, params) == A(p2)
                assert reduced.reduced_B(label, l, p2, params) == B(p2)

    def test_offset_form_equals_p2_form(self):
        # The offset form of A is the p2 form rearranged: on 4,000 seeded
        # float calls of both labels, R log-uniform on [1/8, 8], they agree
        # to rounding (measured 3.6e-15: the p2 form's own, which grows
        # with R).
        rng = np.random.default_rng(53)
        for _ in range(2000):
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            params = ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2)))
            m = float(rng.uniform(-2.0, 2.0 * R))
            for label, l in zip(reduced.LABELS, (m, -m)):
                lo, hi = reduced.physical_interval(label, l, R)
                p2 = float(rng.uniform(lo, hi))
                assert abs(reduced.reduced_A(label, l, p2, params)
                           - p2_form_A(label, l, p2, params)) <= 4e-15

    def test_array_equals_elementwise_scalar(self):
        for label, l, params, grid in chart_cases():
            for f in reduced.chart(label, l, params):
                scalar = np.array([f(float(x)) for x in grid])
                assert f(grid).tobytes() == scalar.tobytes()

    def test_column_of_levels_equals_float_levels(self):
        # A column of levels against its own row of p2 per level gives, bit
        # for bit, the float chart of each level at each float p2.
        rng = np.random.default_rng(47)
        for (label, params), cases in itertools.groupby(
                chart_cases(), key=lambda case: (case[0], case[2])):
            ls, grids = zip(*((l, grid) for _, l, _, grid in cases))
            p2 = np.stack([rng.permutation(g) for g in grids])
            column = reduced.chart(label, np.array(ls)[:, None], params)
            floats = [reduced.chart(label, l, params) for l in ls]
            for i, f in enumerate(column):
                scalar = np.array([[fl[i](float(x)) for x in row]
                                   for fl, row in zip(floats, p2)])
                assert f(p2).tobytes() == scalar.tobytes()

    def test_rejects_unknown_label(self, params):
        with pytest.raises(ValueError):
            reduced.chart("XX", 0.0, params)


class TestQuarticP0:
    def test_coefficients_match_direct_evaluation(self, params):
        # P_0 = B - (H_crit - A)^2 from the chart at l = 0, with the NS
        # critical value H_crit = (1 - 2 s1)(1 - 2 s2).
        coeffs = reduced.p0_coefficients("NS", params)
        a_of, b_of = reduced.chart("NS", 0.0, params)
        crit = (1 - 2 * params.s1) * (1 - 2 * params.s2)
        for p2 in np.linspace(-1.0, 5.0, 13):
            d = crit - a_of(float(p2))
            direct = b_of(float(p2)) - d * d
            assert abs(np.polyval(coeffs, p2) - direct) < 1e-12

    def test_labels_share_the_quartic(self, params):
        a = reduced.p0_coefficients("NS", params)
        b = reduced.p0_coefficients("SN", params)
        assert np.max(np.abs(a - b)) == 0.0

    def test_factors_reproduce_chart(self):
        # A - H_crit = (k/R) p2 and B = kb p2^2 (2R - p2)(2 - p2) at l = 0,
        # to roundoff, on seeded points with R on both sides of 1.
        rng = np.random.default_rng(45)
        eps = np.finfo(float).eps
        for R in np.exp(rng.uniform(np.log(1 / 8), np.log(8), 100)):
            p = ModelParams(1.0, float(R), *map(float, rng.uniform(0, 1, 2)))
            p2 = rng.uniform(0.0, 2.0 * max(1.0, R), 16)
            for label in reduced.LABELS:
                a_of, b_of = reduced.chart(label, 0.0, p)
                crit = ((1 if label == "NS" else -1)
                        * (1 - 2 * p.s1) * (1 - 2 * p.s2))
                kb, kr = reduced.p0_factors(label, p)
                b = kb * p2 ** 2 * (2 * R - p2) * (2 - p2)
                # Roundoff of the terms of A, k and the chart's slope.
                scale = (abs(crit) + np.abs(a_of(p2)) + np.abs(kr * p2)
                         + abs(1 - 2 * p.s1) * p2)
                assert np.all(np.abs(a_of(p2) - crit - kr * p2)
                              <= 8 * eps * scale)
                assert np.all(np.abs(b_of(p2) - b) <= 8 * eps * np.abs(b))

    def test_closed_roots(self, params):
        r = reduced.roots_P0("NS", params)
        assert r.z1 == r.z2 == 0.0
        assert 0.0 < r.z3 < r.z4
        assert type(r.z3) is float and type(r.z4) is float
        assert r.all_real

    def test_gamma_B_is_shared_with_height(self):
        assert semitoric.gamma_B is height.gamma_B is reduced.gamma_B

    def test_roots_at_half(self):
        for R in (1.5, 2.0, 4.0):
            r = reduced.roots_P0("NS", ModelParams(1.0, R, 0.5, 0.3))
            assert abs(r.z3 - 2.0) < 1e-12
            assert abs(r.z4 - 2.0 * R) < 1e-12

    def test_rejects_vanishing_coupling(self):
        with pytest.raises(ValueError):
            reduced.roots_P0("NS", ModelParams(1.0, 2.0, 0.0, 0.0))

    def test_quadratic_roots_match_quartic_solver(self):
        # 200 seeded focus-focus points, R on both sides of 1.
        rng = np.random.default_rng(43)
        n = 0
        while n < 200:
            R = float(np.exp(rng.uniform(np.log(1 / 8), np.log(8))))
            p = ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2)))
            if discriminant_E(p) >= -1e-10 * R:
                continue
            n += 1
            for label in reduced.LABELS:
                near, far = reduced.p0_quadratic_roots(label, p)
                numeric = quartic_roots(reduced.p0_coefficients(label, p))
                assert np.max(np.abs(
                    numeric - np.sort([0.0, 0.0, near, far]))) <= 1e-12

    def test_closed_roots_checked_against_chart(self, monkeypatch, params):
        # A closed form off by a relative 1e-6 in gamma_B is caught.
        true_gamma_B = reduced.gamma_B
        monkeypatch.setattr(reduced, "gamma_B",
                            lambda *a: true_gamma_B(*a) * (1 + 1e-6))
        for label in reduced.LABELS:
            with pytest.raises(ConsistencyError, match="chart's"):
                reduced.roots_P0(label, params)

    def test_roots_near_R_one(self):
        # Next to R = 1 and s1 = 1/2, (R - 1)^2 + K^2 goes to 0, and the
        # discriminant c3^2 - 4 c4 c2 of the expanded quadratic lost its
        # digits to cancellation: roots_P0 raised ConsistencyError at the
        # first point, whose near root was 7.7e-9 off.  Both root formulas
        # must hold to 1e-12 relative of (R + 1) -/+ sqrt((R - 1)^2 + K^2)
        # in 50-digit mpmath, K^2 = k^2 / (4 c^2).
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(251)
        points = [ModelParams(1.0, 1.000000034579198, 0.4999999133455969,
                              0.39573927286324695)]
        while len(points) < 200:
            R = 1.0 + 10.0 ** rng.uniform(-12, -3)
            s1 = 0.5 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
            p = ModelParams(1.0, R, float(s1), float(rng.uniform(0.0, 1.0)))
            if discriminant_E(p) < -1.01e-10 * p.r1 * p.r2:
                points.append(p)
        with mp.workdps(50):
            for p, label in itertools.product(points, reduced.LABELS):
                r = reduced.roots_P0(label, p)
                R, s1, s2 = map(mp.mpf, (p.R, p.s1, p.s2))
                k = (1 - 2 * s1) * (s2 * (1 + R) - R)
                c = s1 + s2 - s1 * s1 - s2 * s2
                half_span = mp.sqrt((R - 1) ** 2 + k * k / (4 * c * c))
                exact = (R + 1 - half_span, R + 1 + half_span)
                for got in (reduced.p0_quadratic_roots(label, p),
                            (r.z3, r.z4)):
                    for x, x_exact in zip(got, exact):
                        assert abs(x - x_exact) <= 1e-12 * x_exact


class TestDHProfile:
    def test_matches_interval_length(self):
        for R in (1.5, 2.0, 3.0, 8.0):
            dh = reduced.dh_function(R)
            for l in np.linspace(-2.0, 2.0 * R, 101):
                lo, hi = reduced.physical_interval("NS", float(l), R)
                assert abs(dh.rho(float(l)) - (hi - lo)) < 1e-12

    def test_knots(self):
        dh = reduced.dh_function(2.5)
        assert dh.knots == ((-2.0, 0.0, 3.0, 5.0), (0.0, 2.0, 2.0, 0.0))
        assert dh.knots is dh.knots  # computed once per profile

    def test_slope_jumps_at_ff_levels(self):
        dh = reduced.dh_function(2.0)
        for l in reduced.ff_levels(2.0):
            assert dh.slope_jump(l) == -1.0

    def test_no_jump_elsewhere(self):
        dh = reduced.dh_function(2.0)
        with pytest.raises(ValueError):
            dh.slope_jump(1.0)

    def test_requires_r_above_one(self):
        with pytest.raises(ValueError):
            reduced.dh_function(0.5)

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_rejects_non_finite_r(self, R):
        # NaN knots or values would pass every width check of the profile.
        with pytest.raises(ValueError, match=f"finite R > 1, got R = {R!r}"):
            reduced.dh_function(R)

    def test_domain_enforced(self):
        dh = reduced.dh_function(2.0)
        with pytest.raises(ValueError):
            dh.rho(5.0)

    @pytest.mark.parametrize("R", [1.0 + 1e-9, 1.3, 2.0, 8.0])
    def test_array_rho_equals_loop(self, R, loop_rho):
        dh = reduced.dh_function(R)
        rng = np.random.default_rng(int(100 * R))
        ls = np.concatenate([rng.uniform(-2.0, 2.0 * R, 200),
                             [-2.0, 0.0, 2.0 * R - 2.0, 2.0 * R]])
        expect = np.array([loop_rho(dh, float(l)) for l in ls])
        assert (dh.rho(ls) == expect).all()
        assert [dh.rho(float(l)) for l in ls] == expect.tolist()
        assert (dh.rho(ls.reshape(4, -1)) == expect.reshape(4, -1)).all()

    def test_float_rho_is_python_float(self):
        dh = reduced.dh_function(2.0)
        assert type(dh.rho(0.5)) is float
        assert type(dh.rho(np.float64(0.5))) is float
        assert dh.rho(np.array([0.5])).shape == (1,)

    @pytest.mark.parametrize("bad", [4.5, -2.5, np.nan])
    def test_rho_rejects_one_element_outside_domain(self, bad):
        dh = reduced.dh_function(2.0)
        with pytest.raises(ValueError, match="outside domain"):
            dh.rho(np.array([-2.0, 0.5, bad, 4.0]))
        with pytest.raises(ValueError, match="outside domain"):
            dh.rho(bad)

    def test_shifted_breakpoint_fails_self_check(self, monkeypatch):
        # A DH profile whose last breakpoint sits 1e-9 to the left of the
        # focus-focus level disagrees with the interval length there.
        real = reduced.DHFunction

        def shifted(breakpoints, domain):
            (l0, s0), (l1, s1), (l2, s2) = breakpoints
            return real(((l0, s0), (l1, s1), (l2 - 1e-9, s2)), domain)

        reduced.dh_function.cache_clear()  # else R = 2 is a cached lookup
        monkeypatch.setattr(reduced, "DHFunction", shifted)
        with pytest.raises(ConsistencyError, match="interval length"):
            reduced.dh_function(2.0)

    def test_same_r_returns_the_cached_profile(self):
        assert reduced.dh_function(2.5) is reduced.dh_function(2.5)

    def test_cache_keeps_the_type_of_r(self):
        # 2, 2.0 and np.float64(2.0) hash and compare equal; each gets a
        # profile built from its own type, not one cached for another.
        for R in (2, 2.0, np.float64(2.0), 2.0, 2):
            dh = reduced.dh_function(R)
            assert dh.knots == ((-2.0, 0.0, 2.0, 4.0), (0.0, 2.0, 2.0, 0.0))
            assert type(dh.knots[0][-1]) is type(2.0 * R)
        assert reduced.dh_function(2) is not reduced.dh_function(2.0)
        assert (reduced.dh_function(np.float64(2.0))
                is not reduced.dh_function(2.0))

    @pytest.mark.parametrize("R", [1.0, 0.5, math.inf, math.nan])
    def test_rejected_r_is_not_cached(self, R):
        for _ in range(2):
            with pytest.raises(ValueError, match="finite R > 1"):
                reduced.dh_function(R)

    def test_ff_levels(self):
        assert reduced.ff_levels(2.0) == (0.0, 2.0)
        assert reduced.ff_levels(3.0) == (0.0, 4.0)
