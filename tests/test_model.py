"""Phase space, momentum map, Poisson structure and discrete symmetries."""

import math

import numpy as np
import pytest

import semitoric
from conftest import (apply_symmetry, fd_gradient, h_grad, l_flow, l_grad,
                      poisson_bracket, random_phase_point)
from semitoric.model import (FIXED_POINTS, ModelParams, ParamGrid,
                             PhasePoint, h_func, l_func, momentum_map)


@pytest.fixture
def params():
    return ModelParams(1.0, 2.0, 0.3, 0.4)


class TestModelParams:
    def test_rejects_equal_radii(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 0.3, 0.4)

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 0.3, 0.4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_radii(self, bad):
        with pytest.raises(ValueError, match="r1 and r2 must be finite"):
            ModelParams(bad, 1.0, 0.3, 0.4)
        with pytest.raises(ValueError, match="r1 and r2 must be finite"):
            ModelParams(1.0, bad, 0.3, 0.4)

    def test_squared_radii_stay_in_float_range(self):
        for r1, r2 in ((1e-150, 1e-149), (1e153, 1e152)):
            ModelParams(r1, r2, 0.3, 0.4)
        for r1, r2 in ((1e200, 1.0), (1e-300, 1e-299), (1e100, 1e-100),
                       (1.4e-154, 1e-153), (1e-160, 1e-159)):
            with pytest.raises(ValueError, match="are out of range"):
                ModelParams(r1, r2, 0.3, 0.4)
            with pytest.raises(ValueError, match="are out of range"):
                ParamGrid(r1, r2, [0.3], [0.4])

    def test_rejects_couplings_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 2.0, -0.1, 0.4)
        with pytest.raises(ValueError):
            ModelParams(1.0, 2.0, 0.3, 1.1)

    def test_ratio_and_coupling(self, params):
        assert params.R == 2.0
        assert abs(params.coupling - (0.3 + 0.4 - 0.09 - 0.16)) < 1e-15


class TestPhasePoint:
    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError):
            PhasePoint(1.0, 1.0, 0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("i", range(6))
    def test_rejects_nan_coordinate(self, i):
        v = list(FIXED_POINTS["NN"].as_array())
        v[i] = math.nan
        with pytest.raises(ValueError, match="off the unit sphere"):
            PhasePoint(*v)

    def test_array_round_trip(self):
        rho1, rho2 = math.sqrt(1.0 - 0.5 * 0.5), math.sqrt(1.0 - 0.3 * 0.3)
        p = PhasePoint(rho1 * math.cos(0.1), rho1 * math.sin(0.1), 0.5,
                       rho2 * math.cos(0.2), rho2 * math.sin(0.2), -0.3)
        assert PhasePoint.from_array(p.as_array()) == p


class TestMomentumMap:
    def test_fixed_point_values(self, params):
        mv = momentum_map(FIXED_POINTS["NN"], params)
        assert abs(mv.l_val - 3.0) < 1e-15
        assert abs(mv.h_val - (1 - 2 * params.s1)) < 1e-15
        mv = momentum_map(FIXED_POINTS["NS"], params)
        assert abs(mv.l_val + 1.0) < 1e-15
        assert abs(mv.h_val - (1 - 2 * params.s1) * (1 - 2 * params.s2)) < 1e-15

    def test_analytic_gradients_match_finite_differences(self, params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_phase_point(rng).as_array()
            assert np.max(np.abs(l_grad(v, params)
                                 - fd_gradient(l_func, v, params))) < 1e-8
            assert np.max(np.abs(h_grad(v, params)
                                 - fd_gradient(h_func, v, params))) < 1e-8


class TestPoissonStructure:
    def test_l_h_commute(self, params):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_phase_point(rng)
            assert abs(poisson_bracket(l_func, h_func, p, params,
                                       l_grad, h_grad)) < 1e-12

    def test_bracket_antisymmetry(self, params):
        rng = np.random.default_rng(12)
        p = random_phase_point(rng)
        f = lambda v, pr: v[0] * v[4]
        g = lambda v, pr: v[2] + v[3] ** 2
        assert abs(poisson_bracket(f, g, p, params)
                   + poisson_bracket(g, f, p, params)) < 1e-8

    def test_l_flow_is_2pi_periodic(self, params):
        rng = np.random.default_rng(13)
        for _ in range(3):
            p = random_phase_point(rng)
            back = l_flow(p, params, 2.0 * math.pi)
            assert np.max(np.abs(back.as_array() - p.as_array())) < 1e-7

    def test_l_flow_preserves_momentum(self, params):
        rng = np.random.default_rng(14)
        p = random_phase_point(rng)
        moved = l_flow(p, params, 1.234)
        mv0, mv1 = momentum_map(p, params), momentum_map(moved, params)
        assert abs(mv0.l_val - mv1.l_val) < 1e-9
        assert abs(mv0.h_val - mv1.h_val) < 1e-9


class TestSymmetries:
    PULLBACK_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, 1), 4: (1, -1),
                      5: (1, 1)}

    def test_pullback_identities(self):
        rng = np.random.default_rng(21)
        for i, (sl, sh) in self.PULLBACK_SIGNS.items():
            params = ModelParams(1.0, 2.0, 0.5 if i == 5 else 0.3, 0.4)
            for _ in range(20):
                p = random_phase_point(rng)
                q, qp = apply_symmetry(i, p, params)
                mv0 = momentum_map(p, params)
                mv1 = momentum_map(q, qp)
                assert abs(mv1.l_val - sl * mv0.l_val) < 1e-12
                assert abs(mv1.h_val - sh * mv0.h_val) < 1e-12

    def test_symmetry_5_requires_half(self):
        p = FIXED_POINTS["NN"]
        with pytest.raises(ValueError):
            apply_symmetry(5, p, ModelParams(1.0, 2.0, 0.3, 0.4))

    @pytest.mark.parametrize("offset", [1e-13, -1e-13])
    def test_symmetry_5_within_case_iii_band(self, offset):
        q, qp = apply_symmetry(5, FIXED_POINTS["NN"],
                               ModelParams(1.0, 2.0, 0.5 + offset, 0.4))
        assert (qp.s1, qp.s2) == (0.5, 0.6)

    @pytest.mark.parametrize("offset", [1e-9, -1e-9])
    def test_symmetry_5_outside_case_iii_band(self, offset):
        with pytest.raises(ValueError):
            apply_symmetry(5, FIXED_POINTS["NN"],
                           ModelParams(1.0, 2.0, 0.5 + offset, 0.4))

    def test_case_iii_band_shared_with_height(self):
        from semitoric import height, model
        assert height.CASE_III_BAND is model.CASE_III_BAND

    def test_sphere_swap_swaps_radii(self):
        p = FIXED_POINTS["NS"]
        q, qp = apply_symmetry(3, p, ModelParams(1.0, 2.0, 0.3, 0.4))
        assert (qp.r1, qp.r2) == (2.0, 1.0)
        assert qp.s2 == 0.6
        assert (q.z1, q.z2) == (-1.0, 1.0)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            apply_symmetry(6, FIXED_POINTS["NN"],
                           ModelParams(1.0, 2.0, 0.3, 0.4))


def test_export_list():
    names = semitoric.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(semitoric, n)] == []
    for gone in ("poisson_bracket", "apply_symmetry"):
        assert gone not in names and not hasattr(semitoric, gone)
    assert "height_quadrature" in names
