"""Fixed-point classification, the discriminant E and the rank-1 criterion."""

import warnings

import numpy as np
import pytest

from semitoric.errors import DegenerateSystemError
from semitoric.model import ModelParams
from semitoric.numerics import find_root_bisect
from semitoric.singularity import (check_semitoric, classify_fixed_points,
                                   discriminant_E, n_ff, rank1_margin)


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
        v = check_semitoric(ModelParams(1, 2, 0.5, 0.5), grid_n=10)
        assert v.is_semitoric and v.n_ff == 2
        assert v.rank1_margin_min < 0
        v0 = check_semitoric(ModelParams(1, 2, 0.0, 0.0), grid_n=10)
        assert v0.is_semitoric and v0.n_ff == 0


def scalar_rank1_sweep(params, grid_n):
    """Reference copy of the rank-1 sweep of ``check_semitoric``: one float
    ``rank1_margin`` call per grid point, largest margin kept."""
    z = np.linspace(-1 + 1e-6, 1 - 1e-6, grid_n)
    return max(rank1_margin(float(z1), float(z2), params)
               for z1 in z for z2 in z)


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

    def test_check_semitoric_equals_float_sweep(self):
        rng = np.random.default_rng(23)
        params = [ModelParams(1.0, float(np.exp(rng.uniform(-2.1, 2.1))),
                              *(float(v) for v in rng.uniform(0, 1, 2)))
                  for _ in range(12)]
        # Extreme radius ratios, and r1 ** 2 or r2 ** 2 near the ends of the
        # float range (ModelParams rejects squares outside it).
        params += [ModelParams(1e17, 1.0, 0.3, 0.4),
                   ModelParams(1.0, 1e17, 0.3, 0.4),
                   ModelParams(1e153, 1e152, 0.3, 0.4),
                   ModelParams(1e-150, 1e-149, 0.2, 0.7)]
        for p in params:
            for grid_n in (2, 7, 20):
                want = scalar_rank1_sweep(p, grid_n)
                got = check_semitoric(p, grid_n).rank1_margin_min
                assert got == want
                assert np.isfinite(got) and got < 0

    def test_margin_overflow_is_quiet(self):
        # At r1/r2 = 1e150 the margins near the edges of z2 are below the
        # float range: -inf cells, no warning, a finite worst margin.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = check_semitoric(ModelParams(1e150, 1.0, 0.3, 0.4), 20)
        assert v.is_semitoric and np.isfinite(v.rank1_margin_min)

    def test_extreme_radius_ratios(self):
        # r1/r2 from 1e13 to 1e18 and back: the verdict comes from E alone.
        rng = np.random.default_rng(29)
        for p in _random_params(rng, 1000, (13.0, 18.0)):
            v = check_semitoric(p, 20)
            assert v.is_semitoric == (not v.degenerate)
            assert np.isfinite(v.rank1_margin_min)
