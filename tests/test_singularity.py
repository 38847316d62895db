"""Fixed-point classification, the discriminant E and the rank-1 criterion."""

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
            l = p.r1 * z1  # z2 = 0 slice
            assert rank1_margin(float(z1), float(l), p) < 0

    def test_rejects_boundary(self):
        p = ModelParams(1.0, 2.0, 0.3, 0.6)
        with pytest.raises(ValueError):
            rank1_margin(1.0, 0.0, p)
        with pytest.raises(ValueError):
            rank1_margin(0.0, 10.0, p)

    def test_check_semitoric_verdicts(self):
        v = check_semitoric(ModelParams(1, 2, 0.5, 0.5), grid_n=10)
        assert v.is_semitoric and v.n_ff == 2
        assert v.rank1_margin_min < 0
        v0 = check_semitoric(ModelParams(1, 2, 0.0, 0.0), grid_n=10)
        assert v0.is_semitoric and v0.n_ff == 0


def scalar_rank1_sweep(params, grid_n):
    """Reference copy of the rank-1 sweep of ``check_semitoric``: one float
    ``rank1_margin`` call per grid point, largest margin kept."""
    worst = -np.inf
    for z1 in np.linspace(-1 + 1e-6, 1 - 1e-6, grid_n):
        l_lo = params.r1 * z1 - params.r2 * (1 - 1e-6)
        l_hi = params.r1 * z1 + params.r2 * (1 - 1e-6)
        for l in np.linspace(l_lo, l_hi, grid_n):
            worst = max(worst, rank1_margin(float(z1), float(l), params))
    return worst


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestRank1Arrays:
    def test_array_equals_float_calls(self):
        # z1 and l run past the strip on purpose: cells whose float call
        # raises are NaN in the array.
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = ModelParams(1.0, float(np.exp(rng.uniform(-3.0, 3.0))),
                            *(float(v) for v in rng.uniform(0, 1, 2)))
            z1 = rng.uniform(-1.1, 1.1, (15, 1))
            l = p.r1 * z1 + p.r2 * rng.uniform(-1.1, 1.1, (15, 15))
            with np.errstate(all="ignore"):
                got = rank1_margin(z1, l, p)
            assert got.shape == (15, 15)
            for (i, j), v in np.ndenumerate(got):
                want = _outcome(rank1_margin, float(z1[i, 0]),
                                float(l[i, j]), p)
                if isinstance(want, tuple):
                    assert np.isnan(v)
                else:
                    assert v == want

    def test_check_semitoric_equals_float_sweep(self):
        rng = np.random.default_rng(23)
        params = [ModelParams(1.0, float(np.exp(rng.uniform(-2.1, 2.1))),
                              *(float(v) for v in rng.uniform(0, 1, 2)))
                  for _ in range(12)]
        # Extremes: z2 leaves (-1, 1), and r1 ** 2 or r2 ** 2 near the ends
        # of the float range (ModelParams rejects squares outside it).
        params += [ModelParams(1e17, 1.0, 0.3, 0.4),
                   ModelParams(1.0, 1e17, 0.3, 0.4),
                   ModelParams(1e153, 1e152, 0.3, 0.4),
                   ModelParams(1e-150, 1e-149, 0.2, 0.7)]
        for p in params:
            for grid_n in (2, 7, 20):
                want = _outcome(scalar_rank1_sweep, p, grid_n)
                got = _outcome(lambda: check_semitoric(p, grid_n)
                               .rank1_margin_min)
                assert got == want
