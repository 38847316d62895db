"""Height invariant: gamma coefficients, root integrals, closed form, oracle."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import gamma_A, panel_integrand, reference_closed_form_F
from references import mp_chart_height
from semitoric import height, reduced, singularity
from semitoric.errors import ConsistencyError, DegenerateSystemError
from semitoric.height import (CASE_III_BAND, HeightInvariant, _height_kernel,
                              case_id, closed_form_F, gamma_B, height_both,
                              height_closed, height_oracle, height_quadrature)
from semitoric.model import ModelParams, ns_frame
from semitoric.numerics import find_root_bisect, integrate
from semitoric.singularity import discriminant_E


def _quad_NB(alpha, beta, gamma, delta):
    # Reference for N_B = int 1/((delta - p) sqrt(alpha p^2 + beta p + gamma))
    # over [0, z3] where z3 is the smaller root of the radicand.
    z3 = (-beta - math.sqrt(beta * beta - 4 * alpha * gamma)) / (2 * alpha)
    f = lambda p: 1.0 / ((delta - p)
                         * math.sqrt(alpha * p * p + beta * p + gamma))
    val, _ = integrate(*panel_integrand(f, 0.0, z3, sin2=True), 1e-12)
    return val


def scalar_scan_oracle(label, params, tol=1e-9):
    """Reference copy of ``height_oracle`` with the per-point scalar sign
    scan it used before the scan became one array evaluation."""
    lo, hi = reduced.physical_interval(label, 0.0, params.R)
    orient = 1.0 if label == "NS" else -1.0
    crit = orient * (1 - 2 * params.s1) * (1 - 2 * params.s2)

    def a_of(p2):
        return reduced.reduced_A(label, 0.0, p2, params)

    def b_of(p2):
        return reduced.reduced_B(label, 0.0, p2, params)

    def p_of(p2):
        d = crit - a_of(p2)
        return b_of(p2) - d * d

    span = hi - lo
    tails = np.array([10.0 ** -k for k in range(3, 13)]) * span
    grid = np.unique(np.concatenate([
        np.linspace(lo, hi, 513)[1:-1], lo + tails, hi - tails]))
    signs = np.sign([p_of(x) for x in grid])
    cuts = [lo]
    for i in range(len(grid) - 1):
        if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]:
            cuts.append(find_root_bisect(p_of, float(grid[i]),
                                         float(grid[i + 1]), 1e-14))
    cuts.append(hi)

    def width(p2):
        b = b_of(p2)
        d = orient * (a_of(p2) - crit)
        if b <= 0.0:
            return 2.0 * math.pi if d < 0 else 0.0
        return 2.0 * math.acos(max(-1.0, min(1.0, d / math.sqrt(b))))

    area = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-14:
            continue
        mid = 0.5 * (a + b)
        if p_of(mid) > 0.0:
            area += integrate(*panel_integrand(width, a, b, sin2=True),
                              0.5 * tol)[0]
        else:
            const = 2.0 * math.pi if orient * (crit - a_of(mid)) > 0.0 else 0.0
            area += const * (b - a)
    return area / (2.0 * math.pi)


def nodewise_oracle(label, params, tol=1e-9):
    """``height_oracle`` without its checks, with the width evaluated one
    node at a time by a scalar ``width(p2)`` and mapped through conftest's
    sin^2 map, as the oracle did before the map moved into its panel loop."""
    two_r = 2.0 * params.R
    lo, hi = reduced.physical_interval(label, 0.0, params.R)
    kb, kr = reduced.p0_factors(label, params)
    K = (1.0 if label == "NS" else -1.0) * kr / math.sqrt(kb)
    outside = 2.0 * math.pi if K < 0 else 0.0
    z = min(reduced.p0_quadratic_roots(label, params)[0], hi)

    def width(p2):
        q = (two_r - p2) * (2.0 - p2)
        if q <= 0.0:
            return outside
        ratio = K / math.sqrt(q)
        if abs(ratio) > 1.0:
            ratio = math.copysign(1.0, ratio)
        return 2.0 * math.acos(ratio)

    area = integrate(*panel_integrand(width, lo, z, sin2=True), 0.5 * tol)[0]
    area += outside * (hi - z)
    return area / (2.0 * math.pi)


class TestGammaPolynomials:
    def test_b_complements_a(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s1, s2 = rng.uniform(0, 1, 2)
            R = rng.uniform(1.1, 6)
            p = ModelParams(1.0, R, s1, s2)
            c = p.coupling
            lhs = gamma_B(s1, s2, R)
            rhs = 4 * (1 + R) ** 2 * c * c - gamma_A(s1, s2, R)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_a_is_negated_discriminant(self):
        p = ModelParams(1.0, 2.0, 0.3, 0.6)
        assert abs(gamma_A(0.3, 0.6, 2.0) + discriminant_E(p)) < 1e-13


class TestRootIntegrals:
    """The paper's N_A and N_B, held in conftest (``paper_N``)."""

    def test_na_against_quadrature(self, paper_N):
        # Roots of the radicand at 1 and 2; integrate on [0, 1].
        val = paper_N.A(1.0, -3.0, 2.0)
        ref, _ = integrate(*panel_integrand(
            lambda x: 1.0 / math.sqrt(x * x - 3 * x + 2), 0.0, 1.0,
            sin2=True))
        assert abs(val - ref) < 1e-10

    def test_na_scaling(self, paper_N):
        # N_A(k a, k b, k g) = N_A(a, b, g) / sqrt(k).
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = rng.uniform(0.5, 3)
            z3, z4 = sorted(rng.uniform(0.2, 5, 2))
            if z4 - z3 < 1e-3:
                continue
            b, g = -a * (z3 + z4), a * z3 * z4
            k = rng.uniform(0.1, 10)
            lhs = paper_N.A(k * a, k * b, k * g)
            rhs = paper_N.A(a, b, g) / math.sqrt(k)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_nb_against_quadrature(self, paper_N):
        cases = [(1.0, -3.0, 2.0, 5.0), (1.0, -3.0, 2.0, 3.0),
                 (2.0, -7.0, 3.0, 4.0), (1.0, -3.0, 2.0, -1.0)]
        for alpha, beta, gamma, delta in cases:
            val = paper_N.B(alpha, beta, gamma, delta)
            ref = _quad_NB(alpha, beta, gamma, delta)
            assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))

    def test_nb_limit_is_na(self, paper_N):
        # delta * N_B(delta) -> N_A as delta -> infinity.
        a, b, g = 1.0, -3.0, 2.0
        delta = 1e6
        assert abs(delta * paper_N.B(a, b, g, delta)
                   - paper_N.A(a, b, g)) < 1e-4


class TestClosedForm:
    def test_matches_area_oracle(self):
        f = closed_form_F(0.25, 0.25, 2.0)
        p = ModelParams(1.0, 2.0, 0.25, 0.25)
        h1 = height_oracle("NS", p)
        # Case I: h1 = 2 - F / (2 pi).
        assert abs((2.0 - f / (2.0 * math.pi)) - h1) < 1e-8

    @pytest.mark.parametrize("R", [1.0 + 2.0 ** -52, 2.0, 1e6])
    def test_kernel_vanishes_at_kappa_zero(self, R):
        assert _height_kernel(0.0, R) == 0.0

    def test_kernel_outside_focus_focus(self):
        # 16 R - a^2 <= 0 (or NaN): floats raise, arrays give NaN there.
        for a, R in ((4.0, 1.0), (9.0, 2.0), (math.nan, 2.0)):
            with pytest.raises(ValueError, match="16 R - kappa"):
                _height_kernel(a, R)
        with np.errstate(all="ignore"):
            got = _height_kernel(np.array([4.0, 9.0, math.nan, 1.0]),
                                 np.array([1.0, 2.0, 2.0, 2.0]))
        assert np.isnan(got[:3]).all() and got[3] == _height_kernel(1.0, 2.0)

    @pytest.mark.parametrize("bad, message", [
        # kappa^2 = 576 > 16 R: the kernel's D < 0 (gamma_A < 0).
        ((0.02, 0.98, 1.0), "16 R - kappa^2 = -5.367e+02 <= 0"),
        # m = 0 (zero coupling): kappa and -D are infinite.
        ((0.0, 0.0, 2.0), "16 R - kappa^2 = -inf <= 0"),
        # s1 = 1/2: k = 0, case III.
        ((0.5, 0.25, 2.0), "case III"),
        # s2 outside [0, 1], which ModelParams rejects: F was -2 pi (m
        # overflows, so kappa = -0.0) and -3.2506.
        ((0.0, 1e300, 2.0), "s1 and s2 must lie in [0, 1]"),
        ((0.3, 1.5, 2.0), "s1 and s2 must lie in [0, 1]"),
    ], ids=["outside_focus_focus", "zero_coupling", "case_III", "s2_huge",
            "s2_above_one"])
    def test_F_undefined(self, bad, message):
        good = (0.25, 0.25, 2.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form_F(*bad)
        cols = [np.array([b, g]) for b, g in zip(bad, good)]
        with np.errstate(all="ignore"):
            got = closed_form_F(*cols)
        assert np.isnan(got[0]) and got[1] == closed_form_F(*good)

    @pytest.mark.parametrize("bad, message", [
        # k = 0 with S = 0: the case-III check runs ahead of the kernel.
        ((0.5, 0.3, 1.0), "case III"),
        ((0.3, 0.5, 1.0), "case III"),
        # m overflows only for s2 outside [0, 1] (kappa = -0.0 and S = 0 at
        # R = 1), which is rejected ahead of the kernel.
        ((0.3, 1e200, 1.0), "s1 and s2 must lie in [0, 1]"),
        # (R - 1)^2 overflows, so S = inf.
        ((0.3, 1.0, 1e200), "kernel's log"),
    ], ids=["s1_half", "s2_half", "m_overflow", "R_overflow"])
    def test_F_raises_where_the_log_is_not_finite(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form_F(*bad)

    def test_F_on_arrays_does_not_warn(self):
        # NaN cells for m = 0 (kappa infinite) and k = 0 (case III).
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = closed_form_F(np.array([0.0, 0.3, 0.5]),
                                np.array([0.0, 0.3, 0.3]), 2.0)
        assert np.isnan(got[[0, 2]]).all()
        assert got[1] == closed_form_F(0.3, 0.3, 2.0)

    def test_antisymmetric_in_s1(self):
        rng = np.random.default_rng(33)
        n = 0
        while n < 40:
            s1 = rng.uniform(0.05, 0.45)
            s2 = rng.uniform(0.05, 0.95)
            R = rng.uniform(1.2, 5)
            if discriminant_E(ModelParams(1.0, R, s1, s2)) > -1e-3:
                continue
            a = closed_form_F(s1, s2, R)
            b = closed_form_F(1.0 - s1, s2, R)
            assert abs(a + b) < 1e-8 * max(1.0, abs(a))
            n += 1

    def test_radicand_identity(self):
        # alpha p^2 + beta p + gamma
        #   = 4 (p - 2)(p - 2R) m^2 - (1 - 2 s1)^2 (R (s2 - 1) + s2)^2
        # with m = s1^2 - s1 + s2^2 - s2.
        rng = np.random.default_rng(34)
        for _ in range(100):
            s1, s2 = rng.uniform(0, 1, 2)
            R = rng.uniform(1.1, 6)
            c = s1 + s2 - s1 * s1 - s2 * s2
            m = s1 * s1 - s1 + s2 * s2 - s2
            alpha, beta = 4 * c * c, -8 * (1 + R) * c * c
            gamma = gamma_A(s1, s2, R)
            for p in rng.uniform(-3, 8, 5):
                lhs = alpha * p * p + beta * p + gamma
                rhs = (4 * (p - 2) * (p - 2 * R) * m * m
                       - (1 - 2 * s1) ** 2 * (R * (s2 - 1) + s2) ** 2)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def _bits_or_raise(f, *args):
    """The bytes of ``f(*args)`` as a float64, or None where it raises
    ``ValueError``."""
    try:
        return np.float64(f(*args)).tobytes()
    except ValueError:
        return None


class TestFOnTheHeightPath:
    """``closed_form_F`` through the height's kernel path against the form
    with its own gamma_A check (``reference_closed_form_F`` in conftest):
    the same bits where it returned, a raise where it raised, and NaN in
    the same array cells."""

    def test_seeded_floats(self):
        rng = np.random.default_rng(35)
        n = 20000
        R = np.exp(rng.uniform(math.log(1 / 8), math.log(1e3), n))
        s1, s2 = rng.uniform(0.0, 1.0, (2, n))
        returned = 0
        for args in zip(s1.tolist(), s2.tolist(), R.tolist()):
            got = _bits_or_raise(closed_form_F, *args)
            assert got == _bits_or_raise(reference_closed_form_F, *args), args
            returned += got is not None
        assert 0.1 * n < returned < 0.9 * n
        with np.errstate(all="ignore"):
            assert (closed_form_F(s1, s2, R).tobytes()
                    == reference_closed_form_F(s1, s2, R).tobytes())

    @pytest.mark.parametrize("R", [0.3, 2.0, 7.0, 50.0, math.inf, math.nan])
    def test_grids_with_non_finite_cells(self, R):
        # Cells with s1 or s2 outside [0, 1] (infinite ones too) are NaN,
        # and their float calls raise; the reference returned a number for
        # some of them.
        axis = np.concatenate([[math.nan, math.inf, -math.inf, 0.0, 0.5, 1.0,
                                -0.25, 1.5, 1e300], np.linspace(0.0, 1.0, 41)])
        out = (axis < 0.0) | (axis > 1.0)
        with np.errstate(all="ignore"):
            got = closed_form_F(axis[:, None], axis[None, :], R)
            ref = reference_closed_form_F(axis[:, None], axis[None, :], R)
        ref = np.where(out[:, None] | out[None, :], np.nan, ref)
        assert got.tobytes() == ref.tobytes()
        assert np.isfinite(got).any() == math.isfinite(R)
        for s1, s2 in itertools.product(axis.tolist(), repeat=2):
            want = (None if not (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0)
                    else _bits_or_raise(reference_closed_form_F, s1, s2, R))
            assert _bits_or_raise(closed_form_F, s1, s2, R) == want


class TestNonFiniteArguments:
    """Float calls raise on NaN or infinite arguments; array calls give NaN
    in those cells and the float value everywhere else."""

    def test_closed_form_F(self):
        good = (0.25, 0.25, 2.0)
        for bad in ((math.nan, 0.3, 2.0), (0.25, 0.25, math.inf),
                    (0.25, math.nan, 2.0), (0.25, 0.25, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                closed_form_F(*bad)
            cols = [np.array([b, g]) for b, g in zip(bad, good)]
            with np.errstate(all="ignore"):
                got = closed_form_F(*cols)
            assert np.isnan(got[0]) and got[1] == closed_form_F(*good)


class TestCases:
    def test_labels(self):
        assert case_id(ModelParams(1, 2, 0.25, 0.25)) == "I"
        assert case_id(ModelParams(1, 2, 0.25, 0.8)) == "II"
        assert case_id(ModelParams(1, 2, 0.5, 0.3)) == "III"
        assert case_id(ModelParams(1, 2, 0.75, 0.25)) == "IV"
        assert case_id(ModelParams(1, 2, 0.75, 0.8)) == "V"

    def test_band_width(self):
        R = 2.0
        s2c = R / (R + 1.0)
        assert case_id(ModelParams(1, 2, 0.25, s2c + CASE_III_BAND / 2)) == "III"
        assert case_id(ModelParams(1, 2, 0.25, s2c + 1e-9)) == "II"


class TestHeightValues:
    def test_symmetric_point_is_unit(self):
        h = height_closed(ModelParams(1, 2, 0.5, 0.5))
        assert (h.h1, h.h2) == (1.0, 1.0)

    def test_oracle_label_mirror(self):
        a = height_oracle("NS", ModelParams(1, 2, 0.25, 0.25))
        b = height_oracle("SN", ModelParams(1, 2, 0.75, 0.25))
        assert abs(a - b) < 1e-9

    def test_oracle_matches_scalar_scan_reference(self):
        # Seeded focus-focus points in both frames, away from the zones
        # where the scan reference fails: -E <= 1e-2 r1 r2, where it misses
        # narrow arccos zones, and the case-III crossing of the closed form.
        # The oracle takes its cuts from the roots of P_0 instead of a
        # bisection to 1e-14, so the values agree to roundoff, not in bits.
        rng = np.random.default_rng(35)
        frames = {"R > 1": 0, "R < 1": 0}
        while min(frames.values()) < 30:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            p = ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2)))
            w = ns_frame(p)
            case_iii_factor = (2 * w.s1 - 1) * (w.R * (w.s2 - 1) + w.s2)
            if (discriminant_E(p) >= -1e-2 * p.r1 * p.r2
                    or abs(case_iii_factor) <= 1e-3):
                continue
            frames["R > 1" if R > 1 else "R < 1"] += 1
            for label in ("NS", "SN"):
                assert abs(height_oracle(label, p)
                           - scalar_scan_oracle(label, p)) <= 1e-13

    @pytest.mark.parametrize("point", [
        (1, 2, 0.02, 0.8929379052866228),
        (1, 5.536455289746141, 0.20372288490504997, 0.14741965041001193)])
    def test_oracle_near_zero_discriminant(self, point):
        # -E is 4.8e-6 and 7.8e-5 r1 r2 here; a sign scan misses the narrow
        # arccos zone next to p2 = 0 and its overshoot check fires.
        assert height_both(ModelParams(*point)).discrepancy <= 1e-9

    def test_oracle_matches_unfactored_chart_in_mpmath(self):
        # Seeded points with -E/(r1 r2) in [1.01e-10, 1e-6], where the
        # float chart's A - H_crit cancels next to p2 = 0.
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(47)
        points = []
        while len(points) < 6:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            s2 = float(rng.uniform(0.0, 1.0))
            depth = math.exp(rng.uniform(math.log(1.01e-10), math.log(1e-6)))

            def excess(s1):
                return discriminant_E(ModelParams(1.0, R, s1, s2)) / R + depth

            if excess(0.0) > 0.0:
                s1 = find_root_bisect(excess, 0.0, 0.5, 1e-16)
                points.append(ns_frame(ModelParams(1.0, R, s1, s2)))
        with mp.workdps(50):
            for p, label in itertools.product(points, reduced.LABELS):
                exact = float(mp_chart_height(mp, label, p))
                err = abs(height_oracle(label, p) - exact)
                assert err <= 1e-9
                # h1 + h2 = 2, and the smaller one carries the narrow arccos
                # zone's digits: check it relative to its size as well.
                if exact < 1.0:
                    assert err <= 1e-4 * exact

    def test_oracle_rejects_cut_off_the_chart(self, monkeypatch):
        # The roots of P_0 with K^2 = (k/R)^2 / kb off by 1 %: the cut
        # moves into the arccos zone, where no other check of the oracle
        # notices (it returned h1 2.5e-6 off before the cut check).
        def shifted(label, params):
            kb, kr = reduced.p0_factors(label, params)
            R, k2 = params.R, 1.01 * (kr * kr / kb)
            far = (R + 1) + math.sqrt((R - 1) * (R - 1) + k2)
            return (4 * R - k2) / far, far

        monkeypatch.setattr(reduced, "p0_quadratic_roots", shifted)
        for label in reduced.LABELS:
            with pytest.raises(ConsistencyError,
                               match="no root of the factored chart"):
                height_oracle(label, ModelParams(1, 2, 0.3, 0.55))

    @pytest.mark.parametrize("plant", [
        lambda near, hi: near * (1.0 + 1e-6), lambda near, hi: hi,
        lambda near, hi: hi + 1.0], ids=["sliver", "at_hi", "past_hi"])
    def test_oracle_overshoot_check(self, monkeypatch, plant):
        # With the cut check switched off, the near cut pushed outward by a
        # relative 1e-6 leaves a sliver outside the arccos zone inside an
        # arccos piece: only the overshoot check sees it.  A near root
        # planted at or past hi is never checked as a root (the zone is
        # then all of [lo, hi]); the overshoot check sees the part past the
        # true one.
        true_roots = reduced.p0_quadratic_roots

        def shifted(label, params):
            near, far = true_roots(label, params)
            hi = reduced.physical_interval(label, 0.0, params.R)[1]
            return plant(near, hi), far

        monkeypatch.setattr(height, "CUT_RESIDUAL_TOL", math.inf)
        monkeypatch.setattr(reduced, "p0_quadratic_roots", shifted)
        for label, params in itertools.product(
                reduced.LABELS, [ModelParams(1, 2, 0.3, 0.55),
                                 ModelParams(2, 1, 0.3, 0.55)]):
            with pytest.raises(ConsistencyError,
                               match=r"arccos argument exceeded \[-1, 1\]"):
                height_oracle(label, params)

    def test_oracle_keeps_bits_of_nodewise_reference(self):
        # The fused panel loop gives every oracle value the bits of the
        # scalar width fed node by node through the sin^2 map: 240 seeded
        # points in both frames, half of them with -E/(r1 r2) log-uniform
        # down to 1e-9, at two tolerances.
        rng = np.random.default_rng(48)
        points = []
        while len(points) < 240:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            s2 = float(rng.uniform(0.0, 1.0))
            if len(points) % 2:
                p = ModelParams(1.0, R, float(rng.uniform(0.0, 1.0)), s2)
            else:
                depth = math.exp(rng.uniform(math.log(1e-9), 0.0))

                def excess(s1):
                    e = discriminant_E(ModelParams(1.0, R, s1, s2))
                    return e / R + depth

                if not excess(0.0) > 0.0 > excess(0.5):
                    continue
                p = ModelParams(1.0, R, find_root_bisect(excess, 0.0, 0.5,
                                                         1e-16), s2)
            if discriminant_E(p) < 0.0:
                points.append(p)
        assert min(p.R for p in points) < 1.0 < max(p.R for p in points)
        for p, label in itertools.product(points, reduced.LABELS):
            w = ns_frame(p)
            for tol in (1e-9, 1e-12):
                assert (height_oracle(label, w, tol)
                        == nodewise_oracle(label, w, tol))

    def test_one_arccos_zone(self):
        # The oracle's premise: q = (2R - p2)(2 - p2) decreases on [lo, hi],
        # so kb q - (k/R)^2 is positive exactly on [lo, z), z = min(near,
        # hi), and the far root lies at or beyond hi.  The sign is taken in
        # exact rational arithmetic on the chart's float constants.  Seeded
        # focus-focus points, R log-uniform on [1/8, 8], a quarter next to
        # R = 1 and a quarter next to s1 = 1/2, in the NS frame and raw (in
        # the raw frame with R < 1 the labels swap and heights scale by R).
        rng = np.random.default_rng(252)
        points = []
        while len(points) < 200:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
            s1, s2 = map(float, rng.uniform(0.0, 1.0, 2))
            side = rng.choice([-1.0, 1.0])
            if len(points) % 4 == 0:
                R = 1.0 + side * 10.0 ** rng.uniform(-12, -3)
            elif len(points) % 4 == 1:
                s1 = 0.5 + side * 10.0 ** rng.uniform(-12, -3)
            p = ModelParams(1.0, float(R), float(s1), s2)
            if discriminant_E(p) < -1.01e-10 * p.r1 * p.r2:
                points.append(p)
        assert sum(p.R < 1.0 for p in points) > 50
        for p, label in itertools.product(points, reduced.LABELS):
            closed = height_closed(p)
            for w in (ns_frame(p), p):
                lo, hi = reduced.physical_interval(label, 0.0, w.R)
                near, far = reduced.p0_quadratic_roots(label, w)
                assert lo < near <= np.nextafter(hi, math.inf)
                assert far >= hi
                kb, kr = map(Fraction, reduced.p0_factors(label, w))
                two_r = 2 * Fraction(w.R)

                def excess(x):
                    x = Fraction(x)
                    return kb * (two_r - x) * (2 - x) - kr * kr

                z = min(near, hi)
                assert all(excess(x) > 0 for x in
                           np.linspace(lo, z * (1 - 1e-9), 9).tolist())
                assert all(excess(x) < 0 for x in
                           np.linspace(z * (1 + 1e-9), hi, 9)[:-1].tolist()
                           if x < hi)
                h = height_oracle(label, w)
                if w.R < 1.0:
                    want = closed.h2 if label == "NS" else closed.h1
                    h /= w.R
                else:
                    want = closed.h1 if label == "NS" else closed.h2
                assert abs(h - want) <= 1e-6

    def test_near_root_at_double_root_of_q(self):
        # At R = 1, q = (2 - p2)^2 has a double root at hi = 2: with k
        # within an ulp of 0 (s1 or s2 an ulp from 1/2) the near root
        # rounds to hi, where kb q - (k/R)^2 = -(k/R)^2 and the change of
        # kb q over z's rounding is 0, and the cut check raised on this
        # valid input.  ModelParams never holds R = 1 (it excludes r1 == r2,
        # and r2 / r1 of two distinct floats never rounds to 1), so the
        # chart's R = 1 is set field by field; the closed form comes from the
        # nearest R above 1, which the CLI tests run.
        up, down = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
        for s1, s2 in [(up, 0.3), (down, 0.3), (0.3, up), (0.3, down),
                       (up, 0.2), (down, 0.4), (0.2, up), (0.4, down)]:
            at_one = object.__new__(ModelParams)
            for name, value in zip(("r1", "r2", "s1", "s2"),
                                   (1.0, 1.0, s1, s2)):
                object.__setattr__(at_one, name, value)
            for label in reduced.LABELS:
                lo, hi = reduced.physical_interval(label, 0.0, 1.0)
                assert reduced.p0_quadratic_roots(label, at_one)[0] == hi
            closed = height_closed(
                ModelParams(1.0, math.nextafter(1.0, 2.0), s1, s2))
            for label, want in zip(reduced.LABELS, (closed.h1, closed.h2)):
                assert abs(height_oracle(label, at_one) - want) <= 1e-6

    def test_oracle_labels_sum_to_two(self):
        p = ModelParams(1, 2, 0.3, 0.55)
        total = height_oracle("NS", p) + height_oracle("SN", p)
        assert abs(total - 2.0) < 1e-8

    def test_both_reports_discrepancy(self):
        res = height_both(ModelParams(1, 2, 0.25, 0.25))
        assert res.method == "both"
        assert res.discrepancy < 1e-7

    def test_requires_focus_focus(self):
        with pytest.raises(DegenerateSystemError):
            height_closed(ModelParams(1, 2, 0.05, 0.05))

    @pytest.mark.parametrize("s1, s2, message", [
        (0.05, 0.05, "E = 2.483425e+00 >= 0: no focus-focus points, height "
                     "undefined"),
        # A root of E in floats, inside the degeneracy band.
        (0.14453829383418643, 0.1, "E = -4.440892e-16 inside the degeneracy "
                                   "band: no focus-focus points, height "
                                   "undefined"),
    ], ids=["positive", "in_band"])
    def test_no_focus_focus_message(self, s1, s2, message):
        p = ModelParams(1, 2, s1, s2)
        for call in (height_closed, height_both,
                     lambda p: height_oracle("NS", p)):
            with pytest.raises(DegenerateSystemError) as info:
                call(p)
            assert str(info.value) == message

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_nonpositive_tol(self, tol):
        p = ModelParams(1, 2, 0.3, 0.55)
        with pytest.raises(ValueError, match="tol must be positive"):
            height_oracle("NS", p, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            height_both(p, tol)

    def test_ill_conditioned_flag(self):
        # Slide s1 until E sits just below zero at fixed s2 = 0.1, R = 2.
        from semitoric.numerics import find_root_bisect
        f = lambda s1: discriminant_E(ModelParams(1, 2, s1, 0.1)) + 5e-7
        s1_star = find_root_bisect(f, 0.05, 0.25, tol=1e-15)
        p = ModelParams(1, 2, s1_star, 0.1)
        assert -1e-6 < discriminant_E(p) < 0
        assert height_closed(p).ill_conditioned
        assert not height_closed(ModelParams(1, 2, 0.5, 0.5)).ill_conditioned

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_radii_scale_keeps_height_and_flags(self, scale):
        # E scales as r1 r2, and so does the ill-conditioned band: h and the
        # flags of the closed form and the oracle keep their values when
        # both radii are scaled.  The first point lies in the band.
        for s1, s2 in ((0.14453832383418613, 0.1), (0.3, 0.55)):
            base = ModelParams(1.0, 2.0, s1, s2)
            scaled = ModelParams(scale, 2.0 * scale, s1, s2)
            for call in (height_closed, height_quadrature):
                want, got = call(base), call(scaled)
                assert (got.h1, got.h2, got.ill_conditioned) == (
                    want.h1, want.h2, want.ill_conditioned)
        assert height_closed(ModelParams(1.0, 2.0, 0.14453832383418613,
                                         0.1)).ill_conditioned
        assert not height_closed(ModelParams(1e-150, 1e-149, 0.3,
                                             0.4)).ill_conditioned

    @pytest.mark.parametrize("point", [
        (1, 2, 0.25, 0.25), (1, 2, 0.3, 0.55), (2, 1, 0.3, 0.4),
        (3, 1, 0.6, 0.2), (1, 2, 0.5, 0.5), (1, 2, 0.21, 0.03066823177149811),
        (1, 2, 0.14453832383418613, 0.1)])
    def test_quadrature_record(self, point):
        # The values ``height --method quadrature`` built itself before
        # ``height_quadrature``: both oracles and the case in the NS frame.
        # The flag is now the closed form's, and ``height_both`` is the
        # closed form with their discrepancy.
        p = ModelParams(*point)
        work = ns_frame(p)
        inv = height_quadrature(p)
        assert (inv.h1, inv.h2, inv.case_ns, inv.method) == (
            height_oracle("NS", work), height_oracle("SN", work),
            case_id(work), "quadrature")
        closed, both = height_closed(p), height_both(p)
        assert inv.ill_conditioned == closed.ill_conditioned
        assert both.discrepancy == max(abs(closed.h1 - inv.h1),
                                       abs(closed.h2 - inv.h2))
        assert both == HeightInvariant(closed.h1, closed.h2, closed.case_ns,
                                       "both", closed.ill_conditioned,
                                       both.discrepancy)

    def test_near_case_boundary(self, paper_F):
        # 5e-8 off s2 = R/(R+1) (case I), where the partial fractions lost
        # every digit and the old branch cross-check raised: F matches the
        # paper's form and h1 lies within |k| of the case-III value 1.
        R, s1, s2 = 2.0, 0.25, 2.0 / 3.0 - 5e-8
        h1 = height_closed(ModelParams(1.0, R, s1, s2)).h1
        assert abs(h1 - (2.0 - paper_F(s1, s2, R) / (2 * math.pi))) <= 1e-13
        assert abs(h1 - 1.0) <= abs((2 * s1 - 1) * (R * (s2 - 1) + s2))

    def test_small_ratio_frame(self):
        # R < 1 parameters give the mirrored multiset of an R > 1 system.
        a = height_closed(ModelParams(2.0, 1.0, 0.3, 0.4))
        b = height_closed(ModelParams(1.0, 2.0, 0.3, 0.6))
        assert abs(a.h1 - b.h1) < 1e-12
        assert abs(a.h2 - b.h2) < 1e-12


def _near_band_edge(r1, r2, s2, depth):
    """s1 in (0, 1/2) at which -E / (r1 r2) is ``depth``, by bisection."""
    f = lambda s1: (discriminant_E(ModelParams(r1, r2, s1, s2))
                    + depth * r1 * r2)
    return ModelParams(r1, r2, find_root_bisect(f, 1e-3, 0.5 - 1e-3,
                                                tol=1e-16), s2)


class TestHeightBoth:
    """``height_both`` computes E, the NS frame, the case and t once per
    point; its record is the one built from ``height_closed`` and
    ``height_quadrature``."""

    @staticmethod
    def points():
        yield from (ModelParams(*p) for p in (
            (1, 2, 0.3, 0.55), (2, 1, 0.3, 0.4), (1, 2, 0.3, 0.7),
            (2, 1, 0.3, 0.25), (1, 2, 0.7, 0.6), (3, 1, 0.6, 0.2),
            (1, 8, 0.7, 0.95), (0.125, 1, 0.35, 0.8),
            # Case III: on s1 = 1/2, and on s2 = R/(R+1) in both frames.
            (1, 2, 0.5, 0.3), (1, 2, 0.25, 2 / 3), (2, 1, 0.25, 1 / 3)))
        # Next to the degeneracy band's edge, and in the ill-conditioned
        # band, in both frames.
        for r1, r2, s2 in ((1, 2, 0.1), (2, 1, 0.9), (1, 3, 0.05)):
            for depth in (2e-10, 1e-9, 5e-7):
                yield _near_band_edge(r1, r2, s2, depth)

    def test_equals_closed_and_quadrature_records(self):
        for p in self.points():
            closed, quad = height_closed(p), height_quadrature(p)
            want = HeightInvariant(
                closed.h1, closed.h2, closed.case_ns, "both",
                closed.ill_conditioned, max(abs(closed.h1 - quad.h1),
                                            abs(closed.h2 - quad.h2)))
            got = height_both(p)
            assert quad.case_ns == closed.case_ns
            assert got == want
            for name in ("h1", "h2", "discrepancy"):
                assert (getattr(got, name).hex()
                        == getattr(want, name).hex()), (p, name)
            assert type(got.ill_conditioned) is type(want.ill_conditioned)

    def test_covers_case_iii_and_the_bands(self):
        seen = [(height_closed(p).case_ns, height_closed(p).ill_conditioned,
                 p.R > 1) for p in self.points()]
        assert {case for case, _, _ in seen} >= {"I", "II", "III", "IV", "V"}
        assert {(flag, big) for _, flag, big in seen} == {
            (False, True), (False, False), (True, True), (True, False)}

    def test_one_discriminant_per_point(self, monkeypatch):
        # E of the point once, and E of the NS frame once more only where
        # the sphere swap applies; both oracles share that second value, in
        # height_quadrature as in height_both.
        calls = []

        def counted(params):
            calls.append(params)
            return discriminant_E(params)

        monkeypatch.setattr(height, "discriminant_E", counted)
        monkeypatch.setattr(singularity, "discriminant_E", counted)
        for method in (height_both, height_quadrature):
            for p in self.points():
                calls.clear()
                method(p)
                assert calls == ([p] if p.R > 1 else [p, ns_frame(p)])
