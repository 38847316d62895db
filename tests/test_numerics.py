"""Numerical kernels: quadrature, bisection, golden section, quartic roots."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import panel_integrand
from semitoric import numerics
from semitoric.errors import NonconvergenceError
from semitoric.numerics import (find_root_bisect, integrate, minimize_golden,
                                quartic_roots)


def quad(f, a, b, sin2=False, **kw):
    """``integrate`` of the scalar ``f`` through conftest's panel helper."""
    return integrate(*panel_integrand(f, a, b, sin2), **kw)


class TestIntegrate:
    def test_polynomial_exactness(self):
        # Exact to 1e-13 on polynomials of degree <= 10 over [0, 1].
        for deg in range(11):
            val, _ = quad(lambda x, d=deg: x ** d, 0.0, 1.0)
            assert abs(val - 1.0 / (deg + 1)) < 1e-13

    def test_simple_square(self):
        val, err = quad(lambda x: x * x, 0.0, 1.0)
        assert abs(val - 1.0 / 3.0) < 1e-12

    def test_inverse_sqrt_right_endpoint(self):
        val, _ = quad(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0,
                      sin2=True)
        assert abs(val - 2.0) < 1e-10

    def test_inverse_sqrt_left_endpoint(self):
        val, _ = quad(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, sin2=True)
        assert abs(val - 2.0) < 1e-10

    def test_root_quadratic_integrand(self):
        # 1/sqrt(x^2 - 3x + 2) over [0, 1): roots at 1 and 2, and the
        # integral is log(3 + 2 sqrt 2) = 2 log(1 + sqrt 2).
        val, _ = quad(lambda x: 1.0 / math.sqrt(x * x - 3 * x + 2),
                      0.0, 1.0, sin2=True)
        assert abs(val - 2.0 * math.log(1.0 + math.sqrt(2.0))) < 1e-9

    def test_nonconvergence_carries_trace(self):
        with pytest.raises(NonconvergenceError) as exc:
            quad(lambda x: 1.0 / math.sqrt(abs(x - 0.3337)) if
                 x != 0.3337 else 0.0, 0.0, 1.0, tol=1e-14,
                 max_subdivisions=8)
        assert exc.value.trace

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            quad(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="must be positive"):
            quad(lambda x: x, 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("n", [7, 0, -1])
    def test_rejects_few_subdivisions(self, n):
        with pytest.raises(ValueError, match="max_subdivisions must be >= 8"):
            quad(lambda x: x, 0.0, 1.0, max_subdivisions=n)

    def test_rule_is_gauss_kronrod(self):
        # The mirrored half tables give the rule: K15 integrates x^d
        # exactly up to degree 22, G7 (the odd nodes) up to degree 13.
        x = np.array(numerics._KRONROD_NODES)
        for d in range(23):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(numerics._KRONROD_WEIGHTS @ x ** d - exact) < 1e-14
            if d <= 13:
                assert abs(numerics._GAUSS_WEIGHTS @ x[1::2] ** d
                           - exact) < 1e-14

    def test_panel_nodes_are_ndarray_nodes(self):
        # The node list of a panel in plain floats has the bits of
        # mid + half * nodes on an ndarray.
        rng = np.random.default_rng(36)
        nodes = np.array(numerics._KRONROD_NODES)
        seen = []

        def record(xs):
            seen.append(xs)
            return [0.0] * len(xs)

        for a, b in np.sort(rng.uniform(-3.0, 3.0, (500, 2))).tolist():
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            numerics._gk15(record, a, b)
            assert seen.pop() == (mid + half * nodes).tolist()

    @pytest.mark.parametrize("f, a, b, ends", [
        (lambda x: math.exp(-x) * x ** 2.5 - math.cos(3.0 * x), 0.0, 4.0,
         "none"),
        (lambda x: 1.0 / math.sqrt(x * (1.0 - x)), 0.0, 1.0, "both"),
        (lambda x: 2.0 * math.acos(max(-1.0, min(1.0, (x - 0.25) / x))),
         0.0, 1.5, "both"),
    ])
    def test_panel_on_floats_equals_ndarray_panel(self, monkeypatch,
                                                  ndarray_gk15, f, a, b,
                                                  ends):
        # The panel hands f its nodes as Python floats instead of the
        # elements of an ndarray; every value must keep its bits.  With
        # ends "both", both ends go through the sin^2 map.
        sin2 = ends == "both"
        value = quad(f, a, b, sin2, tol=1e-13)
        monkeypatch.setattr(numerics, "_gk15", ndarray_gk15)
        assert value == quad(f, a, b, sin2, tol=1e-13)


def _seeded_panels(n, seed):
    """``n`` seeded panels of 15 values of mixed sign over 16 decades,
    where a left-to-right sum or a BLAS dot rounds differently from the
    exact sum."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.choice([-1.0, 1.0], 15)
               * 10.0 ** rng.uniform(-8.0, 8.0, 15)).tolist()


def _rounded_once(weights, values):
    """The exact sum of the rounded products w_i v_i, rounded once."""
    return float(sum(Fraction(w * v) for w, v in zip(weights, values)))


class TestPanelSums:
    """K15 and G7 are the ``math.fsum`` of the rounded products w_i f_i:
    the exact sum rounded once, whatever the order of its terms."""

    def test_sums_are_the_exact_sum_rounded_once(self):
        naive_differs = 0
        for fx in _seeded_panels(300, 41):
            for weights, values in ((numerics._KRONROD_WEIGHTS, fx),
                                    (numerics._GAUSS_WEIGHTS, fx[1::2])):
                want = _rounded_once(weights, values)
                assert numerics._weighted_sum(weights, values) == want
                naive_differs += sum(
                    w * v for w, v in zip(weights, values)) != want
            # On [-1, 1] half is 1, so the panel's K15 is the sum itself.
            k15, _ = numerics._gk15(lambda xs: fx, -1.0, 1.0)
            assert k15 == _rounded_once(numerics._KRONROD_WEIGHTS, fx)
        assert naive_differs > 0

    def test_bits_keep_under_permutation(self):
        rng = np.random.default_rng(42)
        for fx in _seeded_panels(200, 43):
            for weights, values in ((numerics._KRONROD_WEIGHTS, fx),
                                    (numerics._GAUSS_WEIGHTS, fx[1::2])):
                pairs = list(zip(weights, values))
                want = numerics._weighted_sum(weights, values)
                for _ in range(5):
                    w, v = zip(*(pairs[i]
                                 for i in rng.permutation(len(pairs))))
                    assert numerics._weighted_sum(w, v) == want


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _values(pattern):
    """A panel integrand returning ``pattern`` (15 values) on any panel."""
    return lambda xs: list(pattern)


INF, NAN, BIG = math.inf, math.nan, 1e308


class TestNonFinitePanels:
    """NaN, +-inf and sums beyond the float range give what the ndarray
    dot of the earlier panel gave (NaN or +-inf), with no exception from
    ``math.fsum`` and no warning.  ``want`` is (K15, error) of the panel
    on [-1, 1] and the outcome of ``integrate`` on [0, 1] (tol 1e-9, 8
    subdivisions), as the ndarray panel had them, except that an error
    estimate past the float range (|K15 - G7| above about 1e203) is inf
    where ``** 1.5`` raised ``OverflowError`` (``1e308_at_7``, ``5e307``):
    ``integrate`` splits on to its documented NonconvergenceError."""

    @pytest.mark.parametrize("pattern, want, outcome", [
        ([NAN] * 15, (NAN, NAN), NonconvergenceError),
        ([INF] * 15, (INF, NAN), NonconvergenceError),
        ([-INF] * 15, (-INF, NAN), NonconvergenceError),
        ([INF] + [1.0] * 14, (INF, INF), (INF, INF)),
        ([1.0] * 7 + [-INF] + [1.0] * 7, (-INF, NAN), NonconvergenceError),
        ([1.0] * 3 + [NAN] + [1.0] * 11, (NAN, NAN), NonconvergenceError),
        ([INF] + [1.0] * 13 + [-INF], (NAN, NAN), NonconvergenceError),
        ([1.0, INF, 1.0, -INF] + [1.0] * 11, (NAN, NAN),
         NonconvergenceError),
        ([BIG] * 15, (INF, NAN), NonconvergenceError),
        ([-BIG] * 15, (-INF, NAN), NonconvergenceError),
        ([1.7976931348623157e308] * 15, (INF, NAN), NonconvergenceError),
        ([BIG] * 14 + [INF], (INF, NAN), NonconvergenceError),
        ([BIG] * 14 + [NAN], (NAN, NAN), NonconvergenceError),
        ([-INF] + [BIG] * 14, (-INF, INF), (-INF, INF)),
        ([1.0] * 7 + [BIG] + [1.0] * 7, (2.0948214108472801e+307, INF),
         NonconvergenceError),
        ([5e307] * 15, (9.99999999999997e+307, INF), NonconvergenceError),
    ], ids=["nan", "inf", "-inf", "inf_at_0", "-inf_at_7", "nan_at_3",
            "inf-inf", "inf-inf_gauss", "1e308", "-1e308", "max",
            "1e308+inf", "1e308+nan", "-inf+1e308", "1e308_at_7", "5e307"])
    def test_panel_and_integrate(self, pattern, want, outcome):
        f = _values(pattern)
        k15, err = numerics._gk15(f, -1.0, 1.0)
        assert _same(k15, want[0]) and _same(err, want[1])
        if isinstance(outcome, tuple):
            value, err = integrate(f, 0.0, 1.0, 1e-9, 8)
            assert _same(value, outcome[0]) and _same(err, outcome[1])
        else:
            with pytest.raises(outcome):
                integrate(f, 0.0, 1.0, 1e-9, 8)

    def test_overflowing_partial_sums(self):
        # Partial sums of 1e308-sized terms leave the float range inside
        # fsum; at 1/16 scale they do not, and the sum is still the exact
        # one rounded once: finite where it fits, +-inf where it does not.
        for pattern in ([BIG] * 15, [-BIG] * 15, [BIG, BIG, -BIG] * 5,
                        [BIG] * 8 + [-BIG] * 7, [BIG] * 7 + [-BIG] * 8):
            for weights in (numerics._KRONROD_WEIGHTS, [1.0] * 15):
                exact = sum(Fraction(w * v) for w, v in zip(weights,
                                                            pattern))
                try:  # int / int is rounded once, or raises past the range
                    want = float(exact)
                except OverflowError:
                    want = INF if exact > 0 else -INF
                assert numerics._weighted_sum(weights, pattern) == want


class TestBisect:
    def test_linear(self):
        assert abs(find_root_bisect(lambda x: x - 0.5, 0.0, 1.0) - 0.5) < 1e-12

    def test_cosine(self):
        x = find_root_bisect(math.cos, 1.0, 2.0, tol=1e-13)
        assert abs(x - math.pi / 2) < 1e-12

    def test_residual_monotone_in_tol(self):
        f = lambda x: x ** 3 - 0.2
        residuals = [abs(f(find_root_bisect(f, 0.0, 1.0, tol=t)))
                     for t in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a >= b for a, b in zip(residuals[:-1], residuals[1:]))

    def test_tol_below_float_spacing(self, time_limit):
        # Near 2e6 adjacent floats are 2.3e-10 apart, far above tol.  f is
        # zero at no float (x - 2e6 is a multiple of 2**-32, 0.1 is not),
        # so only the bracket can stop the search.
        time_limit(10)
        x = find_root_bisect(lambda x: (x - 2e6) - 0.1, 2e6, 2e6 + 1.0, 1e-14)
        assert abs(x - (2e6 + 0.1)) <= math.ulp(2e6)

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_requires_ordered_bracket(self):
        # A reversed or empty bracket raises before f is called, as in
        # ``integrate``, instead of returning its midpoint.
        def f(x):
            raise AssertionError("f called")
        for a, b in ((1.0, 0.5), (0.5, 0.5), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="require a < b"):
                find_root_bisect(f, a, b)


class TestGolden:
    def test_parabola(self):
        res = minimize_golden(lambda x: (x - 1.0) ** 2, 0.0, 3.0)
        assert abs(res.x - 1.0) < 1e-8
        assert res.unimodal

    def test_tol_below_float_spacing(self, time_limit):
        time_limit(10)
        res = minimize_golden(lambda x: (x - 2e6 - 0.3) ** 2, 2e6, 2e6 + 1.0)
        assert abs(res.x - (2e6 + 0.3)) < 1e-6

    def test_monotone_hits_endpoint(self):
        res = minimize_golden(lambda x: x, 0.0, 1.0)
        assert abs(res.x - 0.0) < 1e-8

    def test_multimodal_finds_global(self):
        f = lambda x: math.sin(5.0 * x) + 0.1 * x
        res = minimize_golden(f, 0.0, 4.0)
        xs = np.linspace(0.0, 4.0, 100001)
        dense = min(f(float(x)) for x in xs)
        assert res.fx <= dense + 1e-9
        assert not res.unimodal

    def test_envelope_max_matches_dense_grid(self):
        from semitoric import reduced
        from semitoric.model import ModelParams
        p = ModelParams(1.0, 2.0, 0.3, 0.6)

        def neg_upper(p2):
            b = max(0.0, reduced.reduced_B("NS", 0.0, p2, p))
            return -(reduced.reduced_A("NS", 0.0, p2, p) + math.sqrt(b))

        res = minimize_golden(neg_upper, 0.0, 2.0)
        xs = np.linspace(0.0, 2.0, 100001)
        dense = min(neg_upper(float(x)) for x in xs)
        assert res.fx <= dense + 1e-10


class TestGoldenEdgeCases:
    def test_tied_basins_pick_the_first(self, scalar_golden):
        # Two wells with an exactly flat floor at 0: every basin ties.
        def wells(x, c1, c2):
            return min(max(abs(x - c1) - 0.2, 0.0), max(abs(x - c2) - 0.2, 0.0))
        for f in (lambda x: wells(x, 0.5, 2.5), lambda x: wells(x, 2.5, 0.5)):
            res = minimize_golden(f, 0.0, 3.0)
            assert res.fx == 0.0 and res.x < 1.0
            assert not res.unimodal
            assert (res.x, res.fx, res.unimodal) == scalar_golden(f, 0.0, 3.0)

    def test_adjacent_float_bracket(self, scalar_golden):
        # No float lies inside [1, 1 + ulp]: every basin bracket has zero
        # width or adjacent ends and keeps its seed point or midpoint.
        b = math.nextafter(1.0, 2.0)
        for f in (lambda x: (x - 1.0) ** 2, lambda x: -x):
            res = minimize_golden(f, 1.0, b)
            assert 1.0 <= res.x <= b
            assert (res.x, res.fx, res.unimodal) == scalar_golden(f, 1.0, b)

    def test_nan_objective_keeps_left_end(self, scalar_golden):
        f = lambda x: math.nan
        res = minimize_golden(f, 0.0, 1.0)
        assert (res.x, res.fx) == (0.0, math.inf)
        assert (res.x, res.fx, res.unimodal) == scalar_golden(f, 0.0, 1.0)

    @pytest.mark.parametrize("n_seed", [1, 0, -1])
    def test_too_few_seeds_raise(self, n_seed):
        # One seed used to return (a, f(a)) without refining, and 0 and -1
        # leaked IndexError and NumPy's "Number of samples" message.
        def f(x):
            raise AssertionError("f called")
        with pytest.raises(ValueError, match="n_seed must be >= 2"):
            minimize_golden(f, 0.0, 1.0, n_seed=n_seed)
        res = minimize_golden(lambda x: (x - 0.3) ** 2, 0.0, 1.0, n_seed=2)
        assert abs(res.x - 0.3) < 1e-8

    def test_zero_width_bracket_raises(self):
        f = lambda x: x
        with pytest.raises(ValueError, match="require a < b"):
            minimize_golden(f, 1.0, 1.0)
        with pytest.raises(ValueError, match="require a < b"):
            minimize_golden(f, math.nan, 1.0)

    def test_array_brackets_raise(self):
        def f(x):
            raise AssertionError("f called")
        for a, b in ((np.array([0.0, 1.0]), np.array([1.0, 2.0])),
                     (np.array([0.0]), np.array([1.0])),
                     (0.0, np.array([1.0])),
                     (np.zeros((1, 1)), 1.0)):
            with pytest.raises(ValueError, match="one float bracket"):
                minimize_golden(f, a, b)

    def test_float_bracket_matches_reference(self, scalar_golden):
        for f, a, b in ((lambda x: math.sin(5.0 * x) + 0.1 * x, 0.0, 4.0),
                        (lambda x: (x - 2e6 - 0.3) ** 2, 2e6, 2e6 + 1.0),
                        (lambda x: x, 0.0, 1.0)):
            res = minimize_golden(f, a, b)
            assert (res.x, res.fx, res.unimodal) == scalar_golden(f, a, b)


class TestQuarticRoots:
    def test_quadruple_zero(self):
        roots = quartic_roots([1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(roots)) < 1e-6

    def test_constructed_factorization(self):
        # x^2 (x - 2)(x - 4) = x^4 - 6x^3 + 8x^2
        roots = quartic_roots([1.0, -6.0, 8.0, 0.0, 0.0])
        assert np.max(np.abs(roots - np.array([0.0, 0.0, 2.0, 4.0]))) < 1e-10

    def test_complex_pair(self):
        # (x^2 + 1)(x - 1)(x + 1) = x^4 - 1
        roots = quartic_roots([1.0, 0.0, 0.0, 0.0, -1.0])
        assert sorted(np.round(roots.real, 9)) == [-1.0, 0.0, 0.0, 1.0]

    def test_vieta_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.uniform(-2.0, 2.0, 5)
            c[0] = c[0] if abs(c[0]) > 0.1 else 1.0
            roots = quartic_roots(c)
            rebuilt = c[0] * np.poly(roots)
            scale = np.max(np.abs(c))
            assert np.max(np.abs(rebuilt - c)) < 1e-9 * max(scale, 1.0)

    def test_rejects_degenerate_leading_coefficient(self):
        with pytest.raises(ValueError):
            quartic_roots([0.0, 1.0, 2.0, 3.0, 4.0])
