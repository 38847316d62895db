"""Momentum-map image envelope and polygon representatives."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from references import exact_vertices, mp_envelope
from semitoric import cartography, reduced
from semitoric.cartography import (_MAX_STEPS, ImageBoundary, Polygon,
                                   _assert_polygon, _chain_at,
                                   _critical_points, _envelope_candidates,
                                   act_flip_cut, act_shear, image_boundary,
                                   polygon_representative)
from semitoric.errors import ConsistencyError, DegenerateSystemError
from semitoric.model import FIXED_POINTS, ModelParams, momentum_map, ns_frame
from semitoric.reduced import dh_function
from semitoric.singularity import DEGENERACY_BAND, discriminant_E, n_ff


FF_PARAMS = ModelParams(1.0, 2.0, 0.5, 0.5)
ALL_CUTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def flood_fill_cuts(params, grid_n=257):
    """Reference toric shape by flood fill of the E > 0 region on a grid.

    The component holding (s1, s2) (R > 1 frame) gives (+1, -1) when it
    reaches the corner (0, 0) or (1, 1) and (-1, +1) when it reaches (1, 0)
    or (0, 1).  Returns None when the nearest grid node is not toric or the
    component reaches corners of both kinds or of neither.
    """
    s = np.linspace(0.0, 1.0, grid_n)
    s1g, s2g = np.meshgrid(s, s, indexing="ij")
    mask = discriminant_E(SimpleNamespace(r1=params.r1, r2=params.r2,
                                          s1=s1g, s2=s2g)) > 0
    i = int(round(params.s1 * (grid_n - 1)))
    j = int(round(params.s2 * (grid_n - 1)))
    if not mask[i, j]:
        return None
    comp = np.zeros_like(mask)
    comp[i, j] = True
    while True:
        grown = comp.copy()
        grown[1:, :] |= comp[:-1, :]
        grown[:-1, :] |= comp[1:, :]
        grown[:, 1:] |= comp[:, :-1]
        grown[:, :-1] |= comp[:, 1:]
        grown &= mask
        if (grown == comp).all():
            break
        comp = grown
    plus_minus = comp[0, 0] or comp[-1, -1]
    minus_plus = comp[-1, 0] or comp[0, -1]
    if plus_minus == minus_plus:
        return None
    return (1, -1) if plus_minus else (-1, 1)


def reference_vertices(cuts, ff_l, R, loop_rho):
    """Vertices of the canonical representative, assembled point by point
    with the DH profile ``loop_rho(R, l)``: a copy of the construction
    before widths and profiles were evaluated with ``np.interp``."""
    la, lb = 0.0, 2.0 * R - 2.0
    breaks = [-2.0, la, lb, 2.0 * R]
    bottom_slopes = []
    slope = 0.0
    for left in breaks[:-1]:
        if left == la and cuts[0] == -1:
            slope += 1.0
        if left == lb and cuts[1] == -1:
            slope += 1.0
        bottom_slopes.append(slope)
    bottom, y = [(-2.0, 0.0)], 0.0
    for (l0, l1), s in zip(zip(breaks[:-1], breaks[1:]), bottom_slopes):
        y += s * (l1 - l0)
        bottom.append((l1, y))
    top = [(l, yb + loop_rho(R, l)) for l, yb in bottom]

    def dedupe(chain):
        out = [chain[0]]
        for prev, cur, nxt in zip(chain[:-2], chain[1:-1], chain[2:]):
            s_in = (cur[1] - prev[1]) / (cur[0] - prev[0])
            s_out = (nxt[1] - cur[1]) / (nxt[0] - cur[0])
            if abs(s_in - s_out) > 1e-12:
                out.append(cur)
        out.append(chain[-1])
        return out

    bottom, top = dedupe(bottom), dedupe(top)
    return tuple(bottom) + tuple(reversed(top[1:-1]))


def seeded_polygons(n_each):
    """``n_each`` focus-focus representatives (all four cuts) and
    ``n_each`` toric ones, R log-uniform on [1/8, 8]."""
    rng = np.random.default_rng(20261018)
    ff, toric = [], []
    while len(ff) < n_each or len(toric) < n_each:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        p = ModelParams(1.0, R, *map(float, rng.uniform(0.0, 1.0, 2)))
        try:
            if discriminant_E(p) > 0:
                if len(toric) < n_each:
                    toric.append((p, polygon_representative(p)))
            elif len(ff) < n_each:
                cuts = ((1, 1), (1, -1), (-1, 1), (-1, -1))[len(ff) % 4]
                ff.append((p, polygon_representative(p, cuts)))
        except DegenerateSystemError:
            continue
    return ff + toric


class TestPolygonVertices:
    def test_vertices_equal_pointwise_construction(self, dh_slope_rule):
        polys = seeded_polygons(30)
        assert {p.R > 1 for p, _ in polys} == {True, False}
        assert sum(1 for _, poly in polys if poly.ff_l) == 30
        for p, poly in polys:
            R = ns_frame(p).R
            assert poly.vertices == reference_vertices(poly.cuts, poly.ff_l,
                                                       R,
                                                       dh_slope_rule.rho), p

    def test_array_width_equals_float_calls(self):
        for p, poly in seeded_polygons(10):
            lo, hi = poly.domain
            ls = np.concatenate([np.linspace(lo, hi, 57),
                                 [v[0] for v in poly.vertices]])
            w = poly.width(ls)
            assert type(poly.width(float(ls[3]))) is float
            assert np.abs(w - [poly.width(float(l)) for l in ls]).max() \
                <= 1e-15

    @pytest.mark.parametrize("bad", [4.5, -2.5, np.nan])
    def test_width_rejects_one_element_outside_domain(self, bad):
        poly = polygon_representative(FF_PARAMS)
        with pytest.raises(ValueError, match="outside"):
            poly.width(np.array([-2.0, 0.5, bad, 4.0]))
        with pytest.raises(ValueError, match="outside"):
            poly.width(bad)

    def test_self_check_rejects_moved_top_vertex(self):
        poly = polygon_representative(FF_PARAMS, (1, 1))
        dh = dh_function(2.0)
        _assert_polygon(poly, dh)
        top = list(poly.top)
        top[1] = (top[1][0], top[1][1] + 1e-10)
        with pytest.raises(ConsistencyError, match="Duistermaat-Heckman"):
            _assert_polygon(dataclasses.replace(poly, top=tuple(top)), dh)

    def test_canonical_representatives(self):
        expect = {
            (1, 1): ((-2.0, 0.0), (4.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
            (1, -1): ((-2.0, 0.0), (2.0, 0.0), (4.0, 2.0), (0.0, 2.0)),
            (-1, 1): ((-2.0, 0.0), (0.0, 0.0), (4.0, 4.0), (2.0, 4.0)),
            (-1, -1): ((-2.0, 0.0), (0.0, 0.0), (2.0, 2.0), (4.0, 6.0)),
        }
        for cuts, verts in expect.items():
            poly = polygon_representative(FF_PARAMS, cuts)
            assert poly.vertices == verts
            assert poly.cuts == cuts
            assert poly.ff_l == (0.0, 2.0)

    def test_anchor_and_domain(self):
        poly = polygon_representative(ModelParams(1.0, 3.0, 0.5, 0.5))
        assert poly.vertices[0] == (-2.0, 0.0)
        assert poly.domain == (-2.0, 6.0)

    def test_width_matches_dh_profile(self):
        for R in (1.5, 2.0, 4.0):
            dh = dh_function(R)
            for cuts in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                poly = polygon_representative(
                    ModelParams(1.0, R, 0.5, 0.5), cuts)
                for l in np.linspace(-2.0, 2.0 * R, 37):
                    assert abs(poly.width(float(l))
                               - dh.rho(float(l))) < 1e-12

    @pytest.mark.parametrize("cuts", [(0, 1), 1, None], ids=repr)
    def test_rejects_bad_cuts(self, cuts):
        with pytest.raises(ValueError, match="cuts"):
            polygon_representative(FF_PARAMS, cuts)

    def test_cuts_stored_as_int_signs(self):
        for given, cuts in (((True, True), (1, 1)), ((1.0, -1.0), (1, -1)),
                            ((np.int64(-1), 1), (-1, 1)),
                            (iter((-1, -1)), (-1, -1))):
            poly = polygon_representative(FF_PARAMS, given)
            assert [type(c) for c in poly.cuts] == [int, int]
            assert poly == polygon_representative(FF_PARAMS, cuts)

    def test_self_check_rejects_non_convex_polygon(self):
        # Bottom slopes 1 then 0 bend the wrong way; widths match rho.
        dh = dh_function(2.0)
        bottom = ((-2.0, 0.0), (0.0, 2.0), (4.0, 2.0))
        top = tuple((l, y + dh.rho(l)) for l, y in bottom)
        poly = Polygon(bottom + tuple(reversed(top[1:-1])), (1, 1),
                       (0.0, 2.0), bottom, top)
        with pytest.raises(ConsistencyError, match="not convex"):
            _assert_polygon(poly, dh)


class TestPolygonRange:
    """From R = 2^53 on, 2R - 2 or 2R + 2 is no float: at 2^53 cuts
    (-1, -1) lost their second bend without an error, and above it the DH
    self-check failed (exit 5).  Such a ratio is a ValueError naming R."""

    @pytest.mark.parametrize("r1, r2", [
        (1.0, 2.0 ** 53), (1.0, 1e16), (1.0, 1e20), (1.0, 1e150),
        (2.0 ** 53, 1.0), (1e16, 1.0), (3e-150, 1e-133)])
    def test_large_ratio_raises(self, r1, r2):
        for s1 in (0.3, 0.5 + 1e-9):  # toric, and focus-focus at 2^53
            p = ModelParams(r1, r2, s1, 0.4)
            with pytest.raises(ValueError, match=re.escape(
                    f"radius ratio R = {ns_frame(p).R!r} is too large")):
                polygon_representative(p)

    def test_rounded_vertex_raises_value_error(self):
        # R = 2^k - ulp for k = 1 .. 52, where 2R + 2 crosses a power of
        # two, and R = 16777215.000000002: in both frames every cut and the
        # toric shape return a representative or raise ValueError naming R,
        # never ConsistencyError.  Cuts (-1, -1) raise exactly where their
        # vertex y = 2R + 2 rounds by more than 2e-9, from k = 24 on.
        ratios = [math.nextafter(2.0 ** k, 0.0) for k in range(1, 53)]
        raised = []
        for R in ratios + [16777215.000000002]:
            off = Fraction(2.0 * R + 2.0) - 2 * Fraction(R) - 2
            for r1, r2, s2 in ((1.0, R, 0.4), (R, 1.0, 0.6)):
                ff = ModelParams(r1, r2, 0.5 + 1e-9, s2)
                toric = ModelParams(r1, r2, 0.05, 0.02 if r2 > r1 else 0.98)
                assert (n_ff(ff), n_ff(toric)) == (2, 0)
                polygon_representative(toric)
                for cuts in ALL_CUTS:
                    if cuts != (-1, -1) or abs(off) <= 2e-9:
                        polygon_representative(ff, cuts)
                        continue
                    with pytest.raises(ValueError, match=re.escape(
                            f"radius ratio R = {R!r}: 2R + 2 is no float")):
                        polygon_representative(ff, cuts)
                    raised.append(R)
        assert raised == [R for R in ratios[23:] + [16777215.000000002]
                          for _ in range(2)]

    @pytest.mark.parametrize("r1, r2", [(1.0, 2.0 ** 53 - 1),
                                        (2.0 ** 53 - 1, 1.0)])
    def test_largest_ratio_builds_exact_vertices(self, r1, r2):
        # 2^53 - 1 is the largest float ratio below the limit; every
        # representative is exact there, in both frames.
        R = int(2.0 ** 53 - 1)
        s2 = 0.4 if r2 > r1 else 0.6
        ff, toric = ModelParams(r1, r2, 0.5 + 1e-9, s2), ModelParams(
            r1, r2, 0.3, s2)
        assert (n_ff(ff), n_ff(toric), ns_frame(ff).R) == (2, 0, R)
        for cuts in ALL_CUTS:
            poly = polygon_representative(ff, cuts)
            assert poly.ff_l == (0.0, 2 * R - 2)
            assert poly.vertices == exact_vertices(cuts, R), cuts
        poly = polygon_representative(toric)
        assert poly.ff_l == ()
        assert poly.vertices == exact_vertices(poly.cuts, R)


def bends_at_ff_levels(poly, R):
    """For each ff level, whether the bottom and whether the top chain has
    a vertex there."""
    bottom, top = dict(poly.bottom), dict(poly.top)
    return [(l in bottom, l in top) for l in reduced.ff_levels(R)]


def collinear(a, b, c):
    """Whether the float points a, b, c lie on one line, exactly."""
    (l0, y0), (l1, y1), (l2, y2) = (map(Fraction, p) for p in (a, b, c))
    return (y1 - y0) * (l2 - l1) == (y2 - y1) * (l1 - l0)


class TestVertexRule:
    """The closed vertex rule: with s_i = 1 where cut i is -1, bottom slopes
    0, s_1 and s_1 + s_2, the top raised by the DH profile, and at ff level
    i a bottom vertex when s_i = 1, else a top one."""

    # All four cut representatives and both toric shapes.
    SHAPES = [(cuts, True) for cuts in ALL_CUTS] + [((1, -1), False),
                                                    ((-1, 1), False)]

    def build(self, cuts, ff, R):
        return cartography._build_polygon(
            cuts, reduced.ff_levels(R) if ff else (), R)

    def test_vertices_equal_exact_arithmetic(self):
        # R log-uniform on (1, 2^52) where 2R - 2 and 2R + 2 are floats.
        rng = np.random.default_rng(20261021)
        ratios = []
        while len(ratios) < 300:
            R = math.exp(rng.uniform(0.0, 52.0 * math.log(2.0)))
            if R > 1.0 and all(Fraction(2.0 * R + d) == 2 * Fraction(R) + d
                               for d in (-2, 2)):
                ratios.append(R)
        for R in ratios:
            for cuts, ff in self.SHAPES:
                poly = self.build(cuts, ff, R)
                assert poly.vertices == exact_vertices(cuts, Fraction(R))
                for chain in (poly.bottom, poly.top):
                    assert not any(itertools.starmap(collinear, zip(
                        chain, chain[1:], chain[2:]))), (R, cuts, chain)
                assert bends_at_ff_levels(poly, R) == [
                    (c == -1, c == 1) for c in cuts], (R, cuts)

    def test_one_chain_bends_where_2R_plus_2_rounds(self):
        # Just below 2^k, 2R + 2 rounds up a binade.  The knot walk kept a
        # top vertex at ff level 2 for cuts (-1, -1) from k = 14 to 23,
        # where the float slopes of a straight top differ by more than
        # 1e-12; the rule gives one vertex per ff level, and that top is
        # one edge of slope exactly 1.  From k = 24 on, cuts (-1, -1) fail
        # the integer-slope check (the last vertex rounds by ulp(2R)), and
        # ``polygon_representative`` raises ValueError there.
        for k in range(1, 24):
            R = math.nextafter(2.0 ** k, 0.0)
            assert 2.0 * R + 2.0 != 2 * Fraction(R) + 2
            for cuts, ff in self.SHAPES:
                poly = self.build(cuts, ff, R)
                assert bends_at_ff_levels(poly, R) == [
                    (c == -1, c == 1) for c in cuts], (R, cuts)
            (l0, y0), (l1, y1) = self.build((-1, -1), True, R).top
            assert (y1 - y0) / (l1 - l0) == 1.0, R


def outcome(check, *args):
    """None when ``check(*args)`` returns, else its ConsistencyError's
    message."""
    try:
        check(*args)
    except ConsistencyError as exc:
        return str(exc)
    return None


class TestKnotSelfChecks:
    """The DH profile and the self-check of ``_assert_polygon`` at the
    knots of the DH profile against the dense-grid checks they replaced
    (``dense_checks``)."""

    def test_agree_with_dense_checks(self, monkeypatch, dense_checks):
        # R - 1 log-uniform on [1e-15, 1e20], with the ends, 2^53 (the
        # first R that dh_function rejects) and 1e16.
        rng = np.random.default_rng(20261019)
        ratios = [1.0 + 1e-15, 2.0 ** 53, 1e16, 1e20] + [
            1.0 + 10.0 ** u for u in rng.uniform(-15.0, 20.0, 400)]
        unchecked = []
        monkeypatch.setattr(cartography, "_assert_polygon",
                            lambda poly, dh: unchecked.append(poly))
        rejected = 0
        for R in ratios:
            if not R < reduced.R_LIMIT:
                with pytest.raises(ValueError, match="finite R > 1"):
                    dh_function(R)
                rejected += 1
                continue
            dh = dh_function(R)
            assert outcome(dense_checks.dh, dh, R) is None, R
            for cuts in ALL_CUTS:
                unchecked.clear()
                cartography._build_polygon(cuts, (), R)
                (poly,) = unchecked
                assert (outcome(_assert_polygon, poly, dh)
                        == outcome(dense_checks.polygon, poly, dh)), (R, cuts)
                # The self-check's plain-float widths are those of the
                # array API, bit for bit, also where dedupe drops a knot.
                ls = dh.knots[0]
                assert np.array_equal(
                    [t - b for t, b in zip(_chain_at(poly.top, ls),
                                           _chain_at(poly.bottom, ls))],
                    poly.width(np.array(ls))), (R, cuts)
        assert 0 < rejected < len(ratios)

    @pytest.mark.parametrize("cuts", ALL_CUTS)
    def test_rejects_top_shift_at_each_knot(self, cuts, dense_checks):
        # A top vertex moved up by 1e-10 at each knot, added to the chain
        # where the top is straight there.
        R = 2.5
        dh = dh_function(R)
        poly = polygon_representative(ModelParams(1.0, R, 0.5, 0.5), cuts)
        _assert_polygon(poly, dh)
        for l in dh.knots[0]:
            top = dict(poly.top)
            top[l] = float(np.interp(l, *zip(*poly.top))) + 1e-10
            moved = dataclasses.replace(poly, top=tuple(sorted(top.items())))
            for check in (_assert_polygon, dense_checks.polygon):
                with pytest.raises(ConsistencyError,
                                   match="Duistermaat-Heckman"):
                    check(moved, dh)

    def test_equals_reference_polygon_path(self, reference_polygon_path):
        # R log-uniform on [1 + 1e-9, 1e15], with both ends, and the
        # inverses of those R through the sphere swap: every cut at a
        # focus-focus point and both toric shapes give the reference's
        # Polygon and knots, and doctored copies (a vertex moved up by
        # 1e-10, 0.5 or 1) the reference's self-check outcome.
        ref = reference_polygon_path
        rng = np.random.default_rng(20261020)
        ratios = [1.0 + 1e-9, 1e15] + [
            math.exp(u) for u in rng.uniform(math.log1p(1e-9),
                                             math.log(1e15), 60)]
        for R in ratios:
            for r2 in (R, 1.0 / R):
                params = ModelParams(1.0, r2, 0.5, 0.5)
                R_ns = ns_frame(params).R
                dh = dh_function(R_ns)
                assert dh.knots == ref.knots(R_ns), R_ns
                polys = [(polygon_representative(params, cuts),
                          ref.build(cuts, reduced.ff_levels(R_ns), R_ns))
                         for cuts in ALL_CUTS]
                polys += [(cartography._build_polygon(shape, (), R_ns),
                           ref.build(shape, (), R_ns))
                          for shape in ((1, -1), (-1, 1))]
                for poly, want in polys:
                    assert poly == want, (R_ns, poly.cuts)
                    for moved in doctored_copies(poly):
                        assert (outcome(_assert_polygon, moved, dh)
                                == outcome(ref.assert_polygon, moved, dh)), \
                            (R_ns, moved)


def doctored_copies(poly):
    """Copies of ``poly`` with one chain vertex moved up by 1e-10, 0.5 or
    1, for each vertex of either chain."""
    for name in ("bottom", "top"):
        chain = getattr(poly, name)
        for i, (l, y) in enumerate(chain):
            for dy in (1e-10, 0.5, 1.0):
                moved = chain[:i] + ((l, y + dy),) + chain[i + 1:]
                yield dataclasses.replace(poly, **{name: moved})


class TestToricType:
    def test_component_shapes(self):
        # Corners of the parameter square, sorted by quadrant.
        assert polygon_representative(ModelParams(1, 2, 0.0, 0.0)).cuts == (1, -1)
        assert polygon_representative(ModelParams(1, 2, 1.0, 1.0)).cuts == (1, -1)
        assert polygon_representative(ModelParams(1, 2, 1.0, 0.0)).cuts == (-1, 1)
        assert polygon_representative(ModelParams(1, 2, 0.0, 1.0)).cuts == (-1, 1)
        # Inputs the grid flood fill could not resolve: its start node was
        # not toric, or R/(R+1) fell between its last two nodes.  R < 1
        # goes through the sphere swap, which maps s2 to 1 - s2.
        for p, cuts in ((ModelParams(1, 3.787787062180371, 0.1005520736579415,
                                     0.2373229032453258), (1, -1)),
                        (ModelParams(1, 1e3, 0.05, 0.1), (1, -1)),
                        (ModelParams(1, 1e6, 0.0, 0.0), (1, -1)),
                        (ModelParams(2, 1, 0.05, 0.05), (-1, 1))):
            assert discriminant_E(p) > 0
            poly = polygon_representative(p)
            assert poly.cuts == cuts
            assert poly.ff_l == ()

    @pytest.mark.parametrize("r1, r2", [(1.0, 1.01), (1.0, 2.0), (1.0, 37.0),
                                        (1.0, 1e3), (2.0, 1.0), (5.0, 0.5),
                                        (1e3, 1.0)])
    def test_discriminant_negative_on_case_lines(self, r1, r2):
        # The factorisations that make the quadrant rule exact.
        R = r2 / r1
        for s in np.linspace(0.0, 1.0, 11):
            s = float(s)
            e = discriminant_E(ModelParams(r1, r2, 0.5, s))
            assert e == pytest.approx(
                -r1 * r2 * (4 * s * s - 4 * s - 1) ** 2, rel=1e-12)
            assert e <= -r1 * r2
            e = discriminant_E(ModelParams(r1, r2, s, R / (R + 1)))
            assert e == pytest.approx(
                -16 * r1 * r2 * ((R + 1) ** 2 * s * (s - 1) - R) ** 2
                / (R + 1) ** 4, rel=1e-12)
            assert e < 0

    def test_quadrant_rule_matches_flood_fill(self):
        rng = np.random.default_rng(20200629)
        compared = 0
        while compared < 60:
            p = ModelParams(1.0, float(rng.uniform(1.01, 10.0)),
                            float(rng.uniform()), float(rng.uniform()))
            if discriminant_E(p) <= 0:
                continue
            ref = flood_fill_cuts(ns_frame(p))
            if ref is None:
                continue
            assert polygon_representative(p).cuts == ref, p
            compared += 1

    def test_no_cut_levels(self):
        poly = polygon_representative(ModelParams(1, 2, 0.0, 0.0))
        assert poly.ff_l == ()

    def test_product_height_range(self):
        # At (s1, s2) = (0, 0) the map is (z1 + 2 z2, z1): the h-range on
        # each level is the physical z1-interval.
        p = ModelParams(1.0, 2.0, 0.0, 0.0)
        bnd = image_boundary(p, n=32)
        for l, h_min, h_max in bnd.samples:
            lo = max(-1.0, (l - 2.0) / 1.0)
            hi = min(1.0, (l + 2.0) / 1.0)
            assert abs(h_min - lo) < 1e-8
            assert abs(h_max - hi) < 1e-8


class TestGroupActions:
    def test_shear_zero_is_identity(self):
        poly = polygon_representative(FF_PARAMS)
        assert act_shear(poly, 0) == poly

    def test_shear_inverse(self):
        poly = polygon_representative(FF_PARAMS)
        assert act_shear(act_shear(poly, 3), -3) == poly

    def test_shear_preserves_width(self):
        poly = act_shear(polygon_representative(FF_PARAMS), 2)
        dh = dh_function(2.0)
        for l in np.linspace(-2.0, 4.0, 25):
            assert abs(poly.width(float(l)) - dh.rho(float(l))) < 1e-12

    def test_flip_changes_one_sign(self):
        poly = polygon_representative(FF_PARAMS, (1, 1))
        assert act_flip_cut(poly, 1, FF_PARAMS).cuts == (-1, 1)
        assert act_flip_cut(poly, 2, FF_PARAMS).cuts == (1, -1)

    def test_double_flip_is_identity(self):
        poly = polygon_representative(FF_PARAMS, (1, -1))
        back = act_flip_cut(act_flip_cut(poly, 1, FF_PARAMS), 1, FF_PARAMS)
        assert back == poly

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1.0, 1.5])
    def test_actions_reject_non_integers(self, bad):
        poly = polygon_representative(FF_PARAMS)
        with pytest.raises(ValueError, match="shear parameter k"):
            act_shear(poly, bad)
        with pytest.raises(ValueError, match="which"):
            act_flip_cut(poly, bad, FF_PARAMS)

    def test_shear_integer_types(self):
        poly = polygon_representative(FF_PARAMS)
        assert act_shear(poly, np.int64(3)) == act_shear(poly, 3)
        with pytest.raises(ValueError, match="shear parameter k"):
            act_shear(poly, 10 ** 400)

    def test_flip_requires_cuts(self):
        poly = polygon_representative(ModelParams(1, 2, 0.0, 0.0))
        with pytest.raises(ValueError):
            act_flip_cut(poly, 1, ModelParams(1, 2, 0.0, 0.0))


def scalar_envelope(params, n, scalar_golden):
    """Reference envelope by multi-start golden section on each level of
    the NS frame, one float bracket at a time: a search that shares nothing
    with the exact envelope but the chart."""
    params = ns_frame(params)
    samples = []
    for l in np.linspace(-2.0, 2.0 * params.R, n + 1):
        l = float(l)
        lo, hi = reduced.physical_interval("NS", l, params.R)
        a_of, b_of = reduced.chart("NS", l, params)
        if hi == lo:  # the end levels
            h_min = h_max = a_of(lo)
        else:
            def lower(p2):
                return a_of(p2) - np.sqrt(max(0.0, b_of(p2)))

            def upper_neg(p2):
                return -(a_of(p2) + np.sqrt(max(0.0, b_of(p2))))

            h_min = scalar_golden(lower, lo, hi)[1]
            h_max = -scalar_golden(upper_neg, lo, hi)[1]
        samples.append((params.r1 * (l + 1.0 - params.R), h_min, h_max))
    return tuple(samples)


def mp_search_band(mpmath, params, l, steps=200):
    """(h_min, h_max) on level l of the NS chart at mpmath's working
    precision, by golden-section search of A - sqrt(B) (convex) and
    A + sqrt(B) (concave) over the level's physical p2 interval."""
    a_of, b_of = reduced.chart("NS", l, params)
    lo, hi = max(0, l), min(2 * params.R, l + 2)
    g = (mpmath.sqrt(5) - 1) / 2
    out = []
    for sign in (-1, 1):
        def f(p2):
            return sign * (a_of(p2) + sign * mpmath.sqrt(max(b_of(p2), 0)))

        x0, x1 = lo, hi
        for _ in range(steps):
            u, v = x1 - g * (x1 - x0), x0 + g * (x1 - x0)
            x0, x1 = (u, x1) if f(u) < f(v) else (x0, v)
        out.append(float(sign * max(f(lo), f(hi), f((x0 + x1) / 2))))
    return out


def _envelope_points(per_kind=5):
    """Seeded focus-focus and toric points with R on both sides of 1,
    some of them within 1e-3 of R = 1."""
    rng = np.random.default_rng(29)
    points = {"ff": [], "toric": []}
    for draw in itertools.count():
        if min(map(len, points.values())) == per_kind:
            break
        side = 1.0 if draw % 2 else -1.0
        if draw % 3 == 0:
            R = 1.0 + side * float(10 ** rng.uniform(-9, -3))
        else:
            R = float(np.exp(side * rng.uniform(0.0, np.log(8))))
        p = ModelParams(1.0, R, *(float(v) for v in rng.uniform(0, 1, 2)))
        kind = "toric" if discriminant_E(p) > 0 else "ff"
        if len(points[kind]) < per_kind:
            points[kind].append(p)
    return points["ff"] + points["toric"]


def _relative_gap(samples, ref):
    """(largest |difference|, largest shortfall) of the envelope ``samples``
    against ``ref`` (same levels), relative to max(1, max |h|) of ``ref``.
    The shortfall is how far ``samples`` lies inside ``ref`` on either side
    of the band (negative when it is wider everywhere)."""
    got, ref = np.array(samples), np.array(ref)
    assert (got[:, 0] == ref[:, 0]).all()
    scale = max(1.0, float(np.abs(ref[:, 1:]).max()))
    diff = float(np.abs(got[:, 1:] - ref[:, 1:]).max())
    short = max(float((got[:, 1] - ref[:, 1]).max()),
                float((ref[:, 2] - got[:, 2]).max()))
    return diff / scale, short / scale


def dense_envelope(params, n, m=2001):
    """(h_min, h_max) per level of the NS frame: A -/+ sqrt(max(B, 0)) at
    ``m`` evenly spaced points of each level's physical interval, ends
    included."""
    params = ns_frame(params)
    ls = np.linspace(-2.0, 2.0 * params.R, n + 1)
    lo, hi = np.maximum(ls, 0.0), np.minimum(ls + 2.0, 2.0 * params.R)
    p2 = np.linspace(lo, hi, m, axis=1)
    a_of, b_of = reduced.chart("NS", ls[:, None], params)
    a = a_of(p2)
    root_b = np.sqrt(np.maximum(b_of(p2), 0.0))
    return (a - root_b).min(axis=1), (a + root_b).max(axis=1)


# Edge points of the envelope, with n = 16 and n = 257 each: s1 = 1/2 (A' =
# 0, the critical points are those of B), the zero-coupling corners (B =
# 0), R = 1 +- 1e-9 (the middle level within 1e-9 of both focus-focus
# levels, where B has a root just outside each end), R = 1e+-6, R = 1e-12
# and 1e-13 (where the p2 chart of R < 1 once left only levels narrower
# than 1e-12) and a coupling whose square is subnormal (c about 1e160).
EDGE_POINTS = [
    ModelParams(1.0, 2.0, 0.5, 0.3), ModelParams(1.0, 0.4, 0.5, 0.9),
    ModelParams(1.0, 2.0, 0.0, 0.0), ModelParams(1.0, 2.0, 1.0, 1.0),
    ModelParams(1.0, 2.0, 0.0, 1.0), ModelParams(1.0, 0.5, 1.0, 0.0),
    ModelParams(1.0, 1.0 + 1e-9, 0.9, 0.05),
    ModelParams(1.0, 1.0 - 1e-9, 0.3, 0.7),
    ModelParams(1.0, 1.0 + 1e-9, 0.2, 0.6),
    ModelParams(1.0, 1e6, 0.3, 0.7), ModelParams(1.0, 1e6, 0.9, 0.05),
    ModelParams(1.0, 1e-6, 0.3, 0.7), ModelParams(1.0, 1e-12, 0.3, 0.7),
    ModelParams(1.0, 1e-13, 0.3, 0.7), ModelParams(1.0, 2.0, 1e-160, 0.0),
]


# Relative rounding of the float chart A -/+ sqrt(B), with room: every term
# of the offset chart is of order 1, so it does not grow with R.
CHART_RTOL = 2e-15


class TestImageBoundary:
    @pytest.mark.parametrize("n", [16, 64, 129])
    def test_samples_equal_scalar_loop(self, n, scalar_golden):
        # The scalar golden-section loop is the reference.  The exact
        # envelope is never narrower than it by more than 1e-13 relative
        # (measured: 3.9e-16) and within 5e-13 of it (measured: 2.9e-13, at
        # R = 1 - 1.5e-9, where the golden section falls short of the
        # extreme next to an end; the exact one is within 3.3e-16 of
        # mpmath there).
        points = _envelope_points()
        assert {p.R > 1 for p in points} == {True, False}
        assert any(abs(p.R - 1.0) < 1e-3 for p in points)
        for p in points:
            diff, short = _relative_gap(image_boundary(p, n).samples,
                                        scalar_envelope(p, n, scalar_golden))
            assert short <= 1e-13 and diff <= 5e-13, (p, diff, short)

    def test_large_ratio_equals_scalar_loop(self, scalar_golden):
        # At R = 1e6 the offset chart loses no digits to R, so the bound of
        # the moderate ratios holds.
        p = ModelParams(1, 1e6, 0, 0.5)
        diff, short = _relative_gap(image_boundary(p, 16).samples,
                                    scalar_envelope(p, 16, scalar_golden))
        assert short <= 1e-13 and diff <= 5e-13, (diff, short)

    @pytest.mark.parametrize("n", [16, 257])
    @pytest.mark.parametrize("p", EDGE_POINTS, ids=repr)
    def test_never_narrower_than_dense_sampling(self, p, n):
        samples = np.array(image_boundary(p, n).samples)
        assert np.isfinite(samples).all()
        h_min, h_max = dense_envelope(p, n)
        tol = CHART_RTOL * max(1.0, float(np.abs(samples[:, 1:]).max()))
        assert (samples[:, 1] <= h_min + tol).all()
        assert (samples[:, 2] >= h_max - tol).all()
        # The end levels l = -2 and 2R are points: A there, on both sides.
        R = ns_frame(p).R
        ends = np.array([-2.0, 2.0 * R])
        a_of, _ = reduced.chart("NS", ends, ns_frame(p))
        assert (samples[[0, -1], 1] == a_of(np.array([0.0, 2.0 * R]))).all()
        assert (samples[[0, -1], 2] == samples[[0, -1], 1]).all()

    def test_seeded_points_never_narrower_than_dense_sampling(self):
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            R = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            p = ModelParams(1.0, R, *(float(v) for v in rng.uniform(0, 1, 2)))
            samples = np.array(image_boundary(p, 64).samples)
            h_min, h_max = dense_envelope(p, 64, m=801)
            tol = CHART_RTOL * max(1.0, float(np.abs(samples[:, 1:]).max()))
            assert (samples[:, 1] <= h_min + tol).all(), p
            assert (samples[:, 2] >= h_max - tol).all(), p

    @pytest.mark.parametrize("p", [
        ModelParams(1.0, 2.0, 0.3, 0.6), ModelParams(1.0, 0.2, 0.7, 0.1),
        ModelParams(1.0, 2.0, 0.5, 0.3),
        ModelParams(1.0, 1.0 - 1e-9, 0.9, 0.05),
        ModelParams(1.0, 1e6, 0.3, 0.7), ModelParams(1, 1e6, 0, 0.5),
        ModelParams(1.0, 1e12, 0.3, 0.7), ModelParams(1.0, 1e16, 0.3, 0.4),
        ModelParams(1.0, 1e-13, 0.3, 0.7),
    ], ids=repr)
    def test_matches_mpmath(self, p, scalar_golden):
        # Measured: at most 1.5e-15 relative on 30 seeded points with R in
        # [1/8, 8] and 4.4e-16 on 10 with R - 1 down to 1e-13; the offset
        # chart keeps that at R = 1e6 to 1e16 and 1e-13.
        pytest.importorskip("mpmath")
        n, levels = 16, [1, 5, 8, 11, 15]
        ref = mp_envelope(p, n, levels)
        got = np.array(image_boundary(p, n).samples)[levels, 1:]
        scale = max(1.0, float(np.abs(np.array(ref)).max()))
        assert np.abs(got - ref).max() <= 1e-14 * scale
        if 1e3 < p.R < 1e9:
            # The golden section searches p2, whose float spacing is about
            # R eps: from R of about 1e9 on it no longer resolves the band.
            gold = np.array(scalar_envelope(p, n, scalar_golden))[levels, 1:]
            assert np.abs(gold - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("R, s2", [
        (2.0 ** 511, 0.7), (2.0 ** -511, 0.4), (1e100, 0.4), (1e-100, 0.7)],
        ids=repr)
    def test_top_of_the_ratio_range(self, R, s2):
        # The solve's terms reach about R^2 / coupling, 1e308 at R = 2^511
        # and couplings 0.42 and 0.45 here, just inside the float range, so
        # no product overflows (a RuntimeWarning is an error here) and the
        # call returns.  The sextic of ``mp_envelope`` does not
        # converge there: the reference is a golden-section search of each
        # side, which is unimodal.
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(1.0, R, 0.3, s2)
        levels = [1, 8, 15]
        got = np.array(image_boundary(p, 16).samples)[levels, 1:]
        work = ns_frame(p)
        ls = np.linspace(-2.0, 2.0 * work.R, 17)
        with mpmath.workdps(40 + 2 * math.ceil(math.log10(work.R))):
            exact = ModelParams(*map(mpmath.mpf, (work.r1, work.r2, work.s1,
                                                  work.s2)))
            ref = [mp_search_band(mpmath, exact, mpmath.mpf(float(ls[i])))
                   for i in levels]
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("p", [
        ModelParams(1.0, 2.0 ** 511, 0.9, 0.05),
        ModelParams(1.0, 1e150, 1e-10, 0.0),
        ModelParams(1.0, 1e100, 1e-160, 0.0)], ids=repr)
    def test_overflowing_solve_raises(self, p):
        # Where the solve's terms, about R^2 / coupling, or du/dt next to an
        # end leave the float range: ValueError naming R, and no
        # RuntimeWarning.
        with pytest.raises(ValueError, match=f"R = {re.escape(repr(p.R))} "):
            image_boundary(p, 16)

    def test_corner_values_on_envelope(self):
        # The corners come from momentum_map on the input's own frame, the
        # band from the NS frame, which for R < 1 swaps the spheres.
        for p in (ModelParams(1.0, 2.0, 0.4, 0.5),
                  ModelParams(1.0, 0.5, 0.4, 0.5)):
            bnd = image_boundary(p, n=64)
            ls = np.array([s[0] for s in bnd.samples])
            for name in ("NN", "SS"):
                mv = momentum_map(FIXED_POINTS[name], p)
                k = int(np.argmin(np.abs(ls - mv.l_val)))
                _, h_min, h_max = bnd.samples[k]
                assert h_min - 1e-9 <= mv.h_val <= h_max + 1e-9, (p, name)

    def test_ff_values_strictly_interior(self):
        p = ModelParams(1.0, 2.0, 0.4, 0.5)
        bnd = image_boundary(p, n=64)
        assert len(bnd.ff_values) == 2
        samples = np.array(bnd.samples)
        for l, h in bnd.ff_values:
            h_min = np.interp(l, samples[:, 0], samples[:, 1])
            h_max = np.interp(l, samples[:, 0], samples[:, 2])
            assert h_min + 1e-3 < h < h_max - 1e-3

    def test_no_ff_values_for_toric_type(self):
        bnd = image_boundary(ModelParams(1, 2, 0.0, 0.0), n=16)
        assert bnd.ff_values == ()
        assert len(bnd.corner_values) == 4

    def test_large_ratio_returns(self, time_limit):
        time_limit(10)
        bnd = image_boundary(ModelParams(1, 1e6, 0, 0.5), 16)
        assert len(bnd.samples) == 17
        assert all(h_min <= h_max for _, h_min, h_max in bnd.samples)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            image_boundary(FF_PARAMS, n=8)
        for n in (64.0, 64.5, "64", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                image_boundary(FF_PARAMS, n=n)
        assert image_boundary(FF_PARAMS, n=np.int64(16)) == image_boundary(
            FF_PARAMS, n=16)
        for n in (cartography.MAX_SAMPLES + 1, 2 ** 63 - 1, 10 ** 20):
            with pytest.raises(ValueError, match="n must be <= 65536"):
                image_boundary(FF_PARAMS, n=n)

    def test_small_ratio_equivalent(self):
        # Swapping the spheres maps the image of (L, H) onto itself, and
        # both inputs have one NS frame: the same samples, bit for bit.
        a = image_boundary(ModelParams(2.0, 1.0, 0.3, 0.4), n=32)
        b = image_boundary(ModelParams(1.0, 2.0, 0.3, 0.6), n=32)
        assert a.samples == b.samples

    def test_small_ratio_matches_own_frame(self):
        # For R < 1 the band comes from the NS frame.  A reference that
        # never swaps: the input's own p2 chart at 40 digits, searched on
        # each interior sample's level l = L / r1 - (1 - R) of that frame.
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(1.0, 0.4, 0.3, 0.7)
        got = np.array(image_boundary(p, 16).samples)[1:-1]
        with mpmath.workdps(40):
            exact = ModelParams(*map(mpmath.mpf, dataclasses.astuple(p)))
            ref = [mp_search_band(mpmath, exact, mpmath.mpf(L) / exact.r1
                                  - (1 - exact.R)) for L in got[:, 0]]
        assert np.abs(got[:, 1:] - ref).max() <= 1e-12


def interior_levels(params, n, extra=()):
    """(l, r_l, lo, hi) of the interior levels of ``image_boundary(params,
    n)`` and of the ``extra`` levels, in the NS frame: the offset x = p2 - l
    ranges over [lo, hi], and r_l = 2R - l."""
    R = ns_frame(params).R
    ls = np.concatenate([np.linspace(-2.0, 2.0 * R, n + 1)[1:-1], extra])
    r_l = 2.0 * R - ls
    return ls, r_l, np.maximum(-ls, 0.0), np.minimum(r_l, 2.0)


def slope_and_c4(params):
    """(dA, c4) of the NS frame's chart, as ``image_boundary`` passes them to
    ``_envelope_candidates``."""
    work = ns_frame(params)
    k, _, _, c4 = reduced._chart_terms("NS", 0.0, work)
    return k * (work.s2 / work.R - (1 - work.s2)), c4


def candidates(params, l, r_l, lo, hi):
    """``_envelope_candidates`` on the levels l, one row per level: the
    transpose of its candidate rows."""
    return _envelope_candidates(*slope_and_c4(params), l, r_l, lo, hi,
                                ns_frame(params).R).T


def solve_levels(params, l, r_l, lo, hi):
    """(rho_l, rho_r, c) of each level for ``_critical_points``: B's roots
    outside [lo, hi] and A's slope in t = (x - lo) / (hi - lo)."""
    dA, c4 = slope_and_c4(params)
    w = hi - lo
    rho_l = (np.minimum(0.0, -l) - lo) / w
    rho_r = (np.maximum(2.0, r_l) - lo) / w
    return rho_l, rho_r, dA * ns_frame(params).R / (math.sqrt(c4) * w)


def critical_points(rho_l, rho_r, c):
    """``_critical_points`` under the floating-point state that
    ``_envelope_candidates`` calls it in."""
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        return _critical_points(rho_l, rho_r, c)


def lemma_points():
    """Seeded points (R log-uniform on [1/8, 8], a few within 1e-3 of 1)
    and the lemma's edge points: R = 1 +- 1e-13, R = 1e+-6, s1 = 1/2."""
    rng = np.random.default_rng(20261019)
    points = []
    for i in range(24):
        if i % 4 == 0:
            side = float(rng.choice([-1.0, 1.0]))
            R = 1.0 + side * float(10 ** rng.uniform(-12, -3))
        else:
            R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        points.append(ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2))))
    return points + [
        ModelParams(1.0, 1.0 + 1e-13, 0.3, 0.7),
        ModelParams(1.0, 1.0 - 1e-13, 0.9, 0.05),
        ModelParams(1.0, 1e6, 0.3, 0.7), ModelParams(1.0, 1e-6, 0.3, 0.7),
        ModelParams(1.0, 2.0, 0.5, 0.3), ModelParams(1.0, 0.4, 0.5, 0.9),
    ]


def slow_solve_points():
    """Seeded chart-domain points (R log-uniform on [1/8, 8], so both
    frames; |E| above the degeneracy band) whose solve on the levels of
    ``image_boundary(p, 64)`` takes 6 or more lockstep steps: 28 of 1500."""
    rng = np.random.default_rng(20261022)
    points = []
    for _ in range(1500):
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        p = ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2)))
        levels = interior_levels(p, 64)
        if (abs(discriminant_E(p)) > DEGENERACY_BAND * R
                and slope_and_c4(p)[1] > 0.0
                and critical_points(*solve_levels(p, *levels))[1] >= 6):
            points.append(p)
    return points


# Couplings 1e-160 and 1e-155 (kb subnormal, c about 1e160), 1e-170 (kb
# underflows to 0) and the four (s1, s2) corners (kb = 0).
TINY_COUPLING_POINTS = [
    ModelParams(1.0, 2.0, 1e-160, 0.0), ModelParams(1.0, 0.5, 0.0, 1e-155),
    ModelParams(1.0, 2.0, 1e-170, 0.0),
    ModelParams(1.0, 2.0, 0.0, 0.0), ModelParams(1.0, 2.0, 1.0, 1.0),
    ModelParams(1.0, 2.0, 0.0, 1.0), ModelParams(1.0, 0.5, 1.0, 0.0),
]


def u_sides(t, rho_l, rho_r, c):
    """(u, size) at t (one column per side, sigma = +1 then -1): u = beta'
    + 2 sigma c sqrt(beta), beta = t (t - rho_l) (t - 1) (t - rho_r), with
    beta' as the sum of the four products of three factors, and the sum of
    the magnitudes of those products and of 2 c sqrt(beta)."""
    rho = np.stack([rho_l, 0.0 * rho_l, 1.0 + 0.0 * rho_l, rho_r], axis=1)
    d = t[:, :, None] - rho[:, None, :]
    cof = np.stack([np.delete(d, i, axis=2).prod(axis=2) for i in range(4)],
                   axis=2)
    c_root = (2.0 * np.array([1.0, -1.0]) * c[:, None]
              * np.sqrt(np.maximum(d.prod(axis=2), 0.0)))
    return (cof.sum(axis=2) + c_root,
            np.abs(cof).sum(axis=2) + np.abs(c_root))


class TestEnvelopeLemma:
    """A + sqrt(B) is strictly concave and A - sqrt(B) strictly convex on
    every level, so each side has one critical point, the root of u."""

    @pytest.mark.parametrize("p", lemma_points(), ids=repr)
    def test_single_extreme_per_side(self, p):
        R = ns_frame(p).R
        l, _, lo, hi = interior_levels(p, 64, [0.0, 2.0 * R - 2.0])
        p2 = l[:, None] + np.linspace(lo, hi, 2001, axis=1)
        a_of, b_of = reduced.chart("NS", l[:, None], ns_frame(p))
        a = a_of(p2)
        root_b = np.sqrt(np.maximum(b_of(p2), 0.0))
        tol = CHART_RTOL * max(1.0, float(np.abs(a).max() + root_b.max()))
        for h in (a + root_b, -(a - root_b)):
            # Once a side has fallen by more than rounding, it never rises
            # again by more than rounding: one local maximum.
            d = np.diff(h, axis=1)
            fallen = np.maximum.accumulate(d < -tol, axis=1)
            assert not (fallen[:, :-1] & (d[:, 1:] > tol)).any()

    @pytest.mark.parametrize("p", lemma_points(), ids=repr)
    def test_candidates_are_roots_of_u(self, p):
        # Each candidate is a root of u up to rounding, or an end: u changes
        # sign within 4 ulps of it (measured: 3675 of 3900 candidates), or,
        # where rounding blurs that sign, u is within 1e-12 of the size of
        # its terms (measured: the other 225, at most 1.8e-15).  The
        # double-root levels l = 0 and l = 2R - 2 are included.
        levels = interior_levels(p, 64, [0.0, 2.0 * ns_frame(p).R - 2.0])
        l, r_l, lo, hi = levels
        args = solve_levels(p, *levels)
        t, steps = critical_points(*args)
        assert steps < _MAX_STEPS
        assert ((0.0 <= t) & (t <= 1.0)).all()
        u, size = u_sides(t, *args)
        gap = 4.0 * np.spacing(t)
        left = u_sides(np.maximum(t - gap, 0.0), *args)[0]
        right = u_sides(np.minimum(t + gap, 1.0), *args)[0]
        ok = ((np.abs(u) <= 1e-12 * size) | ((left >= 0.0) & (right <= 0.0))
              | (t == 0.0) | (t == 1.0))
        assert ok.all(), (l[np.nonzero(~ok)[0]], t[~ok], u[~ok])
        # The candidates of image_boundary are these points, mapped to p2.
        w = (hi - lo)[:, None]
        assert np.array_equal(candidates(p, *levels)[:, :2],
                              np.clip(lo[:, None] + w * t, lo[:, None],
                                      hi[:, None]))

    @pytest.mark.parametrize("p", TINY_COUPLING_POINTS, ids=repr)
    def test_tiny_and_zero_coupling(self, p):
        # The candidates are finite points of [lo, hi], the solve stops
        # before its cap, and kb = 0 leaves the ends alone.
        for n in (16, 64, 257):
            levels = interior_levels(p, n, [0.0, 2.0 * ns_frame(p).R - 2.0])
            l, _, lo, hi = levels
            x = candidates(p, *levels)
            assert np.isfinite(x).all()
            assert ((lo[:, None] <= x) & (x <= hi[:, None])).all()
            if slope_and_c4(p)[1] == 0.0:
                assert np.array_equal(x, np.stack([lo, hi], axis=1))
            else:
                assert x.shape == (l.size, 4)
                steps = critical_points(*solve_levels(p, *levels))[1]
                assert steps < _MAX_STEPS
        assert np.isfinite(np.array(image_boundary(p, 64).samples)).all()

    @pytest.mark.parametrize("p", lemma_points() + TINY_COUPLING_POINTS
                             + slow_solve_points(), ids=repr)
    def test_equals_loop_without_early_exits(self, p, loop_critical_points):
        # The early exits, the fallback taken only where a lane needs it and
        # du/dt formed only where a lane moves leave every lane's float
        # operations as they were: the same t, bit for bit, after the same
        # number of steps, the double-root levels l = 0 and l = 2R - 2
        # included, and on points whose solve takes 6 to 9 steps.
        for n in (16, 64, 257):
            levels = interior_levels(p, n, [0.0, 2.0 * ns_frame(p).R - 2.0])
            if slope_and_c4(p)[1] == 0.0:
                continue  # c4 = 0: the ends alone, no solve
            args = solve_levels(p, *levels)
            t, steps = critical_points(*args)
            t_ref, steps_ref = loop_critical_points(*args)
            assert np.array_equal(t, t_ref), (n, np.nonzero(t != t_ref))
            assert steps == steps_ref, n


# Ratios at which the p2 chart's levels once degenerated: R = 4e-13, where
# every level was narrower than 1e-12, R = 1 +- 1e-9, R = 1e3, and R = 3e16,
# where l + 2 rounds back to l on the upper levels.
WIDTH_END_POINTS = [
    ModelParams(1.0, 4e-13, 0.3, 0.7), ModelParams(1.0, 1.0 + 1e-9, 0.3, 0.7),
    ModelParams(1.0, 1.0 - 1e-9, 0.6, 0.2), ModelParams(1.0, 1e3, 0.3, 0.45),
    ModelParams(1.0, 3e16, 0.3, 0.7),
]


@pytest.mark.parametrize("p", lemma_points() + TINY_COUPLING_POINTS
                         + WIDTH_END_POINTS, ids=repr)
def test_image_boundary_equals_reference_bits(p, reference_image_boundary):
    # Chart terms shared by the whole envelope, the candidate array built in
    # place, the end levels set in that array and the corner values from L
    # and H on the poles give the floats of the reference written out on
    # its own: repr-equal samples, focus-focus and corner values (repr tells
    # -0.0 from 0.0, which == does not).  The points are the seeded ones in
    # both frames, R = 1e+-6, s1 = 1/2, tiny or zero coupling and ratios at
    # which the p2 chart's levels degenerated.
    for n in (16, 64, 257):
        got, ref = image_boundary(p, n), reference_image_boundary(p, n)
        for field in ("samples", "ff_values", "corner_values"):
            assert (repr(getattr(got, field))
                    == repr(getattr(ref, field))), (n, field)
