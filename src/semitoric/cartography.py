"""Momentum-map image boundaries and polygon-invariant representatives.

The image of (L, H) is a band bounded by the envelope of A_l +/- sqrt(B_l)
over each level, whose extremes lie at the ends of the level's physical
interval or at real roots of the sextic B_l'^2 - 4 A_l'^2 B_l: one stacked
eigenvalue call finds them on all levels.  The polygon invariant
straightens that band into a convex rational polygon whose vertical widths
reproduce the Duistermaat-Heckman profile.  Representatives are
normalized to a canonical anchor (left corner at (-2, 0), initial bottom
slope 0, scaled units); the shear and cut-flip actions relate all other
choices.  ``Polygon.width`` takes a float or an array, so the polygon's
self-check is one comparison with the DH profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reduced
from .errors import ConsistencyError, DegenerateSystemError
from .model import FIXED_POINTS, ModelParams, momentum_map, ns_frame
from .singularity import n_ff

WIDTH_TOL = 1e-12
# Newton steps that polish each root of the envelope's critical sextic.
# Next to R = 1, against mpmath: 2 steps leave 3.7e-13, 3 steps 3.3e-16.
POLISH_STEPS = 3


@dataclass(frozen=True)
class ImageBoundary:
    """Sampled envelope of the momentum-map image, in unscaled (L, H) units.

    ``samples`` is an ordered list of (l, h_min, h_max); ``ff_values`` holds
    the focus-focus critical values (empty when there are none) and
    ``corner_values`` the four pole-product values NN, NS, SN, SS.
    """

    samples: tuple
    ff_values: tuple
    corner_values: tuple


def image_boundary(params: ModelParams, n: int = 64) -> ImageBoundary:
    """Envelope of the momentum-map image on n+1 evenly spaced levels.

    The reduced chart is exact: on the level with scaled offset l, H ranges
    over [min(A - sqrt(B)), max(A + sqrt(B))] across the physical interval
    [max(0, l), min(2R, l + 2)]; on a level narrower than 1e-12 (the end
    levels) both are A at its left end.  Each extreme lies at an end of the
    interval or at a critical point, a root of a sextic
    (``_envelope_candidates``).  One chart call evaluates A -/+ sqrt(B) at
    every candidate of every level, and each side of the band is the
    min/max over a level's candidates.  Every candidate is a point of the
    interval, so the envelope never reaches past the true extremes.  Output
    is converted to unscaled L = r1 (l + 1 - R); H is dimensionless and
    needs no rescaling.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    r1, R = params.r1, params.R
    ls = np.linspace(-2.0, 2.0 * R, n + 1)
    lo, hi = np.maximum(ls, 0.0), np.minimum(ls + 2.0, 2.0 * R)
    a_of, b_of = reduced.chart("NS", ls, params)
    h_min = a_of(lo, np.arange(ls.size))  # kept on levels narrower than 1e-12
    h_max = h_min.copy()
    wide = np.flatnonzero(~(hi - lo < 1e-12))
    p2 = _envelope_candidates(params, ls[wide], lo[wide], hi[wide])
    rows = np.broadcast_to(wide[:, None], p2.shape)
    a, b = a_of(p2, rows), b_of(p2, rows)
    root_b = np.sqrt(np.where(b > 0.0, b, 0.0))
    h_min[wide] = (a - root_b).min(axis=1)
    h_max[wide] = (a + root_b).max(axis=1)
    samples = tuple(zip((r1 * (ls + 1.0 - R)).tolist(), h_min.tolist(),
                        h_max.tolist()))
    corner_values = tuple(
        (mv.l_val, mv.h_val)
        for mv in (momentum_map(FIXED_POINTS[k], params)
                   for k in ("NN", "NS", "SN", "SS")))
    try:
        two_ff = n_ff(params) == 2
    except DegenerateSystemError:
        two_ff = False
    ff_values = corner_values[1:3] if two_ff else ()
    return ImageBoundary(samples, ff_values, corner_values)


def _envelope_candidates(params: ModelParams, l, lo, hi):
    """Points of [lo, hi] where A -/+ sqrt(B) may take its extremes on
    each level l, one row per level.

    Inside the interval an extreme is a critical point, A' = -/+ B' / (2
    sqrt(B)), so it is a root of the sextic B'^2 - 4 A'^2 B.  In the
    variable t = (p2 - lo) / w, w = hi - lo, B = kb w^4 beta(t), where beta
    is the monic quartic whose roots rho are B's roots (0, m, 2R, m + 2)
    shifted and scaled likewise, and the sextic is beta'^2 - g beta with
    g = 4 A'^2 / (kb w^2).  In t the interval is [0, 1] on every level; in
    p2 it can lie near 2R, and the eigenvalues' absolute error, a multiple
    of the largest root, would swamp it at large R.

    One stacked companion-matrix ``eigvals`` call gives the six roots on
    every level.  Their real parts clipped into [0, 1], and the two ends,
    are each polished by ``POLISH_STEPS`` Newton steps on the factored
    sextic.  The eigenvalues are accurate to about the square root of the
    float spacing where B has a root just outside an end (levels next to a
    focus-focus level, R near 1) and at the double roots of s1 = 1/2
    (A' = 0, the sextic is beta'^2); the polish resolves both.  Rounding
    can also move an already exact root by a few ulps, so the raw
    candidates stay: both, mapped back to p2 and clipped into [lo, hi], and
    the exact ends are returned.  At zero coupling (kb = 0, the (s1, s2)
    corners) B vanishes and the ends alone are returned.  A coupling below
    about 1e-150 (kb subnormal) makes g overflow; the companion matrix is
    clamped to finite values, so those levels still get points of the
    interval.
    """
    slope, kb, roots = reduced.chart_factors("NS", l, params)
    ends = np.stack([lo, hi], axis=1)
    if kb == 0.0:
        return ends
    k = l.size
    w = (hi - lo)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho = (roots - lo[:, None]) / w
        g = 4.0 * slope * slope / (kb * w * w)
        beta = np.zeros((k, 5))
        beta[:, 0] = 1.0
        for j in range(4):
            beta[:, 1:j + 2] -= rho[:, j:j + 1] * beta[:, :j + 1]
        d_beta = beta[:, :4] * np.array([4.0, 3.0, 2.0, 1.0])
        sextic = np.zeros((k, 7))
        for j in range(4):
            sextic[:, j:j + 4] += d_beta[:, j:j + 1] * d_beta
        sextic[:, 2:] -= g * beta
        # Companion matrix of the monic sextic (leading coefficient 16).
        companion = np.zeros((k, 6, 6))
        companion[:, 0, :] = np.nan_to_num(sextic[:, 1:] / -16.0)
        companion[:, np.arange(1, 6), np.arange(5)] = 1.0
        raw = np.clip(np.linalg.eigvals(companion).real, 0.0, 1.0)
        t = np.concatenate([raw, np.zeros((k, 1)), np.ones((k, 1))], axis=1)
        rho_0, rho_1, rho_2, rho_3 = np.hsplit(rho, 4)
        for _ in range(POLISH_STEPS):
            # With d_i = t - rho_i, beta = e4(d), beta' = e3(d) and
            # beta'' = 2 e2(d): the sextic is e3^2 - g e4 and its derivative
            # e3 (4 e2 - g).  Where that derivative vanishes, t stays.
            d01, d23 = (t - rho_0) * (t - rho_1), (t - rho_2) * (t - rho_3)
            s01, s23 = (t - rho_0) + (t - rho_1), (t - rho_2) + (t - rho_3)
            e2 = d01 + d23 + s01 * s23
            e3 = d01 * s23 + d23 * s01
            step = (e3 * e3 - g * (d01 * d23)) / (e3 * (4.0 * e2 - g))
            t = np.clip(np.where(np.isfinite(step), t - step, t), 0.0, 1.0)
    p2 = np.clip(lo[:, None] + w * np.concatenate([raw, t], axis=1),
                 lo[:, None], hi[:, None])
    return np.concatenate([p2, ends], axis=1)


@dataclass(frozen=True)
class Polygon:
    """Convex rational polygon representative in scaled (l, y) units.

    ``vertices`` runs counterclockwise from the left corner: bottom chain
    left to right, then top chain right to left.  ``cuts`` records the cut
    direction at each focus-focus level in ``ff_l`` (empty ``ff_l`` for
    systems of toric type, whose quadrant-rule shape is given by ``cuts``).
    """

    vertices: tuple
    cuts: tuple
    ff_l: tuple
    bottom: tuple
    top: tuple

    def width(self, l):
        """Vertical width at ``l``, a float or an array (NaN counts as
        outside the domain), interpolated on the top and bottom chains."""
        lo, hi = self.domain
        x = np.asarray(l, dtype=float)
        inside = (lo <= x) & (x <= hi)
        if not inside.all():
            raise ValueError(f"l = {x[~inside][0]} outside [{lo}, {hi}]")
        w = np.interp(x, *zip(*self.top)) - np.interp(x, *zip(*self.bottom))
        return float(w) if w.ndim == 0 else w

    @property
    def domain(self):
        return self.bottom[0][0], self.bottom[-1][0]


def _build_polygon(cuts, ff_l, R: float) -> Polygon:
    """Assemble the canonical representative from cut signs and ff levels."""
    la, lb = 0.0, 2.0 * R - 2.0
    breaks = [-2.0, la, lb, 2.0 * R]
    dh = reduced.dh_function(R)

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
    bl, by = np.array(bottom).T
    top = list(zip(bl.tolist(), (by + dh.rho(bl)).tolist()))

    def dedupe(chain):
        # Keep only genuine kinks (and both endpoints).
        out = [chain[0]]
        for prev, cur, nxt in zip(chain[:-2], chain[1:-1], chain[2:]):
            s_in = (cur[1] - prev[1]) / (cur[0] - prev[0])
            s_out = (nxt[1] - cur[1]) / (nxt[0] - cur[0])
            if abs(s_in - s_out) > 1e-12:
                out.append(cur)
        out.append(chain[-1])
        return out

    bottom, top = dedupe(bottom), dedupe(top)
    vertices = tuple(bottom) + tuple(reversed(top[1:-1]))

    poly = Polygon(vertices, tuple(cuts), tuple(ff_l),
                   tuple(bottom), tuple(top))
    _assert_polygon(poly, dh)
    return poly


def _assert_polygon(poly: Polygon, dh: reduced.DHFunction):
    for chain, sense in ((poly.bottom, 1.0), (poly.top, -1.0)):
        slopes = [(y1 - y0) / (l1 - l0)
                  for (l0, y0), (l1, y1) in zip(chain[:-1], chain[1:])]
        for s in slopes:
            if abs(s - round(s)) > 1e-9:
                raise ConsistencyError(f"non-integer edge slope {s}")
        # Bottom slopes non-decreasing, top slopes non-increasing: convexity.
        for s0, s1 in zip(slopes[:-1], slopes[1:]):
            if sense * (s1 - s0) < -1e-9:
                raise ConsistencyError("polygon is not convex")
    ls = np.linspace(*poly.domain, 41)
    if (np.abs(poly.width(ls) - dh.rho(ls)) > WIDTH_TOL).any():
        raise ConsistencyError("polygon width disagrees with the "
                               "Duistermaat-Heckman profile")


def polygon_representative(params: ModelParams, cuts=(1, 1)) -> Polygon:
    """Canonical polygon representative for the given cut directions.

    With two focus-focus points, each of the four sign choices gives a
    distinct representative.  For systems of toric type the image itself is
    a polygon and ``cuts`` is ignored: in the R > 1 frame its shape is
    (+1, -1) when (s1 - 1/2)(s2 - R/(R+1)) > 0 and (-1, +1) otherwise.
    The rule is exact because E < 0 on both case lines, so no component of
    the toric region E > 0 leaves its quadrant:

        E(s1 = 1/2)     = -r1 r2 (4 s2^2 - 4 s2 - 1)^2 <= -r1 r2,
        E(s2 = R/(R+1)) = -16 r1 r2 ((R+1)^2 s1 (s1 - 1) - R)^2 / (R+1)^4 < 0.
    """
    work = ns_frame(params)
    R = work.R
    nff = n_ff(work)  # raises on the degenerate band
    if nff == 2:
        if tuple(cuts) not in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            raise ValueError(f"cuts must be signs, got {cuts!r}")
        return _build_polygon(tuple(cuts), reduced.ff_levels(R), R)
    same_side = (work.s1 - 0.5) * (work.s2 - R / (R + 1.0)) > 0
    return _build_polygon((1, -1) if same_side else (-1, 1), (), R)


def act_shear(poly: Polygon, k: int) -> Polygon:
    """Integer shear (l, y) -> (l, y + k (l + 2)) about the left corner."""
    if k != int(k):
        raise ValueError("shear parameter must be an integer")

    def sheared(chain):
        return tuple((l, y + k * (l + 2.0)) for l, y in chain)

    return Polygon(sheared(poly.vertices), poly.cuts, poly.ff_l,
                   sheared(poly.bottom), sheared(poly.top))


def act_flip_cut(poly: Polygon, which: int, params: ModelParams) -> Polygon:
    """Representative with the cut direction at focus-focus point ``which``
    (1 or 2) negated."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not poly.ff_l:
        raise ValueError("polygon has no cuts to flip")
    new_cuts = list(poly.cuts)
    new_cuts[which - 1] = -new_cuts[which - 1]
    return polygon_representative(params, tuple(new_cuts))
