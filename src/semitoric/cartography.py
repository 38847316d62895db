"""Momentum-map image boundaries and polygon-invariant representatives.

The image of (L, H) is a band bounded by the envelope of A_l +/- sqrt(B_l)
over each level.  A_l + sqrt(B_l) is strictly concave and A_l - sqrt(B_l)
strictly convex on each level's physical interval, so each side's extreme
lies at an end or at its one critical point: one bracketed Newton solve,
in lockstep over all levels, finds both.  The polygon invariant
straightens that band into a convex rational polygon whose vertical widths
reproduce the Duistermaat-Heckman profile.  Representatives are
normalized to a canonical anchor (left corner at (-2, 0), initial bottom
slope 0, scaled units); the shear and cut-flip actions relate all other
choices.  Their vertices follow a closed rule: with s_i = 1 where cut i is
-1 and 0 otherwise, the bottom chain has slopes 0, s_1 and s_1 + s_2
between the DH knots -2, 0, 2R - 2 and 2R, and the top chain is the bottom
raised by the DH profile, so at ff level i only the bottom bends (s_i = 1)
or only the top (s_i = 0).  ``Polygon.width`` takes a float or an array;
the self-check takes one pass per chain, and one walk for its values at the
DH profile's knots.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import astuple, dataclass

import numpy as np

from . import reduced
from .errors import ConsistencyError
from .model import FIXED_POINTS, ModelParams, h_func, l_func, ns_frame
from .singularity import discriminant_E, is_focus_focus, n_ff

WIDTH_TOL = 1e-12
# Vertices: l in {-2, 0, 2R - 2, 2R}, y in {0, 2, 2R - 2, 2R, 2R + 2}.  From
# R = 2^53 on, 2R + 2 rounds, and above it 2R - 2 (the DH knots break).
POLYGON_R_LIMIT = 2.0 ** 53
MAX_SAMPLES = 65536  # most levels of an envelope: 135 MB and 0.5 s
_EPS = np.finfo(float).eps
_MAX_STEPS = 64  # cap of the envelope's lockstep critical-point solve
_CORNERS = tuple(astuple(FIXED_POINTS[k]) for k in ("NN", "NS", "SN", "SS"))
_NODES = np.arange(9)[:, None, None] / 8.0  # sign scan of _critical_points
_ONE_NODES, _SIDES = 1.0 - _NODES, np.arange(2)[:, None]
_SIGMA = np.array([[1.0], [-1.0]])  # its two sides, one per row
# The solve's constants, as 0-d arrays: ufuncs take them 0.2 us faster.
_ZERO, _EIGHTH, _HALF, _ONE, _TWO, _FOUR, _U_TOL, _T_TOL = map(
    np.array, (0.0, 0.125, 0.5, 1.0, 2.0, 4.0, 8.0 * _EPS, 4.0 * _EPS))


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

    The reduced chart is exact.  It is taken in the NS frame (``ns_frame``:
    the sphere swap maps the image of (L, H) onto itself), on spin 1's
    level offset x = p2 - l: on the level with scaled offset l, H ranges
    over [min(A - sqrt(B)), max(A + sqrt(B))] across [max(0, -l),
    min(2, 2R - l)].  Every interior level has a positive width there,
    and only the end levels l = -2 and l = 2R are points, where B = 0.
    Each extreme lies at an end of the interval or at the side's one
    critical point (``_envelope_candidates``).  One set of chart terms for
    all levels (``reduced._chart_terms``) gives A -/+ sqrt(B) on the
    candidate rows, through ``reduced.chart``'s own evaluators, with
    p2 - 2R formed as x - (2R - l), and each side of the band is the
    min/max down a level's column.  Every candidate is a point of the
    interval, so the envelope never reaches past the true extremes.  Output
    is in unscaled L = r1 (l + 1 - R) of the NS frame; H is dimensionless.
    The corner values are L and H at the four poles of ``params``.
    The levels are ``np.linspace``'s, bit for bit.  ``ValueError`` where
    the critical-point solve overflows: its terms reach about
    R^2 / coupling, and next to an end R / (coupling sqrt(t)); R = 2^511
    returns at coupling 0.42 and raises at 0.14, and R = 1e100 raises at
    coupling 1e-160.
    """
    if not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be <= {MAX_SAMPLES}")
    work = ns_frame(params)
    r1, R, s2 = work.r1, work.R, work.s2
    ls = np.arange(n + 1.0) * ((2.0 * R + 2.0) / n) - 2.0
    ls[-1] = 2.0 * R
    r_l = 2.0 * R - ls  # x at p2 = 2R
    lo, hi = np.maximum(-ls, 0.0), np.minimum(r_l, 2.0)
    k, base, _, c4 = reduced._chart_terms("NS", ls, work)
    try:
        inner = _envelope_candidates(k * (s2 / R - (1 - s2)), c4, ls[1:-1],
                                     r_l[1:-1], lo[1:-1], hi[1:-1], R)
    except FloatingPointError:
        raise ValueError(f"the image's critical-point solve overflows at "
                         f"radius ratio R = {R!r} and coupling "
                         f"{work.coupling!r}") from None
    x = np.empty((len(inner), n + 1))
    x[:, 1:-1] = inner
    x[:, 0], x[:, -1] = lo[0], lo[-1]  # the end levels are points
    p2 = x + ls
    a = reduced._chart_a(k, base, s2, R, x, p2)
    b = reduced._chart_b(c4, R, x, p2, x - r_l)
    root_b = np.sqrt(np.where(b > 0.0, b, 0.0))
    samples = tuple(zip((r1 * (ls + 1.0 - R)).tolist(),
                        np.minimum.reduce(a - root_b).tolist(),
                        np.maximum.reduce(a + root_b).tolist()))
    corner_values = tuple((l_func(v, params), h_func(v, params))
                          for v in _CORNERS)
    two_ff = is_focus_focus(discriminant_E(params), params)
    ff_values = corner_values[1:3] if two_ff else ()
    return ImageBoundary(samples, ff_values, corner_values)


def _envelope_candidates(dA, c4, l, r_l, lo, hi, R):
    """Points of [lo, hi] where A + sqrt(B) and A - sqrt(B) take their
    extremes on each level, one column per level, from the levels' NS chart
    in the offset x = p2 - l: A has slope dA in x, and B = (c4/R^2) x
    (x - 2) (x + l) (x - r_l) with r_l = 2R - l (``reduced._chart_terms``).

    In t = (x - lo) / w, w = hi - lo, B = (c4/R^2) w^4 beta(t) with
    beta(t) = t (t - rho_l) (1 - t) (rho_r - t): the ends of the interval
    are two of B's roots (0, 2, -l, r_l), and the other two, min(0, -l) and
    max(2, r_l), mapped to rho_l <= 0 and rho_r >= 1, lie one on each side
    of it.  With c4 > 0 the extremes are the ends and one critical point
    per side (``_critical_points``): row 0 holds the maximiser of
    A + sqrt(B), row 1 the minimiser of A - sqrt(B), rows 2 and 3 the exact
    ends.  At zero coupling (c4 = 0, the (s1, s2) corners) B vanishes and
    the two rows of ends are returned.  A coupling below about 1e-150 (c4
    subnormal) only makes c large: the critical points move next to an end
    and stay finite.  ``FloatingPointError`` where c or a term of the solve
    overflows: rho_l and rho_r reach about R and c about R / coupling, so
    u's terms reach about R^2 / coupling.
    """
    if c4 == 0.0:
        return np.stack([lo, hi])
    w = hi - lo
    rho_l = (np.minimum(0.0, -l) - lo) / w
    rho_r = (np.maximum(2.0, r_l) - lo) / w
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        t, _ = _critical_points(rho_l, rho_r,
                                dA * R / (math.sqrt(c4) * w))
    x = np.empty((4, lo.size))
    x[2], x[3] = lo, hi
    # np.clip, bit for bit, with fewer dispatches, one row per side.
    np.minimum(np.maximum(lo + w * t.T, lo), hi, out=x[:2])
    return x


def _critical_points(rho_l, rho_r, c):
    """(t, steps): for each level, the root in [0, 1] of u(t) = beta'(t) +
    2 sigma c sqrt(beta(t)) for sigma = +1 (column 0) and sigma = -1
    (column 1), and the number of lockstep steps taken.

    beta(t) = t (t - rho_l) (1 - t) (rho_r - t) with rho_l <= 0 and rho_r
    >= 1, and c = A' / (sqrt(kb) w) is A's slope in the units of
    ``_envelope_candidates``; then dH/dt has the sign of u for H = A +
    sqrt(B) (sigma = +1) and of -u for H = A - sqrt(B) (sigma = -1).

    Lemma: sqrt(beta) = F G with F = sqrt(t (t - rho_l)) increasing and
    concave and G = sqrt((1 - t) (rho_r - t)) decreasing and concave on
    [0, 1], so (F G)'' = F'' G + 2 F' G' + F G'' < 0.  A + sqrt(B) is
    therefore strictly concave and A - sqrt(B) strictly convex, and u
    changes sign once, from u(0) = -rho_l rho_r >= 0 to u(1) = (1 - rho_l)
    (1 - rho_r) <= 0: each side has exactly one critical point.

    A sign scan of u at t = 0, 1/8, ..., 1 brackets it, and the start is
    the secant point of the bracketing nodes.  Each step is a Newton step
    in r = sqrt(|t - e|), where e is the end that the root nears as |c|
    grows (1 when sigma c > 0, else 0): next to e, sqrt(beta) is r times
    a smooth function of t, so u is smooth in r but not in t.  Where that
    step leaves the bracket (or is undefined, at t = e) a Newton step in t
    is taken, and where that leaves it too, bisection.  A lane has
    converged, and keeps its t, when u is within 8 ulps of the size of its
    terms or the step moves t by at most 4 ulps.  The lanes step in lockstep
    until all have converged, at most ``_MAX_STEPS`` = 64 times (bisection
    alone takes the 1/8 bracket to 2^-67, below the float spacing of every
    t >= 2^-14).  A step forms du/dt only if some lane has not converged.
    The lanes are one row per side.  u's terms are p' q, p (-q') and 2 sigma
    c sqrt(p q), where beta = p q, p = t (t - rho_l), q = (1 - t) (rho_r -
    t), and p, p', q, -q' >= 0 on [0, 1].  du/dt's term sigma c beta' /
    sqrt(beta) is formed as sigma c (beta' / sqrt(beta)), so c never
    multiplies a term of size R^2.

    Call it under ``np.errstate(divide="ignore", invalid="ignore",
    over="raise")``, as ``_envelope_candidates`` does: a lane at t = e
    divides by zero and falls back, and an overflow raises
    ``FloatingPointError``.
    """
    s_c = _SIGMA * c
    two_s_c = 2.0 * s_c
    e = (s_c > 0.0).astype(float)
    lanes = _SIDES, np.arange(c.size)
    t_l, t_r = _NODES - rho_l, rho_r - _NODES
    p, q = _NODES * t_l, _ONE_NODES * t_r
    scan = ((_NODES + t_l) * q - p * (_ONE_NODES + t_r)
            + two_s_c * np.sqrt(p * q))
    j = (scan[1:-1] > _ZERO).sum(axis=0)
    u_a, u_b = scan[(j, *lanes)], scan[(j + 1, *lanes)]
    a = j * _EIGHTH
    b = a + _EIGHTH
    t = a + _EIGHTH * (u_a / (u_a - u_b))
    t = np.where((a <= t) & (t <= b), t, _HALF * (a + b))
    rho_l, rho_r = np.array((rho_l, rho_l)), np.array((rho_r, rho_r))
    for steps in range(1, _MAX_STEPS + 1):
        t_l, t_r, one_t = t - rho_l, rho_r - t, _ONE - t
        p, q = t * t_l, one_t * t_r
        dp, neg_dq = t + t_l, one_t + t_r
        root = np.sqrt(p * q)
        dp_q, p_dq, c_root = dp * q, p * neg_dq, two_s_c * root
        d_beta = dp_q - p_dq
        u = d_beta + c_root
        small = np.abs(u) <= _U_TOL * (dp_q + p_dq + np.abs(c_root))
        if np.count_nonzero(small) == small.size:
            break
        np.copyto(a, t, where=u > _ZERO)
        np.copyto(b, t, where=u < _ZERO)
        step = u / (_TWO * (p + q - dp * neg_dq) + s_c * (d_beta / root))
        newton = t - step
        # The Newton step in r = sqrt(|t - e|), mapped back to t.
        nxt = newton + step * (step / (_FOUR * (t - e)))
        in_ab = (a <= nxt) & (nxt <= b)
        if np.count_nonzero(in_ab) < in_ab.size:
            nxt = np.where(in_ab, nxt, np.where(
                (a <= newton) & (newton <= b), newton, _HALF * (a + b)))
        done = small | (np.abs(nxt - t) <= _T_TOL * t)
        np.copyto(nxt, t, where=done)
        t = nxt
        if np.count_nonzero(done) == done.size:
            break
    return t.T, steps


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
    """Assemble the canonical representative from cut signs and ff levels
    by the closed vertex rule of the module docstring, on the DH knots."""
    dh = reduced.dh_function(R)
    (l0, l1, l2, l3), (v0, v1, v2, v3) = dh.knots
    s1, s2 = float(cuts[0] == -1), float(cuts[1] == -1)
    y2 = s1 * (l2 - l1)
    y3 = y2 + (s1 + s2) * (l3 - l2)
    # Knot i + 1 is ff level i: a bottom vertex when s_i = 1, else a top one.
    b1, t1 = (((l1, 0.0),), ()) if s1 else ((), ((l1, v1),))
    b2, t2 = (((l2, y2),), ()) if s2 else ((), ((l2, y2 + v2),))
    bottom = ((l0, 0.0),) + b1 + b2 + ((l3, y3),)
    top = ((l0, v0),) + t1 + t2 + ((l3, y3 + v3),)
    vertices = bottom + t2 + t1

    poly = Polygon(vertices, tuple(cuts), tuple(ff_l), bottom, top)
    _assert_polygon(poly, dh)
    return poly


def _assert_polygon(poly: Polygon, dh: reduced.DHFunction):
    """Integer slopes, then convexity (bottom slopes non-decreasing, top
    non-increasing) in one pass per chain, then widths at the DH knots."""
    for chain, sense in ((poly.bottom, 1.0), (poly.top, -1.0)):
        s0, bent = -sense * math.inf, False
        for (l0, y0), (l1, y1) in zip(chain[:-1], chain[1:]):
            s = (y1 - y0) / (l1 - l0)
            if abs(s - round(s)) > 1e-9:
                raise ConsistencyError(f"non-integer edge slope {s}")
            bent |= sense * (s - s0) < -1e-9
            s0 = s
        if bent:
            raise ConsistencyError("polygon is not convex")
    # A representative's vertices are knots, so width and profile are both
    # linear between knots, and agreement there is agreement everywhere.
    ls, rho = dh.knots
    for t, b, v in zip(_chain_at(poly.top, ls), _chain_at(poly.bottom, ls),
                       rho):
        if abs(t - b - v) > WIDTH_TOL:
            raise ConsistencyError("polygon width disagrees with the "
                                   "Duistermaat-Heckman profile")


def _chain_at(chain, xs):
    """``np.interp(xs, *zip(*chain))`` for ascending xs, bit for bit."""
    out, i, last = [], 0, len(chain) - 1
    for x in xs:
        while i < last and not x < chain[i + 1][0]:
            i += 1
        l0, y0 = chain[i]
        if i < last and x != l0:
            l1, y1 = chain[i + 1]
            y0 = (y1 - y0) / (l1 - l0) * (x - l0) + y0
        out.append(y0)
    return out


def polygon_representative(params: ModelParams, cuts=(1, 1)) -> Polygon:
    """Canonical polygon representative for the given cut directions.

    With two focus-focus points, each of the four sign choices gives a
    distinct representative.  For systems of toric type the image itself is
    a polygon and ``cuts`` is ignored: in the R > 1 frame its shape is
    (+1, -1) when (s1 - 1/2)(s2 - R/(R+1)) > 0 and (-1, +1) otherwise.
    The rule is exact because E < 0 on both case lines, so no component of
    the toric region E > 0 leaves its quadrant: k = 0 on both, and m < 0
    there, so E = (r1 k)^2 - 16 r1 r2 m^2 = -16 r1 r2 m^2 < 0
    (``singularity.discriminant_E``).  ``ValueError`` unless the ratio
    R = max(r1, r2) / min(r1, r2) is below 2^53 (``POLYGON_R_LIMIT``), and
    for cuts (-1, -1) where their vertex y = 2R + 2 rounds by more than 2e-9
    (d = fl(2R + 2) - 2R - 2 is exact): their last slope 2 + d/2 would fail
    the self-check's 1e-9.
    """
    work = ns_frame(params)
    R = work.R
    if not R < POLYGON_R_LIMIT:
        raise ValueError(f"radius ratio R = {R!r} is too large for a polygon "
                         f"representative: from R = 2^53 on, 2R - 2 or "
                         f"2R + 2 is no float")
    nff = n_ff(work)  # raises on the degenerate band
    if nff == 2:
        try:
            signs = tuple(cuts)
        except TypeError:  # not iterable, e.g. 1 or None
            signs = None
        if signs not in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            raise ValueError(f"cuts must be signs, got {cuts!r}")
        signs = tuple(map(int, signs))  # (True, 1.0) is stored as (1, 1)
        if signs == (-1, -1) and abs(2.0 * R + 2.0 - 2.0 * R - 2.0) > 2e-9:
            raise ValueError(f"radius ratio R = {R!r}: 2R + 2 is no float")
        return _build_polygon(signs, reduced.ff_levels(R), R)
    same_side = (work.s1 - 0.5) * (work.s2 - R / (R + 1.0)) > 0
    return _build_polygon((1, -1) if same_side else (-1, 1), (), R)


def act_shear(poly: Polygon, k: int) -> Polygon:
    """Integer shear (l, y) -> (l, y + k (l + 2)) about the left corner."""
    if not isinstance(k, numbers.Integral) or abs(k) > sys.float_info.max:
        raise ValueError(f"shear parameter k must be an integer within the "
                         f"float range, got {k!r}")

    def sheared(chain):
        return tuple((l, y + k * (l + 2.0)) for l, y in chain)

    return Polygon(sheared(poly.vertices), poly.cuts, poly.ff_l,
                   sheared(poly.bottom), sheared(poly.top))


def act_flip_cut(poly: Polygon, which: int, params: ModelParams) -> Polygon:
    """Representative with the cut direction at focus-focus point ``which``
    (the integer 1 or 2) negated."""
    if not isinstance(which, numbers.Integral) or which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if not poly.ff_l:
        raise ValueError("polygon has no cuts to flip")
    new_cuts = list(poly.cuts)
    new_cuts[which - 1] = -new_cuts[which - 1]
    return polygon_representative(params, tuple(new_cuts))
