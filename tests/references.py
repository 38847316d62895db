"""References for the invariants, in mpmath or exact arithmetic.

``mp_chart_height`` is the height of one singularity as an area integral
of the unfactored l = 0 chart at mpmath's working precision;
``mp_envelope`` is the momentum-map image's band on chosen levels in
50-digit mpmath, from the extremes of A +/- sqrt(B) over the real roots of
the sextic B'^2 - 4 A'^2 B; ``exact_vertices`` is a polygon
representative in exact arithmetic.  ``tests/test_height.py``,
``tests/test_cartography.py`` and ``tools/accuracy.py`` import them from
here.  The first two need mpmath; callers skip without it.
"""

import math

import numpy as np

from semitoric import reduced
from semitoric.model import ModelParams, ns_frame


def mp_chart_height(mp, label, params):
    """Height of one singularity at mpmath's working precision, from the
    chart's own A and B at l = 0 (``reduced.chart`` on mpf parameters), not
    from the factored form the oracle uses, so that it checks the algebra as
    well as the quadrature."""
    exact = ModelParams(*(mp.mpf(v) for v in (params.r1, params.r2,
                                              params.s1, params.s2)))
    orient = 1 if label == "NS" else -1
    hi = min(2 * exact.R, 2)
    a_of, b_of = reduced.chart(label, 0.0, exact)
    crit = orient * (1 - 2 * exact.s1) * (1 - 2 * exact.s2)
    # P_0 = B - (H_crit - A)^2 > 0 (the arccos zone) on (0, near), < 0 on
    # (near, hi): bisect for near.
    lo, up = hi * mp.mpf(10) ** -30, hi
    for _ in range(200):
        mid = (lo + up) / 2
        if b_of(mid) - (crit - a_of(mid)) ** 2 > 0:
            lo = mid
        else:
            up = mid
    zone = mp.quad(lambda x: 2 * mp.acos(max(-1, min(1, (
        orient * (a_of(x) - crit) / mp.sqrt(b_of(x)))))), [0, lo])
    const = 2 * mp.pi if orient * (crit - a_of((lo + hi) / 2)) > 0 else 0
    return (zone + const * (hi - lo)) / (2 * mp.pi)


def mp_envelope(params, n, levels, dps=50):
    """(h_min, h_max) on the given level indices in mpmath: the chart's A
    and B of the NS frame at the float level l, taken as exact, and their
    extremes over the ends and the real roots in [lo, hi] of the sextic
    B'^2 - 4 A'^2 B (``mpmath.polyroots``).  The p2 chart's terms are of
    size R and cancel, so the working precision grows with |log10 R|."""
    import mpmath

    mpf = mpmath.mpf
    params = ns_frame(params)
    ls = np.linspace(-2.0, 2.0 * params.R, n + 1)
    out = []
    with mpmath.workdps(dps + 2 * math.ceil(math.log10(params.R))):
        R, s1, s2 = mpf(params.R), mpf(params.s1), mpf(params.s2)
        c = s1 + s2 - s1 ** 2 - s2 ** 2
        ka, slope, kb = (1 - 2 * s1) / R, s2 - R + R * s2, 4 * c * c / R ** 2
        for i in levels:
            l = mpf(float(ls[i]))
            lo, hi = max(mpf(0), l), min(2 * R, l + 2)
            base = R * (1 + l - 2 * s2 - l * s2)
            b = [kb]  # B's coefficients, highest degree first
            for r in (0, l, 2 * R, l + 2):
                b = [x - r * y for x, y in zip(b + [0], [0] + b)]
            db = [(4 - j) * b[j] for j in range(4)]
            sextic = [sum(db[i] * db[k - i]
                          for i in range(max(0, k - 3), min(k, 3) + 1))
                      for k in range(7)]
            for j in range(5):
                sextic[j + 2] -= 4 * (ka * slope) ** 2 * b[j]
            xs = [lo, hi]
            if kb != 0:
                # With A' = 0 (s1 = 1/2) the sextic is B'^2, whose double
                # roots polyroots may not converge on: take B''s roots.
                xs += [mpmath.re(z) for z in mpmath.polyroots(
                    sextic if ka * slope else db, maxsteps=400,
                    extraprec=400)
                    if lo <= mpmath.re(z) <= hi]
            vals = [(ka * (base + x * slope),
                     mpmath.sqrt(max(mpmath.polyval(b, x), 0))) for x in xs]
            out.append((float(min(a - rb for a, rb in vals)),
                        float(max(a + rb for a, rb in vals))))
    return out


def exact_vertices(cuts, R):
    """The representative's vertices for an integer or ``Fraction`` R,
    built in exact arithmetic on the DH knots -2, 0, 2R - 2 and 2R."""
    ls = (-2, 0, 2 * R - 2, 2 * R)
    bottom, slope = [(-2, 0)], 0
    for i, (l0, l1) in enumerate(zip(ls, ls[1:])):
        slope += i > 0 and cuts[i - 1] == -1
        bottom.append((l1, bottom[-1][1] + slope * (l1 - l0)))
    top = [(l, y + v) for (l, y), v in zip(bottom, (0, 2, 2, 0))]

    def kinks(chain):
        return [chain[0]] + [b for a, b, c in zip(chain, chain[1:], chain[2:])
                             if (b[1] - a[1]) * (c[0] - b[0])
                             != (c[1] - b[1]) * (b[0] - a[0])] + [chain[-1]]

    bottom, top = kinks(bottom), kinks(top)
    return tuple(bottom) + tuple(reversed(top[1:-1]))
