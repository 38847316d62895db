"""Shared fixtures, the phase-space checks and the acceptance-line reporter.

Acceptance tests register a one-line PASS/FAIL verdict through
``record_criterion``; the lines are echoed in the terminal summary so that
each criterion is visible even under output capture.

The phase-space helpers (gradients of L and H, the Poisson bracket, the flow
of L, the discrete symmetries and uniform random phase points) serve
criterion 6 and ``test_model``; the package itself only evaluates L and H.
"""

import functools
import math
import signal
from types import SimpleNamespace

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"{name}: {status}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Conventions: the symplectic form is minus the weighted sum of the standard
# area forms, with weights r1 and r2.  In cylindrical coordinates per sphere
# this reads -(r1 dtheta1 ^ dz1 + r2 dtheta2 ^ dz2), which fixes the Poisson
# bracket
#
#     {f, g} = -sum_i (1/r_i) n_i . (grad_i f x grad_i g),
#
# where n_i is the position vector on sphere i and grad_i the ambient
# gradient.  With this sign the flow of L is 2pi-periodic (checked by
# test_model and criterion 6, not assumed).

FD_STEP = 1e-6  # central-difference step of fd_gradient
L_FLOW_STEPS = 512  # RK4 steps of l_flow


def l_grad(v, params):
    return np.array([0.0, 0.0, params.r1, 0.0, 0.0, params.r2])


def h_grad(v, params):
    s1, s2 = params.s1, params.s2
    c = 2 * (s1 + s2 - s1 ** 2 - s2 ** 2)
    return np.array([
        c * v[3], c * v[4], (1 - 2 * s1) * (1 - s2),
        c * v[0], c * v[1], (1 - 2 * s1) * s2,
    ])


def fd_gradient(f, v, params):
    """Central finite-difference gradient of an observable on R^6."""
    g = np.empty(6)
    for i in range(6):
        vp, vm = v.copy(), v.copy()
        vp[i] += FD_STEP
        vm[i] -= FD_STEP
        g[i] = (f(vp, params) - f(vm, params)) / (2 * FD_STEP)
    return g


def poisson_bracket(f, g, p, params, grad_f=None, grad_g=None):
    """Poisson bracket {f, g} at the phase point ``p``.

    ``f`` and ``g`` are observables evaluated as ``f(v, params)`` on ambient
    6-vectors.  Gradients default to central finite differences; pass
    ``grad_f`` / ``grad_g`` for the analytic ones.
    """
    v = p.as_array()
    gf = grad_f(v, params) if grad_f else fd_gradient(f, v, params)
    gg = grad_g(v, params) if grad_g else fd_gradient(g, v, params)
    n1, n2 = v[:3], v[3:]
    return (-(1.0 / params.r1) * float(n1 @ np.cross(gf[:3], gg[:3]))
            - (1.0 / params.r2) * float(n2 @ np.cross(gf[3:], gg[3:])))


def l_flow(p, params, t):
    """The phase point ``p`` moved for time ``t`` by the flow of L, whose
    vector field the bracket derives from L's constant gradient: RK4 in
    ``L_FLOW_STEPS`` steps, back onto the spheres after every step."""
    from semitoric.model import PhasePoint

    v = p.as_array()
    g = l_grad(v, params)

    def rhs(u):
        out = np.empty(6)
        out[:3] = -(1.0 / params.r1) * np.cross(g[:3], u[:3])
        out[3:] = -(1.0 / params.r2) * np.cross(g[3:], u[3:])
        return out

    h = t / L_FLOW_STEPS
    for _ in range(L_FLOW_STEPS):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v[:3] /= np.linalg.norm(v[:3])
        v[3:] /= np.linalg.norm(v[3:])
    return PhasePoint.from_array(v)


def apply_symmetry(i, p, params):
    """Discrete symmetry i in 1..5; returns the transformed point and params.

    Pullback identities: (L, H) is preserved for i in {1, 3, 5}, L flips sign
    for i = 2 and H flips sign for i = 4.  Symmetry 5 is defined only at
    s1 = 1/2, up to ``CASE_III_BAND`` (the rule of ``height.case_id``).
    """
    from semitoric.model import CASE_III_BAND, ModelParams, PhasePoint

    x1, y1, z1, x2, y2, z2 = p.as_array()
    r1, r2, s1, s2 = params.r1, params.r2, params.s1, params.s2
    if i == 1:
        return (PhasePoint(-x1, -y1, z1, -x2, -y2, z2),
                ModelParams(r1, r2, s1, s2))
    if i == 2:
        return (PhasePoint(x1, -y1, -z1, x2, -y2, -z2),
                ModelParams(r1, r2, 1 - s1, s2))
    if i == 3:
        return (PhasePoint(x2, y2, z2, x1, y1, z1),
                ModelParams(r2, r1, s1, 1 - s2))
    if i == 4:
        return (PhasePoint(-x1, -y1, z1, x2, y2, z2),
                ModelParams(r1, r2, 1 - s1, s2))
    if i == 5:
        if abs(s1 - 0.5) > CASE_III_BAND:
            raise ValueError("symmetry 5 is only defined at s1 = 1/2")
        return (PhasePoint(x1, y1, z1, x2, y2, z2),
                ModelParams(r1, r2, 0.5, 1 - s2))
    raise ValueError(f"symmetry index must be 1..5, got {i}")


def random_phase_point(rng):
    """Uniform random point of S2 x S2."""
    from semitoric.model import PhasePoint

    v = rng.standard_normal(6)
    v[:3] /= np.linalg.norm(v[:3])
    v[3:] /= np.linalg.norm(v[3:])
    return PhasePoint.from_array(v)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def time_limit():
    """``time_limit(seconds)`` arms SIGALRM: a test still running after
    ``seconds`` fails with TimeoutError instead of hanging the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError("time limit exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


_INVPHI = (5.0 ** 0.5 - 1.0) / 2.0


def _scalar_golden_local(f, a, b, tol, max_steps=4000):
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_steps):
        xm = 0.5 * (a + b)
        if not b - a > tol or xm == a or xm == b:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _scalar_minimize_golden(f, a, b, tol=1e-10, n_seed=64):
    """(x, fx, unimodal): multi-start golden section on one float bracket,
    one point at a time, as a reference for ``numerics.minimize_golden``."""
    if not a < b:
        raise ValueError("require a < b")
    xs = np.linspace(a, b, n_seed)
    fs = np.array([f(x) for x in xs])
    basins = [i for i in range(n_seed)
              if fs[i] <= (fs[i - 1] if i > 0 else np.inf)
              and fs[i] <= (fs[i + 1] if i < n_seed - 1 else np.inf)]
    best_x, best_fx = xs[0], np.inf
    for i in basins:
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n_seed - 1)]
        x, fx = (_scalar_golden_local(f, lo, hi, tol) if hi > lo
                 else (xs[i], fs[i]))
        if fx < best_fx:
            best_x, best_fx = x, fx
    return best_x, best_fx, len(basins) <= 1


@pytest.fixture(scope="session")
def scalar_golden():
    """Reference multi-start golden section on one float bracket at a time,
    written without ``numerics``: ``scalar_golden(f, a, b)`` returns
    (x, fx, unimodal)."""
    return _scalar_minimize_golden


def panel_integrand(f, a, b, sin2=False):
    """``(g, lo, hi)`` such that ``numerics.integrate(g, lo, hi, tol)``
    integrates the scalar ``f`` over (a, b): ``g`` calls ``f`` node by node
    on each panel's list of nodes.

    With ``sin2`` the integral is taken in t on [0, pi/2] through
    x = a + (b - a) sin^2 t, which removes inverse-square-root singularities
    at either end: g gives f(a + w s s) * 2.0 * w * s * c at s, c =
    sin t, cos t and w = b - a, in the order of the endpoint map that
    ``integrate`` once applied itself, so the values keep its bits.
    """
    if not sin2:
        return (lambda xs: [f(x) for x in xs]), a, b
    if not a < b:
        raise ValueError("require a < b")
    w = b - a

    def mapped(t):
        s, c = math.sin(t), math.cos(t)
        return f(a + w * s * s) * 2.0 * w * s * c

    return (lambda ts: [mapped(t) for t in ts]), 0.0, 0.5 * math.pi


def _ndarray_gk15(f, a, b):
    """One Gauss-Kronrod panel exactly as ``numerics._gk15`` computed it
    when it took its nodes from an ndarray: ``f`` gets the nodes as NumPy
    scalars, the elements of mid + half * (the Kronrod nodes)."""
    from semitoric import numerics
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * np.array(numerics._KRONROD_NODES)
    fx = np.array(f(list(x)))
    k15 = half * float(numerics._KRONROD_WEIGHTS @ fx)
    g7 = half * float(numerics._GAUSS_WEIGHTS @ fx[1::2])
    return k15, (200.0 * abs(k15 - g7)) ** 1.5


@pytest.fixture(scope="session")
def ndarray_gk15():
    """Reference GK15 panel that iterates an ndarray of nodes, for
    bit-for-bit comparison with ``numerics._gk15``."""
    return _ndarray_gk15


def _loop_rho(dh, l):
    """The DH profile at float ``l``, summed segment by segment as
    ``DHFunction.rho`` once did, as a reference for its ``np.interp``."""
    lo, hi = dh.domain
    if not lo <= l <= hi:
        raise ValueError(f"l = {l} outside domain {dh.domain}")
    pts = [bp[0] for bp in dh.breakpoints] + [hi]
    slopes = [bp[1] for bp in dh.breakpoints]
    value, x = 0.0, lo
    for seg_end, slope in zip(pts[1:], slopes):
        if l <= seg_end:
            return value + slope * (l - x)
        value += slope * (seg_end - x)
        x = seg_end
    return value


@pytest.fixture(scope="session")
def loop_rho():
    """``loop_rho(dh, l)``: the DH profile of ``dh`` at a float ``l`` by a
    segment-by-segment loop, without ``np.interp``."""
    return _loop_rho


def _dense_dh_check(dh, R):
    """The DH profile's self-check as it was made on a 33-point grid: the
    profile against the interval length min(2R, l + 2) - max(0, l)."""
    from semitoric.errors import ConsistencyError

    ls = np.linspace(-2.0, 2.0 * R, 33)
    length = np.minimum(2.0 * R, ls + 2.0) - np.maximum(0.0, ls)
    if (np.abs(dh.rho(ls) - length) > 1e-12).any():
        raise ConsistencyError("DH profile disagrees with interval length")


def _dense_polygon_check(poly, dh):
    """The polygon's self-check as it was made on a 41-point grid: integer
    edge slopes, convex chains and the width against the DH profile."""
    from semitoric.cartography import WIDTH_TOL
    from semitoric.errors import ConsistencyError

    for chain, sense in ((poly.bottom, 1.0), (poly.top, -1.0)):
        slopes = [(y1 - y0) / (l1 - l0)
                  for (l0, y0), (l1, y1) in zip(chain[:-1], chain[1:])]
        for s in slopes:
            if abs(s - round(s)) > 1e-9:
                raise ConsistencyError(f"non-integer edge slope {s}")
        for s0, s1 in zip(slopes[:-1], slopes[1:]):
            if sense * (s1 - s0) < -1e-9:
                raise ConsistencyError("polygon is not convex")
    ls = np.linspace(*poly.domain, 41)
    if (np.abs(poly.width(ls) - dh.rho(ls)) > WIDTH_TOL).any():
        raise ConsistencyError("polygon width disagrees with the "
                               "Duistermaat-Heckman profile")


@pytest.fixture(scope="session")
def dense_checks():
    """References for the knot self-checks: ``dh(dh, R)`` and
    ``polygon(poly, dh)`` raise ``ConsistencyError`` where the checks on
    dense grids did, and return None otherwise."""
    return SimpleNamespace(dh=_dense_dh_check, polygon=_dense_polygon_check)


def _loop_critical_points(rho_l, rho_r, c):
    """``cartography._critical_points`` as it was written before its early
    exits: every lane takes the nested ``np.where`` step each time, and the
    loop stops only on the combined convergence test.  The reference for
    bit-identical t and step count."""
    from semitoric.cartography import _MAX_STEPS

    eps = np.finfo(float).eps
    rho_l, rho_r = rho_l[:, None], rho_r[:, None]
    s_c = np.stack([c, -c], axis=1)
    e = (s_c > 0.0).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        nodes = np.arange(9)[:, None, None] / 8.0
        scan = _loop_critical_equation(nodes, rho_l, rho_r, s_c)[0]
        j = (scan[1:-1] > 0.0).sum(axis=0)
        u_a, u_b = np.choose(j, scan), np.choose(j + 1, scan)
        a = j / 8.0
        b = a + 0.125
        t = a + 0.125 * (u_a / (u_a - u_b))
        t = np.where((a <= t) & (t <= b), t, 0.5 * (a + b))
        for steps in range(1, _MAX_STEPS + 1):
            u, du, size = _loop_critical_equation(t, rho_l, rho_r, s_c)
            a = np.where(u > 0.0, t, a)
            b = np.where(u < 0.0, t, b)
            step = u / du
            newton = t - step
            # The Newton step in r = sqrt(|t - e|), mapped back to t.
            in_r = newton + step * (step / (4.0 * (t - e)))
            nxt = np.where((a <= in_r) & (in_r <= b), in_r,
                           np.where((a <= newton) & (newton <= b), newton,
                                    0.5 * (a + b)))
            done = ((np.abs(u) <= 8.0 * eps * size)
                    | (np.abs(nxt - t) <= 4.0 * eps * t))
            t = np.where(done, t, nxt)
            if done.all():
                break
    return t, steps


def _loop_critical_equation(t, rho_l, rho_r, s_c):
    """(u, du/dt, size) of ``_loop_critical_points``, as
    ``cartography._critical_equation`` computed them."""
    t_l, t_r, one_t = t - rho_l, rho_r - t, 1.0 - t
    p, q = t * t_l, one_t * t_r
    dp, neg_dq = t + t_l, one_t + t_r
    root = np.sqrt(p * q)
    dp_q, p_dq, c_root = dp * q, p * neg_dq, 2.0 * s_c * root
    d_beta = dp_q - p_dq
    du = 2.0 * (p + q - dp * neg_dq) + s_c * d_beta / root
    return d_beta + c_root, du, dp_q + p_dq + np.abs(c_root)


@pytest.fixture(scope="session")
def loop_critical_points():
    """``loop_critical_points(rho_l, rho_r, c)``: the envelope's lockstep
    critical-point solve without early exits, returning (t, steps)."""
    return _loop_critical_points


def _reference_image_boundary(params, n=64):
    """``cartography.image_boundary`` as it was written with three chart
    evaluations per envelope, ``np.stack``/``np.concatenate``/``np.clip``
    candidates and corner values through ``momentum_map``.  The reference
    for bit-identical samples, focus-focus and corner values."""
    import numbers

    from semitoric import reduced
    from semitoric.cartography import MAX_SAMPLES, ImageBoundary
    from semitoric.model import FIXED_POINTS, momentum_map
    from semitoric.singularity import discriminant_E, is_focus_focus

    if not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be <= {MAX_SAMPLES}")
    r1, R = params.r1, params.R
    ls = np.linspace(-2.0, 2.0 * R, n + 1)
    lo, hi = np.maximum(ls, 0.0), np.minimum(ls + 2.0, 2.0 * R)
    h_min = reduced.chart("NS", ls, params)[0](lo)  # kept on narrow levels
    h_max = h_min.copy()
    wide = np.flatnonzero(~(hi - lo < 1e-12))
    p2 = _reference_envelope_candidates(params, ls[wide], lo[wide], hi[wide])
    a_of, b_of = reduced.chart("NS", ls[wide, None], params)
    a, b = a_of(p2), b_of(p2)
    root_b = np.sqrt(np.where(b > 0.0, b, 0.0))
    h_min[wide] = (a - root_b).min(axis=1)
    h_max[wide] = (a + root_b).max(axis=1)
    samples = tuple(zip((r1 * (ls + 1.0 - R)).tolist(), h_min.tolist(),
                        h_max.tolist()))
    corner_values = tuple(
        (mv.l_val, mv.h_val)
        for mv in (momentum_map(FIXED_POINTS[k], params)
                   for k in ("NN", "NS", "SN", "SS")))
    two_ff = is_focus_focus(discriminant_E(params), params)
    ff_values = corner_values[1:3] if two_ff else ()
    return ImageBoundary(samples, ff_values, corner_values)


def _reference_envelope_candidates(params, l, lo, hi):
    """``cartography._envelope_candidates`` of ``_reference_image_boundary``:
    the factored chart from ``reduced.chart_factors``, critical columns
    first, then the ends."""
    from semitoric import reduced
    from semitoric.cartography import _critical_points

    slope, kb, m = reduced.chart_factors("NS", l, params)
    ends = np.stack([lo, hi], axis=1)
    if kb == 0.0:
        return ends
    w = hi - lo
    rho_l = (np.minimum(0.0, m) - lo) / w
    rho_r = (np.maximum(2.0 * params.R, m + 2.0) - lo) / w
    t, _ = _critical_points(rho_l, rho_r, slope / (math.sqrt(kb) * w))
    p2 = np.clip(lo[:, None] + w[:, None] * t, lo[:, None], hi[:, None])
    return np.concatenate([p2, ends], axis=1)


@pytest.fixture(scope="session")
def reference_image_boundary():
    """``reference_image_boundary(params, n)``: the momentum-map envelope as
    computed before the chart terms were shared, for bit-identity tests."""
    return _reference_image_boundary


def _paper_terms(s1, s2, R):
    """alpha, beta, gamma of the quadratic under the root and the partial-
    fraction weights v1, v2, v3 of the closed form, as the paper writes them
    (expanded polynomials).  Takes floats, mpf or sympy symbols."""
    c = s1 * s1 - s1 + s2 * s2 - s2
    alpha, beta = 4 * c ** 2, -8 * (1 + R) * c ** 2
    gamma = (-R ** 2 * (1 - 2 * s1) ** 2 * (s2 - 1) ** 2
             + 2 * R * (8 * s1 ** 4 - 16 * s1 ** 3
                        + 4 * s1 ** 2 * (3 * s2 ** 2 - 3 * s2 + 2)
                        - 12 * s1 * (s2 - 1) * s2
                        + s2 * (8 * s2 ** 3 - 16 * s2 ** 2 + 7 * s2 + 1))
             - (1 - 2 * s1) ** 2 * s2 ** 2)
    v1 = -(2 * s1 - 1) * (R * s2 - R + s2)
    v2 = -(-2 * R * s1 * s2 + 2 * R * s1 + R * s2 - R - 2 * s1 * s2 + s2)
    v3 = -(-2 * R ** 2 * s1 * s2 + 2 * R ** 2 * s1 + R ** 2 * s2 - R ** 2
           - 2 * R * s1 * s2 + R * s2)
    return alpha, beta, gamma, (v1, v2, v3)


@pytest.fixture(scope="session")
def paper_terms():
    """``paper_terms(s1, s2, R)``: (alpha, beta, gamma, (v1, v2, v3)) of the
    paper's partial-fraction form of F."""
    return _paper_terms


def _paper_NA(xm, alpha, beta, gamma):
    """N_A = int_0^x+ dx / sqrt(q), with q = alpha x^2 + beta x + gamma and
    x+ its smaller root, in the paper's closed form over the math namespace
    ``xm``: ``math`` for floats, ``mpmath.mp`` for mpf."""
    disc = beta * beta - 4 * alpha * gamma
    return (xm.log(-xm.sqrt(disc) / (beta + 2 * xm.sqrt(alpha * gamma)))
            / xm.sqrt(alpha))


def _paper_NB(xm, alpha, beta, gamma, delta):
    """N_B(delta) = int_0^x+ dx / ((delta - x) sqrt(q)) in the paper's
    closed form over ``xm``: the arctan branch where w = q(delta) < 0, the
    log branch otherwise."""
    disc = beta * beta - 4 * alpha * gamma
    w = gamma + delta * (beta + alpha * delta)
    if w < 0:
        num = 2 * gamma + delta * (beta + xm.sqrt(disc))
        return 2 / xm.sqrt(-w) * xm.atan(num / (2 * xm.sqrt(-gamma * w)))
    num = -2 * gamma - beta * delta + 2 * xm.sqrt(gamma * w)
    return xm.log(num / (delta * xm.sqrt(disc))) / xm.sqrt(w)


def gamma_A(s1, s2, R):
    """gamma of ``_paper_terms``, m^2 (16 R - kappa^2) in k, m of
    ``reduced._k_and_m``, as an expanded polynomial with its powers as
    products in one fixed association, so that floats and arrays round
    alike.  Takes floats, arrays or sympy symbols."""
    a2 = s1 * s1
    a3, a4 = a2 * s1, a2 * a2
    b2 = s2 * s2
    b3 = b2 * s2
    u, w = 1 - 2 * s1, s2 - 1
    return (-(R * R) * (u * u) * (w * w)
            + 2 * R * (8 * a4 - 16 * a3 + 4 * a2 * (3 * b2 - 3 * s2 + 2)
                       - 12 * s1 * w * s2
                       + s2 * (8 * b3 - 16 * b2 + 7 * s2 + 1))
            - u * u * b2)


def reference_closed_form_F(s1, s2, R):
    """``height.closed_form_F`` as it was written with its own regime check
    gamma_A <= 0 ahead of the kernel, and NaN on arrays also where an
    argument is not finite: the reference for the form that shares the
    height's path."""
    from semitoric.height import _check_finite, _height_kernel
    from semitoric.reduced import _k_and_m

    ga = gamma_A(s1, s2, R)
    floats = not isinstance(ga, np.ndarray)
    if floats:
        _check_finite("closed_form_F", s1, s2, R)
    bad_ga = ga <= 0
    if floats and bad_ga:
        raise ValueError(f"gamma_A = {ga:.3e} <= 0: outside the focus-focus "
                         f"regime")
    k, m = _k_and_m(s1, s2, R)
    bad_k = k == 0.0
    if floats and bad_k:
        raise ValueError("on the trivial-case boundary (case III); F is not "
                         "defined there")
    kappa = k / abs(m)
    f = (np.copysign(1.0, kappa)
         * (2 * math.pi - _height_kernel(abs(kappa), R)))
    if floats:
        return float(f)
    bad = bad_ga | bad_k | ~np.isfinite(f)
    for x in (s1, s2, R):
        bad = bad | ~np.isfinite(x)
    return np.where(bad, np.nan, f)


def _float_quadratic(s1, s2, R):
    """(alpha, beta, gamma) of ``_paper_terms`` in the package's floats:
    4 c^2 and -8 (1 + R) c^2 with c = s1^2 - s1 + (s2 - 1) s2, and
    ``gamma_A`` (the expanded polynomials round differently)."""
    c = s1 * s1 - s1 + (s2 - 1) * s2
    return 4 * (c * c), -8 * (1 + R) * (c * c), gamma_A(s1, s2, R)


@pytest.fixture(scope="session")
def paper_N():
    """The paper's elementary integrals on floats, in ``math``:
    ``paper_N.A(alpha, beta, gamma)``, ``paper_N.B(alpha, beta, gamma,
    delta)`` and ``paper_N.quadratic(s1, s2, R)``, their (alpha, beta,
    gamma) at a point."""
    return SimpleNamespace(A=functools.partial(_paper_NA, math),
                           B=functools.partial(_paper_NB, math),
                           quadratic=_float_quadratic)


def _mp_paper_F(mp, s1, s2, R):
    """2 (v1 N_A + v2 N_B(2) + v3 N_B(2R)) at mpmath's working precision."""
    s1, s2, R = (mp.mpf(v) for v in (s1, s2, R))
    alpha, beta, gamma, (v1, v2, v3) = _paper_terms(s1, s2, R)
    return 2 * (v1 * _paper_NA(mp, alpha, beta, gamma)
                + v2 * _paper_NB(mp, alpha, beta, gamma, 2)
                + v3 * _paper_NB(mp, alpha, beta, gamma, 2 * R))


@pytest.fixture(scope="session")
def paper_F():
    """``paper_F(s1, s2, R)``: the paper's form of F at float inputs,
    evaluated in 100-digit mpmath and rounded to a float; the test is
    skipped when mpmath is not installed.  The form gets N_B's radicand
    w = -k^2 (k = (2 s1 - 1)(R (s2 - 1) + s2)) as a difference of O(1)
    terms: within 1e-12 of both case-III lines k is about 1e-24, so 60
    digits would leave 12 in w, and 100 leave 52."""
    mp = pytest.importorskip("mpmath").mp

    def value(s1, s2, R):
        with mp.workdps(100):
            return float(_mp_paper_F(mp, s1, s2, R))
    return value
