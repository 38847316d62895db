"""Acceptance gate: eleven quantitative criteria, one verdict line each.

Every criterion pairs a closed-form quantity with an independent numerical
oracle (adaptive quadrature, finite differences, companion-matrix roots,
grid sweeps) at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from semitoric import cartography, height, reduced, singularity
from semitoric.model import (FIXED_POINTS, ModelParams, h_func, l_func,
                             momentum_map)
from semitoric.numerics import integrate, quartic_roots

from conftest import (gamma_A, l_flow, panel_integrand, poisson_bracket,
                      random_phase_point, record_criterion)

GRID_RS = (1.5, 2.0, 3.0, 4.0, 8.0)


def _ff_grid():
    """All (s1, s2, R) on the acceptance grid with E < -1e-6."""
    out = []
    for R in GRID_RS:
        for s1 in np.linspace(0.05, 0.95, 20):
            for s2 in np.linspace(0.05, 0.95, 20):
                p = ModelParams(1.0, R, float(s1), float(s2))
                if singularity.discriminant_E(p) < -1e-6:
                    out.append(p)
    return out


def _random_ff(rng, n, e_below=-1e-6, r_choices=GRID_RS):
    out = []
    while len(out) < n:
        p = ModelParams(1.0, float(rng.choice(r_choices)),
                        float(rng.uniform(0.02, 0.98)),
                        float(rng.uniform(0.02, 0.98)))
        if singularity.discriminant_E(p) < e_below:
            out.append(p)
    return out


@pytest.fixture(scope="module")
def grid_results():
    """Closed form plus both oracle runs on the full acceptance grid."""
    t0 = time.monotonic()
    rows = []
    for p in _ff_grid():
        inv = height.height_closed(p)
        h1_q = height.height_oracle("NS", p, tol=1e-9)
        h2_q = height.height_oracle("SN", p, tol=1e-9)
        rows.append((p, inv, h1_q, h2_q))
    return rows, time.monotonic() - t0


def test_criterion_01_closed_form_vs_oracle(grid_results):
    rows, elapsed = grid_results
    worst = max(abs(inv.h1 - h1_q) for _, inv, h1_q, _ in rows)
    ok = worst <= 1e-6 and elapsed < 120.0
    record_criterion(
        "criterion 1 closed form vs quadrature oracle",
        ok, f"{len(rows)} grid points, worst |dh1| = {worst:.2e}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_heights_sum_to_two(grid_results):
    rows, _ = grid_results
    worst_closed = max(abs(inv.h1 + inv.h2 - 2.0) for _, inv, _, _ in rows)
    worst_oracle = max(abs(h1_q + h2_q - 2.0) for _, _, h1_q, h2_q in rows)
    ok = worst_closed <= 1e-12 and worst_oracle <= 2e-9
    record_criterion(
        "criterion 2 h1 + h2 = 2",
        ok, f"closed {worst_closed:.2e}, oracle {worst_oracle:.2e}")
    assert ok


def test_criterion_03_trivial_cases(rng):
    devs = []
    n_half = n_bdry = 0
    while n_half < 50:
        p = ModelParams(1.0, float(rng.choice(GRID_RS)), 0.5,
                        float(rng.uniform(0.02, 0.98)))
        inv = height.height_closed(p)
        devs.append(max(abs(inv.h1 - 1.0), abs(inv.h2 - 1.0)))
        n_half += 1
    while n_bdry < 50:
        R = float(rng.choice(GRID_RS))
        p = ModelParams(1.0, R, float(rng.uniform(0.1, 0.9)), R / (R + 1.0))
        if singularity.discriminant_E(p) >= 0:
            continue
        inv = height.height_closed(p)
        devs.append(max(abs(inv.h1 - 1.0), abs(inv.h2 - 1.0)))
        n_bdry += 1
    worst = max(devs)
    ok = worst == 0.0
    record_criterion("criterion 3 trivial cases give h = (1, 1) exactly",
                     ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_04_mirror_and_swap(rng):
    worst_mirror = worst_swap = 0.0
    for p in _random_ff(rng, 200):
        a = height.height_closed(p)
        b = height.height_closed(
            ModelParams(p.r1, p.r2, 1.0 - p.s1, p.s2))
        worst_mirror = max(worst_mirror, abs(a.h1 - b.h2), abs(a.h2 - b.h1))
        c = height.height_closed(
            ModelParams(p.r2, p.r1, p.s1, 1.0 - p.s2))
        worst_swap = max(
            worst_swap,
            abs(min(a.h1, a.h2) - min(c.h1, c.h2)),
            abs(max(a.h1, a.h2) - max(c.h1, c.h2)))
    ok = worst_mirror <= 1e-10 and worst_swap <= 1e-10
    record_criterion(
        "criterion 4 mirror identity and sphere-swap invariance",
        ok, f"mirror {worst_mirror:.2e}, swap {worst_swap:.2e}")
    assert ok


def test_criterion_05_nff_classification():
    e_ref = singularity.discriminant_E(ModelParams(1.0, 2.0, 0.5, 0.5))
    nff_ref = singularity.n_ff(ModelParams(1.0, 2.0, 0.5, 0.5))
    e_corner = singularity.discriminant_E(ModelParams(1.0, 2.0, 0.0, 0.0))
    nff_corner = singularity.n_ff(ModelParams(1.0, 2.0, 0.0, 0.0))
    s = np.linspace(0.0, 1.0, 41)
    mask = np.zeros((41, 41), dtype=bool)
    for i, s1 in enumerate(s):
        for j, s2 in enumerate(s):
            p = ModelParams(1.0, 2.0, float(s1), float(s2))
            mask[i, j] = singularity.discriminant_E(p) < 0
    corner_free = not (mask[0, 0] or mask[0, -1] or mask[-1, 0]
                       or mask[-1, -1])
    ok = (abs(e_ref + 8.0) < 1e-12 and nff_ref == 2
          and abs(e_corner - 4.0) < 1e-12 and nff_corner == 0
          and mask.any() and corner_free
          and (mask == mask[::-1, :]).all())
    record_criterion(
        "criterion 5 focus-focus region classification",
        ok, f"E(1,2,1/2,1/2) = {e_ref}, E(1,2,0,0) = {e_corner}, "
            f"region cells = {int(mask.sum())}")
    assert ok


def test_criterion_06_integrability(rng):
    worst_pb = 0.0
    for _ in range(10):
        p = ModelParams(1.0, float(rng.uniform(1.2, 6.0)),
                        float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 1.0)))
        for _ in range(1000):
            pt = random_phase_point(rng)
            worst_pb = max(worst_pb,
                           abs(poisson_bracket(l_func, h_func, pt, p)))
    worst_flow = 0.0
    for _ in range(3):
        p = ModelParams(1.0, float(rng.uniform(1.2, 6.0)),
                        float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 1.0)))
        for _ in range(3):
            pt = random_phase_point(rng)
            back = l_flow(pt, p, 2.0 * math.pi)
            worst_flow = max(worst_flow, float(np.max(np.abs(
                back.as_array() - pt.as_array()))))
    ok = worst_pb <= 1e-6 and worst_flow <= 1e-6
    record_criterion(
        "criterion 6 integrability and periodic circle action",
        ok, f"|{{L,H}}| <= {worst_pb:.2e}, 2pi-return <= {worst_flow:.2e}")
    assert ok


def test_criterion_07_reduced_roots(grid_results):
    rows, _ = grid_results
    worst = 0.0
    for p, _, _, _ in rows:
        closed = reduced.roots_P0("NS", p)
        numeric = quartic_roots(reduced.p0_coefficients("NS", p))
        worst = max(worst, float(np.max(np.abs(
            numeric.real - np.sort([0.0, 0.0, closed.z3, closed.z4])))),
            float(np.max(np.abs(numeric.imag))))
    worst_half = 0.0
    for R in GRID_RS:
        for s2 in (0.2, 0.5, 0.8):
            p = ModelParams(1.0, R, 0.5, s2)
            r = reduced.roots_P0("NS", p)
            worst_half = max(worst_half, abs(r.z3 - 2.0),
                             abs(r.z4 - 2.0 * R))
    ok = worst <= 1e-9 and worst_half <= 1e-12
    record_criterion(
        "criterion 7 closed-form roots vs quartic solver",
        ok, f"grid {worst:.2e}, s1=1/2 special values {worst_half:.2e}")
    assert ok


def test_criterion_08_dh_jump_and_polygon_width():
    step = 1e-3
    worst_jump = 0.0

    def rho(l, R):
        lo, hi = reduced.physical_interval("NS", l, R)
        return hi - lo

    for R in GRID_RS:
        for l in reduced.ff_levels(R):
            right = (rho(l + 2 * step, R) - rho(l + step, R)) / step
            left = (rho(l - step, R) - rho(l - 2 * step, R)) / step
            worst_jump = max(worst_jump, abs((right - left) - (-1.0)))
    worst_width = 0.0
    p = ModelParams(1.0, 2.0, 0.3, 0.4)
    dh = reduced.dh_function(2.0)
    for cuts in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        poly = cartography.polygon_representative(p, cuts)
        for l in np.linspace(-2.0, 4.0, 101):
            worst_width = max(worst_width,
                              abs(poly.width(float(l)) - dh.rho(float(l))))
    ok = worst_jump <= 0.02 and worst_width <= 1e-12
    record_criterion(
        "criterion 8 Duistermaat-Heckman jump and polygon widths",
        ok, f"jump error {worst_jump:.2e}, width error {worst_width:.2e}")
    assert ok


def test_criterion_09_gamma_identity_and_n_integrals(rng, paper_N):
    worst_gamma = 0.0
    for _ in range(1000):
        p = ModelParams(float(rng.uniform(0.5, 3.0)),
                        float(rng.uniform(0.5, 3.0)),
                        float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 1.0)))
        ga = gamma_A(p.s1, p.s2, p.R)
        target = -singularity.discriminant_E(p) / p.r1 ** 2
        scale = max(abs(target), 1e-30)
        worst_gamma = max(worst_gamma, abs(ga - target) / scale)

    # The paper's N_A and N_B, held test-side since the package computes
    # the height from one kernel in kappa (``paper_N`` in conftest).
    worst_n = n_done = 0
    while n_done < 100:
        p = _random_ff(rng, 1, e_below=-1e-4)[0]
        s1, s2, R = p.s1, p.s2, p.R
        alpha, beta, gamma = paper_N.quadratic(s1, s2, R)
        upper = ((-beta - math.sqrt(beta * beta - 4 * alpha * gamma))
                 / (2 * alpha))
        if 2.0 - upper < 1e-2:
            # The pole of the delta = 2 integrand nearly touches the
            # integration endpoint; admissible but too ill-conditioned to
            # serve as a quadrature reference.
            continue
        n_done += 1

        def q_inv(x):
            return 1.0 / math.sqrt(alpha * x * x + beta * x + gamma)

        na_q, _ = integrate(*panel_integrand(q_inv, 0.0, upper, sin2=True),
                            1e-11, 4000)
        worst_n = max(worst_n, abs(paper_N.A(alpha, beta, gamma) - na_q))
        for delta in (2.0, 2.0 * R):
            nb_q, _ = integrate(*panel_integrand(
                lambda x: q_inv(x) / (delta - x), 0.0, upper, sin2=True),
                1e-11, 4000)
            worst_n = max(worst_n,
                          abs(paper_N.B(alpha, beta, gamma, delta) - nb_q))
    ok = worst_gamma <= 1e-12 and worst_n <= 1e-9
    record_criterion(
        "criterion 9 gamma identity and elementary integrals",
        ok, f"gamma rel {worst_gamma:.2e}, N vs quadrature {worst_n:.2e}")
    assert ok


def test_criterion_10_rank1_criterion(rng):
    eps = 1e-6
    z1 = np.linspace(-1 + eps, 1 - eps, 200)
    z2 = np.linspace(-(1 - eps), 1 - eps, 200)
    worst = -np.inf
    for _ in range(20):
        p = ModelParams(1.0, float(rng.uniform(1.2, 6.0)),
                        float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 1.0)))
        worst = max(worst, float(singularity.rank1_margin(
            z1[:, None], z2[None, :], p).max()))
    ok = worst < 0.0
    record_criterion("criterion 10 rank-1 non-degeneracy margin",
                     ok, f"largest margin {worst:.3e}")
    assert ok


def test_criterion_11_image_boundary(rng):
    ok = True
    worst_edge = 0.0
    min_interior = np.inf
    for p in _random_ff(rng, 20, e_below=-1e-3):
        ib = cartography.image_boundary(p, 64)
        ls = np.array([s[0] for s in ib.samples])
        h_lo = np.array([s[1] for s in ib.samples])
        h_hi = np.array([s[2] for s in ib.samples])
        res = float(ls[1] - ls[0])
        for key in ("NN", "SS"):
            mv = momentum_map(FIXED_POINTS[key], p)
            i = int(np.argmin(np.abs(ls - mv.l_val)))
            dist = min(abs(mv.h_val - h_lo[i]), abs(mv.h_val - h_hi[i]))
            worst_edge = max(worst_edge, dist)
            ok = ok and dist <= res
        for l_ff, h_ff in ib.ff_values:
            lo = float(np.interp(l_ff, ls, h_lo))
            hi = float(np.interp(l_ff, ls, h_hi))
            margin = min(h_ff - lo, hi - h_ff)
            min_interior = min(min_interior, margin)
            ok = ok and margin > 0.0
    record_criterion(
        "criterion 11 image boundary containment",
        ok, f"corner-to-envelope <= {worst_edge:.2e}, focus-focus interior "
            f"margin >= {min_interior:.2e}")
    assert ok
