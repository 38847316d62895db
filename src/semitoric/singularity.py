"""Classification of the rank-0 fixed points, the discriminant E deciding the
number of focus-focus points, and the rank-1 non-degeneracy criterion.

The four rank-0 singularities are the products of poles NN, NS, SN, SS.
NN and SS are always elliptic-elliptic.  NS and SN are focus-focus exactly
when E < 0 and elliptic-elliptic when E > 0; on E = 0 they are degenerate
and the system fails to be semitoric.

``discriminant_E`` and its band tests (``is_degenerate``, ``is_focus_focus``,
``is_ill_conditioned``) also take a ``ParamGrid`` (one pair of radii, s1 as
a column and s2 as a row) and then return arrays over its grid, identical
cell by cell to the ModelParams calls.  Like every formula in the package
that runs on floats and arrays, each is written once, with squares as
products (``x * x``): every operation is then one correctly rounded IEEE
operation on floats and on arrays alike.

``rank1_margin`` is one formula in (z1, z2) under the same rule.  Its
numerator is a positive definite quadratic form wherever |z1 z2| < 1, so
it is negative on the whole open strip |z1|, |z2| < 1: every rank-1 point
is non-degenerate, and ``check_semitoric`` decides from E alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError
from .model import ModelParams, ParamGrid
from .reduced import _k_and_m

# |E| below DEGENERACY_BAND * r1 * r2 is treated as degenerate.
DEGENERACY_BAND = 1e-10
# E in (-ILL_CONDITIONED_BAND * r1 * r2, 0) is flagged: NS and SN are close
# to changing type there, but both heights stay within 4.4e-16 of mpmath.
ILL_CONDITIONED_BAND = 1e-6

POINT_IDS = ("NN", "NS", "SN", "SS")


def discriminant_E(params: ModelParams | ParamGrid) -> float | np.ndarray:
    """Discriminant deciding the type of the NS and SN singularities.  With
    k, m of ``reduced._k_and_m``, R = r2 / r1, kappa = k / |m| and the
    paper's gamma_A, it is a difference of two squares:
    E = (r1 k)^2 - 16 r1 r2 m^2 = -r1^2 gamma_A = -r1^2 m^2 (16 R - kappa^2),
    so NS and SN are focus-focus exactly where the height kernel's
    D = 16 R - kappa^2 > 0.  The sphere swap (r1, r2, s2) -> (r2, r1, 1 - s2)
    negates r1 k and keeps m, so it keeps E."""
    r1k, m = _k_and_m(params.s1, params.s2, params.r2, params.r1)
    # 16 scales m^2 exactly; r1 r2 < max(r1^2, r2^2) cannot overflow.
    return r1k * r1k - params.r1 * params.r2 * (16 * (m * m))


def is_degenerate(e, params: ModelParams | ParamGrid):
    """Whether E (a float, or an array over a ParamGrid) lies inside the
    degeneracy band |E| <= DEGENERACY_BAND * r1 * r2."""
    return abs(e) <= DEGENERACY_BAND * params.r1 * params.r2


def is_focus_focus(e, params: ModelParams | ParamGrid):
    """Whether E (a float, or an array over a ParamGrid) lies below the
    degeneracy band: E < 0 and not ``is_degenerate``."""
    return e < -(DEGENERACY_BAND * params.r1 * params.r2)


def is_ill_conditioned(e, params: ModelParams | ParamGrid):
    """Whether E (a float, or an array over a ParamGrid) lies in the
    ill-conditioned band -ILL_CONDITIONED_BAND * r1 * r2 < E < 0.  E scales
    as r1 r2, so the flag does not change when both radii are scaled."""
    return (-(ILL_CONDITIONED_BAND * params.r1 * params.r2) < e) & (e < 0)


@dataclass(frozen=True)
class SingularityReport:
    point_id: str             # NN | NS | SN | SS
    kind: str                 # elliptic-elliptic | focus-focus | degenerate
    e_value: float


def classify_fixed_points(params: ModelParams) -> list[SingularityReport]:
    """Reports for the four rank-0 fixed points, in order NN, NS, SN, SS.

    NN and SS are elliptic-elliptic; the type of NS and SN is the sign of E
    (degenerate inside the band).
    """
    e = discriminant_E(params)
    mixed = ("focus-focus" if is_focus_focus(e, params) else "degenerate"
             if is_degenerate(e, params) else "elliptic-elliptic")
    kinds = {"NN": "elliptic-elliptic", "NS": mixed, "SN": mixed,
             "SS": "elliptic-elliptic"}
    return [SingularityReport(pid, kinds[pid], e) for pid in POINT_IDS]


def n_ff(params: ModelParams) -> int:
    """Number of focus-focus points: 0 if E > 0, 2 if E < 0."""
    e = discriminant_E(params)
    if is_degenerate(e, params):
        raise DegenerateSystemError(
            f"E = {e:.3e} inside the degeneracy band; system is not semitoric")
    return 2 if e < 0 else 0


def rank1_margin(z1, z2, params: ModelParams):
    """Right-hand side of the rank-1 non-degeneracy criterion.

    The left-hand side vanishes for this family, so rank-1 singularities are
    non-degenerate elliptic-regular exactly when the returned value is
    negative.  With rho = r1 / r2, a = 1 - z1^2 and b = 1 - z2^2 it is

        -(rho^2 a^2 + 2 z1 z2 rho a b + b^2) / (a b sqrt(a b)).

    The numerator is a quadratic form in (rho a, b) that is positive
    definite because |z1 z2| < 1, so the margin is negative on the whole
    open strip.  ``z1`` and ``z2`` are floats or arrays broadcast together,
    with the same bits either way (-inf, with NumPy's overflow warning,
    where the margin lies below the float range); ``ValueError`` unless
    every |z1|, |z2| is below 1.
    """
    if not (np.all(abs(z1) < 1.0) and np.all(abs(z2) < 1.0)):
        raise ValueError("z1 and z2 must lie in (-1, 1)")
    rho = params.r1 / params.r2
    a = 1.0 - z1 * z1
    b = 1.0 - z2 * z2
    return -(rho * rho * a * a + 2.0 * z1 * z2 * rho * a * b + b * b) / (
        a * b * np.sqrt(a * b))


@dataclass(frozen=True)
class SemitoricVerdict:
    is_semitoric: bool
    n_ff: int
    degenerate: bool


def check_semitoric(params: ModelParams, grid_n: int = 50, *,
                    _e=None) -> SemitoricVerdict:
    """Aggregate verdict from one discriminant E.

    Degenerate means E inside the degeneracy band; otherwise n_ff is 2 for
    E < 0 and 0 for E > 0, and every fixed point is non-degenerate
    (``classify_fixed_points``).  Every rank-1 point is non-degenerate too,
    since ``rank1_margin`` is negative on the whole open strip, so
    semitoric means not degenerate.  ``grid_n`` is accepted for
    compatibility and has no effect; a caller that holds E passes it as
    ``_e``.
    """
    e = discriminant_E(params) if _e is None else _e
    degenerate = is_degenerate(e, params)
    return SemitoricVerdict(is_semitoric=not degenerate,
                            n_ff=2 if is_focus_focus(e, params) else 0,
                            degenerate=degenerate)
