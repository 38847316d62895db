"""Classification of the rank-0 fixed points, the discriminant E deciding the
number of focus-focus points, and the rank-1 non-degeneracy criterion.

The four rank-0 singularities are the products of poles NN, NS, SN, SS.
NN and SS are always elliptic-elliptic.  NS and SN are focus-focus exactly
when E < 0 and elliptic-elliptic when E > 0; on E = 0 they are degenerate
and the system fails to be semitoric.

``discriminant_E`` and ``is_degenerate`` also take a ``ParamGrid`` (one
pair of radii, s1 as a column and s2 as a row) and then return arrays over
its grid, bit-identical cell by cell to the ModelParams calls: the formula
is written once, and ``**`` on the grid's ``LibmArray`` axes rounds as
Python's float ``**`` does (see ``numerics.LibmArray``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError
from .model import ModelParams, ParamGrid
from .numerics import libm_array

# |E| below DEGENERACY_BAND * r1 * r2 is treated as degenerate.
DEGENERACY_BAND = 1e-10

POINT_IDS = ("NN", "NS", "SN", "SS")


def discriminant_E(params: ModelParams | ParamGrid) -> float | np.ndarray:
    """Discriminant deciding the type of the NS and SN singularities."""
    r1, r2, s1, s2 = params.r1, params.r2, params.s1, params.s2
    return (r2 ** 2 * (1 - 2 * s1) ** 2 * (s2 - 1) ** 2
            + r1 ** 2 * (1 - 2 * s1) ** 2 * s2 ** 2
            - 2 * r1 * r2 * (8 * (s1 - 1) ** 2 * s1 ** 2 + s2
                             - 12 * (s1 - 1) * s1 * s2
                             + (7 + 12 * (s1 - 1) * s1) * s2 ** 2
                             - 16 * s2 ** 3 + 8 * s2 ** 4))


def is_degenerate(e, params: ModelParams | ParamGrid):
    """Whether E (a float, or an array over a ParamGrid) lies inside the
    degeneracy band |E| <= DEGENERACY_BAND * r1 * r2."""
    return abs(e) <= DEGENERACY_BAND * params.r1 * params.r2


def _aux_quartic(s2: float) -> float:
    """Quartic appearing in the s1 = 1/2 auxiliary discriminant."""
    return 1 + 8 * s2 + 8 * s2 ** 2 - 32 * s2 ** 3 + 16 * s2 ** 4


@dataclass(frozen=True)
class SingularityReport:
    point_id: str             # NN | NS | SN | SS
    kind: str                 # elliptic-elliptic | focus-focus | degenerate
    e_value: float
    d_sign: int               # sign of the discriminant branch actually used
    rank: int = 0


def classify_fixed_points(params: ModelParams) -> list[SingularityReport]:
    """Reports for the four rank-0 fixed points, in order NN, NS, SN, SS.

    For s1 != 1/2 the sign of the quartic discriminant reduces to the sign
    of E (its remaining factors are strictly positive); at s1 = 1/2 that
    discriminant vanishes and the auxiliary quartic takes over, with
    opposite signs for the NN/SS and NS/SN pairs.
    """
    e = discriminant_E(params)
    s1 = params.s1
    reports = []
    for pid in POINT_IDS:
        if pid in ("NN", "SS"):
            d_sign = int(np.sign(_aux_quartic(params.s2))) if s1 == 0.5 else 1
            kind = "elliptic-elliptic"
        else:
            if s1 == 0.5:
                d_sign = int(np.sign(-_aux_quartic(params.s2)))
            else:
                d_sign = 0 if is_degenerate(e, params) else int(np.sign(e))
            if is_degenerate(e, params):
                kind = "degenerate"
            elif e < 0:
                kind = "focus-focus"
            else:
                kind = "elliptic-elliptic"
        reports.append(SingularityReport(pid, kind, e, d_sign))
    return reports


def n_ff(params: ModelParams) -> int:
    """Number of focus-focus points: 0 if E > 0, 2 if E < 0."""
    e = discriminant_E(params)
    if is_degenerate(e, params):
        raise DegenerateSystemError(
            f"E = {e:.3e} inside the degeneracy band; system is not semitoric")
    return 2 if e < 0 else 0


def rank1_margin(z1, l, params: ModelParams):
    """Right-hand side of the rank-1 non-degeneracy criterion.

    The left-hand side vanishes for this family, so rank-1 singularities are
    non-degenerate elliptic-regular exactly when the returned value is
    negative.  ``l`` is the unscaled L-level; z2 is induced by the level
    constraint.

    ``z1`` and ``l`` are floats, or arrays broadcast together.  On arrays
    ``**`` runs through ``numerics.LibmArray``, so every value is
    bit-identical to the float call; a point that fails a check, or whose
    value is not finite (the float call may raise there), gets NaN.
    """
    r1, r2 = params.r1, params.r2
    floats = not (isinstance(z1, np.ndarray) or isinstance(l, np.ndarray))
    if not floats:
        z1, l = libm_array(z1), libm_array(l)
    in_z1 = (-1.0 < z1) & (z1 < 1.0)
    if floats and not in_z1:
        raise ValueError("z1 must lie in (-1, 1)")
    z2 = (l - r1 * z1) / r2
    in_z2 = (-1.0 < z2) & (z2 < 1.0)
    if floats and not in_z2:
        raise ValueError("induced z2 lies outside (-1, 1)")
    a = 1.0 - z1 * z1
    b = 1.0 - z2 * z2
    bad_ab = a * b <= 0.0
    if floats and bad_ab:
        raise ValueError("B(z1) must be positive")
    if not floats:
        # A negative float to the power 1.5 is complex: NaN those first.
        a = libm_array(np.where(in_z1, a, np.nan))
        b = libm_array(np.where(in_z2, b, np.nan))
    num = r1 ** 2 * a ** 2 + 2 * z1 * z2 * r1 * r2 * a * b + r2 ** 2 * b ** 2
    value = -num / (r2 ** 2 * a ** 1.5 * b ** 1.5)
    if floats:
        return value
    return np.where(bad_ab | ~np.isfinite(value), np.nan, value)


@dataclass(frozen=True)
class SemitoricVerdict:
    is_semitoric: bool
    n_ff: int
    degenerate: bool
    rank1_margin_min: float  # most pessimistic (largest) margin over the grid


# Grid margin away from the strip boundary where the criterion's
# denominator vanishes.
_STRIP_MARGIN = 1e-6


def check_semitoric(params: ModelParams, grid_n: int = 50) -> SemitoricVerdict:
    """Aggregate verdict: n_ff, degeneracy, and a rank-1 criterion sweep.

    The sweep covers grid_n values of z1 and, for each, grid_n levels l
    across the strip, in one array call of ``rank1_margin``; the verdict is
    bit-identical to a loop of float calls over the grid.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    try:
        nff = n_ff(params)
        degenerate = False
    except DegenerateSystemError:
        nff = 0
        degenerate = True
    r1, r2 = params.r1, params.r2
    z1 = np.linspace(-1 + _STRIP_MARGIN, 1 - _STRIP_MARGIN, grid_n)
    l_lo = r1 * z1 - r2 * (1 - _STRIP_MARGIN)
    l_hi = r1 * z1 + r2 * (1 - _STRIP_MARGIN)
    z1 = z1[:, None]
    ls = np.linspace(l_lo, l_hi, grid_n, axis=1)  # row i: the levels at z1[i]
    with np.errstate(all="ignore"):
        margin = rank1_margin(z1, ls, params)
    # NaN cells take the float call's value; the first one that raises, in
    # row order, raises as a loop over the grid would.
    for i, j in np.argwhere(np.isnan(margin)):
        margin[i, j] = rank1_margin(float(z1[i, 0]), float(ls[i, j]), params)
    # The largest margin, NaN skipped, first of equals: max() in row order.
    margin = np.where(np.isnan(margin), -np.inf, margin).ravel()
    worst = float(margin[np.argmax(margin)])
    return SemitoricVerdict(
        is_semitoric=not degenerate,
        n_ff=nff,
        degenerate=degenerate,
        rank1_margin_min=worst,
    )
