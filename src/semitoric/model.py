"""Phase space S2 x S2, system parameters and the momentum map (L, H) of
the coupled-spin family.

A phase point is held in Cartesian coordinates and must lie on both unit
spheres; L and H are evaluated on its ambient 6-vector.  The package
computes invariants from these; the checks of the model's conventions (the
Poisson bracket and its sign, the 2pi-periodic circle action of L and the
discrete symmetries) are written in the test suite, ``tests/conftest.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERE_TOL = 1e-9  # input validation tolerance for |n_i| = 1
CASE_III_BAND = 1e-12  # |s1 - 1/2| or |s2 - R/(R+1)| this small is on a line


@dataclass(frozen=True)
class ModelParams:
    """System parameters: sphere weights r1, r2 and couplings s1, s2."""

    r1: float
    r2: float
    s1: float
    s2: float

    def __post_init__(self):
        _check_radii(self.r1, self.r2)
        if not (0.0 <= self.s1 <= 1.0 and 0.0 <= self.s2 <= 1.0):
            raise ValueError("s1 and s2 must lie in [0, 1]")

    @property
    def R(self) -> float:
        """Radius ratio r2/r1."""
        return self.r2 / self.r1

    @property
    def coupling(self) -> float:
        """Combined coupling s1 + s2 - s1^2 - s2^2 (half of t3)."""
        return self.s1 + self.s2 - self.s1 ** 2 - self.s2 ** 2


def _check_radii(r1, r2):
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError("r1 and r2 must be finite")
    if r1 <= 0 or r2 <= 0:
        raise ValueError("r1 and r2 must be positive")
    if r1 == r2:
        raise ValueError("r1 == r2 (non-simple case) is excluded")
    # The formulas square r1, r2 and R in both frames (see ns_frame).
    for x in (r1, r2, r2 / r1, r1 / r2):
        if not 0.0 < x * x < math.inf:
            raise ValueError(f"r1 = {r1!r} and r2 = {r2!r} are out of range: "
                             f"r1^2, r2^2 and (r2/r1)^(+-2) must be finite "
                             f"and nonzero")


@dataclass(frozen=True)
class ParamGrid:
    """System parameters on an (s1, s2) grid, for the array closed forms.

    One pair of radii; ``s1`` is held as an (n1, 1) column and ``s2`` as a
    (1, n2) row of float64.  Formulas written for ModelParams then
    broadcast to the n1 x n2 grid, with cell (i, j) at (s1[i], s2[j]),
    evaluate every single-variable term once per axis value, and give the
    same bits in each cell as on the ModelParams of that cell, since they
    keep to the elementwise rule of ``height`` (powers as products, NumPy's
    functions on floats and grids).  The radii and the axis values are
    validated once, with ModelParams' messages.
    """

    r1: float
    r2: float
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        _check_radii(self.r1, self.r2)
        s1 = np.asarray(self.s1, dtype=float).reshape(-1, 1)
        s2 = np.asarray(self.s2, dtype=float).reshape(1, -1)
        if not all(((0.0 <= s) & (s <= 1.0)).all() for s in (s1, s2)):
            raise ValueError("s1 and s2 must lie in [0, 1]")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    @property
    def R(self) -> float:
        """Radius ratio r2/r1."""
        return self.r2 / self.r1


def ns_frame(params):
    """Parameters with R > 1, via the sphere-swap symmetry when needed.

    The swap is a semitoric isomorphism, so the height multiset is
    unchanged; label attribution for R < 1 follows the swapped frame.
    Takes and returns a ModelParams or a ParamGrid.
    """
    if params.R > 1.0:
        return params
    return type(params)(params.r2, params.r1, params.s1, 1.0 - params.s2)


@dataclass(frozen=True)
class PhasePoint:
    """Point of S2 x S2 in Cartesian coordinates."""

    x1: float
    y1: float
    z1: float
    x2: float
    y2: float
    z2: float

    def __post_init__(self):
        for n in (self.sphere1, self.sphere2):
            if not abs(float(n @ n) - 1.0) <= SPHERE_TOL:
                raise ValueError(f"point off the unit sphere: |n|^2 = {n @ n}")

    @property
    def sphere1(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.z1])

    @property
    def sphere2(self) -> np.ndarray:
        return np.array([self.x2, self.y2, self.z2])

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.z1, self.x2, self.y2, self.z2])

    @classmethod
    def from_array(cls, v) -> "PhasePoint":
        return cls(*(float(x) for x in v))


FIXED_POINTS = {
    "NN": PhasePoint(0.0, 0.0, 1.0, 0.0, 0.0, 1.0),
    "NS": PhasePoint(0.0, 0.0, 1.0, 0.0, 0.0, -1.0),
    "SN": PhasePoint(0.0, 0.0, -1.0, 0.0, 0.0, 1.0),
    "SS": PhasePoint(0.0, 0.0, -1.0, 0.0, 0.0, -1.0),
}


@dataclass(frozen=True)
class MomentumValue:
    l_val: float
    h_val: float


def l_func(v, params: ModelParams) -> float:
    """First integral L = r1 z1 + r2 z2 on an ambient 6-vector."""
    return params.r1 * v[2] + params.r2 * v[5]


def h_func(v, params: ModelParams) -> float:
    """Second integral H on an ambient 6-vector."""
    s1, s2 = params.s1, params.s2
    return ((1 - 2 * s1) * (1 - s2) * v[2] + (1 - 2 * s1) * s2 * v[5]
            + 2 * (s1 + s2 - s1 ** 2 - s2 ** 2) * (v[0] * v[3] + v[1] * v[4]))


def momentum_map(p: PhasePoint, params: ModelParams) -> MomentumValue:
    """Momentum-map value (L, H) at a phase point."""
    v = (p.x1, p.y1, p.z1, p.x2, p.y2, p.z2)
    return MomentumValue(l_func(v, params), h_func(v, params))
