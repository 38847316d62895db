"""Phase space S2 x S2, system parameters, momentum map, Poisson brackets
and the discrete symmetries of the coupled-spin family.

Conventions: the symplectic form is minus the weighted sum of the standard
area forms, with weights r1 and r2.  In cylindrical coordinates per sphere
this reads -(r1 dtheta1 ^ dz1 + r2 dtheta2 ^ dz2), which fixes the Poisson
bracket used throughout:

    {f, g} = -sum_i (1/r_i) n_i . (grad_i f x grad_i g),

where n_i is the position vector on sphere i and grad_i the ambient
gradient.  With this sign the flow of L is 2pi-periodic (verified in the
test suite, not assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERE_TOL = 1e-9  # input validation tolerance for |n_i| = 1
FD_STEP = 1e-6     # central-difference step for default gradients
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
    keep to the elementwise rule of ``height`` (powers as products, log and
    atan2 through NumPy).  The radii and the axis values are validated once,
    with ModelParams' messages.
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
            if abs(float(n @ n) - 1.0) > SPHERE_TOL:
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

    @classmethod
    def from_cylindrical(cls, theta1, z1, theta2, z2) -> "PhasePoint":
        rho1 = math.sqrt(max(0.0, 1.0 - z1 * z1))
        rho2 = math.sqrt(max(0.0, 1.0 - z2 * z2))
        return cls(rho1 * math.cos(theta1), rho1 * math.sin(theta1), z1,
                   rho2 * math.cos(theta2), rho2 * math.sin(theta2), z2)


NORTH_NORTH = PhasePoint(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
NORTH_SOUTH = PhasePoint(0.0, 0.0, 1.0, 0.0, 0.0, -1.0)
SOUTH_NORTH = PhasePoint(0.0, 0.0, -1.0, 0.0, 0.0, 1.0)
SOUTH_SOUTH = PhasePoint(0.0, 0.0, -1.0, 0.0, 0.0, -1.0)

FIXED_POINTS = {
    "NN": NORTH_NORTH,
    "NS": NORTH_SOUTH,
    "SN": SOUTH_NORTH,
    "SS": SOUTH_SOUTH,
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


def l_grad(v, params: ModelParams) -> np.ndarray:
    return np.array([0.0, 0.0, params.r1, 0.0, 0.0, params.r2])


def h_grad(v, params: ModelParams) -> np.ndarray:
    s1, s2 = params.s1, params.s2
    c = 2 * (s1 + s2 - s1 ** 2 - s2 ** 2)
    return np.array([
        c * v[3], c * v[4], (1 - 2 * s1) * (1 - s2),
        c * v[0], c * v[1], (1 - 2 * s1) * s2,
    ])


def momentum_map(p: PhasePoint, params: ModelParams) -> MomentumValue:
    """Momentum-map value (L, H) at a phase point."""
    v = (p.x1, p.y1, p.z1, p.x2, p.y2, p.z2)
    return MomentumValue(l_func(v, params), h_func(v, params))


def fd_gradient(f, v, params: ModelParams, step=FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of an observable on R^6."""
    g = np.empty(6)
    for i in range(6):
        vp, vm = v.copy(), v.copy()
        vp[i] += step
        vm[i] -= step
        g[i] = (f(vp, params) - f(vm, params)) / (2 * step)
    return g


def poisson_bracket(f, g, p: PhasePoint, params: ModelParams,
                    grad_f=None, grad_g=None) -> float:
    """Poisson bracket {f, g} at ``p``.

    ``f`` and ``g`` are observables evaluated as ``f(v, params)`` on ambient
    6-vectors.  Gradients default to central finite differences; pass
    ``grad_f`` / ``grad_g`` for the analytic fast path.
    """
    v = p.as_array()
    gf = grad_f(v, params) if grad_f else fd_gradient(f, v, params)
    gg = grad_g(v, params) if grad_g else fd_gradient(g, v, params)
    n1, n2 = v[:3], v[3:]
    return (-(1.0 / params.r1) * float(n1 @ np.cross(gf[:3], gg[:3]))
            - (1.0 / params.r2) * float(n2 @ np.cross(gf[3:], gg[3:])))


def hamiltonian_vector_field(v, params: ModelParams, grad) -> np.ndarray:
    """Bracket-derived vector field of an observable with gradient ``grad``."""
    g = grad(v, params)
    n1, n2 = v[:3], v[3:]
    out = np.empty(6)
    out[:3] = -(1.0 / params.r1) * np.cross(g[:3], n1)
    out[3:] = -(1.0 / params.r2) * np.cross(g[3:], n2)
    return out


def flow(p: PhasePoint, params: ModelParams, grad, t, n_steps=512) -> PhasePoint:
    """RK4 integration of the Hamiltonian flow of an observable.

    Renormalizes to the spheres after every step; this is the only place in
    the library where renormalization is allowed.
    """
    v = p.as_array()
    h = t / n_steps

    def rhs(u):
        return hamiltonian_vector_field(u, params, grad)

    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v[:3] /= np.linalg.norm(v[:3])
        v[3:] /= np.linalg.norm(v[3:])
    return PhasePoint.from_array(v)


def l_flow(p: PhasePoint, params: ModelParams, t, n_steps=512) -> PhasePoint:
    """Flow of L for time ``t``; 2pi-periodic circle action."""
    return flow(p, params, l_grad, t, n_steps)


def apply_symmetry(i: int, p: PhasePoint, params: ModelParams):
    """Discrete symmetry i in 1..5; returns the transformed point and params.

    Pullback identities: (L, H) is preserved for i in {1, 3, 5}, L flips sign
    for i = 2 and H flips sign for i = 4.  Symmetry 5 is defined only at
    s1 = 1/2, up to ``CASE_III_BAND`` (the rule of ``height.case_id``).
    """
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


def random_phase_point(rng) -> PhasePoint:
    """Uniform random point of S2 x S2 (for sampling-based verification)."""
    v = rng.standard_normal(6)
    v[:3] /= np.linalg.norm(v[:3])
    v[3:] /= np.linalg.norm(v[3:])
    return PhasePoint.from_array(v)
