"""Mass and configuration arithmetic, potentials, and scalar invariants.

All quantities are nondimensional. The canonical moment of inertia is the
mutual-distance form I = (1/M) sum_{i<j} m_i m_j r_ij^2, which is invariant
under translation and rotation of the configuration; the Cartesian form
sum_i m_i |q_i|^2 is exposed separately and agrees with the canonical one
exactly when the center of mass sits at the origin (parallel-axis identity
I_cartesian = I + M |q_cm|^2).

The harmonic potential is U = (M/2) I, so grad U = (M/2) grad I holds at
every configuration; Newtonian and power-law potentials are provided for
contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CollisionSingularity, ValidationError

HARMONIC = "harmonic"
NEWTONIAN = "newtonian"
POWER = "power"
POTENTIAL_KINDS = (HARMONIC, NEWTONIAN, POWER)

# Pair separations below this count as collisions for singular potentials.
COLLISION_EPS = 1e-12

# Relative slack of the triangle-inequality check on hand-built tables,
# scaled by the table's largest entry (at least 1).
_TRIANGLE_SLACK = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def rotation(angle: float) -> np.ndarray:
    """Counterclockwise rotation matrix for ``angle`` radians."""
    c = float(np.cos(angle))
    s = float(np.sin(angle))
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MassVector:
    """Finite, strictly positive masses for at least two bodies."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.ndim != 1:
            raise ValidationError("m", "expected a flat sequence of masses")
        if m.size < 2:
            raise ValidationError("m", "need at least two bodies")
        if not np.all(np.isfinite(m)):
            i = int(np.flatnonzero(~np.isfinite(m))[0])
            raise ValidationError(f"m[{i}]", "mass must be finite")
        if np.any(m <= 0.0):
            i = int(np.flatnonzero(m <= 0.0)[0])
            raise ValidationError(f"m[{i}]", "mass must be positive")
        object.__setattr__(self, "m", _frozen(m))

    @property
    def n(self) -> int:
        return int(self.m.size)

    @property
    def total(self) -> float:
        return float(self.m.sum())


@dataclass(frozen=True)
class PlanarConfiguration:
    """Positions of n bodies in the plane, one (x, y) row per body."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValidationError("q", "expected an (n, 2) array of positions")
        if q.shape[0] < 1:
            raise ValidationError("q", "need at least one body")
        if not np.all(np.isfinite(q)):
            i = int(np.flatnonzero(~np.isfinite(q).all(axis=1))[0])
            raise ValidationError(f"q[{i}]", "coordinates must be finite")
        object.__setattr__(self, "q", _frozen(q))

    @property
    def n(self) -> int:
        return int(self.q.shape[0])

    def translated(self, offset) -> "PlanarConfiguration":
        return PlanarConfiguration(self.q + np.asarray(offset, dtype=float))

    def rotated(self, angle: float) -> "PlanarConfiguration":
        return PlanarConfiguration(self.q @ rotation(angle).T)


@dataclass(frozen=True)
class PhaseState:
    """Positions plus velocities of all bodies at a single time."""

    config: PlanarConfiguration
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        config = as_configuration(self.config)
        object.__setattr__(self, "config", config)
        v = np.array(self.v, dtype=float)
        if v.shape != config.q.shape:
            raise ValidationError("v", "velocities must match positions in shape")
        if not np.all(np.isfinite(v)):
            i = int(np.flatnonzero(~np.isfinite(v).all(axis=1))[0])
            raise ValidationError(f"v[{i}]", "velocity must be finite")
        if not np.isfinite(self.t):
            raise ValidationError("t", "time must be finite")
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.config.n


@dataclass(frozen=True)
class PotentialSpec:
    """Selects the pair potential: harmonic, newtonian, or power law.

    harmonic   U = (M/2) I = (1/2) sum_{i<j} m_i m_j r_ij^2
    newtonian  U = -sum_{i<j} m_i m_j / r_ij
    power      U = a sum_{i<j} m_i m_j r_ij^alpha  (alpha != 0, a > 0)
    """

    kind: str
    exponent: float | None = None
    coupling: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POTENTIAL_KINDS:
            raise ValidationError("kind", f"unknown potential {self.kind!r}")
        if self.kind == POWER:
            if self.exponent is None or not np.isfinite(self.exponent) or self.exponent == 0.0:
                raise ValidationError("exponent", "power law needs a finite nonzero exponent")
            if self.coupling is None or not np.isfinite(self.coupling) or self.coupling <= 0.0:
                raise ValidationError("coupling", "power law needs a positive coupling")
            object.__setattr__(self, "exponent", float(self.exponent))
            object.__setattr__(self, "coupling", float(self.coupling))
        else:
            if self.exponent is not None or self.coupling is not None:
                raise ValidationError("kind", f"{self.kind} takes no parameters")

    @classmethod
    def harmonic(cls) -> "PotentialSpec":
        return cls(HARMONIC)

    @classmethod
    def newtonian(cls) -> "PotentialSpec":
        return cls(NEWTONIAN)

    @classmethod
    def power(cls, exponent: float, coupling: float) -> "PotentialSpec":
        return cls(POWER, exponent, coupling)

    @property
    def singular(self) -> bool:
        """True when the potential diverges at zero pair separation."""
        return self.kind == NEWTONIAN or (self.kind == POWER and self.exponent < 0.0)


@dataclass(frozen=True)
class MutualDistanceTable:
    """Symmetric pair-distance table with zero diagonal.

    A table built by hand must also satisfy r_ij <= r_ik + r_kj for every
    triple, within a slack of 1e-12 times max(1, largest entry). Tables
    that ``mutual_distances`` derives from positions satisfy it by
    geometry and skip that O(n^3) check.
    """

    r: np.ndarray

    def __post_init__(self) -> None:
        r = _checked_table(self.r)
        slack = _TRIANGLE_SLACK * max(1.0, float(r.max(initial=0.0)))
        # r_ij <= r_ik + r_kj, one middle index k at a time to keep memory O(n^2)
        for k in range(r.shape[0]):
            if not np.all(r <= r[:, k, None] + r[None, k, :] + slack):
                raise ValidationError("r", "triangle inequality violated")
        object.__setattr__(self, "r", _frozen(r))

    @classmethod
    def _derived(cls, r: np.ndarray) -> "MutualDistanceTable":
        """Table computed from positions: every check but the triangle inequality."""
        table = object.__new__(cls)
        object.__setattr__(table, "r", _frozen(_checked_table(r)))
        return table

    @property
    def n(self) -> int:
        return int(self.r.shape[0])


def _checked_table(r) -> np.ndarray:
    r = np.array(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValidationError("r", "expected a square table")
    if not np.all(np.isfinite(r)):
        raise ValidationError("r", "distances must be finite")
    if np.any(r < 0.0):
        raise ValidationError("r", "distances must be nonnegative")
    if np.any(np.diag(r) != 0.0):
        raise ValidationError("r", "diagonal must be zero")
    if not np.array_equal(r, r.T):
        raise ValidationError("r", "table must be symmetric")
    return r


def as_mass_vector(m) -> MassVector:
    return m if isinstance(m, MassVector) else MassVector(np.asarray(m, dtype=float))


def as_configuration(q) -> PlanarConfiguration:
    return q if isinstance(q, PlanarConfiguration) else PlanarConfiguration(np.asarray(q, dtype=float))


def _bodies(config, m) -> tuple[PlanarConfiguration, MassVector]:
    """Coerce a configuration and its masses, which must count the same bodies."""
    config = as_configuration(config)
    m = as_mass_vector(m)
    if config.n != m.n:
        raise ValidationError(
            "q", f"configuration has {config.n} bodies but masses have {m.n}")
    return config, m


def _distance_matrix(q: np.ndarray) -> np.ndarray:
    """Dense n x n table of pair distances |q_i - q_j|."""
    x = q[:, 0]
    y = q[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return np.sqrt(dx * dx + dy * dy)


@lru_cache(maxsize=8)
def _pair_indices(n: int):
    """Row-major (i, j) index arrays of the pairs i < j, shared across calls."""
    return tuple(_frozen(a) for a in np.triu_indices(n, 1))


def _pair_offsets(q: np.ndarray):
    """One pass over the pairs i < j: indices, x and y offsets q_i - q_j, and r_ij.

    ``q`` holds positions of shape (..., n, 2), one configuration or a
    stack of them; the offsets and distances have shape (..., P), with the
    P pairs in the row-major order of ``_pair_indices``.
    """
    i, j = _pair_indices(q.shape[-2])
    d = q.take(i, axis=-2) - q.take(j, axis=-2)
    dx = d[..., 0]
    dy = d[..., 1]
    return i, j, dx, dy, np.sqrt(dx * dx + dy * dy)


def _pair_separations(potential: PotentialSpec, q: np.ndarray):
    """``_pair_offsets`` of one configuration, checked for collisions.

    Raises CollisionSingularity, naming the first closest pair in row-major
    order, when a singular potential sees a separation below COLLISION_EPS.
    """
    i, j, dx, dy, r = _pair_offsets(q)
    if potential.singular:
        k = int(r.argmin())
        if r[k] < COLLISION_EPS:
            raise CollisionSingularity(
                f"bodies {i[k] + 1} and {j[k] + 1} separated by {float(r[k]):.3e}")
    return i, j, dx, dy, r


def _mass_weighted_offsets(q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """m_i (q_i - q_cm), shared by the harmonic and inertia gradients."""
    total = float(mass.sum())
    qcm = (mass @ q) / total
    return mass[:, None] * (q - qcm)


def total_mass(m) -> float:
    """Sum of the body masses."""
    return as_mass_vector(m).total


def center_of_mass(config, m) -> np.ndarray:
    """Mass-weighted mean position, shape (2,)."""
    config, m = _bodies(config, m)
    return (m.m @ config.q) / m.total


def mutual_distances(config) -> MutualDistanceTable:
    """Euclidean pair distances r_ij = |q_i - q_j|.

    The table comes from positions, so the triangle inequality holds by
    geometry and is not checked again.
    """
    config = as_configuration(config)
    return MutualDistanceTable._derived(_distance_matrix(config.q))


def moment_of_inertia(config, m) -> float:
    """Canonical moment of inertia (1/M) sum_{i<j} m_i m_j r_ij^2.

    Depends only on the mutual distances, so it is invariant under any
    rigid motion of the configuration.
    """
    config, m = _bodies(config, m)
    return _inertia(config.q, m.m)


def _inertia(q: np.ndarray, mass: np.ndarray) -> float:
    r = _distance_matrix(q)
    w = mass[:, None] * mass[None, :]
    return float((w * r * r).sum() / (2.0 * float(mass.sum())))


def moment_of_inertia_cartesian(config, m) -> float:
    """Origin-anchored moment of inertia sum_i m_i |q_i|^2.

    Equals the canonical form plus M |q_cm|^2, so the two agree exactly
    in the center-of-mass frame.
    """
    config, m = _bodies(config, m)
    return float(m.m @ (config.q * config.q).sum(axis=1))


def potential_energy(potential: PotentialSpec, config, m) -> float:
    """Potential energy of the configuration under the selected potential."""
    config, m = _bodies(config, m)
    return _potential(potential, config.q, m.m)


def _potential(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray) -> float:
    if potential.kind == HARMONIC:
        return 0.5 * float(mass.sum()) * _inertia(q, mass)
    i, j, _, _, r = _pair_separations(potential, q)
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        return -float((w / r).sum())
    # r ** alpha is 0 at a coincident pair when alpha > 0
    return potential.coupling * float((w * r ** potential.exponent).sum())


def _gradient_rows(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    if potential.kind == HARMONIC:
        return float(mass.sum()) * _mass_weighted_offsets(q, mass)
    i, j, dx, dy, r = _pair_separations(potential, q)
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        coef = w / (r * r * r)
    else:
        # coincident pairs exert no force under nonsingular kinds (pass-through):
        # dx = dy = 0 there, so r = 1 in place of r = 0 keeps the product finite
        coef = (potential.coupling * potential.exponent) * w \
            * (r + (r == 0.0)) ** (potential.exponent - 2.0)
    n = q.shape[0]
    fx = coef * dx
    fy = coef * dy
    grad = np.empty((n, 2))
    grad[:, 0] = np.bincount(i, fx, n) - np.bincount(j, fx, n)
    grad[:, 1] = np.bincount(i, fy, n) - np.bincount(j, fy, n)
    return grad


def potential_gradient(potential: PotentialSpec, config, m) -> np.ndarray:
    """Exact gradient of the potential energy, one (d/dx, d/dy) row per body.

    For the harmonic kind this is M m_i (q_i - q_cm).
    """
    config, m = _bodies(config, m)
    return _gradient_rows(potential, config.q, m.m)


def inertia_gradient(config, m) -> np.ndarray:
    """Exact gradient of the canonical moment of inertia: 2 m_i (q_i - q_cm)."""
    config, m = _bodies(config, m)
    return 2.0 * _mass_weighted_offsets(config.q, m.m)


def kinetic_energy(state: PhaseState, m) -> float:
    """(1/2) sum_i m_i |v_i|^2."""
    _, m = _bodies(state.config, m)
    return 0.5 * float(m.m @ (state.v * state.v).sum(axis=1))


def total_energy(potential: PotentialSpec, state: PhaseState, m) -> float:
    """Kinetic plus potential energy, H = T + U."""
    return kinetic_energy(state, m) + potential_energy(potential, state.config, m)
