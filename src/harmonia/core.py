"""Mass and configuration arithmetic, potentials, and scalar invariants.

All quantities are nondimensional. The canonical moment of inertia is the
mutual-distance form I = (1/M) sum_{i<j} m_i m_j r_ij^2, which is invariant
under translation and rotation of the configuration.

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_bodies(ok: np.ndarray, field: str, reason: str) -> None:
    """Raise ValidationError on ``field[i]`` at the first body i that fails ``ok``, which
    holds a flag per mass (n,) or coordinate (n, 2), or per coordinate of an (S, n, 2)
    stack, whose first failing configuration is searched."""
    if not ok.all():
        i = np.argwhere(~(ok if ok.ndim == 1 else ok.all(axis=-1)))[0, -1]
        raise ValidationError(f"{field}[{i}]", reason)


def rotation(angle) -> np.ndarray:
    """Counterclockwise rotation matrix for ``angle`` radians, (..., 2, 2) for angles (...)."""
    c = np.cos(angle)
    s = np.sin(angle)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


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
        _require_bodies(np.isfinite(m), "m", "mass must be finite")
        _require_bodies(m > 0.0, "m", "mass must be positive")
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
        _require_bodies(np.isfinite(q), "q", "coordinates must be finite")
        object.__setattr__(self, "q", _frozen(q))

    @property
    def n(self) -> int:
        return int(self.q.shape[0])


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
        _require_bodies(np.isfinite(v), "v", "velocity must be finite")
        if not np.isfinite(self.t):
            raise ValidationError("t", "time must be finite")
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "t", float(self.t))


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
    """Symmetric pair-distance table r_ij = |q_i - q_j| with zero diagonal."""

    r: np.ndarray


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
    """Dense n x n table of pair distances |q_i - q_j|, (..., n, n) for ``q`` (..., n, 2)."""
    x = q[..., 0]
    y = q[..., 1]
    dx = x[..., None] - x[..., None, :]
    dy = y[..., None] - y[..., None, :]
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
    """``_pair_offsets`` of one configuration or a stack, checked for collisions.

    Raises CollisionSingularity when a singular potential sees a separation
    below COLLISION_EPS. It names the first such configuration of a stack
    and, in it, the first closest pair in row-major order, as a call per
    configuration in stack order would.
    """
    i, j, dx, dy, r = _pair_offsets(q)
    # argmin finds the closest pair of all, or the first NaN; a NaN hides the pairs
    # of its own configuration only, as in a call per configuration
    if potential.singular and not r.item(r.argmin()) >= COLLISION_EPS:
        rows = r.reshape(-1, r.shape[-1])
        hit = np.flatnonzero(rows.min(axis=-1) < COLLISION_EPS)
        if hit.size:
            row = rows[hit[0]]
            k = int(row.argmin())
            raise CollisionSingularity(
                f"bodies {i[k] + 1} and {j[k] + 1} separated by {float(row[k]):.3e}")
    return i, j, dx, dy, r


def _cm_offsets(q: np.ndarray, mass: np.ndarray):
    """Center of mass q_cm (..., 2) and offsets q - q_cm of ``q`` (..., n, 2), where
    ``q`` is one configuration (or set of velocities) or a stack of them."""
    q_cm = (mass @ q) / float(mass.sum())
    return q_cm, q - q_cm[..., None, :]


def _mass_weighted_offsets(q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """m_i (q_i - q_cm), shared by the harmonic and inertia gradients."""
    return mass[:, None] * _cm_offsets(q, mass)[1]


def mutual_distances(config) -> MutualDistanceTable:
    """Euclidean pair distances r_ij = |q_i - q_j|.

    Raises ValidationError on ``r`` when a distance overflows (positions
    too far out for doubles).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = _distance_matrix(as_configuration(config).q)
    if not np.all(np.isfinite(r)):
        raise ValidationError("r", "distances must be finite")
    return MutualDistanceTable(_frozen(r))


def moment_of_inertia(config, m) -> float:
    """Canonical moment of inertia (1/M) sum_{i<j} m_i m_j r_ij^2.

    Depends only on the mutual distances, so it is invariant under any
    rigid motion of the configuration.
    """
    config, m = _bodies(config, m)
    return _inertia(config.q, m.m)


def _per_configuration(values: np.ndarray, q: np.ndarray):
    """A float for one (n, 2) configuration ``q``, the (...) array of a stack's rows."""
    return float(values) if q.ndim == 2 else values


# The sums below reduce the trailing, contiguous axes of each configuration's
# terms, which numpy sums exactly as it sums those terms of one configuration
# alone, so a stacked row rounds as its one-configuration call does.

def _inertia(q: np.ndarray, mass: np.ndarray):
    """I of one configuration (a float) or of each row of an (..., n, 2) stack."""
    r = _distance_matrix(q)
    w = mass[:, None] * mass[None, :]
    return _per_configuration((w * r * r).sum(axis=(-2, -1)) / (2.0 * float(mass.sum())), q)


def potential_energy(potential: PotentialSpec, config, m) -> float:
    """Potential energy of the configuration under the selected potential."""
    config, m = _bodies(config, m)
    return _potential(potential, config.q, m.m)


def _potential(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray):
    """U of one configuration (a float) or of each row of an (..., n, 2) stack."""
    if potential.kind == HARMONIC:
        return 0.5 * float(mass.sum()) * _inertia(q, mass)
    i, j, _, _, r = _pair_separations(potential, q)
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        return _per_configuration(-(w / r).sum(axis=-1), q)
    # r ** alpha is 0 at a coincident pair when alpha > 0
    return potential.coupling * _per_configuration((w * r ** potential.exponent).sum(axis=-1), q)


def _pair_coefficients(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray):
    """i, j, dx, dy of ``_pair_separations``, the distances rr, the exponent alpha and the
    coefficient c = a alpha m_i m_j rr^(alpha - 2) (alpha = -1, a = 1 Newtonian) of the
    pairs i < j: each adds c (q_i - q_j) to grad U at body i and takes it from body j."""
    i, j, dx, dy, r = _pair_separations(potential, q)
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        return i, j, dx, dy, r, -1.0, w / (r * r * r)
    # coincident pairs exert no force under nonsingular kinds (pass-through):
    # dx = dy = 0 there, so r = 1 in place of r = 0 keeps the product finite
    alpha = potential.exponent
    rr = r + (r == 0.0)
    return i, j, dx, dy, rr, alpha, (potential.coupling * alpha) * w * rr ** (alpha - 2.0)


def _gradient_rows(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    if potential.kind == HARMONIC:
        return float(mass.sum()) * _mass_weighted_offsets(q, mass)
    i, j, dx, dy, _, _, coef = _pair_coefficients(potential, q, mass)
    n = q.shape[0]
    fx = coef * dx
    fy = coef * dy
    grad = np.empty((n, 2))
    np.subtract(np.bincount(i, fx, n), np.bincount(j, fx, n), out=grad[:, 0])
    np.subtract(np.bincount(i, fy, n), np.bincount(j, fy, n), out=grad[:, 1])
    return grad


def _centering_hessian(mass: np.ndarray) -> np.ndarray:
    """(diag m - m m^T / M) kron I_2: the Hessian of I is twice this, of harmonic U M times."""
    block = np.diag(mass) - np.outer(mass, mass) / float(mass.sum())
    return np.kron(block, np.eye(2))


def _hessian_rows(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Exact Hessian of the potential, shape (2n, 2n), coordinate 2i + c for body i.

    Each pair i < j adds the 2x2 block B = c I_2 + (c'/r) d d^T, with
    d = q_i - q_j and c(r) the coefficient of ``_pair_coefficients``, to the
    diagonal blocks (i, i) and (j, j), and -B to (i, j) and (j, i).
    """
    if potential.kind == HARMONIC:
        return float(mass.sum()) * _centering_hessian(mass)
    # d d^T = 0 at a coincident pair, where rr = 1 passes it through
    i, j, dx, dy, rr, alpha, c = _pair_coefficients(potential, q, mass)
    c_over_r = (alpha - 2.0) * c / (rr * rr)
    outer = np.stack([dx * dx, dx * dy, dx * dy, dy * dy], axis=-1).reshape(-1, 2, 2)  # d d^T
    block = c[:, None, None] * np.eye(2) + c_over_r[:, None, None] * outer
    n = q.shape[0]
    hess = np.zeros((n, n, 2, 2))
    hess[i, j] = hess[j, i] = -block
    # every block row sums to zero, since U does not change under translation
    hess[np.arange(n), np.arange(n)] = -hess.sum(axis=1)
    return hess.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


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


def total_energy(potential: PotentialSpec, state: PhaseState, m) -> float:
    """Kinetic plus potential energy, H = (1/2) sum_i m_i |v_i|^2 + U."""
    config, m = _bodies(state.config, m)
    return 0.5 * float(m.m @ (state.v * state.v).sum(axis=1)) \
        + potential_energy(potential, config, m)
