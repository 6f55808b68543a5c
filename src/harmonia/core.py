"""Mass and configuration arithmetic, potentials, and scalar invariants.

All quantities are nondimensional. The canonical moment of inertia is the
mutual-distance form I = (1/M) sum_{i<j} m_i m_j r_ij^2, which is invariant
under translation and rotation of the configuration.

The harmonic potential is U = (M/2) I, so grad U = (M/2) grad I holds at
every configuration; Newtonian and power-law potentials are provided for
contrast.
"""

from __future__ import annotations

import math
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
# A relative collision threshold stays above 0, so that distances that all underflow collide.
_LEAST_SEPARATION = float(np.finfo(float).tiny)
# Dense n x n tables of more than this many rows are built in strips of this many rows
# (150 kB a strip at n = 300). Measured bare at n = 300: 32 and 48 rows ran within about
# 10% of 64, while 100 and 128 rows made ``_inertia`` about twice as slow.
_STRIP_ROWS = 64
# Index tuples that take an (..., n) array of coordinates or masses to the rows a and the
# columns b of an (..., a, b) table, here of all n bodies each.
_ROWS = (..., None)
_COLS = (..., None, slice(None))


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


def _number(value, field: str) -> float:
    """The one gate of every real parameter: ``value``, an int or float (numpy's too) but no
    bool, as a float, else ValidationError on ``field``. An int past the doubles is +/-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(field, "expected a number")
    try:
        return float(value)
    except OverflowError:  # the sign by comparison, as math.copysign would raise it too
        return math.inf if value > 0 else -math.inf


def _positive(value, field: str, reason: str) -> float:
    """``_number`` of a parameter that must be finite and positive, else ``reason``."""
    value = _number(value, field)
    if not 0.0 < value < math.inf:
        raise ValidationError(field, reason)
    return value


def _instance(value, kind: type, field: str):
    """The one gate of every argument of one of the package's types: ``value`` when it is
    a ``kind``, else ValidationError on ``field``. Only public calls pass through it."""
    if not isinstance(value, kind):
        name = kind.__name__
        raise ValidationError(field, f"expected {'an' if name[0] in 'AEIOU' else 'a'} {name}")
    return value


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
        t = _number(self.t, "t")
        if not math.isfinite(t):
            raise ValidationError("t", "time must be finite")
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "t", t)


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
            # a missing parameter fails its range rule, as NaN does
            exponent = math.nan if self.exponent is None else _number(self.exponent, "exponent")
            coupling = math.nan if self.coupling is None else _number(self.coupling, "coupling")
            if not math.isfinite(exponent) or exponent == 0.0:
                raise ValidationError("exponent", "power law needs a finite nonzero exponent")
            if not 0.0 < coupling < math.inf:
                raise ValidationError("coupling", "power law needs a positive coupling")
            object.__setattr__(self, "exponent", exponent)
            object.__setattr__(self, "coupling", coupling)
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


def _distance_rows(q: np.ndarray, rows=_ROWS, cols=_COLS) -> np.ndarray:
    """Distances |q_a - q_b| of the bodies a of ``rows`` to the bodies b of ``cols``,
    (..., a, b) for ``q`` (..., n, 2); by default the n x n table."""
    x = q[..., 0]
    y = q[..., 1]
    r = x[rows] - x[cols]  # dx, then r in the same buffer
    dy = y[rows] - y[cols]
    r *= r
    r += np.multiply(dy, dy, out=dy)
    return np.sqrt(r, out=r)


def _inertia_rows(q: np.ndarray, mass: np.ndarray, rows=_ROWS, cols=_COLS) -> np.ndarray:
    """Terms (m_a m_b r_ab) r_ab of the bodies a of ``rows`` and b of ``cols``, as
    ``_distance_rows``."""
    r = _distance_rows(q, rows, cols)
    terms = np.multiply(mass[rows], mass[cols], out=np.empty_like(r))  # w, then (w r) r
    terms *= r
    terms *= r
    return terms


def _symmetric_table(entries, q: np.ndarray, *args) -> np.ndarray:
    """The (..., n, n) table of ``entries(q, *args, rows, cols)`` for ``q`` (..., n, 2),
    whose entries (a, b) and (b, a) are equal bit for bit.

    A table of n <= _STRIP_ROWS is one call over all rows and columns. A larger one is
    built a strip of _STRIP_ROWS rows at a time, each strip from the diagonal rightwards:
    the strip is copied into the table, and its part right of its diagonal block is
    copied, transposed, below the diagonal. Both copies are exact, so the table holds
    the bytes of the one call, and at its peak one table and the strip's buffers.
    """
    n = q.shape[-2]
    if n <= _STRIP_ROWS:
        return entries(q, *args)
    table = np.empty(q.shape[:-1] + (n,))
    for s in range(0, n, _STRIP_ROWS):
        e = min(s + _STRIP_ROWS, n)
        strip = entries(q, *args, (..., slice(s, e), None), (..., None, slice(s, None)))
        table[..., s:e, s:] = strip
        table[..., e:, s:e] = strip[..., e - s:].swapaxes(-1, -2)
        del strip  # freed before the next strip is built
    return table


def _distance_matrix(q: np.ndarray) -> np.ndarray:
    """Dense n x n table of pair distances |q_i - q_j|, (..., n, n) for ``q`` (..., n, 2).

    The table is symmetric bit for bit: fl(x_b - x_a) = -fl(x_a - x_b) in IEEE
    arithmetic and squaring drops the sign, so r_ba rounds as r_ab does, and past
    _STRIP_ROWS bodies ``_symmetric_table`` computes only the upper triangle.
    """
    return _symmetric_table(_distance_rows, q)


@lru_cache(maxsize=8)
def _pair_indices(n: int):
    """Row-major (i, j) index arrays of the pairs i < j, shared across calls, so no caller
    may write them; they stay writeable, as take and bincount copy a read-only index."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=8)
def _scatter_pairs(n: int):
    """The (i, j) index arrays of the pairs i < j in anti-diagonal order, the row-major
    pairs sorted by i + j and then by i; shared and writeable as ``_pair_indices``, of
    which they are a copy. Each body meets its i-terms in ascending j and its j-terms in
    ascending i, as in row-major order, so a ``np.bincount`` over either order adds the
    same terms in the same order. Two neighbours within an anti-diagonal share no i and
    no j, so neither scatter waits on its previous add. Neighbours share one only among
    the first 3 and the last 5 pairs; the first 3, (0, 1), (0, 2), (0, 3) or (1, 2),
    follow each other in any order that keeps each body's terms in turn."""
    i, j = _pair_indices(n)
    order = np.lexsort((i, i + j))
    return i[order], j[order]


def _pair_offsets(q: np.ndarray, pairs=_pair_indices):
    """One pass over the pairs i < j: indices, x and y offsets q_i - q_j, and r_ij.

    ``q`` holds positions of shape (..., n, 2), one configuration or a
    stack of them; the offsets and distances have shape (..., P), with the
    P pairs in the order of ``pairs``: row-major, or the ``_scatter_pairs``
    of the gradient and the Hessian. The offsets are strided views of one
    (..., P, 2) buffer.
    """
    i, j = pairs(q.shape[-2])
    d = q.take(i, axis=-2)
    np.subtract(d, q.take(j, axis=-2), out=d)
    dx, dy = d[..., 0], d[..., 1]
    r = dx * dx
    r += dy * dy
    return i, j, dx, dy, np.sqrt(r, out=r)


def _pair_separations(potential: PotentialSpec, q: np.ndarray, relative: bool = False,
                      pairs=_pair_indices):
    """``_pair_offsets`` of one configuration or a stack, checked for collisions.

    Raises CollisionSingularity when a singular potential sees a separation
    below COLLISION_EPS or, if ``relative``, below COLLISION_EPS times the
    largest separation of its configuration, or at 0. It names the first such
    configuration of a stack and, in it, the closest pair that comes first in
    row-major order (the least i n + j of a tie), whatever the order of
    ``pairs``, as a call per configuration in stack order would. One argmin
    finds the closest pair of all, or the first NaN, which hides only its own
    configuration; the largest separation of a stack bounds each
    configuration's relative threshold.
    """
    i, j, dx, dy, r = _pair_offsets(q, pairs)
    if potential.singular and not r.item(r.argmin()) >= (
            max(COLLISION_EPS * r.max(), _LEAST_SEPARATION) if relative else COLLISION_EPS):
        rows = r.reshape(-1, r.shape[-1])
        eps = np.maximum(COLLISION_EPS * rows.max(axis=-1), _LEAST_SEPARATION) if relative \
            else COLLISION_EPS
        hit = np.flatnonzero(rows.min(axis=-1) < eps)
        if hit.size:
            row = rows[hit[0]]
            tied = np.flatnonzero(row == row.min())
            k = tied[(i[tied] * q.shape[-2] + j[tied]).argmin()]
            pair, separation = (int(i[k]) + 1, int(j[k]) + 1), float(row[k])
            raise CollisionSingularity(
                f"bodies {pair[0]} and {pair[1]} separated by {separation:.3e}", pair, separation)
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
    rigid motion of the configuration. Raises ValidationError on ``q`` when
    I overflows (positions too far out for doubles).
    """
    config, m = _bodies(config, m)
    return _finite_inertia(config.q, m.m)


def _finite_inertia(q: np.ndarray, mass: np.ndarray) -> float:
    """I of one configuration, else ValidationError on ``q`` when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        inertia = _inertia(q, mass)
    if not math.isfinite(inertia):
        raise ValidationError("q", f"inertia overflow: I = {inertia:.3e}")
    return inertia


def _per_configuration(values: np.ndarray, q: np.ndarray):
    """A float for one (n, 2) configuration ``q``, the (...) array of a stack's rows."""
    return float(values) if q.ndim == 2 else values


# The sums below reduce the trailing, contiguous axes of each configuration's
# terms, which numpy sums exactly as it sums those terms of one configuration
# alone, so a stacked row rounds as its one-configuration call does.

def _inertia(q: np.ndarray, mass: np.ndarray):
    """I of one configuration (a float) or of each row of an (..., n, 2) stack.

    The n x n table of terms (m_a m_b r_ab) r_ab is symmetric bit for bit, as the
    distances are and m_a m_b = m_b m_a, so past _STRIP_ROWS bodies
    ``_symmetric_table`` computes only its upper triangle; the sum still runs over the
    whole table, so I rounds as the sum of the full table computed entry by entry does.
    """
    terms = _symmetric_table(_inertia_rows, q, mass)
    return _per_configuration(terms.sum(axis=(-2, -1)) / (2.0 * float(mass.sum())), q)


def potential_energy(potential: PotentialSpec, config, m) -> float:
    """Potential energy of the configuration under the selected potential."""
    config, m = _bodies(config, m)
    return _potential(_instance(potential, PotentialSpec, "potential"), config.q, m.m)


def _potential(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray):
    """U of one configuration (a float) or of each row of an (..., n, 2) stack."""
    if potential.kind == HARMONIC:
        return 0.5 * float(mass.sum()) * _inertia(q, mass)
    r = _pair_separations(potential, q)[4]  # the offsets are freed here
    i, j = _pair_indices(q.shape[-2])
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        return _per_configuration(-np.divide(w, r, out=r).sum(axis=-1), q)
    # r ** alpha is 0 at a coincident pair when alpha > 0
    r **= potential.exponent
    return potential.coupling * _per_configuration(np.multiply(w, r, out=r).sum(axis=-1), q)


def _pair_coefficients(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray,
                       relative: bool = False):
    """i, j, dx, dy of ``_pair_offsets`` in ``_scatter_pairs`` order, the distances rr, the
    exponent alpha and the coefficient c = a alpha m_i m_j rr^(alpha - 2) (alpha = -1,
    a = 1 Newtonian) of the pairs i < j of one configuration: each adds c (q_i - q_j) to
    grad U at body i and takes it from body j. c is built in the buffer of m_i m_j, rr in
    that of r. ``_pair_separations`` checks them, in that order, for a collision, which it
    names as in row-major order; ``relative`` selects its threshold."""
    i, j, dx, dy, r = _pair_separations(potential, q, relative, _scatter_pairs)
    w = mass[i] * mass[j]
    if potential.kind == NEWTONIAN:
        return i, j, dx, dy, r, -1.0, np.divide(w, r * r * r, out=w)
    # coincident pairs exert no force under nonsingular kinds (pass-through):
    # dx = dy = 0 there, so r = 1 in place of r = 0 keeps the product finite
    alpha = potential.exponent
    r += r == 0.0
    w *= potential.coupling * alpha
    return i, j, dx, dy, r, alpha, np.multiply(w, r ** (alpha - 2.0), out=w)


def _gradient_rows(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray,
                   relative: bool = False) -> np.ndarray:
    """grad U, (n, 2); ``relative`` selects ``_pair_separations``' collision threshold.

    A pair kind sums its forces over the pairs in ``_scatter_pairs`` order, so that no
    ``np.bincount`` waits on its previous add. Each body still adds its terms in
    row-major order, so grad U is bit for bit that of row-major sums.
    """
    if potential.kind == HARMONIC:
        return float(mass.sum()) * _mass_weighted_offsets(q, mass)
    return _pair_gradient(_pair_coefficients(potential, q, mass, relative), q.shape[0])


def _pair_gradient(coefficients, n: int, keep: bool = False) -> np.ndarray:
    """grad U, (n, 2), from the ``_pair_coefficients`` of one configuration of n bodies.
    Their c is overwritten by the y forces unless ``keep``, which leaves it for a Hessian
    of the same configuration; the forces round alike either way."""
    i, j, dx, dy, _, _, coef = coefficients
    fx = coef * dx
    fy = coef * dy if keep else np.multiply(coef, dy, out=coef)
    grad = np.empty((n, 2))
    np.subtract(np.bincount(i, fx, n), np.bincount(j, fx, n), out=grad[:, 0])
    np.subtract(np.bincount(i, fy, n), np.bincount(j, fy, n), out=grad[:, 1])
    return grad


def _centering_hessian(mass: np.ndarray) -> np.ndarray:
    """(diag m - m m^T / M) kron I_2: the Hessian of I is twice this, of harmonic U M times.
    The products are those ``np.kron`` forms, block entry times I_2 entry, zeros signed alike."""
    block = np.diag(mass) - np.outer(mass, mass) / float(mass.sum())
    n2 = 2 * len(mass)
    return (block[:, None, :, None] * np.eye(2)[None, :, None, :]).reshape(n2, n2)


@lru_cache(maxsize=8)
def _hessian_gather(n: int):
    """Index arrays that assemble the n x n blocks of the Hessian from a table of its P
    pair blocks, in ``_scatter_pairs`` order, followed by its n diagonal blocks: row a of
    ``partners`` (n, n - 1) names the pairs of body a in the order of the other body,
    and ``blocks`` (n, n) names the block at (a, b), the pair of a and b or P + a on the
    diagonal. Shared across calls, so no caller may write them."""
    i, j = _scatter_pairs(n)
    p = len(i)
    blocks = np.empty((n, n), dtype=np.intp)
    blocks[i, j] = blocks[j, i] = np.arange(p)
    partners = blocks[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    blocks[np.diag_indices(n)] = np.arange(p, p + n)
    return partners, blocks


def _hessian_rows(potential: PotentialSpec, q: np.ndarray, mass: np.ndarray,
                  coefficients=None, out=None) -> np.ndarray:
    """Exact Hessian of the potential, shape (2n, 2n), coordinate 2i + c for body i.

    Each pair i < j adds the 2x2 block B = c I_2 + (c'/r) d d^T, with
    d = q_i - q_j and c(r) the coefficient of ``_pair_coefficients``, to the
    diagonal blocks (i, i) and (j, j), and -B to (i, j) and (j, i). The blocks -B are
    formed once per pair, the diagonal ones sum their row's blocks in body order, and
    one gather (``_hessian_gather``) writes all n x n blocks straight into the (n, 2, n,
    2) view of ``out``: a (2n, 2n) array or a view of one, such as the top left of a
    larger matrix, which is returned; a fresh one when None. A caller that holds the
    pair ``coefficients`` of ``q``, taken with either collision threshold and with
    c kept (``_pair_gradient(..., keep=True)``), passes them in, and the Hessian is the
    same bit for bit.
    """
    n = q.shape[0]
    if out is None:
        out = np.empty((2 * n, 2 * n))
    if potential.kind == HARMONIC:
        return np.multiply(float(mass.sum()), _centering_hessian(mass), out=out)
    if coefficients is None:
        coefficients = _pair_coefficients(potential, q, mass)
    # d d^T = 0 at a coincident pair, where rr = 1 passes it through
    i, j, dx, dy, rr, alpha, c = coefficients
    c_over_r = (alpha - 2.0) * c / (rr * rr)
    p = len(c)
    block = np.empty((p + n, 2, 2))  # -B of each pair, then the diagonal blocks
    # B entry by entry, c + (c'/r) d_a d_b on the diagonal and c * 0 + (c'/r) dx dy off
    # it, which keeps the sign a zero entry has in c I_2 + (c'/r) d d^T
    pairs = block[:p]
    xx, xy, yy = pairs[:, 0, 0], pairs[:, 0, 1], pairs[:, 1, 1]
    for entry, a, b, diagonal in ((xx, dx, dx, c), (xy, dx, dy, c * 0.0), (yy, dy, dy, c)):
        np.multiply(a, b, out=entry)
        entry *= c_over_r
        entry += diagonal
    pairs[:, 1, 0] = xy
    np.negative(pairs, out=pairs)
    # every block row sums to zero, since U does not change under translation: the sum
    # runs over the other bodies in turn from +0.0, as a dense row's sum over all
    # bodies does, whose 0 diagonal block changes no partial sum
    partners, blocks = _hessian_gather(n)
    np.negative(np.add.reduce(block.take(partners, axis=0), axis=1), out=block[p:])
    # clip, since the default mode would write the blocks to a buffer and copy it
    block.take(blocks, axis=0, out=out.reshape(n, 2, n, 2).transpose(0, 2, 1, 3), mode="clip")
    return out


def potential_gradient(potential: PotentialSpec, config, m) -> np.ndarray:
    """Exact gradient of the potential energy, one (d/dx, d/dy) row per body.

    For the harmonic kind this is M m_i (q_i - q_cm).
    """
    config, m = _bodies(config, m)
    return _gradient_rows(_instance(potential, PotentialSpec, "potential"), config.q, m.m)


def inertia_gradient(config, m) -> np.ndarray:
    """Exact gradient of the canonical moment of inertia: 2 m_i (q_i - q_cm)."""
    config, m = _bodies(config, m)
    return 2.0 * _mass_weighted_offsets(config.q, m.m)


def total_energy(potential: PotentialSpec, state: PhaseState, m) -> float:
    """Kinetic plus potential energy, H = (1/2) sum_i m_i |v_i|^2 + U."""
    config, m = _bodies(_instance(state, PhaseState, "state").config, m)
    return 0.5 * float(m.m @ (state.v * state.v).sum(axis=1)) \
        + potential_energy(potential, config, m)
