"""Central-configuration residuals, constrained refinement, and the
one-parameter isosceles family.

A configuration is central when grad I = w2 * grad U for some scalar w2.
The residual solves for w2 by least squares in exactly that orientation,
so for the harmonic potential w2 = 2/M at every configuration. Refinement
seeks a critical point of U restricted to the ellipsoid I = k by a
projected-gradient line search that monitors the tangential gradient norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MassVector,
    PlanarConfiguration,
    PotentialSpec,
    _bodies,
    inertia_gradient,
    moment_of_inertia,
    potential_energy,
    potential_gradient,
)
from .errors import CollisionSingularity, DegenerateGradient, NoConvergence, ValidationError
from .saari import rigid_fit

_DEGENERATE_EPS = 1e-14
_INERTIA_REL_TOL = 1e-12

# verify_continuum fits every pair of samples: 523 776 rigid fits at this cap
MAX_FAMILY_SAMPLES = 1024


@dataclass(frozen=True)
class CCReport:
    """Verdict of one central-configuration test."""

    residual: float
    omega_squared: float
    is_cc: bool
    tol: float

    def __post_init__(self) -> None:
        if self.is_cc != (self.residual <= self.tol):
            raise ValidationError("is_cc", "must equal residual <= tol")


@dataclass(frozen=True)
class FamilySample:
    """One member of the isosceles family with its verdict."""

    eta: float
    config: PlanarConfiguration
    report: CCReport

    @property
    def r23(self) -> float:
        """Base length of the isosceles triangle, 2 sqrt(k/2) sin(eta)."""
        q = self.config.q
        return float(np.hypot(*(q[2] - q[1])))


@dataclass(frozen=True)
class ContinuumReport:
    """Aggregate verdict over a sampled family of configurations."""

    k: float
    samples: tuple
    verdict: bool
    failures: tuple


def cc_residual(config, m, potential: PotentialSpec, tol: float = 1e-9) -> CCReport:
    """Least-squares test of the central-configuration condition.

    Solves grad I = w2 grad U for the scalar w2 and reports the
    scale-insensitive residual |grad I - w2 grad U| / (1 + |grad I|).
    Raises ValidationError on ``q`` when a gradient norm overflows (the
    positions lie too far out for doubles), and DegenerateGradient when
    grad U vanishes (total collision or an exact critical point of U),
    where w2 is undetermined.
    """
    config, m = _bodies(config, m)
    # an overflow shows up in the norms; finite norms bound everything after them
    with np.errstate(over="ignore", invalid="ignore"):
        gi = inertia_gradient(config, m).ravel()
        gu = potential_gradient(potential, config, m).ravel()
        ni = float(np.linalg.norm(gi))
        nu = float(np.linalg.norm(gu))
    if not math.isfinite(ni + nu):
        raise ValidationError("q", f"gradient overflow: |grad I| = {ni:.3e}, |grad U| = {nu:.3e}")
    if nu <= _DEGENERATE_EPS * (1.0 + ni):
        raise DegenerateGradient(f"|grad U| = {nu:.3e} is degenerate")
    w2 = float(gi @ gu) / float(gu @ gu)
    residual = float(np.linalg.norm(gi - w2 * gu)) / (1.0 + ni)
    return CCReport(residual, w2, residual <= tol, float(tol))


def _rescale_to_inertia(q: np.ndarray, m: MassVector, k: float) -> np.ndarray:
    inertia = moment_of_inertia(PlanarConfiguration(q), m)
    if inertia <= 0.0:
        raise DegenerateGradient("cannot rescale a total collision")
    qcm = (m.m @ q) / m.total
    return qcm + math.sqrt(k / inertia) * (q - qcm)


def _tangential_gradient(config: PlanarConfiguration, m: MassVector,
                         potential: PotentialSpec) -> np.ndarray:
    """Component of grad U orthogonal to grad I (tangent to {I = k})."""
    gi = inertia_gradient(config, m)
    gu = potential_gradient(potential, config, m)
    denom = float((gi * gi).sum())
    coef = float((gu * gi).sum()) / denom
    return gu - coef * gi


def refine_cc(config0, m, potential: PotentialSpec, k: float,
              max_iter: int = 200, tol: float = 1e-10) -> PlanarConfiguration:
    """Refine a configuration to a central configuration on {I = k}.

    Projected-gradient search: rescale about the center of mass onto the
    ellipsoid, then repeatedly step along the tangential gradient of U
    with a backtracking halving line search (initial step 0.1, at most 30
    halvings) that accepts whichever orientation shrinks the tangential
    gradient norm. Critical points may be maxima of U on the ellipsoid
    (the Lagrange configuration is), so both orientations are tried.
    """
    config0, m = _bodies(config0, m)
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    if moment_of_inertia(config0, m) <= 0.0:
        raise DegenerateGradient("starting configuration is a total collision")

    q = _rescale_to_inertia(np.array(config0.q), m, k)
    for _ in range(max_iter):
        current = PlanarConfiguration(q)
        report = cc_residual(current, m, potential, tol)
        if report.is_cc:
            return current
        direction = _tangential_gradient(current, m, potential)
        f0 = float(np.linalg.norm(direction))
        moved = False
        for sign in (-1.0, 1.0):
            step = 0.1
            for _ in range(30):
                trial = _rescale_to_inertia(q + sign * step * direction, m, k)
                try:
                    f1 = float(np.linalg.norm(
                        _tangential_gradient(PlanarConfiguration(trial), m, potential)))
                except CollisionSingularity:
                    f1 = math.inf
                if f1 < f0:
                    q = trial
                    moved = True
                    break
                step *= 0.5
            if moved:
                break
        if not moved:
            raise NoConvergence(
                f"line search stalled at residual {report.residual:.3e}")
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def theorem1_family(k: float, eta: float) -> PlanarConfiguration:
    """Isosceles three-body configuration of inertia k at family angle eta.

    Body 1 sits at (0, y1) and bodies 2, 3 at (-/+ x3, 0) with
    y1 = sqrt(3k/2) cos(eta) and x3 = sqrt(k/2) sin(eta); unit masses are
    implied. Every member is a central configuration of the harmonic
    potential, and distinct eta in (0, pi/2] give rotationally
    inequivalent shapes.
    """
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    y1 = math.sqrt(1.5 * k) * math.cos(eta)
    x3 = math.sqrt(0.5 * k) * math.sin(eta)
    return PlanarConfiguration(np.array([[0.0, y1], [-x3, 0.0], [x3, 0.0]]))


def family_masses() -> MassVector:
    return MassVector(np.ones(3))


def rotationally_equivalent(a, b, m, tol: float = 1e-9) -> bool:
    """True when some rotation about the origin maps b onto a body by body."""
    return rigid_fit(a, b, m, allow_reflection=False).residual <= tol


def verify_continuum(k: float, n_samples: int, tol: float = 1e-12) -> ContinuumReport:
    """Sample the isosceles family and certify it as a genuine continuum.

    Draws eta uniformly in (0, pi/2] (the open end avoids the coincident
    pair at eta = 0). The verdict is true when every sample is a central
    configuration within ``tol``, has inertia k to 1e-12 relative, and no
    two samples are rotationally equivalent. At most MAX_FAMILY_SAMPLES
    samples are accepted, since the pairwise check grows as n_samples^2.
    ``theorem1_family`` checks k.
    """
    if not 2 <= n_samples <= MAX_FAMILY_SAMPLES or int(n_samples) != n_samples:
        raise ValidationError("n_samples", f"need 2 to {MAX_FAMILY_SAMPLES} samples")
    n_samples = int(n_samples)

    masses = family_masses()
    harmonic = PotentialSpec.harmonic()
    samples = []
    failures = []
    for j in range(1, n_samples + 1):
        eta = (math.pi / 2.0) * j / n_samples
        config = theorem1_family(k, eta)
        report = cc_residual(config, masses, harmonic, tol)
        samples.append(FamilySample(eta, config, report))
        if not report.is_cc:
            failures.append(f"eta={eta:.6f}: residual {report.residual:.3e} exceeds {tol:g}")
        inertia = moment_of_inertia(config, masses)
        if abs(inertia - k) > _INERTIA_REL_TOL * k:
            failures.append(f"eta={eta:.6f}: inertia {inertia!r} misses k={k!r}")
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            if rotationally_equivalent(samples[i].config, samples[j].config, masses):
                failures.append(
                    f"samples eta={samples[i].eta:.6f} and eta={samples[j].eta:.6f} "
                    "are rotationally equivalent")
    return ContinuumReport(float(k), tuple(samples), not failures, tuple(failures))


def family_potential_energy(sample: FamilySample) -> float:
    """Potential energy of a family member (constant (3/2) k along the family)."""
    return potential_energy(PotentialSpec.harmonic(), sample.config, family_masses())
