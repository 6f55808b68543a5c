"""Relative-equilibrium detection and the constant-inertia counterexample.

A solution is a relative equilibrium when some time-dependent orthogonal
matrix maps the initial configuration onto every later one. The detector
fits the best orthogonal map about the origin (both determinant branches)
in the mass-weighted least-squares sense; its residual is the rigidity
defect. A trajectory with constant moment of inertia but positive defect
certifies that constant inertia does not force rigid rotation.

Trajectories are read as arrays: the inertia series is the one the
trajectory computes once, rigid fits run sample by sample against the
first sample, and pair distances are swept over all samples at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PlanarConfiguration,
    PotentialSpec,
    _bodies,
    _pair_offsets,
    as_configuration,
    rotation,
)
from .dynamics import (
    IntegratorSpec,
    Trajectory,
    accelerations,
    build_theorem2_state,
    integrate,
    rhombus_masses,
    rhombus_trajectory,
)
from .errors import ValidationError, ZeroInertia

RELATIVE_EQUILIBRIUM = "relative_equilibrium"
CONSTANT_INERTIA_NOT_RE = "constant_inertia_not_re"
VARYING_INERTIA = "varying_inertia"

_PAIR_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RigidFitResult:
    """Best orthogonal alignment of one labeled configuration onto another."""

    omega: np.ndarray
    residual: float
    det_sign: int

    def __post_init__(self) -> None:
        omega = np.array(self.omega, dtype=float)
        if omega.shape != (2, 2):
            raise ValidationError("omega", "expected a 2x2 matrix")
        if np.abs(omega @ omega.T - np.eye(2)).max() > 1e-12:
            raise ValidationError("omega", "matrix is not orthogonal")
        if self.det_sign not in (-1, 1):
            raise ValidationError("det_sign", "must be +1 or -1")
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)


@dataclass(frozen=True)
class RigidityResult:
    """Relative-equilibrium verdict for a sampled trajectory."""

    is_re: bool
    defect: float
    threshold: float
    worst_time: float
    max_pair_variation: float
    worst_pair: tuple


@dataclass(frozen=True)
class SaariReport:
    """Joint inertia-constancy and rigidity classification."""

    inertia_variation: float
    rigidity_defect: float
    classification: str
    certificate_time: float
    certificate_pair: tuple
    certificate_variation: float
    tol_inertia: float
    tol_rigidity: float


@dataclass(frozen=True)
class CounterexampleReport:
    """Evidence that the rhombus flow keeps I constant yet never rotates rigidly."""

    k: float
    method: str
    eom_max_error: float
    inertia_variation_closed: float
    inertia_variation_integrated: float
    rigidity: RigidityResult
    witness_defect: float
    r14_squared_swing: float
    collision_pairs: tuple
    passed_equations: bool
    passed_inertia: bool
    passed_not_re: bool
    passed_certificate: bool
    verdict: bool


def rigid_fit(config, ref, m, allow_reflection: bool = True) -> RigidFitResult:
    """Mass-weighted orthogonal Procrustes fit about the origin.

    Minimizes sum_i m_i |config_i - Omega ref_i|^2 over orthogonal Omega,
    searching the rotation branch and (unless ``allow_reflection`` is
    false) the reflection branch; ties prefer the rotation. The fit is
    taken about the origin, not the center of mass. The residual is
    sqrt(min / M), a mass-weighted rms misfit. A reference with every
    body at the origin leaves the map undetermined; the identity is
    returned and the residual is computed directly.
    """
    config, m = _bodies(config, m)
    a = config.q
    b = as_configuration(ref).q
    if a.shape != b.shape:
        raise ValidationError("ref", "configurations must have the same body count")
    w = m.m

    def best_rotation(c: np.ndarray):
        # the rotation of c onto a, its angle in closed form; the misfit is then
        # evaluated directly so exact fits come out at roundoff, not sqrt(eps)
        dot = float(w @ (a[:, 0] * c[:, 0] + a[:, 1] * c[:, 1]))
        cross = float(w @ (a[:, 1] * c[:, 0] - a[:, 0] * c[:, 1]))
        omega = rotation(math.atan2(cross, dot) if (dot, cross) != (0.0, 0.0) else 0.0)
        d = a - c @ omega.T
        return omega, float(w @ (d * d).sum(axis=1))

    omega, best = best_rotation(b)
    sign = 1
    if allow_reflection:
        # the reflection Omega diag(1, -1) of ref is the rotation Omega of its mirror image
        omega_r, trial = best_rotation(b * [1.0, -1.0])
        if trial < best:
            omega, best, sign = omega_r @ np.diag([1.0, -1.0]), trial, -1
    return RigidFitResult(omega, math.sqrt(best / m.total), sign)


def inertia_variation(traj: Trajectory) -> float:
    """Worst relative excursion of the moment of inertia along the trajectory."""
    series = traj.inertia
    i0 = float(series[0])
    if i0 <= 0.0:
        raise ZeroInertia("moment of inertia vanishes at the first sample")
    return float(np.abs(series - i0).max() / i0)


def _pair_distance_variations(traj: Trajectory):
    """Largest swing of a pair distance, its 1-based pair, and the (S, P) distances.

    Column p holds r_ij over the samples for the p-th pair i < j of
    ``core._pair_offsets``, in row-major order.
    """
    i, j, _, _, dist = _pair_offsets(traj.q)
    spread = dist.max(axis=0) - dist.min(axis=0)
    worst = float(spread.max())
    # deterministic certificate: among near-ties take the first pair by label
    first = int(np.argmax(spread >= worst - _PAIR_TIE_TOL * max(1.0, worst)))
    return worst, (int(i[first]) + 1, int(j[first]) + 1), dist


def is_relative_equilibrium(traj: Trajectory, tol: float = 1e-6) -> RigidityResult:
    """Decide whether the sampled trajectory is a rigid rotation.

    True when the supremum over samples of the rigid-fit residual against
    the first sample stays below tol * sqrt(I(t0)). Also reports the cheap
    necessary condition: the largest swing of any pair distance.
    """
    ref = PlanarConfiguration(traj.q[0])
    threshold = float(tol) * math.sqrt(float(traj.inertia[0]))
    residuals = np.array([rigid_fit(q, ref, traj.m).residual for q in traj.q])
    worst = int(residuals.argmax())
    defect = float(residuals[worst])
    worst_var, worst_pair, _ = _pair_distance_variations(traj)
    return RigidityResult(
        is_re=defect <= threshold,
        defect=defect,
        threshold=threshold,
        worst_time=float(traj.times[worst]),
        max_pair_variation=worst_var,
        worst_pair=worst_pair,
    )


def saari_check(traj: Trajectory, tol_inertia: float = 1e-8,
                tol_rigidity: float = 1e-6) -> SaariReport:
    """Classify a trajectory by inertia constancy and rigidity.

    varying_inertia          I moves by more than tol_inertia (relative)
    relative_equilibrium     I constant and the rigid fit succeeds
    constant_inertia_not_re  I constant yet no orthogonal map fits
    """
    ivar = inertia_variation(traj)
    rigidity = is_relative_equilibrium(traj, tol_rigidity)
    if ivar > tol_inertia:
        classification = VARYING_INERTIA
    elif rigidity.is_re:
        classification = RELATIVE_EQUILIBRIUM
    else:
        classification = CONSTANT_INERTIA_NOT_RE
    return SaariReport(
        inertia_variation=ivar,
        rigidity_defect=rigidity.defect,
        classification=classification,
        certificate_time=rigidity.worst_time,
        certificate_pair=rigidity.worst_pair,
        certificate_variation=rigidity.max_pair_variation,
        tol_inertia=float(tol_inertia),
        tol_rigidity=float(tol_rigidity),
    )


def verify_counterexample(k: float, t_end: float = 2.0 * math.pi,
                          dt: float = 1e-3, method: str = "rk4") -> CounterexampleReport:
    """Mechanically verify the constant-inertia non-rigid rhombus solution.

    Three checks are run and their conjunction returned:

    (a) the closed form satisfies the equations of motion: gradient-based
        accelerations match the analytic second derivative of the
        cosine/sine solution at about 10^3 sample times, to 1e-10;
    (b) the moment of inertia is constant: to 1e-12 along the closed form
        and to 1e-8 along the numerically integrated trajectory;
    (c) the motion is not a relative equilibrium: the rigid-fit defect is
        strictly positive (above 1e-2 sqrt(k)), with the defect reported
        at the witness time t = pi/4 where bodies 1 and 4 meet at the
        origin, and the r14^2 swing equals 2k.

    Collision pairs along the closed form are detected numerically and
    included in the report.
    """
    integrator = IntegratorSpec(method, dt, t_end)
    state0 = build_theorem2_state(k)
    masses = rhombus_masses()
    harmonic = PotentialSpec.harmonic()
    times = np.linspace(0.0, t_end, 1001)
    closed = rhombus_trajectory(k, times)

    # (a) equations of motion along the closed form, against its second
    # derivative written out: y1'' = -4 amp cos(2t), x3'' = -4 amp sin(2t)
    amp = math.sqrt(k / 2.0)
    ddy1 = -4.0 * amp * np.cos(2.0 * times)
    ddx3 = -4.0 * amp * np.sin(2.0 * times)
    analytic = np.zeros((times.size, 4, 2))
    analytic[:, 0, 1], analytic[:, 3, 1] = ddy1, -ddy1
    analytic[:, 1, 0], analytic[:, 2, 0] = -ddx3, ddx3
    numeric = np.array([accelerations(harmonic, q, masses) for q in closed.q])
    eom_err = float(np.abs(numeric - analytic).max())

    # (b) inertia constancy, closed form and integrated flow
    ivar_closed = inertia_variation(closed)
    integ = integrate(state0, integrator, harmonic, masses)
    ivar_integrated = inertia_variation(integ)

    # (c) rigidity defect, with the witness near t = pi/4
    rigidity = is_relative_equilibrium(closed, tol=1e-6)
    witness_idx = int(np.argmin(np.abs(times - math.pi / 4.0)))
    witness_defect = rigid_fit(closed.q[witness_idx], closed.q[0], masses).residual

    i, j, dx, dy, dist = _pair_offsets(closed.q)
    r14_sq = (dx * dx + dy * dy)[:, 2]  # pair (1, 4), the third in row-major order
    swing = float(r14_sq.max() - r14_sq.min())

    collision_pairs = [((int(i[p]) + 1, int(j[p]) + 1), float(times[int(dist[:, p].argmin())]))
                       for p in np.flatnonzero(dist.min(axis=0) <= 1e-9 * math.sqrt(k))]

    passed_equations = eom_err <= 1e-10
    passed_inertia = ivar_closed <= 1e-12 and ivar_integrated <= 1e-8
    passed_not_re = (not rigidity.is_re) and rigidity.defect > 1e-2 * math.sqrt(k)
    passed_certificate = abs(swing - 2.0 * k) <= 1e-10
    return CounterexampleReport(
        k=float(k),
        method=method,
        eom_max_error=eom_err,
        inertia_variation_closed=ivar_closed,
        inertia_variation_integrated=ivar_integrated,
        rigidity=rigidity,
        witness_defect=witness_defect,
        r14_squared_swing=swing,
        collision_pairs=tuple(collision_pairs),
        passed_equations=passed_equations,
        passed_inertia=passed_inertia,
        passed_not_re=passed_not_re,
        passed_certificate=passed_certificate,
        verdict=passed_equations and passed_inertia and passed_not_re and passed_certificate,
    )
