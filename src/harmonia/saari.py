"""Relative-equilibrium detection and the constant-inertia counterexample.

A solution is a relative equilibrium when some time-dependent orthogonal
matrix maps the initial offsets from the center of mass onto every later
one. The detector fits the best such map (both determinant branches) in
the mass-weighted least-squares sense; its residual is the rigidity
defect. A trajectory with constant moment of inertia but positive defect
certifies that constant inertia does not force rigid rotation.

Trajectories are read as arrays: the inertia series is the one the
trajectory computes once, center-of-mass offsets of all samples are fitted
against the first in one stacked call, and pair distances are swept at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MassVector,
    PotentialSpec,
    _cm_offsets,
    _gradient_rows,
    _number,
    _pair_offsets,
    _positive,
    rotation,
)
from .dynamics import (
    IntegratorSpec,
    Trajectory,
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


def _best_rotation(a: np.ndarray, c: np.ndarray, w: np.ndarray):
    """The rotation Omega of ``c`` onto ``a`` minimizing sum_i w_i |a_i - Omega c_i|^2,
    and that minimum, for (n, 2) point sets or stacks (..., n, 2) of them. The angle is
    in closed form ((±0, ±0) gives the identity) and the misfit is evaluated directly,
    so exact fits come out at roundoff. A stacked row rounds as it alone would:
    ``np.vecdot`` is the 1-D dot, and the angles use ``math.atan2``, not ``np.arctan2``."""
    dot = np.vecdot(a[..., 0] * c[..., 0] + a[..., 1] * c[..., 1], w)
    cross = np.vecdot(a[..., 1] * c[..., 0] - a[..., 0] * c[..., 1], w)
    angle = np.vectorize(math.atan2, otypes=[float])(cross, dot)
    omega = rotation(np.where((dot == 0.0) & (cross == 0.0), 0.0, angle))
    d = a - c @ np.swapaxes(omega, -1, -2)
    return omega, np.vecdot((d * d).sum(axis=-1), w)


def _rigid_residuals(offsets: np.ndarray, ref: np.ndarray, m: MassVector) -> np.ndarray:
    """Mass-weighted orthogonal Procrustes residual of ``offsets``, an (n, 2) point
    set or an (..., n, 2) stack, against ``ref``: sqrt(min / M) of
    sum_i m_i |offsets_i - Omega ref_i|^2 over orthogonal Omega, searching the
    rotation and the reflection branch. Omega turns about the origin; a shape
    question passes offsets from the center of mass."""
    best = _best_rotation(offsets, ref, m.m)[1]
    # the reflection Omega diag(1, -1) of ref is the rotation Omega of its mirror image
    trial = _best_rotation(offsets, ref * [1.0, -1.0], m.m)[1]
    return np.sqrt(np.where(trial < best, trial, best) / m.total)


def inertia_variation(traj: Trajectory) -> float:
    """Worst relative excursion of the moment of inertia along the trajectory."""
    series = traj.inertia
    i0 = float(series[0])
    if i0 <= 0.0:
        raise ZeroInertia("moment of inertia vanishes at the first sample")
    return float(np.abs(series - i0).max() / i0)


def _pair_distance_variations(traj: Trajectory):
    """Largest swing of a pair distance over the samples, and its 1-based pair."""
    i, j, _, _, dist = _pair_offsets(traj.q)
    spread = dist.max(axis=0) - dist.min(axis=0)
    worst = float(spread.max())
    # deterministic certificate: among near-ties take the first pair by label
    first = int(np.argmax(spread >= worst - _PAIR_TIE_TOL * max(1.0, worst)))
    return worst, (int(i[first]) + 1, int(j[first]) + 1)


def _require_finite(**measures: float) -> None:
    """Raise ValidationError on ``q`` naming every measure unless all are finite:
    positions too far out for doubles overflow an analysis to inf or NaN."""
    if not all(math.isfinite(value) for value in measures.values()):
        raise ValidationError("q", "analysis overflow: " + ", ".join(
            f"{name} = {value:.3e}" for name, value in measures.items()))


def is_relative_equilibrium(traj: Trajectory, tol: float = 1e-6) -> RigidityResult:
    """Decide whether the sampled trajectory is a rigid rotation about its center of mass.

    True when the supremum over samples of the rigidity residual
    (``_rigid_residuals``) of the CM offsets against the first sample's stays
    below tol * sqrt(I(t0)). Also
    reports the cheap necessary condition: the largest swing of any pair distance.
    """
    tol = _number(tol, "tol")
    _, offsets = _cm_offsets(traj.q, traj.m.m)
    _require_finite(center_of_mass_offset=float(np.abs(offsets).max()))
    threshold = tol * math.sqrt(float(traj.inertia[0]))
    residuals = _rigid_residuals(offsets, offsets[0], traj.m)
    worst = int(residuals.argmax())
    defect = float(residuals[worst])
    worst_var, worst_pair = _pair_distance_variations(traj)
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

    Raises ValidationError on ``q`` when the inertia variation or the
    rigidity defect is not finite (positions too far out for doubles),
    since no class can be read from NaN.
    """
    tol_inertia = _number(tol_inertia, "tol_inertia")
    tol_rigidity = _number(tol_rigidity, "tol_rigidity")
    with np.errstate(over="ignore", invalid="ignore"):
        ivar = inertia_variation(traj)
        rigidity = is_relative_equilibrium(traj, tol_rigidity)
    _require_finite(inertia_variation=ivar, rigidity_defect=rigidity.defect)
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
        tol_inertia=tol_inertia,
        tol_rigidity=tol_rigidity,
    )


def verify_counterexample(k: float, t_end: float = 2.0 * math.pi,
                          dt: float = 1e-3, method: str = "rk4") -> CounterexampleReport:
    """Mechanically verify the constant-inertia non-rigid rhombus solution.

    Three checks are run and their conjunction returned:

    (a) the closed form satisfies the equations of motion: gradient-based
        accelerations match the analytic second derivative of the
        cosine/sine solution at about 10^3 sample times, to 1e-10 sqrt(k);
    (b) the moment of inertia is constant: to 1e-12 along the closed form
        and to 1e-8 along the numerically integrated trajectory;
    (c) the motion is not a relative equilibrium: the rigid-fit defect is
        strictly positive (above 1e-2 sqrt(k)), with the defect reported
        at the witness time t = pi/4 where bodies 1 and 4 meet at the
        origin, and the r14^2 swing equals 2k to 1e-10 relative.

    Every bound is relative to the scale of what it bounds (positions and
    accelerations grow as sqrt(k), r14^2 and I as k), so the verdict is one
    from k = 1e-100 to 1e100; a sample grid that misses pi/4 fails (c) at
    every k.

    Collision pairs along the closed form are detected numerically and
    included in the report.
    """
    integrator = IntegratorSpec(method, dt, t_end)
    k = _positive(k, "k", "must be positive")
    state0 = build_theorem2_state(k)
    masses = rhombus_masses()
    harmonic = PotentialSpec.harmonic()
    times = np.linspace(0.0, integrator.t_end, 1001)
    closed = rhombus_trajectory(k, times)

    # (a) equations of motion along the closed form, against its second
    # derivative written out: y1'' = -4 amp cos(2t), x3'' = -4 amp sin(2t)
    amp = math.sqrt(k / 2.0)
    ddy1 = -4.0 * amp * np.cos(2.0 * times)
    ddx3 = -4.0 * amp * np.sin(2.0 * times)
    analytic = np.zeros((times.size, 4, 2))
    analytic[:, 0, 1], analytic[:, 3, 1] = ddy1, -ddy1
    analytic[:, 1, 0], analytic[:, 2, 0] = -ddx3, ddx3
    numeric = -_gradient_rows(harmonic, closed.q, masses.m) / masses.m[:, None]
    eom_err = float(np.abs(numeric - analytic).max())

    # (b) inertia constancy, closed form and integrated flow
    ivar_closed = inertia_variation(closed)
    integ = integrate(state0, integrator, harmonic, masses)
    ivar_integrated = inertia_variation(integ)

    # (c) rigidity defect, with the witness near t = pi/4
    rigidity = is_relative_equilibrium(closed, tol=1e-6)
    witness_idx = int(np.argmin(np.abs(times - math.pi / 4.0)))
    _, offsets = _cm_offsets(closed.q, masses.m)
    witness_defect = float(_rigid_residuals(offsets[witness_idx], offsets[0], masses))

    i, j, dx, dy, dist = _pair_offsets(closed.q)
    r14_sq = (dx * dx + dy * dy)[:, 2]  # pair (1, 4), the third in row-major order
    swing = float(r14_sq.max() - r14_sq.min())

    collision_pairs = [((int(i[p]) + 1, int(j[p]) + 1), float(times[int(dist[:, p].argmin())]))
                       for p in np.flatnonzero(dist.min(axis=0) <= 1e-9 * math.sqrt(k))]

    passed_equations = eom_err <= 1e-10 * math.sqrt(k)
    passed_inertia = ivar_closed <= 1e-12 and ivar_integrated <= 1e-8
    passed_not_re = (not rigidity.is_re) and rigidity.defect > 1e-2 * math.sqrt(k)
    passed_certificate = abs(swing - 2.0 * k) <= 1e-10 * k
    return CounterexampleReport(
        k=k,
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
