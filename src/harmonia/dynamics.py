"""Equations of motion, fixed-step integrators, and the exact harmonic flow.

Two integrators are provided: velocity_verlet (symplectic, time reversible)
and rk4 (classical fourth order). The harmonic equations of motion are
linear, so ``harmonic_flow`` solves them exactly for any initial state; the
rhombus counterexample and the rigidly rotating control are two of its
solutions. Collisions of the harmonic flow are not singular; bodies pass
through each other. Every solution is returned as a ``Trajectory``, one
set of arrays over the retained samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    HARMONIC,
    MassVector,
    PhaseState,
    PotentialSpec,
    _bodies,
    _cm_offsets,
    _frozen,
    _gradient_rows,
    _inertia,
    _potential,
    as_mass_vector,
)
from .errors import NonFiniteState, ValidationError

VELOCITY_VERLET = "velocity_verlet"
RK4 = "rk4"
INTEGRATION_METHODS = (VELOCITY_VERLET, RK4)

# Budgets of one run: 100x the longest run in use (1e5 steps), and the
# number of retained samples.
MAX_STEPS = 10 ** 7
MAX_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class IntegratorSpec:
    """Fixed-step integration request.

    The run covers ``n_steps`` = round(t_end / dt) steps, at most
    MAX_STEPS. Samples are retained every ``sample_stride`` steps; the
    initial and final states are always kept, at most MAX_SAMPLES in all.
    """

    method: str
    dt: float
    t_end: float
    sample_stride: int = 10

    def __post_init__(self) -> None:
        if self.method not in INTEGRATION_METHODS:
            raise ValidationError("method", f"unknown integrator {self.method!r}")
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValidationError("dt", "step size must be positive")
        if not np.isfinite(self.t_end) or self.t_end < self.dt:
            raise ValidationError("t_end", "must cover at least one step")
        if int(self.sample_stride) != self.sample_stride or self.sample_stride < 1:
            raise ValidationError("sample_stride", "must be a positive integer")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "sample_stride", int(self.sample_stride))
        # compared as a float, so a subnormal dt gives inf, not an int overflow
        if self.t_end / self.dt > MAX_STEPS:
            raise ValidationError("dt", f"run would exceed {MAX_STEPS} steps")
        if -(-self.n_steps // self.sample_stride) + 1 > MAX_SAMPLES:
            raise ValidationError("sample_stride", f"run would retain over {MAX_SAMPLES} samples")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered phase-space samples of one solution, held as arrays.

    ``times`` has shape (S,), positions ``q`` and velocities ``v`` have
    shape (S, n, 2). All are checked once, here: matching shapes, finite
    values and strictly increasing times. The invariant series ``inertia``,
    ``potential_energy`` and ``energy`` are computed on first use and then
    shared by every consumer of the trajectory.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    potential: PotentialSpec
    m: MassVector

    def __post_init__(self) -> None:
        m = as_mass_vector(self.m)
        times = np.array(self.times, dtype=float)
        q = np.array(self.q, dtype=float)
        v = np.array(self.v, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("times", "trajectory must be a nonempty sequence of times")
        for name, values in (("q", q), ("v", v)):
            if values.shape != (times.size, m.n, 2):
                raise ValidationError(name, f"expected shape ({times.size}, {m.n}, 2)")
        for name, values in (("times", times), ("q", q), ("v", v)):
            if not np.isfinite(values).all():
                raise ValidationError(name, "samples must be finite")
            object.__setattr__(self, name, _frozen(values))
        if not np.all(np.diff(times) > 0.0):
            raise ValidationError("times", "times must be strictly increasing")
        object.__setattr__(self, "m", m)

    def __len__(self) -> int:
        return int(self.times.size)

    # the rows were checked above, so the series call core's unchecked kernels
    @cached_property
    def inertia(self) -> np.ndarray:
        """Canonical moment of inertia at every sample, shape (S,)."""
        return _frozen(np.array([_inertia(q, self.m.m) for q in self.q]))

    @cached_property
    def potential_energy(self) -> np.ndarray:
        """Potential energy at every sample, shape (S,)."""
        if self.potential.kind == HARMONIC:
            # U = (M/2) I, from the inertia series rather than a second pass
            return _frozen(0.5 * self.m.total * self.inertia)
        return _frozen(np.array([_potential(self.potential, q, self.m.m) for q in self.q]))

    @cached_property
    def energy(self) -> np.ndarray:
        """Total energy T + U at every sample, shape (S,)."""
        kinetic = 0.5 * np.vecdot((self.v * self.v).sum(axis=2), self.m.m)
        return _frozen(kinetic + self.potential_energy)


def accelerations(potential: PotentialSpec, config, m) -> np.ndarray:
    """Per-body acceleration a_i = -(1/m_i) dU/dq_i, one row per body."""
    config, m = _bodies(config, m)
    grad = _gradient_rows(potential, config.q, m.m)
    return -grad / m.m[:, None]


def _acceleration_function(potential: PotentialSpec, m: MassVector):
    mass = m.m
    total = m.total
    if potential.kind == HARMONIC:
        # a_i = -M (q_i - q_cm), independent of the body's own mass
        def accel(q: np.ndarray) -> np.ndarray:
            return (mass @ q) - total * q

        return accel

    inv = 1.0 / mass[:, None]

    def accel(q: np.ndarray) -> np.ndarray:
        return -inv * _gradient_rows(potential, q, mass)

    return accel


def integrate(state0: PhaseState, integrator: IntegratorSpec,
              potential: PotentialSpec, m) -> Trajectory:
    """Integrate the equations of motion m_i q''_i = -dU/dq_i from ``state0``.

    Raises NonFiniteState if any coordinate leaves IEEE range and
    CollisionSingularity if a singular potential sees a pair separation
    below the collision threshold.
    """
    if not isinstance(state0, PhaseState):
        raise ValidationError("state0", "expected a PhaseState")
    _, m = _bodies(state0.config, m)
    if not isinstance(integrator, IntegratorSpec):
        raise ValidationError("integrator", "expected an IntegratorSpec")

    accel = _acceleration_function(potential, m)
    dt = integrator.dt
    stride = integrator.sample_stride
    n_steps = integrator.n_steps
    t0 = state0.t

    q = np.array(state0.config.q)
    v = np.array(state0.v)
    kept = [(0, q.copy(), v.copy())]

    def check_finite(step: int) -> None:
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise NonFiniteState(f"non-finite state at step {step} (t={t0 + step * dt:g})")

    # overflow on a diverging state is reported through NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        if integrator.method == VELOCITY_VERLET:
            a = accel(q)
            for i in range(1, n_steps + 1):
                v += 0.5 * dt * a
                q += dt * v
                a = accel(q)
                v += 0.5 * dt * a
                check_finite(i)
                if i % stride == 0 or i == n_steps:
                    kept.append((i, q.copy(), v.copy()))
        else:
            for i in range(1, n_steps + 1):
                k1v = accel(q)
                k2v = accel(q + 0.5 * dt * v)
                k2q = v + 0.5 * dt * k1v
                k3v = accel(q + 0.5 * dt * k2q)
                k3q = v + 0.5 * dt * k2v
                k4v = accel(q + dt * k3q)
                k4q = v + dt * k3v
                q = q + (dt / 6.0) * (v + 2.0 * k2q + 2.0 * k3q + k4q)
                v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                check_finite(i)
                if i % stride == 0 or i == n_steps:
                    kept.append((i, q.copy(), v.copy()))

    steps, qs, vs = zip(*kept)
    return Trajectory(t0 + np.array(steps) * dt, np.stack(qs), np.stack(vs), potential, m)


def energy_drift(traj: Trajectory) -> float:
    """Worst relative excursion of the total energy along the trajectory."""
    h0 = float(traj.energy[0])
    return float(np.abs(traj.energy - h0).max()) / max(1.0, abs(h0))


def harmonic_flow(state0: PhaseState, m, times) -> Trajectory:
    """Exact solution of the harmonic equations of motion from ``state0``.

    Under U = (M/2) I every body obeys q''_i = -M (q_i - q_cm), so the
    center of mass drifts uniformly while each offset from it oscillates
    at the angular frequency w = sqrt(M). With tau = t - state0.t,

        q_i(tau) = q_cm + v_cm tau + dq_i cos(w tau) + dv_i sin(w tau) / w
        v_i(tau) = v_cm - w dq_i sin(w tau) + dv_i cos(w tau)

    where dq_i and dv_i are body i's initial offsets from the center of mass.
    """
    if not isinstance(state0, PhaseState):
        raise ValidationError("state0", "expected a PhaseState")
    _, m = _bodies(state0.config, m)
    times = np.array(times, dtype=float, ndmin=1)
    omega = math.sqrt(m.total)
    q_cm, dq = _cm_offsets(state0.config.q, m.m)
    v_cm, dv = _cm_offsets(state0.v, m.m)
    tau = (times - state0.t)[:, None, None]
    c = np.cos(omega * tau)
    s = np.sin(omega * tau)
    q = q_cm + v_cm * tau + dq * c + dv * s / omega
    v = v_cm - omega * dq * s + dv * c
    return Trajectory(times, q, v, PotentialSpec.harmonic(), m)


def rhombus_masses() -> MassVector:
    return MassVector(np.ones(4))


def build_theorem2_state(k: float) -> PhaseState:
    """Initial state of the constant-inertia rhombus counterexample.

    Bodies 1 and 4 start at (0, +/- sqrt(k/2)) at rest; bodies 2 and 3
    start coincident at the origin moving horizontally at -/+ sqrt(2k).
    The flow then keeps bodies 1 and 4 at (0, +/- y1) and bodies 2 and 3
    at (-/+ x3, 0), with y1 = sqrt(k/2) cos(2t) and x3 = sqrt(k/2) sin(2t):
    I = k for every t while the shape breathes between two degenerate
    segments, so the solution has constant inertia yet never rotates rigidly.
    """
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    amp = math.sqrt(k / 2.0)
    q = np.array([[0.0, amp], [0.0, 0.0], [0.0, 0.0], [0.0, -amp]])
    v = np.array([[0.0, 0.0], [-2.0 * amp, 0.0], [2.0 * amp, 0.0], [0.0, 0.0]])
    return PhaseState(q, v)


def rhombus_trajectory(k: float, times) -> Trajectory:
    """The rhombus counterexample sampled at the given times."""
    return harmonic_flow(build_theorem2_state(k), rhombus_masses(), times)


def rotating_re_trajectory(config0, m, times) -> Trajectory:
    """Rigidly rotating harmonic solution through ``config0``, sampled at the given times.

    Every body obeys q''_i = -M (q_i - q_cm), so starting each body with
    the tangential velocity sqrt(M) J (q_i(0) - q_cm), J the quarter turn,
    gives q_i(t) = q_cm + R(sqrt(M) t) (q_i(0) - q_cm): a rotation about
    the resting center of mass whose mutual distances stay fixed, the
    canonical positive control for relative-equilibrium detection.
    """
    config0, m = _bodies(config0, m)
    _, dq = _cm_offsets(config0.q, m.m)
    v0 = math.sqrt(m.total) * np.column_stack([-dq[:, 1], dq[:, 0]])
    return harmonic_flow(PhaseState(config0, v0), m, times)
