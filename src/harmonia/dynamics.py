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
# retained samples times bodies, which bounds q and v to 32 MB.
MAX_STEPS = 10 ** 7
MAX_SAMPLES = 10 ** 6
# The invariant series are computed on chunks of samples whose n x n tables
# hold at most this many elements (32 kB of doubles), so a chunk's temporaries
# stay within what one sample of n = 64 takes: one sample a chunk from n = 46 up.
_CHUNK_ELEMENTS = 2 ** 12


@dataclass(frozen=True)
class IntegratorSpec:
    """Fixed-step integration request.

    The run covers ``n_steps`` = round(t_end / dt) steps, at most
    MAX_STEPS. Samples are retained every ``sample_stride`` steps; the
    initial and final states are always kept. ``integrate`` refuses a run
    whose samples times bodies exceed MAX_SAMPLES; a spec that retains
    more than MAX_SAMPLES samples is refused here, whatever the bodies.
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


def _check_sample_budget(samples: int, n: int, field: str) -> None:
    """Refuse, before any array is allocated, a run retaining over MAX_SAMPLES samples x bodies."""
    if samples * n > MAX_SAMPLES:
        raise ValidationError(field, f"run would retain {samples} samples of {n} bodies, "
                                     f"over {MAX_SAMPLES} samples x bodies")


def _owned(values) -> np.ndarray:
    """``values`` itself when it is a read-only float64 array, else a float copy."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 \
            and not values.flags.writeable:
        return values
    return np.array(values, dtype=float)


def _chunked(kernel, q: np.ndarray) -> np.ndarray:
    """``kernel`` of each (S, n, 2) chunk of ``q``, at most _CHUNK_ELEMENTS n x n elements
    a chunk, concatenated: the (S,) series, each row as the one-sample call gives it."""
    size = max(1, _CHUNK_ELEMENTS // q.shape[1] ** 2)
    return np.concatenate([kernel(q[s:s + size]) for s in range(0, len(q), size)])


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered phase-space samples of one solution, held as arrays.

    ``times`` has shape (S,), positions ``q`` and velocities ``v`` have
    shape (S, n, 2). All are checked once, here: matching shapes, finite
    values and strictly increasing times. They are kept read-only: an
    array that already is read-only float64 (as ``integrate`` and
    ``harmonic_flow`` build them) is held as it is, anything else is
    copied. The invariant series ``inertia``, ``potential_energy`` and
    ``energy`` are computed on first use, by core's stacked kernels in
    ``_chunked`` chunks, each value bit-identical to the one-configuration
    call, and then shared by every consumer of the trajectory.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    potential: PotentialSpec
    m: MassVector

    def __post_init__(self) -> None:
        m = as_mass_vector(self.m)
        times, q, v = _owned(self.times), _owned(self.q), _owned(self.v)
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
        return _frozen(_chunked(lambda q: _inertia(q, self.m.m), self.q))

    @cached_property
    def potential_energy(self) -> np.ndarray:
        """Potential energy at every sample, shape (S,)."""
        if self.potential.kind == HARMONIC:
            # U = (M/2) I, from the inertia series rather than a second pass
            return _frozen(0.5 * self.m.total * self.inertia)
        return _frozen(_chunked(lambda q: _potential(self.potential, q, self.m.m), self.q))

    @cached_property
    def energy(self) -> np.ndarray:
        """Total energy T + U at every sample, shape (S,)."""
        kinetic = 0.5 * np.vecdot((self.v * self.v).sum(axis=2), self.m.m)
        return _frozen(kinetic + self.potential_energy)


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


def _verlet_stepper(accel, q: np.ndarray, dt: float):
    """Velocity Verlet ``step(q, v) -> (q, v)``, in place; it carries the
    acceleration, so each step makes one ``accel`` call after the first at ``q``."""
    a = accel(q)
    half = 0.5 * dt

    def step(q: np.ndarray, v: np.ndarray):
        nonlocal a
        v += half * a
        q += dt * v
        a = accel(q)
        v += half * a
        return q, v

    return step


def _rk4_stepper(accel, dt: float):
    """Classical Runge-Kutta ``step(q, v) -> (q, v)``: four ``accel`` calls a step."""
    half, sixth = 0.5 * dt, dt / 6.0

    def step(q: np.ndarray, v: np.ndarray):
        k1v = accel(q)
        k2v = accel(q + half * v)
        k2q = v + half * k1v
        k3v = accel(q + half * k2q)
        k3q = v + half * k2v
        k4v = accel(q + dt * k3q)
        k4q = v + dt * k3v
        return (q + sixth * (v + 2.0 * k2q + 2.0 * k3q + k4q),
                v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    return step


def integrate(state0: PhaseState, integrator: IntegratorSpec,
              potential: PotentialSpec, m) -> Trajectory:
    """Integrate the equations of motion m_i q''_i = -dU/dq_i from ``state0``.

    Raises NonFiniteState if any coordinate leaves IEEE range, naming the
    first retained step at or after the blow-up (finiteness is tested on
    retained samples only; a non-finite coordinate stays non-finite under
    both integrators), and CollisionSingularity if a singular potential
    sees a pair separation below the collision threshold.
    """
    if not isinstance(state0, PhaseState):
        raise ValidationError("state0", "expected a PhaseState")
    _, m = _bodies(state0.config, m)
    if not isinstance(integrator, IntegratorSpec):
        raise ValidationError("integrator", "expected an IntegratorSpec")

    accel = _acceleration_function(potential, m)
    dt = integrator.dt
    n_steps = integrator.n_steps
    stride = integrator.sample_stride
    samples = -(-n_steps // stride) + 1
    _check_sample_budget(samples, m.n, "sample_stride")
    # the retained steps: every stride-th, and the last
    steps = np.minimum(stride * np.arange(samples), n_steps)
    times = state0.t + steps * dt

    q = np.array(state0.config.q)
    v = np.array(state0.v)
    qs = np.empty((steps.size, *q.shape))
    vs = np.empty_like(qs)
    qs[0], vs[0] = q, v

    # overflow on a diverging state is reported through NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        step = _verlet_stepper(accel, q, dt) if integrator.method == VELOCITY_VERLET \
            else _rk4_stepper(accel, dt)
        for s in range(1, steps.size):
            for _ in range(steps[s] - steps[s - 1]):
                q, v = step(q, v)
            if not (np.isfinite(q).all() and np.isfinite(v).all()):
                raise NonFiniteState(f"non-finite state at step {steps[s]} (t={times[s]:g})")
            qs[s], vs[s] = q, v

    return Trajectory(_frozen(times), _frozen(qs), _frozen(vs), potential, m)


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
    At most MAX_SAMPLES samples times bodies are kept.
    """
    if not isinstance(state0, PhaseState):
        raise ValidationError("state0", "expected a PhaseState")
    _, m = _bodies(state0.config, m)
    times = np.array(times, dtype=float, ndmin=1)
    _check_sample_budget(times.size, m.n, "times")
    omega = math.sqrt(m.total)
    q_cm, dq = _cm_offsets(state0.config.q, m.m)
    v_cm, dv = _cm_offsets(state0.v, m.m)
    tau = (times - state0.t)[:, None, None]
    c = np.cos(omega * tau)
    s = np.sin(omega * tau)
    q = q_cm + v_cm * tau + dq * c + dv * s / omega
    v = v_cm - omega * dq * s + dv * c
    return Trajectory(_frozen(times), _frozen(q), _frozen(v), PotentialSpec.harmonic(), m)


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
