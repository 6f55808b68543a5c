"""Equations of motion, fixed-step integrators, and the exact harmonic flow.

Two integrators are provided: velocity_verlet (symplectic, time reversible)
and rk4 (classical fourth order). Both step one (3, n, 2) state (q, v, a) in
place; rk4 forms each stage's q and v together, with the textbook step's
operations in its order, so it is bit for bit that step on q and v apart. Its
step constants are 0-d arrays and its stages, products and partial sums go to
buffers made once per run, so only the force makes temporaries. The
harmonic equations of motion are linear, so ``harmonic_flow`` solves them
exactly for any initial state; the rhombus counterexample and the rigidly
rotating control are two of its solutions. Collisions of the harmonic flow
are not singular; bodies pass through each other. Every solution is
returned as a ``Trajectory``, one set of arrays over the retained samples.
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
    _number,
    _positive,
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
        dt = _positive(self.dt, "dt", "step size must be positive")
        t_end, stride = (_number(getattr(self, name), name) for name in ("t_end", "sample_stride"))
        if not dt <= t_end < math.inf:
            raise ValidationError("t_end", "must cover at least one step")
        if not 1.0 <= stride < math.inf or int(stride) != stride:
            raise ValidationError("sample_stride", "must be a positive integer")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "sample_stride", int(stride))
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
    mass, total = m.m, m.total
    if potential.kind == HARMONIC:
        # a_i = -M (q_i - q_cm), independent of the body's own mass; np.dot reaches the
        # same BLAS gemv as mass @ q with less dispatch, and M q goes into one buffer
        # (a ufunc's third argument is its output)
        total = np.array(total)
        scaled = np.empty((m.n, 2))
        dot, multiply, subtract = np.dot, np.multiply, np.subtract

        def accel(q: np.ndarray, out: np.ndarray) -> None:
            subtract(dot(mass, q), multiply(total, q, scaled), out)

        return accel

    neg_inv = -(1.0 / mass[:, None])

    def accel(q: np.ndarray, out: np.ndarray) -> None:
        np.multiply(neg_inv, _gradient_rows(potential, q, mass), out=out)

    return accel


def _verlet_stepper(accel, w: np.ndarray, dt: float):
    """Velocity Verlet ``step()`` on the state ``w`` = (q, v, a), in place; it
    carries a, so each step makes one ``accel`` call after the first at q."""
    q, v, a = w
    accel(q, a)
    half = 0.5 * dt

    def step() -> None:
        np.add(v, half * a, out=v)
        np.add(q, dt * v, out=q)
        accel(q, a)
        np.add(v, half * a, out=v)

    return step


def _rk4_stepper(accel, w: np.ndarray, dt: float):
    """Classical Runge-Kutta ``step()`` on ``w`` = (q, v, a), in place, with four
    ``accel`` calls. y = w[:2] = (q, v) has the derivative k1 = w[1:] = (v, a(q));
    each stage forms y + c k in a buffer z = (q_s, v_s, a(q_s)), whose slope is
    z[1:]. The step constants are 0-d arrays, and every product and partial sum
    goes into one of two scratch buffers made here, so only ``accel`` allocates.
    Every element takes the textbook step's IEEE operations in its order and the
    harmonic gemv is the one reduction, so each step is bit-identical to it."""
    half, full, sixth, two = (np.array(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    q, a, y, k1 = w[0], w[2], w[:2], w[1:]
    (y2, q2, a2, k2), (y3, q3, a3, k3), (y4, q4, a4, k4) = (
        (z[:2], z[0], z[2], z[1:]) for z in np.empty((3, *w.shape)))
    s, t = np.empty((2, *y.shape))
    add, multiply = np.add, np.multiply

    # each ufunc's third argument is its output
    def step() -> None:
        accel(q, a)
        add(y, multiply(half, k1, s), y2)
        accel(q2, a2)
        add(y, multiply(half, k2, s), y3)
        accel(q3, a3)
        add(y, multiply(full, k3, s), y4)
        accel(q4, a4)
        # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
        add(k1, multiply(two, k2, s), s)
        add(s, multiply(two, k3, t), s)
        add(s, k4, s)
        add(y, multiply(sixth, s, s), y)

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

    w = np.stack([state0.config.q, state0.v, np.empty((m.n, 2))])
    qs = np.empty((steps.size, m.n, 2))
    vs = np.empty_like(qs)
    qs[0], vs[0] = w[:2]

    # overflow on a diverging state is reported through NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        step = (_verlet_stepper if integrator.method == VELOCITY_VERLET else _rk4_stepper)(
            accel, w, dt)
        for s in range(1, steps.size):
            for _ in range(steps[s] - steps[s - 1]):
                step()
            if not np.isfinite(w[:2]).all():
                raise NonFiniteState(f"non-finite state at step {steps[s]} (t={times[s]:g})",
                                     int(steps[s]), float(times[s]))
            qs[s], vs[s] = w[:2]

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
    amp = math.sqrt(_positive(k, "k", "must be positive") / 2.0)
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
