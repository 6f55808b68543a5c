"""Integrators, conserved-quantity monitors, and the exact harmonic flow."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    CollisionSingularity,
    IntegratorSpec,
    MassVector,
    NonFiniteState,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    Trajectory,
    ValidationError,
    build_theorem2_state,
    energy_drift,
    harmonic_flow,
    integrate,
    potential_energy,
    rhombus_masses,
    rhombus_trajectory,
    rotating_re_trajectory,
    rotation,
    total_energy,
)
from harmonia import dynamics
from harmonia.cli import load_scenario
from harmonia.core import HARMONIC as HARMONIC_KIND, _inertia, _potential
from harmonia.dynamics import _CHUNK_ELEMENTS, MAX_SAMPLES, MAX_STEPS, _check_sample_budget
from conftest import central_difference_gradient, dense_pair_kernels, equilateral

ROOT = Path(__file__).resolve().parent.parent
RHOMBUS_RK4_SHA256 = "65d648252c17f10906dfd0387c858dbd1c59f2e1195abd06c5a4036f1fe913b7"
HARMONIC = PotentialSpec.harmonic()
M4 = rhombus_masses()
RHOMBUS = PlanarConfiguration([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
CENTERED_TRIANGLE = PlanarConfiguration(
    [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]])
M3 = MassVector([1.0, 1.0, 1.0])


def rhombus_closed_form(k, times):
    """Reference formula for the rhombus: bodies 1 and 4 at (0, +/- y1), 2 and 3 at
    (-/+ x3, 0), with y1 = sqrt(k/2) cos(2t) and x3 = sqrt(k/2) sin(2t)."""
    amp = math.sqrt(k / 2.0)
    qs, vs = [], []
    for t in times:
        c = math.cos(2.0 * float(t))
        s = math.sin(2.0 * float(t))
        y1, x3 = amp * c, amp * s
        vy1, vx3 = -2.0 * amp * s, 2.0 * amp * c
        qs.append([[0.0, y1], [-x3, 0.0], [x3, 0.0], [0.0, -y1]])
        vs.append([[0.0, vy1], [-vx3, 0.0], [vx3, 0.0], [0.0, -vy1]])
    return np.array(qs), np.array(vs)


def accelerations(potential, q, m):
    """The integrator's force: a_i = -(1/m_i) dU/dq_i, one row per body."""
    out = np.empty(np.shape(q))
    dynamics._acceleration_function(potential, m)(q, out)
    return out


def test_accelerations_rhombus():
    acc = accelerations(HARMONIC, RHOMBUS.q, M4)
    assert acc[0] == pytest.approx([0.0, -4.0], abs=1e-15)


def test_acceleration_vanishes_at_center_of_mass():
    config = PlanarConfiguration([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    masses = MassVector([2.0, 1.0, 1.0])
    acc = accelerations(HARMONIC, config.q, masses)
    assert acc[0] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_accelerations_match_force_oracle(draw_system):
    potential = PotentialSpec.newtonian()
    config, masses = draw_system(min_separation=1e-2)

    def value(q):
        return potential_energy(potential, PlanarConfiguration(q), masses)

    fd = central_difference_gradient(value, config.q)
    acc = accelerations(potential, config.q, masses)
    expected = -fd / masses.m[:, None]
    assert np.linalg.norm(acc - expected) <= 1e-6 * (1.0 + np.linalg.norm(acc))


def test_integrator_spec_rejects_bad_steps():
    with pytest.raises(ValidationError):
        IntegratorSpec("rk4", dt=0.0, t_end=1.0)
    with pytest.raises(ValidationError):
        IntegratorSpec("rk4", dt=-1e-3, t_end=1.0)
    with pytest.raises(ValidationError):
        IntegratorSpec("euler", dt=1e-3, t_end=1.0)
    with pytest.raises(ValidationError):
        IntegratorSpec("rk4", dt=1e-3, t_end=1.0, sample_stride=0)
    for stride in (math.nan, math.inf):
        with pytest.raises(ValidationError) as err:
            IntegratorSpec("rk4", dt=1e-3, t_end=1.0, sample_stride=stride)
        assert err.value.field == "sample_stride"


def test_integrator_spec_counts_steps():
    assert IntegratorSpec("rk4", 1e-3, 2.0 * math.pi).n_steps == 6283
    assert IntegratorSpec("rk4", 0.5, 0.5).n_steps == 1
    assert IntegratorSpec("rk4", 1.0, 1.4).n_steps == 1


def test_integrator_spec_step_budget():
    assert IntegratorSpec("rk4", 1.0, float(MAX_STEPS), sample_stride=100).n_steps == MAX_STEPS
    # 5e-324 is the smallest subnormal: t_end / dt is inf, not an int overflow,
    # and a numpy scalar dt does not overflow in numpy either
    for dt in (1.0 - 1e-9, 1e-300, 5e-324, np.float64(5e-324)):
        with pytest.raises(ValidationError) as err, np.errstate(over="raise"):
            IntegratorSpec("rk4", dt, float(MAX_STEPS), sample_stride=MAX_STEPS)
        assert err.value.field == "dt"


def test_integrator_spec_sample_budget():
    # MAX_SAMPLES - 1 steps at stride 1 keep MAX_SAMPLES samples, one more is over
    assert IntegratorSpec("rk4", 1.0, MAX_SAMPLES - 1.0, sample_stride=1).n_steps \
        == MAX_SAMPLES - 1
    with pytest.raises(ValidationError) as err:
        IntegratorSpec("rk4", 1.0, float(MAX_SAMPLES), sample_stride=1)
    assert err.value.field == "sample_stride"
    assert IntegratorSpec("rk4", 1.0, float(MAX_SAMPLES), sample_stride=2).n_steps \
        == MAX_SAMPLES


def test_sample_budget_counts_bodies_and_refuses_before_allocating():
    # 4001 samples of 300 bodies would hold 38 MB of q and v
    n = 300
    masses = MassVector(np.ones(n))
    state = PhaseState(np.zeros((n, 2)), np.zeros((n, 2)))
    spec = IntegratorSpec("velocity_verlet", 1.0, 4000.0, sample_stride=1)
    reason = f"run would retain 4001 samples of 300 bodies, over {MAX_SAMPLES} samples x bodies"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as stride:
            integrate(state, spec, HARMONIC, masses)
        with pytest.raises(ValidationError) as times:
            harmonic_flow(state, masses, np.arange(4001.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (stride.value.field, stride.value.reason) == ("sample_stride", reason)
    assert (times.value.field, times.value.reason) == ("times", reason)
    assert peak < 200_000
    _check_sample_budget(MAX_SAMPLES // n, n, "times")
    with pytest.raises(ValidationError):
        _check_sample_budget(MAX_SAMPLES // n + 1, n, "times")


def test_integrate_holds_its_samples_once():
    # the trajectory keeps the arrays integrate filled, not copies of them
    state = PhaseState(equilateral(), np.zeros((3, 2)))
    tracemalloc.start()
    try:
        traj = integrate(state, IntegratorSpec("velocity_verlet", 1e-3, 2.0, sample_stride=1),
                         HARMONIC, M3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 2001
    assert peak < 1.5 * (traj.q.nbytes + traj.v.nbytes)


def test_trajectory_copies_writable_arrays_and_keeps_read_only_ones():
    times = np.array([0.0, 1.0])
    q = np.zeros((2, 3, 2))
    v = np.zeros((2, 3, 2))
    v.setflags(write=False)
    traj = Trajectory(times, q, v, HARMONIC, M3)
    assert traj.q is not q and q.flags.writeable and not traj.q.flags.writeable
    assert traj.times is not times and times.flags.writeable
    assert traj.v is v


@st.composite
def chunked_trajectories(draw):
    """n = 16..40 bodies at sample counts next to a multiple of the chunk size."""
    n = draw(st.integers(16, 40))
    chunk = _CHUNK_ELEMENTS // (n * n)
    size = draw(st.sampled_from([chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-5, 5))
    return (scale * rng.uniform(-1.0, 1.0, (size, n, 2)), MassVector(rng.uniform(0.1, 10.0, n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(system=chunked_trajectories())
def test_chunked_series_equal_the_one_configuration_calls(system):
    q, masses = system
    times = np.arange(float(len(q)))
    assert Trajectory(times, q, q, HARMONIC, masses).inertia.tolist() \
        == [_inertia(row, masses.m) for row in q]
    for potential in (PotentialSpec.newtonian(), PotentialSpec.power(-2.0, 1.0),
                      PotentialSpec.power(1.5, 0.5)):
        assert Trajectory(times, q, q, potential, masses).potential_energy.tolist() \
            == [_potential(potential, row, masses.m) for row in q]


def test_collision_in_a_chunked_potential_series_names_the_per_sample_loops_pair(rng):
    # the collisions sit in the third chunk, the later one closer and earlier in pair order
    n = 20
    chunk = _CHUNK_ELEMENTS // n ** 2
    q = rng.uniform(-1.0, 1.0, (4 * chunk, n, 2))
    q[2 * chunk + 1, 7] = q[2 * chunk + 1, 3]
    q[2 * chunk, 9] = q[2 * chunk, 18] + [0.0, 2e-13]
    masses = MassVector(np.ones(n))
    for potential in (PotentialSpec.newtonian(), PotentialSpec.power(-2.0, 1.0)):
        with pytest.raises(CollisionSingularity) as per_sample:
            for row in q:
                _potential(potential, row, masses.m)
        with pytest.raises(CollisionSingularity) as series:
            Trajectory(np.arange(float(len(q))), q, q, potential, masses).potential_energy
        assert str(series.value) == str(per_sample.value) \
            == "bodies 10 and 19 separated by 2.000e-13"


def test_two_body_matches_closed_form():
    # with total mass 2 and the center of mass at rest at the origin each
    # body obeys q'' = -2 q, so q(t) = q(0) cos(sqrt(2) t)
    config = PlanarConfiguration([[-1.0, 0.0], [1.0, 0.0]])
    masses = MassVector([1.0, 1.0])
    state = PhaseState(config, np.zeros((2, 2)))
    traj = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0 * math.pi), HARMONIC, masses)
    expected = config.q * np.cos(math.sqrt(2.0) * traj.times)[:, None, None]
    assert float(np.abs(traj.q - expected).max()) <= 1e-8


def test_rk4_matches_rhombus_closed_form():
    traj = integrate(build_theorem2_state(1.0), IntegratorSpec("rk4", 1e-3, 2.0 * math.pi),
                     HARMONIC, M4)
    expected, _ = rhombus_closed_form(1.0, traj.times)
    assert float(np.abs(traj.q - expected).max()) <= 1e-6


def test_integration_passes_through_collisions():
    # bodies coincide at t = pi/4 and pi/2; the harmonic flow is smooth there
    traj = integrate(build_theorem2_state(1.0),
                     IntegratorSpec("rk4", 1e-3, 0.5 * math.pi + 0.1), HARMONIC, M4)
    expected, _ = rhombus_closed_form(1.0, traj.times)
    assert float(np.abs(traj.q - expected).max()) <= 1e-6


def test_nonfinite_state_detected():
    # an exploding power-law potential overflows quickly at this step size
    config = PlanarConfiguration([[-1.0, 0.0], [1.0, 0.0]])
    masses = MassVector([1.0, 1.0])
    state = PhaseState(config, np.zeros((2, 2)))
    spec = PotentialSpec.power(9.0, 100.0)
    # finiteness is tested on retained samples (every 10th step): the first one
    # at or after the blow-up is named
    with pytest.raises(NonFiniteState, match=r"step 10 \(t=5\)") as err:
        integrate(state, IntegratorSpec("rk4", 0.5, 400.0), spec, masses)
    assert (err.value.step, err.value.t) == (10, 5.0)
    assert type(err.value.step) is int and type(err.value.t) is float


def test_integrator_keeps_the_absolute_collision_threshold():
    # the CC path scales COLLISION_EPS by the configuration's size; the integrator does not
    state = PhaseState(equilateral().q * 1e-13, np.zeros((3, 2)))
    with pytest.raises(CollisionSingularity) as err:
        integrate(state, IntegratorSpec("velocity_verlet", 0.1, 0.1), PotentialSpec.newtonian(),
                  MassVector(np.ones(3)))
    assert str(err.value) == "bodies 1 and 2 separated by 1.000e-13"
    assert err.value.pair == (1, 2) and err.value.separation == pytest.approx(1e-13, rel=1e-15)


def test_integrator_names_a_tied_collision_in_row_major_order():
    # bodies 1 and 5, and 2 and 3, are 1e-13 apart; the gradient's anti-diagonal pair
    # order meets (2, 3) first, but the error names the first pair in row-major order
    q = [[0.0, 0.0], [0.0, 5.0], [1e-13, 5.0], [3.0, 3.0], [1e-13, 0.0]]
    state = PhaseState(q, np.zeros((5, 2)))
    for method in ("velocity_verlet", "rk4"):
        with pytest.raises(CollisionSingularity) as err:
            integrate(state, IntegratorSpec(method, 0.1, 0.1), PotentialSpec.newtonian(),
                      MassVector(np.ones(5)))
        assert str(err.value) == "bodies 1 and 5 separated by 1.000e-13"
        assert err.value.pair == (1, 5) and err.value.separation == 1e-13


@pytest.mark.parametrize("method, calls", [("velocity_verlet", 15 + 1), ("rk4", 4 * 15)])
def test_integrators_make_a_fixed_number_of_kernel_calls(monkeypatch, method, calls):
    # one pair-kernel call to start and one per step for Verlet, four per step for rk4,
    # none past the last step; 15 steps at stride 10 keep steps 0, 10 and 15
    kernel = dynamics._gradient_rows
    seen = []

    def counted(*args):
        seen.append(1)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_gradient_rows", counted)
    state = PhaseState(equilateral(), np.zeros((3, 2)))
    traj = integrate(state, IntegratorSpec(method, 0.01, 0.15), PotentialSpec.newtonian(), M3)
    assert len(seen) == calls
    assert traj.times.tolist() == [0.0, 10 * 0.01, 15 * 0.01]


def textbook_integrate(state0, spec, potential, m):
    """``integrate`` with q and v held apart: the tuple-returning steppers and the
    sampling loop written term by term, the oracle of the stacked (q, v, a) state, with
    the pair forces of the dense-form oracle rather than of the kernel under test."""
    mass, total = m.m, m.total
    if potential.kind == HARMONIC_KIND:
        def accel(q):
            return (mass @ q) - total * q
    else:
        inv = 1.0 / mass[:, None]

        def accel(q):
            return -inv * dense_pair_kernels(potential, q, mass)[0]

    dt = spec.dt
    half, sixth = 0.5 * dt, dt / 6.0
    q, v = np.array(state0.config.q), np.array(state0.v)
    a = accel(q)

    def verlet(q, v):
        nonlocal a
        v += half * a
        q += dt * v
        a = accel(q)
        v += half * a
        return q, v

    def rk4(q, v):
        k1v = accel(q)
        k2v = accel(q + half * v)
        k2q = v + half * k1v
        k3v = accel(q + half * k2q)
        k3q = v + half * k2v
        k4v = accel(q + dt * k3q)
        k4q = v + dt * k3v
        return (q + sixth * (v + 2.0 * k2q + 2.0 * k3q + k4q),
                v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    step = verlet if spec.method == "velocity_verlet" else rk4
    steps = np.minimum(spec.sample_stride * np.arange(-(-spec.n_steps // spec.sample_stride) + 1),
                       spec.n_steps)
    qs, vs = [q.copy()], [v.copy()]
    for s in range(1, steps.size):
        for _ in range(steps[s] - steps[s - 1]):
            q, v = step(q, v)
        qs.append(q.copy())
        vs.append(v.copy())
    return state0.t + steps * dt, np.array(qs), np.array(vs)


@st.composite
def drifting_systems(draw):
    """n = 2..40 bodies of random masses around a moving center of mass, and a stride."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masses = MassVector(rng.uniform(0.2, 5.0, n))
    q = rng.uniform(-1.0, 1.0, (n, 2)) + rng.uniform(-5.0, 5.0, 2)
    v = rng.uniform(-0.5, 0.5, (n, 2)) + rng.uniform(-1.0, 1.0, 2)
    return PhaseState(q, v, rng.uniform(-1.0, 1.0)), masses, draw(st.integers(1, 7))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(system=drifting_systems())
def test_stacked_state_steps_bit_for_bit_as_the_textbook_form(system):
    state, masses, stride = system
    for method in ("velocity_verlet", "rk4"):
        spec = IntegratorSpec(method, 1e-3, 0.02, sample_stride=stride)
        for potential in (HARMONIC, PotentialSpec.newtonian(), PotentialSpec.power(1.5, 1.0),
                          PotentialSpec.power(-2.0, 1.0)):
            traj = integrate(state, spec, potential, masses)
            times, q, v = textbook_integrate(state, spec, potential, masses)
            # bytes, not values, so that -0.0 and +0.0 differ too
            assert traj.times.tobytes() == times.tobytes()
            assert traj.q.tobytes() == q.tobytes()
            assert traj.v.tobytes() == v.tobytes()


@st.composite
def stage_positions(draw):
    """An (n, 2) position block as the rk4 stepper passes it to the harmonic force, the
    state's q or one stage's q_s, for n = 2..300 bodies of unit or random masses; some
    coordinates are signed zeros."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mass = np.ones(n) if draw(st.booleans()) else rng.uniform(0.2, 5.0, n)
    state = np.empty((3, n, 2))
    stages = np.empty((3, 3, n, 2))
    q = state[0] if draw(st.booleans()) else stages[draw(st.integers(0, 2)), 0]
    q[...] = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-8.0, 8.0) + rng.uniform(-5.0, 5.0, 2)
    q[rng.random((n, 2)) < 0.2] = -0.0
    q[rng.random((n, 2)) < 0.1] = 0.0
    return mass, q


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=stage_positions())
def test_harmonic_force_dot_rounds_as_matmul(case):
    # the harmonic force takes sum_j m_j q_j through np.dot; the textbook step, the oracle
    # above, through mass @ q; the stepper is bit for bit only while the two round alike
    mass, q = case
    assert q.flags.c_contiguous
    assert np.dot(mass, q).tobytes() == (mass @ q).tobytes(), (
        "np.dot(mass, q) no longer rounds as mass @ q: the harmonic rk4 and Verlet steps "
        "are no longer bit for bit the textbook step")


def test_rhombus_rk4_trajectory_bytes_are_golden():
    # q and v of all 630 samples of the shipped rhombus; they hash alike under the SkylakeX,
    # Haswell and Prescott OpenBLAS kernels, which the CSV's energy column does not
    scenario = load_scenario(ROOT / "scenarios" / "theorem2_rhombus.json")
    traj = integrate(scenario.state, scenario.integrator, scenario.potential, scenario.masses)
    assert len(traj) == 630
    assert hashlib.sha256(traj.q.tobytes() + traj.v.tobytes()).hexdigest() == \
        RHOMBUS_RK4_SHA256


def test_energy_drift_on_exact_trajectory():
    times = np.linspace(0.0, 2.0 * math.pi, 2001)
    traj = rhombus_trajectory(1.0, times)
    assert energy_drift(traj) <= 1e-12


def test_energy_series_is_bit_identical_to_total_energy_per_sample(rng):
    # the series is one stacked pass; each entry rounds as the one-sample total does
    for n in [*range(2, 9), 30]:
        masses = MassVector(rng.uniform(0.1, 10.0, size=n))
        q = rng.normal(size=(4, n, 2)) * 10.0 ** rng.uniform(-4.0, 4.0)
        v = rng.normal(size=(4, n, 2)) * 10.0 ** rng.uniform(-4.0, 4.0)
        for potential in (HARMONIC, PotentialSpec.newtonian()):
            traj = Trajectory(np.arange(4.0), q, v, potential, masses)
            assert traj.energy.tolist() == [
                total_energy(potential, PhaseState(x, y), masses) for x, y in zip(q, v)]


def test_energy_drift_single_sample():
    traj = rhombus_trajectory(1.0, [0.0])
    assert energy_drift(traj) == 0.0


def test_verlet_drift_bounded():
    traj = integrate(build_theorem2_state(1.0),
                     IntegratorSpec("velocity_verlet", 1e-3, 2.0 * math.pi), HARMONIC, M4)
    assert energy_drift(traj) < 1e-6


def test_rk4_drift_bounded():
    traj = integrate(build_theorem2_state(1.0), IntegratorSpec("rk4", 1e-3, 2.0 * math.pi),
                     HARMONIC, M4)
    assert energy_drift(traj) < 1e-8


def test_verlet_time_reversible():
    state = build_theorem2_state(1.0)
    spec = IntegratorSpec("velocity_verlet", 1e-3, 10.0, sample_stride=10 ** 6)
    forward = integrate(state, spec, HARMONIC, M4)
    back = integrate(PhaseState(forward.q[-1], -forward.v[-1], 0.0), spec, HARMONIC, M4)
    assert np.abs(back.q[-1] - state.config.q).max() <= 1e-9


def test_closed_form_rhombus_values():
    traj = rhombus_trajectory(1.0, [0.0, math.pi / 4.0])
    amp = math.sqrt(0.5)
    assert traj.q[0] == pytest.approx(
        np.array([[0.0, amp], [0.0, 0.0], [0.0, 0.0], [0.0, -amp]]), abs=1e-15)
    assert traj.v[0][2] == pytest.approx([math.sqrt(2.0), 0.0], abs=1e-15)
    quarter = traj.q[1]
    assert quarter[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert quarter[3] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert quarter[2] == pytest.approx([amp, 0.0], abs=1e-12)


def test_closed_form_inertia_constant():
    assert rhombus_trajectory(1.0, [0.0, 0.3, 1.7]).inertia == pytest.approx(
        np.ones(3), rel=1e-12)
    times = np.linspace(0.0, 2.0 * math.pi, 10 ** 4)
    inertia = rhombus_trajectory(5.0, times).inertia
    assert float(np.abs(inertia - 5.0).max()) <= 1e-12 * 5.0


def test_closed_form_satisfies_equations_of_motion():
    amp = math.sqrt(0.5)
    traj = rhombus_trajectory(1.0, np.linspace(0.0, 2.0 * math.pi, 101))
    for t, q in zip(traj.times, traj.q):
        acc = accelerations(HARMONIC, q, M4)
        assert acc[0][1] == pytest.approx(-4.0 * amp * math.cos(2.0 * t), abs=1e-12)
        assert acc[2][0] == pytest.approx(-4.0 * amp * math.sin(2.0 * t), abs=1e-12)


def test_closed_form_rejects_bad_k():
    for k in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            rhombus_trajectory(k, [1.0])


@pytest.mark.parametrize("k", [0.1, 1.0, 3.7, 10.0])
def test_harmonic_flow_reproduces_rhombus_formula(k):
    times = np.linspace(0.0, 2.0 * math.pi, 1001)
    traj = harmonic_flow(build_theorem2_state(k), M4, times)
    q, v = rhombus_closed_form(k, times)
    assert np.array_equal(traj.q, q)
    assert np.array_equal(traj.v, v)


def test_rotating_solution_identity_at_t0():
    tri = equilateral()
    masses = MassVector([1.0, 1.0, 1.0])
    centered = PlanarConfiguration(tri.q - [0.5, math.sqrt(3.0) / 6.0])
    traj = rotating_re_trajectory(centered, masses, [0.0])
    assert traj.q[0] == pytest.approx(centered.q, abs=1e-15)
    # tangential velocities: v is perpendicular to q with speed sqrt(M) |q|
    dots = (traj.v[0] * traj.q[0]).sum(axis=1)
    assert dots == pytest.approx(np.zeros(3), abs=1e-12)


def test_rotating_solution_full_period():
    traj = rotating_re_trajectory(CENTERED_TRIANGLE, M3, [0.0, 2.0 * math.pi / math.sqrt(3.0)])
    assert traj.q[-1] == pytest.approx(CENTERED_TRIANGLE.q, abs=1e-12)


def test_rotating_solution_spins_about_its_own_cm():
    # the equilateral triangle's center of mass is (0.5, sqrt(3)/6), off the origin
    tri = equilateral()
    q_cm = np.array([0.5, math.sqrt(3.0) / 6.0])
    times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 101)
    traj = rotating_re_trajectory(tri, M3, times)
    expected = np.array([q_cm + (tri.q - q_cm) @ rotation(math.sqrt(3.0) * t).T
                         for t in times])
    assert float(np.abs(traj.q - expected).max()) <= 1e-14
    assert float(np.abs(traj.v.sum(axis=1)).max()) <= 1e-14


def test_rotating_control_matches_rotation_formula():
    times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 1001)
    traj = rotating_re_trajectory(CENTERED_TRIANGLE, M3, times)
    expected = np.array([CENTERED_TRIANGLE.q @ rotation(math.sqrt(3.0) * t).T for t in times])
    assert float(np.abs(traj.q - expected).max()) <= 1e-15


def test_rotating_solution_matches_integration():
    period = 2.0 * math.pi / math.sqrt(3.0)
    start = rotating_re_trajectory(CENTERED_TRIANGLE, M3, [0.0])
    traj = integrate(PhaseState(start.q[0], start.v[0]),
                     IntegratorSpec("rk4", 1e-3, period), HARMONIC, M3)
    expected = rotating_re_trajectory(CENTERED_TRIANGLE, M3, traj.times).q
    assert float(np.abs(traj.q - expected).max()) <= 1e-8


def test_rk4_matches_harmonic_flow_with_drifting_center_of_mass(rng):
    # unequal masses, center of mass off the origin and moving: a case
    # neither the rhombus nor the rotating control covers
    masses = MassVector(rng.uniform(0.5, 3.0, size=5))
    q0 = rng.uniform(-1.0, 1.0, size=(5, 2)) + np.array([3.0, -2.0])
    v0 = rng.uniform(-1.0, 1.0, size=(5, 2)) + np.array([0.5, 0.25])
    state = PhaseState(q0, v0, 0.5)
    assert np.hypot(*(masses.m @ v0)) > 0.1
    period = 2.0 * math.pi / math.sqrt(masses.total)
    traj = integrate(state, IntegratorSpec("rk4", 1e-3, period), HARMONIC, masses)
    exact = harmonic_flow(state, masses, traj.times)
    assert float(np.abs(traj.q - exact.q).max()) <= 1e-8
    assert float(np.abs(traj.v - exact.v).max()) <= 1e-8
    assert exact.q[0] == pytest.approx(q0, abs=1e-14)
    assert exact.v[0] == pytest.approx(v0, abs=1e-14)


def test_trajectory_requires_increasing_times():
    q = np.array([RHOMBUS.q, RHOMBUS.q])
    with pytest.raises(ValidationError):
        Trajectory([0.0, 0.0], q, np.zeros_like(q), HARMONIC, M4)


def test_trajectory_rejects_nonfinite_sample():
    q = np.array([RHOMBUS.q, RHOMBUS.q])
    v = np.zeros_like(q)
    bad_q = q.copy()
    bad_q[1, 2, 0] = math.nan
    bad_v = v.copy()
    bad_v[0, 1, 1] = math.inf
    for times, qq, vv, field in (([0.0, 1.0], bad_q, v, "q"), ([0.0, 1.0], q, bad_v, "v"),
                                 ([0.0, math.inf], q, v, "times")):
        with pytest.raises(ValidationError) as err:
            Trajectory(times, qq, vv, HARMONIC, M4)
        assert err.value.field == field


def test_trajectory_rejects_shape_mismatch():
    q = np.array([RHOMBUS.q, RHOMBUS.q])
    cases = (
        ([0.0, 1.0], q[:, :3], np.zeros((2, 3, 2)), "q"),   # body count differs from masses
        ([0.0, 1.0, 2.0], q, np.zeros_like(q), "q"),        # sample count differs from times
        ([0.0, 1.0], q, np.zeros((2, 4, 3)), "v"),
        ([], q[:0], q[:0], "times"),
    )
    for times, qq, vv, field in cases:
        with pytest.raises(ValidationError) as err:
            Trajectory(times, qq, vv, HARMONIC, M4)
        assert err.value.field == field


def test_sampling_stride_keeps_endpoints():
    traj = integrate(build_theorem2_state(1.0),
                     IntegratorSpec("rk4", 0.1, 1.05, sample_stride=3), HARMONIC, M4)
    # 10 steps: samples at 0, 3, 6, 9 and the final step 10
    assert [round(t, 10) for t in traj.times] == [0.0, 0.3, 0.6, 0.9, 1.0]


def test_rotating_trajectory_helper():
    traj = rotating_re_trajectory(CENTERED_TRIANGLE, M3, np.linspace(0.0, 1.0, 11))
    assert len(traj) == 11
    assert traj.times[0] == 0.0
