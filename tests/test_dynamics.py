"""Integrators, conserved-quantity monitors, and the exact harmonic flow."""

import math

import numpy as np
import pytest

from harmonia import (
    IntegratorSpec,
    MassVector,
    NonFiniteState,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    Trajectory,
    ValidationError,
    accelerations,
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
from harmonia.dynamics import MAX_SAMPLES, MAX_STEPS
from conftest import central_difference_gradient, equilateral

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


def test_accelerations_rhombus():
    acc = accelerations(HARMONIC, RHOMBUS, M4)
    assert acc[0] == pytest.approx([0.0, -4.0], abs=1e-15)


def test_acceleration_vanishes_at_center_of_mass():
    config = PlanarConfiguration([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    masses = MassVector([2.0, 1.0, 1.0])
    acc = accelerations(HARMONIC, config, masses)
    assert acc[0] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_accelerations_match_force_oracle(draw_system):
    potential = PotentialSpec.newtonian()
    config, masses = draw_system(min_separation=1e-2)

    def value(q):
        return potential_energy(potential, PlanarConfiguration(q), masses)

    fd = central_difference_gradient(value, config.q)
    acc = accelerations(potential, config, masses)
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
    with pytest.raises(NonFiniteState):
        integrate(state, IntegratorSpec("rk4", 0.5, 400.0), spec, masses)


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
