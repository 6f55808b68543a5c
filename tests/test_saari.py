"""Rigid-motion fitting, inertia monitoring, and the counterexample verifier."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmonia import (
    CONSTANT_INERTIA_NOT_RE,
    RELATIVE_EQUILIBRIUM,
    VARYING_INERTIA,
    IntegratorSpec,
    MassVector,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    Trajectory,
    ValidationError,
    ZeroInertia,
    build_theorem2_state,
    harmonic_flow,
    inertia_variation,
    integrate,
    is_relative_equilibrium,
    moment_of_inertia,
    rhombus_masses,
    rhombus_trajectory,
    rotating_re_trajectory,
    rotation,
    saari_check,
    total_energy,
    verify_counterexample,
)
from harmonia.core import _cm_offsets, _pair_offsets
from harmonia.saari import _best_rotation, _rigid_residuals

HARMONIC = PotentialSpec.harmonic()
M4 = rhombus_masses()

CENTERED_TRIANGLE = PlanarConfiguration(
    [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]])
M3 = MassVector([1.0, 1.0, 1.0])


def oracle_fit_residual(a, b, masses, steps=20000):
    """Brute-force scan over angles and both determinant branches."""
    w = masses.m
    best = math.inf
    flip = np.diag([1.0, -1.0])
    for theta in np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False):
        rot = rotation(float(theta))
        for omega in (rot, rot @ flip):
            d = a.q - b.q @ omega.T
            best = min(best, float(w @ (d * d).sum(axis=1)))
    return math.sqrt(best / float(w.sum()))


def test_rigid_fit_identity():
    assert _rigid_residuals(CENTERED_TRIANGLE.q, CENTERED_TRIANGLE.q, M3) == 0.0


def test_rigid_fit_recovers_exact_rotation(rng):
    config = PlanarConfiguration(rng.uniform(-3, 3, size=(5, 2)))
    masses = MassVector(rng.uniform(0.5, 4.0, size=5))
    assert _rigid_residuals(config.q @ rotation(math.pi / 2.0).T, config.q, masses) <= 1e-12


def test_rigid_fit_recovers_random_orthogonal_maps(rng):
    flip = np.diag([1.0, -1.0])
    for _ in range(100):
        n = int(rng.integers(2, 7))
        config = PlanarConfiguration(rng.uniform(-5, 5, size=(n, 2)))
        masses = MassVector(rng.uniform(0.1, 10.0, size=n))
        angle = float(rng.uniform(0, 2 * math.pi))
        reflect = bool(rng.integers(0, 2))
        omega = rotation(angle) @ flip if reflect else rotation(angle)
        residual = _rigid_residuals(config.q @ omega.T, config.q, masses)
        scale = math.sqrt(moment_of_inertia(config, masses))
        assert residual <= 1e-12 * max(1.0, scale)


def test_rigid_fit_rhombus_quarter_turn_defect():
    traj = rhombus_trajectory(1.0, [0.0, math.pi / 4.0])
    a = PlanarConfiguration(traj.q[1])
    b = PlanarConfiguration(traj.q[0])
    residual = _rigid_residuals(a.q, b.q, M4)
    assert residual > 0.0
    # the label pattern swaps which pair is extended, so no orthogonal map
    # fits; the oracle scan agrees with the closed-form minimum
    assert residual == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert residual <= oracle_fit_residual(a, b, M4) + 1e-6


def test_rigid_fit_invariant_under_joint_rotation(rng):
    config = rng.uniform(-2, 2, size=(4, 2))
    other = rng.uniform(-2, 2, size=(4, 2))
    masses = MassVector(rng.uniform(0.5, 2.0, size=4))
    base = _rigid_residuals(config, other, masses)
    for angle in (0.4, 1.9, 5.0):
        turn = rotation(angle).T
        assert abs(_rigid_residuals(config @ turn, other @ turn, masses) - base) <= 1e-12


def test_rigid_fit_degenerate_reference():
    residual = _rigid_residuals(CENTERED_TRIANGLE.q, np.zeros((3, 2)), M3)
    assert residual == pytest.approx(1.0, rel=1e-12)  # sqrt(I_cart / M)


def test_inertia_variation_closed_form():
    traj = rhombus_trajectory(1.0, np.linspace(0.0, 2.0 * math.pi, 2001))
    assert inertia_variation(traj) <= 1e-12


def test_inertia_variation_single_sample():
    traj = rhombus_trajectory(1.0, [0.0])
    assert inertia_variation(traj) == 0.0


def test_inertia_variation_generic_trajectory(rng):
    config = PlanarConfiguration(rng.uniform(-1.5, 1.5, size=(3, 2)))
    state = PhaseState(config, rng.uniform(-1.0, 1.0, size=(3, 2)))
    traj = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0), HARMONIC, M3)
    assert inertia_variation(traj) > 1e-3


def test_inertia_variation_zero_inertia():
    traj = Trajectory([0.0], np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), HARMONIC,
                      MassVector([1.0, 1.0]))
    with pytest.raises(ZeroInertia):
        inertia_variation(traj)


def test_rotating_control_is_relative_equilibrium():
    times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 257)
    traj = rotating_re_trajectory(CENTERED_TRIANGLE, M3, times)
    result = is_relative_equilibrium(traj, tol=1e-6)
    assert result.is_re
    assert result.defect <= 1e-9
    # necessary condition: mutual distances essentially frozen
    assert result.max_pair_variation <= 10.0 * 1e-6 * math.sqrt(
        moment_of_inertia(CENTERED_TRIANGLE, M3))


def test_rhombus_is_not_relative_equilibrium():
    traj = rhombus_trajectory(1.0, np.linspace(0.0, 2.0 * math.pi, 1001))
    result = is_relative_equilibrium(traj, tol=1e-6)
    assert not result.is_re
    assert result.worst_pair == (1, 4)
    # r14 = 2 |y1| swings between 0 and sqrt(2k)
    assert result.max_pair_variation == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_constant_trajectory_is_relative_equilibrium():
    state = build_theorem2_state(1.0)
    traj = Trajectory([0.0, 0.5, 1.0], np.repeat(state.config.q[None], 3, axis=0),
                      np.repeat(state.v[None], 3, axis=0), HARMONIC, M4)
    result = is_relative_equilibrium(traj, tol=1e-6)
    assert result.is_re
    assert result.defect == 0.0


def test_r14_swing_matches_cosine_law():
    k = 3.7
    times = np.linspace(0.0, 2.0 * math.pi, 1001)
    traj = rhombus_trajectory(k, times)
    pos = traj.q
    r14_sq = ((pos[:, 0, :] - pos[:, 3, :]) ** 2).sum(axis=1)
    expected = 2.0 * k * np.cos(2.0 * times) ** 2
    assert np.abs(r14_sq - expected).max() <= 1e-12 * k


def test_saari_check_classifications(rng):
    rhombus = rhombus_trajectory(1.0, np.linspace(0.0, 2.0 * math.pi, 501))
    assert saari_check(rhombus).classification == CONSTANT_INERTIA_NOT_RE

    rotating = rotating_re_trajectory(
        CENTERED_TRIANGLE, M3, np.linspace(0.0, 3.0, 301))
    assert saari_check(rotating).classification == RELATIVE_EQUILIBRIUM

    config = PlanarConfiguration(rng.uniform(-1.5, 1.5, size=(3, 2)))
    state = PhaseState(config, rng.uniform(-1.0, 1.0, size=(3, 2)))
    generic = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0), HARMONIC, M3)
    assert saari_check(generic).classification == VARYING_INERTIA


def test_saari_report_consistency():
    # 1000 intervals put both t = 0 and t = pi/4 on the grid, so the pair
    # variations tie exactly and the certificate names the first pair
    report = saari_check(rhombus_trajectory(1.0, np.linspace(0.0, 2.0 * math.pi, 1001)))
    assert report.inertia_variation <= report.tol_inertia
    assert report.rigidity_defect > report.tol_rigidity
    assert report.certificate_pair == (1, 4)


@pytest.mark.parametrize("drift", [0.0, 0.3])
def test_shifted_and_drifting_two_body_rotation_is_relative_equilibrium(drift):
    # the centered orbit moved to (5, 0), at rest or drifting: a fit about the
    # origin called both constant_inertia_not_re, with defect 2.0 and 2.69
    s2 = math.sqrt(2.0)
    state = PhaseState([[4.0, 0.0], [6.0, 0.0]], [[drift, -s2], [drift, s2]])
    masses = MassVector([1.0, 1.0])
    traj = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0 * math.pi), HARMONIC, masses)
    report = saari_check(traj)
    assert report.classification == RELATIVE_EQUILIBRIUM
    assert report.rigidity_defect <= 1e-12


def rigid_motion(state, masses, shift, boost, angle, order):
    """The state translated, boosted, rotated and relabelled; its masses relabelled too."""
    turn = rotation(angle).T
    q = (state.config.q + shift) @ turn
    v = (state.v + boost) @ turn
    return PhaseState(q[order], v[order]), MassVector(masses.m[order])


def rotating_control_state():
    start = rotating_re_trajectory(CENTERED_TRIANGLE, M3, [0.0])
    return PhaseState(start.q[0], start.v[0])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), control=st.booleans(),
       shift=st.tuples(*[st.floats(-100.0, 100.0)] * 2),
       boost=st.tuples(*[st.floats(-5.0, 5.0)] * 2),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_saari_check_ignores_the_frame(data, control, shift, boost, angle):
    state, masses = (rotating_control_state(), M3) if control \
        else (build_theorem2_state(1.0), M4)
    order = np.array(data.draw(st.permutations(range(masses.n))))
    times = np.linspace(0.0, 2.0 * math.pi, 201)
    base = saari_check(harmonic_flow(state, masses, times))
    moved = saari_check(harmonic_flow(*rigid_motion(state, masses, shift, boost, angle, order),
                                      times))
    assert base.classification == (RELATIVE_EQUILIBRIUM if control else CONSTANT_INERTIA_NOT_RE)
    assert moved.classification == base.classification
    scale = math.sqrt(moment_of_inertia(state.config, masses))
    assert abs(moved.rigidity_defect - base.rigidity_defect) <= 1e-9 * scale


def test_build_theorem2_state_values():
    state = build_theorem2_state(1.0)
    amp = math.sqrt(0.5)
    assert state.config.q == pytest.approx(
        np.array([[0.0, amp], [0.0, 0.0], [0.0, 0.0], [0.0, -amp]]), abs=1e-15)
    assert state.v == pytest.approx(
        np.array([[0.0, 0.0], [-math.sqrt(2.0), 0.0], [math.sqrt(2.0), 0.0], [0.0, 0.0]]),
        abs=1e-15)
    assert moment_of_inertia(state.config, M4) == pytest.approx(1.0, rel=1e-15)


def test_theorem2_energy_constant_along_flow():
    state = build_theorem2_state(1.0)
    h0 = total_energy(HARMONIC, state, M4)
    assert h0 == pytest.approx(4.0, rel=1e-14)
    traj = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0 * math.pi), HARMONIC, M4)
    for t, q, v in zip(traj.times, traj.q, traj.v):
        assert abs(total_energy(HARMONIC, PhaseState(q, v, t), M4) - h0) <= 1e-8


def test_verify_counterexample_default():
    report = verify_counterexample(1.0, 2.0 * math.pi, 1e-3)
    assert report.verdict
    assert report.passed_equations and report.passed_inertia
    assert report.passed_not_re and report.passed_certificate
    assert report.r14_squared_swing == pytest.approx(2.0, abs=1e-10)
    assert report.witness_defect > 1e-2
    pairs = {pair for pair, _ in report.collision_pairs}
    assert pairs == {(1, 4), (2, 3)}


def test_verify_counterexample_scales_with_k():
    report = verify_counterexample(5.0, 2.0 * math.pi, 1e-3)
    assert report.verdict
    assert report.r14_squared_swing == pytest.approx(10.0, abs=1e-10)


SCALES = [1e-100, 1e-50, 1e-12, 1e-8, 1e-4, 0.37, 1.0, 1e6, 1e8, 1e12, 1e30, 1e100]


@pytest.mark.parametrize("k", SCALES)
def test_verify_counterexample_gives_one_verdict_at_every_scale(k):
    # the swing and the EOM error are bounded relative to 2k and sqrt(k): at k = 1e6
    # and 1e12 the swing misses 2k by 1 ulp, which an absolute bound of 1e-10 refused
    assert verify_counterexample(k, 2.0 * math.pi, 1e-3).verdict


@pytest.mark.parametrize("k", SCALES)
def test_a_grid_that_misses_the_witness_time_fails_the_certificate_at_every_scale(k):
    # t_end = 1 samples t = 0.001 j, none of them pi/4, so the swing misses 2k by
    # about 6e-7 relative; an absolute bound of 1e-10 passed it at k = 1e-8 and below
    report = verify_counterexample(k, 1.0, 1e-3)
    assert not report.passed_certificate and not report.verdict
    assert abs(report.r14_squared_swing - 2.0 * k) > 1e-7 * k


@pytest.mark.parametrize("y1, x3", [
    (lambda t: np.cos(3.0 * t), lambda t: np.sin(3.0 * t)),
    (lambda t: np.cos(2.0 * t), lambda t: 0.0 * t),
    (lambda t: np.cos(2.0 * t + 0.3), lambda t: np.sin(2.0 * t + 0.3)),
], ids=["wrong_frequency", "missing_sin_term", "wrong_start_state"])
def test_check_a_rejects_a_wrong_closed_form(monkeypatch, y1, x3):
    # check (a) compares against its own second derivative, so a closed form
    # that is not the rhombus solution must fail it
    def wrong_trajectory(k, times):
        amp = math.sqrt(k / 2.0)
        q = np.zeros((times.size, 4, 2))
        q[:, 0, 1], q[:, 3, 1] = amp * y1(times), -amp * y1(times)
        q[:, 1, 0], q[:, 2, 0] = -amp * x3(times), amp * x3(times)
        return Trajectory(times, q, np.zeros_like(q), HARMONIC, M4)

    monkeypatch.setattr("harmonia.saari.rhombus_trajectory", wrong_trajectory)
    report = verify_counterexample(1.0, 1.0, 1e-2)
    assert report.eom_max_error > 1e-3
    assert not report.passed_equations and not report.verdict


@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_counterexample_robustness_rk4(k):
    assert verify_counterexample(k, 2.0 * math.pi, 1e-3, method="rk4").verdict


@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_counterexample_robustness_verlet(k):
    # verlet needs a finer step: its invariant-ellipse distortion scales
    # with dt^2 and must stay below the 1e-8 inertia bound
    assert verify_counterexample(k, math.pi, 5e-5, method="velocity_verlet").verdict


def test_rotating_control_defeats_check_c():
    # negative control: the rigid rotation IS a relative equilibrium, so
    # the non-rigidity check must reject it
    times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 257)
    traj = rotating_re_trajectory(CENTERED_TRIANGLE, M3, times)
    result = is_relative_equilibrium(traj, tol=1e-6)
    assert result.is_re
    assert not ((not result.is_re) and result.defect > 1e-2)


@pytest.mark.parametrize("n", [2, 4, 40])
def test_pair_distance_sweep_matches_dense_formula(n):
    from harmonia.saari import _pair_distance_variations
    rng = np.random.default_rng(n)
    masses = MassVector(rng.uniform(0.5, 2.0, n))
    state = PhaseState(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    traj = harmonic_flow(state, masses, np.linspace(0.0, 3.0, 101))
    # oracle: the dense (S, n, n) offset tensor and its upper triangle
    diff = traj.q[:, :, None, :] - traj.q[:, None, :, :]
    dense = np.sqrt((diff * diff).sum(axis=3))
    i, j = np.triu_indices(n, 1)
    spread = (dense.max(axis=0) - dense.min(axis=0))[i, j]
    worst, pair = _pair_distance_variations(traj)
    dist = _pair_offsets(traj.q)[4]  # the (S, P) table the sweep reads
    assert dist.shape == (101, n * (n - 1) // 2)
    assert np.array_equal(dist, dense[:, i, j])
    assert worst == spread.max()
    first = int(np.flatnonzero(spread == spread.max())[0])
    assert pair == (i[first] + 1, j[first] + 1)


@pytest.mark.parametrize("args, field", [
    ((1.0, 2.0 * math.pi, 0.0), "dt"),
    ((1.0, -1.0, 1e-3), "t_end"),
    ((1.0, 1e-4, 1e-3), "t_end"),
    ((1.0, 2.0 * math.pi, 1e-3, "euler"), "method"),
    ((-1.0, 2.0 * math.pi, 1e-3), "k"),
    ((math.nan, 2.0 * math.pi, 1e-3), "k"),
])
def test_verify_counterexample_rejects_bad_input(args, field):
    with pytest.raises(ValidationError) as err:
        verify_counterexample(*args)
    assert err.value.field == field


def written_out_fit(a, b, w):
    """The fit with its reflection branch written out by hand: (omega, residual, sign)."""
    def misfit_sq(omega):
        d = a - b @ omega.T
        return float(w @ (d * d).sum(axis=1))

    dot = float(w @ (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]))
    cross = float(w @ (a[:, 1] * b[:, 0] - a[:, 0] * b[:, 1]))
    omega = rotation(math.atan2(cross, dot) if (dot, cross) != (0.0, 0.0) else 0.0)
    best, sign = misfit_sq(omega), 1
    dot_r = float(w @ (a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1]))
    cross_r = float(w @ (a[:, 1] * b[:, 0] + a[:, 0] * b[:, 1]))
    angle_r = math.atan2(cross_r, dot_r) if (dot_r, cross_r) != (0.0, 0.0) else 0.0
    omega_r = rotation(angle_r) @ np.diag([1.0, -1.0])
    trial = misfit_sq(omega_r)
    if trial < best:
        omega, best, sign = omega_r, trial, -1
    return omega, math.sqrt(best / float(w.sum())), sign


def test_reflection_branch_is_bit_identical_to_the_written_out_fit(rng):
    reflections = 0
    for case in range(900):
        n = int(rng.integers(2, 8))
        a = rng.uniform(-5.0, 5.0, size=(n, 2))
        masses = MassVector(rng.uniform(0.1, 10.0, size=n))
        if case % 3 == 0:
            b = rng.uniform(-5.0, 5.0, size=(n, 2))
        elif case % 3 == 1:
            b = a * ([1.0, -1.0] if case % 2 else [-1.0, 1.0])  # exact mirror image
        else:
            b = (a @ rotation(float(rng.uniform(0.0, 2.0 * math.pi))).T) * [1.0, -1.0]
        _, residual, sign = written_out_fit(a, b, masses.m)
        assert _rigid_residuals(a, b, masses) == residual
        reflections += sign == -1
    assert reflections >= 300


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_stacked_kernel_rows_are_bit_identical_to_the_written_out_fit(rng):
    # each row of a stacked fit, and of its two-branch selection, rounds as that
    # row alone does, signed zeros included; the draws include angles where
    # np.arctan2 and math.atan2 disagree, so the kernel must keep math.atan2
    atan2_disagreements = 0
    for n in [*range(2, 9), 30]:
        rows = 240
        w = rng.uniform(0.1, 10.0, size=n)
        a = rng.uniform(-1.0, 1.0, size=(rows, n, 2)) * 10.0 ** rng.uniform(-4.0, 4.0, (rows, 1, 1))
        b = rng.uniform(-1.0, 1.0, size=(rows, n, 2)) * 10.0 ** rng.uniform(-4.0, 4.0, (rows, 1, 1))
        turned = a @ rotation(rng.uniform(0.0, 2.0 * math.pi, size=rows)).swapaxes(1, 2)
        b[0::6] = a[0::6] * [1.0, -1.0]  # mirror images
        b[1::6] = turned[1::6]  # rotated copies
        b[2::6] = turned[2::6] * [-1.0, 1.0]  # rotated mirror images
        b[3::12] = 0.0
        b[9::12] = -0.0

        omega, best = _best_rotation(a, b, w)
        omega_r, trial = _best_rotation(a, b * [1.0, -1.0], w)
        reflected = trial < best
        chosen = np.where(reflected[:, None, None], omega_r @ np.diag([1.0, -1.0]), omega)
        residual = _rigid_residuals(a, b, MassVector(w))
        for r in range(rows):
            ref_omega, ref_residual, ref_sign = written_out_fit(a[r], b[r], w)
            assert np.array_equal(bits(chosen[r]), bits(ref_omega))
            assert bits(residual[r]) == bits(ref_residual)
            assert (-1 if reflected[r] else 1) == ref_sign
            alone_omega, alone_best = _best_rotation(a[r], b[r], w)
            assert np.array_equal(bits(omega[r]), bits(alone_omega))
            assert bits(best[r]) == bits(alone_best)

        dot = np.vecdot(a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1], w)
        cross = np.vecdot(a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1], w)
        exact = np.array([math.atan2(y, x) for y, x in zip(cross, dot)])
        atan2_disagreements += int((np.arctan2(cross, dot) != exact).sum())
    assert atan2_disagreements >= 10


# -- an exact Saari oracle for the harmonic flow --------------------------------
#
# Under U = (M/2) I every CM offset moves as A cos(w t) + B sin(w t), with
# w = sqrt(M), A = dq and B = dv / w. In the mass-weighted product
# <X, Y> = sum_i m_i X_i . Y_i,
#     I(t) = (|A|^2 + |B|^2) / 2 + (|A|^2 - |B|^2) / 2 cos 2wt + <A, B> sin 2wt,
# so I is constant iff |A| = |B| and <A, B> = 0, and the motion is a relative
# equilibrium iff B = +-J A, with J the quarter turn.

QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def weighted_dot(x, y, m):
    return float(m @ (x * y).sum(axis=1))


def harmonic_saari_oracle(state, masses, tol=1e-9):
    """The Saari class of the harmonic flow from ``state``, read off A and B."""
    a = _cm_offsets(state.config.q, masses.m)[1]
    b = _cm_offsets(state.v, masses.m)[1] / math.sqrt(masses.total)
    scale = weighted_dot(a, a, masses.m)
    if abs(weighted_dot(b, b, masses.m) - scale) > tol * scale \
            or abs(weighted_dot(a, b, masses.m)) > tol * scale:
        return VARYING_INERTIA
    ja = a @ QUARTER_TURN.T
    if min(weighted_dot(d, d, masses.m) for d in (b - ja, b + ja)) <= tol * scale:
        return RELATIVE_EQUILIBRIUM
    return CONSTANT_INERTIA_NOT_RE


def best_orthogonal_misfit(x, y, m):
    """min over orthogonal W of sum_i m_i |x_i - W y_i|^2, both branches in closed form."""
    best = math.inf
    for z in (y, y * [1.0, -1.0]):
        dot = weighted_dot(x, z, m)
        cross = float(m @ (x[:, 1] * z[:, 0] - x[:, 0] * z[:, 1]))
        best = min(best, weighted_dot(x, x, m) + weighted_dot(z, z, m)
                   - 2.0 * math.hypot(dot, cross))
    return best


@st.composite
def harmonic_states(draw):
    """A state of one Saari class with |A| = 1, far from the classifier's tolerances.

    Varying draws move I by a relative amount of order 1; relative
    equilibria and constant-inertia draws hold I to rounding; the quarter-
    period shape B of a constant-inertia draw misfits A by at least 0.1.
    """
    n = draw(st.integers(2, 8))
    # for n = 2 the offsets span a plane, so |A| = |B|, <A, B> = 0 force B = +-J A
    kind = draw(st.sampled_from([RELATIVE_EQUILIBRIUM, VARYING_INERTIA]
                                + [CONSTANT_INERTIA_NOT_RE] * (n >= 3)))
    m = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    points = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=n, max_size=n)

    def unit_offsets():
        x = _cm_offsets(np.array(draw(points)), m)[1]
        norm = math.sqrt(weighted_dot(x, x, m))
        assume(norm >= 0.1)
        return x / norm

    a = unit_offsets()
    ja = a @ QUARTER_TURN.T
    if kind == RELATIVE_EQUILIBRIUM:
        b = draw(st.sampled_from([1.0, -1.0])) * ja
    elif kind == VARYING_INERTIA:
        c = unit_offsets()
        if draw(st.booleans()):
            b = draw(st.one_of(st.floats(0.2, 0.6), st.floats(1.5, 3.0))) * c
        else:
            # |B| = |A|, but <A, B> = cos(psi) >= 1/2
            w = c - weighted_dot(c, a, m) * a
            assume(weighted_dot(w, w, m) >= 0.01)
            psi = draw(st.floats(0.5, 1.0))
            b = math.cos(psi) * a + math.sin(psi) * w / math.sqrt(weighted_dot(w, w, m))
    else:
        c = unit_offsets()
        w = c - weighted_dot(c, a, m) * a - weighted_dot(c, ja, m) * ja
        assume(weighted_dot(w, w, m) >= 0.01)
        phi = draw(st.floats(math.pi / 3.0, 2.0 * math.pi / 3.0))
        b = math.cos(phi) * ja + math.sin(phi) * w / math.sqrt(weighted_dot(w, w, m))
        assume(best_orthogonal_misfit(b, a, m) >= 0.01)
    q_cm, v_cm = (np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
                  for _ in range(2))
    masses = MassVector(m)
    return PhaseState(q_cm + a, v_cm + math.sqrt(masses.total) * b), masses, kind


@settings(max_examples=30, deadline=None)
@given(drawn=harmonic_states())
def test_saari_check_agrees_with_the_harmonic_oracle(drawn):
    state, masses, kind = drawn
    assert harmonic_saari_oracle(state, masses) == kind
    # one period, 800 rk4 steps: rk4 keeps I to ~1e-12 relative at w dt = 2 pi / 800
    period = 2.0 * math.pi / math.sqrt(masses.total)
    flows = (integrate(state, IntegratorSpec("rk4", period / 800, period, 8), HARMONIC, masses),
             harmonic_flow(state, masses, np.linspace(0.0, period, 101)))
    for traj in flows:
        report = saari_check(traj)
        assert report.classification == kind
        if kind == CONSTANT_INERTIA_NOT_RE:
            # the frame-free witness: some pair distance swings
            assert report.certificate_variation >= 1e-3
        elif kind == RELATIVE_EQUILIBRIUM:
            assert report.certificate_variation <= 1e-9
