"""Central-configuration residuals, refinement, and the isosceles family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    DegenerateGradient,
    MassVector,
    NoConvergence,
    PlanarConfiguration,
    PotentialSpec,
    Trajectory,
    ValidationError,
    cc_residual,
    family_masses,
    inertia_gradient,
    is_relative_equilibrium,
    moment_of_inertia,
    mutual_distances,
    potential_energy,
    potential_gradient,
    refine_cc,
    theorem1_family,
    verify_continuum,
)
from harmonia import central_config
from harmonia.central_config import MAX_FAMILY_SAMPLES, _cc_residual, _unseparated_pairs
from harmonia.core import _cm_offsets, rotation
from harmonia.saari import _best_rotation
from conftest import equilateral

HARMONIC = PotentialSpec.harmonic()
NEWTONIAN = PotentialSpec.newtonian()
M3 = MassVector([1.0, 1.0, 1.0])


def rotation_residual(a, b, m):
    """``saari._rigid_residuals`` on its rotation branch alone: the best rotation of b onto a."""
    return math.sqrt(_best_rotation(a, b, m.m)[1] / m.total)


def rotationally_equivalent(a, b, m):
    """A rotation about the center of mass fits b onto a to a residual of 1e-9."""
    a, b = (_cm_offsets(c.q, m.m)[1] for c in (a, b))
    return rotation_residual(a, b, m) <= 1e-9


def test_harmonic_everything_is_central(rng):
    config = PlanarConfiguration(rng.uniform(-3, 3, size=(3, 2)))
    report = cc_residual(config, M3, HARMONIC)
    assert report.residual <= 1e-12
    assert report.omega_squared == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.is_cc


def test_harmonic_everywhere_critical_corpus(draw_system):
    for _ in range(1000):
        config, masses = draw_system()
        if moment_of_inertia(config, masses) == 0.0:
            continue
        report = cc_residual(config, masses, HARMONIC)
        assert report.residual <= 1e-9
        assert abs(report.omega_squared - 2.0 / masses.total) <= 1e-9


def test_newtonian_equilateral_is_central():
    # |grad U| falls as 1/scale^2 while |grad I| grows as scale: no floor on |grad U|;
    # grad U . grad U underflows past a scale of about 1e77, and the scaled solve never forms it
    for scale in (1.0, 1e5, 1e8, 1e60, 1e70, 1e80, 1e82, 1e90, 1e100):
        report = cc_residual(equilateral().q * scale, M3, NEWTONIAN)
        assert report.residual <= 1e-15


def test_omega_squared_beyond_the_double_range_is_a_gradient_overflow():
    # at r ~ 1e62, grad U ~ r^-4 is a double (its square is not) but w2 ~ r^5 is not
    with pytest.raises(ValidationError) as err:
        cc_residual(equilateral().q * 1e62, M3, PotentialSpec.power(-3.0, 1.0))
    assert err.value.field == "q"
    assert err.value.reason == "gradient overflow: |grad I| = 2.000e+62, |grad U| = 9.000e-248"


def unscaled_cc_residual(q, m, potential):
    """The least-squares solve of cc_residual without its power-of-two scales: (residual, w2)."""
    gi = inertia_gradient(q, m).ravel()
    gu = potential_gradient(potential, q, m).ravel()
    w2 = float(gi @ gu) / float(gu @ gu)
    return float(np.linalg.norm(gi - w2 * gu)) / (1.0 + float(np.linalg.norm(gi))), w2


grid = st.integers(-5000, 5000).map(lambda i: i / 1000.0)


@st.composite
def normal_range_systems(draw):
    """n = 2..7 distinct points on a 1e-3 grid, scaled by 1e-3..1e6, with masses and a potential."""
    n = draw(st.integers(2, 7))
    points = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n, unique=True))
    q = 10.0 ** draw(st.integers(-3, 6)) * np.array(points)
    masses = MassVector(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    potential = draw(st.sampled_from([HARMONIC, NEWTONIAN, PotentialSpec.power(-2.0, 1.0),
                                      PotentialSpec.power(3.0, 0.5)]))
    return q, masses, potential


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=normal_range_systems())
def test_scaled_solve_is_bit_identical_in_the_normal_range(system):
    q, masses, potential = system
    report = cc_residual(q, masses, potential)
    assert (report.residual, report.omega_squared) == unscaled_cc_residual(q, masses, potential)


@st.composite
def harmonic_stacks(draw):
    """2..64 configurations of n = 2..7 bodies on [-1, 1]^2 scaled by sqrt(k),
    k = 1e-29..1e300, with masses."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = math.sqrt(10.0 ** draw(st.integers(-29, 300)))
    stack = scale * rng.uniform(-1.0, 1.0, (draw(st.integers(2, 64)), n, 2))
    return stack, rng.uniform(0.1, 10.0, n)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(system=harmonic_stacks())
def test_stacked_harmonic_residual_rows_equal_the_one_configuration_call(system):
    stack, mass = system
    assert _cc_residual(stack, mass, HARMONIC, 1e-12) \
        == [_cc_residual(q, mass, HARMONIC, 1e-12) for q in stack]


@pytest.mark.parametrize("k", [1e-29, 1.0, 1e300])
def test_family_reports_equal_the_one_configuration_residual(k):
    report = verify_continuum(k, 300)
    assert report.verdict
    assert [s.report for s in report.samples] \
        == [cc_residual(s.config, M3, HARMONIC, 1e-12) for s in report.samples]


def raised(call):
    """The type and message of the error ``call()`` raises."""
    try:
        call()
    except (DegenerateGradient, ValidationError) as exc:
        return type(exc), str(exc)
    raise AssertionError("nothing raised")


def test_stacked_residual_raises_the_first_failing_rows_error():
    good = theorem1_family(1.0, 0.5).q
    coincident = np.full((3, 2), 0.1)
    overflowing = equilateral().q * 1e160
    for rows in ([good, coincident, overflowing], [good, overflowing, coincident]):
        stack = np.stack(rows)
        per_row = raised(lambda: [_cc_residual(q, M3.m, HARMONIC, 1e-9) for q in stack])
        assert raised(lambda: _cc_residual(stack, M3.m, HARMONIC, 1e-9)) == per_row
        assert per_row[0] is (DegenerateGradient if rows[1] is coincident else ValidationError)


def test_total_collision_is_degenerate():
    with pytest.raises(DegenerateGradient):
        cc_residual([[1.0, 1.0]] * 3, M3, HARMONIC)


def test_residual_rigid_motion_invariance(draw_system, rng):
    for _ in range(50):
        config, masses = draw_system(min_separation=1e-2)
        base = cc_residual(config, masses, NEWTONIAN).residual
        turn = rotation(float(rng.uniform(0, 2 * math.pi)))
        moved = PlanarConfiguration(config.q @ turn.T + rng.uniform(-4, 4, size=2))
        assert abs(cc_residual(moved, masses, NEWTONIAN).residual - base) <= 1e-10


def test_newtonian_random_config_is_not_central(draw_system):
    hits = 0
    for _ in range(1000):
        config, _ = draw_system(n=3, min_separation=1e-2)
        if cc_residual(config, M3, NEWTONIAN).residual > 1e-3:
            hits += 1
    assert hits / 1000 > 0.99


def test_refine_recovers_lagrange_configuration(rng):
    target = equilateral()
    k = moment_of_inertia(target, M3)
    jittered = PlanarConfiguration(target.q + rng.uniform(-0.05, 0.05, size=(3, 2)))
    refined = refine_cc(jittered, M3, NEWTONIAN, k)
    table = mutual_distances(refined).r
    sides = [table[0, 1], table[0, 2], table[1, 2]]
    assert max(sides) - min(sides) <= 1e-8
    assert abs(moment_of_inertia(refined, M3) - k) <= 1e-12 * k
    assert cc_residual(refined, M3, NEWTONIAN).residual <= 1e-10


def test_refine_harmonic_is_pure_rescale():
    start = PlanarConfiguration([[0.4, 1.1], [-0.8, 0.3], [1.9, -0.7]])
    refined = refine_cc(start, M3, HARMONIC, 2.0)
    # every configuration is already critical, so only the rescale acts
    qcm = (start.q.sum(axis=0)) / 3.0
    scale = math.sqrt(2.0 / moment_of_inertia(start, M3))
    expected = qcm + scale * (start.q - qcm)
    assert refined.q == pytest.approx(expected, rel=1e-12)
    assert abs(moment_of_inertia(refined, M3) - 2.0) <= 1e-12 * 2.0


def test_refine_from_collision_is_degenerate():
    with pytest.raises(DegenerateGradient):
        refine_cc([[0.0, 0.0]] * 3, M3, HARMONIC, 1.0)


def test_refine_reports_no_convergence(rng):
    target = equilateral()
    k = moment_of_inertia(target, M3)
    jittered = PlanarConfiguration(target.q + rng.uniform(-0.05, 0.05, size=(3, 2)))
    with pytest.raises(NoConvergence) as err:
        refine_cc(jittered, M3, NEWTONIAN, k, max_iter=1, tol=1e-14)
    assert str(err.value) == "no convergence after 1 iterations"
    assert err.value.iterations == 1
    assert 1e-14 < err.value.residual < 1e-2


def test_refine_reports_a_stalled_line_search():
    # no configuration meets tol = 0, so Newton runs down to rounding and stalls there
    start = PlanarConfiguration([[0.02, -0.01], [1.03, 0.04], [0.48, 0.83]])
    with pytest.raises(NoConvergence) as err:
        refine_cc(start, M3, NEWTONIAN, 1.0, tol=0.0)
    assert str(err.value).startswith("line search stalled at residual ")
    assert 1 <= err.value.iterations < 20
    assert 0.0 < err.value.residual <= 1e-12


def test_refine_stalls_on_a_singular_newton_system(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    start = PlanarConfiguration([[0.02, -0.01], [1.03, 0.04], [0.48, 0.83]])
    with pytest.raises(NoConvergence) as err:
        refine_cc(start, M3, NEWTONIAN, 1.0)
    assert str(err.value).startswith("line search stalled at residual ")
    assert err.value.iterations == 0


NEAR_LAGRANGE = np.array([[0.0, 0.0], [1.02, 0.01], [0.5, 0.85]])


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_refine_far_from_the_origin(offset):
    # iterates live in the center-of-mass frame, so the offset costs only the
    # rounding of the returned positions, not the convergence
    near = refine_cc(NEAR_LAGRANGE, M3, NEWTONIAN, 1.0)
    far = refine_cc(NEAR_LAGRANGE + [offset, 0.0], M3, NEWTONIAN, 1.0)
    assert cc_residual(far, M3, NEWTONIAN).residual <= 1e-10
    ulps = 4.0 * np.spacing(offset)
    assert abs(moment_of_inertia(far, M3) - 1.0) <= 1e-12 + 4.0 * ulps
    assert far.q - [offset, 0.0] == pytest.approx(near.q, abs=1e-9 + ulps)
    start_cm = NEAR_LAGRANGE.mean(axis=0) + [offset, 0.0]
    assert far.q.mean(axis=0) == pytest.approx(start_cm, abs=ulps)


def test_refine_names_the_rounding_floor_at_a_far_center_of_mass():
    # the iterate is central in the center-of-mass frame; adding q_cm = 1e6
    # back rounds its offsets to a residual above tol
    start = NEAR_LAGRANGE + 1e6
    k = moment_of_inertia(start, M3)
    with pytest.raises(NoConvergence) as err:
        refine_cc(start, M3, NEWTONIAN, k)
    message = str(err.value)
    assert message.startswith("line search stalled at residual ")
    assert ": the limit is the rounding floor at the center of mass " \
           "(1.000e+06, 1.000e+06), where the iterate's own residual is " in message
    assert err.value.residual > 1e-10
    # a stall away from that floor names none
    with pytest.raises(NoConvergence) as err:
        refine_cc(NEAR_LAGRANGE, M3, NEWTONIAN, 1.0, tol=0.0)
    assert "rounding floor" not in str(err.value)


@pytest.mark.parametrize("scale, field, message", [
    (1e150, "k", "inertia 1.0 is lost in rounding at center of mass (5.067e+149, 2.867e+149)"),
    (1e200, "q", "inertia overflow: I = inf"),
])
def test_refine_refuses_positions_out_of_range(scale, field, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            refine_cc(NEAR_LAGRANGE * scale, M3, NEWTONIAN, 1.0)
    assert err.value.field == field
    assert err.value.reason == message


def cc_search_starts(seed):
    """The cc_search benchmark's 15 refine starts for ``seed``, built from its recipe.

    Unit-mass regular n-gons on the unit circle, n = 3, 4, 5, plus uniform
    noise of half-width 0.02 on every coordinate: two starts per body count
    under the Newtonian and power alpha = -2 potentials, one under alpha = 1.5.
    """
    rng = np.random.default_rng(seed)
    starts = []
    for potential, copies in ((NEWTONIAN, 2), (PotentialSpec.power(-2.0, 1.0), 2),
                              (PotentialSpec.power(1.5, 1.0), 1)):
        for n in (3, 4, 5):
            angle = 2.0 * math.pi * np.arange(n) / n
            polygon = np.column_stack([np.cos(angle), np.sin(angle)])
            for _ in range(copies):
                noise = rng.uniform(-0.02, 0.02, size=(n, 2))
                starts.append((potential, polygon + noise))
    return starts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_refine_converges_from_every_cc_search_start(seed):
    starts = cc_search_starts(seed)
    assert len(starts) == 15
    for potential, q in starts:
        masses = MassVector(np.ones(len(q)))
        refined = refine_cc(q, masses, potential, 1.0)
        assert cc_residual(refined, masses, potential).residual <= 1e-10
        assert abs(moment_of_inertia(refined, masses) - 1.0) <= 1e-12


def test_family_endpoints():
    start = theorem1_family(1.0, 0.0)
    assert start.q[0] == pytest.approx([0.0, math.sqrt(1.5)], abs=1e-15)
    assert start.q[1] == pytest.approx([0.0, 0.0], abs=1e-15)  # coincident pair
    quarter = theorem1_family(1.0, math.pi / 2.0)
    assert quarter.q[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert quarter.q[2] == pytest.approx([math.sqrt(0.5), 0.0], abs=1e-12)


def test_family_inertia_is_k():
    for eta in (1.234, 0.2, 2.9):
        config = theorem1_family(1.0, eta)
        assert moment_of_inertia(config, M3) == pytest.approx(1.0, rel=1e-12)
    config = theorem1_family(7.5, 0.8)
    assert moment_of_inertia(config, M3) == pytest.approx(7.5, rel=1e-12)


def test_family_potential_energy_constant():
    # along I = k the harmonic potential is frozen at (M/2) k
    for eta in np.linspace(0.1, math.pi / 2.0, 9):
        config = theorem1_family(2.0, float(eta))
        assert potential_energy(HARMONIC, config, M3) == pytest.approx(3.0, rel=1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(k=st.floats(1e-300, 1e300),
       etas=st.lists(st.floats(0.0, math.pi / 2.0, exclude_min=True), min_size=1, max_size=16))
def test_stacked_family_rows_equal_the_one_angle_configuration(k, etas):
    stack = central_config._family_positions(k, etas)
    assert stack.shape == (len(etas), 3, 2)
    assert not stack.flags.writeable
    for row, eta in zip(stack, etas):
        # the libm formula, one angle at a time
        y1 = math.sqrt(1.5 * k) * math.cos(eta)
        x3 = math.sqrt(0.5 * k) * math.sin(eta)
        assert (row == theorem1_family(k, eta).q).all()
        assert (row == np.array([[0.0, y1], [-x3, 0.0], [x3, 0.0]])).all()


@pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
def test_family_refuses_non_finite_angles(eta):
    with pytest.raises(ValidationError) as err:
        theorem1_family(1.0, eta)
    assert (err.value.field, err.value.reason) == ("eta", "must be finite")


def test_family_names_the_first_body_whose_positions_overflow():
    # y1 = sqrt(1.5 k) overflows, x3 = sqrt(0.5 k) does not
    with pytest.raises(ValidationError) as err:
        central_config._family_positions(1.5e308, [0.3, 0.7])
    assert str(err.value) == "q[0]: coordinates must be finite"


def test_verify_continuum_holds_rows_of_one_stack_and_builds_no_configuration(monkeypatch):
    built = []
    check = PlanarConfiguration.__post_init__
    monkeypatch.setattr(PlanarConfiguration, "__post_init__",
                        lambda self: built.append(check(self)))
    report = verify_continuum(1.0, 64)
    assert built == []
    (stack,) = {id(s.config.base): s.config.base for s in report.samples}.values()
    assert stack.shape == (64, 3, 2) and not stack.flags.writeable
    for row, s in zip(stack, report.samples):
        assert type(s.config) is np.ndarray and s.config.shape == (3, 2)
        assert not s.config.flags.writeable
        assert (s.config == row).all()


def test_rotational_equivalence_basic(rng):
    config = PlanarConfiguration(rng.uniform(-2, 2, size=(4, 2)))
    masses = MassVector(np.ones(4))
    spun = PlanarConfiguration(config.q @ rotation(math.pi / 3.0).T)
    assert rotationally_equivalent(config, spun, masses)
    assert rotationally_equivalent(theorem1_family(1.0, 0.4),
                                   theorem1_family(1.0, 0.4 + math.pi), M3)
    assert not rotationally_equivalent(theorem1_family(1.0, 0.3),
                                       theorem1_family(1.0, 0.7), M3)


def test_rotational_equivalence_ignores_the_frame():
    # a fit about the origin called both copies inequivalent to the original
    config = theorem1_family(1.0, 0.4)
    spun = rotated_about_cm(config, 1.1)
    nudged = PlanarConfiguration(config.q + [1e-3, 0.0])
    assert rotationally_equivalent(config, nudged, M3)
    assert rotationally_equivalent(config, spun, M3)
    assert rotationally_equivalent(spun, PlanarConfiguration(config.q + [-7.0, 3.0]), M3)
    copies = np.stack([config.q, nudged.q, spun.q])
    traj = Trajectory([0.0, 1.0, 2.0], copies, np.zeros_like(copies), HARMONIC, M3)
    assert is_relative_equilibrium(traj).defect <= 1e-15


def test_distinct_family_members_have_distinct_base():
    a = theorem1_family(1.0, 0.3)
    b = theorem1_family(1.0, 0.7)
    r_a = mutual_distances(a).r[1, 2]
    r_b = mutual_distances(b).r[1, 2]
    assert r_a == pytest.approx(math.sqrt(2.0) * math.sin(0.3), rel=1e-12)
    assert r_b == pytest.approx(math.sqrt(2.0) * math.sin(0.7), rel=1e-12)
    assert r_a != r_b


def test_rotational_equivalence_is_equivalence_relation(rng):
    base = PlanarConfiguration(rng.uniform(-2, 2, size=(3, 2)))
    masses = MassVector(np.ones(3))
    a, b, c = (PlanarConfiguration(base.q @ rotation(angle).T) for angle in (0.7, 2.1, 4.4))
    other = PlanarConfiguration(base.q * np.array([1.4, 0.6]))
    for x in (a, b, c):
        assert rotationally_equivalent(x, x, masses)
    assert rotationally_equivalent(a, b, masses)
    assert rotationally_equivalent(b, a, masses)
    assert rotationally_equivalent(b, c, masses)
    assert rotationally_equivalent(a, c, masses)  # transitivity
    assert not rotationally_equivalent(a, other, masses)


def test_verify_continuum_verdict():
    report = verify_continuum(1.0, 64)
    assert report.verdict
    assert not report.failures
    assert all(s.report.residual <= 1e-12 for s in report.samples)
    base = [s.r23 for s in report.samples]
    assert all(b > a for a, b in zip(base, base[1:]))


def test_verify_continuum_minimal():
    assert verify_continuum(1.0, 2).verdict


def test_verify_continuum_rejects_bad_input():
    with pytest.raises(ValidationError):
        verify_continuum(-1.0, 8)
    with pytest.raises(ValidationError):
        verify_continuum(1.0, 1)


def test_family_masses_are_unit():
    assert np.all(family_masses().m == 1.0)


@pytest.mark.parametrize("n_samples", [MAX_FAMILY_SAMPLES + 1, 10 ** 9, 2.5, math.inf, math.nan])
def test_verify_continuum_rejects_sample_counts_out_of_range(n_samples):
    # rejected before any rigid fit: 10**9 samples would otherwise run for years
    with pytest.raises(ValidationError) as err:
        verify_continuum(1.0, n_samples)
    assert err.value.field == "n_samples"
    assert err.value.reason == f"need 2 to {MAX_FAMILY_SAMPLES} samples"


def all_pairs_equivalent(offsets, masses):
    """The pairs i < j of CM offsets that a rotation fits onto each other within 1e-9."""
    return [(i, j) for i in range(len(offsets)) for j in range(i + 1, len(offsets))
            if rotation_residual(offsets[i], offsets[j], masses) <= 1e-9]


def rotated_about_cm(config, angle):
    q_cm = _cm_offsets(config.q, M3.m)[0]
    return PlanarConfiguration((config.q - q_cm) @ rotation(angle).T + q_cm)


coordinate = st.floats(-5.0, 5.0)
triangle = st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=3).map(np.array)


@st.composite
def triangle_sets(draw):
    """Unit-mass triangles with exact duplicates, rotated copies and near-duplicates
    (a misfit near 1e-9, or the apex moved with r23 kept), as CM offsets (S, 3, 2)."""
    scale = 10.0 ** draw(st.integers(-3, 6))
    shapes = [scale * t for t in draw(st.lists(triangle, min_size=1, max_size=5))]
    for _ in range(draw(st.integers(0, 8))):
        source = shapes[draw(st.integers(0, len(shapes) - 1))]
        kind = draw(st.sampled_from(("duplicate", "rotated", "near", "apex")))
        turn = rotation(draw(st.floats(0.0, 2.0 * math.pi)))
        if kind == "duplicate":
            shape = source.copy()
        elif kind == "rotated":
            shape = source @ turn.T
        elif kind == "near":
            step = 10.0 ** draw(st.floats(-10.5, -7.5))
            shape = (source + step / 5.0 * draw(triangle)) @ turn.T
        else:
            shape = source.copy()
            shape[0] += 10.0 ** draw(st.floats(-10.0, 0.0)) * draw(triangle)[0]
        shapes.append(shape)
    order = draw(st.permutations(range(len(shapes))))
    return np.stack([_cm_offsets(shapes[i], M3.m)[1] for i in order])


def joined(pairs, n):
    """Label of the run of ``pairs`` that each of n samples lies in."""
    label = list(range(n))
    for i, j in pairs:
        old, new = label[j], label[i]
        label = [new if x == old else x for x in label]
    return label


@settings(max_examples=300, derandomize=True, deadline=None)
@given(offsets=triangle_sets())
def test_unseparated_pairs_join_every_pair_the_all_pairs_fit_finds(offsets):
    # the screen is sound: a pair within tol lies in one run of reported rank-neighbours
    r23, margin, pairs = _unseparated_pairs(offsets, M3, 1e-9)
    assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
    assert r23 == pytest.approx(np.hypot(*(offsets[:, 2] - offsets[:, 1]).T), rel=1e-15, abs=0.0)
    assert all(abs(r23[i] - r23[j]) <= margin for i, j in pairs)
    label = joined(pairs, len(offsets))
    for i, j in all_pairs_equivalent(offsets, M3):
        assert label[i] == label[j]


@pytest.mark.parametrize("k", [1e-100, 1e-29, 1e-28, 1e-20, 1e-14, 1e-6, 1.0, 1e6, 1e12, 1e100, 1e300])
def test_verify_continuum_holds_across_scales(k):
    report = verify_continuum(k, 128)
    assert report.verdict
    assert report.failures == ()


def test_verify_continuum_names_repeated_samples_as_the_all_pairs_fit_did(monkeypatch):
    n = 32
    build = central_config._family_positions

    def eta(j):
        return (math.pi / 2.0) * j / n

    def tampered(k, etas):
        # row j - 1 holds sample j, at eta(j): sample 3 is sample 25 turned about its
        # center of mass; sample 20 repeats sample 5
        q = build(k, etas).copy()
        q[2] = rotated_about_cm(PlanarConfiguration(q[24]), 2.0).q
        q[19] = q[4]
        q.setflags(write=False)
        return q

    monkeypatch.setattr(central_config, "_family_positions", tampered)
    report = verify_continuum(1.0, n)
    _, offsets = _cm_offsets(np.stack([s.config for s in report.samples]), M3.m)
    assert [(report.samples[i].eta, report.samples[j].eta)
            for i, j in all_pairs_equivalent(offsets, M3)] == [(eta(3), eta(25)), (eta(5), eta(20))]
    assert not report.verdict
    assert list(report.failures) == [
        "samples eta=0.147262 and eta=1.227185 are not told apart: r23 within 2.450e-09",
        "samples eta=0.245437 and eta=0.981748 are not told apart: r23 within 2.450e-09"]


def test_family_r23_is_the_value_the_screen_compared(monkeypatch):
    compared = []
    screen = central_config._unseparated_pairs

    def spy(offsets, masses, tol):
        result = screen(offsets, masses, tol)
        compared.append(result[0])
        return result

    monkeypatch.setattr(central_config, "_unseparated_pairs", spy)
    report = verify_continuum(1.0, 64)
    (r23,) = compared
    assert [s.r23 for s in report.samples] == r23.tolist()
    assert all(type(s.r23) is float for s in report.samples)
    assert [s.r23 for s in report.samples] == pytest.approx(
        [2.0 * math.sqrt(0.5) * math.sin(s.eta) for s in report.samples], rel=1e-15)


def test_verify_continuum_at_small_k_tells_every_sample_apart():
    # the tolerance scales with sqrt(k), as r23 does
    report = verify_continuum(1e-20, 24)
    assert report.verdict
    assert report.failures == ()
