"""Invariants, potentials, and gradients of the core module."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    CollisionSingularity,
    IntegratorSpec,
    MassVector,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    ValidationError,
    cc_residual,
    harmonic_flow,
    inertia_gradient,
    integrate,
    moment_of_inertia,
    mutual_distances,
    potential_energy,
    potential_gradient,
    refine_cc,
    rotating_re_trajectory,
    rotation,
    total_energy,
)
from harmonia.core import (
    _centering_hessian,
    _cm_offsets,
    _hessian_rows,
    _inertia,
    _pair_offsets,
    _pair_separations,
    _potential,
    _require_bodies,
)
from conftest import central_difference_gradient

TRIANGLE = PlanarConfiguration([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
RHOMBUS = PlanarConfiguration([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
M3 = MassVector([1.0, 1.0, 1.0])
M4 = MassVector([1.0, 1.0, 1.0, 1.0])
HARMONIC = PotentialSpec.harmonic()
NEWTONIAN = PotentialSpec.newtonian()

ALL_KINDS = [HARMONIC, NEWTONIAN, PotentialSpec.power(-1.5, 2.0), PotentialSpec.power(3.0, 0.5)]


def test_total_mass():
    assert M3.total == 3.0
    assert MassVector([1.0, 1.0]).total == 2.0
    assert M4.total == 4.0


def test_mass_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        MassVector([1.0])
    with pytest.raises(ValidationError) as err:
        MassVector([1.0, -1.0])
    assert "m[1]" in str(err.value)
    with pytest.raises(ValidationError):
        MassVector([1.0, float("nan")])


def test_configuration_rejects_bad_input():
    with pytest.raises(ValidationError):
        PlanarConfiguration([[0.0, 1.0, 2.0]])
    with pytest.raises(ValidationError):
        PlanarConfiguration([[0.0, float("inf")], [1.0, 0.0]])


def test_phase_state_requires_matching_velocities():
    with pytest.raises(ValidationError):
        PhaseState(TRIANGLE, [[0.0, 0.0]])


def test_one_rule_names_the_first_failing_body():
    nan, inf = float("nan"), float("inf")

    def message(call):
        with pytest.raises(ValidationError) as err:
            call()
        return str(err.value)

    assert message(lambda: MassVector([1.0, 2.0, nan, inf])) == "m[2]: mass must be finite"
    assert message(lambda: MassVector([1.0, 2.0, 0.0, -1.0])) == "m[2]: mass must be positive"
    assert message(lambda: PlanarConfiguration([[0.0, 0.0], [1.0, nan], [inf, 0.0]])) \
        == "q[1]: coordinates must be finite"
    assert message(lambda: PhaseState(TRIANGLE, [[0.0, 0.0], [0.0, 0.0], [-inf, 0.0]])) \
        == "v[2]: velocity must be finite"
    # a stack names the body of its first configuration that holds one
    stack = np.zeros((3, 3, 2))
    stack[1, 2, 0] = stack[2, 0, 1] = inf
    finite = np.isfinite(stack)
    assert message(lambda: _require_bodies(finite, "q", "coordinates must be finite")) \
        == "q[2]: coordinates must be finite"
    _require_bodies(finite[:1], "q", "coordinates must be finite")


def test_potential_spec_validation():
    with pytest.raises(ValidationError):
        PotentialSpec("power", exponent=0.0, coupling=1.0)
    with pytest.raises(ValidationError):
        PotentialSpec("power", exponent=2.0, coupling=-1.0)
    with pytest.raises(ValidationError):
        PotentialSpec("harmonic", exponent=2.0)
    with pytest.raises(ValidationError):
        PotentialSpec("lennard-jones")


def test_mutual_distances_triangle():
    table = mutual_distances(TRIANGLE)
    assert table.r[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert table.r[0, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert table.r[1, 2] == pytest.approx(2.0, rel=1e-15)
    assert not table.r.flags.writeable


def test_mutual_distances_coincident_and_345():
    assert np.all(mutual_distances([[2.0, 3.0]] * 3).r == 0.0)
    assert mutual_distances([[0.0, 0.0], [3.0, 4.0]]).r[0, 1] == pytest.approx(5.0, rel=1e-15)


def test_mutual_distances_refuses_overflow():
    # finite positions whose squared offset overflows to inf
    with pytest.raises(ValidationError) as err:
        mutual_distances([[1e200, 0.0], [-1e200, 0.0]])
    assert (err.value.field, err.value.reason) == ("r", "distances must be finite")


def test_moment_of_inertia_values():
    assert moment_of_inertia(TRIANGLE, M3) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert moment_of_inertia(RHOMBUS, M4) == pytest.approx(4.0, rel=1e-15)
    assert moment_of_inertia([[1.0, 2.0]] * 3, M3) == 0.0


def cartesian_inertia(config, masses):
    """Origin-anchored moment of inertia sum_i m_i |q_i|^2."""
    return float(masses.m @ (config.q * config.q).sum(axis=1))


def test_moment_of_inertia_cartesian_values():
    # the CM of the rhombus is the origin, where the two forms agree
    assert cartesian_inertia(RHOMBUS, M4) == 4.0
    assert moment_of_inertia(RHOMBUS, M4) == pytest.approx(4.0, rel=1e-15)
    # center of mass off the origin: the two forms differ by M |q_cm|^2 = 1/3
    assert cartesian_inertia(TRIANGLE, M3) == 3.0
    assert cartesian_inertia(TRIANGLE, M3) - moment_of_inertia(TRIANGLE, M3) \
        == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_center_of_mass():
    assert _cm_offsets(TRIANGLE.q, M3.m)[0] == pytest.approx([0.0, 1.0 / 3.0], abs=1e-15)
    assert _cm_offsets(RHOMBUS.q, M4.m)[0] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert _cm_offsets(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.ones(2))[0] \
        == pytest.approx([0.0, 0.0], abs=1e-15)


def test_parallel_axis_identity_on_corpus(draw_system):
    for _ in range(1000):
        config, masses = draw_system()
        i_mutual = moment_of_inertia(config, masses)
        i_cart = cartesian_inertia(config, masses)
        qcm = _cm_offsets(config.q, masses.m)[0]
        shift = masses.total * float(qcm @ qcm)
        assert i_cart == pytest.approx(i_mutual + shift, rel=1e-12, abs=1e-12)
        centered = PlanarConfiguration(config.q - qcm)
        assert cartesian_inertia(centered, masses) \
            == pytest.approx(i_mutual, rel=1e-12, abs=1e-12)


def test_inertia_rigid_motion_invariance(draw_system, rng):
    for _ in range(100):
        config, masses = draw_system()
        i0 = moment_of_inertia(config, masses)
        turn = rotation(float(rng.uniform(0, 2 * math.pi)))
        moved = PlanarConfiguration(config.q @ turn.T + rng.uniform(-5, 5, size=2))
        assert moment_of_inertia(moved, masses) == pytest.approx(i0, rel=1e-12)


def test_harmonic_potential_values():
    assert potential_energy(HARMONIC, RHOMBUS, M4) == pytest.approx(8.0, rel=1e-15)
    assert potential_energy(HARMONIC, TRIANGLE, M3) == pytest.approx(4.0, rel=1e-15)
    assert potential_energy(HARMONIC, [[5.0, -2.0]] * 4, M4) == 0.0


def test_newtonian_value_and_sign():
    two = MassVector([1.0, 1.0])
    assert potential_energy(NEWTONIAN, [[0.0, 0.0], [1.0, 0.0]], two) == pytest.approx(-1.0)


def test_singular_potentials_raise_at_collision():
    two = MassVector([1.0, 1.0])
    coincident = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(CollisionSingularity):
        potential_energy(NEWTONIAN, coincident, two)
    with pytest.raises(CollisionSingularity):
        potential_gradient(PotentialSpec.power(-2.0, 1.0), coincident, two)


def test_harmonic_gradient_rhombus():
    grad = potential_gradient(HARMONIC, RHOMBUS, M4)
    # d/dq of (1/2) sum r^2 by hand: body 1 feels 4 q_1; matches
    # 2 y1 + (y1 - y4) = 4 at y1 = 1, y4 = -1
    assert grad[0] == pytest.approx([0.0, 4.0], abs=1e-15)
    assert grad == pytest.approx(4.0 * RHOMBUS.q, abs=1e-14)


def test_inertia_gradient_rhombus():
    grad = inertia_gradient(RHOMBUS, M4)
    assert grad[0] == pytest.approx([0.0, 2.0], abs=1e-15)
    assert np.all(inertia_gradient([[3.0, 3.0]] * 4, M4) == 0.0)


def test_harmonic_gradient_identity(draw_system):
    for _ in range(200):
        config, masses = draw_system()
        gu = potential_gradient(HARMONIC, config, masses)
        gi = inertia_gradient(config, masses)
        scale = 0.5 * masses.total
        err = np.linalg.norm(gu - scale * gi)
        assert err <= 1e-12 * (1.0 + np.linalg.norm(gu))


@pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: f"{p.kind}{p.exponent or ''}")
def test_gradients_match_finite_differences(potential, draw_system):
    for _ in range(20):
        config, masses = draw_system(min_separation=1e-2)

        def value(q):
            return potential_energy(potential, PlanarConfiguration(q), masses)

        fd = central_difference_gradient(value, config.q)
        grad = potential_gradient(potential, config, masses)
        assert np.linalg.norm(fd - grad) <= 1e-6 * (1.0 + np.linalg.norm(grad))


def test_inertia_gradient_matches_finite_differences(draw_system):
    for _ in range(20):
        config, masses = draw_system()

        def value(q):
            return moment_of_inertia(PlanarConfiguration(q), masses)

        fd = central_difference_gradient(value, config.q)
        grad = inertia_gradient(config, masses)
        assert np.linalg.norm(fd - grad) <= 1e-6 * (1.0 + np.linalg.norm(grad))


def test_total_energy():
    rest = PhaseState(RHOMBUS, np.zeros((4, 2)))
    assert total_energy(HARMONIC, rest, M4) == pytest.approx(8.0, rel=1e-15)
    origin = PhaseState([[0.0, 0.0]] * 2, np.zeros((2, 2)))
    assert total_energy(HARMONIC, origin, MassVector([1.0, 1.0])) == 0.0
    # kinetic (1/2) sum_i m_i |v_i|^2 = 4 on top of U = 8
    moving = PhaseState(RHOMBUS, np.ones((4, 2)))
    assert total_energy(HARMONIC, moving, M4) == pytest.approx(12.0, rel=1e-15)


def test_ops_reject_length_mismatch():
    with pytest.raises(ValidationError):
        moment_of_inertia(TRIANGLE, M4)


# -- pair kernel against the dense n x n formulas it replaced -----------------

def dense_displacements(q):
    d = q[:, None, :] - q[None, :, :]
    return d, np.sqrt((d * d).sum(axis=2))


def dense_require_separation(r):
    n = r.shape[0]
    masked = r + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    rmin = float(masked.min())
    if rmin < 1e-12:
        i, j = np.unravel_index(int(masked.argmin()), masked.shape)
        raise CollisionSingularity(f"bodies {i + 1} and {j + 1} separated by {rmin:.3e}")


def dense_terms(potential, q, mass, gradient):
    d, r = dense_displacements(q)
    if potential.singular:
        dense_require_separation(r)
    w = np.outer(mass, mass)
    safe = np.where(r == 0.0, 1.0, r)
    if gradient:
        if potential.kind == "newtonian":
            coef = w / safe ** 3
        else:
            coef = potential.coupling * potential.exponent * w * safe ** (potential.exponent - 2.0)
        coef = np.where(r == 0.0, 0.0, coef)
        return (coef[:, :, None] * d).sum(axis=1)
    if potential.kind == "newtonian":
        terms = -w / safe
    else:
        terms = potential.coupling * w * safe ** potential.exponent
    return 0.5 * float(np.where(r == 0.0, 0.0, terms).sum())


SINGULAR_AND_POWER = [NEWTONIAN, PotentialSpec.power(-2.0, 1.0), PotentialSpec.power(1.5, 1.0)]


@pytest.mark.parametrize("n", [2, 3, 5, 30, 100])
@pytest.mark.parametrize("potential", SINGULAR_AND_POWER, ids=lambda p: f"{p.kind}{p.exponent or ''}")
def test_pair_kernel_matches_dense_oracle(potential, n, draw_system):
    for _ in range(5):
        config, masses = draw_system(n)
        grad = potential_gradient(potential, config, masses)
        expected = dense_terms(potential, config.q, masses.m, gradient=True)
        assert np.linalg.norm(grad - expected) <= 1e-13 * np.linalg.norm(expected)
        energy = potential_energy(potential, config, masses)
        assert abs(energy - dense_terms(potential, config.q, masses.m, gradient=False)) \
            <= 1e-13 * abs(energy)


def central_difference_jacobian(gradient, q, h=1e-6):
    """Central finite differences of an (n, 2)-valued gradient, one column per coordinate."""
    columns = []
    for idx in np.ndindex(q.shape):
        plus = q.copy()
        plus[idx] += h
        minus = q.copy()
        minus[idx] -= h
        columns.append((gradient(plus) - gradient(minus)).ravel() / (2.0 * h))
    return np.column_stack(columns)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("potential", [HARMONIC] + SINGULAR_AND_POWER,
                         ids=lambda p: f"{p.kind}{p.exponent or ''}")
def test_pair_hessian_matches_finite_differences(potential, n, draw_system):
    for _ in range(3):
        config, masses = draw_system(n, min_separation=0.5)
        hess = _hessian_rows(potential, config.q, masses.m)
        assert hess.shape == (2 * n, 2 * n)
        assert np.array_equal(hess, hess.T)
        expected = central_difference_jacobian(
            lambda q: potential_gradient(potential, q, masses), config.q)
        np.testing.assert_allclose(hess, expected, rtol=1e-6,
                                   atol=1e-6 * np.abs(expected).max())


def test_inertia_hessian_is_twice_the_centering_matrix(draw_system):
    config, masses = draw_system(4)
    expected = central_difference_jacobian(lambda q: inertia_gradient(q, masses), config.q)
    np.testing.assert_allclose(2.0 * _centering_hessian(masses.m), expected,
                               rtol=1e-6, atol=1e-9)


def test_nonsingular_power_passes_through_coincident_pairs():
    power = PotentialSpec.power(1.5, 1.0)
    q = np.array([[1.0, 2.0], [-3.0, 0.5], [1.0, 2.0], [0.0, -1.0]])
    masses = MassVector([1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = potential_gradient(power, q, masses)
        energy = potential_energy(power, q, masses)
        pair = potential_gradient(power, q[[0, 2]], MassVector([1.0, 3.0]))
    assert np.all(np.isfinite(grad)) and math.isfinite(energy)
    assert np.all(pair == 0.0)
    assert np.linalg.norm(grad - dense_terms(power, q, masses.m, gradient=True)) \
        <= 1e-13 * np.linalg.norm(grad)
    assert energy == pytest.approx(dense_terms(power, q, masses.m, gradient=False), rel=1e-13)


@pytest.mark.parametrize("q", [
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],          # two exact ties
    [[0.0, 0.0], [1.0, 0.0], [1.0, 3e-13], [0.0, 3e-13]],      # tied near misses
    [[0.0, 0.0], [0.0, 5e-13], [3.0, 0.0], [3.0, 2e-13]],      # closest pair comes later
], ids=["coincident", "tied", "closest-later"])
def test_collision_names_the_same_pair_as_the_dense_check(q):
    q = np.array(q)
    masses = MassVector(np.ones(len(q)))
    with pytest.raises(CollisionSingularity) as oracle:
        dense_require_separation(dense_displacements(q)[1])
    for potential in (NEWTONIAN, PotentialSpec.power(-2.0, 1.0)):
        for kernel in (potential_gradient, potential_energy):
            with pytest.raises(CollisionSingularity) as err:
                kernel(potential, q, masses)
            assert str(err.value) == str(oracle.value)


def test_distance_tables_are_bit_identical_to_the_dense_form(rng):
    for n in [3, 4, 7, 30, 100, 300]:
        for scale in [1e-6, 1.0, 1e6]:
            config = PlanarConfiguration(rng.uniform(-scale, scale, (n, 2)))
            masses = MassVector(rng.uniform(0.1, 10.0, n))
            _, r = dense_displacements(config.q)
            assert np.array_equal(mutual_distances(config).r, r)
            w = np.outer(masses.m, masses.m)
            assert moment_of_inertia(config, masses) == float((w * r * r).sum() / (2.0 * masses.total))


# -- pair offsets over a stack of configurations -------------------------------

def written_out_pair_offsets(q):
    """The per-configuration offset formula as ``_pair_separations`` once wrote it."""
    i, j = np.triu_indices(q.shape[0], 1)
    x = q[:, 0]
    y = q[:, 1]
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    return i, j, dx, dy, np.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_pair_offsets_of_a_stack_match_each_sample(rng, n):
    stack = rng.uniform(-10.0, 10.0, size=(25, n, 2))
    i, j, dx, dy, r = _pair_offsets(stack)
    assert dx.shape == dy.shape == r.shape == (25, n * (n - 1) // 2)
    for s, q in enumerate(stack):
        for single in (_pair_separations(NEWTONIAN, q), written_out_pair_offsets(q)):
            for got, expected in zip((i, j, dx[s], dy[s], r[s]), single):
                assert np.array_equal(got, expected)


# -- the invariant kernels over a stack of configurations -------------------------

PAIR_POTENTIALS = (NEWTONIAN, PotentialSpec.power(-2.0, 1.0), PotentialSpec.power(1.5, 0.5))


@st.composite
def scaled_stacks(draw):
    """1..9 configurations of n = 2..40 bodies on [-1, 1]^2 scaled by 1e-5..1e5, with masses."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-5, 5))
    stack = scale * rng.uniform(-1.0, 1.0, (draw(st.integers(1, 9)), n, 2))
    return stack, rng.uniform(0.1, 10.0, n)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(system=scaled_stacks())
def test_stacked_invariant_rows_equal_the_one_configuration_calls(system):
    stack, mass = system
    assert _inertia(stack, mass).tolist() == [_inertia(q, mass) for q in stack]
    for potential in PAIR_POTENTIALS:
        assert _potential(potential, stack, mass).tolist() \
            == [_potential(potential, q, mass) for q in stack]


@pytest.mark.parametrize("n", [91, 100, 300])
def test_stacked_invariant_rows_equal_the_one_configuration_calls_at_large_n(rng, n):
    # rows of n * n >= 8192 terms, past numpy's summation block
    stack = rng.uniform(-1.0, 1.0, (3, n, 2))
    mass = rng.uniform(0.1, 10.0, n)
    assert _inertia(stack, mass).tolist() == [_inertia(q, mass) for q in stack]
    for potential in PAIR_POTENTIALS:
        assert _potential(potential, stack, mass).tolist() \
            == [_potential(potential, q, mass) for q in stack]


def test_collision_in_a_stacked_potential_names_the_per_sample_loops_pair(rng):
    stack = rng.uniform(-1.0, 1.0, (6, 4, 2))
    stack[3, 3] = stack[3, 1] + [5e-13, 0.0]  # sample 4: bodies 2 and 4 nearly meet
    stack[4, 1] = stack[4, 0]                 # sample 5: bodies 1 and 2 meet, closer and earlier
    mass = np.ones(4)
    for potential in PAIR_POTENTIALS[:2]:
        with pytest.raises(CollisionSingularity) as per_sample:
            for q in stack:
                _potential(potential, q, mass)
        with pytest.raises(CollisionSingularity) as stacked:
            _potential(potential, stack, mass)
        assert str(stacked.value) == str(per_sample.value) \
            == "bodies 2 and 4 separated by 5.000e-13"


# -- one body-count gate for every operation on (configuration, masses) ---------

def _state(config):
    return PhaseState(config, np.zeros_like(config.q))


GATED_OPERATIONS = {
    "moment_of_inertia": lambda q, m: moment_of_inertia(q, m),
    "potential_energy": lambda q, m: potential_energy(NEWTONIAN, q, m),
    "potential_gradient": lambda q, m: potential_gradient(HARMONIC, q, m),
    "inertia_gradient": lambda q, m: inertia_gradient(q, m),
    "total_energy": lambda q, m: total_energy(HARMONIC, _state(q), m),
    "integrate": lambda q, m: integrate(_state(q), IntegratorSpec("rk4", 0.1, 0.1), HARMONIC, m),
    # the integrator's pair-kernel force path
    "integrate-newtonian":
        lambda q, m: integrate(_state(q), IntegratorSpec("rk4", 0.1, 0.1), NEWTONIAN, m),
    "harmonic_flow": lambda q, m: harmonic_flow(_state(q), m, [0.0, 1.0]),
    "rotating_re_trajectory": lambda q, m: rotating_re_trajectory(q, m, [0.0, 1.0]),
    "cc_residual": lambda q, m: cc_residual(q, m, HARMONIC),
    "refine_cc": lambda q, m: refine_cc(q, m, HARMONIC, 1.0),
}


@pytest.mark.parametrize("operation", sorted(GATED_OPERATIONS))
@pytest.mark.parametrize("config, masses", [(TRIANGLE, M4), (RHOMBUS, M3)],
                         ids=["fewer-bodies", "more-bodies"])
def test_body_count_mismatch_names_q(operation, config, masses):
    with pytest.raises(ValidationError) as err:
        GATED_OPERATIONS[operation](config, masses)
    assert err.value.field == "q"
    assert err.value.reason == \
        f"configuration has {config.n} bodies but masses have {masses.n}"
