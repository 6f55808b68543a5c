"""Central-configuration residuals, refinement, and the isosceles family."""

import math

import numpy as np
import pytest

from harmonia import (
    DegenerateGradient,
    MassVector,
    NoConvergence,
    PlanarConfiguration,
    PotentialSpec,
    ValidationError,
    cc_residual,
    family_masses,
    moment_of_inertia,
    mutual_distances,
    potential_energy,
    refine_cc,
    rotationally_equivalent,
    theorem1_family,
    total_mass,
    verify_continuum,
)
from harmonia.central_config import MAX_FAMILY_SAMPLES
from conftest import equilateral

HARMONIC = PotentialSpec.harmonic()
NEWTONIAN = PotentialSpec.newtonian()
M3 = MassVector([1.0, 1.0, 1.0])


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
        assert abs(report.omega_squared - 2.0 / total_mass(masses)) <= 1e-9


def test_newtonian_equilateral_is_central():
    report = cc_residual(equilateral(), M3, NEWTONIAN)
    assert report.residual <= 1e-12


def test_total_collision_is_degenerate():
    with pytest.raises(DegenerateGradient):
        cc_residual([[1.0, 1.0]] * 3, M3, HARMONIC)


def test_residual_rigid_motion_invariance(draw_system, rng):
    for _ in range(50):
        config, masses = draw_system(min_separation=1e-2)
        base = cc_residual(config, masses, NEWTONIAN).residual
        moved = config.rotated(float(rng.uniform(0, 2 * math.pi)))
        moved = moved.translated(rng.uniform(-4, 4, size=2))
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
    with pytest.raises(NoConvergence):
        refine_cc(jittered, M3, NEWTONIAN, k, max_iter=1, tol=1e-14)


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


def test_rotational_equivalence_basic(rng):
    config = PlanarConfiguration(rng.uniform(-2, 2, size=(4, 2)))
    masses = MassVector(np.ones(4))
    assert rotationally_equivalent(config, config.rotated(math.pi / 3.0), masses)
    assert rotationally_equivalent(theorem1_family(1.0, 0.4),
                                   theorem1_family(1.0, 0.4 + math.pi), M3)
    assert not rotationally_equivalent(theorem1_family(1.0, 0.3),
                                       theorem1_family(1.0, 0.7), M3)


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
    a = base.rotated(0.7)
    b = base.rotated(2.1)
    c = base.rotated(4.4)
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
