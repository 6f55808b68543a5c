"""End-to-end acceptance gates.

One test per criterion; each prints a single [PASS]/[FAIL] line (visible
with ``pytest -s``) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from harmonia import (
    IntegratorSpec,
    MassVector,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    build_theorem2_state,
    cc_residual,
    energy_drift,
    integrate,
    is_relative_equilibrium,
    moment_of_inertia,
    mutual_distances,
    potential_energy,
    potential_gradient,
    inertia_gradient,
    refine_cc,
    rhombus_masses,
    rhombus_trajectory,
    rotating_re_trajectory,
    saari_check,
    verify_continuum,
    verify_counterexample,
)
from harmonia.cli import EXIT_OK, main
from harmonia.saari import CONSTANT_INERTIA_NOT_RE, RELATIVE_EQUILIBRIUM, VARYING_INERTIA
from conftest import central_difference_gradient, equilateral

HARMONIC = PotentialSpec.harmonic()
NEWTONIAN = PotentialSpec.newtonian()


def gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_theorem1_reproduction(capsys):
    start = time.perf_counter()
    report = verify_continuum(1.0, 64, tol=1e-12)
    elapsed = time.perf_counter() - start
    residual_ok = all(s.report.residual <= 1e-12 for s in report.samples)
    masses = MassVector(np.ones(3))
    inertia_ok = all(abs(moment_of_inertia(s.config, masses) - 1.0) <= 1e-12
                     for s in report.samples)
    base = [s.r23 for s in report.samples]
    monotone = all(b > a for a, b in zip(base, base[1:]))
    cli_code = main(["reproduce", "theorem1"])
    capsys.readouterr()
    with capsys.disabled():
        gate("criterion 1: theorem1 reproduction",
             report.verdict and residual_ok and inertia_ok and monotone
             and cli_code == EXIT_OK and elapsed < 1.0,
             f"64 samples, {elapsed:.2f}s")


def test_criterion_2_theorem2_reproduction(capsys):
    start = time.perf_counter()
    report = verify_counterexample(1.0, 2.0 * math.pi, 1e-3)
    elapsed = time.perf_counter() - start
    ok = (report.verdict
          and report.eom_max_error <= 1e-10
          and report.inertia_variation_closed <= 1e-12
          and report.inertia_variation_integrated <= 1e-8
          and not report.rigidity.is_re
          and report.rigidity.defect > 1e-2
          and abs(report.r14_squared_swing - 2.0) <= 1e-10
          and elapsed < 5.0)
    cli_code = main(["reproduce", "theorem2"])
    capsys.readouterr()
    with capsys.disabled():
        gate("criterion 2: theorem2 reproduction", ok and cli_code == EXIT_OK,
             f"defect {report.rigidity.defect:.3f}, {elapsed:.2f}s")


def test_criterion_3_everywhere_central(draw_system, capsys):
    worst_residual = 0.0
    worst_omega = 0.0
    for _ in range(1000):
        config, masses = draw_system()
        report = cc_residual(config, masses, HARMONIC)
        worst_residual = max(worst_residual, report.residual)
        worst_omega = max(worst_omega,
                          abs(report.omega_squared - 2.0 / masses.total))
    with capsys.disabled():
        gate("criterion 3: harmonic everywhere-central property",
             worst_residual <= 1e-9 and worst_omega <= 1e-9,
             f"max residual {worst_residual:.2e}, max omega error {worst_omega:.2e}")


def test_criterion_4_oracle_equivalence(capsys):
    traj = integrate(build_theorem2_state(1.0),
                     IntegratorSpec("rk4", 1e-3, 2.0 * math.pi), HARMONIC,
                     rhombus_masses())
    expected = rhombus_trajectory(1.0, traj.times).q
    worst = float(np.abs(traj.q - expected).max())
    with capsys.disabled():
        gate("criterion 4: rk4 matches the closed form", worst <= 1e-6,
             f"max position error {worst:.2e}")


def test_criterion_5_re_controls(rng, capsys):
    triangle = PlanarConfiguration(
        [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]])
    masses = MassVector(np.ones(3))
    rotating = rotating_re_trajectory(
        triangle, masses, np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 257))
    positive = saari_check(rotating)
    defect_ok = is_relative_equilibrium(rotating, tol=1e-6).defect <= 1e-9

    config = PlanarConfiguration(rng.uniform(-1.5, 1.5, size=(3, 2)))
    state = PhaseState(config, rng.uniform(-1.0, 1.0, size=(3, 2)))
    generic = integrate(state, IntegratorSpec("rk4", 1e-3, 2.0), HARMONIC, masses)
    negative = saari_check(generic)
    with capsys.disabled():
        gate("criterion 5: positive/negative RE controls",
             positive.classification == RELATIVE_EQUILIBRIUM and defect_ok
             and negative.classification == VARYING_INERTIA,
             f"control defect {positive.rigidity_defect:.2e}")


def test_criterion_6_gradient_correctness(draw_system, capsys):
    kinds = [HARMONIC, NEWTONIAN, PotentialSpec.power(-1.5, 2.0),
             PotentialSpec.power(3.0, 0.5)]
    worst = 0.0
    for potential in kinds:
        for _ in range(15):
            config, masses = draw_system(min_separation=1e-2)

            def u(q):
                return potential_energy(potential, PlanarConfiguration(q), masses)

            def inertia(q):
                return moment_of_inertia(PlanarConfiguration(q), masses)

            gu = potential_gradient(potential, config, masses)
            gi = inertia_gradient(config, masses)
            err_u = np.linalg.norm(central_difference_gradient(u, config.q) - gu) \
                / (1.0 + np.linalg.norm(gu))
            err_i = np.linalg.norm(central_difference_gradient(inertia, config.q) - gi) \
                / (1.0 + np.linalg.norm(gi))
            worst = max(worst, err_u, err_i)
    with capsys.disabled():
        gate("criterion 6: analytic gradients match finite differences",
             worst <= 1e-6, f"worst relative error {worst:.2e}")


def test_criterion_7_conservation_and_reversibility(capsys):
    state = build_theorem2_state(1.0)
    long_run = integrate(state, IntegratorSpec("velocity_verlet", 1e-3, 100.0),
                         HARMONIC, rhombus_masses())
    drift = energy_drift(long_run)

    spec = IntegratorSpec("velocity_verlet", 1e-3, 10.0, sample_stride=10 ** 6)
    forward = integrate(state, spec, HARMONIC, rhombus_masses())
    back = integrate(PhaseState(forward.q[-1], -forward.v[-1], 0.0), spec, HARMONIC,
                     rhombus_masses())
    recovery = float(np.abs(back.q[-1] - state.config.q).max())
    with capsys.disabled():
        gate("criterion 7: verlet conservation and reversibility",
             drift < 1e-6 and recovery <= 1e-9,
             f"drift {drift:.2e} over 1e5 steps, recovery {recovery:.2e}")


def test_criterion_8_newtonian_contrast(rng, capsys):
    target = equilateral()
    masses = MassVector(np.ones(3))
    k = moment_of_inertia(target, masses)
    jittered = PlanarConfiguration(target.q + rng.uniform(-0.05, 0.05, size=(3, 2)))
    refined = refine_cc(jittered, masses, NEWTONIAN, k)
    table = mutual_distances(refined).r
    sides = [table[0, 1], table[0, 2], table[1, 2]]
    spread = max(sides) - min(sides)

    random_config = PlanarConfiguration(rng.uniform(-2.0, 2.0, size=(3, 2)))
    random_report = cc_residual(random_config, masses, NEWTONIAN)
    with capsys.disabled():
        gate("criterion 8: newtonian contrast",
             spread <= 1e-8 and not random_report.is_cc,
             f"side spread {spread:.2e}, random residual {random_report.residual:.2e}")
