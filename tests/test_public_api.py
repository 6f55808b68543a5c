"""The names the package exports: adding or dropping one edits this list."""

import inspect

import harmonia

PUBLIC_NAMES = [
    "CCReport", "COLLISION_EPS", "CONSTANT_INERTIA_NOT_RE", "CollisionSingularity",
    "ContinuumReport", "CounterexampleReport", "DegenerateGradient", "FamilySample",
    "HARMONIC", "HarmoniaError", "IntegratorSpec", "MassVector", "MutualDistanceTable",
    "NEWTONIAN", "NoConvergence", "NonFiniteState", "POWER", "ParseError", "PhaseState",
    "PlanarConfiguration", "PotentialSpec", "RELATIVE_EQUILIBRIUM", "RK4",
    "RigidityResult", "SaariReport", "Trajectory", "VARYING_INERTIA", "VELOCITY_VERLET",
    "ValidationError", "ZeroInertia", "as_configuration", "as_mass_vector",
    "build_theorem2_state", "cc_residual", "corpus_seed", "energy_drift",
    "family_masses", "harmonic_flow", "inertia_gradient", "inertia_variation", "integrate",
    "is_relative_equilibrium", "moment_of_inertia", "mutual_distances", "potential_energy",
    "potential_gradient", "random_configuration", "random_masses", "refine_cc",
    "rhombus_masses", "rhombus_trajectory", "rotating_re_trajectory", "rotation",
    "saari_check", "theorem1_family", "total_energy", "verify_continuum",
    "verify_counterexample",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are not API here
    exported = sorted(name for name, value in vars(harmonia).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == sorted(PUBLIC_NAMES)
