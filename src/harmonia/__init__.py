"""Planar n-body laboratory for the harmonic potential.

Core objects: configurations, masses, potentials, and their scalar
invariants (moment of inertia, potential and total energy) with exact
gradients. On top of those sit fixed-step integrators, central-
configuration machinery (the residual test, constrained refinement, and
the one-parameter isosceles continuum), and rigidity analysis that
classifies trajectories as relative equilibria or as constant-inertia
counterexamples.
"""

from .core import (
    COLLISION_EPS,
    HARMONIC,
    NEWTONIAN,
    POWER,
    MassVector,
    MutualDistanceTable,
    PhaseState,
    PlanarConfiguration,
    PotentialSpec,
    as_configuration,
    as_mass_vector,
    inertia_gradient,
    moment_of_inertia,
    mutual_distances,
    potential_energy,
    potential_gradient,
    rotation,
    total_energy,
)
from .dynamics import (
    RK4,
    VELOCITY_VERLET,
    IntegratorSpec,
    Trajectory,
    build_theorem2_state,
    energy_drift,
    harmonic_flow,
    integrate,
    rhombus_masses,
    rhombus_trajectory,
    rotating_re_trajectory,
)
from .central_config import (
    CCReport,
    ContinuumReport,
    FamilySample,
    cc_residual,
    family_masses,
    refine_cc,
    theorem1_family,
    verify_continuum,
)
from .saari import (
    CONSTANT_INERTIA_NOT_RE,
    RELATIVE_EQUILIBRIUM,
    VARYING_INERTIA,
    CounterexampleReport,
    RigidityResult,
    SaariReport,
    inertia_variation,
    is_relative_equilibrium,
    saari_check,
    verify_counterexample,
)
from .errors import (
    CollisionSingularity,
    DegenerateGradient,
    HarmoniaError,
    NoConvergence,
    NonFiniteState,
    ParseError,
    ValidationError,
    ZeroInertia,
)
from .sampling import corpus_seed, random_configuration, random_masses

__version__ = "0.1.0"
