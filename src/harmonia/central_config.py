"""Central-configuration residuals, constrained refinement, and the
one-parameter isosceles family.

A configuration is central when grad I = w2 * grad U for some scalar w2.
The residual solves for w2 by least squares in exactly that orientation,
so for the harmonic potential w2 = 2/M at every configuration. Refinement
seeks a critical point of U restricted to the ellipsoid I = k by a damped
Newton iteration on the Lagrange conditions grad U = lam grad I, I = k,
run in the center-of-mass frame; the Hessian of U comes from the pair
kernel in ``core``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MassVector,
    PlanarConfiguration,
    PotentialSpec,
    _bodies,
    _centering_hessian,
    _cm_offsets,
    _hessian_rows,
    _pair_offsets,
    inertia_gradient,
    moment_of_inertia,
    potential_gradient,
)
from .errors import CollisionSingularity, DegenerateGradient, NoConvergence, ValidationError
from .saari import _best_rotation

_DEGENERATE_EPS = 1e-14
_INERTIA_REL_TOL = 1e-12
# refine_cc refuses a target inertia that q_cm + x carries to fewer digits
_RESOLVED_INERTIA_RTOL = 1e-8

# the r23 screen of _equivalent_pairs fits no pair of family members when
# k > 2e-18 n_samples^4 (k = 1 up to this cap: the smallest r23 gap, ~6.5e-9
# near eta = pi/2, clears the 2.45e-9 margin); verify_continuum's time is then
# linear in the sample count
MAX_FAMILY_SAMPLES = 16384
# _equivalent_pairs fits at most this many pairs: every pair of 1024 samples (~1.6 s,
# ~210 MB peak RSS on a 2-vCPU Xeon), so up to 1024 samples no k is refused
_MAX_FITTED_PAIRS = 1024 * 1023 // 2
# a rotation that fits two samples to this rigid_fit residual makes them one shape
_EQUIVALENCE_TOL = 1e-9
# rounding allowance of the pair-distance screen, in units of the largest coordinate
_SCREEN_ROUNDING = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CCReport:
    """Verdict of one central-configuration test."""

    residual: float
    omega_squared: float
    is_cc: bool
    tol: float


@dataclass(frozen=True)
class FamilySample:
    """One member of the isosceles family with its verdict."""

    eta: float
    config: PlanarConfiguration
    report: CCReport

    @property
    def r23(self) -> float:
        """Base length of the isosceles triangle, 2 sqrt(k/2) sin(eta)."""
        q = self.config.q
        return float(np.hypot(*(q[2] - q[1])))


@dataclass(frozen=True)
class ContinuumReport:
    """Aggregate verdict over a sampled family of configurations."""

    k: float
    samples: tuple
    verdict: bool
    failures: tuple


def cc_residual(config, m, potential: PotentialSpec, tol: float = 1e-9) -> CCReport:
    """Least-squares test of the central-configuration condition.

    Solves grad I = w2 grad U for the scalar w2 and reports the
    scale-insensitive residual |grad I - w2 grad U| / (1 + |grad I|).
    Raises ValidationError on ``q`` when a gradient or its norm overflows
    (the positions lie too far out for doubles), and DegenerateGradient when
    grad U vanishes (total collision or an exact critical point of U),
    where w2 is undetermined.
    """
    config, m = _bodies(config, m)
    # an overflow shows up in the norms; finite norms bound everything after them
    with np.errstate(over="ignore", invalid="ignore"):
        gi = inertia_gradient(config, m).ravel()
        ni = float(np.linalg.norm(gi))
    try:
        # raised, since an overflowing r^3 would round a pair force to 0, not to inf
        with np.errstate(over="raise", invalid="ignore"):
            gu = potential_gradient(potential, config, m).ravel()
            nu = float(np.linalg.norm(gu))
    except FloatingPointError:
        nu = math.inf
    if not math.isfinite(ni + nu):
        raise ValidationError("q", f"gradient overflow: |grad I| = {ni:.3e}, |grad U| = {nu:.3e}")
    if nu <= _DEGENERATE_EPS * (1.0 + ni):
        raise DegenerateGradient(f"|grad U| = {nu:.3e} is degenerate")
    w2 = float(gi @ gu) / float(gu @ gu)
    residual = float(np.linalg.norm(gi - w2 * gu)) / (1.0 + ni)
    return CCReport(residual, w2, residual <= tol, float(tol))


def _rescale_to_inertia(x: np.ndarray, m: MassVector, k: float) -> np.ndarray:
    """Recentre ``x`` on its center of mass and scale it onto I = k."""
    _, x = _cm_offsets(x, m.m)
    inertia = moment_of_inertia(PlanarConfiguration(x), m)
    if inertia <= 0.0:
        raise DegenerateGradient("cannot rescale a total collision")
    return math.sqrt(k / inertia) * x


def _lagrange_residual(x: np.ndarray, m: MassVector, potential: PotentialSpec):
    """grad I, the least-squares multiplier lam, and grad U - lam grad I at ``x``."""
    gi = inertia_gradient(x, m)
    gu = potential_gradient(potential, x, m)
    lam = float((gu * gi).sum()) / float((gi * gi).sum())
    return gi, lam, gu - lam * gi


def _newton_step(x: np.ndarray, m: MassVector, potential: PotentialSpec, state) -> np.ndarray:
    """Newton step of F(q, lam) = (grad U - lam grad I, I - k) at a CM-frame ``x``.

    Solves the bordered Jacobian [[H_U - lam H_I, -grad I], [grad I^T, 0]];
    every iterate is rescaled onto I = k, so the I - k entry of F is taken
    as zero. F does not change under translation or rotation, so three gauge rows
    (no shift of the center of mass, no rotation about it) and their
    multiplier columns make the system square and regular at a
    nondegenerate critical point.
    """
    gi, lam, f = state
    n2 = 2 * m.n
    gauge = np.zeros((3, n2))
    gauge[0, 0::2] = m.m
    gauge[1, 1::2] = m.m
    gauge[2, 0::2] = -m.m * x[:, 1]
    gauge[2, 1::2] = m.m * x[:, 0]
    jac = np.zeros((n2 + 4, n2 + 4))
    jac[:n2, :n2] = _hessian_rows(potential, x, m.m) - 2.0 * lam * _centering_hessian(m.m)
    jac[:n2, n2] = -gi.ravel()
    jac[n2, :n2] = gi.ravel()
    jac[:n2, n2 + 1:] = gauge.T
    jac[n2 + 1:, :n2] = gauge
    rhs = np.zeros(n2 + 4)
    rhs[:n2] = -f.ravel()
    return np.linalg.solve(jac, rhs)[:n2].reshape(-1, 2)


def _damped_newton(x: np.ndarray, m: MassVector, potential: PotentialSpec, k: float, state):
    """The first of the Newton step and its halvings (at most 30) that lowers |F|.

    Each trial is rescaled onto I = k before |F| is measured. Returns the
    new iterate with its ``_lagrange_residual``, or None when no trial does
    better (or the Jacobian is singular, at a degenerate critical point).
    """
    try:
        step = _newton_step(x, m, potential, state)
    except np.linalg.LinAlgError:
        return None
    f0 = float(np.linalg.norm(state[2]))
    for halving in range(30):
        try:
            trial = _rescale_to_inertia(x + 0.5 ** halving * step, m, k)
            trial_state = _lagrange_residual(trial, m, potential)
        except (CollisionSingularity, DegenerateGradient):  # a trial through a collision
            continue
        if float(np.linalg.norm(trial_state[2])) < f0:
            return trial, trial_state
    return None


def refine_cc(config0, m, potential: PotentialSpec, k: float,
              max_iter: int = 200, tol: float = 1e-10) -> PlanarConfiguration:
    """Refine a configuration to a central configuration on {I = k}.

    Damped Newton iteration on the Lagrange conditions grad U = lam grad I,
    I = k (``_damped_newton``). The start is rescaled about its center of
    mass q_cm onto the ellipsoid, and the iterates live in the q_cm frame:
    q_cm is added back only to test and return a configuration, so a start
    far from the origin loses no digits in its pair offsets. Newton's
    method is blind to the kind of critical point, so maxima of U on the
    ellipsoid (the Lagrange configuration is one) are found as readily as
    minima.

    Takes at most ``max_iter`` steps and judges convergence by
    ``cc_residual`` of the configuration it returns. NoConvergence carries
    the steps taken and that residual, and names the rounding floor at
    q_cm when the stalled iterate is central only in the q_cm frame.
    Raises ValidationError on ``q`` when the start's inertia overflows,
    and on ``k`` when q_cm is so large that a configuration of inertia k
    cannot be told apart from its rounding.
    """
    config0, m = _bodies(config0, m)
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    with np.errstate(over="ignore"):
        inertia = moment_of_inertia(config0, m)
    if not math.isfinite(inertia):
        raise ValidationError("q", f"inertia overflow: I = {inertia:.3e}")
    if inertia <= 0.0:
        raise DegenerateGradient("starting configuration is a total collision")

    qcm, dq = _cm_offsets(config0.q, m.m)
    x = math.sqrt(k / inertia) * dq
    current = PlanarConfiguration(qcm + x)
    if not abs(moment_of_inertia(current, m) - k) <= _RESOLVED_INERTIA_RTOL * k:
        raise ValidationError(
            "k", f"inertia {k!r} is lost in rounding at center of mass "
                 f"({qcm[0]:.3e}, {qcm[1]:.3e})")
    state = None
    for iteration in range(max_iter + 1):
        report = cc_residual(current, m, potential, tol)
        if report.is_cc:
            return current
        if iteration == max_iter:
            raise NoConvergence(f"no convergence after {max_iter} iterations",
                                iteration, report.residual)
        if state is None:
            state = _lagrange_residual(x, m, potential)
        moved = _damped_newton(x, m, potential, k, state)
        if moved is None:
            floor = cc_residual(PlanarConfiguration(x), m, potential, tol)
            why = (f": the limit is the rounding floor at the center of mass ({qcm[0]:.3e}, "
                   f"{qcm[1]:.3e}), where the iterate's own residual is {floor.residual:.3e}"
                   if floor.is_cc else "")
            raise NoConvergence(f"line search stalled at residual {report.residual:.3e}{why}",
                                iteration, report.residual)
        x, state = moved
        current = PlanarConfiguration(qcm + x)


def theorem1_family(k: float, eta: float) -> PlanarConfiguration:
    """Isosceles three-body configuration of inertia k at family angle eta.

    Body 1 sits at (0, y1) and bodies 2, 3 at (-/+ x3, 0) with
    y1 = sqrt(3k/2) cos(eta) and x3 = sqrt(k/2) sin(eta); unit masses are
    implied. Every member is a central configuration of the harmonic
    potential, and distinct eta in (0, pi/2] give rotationally
    inequivalent shapes.
    """
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    y1 = math.sqrt(1.5 * k) * math.cos(eta)
    x3 = math.sqrt(0.5 * k) * math.sin(eta)
    return PlanarConfiguration(np.array([[0.0, y1], [-x3, 0.0], [x3, 0.0]]))


def family_masses() -> MassVector:
    return MassVector(np.ones(3))


def verify_continuum(k: float, n_samples: int, tol: float = 1e-12) -> ContinuumReport:
    """Sample the isosceles family and certify it as a genuine continuum.

    Draws eta uniformly in (0, pi/2] (the open end avoids the coincident
    pair at eta = 0). The verdict is true when every sample is a central
    configuration within ``tol``, has inertia k to 1e-12 relative, and no
    rotation about the center of mass fits one sample onto another to a
    ``rigid_fit`` residual of 1e-9. That last check screens the pairs by
    their base length r23 (``_equivalent_pairs``): a rotation with residual
    rho changes no pair distance by more than sqrt(2M / m_min) rho = sqrt(6) rho,
    so only pairs whose r23 lie within the margin sqrt(6) (1e-9 + 64 eps
    max|offset|) are fitted. The margin is absolute while r23 scales with
    sqrt(k), so no pair is fitted when k > 2e-18 n_samples^4 (at k = 1, up
    to MAX_FAMILY_SAMPLES) and the time is then linear in n_samples; below
    that, close pairs are fitted, and more than _MAX_FITTED_PAIRS of them
    raise ValidationError before any residual is computed. At most
    MAX_FAMILY_SAMPLES samples are accepted. ``theorem1_family`` checks k.
    """
    if not 2 <= n_samples <= MAX_FAMILY_SAMPLES or int(n_samples) != n_samples:
        raise ValidationError("n_samples", f"need 2 to {MAX_FAMILY_SAMPLES} samples")
    n_samples = int(n_samples)

    masses = family_masses()
    harmonic = PotentialSpec.harmonic()
    etas = [(math.pi / 2.0) * j / n_samples for j in range(1, n_samples + 1)]
    configs = [theorem1_family(k, eta) for eta in etas]
    _, offsets = _cm_offsets(np.stack([config.q for config in configs]), masses.m)
    equivalent = _equivalent_pairs(offsets, masses, _EQUIVALENCE_TOL)
    samples = []
    failures = []
    for eta, config in zip(etas, configs):
        report = cc_residual(config, masses, harmonic, tol)
        samples.append(FamilySample(eta, config, report))
        if not report.is_cc:
            failures.append(f"eta={eta:.6f}: residual {report.residual:.3e} exceeds {tol:g}")
        inertia = moment_of_inertia(config, masses)
        if abs(inertia - k) > _INERTIA_REL_TOL * k:
            failures.append(f"eta={eta:.6f}: inertia {inertia!r} misses k={k!r}")
    for i, j in equivalent:
        failures.append(
            f"samples eta={etas[i]:.6f} and eta={etas[j]:.6f} "
            "are rotationally equivalent")
    return ContinuumReport(float(k), tuple(samples), not failures, tuple(failures))


def _equivalent_pairs(offsets: np.ndarray, masses: MassVector, tol: float) -> list:
    """The pairs (i, j), i < j, of three-body configurations ``offsets`` (S, 3, 2)
    that a rotation fits onto each other to a ``rigid_fit`` residual of at most
    ``tol``, in (i, j) order.

    A pair distance screens the pairs. For any orthogonal Omega with misfits
    e_i = a_i - Omega b_i and residual rho, sum m_i |e_i|^2 = M rho^2, so
    |r_ij(a) - r_ij(b)| <= |e_i| + |e_j| <= sqrt(2M / m_min) rho. Two samples
    whose r23 differ by more than margin = sqrt(2M / m_min) (tol + 64 eps
    max|offsets|), where the second term covers the rounding of r23 and of
    the fit, are therefore inequivalent. Only the pairs inside the margin,
    found by sorting r23, are fitted, in one stacked call; more than
    _MAX_FITTED_PAIRS of them raise ValidationError before the first fit.
    """
    r23 = _pair_offsets(offsets)[4][:, -1]
    bound = math.sqrt(2.0 * masses.total / float(masses.m.min()))
    margin = bound * (tol + _SCREEN_ROUNDING * float(np.abs(offsets).max()))
    order = np.argsort(r23)
    ranked = r23[order]
    stop = np.searchsorted(ranked, ranked + margin, side="right")
    n_close = int((stop - np.arange(1, len(ranked) + 1)).sum())
    if n_close > _MAX_FITTED_PAIRS:
        raise ValidationError(
            "n_samples", f"{n_close} pairs of samples lie within the r23 screen margin "
            f"{margin:.3e}, more than the {_MAX_FITTED_PAIRS} that can be fitted; "
            "use fewer samples or a larger k")
    if not n_close:
        return []
    # the close pairs a < b < stop[a] of r23 ranks, fitted as samples i < j like rigid_fit
    a = np.repeat(np.arange(len(ranked)), stop - np.arange(1, len(ranked) + 1))
    b = a + 1 + np.arange(n_close) - np.searchsorted(a, a)
    i, j = np.sort(np.stack([order[a], order[b]]), axis=0)
    close = np.sqrt(_best_rotation(offsets[i], offsets[j], masses.m)[1] / masses.total) <= tol
    return sorted(zip(i[close].tolist(), j[close].tolist()))
