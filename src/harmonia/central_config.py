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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HARMONIC,
    MassVector,
    PlanarConfiguration,
    PotentialSpec,
    _bodies,
    _centering_hessian,
    _cm_offsets,
    _frozen,
    _gradient_rows,
    _hessian_rows,
    _inertia,
    _mass_weighted_offsets,
    _pair_offsets,
    _require_bodies,
)
from .errors import CollisionSingularity, DegenerateGradient, NoConvergence, ValidationError

_INERTIA_REL_TOL = 1e-12
# refine_cc refuses a target inertia that q_cm + x carries to fewer digits
_RESOLVED_INERTIA_RTOL = 1e-8

# verify_continuum's time grows about linearly with the sample count: 16384 samples
# take ~0.1 s on a 2-vCPU Xeon, mostly in making each sample's CCReport and FamilySample
MAX_FAMILY_SAMPLES = 16384
# a rotation that fits two samples to this rigidity residual, times sqrt(k), makes them one shape
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
    """One member of the isosceles family, its verdict and the r23 the screen compared;
    ``config`` holds its read-only (3, 2) positions, a row of one stack for all samples."""

    eta: float
    config: np.ndarray
    report: CCReport
    r23: float


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
    Raises ValidationError on ``q`` when a gradient, its norm or w2 overflows
    (the positions lie too far out for doubles), and DegenerateGradient when
    w2 is undetermined: every body sits at one point, or grad U is 0. Every
    supported potential is homogeneous of nonzero degree, so grad U vanishes
    only at a total collision and no absolute floor is set on |grad U|. w2 is
    solved on grad I and grad U each scaled by its own power of two, so
    grad U . grad U cannot underflow at large scales; the scales are undone
    exactly, so in the normal range nothing rounds differently.
    """
    config, m = _bodies(config, m)
    return _cc_residual(config.q, m.m, potential, tol)


def _cc_residual(q: np.ndarray, mass: np.ndarray, potential: PotentialSpec, tol: float):
    """``cc_residual`` of checked positions ``q`` and masses ``mass``.

    ``q`` is one (n, 2) configuration, which gives a CCReport, or an
    (S, n, 2) stack, which gives a list of S CCReports. A stack needs a
    gradient kernel that takes stacks, which the harmonic one does. Each
    row equals its one-configuration call bit for bit: the norms and dot
    products are ``np.vecdot`` rows, the 1-D dot, and the power-of-two
    scales are taken per row. A stack raises the error of its first
    failing row, as one call per row in row order would.
    """
    rows = q if q.ndim == 3 else q[None]
    size, n2 = len(rows), 2 * q.shape[-2]
    g = np.empty((size, 2, n2))  # grad I and grad U of each row, flattened
    # an overflow shows up in the norms; finite norms bound everything after them
    with np.errstate(all="ignore"):
        np.multiply(2.0, _mass_weighted_offsets(q, mass).reshape(size, n2), out=g[:, 0])
        try:
            # raised, since an overflowing r^3 would round a pair force to 0, not to inf;
            # the harmonic gradient divides by nothing, so its overflows stay inf or NaN
            with np.errstate(over="ignore" if potential.kind == HARMONIC else "raise"):
                g[:, 1] = _gradient_rows(potential, q, mass).reshape(size, n2)
        except FloatingPointError:
            g[:, 1] = math.inf
        norms = np.sqrt(np.vecdot(g, g))
        e = np.frexp(np.abs(g).max(axis=-1))[1]
        g = np.ldexp(g, -e[..., None])
        gi, gu = g[:, 0], g[:, 1]
        gu_sq = np.vecdot(gu, gu)
        w2 = np.vecdot(gi, gu) / gu_sq  # w2 * 2^(eu - ei)
        d = gi - w2[:, None] * gu
        misfit = np.ldexp(np.sqrt(np.vecdot(d, d)), e[:, 0])  # |grad I - w2 grad U|
        # not finite exactly when w2 is undetermined or itself reaches 2^1024
        omega_squared = np.ldexp(w2, e[:, 0] - e[:, 1])
    # only the harmonic grad U can round to a nonzero vector at a total collision:
    # singular kinds raise there, and power laws give grad U = 0 exactly
    collided = (rows == rows[:, :1]).reshape(size, -1).all(axis=-1).tolist() \
        if potential.kind == HARMONIC else itertools.repeat(False)
    tol = float(tol)
    reports = []
    # the rows' scalars as floats: the checks and the last division cost no array call
    for s, ((ni, nu), r, w, total_collision) in enumerate(zip(
            norms.tolist(), misfit.tolist(), omega_squared.tolist(), collided)):
        if not (math.isfinite(ni + nu) and math.isfinite(w)) or total_collision:
            overflow = "gradient overflow: |grad I| = {:.3e}, |grad U| = {:.3e}"
            if not math.isfinite(ni + nu):
                nu = nu if math.isfinite(nu) else math.inf  # NaN when grad U overflowed
                raise ValidationError("q", overflow.format(ni, nu))
            if gu_sq[s] == 0.0 or (rows[s] == rows[s, 0]).all():
                raise DegenerateGradient(f"|grad U| = {nu:.3e} is degenerate")
            nu = math.ldexp(math.sqrt(gu_sq[s]), int(e[s, 1]))
            raise ValidationError("q", overflow.format(ni, nu))
        residual = r / (1.0 + ni)
        reports.append(CCReport(residual, w, residual <= tol, tol))
    return reports if q.ndim == 3 else reports[0]


def _rescale_to_inertia(x: np.ndarray, m: MassVector, k: float) -> np.ndarray:
    """Recentre ``x`` on its center of mass and scale it onto I = k."""
    _, x = _cm_offsets(x, m.m)
    inertia = _inertia(x, m.m)
    if inertia <= 0.0:
        raise DegenerateGradient("cannot rescale a total collision")
    return math.sqrt(k / inertia) * x


def _lagrange_residual(x: np.ndarray, m: MassVector, potential: PotentialSpec):
    """grad I, the least-squares multiplier lam, and grad U - lam grad I at ``x``."""
    gi = 2.0 * _mass_weighted_offsets(x, m.m)
    gu = _gradient_rows(potential, x, m.m)
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
        inertia = _inertia(config0.q, m.m)
    if not math.isfinite(inertia):
        raise ValidationError("q", f"inertia overflow: I = {inertia:.3e}")
    if inertia <= 0.0:
        raise DegenerateGradient("starting configuration is a total collision")

    qcm, dq = _cm_offsets(config0.q, m.m)
    x = math.sqrt(k / inertia) * dq
    if not abs(_inertia(qcm + x, m.m) - k) <= _RESOLVED_INERTIA_RTOL * k:
        raise ValidationError(
            "k", f"inertia {k!r} is lost in rounding at center of mass "
                 f"({qcm[0]:.3e}, {qcm[1]:.3e})")
    state = None
    for iteration in range(max_iter + 1):
        current = qcm + x
        report = _cc_residual(current, m.m, potential, tol)
        if report.is_cc:
            return PlanarConfiguration(current)
        if iteration == max_iter:
            raise NoConvergence(f"no convergence after {max_iter} iterations",
                                iteration, report.residual)
        if state is None:
            state = _lagrange_residual(x, m, potential)
        moved = _damped_newton(x, m, potential, k, state)
        if moved is None:
            floor = _cc_residual(x, m.m, potential, tol)
            why = (f": the limit is the rounding floor at the center of mass ({qcm[0]:.3e}, "
                   f"{qcm[1]:.3e}), where the iterate's own residual is {floor.residual:.3e}"
                   if floor.is_cc else "")
            raise NoConvergence(f"line search stalled at residual {report.residual:.3e}{why}",
                                iteration, report.residual)
        x, state = moved


def theorem1_family(k: float, eta: float) -> PlanarConfiguration:
    """Isosceles three-body configuration of inertia k at family angle eta.

    Body 1 sits at (0, y1) and bodies 2, 3 at (-/+ x3, 0) with
    y1 = sqrt(3k/2) cos(eta) and x3 = sqrt(k/2) sin(eta); unit masses are
    implied. Every member is a central configuration of the harmonic
    potential, and distinct eta in (0, pi/2] give rotationally
    inequivalent shapes.
    """
    return PlanarConfiguration(_family_positions(k, [eta])[0])


def _family_positions(k: float, etas) -> np.ndarray:
    """Read-only (S, 3, 2) positions of ``theorem1_family`` at the S ``etas``, with
    libm's cos and sin, which round alike on every platform, unlike numpy's SIMD loops."""
    if not np.isfinite(k) or k <= 0.0:
        raise ValidationError("k", "must be positive")
    if not np.isfinite(etas).all():
        raise ValidationError("eta", "must be finite")
    q = np.zeros((len(etas), 3, 2))
    q[:, 0, 1] = math.sqrt(1.5 * k) * np.array([math.cos(eta) for eta in etas])
    q[:, 2, 0] = math.sqrt(0.5 * k) * np.array([math.sin(eta) for eta in etas])
    q[:, 1, 0] = -q[:, 2, 0]
    _require_bodies(np.isfinite(q), "q", "coordinates must be finite")
    return _frozen(q)


def family_masses() -> MassVector:
    return MassVector(np.ones(3))


def verify_continuum(k: float, n_samples: int, tol: float = 1e-12) -> ContinuumReport:
    """Sample the isosceles family and certify it as a genuine continuum.

    Draws eta uniformly in (0, pi/2] (the open end avoids the coincident
    pair at eta = 0). The verdict is true when every sample is a central
    configuration within ``tol``, has inertia k to 1e-12 relative, and the
    base lengths r23 tell every two samples apart (``_unseparated_pairs``):
    a rotation about the center of mass that fits one sample onto another
    to a rigidity residual of 1e-9 sqrt(k) moves r23 by no more than
    the screen margin sqrt(6) (1e-9 sqrt(k) + 64 eps max|offset|). Two
    samples whose r23 lie within that margin of each other fail the
    certificate; no fit is made. Margin and r23 both scale with sqrt(k),
    so the verdict does not depend on k. At most MAX_FAMILY_SAMPLES samples
    are accepted. ``_family_positions`` checks k and builds all samples in one stack.
    """
    if not 2 <= n_samples <= MAX_FAMILY_SAMPLES or int(n_samples) != n_samples:
        raise ValidationError("n_samples", f"need 2 to {MAX_FAMILY_SAMPLES} samples")
    n_samples = int(n_samples)

    masses = family_masses()
    etas = [(math.pi / 2.0) * j / n_samples for j in range(1, n_samples + 1)]
    stack = _family_positions(k, etas)
    # raises at a k whose gradients overflow before the screen could overflow r23
    reports = _cc_residual(stack, masses.m, PotentialSpec.harmonic(), tol)
    _, offsets = _cm_offsets(stack, masses.m)
    r23, margin, unseparated = _unseparated_pairs(offsets, masses, _EQUIVALENCE_TOL * math.sqrt(k))
    samples, failures = [], []
    for eta, config, report, base, inertia in zip(
            etas, stack, reports, r23.tolist(), _inertia(stack, masses.m).tolist()):
        samples.append(FamilySample(eta, config, report, base))
        if not report.is_cc:
            failures.append(f"eta={eta:.6f}: residual {report.residual:.3e} exceeds {tol:g}")
        if abs(inertia - k) > _INERTIA_REL_TOL * k:
            failures.append(f"eta={eta:.6f}: inertia {inertia!r} misses k={k!r}")
    for i, j in unseparated:
        failures.append(f"samples eta={etas[i]:.6f} and eta={etas[j]:.6f} "
                        f"are not told apart: r23 within {margin:.3e}")
    return ContinuumReport(float(k), tuple(samples), not failures, tuple(failures))


def _unseparated_pairs(offsets: np.ndarray, masses: MassVector, tol: float):
    """The base lengths r23 (S,) of three-body configurations ``offsets``
    (S, 3, 2), the screen margin, and the pairs (i, j), i < j, in (i, j)
    order, that are neighbours in the order of r23 and whose r23 differ by
    at most that margin.

    For any orthogonal Omega with misfits e_i = a_i - Omega b_i and residual
    rho, sum m_i |e_i|^2 = M rho^2, so |r_ij(a) - r_ij(b)| <= |e_i| + |e_j|
    <= sqrt(2M / m_min) rho. With margin = sqrt(2M / m_min) (tol + 64 eps
    max|offsets|), where the second term covers the rounding of r23 and of
    the fit, two samples that a rotation fits to a rigidity residual of
    at most ``tol`` therefore lie in one run of reported neighbours.
    """
    r23 = _pair_offsets(offsets)[4][:, -1]
    bound = math.sqrt(2.0 * masses.total / float(masses.m.min()))
    margin = bound * (tol + _SCREEN_ROUNDING * float(np.abs(offsets).max()))
    order = np.argsort(r23)
    close = np.flatnonzero(np.diff(r23[order]) <= margin)
    i, j = np.sort(np.stack([order[close], order[close + 1]]), axis=0)
    return r23, margin, sorted(zip(i.tolist(), j.tolist()))
