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
from functools import cached_property

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
    _number,
    _pair_coefficients,
    _pair_gradient,
    _pair_offsets,
    _positive,
    _require_bodies,
)
from .errors import CollisionSingularity, DegenerateGradient, NoConvergence, ValidationError

_INERTIA_REL_TOL = 1e-12
# refine_cc refuses a target inertia that q_cm + x carries to fewer digits
_RESOLVED_INERTIA_RTOL = 1e-8

# verify_continuum's time grows about linearly with the sample count: 16384 samples take
# ~17 ms on a 2-vCPU Xeon, and `family` ~57 ms, most of it in printing a line per sample
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


@dataclass(frozen=True, eq=False)
class FamilySample:
    """One member of the isosceles family, its verdict and the r23 the screen compared;
    ``config`` holds its read-only (3, 2) positions, a row of one stack for all samples.
    Equality is identity, as an array field has no truth value to compare by."""

    eta: float
    config: np.ndarray
    report: CCReport
    r23: float


@dataclass(frozen=True, eq=False)
class ContinuumReport:
    """Aggregate verdict over a sampled family of configurations.

    The samples are held as read-only arrays: their angles ``etas`` (S,),
    the positions ``configs`` (S, 3, 2), and the ``residual``, w2
    (``omega_squared``) and base length ``r23`` of each, all (S,), with
    the ``tol`` the residuals were judged by. ``samples`` builds one
    FamilySample per row on first read. Equality is identity, as for FamilySample.
    """

    k: float
    etas: np.ndarray
    configs: np.ndarray
    residual: np.ndarray
    omega_squared: np.ndarray
    r23: np.ndarray
    tol: float
    verdict: bool
    failures: tuple

    @cached_property
    def samples(self) -> tuple:
        """One FamilySample per row, whose ``config`` is that row of ``configs``."""
        tol = self.tol
        return tuple(
            FamilySample(eta, config, CCReport(residual, w, residual <= tol, tol), base)
            for eta, config, residual, w, base in zip(
                self.etas.tolist(), self.configs, self.residual.tolist(),
                self.omega_squared.tolist(), self.r23.tolist()))


def cc_residual(config, m, potential: PotentialSpec, tol: float = 1e-9) -> CCReport:
    """Least-squares test of the central-configuration condition.

    Solves grad I = w2 grad U for the scalar w2 and reports the
    scale-insensitive residual |grad I - w2 grad U| / (1 + |grad I|).
    Raises ValidationError on ``q`` when grad I, |grad I|^2, grad U, |grad U|
    or w2 overflows (the positions lie too far out for doubles), and
    DegenerateGradient when w2 is undetermined: every body sits at one
    point, or grad U is 0. Every supported potential is homogeneous of
    nonzero degree, so grad U vanishes only at a total collision and no
    absolute floor is set on |grad U|. w2 and |grad U| are solved on grad I
    and grad U each scaled by its own power of two, so grad U . grad U
    neither underflows at large scales nor overflows at small ones; the
    scales are undone exactly, so in the normal range nothing rounds
    differently.
    """
    config, m = _bodies(config, m)
    return _cc_residual(config.q, m.m, potential, _number(tol, "tol"))


def _cc_residual(q: np.ndarray, mass: np.ndarray, potential: PotentialSpec, tol: float):
    """``cc_residual`` of checked positions ``q`` and masses ``mass``.

    ``q`` is one (n, 2) configuration, which gives a CCReport, or a harmonic
    (S, n, 2) stack, which gives ``_stacked_cc_residual``'s (S,) arrays.
    There are two paths because a refine calls this once per iterate on a
    handful of bodies, where each array call costs more than its arithmetic:
    one configuration works on the flat (2n,) rows of grad I and grad U and
    keeps every scalar a float, while a stack reduces all rows at once.
    Both round alike, bit for bit: a 1-D ``ndarray.dot`` is the BLAS dot
    that a stack's ``np.vecdot`` rows reach, the power-of-two scales come
    from the same exponents, and each scalar step is one IEEE operation on
    floats as on arrays. ``math.ldexp`` raises OverflowError where
    ``np.ldexp`` gives inf, and a float division by 0 raises, so ``_ldexp``
    and the degenerate test before w2 stand in for the array semantics.
    |grad I| is the plain norm, so positions whose |grad I|^2 overflows are
    refused; |grad U| is read off the scaled grad U, so a grad U whose
    square alone overflows (a singular potential at a small scale) passes.
    A grad U holding an inf or a NaN has |grad U| = inf.
    """
    if q.ndim == 3:
        return _stacked_cc_residual(q, mass)
    harmonic = potential.kind == HARMONIC
    n2 = 2 * len(q)
    # an overflow shows up in the norms; finite norms bound everything after them
    with np.errstate(all="ignore"):
        gi = _mass_weighted_offsets(q, mass).reshape(n2)
        gi *= 2.0
        try:
            with np.errstate(over="ignore" if harmonic else "raise"):
                gu = _gradient_rows(potential, q, mass, relative=True).reshape(n2)
        except FloatingPointError:  # an overflowing r^3 would round a pair force to 0, not inf
            gu = None
        ni = math.sqrt(gi.dot(gi))  # |grad I|
        nu = sq = math.inf
        if gu is not None:
            # max skips a NaN that comes first, which then shows up in sq
            eu = math.frexp(max(map(abs, gu.tolist())))[1]
            gu = np.ldexp(gu, -eu)
            sq = float(gu.dot(gu))
            if math.isfinite(sq):
                nu = _ldexp(math.sqrt(sq), eu)
        if not math.isfinite(ni + nu) or sq == 0.0:  # w2 would be inf or NaN
            raise _cc_error(ni, nu, True)
        # ni is finite, so every entry of grad I is
        ei = math.frexp(max(map(abs, gi.tolist())))[1]
        gi = np.ldexp(gi, -ei)
        w2 = float(gi.dot(gu)) / sq  # w2 * 2^(eu - ei)
        omega_squared = _ldexp(w2, ei - eu)
        # only the harmonic grad U can round to a nonzero vector at a total collision:
        # singular kinds raise there, and power laws give grad U = 0 exactly
        collided = harmonic and bool((q == q[0]).all())
        if collided or not math.isfinite(omega_squared):
            raise _cc_error(ni, nu, collided)
        gi -= w2 * gu  # grad I - w2 grad U, scaled
        misfit = _ldexp(math.sqrt(gi.dot(gi)), ei)
    residual = misfit / (1.0 + ni)
    return CCReport(residual, omega_squared, residual <= tol, tol)


def _ldexp(x: float, e: int) -> float:
    """x 2^e as ``np.ldexp`` gives it: +/-inf where ``math.ldexp`` raises OverflowError."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _stacked_cc_residual(q: np.ndarray, mass: np.ndarray):
    """The (S,) residual and w2 arrays of an (S, n, 2) stack ``q`` under the harmonic
    potential, whose gradient kernel takes stacks; row s is central when ``residual[s] <=
    tol``. Each row equals its one-configuration ``_cc_residual`` bit for bit, and a stack
    raises the error of its first failing row, as one call per row in row order would."""
    size, n2 = len(q), 2 * q.shape[-2]
    g = np.empty((size, 2, n2))  # grad I and grad U of each row, flattened
    # an overflow shows up in the norms; finite norms bound everything after them, and the
    # harmonic gradient divides by nothing, so its overflows stay inf or NaN
    with np.errstate(all="ignore"):
        gi = np.multiply(2.0, _mass_weighted_offsets(q, mass).reshape(size, n2), out=g[:, 0])
        g[:, 1] = _gradient_rows(PotentialSpec.harmonic(), q, mass).reshape(size, n2)
        ni = np.sqrt(np.vecdot(gi, gi))  # |grad I|
        # inf or NaN where a gradient holds one, tested before frexp, whose exponent
        # of an inf or a NaN is unspecified
        top = np.abs(g).max(axis=-1)
        e = np.frexp(top)[1]
        g = np.ldexp(g, -e[..., None])
        gi, gu = g[:, 0], g[:, 1]
        gu_sq = np.vecdot(gu, gu)
        w2 = np.vecdot(gi, gu) / gu_sq  # w2 * 2^(eu - ei)
        d = gi - w2[:, None] * gu
        misfit = np.ldexp(np.sqrt(np.vecdot(d, d)), e[:, 0])  # |grad I - w2 grad U|
        # not finite exactly when w2 is undetermined or itself reaches 2^1024
        omega_squared = np.ldexp(w2, e[:, 0] - e[:, 1])
        nu = np.where(np.isfinite(top[:, 1]), np.ldexp(np.sqrt(gu_sq), e[:, 1]), math.inf)
        # the harmonic grad U can round to a nonzero vector at a total collision
        collided = (q == q[:, :1]).all(axis=(1, 2))
        failing = ~(np.isfinite(ni + nu) & np.isfinite(omega_squared)) | collided
        if failing.any():
            s = int(failing.argmax())
            raise _cc_error(float(ni[s]), float(nu[s]), gu_sq[s] == 0.0 or collided[s])
        return misfit / (1.0 + ni), omega_squared


def _cc_error(ni: float, nu: float, degenerate: bool) -> Exception:
    """The error of a row whose norms |grad I| = ``ni``, |grad U| = ``nu`` or w2 are not
    finite, or that is ``degenerate`` (grad U = 0, or a harmonic total collision)."""
    if math.isfinite(ni + nu) and degenerate:
        return DegenerateGradient(f"|grad U| = {nu:.3e} is degenerate")
    return ValidationError("q", f"gradient overflow: |grad I| = {ni:.3e}, |grad U| = {nu:.3e}")


def _rescale_to_inertia(x: np.ndarray, m: MassVector, k: float) -> np.ndarray:
    """Recentre ``x`` on its center of mass and scale it onto I = k."""
    _, x = _cm_offsets(x, m.m)
    inertia = _inertia(x, m.m)
    if inertia <= 0.0:
        raise DegenerateGradient("cannot rescale a total collision")
    return math.sqrt(k / inertia) * x


def _lagrange_residual(x: np.ndarray, m: MassVector, potential: PotentialSpec):
    """grad I, the least-squares multiplier lam, and F = grad U - lam grad I at ``x``,
    with the ``_pair_coefficients`` of ``x`` (None for the harmonic kind), which the
    Newton step from ``x`` hands to the Hessian instead of sweeping the pairs again."""
    gi = 2.0 * _mass_weighted_offsets(x, m.m)
    if potential.kind == HARMONIC:
        coefficients, gu = None, _gradient_rows(potential, x, m.m)
    else:
        coefficients = _pair_coefficients(potential, x, m.m, relative=True)  # as the verdict
        gu = _pair_gradient(coefficients, m.n, keep=True)
    lam = float((gu * gi).sum()) / float((gi * gi).sum())
    return gi, lam, gu - lam * gi, coefficients


def _newton_scratch(m: MassVector):
    """What every Newton step of one refine shares: the bordered Jacobian with its two
    translation-gauge rows and columns written, the right-hand side, whose last four
    entries stay 0, and the ``_centering_hessian``."""
    n2 = 2 * m.n
    jac = np.zeros((n2 + 4, n2 + 4))
    jac[n2 + 1, 0:n2:2] = jac[0:n2:2, n2 + 1] = m.m
    jac[n2 + 2, 1:n2:2] = jac[1:n2:2, n2 + 2] = m.m
    return jac, np.zeros(n2 + 4), _centering_hessian(m.m)


def _newton_step(x: np.ndarray, m: MassVector, potential: PotentialSpec, state,
                 scratch) -> np.ndarray:
    """Newton step of F(q, lam) = (grad U - lam grad I, I - k) at a CM-frame ``x``.

    Solves the bordered Jacobian [[H_U - lam H_I, -grad I], [grad I^T, 0]];
    every iterate is rescaled onto I = k, so the I - k entry of F is taken
    as zero. F does not change under translation or rotation, so three gauge rows
    (no shift of the center of mass, no rotation about it) and their
    multiplier columns make the system square and regular at a
    nondegenerate critical point. The step writes into the refine's ``_newton_scratch``
    only H_U - lam H_I, the -/+ grad I border, the rotation-gauge row and column, and
    -F. H_U, from the pair coefficients in ``state``, goes straight into the Jacobian's
    top left, and 2 lam times the centering Hessian (H_I is twice it) is taken from it
    in place; ``np.linalg.solve`` copies its inputs, so the scratch is never solved in
    place.
    """
    gi, lam, f, coefficients = state
    jac, rhs, centering = scratch
    n2 = 2 * m.n
    hessian = _hessian_rows(potential, x, m.m, coefficients, out=jac[:n2, :n2])
    hessian -= 2.0 * lam * centering
    np.negative(gi.reshape(n2), out=jac[:n2, n2])
    jac[n2, :n2] = gi.reshape(n2)
    turn = jac[n2 + 3, :n2]  # no rotation about the center of mass
    np.multiply(-m.m, x[:, 1], out=turn[0::2])
    np.multiply(m.m, x[:, 0], out=turn[1::2])
    jac[:n2, n2 + 3] = turn
    np.negative(f.reshape(n2), out=rhs[:n2])
    return np.linalg.solve(jac, rhs)[:n2].reshape(-1, 2)


def _norm(f: np.ndarray) -> float:
    """|F|, the double ``np.linalg.norm`` gives, without its dispatch."""
    f = f.reshape(-1)
    return math.sqrt(f.dot(f))


def _damped_newton(x: np.ndarray, m: MassVector, potential: PotentialSpec, k: float, state,
                   scratch):
    """The first of the Newton step and its halvings (at most 30) that lowers |F|.

    Each trial is rescaled onto I = k before |F| is measured. Returns the
    new iterate with its ``_lagrange_residual``, or None when no trial does
    better (or the Jacobian is singular, at a degenerate critical point).
    """
    try:
        step = _newton_step(x, m, potential, state, scratch)
    except np.linalg.LinAlgError:
        return None
    f0 = _norm(state[2])
    for halving in range(30):
        try:
            trial = _rescale_to_inertia(x + 0.5 ** halving * step, m, k)
            trial_state = _lagrange_residual(trial, m, potential)
        except (CollisionSingularity, DegenerateGradient):  # a trial through a collision
            continue
        if _norm(trial_state[2]) < f0:
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

    Before its first step a refine builds, once, the ``_newton_scratch``: the
    bordered Jacobian with its translation-gauge rows and columns, the
    right-hand side and the centering Hessian. Each step writes only what moves
    with the iterate (``_newton_step``), and its Hessian reads the pair
    coefficients that the iterate's ``_lagrange_residual`` swept; every iterate
    is bit for bit that of a step built afresh.

    Takes at most ``max_iter`` steps and judges convergence by
    ``cc_residual`` of the configuration it returns. NoConvergence carries
    the steps taken and that residual, and names the rounding floor at
    q_cm when the stalled iterate is central only in the q_cm frame.
    Raises ValidationError on ``k`` unless a positive number, on ``tol`` unless
    a number, on ``max_iter`` unless it is a non-negative integer, on ``q`` when
    the start's inertia overflows, and on ``k`` when q_cm is so large that a
    configuration of inertia k cannot be told apart from its rounding.
    """
    config0, m = _bodies(config0, m)
    k = _positive(k, "k", "must be positive")
    tol = _number(tol, "tol")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValidationError("max_iter", "must be a non-negative integer")
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
            scratch = _newton_scratch(m)
        moved = _damped_newton(x, m, potential, k, state, scratch)
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
    eta = _number(eta, "eta")
    return PlanarConfiguration(_family_positions(_positive(k, "k", "must be positive"), [eta])[0])


def _family_positions(k: float, etas) -> np.ndarray:
    """Read-only (S, 3, 2) positions of ``theorem1_family`` at a checked ``k`` and the S
    ``etas``, with libm's cos and sin, which round alike everywhere, unlike numpy's SIMD."""
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
    are accepted. ``_family_positions`` checks k and builds all samples in one stack;
    a k at which they, their gradients or their inertia overflow is refused as too
    large. The samples stay arrays from the residual kernel to the report;
    only the failures are formatted: each failing sample's residual line,
    then its inertia line, then the unseparated pairs.
    """
    n_samples = _number(n_samples, "n_samples")
    if not 2 <= n_samples <= MAX_FAMILY_SAMPLES or int(n_samples) != n_samples:
        raise ValidationError("n_samples", f"need 2 to {MAX_FAMILY_SAMPLES} samples")
    n_samples = int(n_samples)
    tol = _number(tol, "tol")
    k = _positive(k, "k", "must be positive")

    masses = family_masses()
    etas = [(math.pi / 2.0) * j / n_samples for j in range(1, n_samples + 1)]
    try:  # before the r23 screen could overflow
        stack = _family_positions(k, etas)
        residual, omega_squared = _cc_residual(stack, masses.m, PotentialSpec.harmonic(), tol)
    except ValidationError:  # positions or gradients that overflow at too large a k
        raise ValidationError("k", "too large: the family's gradients overflow") from None
    with np.errstate(over="ignore"):  # its pair sum, 2 M k, overflows first
        inertia = _inertia(stack, masses.m)
    if not np.isfinite(inertia).all():
        raise ValidationError("k", "too large: the family's inertia overflows")
    _, offsets = _cm_offsets(stack, masses.m)
    r23, margin, unseparated = _unseparated_pairs(offsets, masses, _EQUIVALENCE_TOL * math.sqrt(k))
    not_cc = ~(residual <= tol)
    missed = np.abs(inertia - k) > _INERTIA_REL_TOL * k
    failures = []
    for s in np.flatnonzero(not_cc | missed).tolist():
        if not_cc[s]:
            failures.append(f"eta={etas[s]:.6f}: residual {float(residual[s]):.3e} "
                            f"exceeds {tol:g}")
        if missed[s]:
            failures.append(f"eta={etas[s]:.6f}: inertia {float(inertia[s])!r} misses k={k!r}")
    for i, j in unseparated:
        failures.append(f"samples eta={etas[i]:.6f} and eta={etas[j]:.6f} "
                        f"are not told apart: r23 within {margin:.3e}")
    return ContinuumReport(k, _frozen(np.array(etas)), stack, _frozen(residual),
                           _frozen(omega_squared), _frozen(r23), tol, not failures,
                           tuple(failures))


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
