"""Bit oracle of the refine path: ``refine_cc`` against a copy of the Newton iteration
that builds every part of every step afresh.

The oracle forms the centering Hessian with ``np.kron``, the pair Hessian with
``np.stack`` and an ``np.eye`` broadcast from its own pair sweep, a new bordered
Jacobian, gauge block and right-hand side per step, and |F| with ``np.linalg.norm``.
``refine_cc`` keeps the Jacobian's fixed blocks for a whole refine and takes each
Hessian from the pair coefficients of its iterate's residual, and it must reach the
same doubles. Each comparison runs in one process, so it holds under any BLAS kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import MassVector, NoConvergence, PotentialSpec, refine_cc
from harmonia.central_config import _cc_residual, _rescale_to_inertia
from harmonia.core import (
    HARMONIC,
    _cm_offsets,
    _gradient_rows,
    _hessian_rows,
    _inertia,
    _mass_weighted_offsets,
    _pair_coefficients,
    _pair_gradient,
)
from harmonia.errors import CollisionSingularity, DegenerateGradient, HarmoniaError

POTENTIALS = [PotentialSpec.harmonic(), PotentialSpec.newtonian(),
              PotentialSpec.power(-2.0, 1.0), PotentialSpec.power(-0.5, 1.3),
              PotentialSpec.power(0.5, 2.0), PotentialSpec.power(1.5, 1.0),
              PotentialSpec.power(3.0, 0.7)]


def fresh_centering_hessian(mass):
    block = np.diag(mass) - np.outer(mass, mass) / float(mass.sum())
    return np.kron(block, np.eye(2))


def fresh_hessian(potential, q, mass):
    """The Hessian from its own pair sweep, its blocks stacked and broadcast."""
    if potential.kind == HARMONIC:
        return float(mass.sum()) * fresh_centering_hessian(mass)
    i, j, dx, dy, rr, alpha, c = _pair_coefficients(potential, q, mass)
    c_over_r = (alpha - 2.0) * c / (rr * rr)
    outer = np.stack([dx * dx, dx * dy, dx * dy, dy * dy], axis=-1).reshape(-1, 2, 2)
    block = c[:, None, None] * np.eye(2) + c_over_r[:, None, None] * outer
    n = q.shape[0]
    hess = np.zeros((n, n, 2, 2))
    hess[i, j] = hess[j, i] = -block
    hess[np.arange(n), np.arange(n)] = -hess.sum(axis=1)
    return hess.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def fresh_lagrange_residual(x, m, potential):
    gi = 2.0 * _mass_weighted_offsets(x, m.m)
    gu = _gradient_rows(potential, x, m.m)
    lam = float((gu * gi).sum()) / float((gi * gi).sum())
    return gi, lam, gu - lam * gi


def fresh_newton_step(x, m, potential, state):
    gi, lam, f = state
    n2 = 2 * m.n
    gauge = np.zeros((3, n2))
    gauge[0, 0::2] = m.m
    gauge[1, 1::2] = m.m
    gauge[2, 0::2] = -m.m * x[:, 1]
    gauge[2, 1::2] = m.m * x[:, 0]
    jac = np.zeros((n2 + 4, n2 + 4))
    jac[:n2, :n2] = fresh_hessian(potential, x, m.m) - 2.0 * lam * fresh_centering_hessian(m.m)
    jac[:n2, n2] = -gi.ravel()
    jac[n2, :n2] = gi.ravel()
    jac[:n2, n2 + 1:] = gauge.T
    jac[n2 + 1:, :n2] = gauge
    rhs = np.zeros(n2 + 4)
    rhs[:n2] = -f.ravel()
    return np.linalg.solve(jac, rhs)[:n2].reshape(-1, 2)


def fresh_damped_newton(x, m, potential, k, state):
    try:
        step = fresh_newton_step(x, m, potential, state)
    except np.linalg.LinAlgError:
        return None
    f0 = float(np.linalg.norm(state[2]))
    for halving in range(30):
        try:
            trial = _rescale_to_inertia(x + 0.5 ** halving * step, m, k)
            trial_state = fresh_lagrange_residual(trial, m, potential)
        except (CollisionSingularity, DegenerateGradient):
            continue
        if float(np.linalg.norm(trial_state[2])) < f0:
            return trial, trial_state
    return None


def fresh_refine(q, m, potential, k, max_iter, tol):
    """``refine_cc``'s iteration on a checked start: ("ok", positions) or ("stalled" or
    "limit", iterations, residual)."""
    qcm, dq = _cm_offsets(q, m.m)
    x = math.sqrt(k / _inertia(q, m.m)) * dq
    state = None
    for iteration in range(max_iter + 1):
        current = qcm + x
        report = _cc_residual(current, m.m, potential, tol)
        if report.is_cc:
            return "ok", current.tobytes()
        if iteration == max_iter:
            return "limit", iteration, report.residual
        if state is None:
            state = fresh_lagrange_residual(x, m, potential)
        moved = fresh_damped_newton(x, m, potential, k, state)
        if moved is None:
            return "stalled", iteration, report.residual
        x, state = moved


def refined(q, m, potential, k, max_iter, tol):
    """``refine_cc`` in the shape of ``fresh_refine``, or the error it raised."""
    try:
        return "ok", refine_cc(q, m, potential, k, max_iter, tol).q.tobytes()
    except NoConvergence as exc:
        kind = "stalled" if str(exc).startswith("line search stalled") else "limit"
        return kind, exc.iterations, exc.residual
    except HarmoniaError as exc:
        return type(exc).__name__, str(exc)


def expected(q, m, potential, k, max_iter, tol):
    try:
        return fresh_refine(q, m, potential, k, max_iter, tol)
    except HarmoniaError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def refine_starts(draw):
    """A regular n-gon (n = 2..6) with seeded noise of half-width 0.01..1, masses
    0.3..3, a potential of every kind, and k = 1e-6..1e6."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angle = 2.0 * math.pi * np.arange(n) / n
    noise = draw(st.sampled_from([0.01, 0.1, 0.3, 1.0]))
    q = np.column_stack([np.cos(angle), np.sin(angle)]) + rng.uniform(-noise, noise, (n, 2))
    masses = MassVector(rng.uniform(0.3, 3.0, n))
    potential = draw(st.sampled_from(POTENTIALS))
    k = 10.0 ** draw(st.integers(-6, 6)) * draw(st.sampled_from([1.0, 2.5, 0.37]))
    return q, masses, potential, k


@settings(max_examples=200, derandomize=True, deadline=None)
@given(start=refine_starts())
def test_refined_positions_are_those_of_fresh_newton_steps(start):
    q, masses, potential, k = start
    got = refined(q, masses, potential, k, 40, 1e-10)
    assert got == expected(q, masses, potential, k, 40, 1e-10)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(start=refine_starts(), max_iter=st.integers(0, 6))
def test_unconverged_refines_report_the_steps_and_residual_of_fresh_newton_steps(
        start, max_iter):
    # tol = 0 is met only where the residual rounds to 0, so most refines run to their
    # limit or stall
    q, masses, potential, k = start
    assert refined(q, masses, potential, k, max_iter, 0.0) \
        == expected(q, masses, potential, k, max_iter, 0.0)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # the sign of every zero


grid = st.integers(-4, 4).map(lambda i: i / 4.0)


@st.composite
def hessian_systems(draw):
    """n = 2..6 distinct points of a quarter grid, whose offsets hold signed zeros,
    or the same points on one line, with masses and a potential of every kind."""
    n = draw(st.integers(2, 6))
    points = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n, unique=True))
    q = np.array(points)
    if draw(st.booleans()):
        q[:, 1] = -0.0 if draw(st.booleans()) else 0.0
        q[:, 0] = np.arange(n) * draw(st.sampled_from([0.5, -1.5]))
    mass = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    return q, mass, draw(st.sampled_from(POTENTIALS))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=hessian_systems())
def test_hessian_from_the_residuals_coefficients_is_the_fresh_hessian(system):
    q, mass, potential = system
    want = fresh_hessian(potential, q, mass)
    assert_same_bits(_hessian_rows(potential, q, mass), want)
    if potential.kind != HARMONIC:  # the coefficients after a gradient that kept them
        coefficients = _pair_coefficients(potential, q, mass)
        _pair_gradient(coefficients, len(q), keep=True)
        assert_same_bits(_hessian_rows(potential, q, mass, coefficients), want)


@pytest.mark.parametrize("potential", POTENTIALS[1:], ids=lambda p: repr(p.exponent))
def test_a_kept_gradient_equals_the_in_place_gradient(potential, rng):
    q = rng.uniform(-1.0, 1.0, (7, 2))
    mass = rng.uniform(0.1, 10.0, 7)
    coefficients = _pair_coefficients(potential, q, mass)
    before = coefficients[-1].copy()
    assert_same_bits(_pair_gradient(coefficients, 7, keep=True), _gradient_rows(potential, q, mass))
    assert_same_bits(coefficients[-1], before)
