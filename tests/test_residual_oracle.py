"""Bit oracle of the one-configuration residual: ``_cc_residual`` on one (n, 2)
configuration against a copy of its earlier form, which ran every configuration as a
(1, 2n) stack row.

The copy takes |grad I|, grad U . grad U and the other dots as ``np.vecdot`` rows and
its power-of-two scales with array ``np.frexp`` and ``np.ldexp``; it keeps every scalar
an array until the end. ``_cc_residual`` works on flat (2n,) rows with 1-D
``ndarray.dot`` and carries its scalars as floats, with ``math.frexp`` and
``math.ldexp``. For every input both must give byte-equal ``residual`` and
``omega_squared`` and the same ``is_cc``, or the same error type and message. Where a
finite grad U has a norm that overflows, the earlier form took that norm with
``math.ldexp`` and let its OverflowError escape; the copy takes it with ``np.ldexp``,
whose inf gives the ValidationError the stacked path has always raised there. Each
comparison runs in one process, so it holds under any BLAS kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import CCReport, PotentialSpec, ValidationError, cc_residual, central_config
from harmonia.central_config import _cc_residual
from harmonia.core import HARMONIC, _mass_weighted_offsets
from harmonia.errors import DegenerateGradient, HarmoniaError

POTENTIALS = [PotentialSpec.harmonic(), PotentialSpec.newtonian(),
              PotentialSpec.power(-2.0, 1.0), PotentialSpec.power(-3.0, 1.0),
              PotentialSpec.power(-0.5, 1.3), PotentialSpec.power(0.5, 2.0),
              PotentialSpec.power(1.5, 1.0), PotentialSpec.power(3.0, 0.7)]
TOLERANCES = [0.0, 1e-15, 1e-10, 1e-9, 1e-3, 1.0]


def row_cc_residual(q, mass, potential, tol):
    """The earlier one-configuration ``_cc_residual``: a (1, 2n) stack row."""
    n2 = 2 * q.shape[-2]
    g = np.empty((1, 2, n2))
    with np.errstate(all="ignore"):
        gi = np.multiply(2.0, _mass_weighted_offsets(q, mass).reshape(1, n2), out=g[:, 0])
        try:
            with np.errstate(over="ignore" if potential.kind == HARMONIC else "raise"):
                # read off the module, so that a test's stand-in gradient reaches both
                g[:, 1] = central_config._gradient_rows(
                    potential, q, mass, relative=True).reshape(1, n2)
        except FloatingPointError:
            g[:, 1] = math.inf
        ni = np.sqrt(np.vecdot(gi, gi))
        top = np.abs(g).max(axis=-1)
        e = np.frexp(top)[1]
        g = np.ldexp(g, -e[..., None])
        gi, gu = g[:, 0], g[:, 1]
        gu_sq = np.vecdot(gu, gu)
        w2 = np.vecdot(gi, gu) / gu_sq
        d = gi - w2[:, None] * gu
        misfit = np.ldexp(np.sqrt(np.vecdot(d, d)), e[:, 0])
        omega_squared = np.ldexp(w2, e[:, 0] - e[:, 1])
        nu = np.where(np.isfinite(top[:, 1]), np.ldexp(np.sqrt(gu_sq), e[:, 1]), math.inf)
        ni, nu, r, w, sq = (float(a[0]) for a in (ni, nu, misfit, omega_squared, gu_sq))
    collided = potential.kind == HARMONIC and bool((q == q[0]).all())
    if not (math.isfinite(ni + nu) and math.isfinite(w)) or collided:
        if math.isfinite(ni + nu) and (sq == 0.0 or collided):
            raise DegenerateGradient(f"|grad U| = {nu:.3e} is degenerate")
        raise ValidationError("q", f"gradient overflow: |grad I| = {ni:.3e}, |grad U| = {nu:.3e}")
    residual = r / (1.0 + ni)
    return CCReport(residual, w, residual <= float(tol), float(tol))


def outcome(call, *args):
    """The report's bytes and verdict, or the type and message of the error raised."""
    try:
        report = call(*args)
    except HarmoniaError as exc:
        return type(exc).__name__, str(exc)
    return (np.float64(report.residual).tobytes(), np.float64(report.omega_squared).tobytes(),
            report.is_cc, report.tol)


def assert_same_outcome(q, mass, potential, tol):
    want = outcome(row_cc_residual, q, mass, potential, tol)
    assert outcome(_cc_residual, q, mass, potential, tol) == want


@st.composite
def shapes(draw, n):
    """n bodies: general, near a regular polygon (near central for many kinds),
    collinear with signed zeros, with a coincident pair, or all at one point."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["general", "polygon", "collinear", "coincident", "total"]))
    q = rng.uniform(-1.0, 1.0, (n, 2))
    if kind == "polygon":
        angle = 2.0 * math.pi * np.arange(n) / n
        q = np.column_stack([np.cos(angle), np.sin(angle)]) + rng.uniform(-1e-9, 1e-9, (n, 2))
    elif kind == "collinear":
        q[:, 1] = 0.0
        q[::2, 1] = -0.0
    elif kind == "coincident":
        q[-1] = q[0]
    elif kind == "total":
        q[:] = q[0]
    return q


@st.composite
def systems(draw, exponents):
    """A shape of n = 2..8 bodies scaled by m 10^e, e drawn from ``exponents``, with
    masses, a potential of every kind and a tolerance."""
    n = draw(st.integers(2, 8))
    scale = draw(st.floats(1.0, 9.99)) * 10.0 ** draw(exponents)
    q = scale * draw(shapes(n))
    mass = np.array(draw(st.lists(st.floats(0.1, 1000.0), min_size=n, max_size=n)))
    return q, mass, draw(st.sampled_from(POTENTIALS)), draw(st.sampled_from(TOLERANCES))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(system=systems(st.integers(-150, 150)))
def test_one_configuration_residual_is_the_stack_rows_bit_for_bit(system):
    assert_same_outcome(*system)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=systems(st.one_of(st.integers(280, 307), st.integers(-323, -290))))
def test_overflow_underflow_and_subnormal_scales_give_the_stack_rows_outcome(system):
    # grad I, grad U, their norms or w2 overflow near the top of the range; near the
    # bottom the offsets are subnormal or 0, and the frexp exponents fall below -1022
    assert_same_outcome(*system)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=systems(st.integers(-20, 20)), data=st.data())
def test_a_gradient_holding_inf_or_nan_gives_the_stack_rows_outcome(system, data):
    # a NaN that comes before every finite entry is skipped by Python's max, which the
    # one-configuration path must still report as |grad U| = inf
    q, mass, potential, tol = system
    n2 = 2 * len(q)
    spots = data.draw(st.lists(st.integers(0, n2 - 1), min_size=1, max_size=3, unique=True))
    values = data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                                min_size=len(spots), max_size=len(spots)))
    gradient = central_config._gradient_rows

    def spoiled(*args, **kwargs):
        grad = gradient(*args, **kwargs)
        grad.reshape(-1)[spots] = values
        return grad

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(central_config, "_gradient_rows", spoiled)
        assert_same_outcome(q, mass, potential, tol)


@pytest.mark.parametrize("scale, masses", [
    (5e305, 10.0), (8e305, 10.0), (1e306, 10.0), (1e150, 1.0), (1.7e308, 1.0),
    (1.7e308, 2.0), (1e-310, 1.0), (5e-324, 1.0)])
@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: p.kind + repr(p.exponent))
def test_edge_scales_give_the_stack_rows_outcome(scale, masses, potential):
    q = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_same_outcome(q, np.full(3, masses), potential, 1e-9)


def test_an_overflowing_grad_u_norm_is_a_gradient_overflow():
    # every entry of grad U is a double, but |grad U| is not: the earlier one-configuration
    # path raised OverflowError from math.ldexp here
    q = 8e305 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError) as err:
        cc_residual(q, [10.0, 10.0, 10.0], PotentialSpec.harmonic())
    assert err.value.field == "q"
    assert err.value.reason.startswith("gradient overflow: ")
    assert err.value.reason.endswith("|grad U| = inf")
