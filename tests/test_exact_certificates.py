"""Exact twins of both certificates, in rational arithmetic.

``Fraction(x)`` is exact for every finite double, so I and r_ij^2 of the
positions the code produces are evaluated here without rounding: the
float kernels are bounded in ulps of those exact values, and the
certificates' identities are checked on rational configurations with no
tolerance at all. Every body has unit mass, as in both certificates.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia.central_config import _family_positions
from harmonia.core import _inertia
from harmonia.dynamics import rhombus_trajectory

# measured worst cases: 2.9 ulps of k for the exact I, 2.4 ulps of I for _inertia
ULPS = 8


def exact(q):
    """The doubles of the positions ``q`` (n, 2) as Fractions, each exactly."""
    return [(Fraction(x), Fraction(y)) for x, y in q.tolist()]


def squared_distances(p):
    """Exact r_ij^2 of the rational positions ``p``, keyed by the pair (i, j), i < j."""
    return {(i, j): (p[i][0] - p[j][0]) ** 2 + (p[i][1] - p[j][1]) ** 2
            for i in range(len(p)) for j in range(i + 1, len(p))}


def inertia(p):
    """Exact I = (1/M) sum_{i<j} r_ij^2 of unit masses at the rational positions ``p``."""
    return sum(squared_distances(p).values()) / len(p)


def assert_within_ulps(value, reference):
    """|value - reference| is at most ULPS ulps of the double nearest ``reference``."""
    assert abs(Fraction(value) - Fraction(reference)) <= ULPS * Fraction(math.ulp(float(reference)))


# -- theorem 1: the isosceles family of harmonic central configurations ------------

@pytest.mark.parametrize("k", [1.0, 1e-29, 1e300, 1e-300])
def test_family_is_on_the_ellipsoid_and_its_base_grows_exactly(k):
    # the 64 angles of reproduce theorem1, (pi/2) j / 64
    stack = _family_positions(k, [(math.pi / 2.0) * j / 64 for j in range(1, 65)])
    base = []
    for q, float_inertia in zip(stack, _inertia(stack, np.ones(3)).tolist()):
        p = exact(q)
        assert_within_ulps(inertia(p), k)
        assert_within_ulps(float_inertia, inertia(p))
        base.append(squared_distances(p)[1, 2])
    # the exact twin of base_length_strictly_monotone: r23^2 tells every two samples apart
    assert all(b > a for a, b in zip(base, base[1:]))


# -- theorem 2: the constant-inertia rhombus that is no relative equilibrium --------

@pytest.mark.parametrize("k", [1.0, 5.0, 1e-7, 3e5, 1e300, 1e-300])
def test_rhombus_samples_hold_inertia_k_within_ulps(k):
    # every 25th of the 1001 closed-form samples of reproduce theorem2
    traj = rhombus_trajectory(k, np.linspace(0.0, 2.0 * math.pi, 1001)[::25])
    for q, float_inertia in zip(traj.q, traj.inertia.tolist()):
        p = exact(q)
        assert_within_ulps(inertia(p), k)
        assert_within_ulps(float_inertia, inertia(p))


def rational_rhombus(a, u):
    """Bodies 1 and 4 at (0, +/- a cos 2t), 2 and 3 at (-/+ a sin 2t, 0), with cos 2t and
    sin 2t the rational point ((1 - u^2) / (1 + u^2), 2u / (1 + u^2)) of the unit circle."""
    cos2t, sin2t = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    zero = Fraction(0)
    return [(zero, a * cos2t), (-a * sin2t, zero), (a * sin2t, zero), (zero, -a * cos2t)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(a=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
       u=st.fractions(min_value=-10 ** 6, max_value=10 ** 6))
def test_rational_rhombus_has_inertia_k_and_r14_swings_by_2k(a, u):
    k = 2 * a * a
    assert inertia(rational_rhombus(a, u)) == k
    # r14 changes, so no rigid motion carries one shape to the other
    swing = squared_distances(rational_rhombus(a, Fraction(0)))[0, 3] \
        - squared_distances(rational_rhombus(a, Fraction(1)))[0, 3]
    assert swing == 2 * k
