"""The dense n x n kernels built in strips against a one-shot oracle, byte for byte.

``core._distance_matrix`` and ``core._inertia`` compute the upper triangle of their
table a strip of ``core._STRIP_ROWS`` rows at a time and copy it, transposed, below the
diagonal. The oracle below is the whole-table formula, evaluated in one expression per
step, with the same IEEE operations in the same order, so every entry and every I must
carry its bytes at every n: below, at and just past one strip, two strips, and n = 300.
"""

import warnings

import numpy as np
import pytest

from harmonia import ValidationError, moment_of_inertia, mutual_distances
from harmonia import core
from harmonia.core import _distance_matrix, _inertia

STRIP = core._STRIP_ROWS
SIZES = [2, 3, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP - 1, 2 * STRIP, 2 * STRIP + 1, 300]


def oracle_distances(q):
    """r_ab = sqrt(dx dx + dy dy), dx = x_a - x_b, over the whole (..., n, n) table."""
    x, y = q[..., 0], q[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)


def oracle_inertia(q, mass):
    r = oracle_distances(q)
    terms = (mass[:, None] * mass * r) * r
    return terms.sum(axis=(-2, -1)) / (2.0 * float(mass.sum()))


def configurations(rng, n, stack):
    """Positions (n, 2), or an (S, n, 2) stack, with two coincident bodies and signed
    zeros among the coordinates, and masses."""
    q = rng.uniform(-10.0, 10.0, (stack, n, 2) if stack else (n, 2))
    q[..., -1, :] = q[..., 0, :]
    q[..., n // 2, 0] = -0.0
    q[..., n // 3, 0] = 0.0
    q[..., n // 2, 1] = 0.0
    q[..., n // 3, 1] = -0.0
    return q, rng.uniform(0.1, 10.0, n)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stack", [0, 3], ids=["single", "stack"])
@pytest.mark.parametrize("n", SIZES)
def test_strip_tables_carry_the_oracles_bytes(rng, n, stack):
    q, mass = configurations(rng, n, stack)
    r = _distance_matrix(q)
    assert same_bytes(r, oracle_distances(q))
    assert same_bytes(r, r.swapaxes(-1, -2))
    assert same_bytes(_inertia(q, mass), oracle_inertia(q, mass))
    if not stack:
        assert isinstance(_inertia(q, mass), float)
        assert same_bytes(mutual_distances(q).r, oracle_distances(q))
        assert moment_of_inertia(q, mass) == oracle_inertia(q, mass)
    else:
        # each row of a stack as its one-configuration call
        assert all(same_bytes(row, _distance_matrix(one)) for row, one in zip(r, q))
        assert same_bytes(_inertia(q, mass), [_inertia(one, mass) for one in q])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("body", [0, STRIP, 2 * STRIP + 5])
def test_non_finite_coordinates_give_the_oracles_entries(bad, body):
    n = 2 * STRIP + 10
    q = np.random.default_rng(7).uniform(-1.0, 1.0, (n, 2))
    # a second body, in another strip, with the same y: inf - inf is NaN between them
    q[[body, n - 1 - body], 1] = bad
    mass = np.linspace(1.0, 2.0, n)
    with np.errstate(invalid="ignore"):
        r, expected = _distance_matrix(q), oracle_distances(q)
        inertia, expected_inertia = _inertia(q, mass), oracle_inertia(q, mass)
    assert np.array_equal(np.isnan(r), np.isnan(expected))
    assert np.array_equal(r, expected, equal_nan=True)
    assert np.array_equal(inertia, expected_inertia, equal_nan=True)
    with pytest.raises(ValidationError) as err:
        mutual_distances(q)
    assert (err.value.field, err.value.reason) == (f"q[{min(body, n - 1 - body)}]",
                                                    "coordinates must be finite")


@pytest.mark.parametrize("body", [0, STRIP - 1, STRIP, 2 * STRIP + 5])
def test_distances_that_overflow_are_refused_in_every_strip(body):
    # finite positions whose squared offsets overflow to inf in the rows and columns of
    # one body, in whichever strip it lies
    n = 2 * STRIP + 10
    q = np.random.default_rng(8).uniform(-1.0, 1.0, (n, 2))
    q[body] = [1e200, -1e200]
    with np.errstate(over="ignore"):
        r, expected = _distance_matrix(q), oracle_distances(q)
    assert same_bytes(r, expected)
    assert np.isinf(r).sum() == 2 * (n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            mutual_distances(q)
    assert (err.value.field, err.value.reason) == ("r", "distances must be finite")
