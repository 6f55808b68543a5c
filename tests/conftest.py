"""Shared fixtures: seeded corpus generators, the finite-difference oracle and the
dense-form pair oracle."""

import numpy as np
import pytest

from harmonia import (
    MassVector,
    PlanarConfiguration,
    corpus_seed,
    random_configuration,
    random_masses,
)


@pytest.fixture(scope="session")
def seed():
    return corpus_seed()


@pytest.fixture
def rng(seed):
    return np.random.default_rng(seed)


@pytest.fixture
def draw_system(rng):
    """Factory for a random (configuration, masses) pair with n in {2..6}."""

    def draw(n=None, min_separation=0.0):
        size = int(rng.integers(2, 7)) if n is None else n
        config = random_configuration(rng, size, box=10.0, min_separation=min_separation)
        masses = random_masses(rng, size)
        return config, masses

    return draw


def central_difference_gradient(f, q, h=1e-6):
    """Central finite differences of a scalar function of an (n, 2) array."""
    q = np.asarray(q, dtype=float)
    grad = np.zeros_like(q)
    for idx in np.ndindex(q.shape):
        plus = q.copy()
        plus[idx] += h
        minus = q.copy()
        minus[idx] -= h
        grad[idx] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def unit_masses(n):
    return MassVector(np.ones(n))


def equilateral(side=1.0):
    return PlanarConfiguration(
        np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, side * np.sqrt(3.0) / 2.0]]))


def dense_pair_kernels(potential, q, mass):
    """grad U and U of a pair kind from dense n x n tables, every element with the pair
    kernel's IEEE operations in their order. A gradient component adds its row's terms
    j > i and its column's terms i < j one at a time from +0.0, as ``np.bincount``
    does over the row-major or the anti-diagonal pair order (``np.cumsum`` adds in
    order); U sums the row-major terms i < j, the contiguous
    vector the kernel reduces."""
    n = len(q)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    dx = q[:, None, 0] - q[None, :, 0]
    dy = q[:, None, 1] - q[None, :, 1]
    r = np.sqrt(dx * dx + dy * dy)
    w = mass[:, None] * mass[None, :]
    zero = np.zeros((1, n))
    grad = np.empty((n, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal, masked out
        if potential.kind == "newtonian":
            coef = w / (r * r * r)
            energy = -(w / r)[upper].sum()
        else:
            alpha = potential.exponent
            coef = (potential.coupling * alpha) * w * (r + (r == 0.0)) ** (alpha - 2.0)
            energy = potential.coupling * (w * r ** alpha)[upper].sum()
        for c, d in enumerate((dx, dy)):
            f = np.where(upper, coef * d, 0.0)
            grad[:, c] = np.cumsum(np.hstack([zero.T, f]), axis=1)[:, -1] \
                - np.cumsum(np.vstack([zero, f]), axis=0)[-1]
    return grad, energy
