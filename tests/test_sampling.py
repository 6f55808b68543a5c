"""Seeded-corpus helpers and the HARMONIA_SEED environment override."""

import numpy as np
import pytest

from harmonia import ValidationError, corpus_seed, random_configuration, random_masses
from harmonia.sampling import DEFAULT_SEED, SEED_ENV_VAR


def test_default_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert corpus_seed() == DEFAULT_SEED


def test_env_override(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "12345")
    assert corpus_seed() == 12345
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    with pytest.raises(ValidationError):
        corpus_seed()


def test_same_seed_same_corpus():
    a = random_configuration(np.random.default_rng(7), 5)
    b = random_configuration(np.random.default_rng(7), 5)
    assert np.array_equal(a.q, b.q)


def test_random_masses_positive_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(100):
        masses = random_masses(rng, 6)
        assert np.all(masses.m > 0.0)
        assert np.all(masses.m <= 10.0)


def test_random_configuration_respects_separation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        config = random_configuration(rng, 4, min_separation=0.5)
        d = config.q[:, None, :] - config.q[None, :, :]
        r = np.sqrt((d * d).sum(axis=2)) + np.where(np.eye(4, dtype=bool), np.inf, 0.0)
        assert float(r.min()) > 0.5


def dense_random_configuration(rng, n, box=10.0, min_separation=0.0):
    """Reference rejection draw: the dense n x n distance table with a masked diagonal."""
    while True:
        q = rng.uniform(-box, box, size=(n, 2))
        if min_separation <= 0.0:
            return q
        d = q[:, None, :] - q[None, :, :]
        r = np.sqrt((d * d).sum(axis=2)) + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        if float(r.min()) > min_separation:
            return q


@pytest.mark.parametrize("n, min_separation", [(1, 0.5), (2, 8.0), (5, 3.0), (30, 0.5)])
def test_rejection_draws_match_dense_reference(n, min_separation):
    ours = np.random.default_rng(11)
    reference = np.random.default_rng(11)
    for _ in range(20):
        config = random_configuration(ours, n, min_separation=min_separation)
        assert np.array_equal(config.q, dense_random_configuration(reference, n,
                                                                   min_separation=min_separation))
    # the same number of draws was consumed on both sides
    assert ours.uniform() == reference.uniform()
