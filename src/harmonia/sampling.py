"""Seeded random corpora for property tests and reproducible experiments.

The environment variable HARMONIA_SEED (an integer) overrides the default
seed so every randomized corpus is reproducible from the shell.
"""

from __future__ import annotations

import os

import numpy as np

from .core import MassVector, PlanarConfiguration, _pair_offsets
from .errors import ValidationError

SEED_ENV_VAR = "HARMONIA_SEED"
DEFAULT_SEED = 20260809


def corpus_seed(default: int = DEFAULT_SEED) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(SEED_ENV_VAR, "must be an integer") from None


def random_masses(rng: np.random.Generator, n: int, high: float = 10.0) -> MassVector:
    # flip the half-open interval so zero mass is excluded: values in (0, high]
    return MassVector(high - rng.uniform(0.0, high, size=n))


def random_configuration(rng: np.random.Generator, n: int, box: float = 10.0,
                         min_separation: float = 0.0) -> PlanarConfiguration:
    while True:
        q = rng.uniform(-box, box, size=(n, 2))
        if min_separation <= 0.0 or _pair_offsets(q)[4].min(initial=np.inf) > min_separation:
            break
    return PlanarConfiguration(q)
