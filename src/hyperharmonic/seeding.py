"""Deterministic derivation of independent random streams.

Every stochastic routine in the package draws from a generator derived from a
base seed plus a fixed tuple of integer keys (replicate index, stage, ...),
so adding replicates or stages never perturbs existing ones.
"""

from __future__ import annotations

import numpy as np


def derive_rng(base_seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(base_seed), *map(int, keys))))

