"""The dict-of-tuples pmf code that the array support replaced.

``estimate_empirical``, ``marginalize`` and the two discrete similarity
metrics once walked a ``{outcome tuple: mass}`` dict in Python loops. Those
loops are kept here, unchanged in their arithmetic, as references: the array
versions must give the same bytes. The array support is in lexicographic
order, so the tests compare against a reference dict sorted by outcome, and
total variation walks each variable's values in increasing order.
"""

import itertools
import math

import numpy as np


def estimate_empirical(table, smoothing=0.0) -> dict:
    T = table.num_samples
    counts = {}
    for row in table.samples.tolist():
        outcome = tuple(int(v) for v in row)
        counts[outcome] = counts.get(outcome, 0) + 1
    if smoothing == 0.0:
        return {o: c / T for o, c in counts.items()}
    K = math.prod(table.alphabet_sizes)
    denom = T + smoothing * K
    return {
        o: (counts.get(o, 0) + smoothing) / denom
        for o in itertools.product(*(range(a) for a in table.alphabet_sizes))
    }


def marginalize(mass: dict, subset) -> dict:
    out = {}
    for outcome, p in mass.items():
        key = tuple(outcome[i] for i in subset)
        out[key] = out.get(key, 0.0) + p
    return out


def abs_pearson(mass: dict, k: int) -> np.ndarray:
    """Returns None where a variable is constant (the library raises)."""
    mean = np.zeros(k)
    second = np.zeros(k)
    cross = np.zeros((k, k))
    for outcome, p in mass.items():
        x = np.asarray(outcome, dtype=float)
        mean += p * x
        second += p * x * x
        cross += p * np.outer(x, x)
    var = second - mean**2
    if np.any(var <= 0):
        return None
    cov = cross - np.outer(mean, mean)
    corr = np.abs(cov / np.sqrt(np.outer(var, var)))
    np.fill_diagonal(corr, 0.0)
    return corr


def total_variation(mass: dict, k: int) -> np.ndarray:
    out = np.zeros((k, k))
    singles = [marginalize(mass, (i,)) for i in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        joint = marginalize(mass, (i, j))
        tv = 0.0
        for (a,), pa in sorted(singles[i].items()):
            for (b,), pb in sorted(singles[j].items()):
                tv += abs(joint.get((a, b), 0.0) - pa * pb)
        out[i, j] = out[j, i] = 0.5 * tv
    return out


def assert_same_pmf(dist, mass: dict) -> None:
    """The outcomes of ``mass`` in sorted order, and masses equal byte for byte."""
    outcomes, masses = zip(*sorted(mass.items()))
    assert [tuple(o) for o in dist.outcomes.tolist()] == list(outcomes)
    assert dist.masses.tobytes() == np.array(masses, dtype=float).tobytes()
