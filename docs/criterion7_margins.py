"""Reproduce the dominance margins behind acceptance criterion 7.

Runs the rank experiment of ``tests/test_acceptance.py`` in-process (size 9,
ranks 2 and 9, T = 10^4, base seed 0, dimensions 3 and 4, O-information) at
10 and 50 replicates. For each dimension it prints the margin, the smallest
difference between the rank-2 and rank-9 mean CEV over k <= 10, the k where it
occurs, and a 95% replicate band of that difference: the two curves come from
independent replicates, so the half-widths of their bands add in quadrature.

Run from the root of a checkout:

    PYTHONPATH=src python docs/criterion7_margins.py
"""

import numpy as np

from hyperharmonic import MeasureKind, rank_experiment

KIND = MeasureKind.O_INFORMATION


def margins(replicates: int) -> dict:
    result = rank_experiment(
        ranks=(2, 9), replicates=replicates, num_samples=10_000, base_seed=0,
        size=9, dimensions=(3, 4), measures=(KIND,),
    )
    out = {}
    for n in (3, 4):
        mean = {r: result.mean_cev[(r, n, KIND)][:10] for r in (2, 9)}
        half = {r: result.ci_high[(r, n, KIND)][:10] - mean[r] for r in (2, 9)}
        diff = mean[2] - mean[9]
        k = int(np.argmin(diff))
        out[n] = (float(diff[k]), k + 1, float(np.hypot(half[2][k], half[9][k])))
    return out


def main() -> None:
    print("replicates  dimension  margin    at k  95% band of the difference")
    for replicates in (10, 50):
        for n, (margin, k, half) in margins(replicates).items():
            print(f"{replicates:>10}  {n:>9}  {margin:+.4f}  {k:>4}  "
                  f"[{margin - half:+.4f}, {margin + half:+.4f}]")


if __name__ == "__main__":
    main()
