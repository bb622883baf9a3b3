"""Time one scalar measure call against the whole-level sweep it could read from.

On a 16-variable Gaussian model it times ``hh.o_information`` and
``hh.interaction_information`` on the subset {0, ..., k-1} for k = 3, 6, 9,
and, as the whole-level form, ``hh.signal_sweep`` at n = k - 1 indexed at
that subset's rank. Every entropy level is filled before timing starts, so
the figures are the measure arithmetic alone. Each figure is the fastest of 7
repeats, in ms per call: on a shared machine the fastest repeat is the one
least disturbed by other processes.

Run from the root of a checkout; point PYTHONPATH at another checkout's
``src`` to time that one:

    PYTHONPATH=src python docs/scalar_timing.py
"""

import timeit

import numpy as np

import hyperharmonic as hh

V = 16
MEASURES = ((hh.MeasureKind.O_INFORMATION, hh.o_information),
            (hh.MeasureKind.INTERACTION_INFORMATION, hh.interaction_information))


def ms_per_call(call) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(7, number)) / number * 1e3


def main() -> None:
    M = np.random.default_rng(0).standard_normal((V, V))
    d = np.sqrt(np.diag(M @ M.T))
    R = M @ M.T / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    oracle = hh.EntropyOracle(hh.GaussianModel(correlation_matrix=(R + R.T) / 2.0))
    for k in range(1, 10):
        oracle.table(k)
    print("measure                  k  scalar ms  whole-level ms")
    for kind, measure in MEASURES:
        for k in (3, 6, 9):
            subset = tuple(range(k))
            rank = hh.simplex_rank(subset, V - 1)
            one = ms_per_call(lambda: measure(oracle, subset))
            whole = ms_per_call(lambda: hh.signal_sweep(oracle, k - 1, kind)[rank])
            print(f"{kind.value:<23} {k:2d} {one:10.3f} {whole:15.3f}")


if __name__ == "__main__":
    main()
