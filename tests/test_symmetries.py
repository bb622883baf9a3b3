"""Symmetries of the whole ``run`` pipeline.

Each test transforms the input in a way that leaves the paper's quantities
unchanged and compares the two output trees: byte for byte where the
arithmetic is order-free, and otherwise every CEV curve within 1e-9, each
recomputed from its signal file as the ``cev`` command does.
``manifest.json`` names the input file, so it is left out of every comparison.
The ``estimate`` rows check the same symmetries where the reader hands the
table to the estimators, and the ``signals`` and ``cev`` rows check the two
steps on their own, each at the strictest bound that holds there.

Permuting the columns is a symmetry of the information measures but not, at
present, of the Fourier CEV: the signed Laplacian puts each signal in the
orientation of ascending column index (``test_transform.TestPermutationBehavior``).
That row is absent until the operator no longer depends on the column order.
Reversing the columns is the one relabelling it absorbs: vertex i becomes
N - i, which reverses the vertices of every n-simplex alike, so the signed
operator only changes by one sign per dimension and its eigenbasis carries over.
"""

import json
import os
import subprocess
import sys

import numpy as np

import hyperharmonic
from hyperharmonic.cli import EXIT_OK, main
from hyperharmonic.transform import HighOrderSignal, cev_report, read_signal, write_signal

from test_cli import tree_bytes

CEV_TOLERANCE = 1e-9

# Shuffling the rows reorders the sums of the correlation estimate. Over 40
# seeded tables the largest change to a correlation was 6.5 machine epsilons;
# the table below moves it by 2.5.
CORRELATION_TOLERANCE = 8 * np.finfo(float).eps

# Relative to a signal's largest magnitude; see the relabelling test.
SIGNAL_TOLERANCE = 12 * np.finfo(float).eps

# Per CEV entry, in units in the last place; see the permutation test.
CEV_ULPS = 6


def write_csv(path, X) -> None:
    names = [f"x{j}" for j in range(X.shape[1])]
    cell = str if X.dtype.kind == "i" else lambda v: repr(float(v))
    rows = [",".join(map(cell, row)) for row in X]
    path.write_text("\n".join([",".join(names)] + rows) + "\n")


def run_tree(tmp_path, name, X, kind, dimensions="2,3", metric="mutual_information") -> dict:
    """The ``run`` tree of table ``X`` in ``tmp_path / name``, without ``manifest.json``."""
    data, out = tmp_path / f"{name}.csv", tmp_path / name
    write_csv(data, X)
    assert main(["run", "--input", str(data), "--kind", kind, "--dimensions", dimensions,
                 "--metric", metric, "--output-dir", str(out)]) == EXIT_OK
    tree = tree_bytes(out)
    del tree["manifest.json"]
    return tree


def estimate_files(tmp_path, name, X, kind) -> dict:
    """The files ``estimate`` writes for table ``X``: the model header and any arrays."""
    data, out = tmp_path / f"{name}.csv", tmp_path / name
    write_csv(data, X)
    out.mkdir()
    assert main(["estimate", "--input", str(data), "--kind", kind,
                 "--output", str(out / "model.json")]) == EXIT_OK
    return tree_bytes(out)


def assert_cevs_close(first, second) -> None:
    """The two run directories hold the same signal files, and the CEV curve of
    each agrees within ``CEV_TOLERANCE``."""
    names = sorted(path.relative_to(first) for path in first.glob("dim_*/signal_*.json"))
    assert names
    assert names == sorted(path.relative_to(second) for path in second.glob("dim_*/signal_*.json"))
    for name in names:
        a, b = (cev_report(read_signal(root / name)).cev for root in (first, second))
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= CEV_TOLERANCE, name


def discrete_table(seed: int) -> np.ndarray:
    """Six ternary columns: a synergy triple, a noisy copy and two free columns."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(600, 6))
    X[:, 2] = (X[:, 0] + X[:, 1]) % 3
    X[:, 3] = np.where(rng.random(600) < 0.8, X[:, 0], X[:, 3])
    return X


def continuous_table(seed: int, V: int = 6, T: int = 600) -> np.ndarray:
    """A rank-2 latent seen through V noisy columns."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((T, 2)) @ rng.standard_normal((2, V)) \
        + 0.5 * rng.standard_normal((T, V))


def test_discrete_row_order_leaves_the_tree_unchanged(tmp_path):
    X = discrete_table(1)
    shuffled = X[np.random.default_rng(2).permutation(len(X))]
    assert run_tree(tmp_path, "a", X, "discrete") == run_tree(tmp_path, "b", shuffled, "discrete")


def test_discrete_row_order_leaves_the_model_unchanged(tmp_path):
    X = discrete_table(1)
    shuffled = X[np.random.default_rng(2).permutation(len(X))]
    files = estimate_files(tmp_path, "a", X, "discrete")
    assert sorted(files) == ["model.json", "model_masses.npy", "model_outcomes.npy"]
    assert files == estimate_files(tmp_path, "b", shuffled, "discrete")


def test_increasing_map_of_continuous_columns_leaves_the_model_unchanged(tmp_path):
    Z = continuous_table(3)
    assert estimate_files(tmp_path, "a", Z, "continuous") \
        == estimate_files(tmp_path, "b", np.exp(Z) * 3 + 1, "continuous")


def test_continuous_row_order_moves_the_correlation_within_rounding(tmp_path):
    Z = continuous_table(4)
    shuffled = Z[np.random.default_rng(5).permutation(len(Z))]
    a, b = (np.array(json.loads(estimate_files(tmp_path, name, X, "continuous")["model.json"])
                     ["correlation"]) for name, X in (("a", Z), ("b", shuffled)))
    assert np.max(np.abs(a - b)) <= CORRELATION_TOLERANCE


def test_increasing_map_of_continuous_columns_leaves_the_tree_unchanged(tmp_path):
    """The copula reads ranks only."""
    Z = continuous_table(3)
    assert run_tree(tmp_path, "a", Z, "continuous") \
        == run_tree(tmp_path, "b", np.exp(Z) * 3 + 1, "continuous")


def test_continuous_row_order_moves_no_cev(tmp_path):
    Z = continuous_table(4)
    shuffled = Z[np.random.default_rng(5).permutation(len(Z))]
    run_tree(tmp_path, "a", Z, "continuous")
    run_tree(tmp_path, "b", shuffled, "continuous")
    assert_cevs_close(tmp_path / "a", tmp_path / "b")


def test_discrete_column_reversal_moves_no_cev(tmp_path):
    X = discrete_table(3)
    a, b = (run_tree(tmp_path, name, table, "discrete", dimensions="2,3,4")
            for name, table in (("a", X), ("b", X[:, ::-1])))
    assert a["components.csv"] == b["components.csv"]
    assert_cevs_close(tmp_path / "a", tmp_path / "b")


def test_continuous_column_reversal_moves_no_cev(tmp_path):
    Z = continuous_table(9, V=8, T=3000)
    a, b = (run_tree(tmp_path, name, table, "continuous", dimensions="2,3,4")
            for name, table in (("a", Z), ("b", Z[:, ::-1])))
    assert a["components.csv"] == b["components.csv"]
    assert_cevs_close(tmp_path / "a", tmp_path / "b")


def relabelled(X) -> np.ndarray:
    """``X`` with each column's three symbols permuted."""
    rng = np.random.default_rng(7)
    maps = [rng.permutation(3) for _ in range(X.shape[1])]
    out = np.column_stack([m[X[:, j]] for j, m in enumerate(maps)])
    assert not np.array_equal(out, X)
    return out


def test_relabelled_symbols_move_no_cev_under_mutual_information(tmp_path):
    """Mutual information, the default metric, reads only which samples share a
    symbol, so it is invariant under any bijection of the symbols."""
    X = discrete_table(6)
    run_tree(tmp_path, "a", X, "discrete")
    run_tree(tmp_path, "b", relabelled(X), "discrete")
    assert_cevs_close(tmp_path / "a", tmp_path / "b")


def test_relabelled_symbols_move_no_cev_under_total_variation(tmp_path):
    """Under a relabelling, 1/2 sum |p(a, b) - p(a) p(b)| only permutes its
    terms, which moves each weight by the rounding of their new order."""
    X = discrete_table(6)
    run_tree(tmp_path, "a", X, "discrete", metric="total_variation")
    run_tree(tmp_path, "b", relabelled(X), "discrete", metric="total_variation")
    assert_cevs_close(tmp_path / "a", tmp_path / "b")


def test_blas_thread_count_moves_no_cev(tmp_path):
    """One table run in two child processes, one and two OpenBLAS threads.

    The Fourier coefficients may differ in their last bits between the two;
    this bounds that noise floor on every CEV, and the component counts must
    agree exactly.
    """
    data = tmp_path / "data.csv"
    write_csv(data, continuous_table(8, V=11, T=2000))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperharmonic.__file__)))
    trees = []
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperharmonic.cli", "run", "--input", str(data),
             "--kind", "continuous", "--dimensions", "2,3,4", "--output-dir", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        trees.append(tree_bytes(out))
    assert trees[0]["components.csv"] == trees[1]["components.csv"]
    assert_cevs_close(tmp_path / "threads_1", tmp_path / "threads_2")


def signal_files(tmp_path, name, X) -> dict:
    """The files ``signals`` writes from the ``estimate`` model of table ``X``."""
    model, out = tmp_path / f"{name}.json", tmp_path / f"{name}_signals"
    write_csv(tmp_path / f"{name}.csv", X)
    assert main(["estimate", "--input", str(tmp_path / f"{name}.csv"),
                 "--output", str(model)]) == EXIT_OK
    assert main(["signals", "--distribution", str(model), "--dimensions", "2,3",
                 "--measures", "o_information,s_information,tc,dtc",
                 "--output-dir", str(out)]) == EXIT_OK
    return tree_bytes(out)


def cev_file(tmp_path, name, coefficients, dimension: int = 3) -> dict:
    """What ``cev`` writes for a canonical signal with these coefficients."""
    signal = tmp_path / f"{name}_signal.json"
    write_signal(signal, HighOrderSignal(dimension, coefficients))
    assert main(["cev", "--signal", str(signal), "--output-prefix",
                 str(tmp_path / f"{name}_cev")]) == EXIT_OK
    return json.loads((tmp_path / f"{name}_cev.json").read_bytes())


def test_discrete_row_order_leaves_the_signals_unchanged(tmp_path):
    X = discrete_table(1)
    shuffled = X[np.random.default_rng(2).permutation(len(X))]
    files = signal_files(tmp_path, "a", X)
    assert len(files) == 8
    assert files == signal_files(tmp_path, "b", shuffled)


def test_relabelled_symbols_move_the_signals_within_rounding(tmp_path):
    """Relabelling reorders the support, and so the sums of each subset
    entropy. Over 20 seeded tables the largest change to a signal was 10.2
    machine epsilons of its largest magnitude; this table moves one by 7.6."""
    X = discrete_table(6)
    first, second = signal_files(tmp_path, "a", X), signal_files(tmp_path, "b", relabelled(X))
    assert sorted(first) == sorted(second)
    for name in first:
        a, b = (np.array(json.loads(files[name])["coefficients"]) for files in (first, second))
        assert np.max(np.abs(a - b)) <= SIGNAL_TOLERANCE * np.max(np.abs(a)), name


def test_sign_flip_leaves_the_cev_unchanged(tmp_path):
    """CEV reads squared coefficients, and negation is exact."""
    x = np.random.default_rng(10).standard_normal(35)
    assert cev_file(tmp_path, "a", x) == cev_file(tmp_path, "b", -x)


def test_permuted_signal_moves_the_cev_within_rounding(tmp_path):
    """A permutation changes the order in which the squared coefficients are
    summed into their total. Over 500 random signals (d = 10 to 126, magnitudes
    over seven decades) the largest change to an entry was 5 ulps; this one
    moves an entry by 3."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(35) * np.exp(rng.uniform(-8.0, 8.0, 35))
    first, second = cev_file(tmp_path, "a", x), cev_file(tmp_path, "b", x[rng.permutation(35)])
    assert first["components_at"] == second["components_at"]
    for key in ("sorted_ev", "cev"):
        a, b = np.array(first[key]), np.array(second[key])
        assert np.all(np.abs(a - b) <= CEV_ULPS * np.spacing(np.maximum(a, b))), key
