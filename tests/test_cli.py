import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hyperharmonic
from hyperharmonic.cli import (
    _CHOICES,
    _CONFIG_PARSERS,
    DEFAULT_OUTPUT_DIR,
    EXIT_CAPACITY,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    INCOMPLETE_MARKER,
    PipelineConfig,
    _load_manifest_config,
    build_parser,
    main,
)
from hyperharmonic.errors import NumericalError, ValidationError
from hyperharmonic.infotheory import MeasureKind


def write_xor_csv(path):
    rows = ["a,b,c"] + [f"{x},{y},{x ^ y}" for x in (0, 1) for y in (0, 1)]
    path.write_text("\n".join(rows) + "\n")


DISCRETE_2X2 = {"format": 2, "kind": "discrete", "num_variables": 2, "alphabet_sizes": [2, 2]}
TWO_OUTCOMES = {"outcomes": np.array([[0, 0], [1, 1]], np.uint8), "masses": np.full(2, 0.5)}


def write_model_file(path, header, **arrays):
    """A model header at ``path``; each array is saved beside it and named under its key."""
    if arrays:
        header = dict(header)
    for key, array in arrays.items():
        header[key] = f"{path.stem}_{key}.npy"
        np.save(path.parent / header[key], array, allow_pickle=True)
    path.write_text(json.dumps(header))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestStepCommands:
    def test_estimate_complex_signals_spectrum_transform_cev(self, tmp_path):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        dist = tmp_path / "dist.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        payload = json.loads(dist.read_text())
        assert payload["kind"] == "discrete" and payload["format"] == 2
        outcomes = np.load(tmp_path / payload["outcomes"], allow_pickle=False)
        assert outcomes.shape == (4, 3) and outcomes.dtype == np.uint8

        weights = tmp_path / "weights.json"
        assert main([
            "complex", "--distribution", str(dist), "--output", str(weights),
            "--boundaries-dir", str(tmp_path / "boundaries"),
        ]) == EXIT_OK
        assert (tmp_path / "boundaries" / "boundary_1.csv").exists()

        sig_dir = tmp_path / "signals"
        assert main([
            "signals", "--distribution", str(dist), "--dimensions", "2",
            "--output-dir", str(sig_dir),
        ]) == EXIT_OK
        signal_path = sig_dir / "signal_o_information_dim2.json"
        assert json.loads(signal_path.read_text())["coefficients"] == [-1.0]

        spectrum_dir = tmp_path / "spectrum"
        assert main([
            "spectrum", "--weights", str(weights), "--dimensions", "2",
            "--output-dir", str(spectrum_dir),
        ]) == EXIT_OK
        basis_path = spectrum_dir / "basis_dim2.json"
        assert basis_path.exists()

        hat = tmp_path / "hat.json"
        assert main([
            "transform", "--signal", str(signal_path), "--basis", str(basis_path),
            "--output", str(hat),
        ]) == EXIT_OK
        assert json.loads(hat.read_text())["basis"] == "fourier"

        back = tmp_path / "back.json"
        assert main([
            "transform", "--signal", str(hat), "--basis", str(basis_path),
            "--inverse", "--output", str(back),
        ]) == EXIT_OK
        assert json.loads(back.read_text())["coefficients"][0] == pytest.approx(-1.0)

        assert main([
            "cev", "--signal", str(hat), "--output-prefix", str(tmp_path / "cev"),
        ]) == EXIT_OK
        report = json.loads((tmp_path / "cev.json").read_text())
        assert report["cev"] == [1.0]

    def test_missing_input_gives_io_exit(self, tmp_path):
        out = tmp_path / "x.json"
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--output", str(out)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["estimate", "complex", "transform", "cev"])
    def test_missing_output_parent_fails_before_any_input_is_read(self, tmp_path, command,
                                                                    capsys):
        """The inputs are missing too: the output's parent is checked first."""
        absent, target = str(tmp_path / "absent.json"), str(tmp_path / "nodir" / "out.json")
        inputs = {"estimate": ["--input"], "complex": ["--distribution"],
                  "transform": ["--signal", "--basis"], "cev": ["--signal"]}[command]
        output = "--output-prefix" if command == "cev" else "--output"
        argv = [command, *(arg for flag in inputs for arg in (flag, absent)), output, target]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert target in err and "absent" not in err and ".tmp" not in err
        assert not (tmp_path / "nodir").exists()

    def test_malformed_csv_gives_validation_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0,x\n")
        code = main(["estimate", "--input", str(bad), "--output", str(tmp_path / "o.json")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("argv, name", [
        (["estimate", "--input", "bad.csv", "--output", "out.json"], "bad.csv"),
        (["estimate", "--kind", "continuous", "--input", "bad.csv", "--output", "out.json"],
         "bad.csv"),
        (["run", "--input", "bad.csv", "--output-dir", "out"], "bad.csv"),
        (["run", "--kind", "continuous", "--input", "bad.csv", "--output-dir", "out"],
         "bad.csv"),
    ], ids=["estimate-discrete", "estimate-continuous", "run-discrete", "run-continuous"])
    def test_non_utf8_text_gives_validation_exit(self, tmp_path, monkeypatch, argv, name,
                                                 capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_bytes(b"a,b,c\n0,1,0\n1,\xff,1\n")
        before = tree_bytes(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        assert f"error: {name}: invalid " in capsys.readouterr().err
        assert tree_bytes(tmp_path) == before

    def test_unknown_measure_gives_validation_exit(self, tmp_path):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        code = main([
            "run", "--input", str(data), "--measures", "bogus",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_VALIDATION

    def test_signals_checks_measures_before_reading_the_model(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "signals", "--distribution", str(tmp_path / "missing.json"), "--measures", "bogus",
            "--output-dir", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_zero_signal_cev_gives_numerical_exit(self, tmp_path):
        from hyperharmonic import HighOrderSignal
        from hyperharmonic.transform import write_signal
        from hyperharmonic.cli import EXIT_NUMERICAL

        sig = tmp_path / "zero.json"
        write_signal(sig, HighOrderSignal(dimension=2, coefficients=np.zeros(4)))
        code = main(["cev", "--signal", str(sig), "--output-prefix", str(tmp_path / "r")])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("payload", [
        [],
        3,
        {"dimension": 2},
        {"dimension": 2, "coefficients": "abc"},
        {"dimension": 2, "coefficients": [1.0], "measure": "bogus"},
        {"dimension": 2, "coefficients": [1.0], "measure": False},
        {"dimension": 2.5, "coefficients": [1.0]},
        {"dimension": 2, "coefficients": ["0.5", "1.0"]},
        {"dimension": 2, "coefficients": [True, 0.5]},
        b"\xff\xfe{}",
    ], ids=["list", "number", "no-coefficients", "text-coefficients", "unknown-measure",
            "false-measure", "fractional-dimension", "string-coefficients", "bool-coefficients",
            "not-utf8"])
    def test_malformed_signal_file_gives_validation_exit(self, tmp_path, payload, capsys):
        sig = tmp_path / "sig.json"
        sig.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        code = main(["cev", "--signal", str(sig), "--output-prefix", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert f"error: {sig}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["sig.json"]

    @pytest.mark.parametrize("header, arrays", [
        ([], {}),
        (3, {}),
        ({"format": 2, "kind": "discrete"}, {}),
        (DISCRETE_2X2, {"outcomes": np.array([[0, 0], [1, 1]], np.uint8),
                        "masses": np.array([1.0])}),
        (DISCRETE_2X2, {"outcomes": np.array([[0, 0], [0, 0], [1, 1]], np.uint8),
                        "masses": np.full(3, 0.5)}),
        ({**DISCRETE_2X2, "num_variables": 3}, {"outcomes": np.array([[0, 0], [1, 1]], np.uint8),
                                                "masses": np.full(2, 0.5)}),
        (DISCRETE_2X2, {"outcomes": np.array([[0.5, 1], [1, 1]]), "masses": np.full(2, 0.5)}),
        ({"format": 2, "kind": "gaussian"}, {}),
        ({"format": 2, "kind": "gaussian", "num_variables": 2,
          "correlation": [[1, "x"], ["x", 1]]}, {}),
        ({**DISCRETE_2X2, "kind": ["discrete"]}, TWO_OUTCOMES),
        ({**DISCRETE_2X2, "kind": {"discrete": 1}}, TWO_OUTCOMES),
        ({**DISCRETE_2X2, "alphabet_sizes": [2, "x"]}, TWO_OUTCOMES),
        ({**DISCRETE_2X2, "alphabet_sizes": [2, [1]]}, TWO_OUTCOMES),
        ({**DISCRETE_2X2, "alphabet_sizes": [2, 2.5]}, TWO_OUTCOMES),
        ({**DISCRETE_2X2, "alphabet_sizes": [2, True]},
         {**TWO_OUTCOMES, "outcomes": np.array([[0, 0], [1, 0]], np.uint8)}),
        ({"format": 2, "kind": "gaussian", "num_variables": 7,
          "correlation": np.eye(3).tolist()}, {}),
        ({"format": 2, "kind": "gaussian", "num_variables": 2,
          "correlation": [["1", "0"], ["0", "1"]]}, {}),
        ({"format": 2, "kind": "gaussian", "num_variables": 2,
          "correlation": [[True, 0], [0, True]]}, {}),
    ], ids=["list", "number", "discrete-no-fields", "discrete-bad-mass",
            "discrete-repeated-outcome", "discrete-variable-count",
            "discrete-fractional-outcome", "gaussian-no-fields", "gaussian-text-entry",
            "kind-list", "kind-object", "size-text", "size-list", "size-fractional", "size-bool",
            "gaussian-variable-count", "gaussian-string-entry", "gaussian-bool-entry"])
    def test_malformed_model_file_gives_validation_exit(self, tmp_path, header, arrays, capsys):
        model = tmp_path / "model.json"
        write_model_file(model, header, **arrays)
        before = sorted(os.listdir(tmp_path))
        code = main(["complex", "--distribution", str(model),
                     "--output", str(tmp_path / "weights.json")])
        assert code == EXIT_VALIDATION
        assert f"error: {model}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_non_finite_mass_rejected_by_the_model_reader(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        write_model_file(model, DISCRETE_2X2, outcomes=np.array([[0, 0], [1, 1]], np.uint8),
                         masses=np.array([float("nan"), 1.0]))
        before = sorted(os.listdir(tmp_path))
        code = main(["complex", "--distribution", str(model),
                     "--output", str(tmp_path / "weights.json")])
        assert code == EXIT_VALIDATION
        assert "needs a finite, positive mass" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("cell", [str(2**63 - 1), "18446744073709551615",
                                      "99999999999999999999"])
    def test_symbol_past_int64_gives_validation_exit(self, tmp_path, cell, capsys):
        data = tmp_path / "huge.csv"
        data.write_text(f"a,b\n0,1\n{cell},0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--input", str(data), "--output", str(tmp_path / "o.json")])
        assert code == EXIT_VALIDATION
        assert f"line 3: symbol {cell} is too large" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["huge.csv"]

    @pytest.mark.parametrize("payload", [
        {},
        [],
        {"num_vertices": 6, "weights": {str(n): [1.0] * math.comb(5, n + 1) for n in range(5)}},
        {"num_vertices": 3, "weights": {"0": [1.0] * 3, "1": ["1.0"] * 3, "2": [1.0]}},
        {"num_vertices": 3, "weights": {"0": [1.0] * 3, "1": [True] * 3, "2": [1.0]}},
    ], ids=["empty-object", "list", "too-few-weight-keys", "string-weights", "bool-weights"])
    def test_malformed_weights_file_gives_validation_exit(self, tmp_path, payload, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(payload))
        out = tmp_path / "spectrum"
        code = main(["spectrum", "--weights", str(weights), "--output-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert f"error: {weights}: " in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_checks_every_dimension_before_writing(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({
            "num_vertices": 15,
            "weights": {str(n): [1.0] * math.comb(15, n + 1) for n in range(15)},
        }))
        out = tmp_path / "spectrum"
        code = main(["spectrum", "--weights", str(weights), "--dimensions", "2,7",
                     "--output-dir", str(out)])
        assert code == EXIT_CAPACITY
        assert "dense cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, variables, dimensions, message", [
        ("signals", 18, ["--dimensions", "2"], "N=17 exceeds the cap of 16"),
        ("spectrum", 18, ["--dimensions", "2"], "N=17 exceeds the cap of 16"),
        ("signals", 15, ["--dimensions", "7"], "n=7 has 6435 simplices, above the dense cap"),
    ], ids=["signals-vertex-cap", "spectrum-vertex-cap", "signals-dense-cap"])
    def test_oversized_request_exits_before_writing(self, tmp_path, command, variables,
                                                    dimensions, message, capsys):
        source = tmp_path / "source.json"
        if command == "signals":
            write_model_file(source, {**DISCRETE_2X2, "num_variables": variables,
                                      "alphabet_sizes": [2] * variables},
                             outcomes=np.eye(2, variables, dtype=np.uint8),
                             masses=np.full(2, 0.5))
        else:
            source.write_text(json.dumps({
                "num_vertices": variables,
                "weights": {str(n): [1.0] * math.comb(variables, n + 1)
                            for n in range(variables)},
            }))
        flag = "--distribution" if command == "signals" else "--weights"
        out = tmp_path / "out"
        assert main([command, flag, str(source), *dimensions, "--output-dir", str(out)]) \
            == EXIT_CAPACITY
        assert message in capsys.readouterr().err
        assert not out.exists()

    # JSON reads 1e400 as inf, and int(inf) raises OverflowError.
    @pytest.mark.parametrize("argv, text", [
        (["spectrum", "--weights", "bad.json", "--output-dir", "out"],
         '{"num_vertices": 1e400, "weights": {}}'),
        (["cev", "--signal", "bad.json", "--output-prefix", "out"],
         '{"dimension": 1e400, "coefficients": [1.0]}'),
        (["transform", "--signal", "signal.json", "--basis", "bad.json", "--output", "out.json"],
         '{"format": 2, "dimension": 1e400, "eigenvalues": [0.0], "weights": [1.0], '
         '"eigenvectors": "bad_eigenvectors.npy"}'),
    ], ids=["spectrum-num-vertices", "cev-dimension", "transform-basis-dimension"])
    def test_overflowing_integer_gives_validation_exit(self, tmp_path, monkeypatch, capsys,
                                                       argv, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        (tmp_path / "signal.json").write_text('{"dimension": 0, "coefficients": [1.0]}')
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == EXIT_VALIDATION
        assert "error: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_complex_refuses_boundary_files_of_another_complex(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        models = {}
        for V in (6, 4):
            data, models[V] = tmp_path / f"v{V}.csv", tmp_path / f"v{V}.json"
            rows = [",".join(map(str, row)) for row in rng.integers(0, 2, size=(100, V))]
            data.write_text("\n".join([",".join("abcdef"[:V])] + rows) + "\n")
            assert main(["estimate", "--input", str(data), "--output", str(models[V])]) == EXIT_OK
        out, weights = tmp_path / "bd", tmp_path / "weights.json"

        def complex_(V):
            return main(["complex", "--distribution", str(models[V]), "--output", str(weights),
                         "--boundaries-dir", str(out)])

        assert complex_(6) == EXIT_OK
        before = {**tree_bytes(out), "weights": weights.read_bytes()}
        assert complex_(4) == EXIT_IO
        assert f"error: {out / 'boundary_4.csv'}: left by another request" \
            in capsys.readouterr().err
        assert {**tree_bytes(out), "weights": weights.read_bytes()} == before
        assert complex_(6) == EXIT_OK
        assert {**tree_bytes(out), "weights": weights.read_bytes()} == before

    @pytest.mark.parametrize("command", ["complex", "signals", "spectrum", "run",
                                         "control-synth"])
    def test_directory_option_naming_a_file_fails_before_any_output(self, tmp_path, command,
                                                                    capsys):
        data, dist, weights = (tmp_path / name for name in ("xor.csv", "dist.json",
                                                            "weights.json"))
        write_xor_csv(data)
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        notadir = tmp_path / "notadir"
        notadir.write_text("kept\n")
        before = tree_bytes(tmp_path)
        argv = {
            "complex": ["--distribution", str(dist), "--output", str(tmp_path / "w.json"),
                        "--boundaries-dir"],
            "signals": ["--distribution", str(dist), "--output-dir"],
            "spectrum": ["--weights", str(weights), "--output-dir"],
            "run": ["--input", str(data), "--output-dir"],
            "control-synth": ["--ranks", "2,5", "--replicates", "1", "--samples", "500",
                              "--size", "5", "--dimensions", "2", "--output-dir"],
        }[command]
        assert main([command, *argv, str(notadir)]) == EXIT_IO
        assert f"error: {notadir}: exists and is not a directory" in capsys.readouterr().err
        assert tree_bytes(tmp_path) == before

    def test_boundary_files_equal_the_scipy_reference(self, tmp_path):
        from boundary_reference import boundary_matrix, boundary_to_csv

        write_five_variable_csv(tmp_path / "five.csv")
        dist, out = tmp_path / "dist.json", tmp_path / "boundaries"
        assert main(["estimate", "--input", str(tmp_path / "five.csv"),
                     "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output",
                     str(tmp_path / "weights.json"), "--boundaries-dir", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == [f"boundary_{n}.csv" for n in range(5)]
        for n in range(5):
            boundary_to_csv(tmp_path / "reference.csv", boundary_matrix(4, n))
            got = (out / f"boundary_{n}.csv").read_bytes()
            assert got == (tmp_path / "reference.csv").read_bytes(), n


def write_five_variable_csv(path):
    rng = np.random.default_rng(4)
    X = rng.integers(0, 3, size=(200, 5))
    X[:, 2] = (X[:, 0] + X[:, 1]) % 3
    rows = ["a,b,c,d,e"] + [",".join(map(str, row)) for row in X]
    path.write_text("\n".join(rows) + "\n")


def tmp_files(root):
    return [name for name in tree_bytes(root) if name.endswith(".tmp")]


class TestBasisFormat:
    @pytest.fixture
    def spectrum(self, tmp_path):
        """A dimension-2 basis (d = 10) written by ``spectrum``, plus a signal."""
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        dist = tmp_path / "dist.json"
        weights = tmp_path / "weights.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        assert main([
            "signals", "--distribution", str(dist), "--dimensions", "2",
            "--measures", "o_information", "--output-dir", str(tmp_path / "signals"),
        ]) == EXIT_OK
        out = tmp_path / "spectrum"
        assert main([
            "spectrum", "--weights", str(weights), "--dimensions", "2",
            "--output-dir", str(out),
        ]) == EXIT_OK
        return {
            "weights": weights,
            "basis": out / "basis_dim2.json",
            "signal": tmp_path / "signals" / "signal_o_information_dim2.json",
        }

    def in_process_basis(self, weights_path):
        from hyperharmonic import spectral
        from hyperharmonic.cli import read_weights

        return spectral.fourier_basis(read_weights(weights_path), 2)

    def test_header_names_sibling_matrix(self, spectrum):
        header = json.loads(spectrum["basis"].read_text())
        assert header["format"] == 2
        assert header["eigenvectors"] == "basis_dim2_eigenvectors.npy"
        assert "forward" not in header and "inverse" not in header
        Q = np.load(spectrum["basis"].parent / header["eigenvectors"], allow_pickle=False)
        assert Q.shape == (10, 10) and Q.dtype == np.float64
        assert np.array_equal(Q, self.in_process_basis(spectrum["weights"]).eigenvectors)
        assert tmp_files(spectrum["basis"].parent) == []

    def test_transform_round_trip_matches_in_process(self, spectrum, tmp_path):
        from hyperharmonic.transform import from_fourier, read_signal, to_fourier

        hat, back = tmp_path / "hat.json", tmp_path / "back.json"
        assert main([
            "transform", "--signal", str(spectrum["signal"]), "--basis", str(spectrum["basis"]),
            "--output", str(hat),
        ]) == EXIT_OK
        assert main([
            "transform", "--signal", str(hat), "--basis", str(spectrum["basis"]),
            "--inverse", "--output", str(back),
        ]) == EXIT_OK
        basis = self.in_process_basis(spectrum["weights"])
        expected_hat = to_fourier(read_signal(spectrum["signal"]), basis)
        expected_back = from_fourier(expected_hat, basis)
        assert np.array_equal(read_signal(hat).coefficients, expected_hat.coefficients)
        assert np.array_equal(read_signal(back).coefficients, expected_back.coefficients)

    def transform_exit(self, spectrum, tmp_path):
        return main([
            "transform", "--signal", str(spectrum["signal"]), "--basis", str(spectrum["basis"]),
            "--output", str(tmp_path / "hat.json"),
        ])

    def edit_header(self, spectrum, **changes):
        header = json.loads(spectrum["basis"].read_text())
        header.update(changes)
        spectrum["basis"].write_text(json.dumps(header))
        return header

    def test_format_1_file_rejected(self, spectrum, tmp_path, capsys):
        header = json.loads(spectrum["basis"].read_text())
        Q = np.load(spectrum["basis"].parent / header["eigenvectors"])
        legacy = {key: header[key] for key in ("dimension", "eigenvalues", "weights", "diagnostics")}
        legacy["forward"] = Q.T.tolist()
        legacy["inverse"] = Q.tolist()
        spectrum["basis"].write_text(json.dumps(legacy))
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION
        assert "hyperharmonic spectrum" in capsys.readouterr().err

    def test_unknown_format_rejected(self, spectrum, tmp_path):
        self.edit_header(spectrum, format=3)
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION

    @pytest.mark.parametrize("name", [
        os.path.join("sub", "basis_dim2_eigenvectors.npy"),
        os.path.join("..", "spectrum", "basis_dim2_eigenvectors.npy"),
        "..",
        "",
        7,
    ])
    def test_eigenvectors_must_be_bare_file_name(self, spectrum, tmp_path, name):
        self.edit_header(spectrum, eigenvectors=name)
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION

    @pytest.mark.parametrize("matrix", [
        np.zeros((10, 9)),
        np.zeros((9, 9)),
        np.zeros(100),
        np.zeros((10, 10), dtype=np.float32),
        np.array([[None] * 10] * 10, dtype=object),
    ], ids=["10x9", "9x9", "flat", "float32", "object"])
    def test_bad_matrix_rejected(self, spectrum, tmp_path, matrix):
        header = json.loads(spectrum["basis"].read_text())
        np.save(spectrum["basis"].parent / header["eigenvectors"], matrix, allow_pickle=True)
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION

    def test_truncated_matrix_rejected(self, spectrum, tmp_path):
        header = json.loads(spectrum["basis"].read_text())
        path = spectrum["basis"].parent / header["eigenvectors"]
        path.write_bytes(path.read_bytes()[:-8])
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION

    def test_missing_matrix_gives_io_exit(self, spectrum, tmp_path):
        header = json.loads(spectrum["basis"].read_text())
        os.remove(spectrum["basis"].parent / header["eigenvectors"])
        assert self.transform_exit(spectrum, tmp_path) == EXIT_IO

    @pytest.mark.parametrize("weight", ["0", "-1", "NaN", "1e400"])
    @pytest.mark.parametrize("command", ["transform"])
    def test_weights_must_be_finite_and_positive(self, spectrum, tmp_path, command, weight,
                                                 capsys):
        header = json.loads(spectrum["basis"].read_text())
        header["weights"][0] = "WEIGHT"
        spectrum["basis"].write_text(json.dumps(header).replace('"WEIGHT"', weight))
        out = tmp_path / "out"
        assert main([
            command, "--signal", str(spectrum["signal"]), "--basis", str(spectrum["basis"]),
            "--output", str(out),
        ]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(spectrum["basis"]) in err and "finite and > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("item", ['"1.5"', "true"], ids=["string", "bool"])
    @pytest.mark.parametrize("key", ["eigenvalues", "weights"])
    def test_number_arrays_take_numbers_only(self, spectrum, tmp_path, key, item, capsys):
        header = json.loads(spectrum["basis"].read_text())
        header[key][0] = "ITEM"
        spectrum["basis"].write_text(json.dumps(header).replace('"ITEM"', item))
        assert self.transform_exit(spectrum, tmp_path) == EXIT_VALIDATION
        assert f"error: {spectrum['basis']}: malformed basis file: {key} must hold numbers only" \
            in capsys.readouterr().err
        assert not (tmp_path / "hat.json").exists()

class TestModelFormat:
    @pytest.fixture
    def dist(self, tmp_path):
        """An empirical model of a V=5 ternary table written by ``estimate``."""
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        dist = tmp_path / "dist.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        return dist

    @staticmethod
    def model(kind):
        from hyperharmonic import copula_gaussian_fit, estimate_empirical
        from hyperharmonic.distribution import ContinuousSeriesTable, DiscreteSeriesTable

        from conftest import smoothed_distribution

        rng = np.random.default_rng(6)
        if kind == "gaussian":
            X = rng.standard_normal((300, 4))
            return copula_gaussian_fit(ContinuousSeriesTable("abcd", samples=X))
        X = rng.integers(0, 3, size=(150, 5))
        table = DiscreteSeriesTable("abcde", samples=X, alphabet_sizes=(3,) * 5)
        if kind == "smoothed":  # a dense support: all 3**5 outcomes
            return smoothed_distribution(table, 0.5)
        return estimate_empirical(table)

    @pytest.mark.parametrize("kind", ["empirical", "smoothed", "gaussian"])
    def test_round_trip(self, tmp_path, kind):
        from hyperharmonic.distribution import read_model, write_model

        model, path = self.model(kind), tmp_path / "model.json"
        write_model(path, model)
        back = read_model(path)
        header = json.loads(path.read_text())
        assert header["format"] == 2
        if kind == "gaussian":
            assert np.array_equal(back.correlation_matrix, model.correlation_matrix)
            assert sorted(os.listdir(tmp_path)) == ["model.json"]
            return
        assert back.outcomes.dtype == np.int64 and back.alphabet_sizes == model.alphabet_sizes
        assert np.array_equal(np.lexsort(back.outcomes.T[::-1]), np.arange(len(back.masses)))
        assert back.outcomes.tobytes() == model.outcomes.tobytes()
        assert back.masses.tobytes() == model.masses.tobytes()
        assert (header["outcomes"], header["masses"]) == ("model_outcomes.npy", "model_masses.npy")
        assert np.load(tmp_path / header["outcomes"]).dtype == np.uint8
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["model.json", "model_outcomes.npy", "model_masses.npy"])

    @pytest.mark.parametrize("largest, dtype", [(256, np.uint8), (257, np.uint16),
                                                (2**32 + 1, np.uint64)])
    def test_support_dtype_holds_the_largest_alphabet(self, tmp_path, largest, dtype):
        from hyperharmonic import JointDistribution
        from hyperharmonic.distribution import read_model, write_model

        model = JointDistribution((2, largest), [[0, largest - 1], [1, 0]], [0.25, 0.75])
        write_model(tmp_path / "model.json", model)
        assert np.load(tmp_path / "model_outcomes.npy").dtype == dtype
        assert read_model(tmp_path / "model.json").outcomes.tolist() == [[0, largest - 1], [1, 0]]

    def command_exit(self, command, dist, tmp_path):
        out = tmp_path / "out"
        argv = {"complex": ["complex", "--output", str(out)],
                "signals": ["signals", "--dimensions", "2", "--output-dir", str(out)]}[command]
        code = main([*argv, "--distribution", str(dist)])
        assert not out.exists()
        return code

    def edit_header(self, dist, **changes):
        header = json.loads(dist.read_text())
        dist.write_text(json.dumps({**header, **changes}))
        return header

    @pytest.mark.parametrize("command", ["complex", "signals"])
    def test_format_1_file_rejected(self, dist, tmp_path, command, capsys):
        from hyperharmonic.distribution import read_model

        model = read_model(dist)
        dist.write_text(json.dumps({
            "kind": "discrete", "num_variables": model.num_variables,
            "alphabet_sizes": list(model.alphabet_sizes),
            "mass": [[o, p] for o, p in zip(model.outcomes.tolist(), model.masses.tolist())],
        }))
        assert self.command_exit(command, dist, tmp_path) == EXIT_VALIDATION
        assert "regenerate it with `hyperharmonic estimate`" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["complex", "signals"])
    def test_unknown_format_rejected(self, dist, tmp_path, command):
        self.edit_header(dist, format=3)
        assert self.command_exit(command, dist, tmp_path) == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["complex", "signals"])
    @pytest.mark.parametrize("key", ["outcomes", "masses"])
    @pytest.mark.parametrize("name", [os.path.join("sub", "dist_masses.npy"),
                                      os.path.join("..", "dist_masses.npy"), "..", "", 7])
    def test_array_names_must_be_bare(self, dist, tmp_path, command, key, name, capsys):
        self.edit_header(dist, **{key: name})
        assert self.command_exit(command, dist, tmp_path) == EXIT_VALIDATION
        assert "must be a bare file name" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["complex", "signals"])
    @pytest.mark.parametrize("key, edit", [
        ("outcomes", lambda a: a.astype(float)),
        ("outcomes", lambda a: np.where(a == 2, -1, a).astype(np.int8)),
        ("outcomes", lambda a: np.where(a == 2, np.iinfo(np.uint64).max, a).astype(np.uint64)),
        ("outcomes", lambda a: a[:, :4]),
        ("outcomes", lambda a: a[1:]),
        ("outcomes", lambda a: a.ravel()),
        ("masses", lambda a: a.astype(np.float32)),
        ("masses", lambda a: a[:, None]),
        ("masses", lambda a: a[0]),
        ("masses", lambda a: np.array([None] * len(a), dtype=object)),
    ], ids=["float-support", "negative-support", "support-past-int64", "too-few-columns",
            "too-few-rows", "flat-support", "float32-masses", "column-masses", "scalar-masses",
            "object-masses"])
    def test_bad_array_rejected(self, dist, tmp_path, command, key, edit):
        path = tmp_path / json.loads(dist.read_text())[key]
        np.save(path, edit(np.load(path)), allow_pickle=True)
        assert self.command_exit(command, dist, tmp_path) == EXIT_VALIDATION

    def test_missing_array_gives_io_exit(self, dist, tmp_path):
        os.remove(tmp_path / json.loads(dist.read_text())["masses"])
        assert self.command_exit("complex", dist, tmp_path) == EXIT_IO

    @pytest.mark.parametrize("target", ["fresh", "overwrite"])
    @pytest.mark.parametrize("failing_save", [1, 2])
    def test_failed_write_leaves_no_header_naming_a_missing_array(
        self, dist, tmp_path, monkeypatch, target, failing_save
    ):
        from hyperharmonic import jsonio
        from hyperharmonic.distribution import write_model

        path = dist if target == "overwrite" else tmp_path / "fresh.json"
        saves, save = [], np.save

        def flaky_save(fh, array, **kwargs):
            saves.append(array)
            if len(saves) == failing_save:
                raise OSError("no space left on device")
            save(fh, array, **kwargs)

        monkeypatch.setattr(jsonio.np, "save", flaky_save)
        with pytest.raises(OSError):
            write_model(path, self.model("smoothed"))
        monkeypatch.undo()
        assert not path.exists()
        assert tmp_files(tmp_path) == []


# Arbitrary JSON values. No list or object has more than four entries, so
# none can stand in for the five alphabet sizes, the 5 x 5 correlation, the
# five weight vectors or the ten entries of a basis that the property edits.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _integral(value):
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def _vector(value):
    """Whether NumPy reads ``value`` as a non-empty finite float vector, as the
    signal reader does (numeric strings included)."""
    try:
        x = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return x.ndim == 1 and x.size > 0 and bool(np.isfinite(x).all())


# (file, field): the values a command accepts in that field besides the one
# written. `cev` reads no dimension, takes any finite coefficients (an all-zero
# signal then exits 4, as it should) and either basis tag; a basis whose dimension differs from its signal's is a mismatch
# of two good files, which `transform` reports without naming either.
ALSO_VALID = {
    ("signal", "dimension"): _integral,
    ("signal", "coefficients"): _vector,
    ("signal", "basis"): lambda v: v in ("canonical", "fourier"),
    ("signal", "measure"): lambda v: v is None or v in [m.value for m in MeasureKind],
    ("basis", "dimension"): _integral,
}

# Each file's header, the files beside it and the command that reads it. Every
# field the command reads is edited; `spectrum` reads only two of the weights
# file's, and `transform` does not read a basis's diagnostics.
FUZZ_FILES = {
    "discrete": ("dist.json", ["dist_outcomes.npy", "dist_masses.npy"],
                 ["complex", "--distribution", "{file}", "--output", "{dir}/out.json"],
                 ["format", "kind", "num_variables", "alphabet_sizes", "outcomes", "masses"]),
    "gaussian": ("gauss.json", [],
                 ["complex", "--distribution", "{file}", "--output", "{dir}/out.json"],
                 ["format", "kind", "num_variables", "correlation"]),
    "basis": ("basis_dim2.json", ["basis_dim2_eigenvectors.npy", "signal_o_information_dim2.json"],
              ["transform", "--signal", "{dir}/signal_o_information_dim2.json", "--basis", "{file}",
               "--output", "{dir}/out.json"],
              ["format", "dimension", "eigenvalues", "weights", "eigenvectors"]),
    "weights": ("weights.json", [],
                ["spectrum", "--weights", "{file}", "--dimensions", "2", "--output-dir", "{dir}/out"],
                ["num_vertices", "weights"]),
    "signal": ("signal_o_information_dim2.json", [],
               ["cev", "--signal", "{file}", "--output-prefix", "{dir}/out"],
               ["dimension", "coefficients", "basis", "measure"]),
}
ARRAY_FIELDS = ("outcomes", "masses", "eigenvectors")


class TestReaderFuzz:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """Good files of each kind: V = 5 models, their weights, a d = 10 basis and signal."""
        root = tmp_path_factory.mktemp("valid")
        write_five_variable_csv(root / "five.csv")
        X = np.random.default_rng(8).standard_normal((200, 5))
        (root / "real.csv").write_text(
            "a,b,c,d,e\n" + "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
        r = str(root)
        for argv in (
            ["estimate", "--input", f"{r}/five.csv", "--output", f"{r}/dist.json"],
            ["estimate", "--kind", "continuous", "--input", f"{r}/real.csv",
             "--output", f"{r}/gauss.json"],
            ["complex", "--distribution", f"{r}/dist.json", "--output", f"{r}/weights.json"],
            ["signals", "--distribution", f"{r}/dist.json", "--dimensions", "2",
             "--measures", "o_information", "--output-dir", r],
            ["spectrum", "--weights", f"{r}/weights.json", "--dimensions", "2", "--output-dir", r],
        ):
            assert main(argv) == EXIT_OK
        return root

    @given(case=st.sampled_from([(kind, field) for kind, spec in FUZZ_FILES.items()
                                 for field in spec[3]]),
           value=JSON_VALUES)
    @example(case=("discrete", "kind"), value=["discrete"])
    @example(case=("gaussian", "num_variables"), value=7)
    @example(case=("weights", "num_vertices"), value=0)
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_exits_2_naming_the_file(self, valid, tmp_path_factory, case, value):
        kind, field = case
        name, beside, argv, _ = FUZZ_FILES[kind]
        header = json.loads((valid / name).read_text())
        assume(value != header[field] and not ALSO_VALID.get(case, lambda v: False)(value))
        work = tmp_path_factory.mktemp("fuzz")
        for other in beside:
            (work / other).write_bytes((valid / other).read_bytes())
        (work / name).write_text(json.dumps({**header, field: value}))
        before = sorted(os.listdir(work))
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main([arg.format(file=work / name, dir=work) for arg in argv])
        err = stderr.getvalue()
        if code == EXIT_IO:  # only an array file the header names, which cannot be opened
            assert field in ARRAY_FIELDS and repr(os.path.join(work, value)) in err, err
        else:
            assert code == EXIT_VALIDATION and f"error: {work / name}: " in err, (code, err)
        assert sorted(os.listdir(work)) == before


class TestRun:
    def test_xor_run_produces_omega_signal(self, tmp_path):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(data), "--kind", "discrete",
            "--dimensions", "2", "--output-dir", str(out),
        ]) == EXIT_OK
        signal = json.loads((out / "dim_2" / "signal_o_information_canonical.json").read_text())
        assert signal["coefficients"] == [-1.0]
        assert not (out / INCOMPLETE_MARKER).exists()
        assert not (out / "dim_2" / "basis.json").exists()
        assert not (out / "dim_2" / "basis_eigenvectors.npy").exists()
        assert tmp_files(out) == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dimensions"] == [2]
        assert "output_dir" not in manifest["config"]

    def test_run_tree_determines_its_basis(self, tmp_path):
        """``spectrum`` on a run's weights.json rebuilds the basis the run used:
        the same eigenvalues, residuals and kernel, and the same Fourier signals."""
        from hyperharmonic.transform import read_signal

        data = tmp_path / "d.csv"
        write_five_variable_csv(data)
        out, spectrum = tmp_path / "out", tmp_path / "spectrum"
        assert main([
            "run", "--input", str(data), "--dimensions", "2,3", "--output-dir", str(out),
        ]) == EXIT_OK
        assert main([
            "spectrum", "--weights", str(out / "weights.json"), "--dimensions", "2,3",
            "--output-dir", str(spectrum),
        ]) == EXIT_OK
        for n in (2, 3):
            stored = json.loads((out / f"dim_{n}" / "diagnostics.json").read_text())
            header = json.loads((spectrum / f"basis_dim{n}.json").read_text())
            assert header["eigenvalues"] == stored["eigenvalues"]
            rebuilt = header["diagnostics"]
            assert rebuilt == {key: stored[key] for key in rebuilt}
            assert sorted(rebuilt) == ["diagonalization", "inversion", "kernel_dimension",
                                       "orthonormality", "self_adjointness"]
            canonicals = sorted((out / f"dim_{n}").glob("signal_*_canonical.json"))
            assert len(canonicals) == 2
            for canonical in canonicals:
                hat = tmp_path / f"hat_{n}_{canonical.name}"
                assert main([
                    "transform", "--signal", str(canonical),
                    "--basis", str(spectrum / f"basis_dim{n}.json"), "--output", str(hat),
                ]) == EXIT_OK
                fourier = canonical.with_name(canonical.name.replace("canonical", "fourier"))
                assert np.array_equal(read_signal(hat).coefficients,
                                      read_signal(fourier).coefficients)

    def test_independent_data_surfaces_cev_errors_without_aborting(self, tmp_path):
        data = tmp_path / "ind.csv"
        rows = ["a,b,c"] + [f"{x},{y},{z}" for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(data), "--dimensions", "2", "--output-dir", str(out),
        ]) == EXIT_OK
        diagnostics = json.loads((out / "dim_2" / "diagnostics.json").read_text())
        status = diagnostics["cev_status"]
        assert "undefined" in status["o_information_canonical"]
        assert not (out / "dim_2" / "cev_o_information_canonical.json").exists()

    def test_continuous_run_via_copula(self, tmp_path):
        rng = np.random.default_rng(21)
        latent = rng.standard_normal(400)
        cols = np.column_stack([
            latent + 0.3 * rng.standard_normal(400),
            -latent + 0.3 * rng.standard_normal(400),
            rng.standard_normal(400),
            0.5 * latent + rng.standard_normal(400),
        ])
        data = tmp_path / "cont.csv"
        rows = ["a,b,c,d"] + [",".join(repr(float(v)) for v in row) for row in cols]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(data), "--kind", "continuous",
            "--dimensions", "2,3", "--output-dir", str(out),
        ]) == EXIT_OK
        model = json.loads((out / "distribution.json").read_text())
        assert model["kind"] == "gaussian" and model["format"] == 2
        assert len(model["correlation"]) == 4
        assert sorted(p.name for p in out.glob("distribution*")) == ["distribution.json"]
        diagnostics = json.loads((out / "dim_3" / "diagnostics.json").read_text())
        assert diagnostics["cev_status"]["o_information_fourier"] == "ok"
        assert diagnostics["kernel_dimension"] == 0
        components = (out / "components.csv").read_text().splitlines()
        assert len(components) > 1

    def test_components_carry_the_random_null(self, tmp_path):
        """``random_k`` reads the dimension's simplex count alone: every
        measure's row holds ``random_null(d)``'s count."""
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        out = tmp_path / "out"
        assert main(["run", "--input", str(data), "--dimensions", "2,3",
                     "--output-dir", str(out)]) == EXIT_OK
        header, *rows = [line.split(",") for line in
                         (out / "components.csv").read_text().splitlines()]
        assert header == ["measure", "dimension", "threshold_pct", "fourier_k", "canonical_k",
                          "random_k"]
        assert {row[0] for row in rows} == {"o_information", "s_information"}
        for _, n, pct, _, _, random_k in rows:
            d = hyperharmonic.simplex_count(4, int(n))
            assert int(random_k) == hyperharmonic.random_null(d).components_at[int(pct) / 100]

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        first = tmp_path / "first"
        assert main([
            "run", "--input", str(data), "--dimensions", "2",
            "--output-dir", str(first),
        ]) == EXIT_OK
        second = tmp_path / "second"
        assert main([
            "run", "--manifest", str(first / "manifest.json"),
            "--output-dir", str(second),
        ]) == EXIT_OK
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize("flags", [
        ["--dimensions", "2"],
        ["--metric", "abs_pearson"],
        ["--input", "other.csv"],
    ], ids=["dimensions", "metric", "input"])
    def test_manifest_takes_no_pipeline_flag(self, tmp_path, flags, capsys):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        first = tmp_path / "first"
        assert main([
            "run", "--input", str(data), "--dimensions", "2", "--output-dir", str(first),
        ]) == EXIT_OK
        second = tmp_path / "second"
        assert main([
            "run", "--manifest", str(first / "manifest.json"), *flags,
            "--output-dir", str(second),
        ]) == EXIT_VALIDATION
        assert flags[0] in capsys.readouterr().err
        assert not second.exists()

    def replay_edited_manifest(self, tmp_path, edit):
        """Run, apply ``edit`` to the manifest, replay it; return both roots and the exit code."""
        data = tmp_path / "d.csv"
        write_five_variable_csv(data)
        first = tmp_path / "first"
        assert main([
            "run", "--input", str(data), "--dimensions", "2,3", "--output-dir", str(first),
        ]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        edit(manifest)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        second = tmp_path / "second"
        return first, second, main([
            "run", "--manifest", str(edited), "--output-dir", str(second),
        ])

    # Manifests from before tree format 2 carried seed, num_random and
    # laplacian_formula; they are unknown keys now, like any other.
    def test_manifest_with_retired_keys_rejected(self, tmp_path, capsys):
        for key, value in (("seed", 11), ("num_random", 80)):
            _, second, code = self.replay_edited_manifest(
                tmp_path, lambda manifest: manifest["config"].update({key: value}))
            assert code == EXIT_VALIDATION
            assert f"unknown key {key!r}" in capsys.readouterr().err
            assert not second.exists()

    def test_manifest_with_laplacian_formula_rejected(self, tmp_path, capsys):
        for value in ("adjoint", "alternate"):
            _, second, code = self.replay_edited_manifest(
                tmp_path, lambda manifest: manifest["config"].update(laplacian_formula=value))
            assert code == EXIT_VALIDATION
            assert "unknown key 'laplacian_formula'" in capsys.readouterr().err
            assert not second.exists()

    def test_manifest_with_retired_floor_and_kernel_tol_replays(self, tmp_path):
        """Every format-4 manifest records these two keys at these values."""
        first, second, code = self.replay_edited_manifest(
            tmp_path, lambda manifest: manifest["config"].update(floor=1e-09, kernel_tol=1e-08))
        assert code == EXIT_OK
        assert tree_bytes(first) == tree_bytes(second)

    def test_manifest_of_a_default_run_with_smoothing_and_units_replays(self, tmp_path):
        """Every manifest of a default run records smoothing 0.0 and units
        "bits" from before those settings were retired."""
        def old(manifest):
            manifest["config"].update(smoothing=0.0, units="bits")

        first, second, code = self.replay_edited_manifest(tmp_path, old)
        assert code == EXIT_OK
        assert tree_bytes(first) == tree_bytes(second)
        assert "smoothing" not in json.loads((second / "manifest.json").read_text())["config"]

    @pytest.mark.parametrize("key, value, message", [
        ("smoothing", 0.5, "smoothing is retired and accepts only 0.0, got '0.5'"),
        ("units", "nats", "units is retired and accepts only 'bits', got 'nats'"),
    ], ids=["smoothing", "units"])
    def test_manifest_with_another_smoothing_or_units_rejected(self, tmp_path, key, value,
                                                               message, capsys):
        _, second, code = self.replay_edited_manifest(
            tmp_path, lambda manifest: manifest["config"].update({key: value}))
        assert code == EXIT_VALIDATION
        assert f"config: {message}" in capsys.readouterr().err
        assert not second.exists()

    def test_manifest_with_another_floor_rejected(self, tmp_path, capsys):
        _, second, code = self.replay_edited_manifest(
            tmp_path, lambda manifest: manifest["config"].update(floor=0.5))
        assert code == EXIT_VALIDATION
        assert "config: floor is retired and accepts only 1e-09, got '0.5'" \
            in capsys.readouterr().err
        assert not second.exists()

    def test_ill_conditioned_operator_has_no_kernel(self, tmp_path):
        """Three copies of one bit and three free bits, every row of {0,1}^4 once:
        under the min aggregator the weights reach down to the floor, and the
        eigenvalues run from about 6 to 3e9, none near 0. A relative tolerance
        of 1e-8 counted 16 of 20 and 14 of 15 of them as kernel."""
        data = tmp_path / "bits.csv"
        rows = [f"{b[0]},{b[0]},{b[0]},{b[1]},{b[2]},{b[3]}"
                for b in (f"{i:04b}" for i in range(16))]
        data.write_text("\n".join(["a,b,c,d,e,f"] + rows) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--input", str(data), "--aggregator", "min", "--dimensions", "2,3",
                     "--output-dir", str(out)]) == EXIT_OK
        for n in (2, 3):
            diagnostics = json.loads((out / f"dim_{n}" / "diagnostics.json").read_text())
            assert min(diagnostics["eigenvalues"]) > 1.0
            assert diagnostics["kernel_dimension"] == 0

    @pytest.mark.parametrize("payload", [
        {"config": {"input": "x.csv", "floor": "abc"}},
        {"config": {"input": "x.csv", "dimensions": [2, "x"]}},
        [{"config": {"input": "x.csv"}}],
        {"config": {"input": None}},
        {"config": {"input": "x.csv", "measures": None}},
        {"config": {"input": "x.csv", "kind": True}},
        {"config": {"input": "x.csv", "dimensions": [[2, 3]]}},
    ], ids=["floor-abc", "dimensions-x", "top-level-list", "input-null", "measures-null",
            "kind-true", "dimensions-nested"])
    def test_malformed_manifest_rejected(self, tmp_path, payload, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--output-dir", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {manifest}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--jobs", "2"],
        ["run", "--laplacian-formula", "adjoint"],
        ["run", "--seed", "1"],
        ["run", "--num-random", "3"],
        ["spectrum", "--weights", "w.json", "--output-dir", "o", "--laplacian-formula", "adjoint"],
        ["complex", "--distribution", "d.json", "--output", "w.json", "--weights-csv", "w.csv"],
        ["run", "--floor", "0.5"],
        ["run", "--kernel-tol", "1e-6"],
        ["complex", "--distribution", "d.json", "--output", "w.json", "--floor", "0.5"],
        ["spectrum", "--weights", "w.json", "--output-dir", "o", "--kernel-tol", "1e-6"],
        ["run", "--config", "x", "--output-dir", "o"],
        ["estimate", "--input", "x.csv", "--output", "m.json", "--smoothing", "0"],
        ["run", "--smoothing", "0"],
        ["run", "--units", "bits"],
    ], ids=["run-jobs", "run-laplacian-formula", "run-seed", "run-num-random",
            "spectrum-laplacian-formula", "complex-weights-csv", "run-floor", "run-kernel-tol",
            "complex-floor", "spectrum-kernel-tol", "run-config", "estimate-smoothing",
            "run-smoothing", "run-units"])
    def test_retired_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("floor", "nan", "floor is retired and accepts only 1e-09, got 'nan'"),
        ("kernel_tol", "inf", "kernel_tol is retired and accepts only 1e-08, got 'inf'"),
        ("smoothing", "nan", "smoothing is retired and accepts only 0.0, got 'nan'"),
    ], ids=["floor", "kernel_tol", "smoothing"])
    def test_non_finite_value_rejected_before_any_output(self, tmp_path, key, value, message,
                                                         capsys):
        """Each of these settings is retired, so it can come from a manifest only."""
        _, second, code = self.replay_edited_manifest(
            tmp_path, lambda manifest: manifest["config"].update({key: value}))
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not second.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--dimensions", "2,2"), ("--measures", "o_information,s_information,o_information"),
    ], ids=["dimensions", "measures"])
    def test_repeated_list_item_rejected_before_any_output(self, tmp_path, flag, value, capsys):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        out = tmp_path / "out"
        assert main(["run", "--input", str(data), flag, value, "--output-dir", str(out)]) \
            == EXIT_VALIDATION
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_empty_measure_list_rejected_before_any_output(self, tmp_path, source, capsys):
        def empty(manifest):
            manifest["config"]["measures"] = []

        out = tmp_path / "out"
        if source == "manifest":
            _, out, code = self.replay_edited_manifest(tmp_path, empty)
        else:
            data = tmp_path / "xor.csv"
            write_xor_csv(data)
            code = main(["run", "--input", str(data), "--measures", "", "--output-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "measures must name at least one measure" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_repeated_dimension_does_not_replay(self, tmp_path, capsys):
        def repeat(manifest):
            manifest["config"]["dimensions"] = [2, 3, 2]

        _, second, code = self.replay_edited_manifest(tmp_path, repeat)
        assert code == EXIT_VALIDATION
        assert "dimensions must not repeat" in capsys.readouterr().err
        assert not second.exists()

    def test_manifest_smoothing_continuous_input_does_not_replay(self, tmp_path, capsys):
        """Versions that had smoothing recorded it on continuous input too."""
        def smooth_continuous(manifest):
            manifest["config"].update(kind="continuous", smoothing=0.5)

        _, second, code = self.replay_edited_manifest(tmp_path, smooth_continuous)
        assert code == EXIT_VALIDATION
        assert "smoothing is retired and accepts only 0.0, got '0.5'" in capsys.readouterr().err
        assert not second.exists()

    @pytest.mark.parametrize("argv,message", [
        (["run", "--metric", "total_variation", "--output-dir"], "needs discrete input"),
    ], ids=["run-total-variation"])
    def test_continuous_input_option_rejected_before_reading(self, tmp_path, argv, message,
                                                             capsys):
        out = tmp_path / "out"
        assert main([*argv, str(out), "--input", str(tmp_path / "unread.csv"),
                     "--kind", "continuous"]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["mutual_information", "abs_pearson", "total_variation"])
    def test_run_equals_the_stage_commands(self, tmp_path, metric):
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        # The sample outcomes first appear out of lexicographic order.
        _, first = np.unique(np.loadtxt(data, delimiter=",", skiprows=1, dtype=np.int64),
                             axis=0, return_index=True)
        assert np.any(np.diff(first) < 0)
        model = str(tmp_path / "dist.json")
        for argv in (["estimate", "--input", str(data), "--output", model],
                     ["complex", "--distribution", model, "--metric", metric,
                      "--output", str(tmp_path / "weights.json")],
                     ["signals", "--distribution", model, "--dimensions", "2,3",
                      "--output-dir", str(tmp_path / "signals")],
                     ["run", "--input", str(data), "--metric", metric, "--dimensions", "2,3",
                      "--output-dir", str(tmp_path / "run")]):
            assert main(argv) == EXIT_OK
        run = tmp_path / "run"
        pairs = [(run / "weights.json", tmp_path / "weights.json")]
        pairs += [(run / f"distribution_{key}.npy", tmp_path / f"dist_{key}.npy")
                  for key in ("outcomes", "masses")]
        pairs += [(run / f"dim_{n}" / f"signal_{measure}_canonical.json",
                   tmp_path / "signals" / f"signal_{measure}_dim{n}.json")
                  for n in (2, 3) for measure in ("o_information", "s_information")]
        for got, expected in pairs:
            assert got.read_bytes() == expected.read_bytes(), got.name

    def test_sample_table_is_dead_before_every_eigensolve(self, tmp_path, monkeypatch):
        import weakref

        from hyperharmonic import distribution as dist_mod
        from hyperharmonic import spectral

        read, solve = dist_mod.read_discrete_csv, spectral.fourier_basis
        tables, dead = [], []

        def reading(*args, **kwargs):
            table = read(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def solving(*args, **kwargs):
            dead.append(tables[0]() is None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dist_mod, "read_discrete_csv", reading)
        monkeypatch.setattr(spectral, "fourier_basis", solving)
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        assert main(["run", "--input", str(data), "--dimensions", "2,3",
                     "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        assert len(tables) == 1 and dead == [True, True]

    def test_row_order_of_the_input_does_not_matter(self, tmp_path):
        data, shuffled = tmp_path / "five.csv", tmp_path / "shuffled.csv"
        write_five_variable_csv(data)
        header, *rows = data.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        trees = []
        for path in (data, shuffled):
            out = tmp_path / path.stem
            assert main(["run", "--input", str(path), "--dimensions", "2,3",
                         "--output-dir", str(out)]) == EXIT_OK
            tree = tree_bytes(out)
            assert json.loads(tree.pop("manifest.json"))["config"]["input"] == str(path)
            trees.append(tree)
        assert trees[0] == trees[1]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        """The output directory comes from --output-dir alone: without it, the
        variable earlier versions read is ignored and the default is used."""
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        target = tmp_path / "from_env"
        monkeypatch.setenv("HYPERHARMONIC_OUTPUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--input", str(data), "--dimensions", "2"]) == EXIT_OK
        assert (tmp_path / DEFAULT_OUTPUT_DIR / "manifest.json").exists()
        assert not target.exists()

    @pytest.mark.parametrize("first, second, entry", [
        (["--dimensions", "2,3"], ["--dimensions", "2"], "dim_3"),
        (["--dimensions", "2"], ["--dimensions", "2", "--kind", "continuous"],
         "distribution_masses.npy"),
        (["--dimensions", "2"], ["--dimensions", "2", "--measures", "tc"],
         os.path.join("dim_2", "cev_o_information_canonical.json")),
    ], ids=["dimension", "discrete-model-arrays", "measures"])
    def test_refuses_a_directory_holding_another_tree(self, tmp_path, first, second, entry,
                                                      capsys):
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        out = tmp_path / "out"
        argv = ["run", "--input", str(data), "--output-dir", str(out)]
        assert main(argv + first) == EXIT_OK
        before = tree_bytes(out)
        assert main(argv + second) == EXIT_IO
        assert f"error: {out / entry}: " in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert main(argv + first) == EXIT_OK
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("order", ["run-then-control-synth", "control-synth-then-run"])
    def test_run_and_control_synth_refuse_each_others_tree(self, tmp_path, order, capsys):
        """Both write manifest.json, so neither may write into the other's tree."""
        data = tmp_path / "five.csv"
        write_five_variable_csv(data)
        out = tmp_path / "out"
        run = ["run", "--input", str(data), "--dimensions", "2", "--output-dir", str(out)]
        synth = ["control-synth", "--ranks", "2,5", "--replicates", "1", "--samples", "500",
                 "--size", "5", "--dimensions", "2", "--output-dir", str(out)]
        first, second, entry = (run, synth, "components.csv") if order.startswith("run") \
            else (synth, run, "rank_cev.csv")
        assert main(first) == EXIT_OK
        before = tree_bytes(out)
        assert main(second) == EXIT_IO
        assert f"error: {out / entry}: left by another request" in capsys.readouterr().err
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("command, entry", [
        ("signals", "signal_o_information_dim3.json"),
        ("spectrum", "basis_dim3.json"),
    ])
    def test_step_refuses_a_directory_holding_another_request(self, tmp_path, command, entry,
                                                              capsys):
        data, dist, weights = (tmp_path / name for name in ("five.csv", "dist.json",
                                                            "weights.json"))
        write_five_variable_csv(data)
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        source = ["--distribution", str(dist)] if command == "signals" \
            else ["--weights", str(weights)]
        out = tmp_path / "out"
        argv = [command, *source, "--output-dir", str(out), "--dimensions"]
        assert main(argv + ["2,3"]) == EXIT_OK
        before = tree_bytes(out)
        assert main(argv + ["2"]) == EXIT_IO
        assert f"error: {out / entry}: left by another request" in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert main(argv + ["2,3"]) == EXIT_OK
        assert tree_bytes(out) == before

    def test_undefined_cev_removes_the_file_an_earlier_request_wrote(self, tmp_path):
        ternary, binary = tmp_path / "ternary.csv", tmp_path / "binary.csv"
        X = np.random.default_rng(5).integers(0, 3, size=(200, 4))
        X[:, 2] = (X[:, 0] + X[:, 1]) % 3
        ternary.write_text("\n".join(["a,b,c,d"] + [",".join(map(str, row)) for row in X]) + "\n")
        # Every 4-bit row once: independent fair bits, so every signal is zero.
        rows = [",".join(f"{i:04b}") for i in range(16)]
        binary.write_text("\n".join(["a,b,c,d"] + rows) + "\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["run", "--dimensions", "2", "--input"]
        assert main(argv + [str(ternary), "--output-dir", str(out)]) == EXIT_OK
        assert len([name for name in os.listdir(out / "dim_2") if name.startswith("cev_")]) == 4
        assert main(argv + [str(binary), "--output-dir", str(out)]) == EXIT_OK
        status = json.loads((out / "dim_2" / "diagnostics.json").read_text())["cev_status"]
        assert len(status) == 4 and "ok" not in status.values()
        assert main(argv + [str(binary), "--output-dir", str(fresh)]) == EXIT_OK
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_spectrum_refuses_a_residual_file_of_the_earlier_layout(self, tmp_path, capsys):
        data, dist, weights = (tmp_path / name for name in ("five.csv", "dist.json",
                                                            "weights.json"))
        write_five_variable_csv(data)
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        (out / "diagnostics_dim2.json").write_text('{"kernel_dimension": 0}\n')
        before = tree_bytes(out)
        assert main(["spectrum", "--weights", str(weights), "--dimensions", "2",
                     "--output-dir", str(out)]) == EXIT_IO
        assert f"error: {out / 'diagnostics_dim2.json'}: " in capsys.readouterr().err
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("command", ["run", "control-synth"])
    def test_failure_leaves_incomplete_marker(self, tmp_path, monkeypatch, command):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        out = tmp_path / "out"
        import hyperharmonic.cli as cli_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(cli_mod.spectral, "fourier_basis", boom)
        monkeypatch.setattr(cli_mod.synth, "fourier_basis", boom)
        argv = {
            "run": ["run", "--input", str(data), "--dimensions", "2"],
            "control-synth": ["control-synth", "--ranks", "2", "--replicates", "1",
                              "--samples", "50", "--size", "4", "--dimensions", "2"],
        }[command]
        with pytest.raises(np.linalg.LinAlgError):
            main(argv + ["--output-dir", str(out)])
        assert (out / INCOMPLETE_MARKER).exists()

    @pytest.mark.parametrize("command", ["signals", "spectrum"])
    def test_step_failure_leaves_incomplete_marker(self, tmp_path, monkeypatch, command):
        data, dist, weights = (tmp_path / name for name in ("five.csv", "dist.json",
                                                            "weights.json"))
        write_five_variable_csv(data)
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        import hyperharmonic.cli as cli_mod

        owner, name, argv = {
            "signals": (cli_mod.transform, "build_signal", ["--distribution", str(dist)]),
            "spectrum": (cli_mod.spectral, "fourier_basis", ["--weights", str(weights)]),
        }[command]
        real = getattr(owner, name)

        def fail_at_dimension_3(first, n, *rest):
            if n == 3:
                raise NumericalError("forced failure at dimension 3")
            return real(first, n, *rest)

        monkeypatch.setattr(owner, name, fail_at_dimension_3)
        out = tmp_path / "out"
        assert main([command, *argv, "--dimensions", "2,3", "--output-dir", str(out)]) \
            == EXIT_NUMERICAL
        written = tree_bytes(out)
        assert INCOMPLETE_MARKER in written
        assert all("dim2" in path for path in written if path != INCOMPLETE_MARKER)

    @pytest.mark.parametrize("flags, code", [
        (["--kind", "continuous"], EXIT_VALIDATION),
        (["--metric", "abs_pearson"], EXIT_VALIDATION),
    ], ids=["continuous-constant-column", "abs-pearson-constant-column"])
    def test_failed_model_or_weights_leave_no_output_directory(self, tmp_path, flags, code):
        # Fourteen ternary columns and one constant column, on which the
        # copula and abs_pearson are undefined.
        rng = np.random.default_rng(4)
        samples = np.hstack([rng.integers(0, 3, size=(40, 14)), np.zeros((40, 1), dtype=int)])
        samples[0, :14] = 2
        data = tmp_path / "v15.csv"
        rows = [",".join(f"v{i}" for i in range(15))]
        data.write_text("\n".join(rows + [",".join(map(str, r)) for r in samples.tolist()]))
        out = tmp_path / "out"
        assert main(["run", "--input", str(data), "--dimensions", "2", *flags,
                     "--output-dir", str(out)]) == code
        assert not out.exists()

    def test_interrupted_basis_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        dist, weights = tmp_path / "dist.json", tmp_path / "weights.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        out = tmp_path / "out"

        def interrupted_save(fh, array, allow_pickle):
            fh.write(b"\x93NUMPY partial")
            raise RuntimeError("interrupted")

        monkeypatch.setattr(np, "save", interrupted_save)
        with pytest.raises(RuntimeError):
            main(["spectrum", "--weights", str(weights), "--dimensions", "2",
                  "--output-dir", str(out)])
        assert not (out / "basis_dim2_eigenvectors.npy").exists()
        assert not (out / "basis_dim2.json").exists()
        assert tmp_files(out) == []

    def test_interrupted_signal_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        dist = tmp_path / "dist.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        out = tmp_path / "signals"

        def interrupted_dump(payload, fh, **kwargs):
            fh.write('{"coefficients": [')
            raise RuntimeError("interrupted")

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(RuntimeError):
            main(["signals", "--distribution", str(dist), "--dimensions", "2",
                  "--output-dir", str(out)])
        assert list(tree_bytes(out)) == [INCOMPLETE_MARKER]

    def test_interrupted_csv_write_leaves_no_partial_file(self, tmp_path):
        from hyperharmonic.jsonio import csv_writer

        def rows():
            yield ["k", "cev"]
            raise RuntimeError("interrupted")

        def write(path):
            with csv_writer(path) as writer:
                writer.writerows(rows())

        path = tmp_path / "components.csv"
        with pytest.raises(RuntimeError):
            write(path)
        assert tree_bytes(tmp_path) == {}
        earlier = b"k,cev\n1,0.5\n"
        path.write_bytes(earlier)
        with pytest.raises(RuntimeError):
            write(path)
        assert tree_bytes(tmp_path) == {"components.csv": earlier}

    def test_oversized_dimension_fails_before_estimation(self, tmp_path):
        rng = np.random.default_rng(2)
        data = tmp_path / "v15.csv"
        rows = [",".join(f"v{i}" for i in range(15))]
        rows += [",".join(map(str, row)) for row in rng.integers(0, 2, size=(30, 15))]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(data), "--dimensions", "7", "--output-dir", str(out),
        ]) == EXIT_CAPACITY
        assert not (out / "distribution.json").exists()

    def test_capacity_exit_code(self, tmp_path):
        rng = np.random.default_rng(1)
        data = tmp_path / "wide.csv"
        names = [f"v{i}" for i in range(20)]
        rows = [",".join(names)]
        for _ in range(8):
            rows.append(",".join(str(int(v)) for v in rng.integers(0, 2, size=20)))
        data.write_text("\n".join(rows) + "\n")
        code = main([
            "run", "--input", str(data), "--dimensions", "2",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_CAPACITY


class TestSettingsTable:
    """``run``'s flags and manifest keys are one table."""

    TEXTS = {
        "input": "table.csv", "kind": "continuous", "dimensions": "2, 4",
        "measures": "tc,o_information", "metric": "abs_pearson", "aggregator": "max",
    }

    @pytest.mark.parametrize("key", list(_CONFIG_PARSERS))
    def test_flag_parses_as_config_key(self, tmp_path, key):
        """A flag's value, recorded in a manifest as ``run`` records it, reads back the same."""
        text = self.TEXTS[key]
        args = build_parser().parse_args(["run", "--" + key.replace("_", "-"), text])
        manifest = tmp_path / "manifest.json"
        config = PipelineConfig(**{key: getattr(args, key)})
        manifest.write_text(json.dumps({"config": dataclasses.asdict(config)}))
        from_manifest = _load_manifest_config(manifest)[key]
        assert getattr(args, key) == from_manifest
        assert type(getattr(args, key)) is type(from_manifest)

    def test_run_flags_are_the_settings(self):
        args = vars(build_parser().parse_args(["run"]))
        assert set(args) - {"command", "func"} == \
            set(_CONFIG_PARSERS) | {"manifest", "output_dir"}
        assert list(_CONFIG_PARSERS) == [f.name for f in dataclasses.fields(PipelineConfig)]
        assert set(self.TEXTS) == set(_CONFIG_PARSERS)

    @pytest.mark.parametrize("key", list(_CHOICES))
    def test_flag_and_validate_allow_the_same_values(self, key, capsys):
        for value in _CHOICES[key]:
            build_parser().parse_args(["run", "--" + key, value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--" + key, "other"])
        assert "invalid choice: 'other'" in capsys.readouterr().err
        with pytest.raises(ValidationError, match=f"unknown {key} 'other'; expected one of: "
                           + ", ".join(_CHOICES[key])):
            PipelineConfig(input="table.csv", **{key: "other"}).validate()

    @pytest.mark.parametrize("key,given,old,other", [
        ("floor", "1.0e-09", "1e-09", "0.5"), ("kernel_tol", "1.0e-08", "1e-08", "1e-6"),
        ("smoothing", 0, "0.0", "0.5"), ("units", "bits", "'bits'", "nats"),
    ], ids=["floor", "kernel_tol", "smoothing", "units"])
    def test_retired_key_accepts_only_its_old_value(self, tmp_path, key, given, old, other):
        """Every format-4 manifest records floor 1e-09 and kernel_tol 1e-08, and
        every default run's manifest smoothing 0.0 and units "bits": a manifest
        may still give each at that value, read by the key's old parser, and
        the key is dropped."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": {"input": "table.csv", key: given}}))
        assert _load_manifest_config(manifest) == {"input": "table.csv"}
        manifest.write_text(json.dumps({"config": {key: other}}))
        with pytest.raises(ValidationError, match=f"^{manifest}: config: {key} is retired and "
                                                  f"accepts only {old}, got '{other}'$"):
            _load_manifest_config(manifest)


class TestOptionInventory:
    """Every subcommand's options, as one table: a flag added or dropped edits it."""

    # The environment variables the package reads, found by a scan of its source.
    ENVIRONMENT: list[str] = []

    OPTIONS = {
        "estimate": ["--input", "--kind", "--output"],
        "complex": ["--distribution", "--metric", "--aggregator", "--output", "--boundaries-dir"],
        "signals": ["--distribution", "--dimensions", "--measures", "--output-dir"],
        "spectrum": ["--weights", "--dimensions", "--output-dir"],
        "transform": ["--signal", "--basis", "--inverse", "--output"],
        "cev": ["--signal", "--output-prefix"],
        "control-synth": ["--ranks", "--replicates", "--samples", "--size", "--dimensions",
                          "--measures", "--seed", "--output-dir"],
        "run": ["--input", "--kind", "--dimensions", "--measures", "--metric", "--aggregator",
                "--manifest", "--output-dir"],
    }

    def test_each_subcommand_takes_exactly_its_options(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        found = {name: sorted(option for action in command._actions
                              for option in action.option_strings if option not in ("-h", "--help"))
                 for name, command in sub.choices.items()}
        assert found == {name: sorted(options) for name, options in self.OPTIONS.items()}

    def test_package_reads_exactly_its_environment_variables(self):
        """Each ``environ`` or ``getenv`` in the source counts: by the name it
        reads, or by its text when it names none."""
        pattern = re.compile(r"\b(?:environ|getenv)\b(?:\.get)?[\[(]?\s*(?:[\"'](\w+)[\"'])?")
        package = pathlib.Path(hyperharmonic.__file__).parent
        found = [match.group(1) or f"{path.name}: {match.group(0)}"
                 for path in sorted(package.glob("*.py"))
                 for match in pattern.finditer(path.read_text())]
        assert sorted(found) == sorted(self.ENVIRONMENT)

    README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

    def readme_sections(self) -> dict:
        """The README's ``## `` sections by heading."""
        parts = re.split(r"(?m)^## (.+)\n", self.README.read_text())
        return dict(zip(parts[1::2], parts[2::2]))

    def test_readme_cli_commands_parse(self, capsys):
        """Each ``hyperharmonic`` command in the CLI section's shell block, with
        its ``\\`` continuations joined and its ``#`` comments dropped."""
        block = re.search(r"```bash\n(.*?)```", self.readme_sections()["CLI"], re.S).group(1)
        lines = (line.split("#", 1)[0].rstrip() for line in block.splitlines())
        commands = " ".join(line[:-1] if line.endswith("\\") else line + "\n"
                            for line in lines).splitlines()
        commands = [shlex.split(line) for line in commands if line.strip()]
        assert commands and all(words[0] == "hyperharmonic" for words in commands)
        for words in commands:
            try:
                build_parser().parse_args(words[1:])
            except SystemExit:
                pytest.fail(f"{' '.join(words)}: {capsys.readouterr().err}")

    def test_readme_names_only_existing_flags(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = {option for command in (parser, *sub.choices.values())
                   for action in command._actions for option in action.option_strings}
        named = {flag for heading, text in self.readme_sections().items() if heading != "Install"
                 for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)}
        assert sorted(named - options) == []

    def test_docs_name_only_exported_api(self):
        """Every ``hh.<name>`` in the Library quickstart block and in each
        ``docs/*.py`` script, and every name a script imports from the package,
        is in ``hh.__all__``. The code is parsed, not run."""
        import ast

        block = re.search(r"```python\n(.*?)```", self.readme_sections()["Library quickstart"],
                          re.S).group(1)
        scripts = sorted((self.README.parent / "docs").glob("*.py"))
        sources = {"README.md": block, **{path.name: path.read_text() for path in scripts}}
        named = set()
        for where, text in sources.items():
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id == "hh":
                    named.add((where, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module == "hyperharmonic":
                    named |= {(where, alias.name) for alias in node.names}
        assert "README.md" in {where for where, _ in named}
        assert sorted(n for n in named if n[1] not in hyperharmonic.__all__) == []

    def test_retired_control_random_is_a_usage_error(self, tmp_path, capsys):
        """Its null is the ``random_k`` column of a run's components.csv."""
        with pytest.raises(SystemExit) as exc:
            main(["control-random", "--signal", str(tmp_path / "s.json"),
                  "--basis", str(tmp_path / "b.json"), "--num-random", "3", "--seed", "0",
                  "--output", str(tmp_path / "ctrl.csv")])
        assert exc.value.code == EXIT_VALIDATION
        assert "invalid choice: 'control-random'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTreeInventory:
    """Every artifact is exactly one file: a second copy of a payload fails here."""

    @pytest.fixture
    def steps(self, tmp_path):
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        dist, weights = tmp_path / "dist.json", tmp_path / "weights.json"
        assert main(["estimate", "--input", str(data), "--output", str(dist)]) == EXIT_OK
        assert main(["complex", "--distribution", str(dist), "--output", str(weights)]) == EXIT_OK
        return {"data": data, "dist": dist, "weights": weights}

    def test_run(self, steps, tmp_path):
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(steps["data"]), "--dimensions", "2", "--output-dir", str(out),
        ]) == EXIT_OK
        per_dimension = [
            "diagnostics.json",
            *(f"{kind}_{measure}_{basis}.json"
              for kind in ("cev", "signal")
              for measure in ("o_information", "s_information")
              for basis in ("canonical", "fourier")),
        ]
        assert sorted(tree_bytes(out)) == sorted([
            "components.csv", "distribution.json", "distribution_masses.npy",
            "distribution_outcomes.npy", "manifest.json", "weights.json",
            *(os.path.join("dim_2", name) for name in per_dimension),
        ])
        assert not [name for name in tree_bytes(out)
                    if name.startswith("dim_") and name.endswith(".npy")]
        assert json.loads((out / "manifest.json").read_text())["tree_format"] == 5

    def test_signals(self, steps, tmp_path):
        out = tmp_path / "signals"
        assert main([
            "signals", "--distribution", str(steps["dist"]), "--dimensions", "2",
            "--output-dir", str(out),
        ]) == EXIT_OK
        assert sorted(tree_bytes(out)) == [
            "signal_o_information_dim2.json", "signal_s_information_dim2.json",
        ]

    def test_spectrum(self, steps, tmp_path):
        out = tmp_path / "spectrum"
        assert main([
            "spectrum", "--weights", str(steps["weights"]), "--dimensions", "2",
            "--output-dir", str(out),
        ]) == EXIT_OK
        assert sorted(tree_bytes(out)) == [
            "basis_dim2.json", "basis_dim2_eigenvectors.npy",
        ]

    @pytest.mark.parametrize("argv", [
        ["signals", "--dimensions", "2,2"],
        ["signals", "--dimensions", "2", "--measures", "o_information,o_information"],
        ["spectrum", "--dimensions", "2,2"],
    ], ids=["signals-dimensions", "signals-measures", "spectrum-dimensions"])
    def test_repeated_list_item_rejected_before_any_output(self, steps, tmp_path, argv, capsys):
        out = tmp_path / "out"
        source = ["--distribution", str(steps["dist"])] if argv[0] == "signals" \
            else ["--weights", str(steps["weights"])]
        assert main([*argv, *source, "--output-dir", str(out)]) == EXIT_VALIDATION
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_measure_list_rejected_before_any_output(self, steps, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["signals", "--distribution", str(steps["dist"]), "--measures", "",
                     "--output-dir", str(out)]) == EXIT_VALIDATION
        assert "measures must name at least one measure" in capsys.readouterr().err
        assert not out.exists()

    def test_cev(self, steps, tmp_path):
        signals, out = tmp_path / "signals", tmp_path / "cev"
        assert main([
            "signals", "--distribution", str(steps["dist"]), "--dimensions", "2",
            "--measures", "o_information", "--output-dir", str(signals),
        ]) == EXIT_OK
        out.mkdir()
        assert main([
            "cev", "--signal", str(signals / "signal_o_information_dim2.json"),
            "--output-prefix", str(out / "report"),
        ]) == EXIT_OK
        assert sorted(tree_bytes(out)) == ["report.json"]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("hyperharmonic")
        if exe is None:
            pytest.skip("console script not installed")
        data = tmp_path / "xor.csv"
        write_xor_csv(data)
        out = tmp_path / "out"
        proc = subprocess.run(
            [exe, "run", "--input", str(data), "--dimensions", "2",
             "--output-dir", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()


class TestImports:
    @staticmethod
    def run_python(code, cwd):
        import subprocess
        import sys

        import hyperharmonic

        src = os.path.dirname(os.path.dirname(hyperharmonic.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_every_exported_name_resolves(self):
        import hyperharmonic

        assert [name for name in hyperharmonic.__all__ if not hasattr(hyperharmonic, name)] == []

    def test_every_exported_name_has_its_own_docstring(self):
        """A class's ``__doc__`` is never inherited; a dataclass without one gets
        its signature, which does not count."""
        missing = [name for name in hyperharmonic.__all__
                   if not (getattr(hyperharmonic, name).__doc__ or "").strip()
                   or getattr(hyperharmonic, name).__doc__.startswith(name + "(")]
        assert missing == []

    # Prints every scipy module loaded, the package included, then which of
    # numpy.random and statistics are loaded. Importing numpy.random adds about
    # 6 MiB of peak RSS, and statistics about 0.5 MiB; only control-synth draws.
    LOADED = ("print([m for m in sys.modules if m.split('.')[0] == 'scipy'], "
              "[m for m in ('numpy.random', 'statistics') if m in sys.modules])")

    def test_cli_import_does_not_load_scipy_stats(self, tmp_path):
        loaded = self.run_python("import sys, hyperharmonic.cli; " + self.LOADED, tmp_path)
        assert loaded == "[] []"

    # Prints the exit code, then what ``LOADED`` prints.
    EXIT_AND_LOADED = "print(code, end=' '); " + LOADED

    def test_discrete_run_does_not_load_scipy_sparse(self, tmp_path):
        write_five_variable_csv(tmp_path / "data.csv")
        result = self.run_python(
            "import sys; from hyperharmonic.cli import main; "
            "code = main(['run', '--input', 'data.csv', '--kind', 'discrete', "
            "'--dimensions', '2,3', '--output-dir', 'out']); " + self.EXIT_AND_LOADED,
            tmp_path,
        )
        assert result == "0 [] []"
        diagnostics = json.loads((tmp_path / "out" / "dim_3" / "diagnostics.json").read_text())
        assert len(diagnostics["eigenvalues"]) == 5

    @pytest.mark.parametrize("argv, drawn", [
        (["control-synth", "--ranks", "2,4", "--replicates", "2", "--samples", "300",
          "--size", "4", "--dimensions", "2", "--output-dir", "out"], "['numpy.random']"),
        (["run", "--input", "cont.csv", "--kind", "continuous", "--dimensions", "2",
          "--output-dir", "out"], "[]"),
    ], ids=["control-synth", "continuous-run"])
    def test_copula_fit_does_not_load_scipy(self, tmp_path, argv, drawn):
        rng = np.random.default_rng(8)
        rows = ["a,b,c,d"] + [",".join(f"{v:.2f}" for v in row)
                              for row in rng.standard_normal((200, 4))]
        (tmp_path / "cont.csv").write_text("\n".join(rows) + "\n")
        result = self.run_python(
            "import sys; from hyperharmonic.cli import main; "
            f"code = main({argv!r}); " + self.EXIT_AND_LOADED,
            tmp_path,
        )
        assert result == f"0 [] {drawn}"
        assert (tmp_path / "out" / "manifest.json").exists()

    # A finder ahead of every other that fails each scipy import, the package included.
    BLOCK_SCIPY = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "try:\n"
        "    import scipy.sparse\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('scipy was not blocked')\n"
    )

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        """Stands in for an install without scipy, which needs a package index."""
        write_five_variable_csv(tmp_path / "data.csv")
        rng = np.random.default_rng(8)
        rows = ["a,b,c,d"] + [",".join(f"{v:.2f}" for v in row)
                              for row in rng.standard_normal((200, 4))]
        (tmp_path / "cont.csv").write_text("\n".join(rows) + "\n")
        signal, basis = "signals/signal_o_information_dim2.json", "spectrum/basis_dim2.json"
        commands = [
            ["estimate", "--input", "data.csv", "--output", "dist.json"],
            ["complex", "--distribution", "dist.json", "--output", "weights.json",
             "--boundaries-dir", "boundaries"],
            ["signals", "--distribution", "dist.json", "--dimensions", "2",
             "--output-dir", "signals"],
            ["spectrum", "--weights", "weights.json", "--dimensions", "2",
             "--output-dir", "spectrum"],
            ["transform", "--signal", signal, "--basis", basis, "--output", "hat.json"],
            ["cev", "--signal", "hat.json", "--output-prefix", "cev"],
            ["control-synth", "--ranks", "2,4", "--replicates", "2", "--samples", "300",
             "--size", "4", "--dimensions", "2", "--output-dir", "synth"],
            ["run", "--input", "data.csv", "--kind", "discrete", "--dimensions", "2,3",
             "--output-dir", "discrete"],
            ["run", "--input", "cont.csv", "--kind", "continuous", "--dimensions", "2",
             "--output-dir", "continuous"],
        ]
        result = self.run_python(
            self.BLOCK_SCIPY + "from hyperharmonic.cli import main\n"
            f"print([main(argv) for argv in {commands!r}])",
            tmp_path,
        )
        assert result == str([EXIT_OK] * len(commands))
        assert (tmp_path / "boundaries" / "boundary_4.csv").exists()
        assert (tmp_path / "continuous" / "manifest.json").exists()

    def test_no_module_imports_scipy(self):
        import ast

        import hyperharmonic

        package = os.path.dirname(hyperharmonic.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                assert all(m.split(".")[0] != "scipy" for m in modules), (name, node.lineno)

    def test_package_is_layered(self):
        """No function imports a sibling module, the module-level imports form
        no cycle, ``simplices`` rests on ``errors`` and ``jsonio`` alone, and the
        one private name a module imports from a sibling is the copula fit
        ``synth`` runs on its own draw."""
        import ast

        import hyperharmonic

        package = pathlib.Path(hyperharmonic.__file__).parent
        modules = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
        lazy, private, graph = [], [], {}
        for name, tree in modules.items():
            functions = [node for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            lazy += [(name, alias.name) for function in functions for node in ast.walk(function)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for alias in node.names]
            graph[name] = set()
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    targets = [node.module] if node.module else \
                        [alias.name for alias in node.names]
                    graph[name] |= {t if t in modules else "__init__" for t in targets}
                    private += [(name, node.module, alias.name) for alias in node.names
                                if node.module and alias.name.startswith("_")]
        # The one lazy import is a stdlib module that only the table readers need.
        assert lazy == [("distribution", "array")]
        assert graph["simplices"] == {"errors", "jsonio"}
        assert sorted(private) == [("synth", "distribution", "_copula_fit")]

        def reach(start):
            seen, stack = set(), [start]
            while stack:
                for target in graph[stack.pop()] - seen:
                    seen.add(target)
                    stack.append(target)
            return seen

        assert [name for name in sorted(graph) if name in reach(name)] == []

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
        assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


class TestControlSynth:
    def test_quick_mode_outputs(self, tmp_path):
        out = tmp_path / "ctrl"
        assert main([
            "control-synth", "--ranks", "2,4", "--replicates", "2",
            "--samples", "300", "--size", "4", "--dimensions", "2",
            "--measures", "o_information", "--seed", "3",
            "--output-dir", str(out),
        ]) == EXIT_OK
        lines = (out / "rank_cev.csv").read_text().splitlines()
        assert lines[0] == "rank,dimension,measure,k,mean_cev,ci_low,ci_high"
        assert len(lines) > 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ranks"] == [2, 4]
        assert not (out / INCOMPLETE_MARKER).exists()

    @pytest.mark.parametrize("flags, code", [
        (["--replicates", "0"], EXIT_VALIDATION),
        (["--samples", "2"], EXIT_VALIDATION),
        (["--size", "20"], EXIT_CAPACITY),
        (["--size", "3", "--dimensions", "3"], EXIT_VALIDATION),
        (["--ranks", "2,2"], EXIT_VALIDATION),
        (["--dimensions", "2,2"], EXIT_VALIDATION),
        (["--measures", "o_information,o_information"], EXIT_VALIDATION),
        (["--measures", ""], EXIT_VALIDATION),
    ])
    def test_bad_arguments_leave_no_output_directory(self, tmp_path, flags, code):
        out = tmp_path / "ctrl"
        assert main([
            "control-synth", "--ranks", "2", "--replicates", "1", "--samples", "50",
            *flags, "--output-dir", str(out),
        ]) == code
        assert not out.exists()

    def test_default_dimensions_follow_the_size(self, tmp_path):
        out = tmp_path / "ctrl"
        assert main([
            "control-synth", "--size", "5", "--ranks", "2,5", "--replicates", "1",
            "--samples", "300", "--output-dir", str(out),
        ]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["dimensions"] == [2, 3, 4]

    @pytest.mark.parametrize("command", ["control-synth"])
    def test_negative_seed_exits_before_any_work(self, tmp_path, command, capsys):
        out = tmp_path / "ctrl"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--seed", "-1", "--output-dir", str(out)])
        assert excinfo.value.code == EXIT_VALIDATION
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_samples_give_capacity_exit(self, tmp_path, capsys):
        out = tmp_path / "ctrl"
        assert main([
            "control-synth", "--ranks", "2", "--replicates", "1",
            "--samples", "100000000000", "--output-dir", str(out),
        ]) == EXIT_CAPACITY
        assert "exceed" in capsys.readouterr().err
        assert not out.exists()
