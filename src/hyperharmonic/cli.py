"""Batch command-line pipeline over CSV inputs.

Subcommands mirror the pipeline stages (estimate, complex, signals, spectrum,
transform, cev), the rank-controlled experiment (control-synth), and ``run``,
which executes everything end to end into an output directory.
Every stage's output is a valid input to the next, so intermediates can be
inspected or swapped.

Exit codes: 0 success, 2 validation, 3 I/O, 4 numerical, 5 capacity.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import distribution as dist_mod
from . import infotheory, simplices, spectral, synth, transform
from .errors import CapacityError, NumericalError, ValidationError
from .jsonio import (csv_writer, integer, number_array, parsing, read_header, read_json,
                     read_sidecar, write_json, write_sidecar)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_CAPACITY = 5
# The first class an error is an instance of sets the exit code.
_EXIT_CODES = {ValidationError: EXIT_VALIDATION, CapacityError: EXIT_CAPACITY,
               NumericalError: EXIT_NUMERICAL, OSError: EXIT_IO}

DEFAULT_OUTPUT_DIR = "hyperharmonic_output"
INCOMPLETE_MARKER = "INCOMPLETE"
BASIS_FORMAT = 2
TREE_FORMAT = 5


@dataclass
class PipelineConfig:
    """Everything that determines the bytes a ``run`` produces.

    The output directory is deliberately not part of the persisted manifest:
    it controls where, never what.
    """

    input: str = ""
    kind: str = "discrete"
    dimensions: tuple[int, ...] = ()
    measures: tuple[str, ...] = ("o_information", "s_information")
    metric: str = "mutual_information"
    aggregator: str = "mean"

    def validate(self) -> None:
        if not self.input:
            raise ValidationError("an input file is required")
        for key, allowed in _CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValidationError(
                    f"unknown {key} {value!r}; expected one of: {', '.join(allowed)}")
        infotheory.resolved_measures(self.measures)
        if self.kind == "continuous" and self.metric == "total_variation":
            raise ValidationError("the total_variation metric needs discrete input")


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _parse_str_list(text))


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


# Each ``run`` setting's parser, shared by its flag and its manifest key.
_CONFIG_PARSERS = {
    "input": str,
    "kind": str,
    "dimensions": _parse_int_list,
    "measures": _parse_str_list,
    "metric": str,
    "aggregator": str,
}

# The allowed values of each enumerated setting; measures are checked one by one.
_CHOICES = {
    "kind": ("discrete", "continuous"),
    "metric": tuple(m.value for m in infotheory.SimilarityMetric),
    "aggregator": tuple(a.value for a in simplices.WeightAggregator),
}


# Settings that became constants, each with its old parser and the one value
# that a manifest of a default run records: an old manifest may still give
# that value, and the key is dropped.
_RETIRED_KEYS = {"floor": (float, simplices.WEIGHT_FLOOR), "kernel_tol": (float, 1e-8),
                 "smoothing": (float, 0.0), "units": (str, "bits")}


def _config_values(items) -> dict:
    """Parse a manifest's ``(where, key, text)`` items into ``PipelineConfig`` values."""
    values: dict = {}
    for where, key, text in items:
        if key in _RETIRED_KEYS:
            parse, old = _RETIRED_KEYS[key]
            with contextlib.suppress(ValueError):
                if parse(text) == old:
                    continue
            raise ValidationError(f"{where}: {key} is retired and accepts only {old!r}, "
                                  f"got {text!r}")
        if key not in _CONFIG_PARSERS:
            raise ValidationError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](text)
        except ValueError as exc:
            raise ValidationError(f"{where}: bad value for {key}: {exc}") from exc
    return values


def _load_manifest_config(path) -> dict:
    """Parse the config section of a run manifest.

    A value is a string, a number or a flat list of them: a list becomes its
    comma-joined items and a scalar its ``str``, which round-trips every float
    exactly, so a replay rebuilds the same config.
    """
    payload = read_json(path)
    with parsing(f"{path}: malformed manifest"):
        config = {key: value if isinstance(value, list) else [value]
                  for key, value in payload["config"].items()}
    for key, cells in config.items():
        if not all(isinstance(c, (str, int, float)) and not isinstance(c, bool) for c in cells):
            raise ValidationError(f"{path}: config: bad value for {key}")
    return _config_values((f"{path}: config", key, ",".join(map(str, cells)))
                          for key, cells in config.items())


def _versions() -> dict:
    return {
        "hyperharmonic": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _read_table(config: PipelineConfig):
    if config.kind == "discrete":
        return dist_mod.read_discrete_csv(config.input)
    return dist_mod.read_continuous_csv(config.input)


def _estimate_model(config: PipelineConfig, table):
    if config.kind == "discrete":
        return dist_mod.estimate_empirical(table)
    return dist_mod.copula_gaussian_fit(table)


# ---------------------------------------------------------------------------
# The eigenbasis: built by run and spectrum, stored and read as files by the other commands
# ---------------------------------------------------------------------------


def write_basis(path, basis: spectral.FourierBasis, diagnostics: dict) -> None:
    """Write Q to ``<stem>_eigenvectors.npy`` beside ``path``, then the header naming it."""
    write_json(path, {
        "format": BASIS_FORMAT,
        "dimension": basis.dimension,
        "eigenvalues": basis.eigenvalues.tolist(),
        "weights": basis.weights.tolist(),
        "diagnostics": diagnostics,
        "eigenvectors": write_sidecar(path, "eigenvectors", basis.eigenvectors),
    })


def read_basis(path) -> spectral.FourierBasis:
    """Load a format-2 header and the eigenvector matrix it names."""
    payload = read_header(path, BASIS_FORMAT, "basis", "spectrum")
    with parsing(f"{path}: malformed basis file"):
        dimension = integer(payload["dimension"], "dimension")
        eigenvalues = number_array(payload["eigenvalues"], "eigenvalues")
        weights = number_array(payload["weights"], "weights")
        name = payload["eigenvectors"]
        Q = read_sidecar(path, name, "eigenvector matrix")
        if Q.dtype != np.float64:
            raise ValidationError(f"eigenvector matrix {name} is {Q.dtype}, expected float64")
        return spectral.FourierBasis(dimension, eigenvalues, Q, weights)


def _weights_payload(simplex: simplices.StructuralSimplex, similarity, config) -> dict:
    return {
        "num_vertices": simplex.N + 1,
        "aggregator": config.aggregator,
        "floor": simplices.WEIGHT_FLOOR,
        "metric": config.metric,
        "similarity": np.asarray(similarity).tolist(),
        "weights": {str(n): simplex.weight_vector(n).tolist() for n in range(simplex.N + 1)},
    }


def read_weights(path) -> simplices.StructuralSimplex:
    """The weighted simplex of a weights file written by ``complex`` or ``run``."""
    payload = read_json(path)
    with parsing(f"{path}: malformed weights file"):
        N = integer(payload["num_vertices"], "num_vertices") - 1
        weights = tuple(number_array(payload["weights"][str(n)], "weights") for n in range(N + 1))
        return simplices.StructuralSimplex(N=N, weights=weights)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _require_output_parent(path) -> None:
    """Exit 3 before any work, naming ``path``, if its parent directory is missing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"{path}: output directory {parent} does not exist")


def _refuse_other_requests(outdir, patterns, ours) -> None:
    """Exit 3, naming the entry, if ``outdir`` holds an entry that one of the
    command's name ``patterns`` matches but that is not among ``ours``, the
    paths this request writes: it would outlive the request beside its outputs.
    The entries of a matched directory must be ``ours`` too. Nothing is deleted.
    Exit 3 too if ``outdir`` exists but is not a directory.
    """
    if os.path.lexists(outdir) and not os.path.isdir(outdir):
        raise NotADirectoryError(f"{outdir}: exists and is not a directory")
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns):
            path = os.path.join(outdir, name)
            inner = sorted(os.listdir(path)) if os.path.isdir(path) else ()
            for entry in (name, *(os.path.join(name, child) for child in inner)):
                if entry not in ours:
                    raise FileExistsError(f"{os.path.join(outdir, entry)}: left by another request")


def cmd_estimate(args) -> int:
    _require_output_parent(args.output)
    config = PipelineConfig(input=args.input, kind=args.kind)
    config.validate()
    model = _estimate_model(config, _read_table(config))
    dist_mod.write_model(args.output, model)
    return EXIT_OK


def cmd_complex(args) -> int:
    _require_output_parent(args.output)
    config = PipelineConfig(input=args.distribution, metric=args.metric,
                            aggregator=args.aggregator)
    config.validate()
    model = dist_mod.read_model(args.distribution)
    if args.boundaries_dir:
        _refuse_other_requests(args.boundaries_dir, ("boundary_*.csv",),
                               {f"boundary_{n}.csv" for n in range(model.num_variables)})
    similarity = infotheory.similarity_matrix(infotheory.EntropyOracle(model), config.metric)
    simplex = simplices.structural_weights(similarity, config.aggregator)
    write_json(args.output, _weights_payload(simplex, similarity, config))
    if args.boundaries_dir:
        os.makedirs(args.boundaries_dir, exist_ok=True)
        for n in range(simplex.N + 1):
            path = os.path.join(args.boundaries_dir, f"boundary_{n}.csv")
            simplices.boundary_to_csv(path, simplex.N, n)
    return EXIT_OK


def cmd_signals(args) -> int:
    measures = infotheory.resolved_measures(args.measures)
    oracle = infotheory.EntropyOracle(dist_mod.read_model(args.distribution))
    N = oracle.num_variables - 1
    dims = simplices.resolved_dimensions(args.dimensions, N)
    names = {(n, measure): f"signal_{measure.value}_dim{n}.json"
             for n in dims for measure in measures}
    _refuse_other_requests(args.output_dir, ("signal_*_dim*.json",), set(names.values()))
    with _incomplete_marker(args.output_dir):
        for (n, measure), name in names.items():
            signal = transform.build_signal(oracle, n, measure)
            transform.write_signal(os.path.join(args.output_dir, name), signal,
                                   num_vertices=N + 1)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    simplex = read_weights(args.weights)
    dims = simplices.resolved_dimensions(args.dimensions, simplex.N)
    # diagnostics_dim<n>.json held a basis's residuals before they moved into its header.
    _refuse_other_requests(args.output_dir, ("basis_dim*", "diagnostics_dim*"),
                           {f"basis_dim{n}{end}" for n in dims
                            for end in (".json", "_eigenvectors.npy")})
    with _incomplete_marker(args.output_dir):
        for n in dims:
            basis = spectral.fourier_basis(simplex, n)
            write_basis(os.path.join(args.output_dir, f"basis_dim{n}.json"), basis,
                        spectral.basis_diagnostics(simplex, basis))
    return EXIT_OK


def cmd_transform(args) -> int:
    _require_output_parent(args.output)
    signal = transform.read_signal(args.signal)
    basis = read_basis(args.basis)
    if args.inverse:
        result = transform.from_fourier(signal, basis)
    else:
        result = transform.to_fourier(signal, basis)
    transform.write_signal(args.output, result)
    return EXIT_OK


def cmd_cev(args) -> int:
    _require_output_parent(args.output_prefix)
    signal = transform.read_signal(args.signal)
    report = transform.cev_report(signal)
    transform.cev_to_json(args.output_prefix + ".json", report)
    return EXIT_OK


def cmd_control_synth(args) -> int:
    _, dims, measures = synth.check_experiment(args.ranks, args.replicates, args.samples,
                                               args.size, args.dimensions, args.measures)
    outdir = args.output_dir
    # Both write manifest.json: a run tree here would lose its own.
    _refuse_other_requests(outdir, ("dim_*", "distribution*", "weights.json", "components.csv"),
                           set())
    with _incomplete_marker(outdir):
        result = synth.rank_experiment(
            ranks=args.ranks,
            replicates=args.replicates,
            num_samples=args.samples,
            base_seed=args.seed,
            size=args.size,
            dimensions=dims,
            measures=measures,
        )
        result.to_csv(os.path.join(outdir, "rank_cev.csv"))
        manifest = dict(result.manifest)
        manifest["versions"] = _versions()
        write_json(os.path.join(outdir, "manifest.json"), manifest)
    return EXIT_OK


def cmd_run(args) -> int:
    given = {key: getattr(args, key) for key in _CONFIG_PARSERS if getattr(args, key) is not None}
    if args.manifest:
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            raise ValidationError(f"--manifest replays a run exactly; it cannot take {flags}")
        given = _load_manifest_config(args.manifest)
    config = PipelineConfig(**given)
    config.validate()

    # Every size limit is checked on the table, before any estimation, and the
    # output directory is made only once the model and the weights are built.
    table = _read_table(config)
    config.dimensions = simplices.resolved_dimensions(config.dimensions, table.num_variables - 1)
    outdir = args.output_dir
    files = ["diagnostics.json", *(f"{kind}_{name}_{tag}.json" for kind in ("signal", "cev")
                                   for name in config.measures for tag in ("canonical", "fourier"))]
    ours = {path for n in config.dimensions
            for path in (f"dim_{n}", *(os.path.join(f"dim_{n}", name) for name in files))}
    if config.kind == "discrete":
        ours |= {"distribution_outcomes.npy", "distribution_masses.npy"}
    # rank_cev.csv marks a control-synth tree, whose manifest.json this would replace.
    _refuse_other_requests(outdir, ("dim_*", "distribution_*.npy", "rank_cev.csv"), ours)
    model = _estimate_model(config, table)
    del table  # dead before the first Laplacian
    _run_pipeline(config, model, outdir)
    return EXIT_OK


@contextlib.contextmanager
def _incomplete_marker(outdir):
    """Create ``outdir`` with an INCOMPLETE marker that is removed only if the body succeeds."""
    os.makedirs(outdir, exist_ok=True)
    marker = os.path.join(outdir, INCOMPLETE_MARKER)
    with open(marker, "w", newline="\n") as fh:
        fh.write("run in progress or failed; outputs may be partial\n")
    yield
    os.remove(marker)


def _run_pipeline(config: PipelineConfig, model, outdir) -> None:
    oracle = infotheory.EntropyOracle(model)
    similarity = infotheory.similarity_matrix(oracle, config.metric)
    simplex = simplices.structural_weights(similarity, config.aggregator)
    with _incomplete_marker(outdir):
        dist_mod.write_model(os.path.join(outdir, "distribution.json"), model)
        write_json(os.path.join(outdir, "weights.json"),
                   _weights_payload(simplex, similarity, config))

        components_rows = [row for n in sorted(config.dimensions)
                           for row in _run_dimension(config, oracle, simplex, n, outdir)]

        with csv_writer(os.path.join(outdir, "components.csv")) as writer:
            writer.writerow(["measure", "dimension", "threshold_pct", "fourier_k", "canonical_k",
                             "random_k"])
            writer.writerows(components_rows)

        manifest = {"tree_format": TREE_FORMAT, "config": asdict(config), "versions": _versions()}
        write_json(os.path.join(outdir, "manifest.json"), manifest)


def _run_dimension(config: PipelineConfig, oracle, simplex, n: int, outdir) -> list:
    """Write ``dim_<n>`` of a run and return its ``components.csv`` rows.

    One measure's signal pair is alive at a time; the basis dies on return,
    before the next dimension is assembled.
    """
    dim_dir = os.path.join(outdir, f"dim_{n}")
    os.makedirs(dim_dir, exist_ok=True)
    basis = spectral.fourier_basis(simplex, n)
    diagnostics = spectral.basis_diagnostics(simplex, basis)

    null = transform.random_null(basis.weights.size)
    cev_status, rows = {}, []
    for signal, report in transform.measure_reports(oracle, basis, config.measures):
        key = f"{signal.measure.value}_{signal.basis}"
        transform.write_signal(os.path.join(dim_dir, f"signal_{key}.json"), signal,
                               num_vertices=simplex.N + 1)
        cev_path = os.path.join(dim_dir, f"cev_{key}.json")
        if signal.basis == transform.CANONICAL:
            canonical = report
        if isinstance(report, NumericalError):
            cev_status[key] = str(report)
            # An earlier request's CEV file would contradict this status.
            with contextlib.suppress(FileNotFoundError):
                os.remove(cev_path)
            continue
        cev_status[key] = "ok"
        transform.cev_to_json(cev_path, report)
        if signal.basis == transform.FOURIER and isinstance(canonical, transform.CevReport):
            rows += [[signal.measure.value, n, int(round(threshold * 100)),
                      report.components_at[threshold], canonical.components_at[threshold],
                      null.components_at[threshold]]
                     for threshold in transform.CEV_THRESHOLDS]
    diagnostics.update(eigenvalues=basis.eigenvalues.tolist(), cev_status=cev_status)
    write_json(os.path.join(dim_dir, "diagnostics.json"), diagnostics)
    return rows


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_settings(parser, *keys, unset: bool = False) -> None:
    """Add a ``--key`` flag per ``run`` setting, parsed as its manifest value.

    Each defaults to the ``PipelineConfig`` default, or to None with ``unset``
    so that ``run`` can tell which flags were given.
    """
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), type=_CONFIG_PARSERS[key],
                            choices=_CHOICES.get(key),
                            default=None if unset else getattr(PipelineConfig, key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperharmonic",
        description="Spectral compression of high-order information signals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate a distribution or copula model from CSV")
    p.add_argument("--input", required=True)
    _add_settings(p, "kind")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("complex", help="build the structural simplex weights")
    p.add_argument("--distribution", required=True)
    _add_settings(p, "metric", "aggregator")
    p.add_argument("--output", required=True)
    p.add_argument("--boundaries-dir", default=None)
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("signals", help="sweep measures into canonical signals")
    p.add_argument("--distribution", required=True)
    _add_settings(p, "dimensions", "measures")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_signals)

    p = sub.add_parser("spectrum", help="diagonalize Laplacians into Fourier bases")
    p.add_argument("--weights", required=True)
    _add_settings(p, "dimensions")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transform", help="change a signal between bases")
    p.add_argument("--signal", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("cev", help="cumulative explained variance of a signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=cmd_cev)

    p = sub.add_parser("control-synth", help="rank-controlled synthetic experiment")
    p.add_argument("--ranks", type=_parse_int_list, default=(2, 9))
    p.add_argument("--replicates", type=int, default=synth.DEFAULT_REPLICATES)
    p.add_argument("--samples", type=int, default=synth.DEFAULT_SAMPLES)
    p.add_argument("--size", type=int, default=synth.DEFAULT_SIZE)
    _add_settings(p, "dimensions", "measures")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR)
    p.set_defaults(func=cmd_control_synth)

    p = sub.add_parser("run", help="full pipeline into an output directory")
    _add_settings(p, *_CONFIG_PARSERS, unset=True)
    p.add_argument("--manifest", default=None, help="replay a previous run exactly")
    p.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
