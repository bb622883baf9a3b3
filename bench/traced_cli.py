"""Run the hyperharmonic CLI with timing wrappers around each layer.

    python3 bench/traced_cli.py TRACE_JSON CLI_ARG...

Each wrapped function is replaced where its caller looks it up: ``cli`` calls
through module attributes (``spectral.laplacian``), while ``synth`` and
``transform`` bind names by ``from`` import, so those bindings are patched in
the importing module. A name the program no longer has is skipped and listed
under ``missing`` in the trace.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds) and written to TRACE_JSON once the command returns. Self time is a
span's duration minus the time its child spans cover. The whole command is the
``cli.main`` span, so its self time is the time no layer span accounts for.
The entropy-oracle wrappers only count calls: a timer around each of
hundreds of thousands of cache lookups would itself be a large share of the
sweep it is meant to explain.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

_clock = time.perf_counter

# (module, attribute, span name). Several entries may wrap one function under
# different bindings; each binding gets its own wrapper.
SPANS = (
    ("distribution", "read_discrete_csv", "distribution.read"),
    ("distribution", "read_continuous_csv", "distribution.read"),
    ("distribution", "estimate_empirical", "distribution.estimate"),
    ("distribution", "copula_gaussian_fit", "distribution.estimate"),
    ("synth", "copula_gaussian_fit", "distribution.estimate"),
    ("distribution", "marginalize", "distribution.marginalize"),
    ("distribution", "gaussian_entropy_nats", "distribution.gaussian_entropy"),
    ("transform", "signal_sweep", "infotheory.sweep"),
    ("infotheory", "signal_sweep", "infotheory.sweep"),
    ("simplices", "similarity_matrix", "simplices.similarity"),
    ("synth", "similarity_matrix", "simplices.similarity"),
    ("simplices", "structural_weights", "simplices.weights"),
    ("synth", "structural_weights", "simplices.weights"),
    ("spectral", "boundary_matrix", "simplices.boundary"),
    ("simplices", "boundary_matrix", "simplices.boundary"),
    ("spectral", "laplacian", "spectral.laplacian"),
    ("synth", "laplacian", "spectral.laplacian"),
    ("spectral", "fourier_basis", "spectral.eigensolve"),
    ("synth", "fourier_basis", "spectral.eigensolve"),
    ("transform", "to_fourier", "transform.to_fourier"),
    ("synth", "to_fourier", "transform.to_fourier"),
    ("transform", "cev_report", "transform.cev"),
    ("synth", "_cev_curve", "transform.cev"),
    ("synth", "random_rank_covariance", "synth.draw"),
    ("synth", "sample_gaussian", "synth.draw"),
    ("cli", "basis_to_jsonable", "cli.basis_write"),
    ("distribution", "write_model", "cli.serialize"),
    ("simplices", "weights_to_csv", "cli.serialize"),
    ("infotheory", "sweep_to_csv", "cli.serialize"),
    ("transform", "write_signal", "cli.serialize"),
    ("transform", "cev_to_csv", "cli.serialize"),
    ("transform", "cev_to_json", "cli.serialize"),
    ("cli", "_write_similarity_csv", "cli.serialize"),
    ("cli", "_write_eigenvalues_csv", "cli.serialize"),
    ("cli", "_write_component_csv", "cli.serialize"),
    ("synth", "RankExperimentResult.to_csv", "cli.serialize"),
)

# (module, attribute, counter name): call counts without timing.
COUNTERS = (
    ("infotheory", "EntropyOracle.entropy", "infotheory.entropy_calls"),
    ("infotheory", "EntropyOracle.__init__", "infotheory.oracles_built"),
    ("synth", "random_rank_covariance", "synth.replicates"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._children: list[list[float]] = []  # child seconds of each open span

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children[0]
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_jsonable(self) -> dict:
        return {
            "spans": {name: {"calls": int(c), "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
        }


def _patch(tracer: Tracer, module_name: str, attr: str, make) -> None:
    owner = importlib.import_module(f"hyperharmonic.{module_name}")
    *parents, leaf = attr.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    fn = getattr(owner, leaf, None) if owner is not None else None
    if fn is None:
        tracer.missing.append(f"{module_name}.{attr}")
        return
    setattr(owner, leaf, make(fn))


def _record_support(tracer: Tracer):
    def on_result(args, model):
        # Discrete: outcomes with positive mass. Gaussian copula: every fitted
        # row is a distinct point, so the fitted row count.
        support = getattr(model, "support_size", None)
        if callable(support):
            tracer.add("distribution.support_size", support())
        elif args and hasattr(args[0], "num_samples"):
            tracer.add("distribution.support_size", args[0].num_samples)
    return on_result


def _record_dim(tracer: Tracer):
    def on_result(args, basis):
        size = len(getattr(basis, "eigenvalues", ()))
        tracer.counts["spectral.max_dim"] = max(tracer.counts.get("spectral.max_dim", 0), size)
    return on_result


def install(tracer: Tracer):
    """Patch every layer binding; return the traced ``cli.main``."""
    cli = importlib.import_module("hyperharmonic.cli")
    hooks = {"distribution.estimate": _record_support(tracer),
             "spectral.eigensolve": _record_dim(tracer)}
    for module_name, attr, name in SPANS:
        _patch(tracer, module_name, attr,
               lambda fn, name=name: tracer.timed(name, fn, hooks.get(name)))
    for module_name, attr, name in COUNTERS:
        _patch(tracer, module_name, attr, lambda fn, name=name: tracer.counted(name, fn))

    write_json = cli.write_json
    basis_writer = tracer.timed("cli.basis_write", write_json)
    other_writer = tracer.timed("cli.serialize", write_json)

    def traced_write_json(path, payload):
        writer = basis_writer if os.path.basename(path) == "basis.json" else other_writer
        return writer(path, payload)

    cli.write_json = traced_write_json
    return tracer.timed("cli.main", cli.main)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_jsonable(), fh)


if __name__ == "__main__":
    sys.exit(main())
