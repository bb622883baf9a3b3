"""Self-test of the benchmark: each workload at a tiny scale, then corrupted.

    python3 bench/selftest.py

For every workload this runs the CLI command once plainly and once through
traced_cli.py, requires both output checks to pass and the trace to bind every
layer function, then corrupts one output value at a time and requires the
check to fail. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from run_bench import WORK_ROOT, child_env, layer_metrics, probe_machine, run_command, spawn
from workloads import TINY, WORKLOADS, CheckFailed

SEED = 0


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _bump_coefficient(path: Path, delta: float):
    def corrupt(outdir: Path):
        def edit(payload):
            payload["coefficients"][0] += delta
        _edit_json(outdir / path, edit)
    return corrupt


def _set_residual(outdir: Path) -> None:
    def edit(payload):
        payload["orthonormality"] = 1e-6
    _edit_json(outdir / "dim_3" / "diagnostics.json", edit)


def _dent_cev_curve(outdir: Path) -> None:
    path = outdir / "rank_cev.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][4] = repr(float(rows[1][4]) - 0.01)  # second point below the first
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


CORRUPTIONS = {
    "discrete-v11": {
        "o_information entry off by 1e-8 bits":
            _bump_coefficient(Path("dim_2/signal_o_information_canonical.json"), 1e-8),
        "fourier coefficient breaks Parseval":
            _bump_coefficient(Path("dim_3/signal_s_information_fourier.json"), 1e-3),
        "orthonormality residual 1e-6": _set_residual,
    },
    "rank-synth-10": {
        "mean CEV curve decreases": _dent_cev_curve,
    },
}


def run_workload(name: str, workdir: Path, env: dict) -> list[str]:
    failures = []
    workload = WORKLOADS[name]
    ctx = workload.prepare(workdir, SEED, TINY)
    for traced in (False, True):
        op = run_command(workload, ctx, workdir, env, int(traced), traced)
        if "error" in op:
            failures.append(f"{name} (traced={traced}): {op['error']}")
        if traced and "trace" in op:
            if op["trace"]["missing"]:
                failures.append(f"{name}: trace could not bind {op['trace']['missing']}")
            metrics = layer_metrics(op)
            if not (metrics["infotheory.entropy_calls"] and metrics["spectral.eigensolve_calls"]):
                failures.append(f"{name}: trace counted no entropy calls or eigensolves")

    out = workdir / "corrupt"
    argv = [*ctx["args"], "--output-dir", str(out)]
    for label, corrupt in CORRUPTIONS[name].items():
        shutil.rmtree(out, ignore_errors=True)
        _, code, _ = spawn([sys.executable, "-m", "hyperharmonic.cli", *argv], env,
                           workdir / "corrupt_stderr.txt")
        if code != 0:
            failures.append(f"{name}: command for corruption case exited {code}")
            continue
        corrupt(out)
        try:
            workload.check(out, ctx)
        except CheckFailed as exc:
            print(f"ok   {name}: {label} -> check failed as it should ({exc})")
        else:
            failures.append(f"{name}: check passed despite corruption '{label}'")
    return failures


def main() -> int:
    env = child_env()
    probe_machine(env)
    failures = []
    for name in WORKLOADS:
        workdir = WORK_ROOT / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            found = run_workload(name, workdir, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not found:
            print(f"ok   {name}: plain and traced outputs pass their check")
        failures += found
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
