"""Benchmark of the hyperharmonic CLI, run from the root of a checkout.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed and written to files before
any timing starts. Then, for S seconds, the benchmark runs the workload's CLI
command again and again, one at a time, each in a fresh child process (closed
loop, one client), and checks every output tree. BLAS keeps its default
thread count.

``--trace 0`` reports the end-to-end metrics: median wall time, peak RSS and
output size of the command, and the median set-up time of a fresh interpreter
importing ``hyperharmonic.cli``. ``--trace 1`` alternates plain and traced
commands (see traced_cli.py) and reports per-layer metrics from the traced
ones, with the tracing overhead.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
(a non-zero exit or a failed check) and ``metrics``. The line before it is a
record of the run: machine, every command's figures and check notes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import FULL, WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 120.0

MACHINE_PROBE = r"""
import ctypes, glob, json, os, platform
import hyperharmonic.cli
import numpy, scipy
blas, threads = "unknown", None
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except Exception:
    pass
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
print(json.dumps({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                  "blas": blas, "blas_threads": threads, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, int, object]:
    """Run one child to completion; return its wall seconds, exit code and rusage."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage


def probe_machine(env: dict) -> dict:
    """Import the program once in a fresh interpreter and describe the machine.

    This is also the check that the program is present: without it the
    benchmark stops before printing any result.
    """
    proc = subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=env, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import hyperharmonic.cli from {SRC}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def time_setup(env: dict, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to a finished ``import hyperharmonic.cli``."""
    wall, code, _ = spawn([sys.executable, "-c", "import hyperharmonic.cli"], env,
                          workdir / "setup_stderr.txt")
    if code != 0:
        raise RuntimeError(f"importing hyperharmonic.cli exited {code}")
    return wall


def tree_size(path: Path) -> tuple[int, int]:
    files = nbytes = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(dirpath, name))
    return files, nbytes


def run_command(workload, ctx: dict, workdir: Path, env: dict, index: int, traced: bool) -> dict:
    out = workdir / f"out{index}"
    trace_path = workdir / f"trace{index}.json"
    stderr_path = workdir / f"stderr{index}.txt"
    cli_args = [*ctx["args"], "--output-dir", str(out)]
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *cli_args]
    else:
        argv = [sys.executable, "-m", "hyperharmonic.cli", *cli_args]
    wall, code, usage = spawn(argv, env, stderr_path)
    files, nbytes = tree_size(out)
    op = {"traced": traced, "exit": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
          "output_mb": nbytes / 1e6, "files": files}
    if code != 0:
        op["error"] = f"exit {code}: " + stderr_path.read_text(errors="replace")[-2000:]
    else:
        try:
            op["check"] = workload.check(out, ctx)
        except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            op["error"] = f"check failed: {type(exc).__name__}: {exc}"
    if traced and trace_path.exists():
        op["trace"] = json.loads(trace_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    return op


def layer_metrics(op: dict) -> dict:
    """Per-layer figures of one traced command."""
    spans, counts = op["trace"]["spans"], op["trace"]["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    entropy_calls = counts.get("infotheory.entropy_calls", 0)
    misses = calls("distribution.marginalize") + calls("distribution.gaussian_entropy")
    return {
        "distribution.read_s": total("distribution.read"),
        "distribution.estimate_s": total("distribution.estimate"),
        "distribution.support_size": counts.get("distribution.support_size", 0),
        "distribution.marginalize_calls": calls("distribution.marginalize"),
        "distribution.marginalize_s": total("distribution.marginalize"),
        "distribution.gaussian_entropy_calls": calls("distribution.gaussian_entropy"),
        "distribution.gaussian_entropy_s": total("distribution.gaussian_entropy"),
        "infotheory.entropy_calls": entropy_calls,
        "infotheory.entropy_hit_ratio": 1.0 - misses / entropy_calls if entropy_calls else 0.0,
        "infotheory.oracles_built": counts.get("infotheory.oracles_built", 0),
        "infotheory.sweep_s": total("infotheory.sweep"),
        "infotheory.sweep_self_s": spans.get("infotheory.sweep", {}).get("self_s", 0.0),
        "simplices.similarity_s": total("simplices.similarity"),
        "simplices.weights_s": total("simplices.weights"),
        "simplices.boundary_calls": calls("simplices.boundary"),
        "simplices.boundary_s": total("simplices.boundary"),
        "spectral.laplacian_s": total("spectral.laplacian"),
        "spectral.eigensolve_s": total("spectral.eigensolve"),
        "spectral.eigensolve_calls": calls("spectral.eigensolve"),
        "spectral.max_dim": counts.get("spectral.max_dim", 0),
        "transform.to_fourier_s": total("transform.to_fourier"),
        "transform.cev_s": total("transform.cev"),
        "synth.draw_s": total("synth.draw"),
        "synth.replicates": counts.get("synth.replicates", 0),
        "cli.serialize_s": total("cli.serialize") + total("cli.basis_write"),
        "cli.basis_write_s": total("cli.basis_write"),
        "cli.bytes_written": round(op["output_mb"] * 1e6),
        "cli.files_written": op["files"],
        "trace.unattributed_s": spans.get("cli.main", {}).get("self_s", 0.0),
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def self_time_breakdown(traced: list[dict]) -> dict:
    names = sorted({name for op in traced for name in op["trace"]["spans"]})
    return {
        name: statistics.median(op["trace"]["spans"].get(name, {}).get("self_s", 0.0)
                                for op in traced)
        for name in names
    }


def measure(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    env = child_env()
    load_before = os.getloadavg()
    machine = probe_machine(env)
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = workload.prepare(workdir, args.seed, FULL)
        setup: list[float] = []
        ops: list[dict] = []
        deadline = time.perf_counter() + args.seconds
        # At least one plain command, and one traced command when tracing.
        while len(ops) < 1 + args.trace or time.perf_counter() < deadline:
            if not args.trace and len(setup) < SETUP_SAMPLES:
                # Set-up samples are spread over the run, between commands, so
                # they see the same machine load; their time is not run time.
                setup.append(time_setup(env, workdir))
                deadline += setup[-1]
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(run_command(workload, ctx, workdir, env, len(ops), traced))
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(time_setup(env, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"] and "trace" in op]
    if args.trace:
        if not traced:
            raise RuntimeError("no traced command wrote a trace")
        per_op = [layer_metrics(op) for op in traced]
        # The low median keeps counts whole when the traced commands are even.
        metrics = {name: statistics.median_low(row[name] for row in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": median_of(plain, "wall_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "output_mb": median_of(plain, "output_mb"),
            "setup_s": statistics.median(setup),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MiB", "output_mb": "MB", "setup_s": "s"}
    failed = sum(1 for op in ops if "error" in op)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**machine, "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "setup_s": setup,
        "commands": [{k: v for k, v in op.items() if k != "trace"} for op in ops],
    }
    if traced:
        breakdown = self_time_breakdown(traced)
        record["self_s"] = breakdown
        record["top_self_layer"] = max((n for n in breakdown if n != "cli.main"),
                                       key=breakdown.get, default=None)
        record["missing_bindings"] = traced[0]["trace"]["missing"]
    return record, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hyperharmonic" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'hyperharmonic'}", file=sys.stderr)
        return 2
    try:
        record, result = measure(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
