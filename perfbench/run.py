"""Layered benchmark of the durrmeyer CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload fejer_grid --seed 1 --seconds 20 --trace 0

Writes the workload's seeded configs under ``.bench_out/``, times set-up in
fresh interpreters, runs the workload in a fresh worker process (see
``worker.py``), prints a table of every metric with its unit, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Everything it writes is removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
# Pool threads for grid passes; never more than the machine has.
THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150.0

_SETUP_CODE = """
import json, sys
from durrmeyer import cli
for path in sys.argv[1:]:
    with open(path) as f:
        cli.Experiment(json.load(f))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCES), str(BENCH_DIR)])
    env["DURRMEYER_THREADS"] = str(THREADS)
    # Numpy's own thread pool would compete with the package's pool threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "DURRMEYER_THREADS": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu}


def measure_setup(config_paths, env) -> list:
    """Seconds for a fresh interpreter to import the CLI and resolve the configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, *map(str, config_paths)],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def tail(values):
    """Highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return "max", ordered[-1]
    keep = len(ordered) - 10
    return f"p{100 * keep // len(ordered)}", ordered[keep - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCES / "durrmeyer" / "cli.py").is_file():
        print(f"no package sources under {SOURCES}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        config_paths = workloads.write_configs(args.workload, args.seed, work / "configs")
        env = child_env()
        setup = measure_setup(config_paths.values(), env)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(work)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = run["attempted"]
    failed = min(len(run["failed_steps"]), attempted)
    tail_label, tail_value = tail(run["walls"])
    info = {"workload": args.workload, "seed": args.seed,
            "window_offset": workloads.offset(args.seed), "passes": run["passes"],
            "walls": run["walls"], f"wall_s.{tail_label}": tail_value,
            "failed_ratio": failed / attempted,
            "failed_steps": run["failed_steps"], "oracle_deviation": run["oracle_deviation"],
            "env": environment()}
    print(json.dumps(info))

    if args.trace:
        metrics = run["per_layer"]
        for parent, name, calls, seconds in run["call_edges"]:
            print(f"  {parent:>40} -> {name:<40} {calls:>10} calls {seconds:10.4f} s")
    else:
        metrics = {
            "wall_s": (run["wall_s"], "s"),
            "cpu_s": (run["cpu_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        print(f"metrics {sorted(set(emitted.items()) ^ set(expected.items()))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:<48} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
