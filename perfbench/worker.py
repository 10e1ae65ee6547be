"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources
and ``DURRMEYER_THREADS`` pinned. Timed passes run with tracing off until
the time budget is spent. Then, outside the timed region, the first pass's
artifacts are checked against the oracles and every later pass must match
them byte for byte. With ``--trace 1`` one more pass runs under the tracer,
and its artifacts must match the untraced ones byte for byte.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import oracle
import workloads
from durrmeyer import cli


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(steps, configs, out_dir: Path) -> tuple:
    """One pass of the workload; returns (wall s, cpu s, exit code per step)."""
    codes = {}
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for name, argv, stem in steps:
        step_dir = out_dir / name
        if argv is None:
            workloads.luxemburg_step(configs[stem], step_dir)
            codes[name] = 0
        else:
            codes[name] = cli.main(argv + ["--out", str(step_dir)])
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, codes


def snapshot(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class Verdicts:
    """Problems per pass and step: a nonzero exit code or an oracle miss.

    A step whose exit code and artifact bytes match its first pass gets that
    pass's verdict without a re-check; one that differs is checked on its own
    and also fails as nondeterministic.
    """

    def __init__(self, steps, configs):
        self.steps = steps
        self.configs = configs
        self.failed = {}
        self.deviation = {}  # largest program-oracle deviation per step
        self._first = {}

    def add(self, label, out_dir: Path, codes: dict) -> dict:
        files = snapshot(out_dir)
        for name, _, stem in self.steps:
            outcome = (codes[name], {path: blob for path, blob in files.items()
                                     if path.startswith(name + "/")})
            first = self._first.get(name)
            if first is not None and outcome == first[0]:
                problems = first[1]
            else:
                problems = self._check(name, stem, out_dir, codes[name])
                if first is None:
                    self._first[name] = (outcome, problems)
                else:
                    problems.append("artifacts differ from the first pass")
            if problems:
                self.failed[f"{label}/{name}"] = problems
        return files

    def _check(self, name, stem, out_dir: Path, code: int) -> list:
        if code != 0:
            return [f"exit code {code}"]
        problems, deviation = oracle.check_step(name, self.configs[stem], out_dir / name)
        self.deviation[name] = max(deviation, self.deviation.get(name, 0.0))
        return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()

    config_paths = {p.stem: p for p in sorted((args.dir / "configs").glob("*.json"))}
    configs = {stem: json.loads(p.read_text()) for stem, p in config_paths.items()}
    steps = workloads.steps(args.workload, config_paths)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        out_dir = args.dir / f"pass-{len(passes)}"
        passes.append((out_dir,) + run_pass(steps, configs, out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = Verdicts(steps, configs)
    for i, (out_dir, _, _, codes) in enumerate(passes):
        files = verdicts.add(f"pass-{i}", out_dir, codes)
        if i == 0:
            output_bytes = sum(len(blob) for blob in files.values())
        shutil.rmtree(out_dir)
    walls = [p[1] for p in passes]
    result = {
        "passes": len(passes),
        "attempted": len(passes) * len(steps),
        "walls": walls,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p[2] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": output_bytes,
        "failed_steps": verdicts.failed,
        "oracle_deviation": verdicts.deviation,
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        out_dir = args.dir / "traced"
        tracer.start()
        try:
            traced_wall, _, codes = run_pass(steps, configs, out_dir)
        finally:
            tracer.stop()
        result["attempted"] += len(steps)
        verdicts.add("traced", out_dir, codes)
        shutil.rmtree(out_dir)
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = (result["output_bytes"], "bytes")
        metrics["trace.overhead_ratio"] = (traced_wall / result["wall_s"], "ratio")
        result["per_layer"] = metrics
        _, edges = tracer.records()
        result["call_edges"] = sorted(
            ([parent or "-", name, record.calls, record.total]
             for (parent, name), record in edges.items()),
            key=lambda edge: -edge[3])

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
