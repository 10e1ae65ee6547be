"""The benchmark's tracer binds package functions and methods by name: a
renamed or removed one breaks every traced benchmark run. These tests load
``perfbench/tracer.py`` as the benchmark does and trace the four commands."""

import importlib.util
import json
import sys
from pathlib import Path

from durrmeyer import operators as O
from durrmeyer.cli import main

ROOT = Path(__file__).resolve().parents[1]
# Reported by the benchmark worker itself, not by the tracer.
WORKER_METRICS = {"cli.output_bytes", "trace.overhead_ratio"}


def load_tracer(monkeypatch):
    # Keep the benchmark directory free of bytecode caches.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer_module) -> dict:
    """Every attribute the tracer may patch, by (owner, name)."""
    owners = (*tracer_module.MODULES, O.SeriesEvaluator, O.OperatorSpec)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracing_the_four_commands_restores_every_binding(tmp_path, monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    before = bindings(tracer_module)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phi": {"family": "bspline", "n": 2},
        "psi": {"kind": "window", "lo": 0, "hi": 1},
        "signal": "box", "w_list": [5], "window": [-2, 2], "grid_step": 0.05,
        "orlicz": [{"variant": "power", "p": 2, "lambda": 1}],
    }))
    tracer = tracer_module.Tracer()
    try:
        # Inside the try: a start that fails part way is undone too.
        tracer.start()
        for command in ("reconstruct", "converge", "orlicz", "kernel-check"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        tracer.stop()
    after = bindings(tracer_module)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tracer.metrics()
    assert set(metrics) == {metric["name"] for metric in declared} - WORKER_METRICS
    assert metrics["cli.orlicz.s"][0] > 0.0


def test_a_configured_phi_is_traced(tmp_path, monkeypatch):
    # The CLI must call the kernel factory bound on ``kernels`` when it
    # builds phi, not one captured at import, or the tracer sees no phi.
    tracer_module = load_tracer(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phi": {"family": "bspline", "n": 2}, "psi": {"kind": "pointmass"},
        "signal": "box", "w_list": [5], "window": [-2, 2], "grid_step": 0.05,
    }))
    tracer = tracer_module.Tracer()
    try:
        tracer.start()
        assert main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.stop()
    assert tracer.metrics()["kernels.evaluate.values"][0] > 0
