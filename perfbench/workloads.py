"""The three benchmark workloads: seeded configs and the steps of one pass.

Each workload is a closed loop: one client issues its steps one after
another in a single process. A step is a CLI command run through
``durrmeyer.cli.main`` or, for ``orlicz_matrix``, one library call. The seed
only shifts each window by a sub-step offset. The grid workloads therefore
do the same work for every seed; on the modular window the adaptive
quadrature's work varies by a few percent.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

UNIT_WINDOW = {"kind": "window", "lo": 0, "hi": 1, "weight": 1}
GRID_STEP = 0.01
MODULAR_GAUGES = (
    {"variant": "power", "p": 1},
    {"variant": "power", "p": 2},
    {"variant": "zygmund", "alpha": 1, "beta": 1},
)
# Box cells cost about 0.01s each, so box keeps the full lambda set of the
# modular-inequality criterion. A piecewise_rational cell costs 0.5-1.4s, so
# that signal keeps one lambda and a pass stays near five seconds.
BOX_LAMBDAS = (0.25, 0.5, 1.0)
RATIONAL_LAMBDAS = (0.5,)
LUXEMBURG_SCALES = (5.0, 10.0)

NAMES = ("fejer_grid", "spline_ladder", "orlicz_matrix")


def offset(seed: int) -> float:
    """The seed's sub-step fraction in [0, 1)."""
    return random.Random(seed).random()


def configs(name: str, seed: int) -> dict:
    """Config dicts of one workload, by file stem."""
    frac = offset(seed)
    grid_window = [-3.0 + frac * GRID_STEP, 3.0 + frac * GRID_STEP]
    if name == "fejer_grid":
        return {"fejer": {
            "phi": {"family": "fejer"}, "psi": UNIT_WINDOW, "signal": "runge",
            "w_list": [5, 10], "window": grid_window, "grid_step": GRID_STEP,
            "tolerances": {"series_tol": 1e-4},
        }}
    if name == "spline_ladder":
        return {"spline": {
            "phi": {"family": "bspline", "n": 3}, "psi": UNIT_WINDOW, "signal": "runge",
            "w_list": [5 * 2**i for i in range(11)], "window": grid_window,
            "grid_step": GRID_STEP,
            "orlicz": [{"variant": "power", "p": 2, "lambda": 1},
                       {"variant": "zygmund", "alpha": 1, "beta": 1, "lambda": 0.5}],
        }}
    if name == "orlicz_matrix":
        modular_window = [-8.0 + frac, 8.0 + frac]
        out = {}
        for signal, lambdas in (("box", BOX_LAMBDAS), ("piecewise_rational", RATIONAL_LAMBDAS)):
            out[signal] = {
                "phi": {"family": "bspline", "n": 2}, "psi": UNIT_WINDOW, "signal": signal,
                "w_list": [5, 10], "window": modular_window,
                "orlicz": [dict(gauge, **{"lambda": lam})
                           for gauge in MODULAR_GAUGES for lam in lambdas],
            }
        return out
    raise ValueError(f"unknown workload {name!r}")


def write_configs(name: str, seed: int, directory: Path) -> dict:
    """Write the workload's configs as JSON files; returns stem -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, config in configs(name, seed).items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        paths[stem] = path
    return paths


def steps(name: str, config_paths: dict) -> list:
    """(step name, CLI argv or None, config stem) for one pass, in order.

    Each step writes into its own subdirectory of the pass directory. A step
    with argv ``None`` is the library step ``luxemburg``.
    """
    if name == "fejer_grid":
        return [("reconstruct", ["reconstruct", "--config", str(config_paths["fejer"])], "fejer")]
    if name == "spline_ladder":
        cfg = str(config_paths["spline"])
        return [("kernel-check", ["kernel-check", "--config", cfg], "spline"),
                ("converge", ["converge", "--config", cfg], "spline")]
    if name == "orlicz_matrix":
        return [("orlicz-box", ["orlicz", "--config", str(config_paths["box"])], "box"),
                ("orlicz-piecewise_rational",
                 ["orlicz", "--config", str(config_paths["piecewise_rational"])],
                 "piecewise_rational"),
                ("luxemburg", None, "box")]
    raise ValueError(f"unknown workload {name!r}")


def luxemburg_step(config: dict, out_dir: Path):
    """Luxemburg norm under power(2) of the box reconstruction at each scale.

    The package is imported here, not at module level, because ``run.py``
    imports this module and must not load the package itself. Functions are
    looked up on their modules at call time, so the tracer sees them.
    """
    from durrmeyer import kernels, operators, orlicz, signals

    box = signals.builtin_signal("box")
    window = tuple(config["window"])
    norms = {}
    for w in LUXEMBURG_SCALES:
        spec = operators.OperatorSpec(kernels.bspline(2), operators.Window(0.0, 1.0, 1.0), w)
        evaluator = operators.SeriesEvaluator(spec, box)
        norms[f"{w:g}"] = orlicz.luxemburg_norm(orlicz.PowerFunction(2), evaluator, window)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "luxemburg.json").write_text(
        json.dumps({"gauge": "power(2)", "window": list(window), "norms": norms},
                   indent=2, sort_keys=True) + "\n")
