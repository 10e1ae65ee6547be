"""Command-line front end: configure kernels, signals, and operators from a
JSON file, run checks and studies, and emit CSV/JSON artifacts.

Output is locale-independent (dot decimals, newline-terminated rows, 17
significant digits) and byte-identical across runs and thread settings; the
resolved configuration is echoed into every JSON report for provenance.

Exit codes: 0 ok, 2 configuration error, 3 mathematical precondition
failure (divergent moment, non-bracketable norm), 4 runtime evaluation
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import kernels as _k
from . import operators as _o
from . import signals as _s
from .analysis import (
    convergence_study,
    verify_modular_inequality,
    verify_quantitative_bound,
)
from .moments import (
    DivergentMomentError,
    continuous_absolute_moment,
    continuous_algebraic_moment,
    discrete_absolute_moment,
)
from .orlicz import ModularOverflowError, NormBracketError, orlicz_function
from .quadrature import QuadratureError

__all__ = ["ConfigError", "main"]

_THREADS_ENV = "DURRMEYER_THREADS"

_DEFAULT_TOLERANCES = {
    "series_tol": 1e-9,
    "quad_tol": 1e-10,
    "modular_tol": 1e-6,
    "pou_threshold": 1e-3,
}

# Kernel-check probe policy: compact kernels get the dense probe set, decaying
# kernels a coarser one with a 10^4 lattice radius and loose moment tolerance.
_CHECK_COMPACT_PROBES = 1000
_CHECK_DECAYING_PROBES = 100
_CHECK_DECAYING_RADIUS = 10_000
_CHECK_DECAYING_TOL = 1e-4
_POISSON_RANGE = range(-3, 4)


class ConfigError(ValueError):
    """The configuration file or flags are invalid."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    return str(value)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii", newline="\n")


def _check_threads():
    """The thread count has no effect, since assembly is single-threaded,
    but a value that is set must still be an integer."""
    raw = os.environ.get(_THREADS_ENV)
    if raw is None:
        return
    try:
        int(raw)
    except ValueError as exc:
        raise ConfigError(f"{_THREADS_ENV} must be an integer: {raw!r}") from exc


def _finite(value, context) -> float:
    """A JSON number that is finite; booleans and strings are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return float(value)


def _need(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return mapping[key]


def _resolve_kernel(desc, context) -> _k.Kernel:
    if not isinstance(desc, dict):
        raise ConfigError(f"{context} must be an object with a 'family' key")
    family = _need(desc, "family", context)
    try:
        if family == "bspline":
            n = _need(desc, "n", context)
            if isinstance(n, float) and n.is_integer():
                n = int(n)
            return _k.bspline(n)
        if family == "fejer":
            return _k.fejer()
        if family == "window":
            return _k.window(float(_need(desc, "lo", context)),
                             float(_need(desc, "hi", context)),
                             float(desc.get("weight", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown kernel family {family!r}")


def _resolve_functional(desc) -> _o.SampleFunctional:
    if not isinstance(desc, dict):
        raise ConfigError("psi must be an object with a 'kind' key")
    kind = _need(desc, "kind", "psi")
    try:
        if kind == "pointmass":
            return _o.PointMass()
        if kind == "window":
            return _o.Window(float(_need(desc, "lo", "psi")),
                             float(_need(desc, "hi", "psi")),
                             float(desc.get("weight", 1.0)))
        if kind == "general":
            kernel = _resolve_kernel(_need(desc, "kernel", "psi"), "psi.kernel")
            return _o.Convolution(kernel, quad_tol=float(desc.get("quad_tol", 1e-9)))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"psi: {exc}") from exc
    raise ConfigError(f"psi: unknown functional kind {kind!r}")


def _resolve_signal(desc) -> _s.Signal:
    try:
        if isinstance(desc, str):
            return _s.builtin_signal(desc)
        if isinstance(desc, dict) and "piecewise" in desc:
            return _s.piecewise_constant(desc["piecewise"])
        if isinstance(desc, dict) and "name" in desc:
            return _s.builtin_signal(desc["name"], desc.get("value"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"signal: {exc}") from exc
    raise ConfigError("signal must be a name, {'name':..,'value':..}, or a piecewise literal")


def _resolve_orlicz(entries):
    probes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"orlicz[{i}] must be an object")
        params = {key: val for key, val in entry.items() if key not in ("variant", "lambda")}
        try:
            eta = orlicz_function(_need(entry, "variant", f"orlicz[{i}]"), **params)
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"orlicz[{i}]: {exc}") from exc
        lam = _finite(entry.get("lambda", 1.0), f"orlicz[{i}].lambda")
        if lam <= 0:
            raise ConfigError(f"orlicz[{i}]: lambda must be positive")
        probes.append((eta, lam))
    return probes


class Experiment:
    """Resolved configuration shared by all commands."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        self.raw = raw
        self.phi = _resolve_kernel(_need(raw, "phi", "config"), "phi")
        self.psi = _resolve_functional(_need(raw, "psi", "config"))
        self.signal = _resolve_signal(_need(raw, "signal", "config"))
        w_list = _need(raw, "w_list", "config")
        if not isinstance(w_list, list) or not w_list:
            raise ConfigError("w_list must be a nonempty ascending list of positive scales")
        self.w_list = [_finite(w, "each scale in w_list") for w in w_list]
        if (any(w <= 0 for w in self.w_list)
                or any(b <= a for a, b in zip(self.w_list, self.w_list[1:]))):
            raise ConfigError("w_list must be a nonempty ascending list of positive scales")
        window = _need(raw, "window", "config")
        if not isinstance(window, list) or len(window) != 2:
            raise ConfigError("window must be [lo, hi] with lo < hi")
        self.window = (_finite(window[0], "window[0]"), _finite(window[1], "window[1]"))
        if self.window[1] <= self.window[0]:
            raise ConfigError("window must be [lo, hi] with lo < hi")
        self.grid_step = _finite(raw.get("grid_step", 0.01), "grid_step")
        if self.grid_step <= 0:
            raise ConfigError("grid_step must be positive")
        self.orlicz = _resolve_orlicz(raw.get("orlicz", []))
        given = raw.get("tolerances", {})
        if not isinstance(given, dict):
            raise ConfigError("tolerances must be an object")
        unknown = sorted(set(given) - set(_DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(f"unknown tolerances {unknown}; expected keys from "
                              f"{sorted(_DEFAULT_TOLERANCES)}")
        tolerances = dict(_DEFAULT_TOLERANCES)
        for key, val in given.items():
            if _finite(val, f"tolerances.{key}") <= 0:
                raise ConfigError(f"tolerances.{key} must be positive")
            tolerances[key] = val
        self.tolerances = tolerances
        output = raw.get("output", {})
        self.out_dir = Path(output.get("path", "out")) if isinstance(output, dict) else Path("out")

    def spec(self, w: float) -> _o.OperatorSpec:
        return _o.OperatorSpec(
            self.phi, self.psi, w,
            series_tol=self.tolerances["series_tol"],
            quad_tol=self.tolerances["quad_tol"],
            pou_threshold=self.tolerances["pou_threshold"],
        )

    def grid(self) -> _s.UniformGrid:
        return _s.UniformGrid.from_window(self.window[0], self.window[1], self.grid_step)

    def echo(self) -> dict:
        return {
            "phi": self.phi.name,
            "psi": repr(self.psi),
            "signal": self.signal.name,
            "w_list": self.w_list,
            "window": list(self.window),
            "grid_step": self.grid_step,
            "orlicz": [{"gauge": eta.label, "lambda": lam} for eta, lam in self.orlicz],
            "tolerances": self.tolerances,
        }


def _load_experiment(args) -> Experiment:
    _check_threads()
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if args.w is not None:
        try:
            raw["w_list"] = [float(w) for w in args.w.split(",") if w]
        except ValueError as exc:
            raise ConfigError(f"--w must be a comma list of numbers: {args.w!r}") from exc
    if args.grid_step is not None:
        raw["grid_step"] = args.grid_step
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ConfigError("--window must be 'lo,hi'")
        try:
            raw["window"] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise ConfigError(f"--window must be numeric: {args.window!r}") from exc
    if args.out is not None:
        raw.setdefault("output", {})
        if not isinstance(raw["output"], dict):
            raw["output"] = {}
        raw["output"]["path"] = args.out
    return Experiment(raw)


def _check_kernels(exp: Experiment):
    kernels = [("phi", exp.phi)]
    if isinstance(exp.psi, _o.Window):
        kernels.append(("psi", _k.window(exp.psi.lo, exp.psi.hi, exp.psi.weight)))
    elif isinstance(exp.psi, _o.Convolution):
        kernels.append(("psi", exp.psi.kernel))
    return kernels


def _moment_cells(result_or_error):
    if isinstance(result_or_error, str):
        return result_or_error, ""
    return result_or_error.value, result_or_error.certified_error


def cmd_kernel_check(exp: Experiment) -> int:
    rows = []
    divergent = False
    for role, kernel in _check_kernels(exp):
        compact = isinstance(kernel.support, _k.CompactSupport)
        if compact:
            probes = np.arange(_CHECK_COMPACT_PROBES) / _CHECK_COMPACT_PROBES
            radius = _k.compact_lattice_radius(kernel.support)
            moment_tol = exp.tolerances["quad_tol"]
        else:
            probes = np.arange(_CHECK_DECAYING_PROBES) / _CHECK_DECAYING_PROBES
            radius = _CHECK_DECAYING_RADIUS
            moment_tol = _CHECK_DECAYING_TOL
        residual = _k.partition_of_unity_residual(kernel, probes, radius)

        if kernel.fourier is not None:
            poisson = max(
                abs(_k.fourier_hat(kernel, 2.0 * math.pi * j) - (1.0 if j == 0 else 0.0))
                for j in _POISSON_RANGE
            )
        else:
            poisson = ""

        cells = {}
        for label, compute in (
            ("M0", lambda: discrete_absolute_moment(kernel, 0, tol=moment_tol)),
            ("M1", lambda: discrete_absolute_moment(kernel, 1, tol=moment_tol)),
            ("Mt0", lambda: continuous_absolute_moment(kernel, 0, tol=1e-9)),
            ("Mt1", lambda: continuous_absolute_moment(kernel, 1, tol=1e-9)),
            ("mt1", lambda: continuous_algebraic_moment(kernel, 1, tol=1e-9)),
        ):
            try:
                cells[label] = compute()
            except DivergentMomentError:
                cells[label] = "divergent"
                divergent = True

        row = [kernel.name, role, residual, radius, poisson]
        for label in ("M0", "M1", "Mt0", "Mt1", "mt1"):
            row.extend(_moment_cells(cells[label]))
        rows.append(row)

    header = ["kernel", "role", "pou_residual", "pou_radius", "poisson_deviation",
              "M0", "M0_err", "M1", "M1_err", "Mt0", "Mt0_err",
              "Mt1", "Mt1_err", "mt1", "mt1_err"]
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(exp.out_dir / "kernel_check.csv", header, rows)
    _write_json(exp.out_dir / "kernel_check.json", {
        "config_echo": exp.echo(),
        "rows": [dict(zip(header, row)) for row in rows],
    })
    return 3 if divergent else 0


def cmd_reconstruct(exp: Experiment, at: float | None) -> int:
    if at is not None:
        values = {}
        for w in exp.w_list:
            values[f"w={w:g}"] = _o.evaluate(exp.spec(w), exp.signal, at)
        exp.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(exp.out_dir / "reconstruct.json", {
            "config_echo": exp.echo(),
            "x": at,
            "signal": float(exp.signal.evaluate(at)),
            "reconstruction": values,
        })
        return 0

    grid = exp.grid()
    points = grid.points()
    exact = np.asarray(exp.signal.evaluate(points), dtype=float)
    files = []
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    for w in exp.w_list:
        recon = _o.evaluate_grid(exp.spec(w), exp.signal, grid)
        name = f"reconstruct_w{w:g}.csv"
        _write_csv(exp.out_dir / name, ["x", "signal", "reconstruction"],
                   list(zip(points.tolist(), exact.tolist(), recon.tolist())))
        files.append(name)
    _write_json(exp.out_dir / "reconstruct.json", {
        "config_echo": exp.echo(),
        "files": files,
    })
    return 0


def cmd_converge(exp: Experiment) -> int:
    groups = {}
    for eta, lam in exp.orlicz:
        groups.setdefault(lam, []).append(eta)

    reports = []
    if groups:
        for lam in sorted(groups):
            reports.append(convergence_study(
                exp.phi, exp.psi, exp.signal, exp.w_list, exp.window, exp.grid_step,
                eta_list=groups[lam], lam=lam,
                modular_window=exp.window,
                series_tol=exp.tolerances["series_tol"],
                quad_tol=exp.tolerances["quad_tol"],
                modular_tol=exp.tolerances["modular_tol"],
            ))
    else:
        reports.append(convergence_study(
            exp.phi, exp.psi, exp.signal, exp.w_list, exp.window, exp.grid_step,
            series_tol=exp.tolerances["series_tol"],
            quad_tol=exp.tolerances["quad_tol"],
        ))

    checks = []
    if exp.signal.lipschitz_constant is not None:
        checks = verify_quantitative_bound(
            exp.phi, exp.psi, exp.signal, exp.w_list, exp.window, exp.grid_step,
            series_tol=exp.tolerances["series_tol"],
            quad_tol=exp.tolerances["quad_tol"],
        )

    header = ["w", "sup_error", "eoc_from_previous", "bound", "bound_margin"]
    modular_cols = []
    for report in reports:
        lam = report.config_echo["lambda"]
        for label in report.config_echo["orlicz"]:
            modular_cols.append((f"modular[{label}]@lambda={lam:g}", report, label))
    header.extend(col for col, _, _ in modular_cols)

    rows = []
    base = reports[0]
    for i, w in enumerate(exp.w_list):
        sup = base.rows[i].sup_error
        eoc = base.eoc[i - 1] if i > 0 else None
        row = [
            w,
            "" if sup is None else sup,
            "" if eoc is None else eoc,
            checks[i].bound if checks else "",
            checks[i].margin if checks else "",
        ]
        for _, report, label in modular_cols:
            row.append(report.rows[i].modular_errors[label])
        rows.append(row)

    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(exp.out_dir / "converge.csv", header, rows)
    _write_json(exp.out_dir / "converge.json", {
        "config_echo": exp.echo(),
        "reports": [report.to_dict() for report in reports],
        "quantitative_bound": [
            {"w": c.w, "sup_error": c.sup_error, "bound": c.bound,
             "margin": c.margin, "holds": c.holds}
            for c in checks
        ],
    })
    return 0


def cmd_orlicz(exp: Experiment) -> int:
    if isinstance(exp.psi, _o.Window):
        psi_kernel = _k.window(exp.psi.lo, exp.psi.hi, exp.psi.weight)
    elif isinstance(exp.psi, _o.Convolution):
        psi_kernel = exp.psi.kernel
    else:
        raise ConfigError("the orlicz command needs a function-type psi "
                          "(window or general), not a point mass")
    if not exp.orlicz:
        raise ConfigError("the orlicz command needs at least one orlicz entry")

    rows = []
    results = []
    for w in exp.w_list:
        for eta, lam in exp.orlicz:
            try:
                cmp = verify_modular_inequality(
                    exp.phi, psi_kernel, exp.signal, eta, lam, exp.window, w,
                    quad_tol=exp.tolerances["quad_tol"],
                )
                rows.append([w, eta.label, lam, cmp.lhs, cmp.rhs, cmp.ratio, cmp.holds])
                results.append({"w": w, "gauge": eta.label, "lambda": lam,
                                "lhs": cmp.lhs, "rhs": cmp.rhs, "ratio": cmp.ratio,
                                "holds": cmp.holds})
            except ModularOverflowError:
                rows.append([w, eta.label, lam, "overflow", "overflow", "", ""])
                results.append({"w": w, "gauge": eta.label, "lambda": lam,
                                "lhs": "overflow", "rhs": "overflow",
                                "ratio": None, "holds": None})

    header = ["w", "gauge", "lambda", "lhs", "rhs", "ratio", "holds"]
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(exp.out_dir / "orlicz.csv", header, rows)
    _write_json(exp.out_dir / "orlicz.json", {
        "config_echo": exp.echo(),
        "rows": results,
    })
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="durrmeyer",
        description="Sampling-series reconstruction experiments: kernel checks, "
                    "reconstructions, convergence studies, and modular-inequality "
                    "tables. CSV columns are spreadsheet/gnuplot-ready.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("kernel-check", "partition-of-unity and Fourier-condition residuals plus "
                         "a moment table (M0, M1, Mt0, Mt1, mt1) with certified errors"),
        ("reconstruct", "per-scale CSV of (x, signal, reconstruction) on the grid"),
        ("converge", "error table over the scale list with dyadic order estimates "
                     "and the quantitative bound when a Lipschitz constant is known"),
        ("orlicz", "modular-inequality table (lhs, rhs, holds) per scale and gauge"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON experiment file")
        cmd.add_argument("--w", help="override w_list, e.g. 5,10,20")
        cmd.add_argument("--grid-step", type=float, dest="grid_step",
                         help="override grid step")
        cmd.add_argument("--window", help="override window as lo,hi")
        cmd.add_argument("--out", help="override output directory")
        if name == "reconstruct":
            cmd.add_argument("--at", type=float,
                             help="evaluate at one point instead of the grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        exp = _load_experiment(args)
        if args.command == "kernel-check":
            return cmd_kernel_check(exp)
        if args.command == "reconstruct":
            return cmd_reconstruct(exp, getattr(args, "at", None))
        if args.command == "converge":
            return cmd_converge(exp)
        if args.command == "orlicz":
            return cmd_orlicz(exp)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergentMomentError, NormBracketError) as exc:
        print(f"mathematical precondition failed: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, ModularOverflowError, ValueError, ArithmeticError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
