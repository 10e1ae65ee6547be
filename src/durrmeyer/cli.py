"""Command-line front end: configure kernels, signals, and operators from a
JSON file, run checks and studies, and emit CSV/JSON artifacts.

Output is locale-independent (dot decimals, newline-terminated rows, 17
significant digits) and byte-identical across runs; the resolved
configuration is echoed into every JSON report for provenance. Every JSON
report is strict JSON: one that would hold a non-finite number exits 4, and
``kernel-check``, ``converge`` and ``orlicz`` write it before their CSV, so
they then leave no file.

Exit codes: 0 ok, 2 configuration error, 3 mathematical precondition
failure (divergent moment, non-bracketable norm), 4 runtime evaluation
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels as _k
from . import operators as _o
from . import signals as _s
from .analysis import bound_checks, convergence_studies, modular_inequality_cells
from .moments import (
    DivergentMomentError,
    continuous_absolute_moment,
    continuous_algebraic_moment,
    discrete_absolute_moment,
)
from .orlicz import GAUGES, NormBracketError
from .quadrature import QuadratureError

__all__ = ["ConfigError", "main"]

# The operator's tolerances are the fields that OperatorSpec gives a default;
# modular_tol is the modular quadratures' own.
_SPEC_TOLERANCES = {field.name: field.default for field in dataclasses.fields(_o.OperatorSpec)
                    if field.default is not dataclasses.MISSING}
_DEFAULT_TOLERANCES = {**_SPEC_TOLERANCES, "modular_tol": 1e-6}

# Kernel-check probe policy: compact kernels get the dense probe set, decaying
# kernels a coarser one with a 10^4 lattice radius.
_CHECK_COMPACT_PROBES = 1000
_CHECK_DECAYING_PROBES = 100
_CHECK_DECAYING_RADIUS = 10_000
_POISSON_RANGE = range(-3, 4)
# The constructor of each kind of descriptor; it is called with the
# descriptor's other keys, so its signature decides which keys are read.
_FUNCTIONALS = {"pointmass": _o.PointMass, "window": _o.Window, "general": _o.Convolution}
# The keys of the configuration root and of a signal object.
_ROOT_KEYS = {"phi", "psi", "signal", "w_list", "window", "grid_step", "orlicz",
              "tolerances", "output"}
_SIGNAL_KEYS = ({"piecewise"}, {"name"}, {"name", "value"})
# Largest evaluation grid a configuration may ask for: 10^7 points is 80 MB
# per float array, and a grid pass holds several of them.
_MAX_GRID_POINTS = 10**7


class ConfigError(ValueError):
    """The configuration file or flags are invalid."""


def _kernels():
    """The kernel constructors, read off ``kernels`` for each descriptor, so
    a factory rebound there (by a profiler's wrapper) is the one called."""
    return {"bspline": _k.bspline, "fejer": _k.fejer, "window": _k.window}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _float_lines(block, slots=0) -> str:
    """The CSV lines of a 2-d float array, one ``%.17g`` cell per column,
    with ``slots`` more ``%.17g`` conversions left open at the end of each
    line for a later ``%`` to fill. Floats need no quoting, so these are the
    bytes the csv writer and :func:`_fmt` would give; a formatted float holds
    no ``%``, so the open slots are the only conversions left."""
    line = ",".join(["%.17g"] * block.shape[1] + ["%%.17g"] * slots) + "\n"
    return line * len(block) % tuple(block.ravel().tolist())


def _write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows``: a list of rows of any cells, a 2-d
    float array with one column per header cell, or lines already formatted
    by :func:`_float_lines`."""
    # Minimal quoting: a gauge label such as zygmund(1,1) holds a comma.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        rows = _float_lines(rows)
    if isinstance(rows, str):
        buffer.write(rows)
    else:
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
    path.write_text(buffer.getvalue(), encoding="ascii", newline="\n")


def _write_json(path: Path, payload):
    """Write ``payload`` as strict JSON: a non-finite number raises
    ``ValueError`` before anything is written."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="ascii", newline="\n")


def _finite(value, context) -> float:
    """A JSON number that is finite as a float; booleans, strings and
    integers beyond the float range are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return float(value)


def _need(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return mapping[key]


def _refuse_unknown(mapping, keys, context):
    unknown = sorted(map(str, set(mapping) - keys))
    if unknown:
        raise ConfigError(f"unknown {context} keys {unknown}; expected keys from {sorted(keys)}")


def _build(desc, tag, table, context):
    """The object that ``desc`` describes: the constructor ``table[desc[tag]]``
    called with every other key of ``desc`` as a keyword argument, each a
    finite number, or for a sample functional a nested ``kernel``
    descriptor. The constructor's signature refuses a missing key and one
    that its kind never reads."""
    if not isinstance(desc, dict):
        raise ConfigError(f"{context} must be an object with a {tag!r} key")
    kind = _need(desc, tag, context)
    if not (isinstance(kind, str) and kind in table):
        raise ConfigError(f"{context}: unknown {tag} {kind!r}; expected one of {sorted(table)}")
    params = {}
    for key, value in desc.items():
        if key == "kernel" and table is _FUNCTIONALS:
            params[key] = _build(value, "family", _kernels(), f"{context}.kernel")
        elif key != tag:
            params[key] = _finite(value, f"{context}.{key}")
    n = params.get("n")
    if kind == "bspline" and isinstance(n, float) and n.is_integer():
        params["n"] = int(n)  # JSON has one number type
    try:
        return table[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} ({tag} {kind!r}): {exc}") from exc


def _resolve_signal(desc) -> _s.Signal:
    if isinstance(desc, str):
        desc = {"name": desc}
    if not (isinstance(desc, dict) and set(desc) in _SIGNAL_KEYS):
        raise ConfigError("signal must be a name, {'name':..,'value':..}, or a piecewise "
                          f"literal {{'piecewise':..}}, got {desc!r}")
    try:
        if "piecewise" in desc:
            return _s.piecewise_constant([[_finite(cell, "each piecewise cell") for cell in row]
                                          for row in desc["piecewise"]])
        value = _finite(desc["value"], "value") if "value" in desc else None
        return _s.builtin_signal(desc["name"], value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"signal: {exc}") from exc


def _resolve_orlicz(entries):
    if not isinstance(entries, list):
        raise ConfigError("orlicz must be a list of gauge entries")
    probes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"orlicz[{i}] must be an object")
        gauge = {key: val for key, val in entry.items() if key != "lambda"}
        eta = _build(gauge, "variant", GAUGES, f"orlicz[{i}]")
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
        _refuse_unknown(raw, _ROOT_KEYS, "config")
        self.raw = raw
        self.phi = _build(_need(raw, "phi", "config"), "family", _kernels(), "phi")
        psi = _need(raw, "psi", "config")
        if isinstance(psi, dict) and "quad_tol" in psi:
            raise ConfigError("psi.quad_tol is not read: every psi samples at tolerances.quad_tol")
        self.psi = _build(psi, "kind", _FUNCTIONALS, "psi")
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
        self.grid_step = _finite(raw.get("grid_step", 0.01), "grid_step")
        # The grid refuses an empty window and a step that is not positive;
        # its point count is checked before any command allocates it.
        try:
            self.grid = _s.UniformGrid.from_window(self.window[0], self.window[1], self.grid_step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.grid.count > _MAX_GRID_POINTS:
            raise ConfigError(
                f"window {list(self.window)} at grid_step {self.grid_step:g} asks for "
                f"{self.grid.count:,} grid points; at most {_MAX_GRID_POINTS:,} are allowed")
        self.orlicz = _resolve_orlicz(raw.get("orlicz", []))
        given = raw.get("tolerances", {})
        if not isinstance(given, dict):
            raise ConfigError("tolerances must be an object")
        _refuse_unknown(given, set(_DEFAULT_TOLERANCES), "tolerances")
        for key, val in given.items():
            if _finite(val, f"tolerances.{key}") <= 0:
                raise ConfigError(f"tolerances.{key} must be positive")
        self.tolerances = {**_DEFAULT_TOLERANCES, **given}
        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError(f"output must be an object, got {output!r}")
        _refuse_unknown(output, {"path"}, "output")
        path = output.get("path", "out")
        if not isinstance(path, str):
            raise ConfigError(f"output.path must be a string, got {path!r}")
        self.out_dir = Path(path)

    def spec(self, w: float) -> _o.OperatorSpec:
        # w and the tolerances are checked above: only phi can fail the spec,
        # and a decaying kernel a signal that declares no sup norm.
        try:
            spec = _o.OperatorSpec(self.phi, self.psi, w,
                                   **{key: self.tolerances[key] for key in _SPEC_TOLERANCES})
            _o.required_sup_norm(spec, self.signal)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return spec

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
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
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
    exp = Experiment(raw)
    if args.out is not None:
        exp.out_dir = Path(args.out)
    return exp


def cmd_kernel_check(exp: Experiment) -> int:
    kernels = [("phi", exp.phi)]
    if not isinstance(exp.psi, _o.PointMass):
        kernels.append(("psi", exp.psi.kernel))
    # (moment, order, tolerance) of the columns M0, M1, Mt0, Mt1 and mt1.
    moment_tol = exp.tolerances["quad_tol"]
    moments = [(discrete_absolute_moment, 0, moment_tol),
               (discrete_absolute_moment, 1, moment_tol),
               (continuous_absolute_moment, 0, 1e-9),
               (continuous_absolute_moment, 1, 1e-9),
               (continuous_algebraic_moment, 1, 1e-9)]
    rows = []
    divergent = False
    for role, kernel in kernels:
        if isinstance(kernel.support, _k.CompactSupport):
            probes = np.arange(_CHECK_COMPACT_PROBES) / _CHECK_COMPACT_PROBES
            radius = _k.compact_lattice_radius(kernel.support)
        else:
            probes = np.arange(_CHECK_DECAYING_PROBES) / _CHECK_DECAYING_PROBES
            radius = _CHECK_DECAYING_RADIUS
        residual = _k.partition_of_unity_residual(kernel, probes, radius)

        if kernel.fourier is not None:
            poisson = max(
                abs(_k.fourier_hat(kernel, 2.0 * math.pi * j) - (1.0 if j == 0 else 0.0))
                for j in _POISSON_RANGE
            )
        else:
            poisson = ""

        row = [kernel.name, role, residual, radius, poisson]
        for moment, order, tol in moments:
            try:
                result = moment(kernel, order, tol=tol)
                row += [result.value, result.certified_error]
            except DivergentMomentError:
                row += ["divergent", ""]
                divergent = True
        rows.append(row)

    header = ["kernel", "role", "pou_residual", "pou_radius", "poisson_deviation",
              "M0", "M0_err", "M1", "M1_err", "Mt0", "Mt0_err",
              "Mt1", "Mt1_err", "mt1", "mt1_err"]
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(exp.out_dir / "kernel_check.json", {
        "config_echo": exp.echo(),
        "rows": [dict(zip(header, row)) for row in rows],
    })
    _write_csv(exp.out_dir / "kernel_check.csv", header, rows)
    return 3 if divergent else 0


def cmd_reconstruct(exp: Experiment, at: float | None) -> int:
    if at is not None:
        values = {}
        for w in exp.w_list:
            value = _o.SeriesEvaluator(exp.spec(w), exp.signal).on_grid(np.array([at]))[0]
            values[f"w={w:g}"] = float(value)
        exp.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(exp.out_dir / "reconstruct.json", {
            "config_echo": exp.echo(),
            "x": at,
            "signal": float(exp.signal.evaluate(at)),
            "reconstruction": values,
        })
        return 0

    points = exp.grid.points()
    exact = np.asarray(exp.signal.evaluate(points), dtype=float)
    # The x and signal columns are the same in every file: formatted once,
    # with one open slot per line for each scale's reconstruction.
    shared = _float_lines(np.column_stack((points, exact)), slots=1)
    files = []
    for w in exp.w_list:
        # Every scale's spec refuses what the first one refuses, before any output.
        recon = _o.evaluate_grid(exp.spec(w), exp.signal, exp.grid)
        exp.out_dir.mkdir(parents=True, exist_ok=True)
        name = f"reconstruct_w{w:g}.csv"
        _write_csv(exp.out_dir / name, ["x", "signal", "reconstruction"],
                   shared % tuple(recon.tolist()))
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
    reports = convergence_studies(
        [exp.spec(w) for w in exp.w_list], exp.signal, exp.window, exp.grid_step,
        sorted(groups.items()) or [(1.0, [])],
        modular_tol=exp.tolerances["modular_tol"],
    )
    checks = bound_checks(reports[0])

    header = ["w", "sup_error", "eoc_from_previous", "bound", "bound_margin"]
    modular_cols = []
    for report in reports:
        lam = report.config_echo["lambda"]
        for label in report.config_echo["orlicz"]:
            modular_cols.append((f"modular[{label}]@lambda={lam:g}", report, label))
    header.extend(col for col, _, _ in modular_cols)

    rows = []
    base = reports[0]
    for i, (w, eoc) in enumerate(zip(exp.w_list, [None] + base.eoc)):
        sup = base.rows[i].sup_error
        bound = [checks[i].bound, checks[i].margin] if checks else ["", ""]
        modulars = [report.rows[i].modular_errors[label] for _, report, label in modular_cols]
        rows.append([w, "" if sup is None else sup, "" if eoc is None else eoc, *bound, *modulars])

    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(exp.out_dir / "converge.json", {
        "config_echo": exp.echo(),
        "reports": [report.to_dict() for report in reports],
        "quantitative_bound": [dataclasses.asdict(check) for check in checks],
    })
    _write_csv(exp.out_dir / "converge.csv", header, rows)
    return 0


def cmd_orlicz(exp: Experiment) -> int:
    if isinstance(exp.psi, _o.PointMass):
        raise ConfigError("the orlicz command needs a function-type psi "
                          "(window or general), not a point mass")
    if not exp.orlicz:
        raise ConfigError("the orlicz command needs at least one orlicz entry")
    tables = modular_inequality_cells([exp.spec(w) for w in exp.w_list], exp.signal,
                                      exp.orlicz, exp.window,
                                      modular_tol=exp.tolerances["modular_tol"])
    results = []
    for w, cells in zip(exp.w_list, tables):
        for (eta, lam), cmp in zip(exp.orlicz, cells):
            cell = {"w": w, "gauge": eta.label, "lambda": lam, "lhs": "overflow",
                    "rhs": "overflow", "ratio": None, "holds": None}
            if cmp != "overflow":
                cell.update(lhs=cmp.lhs, rhs=cmp.rhs, ratio=cmp.ratio, holds=cmp.holds)
            results.append(cell)

    header = ["w", "gauge", "lambda", "lhs", "rhs", "ratio", "holds"]
    rows = [["" if cell[key] is None else cell[key] for key in header] for cell in results]
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(exp.out_dir / "orlicz.json", {
        "config_echo": exp.echo(),
        "rows": results,
    })
    _write_csv(exp.out_dir / "orlicz.csv", header, rows)
    return 0


@functools.cache
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
    # Built per call, so a command rebound here (by a profiler's wrapper) is
    # the one run.
    commands = {
        "kernel-check": cmd_kernel_check,
        "reconstruct": lambda exp: cmd_reconstruct(
            exp, None if args.at is None else _finite(args.at, "--at")),
        "converge": cmd_converge,
        "orlicz": cmd_orlicz,
    }
    try:
        return commands[args.command](_load_experiment(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergentMomentError, NormBracketError) as exc:
        print(f"mathematical precondition failed: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, ValueError, ArithmeticError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
