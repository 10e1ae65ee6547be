"""Correctness checks of a pass's artifacts against independent oracles.

No stored outputs are used. Every expected number is rebuilt from closed
forms: unit-window Runge means w*(atan((k+1)/w) - atan(k/w)), B-spline and
Fejer kernels written out here, exact sample integrals of the box and
piecewise_rational signals, and Gauss-Legendre sums on cells where the
reconstruction is a polynomial. The only package call is the Fejer
evaluator's truncation radius, so the oracle sums over the same stencil.

Each check returns its problems, an empty list when the step passed, and
the largest deviation it saw between the program and the oracle.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import BOX_LAMBDAS, LUXEMBURG_SCALES, RATIONAL_LAMBDAS

# CLI defaults for tolerances a config leaves out.
SERIES_TOL = 1e-9
QUAD_TOL = 1e-10
# Modular cells: the CLI asks for 1e-9, but that tolerance is met only by
# the GK15 error estimate, which is not a bound on integrands with kinks; a
# piecewise-linear reconstruction has one at every knot. The oracle asks for
# six digits, which catches a wrong formula or scaling, and reports the
# deviation it saw.
MODULAR_REL_TOL = 1e-6
RUNGE_LIPSCHITZ = 3.0 * math.sqrt(3.0) / 8.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def runge(x):
    return 1.0 / (1.0 + x * x)


def runge_means(k, w):
    """w * integral of 1/(1+t^2) over [k/w, (k+1)/w), in the form
    atan(a) - atan(b) = atan((a-b)/(1+ab)), which avoids cancellation."""
    k = np.asarray(k, dtype=float)
    return w * np.arctan((1.0 / w) / (1.0 + k * (k + 1.0) / (w * w)))


def bspline3(t):
    a = np.abs(t)
    return np.where(a < 0.5, 0.75 - a * a, np.where(a < 1.5, 0.5 * (a - 1.5) ** 2, 0.0))


def fejer(t):
    return 0.5 * np.sinc(0.5 * t) ** 2


def _grid(config):
    lo, hi = config["window"]
    step = config["grid_step"]
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _tolerances(config):
    tol = config.get("tolerances", {})
    return tol.get("series_tol", SERIES_TOL), tol.get("quad_tol", QUAD_TOL)


def _fejer_radius(config, w):
    from durrmeyer import kernels, operators, signals

    spec = operators.OperatorSpec(kernels.fejer(), operators.Window(0.0, 1.0, 1.0), w,
                                  series_tol=_tolerances(config)[0])
    return operators.SeriesEvaluator(spec, signals.builtin_signal("runge"))._radius


def _fejer_reconstruction(x, w, radius, chunk=64):
    out = np.empty_like(x)
    offsets = np.arange(2 * radius + 1)
    for start in range(0, x.size, chunk):
        wx = w * x[start:start + chunk, None]
        ks = np.ceil(wx - radius) + offsets
        terms = fejer(wx - ks) * runge_means(ks, w)
        out[start:start + chunk] = np.where(ks <= np.floor(wx + radius), terms, 0.0).sum(axis=1)
    return out


def _spline_reconstruction(x, w):
    wx = w * x[:, None]
    ks = np.floor(wx) + np.arange(-2, 3)
    return (bspline3(wx - ks) * runge_means(ks, w)).sum(axis=1)


def check_reconstruct(config, out_dir: Path):
    problems = []
    worst = 0.0
    series_tol, quad_tol = _tolerances(config)
    allowed = series_tol + quad_tol
    x_expected = _grid(config)
    report = json.loads((out_dir / "reconstruct.json").read_text())
    names = [f"reconstruct_w{w:g}.csv" for w in config["w_list"]]
    if report.get("files") != names:
        problems.append(f"reconstruct.json lists {report.get('files')}, expected {names}")
    for w, name in zip(config["w_list"], names):
        rows = read_csv(out_dir / name)
        x = np.array([float(r["x"]) for r in rows])
        if x.shape != x_expected.shape or np.max(np.abs(x - x_expected)) > 1e-12:
            problems.append(f"{name}: grid differs from the configured window")
            continue
        signal = np.array([float(r["signal"]) for r in rows])
        if np.max(np.abs(signal - runge(x))) > 1e-15:
            problems.append(f"{name}: signal column is not 1/(1+x^2)")
        recon = np.array([float(r["reconstruction"]) for r in rows])
        oracle = _fejer_reconstruction(x, float(w), _fejer_radius(config, float(w)))
        deviation = float(np.max(np.abs(recon - oracle)))
        worst = max(worst, deviation)
        if not deviation <= allowed:
            problems.append(f"{name}: deviation {deviation:.3g} from the lattice sum "
                            f"exceeds {allowed:.3g}")
    return problems, worst


def _bspline3_m1(probes=1 << 15):
    u = np.arange(probes) / probes
    d = u[:, None] - np.arange(-2, 3)[None, :]
    return float(np.max((np.abs(d) * bspline3(d)).sum(axis=1)))


def check_kernel_check(out_dir: Path):
    """Closed-form moments of the quadratic B-spline and the unit window."""
    problems = []
    worst = 0.0
    rows = {r["role"]: r for r in read_csv(out_dir / "kernel_check.csv")}
    expected = {
        "phi": {"M0": 1.0, "M1": _bspline3_m1(), "Mt0": 1.0, "Mt1": 13.0 / 32.0, "mt1": 0.0},
        "psi": {"M0": 1.0, "M1": 1.0, "Mt0": 1.0, "Mt1": 0.5, "mt1": 0.5},
    }
    for role, moments in expected.items():
        row = rows.get(role)
        if row is None:
            problems.append(f"kernel_check.csv has no {role} row")
            continue
        if not float(row["pou_residual"]) <= 1e-12:
            problems.append(f"{role}: partition-of-unity residual {row['pou_residual']}")
        for label, value in moments.items():
            got = float(row[label])
            err = float(row[f"{label}_err"] or 0.0)
            # The unit window's M1 is a supremum 1 that the probe grid
            # approaches from below.
            slack = 1e-3 if (role, label) == ("psi", "M1") else 1e-12
            worst = max(worst, abs(got - value))
            if not abs(got - value) <= err + slack:
                problems.append(f"{role}.{label} = {got!r}, expected {value!r}")
    return problems, worst


def check_converge(config, out_dir: Path):
    problems = []
    worst = 0.0
    series_tol, quad_tol = _tolerances(config)
    allowed = series_tol + quad_tol
    x = _grid(config)
    rows = read_csv(out_dir / "converge.csv")
    if [float(r["w"]) for r in rows] != [float(w) for w in config["w_list"]]:
        return ["converge.csv rows do not match w_list"], worst
    constant = 1.5 + _bspline3_m1()  # M0 (Mt0 + Mt1) + M1 Mt0 for the unit window
    for row in rows:
        w = float(row["w"])
        oracle = float(np.max(np.abs(runge(x) - _spline_reconstruction(x, w))))
        sup = float(row["sup_error"])
        worst = max(worst, abs(sup - oracle))
        if not abs(sup - oracle) <= allowed:
            problems.append(f"w={w:g}: sup_error {sup!r} differs from the lattice-sum "
                            f"oracle {oracle!r} by more than {allowed:.3g}")
        if not float(row["bound_margin"]) >= 0.0:
            problems.append(f"w={w:g}: bound_margin {row['bound_margin']} is negative")
        bound = float(row["bound"])
        if not abs(bound - constant * RUNGE_LIPSCHITZ / w) <= 1e-6 * bound:
            problems.append(f"w={w:g}: bound {bound!r} is not C*L/w with C={constant!r}")
    # Modular values come from the JSON report: a gauge label such as
    # zygmund(1,1) holds a comma that the CSV writer does not quote.
    report = json.loads((out_dir / "converge.json").read_text())
    for study in report["reports"]:
        for row in study["rows"]:
            for label, value in row["modular_errors"].items():
                if not (isinstance(value, float) and math.isfinite(value) and value >= 0.0):
                    problems.append(f"w={row['w']:g}: modular[{label}] = {value!r}")
    return problems, worst


# -- modular oracles for the hat kernel with unit-window samples -----------

def _box_integral(p, q):
    return max(0.0, min(q, 1.0) - max(p, -1.0))


def _rational_integral(p, q):
    total = 0.0
    hi = min(q, -1.0)
    if hi > p:
        total += 9.0 / p - 9.0 / hi
    for a, b, value in ((-1.0, 0.0, 2.0), (0.0, 1.0, 1.0)):
        total += value * max(0.0, min(q, b) - max(p, a))
    lo, hi = max(p, 1.0), q
    if hi > lo:
        total += (50.0 / 3.0) * (hi**-3 - lo**-3)
    return total


_SAMPLE_INTEGRALS = {"box": _box_integral, "piecewise_rational": _rational_integral}


def _rational(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.select([t < -1.0, t < 0.0, t < 1.0], [9.0 / (t * t), 2.0, 1.0], -50.0 / t**4)


def _gauge(label):
    if label == "power(1)":
        return lambda u: u
    if label == "power(2)":
        return lambda u: u * u
    if label == "zygmund(1,1)":
        return lambda u: u * np.log(math.e + u)
    raise ValueError(f"no oracle for gauge {label}")


def _gauss(fn, a, b):
    half = 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, fn(0.5 * (a + b) + half * _GL_NODES)))


def reconstruction_modular(signal, w, eta, lam, window):
    """Integral over the window of eta(lam |R|), where R interpolates the
    unit-window means s_k linearly between the knots k/w."""
    a, b = window
    k_lo, k_hi = math.floor(a * w), math.ceil(b * w)
    integral = _SAMPLE_INTEGRALS[signal]
    means = [w * integral(k / w, (k + 1) / w) for k in range(k_lo, k_hi + 1)]
    total = 0.0
    for i, k in enumerate(range(k_lo, k_hi)):
        x0, x1 = k / w, (k + 1) / w
        s0, s1 = means[i], means[i + 1]
        cuts = [max(x0, a), min(x1, b)]
        if cuts[1] <= cuts[0]:
            continue
        if s0 * s1 < 0.0:
            root = x0 + (x1 - x0) * s0 / (s0 - s1)
            if cuts[0] < root < cuts[1]:
                cuts.insert(1, root)

        def gauged(x, x0=x0, s0=s0, s1=s1):
            return eta(lam * np.abs(s0 + (s1 - s0) * (x - x0) * w))

        total += sum(_gauss(gauged, p, q) for p, q in zip(cuts[:-1], cuts[1:]))
    return total


def signal_modular(signal, eta, lam, window):
    a, b = window
    if signal == "box":
        return 2.0 * float(eta(lam))
    pieces = [(a, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, b)]
    total = 0.0
    for p, q in pieces:
        edges = np.linspace(p, q, 33)
        total += sum(_gauss(lambda x: eta(lam * np.abs(_rational(x))), lo, hi)
                     for lo, hi in zip(edges[:-1], edges[1:]))
    return total


def _relative(got, expected):
    return abs(got - expected) / max(abs(expected), 1e-300)


def check_orlicz(config, signal, out_dir: Path):
    problems = []
    worst = 0.0
    window = tuple(config["window"])
    lambdas = BOX_LAMBDAS if signal == "box" else RATIONAL_LAMBDAS
    # The JSON report, because the CSV writer does not quote gauge labels.
    rows = json.loads((out_dir / "orlicz.json").read_text())["rows"]
    expected_cells = len(config["w_list"]) * len(config["orlicz"])
    if len(rows) != expected_cells:
        problems.append(f"orlicz.json has {len(rows)} rows, expected {expected_cells}")
    for row in rows:
        w, lam = row["w"], row["lambda"]
        cell = f"{signal}/w={w:g}/{row['gauge']}/lambda={lam:g}"
        lhs, rhs, ratio = row["lhs"], row["rhs"], row["ratio"]
        if row["holds"] is not True or not lhs <= rhs + 1e-8:
            problems.append(f"{cell}: inequality fails, lhs={lhs!r} rhs={rhs!r}")
        if lam not in lambdas or not abs(ratio - 1.0) <= 1e-9:
            problems.append(f"{cell}: unexpected lambda or ratio {ratio!r}")
            continue
        eta = _gauge(row["gauge"])
        want_lhs = reconstruction_modular(signal, w, eta, lam, window)
        want_rhs = ratio * signal_modular(signal, eta, lam, window)
        for side, got, want in (("lhs", lhs, want_lhs), ("rhs", rhs, want_rhs)):
            worst = max(worst, _relative(got, want))
            if not _relative(got, want) <= MODULAR_REL_TOL:
                problems.append(f"{cell}: {side} {got!r}, oracle {want!r}")
    return problems, worst


def check_luxemburg(config, out_dir: Path):
    """Under power(2) the Luxemburg norm is the square root of the modular."""
    problems = []
    worst = 0.0
    report = json.loads((out_dir / "luxemburg.json").read_text())
    window = tuple(config["window"])
    for w in LUXEMBURG_SCALES:
        norm = report["norms"][f"{w:g}"]
        modular = reconstruction_modular("box", w, _gauge("power(2)"), 1.0, window)
        worst = max(worst, _relative(norm, math.sqrt(modular)))
        if not abs(norm - math.sqrt(modular)) <= 1e-8 * norm:
            problems.append(f"w={w:g}: Luxemburg norm {norm!r}, modular^(1/2) "
                            f"{math.sqrt(modular)!r}")
    return problems, worst


def check_step(step: str, config: dict, out_dir: Path):
    """Problems found in one step's artifacts, and the largest deviation
    from the oracle (relative for modulars and norms, absolute otherwise)."""
    if step == "reconstruct":
        return check_reconstruct(config, out_dir)
    if step == "kernel-check":
        return check_kernel_check(out_dir)
    if step == "converge":
        return check_converge(config, out_dir)
    if step.startswith("orlicz-"):
        return check_orlicz(config, step.split("-", 1)[1], out_dir)
    if step == "luxemburg":
        return check_luxemburg(config, out_dir)
    raise ValueError(f"no oracle for step {step!r}")
