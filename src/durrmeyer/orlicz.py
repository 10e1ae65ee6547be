"""Convex gauge functions, modular functionals, and Luxemburg norms.

A gauge eta vanishes at zero, is positive and convex on the positive axis,
and turns |f| into the modular integral of eta(lambda |f|) over a window.
The power and logarithm-weighted families double under scaling (so modular
and norm convergence agree); the exponential family does not, which is why
modular statements there hold only for small enough lambda. A gauge
declares ``homogeneity``: the degree p with eta(s u) = s**p eta(u) for
every s > 0 (p for the power family), or ``None``. :func:`luxemburg_norm`
trusts the declaration, so a user gauge may make it too; a homogeneous
modular gives the norm in closed form, and for any other gauge the modular
at one scaling brackets it.

The modulars that one computation needs of one function, whatever their
gauges and scalings, are one batched adaptive quadrature
(:func:`modulars`), which evaluates the function once per distinct node
in each round; those of several functions, as a convergence study needs
at each of its scales, are one quadrature too (:func:`batched_modulars`),
each value bit for bit its function's own. A modular overflows exactly
when its integral is infinite at working precision; it then reads
``None``, whatever the gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quadrature import check_tolerance, integrate

__all__ = [
    "ModularOverflowError",
    "NormBracketError",
    "PowerFunction",
    "ZygmundFunction",
    "ExponentialFunction",
    "OrliczFunction",
    "GAUGES",
    "Difference",
    "modulars",
    "batched_modulars",
    "modular",
    "luxemburg_norm",
    "modular_distance",
]

_NORM_SCALE_CAP = 1e9
_MAX_CELLS = 20000  # quadrature cells per modular
# Each k-section step of a Luxemburg norm cuts its bracket into this many equal
# sections and takes the modulars at their interior ends in one quadrature.
_NORM_SECTIONS = 9


class ModularOverflowError(OverflowError):
    """The modular's integral is infinite at working precision for this
    scaling."""


class NormBracketError(ArithmeticError):
    """No scaling up to the scale cap brings the modular below one: the
    modular still overflows there, or the norm lies beyond it."""


@dataclass(frozen=True)
class PowerFunction:
    """u -> u**p, the gauge of the classical p-integrable space."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError("power gauge needs a finite p >= 1 for convexity")

    @property
    def homogeneity(self) -> float:
        return self.p

    @property
    def label(self) -> str:
        return f"power({self.p:g})"

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        out = arr**self.p
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ZygmundFunction:
    """u -> u**alpha * log(e + u)**beta, the log-weighted gauge."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ValueError("logarithm-weighted gauge needs a finite alpha >= 1")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("logarithm-weighted gauge needs a finite beta > 0")

    homogeneity = None

    @property
    def label(self) -> str:
        return f"zygmund({self.alpha:g},{self.beta:g})"

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        out = arr**self.alpha * np.log(math.e + arr) ** self.beta
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialFunction:
    """u -> exp(u**alpha) - 1, the exponential-space gauge (not doubling):
    ``inf`` where exp overflows, as the other gauges are where powers do."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            # Below one, exp(u**alpha) - 1 is concave near zero.
            raise ValueError("exponential gauge needs a finite alpha >= 1 for convexity")

    homogeneity = None

    @property
    def label(self) -> str:
        return f"exponential({self.alpha:g})"

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        out = np.expm1(arr**self.alpha)
        return float(out) if arr.ndim == 0 else out


OrliczFunction = Union[PowerFunction, ZygmundFunction, ExponentialFunction]


# Each variant name of the CLI configuration, mapped to its gauge's class.
GAUGES = {"power": PowerFunction, "zygmund": ZygmundFunction,
          "exponential": ExponentialFunction}


class Difference:
    """Pointwise difference ``f - g`` of two evaluables, with merged breakpoints.

    It declares no ``cuts``, even for a spline series ``f``: |f - g| also
    kinks where it crosses zero, inside the knot cells, where f - g is not
    a polynomial, so no chord locates those kinks."""

    def __init__(self, f, g):
        self._f = f
        self._g = g
        self.breakpoints = tuple(sorted(
            set(getattr(f, "breakpoints", ())) | set(getattr(g, "breakpoints", ()))
        ))

    def evaluate(self, x):
        return np.asarray(self._f.evaluate(x), dtype=float) - np.asarray(
            self._g.evaluate(x), dtype=float
        )


def _evaluate_rows(f, x, interval):
    """``f.evaluate`` on the node rows ``x`` of quadrature cells, once per
    distinct row: rows of different intervals that are equal bit for bit
    (the same cell) share one evaluation."""

    def evaluate(rows):
        return np.asarray(f.evaluate(rows.ravel()), dtype=float).reshape(rows.shape)

    if interval[0] == interval[-1]:
        return evaluate(x)
    # Equal rows have equal first nodes, and within an interval the first
    # nodes ascend, so a stable sort of them merges one run per interval
    # and puts equal rows next to each other.
    order = np.argsort(x[:, 0], kind="stable")
    key = x[order, 0]
    repeat = np.flatnonzero(key[1:] == key[:-1]) + 1
    same = (x[order[repeat]].view(np.int64) == x[order[repeat - 1]].view(np.int64)).all(axis=1)
    repeat = repeat[same]
    if not repeat.size:
        return evaluate(x)
    fresh = np.ones(order.size, dtype=bool)
    fresh[repeat] = False
    # Sorted position of the first row of each run of equal rows.
    root = np.maximum.accumulate(np.where(fresh, np.arange(order.size), 0))
    keep = np.ones(order.size, dtype=bool)
    keep[order[repeat]] = False
    out = np.empty_like(x)
    out[keep] = evaluate(x[keep])
    out[order[repeat]] = out[order[root[repeat]]]
    return out


def _runs(keys):
    """(start, stop) of each run of equal neighbours in the nonempty,
    ascending 1-d ``keys``."""
    if keys[0] == keys[-1]:
        return [(0, keys.size)]
    edges = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return zip([0] + edges, edges + [keys.size])


def _job_cuts(finders, job_of):
    """The ``cuts`` callback of a batch, given each job's ``f.cuts`` or None:
    each picked cell goes to its job's, once per distinct cell of that job
    (its copies of the window pick the same cells), and the cuts spread
    back to every copy."""

    def cuts(lo, hi, interval):
        job = job_of[interval]
        cells, points = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        # Cells come by interval, so each job's cells are one run.
        for start, stop in _runs(job):
            finder = finders[job[start]]
            if finder is None:
                continue
            # Each cell's index among the job's distinct cells, in order of
            # appearance; copies of one cell are equal bit for bit.
            distinct = {}
            group = np.array([distinct.setdefault(edges, len(distinct)) for edges in
                              zip(lo[start:stop].tolist(), hi[start:stop].tolist())])
            a, b = np.array(list(distinct)).T
            cell, at = finder(a, b)
            cell, at = np.asarray(cell, dtype=np.intp), np.asarray(at, dtype=float)
            if len(distinct) < group.size:
                # Each copy takes the run of cuts of its distinct cell.
                sizes = np.bincount(cell, minlength=len(distinct))
                taken = sizes[group]
                skip = (np.cumsum(sizes) - sizes)[group] - (np.cumsum(taken) - taken)
                cell = np.repeat(np.arange(group.size), taken)
                at = at[np.repeat(skip, taken) + np.arange(cell.size)]
            cells.append(start + cell)
            points.append(at)
        return np.concatenate(cells), np.concatenate(points)

    return cuts


def batched_modulars(jobs, window, tol: float = 1e-8) -> list:
    """For each job ``(f, cells)``, the list ``modulars(cells, f, window,
    tol)`` returns, bit for bit, from one adaptive quadrature of every
    job's copies of the window.

    The copies are ordered job by job. In each round each job's ``f`` is
    evaluated once per distinct node row of its own copies; rows of
    different jobs never merge. Each copy starts from its job's breakpoints
    and has its job's cell budget, and a job whose ``f`` declares ``cuts``
    is asked for them once per distinct picked cell. A NaN modular raises
    :class:`ArithmeticError` naming its gauge and lambda, the first in job
    order.
    """
    check_tolerance(tol)
    jobs = [(f, list(cells)) for f, cells in jobs]
    flat = [cell for _, cells in jobs for cell in cells]
    if any(lam <= 0 for _, lam in flat):
        raise ValueError("modular scaling lambda must be positive")
    lo, hi = _window_ends(window)
    sizes = [len(cells) for _, cells in jobs]
    firsts = (np.cumsum(sizes, dtype=np.intp) - sizes).tolist()
    job_of = np.repeat(np.arange(len(jobs)), sizes)

    owner = job_of.tolist()

    def integrand(x, interval):
        runs = list(_runs(interval))
        heads = interval[[start for start, _ in runs]].tolist()
        owners = [owner[head] for head in heads]
        size = np.empty_like(x)
        first = 0
        for k, (_, stop) in enumerate(runs):
            # Each job's rows are one stretch of runs, evaluated at once.
            if k + 1 == len(runs) or owners[k + 1] != owners[k]:
                f = jobs[owners[k]][0]
                size[first:stop] = np.abs(_evaluate_rows(f, x[first:stop], interval[first:stop]))
                first = stop
        out = np.empty_like(x)
        # An overflow gives inf, which ends this copy's quadrature only.
        with np.errstate(over="ignore"):
            for head, (start, stop) in zip(heads, runs):
                eta, lam = flat[head]
                out[start:stop] = eta(lam * size[start:stop])
        return out

    # Each copy's breakpoint row is its job's, padded with the window's
    # start: a cut clipped onto an end makes an empty cell, which is dropped.
    rows = [tuple(getattr(f, "breakpoints", ())) for f, _ in jobs]
    width = max(map(len, rows), default=0)
    breakpoints = np.full((len(flat), width), lo)
    for row, first, size in zip(rows, firsts, sizes):
        breakpoints[first:first + size, :len(row)] = row
    finders = [getattr(f, "cuts", None) for f, _ in jobs]
    # A copy cut at every knot keeps its 20,000 cells for refinement.
    budgets = [_MAX_CELLS + (0 if finder is None else f.knot_count(lo, hi))
               for finder, (f, _) in zip(finders, jobs)]
    cuts = None if all(finder is None for finder in finders) else _job_cuts(finders, job_of)
    values, _ = integrate(integrand, np.full(len(flat), lo), np.full(len(flat), hi), tol=tol,
                          breakpoints=breakpoints, max_cells=np.repeat(budgets, sizes),
                          per_interval=True, cuts=cuts)
    out = []
    for (eta, lam), value in zip(flat, values.tolist()):
        # NaN: the integrand is not a number somewhere in the window, and no
        # value, 0 least of all, stands for it.
        if math.isnan(value):
            raise ArithmeticError(
                f"the modular of {eta.label} at lambda={lam:g} is NaN: "
                "the integrand is not a number on part of the window"
            )
        out.append(None if math.isinf(value) else max(0.0, value))
    return [out[first:first + size] for first, size in zip(firsts, sizes)]


def modulars(cells, f, window, tol: float = 1e-8) -> list:
    """The modular of ``f`` for each ``(eta, lam)`` of ``cells``: the
    integral over the window of eta(lam |f|), or ``None`` for a cell whose
    integral is infinite at working precision (an overflow), whether its
    gauge reaches infinity at some node or its finite values sum past the
    float range.

    One adaptive quadrature integrates every cell over its own copy of the
    window, each to ``tol`` (or to its rounding floor, 50 eps of its value,
    where that is larger) with its own 20,000-cell budget, so each value
    equals the one-cell call bit for bit. In each round ``f`` is evaluated
    once per distinct quadrature cell (the copies start from the same
    cells, and equal cells share one evaluation), and each gauge sees only
    its own copy's nodes; a copy whose integral is infinite ends there and
    leaves the others unaffected. A cell whose integral is NaN (``f`` is
    not a number somewhere in the window) raises :class:`ArithmeticError`
    naming its gauge and lambda. The line integral is truncated to the window by
    design; mass outside it is the caller's responsibility. ``f`` is
    signal-like: ``evaluate`` plus ``breakpoints`` (a
    :func:`~durrmeyer.signals.piecewise_constant` signal declares its cell
    edges, so each constant cell integrates to rounding), and optionally
    ``cuts`` with ``knot_count``, as a :class:`SeriesEvaluator` declares them:
    :func:`integrate` then cuts each picked cell at its knots and zero
    crossings, asking ``f.cuts`` once per distinct cell, and each copy's
    budget grows by its bound on the window's knots. This is the one-job
    call of :func:`batched_modulars`.
    """
    [values] = batched_modulars([(f, cells)], window, tol=tol)
    return values


def modular(eta: OrliczFunction, f, lam: float, window, tol: float = 1e-8) -> float:
    """Integral over the window of eta(lam |f|): the one-cell call of
    :func:`modulars`, raising :class:`ModularOverflowError` where the
    integral is infinite."""
    [value] = modulars([(eta, lam)], f, window, tol=tol)
    if value is None:
        raise ModularOverflowError(
            f"the modular of {eta.label} at lambda={lam:g} is infinite at working precision"
        )
    return value


def modular_distance(eta: OrliczFunction, f, g, lam: float, window,
                     tol: float = 1e-8) -> float:
    """Modular of the pointwise difference f - g."""
    return modular(eta, Difference(f, g), lam, window, tol=tol)


def _window_ends(window):
    """The window's ends as floats, refused unless finite and increasing."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window ends must be finite")
    if hi <= lo:
        raise ValueError("window is empty")
    return lo, hi


def _probe_sup(f, lo, hi):
    """max |f| over 257 equispaced probes of the window and the breakpoints
    of ``f`` in it: NaN if ``f`` is not a number at some probe."""
    probes = np.linspace(lo, hi, 257)
    extra = [p for p in getattr(f, "breakpoints", ()) if lo <= p <= hi]
    points = np.concatenate([probes, np.asarray(extra, dtype=float)]) if extra else probes
    return float(np.max(np.abs(np.asarray(f.evaluate(points), dtype=float))))


def luxemburg_norm(eta: OrliczFunction, f, window, tol: float = 1e-9) -> float:
    """inf of scalings s > 0 with modular of f/s at most one.

    One modular I = I[f/t] at the peak t of |f| over the probes of the
    window brackets the norm. A convex gauge with eta(0) = 0 has eta(c u)
    <= c eta(u) for c <= 1, so I[f/s] <= (t/s) I for s >= t and
    I[f/s] >= (t/s) I for s <= t: the norm lies between t and t * I. A
    gauge that declares a degree of homogeneity p has I[f/s] = I * (t/s)**p,
    so the norm is t * I**(1/p) exactly; where I is below one (its
    relative error dI / (p I) then exceeds the quadrature tolerance over p)
    a second modular at that estimate, where it is near one, refines it.
    Any other gauge runs k-section steps on the bracket: each takes the
    modulars at the interior ends of equal sections in one batched
    quadrature and keeps the section where the modular crosses one.

    A modular that overflows at t is infinite, so t doubles until it is
    finite. :class:`NormBracketError` is raised once t passes the scale cap,
    and for a k-section bracket that starts beyond it.
    """
    check_tolerance(tol)
    lo, hi = _window_ends(window)
    scale = _probe_sup(f, lo, hi)
    if scale == 0.0:
        return 0.0
    if not math.isfinite(scale):
        # Its inverse would be no scaling at all; from one, a signal that is
        # not a number or infinite fails as it would at any scaling.
        scale = 1.0

    quad_tol = min(tol * 1e-2, 1e-8)

    def modular_at(scales):
        # None where the modular overflows: it is infinite.
        return modulars([(eta, 1.0 / s) for s in scales], f, (lo, hi), tol=quad_tol)

    [value] = modular_at([scale])
    while value is None:
        scale *= 2.0
        if scale > _NORM_SCALE_CAP:
            raise NormBracketError(f"modular is infinite for scalings up to {_NORM_SCALE_CAP:g}")
        [value] = modular_at([scale])
    if value == 0.0:
        return 0.0  # f vanishes on the window up to quadrature precision
    degree = getattr(eta, "homogeneity", None)
    estimate = scale * value ** (1.0 / (1.0 if degree is None else degree))
    if degree is not None:
        if value < 1.0:
            [second] = modular_at([estimate])
            if second is not None:
                return estimate * second ** (1.0 / degree)
        return estimate

    bracket_lo, bracket_hi = min(scale, estimate), max(scale, estimate)
    if bracket_lo > _NORM_SCALE_CAP:
        raise NormBracketError(f"the norm exceeds the scale cap {_NORM_SCALE_CAP:g}")
    fractions = np.arange(1, _NORM_SECTIONS) / _NORM_SECTIONS
    while bracket_hi - bracket_lo > tol * bracket_hi:
        scales = (bracket_lo + (bracket_hi - bracket_lo) * fractions).tolist()
        # An overflowing modular is infinite, so above one.
        above = [v is None or v > 1.0 for v in modular_at(scales)]
        crossing = above.index(False) if False in above else len(scales)
        bracket = (scales[crossing - 1] if crossing > 0 else bracket_lo,
                   scales[crossing] if crossing < len(scales) else bracket_hi)
        if bracket == (bracket_lo, bracket_hi):
            break  # no float lies between the ends: tol is below resolution
        bracket_lo, bracket_hi = bracket
    return 0.5 * (bracket_lo + bracket_hi)
