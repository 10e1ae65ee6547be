"""Convex gauge functions, modular functionals, and Luxemburg norms.

A gauge eta vanishes at zero, is positive and convex on the positive axis,
and turns |f| into the modular integral of eta(lambda |f|) over a window.
The power and logarithm-weighted families double under scaling (so modular
and norm convergence agree); the exponential family does not, which is why
modular statements there hold only for small enough lambda. Each gauge
declares this as ``delta2``. A gauge also declares ``homogeneity``: the
degree p with eta(s u) = s**p eta(u) for every s > 0 (p for the power
family), or ``None``. :func:`luxemburg_norm` trusts the declaration, so a
user gauge may make it too; a homogeneous modular gives the norm in closed
form, and for any other gauge the modular at one scaling brackets it.

The modulars that one computation needs of one function, whatever their
gauges and scalings, are one batched adaptive quadrature
(:func:`modulars`), which evaluates the function once per distinct node
in each round.
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
    "modular",
    "luxemburg_norm",
    "modular_distance",
]

_EXP_ARG_CAP = 700.0
_NORM_SCALE_CAP = 1e9
_MAX_CELLS = 20000  # quadrature cells per modular
# Each k-section step of a Luxemburg norm cuts its bracket into this many equal
# sections and takes the modulars at their interior ends in one quadrature.
_NORM_SECTIONS = 9


class ModularOverflowError(OverflowError):
    """The modular integrand overflows: the integral is infinite at working
    precision for this scaling."""


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

    delta2 = True

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

    delta2 = True
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
    """u -> exp(u**alpha) - 1, the exponential-space gauge (not doubling)."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            # Below one, exp(u**alpha) - 1 is concave near zero.
            raise ValueError("exponential gauge needs a finite alpha >= 1 for convexity")

    delta2 = False
    homogeneity = None

    @property
    def label(self) -> str:
        return f"exponential({self.alpha:g})"

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        powered = arr**self.alpha
        if float(np.max(powered, initial=0.0)) > _EXP_ARG_CAP:
            raise ModularOverflowError(
                f"exponential gauge argument exceeds {_EXP_ARG_CAP:g}; "
                "the modular is infinite at working precision"
            )
        out = np.expm1(powered)
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


def _gauge(eta, lam, size):
    """eta(lam * size), raising :class:`ModularOverflowError` where it
    overflows to infinity, as the exponential gauge does past its cap."""
    with np.errstate(over="ignore"):
        out = np.asarray(eta(lam * size), dtype=float)
    if np.isinf(out).any():
        raise ModularOverflowError(f"{eta.label} at lambda={lam:g} overflows")
    return out


def modulars(cells, f, window, tol: float = 1e-8) -> list:
    """The modular of ``f`` for each ``(eta, lam)`` of ``cells``: the
    integral over the window of eta(lam |f|), or ``None`` for a cell whose
    gauge overflows to infinity at some node (the integral is infinite at
    working precision).

    One adaptive quadrature integrates every cell over its own copy of the
    window, each to ``tol`` (or to its rounding floor, 50 eps of its value,
    where that is larger) with its own 20,000-cell budget, so each value
    equals the one-cell call bit for bit. In each round ``f`` is evaluated
    once per distinct quadrature cell (the copies start from the same
    cells, and equal cells share one evaluation), and each gauge sees only
    its own copy's nodes; an overflowing cell ends there and leaves the
    others unaffected. A cell whose integral is NaN (``f`` is not a number
    somewhere in the window) raises :class:`ArithmeticError` naming its
    gauge and lambda. The line integral is truncated to the window by
    design; mass outside it is the caller's responsibility. ``f`` is
    signal-like: ``evaluate`` plus ``breakpoints`` (a
    :func:`~durrmeyer.signals.piecewise_constant` signal declares its cell
    edges, so each constant cell integrates to rounding), and optionally
    ``cuts`` with ``knot_count``, as a :class:`SeriesEvaluator` declares them:
    :func:`integrate` then cuts each picked cell at its knots and zero
    crossings, and each copy's budget grows by its bound on the window's
    knots.
    """
    check_tolerance(tol)
    cells = list(cells)
    if any(lam <= 0 for _, lam in cells):
        raise ValueError("modular scaling lambda must be positive")
    lo, hi = _window_ends(window)
    overflowed = np.zeros(len(cells), dtype=bool)

    def integrand(x, interval):
        size = np.abs(_evaluate_rows(f, x, interval))
        out = np.empty_like(x)
        cuts = ((interval[1:] != interval[:-1]).nonzero()[0] + 1).tolist()
        for start, stop in zip([0] + cuts, cuts + [interval.size]):
            j = interval[start]
            eta, lam = cells[j]
            try:
                out[start:stop] = _gauge(eta, lam, size[start:stop])
            except ModularOverflowError:
                overflowed[j] = True
                out[start:stop] = np.nan  # ends this cell's quadrature only
        return out

    n = len(cells)
    cuts = getattr(f, "cuts", None)
    # A cell cut at every knot keeps its 20,000 cells for refinement.
    budget = _MAX_CELLS + (0 if cuts is None else f.knot_count(lo, hi))
    values, _ = integrate(integrand, np.full(n, lo), np.full(n, hi), tol=tol,
                          breakpoints=tuple(getattr(f, "breakpoints", ())),
                          max_cells=budget, per_interval=True, cuts=cuts)
    values = [None if over else float(value) for value, over in zip(values, overflowed)]
    _refuse_nan(cells, values)
    return [None if value is None else max(0.0, value) for value in values]


def _refuse_nan(cells, values):
    """Raise for the first cell whose modular is NaN: its integrand is not a
    number somewhere in the window, and no value, 0 least of all, stands for
    it. Overflowing cells (``None``) are left to the caller."""
    for (eta, lam), value in zip(cells, values):
        if value is not None and math.isnan(value):
            raise ArithmeticError(
                f"the modular of {eta.label} at lambda={lam:g} is NaN: "
                "the integrand is not a number on part of the window"
            )


def modular(eta: OrliczFunction, f, lam: float, window, tol: float = 1e-8) -> float:
    """Integral over the window of eta(lam |f|): the one-cell call of
    :func:`modulars`, raising :class:`ModularOverflowError` where the gauge
    overflows."""
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
