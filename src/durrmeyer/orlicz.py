"""Convex gauge functions, modular functionals, and Luxemburg norms.

A gauge eta vanishes at zero, is positive and convex on the positive axis,
and turns |f| into the modular integral of eta(lambda |f|) over a window.
The power and logarithm-weighted families double under scaling (so modular
and norm convergence agree); the exponential family does not, which is why
modular statements there hold only for small enough lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quadrature import integrate
from .signals import GridFunction

__all__ = [
    "ModularOverflowError",
    "NormBracketError",
    "PowerFunction",
    "ZygmundFunction",
    "ExponentialFunction",
    "OrliczFunction",
    "orlicz_function",
    "phi_eval",
    "modular",
    "luxemburg_norm",
    "modular_distance",
]

_EXP_ARG_CAP = 700.0
_NORM_SCALE_CAP = 1e9
_NORM_SCALE_FLOOR = 1e-12


class ModularOverflowError(OverflowError):
    """The modular integrand overflows: the integral is infinite at working
    precision for this scaling."""


class NormBracketError(ArithmeticError):
    """No finite scaling brings the modular below one; the function lies
    outside the gauge's space at this window and precision."""


@dataclass(frozen=True)
class PowerFunction:
    """u -> u**p, the gauge of the classical p-integrable space."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError("power gauge needs a finite p >= 1 for convexity")

    delta2 = True

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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("exponential gauge needs a finite alpha > 0")

    delta2 = False

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


def orlicz_function(variant: str, **params) -> OrliczFunction:
    """Factory keyed by variant name, mirroring the CLI configuration."""
    if variant == "power":
        return PowerFunction(float(params["p"]))
    if variant == "zygmund":
        return ZygmundFunction(float(params["alpha"]), float(params["beta"]))
    if variant == "exponential":
        return ExponentialFunction(float(params["alpha"]))
    raise ValueError(f"unknown gauge variant {variant!r}")


def phi_eval(eta: OrliczFunction, u):
    """Evaluate the gauge at nonnegative arguments."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gauge arguments must be nonnegative")
    return eta(u)


class _Difference:
    """Pointwise difference of two evaluables, with merged breakpoints."""

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


def _grid_modular(eta, f: GridFunction, lam, lo, hi):
    # Piecewise-constant cells integrate exactly: width times gauge value.
    step = f.grid.step
    starts = f.grid.points()
    lefts = np.maximum(starts, lo)
    rights = np.minimum(starts + step, hi)
    widths = np.maximum(rights - lefts, 0.0)
    gauged = np.asarray(eta(lam * np.abs(f.values)), dtype=float)
    return float(np.dot(widths, gauged))


def modular(eta: OrliczFunction, f, lam: float, window, tol: float = 1e-8,
            max_cells: int = 20000) -> float:
    """Integral over the window of eta(lam |f|).

    The line integral is truncated to the caller's window by design; mass
    outside the window is the caller's responsibility. ``f`` may be a
    signal-like object (``evaluate`` plus ``breakpoints``) or a
    :class:`GridFunction`, which integrates exactly cell by cell.
    """
    if lam <= 0:
        raise ValueError("modular scaling lambda must be positive")
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("window is empty")

    if isinstance(f, GridFunction):
        return _grid_modular(eta, f, lam, lo, hi)

    def integrand(x):
        return np.asarray(eta(lam * np.abs(np.asarray(f.evaluate(x), dtype=float))))

    cuts = tuple(getattr(f, "breakpoints", ()))
    value, _ = integrate(integrand, lo, hi, tol=tol, breakpoints=cuts,
                         max_cells=max_cells)
    return max(0.0, value)


def modular_distance(eta: OrliczFunction, f, g, lam: float, window,
                     tol: float = 1e-8, max_cells: int = 20000) -> float:
    """Modular of the pointwise difference f - g."""
    return modular(eta, _Difference(f, g), lam, window, tol=tol, max_cells=max_cells)


def _is_identically_zero(f, lo, hi):
    probes = np.linspace(lo, hi, 257)
    extra = [p for p in getattr(f, "breakpoints", ()) if lo <= p <= hi]
    points = np.concatenate([probes, np.asarray(extra, dtype=float)]) if extra else probes
    return not np.any(np.asarray(f.evaluate(points), dtype=float))


def luxemburg_norm(eta: OrliczFunction, f, window, tol: float = 1e-9) -> float:
    """inf of scalings s > 0 with modular of f/s at most one.

    Bisection on s after a geometric bracket search; the modular is
    nonincreasing in s, so the bracket is well defined whenever the
    modular drops below one before the scale cap.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("window is empty")
    if _is_identically_zero(f, lo, hi):
        return 0.0

    quad_tol = max(min(tol * 1e-2, 1e-8), 1e-13)

    def modular_at(scale):
        try:
            return modular(eta, f, 1.0 / scale, (lo, hi), tol=quad_tol)
        except ModularOverflowError:
            return math.inf

    scale = 1.0
    if modular_at(scale) > 1.0:
        while modular_at(scale) > 1.0:
            scale *= 2.0
            if scale > _NORM_SCALE_CAP:
                raise NormBracketError(
                    f"modular stays above one for scalings up to {_NORM_SCALE_CAP:g}"
                )
        bracket_lo, bracket_hi = scale / 2.0, scale
    else:
        while modular_at(scale) <= 1.0:
            scale /= 2.0
            if scale < _NORM_SCALE_FLOOR:
                return scale
        bracket_lo, bracket_hi = scale, scale * 2.0

    while bracket_hi - bracket_lo > tol * bracket_hi:
        mid = 0.5 * (bracket_lo + bracket_hi)
        if modular_at(mid) <= 1.0:
            bracket_hi = mid
        else:
            bracket_lo = mid
    return 0.5 * (bracket_lo + bracket_hi)
