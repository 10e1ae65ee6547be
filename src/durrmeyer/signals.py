"""Test-signal catalog and regularity measurements.

Signals carry the regularity metadata the convergence theory consumes: a
sup-norm bound, a Lipschitz constant when one is known, breakpoints where
the function jumps or kinks, a continuity class, and a decay envelope E
with |f(x)| <= E(|x|) when one is known. The envelope lets a series with a
decaying kernel truncate each point's lattice sum where the skipped
samples are small, not where the sup norm alone would allow. The modulus of
continuity is estimated from below on a pair grid and, when a Lipschitz
constant is declared, bounded from above in closed form, so callers can
pick whichever side of the estimate their argument needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "UNIFORM",
    "BOUNDED_ONLY",
    "Signal",
    "UniformGrid",
    "ModulusEstimate",
    "builtin_signal",
    "indicator",
    "piecewise_constant",
    "modulus_of_continuity",
    "sup_error",
]

UNIFORM = "uniformly-continuous"
BOUNDED_ONLY = "bounded-only"

_MAX_PAIR_POINTS = 4_000_000


@dataclass(frozen=True)
class Signal:
    """A real signal with evaluation and regularity metadata.

    ``evaluate`` accepts a float or ndarray and returns the same shape.
    ``envelope``, when declared, is a vectorized E, nonincreasing on
    r >= 0, with |f(x)| <= E(|x|). Declared metadata is a promise the test
    suite spot-checks, not a value derived from the samples.
    """

    name: str
    evaluate: Callable
    breakpoints: tuple = ()
    sup_norm: Optional[float] = None
    lipschitz_constant: Optional[float] = None
    continuity: str = UNIFORM
    envelope: Optional[Callable] = None

    def __post_init__(self):
        if tuple(sorted(self.breakpoints)) != tuple(self.breakpoints):
            raise ValueError("breakpoints must be sorted")
        if self.sup_norm is not None and self.sup_norm < 0:
            raise ValueError("sup norm must be nonnegative")
        if self.lipschitz_constant is not None and self.lipschitz_constant < 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        if self.lipschitz_constant is not None and self.continuity != UNIFORM:
            raise ValueError("a Lipschitz constant needs a uniformly continuous signal")

    def __call__(self, x):
        return self.evaluate(x)

    def scaled(self, c: float) -> "Signal":
        base = self.evaluate
        base_envelope = self.envelope
        factor = float(c)
        return replace(
            self,
            name=f"{factor:g}*{self.name}",
            evaluate=lambda x: factor * base(x),
            sup_norm=None if self.sup_norm is None else abs(factor) * self.sup_norm,
            lipschitz_constant=None if self.lipschitz_constant is None
            else abs(factor) * self.lipschitz_constant,
            envelope=None if base_envelope is None
            else lambda r: abs(factor) * base_envelope(r),
        )


def _check_step(step: float) -> None:
    if not 0 < step < math.inf:
        raise ValueError(f"grid step must be finite and positive, got {step!r}")


@dataclass(frozen=True)
class UniformGrid:
    """Equispaced evaluation grid: start + step * i for i < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.start):
            raise ValueError("grid start must be finite")
        _check_step(self.step)
        if self.count < 1:
            raise ValueError("grid needs at least one point")

    @classmethod
    def from_window(cls, lo: float, hi: float, step: float) -> "UniformGrid":
        _check_step(step)
        if hi <= lo:
            raise ValueError("grid window is empty")
        span = (hi - lo) / step
        if not math.isfinite(span):
            raise ValueError(f"grid window [{lo:g}, {hi:g}] at step {step:g} "
                             "has no finite point count")
        return cls(float(lo), float(step), int(round(span)) + 1)

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


def _piecewise(conditions_values):
    """Build a vectorized evaluator from (mask_fn, value_fn) pairs, where the
    value function is only applied where its mask holds."""

    def evaluate(x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        out = np.zeros_like(flat)
        for mask_fn, value_fn in conditions_values:
            mask = mask_fn(flat)
            if np.any(mask):
                out[mask] = value_fn(flat[mask])
        return float(out[0]) if arr.ndim == 0 else out

    return evaluate


def _rational_envelope(r):
    """50 on [0, 1], then max(9/r^2, 50/r^4): the two rational tails of
    ``piecewise_rational``, which equal 50 at r = 1."""
    r = np.maximum(np.asarray(r, dtype=float), 1.0)
    return np.maximum(9.0 / r**2, 50.0 / r**4)


def builtin_signal(which: str, value: Optional[float] = None) -> Signal:
    """Catalog of reference signals used across the test harness.

    ``runge``: 1/(x^2+1), smooth with known Lipschitz constant.
    ``box``: plateau indicator, 1 on |x| <= 1 else 0.
    ``piecewise_rational``: rational tails around two interior steps.
    ``constant``: requires ``value``.
    ``identity``: x itself (unbounded, Lipschitz 1).
    """
    if which == "runge":
        def evaluate(x):
            arr = np.asarray(x, dtype=float)
            out = 1.0 / (arr * arr + 1.0)
            return float(out) if arr.ndim == 0 else out

        return Signal(
            name="runge",
            evaluate=evaluate,
            sup_norm=1.0,
            lipschitz_constant=3.0 * math.sqrt(3.0) / 8.0,
            continuity=UNIFORM,
            envelope=lambda r: 1.0 / (np.asarray(r, dtype=float) ** 2 + 1.0),
        )

    if which == "box":
        return Signal(
            name="box",
            evaluate=_piecewise([(lambda t: np.abs(t) <= 1.0, lambda t: np.ones_like(t))]),
            breakpoints=(-1.0, 1.0),
            sup_norm=1.0,
            continuity=BOUNDED_ONLY,
            envelope=lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
        )

    if which == "piecewise_rational":
        return Signal(
            name="piecewise_rational",
            evaluate=_piecewise([
                (lambda t: t < -1.0, lambda t: 9.0 / (t * t)),
                (lambda t: (t >= -1.0) & (t < 0.0), lambda t: np.full_like(t, 2.0)),
                (lambda t: (t >= 0.0) & (t < 1.0), lambda t: np.ones_like(t)),
                (lambda t: t >= 1.0, lambda t: -50.0 / t**4),
            ]),
            breakpoints=(-1.0, 0.0, 1.0),
            sup_norm=50.0,
            continuity=BOUNDED_ONLY,
            envelope=_rational_envelope,
        )

    if which == "constant":
        if value is None:
            raise ValueError("constant signal needs a value")
        c = float(value)
        if not math.isfinite(c):
            raise ValueError(f"constant signal needs a finite value, got {c!r}")

        def evaluate(x):
            arr = np.asarray(x, dtype=float)
            out = np.full_like(arr, c)
            return float(out) if arr.ndim == 0 else out

        return Signal(
            name=f"constant({c:g})",
            evaluate=evaluate,
            sup_norm=abs(c),
            lipschitz_constant=0.0,
            continuity=UNIFORM,
        )

    if which == "identity":
        def evaluate(x):
            arr = np.asarray(x, dtype=float)
            return float(arr) if arr.ndim == 0 else arr.copy()

        return Signal(
            name="identity",
            evaluate=evaluate,
            lipschitz_constant=1.0,
            continuity=UNIFORM,
        )

    raise ValueError(f"unknown builtin signal {which!r}")


def indicator(lo: float, hi: float, value: float = 1.0) -> Signal:
    """Scaled indicator of the half-open interval [lo, hi): a one-cell
    :func:`piecewise_constant` signal."""
    lo, hi, value = float(lo), float(hi), float(value)
    return piecewise_constant([(lo, hi, value)], name=f"indicator[{lo:g}..{hi:g})*{value:g}")


def piecewise_constant(pieces, name: str = "piecewise-constant") -> Signal:
    """Signal from (lo, hi, value) rows, each a half-open constant cell."""
    rows = [(float(lo), float(hi), float(v)) for lo, hi, v in pieces]
    if not rows:
        raise ValueError("at least one piece is required")
    for lo, hi, v in rows:
        if not lo < hi:
            raise ValueError("each piece needs lo < hi")
        if not math.isfinite(v):
            raise ValueError(f"each piece needs a finite value, got {v!r}")
    edges = tuple(sorted({edge for lo, hi, _ in rows for edge in (lo, hi)}))
    evaluate = _piecewise([
        (lambda t, lo=lo, hi=hi: (t >= lo) & (t < hi), lambda t, v=v: np.full_like(t, v))
        for lo, hi, v in rows
    ])
    peak = max(abs(v) for _, _, v in rows)
    reach = max(abs(edge) for edge in edges)
    return Signal(
        name=name,
        evaluate=evaluate,
        breakpoints=edges,
        sup_norm=peak,
        continuity=BOUNDED_ONLY,
        envelope=lambda r: np.where(np.asarray(r) <= reach, peak, 0.0),
    )


@dataclass(frozen=True)
class ModulusEstimate:
    """Two-sided envelope for the modulus of continuity at one delta.

    ``grid_lower`` is a supremum over sampled pairs, hence a lower estimate;
    ``lipschitz_upper`` is the certified bound L*delta when L is declared.
    """

    grid_lower: float
    lipschitz_upper: Optional[float]


def modulus_of_continuity(f: Signal, delta: float, window, resolution: int = 32) -> ModulusEstimate:
    """Estimate sup{|f(x)-f(y)| : |x-y| < delta} inside ``window``.

    Pairs are taken on a grid of stride delta/resolution, offset by every
    multiple below delta, so the estimate is a lower bound up to grid
    resolution.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("window is empty")
    if f.continuity != UNIFORM:
        warnings.warn(
            f"signal {f.name!r} is not uniformly continuous; its modulus of "
            "continuity does not vanish with delta",
            stacklevel=2,
        )

    stride = delta / resolution
    count = int(math.floor((hi - lo) / stride)) + 1
    if count > _MAX_PAIR_POINTS:
        raise ValueError("pair grid too fine; enlarge delta or reduce resolution")
    values = np.asarray(f.evaluate(lo + stride * np.arange(count)), dtype=float)
    best = 0.0
    for offset in range(1, resolution):
        if offset >= count:
            break
        best = max(best, float(np.max(np.abs(values[offset:] - values[:-offset]))))

    upper = None
    if f.lipschitz_constant is not None:
        upper = f.lipschitz_constant * delta
    return ModulusEstimate(best, upper)


def sup_error(f: Signal, values, grid: UniformGrid) -> float:
    """max_i |f(x_i) - values_i| over the grid."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.count,):
        raise ValueError("values do not match the grid")
    exact = np.asarray(f.evaluate(grid.points()), dtype=float)
    return float(np.max(np.abs(exact - vals)))
