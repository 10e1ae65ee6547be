"""Sampling-series operators built from a reconstruction kernel and a
sample functional.

The operator at scale w reads a generalized sample for each lattice index k
(a point value, a windowed mean, or a convolution against a kernel) and
recombines the samples with shifted copies of the reconstruction kernel.
Truncation of the lattice sum is certified from the kernel's support
metadata. An evaluation context stores each sample once, computed only when a
requested point's stencil touches it, and sums the series for many points in
vectorized blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from . import kernels as _k
from .moments import continuous_algebraic_moment
from .quadrature import integrate
from .signals import Signal, UniformGrid

__all__ = [
    "PointMass",
    "Window",
    "Convolution",
    "SampleFunctional",
    "ReductionKind",
    "OperatorSpec",
    "SeriesEvaluator",
    "generalized_sample",
    "evaluate",
    "evaluate_grid",
    "reduce_special_case",
]

_POU_VALIDATION_PROBES = 128
_SUP_ESTIMATE_REGION = (-100.0, 100.0)
_SUP_ESTIMATE_POINTS = 4001
# Stencil values per assembly block; bounds the (points x stencil)
# temporaries at about half a megabyte each, whatever the grid size.
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class PointMass:
    """Sample functional that reads the signal exactly at lattice points.

    Implemented as an exact evaluation branch, not as a narrow-window
    limit, so it reproduces the point-sampling series identically.
    """

    mass = 1.0


@dataclass(frozen=True)
class Window:
    """Weighted local mean over [(k+lo)/w, (k+hi)/w)."""

    lo: float
    hi: float
    weight: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("window functional needs lo < hi")
        if not self.weight > 0:
            raise ValueError("window functional weight must be positive")

    @property
    def mass(self) -> float:
        return self.weight * (self.hi - self.lo)


@dataclass(frozen=True)
class Convolution:
    """Sample functional convolving the signal against a scaled kernel."""

    kernel: _k.Kernel
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.quad_tol <= 0:
            raise ValueError("quadrature tolerance must be positive")
        mass = continuous_algebraic_moment(self.kernel, 0, tol=1e-8)
        if abs(mass.value - 1.0) > 1e-6 + mass.certified_error:
            warnings.warn(
                f"convolution kernel {self.kernel.name!r} has signed mass "
                f"{mass.value:.6g}; the convergence theory assumes unit mass",
                stacklevel=2,
            )

    @property
    def mass(self) -> float:
        return self.kernel.l1_norm


SampleFunctional = Union[PointMass, Window, Convolution]


class ReductionKind(Enum):
    GENERALIZED = "generalized"
    KANTOROVICH = "kantorovich"
    GENERAL_DURRMEYER = "general-durrmeyer"


@dataclass(frozen=True)
class OperatorSpec:
    """A fully configured operator: kernel, sample functional, scale, and
    truncation/quadrature tolerances.

    Construction validates the kernel's partition-of-unity residual, since
    every reconstruction guarantee starts from that identity.
    """

    phi: _k.Kernel
    psi: SampleFunctional
    w: float
    series_tol: float = 1e-9
    quad_tol: float = 1e-10
    pou_threshold: float = 1e-3

    def __post_init__(self):
        if not self.w > 0:
            raise ValueError("scale w must be positive")
        if self.series_tol <= 0 or self.quad_tol <= 0 or self.pou_threshold <= 0:
            raise ValueError("tolerances must be positive")
        if not isinstance(self.psi, (PointMass, Window, Convolution)):
            raise TypeError("psi must be a sample functional")
        support = self.phi.support
        if isinstance(support, _k.CompactSupport):
            radius = _k.compact_lattice_radius(support)
        else:
            radius = _k.decaying_lattice_radius(support, 0.5 * self.pou_threshold)
        probes = np.arange(_POU_VALIDATION_PROBES) / _POU_VALIDATION_PROBES
        residual = _k.partition_of_unity_residual(self.phi, probes, radius)
        if residual > self.pou_threshold:
            raise ValueError(
                f"kernel {self.phi.name!r} fails the partition-of-unity check: "
                f"residual {residual:g} exceeds {self.pou_threshold:g}"
            )


def reduce_special_case(spec: OperatorSpec) -> ReductionKind:
    """Classify the operator family the sample functional reduces to."""
    if isinstance(spec.psi, PointMass):
        return ReductionKind.GENERALIZED
    if isinstance(spec.psi, Window) and (spec.psi.lo, spec.psi.hi, spec.psi.weight) == (0.0, 1.0, 1.0):
        return ReductionKind.KANTOROVICH
    return ReductionKind.GENERAL_DURRMEYER


def _sup_bound(signal, kind: str) -> float:
    if signal.sup_norm is not None:
        return signal.sup_norm
    warnings.warn(
        f"signal {signal.name!r} declares no sup norm; the {kind} truncation "
        f"bound uses a grid estimate over {_SUP_ESTIMATE_REGION} and is not "
        "certified",
        stacklevel=3,
    )
    pts = np.linspace(*_SUP_ESTIMATE_REGION, _SUP_ESTIMATE_POINTS)
    return 1.1 * float(np.max(np.abs(np.asarray(signal.evaluate(pts), dtype=float)))) + 1e-30


class SeriesEvaluator:
    """One evaluation context: each lattice sample is computed at most once.

    Samples live in a dense array indexed by ``k - k0`` beside a mask of the
    computed ones; a request computes only the indices its points' stencils
    touch. The store lives on the instance, so repeated module-level
    ``evaluate`` calls stay cache-free while a grid pass or a
    convergence-study cell shares samples across its own points.
    """

    def __init__(self, spec: OperatorSpec, signal: Signal):
        self.spec = spec
        self.signal = signal
        self._k0 = 0
        self._values = np.empty(0)
        self._known = np.zeros(0, dtype=bool)
        self._support = spec.phi.support
        if isinstance(self._support, _k.DecayingSupport):
            sample_sup = spec.psi.mass * _sup_bound(signal, "series")
            self._radius = _k.decaying_lattice_radius(
                self._support, spec.series_tol / max(sample_sup, 1e-300)
            )
            self._width = 2 * self._radius + 1
        else:
            self._radius = None
            self._width = int(math.floor(self._support.hi - self._support.lo)) + 3
        if isinstance(spec.psi, Convolution):
            kernel = spec.psi.kernel
            if isinstance(kernel.support, _k.CompactSupport):
                self._conv_cut = (kernel.support.lo, kernel.support.hi)
                self._conv_tail_tol = spec.psi.quad_tol
            else:
                f_sup = max(_sup_bound(signal, "convolution"), 1e-300)
                cutoff = max(kernel.support.radius, 1.0)
                while _k.integral_tail_bound(kernel.support, cutoff) * f_sup > 0.5 * spec.psi.quad_tol:
                    cutoff *= 2.0
                    if cutoff > 1e7:
                        raise ValueError(
                            "convolution tail tolerance unreachable for kernel "
                            f"{kernel.name!r}"
                        )
                self._conv_cut = (-cutoff, cutoff)
                self._conv_tail_tol = 0.5 * spec.psi.quad_tol

    @property
    def breakpoints(self) -> tuple:
        """Signal breakpoints plus the edges of each zone the operator can
        smear them into; integrating across these cuts keeps the narrow
        reconstruction-error bumps visible to adaptive quadrature."""
        base = tuple(self.signal.breakpoints)
        if not base:
            return ()
        if self._radius is None:
            phi_extent = max(abs(self._support.lo), abs(self._support.hi))
        else:
            phi_extent = float(self._radius)
        psi = self.spec.psi
        if isinstance(psi, Window):
            psi_extent = max(abs(psi.lo), abs(psi.hi))
        elif isinstance(psi, Convolution):
            psi_extent = max(abs(self._conv_cut[0]), abs(self._conv_cut[1]))
        else:
            psi_extent = 0.0
        margin = (phi_extent + psi_extent) / self.spec.w
        cuts = set()
        for b in base:
            cuts.update((b - margin, b, b + margin))
        return tuple(sorted(cuts))

    def sample(self, k: int) -> float:
        """The k-th sample, computed on first use."""
        k = int(k)
        self._fill(np.array([k]), np.array([k]))
        return float(self._values[k - self._k0])

    def _compute_sample(self, k: int) -> float:
        spec = self.spec
        w = spec.w
        psi = spec.psi
        f = self.signal
        if isinstance(psi, PointMass):
            return float(f.evaluate(k / w))
        if isinstance(psi, Window):
            a = (k + psi.lo) / w
            b = (k + psi.hi) / w
            tol = spec.quad_tol / (psi.weight * w)
            value, _ = integrate(
                lambda u: np.asarray(f.evaluate(u), dtype=float),
                a, b, tol=tol, breakpoints=f.breakpoints,
            )
            return psi.weight * w * value

        kernel = psi.kernel
        lo, hi = self._conv_cut

        def integrand(t):
            return np.asarray(kernel.evaluate(t), dtype=float) * np.asarray(
                f.evaluate((t + k) / w), dtype=float
            )

        cuts = list(kernel.breakpoints)
        cuts.extend(w * s - k for s in f.breakpoints)
        value, _ = integrate(integrand, lo, hi, tol=self._conv_tail_tol,
                             breakpoints=cuts, max_cells=40000)
        return value

    def _stencils(self, points: np.ndarray) -> tuple:
        """First and last lattice index of each point's stencil."""
        wx = self.spec.w * points
        if self._radius is None:
            lo = np.ceil(wx - self._support.hi) - 1
            hi = np.floor(wx - self._support.lo) + 1
        else:
            lo = np.ceil(wx - self._radius)
            hi = np.floor(wx + self._radius)
        return lo.astype(np.int64), hi.astype(np.int64)

    def _index_range(self, x: float) -> np.ndarray:
        """The lattice indices of one point's stencil."""
        lo, hi = self._stencils(np.array([float(x)]))
        return np.arange(lo[0], hi[0] + 1)

    def _grow(self, first: int, last: int):
        """Extend the store to cover the indices first..last."""
        k0, size = self._k0, self._values.size
        if size:
            if k0 <= first and last < k0 + size:
                return
            # Grow at least geometrically, so a sweep of small requests
            # copies the store only a logarithmic number of times.
            first = min(first, k0 - size) if first < k0 else k0
            last = max(last, k0 + 2 * size - 1) if last >= k0 + size else k0 + size - 1
        values = np.full(last - first + 1, np.nan)
        known = np.zeros(last - first + 1, dtype=bool)
        values[k0 - first:k0 - first + size] = self._values
        known[k0 - first:k0 - first + size] = self._known
        self._k0, self._values, self._known = first, values, known

    def _fill(self, lo: np.ndarray, hi: np.ndarray):
        """Compute, in index order, each sample not yet known in the union
        of the index intervals [lo, hi]."""
        first, last = int(lo.min()), int(hi.max())
        self._grow(first, last)
        # Difference array: +1 where an interval opens, -1 just past its end.
        n = last - first + 2
        depth = np.cumsum(np.bincount(lo - first, minlength=n)
                          - np.bincount(hi - first + 1, minlength=n))[:-1]
        start = first - self._k0
        todo = np.flatnonzero((depth > 0) & ~self._known[start:start + n - 1])
        for i in todo.tolist():
            self._values[start + i] = self._compute_sample(first + i)
            self._known[start + i] = True

    def prefill(self, points: np.ndarray):
        """Compute every sample the points' stencils touch, and no other."""
        self._fill(*self._stencils(np.asarray(points, dtype=float).ravel()))

    def _assemble(self, points: np.ndarray) -> np.ndarray:
        """Series values at a 1-d array of points, one row block at a time."""
        out = np.empty(points.size)
        if not points.size:
            return out
        lo, hi = self._stencils(points)
        self._fill(lo, hi)
        # Every row has the same length, so a point's sum does not depend on
        # which other points share its block.
        width = max(self._width, int(np.max(hi - lo)) + 1)
        offsets = np.arange(width)
        rows = max(1, _BLOCK_VALUES // width)
        w = self.spec.w
        for start in range(0, points.size, rows):
            block = slice(start, start + rows)
            ks = lo[block, None] + offsets
            last = hi[block, None]
            weights = np.asarray(self.spec.phi.evaluate(w * points[block, None] - ks),
                                 dtype=float)
            samples = self._values[np.minimum(ks, last) - self._k0]
            out[block] = np.where(ks <= last, weights * samples, 0.0).sum(axis=1)
        return out

    def at(self, x: float) -> float:
        return float(self._assemble(np.array([float(x)]))[0])

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        values = self._assemble(arr.ravel())
        return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)

    def on_grid(self, points: np.ndarray) -> np.ndarray:
        return self._assemble(np.asarray(points, dtype=float).ravel())


def generalized_sample(spec: OperatorSpec, f: Signal, k: int) -> float:
    """The k-th generalized sample: w times the integral of the scaled
    sample kernel against the signal (a point value for point masses)."""
    return SeriesEvaluator(spec, f)._compute_sample(int(k))


def evaluate(spec: OperatorSpec, f: Signal, x: float) -> float:
    """Operator value at one point (no cross-call sample cache)."""
    return SeriesEvaluator(spec, f).at(float(x))


def evaluate_grid(spec: OperatorSpec, f: Signal, grid: UniformGrid,
                  workers: int = 1) -> np.ndarray:
    """Operator values on a uniform grid, each sample computed once.

    ``workers`` is accepted and ignored: assembly is single-threaded and
    vectorized.
    """
    return SeriesEvaluator(spec, f).on_grid(grid.points())
