"""Sampling-series operators built from a reconstruction kernel and a
sample functional.

The operator at scale w reads a generalized sample w * integral of
psi(w u - k) f(u) du for each lattice index k (a point value for a point
mass; a window is its kernel) and recombines the samples with shifted copies
of the reconstruction kernel. A compact kernel reads exactly the samples it
weights, the k with w x - k in its support. The samples a request is missing
share one batched quadrature per ``_SAMPLE_CHUNK`` of them for every psi,
each cut at its own breakpoints inside psi's reach: a window's sample starts
as one uncut cell. Truncation of the lattice sum is certified from the
kernel's support metadata. For a decaying kernel each point x gets its own
radius: the first rung r of the doubling ladder at which

    psi.mass * lattice_tail_bound(r) / 2 * (E(x + (r+lo)/w) + E((r-hi)/w - x))

meets ``series_tol``, with lo/hi the reach of psi (0 for a point mass; the
integral cutoff -+C for a decaying psi, whose computed samples integrate over
it alone), E evaluated at max(0, .). E is the signal's declared decay
envelope capped at its sup norm, or the sup norm where it declares none.
Each term is a one-sided lattice tail times the envelope at the nearest
omitted sample on that side, so the bound is certified. No per-point radius
exceeds the sup-norm radius ``_radius``; a point that needs a radius beyond
the ladder's cap is refused. An evaluation context stores each sample
once, computed only when a requested point's stencil touches it, and sums
the series for many points in vectorized blocks, one row width per radius.
For a compact phi it also tells a modular quadrature where the series kinks
(``SeriesEvaluator.cuts``): at its lattice knots, and for a B-spline 2
series at its zero crossings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import kernels as _k
from .moments import continuous_algebraic_moment
from .quadrature import QuadratureError, check_tolerance, integrate
from .signals import Signal, UniformGrid

__all__ = [
    "PointMass",
    "Window",
    "Convolution",
    "SampleFunctional",
    "OperatorSpec",
    "SeriesEvaluator",
    "evaluate_grid",
    "required_sup_norm",
]

_POU_VALIDATION_PROBES = 128
_SAMPLE_MAX_CELLS = 40000  # quadrature cells per sample, for every psi
# Samples per quadrature call, whose cells are held at once: this bounds a
# fill's memory. No fill of the perfbench workloads (1,803 samples at most)
# is split.
_SAMPLE_CHUNK = 2048
# Most knots one ``SeriesEvaluator.cuts`` call may cut at, over all the cells
# it is given: each becomes a quadrature cell, of about 130 bytes at peak.
_MAX_CUTS = 1 << 18


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
    weight: float = 1.0

    def __post_init__(self):
        _k.window(self.lo, self.hi, self.weight)  # refuses a bad window

    @property
    def mass(self) -> float:
        return self.weight * (self.hi - self.lo)

    @property
    def kernel(self) -> _k.Kernel:
        """The window as a sample kernel, for samples, moments and kernel checks."""
        return _k.window(self.lo, self.hi, self.weight)


@dataclass(frozen=True)
class Convolution:
    """Sample functional convolving the signal against a scaled kernel."""

    kernel: _k.Kernel

    def __post_init__(self):
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

    def __repr__(self) -> str:
        # The kernel by name: its repr holds function addresses, which
        # differ between processes and would leak into report echoes.
        return f"Convolution(kernel={self.kernel.name})"


SampleFunctional = Union[PointMass, Window, Convolution]


@dataclass(frozen=True)
class OperatorSpec:
    """A fully configured operator: kernel, sample functional, scale, and
    truncation/quadrature tolerances. ``quad_tol`` is the sample tolerance
    of every functional; a decaying one gives half of it to its tail.

    Every reconstruction guarantee starts from the identity
    sum_k phi(u - k) = 1. A kernel that declares ``partition_of_unity``
    is trusted: the flag records a closed-form fact (phi-hat(2 pi k) =
    delta_k0 by Poisson summation), so no residual is computed. Only a
    kernel that declares nothing is probed, and construction fails when its
    certified residual exceeds ``pou_threshold``.
    """

    phi: _k.Kernel
    psi: SampleFunctional
    w: float
    series_tol: float = 1e-9
    quad_tol: float = 1e-10
    pou_threshold: float = 1e-3

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise ValueError("scale w must be finite and positive")
        for tol in (self.series_tol, self.quad_tol, self.pou_threshold):
            check_tolerance(tol)
        if not isinstance(self.psi, (PointMass, Window, Convolution)):
            raise TypeError("psi must be a sample functional")
        if self.phi.partition_of_unity:
            return
        radius, _ = _k.lattice_radius(self.phi.support, 0.5 * self.pou_threshold)
        probes = np.arange(_POU_VALIDATION_PROBES) / _POU_VALIDATION_PROBES
        residual = _k.partition_of_unity_residual(self.phi, probes, radius)
        if residual > self.pou_threshold:
            raise ValueError(
                f"kernel {self.phi.name!r} fails the partition-of-unity check: "
                f"residual {residual:g} exceeds {self.pou_threshold:g}"
            )


def required_sup_norm(spec: OperatorSpec, signal: Signal):
    """The declared sup norm of ``signal`` where ``spec`` truncates a decaying
    phi or psi with it, None where both are compact. A signal that declares
    none is refused there: no truncation is certified without it."""
    kernels = (spec.phi, getattr(spec.psi, "kernel", spec.phi))  # a point mass has none
    if all(isinstance(kernel.support, _k.CompactSupport) for kernel in kernels):
        return None
    if signal.sup_norm is None:
        raise ValueError(f"signal {signal.name!r} declares no sup norm; a decaying kernel needs it")
    return signal.sup_norm


class SeriesEvaluator:
    """One evaluation context: each lattice sample is computed at most once.

    Samples live in a dense array indexed by ``k - k0`` beside a mask of the
    computed ones; a request computes only the indices its points' stencils
    touch. The store lives on the instance, so a fresh evaluator starts
    cache-free while a grid pass or a convergence-study cell shares samples
    across its own points.
    """

    def __init__(self, spec: OperatorSpec, signal: Signal):
        self.spec = spec
        self.signal = signal
        self._k0 = 0
        self._values = np.empty(0)
        self._known = np.zeros(0, dtype=bool)
        self._support = spec.phi.support
        psi = spec.psi
        sup = required_sup_norm(spec, signal)
        # The reach (lo, hi) of psi in t = w u - k, the cuts c strictly
        # inside it that split each sample at (k + c)/w (a window has none)
        # and the samples' quadrature tolerance: a point mass has none of them.
        self._psi_ends = (0.0, 0.0)
        if not isinstance(psi, PointMass):
            self._psi_kernel = psi.kernel
            lo, hi, cuts, self._sample_tol, _ = _k.integral_reach(
                psi.kernel, spec.quad_tol, scale=1.0 if sup is None else sup)
            self._psi_ends = (lo, hi)
            self._psi_cuts = np.array([c for c in cuts if lo < c < hi])
        self.knots = None
        if isinstance(self._support, _k.DecayingSupport):
            # A computed sample integrates over psi's reach alone, so
            # |sample| <= mass * max |f| there: the envelope capped at sup.
            if signal.envelope is None:
                self._envelope = lambda r: np.full(np.shape(r), sup)
            else:
                self._envelope = lambda r: np.minimum(
                    np.asarray(signal.envelope(r), dtype=float), sup)
            self._rungs = [(r, _k.lattice_tail_bound(self._support, r))
                           for r in _k.radius_ladder(self._support)]
            try:
                self._radius, _ = _k.lattice_radius(
                    self._support, spec.series_tol / max(psi.mass * sup, 1e-300))
            except ValueError:
                self._radius = None  # ``_radii`` refuses the points that need more
        else:
            self._width = int(math.floor(self._support.hi - self._support.lo)) + 1
            # The series is smooth between the knots (k + b)/w, b a phase in
            # ``knots`` of a compact phi's breakpoints: the lattice its
            # modular quadrature cuts at.
            self.knots = np.array(sorted({b % 1.0 for b in spec.phi.breakpoints}))

    @property
    def breakpoints(self) -> tuple:
        """Signal breakpoints and, for a compact phi, the edges of the zone
        it smears each one into, phi's support plus psi's reach wide: cuts
        that help adaptive quadrature find the narrow reconstruction-error
        bumps there. A decaying phi smears over no fixed zone, and keeps the
        signal's breakpoints alone."""
        base = tuple(self.signal.breakpoints)
        if not base or isinstance(self._support, _k.DecayingSupport):
            return base
        phi_extent = max(abs(self._support.lo), abs(self._support.hi))
        margin = (phi_extent + max(map(abs, self._psi_ends))) / self.spec.w
        cuts = set()
        for b in base:
            cuts.update((b - margin, b, b + margin))
        return tuple(sorted(cuts))

    def _knot_ranges(self, lo, hi):
        """Per cell [lo, hi] (rows) and knot phase b (columns): the first
        lattice index k with (k + b)/w above lo, and the number of knots
        (k + b)/w strictly inside the cell. A rounded estimate of each end
        index is moved onto the exact comparisons with the knots."""
        w, b = self.spec.w, self.knots
        lo, hi = lo[:, None], hi[:, None]
        first = np.floor(w * lo - b)
        first += 1 - ((first + b) / w > lo) + ((first + 1 + b) / w <= lo)
        last = np.ceil(w * hi - b)
        last += ((last + b) / w < hi) - 1 - ((last - 1 + b) / w >= hi)
        return first, np.maximum(last - first + 1, 0).astype(np.intp)

    def knot_count(self, lo: float, hi: float) -> int:
        """A bound on the lattice knots strictly inside (lo, hi): at most
        floor(w (hi - lo)) + 1 of each phase."""
        if self.knots is None:
            return 0
        return self.knots.size * (math.floor(self.spec.w * (hi - lo)) + 1)

    def cuts(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """Where a modular quadrature splits the cells [lo, hi]: at every
        lattice knot (k + b)/w strictly inside a cell and, between
        consecutive knots or cell ends where the series changes sign, at
        the zero of the chord through them. A B-spline 2 series is linear
        between its knots, so that zero is the series' own. Returns each
        cut's cell index and point, by cell and then by point, as
        :func:`~durrmeyer.quadrature.integrate` takes ``cuts``; each cell's
        cuts depend on that cell alone. A decaying phi has no knots and
        gives no cuts. Raises :class:`QuadratureError`, before allocating
        them, for more than ``_MAX_CUTS`` knots over all the cells."""
        if self.knots is None:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        first, count = self._knot_ranges(lo, hi)
        total = int(count.sum())
        if total > _MAX_CUTS:
            raise QuadratureError(
                f"modular quadrature would cut at {total:,} knots in one round; "
                f"at most {_MAX_CUTS:,} are allowed")
        phases = self.knots
        count = count.ravel()
        # Runs of consecutive k, one per (cell, phase) in row-major order.
        run = np.repeat(np.arange(count.size), count)
        k = first.ravel()[run] + (np.arange(total) - (np.cumsum(count) - count)[run])
        cell = run // phases.size
        knots = (k + phases[run % phases.size]) / self.spec.w
        # Each cell's ends and knots in order, and the series there.
        ends = np.arange(lo.size)
        cell = np.concatenate((ends, cell, ends))
        x = np.concatenate((lo, knots, hi))
        order = np.lexsort((x, cell))
        cell, x = cell[order], x[order]
        s = self.evaluate(x)
        a, b, sa, sb = x[:-1], x[1:], s[:-1], s[1:]
        cross = (cell[:-1] == cell[1:]) & (np.sign(sa) * np.sign(sb) < 0)
        a, b, sa, sb = a[cross], b[cross], sa[cross], sb[cross]
        zeros = a - sa * (b - a) / (sb - sa)
        inside = (a < zeros) & (zeros < b)
        interior = (lo[cell] < x) & (x < hi[cell])
        cell = np.concatenate((cell[interior], cell[:-1][cross][inside]))
        x = np.concatenate((x[interior], zeros[inside]))
        order = np.lexsort((x, cell))
        return cell[order], x[order]

    def sample(self, k: int) -> float:
        """The k-th sample, computed on first use."""
        k = int(k)
        self._fill(np.array([k]), np.array([k]))
        return float(self._values[k - self._k0])

    def _compute_sample(self, ks: np.ndarray) -> np.ndarray:
        """The samples at the lattice indices ``ks``, each independent of the
        others: point values for a point mass, and for every other psi one
        batched quadrature in u over [(k+lo)/w, (k+hi)/w] per
        ``_SAMPLE_CHUNK`` samples, each sample cut at the signal's
        breakpoints and at its own (k + c)/w for the cuts c inside psi's
        reach."""
        if isinstance(self.spec.psi, PointMass):
            return np.asarray(self.signal.evaluate(ks / self.spec.w), dtype=float)
        values = np.empty(ks.size)
        for start in range(0, ks.size, _SAMPLE_CHUNK):
            chunk = slice(start, start + _SAMPLE_CHUNK)
            values[chunk] = self._integrate_samples(ks[chunk])
        return values

    def _integrate_samples(self, ks: np.ndarray) -> np.ndarray:
        """One batched quadrature of the samples at ``ks``, for a psi with a kernel."""
        f, w = self.signal, self.spec.w
        kernel, (lo, hi) = self._psi_kernel, self._psi_ends

        def weighted(u, interval):
            psi_u = np.asarray(kernel.evaluate(w * u - ks[interval, None]), dtype=float)
            return psi_u * np.asarray(f.evaluate(u.ravel()), dtype=float).reshape(u.shape)

        shared = np.broadcast_to(f.breakpoints, (ks.size, len(f.breakpoints)))
        rows = np.concatenate((shared, (ks[:, None] + self._psi_cuts) / w), axis=1)
        value, _ = integrate(weighted, (ks + lo) / w, (ks + hi) / w, tol=self._sample_tol / w,
                             breakpoints=rows, max_cells=_SAMPLE_MAX_CELLS, per_interval=True)
        return w * value

    def _radii(self, points: np.ndarray) -> np.ndarray:
        """Each point's truncation radius for a decaying kernel: the first
        rung of the ladder at which the bound in the module docstring meets
        ``series_tol``."""
        w, tol = self.spec.w, self.spec.series_tol
        half_mass = 0.5 * self.spec.psi.mass
        lo, hi = self._psi_ends
        radii = np.empty(points.size, dtype=np.int64)
        todo = np.arange(points.size)
        for r, tail in self._rungs:
            x = points[todo]
            near = (self._envelope(np.maximum(0.0, x + (r + lo) / w))
                    + self._envelope(np.maximum(0.0, (r - hi) / w - x)))
            # Divided as in kernels.lattice_radius, so a constant envelope
            # gives exactly the sup-norm radius.
            met = tail <= tol / np.maximum(half_mass * near, 1e-300)
            radii[todo[met]] = r
            todo = todo[~met]
            if not todo.size:
                return radii
        raise ValueError(
            f"series tolerance {tol:g} at x = {points[todo[0]]:g} needs "
            f"truncation radius beyond {self._rungs[-1][0]}"
        )

    def _stencils(self, points: np.ndarray) -> tuple:
        """First and last lattice index of each point's stencil, and the
        points grouped by the length of their rows in ``_assemble``: a list
        of (width, index) pairs. A compact phi on [lo, hi] reads exactly
        the k with lo <= w x - k <= hi, compared as ``Kernel.shifted``
        rounds w x - k, so no term it weights is lost: floor(hi - lo) + 1
        indices or one fewer. A phi narrower than 1 thus reads none at some
        points, whose first index is then one past the last. A decaying phi
        reads 2r + 1 (w x an integer) or 2r. A stencil holds width or
        width - 1 indices."""
        wx = self.spec.w * points
        if isinstance(self._support, _k.CompactSupport):
            # Each end's rounded estimate moves by one where it lies off the
            # support, or where its outer neighbour still lies on it, judged
            # by the w x - k that ``Kernel.shifted`` evaluates.
            s_lo, s_hi = self._support.lo, self._support.hi
            lo = np.ceil(wx - s_hi)
            lo += wx - lo > s_hi
            lo -= wx - (lo - 1) <= s_hi
            hi = np.floor(wx - s_lo)
            hi -= wx - hi < s_lo
            hi += wx - (hi + 1) >= s_lo
            groups = [(self._width, slice(None))]
        else:
            radii = self._radii(points)
            _k.check_lattice_row(int(radii.max(initial=0)))  # before any sample
            lo = np.ceil(wx - radii)
            hi = np.floor(wx + radii)
            groups = [(2 * r + 1, radii == r) for r in sorted(set(radii.tolist()))]
        return lo.astype(np.int64), hi.astype(np.int64), groups

    def _index_range(self, x: float) -> np.ndarray:
        """The lattice indices of one point's stencil."""
        lo, hi, _ = self._stencils(np.array([float(x)]))
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
        """Compute, in one batch, each sample not yet known in the union of
        the index intervals [lo, hi]."""
        # An empty stencil (hi = lo - 1, for a phi narrower than 1) reads
        # the sample at its hi in ``_assemble``, so the store covers it.
        first, last = int(min(lo.min(), hi.min())), int(hi.max())
        self._grow(first, last)
        # Difference array: +1 where an interval opens, -1 just past its end.
        n = last - first + 2
        depth = np.cumsum(np.bincount(lo - first, minlength=n)
                          - np.bincount(hi - first + 1, minlength=n))[:-1]
        start = first - self._k0
        todo = np.flatnonzero((depth > 0) & ~self._known[start:start + n - 1])
        if todo.size:
            self._values[start + todo] = self._compute_sample(first + todo)
            self._known[start + todo] = True

    def prefill(self, points: np.ndarray):
        """Compute every sample the points' stencils touch, and no other."""
        self._fill(*self._stencils(np.asarray(points, dtype=float).ravel())[:2])

    def _assemble(self, points: np.ndarray) -> np.ndarray:
        """Series values at a 1-d array of points, one row block at a time."""
        out = np.empty(points.size)
        if not points.size:
            return out
        lo, hi, groups = self._stencils(points)
        self._fill(lo, hi)
        # A row's length is a function of its point alone, so a point's sum
        # does not depend on which other points share its block.
        w = self.spec.w
        for width, group in groups:
            x, first, end = points[group], lo[group], hi[group]
            sums = np.empty(x.size)
            offsets = np.arange(width)
            # The (points x stencil) temporaries take the block budget of
            # the lattice sums, whatever the grid size.
            rows = max(1, _k._BLOCK_VALUES // width)
            for start in range(0, x.size, rows):
                block = slice(start, start + rows)
                ks = first[block, None] + offsets
                # A stencil is width or width - 1 long (``_stencils``), so
                # only its row's last column can lie past its end: that
                # column reads the stencil's last sample, and its term is 0.
                index = ks - self._k0
                past = end[block] < ks[:, -1]
                index[past, -1] -= 1
                terms = self.spec.phi.shifted(w * x[block], ks) * self._values[index]
                terms[past, -1] = 0.0
                sums[block] = terms.sum(axis=1)
            out[group] = sums
        return out

    def at(self, x: float) -> float:
        return float(self._assemble(np.array([float(x)]))[0])

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        values = self._assemble(arr.ravel())
        return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)

    def on_grid(self, points: np.ndarray) -> np.ndarray:
        return self._assemble(np.asarray(points, dtype=float).ravel())


def evaluate_grid(spec: OperatorSpec, f: Signal, grid: UniformGrid) -> np.ndarray:
    """Operator values on a uniform grid, each sample computed once."""
    return SeriesEvaluator(spec, f).on_grid(grid.points())
