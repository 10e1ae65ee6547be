"""Kernel families for sampling-series reconstruction.

A kernel couples a pointwise evaluator with the metadata the rest of the
library needs to certify truncations: support (compact interval or a
power-law decay envelope), the L1 mass, sign/symmetry flags, and a closed
form of the Fourier transform where one exists.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "CompactSupport",
    "DecayingSupport",
    "SupportDescriptor",
    "Kernel",
    "sinc",
    "bspline",
    "fejer",
    "window",
    "partition_of_unity_residual",
    "lattice_sum",
    "fourier_hat",
    "lattice_tail_bound",
    "integral_tail_bound",
    "lattice_radius",
    "integral_cutoff",
    "integral_reach",
]

_EPS = sys.float_info.epsilon
_MAX_BSPLINE_ORDER = 20
# Float64 values per row block of a lattice sum, here and in the series
# assembly of ``operators``: 64 KiB per temporary. That stays below glibc's
# 128 KiB mmap threshold, so numpy reuses heap memory instead of mapping
# and faulting in every temporary afresh, and a block's elementwise passes
# stay in L2. Each row's sum depends only on its own point, so the budget
# moves no bit of any result.
_BLOCK_VALUES = 1 << 13
_RADIUS_CAP = 1 << 26  # largest lattice radius or integral cutoff of a decaying kernel
# Most shifts in one lattice-sum row: a row of 10^7 float64 values is 80 MB,
# and a radius of _RADIUS_CAP would ask for 1.3e8 of them.
_MAX_ROW_SHIFTS = 10**7
_COMPACT_RADIUS_MARGIN = 2  # lattice shifts kept beyond a compact support


@dataclass(frozen=True)
class CompactSupport:
    """Support contained in the closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("compact support needs lo < hi")


@dataclass(frozen=True)
class DecayingSupport:
    """Envelope |k(t)| <= coefficient * |t|**-exponent for |t| > radius."""

    exponent: float
    coefficient: float
    radius: float

    def __post_init__(self):
        if not self.exponent > 1:
            raise ValueError("decay exponent must exceed 1 for an integrable tail")
        if not self.coefficient > 0:
            raise ValueError("decay coefficient must be positive")
        if self.radius < 0:
            raise ValueError("decay radius must be nonnegative")


SupportDescriptor = Union[CompactSupport, DecayingSupport]


@dataclass(frozen=True)
class Kernel:
    """An integrable kernel with evaluation and truncation metadata.

    ``evaluate`` accepts a float or an ndarray and returns the same shape.
    ``partition_of_unity`` records the closed-form fact that integer shifts
    of the kernel sum to one everywhere. The rest of the library trusts a
    declared flag: :class:`~durrmeyer.operators.OperatorSpec` probes only
    kernels that leave it unset against its ``pou_threshold``, and the
    order-0 lattice moments of a declared kernel are taken as exact.

    ``rows``, where given, computes :meth:`shifted` for the kernel in place
    of ``evaluate`` on the differences.

    Two kernels are equal when their name and metadata are: the callables
    are not compared, so ``bspline(3) == bspline(3)`` though each call makes
    new ones.
    """

    name: str
    evaluate: Callable = field(compare=False)
    support: SupportDescriptor
    l1_norm: float
    nonnegative: bool = False
    partition_of_unity: bool = False
    breakpoints: tuple = ()
    fourier: Optional[Callable] = field(default=None, compare=False)
    rows: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.l1_norm > 0:
            raise ValueError("l1 norm must be positive")

    def __call__(self, t):
        return self.evaluate(t)

    def shifted(self, x, ks):
        """The rows k(x[:, None] - ks) for a 1-d float array x and an integer
        array ks (one row of shifts, or one per point): the kernel values of
        the series and of the lattice sums. Without ``rows`` it is
        ``evaluate`` on the differences, bit for bit."""
        x = np.asarray(x, dtype=float)
        if self.rows is not None:
            return self.rows(x, ks)
        return np.asarray(self.evaluate(x[:, None] - ks), dtype=float)


def _as_same_shape(values, arg):
    arr = np.asarray(arg)
    return float(values) if arr.ndim == 0 else values


def _reduced_sinc(arr):
    """sin(pi (v - round(v))) / (pi v), which is (-1)**round(v) sinc(v), for
    a float array: the argument is reduced to the nearest integer before the
    sine is taken, and a short series replaces the quotient for |v| < 1e-6."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.sin(np.pi * (arr - np.round(arr))) / (np.pi * arr))
    # The series runs on the small subset only: on large arguments its
    # powers would overflow.
    small = np.abs(arr) < 1e-6
    if small.any():
        x = np.pi * arr[small]
        out[small] = 1.0 - x * x / 6.0 + x**4 / 120.0
    return out


def sinc(v):
    """Normalized sinc sin(pi v)/(pi v) with exact zeros at nonzero integers,
    from :func:`_reduced_sinc` with the sign of an odd nearest integer."""
    arr = np.asarray(v, dtype=float)
    half = np.round(arr) / 2.0
    out = _reduced_sinc(arr)
    return _as_same_shape(np.where(np.floor(half) != half, -out, out), v)


def _snap_to_integer(u):
    """Round u to an integer when it sits within a few ulp of one."""
    r = round(u)
    if abs(u - r) <= 8.0 * _EPS * max(1.0, abs(u)):
        return r
    return None


def bspline(n: int) -> Kernel:
    """Central B-spline of order ``n``: a degree n-1 piecewise polynomial
    supported on [-n/2, n/2], nonnegative, symmetric, with unit integral.

    Evaluation uses the alternating truncated-power sum; the factorial is
    divided out once at the end so that the inner sum stays exact for
    dyadic arguments.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("spline order must be an integer")
    if n < 1:
        raise ValueError("spline order must be at least 1")
    if n > _MAX_BSPLINE_ORDER:
        raise ValueError(f"spline order capped at {_MAX_BSPLINE_ORDER}")

    half = n / 2.0

    if n == 1:
        def evaluate(t):
            arr = np.asarray(t, dtype=float)
            out = np.where((arr >= -0.5) & (arr < 0.5), 1.0, 0.0)
            return _as_same_shape(out, t)
    else:
        coeffs = [(-1) ** j * math.comb(n, j) for j in range(n + 1)]
        fact = float(math.factorial(n - 1))

        def evaluate(t):
            arr = np.asarray(t, dtype=float)
            acc = np.zeros_like(arr)
            for j, c in enumerate(coeffs):
                base = np.maximum(half + arr - j, 0.0)
                acc = acc + c * base ** (n - 1)
            # Outside [-n/2, n/2] the alternating sum collapses exactly in
            # exact arithmetic; mask it so rounding dust cannot leak out.
            inside = np.abs(arr) < half
            out = np.where(inside, np.maximum(acc, 0.0) / fact, 0.0)
            return _as_same_shape(out, t)

    def fourier(v):
        # The transform vanishes on the lattice 2*pi*k (k != 0) and equals 1
        # at 0; arguments within roundoff of that lattice are snapped so the
        # closed form stays exact there.
        u = float(v) / (2.0 * math.pi)
        r = _snap_to_integer(u)
        if r is not None:
            return 1.0 if r == 0 else 0.0
        return sinc(u) ** n

    return Kernel(
        name=f"bspline{n}",
        evaluate=evaluate,
        support=CompactSupport(-half, half),
        l1_norm=1.0,
        nonnegative=True,
        partition_of_unity=True,
        breakpoints=tuple(-half + j for j in range(n + 1)),
        fourier=fourier,
    )


def fejer() -> Kernel:
    """Fejer kernel F(t) = sinc(t/2)**2 / 2: nonnegative, unit mass,
    quadratic decay, triangular Fourier transform supported on [-pi, pi].

    Its rows take two sines per point: sin(pi (x - k)/2)**2 is sin(pi r)**2
    for even k and sin(pi (r -+ 1/2))**2 for odd k, with r = x/2 - round(x/2),
    so F(x - k) = that square * (2/pi**2) / (x - k)**2. The phase comes from
    x itself, reduced exactly, so a far shift keeps every digit of it: only
    1/(x - k)**2 sees the rounded difference. Below |x - k| = 2e-6 the rows
    take ``evaluate``'s series.
    """

    coeff = 2.0 / math.pi**2

    def evaluate(t):
        # sinc(t/2)**2 / 2 without sinc's parity sign flip, which the square
        # undoes: the same bits.
        return _as_same_shape(0.5 * _reduced_sinc(np.asarray(t, dtype=float) / 2.0) ** 2, t)

    def rows(x, ks):
        ks = np.asarray(ks)
        r = x / 2.0 - np.round(x / 2.0)
        # An odd shift moves r by a half towards zero: the argument stays in
        # [-1/2, 1/2] and, for |x| >= 1, is exact.
        even, odd = coeff * np.sin(np.pi * np.stack((r, r - np.copysign(0.5, r)))) ** 2
        t = x[:, None] - ks
        out = np.where(ks & 1, odd[:, None], even[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= t * t
        # Only the shift nearest a point can come within 2e-6 of it.
        near = np.flatnonzero(np.abs(x - np.round(x)) < 2e-6)
        if near.size:
            close = t[near]
            i, j = np.nonzero(np.abs(close, out=close) < 2e-6)
            out[near[i], j] = evaluate(t[near[i], j])
        return out

    def fourier(v):
        av = abs(float(v))
        if av >= math.pi:
            return 0.0
        return 1.0 - av / math.pi

    return Kernel(
        name="fejer",
        evaluate=evaluate,
        support=DecayingSupport(exponent=2.0, coefficient=coeff, radius=1.0),
        l1_norm=1.0,
        nonnegative=True,
        partition_of_unity=True,
        fourier=fourier,
        rows=rows,
    )


def window(lo: float, hi: float, weight: float = 1.0) -> Kernel:
    """Weighted indicator of the half-open interval [lo, hi).

    The half-open convention makes the integer-shift sum of a unit-mass,
    unit-width window exactly one at every point, integers included.
    """
    if not lo < hi:
        raise ValueError("window needs lo < hi")
    if not weight > 0:
        raise ValueError("window weight must be positive")
    if not 0 < weight * (hi - lo) < math.inf:
        raise ValueError("window mass must be positive and finite")

    lo = float(lo)
    hi = float(hi)
    weight = float(weight)

    def evaluate(t):
        arr = np.asarray(t, dtype=float)
        out = np.where((arr >= lo) & (arr < hi), weight, 0.0)
        return _as_same_shape(out, t)

    width = hi - lo
    mass = weight * width
    integer_width = width == round(width)

    return Kernel(
        name=f"window[{lo:g}..{hi:g})*{weight:g}",
        evaluate=evaluate,
        support=CompactSupport(lo, hi),
        l1_norm=mass,
        nonnegative=True,
        partition_of_unity=bool(integer_width and mass == 1.0),
        breakpoints=(lo, hi),
    )


def lattice_tail_bound(support: DecayingSupport, radius: int, weight_power: float = 0.0):
    """Bound on sum over |j| > radius of C |u - j|**(nu - alpha), u in [0, 1).

    Valid whenever ``radius >= max(support.radius, 1)`` and
    ``weight_power < support.exponent - 1``.
    """
    alpha = support.exponent
    nu = weight_power
    if nu >= alpha - 1:
        raise ValueError("weight power too large for a convergent lattice tail")
    if radius < max(support.radius, 1.0):
        raise ValueError("truncation radius must reach past the decay radius")
    k = float(radius)
    return 2.0 * support.coefficient * (k ** (nu - alpha) + k ** (nu - alpha + 1) / (alpha - nu - 1))


def integral_tail_bound(support: DecayingSupport, cutoff: float, weight_power: float = 0.0):
    """Bound on the integral over |t| > cutoff of |t|**nu * C |t|**-alpha."""
    alpha = support.exponent
    nu = weight_power
    if nu >= alpha - 1:
        raise ValueError("weight power too large for a convergent integral tail")
    if cutoff < max(support.radius, _EPS):
        raise ValueError("tail cutoff must reach past the decay radius")
    return 2.0 * support.coefficient * cutoff ** (nu - alpha + 1) / (alpha - nu - 1)


def compact_lattice_radius(support: CompactSupport) -> int:
    """Smallest integer radius so shifts outside it cannot touch [0, 1), plus a margin."""
    return int(math.ceil(max(abs(support.lo), abs(support.hi)))) + _COMPACT_RADIUS_MARGIN


def radius_ladder(support: DecayingSupport) -> list:
    """The truncation radii tried in turn: doublings of
    max(ceil(support.radius), 1, 4), the first always and the rest up to _RADIUS_CAP."""
    ladder = [max(int(math.ceil(support.radius)), 1, 4)]
    while 2 * ladder[-1] <= _RADIUS_CAP:
        ladder.append(2 * ladder[-1])
    return ladder


def lattice_radius(support: SupportDescriptor, tol: float, weight_power: float = 0.0) -> tuple:
    """(radius, tail) of a lattice sum: a compact support's radius with tail
    0, or the first rung of a decaying support's ladder whose lattice tail
    bound meets tol, with that bound."""
    if isinstance(support, CompactSupport):
        return compact_lattice_radius(support), 0.0
    for radius in radius_ladder(support):
        tail = lattice_tail_bound(support, radius, weight_power)
        if tail <= tol:
            return radius, tail
    raise ValueError(
        f"lattice tail tolerance {tol:g} needs truncation radius beyond {_RADIUS_CAP}")


def integral_cutoff(kernel: Kernel, tol: float, weight_power: float = 0.0) -> tuple:
    """(cutoff, cuts) of an integral against a decaying kernel: the first
    doubling c of max(radius, 1) whose integral tail bound meets tol, and
    the cuts 0, the kernel's breakpoints and +-each smaller doubling. The
    cuts keep the peak inside cells: on one [-c, c] GK15 can miss it."""
    support = kernel.support
    cutoff = max(support.radius, 1.0)
    cuts = [0.0, *kernel.breakpoints]
    while integral_tail_bound(support, cutoff, weight_power) > tol:
        cuts += [-cutoff, cutoff]
        cutoff *= 2.0
        if cutoff > _RADIUS_CAP:
            raise ValueError(f"integral tail tolerance {tol:g} for kernel {kernel.name!r} "
                             f"needs a cutoff beyond {_RADIUS_CAP}")
    return cutoff, cuts


def integral_reach(kernel: Kernel, tol: float, weight_power: float = 0.0,
                   scale: float = 1.0) -> tuple:
    """(lo, hi, cuts, quad_tol, tail) of an integral of |t|**weight_power times
    the kernel against a function bounded by ``scale``, to ``tol``: a compact
    kernel's support and breakpoints (and 0 for weight_power > 0) with all of
    tol and no tail, or +-``integral_cutoff`` of a decaying kernel, whose tail
    takes half of tol over ``scale`` and its quadrature the other half. A
    compact kernel's cuts may include its support's ends, where a cut makes
    no cell; only those strictly inside (lo, hi) split the integral."""
    support = kernel.support
    if isinstance(support, CompactSupport):
        cuts = [*kernel.breakpoints, *([0.0] if weight_power > 0 else [])]
        return support.lo, support.hi, cuts, tol, 0.0
    cutoff, cuts = integral_cutoff(kernel, 0.5 * tol / max(scale, 1e-300), weight_power)
    return (-cutoff, cutoff, cuts, 0.5 * tol,
            integral_tail_bound(support, cutoff, weight_power))


def partition_of_unity_residual(kernel: Kernel, probe_points, truncation_radius: int) -> float:
    """Certified bound on max_u |sum_j k(u - j) - 1| over the probe points.

    The probes must lie in [0, 1); the integer-shift sum is 1-periodic so
    this window covers all of the line. For decaying kernels the analytic
    tail bound beyond the truncation radius is added, making the result a
    certified upper bound rather than a plain grid residual.
    """
    u = np.asarray(probe_points, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("probe points must form a nonempty 1-d collection")
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("probe points must lie in [0, 1)")
    radius = int(truncation_radius)
    if radius < 1:
        raise ValueError("truncation radius must be a positive integer")

    tail = 0.0
    if isinstance(kernel.support, DecayingSupport):
        tail = lattice_tail_bound(kernel.support, radius, 0.0)

    sums = lattice_sum(kernel, u, 0, radius, signed_power=True)
    return float(np.max(np.abs(sums - 1.0))) + tail


def check_lattice_row(radius: int):
    """Refuse a lattice-sum radius whose rows hold more than ``_MAX_ROW_SHIFTS`` shifts."""
    if 2 * radius + 1 > _MAX_ROW_SHIFTS:
        raise ValueError(f"a lattice sum of radius {radius} needs rows of {2 * radius + 1:,} "
                         f"shifts; at most {_MAX_ROW_SHIFTS:,} are allowed")


def lattice_sum(kernel: Kernel, u, nu, radius: int, signed_power: bool = False):
    """Sum over shifts |j| <= radius of |k(u-j)| |u-j|**nu (or, with
    ``signed_power``, of k(u-j) (j-u)**nu) for a vector of probe points,
    in row blocks of at most ``_BLOCK_VALUES`` terms.

    A compact kernel is evaluated only on the shifts that can reach a probe;
    its values fill a zero row of the full width, so every row is summed
    exactly as if the kernel had been evaluated on every shift. A row of
    more than ``_MAX_ROW_SHIFTS`` shifts is refused before anything is
    allocated.
    """
    check_lattice_row(radius)
    shifts = np.arange(-radius, radius + 1)
    out = np.zeros(u.size)
    if not u.size:
        return out
    reach = slice(None)
    if isinstance(kernel.support, CompactSupport):
        first = max(-radius, math.floor(u.min() - kernel.support.hi))
        last = min(radius, math.ceil(u.max() - kernel.support.lo))
        reach = slice(first + radius, max(first, last + 1) + radius)
    block = max(1, _BLOCK_VALUES // shifts.size)
    for start in range(0, u.size, block):
        chunk = u[start:start + block]
        vals = np.zeros((chunk.size, shifts.size))
        vals[:, reach] = kernel.shifted(chunk, shifts[reach])
        if not signed_power:
            vals = np.abs(vals)
        if nu:
            diffs = chunk[:, None] - shifts
            # A moment past the float range reads inf, for its caller to report.
            with np.errstate(over="ignore"):
                vals = vals * ((-diffs) ** nu if signed_power else np.abs(diffs) ** nu)
        out[start:start + block] = vals.sum(axis=1)
    return out


def fourier_hat(kernel: Kernel, v: float) -> float:
    """Closed-form Fourier transform value; only built-ins that declare one."""
    if kernel.fourier is None:
        raise ValueError(f"kernel {kernel.name!r} has no closed-form Fourier transform")
    return float(kernel.fourier(float(v)))
