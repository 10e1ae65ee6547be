"""Kernel families for sampling-series reconstruction.

A kernel couples a pointwise evaluator with the metadata the rest of the
library needs to certify truncations: support (compact interval or a
power-law decay envelope), the L1 mass, sign/symmetry flags, and closed
forms (Fourier transform, exact tail mass) where they exist.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import sici

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
    "fourier_hat",
    "lattice_tail_bound",
    "integral_tail_bound",
]

_EPS = sys.float_info.epsilon
_MAX_BSPLINE_ORDER = 20


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
    of the kernel sum to one everywhere; ``absolute_tail`` gives the exact
    mass ``integral of |k| over |t| > T`` when a closed form is known.
    """

    name: str
    evaluate: Callable
    support: SupportDescriptor
    l1_norm: float
    nonnegative: bool = False
    symmetric: bool = False
    partition_of_unity: bool = False
    breakpoints: tuple = ()
    fourier: Optional[Callable] = None
    absolute_tail: Optional[Callable] = None

    def __post_init__(self):
        if not self.l1_norm > 0:
            raise ValueError("l1 norm must be positive")

    def __call__(self, t):
        return self.evaluate(t)


def _as_same_shape(values, arg):
    arr = np.asarray(arg)
    return float(values) if arr.ndim == 0 else values


def sinc(v):
    """Normalized sinc sin(pi v)/(pi v) with exact zeros at nonzero integers.

    The argument is reduced to the nearest integer before the sine is taken,
    and a short series replaces the quotient for |v| < 1e-6.
    """
    arr = np.asarray(v, dtype=float)
    nearest = np.round(arr)
    half = nearest / 2.0
    numer = np.sin(np.pi * (arr - nearest))
    numer = np.where(np.floor(half) != half, -numer, numer)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(numer / (np.pi * arr))
    # The series runs on the small subset only: on large arguments its
    # powers would overflow.
    small = np.abs(arr) < 1e-6
    if small.any():
        x = np.pi * arr[small]
        out[small] = 1.0 - x * x / 6.0 + x**4 / 120.0
    return _as_same_shape(out, v)


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
        # The order-1 spline is a half-open indicator (exact partition of
        # unity at every point), which breaks pointwise symmetry at +-1/2.
        symmetric=(n > 1),
        partition_of_unity=True,
        breakpoints=tuple(-half + j for j in range(n + 1)),
        fourier=fourier,
    )


def fejer() -> Kernel:
    """Fejer kernel F(t) = sinc(t/2)**2 / 2: nonnegative, unit mass,
    quadratic decay, triangular Fourier transform supported on [-pi, pi]."""

    coeff = 2.0 / math.pi**2

    def evaluate(t):
        arr = np.asarray(t, dtype=float)
        out = 0.5 * np.asarray(sinc(arr / 2.0)) ** 2
        return _as_same_shape(out, t)

    def fourier(v):
        av = abs(float(v))
        if av >= math.pi:
            return 0.0
        return 1.0 - av / math.pi

    def absolute_tail(T):
        # Exact mass beyond [-T, T]:
        #   F(t) = (1 - cos(pi t)) / (pi t)^2, and integration by parts gives
        #   int_T^inf = [1/T - cos(pi T)/T + pi (pi/2 - Si(pi T))] / pi^2.
        if T <= 0:
            raise ValueError("tail cutoff must be positive")
        si, _ = sici(math.pi * T)
        one_side = (1.0 / T - math.cos(math.pi * T) / T
                    + math.pi * (math.pi / 2.0 - si)) / math.pi**2
        return max(0.0, 2.0 * one_side)

    return Kernel(
        name="fejer",
        evaluate=evaluate,
        support=DecayingSupport(exponent=2.0, coefficient=coeff, radius=1.0),
        l1_norm=1.0,
        nonnegative=True,
        symmetric=True,
        partition_of_unity=True,
        fourier=fourier,
        absolute_tail=absolute_tail,
    )


def window(lo: float, hi: float, weight: float) -> Kernel:
    """Weighted indicator of the half-open interval [lo, hi).

    The half-open convention makes the integer-shift sum of a unit-mass,
    unit-width window exactly one at every point, integers included.
    """
    if not lo < hi:
        raise ValueError("window needs lo < hi")
    if not weight > 0:
        raise ValueError("window weight must be positive")

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
        symmetric=(lo == -hi),
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


def compact_lattice_radius(support: CompactSupport, extra: int = 2) -> int:
    """Smallest integer radius so shifts outside it cannot touch [0, 1)."""
    return int(math.ceil(max(abs(support.lo), abs(support.hi)))) + extra


def decaying_lattice_radius(support: DecayingSupport, tol: float,
                            weight_power: float = 0.0, cap: int = 1 << 26) -> int:
    """Smallest power-of-two style radius whose lattice tail bound meets tol."""
    radius = max(int(math.ceil(support.radius)), 1, 4)
    while lattice_tail_bound(support, radius, weight_power) > tol:
        radius *= 2
        if radius > cap:
            raise ValueError(
                f"lattice tail tolerance {tol:g} needs truncation radius beyond {cap}"
            )
    return radius


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
        if kernel.support.exponent <= 1:
            raise ValueError("non-integrable decay: exponent must exceed 1")
        tail = lattice_tail_bound(kernel.support, radius, 0.0)

    shifts = np.arange(-radius, radius + 1, dtype=float)
    worst = 0.0
    block = max(1, int(4_000_000 // shifts.size))
    for start in range(0, u.size, block):
        chunk = u[start:start + block]
        sums = np.asarray(kernel.evaluate(chunk[:, None] - shifts[None, :])).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    return worst + tail


def fourier_hat(kernel: Kernel, v: float) -> float:
    """Closed-form Fourier transform value; only built-ins that declare one."""
    if kernel.fourier is None:
        raise ValueError(f"kernel {kernel.name!r} has no closed-form Fourier transform")
    return float(kernel.fourier(float(v)))
