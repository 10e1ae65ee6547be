"""Discrete and continuous kernel moments with certified truncation.

The discrete absolute moment is a supremum over the line of an integer-shift
sum; the summand is 1-periodic, so the supremum is taken over probe points
in [0, 1) and refined by doubling the probe density until it stabilizes.
Decaying kernels contribute an analytic tail bound which is folded into the
certified error; a tail that does not converge is a first-class error, never
an infinity smuggled through arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as _k
from .quadrature import QuadratureError, check_tolerance, integrate

__all__ = [
    "DivergentMomentError",
    "MomentResult",
    "discrete_absolute_moment",
    "discrete_algebraic_moment",
    "continuous_absolute_moment",
    "continuous_algebraic_moment",
]

_METHODS = ("closed_form", "grid_supremum", "quadrature")
_MAX_PROBES = 1 << 15
_MAX_CELLS = 20000  # quadrature cells per continuous moment


class DivergentMomentError(ArithmeticError):
    """The requested moment diverges for this kernel's decay envelope."""


@dataclass(frozen=True)
class MomentResult:
    value: float
    certified_error: float
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown moment method {self.method!r}")
        if self.certified_error < 0:
            raise ValueError("certified error must be nonnegative")
        if self.method == "closed_form" and self.certified_error != 0.0:
            raise ValueError("closed forms carry no certified error")


def _check_order(nu):
    nu = float(nu)
    if nu < 0 or not math.isfinite(nu):
        raise ValueError("moment order must be a finite nonnegative number")
    return nu


def _require_convergent(kernel, nu, kind):
    support = kernel.support
    if isinstance(support, _k.DecayingSupport) and nu >= support.exponent - 1:
        raise DivergentMomentError(
            f"{kind} moment of order {nu:g} diverges for {kernel.name!r}: "
            f"decay exponent {support.exponent:g} requires order < "
            f"{support.exponent - 1:g}"
        )


def _lattice_radius(kernel, nu, tol):
    """(radius, tail) of the kernel's lattice sums to tol. A radius beyond
    the ladder's cap, or one whose rows ``lattice_sum`` refuses, raises
    QuadratureError before any row is allocated."""
    try:
        radius, tail = _k.lattice_radius(kernel.support, tol, nu)
        _k.check_lattice_row(radius)
    except ValueError as exc:
        raise QuadratureError(str(exc)) from None
    return radius, tail


def discrete_absolute_moment(kernel, nu, probes=2048, tol=1e-9, method="auto"):
    """sup over u of sum_j |k(u - j)| |u - j|**nu, as a :class:`MomentResult`.

    ``method="grid"`` forces the probe-grid supremum even when a closed form
    applies, which is how the closed forms get cross-checked.
    """
    nu = _check_order(nu)
    if probes < 1:
        raise ValueError("probe count must be positive")
    check_tolerance(tol)
    _require_convergent(kernel, nu, "discrete absolute")

    if method == "auto" and nu == 0 and kernel.nonnegative and kernel.partition_of_unity:
        # Nonnegative partition of unity: the shift sum is identically 1.
        return MomentResult(1.0, 0.0, "closed_form")
    if method not in ("auto", "grid"):
        raise ValueError(f"unknown method {method!r}")

    radius, tail = _lattice_radius(kernel, nu, tol)
    count = int(probes)
    sup = float(np.max(_k.lattice_sum(kernel, np.arange(count) / count, nu, radius)))
    while count < _MAX_PROBES:
        # The even probes of the doubled grid are the previous grid, bit for
        # bit (2i/2n rounds as i/n does), so only the odd ones are new.
        count *= 2
        odd = _k.lattice_sum(kernel, np.arange(1, count, 2) / count, nu, radius)
        refined = max(sup, float(np.max(odd)))
        stable = refined - sup < tol
        sup = refined
        if stable:
            break
    return MomentResult(sup, tail, "grid_supremum")


def discrete_algebraic_moment(kernel, nu, u, tol=1e-12):
    """sum_j k(u - j) (j - u)**nu, truncated with a certified tail."""
    if not isinstance(nu, int) or isinstance(nu, bool) or nu < 0:
        raise ValueError("algebraic moment order must be a nonnegative integer")
    check_tolerance(tol)
    _require_convergent(kernel, nu, "discrete algebraic")
    if nu == 0 and kernel.partition_of_unity:
        return 1.0
    radius, _ = _lattice_radius(kernel, nu, tol)
    point = np.asarray([float(u) - math.floor(float(u))])
    # Shift u into [0, 1): the sum is invariant under integer translation.
    return float(_k.lattice_sum(kernel, point, nu, radius, signed_power=True)[0])


def _moment_integrand(kernel, nu, signed):
    # t**0 is exactly 1, so order 0 takes the same product. A product past
    # the float range reads inf, which the quadrature reports as infinite.
    def integrand(t):
        values = np.asarray(kernel.evaluate(t), dtype=float)
        with np.errstate(over="ignore"):
            return values * t**nu if signed else np.abs(values) * np.abs(t) ** nu

    return integrand


def _continuous_moment(kernel, nu, tol, signed):
    _require_convergent(kernel, nu, "continuous")
    if nu == 0 and kernel.nonnegative:
        # A nonnegative kernel's signed and absolute masses are both its
        # declared L1 norm.
        return MomentResult(kernel.l1_norm, 0.0, "closed_form")
    try:
        lo, hi, cuts, quad_tol, tail = _k.integral_reach(kernel, tol, nu)
    except ValueError as exc:
        raise QuadratureError(f"continuous moment of order {nu:g}: {exc}") from None
    value, err = integrate(_moment_integrand(kernel, nu, signed), lo, hi, tol=quad_tol,
                           breakpoints=cuts, max_cells=_MAX_CELLS)
    return MomentResult(value, err + tail, "quadrature")


def continuous_absolute_moment(kernel, nu, tol=1e-9):
    """integral of |t|**nu |k(t)| dt to ``tol``. Its ``certified_error`` adds
    the certified bound of a decaying kernel's truncated tails to the
    quadrature's ``|K-G|`` error estimate, which is an estimate, not a bound."""
    nu = _check_order(nu)
    check_tolerance(tol)
    return _continuous_moment(kernel, nu, tol, signed=False)


def continuous_algebraic_moment(kernel, nu, tol=1e-9):
    """integral of t**nu k(t) dt to ``tol``, with an error that is part
    estimate, as for :func:`continuous_absolute_moment`."""
    if not isinstance(nu, int) or isinstance(nu, bool) or nu < 0:
        raise ValueError("algebraic moment order must be a nonnegative integer")
    check_tolerance(tol)
    return _continuous_moment(kernel, nu, tol, signed=True)
