"""Discrete and continuous kernel moments with certified truncation.

The discrete absolute moment is a supremum over the line of an integer-shift
sum. The summand is 1-periodic, so the supremum is taken over u in [0, 1),
by one of two paths:

- A compact kernel that declares a piece degree d, at an integer order nu
  (the B-splines and windows), takes the supremum from its pieces: on each
  cell of [0, 1] between 0 and the phases of its breakpoints the shift sum
  is one polynomial of degree at most d + nu, whose maxima lie at the cell
  edges or at interior zeros of its derivative. Each of those points is
  evaluated directly, so the value is the supremum up to rounding.
- Any other kernel or order takes the largest value on a probe grid whose
  density doubles until two grids agree to ``tol``. That is a lower
  estimate: the grid stops at 2^15 probes without saying whether it
  converged, and no term covers what lies between probes.

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

_METHODS = ("closed_form", "grid_supremum", "piecewise_supremum", "quadrature")
_MAX_PROBES = 1 << 15
_MAX_CELLS = 20000  # quadrature cells per continuous moment
# Halvings of a bracket in the cell coordinate t: a zero to 2^-32 of the
# cell's half-width, so a smooth maximum's value moves by about 2^-64.
_BISECTIONS = 32


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


def _chebyshev_fit(count):
    """(nodes, matrix): the ``count`` Chebyshev nodes cos(pi (i + 1/2) / count)
    in (-1, 1), and the matrix that takes a polynomial's values there to its
    monomial coefficients, lowest first. The cosine sums give the Chebyshev
    coefficients and T_(j+1) = 2 t T_j - T_(j-1) their monomials, so only
    products and sums are taken: no LAPACK routine runs, whose first call
    costs about 1 MB of resident memory."""
    theta = np.pi * (np.arange(count) + 0.5) / count
    cheb = np.cos(np.arange(count)[:, None] * theta) * (2.0 / count)
    cheb[0] *= 0.5
    mono = np.eye(count)  # row j: the monomial coefficients of T_j
    for j in range(2, count):
        mono[j] = 0.0
        mono[j, 1:] = 2.0 * mono[j - 1, :-1]
        mono[j] -= mono[j - 2]
    return np.cos(theta), (mono[:, :, None] * cheb[:, None, :]).sum(axis=0)


def _horner(coeffs, x):
    value = 0.0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _derivative_zeros(coeffs):
    """The zeros in (-1, 1) of every derivative of the polynomial with
    monomial coefficients ``coeffs`` (lowest first), as Python floats.

    Between consecutive zeros of its own derivative a derivative is
    monotone. So from the linear derivative down to the first, each zero is
    the one sign change of such a bracket, found by bisection; a zero met
    exactly at a bracket's end is kept as it is. All of them are returned:
    the zeros of the first derivative hold every interior maximum, and the
    others cover a zero that rounding moved onto a bracket's end.
    """
    derivatives = [list(coeffs)]
    while len(derivatives[-1]) > 2:
        derivatives.append([i * c for i, c in enumerate(derivatives[-1])][1:])
    zeros, found = [], []
    for derivative in reversed(derivatives[1:]):
        ends = [-1.0, *zeros, 1.0]
        values = [_horner(derivative, x) for x in ends]
        zeros = [x for x, value in zip(ends[1:-1], values[1:-1]) if value == 0.0]
        for lo, hi, first, last in zip(ends, ends[1:], values, values[1:]):
            # A NaN end compares false either way and brackets nothing.
            if min(first, last) < 0.0 < max(first, last):
                for _ in range(_BISECTIONS):
                    mid = 0.5 * (lo + hi)
                    if (_horner(derivative, mid) < 0.0) == (first < 0.0):
                        lo = mid
                    else:
                        hi = mid
                zeros.append(0.5 * (lo + hi))
        zeros.sort()
        found += zeros
    return found


def _piecewise_supremum(kernel, nu, radius):
    """The supremum over [0, 1) of the shift sum of a compact kernel that
    declares its piece degree, at an integer order ``nu``.

    The cells of [0, 1] end at 0 and at the phases of the breakpoints, so on
    each the sum is one polynomial of degree at most d + nu. One lattice sum
    on d + nu + 1 Chebyshev nodes per cell fixes it in the cell's local
    coordinate t in [-1, 1]. The candidates are the cells' left edges (1 is
    0 again) and the zeros of the polynomial's derivatives inside a cell,
    each evaluated directly: a spurious candidate is still a value of the
    sum, and so cannot raise the result. Only at the right edge of a step
    kernel's cell, where the sum may jump, does the one-sided limit come
    from the interpolant, as its value at t = 1.
    """
    edges = np.array(sorted({0.0, 1.0, *(b % 1.0 for b in kernel.breakpoints)}))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes, fit = _chebyshev_fit(kernel.piece_degree + nu + 1)
    values = _k.lattice_sum(kernel, (mid[:, None] + half[:, None] * nodes).ravel(), nu, radius)
    # Monomial coefficients in t, lowest first, one row per cell, and each
    # cell's value at t = 1. A sum past the float range gives NaN there,
    # which brackets no zero and which fmax passes over.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = (fit * values.reshape(-1, 1, nodes.size)).sum(axis=2)
        limits = coeffs.sum(axis=1)
    candidates = [*edges[:-1]]
    for centre, width, row in zip(mid.tolist(), half.tolist(), coeffs.tolist()):
        candidates += [centre + width * t for t in _derivative_zeros(row)]
    sup = float(np.max(_k.lattice_sum(kernel, np.array(candidates), nu, radius)))
    if kernel.piece_degree == 0:
        sup = max(sup, float(np.fmax.reduce(limits)))
    return sup


def discrete_absolute_moment(kernel, nu, probes=2048, tol=1e-9, method="auto"):
    """sup over u of sum_j |k(u - j)| |u - j|**nu, as a :class:`MomentResult`.

    With ``method="auto"`` a nonnegative partition of unity has the closed
    form 1 at order 0; a compact kernel that declares its piece degree takes,
    at an integer order, the supremum of its polynomial pieces
    (``"piecewise_supremum"``); any other kernel or order takes the probe
    grid (``"grid_supremum"``): ``probes`` points, doubled until the
    supremum moves by less than ``tol`` or 2^15 probes are reached, a lower
    estimate that does not say whether it converged. ``method="grid"``
    forces the probe grid, which is how the other paths get cross-checked.
    The certified error is the lattice tail of a decaying kernel, 0 for a
    compact one.
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
    if (method == "auto" and kernel.piece_degree is not None and nu.is_integer()
            and isinstance(kernel.support, _k.CompactSupport)):
        return MomentResult(_piecewise_supremum(kernel, int(nu), radius), tail,
                            "piecewise_supremum")
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
