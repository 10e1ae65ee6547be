"""Convergence-study harness: error curves, empirical orders, and
verification of the quantitative and modular bounds.

Every reported comparison carries its numerical budget on the favorable
side, so a "bound holds" conclusion is conservative: measured errors are
grid suprema (lower estimates) while bounds fold in certified moment and
quadrature errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import kernels as _k
from .moments import (
    MomentResult,
    continuous_absolute_moment,
    discrete_absolute_moment,
)
from .operators import (
    Convolution,
    OperatorSpec,
    PointMass,
    SampleFunctional,
    SeriesEvaluator,
    Window,
)
from .orlicz import ModularOverflowError, OrliczFunction, modular, modular_distance
from .signals import UNIFORM, Signal, UniformGrid, modulus_of_continuity, sup_error

__all__ = [
    "DegenerateFitError",
    "BoundConstant",
    "BoundCheck",
    "ModularComparison",
    "ConvergenceRow",
    "ConvergenceReport",
    "quantitative_constant",
    "verify_quantitative_bound",
    "convergence_study",
    "verify_modular_inequality",
    "empirical_lipschitz_order",
]


class DegenerateFitError(ValueError):
    """The data cannot support an order fit (flat or vanishing errors)."""


@dataclass(frozen=True)
class BoundConstant:
    """Error-bound constant with its propagated certified error."""

    value: float
    certified_error: float


@dataclass(frozen=True)
class BoundCheck:
    w: float
    sup_error: float
    bound: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class ModularComparison:
    lhs: float
    rhs: float
    ratio: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class ConvergenceRow:
    w: float
    sup_error: Optional[float]
    modular_errors: dict
    quantitative_bound: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    rows: list
    eoc: list
    eoc_source: str
    config_echo: dict

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "w": row.w,
                    "sup_error": row.sup_error,
                    "modular_errors": dict(row.modular_errors),
                    "quantitative_bound": row.quantitative_bound,
                }
                for row in self.rows
            ],
            "eoc": list(self.eoc),
            "eoc_source": self.eoc_source,
            "config_echo": dict(self.config_echo),
        }


def functional_continuous_moments(psi: SampleFunctional, tol: float = 1e-9):
    """Zeroth and first continuous absolute moments of a sample functional.

    A point mass carries (1, 0) by convention so the quantitative constant
    specializes to the point-sampling bound; window and convolution
    functionals defer to quadrature on their kernels.
    """
    if isinstance(psi, PointMass):
        return (MomentResult(1.0, 0.0, "closed_form"),
                MomentResult(0.0, 0.0, "closed_form"))
    if isinstance(psi, Window):
        kernel = _k.window(psi.lo, psi.hi, psi.weight)
    else:
        kernel = psi.kernel
    return (continuous_absolute_moment(kernel, 0, tol=tol),
            continuous_absolute_moment(kernel, 1, tol=tol))


def quantitative_constant(phi: _k.Kernel, psi: SampleFunctional,
                          probes: int = 2048, tol: float = 1e-9) -> BoundConstant:
    """The uniform-error constant M0(phi)(Mt0(psi)+Mt1(psi)) + M1(phi)Mt0(psi).

    Requires the first moments on both sides to be finite; a divergent
    moment propagates as :class:`~durrmeyer.moments.DivergentMomentError`.
    """
    m0 = discrete_absolute_moment(phi, 0, probes=probes, tol=tol)
    m1 = discrete_absolute_moment(phi, 1, probes=probes, tol=tol)
    t0, t1 = functional_continuous_moments(psi, tol=tol)
    value = m0.value * (t0.value + t1.value) + m1.value * t0.value
    error = (
        m0.certified_error * (t0.value + t1.value)
        + m0.value * (t0.certified_error + t1.certified_error)
        + m1.certified_error * t0.value
        + m1.value * t0.certified_error
    )
    return BoundConstant(value, error)


def verify_quantitative_bound(phi: _k.Kernel, psi: SampleFunctional, f: Signal,
                              w_list: Sequence[float], window, grid_step: float,
                              tolerance_pad: float = 1e-8,
                              series_tol: float = 1e-9, quad_tol: float = 1e-10) -> list:
    """Check measured sup errors against C * L / w for each scale.

    The signal must declare a Lipschitz constant so that L/w certifies the
    modulus of continuity from above.
    """
    if f.lipschitz_constant is None:
        raise ValueError("quantitative bound needs a declared Lipschitz constant")
    constant = quantitative_constant(phi, psi)
    grid = UniformGrid.from_window(window[0], window[1], grid_step)
    checks = []
    for w in w_list:
        spec = OperatorSpec(phi, psi, float(w), series_tol=series_tol, quad_tol=quad_tol)
        recon = SeriesEvaluator(spec, f).on_grid(grid.points())
        err = sup_error(f, recon, grid)
        bound = (constant.value + constant.certified_error) * f.lipschitz_constant / w
        margin = bound + tolerance_pad - err
        checks.append(BoundCheck(float(w), err, bound, margin, margin >= 0.0))
    return checks


def convergence_study(phi: _k.Kernel, psi: SampleFunctional, f: Signal,
                      w_list: Sequence[float], window, grid_step: float,
                      eta_list: Sequence[OrliczFunction] = (), lam: float = 1.0,
                      modular_window=None, series_tol: float = 1e-9,
                      quad_tol: float = 1e-10, modular_tol: float = 1e-6) -> ConvergenceReport:
    """Error table over an ascending scale list, with dyadic order estimates.

    Rows carry the grid sup error (uniformly continuous signals only), one
    modular error per requested gauge at the given lambda, and the
    quantitative bound when the signal declares a Lipschitz constant.
    Overflowing modular cells are recorded as the string ``"overflow"``.
    """
    ws = [float(w) for w in w_list]
    if not ws or any(b <= a for a, b in zip(ws[:-1], ws[1:])):
        raise ValueError("w_list must be nonempty and strictly ascending")
    grid = UniformGrid.from_window(window[0], window[1], grid_step)
    mod_window = tuple(modular_window) if modular_window is not None else tuple(window)

    constant = None
    if f.lipschitz_constant is not None:
        constant = quantitative_constant(phi, psi)

    rows = []
    for w in ws:
        spec = OperatorSpec(phi, psi, w, series_tol=series_tol, quad_tol=quad_tol)
        evaluator = SeriesEvaluator(spec, f)
        recon = evaluator.on_grid(grid.points())
        s_err = sup_error(f, recon, grid) if f.continuity == UNIFORM else None
        modulars = {}
        for eta in eta_list:
            try:
                modulars[eta.label] = modular_distance(
                    eta, evaluator, f, lam, mod_window, tol=modular_tol
                )
            except ModularOverflowError:
                modulars[eta.label] = "overflow"
        bound = None
        if constant is not None:
            bound = (constant.value + constant.certified_error) * f.lipschitz_constant / w
        rows.append(ConvergenceRow(w, s_err, modulars, bound))

    if rows[0].sup_error is not None:
        source = "sup_error"
        series = [row.sup_error for row in rows]
    elif eta_list:
        source = f"modular[{eta_list[0].label}]"
        series = [row.modular_errors[eta_list[0].label] for row in rows]
    else:
        source = "none"
        series = [None] * len(rows)

    floor = series_tol + quad_tol
    eoc = []
    for (w1, e1), (w2, e2) in zip(zip(ws[:-1], series[:-1]), zip(ws[1:], series[1:])):
        dyadic = abs(w2 - 2.0 * w1) <= 1e-9 * w2
        numeric = isinstance(e1, float) and isinstance(e2, float)
        if dyadic and numeric and e1 > floor and e2 > floor:
            eoc.append(math.log2(e1 / e2))
        else:
            eoc.append(None)

    echo = {
        "phi": phi.name,
        "psi": repr(psi),
        "signal": f.name,
        "w_list": ws,
        "window": [float(window[0]), float(window[1])],
        "grid_step": float(grid_step),
        "orlicz": [eta.label for eta in eta_list],
        "lambda": float(lam),
        "modular_window": list(mod_window),
        "series_tol": series_tol,
        "quad_tol": quad_tol,
        "modular_tol": modular_tol,
    }
    return ConvergenceReport(rows, eoc, source, echo)


def verify_modular_inequality(phi: _k.Kernel, psi_kernel: _k.Kernel, f: Signal,
                              eta: OrliczFunction, lam: float, window, w: float,
                              probes: int = 1024, moment_tol: float = 1e-6,
                              modular_tol: float = 1e-9, quad_tol: float = 1e-10,
                              tolerance_pad: float = 1e-8) -> ModularComparison:
    """Compare the modular of the reconstruction against its theoretical
    majorant at one scale.

    The majorant couples the discrete zeroth moment of the sample kernel
    (half-open windows make it 1 on the unit window) with the L1 norms, and
    scales the signal's modular by the product of zeroth moments.
    """
    m0_psi = discrete_absolute_moment(psi_kernel, 0, probes=probes, tol=moment_tol)
    m0_phi = discrete_absolute_moment(phi, 0, probes=probes, tol=moment_tol)
    t0_psi = continuous_absolute_moment(psi_kernel, 0, tol=1e-9)
    ratio = (m0_psi.value + m0_psi.certified_error) * phi.l1_norm / (
        m0_phi.value * t0_psi.value
    )
    spec = OperatorSpec(phi, Convolution(psi_kernel, quad_tol=quad_tol), float(w),
                        quad_tol=quad_tol)
    evaluator = SeriesEvaluator(spec, f)
    lhs = modular(eta, evaluator, lam, window, tol=modular_tol)
    rhs = ratio * modular(eta, f, lam * m0_phi.value * t0_psi.value, window,
                          tol=modular_tol)
    margin = rhs + tolerance_pad - lhs
    return ModularComparison(lhs, rhs, ratio, margin, margin >= 0.0)


def empirical_lipschitz_order(f: Signal, deltas: Sequence[float], window,
                              resolution: int = 32) -> float:
    """Least-squares slope of log-modulus against log-delta.

    Estimates the Hoelder exponent from grid moduli; flat signals have no
    fit and raise :class:`DegenerateFitError`.
    """
    ds = [float(d) for d in deltas]
    if len(ds) < 2:
        raise ValueError("need at least two deltas for a fit")
    estimates = [modulus_of_continuity(f, d, window, resolution).grid_lower for d in ds]
    if any(e <= 0.0 for e in estimates):
        raise DegenerateFitError("modulus estimates vanish; no order to fit")
    slope = np.polyfit(np.log(ds), np.log(estimates), 1)[0]
    return float(slope)
