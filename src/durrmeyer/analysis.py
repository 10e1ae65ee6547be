"""Convergence-study harness: error curves, empirical orders, and
verification of the quantitative and modular bounds.

The bounds add the moments' reported errors, but a measured sup error is
a grid maximum, a lower estimate of the error on the window: the error
between grid points can be larger. So a "bound holds" conclusion is not
certified.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

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
from .orlicz import Difference, ModularOverflowError, OrliczFunction, modulars
from .quadrature import ROUNDING_FLOOR
from .signals import UNIFORM, Signal, UniformGrid, sup_error

__all__ = [
    "BoundConstant",
    "BoundCheck",
    "ModularComparison",
    "ConvergenceRow",
    "ConvergenceReport",
    "quantitative_constant",
    "verify_quantitative_bound",
    "bound_checks",
    "convergence_studies",
    "convergence_study",
    "modular_inequality_cells",
    "verify_modular_inequality",
]


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
        return asdict(self)


def functional_continuous_moments(psi: SampleFunctional):
    """Zeroth and first continuous absolute moments of a sample functional.

    A point mass carries (1, 0) by convention so the quantitative constant
    specializes to the point-sampling bound; window and convolution
    functionals defer to quadrature on their kernels.
    """
    if isinstance(psi, PointMass):
        return (MomentResult(1.0, 0.0, "closed_form"),
                MomentResult(0.0, 0.0, "closed_form"))
    kernel = psi.kernel
    return (continuous_absolute_moment(kernel, 0), continuous_absolute_moment(kernel, 1))


def quantitative_constant(phi: _k.Kernel, psi: SampleFunctional) -> BoundConstant:
    """The uniform-error constant M0(phi)(Mt0(psi)+Mt1(psi)) + M1(phi)Mt0(psi).

    Requires the first moments on both sides to be finite; a divergent
    moment propagates as :class:`~durrmeyer.moments.DivergentMomentError`.
    """
    m0 = discrete_absolute_moment(phi, 0)
    m1 = discrete_absolute_moment(phi, 1)
    t0, t1 = functional_continuous_moments(psi)
    value = m0.value * (t0.value + t1.value) + m1.value * t0.value
    error = (
        m0.certified_error * (t0.value + t1.value)
        + m0.value * (t0.certified_error + t1.certified_error)
        + m1.certified_error * t0.value
        + m1.value * t0.certified_error
    )
    return BoundConstant(value, error)


def _shared_spec(specs: Sequence[OperatorSpec]) -> OperatorSpec:
    """The first of ``specs``, which must be nonempty and differ in nothing
    but the scale ``w``."""
    if not specs:
        raise ValueError("need at least one operator spec")
    first = specs[0]
    settings = (first.phi, first.psi, first.series_tol, first.quad_tol, first.pou_threshold)
    for spec in specs[1:]:
        if (spec.phi, spec.psi, spec.series_tol, spec.quad_tol, spec.pou_threshold) != settings:
            raise ValueError("operator specs must differ only in the scale w")
    return first


def convergence_studies(specs: Sequence[OperatorSpec], f: Signal, window, grid_step: float,
                        groups: Sequence, modular_window=None,
                        modular_tol: float = 1e-6) -> list:
    """Error tables over ``specs``, one operator per scale in ascending
    order, as one :class:`ConvergenceReport` per ``(lam, eta_list)`` pair in
    ``groups``. The specs must differ only in ``w``.

    Each scale is reconstructed once: one evaluator and one grid pass give
    the grid sup error (uniformly continuous signals only), the modular
    error of every gauge of every group (one batched quadrature of the
    pointwise difference), and the quantitative bound
    ``C * L / w`` when the signal declares a Lipschitz constant, with ``C``
    computed once. Overflowing modular cells are recorded as the string
    ``"overflow"``. Order estimates are taken between dyadic neighbours.
    """
    first = _shared_spec(specs)
    phi, psi = first.phi, first.psi
    ws = [float(spec.w) for spec in specs]
    if any(b <= a for a, b in zip(ws[:-1], ws[1:])):
        raise ValueError("the scales must be strictly ascending")
    grid = UniformGrid.from_window(window[0], window[1], grid_step)
    mod_window = tuple(modular_window) if modular_window is not None else tuple(window)

    bound_factor = None
    if f.lipschitz_constant is not None:
        constant = quantitative_constant(phi, psi)
        bound_factor = (constant.value + constant.certified_error) * f.lipschitz_constant

    cells = [(eta, lam) for lam, eta_list in groups for eta in eta_list]
    tables = [[] for _ in groups]
    for spec, w in zip(specs, ws):
        evaluator = SeriesEvaluator(spec, f)
        recon = evaluator.on_grid(grid.points())
        s_err = sup_error(f, recon, grid) if f.continuity == UNIFORM else None
        bound = None if bound_factor is None else bound_factor / w
        values = iter(modulars(cells, Difference(evaluator, f), mod_window, tol=modular_tol))
        for (lam, eta_list), rows in zip(groups, tables):
            errors = {}
            for eta in eta_list:
                value = next(values)
                errors[eta.label] = "overflow" if value is None else value
            rows.append(ConvergenceRow(w, s_err, errors, bound))

    floor = first.series_tol + first.quad_tol
    reports = []
    for (lam, eta_list), rows in zip(groups, tables):
        if f.continuity == UNIFORM:
            source, series = "sup_error", [row.sup_error for row in rows]
        elif eta_list:
            source = f"modular[{eta_list[0].label}]"
            series = [row.modular_errors[eta_list[0].label] for row in rows]
        else:
            source, series = "none", [None] * len(rows)
        eoc = []
        for w1, w2, e1, e2 in zip(ws, ws[1:], series, series[1:]):
            dyadic = abs(w2 - 2.0 * w1) <= 1e-9 * w2
            numeric = isinstance(e1, float) and isinstance(e2, float)
            eoc.append(math.log2(e1 / e2)
                       if dyadic and numeric and e1 > floor and e2 > floor else None)
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
            "series_tol": first.series_tol,
            "quad_tol": first.quad_tol,
            "modular_tol": modular_tol,
        }
        reports.append(ConvergenceReport(rows, eoc, source, echo))
    return reports


def convergence_study(phi: _k.Kernel, psi: SampleFunctional, f: Signal,
                      w_list: Sequence[float], window, grid_step: float,
                      eta_list: Sequence[OrliczFunction] = (), lam: float = 1.0,
                      modular_window=None, modular_tol: float = 1e-6) -> ConvergenceReport:
    """The one-group call of :func:`convergence_studies` on operators at
    :class:`OperatorSpec`'s default tolerances: the error table with one
    modular column per gauge of ``eta_list`` at ``lam``."""
    specs = [OperatorSpec(phi, psi, float(w)) for w in w_list]
    [report] = convergence_studies(specs, f, window, grid_step, [(lam, eta_list)],
                                   modular_window=modular_window, modular_tol=modular_tol)
    return report


def bound_checks(report: ConvergenceReport, tolerance_pad: float = 1e-8) -> list:
    """The sup error of each row against its quantitative bound; rows
    without a bound (no Lipschitz constant) give no check."""
    checks = []
    for row in report.rows:
        if row.quantitative_bound is not None:
            margin = row.quantitative_bound + tolerance_pad - row.sup_error
            checks.append(BoundCheck(row.w, row.sup_error, row.quantitative_bound,
                                     margin, margin >= 0.0))
    return checks


def verify_quantitative_bound(phi: _k.Kernel, psi: SampleFunctional, f: Signal,
                              w_list: Sequence[float], window, grid_step: float,
                              tolerance_pad: float = 1e-8) -> list:
    """Check measured sup errors against C * L / w for each scale of an
    ascending list, from the rows of :func:`convergence_study`.

    The signal must declare a Lipschitz constant so that L/w certifies the
    modulus of continuity from above.
    """
    if f.lipschitz_constant is None:
        raise ValueError("quantitative bound needs a declared Lipschitz constant")
    report = convergence_study(phi, psi, f, w_list, window, grid_step)
    return bound_checks(report, tolerance_pad)


def modular_inequality_cells(specs: Sequence[OperatorSpec], f: Signal, cells: Sequence,
                             window, modular_tol: float = 1e-9,
                             tolerance_pad: float = 1e-8) -> list:
    """Compare the modular of the reconstruction against its theoretical
    majorant at the scale of each of ``specs``, for each ``(eta, lam)`` pair
    in ``cells``. The specs must differ only in ``w``.

    The majorant couples the discrete zeroth moment of the sample kernel
    (half-open windows make it 1 on the unit window) with the L1 norms, and
    scales the signal's modular by the product of zeroth moments. The
    moments and the majorants do not depend on the scale and are computed
    once, in one batched quadrature; one evaluator and one batched
    quadrature per scale serve every cell, so each sample is computed once
    and each node evaluated once per round. The result holds, per scale, one
    :class:`ModularComparison` per cell, or the string ``"overflow"`` for a
    cell whose gauge overflows; the other cells are unaffected. A cell holds
    when lhs is at most rhs plus ``tolerance_pad``, or plus the quadrature's
    rounding floor (50 eps of rhs) where that is larger.
    """
    first = _shared_spec(specs)
    phi, psi = first.phi, first.psi
    if not isinstance(psi, (Window, Convolution)):
        raise TypeError("the modular inequality needs a window or convolution functional")
    psi_kernel = psi.kernel
    m0_psi = discrete_absolute_moment(psi_kernel, 0, probes=1024, tol=1e-6)
    m0_phi = discrete_absolute_moment(phi, 0, probes=1024, tol=1e-6)
    t0_psi = continuous_absolute_moment(psi_kernel, 0, tol=1e-9)
    ratio = (m0_psi.value + m0_psi.certified_error) * phi.l1_norm / (
        m0_phi.value * t0_psi.value
    )
    scaled = [(eta, lam * m0_phi.value * t0_psi.value) for eta, lam in cells]
    majorants = [None if value is None else ratio * value
                 for value in modulars(scaled, f, window, tol=modular_tol)]
    live = [cell for cell, rhs in zip(cells, majorants) if rhs is not None]

    tables = []
    for spec in specs:
        lhs_values = iter(modulars(live, SeriesEvaluator(spec, f), window, tol=modular_tol))
        results = []
        for rhs in majorants:
            lhs = None if rhs is None else next(lhs_values)
            if lhs is None:
                results.append("overflow")
            else:
                # Both sides are quadratures, each known only to its rounding floor.
                margin = rhs + max(tolerance_pad, ROUNDING_FLOOR * abs(rhs)) - lhs
                results.append(ModularComparison(lhs, rhs, ratio, margin, margin >= 0.0))
        tables.append(results)
    return tables


def verify_modular_inequality(phi: _k.Kernel, psi_kernel: _k.Kernel, f: Signal,
                              eta: OrliczFunction, lam: float, window, w: float,
                              modular_tol: float = 1e-9,
                              tolerance_pad: float = 1e-8) -> ModularComparison:
    """One cell at one scale of :func:`modular_inequality_cells`, sampling
    through a convolution with ``psi_kernel`` at the default ``quad_tol``; an
    overflowing gauge raises :class:`~durrmeyer.orlicz.ModularOverflowError`."""
    spec = OperatorSpec(phi, Convolution(psi_kernel), float(w))
    [[result]] = modular_inequality_cells(
        [spec], f, [(eta, lam)], window, modular_tol=modular_tol, tolerance_pad=tolerance_pad,
    )
    if result == "overflow":
        raise ModularOverflowError(f"the modular of {eta.label} at lambda={lam:g} overflows")
    return result
