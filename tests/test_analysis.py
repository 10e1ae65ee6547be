import math

import numpy as np
import pytest

from durrmeyer import analysis as A
from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import orlicz as X
from durrmeyer import signals as S
from durrmeyer.moments import DivergentMomentError


def brute_first_absolute_moment(kernel, samples=20000, radius=8):
    u = np.arange(samples) / samples
    shifts = np.arange(-radius, radius + 1, dtype=float)
    diffs = u[:, None] - shifts[None, :]
    vals = np.abs(np.asarray(kernel.evaluate(diffs))) * np.abs(diffs)
    return float(vals.sum(axis=1).max())


def specs(phi, psi, ws, **tolerances):
    return [O.OperatorSpec(phi, psi, w, **tolerances) for w in ws]


class TestQuantitativeConstant:
    def test_order3_with_unit_window(self):
        # M0=1, Mt0=1, Mt1=1/2, and the brute-force first moment is 1/2.
        assert brute_first_absolute_moment(K.bspline(3)) == pytest.approx(0.5, abs=1e-9)
        c = A.quantitative_constant(K.bspline(3), O.Window(0.0, 1.0, 1.0))
        assert c.value == pytest.approx(2.0, abs=1e-12)
        assert c.certified_error <= 1e-10

    def test_order2_with_point_mass(self):
        assert brute_first_absolute_moment(K.bspline(2)) == pytest.approx(0.5, abs=1e-9)
        c = A.quantitative_constant(K.bspline(2), O.PointMass())
        assert c.value == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_window(self):
        c = A.quantitative_constant(K.bspline(2), O.Window(-1.0, 1.0, 0.5))
        assert c.value == pytest.approx(2.0, abs=1e-12)

    def test_divergent_first_moment_propagates(self):
        with pytest.raises(DivergentMomentError):
            A.quantitative_constant(K.bspline(2), O.Convolution(K.fejer()))


class TestQuantitativeBound:
    def test_runge_bound_holds_with_margin(self):
        checks = A.verify_quantitative_bound(
            K.bspline(3), O.Window(0.0, 1.0, 1.0), S.builtin_signal("runge"),
            [10.0], (-3, 3), 0.01,
        )
        assert checks[0].holds and checks[0].margin > 0

    def test_constant_signal_trivially_holds(self):
        checks = A.verify_quantitative_bound(
            K.bspline(2), O.PointMass(), S.builtin_signal("constant", 3.0),
            [5.0, 10.0], (-2, 2), 0.05,
        )
        for check in checks:
            assert check.sup_error <= 1e-10
            assert check.holds

    def test_identity_error_is_half_step_below_bound(self):
        checks = A.verify_quantitative_bound(
            K.bspline(2), O.Window(0.0, 1.0, 1.0), S.builtin_signal("identity"),
            [5.0, 10.0, 20.0], (-3, 3), 0.05,
        )
        for check in checks:
            assert check.sup_error == pytest.approx(1 / (2 * check.w), abs=1e-10)
            assert check.bound >= 1.5 / check.w
            assert check.holds

    def test_requires_lipschitz_constant(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            A.verify_quantitative_bound(
                K.bspline(2), O.PointMass(), S.builtin_signal("box"),
                [5.0], (-2, 2), 0.1,
            )


class TestConvergenceStudy:
    def test_constant_signal_flags_eoc(self):
        report = A.convergence_study(
            K.bspline(2), O.Window(0.0, 1.0, 1.0), S.builtin_signal("constant", 1.0),
            [5.0, 10.0, 20.0], (-2, 2), 0.05,
        )
        for row in report.rows:
            assert row.sup_error <= report.config_echo["series_tol"] + report.config_echo["quad_tol"]
        assert report.eoc == [None, None]

    def test_runge_orders_approach_known_rates(self):
        report = A.convergence_study(
            K.bspline(3), O.Window(0.0, 1.0, 1.0), S.builtin_signal("runge"),
            [5.0, 10.0, 20.0, 40.0], (-3, 3), 0.01,
        )
        sups = [row.sup_error for row in report.rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert report.eoc_source == "sup_error"
        assert report.eoc[-1] == pytest.approx(1.0, abs=0.15)
        assert all(row.quantitative_bound is not None for row in report.rows)

    def test_discontinuous_signal_uses_modular_column(self):
        report = A.convergence_study(
            K.bspline(2), O.Window(0.0, 1.0, 1.0), S.builtin_signal("box"),
            [5.0, 10.0, 20.0], (-3, 3), 0.02,
            eta_list=[X.PowerFunction(2)], lam=1.0, modular_window=(-8, 8),
        )
        assert report.rows[0].sup_error is None
        errors = [row.modular_errors["power(2)"] for row in report.rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert report.eoc_source == "modular[power(2)]"
        assert report.eoc[-1] == pytest.approx(1.0, abs=0.1)

    def test_non_dyadic_pairs_have_no_eoc(self):
        report = A.convergence_study(
            K.bspline(2), O.PointMass(), S.builtin_signal("runge"),
            [5.0, 10.0, 15.0], (-2, 2), 0.05,
        )
        assert report.eoc[0] is not None
        assert report.eoc[1] is None

    def test_ascending_scales_required(self):
        with pytest.raises(ValueError):
            A.convergence_study(
                K.bspline(2), O.PointMass(), S.builtin_signal("runge"),
                [10.0, 5.0], (-2, 2), 0.05,
            )

    @pytest.mark.parametrize("grid_step", [0.0, math.inf])
    def test_grid_step_must_be_finite_and_positive(self, grid_step):
        with pytest.raises(ValueError, match="grid step must be finite and positive"):
            A.convergence_study(
                K.bspline(2), O.PointMass(), S.builtin_signal("runge"),
                [5.0, 10.0], (-1, 1), grid_step,
            )

    def test_report_serialization(self):
        report = A.convergence_study(
            K.bspline(2), O.PointMass(), S.builtin_signal("runge"),
            [5.0, 10.0], (-2, 2), 0.05, eta_list=[X.PowerFunction(1)],
        )
        payload = report.to_dict()
        assert len(payload["rows"]) == 2
        assert payload["config_echo"]["signal"] == "runge"
        assert "power(1)" in payload["rows"][0]["modular_errors"]


class TestConvergenceStudies:
    def test_thin_callers_equal_convergence_studies_bitwise(self):
        phi, psi, f = K.bspline(3), O.Window(0.0, 1.0, 1.0), S.builtin_signal("runge")
        ws, window = [5.0, 10.0, 20.0], (-3, 3)
        groups = [(0.5, [X.ZygmundFunction(1, 1)]),
                  (1.0, [X.PowerFunction(2), X.PowerFunction(1)])]
        reports = A.convergence_studies(specs(phi, psi, ws), f, window, 0.02, groups)
        assert len(reports) == 2
        for (lam, eta_list), report in zip(groups, reports):
            assert report == A.convergence_study(phi, psi, f, ws, window, 0.02,
                                                 eta_list=eta_list, lam=lam)
        checks = A.verify_quantitative_bound(phi, psi, f, ws, window, 0.02)
        assert checks == A.bound_checks(reports[0]) == A.bound_checks(reports[1])
        for check, row in zip(checks, reports[0].rows):
            assert (check.w, check.sup_error, check.bound) == (
                row.w, row.sup_error, row.quantitative_bound)

    def test_no_bound_checks_without_a_lipschitz_constant(self):
        report = A.convergence_study(
            K.bspline(2), O.PointMass(), S.builtin_signal("box"), [5.0], (-2, 2), 0.1,
        )
        assert report.rows[0].quantitative_bound is None
        assert A.bound_checks(report) == []


class TestSpecLists:
    def test_specs_that_differ_beyond_the_scale_are_refused(self):
        phi, f = K.bspline(2), S.builtin_signal("runge")
        window = O.Window(0.0, 1.0, 1.0)
        mixed = [
            [O.OperatorSpec(phi, window, 5.0), O.OperatorSpec(phi, O.PointMass(), 10.0)],
            [O.OperatorSpec(phi, window, 5.0, series_tol=1e-9),
             O.OperatorSpec(phi, window, 10.0, series_tol=1e-6)],
        ]
        for spec_list in mixed:
            with pytest.raises(ValueError, match="differ only in the scale"):
                A.convergence_studies(spec_list, f, (-2, 2), 0.1, [(1.0, [])])
            with pytest.raises(ValueError, match="differ only in the scale"):
                A.modular_inequality_cells(spec_list, f, [(X.PowerFunction(1), 1.0)], (-2, 2))

    def test_an_empty_spec_list_is_refused(self):
        f = S.builtin_signal("runge")
        with pytest.raises(ValueError):
            A.convergence_studies([], f, (-2, 2), 0.1, [(1.0, [])])
        with pytest.raises(ValueError):
            A.modular_inequality_cells([], f, [(X.PowerFunction(1), 1.0)], (-2, 2))


class TestModularInequality:
    def test_zero_signal_degenerates_to_equality(self):
        result = A.verify_modular_inequality(
            K.bspline(2), K.window(0, 1, 1), S.builtin_signal("constant", 0.0),
            X.PowerFunction(2), 1.0, (-4, 4), w=5.0,
        )
        assert result.lhs == 0.0 and result.rhs == 0.0 and result.holds

    def test_box_second_power(self):
        result = A.verify_modular_inequality(
            K.bspline(2), K.window(0, 1, 1), S.builtin_signal("box"),
            X.PowerFunction(2), 1.0, (-8, 8), w=5.0,
        )
        assert result.holds
        assert result.ratio == pytest.approx(1.0, abs=1e-10)
        assert result.lhs <= result.rhs

    def test_piecewise_rational_log_weighted(self):
        result = A.verify_modular_inequality(
            K.bspline(2), K.window(0, 1, 1), S.builtin_signal("piecewise_rational"),
            X.ZygmundFunction(1, 1), 0.5, (-8, 8), w=5.0,
        )
        assert result.holds


class TestModularInequalityCells:
    CELLS = [(X.PowerFunction(1), 0.25), (X.ZygmundFunction(1, 1), 0.5),
             (X.PowerFunction(2), 1.0)]

    @pytest.mark.parametrize("psi", [
        O.Window(0.0, 1.0, 1.0),
        O.Convolution(K.window(0, 1, 1)),
    ], ids=["window", "convolution"])
    def test_each_cell_equals_its_one_cell_call_bitwise(self, psi):
        f = S.builtin_signal("box")
        scale = specs(K.bspline(2), psi, [5.0], quad_tol=1e-10)
        [together] = A.modular_inequality_cells(scale, f, self.CELLS, (-8, 8))
        assert len(together) == len(self.CELLS)
        for cell, shared in zip(self.CELLS, together):
            [[alone]] = A.modular_inequality_cells(scale, f, [cell], (-8, 8))
            assert shared == alone

    def test_one_cell_call_is_verify_modular_inequality(self):
        f = S.builtin_signal("piecewise_rational")
        eta, lam = X.ZygmundFunction(1, 1), 0.5
        [[cell]] = A.modular_inequality_cells(
            specs(K.bspline(2), O.Convolution(K.window(0, 1, 1)), [5.0], quad_tol=1e-10), f,
            [(eta, lam)], (-8, 8),
        )
        assert cell == A.verify_modular_inequality(K.bspline(2), K.window(0, 1, 1), f,
                                                   eta, lam, (-8, 8), 5.0)

    def test_overflow_is_marked_and_raised_by_the_one_cell_call(self):
        f = S.builtin_signal("piecewise_rational")
        [cells] = A.modular_inequality_cells(
            specs(K.bspline(2), O.Window(0.0, 1.0, 1.0), [5.0]), f,
            [(X.ExponentialFunction(1), 20.0), (X.PowerFunction(2), 1.0)], (-8, 8),
        )
        assert cells[0] == "overflow"
        assert isinstance(cells[1], A.ModularComparison) and cells[1].holds
        with pytest.raises(X.ModularOverflowError):
            A.verify_modular_inequality(K.bspline(2), K.window(0, 1, 1), f,
                                        X.ExponentialFunction(1), 20.0, (-8, 8), 5.0)

    def test_each_scale_equals_its_one_scale_call_bitwise(self):
        f = S.builtin_signal("piecewise_rational")
        phi, psi = K.bspline(2), O.Window(0.0, 1.0, 1.0)
        tables = A.modular_inequality_cells(specs(phi, psi, [5.0, 10.0]), f, self.CELLS,
                                            (-8, 8))
        assert len(tables) == 2
        for w, table in zip([5.0, 10.0], tables):
            assert table == A.modular_inequality_cells(specs(phi, psi, [w]), f, self.CELLS,
                                                       (-8, 8))[0]

    def test_fine_scale_piecewise_rational_converges(self):
        # Bisecting through the knots k/w ran out of its 20,000 cells here.
        f = S.builtin_signal("piecewise_rational")
        [[cell]] = A.modular_inequality_cells(
            specs(K.bspline(2), O.Window(0.0, 1.0, 1.0), [1280.0]), f,
            [(X.ZygmundFunction(1, 1), 0.5)], (-8, 8),
        )
        # The knot-exact value: 40-point Gauss-Legendre on every knot cell of
        # the piecewise linear series, split at its zero crossings.
        assert cell.lhs == pytest.approx(27.603355290766427, abs=1e-11)
        assert cell.holds

    @pytest.mark.parametrize("c", [1.0, 1e3, 3e3, 1e5, 1e6, 1e8, 1e9])
    def test_large_constant_holds_to_rounding(self, c):
        # The series reproduces a constant, so lhs = rhs up to rounding; for
        # large c that rounding exceeds the 1e-8 pad, and the verdict reads
        # the quadrature's rounding floor instead.
        cells = [(X.PowerFunction(p), lam) for p in (1, 2, 3) for lam in (0.25, 0.5, 1.0)]
        tables = A.modular_inequality_cells(
            specs(K.bspline(2), O.Window(0.0, 1.0, 1.0), [5.0, 7.0, 10.0]),
            S.builtin_signal("constant", c), cells, (-1.3, 1.7))
        for table in tables:
            for cell in table:
                assert cell.holds is True
                assert cell.lhs == pytest.approx(cell.rhs, rel=1e-14)

    def test_point_mass_is_refused(self):
        with pytest.raises(TypeError):
            A.modular_inequality_cells(specs(K.bspline(2), O.PointMass(), [5.0]),
                                       S.builtin_signal("box"), self.CELLS, (-8, 8))
