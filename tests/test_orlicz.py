import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from durrmeyer import cli as C
from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import orlicz as X
from durrmeyer import signals as S
from durrmeyer.quadrature import QuadratureError

GAUGE_CATALOG = [
    X.PowerFunction(1),
    X.PowerFunction(2),
    X.PowerFunction(3),
    X.ZygmundFunction(1, 1),
    X.ZygmundFunction(2, 1),
    X.ExponentialFunction(1),
    X.ExponentialFunction(2),
]


def grid_cells(grid, values):
    """Value i on the grid's cell [start + i*step, start + (i+1)*step), zero
    outside: a piecewise-constant signal whose breakpoints are the edges."""
    edges = grid.start + grid.step * np.arange(grid.count + 1)
    return S.piecewise_constant(zip(edges[:-1], edges[1:], values), name="grid-cells")


def pnorm_oracle(f, p, window):
    """Independent window-truncated p-norm via piecewise quadrature."""
    cuts = [b for b in f.breakpoints if window[0] < b < window[1]]
    edges = [window[0]] + sorted(cuts) + [window[1]]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = scipy_quad(lambda x: abs(f.evaluate(x)) ** p, lo, hi, limit=200)
        total += val
    return total ** (1.0 / p)


class TestGaugeFunctions:
    def test_reference_values(self):
        assert X.PowerFunction(2)(3.0) == 9.0
        assert X.ZygmundFunction(1, 1)(0.0) == 0.0
        assert X.ExponentialFunction(1)(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            X.PowerFunction(0.5)
        with pytest.raises(ValueError):
            X.ZygmundFunction(0.5, 1)
        with pytest.raises(ValueError):
            X.ZygmundFunction(1, 0)
        with pytest.raises(ValueError):
            X.ExponentialFunction(0)
        # exp(u**0.5) - 1 is concave near zero.
        with pytest.raises(ValueError, match="convexity"):
            X.ExponentialFunction(0.5)

    @pytest.mark.parametrize("eta", GAUGE_CATALOG, ids=lambda e: e.label)
    def test_gauge_axioms_on_sampled_points(self, eta):
        rng = np.random.default_rng(3)
        assert eta(0.0) == 0.0
        us = np.sort(rng.uniform(1e-6, 20.0, size=200))
        vals = np.asarray(eta(us))
        assert np.all(vals > 0)
        assert np.all(np.diff(np.asarray(eta(np.sort(us)))) >= -1e-12)
        # midpoint convexity on sampled pairs
        a = rng.uniform(0, 15, size=300)
        b = rng.uniform(0, 15, size=300)
        mid = np.asarray(eta((a + b) / 2.0))
        avg = (np.asarray(eta(a)) + np.asarray(eta(b))) / 2.0
        assert np.all(mid <= avg * (1 + 1e-12) + 1e-12)

    def test_gauges_declare_their_degree(self):
        assert X.PowerFunction(2.5).homogeneity == 2.5
        assert X.ZygmundFunction(1, 1).homogeneity is None
        assert X.ExponentialFunction(1).homogeneity is None

    def test_doubling_ratio_behavior(self):
        us = np.logspace(-3, 3, 400)
        for eta in (X.PowerFunction(2), X.ZygmundFunction(1, 1)):
            ratios = np.asarray(eta(2 * us)) / np.asarray(eta(us))
            assert np.isfinite(ratios.max())
            assert ratios.max() <= 2 ** 3 + 1e-9  # crude but finite ceiling
        exp = X.ExponentialFunction(1)
        ratio_at = lambda u: exp(2 * u) / exp(u)
        assert ratio_at(10.0) > 10.0 * ratio_at(1.0)

    def test_exponential_overflow_is_infinite(self):
        # exp overflows to inf, as a power does; the cell's modular is then
        # an overflow.
        with np.errstate(over="ignore"):
            assert X.ExponentialFunction(1)(800.0) == math.inf
            assert X.ExponentialFunction(2)(30.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert X.modulars([(X.ExponentialFunction(1), 800.0),
                               (X.ExponentialFunction(2), 30.0)],
                              S.builtin_signal("constant", 1.0), (0, 1)) == [None, None]


class TestModular:
    def test_box_first_power(self):
        f = S.builtin_signal("box")
        assert X.modular(X.PowerFunction(1), f, 1.0, (-2, 2), tol=1e-10) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_zero_signal_is_zero(self):
        zero = S.builtin_signal("constant", 0.0)
        for eta in GAUGE_CATALOG:
            assert X.modular(eta, zero, 2.0, (-5, 5)) == 0.0

    def test_grid_function_is_exact(self):
        grid = S.UniformGrid.from_window(-1, 2, 0.25)
        values = [1.0 if 0.0 <= x < 1.0 else 0.0 for x in grid.points()]
        g = grid_cells(grid, values)
        result = X.modular(X.ExponentialFunction(1), g, 1.0, (-1, 2))
        assert result == pytest.approx(math.e - 1.0, rel=1e-15)

    @pytest.mark.parametrize("k", range(9))
    def test_large_constant_is_exact_to_rounding(self, k):
        # From k = 4 on (a modular of 1e8) its rounding level exceeds the
        # tolerance, and the quadrature stops at that level.
        f = S.builtin_signal("constant", 10.0**k)
        value = X.modular(X.PowerFunction(2), f, 1.0, (0, 1), tol=1e-8)
        assert value == pytest.approx(10.0 ** (2 * k), rel=1e-15)

    def test_grid_function_matches_its_exact_sum(self):
        # Each constant cell between the declared edges integrates to
        # rounding: width times gauge value, summed exactly.
        grid = S.UniformGrid(-0.5, 1e-3, 1000)
        values = np.random.default_rng(3).uniform(-2.0, 2.0, grid.count)
        g = grid_cells(grid, values)
        gauges = [X.PowerFunction(2), X.ZygmundFunction(1, 1), X.ExponentialFunction(1)]
        results = X.modulars([(eta, 1.0) for eta in gauges], g, (-0.5, 0.5))
        for eta, value in zip(gauges, results):
            exact = math.fsum(grid.step * eta(np.abs(values)))
            assert value == pytest.approx(exact, rel=1e-14)

    def test_monotone_in_lambda(self):
        f = S.builtin_signal("runge")
        rng = np.random.default_rng(5)
        for eta in (X.PowerFunction(2), X.ZygmundFunction(1, 1), X.ExponentialFunction(1)):
            lams = np.sort(rng.uniform(0.1, 3.0, size=6))
            vals = [X.modular(eta, f, float(l), (-4, 4), tol=1e-9) for l in lams]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_lambda_validation(self):
        f = S.builtin_signal("runge")
        with pytest.raises(ValueError):
            X.modular(X.PowerFunction(2), f, 0.0, (-1, 1))
        with pytest.raises(ValueError):
            X.modular(X.PowerFunction(2), f, 1.0, (1, -1))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("grid", [False, True], ids=["signal", "grid"])
    def test_tolerance_must_be_finite_and_positive(self, tol, grid):
        f = Counting(S.builtin_signal("runge"))
        if grid:
            f = grid_cells(S.UniformGrid(-1.0, 0.5, 5), np.ones(5))
        with pytest.raises(ValueError, match="tolerance"):
            X.modulars([(X.PowerFunction(2), 1.0)], f, (-1, 1), tol=tol)
        assert grid or f.calls == []

    @pytest.mark.parametrize("window", [(math.nan, 2.0), (-2.0, math.inf), (-math.inf, 2.0)])
    def test_non_finite_window_refused_before_any_evaluation(self, window):
        f = Counting(S.builtin_signal("box"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                X.modulars([(X.PowerFunction(2), 1.0)], f, window)
        assert f.calls == []

    def test_overflow_propagates(self):
        f = S.builtin_signal("piecewise_rational")  # sup 50
        with pytest.raises(X.ModularOverflowError):
            X.modular(X.ExponentialFunction(1), f, 20.0, (-8, 8))


class TestModularDistance:
    def test_identical_signals(self):
        f = S.builtin_signal("runge")
        assert X.modular_distance(X.PowerFunction(2), f, f, 1.0, (-3, 3)) == 0.0

    def test_box_against_zero(self):
        f = S.builtin_signal("box")
        zero = S.builtin_signal("constant", 0.0)
        assert X.modular_distance(X.PowerFunction(2), f, zero, 1.0, (-2, 2),
                                  tol=1e-10) == pytest.approx(2.0, abs=1e-9)

    def test_unit_step_difference_exponential(self):
        f = S.indicator(0, 1)
        zero = S.builtin_signal("constant", 0.0)
        result = X.modular_distance(X.ExponentialFunction(1), f, zero,
                                    math.log(2.0), (-1, 2), tol=1e-10)
        assert result == pytest.approx(1.0, abs=1e-9)


def reconstruction(name, w=5.0):
    """B-spline 2 series with unit-window samples of a builtin signal."""
    spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
    return O.SeriesEvaluator(spec, S.builtin_signal(name))


class Counting:
    """An evaluable that records the points of each evaluate call."""

    def __init__(self, f):
        self._f = f
        self.breakpoints = tuple(getattr(f, "breakpoints", ()))
        self.calls = []

    def evaluate(self, x):
        self.calls.append(np.array(x, dtype=float, copy=True))
        return self._f.evaluate(x)


MATRIX_GAUGES = (X.PowerFunction(1), X.PowerFunction(2), X.ZygmundFunction(1, 1))


class TestModulars:
    @pytest.mark.parametrize("name, lams", [("box", (0.25, 0.5, 1.0)),
                                            ("piecewise_rational", (0.5,))])
    def test_each_cell_equals_its_modular_call_bitwise(self, name, lams):
        f = reconstruction(name)
        cells = [(eta, lam) for eta in MATRIX_GAUGES for lam in lams]
        values = X.modulars(cells, f, (-8, 8), tol=1e-9)
        assert values == [X.modular(eta, f, lam, (-8, 8), tol=1e-9) for eta, lam in cells]

    def test_overflowing_cell_leaves_its_neighbours_alone(self):
        f = S.builtin_signal("piecewise_rational")  # sup 50, and exp(20 * 50) overflows
        cells = [(X.PowerFunction(2), 0.5), (X.ExponentialFunction(1), 20.0),
                 (X.ZygmundFunction(1, 1), 0.5)]
        values = X.modulars(cells, f, (-8, 8), tol=1e-9)
        assert values[1] is None
        with pytest.raises(X.ModularOverflowError):
            X.modular(X.ExponentialFunction(1), f, 20.0, (-8, 8), tol=1e-9)
        for (eta, lam), value in zip(cells[::2], values[::2]):
            assert value == X.modular(eta, f, lam, (-8, 8), tol=1e-9)

    def test_first_round_evaluates_each_distinct_node_once(self):
        f = Counting(reconstruction("box"))
        cells = [(eta, lam) for eta in MATRIX_GAUGES for lam in (0.25, 0.5, 1.0)]
        X.modulars(cells, f, (-8, 8), tol=1e-9)
        first = f.calls[0]
        cuts = [p for p in f.breakpoints if -8 < p < 8]
        assert first.size == 15 * (len(set(cuts)) + 1)
        assert np.unique(first.view(np.int64)).size == first.size

    def test_grid_function_cells(self):
        grid = S.UniformGrid.from_window(-1, 2, 0.25)
        g = grid_cells(grid, [1.0 if 0.0 <= x < 1.0 else 0.0 for x in grid.points()])
        values = X.modulars([(X.ExponentialFunction(1), 1.0), (X.ExponentialFunction(1), 800.0)],
                            g, (-1, 2))
        assert values[0] == pytest.approx(math.e - 1.0, rel=1e-15)
        assert values[1] is None

    def test_no_cells(self):
        assert X.modulars([], S.builtin_signal("box"), (-1, 1)) == []

    def test_infinite_power_and_zygmund_values_are_overflows(self):
        # Each gauge reaches infinity where its float overflows; such a cell
        # is an overflow, and no numpy warning escapes.
        big = S.builtin_signal("constant", 1e200)
        cells = [(X.PowerFunction(2), 1.0), (X.ZygmundFunction(1, 1), 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert X.modulars(cells, big, (0, 1)) == [None, None]
            with pytest.raises(X.ModularOverflowError):
                X.modular(X.PowerFunction(2), big, 1.0, (0, 1))

    def test_an_exponential_below_the_float_limit_is_finite(self):
        # exp(705) is finite, and so is its integral over (0, 1); over
        # (0, 1000) the integral is not.
        cells = [(X.ExponentialFunction(1), 1.0)]
        f = S.builtin_signal("constant", 705.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [value] = X.modulars(cells, f, (0, 1))
            assert X.modulars(cells, f, (0, 1000)) == [None]
        assert value == pytest.approx(math.expm1(705.0), rel=1e-14)
        assert value == pytest.approx(1.505e306, rel=1e-3)

    def test_infinite_cell_leaves_its_neighbours_alone(self):
        f = S.builtin_signal("runge")
        cells = [(X.PowerFunction(2), 1.0), (X.PowerFunction(2), 1e200),
                 (X.ZygmundFunction(1, 1), 0.5), (X.ZygmundFunction(2, 1), 1e200)]
        values = X.modulars(cells, f, (-2, 2))
        assert values[1::2] == [None, None]
        assert values[::2] == [X.modular(eta, f, lam, (-2, 2)) for eta, lam in cells[::2]]

    def test_grid_function_infinite_cell_overflows(self):
        grid = S.UniformGrid.from_window(0, 1, 0.25)
        g = grid_cells(grid, np.full(grid.count, 1e200))
        values = X.modulars([(X.PowerFunction(2), 1.0), (X.PowerFunction(1), 1.0)], g, (0, 1))
        assert values == [None, pytest.approx(1e200, rel=1e-15)]


def knot_exact_modular(evaluator, eta, lam, window):
    """The modular of a B-spline 2 series over the window, independent of
    adaptive quadrature: the series is linear between the knots k/w, so
    40-point Gauss-Legendre on each knot cell, split at its zero crossing,
    integrates eta(lam |S|) to rounding."""
    lo, hi = window
    w = evaluator.spec.w
    knots = np.arange(np.ceil(w * lo), np.floor(w * hi) + 1) / w
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    s = evaluator.evaluate(edges)
    a, b, sa, sb = edges[:-1], edges[1:], s[:-1], s[1:]
    cross = sa * sb < 0
    z = a - sa * (b - a) / np.where(cross, sb - sa, 1.0)
    zeros = np.zeros(np.count_nonzero(cross))
    p = np.concatenate((a[~cross], a[cross], z[cross]))
    q = np.concatenate((b[~cross], z[cross], b[cross]))
    sp = np.concatenate((sa[~cross], sa[cross], zeros))
    sq = np.concatenate((sb[~cross], zeros, sb[cross]))
    x, weights = np.polynomial.legendre.leggauss(40)
    values = sp[:, None] + (sq - sp)[:, None] * (0.5 * (x + 1.0))
    return float((0.5 * (q - p) * (eta(lam * np.abs(values)) @ weights)).sum())


class TestLatticeKnots:
    def test_series_knots_are_the_breakpoint_phases(self):
        window = O.Window(0.0, 1.0, 1.0)
        f = S.builtin_signal("runge")
        for n, phases in [(1, [0.5]), (2, [0.0]), (3, [0.5]), (4, [0.0])]:
            spec = O.OperatorSpec(K.bspline(n), window, 5.0)
            knots = O.SeriesEvaluator(spec, f).knots
            assert knots.dtype == np.float64 and knots.tolist() == phases
        spec = O.OperatorSpec(K.fejer(), window, 5.0, series_tol=1e-3)
        assert O.SeriesEvaluator(spec, f).knots is None

    def test_difference_declares_no_cuts(self):
        f = S.builtin_signal("runge")
        assert not hasattr(X.Difference(reconstruction("runge"), f), "cuts")

    def test_every_cut_lies_strictly_inside_its_cell(self):
        # Knot phases 0, 0.25 and 0.5: a B-spline 2 that declares two more
        # breakpoints, between which it is still linear.
        phi = dataclasses.replace(K.bspline(2), breakpoints=(-1.0, -0.75, 0.0, 0.5, 1.0))
        w, phases = 7.0, (0.0, 0.25, 0.5)
        f = O.SeriesEvaluator(O.OperatorSpec(phi, O.Window(0.0, 1.0, 1.0), w),
                              S.builtin_signal("piecewise_rational"))
        assert f.knots.tolist() == list(phases)
        rng = np.random.default_rng(7)
        knots = (np.arange(-100, 300)[:, None] + np.array(phases)).ravel() / w
        lo = np.concatenate((rng.uniform(-10, 10, 3000),
                             rng.choice(knots[:900], 1000),  # edges on a knot
                             rng.choice(knots[:900], 1000) - 1e-9))  # a knot just inside
        width = np.concatenate((10.0 ** rng.uniform(-12, 1, 3000),
                                1.0 / w * rng.choice([0.25, 0.5, 1.0, 3.0], 1000),
                                np.full(1000, 2e-9)))
        hi = lo + width
        cell, at = f.cuts(lo, hi)
        assert np.all((lo[cell] < at) & (at < hi[cell]))
        assert np.all((np.diff(cell) > 0) | ((np.diff(cell) == 0) & (np.diff(at) > 0)))
        # Every knot inside a cell is one of its cuts ...
        inside = (knots > lo[:, None]) & (knots < hi[:, None])
        held, j = np.nonzero(inside)
        pairs = set(zip(cell.tolist(), at.tolist()))
        assert set(zip(held.tolist(), knots[j].tolist())) <= pairs
        bound = np.array([f.knot_count(a, b) for a, b in zip(lo, hi)])
        assert np.all(inside.sum(axis=1) <= bound)
        assert np.all(bound <= inside.sum(axis=1) + 2 * len(phases))
        # ... and every other cut is a zero of the series, which is linear
        # on a cell that holds no knot: one zero where its ends differ in sign.
        zero = ~np.isin(at, knots)
        assert np.abs(f.evaluate(at[zero])).max() < 1e-12
        bare = ~inside.any(axis=1)
        sign_change = np.sign(f.evaluate(lo)) * np.sign(f.evaluate(hi)) < 0
        cuts_per_cell = np.bincount(cell, minlength=lo.size)
        assert np.array_equal(cuts_per_cell[bare], sign_change[bare].astype(int))
        assert sign_change[bare].any() and not sign_change[bare].all()

    def test_a_decaying_phi_gives_no_cuts(self):
        spec = O.OperatorSpec(K.fejer(), O.Window(0.0, 1.0, 1.0), 5.0, series_tol=1e-3)
        f = O.SeriesEvaluator(spec, S.builtin_signal("runge"))
        cell, at = f.cuts(np.array([-1.0, 0.3]), np.array([1.0, 2.0]))
        assert cell.size == at.size == 0
        assert f.knot_count(-1.0, 1.0) == 0

    # Window offsets of the orlicz_matrix benchmark at seeds 1, 8 and 14.
    @pytest.mark.parametrize("offset", [0.1343642441, 0.2267058594, 0.1068285377])
    @pytest.mark.parametrize("name, lams", [("box", (0.25, 0.5, 1.0)),
                                            ("piecewise_rational", (0.5,))])
    @pytest.mark.parametrize("w", [5.0, 10.0])
    def test_modulars_meet_the_knot_exact_reference(self, offset, name, lams, w):
        f = reconstruction(name, w)
        window = (-8.0 + offset, 8.0 + offset)
        cells = [(eta, lam) for eta in MATRIX_GAUGES for lam in lams]
        for (eta, lam), value in zip(cells, X.modulars(cells, f, window, tol=1e-9)):
            assert value == pytest.approx(knot_exact_modular(f, eta, lam, window), abs=1e-12)

    @pytest.mark.parametrize("w", [5.0, 10.0])
    def test_rational_series_modulars_take_at_most_three_rounds(self, monkeypatch, w):
        # Bisecting toward the series' zero crossing took 14 rounds at w = 5.
        calls = []

        def counting(f, *args, **kwargs):
            def integrand(*x):
                calls.append(1)
                return f(*x)
            return integrate(integrand, *args, **kwargs)

        integrate = X.integrate
        monkeypatch.setattr(X, "integrate", counting)
        window = (-8.0 + 0.1068285377, 8.0 + 0.1068285377)
        cells = [(eta, 0.5) for eta in MATRIX_GAUGES]
        tol = C._DEFAULT_TOLERANCES["modular_tol"]  # as the orlicz command runs them
        X.modulars(cells, reconstruction("piecewise_rational", w), window, tol=tol)
        assert len(calls) <= 3

    def test_a_knot_partition_over_the_cap_is_refused_before_evaluation(self, monkeypatch):
        f = reconstruction("piecewise_rational", 10.0)
        assert f.knot_count(-8.0, 8.0) == 161  # 159 inside, bounded by 160 + 1
        monkeypatch.setattr(O, "_MAX_CUTS", 300)
        # One copy's 159 knots fit; two copies' 318 do not.
        X.modulars([(X.PowerFunction(2), 0.5)], f, (-8, 8), tol=1e-9)

        def evaluate(x):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(f, "evaluate", evaluate)
        with pytest.raises(QuadratureError, match="cut at 318 knots in one round; at most 300 are allowed"):
            f.cuts(np.array([-8.0, -8.0]), np.array([8.0, 8.0]))


class NanHole:
    """1 on the line except NaN on (0.4, 0.6), where no overflow happens."""

    breakpoints = (0.4, 0.6)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.4) & (x < 0.6), np.nan, 1.0)


class InfSpike:
    """1 on the line except infinite on (0.4, 0.6)."""

    breakpoints = (0.4, 0.6)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.4) & (x < 0.6), np.inf, 1.0)


class TestNotANumber:
    def test_modulars_raise_naming_gauge_and_lambda(self):
        cells = [(X.PowerFunction(2), 1.0), (X.ZygmundFunction(1, 1), 0.5)]
        with pytest.raises(ArithmeticError, match=r"power\(2\) at lambda=1\b"):
            X.modulars(cells, NanHole(), (0, 1))

    def test_modular_raises(self):
        with pytest.raises(ArithmeticError, match=r"power\(2\) at lambda=1\b.*NaN"):
            X.modular(X.PowerFunction(2), NanHole(), 1.0, (0, 1))

    def test_luxemburg_norm_raises(self):
        for eta in (X.PowerFunction(2), X.ZygmundFunction(1, 1)):
            with pytest.raises(ArithmeticError, match=r"at lambda=1\b.*NaN"):
                X.luxemburg_norm(eta, NanHole(), (0, 1))

    @pytest.mark.parametrize("eta", [X.PowerFunction(2), X.ZygmundFunction(1, 1)],
                             ids=lambda e: e.label)
    def test_infinite_spike_has_no_norm(self, eta):
        # An infinite probe peak is no starting scale: the search runs from
        # one, and every scaling overflows up to the cap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(X.NormBracketError):
                X.luxemburg_norm(eta, InfSpike(), (0, 1))

    def test_nan_cell_raises(self):
        # NaN on the grid cell [0.25, 0.5), 1 elsewhere; piecewise_constant
        # refuses a NaN value, so this is a plain signal with the same edges.
        g = S.Signal("nan-cell", lambda x: np.where((x >= 0.25) & (x < 0.5), np.nan, 1.0),
                     breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0, 1.25))
        with pytest.raises(ArithmeticError, match="NaN"):
            X.modulars([(X.PowerFunction(2), 1.0)], g, (0, 1))

    def test_window_clear_of_the_hole_and_overflow_still_read(self):
        values = X.modulars([(X.PowerFunction(2), 1.0), (X.ExponentialFunction(1), 800.0)],
                            NanHole(), (0.6, 1))
        assert values[0] == pytest.approx(0.4, rel=1e-12)
        assert values[1] is None


class TestBatchedModulars:
    CELLS = [(eta, lam) for eta in (X.PowerFunction(1), X.PowerFunction(2),
                                    X.ZygmundFunction(1, 1), X.ExponentialFunction(1))
             for lam in (0.5, 1.0)]

    def test_each_job_equals_its_solo_call_bitwise(self):
        # Series that cut at their knots, at two scales with different
        # breakpoints, beside functions without cuts or breakpoints, one
        # whose power(2) modulars overflow and one that is NaN on the window.
        box = S.builtin_signal("box")
        pool = [reconstruction("box"), reconstruction("box", 10.0),
                reconstruction("piecewise_rational"), S.builtin_signal("runge"),
                X.Difference(reconstruction("box"), box), box,
                S.builtin_signal("constant", 1e200), NanHole()]
        window = (-2, 2)
        outcomes = set()

        @settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @given(st.lists(st.tuples(st.sampled_from(range(len(pool))),
                                  st.lists(st.sampled_from(self.CELLS), max_size=3)),
                        min_size=1, max_size=4))
        def judged(draws):
            jobs = [(pool[i], cells) for i, cells in draws]
            solo, raised = [], None
            for f, cells in jobs:
                try:
                    solo.append(X.modulars(cells, f, window, tol=1e-8))
                except ArithmeticError as error:
                    raised = raised or str(error)
            if raised is None:
                assert X.batched_modulars(jobs, window, tol=1e-8) == solo
                outcomes.add("overflow" if None in sum(solo, []) else "finite")
            else:
                with pytest.raises(ArithmeticError) as error:
                    X.batched_modulars(jobs, window, tol=1e-8)
                assert str(error.value) == raised
                outcomes.add("nan")

        judged()
        assert outcomes == {"finite", "overflow", "nan"}

    def test_no_jobs(self):
        assert X.batched_modulars([], (-1, 1)) == []
        assert X.batched_modulars([(S.builtin_signal("box"), [])], (-1, 1)) == [[]]


class ScaledPower:
    """u -> 3 u**1.5, a user gauge declaring ``homogeneity`` or not."""

    label = "3u^1.5"

    def __init__(self, homogeneity):
        self.homogeneity = homogeneity

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        out = 3.0 * arr**1.5
        return float(out) if arr.ndim == 0 else out


class TestLuxemburgNorm:
    def test_unit_indicator_norm_is_one(self):
        f = S.indicator(0, 1)
        for p in (1, 2, 3):
            norm = X.luxemburg_norm(X.PowerFunction(p), f, (-1, 2), tol=1e-10)
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_wide_indicator(self):
        f = S.indicator(0, 4)
        norm = X.luxemburg_norm(X.PowerFunction(2), f, (-1, 5), tol=1e-10)
        assert norm == pytest.approx(2.0, abs=1e-8)

    def test_zero_signal(self):
        zero = S.builtin_signal("constant", 0.0)
        assert X.luxemburg_norm(X.PowerFunction(2), zero, (-1, 1)) == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ["box", "runge", "piecewise_rational"])
    def test_matches_classical_p_norm(self, p, name):
        f = S.builtin_signal(name)
        window = (-8, 8)
        oracle = pnorm_oracle(f, p, window)
        norm = X.luxemburg_norm(X.PowerFunction(p), f, window, tol=1e-10)
        assert norm == pytest.approx(oracle, rel=1e-7)

    def test_absolute_homogeneity(self):
        f = S.builtin_signal("box")
        eta = X.PowerFunction(2)
        base = X.luxemburg_norm(eta, f, (-2, 2), tol=1e-10)
        for c in (0.5, 2.0, -3.0):
            scaled = X.luxemburg_norm(eta, f.scaled(c), (-2, 2), tol=1e-10)
            assert scaled == pytest.approx(abs(c) * base, abs=2e-8 * max(1, abs(c)))

    def test_norm_modular_consistency(self):
        for name in ("box", "runge"):
            f = S.builtin_signal(name)
            for eta in (X.PowerFunction(2), X.ZygmundFunction(1, 1),
                        X.ExponentialFunction(1)):
                norm = X.luxemburg_norm(eta, f, (-4, 4), tol=1e-9)
                assert X.modular(eta, f, 1.0 / norm, (-4, 4), tol=1e-10) <= 1.0 + 1e-8

    def test_power2_norm_is_root_of_the_modular(self):
        f = reconstruction("box")
        norm = X.luxemburg_norm(X.PowerFunction(2), f, (-8, 8))
        root = math.sqrt(X.modular(X.PowerFunction(2), f, 1.0, (-8, 8), tol=1e-12))
        assert norm == pytest.approx(root, rel=1e-8)

    @pytest.mark.parametrize("eta", [X.PowerFunction(1), X.PowerFunction(2), X.PowerFunction(3),
                                     X.ZygmundFunction(1, 1), X.ExponentialFunction(1)],
                             ids=lambda e: e.label)
    def test_norm_brackets_the_definition(self, eta):
        f = reconstruction("box")
        tol = 1e-9
        norm = X.luxemburg_norm(eta, f, (-8, 8), tol=tol)
        assert X.modular(eta, f, 1.0 / (norm * (1 + tol)), (-8, 8), tol=1e-12) <= 1 + 1e-8
        assert X.modular(eta, f, 1.0 / (norm * (1 - tol)), (-8, 8), tol=1e-12) >= 1 - 1e-8

    @staticmethod
    def integrate_calls(monkeypatch, eta, f, window=(-8, 8)):
        calls = []
        real = X.integrate

        def counting(*args, **kwargs):
            calls.append(np.size(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(X, "integrate", counting)
        X.luxemburg_norm(eta, f, window)
        return len(calls)

    def test_one_norm_is_a_few_batched_quadratures(self, monkeypatch):
        assert self.integrate_calls(monkeypatch, X.PowerFunction(2), reconstruction("box")) == 1
        # The k-section stays live for a gauge that declares no degree.
        calls = self.integrate_calls(monkeypatch, X.ZygmundFunction(1, 1), reconstruction("box"))
        assert 2 < calls <= 14

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", ["box", "runge", "piecewise_rational"])
    def test_power_norm_is_at_most_two_quadratures(self, monkeypatch, name, p):
        for f in (S.builtin_signal(name), reconstruction(name, 10.0)):
            assert self.integrate_calls(monkeypatch, X.PowerFunction(p), f) <= 2

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_power_norm_is_exactly_homogeneous_in_the_amplitude(self, p):
        box = S.builtin_signal("box")
        eta = X.PowerFunction(p)
        base = X.luxemburg_norm(eta, box, (-2, 2))
        for c in (1e-8, 1e-4, 1e-2, 1.0, 1e3, 1e8, 1e12):
            norm = X.luxemburg_norm(eta, box.scaled(c), (-2, 2))
            assert norm == pytest.approx(c * base, rel=1e-12)

    @pytest.mark.parametrize("eta, c", [(X.ZygmundFunction(1, 1), 1e8),
                                        (X.ExponentialFunction(1), 1e3)],
                             ids=["zygmund(1,1)", "exponential(1)"])
    def test_search_starts_at_the_probe_peak(self, eta, c):
        # At scale one the first modular of these amplitudes cannot meet an
        # absolute quadrature tolerance; at the peak it is of order one.
        box = S.builtin_signal("box")
        norm = X.luxemburg_norm(eta, box.scaled(c), (-2, 2))
        assert norm == pytest.approx(c * X.luxemburg_norm(eta, box, (-2, 2)), rel=1e-9)
        assert X.modular(eta, box.scaled(c), 1.0 / norm, (-2, 2), tol=1e-12) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("eta", [X.ZygmundFunction(1, 1), X.ExponentialFunction(1)],
                             ids=lambda e: e.label)
    def test_norm_is_homogeneous_at_small_amplitudes(self, eta):
        # The bracket comes from the modular at the probe peak, with no
        # scale floor, so a tiny amplitude scales its norm like any other.
        box = S.builtin_signal("box")
        base = X.luxemburg_norm(eta, box, (-2, 2))
        for c in (1e-14, 1e-13, 1e-12, 1.0, 1e3):
            norm = X.luxemburg_norm(eta, box.scaled(c), (-2, 2))
            assert norm == pytest.approx(c * base, rel=1e-9, abs=0.0)

    def test_closed_form_meets_the_knot_exact_reference(self):
        # The modular at the probe peak is below one here, so one call alone
        # misses the reference by about 1e-9; the second, near one, meets it.
        f = reconstruction("piecewise_rational", 10.0)
        eta = X.PowerFunction(2)
        reference = math.sqrt(knot_exact_modular(f, eta, 1.0, (-8, 8)))
        assert X.luxemburg_norm(eta, f, (-8, 8)) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("name", ["box", "runge", "piecewise_rational"])
    def test_declared_homogeneity_matches_the_search(self, name):
        f = reconstruction(name, 10.0)
        declared = X.luxemburg_norm(ScaledPower(1.5), f, (-8, 8))
        searched = X.luxemburg_norm(ScaledPower(None), f, (-8, 8))
        assert declared == pytest.approx(searched, rel=1e-9)

    def test_tolerance_below_float_resolution_terminates(self):
        f = S.indicator(0, 2)
        norm = X.luxemburg_norm(X.PowerFunction(2), f, (-1, 3), tol=1e-17)
        assert norm == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_sectioning_stops_when_no_float_lies_between_the_ends(self):
        # The exponential gauge declares no degree, so its bracket is
        # sectioned. On the indicator of [0, 2) the modular is 2 (e^(1/s) - 1).
        f = S.indicator(0, 2)
        norm = X.luxemburg_norm(X.ExponentialFunction(1), f, (-1, 3), tol=1e-17)
        assert norm == pytest.approx(1.0 / math.log(1.5), rel=1e-12)

    def test_a_function_seen_only_by_a_probe_has_norm_zero(self):
        # Nonzero at the probe 1/256 of the window alone: no quadrature node sees it.
        spike = S.Signal("spike", lambda x: np.where(np.asarray(x) == 1 / 256, 1.0, 0.0))
        assert X.luxemburg_norm(X.PowerFunction(2), spike, (0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        f = Counting(S.builtin_signal("box"))
        with pytest.raises(ValueError, match="tolerance"):
            X.luxemburg_norm(X.PowerFunction(2), f, (-2, 2), tol=tol)
        assert f.calls == []

    @pytest.mark.parametrize("window", [(math.nan, 2.0), (-2.0, math.inf), (-2.0, math.nan)])
    def test_non_finite_window_refused_before_any_evaluation(self, window):
        f = Counting(S.builtin_signal("box"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                X.luxemburg_norm(X.PowerFunction(2), f, window)
        assert f.calls == []

    def test_bracket_failure_raises(self):
        huge = S.builtin_signal("constant", 1e13)
        with pytest.raises(X.NormBracketError):
            X.luxemburg_norm(X.ExponentialFunction(1), huge, (-1, 1))


def test_factory_round_trip():
    assert X.GAUGES["power"](p=2).label == "power(2)"
    assert X.GAUGES["zygmund"](alpha=1, beta=1).label == "zygmund(1,1)"
    assert X.GAUGES["exponential"](alpha=1).label == "exponential(1)"
    assert "mystery" not in X.GAUGES


@pytest.mark.parametrize("variant, params", [
    ("power", {"p": 2, "alpha": 1}),
    ("zygmund", {"alpha": 1, "beta": 1, "p": 2}),
    ("exponential", {"alpha": 1, "beta": 1}),
    ("zygmund", {"alpha": 1}),
])
def test_factory_refuses_parameters_its_gauge_does_not_take(variant, params):
    with pytest.raises(TypeError):
        X.GAUGES[variant](**params)
