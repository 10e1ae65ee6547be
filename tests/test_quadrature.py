import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from durrmeyer import quadrature as Q
from durrmeyer.quadrature import QuadratureError, integrate


def test_low_degree_polynomial_is_exact():
    value, err = integrate(lambda x: x**2, 0.0, 1.0, tol=1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert err <= 1e-12


def test_matches_independent_quadrature_on_smooth_integrand():
    f = lambda x: 1.0 / (x**2 + 1.0)
    value, err = integrate(f, -3.0, 3.0, tol=1e-12)
    oracle, oracle_err = scipy_quad(lambda x: 1.0 / (x**2 + 1.0), -3, 3)
    assert value == pytest.approx(oracle, abs=1e-11 + oracle_err)
    assert value == pytest.approx(2.0 * np.arctan(3.0), abs=1e-12)


def test_breakpoint_makes_kinked_integrand_exact():
    value, err = integrate(np.abs, -1.0, 2.0, tol=1e-13, breakpoints=(0.0,))
    assert value == pytest.approx(2.5, abs=1e-14)
    assert err <= 1e-13


def test_tolerance_is_honored_on_oscillatory_integrand():
    value, err = integrate(np.sin, 0.0, 10.0, tol=1e-11)
    assert err <= 1e-11
    assert value == pytest.approx(1.0 - np.cos(10.0), abs=1e-11)


def test_exterior_breakpoints_are_ignored():
    value, _ = integrate(lambda x: x, 0.0, 1.0, tol=1e-12, breakpoints=(-5.0, 7.0))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_budget_exhaustion_raises():
    singular = lambda x: 1.0 / np.sqrt(np.abs(x))
    with pytest.raises(QuadratureError):
        integrate(singular, 0.0, 1.0, tol=1e-13, max_cells=64)


def test_degenerate_and_invalid_intervals():
    assert integrate(np.sin, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, np.nan, 1.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError, match="same-shape values"):
        integrate(lambda x: x[:-1], 0.0, 1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_refused_before_any_evaluation(tol):
    calls = []

    def kink(x):
        calls.append(x)
        return np.abs(x - 0.3)

    with pytest.raises(ValueError, match="finite"):
        integrate(kink, 0.0, 1.0, tol=tol)
    assert calls == []


def test_narrow_feature_found_when_bracketed_by_breakpoints():
    # A bump of width 0.02 inside [0, 10] is invisible to a single 15-point
    # rule; cutting at its edges makes it its own cell.
    bump = lambda x: np.where((x > 5.0) & (x < 5.02), 1.0, 0.0)
    value, _ = integrate(bump, 0.0, 10.0, tol=1e-9, breakpoints=(5.0, 5.02))
    assert value == pytest.approx(0.02, abs=1e-12)


class TestIntervalArrays:
    # Runge-like integrand with a kink at 0.3: intervals on either side of
    # it, across it, degenerate, wide and narrow, refine differently.
    A = np.array([-4.0, -1.0, 0.0, 0.25, 2.0, -0.5, 1.0])
    B = np.array([4.0, 1.0, 0.5, 0.25, 2.001, 3.0, 7.5])

    @staticmethod
    def f(x):
        return 1.0 / (1.0 + 25.0 * x * x) + np.abs(x - 0.3)

    def test_each_interval_equals_its_scalar_call_bitwise(self):
        values, errors = integrate(self.f, self.A, self.B, tol=1e-12, breakpoints=(0.3,))
        assert values.shape == errors.shape == self.A.shape
        assert np.all(errors <= 1e-12)
        for a, b, value, err in zip(self.A, self.B, values, errors):
            single = integrate(self.f, float(a), float(b), tol=1e-12, breakpoints=(0.3,))
            assert isinstance(single[0], float) and isinstance(single[1], float)
            assert (single[0], single[1]) == (value, err)

    def test_a_float_end_beside_an_array_of_ends_is_broadcast(self):
        values, errors = integrate(self.f, -1.0, self.B, tol=1e-12, breakpoints=(0.3,))
        assert values.shape == errors.shape == self.B.shape
        for b, value, err in zip(self.B, values, errors):
            assert integrate(self.f, -1.0, float(b), tol=1e-12, breakpoints=(0.3,)) == (value, err)

    def test_values_match_independent_quadrature(self):
        values, _ = integrate(self.f, self.A, self.B, tol=1e-12, breakpoints=(0.3,))
        for a, b, value in zip(self.A, self.B, values):
            points = [0.3] if a < 0.3 < b else None
            oracle, oracle_err = scipy_quad(lambda x: float(self.f(x)), a, b,
                                            points=points, epsabs=1e-13)
            assert value == pytest.approx(oracle, abs=2e-12 + oracle_err)

    def test_one_unreachable_interval_fails_the_batch(self):
        singular = lambda x: 1.0 / np.sqrt(np.abs(x))
        with pytest.raises(QuadratureError,
                           match=r"tolerance 1e-13 unreachable on \[0, 1\]: \|K-G\| error estimate"):
            integrate(singular, np.array([1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0]),
                      tol=1e-13, max_cells=64)

    def test_integrand_calls_stay_under_the_node_cap(self):
        seen = []

        def counting(x):
            seen.append(x.size)
            return np.cos(x)

        a = np.arange(20000) / 7.0
        values, _ = integrate(counting, a, a + 1.0, tol=1e-13)
        assert max(seen) <= 1 << 16
        assert sum(seen) >= 15 * a.size
        assert np.allclose(values, np.sin(a + 1.0) - np.sin(a), rtol=0, atol=1e-13)


class TestBreakpointRows:
    # One row of cuts per interval: each row cuts its own interval at kinks
    # the other intervals do not share, and the degenerate interval at
    # index 3 checks that rows are matched to intervals by index into the
    # ends, not by position among the refined intervals.
    A = TestIntervalArrays.A
    B = TestIntervalArrays.B
    ROWS = np.array([[-1.0, 2.5, 0.3], [0.3, -0.2, 0.6], [0.1, 0.45, 0.3],
                     [0.25, 9.0, 0.3], [2.0005, 0.3, -7.0], [0.0, 1.5, 0.3],
                     [3.0, 0.3, 5.25]])

    @staticmethod
    def f(x):
        return (1.0 / (1.0 + 25.0 * x * x) + np.abs(x - 0.3) + np.abs(x + 0.2)
                + np.abs(x - 2.5) + np.abs(x - 5.25))

    def test_each_interval_equals_its_solo_call_with_its_row_bitwise(self):
        values, errors = integrate(self.f, self.A, self.B, tol=1e-12, breakpoints=self.ROWS)
        assert np.all(errors <= 1e-12)
        for a, b, row, value, err in zip(self.A, self.B, self.ROWS, values, errors):
            assert integrate(self.f, float(a), float(b), tol=1e-12,
                             breakpoints=tuple(row)) == (value, err)
        # The rows change the cells: one shared row gives other bits.
        shared, _ = integrate(self.f, self.A, self.B, tol=1e-12, breakpoints=(0.3,))
        assert values.tobytes() != shared.tobytes()

    @pytest.mark.parametrize("cuts", [
        (0.3, 0.3, -2.0, 1.0, 0.0, 5.0, 0.3),
        np.array([[0.3, -2.0, 0.3, 1.0, 0.0, 5.0, 0.3]]),
    ], ids=["shared", "row"])
    def test_duplicate_and_exterior_cuts_are_ignored(self, cuts):
        assert (integrate(self.f, 0.0, 1.0, tol=1e-12, breakpoints=cuts)
                == integrate(self.f, 0.0, 1.0, tol=1e-12, breakpoints=(0.3,)))

    @pytest.mark.parametrize("count", [6, 8])
    def test_a_row_count_other_than_the_interval_count_raises(self, count):
        with pytest.raises(ValueError, match="breakpoint rows"):
            integrate(self.f, self.A, self.B, tol=1e-12,
                      breakpoints=np.full((count, 1), 0.3))


class TestPerInterval:
    # Each interval of the batch integrates its own function; the
    # degenerate interval at index 3 checks that rows carry indices into
    # the ends, not positions among the refined intervals.
    A = TestIntervalArrays.A
    B = TestIntervalArrays.B
    FUNCS = [lambda x, k=k: 1.0 / (1.0 + 25.0 * (k + 1) * x * x) + k * np.abs(x - 0.3)
             for k in range(7)]

    def integrand(self, x, interval):
        assert x.ndim == 2 and x.shape == (interval.size, 15)
        assert np.all(np.diff(interval) >= 0)
        out = np.empty_like(x)
        for j in np.unique(interval):
            rows = interval == j
            out[rows] = self.FUNCS[j](x[rows])
        return out

    def test_each_interval_equals_its_solo_call_bitwise(self):
        values, errors = integrate(self.integrand, self.A, self.B, tol=1e-12,
                                   breakpoints=(0.3,), per_interval=True)
        assert np.all(errors <= 1e-12)
        for func, a, b, value, err in zip(self.FUNCS, self.A, self.B, values, errors):
            assert integrate(func, float(a), float(b), tol=1e-12,
                             breakpoints=(0.3,)) == (value, err)

    def test_nan_ends_only_its_interval(self):
        seen = []

        def integrand(x, interval):
            seen.append(np.count_nonzero(interval == 1))
            out = np.cos(x)
            out[interval == 1] = np.nan
            return out

        a = np.array([0.0, 0.0, 1.0])
        b = np.array([10.0, 10.0, 30.0])
        values, errors = integrate(integrand, a, b, tol=1e-13, per_interval=True)
        assert np.isnan(values[1]) and np.isnan(errors[1])
        # Only the first round evaluates the NaN interval's one cell.
        assert seen[0] == 1 and sum(seen) == 1 and len(seen) > 1
        for j in (0, 2):
            assert integrate(np.cos, a[j], b[j], tol=1e-13) == (values[j], errors[j])

    def test_an_infinite_value_ends_only_its_interval_quietly(self):
        def integrand(x, interval):
            out = np.cos(x)
            out[(interval[:, None] == 1) & (x > 5.0)] = np.inf
            return out

        a = np.array([0.0, 0.0, 1.0])
        b = np.array([10.0, 10.0, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = integrate(integrand, a, b, tol=1e-13, per_interval=True)
        assert values[1] == math.inf
        for j in (0, 2):
            assert integrate(np.cos, a[j], b[j], tol=1e-13) == (values[j], errors[j])


def test_a_gauss_sum_that_alone_overflows_is_split():
    # On [0, 5.171875] this constant's Kronrod sum is the float maximum and
    # its Gauss sum overflows; each half of the cell is finite.
    y = 3.475902133872756e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = integrate(lambda x: np.full_like(x, y), 0.0, 5.171875)
    assert value == sys.float_info.max
    assert err <= Q.ROUNDING_FLOOR * value


@pytest.mark.parametrize("y", [1e308, math.inf])
def test_an_infinite_integral_is_infinite(y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integrate(lambda x: np.full_like(x, y), 0.0, 4.0)[0] == math.inf


@pytest.mark.parametrize("n", [1, 7, 5000])
def test_cell_order_is_the_stable_lexsort(n):
    # Ties among errors (exact zeros, repeated values) must keep positions.
    rng = np.random.default_rng(n)
    seg = np.sort(rng.integers(0, 5, n))
    err = rng.choice([0.0, 1e-12, 2e-12, 3e-9], n) * rng.choice([1.0, 1.0 + 1e-15], n)
    assert np.array_equal(Q._by_interval_and_error(err, seg), np.lexsort((-err, seg)))


def triangle_wave(x):
    """Piecewise linear with kinks on the lattice k/3: 1 at even k, 0 at odd k."""
    return np.abs(np.mod(3.0 * x, 2.0) - 1.0)


def lattice_cuts(w):
    """A ``cuts`` callback: every lattice point k/w strictly inside each cell."""

    def cuts(lo, hi):
        points = np.arange(np.floor(w * lo.min()), np.ceil(w * hi.max()) + 1) / w
        cell, j = np.nonzero((lo[:, None] < points) & (points < hi[:, None]))
        return cell, points[j]

    return cuts


class TestCuts:
    CUTS = staticmethod(lattice_cuts(3.0))

    @staticmethod
    def f(x):
        return triangle_wave(x) + 1.0 / (1.0 + 25.0 * x * x)

    def test_each_interval_equals_its_solo_call_bitwise(self):
        A, B = TestIntervalArrays.A, TestIntervalArrays.B
        values, errors = integrate(self.f, A, B, tol=1e-12, breakpoints=(0.3,),
                                   cuts=self.CUTS)
        assert np.all(errors <= 1e-12)
        for a, b, value, err in zip(A, B, values, errors):
            assert integrate(self.f, float(a), float(b), tol=1e-12, breakpoints=(0.3,),
                             cuts=self.CUTS) == (value, err)

    def test_lattice_kinks_cost_fewer_nodes(self):
        # 3x runs over [0.15, 29.85]: 28 whole teeth of mean 1/2 on [1, 29]
        # and two end pieces of 0.85**2 / 2 each.
        exact = (14.0 + 0.85**2) / 3.0
        results = {}
        for cuts in (None, self.CUTS):
            seen = []

            def counting(x):
                seen.append(x.size)
                return triangle_wave(x)

            value, _ = integrate(counting, 0.05, 9.95, tol=1e-12, cuts=cuts)
            results[cuts] = value, sum(seen)
        value, nodes = results[self.CUTS]
        assert value == pytest.approx(exact, abs=1e-14)
        assert nodes < results[None][1]
        # Bisection cuts no kink exactly: it needs many more nodes, and its
        # error estimate misses some kinks.
        assert results[None][0] == pytest.approx(exact, abs=1e-10)

    def test_a_cell_without_cuts_is_bisected(self):
        lo, hi = np.array([0.1, 0.4, 1.0]), np.array([0.2, 1.1, 1.3])
        cell, at = Q._split_points(lo, hi, self.CUTS)
        assert cell.tolist() == [0, 1, 1, 2]
        assert at.tolist() == [0.5 * (0.1 + 0.2), 2 / 3, 1.0, 0.5 * (1.0 + 1.3)]
        assert [x.tolist() for x in Q._split_points(lo, hi, None)] == [
            [0, 1, 2], (0.5 * (lo + hi)).tolist()]

    def test_cuts_given_intervals_cut_each_interval_at_its_own_kinks(self):
        # Interval 1 cuts at the lattice kinks and the others are bisected,
        # each as in its solo call.
        A, B = TestIntervalArrays.A, TestIntervalArrays.B
        seen = []

        def cuts(lo, hi, interval):
            seen.append(interval.copy())
            mine = np.flatnonzero(interval == 1)
            if not mine.size:
                return np.zeros(0, dtype=np.intp), np.zeros(0)
            cell, at = self.CUTS(lo[mine], hi[mine])
            return mine[cell], at

        values, errors = integrate(lambda x, interval: self.f(x), A, B, tol=1e-12,
                                   per_interval=True, cuts=cuts)
        assert seen and all(np.all(np.diff(interval) >= 0) for interval in seen)
        for j, (a, b) in enumerate(zip(A, B)):
            assert integrate(self.f, float(a), float(b), tol=1e-12,
                             cuts=self.CUTS if j == 1 else None) == (values[j], errors[j])

    @pytest.mark.parametrize("cell, at", [([0], [0.0]), ([0], [1.0]), ([0, 0], [0.6, 0.3]),
                                          ([1, 0], [0.5, 0.5])])
    def test_a_cut_on_an_edge_or_out_of_order_raises(self, cell, at):
        with pytest.raises(ValueError, match="strictly inside"):
            integrate(lambda x: np.abs(x - 0.3), np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                      tol=1e-12, cuts=lambda lo, hi: (np.array(cell), np.array(at)))


class TestCellBudgets:
    A, B = np.array([0.0, 0.0, -1.0]), np.array([10.0, 100.0, 2.0])

    def test_each_interval_keeps_its_own_budget(self):
        budgets = [40, 4096, 4096]
        values, errors = integrate(np.cos, self.A, self.B, tol=1e-13, max_cells=budgets)
        for a, b, budget, value, err in zip(self.A, self.B, budgets, values, errors):
            assert integrate(np.cos, a, b, tol=1e-13, max_cells=budget) == (value, err)

    def test_a_budget_too_small_raises_for_its_interval(self):
        with pytest.raises(QuadratureError, match=r"\[0, 100\]: .* with 2 cells"):
            integrate(np.cos, self.A, self.B, tol=1e-13, max_cells=[4096, 2, 4096])


class TestRoundingFloor:
    # An interval is done once its error estimate is within the tolerance
    # or within 50 eps of its own magnitude, whichever is larger.
    EPS = np.finfo(float).eps

    def test_large_integral_stops_at_its_rounding_level(self):
        value, err = integrate(lambda x: 1e12 * np.exp(x), 0.0, 4.0, tol=1e-10)
        exact = 1e12 * math.expm1(4.0)
        assert value == pytest.approx(exact, rel=4 * self.EPS)
        assert err <= 50 * self.EPS * value

    def test_unreachable_message_names_the_floor(self):
        # The integral is 2e20 and its running value near it: the goal is
        # 50 eps of that, about 2.2e6.
        singular = lambda x: 1e20 / np.sqrt(np.abs(x))
        with pytest.raises(QuadratureError, match=r"tolerance 2\.2\d*e\+06 unreachable"):
            integrate(singular, 0.0, 1.0, tol=1e-13, max_cells=64)

    def test_each_interval_takes_its_own_floor(self):
        # One integral of order 1e13 and one of 1e15 beside O(1) and small
        # ones: the large ones stop at their rounding floors, the others
        # keep the tolerance, and every interval equals its solo call.
        scale = np.array([1.0, 1e12, 1.0, 1e-3, 1e15])
        a = np.array([-4.0, -4.0, 0.0, -1.0, -2.0])
        b = np.array([4.0, 4.0, 0.5, 1.0, 3.0])

        def f(x):
            return 1.0 / (1.0 + 25.0 * x * x) + np.abs(x - 0.3)

        values, errors = integrate(lambda x, interval: scale[interval][:, None] * f(x),
                                   a, b, tol=1e-12, per_interval=True)
        assert np.all(errors <= np.maximum(1e-12, 50 * self.EPS * np.abs(values)))
        assert errors[1] > 1e-12 and errors[4] > 1e-12
        for j in range(scale.size):
            assert integrate(lambda x: scale[j] * f(x), a[j], b[j], tol=1e-12) == (
                values[j], errors[j])
        assert values[1] == pytest.approx(1e12 * values[0], rel=100 * self.EPS)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(-6, 12), lo=st.floats(-2.0, 1.0), width=st.floats(0.01, 3.0),
           shape=st.sampled_from(["smooth", "kink"]), curve=st.floats(0.0, 3.0),
           slope=st.floats(-2.0, 2.0))
    def test_scaling_the_integrand_scales_its_integral(self, k, lo, width, shape, curve,
                                                       slope):
        # Positive integrands that GK15 resolves to rounding: a smooth one,
        # and a kink at a breakpoint.
        hi, c = lo + width, 10.0**k
        kink = lo + 0.3 * width
        if shape == "smooth":
            def f(x):
                return (1.0 + curve * x * x) * np.exp(slope * x)
        else:
            def f(x):
                return 0.1 + curve * np.abs(x - kink) + slope * slope * x * x

        try:
            value, _ = integrate(f, lo, hi, tol=1e-10, breakpoints=(kink,))
        except QuadratureError:
            return
        scaled, err = integrate(lambda x: c * f(x), lo, hi, tol=1e-10, breakpoints=(kink,))
        assert scaled == pytest.approx(c * value, rel=100 * self.EPS)
        assert err <= max(1e-10, 50 * self.EPS * abs(scaled))
