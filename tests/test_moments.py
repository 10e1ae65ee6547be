import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from durrmeyer import kernels as K
from durrmeyer import moments as M
from durrmeyer.quadrature import QuadratureError


def brute_discrete_absolute(kernel, nu, radius=8, samples=20000):
    """Dense-grid oracle for the shift-sum supremum over [0, 1)."""
    u = np.arange(samples) / samples
    shifts = np.arange(-radius, radius + 1, dtype=float)
    vals = np.abs(np.asarray(kernel.evaluate(u[:, None] - shifts[None, :])))
    if nu:
        vals = vals * np.abs(u[:, None] - shifts[None, :]) ** nu
    return float(vals.sum(axis=1).max())


def scipy_l1_norm(kernel):
    """Integral of |k| over the line by scipy's QUADPACK, with its error
    estimate. Compact kernels integrate over their support between their
    breakpoints. The Fejer kernel integrates over [-8, 8]; beyond,
    F(t) = (1 - cos(pi t)) / (pi t)^2, whose cosine part is a Fourier
    integral (QAWF)."""
    if isinstance(kernel.support, K.CompactSupport):
        return scipy_quad(lambda t: abs(float(kernel.evaluate(t))), kernel.support.lo,
                          kernel.support.hi, points=kernel.breakpoints, limit=200)
    assert kernel.name == "fejer"
    cutoff = 8.0
    central, central_err = scipy_quad(lambda t: float(kernel.evaluate(t)), 0.0, cutoff,
                                      limit=500, epsabs=1e-14)
    wave, wave_err = scipy_quad(lambda t: 1.0 / (math.pi * t) ** 2, cutoff, np.inf,
                                weight="cos", wvar=math.pi, epsabs=1e-14, limlst=200)
    tail = 1.0 / (math.pi**2 * cutoff) - wave
    return 2.0 * (central + tail), 2.0 * (central_err + wave_err)


def signed_bump(t):
    """1 - 2 t^2 on (-1, 1): a compact kernel that changes sign at +-1/sqrt(2)."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, 1.0 - 2.0 * t * t, 0.0)


def brute_discrete_algebraic(kernel, nu, u, radius=8):
    shifts = np.arange(-radius, radius + 1, dtype=float)
    vals = np.asarray(kernel.evaluate(u - shifts))
    return float(np.sum(vals * (shifts - u) ** nu))


class TestDiscreteAbsolute:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zeroth_moment_of_splines_is_one_exactly(self, n):
        result = M.discrete_absolute_moment(K.bspline(n), 0)
        assert result.value == 1.0
        assert result.method == "closed_form"
        assert result.certified_error == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_agrees_with_grid_supremum(self, n):
        grid = M.discrete_absolute_moment(K.bspline(n), 0, method="grid")
        assert grid.method == "grid_supremum"
        assert grid.value == pytest.approx(1.0, abs=5e-13)

    def test_first_moment_order2_spline(self):
        oracle = brute_discrete_absolute(K.bspline(2), 1)
        assert oracle == pytest.approx(0.5, abs=1e-9)
        result = M.discrete_absolute_moment(K.bspline(2), 1)
        assert result.value == pytest.approx(0.5, abs=1e-10)

    def test_first_moment_order3_spline(self):
        oracle = brute_discrete_absolute(K.bspline(3), 1)
        assert oracle == pytest.approx(0.5, abs=1e-9)
        result = M.discrete_absolute_moment(K.bspline(3), 1)
        assert result.value == pytest.approx(0.5, abs=1e-10)

    def test_unit_window_zeroth_moment(self):
        result = M.discrete_absolute_moment(K.window(0, 1, 1), 0)
        assert result.value == 1.0
        grid = M.discrete_absolute_moment(K.window(0, 1, 1), 0, method="grid")
        assert grid.value == 1.0

    def test_fejer_zeroth_moment_closed_and_grid(self):
        closed = M.discrete_absolute_moment(K.fejer(), 0)
        assert closed.value == 1.0 and closed.method == "closed_form"
        grid = M.discrete_absolute_moment(K.fejer(), 0, probes=64, tol=1e-3,
                                          method="grid")
        assert grid.value == pytest.approx(1.0, abs=grid.certified_error + 1e-3)

    def test_divergent_order_raises(self):
        with pytest.raises(M.DivergentMomentError):
            M.discrete_absolute_moment(K.fejer(), 1)
        with pytest.raises(M.DivergentMomentError):
            M.discrete_absolute_moment(K.fejer(), 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            M.discrete_absolute_moment(K.bspline(2), -1)
        with pytest.raises(ValueError):
            M.discrete_absolute_moment(K.bspline(2), 0, probes=0)
        with pytest.raises(ValueError):
            M.discrete_absolute_moment(K.bspline(2), 0, tol=0)
        with pytest.raises(ValueError):
            M.discrete_absolute_moment(K.bspline(2), 0, method="magic")


def full_regrid_moment(kernel, nu, probes=2048, tol=1e-9):
    """The supremum loop that lattice-sums every probe of each doubled grid."""
    radius, tail = M._lattice_radius(kernel, nu, tol)
    count = probes
    sup = float(np.max(K.lattice_sum(kernel, np.arange(count) / count, nu, radius)))
    while count < M._MAX_PROBES:
        count *= 2
        refined = float(np.max(K.lattice_sum(kernel, np.arange(count) / count, nu, radius)))
        stable = abs(refined - sup) < tol
        sup = max(sup, refined)
        if stable:
            break
    return sup, tail


class TestProbeRefinement:
    @pytest.mark.parametrize("count", [1, 3, 100, 2048, 1 << 14])
    def test_even_probes_of_a_doubled_grid_are_the_grid_bitwise(self, count):
        doubled = np.arange(0, 2 * count, 2) / (2 * count)
        assert doubled.tobytes() == (np.arange(count) / count).tobytes()

    @pytest.mark.parametrize("kernel, nu, probes, tol", [
        (K.bspline(2), 1, 2048, 1e-9),
        (K.bspline(3), 1, 2048, 1e-9),
        (K.bspline(3), 0.5, 100, 1e-9),
        (K.bspline(12), 1, 2048, 1e-9),
        (K.bspline(4), 0, 2048, 1e-9),
        (K.window(0, 1, 1), 1, 2048, 1e-9),
        (K.window(-0.25, 0.5, 2), 0.5, 2048, 1e-9),
        (K.window(0, 0.5, 1), 0, 64, 1e-9),
        (K.fejer(), 0, 64, 1e-3),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_grid_supremum_equals_the_full_regrid_bitwise(self, kernel, nu, probes, tol):
        result = M.discrete_absolute_moment(kernel, nu, probes=probes, tol=tol, method="grid")
        assert (result.value, result.certified_error) == full_regrid_moment(kernel, nu, probes, tol)

    def test_window_first_moment_evaluates_only_new_probes_where_the_window_reaches(self):
        window = K.window(0, 1, 1)
        counted = [0]

        def counting(t):
            counted[0] += np.asarray(t).size
            return window.evaluate(t)

        kernel = dataclasses.replace(window, evaluate=counting)
        result = M.discrete_absolute_moment(kernel, 1)
        assert result.value == M.discrete_absolute_moment(window, 1).value
        # 2,048 probes and then the odd ones of each doubling up to 32,768:
        # 32,768 probes in all, each on the 3 of 7 shifts that reach it.
        assert counted[0] == 32768 * 3


class TestDiscreteAlgebraic:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("u", [0.0, 0.25, 0.37, 0.5, 3.7, -1.2])
    def test_zeroth_moment_is_one_for_partitions(self, n, u):
        assert M.discrete_algebraic_moment(K.bspline(n), 0, u) == 1.0

    def test_first_moment_vanishes_for_order2(self):
        for u in (0.0, 0.1, 0.3, 0.5, 0.77):
            oracle = brute_discrete_algebraic(K.bspline(2), 1, u)
            assert oracle == pytest.approx(0.0, abs=1e-15)
            assert M.discrete_algebraic_moment(K.bspline(2), 1, u) == pytest.approx(0.0, abs=1e-15)

    def test_first_moment_vanishes_for_order3(self):
        oracle = brute_discrete_algebraic(K.bspline(3), 1, 0.25)
        assert oracle == pytest.approx(0.0, abs=1e-15)
        assert M.discrete_algebraic_moment(K.bspline(3), 1, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_kernels_have_odd_first_moment(self):
        rng = np.random.default_rng(11)
        for kernel in (K.bspline(2), K.bspline(3), K.bspline(4), K.window(-1, 1, 0.5)):
            for u in rng.uniform(-2, 2, size=20):
                left = M.discrete_algebraic_moment(kernel, 1, float(u))
                right = M.discrete_algebraic_moment(kernel, 1, float(-u))
                assert left + right == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_for_non_partition_kernel(self):
        k = K.window(0, 0.5, 2)
        for u in (0.1, 0.6, 0.9):
            assert M.discrete_algebraic_moment(k, 2, u) == pytest.approx(
                brute_discrete_algebraic(k, 2, u), abs=1e-14
            )

    def test_rows_beyond_the_lattice_cap_raise_quadrature_error(self, monkeypatch):
        # Fejer's order-0.5 moment at tol 1e-2 needs radius 8192, and an
        # undeclared Fejer's order-0 sum at tol 1e-2 radius 64: both beyond
        # a lowered cap, so the oversized rows of a real cap never run.
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 101)
        with pytest.raises(QuadratureError, match="16,385 shifts"):
            M.discrete_absolute_moment(K.fejer(), 0.5, tol=1e-2)
        undeclared = dataclasses.replace(K.fejer(), partition_of_unity=False)
        with pytest.raises(QuadratureError, match="129 shifts"):
            M.discrete_algebraic_moment(undeclared, 0, 0.25, tol=1e-2)
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 129)
        assert M.discrete_algebraic_moment(undeclared, 0, 0.25, tol=1e-2) == pytest.approx(
            1.0, abs=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            M.discrete_algebraic_moment(K.bspline(2), 1.5, 0.0)
        with pytest.raises(ValueError):
            M.discrete_algebraic_moment(K.bspline(2), -1, 0.0)
        with pytest.raises(M.DivergentMomentError):
            M.discrete_algebraic_moment(K.fejer(), 1, 0.0)


class TestContinuousAbsolute:
    def test_unit_window_mass(self):
        result = M.continuous_absolute_moment(K.window(0, 1, 1), 0)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_unit_window_first_moment(self):
        oracle, oracle_err = scipy_quad(lambda t: abs(t), 0, 1)
        assert oracle == pytest.approx(0.5, abs=1e-12 + oracle_err)
        result = M.continuous_absolute_moment(K.window(0, 1, 1), 1)
        assert result.value == pytest.approx(0.5, abs=1e-10)

    def test_symmetric_window_first_moment(self):
        result = M.continuous_absolute_moment(K.window(-1, 1, 0.5), 1)
        assert result.value == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("kernel", [K.bspline(2), K.bspline(3), K.bspline(5),
                                        K.window(0, 1, 1), K.window(-1, 1, 0.5),
                                        K.fejer()])
    def test_zeroth_moment_matches_declared_l1_norm(self, kernel):
        oracle, oracle_err = scipy_l1_norm(kernel)
        assert abs(oracle - kernel.l1_norm) <= 1e-10 + oracle_err

    def test_fractional_moment_of_spline_matches_oracle(self):
        k = K.bspline(3)
        oracle, oracle_err = scipy_quad(
            lambda t: abs(t) ** 0.5 * k.evaluate(t), -1.5, 1.5, limit=200
        )
        result = M.continuous_absolute_moment(k, 0.5, tol=1e-9)
        assert result.value == pytest.approx(oracle, abs=1e-8 + oracle_err)

    @pytest.mark.parametrize("nu, tol", [(0.25, 1e-2), (0.25, 1e-4), (0.5, 1e-2),
                                         (0.5, 3e-3), (0.75, 5e-2)])
    def test_fejer_fractional_moment_matches_closed_form(self, nu, tol):
        # Integral of |t|**nu F(t) with F(t) = (1 - cos(pi t)) / (pi t)^2:
        # -2 Gamma(nu - 1) cos(pi (nu - 1) / 2) pi**(-1 - nu).
        closed = -2.0 * math.gamma(nu - 1.0) * math.cos(0.5 * math.pi * (nu - 1.0)) \
            * math.pi ** (-1.0 - nu)
        assert closed == pytest.approx({0.25: 0.884611, 0.5: 0.900316, 0.75: 1.221735}[nu],
                                       abs=1e-6)
        result = M.continuous_absolute_moment(K.fejer(), nu, tol=tol)
        assert abs(result.value - closed) <= result.certified_error

    def test_divergent_and_unreachable(self):
        with pytest.raises(M.DivergentMomentError):
            M.continuous_absolute_moment(K.fejer(), 1)
        with pytest.raises(QuadratureError):
            M.continuous_absolute_moment(K.fejer(), 0.5, tol=1e-6)


class TestContinuousAlgebraic:
    def test_fejer_signed_mass_is_one(self):
        result = M.continuous_algebraic_moment(K.fejer(), 0, tol=1e-10)
        assert abs(result.value - 1.0) <= 1e-10

    def test_symmetric_window_first_moment_vanishes(self):
        result = M.continuous_algebraic_moment(K.window(-1, 1, 0.5), 1)
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_unit_window_first_moment(self):
        result = M.continuous_algebraic_moment(K.window(0, 1, 1), 1)
        assert result.value == pytest.approx(0.5, abs=1e-10)

    def test_spline_first_moment_vanishes(self):
        for n in (2, 3, 4):
            result = M.continuous_algebraic_moment(K.bspline(n), 1)
            assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            M.continuous_algebraic_moment(K.bspline(2), 0.5)


class TestZerothMoment:
    @pytest.mark.parametrize("kernel", [K.bspline(1), K.bspline(2), K.bspline(3),
                                        K.bspline(5), K.fejer(), K.window(0, 1, 1),
                                        K.window(-0.5, 0.25, 2.0)],
                             ids=lambda kernel: kernel.name)
    def test_builtin_kernels_are_closed_form(self, kernel):
        expected = M.MomentResult(kernel.l1_norm, 0.0, "closed_form")
        assert M.continuous_absolute_moment(kernel, 0) == expected
        assert M.continuous_algebraic_moment(kernel, 0) == expected

    def test_signed_compact_kernel_integrates(self):
        root = 1.0 / math.sqrt(2.0)
        kernel = K.Kernel("signed-bump", signed_bump, K.CompactSupport(-1.0, 1.0),
                          l1_norm=(8.0 * root - 2.0) / 3.0, breakpoints=(-1.0, 1.0))
        for moment, magnitude in ((M.continuous_algebraic_moment, float),
                                  (M.continuous_absolute_moment, abs)):
            result = moment(kernel, 0, tol=1e-10)
            oracle, oracle_err = scipy_quad(lambda t: magnitude(float(signed_bump(t))),
                                            -1.0, 1.0, points=(-root, root))
            assert result.method == "quadrature"
            assert abs(result.value - oracle) <= 1e-10 + oracle_err


class TestMomentRelations:
    @pytest.mark.parametrize("kernel,pairs,tol", [
        (K.bspline(2), [(0.5, 1.0), (1.0, 2.0)], 1e-9),
        (K.bspline(3), [(0.5, 1.0), (1.0, 3.0)], 1e-9),
        (K.window(0, 1, 1), [(0.5, 1.0)], 1e-9),
        (K.fejer(), [(0.25, 0.5)], 0.05),
    ])
    def test_lower_order_bounded_by_zeroth_plus_higher(self, kernel, pairs, tol):
        # |t|**mu <= 1 + |t|**nu pointwise, so M_mu <= M_0 + M_nu.
        m0 = M.discrete_absolute_moment(kernel, 0, probes=128, tol=tol)
        for mu, nu in pairs:
            m_mu = M.discrete_absolute_moment(kernel, mu, probes=128, tol=tol)
            m_nu = M.discrete_absolute_moment(kernel, nu, probes=128, tol=tol)
            budget = (m0.certified_error + m_mu.certified_error
                      + m_nu.certified_error + 1e-12)
            assert m_mu.value <= m0.value + m_nu.value + budget

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            M.MomentResult(1.0, -1.0, "quadrature")
        with pytest.raises(ValueError):
            M.MomentResult(1.0, 1e-3, "closed_form")
        with pytest.raises(ValueError):
            M.MomentResult(1.0, 0.0, "guesswork")

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    @pytest.mark.parametrize("moment", [
        lambda kernel, tol: M.discrete_absolute_moment(kernel, 1, tol=tol),
        lambda kernel, tol: M.discrete_algebraic_moment(kernel, 1, 0.25, tol=tol),
        lambda kernel, tol: M.continuous_absolute_moment(kernel, 1, tol=tol),
        lambda kernel, tol: M.continuous_algebraic_moment(kernel, 1, tol=tol),
    ], ids=["discrete_absolute", "discrete_algebraic", "continuous_absolute",
            "continuous_algebraic"])
    def test_non_finite_tolerance_refused(self, moment, tol):
        with pytest.raises(ValueError, match="finite"):
            moment(K.bspline(3), tol)
