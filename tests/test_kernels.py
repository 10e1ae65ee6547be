import math
import warnings

import numpy as np
import pytest

from durrmeyer import kernels as K
from durrmeyer.moments import continuous_absolute_moment
from durrmeyer.quadrature import integrate


def sigma3_closed_form(t):
    """Independent piecewise form of the order-3 central B-spline."""
    a = abs(t)
    if a <= 0.5:
        return 0.75 - t * t
    if a <= 1.5:
        return 0.5 * (1.5 - a) ** 2
    return 0.0


class TestSinc:
    def test_zero_and_integer_values_exact(self):
        assert K.sinc(0.0) == 1.0
        for n in range(-6, 7):
            if n != 0:
                assert K.sinc(float(n)) == 0.0

    def test_agrees_with_direct_quotient_off_integers(self):
        rng = np.random.default_rng(7)
        for v in rng.uniform(-20, 20, size=500):
            if abs(v - round(v)) < 1e-3:
                continue
            direct = math.sin(math.pi * v) / (math.pi * v)
            assert K.sinc(float(v)) == pytest.approx(direct, abs=1e-15, rel=1e-13)

    def test_series_region_is_smooth(self):
        vs = np.array([-2e-6, -1e-7, 1e-9, 1e-7, 9e-7])
        vals = K.sinc(vs)
        expected = 1.0 - (np.pi * vs) ** 2 / 6.0
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_vectorized_matches_scalar(self):
        vs = np.linspace(-3, 3, 101)
        np.testing.assert_array_equal(K.sinc(vs), [K.sinc(float(v)) for v in vs])

    def test_matches_closed_form_bitwise_without_warnings(self):
        ints = np.arange(-8.0, 9.0)
        vs = np.concatenate([[0.0, -0.0, 1e-7, -9e-7, 4096.5, -4096.5, 1e300, -1e300],
                             ints, ints + 0.5])
        n = np.round(vs)
        parity = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.sin(np.pi * (vs - n)) * parity / (np.pi * vs)
        small = np.abs(vs) < 1e-6
        x = np.pi * vs[small]
        expected[small] = 1.0 - x * x / 6.0 + x**4 / 120.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vector = K.sinc(vs)
            scalars = [K.sinc(float(v)) for v in vs]
        assert vector.tobytes() == expected.tobytes()
        assert all(type(value) is float for value in scalars)
        assert np.array(scalars).tobytes() == expected.tobytes()


class TestBSpline:
    def test_reference_values(self):
        assert K.bspline(3).evaluate(0.0) == 0.75
        assert K.bspline(2).evaluate(0.5) == 0.5
        assert K.bspline(3).evaluate(1.5) == 0.0

    def test_order3_matches_piecewise_closed_form(self):
        s3 = K.bspline(3)
        for t in np.linspace(-2.0, 2.0, 801):
            assert s3.evaluate(float(t)) == pytest.approx(sigma3_closed_form(t), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_support_flags_and_edges(self, n):
        k = K.bspline(n)
        assert isinstance(k.support, K.CompactSupport)
        assert (k.support.lo, k.support.hi) == (-n / 2, n / 2)
        assert k.nonnegative and k.partition_of_unity
        assert k.symmetric == (n > 1)  # order 1 is a half-open indicator
        grid = np.linspace(-n, n, 501)
        vals = np.asarray(k.evaluate(grid))
        assert np.all(vals >= 0.0)
        if k.symmetric:
            np.testing.assert_allclose(vals, k.evaluate(-grid), atol=1e-11)
        outside = np.abs(grid) > n / 2
        assert np.all(vals[outside] == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unit_mass_against_quadrature(self, n):
        k = K.bspline(n)
        value, err = integrate(lambda t: np.asarray(k.evaluate(t)),
                               k.support.lo, k.support.hi, tol=1e-12,
                               breakpoints=k.breakpoints)
        assert abs(value - k.l1_norm) <= 1e-10 + err

    def test_order_validation(self):
        with pytest.raises(ValueError):
            K.bspline(0)
        with pytest.raises(ValueError):
            K.bspline(21)
        with pytest.raises(TypeError):
            K.bspline(2.5)


class TestFejer:
    def test_reference_values(self):
        f = K.fejer()
        assert f.evaluate(0.0) == 0.5
        assert f.evaluate(2.0) == 0.0
        assert f.l1_norm == 1.0

    def test_decay_envelope_holds(self):
        f = K.fejer()
        grid = np.concatenate([np.linspace(1.001, 50, 2000), [3.0, 7.5, 123.0]])
        vals = np.asarray(f.evaluate(grid))
        envelope = (2.0 / math.pi**2) / grid**2
        assert np.all(vals <= envelope * (1 + 1e-12))

    def test_exact_tail_complements_central_mass(self):
        f = K.fejer()
        for cutoff in (2.0, 5.0, 16.0):
            central, err = integrate(lambda t: np.asarray(f.evaluate(t)),
                                     -cutoff, cutoff, tol=1e-12)
            assert central + f.absolute_tail(cutoff) == pytest.approx(1.0, abs=1e-11 + err)

    def test_unit_mass_within_1e10(self):
        result = continuous_absolute_moment(K.fejer(), 0, tol=1e-10)
        assert abs(result.value - 1.0) <= 1e-10
        assert result.certified_error <= 1e-10


class TestWindow:
    def test_reference_values(self):
        assert K.window(0, 1, 1).l1_norm == 1.0
        assert K.window(-1, 1, 0.5).evaluate(0.0) == 0.5
        assert K.window(0, 1, 1).evaluate(1.0) == 0.0  # half-open at the top
        assert K.window(0, 1, 1).evaluate(0.0) == 1.0

    def test_partition_flag_requires_unit_mass_integer_width(self):
        assert K.window(0, 1, 1).partition_of_unity
        assert K.window(-1, 1, 0.5).partition_of_unity
        assert not K.window(0, 0.5, 2).partition_of_unity
        assert not K.window(0, 1, 2).partition_of_unity

    def test_validation(self):
        with pytest.raises(ValueError):
            K.window(1, 0, 1)
        with pytest.raises(ValueError):
            K.window(0, 1, 0)
        with pytest.raises(ValueError):
            K.window(0, 1, -2)

    @pytest.mark.parametrize("lo,hi,weight", [(0, 1, 1), (-1, 1, 0.5), (0.25, 2, 3)])
    def test_mass_against_quadrature(self, lo, hi, weight):
        k = K.window(lo, hi, weight)
        value, err = integrate(lambda t: np.asarray(k.evaluate(t)), lo - 1, hi + 1,
                               tol=1e-12, breakpoints=k.breakpoints)
        assert abs(value - k.l1_norm) <= 1e-10 + err


class TestPartitionOfUnity:
    def test_bsplines_meet_1e12_on_1000_probes(self):
        probes = np.arange(1000) / 1000.0
        for n in (2, 3, 4, 5):
            residual = K.partition_of_unity_residual(K.bspline(n), probes, 4)
            assert residual <= 1e-12

    def test_unit_window_residual_is_exactly_zero(self):
        probes = np.arange(1000) / 1000.0
        assert K.partition_of_unity_residual(K.window(0, 1, 1), probes, 2) == 0.0

    def test_fejer_certified_residual_meets_1e4(self):
        probes = np.arange(100) / 100.0
        residual = K.partition_of_unity_residual(K.fejer(), probes, 10**4)
        assert 0.0 < residual <= 1e-4

    def test_half_window_fails_partition(self):
        probes = np.arange(64) / 64.0
        residual = K.partition_of_unity_residual(K.window(0, 0.5, 1), probes, 3)
        assert residual == pytest.approx(1.0)  # half the points see no window

    def test_probe_validation(self):
        k = K.bspline(2)
        with pytest.raises(ValueError):
            K.partition_of_unity_residual(k, [0.0, 1.0], 4)
        with pytest.raises(ValueError):
            K.partition_of_unity_residual(k, [], 4)
        with pytest.raises(ValueError):
            K.partition_of_unity_residual(k, [0.5], 0)


class TestFourier:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lattice_values_exact(self, n):
        k = K.bspline(n)
        for j in range(-3, 4):
            expected = 1.0 if j == 0 else 0.0
            assert K.fourier_hat(k, 2.0 * math.pi * j) == expected

    def test_bspline_off_lattice_matches_sinc_power(self):
        k = K.bspline(2)
        v = math.pi
        assert K.fourier_hat(k, v) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-13)

    def test_fejer_triangle(self):
        f = K.fejer()
        assert K.fourier_hat(f, 0.0) == 1.0
        assert K.fourier_hat(f, math.pi / 2) == 0.5
        assert K.fourier_hat(f, -math.pi / 2) == 0.5
        assert K.fourier_hat(f, math.pi) == 0.0
        assert K.fourier_hat(f, 4.0) == 0.0

    def test_window_has_no_closed_form(self):
        with pytest.raises(ValueError):
            K.fourier_hat(K.window(0, 1, 1), 1.0)


class TestSupportDescriptors:
    def test_compact_validation(self):
        with pytest.raises(ValueError):
            K.CompactSupport(1.0, 1.0)

    def test_decaying_validation(self):
        with pytest.raises(ValueError):
            K.DecayingSupport(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            K.DecayingSupport(2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            K.DecayingSupport(2.0, 1.0, -1.0)

    def test_lattice_tail_bound_dominates_true_tail(self):
        f = K.fejer()
        radius = 50
        bound = K.lattice_tail_bound(f.support, radius)
        shifts = np.arange(radius + 1, radius + 4000, dtype=float)
        true_tail = float(np.sum(f.evaluate(0.3 - shifts)) + np.sum(f.evaluate(0.3 + shifts)))
        assert 0 < true_tail <= bound

    def test_tail_bounds_reject_divergent_orders(self):
        f = K.fejer()
        with pytest.raises(ValueError):
            K.lattice_tail_bound(f.support, 10, weight_power=1.0)
        with pytest.raises(ValueError):
            K.integral_tail_bound(f.support, 10.0, weight_power=1.5)
