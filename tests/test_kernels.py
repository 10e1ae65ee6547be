import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import sici

from durrmeyer import kernels as K
from durrmeyer.moments import continuous_absolute_moment
from durrmeyer.quadrature import integrate

_EPS = np.finfo(float).eps


def fejer_tail_mass(T):
    """Exact Fejer mass beyond [-T, T]: F(t) = (1 - cos(pi t)) / (pi t)^2,
    and integration by parts gives
    int_T^inf F = [1/T - cos(pi T)/T + pi (pi/2 - Si(pi T))] / pi^2."""
    si, _ = sici(math.pi * T)
    one_side = (1.0 / T - math.cos(math.pi * T) / T
                + math.pi * (math.pi / 2.0 - si)) / math.pi**2
    return 2.0 * one_side


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
        assert K.bspline(3)(0.0) == 0.75
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
        grid = np.linspace(-n, n, 501)
        vals = np.asarray(k.evaluate(grid))
        assert np.all(vals >= 0.0)
        if n > 1:  # order 1 is a half-open indicator
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
            assert central + fejer_tail_mass(cutoff) == pytest.approx(1.0, abs=1e-11 + err)

    def test_unit_mass_within_1e10(self):
        result = continuous_absolute_moment(K.fejer(), 0, tol=1e-10)
        assert abs(result.value - 1.0) <= 1e-10
        assert result.certified_error <= 1e-10

    def test_values_are_sinc_squared_bitwise(self):
        # The stencil arguments w x - k of a 601-point grid at w = 5 and 10,
        # integers, and the small-argument series on both sides of its cut.
        x = np.linspace(-3.0, 3.0, 601)
        stencil = np.concatenate([(w * x[:, None] - np.arange(-160, 161)[None, :]).ravel()
                                  for w in (5.0, 10.0)])
        special = np.array([0.0, -0.0, 1e-7, -1e-7, 1.9e-6, -1.9e-6, 2.1e-6, 1e-300, 0.5])
        t = np.concatenate([stencil, np.arange(-1000.0, 1001.0), special])
        reference = 0.5 * np.asarray(K.sinc(t / 2.0)) ** 2
        assert np.asarray(K.fejer().evaluate(t)).tobytes() == reference.tobytes()
        for value in special.tolist() + [2.0, -3.0]:
            scalar = K.fejer().evaluate(value)
            assert type(scalar) is float and scalar == 0.5 * K.sinc(value / 2.0) ** 2


FAR = 2**26  # the largest lattice radius of a decaying kernel


def fejer_40_digits(x, k):
    """F(x - k) to 40 digits, with x - k taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(float(x)) - int(k)
        if t == 0:
            return mpmath.mpf(0.5)
        return 2 * mpmath.sinpi(t / 2) ** 2 / (mpmath.pi * t) ** 2


class TestFejerRows:
    """``fejer().shifted``: two sines per point instead of one per shift."""

    # Dyadic points, where every x - k below is exact; shifts near the
    # points, and out to the largest lattice radius on both sides.
    DYADIC = np.arange(-40 * 64, 40 * 64 + 1, 7) / 64.0
    SHIFTS = np.concatenate([np.arange(-64, 65), FAR - 3 + np.arange(7), -FAR - 3 + np.arange(7)])

    def test_rows_match_evaluate_within_6_eps_at_dyadic_points(self):
        phi = K.fejer()
        rows = phi.shifted(self.DYADIC, self.SHIFTS)
        values = phi.evaluate(self.DYADIC[:, None] - self.SHIFTS)
        assert np.array_equal(rows == 0.0, values == 0.0)
        assert np.all(np.abs(rows - values) <= 6 * _EPS * values)

    @pytest.mark.parametrize("points", [
        DYADIC[::5],
        # The stencil points w x of fejer_grid's 601-point grid, and others.
        5.0 * np.linspace(-3.0, 3.0, 601)[::13],
        10.0 * np.linspace(-3.0, 3.0, 601)[::13],
        np.random.default_rng(5).uniform(-50.0, 50.0, 30),
    ], ids=["dyadic", "grid-w5", "grid-w10", "random"])
    def test_rows_match_40_digits_within_4_eps(self, points):
        shifts = np.concatenate([np.arange(-40, 41, 3), [4097, -4099, 123457],
                                 FAR - 1 + np.arange(3), -FAR - 1 + np.arange(3)])
        rows = K.fejer().shifted(points, shifts)
        for x, row in zip(points, rows):
            for k, value in zip(shifts, row):
                reference = fejer_40_digits(x, k)
                if reference:  # an even t != 0 gives an exact 0 (below)
                    assert abs(value - reference) <= 4 * _EPS * reference, (x, k)

    def test_far_rows_keep_the_digits_evaluate_loses(self):
        # At x = 1/3 and k = 2**26 the difference x - k rounds away 26 bits
        # of x, so evaluate's reduction sees a different phase.
        x, k = np.array([1.0 / 3.0]), np.array([FAR])
        reference = fejer_40_digits(x[0], k[0])
        assert abs(K.fejer().shifted(x, k)[0, 0] - reference) <= 4 * _EPS * reference
        assert abs(K.fejer().evaluate(x[0] - k[0]) - reference) > 1e6 * _EPS * reference

    def test_integer_differences_are_exact(self):
        x = np.array([-7.0, -2.0, 0.0, 3.0, 6.0, 2.0**30])
        shifts = np.arange(-12, 13)
        rows = K.fejer().shifted(x, shifts)
        t = x[:, None] - shifts
        assert np.all(rows[t == 0] == 0.5)
        assert np.all(rows[(t != 0) & (t % 2 == 0)] == 0.0)
        odd = t % 2 == 1
        envelope = 2.0 / (math.pi * t[odd]) ** 2  # sin^2 = 1 at odd t
        assert np.all(np.abs(rows[odd] - envelope) <= 2 * _EPS * envelope)

    def test_small_differences_take_evaluates_series(self):
        tiny = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-7, -1e-7, 1.9e-6, -1.9e-6,
                         2.1e-6, -2.1e-6])
        for k in (-3, 0, 4, FAR):
            x = k + tiny
            rows = K.fejer().shifted(x, np.arange(k - 2, k + 3))
            t = x - k
            small = np.abs(t) < 2e-6
            assert rows[small, 2].tobytes() == K.fejer().evaluate(t[small]).tobytes()

    def test_rows_are_the_same_alone_and_in_a_block(self):
        phi = K.fejer()
        x = np.concatenate([self.DYADIC[::11], 5.0 * np.linspace(-3.0, 3.0, 601)[::17],
                            [0.0, 1e-7, 3.0 + 1e-7]])
        block = np.round(x).astype(np.int64)[:, None] + np.arange(-40, 41)
        rows = phi.shifted(x, block)
        for i in range(x.size):
            assert rows[i].tobytes() == phi.shifted(x[i:i + 1], block[i:i + 1])[0].tobytes()
        shared = phi.shifted(x, self.SHIFTS)
        for i in range(x.size):
            assert shared[i].tobytes() == phi.shifted(x[i:i + 1], self.SHIFTS)[0].tobytes()

    @pytest.mark.parametrize("kernel", [K.bspline(n) for n in range(1, 6)]
                             + [K.window(0, 1, 1), K.window(-0.25, 0.5, 2)],
                             ids=lambda k: k.name)
    def test_other_kernels_shift_through_evaluate_bitwise(self, kernel):
        x = np.concatenate([np.linspace(-3.0, 3.0, 601), [-0.5, 0.5, 0.25, 2.0]])
        for ks in (np.arange(-6, 7), np.floor(x).astype(np.int64)[:, None] + np.arange(-4, 5)):
            expected = np.asarray(kernel.evaluate(x[:, None] - ks), dtype=float)
            assert kernel.shifted(x, ks).tobytes() == expected.tobytes()


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


def full_width_lattice_sum(kernel, u, nu, radius, signed_power):
    """Every shift of every probe in one block: the kernel on the whole
    (probes x shifts) array, summed row by row."""
    shifts = np.arange(-radius, radius + 1, dtype=float)
    diffs = u[:, None] - shifts[None, :]
    vals = np.asarray(kernel.evaluate(diffs))
    if signed_power:
        terms = vals * (-diffs) ** nu if nu else vals
    else:
        terms = np.abs(vals) * np.abs(diffs) ** nu if nu else np.abs(vals)
    return terms.sum(axis=1)


class TestLatticeSum:
    @pytest.mark.parametrize("kernel", [K.bspline(n) for n in range(1, 13)]
                             + [K.window(0, 1, 1), K.window(-0.25, 0.5, 2)],
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("signed_power", [False, True])
    @pytest.mark.parametrize("nu", [0, 0.5, 1])
    # Probes in [0, 1), as the moments and the residual use, where only some
    # shifts reach; and probes across the line, where every shift does.
    # Several row blocks for every kernel.
    @pytest.mark.parametrize("u", [np.arange(3000) / 3000.0, np.linspace(-2.5, 3.5, 3001)],
                             ids=["unit", "line"])
    def test_blocks_and_reach_equal_the_full_width_sum_bitwise(self, kernel, signed_power, nu, u):
        radius = K.compact_lattice_radius(kernel.support)
        assert u.size * (2 * radius + 1) > 2 * K._BLOCK_VALUES
        with np.errstate(invalid="ignore"):
            sums = K.lattice_sum(kernel, u, nu, radius, signed_power=signed_power)
            reference = full_width_lattice_sum(kernel, u, nu, radius, signed_power)
        assert sums.tobytes() == reference.tobytes()

    def test_compact_kernel_is_evaluated_only_where_it_reaches(self):
        seen = []
        window = K.window(0, 1, 1)

        def counting(t):
            seen.append(np.asarray(t).copy())
            return window.evaluate(t)

        kernel = dataclasses.replace(window, evaluate=counting)
        u = np.arange(64) / 64.0
        sums = K.lattice_sum(kernel, u, 1, 3)
        # Shifts -1, 0 and 1 of the seven reach [0, 1).
        assert sum(t.size for t in seen) == 3 * u.size
        assert sums.tobytes() == full_width_lattice_sum(window, u, 1, 3, False).tobytes()

    def test_empty_probes(self):
        assert K.lattice_sum(K.bspline(3), np.array([]), 1, 4).size == 0

    def test_a_row_beyond_the_cap_is_refused_before_any_evaluation(self, monkeypatch):
        # The cap is lowered, so no oversized row is ever allocated.
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 21)
        seen = []
        fejer = K.fejer()
        kernel = dataclasses.replace(fejer, rows=lambda x, ks: seen.append(ks) or fejer.rows(x, ks))
        u = np.arange(8) / 8.0
        assert K.lattice_sum(kernel, u, 0, 10).tobytes() == K.lattice_sum(fejer, u, 0, 10).tobytes()
        assert len(seen) == 1 and seen[0].size == 21
        with pytest.raises(ValueError, match="23 shifts; at most 21"):
            K.lattice_sum(kernel, u, 0, 11)
        with pytest.raises(ValueError, match="23 shifts"):
            K.partition_of_unity_residual(kernel, u, 11)
        assert len(seen) == 1


DECLARED_KERNELS = ([K.bspline(n) for n in range(1, 21)] + [K.fejer()]
                    + [K.window(*args) for args in
                       [(0, 1, 1), (-1, 1, 0.5), (0, 3, 1 / 3), (0.1, 1.1, 1)]])


class TestDeclaredPartitionOfUnity:
    """The evidence behind each built-in's ``partition_of_unity`` flag, which
    ``OperatorSpec`` trusts without probing: the certified residual on the
    probes and radius of the probe ``OperatorSpec`` runs for kernels that
    declare nothing, and the Poisson condition phi-hat(2 pi k) = delta_k0."""

    @pytest.mark.parametrize("kernel", DECLARED_KERNELS, ids=lambda k: k.name)
    def test_residual_at_the_spec_probe_radius(self, kernel):
        assert kernel.partition_of_unity
        probes = np.arange(128) / 128.0
        if isinstance(kernel.support, K.CompactSupport):
            radius = K.compact_lattice_radius(kernel.support)
        else:
            radius = K.lattice_radius(kernel.support, 0.5e-3)[0]
        assert K.partition_of_unity_residual(kernel, probes, radius) <= 1e-3

    @pytest.mark.parametrize("kernel", [k for k in DECLARED_KERNELS if k.fourier is not None],
                             ids=lambda k: k.name)
    def test_fourier_transform_on_the_dual_lattice(self, kernel):
        for j in range(-3, 4):
            assert K.fourier_hat(kernel, 2.0 * math.pi * j) == (1.0 if j == 0 else 0.0)


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
    @pytest.mark.parametrize("l1_norm", [0.0, -1.0, math.nan])
    def test_a_kernel_needs_a_positive_l1_norm(self, l1_norm):
        with pytest.raises(ValueError, match="l1 norm must be positive"):
            dataclasses.replace(K.bspline(3), l1_norm=l1_norm)

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

    def test_tail_bounds_reject_a_start_inside_the_decay_radius(self):
        support = K.DecayingSupport(2.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="past the decay radius"):
            K.lattice_tail_bound(support, 2)
        with pytest.raises(ValueError, match="past the decay radius"):
            K.integral_tail_bound(support, 2.5)
        assert K.lattice_tail_bound(support, 3) > 0 and K.integral_tail_bound(support, 3.0) > 0


class TestTruncation:
    def test_a_compact_lattice_radius_has_no_tail(self):
        support = K.bspline(3).support
        assert K.lattice_radius(support, 1e-12) == (K.compact_lattice_radius(support), 0.0)

    @pytest.mark.parametrize("tol, nu", [(1e-3, 0.0), (1e-6, 0.0), (1e-3, 0.5)])
    def test_a_decaying_lattice_radius_is_the_first_rung_that_meets_tol(self, tol, nu):
        support = K.fejer().support
        radius, tail = K.lattice_radius(support, tol, nu)
        ladder = K.radius_ladder(support)
        assert tail == K.lattice_tail_bound(support, radius, nu) <= tol
        below = ladder[:ladder.index(radius)]
        assert all(K.lattice_tail_bound(support, r, nu) > tol for r in below)

    def test_the_integral_cutoff_is_cut_at_zero_and_every_smaller_rung(self):
        fejer = K.fejer()
        cutoff, cuts = K.integral_cutoff(fejer, 1e-3)
        assert K.integral_tail_bound(fejer.support, cutoff) <= 1e-3
        assert K.integral_tail_bound(fejer.support, cutoff / 2) > 1e-3
        rungs = [2.0 ** i for i in range(int(math.log2(cutoff)))]
        assert cuts == [0.0] + [c for r in rungs for c in (-r, r)]

    @pytest.mark.parametrize("kernel", [K.bspline(1), K.bspline(3), K.window(-0.25, 0.5, 2.0)],
                             ids=["bspline1", "bspline3", "window"])
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_a_compact_reach_is_the_support_with_all_of_tol(self, kernel, nu):
        lo, hi, cuts, quad_tol, tail = K.integral_reach(kernel, 1e-7, nu, scale=50.0)
        assert (lo, hi) == (kernel.support.lo, kernel.support.hi)
        assert cuts == list(kernel.breakpoints) + ([0.0] if nu > 0 else [])
        assert (quad_tol, tail) == (1e-7, 0.0)

    @pytest.mark.parametrize("tol, nu, scale", [(1e-3, 0.0, 1.0), (1e-2, 0.5, 1.0),
                                                (1e-4, 0.0, 3.5), (1e-4, 0.0, 0.0)])
    def test_a_decaying_reach_gives_half_of_tol_to_its_tail(self, tol, nu, scale):
        fejer = K.fejer()
        lo, hi, cuts, quad_tol, tail = K.integral_reach(fejer, tol, nu, scale=scale)
        cutoff, rungs = K.integral_cutoff(fejer, 0.5 * tol / max(scale, 1e-300), nu)
        assert (lo, hi, cuts) == (-cutoff, cutoff, rungs)
        assert quad_tol == 0.5 * tol
        assert tail == K.integral_tail_bound(fejer.support, cutoff, nu)
        assert tail * scale <= 0.5 * tol

    def test_a_decaying_reach_beyond_the_cap_raises(self):
        with pytest.raises(ValueError, match="beyond 67108864"):
            K.integral_reach(K.fejer(), 1e-8, scale=2.0)

    def test_one_cap_bounds_radii_and_cutoffs(self):
        fejer = K.fejer()
        with pytest.raises(ValueError, match="beyond 67108864"):
            K.lattice_radius(fejer.support, 1e-18)
        with pytest.raises(ValueError, match="beyond 67108864"):
            K.integral_cutoff(fejer, 1e-9)
        cutoff, _ = K.integral_cutoff(fejer, 1e-8)
        assert cutoff == 2.0 ** 26
