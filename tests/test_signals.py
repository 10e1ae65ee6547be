import math

import numpy as np
import pytest

from durrmeyer import signals as S


def max_abs_derivative(f, lo, hi, samples=200001):
    """Dense central-difference oracle for the Lipschitz constant."""
    xs = np.linspace(lo, hi, samples)
    h = 1e-6
    deriv = (np.asarray(f.evaluate(xs + h)) - np.asarray(f.evaluate(xs - h))) / (2 * h)
    return float(np.max(np.abs(deriv)))


class TestCatalog:
    def test_runge_values_and_metadata(self):
        f = S.builtin_signal("runge")
        assert f.evaluate(0.0) == 1.0
        assert f.evaluate(1.0) == 0.5
        assert f.evaluate(-1.0) == 0.5
        assert f.continuity == S.UNIFORM
        assert f.sup_norm == 1.0
        # The slope extremum is at 1/sqrt(3), giving 3*sqrt(3)/8.
        oracle = max_abs_derivative(f, -2.0, 2.0)
        assert f.lipschitz_constant == pytest.approx(3 * math.sqrt(3) / 8, abs=1e-12)
        assert oracle == pytest.approx(f.lipschitz_constant, abs=1e-6)

    def test_box_values(self):
        f = S.builtin_signal("box")
        assert f.evaluate(0.5) == 1.0
        assert f.evaluate(1.0) == 1.0  # closed at the plateau edge
        assert f.evaluate(2.0) == 0.0
        assert f.evaluate(-1.0) == 1.0
        assert f.breakpoints == (-1.0, 1.0)
        assert f.continuity == S.BOUNDED_ONLY

    def test_piecewise_rational_values(self):
        f = S.builtin_signal("piecewise_rational")
        assert f.evaluate(1.0) == -50.0
        assert f.evaluate(-1.0) == 2.0
        assert f.evaluate(0.0) == 1.0
        assert f.evaluate(-2.0) == 2.25
        assert f.evaluate(1.5) == pytest.approx(-50.0 / 1.5**4, rel=1e-15)
        assert f.evaluate(-0.5) == 2.0
        assert f.breakpoints == (-1.0, 0.0, 1.0)

    def test_constant_and_identity(self):
        c = S.builtin_signal("constant", -2.5)
        assert c.evaluate(17.0) == -2.5
        assert c.sup_norm == 2.5
        assert c.lipschitz_constant == 0.0
        i = S.builtin_signal("identity")
        assert i.evaluate(3.25) == 3.25
        assert i.sup_norm is None
        with pytest.raises(ValueError):
            S.builtin_signal("constant")
        with pytest.raises(ValueError):
            S.builtin_signal("no-such-signal")

    def test_vectorized_evaluation(self):
        for name in ("runge", "box", "piecewise_rational", "identity"):
            f = S.builtin_signal(name)
            xs = np.linspace(-3, 3, 101)
            np.testing.assert_array_equal(
                np.asarray(f.evaluate(xs)), [f.evaluate(float(x)) for x in xs]
            )

    def test_metadata_never_contradicted_by_random_sampling(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-40.0, 40.0, size=100_000)
        ys = rng.uniform(-40.0, 40.0, size=100_000)
        for name in ("runge", "box", "piecewise_rational"):
            f = S.builtin_signal(name)
            vals = np.asarray(f.evaluate(xs))
            assert np.all(np.abs(vals) <= f.sup_norm + 1e-12)
        for name in ("runge", "identity"):
            f = S.builtin_signal(name)
            gap = np.abs(np.asarray(f.evaluate(xs)) - np.asarray(f.evaluate(ys)))
            allowed = f.lipschitz_constant * np.abs(xs - ys) + 1e-12
            assert np.all(gap <= allowed)

    def test_scaled_rescales_values_and_metadata(self):
        f = S.builtin_signal("runge").scaled(-3.0)
        assert f.evaluate(0.0) == -3.0
        assert f.sup_norm == 3.0
        assert f.lipschitz_constant == pytest.approx(3 * 3 * math.sqrt(3) / 8)

    def test_signal_validation(self):
        with pytest.raises(ValueError):
            S.Signal("bad", lambda x: x, breakpoints=(1.0, -1.0))
        with pytest.raises(ValueError):
            S.Signal("bad", lambda x: x, sup_norm=-1.0)

    def test_lipschitz_signal_must_be_uniformly_continuous(self):
        with pytest.raises(ValueError, match="uniformly continuous"):
            S.Signal("bad", lambda x: x, lipschitz_constant=1.0, continuity=S.BOUNDED_ONLY)
        assert S.Signal("ok", lambda x: x, lipschitz_constant=1.0).continuity == S.UNIFORM


ENVELOPED = {
    "runge": S.builtin_signal("runge"),
    "box": S.builtin_signal("box"),
    "piecewise_rational": S.builtin_signal("piecewise_rational"),
    "indicator": S.indicator(-0.5, 2.0, -3.0),
    "piecewise": S.piecewise_constant([(-4.0, -1.0, 2.0), (0.5, 3.0, -7.0)]),
}


class TestEnvelope:
    @pytest.mark.parametrize("name", sorted(ENVELOPED))
    def test_envelope_bounds_the_signal_and_does_not_increase(self, name):
        f = ENVELOPED[name]
        near = [np.nextafter(b, s) for b in f.breakpoints for s in (-np.inf, np.inf)]
        xs = np.concatenate([np.linspace(-60.0, 60.0, 240_001), f.breakpoints, near])
        values = np.abs(np.asarray(f.evaluate(xs), dtype=float))
        assert np.all(values <= np.asarray(f.envelope(np.abs(xs))))
        rs = np.sort(np.abs(xs))
        assert np.all(np.diff(np.asarray(f.envelope(rs))) <= 0.0)
        assert float(f.envelope(0.0)) <= f.sup_norm

    @pytest.mark.parametrize("name", sorted(ENVELOPED))
    def test_scaled_scales_the_envelope(self, name):
        f = ENVELOPED[name]
        rs = np.linspace(0.0, 60.0, 6001)
        np.testing.assert_array_equal(f.scaled(-3.0).envelope(rs), 3.0 * f.envelope(rs))

    def test_declared_values(self):
        rs = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        np.testing.assert_array_equal(ENVELOPED["runge"].envelope(rs), 1.0 / (1.0 + rs**2))
        np.testing.assert_array_equal(ENVELOPED["box"].envelope(rs), [1, 1, 1, 0, 0])
        np.testing.assert_array_equal(ENVELOPED["piecewise_rational"].envelope(rs),
                                      [50, 50, 50, 50 / 16, 9 / 16])
        np.testing.assert_array_equal(ENVELOPED["piecewise"].envelope(rs), [7, 7, 7, 7, 7])
        assert ENVELOPED["piecewise"].envelope(4.0 + 1e-9) == 0.0

    def test_unbounded_and_constant_signals_declare_none(self):
        assert S.builtin_signal("identity").envelope is None
        assert S.builtin_signal("constant", 2.0).envelope is None
        assert S.builtin_signal("identity").scaled(2.0).envelope is None


class TestIndicatorsAndGrids:
    def test_indicator_half_open(self):
        f = S.indicator(0, 2, 3.0)
        assert f.evaluate(0.0) == 3.0
        assert f.evaluate(1.999) == 3.0
        assert f.evaluate(2.0) == 0.0
        with pytest.raises(ValueError):
            S.indicator(1, 1)

    def test_piecewise_constant_literal(self):
        f = S.piecewise_constant([[-1, 0, 2.0], [0, 1, -1.0]])
        assert f.evaluate(-0.5) == 2.0
        assert f.evaluate(0.5) == -1.0
        assert f.evaluate(1.5) == 0.0
        assert f.breakpoints == (-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            S.piecewise_constant([])
        with pytest.raises(ValueError):
            S.piecewise_constant([[1, 0, 2.0]])

    def test_uniform_grid(self):
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        assert grid.count == 601
        pts = grid.points()
        assert pts[0] == -3.0
        assert pts[-1] == pytest.approx(3.0, abs=1e-12)
        with pytest.raises(ValueError):
            S.UniformGrid.from_window(1, 1, 0.01)
        with pytest.raises(ValueError):
            S.UniformGrid(0.0, -0.1, 5)

    @pytest.mark.parametrize("lo, hi, step", [(0, 1, 1e-320), (0, math.inf, 0.1),
                                              (-1e308, 1e308, 1.0)])
    def test_uniform_grid_without_a_finite_count_is_refused(self, lo, hi, step):
        with pytest.raises(ValueError, match="no finite point count"):
            S.UniformGrid.from_window(lo, hi, step)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_uniform_grid_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="grid step must be finite and positive"):
            S.UniformGrid.from_window(-1, 1, step)
        with pytest.raises(ValueError, match="grid step must be finite and positive"):
            S.UniformGrid(0.0, step, 5)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_uniform_grid_start_must_be_finite(self, start):
        with pytest.raises(ValueError, match="grid start must be finite"):
            S.UniformGrid(start, 0.1, 5)


class TestModulusOfContinuity:
    def test_constant_has_zero_modulus(self):
        f = S.builtin_signal("constant", 4.0)
        est = S.modulus_of_continuity(f, 0.5, (-1, 1))
        assert est.grid_lower == 0.0
        assert est.lipschitz_upper == 0.0

    def test_identity_modulus_is_delta_up_to_grid(self):
        f = S.builtin_signal("identity")
        est = S.modulus_of_continuity(f, 0.1, (-1, 1), resolution=32)
        assert est.grid_lower <= 0.1
        assert est.grid_lower >= 0.1 * (1 - 1.0 / 32) - 1e-12
        assert est.lipschitz_upper == pytest.approx(0.1)

    def test_runge_estimate_between_bounds(self):
        f = S.builtin_signal("runge")
        est = S.modulus_of_continuity(f, 0.1, (-3, 3))
        assert 0.0 < est.grid_lower <= est.lipschitz_upper
        assert est.lipschitz_upper == pytest.approx(3 * math.sqrt(3) / 8 * 0.1)

    def test_monotone_in_delta(self):
        f = S.builtin_signal("runge")
        deltas = [0.01, 0.02, 0.05, 0.1, 0.2]
        estimates = [S.modulus_of_continuity(f, d, (-3, 3)).grid_lower for d in deltas]
        assert all(a <= b + 1e-15 for a, b in zip(estimates, estimates[1:]))

    def test_scaling_inequality_certified_and_sampled(self):
        # omega(lambda * delta) <= (lambda + 1) * omega(delta).
        f = S.builtin_signal("runge")
        delta = 0.05
        for lam in (0.5, 2.0, 10.0):
            certified = S.modulus_of_continuity(f, lam * delta, (-3, 3)).lipschitz_upper
            base_upper = S.modulus_of_continuity(f, delta, (-3, 3)).lipschitz_upper
            assert certified <= (lam + 1) * base_upper + 1e-15
            sampled = S.modulus_of_continuity(f, lam * delta, (-3, 3)).grid_lower
            base_lower = S.modulus_of_continuity(f, delta, (-3, 3)).grid_lower
            assert sampled <= (lam + 1) * base_lower * (1 + 1e-6) + 1e-12

    def test_warns_for_discontinuous_signal(self):
        f = S.builtin_signal("box")
        with pytest.warns(UserWarning):
            est = S.modulus_of_continuity(f, 0.1, (-2, 2))
        assert est.grid_lower == 1.0  # the jump never shrinks

    def test_validation(self):
        f = S.builtin_signal("runge")
        with pytest.raises(ValueError):
            S.modulus_of_continuity(f, 0.0, (-1, 1))
        with pytest.raises(ValueError):
            S.modulus_of_continuity(f, 0.1, (1, -1))
        with pytest.raises(ValueError):
            S.modulus_of_continuity(f, 0.1, (-1, 1), resolution=1)

    @pytest.mark.parametrize("delta", [-0.1, math.inf, math.nan])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            S.modulus_of_continuity(S.builtin_signal("runge"), delta, (-1, 1))


class TestSupError:
    def test_exact_samples_give_zero(self):
        f = S.builtin_signal("runge")
        grid = S.UniformGrid.from_window(-2, 2, 0.1)
        assert S.sup_error(f, f.evaluate(grid.points()), grid) == 0.0

    def test_constant_vs_zero(self):
        f = S.builtin_signal("constant", 1.0)
        grid = S.UniformGrid.from_window(0, 1, 0.25)
        assert S.sup_error(f, np.zeros(grid.count), grid) == 1.0

    def test_grid_mismatch(self):
        f = S.builtin_signal("runge")
        grid = S.UniformGrid.from_window(0, 1, 0.25)
        with pytest.raises(ValueError):
            S.sup_error(f, np.zeros(3), grid)
