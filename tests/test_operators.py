import json
import math
import warnings

import numpy as np
import pytest

from durrmeyer import cli
from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import signals as S


def direct_point_sampling_sum(phi, f, w, x, radius=None):
    """Independent lattice sum of f(k/w) phi(w x - k)."""
    wx = w * x
    half = max(abs(phi.support.lo), abs(phi.support.hi)) if radius is None else radius
    k_lo = math.ceil(wx - half) - 1
    k_hi = math.floor(wx + half) + 1
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        total += float(f.evaluate(k / w)) * float(phi.evaluate(wx - k))
    return total


def kantorovich_closed_form_sum(phi, w, x, antiderivative):
    """Independent unit-window mean sum via a closed-form antiderivative."""
    wx = w * x
    half = max(abs(phi.support.lo), abs(phi.support.hi))
    k_lo = math.ceil(wx - half) - 1
    k_hi = math.floor(wx + half) + 1
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        mean = w * (antiderivative((k + 1) / w) - antiderivative(k / w))
        total += mean * float(phi.evaluate(wx - k))
    return total


class CountingSignal:
    """Signal wrapper that counts scalar evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.name = inner.name
        self.breakpoints = inner.breakpoints
        self.sup_norm = inner.sup_norm
        self.lipschitz_constant = inner.lipschitz_constant
        self.continuity = inner.continuity

    def evaluate(self, x):
        self.calls += np.size(x)
        return self.inner.evaluate(x)


class TestFunctionals:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            O.Window(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            O.Window(0.0, 1.0, 0.0)

    def test_masses(self):
        assert O.PointMass().mass == 1.0
        assert O.Window(0.0, 1.0, 1.0).mass == 1.0
        assert O.Window(-1.0, 1.0, 0.5).mass == 1.0
        assert O.Convolution(K.fejer()).mass == 1.0

    def test_convolution_warns_on_non_unit_mass(self):
        with pytest.warns(UserWarning, match="unit mass"):
            O.Convolution(K.window(0, 1, 2))

    def test_reduction_classification(self):
        phi = K.bspline(2)
        assert O.reduce_special_case(
            O.OperatorSpec(phi, O.PointMass(), 5.0)
        ) is O.ReductionKind.GENERALIZED
        assert O.reduce_special_case(
            O.OperatorSpec(phi, O.Window(0.0, 1.0, 1.0), 5.0)
        ) is O.ReductionKind.KANTOROVICH
        assert O.reduce_special_case(
            O.OperatorSpec(phi, O.Window(-1.0, 1.0, 0.5), 5.0)
        ) is O.ReductionKind.GENERAL_DURRMEYER
        assert O.reduce_special_case(
            O.OperatorSpec(phi, O.Convolution(K.fejer()), 5.0)
        ) is O.ReductionKind.GENERAL_DURRMEYER


class TestSpecValidation:
    def test_scale_and_tolerances(self):
        phi = K.bspline(2)
        with pytest.raises(ValueError):
            O.OperatorSpec(phi, O.PointMass(), 0.0)
        with pytest.raises(ValueError):
            O.OperatorSpec(phi, O.PointMass(), 5.0, series_tol=0.0)
        with pytest.raises(TypeError):
            O.OperatorSpec(phi, "not-a-functional", 5.0)

    def test_partition_of_unity_enforced(self):
        bad_phi = K.window(0.0, 0.5, 1.0)  # shift sum oscillates between 0 and 1
        with pytest.raises(ValueError, match="partition-of-unity"):
            O.OperatorSpec(bad_phi, O.PointMass(), 5.0)


class TestGeneralizedSamples:
    def test_point_mass_reads_lattice_value(self):
        spec = O.OperatorSpec(K.bspline(2), O.PointMass(), 2.0)
        assert O.generalized_sample(spec, S.builtin_signal("identity"), 3) == 1.5

    def test_window_mean_of_constant(self):
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 7.0)
        f = S.builtin_signal("constant", 5.0)
        assert O.generalized_sample(spec, f, 4) == pytest.approx(5.0, abs=1e-12)

    def test_window_mean_of_identity(self):
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 1.0)
        f = S.builtin_signal("identity")
        assert O.generalized_sample(spec, f, 0) == pytest.approx(0.5, abs=1e-13)

    def test_convolution_window_kernel_matches_window_functional(self):
        f = S.builtin_signal("runge")
        w = 5.0
        spec_window = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
        spec_conv = O.OperatorSpec(
            K.bspline(2), O.Convolution(K.window(0, 1, 1), quad_tol=1e-12), w
        )
        for k in (-3, 0, 2, 7):
            assert O.generalized_sample(spec_conv, f, k) == pytest.approx(
                O.generalized_sample(spec_window, f, k), abs=1e-11
            )

    def test_window_splits_at_signal_breakpoints(self):
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 2.0)
        # k=1 covers [0.5, 1.0); k=2 covers [1.0, 1.5) where f drops to 0.
        assert O.generalized_sample(spec, f, 1) == pytest.approx(1.0, abs=1e-13)
        assert O.generalized_sample(spec, f, 2) == pytest.approx(0.0, abs=1e-13)


class TestEvaluate:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 10.0])
    def test_constant_reproduction(self, c):
        f = S.builtin_signal("constant", c)
        for phi in (K.bspline(2), K.bspline(3)):
            for psi in (O.PointMass(), O.Window(0.0, 1.0, 1.0), O.Window(-1.0, 1.0, 0.5)):
                spec = O.OperatorSpec(phi, psi, 5.0)
                for x in (-2.3, 0.0, 1.7):
                    assert O.evaluate(spec, f, x) == pytest.approx(c, abs=1e-10)

    def test_order2_point_sampling_reproduces_identity(self):
        spec = O.OperatorSpec(K.bspline(2), O.PointMass(), 7.0)
        f = S.builtin_signal("identity")
        for x in np.linspace(-3, 3, 25):
            assert O.evaluate(spec, f, float(x)) == pytest.approx(float(x), abs=1e-12)

    def test_order2_unit_window_shifts_identity_by_half_step(self):
        f = S.builtin_signal("identity")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 4.0)
        assert O.evaluate(spec, f, 1.0) == pytest.approx(1.125, abs=1e-12)
        for w in (5.0, 10.0):
            spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
            for x in (-1.2, 0.0, 2.5):
                assert O.evaluate(spec, f, x) - x == pytest.approx(1 / (2 * w), abs=1e-10)

    def test_point_mass_matches_direct_sum_to_1e14(self):
        f = S.builtin_signal("runge")
        for phi in (K.bspline(2), K.bspline(3)):
            for w in (5.0, 10.0):
                spec = O.OperatorSpec(phi, O.PointMass(), w)
                evaluator = O.SeriesEvaluator(spec, f)
                for x in np.linspace(-3, 3, 61):
                    oracle = direct_point_sampling_sum(phi, f, w, float(x))
                    assert abs(evaluator.at(float(x)) - oracle) <= 1e-14

    def test_unit_window_matches_closed_form_means_to_ten_quad_tol(self):
        f = S.builtin_signal("runge")
        quad_tol = 1e-12
        for phi in (K.bspline(2), K.bspline(3)):
            for w in (5.0, 10.0):
                spec = O.OperatorSpec(phi, O.Window(0.0, 1.0, 1.0), w, quad_tol=quad_tol)
                evaluator = O.SeriesEvaluator(spec, f)
                for x in np.linspace(-3, 3, 61):
                    oracle = kantorovich_closed_form_sum(phi, w, float(x), math.atan)
                    assert abs(evaluator.at(float(x)) - oracle) <= 10 * quad_tol

    def test_linearity(self):
        f = S.builtin_signal("runge")
        g = S.builtin_signal("box")
        a, b = 2.0, -3.0
        combo = S.Signal(
            name="combo",
            evaluate=lambda x: a * np.asarray(f.evaluate(x)) + b * np.asarray(g.evaluate(x)),
            breakpoints=g.breakpoints,
            sup_norm=a * 1.0 + abs(b) * 1.0,
            continuity=S.BOUNDED_ONLY,
        )
        spec_args = (K.bspline(3), O.Window(0.0, 1.0, 1.0), 5.0)
        spec = O.OperatorSpec(*spec_args)
        budget = 2 * (spec.series_tol + spec.quad_tol)
        for x in (-1.5, 0.0, 0.3, 2.0):
            lhs = O.evaluate(spec, combo, x)
            rhs = a * O.evaluate(spec, f, x) + b * O.evaluate(spec, g, x)
            assert lhs == pytest.approx(rhs, abs=budget + 1e-12)

    def test_bounded_by_moment_product(self):
        from durrmeyer.analysis import functional_continuous_moments
        from durrmeyer.moments import discrete_absolute_moment

        grid = S.UniformGrid.from_window(-4, 4, 0.05)
        for name in ("box", "piecewise_rational", "runge"):
            f = S.builtin_signal(name)
            for psi in (O.PointMass(), O.Window(0.0, 1.0, 1.0)):
                spec = O.OperatorSpec(K.bspline(2), psi, 5.0)
                values = O.evaluate_grid(spec, f, grid)
                m0 = discrete_absolute_moment(spec.phi, 0).value
                t0 = functional_continuous_moments(psi)[0].value
                bound = m0 * t0 * f.sup_norm + spec.series_tol + spec.quad_tol
                assert np.max(np.abs(values)) <= bound + 1e-12


class TestGridEvaluation:
    def test_singleton_grid_matches_pointwise(self):
        f = S.builtin_signal("runge")
        spec = O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), 5.0)
        grid = S.UniformGrid(0.3, 1.0, 1)
        assert O.evaluate_grid(spec, f, grid)[0] == O.evaluate(spec, f, 0.3)

    def test_grid_matches_pointwise_everywhere(self):
        f = S.builtin_signal("runge")
        spec = O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), 10.0)
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        values = O.evaluate_grid(spec, f, grid)
        fresh = O.SeriesEvaluator(spec, f)
        for i in (0, 17, 300, 600):
            assert abs(values[i] - fresh.at(float(grid.points()[i]))) <= 1e-14

    def test_samples_computed_once_per_index(self):
        counting = CountingSignal(S.builtin_signal("runge"))
        spec = O.OperatorSpec(K.bspline(2), O.PointMass(), 5.0)
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        O.SeriesEvaluator(spec, counting).on_grid(grid.points())
        distinct_lattice_indices = 5 * 6 + 2 * 2 + 1
        assert counting.calls <= distinct_lattice_indices

    def test_worker_count_does_not_change_values(self):
        f = S.builtin_signal("piecewise_rational")
        spec = O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), 5.0)
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        serial = O.evaluate_grid(spec, f, grid, workers=1)
        threaded = O.evaluate_grid(spec, f, grid, workers=8)
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("threads", [1, 8])
    def test_computes_exactly_the_union_of_stencils(self, threads, monkeypatch, tmp_path):
        computed = []
        compute = O.SeriesEvaluator._compute_sample

        def counting(evaluator, k):
            computed.append(k)
            return compute(evaluator, k)

        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample", counting)
        monkeypatch.setenv("DURRMEYER_THREADS", str(threads))
        w = 5120.0
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        union = set()
        for x in grid.points():
            wx = w * float(x)
            union.update(range(math.ceil(wx - 1.5) - 1, math.floor(wx + 1.5) + 2))
        # The stencils are sparse in their index range, so computing the
        # whole range would be seen.
        assert len(union) < 0.2 * (max(union) - min(union))

        spec = O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), w)
        O.evaluate_grid(spec, S.builtin_signal("runge"), grid, workers=threads)
        assert sorted(computed) == sorted(union)

        computed.clear()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "phi": {"family": "bspline", "n": 3},
            "psi": {"kind": "window", "lo": 0, "hi": 1}, "signal": "runge",
            "w_list": [w], "window": [-3, 3], "grid_step": 0.01,
        }))
        assert cli.main(["reconstruct", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
        assert sorted(computed) == sorted(union)

    def test_fejer_blocks_match_per_point_exact_sum(self):
        # The reference sums each point's products exactly; BLAS np.dot was
        # seen up to 7 ulp away from that sum on this grid.
        f = S.builtin_signal("runge")
        w = 5.0
        phi = K.fejer()
        spec = O.OperatorSpec(phi, O.PointMass(), w, series_tol=1e-4)
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()
        evaluator = O.SeriesEvaluator(spec, f)
        values = evaluator.on_grid(points)
        stencils = [evaluator._index_range(float(x)) for x in points]
        assert sum(ks.size for ks in stencils) > 8 * 2**16
        eps = np.finfo(float).eps
        for x, ks, value in zip(points, stencils, values):
            terms = phi.evaluate(w * float(x) - ks) * f.evaluate(ks / w)
            reference = math.fsum(terms.tolist())
            assert abs(value - reference) <= 4 * eps * abs(reference)

    @pytest.mark.parametrize("phi, psi, tol, signal", [
        (K.bspline(3), O.Window(0.0, 1.0, 1.0), 1e-9, "piecewise_rational"),
        (K.fejer(), O.PointMass(), 1e-4, "runge"),
    ])
    def test_evaluate_equals_per_node_at_bitwise(self, phi, psi, tol, signal):
        f = S.builtin_signal(signal)
        spec = O.OperatorSpec(phi, psi, 5.0, series_tol=tol)
        # 0.2 sits on the lattice (w x = 1), where the decaying stencil is
        # one index longer than elsewhere.
        nodes = np.array([0.2, *np.linspace(-1.3, 1.3, 14)])
        values = O.SeriesEvaluator(spec, f).evaluate(nodes)
        singles = [O.SeriesEvaluator(spec, f).at(float(x)) for x in nodes]
        assert values.tobytes() == np.array(singles).tobytes()


class TestDecayingPaths:
    def test_fejer_reconstruction_kernel_reproduces_constants_loosely(self):
        f = S.builtin_signal("constant", 1.0)
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-4)
        assert O.evaluate(spec, f, 0.3) == pytest.approx(1.0, abs=5e-4)

    def test_fejer_sample_kernel_reproduces_constants_loosely(self):
        f = S.builtin_signal("constant", 1.0)
        spec = O.OperatorSpec(
            K.bspline(2), O.Convolution(K.fejer(), quad_tol=1e-3), 5.0
        )
        assert O.evaluate(spec, f, 0.3) == pytest.approx(1.0, abs=5e-3)

    def test_missing_sup_norm_warns_with_decaying_kernel(self):
        f = S.builtin_signal("identity")
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-3)
        with pytest.warns(UserWarning, match="not\\s+certified"):
            O.evaluate(spec, f, 0.0)

    def test_breakpoints_cover_smearing_zone(self):
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 4.0)
        cuts = O.SeriesEvaluator(spec, f).breakpoints
        assert -1.0 in cuts and 1.0 in cuts
        assert min(cuts) == pytest.approx(-1.5)
        assert max(cuts) == pytest.approx(1.5)
