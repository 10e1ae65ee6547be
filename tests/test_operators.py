import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from durrmeyer import cli
from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import signals as S
from durrmeyer.quadrature import integrate


def one_sample(spec, f, k):
    """The k-th sample, computed by a fresh evaluator."""
    return float(O.SeriesEvaluator(spec, f)._compute_sample(np.array([k]))[0])


def value_at(spec, f, x):
    """The series at one point, summed by a fresh evaluator."""
    return float(O.SeriesEvaluator(spec, f).on_grid(np.array([x]))[0])


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


def skewed_hat():
    """Unit-mass hat on [-1, 1] peaking at 0.25: an inner breakpoint off the
    integer lattice."""
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.25, np.maximum(t + 1.0, 0.0) / 1.25,
                        np.maximum(1.0 - t, 0.0) / 0.75)

    return K.Kernel(name="skewed-hat", evaluate=evaluate, support=K.CompactSupport(-1.0, 1.0),
                    l1_norm=1.0, nonnegative=True, breakpoints=(-1.0, 0.25, 1.0))


def t_coordinate_sample(spec, f, k):
    """A decaying psi's k-th sample as one quadrature in t = w u - k over
    [-cutoff, cutoff], cut at the kernel's peak rungs and the signal's
    breakpoints: an independent per-index reference for the batched path."""
    kernel, w, tol = spec.psi.kernel, spec.w, spec.quad_tol
    cutoff = max(kernel.support.radius, 1.0)
    cuts = [0.0, *kernel.breakpoints]
    while K.integral_tail_bound(kernel.support, cutoff) * f.sup_norm > 0.5 * tol:
        cuts += [-cutoff, cutoff]
        cutoff *= 2.0
    cuts += [w * b - k for b in f.breakpoints]
    value, _ = integrate(lambda t: kernel.evaluate(t) * f.evaluate((t + k) / w),
                         -cutoff, cutoff, tol=0.5 * tol, breakpoints=cuts, max_cells=40000)
    return value


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

    @pytest.mark.parametrize("lo, hi, weight", [(-1e308, 1e308, 1.0), (0.0, 1.0, 1e309),
                                                (0.0, 1e-300, 1e-300)])
    def test_window_mass_must_be_positive_and_finite(self, lo, hi, weight):
        with pytest.raises(ValueError, match="mass"):
            O.Window(lo, hi, weight)
        with pytest.raises(ValueError, match="mass"):
            K.window(lo, hi, weight)

    def test_window_weight_defaults_to_one(self):
        assert O.Window(0.0, 1.0) == O.Window(0.0, 1.0, 1.0)
        assert K.window(-0.5, 0.5).name == K.window(-0.5, 0.5, 1.0).name

    def test_masses(self):
        assert O.PointMass().mass == 1.0
        assert O.Window(0.0, 1.0, 1.0).mass == 1.0
        assert O.Window(-1.0, 1.0, 0.5).mass == 1.0
        assert O.Convolution(K.fejer()).mass == 1.0

    def test_window_kernel_is_the_window_family(self):
        psi = O.Window(-0.5, 0.25, 2.0)
        reference = K.window(-0.5, 0.25, 2.0)
        assert psi.kernel.name == reference.name
        t = np.linspace(-1.0, 1.0, 81)
        assert np.array_equal(psi.kernel.evaluate(t), reference.evaluate(t))

    def test_functional_reprs_hold_no_addresses(self):
        assert repr(O.Convolution(K.bspline(2))) == "Convolution(kernel=bspline2)"
        assert repr(O.Window(0.0, 1.0, 1.0)) == "Window(lo=0.0, hi=1.0, weight=1.0)"
        assert repr(O.PointMass()) == "PointMass()"

    def test_convolution_warns_on_non_unit_mass(self):
        with pytest.warns(UserWarning, match="unit mass"):
            O.Convolution(K.window(0, 1, 2))


class TestSpecValidation:
    def test_scale_and_tolerances(self):
        phi = K.bspline(2)
        with pytest.raises(ValueError):
            O.OperatorSpec(phi, O.PointMass(), 0.0)
        with pytest.raises(ValueError):
            O.OperatorSpec(phi, O.PointMass(), 5.0, series_tol=0.0)
        with pytest.raises(TypeError):
            O.OperatorSpec(phi, "not-a-functional", 5.0)

    @pytest.mark.parametrize("field", ["w", "series_tol", "quad_tol", "pou_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scale_and_tolerances(self, field, value):
        # A width-1/2 window declares no partition of unity, so the spec
        # would probe it with pou_threshold.
        params = {"w": 5.0, field: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                O.OperatorSpec(K.window(0.0, 0.5, 2.0), O.PointMass(), **params)

    def test_partition_of_unity_enforced(self):
        bad_phi = K.window(0.0, 0.5, 1.0)  # shift sum oscillates between 0 and 1
        with pytest.raises(ValueError, match="partition-of-unity"):
            O.OperatorSpec(bad_phi, O.PointMass(), 5.0)

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []
        residual = K.partition_of_unity_residual

        def counting(*args, **kwargs):
            calls.append(args)
            return residual(*args, **kwargs)

        monkeypatch.setattr(K, "partition_of_unity_residual", counting)
        return calls

    def test_declared_kernel_is_not_probed(self, residual_calls):
        O.OperatorSpec(K.fejer(), O.Window(0.0, 1.0, 1.0), 5.0)
        # The declared identity is exact, so no threshold refuses it: at 1e-12
        # the probe would have needed a Fejer radius beyond its 2^26 cap.
        O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, pou_threshold=1e-12)
        O.OperatorSpec(K.bspline(20), O.PointMass(), 5.0, pou_threshold=1e-12)
        assert residual_calls == []

    def test_undeclared_partition_of_unity_is_probed_once_and_accepted(self, residual_calls):
        hat = K.Kernel("hat", K.bspline(2).evaluate, K.CompactSupport(-1.0, 1.0), 1.0)
        assert not hat.partition_of_unity
        O.OperatorSpec(hat, O.PointMass(), 5.0)
        assert len(residual_calls) == 1

    def test_undeclared_failure_is_probed_once(self, residual_calls):
        with pytest.raises(ValueError, match="partition-of-unity"):
            O.OperatorSpec(K.window(0.0, 0.5, 1.0), O.PointMass(), 5.0)
        assert len(residual_calls) == 1


class TestGeneralizedSamples:
    def test_point_mass_reads_lattice_value(self):
        spec = O.OperatorSpec(K.bspline(2), O.PointMass(), 2.0)
        assert one_sample(spec, S.builtin_signal("identity"), 3) == 1.5

    def test_window_mean_of_constant(self):
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 7.0)
        f = S.builtin_signal("constant", 5.0)
        assert one_sample(spec, f, 4) == pytest.approx(5.0, abs=1e-12)

    def test_window_mean_of_identity(self):
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 1.0)
        f = S.builtin_signal("identity")
        assert one_sample(spec, f, 0) == pytest.approx(0.5, abs=1e-13)

    def test_convolution_window_kernel_matches_window_functional(self):
        f = S.builtin_signal("runge")
        w = 5.0
        spec_window = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
        spec_conv = O.OperatorSpec(
            K.bspline(2), O.Convolution(K.window(0, 1, 1)), w, quad_tol=1e-12
        )
        # At matched tolerances the window is its kernel, bit for bit.
        spec_matched = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w, quad_tol=1e-12)
        for k in (-3, 0, 2, 7):
            assert one_sample(spec_conv, f, k) == pytest.approx(
                one_sample(spec_window, f, k), abs=1e-11
            )
            assert one_sample(spec_conv, f, k) == one_sample(spec_matched, f, k)

    @pytest.mark.parametrize("w", [5.0, 80.0])
    def test_hat_convolution_of_runge_matches_closed_form(self, w):
        # s_k = w * integral of (1 - |w u - k|) / (1 + u^2) over [(k-1)/w, (k+1)/w].
        tol = 1e-10
        spec = O.OperatorSpec(K.bspline(2), O.Convolution(K.bspline(2)), w, quad_tol=tol)
        f = S.builtin_signal("runge")
        for k in (-40, -1, 0, 3, 40):
            a, c, b = (k - 1) / w, k / w, (k + 1) / w
            rising = (1 - k) * (math.atan(c) - math.atan(a)) + (w / 2) * (
                math.log1p(c * c) - math.log1p(a * a))
            falling = (1 + k) * (math.atan(b) - math.atan(c)) - (w / 2) * (
                math.log1p(b * b) - math.log1p(c * c))
            assert one_sample(spec, f, k) == pytest.approx(w * (rising + falling), abs=tol)

    def test_window_splits_at_signal_breakpoints(self):
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 2.0)
        # k=1 covers [0.5, 1.0); k=2 covers [1.0, 1.5) where f drops to 0.
        assert one_sample(spec, f, 1) == pytest.approx(1.0, abs=1e-13)
        assert one_sample(spec, f, 2) == pytest.approx(0.0, abs=1e-13)


class TestEvaluate:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 10.0])
    def test_constant_reproduction(self, c):
        f = S.builtin_signal("constant", c)
        for phi in (K.bspline(2), K.bspline(3)):
            for psi in (O.PointMass(), O.Window(0.0, 1.0, 1.0), O.Window(-1.0, 1.0, 0.5)):
                spec = O.OperatorSpec(phi, psi, 5.0)
                for x in (-2.3, 0.0, 1.7):
                    assert value_at(spec, f, x) == pytest.approx(c, abs=1e-10)

    def test_order2_point_sampling_reproduces_identity(self):
        spec = O.OperatorSpec(K.bspline(2), O.PointMass(), 7.0)
        f = S.builtin_signal("identity")
        for x in np.linspace(-3, 3, 25):
            assert value_at(spec, f, float(x)) == pytest.approx(float(x), abs=1e-12)

    def test_order2_unit_window_shifts_identity_by_half_step(self):
        f = S.builtin_signal("identity")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 4.0)
        assert value_at(spec, f, 1.0) == pytest.approx(1.125, abs=1e-12)
        for w in (5.0, 10.0):
            spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
            for x in (-1.2, 0.0, 2.5):
                assert value_at(spec, f, x) - x == pytest.approx(1 / (2 * w), abs=1e-10)

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
            lhs = value_at(spec, combo, x)
            rhs = a * value_at(spec, f, x) + b * value_at(spec, g, x)
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
        assert O.evaluate_grid(spec, f, grid)[0] == value_at(spec, f, 0.3)

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

    def test_computes_exactly_the_union_of_stencils(self, monkeypatch, tmp_path):
        computed = []
        compute = O.SeriesEvaluator._compute_sample

        def counting(evaluator, ks):
            computed.extend(ks.tolist())
            return compute(evaluator, ks)

        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample", counting)
        w = 5120.0
        grid = S.UniformGrid.from_window(-3, 3, 0.01)
        union = set()
        for x in grid.points():
            wx = w * float(x)
            union.update(range(math.ceil(wx - 1.5), math.floor(wx + 1.5) + 1))
        # The stencils are sparse in their index range, so computing the
        # whole range would be seen.
        assert len(union) < 0.2 * (max(union) - min(union))

        spec = O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), w)
        O.evaluate_grid(spec, S.builtin_signal("runge"), grid)
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

    @pytest.mark.parametrize("phi, psi, tol", [
        (K.fejer(), O.Window(0.0, 1.0, 1.0), 1e-4),
        (K.bspline(3), O.Window(0.0, 1.0, 1.0), 1e-9),
        (K.fejer(), O.PointMass(), 1e-4),
    ], ids=["fejer-window", "bspline3-window", "fejer-pointmass"])
    def test_on_grid_does_not_depend_on_the_block_budget(self, phi, psi, tol, monkeypatch):
        f = S.builtin_signal("runge")
        spec = O.OperatorSpec(phi, psi, 5.0, series_tol=tol)
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()
        values = []
        for budget in (1 << 4, 1 << 13, 1 << 16):
            monkeypatch.setattr(K, "_BLOCK_VALUES", budget)
            values.append(O.SeriesEvaluator(spec, f).on_grid(points).tobytes())
        assert values[0] == values[1] == values[2]

    def test_fejer_blocks_match_per_point_exact_sum(self):
        # Without its envelope runge takes the full radius: more than
        # 8 * 2**16 stencil values, over 64 assembly blocks.
        self.check_fejer_blocks(dataclasses.replace(S.builtin_signal("runge"), envelope=None), 8)

    def test_fejer_blocks_match_per_point_exact_sum_with_envelope(self):
        # With it, stencils of 129 values: more than 2**16 in all.
        self.check_fejer_blocks(S.builtin_signal("runge"), 1)

    @staticmethod
    def check_fejer_blocks(f, blocks):
        # The reference sums each point's products exactly; BLAS np.dot was
        # seen up to 7 ulp away from that sum on this grid.
        w = 5.0
        phi = K.fejer()
        spec = O.OperatorSpec(phi, O.PointMass(), w, series_tol=1e-4)
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()
        evaluator = O.SeriesEvaluator(spec, f)
        values = evaluator.on_grid(points)
        stencils = [evaluator._index_range(float(x)) for x in points]
        assert sum(ks.size for ks in stencils) > blocks * 2**16
        eps = np.finfo(float).eps
        for x, ks, value in zip(points, stencils, values):
            terms = phi.shifted(np.array([w * float(x)]), ks)[0] * f.evaluate(ks / w)
            reference = math.fsum(terms.tolist())
            assert abs(value - reference) <= 4 * eps * abs(reference)

    @pytest.mark.parametrize("w", [5.0, 10.0])
    def test_fejer_grid_values_match_a_40_digit_sum_of_their_samples(self, w):
        # The series of the fejer_grid benchmark: Fejer phi, the unit window
        # and runge at series_tol 1e-4, on every 30th point of its grid.
        mpmath = pytest.importorskip("mpmath")
        spec = O.OperatorSpec(K.fejer(), O.Window(0.0, 1.0, 1.0), w, series_tol=1e-4)
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()[::30]
        evaluator = O.SeriesEvaluator(spec, S.builtin_signal("runge"))
        values = evaluator.on_grid(points)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for x, value in zip(points, values):
                ks = evaluator._index_range(float(x))
                samples = evaluator._values[ks - evaluator._k0]
                wx = mpmath.mpf(w * float(x))  # the series' own rounded w x
                terms = []
                for k, sample in zip(ks.tolist(), samples.tolist()):
                    t = wx - k
                    phi = 2 * mpmath.sinpi(t / 2) ** 2 / (mpmath.pi * t) ** 2 if t else 0.5
                    terms.append(phi * sample)
                reference = mpmath.fsum(terms)
                assert abs(value - reference) <= 4 * eps * abs(reference), x

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

    @pytest.mark.parametrize("phi, tol", [
        (K.fejer(), 1e-4), (K.window(0, 1, 1), 1e-9), (K.window(-1, 1, 0.5), 1e-9),
        *[(K.bspline(n), 1e-9) for n in range(1, 6)],
    ], ids=lambda v: getattr(v, "name", None))
    def test_stencils_are_their_row_width_or_one_shorter(self, phi, tol):
        # _assemble zeroes only the last column of a row past its stencil.
        spec = O.OperatorSpec(phi, O.PointMass(), 5.0, series_tol=tol)
        evaluator = O.SeriesEvaluator(spec, S.builtin_signal("runge"))
        lattice = np.arange(-15, 16) / 5.0  # w x on and beside the integers
        points = np.concatenate([np.linspace(-3, 3, 601), lattice,
                                 np.nextafter(lattice, np.inf), np.nextafter(lattice, -np.inf)])
        lo, hi, groups = evaluator._stencils(points)
        lengths = hi - lo + 1
        for width, group in groups:
            assert np.all((lengths[group] == width) | (lengths[group] == width - 1))
        assert {width - 1 for width, _ in groups} <= set(lengths.tolist())

    @pytest.mark.parametrize("phi", [
        *[K.bspline(n) for n in range(1, 7)], K.window(0, 1, 1), K.window(-0.25, 0.5, 2),
    ], ids=lambda phi: phi.name)
    @pytest.mark.parametrize("w", [5.0, 5120.0])
    def test_exact_compact_stencils_lose_no_term(self, phi, w):
        # The reference sums each point's terms over a stencil padded by
        # one index on each side, as rows of floor(hi - lo) + 3 were once
        # summed. Every padded index outside the exact stencil weighs 0.
        # Rows under 8 wide are summed in order, so dropping a zero term
        # moves no bit; bspline5 and bspline6 had 8- and 9-wide padded
        # rows, which numpy sums pairwise, so they get 4 ulp.
        f = S.builtin_signal("runge")
        # window(-0.25, 0.5, 2) covers 3/4 of each period: its shifts sum to 2 or 0.
        spec = O.OperatorSpec(phi, O.Window(0.0, 1.0, 1.0), w, pou_threshold=1.0)
        lo, hi = phi.support.lo, phi.support.hi
        # Lattice and knot positions w x near -3, 0, 13 and +-1e6, and one
        # ulp to each side of them.
        phases = sorted({0.0, *phi.breakpoints})
        positions = [m + b for m in (-1_000_000, -3, 0, 13, 999_999) for b in phases]
        points = np.array(positions) / w
        points = np.concatenate([points, np.nextafter(points, np.inf),
                                 np.nextafter(points, -np.inf)])
        values = O.SeriesEvaluator(spec, f).on_grid(points)
        first, last, _ = O.SeriesEvaluator(spec, f)._stencils(points)
        padded_width = math.floor(hi - lo) + 3
        eps = np.finfo(float).eps
        for x, a, b, value in zip(points, first, last, values):
            wx = w * float(x)
            ks = np.arange(math.ceil(wx - hi) - 1, math.floor(wx - lo) + 2)
            weights = phi.shifted(np.array([wx]), ks)[0]
            exact = (a <= ks) & (ks <= b)
            assert np.all(weights[~exact] == 0.0), x
            t = wx - ks
            assert np.array_equal(exact, (lo <= t) & (t <= hi)), x
            reference = np.sum(weights * O.SeriesEvaluator(spec, f)._compute_sample(ks))
            if padded_width < 8:
                assert value == reference, x
            else:
                assert abs(value - reference) <= 4 * eps * abs(reference), x
            # Alone, a point whose stencil is empty still reads a stored index.
            assert value_at(spec, f, float(x)) == value, x

    @pytest.mark.parametrize("phi, psi, tol, quad_tol, signal, stride", [
        (K.bspline(3), O.Window(0.0, 1.0, 1.0), 1e-9, 1e-10, "piecewise_rational", 1),
        (K.bspline(2), O.Window(-0.5, 0.25, 2.0), 1e-9, 1e-10, "box", 1),
        (K.fejer(), O.Window(0.0, 1.0, 1.0), 1e-4, 1e-10, "runge", 97),
        (K.bspline(3), O.Convolution(K.bspline(2)), 1e-9, 1e-9, "piecewise_rational", 1),
        (K.bspline(3), O.Convolution(skewed_hat()), 1e-9, 1e-9, "piecewise_rational", 1),
        (K.bspline(3), O.Convolution(K.fejer()), 1e-9, 1e-4, "piecewise_rational", 1),
    ])
    def test_grid_pass_samples_equal_single_samples_bitwise(self, phi, psi, tol, quad_tol,
                                                            signal, stride):
        # A grid pass computes its samples in one batched quadrature; each
        # must not depend on the other samples of its batch.
        f = S.builtin_signal(signal)
        spec = O.OperatorSpec(phi, psi, 5.0, series_tol=tol, quad_tol=quad_tol)
        evaluator = O.SeriesEvaluator(spec, f)
        evaluator.on_grid(S.UniformGrid.from_window(-3, 3, 0.01).points())
        known = np.flatnonzero(evaluator._known) + evaluator._k0
        assert known.size > 30
        for k in known[::stride].tolist():
            assert evaluator.sample(k) == one_sample(spec, f, k)
            if isinstance(psi.kernel.support, K.DecayingSupport):
                assert evaluator.sample(k) == pytest.approx(t_coordinate_sample(spec, f, k),
                                                            rel=0, abs=1e-12)

    @pytest.mark.parametrize("psi, quad_tol", [
        (O.PointMass(), 1e-10),
        (O.Window(0.0, 1.0, 1.0), 1e-10),
        (O.Convolution(K.bspline(2)), 1e-9),
        (O.Convolution(K.fejer()), 1e-4),
    ], ids=["pointmass", "window", "compact-convolution", "decaying-convolution"])
    def test_a_batch_of_samples_takes_one_quadrature_call(self, psi, quad_tol, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.size(args[1]))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(O, "integrate", counting)
        spec = O.OperatorSpec(K.bspline(3), psi, 5.0, quad_tol=quad_tol)
        evaluator = O.SeriesEvaluator(spec, S.builtin_signal("runge"))
        evaluator.prefill(np.linspace(-1.0, 1.0, 11))
        assert np.count_nonzero(evaluator._known) == 13
        assert calls == ([] if isinstance(psi, O.PointMass) else [13])

    def test_long_fejer_stencil_evaluate_equals_per_node_at_bitwise(self):
        # sup_norm 50 at series_tol 1e-4 gives a radius of 262,144: without
        # its envelope each point's stencil alone fills over 64 assembly blocks.
        f = dataclasses.replace(S.builtin_signal("piecewise_rational"), envelope=None)
        self.check_long_fejer_stencil(f)

    def test_long_fejer_stencil_evaluate_equals_per_node_at_bitwise_with_envelope(self):
        # The envelope shortens the same points' stencils to under 2**15
        # values each.
        radii = self.check_long_fejer_stencil(S.builtin_signal("piecewise_rational"))
        assert radii.max() < 2**15

    @staticmethod
    def check_long_fejer_stencil(f):
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-4)
        evaluator = O.SeriesEvaluator(spec, f)
        assert evaluator._radius == 262144
        nodes = np.linspace(-1.3, 1.3, 15)
        values = evaluator.evaluate(nodes)
        singles = [evaluator.at(float(x)) for x in nodes]
        assert values.tobytes() == np.array(singles).tobytes()
        return evaluator._radii(nodes)


def unit_window_means(name, ks, w):
    """w times the integral of a built-in signal over [k/w, (k+1)/w), in
    closed form."""
    a, b = ks / w, (ks + 1.0) / w
    if name == "runge":
        # atan(b) - atan(a) = atan((b - a) / (1 + a b)), with no cancellation.
        return w * np.arctan((1.0 / w) / (1.0 + a * b))
    if name == "box":
        return w * (np.clip(b, -1.0, 1.0) - np.clip(a, -1.0, 1.0))

    def primitive(t):
        # The antiderivative of piecewise_rational that vanishes at 0.
        safe = np.where(t == 0.0, 1.0, t)
        return np.select([t < -1.0, t < 0.0, t < 1.0],
                         [-11.0 - 9.0 / safe, 2.0 * t, t],
                         1.0 + 50.0 / (3.0 * safe * safe * safe) - 50.0 / 3.0)
    return w * (primitive(b) - primitive(a))


def fejer_lattice_sum(name, psi, w, x, radius):
    """Independent sum over |k - w x| <= radius of F(w x - k) times the
    sample of a built-in signal: its point value or its unit-window mean."""
    wx = w * x
    ks = np.arange(math.ceil(wx - radius), math.floor(wx + radius) + 1, dtype=float)
    if isinstance(psi, O.PointMass):
        samples = np.asarray(S.builtin_signal(name).evaluate(ks / w))
    else:
        samples = unit_window_means(name, ks, w)
    return float(np.sum(0.5 * np.sinc(0.5 * (wx - ks)) ** 2 * samples))


def envelope_radius(f, psi, w, x, tol, reach=None):
    """The certified per-point radius, restated: the first doubling of 4 at
    which the Fejer one-sided lattice tails times the capped envelope at the
    nearest omitted sample on each side meet tol. ``reach`` is psi's (lo, hi)
    in t = w u - k: a window's ends, or 0 for a point mass, by default."""
    if reach is not None:
        lo, hi = reach
    else:
        lo, hi = (0.0, 0.0) if isinstance(psi, O.PointMass) else (psi.lo, psi.hi)
    def cap(r):
        return min(float(f.envelope(max(0.0, r))), f.sup_norm)

    r = 4
    while True:
        one_side = 2.0 / math.pi**2 * (r**-2.0 + r**-1.0)
        if psi.mass * one_side * (cap(x + (r + lo) / w) + cap((r - hi) / w - x)) <= tol:
            return r
        r *= 2


class TestCertifiedTruncation:
    @pytest.mark.parametrize("name", ["runge", "box", "piecewise_rational"])
    @pytest.mark.parametrize("psi", [O.PointMass(), O.Window(0.0, 1.0, 1.0)],
                             ids=["point", "window"])
    @pytest.mark.parametrize("w", [5.0, 10.0])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_enveloped_value_within_series_tol_of_envelope_free(self, name, psi, w, tol):
        # The envelope-free value is summed independently over the sup-norm
        # radius, capped at 2^16: beyond it these signals' terms add less
        # than 1e-12.
        f = S.builtin_signal(name)
        spec = O.OperatorSpec(K.fejer(), psi, w, series_tol=tol)
        full = O.SeriesEvaluator(spec, dataclasses.replace(f, envelope=None))._radius
        evaluator = O.SeriesEvaluator(spec, f)
        nodes = np.array([-50.0, *np.linspace(-3.0, 3.0, 13), 50.0])
        radii = evaluator._radii(nodes)
        assert radii.max() <= evaluator._radius == full
        assert radii[1:-1].max() < full
        values = evaluator.evaluate(nodes)
        for x, value in zip(nodes.tolist(), values.tolist()):
            reference = fejer_lattice_sum(name, psi, w, x, min(full, 1 << 16))
            assert abs(value - reference) <= tol + spec.quad_tol + 1e-12

    def test_radii_follow_the_envelope_bound(self):
        f = S.builtin_signal("runge")
        psi = O.Window(0.0, 1.0, 1.0)
        nodes = np.linspace(-3.0, 3.0, 601)
        for w, expected in ((5.0, 64), (10.0, 128)):
            spec = O.OperatorSpec(K.fejer(), psi, w, series_tol=1e-4)
            radii = O.SeriesEvaluator(spec, f)._radii(nodes)
            assert radii.tolist() == [envelope_radius(f, psi, w, x, 1e-4) for x in nodes]
            assert set(radii.tolist()) == {expected}

    @pytest.mark.parametrize("name, psi", [("box", O.PointMass()),
                                           ("runge", O.Window(0.0, 1.0, 1.0))])
    def test_mixed_radii_evaluate_equals_per_node_at_bitwise(self, name, psi):
        f = S.builtin_signal(name)
        spec = O.OperatorSpec(K.fejer(), psi, 5.0, series_tol=1e-4)
        # 0.2 sits on the lattice, where a stencil is one index longer.
        nodes = np.array([0.2, *np.linspace(-60.0, 60.0, 41)])
        evaluator = O.SeriesEvaluator(spec, f)
        assert len(set(evaluator._radii(nodes).tolist())) > 2
        values = evaluator.evaluate(nodes)
        singles = [O.SeriesEvaluator(spec, f).at(float(x)) for x in nodes]
        assert values.tobytes() == np.array(singles).tobytes()

    def test_computes_exactly_the_union_of_shortened_stencils(self, monkeypatch):
        computed = []
        compute = O.SeriesEvaluator._compute_sample

        def counting(evaluator, ks):
            computed.extend(ks.tolist())
            return compute(evaluator, ks)

        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample", counting)
        f = S.builtin_signal("runge")
        psi = O.Window(0.0, 1.0, 1.0)
        w = 5.0
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()
        union = set()
        for x in points.tolist():
            r = envelope_radius(f, psi, w, x, 1e-4)
            union.update(range(math.ceil(w * x - r), math.floor(w * x + r) + 1))
        spec = O.OperatorSpec(K.fejer(), psi, w, series_tol=1e-4)
        O.evaluate_grid(spec, f, S.UniformGrid.from_window(-3, 3, 0.01))
        assert sorted(computed) == sorted(union)
        assert len(union) < 200

    def test_a_compact_convolution_takes_the_window_radii(self):
        # Its samples reach only psi's support, so the envelope bounds them
        # as it bounds a window's.
        f = S.builtin_signal("runge")
        points = S.UniformGrid.from_window(-3, 3, 0.01).points()
        grids, radii = [], []
        for psi in (O.Window(0.0, 1.0, 1.0),
                    O.Convolution(K.window(0.0, 1.0, 1.0))):
            spec = O.OperatorSpec(K.fejer(), psi, 5.0, series_tol=1e-4, quad_tol=1e-10)
            evaluator = O.SeriesEvaluator(spec, f)
            radii.append(evaluator._radii(points).tolist())
            grids.append(evaluator.on_grid(points).tobytes())
        assert grids[0] == grids[1]
        assert radii[0] == radii[1]
        assert max(radii[0]) == 64

    def test_a_point_beyond_the_cap_raises_the_radius_error(self):
        # Past the cap ``_radius`` is None for every signal, and only a point
        # that needs more is refused: every point without an envelope.
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-9)
        bare = O.SeriesEvaluator(spec, dataclasses.replace(f, envelope=None))
        assert bare._radius is None
        with pytest.raises(ValueError, match="beyond 67108864"):
            bare.at(0.3)
        evaluator = O.SeriesEvaluator(spec, f)
        assert evaluator._radius is None
        assert evaluator.at(0.3) == pytest.approx(direct_point_sampling_sum(K.fejer(), f, 5.0, 0.3, 8),
                                                  abs=1e-9)
        with pytest.raises(ValueError, match="beyond 67108864"):
            evaluator.at(1e8)

    @pytest.mark.parametrize("f, psi, quad_tol, expected", [
        (dataclasses.replace(S.builtin_signal("runge"), envelope=None), O.PointMass(), 1e-10,
         [4096] * 6),
        # C = 1024: the nearest omitted sample's reach starts at (r - C)/w.
        (S.builtin_signal("runge"), O.Convolution(K.fejer()), 1e-3, [2048] * 6),
    ], ids=["no-envelope", "convolution"])
    def test_no_radius_exceeds_the_sup_norm_radius(self, f, psi, quad_tol, expected):
        spec = O.OperatorSpec(K.fejer(), psi, 5.0, series_tol=1e-4, quad_tol=quad_tol)
        evaluator = O.SeriesEvaluator(spec, f)
        nodes = [-50.0, -0.3, 0.0, 0.2, 3.0, 50.0]
        radii = evaluator._radii(np.array(nodes))
        assert evaluator._radius == 4096
        assert radii.tolist() == expected
        if f.envelope is not None:
            assert evaluator._psi_ends == (-1024.0, 1024.0)
            assert expected == [envelope_radius(f, psi, 5.0, x, 1e-4, reach=evaluator._psi_ends)
                                for x in nodes]

    def test_a_decaying_convolution_within_series_tol_of_the_sup_norm_radius(self):
        # Fejer phi and psi at quad_tol 1e-2 (C = 128): the reach-bound radii
        # need 543 samples where the sup-norm radius needs 8,223, and the two
        # series differ by at most the omitted terms, which the bound keeps
        # within series_tol.
        f = S.builtin_signal("runge")
        spec = O.OperatorSpec(K.fejer(), O.Convolution(K.fejer()), 5.0, series_tol=1e-4,
                              quad_tol=1e-2)
        nodes = np.array([-3.0, -0.3, 0.0, 0.2, 3.0])
        evaluator = O.SeriesEvaluator(spec, f)
        reference = O.SeriesEvaluator(spec, dataclasses.replace(f, envelope=None))
        values, full = evaluator.evaluate(nodes), reference.evaluate(nodes)
        assert evaluator._radii(nodes).tolist() == [256] * 5
        assert reference._radii(nodes).tolist() == [4096] * 5
        assert np.count_nonzero(evaluator._known) == 543
        assert np.count_nonzero(reference._known) == 8223
        assert np.all(np.abs(values - full) <= spec.series_tol)


class TestDecayingPaths:
    def test_fejer_reconstruction_kernel_reproduces_constants_loosely(self):
        f = S.builtin_signal("constant", 1.0)
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-4)
        assert value_at(spec, f, 0.3) == pytest.approx(1.0, abs=5e-4)

    def test_fejer_sample_kernel_reproduces_constants_loosely(self):
        f = S.builtin_signal("constant", 1.0)
        spec = O.OperatorSpec(
            K.bspline(2), O.Convolution(K.fejer()), 5.0, quad_tol=1e-3
        )
        assert value_at(spec, f, 0.3) == pytest.approx(1.0, abs=5e-3)

    def test_decaying_convolution_samples_keep_the_kernel_peak(self):
        # Integrated over [-2^20, 2^20] in one piece, GK15 read these
        # samples as 1.7e-11.
        quad = pytest.importorskip("scipy.integrate").quad
        f = S.builtin_signal("runge")
        w, tol = 5.0, 1e-6
        spec = O.OperatorSpec(K.bspline(3), O.Convolution(K.fejer()), w, quad_tol=tol)

        def integrand(t, k):
            half = 0.5 * math.pi * t
            peak = 1.0 if half == 0.0 else math.sin(half) / half
            return 0.5 * peak * peak / (1.0 + ((t + k) / w) ** 2)

        samples = {}
        for k in (-1, 0, 1, 5):
            # Unit cells over [-1024, 1024]; beyond, the integrand adds less
            # than 1e-8.
            samples[k] = math.fsum(quad(integrand, a, a + 1.0, args=(k,), epsabs=1e-14)[0]
                                   for a in range(-1024, 1024))
            assert one_sample(spec, f, k) == pytest.approx(samples[k], abs=tol)
        series = 0.125 * samples[-1] + 0.75 * samples[0] + 0.125 * samples[1]
        assert value_at(spec, f, 0.0) == pytest.approx(series, abs=tol)

    def test_missing_sup_norm_is_refused_with_decaying_kernel(self):
        f = S.builtin_signal("identity")
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-3)
        with pytest.raises(ValueError, match="signal 'identity' declares no sup norm"):
            value_at(spec, f, 0.0)

    @pytest.mark.parametrize("phi", [K.fejer(), K.bspline(3)], ids=["fejer-phi", "bspline3-phi"])
    def test_missing_sup_norm_is_refused_for_a_decaying_psi(self, phi):
        f = S.builtin_signal("identity")
        spec = O.OperatorSpec(phi, O.Convolution(K.fejer()), 5.0, series_tol=1e-3,
                              quad_tol=1e-3)
        with pytest.raises(ValueError, match="signal 'identity' declares no sup norm"):
            O.SeriesEvaluator(spec, f)

    def test_compact_kernels_need_no_sup_norm(self):
        f = S.builtin_signal("identity")
        for psi in (O.PointMass(), O.Window(0.0, 1.0, 1.0), O.Convolution(K.bspline(2))):
            spec = O.OperatorSpec(K.bspline(2), psi, 4.0)
            assert O.required_sup_norm(spec, f) is None
            # A linear f is reproduced, shifted by the mean of psi: 1/(2w) for
            # the unit window, 0 for the symmetric ones.
            assert abs(value_at(spec, f, 0.3) - 0.3) <= 0.125 + 1e-12

    def test_breakpoints_cover_smearing_zone(self):
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), 4.0)
        cuts = O.SeriesEvaluator(spec, f).breakpoints
        assert -1.0 in cuts and 1.0 in cuts
        assert min(cuts) == pytest.approx(-1.5)
        assert max(cuts) == pytest.approx(1.5)

    @pytest.mark.parametrize("psi", [O.PointMass(), O.Window(0.0, 1.0, 1.0)],
                             ids=["point", "window"])
    def test_a_decaying_phi_keeps_the_signal_breakpoints(self, psi):
        f = S.builtin_signal("box")
        spec = O.OperatorSpec(K.fejer(), psi, 2560.0, series_tol=1e-4)
        assert O.SeriesEvaluator(spec, f).breakpoints == tuple(f.breakpoints) == (-1.0, 1.0)


class TestSeriesRowGuard:
    """The rows of a decaying phi are checked against ``kernels._MAX_ROW_SHIFTS``
    before any sample is computed; the caps are lowered, so no oversized row
    is ever built."""

    @staticmethod
    def computed(monkeypatch):
        ks = []
        compute = O.SeriesEvaluator._compute_sample

        def counting(evaluator, batch):
            ks.extend(batch.tolist())
            return compute(evaluator, batch)

        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample", counting)
        return ks

    def test_the_sup_norm_radius_of_a_signal_without_an_envelope(self, monkeypatch):
        computed = self.computed(monkeypatch)
        f = S.builtin_signal("constant", 1.0)
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-4)
        width = 2 * O.SeriesEvaluator(spec, f)._radius + 1
        assert width == 8193
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", width - 1)
        with pytest.raises(ValueError, match="8,193 shifts; at most 8,192"):
            value_at(spec, f, 0.3)
        assert computed == []
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", width)
        assert value_at(spec, f, 0.3) == pytest.approx(1.0, abs=1e-4)
        assert len(computed) == width - 1

    def test_the_widest_envelope_radius_of_a_request(self, monkeypatch):
        computed = self.computed(monkeypatch)
        f = S.builtin_signal("runge")
        spec = O.OperatorSpec(K.fejer(), O.PointMass(), 5.0, series_tol=1e-4)
        points = np.array([-40.0, 0.0, 0.3, 40.0])
        radii = O.SeriesEvaluator(spec, f)._radii(points)
        widest = 2 * int(radii.max()) + 1
        assert int(radii.min()) < int(radii.max())
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", widest - 1)
        with pytest.raises(ValueError, match=f"{widest:,} shifts"):
            O.SeriesEvaluator(spec, f).evaluate(points)
        assert computed == []
        # Points whose rows are all narrower still pass.
        narrow = points[radii < radii.max()]
        assert O.SeriesEvaluator(spec, f).evaluate(narrow).shape == narrow.shape
        assert computed
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", widest)
        assert O.SeriesEvaluator(spec, f).evaluate(points).shape == points.shape
