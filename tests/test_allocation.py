"""Traced heap peaks of the lattice sums and the series assembly.

Both sum row blocks of at most ``kernels._BLOCK_VALUES`` terms, so their
temporaries stay small whatever the number of points. The bounds are on
tracemalloc's traced peak, which is deterministic for a given numpy; no
time is measured.
"""

import tracemalloc

import numpy as np

from durrmeyer import kernels as K
from durrmeyer import moments as M
from durrmeyer import operators as O
from durrmeyer import signals as S

_MIB = 1 << 20


def traced_peak(call):
    """Peak bytes traced while ``call`` runs, above what was traced before.

    ``call`` runs once untraced first, so that modules numpy imports on
    first use are not counted.
    """
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_fejer_grid_pass_peaks_below_one_mib():
    spec = O.OperatorSpec(K.fejer(), O.Window(0.0, 1.0, 1.0), 5.0, series_tol=1e-4)
    evaluators = [O.SeriesEvaluator(spec, S.builtin_signal("runge")) for _ in range(2)]
    points = S.UniformGrid.from_window(-3, 3, 0.01).points()
    assert points.size == 601
    # Each call takes a fresh evaluator, so the traced one computes its samples.
    assert traced_peak(lambda: evaluators.pop().on_grid(points)) < _MIB


def test_window_first_moment_peaks_below_one_mib():
    result = []
    peak = traced_peak(lambda: result.append(M.discrete_absolute_moment(K.window(0, 1, 1), 1)))
    # sup over u in [0, 1) of u, on the finest probe grid.
    assert result[-1].value == 1.0 - 2.0**-15
    assert peak < _MIB


def test_fejer_residual_at_the_check_radius_peaks_below_one_mib():
    # kernel-check's probes and radius for a decaying kernel: one row of
    # 20,001 shifts per block, through Fejer's row evaluator.
    probes = np.arange(100) / 100
    result = []
    peak = traced_peak(lambda: result.append(
        K.partition_of_unity_residual(K.fejer(), probes, 10_000)))
    assert 0.0 < result[-1] < 1e-4
    assert peak < _MIB


def test_a_chunked_sample_fill_peaks_below_one_mib(monkeypatch):
    # 243 samples of a Fejer psi: one quadrature call holds all their
    # cells at once, about 3.7 MiB traced, and 16-sample chunks about
    # 0.4 MiB. A sample does not depend on its batch, so the chunks move
    # no bit.
    spec = O.OperatorSpec(K.bspline(3), O.Convolution(K.fejer()), 40.0, quad_tol=1e-4)
    points = S.UniformGrid.from_window(-3, 3, 0.01).points()
    fills = {}
    for chunk in (O._SAMPLE_CHUNK, 16):
        monkeypatch.setattr(O, "_SAMPLE_CHUNK", chunk)
        evaluators = [O.SeriesEvaluator(spec, S.builtin_signal("runge")) for _ in range(2)]
        filled = evaluators[0]  # the one the traced call fills
        peak = traced_peak(lambda: evaluators.pop().prefill(points))
        fills[chunk] = peak, filled._values[filled._known]
    (whole, samples), (chunked, chunked_samples) = fills.values()
    assert samples.size == 243
    assert chunked_samples.tobytes() == samples.tobytes()
    assert whole > 2 * _MIB
    assert chunked < _MIB
