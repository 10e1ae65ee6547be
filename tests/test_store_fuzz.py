"""Property test of the sample store: random sequences of requests on one
:class:`~durrmeyer.operators.SeriesEvaluator` give, bit for bit, the values
a fresh evaluator gives for each request alone; no sample is computed twice
or outside the requested stencils; and the store spans exactly the requested
indices, from the least to the greatest."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import signals as S

RUNGE = S.builtin_signal("runge")


def spec(kind, w):
    if kind == "bspline3/window":
        return O.OperatorSpec(K.bspline(3), O.Window(0.0, 1.0, 1.0), w)
    return O.OperatorSpec(K.fejer(), O.PointMass(), w, series_tol=1e-4)


points = st.lists(st.floats(-3.0, 3.0), max_size=5).map(np.array)
requests = st.one_of(
    st.tuples(st.just("sample"), st.integers(-150, 150)),
    st.tuples(st.just("prefill"), points),
    st.tuples(st.just("on_grid"), points),
    st.tuples(st.just("evaluate"), st.one_of(st.floats(-3.0, 3.0), points)),
)


def answer(evaluator, request):
    """The request's value on ``evaluator``, as bytes."""
    method, arg = request
    return np.asarray(getattr(evaluator, method)(arg), dtype=float).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["bspline3/window", "fejer/pointmass"]), st.sampled_from([5.0, 40.0]),
       st.lists(requests, min_size=1, max_size=6))
def test_the_store_computes_each_requested_sample_once(kind, w, sequence):
    s = spec(kind, w)
    evaluator = O.SeriesEvaluator(s, RUNGE)
    computed = []

    def counting(ks):
        computed.extend(ks.tolist())
        return O.SeriesEvaluator._compute_sample(evaluator, ks)

    evaluator._compute_sample = counting
    touched, ends = set(), []
    for request in sequence:
        fresh = O.SeriesEvaluator(s, RUNGE)
        assert answer(evaluator, request) == answer(fresh, request)
        method, arg = request
        if method == "sample":
            lo = hi = np.array([arg])
        else:
            lo, hi, _ = fresh._stencils(np.atleast_1d(np.asarray(arg, dtype=float)))
        for first, last in zip(lo.tolist(), hi.tolist()):
            touched.update(range(first, last + 1))
        if lo.size:
            ends += [int(min(lo.min(), hi.min())), int(hi.max())]

    assert len(computed) == len(set(computed))
    assert set(computed) == touched
    if ends:
        assert (evaluator._k0, evaluator._values.size) == (min(ends), max(ends) - min(ends) + 1)
    else:
        assert evaluator._values.size == 0
    known = np.flatnonzero(evaluator._known) + evaluator._k0
    assert known.tolist() == sorted(touched)
    fresh = O.SeriesEvaluator(s, RUNGE)
    assert (evaluator._values[evaluator._known].tobytes()
            == fresh._compute_sample(known).tobytes())
