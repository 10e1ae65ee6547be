"""Property test of the overflow rule: a modular is ``None`` exactly when its
integral is infinite at working precision, whatever the gauge.

The function is a constant c over (0, L), so each modular is L eta(lam |c|)
in closed form, here in mpmath. With L >= 2 a GK15 cell sum, whose weights
add up to 2, overflows only where that integral does. Each cell's amplitude
lam |c| is drawn so that the integral lies a few decades on either side of
the float maximum."""

import sys

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from durrmeyer import orlicz as X
from durrmeyer import signals as S

FLOAT_MAX = mpmath.mpf(sys.float_info.max)
# Integrals within this relative distance of the float maximum may round
# either way, so they are not judged.
BAND = 1e-12


def exact_gauge(eta, u):
    """eta(u) in mpmath arithmetic."""
    if isinstance(eta, X.PowerFunction):
        return u**eta.p
    if isinstance(eta, X.ZygmundFunction):
        return u**eta.alpha * mpmath.log(mpmath.e + u) ** eta.beta
    return mpmath.expm1(u**eta.alpha)


def amplitude(eta, target):
    """The u > 0 with eta(u) = target, by bisection on log u."""
    lo, hi = mpmath.mpf(10) ** -20, mpmath.mpf(10) ** 320
    for _ in range(200):
        mid = mpmath.sqrt(lo * hi)
        lo, hi = (mid, hi) if exact_gauge(eta, mid) < target else (lo, mid)
    return lo


gauges = st.one_of(
    st.builds(X.PowerFunction, st.floats(1.0, 4.0)),
    st.builds(X.ZygmundFunction, st.floats(1.0, 3.0), st.floats(0.25, 3.0)),
    st.builds(X.ExponentialFunction, st.floats(1.0, 3.0)),
)
# Per cell: the gauge, and log10 of its integral over the float maximum.
cell_draws = st.tuples(gauges, st.floats(-3.0, 1.0))


def test_a_modular_overflows_exactly_when_its_integral_is_infinite():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.floats(2.0, 16.0), st.floats(-30.0, 30.0), st.sampled_from([1.0, -1.0]),
           st.lists(cell_draws, min_size=1, max_size=4))
    def judged(length, c_exponent, sign, draws):
        c = sign * 10.0**c_exponent
        cells, exact = [], []
        with mpmath.workdps(40):
            for eta, decades in draws:
                target = FLOAT_MAX * mpmath.mpf(10) ** decades / length
                lam = float(amplitude(eta, target) / abs(c))
                if not 0.0 < lam < float("inf"):
                    continue
                cells.append((eta, lam))
                # The node value the modular sees is the float product.
                exact.append(length * exact_gauge(eta, mpmath.mpf(lam * abs(c))))
        f = S.builtin_signal("constant", c)
        values = X.modulars(cells, f, (0.0, length))
        for value, integral in zip(values, exact):
            if integral > FLOAT_MAX * (1 + BAND):
                assert value is None
                outcomes.add("overflow")
            elif integral < FLOAT_MAX * (1 - BAND):
                assert value is not None
                assert abs(value - integral) <= BAND * integral
                outcomes.add("finite")
        # Bit for bit, a batched cell is its solo call.
        for cell, value in zip(cells, values):
            assert X.modulars([cell], f, (0.0, length)) == [value]

    judged()
    assert outcomes == {"overflow", "finite"}


def test_a_narrow_window_reads_its_integral_up_to_the_float_maximum():
    # Over a window narrower than 2 a GK15 cell's weighted sum, whose
    # weights add up to 2, can pass the float maximum while the integral
    # c L does not: the cell must still read c L.
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.floats(1e-3, 2.0, exclude_max=True), st.floats(-1.0, 0.0),
           st.floats(-1e3, 1e3), st.sampled_from([1.0, -1.0]))
    def judged(length, decades, start, sign):
        # |c| within a decade below the float maximum: c L overflows only
        # for L above 1.
        c = sign * float(FLOAT_MAX * mpmath.mpf(10) ** decades)
        window = (start, start + length)
        integral = abs(c) * (mpmath.mpf(window[1]) - mpmath.mpf(window[0]))
        f = S.builtin_signal("constant", c)
        [value] = X.modulars([(X.PowerFunction(1), 1.0)], f, window)
        if integral > FLOAT_MAX * (1 + BAND):
            assert value is None
            outcomes.add("overflow")
        elif integral < FLOAT_MAX * (1 - BAND):
            assert value is not None
            assert abs(value - integral) <= BAND * integral
            outcomes.add("finite")

    judged()
    assert outcomes == {"overflow", "finite"}
