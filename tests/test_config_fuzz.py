"""Property test of configuration resolution: every descriptor, however
malformed, either resolves into an :class:`~durrmeyer.cli.Experiment` or is
refused with :class:`~durrmeyer.cli.ConfigError` (exit 2), never with any
other exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from durrmeyer import cli

KINDS = ["bspline", "fejer", "window", "pointmass", "general",
         "power", "zygmund", "exponential", "mystery"]
# The keys that some descriptor reads, and misspellings of them.
KEYS = ["n", "lo", "hi", "weight", "kernel", "p", "alpha", "beta", "lambda",
        "quad_tol", "name", "value", "piecewise", "wieght", "lamda", "degree", "valu"]
ROOT_KEYS = ["phi", "psi", "signal", "w_list", "window", "grid_step", "orlicz",
             "tolerances", "output", "grid_stp", "tolerence"]

scalars = st.one_of(
    st.integers(-2, 6),
    st.integers(),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=4,
)


def descriptors(tag):
    """Objects with a kind key (a real kind or any value) and up to three
    other keys, each holding a value or a nested kernel descriptor."""
    kind = st.one_of(st.sampled_from(KINDS), values)
    other = st.one_of(st.integers(0, 4), values, st.deferred(lambda: descriptors("family")))
    return st.builds(lambda k, rest: {**rest, tag: k}, kind,
                     st.dictionaries(st.sampled_from(KEYS), other, max_size=3))


signals = st.one_of(
    st.sampled_from(["runge", "box", "constant", "no-such-signal"]),
    st.dictionaries(st.sampled_from(["name", "value", "piecewise", "valu"]),
                    st.one_of(values, st.just("constant"), st.just([[0, 1, 2]])),
                    max_size=3),
    values,
)
VALID = {"phi": {"family": "bspline", "n": 3}, "psi": {"kind": "window", "lo": 0, "hi": 1},
         "signal": "runge", "w_list": [5, 10], "window": [-3, 3],
         "orlicz": [{"variant": "power", "p": 2, "lambda": 1}]}
# A valid configuration with one part replaced, or with root keys added or
# replaced.
configs = st.one_of(
    descriptors("family").map(lambda phi: {"phi": phi}),
    descriptors("kind").map(lambda psi: {"psi": psi}),
    signals.map(lambda signal: {"signal": signal}),
    st.one_of(st.lists(descriptors("variant"), max_size=2), values).map(
        lambda orlicz: {"orlicz": orlicz}),
    st.dictionaries(st.sampled_from(ROOT_KEYS), values, min_size=1, max_size=2),
).map(lambda part: {**VALID, **part})


def test_every_config_resolves_or_is_a_config_error():
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(configs)
    def resolves_or_refuses(raw):
        try:
            cli.Experiment(raw)
            outcomes.add("resolved")
        except cli.ConfigError:
            outcomes.add("refused")

    resolves_or_refuses()
    assert outcomes == {"resolved", "refused"}
