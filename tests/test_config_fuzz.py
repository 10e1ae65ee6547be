"""Property tests of the command surface: every descriptor, however
malformed, either resolves into an :class:`~durrmeyer.cli.Experiment` or is
refused with :class:`~durrmeyer.cli.ConfigError` (exit 2), never with any
other exception; and every command on a tiny configuration exits 0, 2, 3 or
4, with no exception escaping ``main``, and every JSON report it writes is
strict JSON."""

import json
import tempfile
from pathlib import Path

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


# Tiny configurations for the four commands: grids of at most 20 points,
# scales up to 40, and a decaying psi only beside a compact phi and at
# quad_tol and series_tol 1e-3, so that an example takes milliseconds. Most
# parts are valid; a few lie just past a boundary (order 0, an empty window,
# a p or alpha below 1). Each choice lists its valid values first, which
# hypothesis draws most often.
kernels = st.one_of(
    st.builds(lambda n: {"family": "bspline", "n": n}, st.sampled_from([3, 1, 2, 4, 0])),
    st.just({"family": "fejer"}),
    st.sampled_from([(-0.5, 1, 1), (0, 1, 1), (-1, 2, 0.5), (0, 0.5, 2), (0, 0, 1)]).map(
        lambda w: {"family": "window", "lo": w[0], "hi": w[0] + w[1], "weight": w[2]}),
)
psis = st.one_of(
    st.builds(lambda lo, width: {"kind": "window", "lo": lo, "hi": lo + width},
              st.sampled_from([-0.5, 0]), st.sampled_from([1, 0.5, 0])),
    kernels.map(lambda kernel: {"kind": "general", "kernel": kernel}),
    st.just({"kind": "pointmass"}),
)
gauges = st.one_of(
    st.builds(lambda p: {"variant": "power", "p": p}, st.sampled_from([2, 1, 3, 0.5])),
    st.just({"variant": "zygmund", "alpha": 1, "beta": 1}),
    st.builds(lambda a: {"variant": "exponential", "alpha": a}, st.sampled_from([1, 2, 0.1])),
).flatmap(lambda gauge: st.sampled_from([0.5, 1, 2]).map(lambda lam: {**gauge, "lambda": lam}))


def decays(kernel):
    return kernel.get("family") == "fejer"


@st.composite
def command_configs(draw):
    phi = draw(kernels)
    psi = draw(psis.filter(lambda psi: not (decays(phi) and decays(psi.get("kernel", {})))))
    decaying = decays(psi.get("kernel", {}))
    lo = draw(st.sampled_from([-3.0, -1.0, -0.25, 0.5]))
    width = draw(st.sampled_from([2.0, 1.0, 0.5, 0.0]))
    config = {
        "phi": phi,
        "psi": psi,
        "signal": draw(st.one_of(
            st.sampled_from(["runge", "box", "piecewise_rational", "identity"]),
            st.builds(lambda v: {"name": "constant", "value": v},
                      st.sampled_from([0, 1, -3, 1.3e154])))),
        "w_list": sorted(draw(st.sets(st.sampled_from([0.5, 1, 2.5, 5, 10, 40]),
                                      min_size=1, max_size=3))),
        "window": [lo, lo + width],
        "grid_step": max(width, 1.0) / draw(st.integers(1, 19)),
        "orlicz": draw(st.lists(gauges, min_size=1, max_size=2) | st.just([])),
        "tolerances": {
            "series_tol": draw(st.sampled_from([1e-3] if decaying else [1e-3, 1e-4])),
            "quad_tol": draw(st.sampled_from([1e-3] if decaying else [1e-3, 1e-6, 1e-9])),
            "modular_tol": draw(st.sampled_from([1e-3, 1e-6])),
        },
    }
    command = draw(st.sampled_from(["orlicz", "converge", "reconstruct", "kernel-check"]))
    flags = []
    if command == "reconstruct" and draw(st.booleans()):
        flags = ["--at", repr(draw(st.sampled_from([-0.3, 0.0, 1.0])))]
    return command, config, flags


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def test_every_command_exits_with_a_documented_code():
    outcomes = set()

    # 100 examples: with the fourth constant in the draw, the first 60 no
    # longer run kernel-check to the end.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(command_configs())
    def exits_with_a_code(case):
        command, config, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            code = cli.main([command, "--config", str(path), *flags,
                             "--out", str(Path(tmp) / "out")])
            for report in (Path(tmp) / "out").glob("*.json"):
                json.loads(report.read_text(), parse_constant=_refuse_constant)
        assert code in {0, 2, 3, 4}
        outcomes.add((command, code))

    exits_with_a_code()
    # Each command ran to the end at least once, and a refusal was seen.
    assert {command for command, code in outcomes if code == 0} == {
        "kernel-check", "reconstruct", "converge", "orlicz"}
    assert 2 in {code for _, code in outcomes}
