import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import durrmeyer
from durrmeyer import analysis as A
from durrmeyer import cli
from durrmeyer import kernels as K
from durrmeyer import operators as O
from durrmeyer import orlicz as X
from durrmeyer import signals as S
from durrmeyer.cli import main
from durrmeyer.quadrature import integrate


def write_config(path, **overrides):
    config = {
        "phi": {"family": "bspline", "n": 3},
        "psi": {"kind": "window", "lo": 0, "hi": 1, "weight": 1},
        "signal": "runge",
        "w_list": [5, 10],
        "window": [-3, 3],
        "grid_step": 0.01,
        "orlicz": [{"variant": "power", "p": 2, "lambda": 1}],
        "output": {"path": str(path.parent / "out")},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def read_csv(path):
    with open(path, newline="") as f:
        header, *lines = list(csv.reader(f))
    return header, [dict(zip(header, line)) for line in lines]


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def read_strict_json(path):
    """The JSON report at ``path``, refusing the non-standard NaN and
    Infinity tokens."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


class TestConfigHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["converge", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["converge", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"phi": {"family": "mystery"}},
        {"psi": {"kind": "mystery"}},
        {"signal": "no-such-signal"},
        {"w_list": []},
        {"w_list": [10, 5]},
        {"window": [3, -3]},
        {"grid_step": -0.5},
        {"orlicz": [{"variant": "power", "p": 2, "lambda": 0}]},
        {"w_list": [math.nan]},
        {"grid_step": math.nan},
        {"window": [0, math.inf]},
        {"tolerances": {"series_tol": True}},
        {"tolerances": {"series_tolerance": 1e-6}},
        {"tolerances": {"series_tol": 0}},
        {"tolerances": {"modular_tol": -1}},
        {"phi": {"family": "bspline", "n": 2.7}},
        {"psi": {"kind": "window", "lo": 0, "hi": math.inf}},
        {"psi": {"kind": "window", "lo": -math.inf, "hi": 1}},
        {"psi": {"kind": "window", "lo": 0, "hi": 1, "weight": math.inf}},
        {"psi": {"kind": "window", "lo": 0, "hi": 1, "weight": math.nan}},
        {"phi": {"family": "window", "lo": 0, "hi": math.inf}},
        {"phi": {"family": "window", "lo": 0, "hi": 1, "weight": math.inf}},
        {"psi": {"kind": "general", "kernel": {"family": "window", "lo": math.nan, "hi": 1}}},
        {"psi": {"kind": "general", "kernel": {"family": "bspline", "n": 2}},
         "tolerances": {"quad_tol": math.inf}},
        {"signal": {"name": "constant", "value": math.nan}},
        {"signal": {"piecewise": [[0, 1, math.nan]]}},
        {"orlicz": [{"variant": "power", "p": math.nan, "lambda": 1}]},
        {"output": {"path": 5}},
        {"output": "results"},
        # A key that its descriptor's kind never reads.
        {"psi": {"kind": "pointmass", "weight": 2}},
        {"psi": {"kind": "window", "lo": 0, "hi": 1, "wieght": 2}},
        {"psi": {"kind": "general", "kernel": {"family": "bspline", "n": 2}, "lo": 0}},
        {"phi": {"family": "bspline", "n": 3, "degree": 2}},
        {"phi": {"family": "fejer", "n": 2}},
        {"phi": {"family": "window", "lo": 0, "hi": 1, "wieght": 2}},
        {"orlicz": [{"variant": "power", "p": 2, "alpha": 1}]},
        {"orlicz": [{"variant": "zygmund", "alpha": 1, "beta": 1, "p": 2}]},
        {"orlicz": [{"variant": "exponential", "alpha": 1, "lamda": 2}]},
        {"orlicz": [{"variant": "mystery", "p": 2}]},
        # Grids whose point count is not a finite number.
        {"grid_step": 1e-320},
        {"window": [-1e308, 1e308]},
        # Unknown root and signal keys, a boolean gauge parameter, and an
        # object where a number belongs.
        {"grid_stp": 0.5},
        {"signal": {"name": "runge", "valu": 3}},
        {"orlicz": [{"variant": "power", "p": True}]},
        {"phi": {"family": "bspline", "n": {}}},
        {"output": {"path": "results", "paht": "elsewhere"}},
        # A signal value that is not a number, or beside a signal without one.
        {"signal": {"name": "constant", "value": True}},
        {"signal": {"name": "constant", "value": "2"}},
        {"signal": {"name": "runge", "value": 3}},
        {"signal": {"piecewise": [["0", "1", True]]}},
    ])
    def test_bad_fields_exit_2(self, tmp_path, overrides, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert main(["converge", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        # --out replaces a valid output path; it does not excuse a bad file.
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()

    @pytest.mark.parametrize("psi", [
        {"kind": "general", "kernel": {"family": "bspline", "n": 2}, "quad_tol": 1e-7},
        {"kind": "window", "lo": 0, "hi": 1, "quad_tol": 1e-7},
    ], ids=["general", "window"])
    def test_a_psi_quad_tol_points_to_tolerances(self, tmp_path, psi, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, psi=psi)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 2
        assert "tolerances.quad_tol" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()

    def test_each_kind_resolves_with_its_constructor(self):
        exp = cli.Experiment({
            "phi": {"family": "bspline", "n": 3.0},
            "psi": {"kind": "window", "lo": 0, "hi": 1},
            "signal": {"name": "constant", "value": 2},
            "w_list": [5], "window": [-1, 1],
            "orlicz": [{"variant": "power", "p": 2},
                       {"variant": "zygmund", "alpha": 1, "beta": 2, "lambda": 0.5},
                       {"variant": "exponential", "alpha": 1}],
        })
        assert exp.phi.name == "bspline3"
        assert repr(exp.psi) == "Window(lo=0.0, hi=1.0, weight=1.0)"
        assert exp.signal.name == "constant(2)"
        assert [(eta, lam) for eta, lam in exp.orlicz] == [
            (X.PowerFunction(2.0), 1.0), (X.ZygmundFunction(1.0, 2.0), 0.5),
            (X.ExponentialFunction(1.0), 1.0)]
        general = cli.Experiment({**exp.raw, "psi": {
            "kind": "general", "kernel": {"family": "window", "lo": -0.5, "hi": 0.5}}})
        assert repr(general.psi) == "Convolution(kernel=window[-0.5..0.5)*1)"

    def test_non_object_root_exits_2_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["converge", "--config", str(cfg), "--w", "5",
                     "--out", str(tmp_path / "flag")]) == 2
        assert "config error" in capsys.readouterr().err
        # Built directly, as the benchmark does, an Experiment refuses it too.
        with pytest.raises(cli.ConfigError, match="root must be a JSON object"):
            cli.Experiment([])

    def test_flag_overrides_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "flagged"
        assert main(["reconstruct", "--config", str(cfg), "--w", "5",
                     "--grid-step", "0.1", "--window=-1,1",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "reconstruct_w5.csv")
        assert len(rows) == 21
        echo = json.loads((out / "reconstruct.json").read_text())["config_echo"]
        assert echo["w_list"] == [5.0]
        assert echo["window"] == [-1.0, 1.0]

    def test_malformed_window_flag_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["converge", "--config", str(cfg), "--window", "oops"]) == 2

    @pytest.mark.parametrize("command, overrides, flags", [
        ("converge", {}, ["--w", "5,x"]),
        ("converge", {}, ["--window=a,b"]),
        ("orlicz", {"orlicz": []}, []),
    ], ids=["w-flag", "window-flag", "no-gauges"])
    def test_each_refusal_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                     overrides, flags):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "flag"
        assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kernel-check", "reconstruct", "converge", "orlicz"])
    def test_oversized_grid_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                    command):
        # The cap is lowered, so no large grid is ever built: [-3, 3] at 0.5
        # has 13 points, at 0.01 it has 601.
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 13)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, grid_step=0.5)
        out = tmp_path / "flag"
        assert main([command, "--config", str(cfg), "--grid-step", "0.01",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "601 grid points" in err
        assert not out.exists()
        write_config(cfg, grid_step=0.4)  # 16 points
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "16 grid points" in capsys.readouterr().err
        assert not out.exists()

    def test_lattice_rows_beyond_the_cap_exit_4_before_any_output(self, tmp_path, monkeypatch,
                                                                  capsys):
        # kernel-check sums Fejer's shifts out to radius 10^4: rows of
        # 20,001 shifts, here beyond a lowered cap.
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 20_000)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "fejer"})
        out = tmp_path / "out"
        assert main(["kernel-check", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "evaluation failed" in err and "20,001 shifts; at most 20,000" in err
        assert not out.exists()
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 20_001)
        assert main(["kernel-check", "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / "kernel_check.csv").exists()

    def test_series_rows_beyond_the_cap_exit_4_before_any_output(self, tmp_path, monkeypatch,
                                                                 capsys):
        # Fejer phi on a constant at series_tol 1e-4 takes radius 4096: rows
        # of 8,193 shifts, here beyond a lowered cap.
        computed = []
        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample",
                            lambda evaluator, ks: computed.append(ks) or np.ones(ks.size))
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 8_192)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "fejer"}, psi={"kind": "pointmass"},
                     signal={"name": "constant", "value": 1}, w_list=[5], window=[-1, 1],
                     grid_step=0.5, tolerances={"series_tol": 1e-4})
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "evaluation failed" in err and "8,193 shifts; at most 8,192" in err
        assert not out.exists() and computed == []
        monkeypatch.setattr(K, "_MAX_ROW_SHIFTS", 8_193)
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out / "reconstruct_w5.csv")[1]) == 5

    def test_a_sample_store_beyond_the_cap_exits_4_before_any_output(self, tmp_path,
                                                                     monkeypatch, capsys):
        # At w = 1000 the 13 points of [-3, 3] read samples over about 6,000
        # lattice indices, here beyond a lowered cap.
        computed = []
        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample",
                            lambda evaluator, ks: computed.append(ks) or np.ones(ks.size))
        monkeypatch.setattr(O, "_MAX_SPAN", 1_000)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[1000], grid_step=0.5)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "evaluation failed" in err and "lattice indices; at most 1,000" in err
        assert not out.exists() and computed == []
        monkeypatch.setattr(O, "_MAX_SPAN", 10_000)
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out / "reconstruct_w1000.csv")[1]) == 13

    def test_grid_at_the_cap_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 13)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, grid_step=0.5, w_list=[5])
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out / "reconstruct_w5.csv")[1]) == 13


class TestKernelCheck:
    def test_spline_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["kernel-check", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "kernel_check.csv")
        phi_row = next(r for r in rows if r["role"] == "phi")
        assert float(phi_row["pou_residual"]) <= 1e-12
        assert float(phi_row["poisson_deviation"]) == 0.0
        assert float(phi_row["M0"]) == 1.0
        assert float(phi_row["Mt1"]) == pytest.approx(0.40625, abs=1e-9)
        psi_row = next(r for r in rows if r["role"] == "psi")
        assert float(psi_row["mt1"]) == pytest.approx(0.5, abs=1e-9)

    def test_a_non_finite_report_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # The moments of this window are infinite, their errors NaN.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "window", "lo": 1.5, "hi": 2.5, "weight": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["kernel-check", "--config", str(cfg)]) == 4
        assert "not JSON compliant" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_an_overflowing_moment_warns_of_nothing(self, tmp_path, capsys):
        # The lattice sums and moment integrands of this window pass the
        # float range: they read inf quietly, and the report is refused.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "window", "lo": 1.5, "hi": 2.5, "weight": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernel-check", "--config", str(cfg)]) == 4
        assert "not JSON compliant" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_decaying_kernel_divergence_exits_3_but_writes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "fejer"})
        assert main(["kernel-check", "--config", str(cfg)]) == 3
        header, rows = read_csv(tmp_path / "out" / "kernel_check.csv")
        phi_row = next(r for r in rows if r["role"] == "phi")
        assert phi_row["M1"] == "divergent"
        assert float(phi_row["pou_residual"]) <= 1e-4


class TestReconstruct:
    def test_grid_row_count_and_header(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "reconstruct_w5.csv")
        assert header == ["x", "signal", "reconstruction"]
        assert len(rows) == 601

    def test_constant_reconstruction_is_flat(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal={"name": "constant", "value": 1.0}, w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "reconstruct_w5.csv")
        assert all(abs(float(r["reconstruction"]) - 1.0) <= 1e-10 for r in rows)

    def test_large_literal_scales_the_unit_reconstruction(self, tmp_path):
        # Samples of 1e9 round above quad_tol 1e-10, so their quadrature
        # must stop at its rounding floor.
        reconstructions = {}
        for value in (1.0, 1e9):
            cfg = tmp_path / "cfg.json"
            out = tmp_path / f"out{value:g}"
            write_config(cfg, signal={"piecewise": [[-1, 1, value]]},
                         psi={"kind": "general", "kernel": {"family": "bspline", "n": 2}},
                         w_list=[5, 40], window=[-2, 2], grid_step=0.05, orlicz=[])
            assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
            reconstructions[value] = [
                np.array([float(r["reconstruction"])
                          for r in read_csv(out / f"reconstruct_w{w}.csv")[1]])
                for w in (5, 40)]
        for unit, large in zip(reconstructions[1.0], reconstructions[1e9]):
            assert np.allclose(large, 1e9 * unit, rtol=1e-15, atol=0)

    def test_box_reconstruction_respects_sup_bound(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2},
                     w_list=[10])
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "reconstruct_w10.csv")
        values = [float(r["reconstruction"]) for r in rows]
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values)

    def test_single_point_mode(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["reconstruct", "--config", str(cfg), "--at", "0.5"]) == 0
        payload = json.loads((tmp_path / "out" / "reconstruct.json").read_text())
        assert payload["x"] == 0.5
        assert payload["signal"] == pytest.approx(0.8)
        assert set(payload["reconstruction"]) == {"w=5", "w=10"}

    @pytest.mark.parametrize("overrides", [
        {},
        {"phi": {"family": "fejer"}, "tolerances": {"series_tol": 1e-4}},
    ], ids=["bspline3", "fejer"])
    def test_single_point_equals_the_grid_pass_bitwise(self, tmp_path, overrides):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, window=[-2, 2], orlicz=[], **overrides)
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        grid = {w: read_csv(tmp_path / "out" / f"reconstruct_w{w}.csv")[1] for w in (5, 10)}
        for target in (0.5, -1.37, 0.0):
            index = min(range(len(grid[5])), key=lambda i: abs(float(grid[5][i]["x"]) - target))
            x = grid[5][index]["x"]  # printed with %.17g, so it reads back exactly
            assert main(["reconstruct", "--config", str(cfg), "--at", x]) == 0
            payload = json.loads((tmp_path / "out" / "reconstruct.json").read_text())
            assert payload["x"] == float(x)
            for w in (5, 10):
                assert grid[w][index]["x"] == x
                expected = float(grid[w][index]["reconstruction"])
                assert payload["reconstruction"][f"w={w}"] == expected

    def test_single_point_must_be_finite(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["reconstruct", "--config", str(cfg), "--at", "nan"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_piecewise_literal_signal(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal={"piecewise": [[-1, 0, 2.0], [0, 1, 1.0]]},
                     w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 0

    def test_window_psi_and_its_general_kernel_write_the_same_bytes(self, tmp_path):
        # A window samples through its kernel, so at the same tolerance the
        # two descriptions give the same series.
        general = {"kind": "general", "kernel": {"family": "window", "lo": 0, "hi": 1}}
        outputs = []
        for name, psi in (("window", {"kind": "window", "lo": 0, "hi": 1}), ("general", general)):
            cfg = tmp_path / f"{name}.json"
            write_config(cfg, psi=psi, signal="piecewise_rational",
                         tolerances={"quad_tol": 1e-10})
            out = tmp_path / name
            assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append([(out / f"reconstruct_w{w}.csv").read_bytes() for w in (5, 10)])
        assert outputs[0] == outputs[1]

    def test_fejer_at_default_tolerances_matches_an_independent_lattice_sum(self, tmp_path):
        # Without the runge envelope the sup-norm radius for series_tol 1e-9
        # passes 2^26 and the command exits 4.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "fejer"}, window=[-1, 1], grid_step=0.25)
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        radius = 1 << 15
        for w in (5.0, 10.0):
            _, rows = read_csv(tmp_path / "out" / f"reconstruct_w{w:g}.csv")
            assert len(rows) == 9
            for row in rows:
                wx = w * float(row["x"])
                ks = np.arange(math.ceil(wx - radius), math.floor(wx + radius) + 1, dtype=float)
                # Unit-window runge means: w (atan((k+1)/w) - atan(k/w)).
                means = w * np.arctan((1.0 / w) / (1.0 + ks * (ks + 1.0) / (w * w)))
                reference = math.fsum((0.5 * np.sinc(0.5 * (wx - ks)) ** 2 * means).tolist())
                assert abs(float(row["reconstruction"]) - reference) <= 1e-9 + 1e-10


class TestConverge:
    def test_runge_table(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["converge", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "converge.csv")
        assert rows[0]["eoc_from_previous"] == ""
        assert float(rows[1]["eoc_from_previous"]) == pytest.approx(1.0, abs=0.15)
        assert float(rows[1]["sup_error"]) < float(rows[0]["sup_error"])
        assert float(rows[0]["bound_margin"]) > 0
        col = "modular[power(2)]@lambda=1"
        assert float(rows[1][col]) < float(rows[0][col])
        payload = json.loads((tmp_path / "out" / "converge.json").read_text())
        assert payload["quantitative_bound"][0]["holds"] is True
        assert payload["reports"][0]["eoc_source"] == "sup_error"

    def test_no_nan_cells(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2})
        assert main(["converge", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "converge.csv").read_text()
        assert "nan" not in text.lower()

    def test_one_grid_pass_per_scale_and_one_constant(self, tmp_path, monkeypatch):
        passes = []
        constants = []
        on_grid = O.SeriesEvaluator.on_grid
        constant = A.quantitative_constant

        def counting_on_grid(evaluator, points):
            passes.append(evaluator.spec.w)
            return on_grid(evaluator, points)

        def counting_constant(*args):
            constants.append(args)
            return constant(*args)

        monkeypatch.setattr(O.SeriesEvaluator, "on_grid", counting_on_grid)
        monkeypatch.setattr(A, "quantitative_constant", counting_constant)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5, 10],
                     orlicz=[{"variant": "power", "p": 2, "lambda": 1},
                             {"variant": "zygmund", "alpha": 1, "beta": 1, "lambda": 0.5}])
        assert S.builtin_signal("runge").lipschitz_constant is not None
        assert main(["converge", "--config", str(cfg)]) == 0
        assert passes == [5.0, 10.0]
        assert len(constants) == 1
        _, rows = read_csv(tmp_path / "out" / "converge.csv")
        payload = json.loads((tmp_path / "out" / "converge.json").read_text())
        zygmund = [row["modular_errors"]["zygmund(1,1)"]
                   for row in payload["reports"][0]["rows"]]
        assert [float(row["modular[zygmund(1,1)]@lambda=0.5"]) for row in rows] == zygmund
        assert [float(row["bound"]) for row in rows] == [
            check["bound"] for check in payload["quantitative_bound"]]

    def test_report_echoes_the_configured_modular_tol_without_gauges(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5], orlicz=[], tolerances={"modular_tol": 1e-5})
        assert main(["converge", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "converge.json").read_text())
        assert payload["config_echo"]["tolerances"]["modular_tol"] == 1e-5
        assert payload["reports"][0]["config_echo"]["modular_tol"] == 1e-5


class TestOrliczCommand:
    def test_inequality_table(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2},
                     w_list=[5])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "orlicz.csv")
        assert rows[0]["holds"] == "true"
        assert float(rows[0]["lhs"]) <= float(rows[0]["rhs"]) + 1e-8

    def test_point_mass_psi_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, psi={"kind": "pointmass"})
        assert main(["orlicz", "--config", str(cfg)]) == 2

    def test_modulars_use_the_configured_modular_tol(self, tmp_path, monkeypatch):
        tols = []

        def recording(*args, tol, **kwargs):
            tols.append(tol)
            return integrate(*args, tol=tol, **kwargs)

        monkeypatch.setattr(X, "integrate", recording)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="piecewise_rational", phi={"family": "bspline", "n": 2},
                     w_list=[5, 10], tolerances={"modular_tol": 1e-7})
        assert main(["orlicz", "--config", str(cfg)]) == 0
        # One quadrature of the majorants, and one of every scale's modulars.
        assert tols == [1e-7] * 2
        payload = json.loads((tmp_path / "out" / "orlicz.json").read_text())
        assert payload["config_echo"]["tolerances"]["modular_tol"] == 1e-7

    def test_cuts_see_each_distinct_cell_once_per_scale(self, tmp_path, monkeypatch):
        # The gauge copies of one scale pick the same cells, and the series
        # gives the cuts of each distinct one once. On the two orlicz
        # configs and the two Luxemburg norms of the orlicz_matrix benchmark
        # that is 20 cells; one quadrature per copy handed it 70.
        given = []
        cuts = O.SeriesEvaluator.cuts

        def recording(self, lo, hi):
            given.append(list(zip(lo.tolist(), hi.tolist())))
            return cuts(self, lo, hi)

        monkeypatch.setattr(O.SeriesEvaluator, "cuts", recording)
        gauges = [{"variant": "power", "p": 1}, {"variant": "power", "p": 2},
                  {"variant": "zygmund", "alpha": 1, "beta": 1}]
        for signal, lambdas in (("box", (0.25, 0.5, 1.0)), ("piecewise_rational", (0.5,))):
            cfg = tmp_path / f"{signal}.json"
            write_config(cfg, signal=signal, phi={"family": "bspline", "n": 2},
                         w_list=[5, 10], window=[-8, 8],
                         orlicz=[dict(gauge, **{"lambda": lam})
                                 for gauge in gauges for lam in lambdas])
            assert main(["orlicz", "--config", str(cfg), "--out", str(tmp_path / signal)]) == 0
        for w in (5.0, 10.0):
            spec = O.OperatorSpec(K.bspline(2), O.Window(0.0, 1.0, 1.0), w)
            X.luxemburg_norm(X.PowerFunction(2), O.SeriesEvaluator(spec, S.builtin_signal("box")),
                             (-8, 8))
        assert all(len(set(cells)) == len(cells) for cells in given)
        assert sum(map(len, given)) == 20

    def test_large_constant_is_computed(self, tmp_path):
        # Its modular 2e10 rounds at about 4e-6, above modular_tol 1e-6, so
        # its quadrature must stop at its rounding floor.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal={"name": "constant", "value": 1e5},
                     phi={"family": "bspline", "n": 2}, w_list=[5], window=[-1, 1])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        _, [row] = read_csv(tmp_path / "out" / "orlicz.csv")
        assert row["holds"] == "true"
        assert float(row["lhs"]) == pytest.approx(2e10, rel=1e-15)
        assert float(row["rhs"]) == pytest.approx(2e10, rel=1e-15)

    def test_large_exponential_modular_beside_a_power_one_is_computed(self, tmp_path):
        # At 1e-9 this exponential cell's |K-G| estimate stuck at 4.3e-8 with
        # 20,000 cells, and the command exited 4.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2}, w_list=[5],
                     window=[-8, 8],
                     orlicz=[{"variant": "exponential", "alpha": 1, "lambda": 20},
                             {"variant": "power", "p": 2, "lambda": 1}])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "orlicz.json").read_text())["rows"]
        # Knot-exact values: the series is linear on each knot cell.
        assert rows[0]["lhs"] == pytest.approx(883000653.4258187, rel=1e-14)
        assert rows[1]["lhs"] == pytest.approx(1.9333333333333333, rel=1e-14)
        assert [row["holds"] for row in rows] == [True, True]

    def test_knot_partition_over_the_cap_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(O, "_MAX_CUTS", 10)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="piecewise_rational", phi={"family": "bspline", "n": 2},
                     w_list=[5])
        assert main(["orlicz", "--config", str(cfg)]) == 4
        assert "at most 10 are allowed" in capsys.readouterr().err

    def test_overflow_marked_per_cell(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="piecewise_rational",
                     phi={"family": "bspline", "n": 2}, w_list=[5],
                     orlicz=[{"variant": "exponential", "alpha": 1, "lambda": 20}])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "orlicz.csv")
        assert rows[0]["lhs"] == "overflow"
        payload = json.loads((tmp_path / "out" / "orlicz.json").read_text())
        assert payload["rows"][0]["lhs"] == "overflow"

    def test_fejer_general_psi_writes_its_report(self, tmp_path):
        # A numpy scalar in the ratio would make "holds" a numpy bool, which
        # the JSON writer cannot encode.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, psi={"kind": "general", "kernel": {"family": "fejer"}},
                     w_list=[5], window=[-2, 2], tolerances={"quad_tol": 1e-6})
        assert main(["orlicz", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "orlicz.json").read_text())
        assert [row["ratio"] for row in payload["rows"]] == [1.0]
        assert payload["rows"][0]["holds"] in (True, False)

    def test_each_scale_computes_each_sample_once(self, tmp_path, monkeypatch):
        computed = {}
        original = O.SeriesEvaluator._compute_sample

        def counting(self, ks):
            computed.setdefault(self.spec.w, []).extend(ks.tolist())
            return original(self, ks)

        monkeypatch.setattr(O.SeriesEvaluator, "_compute_sample", counting)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2},
                     w_list=[5, 10], window=[-8, 8],
                     orlicz=[{"variant": "power", "p": 1, "lambda": 0.25},
                             {"variant": "power", "p": 2, "lambda": 1},
                             {"variant": "zygmund", "alpha": 1, "beta": 1, "lambda": 0.5}])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        assert sorted(computed) == [5.0, 10.0]
        for ks in computed.values():
            assert ks and len(ks) == len(set(ks))

    def test_window_cells_match_verify_modular_inequality(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", phi={"family": "bspline", "n": 2},
                     psi={"kind": "window", "lo": -0.5, "hi": 0.5, "weight": 1},
                     w_list=[5, 10], window=[-8, 8],
                     orlicz=[{"variant": "power", "p": 2, "lambda": 1},
                             {"variant": "zygmund", "alpha": 1, "beta": 1, "lambda": 0.5}])
        assert main(["orlicz", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "orlicz.json").read_text())["rows"]
        gauges = {"power(2)": X.PowerFunction(2), "zygmund(1,1)": X.ZygmundFunction(1, 1)}
        assert len(rows) == 4
        for row in rows:
            ref = A.verify_modular_inequality(
                K.bspline(2), O.Window(-0.5, 0.5, 1.0).kernel, S.builtin_signal("box"),
                gauges[row["gauge"]], row["lambda"], (-8, 8), row["w"],
            )
            assert row["lhs"] == pytest.approx(ref.lhs, rel=1e-12)
            assert row["rhs"] == pytest.approx(ref.rhs, rel=1e-12)

    def test_overflow_leaves_its_neighbour_unchanged(self, tmp_path):
        power = {"variant": "power", "p": 2, "lambda": 1}
        overflow = {"variant": "exponential", "alpha": 1, "lambda": 20}
        lines = {}
        for name, entries in (("alone", [power]), ("beside", [overflow, power])):
            cfg = tmp_path / f"{name}.json"
            write_config(cfg, signal="piecewise_rational",
                         phi={"family": "bspline", "n": 2}, w_list=[5], orlicz=entries)
            out = tmp_path / name
            assert main(["orlicz", "--config", str(cfg), "--out", str(out)]) == 0
            lines[name] = (out / "orlicz.csv").read_text().splitlines()
        assert lines["beside"][1].split(",")[3] == "overflow"
        assert lines["beside"][2] == lines["alone"][1]

    @pytest.mark.parametrize("psi, value", [
        # power(2) of 1.3e154 is finite at every node, but its integral over
        # [-1, 1] is not.
        ({"kind": "window", "lo": 0, "hi": 1, "weight": 1}, 1.3e154),
        # The modular is finite, and the majorant, twice it, is not.
        ({"kind": "window", "lo": 0, "hi": 0.5, "weight": 1}, 1.341e154),
    ], ids=["integral", "majorant"])
    def test_an_infinite_value_is_an_overflow(self, tmp_path, psi, value):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "bspline", "n": 2}, psi=psi, w_list=[5],
                     window=[-1, 1], signal={"name": "constant", "value": value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["orlicz", "--config", str(cfg)]) == 0
        [row] = read_strict_json(tmp_path / "out" / "orlicz.json")["rows"]
        assert (row["lhs"], row["rhs"], row["ratio"], row["holds"]) == (
            "overflow", "overflow", None, None)
        _, rows = read_csv(tmp_path / "out" / "orlicz.csv")
        assert (rows[0]["lhs"], rows[0]["rhs"]) == ("overflow", "overflow")


GENERAL_PSI = {"kind": "general", "kernel": {"family": "bspline", "n": 2}}


class TestConfiguredTolerances:
    @pytest.mark.parametrize("command,phi,psi", [
        ("orlicz", {"family": "fejer"}, None),
        ("converge", {"family": "bspline", "n": 3}, None),
        ("orlicz", {"family": "bspline", "n": 2}, GENERAL_PSI),
        ("converge", {"family": "bspline", "n": 2}, GENERAL_PSI),
    ])
    def test_every_spec_carries_them(self, tmp_path, monkeypatch, command, phi, psi):
        specs = []
        validate = O.OperatorSpec.__post_init__

        def record(spec):
            specs.append(spec)
            validate(spec)

        monkeypatch.setattr(O.OperatorSpec, "__post_init__", record)
        cfg = tmp_path / "cfg.json"
        overrides = {} if psi is None else {"psi": psi}
        quad_tol = 1e-10 if psi is None else 1e-7
        write_config(cfg, phi=phi, w_list=[5], window=[-2, 2],
                     orlicz=[{"variant": "power", "p": 1, "lambda": 1}],
                     tolerances={"series_tol": 1e-4, "pou_threshold": 2e-3,
                                 "quad_tol": quad_tol},
                     **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert specs
        assert ({(spec.series_tol, spec.quad_tol, spec.pou_threshold) for spec in specs}
                == {(1e-4, quad_tol, 2e-3)})

    @pytest.mark.parametrize("kernel, share", [
        ({"family": "bspline", "n": 2}, 1.0),
        ({"family": "fejer"}, 0.5),
    ], ids=["compact", "decaying"])
    def test_a_general_psi_samples_at_tolerances_quad_tol(self, tmp_path, monkeypatch,
                                                          kernel, share):
        # A decaying psi gives the other half of quad_tol to its tail.
        tols = []

        def recording(*args, **kwargs):
            tols.append(kwargs["tol"])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(O, "integrate", recording)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, psi={"kind": "general", "kernel": kernel}, w_list=[5, 10],
                     window=[-1, 1], grid_step=0.05, tolerances={"quad_tol": 1e-4})
        assert main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert set(tols) == {share * 1e-4 / 5, share * 1e-4 / 10}


class TestImports:
    def test_cli_loads_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(durrmeyer.__file__).parents[1]))
        code = ("import sys, durrmeyer.cli; "
                "print([name for name in sys.modules if name.startswith('scipy')])")
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        assert result.stdout.strip() == "[]"

    def test_commands_load_neither_numpy_ma_nor_scipy(self, tmp_path):
        # numpy.ma costs 12-15 ms to import; np.unique is one way to load it.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="box", w_list=[5], window=[-2, 2],
                     psi={"kind": "general", "kernel": {"family": "bspline", "n": 2}})
        env = dict(os.environ, PYTHONPATH=str(Path(durrmeyer.__file__).parents[1]))
        code = ("import sys; from durrmeyer.cli import main\n"
                "for command in ('kernel-check', 'reconstruct', 'converge', 'orlicz'):\n"
                f"    assert main([command, '--config', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]) == 0\n"
                "print([name for name in sys.modules if name == 'numpy.ma'"
                " or name.startswith(('numpy.ma.', 'scipy'))])")
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        assert result.stdout.strip() == "[]"

    def test_kernel_check_runs_without_scipy(self, tmp_path):
        # The package needs only numpy: scipy is made unimportable.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "fejer"},
                     psi={"kind": "general", "kernel": {"family": "bspline", "n": 2}})
        env = dict(os.environ, PYTHONPATH=str(Path(durrmeyer.__file__).parents[1]))
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from durrmeyer.cli import main\n"
                f"sys.exit(main(['kernel-check', '--config', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        # Fejer's first moments diverge, which is exit 3, not a crash.
        assert result.returncode == 3, result.stderr
        rows = read_csv(tmp_path / "out" / "kernel_check.csv")[1]
        assert [row["kernel"] for row in rows] == ["fejer", "bspline2"]

    def test_the_parser_is_built_once(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5], window=[-1, 1], grid_step=0.5)
        for command in ("reconstruct", "converge", "reconstruct"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestCsvQuoting:
    def test_every_row_reads_back_with_the_header_width(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5, 10],
                     orlicz=[{"variant": "zygmund", "alpha": 1, "beta": 1, "lambda": 0.5},
                             {"variant": "power", "p": 2, "lambda": 1}])
        for command in ("orlicz", "converge"):
            assert main([command, "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "orlicz.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert len(rows) == 4 and all(len(row) == len(header) for row in rows)
        assert [row[1] for row in rows[:2]] == ["zygmund(1,1)", "power(2)"]
        with open(out / "converge.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert "modular[zygmund(1,1)]@lambda=0.5" in header
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)


def csv_writer_bytes(header, rows):
    """What the csv module writes for every row through ``cli._fmt``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cli._fmt(cell) for cell in row] for row in rows)
    return buffer.getvalue().encode("ascii")


class TestCsvBytes:
    HEADER = ["x", "signal", "reconstruction"]

    def test_float_rows_match_the_csv_writer(self, tmp_path):
        rows = [(0.1, -0.0, math.nan), (math.inf, -math.inf, 5e-324),
                (1 / 3, 2.0**60, -1e300), [0.0, 1.0, 123456789.125]]
        path = tmp_path / "floats.csv"
        cli._write_csv(path, self.HEADER, rows)
        assert path.read_bytes() == csv_writer_bytes(self.HEADER, rows)

    def test_a_float_block_matches_the_csv_writer(self, tmp_path):
        cells = [-0.0, 5e-324, 1e308, 3.0, math.inf, -math.inf, math.nan, 0.1, -1 / 3]
        block = np.array([cells[i:] + cells[:i] for i in range(len(cells))])[:, :3]
        path = tmp_path / "block.csv"
        cli._write_csv(path, self.HEADER, block)
        assert path.read_bytes() == csv_writer_bytes(self.HEADER, block.tolist())
        cli._write_csv(path, self.HEADER, np.empty((0, 3)))
        assert path.read_bytes() == csv_writer_bytes(self.HEADER, [])

    def test_mixed_rows_match_the_csv_writer(self, tmp_path):
        rows = [("zygmund(1,1)", True, None), (3, -0.0, math.nan), (False, math.inf, "a\"b"),
                (np.float64(0.1), 1.0, 2.0), (0.5, 0.25), (0.5, 0.25, 0.125, 1.0),
                (1.5, 2, 2.5)]
        path = tmp_path / "mixed.csv"
        cli._write_csv(path, self.HEADER, rows)
        assert path.read_bytes() == csv_writer_bytes(self.HEADER, rows)


class TestFailurePaths:
    @pytest.mark.parametrize("command", ["orlicz", "converge"])
    def test_nan_modular_exits_4(self, tmp_path, monkeypatch, capsys, command):
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.4) & (x < 0.6), np.nan, 1.0)

        hole = S.Signal("nan-hole", evaluate, breakpoints=(0.4, 0.6), sup_norm=1.0)
        monkeypatch.setattr(cli, "_resolve_signal", lambda desc: hole)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "bspline", "n": 2}, w_list=[5], window=[-1, 2])
        assert main([command, "--config", str(cfg)]) == 4
        assert "power(2) at lambda=1 is NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [("reconstruct", 2), ("converge", 2),
                                               ("orlicz", 2), ("kernel-check", 0)])
    def test_a_phi_that_is_no_partition_of_unity_is_a_config_error(self, tmp_path, capsys,
                                                                   command, code):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi={"family": "window", "lo": 0.3, "hi": 1.3, "weight": 2},
                     w_list=[5])
        assert main([command, "--config", str(cfg)]) == code
        if code:
            assert "partition-of-unity check: residual 1 exceeds" in capsys.readouterr().err
        else:
            row = json.loads((tmp_path / "out" / "kernel_check.json").read_text())["rows"][0]
            assert (row["kernel"], row["pou_residual"]) == ("window[0.3..1.3)*2", 1.0)

    @pytest.mark.parametrize("phi, psi", [
        ({"family": "fejer"}, {"kind": "window", "lo": 0, "hi": 1, "weight": 1}),
        ({"family": "bspline", "n": 3}, {"kind": "general", "kernel": {"family": "fejer"}}),
    ], ids=["fejer-phi", "fejer-psi"])
    @pytest.mark.parametrize("command", ["reconstruct", "converge", "orlicz"])
    def test_a_decaying_kernel_refuses_a_signal_without_a_sup_norm(self, tmp_path, capsys,
                                                                   phi, psi, command):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi=phi, psi=psi, signal="identity", w_list=[5], window=[-1, 1],
                     grid_step=0.1, tolerances={"series_tol": 1e-3, "quad_tol": 1e-3})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: signal 'identity' declares no sup norm" in err
        assert not out.exists()

    def test_compact_kernels_reconstruct_a_signal_without_a_sup_norm(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal="identity", w_list=[5], window=[-1, 1], grid_step=0.1)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "reconstruct_w5.csv")[1]
        # The unit window shifts a linear signal by 1/(2w).
        assert all(abs(float(row["reconstruction"]) - float(row["x"]) - 0.1) < 1e-9
                   for row in rows)

    @pytest.mark.parametrize("phi, psi, tolerances", [
        ({"family": "bspline", "n": 3}, {"kind": "window", "lo": 0, "hi": 1}, {}),
        ({"family": "fejer"}, {"kind": "pointmass"}, {"series_tol": 1e-3}),
    ], ids=["bspline3/window", "fejer/pointmass"])
    def test_a_point_the_lattice_cannot_index_exits_4(self, tmp_path, capsys, phi, psi,
                                                      tolerances):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, phi=phi, psi=psi, tolerances=tolerances)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--at", "0.5", "--w", "1e17",
                     "--out", str(out)]) == 4
        assert "at w = 1e+17 the lattice indexes only finite points" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_convolution_tolerance_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # A slowly decaying sample kernel cannot certify half the default
        # quad_tol, 1e-10, as its tail at any affordable cutoff.
        write_config(cfg, psi={"kind": "general", "kernel": {"family": "fejer"}},
                     w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 4
        assert "evaluation failed" in capsys.readouterr().err


class TestDeterminism:
    def test_general_psi_reports_are_byte_identical_across_processes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5],
                     psi={"kind": "general", "kernel": {"family": "bspline", "n": 2}})
        env = dict(os.environ, PYTHONPATH=str(Path(durrmeyer.__file__).parents[1]))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "durrmeyer.cli", "kernel-check",
                            "--config", str(cfg), "--out", str(out)], env=env, check=True)
            outputs.append((out / "kernel_check.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert b"0x" not in outputs[0]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["converge", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["converge", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("converge.csv",):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
