import json
import math

import pytest

from durrmeyer.cli import main


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
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


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
        {"phi": {"family": "bspline", "n": 2.7}},
    ])
    def test_bad_fields_exit_2(self, tmp_path, overrides, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert main(["converge", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_piecewise_literal_signal(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, signal={"piecewise": [[-1, 0, 2.0], [0, 1, 1.0]]},
                     w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 0


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


class TestFailurePaths:
    def test_unreachable_convolution_tolerance_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # A slowly decaying sample kernel cannot certify the default 1e-9
        # quadrature tail at any affordable cutoff.
        write_config(cfg, psi={"kind": "general", "kernel": {"family": "fejer"}},
                     w_list=[5])
        assert main(["reconstruct", "--config", str(cfg)]) == 4
        assert "evaluation failed" in capsys.readouterr().err

    def test_invalid_thread_env_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5])
        monkeypatch.setenv("DURRMEYER_THREADS", "many")
        assert main(["reconstruct", "--config", str(cfg)]) == 2


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, w_list=[5])
        monkeypatch.setenv("DURRMEYER_THREADS", "1")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["converge", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["converge", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("converge.csv",):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
