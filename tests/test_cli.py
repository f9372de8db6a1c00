"""End-to-end tests for the command line interface.

Each test drives ``main`` in process against a small two-regime
configuration, then asserts on exit codes and on the artifacts written
to the output directory.  Reruns with a fixed seed must reproduce the
data artifacts byte for byte.
"""

import hashlib
import json
import shutil
import subprocess

import numpy as np
import pytest

from smjd.cli import main


def model_dict(mu=(0.08, 0.05), sigma=(0.2, 0.3), rate=1.0):
    return {
        "regimes": {
            "states": 2,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": rate}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": rate}},
            ],
        },
        "r": [0.05, 0.05],
        "mu": list(mu),
        "sigma": {"kind": "constant", "values": list(sigma)},
        "jump": {
            "eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0},
            "density": {"kind": "uniform"},
            "interval": [-0.5, 1.0],
            "n": 51,
        },
        "horizon": 0.5,
    }


def base_config(**overrides):
    cfg = {
        "model": model_dict(),
        "payoff": {"kind": "call", "K1": 100.0},
        "s0": 100.0,
        "x0": 0,
        "y0": 0.0,
        "seed": 7,
        "method": "ie",
        "grid": {"n_time": 8, "n_space": 101, "n_age": 0},
        "mc": {"n_paths": 400, "level": 0.99},
        "simulate": {"n_paths": 3, "n_record": 4},
        "hedge": {"n_paths": 40, "n_rebalance": 5},
        "xval": {"tolerance": 0.1, "mc_paths": 1500},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg, name="config.json"):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return p

    return _write


class TestCheck:
    def test_admissible_config_exits_zero(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["passed"] is True
        assert report["no_arbitrage"]["passed"] is True

    def test_inadmissible_tilt_exits_one(self, write_config, tmp_path):
        cfg = write_config(
            base_config(model=model_dict(mu=(0.9, 0.9), sigma=(0.1, 0.1)))
        )
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "check.json").read_text())
        assert report["passed"] is False
        assert report["no_arbitrage"]["worst_margin"] < 0.0

    def test_negative_age_exits_one_without_report(self, write_config, tmp_path):
        # a negative age would shrink the probed age range to nothing
        cfg = write_config(base_config(y0=-1.0))
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "check.json").exists()

    def test_missing_config_exits_three(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "absent.json")]) == 3

    def test_malformed_json_exits_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--config", str(bad)]) == 3

    def test_invalid_model_values_exit_one(self, write_config, tmp_path):
        broken = base_config()
        broken["model"]["sigma"]["values"] = [-0.2, 0.3]
        cfg = write_config(broken)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_model_file_reference_resolved_relative_to_config(
        self, write_config, tmp_path
    ):
        (tmp_path / "model.json").write_text(json.dumps(model_dict()))
        cfg = write_config(base_config(model="model.json"))
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "check.json").read_text())["passed"] is True

    def test_missing_model_file_exits_three_naming_path(
        self, write_config, tmp_path, capsys
    ):
        cfg = write_config(base_config(model="nowhere.json"))
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "nowhere.json" in capsys.readouterr().err


class TestIntegrals:
    def test_values_match_library(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["integrals", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "integrals.json").read_text())
        # uniform density on [-1/2, 1] with clamped identity jump size
        assert rep["int_eta"] == pytest.approx(0.375, rel=1e-6)
        assert rep["int_eta_sq"] == pytest.approx(0.375, rel=1e-6)
        assert rep["mass"] == pytest.approx(1.5, rel=1e-12)
        assert len(rep["per_regime"]) == 2
        assert rep["per_regime"][0]["tilt_min"] > 0.0


class TestSimulate:
    def test_writes_paths_and_summary(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted(out.glob("path_*.csv"))
        assert len(files) == 3
        first = files[0].read_text().splitlines()
        assert first[0] == "t,S,X,Y,event,z"
        assert first[1].startswith("0,100,0,0,grid")
        summary = json.loads((out / "simulate.json").read_text())
        assert summary["n_paths"] == 3
        assert summary["terminal"]["min"] > 0.0

    def test_rerun_is_byte_identical(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ["path_0000.csv", "path_0002.csv", "simulate.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_paths(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "path_0000.csv").read_bytes() != (
            out_b / "path_0000.csv"
        ).read_bytes()


class TestPrice:
    def test_grid_method_writes_surface_and_report(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "price.json").read_text())
        assert rep["method"] == "ie"
        assert 0.0 < rep["price"] < 100.0
        assert abs(rep["hedge"]) < 2.0
        header = (out / "surface.csv").read_text().splitlines()[0]
        assert header == "t,s,regime,y,price,xi"

    def test_fd_method_runs(self, write_config, tmp_path):
        cfg = write_config(base_config(method="fd"))
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "price.json").read_text())
        assert rep["method"] == "fd"
        assert 0.0 < rep["price"] < 100.0

    def test_grid_methods_agree_roughly(self, write_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["price", "--config", str(write_config(base_config())), "--out", str(out_a)])
        main(
            [
                "price",
                "--config",
                str(write_config(base_config(method="fd"), "c2.json")),
                "--out",
                str(out_b),
            ]
        )
        a = json.loads((out_a / "price.json").read_text())["price"]
        b = json.loads((out_b / "price.json").read_text())["price"]
        assert abs(a - b) <= 0.05 * a

    def test_mc_method_reports_interval(self, write_config, tmp_path):
        cfg = write_config(base_config(method="mc-q"))
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "price.json").read_text())
        est = rep["estimate"]
        assert est["ci_low"] < est["value"] < est["ci_high"]
        assert est["n_paths"] == 400

    def test_mc_measure_variants_agree(self, write_config, tmp_path):
        # Both estimators target the same price; with few paths they only
        # need to land within joint noise, and aliases must match exactly.
        vals = {}
        for method in ("mc-q", "mc-p", "mc", "mc-weighted"):
            cfg = write_config(base_config(method=method), f"{method}.json")
            out = tmp_path / method
            assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
            rep = json.loads((out / "price.json").read_text())
            vals[method] = rep["estimate"]
        assert vals["mc"]["value"] == vals["mc-q"]["value"]
        assert vals["mc-weighted"]["value"] == vals["mc-p"]["value"]
        joint = vals["mc-q"]["std_error"] + vals["mc-p"]["std_error"]
        assert abs(vals["mc-q"]["value"] - vals["mc-p"]["value"]) <= 4.0 * joint

    def test_mc_rerun_byte_identical_across_threads(self, write_config, tmp_path):
        cfg = write_config(base_config(method="mc-q"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(
            ["price", "--config", str(cfg), "--out", str(out_a), "--threads", "1"]
        ) == 0
        assert main(
            ["price", "--config", str(cfg), "--out", str(out_b), "--threads", "4"]
        ) == 0
        assert (out_a / "price.json").read_bytes() == (out_b / "price.json").read_bytes()

    def test_unknown_method_exits_one(self, write_config, tmp_path):
        cfg = write_config(base_config(method="tree"))
        assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"x0": 5},
            {"x0": -1},
            {"y0": -1.0},
            {"grid": {"n_time": None, "n_space": 101, "n_age": 0}},
            {"grid": {"n_time": 8, "n_space": 101, "width": float("inf")}},
            {"method": "mc-q", "mc": {"n_paths": "400"}},
        ],
        ids=["x0-too-large", "x0-negative", "y0-negative", "n_time-null", "width-inf", "mc-string"],
    )
    def test_bad_input_rejected_before_solve(self, write_config, tmp_path, capsys, overrides):
        cfg = write_config(base_config(**overrides))
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smjd: ")
        assert not (out / "surface.csv").exists()

    def test_unstable_fd_grid_exits_two(self, write_config, tmp_path):
        cfg = write_config(
            base_config(model=model_dict(rate=40.0), method="fd")
        )
        assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestHedgeBacktest:
    def test_report_written(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["hedge-backtest", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "backtest.json").read_text())
        assert rep["n_paths"] == 40
        assert rep["n_rebalance"] == 5
        assert rep["unhedged_std"] > 0.0
        assert np.isfinite(rep["variance_ratio"])


class TestXval:
    def test_consistent_solvers_exit_zero(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["xval", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "xval.json").read_text())
        assert rep["passed"] is True
        assert rep["rel_gap"] <= rep["tolerance"]
        assert rep["ie_in_ci"] and rep["fd_in_ci"]

    def test_tolerance_violation_exits_two(self, write_config, tmp_path):
        cfg = write_config(base_config(xval={"tolerance": 1e-9, "mc_paths": 1500}))
        out = tmp_path / "out"
        assert main(["xval", "--config", str(cfg), "--out", str(out)]) == 2
        rep = json.loads((out / "xval.json").read_text())
        assert rep["passed"] is False


class TestManifest:
    def test_manifest_records_config_hash_and_seed(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["seed"] == 7
        assert manifest["command"] == "price"
        assert "surface.csv" in manifest["artifacts"]
        assert manifest["wall_time_s"] >= 0.0


@pytest.mark.skipif(shutil.which("smjd") is None, reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base_config()))
    proc = subprocess.run(
        ["smjd", "check", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
