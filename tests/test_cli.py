"""End-to-end tests for the command line interface.

Each test drives ``main`` in process against a small two-regime
configuration (the mutation test against a three-regime one), then
asserts on exit codes and on the artifacts written to the output
directory.  Reruns with a fixed seed must reproduce the data artifacts
byte for byte.
"""

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_market import loop_simulate_asset_path

from smjd import _artifacts, cli, pricing
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
        "T": 0.5,
    }


JUMP_FREE = {"eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0}, "nodes": []}


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


def _must_not_solve(*args, **kwargs):
    raise AssertionError("a grid was solved before the config was checked")


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

    @pytest.mark.parametrize("model", ["markov", "weibull", "sigma-table", "mixed-family"])
    def test_paths_equal_the_event_loop(self, model, write_config, tmp_path, monkeypatch):
        # mixed-family: regime 0 of the Weibull model gets a constant exit
        # too, so its holding times are drawn by brentq
        cfg = weibull_config() if model in ("weibull", "mixed-family") else base_config()
        if model == "sigma-table":
            cfg["model"]["sigma"] = {
                "kind": "table",
                "t": [0.0, 0.2, 0.5],
                "values": [[0.2, 0.35, 0.25], [0.3, 0.2, 0.4]],
            }
        if model == "mixed-family":
            cfg["model"]["regimes"]["rates"].append(
                {"from": 0, "to": 2, "family": "constant", "params": {"rate": 0.7}}
            )
            cfg["x0"] = 0
        cfg["simulate"] = {"n_paths": 6, "n_record": 20}
        config = write_config(cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        monkeypatch.setattr(cli, "simulate_asset_path", loop_simulate_asset_path)
        assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in out_b.iterdir() if p.name != "manifest.json")
        assert "path_0005.csv" in names and "simulate.json" in names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("mu", [1e6, 4000.0], ids=["one-segment", "running-product"])
    def test_spot_overflow_exits_two_without_artifacts(self, mu, write_config, tmp_path, capsys):
        # 1e6: exp of one segment's log-increment overflows; 4000: each
        # segment's factor is finite, but their product is not
        cfg = write_config(base_config(model=model_dict(mu=(mu, 0.05)), seed=3))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smjd: numerical error: "), err
        assert not any(out.iterdir())

    def test_seed_override_changes_paths(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "path_0000.csv").read_bytes() != (
            out_b / "path_0000.csv"
        ).read_bytes()


def table_exit_model():
    """Regime 0 leaves at rate 1 - y up to age 1 and never after, so its
    hazard tops out at 1/2; regime 1 leaves at rate 1."""
    model = model_dict()
    model["regimes"]["rates"][0] = {
        "from": 0, "to": 1, "family": "table", "params": {"y": [0.0, 1.0], "rate": [1.0, 0.0]},
    }
    return model


@pytest.mark.parametrize("model", [model_dict(rate=0.0), table_exit_model()], ids=["zero", "table"])
@pytest.mark.parametrize("command, method", [("simulate", "ie"), ("price", "mc-q")])
def test_hazard_short_of_the_drawn_level_keeps_the_regime(
    write_config, tmp_path, model, command, method
):
    cfg = write_config(base_config(model=model, method=method))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    if command == "price":
        assert np.isfinite(json.loads((out / "price.json").read_text())["price"])


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
        # need to land within joint noise.
        vals = {}
        for method in ("mc-q", "mc-p"):
            cfg = write_config(base_config(method=method), f"{method}.json")
            out = tmp_path / method
            assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
            rep = json.loads((out / "price.json").read_text())
            vals[method] = rep["estimate"]
        joint = vals["mc-q"]["std_error"] + vals["mc-p"]["std_error"]
        assert abs(vals["mc-q"]["value"] - vals["mc-p"]["value"]) <= 4.0 * joint

    def test_mc_rerun_byte_identical(self, write_config, tmp_path):
        cfg = write_config(base_config(method="mc-q"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["price", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["price", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "price.json").read_bytes() == (out_b / "price.json").read_bytes()

    def test_fft_grid_rerun_byte_identical(self, write_config, tmp_path):
        grid = {"n_time": 8, "n_space": 1601, "n_age": 0}
        assert pricing._use_fft(1601, 1 + 2)
        cfg = write_config(base_config(grid=grid))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["price", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["price", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("surface.csv", "price.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("family", ["constant", "weibull-shape-1"])
    def test_age_free_rates_default_to_one_age_row(self, write_config, tmp_path, family):
        cfg = base_config(grid={"n_time": 8, "n_space": 101}, y0=0.2)
        if family == "weibull-shape-1":
            params = {"scale": 1.0, "shape": 1.0}
            cfg["model"]["regimes"]["rates"] = [
                {"from": i, "to": 1 - i, "family": "weibull", "params": params} for i in (0, 1)
            ]
        reports = []
        for name, n_age in (("default", None), ("full", 8)):
            if n_age is not None:
                cfg["grid"]["n_age"] = n_age
            out = tmp_path / name
            path = write_config(cfg, f"{name}.json")
            assert main(["price", "--config", str(path), "--out", str(out)]) == 0
            reports.append(json.loads((out / "price.json").read_text()))
        default, full = reports
        assert default["grid"]["n_age"] == 0 and full["grid"]["n_age"] == 8
        assert abs(default["price"] - full["price"]) <= 1e-12
        assert abs(default["hedge"] - full["hedge"]) <= 1e-12

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
            {"model": model_dict() | {"jump": JUMP_FREE}, "grid": {"width": 0}},
            {"grid": {"n_time": 8, "n_space": 101, "width": -3}},
            {"grid": {"n_time": 8, "n_space": 101, "n_age": -3}},
            {"s0": -5.0, "grid": {"n_time": 8, "n_space": 101, "s_ref": 100.0}},
        ],
        ids=[
            "x0-too-large",
            "x0-negative",
            "y0-negative",
            "n_time-null",
            "width-inf",
            "mc-string",
            "width-zero",
            "width-negative",
            "n_age-negative",
            "s0-negative",
        ],
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

    @pytest.mark.parametrize("method", ["ie", "fd"])
    def test_infinite_switch_rate_rejected_before_solve(
        self, write_config, tmp_path, capsys, method
    ):
        # a Weibull shape below 1 is infinite at age 0: the grid methods
        # refuse the pair, as `check` fails its `bounded` verdict
        cfg = weibull_config()
        cfg["method"] = method
        cfg["model"]["regimes"]["rates"][1]["params"]["shape"] = 0.5
        out = tmp_path / "out"
        assert main(["price", "--config", str(write_config(cfg)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "(1, 2)" in err[0] and "at age 0;" in err[0], err
        assert not (out / "price.json").exists() and not (out / "surface.csv").exists()

    @pytest.mark.parametrize("failing", [1, 2, 4, 6])
    def test_failed_write_leaves_no_partial_artifact(
        self, write_config, tmp_path, capsys, monkeypatch, failing
    ):
        # renames 1-3 write surface.csv, price.json and manifest.json into
        # the staging directory, renames 4-6 move them into place; the
        # failing rename raises as a full disk or a lost directory would
        cfg = write_config(base_config())
        replace, calls = os.replace, []

        def replace_or_fail(src, dst):
            calls.append(dst)
            if len(calls) == failing:
                raise OSError(f"cannot rename onto {dst}")
            replace(src, dst)

        monkeypatch.setattr("smjd._artifacts.os.replace", replace_or_fail)
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smjd: i/o error"), err
        # no staging directory, no temporary file and no artifact
        assert sorted(p.name for p in out.iterdir()) == []

    def test_surface_above_the_fork_crossover_matches_one_process(
        self, write_config, tmp_path, monkeypatch
    ):
        # 9 layers x 301 spots x 2 regimes x 5 ages = 27 090 rows
        cfg = write_config(base_config(grid={"n_time": 8, "n_space": 301, "n_age": 4}))
        assert 27_090 >= 2 * _artifacts._FORK_MIN_ROWS
        forked, fork_writer = [], _artifacts._fork_writer

        def counted(part, chunks):
            forked.append(part)
            return fork_writer(part, chunks)

        monkeypatch.setattr(_artifacts, "_fork_writer", counted)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["price", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert len(forked) == min(len(os.sched_getaffinity(0)), 2) - 1
        monkeypatch.setattr(_artifacts, "_FORK_MIN_ROWS", 10**9)
        assert main(["price", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert len(forked) == min(len(os.sched_getaffinity(0)), 2) - 1
        assert (out_a / "surface.csv").read_bytes() == (out_b / "surface.csv").read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_still_writes_the_surface(
        self, write_config, tmp_path, capsys, monkeypatch
    ):
        # no process to be had: the parent formats every layer, exit 0
        cfg = write_config(base_config(grid={"n_time": 8, "n_space": 301, "n_age": 4}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setattr(_artifacts, "_FORK_MIN_ROWS", 10**9)
        assert main(["price", "--config", str(cfg), "--out", str(out_a)]) == 0
        monkeypatch.setattr(_artifacts, "_FORK_MIN_ROWS", 0)
        monkeypatch.setattr(pricing, "layer_blocks", lambda n, rows: [(0, n // 2), (n // 2, n)])
        calls = []

        def no_fork():
            calls.append(1)
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(_artifacts.os, "fork", no_fork)
        capsys.readouterr()
        assert main(["price", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert calls == [1]
        assert capsys.readouterr().err == ""
        assert (out_a / "surface.csv").read_bytes() == (out_b / "surface.csv").read_bytes()
        assert sorted(p.name for p in out_a.iterdir()) == sorted(p.name for p in out_b.iterdir())

    def test_failed_surface_child_exits_three_and_keeps_the_old_run(
        self, write_config, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(base_config())
        out = tmp_path / "out"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        monkeypatch.setattr(_artifacts, "_FORK_MIN_ROWS", 0)
        if len(os.sched_getaffinity(0)) < 2:
            monkeypatch.setattr(pricing, "layer_blocks", lambda n, rows: [(0, 1), (1, n)])
        rows = pricing.surface_rows

        def fail_after_t0(t, *args):
            # fails only in the forked child's half
            for chunk in rows(t, *args):
                if t[0] > 0.0:
                    raise OSError("disk full")
                yield chunk

        monkeypatch.setattr(pricing, "surface_rows", fail_after_t0)
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smjd: i/o error"), err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["price", "hedge-backtest"])
    def test_overflowing_projection_is_one_numerical_error(self, write_config, tmp_path, command):
        # a drift of 1e6 carries the spot's mean past the largest float in
        # one step; stderr holds the admissibility warning and one error line
        cfg = write_config(base_config(model=model_dict(mu=(1e6, 0.05))))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        script = "import sys; from smjd.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        assert "AdmissibilityWarning" in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("smjd:")]
        assert len(errors) == 1 and errors[0].startswith("smjd: numerical error: "), errors
        assert "regime 0" in errors[0]


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

    def test_bad_sizes_rejected_before_solve(self, write_config, tmp_path, monkeypatch):
        monkeypatch.setattr("smjd.cli.solve_price", _must_not_solve)
        cfg = write_config(base_config(hedge={"n_paths": 40, "n_rebalance": 0}))
        out = tmp_path / "out"
        assert main(["hedge-backtest", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "backtest.json").exists()


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

    def test_fd_gets_the_fewest_steps_its_explicit_guard_allows(self, write_config, tmp_path):
        # 12 steps suit ie here, but give fd dt * gain = 0.564 > 0.5
        cfg = weibull_config()
        cfg["model"]["regimes"]["rates"] = [
            {"from": i, "to": j, "family": "weibull", "params": {"scale": scale, "shape": 2.0}}
            for i, j, scale in [(0, 1, 0.8), (1, 2, 1.4), (2, 0, 1.0)]
        ]
        cfg["model"].update(
            mu=[0.07, 0.05, 0.03],
            sigma={"kind": "constant", "values": [0.22, 0.28, 0.18]},
            T=1.0,
        )
        cfg["model"]["jump"] = {
            "eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0},
            "density": {"kind": "uniform", "scale": 0.75},
            "interval": [-0.5, 1.0],
            "n": 201,
        }
        cfg.update(grid={"n_time": 12, "n_space": 201}, xval={"mc_paths": 2000, "tolerance": 0.05})
        out = tmp_path / "out"
        assert main(["xval", "--config", str(write_config(cfg)), "--out", str(out)]) == 0
        rep = json.loads((out / "xval.json").read_text())
        assert rep["pairs"][0]["passed"]
        assert rep["ie_grid"] == {"n_time": 12, "n_space": 201, "n_age": 12, "s_ref": 100.0}
        assert rep["fd_grid"] == {"n_time": 14, "n_space": 201, "n_age": 14, "s_ref": 100.0}
        cfg.update(method="fd", grid={"n_time": 13, "n_space": 201})
        code = main(["price", "--config", str(write_config(cfg)), "--out", str(tmp_path / "fd")])
        assert code == 2

    def test_fd_steps_cover_the_tilt_at_interior_sigma_knots(self, write_config, tmp_path):
        # the tilt peaks where sigma dips to 0.1 on [0.5, 0.53]: fd needs
        # ceil(7.27 / 0.5) = 15 steps
        model = {
            "regimes": {"states": 1, "rates": []},
            "r": [0.05],
            "mu": [-1.0],
            "sigma": {"kind": "table", "t": [0.0, 0.5, 0.515, 0.53, 1.0],
                      "values": [[1.2, 1.2, 0.1, 1.2, 1.2]]},
            "jump": {"eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0},
                     "nodes": [[-0.4, 1.0], [0.8, 1.0]]},
            "T": 1.0,
        }
        cfg = base_config(model=model, grid={"n_time": 11, "n_space": 101, "n_age": 0},
                          xval={"tolerance": 0.1, "mc_paths": 200})
        out = tmp_path / "out"
        main(["xval", "--config", str(write_config(cfg)), "--out", str(out)])
        rep = json.loads((out / "xval.json").read_text())
        assert rep["fd_grid"]["n_time"] >= 15

    def test_fd_refinement_beyond_the_limit_exits_two_before_solve(
        self, write_config, tmp_path, capsys, monkeypatch
    ):
        # switch rate 400 on 8 steps over T = 0.5 needs over 16 x 8 fd steps
        monkeypatch.setattr("smjd.cli.solve_price", _must_not_solve)
        cfg = write_config(base_config(model=model_dict(rate=400.0)))
        out = tmp_path / "out"
        assert main(["xval", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "fd needs" in err[0], err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("xval", {"xval": {"tolerance": 0.1, "mc_paths": 1500, "level": 1.5}}),
            ("xval", {"xval": {"tolerance": -0.01, "mc_paths": 1500}}),
            ("simulate", {"simulate": {"n_paths": 3, "n_record": -5}}),
        ],
        ids=["level", "tolerance-negative", "n_record-negative"],
    )
    def test_bad_level_rejected_before_solve(
        self, write_config, tmp_path, capsys, monkeypatch, command, overrides
    ):
        monkeypatch.setattr("smjd.cli.solve_price", _must_not_solve)
        monkeypatch.setattr("smjd.cli.simulate_asset_path", _must_not_solve)
        cfg = write_config(base_config(**overrides))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smjd: "), err
        assert not any(out.iterdir())


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

    def test_u64_seed_kept_exact(self, write_config, tmp_path):
        cfg = write_config(base_config(method="mc-q"))
        out = tmp_path / "out"
        seed = 2**64 - 1
        assert main(["price", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_seeds_beyond_double_precision_differ(self, write_config, tmp_path):
        prices = []
        for seed in (2**53, 2**53 + 1):
            cfg = write_config(base_config(method="mc-q", seed=seed), name=f"{seed}.json")
            out = tmp_path / str(seed)
            assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
            prices.append(json.loads((out / "price.json").read_text())["price"])
        assert prices[0] != prices[1]


def weibull_config():
    """Three Weibull regimes switching 0 -> 1 -> 2 -> 0, five jump nodes,
    priced by ``ie`` on 4 x 41 nodes from regime 1 at age 0.3, with small
    hedge and cross-validation samples."""

    def weibull(i, j, scale):
        return {"from": i, "to": j, "family": "weibull", "params": {"scale": scale, "shape": 1.5}}

    return {
        "model": {
            "regimes": {
                "states": 3,
                "rates": [weibull(0, 1, 1.2), weibull(1, 2, 0.9), weibull(2, 0, 1.5)],
            },
            "r": [0.05, 0.05, 0.05],
            "mu": [0.08, 0.04, 0.06],
            "sigma": {"kind": "constant", "values": [0.2, 0.3, 0.25]},
            "jump": {
                "eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0},
                "nodes": [[-0.5, 0.1], [-0.2, 0.2], [0.1, 0.3], [0.4, 0.2], [0.7, 0.1]],
            },
            "T": 0.5,
        },
        "payoff": {"kind": "call", "K1": 100.0},
        "s0": 100.0,
        "x0": 1,
        "y0": 0.3,
        "seed": 7,
        "method": "ie",
        "grid": {"n_time": 4, "n_space": 41, "n_age": 4},
        "hedge": {"n_paths": 20, "n_rebalance": 10},
        "xval": {"tolerance": 0.1, "mc_paths": 200},
    }


def _leaves(node, path=()):
    """Key paths of every scalar (or empty container) in a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _leaves(node[key], path + (key,))
    else:
        yield path


DELETE = "<delete>"
MUTANTS = [None, True, "x", -1, 0, 0.5, [], {}, [1, 2], {"a": 1}, DELETE]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    leaf=st.sampled_from(list(_leaves(weibull_config()))),
    mutant=st.sampled_from(MUTANTS),
    command=st.sampled_from(
        ["check", "integrals", "simulate", "price", "hedge-backtest", "xval"]
    ),
)
def test_config_mutation_exits_cleanly(leaf, mutant, command):
    # any one-leaf change of a valid config ends in a documented exit code,
    # and a failure says so in one line, without a traceback, a surface or
    # a temporary or partial artifact
    cfg = weibull_config()
    parent = cfg
    for key in leaf[:-1]:
        parent = parent[key]
    if mutant == DELETE:
        del parent[leaf[-1]]
    else:
        parent[leaf[-1]] = copy.deepcopy(mutant)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(path), "--out", str(out)])
        surface_written = (out / "surface.csv").exists()
        written = sorted(out.iterdir()) if out.exists() else []
        reports = [json.loads(p.read_text()) for p in written if p.suffix == ".json"]
        report = None
        if command == "price" and code == 0:
            report = json.loads((out / "price.json").read_text())
    assert code in (0, 1, 2, 3)
    if report is not None:
        assert math.isfinite(report["price"]) and math.isfinite(report["hedge"]), report
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("smjd:"), lines
        assert not surface_written
        assert all(p.suffix in (".json", ".csv") for p in written), written
        assert all(isinstance(r, dict) for r in reports)


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(
            ["smjd"],
            marks=pytest.mark.skipif(
                shutil.which("smjd") is None, reason="console script not on PATH"
            ),
            id="smjd",
        ),
        pytest.param([sys.executable, "-m", "smjd.cli"], id="module"),
    ],
)
def test_console_script_smoke(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base_config()))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [*command, "check", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
