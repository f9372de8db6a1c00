"""Start-up guard: the CLI loads only the scipy submodules it needs.

Each test runs one command on a Markov config in a fresh interpreter and
lists the scipy submodules loaded after it.  Importing any of
``scipy.special``, ``scipy.fft`` or ``scipy.linalg`` first loads SciPy's
array-API shim, which loads every lazily loaded NumPy submodule, so only
the branch that uses one may import it.  The tests assert module names
rather than wall time, so a slow or busy host cannot make them flaky.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from smjd.pricing import FFT_MIN_NODES

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "model": {
        "regimes": {
            "states": 2,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": 1.0}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        },
        "r": [0.05, 0.05],
        "mu": [0.08, 0.05],
        "sigma": {"kind": "constant", "values": [0.2, 0.3]},
        "jump": {
            "eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0},
            "density": {"kind": "uniform"},
            "interval": [-0.5, 1.0],
            "n": 51,
        },
        "T": 0.5,
    },
    "s0": 100.0,
    "x0": 0,
    "y0": 0.0,
}

CALL = {"kind": "call", "K1": 100.0}

SCRIPT = textwrap.dedent(
    """
    import json, sys
    from smjd.cli import main
    code = main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
    loaded = sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.startswith("scipy.")})
    print(json.dumps({"code": code, "loaded": loaded}))
    """
)

#: the numeric submodules a command that solves no grid and draws no
#: estimate has no use for
NUMERIC = {"scipy.special", "scipy.fft", "scipy.linalg", "scipy.stats", "scipy.optimize"}


def _loaded_after(tmp_path, command: str, config: dict) -> set:
    """The ``scipy.<x>`` submodules a fresh interpreter holds after
    ``smjd <command>`` on ``config``; the command must exit 0."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, command, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["loaded"])


def test_check_loads_neither_scipy_stats_nor_optimize(tmp_path):
    loaded = _loaded_after(tmp_path, "check", CONFIG)
    assert loaded & {"scipy.stats", "scipy.optimize"} == set()


@pytest.mark.parametrize("command", ["check", "integrals", "simulate"])
def test_grid_free_commands_load_no_numeric_submodule(tmp_path, command):
    assert _loaded_after(tmp_path, command, CONFIG) & NUMERIC == set()


def test_mc_q_price_loads_neither_fft_nor_linalg(tmp_path):
    config = dict(CONFIG, payoff=CALL, method="mc-q", mc={"n_paths": 100, "level": 0.95})
    loaded = _loaded_after(tmp_path, "price", config)
    assert "scipy.special" in loaded         # the interval's normal quantile
    assert loaded & {"scipy.fft", "scipy.linalg"} == set()


def test_ie_price_below_the_fft_crossover_loads_no_linalg(tmp_path):
    n_space = 101
    assert n_space < FFT_MIN_NODES
    grid = {"n_time": 4, "n_space": n_space, "n_age": 0}
    config = dict(CONFIG, payoff=CALL, method="ie", grid=grid)
    loaded = _loaded_after(tmp_path, "price", config)
    assert "scipy.special" in loaded         # the kernel projection's normal cdf
    assert "scipy.linalg" not in loaded


def test_cli_import_loads_no_process_pool():
    # the surface writer forks with os.fork alone; a process pool module
    # would add its import to every command's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = (
        "import json, sys, smjd.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
