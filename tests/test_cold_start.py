"""Start-up guard: the CLI loads only the scipy submodules it needs.

A fresh interpreter imports ``smjd.cli`` and runs ``check`` on a Markov
config; neither ``scipy.stats`` nor ``scipy.optimize`` may be loaded
after it.  The test asserts module names rather than wall time, so a
slow or busy host cannot make it flaky.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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

SCRIPT = textwrap.dedent(
    """
    import json, sys
    from smjd.cli import main
    code = main(["check", "--config", sys.argv[1], "--out", sys.argv[2]])
    loaded = sorted(m for m in sys.modules if m.split(".")[:2] in
                    (["scipy", "stats"], ["scipy", "optimize"]))
    print(json.dumps({"code": code, "loaded": loaded}))
    """
)


def test_check_loads_neither_scipy_stats_nor_optimize(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["loaded"] == []
