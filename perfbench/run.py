"""Benchmark of the smjd CLI: one workload, one client, closed loop.

    python3 perfbench/run.py --workload markov-fine --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The client sends the workload's requests
(``smjd price`` per method and ``smjd hedge-backtest``) through
``smjd.cli.main`` in this process, one after the other, in whole rounds,
and checks every output against ``reference.py`` and the properties
listed in README.md.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: BLAS threads of the benchmark process and of the set-up interpreters,
#: capped at the number of processors
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

#: z-score beyond which a Monte Carlo estimate disagrees with its reference
MC_Z = 4.0

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import smjd.cli
imported = time.perf_counter()
code = smjd.cli.main(["check", "--config", sys.argv[2], "--out", sys.argv[3]])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "check_s": done - imported, "code": code}))
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config), encoding="utf-8")


def fresh_check(work: Path, config: Path) -> dict:
    """Import ``smjd.cli`` and run one ``smjd check`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config), str(work / "check")],
        capture_output=True, text=True, timeout=120, env=os.environ.copy(),
    )
    if proc.returncode != 0:
        _fail(f"set-up interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Client:
    """Sends requests through ``smjd.cli.main`` and checks the outputs."""

    def __init__(self, workload: str, work: Path, main):
        self.spec = workloads.SPECS[workload]
        self.work = work
        self.main = main
        self.refs = self._references()
        self.times: dict[str, list[float]] = {}
        self.rel_err: dict[str, float] = {"ie": 0.0, "fd": 0.0}
        self.halfwidths: list[float] = []
        self.setup: list[dict] = []
        self.variance_ratios: list[float] = []
        self.margins: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known_failures: list[str] = []

    def _references(self) -> dict:
        """(model name, payoff kind, strike) -> (price, standard error)."""
        refs = {}
        stored = reference.load_store()
        for name, model in self.spec["models"].items():
            strikes = sorted({k for m, k in self.spec["ladder"] if m == name} | {workloads.S0})
            if name in stored:
                entry = stored[name]
                if entry["model_sha256"] != reference.model_digest(model) or (
                    entry["s0"], entry["x0"], entry["y0"]
                ) != (workloads.S0, self.spec["x0"], self.spec["y0"]):
                    _fail(f"reference.json is stale for {name}; rerun perfbench/reference.py")
                for kind in ("call", "put"):
                    for k, p, se in zip(entry["strikes"], entry[kind], entry[kind + "_se"]):
                        refs[(name, kind, k)] = (p, se)
                continue
            prices = reference.markov_prices(model, workloads.S0, self.spec["x0"], strikes)
            for kind in ("call", "put"):
                for k, p in zip(strikes, prices[kind]):
                    refs[(name, kind, k)] = (p, 0.0)
        return refs

    def send(self, request: dict, timed: bool = True) -> dict | None:
        """One CLI call; returns its JSON artifact, or None if it failed."""
        cfg = self.work / "request.json"
        out = self.work / "out"
        _write_config(cfg, request["config"])
        if request["kind"] == "setup":
            record = fresh_check(self.work, cfg)
            if timed:
                self.setup.append(record)
                self.times.setdefault("setup", []).append(record["import_s"] + record["check_s"])
            return record if record["code"] == 0 else None
        # every request starts from an empty young generation, so a full
        # collection inside it depends on its own allocations, not on the
        # requests before it
        gc.collect()
        start = time.perf_counter()
        code = self.main([request["command"], "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - start
        if timed:
            self.times.setdefault(request["kind"], []).append(elapsed)
        if code != 0:
            return None
        name = "price.json" if request["command"] == "price" else "backtest.json"
        result = json.loads((out / name).read_text(encoding="utf-8"))
        shutil.rmtree(out)
        return result

    def run_round(self) -> None:
        grid_prices = {}
        for request in self.requests:
            self.attempted += 1
            result = self.send(request)
            problem = "exit code not 0" if result is None else self.check(request, result, grid_prices)
            if problem is None:
                continue
            self.failed += 1
            label = f"{request['kind']} {request['model_name']} {request['config'].get('payoff')}"
            if request.get("known_failure"):
                self.known_failures.append(f"{label}: {problem}")
            else:
                self.errors.append(f"{label}: {problem}")
        self.check_parity(grid_prices)

    def check(self, request: dict, result: dict, grid_prices: dict) -> str | None:
        kind = request["kind"]
        if kind == "setup":
            return None
        payoff = request["config"]["payoff"]
        if kind == "backtest":
            n = result["n_paths"]
            self.variance_ratios.append(result["variance_ratio"])
            if not result["variance_ratio"] < 1.0:
                return f"variance ratio {result['variance_ratio']:.4g} not below 1"
            self._margin("backtest mean P&L z", abs(result["mean_pnl"]) * math.sqrt(n) / result["std_pnl"])
            self._margin("backtest |corr| sqrt(n)", abs(result["orthogonality_corr"]) * math.sqrt(n))
            if abs(result["mean_pnl"]) > MC_Z * result["std_pnl"] / math.sqrt(n):
                return f"mean P&L {result['mean_pnl']:.4g} beyond {MC_Z} standard errors"
            if abs(result["orthogonality_corr"]) > 3.0 / math.sqrt(n):
                return f"orthogonality correlation {result['orthogonality_corr']:.4g}"
            return None
        price = result["price"]
        if request.get("reference") is not None:
            ref, ref_se = request["reference"], 0.0
        else:
            ref, ref_se = self.refs[(request["model_name"], payoff["kind"], payoff["K1"])]
        if kind in ("ie", "fd"):
            err = abs(price - ref)
            self.rel_err[kind] = max(self.rel_err[kind], err / ref)
            grid_prices[(kind, request["model_name"], payoff["kind"], payoff["K1"])] = price
            if err > self.spec["grid_tolerance"] * ref + MC_Z * ref_se:
                return f"price {price:.6g} vs reference {ref:.6g}"
            if payoff["kind"] == "call" and not 0.0 <= result["hedge"] <= 1.0:
                return f"call hedge ratio {result['hedge']:.4g} outside [0, 1]"
            return None
        est = result["estimate"]
        if kind == "mcq":
            self.halfwidths.append(0.5 * (est["ci_high"] - est["ci_low"]) / est["value"])
        z = abs(price - ref) / math.hypot(est["std_error"], ref_se)
        if not request.get("known_failure"):
            self._margin(f"{kind} z", z)
        if z > MC_Z:
            return f"price {price:.6g} is {z:.1f} standard errors from {ref:.6g}"
        return None

    def _margin(self, name: str, value: float) -> None:
        self.margins[name] = max(self.margins.get(name, 0.0), value)

    def check_parity(self, grid_prices: dict) -> None:
        """C - P = S0 - K exp(-r T) for every call/put pair of one method."""
        for (method, name, kind, strike), call in grid_prices.items():
            put = grid_prices.get((method, name, "put", strike))
            if kind != "call" or put is None:
                continue
            model = self.spec["models"][name]
            gap = call - put - (workloads.S0 - strike * math.exp(-model["r"][0] * model["T"]))
            if abs(gap) > self.spec["grid_tolerance"] * workloads.S0:
                self.errors.append(f"{method} {name} K={strike}: put-call parity gap {gap:.4g}")


def _warm_up(client: Client) -> None:
    """One small request of every kind: imports, allocator and BLAS warm up
    before anything is timed."""
    seen = set()
    for request in client.requests:
        if request["kind"] in seen or request["kind"] == "setup":
            continue
        seen.add(request["kind"])
        small = json.loads(json.dumps(request))
        cfg = small["config"]
        if "grid" in cfg:
            cfg["grid"] = {**cfg["grid"], "n_time": 16, "n_space": 101}
        if "mc" in cfg:
            cfg["mc"]["n_paths"] = 100
        if "hedge" in cfg:
            cfg["hedge"] = {"n_paths": 20, "n_rebalance": 10}
        client.send(small, timed=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smjd CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smjd" / "cli.py").is_file():
        _fail(f"no smjd sources under {SRC}; run from the root of a checkout")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> int:
    spec = workloads.SPECS[args.workload]
    first_model = spec["models"][spec["ladder"][0][0]]

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    from smjd import cli

    client = Client(args.workload, work, cli.main)
    client.requests = workloads.requests(args.workload, args.seed)
    _warm_up(client)
    if tracer is not None:
        tracer.spans.clear()
        tracer.counts.clear()

    # whole rounds only, as many as the first one says fit in --seconds
    start = time.perf_counter()
    client.run_round()
    rounds = max(1, round(args.seconds / (time.perf_counter() - start)))
    for _ in range(rounds - 1):
        client.run_round()

    if tracer is not None:
        from smjd.market import market_model_from_dict
        from smjd.payoffs import payoff_from_dict
        from smjd.pricing import build_grid

        model = market_model_from_dict(first_model)
        grid = build_grid(model, s_ref=workloads.S0, **spec["ie_grid"])
        layers.probe(tracer, model, payoff_from_dict({"kind": "call", "K1": workloads.S0}), grid)
        metrics = layers.per_layer(tracer, client.setup)
    else:
        metrics = {
            "setup_s": (statistics.median(client.times["setup"]), "s"),
            "ie_s": (statistics.median(client.times["ie"]), "s"),
            "fd_s": (statistics.median(client.times["fd"]), "s"),
            "mcq_s": (statistics.median(client.times["mcq"]), "s"),
            "backtest_s": (statistics.median(client.times["backtest"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ie_rel_err": (client.rel_err["ie"], "1"),
            "fd_rel_err": (client.rel_err["fd"], "1"),
            "mcq_rel_halfwidth": (statistics.median(client.halfwidths), "1"),
        }

    for line in client.errors:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for line in sorted(set(client.known_failures)):
        print(f"perfbench: known failure: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"BLAS threads {BLAS_THREADS}", file=sys.stderr)
    for kind, values in sorted(client.times.items()):
        print(f"perfbench: {kind} seconds: median {statistics.median(values):.4f} of "
              f"{' '.join(f'{v:.4f}' for v in values)}", file=sys.stderr)
    print("perfbench: worst check statistics "
          + ", ".join(f"{k} {v:.3g}" for k, v in sorted(client.margins.items())), file=sys.stderr)
    print("perfbench: hedge variance ratios "
          f"{' '.join(f'{v:.4g}' for v in client.variance_ratios)}", file=sys.stderr)
    print(json.dumps({
        "correct": not client.errors,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
