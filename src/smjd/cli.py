"""Command line interface.

One JSON configuration file drives every subcommand; ``--seed`` and
``--out`` override the corresponding config entries.  Every config value
is read and checked before any solve or artifact, so a bad value exits
with one ``smjd:`` line on stderr.  All artifacts are deterministic for
a fixed seed: floats are written with round-trip precision, JSON keys
are sorted, and Monte Carlo estimators reduce in path order.  Each
artifact is written atomically, so a failed command leaves no partial
file.

Subcommands
-----------
check
    Validate the rate spec and the positivity of the tilted jump
    intensity; write ``check.json``.
integrals
    Jump-measure integrals and per-regime tilt coefficients;
    write ``integrals.json``.
simulate
    Objective-measure paths as ``path_NNNN.csv`` plus ``simulate.json``.
price
    Price one claim with the configured method (``ie``, ``fd``, ``mc-q``,
    ``mc-p``); grid methods also write the full ``surface.csv``.
hedge-backtest
    Solve a surface, replay its hedge along simulated paths, and write
    ``backtest.json``.
xval
    Cross-validate the two grid solvers against each other and a Monte
    Carlo interval, ``fd`` on as many more time steps as its explicit-step
    guard needs; write ``xval.json``.

Exit codes
----------
``0`` success; ``1`` validation failure (invalid model or config values,
inadmissible measure change, failed ``check``); ``2`` numerical failure
(grid resolution, cross-validation disagreement); ``3`` I/O failure
(unreadable config, malformed JSON, unusable output directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._artifacts import write_artifact
from ._config import number, section, text
from .fd import MAX_EXPLICIT_STEP, explicit_gain, solve_price_fd
from .market import (
    check_no_arbitrage,
    market_model_from_dict,
    radon_nikodym_path,
    simulate_asset_path,
)
from .mc import (
    _child_rngs,
    _require_rebalancing,
    _require_sample,
    backtest_hedge,
    price_mc_p_weighted,
    price_mc_q,
)
from .payoffs import payoff_from_dict
from .pricing import GridResolutionError, build_grid, solve_price
from .regimes import validate_rates

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

#: most times the configured time steps that ``xval`` gives ``fd``
FD_REFINE_LIMIT = 16


class _Parser(argparse.ArgumentParser):
    # usage errors are config errors, not numerical ones
    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smjd", description="regime-switching jump-diffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("check", "validate rates and measure-change admissibility"),
        ("integrals", "report jump integrals and tilt coefficients"),
        ("simulate", "write objective-measure sample paths"),
        ("price", "price a claim with the configured method"),
        ("hedge-backtest", "replay the hedge along simulated paths"),
        ("xval", "cross-validate solvers against a Monte Carlo interval"),
    ]
    for name, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


# ---------------------------------------------------------------------------
# Config access
# ---------------------------------------------------------------------------


def _resolve_model_file(cfg: dict, cfg_path: Path) -> None:
    """Inline a model given as a file path, resolved against the config's directory."""
    ref = cfg.get("model")
    if not isinstance(ref, str):
        return
    path = Path(ref)
    if not path.is_absolute():
        path = cfg_path.parent / path
    cfg["model"] = json.loads(path.read_bytes())


def _age_of(cfg: dict) -> float:
    y0 = number(cfg, "y0", 0.0)
    if y0 < 0.0:
        raise ValueError(f"y0 = {y0} must be a nonnegative age")
    return y0


def _state_of(cfg: dict, model) -> tuple[float, int, float]:
    s0 = number(cfg, "s0")
    if not s0 > 0.0:
        raise ValueError(f"s0 = {s0} must be a positive spot")
    x0 = number(cfg, "x0", 0, int)
    if not 0 <= x0 < model.n_states:
        raise ValueError(f"x0 = {x0} is not a regime in [0, {model.n_states})")
    return s0, x0, _age_of(cfg)


def _grid_of(cfg: dict, model, s0: float, n_time: int | None = None):
    """The configured grid; with ``n_time``, the same spot nodes and at
    least the same age span on that many time steps.  Without ``n_age``,
    one age row per time step, or a single row when no exit rate depends
    on the age (the price then does not either)."""
    g = section(cfg, "grid", {})
    n_cfg = number(g, "n_time", 50, int)
    n_age = number(g, "n_age", None, int)
    if n_age is None and model.rates.age_free:
        n_age = 0
    if n_time is not None and n_age is not None:
        n_age = -(-n_age * n_time // n_cfg)
    return build_grid(
        model,
        s_ref=number(g, "s_ref", s0),
        n_time=n_cfg if n_time is None else n_time,
        n_space=number(g, "n_space", 401, int),
        n_age=n_age,
        width=number(g, "width", 6.0),
    )


def _fd_grid_of(cfg: dict, model, s0: float, grid):
    """``grid`` on the fewest time steps, no fewer than its own, whose
    step passes the ``fd`` explicit-step guard; at most ``FD_REFINE_LIMIT``
    times its own, since the surface grows with the steps squared on age
    rows."""
    limit = FD_REFINE_LIMIT * (grid.t.size - 1)
    while True:
        gain = explicit_gain(model, grid)
        if not (math.isfinite(gain) and grid.dt * gain > MAX_EXPLICIT_STEP):
            return grid
        # one step more at least: the gain moves with the age rows
        n_time = max(grid.t.size, math.ceil(model.horizon * gain / MAX_EXPLICIT_STEP))
        if n_time > limit:
            raise GridResolutionError(
                f"fd needs {n_time} time steps for its explicit-step guard, more than "
                f"{FD_REFINE_LIMIT} times the configured grid's; refine the time grid"
            )
        grid = _grid_of(cfg, model, s0, n_time)


def _grid_report(grid) -> dict:
    return {
        "n_time": grid.t.size - 1,
        "n_space": grid.log_s.size,
        "n_age": grid.y.size - 1,
        "s_ref": grid.s_ref,
    }


def _write_json(path: Path, obj: dict) -> None:
    write_artifact(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


# ---------------------------------------------------------------------------
# Subcommands (each returns (exit_code, artifact names))
# ---------------------------------------------------------------------------


def _cmd_check(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    y_max = _age_of(cfg) + model.horizon
    rates_report = validate_rates(model.rates, y_max=y_max)
    arb_report = check_no_arbitrage(model)
    passed = rates_report.passed and arb_report.passed
    _write_json(
        out / "check.json",
        {
            "passed": passed,
            "rates": rates_report.to_dict(),
            "no_arbitrage": arb_report.to_dict(),
        },
    )
    return (EXIT_OK if passed else EXIT_VALIDATION), ["check.json"]


def _cmd_integrals(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    ints = model.ints
    per_regime = []
    for i in range(model.n_states):
        tilt = model.jump_tilt(0.0, i)
        per_regime.append(
            {
                "state": i,
                "ratio": float(model.j_ratio(0.0, i)),
                "drift_tilt": float(model.drift_tilt(0.0, i)),
                "tilt_min": float(tilt.min()) if tilt.size else 1.0,
                "tilt_max": float(tilt.max()) if tilt.size else 1.0,
            }
        )
    _write_json(
        out / "integrals.json",
        {
            "int_eta": ints.int_eta,
            "int_eta_sq": ints.int_eta_sq,
            "mass": ints.mass,
            "quad_growth_rate": ints.quad_growth_rate,
            "per_regime": per_regime,
        },
    )
    return EXIT_OK, ["integrals.json"]


def _cmd_simulate(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    s0, x0, y0 = _state_of(cfg, model)
    seed = cfg["seed"]
    sim = section(cfg, "simulate", {})
    n_paths = number(sim, "n_paths", 1, int)
    n_record = number(sim, "n_record", 0, int)
    if n_paths < 1:
        raise ValueError("simulate.n_paths must be positive")
    record = np.linspace(0.0, model.horizon, n_record + 1) if n_record > 0 else None
    admissible = check_no_arbitrage(model).passed

    files = []
    terminal = np.empty(n_paths)
    weights = np.empty(n_paths) if admissible else None
    for p, rng in enumerate(_child_rngs(seed, n_paths)):
        path = simulate_asset_path(model, s0, x0, y0, rng, record_times=record)
        name = f"path_{p:04d}.csv"
        path.to_csv(out / name)
        files.append(name)
        terminal[p] = path.spot[-1]
        if admissible:
            weights[p] = radon_nikodym_path(model, path)
    _write_json(
        out / "simulate.json",
        {
            "n_paths": n_paths,
            "seed": seed,
            "files": files,
            "terminal": {
                "mean": float(terminal.mean()),
                "std": float(terminal.std(ddof=1)) if n_paths > 1 else 0.0,
                "min": float(terminal.min()),
                "max": float(terminal.max()),
            },
            "mean_weight": float(weights.mean()) if admissible else None,
        },
    )
    return EXIT_OK, files + ["simulate.json"]


def _solve_surface(cfg: dict, model, payoff, method: str, s0: float):
    grid = _grid_of(cfg, model, s0)
    if method == "ie":
        return solve_price(model, payoff, grid)
    if method == "fd":
        return solve_price_fd(model, payoff, grid)
    raise ValueError(f"method {method!r} does not produce a surface")


def _cmd_price(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    payoff = payoff_from_dict(section(cfg, "payoff"))
    s0, x0, y0 = _state_of(cfg, model)
    seed = cfg["seed"]
    method = text(cfg, "method", "ie")
    report: dict = {
        "method": method,
        "s0": s0,
        "x0": x0,
        "y0": y0,
        "payoff": payoff.to_dict(),
    }
    if method in ("ie", "fd"):
        surface = _solve_surface(cfg, model, payoff, method, s0)
        report.update(
            {
                "price": surface.price(0.0, s0, x0, y0),
                "hedge": float(surface.hedge_at(0.0, s0, x0, y0)),
                "grid": _grid_report(surface.grid),
            }
        )
        surface.to_csv(out / "surface.csv")
        artifacts = ["price.json", "surface.csv"]
    elif method in ("mc-q", "mc-p"):
        opts = section(cfg, "mc", {})
        n_paths = number(opts, "n_paths", 10000, int)
        level = number(opts, "level", 0.99)
        pricer = price_mc_q if method == "mc-q" else price_mc_p_weighted
        est = pricer(model, payoff, s0, x0, y0, n_paths=n_paths, seed=seed, level=level)
        report.update({"price": est.value, "estimate": est.to_dict()})
        artifacts = ["price.json"]
    else:
        raise ValueError(f"unknown pricing method {method!r}")
    _write_json(out / "price.json", report)
    return EXIT_OK, artifacts


def _cmd_backtest(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    payoff = payoff_from_dict(section(cfg, "payoff"))
    s0, x0, y0 = _state_of(cfg, model)
    seed = cfg["seed"]
    method = text(cfg, "method", "ie")
    opts = section(cfg, "hedge", {})
    n_paths = number(opts, "n_paths", 1000, int)
    n_rebalance = number(opts, "n_rebalance", 250, int)
    _require_rebalancing(n_paths, n_rebalance)
    surface = _solve_surface(cfg, model, payoff, method, s0)
    report = backtest_hedge(
        model,
        surface,
        payoff,
        s0,
        x0,
        y0,
        n_paths=n_paths,
        n_rebalance=n_rebalance,
        seed=seed,
    )
    body = report.to_dict()
    body.update({"method": method, "payoff": payoff.to_dict()})
    _write_json(out / "backtest.json", body)
    return EXIT_OK, ["backtest.json"]


def _cmd_xval(cfg: dict, out: Path) -> tuple[int, list[str]]:
    model = market_model_from_dict(section(cfg, "model"))
    payoff = payoff_from_dict(section(cfg, "payoff"))
    s0, x0, y0 = _state_of(cfg, model)
    seed = cfg["seed"]
    opts = section(cfg, "xval", {})
    tolerance = number(opts, "tolerance", 0.01)
    mc_paths = number(opts, "mc_paths", 200000, int)
    level = number(opts, "level", 0.99)
    _require_sample(mc_paths, level)

    grid = _grid_of(cfg, model, s0)
    fd_grid = _fd_grid_of(cfg, model, s0, grid)
    price_ie = solve_price(model, payoff, grid).price(0.0, s0, x0, y0)
    price_fd = solve_price_fd(model, payoff, fd_grid).price(0.0, s0, x0, y0)
    est = price_mc_q(model, payoff, s0, x0, y0, n_paths=mc_paths, seed=seed, level=level)

    rel_gap = abs(price_ie - price_fd) / max(abs(price_ie), abs(price_fd), 1e-12)
    ie_in_ci = est.ci_low <= price_ie <= est.ci_high
    fd_in_ci = est.ci_low <= price_fd <= est.ci_high
    # Deterministic pair compared relatively; MC pairs against the CI half-width.
    half_width = 0.5 * (est.ci_high - est.ci_low)
    pairs = [
        {
            "pair": "ie/fd",
            "gap": rel_gap,
            "tolerance": tolerance,
            "passed": rel_gap <= tolerance,
        },
        {
            "pair": "ie/mc",
            "gap": abs(price_ie - est.value),
            "tolerance": half_width,
            "passed": ie_in_ci,
        },
        {
            "pair": "fd/mc",
            "gap": abs(price_fd - est.value),
            "tolerance": half_width,
            "passed": fd_in_ci,
        },
    ]
    passed = all(p["passed"] for p in pairs)
    _write_json(
        out / "xval.json",
        {
            "ie_price": price_ie,
            "fd_price": price_fd,
            "rel_gap": rel_gap,
            "tolerance": tolerance,
            "mc": est.to_dict(),
            "ie_in_ci": ie_in_ci,
            "fd_in_ci": fd_in_ci,
            "ie_grid": _grid_report(grid),
            "fd_grid": _grid_report(fd_grid),
            "pairs": pairs,
            "passed": passed,
        },
    )
    return (EXIT_OK if passed else EXIT_NUMERICAL), ["xval.json"]


_COMMANDS = {
    "check": _cmd_check,
    "integrals": _cmd_integrals,
    "simulate": _cmd_simulate,
    "price": _cmd_price,
    "hedge-backtest": _cmd_backtest,
    "xval": _cmd_xval,
}


def _write_manifest(
    out: Path, args, cfg_bytes: bytes, cfg: dict, artifacts: list[str], wall: float
) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": args.command,
            "config": str(args.config),
            "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
            "seed": cfg["seed"],
            "versions": {
                "smjd": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
            },
            "artifacts": sorted(artifacts),
            "wall_time_s": wall,
        },
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg_path = Path(args.config)
        cfg_bytes = cfg_path.read_bytes()
        cfg = json.loads(cfg_bytes)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        _resolve_model_file(cfg, cfg_path)
        if args.seed is not None:
            cfg["seed"] = args.seed
        cfg["seed"] = number(cfg, "seed", 0, int)
        out = Path(args.out) if args.out else Path(text(cfg, "out", "smjd_out"))
        out.mkdir(parents=True, exist_ok=True)
        code, artifacts = _COMMANDS[args.command](cfg, out)
        _write_manifest(out, args, cfg_bytes, cfg, artifacts, time.perf_counter() - start)
        if code != EXIT_OK:
            print(f"smjd: {args.command} failed; see {out / artifacts[-1]}", file=sys.stderr)
        return code
    except (OSError, json.JSONDecodeError) as exc:
        print(f"smjd: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GridResolutionError as exc:
        print(f"smjd: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"smjd: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
