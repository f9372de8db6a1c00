"""Per-layer tracing of the smjd modules, for ``run.py --trace 1``.

``install`` wraps the public functions of each module of ``src/smjd`` and
patches every module attribute that refers to them, so names imported
with ``from .x import y`` (``simulate_asset_path`` in ``mc`` and ``cli``,
``hedge_ratio`` in ``fd``, ...) are traced where they are looked up.
Each wrapper records a span: its duration and the time of the traced
calls nested inside it.  Spans stay in memory until ``per_layer`` reduces
them to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import smjd
from smjd import cli, fd, market, mc, payoffs, pricing, regimes

_MODULES = (smjd, cli, fd, market, mc, payoffs, pricing, regimes)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: dict[str, list[dict]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, extra=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = {"children": defaultdict(float)}
            self._stack.append(span)
            calls_before = self.counts["payoff_calls"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["children"][name] += span["dur"]
            span["payoff_calls"] = self.counts["payoff_calls"] - calls_before
            if extra is not None:
                extra(span, sig.bind(*args, **kwargs).arguments, result)
            self.spans[name].append(span)
            return result

        traced.__wrapped__ = fn
        return traced


def _patch(owner, attr: str, tracer: Tracer, name: str, extra=None) -> None:
    """Replace ``owner.attr`` and every smjd module attribute bound to the
    same object."""
    orig = getattr(owner, attr)
    wrapped = tracer.wrap(name, orig, extra)
    if inspect.isclass(owner):
        setattr(owner, attr, wrapped)
        return
    for mod in _MODULES:
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def _points(span, args, result):
    span["points"] = int(np.size(np.broadcast(args["s"], args["x"], args["y"])))


def _paths(span, args, result):
    span["n_paths"] = int(args["n_paths"])


def _grid_nodes(span, args, result):
    grid = args["grid"]
    span["nodes"] = (grid.t.size - 1) * args["model"].n_states * grid.log_s.size * grid.y.size
    span["n_time"] = grid.t.size - 1


def _csv(span, args, result):
    span["mb"] = os.path.getsize(args["path"]) / 1e6


def _events(span, args, result):
    span["events"] = int(np.count_nonzero(result.events != "grid"))


def _switches(span, args, result):
    span["switches"] = int(result.times.size)


def install() -> Tracer:
    """Wrap the traced functions; returns the tracer that records them."""
    tracer = Tracer()
    _patch(market, "check_no_arbitrage", tracer, "check_no_arbitrage")
    _patch(market, "simulate_asset_path", tracer, "simulate_asset_path", _events)
    _patch(market, "radon_nikodym_path", tracer, "radon_nikodym_path")
    _patch(regimes, "simulate_regime_path", tracer, "simulate_regime_path", _switches)
    _patch(pricing, "solve_price", tracer, "solve_price", _grid_nodes)
    _patch(pricing, "hedge_ratio", tracer, "hedge_ratio")
    _patch(pricing, "evolution_step", tracer, "evolution_step")
    _patch(pricing, "evolution_apply", tracer, "evolution_apply")
    _patch(pricing, "jump_operator", tracer, "jump_operator")
    _patch(pricing.PriceSurface, "to_csv", tracer, "to_csv", _csv)
    _patch(pricing.PriceSurface, "value_at", tracer, "lookup", _points)
    _patch(pricing.PriceSurface, "hedge_at", tracer, "lookup", _points)
    _patch(fd, "solve_price_fd", tracer, "solve_price_fd", _grid_nodes)
    _patch(mc, "price_mc_q", tracer, "price_mc_q", _paths)
    _patch(mc, "price_mc_p_weighted", tracer, "price_mc_p_weighted", _paths)
    _patch(mc, "backtest_hedge", tracer, "backtest_hedge")

    payoff_call = payoffs.Payoff.__call__

    def counted(self, s):
        tracer.counts["payoff_calls"] += 1
        return payoff_call(self, s)

    payoffs.Payoff.__call__ = counted

    # Dense operators held by the grid engine, from the array sizes; the
    # engine is private, so a refactor that removes it reads as 0 MB.
    engine = getattr(pricing, "_EvolutionEngine", None)
    if engine is not None:
        engine_init = engine.__init__

        def measured_init(self, model, grid, *args, **kwargs):
            engine_init(self, model, grid, *args, **kwargs)
            n = grid.log_s.size
            arrays = []
            for value in vars(self).values():
                arrays.extend(value if isinstance(value, (list, tuple)) else [value])
            tracer.counts["dense_bytes"] = max(
                tracer.counts["dense_bytes"],
                sum(a.nbytes for a in arrays
                    if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape == (n, n)),
            )

        engine.__init__ = measured_init
    return tracer


def probe(tracer: Tracer, model, payoff, grid, repeats: int = 3) -> None:
    """Call the public evolution and jump operators the CLI does not call,
    on the workload's model and grid, through the traced names."""
    k, ns, ny1 = model.n_states, grid.log_s.size, grid.y.size
    ones = np.ones((k, ns, ny1))
    values = np.broadcast_to(np.asarray(payoff(grid.s), dtype=float), (k, ns)).copy()
    for _ in range(repeats):
        pricing.evolution_step(model, grid, ones, grid.t[-2])
        pricing.evolution_apply(model, lambda s, i, y: payoff(s), model.horizon, grid)
        pricing.jump_operator(model, 0.0, grid, values)
    tracer.counts["probe_steps"] = grid.t.size - 1


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def per_layer(tracer: Tracer, setup: list[dict]) -> dict:
    """Reduce the spans to the per-layer metrics (name -> (value, unit))."""
    sp = tracer.spans

    def dur(name):
        return [s["dur"] for s in sp[name]]

    def per(name, key, scale=1.0):
        return [scale * s["dur"] / s[key] for s in sp[name] if s.get(key)]

    def mean(name, key):
        vals = [s[key] for s in sp[name]]
        return float(np.mean(vals)) if vals else 0.0

    step_s = _median(dur("evolution_step"))
    apply_s = _median(dur("evolution_apply"))
    n_steps = tracer.counts["probe_steps"]
    u_step_ms = 1e3 * (apply_s - step_s) / (n_steps - 1) if n_steps > 1 else 0.0
    fd_steps = [
        1e3 * (s["dur"] - s["children"]["hedge_ratio"] - s["children"]["check_no_arbitrage"]) / s["n_time"]
        for s in sp["solve_price_fd"]
    ]
    lookups = sp["lookup"]
    points = sum(s["points"] for s in lookups)
    mcq = sp["price_mc_q"]
    mcq_paths = sum(s["n_paths"] for s in mcq)
    return {
        "cli.import_s": (_median(r["import_s"] for r in setup), "s"),
        "cli.check_s": (_median(r["check_s"] for r in setup), "s"),
        "market.check_no_arbitrage_ms": (1e3 * _median(dur("check_no_arbitrage")), "ms"),
        "pricing.solve_price_s": (_median(dur("solve_price")), "s"),
        "pricing.evolution_step_s": (step_s, "s"),
        "pricing.u_step_ms": (u_step_ms, "ms"),
        "pricing.hedge_ratio_s": (_median(dur("hedge_ratio")), "s"),
        "pricing.jump_operator_s": (_median(dur("jump_operator")), "s"),
        "pricing.to_csv_s": (_median(dur("to_csv")), "s"),
        "pricing.csv_mb": (_median(s["mb"] for s in sp["to_csv"]), "MB"),
        "pricing.lookup_us": (1e6 * sum(s["dur"] for s in lookups) / points if points else 0.0, "us"),
        "pricing.node_updates": (_median(s["nodes"] for s in sp["solve_price"]), "count"),
        "pricing.dense_operator_mb": (tracer.counts["dense_bytes"] / 1e6, "MB"),
        "fd.solve_price_fd_s": (_median(dur("solve_price_fd")), "s"),
        "fd.step_ms": (_median(fd_steps), "ms"),
        "mc.mcq_us_per_path": (_median(per("price_mc_q", "n_paths", 1e6)), "us"),
        "mc.backtest_replay_s": (_median(dur("backtest_hedge")), "s"),
        "mc.mcp_us_per_path": (_median(per("price_mc_p_weighted", "n_paths", 1e6)), "us"),
        "market.radon_nikodym_path_us": (1e6 * _median(dur("radon_nikodym_path")), "us"),
        "market.simulate_asset_path_us": (1e6 * _median(dur("simulate_asset_path")), "us"),
        "market.events_per_path": (mean("simulate_asset_path", "events"), "count"),
        "regimes.simulate_regime_path_us": (1e6 * _median(dur("simulate_regime_path")), "us"),
        "regimes.switches_per_path": (mean("simulate_regime_path", "switches"), "count"),
        "payoffs.calls_per_path": (
            sum(s["payoff_calls"] for s in mcq) / mcq_paths if mcq_paths else 0.0, "count"),
    }
