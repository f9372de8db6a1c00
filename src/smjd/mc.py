"""Monte Carlo pricing and hedge backtesting.

Two estimators target the same price.  ``price_mc_q`` simulates directly
under the pricing measure: the regime law is unchanged, the Brownian
drift picks up the measure-change ratio times the squared volatility,
and jump marks arrive with the tilted intensity, realized by thinning
proposals from the untilted measure against the tilt factor.
``price_mc_p_weighted`` simulates under the objective measure and
reweights each discounted payoff with the terminal change-of-measure
density, so agreement of the two is a self-test of the measure change.

``backtest_hedge`` replays a solved price surface along objective-measure
paths: the strategy holds the surface's hedge ratio between rebalances
and the report collects the terminal hedging error, its variance
relative to the unhedged payoff, and the pooled correlation of the step
errors with the (drift-compensated) discounted stock increments.

Every estimator draws one child generator per path from a spawned seed
sequence and reduces in path order, so a given master seed reproduces
results bit for bit regardless of scheduling.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .market import (
    MarketModel,
    check_no_arbitrage,
    radon_nikodym_path,
    simulate_asset_path,
)
from .pricing import PriceSurface
from .regimes import simulate_regime_path

__all__ = [
    "BacktestReport",
    "McEstimate",
    "backtest_hedge",
    "price_mc_p_weighted",
    "price_mc_q",
]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with standard error and a normal confidence interval."""

    value: float
    std_error: float
    ci_low: float
    ci_high: float
    n_paths: int
    seed: int
    level: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "level": self.level,
        }


def _child_rngs(seed: int, n: int) -> Iterator[np.random.Generator]:
    # one independent stream per path; reduction order is the path order.
    # Generators are made as they are consumed, not held n at a time.
    seqs = np.random.SeedSequence(seed).spawn(n)
    return (np.random.Generator(np.random.PCG64(s)) for s in seqs)


def _require_sample(n_paths: int, level: float) -> None:
    """Reject a sample size or confidence level no estimate can use; run
    before any path is simulated."""
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")


def _require_rebalancing(n_paths: int, n_rebalance: int) -> None:
    """Reject backtest sizes ``backtest_hedge`` cannot use."""
    if n_paths < 2 or n_rebalance < 1:
        raise ValueError("need at least two paths and one rebalance interval")


def _estimate(vals: np.ndarray, seed: int, level: float) -> McEstimate:
    n = vals.size
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n))
    half = float(ndtri(0.5 + 0.5 * level)) * se
    return McEstimate(
        value=mean,
        std_error=se,
        ci_low=mean - half,
        ci_high=mean + half,
        n_paths=n,
        seed=seed,
        level=level,
    )


def _require_admissible(model: MarketModel) -> None:
    report = check_no_arbitrage(model)
    if not report.passed:
        raise ValueError(
            "measure change inadmissible: jump tilt reaches "
            f"{report.worst_margin:.6g} at t={report.witness_t:.6g}, "
            f"state={report.witness_state}, z={report.witness_z:.6g}"
        )


def _terminal_under_q(
    model: MarketModel,
    s0: float,
    x0: int,
    y0: float,
    rng: np.random.Generator,
    ratios: list[float] | None,
    bounds: list[float] | None,
) -> tuple[float, float]:
    """Terminal spot and integrated short rate of one pricing-measure path.

    Under constant volatility ``ratios`` and ``bounds`` hold each regime's
    measure-change ratio and tilt bound; under tabulated volatility both
    are ``None`` and each is taken per segment, or per thinning proposal."""
    T = model.horizon
    regime = simulate_regime_path(model.rates, x0, y0, T, rng)
    jump = model.jump
    mass = model.ints.mass
    log_s = math.log(s0)
    int_r = 0.0
    for t0, t1, i, _ in regime.segments():
        dt = t1 - t0
        if dt <= 0:
            continue
        int_r += float(model.r[i]) * dt
        var = model.sigma_sq_integral(t0, t1, i)
        if ratios is not None:
            ratio = ratios[i]
            shift = ratio * var
        else:
            shift = model.time_integral(
                lambda u: model.j_ratio(u, i) * np.asarray(model.sigma(u, i)) ** 2,
                t0,
                t1,
            )
        log_s += (
            float(model.mu[i]) * dt
            + shift
            - 0.5 * var
            + math.sqrt(var) * rng.standard_normal()
        )
        if mass == 0.0:
            continue
        # dominate the tilted intensity, then thin against the tilt factor
        if bounds is not None:
            bound = bounds[i]
        else:
            bound = float(model.jump_tilt(model.tilt_times(t0, t1), i).max())
        rate = mass * bound
        t = t0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= t1:
                break
            k = min(int(jump.cdf.searchsorted(rng.random())), jump.cdf.size - 1)
            if ratios is None:
                ratio = float(model.j_ratio(t, i))
            gamma = 1.0 + ratio * jump.eta_vals[k]
            if gamma < 0.0:
                raise ValueError(
                    f"nonpositive jump tilt at t={t:.6g}: measure change inadmissible"
                )
            if rng.random() * bound < gamma:
                log_s += jump.log_gain[k]
    return math.exp(log_s), int_r


def price_mc_q(
    model: MarketModel,
    payoff,
    s0: float,
    x0: int,
    y0: float,
    n_paths: int,
    seed: int,
    level: float = 0.99,
) -> McEstimate:
    """Price a terminal claim by simulation under the pricing measure.

    Parameters
    ----------
    model : MarketModel
        Market primitives; must admit a positive measure change.
    payoff : callable
        Terminal payoff as a function of the spot.
    s0, x0, y0 : float, int, float
        Initial spot, regime, and regime age.
    n_paths : int
        Number of independent paths.
    seed : int
        Master seed; child streams are spawned per path.
    level : float, optional
        Confidence level of the reported interval.

    Returns
    -------
    McEstimate
        Discounted sample mean with standard error.
    """
    if s0 <= 0:
        raise ValueError("spot must start positive")
    _require_sample(n_paths, level)
    _require_admissible(model)
    ratios = bounds = None
    if model.sigma_values is not None:
        states = range(model.n_states)
        ratios = [float(model.j_ratio(0.0, i)) for i in states]
        if model.ints.mass > 0:
            t_ext = model.tilt_times(0.0, model.horizon)
            bounds = [float(model.jump_tilt(t_ext, i).max()) for i in states]
    vals = np.empty(n_paths)
    for p, rng in enumerate(_child_rngs(seed, n_paths)):
        s_term, int_r = _terminal_under_q(model, s0, x0, y0, rng, ratios, bounds)
        vals[p] = math.exp(-int_r) * float(payoff(s_term))
    return _estimate(vals, seed, level)


def price_mc_p_weighted(
    model: MarketModel,
    payoff,
    s0: float,
    x0: int,
    y0: float,
    n_paths: int,
    seed: int,
    level: float = 0.99,
) -> McEstimate:
    """Price by objective-measure simulation with density reweighting.

    Each path contributes ``Z_T * exp(-int r) * payoff(S_T)`` where ``Z_T``
    is the terminal change-of-measure density along the path.  Slower to
    converge than :func:`price_mc_q` when the density is dispersed, but it
    exercises the density computation end to end.
    """
    if s0 <= 0:
        raise ValueError("spot must start positive")
    _require_sample(n_paths, level)
    _require_admissible(model)
    vals = np.empty(n_paths)
    for p, rng in enumerate(_child_rngs(seed, n_paths)):
        path = simulate_asset_path(model, s0, x0, y0, rng)
        weight = radon_nikodym_path(model, path)
        vals[p] = weight * math.exp(-path.int_r) * float(payoff(path.spot[-1]))
    return _estimate(vals, seed, level)


@dataclass(frozen=True)
class BacktestReport:
    """Discrete-rebalancing hedge errors along objective-measure paths.

    ``mean_pnl`` and ``std_pnl`` describe the terminal hedging error
    ``payoff / B_T - value(0) - sum xi d(S / B)``; ``unhedged_std`` is the
    standard deviation of the bare discounted payoff, ``variance_ratio``
    the hedged-to-unhedged variance ratio, and ``orthogonality_corr`` the
    pooled correlation between step errors and drift-compensated
    discounted stock increments.
    """

    n_paths: int
    n_rebalance: int
    initial_value: float
    mean_pnl: float
    std_pnl: float
    unhedged_std: float
    variance_ratio: float
    orthogonality_corr: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_rebalance": self.n_rebalance,
            "initial_value": self.initial_value,
            "mean_pnl": self.mean_pnl,
            "std_pnl": self.std_pnl,
            "unhedged_std": self.unhedged_std,
            "variance_ratio": self.variance_ratio,
            "orthogonality_corr": self.orthogonality_corr,
            "seed": self.seed,
        }


def backtest_hedge(
    model: MarketModel,
    surface: PriceSurface,
    payoff,
    s0: float,
    x0: int,
    y0: float,
    n_paths: int,
    n_rebalance: int,
    seed: int,
) -> BacktestReport:
    """Replay the surface's hedge along simulated objective-measure paths.

    The strategy reads the option value and the hedge ratio off
    ``surface`` at a uniform rebalancing grid and holds the ratio constant
    between rebalances.  The terminal column uses the actual payoff rather
    than the surface's terminal layer, so interpolation error does not
    leak into the hedging error.

    Parameters
    ----------
    model : MarketModel
        Market simulated under the objective measure.
    surface : PriceSurface
        Solved surface with a filled hedge layer.
    payoff : callable
        Terminal payoff of the hedged claim.
    s0, x0, y0 : float, int, float
        Initial spot, regime, and regime age.
    n_paths, n_rebalance : int
        Number of paths and of rebalancing intervals.
    seed : int
        Master seed for the path streams.

    Returns
    -------
    BacktestReport
    """
    _require_rebalancing(n_paths, n_rebalance)
    T = model.horizon
    times = np.linspace(0.0, T, n_rebalance + 1)
    dt = T / n_rebalance
    n_t = times.size

    spot = np.empty((n_paths, n_t))
    state = np.empty((n_paths, n_t), dtype=int)
    age = np.empty((n_paths, n_t))
    disc = np.empty((n_paths, n_t))
    for p, rng in enumerate(_child_rngs(seed, n_paths)):
        path = simulate_asset_path(model, s0, x0, y0, rng, record_times=times)
        idx = np.searchsorted(path.times, times, side="right") - 1
        spot[p] = path.spot[idx]
        state[p] = path.regime[idx]
        age[p] = path.age[idx]
        seg_r = model.r[path.regime[:-1]]
        cum = np.concatenate([[0.0], np.cumsum(seg_r * np.diff(path.times))])
        disc[p] = np.exp(-cum[idx])

    value = np.empty((n_paths, n_t))
    hedge = np.empty((n_paths, n_t))
    for k, t in enumerate(times):
        value[:, k] = surface.value_at(t, spot[:, k], state[:, k], age[:, k]) * disc[:, k]
        hedge[:, k] = surface.hedge_at(t, spot[:, k], state[:, k], age[:, k])
    value[:, -1] = np.asarray(payoff(spot[:, -1]), dtype=float) * disc[:, -1]

    s_star = spot * disc
    step_err = np.diff(value, axis=1) - hedge[:, :-1] * np.diff(s_star, axis=1)
    pnl = step_err.sum(axis=1)
    unhedged = value[:, -1] - value[:, 0]

    # remove the first-order objective drift so the reference increments
    # are (approximately) martingale increments
    drift = (model.mu[state[:, :-1]] - model.r[state[:, :-1]] + model.ints.int_eta) * dt
    comp = np.diff(s_star, axis=1) - s_star[:, :-1] * drift
    flat_e = step_err.ravel()
    flat_m = comp.ravel()
    if flat_e.std() == 0.0 or flat_m.std() == 0.0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(flat_e, flat_m)[0, 1])

    var_hedged = float(pnl.var(ddof=1))
    var_unhedged = float(unhedged.var(ddof=1))
    return BacktestReport(
        n_paths=n_paths,
        n_rebalance=n_rebalance,
        initial_value=float(value[0, 0]),
        mean_pnl=float(pnl.mean()),
        std_pnl=float(pnl.std(ddof=1)),
        unhedged_std=math.sqrt(var_unhedged),
        variance_ratio=var_hedged / var_unhedged if var_unhedged > 0 else 0.0,
        orthogonality_corr=corr,
        seed=seed,
    )
