"""Tests for Monte Carlo pricing and the hedge backtest.

Pricing-measure paths use the unchanged regime law, the drift shifted by
the measure-change ratio, and jump thinning against the tilt factor;
objective-measure paths are reweighted with the terminal density.  Both
estimators carry their own standard errors, so the oracles here are
closed forms or cross-estimates within three standard errors.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm
from test_market import loop_simulate_asset_path, sigma_table_model, weibull_model

from smjd import mc
from smjd.market import EtaClamp, JumpSpec, MarketModel
from smjd.mc import (
    McEstimate,
    _child_rngs,
    _estimate,
    backtest_hedge,
    price_mc_p_weighted,
    price_mc_q,
)
from smjd.payoffs import Payoff
from smjd.pricing import build_grid, solve_price
from smjd.regimes import ConstantRate, RateSpec, simulate_regime_path

BS_CALL_ATM = 10.450583572185565


def make_jump(n=201):
    return JumpSpec.from_density(
        lambda z: np.ones_like(z), (-0.5, 1.0), n, EtaClamp(1.0, -0.5, 1.0)
    )


def empty_jump():
    return JumpSpec(np.empty(0), np.empty(0), EtaClamp(1.0, -0.5, 1.0))


def benchmark_model():
    rates = RateSpec(
        n_states=2,
        rates={(0, 1): ConstantRate(1.0), (1, 0): ConstantRate(1.0)},
    )
    return MarketModel(
        rates=rates,
        r=[0.05, 0.05],
        mu=[0.08, 0.05],
        jump=make_jump(),
        horizon=1.0,
        sigma_values=[0.2, 0.3],
    )


def bs_model():
    return MarketModel(
        rates=RateSpec(n_states=1, rates={}),
        r=[0.05],
        mu=[0.08],
        jump=empty_jump(),
        horizon=1.0,
        sigma_values=[0.2],
    )


@pytest.fixture(scope="module")
def bench():
    return benchmark_model()


@pytest.fixture(scope="module")
def bench_surface(bench):
    grid = build_grid(bench, s_ref=100.0, n_time=50, n_space=601, n_age=0)
    return solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)


@pytest.fixture(scope="module")
def bs_surface():
    m = bs_model()
    grid = build_grid(m, s_ref=100.0, n_time=50, n_space=801, n_age=0)
    return m, solve_price(m, Payoff(kind="call", strikes=(100.0,)), grid)


class TestQPricing:
    def test_black_scholes_within_three_se(self):
        est = price_mc_q(
            bs_model(), Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=40000, seed=11,
        )
        assert abs(est.value - BS_CALL_ATM) <= 3.0 * est.std_error
        assert est.ci_low < BS_CALL_ATM < est.ci_high

    def test_discounted_spot_is_martingale(self, bench):
        est = price_mc_q(
            bench, Payoff(kind="linear"), s0=100.0, x0=0, y0=0.0,
            n_paths=30000, seed=5,
        )
        assert abs(est.value - 100.0) <= 3.0 * est.std_error

    def test_matches_reweighted_objective_paths(self, bench):
        payoff = Payoff(kind="call", strikes=(100.0,))
        q = price_mc_q(bench, payoff, s0=100.0, x0=1, y0=0.0, n_paths=20000, seed=3)
        p = price_mc_p_weighted(bench, payoff, s0=100.0, x0=1, y0=0.0, n_paths=20000, seed=4)
        gap = np.hypot(q.std_error, p.std_error)
        assert abs(q.value - p.value) <= 3.0 * gap

    def test_deterministic_given_seed(self, bench):
        payoff = Payoff(kind="put", strikes=(95.0,))
        a = price_mc_q(bench, payoff, s0=100.0, x0=0, y0=0.0, n_paths=2000, seed=42)
        b = price_mc_q(bench, payoff, s0=100.0, x0=0, y0=0.0, n_paths=2000, seed=42)
        assert a == b
        c = price_mc_q(bench, payoff, s0=100.0, x0=0, y0=0.0, n_paths=2000, seed=43)
        assert a.value != c.value

    def test_estimate_interval_level(self, bench):
        # the half-width is the normal quantile times the standard error,
        # bit for bit as scipy.stats computes the quantile
        for level in (0.9, 0.95, 0.99, 0.999):
            est = price_mc_q(
                bench, Payoff(kind="call", strikes=(100.0,)),
                s0=100.0, x0=0, y0=0.0, n_paths=500, seed=1, level=level,
            )
            half = float(norm.ppf(0.5 + 0.5 * level)) * est.std_error
            assert est.ci_low == est.value - half
            assert est.ci_high == est.value + half
            assert isinstance(est, McEstimate)


class TestPWeighted:
    def test_weighted_discounted_spot_is_initial_spot(self, bench):
        est = price_mc_p_weighted(
            bench, Payoff(kind="linear"), s0=100.0, x0=0, y0=0.0,
            n_paths=30000, seed=9,
        )
        assert abs(est.value - 100.0) <= 3.0 * est.std_error

    def test_black_scholes_within_three_se(self):
        est = price_mc_p_weighted(
            bs_model(), Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=40000, seed=12,
        )
        assert abs(est.value - BS_CALL_ATM) <= 3.0 * est.std_error


class TestBacktest:
    def test_zero_payoff_zero_ledger(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=10, n_space=101, n_age=0)
        surf = solve_price(bench, Payoff(kind="constant", scale=0.0), grid)
        rep = backtest_hedge(
            bench, surf, payoff=Payoff(kind="constant", scale=0.0),
            s0=100.0, x0=0, y0=0.0, n_paths=200, n_rebalance=20, seed=2,
        )
        assert rep.mean_pnl == 0.0
        assert rep.std_pnl == 0.0
        assert rep.variance_ratio == 0.0

    def test_mean_ledger_within_three_se(self, bench, bench_surface):
        rep = backtest_hedge(
            bench, bench_surface, payoff=Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=800, n_rebalance=50, seed=21,
        )
        assert abs(rep.mean_pnl) <= 3.0 * rep.std_pnl / np.sqrt(rep.n_paths)

    def test_orthogonality_correlation_small(self, bench, bench_surface):
        rep = backtest_hedge(
            bench, bench_surface, payoff=Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=800, n_rebalance=50, seed=21,
        )
        assert abs(rep.orthogonality_corr) <= 3.0 / np.sqrt(rep.n_paths)

    def test_black_scholes_variance_reduction(self, bs_surface):
        m, surf = bs_surface
        rep = backtest_hedge(
            m, surf, payoff=Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=600, n_rebalance=250, seed=31,
        )
        # daily delta hedging shrinks the payoff standard deviation by
        # more than an order of magnitude
        assert rep.std_pnl <= 0.1 * rep.unhedged_std
        assert rep.unhedged_std > 1.0

    def test_report_round_trip(self, bench, bench_surface):
        rep = backtest_hedge(
            bench, bench_surface, payoff=Payoff(kind="call", strikes=(100.0,)),
            s0=100.0, x0=0, y0=0.0, n_paths=50, n_rebalance=10, seed=8,
        )
        d = rep.to_dict()
        assert d["n_paths"] == 50
        assert d["n_rebalance"] == 10
        assert np.isfinite(d["variance_ratio"])


# ---------------------------------------------------------------------------
# Bit identity with the per-event simulator and the per-path q constants
# ---------------------------------------------------------------------------


def loop_terminal_under_q(
    model: MarketModel, s0: float, x0: int, y0: float, rng: np.random.Generator
) -> tuple[float, float]:
    """The pricing-measure path before its per-call constants were hoisted:
    the oracle of ``price_mc_q``, bit for bit."""
    T = model.horizon
    regime = simulate_regime_path(model.rates, x0, y0, T, rng)
    eta = model.jump.eta_vals
    mass = model.ints.mass
    cdf = np.cumsum(model.jump.w) / mass if mass > 0 else None
    log_s = math.log(s0)
    int_r = 0.0
    for t0, t1, i, _ in regime.segments():
        dt = t1 - t0
        if dt <= 0:
            continue
        int_r += float(model.r[i]) * dt
        var = model.sigma_sq_integral(t0, t1, i)
        if model.sigma_values is not None:
            shift = float(model.j_ratio(t0, i)) * var
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
        bound = float(model.jump_tilt(model.tilt_times(t0, t1), i).max())
        rate = mass * bound
        t = t0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= t1:
                break
            k = min(int(np.searchsorted(cdf, rng.random())), cdf.size - 1)
            gamma = float(model.jump_tilt(t, i)[k])
            if gamma < 0.0:
                raise ValueError(
                    f"nonpositive jump tilt at t={t:.6g}: measure change inadmissible"
                )
            if rng.random() * bound < gamma:
                log_s += math.log1p(float(eta[k]))
    return math.exp(log_s), int_r


MC_MODELS = {
    "markov": benchmark_model,
    "weibull": weibull_model,
    "sigma-table": sigma_table_model,
    "jump-free": bs_model,
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", list(MC_MODELS))
    def test_mc_q_equals_the_unhoisted_loop(self, name):
        model = MC_MODELS[name]()
        payoff = Payoff(kind="call", strikes=(100.0,))
        est = price_mc_q(model, payoff, 100.0, 0, 0.0, n_paths=300, seed=11)
        vals = np.empty(300)
        for p, rng in enumerate(_child_rngs(11, 300)):
            s_term, int_r = loop_terminal_under_q(model, 100.0, 0, 0.0, rng)
            vals[p] = math.exp(-int_r) * float(payoff(s_term))
        assert est == _estimate(vals, 11, 0.99)

    @pytest.mark.parametrize("name", list(MC_MODELS))
    def test_mc_p_equals_the_event_loop(self, name, monkeypatch):
        model = MC_MODELS[name]()
        payoff = Payoff(kind="call", strikes=(100.0,))
        args = (model, payoff, 100.0, 0, 0.0, 300, 13)
        est = price_mc_p_weighted(*args)
        monkeypatch.setattr(mc, "simulate_asset_path", loop_simulate_asset_path)
        assert est == price_mc_p_weighted(*args)

    @pytest.mark.parametrize("name, n_age", [("markov", 0), ("weibull", 6)])
    def test_backtest_equals_the_event_loop(self, name, n_age, monkeypatch):
        model = MC_MODELS[name]()
        payoff = Payoff(kind="call", strikes=(100.0,))
        grid = build_grid(model, s_ref=100.0, n_time=6, n_space=101, n_age=n_age)
        surface = solve_price(model, payoff, grid)
        args = (model, surface, payoff, 100.0, 1, 0.2, 40, 25, 17)
        report = backtest_hedge(*args)
        monkeypatch.setattr(mc, "simulate_asset_path", loop_simulate_asset_path)
        assert report.to_dict() == backtest_hedge(*args).to_dict()
