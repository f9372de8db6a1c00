"""Tests for the finite-difference solver.

The scheme advances the regime age along characteristics (one age row per
time step), treats the log-spot diffusion implicitly, and the switching
and jump couplings explicitly, so it is first order in the time step and
second order in the spot step.  Discounting is split half explicit, half
implicit, which keeps pure-bond errors at third order per step.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from smjd.fd import explicit_gain, solve_price_fd
from smjd.market import EtaClamp, JumpSpec, MarketModel
from smjd.payoffs import Payoff
from smjd.pricing import (
    AdmissibilityWarning,
    GridResolutionError,
    build_grid,
    solve_price,
)
from smjd.regimes import ConstantRate, RateSpec, WeibullRate

BS_CALL_ATM = 10.450583572185565


def bs_call(s, k, r, sigma, t):
    d1 = (np.log(s / k) + (r + 0.5 * sigma**2) * t) / (sigma * np.sqrt(t))
    d2 = d1 - sigma * np.sqrt(t)
    return s * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2)


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


@pytest.fixture(scope="module")
def bench():
    return benchmark_model()


@pytest.fixture(scope="module")
def bs_fd_surface():
    m = MarketModel(
        rates=RateSpec(n_states=1, rates={}),
        r=[0.05],
        mu=[0.05],
        jump=empty_jump(),
        horizon=1.0,
        sigma_values=[0.2],
    )
    grid = build_grid(m, s_ref=100.0, n_time=400, n_space=801, n_age=0)
    return solve_price_fd(m, Payoff(kind="call", strikes=(100.0,)), grid)


class TestAgainstClosedForms:
    def test_black_scholes_call(self, bs_fd_surface):
        got = bs_fd_surface.price(0.0, 100.0, 0, 0.0)
        assert got == pytest.approx(BS_CALL_ATM, rel=5e-3)

    def test_black_scholes_curve(self, bs_fd_surface):
        g = bs_fd_surface.grid
        sel = (g.s > 70.0) & (g.s < 145.0)
        ref = bs_call(g.s[sel], 100.0, 0.05, 0.2, 1.0)
        got = bs_fd_surface.values[0, 0, sel, 0]
        assert np.abs(got - ref).max() <= 5e-3 * BS_CALL_ATM

    def test_black_scholes_delta(self, bs_fd_surface):
        g = bs_fd_surface.grid
        sel = (g.s > 80.0) & (g.s < 130.0)
        d1 = (np.log(g.s[sel] / 100.0) + (0.05 + 0.02)) / 0.2
        got = bs_fd_surface.hedge[0, 0, sel, 0]
        assert np.abs(got - norm.cdf(d1)).max() <= 5e-3

    def test_discount_bond_two_regimes(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=200, n_space=201, n_age=0)
        surf = solve_price_fd(bench, Payoff(kind="constant", scale=1.0), grid)
        for n, t in enumerate(grid.t):
            want = np.exp(-0.05 * (1.0 - t))
            assert np.abs(surf.values[n] - want).max() <= 1e-6

    def test_linear_payoff_is_spot(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=100, n_space=601, n_age=0)
        surf = solve_price_fd(bench, Payoff(kind="linear"), grid)
        rel = np.abs(surf.values / grid.s[None, None, :, None] - 1.0).max()
        assert rel <= 1e-3


class TestSchemeInvariants:
    def test_conserves_constants_age_dependent(self):
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): WeibullRate(1.2, 2.0), (1, 0): ConstantRate(0.8)},
        )
        m = MarketModel(
            rates=rates, r=[0.0, 0.0], mu=[0.0, 0.0], jump=empty_jump(),
            horizon=1.0, sigma_values=[0.2, 0.3],
        )
        grid = build_grid(m, s_ref=100.0, n_time=100, n_space=101, n_age=100)
        surf = solve_price_fd(m, Payoff(kind="constant", scale=1.0), grid)
        assert np.abs(surf.values - 1.0).max() <= 1e-12

    def test_conserves_constants_with_jumps_zero_rate(self, bench):
        m = MarketModel(
            rates=bench.rates, r=[0.0, 0.0], mu=[0.03, 0.0], jump=bench.jump,
            horizon=1.0, sigma_values=[0.2, 0.3],
        )
        grid = build_grid(m, s_ref=100.0, n_time=50, n_space=201, n_age=0)
        surf = solve_price_fd(m, Payoff(kind="constant", scale=1.0), grid)
        assert np.abs(surf.values - 1.0).max() <= 1e-12

    def test_comparison_principle(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=50, n_space=301, n_age=0)
        lo = solve_price_fd(bench, Payoff(kind="call", strikes=(110.0,)), grid)
        hi = solve_price_fd(bench, Payoff(kind="call", strikes=(90.0,)), grid)
        assert (hi.values - lo.values).min() >= -1e-7

    def test_stability_guard_raises(self):
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): ConstantRate(40.0), (1, 0): ConstantRate(40.0)},
        )
        m = MarketModel(
            rates=rates, r=[0.05, 0.05], mu=[0.05, 0.05], jump=empty_jump(),
            horizon=1.0, sigma_values=[0.2, 0.3],
        )
        grid = build_grid(m, s_ref=100.0, n_time=10, n_space=101, n_age=10)
        with pytest.raises(GridResolutionError):
            solve_price_fd(m, Payoff(kind="call", strikes=(100.0,)), grid)

    def test_stability_guard_reads_the_tilt_at_interior_sigma_knots(self):
        # sigma dips to 0.1 between the 33 uniform times t = k / 32: the
        # gain is 7.27 at the dip, so 11 steps give dt * gain = 0.661
        m = MarketModel(
            rates=RateSpec(n_states=1, rates={}), r=[0.05], mu=[-1.0],
            jump=JumpSpec(z=[-0.4, 0.8], w=[1.0, 1.0], eta=EtaClamp(1.0, -0.5, 1.0)),
            horizon=1.0,
            sigma_table=(np.array([0.0, 0.5, 0.515, 0.53, 1.0]), np.array([[1.2, 1.2, 0.1, 1.2, 1.2]])),
        )
        grid = build_grid(m, s_ref=100.0, n_time=11, n_space=101, n_age=0)
        assert explicit_gain(m, grid) == pytest.approx(0.05 + 4.4 * (1.0 + 0.65 / 0.81 * 0.8))
        with pytest.raises(GridResolutionError):
            solve_price_fd(m, Payoff(kind="call", strikes=(100.0,)), grid)

    def test_admissibility_warning(self):
        m = MarketModel(
            rates=RateSpec(n_states=1, rates={}),
            r=[0.05], mu=[0.15], jump=make_jump(), horizon=1.0,
            sigma_values=[0.2],
        )
        grid = build_grid(m, s_ref=100.0, n_time=20, n_space=101, n_age=0)
        with pytest.warns(AdmissibilityWarning):
            surf = solve_price_fd(m, Payoff(kind="call", strikes=(100.0,)), grid)
        assert np.all(np.isfinite(surf.values))


class TestCrossSolver:
    def test_matches_integral_solver_at_the_money(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=200, n_space=401, n_age=0)
        fd = solve_price_fd(bench, Payoff(kind="call", strikes=(100.0,)), grid)
        grid_ie = build_grid(bench, s_ref=100.0, n_time=30, n_space=401, n_age=0)
        ie = solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid_ie)
        for i in (0, 1):
            a = fd.price(0.0, 100.0, i, 0.0)
            b = ie.price(0.0, 100.0, i, 0.0)
            assert abs(a / b - 1.0) <= 1e-2

    def test_richardson_ratio_in_time(self, bench):
        payoff = Payoff(kind="call", strikes=(100.0,))
        vals = []
        for n_time in (25, 50, 100):
            grid = build_grid(bench, s_ref=100.0, n_time=n_time, n_space=801, n_age=0)
            surf = solve_price_fd(bench, payoff, grid)
            vals.append(surf.price(0.0, 100.0, 0, 0.0))
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 1.5 <= ratio <= 2.8
