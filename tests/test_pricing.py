"""Tests for payoffs, tilt coefficients, kernel moments, the backward
evolution operator, the price solver, and hedge ratios.

Oracle arithmetic frozen here, for the uniform jump density on [-1/2, 1]
with eta(z) = clamp(z, -1/2, 1):

    int eta dnu   = 0.375
    int eta^2 dnu = 0.375
    mass          = 1.5

Benchmark regimes (r = 0.05 both):
    regime 0: mu = 0.08, sigma = 0.2 -> beta1 = -0.00375 / 0.415
    regime 1: mu = 0.05, sigma = 0.3 -> beta1 = -0.03375 / 0.465

Black-Scholes call (S = K = 100, r = 0.05, sigma = 0.2, T = 1):
    10.450583572185565
"""

import errno
import io
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm
from shared import benchmark_model, bs_call, empty_jump, make_jump

from smjd import _artifacts, pricing
from smjd.fd import solve_price_fd
from smjd.market import EtaClamp, JumpSpec, MarketModel, simulate_asset_path
from smjd.payoffs import Payoff, payoff_from_dict
from smjd.pricing import (
    AdmissibilityWarning,
    PriceSurface,
    SurfaceGrid,
    _EvolutionEngine,
    _jump_operators,
    _projection_operator,
    _spot_stencil,
    build_grid,
    evolution_apply,
    evolution_step,
    hedge_ratio,
    jump_operator,
    solve_price,
)
from smjd.regimes import ConstantRate, RateSpec, WeibullRate

BETA1_R0 = -0.00375 / 0.415
BETA1_R1 = -0.03375 / 0.465
J_R0 = (0.05 - 0.08 - 0.375) / (0.04 + 0.375)
J_R1 = (0.05 - 0.05 - 0.375) / (0.09 + 0.375)
BS_CALL_ATM = 10.450583572185565


def savetxt_surface(surf, path):
    """The ``np.savetxt`` writer ``PriceSurface.to_csv`` replaced, kept as
    the oracle of its bytes."""
    g = surf.grid
    k = surf.values.shape[1]
    tt, ss, xx, yy = np.meshgrid(g.t, g.s, np.arange(k), g.y, indexing="ij")
    price = surf.values.transpose(0, 2, 1, 3)
    xi = surf.hedge.transpose(0, 2, 1, 3)
    data = np.column_stack(
        [tt.ravel(), ss.ravel(), xx.ravel(), yy.ravel(), price.ravel(), xi.ravel()]
    )
    np.savetxt(
        path,
        data,
        delimiter=",",
        header="t,s,regime,y,price,xi",
        comments="",
        fmt=["%.17g", "%.17g", "%d", "%.17g", "%.17g", "%.17g"],
    )


def whole_surface_hedge(model, surface):
    """The whole-surface hedge pass the per-layer ``_Hedge``
    replaced, kept as its oracle: one gradient and one ``B1`` product over
    every layer at once."""
    grid = surface.grid
    vals = surface.values
    n_layers, k, ns, ny1 = vals.shape
    s = grid.s
    grad = np.empty_like(vals)
    grad[:, :, 1:-1] = (vals[:, :, 2:] - vals[:, :, :-2]) / (s[2:] - s[:-2])[:, None]
    grad[:, :, 0] = (vals[:, :, 1] - vals[:, :, 0]) / (s[1] - s[0])
    grad[:, :, -1] = (vals[:, :, -1] - vals[:, :, -2]) / (s[-1] - s[-2])
    if model.jump.z.size:
        b1 = _jump_operators(model, grid)[1]
        flat = vals.transpose(2, 0, 1, 3).reshape(ns, -1)
        jump_term = (b1 @ flat).reshape(ns, n_layers, k, ny1).transpose(1, 2, 0, 3)
        jump_term = jump_term / s[None, None, :, None]
    else:
        jump_term = 0.0
    sig2 = np.stack([model.sigma(grid.t, i) for i in range(k)], axis=1)[:, :, None, None] ** 2
    return (sig2 * grad + jump_term) / (sig2 + model.ints.int_eta_sq)


def projection_matrix(log_s, drift, var):
    """The dense ``n x n`` build the structured ``ie`` kernel replaced,
    kept as its oracle: every entry from the normal partial moments of its
    own cell offsets, the tails folded into the two end columns."""
    u = log_s
    n = u.size
    h = u[1] - u[0]
    s = np.exp(u)
    sd = math.sqrt(var)
    x = (u[None, :] - (u[:, None] + drift)) / sd
    cdf = ndtr(x)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mass = cdf[:, 1:] - cdf[:, :-1]
    first = pdf[:, :-1] - pdf[:, 1:]
    rel = drift * mass + sd * first
    offs = u[None, :] - u[:, None]
    mat = np.zeros((n, n))
    mat[:, :-1] += (offs[:, 1:] * mass - rel) / h
    mat[:, 1:] += (rel - offs[:, :-1] * mass) / h
    mean = np.exp(u + drift + 0.5 * var)
    p_lo = cdf[:, 0]
    e_lo = mean * ndtr(x[:, 0] - sd)
    t_lo = (e_lo - s[0] * p_lo) / (s[1] - s[0])
    mat[:, 0] += p_lo - t_lo
    mat[:, 1] += t_lo
    p_hi = ndtr(-x[:, -1])
    e_hi = mean * ndtr(sd - x[:, -1])
    t_hi = (e_hi - s[-1] * p_hi) / (s[-1] - s[-2])
    mat[:, -1] += p_hi + t_hi
    mat[:, -2] -= t_hi
    return mat


def two_row_lookup(surf, arr, t, s, x, y):
    """``PriceSurface`` lookup as it was before its one-age-row path and its
    gathered time blend: the whole time layer blended, then two age rows."""
    grid = surf.grid
    pos = (float(t) - grid.t[0]) / grid.dt
    n0 = int(np.clip(np.floor(pos), 0, grid.t.size - 2))
    wt = float(np.clip(pos - n0, 0.0, 1.0))
    layer = arr[n0] if wt == 0.0 else (1.0 - wt) * arr[n0] + wt * arr[n0 + 1]
    s, x, y = np.broadcast_arrays(
        np.asarray(s, dtype=float), np.asarray(x, dtype=int), np.asarray(y, dtype=float)
    )
    c0, c1, w0, w1 = _spot_stencil(grid, np.log(s))
    n_age = grid.y.size - 1
    pos_y = np.clip((y - grid.y[0]) / grid.dt, 0.0, n_age)
    iy = np.floor(pos_y).astype(int)
    fy = pos_y - iy
    iy1 = np.minimum(iy + 1, n_age)
    lo = w0 * layer[x, c0, iy] + w1 * layer[x, c1, iy]
    hi = w0 * layer[x, c0, iy1] + w1 * layer[x, c1, iy1]
    return (1.0 - fy) * lo + fy * hi


def single_regime_model(mu=0.08, sigma=0.2, jump=None, horizon=1.0):
    return MarketModel(
        rates=RateSpec(n_states=1, rates={}),
        r=[0.05],
        mu=[mu],
        jump=make_jump() if jump is None else jump,
        horizon=horizon,
        sigma_values=[sigma],
    )


def weibull_model():
    """Three regimes switching cyclically 0 -> 1 -> 2 -> 0 with Weibull
    hazards of shape 1.5."""
    rates = RateSpec(
        n_states=3,
        rates={
            (0, 1): WeibullRate(1.2, 1.5),
            (1, 2): WeibullRate(0.9, 1.5),
            (2, 0): WeibullRate(1.5, 1.5),
        },
    )
    jump = JumpSpec.from_density(
        lambda z: 0.5 * np.ones_like(z), (-0.5, 1.0), 201, EtaClamp(1.0, -0.5, 1.0)
    )
    return MarketModel(
        rates=rates, r=[0.05, 0.05, 0.05], mu=[0.08, 0.04, 0.06], jump=jump, horizon=1.0,
        sigma_values=[0.2, 0.3, 0.25],
    )


def tabulated_sigma_model():
    rates = RateSpec(n_states=2, rates={(0, 1): ConstantRate(1.0), (1, 0): ConstantRate(1.0)})
    return MarketModel(
        rates=rates, r=[0.05, 0.04], mu=[0.06, 0.05], jump=make_jump(51), horizon=1.0,
        sigma_table=([0.0, 0.5, 1.0], [[0.2, 0.35, 0.25], [0.3, 0.2, 0.4]]),
    )


@pytest.fixture(scope="module")
def bench():
    return benchmark_model()


@pytest.fixture(scope="module")
def bench_linear_surface(bench):
    grid = build_grid(bench, s_ref=100.0, n_time=50, n_space=601, n_age=50)
    return solve_price(bench, Payoff(kind="linear"), grid)


@pytest.fixture(scope="module")
def bench_call_surface(bench):
    grid = build_grid(bench, s_ref=100.0, n_time=30, n_space=401, n_age=30)
    return solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)


@pytest.fixture(scope="module")
def bs_model():
    return single_regime_model(mu=0.05, jump=empty_jump())


@pytest.fixture(scope="module")
def bs_surface(bs_model):
    grid = build_grid(bs_model, s_ref=100.0, n_time=50, n_space=801, n_age=0)
    return solve_price(bs_model, Payoff(kind="call", strikes=(100.0,)), grid)


class TestPayoffs:
    def test_call_put_values(self):
        c = Payoff(kind="call", strikes=(100.0,))
        p = Payoff(kind="put", strikes=(100.0,))
        s = np.array([50.0, 100.0, 130.0])
        assert_allclose(c(s), [0.0, 0.0, 30.0])
        assert_allclose(p(s), [50.0, 0.0, 0.0])

    def test_butterfly_tent(self):
        b = Payoff(kind="butterfly", strikes=(90.0, 100.0, 120.0))
        # zero outside [K1, K3], peak K2 - K1 at K2, slopes 1 and -1/2
        assert_allclose(b(np.array([80.0, 90.0, 100.0, 120.0, 150.0])), [0, 0, 10, 0, 0], atol=1e-12)
        assert b(110.0) == pytest.approx(5.0)

    def test_table_interp_and_extrapolation(self):
        t = Payoff(kind="table", s_nodes=[50.0, 100.0, 150.0], values=[5.0, 10.0, 30.0])
        assert t(75.0) == pytest.approx(7.5)
        # end slopes 0.1 and 0.4 continue linearly
        assert t(25.0) == pytest.approx(5.0 - 0.1 * 25.0)
        assert t(200.0) == pytest.approx(30.0 + 0.4 * 50.0)

    def test_dict_round_trip(self):
        for p in (
            Payoff(kind="call", strikes=(95.0,)),
            Payoff(kind="butterfly", strikes=(80.0, 100.0, 130.0)),
            Payoff(kind="linear", scale=2.0),
            Payoff(kind="table", s_nodes=[50.0, 150.0], values=[1.0, 2.0]),
        ):
            q = payoff_from_dict(p.to_dict())
            s = np.linspace(10.0, 300.0, 31)
            assert_allclose(q(s), p(s))

    def test_rejects_bad_strikes(self):
        with pytest.raises(ValueError):
            payoff_from_dict({"kind": "call"})
        with pytest.raises(ValueError):
            Payoff(kind="butterfly", strikes=(100.0, 90.0, 120.0))
        with pytest.raises(ValueError):
            Payoff(kind="call", strikes=())
        with pytest.raises(ValueError):
            Payoff(kind="digital", strikes=(100.0,))


class TestBetas:
    def test_benchmark_drift_tilt(self, bench):
        assert float(bench.drift_tilt(0.3, 0)) == pytest.approx(BETA1_R0, rel=1e-12)
        assert float(bench.drift_tilt(0.3, 1)) == pytest.approx(BETA1_R1, rel=1e-12)

    def test_jump_tilt_matches_measure_change(self, bench):
        # Gamma = 1 + J eta on the nodes
        for i, ratio in ((0, J_R0), (1, J_R1)):
            assert float(bench.j_ratio(0.0, i)) == pytest.approx(ratio, rel=1e-12)
            want = 1.0 + ratio * bench.jump.eta_vals
            assert np.abs(bench.jump_tilt(0.0, i) - want).max() <= 1e-12

    def test_tilt_identity(self, bench):
        # beta1 + int Gamma eta dnu = 0
        w, eta = bench.jump.w, bench.jump.eta_vals
        for i in (0, 1):
            for t in (0.0, 0.4):
                beta1 = float(bench.drift_tilt(t, i))
                assert abs(beta1 + np.dot(w, bench.jump_tilt(t, i) * eta)) <= 1e-12

    def test_no_jump_degeneration(self):
        m = single_regime_model(jump=empty_jump())
        assert m.drift_tilt(0.0, 0) == 0.0
        assert m.jump_tilt(0.0, 0).size == 0

    @given(
        sigma=st.floats(0.05, 0.6),
        excess=st.floats(-0.3, 0.3),
        w=st.floats(0.1, 3.0),
        eta=st.floats(-0.9, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tilt_identity_single_atom(self, sigma, excess, w, eta):
        jump = JumpSpec([0.5], [w], EtaTableLike(eta))
        m = MarketModel(
            rates=RateSpec(n_states=1, rates={}),
            r=[0.02],
            mu=[0.02 + excess],
            jump=jump,
            horizon=1.0,
            sigma_values=[sigma],
        )
        beta1 = float(m.drift_tilt(0.0, 0))
        assert abs(beta1 + w * m.jump_tilt(0.0, 0)[0] * eta) <= 1e-12


class EtaTableLike:
    """Constant jump size, for single-atom property tests."""

    def __init__(self, eta):
        self.eta = eta

    def value(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.eta)

    def to_dict(self):
        return {"kind": "table", "z": [0.0, 1.0], "value": [self.eta, self.eta]}


def kernel_moments(model, s, i, t, v):
    """Log-mean and log-variance of the tilted flow from ``(t, s)`` over a
    horizon ``v`` in regime ``i``: lognormal with drift ``r + beta1``."""
    log_var = model.sigma_sq_integral(t, t + v, i)
    log_mean = (
        np.log(s) + model.r[i] * v + model.drift_tilt_integral(t, t + v, i) - 0.5 * log_var
    )
    return log_mean, log_var


class TestKernelParams:
    def test_constant_sigma_closed_form(self, bench):
        assert bench.drift_tilt_integral(0.2, 0.7, 0) == pytest.approx(BETA1_R0 * 0.5, rel=1e-12)
        log_mean, log_var = kernel_moments(bench, s=100.0, i=0, t=0.2, v=0.5)
        assert log_var == pytest.approx(0.04 * 0.5, rel=1e-12)
        want = np.log(100.0) + (0.05 + BETA1_R0 - 0.02) * 0.5
        assert log_mean == pytest.approx(want, rel=1e-12)

    def test_time_varying_sigma(self):
        # sigma(t) = 0.2 + 0.1 t tabulated on two knots
        m = MarketModel(
            rates=RateSpec(n_states=1, rates={}),
            r=[0.05],
            mu=[0.08],
            jump=make_jump(),
            horizon=1.0,
            sigma_table=([0.0, 1.0], [[0.2, 0.3]]),
        )
        log_mean, log_var = kernel_moments(m, s=100.0, i=0, t=0.0, v=1.0)
        assert log_var == pytest.approx(0.19 / 3.0, rel=1e-9)
        tt = np.linspace(0.0, 1.0, 200001)
        sig2 = (0.2 + 0.1 * tt) ** 2
        b1 = (0.03 * 0.375 - sig2 * 0.375) / (sig2 + 0.375)
        ref = np.log(100.0) + 0.05 + np.trapezoid(b1, tt) - 0.19 / 6.0
        assert log_mean == pytest.approx(ref, rel=1e-8)
        assert m.drift_tilt_integral(0.0, 1.0, 0) == pytest.approx(np.trapezoid(b1, tt), rel=1e-8)


class TestGrid:
    def test_reference_spot_is_a_node(self, bench):
        g = build_grid(bench, s_ref=123.4, n_time=20, n_space=200, n_age=20)
        assert np.abs(g.log_s - np.log(123.4)).min() == 0.0
        assert g.s[g.ref_index] == pytest.approx(123.4, rel=1e-15)

    def test_span_covers_diffusion_and_jumps(self, bench):
        g = build_grid(bench, s_ref=100.0, n_time=20, n_space=300, n_age=20)
        half = 6.0 * 0.3 * 1.0  # width * sup sigma * sqrt(T)
        assert g.log_s[0] <= np.log(100.0) - half - abs(np.log(0.5)) + 1e-12
        assert g.log_s[-1] >= np.log(100.0) + half + np.log(2.0) - 1e-12
        du = np.diff(g.log_s)
        assert np.abs(du - du[0]).max() < 1e-12

    def test_age_grid_step_matches_time_step(self, bench):
        g = build_grid(bench, s_ref=100.0, n_time=40, n_space=100, n_age=25)
        assert g.y.size == 26
        assert g.y[1] - g.y[0] == pytest.approx(g.t[1] - g.t[0], rel=1e-15)


class TestJumpOperator:
    def test_matrices_equal_the_node_loop(self, bench, monkeypatch):
        # reference: add node by node, the c0 term, the c1 term, then the
        # diagonal.  Its weights take pos - floor(pos) with pos up to n, so
        # they carry about n eps of rounding; the stencil's do not
        g = build_grid(bench, s_ref=100.0, n_time=10, n_space=201, n_age=0)
        n, rows = g.log_s.size, np.arange(g.log_s.size)
        jump = bench.jump
        ref = [np.zeros((n, n)), np.zeros((n, n))]
        for m, em in enumerate(jump.eta_vals):
            c0, c1, w0, w1 = _spot_stencil(g, g.log_s + math.log1p(em))
            for b, wt in zip(ref, (jump.w, jump.w * jump.eta_vals)):
                b[rows, c0] += wt[m] * w0
                b[rows, c1] += wt[m] * w1
                b[rows, rows] -= wt[m]
        v = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 3))
        for fft in (False, True):
            monkeypatch.setattr(pricing, "_use_fft", lambda n, cols: fft)
            for got, want in zip(_jump_operators(bench, g), ref):
                assert (got.spectrum is not None) == fft
                assert np.abs(got.dense() - want).max() <= 1e-12
                assert np.abs(got @ v - want @ v).max() <= 1e-12 * n

    def test_annihilates_constants(self, bench):
        g = build_grid(bench, s_ref=100.0, n_time=10, n_space=301, n_age=0)
        vals = np.ones((2, 301))
        out = jump_operator(bench, 0.3, g, vals)
        assert np.abs(out).max() <= 1e-12

    def test_linear_payoff_drift_identity(self, bench):
        # int beta2(z) [s(1+eta) - s] dnu = -beta1 * s
        g = build_grid(bench, s_ref=100.0, n_time=10, n_space=2001, n_age=0)
        vals = np.broadcast_to(g.s, (2, g.s.size)).copy()
        out = jump_operator(bench, 0.2, g, vals)
        for i, b1 in ((0, BETA1_R0), (1, BETA1_R1)):
            assert_allclose(out[i], -b1 * g.s, rtol=1e-3)

    def test_norm_bound_random_functions(self, bench):
        g = build_grid(bench, s_ref=100.0, n_time=10, n_space=301, n_age=0)
        s = g.s
        ints = bench.ints
        rng = np.random.default_rng(7)
        du = g.log_s[1] - g.log_s[0]
        # rows whose shifted queries stay on the grid
        lo, hi = bench.jump.eta_vals.min(), bench.jump.eta_vals.max()
        mask = (g.log_s + np.log1p(lo) >= g.log_s[0]) & (g.log_s + np.log1p(hi) <= g.log_s[-1])
        for t in (0.0, 0.7):
            for i in (0, 1):
                gamma = bench.jump_tilt(t, i)
                bound = np.abs(gamma).max() * (2.0 * ints.mass + max(ints.int_eta, 0.0))
                for _ in range(60):
                    gfun = rng.uniform(-1.0, 1.0, s.size)
                    vals = np.zeros((2, s.size))
                    vals[i] = gfun * (1.0 + s)
                    out = jump_operator(bench, t, g, vals)[i]
                    ratio = np.abs(out[mask] / (1.0 + s[mask])).max() / np.abs(gfun).max()
                    # interpolation may look one node beyond the query point
                    assert ratio <= bound * (1.0 + 2.0 * du)

    @pytest.mark.parametrize("shape", [(301,), (3, 301), (2, 300), (2, 300, 4)])
    def test_rejects_values_of_the_wrong_shape(self, bench, shape):
        g = build_grid(bench, s_ref=100.0, n_time=10, n_space=301, n_age=0)
        with pytest.raises(ValueError, match="n_states, n_space"):
            jump_operator(bench, 0.0, g, np.ones(shape))

    def test_empty_measure_gives_zero(self):
        m = single_regime_model(jump=empty_jump())
        g = build_grid(m, s_ref=100.0, n_time=10, n_space=51, n_age=0)
        out = jump_operator(m, 0.0, g, np.random.default_rng(1).normal(size=(1, 51)))
        assert np.all(out == 0.0)


class TestProjectionOperator:
    @given(
        n=st.integers(4, 3201),
        drift=st.floats(-0.2, 0.2),
        var=st.floats(1e-6, 0.5),
        fft=st.booleans(),
    )
    @settings(max_examples=24, deadline=None)
    def test_matches_the_dense_oracle(self, n, drift, var, fft):
        g = build_grid(benchmark_model(), s_ref=100.0, n_time=10, n_space=n, n_age=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pricing, "_use_fft", lambda n, cols: fft)
            op = _projection_operator(g.log_s, drift, var, 3)
        assert (op.spectrum is not None) == fft
        mat = op.dense()
        # the oracle's offsets u_j - u_l carry |u| eps of rounding, which its
        # normal arguments divide by the kernel's width
        atol = 1e-12 + 8.0 * np.finfo(float).eps * np.abs(g.log_s).max() / math.sqrt(var)
        assert_allclose(mat, projection_matrix(g.log_s, drift, var), rtol=1e-12, atol=atol)
        v = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
        scale = (np.abs(mat) @ np.abs(v)).max()
        assert np.abs(op @ v - mat @ v).max() <= 1e-13 * scale

    def test_one_step_defect_by_fft_at_3201_nodes(self, bench, monkeypatch):
        # the FFT path never fills an n x n array
        def no_dense(self):
            raise AssertionError("dense matrix built on the FFT path")

        monkeypatch.setattr(pricing._GridOperator, "dense", no_dense)
        grid = build_grid(bench, s_ref=100.0, n_time=24, n_space=3201, n_age=0)
        engine = _EvolutionEngine(bench, grid)
        assert all(engine.kernel(i, 0.0).matrix is None for i in (0, 1))
        assert all(b.matrix is None for b in engine.jumps)
        ones = np.ones((2, 3201, 1))
        assert np.abs(engine.u_step(ones, grid.t[-2]) - 1.0).max() <= 1e-12


class TestEvolution:
    def test_conserves_constants_age_dependent(self):
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): WeibullRate(1.2, 2.0), (1, 0): ConstantRate(0.8)},
        )
        m = MarketModel(
            rates=rates, r=[0.05, 0.05], mu=[0.05, 0.05], jump=empty_jump(),
            horizon=1.0, sigma_values=[0.2, 0.3],
        )
        g = build_grid(m, s_ref=100.0, n_time=100, n_space=101, n_age=100)
        res = evolution_apply(m, lambda s, i, y: np.ones_like(s), 1.0, g)
        assert np.abs(res.values - 1.0).max() <= 1e-8

    def test_single_step_exact_at_stiff_rates(self):
        # switch mass per step is 1 - exp(-4); endpoint weights are
        # normalized against that exact mass, so constants survive stiffness
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): ConstantRate(40.0), (1, 0): ConstantRate(40.0)},
        )
        m = MarketModel(
            rates=rates, r=[0.0, 0.0], mu=[0.0, 0.0], jump=empty_jump(),
            horizon=1.0, sigma_values=[0.2, 0.3],
        )
        g = build_grid(m, s_ref=100.0, n_time=10, n_space=101, n_age=10)
        ones = np.ones((2, 101, 11))
        out = evolution_step(m, g, ones, t0=0.9)
        assert np.abs(out - 1.0).max() <= 1e-12

    def test_exponential_growth_linear_function(self):
        # identical coefficients across regimes: E[psi] = s exp((r + beta1) dt)
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): WeibullRate(1.0, 2.0), (1, 0): ConstantRate(1.0)},
        )
        m = MarketModel(
            rates=rates, r=[0.05, 0.05], mu=[0.05, 0.05], jump=empty_jump(),
            horizon=0.25, sigma_values=[0.1, 0.1],
        )
        g = build_grid(m, s_ref=100.0, n_time=10, n_space=801, n_age=10)
        res = evolution_apply(m, lambda s, i, y: s, 0.25, g)
        for n, t in enumerate(res.times):
            want = g.s[None, :, None] * np.exp(0.05 * (0.25 - t))
            rel = np.abs(res.values[n] / want - 1.0).max()
            assert rel <= 1e-6

    def test_one_step_matches_quadrature(self):
        m = MarketModel(
            rates=RateSpec(n_states=1, rates={}),
            r=[0.05], mu=[0.05], jump=empty_jump(), horizon=0.3,
            sigma_values=[0.5],
        )
        g = build_grid(m, s_ref=1.0, n_time=1, n_space=1201, n_age=0)
        psi = lambda s, i, y: s / (1.0 + s)
        res = evolution_apply(m, psi, 0.3, g)
        got = res.values[0, 0, g.ref_index, 0]
        mvar = 0.25 * 0.3
        mlog = np.log(1.0) + (0.05 - 0.125) * 0.3
        ref, _ = quad(
            lambda x: (lambda u: u / (1 + u))(np.exp(mlog + np.sqrt(mvar) * x)) * norm.pdf(x),
            -10.0, 10.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert got == pytest.approx(ref, rel=1e-6)

    def test_one_step_with_jump_tilted_drift(self):
        # jumps shift the flow through beta1 even though the flow is continuous
        m = single_regime_model(mu=0.08, sigma=0.5, horizon=0.3)
        g = build_grid(m, s_ref=1.0, n_time=1, n_space=1201, n_age=0)
        res = evolution_apply(m, lambda s, i, y: s / (1.0 + s), 0.3, g)
        got = res.values[0, 0, g.ref_index, 0]
        # lognormal kernel with drift r + beta1, beta1 by hand from the
        # frozen jump integrals (int eta = int eta^2 = 0.375)
        beta1 = (0.03 * 0.375 - 0.25 * 0.375) / (0.25 + 0.375)
        log_var = 0.25 * 0.3
        log_mean = (0.05 + beta1) * 0.3 - 0.5 * log_var
        ref, _ = quad(
            lambda x: (lambda u: u / (1 + u))(np.exp(log_mean + np.sqrt(log_var) * x)) * norm.pdf(x),
            -10.0, 10.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert got == pytest.approx(ref, rel=1e-6)

    def test_matches_monte_carlo_two_regimes(self):
        rates = RateSpec(
            n_states=2,
            rates={(0, 1): ConstantRate(1.0), (1, 0): ConstantRate(1.0)},
        )
        m = MarketModel(
            rates=rates, r=[0.02, 0.08], mu=[0.02, 0.08], jump=empty_jump(),
            horizon=0.5, sigma_values=[0.2, 0.3],
        )

        def psi(s, i, y):
            return s / (100.0 + s) * (1.0 + 0.2 * i) * (1.0 + 0.1 * np.minimum(y, 1.0))

        g = build_grid(m, s_ref=100.0, n_time=25, n_space=601, n_age=25)
        res = evolution_apply(m, psi, 0.5, g)
        got = res.values[0, 1, g.ref_index, 0]

        rng = np.random.default_rng(20240817)
        vals = np.empty(40000)
        for p in range(vals.size):
            path = simulate_asset_path(m, 100.0, 1, 0.0, rng)
            vals[p] = psi(path.spot[-1], path.regime[-1], path.age[-1])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(got - vals.mean()) <= 3.0 * se


class TestSolvePrice:
    def test_black_scholes_call(self, bs_surface):
        got = bs_surface.price(0.0, 100.0, 0, 0.0)
        assert got == pytest.approx(BS_CALL_ATM, rel=2e-3)

    def test_black_scholes_curve(self, bs_surface, bs_model):
        g = bs_surface.grid
        sel = (g.s > 70.0) & (g.s < 145.0)
        ref = bs_call(g.s[sel], 100.0, 0.05, 0.2, 1.0)
        got = bs_surface.values[0, 0, sel, 0]
        assert np.abs(got - ref).max() <= 5e-3 * BS_CALL_ATM

    def test_put_call_parity(self, bs_model):
        grid = build_grid(bs_model, s_ref=100.0, n_time=50, n_space=401, n_age=0)
        call = solve_price(bs_model, Payoff(kind="call", strikes=(100.0,)), grid)
        put = solve_price(bs_model, Payoff(kind="put", strikes=(100.0,)), grid)
        g = grid.s
        sel = (g > 60.0) & (g < 160.0)
        diff = call.values[0, 0, sel, 0] - put.values[0, 0, sel, 0]
        want = g[sel] - 100.0 * np.exp(-0.05)
        assert np.abs(diff - want).max() <= 0.05

    def test_discount_bond_two_regimes(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=50, n_space=201, n_age=50)
        surf = solve_price(bench, Payoff(kind="constant", scale=1.0), grid)
        for n, t in enumerate(grid.t):
            want = np.exp(-0.05 * (1.0 - t))
            assert np.abs(surf.values[n] - want).max() <= 1e-6

    def test_linear_payoff_is_spot(self, bench_linear_surface):
        # discounted spot is a martingale under the pricing measure
        surf = bench_linear_surface
        s = surf.grid.s
        rel = np.abs(surf.values / s[None, None, :, None] - 1.0).max()
        assert rel <= 1e-3

    def test_call_monotone_in_spot(self, bench_call_surface):
        v = bench_call_surface.values[0]
        assert np.diff(v, axis=1).min() >= -1e-9

    def test_butterfly_stays_nonnegative(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=25, n_space=301, n_age=25)
        surf = solve_price(bench, Payoff(kind="butterfly", strikes=(80.0, 100.0, 120.0)), grid)
        assert surf.values.min() >= -1e-8

    def test_growth_envelope(self, bench, bench_call_surface):
        surf = bench_call_surface
        s = surf.grid.s
        ints = bench.ints
        ts = np.linspace(0.0, 1.0, 11)
        sup_b2 = max(np.abs(bench.jump_tilt(ts, i)).max() for i in (0, 1))
        # largest tilted drift rate r + beta1 over regimes and time
        growth = max(float(np.max(bench.r[i] + bench.drift_tilt(ts, i))) for i in (0, 1))
        rate = (
            max(growth, 0.0)
            + np.abs(bench.r).max()
            + sup_b2 * (2.0 * ints.mass + max(ints.int_eta, 0.0))
        )
        k_norm = (np.maximum(s - 100.0, 0.0) / (1.0 + s)).max()
        for n, t in enumerate(surf.grid.t):
            vnorm = np.abs(surf.values[n] / (1.0 + s[None, :, None])).max()
            assert vnorm <= k_norm * np.exp(rate * (1.0 - t)) * (1.0 + 1e-9)

    def test_admissibility_warning(self):
        m = single_regime_model(mu=0.15)
        grid = build_grid(m, s_ref=100.0, n_time=5, n_space=101, n_age=0)
        with pytest.warns(AdmissibilityWarning):
            surf = solve_price(m, Payoff(kind="call", strikes=(100.0,)), grid)
        assert np.all(np.isfinite(surf.values))

    def test_deterministic_rerun(self, bench):
        grid = build_grid(bench, s_ref=100.0, n_time=10, n_space=101, n_age=10)
        a = solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)
        b = solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.hedge, b.hedge)

    def test_tabulated_sigma_builds_each_kernel_once(self, monkeypatch):
        # each step applies the kernels of its t0 twice; they are built once
        m = tabulated_sigma_model()
        grid = build_grid(m, s_ref=100.0, n_time=12, n_space=101, n_age=0)
        payoff = Payoff(kind="call", strikes=(100.0,))
        builds = []
        build = _EvolutionEngine._build_kernel

        def counted(self, i, t0):
            builds.append((i, t0))
            return build(self, i, t0)

        monkeypatch.setattr(_EvolutionEngine, "_build_kernel", counted)
        cached = solve_price(m, payoff, grid)
        assert len(builds) == 12 * 2
        monkeypatch.setattr(_EvolutionEngine, "kernel", lambda self, i, t0: build(self, i, t0))
        rebuilt = solve_price(m, payoff, grid)
        assert np.array_equal(cached.values, rebuilt.values)
        assert np.array_equal(cached.hedge, rebuilt.hedge)

    def test_lookup_rejects_bad_regime_and_age(self, bench_call_surface):
        surf = bench_call_surface
        # a fractional regime used to truncate: 0.9 read regime 0's price
        fractional = (0.9, np.array([0.0, 1.5]), math.nan, math.inf)
        for x, y in ((-1, 0.0), (2, 0.0), (np.array([0, 2]), 0.0), (0, -0.1),
                     *((x, 0.0) for x in fractional)):
            with pytest.raises(ValueError):
                surf.value_at(0.0, 100.0, x, y)
            with pytest.raises(ValueError):
                surf.hedge_at(0.0, 100.0, x, y)
        assert surf.value_at(0.0, 100.0, 1.0, 0.2) == surf.value_at(0.0, 100.0, 1, 0.2)

    def test_surface_interpolation_consistency(self, bench_call_surface):
        surf = bench_call_surface
        g = surf.grid
        # node queries reproduce stored values
        got = surf.price(g.t[3], g.s[40], 1, g.y[2])
        assert got == pytest.approx(surf.values[3, 1, 40, 2], rel=1e-13)
        # off-node queries stay between neighbor values
        mid = np.sqrt(g.s[40] * g.s[41])
        v0, v1 = surf.values[3, 1, 40, 2], surf.values[3, 1, 41, 2]
        assert min(v0, v1) - 1e-12 <= surf.price(g.t[3], mid, 1, g.y[2]) <= max(v0, v1) + 1e-12

    def test_one_age_row_lookup_equals_the_two_row_blend(self, bs_surface):
        surf = bs_surface
        g = surf.grid
        rng = np.random.default_rng(11)
        s = np.concatenate([g.s[::7], rng.uniform(0.5 * g.s[0], 2.0 * g.s[-1], 200)])
        for t in (0.0, g.t[7], 0.5 * (g.t[7] + g.t[8]), 0.33, 1.0):
            for y in (0.0, 0.25, np.linspace(0.0, 2.0, s.size)):
                for arr, at in ((surf.values, surf.value_at), (surf.hedge, surf.hedge_at)):
                    want = two_row_lookup(surf, arr, t, s, 0, y)
                    assert np.array_equal(at(t, s, 0, y), want)

    @pytest.mark.parametrize("name", ["bs_surface", "bench_call_surface"])
    def test_lookup_time_blend_equals_the_whole_layer_blend(self, name, request):
        # n_age 0 and 30; on-node, off-node and clamped times
        surf = request.getfixturevalue(name)
        g = surf.grid
        rng = np.random.default_rng(5)
        s = np.concatenate([g.s[::9], rng.uniform(0.5 * g.s[0], 2.0 * g.s[-1], 150)])
        x = rng.integers(0, surf.values.shape[1], s.size)
        y = rng.uniform(0.0, 1.2 * g.y[-1] + 0.1, s.size)
        for t in (0.0, g.t[7], 0.5 * (g.t[7] + g.t[8]), 0.33, g.t[-1], 1.5):
            for arr, at in ((surf.values, surf.value_at), (surf.hedge, surf.hedge_at)):
                assert np.array_equal(at(t, s, x, y), two_row_lookup(surf, arr, t, s, x, y))
                assert at(t, 101.0, 0, 0.2) == two_row_lookup(surf, arr, t, 101.0, 0, 0.2)

    def test_off_grid_reads_extrapolate_linearly_in_spot(self, bench_call_surface):
        surf = bench_call_surface
        g = surf.grid
        n, x = 3, 1
        y = 0.5 * (g.y[2] + g.y[3])

        def node(col):
            return 0.5 * (surf.values[n, x, col, 2] + surf.values[n, x, col, 3])

        below, above = g.s[0] * np.array([0.3, 0.9]), g.s[-1] * np.array([1.1, 3.0])
        for c0, c1, s in ((0, 1, below), (-2, -1, above)):
            ref = node(c0) + (node(c1) - node(c0)) * (s - g.s[c0]) / (g.s[c1] - g.s[c0])
            assert_allclose(surf.value_at(g.t[n], s, x, y), ref, rtol=1e-12, atol=1e-12)

    def test_jump_operator_matches_surface_reads(self, bench, bench_call_surface):
        # B(t) psi = sum_m w_m Gamma_m(t) (psi(s (1 + eta_m)) - psi(s)), with
        # psi read off the surface: the solver and the lookup share one stencil
        surf = bench_call_surface
        g = surf.grid
        n = 3
        got = jump_operator(bench, g.t[n], g, surf.values[n])
        jump = bench.jump
        shifted_s = g.s[None, :, None] * (1.0 + jump.eta_vals[:, None, None])
        for i in range(bench.n_states):
            here = surf.value_at(g.t[n], g.s[:, None], i, g.y)
            diff = surf.value_at(g.t[n], shifted_s, i, g.y) - here
            ref = np.tensordot(jump.w * bench.jump_tilt(g.t[n], i), diff, axes=1)
            assert_allclose(got[i], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    def test_csv_round_trip(self, bench, tmp_path):
        grid = build_grid(bench, s_ref=100.0, n_time=4, n_space=21, n_age=4)
        surf = solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data.size == 5 * 21 * 2 * 5
        k = 3 * (21 * 2 * 5) + 7 * (2 * 5) + 1 * 5 + 2
        assert data["price"][k] == pytest.approx(surf.values[3, 1, 7, 2], rel=1e-15)
        assert data["xi"][k] == pytest.approx(surf.hedge[3, 1, 7, 2], rel=1e-15)

    @pytest.mark.parametrize("case", ["ie-with-age-rows", "fd-without-age-rows", "special-values"])
    def test_csv_bytes_equal_the_savetxt_writer(self, bench, tmp_path, case):
        payoff = Payoff(kind="call", strikes=(100.0,))
        if case == "ie-with-age-rows":
            surf = solve_price(bench, payoff, build_grid(bench, 100.0, 6, 41, n_age=6))
        elif case == "fd-without-age-rows":
            surf = solve_price_fd(bench, payoff, build_grid(bench, 100.0, 16, 41, n_age=0))
        else:
            grid = build_grid(bench, s_ref=100.0, n_time=2, n_space=5, n_age=2)
            special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308,
                       0.1, 1.0 / 3.0, -2.5e-17, 123456789.0, 1e16, 1e17]
            pick = np.random.default_rng(3).integers(0, len(special), (2, 3, 2, 5, 3))
            values = np.asarray(special)[pick]
            surf = PriceSurface(grid=grid, values=values[0], hedge=values[1])
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        surf.to_csv(new)
        savetxt_surface(surf, old)
        assert new.read_bytes() == old.read_bytes()

    def test_failed_rewrite_keeps_the_whole_old_file(self, bench, tmp_path, monkeypatch):
        grid = build_grid(bench, s_ref=100.0, n_time=4, n_space=21, n_age=4)
        surf = solve_price(bench, Payoff(kind="call", strikes=(100.0,)), grid)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        before = out.read_bytes()

        def first_layer_then_fail(*args):
            yield next(rows(*args))
            raise OSError("disk full")

        rows = pricing.surface_rows
        monkeypatch.setattr(pricing, "surface_rows", first_layer_then_fail)
        with pytest.raises(OSError, match="disk full"):
            surf.to_csv(out)
        assert out.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["surface.csv"]


def random_surface(n_layers, n_space, n_age, k, seed=0):
    """A surface of random prices and hedges, with a few special values,
    on ``n_layers`` times, ``k`` regimes and ``n_age + 1`` age rows."""
    grid = SurfaceGrid(
        t=np.linspace(0.0, 1.0, n_layers),
        log_s=np.linspace(3.5, 5.5, n_space),
        y=np.linspace(0.0, 0.5, n_age + 1),
        s_ref=100.0,
        ref_index=n_space // 2,
    )
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, n_layers, k, n_space, n_age + 1)) * 10.0 ** rng.integers(
        -20, 20, (2, n_layers, k, n_space, n_age + 1)
    )
    values.ravel()[:4] = [-0.0, np.nan, np.inf, 5e-324]
    return PriceSurface(grid=grid, values=values[0], hedge=values[1])


def one_process_bytes(surf):
    g = surf.grid
    return "".join(pricing.surface_rows(g.t, g.s, g.y, surf.values, surf.hedge)).encode()


@pytest.fixture
def count_forks(monkeypatch):
    """Below-crossover surfaces take the forked path; returns the list of
    part files forked so far."""
    monkeypatch.setattr(_artifacts, "_FORK_MIN_ROWS", 0)
    forked, fork_writer = [], _artifacts._fork_writer

    def counted(part, chunks):
        forked.append(part.name)
        return fork_writer(part, chunks)

    monkeypatch.setattr(_artifacts, "_fork_writer", counted)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def two_blocks(monkeypatch):
    """The forked path, whatever the host's CPU count."""
    monkeypatch.setattr(pricing, "layer_blocks", lambda n, rows: [(0, n // 2), (n // 2, n)])


class TestForkedSurfaceWriter:
    @pytest.mark.parametrize(
        "n_layers, n_age, k",
        [(1, 0, 2), (2, 0, 1), (2, 3, 3), (5, 0, 2), (5, 2, 1), (6, 4, 3), (9, 1, 2)],
    )
    def test_bytes_equal_one_process(self, tmp_path, count_forks, n_layers, n_age, k):
        surf = random_surface(n_layers, 7, n_age, k)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        assert out.read_bytes() == one_process_bytes(surf)
        forks = len(os.sched_getaffinity(0)) >= 2 and n_layers >= 2
        assert len(count_forks) == forks
        assert [f.name for f in tmp_path.iterdir()] == ["surface.csv"]
        assert_no_child_left()

    @pytest.mark.parametrize("n_layers, split", [(3, 0), (3, 1), (4, 3), (7, 7)])
    def test_any_split_point(self, tmp_path, count_forks, monkeypatch, n_layers, split):
        # an empty block, either side, holds no rows; the header is the first's
        surf = random_surface(n_layers, 5, 2, 3)
        monkeypatch.setattr(pricing, "layer_blocks", lambda n, rows: [(0, split), (split, n)])
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        assert out.read_bytes() == one_process_bytes(surf)
        assert len(count_forks) == 1
        assert_no_child_left()

    def test_failed_fork_leaves_the_rows_to_the_parent(self, tmp_path, monkeypatch):
        # no process to be had: the parent formats the child's half itself
        surf = random_surface(6, 9, 2, 2)
        two_blocks(monkeypatch)

        calls = []

        def no_fork():
            calls.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(_artifacts.os, "fork", no_fork)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        assert calls == [1]
        assert out.read_bytes() == one_process_bytes(surf)
        assert [f.name for f in tmp_path.iterdir()] == ["surface.csv"]
        assert_no_child_left()

    def test_blocks_follow_cpus_layers_and_crossover(self, monkeypatch):
        two = len(os.sched_getaffinity(0)) >= 2
        rows = _artifacts._FORK_MIN_ROWS
        assert _artifacts.layer_blocks(40, 2 * rows - 1) == [(0, 40)]
        assert _artifacts.layer_blocks(40, 2 * rows) == ([(0, 20), (20, 40)] if two else [(0, 40)])
        assert _artifacts.layer_blocks(7, 100 * rows) == ([(0, 3), (3, 7)] if two else [(0, 7)])
        assert _artifacts.layer_blocks(1, 100 * rows) == [(0, 1)]
        # no more than two processes, however many CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert _artifacts.layer_blocks(40, 100 * rows) == [(0, 20), (20, 40)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _artifacts.layer_blocks(40, 100 * rows) == [(0, 40)]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _artifacts.layer_blocks(40, 100 * rows) == [(0, 40)]

    @pytest.mark.parametrize(
        "cpus, pin", [({39, 40}, {40}), ({7, 39}, {7}), ({0}, None), ({39, 40, 41}, None)]
    )
    def test_child_is_pinned_only_beside_one_other_cpu(self, monkeypatch, cpus, pin):
        # a stat line whose field 39, the CPU this thread last ran on, reads 39
        stat = "1 (a b) " + " ".join(str(n) for n in range(3, 53))
        monkeypatch.setattr(_artifacts, "open", lambda *a, **k: io.StringIO(stat), raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        pinned = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pinned.append(mask))
        _artifacts._place_beside_this_thread(12345)
        assert pinned == ([] if pin is None else [pin])

    def _old_file_then(self, tmp_path, monkeypatch, fail_in):
        """Rewrite a surface with ``surface_rows`` failing in the parent's
        block or a child's; checks that the old file and nothing else is
        left, and no child, and returns the raised error."""
        surf = random_surface(6, 9, 2, 2)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        before = out.read_bytes()
        first_t, rows = surf.grid.t[0], pricing.surface_rows

        def failing_rows(t, *args):
            in_parent = t[0] == first_t
            for n, chunk in enumerate(rows(t, *args)):
                if n == 2 and in_parent == (fail_in == "parent"):
                    raise OSError("disk full")
                if not in_parent and fail_in == "parent":
                    time.sleep(20)          # a child the parent must kill
                yield chunk

        monkeypatch.setattr(pricing, "surface_rows", failing_rows)
        start = time.perf_counter()
        with pytest.raises(OSError) as info:
            surf.to_csv(out)
        assert time.perf_counter() - start < 15.0
        assert out.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["surface.csv"]
        assert_no_child_left()
        return info.value

    def test_failed_child_fails_the_write(self, tmp_path, count_forks, monkeypatch):
        two_blocks(monkeypatch)
        err = self._old_file_then(tmp_path, monkeypatch, "child")
        assert "failed (exit code 1)" in str(err)

    def test_failure_in_the_parent_kills_the_child(self, tmp_path, count_forks, monkeypatch):
        two_blocks(monkeypatch)
        err = self._old_file_then(tmp_path, monkeypatch, "parent")
        assert str(err) == "disk full"
        assert count_forks


class TestHedgeRatio:
    def test_linear_payoff_holds_one_share(self, bench_linear_surface):
        # the hedge inherits the solve's own relative price bias (< 1e-3),
        # so its tolerance is twice the price tolerance
        h = bench_linear_surface.hedge
        assert np.abs(h - 1.0).max() <= 2e-3

    def test_black_scholes_delta(self, bs_surface):
        g = bs_surface.grid
        sel = (g.s > 70.0) & (g.s < 140.0)
        d1 = (np.log(g.s[sel] / 100.0) + (0.05 + 0.02)) / 0.2
        got = bs_surface.hedge[0, 0, sel, 0]
        assert np.abs(got - norm.cdf(d1)).max() <= 2e-3

    def test_explicit_call_matches_stored(self, bench, bench_call_surface):
        h = hedge_ratio(bench, bench_call_surface)
        assert np.array_equal(h, bench_call_surface.hedge)

    def test_explicit_call_hedges_a_surface_no_solver_takes(self, bench_call_surface):
        # one time node, age rows two steps apart, and a Weibull shape-0.5
        # exit (infinite at age 0): the solvers refuse each, the hedge reads
        # none of them
        g = bench_call_surface.grid
        grid = SurfaceGrid(g.t[:1], g.log_s, np.array([0.0, 2.0 * g.dt]), g.s_ref, g.ref_index)
        values = np.repeat(bench_call_surface.values[:1, :, :, :1], 2, axis=3)
        rates = RateSpec(n_states=2, rates={(0, 1): WeibullRate(1.0, 0.5), (1, 0): ConstantRate(1.0)})
        model = MarketModel(
            rates=rates, r=[0.05, 0.04], mu=[0.06, 0.05], jump=make_jump(51), horizon=1.0,
            sigma_values=[0.2, 0.3],
        )
        with pytest.raises(ValueError):
            _EvolutionEngine(model, grid)
        surf = PriceSurface(grid, values, np.zeros_like(values))
        want = whole_surface_hedge(model, surf)
        assert np.abs(hedge_ratio(model, surf) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "solver, name, n_time, n_space, n_age",
        [
            ("ie", "markov", 12, 201, 0),
            ("fd", "markov", 16, 301, None),
            ("ie", "weibull", 12, 301, None),
            ("fd", "weibull", 16, 601, 5),
            ("ie", "weibull", 8, 1601, 0),
            ("ie", "tabulated-sigma", 12, 601, 4),
            ("fd", "tabulated-sigma", 16, 201, 0),
            ("ie", "one-regime", 8, 1601, 0),
            ("fd", "one-regime", 16, 601, None),
            ("ie", "no-jumps", 12, 301, 3),
            ("fd", "no-jumps", 16, 601, 0),
        ],
    )
    def test_layer_hedges_match_the_whole_surface_pass(self, solver, name, n_time, n_space, n_age):
        # dense (201, 301 nodes) and FFT (601, 1601) jump products, which
        # now run over one layer's columns instead of every layer's
        model = {
            "markov": benchmark_model,
            "weibull": weibull_model,
            "tabulated-sigma": tabulated_sigma_model,
            "one-regime": single_regime_model,
            "no-jumps": lambda: single_regime_model(jump=empty_jump()),
        }[name]()
        grid = build_grid(model, s_ref=100.0, n_time=n_time, n_space=n_space, n_age=n_age)
        solve = solve_price if solver == "ie" else solve_price_fd
        surf = solve(model, Payoff(kind="call", strikes=(100.0,)), grid)
        want = whole_surface_hedge(model, surf)
        assert np.abs(surf.hedge - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("solve", [solve_price, solve_price_fd])
    def test_solver_memory_stays_within_three_surfaces(self, solve):
        # prices and hedges are two surfaces; the hedge of each layer is
        # filled as the layer is, so the step's temporaries are layer-sized
        model = weibull_model()
        grid = build_grid(model, s_ref=100.0, n_time=32, n_space=301)
        payoff = Payoff(kind="call", strikes=(100.0,))
        tracemalloc.start()
        try:
            surf = solve(model, payoff, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * surf.values.nbytes

    def test_bounded_by_twice_max_slope(self, bench_call_surface):
        surf = bench_call_surface
        s = surf.grid.s
        grad = np.gradient(surf.values, s, axis=2)
        assert np.abs(surf.hedge).max() < 2.0 * np.abs(grad).max()
