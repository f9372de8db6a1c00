"""Tests for the market model: jump-measure reduction, admissibility,
measure change, and exact-in-law path simulation.

Benchmark oracle (frozen by hand): uniform jump density on [-1/2, 1] with
clamped linear jump size eta(z) = max(min(z, 1), -1/2) gives

    int eta dnu  = int_{-1/2}^{1} z dz   = 3/8
    int eta^2 dnu = int_{-1/2}^{1} z^2 dz = 3/8
    total mass    = 3/2
    quadratic growth rate c = (2*3/8 + 3/8) / (3/2) = 3/4

and with r = 0.05, sigma = 0.2 the measure-change ratio for mu = 0.08 is
(0.05 - 0.08 - 0.375) / (0.04 + 0.375) = -0.405/0.415, admissible since
its worst product with eta stays above -1; mu = 0.15 gives -0.475/0.415
whose product with eta at z = 1 falls below -1.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smjd.market import (
    EtaClamp,
    EtaTable,
    JumpSpec,
    MarketModel,
    check_no_arbitrage,
    jump_integrals,
    market_model_from_dict,
    radon_nikodym_path,
    simulate_asset_path,
)
from smjd.regimes import rate_spec_from_dict

INT_ETA = 0.375
INT_ETA2 = 0.375
MASS = 1.5
C_RATE = 0.75


def make_jump(n: int = 201) -> JumpSpec:
    return JumpSpec.from_density(
        density=lambda z: np.ones_like(z),
        interval=(-0.5, 1.0),
        n=n,
        eta=EtaClamp(slope=1.0, lo=-0.5, hi=1.0),
    )


def single_regime_model(mu: float = 0.08, jump: JumpSpec | None = None) -> MarketModel:
    rates = rate_spec_from_dict({"states": 1, "rates": []})
    return MarketModel(
        rates=rates,
        r=np.array([0.05]),
        mu=np.array([mu]),
        sigma_values=np.array([0.2]),
        jump=jump if jump is not None else make_jump(),
        horizon=1.0,
    )


def two_regime_model() -> MarketModel:
    rates = rate_spec_from_dict(
        {
            "states": 2,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": 1.0}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        }
    )
    return MarketModel(
        rates=rates,
        r=np.array([0.05, 0.05]),
        mu=np.array([0.08, 0.05]),
        sigma_values=np.array([0.2, 0.3]),
        jump=make_jump(),
        horizon=1.0,
    )


# ---------------------------------------------------------------------------
# Jump integrals
# ---------------------------------------------------------------------------


class TestJumpIntegrals:
    def test_uniform_clamp_benchmark(self):
        ints = jump_integrals(make_jump(201))
        assert ints.int_eta == pytest.approx(INT_ETA, abs=1e-10)
        assert ints.int_eta_sq == pytest.approx(INT_ETA2, abs=1e-10)
        assert ints.mass == pytest.approx(MASS, abs=1e-10)
        assert ints.quad_growth_rate == pytest.approx(C_RATE, abs=1e-10)

    def test_node_count_is_oddified(self):
        # an even request is promoted to the next odd count for the
        # composite Simpson rule
        spec = JumpSpec.from_density(
            density=lambda z: np.ones_like(z),
            interval=(-0.5, 1.0),
            n=200,
            eta=EtaClamp(slope=1.0, lo=-0.5, hi=1.0),
        )
        assert spec.z.size == 201

    def test_single_atom_arithmetic(self):
        spec = JumpSpec(
            z=np.array([0.1]), w=np.array([2.0]), eta=EtaClamp(slope=1.0, lo=-0.5, hi=1.0)
        )
        ints = jump_integrals(spec)
        assert ints.int_eta == pytest.approx(0.2, abs=1e-14)
        assert ints.int_eta_sq == pytest.approx(0.02, abs=1e-14)
        assert ints.mass == pytest.approx(2.0, abs=1e-14)
        assert ints.quad_growth_rate == pytest.approx((2 * 0.2 + 0.02) / 2.0, abs=1e-14)

    def test_empty_measure(self):
        spec = JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        ints = jump_integrals(spec)
        assert ints.mass == 0.0 and ints.int_eta == 0.0 and ints.quad_growth_rate == 0.0

    def test_eta_bound_enforced(self):
        with pytest.raises(ValueError):
            EtaClamp(slope=1.0, lo=-1.0, hi=1.0)
        with pytest.raises(ValueError):
            EtaTable(z=[0.0, 1.0], value=[-1.2, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            JumpSpec(z=np.array([0.1]), w=np.array([-1.0]), eta=EtaClamp(1.0, -0.5, 1.0))


@given(z=st.floats(-0.4, 2.0), w=st.floats(0.01, 5.0))
@settings(max_examples=50, deadline=None)
def test_atom_integrals_property(z, w):
    eta = EtaClamp(slope=1.0, lo=-0.5, hi=1.0)
    ints = jump_integrals(JumpSpec(z=np.array([z]), w=np.array([w]), eta=eta))
    e = min(max(z, -0.5), 1.0)
    assert math.isclose(ints.int_eta, w * e, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(ints.int_eta_sq, w * e * e, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


class TestNoArbitrage:
    def test_benchmark_passes_with_margin(self):
        report = check_no_arbitrage(single_regime_model(mu=0.08))
        assert report.passed
        expected = 1.0 + (0.05 - 0.08 - INT_ETA) / (0.04 + INT_ETA2) * 1.0
        assert report.worst_margin == pytest.approx(expected, abs=1e-9)

    def test_high_drift_fails_at_top_node(self):
        report = check_no_arbitrage(single_regime_model(mu=0.15))
        assert not report.passed
        assert report.witness_z == pytest.approx(1.0, abs=1e-12)
        expected = 1.0 + (0.05 - 0.15 - INT_ETA) / (0.04 + INT_ETA2) * 1.0
        assert report.worst_margin == pytest.approx(expected, abs=1e-9)

    def test_two_regime_benchmark_passes(self):
        report = check_no_arbitrage(two_regime_model())
        assert report.passed
        assert report.worst_margin > 0.0

    def test_no_jumps_always_passes(self):
        model = single_regime_model(
            mu=0.4, jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        )
        assert check_no_arbitrage(model).passed


# ---------------------------------------------------------------------------
# Measure change coefficients
# ---------------------------------------------------------------------------


class TestMmmCoefficients:
    def test_ratio_value(self):
        ratio = float(single_regime_model(mu=0.08).j_ratio(0.0, 0))
        assert ratio == pytest.approx((0.05 - 0.08 - INT_ETA) / (0.04 + INT_ETA2), rel=1e-12)

    def test_girsanov_drift(self):
        # the Brownian shift J sigma moves the log drift by J sigma^2
        model = single_regime_model(mu=0.08)
        ratio = (0.05 - 0.08 - INT_ETA) / (0.04 + INT_ETA2)
        want = 0.08 - 0.05 + ratio * 0.04
        assert float(model.drift_tilt(0.0, 0)) == pytest.approx(want, rel=1e-12)

    def test_gamma_positive_iff_admissible(self):
        good = single_regime_model(mu=0.08)
        bad = single_regime_model(mu=0.15)
        assert np.all(good.jump_tilt(0.0, 0) > 0.0) and check_no_arbitrage(good).passed
        assert np.any(bad.jump_tilt(0.0, 0) <= 0.0) and not check_no_arbitrage(bad).passed

    def test_diffusive_degeneration(self):
        model = single_regime_model(
            mu=0.08, jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        )
        ratio = float(model.j_ratio(0.0, 0))
        assert ratio == pytest.approx((0.05 - 0.08) / 0.04, rel=1e-12)
        assert ratio * 0.2 == pytest.approx((0.05 - 0.08) / 0.2, rel=1e-12)
        # without jumps the Brownian shift removes the whole excess drift
        assert model.drift_tilt(0.0, 0) == 0.0
        assert model.jump_tilt(0.0, 0).size == 0


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


class TestAssetPath:
    def test_internal_consistency(self):
        model = two_regime_model()
        rng = np.random.default_rng(42)
        for _ in range(50):
            path = simulate_asset_path(model, s0=100.0, x0=0, y0=0.0, rng=rng)
            assert np.all(path.spot > 0.0)
            # terminal spot reconstructs exactly from continuous increments
            # and jump multipliers
            s_rebuilt = 100.0 * math.exp(np.sum(path.seg_dlns)) * np.prod(
                1.0 + model.jump.eta_at(path.jump_z)
            )
            assert path.spot[-1] == pytest.approx(s_rebuilt, rel=1e-12)

    def test_requested_grid_recorded(self):
        model = two_regime_model()
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 5)
        path = simulate_asset_path(model, 100.0, 0, 0.0, rng, record_times=grid)
        recorded = path.times[path.events == "grid"]
        for t in grid:
            assert np.any(np.isclose(recorded, t))

    def test_age_resets_at_regime_rows(self):
        model = two_regime_model()
        rng = np.random.default_rng(3)
        for _ in range(20):
            path = simulate_asset_path(model, 100.0, 0, 0.0, rng)
            switch = path.events == "regime"
            if np.any(switch):
                assert np.all(path.age[switch] == 0.0)

    def test_deterministic_given_seed(self):
        model = two_regime_model()
        a = simulate_asset_path(model, 100.0, 0, 0.0, np.random.default_rng(7))
        b = simulate_asset_path(model, 100.0, 0, 0.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a.spot, b.spot)
        np.testing.assert_array_equal(a.times, b.times)

    def test_terminal_mean_single_regime(self):
        # E[S_T] = s0 * exp((mu + int eta dnu) T) for one regime
        model = single_regime_model(mu=0.08)
        rng = np.random.default_rng(2024)
        n = 20_000
        s_t = np.array(
            [simulate_asset_path(model, 100.0, 0, 0.0, rng).spot[-1] for _ in range(n)]
        )
        target = 100.0 * math.exp(0.08 + INT_ETA)
        se = s_t.std(ddof=1) / math.sqrt(n)
        assert abs(s_t.mean() - target) < 3.0 * se

    def test_jump_second_moment_identity(self):
        # the squared jump product has mean exp(c * mass * T)
        model = single_regime_model(mu=0.08)
        rng = np.random.default_rng(99)
        n = 20_000
        stat = np.empty(n)
        for m in range(n):
            path = simulate_asset_path(model, 100.0, 0, 0.0, rng)
            stat[m] = np.prod((1.0 + model.jump.eta_at(path.jump_z)) ** 2)
        target = math.exp(C_RATE * MASS * 1.0)
        se = stat.std(ddof=1) / math.sqrt(n)
        assert abs(stat.mean() - target) < 3.0 * se

    def test_csv_round_trip(self, tmp_path):
        model = two_regime_model()
        path = simulate_asset_path(
            model, 100.0, 0, 0.0, np.random.default_rng(5), record_times=np.linspace(0, 1, 11)
        )
        f = tmp_path / "path.csv"
        path.to_csv(f)
        header = f.read_text().splitlines()[0]
        assert header == "t,S,X,Y,event,z"
        data = np.genfromtxt(f, delimiter=",", names=True, dtype=None, encoding="utf-8")
        np.testing.assert_allclose(data["S"], path.spot, rtol=1e-15)

    def test_csv_bytes_equal_the_row_writer(self, tmp_path):
        model = two_regime_model()
        rng = np.random.default_rng(0)
        path = simulate_asset_path(model, 100.0, 0, 0.0, rng, record_times=np.linspace(0, 1, 11))
        assert {"grid", "regime", "jump"} <= set(path.events.tolist())
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        path.to_csv(new)
        # the row-by-row writer to_csv replaced, kept as the oracle of its bytes
        with open(old, "w", encoding="utf-8") as fh:
            fh.write("t,S,X,Y,event,z\n")
            for t, s, x, y, ev, z in zip(
                path.times, path.spot, path.regime, path.age, path.events, path.z_marks
            ):
                fh.write(f"{t:.17g},{s:.17g},{int(x)},{y:.17g},{ev},{z:.17g}\n")
        assert new.read_bytes() == old.read_bytes()


# ---------------------------------------------------------------------------
# Density of the measure change
# ---------------------------------------------------------------------------


class TestRadonNikodym:
    def test_diffusive_closed_form_per_path(self):
        # without jumps, Z_T = exp(phi W_T - phi^2 T / 2) exactly
        model = single_regime_model(
            mu=0.08, jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        )
        phi = (0.05 - 0.08) / 0.2
        rng = np.random.default_rng(11)
        for _ in range(20):
            path = simulate_asset_path(model, 100.0, 0, 0.0, rng)
            w_t = float(np.sum(path.seg_dw))
            z = radon_nikodym_path(model, path)
            assert z == pytest.approx(math.exp(phi * w_t - 0.5 * phi * phi), rel=1e-12)

    def test_unit_mean(self):
        model = two_regime_model()
        rng = np.random.default_rng(321)
        n = 20_000
        z = np.array(
            [radon_nikodym_path(model, simulate_asset_path(model, 100.0, 0, 0.0, rng)) for _ in range(n)]
        )
        se = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - 1.0) < 3.0 * se

    def test_reweighted_discounted_spot_is_martingale(self):
        model = two_regime_model()
        rng = np.random.default_rng(777)
        n = 20_000
        stat = np.empty(n)
        for m in range(n):
            path = simulate_asset_path(model, 100.0, 0, 0.0, rng)
            stat[m] = radon_nikodym_path(model, path) * math.exp(-path.int_r) * path.spot[-1]
        se = stat.std(ddof=1) / math.sqrt(n)
        assert abs(stat.mean() - 100.0) < 3.0 * se


# ---------------------------------------------------------------------------
# Mean-variance tradeoff
# ---------------------------------------------------------------------------


class TestMvTradeoff:
    # the local mean-variance tradeoff of the discounted stock is -J: per
    # unit of stock its drift adjustment is -J / s*, its rate -J * excess
    def test_benchmark_values(self):
        ratio = float(single_regime_model(mu=0.08).j_ratio(0.0, 0))
        assert -ratio / 100.0 == pytest.approx(
            (0.08 - 0.05 + INT_ETA) / (100.0 * (0.04 + INT_ETA2)), rel=1e-12
        )
        assert -ratio * (0.08 - 0.05 + INT_ETA) == pytest.approx(
            (0.08 - 0.05 + INT_ETA) ** 2 / (0.04 + INT_ETA2), rel=1e-12
        )

    def test_zero_when_already_martingale(self):
        # mu = r and no jumps: nothing to correct
        model = single_regime_model(
            mu=0.05, jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        )
        assert model.j_ratio(0.0, 0) == 0.0
        assert model.drift_tilt(0.0, 0) == 0.0


# ---------------------------------------------------------------------------
# Time-dependent volatility and serialization
# ---------------------------------------------------------------------------


class TestSigmaTable:
    def test_variance_integral_precision(self):
        # sigma(t) = 0.2 + 0.1 t: the squared integral over [0, 1] is
        # 0.04 + 0.02 + 0.01/3
        rates = rate_spec_from_dict({"states": 1, "rates": []})
        model = MarketModel(
            rates=rates,
            r=np.array([0.05]),
            mu=np.array([0.05]),
            sigma_table=(np.array([0.0, 1.0]), np.array([[0.2, 0.3]])),
            jump=make_jump(),
            horizon=1.0,
        )
        got = model.sigma_sq_integral(0.0, 1.0, 0)
        assert got == pytest.approx(0.04 + 0.02 + 0.01 / 3.0, rel=1e-12)
        assert model.sigma(0.5, 0) == pytest.approx(0.25, rel=1e-14)

    def test_positive_sigma_required(self):
        rates = rate_spec_from_dict({"states": 1, "rates": []})
        with pytest.raises(ValueError):
            MarketModel(
                rates=rates,
                r=np.array([0.05]),
                mu=np.array([0.05]),
                sigma_values=np.array([0.0]),
                jump=make_jump(),
                horizon=1.0,
            )


def test_model_dict_round_trip():
    # the dict form of two_regime_model parses to the same model
    model = two_regime_model()
    clone = market_model_from_dict(
        {
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
                "n": 201,
            },
            "T": 1.0,
        }
    )
    assert clone.n_states == 2
    assert clone.horizon == model.horizon
    np.testing.assert_array_equal(clone.r, model.r)
    np.testing.assert_array_equal(clone.mu, model.mu)
    np.testing.assert_array_equal(clone.sigma_values, model.sigma_values)
    np.testing.assert_array_equal(clone.jump.z, model.jump.z)
    np.testing.assert_array_equal(clone.jump.w, model.jump.w)
    np.testing.assert_array_equal(clone.jump.eta_vals, model.jump.eta_vals)
    assert jump_integrals(clone.jump).int_eta == pytest.approx(INT_ETA, abs=1e-10)
