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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import (
    benchmark_model,
    loop_path_record,
    loop_simulate_asset_path,
    make_jump,
    sigma_table_model,
    weibull_model,
)

from smjd import market
from smjd.market import (
    EtaClamp,
    EtaTable,
    JumpSpec,
    MarketModel,
    PathRecord,
    check_no_arbitrage,
    jump_integrals,
    market_model_from_dict,
    radon_nikodym_path,
    simulate_asset_path,
)
from smjd.regimes import RegimePath, rate_spec_from_dict

INT_ETA = 0.375
INT_ETA2 = 0.375
MASS = 1.5
C_RATE = 0.75


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
        report = check_no_arbitrage(benchmark_model())
        assert report.passed
        assert report.worst_margin > 0.0

    def test_no_jumps_always_passes(self):
        model = single_regime_model(
            mu=0.4, jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0))
        )
        assert check_no_arbitrage(model).passed

    def test_sigma_knots_past_the_horizon_are_not_checked(self):
        # sigma falls to 0.1 only at t = 2, past T = 1: the tilt is
        # positive on [0, T], as for the table cut at T
        def model(t, values):
            return MarketModel(
                rates=rate_spec_from_dict({"states": 1, "rates": []}), r=[0.0], mu=[2.0],
                jump=JumpSpec(z=[-0.4, 0.8], w=[1.0, 1.0], eta=EtaClamp(1.0, -0.5, 1.0)),
                horizon=1.0, sigma_table=(np.array(t), np.array([values])),
            )

        report = check_no_arbitrage(model([0.0, 1.0, 2.0], [1.2, 1.2, 0.1]))
        assert report == check_no_arbitrage(model([0.0, 1.0], [1.2, 1.2]))
        assert report.passed
        assert report.worst_margin == pytest.approx(1.0 - 2.4 / 2.24 * 0.8, abs=1e-12)

    def test_tilt_times_are_the_ends_and_inner_knots(self):
        m = sigma_table_model()
        assert m.tilt_times(0.0, 1.0).tolist() == [0.0, 0.4, 1.0]
        assert m.tilt_times(0.1, 0.4).tolist() == [0.1, 0.4]
        assert m.tilt_times(0.5, 0.7).tolist() == [0.5, 0.7]
        assert benchmark_model().tilt_times(0.3, 0.9).tolist() == [0.3]


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


def row_segments(path: PathRecord):
    """Start times, end times and regimes of the segments, read from the rows."""
    seg = (path.times[1:] > path.times[:-1]).nonzero()[0]
    return path.times[seg], path.times[seg + 1], path.regime[seg]


def row_jumps(path: PathRecord):
    """Times, regimes and marks of the jumps: the rows that carry a mark."""
    rows = (~np.isnan(path.z_marks)).nonzero()[0]
    return path.times[rows], path.regime[rows], path.z_marks[rows]


class TestAssetPath:
    def test_internal_consistency(self):
        model = benchmark_model()
        rng = np.random.default_rng(42)
        for _ in range(50):
            path = simulate_asset_path(model, s0=100.0, x0=0, y0=0.0, rng=rng)
            assert np.all(path.spot > 0.0)
            # terminal spot reconstructs from the Brownian increments of
            # the segments and the jump multipliers
            t0, t1, state = row_segments(path)
            dt = t1 - t0
            sig = np.asarray(model.sigma_values)[state]
            dln = model.mu[state] * dt - 0.5 * sig**2 * dt + sig * path.seg_dw
            s_rebuilt = 100.0 * math.exp(np.sum(dln)) * np.prod(
                1.0 + model.jump.eta_at(row_jumps(path)[2])
            )
            assert path.spot[-1] == pytest.approx(s_rebuilt, rel=1e-12)

    def test_requested_grid_recorded(self):
        model = benchmark_model()
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 5)
        path = simulate_asset_path(model, 100.0, 0, 0.0, rng, record_times=grid)
        recorded = path.times[path.events == "grid"]
        for t in grid:
            assert np.any(np.isclose(recorded, t))

    def test_age_resets_at_regime_rows(self):
        model = benchmark_model()
        rng = np.random.default_rng(3)
        for _ in range(20):
            path = simulate_asset_path(model, 100.0, 0, 0.0, rng)
            switch = path.events == "regime"
            if np.any(switch):
                assert np.all(path.age[switch] == 0.0)

    def test_deterministic_given_seed(self):
        model = benchmark_model()
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
            stat[m] = np.prod((1.0 + model.jump.eta_at(row_jumps(path)[2])) ** 2)
        target = math.exp(C_RATE * MASS * 1.0)
        se = stat.std(ddof=1) / math.sqrt(n)
        assert abs(stat.mean() - target) < 3.0 * se

    def test_csv_round_trip(self, tmp_path):
        model = benchmark_model()
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
        model = benchmark_model()
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
# Array simulator against the per-event loop
# ---------------------------------------------------------------------------


def assert_same_path(got: PathRecord, want: PathRecord) -> None:
    """Every field equal bit for bit, with the same dtype."""
    for field in dataclasses.fields(PathRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "events":
            assert a.dtype == b.dtype == object
            assert a.tolist() == b.tolist()
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b), field.name
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name


def mixed_family_model() -> MarketModel:
    # state 0 mixes a constant and a Weibull exit: holding times by brentq
    rates = rate_spec_from_dict(
        {
            "states": 3,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": 0.7}},
                {"from": 0, "to": 2, "family": "weibull", "params": {"scale": 0.5, "shape": 2.0}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                {"from": 2, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        }
    )
    return MarketModel(
        rates=rates,
        r=np.array([0.05, 0.02, 0.04]),
        mu=np.array([0.08, 0.05, 0.03]),
        sigma_values=np.array([0.2, 0.3, 0.15]),
        jump=make_jump(),
        horizon=1.0,
    )


def jump_free_model() -> MarketModel:
    model = benchmark_model()
    return MarketModel(
        rates=model.rates,
        r=model.r,
        mu=model.mu,
        sigma_values=model.sigma_values,
        jump=JumpSpec(z=np.array([]), w=np.array([]), eta=EtaClamp(1.0, -0.5, 1.0)),
        horizon=1.0,
    )


PATH_MODELS = {
    "markov": benchmark_model,
    "weibull": weibull_model,
    "sigma-table": sigma_table_model,
    "mixed-family": mixed_family_model,
    "jump-free": jump_free_model,
}

RECORD_TIMES = {
    "none": None,
    "linspace": np.linspace(0.0, 1.0, 26),
    "duplicates": np.array([0.25, 0.5, 0.5, 0.75, 0.25, 0.5]),
    "ends": np.array([0.0, 0.0, 0.5, 1.0, 1.0]),
    "outside": np.array([-0.5, 0.3, 1.5, 0.6]),
}


class TestArraySimulatorOracle:
    """The array simulator against the per-event loop it replaced."""

    @pytest.mark.parametrize("record", list(RECORD_TIMES))
    @pytest.mark.parametrize("name", list(PATH_MODELS))
    def test_every_field_equals_the_loop(self, name, record):
        model = PATH_MODELS[name]()
        times = RECORD_TIMES[record]
        for seed in range(40):
            x0 = seed % model.n_states
            y0 = 0.1 * (seed % 3)
            args = (model, 100.0, x0, y0)
            got = simulate_asset_path(*args, np.random.default_rng(seed), times)
            want = loop_path_record(*args, np.random.default_rng(seed), times)
            assert_same_path(got, want)

    @pytest.mark.parametrize("name", ["markov", "weibull", "sigma-table", "mixed-family"])
    def test_recording_at_a_drawn_epoch_equals_the_loop(self, name):
        # jumps and switches are drawn before any normal, so a path's own
        # epochs reappear when they are requested as recording times
        model = PATH_MODELS[name]()
        seen = {"jump": 0, "regime": 0}
        for seed in range(40):
            first = simulate_asset_path(model, 100.0, 0, 0.0, np.random.default_rng(seed))
            epochs = first.times[first.events != "grid"]
            if epochs.size == 0:
                continue
            times = np.concatenate((epochs, [0.5, epochs[0]]))
            args = (model, 100.0, 0, 0.0)
            got = simulate_asset_path(*args, np.random.default_rng(seed), times)
            want = loop_path_record(*args, np.random.default_rng(seed), times)
            assert_same_path(got, want)
            shared = got.times[got.events == "grid"]
            for kind in seen:
                seen[kind] += np.isin(got.times[got.events == kind], shared).sum()
        assert seen["jump"] > 0 and seen["regime"] > 0

    @pytest.mark.parametrize("y0", [0.0, -0.0, 0.3])
    def test_switch_at_time_zero_equals_the_loop(self, y0, monkeypatch):
        # a zero holding time puts a switch on the initial row's time; the
        # initial row still records (x0, y0) as given
        def regime_path(spec, x0, y0, horizon, rng):
            return RegimePath(x0, y0, horizon, np.array([0.0, 0.4]), np.array([1, 0]))

        monkeypatch.setattr(market, "simulate_regime_path", regime_path)
        monkeypatch.setattr("shared.simulate_regime_path", regime_path)
        model = benchmark_model()
        args = (model, 100.0, 0, y0)
        got = simulate_asset_path(*args, np.random.default_rng(3), [0.0, 0.4, 0.7])
        want = loop_path_record(*args, np.random.default_rng(3), [0.0, 0.4, 0.7])
        assert_same_path(got, want)
        assert got.regime[:2].tolist() == [0, 1] and row_segments(got)[2][0] == 1

    @pytest.mark.parametrize("record", ["none", "linspace", "duplicates", "ends"])
    @pytest.mark.parametrize("name", list(PATH_MODELS))
    def test_row_views_equal_the_loop_lists(self, name, record):
        # the segments and jumps read from the rows are the loop's own, bit
        # for bit, and the density is the one summed over the loop's lists
        model = PATH_MODELS[name]()
        times = RECORD_TIMES[record]
        int_eta = model.ints.int_eta
        for seed in range(40):
            args = (model, 100.0, seed % model.n_states, 0.1 * (seed % 3))
            got = simulate_asset_path(*args, np.random.default_rng(seed), times)
            want, segments, jumps = loop_simulate_asset_path(
                *args, np.random.default_rng(seed), times
            )
            for view, rows in ((row_segments(got), segments), (row_jumps(got), jumps)):
                assert view[0].size == len(rows)
                for col, entries in zip(view, zip(*rows)):
                    assert col.tobytes() == np.array(entries, dtype=col.dtype).tobytes()
            lnz = 0.0
            for (t0, t1, i), dw in zip(segments, want.seg_dw.tolist()):
                ratio = float(model.j_ratio(t0, i))
                phi = ratio * float(model.sigma(t0, i))
                lnz += phi * dw - 0.5 * phi * phi * (t1 - t0) - ratio * int_eta * (t1 - t0)
            for t, i, z in jumps:
                lnz += math.log(1.0 + float(model.j_ratio(t, i)) * float(model.jump.eta_at(z)))
            assert radon_nikodym_path(model, got) == math.exp(lnz)

    def test_rejects_what_the_loop_rejects(self):
        model = benchmark_model()
        for args in ((0.0, 0, 0.0), (100.0, 2, 0.0), (100.0, 0, -1.0)):
            with pytest.raises(ValueError):
                simulate_asset_path(model, *args, np.random.default_rng(0))

    @pytest.mark.parametrize("s0", [math.nan, math.inf])
    def test_non_finite_spot_rejected(self, s0):
        with pytest.raises(ValueError, match="positive and finite"):
            simulate_asset_path(benchmark_model(), s0, 0, 0.0, np.random.default_rng(0))


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
        model = benchmark_model()
        rng = np.random.default_rng(321)
        n = 20_000
        z = np.array(
            [radon_nikodym_path(model, simulate_asset_path(model, 100.0, 0, 0.0, rng)) for _ in range(n)]
        )
        se = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - 1.0) < 3.0 * se

    def test_reweighted_discounted_spot_is_martingale(self):
        model = benchmark_model()
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

    def test_simpson_rule_equals_the_linspace_rule(self):
        # nodes from the cached unit weights and one step, against
        # np.linspace and a fresh weight build; widths from 1e-9 to 1e3
        rng = np.random.default_rng(4)
        t0 = rng.uniform(-10.0, 10.0, 20_000)
        t1 = t0 + 10.0 ** rng.uniform(-9.0, 3.0, t0.size)
        for n in (market.DEFAULT_TIME_NODES, market.DEFAULT_JUMP_NODES):
            w = np.full(n, 2.0)
            w[1::2] = 4.0
            w[0] = w[-1] = 1.0
            for a, b in zip(t0.tolist(), t1.tolist()):
                z, quad = market._simpson_weights(a, b, n)
                assert np.array_equal(z, np.linspace(a, b, n))
                assert np.array_equal(quad, w * ((b - a) / (n - 1)) / 3.0)

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
    # the dict form of benchmark_model parses to the same model
    model = benchmark_model()
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
