"""Tests for the semi-Markov regime machinery.

Expected values are frozen from independent oracles written below:
closed-form cumulative hazards, holding-time CDFs, and embedded
transition probabilities for hand-integrable rate families.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq
from shared import age_at, state_at

from smjd.regimes import (
    INVERSION_MAX_ITER,
    INVERSION_TOL,
    ConstantRate,
    RateSpec,
    TableRate,
    WeibullRate,
    _switch_cdf,
    cumulative_hazard,
    embedded_probs,
    holding_cdf,
    rate_spec_from_dict,
    sample_transition,
    simulate_regime_path,
    validate_rates,
)

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def weibull_cdf(y, scale, shape):
    """Holding CDF for a single power-law exit rate scale*shape*y^(shape-1)."""
    return 1.0 - np.exp(-scale * np.asarray(y) ** shape)


def mixed_hazard_cdf(y):
    """Holding CDF for one constant exit (0.7) plus one power exit 0.5*2*y."""
    y = np.asarray(y)
    return 1.0 - np.exp(-(0.7 * y + 0.5 * y**2))


def mixed_hazard_density(y):
    """Holding density of the same state: total rate 0.7 + y times survival."""
    y = np.asarray(y)
    return (0.7 + y) * np.exp(-(0.7 * y + 0.5 * y**2))


def apply_generator(spec, fn, i, y, step=1e-6):
    """Extended generator of ``(X, Y)`` applied to ``fn(state, age)``:

        d fn/dy (i, y) + sum_j rate(i, j, y) * (fn(j, 0) - fn(i, y))

    with a central age difference of width ``step``, one-sided at age zero.
    """
    if y >= step:
        deriv = (fn(i, y + step) - fn(i, y - step)) / (2.0 * step)
    else:
        deriv = (fn(i, y + step) - fn(i, y)) / step
    here = fn(i, y)
    coupling = 0.0
    for j, rate_fn in spec.exits(i):
        coupling += float(rate_fn.value(y)) * (fn(j, 0.0) - here)
    return deriv + coupling


def choice_sample_transition(spec, i, y0, rng):
    """``sample_transition`` with its switch law worked out on every draw:
    the family dispatch of the hazard inverse, then ``embedded_probs`` at
    the switch age and ``rng.choice``.  The oracle of the draws and of the
    generator stream they consume."""
    exits = spec.exits(i)
    families = {fn.family for _, fn in exits}
    target = float(rng.exponential())
    if families == {"constant"}:
        total = sum(fn.rate for _, fn in exits)
        hold = target / total if total > 0.0 else math.inf
    elif families == {"weibull"} and len({fn.shape for _, fn in exits}) == 1:
        shape = exits[0][1].shape
        scale = sum(fn.scale for _, fn in exits)
        hold = (y0**shape + target / scale) ** (1.0 / shape) - y0
    else:
        base = float(cumulative_hazard(spec, i, y0))

        def gap(h):
            return float(cumulative_hazard(spec, i, y0 + h)) - base - target

        hi = 1.0
        while gap(hi) < 0.0:
            if hi > 1e12:
                return math.inf, i
            hi *= 2.0
        hold = float(brentq(gap, 0.0, hi, xtol=INVERSION_TOL, maxiter=INVERSION_MAX_ITER))
    if math.isinf(hold):
        return hold, i
    return hold, int(rng.choice(spec.n_states, p=embedded_probs(spec, i, y0 + hold)))


def table_hazard_integral_oracle():
    """Integral of the piecewise-linear rate through (0,1),(1,2),(2,3) up to 1.5.

    The rate is 1+y on [0,1] and 2+(y-1) on [1,2]; the integral to 1.5 is
    1.5 + 1.125 = 2.625.
    """
    return 2.625


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def two_state_constant():
    return rate_spec_from_dict(
        {
            "states": 2,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": 1.0}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        }
    )


@pytest.fixture
def weibull_spec():
    # single exit with rate 3*y^2, so the holding CDF is 1 - exp(-y^3)
    return rate_spec_from_dict(
        {
            "states": 2,
            "rates": [
                {"from": 0, "to": 1, "family": "weibull", "params": {"scale": 1.0, "shape": 3.0}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        }
    )


@pytest.fixture
def mixed_spec():
    # state 0 has a constant exit to 1 and a power-law exit to 2
    return rate_spec_from_dict(
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


# ---------------------------------------------------------------------------
# Cumulative hazard and holding law
# ---------------------------------------------------------------------------


class TestCumulativeHazard:
    def test_weibull_closed_form(self, weibull_spec):
        # rate 3y^2 integrates to y^3; at y=2 the hazard is 8
        assert cumulative_hazard(weibull_spec, 0, 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_constant_closed_form(self, two_state_constant):
        y = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(cumulative_hazard(two_state_constant, 0, y), y, rtol=1e-14)

    def test_mixed_family_sum(self, mixed_spec):
        y = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            cumulative_hazard(mixed_spec, 0, y), 0.7 * y + 0.5 * y**2, rtol=1e-13
        )

    def test_table_family_exact_piecewise(self):
        spec = rate_spec_from_dict(
            {
                "states": 2,
                "rates": [
                    {
                        "from": 0,
                        "to": 1,
                        "family": "table",
                        "params": {"y": [0.0, 1.0, 2.0], "rate": [1.0, 2.0, 3.0]},
                    },
                    {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                ],
            }
        )
        assert cumulative_hazard(spec, 0, 1.5) == pytest.approx(
            table_hazard_integral_oracle(), abs=1e-12
        )
        # beyond the last knot the rate stays at its final value
        assert cumulative_hazard(spec, 0, 3.0) == pytest.approx(4.0 + 3.0, abs=1e-12)

    def test_holding_cdf_matches_hazard(self, weibull_spec):
        y = np.linspace(0.0, 2.0, 21)
        np.testing.assert_allclose(
            holding_cdf(weibull_spec, 0, y), weibull_cdf(y, 1.0, 3.0), rtol=1e-13
        )

    def test_cdf_bounds_and_monotone(self, mixed_spec):
        # strict upper bound checked where the survival is representable in
        # double precision (integrated hazard below ~30)
        y = np.linspace(0.0, 6.0, 200)
        f = holding_cdf(mixed_spec, 0, y)
        assert np.all(f >= 0.0) and np.all(f < 1.0)
        assert np.all(np.diff(f) >= 0.0)

    def test_density_is_cdf_derivative(self, mixed_spec):
        # central difference of the CDF with step 1e-6, tolerance 1e-4
        y = np.linspace(0.1, 4.0, 40)
        h = 1e-6
        num = (holding_cdf(mixed_spec, 0, y + h) - holding_cdf(mixed_spec, 0, y - h)) / (2 * h)
        np.testing.assert_allclose(mixed_hazard_density(y), num, atol=1e-4)


class TestEmbeddedProbs:
    def test_two_exit_split(self, mixed_spec):
        # at y=1 the exits are 0.7 and 0.5*2*1 = 1.0, so p = (0.7, 1.0)/1.7
        p = embedded_probs(mixed_spec, 0, 1.0)
        np.testing.assert_allclose(p, [0.0, 0.7 / 1.7, 1.0 / 1.7], rtol=1e-14)

    def test_rows_sum_to_one_and_no_self(self, mixed_spec):
        for y in (0.1, 0.5, 2.0, 7.0):
            p = embedded_probs(mixed_spec, 0, y)
            assert p[0] == 0.0
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_rate_raises(self):
        spec = RateSpec(n_states=2, rates={})
        with pytest.raises(ValueError):
            embedded_probs(spec, 0, 1.0)

    def test_rate_identity_against_density(self, mixed_spec):
        # each directed rate equals p_ij * density / survival to 1e-10,
        # checked where the survival factor is well conditioned
        y = np.linspace(0.05, 4.0, 37)
        surv = 1.0 - holding_cdf(mixed_spec, 0, y)
        dens = mixed_hazard_density(y)
        for j, fn in mixed_spec.exits(0):
            p = np.array([embedded_probs(mixed_spec, 0, yy)[j] for yy in y])
            np.testing.assert_allclose(fn.value(y), p * dens / surv, atol=1e-10, rtol=1e-10)


@given(
    rate_a=st.floats(0.05, 5.0),
    rate_b=st.floats(0.05, 5.0),
    y=st.floats(0.0, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_embedded_probs_property(rate_a, rate_b, y):
    spec = rate_spec_from_dict(
        {
            "states": 3,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": rate_a}},
                {"from": 0, "to": 2, "family": "constant", "params": {"rate": rate_b}},
                {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                {"from": 2, "to": 0, "family": "constant", "params": {"rate": 1.0}},
            ],
        }
    )
    p = embedded_probs(spec, 0, y)
    assert p[0] == 0.0
    assert math.isclose(p.sum(), 1.0, abs_tol=1e-12)
    assert math.isclose(p[1], rate_a / (rate_a + rate_b), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_good_spec_passes(self, mixed_spec):
        report = validate_rates(mixed_spec, y_max=40.0)
        assert report.passed
        names = {c.name for c in report.checks}
        assert any("positivity" in n for n in names)
        assert any("bounded" in n for n in names)
        assert any("divergence" in n for n in names)

    def test_decaying_rate_fails_divergence(self):
        # single exit with rate e^(-y): total hazard tends to 1, never reaches
        # the divergence threshold
        y = np.linspace(0.0, 10.0, 401)
        spec = rate_spec_from_dict(
            {
                "states": 2,
                "rates": [
                    {
                        "from": 0,
                        "to": 1,
                        "family": "table",
                        "params": {"y": y.tolist(), "rate": np.exp(-y).tolist()},
                    },
                    {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                ],
            }
        )
        report = validate_rates(spec, y_max=10.0)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert any("divergence" in c.name for c in failing)
        assert any("state 0" in c.detail for c in failing)

    def test_declared_bound_violation_reported(self):
        spec = rate_spec_from_dict(
            {
                "states": 2,
                "rates": [
                    {"from": 0, "to": 1, "family": "weibull", "params": {"scale": 1.0, "shape": 3.0}},
                    {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                ],
                "rate_bound": 10.0,
            }
        )
        # the rate 3y^2 exceeds 10 within [0, 20]
        report = validate_rates(spec, y_max=20.0)
        failing = [c for c in report.checks if not c.passed]
        assert any("bounded" in c.name for c in failing)

    def test_negative_rate_fails(self):
        spec = rate_spec_from_dict(
            {
                "states": 2,
                "rates": [
                    {
                        "from": 0,
                        "to": 1,
                        "family": "table",
                        "params": {"y": [0.0, 1.0], "rate": [-0.1, 1.0]},
                    },
                    {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                ],
            }
        )
        report = validate_rates(spec, y_max=5.0)
        failing = [c for c in report.checks if not c.passed]
        assert any("positivity" in c.name for c in failing)
        assert any("(0, 1" in c.detail for c in failing)

    def test_empty_state_set_rejected(self):
        with pytest.raises(ValueError):
            RateSpec(n_states=0, rates={})

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(ValueError):
            rate_spec_from_dict(
                {
                    "states": 2,
                    "rates": [
                        {"from": 0, "to": 1, "family": "constant", "params": {"rate": math.inf}},
                        {"from": 1, "to": 0, "family": "constant", "params": {"rate": 1.0}},
                    ],
                }
            )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_weibull_holding_ks(self, weibull_spec):
        # fresh state, power-law hazard: holding times follow 1 - exp(-y^3)
        rng = np.random.default_rng(20240811)
        draws = np.array([sample_transition(weibull_spec, 0, 0.0, rng)[0] for _ in range(10_000)])
        stat = stats.kstest(draws, lambda y: weibull_cdf(y, 1.0, 3.0))
        assert stat.pvalue > 0.01

    def test_constant_holding_ks(self, two_state_constant):
        rng = np.random.default_rng(7)
        draws = np.array(
            [sample_transition(two_state_constant, 0, 0.0, rng)[0] for _ in range(10_000)]
        )
        stat = stats.kstest(draws, stats.expon(scale=1.0).cdf)
        assert stat.pvalue > 0.01

    def test_mixed_family_root_finding_ks(self, mixed_spec):
        # no closed-form inverse: exercises the bracketed root-finder
        rng = np.random.default_rng(99)
        draws = np.array([sample_transition(mixed_spec, 0, 0.0, rng)[0] for _ in range(10_000)])
        stat = stats.kstest(draws, mixed_hazard_cdf)
        assert stat.pvalue > 0.01

    def test_constant_memoryless(self, two_state_constant):
        # conditional law from age 3 equals the law from age 0
        rng = np.random.default_rng(11)
        aged = np.array(
            [sample_transition(two_state_constant, 0, 3.0, rng)[0] for _ in range(10_000)]
        )
        stat = stats.kstest(aged, stats.expon(scale=1.0).cdf)
        assert stat.pvalue > 0.01

    def test_aged_weibull_conditional_law(self, weibull_spec):
        # starting from age 1, the conditional CDF is
        # 1 - exp(-( (1+h)^3 - 1 ))
        rng = np.random.default_rng(13)
        draws = np.array([sample_transition(weibull_spec, 0, 1.0, rng)[0] for _ in range(10_000)])

        def cond_cdf(h):
            return 1.0 - np.exp(-((1.0 + np.asarray(h)) ** 3 - 1.0))

        stat = stats.kstest(draws, cond_cdf)
        assert stat.pvalue > 0.01

    def test_next_state_split(self, mixed_spec):
        rng = np.random.default_rng(5)
        hits = np.array([sample_transition(mixed_spec, 0, 0.0, rng)[1] for _ in range(20_000)])
        # aggregate split integrates the embedded probabilities over the
        # holding law; estimate it by an independent fine-grid quadrature
        y = np.linspace(0.0, 30.0, 300_001)
        surv = np.exp(-(0.7 * y + 0.5 * y**2))
        p1 = np.trapezoid(0.7 * surv, y)  # absorbed into state 1
        frac1 = np.mean(hits == 1)
        se = math.sqrt(p1 * (1 - p1) / hits.size)
        assert abs(frac1 - p1) < 4 * se

    def test_sampler_deterministic_for_fixed_seed(self, mixed_spec):
        a = [sample_transition(mixed_spec, 0, 0.3, np.random.default_rng(3))
             for _ in range(1)]
        b = [sample_transition(mixed_spec, 0, 0.3, np.random.default_rng(3))
             for _ in range(1)]
        assert a == b
        assert a[0][0] > 0.0


    def test_mixed_family_draws_equal_a_brentq_inversion(self, mixed_spec):
        # the same seed drives the sampler and an in-test inversion of
        # hazard(y0 + h) - hazard(y0) = E with brentq: equal bit for bit
        def hold(y0, target):
            base = float(cumulative_hazard(mixed_spec, 0, y0))

            def gap(h):
                return float(cumulative_hazard(mixed_spec, 0, y0 + h)) - base - target

            hi = 1.0
            while gap(hi) < 0.0:
                hi *= 2.0
            return brentq(gap, 0.0, hi, xtol=INVERSION_TOL, maxiter=INVERSION_MAX_ITER)

        for y0 in (0.0, 0.3, 2.0):
            rng, oracle = np.random.default_rng(41), np.random.default_rng(41)
            for _ in range(200):
                got = sample_transition(mixed_spec, 0, y0, rng)
                h = hold(y0, float(oracle.exponential()))
                nxt = int(oracle.choice(3, p=embedded_probs(mixed_spec, 0, y0 + h)))
                assert got == (h, nxt)


def _spec(n_states, rates):
    return RateSpec(n_states=n_states, rates=rates)


#: specs covering each way a switch law is built: constant exits with a
#: zero entry, power laws of one shape (age-dependent in floating point)
#: and of shape 1 (age-free), tables, the mixed-family ``brentq`` state,
#: single exits, and age-dependent multi-exit states
SWITCH_SPECS = {
    "constant": lambda: _spec(3, {
        (0, 1): ConstantRate(1.0), (0, 2): ConstantRate(0.0),
        (1, 0): ConstantRate(2.0), (1, 2): ConstantRate(0.7),
        (2, 0): ConstantRate(1.5),
    }),
    "weibull": lambda: _spec(3, {
        (0, 1): WeibullRate(1.2, 1.5), (0, 2): WeibullRate(0.6, 1.5),
        (1, 0): WeibullRate(0.5, 1.0), (1, 2): WeibullRate(0.9, 1.0),
        (2, 0): WeibullRate(1.5, 0.7),
    }),
    "table": lambda: _spec(3, {
        (0, 1): TableRate([0.0, 0.5, 2.0], [0.5, 2.0, 1.0]),
        (0, 2): TableRate([0.0, 1.0], [1.0, 0.0]),
        (1, 0): TableRate([0.2, 1.0], [1.0, 3.0]),
        (2, 1): TableRate([0.0, 1.0], [0.0, 2.0]),
    }),
    "mixed": lambda: _spec(3, {
        (0, 1): ConstantRate(0.7), (0, 2): WeibullRate(0.5, 2.0),
        (1, 0): ConstantRate(1.0), (2, 0): ConstantRate(1.0),
    }),
    "age-dependent": lambda: _spec(3, {
        (0, 1): WeibullRate(1.0, 2.0), (0, 2): ConstantRate(0.5),
        (1, 0): WeibullRate(0.4, 1.3), (1, 2): TableRate([0.0, 1.0], [0.2, 1.5]),
        (2, 0): WeibullRate(0.8, 2.5), (2, 1): WeibullRate(0.3, 0.8),
    }),
}


class TestSwitchDrawOracle:
    @pytest.mark.parametrize("name", list(SWITCH_SPECS))
    def test_draws_and_stream_equal_the_choice_oracle(self, name):
        spec = SWITCH_SPECS[name]()
        for seed in range(100):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in range(9):
                i, y0 = n % 3, (0.0, 0.3, 2.0)[n // 3]
                got = sample_transition(spec, i, y0, rng)
                assert got == choice_sample_transition(spec, i, y0, oracle), (seed, n)
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_cdf_read_equals_choice(self):
        # the next-state draw on its own: p with zero entries on 2-5 states
        for seed in range(2000):
            gen = np.random.default_rng(seed)
            p = gen.random(int(gen.integers(2, 6))) * (gen.random() < 0.5)
            p[gen.integers(p.size)] += 1.0
            p /= p.sum()
            cdf = _switch_cdf(p)
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                got = int(cdf.searchsorted(rng.random(), side="right"))
                assert got == int(oracle.choice(p.size, p=p))
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_negative_age_free_rate_raises_at_the_draw(self):
        spec = _spec(3, {(0, 1): ConstantRate(-1.0), (0, 2): ConstantRate(3.0)})
        for draw in (sample_transition, choice_sample_transition):
            with pytest.raises(ValueError):
                draw(spec, 0, 0.0, np.random.default_rng(1))


class TestRegimePath:
    def test_transition_count_poisson(self, two_state_constant):
        # equal constant rates: the switch count over [0, t] is Poisson(t)
        rng = np.random.default_rng(2024)
        t_end = 10.0
        counts = np.array(
            [
                simulate_regime_path(two_state_constant, 0, 0.0, t_end, rng).times.size
                for _ in range(4_000)
            ]
        )
        edges = np.arange(0, 25)
        observed = np.array([(counts == k).sum() for k in edges])
        expected = stats.poisson(t_end).pmf(edges) * counts.size
        # merge the tail so expected cell counts stay above 5
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        chi2 = ((obs - exp) ** 2 / exp).sum()
        dof = obs.size - 1
        assert chi2 < stats.chi2(dof).ppf(0.99)

    def test_path_bookkeeping(self, weibull_spec):
        rng = np.random.default_rng(1)
        path = simulate_regime_path(weibull_spec, 0, 0.5, 20.0, rng)
        assert path.x0 == 0 and path.y0 == 0.5
        assert np.all(np.diff(path.times) > 0)
        assert np.all(path.times <= 20.0)
        # ages: before the first switch the age includes the initial age
        if path.times.size:
            t_mid = path.times[0] / 2.0
            assert age_at(path, t_mid) == pytest.approx(0.5 + t_mid)
            assert state_at(path, t_mid) == 0
            t_after = path.times[0] + 1e-9
            assert age_at(path, t_after) == pytest.approx(1e-9, abs=1e-12)

    def test_absorbing_state_path(self):
        spec = rate_spec_from_dict(
            {
                "states": 2,
                "rates": [
                    {"from": 0, "to": 1, "family": "constant", "params": {"rate": 5.0}},
                ],
            }
        )
        rng = np.random.default_rng(8)
        path = simulate_regime_path(spec, 0, 0.0, 50.0, rng)
        # once in state 1 there is no exit
        assert path.states[-1] == 1
        assert path.times.size == 1

    def test_zero_rate_never_switches(self):
        spec = RateSpec(n_states=2, rates={(0, 1): ConstantRate(0.0), (1, 0): ConstantRate(1.0)})
        rng = np.random.default_rng(4)
        assert sample_transition(spec, 0, 0.0, rng) == (math.inf, 0)
        path = simulate_regime_path(spec, 0, 0.0, 50.0, rng)
        assert path.times.size == 0 and state_at(path, 50.0) == 0

    def test_hazard_ending_below_the_level_keeps_the_regime(self):
        # rate 1 - y on [0, 1], then 0: the hazard tops out at 1/2, so a
        # path never switches with probability exp(-1/2), over any horizon past 1
        spec = RateSpec(
            n_states=2,
            rates={(0, 1): TableRate([0.0, 1.0], [1.0, 0.0]), (1, 0): ConstantRate(1.0)},
        )
        rng = np.random.default_rng(21)
        n = 2_000
        stay = np.mean([simulate_regime_path(spec, 0, 0.0, 2.0, rng).times.size == 0
                        for _ in range(n)])
        p = math.exp(-0.5)
        assert abs(stay - p) < 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_occupation_fraction_two_state(self, two_state_constant):
        # symmetric rates: long-run occupation of each state is 1/2
        rng = np.random.default_rng(17)
        t_end = 2_000.0
        path = simulate_regime_path(two_state_constant, 0, 0.0, t_end, rng)
        bounds = np.concatenate([[0.0], path.times, [t_end]])
        states = np.concatenate([[0], path.states])
        occ = np.zeros(2)
        for s, a, b in zip(states, bounds[:-1], bounds[1:]):
            occ[s] += b - a
        assert abs(occ[0] / t_end - 0.5) < 0.05


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_constant_function_in_kernel(self, mixed_spec):
        out = apply_generator(mixed_spec, lambda j, y: 1.0, 0, 0.7)
        assert out == pytest.approx(0.0, abs=1e-6)

    def test_age_only_function(self, mixed_spec):
        # phi(j, y) = y has derivative 1 and coupling -y * total_rate(y)
        y = 1.3
        total = 0.7 + 1.0 * y
        out = apply_generator(mixed_spec, lambda j, yy: yy, 0, y)
        assert out == pytest.approx(1.0 - y * total, rel=1e-5)

    def test_dynkin_martingale(self, two_state_constant):
        # E[phi(X_t, Y_t)] - phi(x0, y0) - E[int_0^t (A phi)(X_u, Y_u) du] = 0
        def phi(j, y):
            return (1.0 + 0.5 * j) * math.exp(-0.5 * y * y)

        t_end = 2.0
        rng = np.random.default_rng(314)
        n_paths = 4_000
        vals = np.empty(n_paths)
        for n in range(n_paths):
            path = simulate_regime_path(two_state_constant, 0, 0.0, t_end, rng)
            bounds = np.concatenate([[0.0], path.times, [t_end]])
            states = np.concatenate([[0], path.states])
            integral = 0.0
            for s, a, b in zip(states, bounds[:-1], bounds[1:]):
                age0 = age_at(path, a) if a > 0 else 0.0
                # fine trapezoid in age over the segment
                u = np.linspace(0.0, b - a, 64)
                g = np.array([apply_generator(two_state_constant, phi, int(s), age0 + uu) for uu in u])
                integral += np.trapezoid(g, u)
            vals[n] = phi(state_at(path, t_end), age_at(path, t_end)) - phi(0, 0.0) - integral
        se = vals.std(ddof=1) / math.sqrt(n_paths)
        assert abs(vals.mean()) < 3.0 * se


# ---------------------------------------------------------------------------
# Serialization round trip
# ---------------------------------------------------------------------------


def test_rate_spec_round_trip():
    # each family's params are read by name into the same rate functions
    parsed = rate_spec_from_dict(
        {
            "states": 3,
            "rates": [
                {"from": 0, "to": 1, "family": "constant", "params": {"rate": 0.7}},
                {"from": 0, "to": 2, "family": "weibull", "params": {"scale": 0.5, "shape": 2.0}},
                {
                    "from": 1,
                    "to": 0,
                    "family": "table",
                    "params": {"y": [0.0, 2.0], "rate": [1.0, 3.0]},
                },
            ],
            "rate_bound": 5.0,
        }
    )
    direct = RateSpec(
        n_states=3,
        rates={
            (0, 1): ConstantRate(0.7),
            (0, 2): WeibullRate(scale=0.5, shape=2.0),
            (1, 0): TableRate([0.0, 2.0], [1.0, 3.0]),
        },
        rate_bound=5.0,
    )
    y = np.linspace(0.0, 4.0, 17)
    for i in range(3):
        np.testing.assert_array_equal(
            cumulative_hazard(parsed, i, y), cumulative_hazard(direct, i, y)
        )
        np.testing.assert_array_equal(parsed.total_rate(i, y), direct.total_rate(i, y))
    assert parsed.n_states == direct.n_states
    assert parsed.rate_bound == direct.rate_bound
