"""Test-model builders and oracles shared by the test modules.

The benchmark model has two regimes switching at rate 1, r = 0.05,
mu = (0.08, 0.05), sigma = (0.2, 0.3), and the uniform jump density on
[-1/2, 1] with eta(z) = clamp(z, -1/2, 1), over T = 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from smjd.market import EtaClamp, JumpSpec, MarketModel, PathRecord
from smjd.regimes import ConstantRate, RateSpec, rate_spec_from_dict, simulate_regime_path


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


def weibull_model() -> MarketModel:
    rates = rate_spec_from_dict(
        {
            "states": 3,
            "rates": [
                {"from": i, "to": (i + 1) % 3, "family": "weibull",
                 "params": {"scale": scale, "shape": 1.5}}
                for i, scale in enumerate((1.2, 0.9, 1.5))
            ],
        }
    )
    return MarketModel(
        rates=rates,
        r=np.array([0.05, 0.03, 0.04]),
        mu=np.array([0.08, 0.02, 0.05]),
        sigma_values=np.array([0.2, 0.3, 0.25]),
        jump=make_jump(),
        horizon=1.0,
    )


def sigma_table_model() -> MarketModel:
    model = benchmark_model()
    return MarketModel(
        rates=model.rates,
        r=model.r,
        mu=model.mu,
        sigma_table=(np.array([0.0, 0.4, 1.0]), np.array([[0.2, 0.35, 0.25], [0.3, 0.2, 0.4]])),
        jump=model.jump,
        horizon=1.0,
    )


def state_at(path, t: float) -> int:
    """Regime of a ``RegimePath`` at time ``t``, right after any switch there."""
    idx = int(np.searchsorted(path.times, t, side="right"))
    return path.x0 if idx == 0 else int(path.states[idx - 1])


def age_at(path, t: float) -> float:
    """Age of a ``RegimePath``'s regime at time ``t``; zero at a switch."""
    idx = int(np.searchsorted(path.times, t, side="right"))
    return path.y0 + t if idx == 0 else t - float(path.times[idx - 1])


def loop_simulate_asset_path(
    model: MarketModel,
    s0: float,
    x0: int,
    y0: float,
    rng: np.random.Generator,
    record_times=None,
) -> tuple[PathRecord, list, list]:
    """The per-event loop the array simulator replaced: the oracle of its
    draws and of every field of the record, bit for bit.

    Returns the record with the loop's own segments ``(t0, t1, regime)``
    and jumps ``(t, regime, z)``, each in time order."""
    if s0 <= 0:
        raise ValueError("spot must start positive")
    T = model.horizon
    regime = simulate_regime_path(model.rates, x0, y0, T, rng)

    mass = model.ints.mass
    jump_times: list[float] = []
    if mass > 0:
        t = 0.0
        while True:
            t += rng.exponential(1.0 / mass)
            if t >= T:
                break
            jump_times.append(t)
    n_jumps = len(jump_times)
    if n_jumps:
        cdf = np.cumsum(model.jump.w) / mass
        idx = np.minimum(np.searchsorted(cdf, rng.random(n_jumps)), cdf.size - 1)
        jump_z = model.jump.z[idx]
    else:
        jump_z = np.empty(0)

    # merged event timeline
    kinds: dict[float, list] = {}
    for tt in regime.times:
        kinds.setdefault(float(tt), []).append(("regime", math.nan))
    for tt, zz in zip(jump_times, jump_z):
        kinds.setdefault(float(tt), []).append(("jump", float(zz)))
    if record_times is not None:
        for tt in np.asarray(record_times, dtype=float):
            if 0.0 < tt < T:
                kinds.setdefault(float(tt), []).append(("grid", math.nan))
    kinds.setdefault(T, []).append(("grid", math.nan))

    rows = [(0.0, s0, x0, y0, "grid", math.nan)]
    segments, seg_dw, jumps = [], [], []
    s = s0
    t_prev = 0.0
    int_r = 0.0
    for t_k in sorted(kinds):
        state = state_at(regime, t_prev)
        dt = t_k - t_prev
        if dt > 0:
            var = model.sigma_sq_integral(t_prev, t_k, state)
            xi = rng.standard_normal()
            dln = (model.mu[state] - 0.0) * dt - 0.5 * var + math.sqrt(var) * xi
            s *= math.exp(dln)
            int_r += model.r[state] * dt
            segments.append((t_prev, t_k, state))
            seg_dw.append(xi * math.sqrt(dt))
        for kind, zz in sorted(kinds[t_k], key=lambda p: {"regime": 0, "jump": 1, "grid": 2}[p[0]]):
            if kind == "jump":
                s *= 1.0 + float(model.jump.eta_at(zz))
                jumps.append((t_k, state_at(regime, t_k), zz))
            rows.append(
                (t_k, s, state_at(regime, t_k), age_at(regime, t_k), kind, zz)
            )
        t_prev = t_k

    record = PathRecord(
        times=np.array([r[0] for r in rows]),
        spot=np.array([r[1] for r in rows]),
        regime=np.array([r[2] for r in rows], dtype=int),
        age=np.array([r[3] for r in rows]),
        events=np.array([r[4] for r in rows], dtype=object),
        z_marks=np.array([r[5] for r in rows]),
        seg_dw=np.asarray(seg_dw),
        int_r=int_r,
    )
    return record, segments, jumps


def loop_path_record(*args, **kwargs) -> PathRecord:
    """:func:`loop_simulate_asset_path`'s record alone, the simulator's
    stand-in in the commands that call it."""
    return loop_simulate_asset_path(*args, **kwargs)[0]
