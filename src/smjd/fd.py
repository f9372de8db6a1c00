"""Finite-difference solver on the same spot/regime/age grid as the
integral solver.

One backward step couples three pieces:

* the regime age rides a characteristic, so the new layer's age row ``m``
  is fed by the old layer's row ``m + 1`` (clipped at the top row);
* the log-spot convection-diffusion of the tilted flow is implicit
  (tridiagonal solve per regime, boundary rows folded with the
  linear-in-spot extrapolation, which keeps constants and linear spot
  functions exact);
* switching, jump, and half of the discount are explicit at the old
  layer, the other half of the discount implicit -- the scheme is first
  order in the time step, second order in the spot step, and a pure bond
  is reproduced to third order per step.

An explicit-gain guard at setup rejects time steps too large for the
switching intensities and the jump operator norm.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from .market import MarketModel
from .pricing import (
    GridResolutionError,
    PriceSurface,
    SurfaceGrid,
    _jump_operators,
    _jump_term,
    _require_finite_rates,
    _warn_if_inadmissible,
    hedge_ratio,
)

__all__ = ["solve_price_fd", "explicit_gain"]

#: largest admissible ``dt * (switch rate + jump norm + discount rate)``
MAX_EXPLICIT_STEP = 0.5


def explicit_gain(model: MarketModel, grid: SurfaceGrid) -> float:
    """Per-unit-time gain of the explicit terms: the largest total switch
    intensity on the age rows, the jump operator norm bound
    ``sup|Gamma| (2 mass + int eta)``, and the discount rate."""
    y_probe = np.concatenate([grid.y, grid.y + grid.dt])
    max_rate = max(
        float(np.max(model.rates.total_rate(i, y_probe)))
        for i in range(model.n_states)
    )
    ints = model.ints
    jump_norm = 0.0
    if model.jump.z.size:
        ts = model.tilt_times(0.0, model.horizon)
        sup_gamma = max(np.abs(model.jump_tilt(ts, i)).max() for i in range(model.n_states))
        jump_norm = float(sup_gamma) * (2.0 * ints.mass + max(ints.int_eta, 0.0))
    return max_rate + jump_norm + float(np.abs(model.r).max())


def _banded_operator(model: MarketModel, grid: SurfaceGrid, i: int, t0: float, dt: float):
    """Banded matrix of ``I + dt r/2 - dt L`` where ``L`` is the implicit
    log-spot convection-diffusion with boundary rows folded against the
    linear-in-spot extrapolation (rows keep zero sum on constants)."""
    u = grid.log_s
    n = u.size
    h = float(u[1] - u[0])
    sig2 = float(model.sigma(t0, i)) ** 2
    b = float(model.r[i] + model.drift_tilt(t0, i) - 0.5 * sig2)
    alpha = dt * sig2 / (2.0 * h * h)
    beta = dt * b / (2.0 * h)
    half_r = 0.5 * dt * float(model.r[i])
    ab = np.zeros((3, n))
    ab[1] = 1.0 + 2.0 * alpha + half_r
    ab[0, 2:] = -(alpha + beta)          # upper diagonal, interior rows
    ab[2, : n - 2] = -(alpha - beta)     # lower diagonal, interior rows
    g_lo = dt * (
        (1.0 - math.exp(-h)) * sig2 / (2.0 * h * h)
        + (1.0 + math.exp(-h)) * b / (2.0 * h)
    )
    ab[1, 0] = 1.0 + g_lo + half_r
    ab[0, 1] = -g_lo
    g_hi = dt * (
        (math.expm1(h)) * sig2 / (2.0 * h * h)
        + (1.0 + math.exp(h)) * b / (2.0 * h)
    )
    ab[1, -1] = 1.0 - g_hi + half_r
    ab[2, -2] = g_hi
    return ab


def solve_price_fd(model: MarketModel, payoff, grid: SurfaceGrid) -> PriceSurface:
    """Backward finite-difference induction for ``payoff(s)``; fills prices
    and hedge ratios on the full grid.

    Raises
    ------
    GridResolutionError
        If ``dt`` times the explicit gain exceeds ``MAX_EXPLICIT_STEP``.
    """
    _warn_if_inadmissible(model)
    if grid.t.size < 2:
        raise ValueError("time grid needs at least two nodes")
    _require_finite_rates(model, grid)
    dt = grid.dt
    gain = explicit_gain(model, grid)
    if dt * gain > MAX_EXPLICIT_STEP:
        raise GridResolutionError(
            f"explicit step dt * gain = {dt * gain:.3f} exceeds "
            f"{MAX_EXPLICIT_STEP}; refine the time grid"
        )
    k = model.n_states
    ns, ny1 = grid.log_s.size, grid.y.size
    n_time = grid.t.size - 1
    y_next = grid.y + dt
    exits_next = [
        [(j, np.asarray(fn.value(y_next), dtype=float)) for j, fn in model.rates.exits(i)]
        for i in range(k)
    ]
    next_row = np.minimum(np.arange(ny1) + 1, ny1 - 1)
    jumps = _jump_operators(model, grid) if model.jump.z.size else None
    banded = None
    if model.sigma_values is not None:
        banded = [_banded_operator(model, grid, i, 0.0, dt) for i in range(k)]
    vals = np.empty((n_time + 1, k, ns, ny1))
    vals[n_time] = np.asarray(payoff(grid.s), dtype=float)[None, :, None]
    for n in range(n_time - 1, -1, -1):
        t0, t1 = grid.t[n], grid.t[n + 1]
        old = vals[n + 1]
        age0 = old[:, :, 0]
        for i in range(k):
            shifted = old[i][:, next_row]
            rhs = (1.0 - 0.5 * dt * model.r[i]) * shifted
            for j, lam in exits_next[i]:
                rhs = rhs + dt * lam * (age0[j][:, None] - shifted)
            if jumps is not None:
                rhs = rhs + dt * _jump_term(model, jumps, t1, i, old[i])[:, next_row]
            ab = banded[i] if banded is not None else _banded_operator(model, grid, i, t0, dt)
            vals[n, i] = solve_banded((1, 1), ab, rhs)
    surface = PriceSurface(grid=grid, values=vals)
    surface.hedge = hedge_ratio(model, surface, jumps[1] if jumps else None)
    return surface
