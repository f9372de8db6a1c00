"""Backward pricing on a spot/regime/age grid.

The price solve alternates two building blocks along a uniform time grid:

* a one-step conditional-expectation operator for the continuous flow
  (lognormal in the spot with tilted drift ``r + beta1``, exact hazard
  bookkeeping in the regime age, regime coupling through the age-zero
  column), and
* an explicit trapezoidal correction with the jump operator and the
  discount, giving a second-order step overall.

The expectation in the spot direction is the exact integral of the
piecewise-linear-in-log interpolant against the shifted normal kernel
(normal partial moments cell by cell, lognormal partial moments for the
linear-in-spot tails).  That keeps one-step conservativity at rounding
level regardless of how stiff the switching rates are, and integrates
payoff kinks that sit on grid nodes exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .market import MarketModel, check_no_arbitrage
from .regimes import cumulative_hazard

__all__ = [
    "AdmissibilityWarning",
    "GridResolutionError",
    "SurfaceGrid",
    "PriceSurface",
    "EvolutionResult",
    "build_grid",
    "evolution_step",
    "evolution_apply",
    "jump_operator",
    "solve_price",
    "hedge_ratio",
]

#: default half width of the log-spot grid, in units of sigma * sqrt(T)
GRID_WIDTH = 6.0
#: one-step conservativity defect that aborts a solve
CONSERVATIVITY_TOL = 1e-6


class AdmissibilityWarning(UserWarning):
    """The pricing measure fails positivity somewhere; results are formal."""


class GridResolutionError(RuntimeError):
    """The grid is too coarse for the requested solve."""


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass
class SurfaceGrid:
    """Uniform time grid, uniform log-spot grid, and age rows with the same
    step as the time grid (ages advance one row per backward step)."""

    t: np.ndarray
    log_s: np.ndarray
    y: np.ndarray
    s_ref: float
    ref_index: int

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.log_s = np.asarray(self.log_s, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.s = np.exp(self.log_s)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def build_grid(
    model: MarketModel,
    s_ref: float,
    n_time: int,
    n_space: int,
    n_age: int | None = None,
    width: float = GRID_WIDTH,
) -> SurfaceGrid:
    """Grid sized to the model: the log-spot span covers ``width`` standard
    deviations of the total diffusion plus the largest up/down jump, and
    ``s_ref`` lands exactly on a node.  Ages beyond the last row are read
    from the last row."""
    if n_time < 1 or n_space < 4:
        raise ValueError("need n_time >= 1 and n_space >= 4")
    if not s_ref > 0:
        raise ValueError("s_ref must be positive")
    horizon = model.horizon
    half = width * model.sigma_sup() * math.sqrt(horizon)
    lo, hi = model.jump.eta_bounds()
    lo_span = half + max(0.0, -math.log1p(lo))
    hi_span = half + max(0.0, math.log1p(hi))
    du = (lo_span + hi_span) / (n_space - 2)
    n_lo = int(math.ceil(lo_span / du - 1e-12))
    log_s = math.log(s_ref) + (np.arange(n_space) - n_lo) * du
    n_age = n_time if n_age is None else int(n_age)
    dt = horizon / n_time
    return SurfaceGrid(
        t=np.linspace(0.0, horizon, n_time + 1),
        log_s=log_s,
        y=np.arange(n_age + 1) * dt,
        s_ref=float(s_ref),
        ref_index=n_lo,
    )


# ---------------------------------------------------------------------------
# Exact projection of the interpolant onto the shifted normal kernel
# ---------------------------------------------------------------------------


def _projection_matrix(log_s: np.ndarray, drift: float, var: float) -> np.ndarray:
    """Matrix ``E`` with ``(E psi)[l] = E[hat(psi)(u_l + drift + sqrt(var) Z)]``
    where ``hat(psi)`` interpolates the node values linearly in log-spot and
    extrapolates linearly in spot beyond the grid.

    Cell by cell the integral is a pair of normal partial moments, so the
    matrix is exact for the interpolant: rows sum to one up to rounding.
    """
    u = log_s
    n = u.size
    h = u[1] - u[0]
    s = np.exp(u)
    sd = math.sqrt(var)
    x = (u[None, :] - (u[:, None] + drift)) / sd
    cdf = ndtr(x)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mass = cdf[:, 1:] - cdf[:, :-1]
    first = pdf[:, :-1] - pdf[:, 1:]                  # int x phi(x) over each cell
    rel = drift * mass + sd * first                   # first moment about u_l
    offs = u[None, :] - u[:, None]
    mat = np.zeros((n, n))
    mat[:, :-1] += (offs[:, 1:] * mass - rel) / h
    mat[:, 1:] += (rel - offs[:, :-1] * mass) / h
    # tails: the extrapolation is linear in the spot, so the partial
    # expectation of exp(u) folds into the two edge columns
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


def _shift_weights(log_s: np.ndarray, s: np.ndarray, shift: float):
    """Two-point stencil of ``psi(s * exp(shift))`` on the grid: linear
    interpolation in log-spot inside, linear extrapolation in spot outside.
    Returns column indices and weights, one pair per row."""
    n = log_s.size
    h = log_s[1] - log_s[0]
    q = log_s + shift
    pos = (q - log_s[0]) / h
    idx = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = pos - idx
    c0, c1 = idx, idx + 1
    w0, w1 = 1.0 - frac, frac.copy()
    sq = np.exp(q)
    below = pos < 0.0
    if np.any(below):
        g = (sq[below] - s[0]) / (s[1] - s[0])
        c0[below], c1[below] = 0, 1
        w0[below], w1[below] = 1.0 - g, g
    above = pos > n - 1.0
    if np.any(above):
        g = (sq[above] - s[-1]) / (s[-1] - s[-2])
        c0[above], c1[above] = n - 2, n - 1
        w0[above], w1[above] = -g, 1.0 + g
    return c0, c1, w0, w1


def _jump_matrices(model: MarketModel, grid: SurfaceGrid):
    """Dense matrices ``B0 = sum w (S - I)`` and ``B1 = sum w eta (S - I)``
    over the jump nodes, where ``S`` shifts the spot by ``1 + eta``."""
    n = grid.log_s.size
    rows = np.arange(n)
    b0 = np.zeros((n, n))
    b1 = np.zeros((n, n))
    for wm, em in zip(model.jump.w, model.jump.eta_vals):
        c0, c1, w0, w1 = _shift_weights(grid.log_s, grid.s, math.log1p(em))
        for b, scale in ((b0, wm), (b1, wm * em)):
            b[rows, c0] += scale * w0
            b[rows, c1] += scale * w1
            b[rows, rows] -= scale
    return b0, b1


# ---------------------------------------------------------------------------
# One-step evolution
# ---------------------------------------------------------------------------


class _EvolutionEngine:
    """Precomputed machinery of the backward induction on a fixed grid.

    Hazard increments over one step are exact (closed-form cumulative
    hazards), and the switch integral over a step uses endpoint weights
    normalized against the exact switch mass, so constants pass through
    each step at rounding level.  New age-zero values of all regimes are
    coupled and solved as a small linear system.
    """

    def __init__(self, model: MarketModel, grid: SurfaceGrid):
        self.model = model
        self.grid = grid
        if grid.t.size < 2:
            raise ValueError("time grid needs at least two nodes")
        self.dt = grid.dt
        y = grid.y
        if y.size > 1 and abs((y[1] - y[0]) - self.dt) > 1e-12 * max(1.0, self.dt):
            raise ValueError("age grid step must equal the time step")
        k = model.n_states
        ny1 = y.size
        spec = model.rates
        y_next = y + self.dt
        self.w_surv = np.empty((k, ny1))
        self.c_start = np.zeros((k, k, ny1))   # weight of the age-0 unknowns
        self.c_end = np.zeros((k, k, ny1))     # weight of the next-layer age-0 values
        for i in range(k):
            lam0 = np.zeros((k, ny1))
            lam1 = np.zeros((k, ny1))
            for j, fn in spec.exits(i):
                lam0[j] = fn.value(y)
                lam1[j] = fn.value(y_next)
            gap = cumulative_hazard(spec, i, y_next) - cumulative_hazard(spec, i, y)
            surv = np.exp(-gap)
            switch_mass = -np.expm1(-gap)
            tot0 = lam0.sum(axis=0)
            tot1 = lam1.sum(axis=0)
            denom = tot0 + tot1 * surv
            a = np.divide(tot0, denom, out=np.zeros_like(tot0), where=denom > 0)
            p0 = np.divide(lam0, tot0, out=np.zeros_like(lam0), where=tot0 > 0)
            p1 = np.divide(lam1, tot1, out=np.zeros_like(lam1), where=tot1 > 0)
            self.w_surv[i] = surv
            self.c_start[i] = switch_mass * a * p0
            self.c_end[i] = switch_mass * (1.0 - a) * p1
        self._solve_age0 = np.linalg.inv(np.eye(k) - self.c_start[:, :, 0])
        self.next_row = np.minimum(np.arange(ny1) + 1, ny1 - 1)
        if model.jump.z.size:
            self.b0, self.b1 = _jump_matrices(model, grid)
        else:
            self.b0 = self.b1 = None
        # constant volatility: one kernel per regime serves every step;
        # tabulated: only the kernels of the latest ``t0`` are kept, since a
        # step asks for them twice and each is a dense n x n matrix
        self._kernels = None
        self._kernel_t0 = None
        if model.sigma_values is not None:
            self._kernels = [self._build_kernel(i, 0.0) for i in range(k)]

    def _build_kernel(self, i: int, t0: float) -> np.ndarray:
        var = self.model.sigma_sq_integral(t0, t0 + self.dt, i)
        drift = (
            self.model.r[i] * self.dt
            + self.model.drift_tilt_integral(t0, t0 + self.dt, i)
            - 0.5 * var
        )
        return _projection_matrix(self.grid.log_s, drift, var)

    def kernel(self, i: int, t0: float) -> np.ndarray:
        if self.model.sigma_values is None and t0 != self._kernel_t0:
            self._kernels = [self._build_kernel(j, t0) for j in range(self.model.n_states)]
            self._kernel_t0 = t0
        return self._kernels[i]

    def u_step(self, vals: np.ndarray, t0: float) -> np.ndarray:
        """One backward step of the switch-free-jump flow over
        ``[t0, t0 + dt]``: ``vals`` holds the later layer, shape
        ``(k, n_space, n_age + 1)``."""
        k, _, ny1 = vals.shape
        age0 = np.ascontiguousarray(vals[:, :, 0].T)     # (n_space, k)
        held = np.empty_like(vals)
        for i in range(k):
            blk = self.kernel(i, t0) @ np.concatenate([vals[i], age0], axis=1)
            aged = blk[:, :ny1][:, self.next_row]
            fresh = blk[:, ny1:]
            held[i] = self.w_surv[i] * aged + fresh @ self.c_end[i]
        new_age0 = self._solve_age0 @ held[:, :, 0]       # (k, n_space)
        out = np.empty_like(vals)
        for i in range(k):
            out[i] = held[i] + new_age0.T @ self.c_start[i]
        return out

    def correction(self, vals: np.ndarray, t: float) -> np.ndarray:
        """``(B(t) - r) vals`` with the jump operator split as
        ``B0 + J(t, i) B1``."""
        out = np.empty_like(vals)
        for i in range(self.model.n_states):
            v = vals[i]
            acc = -self.model.r[i] * v
            if self.b0 is not None:
                ratio = float(self.model.j_ratio(t, i))
                acc = acc + self.b0 @ v + ratio * (self.b1 @ v)
            out[i] = acc
        return out


def evolution_step(model: MarketModel, grid: SurfaceGrid, values, t0: float) -> np.ndarray:
    """Single backward application of the conditional-expectation operator
    over ``[t0, t0 + dt]``."""
    vals = np.asarray(values, dtype=float)
    return _EvolutionEngine(model, grid).u_step(vals, t0)


@dataclass
class EvolutionResult:
    """Layers of the pure conditional-expectation flow (no jump correction,
    no discounting)."""

    times: np.ndarray
    values: np.ndarray
    grid: SurfaceGrid


def evolution_apply(model: MarketModel, terminal_fn, u: float, grid: SurfaceGrid) -> EvolutionResult:
    """Backward layers ``E[psi(S_u, X_u, Y_u)]`` of the tilted flow for all
    grid times below ``u``; ``terminal_fn(s, i, y)`` is vectorized in the
    spot and evaluated per regime and age row.  ``u`` must be a time node."""
    t = grid.t
    idx = int(np.argmin(np.abs(t - u)))
    if abs(t[idx] - u) > 1e-9 * max(1.0, t[-1]):
        raise ValueError("u must lie on the time grid")
    k = model.n_states
    ns, ny1 = grid.log_s.size, grid.y.size
    vals = np.empty((idx + 1, k, ns, ny1))
    for i in range(k):
        for m in range(ny1):
            vals[idx, i, :, m] = np.broadcast_to(
                np.asarray(terminal_fn(grid.s, i, grid.y[m]), dtype=float), (ns,)
            )
    engine = _EvolutionEngine(model, grid)
    for n in range(idx - 1, -1, -1):
        vals[n] = engine.u_step(vals[n + 1], t[n])
    return EvolutionResult(times=t[: idx + 1].copy(), values=vals, grid=grid)


def jump_operator(model: MarketModel, t: float, grid: SurfaceGrid, values) -> np.ndarray:
    """Apply ``B(t)``, the jump-tilt-weighted difference operator, to
    per-regime grid values of shape ``(k, n_space)`` or
    ``(k, n_space, n_age + 1)``."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != model.n_states or vals.shape[1] != grid.log_s.size:
        raise ValueError("values must be (n_states, n_space, ...)")
    if not model.jump.z.size:
        return np.zeros_like(vals)
    b0, b1 = _jump_matrices(model, grid)
    flat = vals.reshape(model.n_states, grid.log_s.size, -1)
    out = np.empty_like(flat)
    for i in range(model.n_states):
        out[i] = b0 @ flat[i] + float(model.j_ratio(t, i)) * (b1 @ flat[i])
    return out.reshape(vals.shape)


# ---------------------------------------------------------------------------
# Price surface
# ---------------------------------------------------------------------------


@dataclass
class PriceSurface:
    """Prices (and hedge ratios) on the full ``(t, regime, spot, age)``
    grid, with multilinear interpolation between nodes and linear-in-spot
    extrapolation beyond the spot range."""

    grid: SurfaceGrid
    values: np.ndarray
    hedge: np.ndarray | None = None

    def _lookup(self, arr: np.ndarray, t: float, s, x, y):
        grid = self.grid
        tg = grid.t
        if tg.size == 1:
            layer = arr[0]
        else:
            pos = (float(t) - tg[0]) / grid.dt
            n0 = int(np.clip(np.floor(pos), 0, tg.size - 2))
            wt = float(np.clip(pos - n0, 0.0, 1.0))
            layer = arr[n0] if wt == 0.0 else (1.0 - wt) * arr[n0] + wt * arr[n0 + 1]
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=int)
        y = np.asarray(y, dtype=float)
        s, x, y = np.broadcast_arrays(s, x, y)
        # negative indices would silently wrap to the last regimes
        if np.any((x < 0) | (x >= arr.shape[1])):
            raise ValueError(f"regime index outside [0, {arr.shape[1]})")
        if np.any(y < 0.0):
            raise ValueError("regime age must be nonnegative")
        ug = grid.log_s
        n = ug.size
        h = ug[1] - ug[0]
        u = np.log(s)
        pos_u = (u - ug[0]) / h
        iu = np.clip(np.floor(pos_u).astype(int), 0, n - 2)
        fu = np.clip(pos_u - iu, 0.0, 1.0)
        yg = grid.y
        if yg.size == 1:
            iy = np.zeros_like(x)
            fy = np.zeros_like(s)
        else:
            dy = yg[1] - yg[0]
            pos_y = np.clip((y - yg[0]) / dy, 0.0, yg.size - 1.0)
            iy = np.clip(np.floor(pos_y).astype(int), 0, yg.size - 2)
            fy = pos_y - iy
        v00 = layer[x, iu, iy]
        v10 = layer[x, iu + 1, iy]
        v01 = layer[x, iu, iy + 1] if yg.size > 1 else v00
        v11 = layer[x, iu + 1, iy + 1] if yg.size > 1 else v10
        lo = (1.0 - fu) * v00 + fu * v10
        hi = (1.0 - fu) * v01 + fu * v11
        out = (1.0 - fy) * lo + fy * hi
        # linear-in-spot tails, consistent with the solver's extrapolation
        below = u < ug[0]
        if np.any(below):
            e0 = (1.0 - fy) * layer[x, 0, iy] + fy * layer[x, 0, np.minimum(iy + 1, yg.size - 1)]
            e1 = (1.0 - fy) * layer[x, 1, iy] + fy * layer[x, 1, np.minimum(iy + 1, yg.size - 1)]
            ext = e0 + (e1 - e0) * (s - grid.s[0]) / (grid.s[1] - grid.s[0])
            out = np.where(below, ext, out)
        above = u > ug[-1]
        if np.any(above):
            e0 = (1.0 - fy) * layer[x, -2, iy] + fy * layer[x, -2, np.minimum(iy + 1, yg.size - 1)]
            e1 = (1.0 - fy) * layer[x, -1, iy] + fy * layer[x, -1, np.minimum(iy + 1, yg.size - 1)]
            ext = e1 + (e1 - e0) * (s - grid.s[-1]) / (grid.s[-1] - grid.s[-2])
            out = np.where(above, ext, out)
        return out if out.ndim else float(out)

    def value_at(self, t: float, s, x, y):
        """Interpolated price at time ``t`` for spots/regimes/ages given as
        broadcastable arrays."""
        return self._lookup(self.values, t, s, x, y)

    def hedge_at(self, t: float, s, x, y):
        """Interpolated hedge ratio; requires the hedge layer."""
        if self.hedge is None:
            raise ValueError("hedge layer not filled")
        return self._lookup(self.hedge, t, s, x, y)

    def price(self, t: float, s: float, x: int, y: float) -> float:
        return float(self.value_at(t, s, x, y))

    def to_csv(self, path) -> None:
        """Rows ``t,s,regime,y,price,xi`` over the full grid."""
        if self.hedge is None:
            raise ValueError("hedge layer not filled")
        g = self.grid
        k = self.values.shape[1]
        tt, ss, xx, yy = np.meshgrid(g.t, g.s, np.arange(k), g.y, indexing="ij")
        price = self.values.transpose(0, 2, 1, 3)
        xi = self.hedge.transpose(0, 2, 1, 3)
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


def _warn_if_inadmissible(model: MarketModel) -> None:
    """Warn, naming the worst margin and its witness, when the pricing
    measure is not positive everywhere; the solvers still run."""
    report = check_no_arbitrage(model)
    if not report.passed:
        warnings.warn(
            "pricing measure is not positive everywhere "
            f"(worst margin {report.worst_margin:.4g} at t={report.witness_t}, "
            f"state {report.witness_state}, z={report.witness_z}); "
            "prices are formal",
            AdmissibilityWarning,
            stacklevel=3,
        )


def solve_price(model: MarketModel, payoff, grid: SurfaceGrid) -> PriceSurface:
    """Backward induction for the terminal payoff ``payoff(s)``: evolution
    step plus trapezoidal jump/discount correction, second order in the
    time step.  Fills prices and hedge ratios on the full grid.

    Raises
    ------
    GridResolutionError
        If a single evolution step fails to conserve constants to
        ``CONSERVATIVITY_TOL``.
    """
    _warn_if_inadmissible(model)
    engine = _EvolutionEngine(model, grid)
    k = model.n_states
    ns, ny1 = grid.log_s.size, grid.y.size
    n_time = grid.t.size - 1
    ones = np.ones((k, ns, ny1))
    defect = float(np.abs(engine.u_step(ones, grid.t[n_time - 1]) - 1.0).max())
    if defect > CONSERVATIVITY_TOL:
        raise GridResolutionError(
            f"one-step conservativity defect {defect:.3e} exceeds {CONSERVATIVITY_TOL:.1e}"
        )
    vals = np.empty((n_time + 1, k, ns, ny1))
    vals[n_time] = np.asarray(payoff(grid.s), dtype=float)[None, :, None]
    dt = engine.dt
    for n in range(n_time - 1, -1, -1):
        t0, t1 = grid.t[n], grid.t[n + 1]
        later = vals[n + 1]
        corr_end = engine.correction(later, t1)
        u_phi = engine.u_step(later, t0)
        u_corr = engine.u_step(corr_end, t0)
        predictor = u_phi + dt * u_corr
        corr_start = engine.correction(predictor, t0)
        vals[n] = u_phi + 0.5 * dt * (u_corr + corr_start)
    surface = PriceSurface(grid=grid, values=vals)
    surface.hedge = hedge_ratio(model, surface)
    return surface


def hedge_ratio(model: MarketModel, surface: PriceSurface) -> np.ndarray:
    """Locally risk-minimizing stock position on the whole grid:
    diffusion sensitivity plus the jump covariance term, over the total
    local variance ``sigma^2 + int eta^2 dnu``."""
    grid = surface.grid
    vals = surface.values
    n_layers, k, ns, ny1 = vals.shape
    s = grid.s
    grad = np.empty_like(vals)
    grad[:, :, 1:-1] = (vals[:, :, 2:] - vals[:, :, :-2]) / (s[2:] - s[:-2])[:, None]
    grad[:, :, 0] = (vals[:, :, 1] - vals[:, :, 0]) / (s[1] - s[0])
    grad[:, :, -1] = (vals[:, :, -1] - vals[:, :, -2]) / (s[-1] - s[-2])
    if model.jump.z.size:
        b1 = _jump_matrices(model, grid)[1]
        flat = vals.transpose(2, 0, 1, 3).reshape(ns, -1)
        jump_term = (b1 @ flat).reshape(ns, n_layers, k, ny1).transpose(1, 2, 0, 3)
        jump_term = jump_term / s[None, None, :, None]
    else:
        jump_term = 0.0
    int_eta_sq = model.ints.int_eta_sq
    out = np.empty_like(vals)
    for n in range(n_layers):
        for i in range(k):
            sig2 = float(model.sigma(grid.t[n], i)) ** 2
            jt = jump_term[n, i] if model.jump.z.size else 0.0
            out[n, i] = (sig2 * grad[n, i] + jt) / (sig2 + int_eta_sq)
    return out
