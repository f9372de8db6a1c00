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

That projection and the jump integral are convolutions on the uniform
log grid: each is a Toeplitz stencil plus a few edge columns, built in
O(n) and applied by FFT on fine grids (``_GridOperator``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._artifacts import layer_blocks, surface_rows, write_artifact
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
    if n_age is not None and n_age < 0:
        raise ValueError("need n_age >= 0")
    if not s_ref > 0:
        raise ValueError("s_ref must be positive")
    if not width > 0:
        raise ValueError("grid width must be positive")
    horizon = model.horizon
    half = width * model.sigma_sup() * math.sqrt(horizon)
    gains = model.jump.log_gain
    lo_span = half + max(0.0, -min(gains, default=0.0))
    hi_span = half + max(0.0, max(gains, default=0.0))
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
# Structured grid operators: Toeplitz stencil, edge block, diagonal
# ---------------------------------------------------------------------------

#: Apply rule of ``_GridOperator``, on the node count ``n`` and the number
#: of columns an operator is built to be applied to.  An FFT product costs
#: two real transforms of about ``2n`` points per column; a dense product
#: reads all ``n^2`` entries, faster per entry and per column the more
#: columns it has.  Median ms per product, dense / FFT, on 2 cores of a
#: Xeon at 2.1 GHz with 2 BLAS threads (one ``ie`` kernel; ``B0 + J B1``):
#:
#:     n \ cols       1          3          16         50         100
#:    301 kernel  0.02/0.05  0.04/0.08  0.09/0.19  0.18/0.45  0.32/1.6
#:        jump    0.06/0.08  0.09/0.10  0.17/0.21  0.42/0.54  0.77/0.98
#:    512 kernel  0.07/0.04  0.12/0.08  0.16/0.18  0.42/0.67  0.72/2.8
#:        jump    0.25/0.09  0.41/0.12  0.70/0.29  1.2/0.80   2.1/1.8
#:    801 kernel  0.15/0.08  0.70/0.12  1.4/0.34   1.6/1.3    3.1/2.8
#:        jump    0.29/0.11  1.2/0.17   1.3/0.48   3.2/1.8    4.5/2.8
#:   1601 kernel  1.1/0.08   3.2/0.18   3.2/0.98   8.9/4.7    14/10
#:        jump    1.5/0.11   5.3/0.22   6.2/1.3    11/4.0     21/10
#:   3201 kernel  4.7/0.23   13/0.44    14/2.4     34/11      43/20
#:        jump    8.2/0.31   26/0.56    28/2.6     55/11      85/22
FFT_MIN_NODES = 512
FFT_NODES_PER_COL = 16


def _use_fft(n: int, cols: int) -> bool:
    return n >= FFT_MIN_NODES and cols * FFT_NODES_PER_COL <= n


def _edge_cols(n: int) -> list:
    return [0, 1, n - 2, n - 1]


@dataclass(frozen=True)
class _GridOperator:
    """The ``n x n`` operator ``T + E + diag I`` on the spot nodes.

    ``T`` is Toeplitz, with entry ``(l, j)`` in ``stencil[j - l + n - 1]``;
    ``E`` is nonzero only in columns ``0, 1, n - 2, n - 1``, which ``edge``
    holds as an ``n x 4`` block.  Built by ``_grid_operator``, it holds
    either the dense matrix made from these parts (``matrix``) or the
    stencil's spectrum (``spectrum``) with the real FFT pair along axis 0
    at the transform length (``fft``), so ``op @ v`` is a BLAS product or
    one FFT over all columns of ``v``, shape ``(n, cols)``.
    """

    stencil: np.ndarray
    edge: np.ndarray
    diag: float
    matrix: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    fft: tuple | None = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ v
        n = v.shape[0]
        forward, inverse = self.fft
        out = inverse(forward(v) * self.spectrum[:, None])[:n]
        out += self.edge @ v[_edge_cols(n)]
        if self.diag:
            out += self.diag * v
        return out

    def plus(self, other: "_GridOperator", c: float) -> "_GridOperator":
        """``self + c other``, for two operators on the same path."""

        def mix(a, b):
            return None if a is None else a + c * b

        return _GridOperator(
            mix(self.stencil, other.stencil),
            mix(self.edge, other.edge),
            self.diag + c * other.diag,
            mix(self.matrix, other.matrix),
            mix(self.spectrum, other.spectrum),
            self.fft,
        )

    def dense(self) -> np.ndarray:
        """The operator as an ``n x n`` array."""
        n = self.edge.shape[0]
        mat = sliding_window_view(self.stencil, n)[::-1].copy()
        mat[:, _edge_cols(n)] += self.edge
        mat.flat[:: n + 1] += self.diag
        return mat


def _grid_operator(stencil: np.ndarray, edge: np.ndarray, diag: float, cols: int) -> _GridOperator:
    """The operator with these parts, ready for products with ``cols``
    columns: dense below the ``_use_fft`` crossover, by FFT above it.
    Subnormal parts, far out in the normal tails, are set to zero: they
    move no product by 1e-300, and a BLAS product meeting them runs about
    three times slower."""
    tiny = np.finfo(float).tiny
    stencil = np.where(np.abs(stencil) < tiny, 0.0, stencil)
    edge = np.where(np.abs(edge) < tiny, 0.0, edge)
    op = _GridOperator(stencil, edge, float(diag))
    n = edge.shape[0]
    if not _use_fft(n, cols):
        return replace(op, matrix=op.dense())
    from scipy.fft import irfft, next_fast_len, rfft  # imported here: only this branch needs it

    # a circular product of this length reads no wrapped-around term
    size = next_fast_len(2 * n - 1, real=True)
    forward = partial(rfft, n=size, axis=0)
    inverse = partial(irfft, n=size, axis=0)
    # entry (l, j) reads offset j - l: a circular cross-correlation
    wrapped = np.zeros(size)
    wrapped[:n] = stencil[n - 1 :]
    wrapped[size - n + 1 :] = stencil[: n - 1]
    return replace(op, spectrum=np.conj(forward(wrapped)), fft=(forward, inverse))


def _projection_operator(log_s: np.ndarray, drift: float, var: float, cols: int) -> _GridOperator:
    """Operator ``E`` with ``(E psi)[l] = E[hat(psi)(u_l + drift + sqrt(var) Z)]``
    where ``hat(psi)`` interpolates the node values linearly in log-spot and
    extrapolates linearly in spot beyond the grid.

    Cell by cell the integral is a pair of normal partial moments, which
    depend only on the cell's offset from the row: they make the Toeplitz
    stencil over the ``2n`` cell offsets, from ``2n + 1`` normal values.
    The edge block takes out the cells beyond the ends and adds the tails:
    the extrapolation is linear in the spot, so the partial expectation of
    ``exp(u)`` folds into the two end columns on each side.  Rows sum to
    one up to rounding.
    """
    from scipy.special import ndtr  # imported here: only the grid solvers need it

    u = log_s
    n = u.size
    h = u[1] - u[0]
    s = np.exp(u)
    sd = math.sqrt(var)
    x = (np.arange(-n, n + 1) * h - drift) / sd      # node offsets -n..n
    cdf = ndtr(x)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mass = cdf[1:] - cdf[:-1]                         # cells -n..n-1
    first = pdf[:-1] - pdf[1:]                        # int x phi(x) over each cell
    rel = drift * mass + sd * first                   # first moment about the row
    lo_off = np.arange(-n, n) * h
    left = ((lo_off + h) * mass - rel) / h            # weight of a cell's left node
    right = (rel - lo_off * mass) / h                 # ... and of its right node
    stencil = left[1:] + right[:-1]
    # per row: the cell left of node 0 and the cell right of node n - 1
    # do not exist, and the tails fold in
    mean = np.exp(u + drift + 0.5 * var)
    x_lo = x[1 : n + 1][::-1]
    x_hi = x[n : 2 * n][::-1]
    p_lo = cdf[1 : n + 1][::-1]
    t_lo = (mean * ndtr(x_lo - sd) - s[0] * p_lo) / (s[1] - s[0])
    p_hi = ndtr(-x_hi)
    t_hi = (mean * ndtr(sd - x_hi) - s[-1] * p_hi) / (s[-1] - s[-2])
    edge = np.stack(
        [p_lo - t_lo - right[:n][::-1], t_lo, -t_hi, p_hi + t_hi - left[n:][::-1]], axis=1
    )
    return _grid_operator(stencil, edge, 0.0, cols)


def _spot_stencil(grid: SurfaceGrid, log_q):
    """Two-point stencil of ``psi(exp(log_q))`` on the spot nodes, for
    queries of any shape: linear interpolation in log-spot between nodes,
    linear extrapolation in spot beyond the ends.  Returns the columns
    ``c0, c1`` and the weights ``w0, w1``, each shaped like ``log_q``."""
    u, s = grid.log_s, grid.s
    n = u.size
    log_q = np.asarray(log_q, dtype=float)
    pos = (log_q - u[0]) / (u[1] - u[0])
    c0 = np.clip(np.floor(pos).astype(int), 0, n - 2)
    w1 = np.asarray(pos - c0)
    w0 = np.asarray(1.0 - w1)
    # the spot, and the tail weights, only where a query leaves the grid
    below = pos < 0.0
    if below.any():
        g_lo = (np.exp(log_q[below]) - s[0]) / (s[1] - s[0])
        w0[below], w1[below] = 1.0 - g_lo, g_lo
    above = pos > n - 1.0
    if above.any():
        g_hi = (np.exp(log_q[above]) - s[-1]) / (s[-1] - s[-2])
        w0[above], w1[above] = -g_hi, 1.0 + g_hi
    return c0, c0 + 1, w0, w1


def _jump_operators(model: MarketModel, grid: SurfaceGrid) -> list:
    """Operators ``[B0, B1]`` over the jump nodes, where ``S`` shifts the
    spot by ``1 + eta``: ``B0`` sums ``w (S - I)`` and ``B1`` sums
    ``w eta (S - I)`` over the node weights ``w``.  Built for products
    with one column per age row.

    A shift moves every row by the same number of nodes, so its reads make
    a two-tap stencil.  Where a read leaves the grid, ``_spot_stencil``
    extrapolates it onto the two end nodes instead: the edge block adds
    that read and takes out the stencil's read of the same row, which can
    only land on an end node."""
    jump = model.jump
    u = grid.log_s
    n = u.size
    shifts = np.array(jump.log_gain)
    pos = shifts / (u[1] - u[0])
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    offsets = np.concatenate([lo, lo + 1])
    on_grid = np.abs(offsets) < n
    # the rows each node reads off the grid: the first ones for a fall,
    # the last ones for a rise
    reach = np.minimum(np.ceil(np.abs(pos)).astype(int), n)
    node = np.repeat(np.arange(pos.size), reach)
    row = np.arange(node.size) - np.repeat(np.cumsum(reach) - reach, reach)
    row += np.where(pos < 0, 0, n - reach)[node]
    c0, _, w0, w1 = _spot_stencil(grid, u[row] + shifts[node])
    slot = row * 4 + np.where(c0 == 0, 0, 2)
    index = np.concatenate([slot, slot + 1, row * 4, row * 4 + 3])
    taps = np.concatenate([
        w0,
        w1,
        np.where(row + lo[node] + 1 == 0, -frac[node], 0.0),
        np.where(row + lo[node] == n - 1, frac[node] - 1.0, 0.0),
    ])
    ops = []
    for wt in (jump.w, jump.w * jump.eta_vals):
        stencil = np.bincount(
            offsets[on_grid] + n - 1,
            np.concatenate([wt * (1.0 - frac), wt * frac])[on_grid],
            minlength=2 * n - 1,
        )
        edge = np.bincount(index, np.tile(wt[node], 4) * taps, minlength=4 * n).reshape(n, 4)
        ops.append(_grid_operator(stencil, edge, -wt.sum(), grid.y.size))
    return ops


# ---------------------------------------------------------------------------
# One-step evolution
# ---------------------------------------------------------------------------


def _hedge(model: MarketModel, s: np.ndarray, b1, vals: np.ndarray, t: float) -> np.ndarray:
    """Locally risk-minimizing stock position on the layer ``vals`` at time
    ``t``, shape ``(k, n_space, n_age + 1)``: ``sigma^2`` times the spot
    gradient plus ``b1 vals / s`` (none without jumps), over ``sigma^2 + int eta^2 dnu``."""
    k, ns, ny1 = vals.shape
    # central differences inside, one-sided at the ends
    up, down = np.minimum(np.arange(ns) + 1, ns - 1), np.maximum(np.arange(ns) - 1, 0)
    grad = (vals.take(up, axis=1) - vals.take(down, axis=1)) / (s[up] - s[down])[:, None]
    jump_term = 0.0
    if b1 is not None:
        # one product over every regime's columns
        flat = b1 @ vals.transpose(1, 0, 2).reshape(ns, -1)
        jump_term = flat.reshape(ns, k, ny1).transpose(1, 0, 2) / s[:, None]
    # the array square: a scalar ``** 2`` is pow(), which can differ in the last bit
    sig2 = np.array([model.sigma(t, i) for i in range(k)])[:, None, None] ** 2
    return (sig2 * grad + jump_term) / (sig2 + model.ints.int_eta_sq)


class _EvolutionEngine:
    """Precomputed machinery of the backward induction on a fixed grid,
    shared by both grid solvers: each gives ``solve`` its one-step rule.

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
        self.lam_next = np.zeros((k, k, ny1))  # switch rates one step past the age rows
        for i in range(k):
            lam0 = np.zeros((k, ny1))
            lam1 = self.lam_next[i]
            for j, fn in spec.exits(i):
                lam0[j] = fn.value(y)
                lam1[j] = fn.value(y_next)
                # an infinite rate (a Weibull ``shape < 1`` at age 0) would
                # turn the solve into NaN
                both = np.concatenate([lam0[j], lam1[j]])
                bad = np.flatnonzero(~np.isfinite(both))
                if bad.size:
                    age = np.concatenate([y, y_next])[bad[0]]
                    raise ValueError(
                        f"switch rate ({i}, {j}) is {both[bad[0]]} at age {age:.6g}; "
                        "grid methods need rates finite on the age rows"
                    )
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
        self.jumps = _jump_operators(model, grid) if model.jump.z.size else None
        # the projection kernels of the latest ``t0``, built on first use
        self._kernels = None
        self._kernel_t0 = None

    def _build_kernel(self, i: int, t0: float) -> _GridOperator:
        var = self.model.sigma_sq_integral(t0, t0 + self.dt, i)
        drift = (
            self.model.r[i] * self.dt
            + self.model.drift_tilt_integral(t0, t0 + self.dt, i)
            - 0.5 * var
        )
        # applied to the age rows and the age-zero column of every regime
        cols = self.grid.y.size + self.model.n_states
        # a drift that carries the spot's mean past the largest float makes
        # the tails inf and nan: refuse the step rather than warn per array
        with np.errstate(over="ignore", invalid="ignore"):
            op = _projection_operator(self.grid.log_s, drift, var, cols)
        if not (np.isfinite(op.stencil).all() and np.isfinite(op.edge).all()):
            raise GridResolutionError(
                f"the projection of regime {i} over one step from t={t0:.6g} overflows "
                f"(log-drift {drift:.6g}, variance {var:.6g})"
            )
        return op

    def kernel(self, i: int, t0: float) -> _GridOperator:
        if self.model.sigma_values is not None:
            # constant volatility: the kernels built from t0 = 0 serve every
            # step, as (t0 + dt) - t0 differs from dt in the last bit
            t0 = 0.0
        if t0 != self._kernel_t0:
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
            acc = -self.model.r[i] * vals[i]
            if self.jumps is not None:
                acc = self._jump_term(t, i, vals[i], acc)
            out[i] = acc
        return out

    def _jump_term(self, t: float, i: int, v: np.ndarray, acc=-0.0) -> np.ndarray:
        """``acc + (B0 + J(t, i) B1) v``, by two dense products or by one
        FFT of the combined spectrum; the default ``-0.0`` adds nothing,
        not even the sign of a zero."""
        b0, b1 = self.jumps
        j = float(self.model.j_ratio(t, i))
        if b0.matrix is not None:
            return acc + b0 @ v + j * (b1 @ v)
        return acc + b0.plus(b1, j) @ v

    def solve(self, payoff, step) -> PriceSurface:
        """Backward induction from ``payoff(s)`` at the horizon: layer ``n``
        is ``step(layer n + 1, t[n], t[n + 1])``, and its hedge ratios are
        filled right after it, so no pass reads the whole surface again."""
        grid, t = self.grid, self.grid.t
        b1 = self.jumps[1] if self.jumps else None
        n_time = t.size - 1
        vals = np.empty((n_time + 1, self.model.n_states, grid.log_s.size, grid.y.size))
        hedge = np.empty_like(vals)
        vals[n_time] = np.asarray(payoff(grid.s), dtype=float)[None, :, None]
        hedge[n_time] = _hedge(self.model, grid.s, b1, vals[n_time], t[n_time])
        for n in range(n_time - 1, -1, -1):
            vals[n] = step(vals[n + 1], t[n], t[n + 1])
            hedge[n] = _hedge(self.model, grid.s, b1, vals[n], t[n])
        return PriceSurface(grid, vals, hedge)


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
    if vals.ndim < 2 or vals.shape[0] != model.n_states or vals.shape[1] != grid.log_s.size:
        raise ValueError("values must be (n_states, n_space, ...)")
    if not model.jump.z.size:
        return np.zeros_like(vals)
    engine = _EvolutionEngine(model, grid)
    flat = vals.reshape(model.n_states, grid.log_s.size, -1)
    out = np.empty_like(flat)
    for i in range(model.n_states):
        out[i] = engine._jump_term(t, i, flat[i])
    return out.reshape(vals.shape)


# ---------------------------------------------------------------------------
# Price surface
# ---------------------------------------------------------------------------


@dataclass
class PriceSurface:
    """Prices and hedge ratios on the full ``(t, regime, spot, age)``
    grid, with multilinear interpolation between nodes and linear-in-spot
    extrapolation beyond the spot range."""

    grid: SurfaceGrid
    values: np.ndarray
    hedge: np.ndarray

    def _lookup(self, arr: np.ndarray, t: float, s, x, y):
        grid = self.grid
        # solver grids have two or more times, and age rows one time step apart
        pos = (float(t) - grid.t[0]) / grid.dt
        n0 = int(np.clip(np.floor(pos), 0, grid.t.size - 2))
        wt = float(np.clip(pos - n0, 0.0, 1.0))
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=int)
        y = np.asarray(y, dtype=float)
        s, x, y = np.broadcast_arrays(s, x, y)
        # negative indices would silently wrap to the last regimes
        if np.any((x < 0) | (x >= arr.shape[1])):
            raise ValueError(f"regime index outside [0, {arr.shape[1]})")
        if np.any(y < 0.0):
            raise ValueError("regime age must be nonnegative")
        # the solver's own off-node rule in spot, linear in age between rows
        c0, c1, w0, w1 = _spot_stencil(grid, np.log(s))
        n_age = grid.y.size - 1
        # flat offsets of (x, c0, age 0) and (x, c1, age 0) in one time layer
        row = x * arr.shape[2]
        f0, f1 = (row + c0) * (n_age + 1), (row + c1) * (n_age + 1)

        def layer(f):
            # linear in time, blending only the entries this lookup reads
            v = arr[n0].take(f)
            return v if wt == 0.0 else (1.0 - wt) * v + wt * arr[n0 + 1].take(f)

        if n_age == 0:
            # every age reads the one row
            out = w0 * layer(f0) + w1 * layer(f1)
            return out if out.ndim else float(out)
        pos_y = np.clip((y - grid.y[0]) / grid.dt, 0.0, n_age)
        iy = np.floor(pos_y).astype(int)
        fy = pos_y - iy
        iy1 = np.minimum(iy + 1, n_age)
        lo = w0 * layer(f0 + iy) + w1 * layer(f1 + iy)
        hi = w0 * layer(f0 + iy1) + w1 * layer(f1 + iy1)
        out = (1.0 - fy) * lo + fy * hi
        return out if out.ndim else float(out)

    def value_at(self, t: float, s, x, y):
        """Interpolated price at time ``t`` for spots/regimes/ages given as
        broadcastable arrays."""
        return self._lookup(self.values, t, s, x, y)

    def hedge_at(self, t: float, s, x, y):
        """Interpolated hedge ratio."""
        return self._lookup(self.hedge, t, s, x, y)

    def price(self, t: float, s: float, x: int, y: float) -> float:
        return float(self.value_at(t, s, x, y))

    def to_csv(self, path) -> None:
        """Rows ``t,s,regime,y,price,xi`` over the full grid; on a large
        grid the later half of the time layers is formatted by a forked
        process."""
        g = self.grid
        first, *later = (
            surface_rows(g.t[a:b], g.s, g.y, self.values[a:b], self.hedge[a:b])
            for a, b in layer_blocks(g.t.size, self.values.size)
        )
        # the header is the first block's alone
        write_artifact(path, first, *(islice(rows, 1, None) for rows in later))


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
    ones = np.ones((model.n_states, grid.log_s.size, grid.y.size))
    defect = float(np.abs(engine.u_step(ones, grid.t[-2]) - 1.0).max())
    if not defect <= CONSERVATIVITY_TOL:
        raise GridResolutionError(
            f"one-step conservativity defect {defect:.3e} exceeds {CONSERVATIVITY_TOL:.1e}"
        )
    dt = engine.dt

    def step(later, t0, t1):
        corr_end = engine.correction(later, t1)
        u_phi = engine.u_step(later, t0)
        u_corr = engine.u_step(corr_end, t0)
        corr_start = engine.correction(u_phi + dt * u_corr, t0)
        return u_phi + 0.5 * dt * (u_corr + corr_start)

    return engine.solve(payoff, step)


def hedge_ratio(model: MarketModel, surface: PriceSurface) -> np.ndarray:
    """Locally risk-minimizing stock position on the whole grid of
    ``surface``, layer by layer as the solvers fill it; reads only the spot
    grid, ``B1`` and sigma, so no time, age or switch-rate check applies."""
    grid = surface.grid
    b1 = _jump_operators(model, grid)[1] if model.jump.z.size else None
    return np.stack([_hedge(model, grid.s, b1, v, t) for v, t in zip(surface.values, grid.t)])
