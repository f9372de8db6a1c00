"""Semi-Markov regime process with age-dependent transition rates.

A regime chain on states ``{0, ..., k-1}`` leaves state ``i`` at age ``y``
(time since the last switch) with directed intensity ``rate(i, j, y)``.
The total exit intensity, its running integral, the holding-time law, and
the embedded jump probabilities all derive from the directed rates:

    total(i, y)   = sum_j rate(i, j, y)
    hazard(i, y)  = int_0^y total(i, u) du
    F(y | i)      = 1 - exp(-hazard(i, y))
    p(i, j, y)    = rate(i, j, y) / total(i, y)

Holding times are sampled exactly by inverting the cumulative hazard
against a unit exponential draw: closed form where the family allows it,
otherwise by bracketed root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import array, number, section, sections, text

__all__ = [
    "ConstantRate",
    "WeibullRate",
    "TableRate",
    "RateSpec",
    "RegimePath",
    "CheckResult",
    "ValidationReport",
    "rate_spec_from_dict",
    "validate_rates",
    "cumulative_hazard",
    "holding_cdf",
    "embedded_probs",
    "sample_transition",
    "simulate_regime_path",
]

#: absolute tolerance of the hazard-inversion root finder
INVERSION_TOL = 1e-10
#: iteration cap of the hazard-inversion root finder
INVERSION_MAX_ITER = 200
#: threshold of the divergence proxy hazard(probe age) >= threshold
DIVERGENCE_THRESHOLD = 30.0
#: probe age of the divergence proxy, as a multiple of y_max: far past the
#: visited ages, so it certifies the hazard tail
DIVERGENCE_AGE_FACTOR = 1000.0
#: age nodes on which ``validate_rates`` evaluates each rate over [0, y_max]
RATE_CHECK_NODES = 2001


# ---------------------------------------------------------------------------
# Rate families
# ---------------------------------------------------------------------------


class ConstantRate:
    """Age-independent intensity ``rate``."""

    family = "constant"

    def __init__(self, rate: float):
        if not math.isfinite(rate):
            raise ValueError("constant rate must be finite")
        self.rate = float(rate)

    def value(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.rate)

    def integral(self, y):
        return self.rate * np.asarray(y, dtype=float)


class WeibullRate:
    """Power-law intensity ``scale * shape * y**(shape - 1)``.

    The running integral is ``scale * y**shape``.  ``shape > 1`` gives an
    increasing hazard that vanishes at age zero, ``shape = 1`` degenerates
    to a constant rate.
    """

    family = "weibull"

    def __init__(self, scale: float, shape: float):
        if not (math.isfinite(scale) and math.isfinite(shape)):
            raise ValueError("weibull parameters must be finite")
        if scale <= 0 or shape <= 0:
            raise ValueError("weibull scale and shape must be positive")
        self.scale = float(scale)
        self.shape = float(shape)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return self.scale * self.shape * y ** (self.shape - 1.0)

    def integral(self, y):
        return self.scale * np.asarray(y, dtype=float) ** self.shape


class TableRate:
    """Tabulated intensity, linear between knots, constant beyond them.

    The running integral is evaluated in closed form for the interpolant
    (piecewise quadratic), so no quadrature error enters the holding law.
    """

    family = "table"

    def __init__(self, y, rate):
        y = np.asarray(y, dtype=float)
        rate = np.asarray(rate, dtype=float)
        if y.ndim != 1 or y.size < 2 or y.shape != rate.shape:
            raise ValueError("table family needs matching 1-d knots and values")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(rate))):
            raise ValueError("table knots and values must be finite")
        if np.any(np.diff(y) <= 0) or y[0] < 0:
            raise ValueError("table knots must be nonnegative and increasing")
        self.y = y
        self.rate = rate
        # cumulative integral at the knots, plus the head piece below y[0]
        seg = 0.5 * (rate[1:] + rate[:-1]) * np.diff(y)
        self._cum = np.concatenate([[rate[0] * y[0]], rate[0] * y[0] + np.cumsum(seg)])

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return np.interp(y, self.y, self.rate)

    def integral(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.clip(np.searchsorted(self.y, y, side="right") - 1, 0, self.y.size - 2)
        y_lo = self.y[idx]
        below = y < self.y[0]
        above = y > self.y[-1]
        mid_val = self.value(np.clip(y, self.y[0], self.y[-1]))
        out = self._cum[idx] + 0.5 * (self.rate[idx] + mid_val) * (
            np.clip(y, self.y[0], self.y[-1]) - y_lo
        )
        out = np.where(below, self.rate[0] * y, out)
        out = np.where(above, self._cum[-1] + self.rate[-1] * (y - self.y[-1]), out)
        return out


# ---------------------------------------------------------------------------
# Rate specification
# ---------------------------------------------------------------------------


@dataclass
class RateSpec:
    """Directed age-dependent transition rates on ``{0, ..., n_states-1}``.

    Parameters
    ----------
    n_states : int
        Number of regimes.
    rates : dict
        Mapping ``(i, j) -> rate function`` for ``i != j``.  Pairs that are
        absent carry zero intensity; a state with no exits is absorbing.
    rate_bound : float, optional
        Declared uniform upper bound used by the boundedness check.
    """

    n_states: int
    rates: dict
    rate_bound: float | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("state set must be nonempty")
        for (i, j) in self.rates:
            if not (0 <= i < self.n_states and 0 <= j < self.n_states):
                raise ValueError(f"rate pair ({i}, {j}) outside state range")
            if i == j:
                raise ValueError("self-transitions are not allowed")
        self._exits = [
            sorted((j, fn) for (i, j), fn in self.rates.items() if i == s)
            for s in range(self.n_states)
        ]
        #: no exit rate depends on the age
        self.age_free = all(map(_age_free, self.rates.values()))
        # each state's switch law, built once: the hazard inverse where it
        # has a closed form, the next-state CDF where it is age-free
        self._inverses = [_closed_form_inverse(exits) for exits in self._exits]
        self._switch_cdfs = [_fixed_switch_cdf(self, s) for s in range(self.n_states)]

    def exits(self, i: int) -> list:
        """Exit list ``[(j, rate_fn), ...]`` of state ``i``."""
        return self._exits[i]

    def total_rate(self, i: int, y):
        """Total exit intensity of state ``i`` at age ``y``."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for _, fn in self.exits(i):
            out = out + fn.value(y)
        return out


def rate_spec_from_dict(d: dict) -> RateSpec:
    """Build a :class:`RateSpec` from its dict form.

    Expected layout::

        {"states": k,
         "rates": [{"from": i, "to": j, "family": "constant" | "weibull" | "table",
                    "params": {...}}, ...],
         "rate_bound": optional float}

    The params are ``rate`` (constant), ``scale`` and ``shape`` (weibull),
    and the arrays ``y`` and ``rate`` (table).
    """
    k = number(d, "states", kind=int)
    rates = {}
    for entry in sections(d, "rates"):
        key = (number(entry, "from", kind=int), number(entry, "to", kind=int))
        if key in rates:
            raise ValueError(f"duplicate rate entry for pair {key}")
        family = text(entry, "family")
        params = section(entry, "params")
        if family == "constant":
            rates[key] = ConstantRate(number(params, "rate"))
        elif family == "weibull":
            rates[key] = WeibullRate(number(params, "scale"), number(params, "shape"))
        elif family == "table":
            rates[key] = TableRate(array(params, "y"), array(params, "rate"))
        else:
            raise ValueError(f"unknown rate family {family!r}")
    return RateSpec(n_states=k, rates=rates, rate_bound=number(d, "rate_bound", None))


# ---------------------------------------------------------------------------
# Holding law
# ---------------------------------------------------------------------------


def cumulative_hazard(spec: RateSpec, i: int, y):
    """Integrated total exit intensity of state ``i`` up to age ``y``."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for _, fn in spec.exits(i):
        out = out + fn.integral(y)
    return out if out.ndim else float(out)


def holding_cdf(spec: RateSpec, i: int, y):
    """CDF of the holding time in state ``i`` entered at age zero."""
    return -np.expm1(-cumulative_hazard(spec, i, y))


def embedded_probs(spec: RateSpec, i: int, y: float) -> np.ndarray:
    """Distribution of the next state given a switch out of ``i`` at age ``y``.

    Raises
    ------
    ValueError
        If the total exit rate vanishes at ``y``, or a rate is negative there.
    """
    exits = spec.exits(i)
    p = np.zeros(spec.n_states)
    total = 0.0
    for j, fn in exits:
        v = float(fn.value(y))
        p[j] = v
        total += v
    if total <= 0.0:
        raise ValueError(f"state {i} has zero total exit rate at age {y}")
    p /= total
    if not p.min() >= 0.0:
        raise ValueError(f"state {i} has a negative or undefined exit rate at age {y}")
    return p


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def validate_rates(spec: RateSpec, y_max: float) -> ValidationReport:
    """Check the admissibility of a rate spec on the working age range.

    Performs, per directed pair, a positivity check (no negative values,
    not identically zero) and a boundedness check on ``[0, y_max]``, and,
    per non-absorbing state, the divergence proxy
    ``hazard(probe) >= DIVERGENCE_THRESHOLD`` that guarantees holding
    times are sampled in bounded time, at the probe age
    ``DIVERGENCE_AGE_FACTOR * y_max``.

    Raises
    ------
    ValueError
        If a rate evaluates to NaN on the grid.
    """
    grid = np.linspace(0.0, y_max, RATE_CHECK_NODES)
    checks = []
    for (i, j), fn in sorted(spec.rates.items()):
        vals = fn.value(grid)
        if np.any(np.isnan(vals)):
            raise ValueError(f"rate ({i}, {j}) evaluates to NaN on [0, {y_max}]")
        lo = np.min(vals)
        if lo < 0.0:
            where = grid[int(np.argmin(vals))]
            checks.append(
                CheckResult(
                    f"positivity ({i}->{j})",
                    False,
                    f"pair ({i}, {j}) negative at y={where:.6g}: {lo:.6g}",
                )
            )
        elif np.max(vals) == 0.0:
            checks.append(
                CheckResult(
                    f"positivity ({i}->{j})",
                    False,
                    f"pair ({i}, {j}) identically zero on [0, {y_max}]",
                )
            )
        else:
            checks.append(CheckResult(f"positivity ({i}->{j})", True, "nonnegative, not null"))
        hi = np.max(vals)
        bound = spec.rate_bound if spec.rate_bound is not None else math.inf
        ok = np.isfinite(hi) and hi <= bound
        where = grid[int(np.argmax(vals))]
        checks.append(
            CheckResult(
                f"bounded ({i}->{j})",
                bool(ok),
                f"sup on [0, {y_max}] is {hi:.6g} at y={where:.6g}"
                + ("" if spec.rate_bound is None else f", declared bound {bound:.6g}"),
            )
        )
    probe = DIVERGENCE_AGE_FACTOR * y_max
    for i in range(spec.n_states):
        if not spec.exits(i):
            continue
        total = float(cumulative_hazard(spec, i, probe))
        checks.append(
            CheckResult(
                f"hazard divergence (state {i})",
                total >= DIVERGENCE_THRESHOLD,
                f"state {i} integrated hazard at age {probe:.6g} is {total:.6g},"
                f" threshold {DIVERGENCE_THRESHOLD:.6g}",
            )
        )
    return ValidationReport(passed=all(c.passed for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _age_free(fn) -> bool:
    return fn.family == "constant" or (fn.family == "weibull" and fn.shape == 1.0)


def _closed_form_inverse(exits: list):
    """Hazard inverse ``(y0, target) -> h`` of an exit list whose total
    hazard has one: all constant, or power laws of one shape; else None."""
    families = {fn.family for _, fn in exits}
    if families == {"constant"}:
        total = sum(fn.rate for _, fn in exits)
        return lambda y0, target: target / total if total > 0.0 else math.inf
    if families == {"weibull"}:
        shapes = {fn.shape for _, fn in exits}
        if len(shapes) == 1:
            shape = shapes.pop()
            scale = sum(fn.scale for _, fn in exits)
            return lambda y0, target: (y0**shape + target / scale) ** (1.0 / shape) - y0
    return None


def _switch_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` reads its one uniform against."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _fixed_switch_cdf(spec: RateSpec, i: int):
    """Next-state CDF of state ``i`` where it does not depend on the age:
    one exit, or age-free exits of positive rate; else None."""
    exits = spec.exits(i)
    if len(exits) == 1:
        return _switch_cdf(np.eye(spec.n_states)[exits[0][0]])
    if exits and all(_age_free(fn) and fn.value(0.0) > 0.0 for _, fn in exits):
        return _switch_cdf(embedded_probs(spec, i, 0.0))
    return None


def _invert_hazard(spec: RateSpec, i: int, y0: float, target: float) -> float:
    """Solve hazard(y0 + h) - hazard(y0) = target for the holding time h.

    A hazard that stays below ``target`` (a zero rate, or a table whose
    rate ends at zero) gives ``inf``: the state is never left, which is
    exact in law for every horizon below the bracketing cap of 1e12."""
    inverse = spec._inverses[i]
    if inverse is not None:
        return inverse(y0, target)

    from scipy.optimize import brentq  # imported here: only mixed families need it

    base = float(cumulative_hazard(spec, i, y0))

    def gap(h: float) -> float:
        return float(cumulative_hazard(spec, i, y0 + h)) - base - target

    hi = 1.0
    while gap(hi) < 0.0:
        if hi > 1e12:
            return math.inf
        hi *= 2.0
    return float(brentq(gap, 0.0, hi, xtol=INVERSION_TOL, maxiter=INVERSION_MAX_ITER))


def sample_transition(spec: RateSpec, i: int, y0: float, rng: np.random.Generator):
    """Draw (holding time, next state) for state ``i`` entered with age ``y0``.

    The holding time is exact in law: a unit exponential is drawn and the
    cumulative hazard increment is inverted, in closed form for all-constant
    or equal-shape power-law exits and by bracketed root finding otherwise.
    A hazard that never reaches the drawn level gives ``(inf, i)`` without
    drawing a next state.  Otherwise one uniform is read against the
    state's switch CDF (built once where it has no age), as
    ``Generator.choice(n_states, p=p)`` reads it.

    Returns
    -------
    (float, int)
        Time until the switch and the state switched into.
    """
    if not spec.exits(i):
        raise ValueError(f"state {i} is absorbing: no exit rates declared")
    target = float(rng.exponential())
    hold = _invert_hazard(spec, i, y0, target)
    if math.isinf(hold):
        return hold, i
    cdf = spec._switch_cdfs[i]
    if cdf is None:
        cdf = _switch_cdf(embedded_probs(spec, i, y0 + hold))
    return hold, int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class RegimePath:
    """One simulated regime trajectory on ``[0, horizon]``.

    ``times`` holds the switch epochs (strictly increasing, in
    ``(0, horizon]``) and ``states[n]`` the regime entered at ``times[n]``.
    The age process is ``y0 + t`` before the first switch and the time
    since the last switch afterwards; at a switch epoch the age is zero.
    """

    x0: int
    y0: float
    horizon: float
    times: np.ndarray
    states: np.ndarray

    def state_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t, side="right"))
        return self.x0 if idx == 0 else int(self.states[idx - 1])

    def age_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right"))
        return self.y0 + t if idx == 0 else t - float(self.times[idx - 1])

    def segments(self):
        """Yield ``(t_start, t_end, state, age_at_start)`` pieces in order."""
        # plain lists: this runs once per Monte Carlo path
        bounds = [0.0, *self.times.tolist(), self.horizon]
        states = [self.x0, *self.states.tolist()]
        for n, s in enumerate(states):
            age0 = self.y0 if n == 0 else 0.0
            yield float(bounds[n]), float(bounds[n + 1]), int(s), age0


def simulate_regime_path(
    spec: RateSpec, x0: int, y0: float, horizon: float, rng: np.random.Generator
) -> RegimePath:
    """Simulate the regime chain from ``(x0, y0)`` over ``[0, horizon]``."""
    if not (0 <= x0 < spec.n_states):
        raise ValueError(f"initial state {x0} outside range")
    if y0 < 0:
        raise ValueError("initial age must be nonnegative")
    times: list[float] = []
    states: list[int] = []
    t, x, age = 0.0, x0, y0
    while spec.exits(x):
        hold, nxt = sample_transition(spec, x, age, rng)
        if t + hold > horizon:
            break
        t += hold
        times.append(t)
        states.append(nxt)
        x, age = nxt, 0.0
    return RegimePath(
        x0=x0,
        y0=y0,
        horizon=horizon,
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=int),
    )

