"""Reference prices computed apart from the smjd package.

Nothing here imports smjd.  The input is a model dict in the CLI's config
layout with explicit jump nodes (``"jump": {"eta": ..., "nodes": [[z, w],
...]}``), constant volatility per regime and constant or Weibull switching
rates.  Three cases are covered:

* Black-Scholes in closed form (``bs_call``), also used with a
  time-integrated variance for tabulated volatility;
* Markov regimes (all rates constant): the Lewis (2001) Fourier price of
  the discounted characteristic function

      phi(u) = e_{x0}^T exp(T (G + diag(psi_i(u) - r_i))) 1,

  where ``psi_i`` is the log-price exponent of regime ``i`` under the
  minimal martingale measure: drift ``mu + J sigma^2 - sigma^2 / 2`` and
  jump intensity ``w (1 + J eta)``, ``J = (r - mu - int eta) / (sigma^2 +
  int eta^2)``;
* age-dependent (Weibull) regimes: given the occupation times ``tau_i`` of
  the regimes the log-price has independent increments, so ``phi(u) =
  E[exp(sum_i tau_i (psi_i(u) - r_i))]``.  The occupation times come from
  this module's own sampler, which inverts the cumulative hazard
  ``H(y) = scale * y**shape`` of every exit.  The price is the mean of the
  conditional Lewis prices and its error bar their standard error.

Run ``python3 perfbench/reference.py`` to recompute ``reference.json``
(the stored semi-Markov values and error bars) together with the
self-checks; ``--check`` recomputes and compares without writing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtr

HERE = Path(__file__).resolve().parent
STORE = HERE / "reference.json"

#: Gauss-Legendre panels on [0, U] for the Lewis integral, graded
#: quadratically towards u = 0 where 1 / (u^2 + 1/4) varies fastest
_PANELS = 32
_PANEL_ORDER = 8
#: seed and size of the occupation-time sample behind the stored values
OCCUPATION_SEED = 20181127
OCCUPATION_PATHS = 2_000_000


# ---------------------------------------------------------------------------
# Black-Scholes
# ---------------------------------------------------------------------------


def bs_call(s0: float, strike: float, r: float, var: float, horizon: float) -> float:
    """Call price with total log-variance ``var`` and constant rate ``r``."""
    sd = math.sqrt(var)
    d1 = (math.log(s0 / strike) + r * horizon + 0.5 * var) / sd
    return float(s0 * ndtr(d1) - strike * math.exp(-r * horizon) * ndtr(d1 - sd))


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


def _eta(jump: dict, z: np.ndarray) -> np.ndarray:
    eta = jump["eta"]
    if eta["kind"] == "clamp":
        return np.clip(eta["slope"] * z, eta["lo"], eta["hi"])
    if eta["kind"] == "table":
        return np.interp(z, eta["z"], eta["value"])
    raise ValueError(f"unsupported eta kind {eta['kind']!r}")


def _params(model: dict):
    """Per-regime arrays r, mu, sigma and the jump nodes (log-size, weight,
    size)."""
    if model["sigma"]["kind"] != "constant":
        raise ValueError("the Fourier reference needs constant volatility")
    r = np.asarray(model["r"], dtype=float)
    mu = np.asarray(model["mu"], dtype=float)
    sigma = np.asarray(model["sigma"]["values"], dtype=float)
    nodes = np.asarray(model["jump"].get("nodes", []), dtype=float).reshape(-1, 2)
    z, w = nodes[:, 0], nodes[:, 1]
    eta = _eta(model["jump"], z)
    return r, mu, sigma, np.log1p(eta), w, eta


def log_price_exponent(model: dict, u: np.ndarray) -> np.ndarray:
    """``psi_i(u)`` for complex ``u``, shape ``(k, len(u))``: the exponent
    of ``E^Q[exp(i u d log S)]`` per unit time in regime ``i``."""
    r, mu, sigma, log_jump, w, eta = _params(model)
    int_eta = float(w @ eta)
    int_eta_sq = float(w @ (eta * eta))
    ratio = (r - mu - int_eta) / (sigma**2 + int_eta_sq)
    drift = mu + ratio * sigma**2 - 0.5 * sigma**2
    u = np.asarray(u, dtype=complex)
    out = 1j * np.outer(drift, u) - 0.5 * np.outer(sigma**2, u * u)
    if w.size:
        tilted = w[None, :] * (1.0 + np.outer(ratio, eta))       # (k, m)
        if np.any(tilted < 0):
            raise ValueError("tilted jump intensity is negative")
        cf = np.exp(1j * np.outer(log_jump, u)) - 1.0              # (m, U)
        out = out + tilted @ cf
    return out


def generator(model: dict) -> np.ndarray:
    """Generator matrix of a Markov (all-constant-rate) regime chain."""
    reg = model["regimes"]
    k = int(reg["states"])
    g = np.zeros((k, k))
    for entry in reg["rates"]:
        if entry["family"] != "constant":
            raise ValueError("generator() needs constant rates")
        i, j = int(entry["from"]), int(entry["to"])
        g[i, j] += float(entry["params"]["rate"])
        g[i, i] -= float(entry["params"]["rate"])
    return g


# ---------------------------------------------------------------------------
# Lewis (2001) inversion
# ---------------------------------------------------------------------------


def _lewis_nodes(sigma_min: float, horizon: float):
    """Nodes and weights on [0, U]: the integrand decays like
    ``exp(-u^2 sigma_min^2 T / 2)``, so U puts that factor below e^-40."""
    u_max = math.sqrt(80.0 / (sigma_min**2 * horizon))
    x, wq = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    edges = u_max * np.linspace(0.0, 1.0, _PANELS + 1) ** 2
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * wq[None, :]).ravel()
    return nodes, weights


def _lewis_weights(nodes, weights, s0: float, strikes) -> np.ndarray:
    """Matrix ``C`` with ``call = s0 - Re(phi(u - i/2) @ C)``, one column
    per strike."""
    strikes = np.asarray(strikes, dtype=float)
    k = np.log(s0 / strikes)
    return (
        weights[:, None]
        * np.exp(1j * np.outer(nodes, k))
        / (nodes[:, None] ** 2 + 0.25)
        * np.sqrt(s0 * strikes)[None, :]
        / math.pi
    )


def _horizon(model: dict) -> float:
    return float(model["T"] if "T" in model else model["horizon"])


def markov_prices(model: dict, s0: float, x0: int, strikes) -> dict:
    """Call and put prices of a Markov-regime model by Fourier inversion."""
    horizon = _horizon(model)
    r = np.asarray(model["r"], dtype=float)
    sigma = np.asarray(model["sigma"]["values"], dtype=float)
    nodes, weights = _lewis_nodes(float(sigma.min()), horizon)
    shifted = np.concatenate([nodes - 0.5j, [0.0]])               # last: discount
    psi = log_price_exponent(model, shifted)                       # (k, U + 1)
    k = r.size
    mats = np.zeros((shifted.size, k, k), dtype=complex)
    mats[:, np.arange(k), np.arange(k)] = (psi - r[:, None]).T
    mats = horizon * (generator(model)[None, :, :] + mats)
    phi = expm(mats)[:, x0, :].sum(axis=1)                         # (U + 1,)
    discount = float(phi[-1].real)
    calls = s0 - (phi[:-1] @ _lewis_weights(nodes, weights, s0, strikes)).real
    strikes = np.asarray(strikes, dtype=float)
    return {
        "call": calls.tolist(),
        "put": (calls - s0 + strikes * discount).tolist(),
        "discount": discount,
    }


# ---------------------------------------------------------------------------
# Semi-Markov regimes: occupation times by hazard inversion
# ---------------------------------------------------------------------------


def _exit_laws(model: dict):
    """Per state: (scale sum, shape, targets, target probabilities).  Every
    exit of a state must share one power law ``H_j(y) = scale_j y**shape``
    (constant rates are shape 1), so the next state does not depend on
    the exit age."""
    reg = model["regimes"]
    k = int(reg["states"])
    exits: list[list] = [[] for _ in range(k)]
    for entry in reg["rates"]:
        p = entry["params"]
        if entry["family"] == "constant":
            scale, shape = float(p["rate"]), 1.0
        elif entry["family"] == "weibull":
            scale, shape = float(p["scale"]), float(p["shape"])
        else:
            raise ValueError(f"unsupported rate family {entry['family']!r}")
        exits[int(entry["from"])].append((int(entry["to"]), scale, shape))
    laws = []
    for i, ex in enumerate(exits):
        if not ex:
            laws.append(None)
            continue
        shapes = {e[2] for e in ex}
        if len(shapes) != 1:
            raise ValueError(f"state {i}: exits with different shapes")
        scales = np.array([e[1] for e in ex])
        laws.append((scales.sum(), shapes.pop(), np.array([e[0] for e in ex]), scales / scales.sum()))
    return laws


def occupation_times(model: dict, x0: int, y0: float, n: int, rng) -> np.ndarray:
    """Time spent in each regime over ``[0, T]`` along ``n`` independent
    regime paths started in ``x0`` at age ``y0``; shape ``(n, k)``."""
    horizon = _horizon(model)
    laws = _exit_laws(model)
    k = len(laws)
    occ = np.zeros((n, k))
    t = np.zeros(n)
    state = np.full(n, x0, dtype=int)
    age = np.full(n, float(y0))
    live = np.arange(n)
    while live.size:
        hold = np.full(live.size, np.inf)
        nxt = state[live].copy()
        for i, law in enumerate(laws):
            sel = np.flatnonzero(state[live] == i)
            if law is None or not sel.size:
                continue
            scale, shape, targets, probs = law
            e = rng.exponential(size=sel.size)
            a = age[live[sel]]
            hold[sel] = (a**shape + e / scale) ** (1.0 / shape) - a
            nxt[sel] = targets[rng.choice(targets.size, size=sel.size, p=probs)]
        remaining = horizon - t[live]
        stay = np.minimum(hold, remaining)
        occ[live, state[live]] += stay
        t[live] += stay
        switched = hold < remaining
        state[live[switched]] = nxt[switched]
        age[live[switched]] = 0.0
        live = live[switched]
    return occ


def _cexp(z: np.ndarray) -> np.ndarray:
    # np.exp on complex input is up to 10x slower on some of these
    # arguments than the real exponential times the phase
    return np.exp(z.real) * (np.cos(z.imag) + 1j * np.sin(z.imag))


def semi_markov_prices(model: dict, s0: float, x0: int, y0: float, strikes,
                       n_paths: int = OCCUPATION_PATHS, seed: int = OCCUPATION_SEED,
                       chunk: int = 4000) -> dict:
    """Call and put prices with standard errors, averaging the conditional
    Lewis price over sampled occupation times."""
    horizon = _horizon(model)
    r = np.asarray(model["r"], dtype=float)
    sigma = np.asarray(model["sigma"]["values"], dtype=float)
    nodes, weights = _lewis_nodes(float(sigma.min()), horizon)
    expo = log_price_exponent(model, nodes - 0.5j) - r[:, None]   # (k, U)
    cmat = _lewis_weights(nodes, weights, s0, strikes)
    strikes = np.asarray(strikes, dtype=float)
    occ = occupation_times(model, x0, y0, n_paths, np.random.default_rng(seed))
    call_sum = np.zeros(strikes.size)
    put_sum = np.zeros(strikes.size)
    call_sq = np.zeros(strikes.size)
    put_sq = np.zeros(strikes.size)
    for lo in range(0, n_paths, chunk):
        tau = occ[lo:lo + chunk]
        calls = s0 - (_cexp(tau @ expo) @ cmat).real               # (chunk, K)
        puts = calls - s0 + np.outer(np.exp(-tau @ r), strikes)
        call_sum += calls.sum(axis=0)
        put_sum += puts.sum(axis=0)
        call_sq += (calls * calls).sum(axis=0)
        put_sq += (puts * puts).sum(axis=0)
    out = {}
    for name, s1, s2 in (("call", call_sum, call_sq), ("put", put_sum, put_sq)):
        mean = s1 / n_paths
        var = (s2 - n_paths * mean * mean) / (n_paths - 1)
        out[name] = mean.tolist()
        out[name + "_se"] = np.sqrt(np.maximum(var, 0.0) / n_paths).tolist()
    return out


# ---------------------------------------------------------------------------
# Stored values and self-checks
# ---------------------------------------------------------------------------


def _self_checks() -> list[str]:
    """Cases with a known answer; each line reports its error."""
    lines = []
    one = {
        "regimes": {"states": 1, "rates": []},
        "r": [0.05], "mu": [0.08],
        "sigma": {"kind": "constant", "values": [0.2]},
        "jump": {"eta": {"kind": "clamp", "slope": 1.0, "lo": -0.5, "hi": 1.0}, "nodes": []},
        "T": 1.0,
    }
    strikes = [80.0, 100.0, 120.0]
    fourier = markov_prices(one, 100.0, 0, strikes)
    err = max(abs(c - bs_call(100.0, k, 0.05, 0.04, 1.0)) for c, k in zip(fourier["call"], strikes))
    lines.append(f"Black-Scholes by Fourier: max abs error {err:.2e}")
    if err > 1e-6:
        raise SystemExit(f"Fourier inversion disagrees with Black-Scholes: {err:.3e}")
    # a constant-rate chain written as shape-1 power laws: the sampler
    # must agree with the matrix exponential within its error bar
    two = dict(one)
    two.update({
        "regimes": {"states": 2, "rates": [
            {"from": 0, "to": 1, "family": "constant", "params": {"rate": 1.0}},
            {"from": 1, "to": 0, "family": "constant", "params": {"rate": 2.0}}]},
        "r": [0.05, 0.05], "mu": [0.08, 0.05],
        "sigma": {"kind": "constant", "values": [0.2, 0.35]},
    })
    exact = markov_prices(two, 100.0, 0, [100.0])["call"][0]
    sampled = semi_markov_prices(two, 100.0, 0, 0.0, [100.0], n_paths=200_000, seed=1)
    gap = abs(sampled["call"][0] - exact) / sampled["call_se"][0]
    lines.append(f"occupation sampler vs matrix exponential: {gap:.2f} standard errors")
    if gap > 4.0:
        raise SystemExit(f"occupation sampler disagrees with the Markov price ({gap:.2f} SE)")
    return lines


def compute_store() -> dict:
    """Reference values for every semi-Markov model of the benchmark."""
    from workloads import semi_markov_cases  # noqa: E402  (sibling module)

    entries = {}
    for name, model, s0, x0, y0, strikes in semi_markov_cases():
        res = semi_markov_prices(model, s0, x0, y0, strikes)
        entries[name] = {"s0": s0, "x0": x0, "y0": y0, "strikes": list(strikes),
                         "model_sha256": model_digest(model), **res}
    return {
        "occupation_paths": OCCUPATION_PATHS,
        "occupation_seed": OCCUPATION_SEED,
        "lewis_nodes": _PANELS * _PANEL_ORDER,
        "models": entries,
    }


def model_digest(model: dict) -> str:
    return hashlib.sha256(json.dumps(model, sort_keys=True).encode()).hexdigest()


def load_store() -> dict:
    return json.loads(STORE.read_text(encoding="utf-8"))["models"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with reference.json, write nothing")
    args = parser.parse_args(argv)
    for line in _self_checks():
        print(line)
    store = compute_store()
    if not args.check:
        STORE.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {STORE.name}")
        return 0
    worst = 0.0
    for name, entry in load_store().items():
        fresh = store["models"][name]
        for kind in ("call", "put"):
            for old, new, se in zip(entry[kind], fresh[kind], fresh[kind + "_se"]):
                worst = max(worst, abs(old - new) / se)
    print(f"stored vs recomputed: worst gap {worst:.2f} standard errors")
    return 0 if worst <= 1e-3 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
