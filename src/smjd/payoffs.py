"""Terminal payoff functions of the spot.

All payoffs are Lipschitz in the spot; tabulated payoffs extrapolate
linearly with the end slopes so the Lipschitz constant is preserved on
the whole half line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._config import array, number, text

__all__ = ["Payoff", "payoff_from_dict"]

_KINDS = ("call", "put", "butterfly", "linear", "constant", "table")


@dataclass(frozen=True)
class Payoff:
    """Payoff ``K(s)`` of one of the supported kinds.

    Parameters
    ----------
    kind : str
        One of ``call``, ``put``, ``butterfly``, ``linear``, ``constant``,
        ``table``.
    strikes : tuple of float
        One strike for ``call``/``put``, three increasing strikes for
        ``butterfly``; empty otherwise.
    scale : float
        Slope of ``linear`` (``K(s) = scale * s``) and level of
        ``constant``; ignored otherwise.
    s_nodes, values : arrays
        Knots of the ``table`` kind, linear in between and linearly
        extrapolated with the end slopes.
    """

    kind: str
    strikes: tuple = ()
    scale: float = 1.0
    s_nodes: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("call", "put"):
            if len(self.strikes) != 1 or self.strikes[0] <= 0:
                raise ValueError(f"{self.kind} payoff needs one positive strike")
        elif self.kind == "butterfly":
            if len(self.strikes) != 3 or not (0 < self.strikes[0] < self.strikes[1] < self.strikes[2]):
                raise ValueError("butterfly needs strikes 0 < K1 < K2 < K3")
        elif self.kind == "table":
            s = np.asarray(self.s_nodes, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if s.ndim != 1 or s.shape != v.shape or s.size < 2:
                raise ValueError("table payoff needs matching 1-d knots (>= 2)")
            if np.any(np.diff(s) <= 0) or s[0] <= 0:
                raise ValueError("table knots must be positive and increasing")
            object.__setattr__(self, "s_nodes", s)
            object.__setattr__(self, "values", v)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "call":
            out = np.maximum(s - self.strikes[0], 0.0)
        elif self.kind == "put":
            out = np.maximum(self.strikes[0] - s, 0.0)
        elif self.kind == "butterfly":
            k1, k2, k3 = self.strikes
            # weights cancel the slope beyond K3 and the value at K3
            w2 = (k3 - k1) / (k3 - k2)
            w3 = (k2 - k1) / (k3 - k2)
            out = (
                np.maximum(s - k1, 0.0)
                - w2 * np.maximum(s - k2, 0.0)
                + w3 * np.maximum(s - k3, 0.0)
            )
        elif self.kind == "linear":
            out = self.scale * s
        elif self.kind == "constant":
            out = np.full_like(s, self.scale)
        else:
            sn, vn = self.s_nodes, self.values
            out = np.interp(s, sn, vn)
            lo = s < sn[0]
            if np.any(lo):
                slope = (vn[1] - vn[0]) / (sn[1] - sn[0])
                out = np.where(lo, vn[0] + slope * (s - sn[0]), out)
            hi = s > sn[-1]
            if np.any(hi):
                slope = (vn[-1] - vn[-2]) / (sn[-1] - sn[-2])
                out = np.where(hi, vn[-1] + slope * (s - sn[-1]), out)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind in ("call", "put", "butterfly"):
            for n, k in enumerate(self.strikes, start=1):
                d[f"K{n}"] = k
        elif self.kind in ("linear", "constant"):
            d["scale"] = self.scale
        else:
            d["s"] = self.s_nodes.tolist()
            d["value"] = self.values.tolist()
        return d


def payoff_from_dict(d: dict) -> Payoff:
    kind = text(d, "kind")
    if kind in ("call", "put"):
        return Payoff(kind=kind, strikes=(number(d, "K1"),))
    if kind == "butterfly":
        return Payoff(kind=kind, strikes=tuple(number(d, f"K{n}") for n in (1, 2, 3)))
    if kind in ("linear", "constant"):
        return Payoff(kind=kind, scale=number(d, "scale", 1.0))
    if kind == "table":
        return Payoff(kind=kind, s_nodes=array(d, "s"), values=array(d, "value"))
    raise ValueError(f"unknown payoff kind {kind!r}")
