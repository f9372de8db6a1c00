"""Relative error of ``ie`` and ``fd`` against the Fourier reference over a
grid of ``n_time`` x ``n_space``, on the two-regime Markov model at the
money (the accuracy table of README.md).

    python3 perfbench/accuracy.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from smjd.fd import solve_price_fd  # noqa: E402
from smjd.market import market_model_from_dict  # noqa: E402
from smjd.payoffs import Payoff  # noqa: E402
from smjd.pricing import GridResolutionError, build_grid, solve_price  # noqa: E402

N_TIME = (12, 48, 200)
N_SPACE = (401, 801, 1601)


def main() -> int:
    spec = workloads.markov_model()
    model = market_model_from_dict(spec)
    s0 = workloads.S0
    ref = reference.markov_prices(spec, s0, 0, [s0])["call"][0]
    call = Payoff(kind="call", strikes=(s0,))
    print(f"reference call price {ref:.8f}")
    print("| method | n_time | " + " | ".join(f"n_space {n}" for n in N_SPACE) + " |")
    print("|---|---|" + "---|" * len(N_SPACE))
    for name, solver in (("ie", solve_price), ("fd", solve_price_fd)):
        for n_time in N_TIME:
            cells = []
            for n_space in N_SPACE:
                grid = build_grid(model, s_ref=s0, n_time=n_time, n_space=n_space, n_age=0)
                try:
                    price = solver(model, call, grid).price(0.0, s0, 0, 0.0)
                except GridResolutionError:
                    cells.append("rejected")
                    continue
                cells.append(f"{abs(price - ref) / ref:.2e}")
            print(f"| `{name}` | {n_time} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
