"""Print a digest of the equilibrium solver's results, one line per state.

Each line is a key naming the state, then the sha256 of ``repr`` of its
EquilibriumResult or of the exception it failed with.  The grid crosses
protection levels, diversion costs, memory slopes, both boundaries and
extreme memory levels (NaN and +-1e4 included); then come its interior
states with finite memory levels solved one at a time by ``equilibrium``
(+-1e4 fail), boundary calls and three digests of a whole ``sweep``: one on
the benchmark grid, one whose protection levels include an invalid one,
NaN, -0.0 and a repeat, and one at those levels over an invalid parameter
set, which raises.  On a smaller grid of parameters and states, whose
memory levels include both failing extremes +-1e4, follow the other entry
points that build a solver context: ``benchmark_equilibrium``,
``benchmark_differences`` of each state's equilibrium and benchmark, and
``partial_policies`` at three finite handed-in price systems.  Run it on two
versions of the package and diff the outputs to list exactly the states
whose results changed:

    PYTHONPATH=src python tools/result_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/result_digest.py > old.txt
    diff old.txt new.txt

It takes no options; it needs only numpy and the standard library.
"""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np

from fbmecon import (BASE_PARAMS, MarketState, Prices, benchmark_differences,
                     benchmark_equilibrium, boundary_equilibrium, equilibrium, equilibrium_batch,
                     partial_policies, sweep)

P_VALUES = (0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0)
K_VALUES = (0.5, 3.0, 20.0)
BETA1_VALUES = (0.0, 0.1, 0.5, 2.0)
LAM_VALUES = (0.0, 0.4)
Y_VALUES = (0.0, 1e-12, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0)
LAMBDA_VALUES = (math.nan, -1e4, -60.0, -13.0, -5.0, 0.0, 1.0, 5.0, 25.0, 53.0, 1e4)
# the smaller grid of the other entry points; its states at Lambda = +-1e4 fail where beta1 != 0:
# exp(beta Lambda) overflows at +1e4, and its power underflows at -1e4
SMALL_GRID = list(itertools.product((0.0, 0.6, 1.0), K_VALUES, (0.0, 0.5), LAM_VALUES))
SMALL_STATES = list(itertools.product((1e-6, 0.1, 0.5, 0.99), (-1e4, -13.0, 0.0, 5.0, 53.0, 1e4)))
# handed-in prices (r, mu, sigma, D/S, D/W_C, S/W_C, S/W_M), all finite
PRICES = (Prices(0.01, 0.05, 0.2, 0.03, 0.05, 1.5, 2.5), Prices(0.02, 0.01, -0.1, 0.04, 0.2, 0.8, 3.0),
          Prices(-0.03, 0.2, 1e-3, 2.0, 1e-4, 50.0, 0.5))


def digest(outcome) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def main() -> None:
    y, Lam = np.repeat(Y_VALUES, len(LAMBDA_VALUES)), np.tile(LAMBDA_VALUES, len(Y_VALUES))
    for p, k, beta1, lam in itertools.product(P_VALUES, K_VALUES, BETA1_VALUES, LAM_VALUES):
        params = replace(BASE_PARAMS, p=p, k=k, beta1=beta1)
        results = outcome(equilibrium_batch, y, Lam, lam, params)
        if isinstance(results, Exception):
            results = [results] * len(y)
        for yi, Li, res in zip(y.tolist(), Lam.tolist(), results):
            print(f"grid p={p!r} k={k!r} beta1={beta1!r} lam={lam!r} y={yi!r} Lambda={Li!r} "
                  f"{digest(res)}")
    for p, k, beta1, lam in itertools.product(P_VALUES, K_VALUES, BETA1_VALUES, LAM_VALUES):
        params = replace(BASE_PARAMS, p=p, k=k, beta1=beta1)
        for yi, Li in itertools.product(Y_VALUES[1:-1], LAMBDA_VALUES[1:]):
            res = outcome(equilibrium, MarketState(yi, Li, lam), params)
            print(f"scalar p={p!r} k={k!r} beta1={beta1!r} lam={lam!r} y={yi!r} Lambda={Li!r} "
                  f"{digest(res)}")
    for p, yb, L in itertools.product((0.0, 0.6, 1.0), (0.0, 0.5, 1.0), (-13.0, 0.0, 5.0)):
        res = outcome(boundary_equilibrium, MarketState(yb, L), replace(BASE_PARAMS, p=p))
        print(f"boundary p={p!r} y={yb!r} Lambda={L!r} {digest(res)}")
    rows = sweep(BASE_PARAMS, np.round(np.arange(101) / 100.0, 2), (1.0, 0.9, 0.6, 0.3, 0.0),
                 (-5.0, 0.0, 5.0))
    print(f"sweep rows={len(rows)} {digest(rows)}")
    rows = sweep(BASE_PARAMS, Y_VALUES, (0.6, 2.0, math.nan, -0.0, 0.6), LAMBDA_VALUES)
    print(f"sweep edge rows={len(rows)} {digest(rows)}")
    rows = outcome(sweep, replace(BASE_PARAMS, gamma_C=1.0), Y_VALUES, (0.6, 2.0, math.nan, -0.0, 0.6),
                   LAMBDA_VALUES)
    print(f"sweep invalid-params {digest(rows)}")
    for p, k, beta1, lam in SMALL_GRID:
        params = replace(BASE_PARAMS, p=p, k=k, beta1=beta1)
        for yi, Li in SMALL_STATES:
            key = f"p={p!r} k={k!r} beta1={beta1!r} lam={lam!r} y={yi!r} Lambda={Li!r}"
            state = MarketState(yi, Li, lam)
            bench, eq = outcome(benchmark_equilibrium, state, params), outcome(equilibrium, state, params)
            print(f"benchmark {key} {digest(bench)}")
            if not isinstance(bench, Exception) and not isinstance(eq, Exception):
                print(f"differences {key} {digest(outcome(benchmark_differences, state, params, eq, bench))}")
            for i, prices in enumerate(PRICES):
                print(f"partial {key} prices={i} {digest(outcome(partial_policies, prices, state, params))}")


if __name__ == "__main__":
    main()
