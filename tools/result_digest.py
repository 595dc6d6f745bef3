"""Print a digest of the equilibrium solver's results, one line per state.

Each line is a key naming the state, then the sha256 of ``repr`` of its
EquilibriumResult or of the exception it failed with.  The grid crosses
protection levels, diversion costs, memory slopes, both boundaries and
extreme memory levels (NaN and +-1e4 included); then come boundary calls and
one digest of a whole ``sweep``.  Run it on two versions of the package and
diff the outputs to list exactly the states whose results changed:

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

from fbmecon import BASE_PARAMS, MarketState, boundary_equilibrium, equilibrium_batch, sweep

P_VALUES = (0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0)
K_VALUES = (0.5, 3.0, 20.0)
BETA1_VALUES = (0.0, 0.1, 0.5, 2.0)
LAM_VALUES = (0.0, 0.4)
Y_VALUES = (0.0, 1e-12, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0)
LAMBDA_VALUES = (math.nan, -1e4, -60.0, -13.0, -5.0, 0.0, 1.0, 5.0, 25.0, 53.0, 1e4)


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
    for p, yb, L in itertools.product((0.0, 0.6, 1.0), (0.0, 0.5, 1.0), (-13.0, 0.0, 5.0)):
        res = outcome(boundary_equilibrium, MarketState(yb, L), replace(BASE_PARAMS, p=p))
        print(f"boundary p={p!r} y={yb!r} Lambda={L!r} {digest(res)}")
    rows = sweep(BASE_PARAMS, np.round(np.arange(101) / 100.0, 2), (1.0, 0.9, 0.6, 0.3, 0.0),
                 (-5.0, 0.0, 5.0))
    print(f"sweep rows={len(rows)} {digest(rows)}")


if __name__ == "__main__":
    main()
