"""Print the numerical health of the equilibrium solver over two fixed scans,
then where two of the paper's orderings hold.

For each block of states it prints one line with the region histogram
(regions 1-4, ``boundary``), the ``nonexistent`` count (no region is
self-consistent) and the count of failed states, then one line per failure
message with its count, the message's numbers masked as ``#`` so that the
failures of one kind group together.  The blocks are:

* ``base``: ``BASE_PARAMS`` at p in {0.9, 0.6, 0.3, 0}, each over 999 y
  (0.001 to 0.999) times 81 Lambda (-20 to 20), lambda = 0;
* ``extreme``: beta1 in {0.5, 2, 10, 50}, 20,000 states each drawn from
  ``numpy.random.default_rng(0)``: y = u^8 for a uniform u (by three exact
  squarings, which round alike on every host; numpy's ``u ** 8`` does not)
  and Lambda uniform with |beta1 Lambda| <= 800, lambda = 0;
* ``orderings``: the two comparative statics that criteria 09b and 09g
  assert without the paper's conditions (README, "Decisions ledger").  09b:
  over the base grid, the states where n_C(p = 0.6) >= n_C(p = 0.9) fails,
  the range of y they span and, per level, the states without an
  equilibrium (they count as neither).  09g: over 96 sets (alpha_C, alpha_M
  in {0.25, 0.5, 0.75, 1}, six (gamma_C, gamma_M) pairs) at p = 1 and
  Lambda = 0, how many give sigma_H(y = 0) < sigma_H(y = 1), and in how
  many that ordering holds exactly when theta_C > theta_M.

The states are priced in batches by the solver's own batch path.  Run it on
two versions of the package and diff the outputs:

    PYTHONPATH=src python tools/health_scan.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/health_scan.py > old.txt
    diff old.txt new.txt

The output repeats exactly on one host and numpy build; the extreme block's
regions can change with numpy's SIMD dispatch, as they are decided by
rounding there.  It takes no options; it needs only numpy and the standard
library.
"""

import importlib
import re
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np

from fbmecon import BASE_PARAMS, derive_constants

# the module, as the name fbmecon.equilibrium is the function
_equilibrium = importlib.import_module("fbmecon.equilibrium")
_solve, RESULT_FIELDS = _equilibrium._solve, _equilibrium.RESULT_FIELDS

REGIONS = ("1", "2", "3", "4", "boundary")
#: a number after "=" or "got ", up to the next separator
_NUMBER = re.compile(r"(=|got )[^,:;\s)]+")


def message_kind(text: str) -> str:
    """A failure message with its state-specific numbers masked."""
    return _NUMBER.sub(r"\1#", text)


def solve(params, y, Lam):
    """The batch of the states (y, Lam), 1-d arrays, priced at ``params.p`` and lambda = 0."""
    y, Lam = np.asarray(y, dtype=float), np.asarray(Lam, dtype=float)
    return _solve(params, y, Lam, np.zeros(y.size), np.full(y.size, float(params.p)))


def field(params, y, Lam, name) -> np.ndarray:
    """One result field of each state of :func:`solve`; NaN where a state has
    no equilibrium or failed."""
    return solve(params, y, Lam).fields[RESULT_FIELDS.index(name)]


def count(params, y, Lam) -> Counter:
    """Counts of one block of :func:`solve`: each region name, ``nonexistent``,
    ``failed`` and one ``failure: <kind>`` entry per message kind."""
    batch = solve(params, y, Lam)
    counts = Counter()
    for code, err in zip(batch.code.tolist(), batch.err):
        if err is not None:
            counts["failed"] += 1
            counts[f"failure: {message_kind(str(err))}"] += 1
        else:
            counts[REGIONS[code - 1] if code else "nonexistent"] += 1
    return counts


def base_grid():
    """(y, Lambda) of the base blocks: 999 y times 81 Lambda, y outermost."""
    y, Lam = np.arange(1, 1000) / 1000.0, np.linspace(-20.0, 20.0, 81)
    return np.repeat(y, Lam.size), np.tile(Lam, y.size)


def blocks():
    """(label, params, y, Lambda) of every block, in print order."""
    for p in (0.9, 0.6, 0.3, 0.0):
        yield f"base p={p!r}", replace(BASE_PARAMS, p=p), *base_grid()
    rng = np.random.default_rng(0)
    for beta1 in (0.5, 2.0, 10.0, 50.0):
        u = rng.random(20_000)
        u8 = u * u
        u8 *= u8
        u8 *= u8
        Lam = rng.uniform(-800.0, 800.0, u.size) / beta1
        yield f"extreme beta1={beta1!r}", replace(BASE_PARAMS, beta1=beta1), u8, Lam


def holdings_chain(y, Lam) -> tuple[int, float, float, int, int]:
    """Criterion 09b at ``BASE_PARAMS`` over the states (y, Lam): the count of
    states where n_C(p = 0.6) < n_C(p = 0.9), the least and greatest y among
    them (NaN if none), and the count without an equilibrium at each level."""
    n06, n09 = (field(replace(BASE_PARAMS, p=p), y, Lam, "n_C") for p in (0.6, 0.9))
    bad = np.asarray(y)[n06 < n09]  # the y of each violation; False where either holding is NaN
    lo, hi = (float(bad.min()), float(bad.max())) if bad.size else (np.nan, np.nan)
    return bad.size, lo, hi, int(np.isnan(n06).sum()), int(np.isnan(n09).sum())


def boundary_volatility() -> tuple[int, int, int]:
    """Criterion 09g over its 96 sets: (sets, sets with sigma_H(y = 0) < sigma_H(y = 1)
    at p = 1 and Lambda = 0, sets where that holds exactly when theta_C > theta_M)."""
    sets = list(product((0.25, 0.5, 0.75, 1.0), (0.25, 0.5, 0.75, 1.0),
                        ((2, 2), (2, 3), (2, 5), (3, 3), (3, 5), (5, 5))))
    holds = agree = 0
    for aC, aM, (gC, gM) in sets:
        P = replace(BASE_PARAMS, p=1.0, alpha_C=aC, alpha_M=aM, gamma_C=gC, gamma_M=gM)
        lo, hi = field(P, [0.0, 1.0], [0.0, 0.0], "sigma_H")
        d = derive_constants(P)
        holds += bool(lo < hi)
        agree += bool((lo < hi) == (d.theta_C > d.theta_M))
    return len(sets), holds, agree


def main() -> None:
    for label, params, y, Lam in blocks():
        c = count(params, y, Lam)
        print(f"{label} states={y.size} " + " ".join(f"{k}={c[k]}" for k in REGIONS)
              + f" nonexistent={c['nonexistent']} failed={c['failed']}")
        for key in sorted(k for k in c if k.startswith("failure: ")):
            print(f"{label} {c[key]} {key}")
    y, Lam = base_grid()
    bad, lo, hi, none06, none09 = holdings_chain(y, Lam)
    print(f"orderings 09b n_C(p=0.6) < n_C(p=0.9) at {bad} of {y.size} states, "
          f"y in [{lo!r}, {hi!r}]; nonexistent p=0.6: {none06}, p=0.9: {none09}")
    sets, holds, agree = boundary_volatility()
    print(f"orderings 09g sigma_H(y=0) < sigma_H(y=1) at p=1 in {holds} of {sets} sets; "
          f"{agree} agree with theta_C > theta_M")


if __name__ == "__main__":
    main()
