"""Print the numerical health of the equilibrium solver over two fixed scans.

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
  and Lambda uniform with |beta1 Lambda| <= 800, lambda = 0.

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

import numpy as np

from fbmecon import BASE_PARAMS

_solve = importlib.import_module("fbmecon.equilibrium")._solve

REGIONS = ("1", "2", "3", "4", "boundary")
#: a number after "=" or "got ", up to the next separator
_NUMBER = re.compile(r"(=|got )[^,:;\s)]+")


def message_kind(text: str) -> str:
    """A failure message with its state-specific numbers masked."""
    return _NUMBER.sub(r"\1#", text)


def count(params, y, Lam) -> Counter:
    """Counts of one block: each region name, ``nonexistent``, ``failed`` and
    one ``failure: <kind>`` entry per message kind; the states (y, Lam) are
    1-d arrays priced at ``params.p`` and lambda = 0."""
    y, Lam = np.asarray(y, dtype=float), np.asarray(Lam, dtype=float)
    batch = _solve(params, y, Lam, np.zeros(y.size), np.full(y.size, float(params.p)))
    counts = Counter()
    for code, err in zip(batch.code.tolist(), batch.err):
        if err is not None:
            counts["failed"] += 1
            counts[f"failure: {message_kind(str(err))}"] += 1
        else:
            counts[REGIONS[code - 1] if code else "nonexistent"] += 1
    return counts


def blocks():
    """(label, params, y, Lambda) of every block, in print order."""
    y = np.arange(1, 1000) / 1000.0
    Lam = np.linspace(-20.0, 20.0, 81)
    for p in (0.9, 0.6, 0.3, 0.0):
        yield f"base p={p!r}", replace(BASE_PARAMS, p=p), np.repeat(y, Lam.size), np.tile(Lam, y.size)
    rng = np.random.default_rng(0)
    for beta1 in (0.5, 2.0, 10.0, 50.0):
        u = rng.random(20_000)
        u8 = u * u
        u8 *= u8
        u8 *= u8
        Lam = rng.uniform(-800.0, 800.0, u.size) / beta1
        yield f"extreme beta1={beta1!r}", replace(BASE_PARAMS, beta1=beta1), u8, Lam


def main() -> None:
    for label, params, y, Lam in blocks():
        c = count(params, y, Lam)
        print(f"{label} states={y.size} " + " ".join(f"{k}={c[k]}" for k in REGIONS)
              + f" nonexistent={c['nonexistent']} failed={c['failed']}")
        for key in sorted(k for k in c if k.startswith("failure: ")):
            print(f"{label} {c[key]} {key}")


if __name__ == "__main__":
    main()
