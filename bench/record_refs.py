"""Record the reference outputs that the workload checks compare against.

Usage (from the root of a source checkout, at the commit that defines the
reference):

    python3 bench/record_refs.py

Writes ``bench/ref/sweep.csv.gz`` (the sweep workload's CSV) and
``bench/ref/convergence.json`` (median errors of every convergence slot),
each stamped with the source hash of the package that produced it.  A
later change that moves a result beyond the workloads' tolerances fails
the benchmark's checks; re-record only when that move is intended.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import identity  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    source = identity.source_hash(ROOT / "src" / "fbmecon")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        sweep = W.Sweep(work, 0)
        outcome = W.Outcome()
        sweep.iterate(W.Stopwatch(), outcome, [])
        if outcome.failed:
            sys.exit(f"sweep failed: {outcome.messages}")
        with open(sweep.out, "rb") as src, open(W.REF_DIR / "sweep.csv.gz", "wb") as raw:
            with gzip.GzipFile(filename="sweep.csv", mode="wb", fileobj=raw, mtime=0) as gz:
                gz.write(src.read())

        slots = {}
        for slot in range(W.CONV_SLOTS):
            conv = W.Convergence(work, slot)
            outcome = W.Outcome()
            conv.iterate(W.Stopwatch(), outcome, [])
            if outcome.failed:
                sys.exit(f"convergence slot {slot} failed: {outcome.messages}")
            rows = W.read_csv(conv.out)
            slots[str(slot)] = {
                "base_seed": conv.base_seed,
                "dt": [float(r["dt"]) for r in rows],
                "median_err_Lambda": [float(r["median_err_Lambda"]) for r in rows],
                "median_err_lambda": [float(r["median_err_lambda"]) for r in rows],
                "fitted_rate_min": W.fitted_min_rate(conv.stdout),
            }
            print(f"slot {slot}: {slots[str(slot)]}")
    ref = {"n_fine": W.CONV_N_FINE, "factors": W.CONV_FACTORS,
           "seeds": W.CONV_SEEDS, "slots": slots}
    (W.REF_DIR / "convergence.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    (W.REF_DIR / "SOURCE").write_text(source + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
