"""The per-row ``csv.writer`` table writers csvio replaced, kept as a test oracle.

Each writes one ``csv.writer`` row per table row, formatting cell by cell
from the numpy arrays.  The package's block writer must produce the same
bytes.
"""

from __future__ import annotations

import csv

from fbmecon.csvio import (
    CONVERGENCE_HEADER,
    MEMORY_HEADER,
    PATH_HEADER,
    SWEEP_HEADER,
    _sweep_record,
    fmt,
)


def _open_writer(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def write_path_csv(path, bundle) -> None:
    t = bundle.grid.nodes()
    fh, w = _open_writer(path)
    with fh:
        w.writerow(PATH_HEADER)
        for n in range(bundle.grid.N + 1):
            dw = "" if n == 0 else fmt(bundle.dw[n - 1])
            w.writerow(
                [
                    fmt(t[n]),
                    dw,
                    fmt(bundle.w[n]),
                    fmt(bundle.Lambda[n]),
                    fmt(bundle.lambda_small[n]),
                    fmt(bundle.Z[n]),
                    fmt(bundle.D_hat[n]),
                ]
            )


def write_memory_csv(path, est) -> None:
    t = est.grid.nodes()
    fh, w = _open_writer(path)
    with fh:
        w.writerow(MEMORY_HEADER)
        for n in range(est.grid.N + 1):
            dw = "" if n == 0 else fmt(est.dw_hat[n - 1])
            w.writerow([fmt(t[n]), dw, fmt(est.Lambda_hat[n]), fmt(est.lambda_hat[n])])


def write_sweep_csv(path, rows) -> None:
    fh, w = _open_writer(path)
    with fh:
        w.writerow(SWEEP_HEADER)
        for row in rows:
            w.writerow(_sweep_record(row))


def write_convergence_csv(path, report) -> None:
    fh, w = _open_writer(path)
    with fh:
        w.writerow(CONVERGENCE_HEADER)
        for dt, eL, el in zip(report.dt_values, report.median_err_Lambda, report.median_err_lambda):
            w.writerow([fmt(dt), fmt(eL), fmt(el)])
