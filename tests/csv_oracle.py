"""The per-row csv table writers and reader csvio replaced, kept as test oracles.

Each writer writes one ``csv.writer`` row per table row, formatting cell by
cell from the numpy arrays; the package's block writers must produce the
same bytes.  ``read_t_z_csv`` parses every record with ``csv.reader`` and
``float()``; the package's reader must accept the same files, return the
same grid and bit-identical Z, and raise the same messages.
"""

from __future__ import annotations

import csv

import numpy as np

from fbmecon import TimeGrid
from fbmecon.csvio import (
    CONVERGENCE_HEADER,
    MEMORY_HEADER,
    PATH_HEADER,
    SWEEP_HEADER,
    _SPACING_RTOL,
    _ended_lines,
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


def read_t_z_csv(path):
    t: list[float] = []
    z: list[float] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(_ended_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        cols = [c.strip() for c in header]
        if "t" not in cols or "Z" not in cols:
            raise ValueError(f"{path}: header must contain 't' and 'Z' columns, got {header}")
        it, iz = cols.index("t"), cols.index("Z")
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            try:
                t.append(float(rec[it]))
                z.append(float(rec[iz]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}: line {lineno}: malformed row {rec!r}") from None
    if len(t) < 2:
        raise ValueError(f"{path}: need at least two samples, got {len(t)}")
    ta = np.asarray(t)
    n = len(ta) - 1
    T = ta[-1] - ta[0]
    if T <= 0:
        raise ValueError(f"{path}: times must be increasing")
    dt = T / n
    gaps = np.diff(ta)
    bad = np.nonzero(~(np.abs(gaps - dt) <= _SPACING_RTOL * dt))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}: non-uniform grid at line {i + 3}: spacing {gaps[i]:.17g} vs dt {dt:.17g}"
        )
    return TimeGrid(float(T), n), np.asarray(z)
