"""CSV formats: path bundles, memory estimates, sweeps, convergence tables.

All files are UTF-8, comma-separated, with a mandatory header row and "\\n"
line endings; the last row's line ending is required too, so an input file
cut inside its last row is rejected.  Floats are printed with 17 significant
digits so every value round-trips losslessly.  Increments (dw, dw_hat) are
written on the row of their right endpoint, leaving an empty cell at t_0.
"""

from __future__ import annotations

import csv

import numpy as np

from .equilibrium import SweepRow
from .estimator import MemoryEstimate
from .paths import PathBundle, TimeGrid

__all__ = [
    "fmt",
    "write_path_csv",
    "write_memory_csv",
    "write_sweep_csv",
    "write_convergence_csv",
    "read_t_z_csv",
    "SWEEP_HEADER",
    "RESULT_FIELDS",
]

PATH_HEADER = ["t", "dw", "w", "Lambda", "lambda", "Z", "D_hat"]
MEMORY_HEADER = ["t", "dw_hat", "Lambda_hat", "lambda_hat"]
#: The fields of a priced equilibrium that a sweep row records, in column order.
RESULT_FIELDS = ("n_C", "n_M", "x_star", "r", "mu", "sigma", "kappa", "mu_y", "sigma_y",
                 "mu_H", "sigma_H", "mu_G", "D_over_S")
SWEEP_HEADER = ["y", "p", "Lambda", "region", *RESULT_FIELDS, "exists"]
CONVERGENCE_HEADER = ["dt", "median_err_Lambda", "median_err_lambda"]
#: Relative tolerance on the spacing of an input time grid, as a fraction of dt.
_SPACING_RTOL = 1e-9


def fmt(x: float) -> str:
    """17-significant-digit decimal form (lossless for binary64)."""
    return f"{x:.17g}"


_BLOCK = 4096  # node rows converted to Python floats at a time


def _write_table(path, header: list[str], rows) -> None:
    """Write the header and then each row, an iterable of ready cells.

    Cells hold no comma, quote or newline, so they are written unquoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _node_rows(grid: TimeGrid, increments: np.ndarray, *levels: np.ndarray):
    """Rows t, increment, levels... for each node, the increment empty at t_0.

    Columns are converted a block of rows at a time, never whole.
    """
    t = grid.nodes()
    for lo in range(0, grid.N + 1, _BLOCK):
        hi = min(lo + _BLOCK, grid.N + 1)
        inc = [fmt(x) for x in increments[max(lo - 1, 0):hi - 1].tolist()]
        if lo == 0:
            inc.insert(0, "")
        cols = [[fmt(x) for x in col[lo:hi].tolist()] for col in (t, *levels)]
        yield from zip(cols[0], inc, *cols[1:])


def write_path_csv(path, bundle: PathBundle) -> None:
    """One row per node; the increment column is empty at t_0."""
    _write_table(path, PATH_HEADER, _node_rows(
        bundle.grid, bundle.dw, bundle.w, bundle.Lambda, bundle.lambda_small, bundle.Z,
        bundle.D_hat))


def write_memory_csv(path, est: MemoryEstimate) -> None:
    _write_table(path, MEMORY_HEADER, _node_rows(
        est.grid, est.dw_hat, est.Lambda_hat, est.lambda_hat))


def _sweep_record(row: SweepRow) -> list[str]:
    base = [fmt(row.y), fmt(row.p), fmt(row.Lambda)]
    res = row.result
    if res is None or not res.exists:
        # nonexistent (or failed) rows: region 0, price fields empty
        return base + ["0"] + [""] * len(RESULT_FIELDS) + ["0"]
    return base + [str(res.region)] + [fmt(getattr(res, f)) for f in RESULT_FIELDS] + ["1"]


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    _write_table(path, SWEEP_HEADER, map(_sweep_record, rows))


def write_convergence_csv(path, report) -> None:
    _write_table(path, CONVERGENCE_HEADER, (
        [fmt(dt), fmt(eL), fmt(el)]
        for dt, eL, el in zip(report.dt_values, report.median_err_Lambda, report.median_err_lambda)
    ))


def _ended_lines(fh, path):
    """The lines of ``fh``, read one at a time; a last line without its ending raises."""
    for lineno, line in enumerate(fh, start=1):
        if not line.endswith(("\n", "\r")):
            raise ValueError(f"{path}: line {lineno}: last row has no line ending (truncated file?)")
        yield line


def read_t_z_csv(path) -> tuple[TimeGrid, np.ndarray]:
    """Read a time series with columns t and Z (extra columns are ignored).

    The grid must be uniform to within 1e-9 * dt, which rejects a NaN time.
    Times are taken relative to the first sample, so files need not start
    at t = 0.  Every row, the last included, must end in a line ending.

    Raises:
        ValueError: on a missing header/column, a malformed row (with its
            1-based line number), a last row without a line ending, too few
            rows, or non-uniform spacing.
    """
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
