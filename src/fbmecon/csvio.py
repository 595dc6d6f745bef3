"""CSV formats: path bundles, memory estimates, sweeps, convergence tables.

All files are UTF-8, comma-separated, with a mandatory header row and "\\n"
line endings; the last row's line ending is required too, so an input file
cut inside its last row is rejected.  Floats are printed with 17 significant
digits so every value round-trips losslessly, node tables a block of rows at
a time with the bytes of a cell-by-cell writer.  Increments (dw, dw_hat) sit
on the row of their right endpoint, leaving an empty cell at t_0.  The t,Z
reader parses with numpy and accepts exactly what its per-row parser does.
"""

from __future__ import annotations

import csv
import warnings

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


_BLOCK = 4096  # node rows formatted at a time


def _write_table(path, header: list[str], blocks) -> None:
    """Write the header line, then each block of row text; no cell needs quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _node_blocks(grid: TimeGrid, increments: np.ndarray, *levels: np.ndarray):
    """Rows t, increment, levels... per node (no increment at t_0), one ``%`` per block."""
    t = grid.nodes()
    yield ("%.17g," + ",%.17g" * len(levels) + "\n") % tuple(float(c[0]) for c in (t, *levels))
    row = "%.17g" + ",%.17g" * (len(levels) + 1) + "\n"
    for lo in range(1, grid.N + 1, _BLOCK):
        hi = min(lo + _BLOCK, grid.N + 1)
        block = np.column_stack((t[lo:hi], increments[lo - 1:hi - 1], *(c[lo:hi] for c in levels)))
        yield (row * (hi - lo)) % tuple(block.ravel().tolist())


def write_path_csv(path, bundle: PathBundle) -> None:
    """One row per node; the increment column is empty at t_0."""
    _write_table(path, PATH_HEADER, _node_blocks(bundle.grid, bundle.dw, bundle.w, bundle.Lambda,
                                                 bundle.lambda_small, bundle.Z, bundle.D_hat))


def write_memory_csv(path, est: MemoryEstimate) -> None:
    _write_table(path, MEMORY_HEADER, _node_blocks(est.grid, est.dw_hat, est.Lambda_hat, est.lambda_hat))


def _sweep_record(row: SweepRow) -> list[str]:
    base = [fmt(row.y), fmt(row.p), fmt(row.Lambda)]
    res = row.result
    if res is None or not res.exists:
        # nonexistent (or failed) rows: region 0, price fields empty
        return base + ["0"] + [""] * len(RESULT_FIELDS) + ["0"]
    return base + [str(res.region)] + [fmt(getattr(res, f)) for f in RESULT_FIELDS] + ["1"]


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    _write_table(path, SWEEP_HEADER, (",".join(r) + "\n" for r in map(_sweep_record, rows)))


def write_convergence_csv(path, report) -> None:
    _write_table(path, CONVERGENCE_HEADER, (
        ",".join(map(fmt, cells)) + "\n"
        for cells in zip(report.dt_values, report.median_err_Lambda, report.median_err_lambda)))


def _ended_lines(fh, path):
    """The lines of ``fh``, read one at a time; a last line without its ending raises."""
    for lineno, line in enumerate(fh, start=1):
        if not line.endswith(("\n", "\r")):
            raise ValueError(f"{path}: line {lineno}: last row has no line ending (truncated file?)")
        yield line


def _numpy_columns(path, it: int, iz: int) -> np.ndarray:
    """Columns it and iz after the header, as (2, n), by numpy's C parser.

    Raises ValueError or UserWarning on any file numpy rejects or the per-row
    parser might read otherwise: a last row with no line ending, a quote (csv
    cells may hold commas), NUL (refused by csv before Python 3.11), \\x1c-\\x1f
    (whitespace to numpy, not to float()) or h bytes with no separator.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    h = max(1, csv.field_size_limit() // 2)  # a field over csv's limit spans h bytes
    if (data[-1:] not in (b"\n", b"\r") or any(b in data for b in b'"\0\x1c\x1d\x1e\x1f')
            or any(data.find(b",", i, i + h) < 0 and data.find(b"\n", i, i + h) < 0
                   for i in range(0, len(data), h))):
        raise ValueError(f"{path}: left to the per-row parser")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a file with no rows warns
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(it, iz), comments=None,
                          ndmin=2, encoding="utf-8").T.copy()


def read_t_z_csv(path) -> tuple[TimeGrid, np.ndarray]:
    """Read a time series with columns t and Z (extra columns are ignored).

    The grid must be uniform to within 1e-9 * dt, which rejects a NaN time.
    Times are taken relative to the first sample, so files need not start
    at t = 0.  Every row, the last included, must end in a line ending.  A file
    numpy's C parser rejects or might read otherwise goes to the per-row one.

    Raises:
        ValueError: on a missing header/column, a malformed row (with its
            1-based line number), a last row without a line ending, too few
            rows, or non-uniform spacing.
    """
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
        try:
            t, z = _numpy_columns(path, it, iz)
        except (ValueError, UserWarning):
            t, z = [], []
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
