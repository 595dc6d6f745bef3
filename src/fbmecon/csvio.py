"""CSV formats: path bundles, memory estimates, sweeps, figures, convergence tables.

All files are UTF-8, comma-separated, with a mandatory header row and "\\n"
line endings; the last row's line ending is required too, so an input file
cut inside its last row is rejected.  Floats are printed with 17 significant
digits so every value round-trips losslessly, node tables and sweep rows a
block at a time with the bytes of a cell-by-cell writer.  Increments (dw,
dw_hat) sit on the row of their right endpoint, leaving an empty cell at t_0.
The sweep writer formats the columns of the solver's per-p batches, and the
figure writer pivots the cells it formatted, so a figure cell is the sweep
CSV's own cell.  The t,Z reader parses with numpy and accepts exactly what
its per-row parser does.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np

from .equilibrium import RESULT_FIELDS
from .estimator import MemoryEstimate
from .paths import PathBundle, TimeGrid

__all__ = ["fmt", "write_path_csv", "write_memory_csv", "write_sweep_csv", "write_figures",
           "write_convergence_csv", "read_t_z_csv", "SWEEP_HEADER", "RESULT_FIELDS"]

PATH_HEADER = ["t", "dw", "w", "Lambda", "lambda", "Z", "D_hat"]
MEMORY_HEADER = ["t", "dw_hat", "Lambda_hat", "lambda_hat"]
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


# indexed by region code (0 none, 1-4, 5 boundary), the format of a sweep row's
# cells after y, p and Lambda: region, the RESULT_FIELDS and exists, with empty
# fields where no equilibrium exists
_ROW_FORMATS = ("0" + "," * (len(RESULT_FIELDS) + 1) + "0",
                *(f"{region},{'%.17g,' * len(RESULT_FIELDS)}1"
                  for region in ("1", "2", "3", "4", "boundary")))


def _row_tails(batch) -> list[str]:
    """Per state of a batch, its sweep-row cells after y, p and Lambda, as text;
    one ``%`` formats a block of _BLOCK states."""
    tails = []
    for lo in range(0, len(batch.code), _BLOCK):
        code = batch.code[lo:lo + _BLOCK]
        values = batch.fields[:len(RESULT_FIELDS), lo:lo + _BLOCK][:, code != 0].T.ravel().tolist()
        text = "\n".join([_ROW_FORMATS[c] for c in code.tolist()]) % tuple(values)
        tails += text.split("\n")
    return tails


def write_sweep_csv(path, grid) -> list:
    """The sweep CSV of a priced grid, rows in (y, p, Lambda) order; returns
    each p's row tails (see :func:`_row_tails`) for :func:`write_figures`."""
    tails = [_row_tails(b) for b in grid.batches]
    labels = [[fmt(v) for v in vals] for vals in (grid.y, grid.p, grid.Lam)]
    _write_table(path, SWEEP_HEADER, (f"{y},{p},{L},{tail}\n"
                                      for y, p, L, tail in grid.in_order(tails, labels)))
    return tails


# the plotted quantities in gallery order, with their file-name slugs: figure
# 3 + 2m draws quantity m in Lambda panels, one line per p, and 4 + 2m the reverse
_FIGURE_SLUGS = {"n_C": "holdings", "x_star": "diversion", "sigma_H": "modified_volatility",
                 "mu_H": "modified_return", "mu_G": "gross_return", "r": "interest_rate"}


def write_figures(fig_dir, grid, tails) -> None:
    """One wide CSV per figure id in the Path ``fig_dir``: y, then one column per line.

    ``tails`` are the row tails :func:`write_sweep_csv` returned for
    ``grid``; a figure cell is the sweep CSV's cell of the first row at its
    grid point, byte for byte.  Panel order follows the gallery layout:
    Lambda panels (0, -5, 5) and protection panels (1, 0.9, 0.6).
    """
    fig_dir.mkdir(parents=True, exist_ok=True)
    cells = [[tail.split(",") for tail in per_p] for per_p in tails]
    first = {}  # y -> the index of its first row
    for i, y in enumerate(grid.y):
        first.setdefault(y, i)
    rows = [(fmt(y), first[y] * len(grid.Lam)) for y in sorted(first)]
    vals = {}
    for var, listed, order in (("Lambda", grid.Lam, [0.0, -5.0, 5.0]), ("p", grid.p, [1.0, 0.9, 0.6])):
        vals[var] = [v for v in order if v in listed]
        vals[var] += [v for v in listed if v not in vals[var]]
    manifest = []
    for m, (field, slug) in enumerate(_FIGURE_SLUGS.items()):
        f = 1 + RESULT_FIELDS.index(field)  # after the region cell
        for fig, panel, series in ((3 + 2 * m, "Lambda", "p"), (4 + 2 * m, "p", "Lambda")):
            cols = [(f"{panel}={pv:g};{series}={sv:g}", {panel: pv, series: sv})
                    for pv in vals[panel] for sv in vals[series]]
            at = [(cells[grid.p.index(v["p"])], grid.Lam.index(v["Lambda"])) for _, v in cols]
            name = f"fig{fig:02d}_{slug}_by_{'memory' if series == 'Lambda' else 'protection'}.csv"
            _write_table(fig_dir / name, ["y"] + [c for c, _ in cols], (
                ",".join([y, *[states[i + j][f] for states, j in at]]) + "\n" for y, i in rows))
            manifest.append({"figure": fig, "file": name, "quantity": field, "x_axis": "y",
                             "panel_variable": panel, "series_variable": series,
                             "columns": {c: {"panel": v[panel], "series": v[series]} for c, v in cols}})
    with open(fig_dir / "figures_manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite last time is a bad gap
        bad = np.nonzero(~(np.abs(gaps - dt) <= _SPACING_RTOL * dt))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}: non-uniform grid at line {i + 3}: spacing {gaps[i]:.17g} vs dt {dt:.17g}"
        )
    return TimeGrid(float(T), n), np.asarray(z)
