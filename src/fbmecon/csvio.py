"""CSV formats: path bundles, memory estimates, sweeps, figures, convergence tables.

All files are UTF-8, comma-separated, with a mandatory header row and "\\n"
line endings; the last row's line ending is required too, so an input file
cut inside its last row is rejected.  Floats are printed with 17 significant
digits so every value round-trips losslessly.  Every table's float cells go
through one numpy formatter, ``_rows_text``, a block of rows at a time; its
text is byte for byte that of ``"%.17g" %`` applied cell by cell.  Cells
with 1e-6 <= |x| < 1e17, and 0, are printed from exact integer arithmetic;
the rest (nan, +-inf, subnormals, |x| < 1e-6 or >= 1e17) by ``"%.17g" %``
itself, as are single labels (:func:`fmt`).  Increments (dw,
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


_BLOCK = 1024  # rows formatted at a time


def _write_table(path, header: list[str], blocks) -> None:
    """Write the header line, then each block of row text; no cell needs quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


# A cell x with d = floor(log10|x|) in [-6, 16] is printed from the
# round-half-even integer N nearest |x| * 10**(16 - d), its 17 significant
# digits.  10**(16 - d) is an exact double, so Dekker's two-product (T. J.
# Dekker, Numer. Math. 18, 1971) gives that product exactly as p + e, with
# p >= 2**53 an even integer: N = p + rint(e) rounds half to even, as
# "%.17g" does.  Every other cell (0 aside) is printed by "%.17g" itself.
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_CELL = 25  # byte slots per cell: the sign, at most 23 characters and the separator


def _digit_tables():
    """Per group 0 <= g < 10**4: its four ASCII digits packed in a uint32, and
    the index (0-3) of its last nonzero digit, -100 for g = 0."""
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((g.size, 4), np.uint8)
    for i in range(4):
        digits[:, 3 - i] = g // 10 ** i % 10 + 48
    zeros = (g % 10 == 0) * np.int8(1) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0) * np.int8(100)
    return digits.view(np.uint32).ravel(), 3 - zeros


_GROUP_DIGITS, _GROUP_LAST = _digit_tables()


def _cell_lengths():
    """[d + 6, j]: the length of a cell with exponent d whose last nonzero
    significant digit is the j-th, after trailing zeros (and a bare ".") are
    stripped; d < -4 takes the exponent form D.DDDe-0X."""
    j, d = np.arange(17), np.arange(-6, 17)[:, None]
    plain = np.where(j > np.maximum(d, 0), j + 2, np.maximum(d, 0) + 1)  # D...D[.D...D]
    return np.where(d >= -4, np.where(d >= 0, plain, 2 - d + j), plain + 4)


_CELL_LENGTHS = _cell_lengths()
_LEADING = np.frombuffer(b"0.000", np.uint8)
_EXPONENTS = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """a * 10**k exactly, as the rounded product p and its error e."""
    p = a * _POW10[k]
    big = _SPLIT * a
    hi = big - (big - a)
    lo = a - hi
    return p, ((hi * _POW10_HI[k] - p) + hi * _POW10_LO[k] + lo * _POW10_HI[k]) + lo * _POW10_LO[k]


def _decade_step(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 where p + e lies below, in or above [1e16, 1e17); the sign
    of e decides at the ends, not the rounded sum."""
    return (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
            - ((p < 1e16) | ((p == 1e16) & (e < 0))))


def _lay_out(cells: np.ndarray, digits: np.ndarray, d: int) -> None:
    """Write the 17 digits of cells of exponent d after each cell's sign slot,
    zeros unstripped: fixed notation, or the mantissa D.DDD for d < -4."""
    if -4 <= d < 0:
        cells[:, 1:2 - d] = _LEADING[:1 - d]
        cells[:, 2 - d:19 - d] = digits
    else:
        d = max(d, 0)
        cells[:, 1:d + 2] = digits[:, :d + 1]
        cells[:, d + 2] = ord(".")
        cells[:, d + 3:19] = digits[:, d + 1:]


def _rows_text(values: np.ndarray) -> str:
    """The rows of the (n, k) float array as text: cells joined by ",", each
    row ended by "\\n", each cell x byte for byte ``"%.17g" % x``.

    Equal to ``(("%.17g" + ",%.17g" * (k - 1) + "\\n") * n) % tuple(cells)``;
    cells other than 0 outside 1e-6 <= |x| < 1e17 (nan, +-inf and
    subnormals among them) are formatted by that ``%`` and spliced in.
    """
    n, k = values.shape
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    m = x.size
    with np.errstate(divide="ignore"):
        d = np.floor(np.log10(np.abs(x)))
    fast = (d >= -6) & (d <= 16)  # False for 0, nan and inf
    a = np.where(fast, np.abs(x), 0.0)
    d = np.where(fast, d, 0).astype(np.intp)
    p, e = _times_pow10(a, 16 - d)
    step = _decade_step(p, e)  # log10 may be one off near a power of 10
    redo = np.flatnonzero(fast & (step != 0))
    if redo.size:
        d[redo] += step[redo]
        fast[redo] = (d[redo] >= -6) & (d[redo] <= 16)
        redo = redo[fast[redo]]
        p[redo], e[redo] = _times_pow10(a[redo], 16 - d[redo])
        fast[redo] = _decade_step(p[redo], e[redo]) == 0
    N = p.astype(np.int64) + np.rint(e).astype(np.int64)  # 0 where x = 0
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    d += carry
    fast &= d <= 16
    d[~fast] = 0  # x = 0 prints as "0", the rest by "%.17g"

    # the 17 digits as five groups of four ASCII digits (the first is "000D")
    hi, lo = np.divmod(N, 10 ** 8)
    top, mid = np.divmod(hi, 10 ** 8)
    words = np.empty((m, 5), np.uint32)
    last = np.zeros(m, np.intp)  # the index of the last nonzero digit
    for j, g in enumerate((top, *np.divmod(mid, 10 ** 4), *np.divmod(lo, 10 ** 4))):
        words[:, j] = _GROUP_DIGITS[g]
        last = np.maximum(last, 4 * j - 3 + _GROUP_LAST[g])
    length = _CELL_LENGTHS[d + 6, last]

    # lay the cells out a run of equal exponents at a time, in exponent order
    t = (d + 6).astype(np.uint8)
    order = np.argsort(t, kind="stable")
    digits = words.view("V20")[order].view(np.uint8)[:, 3:]
    runs = np.empty((m, _CELL), np.uint8)
    counts = np.bincount(t, minlength=23)
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts).tolist():
        run = slice(ends[i] - counts[i], ends[i])
        _lay_out(runs[run], digits[run], i - 6)
    cells = np.empty_like(runs)
    cells.view("V25")[order] = runs.view("V25")

    r = np.flatnonzero(fast & (d < -4))
    cells[r[:, None], length[r, None] + np.arange(-3, 1)] = _EXPONENTS[d[r] + 6]
    cells[:, 0] = ord("-")
    neg = np.signbit(x)
    r = np.flatnonzero(~fast & (x != 0))
    if r.size:  # "%.17g" text, its sign included, from the sign slot on
        text = (("%.17g\n" * r.size) % tuple(x[r].tolist())).split()
        cells[r, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(r.size, 24)
        length[r] = [len(c) - 1 for c in text]
        neg[r] = True
    separators = np.full((n, k), ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    cells[np.arange(m), length + 1] = separators.ravel()
    keep = np.arange(_CELL) <= length[:, None] + 1
    keep[:, 0] = neg
    return cells[keep].tobytes().decode("ascii")


def _node_blocks(grid: TimeGrid, increments: np.ndarray, *levels: np.ndarray):
    """Rows t, increment, levels... per node (no increment at t_0), a block of rows at a time."""
    t = grid.nodes()
    yield _rows_text(np.array([[t[0], *(c[0] for c in levels)]])).replace(",", ",,", 1)
    for lo in range(1, grid.N + 1, _BLOCK):
        hi = min(lo + _BLOCK, grid.N + 1)
        yield _rows_text(np.column_stack((t[lo:hi], increments[lo - 1:hi - 1],
                                          *(c[lo:hi] for c in levels))))


def write_path_csv(path, bundle: PathBundle) -> None:
    """One row per node; the increment column is empty at t_0."""
    _write_table(path, PATH_HEADER, _node_blocks(bundle.grid, bundle.dw, bundle.w, bundle.Lambda,
                                                 bundle.lambda_small, bundle.Z, bundle.D_hat))


def write_memory_csv(path, est: MemoryEstimate) -> None:
    _write_table(path, MEMORY_HEADER, _node_blocks(est.grid, est.dw_hat, est.Lambda_hat, est.lambda_hat))


# by region code 1-4, 5: the region cell of a sweep row with an equilibrium;
# code 0 (none) gives a row with the RESULT_FIELDS empty
_REGIONS = ("1", "2", "3", "4", "boundary")
_NO_EQUILIBRIUM = "0" + "," * (len(RESULT_FIELDS) + 1) + "0"


def _row_tails(batch) -> list[str]:
    """Per state of a batch, its sweep-row cells after y, p and Lambda, as text:
    region, the RESULT_FIELDS and exists; a block of states at a time."""
    tails = []
    for lo in range(0, len(batch.code), _BLOCK):
        code = batch.code[lo:lo + _BLOCK]
        rows = _rows_text(batch.fields[:len(RESULT_FIELDS), lo:lo + _BLOCK][:, code != 0].T)
        rows = iter(rows.split("\n"))
        tails += [f"{_REGIONS[c - 1]},{next(rows)},1" if c else _NO_EQUILIBRIUM
                  for c in code.tolist()]
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
    _write_table(path, CONVERGENCE_HEADER, [_rows_text(np.column_stack(
        (report.dt_values, report.median_err_Lambda, report.median_err_lambda)))])


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
