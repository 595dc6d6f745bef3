"""CSV formats: path bundles, memory estimates, sweeps, figures, convergence tables.

All files are UTF-8, comma-separated, with a mandatory header row and "\\n"
line endings; the last row's line ending is required too, so an input file
cut inside its last row is rejected.  Floats are printed with 17 significant
digits, byte for byte as ``"%.17g" %``, so every value round-trips; increments
(dw, dw_hat) sit on the row of their right endpoint.  The one text
representation is a cell table: :func:`_cells` writes each value's bytes into
a row of ``_CELL`` slots and leaves every unused byte NUL, so an all-NUL cell
is empty (the increment at t_0, the fields of a state without an
equilibrium).  :func:`_text` puts "," or "\\n" in each cell's last slot and
drops the padding with one ``bytes.translate``, whose bytes are written as
they are.  Cells with 1e-6 <= |x| < 1e17, and 0, come from exact integer
arithmetic; the rest (nan, +-inf, subnormals, other magnitudes) from ``%``
itself.  The sweep CSV is assembled from label, region and field cells by
numpy broadcasting; each figure layout is one gather of the sweep's cells.
The t,Z reader parses with numpy and accepts exactly what its per-row parser does.
"""

from __future__ import annotations

import csv
import math
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .equilibrium import RESULT_FIELDS
from .estimator import MemoryEstimate
from .paths import PathBundle, TimeGrid

__all__ = ["fmt", "write_path_csv", "write_memory_csv", "write_sweep_csv", "write_figures",
           "write_convergence_csv", "read_t_z_csv", "SWEEP_HEADER"]

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
    """Write the header line, then each block of row bytes; no cell needs quoting."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
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
# [i, j]: 0xff where digit j shows when the last digit shown is the i-th, else 0
_SHOWN = (np.arange(17) <= np.arange(17)[:, None]) * np.uint8(0xFF)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """a * 10**k exactly, as the rounded product p and its error e."""
    p = a * _POW10.take(k)
    big = _SPLIT * a
    hi = big - (big - a)
    lo = a - hi
    k_hi, k_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((hi * k_hi - p) + hi * k_lo + lo * k_hi) + lo * k_lo


def _decade_step(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 where p + e lies below, in or above [1e16, 1e17); the sign
    of e decides at the ends, not the rounded sum."""
    return (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
            - ((p < 1e16) | ((p == 1e16) & (e < 0))))


def _lay_out(cells: np.ndarray, digits: np.ndarray, d: int) -> None:
    """Write the digits of cells of exponent d after each cell's sign slot: fixed
    notation, or D.DDDe-0X for d < -4, with a "." only where a digit follows."""
    if -4 <= d < 0:
        cells[:, 1:2 - d] = np.frombuffer(b"0.000"[:1 - d], np.uint8)
        cells[:, 2 - d:19 - d] = digits
        return
    i = max(d, 0)
    cells[:, 1:i + 2] = digits[:, :i + 1]
    cells[:, i + 3:19] = digits[:, i + 1:]
    cells[:, i + 2] = (cells[:, i + 3] != 0) * np.uint8(ord("."))
    if d < -4:
        cells[:, 19:23] = np.frombuffer(b"e-%02d" % -d, np.uint8)


def _cells(values: np.ndarray) -> np.ndarray:
    """Per value x, the bytes of ``"%.17g" % x`` in a row of _CELL slots, shaped
    ``values.shape + (_CELL,)``: slot 0 holds "-" or NUL, and every unused slot,
    the last (the separator's) included, is NUL.  Cells other than 0 outside
    1e-6 <= |x| < 1e17 (nan, +-inf, subnormals) hold the ``%`` text in slots 0-23."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    m = x.size
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        d = np.floor(np.log10(a))
    fast = (d >= -6) & (d <= 16)  # False for 0, nan and inf
    a[~fast] = 0.0
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

    # the 17 digits as five groups of four ASCII digits (the first is "000D"),
    # taken from the right by floor division (faster than np.divmod), then
    # NUL past the last nonzero one, except the integer digits
    words = np.empty((m, 5), np.uint32)
    last = np.zeros(m, np.int8)  # the index of the last nonzero digit
    for j in range(4, -1, -1):
        q = N // 10 ** 4
        g = N - q * 10 ** 4
        words[:, j] = _GROUP_DIGITS.take(g)
        np.maximum(last, _GROUP_LAST.take(g) + np.int8(4 * j - 3), out=last)
        N = q
    digits = words.view(np.uint8)[:, 3:] & _SHOWN.take(np.maximum(last, d), axis=0)

    # lay the cells out a run of equal exponents at a time, in exponent order
    t = (d + 6).astype(np.uint8)
    order = np.argsort(t, kind="stable")
    digits = digits.take(order, axis=0)
    runs = np.zeros((m, _CELL), np.uint8)
    counts = np.bincount(t, minlength=23)
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts).tolist():
        run = slice(ends[i] - counts[i], ends[i])
        _lay_out(runs[run], digits[run], i - 6)
    cells = np.empty_like(runs)
    cells.view("V25")[order] = runs.view("V25")
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    r = np.flatnonzero(~fast & (x != 0))
    if r.size:  # "%.17g" text, its sign included, from the sign slot on
        text = (("%.17g\n" * r.size) % tuple(x[r].tolist())).split()
        cells[r, :24] = np.array(text, dtype="S24").view((np.uint8, 24))
    return cells.reshape(*np.shape(values), _CELL)


def _text(table: np.ndarray) -> bytes:
    """The (n, k, _CELL) cell table as n CSV rows of k cells: the last slot of
    each cell becomes "," and, in a row's last cell, "\\n"; the NUL padding
    is dropped, so an all-NUL cell is empty.  Writes into ``table``."""
    table[:, :, -1] = ord(",")
    table[:, -1, -1] = ord("\n")
    return table.tobytes().translate(None, b"\0")


def _rows_text(values: np.ndarray) -> bytes:
    """The (n, k) float array as n CSV rows, each cell x byte for byte ``"%.17g" % x``."""
    return _text(_cells(values))


def _node_blocks(grid: TimeGrid, increments: np.ndarray, *levels: np.ndarray):
    """Rows t, increment, levels... per node, a block of rows at a time; the
    increment cell of t_0 is empty."""
    columns = (grid.nodes(), np.concatenate(([0.0], increments)), *levels)
    for lo in range(0, grid.N + 1, _BLOCK):
        table = _cells(np.column_stack([c[lo:lo + _BLOCK] for c in columns]))
        if lo == 0:
            table[0, 1] = 0
        yield _text(table)


def write_path_csv(path, bundle: PathBundle) -> None:
    """One row per node; the increment column is empty at t_0."""
    _write_table(path, PATH_HEADER, _node_blocks(bundle.grid, bundle.dw, bundle.w, bundle.Lambda,
                                                 bundle.lambda_small, bundle.Z, bundle.D_hat))


def write_memory_csv(path, est: MemoryEstimate) -> None:
    _write_table(path, MEMORY_HEADER, _node_blocks(est.grid, est.dw_hat, est.Lambda_hat, est.lambda_hat))


# the region cell by region code (0: no equilibrium, 5: boundary); codes 0
# and 1 give the exists cell
_CODE_CELLS = np.array([b"0", b"1", b"2", b"3", b"4", b"boundary"], f"S{_CELL}").view((np.uint8, _CELL))


def write_sweep_csv(path, grid) -> tuple[np.ndarray, np.ndarray]:
    """The sweep CSV of a priced grid, rows in (y, p, Lambda) order.

    Returns, for :func:`write_figures`, the cells of ``grid.y`` and the
    RESULT_FIELDS cells of its states, shaped (y, p, Lambda, field, _CELL)
    and empty where a state has no equilibrium.
    """
    b, shape, k = grid.batch, (len(grid.y), len(grid.p), len(grid.Lam)), len(RESULT_FIELDS)
    step = 8 * _BLOCK // k  # rows per block, about as many cells as a node table's block
    fields = np.concatenate([_cells(b.fields[:k, lo:lo + step].T) for lo in range(0, b.code.size, step)])
    fields[b.code == 0] = 0
    labels = _cells(np.concatenate((grid.y, grid.p, grid.Lam)))  # one call: each has a fixed cost
    labels_at = labels[np.indices(shape).reshape(3, -1).T + np.cumsum((0,) + shape[:2])]

    def blocks():
        for lo in range(0, b.code.size, step):
            rows, code = slice(lo, lo + step), b.code[lo:lo + step, None]
            yield _text(np.concatenate((labels_at[rows], _CODE_CELLS[code], fields[rows],
                                        _CODE_CELLS[np.minimum(code, 1)]), axis=1))

    _write_table(path, SWEEP_HEADER, blocks())
    return labels[:shape[0]], fields.reshape(*shape, k, _CELL)


# the plotted quantities in gallery order, with their file-name slugs: figure
# 3 + 2m draws quantity m in Lambda panels, one line per p, and 4 + 2m the reverse
_FIGURE_SLUGS = {"n_C": "holdings", "x_star": "diversion", "sigma_H": "modified_volatility",
                 "mu_H": "modified_return", "mu_G": "gross_return", "r": "interest_rate"}
_FIGURE_FIELDS = np.array([RESULT_FIELDS.index(field) for field in _FIGURE_SLUGS])


class _Encoded(str):
    """JSON text that :func:`_json` writes as it is."""


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of lists, dicts, str, int and float, at
    ``indent``, from the leaf encoders of json's C encoder (an indent makes json use its own)."""
    if isinstance(obj, (list, dict)):
        inner, (start, end) = indent + "  ", "{}" if isinstance(obj, dict) else "[]"
        items = ([f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())]
                 if isinstance(obj, dict) else [_json(v, inner) for v in obj])
        return start + inner + ("," + inner).join(items) + indent + end if items else start + end
    if isinstance(obj, str):
        return obj if isinstance(obj, _Encoded) else encode_basestring_ascii(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    return float.__repr__(obj) if isinstance(obj, float) else int.__repr__(obj)


def write_figures(fig_dir, grid, cells) -> None:
    """One wide CSV per figure id in the Path ``fig_dir``: y, then one column per line.

    ``cells`` are the y and field cells :func:`write_sweep_csv` returned for
    ``grid``; a figure cell is the sweep CSV's cell of the first row at its
    grid point, byte for byte.  Panel order follows the gallery layout:
    Lambda panels (0, -5, 5) and protection panels (1, 0.9, 0.6).
    """
    y_cells, fields = cells
    fig_dir.mkdir(parents=True, exist_ok=True)
    first = {}  # y -> the index of its first row
    for i, y in enumerate(grid.y):
        first.setdefault(y, i)
    rows = np.array([first[y] for y in sorted(first)], np.intp)
    vals = {}
    for var, listed, order in (("Lambda", grid.Lam, [0.0, -5.0, 5.0]), ("p", grid.p, [1.0, 0.9, 0.6])):
        gallery = [v for v in order if v in listed]
        # then each other level once per label, so that no column name repeats
        # (``in`` matches a NaN level only by identity)
        levels = {}
        for v in gallery + [v for v in listed if v not in gallery]:
            levels.setdefault(f"{v:g}", v)
        vals[var] = list(levels.values())
    manifest = []
    for fig, panel, series, by in ((3, "Lambda", "p", "protection"), (4, "p", "Lambda", "memory")):
        cols = [(f"{panel}={pv:g};{series}={sv:g}", {panel: pv, series: sv})
                for pv in vals[panel] for sv in vals[series]]
        at_p, at_L = ([listed.index(v[var]) for _, v in cols]
                      for var, listed in (("p", grid.p), ("Lambda", grid.Lam)))
        # (quantity, y, column, _CELL): the y cells, then the lines' field cells
        lines = fields[rows[:, None], at_p, at_L, _FIGURE_FIELDS[:, None, None]]
        tables = np.concatenate((np.broadcast_to(y_cells[rows, None], lines[:, :, :1].shape), lines), axis=2)
        header = ["y"] + [c for c, _ in cols]
        # the layout's six manifest entries share its columns, encoded once at their depth
        columns = _Encoded(_json({c: {"panel": v[panel], "series": v[series]} for c, v in cols}, "\n    "))
        for m, (field, slug) in enumerate(_FIGURE_SLUGS.items()):
            name = f"fig{fig + 2 * m:02d}_{slug}_by_{by}.csv"
            _write_table(fig_dir / name, header, [_text(tables[m])])
            manifest.append({"figure": fig + 2 * m, "file": name, "quantity": field, "x_axis": "y",
                             "panel_variable": panel, "series_variable": series, "columns": columns})
    manifest.sort(key=lambda entry: entry["figure"])
    with open(fig_dir / "figures_manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_json(manifest) + "\n")


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
    h = max(1, csv.field_size_limit() // 2)  # a field over csv's limit spans h bytes
    chunk = b""
    with open(path, "rb") as fh:  # in chunks of whole h-byte windows, about 1 MiB
        for chunk in iter(lambda: fh.read(h * max(1, 2 ** 20 // h)), b""):
            if (any(b in chunk for b in b'"\0\x1c\x1d\x1e\x1f')
                    or any(chunk.find(b",", i, i + h) < 0 and chunk.find(b"\n", i, i + h) < 0
                           for i in range(0, len(chunk), h))):
                raise ValueError(f"{path}: left to the per-row parser")
    if chunk[-1:] not in (b"\n", b"\r"):
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
