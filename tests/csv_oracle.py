"""The per-row csv table writers and reader csvio replaced, kept as test oracles.

Each writer writes one ``csv.writer`` row per table row, formatting cell by
cell from the numpy arrays; the package's block writers must produce the
same bytes.  The sweep and figure writers take the ``SweepRow`` list of
``fbmecon.sweep`` and format each cell from its ``EquilibriumResult``; the
package's columnar sweep must produce the same bytes.  ``read_t_z_csv``
parses every record with ``csv.reader`` and ``float()``; the package's
reader must accept the same files, return the same grid and bit-identical
Z, and raise the same messages.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from fbmecon import TimeGrid
from fbmecon.csvio import (
    CONVERGENCE_HEADER,
    MEMORY_HEADER,
    PATH_HEADER,
    SWEEP_HEADER,
    _SPACING_RTOL,
    _ended_lines,
)

RESULT_FIELDS = ("n_C", "n_M", "x_star", "r", "mu", "sigma", "kappa", "mu_y", "sigma_y",
                 "mu_H", "sigma_H", "mu_G", "D_over_S")


def fmt(x: float) -> str:
    """17-significant-digit decimal form (lossless for binary64)."""
    return f"{x:.17g}"


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


def _sweep_record(row) -> list[str]:
    base = [fmt(row.y), fmt(row.p), fmt(row.Lambda)]
    res = row.result
    if res is None or not res.exists:
        # nonexistent (or failed) rows: region 0, price fields empty
        return base + ["0"] + [""] * len(RESULT_FIELDS) + ["0"]
    return base + [str(res.region)] + [fmt(getattr(res, f)) for f in RESULT_FIELDS] + ["1"]


def write_sweep_csv(path, rows) -> None:
    fh, w = _open_writer(path)
    with fh:
        w.writerow(SWEEP_HEADER)
        for row in rows:
            w.writerow(_sweep_record(row))


_FIGURES = {
    3: ("n_C", "Lambda", "p"),
    4: ("n_C", "p", "Lambda"),
    5: ("x_star", "Lambda", "p"),
    6: ("x_star", "p", "Lambda"),
    7: ("sigma_H", "Lambda", "p"),
    8: ("sigma_H", "p", "Lambda"),
    9: ("mu_H", "Lambda", "p"),
    10: ("mu_H", "p", "Lambda"),
    11: ("mu_G", "Lambda", "p"),
    12: ("mu_G", "p", "Lambda"),
    13: ("r", "Lambda", "p"),
    14: ("r", "p", "Lambda"),
}
_FIGURE_SLUGS = {
    "n_C": "holdings",
    "x_star": "diversion",
    "sigma_H": "modified_volatility",
    "mu_H": "modified_return",
    "mu_G": "gross_return",
    "r": "interest_rate",
}


def _write_table(path, header, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _figure_cell(row, field: str) -> str:
    """The field of an existing equilibrium, or an empty cell."""
    if row is not None and row.result is not None and row.result.exists:
        return fmt(getattr(row.result, field))
    return ""


def write_figures(fig_dir: Path, rows, rc) -> None:
    """One CSV per figure id, wide format: y plus one column per line.

    ``rc`` carries the sweep's ``p_list`` and ``Lambda_list``.  Panel order
    follows the gallery layout: Lambda panels (0, -5, 5) and protection
    panels (1, 0.9, 0.6).
    """
    fig_dir.mkdir(parents=True, exist_ok=True)
    cells = {}  # ((p, Lambda), y) -> the first row at that grid point
    for row in rows:
        cells.setdefault(((row.p, row.Lambda), row.y), row)
    ys = sorted({row.y for row in rows})
    panel_orders = {"Lambda": [0.0, -5.0, 5.0], "p": [1.0, 0.9, 0.6]}
    lam_vals = [v for v in panel_orders["Lambda"] if v in rc.Lambda_list]
    p_vals = [v for v in panel_orders["p"] if v in rc.p_list]
    lam_vals += [v for v in rc.Lambda_list if v not in lam_vals]
    p_vals += [v for v in rc.p_list if v not in p_vals]
    manifest = []
    for fig, (field, panel, series) in sorted(_FIGURES.items()):
        panels = lam_vals if panel == "Lambda" else p_vals
        serieses = p_vals if series == "p" else lam_vals
        cols = []
        for pv in panels:
            for sv in serieses:
                key = (pv, sv) if panel == "p" else (sv, pv)
                cols.append((f"{panel}={pv:g};{series}={sv:g}", key))
        name = f"fig{fig:02d}_{_FIGURE_SLUGS[field]}_by_{'memory' if series == 'Lambda' else 'protection'}.csv"
        _write_table(fig_dir / name, ["y"] + [c for c, _ in cols], (
            ",".join([fmt(y)] + [_figure_cell(cells.get((key, y)), field) for _, key in cols])
            + "\n" for y in ys
        ))
        manifest.append(
            {
                "figure": fig,
                "file": name,
                "quantity": field,
                "x_axis": "y",
                "panel_variable": panel,
                "series_variable": series,
                "columns": {c: {"panel": k[0] if panel == "p" else k[1],
                                "series": k[1] if panel == "p" else k[0]}
                            for c, k in cols},
            }
        )
    with open(fig_dir / "figures_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
