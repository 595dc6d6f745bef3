"""Command-line front end.

Subcommands:
    simulate      draw one economy path and write the path CSV
    estimate      recover memory processes from a t,Z CSV
    equilibrium   solve one state and print a human-readable block
    sweep         comparative-statics sweep over (y, p, Lambda)
    convergence   empirical pathwise convergence of the recovery scheme

Global flags: --config PATH (flat key = value file), --out PATH, --seed INT.
Exit codes: 0 success, 1 validation failure, 2 runtime/solver failure.
Every run is deterministic given (config, seed); progress goes to stderr,
one line per stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csvio
from .equilibrium import MarketState, SweepRow, equilibrium, sweep
from .estimator import classify_memory, convergence_study, estimate_memory
from .params import ModelParams, load_config, params_from_config, validate
from .paths import TimeGrid, simulate_bundle

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the exit-code contract
        raise ValueError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration plumbing

_GRID_DEFAULTS = {"T": 1.0, "N": 1000, "refine": 64, "D0": 1.0, "seed": 0}
_SWEEP_DEFAULTS = {
    "y_start": 0.0,
    "y_stop": 1.0,
    "y_step": 0.01,
    "p_list": "1,0.9,0.6",
    "Lambda_list": "-5,0,5",
    "lambda": 0.0,
}


def _float_list(text: str, key: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"config key {key} is not a comma-separated number list: {text!r}") from None
    if not vals:
        raise ValueError(f"config key {key} is empty")
    return vals


class RunConfig:
    """Parsed configuration: model parameters plus grid and sweep settings."""

    def __init__(self, cfg: dict[str, str]):
        self.params: ModelParams = params_from_config(cfg)
        for w in validate(self.params):
            _log(f"warning: {w}")

        def num(key, cast=float):
            raw = cfg.get(key, _GRID_DEFAULTS.get(key, _SWEEP_DEFAULTS.get(key)))
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise ValueError(f"config key {key} is not a number: {raw!r}") from None

        self.T = num("T")
        self.N = num("N", int)
        self.refine = num("refine", int)
        self.D0 = num("D0")
        self.seed = num("seed", int)
        self.y_start = num("y_start")
        self.y_stop = num("y_stop")
        self.y_step = num("y_step")
        self.lam = num("lambda")
        self.p_list = _float_list(cfg.get("p_list", _SWEEP_DEFAULTS["p_list"]), "p_list")
        self.Lambda_list = _float_list(
            cfg.get("Lambda_list", _SWEEP_DEFAULTS["Lambda_list"]), "Lambda_list"
        )
        if self.y_step <= 0:
            raise ValueError("y_step must be positive")
        if self.T <= 0 or self.N < 1:
            raise ValueError("grid needs T > 0 and N >= 1")

    def y_grid(self) -> np.ndarray:
        count = int(np.floor((self.y_stop - self.y_start) / self.y_step + 1e-9)) + 1
        if count < 1:
            raise ValueError("empty y grid")
        return np.linspace(self.y_start, self.y_start + self.y_step * (count - 1), count)


def _load_run_config(args) -> RunConfig:
    if not args.config:
        raise ValueError("--config PATH is required")
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    rc = RunConfig(cfg)
    if args.seed is not None:
        rc.seed = args.seed
    return rc


def _require_out(args) -> Path:
    if not args.out:
        raise ValueError("--out PATH is required for this command")
    return Path(args.out)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    rc = _load_run_config(args)
    out = _require_out(args)
    _log(f"simulate: T={rc.T:g} N={rc.N} refine={rc.refine} seed={rc.seed}")
    bundle = simulate_bundle(TimeGrid(rc.T, rc.N), rc.params, rc.seed, refine=rc.refine, D0=rc.D0)
    csvio.write_path_csv(out, bundle)
    _log(f"simulate: wrote {out}")
    return 0


def _cmd_estimate(args) -> int:
    rc = _load_run_config(args)
    if not args.input:
        raise ValueError("estimate needs an input CSV with columns t,Z")
    try:
        grid, Z = csvio.read_t_z_csv(args.input)
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from None
    _log(f"estimate: {args.input} ({grid.N} steps, dt={grid.dt:g})")
    est = estimate_memory(Z, grid, rc.params)
    if args.out:
        csvio.write_memory_csv(Path(args.out), est)
        _log(f"estimate: wrote {args.out}")
    if args.summary or not args.out:
        kind = classify_memory(est.Lambda_hat[-1])
        print(f"Lambda_hat_T = {csvio.fmt(est.Lambda_hat[-1])}")
        print(f"lambda_hat_T = {csvio.fmt(est.lambda_hat[-1])}")
        print(f"memory = {kind}")
    return 0


def _print_equilibrium_block(res) -> None:
    print(f"state: y = {res.state.y:g}, Lambda = {res.state.Lambda:g}, "
          f"lambda = {res.state.lambda_small:g}, p = {res.p:g}")
    if not res.exists:
        print("equilibrium: DOES NOT EXIST (no region is self-consistent)")
        for j, table in sorted(res.J_tables.items()):
            cells = ", ".join("nan" if t != t else f"{t:.6g}" for t in table)
            print(f"  J under region-{j} prices: [{cells}]")
        if res.candidates:
            print("  candidates:", ", ".join(f"{v:.6g}" for v in res.candidates))
        return
    print(f"region = {res.region}")
    for name in csvio.RESULT_FIELDS:
        print(f"{name:>8s} = {getattr(res, name):.10g}")


def _cmd_equilibrium(args) -> int:
    rc = _load_run_config(args)
    if args.y is None:
        raise ValueError("equilibrium needs --y")
    params = rc.params if args.p is None else replace(rc.params, p=args.p)
    state = MarketState(args.y, args.Lambda, args.lam)
    _log(f"equilibrium: y={args.y:g} p={params.p:g} Lambda={args.Lambda:g}")
    res = equilibrium(state, params)
    if args.out:
        csvio.write_sweep_csv(Path(args.out), [SweepRow(state.y, params.p, state.Lambda, res)])
        _log(f"equilibrium: wrote {args.out}")
    _print_equilibrium_block(res)
    return 0


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


def _figure_cell(row, field: str) -> str:
    """The field of an existing equilibrium, or an empty cell."""
    if row is not None and row.result is not None and row.result.exists:
        return csvio.fmt(getattr(row.result, field))
    return ""


def _write_figures(fig_dir: Path, rows, rc: RunConfig) -> None:
    """One CSV per figure id, wide format: y plus one column per line.

    Panel order follows the gallery layout: Lambda panels (0, -5, 5) and
    protection panels (1, 0.9, 0.6).
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
        csvio._write_table(fig_dir / name, ["y"] + [c for c, _ in cols], (
            ",".join([csvio.fmt(y)] + [_figure_cell(cells.get((key, y)), field) for _, key in cols])
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


def _cmd_sweep(args) -> int:
    rc = _load_run_config(args)
    out = _require_out(args)
    ys = rc.y_grid()
    _log(
        f"sweep: {len(ys)} x {len(rc.p_list)} x {len(rc.Lambda_list)} states "
        f"(y, p, Lambda), lambda={rc.lam:g}"
    )
    rows = sweep(rc.params, ys, rc.p_list, rc.Lambda_list, lam=rc.lam)
    failures = [r for r in rows if r.error]
    for r in failures:
        _log(f"sweep: row (y={r.y:g}, p={r.p:g}, Lambda={r.Lambda:g}) failed: {r.error}")
    csvio.write_sweep_csv(out, rows)
    _log(f"sweep: wrote {out} ({len(rows)} rows, {len(failures)} failures)")
    if args.figures:
        _write_figures(Path(args.figures), rows, rc)
        _log(f"sweep: wrote figure files to {args.figures}")
    return 0


def _cmd_convergence(args) -> int:
    rc = _load_run_config(args)
    factors = [int(f) for f in args.factors.split(",") if f.strip()]
    _log(
        f"convergence: N_fine={args.n_fine} factors={factors} seeds={args.seeds} "
        f"T={rc.T:g} seed={rc.seed}"
    )
    report = convergence_study(rc.params, rc.T, args.n_fine, factors, args.seeds, base_seed=rc.seed)
    if args.out:
        csvio.write_convergence_csv(Path(args.out), report)
        _log(f"convergence: wrote {args.out}")
    print(
        f"fitted rate: Lambda {report.fitted_rate_Lambda:.4f}, "
        f"lambda {report.fitted_rate_lambda:.4f} (min {report.fitted_rate:.4f})"
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fbmecon", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="simulate one path bundle")

    est = sub.add_parser("estimate", help="recover memory from a t,Z CSV")
    est.add_argument("input", help="CSV with columns t and Z")
    est.add_argument("--summary", action="store_true", help="print terminal memory and class")

    eq = sub.add_parser("equilibrium", help="solve a single state")
    eq.add_argument("--y", type=float, required=True)
    eq.add_argument("--p", type=float, default=None)
    eq.add_argument("--Lambda", type=float, default=0.0)
    eq.add_argument("--lambda", dest="lam", type=float, default=0.0)

    sw = sub.add_parser("sweep", help="comparative-statics sweep")
    sw.add_argument("--figures", metavar="DIR", help="also emit per-figure CSV files")

    cv = sub.add_parser("convergence", help="pathwise convergence study")
    cv.add_argument("--factors", default="8,16,32", help="comma list of coarse factors")
    cv.add_argument("--seeds", type=int, default=50)
    cv.add_argument("--n-fine", type=int, default=32768, dest="n_fine")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "equilibrium": _cmd_equilibrium,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # every other failure is a runtime failure: one line, no traceback
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
