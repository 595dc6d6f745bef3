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
import sys
from pathlib import Path

import numpy as np

from . import csvio
from .equilibrium import RESULT_FIELDS, MarketState, _first, _price_grid
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

#: The numeric run settings in read order: (config key, attribute, type, default).
_SETTINGS = (
    ("T", "T", float, 1.0), ("N", "N", int, 1000), ("refine", "refine", int, 64),
    ("D0", "D0", float, 1.0), ("seed", "seed", int, 0),
    ("y_start", "y_start", float, 0.0), ("y_stop", "y_stop", float, 1.0), ("y_step", "y_step", float, 0.01),
    ("lambda", "lam", float, 0.0),
)


def _number_list(text: str, name: str, cast=float) -> list:
    """The comma-separated values of ``text`` as ``cast``; a ValueError names ``name``."""
    try:
        vals = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        kind = "number" if cast is float else "integer"
        raise ValueError(f"{name} is not a comma-separated {kind} list: {text!r}") from None
    if not vals:
        raise ValueError(f"{name} is empty")
    return vals


class RunConfig:
    """Parsed configuration: model parameters, one attribute per _SETTINGS row, the level lists."""

    def __init__(self, cfg: dict[str, str]):
        self.params: ModelParams = params_from_config(cfg)
        for w in validate(self.params):
            _log(f"warning: {w}")
        for key, attr, cast, default in _SETTINGS:
            raw = cfg.get(key, default)
            try:
                setattr(self, attr, cast(raw))
            except (TypeError, ValueError):
                raise ValueError(f"config key {key} is not a number: {raw!r}") from None
        self.p_list = _number_list(cfg.get("p_list", "1,0.9,0.6"), "config key p_list")
        self.Lambda_list = _number_list(cfg.get("Lambda_list", "-5,0,5"), "config key Lambda_list")
        for key in ("y_start", "y_stop", "y_step"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"config key {key} must be finite, got {getattr(self, key)!r}")
        if self.y_step <= 0:
            raise ValueError("y_step must be positive")
        if self.T <= 0 or self.N < 1:
            raise ValueError("grid needs T > 0 and N >= 1")

    def y_grid(self) -> np.ndarray:
        count = np.floor((self.y_stop - self.y_start) / self.y_step + 1e-9) + 1
        if not count < 2.0**63:  # an infinite count included
            raise ValueError(f"y grid has too many points: {count:g}")
        if count < 1:
            raise ValueError("empty y grid")
        return np.linspace(self.y_start, self.y_start + self.y_step * (count - 1), int(count))


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


def _cmd_simulate(args, rc: RunConfig) -> int:
    out = _require_out(args)
    _log(f"simulate: T={rc.T:g} N={rc.N} refine={rc.refine} seed={rc.seed}")
    bundle = simulate_bundle(TimeGrid(rc.T, rc.N), rc.params, rc.seed, refine=rc.refine, D0=rc.D0)
    csvio.write_path_csv(out, bundle)
    _log(f"simulate: wrote {out}")
    return 0


def _cmd_estimate(args, rc: RunConfig) -> int:
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
            cells = ", ".join(f"{t:.6g}" for t in table)
            print(f"  J under region-{j} prices: [{cells}]")
        if res.candidates:
            print("  candidates:", ", ".join(f"{v:.6g}" for v in res.candidates))
        return
    print(f"region = {res.region}")
    for name in RESULT_FIELDS:
        print(f"{name:>8s} = {getattr(res, name):.10g}")


def _cmd_equilibrium(args, rc: RunConfig) -> int:
    p = rc.params.p if args.p is None else args.p
    state = MarketState(args.y, args.Lambda, args.lam)
    _log(f"equilibrium: y={args.y:g} p={p:g} Lambda={args.Lambda:g}")
    grid = _price_grid(rc.params, [state.y], [p], [state.Lambda], state.lambda_small)
    res = _first(grid.batch)
    if args.out:
        csvio.write_sweep_csv(Path(args.out), grid)
        _log(f"equilibrium: wrote {args.out}")
    _print_equilibrium_block(res)
    return 0


def _cmd_sweep(args, rc: RunConfig) -> int:
    out = _require_out(args)
    ys = rc.y_grid()
    _log(f"sweep: {len(ys)} x {len(rc.p_list)} x {len(rc.Lambda_list)} states "
         f"(y, p, Lambda), lambda={rc.lam:g}")
    grid = _price_grid(rc.params, ys, rc.p_list, rc.Lambda_list, lam=rc.lam)
    b = grid.batch
    failures = [(*b.states[:, i].tolist(), exc) for i, exc in enumerate(b.err) if exc is not None]
    for y, L, _, p, exc in failures:
        _log(f"sweep: row (y={y:g}, p={p:g}, Lambda={L:g}) failed: {exc}")
    cells = csvio.write_sweep_csv(out, grid)
    _log(f"sweep: wrote {out} ({b.code.size} rows, {len(failures)} failures)")
    if args.figures:
        csvio.write_figures(Path(args.figures), grid, cells)
        _log(f"sweep: wrote figure files to {args.figures}")
    return 0


def _cmd_convergence(args, rc: RunConfig) -> int:
    factors = _number_list(args.factors, "--factors", int)
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

    sub.add_parser("simulate", help="simulate one path bundle").set_defaults(run=_cmd_simulate)

    est = sub.add_parser("estimate", help="recover memory from a t,Z CSV")
    est.add_argument("input", help="CSV with columns t and Z")
    est.add_argument("--summary", action="store_true", help="print terminal memory and class")
    est.set_defaults(run=_cmd_estimate)

    eq = sub.add_parser("equilibrium", help="solve a single state")
    eq.add_argument("--y", type=float, required=True)
    eq.add_argument("--p", type=float, default=None)
    eq.add_argument("--Lambda", type=float, default=0.0)
    eq.add_argument("--lambda", dest="lam", type=float, default=0.0)
    eq.set_defaults(run=_cmd_equilibrium)

    sw = sub.add_parser("sweep", help="comparative-statics sweep")
    sw.add_argument("--figures", metavar="DIR", help="also emit per-figure CSV files")
    sw.set_defaults(run=_cmd_sweep)

    cv = sub.add_parser("convergence", help="pathwise convergence study")
    cv.add_argument("--factors", default="8,16,32", help="comma list of coarse factors")
    cv.add_argument("--seeds", type=int, default=50)
    cv.add_argument("--n-fine", type=int, default=32768, dest="n_fine")
    cv.set_defaults(run=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, _load_run_config(args))
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
