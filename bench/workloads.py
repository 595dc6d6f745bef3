"""The benchmark's workloads: inputs from a seed, the timed work, output checks.

Every workload drives the command line in-process through
``fbmecon.cli.main`` (plus library calls where the workload prices states
one at a time) under the baseline calibration ``BASE_PARAMS``.  Each
workload object is built once (set-up), then ``iterate`` runs one timed
iteration and ``check`` verifies its outputs.  Functions of the package
are looked up on their module at call time, so the tracer's wrappers see
the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gzip
import importlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

# The package re-exports the function ``equilibrium`` under the module's
# name, so modules are taken from the import system, not as attributes.
cli = importlib.import_module("fbmecon.cli")
eq = importlib.import_module("fbmecon.equilibrium")
params = importlib.import_module("fbmecon.params")

REF_DIR = Path(__file__).resolve().parent / "ref"

# Sweep grid: 101 y values x 5 protection levels x 3 memory levels.  The
# extreme memory levels |Lambda| = 1e4 are left out: at this commit one such
# row aborts the whole sweep with a traceback instead of failing cleanly.
SWEEP_Y = 101
SWEEP_GRID = {"y_start": 0.0, "y_stop": 1.0, "y_step": 0.01,
              "p_list": "1,0.9,0.6,0.3,0", "Lambda_list": "-5,0,5"}
# A sweep field may differ from the reference by FIELD_RTOL * (1 + |ref|);
# rounding-level changes of the root solve (about 5e-13) pass.
FIELD_RTOL = 1e-10

RECOVER_N = 40000
RECOVER_REFINE = 4
RECOVER_STATES = 250
ROUNDTRIP_TOL = 1e-10
KERNEL_RTOL = 1e-9  # recovered memory vs a direct kernel sum, times (1 + |memory|)

CONV_N_FINE = 32768
CONV_FACTORS = "8,16,32"
CONV_SEEDS = 6
# The convergence study's base seed comes from one of CONV_SLOTS recorded
# slots, so every workload seed has a reference to compare with.
CONV_SLOTS = 16
CONV_RTOL = 1e-6
CONV_MIN_RATE = 0.15


def conv_base_seed(seed: int) -> int:
    """First Brownian seed of the convergence study for a workload seed."""
    return CONV_SEEDS * (seed % CONV_SLOTS)


class Stopwatch:
    """Wall and process CPU time (all threads) of the timed sections."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def timed(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c


class Outcome:
    """Attempted and failed operations of one iteration, with messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def run_cli(argv: list[str], watch: Stopwatch, outcome: Outcome,
            latencies: list[float] | None = None) -> str:
    """One in-process CLI call; returns its stdout.  A nonzero exit fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), watch.timed():
        t0 = time.perf_counter()
        code = cli.main(argv)
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
    outcome.op(code == 0, f"fbmecon {' '.join(argv)} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def write_config(path: Path, extra: dict) -> None:
    """Flat key = value config: BASE_PARAMS plus grid or sweep settings."""
    base = params.BASE_PARAMS
    lines = [f"{f.name} = {getattr(base, f.name)!r}" for f in dataclasses.fields(base)]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


class Sweep:
    """`sweep --figures` over 1515 states; the seed does not change the grid."""

    name = "sweep"

    def __init__(self, workdir: Path, seed: int):
        self.cfg = workdir / "sweep.cfg"
        write_config(self.cfg, SWEEP_GRID)
        self.out = workdir / "sweep.csv"
        self.fig_dir = workdir / "figures"
        self.items = SWEEP_Y * 5 * 3  # states

    def iterate(self, watch: Stopwatch, outcome: Outcome, latencies: list[float]) -> None:
        run_cli(["--config", str(self.cfg), "--out", str(self.out), "sweep",
                 "--figures", str(self.fig_dir)], watch, outcome, latencies)

    def check(self, outcome: Outcome) -> None:
        rows = read_csv(self.out)
        with gzip.open(REF_DIR / "sweep.csv.gz", "rt", encoding="utf-8", newline="") as fh:
            ref = list(csv.DictReader(fh))
        outcome.op(len(rows) == len(ref) == self.items,
                   f"sweep: {len(rows)} rows, reference {len(ref)}, expected {self.items}")
        fields = [k for k in ref[0] if k not in ("y", "p", "Lambda", "region", "exists")]
        for row, want in zip(rows, ref):
            where = f"sweep row y={row['y']} p={row['p']} Lambda={row['Lambda']}"
            key_ok = all(row[k] == want[k] for k in ("y", "p", "Lambda", "region", "exists"))
            ok = outcome.op(key_ok, f"{where}: region {row['region']}, reference {want['region']}")
            if ok and row["exists"] == "1":
                outcome.op(_close(float(row["n_C"]) + float(row["n_M"]), 1.0, 1e-12),
                           f"{where}: n_C + n_M != 1")
                bad = [k for k in fields if not _close(float(row[k]), float(want[k]), FIELD_RTOL)]
                outcome.op(not bad, f"{where}: fields differ from reference: {bad}")
        self._check_figures(rows, outcome)

    def _check_figures(self, rows: list[dict], outcome: Outcome) -> None:
        """Every figure cell equals its sweep row's field, byte for byte."""
        by_key = {(r["p"], r["Lambda"], r["y"]): r for r in rows}
        manifest = json.loads((self.fig_dir / "figures_manifest.json").read_text(encoding="utf-8"))
        outcome.op(len(manifest) == 12, f"figures: {len(manifest)} figures in manifest, expected 12")
        for fig in manifest:
            table = read_csv(self.fig_dir / fig["file"])
            mismatched = 0
            for line in table:
                for col, pos in fig["columns"].items():
                    p = pos["panel"] if fig["panel_variable"] == "p" else pos["series"]
                    lam = pos["series"] if fig["panel_variable"] == "p" else pos["panel"]
                    row = by_key.get((_fmt(p), _fmt(lam), line["y"]))
                    want = "" if row is None or row["exists"] != "1" else row[fig["quantity"]]
                    mismatched += line[col] != want
            outcome.op(len(table) == SWEEP_Y and mismatched == 0,
                       f"figures: {fig['file']}: {len(table)} rows, {mismatched} cells differ from the sweep")


class Recover:
    """Observe, recover, price: simulate, estimate, then price 250 recovered states."""

    name = "recover"

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.cfg = workdir / "recover.cfg"
        write_config(self.cfg, {"T": 1.0, "N": RECOVER_N, "refine": RECOVER_REFINE})
        self.paths_csv = workdir / "paths.csv"
        self.memory_csv = workdir / "memory.csv"
        rng = np.random.default_rng(seed)
        self.nodes = rng.integers(1, RECOVER_N + 1, size=RECOVER_STATES)
        self.ys = rng.uniform(0.01, 0.99, size=RECOVER_STATES)
        self.items = RECOVER_N  # recovered samples
        self.summary = ""
        self.results: list = []

    def iterate(self, watch: Stopwatch, outcome: Outcome, latencies: list[float]) -> None:
        run_cli(["--config", str(self.cfg), "--seed", str(self.seed), "--out",
                 str(self.paths_csv), "simulate"], watch, outcome)
        self.summary = run_cli(["--config", str(self.cfg), "--out", str(self.memory_csv),
                                "estimate", str(self.paths_csv), "--summary"], watch, outcome)
        mem = np.loadtxt(self.memory_csv, delimiter=",", skiprows=2, usecols=(2, 3))
        Lam, lam = mem[self.nodes - 1, 0], mem[self.nodes - 1, 1]
        base = params.BASE_PARAMS
        self.results = []
        for y, L, l in zip(self.ys.tolist(), Lam.tolist(), lam.tolist()):
            try:
                with watch.timed():
                    t0 = time.perf_counter()
                    res = eq.equilibrium(eq.MarketState(y, L, l), base)
                    latencies.append(time.perf_counter() - t0)
            except Exception as exc:  # a failed state is counted, the run goes on
                outcome.op(False, f"recover: equilibrium at y={y} Lambda={L} lambda={l}: {exc!r}")
                continue
            self.results.append(res)

    def check(self, outcome: Outcome) -> None:
        paths = np.loadtxt(self.paths_csv, delimiter=",", skiprows=2, usecols=(5,))
        # row m - 1 holds node m = 1..N: dw_hat on (t_{m-1}, t_m], Lambda_hat, lambda_hat
        mem = np.loadtxt(self.memory_csv, delimiter=",", skiprows=2, usecols=(1, 2, 3))
        z0 = float(read_csv(self.paths_csv, limit=1)[0]["Z"])
        Z = np.concatenate(([z0], paths))
        dw_hat, Lam = mem[:, 0], np.concatenate(([0.0], mem[:-1, 1]))
        p = params.BASE_PARAMS
        h = p.H - 0.5
        root = math.sqrt(2.0 * p.H)
        dt = 1.0 / RECOVER_N
        # forward Euler output recursion driven by the recovered increments
        a0 = (p.mu_D - p.H * p.epsilon ** (2.0 * h) * p.sigma_D**2) * dt
        vol = root * p.epsilon**h * p.sigma_D
        Z_fwd = z0 + np.concatenate(([0.0], np.cumsum(a0 + p.sigma_D * dt * Lam + vol * dw_hat)))
        err = float(np.max(np.abs(Z_fwd - Z))) if len(Z) == len(Z_fwd) else math.inf
        outcome.op(err <= ROUNDTRIP_TOL, f"recover: forward recursion misses Z by {err:.3g}")
        # the recovered memory at the priced nodes is the kernel sum of dw_hat
        lag = dt * np.arange(1, RECOVER_N + 1) + p.epsilon
        kernels = (root * h * lag ** (h - 1.0), root * h * (h - 1.0) * lag ** (h - 2.0))
        for m in np.unique(self.nodes).tolist():
            for col, (name, kern) in enumerate(zip(("Lambda_hat", "lambda_hat"), kernels), start=1):
                got, direct = float(mem[m - 1, col]), float(kern[m - 1::-1] @ dw_hat[:m])
                outcome.op(_close(got, direct, KERNEL_RTOL),
                           f"recover: {name} at node {m} is {got!r}, kernel sum {direct!r}")
        terminal = float(mem[-1, 1])
        outcome.op(f"Lambda_hat_T = {terminal:.17g}" in self.summary,
                   f"recover: summary {self.summary!r} does not report Lambda_hat_T = {terminal!r}")
        for res in self.results:
            if res.exists:
                outcome.op(_close(res.n_C + res.n_M, 1.0, 1e-12),
                           f"recover: n_C + n_M != 1 at y={res.state.y}")


class Convergence:
    """`convergence --n-fine 32768 --factors 8,16,32 --seeds 6`."""

    name = "convergence"

    def __init__(self, workdir: Path, seed: int):
        self.cfg = workdir / "convergence.cfg"
        write_config(self.cfg, {"T": 1.0})
        self.out = workdir / "convergence.csv"
        self.slot = seed % CONV_SLOTS
        self.base_seed = conv_base_seed(seed)
        self.items = CONV_SEEDS * CONV_N_FINE  # seeds x fine steps
        self.stdout = ""

    def iterate(self, watch: Stopwatch, outcome: Outcome, latencies: list[float]) -> None:
        self.stdout = run_cli(
            ["--config", str(self.cfg), "--seed", str(self.base_seed), "--out", str(self.out),
             "convergence", "--n-fine", str(CONV_N_FINE), "--factors", CONV_FACTORS,
             "--seeds", str(CONV_SEEDS)], watch, outcome, latencies)

    def check(self, outcome: Outcome) -> None:
        rows = read_csv(self.out)
        ref = json.loads((REF_DIR / "convergence.json").read_text(encoding="utf-8"))
        want = ref["slots"][str(self.slot)]
        for col in ("median_err_Lambda", "median_err_lambda"):
            got = [float(r[col]) for r in rows]
            outcome.op(all(a > b for a, b in zip(got, got[1:])),
                       f"convergence: {col} not decreasing: {got}")
            outcome.op(len(got) == len(want[col])
                       and all(abs(a - b) <= CONV_RTOL * abs(b) for a, b in zip(got, want[col])),
                       f"convergence: {col} {got} differs from reference {want[col]}")
        rate = fitted_min_rate(self.stdout)
        outcome.op(rate >= CONV_MIN_RATE, f"convergence: fitted rate {rate} below {CONV_MIN_RATE}")


def fitted_min_rate(stdout: str) -> float:
    # "fitted rate: Lambda 0.7, lambda 0.6 (min 0.6)"
    try:
        return float(stdout.rsplit("(min", 1)[1].split(")")[0])
    except (IndexError, ValueError):
        return -math.inf


def read_csv(path: Path, limit: int | None = None) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [r for _, r in zip(range(limit), reader)] if limit else list(reader)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


WORKLOADS = {w.name: w for w in (Sweep, Recover, Convergence)}
