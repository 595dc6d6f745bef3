import contextlib
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmecon import BASE_PARAMS
from fbmecon.cli import entry, main

PARAM_NAMES = ("mu_D", "sigma_D", "H", "epsilon", "gamma_C", "gamma_M", "alpha_C",
               "alpha_M", "rho", "k", "p", "l_C", "l_M", "beta1", "beta2")


def write_cfg(path, overrides=None, extra=None):
    vals = {n: getattr(BASE_PARAMS, n) for n in PARAM_NAMES}
    vals.update(overrides or {})
    vals.update(extra or {})
    body = "# test configuration\n" + "\n".join(f"{k} = {v!r}" for k, v in vals.items())
    path.write_text(body + "\n", encoding="utf-8")
    return path


@pytest.fixture
def cfg(tmp_path):
    return write_cfg(tmp_path / "base.cfg")


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_module(module, *argv):
    """Run ``python -m module argv...`` on the sources of this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_paths(cfg, tmp_path, capsys):
    out = tmp_path / "paths.csv"
    rc = main(["--config", str(cfg), "--out", str(out), "--seed", "7", "simulate"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,dw,w,Lambda,lambda,Z,D_hat"
    assert len(lines) == 1000 + 2
    err = capsys.readouterr().err
    assert "simulate" in err  # stage log on stderr


def test_simulate_deterministic(cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "--out", str(a), "--seed", "7", "simulate"]) == 0
    assert main(["--config", str(cfg), "--out", str(b), "--seed", "7", "simulate"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_half_hurst_zero_memory(tmp_path):
    cfg = write_cfg(tmp_path / "h.cfg", {"H": 0.5}, {"N": 50})
    out = tmp_path / "paths.csv"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    rows = read_rows(out)
    assert all(float(r["Lambda"]) == 0.0 for r in rows)


def test_simulate_unwritable_output_is_runtime_failure(cfg, tmp_path):
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "no" / "dir" / "x.csv"), "simulate"])
    assert rc == 2


def assert_one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == 1 and lines[-1] == errors[0]
    assert not any("Traceback" in line for line in lines)
    return errors[0]


def test_simulate_unallocatable_grid_is_runtime_failure(tmp_path, capsys):
    # 1e15 fine steps: numpy refuses the 7 PiB request up front, allocating nothing
    cfg = write_cfg(tmp_path / "big.cfg", extra={"N": 1000, "refine": 10**12})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x.csv"), "simulate"]) == 2
    assert "allocate" in assert_one_error_line(capsys.readouterr().err)


def test_unexpected_exception_is_runtime_failure(cfg, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("solver blew up\non two lines")

    monkeypatch.setattr(importlib.import_module("fbmecon.cli"), "simulate_bundle", fail)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x.csv"), "simulate"]) == 2
    assert assert_one_error_line(capsys.readouterr().err) == "error: solver blew up on two lines"


# ---------------------------------------------------------------------------
# estimate


def test_estimate_roundtrip_from_simulate(cfg, tmp_path):
    paths = tmp_path / "paths.csv"
    mem = tmp_path / "memory.csv"
    assert main(["--config", str(cfg), "--out", str(paths), "--seed", "3", "simulate"]) == 0
    assert main(["--config", str(cfg), "--out", str(mem), "estimate", str(paths)]) == 0
    lines = mem.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,dw_hat,Lambda_hat,lambda_hat"
    assert len(lines) == 1000 + 2
    rows = read_rows(mem)
    assert rows[0]["dw_hat"] == ""
    # recovered memory tracks the simulated one (refine-64 oracle vs scheme)
    sim = read_rows(paths)
    lam_sim = np.array([float(r["Lambda"]) for r in sim])
    lam_est = np.array([float(r["Lambda_hat"]) for r in rows])
    assert np.max(np.abs(lam_sim - lam_est)) < 0.05


def classify_via_cli(tmp_path, cfg_path, z_fn, name):
    t = np.linspace(0.0, 1.0, 1001)
    z = z_fn(t)
    data = tmp_path / f"{name}.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "Z"])
        for ti, zi in zip(t, z):
            w.writerow([f"{ti:.17g}", f"{zi:.17g}"])
    out = tmp_path / f"{name}_mem.csv"
    rc = main(["--config", str(cfg_path), "--out", str(out), "estimate", str(data), "--summary"])
    assert rc == 0
    return data


def test_estimate_summary_classification(tmp_path, capsys):
    cfg_good = write_cfg(tmp_path / "good.cfg", {"H": 0.65, "epsilon": 0.1})
    classify_via_cli(tmp_path, cfg_good, lambda t: 0.015 + 0.02 * (t - 0.5), "z1")
    assert "memory = good" in capsys.readouterr().out

    cfg_bad = write_cfg(tmp_path / "bad.cfg", {"H": 0.35, "epsilon": 1e-5})
    classify_via_cli(tmp_path, cfg_bad, lambda t: 0.015 + 0.02 * (t - 0.5), "z1b")
    captured = capsys.readouterr()
    assert "memory = bad" in captured.out
    assert "warning" in captured.err  # epsilon advisory

    cfg_none = write_cfg(tmp_path / "none.cfg", {"H": 0.5})
    classify_via_cli(tmp_path, cfg_none, lambda t: np.full_like(t, 0.015), "z3")
    assert "memory = none" in capsys.readouterr().out


def test_estimate_rejects_malformed_row(cfg, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("t,Z\n0,0.0\n0.001,oops\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "estimate", str(data)])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_estimate_rejects_nonuniform_grid(cfg, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("t,Z\n0,0.0\n0.001,0.1\n0.005,0.2\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "estimate", str(data)])
    assert rc == 1
    assert "non-uniform" in capsys.readouterr().err


@pytest.mark.parametrize("at", [0, 1, 2])
def test_estimate_rejects_nan_time(cfg, tmp_path, capsys, at):
    times = ["0", "0.001", "0.002"]
    times[at] = "nan"
    data = tmp_path / "times.csv"
    data.write_text("t,Z\n" + "".join(f"{t},{0.1 * i}\n" for i, t in enumerate(times)),
                    encoding="utf-8")
    rc = main(["--config", str(cfg), "estimate", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "non-uniform grid at line 3: spacing" in err and "nan" in err


@pytest.mark.parametrize("N", [1024, 2048])
def test_estimate_overflowing_recovery_is_runtime_failure(tmp_path, N):
    # the recovery overflows at H = 0.98, epsilon = 1e-5 on these grids: exit 2
    # with one error line, no memory CSV and no numpy warning text
    cfg = write_cfg(tmp_path / "steep.cfg", {"H": 0.98, "epsilon": 1e-5}, {"N": N, "refine": 4})
    data, out = tmp_path / "paths.csv", tmp_path / "memory.csv"
    assert main(["--config", str(cfg), "--seed", "0", "--out", str(data), "simulate"]) == 0
    proc = run_module("fbmecon", "--config", str(cfg), "--out", str(out), "estimate", str(data),
                      "--summary")
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert "Warning" not in proc.stderr, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"error: recovered increments are not finite at H = 0.98, epsilon = 1e-05, N = {N}: "
        "use a finer grid or a larger epsilon")


def test_estimate_ill_conditioned_recovery_is_runtime_failure(tmp_path):
    # H = 0.9, epsilon = 1e-5 on 256 steps: the solve stays finite but is
    # ill-conditioned, so the recovery exits 2 as an overflowing one does
    cfg = write_cfg(tmp_path / "steep.cfg", {"H": 0.9, "epsilon": 1e-5}, {"N": 256, "refine": 4})
    data, out = tmp_path / "paths.csv", tmp_path / "memory.csv"
    assert main(["--config", str(cfg), "--seed", "0", "--out", str(data), "simulate"]) == 0
    proc = run_module("fbmecon", "--config", str(cfg), "--out", str(out), "estimate", str(data),
                      "--summary")
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert "Warning" not in proc.stderr, proc.stderr
    lines = proc.stderr.splitlines()
    line = lines[-1]
    assert [x for x in lines if x.startswith("error:")] == [line]
    assert line.startswith("error: recovery is ill-conditioned (kappa_1 = ") and line.endswith(
        ") at H = 0.9, epsilon = 1e-05, N = 256: use a finer grid or a larger epsilon"), line


def test_estimate_infinite_last_time_prints_one_line(cfg, tmp_path):
    # inf - inf in the spacing test must not leak a numpy warning to stderr
    data = tmp_path / "times.csv"
    data.write_text("t,Z\n0,1\n1,2\ninf,3\n", encoding="utf-8")
    proc = run_module("fbmecon", "--config", str(cfg), "estimate", str(data))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {data}: non-uniform grid at line 4: spacing inf vs dt inf"], proc.stderr


@pytest.fixture(scope="module")
def small_paths(tmp_path_factory):
    """Config, bytes of a 16-step simulate output, and a path to corrupt them into."""
    d = tmp_path_factory.mktemp("corrupt")
    cfg = write_cfg(d / "small.cfg", extra={"N": 16, "refine": 2})
    path = d / "paths.csv"
    assert main(["--config", str(cfg), "--out", str(path), "--seed", "3", "simulate"]) == 0
    return cfg, path.read_bytes(), d / "corrupt.csv"


def estimate_quietly(cfg, path):
    """Exit code and stderr of ``estimate`` on path, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--config", str(cfg), "estimate", str(path)])
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_estimate_truncated_csv_fails_cleanly(small_paths, data):
    cfg, body, path = small_paths
    cut = body[: data.draw(st.integers(0, len(body)), label="cut")]
    path.write_bytes(cut)
    rc, err = estimate_quietly(cfg, path)
    assert rc in (0, 1), err
    assert "Traceback" not in err
    if not cut.endswith(b"\n"):  # cut inside a row: its shorter cells may still parse
        assert rc == 1, err


@settings(max_examples=60, deadline=None)
@given(data=st.data(), column=st.sampled_from(["t", "Z"]),
       junk=st.text(alphabet="xyz#!?;: ", max_size=6))
def test_estimate_junk_cell_names_its_line(small_paths, data, column, junk):
    # no digit and none of the letters of nan/inf, so float() rejects the cell
    cfg, body, path = small_paths
    lines = body.decode("utf-8").splitlines()
    at = lines[0].split(",").index(column)
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    cells = lines[lineno - 1].split(",")
    cells[at] = junk
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, err = estimate_quietly(cfg, path)
    assert rc == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f": line {lineno}: malformed row" in errors[0], err


# ---------------------------------------------------------------------------
# equilibrium


def test_equilibrium_full_protection(cfg, tmp_path, capsys):
    out = tmp_path / "eq.csv"
    rc = main(["--config", str(cfg), "--out", str(out),
               "equilibrium", "--y", "0.5", "--p", "1"])
    assert rc == 0
    row = read_rows(out)[0]
    assert row["region"] == "2"
    assert float(row["x_star"]) == 0.0
    assert row["exists"] == "1"
    assert "region = 2" in capsys.readouterr().out


def test_equilibrium_boundary_state(cfg, capsys):
    rc = main(["--config", str(cfg), "equilibrium", "--y", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "boundary" in out
    assert "n_C      = 1" in out.replace("  ", " ").replace("n_C  ", "n_C ") or "n_C" in out


def test_equilibrium_boundary_without_interior_equilibrium_nearby(cfg, capsys):
    # no interior state near y = 0 has an equilibrium at Lambda = -13, yet the
    # boundary is an explicit limit and prices
    assert main(["--config", str(cfg), "equilibrium", "--y", "0", "--Lambda", "-13"]) == 0
    assert "region = boundary" in capsys.readouterr().out


def test_equilibrium_nonexistence_reports_tables(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "noeq.cfg",
        {"mu_D": 0.015, "sigma_D": 0.01, "H": 0.5, "gamma_C": 3.0, "gamma_M": 3.0,
         "alpha_C": 1.0, "alpha_M": 1.0, "rho": 0.01, "k": 2.0, "p": 0.5,
         "l_C": 0.0, "l_M": 0.0},
    )
    out = tmp_path / "eq.csv"
    rc = main(["--config", str(cfg), "--out", str(out), "equilibrium", "--y", "0.5"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "DOES NOT EXIST" in captured
    assert "region-1 prices" in captured and "region-4 prices" in captured
    row = read_rows(out)[0]
    assert row["exists"] == "0" and row["region"] == "0"
    assert row["r"] == ""


@pytest.mark.parametrize("level", ["1e4", "-1e4"])
def test_equilibrium_extreme_memory_is_runtime_failure(cfg, capsys, level):
    assert main(["--config", str(cfg), "equilibrium", "--y", "0.5", f"--Lambda={level}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("error: ") and "Lambda=" in err[-1]
    assert not any("Traceback" in line for line in err)


def test_equilibrium_validates_flags(cfg, capsys):
    assert main(["--config", str(cfg), "equilibrium", "--y", "1.5"]) == 1
    assert main(["--config", str(cfg), "equilibrium", "--y", "0.5", "--p", "2"]) == 1


# ---------------------------------------------------------------------------
# any generated configuration

# junk, non-finite and out-of-range values for any key
ODD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "-1e-300", "abc", "", "1,2"])


def mostly(valid, odd=ODD):
    """``valid`` about four times in five, else ``odd``."""
    return st.sampled_from([False] * 4 + [True]).flatmap(lambda k: odd if k else valid)


def near(base):
    """A value within 10% of ``base``, else a wild or an odd one."""
    return mostly(st.floats(0.9, 1.1).map(lambda f: repr(base * f)),
                  st.one_of(st.floats(-10, 10).map(repr), ODD))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["simulate", "estimate", "equilibrium"]))
def test_cli_never_exits_with_a_traceback(small_paths, data, command):
    cfg, body, path = small_paths
    vals = {n: data.draw(near(getattr(BASE_PARAMS, n)), label=n)
            for n in data.draw(st.sets(st.sampled_from(PARAM_NAMES), max_size=3), label="keys")}
    # grid sizes capped so that no draw allocates much: N <= 2^12, refine <= 8
    vals["N"] = data.draw(mostly(st.integers(1, 2**12).map(str)), label="N")
    vals["refine"] = data.draw(mostly(st.integers(1, 8).map(str)), label="refine")
    vals["T"] = data.draw(near(1.0), label="T")
    vals["D0"] = data.draw(near(1.0), label="D0")
    vals["seed"] = data.draw(mostly(st.integers(0, 2**64).map(str)), label="seed")
    cfg_path = path.parent / "generated.cfg"
    cfg_path.write_text(
        "".join(f"{k} = {v}\n" for k, v in {**{n: repr(getattr(BASE_PARAMS, n))
                                              for n in PARAM_NAMES}, **vals}.items()),
        encoding="utf-8")
    argv = ["--config", str(cfg_path), "--out", str(path.parent / "generated.csv"), command]
    if command == "estimate":
        path.write_bytes(body)
        argv += [str(path)] + (["--summary"] if data.draw(st.booleans()) else [])
    elif command == "equilibrium":
        for flag, lo, hi in (("--y", 0, 1), ("--p", 0, 1), ("--Lambda", -60, 60), ("--lambda", -5, 5)):
            if flag == "--y" or data.draw(st.booleans()):
                argv.append(f"{flag}=" + data.draw(mostly(st.floats(lo, hi).map(repr), st.one_of(
                    ODD, st.sampled_from(["1e4", "-1e4", "700", "1e-9", "-0.5", "1.5"]))), label=flag))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert rc in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if rc == 0:
        assert not errors, lines
    else:
        assert len(errors) == 1 and lines[-1] == errors[0], lines


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture
def small_sweep_cfg(tmp_path):
    return write_cfg(tmp_path / "sweep.cfg", extra={"y_step": 0.1})


def test_sweep_row_count_default_grid(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    rows = read_rows(out)
    assert len(rows) == 101 * 3 * 3
    assert rows[0]["y"] == "0" and rows[-1]["y"] == "1"


def test_sweep_figures(small_sweep_cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    figs = tmp_path / "figs"
    assert main(["--config", str(small_sweep_cfg), "--out", str(out),
                 "sweep", "--figures", str(figs)]) == 0
    names = sorted(p.name for p in figs.iterdir())
    assert "figures_manifest.json" in names
    assert sum(n.startswith("fig") and n.endswith(".csv") for n in names) == 12
    manifest = json.loads((figs / "figures_manifest.json").read_text(encoding="utf-8"))
    assert {m["figure"] for m in manifest} == set(range(3, 15))
    fig5 = next(m for m in manifest if m["figure"] == 5)
    assert fig5["quantity"] == "x_star"
    with open(figs / fig5["file"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    col = "Lambda=0;p=0.6"
    assert col in rows[0]


def test_sweep_kink_and_negative_rates(small_sweep_cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(small_sweep_cfg), "--out", str(out), "sweep"]) == 0
    rows = read_rows(out)
    # x* kink for p=0.6, Lambda=0: cost branch left of the kink, cap right
    sel = [r for r in rows if r["p"] == "0.59999999999999998" or float(r["p"]) == 0.6]
    sel = [r for r in sel if float(r["Lambda"]) == 0.0 and r["region"] in ("1", "2")]
    regions = [r["region"] for r in sorted(sel, key=lambda r: float(r["y"]))]
    flips = sum(a != b for a, b in zip(regions, regions[1:]))
    assert flips == 1 and regions[0] == "2" and regions[-1] == "1"
    # bad-memory rows: the interest rate is negative along the whole line
    bad = [r for r in rows if float(r["Lambda"]) == -5.0 and r["exists"] == "1"]
    assert bad and all(float(r["r"]) < 0.0 for r in bad)


def test_sweep_deterministic(small_sweep_cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(small_sweep_cfg), "--out", str(a), "sweep"]) == 0
    assert main(["--config", str(small_sweep_cfg), "--out", str(b), "sweep"]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# convergence


def test_convergence_small_run(cfg, tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(["--config", str(cfg), "--out", str(out), "convergence",
               "--factors", "8,16", "--seeds", "3", "--n-fine", "1024"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dt,median_err_Lambda,median_err_lambda"
    assert len(lines) == 3
    summary = capsys.readouterr().out
    assert "fitted rate" in summary
    rate = float(summary.split("(min")[1].rstrip(")\n"))
    assert rate >= 0.15


def test_convergence_rejects_single_factor(cfg, capsys):
    rc = main(["--config", str(cfg), "convergence", "--factors", "1"])
    assert rc == 1
    assert "two factors" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing


def test_missing_config_is_validation_failure(capsys):
    assert main(["simulate"]) == 1
    assert "config" in capsys.readouterr().err


def test_bad_config_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", {"gamma_C": 0.5})
    assert main(["--config", str(cfg), "equilibrium", "--y", "0.5"]) == 1
    assert "gamma_C" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1


# (raw lines appended to the config {tmp}/run.cfg, argv, the error line); {tmp}
# is the test's temporary directory, where one.csv holds one t,Z data row
RUN = ["--config", "{tmp}/run.cfg"]
SWEEP = RUN + ["--out", "{tmp}/s.csv", "sweep"]
CLI_ERRORS = [
    pytest.param("p_list = 1,x", SWEEP,
                 "config key p_list is not a comma-separated number list: '1,x'", id="p_list-junk"),
    pytest.param("p_list = ,", SWEEP, "config key p_list is empty", id="p_list-empty"),
    pytest.param("y_step = 0", SWEEP, "y_step must be positive", id="y_step-zero"),
    pytest.param("y_start = 1\ny_stop = 0", SWEEP, "empty y grid", id="y-grid-empty"),
    # a y grid that cannot be built names its key, or the grid for an overflowing point count
    pytest.param("y_stop = inf", SWEEP, "config key y_stop must be finite, got inf", id="y_stop-inf"),
    pytest.param("y_start = -inf", SWEEP, "config key y_start must be finite, got -inf", id="y_start-inf"),
    pytest.param("y_start = nan", SWEEP, "config key y_start must be finite, got nan", id="y_start-nan"),
    pytest.param("y_step = nan", SWEEP, "config key y_step must be finite, got nan", id="y_step-nan"),
    pytest.param("y_step = inf", SWEEP, "config key y_step must be finite, got inf", id="y_step-inf"),
    pytest.param("y_stop = 1e308\ny_step = 0.05", SWEEP,
                 "y grid has too many points: inf", id="y-grid-overflow"),
    pytest.param("N = 1.5", SWEEP, "config key N is not a number: '1.5'", id="N-not-int"),
    # lambda is read into the attribute lam, and before the level lists
    pytest.param("lambda = x", SWEEP, "config key lambda is not a number: 'x'", id="lambda-junk"),
    pytest.param("lambda = x\np_list = 1,x", SWEEP, "config key lambda is not a number: 'x'",
                 id="lambda-before-p_list"),
    pytest.param("T = 0", SWEEP, "grid needs T > 0 and N >= 1", id="T-zero"),
    pytest.param("", ["simulate"], "--config PATH is required", id="config-flag-missing"),
    pytest.param("", ["--config", "{tmp}/none.cfg", "simulate"],
                 "cannot read config: [Errno 2] No such file or directory: '{tmp}/none.cfg'",
                 id="config-missing"),
    pytest.param("", RUN + ["simulate"], "--out PATH is required for this command", id="out-missing"),
    pytest.param("", RUN + ["estimate", ""], "estimate needs an input CSV with columns t,Z",
                 id="input-empty"),
    pytest.param("", RUN + ["estimate", "{tmp}/none.csv"],
                 "cannot read input: [Errno 2] No such file or directory: '{tmp}/none.csv'",
                 id="input-missing"),
    pytest.param("", RUN + ["estimate", "{tmp}/one.csv"],
                 "{tmp}/one.csv: need at least two samples, got 1", id="input-one-row"),
    pytest.param("", RUN + ["convergence", "--factors", "8,x"],
                 "--factors is not a comma-separated integer list: '8,x'", id="factors-junk"),
    pytest.param("", RUN + ["convergence", "--factors", "2.5,4"],
                 "--factors is not a comma-separated integer list: '2.5,4'", id="factors-float"),
]


@pytest.mark.parametrize("lines,argv,message", CLI_ERRORS)
def test_validation_error_lines(tmp_path, capsys, lines, argv, message):
    cfg = write_cfg(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text(encoding="utf-8") + lines + "\n", encoding="utf-8")
    (tmp_path / "one.csv").write_text("t,Z\n0,0\n", encoding="utf-8")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
    expected = "error: " + message.replace("{tmp}", str(tmp_path))
    assert assert_one_error_line(capsys.readouterr().err) == expected


def test_console_entry_point():
    # the script pyproject declares resolves to cli.entry, which python -m
    # fbmecon runs; the help text lists the subcommands
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^fbmecon\s*=\s*"([\w.]+):(\w+)"', pyproject, re.M)
    assert target is not None
    module, func = target.groups()
    assert getattr(importlib.import_module(module), func) is entry
    proc = run_module("fbmecon", "--help")
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "convergence" in proc.stdout


def test_cli_module_runs_as_script():
    # python -m fbmecon.cli runs the same entry point as python -m fbmecon
    proc = run_module("fbmecon.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fbmecon")
    proc = run_module("fbmecon.cli")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
