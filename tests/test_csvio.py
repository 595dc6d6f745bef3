"""The block table writers and the t,Z reader against the per-row csv oracles."""

import contextlib
import csv
import importlib
import io
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_oracle
from fbmecon import (
    BASE_PARAMS,
    MarketState,
    MemoryEstimate,
    PathBundle,
    SweepRow,
    TimeGrid,
    convergence_study,
    equilibrium,
    estimate_memory,
    simulate_bundle,
    sweep,
)
from fbmecon import cli, csvio
from fbmecon.cli import RunConfig, main
from fbmecon.csvio import (
    _BLOCK,
    read_t_z_csv,
    write_convergence_csv,
    write_memory_csv,
    write_path_csv,
    write_sweep_csv,
)
from fbmecon.equilibrium import _price_grid
from fbmecon.params import load_config
from test_equilibrium import NOEQ  # the worked scenario with no equilibrium

# the package re-exports the function equilibrium under the module's name
equilibrium_module = importlib.import_module("fbmecon.equilibrium")


def same_bytes(tmp_path, write, oracle, obj) -> bool:
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new, obj)
    oracle(old, obj)
    return new.read_bytes() == old.read_bytes()


# node counts N + 1: one row, one row short of a block, one full block, a
# block plus one row, a block plus a partial one, and two blocks plus one row
@pytest.mark.parametrize("N", [1, _BLOCK - 2, _BLOCK - 1, _BLOCK, 5000, 2 * _BLOCK])
def test_path_and_memory_csv_match_oracle(tmp_path, N):
    bundle = simulate_bundle(TimeGrid(1.0, N), BASE_PARAMS, seed=3, refine=1)
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = estimate_memory(bundle.Z, bundle.grid, BASE_PARAMS)
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                    2.2250738585072014e-308, 1e308, -1e308, np.finfo(float).max, 0.1, -1 / 3])


@pytest.mark.parametrize("N", [1, 12, _BLOCK + 3])
def test_special_values_match_oracle(tmp_path, N):
    def column(n, shift):  # the special values, cycled and shifted per column
        return np.roll(np.resize(SPECIAL, n), shift)

    grid = TimeGrid(1.0, N)
    bundle = PathBundle(grid=grid, seed=0, dw=column(N, 0), w=column(N + 1, 1),
                        Lambda=column(N + 1, 2), lambda_small=column(N + 1, 3),
                        Z=column(N + 1, 4), D_hat=column(N + 1, 5))
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = MemoryEstimate(grid=grid, dw_hat=column(N, 6), Lambda_hat=column(N + 1, 7),
                         lambda_hat=column(N + 1, 8))
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


def test_memoryless_csv_matches_oracle(tmp_path):
    half = replace(BASE_PARAMS, H=0.5)
    bundle = simulate_bundle(TimeGrid(1.0, 50), half, seed=3, refine=2)
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = estimate_memory(bundle.Z, bundle.grid, half)
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


# Sweep grids with every kind of row: boundary rows at y in {0, 1}, failed rows
# at |Lambda| = 1e4, nonexistent rows (the NOEQ scenario at its p = 0.5), a p
# that fails validate (2), duplicates and -0.0 in both lists, and both lists
# in orders other than the gallery panel orders (0, -5, 5) and (1, 0.9, 0.6)
SWEEP_GRID = {"y_start": 0.0, "y_stop": 1.0, "y_step": 0.25,
              "p_list": "0.5,2,0.6,1,-0.0,0.6,0.9", "Lambda_list": "5,-0.0,1e4,0,-1e4,5,-5"}


@pytest.fixture(scope="module")
def sweep_cases(tmp_path_factory):
    """Per calibration, a config over SWEEP_GRID, its RunConfig and the oracle's
    ``sweep()`` rows."""
    cases = []
    for params, lam in ((BASE_PARAMS, 0.0), (NOEQ, 0.2)):
        cfg = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
        cfg.write_text("".join(f"{f.name} = {getattr(params, f.name)!r}\n" for f in fields(params))
                       + "".join(f"{k} = {v}\n" for k, v in {**SWEEP_GRID, "lambda": lam}.items()),
                       encoding="utf-8")
        rc = RunConfig(load_config(cfg))
        rows = sweep(rc.params, rc.y_grid(), rc.p_list, rc.Lambda_list, lam=rc.lam)
        regions = {r.result.region for r in rows if r.result is not None}
        errors = [r.error for r in rows if r.error]
        assert "boundary" in regions and ("nonexistent" in regions) == (params == NOEQ)
        assert any("Lambda=10000" in e for e in errors)
        assert any(e.startswith("invalid parameters") for e in errors)
        cases.append((cfg, rc, rows))
    return cases


def run_sweep(cfg, out, *extra):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["--config", str(cfg), "--out", str(out), "sweep", *extra])
    return rc, err.getvalue().splitlines()


def test_sweep_csv_matches_oracle(sweep_cases, tmp_path):
    for n, (cfg, rc, rows) in enumerate(sweep_cases):
        oracle, new, out = (tmp_path / f"{name}{n}.csv" for name in ("oracle", "new", "cli"))
        csv_oracle.write_sweep_csv(oracle, rows)
        write_sweep_csv(new, _price_grid(rc.params, rc.y_grid(), rc.p_list, rc.Lambda_list, lam=rc.lam))
        assert new.read_bytes() == oracle.read_bytes()
        # the CLI path: the same bytes, one stderr line per failed row in row
        # order carrying its SweepRow.error, and the summary line
        code, err = run_sweep(cfg, out)
        assert code == 0
        assert out.read_bytes() == oracle.read_bytes()
        failed = [r for r in rows if r.error]
        assert [line for line in err if " failed: " in line] == [
            f"sweep: row (y={r.y:g}, p={r.p:g}, Lambda={r.Lambda:g}) failed: {r.error}" for r in failed]
        assert err[-1] == f"sweep: wrote {out} ({len(rows)} rows, {len(failed)} failures)"


def test_figures_match_oracle(sweep_cases, tmp_path):
    for n, (cfg, rc, rows) in enumerate(sweep_cases):
        new, old = tmp_path / f"new{n}", tmp_path / f"old{n}"
        code, err = run_sweep(cfg, tmp_path / "sweep.csv", "--figures", str(new))
        assert code == 0 and err[-1] == f"sweep: wrote figure files to {new}"
        csv_oracle.write_figures(old, rows, rc)
        names = sorted(p.name for p in old.iterdir())
        assert len(names) == 13 and sorted(p.name for p in new.iterdir()) == names
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


@pytest.mark.parametrize("params, y, region", [(BASE_PARAMS, 0.5, 2), (BASE_PARAMS, 0.0, "boundary"),
                                               (NOEQ, 0.5, "nonexistent")])
def test_equilibrium_out_matches_oracle(tmp_path, capsys, params, y, region):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("".join(f"{f.name} = {getattr(params, f.name)!r}\n" for f in fields(params)),
                   encoding="utf-8")
    out, oracle = tmp_path / "eq.csv", tmp_path / "oracle.csv"
    assert main(["--config", str(cfg), "--out", str(out), "equilibrium", "--y", repr(y),
                 "--Lambda", "0.5", "--lambda", "0.1"]) == 0
    printed = capsys.readouterr().out
    res = equilibrium(MarketState(y, 0.5, 0.1), params)
    assert res.region == region
    csv_oracle.write_sweep_csv(oracle, [SweepRow(y, params.p, 0.5, res)])
    assert out.read_bytes() == oracle.read_bytes()
    with contextlib.redirect_stdout(io.StringIO()) as block:
        cli._print_equilibrium_block(res)
    assert printed == block.getvalue()


def test_cli_sweep_builds_no_result_objects(sweep_cases, tmp_path, monkeypatch):
    # the CLI prices, writes and pivots the sweep from the batches' arrays

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI sweep built a per-state object")

    monkeypatch.setattr(equilibrium_module, "EquilibriumResult", refuse)
    monkeypatch.setattr(equilibrium_module, "SweepRow", refuse)
    for n, (cfg, _, _) in enumerate(sweep_cases):
        code, err = run_sweep(cfg, tmp_path / "sweep.csv", "--figures", str(tmp_path / f"figs{n}"))
        assert code == 0, err


def test_convergence_csv_matches_oracle(tmp_path):
    report = convergence_study(BASE_PARAMS, 1.0, 256, [2, 4, 8], seeds=2)
    assert same_bytes(tmp_path, write_convergence_csv, csv_oracle.write_convergence_csv, report)


# ---------------------------------------------------------------------------
# reader


def outcome(read, path):
    """What ``read`` makes of ``path``: the grid and Z bit for bit, or the error."""
    try:
        grid, z = read(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return float(grid.T).hex(), grid.N, z.dtype, z.shape, z.tobytes()


def per_row(path):
    """The package's reader with numpy's parser refusing every file."""
    with mock.patch.object(csvio, "_numpy_columns", side_effect=ValueError):
        return read_t_z_csv(path)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """The text of a 160-step simulate output (twice the 8 KiB chunk in which a
    text file is decoded) and a path to write variants to."""
    d = tmp_path_factory.mktemp("reader")
    write_path_csv(d / "paths.csv", simulate_bundle(TimeGrid(1.0, 160), BASE_PARAMS, seed=3, refine=1))
    return (d / "paths.csv").read_text(encoding="utf-8"), d / "variant.csv"


def test_reader_parses_writer_output_with_numpy(tmp_path):
    path = tmp_path / "paths.csv"
    write_path_csv(path, simulate_bundle(TimeGrid(1.0, 3000), BASE_PARAMS, seed=5, refine=2))
    t, z = csvio._numpy_columns(path, 0, 5)  # the fast path takes the file
    grid, z_read = read_t_z_csv(path)
    assert outcome(read_t_z_csv, path) == outcome(csv_oracle.read_t_z_csv, path)
    assert grid.N == 3000 and z.tobytes() == z_read.tobytes() and z_read.flags.c_contiguous


LIMIT = csv.field_size_limit()
# what a mutation puts in or around a cell, or as a line: each may make numpy's
# parser and the per-row one part ("\udcff" is written as the bare byte 0xff)
AFFIXES = ['"', "\x1c", "\x00", "#", "\udcff", "", " ", "\t", "\x0c", "\xa0", "\x1f", "_", "1_",
           ","]
CELLS = ['"1,2"', "x" * (LIMIT + 1), "0" * LIMIT + "1", "1_0", "", " ", "nan", "-nan", "inf",
         "-Infinity", "1e400", "-1e-400", "-0", "1.", ".5", "+.5e-3", "\u0661", "0x1", "1d5", "abc"]
LINES = ["", "   ", ",,,", ",,,,,,,,", "# comment", "#", "\x1c", '"', "\x0c", "1,2", "\udcff"]


@pytest.mark.parametrize("column", [0, 2, 5])  # t, an ignored column, Z
@pytest.mark.parametrize("cell", ['"1,2"', '"0.5"', "#1", "1\x1c", "1\x00", "\udcff",
                                  "x" * (LIMIT + 1), "0" * LIMIT + "1"])
def test_reader_defers_cells_numpy_may_misread(small_csv, column, cell):
    text, path = small_csv
    lines = text.splitlines()
    cells = lines[-2].split(",")
    cells[column] = cell
    lines[-2] = ",".join(cells)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert outcome(read_t_z_csv, path) == outcome(csv_oracle.read_t_z_csv, path)


def rarely(data, label):
    """True about one time in five."""
    return data.draw(st.sampled_from([False] * 4 + [True]), label=label)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_reader_matches_per_row_parser_property(small_csv, data):
    text, path = small_csv
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        i = 0 if rarely(data, "header") else data.draw(st.integers(1, len(lines) - 1), label="row")
        cells = lines[i].split(",")
        j = data.draw(st.one_of(st.sampled_from([0, 5]), st.integers(0, len(cells) - 1)),
                      label="column") % len(cells)  # t, Z or any
        kind = data.draw(st.sampled_from(["wrap", "cell", "wrap", "cell", "line", "columns"]))
        if kind == "wrap":
            affix = st.sampled_from(AFFIXES)
            cells[j] = data.draw(affix) + cells[j] + data.draw(affix)
        elif kind == "cell":
            cells[j] = data.draw(st.sampled_from(CELLS))
        elif kind == "columns":  # extra or missing columns
            cells = cells[:j] if data.draw(st.booleans()) else cells + ["1.5", "x"][:j % 3]
        lines[i] = ",".join(cells)
        if kind == "line":
            lines.insert(i, data.draw(st.sampled_from(LINES)))
    ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="ending")
    body = ending.join(lines) + ("" if rarely(data, "last row unended") else ending)
    bom = "\ufeff" if rarely(data, "bom") else ""
    path.write_bytes((bom + body).encode("utf-8", "surrogateescape"))
    expected = outcome(csv_oracle.read_t_z_csv, path)
    assert outcome(read_t_z_csv, path) == expected
    assert outcome(per_row, path) == expected
