"""The block table writers and the t,Z reader against the per-row csv oracles."""

import contextlib
import csv
import importlib
import io
import json
from dataclasses import fields, replace
from types import SimpleNamespace
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
    _cells,
    _rows_text,
    _text,
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


# node counts N + 1: one row, one row short of four blocks, four full blocks,
# four blocks plus one row, four blocks plus a partial one, and eight blocks
# plus one row
@pytest.mark.parametrize("N", [1, 4 * _BLOCK - 2, 4 * _BLOCK - 1, 4 * _BLOCK, 5000, 8 * _BLOCK])
def test_path_and_memory_csv_match_oracle(tmp_path, N):
    bundle = simulate_bundle(TimeGrid(1.0, N), BASE_PARAMS, seed=3, refine=1)
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = estimate_memory(bundle.Z, bundle.grid, BASE_PARAMS)
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                    2.2250738585072014e-308, 1e308, -1e308, np.finfo(float).max, 0.1, -1 / 3])


@pytest.mark.parametrize("N", [1, 12, 4 * _BLOCK + 3])
def test_special_values_match_oracle(tmp_path, N):
    def column(n, shift):  # the special values, cycled and shifted per column
        return np.roll(np.resize(SPECIAL, n), shift)

    grid = TimeGrid(1.0, N)
    bundle = PathBundle(grid=grid, dw=column(N, 0), w=column(N + 1, 1),
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


@pytest.mark.parametrize("y, p, Lam", [
    ([0.5, 0.25, 0.5, 1.0], [0.6, 1.0, 0.6], [5.0, -0.0]),  # y unsorted, with a repeat
    # repeats told apart by their text alone (signed zeros), an invalid p and
    # failed states, whose field cells are empty
    ([0.0, 0.5, -0.0, 0.25], [0.0, 2.0, 0.6, -0.0], [5.0, -0.0, 1e4, 0.0]),
    # manifest leaves json writes as NaN, Infinity and -Infinity, and a label
    # "%.17g" prints itself (1e-7)
    ([0.5, 0.25, 1.0], [np.nan, 0.6, -0.0], [np.inf, 1e-7, -np.inf, 5.0]),
    # repeated NaN levels are one level, as repeated numbers are
    ([0.5, 0.25], [0.6, np.nan, np.nan], [5.0, 5.0]),
])
def test_sweep_and_figures_of_a_grid_match_oracle(tmp_path, y, p, Lam):
    grid = _price_grid(BASE_PARAMS, y, p, Lam)
    rows = sweep(BASE_PARAMS, y, p, Lam)
    cells = write_sweep_csv(tmp_path / "new.csv", grid)
    csv_oracle.write_sweep_csv(tmp_path / "old.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    new, old = tmp_path / "new", tmp_path / "old"
    csvio.write_figures(new, grid, cells)
    csv_oracle.write_figures(old, rows, SimpleNamespace(p_list=p, Lambda_list=Lam))
    names = sorted(f.name for f in old.iterdir())
    assert len(names) == 13 and sorted(f.name for f in new.iterdir()) == names
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    # no column name repeats, so the manifest names every column
    manifest = json.loads((new / "figures_manifest.json").read_text(encoding="utf-8"))
    for entry in manifest:
        header = (new / entry["file"]).read_text(encoding="utf-8").splitlines()[0].split(",")[1:]
        assert len(set(header)) == len(header) == len(entry["columns"]), entry["file"]


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
    # the CLI prices, writes and pivots the sweep from the batch's arrays

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI sweep built a per-state object")

    monkeypatch.setattr(equilibrium_module, "EquilibriumResult", refuse)
    monkeypatch.setattr(equilibrium_module, "SweepRow", refuse)
    for n, (cfg, _, _) in enumerate(sweep_cases):
        code, err = run_sweep(cfg, tmp_path / "sweep.csv", "--figures", str(tmp_path / f"figs{n}"))
        assert code == 0, err


def test_sweep_formats_each_cell_once(tmp_path, monkeypatch):
    # on the benchmark grid (101 y x 5 p x 3 Lambda): one _cells call per
    # field block of about 8,000 cells, one for the y, p and Lambda labels
    # together, and none from write_figures, which reuses the sweep's cells
    grid = {"y_start": 0.0, "y_stop": 1.0, "y_step": 0.01, "p_list": "1,0.9,0.6,0.3,0",
            "Lambda_list": "-5,0,5"}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{f.name} = {getattr(BASE_PARAMS, f.name)!r}\n" for f in fields(BASE_PARAMS))
                   + "".join(f"{k} = {v}\n" for k, v in grid.items()), encoding="utf-8")
    calls, marks, cells, figures = [], [], csvio._cells, csvio.write_figures
    monkeypatch.setattr(csvio, "_cells", lambda values: calls.append(np.shape(values)) or cells(values))

    def write_figures(*args):  # the call count as write_figures starts and ends
        marks.append(len(calls))
        figures(*args)
        marks.append(len(calls))

    monkeypatch.setattr(csvio, "write_figures", write_figures)
    code, err = run_sweep(cfg, tmp_path / "sweep.csv", "--figures", str(tmp_path / "figs"))
    assert code == 0, err
    assert calls == [(630, 13), (630, 13), (255, 13), (101 + 5 + 3,)]
    assert marks == [4, 4]


def test_a_sweep_is_one_solve(tmp_path, monkeypatch):
    # five p levels, one invalid and one repeated: sweep() and the CLI each
    # price the whole grid in one _solve, and the CLI writes the oracle's bytes
    grid = {"y_start": 0.0, "y_stop": 1.0, "y_step": 0.25, "p_list": "1,2,0.6,0.6,0",
            "Lambda_list": "5,0,1e4"}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{f.name} = {getattr(BASE_PARAMS, f.name)!r}\n" for f in fields(BASE_PARAMS))
                   + "".join(f"{k} = {v}\n" for k, v in grid.items()), encoding="utf-8")
    rc = RunConfig(load_config(cfg))
    calls, solve = [], equilibrium_module._solve
    monkeypatch.setattr(equilibrium_module, "_solve", lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    rows = sweep(rc.params, rc.y_grid(), rc.p_list, rc.Lambda_list)
    assert len(calls) == 1 and len(rows) == 5 * 5 * 3
    assert any(r.error and r.error.startswith("invalid parameters") for r in rows)
    code, _ = run_sweep(cfg, tmp_path / "cli.csv")
    assert code == 0 and len(calls) == 2
    csv_oracle.write_sweep_csv(tmp_path / "oracle.csv", rows)
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_convergence_csv_matches_oracle(tmp_path):
    report = convergence_study(BASE_PARAMS, 1.0, 256, [2, 4, 8], seeds=2)
    assert same_bytes(tmp_path, write_convergence_csv, csv_oracle.write_convergence_csv, report)


# ---------------------------------------------------------------------------
# the block formatter


def percent_rows(values) -> bytes:
    """The oracle: every cell by ``"%.17g" %``, joined by "," and each row ended by "\\n"."""
    n, k = values.shape
    return ((("%.17g" + ",%.17g" * (k - 1) + "\n") * n) % tuple(values.ravel().tolist())).encode()


def assert_rows_text(cells) -> None:
    """_rows_text matches the oracle on ``cells`` as one column and as rows of 8."""
    column = np.asarray(cells, dtype=float).reshape(-1, 1)
    assert _rows_text(column) == percent_rows(column)
    rows = np.resize(column, (-(-column.size // 8), 8))
    assert _rows_text(rows) == percent_rows(rows)


def ulps_around(x: float, count: int = 40) -> list[float]:
    """x and its ``count`` nearest doubles on each side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def as_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# cells "%.17g" prints itself (nan, +-inf, subnormals, |x| < 1e-6 or >= 1e17), and 0
FALLBACK = [np.nan, -np.nan, as_float(0x7FF8_0000_0000_0001), np.inf, -np.inf, 5e-324,
            -2.2250738585072009e-308, 2.2250738585072014e-308, 9.9999999999999995e-07,
            -1e-300, 1e17, -1e17, 1e300, np.finfo(float).max, 0.0, -0.0]
CELL = st.one_of(st.integers(0, 2 ** 64 - 1).map(as_float), st.floats(), st.sampled_from(FALLBACK))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rows_text_matches_percent_property(data):
    n, k = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 8), label="k")
    values = np.array(data.draw(st.lists(CELL, min_size=n * k, max_size=n * k)),
                      dtype=float).reshape(n, k)
    if data.draw(st.booleans(), label="fallback cells in the last column"):
        values[:, -1] = data.draw(st.lists(st.sampled_from(FALLBACK), min_size=n, max_size=n))
    assert _rows_text(values) == percent_rows(values)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_text_with_empty_cells_matches_percent_property(data):
    # an all-NUL cell is an empty one, wherever it sits in its row
    n, k = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 8), label="k")
    values = np.array(data.draw(st.lists(CELL, min_size=n * k, max_size=n * k)),
                      dtype=float).reshape(n, k)
    empty = np.array(data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)),
                     dtype=bool).reshape(n, k)
    table = _cells(values)
    table[empty] = 0
    assert _text(table) == "".join(
        ",".join("" if e else "%.17g" % v for v, e in zip(row, blank)) + "\n"
        for row, blank in zip(values.tolist(), empty.tolist())).encode()


def test_rows_text_random_bit_patterns():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, size=(3000, 7), dtype=np.uint64)
    values = bits.view(np.float64)
    assert _rows_text(values) == percent_rows(values)


def test_rows_text_rounds_ties_to_even():
    # i + j / 8 for 15-digit i (and i + j / 16 for 14-digit i) has 18 significant
    # digits ending in 5: an exact tie at the 17th digit
    rng = np.random.default_rng(8)
    eighths = rng.integers(10 ** 14, 10 ** 15, 2500)[:, None] + np.array([1, 3, 5, 7]) / 8
    sixteenths = rng.integers(10 ** 13, 10 ** 14, 2500)[:, None] + np.array([1, 3, 13, 15]) / 16
    ties = np.concatenate((eighths.ravel(), sixteenths.ravel()))
    assert_rows_text(np.concatenate((ties, -ties)))
    assert _rows_text(np.array([[125000000000000.125, 125000000000000.375]])) == (
        b"125000000000000.12,125000000000000.38\n")


@pytest.mark.parametrize("j", range(-8, 19))
def test_rows_text_around_powers_of_ten(j):
    # the d borders -7/-6 (1e-6), -5/-4 (1e-4) and 16/17 (1e17) among them
    cells = ulps_around(10.0 ** j)
    assert_rows_text(cells + [-c for c in cells])


def test_rows_text_carry_below_powers_of_ten():
    # the largest double below 10**j, whose 17 digits may round up to 10**j
    below = [np.nextafter(10.0 ** j, 0) for j in range(-7, 19)]
    assert_rows_text(below + [-c for c in below])


def test_rows_text_exponent_and_special_forms():
    assert _rows_text(np.array([[1e-6]])) == b"9.9999999999999995e-07\n"
    cells = [1e-5, -2.0 ** -17, 2.0 ** -15, 1e-4, 0.0, -0.0, 1e16, 1e17, np.nan, -np.inf]
    assert _rows_text(np.array([cells])) == (b"1.0000000000000001e-05,-7.62939453125e-06,"
                                            b"3.0517578125e-05,0.0001,0,-0,10000000000000000,"
                                            b"1e+17,nan,-inf\n")
    assert_rows_text(FALLBACK)


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


@pytest.fixture
def field_limit_64():
    """csv.field_size_limit() lowered to 64 for one test: the reader then scans
    in 32-byte windows and its first chunk ends at byte 2**20."""
    old = csv.field_size_limit(64)
    yield
    csv.field_size_limit(old)


@pytest.fixture(scope="module")
def wide_rows():
    """22,000 rows "t,Z,x" of 50 bytes each, every 32-byte window holding a
    separator; the last row's x is short, so only its line ending can be missing."""
    z = np.sin(np.arange(22_000)).tolist()
    rows = [f"{i:08d},{z[i]:+.6f},{'0' * 30}\n" for i in range(len(z))]
    rows[-1] = f"{len(z) - 1:08d},0,0\n"
    return rows


def numpy_reads(path) -> bool:
    """Whether numpy's parser takes the file (t and Z in columns 0 and 1)."""
    try:
        csvio._numpy_columns(path, 0, 1)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("value, at, fast", [
    ('"+0.5,0', 0, False), ('+0.5,0"', 6, False), ("+0.5\x1c,0", 4, False),
    ("+0.5\x1c,0", 5, False), ("+0.5,0", 0, True),
    # a field of 31 bytes covers no whole window; one of 64 or more always does
    *((f"+0.5,{'1' * 31}", at, True) for at in (6, 20, 35)),
    *((f"+0.5,{'1' * 64}", at, False) for at in (5, 37, 68)),
    *((f"+0.5,{'1' * 65}", at, False) for at in (5, 25, 36, 37, 45, 69))],
    ids=lambda v: v if not isinstance(v, str) or len(v) < 12 else f"{v[:5]}{v[5]}x{len(v) - 5}")
def test_reader_scans_across_chunk_boundaries(tmp_path, field_limit_64, wide_rows, value, at, fast):
    # one row's Z and x cells read ``value``, with value[at] on byte 2**20,
    # the first byte of the scan's second chunk; the header's pad places it
    r, pad = divmod(2 ** 20 - at - 15, 50)
    rows = wide_rows.copy()
    rows[r] = f"{r:08d},{value}\n"
    text = "t,Z,x" + "_" * pad + "\n" + "".join(rows)
    path = tmp_path / "boundary.csv"
    for body in (text, text[:-1]):  # the second without its last line ending
        path.write_text(body, encoding="utf-8")
        assert path.read_bytes()[2 ** 20 - at:][:len(value)] == value.encode()
        assert numpy_reads(path) == (fast and body is text)
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
