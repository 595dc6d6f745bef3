"""The block table writer against the per-row csv.writer oracle, byte for byte."""

from dataclasses import replace

import pytest

import csv_oracle
from fbmecon import (
    BASE_PARAMS,
    TimeGrid,
    convergence_study,
    estimate_memory,
    simulate_bundle,
    sweep,
)
from fbmecon.csvio import (
    _BLOCK,
    write_convergence_csv,
    write_memory_csv,
    write_path_csv,
    write_sweep_csv,
)
from test_equilibrium import NOEQ  # the worked scenario with no equilibrium


def same_bytes(tmp_path, write, oracle, obj) -> bool:
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new, obj)
    oracle(old, obj)
    return new.read_bytes() == old.read_bytes()


# node counts N + 1: one row, one row short of a block, one full block, and
# a block plus a partial one
@pytest.mark.parametrize("N", [1, _BLOCK - 2, _BLOCK - 1, 5000])
def test_path_and_memory_csv_match_oracle(tmp_path, N):
    bundle = simulate_bundle(TimeGrid(1.0, N), BASE_PARAMS, seed=3, refine=1)
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = estimate_memory(bundle.Z, bundle.grid, BASE_PARAMS)
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


def test_memoryless_csv_matches_oracle(tmp_path):
    half = replace(BASE_PARAMS, H=0.5)
    bundle = simulate_bundle(TimeGrid(1.0, 50), half, seed=3, refine=2)
    assert same_bytes(tmp_path, write_path_csv, csv_oracle.write_path_csv, bundle)
    est = estimate_memory(bundle.Z, bundle.grid, half)
    assert same_bytes(tmp_path, write_memory_csv, csv_oracle.write_memory_csv, est)


def test_sweep_csv_matches_oracle(tmp_path):
    # boundary rows at y in {0, 1}, failed rows at |Lambda| = 1e4, and
    # nonexistent rows from the worked scenario
    rows = sweep(BASE_PARAMS, [0.0, 0.5, 1.0], [1.0, 0.6], [-5.0, 0.0, 1e4, -1e4])
    rows += sweep(NOEQ, [0.5], [0.5], [0.0])
    kinds = {r.result.region if r.result is not None else "failed" for r in rows}
    assert {"boundary", "nonexistent", "failed"} <= kinds
    assert same_bytes(tmp_path, write_sweep_csv, csv_oracle.write_sweep_csv, rows)


def test_convergence_csv_matches_oracle(tmp_path):
    report = convergence_study(BASE_PARAMS, 1.0, 256, [2, 4, 8], seeds=2)
    assert same_bytes(tmp_path, write_convergence_csv, csv_oracle.write_convergence_csv, report)
