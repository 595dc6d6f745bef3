"""The benchmark's own test: a traced run passes its checks and its computed
counters repeat exactly across two runs with the same seed.

Run from the root of a source checkout (about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
# Counts, not times: these must read the same on every run of one seed.
COUNTERS = (
    "paths.kernel_sums.calls",
    "paths.kernel_sums.terms",
    "paths.kernel_sums.bytes_computed",
    "estimator.estimate_memory.calls",
    "estimator.estimate_memory.steps",
    "equilibrium.equilibrium.calls",
    "equilibrium.boundary_equilibrium.calls",
    "equilibrium.states",
    "equilibrium.region.1",
    "equilibrium.region.2",
    "equilibrium.region.3",
    "equilibrium.region.4",
    "equilibrium.region.boundary",
    "equilibrium.region.nonexistent",
    "equilibrium.failed",
    "csvio.write.bytes",
    "csvio.read.bytes",
    "trace.spans",
)


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _two_runs(workload: str) -> tuple[dict, dict]:
    return _traced_run(workload, 5), _traced_run(workload, 5)


@pytest.mark.parametrize("workload", ["sweep", "recover", "convergence"])
def test_counters_repeat(workload):
    first, second = _two_runs(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_layer_split():
    sweep = _two_runs("sweep")[0]["metrics"]
    assert sweep["paths.kernel_sums.calls"]["value"] == 0
    assert sweep["estimator.estimate_memory.calls"]["value"] == 0
    assert sweep["equilibrium.states"]["value"] == 1515
    convergence = _two_runs("convergence")[0]["metrics"]
    assert convergence["equilibrium.equilibrium.calls"]["value"] == 0
    assert convergence["paths.kernel_sums.calls"]["value"] > 0
