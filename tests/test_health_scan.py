"""tools/health_scan.py counts what direct equilibrium solves report."""

import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fbmecon import BASE_PARAMS, EquilibriumError, MarketState, equilibrium

_SPEC = importlib.util.spec_from_file_location(
    "health_scan", Path(__file__).resolve().parent.parent / "tools" / "health_scan.py")
health_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(health_scan)


@pytest.mark.parametrize("params, covered", [
    (BASE_PARAMS, "1"),
    (replace(BASE_PARAMS, p=0.0, k=0.5, beta1=2.0), "nonexistent"),  # at Lambda = 53
    (replace(BASE_PARAMS, alpha_M=0.25, beta1=1.0, k=20.0),  # a lost Region-1 root at Lambda = -615
     "failure: no Region-1 fixed point found on [0, 1] despite the bracket guarantee"),
], ids=["base", "noeq", "lost-root"])
def test_counts_match_direct_solves(params, covered):
    ys = [0.0, 1e-9, 0.1, 0.5, 0.99, 1.0]
    Ls = [-1e4, -615.0, -10.0, 0.0, 5.0, 53.0, 1e4]
    y, L = np.repeat(ys, len(Ls)), np.tile(Ls, len(ys))
    want = Counter()
    for yi, Li in zip(y.tolist(), L.tolist()):
        try:
            res = equilibrium(MarketState(yi, Li), params)
        except (ValueError, EquilibriumError) as exc:
            want["failed"] += 1
            want[f"failure: {health_scan.message_kind(str(exc))}"] += 1
        else:
            want[str(res.region)] += 1
    got = health_scan.count(params, y, L)
    assert got == want
    assert sum(got[k] for k in health_scan.REGIONS + ("nonexistent", "failed")) == y.size
    assert got["failed"] and got["boundary"] and got[covered]


def test_message_kind_masks_the_numbers_of_a_state():
    assert health_scan.message_kind(
        "r formula produced a non-finite value at y=0.3, Lambda=-5, n_C=0.839049"
    ) == "r formula produced a non-finite value at y=#, Lambda=#, n_C=#"
    assert health_scan.message_kind("consumption share y must lie in [0, 1], got 1.5") == (
        "consumption share y must lie in [0, 1], got #")


def test_holdings_chain_matches_direct_solves():
    # violations (y = 0.4, 0.6) and states without an equilibrium (Lambda = -15) both occur
    ys, Ls = [0.1, 0.4, 0.6, 0.9], [-15.0, -5.0, 0.0, 5.0]
    y, L = np.repeat(ys, len(Ls)), np.tile(Ls, len(ys))
    n_C = {}
    for p in (0.6, 0.9):
        results = [equilibrium(MarketState(yi, Li), replace(BASE_PARAMS, p=p))
                   for yi, Li in zip(y.tolist(), L.tolist())]
        n_C[p] = np.array([r.n_C if r.exists else np.nan for r in results])
    bad = n_C[0.6] < n_C[0.9]
    want = (int(bad.sum()), float(y[bad].min()), float(y[bad].max()),
            int(np.isnan(n_C[0.6]).sum()), int(np.isnan(n_C[0.9]).sum()))
    assert health_scan.holdings_chain(y, L) == want
    assert want[0] and want[3] and want[4]
