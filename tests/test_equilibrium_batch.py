"""The batched equilibrium path against the scan oracle it replaced.

``equilibrium_oracle`` is the former scalar solver: a sign scan of the
Region-1 fixed-point function at step 1e-3 plus bisection to width 1e-12.
The batch solves the same fixed point as a cubic in closed form, so the two
agree up to the oracle's bisection width, amplified by each field's
sensitivity to the holding.
"""

import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import equilibrium_oracle as oracle
import root_oracle
from fbmecon import (
    BASE_PARAMS,
    EquilibriumError,
    EquilibriumResult,
    MarketState,
    derive_constants,
    equilibrium,
    equilibrium_batch,
    sweep,
)
from fbmecon.equilibrium import _fixed_point_roots

eqmod = importlib.import_module("fbmecon.equilibrium")

FIELDS = ("n_C", "n_M", "x_star", "r", "mu", "sigma", "kappa", "mu_y", "sigma_y",
          "D_over_S", "D_over_WC", "S_over_WC", "c_coeff_C", "c_coeff_M",
          "mu_H", "sigma_H", "mu_G")
Y_GRID = np.round(np.arange(101) / 100.0, 2)
L_GRID = (-5.0, 0.0, 5.0)


def close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(b) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rtol * (1.0 + abs(b))


def assert_same(got: EquilibriumResult, want: EquilibriumResult, rtol: float) -> None:
    where = f"y={want.state.y}, Lambda={want.state.Lambda}, p={want.p}"
    assert got.region == want.region, where
    assert got.exists == want.exists, where
    for f in FIELDS:
        assert close(getattr(got, f), getattr(want, f), rtol), (f, where)
    # the tables price every candidate, the Region-1 root's bisection error
    # included, and reach 5e-12 at y = 0.01, where kappa ~ 1/y amplifies it
    assert (got.J_tables is None) == (want.J_tables is None), where
    if want.J_tables is not None:
        assert got.J_tables.keys() == want.J_tables.keys(), where
        for j, row in want.J_tables.items():
            assert all(close(a, b, 1e-10) for a, b in zip(got.J_tables[j], row)), (j, where)
        assert all(close(a, b, rtol) for a, b in zip(got.candidates, want.candidates)), where


@pytest.mark.parametrize("lam", [0.0, 0.4])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_batch_matches_oracle_and_scalar(p, lam):
    params = replace(BASE_PARAMS, p=p)
    ys, Ls = np.repeat(Y_GRID, len(L_GRID)), np.tile(L_GRID, len(Y_GRID))
    batch = equilibrium_batch(ys, Ls, lam, params)
    assert len(batch) == len(ys)
    for y, L, got in zip(ys.tolist(), Ls.tolist(), batch):
        state = MarketState(y, L, lam)
        assert_same(got, oracle.equilibrium(state, params), 1e-12)
        assert_same(got, equilibrium(state, params), 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    y=st.floats(0.01, 0.99),
    p=st.floats(0.0, 1.0),
    L=st.floats(-5.0, 5.0),
    lam=st.floats(-1.0, 1.0),
)
# p one ulp below 1: the Region-1 and Region-2 holdings tie, and a root
# 2.5e-13 off (a bare bisection midpoint) makes the oracle pick region 2
@example(y=0.5, p=0.9999999999999999, L=0.5, lam=0.0)
def test_batch_matches_oracle_property(y, p, L, lam):
    # the oracle's holding is exact to its bisection width; kappa ~ 1/y
    # carries that error to about 1e-11 at y = 0.01, hence the field tolerance
    params = replace(BASE_PARAMS, p=p)
    state = MarketState(y, L, lam)
    got, want = equilibrium(state, params), oracle.equilibrium(state, params)
    assert got.region == want.region and got.exists == want.exists
    if want.exists:
        assert abs(got.n_C - want.n_C) <= oracle.BISECT_TOL
    assert_same(got, want, 1e-10)


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(0.01, 0.99),
    p=st.floats(0.0, 0.99),
    k=st.floats(0.5, 20.0),
    beta1=st.floats(0.0, 0.5),
    L=st.floats(-10.0, 10.0),
    lam=st.sampled_from([0.0, 0.4]),
)
def test_region_four_is_never_self_consistent(y, p, k, beta1, L, lam):
    # under Region-4 prices (kappa = x = 0) the kink beats full ownership by
    # x3 (1 - n3) D/W_C / 2 + K (1 - n3^2), K = H eps^(2h) delta_C (S/W_C sigma_4)^2,
    # which is why the y = 0 boundary needs no interior solve
    params = replace(BASE_PARAMS, p=p, k=k, beta1=beta1)
    res = equilibrium_batch(y, L, lam, params)[0]
    if isinstance(res, Exception):
        return
    d = derive_constants(params)
    eps = params.epsilon
    A = params.sigma_D - (d.h / eps) * d.beta * (d.theta_C * (1.0 - y) + d.theta_M * y)
    qC, qM = res.c_coeff_C, res.c_coeff_M
    sigma4 = A / (qC * ((1.0 - y) / qC + y / qM))
    K = params.H * eps ** (2.0 * d.h) * d.delta_C * (res.S_over_WC * sigma4) ** 2
    n3 = res.candidates[2]
    x3 = min((1.0 - n3) / k, (1.0 - p) * n3)
    J3, J4 = res.J_tables[4][2], res.J_tables[4][3]
    assert J3 - J4 > 0.0
    gap = 0.5 * x3 * (1.0 - n3) * res.D_over_WC + K * (1.0 - n3 * n3)
    assert abs((J3 - J4) - gap) <= 1e-12 * (abs(J3) + abs(J4))
    assert res.region != 4


# ---------------------------------------------------------------------------
# The Region-1 root helper


def g_of(n2, n3, a, b0, b1):
    return lambda n: -n + n2 + a * (1.0 - n / n3) * (b0 + b1 * n) ** 2


def test_roots_close_pair_the_scan_misses():
    # g has three roots in [0, 1]; the first two are 4.4e-4 apart inside one
    # scan cell (0.717, 0.718), so their sign changes cancel on the scan grid
    coef = dict(n2=0.6890417, n3=0.95, a=20.0, b0=1.0, b1=-1.5)
    roots = _fixed_point_roots(*(np.array([v]) for v in coef.values()))[:, 0]
    g = g_of(**coef)
    assert np.all(np.isfinite(roots)) and np.all(np.diff(roots) > 0.0)
    assert 0.717 < roots[0] < roots[1] < 0.718 and roots[1] - roots[0] < 1e-3
    assert roots[2] < 1.0
    assert all(abs(g(float(r))) <= 1e-14 for r in roots)
    scanned = oracle.scan_roots(g)
    assert len(scanned) == 1 and abs(scanned[0] - roots[2]) <= oracle.BISECT_TOL


def test_roots_linear_when_consumption_ratios_coincide():
    # qC == qM makes b1 = 0: the cubic and quadratic terms vanish, g is linear
    n2, n3, a, b0 = 0.5, 1.0 / 2.2, 3.0, 0.7
    roots = _fixed_point_roots(np.array([n2]), n3, np.array([a]), np.array([b0]),
                               np.array([0.0]))[:, 0]
    linear = (n2 + a * b0 * b0) / (1.0 + a * b0 * b0 / n3)
    assert math.isclose(roots[0], linear, rel_tol=1e-15)
    assert np.all(np.isnan(roots[1:]))
    # the same degenerate cubic at a state with identical preferences
    symmetric = replace(BASE_PARAMS, gamma_C=3.0, gamma_M=3.0, alpha_C=0.5, alpha_M=0.5)
    got = equilibrium(MarketState(0.5), symmetric).candidates[0]
    want = oracle.equilibrium(MarketState(0.5), symmetric).candidates[0]
    assert abs(got - want) <= oracle.BISECT_TOL


def test_roots_full_protection_is_n2_exactly():
    n2 = np.array([0.1, 0.37, 0.6939768385893154, 0.99])
    roots = _fixed_point_roots(n2, 1.0, np.zeros(4), np.full(4, 0.3), np.full(4, 0.2))
    assert np.array_equal(roots[0], n2)
    assert np.all(np.isnan(roots[1:]))


def test_root_rounded_past_the_edge_is_kept():
    # g(0) = 1 > 0 >= g(1) = -5e-42, and the root near 1 can round to
    # 1 + 2.2e-16; it must be kept and clipped, not reported as missing
    params = replace(BASE_PARAMS, p=0, k=0.5, beta1=2)
    res = equilibrium_batch(0.001, 53.0, 0.0, params)[0]
    assert isinstance(res, EquilibriumResult), res
    assert res.region == "nonexistent" and res.candidates[0] == 1.0


def _root_arguments(params, y, L, p):
    """The (n2, n3, a, b0, b1) that the solve of the states (y, L) at levels p
    hands to the root stage."""
    seen, real = [], eqmod._fixed_point_roots
    eqmod._fixed_point_roots = lambda *args: seen.append(args) or real(*args)
    try:
        eqmod._solve(params, y, L, np.zeros_like(y), p)
    finally:
        eqmod._fixed_point_roots = real
    return seen[0]


@settings(max_examples=60, deadline=None)
@given(
    y=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=20),
    L=st.floats(-20.0, 20.0),
    p=st.floats(0.0, 1.0),
    k=st.sampled_from([0.5, 3.0, 20.0]),
)
def test_roots_match_the_eigvals_oracle(y, L, p, k):
    # at the scales of BASE_PARAMS the closed form finds the roots that the
    # former companion-matrix solve finds, each within 4 ulps
    y = np.array(y)
    args = _root_arguments(replace(BASE_PARAMS, k=k), y, np.full(y.size, L), np.full(y.size, p))
    got, want = _fixed_point_roots(*args), root_oracle.eigvals_roots(*args)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ulp = np.spacing(np.fmax(abs(got), abs(want)))
    assert np.all(np.isnan(got) | (abs(got - want) <= 4 * ulp))


def test_root_at_the_kink_is_found():
    # eigvals lost this root: a b1^2 is about 1e62, which pins g's one root in
    # [0, 1] to the kink n3 in double precision, where Regions 1 and 3 meet
    y, L, lam = (np.float64(v) for v in KINK_ROOT_STATE)
    args = _root_arguments(KINK_ROOT, y, L, np.float64(KINK_ROOT.p))
    exact = root_oracle.sturm(root_oracle.cubic(*map(float, args)))
    assert root_oracle.count(exact, Fraction(0), Fraction(1)) == 1
    roots = _fixed_point_roots(*args)
    n3 = 1.0 / (1.0 + (1.0 - KINK_ROOT.p) * KINK_ROOT.k)
    assert roots[0] == n3 and np.all(np.isnan(roots[1:]))
    assert np.all(np.isnan(root_oracle.eigvals_roots(*args)))
    (res,) = equilibrium_batch(y, L, lam, KINK_ROOT)
    assert isinstance(res, EquilibriumResult) and res.candidates[0] == res.candidates[2] == n3


# the roots against an exact Sturm count: inputs span the scales the solver
# meets (a up to 1e8 near full diversion, b0 = qM down to 1e-12 at extreme memory)
_SCALE = st.floats(-12.0, 2.0).map(lambda e: 10.0**e)
#: A draw counts only where its exact roots lie this far from each other and
#: from 0 and 1: far above the 2^-40 edge allowance and the rounding of the
#: float coefficients, so the exact count is the count the solver must find.
_MARGIN = Fraction(1, 10**6)


@settings(max_examples=300, deadline=None)
@given(
    n2=st.floats(1e-3, 0.999),
    n3=st.floats(0.05, 1.0),
    a=st.one_of(st.just(0.0), st.floats(-6.0, 8.0).map(lambda e: 10.0**e)),
    b0=_SCALE,
    b1=st.one_of(st.just(0.0), _SCALE, _SCALE.map(lambda v: -v)),
)
def test_roots_match_the_exact_sturm_count(n2, n3, a, b0, b1):
    g = root_oracle.cubic(n2, n3, a, b0, b1)
    seq = root_oracle.sturm(g)
    lo, hi = -_MARGIN, 1 + _MARGIN
    assume(len(seq[-1]) == 1)  # no repeated root
    assume(root_oracle.count(seq, lo, _MARGIN) == 0 and root_oracle.count(seq, 1 - _MARGIN, hi) == 0)
    assume(root_oracle.isolated(seq, lo, hi, _MARGIN))
    roots = _fixed_point_roots(*(np.array([v]) for v in (n2, n3, a, b0, b1)))[:, 0]
    found = roots[np.isfinite(roots)].tolist()
    assert len(found) == root_oracle.count(seq, Fraction(0), Fraction(1))
    # |g| at a reported root is at rounding level: a few ulps of g's terms plus
    # |g'| times the root's own last bit
    dg, eps = root_oracle.derivative(g), Fraction(2.0**-52)
    for r in map(Fraction, found):
        terms = 1 + r + abs(Fraction(n2)) + abs(Fraction(a) * (1 - r / Fraction(n3))
                                              * (Fraction(b0) + Fraction(b1) * r) ** 2)
        assert abs(root_oracle.evaluate(g, r)) <= 64 * eps * (terms + abs(root_oracle.evaluate(dg, r)))


# ---------------------------------------------------------------------------
# Failures stay with their state; invalid parameters are rejected


def test_batch_isolates_failing_states():
    res = equilibrium_batch(0.5, [0.0, 1e4, -1e4, 5.0, math.nan], 0.0, BASE_PARAMS)
    assert isinstance(res[0], EquilibriumResult) and isinstance(res[3], EquilibriumResult)
    assert isinstance(res[1], EquilibriumError) and "Lambda=10000" in str(res[1])
    assert isinstance(res[2], EquilibriumError) and "Lambda=-10000" in str(res[2])
    assert isinstance(res[4], ValueError)
    with pytest.raises(EquilibriumError):
        equilibrium(MarketState(0.5, 1e4), BASE_PARAMS)
    with pytest.raises(EquilibriumError):
        equilibrium(MarketState(0.5, -1e4), BASE_PARAMS)


def test_sweep_keeps_going_past_extreme_memory():
    Ls = [-1e4, -5.0, 0.0, 5.0, 1e4]
    rows = sweep(BASE_PARAMS, [0.0, 0.5, 1.0], [1.0, 0.6], Ls)
    assert len(rows) == 3 * 2 * len(Ls)
    for row in rows:
        if abs(row.Lambda) == 1e4:
            assert row.result is None and row.error
        else:
            assert row.error is None and row.result.exists


# exp(beta Lambda) overflows just above beta Lambda = log(DBL_MAX) ~ 709.78
_EDGE = math.log(sys.float_info.max) / BASE_PARAMS.beta
_MAGNITUDE = st.one_of(st.floats(0.0, 1e5), st.floats(_EDGE * (1 - 1e-6), _EDGE * (1 + 1e-6)),
                       st.floats(_EDGE * (1 - 1e-13), _EDGE * (1 + 1e-13)))


@settings(max_examples=150, deadline=None)
@given(
    ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    ps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    Ls=st.lists(st.tuples(st.sampled_from([1.0, -1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1]),
                min_size=1, max_size=4),
)
def test_sweep_overflow_edge_property(ys, ps, Ls):
    # a state fails with the adjustment message exactly where math.exp overflows
    rows = sweep(BASE_PARAMS, ys, ps, Ls)
    assert len(rows) == len(ys) * len(ps) * len(Ls)
    for row in rows:
        try:
            math.exp(BASE_PARAMS.beta * row.Lambda)
            overflow = False
        except OverflowError:
            overflow = True
        assert (row.result is None) == (row.error is not None)
        assert row.error is None or row.error.strip()
        assert ("adjustment functions failed" in (row.error or "")) == overflow, row
        if overflow:
            assert row.error == f"adjustment functions failed at Lambda={row.Lambda:g}: math range error"


_Y_TEXT = "consumption share y must lie in [0, 1]"


@settings(max_examples=100, deadline=None)
@given(
    ys=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=3),
    ps=st.lists(st.one_of(st.floats(-1.0, 2.0), st.just(math.nan), st.floats(0.0, 1.0)),
                min_size=1, max_size=3),
    Ls=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=2),
)
def test_sweep_invalid_rows_property(ys, ps, Ls):
    # an invalid p fails its rows with the parameter message, a y outside
    # [0, 1] its own row with the state message; the sweep always completes
    rows = sweep(BASE_PARAMS, ys, ps, Ls)
    assert len(rows) == len(ys) * len(ps) * len(Ls)
    for row in rows:
        assert (row.result is None) == (row.error is not None)
        error = row.error or ""
        if not 0.0 <= row.p <= 1.0:
            assert error.startswith("invalid parameters: p must "), row
        elif not 0.0 <= row.y <= 1.0:
            assert error.startswith(_Y_TEXT), row
        else:
            assert not error.startswith(("invalid parameters", _Y_TEXT)), row


_GAMMA_TEXT = "invalid parameters: gamma_C must exceed 1"


@pytest.mark.parametrize("params, ps, errors", [
    # gamma_C is invalid, so the sweep raises, as equilibrium_batch does
    (replace(BASE_PARAMS, gamma_C=1.0), [0.6, 2.0], ValueError(_GAMMA_TEXT)),
    # no level is valid
    (BASE_PARAMS, [2.0, math.nan],
     ["invalid parameters: p must lie in [0, 1]", "invalid parameters: p must be a finite real, got nan"]),
])
def test_sweep_records_each_invalid_level(params, ps, errors):
    # each row records its level's full message, before any of its state's own
    ys, Ls = [0.0, 0.5, 1.5], [0.0, 1e4]
    if isinstance(errors, Exception):
        with pytest.raises(type(errors)) as info:
            sweep(params, ys, ps, Ls)
        assert str(info.value) == str(errors)
        return
    rows = sweep(params, ys, ps, Ls)
    assert [(row.y, row.Lambda, row.result, row.error) for row in rows] == [
        (y, L, None, error) for y in ys for error in errors for L in Ls]


@pytest.mark.parametrize("change", [dict(gamma_C=1.0), dict(l_C=0.4, l_M=0.6), dict(p="0.5")])
def test_invalid_parameters_rejected(change):
    bad = replace(BASE_PARAMS, **change)
    with pytest.raises(ValueError, match="invalid parameters"):
        equilibrium(MarketState(0.5), bad)
    with pytest.raises(ValueError, match="invalid parameters"):
        equilibrium_batch([0.0, 0.5], 0.0, 0.0, bad)  # y = 0 makes the solver read p


# ---------------------------------------------------------------------------
# A scalar state is a batch of one, bit for bit; per-batch work is done once

NOEQ = replace(BASE_PARAMS, p=0, k=0.5, beta1=2)
SYMMETRIC = replace(BASE_PARAMS, gamma_C=3.0, gamma_M=3.0, alpha_C=0.5, alpha_M=0.5)


def _outcome(res) -> str:
    return f"{type(res).__name__}: {res}" if isinstance(res, Exception) else repr(res)


@pytest.mark.parametrize("params", [BASE_PARAMS, NOEQ, replace(BASE_PARAMS, p=1.0), SYMMETRIC],
                         ids=["base", "noeq", "full-protection", "symmetric"])
def test_scalar_is_the_batch_bitwise(params):
    # interior states; y = 0, 1 and 1e-9;
    # under NOEQ, nonexistent states at Lambda = 53 and, at Lambda = -10 and
    # y in {0.99, 0.995}, states with three roots in [0, 1]; failures at
    # Lambda = +-1e4; SYMMETRIC has qC = qM, so its cubic is linear
    ys = [0.0, 1e-9, 0.001, 0.3, 0.5, 0.99, 0.995, 1.0]
    Ls = [0.0, -10.0, 5.0, 53.0, 1e4, -1e4]
    y, L = np.repeat(ys, len(Ls)), np.tile(Ls, len(ys))
    batch = equilibrium_batch(y, L, 0.2, params)
    kinds = set()
    for yi, Li, res in zip(y.tolist(), L.tolist(), batch):
        try:
            scalar = equilibrium(MarketState(yi, Li, 0.2), params)
        except (ValueError, EquilibriumError) as exc:
            scalar = exc
        assert _outcome(scalar) == _outcome(res), (yi, Li)
        kinds.add(type(res).__name__ if isinstance(res, Exception) else res.region)
    assert {"boundary", "EquilibriumError"} <= kinds and kinds & {1, 2, 3, 4}
    assert params is not NOEQ or "nonexistent" in kinds


def _vanishing_numerator():
    # H < 1/2 makes h < 0, so this sigma_D zeroes the volatility numerator
    # A = sigma_D - (h/eps) beta (theta_C (1-y) + theta_M y) at y = 0.5 exactly
    params = replace(BASE_PARAMS, H=0.35, beta1=10.0)
    d = derive_constants(params)
    return replace(params, sigma_D=(d.h / params.epsilon) * d.beta * (d.theta_C * 0.5 + d.theta_M * 0.5))


VANISHING = _vanishing_numerator()
# the first error of each stage under VANISHING, in stage order
STAGE_ERRORS = [
    ((1.5, 0.0, 0.0), ValueError("consumption share y must lie in [0, 1], got 1.5")),
    ((1.5, -1e4, math.nan), ValueError("consumption share y must lie in [0, 1], got 1.5")),
    ((0.5, math.nan, 0.0), ValueError("memory levels must be finite")),
    ((0.5, 1e4, math.nan), ValueError("memory levels must be finite")),
    ((0.5, 1e4, 0.0), EquilibriumError("adjustment functions failed at Lambda=10000: math range error")),
    ((0.5, -1e4, 0.0), EquilibriumError("non-finite consumption-wealth ratio of C at y=0.5, Lambda=-10000")),
    ((0.5, 0.0, 0.0), EquilibriumError(
        "volatility numerator sigma_D - (h/eps) (varphi'/varphi) "
        "(theta_C (1-y) + theta_M y) vanished; the fixed point is undefined")),
    ((0.3, 0.0, 1e308), EquilibriumError(
        "r formula produced a non-finite value at y=0.3, Lambda=0, n_C=0.839049")),
]
# the root stage: here n2 = 1, qC/qM = 3e-175 and qM = 2.4e307, so the expanded
# cubic's coefficient c1 = a b0 (2 b1 - b0/n3) - 1 overflows and no root is found,
# though g has three roots in [0, 1]
ROOTLESS = replace(BASE_PARAMS, alpha_M=0.25, beta1=1.0, k=20.0)
ROOTLESS_STATE = (0.1, -615.0, 0.0)
ROOTLESS_ERROR = EquilibriumError("no Region-1 fixed point found on [0, 1] despite the bracket guarantee")
# a state whose root eigvals lost: a b1^2 = 1e62 pins g's one root in [0, 1] to the kink n3
KINK_ROOT = replace(BASE_PARAMS, beta1=0.5)
KINK_ROOT_STATE = (0.007627729982231036, -585.5035095049648, 0.0)


def test_first_error_of_each_stage_is_pinned():
    ys, Ls, ls = (list(v) for v in zip(*(state for state, _ in STAGE_ERRORS)))
    batch = equilibrium_batch(ys + [0.3], Ls + [0.0], ls + [0.0], VANISHING)
    cases = [(VANISHING, state, want, got) for (state, want), got in zip(STAGE_ERRORS, batch)]
    (got,) = equilibrium_batch(*ROOTLESS_STATE, ROOTLESS)
    cases.append((ROOTLESS, ROOTLESS_STATE, ROOTLESS_ERROR, got))
    for params, state, want, got in cases:
        assert _outcome(got) == _outcome(want), state
        # a 0-d batch (MarketState itself rejects the invalid states) fails alike
        try:
            got = eqmod._first(eqmod._solve(params, *(np.float64(v) for v in state), params.p))
        except (ValueError, EquilibriumError) as exc:
            got = exc
        assert _outcome(got) == _outcome(want), state


# nonexistent (Lambda = 53) and three-root (Lambda = -10) states under NOEQ
NOEQ_STATES = [(0.3, 53.0, 0.2), (0.001, 53.0, 0.0), (0.99, -10.0, 0.2), (0.995, -10.0, 0.2)]


@pytest.mark.parametrize("params, states", [
    (VANISHING, [state for state, _ in STAGE_ERRORS]), (NOEQ, NOEQ_STATES),
    (ROOTLESS, [ROOTLESS_STATE]), (KINK_ROOT, [KINK_ROOT_STATE])], ids=["stages", "noeq", "rootless", "kink"])
def test_edge_states_price_without_warnings(params, states):
    # overflow, NaN and inf stay inside the solver's errstate; the root stage,
    # which tests call directly, keeps its own
    ys, Ls, ls = (np.array(v) for v in zip(*states))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = equilibrium_batch(ys, Ls, ls, params)
        for state, res in zip(states, batch):
            try:
                scalar = equilibrium(MarketState(*state), params)
            except (ValueError, EquilibriumError) as exc:
                scalar = exc
            assert _outcome(scalar) == _outcome(res), state
        live = (ys >= 0.0) & (ys <= 1.0) & np.isfinite(Ls + ls)
        args = _root_arguments(params, ys[live], Ls[live], np.full(np.count_nonzero(live), params.p))
        _fixed_point_roots(*args)


def test_empty_batches_price_to_empty_lists():
    assert equilibrium_batch([], [], [], BASE_PARAMS) == []
    assert sweep(BASE_PARAMS, [], [0.6], [0.0]) == []


@pytest.mark.parametrize("params", [BASE_PARAMS, NOEQ, VANISHING], ids=["base", "noeq", "vanishing"])
def test_sweep_rows_are_the_scalar_solves(params):
    # one batch across p levels prices each row as its level alone would: the
    # p = 1 relabel, the p < 1 vanishing-numerator check (VANISHING at y = 0.5,
    # Lambda = 0), nonexistent states (NOEQ at Lambda = 53) and failures
    ys, ps, Ls = [0.0, 0.3, 0.5, 0.99, 1.0], [1.0, 0.6, -0.0, 0.0, 0.9], [-10.0, 0.0, 53.0, 1e4]
    rows = sweep(params, ys, ps, Ls, lam=0.2)
    for row in rows:
        try:
            want = repr(equilibrium(MarketState(row.y, row.Lambda, 0.2), replace(params, p=row.p)))
        except (ValueError, EquilibriumError) as exc:
            want = str(exc)
        assert (row.error or repr(row.result)) == want, (row.y, row.p, row.Lambda)
    vanished = {(r.p, r.Lambda) for r in rows if (r.error or "").startswith("volatility numerator")}
    assert vanished == ({(p, L) for p in ps if p < 1.0 for L in Ls[:3]} if params is VANISHING else set())


_U = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    params=st.builds(lambda p, k, beta1: replace(BASE_PARAMS, p=p, k=k, beta1=beta1),
                     st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]), st.sampled_from([0.5, 3.0, 20.0]),
                     st.sampled_from([0.0, 0.1, 0.5, 2.0, 10.0])),
    y=st.one_of(st.sampled_from([0.0, 1.0, 1e-9]), _U, _U.map(lambda u: u**8)),
    L=st.floats(-800.0, 800.0),
    lam=st.floats(-1.0, 1.0),
)
@example(params=VANISHING, y=1.5, L=0.0, lam=0.0)
@example(params=VANISHING, y=1.5, L=-1e4, lam=math.nan)
@example(params=VANISHING, y=0.5, L=math.nan, lam=0.0)
@example(params=VANISHING, y=0.5, L=1e4, lam=math.nan)
@example(params=VANISHING, y=0.5, L=1e4, lam=0.0)
@example(params=VANISHING, y=0.5, L=-1e4, lam=0.0)
@example(params=VANISHING, y=0.5, L=0.0, lam=0.0)
@example(params=VANISHING, y=0.3, L=0.0, lam=1e308)
@example(params=ROOTLESS, y=ROOTLESS_STATE[0], L=ROOTLESS_STATE[1], lam=ROOTLESS_STATE[2])
@example(params=KINK_ROOT, y=KINK_ROOT_STATE[0], L=KINK_ROOT_STATE[1], lam=KINK_ROOT_STATE[2])
def test_scalar_entry_is_a_batch_of_one_property(params, y, L, lam):
    # the scalar entry runs the batch path on numpy scalars; its powers go
    # through np.power, whose rounding on scalars is that of the array loops
    try:
        scalar = equilibrium(MarketState(y, L, lam), params)
    except (ValueError, EquilibriumError) as exc:
        scalar = exc
    assert _outcome(scalar) == _outcome(equilibrium_batch([y], [L], [lam], params)[0])


def test_constants_are_derived_once_per_parameter_set(monkeypatch):
    calls, validate = [], eqmod.validate
    monkeypatch.setattr(eqmod, "validate", lambda P: calls.append(P) or validate(P))
    eqmod._param_constants.cache_clear()
    try:
        twin = replace(BASE_PARAMS)  # equal, but a distinct object
        assert twin == BASE_PARAMS and twin is not BASE_PARAMS
        for y in (0.2, 0.5, 0.8):
            equilibrium(MarketState(y, 1.0), BASE_PARAMS)
            equilibrium(MarketState(y, 1.0), twin)
        assert len(calls) == 1 and eqmod._param_constants.cache_info().currsize == 1
        equilibrium(MarketState(0.5), NOEQ)
        assert len(calls) == 2
        # a sweep derives the constants of its one parameter set once, whatever
        # its levels; each NaN level fails its rows with validate's message
        eqmod._param_constants.cache_clear()
        rows = sweep(BASE_PARAMS, [0.2, 0.5], [0.6, 0.6, -0.0, math.nan, 0.0, math.nan], [0.0, 1.0])
        assert eqmod._param_constants.cache_info().currsize == 1
        assert {r.error for r in rows if r.p != r.p} == {"invalid parameters: p must be a finite real, got nan"}
    finally:
        eqmod._param_constants.cache_clear()


@pytest.mark.parametrize("change", [dict(gamma_C=1.0), dict(p=[0.5]), dict(p=math.nan)])
def test_invalid_parameters_raise_on_every_call(change):
    bad = replace(BASE_PARAMS, **change)
    for _ in range(3):
        with pytest.raises(ValueError, match=r"^invalid parameters: "):
            equilibrium(MarketState(0.5), bad)


def test_one_interior_solve_prices_each_candidate_once(monkeypatch):
    calls = {}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for name in ("_rate", "_mu", "_J", "_fixed_point_roots"):
        monkeypatch.setattr(eqmod, name, count(name, getattr(eqmod, name)))
    equilibrium(MarketState(0.5, 1.0, 0.2), BASE_PARAMS)
    # one root: the objective is tabled once, for the region tests
    assert calls == {"_rate": 1, "_mu": 1, "_fixed_point_roots": 1, "_J": 1}
    calls.clear()
    equilibrium(MarketState(0.99, -10.0, 0.2), NOEQ)
    # three roots: the objective also weighs each root under its own prices
    assert calls == {"_rate": 1, "_mu": 1, "_fixed_point_roots": 1, "_J": 2}


# ---------------------------------------------------------------------------
# Results do not depend on numpy's SIMD dispatch

# the benchmark grid's sweep and three scalar states; their exp(beta Lambda)
# rounds alike under every dispatch (numpy's exp and power loops do not in
# general: at Lambda = 1 under BASE_PARAMS, c_coeff_C moves by an ulp)
_PRICE = """
import numpy as np
from dataclasses import replace
from fbmecon import BASE_PARAMS, MarketState, equilibrium, sweep
print(repr(sweep(BASE_PARAMS, np.round(np.arange(101) / 100.0, 2), (1.0, 0.9, 0.6, 0.3, 0.0),
                 (-5.0, 0.0, 5.0))))
print(repr(equilibrium(MarketState(0.5, 5.0, 0.2), BASE_PARAMS)))
print(repr(equilibrium(MarketState(0.5, -5.0, 0.2), replace(BASE_PARAMS, p=0.0, k=0.5, beta1=2.0))))
print(repr(equilibrium(MarketState(0.99, -5.0, 0.2), replace(BASE_PARAMS, p=0.0))))
"""


def _avx512_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this host runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__
            if (t.startswith("AVX512") or t == "X86_V4") and umath.__cpu_features__.get(t)]


def test_prices_do_not_depend_on_simd_dispatch():
    # numpy's arccos and cbrt loops round differently without AVX-512; the
    # root stage takes them from libm, so every digit of every result holds
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this host dispatches no AVX-512 loop")
    with contextlib.redirect_stdout(io.StringIO()) as here:
        exec(_PRICE, {})
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets), PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PRICE], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got, want = proc.stdout.splitlines(), here.getvalue().splitlines()
    # the line numbers only: a diff of the 1.6 MB sweep line would take minutes
    assert len(got) == len(want) and [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []
