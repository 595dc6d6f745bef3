import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmecon import (
    BASE_PARAMS,
    EquilibriumError,
    MarketState,
    ModelParams,
    Prices,
    benchmark_differences,
    benchmark_equilibrium,
    boundary_equilibrium,
    derive_constants,
    equilibrium,
    partial_policies,
    sweep,
    x_star,
)

# the worked scenario in which no region is self-consistent
NOEQ = ModelParams(
    mu_D=0.015, sigma_D=0.01, H=0.5, epsilon=0.1, gamma_C=3.0, gamma_M=3.0,
    alpha_C=1.0, alpha_M=1.0, rho=0.01, k=2.0, p=0.5, l_C=0.0, l_M=0.0, beta1=0.1,
)


# ---------------------------------------------------------------------------
# Diversion rule


def test_x_star_full_protection():
    for n in (0.0, 0.3, 1.0):
        assert x_star(n, k=3.0, p=1.0) == 0.0


def test_x_star_full_ownership():
    assert x_star(1.0, k=3.0, p=0.6) == 0.0


def test_x_star_kink_value():
    assert x_star(0.5, k=2.0, p=0.5) == 0.25  # both branches meet


def test_x_star_branches():
    # the protection cap binds (Region 1) below the kink, the cost branch above it
    assert (1 - 0.6) * 0.2 < (1 - 0.2) / 3.0
    assert x_star(0.2, k=3.0, p=0.6) == (1 - 0.6) * 0.2
    assert (1 - 0.9) / 3.0 < (1 - 0.6) * 0.9
    assert x_star(0.9, k=3.0, p=0.6) == (1 - 0.9) / 3.0


@given(n=st.floats(0.0, 1.0), k=st.floats(0.01, 50.0), p=st.floats(0.0, 1.0))
def test_x_star_properties(n, k, p):
    x = x_star(n, k, p)
    assert x <= (1.0 - p) * n + 1e-18
    assert x <= (1.0 - n) / k + 1e-18
    if p < 1.0 and 0.0 < n:
        assert x >= 0.0


# ---------------------------------------------------------------------------
# Candidates


def test_candidates_full_protection_degenerates():
    n = equilibrium(MarketState(0.37, 1.3), replace(BASE_PARAMS, p=1.0)).candidates
    assert n[0] == n[1]  # fixed point collapses to the closed form exactly
    assert n[2] == 1.0 and n[3] == 1.0


def test_candidates_symmetric_preferences():
    p = replace(BASE_PARAMS, gamma_C=3.0, gamma_M=3.0, alpha_C=0.5, alpha_M=0.5)
    n = equilibrium(MarketState(0.5), p).candidates
    assert n[1] == 0.5  # identical preferences split the market


def test_candidates_regression_pins():
    # fixed-point roots at the baseline calibration, frozen from the first
    # bisection run (g-residual ~ 3e-13 at the pinned values)
    n = equilibrium(MarketState(0.5), BASE_PARAMS).candidates
    assert math.isclose(n[0], 0.6249698362252676, rel_tol=0, abs_tol=2e-12)
    assert math.isclose(n[1], 0.6939768385893154, rel_tol=1e-14)
    assert n[2] == 1.0 / (1.0 + 0.4 * 3.0)
    n9 = equilibrium(MarketState(0.9), BASE_PARAMS).candidates
    assert math.isclose(n9[0], 0.2670761695443652, rel_tol=0, abs_tol=2e-12)
    assert all(0.0 <= v <= 1.0 for v in n + n9)


# ---------------------------------------------------------------------------
# Exponential-family oracle: independent evaluation of every price formula


def exponential_reference(state, params, n_C, x):
    """All equilibrium price formulas written directly in their
    exponential-family form (beta theta_C, beta theta_M exponents), as an independent
    oracle for the package's form in the ratio varphi = exp(beta Lambda)
    (varphi**theta_i, log-derivatives beta and beta^2)."""
    d = derive_constants(params)
    y, L, lam = state.y, state.Lambda, state.lambda_small
    H, eps, sD = params.H, params.epsilon, params.sigma_D
    h, bC, bM = d.h, d.beta * d.theta_C, d.beta * d.theta_M
    b = d.beta
    rho, k, lC, lM = params.rho, params.k, params.l_C, params.l_M
    net = 1.0 - lC - lM
    s2H, eh = math.sqrt(2 * H), eps**h
    qC = rho ** (1 / d.delta_C) * math.exp(bC * L)
    qM = rho ** (1 / d.delta_M) * math.exp(bM * L)
    A = sD - (h / eps) * (bC * (1 - y) + bM * y)
    Bn = n_C * qC + (1 - n_C) * qM
    Cd = (1 - y) / qC + y / qM
    sigma = A / (Bn * Cd)
    kappa = s2H * eh * d.delta_M * qM * (1 - n_C) * A / (y * Bn)
    r = (
        params.mu_D + sD * L
        - n_C * sigma * (s2H * eh * kappa + 2 * H * h * eps ** (2 * h - 1) * bC)
        * (1 - y + y * rho ** (1 / d.delta_C - 1 / d.delta_M) * math.exp((bC - bM) * L))
        - lC * qC
        - (1 - n_C) * sigma * (s2H * eh * kappa + 2 * H * h * eps ** (2 * h - 1) * bM)
        * (y + (1 - y) * rho ** (1 / d.delta_M - 1 / d.delta_C) * math.exp((bM - bC) * L))
        - lM * qM
        + (1 - y) * (qC - bC * lam - H * h * h * eps ** (2 * h - 2) * bC**2)
        + y * (qM - bM * lam - H * h * h * eps ** (2 * h - 2) * bM**2)
        - (x - k * x * x / 2) * net * qC
        - (k * x * x / 2) * net * qM
    )
    mu = r - sigma * L + s2H * eh * kappa * sigma - (1 - x) * net / Cd
    sigma_y = y * (kappa / (s2H * eh * d.delta_M) + bM * (h / eps) - sD)
    mu_y = (
        -sigma_y * (L + 2 * H * eps ** (2 * h) * sD)
        + lM * qM
        + (k * x * x / 2) * net * qM
        + y * (
            r - params.mu_D - sD * L + kappa**2 / d.delta_M
            + s2H * h * eps ** (h - 1) * bM * kappa / d.delta_M
            - qM + bM * lam + H * h * h * eps ** (2 * h - 2) * bM**2
        )
    )
    D_S = net / Cd
    return dict(r=r, mu=mu, sigma=sigma, kappa=kappa, sigma_y=sigma_y, mu_y=mu_y,
                D_over_S=D_S, c_coeff_C=qC, c_coeff_M=qM, beta_check=b)


@pytest.mark.parametrize("y", [0.05, 0.3, 0.5, 0.77, 0.95])
@pytest.mark.parametrize("L", [-5.0, 0.0, 2.0])
def test_general_formulas_match_exponential_forms(y, L):
    state = MarketState(y, L, lambda_small=0.4)
    eq = equilibrium(state, BASE_PARAMS)
    assert eq.exists
    ref = exponential_reference(state, BASE_PARAMS, eq.n_C, eq.x_star)
    for f in ("r", "mu", "sigma", "kappa", "sigma_y", "mu_y", "D_over_S",
              "c_coeff_C", "c_coeff_M"):
        assert math.isclose(getattr(eq, f), ref[f], rel_tol=1e-12, abs_tol=1e-15), f


# ---------------------------------------------------------------------------
# Equilibrium invariants


def assert_invariants(eq, params):
    d = derive_constants(params)
    y = eq.state.y
    assert eq.n_M == 1.0 - eq.n_C  # market clearing
    assert eq.x_star == x_star(eq.n_C, params.k, params.p)
    assert eq.x_star <= (1.0 - params.p) * eq.n_C + 1e-18
    # Sharpe consistency: definitional kappa from the filled mu
    s2H, eh = math.sqrt(2 * params.H), params.epsilon**d.h
    kap = (eq.mu - eq.r + (1.0 - eq.x_star) * eq.D_over_S + eq.sigma * eq.state.Lambda) / (
        s2H * eh * eq.sigma
    )
    assert math.isclose(kap, eq.kappa, rel_tol=1e-10, abs_tol=1e-14)
    # wealth-share ratio identities sum to one
    wC_S = (1 - y) / eq.c_coeff_C / ((1 - y) / eq.c_coeff_C + y / eq.c_coeff_M)
    wM_S = y / eq.c_coeff_M / ((1 - y) / eq.c_coeff_C + y / eq.c_coeff_M)
    assert abs(wC_S + wM_S - 1.0) <= 1e-12
    assert math.isclose(eq.D_over_S * eq.S_over_WC, eq.D_over_WC, rel_tol=1e-12)


@pytest.mark.parametrize("y", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("p", [0.3, 0.6, 0.9, 1.0])
@pytest.mark.parametrize("L", [-5.0, 0.0, 5.0])
def test_equilibrium_invariants_grid(y, p, L):
    eq = equilibrium(MarketState(y, L), replace(BASE_PARAMS, p=p))
    assert eq.exists and eq.region in (1, 2, 3, 4)
    assert_invariants(eq, replace(BASE_PARAMS, p=p))


@settings(max_examples=40, deadline=None)
@given(
    y=st.floats(0.02, 0.98),
    p=st.floats(0.0, 1.0),
    L=st.floats(-5.0, 5.0),
    lam=st.floats(-1.0, 1.0),
)
def test_equilibrium_invariants_property(y, p, L, lam):
    params = replace(BASE_PARAMS, p=p)
    eq = equilibrium(MarketState(y, L, lam), params)
    if eq.exists:
        assert_invariants(eq, params)


def test_full_protection_matches_benchmark_bitwise():
    for y in (0.1, 0.5, 0.9):
        for L in (-5.0, 0.0, 5.0):
            st_ = MarketState(y, L, 0.3)
            eq = equilibrium(st_, replace(BASE_PARAMS, p=1.0))
            bench = benchmark_equilibrium(st_, BASE_PARAMS)
            assert eq.region == bench.region == 2
            assert eq.x_star == bench.x_star == 0.0
            for f in ("n_C", "n_M", "r", "mu", "sigma", "kappa", "mu_y", "sigma_y",
                      "D_over_S", "mu_H", "sigma_H", "mu_G"):
                assert getattr(eq, f) == getattr(bench, f), f


def test_benchmark_holding_closed_form():
    # frozen against a 40-digit evaluation of the closed form
    b = benchmark_equilibrium(MarketState(0.5), BASE_PARAMS)
    assert math.isclose(b.n_C, 0.6939768385893154, rel_tol=1e-14)


@pytest.mark.parametrize("y", [0.0, 1.0])
def test_benchmark_rejects_boundary_y(y):
    with pytest.raises(ValueError, match=r"^benchmark equilibrium requires y strictly inside \(0, 1\)$"):
        benchmark_equilibrium(MarketState(y, 0.0), BASE_PARAMS)


def test_benchmark_identical_preferences():
    p = replace(BASE_PARAMS, gamma_C=3.0, gamma_M=3.0, alpha_C=0.5, alpha_M=0.5)
    for y in (0.2, 0.5, 0.8):
        b = benchmark_equilibrium(MarketState(y), p)
        assert math.isclose(b.n_C, 1.0 - y, rel_tol=1e-14)


def test_benchmark_good_memory_raises_modified_volatility():
    # when good memory raises the benchmark holding it also raises sigma_H
    b0 = benchmark_equilibrium(MarketState(0.5, 0.0), BASE_PARAMS)
    b5 = benchmark_equilibrium(MarketState(0.5, 5.0), BASE_PARAMS)
    assert b5.n_C > b0.n_C
    assert b5.sigma_H > b0.sigma_H


# ---------------------------------------------------------------------------
# Worked non-existence scenario (partial-equilibrium view)


def handed_prices(region4: bool) -> Prices:
    rho, sD = NOEQ.rho, NOEQ.sigma_D
    mu_D = NOEQ.mu_D
    r = mu_D + rho / 2 if region4 else mu_D - sD**2 + 0.375 * rho
    return Prices(r=r, mu=mu_D, sigma=sD, D_over_S=rho / 2, D_over_WC=rho,
                  S_over_WC=2.0, S_over_WM=2.0)


def handed_J(n, region4, delta_C):
    # objective at the handed prices, re-derived term by term
    rho, sD, k, p = NOEQ.rho, NOEQ.sigma_D, NOEQ.k, NOEQ.p
    x = min((1 - n) / k, (1 - p) * n)
    mu_minus_r = -rho / 2 if region4 else sD**2 - 0.375 * rho
    return (
        2 * n * (mu_minus_r + (1 - x) * rho / 2)
        + x * rho - k * x * x / 2 * rho
        - 0.5 * delta_C * (2 * sD) ** 2 * n * n
    )


def test_partial_policies_on_handed_prices():
    state = MarketState(0.5)
    pol = partial_policies(handed_prices(False), state, NOEQ)
    d = derive_constants(NOEQ)
    # price-based candidate closed forms at these prices
    n1 = (NOEQ.sigma_D**2 + 3 * NOEQ.rho / 8) / (2 * d.delta_C * NOEQ.sigma_D**2 + 0.75 * NOEQ.rho)
    n2 = (NOEQ.sigma_D**2 - NOEQ.rho / 8) / (2 * d.delta_C * NOEQ.sigma_D**2 - NOEQ.rho / 4)
    assert math.isclose(pol.n_C_candidates[0], n1, rel_tol=1e-13)
    assert math.isclose(pol.n_C_candidates[1], n2, rel_tol=1e-13)
    assert pol.n_C_candidates[2] == 0.5
    assert pol.n_C_candidates[3] == 1.0
    for i, n in enumerate(pol.n_C_candidates):
        assert math.isclose(pol.J_values[i], handed_J(n, False, d.delta_C), rel_tol=1e-12)
    # full ownership wins at these prices, so the chosen diversion is zero
    assert pol.n_C == 1.0 and pol.x_star == 0.0
    assert pol.c_coeff_C == NOEQ.rho ** (1 / d.delta_C)


def test_partial_policies_memory_is_monotone():
    # raising Lambda with all else fixed raises the interior candidates and
    # the minority holding whenever their denominators are positive
    params = replace(BASE_PARAMS, alpha_C=1.0, alpha_M=1.0, beta1=0.0)  # isolate the price channel
    prices = Prices(r=0.01, mu=0.05, sigma=0.2, D_over_S=0.03, D_over_WC=0.05,
                    S_over_WC=1.5, S_over_WM=2.5)
    prev = None
    for L in (-1.0, 0.0, 1.0, 3.0):
        pol = partial_policies(prices, MarketState(0.5, L), params)
        if prev is not None:
            assert pol.n_C_candidates[0] > prev.n_C_candidates[0]
            assert pol.n_C_candidates[1] > prev.n_C_candidates[1]
            assert pol.n_M > prev.n_M
        prev = pol


def test_partial_policies_excludes_degenerate_candidates():
    # a vanishing second denominator flags the candidate unavailable
    d = derive_constants(BASE_PARAMS)
    sigma, S_WC = 0.2, 1.5
    den0 = 2 * BASE_PARAMS.H * BASE_PARAMS.epsilon ** (2 * d.h) * d.delta_C * S_WC * sigma**2
    D_S = den0 * BASE_PARAMS.k  # makes den0 - D_S/k exactly zero
    prices = Prices(r=0.01, mu=0.05, sigma=sigma, D_over_S=D_S, D_over_WC=0.05,
                    S_over_WC=S_WC, S_over_WM=2.5)
    pol = partial_policies(prices, MarketState(0.5), BASE_PARAMS)
    assert not pol.available[1]
    assert math.isnan(pol.J_values[1])
    assert pol.n_C in pol.n_C_candidates


def test_partial_policies_validates_inputs():
    with pytest.raises(ValueError):
        partial_policies(Prices(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0), MarketState(0.5), BASE_PARAMS)
    with pytest.raises(ValueError):
        partial_policies(Prices(0.0, 0.0, 0.1, -1.0, 1.0, 1.0, 1.0), MarketState(0.5), BASE_PARAMS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["r", "mu", "sigma", "D_over_S", "D_over_WC", "S_over_WC", "S_over_WM"])
def test_partial_policies_rejects_non_finite_prices(field, value):
    # a NaN price makes every objective NaN, and argmax would then "choose" the kink
    prices = replace(handed_prices(False), **{field: value})
    with pytest.raises(ValueError, match=rf"^partial policies need finite prices, got {field}="):
        partial_policies(prices, MarketState(0.5), NOEQ)


def test_nonexistence_detected():
    res = equilibrium(MarketState(0.5), NOEQ)
    assert not res.exists
    assert res.region == "nonexistent"
    assert math.isnan(res.r)
    assert set(res.J_tables) == {1, 2, 3, 4}
    assert res.candidates[3] == 1.0


# ---------------------------------------------------------------------------
# Boundary states


def test_boundary_y_one():
    d = derive_constants(BASE_PARAMS)
    b = boundary_equilibrium(MarketState(1.0, 0.7), BASE_PARAMS)
    assert b.region == "boundary" and b.exists
    assert b.n_C == 0.0 and b.n_M == 1.0 and b.x_star == 0.0
    sigma1 = BASE_PARAMS.sigma_D - (d.h / BASE_PARAMS.epsilon) * d.beta * d.theta_M
    assert math.isclose(b.sigma, sigma1, rel_tol=1e-14)
    kappa1 = math.sqrt(2 * BASE_PARAMS.H) * BASE_PARAMS.epsilon**d.h * d.delta_M * sigma1
    assert math.isclose(b.kappa, kappa1, rel_tol=1e-14)
    assert b.sigma_y == 0.0


def test_boundary_y_zero_full_protection():
    d = derive_constants(BASE_PARAMS)
    b = boundary_equilibrium(MarketState(0.0, 0.7), replace(BASE_PARAMS, p=1.0))
    assert b.n_C == 1.0 and b.x_star == 0.0
    sigma0 = BASE_PARAMS.sigma_D - (d.h / BASE_PARAMS.epsilon) * d.beta * d.theta_C
    assert math.isclose(b.sigma, sigma0, rel_tol=1e-14)
    kappa0 = math.sqrt(2 * BASE_PARAMS.H) * BASE_PARAMS.epsilon**d.h * d.delta_C * sigma0
    assert math.isclose(b.kappa, kappa0, rel_tol=1e-14)
    # mu_y(0) reduces to the labor term of the minority shareholder
    varphi_tM = math.exp(d.beta * d.theta_M * 0.7)
    qM = BASE_PARAMS.rho ** (1 / d.delta_M) * varphi_tM
    assert math.isclose(b.mu_y, BASE_PARAMS.l_M * qM, rel_tol=1e-13)
    assert b.sigma_y == 0.0


def test_boundary_y_zero_memoryless_reduction():
    p = replace(BASE_PARAMS, beta1=0.0, p=1.0)
    b = boundary_equilibrium(MarketState(0.0, 0.0), p)
    assert b.sigma == p.sigma_D


def test_boundary_rejects_interior_y():
    with pytest.raises(ValueError):
        boundary_equilibrium(MarketState(0.5), BASE_PARAMS)


def test_boundary_y_zero_has_one_branch(monkeypatch):
    # Region 4 is never self-consistent, so kappa(0) is the protected limit at
    # every p and Lambda, Lambda = -13 included, where no interior state near
    # y = 0 has an equilibrium
    d = derive_constants(BASE_PARAMS)
    sigma0 = BASE_PARAMS.sigma_D - (d.h / BASE_PARAMS.epsilon) * d.beta * d.theta_C
    kappa0 = math.sqrt(2 * BASE_PARAMS.H) * BASE_PARAMS.epsilon**d.h * d.delta_C * sigma0
    for p in (0.0, 0.6):
        b = boundary_equilibrium(MarketState(0.0), replace(BASE_PARAMS, p=p))
        assert math.isclose(b.kappa, kappa0, rel_tol=1e-14)
    assert equilibrium(MarketState(1e-4, -13.0), BASE_PARAMS).region == "nonexistent"
    b = equilibrium(MarketState(0.0, -13.0), BASE_PARAMS)
    assert b.region == "boundary" and math.isclose(b.kappa, kappa0, rel_tol=1e-14)
    # a scalar y = 0 solve is one 0-d batch: that one state, as a numpy scalar
    eqmod = importlib.import_module("fbmecon.equilibrium")
    shapes, context = [], eqmod._context
    monkeypatch.setattr(eqmod, "_context", lambda P, y, *a: shapes.append(np.shape(y)) or context(P, y, *a))
    equilibrium(MarketState(0.0), BASE_PARAMS)
    assert shapes == [()]


def test_equilibrium_routes_boundaries():
    b = equilibrium(MarketState(0.0), BASE_PARAMS)
    assert b.region == "boundary" and b.n_C == 1.0
    t = equilibrium(MarketState(1.0), BASE_PARAMS)
    assert t.region == "boundary" and t.n_C == 0.0


# ---------------------------------------------------------------------------
# Benchmark differences


def test_differences_vanish_in_region_two():
    st_ = MarketState(0.3)
    eq = equilibrium(st_, BASE_PARAMS)
    assert eq.region == 2
    bench = benchmark_equilibrium(st_, BASE_PARAMS)
    ds, dk, dsy = benchmark_differences(st_, BASE_PARAMS, eq, bench)
    assert ds == 0.0 and dk == 0.0 and dsy == 0.0


@pytest.mark.parametrize("y", [0.8, 0.9, 0.95])
@pytest.mark.parametrize("L", [-5.0, 0.0, 5.0])
def test_differences_match_direct_solves(y, L):
    st_ = MarketState(y, L)
    eq = equilibrium(st_, BASE_PARAMS)
    assert eq.region == 1
    bench = benchmark_equilibrium(st_, BASE_PARAMS)
    ds, dk, dsy = benchmark_differences(st_, BASE_PARAMS, eq, bench)
    assert math.isclose(ds, eq.sigma - bench.sigma, rel_tol=1e-10, abs_tol=1e-16)
    assert math.isclose(dk, eq.kappa - bench.kappa, rel_tol=1e-10, abs_tol=1e-16)
    assert math.isclose(dsy, eq.sigma_y - bench.sigma_y, rel_tol=1e-10, abs_tol=1e-16)
    # excess concentration lowers the Sharpe ratio while A > 0
    d = derive_constants(BASE_PARAMS)
    A = BASE_PARAMS.sigma_D - (d.h / BASE_PARAMS.epsilon) * (
        d.beta * d.theta_C * (1 - y) + d.beta * d.theta_M * y
    )
    assert A > 0
    assert math.copysign(1.0, dk) == -math.copysign(1.0, eq.n_C - bench.n_C)


@pytest.mark.parametrize("L", [1e4, -1e4])
@pytest.mark.parametrize("entry", [partial_policies, benchmark_differences],
                         ids=["partial_policies", "benchmark_differences"])
def test_context_entry_points_raise_the_state_error(entry, L):
    # exp(beta Lambda) overflows at +1e4 and its power underflows at -1e4: a state
    # that equilibrium rejects must not be priced from its non-finite ratios
    state, inside = MarketState(0.5, L), MarketState(0.5)
    with pytest.raises(EquilibriumError) as expected:
        equilibrium(state, BASE_PARAMS)
    args = ((handed_prices(False), state, BASE_PARAMS) if entry is partial_policies else
            (state, BASE_PARAMS, equilibrium(inside, BASE_PARAMS), benchmark_equilibrium(inside, BASE_PARAMS)))
    with pytest.raises(EquilibriumError) as raised:
        entry(*args)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Derived quantities and degeneracies


def test_derived_quantities_identities():
    eq = equilibrium(MarketState(0.4, 2.0), BASE_PARAMS)
    assert eq.mu_H == eq.mu + eq.sigma * 2.0
    assert math.isclose(
        eq.sigma_H, math.sqrt(2 * BASE_PARAMS.H) * BASE_PARAMS.epsilon**0.15 * eq.sigma,
        rel_tol=1e-15,
    )
    assert eq.mu_G == eq.mu_H + (1.0 - eq.x_star) * eq.D_over_S


def test_derived_quantities_degenerate_cases():
    half = replace(BASE_PARAMS, H=0.5)
    eq = equilibrium(MarketState(0.4), half)
    assert eq.sigma_H == eq.sigma  # sqrt(2 * 1/2) eps^0 = 1
    eq0 = equilibrium(MarketState(0.4, 0.0), BASE_PARAMS)
    assert eq0.mu_H == eq0.mu
    b = equilibrium(MarketState(0.4), replace(BASE_PARAMS, p=1.0))
    assert b.x_star == 0.0
    assert b.mu_G == b.mu_H + b.D_over_S


def test_small_memory_level_enters_only_rate_and_drift():
    # lambda (the second memory process) feeds only r and mu_y; everything
    # else, including the volatility block, is lambda-free
    a = equilibrium(MarketState(0.6, 1.0, 0.0), BASE_PARAMS)
    b = equilibrium(MarketState(0.6, 1.0, 2.0), BASE_PARAMS)
    for f in ("n_C", "x_star", "sigma", "kappa", "sigma_y", "sigma_H", "D_over_S"):
        assert getattr(a, f) == getattr(b, f), f
    assert a.r != b.r
    assert a.mu_y != b.mu_y
    # mu, mu_H, mu_G shift with r by construction
    assert math.isclose(b.mu - a.mu, b.r - a.r, rel_tol=1e-12)


def test_memoryless_sigma_ignores_lambda():
    # H = 1/2 with alpha = 1: sigma evaluated at Lambda in {-5, 0, 5} is equal
    params = replace(BASE_PARAMS, H=0.5, alpha_C=1.0, alpha_M=1.0)
    for y in (0.2, 0.5, 0.8):
        sig = {L: equilibrium(MarketState(y, L), params).sigma for L in (-5.0, 0.0, 5.0)}
        assert sig[-5.0] == sig[0.0] == sig[5.0]


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_shape_and_order():
    rows = sweep(BASE_PARAMS, [0.2, 0.5], [1.0, 0.6], [0.0, 5.0])
    assert len(rows) == 8
    assert [r.y for r in rows] == [0.2] * 4 + [0.5] * 4
    assert [r.p for r in rows[:4]] == [1.0, 1.0, 0.6, 0.6]
    assert [r.Lambda for r in rows[:2]] == [0.0, 5.0]
    assert all(r.result is not None and r.error is None for r in rows)


def test_sweep_includes_boundaries():
    rows = sweep(BASE_PARAMS, [0.0, 1.0], [0.6], [0.0])
    assert rows[0].result.region == "boundary"
    assert rows[0].result.n_C == 1.0
    assert rows[1].result.n_C == 0.0


def test_sweep_captures_row_failures():
    rows = sweep(BASE_PARAMS, [0.5], [0.6], [float("nan")])
    assert rows[0].result is None
    assert rows[0].error
