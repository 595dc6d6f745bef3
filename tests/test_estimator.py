import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fbmecon import (
    BASE_PARAMS,
    TimeGrid,
    classify_memory,
    convergence_study,
    estimate_memory,
    euler_reference,
    kernel_sums,
    memory_exact,
    simulate_brownian,
    simulate_bundle,
    simulate_output,
)
from fbmecon.paths import _kernel


@pytest.mark.parametrize("H", [0.35, 0.5, 0.65, 0.8])
@pytest.mark.parametrize("seed", [0, 7])
def test_roundtrip_recovers_increments(H, seed):
    # feeding the Euler output path back through the estimator returns the
    # true increments, hence the reference memory paths, up to rounding
    params = replace(BASE_PARAMS, H=H)
    grid = TimeGrid(1.0, 512)
    dw = simulate_brownian(grid, seed)
    ref = euler_reference(dw, grid, params)
    est = estimate_memory(ref.Z, grid, params)
    scale = max(1.0, float(np.max(np.abs(dw))))
    assert np.max(np.abs(est.dw_hat - dw)) <= 1e-10 * scale
    assert np.max(np.abs(est.Lambda_hat - ref.Lambda)) <= 1e-10 * scale
    assert np.max(np.abs(est.lambda_hat - ref.lambda_small)) <= 1e-10 * scale


def test_roundtrip_at_a_million_steps():
    # N = 2^20, the length of a year or two of minute bars: the FFT recovery
    # keeps criterion 5's round-trip bound and takes seconds, not hours
    t0 = time.monotonic()
    grid = TimeGrid(1.0, 1 << 20)
    dw = simulate_brownian(grid, 2020)
    ref = euler_reference(dw, grid, BASE_PARAMS)
    est = estimate_memory(ref.Z, grid, BASE_PARAMS)
    scale = max(1.0, float(np.max(np.abs(dw))))
    assert np.max(np.abs(est.dw_hat - dw)) <= 1e-10 * scale
    assert np.max(np.abs(est.Lambda_hat - ref.Lambda)) <= 1e-10 * scale
    assert np.max(np.abs(est.lambda_hat - ref.lambda_small)) <= 1e-10 * scale
    assert time.monotonic() - t0 <= 60.0


def test_half_hurst_collapses_to_zero_memory():
    # any input series gives exactly zero memory at H = 1/2
    params = replace(BASE_PARAMS, H=0.5)
    grid = TimeGrid(1.0, 200)
    rng = np.random.Generator(np.random.PCG64(5))
    Z = np.cumsum(np.concatenate(([0.0], rng.standard_normal(grid.N) * 0.01)))
    est = estimate_memory(Z, grid, params)
    assert np.all(est.Lambda_hat == 0.0)
    assert np.all(est.lambda_hat == 0.0)
    assert np.all(np.isfinite(est.dw_hat))


@pytest.mark.parametrize("H", [0.35, 0.5, 0.65])
def test_recovered_memory_is_kernel_sums_of_recovered_increments(H):
    # every kernel sum comes from one routine: the Lambda_hat the recursion
    # feeds back and the lambda_hat summed after it are kernel_sums, bitwise
    params = replace(BASE_PARAMS, H=H)
    grid = TimeGrid(1.0, 300)
    ref = euler_reference(simulate_brownian(grid, 4), grid, params)
    est = estimate_memory(ref.Z, grid, params)
    for order, got in ((1, est.Lambda_hat), (2, est.lambda_hat)):
        direct = kernel_sums(est.dw_hat, grid.dt, params.epsilon, *_kernel(params, order))
        assert np.array_equal(got, direct)


def test_initial_values_are_zero():
    grid = TimeGrid(1.0, 64)
    est = estimate_memory(np.zeros(grid.N + 1), grid, BASE_PARAMS)
    assert est.Lambda_hat[0] == 0.0 and est.lambda_hat[0] == 0.0
    assert len(est.dw_hat) == grid.N
    assert len(est.Lambda_hat) == grid.N + 1


def test_estimator_input_validation():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        estimate_memory(np.zeros(8), grid, BASE_PARAMS)
    bad = np.zeros(9)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        estimate_memory(bad, grid, BASE_PARAMS)
    with pytest.raises(ValueError, match=r"^invalid parameters: sigma_D must be positive"):
        estimate_memory(np.zeros(9), grid, replace(BASE_PARAMS, sigma_D=0.0))
    with pytest.raises(ValueError, match=r"^invalid parameters: gamma_M must be >= gamma_C"):
        estimate_memory(np.zeros(9), grid, replace(BASE_PARAMS, gamma_C=3.6))


# ---------------------------------------------------------------------------
# Euler reference schemes


def test_euler_reference_matches_memory_exact_bitwise():
    grid = TimeGrid(1.0, 300)
    dw = simulate_brownian(grid, 21)
    ref = euler_reference(dw, grid, BASE_PARAMS)
    big, small = memory_exact(grid, dw, BASE_PARAMS, refine=1)
    assert np.array_equal(ref.Lambda, big)
    assert np.array_equal(ref.lambda_small, small)


def test_euler_reference_zero_noise():
    params = BASE_PARAMS
    grid = TimeGrid(1.0, 128)
    ref = euler_reference(np.zeros(grid.N), grid, params)
    assert np.all(ref.Lambda == 0.0)
    h = params.H - 0.5
    drift = params.mu_D - params.H * params.epsilon ** (2 * h) * params.sigma_D**2
    assert np.allclose(ref.Z, drift * grid.nodes(), rtol=1e-13, atol=1e-18)


def test_euler_reference_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"^expected 8 increments, got shape \(7,\)$"):
        euler_reference(np.zeros(7), TimeGrid(1.0, 8), BASE_PARAMS)


def test_euler_reference_validates_parameters():
    # the gate fires before any kernel is evaluated: no sqrt of a negative H
    bad = replace(BASE_PARAMS, H=-0.5)
    message = r"^invalid parameters: H must lie in \(0, 1\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            euler_reference(np.full(8, 0.1), TimeGrid(1.0, 8), bad)
        with pytest.raises(ValueError, match=message):
            convergence_study(bad, 1.0, 64, (2, 4), 1)


def test_euler_variance_discrete_sum():
    # Var[Lambda_T] of the Euler reference equals the exact discrete Gaussian variance
    params = BASE_PARAMS
    grid = TimeGrid(1.0, 256)
    h = params.H - 0.5
    t_k = np.arange(grid.N) * grid.dt
    w = math.sqrt(2 * params.H) * h * (grid.T - t_k + params.epsilon) ** (h - 1.0)
    exact_var = float(np.sum(w**2) * grid.dt)
    nsim = 10_000
    rng = np.random.Generator(np.random.PCG64(99))
    dws = rng.standard_normal((nsim, grid.N)) * math.sqrt(grid.dt)
    ref0 = euler_reference(dws[0], grid, params)
    samples = dws @ w
    assert math.isclose(samples[0], ref0.Lambda[-1], rel_tol=1e-12)
    se = exact_var * math.sqrt(2.0 / (nsim - 1))
    assert abs(samples.var(ddof=1) - exact_var) <= 4.0 * se


def test_one_step_coefficient_identity():
    # the output step is the affine form a_{n,0} + sum_k a_{n,k+1} dw_{k+1}:
    # grouped as drift + (sigma_D dt) * kernel sum + vol * dw its cumulative
    # sum is the output path bitwise, and the literal coefficient-matrix
    # evaluation agrees to rounding (floats cannot reassociate the sum bitwise)
    params = BASE_PARAMS
    grid = TimeGrid(1.0, 128)
    dw = simulate_brownian(grid, 17)
    h = params.H - 0.5
    root = math.sqrt(2 * params.H)
    lam = kernel_sums(dw, grid.dt, params.epsilon, root * h, h - 1.0)
    Z, _ = simulate_output(grid, dw, lam, params)
    a0 = (params.mu_D - params.H * params.epsilon ** (2 * h) * params.sigma_D**2) * grid.dt
    vol = root * params.epsilon**h * params.sigma_D
    factored = a0 + (params.sigma_D * grid.dt) * lam[: grid.N] + vol * dw
    assert np.array_equal(Z, np.concatenate(([0.0], np.cumsum(factored))))
    # literal a_{n,k} coefficients
    for n in (0, 1, 5, 127):
        t_n = n * grid.dt
        a = root * h * (t_n - np.arange(n) * grid.dt + params.epsilon) ** (h - 1.0) \
            * params.sigma_D * grid.dt
        lit = a0 + float(a @ dw[:n]) + vol * dw[n]
        assert math.isclose(lit, factored[n], rel_tol=1e-12, abs_tol=1e-18)


def test_kernel_sign_convention():
    # persistent H: positive weights, so constant positive increments build
    # positive memory; antipersistent H flips the sign
    grid = TimeGrid(1.0, 100)
    dw = np.full(grid.N, 0.01)
    for H, sign in ((0.65, 1.0), (0.35, -1.0)):
        params = replace(BASE_PARAMS, H=H)
        ref = euler_reference(dw, grid, params)
        est = estimate_memory(ref.Z, grid, params)
        assert np.all(sign * est.Lambda_hat[1:] > 0)
        h = H - 0.5
        weights = math.sqrt(2 * H) * h * (grid.dt * np.arange(1, grid.N + 1)
                                          + params.epsilon) ** (h - 1.0)
        assert np.all(sign * weights > 0)


def test_classify_memory():
    assert classify_memory(0.2) == "good"
    assert classify_memory(-0.2) == "bad"
    assert classify_memory(0.0) == "none"
    assert classify_memory(5e-13) == "none"  # dead band
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            classify_memory(level)


@pytest.mark.parametrize("N", [1024, 2048])
def test_overflowing_recovery_raises(N):
    # H = 0.98 and epsilon = 1e-5 on a coarse grid: the Toeplitz inverse
    # overflows, and the recovery says so instead of returning NaN memory
    params = replace(BASE_PARAMS, H=0.98, epsilon=1e-5)
    grid = TimeGrid(1.0, N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the small-epsilon advisory
        Z = simulate_bundle(grid, params, seed=0, refine=4).Z
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match=f"H = 0.98, epsilon = 1e-05, N = {N}: use a finer grid"):
            estimate_memory(Z, grid, params)


@pytest.mark.parametrize("H, eps, kappa", [(0.9, 1e-4, 6.4e12), (0.8, 1e-5, 1.25e25), (0.9, 1e-5, 1.67e147)])
def test_ill_conditioned_recovery_raises(H, eps, kappa):
    # on 256 steps the solve stays finite but rounding grows like kappa_1:
    # these recoveries were off by 1.7e-3 to 7e131 of max|dw|, and are refused
    params = replace(BASE_PARAMS, H=H, epsilon=eps)
    grid = TimeGrid(1.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the small-epsilon advisory
        Z = simulate_bundle(grid, params, seed=3, refine=4).Z
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match=rf"ill-conditioned \(kappa_1 = \S+\) at H = {H:g}, "
                                                     rf"epsilon = {eps:g}, N = 256: use a finer grid") as info:
            estimate_memory(Z, grid, params)
    assert float(re.search(r"kappa_1 = (\S+)\)", str(info.value))[1]) == pytest.approx(kappa, rel=1e-2)


def test_well_conditioned_steep_recovery_passes():
    # H = 0.98, epsilon = 1e-5 recovers on 8192 steps (kappa_1 about 3.2e3)
    params = replace(BASE_PARAMS, H=0.98, epsilon=1e-5)
    grid = TimeGrid(1.0, 8192)
    dw = simulate_brownian(grid, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the small-epsilon advisory
        warnings.simplefilter("error", RuntimeWarning)
        est = estimate_memory(euler_reference(dw, grid, params).Z, grid, params)
    assert np.max(np.abs(est.dw_hat - dw)) <= 1e-10 * np.max(np.abs(dw))


# ---------------------------------------------------------------------------
# Convergence study


def test_convergence_study_small():
    rep = convergence_study(BASE_PARAMS, 1.0, 2**11, (8, 16, 32), seeds=12, base_seed=1)
    assert list(rep.factors) == [32, 16, 8]
    assert np.all(np.diff(rep.dt_values) < 0)  # strictly decreasing
    assert np.all(np.diff(rep.median_err_Lambda) < 0)
    assert np.all(np.diff(rep.median_err_lambda) < 0)
    assert rep.fitted_rate >= 0.15
    assert rep.fitted_rate == min(rep.fitted_rate_Lambda, rep.fitted_rate_lambda)
    assert rep.max_errors_Lambda.shape == (12, 3)
    assert rep.seeds == 12


def test_convergence_factor_one_is_degenerate():
    rep = convergence_study(BASE_PARAMS, 1.0, 2**10, (1, 8, 16), seeds=4, base_seed=2)
    assert list(rep.factors) == [16, 8, 1]
    # coarse == fine round-trips exactly: error at factor 1 is pure rounding
    assert np.max(rep.max_errors_Lambda[:, -1]) < 1e-10
    assert np.max(rep.max_errors_Lambda[:, 0]) > 1e-6
    # and the fit ignores the degenerate column
    logs = np.log(rep.median_err_Lambda[:2])
    slope = np.polyfit(np.log(rep.dt_values[:2]), logs, 1)[0]
    assert math.isclose(rep.fitted_rate_Lambda, float(slope), rel_tol=1e-12)


def test_convergence_rejects_bad_factors():
    with pytest.raises(ValueError):
        convergence_study(BASE_PARAMS, 1.0, 2**10, (7, 16), seeds=2)
    with pytest.raises(ValueError):
        convergence_study(BASE_PARAMS, 1.0, 2**10, (8,), seeds=2)
    with pytest.raises(ValueError):
        convergence_study(BASE_PARAMS, 1.0, 2**10, (1, 8), seeds=2)
    with pytest.raises(ValueError):
        convergence_study(BASE_PARAMS, 1.0, 2**10, (8, 16), seeds=0)
    # a factor or seed count that is not an integer >= 1 is refused, not truncated
    with pytest.raises(ValueError, match="coarse factor must be an integer, got 2.5"):
        convergence_study(BASE_PARAMS, 1.0, 64, [2.5, 4.9], 1)
    with pytest.raises(ValueError, match="seed count must be an integer, got 2.5"):
        convergence_study(BASE_PARAMS, 1.0, 2**10, (8, 16), seeds=2.5)
    with pytest.raises(ValueError, match="coarse factor must be >= 1"):
        convergence_study(BASE_PARAMS, 1.0, 64, (0, 8, 16), seeds=1)


def test_convergence_monotone_decay_many_seeds():
    # pathwise decay: median sup error monotone across adjacent dt pairs
    rep = convergence_study(BASE_PARAMS, 1.0, 2**10, (4, 8, 16, 32), seeds=50, base_seed=9)
    pairs_L = np.diff(rep.median_err_Lambda) < 0
    pairs_l = np.diff(rep.median_err_lambda) < 0
    frac = (pairs_L.sum() + pairs_l.sum()) / (len(pairs_L) + len(pairs_l))
    assert frac >= 0.9
