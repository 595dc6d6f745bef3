import math
from dataclasses import replace

import numpy as np
import pytest

from fbmecon import (
    BASE_PARAMS,
    TimeGrid,
    kernel_sums,
    memory_exact,
    simulate_brownian,
    simulate_bundle,
    simulate_output,
)
from fbmecon.csvio import read_t_z_csv, write_path_csv
from fbmecon.paths import _kernel


def closed_form_var_wh(T, eps, H):
    return (T + eps) ** (2 * H) - eps ** (2 * H)


def closed_form_var_Lambda(T, eps, H):
    h = H - 0.5
    return 2 * H * h * h * ((T + eps) ** (2 * h - 1) - eps ** (2 * h - 1)) / (2 * h - 1)


# ---------------------------------------------------------------------------
# Grid


def test_grid_nodes_exact_endpoints():
    g = TimeGrid(2.5, 400)
    t = g.nodes()
    assert len(t) == 401
    assert t[0] == 0.0
    assert t[-1] == 2.5
    assert np.all(np.diff(t) > 0)


def test_grid_rejects_dt_above_one():
    with pytest.raises(ValueError):
        TimeGrid(10.0, 5)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# ---------------------------------------------------------------------------
# Brownian increments


def test_brownian_deterministic_by_seed():
    g = TimeGrid(1.0, 1000)
    a = simulate_brownian(g, 42)
    b = simulate_brownian(g, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate_brownian(g, 43))


def test_brownian_moments():
    # N = 1e5 at dt = 1e-3: mean within 4 sqrt(dt/N), variance within 5 se of dt
    g = TimeGrid(100.0, 100_000)
    assert g.dt == 1e-3
    dw = simulate_brownian(g, 2024)
    assert abs(dw.mean()) <= 4.0 * math.sqrt(g.dt / g.N)
    se_var = g.dt * math.sqrt(2.0 / (g.N - 1))
    assert abs(dw.var(ddof=1) - g.dt) <= 5.0 * se_var


# ---------------------------------------------------------------------------
# Kernel quadrature


def test_kernel_sums_stride_matches_plain():
    g = TimeGrid(1.0, 32)
    dw = simulate_brownian(TimeGrid(1.0, 32 * 4), 5)
    big, small = memory_exact(g, dw, BASE_PARAMS, refine=4)
    assert big[0] == 0.0 and small[0] == 0.0
    assert len(big) == g.N + 1
    # stride picks exactly every 4th node of the fine-grid sums
    fine = TimeGrid(1.0, 128)
    big_f, small_f = memory_exact(fine, dw, BASE_PARAMS, refine=1)
    assert np.array_equal(big, big_f[::4])
    assert np.array_equal(small, small_f[::4])


def test_memory_refinement_mismatch():
    g = TimeGrid(1.0, 32)
    with pytest.raises(ValueError):
        memory_exact(g, np.zeros(33), BASE_PARAMS, refine=1)


def test_memory_zero_at_half_hurst():
    g = TimeGrid(1.0, 64)
    dw = simulate_brownian(g, 11)
    big, small = memory_exact(g, dw, replace(BASE_PARAMS, H=0.5), refine=1)
    assert np.all(big == 0.0)
    assert np.all(small == 0.0)


@pytest.mark.parametrize("H", [0.35, 0.65])
def test_variance_law_every_node(H):
    # MC variance of the w^H kernel sum matches (t+eps)^2H - eps^2H at all
    # nodes; refine-64 quadrature keeps the left-endpoint bias far inside the
    # 4-sigma band (at refine 1 the first node is biased by several percent)
    params = replace(BASE_PARAMS, H=H)
    grid = TimeGrid(1.0, 16)
    R = 64
    nsim = 20_000
    h = H - 0.5
    dt_f = grid.dt / R
    s = np.arange(grid.N * R) * dt_f
    W = np.zeros((grid.N + 1, grid.N * R))
    for n in range(1, grid.N + 1):
        j = n * R
        W[n, :j] = math.sqrt(2 * H) * (n * grid.dt - s[:j] + params.epsilon) ** h
    rng = np.random.Generator(np.random.PCG64(808))
    w_all = np.empty((nsim, grid.N + 1))
    first = None
    for lo in range(0, nsim, 5000):
        m = min(5000, nsim - lo)
        dws = rng.standard_normal((m, grid.N * R)) * math.sqrt(dt_f)
        if first is None:
            first = dws[0].copy()
        w_all[lo:lo + m] = dws @ W.T
    one = kernel_sums(first, dt_f, params.epsilon, *_kernel(params, 0), stride=R)
    assert np.allclose(w_all[0], one, rtol=1e-12, atol=1e-16)
    for n in range(1, grid.N + 1):
        t = n * grid.dt
        target = closed_form_var_wh(t, params.epsilon, H)
        se = target * math.sqrt(2.0 / (nsim - 1))
        assert abs(w_all[:, n].var(ddof=1) - target) <= 4.0 * se


@pytest.mark.parametrize("H", [0.35, 0.65])
def test_variance_law_memory_terminal(H):
    # Var[Lambda_T] against the closed form, with a refine-8 quadrature
    params = replace(BASE_PARAMS, H=H)
    T, N, R = 1.0, 250, 8
    grid = TimeGrid(T, N)
    nsim = 12_000
    h = H - 0.5
    dt_f = grid.dt / R
    s = np.arange(N * R) * dt_f
    weights = math.sqrt(2 * H) * h * (T - s + params.epsilon) ** (h - 1.0)
    rng = np.random.Generator(np.random.PCG64(71))
    samples = np.empty(nsim)
    chunk = 3000
    first = None
    for lo in range(0, nsim, chunk):
        n = min(chunk, nsim - lo)
        dws = rng.standard_normal((n, N * R)) * math.sqrt(dt_f)
        if first is None:
            first = dws[0].copy()
        samples[lo:lo + n] = dws @ weights
    ref, _ = memory_exact(grid, first, params, refine=R)
    assert math.isclose(samples[0], ref[-1], rel_tol=1e-12)
    target = closed_form_var_Lambda(T, params.epsilon, H)
    se = target * math.sqrt(2.0 / (nsim - 1))
    assert abs(samples.var(ddof=1) - target) <= 4.0 * se


def test_refinement_consistency():
    # sup |memory_exact(R) - memory_exact(2R)| decreases with R (median over 50 seeds)
    grid = TimeGrid(1.0, 64)
    refs = (1, 2, 4, 8)
    finest = 16
    gaps = {r: [] for r in refs}
    for seed in range(50):
        dw_finest = simulate_brownian(grid.refined(finest), seed)
        by_refine = {}
        for r in refs + (16,):
            dw_r = dw_finest.reshape(grid.N * r, finest // r).sum(axis=1)
            by_refine[r], _ = memory_exact(grid, dw_r, BASE_PARAMS, refine=r)
        for r in refs:
            gaps[r].append(np.max(np.abs(by_refine[r] - by_refine[2 * r])))
    medians = [float(np.median(gaps[r])) for r in refs]
    assert all(a > b for a, b in zip(medians, medians[1:]))


# ---------------------------------------------------------------------------
# Output recursion


def test_output_zero_noise_pure_drift():
    params = replace(BASE_PARAMS, H=0.5, sigma_D=0.0)
    grid = TimeGrid(1.0, 100)
    Z, D = simulate_output(grid, np.zeros(grid.N), np.zeros(grid.N + 1), params)
    assert np.allclose(Z, params.mu_D * grid.nodes(), rtol=0, atol=1e-16)
    assert np.all(D > 0)


def test_output_reduces_to_gbm_at_half_hurst():
    params = replace(BASE_PARAMS, H=0.5)
    grid = TimeGrid(1.0, 256)
    dw = simulate_brownian(grid, 9)
    Z, _ = simulate_output(grid, dw, np.zeros(grid.N + 1), params)
    expected = (params.mu_D - 0.5 * params.sigma_D**2) * grid.dt + params.sigma_D * dw
    assert np.array_equal(Z, np.concatenate(([0.0], np.cumsum(expected))))


def test_output_rejects_nonfinite():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        simulate_output(grid, np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(5), BASE_PARAMS)


def test_output_terminal_mean():
    # E[Z_T] = Z_0 + (mu_D - H eps^2h sigma_D^2) T since the memory is mean zero
    params = BASE_PARAMS
    T, N, R = 1.0, 200, 4
    grid = TimeGrid(T, N)
    h = params.H - 0.5
    dt_f = grid.dt / R
    nsim = 12_000
    # per-increment total weight: vol on its own coarse step plus the drift
    # pickup sigma_D * dt through Lambda at every later left node
    j = np.arange(N * R)
    s = j * dt_f
    w_total = np.full(N * R, math.sqrt(2 * params.H) * params.epsilon**h * params.sigma_D)
    for n in range(1, N):  # Lambda at left nodes 1..N-1 feeds steps n..N-1
        mask = j < n * R
        w_total[mask] += (
            params.sigma_D * grid.dt * math.sqrt(2 * params.H) * h
            * (n * grid.dt - s[mask] + params.epsilon) ** (h - 1.0)
        )
    rng = np.random.Generator(np.random.PCG64(505))
    zt = np.empty(nsim)
    for lo in range(0, nsim, 3000):
        n = min(3000, nsim - lo)
        dws = rng.standard_normal((n, N * R)) * math.sqrt(dt_f)
        zt[lo:lo + n] = dws @ w_total
    a0 = (params.mu_D - params.H * params.epsilon ** (2 * h) * params.sigma_D**2) * grid.dt
    zt += N * a0
    # cross-check the weight construction against the path machinery
    bundle = simulate_bundle(grid, params, seed=31, refine=R)
    dwf = simulate_brownian(grid.refined(R), 31)
    assert math.isclose(bundle.Z[-1], float(dwf @ w_total + N * a0), rel_tol=1e-10)
    target = a0 * N  # Z_0 = 0, E[integral of Lambda] = 0
    se = zt.std(ddof=1) / math.sqrt(nsim)
    assert abs(zt.mean() - target) <= 4.0 * se


# ---------------------------------------------------------------------------
# Bundles and CSV


def test_bundle_shapes_and_invariants():
    grid = TimeGrid(1.0, 128)
    b = simulate_bundle(grid, BASE_PARAMS, seed=3, refine=8)
    assert len(b.dw) == grid.N
    for arr in (b.w, b.Lambda, b.lambda_small, b.Z, b.D_hat):
        assert len(arr) == grid.N + 1
    assert b.w[0] == 0.0 and b.Lambda[0] == 0.0 and b.lambda_small[0] == 0.0
    assert np.all(b.D_hat > 0)
    assert b.Z[0] == 0.0  # D0 = 1


def test_bundle_deterministic():
    grid = TimeGrid(1.0, 64)
    a = simulate_bundle(grid, BASE_PARAMS, seed=12)
    b = simulate_bundle(grid, BASE_PARAMS, seed=12)
    assert np.array_equal(a.Z, b.Z) and np.array_equal(a.Lambda, b.Lambda)


def test_bundle_memoryless():
    grid = TimeGrid(1.0, 64)
    b = simulate_bundle(grid, replace(BASE_PARAMS, H=0.5), seed=12)
    assert np.all(b.Lambda == 0.0) and np.all(b.lambda_small == 0.0)


def test_bundle_rejects_invalid_parameters():
    # gamma_C above gamma_M is outside the model, as for every other entry point
    with pytest.raises(ValueError, match=r"^invalid parameters: gamma_M must be >= gamma_C"):
        simulate_bundle(TimeGrid(1.0, 8), replace(BASE_PARAMS, gamma_C=3.6), seed=0, refine=1)


def test_path_csv_roundtrip(tmp_path):
    grid = TimeGrid(1.0, 16)
    b = simulate_bundle(grid, BASE_PARAMS, seed=1, refine=2)
    out = tmp_path / "paths.csv"
    write_path_csv(out, b)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,dw,w,Lambda,lambda,Z,D_hat"
    assert len(lines) == grid.N + 2
    assert lines[1].split(",")[1] == ""  # no increment at t_0
    grid2, Z = read_t_z_csv(out)
    assert grid2.N == grid.N
    assert math.isclose(grid2.T, grid.T, rel_tol=1e-12)
    assert np.array_equal(Z, b.Z)  # 17 significant digits round-trip exactly
