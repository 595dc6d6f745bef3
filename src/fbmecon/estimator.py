"""Pathwise recovery of the memory processes from observed log output.

Given log-output samples Z on a uniform grid, invert the one-step output
recursion to recover Brownian increments, then rebuild the memory processes
by kernel sums:

    dw_hat[n+1] = (Z[n+1] - Z[n] - (mu_D + sigma_D Lambda_hat[n]
                   - H eps^(2h) sigma_D^2) dt) / (sqrt(2H) eps^h sigma_D)
    Lambda_hat[n+1] = sum_{k<=n} sqrt(2H) h      (t_{n+1} - t_k + eps)^(h-1) dw_hat[k+1]
    lambda_hat[n+1] = sum_{k<=n} sqrt(2H) h(h-1) (t_{n+1} - t_k + eps)^(h-2) dw_hat[k+1]

with Lambda_hat[0] = lambda_hat[0] = 0.  Each recovered increment consumes
the memory level implied by the previous ones, so with the increments
indexed from 0 the recursion is the lower-triangular Toeplitz system

    vol dw_hat[n] + sigma_D dt sum_{k<n} K(t_n - t_k) dw_hat[k] = Z[n+1] - Z[n] - a0,

with K the Lambda kernel, vol = sqrt(2H) eps^h sigma_D and
a0 = (mu_D - H eps^(2h) sigma_D^2) dt.  It is solved at once, not step by step:
the inverse of a lower-triangular Toeplitz matrix is again one, whose first
column is the power series 1 / a(x) of the first column a, found by
Newton's iteration (Brent & Kung 1978).  Applying it and summing the
kernels are causal FFT convolutions, so the recovery costs O(N log N) up to
the convolution's blocking and agrees with the sequential recursion to
rounding.  Lambda_hat and lambda_hat are :func:`~fbmecon.paths.memory_exact`
of the recovered increments.

The sup-norm error of the scheme against the exact memory decays pathwise
like dt^(1/6 - e) for every e > 0, with a path-dependent constant; the decay
and an empirical rate floor are what :func:`convergence_study` measures
(the constant itself is not reproducible); its reference is the
:class:`~fbmecon.paths.PathBundle` that :func:`euler_reference` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, validate
from .paths import (
    PathBundle,
    TimeGrid,
    _bundle,
    _causal_convolve,
    _check_factor,
    _kernel,
    _lag_weights,
    _step_coefficients,
    memory_exact,
    simulate_brownian,
)

__all__ = [
    "MemoryEstimate",
    "ConvergenceReport",
    "estimate_memory",
    "euler_reference",
    "convergence_study",
    "classify_memory",
]

#: Terminal memory within this distance of zero is classified as 'none'.
_DEAD_BAND = 1e-12

#: Largest accepted 1-norm condition number kappa_1 of the recovery's Toeplitz
#: system.  A recovery's relative error was about 4 kappa_1 2^-53 at worst in
#: scans over H, epsilon and N, so this bound keeps it under criterion 5's 1e-10.
_MAX_CONDITION = 1e-10 / (4 * 2.0**-53)


@dataclass
class MemoryEstimate:
    """Recovered increments and memory paths on a grid.

    dw_hat has length N; Lambda_hat and lambda_hat length N + 1 with zero
    initial values.  With H = 1/2 both memory arrays are identically zero
    for any input.
    """

    grid: TimeGrid
    dw_hat: np.ndarray
    Lambda_hat: np.ndarray
    lambda_hat: np.ndarray


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First column g of the inverse of the lower-triangular Toeplitz matrix T(a).

    Equivalently the power series 1 / a(x) mod x^len(a).  Newton's iteration
    (Brent & Kung 1978) doubles the number of exact coefficients per step:
    with a g = 1 + x^k e(x) mod x^2k, g <- g (2 - a g) fixes coefficients
    k .. 2k - 1 to -(g e)[0 .. k - 1] and leaves the first k alone.
    """
    n = len(a)
    g = np.zeros(n)
    g[0] = 1.0 / a[0]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        e = _causal_convolve(a[:k2], g[:k2])[k:]
        g[k:k2] = -_causal_convolve(g[: k2 - k], e)
        k = k2
    return g


def estimate_memory(Z: np.ndarray, grid: TimeGrid, params: ModelParams) -> MemoryEstimate:
    """Run the recovery recursion on N + 1 log-output samples.

    Raises:
        ValueError: on length mismatch, non-finite samples, or invalid
            parameters (see :func:`~fbmecon.params.validate`; the inversion
            divides by sqrt(2H) eps^h sigma_D).
        FloatingPointError: if the solve overflows, or if the Toeplitz system
            is so ill-conditioned (kappa_1 above about 2.25e5) that rounding
            could move the result by more than 1e-10 of its size; both
            happen on coarse grids with a small epsilon and H near 1.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (grid.N + 1,):
        raise ValueError(f"expected {grid.N + 1} log-output samples, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("log-output samples must be finite")
    validate(params)

    dt = grid.dt
    a0, sdt, vol = _step_coefficients(params, dt)
    b = np.diff(Z) - a0
    lam_kernel = _kernel(params, 1)
    if lam_kernel[0] == 0.0:  # H = 1/2: the Lambda kernel vanishes, nothing feeds back
        dw_hat = b / vol
    else:
        # the recursion is the lower-triangular Toeplitz system a * dw_hat = b
        a = np.empty(grid.N)
        a[0] = vol
        a[1:] = sdt * _lag_weights(grid.N - 1, dt, params.epsilon, *lam_kernel)
        with np.errstate(over="ignore", invalid="ignore"):
            g = _series_inverse(a)
            dw_hat = _causal_convolve(g, b)
            # kappa_1 = |T|_1 |T^-1|_1 exactly, T^-1 being the Toeplitz matrix of g
            kappa = np.sum(np.abs(a)) * np.sum(np.abs(g))
        where = (f"at H = {params.H:g}, epsilon = {params.epsilon:g}, N = {grid.N}: "
                 "use a finer grid or a larger epsilon")
        if not np.all(np.isfinite(dw_hat)):
            raise FloatingPointError(f"recovered increments are not finite {where}")
        if not kappa <= _MAX_CONDITION:
            raise FloatingPointError(f"recovery is ill-conditioned (kappa_1 = {kappa:.3g}) {where}")
    lam_big, lam_small = memory_exact(grid, dw_hat, params)
    return MemoryEstimate(grid=grid, dw_hat=dw_hat, Lambda_hat=lam_big, lambda_hat=lam_small)


def classify_memory(Lambda_terminal: float) -> str:
    """Classify finite terminal memory by its sign: 'good', 'bad', or 'none' within 1e-12 of 0."""
    if not np.isfinite(Lambda_terminal):
        raise ValueError(f"terminal memory {Lambda_terminal} is not finite")
    if abs(Lambda_terminal) <= _DEAD_BAND:
        return "none"
    return "good" if Lambda_terminal > 0 else "bad"


def euler_reference(dw: np.ndarray, grid: TimeGrid, params: ModelParams) -> PathBundle:
    """The Euler reference path that known increments drive on the grid.

    In the paper's notation the kernel sums over the given increments are
    Lambda-tilde (``Lambda``) and lambda-tilde (``lambda_small``), and the
    output path stepped with Lambda-tilde at the left node is Q (``Z``).
    These are the reference schemes the recovery recursion is measured
    against: feeding Z back through :func:`estimate_memory` returns the
    original increments (and hence Lambda, lambda_small) exactly up to
    rounding, by induction from the shared zero initial condition.

    Raises:
        ValueError: on a wrong shape of dw or invalid parameters (see :func:`validate`).
    """
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} increments, got shape {dw.shape}")
    validate(params)
    return _bundle(grid, dw, params, 1, 1.0)


@dataclass
class ConvergenceReport:
    """Empirical pathwise convergence of the recovery scheme.

    dt_values are the coarse grid steps, stored largest first.
    max_errors_Lambda / max_errors_lambda hold one sup-norm error per
    (seed, dt); the medians and fitted log-log slopes summarize them.
    Degenerate coarse factors (factor 1, where the recovery round-trips the
    fine grid exactly) are reported but excluded from the fit.
    """

    dt_values: np.ndarray
    factors: np.ndarray
    max_errors_Lambda: np.ndarray
    max_errors_lambda: np.ndarray
    median_err_Lambda: np.ndarray
    median_err_lambda: np.ndarray
    fitted_rate_Lambda: float
    fitted_rate_lambda: float
    fitted_rate: float
    seeds: int


def convergence_study(
    params: ModelParams,
    T: float,
    N_fine: int,
    coarse_factors,
    seeds: int,
    base_seed: int = 0,
) -> ConvergenceReport:
    """Measure sup-norm recovery errors across grid refinements.

    Per seed: draw fine Brownian increments, build the fine-grid memory
    oracle and its Euler output path, restrict the output to each coarse
    grid, run the recovery there, and record sup errors against the oracle
    at the coarse nodes.  Errors are aggregated by the median across seeds
    (the pathwise constant has heavy tails; medians stabilize the slope) and
    the rate is the least-squares slope of log median error against log dt.

    Raises:
        ValueError: if a factor or the seed count is not an integer >= 1, a
            factor does not divide N_fine, fewer than two non-degenerate
            factors remain for the fit, or params are invalid.
    """
    factors = list(coarse_factors)
    for f in factors:
        _check_factor(f, "coarse factor")
        if N_fine % f:
            raise ValueError(f"coarse factor {f} does not divide N_fine = {N_fine}")
    _check_factor(seeds, "seed count")
    # largest factor (coarsest grid, largest dt) first: dt_values strictly decreasing
    factors = sorted(set(factors), reverse=True)
    if sum(1 for f in factors if f > 1) < 2:
        raise ValueError("need at least two factors > 1 to fit a convergence rate")

    fine = TimeGrid(T, N_fine)
    err = np.empty((2, seeds, len(factors)))  # the (Lambda, lambda) errors per seed and factor
    for i in range(seeds):
        dw = simulate_brownian(fine, base_seed + i)
        ref = euler_reference(dw, fine, params)
        for j, f in enumerate(factors):
            est = estimate_memory(ref.Z[::f], TimeGrid(T, N_fine // f), params)
            err[:, i, j] = (np.max(np.abs(est.Lambda_hat - ref.Lambda[::f])),
                            np.max(np.abs(est.lambda_hat - ref.lambda_small[::f])))

    med = np.median(err, axis=1)
    dts = np.array([T / (N_fine // f) for f in factors])

    fit = np.array([f > 1 for f in factors])
    with np.errstate(divide="ignore"):
        rate_L, rate_l = (float(np.polyfit(np.log(dts[fit]), np.log(m[fit]), 1)[0]) for m in med)
    return ConvergenceReport(
        dt_values=dts,
        factors=np.array(factors),
        max_errors_Lambda=err[0],
        max_errors_lambda=err[1],
        median_err_Lambda=med[0],
        median_err_lambda=med[1],
        fitted_rate_Lambda=rate_L,
        fitted_rate_lambda=rate_l,
        fitted_rate=min(rate_L, rate_l),
        seeds=seeds,
    )
