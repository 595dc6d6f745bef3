"""Time grids, Brownian increments, and the approximate-fBm path machinery.

The memory processes are Ito kernel integrals against Brownian increments,

    Lambda_t = sqrt(2H) h       int_0^t (t - s + eps)^(h-1) dw_s,  h = H - 1/2,
    lambda_t = sqrt(2H) h(h-1)  int_0^t (t - s + eps)^(h-2) dw_s,

and the log output Z = ln D follows

    dZ_t = (mu_D + sigma_D Lambda_t - H eps^(2h) sigma_D^2) dt
           + sqrt(2H) eps^h sigma_D dw_t.

All kernel quadrature here evaluates the kernel at the left endpoint of each
subinterval (the non-anticipating Ito convention; midpoint or trapezoid rules
would bias toward the Stratonovich integral).  Run the quadrature on a
refinement of the output grid and the sums serve as the oracle for the exact
laws, with error vanishing as the refinement grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, validate

__all__ = [
    "TimeGrid",
    "PathBundle",
    "simulate_brownian",
    "kernel_sums",
    "memory_exact",
    "simulate_output",
    "simulate_bundle",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with dt = T/N <= 1."""

    T: float
    N: int

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError("T must be a positive finite real")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError("N must be a positive integer")
        if self.dt > 1.0:
            raise ValueError(f"dt = T/N = {self.dt:g} exceeds 1; refine the grid")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def nodes(self) -> np.ndarray:
        """Node times n * dt, exact at the endpoints."""
        t = np.arange(self.N + 1) * self.dt
        return t

    def refined(self, factor: int) -> "TimeGrid":
        """The factor-fold refinement of this grid."""
        if factor < 1:
            raise ValueError("refinement factor must be >= 1")
        return TimeGrid(self.T, self.N * int(factor))


def simulate_brownian(grid: TimeGrid, seed: int) -> np.ndarray:
    """Draw the N Brownian increments of the grid, reproducibly.

    Generator: numpy PCG64 seeded through SeedSequence(seed); variates are
    Generator.standard_normal (ziggurat) scaled by sqrt(dt).  The same seed
    yields the same array bit-for-bit across runs and platforms.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(grid.N) * np.sqrt(grid.dt)


def _kernel(params: ModelParams, order: int) -> tuple[float, float]:
    """(prefactor, exponent) of the order-k kernel, k = 0, 1, 2.

    Order 0 is the kernel sqrt(2H) (t - s + eps)^h of w^H itself, and orders
    1 and 2 are its first two time derivatives, the kernels of Lambda and
    lambda: prefactor sqrt(2H) h (h-1) ... (h-k+1), exponent h - k.
    """
    h = params.H - 0.5
    prefactor = np.sqrt(2.0 * params.H)
    for i in range(order):
        prefactor = prefactor * (h - i)
    return prefactor, h - order


# Block length of the FFT convolution.  Inputs are cut into blocks of this
# many samples, so every transform has 2 * _BLOCK points however long the
# input is.
_BLOCK = 1 << 14


def _causal_convolve(a: np.ndarray, b, stride: int = 1) -> np.ndarray:
    """Every stride-th term c[stride - 1 :: stride] of a causal convolution.

    c[i] = sum_{j <= i} a[j] b[i - j] for i < len(a), by blocked FFTs; b
    covers the same indices and need only support slicing (an array, or
    :class:`_LagWeights`).  Both inputs are cut into blocks (of _BLOCK
    samples, or one block when shorter) and transformed with zero padding
    to twice the block length.  Output block r is the inverse transform of
    sum_{p + q = r} A_p B_q, whose second half spills into block r + 1.
    Each block of b is read once and its spectrum kept; the spectra of a
    are recomputed where they are used, and each finished block gives up
    its stride-th terms at once, so the memory beyond the result is that of
    one spectrum set.  Every term is computed the same way whatever the
    stride.  The rounding error of a term is a small multiple of the unit
    roundoff times the norms of the blocks that meet there.
    """
    m = len(a)
    blk = min(_BLOCK, m)
    n_fft = 1 << (2 * blk - 1).bit_length()

    def spectrum(x, p):
        return np.fft.rfft(x[p * blk : (p + 1) * blk], n_fft)

    fb = []
    out = np.empty(m // stride)
    spill = 0.0
    for r in range(-(-m // blk)):
        fb.append(spectrum(b, r))
        acc = fb[0] * spectrum(a, r)
        for p in range(r):
            acc += fb[r - p] * spectrum(a, p)
        c = np.fft.irfft(acc, n_fft)
        lo = r * blk
        first = (stride - 1 - lo) % stride
        keep = (c[:blk] + spill)[first : m - lo : stride]
        k0 = (lo + first + 1) // stride - 1
        out[k0 : k0 + len(keep)] = keep
        spill = c[blk : 2 * blk]
    return out


@dataclass(frozen=True)
class _LagWeights:
    """Kernel weights prefactor * (l dt + epsilon)**exponent at lags l = 1..m.

    Sliced like an array, it evaluates only the slice asked for, so a
    convolution walks the weights a block at a time without holding all m.
    """

    m: int
    dt: float
    epsilon: float
    prefactor: float
    exponent: float

    def __getitem__(self, s: slice) -> np.ndarray:
        lo, hi, step = s.indices(self.m)
        lags = np.arange(lo + 1, hi + 1, step)
        return self.prefactor * (self.dt * lags + self.epsilon) ** self.exponent


def kernel_sums(
    dw: np.ndarray,
    dt: float,
    epsilon: float,
    prefactor: float,
    exponent: float,
    stride: int = 1,
) -> np.ndarray:
    """Left-endpoint Ito kernel sums on every stride-th node.

    With M = len(dw) increments on a grid of step dt, returns the array

        out[n] = prefactor * sum_{j < n*stride} (n*stride*dt - j*dt + epsilon)**exponent * dw[j]

    for n = 0 .. M // stride (so out[0] = 0).  stride > 1 evaluates a
    refinement-R quadrature on the coarse grid of step stride * dt.

    Every kernel sum goes through this routine: w^H, Lambda and lambda in
    simulation, the Euler reference, and Lambda_hat and lambda_hat in the
    recovery.  The sums on all M fine nodes are one causal FFT convolution
    and a stride keeps every stride-th of them, so a strided result equals
    the plain one subsampled, bit for bit.
    """
    m = len(dw)
    if m % stride:
        raise ValueError(f"len(dw) = {m} is not a multiple of stride {stride}")
    out = np.zeros(m // stride + 1)
    if m == 0 or prefactor == 0.0:
        return out
    weights = _LagWeights(m, dt, epsilon, prefactor, exponent)
    out[1:] = _causal_convolve(np.asarray(dw, dtype=float), weights, stride)
    return out


def memory_exact(
    grid: TimeGrid, dw_fine: np.ndarray, params: ModelParams, refine: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Memory processes Lambda and lambda on the grid from refined increments.

    dw_fine must hold grid.N * refine increments of the refine-fold finer
    grid.  At refine = 1 this is exactly the Euler kernel sum over the grid's
    own increments; larger refinements serve as the quadrature oracle for the
    continuous laws (its own error shrinks as refine grows).
    """
    refine = int(refine)
    if len(dw_fine) != grid.N * refine:
        raise ValueError(
            f"expected {grid.N * refine} fine increments (N = {grid.N}, refine = {refine}), "
            f"got {len(dw_fine)}"
        )
    dt_f = grid.dt / refine
    lam_big = kernel_sums(dw_fine, dt_f, params.epsilon, *_kernel(params, 1), stride=refine)
    lam_small = kernel_sums(dw_fine, dt_f, params.epsilon, *_kernel(params, 2), stride=refine)
    return lam_big, lam_small


def _step_coefficients(params: ModelParams, dt: float) -> tuple[float, float, float]:
    """(a0, sigma_D dt, vol) of the affine output step a0 + sigma_D dt Lambda + vol dw.

    a0 = (mu_D - H eps^(2h) sigma_D^2) dt, and vol = sqrt(2H) eps^h sigma_D
    is the w^H kernel at lag zero times sigma_D.
    """
    prefactor, h = _kernel(params, 0)
    a0 = (params.mu_D - params.H * params.epsilon ** (2.0 * h) * params.sigma_D**2) * dt
    vol = prefactor * params.epsilon**h * params.sigma_D
    return a0, params.sigma_D * dt, vol


def simulate_output(
    grid: TimeGrid,
    dw: np.ndarray,
    Lambda: np.ndarray,
    params: ModelParams,
    D0: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler path of the log output and the output level.

    Returns (Z, D_hat), each of length N + 1, with Z[0] = ln(D0) and Z the
    cumulative sum of the steps

        Z[n+1] - Z[n] = (mu_D - H eps^(2h) sigma_D^2) dt + sigma_D dt Lambda[n]
                        + sqrt(2H) eps^h sigma_D dw[n],

    with Lambda evaluated at the left node.  All equilibrium quantities are
    scale-free in the output, so D0 only shifts the reported level.  The
    parameters are not validated here: sigma_D = 0 gives the pure drift.
    """
    if not (D0 > 0 and np.isfinite(D0)):
        raise ValueError("initial output level D0 must be positive and finite")
    if len(dw) != grid.N:
        raise ValueError(f"expected {grid.N} increments, got {len(dw)}")
    if len(Lambda) < grid.N:
        raise ValueError("Lambda must cover every left node of the grid")
    if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(Lambda[: grid.N]))):
        raise ValueError("non-finite inputs to the output recursion")
    a0, sdt, vol = _step_coefficients(params, grid.dt)
    steps = a0 + sdt * np.asarray(Lambda)[: grid.N] + vol * np.asarray(dw)
    z0 = np.log(D0)
    Z = z0 + np.concatenate(([0.0], np.cumsum(steps)))
    return Z, np.exp(Z)


@dataclass
class PathBundle:
    """One simulated economy path on a uniform grid.

    Levels (w, Lambda, lambda_small, Z, D_hat) have length N + 1 and
    increments (dw) length N; w[0] = Lambda[0] = lambda_small[0] = 0.  With
    H = 1/2 both memory arrays are identically zero.
    """

    grid: TimeGrid
    seed: int
    dw: np.ndarray
    w: np.ndarray
    Lambda: np.ndarray
    lambda_small: np.ndarray
    Z: np.ndarray
    D_hat: np.ndarray


def simulate_bundle(
    grid: TimeGrid,
    params: ModelParams,
    seed: int,
    refine: int = 64,
    D0: float = 1.0,
) -> PathBundle:
    """Simulate Brownian noise, memory, and output on one grid.

    The Brownian path is drawn on a refine-fold finer grid; the memory
    processes are its quadrature sums at the coarse nodes and the coarse
    increments are the fine ones aggregated, so the bundle's Z follows the
    Euler output recursion driven by oracle-quality memory.  refine = 64
    keeps the quadrature error negligible at typical grid steps.

    Raises:
        ValueError: if the parameters are invalid (see :func:`validate`).
    """
    validate(params)
    refine = int(refine)
    dw_fine = simulate_brownian(grid.refined(refine), seed)
    lam_big, lam_small = memory_exact(grid, dw_fine, params, refine=refine)
    dw = dw_fine.reshape(grid.N, refine).sum(axis=1) if refine > 1 else dw_fine
    w = np.concatenate(([0.0], np.cumsum(dw)))
    Z, D_hat = simulate_output(grid, dw, lam_big, params, D0=D0)
    return PathBundle(
        grid=grid,
        seed=int(seed),
        dw=dw,
        w=w,
        Lambda=lam_big,
        lambda_small=lam_small,
        Z=Z,
        D_hat=D_hat,
    )
