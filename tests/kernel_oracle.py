"""The direct O(N^2) kernel sums and recovery loop the FFT paths replaced, kept as test oracles.

``kernel_sums_direct`` is the old per-node dot product of the increments
with the reversed lag weights; it also returns, node by node, the sum of
the absolute values of its terms, the scale that bounds the rounding error
of any summation order.  ``recover_sequential`` is the old step-by-step
inversion of the output recursion, feeding each recovered increment's
Lambda_hat into the next step.  ``causal_convolve_recompute`` is the former
blocked FFT convolution, which kept the spectra of b's blocks but
recomputed those of a's for every output block that uses them; the
present engine keeps both and must give its bytes.
"""

from __future__ import annotations

import numpy as np

from fbmecon.paths import _BLOCK, _kernel, _step_coefficients


def _reversed_weights(m, dt, epsilon, prefactor, exponent):
    """rev[m - 1 - i] = prefactor * ((i + 1) dt + epsilon)**exponent."""
    lags = prefactor * (dt * np.arange(1, m + 1) + epsilon) ** exponent
    return lags[::-1].copy()


def kernel_sums_direct(dw, dt, epsilon, prefactor, exponent, stride=1, nodes=None):
    """(sums, scales) on every stride-th node, or on the listed node indices.

    sums[n] = sum_{j < n*stride} w(n*stride - j) dw[j] and scales[n] is the
    same sum over |w(n*stride - j) dw[j]|, with w(l) = prefactor
    (l dt + epsilon)**exponent; node 0 gives 0 for both.
    """
    dw = np.asarray(dw, dtype=float)
    m = len(dw)
    rev = _reversed_weights(m, dt, epsilon, prefactor, exponent)
    abs_rev, abs_dw = np.abs(rev), np.abs(dw)
    if nodes is None:
        nodes = range(m // stride + 1)
    sums, scales = np.zeros(len(nodes)), np.zeros(len(nodes))
    for i, n in enumerate(nodes):
        j = n * stride
        if j:
            sums[i] = np.dot(dw[:j], rev[m - j:])
            scales[i] = np.dot(abs_dw[:j], abs_rev[m - j:])
    return sums, scales


def recover_sequential(Z, dt, params):
    """(dw_hat, Lambda_hat): the recovery recursion run one step at a time."""
    dZ = np.diff(np.asarray(Z, dtype=float))
    n_steps = len(dZ)
    a0, sdt, vol = _step_coefficients(params, dt)
    rev = _reversed_weights(n_steps, dt, params.epsilon, *_kernel(params, 1))
    dw_hat = np.empty(n_steps)
    lam_big = np.zeros(n_steps + 1)
    for n in range(n_steps):
        dw_hat[n] = (dZ[n] - a0 - sdt * lam_big[n]) / vol
        lam_big[n + 1] = np.dot(dw_hat[: n + 1], rev[n_steps - 1 - n:])
    return dw_hat, lam_big


def causal_convolve_recompute(a, b, stride=1):
    """Every stride-th term of the causal convolution of a and b, by the former loop."""
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
