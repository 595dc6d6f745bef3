"""The direct O(N^2) kernel sums and recovery loop the FFT paths replaced, kept as test oracles.

``kernel_sums_direct`` is the old per-node dot product of the increments
with the reversed lag weights; it also returns, node by node, the sum of
the absolute values of its terms, the scale that bounds the rounding error
of any summation order.  ``recover_sequential`` is the old step-by-step
inversion of the output recursion, feeding each recovered increment's
Lambda_hat into the next step.
"""

from __future__ import annotations

import numpy as np

from fbmecon.paths import _kernel, _step_coefficients


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

