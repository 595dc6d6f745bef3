"""The FFT kernel sums and recovery against the direct sums they replaced.

``kernel_oracle`` holds the former O(N^2) paths: the per-node dot product
of the increments with the reversed lag weights, and the recovery loop that
inverts the output recursion one step at a time.  The FFT convolution sums
in another order, so a node may differ from its direct sum by rounding of
the order of the unit roundoff times the norms of the blocks that meet
there.  The tolerance is set from that beforehand: 1e-12 times the sum of
the absolute values of the node's terms, which no summation order can
undercut by more than a few ulps.  That error is global to a block, so a
node whose own terms are all small (a tiny first increment, say) can carry
more than its share; random draws therefore add a floor of 1e-14 times the
largest node scale of the path, about 25 times the worst seen in 3000 draws.

The engine is checked at the base calibration against the direct sums over
lengths from one sample to the recovery benchmark's 160000, across the
block and transform-length edges, and it must make one forward transform
per block and input.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmecon import BASE_PARAMS, TimeGrid, estimate_memory, euler_reference, kernel_sums, simulate_brownian
from fbmecon.paths import _BLOCK, _kernel
from kernel_oracle import kernel_sums_direct, recover_sequential

B = _BLOCK
KERNEL_RTOL = 1e-12
KERNEL_FLOOR = 1e-14
RECOVERY_RTOL = 1e-12


def _nodes(n_out: int, stride: int) -> list[int]:
    """Every node up to one block past the first; beyond, the nodes next to
    every block boundary of the fine grid, the ends and a regular sample."""
    if n_out * stride <= B + 1:
        return list(range(n_out + 1))
    picked = set(range(64)) | set(range(n_out - 63, n_out + 1)) | set(range(0, n_out + 1, 97))
    for edge in range(B, n_out * stride + 1, B):
        picked |= {n for n in range((edge - 32) // stride, (edge + 32) // stride + 1) if 0 <= n <= n_out}
    return sorted(picked)


def _assert_matches_direct(dw, dt, params, order, stride=1, floor=0.0):
    kern = _kernel(params, order)
    got = kernel_sums(dw, dt, params.epsilon, *kern, stride=stride)
    nodes = _nodes(len(dw) // stride, stride)
    direct, scale = kernel_sums_direct(dw, dt, params.epsilon, *kern, stride=stride, nodes=nodes)
    err = np.abs(got[nodes] - direct)
    assert got[0] == 0.0
    tol = KERNEL_RTOL * scale + floor * np.max(scale)
    assert np.all(err <= tol), float(np.max(err / np.maximum(scale, 1e-300)))
    return got


@pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("eps", [1e-5, 0.1])
@pytest.mark.parametrize("H", [0.35, 0.65])
def test_kernel_sums_match_direct_sums(H, eps, m):
    params = replace(BASE_PARAMS, H=H, epsilon=eps)
    grid = TimeGrid(1.0, m)
    dw = simulate_brownian(grid, 3)
    for order in (0, 1, 2):
        _assert_matches_direct(dw, grid.dt, params, order)


@pytest.mark.parametrize("eps", [1e-5, 0.1])
@pytest.mark.parametrize("H", [0.35, 0.65])
def test_strided_kernel_sums_across_blocks(H, eps):
    # stride 4 over three blocks and a ragged tail: the strided sums match
    # the direct ones and are the plain sums subsampled, bit for bit
    params = replace(BASE_PARAMS, H=H, epsilon=eps)
    m = 3 * B + 8
    dw = simulate_brownian(TimeGrid(1.0, m), 8)
    for order in (1, 2):
        strided = _assert_matches_direct(dw, 1.0 / m, params, order, stride=4)
        plain = kernel_sums(dw, 1.0 / m, eps, *_kernel(params, order))
        assert np.array_equal(strided, plain[::4])


def _assert_recovery_matches_loop(params, n_steps, seed):
    grid = TimeGrid(1.0, n_steps)
    ref = euler_reference(simulate_brownian(grid, seed), grid, params)
    est = estimate_memory(ref.Z, grid, params)
    dw_seq, lam_seq = recover_sequential(ref.Z, grid.dt, params)
    assert np.max(np.abs(est.dw_hat - dw_seq)) <= RECOVERY_RTOL * np.max(np.abs(dw_seq))
    assert np.max(np.abs(est.Lambda_hat - lam_seq)) <= RECOVERY_RTOL * max(np.max(np.abs(lam_seq)), 1e-300)


@pytest.mark.parametrize("n_steps", [1, 2, 1000, B + 1])
@pytest.mark.parametrize("eps", [1e-5, 0.1])
@pytest.mark.parametrize("H", [0.35, 0.65])
def test_recovery_matches_sequential_loop(H, eps, n_steps):
    _assert_recovery_matches_loop(replace(BASE_PARAMS, H=H, epsilon=eps), n_steps, 12)


_hurst = st.floats(0.3, 0.7)
_eps = st.floats(-5.0, 0.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(H=_hurst, eps=_eps, order=st.sampled_from([0, 1, 2]), stride=st.sampled_from([1, 2, 4]),
       n_out=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_kernel_sums_property(H, eps, order, stride, n_out, seed):
    params = replace(BASE_PARAMS, H=H, epsilon=eps)
    m = n_out * stride
    dw = simulate_brownian(TimeGrid(1.0, m), seed)
    strided = _assert_matches_direct(dw, 1.0 / m, params, order, stride=stride, floor=KERNEL_FLOOR)
    plain = kernel_sums(dw, 1.0 / m, eps, *_kernel(params, order))
    assert np.array_equal(strided, plain[::stride])


@settings(max_examples=40, deadline=None)
@given(H=_hurst, eps=_eps, n_steps=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1))
def test_recovery_property(H, eps, n_steps, seed):
    _assert_recovery_matches_loop(replace(BASE_PARAMS, H=H, epsilon=eps), n_steps, seed)


# one block (8192 and 8193 straddle the transform length 2^14 / 2^15), 16000
# samples in one block of 2^15 points, several blocks with ragged tails, and
# the 40000-step, refine-4 recovery benchmark's 160000 samples
@pytest.mark.parametrize("m, stride", [(m, s) for m in (1, 5000, 8192, 8193, 16000, B, B + 1, 3 * B + 5, 160000)
                                       for s in (1, 4) if m % s == 0])
def test_kernel_sums_match_direct_sums_at_base_params(m, stride):
    dw = simulate_brownian(TimeGrid(1.0, m), 21)
    for order in (1, 2):
        _assert_matches_direct(dw, 1.0 / m, BASE_PARAMS, order, stride=stride)


def test_each_block_spectrum_is_computed_once(monkeypatch):
    # four blocks: one forward transform per block of each input, one inverse per output block
    calls = {"rfft": 0, "irfft": 0}

    def counted(name):
        inner = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    m = 4 * B
    kernel_sums(simulate_brownian(TimeGrid(1.0, m), 5), 1.0 / m, 0.1, *_kernel(BASE_PARAMS, 1))
    assert calls == {"rfft": 8, "irfft": 4}
