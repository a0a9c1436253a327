"""Property test: conv1d and its three gradients against a direct loop."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vampdiff import numcore as nc
from vampdiff.numcore import Tensor


def reference_conv1d(x, kernel, bias, g, stride, dilation, padding):
    """Forward output and (dx, dkernel, dbias) of sum(g * out), by loops."""
    B, cin, L = x.shape
    cout, _, K = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    L_out = (L + 2 * padding - dilation * (K - 1) - 1) // stride + 1
    out = np.zeros((B, cout, L_out))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for b in range(B):
        for i in range(L_out):
            for k in range(K):
                pos = i * stride + k * dilation
                out[b, :, i] += kernel[:, :, k] @ xp[b, :, pos]
                gk[:, :, k] += np.outer(g[b, :, i], xp[b, :, pos])
                gxp[b, :, pos] += kernel[:, :, k].T @ g[b, :, i]
    out += bias[None, :, None]
    return out, gxp[:, :, padding:padding + L], gk, g.sum(axis=(0, 2))


@st.composite
def conv_cases(draw):
    K = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    dilation = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    span = dilation * (K - 1) + 1
    L = draw(st.integers(max(1, span - 2 * padding), 12))
    return dict(B=draw(st.integers(1, 3)), cin=draw(st.integers(1, 4)),
                cout=draw(st.integers(1, 4)), L=L, K=K, stride=stride,
                dilation=dilation, padding=padding,
                x_grad=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


def check_against_reference(B, cin, cout, L, K, stride, dilation, padding,
                            x_grad, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((B, cin, L)), requires_grad=x_grad)
    kernel = Tensor(rng.standard_normal((cout, cin, K)), requires_grad=True)
    bias = Tensor(rng.standard_normal(cout), requires_grad=True)
    out = nc.conv1d(x, kernel, bias, stride=stride, dilation=dilation,
                    padding=padding)
    g = rng.standard_normal(out.shape)
    nc.rsum(nc.mul(out, Tensor(g))).backward()

    ref_out, ref_gx, ref_gk, ref_gb = reference_conv1d(
        x.data, kernel.data, bias.data, g, stride, dilation, padding)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(kernel.grad, ref_gk, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bias.grad, ref_gb, rtol=0, atol=1e-10)
    if x_grad:
        np.testing.assert_allclose(x.grad, ref_gx, rtol=0, atol=1e-10)
    else:
        assert x.grad is None


@settings(max_examples=50, deadline=None)
@given(conv_cases())
def test_conv1d_matches_direct_loop(case):
    check_against_reference(**case)


def test_conv1d_model_shapes_match_direct_loop():
    # single-channel stem, FiLM 1x1 projection, U-Net stride-2 down conv
    for cin, cout, K, stride, padding in [(1, 8, 3, 1, 1), (6, 4, 1, 1, 0),
                                          (4, 6, 3, 2, 1)]:
        for x_grad in (True, False):
            check_against_reference(B=2, cin=cin, cout=cout, L=16, K=K,
                                    stride=stride, dilation=1,
                                    padding=padding, x_grad=x_grad, seed=cin)
