"""Differentiable operations over :class:`~vampdiff.numcore.tensor.Tensor`.

Conventions fixed here:
  * conv1d uses the cross-correlation convention (no kernel flip);
  * max/min reductions route the gradient to the first attaining index;
  * std uses the population convention and returns zero gradient where
    the standard deviation is exactly zero;
  * broadcasting follows numpy over leading axes and size-1 axes.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import (
    DimensionError,
    DomainError,
    Tensor,
    accumulate,
    make_node,
)

# ---------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        accumulate(a, g)
        accumulate(b, g)
    return make_node(a.data + b.data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        accumulate(a, g)
        accumulate(b, -g)
    return make_node(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)
    return make_node(a.data * b.data, (a, b), rule)


def negate(a: Tensor) -> Tensor:
    return make_node(-a.data, (a,), lambda g: accumulate(a, -g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return make_node(a.data * c, (a,), lambda g: accumulate(a, g * c))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-x))`` in one buffer, with the same bytes."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(a: Tensor) -> Tensor:
    """``a * sigmoid(a)``; the rule rebuilds the sigmoid from ``a``."""
    def rule(g):
        sig = _sigmoid(a.data)
        accumulate(a, g * (sig * (1.0 + a.data * (1.0 - sig))))
    val = _sigmoid(a.data)
    return make_node(np.multiply(a.data, val, out=val), (a,), rule)


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    return make_node(val, (a,), lambda g: accumulate(a, g * val))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise DomainError("log requires strictly positive input")
    return make_node(np.log(a.data), (a,), lambda g: accumulate(a, g / a.data))


def log1p(a: Tensor) -> Tensor:
    if np.any(a.data < -1):
        raise DomainError("log1p requires input >= -1")
    return make_node(np.log1p(a.data), (a,),
                     lambda g: accumulate(a, g / (1.0 + a.data)))


def square(a: Tensor) -> Tensor:
    return make_node(a.data * a.data, (a,),
                     lambda g: accumulate(a, g * (2.0 * a.data)))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise DomainError("sqrt requires nonnegative input")
    val = np.sqrt(a.data)
    return make_node(val, (a,), lambda g: accumulate(a, g * (0.5 / val)))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes through the interior only."""
    return make_node(np.clip(a.data, lo, hi), (a,), lambda g: accumulate(
        a, g * ((a.data >= lo) & (a.data <= hi))))


def huber(a: Tensor) -> Tensor:
    """Elementwise SmoothL1: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    absa = np.abs(a.data)
    val = np.where(absa < 1.0, 0.5 * a.data * a.data, absa - 0.5)
    return make_node(val, (a,),
                     lambda g: accumulate(a, g * np.clip(a.data, -1.0, 1.0)))


# ---------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return make_node(a.data.reshape(shape), (a,),
                     lambda g: accumulate(a, g.reshape(a.data.shape)))


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(ax) % ndim for ax in axes)
    if len(set(axes)) != len(axes):
        raise DimensionError(f"duplicate reduction axes {axes}")
    for ax in axes:
        if not 0 <= ax < ndim:
            raise DimensionError(f"axis {ax} out of range for ndim {ndim}")
    return axes


def _check_nonempty(a: Tensor, axes):
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    if count == 0:
        raise DomainError("empty reduction")
    return count


def rsum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    _check_nonempty(a, axes)

    def rule(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        accumulate(a, np.broadcast_to(g, a.data.shape))
    return make_node(a.data.sum(axis=axes, keepdims=keepdims), (a,), rule)


def rmean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    count = _check_nonempty(a, axes)

    def rule(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        accumulate(a, np.broadcast_to(g, a.data.shape) / count)
    return make_node(a.data.mean(axis=axes, keepdims=keepdims), (a,), rule)


def _extreme(a: Tensor, axes, keepdims: bool, mode: str) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    _check_nonempty(a, axes)
    kept = tuple(i for i in range(a.ndim) if i not in axes)
    perm = kept + axes
    moved = np.transpose(a.data, perm)
    outer_shape = moved.shape[: len(kept)]
    flat = moved.reshape(outer_shape + (-1,))
    idx = np.argmax(flat, axis=-1) if mode == "max" else np.argmin(flat, axis=-1)
    vals = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def rule(g):
        if keepdims:
            g = g.reshape(outer_shape)
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gmoved = gflat.reshape(moved.shape)
        accumulate(a, np.transpose(gmoved, np.argsort(perm)))

    out_data = vals
    if keepdims:
        out_data = np.expand_dims(vals, tuple(range(len(kept), a.ndim)))
        out_data = np.transpose(out_data, np.argsort(perm))
    return make_node(out_data, (a,), rule)


def rmax(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axes, keepdims, "max")


def rmin(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axes, keepdims, "min")


def rstd(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    """Population standard deviation; zero gradient where std == 0."""
    axes = _normalize_axes(axes, a.ndim)
    count = _check_nonempty(a, axes)
    mean = a.data.mean(axis=axes, keepdims=True)
    std_kd = np.sqrt(((a.data - mean) ** 2).mean(axis=axes, keepdims=True))

    def rule(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        safe = np.where(std_kd > 0, std_kd, 1.0)
        grad = np.where(std_kd > 0, (a.data - mean) / (count * safe), 0.0)
        accumulate(a, g * grad)

    data = std_kd if keepdims else std_kd.squeeze(axis=axes)
    return make_node(data, (a,), rule)


# ---------------------------------------------------------------------
# linear algebra / convolution
# ---------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,N] @ weight[M,N]^T + bias[M], in the weight's dtype."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise DimensionError(
            f"linear expects 2-D input/weight and 1-D bias, got "
            f"{x.shape}, {weight.shape}, {bias.shape}"
        )
    if x.shape[1] != weight.shape[1] or weight.shape[0] != bias.shape[0]:
        raise DimensionError(
            f"linear shape mismatch: input {x.shape}, weight {weight.shape}, "
            f"bias {bias.shape}"
        )

    xd = x.data.astype(weight.data.dtype, copy=False)

    def rule(g):
        accumulate(x, g @ weight.data)
        accumulate(weight, g.T @ xd)
        accumulate(bias, g.sum(axis=0))
    return make_node(xd @ weight.data.T + bias.data, (x, weight, bias), rule)


def conv1d(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    stride: int = 1,
    dilation: int = 1,
    padding: int = 0,
) -> Tensor:
    """Cross-correlation of x[B,Cin,L] with kernel[Cout,Cin,K] -> [B,Cout,L'].

    Computed as a sum over the K taps: tap k is a strided view of the
    padded input, ``xp[:, :, k*dilation :: stride]`` cut to L' columns, and
    contributes ``kernel[:, :, k] @ tap``.  The backward pass re-pads
    ``x`` and takes the same views, so the graph keeps neither an im2col
    buffer nor a padded copy.  Tap k's kernel gradient is the batched GEMM
    ``(g @ tap.transpose(0, 2, 1)).sum(0)``, which reads the strided view
    in place; the input gradient adds ``kernel[:, :, k].T @ g`` into the
    tap's columns.  The sum runs in the kernel's dtype.
    """
    if x.ndim != 3 or kernel.ndim != 3 or bias.ndim != 1:
        raise DimensionError(
            f"conv1d expects 3-D input/kernel and 1-D bias, got "
            f"{x.shape}, {kernel.shape}, {bias.shape}"
        )
    B, cin, L = x.shape
    cout, cin_k, K = kernel.shape
    if cin != cin_k:
        raise DimensionError(
            f"conv1d channel mismatch: input Cin={cin}, kernel Cin={cin_k}"
        )
    if bias.shape[0] != cout:
        raise DimensionError(
            f"conv1d bias length {bias.shape[0]} != Cout {cout}"
        )
    if K < 1 or stride < 1 or dilation < 1:
        raise DimensionError("K, stride and dilation must be >= 1")
    span = dilation * (K - 1) + 1
    if L + 2 * padding < span:
        raise DimensionError(
            f"conv1d receptive span {span} exceeds padded length {L + 2 * padding}"
        )
    L_out = (L + 2 * padding - span) // stride + 1
    last = (L_out - 1) * stride + 1

    xd = x.data.astype(kernel.data.dtype, copy=False)

    def taps():
        xp = xd
        if padding:
            xp = np.zeros((B, cin, L + 2 * padding), xd.dtype)
            xp[:, :, padding:padding + L] = xd
        return [xp[:, :, k * dilation:k * dilation + last:stride]
                for k in range(K)]

    forward_taps = taps()
    val = kernel.data[:, :, 0] @ forward_taps[0]  # [B, Cout, L_out]
    for k in range(1, K):
        val += kernel.data[:, :, k] @ forward_taps[k]
    val += bias.data[None, :, None]

    def rule(g):
        # g: [B, Cout, L_out]; per tap, one GEMM per batch row, then a
        # sum over the batch
        gk = np.empty((cout, cin, K))
        for k, tap in enumerate(taps()):
            gk[:, :, k] = (g @ tap.transpose(0, 2, 1)).sum(axis=0)
        accumulate(kernel, gk)
        accumulate(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            gxp = np.zeros((B, cin, L + 2 * padding))
            for k in range(K):
                start = k * dilation
                gxp[:, :, start:start + last:stride] += \
                    kernel.data[:, :, k].T @ g
            gx = gxp[:, :, padding:padding + L] if padding else gxp
            accumulate(x, gx)
    return make_node(val, (x, kernel, bias), rule)


def groupnorm(
    x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Per-(batch, group) normalization with affine scale/shift.

    ``inv = exp(-0.5 * log(var + eps))`` and ``normed = (x - mean) * inv``
    per group; the output is ``normed * gamma + beta``.  One graph node
    whose backward is the closed form (Wu & He 2018) with
    ``dn = dout * gamma``:
    ``dx = inv * (dn - mean(dn) - normed * mean(dn * normed))``.
    The node keeps only the per-group ``mean`` and ``inv`` ([B, G, 1]);
    the rule rebuilds ``normed`` from ``x`` with the forward's operations,
    so it is the forward's bytes.
    """
    if x.ndim != 3:
        raise DimensionError(f"groupnorm expects [B,C,L], got {x.shape}")
    B, C, L = x.shape
    if C % groups != 0:
        raise DimensionError(f"channels {C} not divisible by groups {groups}")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError("gamma/beta must have shape [C]")
    shape = (B, groups, (C // groups) * L)
    grouped = x.data.reshape(shape)
    mean = grouped.mean(axis=2, keepdims=True)
    # two [B, C, L] buffers serve the five elementwise passes
    val = np.empty((B, C, L), dtype=x.data.dtype)
    centered = np.subtract(grouped, mean, out=val.reshape(shape))
    normed = np.multiply(centered, centered)
    var = normed.mean(axis=2, keepdims=True)
    inv = np.exp(np.log(var + eps) * -0.5)
    np.multiply(centered, inv, out=normed)  # [B, G, n]
    np.multiply(normed.reshape(B, C, L), gamma.data.reshape(1, C, 1), out=val)
    val += beta.data.reshape(1, C, 1)

    def rule(g):
        normed = np.subtract(x.data.reshape(shape), mean)
        normed *= inv
        tmp = g * normed.reshape(B, C, L)
        accumulate(gamma, tmp.sum(axis=(0, 2)))
        accumulate(beta, g.sum(axis=(0, 2)))
        if x.requires_grad:
            gn = (g * gamma.data.reshape(1, C, 1)).reshape(shape)
            tmp = np.multiply(gn, normed, out=tmp.reshape(shape))
            m = tmp.mean(axis=2, keepdims=True)
            gn -= gn.mean(axis=2, keepdims=True)
            gn -= np.multiply(normed, m, out=tmp)
            gn *= inv
            accumulate(x, gn.reshape(B, C, L))
    return make_node(val, (x, gamma, beta), rule)


def rdft(x: Tensor) -> tuple[Tensor, Tensor]:
    """Real DFT of x[..., L] -> (real, imag), each [..., floor(L/2)+1].

    X_f = sum_n x_n exp(-2*pi*i*f*n/L); backward is the adjoint map.
    """
    L = x.shape[-1]
    if L < 2:
        raise DimensionError("rdft requires length >= 2")
    spec = np.fft.rfft(x.data, axis=-1)

    def adjoint(gr, gi):
        c = gr + 1j * gi
        padded = np.zeros(x.data.shape[:-1] + (L,), dtype=complex)
        padded[..., : c.shape[-1]] = c
        return np.real(L * np.fft.ifft(padded, axis=-1))

    re = make_node(np.real(spec), (x,),
                   lambda g: accumulate(x, adjoint(g, np.zeros_like(g))))
    im = make_node(np.imag(spec), (x,),
                   lambda g: accumulate(x, adjoint(np.zeros_like(g), g)))
    return re, im


@lru_cache(maxsize=64)
def _resample_plan(T: int, t_out: int, dtype: np.dtype):
    """Read-only (i0, i1, 1 - w, w) for resampling T samples to t_out:
    output j mixes samples i0[j] and i1[j] with weights 1 - w[j] and w[j]
    (in ``dtype``)."""
    if t_out == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(t_out) * ((T - 1) / (t_out - 1))
    i0 = np.minimum(np.floor(pos).astype(np.intp), T - 1)
    i1 = np.minimum(i0 + 1, T - 1)
    w = (pos - i0).astype(dtype)
    plan = (i0, i1, 1.0 - w, w)
    for a in plan:
        a.setflags(write=False)
    return plan


def resample_linear(x: Tensor, t_out: int) -> Tensor:
    """Endpoint-aligned linear resampling of x[B,C,T] to [B,C,t_out].

    Output j is ``x[..., i0[j]] * (1 - w[j]) + x[..., i1[j]] * w[j]`` at
    position ``j * (T - 1) / (t_out - 1)``; the positions and weights are
    computed once per (T, t_out, dtype) and the gathers are ``np.take``.
    The backward scatters the ``g * (1 - w)`` terms and then the
    ``g * w`` terms with one ``np.bincount``, which adds into each bin in
    ``np.add.at``'s order, so a float64 gradient is the same bytes (the
    sum runs in float64).  ``t_out == T`` is a copy.
    """
    if x.ndim != 3:
        raise DimensionError(f"resample_linear expects [B,C,T], got {x.shape}")
    t_out = int(t_out)
    if t_out < 1:
        raise DimensionError("t_out must be >= 1")
    B, C, T = x.shape
    if t_out == T:
        return make_node(x.data.copy(), (x,), lambda g: accumulate(x, g))

    i0, i1, w0, w1 = _resample_plan(T, t_out, x.data.dtype)
    val = (np.take(x.data, i0, axis=2) * w0
           + np.take(x.data, i1, axis=2) * w1)

    def rule(g):
        bins = (np.arange(B * C) * T)[:, None] + np.concatenate([i0, i1])
        terms = np.concatenate([g * w0, g * w1], axis=2)
        gx = np.bincount(bins.ravel(), terms.ravel(), minlength=B * C * T)
        accumulate(x, gx.reshape(B, C, T))
    return make_node(val, (x,), rule)
