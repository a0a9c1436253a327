"""Property tests: folded code paths against the implementations they
replaced, which are kept here verbatim as references.

``detect_peaks`` and ``rr_from_co2`` now share one min-distance selection,
and ``train_step`` calls a batched ``forward_diffuse`` instead of its own
inline expression. Each must give exactly the old indices and floats.

``groupnorm`` is one graph node with a closed-form backward instead of a
composite of 15 nodes, and ``Tensor.backward`` frees interior nodes as it
goes instead of keeping the whole graph. The groupnorm forward and the
leaf gradients the new sweep gives a training step must be exactly the
old ones; the groupnorm gradients may move in the last few bits.

``silu`` and ``groupnorm`` rebuild the sigmoid and the normalized input in
their rules instead of keeping them. Outputs and gradients must be
exactly the old ones.

``_average_ranks``, ``auprc`` and ``tpr_at_fpr`` take their tie groups from
one ``np.unique`` sort instead of scanning sorted runs in Python loops.
Each must give exactly the old floats, ties and ``-0.0`` included.

``_prominences`` takes masked minima over a window around each peak
instead of walking sample by sample, ``resample_linear`` gathers with
``np.take`` and scatters its gradient with one ``np.bincount`` instead of
``np.add.at``, and conv1d's kernel gradient is one batched GEMM per tap
instead of a GEMM over a transposed copy. The first two must give exactly
the old bytes; the kernel gradient may move within a rounding bound.
"""
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vampdiff import evaluation as ev
from vampdiff import numcore as nc
from vampdiff import signal as sg
from vampdiff.config import desk_config
from vampdiff.model import (
    DiffusionSchedule,
    ScheduleError,
    VampDiffModel,
    forward_diffuse,
)
from vampdiff.numcore import (
    Tensor,
    UsageError,
    add,
    exp,
    log,
    mul,
    reshape,
    rmean,
    scale,
    square,
    sub,
)
from vampdiff.numcore.tensor import _toposort, accumulate, make_node
from vampdiff.train import make_optimizer, train_step

# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------


def ref_local_maxima(x):
    if x.size < 3:
        return np.empty(0, dtype=np.int64)
    interior = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    return interior.astype(np.int64)


def ref_prominences(x, peaks):
    proms = np.empty(peaks.size)
    for j, p in enumerate(peaks):
        h = x[p]
        left_min = h
        i = p - 1
        while i >= 0 and x[i] <= h:
            left_min = min(left_min, x[i])
            i -= 1
        right_min = h
        i = p + 1
        while i < x.size and x[i] <= h:
            right_min = min(right_min, x[i])
            i += 1
        proms[j] = h - max(left_min, right_min)
    return proms


def ref_detect_peaks(x, fs, min_distance_s, prominence_frac,
                     height_percentile):
    cands = ref_local_maxima(x)
    if cands.size == 0:
        return np.empty(0, dtype=np.int64)
    height_thr = np.percentile(x, height_percentile)
    prom_thr = prominence_frac * x.std()
    cands = cands[x[cands] > height_thr]
    if cands.size:
        cands = cands[ref_prominences(x, cands) >= prom_thr]
    min_gap = int(round(min_distance_s * fs))
    order = sorted(range(cands.size), key=lambda j: (-x[cands[j]], cands[j]))
    kept = []
    for j in order:
        p = int(cands[j])
        if all(abs(p - q) >= min_gap for q in kept):
            kept.append(p)
    return np.sort(np.asarray(kept, dtype=np.int64))


def ref_rr_from_co2(co2, fs) -> Optional[float]:
    co2 = np.asarray(co2, dtype=np.float64)
    smoothed = np.empty_like(co2)
    for i in range(co2.size):
        lo = max(0, i - 2)
        hi = min(co2.size, i + 3)
        smoothed[i] = co2[lo:hi].mean()
    cands = ref_local_maxima(smoothed)
    if cands.size:
        cands = cands[ref_prominences(smoothed, cands) >= 0.05]
    min_gap = int(round(1.0 * fs))
    order = sorted(range(cands.size),
                   key=lambda j: (-smoothed[cands[j]], cands[j]))
    kept = []
    for j in order:
        p = int(cands[j])
        if all(abs(p - q) >= min_gap for q in kept):
            kept.append(p)
    if len(kept) < 2:
        return None
    ibi = np.diff(np.sort(kept)).mean() / fs
    rr = 60.0 / ibi
    if not (6.0 <= rr <= 35.0):
        return None
    return float(rr)


def ref_resample_linear(x, t_out, g):
    """(forward, input gradient for the output gradient g)."""
    T = x.shape[2]
    if t_out == T:
        return x.copy(), g
    if t_out == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(t_out) * ((T - 1) / (t_out - 1))
    i0 = np.floor(pos).astype(int)
    i0 = np.minimum(i0, T - 1)
    i1 = np.minimum(i0 + 1, T - 1)
    w = (pos - i0).astype(x.dtype)
    val = x[:, :, i0] * (1.0 - w) + x[:, :, i1] * w
    gx = np.zeros_like(x)
    np.add.at(gx, (slice(None), slice(None), i0), g * (1.0 - w))
    np.add.at(gx, (slice(None), slice(None), i1), g * w)
    return val, gx


def ref_conv1d_kernel_grad(x, K, g, stride, dilation, padding):
    """conv1d's kernel gradient, one GEMM per tap over a
    ``[B * L_out, Cin]`` transposed copy of the tap."""
    B, cin, L = x.shape
    _, cout, L_out = g.shape
    last = (L_out - 1) * stride + 1
    xp = np.zeros((B, cin, L + 2 * padding))
    xp[:, :, padding:padding + L] = x
    g2 = g.transpose(1, 0, 2).reshape(cout, B * L_out)
    gk = np.empty((cout, cin, K))
    for k in range(K):
        tap = xp[:, :, k * dilation:k * dilation + last:stride]
        gk[:, :, k] = g2 @ tap.transpose(0, 2, 1).reshape(B * L_out, cin)
    return gk


def ref_groupnorm(x, groups, gamma, beta, eps=1e-5):
    B, C, L = x.shape
    grouped = reshape(x, (B, groups, (C // groups) * L))
    mean = rmean(grouped, axes=2, keepdims=True)
    centered = sub(grouped, mean)
    var = rmean(square(centered), axes=2, keepdims=True)
    inv = exp(scale(log(add(var, Tensor(np.full_like(var.data, eps)))), -0.5))
    normed = reshape(mul(centered, inv), (B, C, L))
    g = reshape(gamma, (1, C, 1))
    b = reshape(beta, (1, C, 1))
    return add(mul(normed, g), b)


def ref_silu_keeping_sig(a):
    sig = 1.0 / (1.0 + np.exp(-a.data))
    val = a.data * sig
    return make_node(val, (a,), lambda g: accumulate(
        a, g * (sig * (1.0 + a.data * (1.0 - sig)))))


def ref_groupnorm_keeping_normed(x, groups, gamma, beta, eps=1e-5):
    B, C, L = x.shape
    shape = (B, groups, (C // groups) * L)
    grouped = x.data.reshape(shape)
    val = np.empty((B, C, L), dtype=x.data.dtype)
    centered = np.subtract(grouped, grouped.mean(axis=2, keepdims=True),
                           out=val.reshape(shape))
    normed = np.multiply(centered, centered)
    var = normed.mean(axis=2, keepdims=True)
    inv = np.exp(np.log(var + eps) * -0.5)
    np.multiply(centered, inv, out=normed)  # [B, G, n]
    np.multiply(normed.reshape(B, C, L), gamma.data.reshape(1, C, 1), out=val)
    val += beta.data.reshape(1, C, 1)

    def rule(g):
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


def ref_backward(root):
    order = _toposort(root)
    for node in order:
        if node._prev:
            node.grad = None
    if root._prev:
        root.grad = np.ones_like(root.data)
    else:
        seed = np.ones_like(root.data)
        root.grad = seed if root.grad is None else root.grad + seed
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node)()


def ref_average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def ref_auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ap = 0.0
    tp = fp = 0
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[j + 1] == s[i]:
            j += 1
        d_tp = int(y[i:j + 1].sum())
        d_fp = (j - i + 1) - d_tp
        tp += d_tp
        fp += d_fp
        ap += d_tp * tp / (tp + fp)
        i = j + 1
    return float(ap / n_pos)


def ref_tpr_at_fpr(scores: np.ndarray, labels: np.ndarray,
                   fpr: float = 0.05) -> float:
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    best = 0.0
    for thr in np.unique(scores)[::-1]:
        pred = scores >= thr
        cur_fpr = (pred & (labels == 0)).sum() / n_neg
        if cur_fpr <= fpr:
            best = max(best, (pred & (labels == 1)).sum() / n_pos)
    return float(best)


# ----------------------------------------------------------------------
# signals
# ----------------------------------------------------------------------


@st.composite
def signals(draw, fs_range=(10.0, 300.0)):
    """(x, fs): a seeded periodic signal plus noise, 150-3072 samples,
    sometimes quantized so that separate peaks tie in height."""
    n = draw(st.integers(150, 3072))
    fs = draw(st.floats(fs_range[0], min(fs_range[1], n / 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / fs
    rate_hz = draw(st.floats(0.1, 3.0))
    x = np.sin(2 * np.pi * rate_hz * t + rng.uniform(0, 2 * np.pi))
    x = x + draw(st.floats(0.0, 1.0)) * rng.standard_normal(n)
    levels = draw(st.sampled_from([0, 4, 16]))
    if levels:
        x = np.round(x * levels) / levels
    return x, fs


@settings(max_examples=50, deadline=None)
@given(signals(), st.floats(0.05, 1.0), st.floats(0.01, 0.5),
       st.floats(0.0, 95.0))
def test_detect_peaks_matches_reference(case, min_distance_s,
                                        prominence_frac, height_percentile):
    x, fs = case
    got = sg.detect_peaks(sg.SignalWindow(x, fs), min_distance_s,
                          prominence_frac, height_percentile)
    want = ref_detect_peaks(x, fs, min_distance_s, prominence_frac,
                            height_percentile)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=50, deadline=None)
@given(signals(fs_range=(10.0, 75.0)))
def test_rr_from_co2_matches_reference(case):
    co2, fs = case
    assert sg.rr_from_co2(co2, fs) == ref_rr_from_co2(co2, fs)


def test_prominences_of_a_long_noisy_signal():
    """Exactly the walk's floats on 100k samples with ~30k candidates and
    tied heights, in bounded memory: one [candidates, samples] bool mask
    would take about 3 GB."""
    rng = np.random.default_rng(0)
    t = np.arange(100_000) / 75.0
    x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * rng.standard_normal(t.size)
    x = np.round(x * 8) / 8
    cands = ref_local_maxima(x)
    assert cands.size > 10_000
    tracemalloc.start()
    try:
        got = sg._prominences(x, cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == ref_prominences(x, cands).tobytes()
    assert peak < 32e6


# ----------------------------------------------------------------------
# rank statistics
# ----------------------------------------------------------------------


@st.composite
def scored_labels(draw):
    """(scores, labels): 2-60 seeded scores with both classes present,
    often rounded so that scores tie, sometimes with -0.0 beside 0.0."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    levels = draw(st.sampled_from([0, 1, 4, 16]))
    if levels:
        scores = np.round(scores * levels) / levels
    if draw(st.booleans()):
        scores[rng.random(n) < 0.3] = -0.0
        scores[rng.random(n) < 0.3] = 0.0
    labels = rng.integers(0, 2, size=n)
    labels[rng.choice(n, size=2, replace=False)] = [0, 1]
    return scores, labels


def same_bytes(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(scored_labels(), st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]))
def test_rank_statistics_match_reference(case, fpr):
    scores, labels = case
    assert same_bytes(ev._average_ranks(scores), ref_average_ranks(scores))
    assert same_bytes(ev.auprc(scores, labels), ref_auprc(scores, labels))
    assert same_bytes(ev.tpr_at_fpr(scores, labels, fpr),
                      ref_tpr_at_fpr(scores, labels, fpr))


# ----------------------------------------------------------------------
# forward diffusion
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(21, 100), st.integers(1, 6), st.integers(1, 32),
       st.integers(0, 2**32 - 1))
def test_batched_forward_diffuse_is_exact(T, B, L, seed):
    sched = DiffusionSchedule(T)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((B, 1, L))
    eps = rng.standard_normal((B, 1, L))
    t = rng.integers(1, T + 1, size=B)
    batched = forward_diffuse(Tensor(x0), t, Tensor(eps), sched).data
    rows = np.concatenate([
        forward_diffuse(Tensor(x0[i:i + 1]), int(t[i]),
                        Tensor(eps[i:i + 1]), sched).data
        for i in range(B)])
    # the expression train_step computed inline before it called
    # forward_diffuse
    ab = np.array([sched.alpha_bar(int(ti)) for ti in t])[:, None, None]
    inline = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    assert (batched == rows).all()
    assert (batched == inline).all()


@pytest.mark.parametrize("t", [np.array([1, 0]), np.array([1, 51]),
                               np.array([1, 2, 3]), np.array([[1, 2]])])
def test_forward_diffuse_checks_every_t(t):
    x0 = Tensor(np.zeros((2, 1, 4)))
    with pytest.raises(ScheduleError):
        forward_diffuse(x0, t, Tensor(np.zeros((2, 1, 4))),
                        DiffusionSchedule(50))


# ----------------------------------------------------------------------
# groupnorm and the backward sweep
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 16), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
# two samples 0.0125 apart in a group: var ~ eps and inv = 142.9
@example(B=1, groups=2, per_group=1, L=2, spread=36.0, seed=92)
def test_groupnorm_matches_composite(B, groups, per_group, L, spread, seed):
    C = groups * per_group
    rng = np.random.default_rng(seed)
    x = spread * rng.standard_normal((B, C, L)) + rng.standard_normal()
    gamma, beta = rng.standard_normal(C), rng.standard_normal(C)
    w = rng.standard_normal((B, C, L))
    results = []
    for gn in (nc.groupnorm, ref_groupnorm):
        ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        out = gn(ts[0], groups, ts[1], ts[2])
        nc.rsum(mul(nc.silu(out), Tensor(w))).backward()
        results.append((out.data, [t.grad for t in ts]))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    # dx = inv * (dn - mean(dn) - normed * mean(dn * normed)) subtracts
    # terms of size inv * |dn| per group, so both sides carry a rounding
    # error relative to the largest of them, not to dx
    sig = 1.0 / (1.0 + np.exp(-want))
    dn = w * sig * (1.0 + want * (1.0 - sig)) * gamma[:, None]
    grouped = x.reshape(B, groups, -1)
    inv = 1.0 / np.sqrt(grouped.var(axis=2, keepdims=True) + 1e-5)
    cancelled = np.abs(inv * dn.reshape(grouped.shape)).max(axis=2,
                                                            keepdims=True)
    atol = np.broadcast_to(1e-12 * cancelled, grouped.shape).reshape(B, C, L)
    gx, want_gx = got_grads[0], want_grads[0]
    assert np.all(np.abs(gx - want_gx) <= atol + 1e-12 * np.abs(want_gx))
    for g_new, g_old in zip(got_grads[1:], want_grads[1:]):
        np.testing.assert_allclose(g_new, g_old, rtol=1e-12, atol=1e-12)


def test_release_sweep_matches_keep_everything_sweep(monkeypatch):
    """Leaf gradients of frozen and KL-active training steps are the old
    sweep's bytes, and the new sweep frees every interior node."""
    cfg = desk_config(window_len=64, latent_len=16, latent_channels=4,
                      pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                      epochs=3, batch_size=2, freeze_epochs=1,
                      beta_floor_until=2, beta_ramp_until=3)
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    opt = make_optimizer(model, cfg)
    x0 = np.random.default_rng(1).standard_normal((2, 1, 64))
    release = Tensor.backward
    swept = []

    def compare(root):
        order = _toposort(root)
        interior = [n for n in order if n._prev]
        leaves = [n for n in order if not n._prev and n.requires_grad]
        before = [n.grad for n in leaves]
        ref_backward(root)
        want = [n.grad.tobytes() for n in leaves]
        for n, g in zip(leaves, before):
            n.grad = g
        for n in interior:
            n.grad = None
        release(root)
        assert [n.grad.tobytes() for n in leaves] == want
        assert all(n.grad is None and n._prev == () for n in interior)
        with pytest.raises(UsageError, match="already released"):
            release(root)
        swept.append(len(interior))

    monkeypatch.setattr(Tensor, "backward", compare)
    for epoch in (1, 2):
        train_step(model, opt, x0, epoch, np.random.default_rng(epoch))
    # the unfrozen step's graph also holds the encoder and the KL
    assert len(swept) == 2 and 100 < swept[0] < swept[1]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 16), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_rebuilt_activations_give_the_stored_ones_bytes(B, groups, per_group,
                                                        L, spread, seed):
    """silu and groupnorm rebuild in their rules what they once stored;
    outputs and gradients keep their bytes."""
    C = groups * per_group
    rng = np.random.default_rng(seed)
    arrays = (spread * rng.standard_normal((B, C, L)) + rng.standard_normal(),
              rng.standard_normal(C), rng.standard_normal(C))
    w = Tensor(rng.standard_normal((B, C, L)))
    results = []
    for gn, silu in ((nc.groupnorm, nc.silu),
                     (ref_groupnorm_keeping_normed, ref_silu_keeping_sig)):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = silu(gn(ts[0], groups, ts[1], ts[2]))
        nc.rsum(mul(out, w)).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in ts])
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# resample_linear and the conv1d backward
# ----------------------------------------------------------------------


def grads_for(op, arrays, g):
    """Output of ``op`` on leaves holding ``arrays`` and the leaves'
    gradients for the output gradient ``g``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    nc.rsum(mul(out, Tensor(g))).backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("T, t_out", [
    (5, 11), (192, 384), (384, 768), (192, 768),  # up-sampling
    (11, 5), (768, 192), (50, 49),                # down-sampling
    (7, 1), (1, 6), (1, 1), (9, 9),               # t_out=1, T=1, the copy
])
def test_resample_linear_matches_reference(T, t_out):
    rng = np.random.default_rng(T * 1000 + t_out)
    x = rng.standard_normal((3, 4, T))
    g = rng.standard_normal((3, 4, t_out))
    got, (gx,) = grads_for(lambda a: nc.resample_linear(a, t_out), [x], g)
    want, want_gx = ref_resample_linear(x, t_out, g)
    assert got.tobytes() == want.tobytes()
    assert gx.tobytes() == want_gx.tobytes()
    x32 = x.astype(np.float32)
    with nc.no_grad():
        got32 = nc.resample_linear(Tensor(x32), t_out).data
    assert got32.tobytes() == ref_resample_linear(x32, t_out, g)[0].tobytes()


@pytest.mark.parametrize("B, cin, cout, L, K, stride, dilation, padding", [
    (4, 1, 8, 96, 5, 2, 1, 2),    # encoder stem: Cin=1, stride 2
    (4, 1, 1, 96, 2, 1, 1, 0),    # loss derivative: Cin=Cout=1, padding 0
    (4, 8, 1, 96, 3, 1, 1, 1),    # U-Net out_conv: Cout=1
    (4, 8, 16, 96, 3, 2, 1, 1),   # U-Net down: stride 2
    (4, 16, 16, 48, 3, 1, 1, 1),  # residual block
    (3, 8, 8, 40, 3, 1, 2, 2),    # RRNet stages: dilation 2, 4, 8
    (3, 8, 16, 40, 3, 1, 4, 4),
    (3, 16, 16, 40, 3, 1, 8, 8),
    (2, 5, 3, 33, 4, 3, 2, 0),    # stride 3, even K, no padding
    (2, 6, 4, 17, 1, 1, 1, 0),    # 1x1
])
def test_conv1d_backward_matches_the_per_tap_rule(B, cin, cout, L, K, stride,
                                                  dilation, padding):
    """The kernel gradient is the per-tap transposed-copy GEMM's within
    the rounding of a reordered sum of n = B * L_out products,
    2 * n * eps * sum(|g| * |tap|); the input and bias gradients keep
    their bytes."""
    rng = np.random.default_rng(B * cin * cout * L)
    x = rng.standard_normal((B, cin, L))
    kernel = rng.standard_normal((cout, cin, K))
    bias = rng.standard_normal(cout)
    L_out = (L + 2 * padding - dilation * (K - 1) - 1) // stride + 1
    g = rng.standard_normal((B, cout, L_out))

    def conv(a, k, b):
        return nc.conv1d(a, k, b, stride, dilation, padding)

    _, (gx, gk, gb) = grads_for(conv, [x, kernel, bias], g)
    want = ref_conv1d_kernel_grad(x, K, g, stride, dilation, padding)
    scale = ref_conv1d_kernel_grad(np.abs(x), K, np.abs(g), stride,
                                   dilation, padding)
    bound = 2 * B * L_out * np.finfo(np.float64).eps * scale
    assert (np.abs(gk - want) <= bound).all()
    last = (L_out - 1) * stride + 1
    gxp = np.zeros((B, cin, L + 2 * padding))
    for k in range(K):
        gxp[:, :, k * dilation:k * dilation + last:stride] += \
            kernel[:, :, k].T @ g
    assert gx.tobytes() == gxp[:, :, padding:padding + L].tobytes()
    assert gb.tobytes() == g.sum(axis=(0, 2)).tobytes()
