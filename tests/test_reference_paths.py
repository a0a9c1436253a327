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

``_average_ranks``, ``auprc`` and ``tpr_at_fpr`` take their tie groups from
one ``np.unique`` sort instead of scanning sorted runs in Python loops.
Each must give exactly the old floats, ties and ``-0.0`` included.
"""
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
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
from vampdiff.numcore.tensor import _toposort
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
    for g_new, g_old in zip(got_grads, want_grads):
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
