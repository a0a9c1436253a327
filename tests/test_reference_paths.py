"""Property tests: folded code paths against the implementations they
replaced, which are kept here verbatim as references.

``detect_peaks`` and ``rr_from_co2`` now share one min-distance selection,
and ``train_step`` calls a batched ``forward_diffuse`` instead of its own
inline expression. Each must give exactly the old indices and floats.
"""
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vampdiff import signal as sg
from vampdiff.model import DiffusionSchedule, ScheduleError, forward_diffuse
from vampdiff.numcore import Tensor

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
    assert got.indices.dtype == want.dtype
    assert np.array_equal(got.indices, want)


@settings(max_examples=50, deadline=None)
@given(signals(fs_range=(10.0, 75.0)))
def test_rr_from_co2_matches_reference(case):
    co2, fs = case
    assert sg.rr_from_co2(co2, fs) == ref_rr_from_co2(co2, fs)


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
