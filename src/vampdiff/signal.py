"""PPG preprocessing, synthesis, corruption, and physiological features.

All functions here are pure: they take value inputs (numpy arrays and
small dataclasses) and return new values. Randomized operations take an
explicit seed and are deterministic for a fixed seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np


class SignalError(Exception):
    """Base class for signal-module errors."""


class ParameterError(SignalError):
    pass


class InsufficientPeaksError(SignalError):
    """Fewer than two peaks: the window has no detectable heart rate."""


@dataclass
class NormStats:
    mu_train: float
    sigma_train: float

    def __post_init__(self):
        if self.sigma_train <= 0:
            raise ParameterError("sigma_train must be positive")

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mu_train) / self.sigma_train

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.sigma_train + self.mu_train


@dataclass
class SignalWindow:
    samples: np.ndarray
    fs: float
    source_id: str = ""
    start_index: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ParameterError("samples must be a nonempty 1-D vector")
        if self.fs <= 0:
            raise ParameterError("fs must be positive")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class CorruptionSpec:
    kind: str  # noise | baseline | clip | flatline
    noise_sigma: float = 0.0
    wander_amp: float = 0.0
    wander_freq_hz: float = 0.1
    clip_fraction: float = 1.0
    flatline_start_frac: float = 0.5
    flatline_duration_frac: float = 0.25

    def __post_init__(self):
        if (not isinstance(self.kind, str)
                or self.kind not in {"noise", "baseline", "clip", "flatline"}):
            raise ParameterError(f"unknown corruption kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field after kind is numeric
            v = getattr(self, f.name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                raise ParameterError(
                    f"{f.name} must be a finite number, got {v!r}")
        if not (0 < self.clip_fraction <= 1):
            raise ParameterError("clip_fraction must be in (0, 1]")
        if not (0 < self.flatline_duration_frac <= 1):
            raise ParameterError("flatline_duration_frac must be in (0, 1]")
        if not (0 <= self.flatline_start_frac < 1):
            raise ParameterError("flatline_start_frac must be in [0, 1)")
        if self.flatline_start_frac + self.flatline_duration_frac > 1:
            raise ParameterError("flatline segment must lie inside the window")
        if not (0.05 <= self.wander_freq_hz <= 0.3):
            raise ParameterError("wander_freq_hz must be in [0.05, 0.3]")


# ---------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------


def bandpass(window: SignalWindow, lo_hz: float, hi_hz: float) -> SignalWindow:
    """Zero-phase brick-wall bandpass via the real DFT (DC removed)."""
    if not (0 < lo_hz < hi_hz < window.fs / 2):
        raise ParameterError(
            f"band [{lo_hz}, {hi_hz}] Hz outside (0, Nyquist={window.fs / 2})"
        )
    x = window.samples
    L = x.size
    spec = np.fft.rfft(x)
    freqs = np.arange(spec.size) * (window.fs / L)
    keep = (freqs >= lo_hz) & (freqs <= hi_hz)
    keep[0] = False
    spec[~keep] = 0.0
    return replace(window, samples=np.fft.irfft(spec, n=L))


# ---------------------------------------------------------------------
# peaks and heart rate
# ---------------------------------------------------------------------


def _local_maxima(x: np.ndarray) -> np.ndarray:
    if x.size < 3:
        return np.empty(0, dtype=np.int64)
    interior = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    return interior.astype(np.int64)


# cells of the [rows, 2 * half + 1] window matrix _prominences builds per block
_PROMINENCE_CELLS = 1 << 16


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence with window-boundary saddles.

    For peak p of height h, the walk left of p stops at the nearest
    sample that is not <= h (or at the boundary), and ``left_min`` is the
    minimum from there up to p; likewise right.  The prominence is
    ``h - max(left_min, right_min)``.  Each peak sees the window of
    ``half`` samples on either side of it, NaN-padded past the ends so the
    boundary stops a walk like a higher sample.  Peaks whose walks both
    stop inside the window are done; the rest try again with ``half``
    eight times as large.  Blocks of peaks keep each window matrix within
    ``max(_PROMINENCE_CELLS, 2 * x.size + 1)`` cells.  Only comparisons
    and minima are taken, so the result is exactly the walk's.
    """
    proms = np.empty(peaks.size)
    todo = np.arange(peaks.size)
    half = 64
    while todo.size:
        half = min(half, x.size)
        padded = np.full(x.size + 2 * half, np.nan)
        padded[half:half + x.size] = x
        windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                           2 * half + 1)
        cols = np.arange(2 * half + 1)
        rows = max(1, _PROMINENCE_CELLS // cols.size)
        again = []
        for block in np.split(todo, range(rows, todo.size, rows)):
            win = windows[peaks[block]]
            h = win[:, half:half + 1]
            stop = ~(win <= h)
            left, right = stop[:, half - 1::-1], stop[:, half + 1:]
            lo = half - np.argmax(left, axis=1)[:, None]
            hi = half + np.argmax(right, axis=1)[:, None]
            left_min = np.where((cols >= lo) & (cols <= half), win,
                                np.inf).min(axis=1)
            right_min = np.where((cols >= half) & (cols <= hi), win,
                                 np.inf).min(axis=1)
            done = left.any(axis=1) & right.any(axis=1)
            proms[block[done]] = (h[:, 0] - np.maximum(left_min,
                                                        right_min))[done]
            again.append(block[~done])
        todo = np.concatenate(again)
        half *= 8
    return proms


def _select_peaks(x: np.ndarray, cands: np.ndarray,
                  min_gap: int) -> np.ndarray:
    """Sorted candidates kept greedily, highest first (ties to the earlier
    index), dropping any closer than ``min_gap`` samples to a kept one."""
    order = sorted(range(cands.size), key=lambda j: (-x[cands[j]], cands[j]))
    kept: list[int] = []
    for j in order:
        p = int(cands[j])
        if all(abs(p - q) >= min_gap for q in kept):
            kept.append(p)
    return np.sort(np.asarray(kept, dtype=np.int64))


def detect_peaks(
    window: SignalWindow,
    min_distance_s: float,
    prominence_frac: float,
    height_percentile: float,
) -> np.ndarray:
    """Sorted int64 indices of the systolic peaks of a bandpass-filtered
    window.

    A candidate must be a strict local maximum, exceed the stated
    percentile of the filtered samples, and have topographic prominence
    of at least ``prominence_frac`` times the filtered signal's standard
    deviation. Minimum-distance conflicts keep the higher peak (ties go
    to the earlier index).
    """
    if min_distance_s <= 0 or prominence_frac <= 0:
        raise ParameterError("peak parameters must be positive")
    x = window.samples
    cands = _local_maxima(x)
    height_thr = np.percentile(x, height_percentile)
    prom_thr = prominence_frac * x.std()
    cands = cands[x[cands] > height_thr]
    if cands.size:
        cands = cands[_prominences(x, cands) >= prom_thr]
    return _select_peaks(x, cands, int(round(min_distance_s * window.fs)))


def systolic_peaks(window: SignalWindow, band, peak_params) -> np.ndarray:
    """Peaks of ``window`` after the bandpass ``band`` = (lo, hi) Hz;
    ``peak_params`` are :func:`detect_peaks`'s positional parameters."""
    return detect_peaks(bandpass(window, *band), *peak_params)


def estimate_hr(peaks: np.ndarray, fs: float) -> tuple[float, float]:
    """(hr_bpm, mean_ibi_s) from the gaps between successive peak indices."""
    if len(peaks) < 2:
        raise InsufficientPeaksError("need at least two peaks for HR")
    mean_ibi = float(np.diff(peaks).mean()) / fs
    return 60.0 / mean_ibi, mean_ibi


# ---------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------


def segment(
    recording: np.ndarray,
    fs: float,
    window_len: int,
    overlap_frac: float = 0.5,
    quality_min_peaks: int = 0,
    source_id: str = "",
    *,
    band,
    peak_params,
) -> list[SignalWindow]:
    """Cut a recording into overlapping windows with a transient quality check.

    :func:`systolic_peaks` under ``band`` and ``peak_params`` is applied only
    to decide retention; retained windows store the unfiltered samples.
    """
    recording = np.asarray(recording, dtype=np.float64)
    if window_len > recording.size:
        raise ParameterError("window_len exceeds recording length")
    if not (0 <= overlap_frac < 1):
        raise ParameterError("overlap_frac must be in [0, 1)")
    stride = int(round(window_len * (1 - overlap_frac)))
    stride = max(stride, 1)
    out = []
    for start in range(0, recording.size - window_len + 1, stride):
        win = SignalWindow(recording[start:start + window_len].copy(), fs,
                           source_id=source_id, start_index=start)
        if quality_min_peaks > 0:
            if len(systolic_peaks(win, band, peak_params)) < quality_min_peaks:
                continue
        out.append(win)
    return out


# ---------------------------------------------------------------------
# synthesis and corruption
# ---------------------------------------------------------------------


def synth_ppg(
    fs: float,
    duration_s: float,
    hr_bpm: float,
    rr_bpm: float,
    amp: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic PPG: per-beat systolic + dicrotic Gaussian bumps with
    respiratory amplitude modulation and baseline wander.

    Beat intervals carry +/-2% seeded jitter. Deterministic per seed.
    """
    if not (40 <= hr_bpm <= 180):
        raise ParameterError("hr_bpm must be in [40, 180]")
    if not (6 <= rr_bpm <= 35):
        raise ParameterError("rr_bpm must be in [6, 35]")
    rng = np.random.default_rng(seed)
    n = int(round(fs * duration_s))
    t = np.arange(n) / fs
    cycle = 60.0 / hr_bpm
    sigma_sys = 0.13 * cycle
    sigma_dic = 0.26 * cycle
    x = np.zeros(n)
    beat = -cycle  # start one cycle early so the window edge has a beat tail
    while beat < duration_s + cycle:
        center = beat + 0.25 * cycle
        x += np.exp(-0.5 * ((t - center) / sigma_sys) ** 2)
        x += 0.35 * np.exp(-0.5 * ((t - center - 0.4 * cycle) / sigma_dic) ** 2)
        beat += cycle * (1.0 + 0.02 * rng.uniform(-1, 1))
    resp = np.sin(2 * np.pi * rr_bpm * t / 60.0)
    return amp * (x * (1.0 + 0.15 * resp) + 0.1 * resp)


def corrupt(window: SignalWindow, spec: CorruptionSpec, seed: int = 0) -> SignalWindow:
    """Apply one synthetic corruption; pure function of (window, spec, seed)."""
    rng = np.random.default_rng(seed)
    x = window.samples.copy()
    n = x.size
    if spec.kind == "noise":
        x = x + rng.normal(0.0, 1.0, n) * spec.noise_sigma
    elif spec.kind == "baseline":
        t = np.arange(n) / window.fs
        phase = rng.uniform(0, 2 * np.pi)
        x = x + spec.wander_amp * np.sin(2 * np.pi * spec.wander_freq_hz * t + phase)
    elif spec.kind == "clip":
        lo, hi = x.min(), x.max()
        med = np.median(x)
        half = 0.5 * (hi - lo) * spec.clip_fraction
        x = np.clip(x, med - half, med + half)
        if spec.clip_fraction == 1.0:
            x = window.samples.copy()  # full range: identity by definition
    elif spec.kind == "flatline":
        start = int(round(spec.flatline_start_frac * n))
        length = int(round(spec.flatline_duration_frac * n))
        end = min(start + length, n)
        if end > start:
            x[start:end] = x[start]
    return replace(window, samples=x)


# ---------------------------------------------------------------------
# respiratory rate from capnography
# ---------------------------------------------------------------------

RR_VALID_RANGE = (6.0, 35.0)


def rr_from_co2(co2: np.ndarray, fs: float) -> Optional[float]:
    """Breaths/min from a CO2 waveform, or None when excluded.

    Five-sample centered moving average (shrunk at the edges), peak
    detection with 1 s minimum distance and absolute prominence 0.05,
    RR = 60 / mean inter-breath interval; rates outside [6, 35] are
    excluded.
    """
    co2 = np.asarray(co2, dtype=np.float64)
    if co2.size < fs * 2:
        raise ParameterError("CO2 segment must span at least 2 s")
    # five shifted adds over a copy padded with two zeros on each side,
    # summed from +0 in the order a per-sample slice mean sums them
    n = co2.size
    padded = np.zeros(n + 4)
    padded[2:-2] = co2
    smoothed = np.zeros(n)
    for k in range(5):
        smoothed += padded[k:k + n]
    i = np.arange(n)
    smoothed /= np.minimum(i, 2) + np.minimum(n - 1 - i, 2) + 1
    cands = _local_maxima(smoothed)
    if cands.size:
        cands = cands[_prominences(smoothed, cands) >= 0.05]
    kept = _select_peaks(smoothed, cands, int(round(1.0 * fs)))
    if kept.size < 2:
        return None
    ibi = np.diff(kept).mean() / fs
    rr = 60.0 / ibi
    if not (RR_VALID_RANGE[0] <= rr <= RR_VALID_RANGE[1]):
        return None
    return float(rr)
