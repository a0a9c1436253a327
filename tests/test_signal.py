import numpy as np
import pytest

from vampdiff import signal as sg

# the desk and full profiles' bandpass (Hz) and detect_peaks parameters
BAND = (0.7, 3.0)
PEAKS = (0.35, 0.1, 60.0)


def sine(freq, fs=75.0, n=750):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * freq * t)


# ------------------------------------------------------------------ bandpass


def test_bandpass_inband_passthrough():
    x = sine(2.0)
    out = sg.bandpass(sg.SignalWindow(x, 75.0), 0.7, 3.0)
    assert np.abs(out.samples - (x - x.mean())).max() < 1e-9


def test_bandpass_rejects_out_of_band():
    out = sg.bandpass(sg.SignalWindow(sine(0.2), 75.0), 0.7, 3.0)
    assert np.abs(out.samples).max() < 1e-9


def test_bandpass_linearity():
    mixed = sine(0.2) + sine(2.0)
    out = sg.bandpass(sg.SignalWindow(mixed, 75.0), 0.7, 3.0)
    target = sine(2.0)
    assert np.abs(out.samples - (target - target.mean())).max() < 1e-9


def test_bandpass_idempotent():
    rng = np.random.default_rng(0)
    w = sg.SignalWindow(rng.normal(size=600), 75.0)
    once = sg.bandpass(w, 0.7, 3.0)
    twice = sg.bandpass(once, 0.7, 3.0)
    assert np.abs(twice.samples - once.samples).max() < 1e-10


def test_bandpass_band_validation():
    w = sg.SignalWindow(np.ones(100), 75.0)
    with pytest.raises(sg.ParameterError):
        sg.bandpass(w, 3.0, 0.7)
    with pytest.raises(sg.ParameterError):
        sg.bandpass(w, 0.7, 40.0)


# --------------------------------------------------------------------- peaks


def test_detect_peaks_impulse_train():
    x = np.zeros(400)
    x[[50, 150, 250]] = 1.0
    peaks = sg.detect_peaks(sg.SignalWindow(x, 100.0), 0.35, 0.1, 60.0)
    np.testing.assert_array_equal(peaks, [50, 150, 250])


def test_detect_peaks_constant_signal_empty():
    peaks = sg.detect_peaks(sg.SignalWindow(np.ones(200), 100.0), *PEAKS)
    assert len(peaks) == 0


def test_detect_peaks_min_distance_keeps_higher():
    x = np.zeros(200)
    x[50] = 1.0
    x[70] = 0.8  # 0.2 s apart at fs=100, min distance 0.35 s
    peaks = sg.detect_peaks(sg.SignalWindow(x, 100.0), 0.35, 0.1, 60.0)
    np.testing.assert_array_equal(peaks, [50])


def test_detect_peaks_gap_invariant():
    rng = np.random.default_rng(1)
    for seed in range(10):
        x = rng.normal(size=500)
        peaks = sg.detect_peaks(sg.SignalWindow(x, 100.0), 0.1, 0.05, 50.0)
        if len(peaks) > 1:
            assert np.all(np.diff(peaks) >= round(0.1 * 100))
            assert np.all(np.diff(peaks) > 0)


def test_peak_indices_amplitude_invariant():
    x = sg.synth_ppg(75, 15, 90, 15, amp=1.0, seed=3)
    a = sg.systolic_peaks(sg.SignalWindow(x, 75.0), BAND, PEAKS)
    b = sg.systolic_peaks(sg.SignalWindow(4.2 * x + 10.0, 75.0), BAND, PEAKS)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------------ HR


def test_estimate_hr_uniform_spacing():
    peaks = np.array([0, 50, 100, 150])
    hr, ibi = sg.estimate_hr(peaks, 100.0)
    assert hr == pytest.approx(120.0)
    assert ibi == pytest.approx(0.5)


def test_estimate_hr_one_second_spacing():
    peaks = np.array([0, 100, 200])
    hr, _ = sg.estimate_hr(peaks, 100.0)
    assert hr == pytest.approx(60.0)


def test_estimate_hr_mean_of_gaps():
    peaks = np.array([0, 40, 100])
    hr, ibi = sg.estimate_hr(peaks, 100.0)
    assert ibi == pytest.approx(0.5)
    assert hr == pytest.approx(120.0)


def test_estimate_hr_insufficient_peaks():
    with pytest.raises(sg.InsufficientPeaksError):
        sg.estimate_hr(np.array([5]), 100.0)


# ------------------------------------------------------------------- segment


def test_segment_stride_arithmetic():
    wins = sg.segment(np.arange(10.0), 100.0, 4, overlap_frac=0.5, band=BAND,
                      peak_params=PEAKS)
    assert [w.start_index for w in wins] == [0, 2, 4, 6]


def test_segment_quality_filter_drops_constant():
    wins = sg.segment(np.ones(2000), 75.0, 750, quality_min_peaks=2, band=BAND,
                      peak_params=PEAKS)
    assert wins == []


def test_segment_retains_unfiltered_and_requality():
    rec = sg.synth_ppg(75, 60, 90, 15, seed=4)
    wins = sg.segment(rec, 75.0, 768, quality_min_peaks=2, source_id="s",
                      band=BAND, peak_params=PEAKS)
    assert wins
    for w in wins:
        # stored samples are unfiltered
        np.testing.assert_array_equal(
            w.samples, rec[w.start_index:w.start_index + 768])
        filt = sg.bandpass(w, 0.7, 3.0)
        assert len(sg.detect_peaks(filt, *PEAKS)) >= 2


# ----------------------------------------------------------------- normalize


def test_normalize_identity_stats():
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(sg.NormStats(0.0, 1.0).normalize(x), x)


def test_normalize_hand_values():
    out = sg.NormStats(3.0, 1.0).normalize(np.array([2.0, 4.0]))
    np.testing.assert_array_equal(out, [-1.0, 1.0])


def test_normalize_roundtrip():
    x = np.random.default_rng(5).normal(size=300)
    stats = sg.NormStats(1.3, 2.7)
    back = stats.denormalize(stats.normalize(x))
    assert np.abs(back - x).max() < 1e-12


def test_normstats_rejects_nonpositive_sigma():
    with pytest.raises(sg.ParameterError):
        sg.NormStats(0.0, 0.0)


# ----------------------------------------------------------------- synth_ppg


def test_synth_ppg_peak_count_and_hr():
    x = sg.synth_ppg(100.0, 10.0, 120.0, 15.0, seed=7)
    filt = sg.bandpass(sg.SignalWindow(x, 100.0), 0.7, 3.0)
    peaks = sg.detect_peaks(filt, *PEAKS)
    assert 19 <= len(peaks) <= 21
    hr, _ = sg.estimate_hr(peaks, 100.0)
    assert abs(hr - 120.0) < 3.0


def test_synth_ppg_zero_amp():
    x = sg.synth_ppg(75.0, 5.0, 90.0, 15.0, amp=0.0, seed=1)
    np.testing.assert_array_equal(x, np.zeros_like(x))


def test_synth_ppg_deterministic():
    a = sg.synth_ppg(75.0, 5.0, 90.0, 15.0, seed=11)
    b = sg.synth_ppg(75.0, 5.0, 90.0, 15.0, seed=11)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("hr", [60, 90, 120, 150])
def test_synth_ppg_hr_recovery(hr):
    x = sg.synth_ppg(75.0, 20.0, hr, 12.0, seed=2)
    filt = sg.bandpass(sg.SignalWindow(x, 75.0), 0.7, 3.0)
    est, _ = sg.estimate_hr(sg.detect_peaks(filt, *PEAKS), 75.0)
    assert abs(est - hr) < 3.0


def test_synth_ppg_param_validation():
    with pytest.raises(sg.ParameterError):
        sg.synth_ppg(75.0, 5.0, 30.0, 15.0)
    with pytest.raises(sg.ParameterError):
        sg.synth_ppg(75.0, 5.0, 90.0, 40.0)


# ------------------------------------------------------------------- corrupt


def test_corrupt_zero_noise_identity():
    w = sg.SignalWindow(np.arange(10.0), 75.0)
    out = sg.corrupt(w, sg.CorruptionSpec("noise", noise_sigma=0.0), seed=3)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_corrupt_full_clip_identity():
    rng = np.random.default_rng(9)
    w = sg.SignalWindow(rng.normal(size=50), 75.0)
    out = sg.corrupt(w, sg.CorruptionSpec("clip", clip_fraction=1.0), seed=3)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_corrupt_flatline_on_ramp():
    w = sg.SignalWindow(np.arange(100.0), 75.0)
    spec = sg.CorruptionSpec("flatline", flatline_start_frac=0.5,
                             flatline_duration_frac=0.25)
    out = sg.corrupt(w, spec, seed=0)
    np.testing.assert_array_equal(out.samples[50:75], np.full(25, 50.0))
    np.testing.assert_array_equal(out.samples[:50], w.samples[:50])
    np.testing.assert_array_equal(out.samples[75:], w.samples[75:])


def test_corrupt_pure_function_of_seed():
    rng = np.random.default_rng(13)
    w = sg.SignalWindow(rng.normal(size=200), 75.0)
    spec = sg.CorruptionSpec("noise", noise_sigma=0.5)
    a = sg.corrupt(w, spec, seed=21)
    b = sg.corrupt(w, spec, seed=21)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = sg.corrupt(w, spec, seed=22)
    assert not np.array_equal(a.samples, c.samples)


def test_corruption_spec_validation():
    with pytest.raises(sg.ParameterError):
        sg.CorruptionSpec("warp")
    with pytest.raises(sg.ParameterError):
        sg.CorruptionSpec("clip", clip_fraction=0.0)
    with pytest.raises(sg.ParameterError):
        sg.CorruptionSpec("flatline", flatline_start_frac=0.9,
                          flatline_duration_frac=0.5)


# --------------------------------------------------------------- rr_from_co2


def triangle(freq, fs, dur):
    t = np.arange(int(fs * dur)) / fs
    phase = (t * freq) % 1.0
    return np.where(phase < 0.5, phase, 1.0 - phase)


def test_rr_from_co2_triangle():
    rr = sg.rr_from_co2(triangle(0.25, 25.0, 60.0), 25.0)
    assert rr == pytest.approx(15.0, abs=0.5)


def test_rr_from_co2_excludes_fast_breathing():
    assert sg.rr_from_co2(triangle(1.0, 25.0, 30.0), 25.0) is None


def test_rr_from_co2_excludes_constant():
    assert sg.rr_from_co2(np.ones(500), 25.0) is None
