"""Metric oracles (brute force / hand values) and evaluation plumbing."""
import numpy as np
import pytest

from vampdiff import signal as sg
from vampdiff.config import desk_config
from vampdiff.evaluation import (
    EvalError,
    UndefinedRatioError,
    anomaly_report,
    anomaly_scores,
    auprc,
    auroc,
    generation_report,
    interpolation_sweep,
    ks_statistic,
    pearson,
    recon_metrics,
    ReconReport,
    rr_consistency,
    sensitivity_ratio,
    spearman,
    tpr_at_fpr,
)
from vampdiff.model import DiffusionSchedule, reconstruct, seeded_noise
from vampdiff.model import sampler
from vampdiff.numcore import Tensor
from vampdiff.model.encoder import LatentPosterior


# ----------------------------------------------------------------------
# rank metrics against brute force
# ----------------------------------------------------------------------

def auroc_bruteforce(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestRankMetrics:
    def test_auroc_hand_example(self):
        got = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert got == pytest.approx(0.75)

    def test_auroc_perfect_and_ties(self):
        assert auroc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0
        assert auroc([5, 5, 5, 5], [0, 1, 0, 1]) == 0.5

    def test_auroc_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            scores = rng.integers(0, 6, size=n).astype(float)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                auroc_bruteforce(scores, labels), abs=1e-12)

    def test_auprc_perfect(self):
        assert auprc([1, 2, 9, 10], [0, 0, 1, 1]) == 1.0

    def test_auprc_hand_example(self):
        # descending: 0.8(+) p=1, 0.4(-), 0.35(+) p=2/3 -> (1 + 2/3)/2
        got = auprc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert got == pytest.approx((1 + 2 / 3) / 2)

    def test_tpr_at_fpr_hand_and_monotone(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        labels = [1, 1, 0, 1, 0, 0]
        assert tpr_at_fpr(scores, labels, 0.0) == pytest.approx(2 / 3)
        assert tpr_at_fpr(scores, labels, 0.5) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.normal(size=20)
            y = rng.integers(0, 2, size=20)
            if y.min() == y.max():
                continue
            vals = [tpr_at_fpr(s, y, f) for f in np.linspace(0, 1, 11)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_single_class_raises(self):
        with pytest.raises(EvalError):
            auroc([1, 2], [1, 1])
        with pytest.raises(EvalError):
            auprc([1, 2], [0, 0])
        with pytest.raises(EvalError):
            auroc([], [])


class TestKS:
    def test_hand_examples(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
        assert ks_statistic([0.0], [1.0]) == 1.0
        assert ks_statistic([1, 2, 3], [2, 3, 4]) == pytest.approx(1 / 3)

    def test_symmetry_and_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.normal(size=int(rng.integers(2, 40)))
            b = rng.normal(size=int(rng.integers(2, 40)))
            got = ks_statistic(a, b)
            assert got == pytest.approx(ks_statistic(b, a), abs=1e-15)
            pts = np.concatenate([a, b])
            brute = max(abs((a <= p).mean() - (b <= p).mean()) for p in pts)
            assert got == pytest.approx(brute, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EvalError):
            ks_statistic([], [1.0])


class TestSpearman:
    def test_hand_values(self):
        a = np.array([1.0, 2.0, 3.0])
        assert spearman(a, a) == pytest.approx(1.0)
        assert spearman(a, -a) == pytest.approx(-1.0)
        assert spearman(a, [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        base = spearman(a, b)
        assert spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert spearman(a, 3 * b + 7) == pytest.approx(base, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(EvalError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ----------------------------------------------------------------------
# reconstruction metrics
# ----------------------------------------------------------------------

def synth_window(hr=90.0, fs=75.0, dur=10.24, seed=0, amp=1.0):
    x = sg.synth_ppg(fs=fs, duration_s=dur, hr_bpm=hr, rr_bpm=15.0,
                     amp=amp, seed=seed)
    return sg.SignalWindow(x, fs)


class TestReconMetrics:
    def test_identity_reconstruction(self):
        cfg = desk_config()
        w = synth_window()
        rec = recon_metrics(w, sg.SignalWindow(w.samples.copy(), w.fs), cfg)
        assert rec["mae"] == 0.0 and rec["rmse"] == 0.0
        assert rec["pearson_r"] == pytest.approx(1.0)
        assert rec["hr_detectable"] and rec["hr_err"] == 0.0

    def test_constant_shift(self):
        cfg = desk_config()
        w = synth_window(seed=1)
        shifted = sg.SignalWindow(w.samples + 1.0, w.fs)
        rec = recon_metrics(w, shifted, cfg)
        assert rec["mae"] == pytest.approx(1.0)
        assert rec["rmse"] == pytest.approx(1.0)
        assert rec["pearson_r"] == pytest.approx(1.0)

    def test_scaling_zero_mean(self):
        cfg = desk_config()
        w = synth_window(seed=2)
        centered = sg.SignalWindow(w.samples - w.samples.mean(), w.fs)
        doubled = sg.SignalWindow(2 * centered.samples, w.fs)
        rec = recon_metrics(centered, doubled, cfg)
        assert rec["pearson_r"] == pytest.approx(1.0)
        assert rec["mae"] == pytest.approx(np.abs(centered.samples).mean())

    def test_rmse_at_least_mae_property(self):
        cfg = desk_config()
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = sg.SignalWindow(rng.normal(size=768), 75.0)
            b = sg.SignalWindow(rng.normal(size=768), 75.0)
            rec = recon_metrics(a, b, cfg)
            assert rec["rmse"] >= rec["mae"] >= 0.0

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        base = pearson(a, b)
        assert pearson(2.5 * a + 3, b) == pytest.approx(base, abs=1e-12)
        assert pearson(a, 0.1 * b - 9) == pytest.approx(base, abs=1e-12)

    def test_report_aggregate(self):
        cfg = desk_config()
        report = ReconReport()
        w = synth_window(seed=6)
        report.records.append(
            recon_metrics(w, sg.SignalWindow(w.samples.copy(), w.fs), cfg))
        agg = report.aggregate()
        assert agg["mae_mean"] == 0.0 and agg["n_hr_detectable"] == 1


# ----------------------------------------------------------------------
# model-coupled metrics via stub decoders
# ----------------------------------------------------------------------

class StubModel:
    """Decoder stub: encode packs the input as a [B,1,L] 'latent', which is
    also its own conditioning; the clean-signal prediction is a
    configurable function of (x_t, z)."""

    def __init__(self, predict, L=768, fs=75.0, norm_stats=None):
        self.config = desk_config()
        self.schedule = DiffusionSchedule(self.config.diffusion_steps)
        self.norm_stats = norm_stats
        self._predict = predict

    def params(self):
        return []

    def encode(self, x):
        return LatentPosterior(mu=Tensor(x.data.copy()),
                               logvar=Tensor(np.zeros(x.shape)))

    def condition(self, z):
        return z

    def predict_x0(self, x_t, t, z):
        return self._predict(x_t, t, z)


class TestStubbedModelMetrics:
    def test_sensitivity_zero_for_z_independent_decoder(self):
        model = StubModel(lambda x_t, t, z: Tensor(x_t.data.copy()))
        x0 = synth_window().samples
        assert sensitivity_ratio(x0, model, seed=3) == pytest.approx(0.0)

    def test_sensitivity_constant_offset_formula(self):
        base = np.linspace(-1.0, 3.0, 768)[None, None, :]

        def predict(x_t, t, z):  # each row offset by its own latent's mean
            return Tensor(base + z.data.mean(axis=(1, 2), keepdims=True))

        model = StubModel(predict)
        x0 = synth_window().samples
        got = sensitivity_ratio(x0, model, seed=5)
        z_mu = (x0 - 0)[None, None, :]
        z_rand = np.random.default_rng((5, 1)).standard_normal(z_mu.shape)
        want = abs(z_mu.mean() - z_rand.mean()) / np.ptp(base)
        assert got == pytest.approx(want, rel=1e-9)

    def test_sensitivity_zero_range_raises(self):
        model = StubModel(lambda x_t, t, z: Tensor(np.zeros(x_t.shape)))
        with pytest.raises(UndefinedRatioError):
            sensitivity_ratio(np.zeros(768), model, seed=0)

    def test_anomaly_scores_perfect_reconstruction(self):
        ns = sg.NormStats(0.5, 2.0)
        model = StubModel(lambda x_t, t, z: Tensor(z.data.copy()),
                          norm_stats=ns)
        w = synth_window(seed=7)
        (mae,), (corr,) = anomaly_scores(model, [w], seed=0)
        assert mae == pytest.approx(0.0, abs=1e-9)
        assert corr == pytest.approx(0.0, abs=1e-9)

    def test_anomaly_report_empty_input_raises(self):
        model = StubModel(lambda x_t, t, z: Tensor(z.data.copy()),
                          norm_stats=sg.NormStats(0.0, 1.0))
        with pytest.raises(EvalError):
            anomaly_report(model, [], [], seed=0)

    def test_anomaly_scores_anticorrelated(self):
        ns = sg.NormStats(0.0, 1.0)
        model = StubModel(lambda x_t, t, z: Tensor(-z.data.copy()),
                          norm_stats=ns)
        w = synth_window(seed=8)
        centered = sg.SignalWindow(w.samples - w.samples.mean(), w.fs)
        _, (corr,) = anomaly_scores(model, [centered], seed=0)
        assert corr == pytest.approx(2.0, abs=1e-9)

    def test_reconstruct_keys_row_j_by_seed_and_j(self, monkeypatch):
        model = StubModel(lambda x_t, t, z: Tensor(0.5 * x_t.data + z.data))
        n = sampler.BATCH + 5
        x = np.random.default_rng(0).standard_normal((n, 1, 768))
        batches = []
        ddim = sampler.ddim_sample

        def counting(predict, sched, z, x_T, steps):
            batches.append(x_T.shape[0])
            return ddim(predict, sched, z, x_T, steps)
        monkeypatch.setattr(sampler, "ddim_sample", counting)
        got = reconstruct(model, x, seed=4, denorm=False)
        assert batches == [sampler.BATCH, 5]
        for j in range(n):
            one = ddim(model.predict_x0, model.schedule, Tensor(x[j:j + 1]),
                       seeded_noise((1, 1, 768), 4, j),
                       model.config.ddim_steps)
            assert np.array_equal(got[j:j + 1], one), j

    def test_rr_regressor_sees_at_most_batch_rows(self):
        model = StubModel(lambda x_t, t, z: Tensor(z.data.copy()),
                          norm_stats=sg.NormStats(0.0, 1.0))
        windows = [synth_window(hr=60.0 + i, seed=i)
                   for i in range(sampler.BATCH + 3)]
        rows = []

        def rr_net(x):
            rows.append(x.shape[0])
            return Tensor(x.data.mean(axis=(1, 2)))
        rr_net.params = lambda: []
        out = rr_consistency(windows, [None] * len(windows), model, rr_net)
        assert rows == [sampler.BATCH, 3, sampler.BATCH, 3]
        want = [w.samples.mean() for w in windows]
        assert [r["pred_real"] for r in out["records"]] == pytest.approx(want)

    def test_identity_corruption_scores_equal_pairwise(self):
        model = StubModel(lambda x_t, t, z: Tensor(0.5 * x_t.data + z.data),
                          norm_stats=sg.NormStats(0.5, 2.0))
        clean = [synth_window(hr=60.0 + 10 * i, seed=i) for i in range(5)]
        spec = sg.CorruptionSpec("clip", clip_fraction=1.0)
        corrupted = [("clip", sg.corrupt(w, spec, seed=i))
                     for i, w in enumerate(clean)]
        got_clean = anomaly_scores(model, clean, seed=3)
        got_corrupt = anomaly_scores(model, [w for _, w in corrupted], seed=3)
        for a, b in zip(got_clean, got_corrupt):
            assert np.array_equal(a, b)
        # the decoder reads the noise: the scores agree because row j of
        # both sets is keyed by (seed, j)
        assert not np.array_equal(got_clean[0],
                                  anomaly_scores(model, clean, seed=4)[0])
        rep = anomaly_report(model, clean, corrupted, seed=3)
        assert rep.auroc_mae == 0.5 and rep.auroc_corr == 0.5
        assert rep.per_kind["clip"]["auroc"] == 0.5

    def test_interpolation_endpoints_with_identity_decoder(self):
        ns = sg.NormStats(0.0, 1.0)
        model = StubModel(lambda x_t, t, z: Tensor(z.data.copy()),
                          norm_stats=ns)
        lo, hi = synth_window(hr=65.0, seed=9), synth_window(hr=120.0, seed=10)
        out = interpolation_sweep(lo, hi, model, [0.0, 0.5, 1.0], seed=0)
        assert [a for a, _ in out] == [0.0, 0.5, 1.0]
        cfg = model.config
        hr_lo = 60.0 / sg.estimate_hr(
            sg.detect_peaks(sg.bandpass(lo, cfg.band_lo_hz, cfg.band_hi_hz),
                            *cfg.peak_params), lo.fs)[1]
        assert out[0][1] == pytest.approx(hr_lo, abs=1e-6)

    def test_interpolation_single_alpha(self):
        ns = sg.NormStats(0.0, 1.0)
        model = StubModel(lambda x_t, t, z: Tensor(z.data.copy()),
                          norm_stats=ns)
        lo, hi = synth_window(hr=70.0, seed=11), synth_window(hr=110.0, seed=12)
        out = interpolation_sweep(lo, hi, model, [0.0], seed=0)
        assert len(out) == 1


class TestGenerationReport:
    def test_self_reference_gives_zero_gaps(self):
        model = StubModel(lambda x_t, t, z: Tensor(x_t.data.copy()))
        wins = [synth_window(hr=60 + 10 * i, seed=20 + i) for i in range(6)]
        gen = np.stack([w.samples for w in wins])[:, None, :]
        rep = generation_report(model, n=6, reference=wins, seed=0,
                                generated=gen)
        assert rep.hr_gap == pytest.approx(0.0)
        assert rep.ks_hr == 0.0 and rep.ks_ptp == 0.0 and rep.ks_std == 0.0
        assert rep.peak_fraction == 1.0

    def test_two_signals_one_pair(self):
        model = StubModel(lambda x_t, t, z: Tensor(x_t.data.copy()))
        wins = [synth_window(seed=30), synth_window(seed=31)]
        gen = np.stack([w.samples for w in wins])[:, None, :]
        rep = generation_report(model, n=2, reference=wins, seed=0,
                                generated=gen)
        want = np.linalg.norm(gen[0, 0] - gen[1, 0])
        assert rep.mean_pairwise_dist == pytest.approx(want)

    def test_n_below_two_raises(self):
        model = StubModel(lambda x_t, t, z: Tensor(x_t.data.copy()))
        with pytest.raises(EvalError):
            generation_report(model, n=1, reference=[], seed=0)
