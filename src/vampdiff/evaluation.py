"""Quantitative evaluation: reconstruction, generation, distribution tests,
latent sensitivity, corruption detection, RR consistency, interpolation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import signal as sg
from .model.base import inference
from .model.sampler import BATCH, decode_shared_noise, interpolate_latent
from .model.sampler import generate as _generate
from .model.sampler import reconstruct as _reconstruct
from .numcore import Tensor


class EvalError(Exception):
    pass


class UndefinedRatioError(EvalError):
    pass


# ----------------------------------------------------------------------
# scalar metrics
# ----------------------------------------------------------------------

def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size == 0:
        raise EvalError("pearson needs equal nonempty lengths")
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        raise EvalError("pearson undefined for a constant input")
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference of right-continuous empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise EvalError("ks_statistic needs nonempty inputs")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * ((ends - counts) + (ends - 1)) + 1.0)[group]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of average ranks (ties averaged)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size == 0:
        raise EvalError("spearman needs equal nonempty lengths")
    return pearson(_average_ranks(a), _average_ranks(b))


def _check_binary(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels).astype(int).ravel()
    if not set(np.unique(labels)) <= {0, 1}:
        raise EvalError("labels must be 0/1")
    if labels.size == 0 or labels.min() == labels.max():
        raise EvalError("both classes must be present")
    return labels


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney rank statistic; tied scores contribute one half."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _check_binary(labels)
    ranks = _average_ranks(scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _counts_above(scores: np.ndarray, labels: np.ndarray):
    """Per distinct score, highest first: the positives at that score, and
    the positives and windows at or above it."""
    _, group, counts = np.unique(-scores, return_inverse=True,
                                 return_counts=True)
    d_tp = np.bincount(group[labels == 1], minlength=counts.size)
    return d_tp, np.cumsum(d_tp), np.cumsum(counts)


def auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision: step-wise precision at each positive threshold."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _check_binary(labels)
    d_tp, tp, n = _counts_above(scores, labels)
    return float(np.cumsum(d_tp * tp / n)[-1] / labels.sum())


def tpr_at_fpr(scores: np.ndarray, labels: np.ndarray,
               fpr: float = 0.05) -> float:
    """TPR at the most permissive score threshold whose FPR <= the target."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _check_binary(labels)
    if not 0 <= fpr <= 1:
        raise EvalError("fpr must be in [0, 1]")
    _, tp, n = _counts_above(scores, labels)
    ok = (n - tp) / (labels.size - labels.sum()) <= fpr
    return float(tp[ok][-1] / labels.sum()) if ok.any() else 0.0


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------

def _hr_of(window: sg.SignalWindow, config) -> tuple | None:
    peaks = sg.systolic_peaks(window, config.band, config.peak_params)
    if len(peaks) < 2:
        return None
    return sg.estimate_hr(peaks, window.fs)


def recon_metrics(x0: sg.SignalWindow, xhat: sg.SignalWindow, config) -> dict:
    """Per-window MAE/RMSE/Pearson plus HR and IBI errors when detectable."""
    if len(x0) != len(xhat):
        raise EvalError("windows must have equal length")
    a, b = x0.samples, xhat.samples
    rec = {
        "mae": float(np.abs(a - b).mean()),
        "rmse": float(np.sqrt(((a - b) ** 2).mean())),
        "pearson_r": pearson(a, b),
        "hr_err": None,
        "ibi_mae": None,
        "hr_detectable": False,
    }
    ha = _hr_of(x0, config)
    hb = _hr_of(xhat, config)
    if ha is not None and hb is not None:
        rec["hr_err"] = abs(ha[0] - hb[0])
        rec["ibi_mae"] = abs(ha[1] - hb[1])
        rec["hr_detectable"] = True
    return rec


@dataclass
class ReconReport:
    records: list = field(default_factory=list)

    def aggregate(self) -> dict:
        if not self.records:
            raise EvalError("empty reconstruction report")
        out = {}
        for key in ("mae", "rmse", "pearson_r"):
            vals = np.array([r[key] for r in self.records])
            out[f"{key}_mean"] = float(vals.mean())
            out[f"{key}_std"] = float(vals.std())
        hr = [r["hr_err"] for r in self.records if r["hr_detectable"]]
        ibi = [r["ibi_mae"] for r in self.records if r["hr_detectable"]]
        out["hr_err_mean"] = float(np.mean(hr)) if hr else None
        out["ibi_mae_mean"] = float(np.mean(ibi)) if ibi else None
        out["n_windows"] = len(self.records)
        out["n_hr_detectable"] = len(hr)
        return out


def _normalized(model, windows: list[sg.SignalWindow]) -> np.ndarray:
    """The windows as one normalized [N,1,L] batch."""
    if model.norm_stats is None:
        raise EvalError("model has no normalization stats")
    if not windows:
        raise EvalError("no windows to reconstruct")
    xn = model.norm_stats.normalize(np.stack([w.samples for w in windows]))
    return xn[:, None, :]


def reconstruction_report(model, windows: list[sg.SignalWindow],
                          seed: int = 0) -> ReconReport:
    """Posterior-mean reconstructions of denormalized windows + metrics."""
    recon = _reconstruct(model, _normalized(model, windows), seed=seed)
    return ReconReport([recon_metrics(w, sg.SignalWindow(r[0], w.fs),
                                      model.config)
                        for w, r in zip(windows, recon)])


# ----------------------------------------------------------------------
# latent sensitivity / anomaly scores
# ----------------------------------------------------------------------

def sensitivity_ratio(x0: np.ndarray, model, seed: int = 0) -> float:
    """Mean absolute difference between decoding the posterior-mean latent
    and a random latent (shared terminal noise), over the posterior-mean
    decoding's range."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(1, 1, -1)
    with inference(model):
        z_mu = model.encode(Tensor(x0)).mu.data
    z_rand = np.random.default_rng((seed, 1)).standard_normal(z_mu.shape)
    dec_mu, dec_rand = decode_shared_noise(
        model, Tensor(np.concatenate([z_mu, z_rand.astype(z_mu.dtype)])),
        seed, denorm=False)
    rng_ = float(dec_mu.max() - dec_mu.min())
    if rng_ == 0:
        raise UndefinedRatioError("posterior-mean decoding has zero range")
    return float(np.abs(dec_mu - dec_rand).mean() / rng_)


def anomaly_scores(model, windows: list[sg.SignalWindow],
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-window (MAE, 1 - Pearson) of each window against its
    reconstruction, both on denormalized signals."""
    recon = _reconstruct(model, _normalized(model, windows), seed=seed)
    pairs = [(w.samples, r[0]) for w, r in zip(windows, recon)]
    return (np.array([np.abs(a - b).mean() for a, b in pairs]),
            np.array([1.0 - pearson(a, b) for a, b in pairs]))


@dataclass
class AnomalyReport:
    auroc_mae: float
    auprc_mae: float
    tpr5_mae: float
    auroc_corr: float
    per_kind: dict


def anomaly_report(model, clean: list[sg.SignalWindow],
                   corrupted: list[tuple[str, sg.SignalWindow]],
                   seed: int = 0) -> AnomalyReport:
    """Score clean vs corrupted windows by reconstruction error; each set is
    reconstructed in one call under ``seed``."""
    kinds = ["clean"] * len(clean) + [kind for kind, _ in corrupted]
    labels = np.array([0] * len(clean) + [1] * len(corrupted))
    scores_mae, scores_corr = map(np.concatenate, zip(
        anomaly_scores(model, clean, seed),
        anomaly_scores(model, [w for _, w in corrupted], seed)))
    per_kind = {}
    for kind in sorted({k for k in kinds if k != "clean"}):
        mask = np.array([k in ("clean", kind) for k in kinds])
        per_kind[kind] = {
            "auroc": auroc(scores_mae[mask], labels[mask]),
            "auprc": auprc(scores_mae[mask], labels[mask]),
            "tpr5": tpr_at_fpr(scores_mae[mask], labels[mask], 0.05),
            "median_mae_corrupt": float(np.median(
                scores_mae[mask & (labels == 1)])),
        }
    return AnomalyReport(
        auroc_mae=auroc(scores_mae, labels),
        auprc_mae=auprc(scores_mae, labels),
        tpr5_mae=tpr_at_fpr(scores_mae, labels, 0.05),
        auroc_corr=auroc(scores_corr, labels),
        per_kind=per_kind,
    )


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

@dataclass
class GenReport:
    hr: list
    ptp: list
    std: list
    peak_counts: list
    peak_fraction: float
    hr_gap: float | None
    ks_hr: float | None
    ks_ptp: float
    ks_std: float
    mean_pairwise_dist: float


def _window_stats(samples: np.ndarray, fs: float, config):
    w = sg.SignalWindow(np.asarray(samples, dtype=np.float64), fs)
    peaks = sg.systolic_peaks(w, config.band, config.peak_params)
    hr = sg.estimate_hr(peaks, fs)[0] if len(peaks) >= 2 else None
    return hr, float(np.ptp(w.samples)), float(w.samples.std()), len(peaks)


def generation_report(model, n: int, reference: list[sg.SignalWindow],
                      seed: int = 0, generated: np.ndarray | None = None,
                      max_pairs: int = 200) -> GenReport:
    """Physiological statistics of n generated windows vs a reference set."""
    if n < 2:
        raise EvalError("n must be >= 2")
    if generated is None:
        generated = _generate(model, n, seed=seed)
    fs = model.config.fs
    hrs, ptps, stds, counts = [], [], [], []
    for i in range(generated.shape[0]):
        hr, ptp, std, cnt = _window_stats(generated[i, 0], fs, model.config)
        if hr is not None:
            hrs.append(hr)
        ptps.append(ptp)
        stds.append(std)
        counts.append(cnt)
    peak_fraction = float(np.mean([c >= 2 for c in counts]))

    ref_hrs, ref_ptps, ref_stds = [], [], []
    for w in reference:
        hr, ptp, std, _ = _window_stats(w.samples, w.fs, model.config)
        if hr is not None:
            ref_hrs.append(hr)
        ref_ptps.append(ptp)
        ref_stds.append(std)

    hr_gap = (abs(float(np.mean(hrs)) - float(np.mean(ref_hrs)))
              if hrs and ref_hrs else None)
    ks_hr = ks_statistic(hrs, ref_hrs) if hrs and ref_hrs else None

    rng = np.random.default_rng((seed, 2))
    n_gen = generated.shape[0]
    pairs = [(i, j) for i in range(n_gen) for j in range(i + 1, n_gen)]
    if len(pairs) > max_pairs:
        sel = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[int(k)] for k in sel]
    dists = [float(np.linalg.norm(generated[i, 0] - generated[j, 0]))
             for i, j in pairs]
    return GenReport(
        hr=hrs, ptp=ptps, std=stds, peak_counts=counts,
        peak_fraction=peak_fraction, hr_gap=hr_gap, ks_hr=ks_hr,
        ks_ptp=ks_statistic(ptps, ref_ptps),
        ks_std=ks_statistic(stds, ref_stds),
        mean_pairwise_dist=float(np.mean(dists)),
    )


# ----------------------------------------------------------------------
# RR consistency and interpolation
# ----------------------------------------------------------------------

def rr_consistency(windows: list[sg.SignalWindow], labels: list,
                   model, rr_net, seed: int = 0) -> dict:
    """Compare the RR estimator on real windows and their reconstructions.

    labels[i] is the capnography-derived breaths/min for windows[i] or
    None when unavailable; such windows are skipped for MAE aggregates.
    """
    if len(windows) != len(labels):
        raise EvalError("windows and labels must align")
    xn = _normalized(model, windows)
    recon = _reconstruct(model, xn, seed=seed, denorm=False)
    with inference(rr_net):
        pred_real, pred_recon = (np.concatenate([
            rr_net(Tensor(x[s:s + BATCH])).data
            for s in range(0, len(x), BATCH)]) for x in (xn, recon))
    recs = [{"rr_label": label, "pred_real": float(a),
             "pred_recon": float(b), "abs_delta": float(abs(a - b))}
            for label, a, b in zip(labels, pred_real, pred_recon)]
    labeled = [r for r in recs if r["rr_label"] is not None]
    out = {
        "records": recs,
        "mean_abs_delta": float(np.mean([r["abs_delta"] for r in recs])),
        "mae_real": None,
        "mae_recon": None,
    }
    if labeled:
        out["mae_real"] = float(np.mean(
            [abs(r["pred_real"] - r["rr_label"]) for r in labeled]))
        out["mae_recon"] = float(np.mean(
            [abs(r["pred_recon"] - r["rr_label"]) for r in labeled]))
    return out


def interpolation_sweep(x_lo: sg.SignalWindow, x_hi: sg.SignalWindow,
                        model, alphas, seed: int = 0) -> list:
    """Decode latent interpolations; returns ordered (alpha, hr-or-None)."""
    for name, w in (("x_lo", x_lo), ("x_hi", x_hi)):
        if _hr_of(w, model.config) is None:
            raise EvalError(f"{name} has no detectable heart rate")
    alphas = sorted(float(x) for x in np.atleast_1d(alphas))
    xn = _normalized(model, [x_lo, x_hi])
    decoded = interpolate_latent(model, xn[0, 0], xn[1, 0],
                                 np.asarray(alphas), seed=seed)
    out = []
    for i, alpha in enumerate(alphas):
        res = _hr_of(sg.SignalWindow(decoded[i, 0], model.config.fs),
                     model.config)
        out.append((alpha, res[0] if res is not None else None))
    return out
