"""VampPrior over the pooled latent: mixture density, KL estimate, init."""
from __future__ import annotations

import numpy as np

from ..numcore import (
    Tensor,
    add,
    exp,
    log,
    mul,
    negate,
    reshape,
    rmean,
    rsum,
    scale,
    square,
    sub,
)
from .. import signal as sg
from .base import ParamModule
from .encoder import Encoder, LatentPosterior, pool


class PriorError(Exception):
    pass


class PseudoInputs(ParamModule):
    """K learnable pseudo-input windows of length L."""

    def __init__(self, K: int, window_len: int,
                 init: np.ndarray | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if K < 1:
            raise PriorError("K must be >= 1")
        self.K = K
        self.window_len = window_len
        if init is None:
            rng = rng or np.random.default_rng(0)
            init = rng.normal(0.0, 1.0, (K, window_len))
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (K, window_len):
            raise PriorError(f"init shape {init.shape} != ({K}, {window_len})")
        self.u = self.add_param("u", init)

    def as_batch(self) -> Tensor:
        return reshape(self.u, (self.K, 1, self.window_len))


def pooled_posterior(post: LatentPosterior, pooled_len: int,
                     variance_mode: str = "direct") -> tuple[Tensor, Tensor]:
    """Pooled (mu, variance) of a latent posterior.

    "direct" pools the variances directly; "pushforward" additionally divides
    by the pool width (the exact law of the block mean under independence).
    """
    mu_p = pool(post.mu, pooled_len)
    var_p = pool(exp(post.logvar), pooled_len)
    if variance_mode == "pushforward":
        width = post.mu.shape[2] // pooled_len
        var_p = scale(var_p, 1.0 / width)
    elif variance_mode != "direct":
        raise PriorError(f"unknown variance_mode {variance_mode!r}")
    return mu_p, var_p


def _diag_gauss_logpdf(z: Tensor, mu: Tensor, var: Tensor) -> Tensor:
    """log N(z; mu, diag var), summing over the trailing two axes.

    Broadcasts: z [B,1,C,Tc] against mu/var [1,K,C,Tc] -> [B,K]; or plain
    [B,C,Tc] shapes -> [B].
    """
    d = sub(z, mu)
    quad = mul(square(d), exp(negate(log(var))))
    per = add(add(log(var), quad),
              Tensor(np.full((1,) * var.ndim, np.log(2.0 * np.pi))))
    return scale(rsum(per, axes=(-2, -1)), -0.5)


def vamp_components(pseudo: PseudoInputs, encoder: Encoder, pooled_len: int,
                    variance_mode: str = "direct") -> tuple[Tensor, Tensor]:
    """Pooled (mu, var) of every pseudo-input posterior, each [K, C_z, T_c]."""
    post = encoder(pseudo.as_batch())
    return pooled_posterior(post, pooled_len, variance_mode)


def vampprior_logpdf(z_tilde: Tensor, pseudo: PseudoInputs, encoder: Encoder,
                     pooled_len: int, variance_mode: str = "direct") -> Tensor:
    """log of the K-component mixture of pooled pseudo-input posteriors, [B]."""
    mu_k, var_k = vamp_components(pseudo, encoder, pooled_len, variance_mode)
    K, C, Tc = mu_k.shape
    B = z_tilde.shape[0]
    zb = reshape(z_tilde, (B, 1, C, Tc))
    comp = _diag_gauss_logpdf(zb, reshape(mu_k, (1, K, C, Tc)),
                              reshape(var_k, (1, K, C, Tc)))  # [B, K]
    # stable logsumexp; the max shift is a constant w.r.t. the graph and
    # cancels exactly in the gradient
    m = comp.data.max(axis=1, keepdims=True)
    shifted = sub(comp, Tensor(m))
    lse = add(log(rsum(exp(shifted), axes=1)), Tensor(m[:, 0]))
    return sub(lse, Tensor(np.full(B, np.log(K))))


def standard_normal_logpdf(z_tilde: Tensor) -> Tensor:
    """log N(z; 0, I) over [B, C, Tc] -> [B]."""
    D = z_tilde.shape[1] * z_tilde.shape[2]
    quad = rsum(square(z_tilde), axes=(1, 2))
    return scale(add(quad, Tensor(np.full((), D * np.log(2.0 * np.pi)))), -0.5)


def kl_pooled(
    post: LatentPosterior,
    z_sample: Tensor | None,
    pseudo: PseudoInputs | None,
    encoder: Encoder,
    pooled_len: int,
    mc_samples: int = 1,
    rng: np.random.Generator | None = None,
    variance_mode: str = "direct",
    prior_kind: str = "vamp",
) -> Tensor:
    """Monte-Carlo estimate of the pooled-latent KL, averaged over the batch.

    With mc_samples == 1 and a provided z_sample the pooled full-resolution
    sample is reused (the training path); otherwise samples are drawn from
    the pooled-parameter Gaussian directly.
    """
    if mc_samples < 1:
        raise PriorError("mc_samples must be >= 1")
    mu_p, var_p = pooled_posterior(post, pooled_len, variance_mode)
    B = mu_p.shape[0]
    sigma_p = exp(scale(log(var_p), 0.5))

    def draw(s: int) -> Tensor:
        if s == 0 and mc_samples == 1 and z_sample is not None:
            return pool(z_sample, pooled_len)
        if rng is None:
            raise PriorError("rng required to draw pooled samples")
        noise = Tensor(rng.standard_normal(mu_p.shape))
        return add(mu_p, mul(sigma_p, noise))

    total = None
    for s in range(mc_samples):
        zt = draw(s)
        log_q = _diag_gauss_logpdf(zt, mu_p, var_p)
        if prior_kind == "vamp":
            if pseudo is None:
                raise PriorError("vamp prior requires pseudo-inputs")
            log_p = vampprior_logpdf(zt, pseudo, encoder, pooled_len,
                                     variance_mode)
        elif prior_kind == "standard":
            log_p = standard_normal_logpdf(zt)
        else:
            raise PriorError(f"unknown prior_kind {prior_kind!r}")
        term = sub(log_q, log_p)
        total = term if total is None else add(total, term)
    return scale(rmean(total, axes=0), 1.0 / mc_samples)


def stratified_init(
    K: int,
    train_windows: list[sg.SignalWindow],
    band,
    peak_params,
) -> np.ndarray:
    """Pick K real windows stratified over (heart rate, peak-to-peak amplitude).

    Windows are binned into ceil(sqrt(K)) HR-quantile bins crossed with
    ceil(K / ceil(sqrt(K))) amplitude-quantile bins; one window is drawn per
    occupied bin round-robin until K are chosen.
    """
    if len(train_windows) < K:
        raise PriorError(
            f"need at least K={K} quality windows, got {len(train_windows)}")
    feats = []
    for i, w in enumerate(train_windows):
        peaks = sg.systolic_peaks(w, band, peak_params)
        if len(peaks) < 2:
            continue
        hr, _ = sg.estimate_hr(peaks, w.fs)
        feats.append((i, hr, float(np.ptp(w.samples))))
    if len(feats) < K:
        raise PriorError(
            f"need at least K={K} windows with detectable HR, got {len(feats)}")
    hrs = np.array([f[1] for f in feats])
    amps = np.array([f[2] for f in feats])
    n_hr = int(np.ceil(np.sqrt(K)))
    n_amp = int(np.ceil(K / n_hr))

    def bin_of(values, n_bins):
        edges = np.quantile(values, np.linspace(0, 1, n_bins + 1))[1:-1]
        return np.clip(np.searchsorted(edges, values, side="right"), 0, n_bins - 1)

    hr_bins = bin_of(hrs, n_hr)
    amp_bins = bin_of(amps, n_amp)
    bins: dict[tuple[int, int], list[int]] = {}
    for j, (idx, _, _) in enumerate(feats):
        bins.setdefault((hr_bins[j], amp_bins[j]), []).append(idx)
    chosen: list[int] = []
    keys = sorted(bins)
    while len(chosen) < K:
        progressed = False
        for key in keys:
            if len(chosen) >= K:
                break
            if bins[key]:
                chosen.append(bins[key].pop(0))
                progressed = True
        if not progressed:
            raise PriorError("ran out of stratified windows before reaching K")
    return np.stack([train_windows[i].samples for i in chosen])
