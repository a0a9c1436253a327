"""Temporal encoder: PPG window -> diagonal-Gaussian latent posterior."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numcore import (
    DimensionError,
    Tensor,
    clamp,
    conv1d,
    groupnorm,
    reshape,
    rmean,
    silu,
)
from .base import ParamModule, conv_init

LOGVAR_CLAMP = 10.0


@dataclass
class LatentPosterior:
    """mu/logvar over the temporal latent, each [B, C_z, T_z]."""
    mu: Tensor
    logvar: Tensor


class Encoder(ParamModule):
    """Two stride-2 stages (T_z = L/4) plus mu / logvar head convolutions."""

    def __init__(self, latent_channels: int, widths=(64, 128, 256),
                 groups: int = 4, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        w1, w2, w3 = widths
        self.latent_channels = latent_channels
        self.groups = groups
        spec = [
            ("conv1", 1, w1, 5),
            ("conv2", w1, w2, 5),
            ("conv3", w2, w3, 3),
            ("head_mu", w3, latent_channels, 3),
            ("head_logvar", w3, latent_channels, 3),
        ]
        for name, cin, cout, k in spec:
            self.add_param(f"{name}.kernel", conv_init(rng, cout, cin, k))
            self.add_param(f"{name}.bias", np.zeros(cout))
        for name, c in [("gn1", w1), ("gn2", w2), ("gn3", w3)]:
            self.add_param(f"{name}.gamma", np.ones(c))
            self.add_param(f"{name}.beta", np.zeros(c))

    def _conv(self, name, x, stride=1, padding=0):
        return conv1d(x, self._params[f"{name}.kernel"],
                      self._params[f"{name}.bias"], stride=stride,
                      padding=padding)

    def _gn(self, name, x):
        return groupnorm(x, self.groups, self._params[f"{name}.gamma"],
                         self._params[f"{name}.beta"])

    def __call__(self, x: Tensor) -> LatentPosterior:
        if x.ndim != 3 or x.shape[1] != 1:
            raise DimensionError(f"encoder expects [B,1,L], got {x.shape}")
        if x.shape[2] % 4 != 0:
            raise DimensionError(f"window length {x.shape[2]} not divisible by 4")
        h = silu(self._gn("gn1", self._conv("conv1", x, stride=2, padding=2)))
        h = silu(self._gn("gn2", self._conv("conv2", h, stride=2, padding=2)))
        h = silu(self._gn("gn3", self._conv("conv3", h, padding=1)))
        mu = self._conv("head_mu", h, padding=1)
        logvar = clamp(self._conv("head_logvar", h, padding=1),
                       -LOGVAR_CLAMP, LOGVAR_CLAMP)
        return LatentPosterior(mu=mu, logvar=logvar)


def reparameterize(post: LatentPosterior, noise: Tensor) -> Tensor:
    """z = mu + exp(logvar / 2) * noise."""
    from ..numcore import add, exp, mul, scale
    if noise.shape != post.mu.shape:
        raise DimensionError(
            f"noise shape {noise.shape} != posterior shape {post.mu.shape}")
    return add(post.mu, mul(exp(scale(post.logvar, 0.5)), noise))


def pool(x: Tensor, pooled_len: int) -> Tensor:
    """Non-overlapping temporal mean over blocks of width T_z / pooled_len."""
    if x.ndim != 3:
        raise DimensionError(f"pool expects [B,C,T], got {x.shape}")
    B, C, T = x.shape
    if T % pooled_len != 0:
        raise DimensionError(f"T={T} not divisible by pooled_len={pooled_len}")
    width = T // pooled_len
    if width == 1:
        return x
    blocks = reshape(x, (B, C, pooled_len, width))
    return rmean(blocks, axes=3)
