"""Temporal encoder: PPG window -> diagonal-Gaussian latent posterior."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numcore import DimensionError, Tensor, clamp, reshape, rmean, silu
from .base import ParamModule

LOGVAR_CLAMP = 10.0


@dataclass
class LatentPosterior:
    """mu/logvar over the temporal latent, each [B, C_z, T_z]."""
    mu: Tensor
    logvar: Tensor


class Encoder(ParamModule):
    """Two stride-2 stages (T_z = L/4) plus mu / logvar head convolutions."""

    def __init__(self, latent_channels: int, widths, groups: int,
                 rng: np.random.Generator):
        super().__init__()
        w1, w2, w3 = widths
        self.latent_channels = latent_channels
        self.groups = groups
        self.add_conv("conv1", rng, 1, w1, 5)
        self.add_conv("conv2", rng, w1, w2, 5)
        self.add_conv("conv3", rng, w2, w3, 3)
        self.add_conv("head_mu", rng, w3, latent_channels, 3)
        self.add_conv("head_logvar", rng, w3, latent_channels, 3)
        for name, c in [("gn1", w1), ("gn2", w2), ("gn3", w3)]:
            self.add_norm(name, c)

    def __call__(self, x: Tensor) -> LatentPosterior:
        if x.ndim != 3 or x.shape[1] != 1:
            raise DimensionError(f"encoder expects [B,1,L], got {x.shape}")
        if x.shape[2] % 4 != 0:
            raise DimensionError(f"window length {x.shape[2]} not divisible by 4")
        h = silu(self.norm("gn1", self.conv("conv1", x, stride=2)))
        h = silu(self.norm("gn2", self.conv("conv2", h, stride=2)))
        h = silu(self.norm("gn3", self.conv("conv3", h)))
        mu = self.conv("head_mu", h)
        logvar = clamp(self.conv("head_logvar", h), -LOGVAR_CLAMP, LOGVAR_CLAMP)
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
