"""Conditional 1-D U-Net predicting the clean signal from (x_t, t, z).

Three resolution levels (stride-2 down, linear-resample up, additive
skips), two residual blocks per level, sinusoidal time embedding added to
each block, and per-level FiLM conditioning computed from the temporal
latent resampled to each level's resolution. The conditioning depends on
z alone: :meth:`UNet.condition` builds it once, and every denoising step
of a reverse pass reuses it.
"""
from __future__ import annotations

import numpy as np

from ..numcore import (
    DimensionError,
    Tensor,
    add,
    mul,
    reshape,
    resample_linear,
    silu,
)
from ..numcore.tensor import accumulate, make_node
from .base import ParamModule, conv_init

# scale of the FiLM kernels' init, so every level starts near the identity
FILM_WEIGHT_SCALE = 0.05


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Standard sin/cos timestep embedding, [B, dim]."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class UNet(ParamModule):
    def __init__(self, latent_channels: int, channels, time_dim: int,
                 groups: int, rng: np.random.Generator):
        super().__init__()
        self.channels = tuple(channels)
        self.time_dim = time_dim
        self.groups = groups
        self.latent_channels = latent_channels
        c0, c1, c2 = self.channels

        self.add_linear("temb.fc1", rng, time_dim, time_dim)
        self.add_linear("temb.fc2", rng, time_dim, time_dim)
        self.add_conv("in_conv", rng, 1, c0, 3)
        # residual blocks: 2 per level on the way down, 2 on the way up for
        # levels 0 and 1; the bottom level runs its blocks once
        for lvl, c in enumerate(self.channels):
            for side in ("d", "u") if lvl < 2 else ("d",):
                for b in range(2):
                    name = f"res{lvl}{side}{b}"
                    self.add_norm(f"{name}.gn_a", c)
                    self.add_conv(f"{name}.conv_a", rng, c, c, 3)
                    self.add_linear(f"{name}.tproj", rng, time_dim, c)
                    self.add_norm(f"{name}.gn_b", c)
                    self.add_conv(f"{name}.conv_b", rng, c, c, 3)
        self.add_conv("down0", rng, c0, c1, 3)
        self.add_conv("down1", rng, c1, c2, 3)
        self.add_conv("up1", rng, c2, c1, 3)
        self.add_conv("up0", rng, c1, c0, 3)
        self.add_norm("out_gn", c0)
        self.add_conv("out_conv", rng, c0, 1, 3)
        # per-level FiLM projections from the latent; bias initialized so
        # gamma starts near 1 and beta near 0
        for lvl, c in enumerate(self.channels):
            self.add_param(f"film{lvl}.kernel", FILM_WEIGHT_SCALE
                           * conv_init(rng, 2 * c, latent_channels, 1))
            self.add_param(f"film{lvl}.bias",
                           np.concatenate([np.ones(c), np.zeros(c)]))

    # ------------------------------------------------------------------
    def _film_params(self, lvl: int, z: Tensor, length: int):
        c = self.channels[lvl]
        gb = self.conv(f"film{lvl}", resample_linear(z, length))
        B = gb.shape[0]
        gb = reshape(gb, (B, 2, c, length))
        gamma = reshape(rsum_slice(gb, 0), (B, c, length))
        beta = reshape(rsum_slice(gb, 1), (B, c, length))
        return gamma, beta

    def _res_block(self, name, h, temb, gamma, beta):
        c = h.shape[1]
        y = self.conv(f"{name}.conv_a", silu(self.norm(f"{name}.gn_a", h)))
        tproj = self.linear(f"{name}.tproj", temb)
        y = add(y, reshape(tproj, (tproj.shape[0], c, 1)))
        y = add(mul(gamma, y), beta)
        y = self.conv(f"{name}.conv_b", silu(self.norm(f"{name}.gn_b", y)))
        return add(h, y)

    # ------------------------------------------------------------------
    def condition(self, z: Tensor, length: int):
        """FiLM conditioning on the latent z [B, latent, T] for windows of
        ``length`` samples: one (gamma, beta) pair per level."""
        if z.ndim != 3 or z.shape[1] != self.latent_channels:
            raise DimensionError(
                f"expected z [B,{self.latent_channels},T], got {z.shape}")
        return tuple(self._film_params(lvl, z, length >> lvl)
                     for lvl in range(3))

    def __call__(self, x_t: Tensor, t: np.ndarray, film) -> Tensor:
        """``film`` is what :meth:`condition` returns for these rows; a bare
        latent Tensor is conditioned here first, for one-off forwards such
        as the U-Net timing in ``bench/baselines.py``. ``t`` holds one
        timestep per row, or one that every row shares: then the time path
        runs on one row and broadcasts over the batch."""
        if x_t.ndim != 3 or x_t.shape[1] != 1:
            raise DimensionError(f"expected x_t [B,1,L], got {x_t.shape}")
        B, _, L = x_t.shape
        if L % 4 != 0:
            raise DimensionError(f"length {L} must be divisible by 4")
        t = np.asarray(t).reshape(-1)
        if t.size not in (1, B):
            raise DimensionError(f"t has {t.size} entries for batch {B}")
        if isinstance(film, Tensor):
            film = self.condition(film, L)
        shapes = [tuple(p.shape for p in pair) for pair in film]
        want = [((B, c, L >> lvl),) * 2 for lvl, c in enumerate(self.channels)]
        if shapes != want:
            raise DimensionError(f"FiLM pairs {shapes} do not fit x_t "
                                 f"{x_t.shape}: expected {want}")

        emb = Tensor(sinusoidal_embedding(t, self.time_dim))
        temb = self.linear("temb.fc2", silu(self.linear("temb.fc1", emb)))

        h = self.conv("in_conv", x_t)
        h = self._res_block("res0d0", h, temb, *film[0])
        h = self._res_block("res0d1", h, temb, *film[0])
        skip0 = h
        h = self.conv("down0", h, stride=2)
        h = self._res_block("res1d0", h, temb, *film[1])
        h = self._res_block("res1d1", h, temb, *film[1])
        skip1 = h
        h = self.conv("down1", h, stride=2)
        h = self._res_block("res2d0", h, temb, *film[2])
        h = self._res_block("res2d1", h, temb, *film[2])
        h = self.conv("up1", resample_linear(h, L // 2))
        h = add(h, skip1)
        h = self._res_block("res1u0", h, temb, *film[1])
        h = self._res_block("res1u1", h, temb, *film[1])
        h = self.conv("up0", resample_linear(h, L))
        h = add(h, skip0)
        h = self._res_block("res0u0", h, temb, *film[0])
        h = self._res_block("res0u1", h, temb, *film[0])
        return self.conv("out_conv", silu(self.norm("out_gn", h)))


def rsum_slice(x: Tensor, index: int) -> Tensor:
    """View x[:, index] of a [B, 2, C, L] tensor; the gradient is scattered
    back into that slice."""
    def rule(g):
        gx = np.zeros_like(x.data)
        gx[:, index] = g
        accumulate(x, gx)
    return make_node(x.data[:, index], (x,), rule)
