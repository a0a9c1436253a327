"""Model components: encoder, prior, denoiser, schedule, and the assembly."""
from __future__ import annotations

import numpy as np

from ..config import RunConfig
from ..numcore import Tensor
from ..signal import NormStats
from .base import ParamModule
from .encoder import LOGVAR_CLAMP, Encoder, LatentPosterior, pool, reparameterize
from .prior import (
    PriorError,
    PseudoInputs,
    kl_pooled,
    pooled_posterior,
    standard_normal_logpdf,
    stratified_init,
    vamp_components,
    vampprior_logpdf,
)
from .schedule import (
    DiffusionSchedule,
    ScheduleError,
    forward_diffuse,
    kl_weight,
    posterior_mean_exact,
)
from .sampler import (
    SamplerError,
    ddim_sample,
    ddim_timesteps,
    generate,
    interpolate_latent,
    reconstruct,
    seeded_noise,
)
from .unet import UNet, sinusoidal_embedding

__all__ = [
    "ParamModule",
    "LOGVAR_CLAMP", "Encoder", "LatentPosterior", "pool", "reparameterize",
    "PriorError", "PseudoInputs", "kl_pooled", "pooled_posterior",
    "standard_normal_logpdf", "stratified_init", "vamp_components",
    "vampprior_logpdf",
    "DiffusionSchedule", "ScheduleError", "forward_diffuse", "kl_weight",
    "posterior_mean_exact",
    "SamplerError", "ddim_sample", "ddim_timesteps", "generate",
    "interpolate_latent", "reconstruct", "seeded_noise",
    "UNet", "sinusoidal_embedding",
    "VampDiffModel",
]


class VampDiffModel(ParamModule):
    """Encoder + pseudo-inputs + conditional denoiser, wired from a RunConfig."""

    def __init__(self, config: RunConfig, rng: np.random.Generator | None = None,
                 pseudo_init: np.ndarray | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.encoder = self.add_child(
            "encoder",
            Encoder(config.latent_channels, config.widths,
                    config.groupnorm_groups, rng))
        self.pseudo = self.add_child(
            "pseudo",
            PseudoInputs(config.pseudo_inputs, config.window_len,
                         init=pseudo_init, rng=rng))
        self.unet = self.add_child(
            "unet",
            UNet(config.latent_channels, config.widths,
                 config.time_embed_dim, config.groupnorm_groups, rng))
        self.schedule = DiffusionSchedule(config.diffusion_steps)
        self.norm_stats: NormStats | None = None

    def encode(self, x: Tensor) -> LatentPosterior:
        return self.encoder(x)

    def condition(self, z: Tensor):
        """The denoiser's FiLM conditioning on the latent z, pooled first
        when the config asks for it."""
        if self.config.condition_on_pooled:
            z = pool(z, self.config.pooled_len)
        return self.unet.condition(z, self.config.window_len)

    def predict_x0(self, x_t: Tensor, t: np.ndarray, cond) -> Tensor:
        """Clean-signal estimate from x_t at timestep t under ``cond``, what
        :meth:`condition` returns; a decode builds it once per chunk of rows
        and reuses it at every DDIM step."""
        if isinstance(cond, Tensor):  # a bare latent would skip the pooling
            raise TypeError("predict_x0 takes model.condition(z), not z")
        return self.unet(x_t, t, cond)

    def param_groups(self) -> dict[str, list[Tensor]]:
        """Optimizer groups: denoiser, encoder, pseudo-inputs."""
        return {
            "decoder": self.unet.params(),
            "encoder": self.encoder.params(),
            "pseudo": self.pseudo.params(),
        }
