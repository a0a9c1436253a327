"""Run configuration: hyperparameters, scale profiles, JSON round-trip."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .atomic import atomic_open


class ConfigError(Exception):
    pass


# The linear diffusion schedule scales the 1000-step endpoints (1e-4, 0.02)
# by 1000 / T, so beta_T = 20 / T stays below 1 only for T > 20.
MIN_DIFFUSION_STEPS = 21

# int fields that may be 0; every other int field is a size or count >= 1
ZERO_ALLOWED = {"quality_min_peaks", "epochs", "freeze_epochs", "rr_epochs",
                "seed"}

# Widest layer a config may build: 16 times the full profile's widest (256).
MAX_CHANNELS = 4096
CHANNEL_KEYS = {"latent_channels", "time_embed_dim", "rr_stem_channels",
                "rr_widths"}


def _has_type(value, annotation: str) -> bool:
    """Whether ``value`` fits a :class:`RunConfig` field annotation; an int
    fits a float field, and a bool fits only a bool field."""
    if annotation == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if annotation == "tuple[int, ...]":
        return (isinstance(value, (list, tuple))
                and all(_has_type(w, "int") for w in value))
    return isinstance(value, {"int": int, "float": (int, float),
                              "str": str}[annotation])


@dataclass
class RunConfig:
    profile: str = "full"

    # signal
    fs: float = 300.0
    window_len: int = 3072
    overlap_frac: float = 0.5
    band_lo_hz: float = 0.7
    band_hi_hz: float = 3.0
    peak_min_distance_s: float = 0.35
    peak_prominence_frac: float = 0.1
    peak_height_percentile: float = 60.0
    quality_min_peaks: int = 2

    # latent / architecture
    latent_channels: int = 256
    latent_len: int = 768
    pooled_len: int = 8
    width_factor: float = 1.0
    time_embed_dim: int = 128
    groupnorm_groups: int = 4

    # prior
    pseudo_inputs: int = 100

    # diffusion
    diffusion_steps: int = 100
    ddim_steps: int = 50

    # optimization
    epochs: int = 200
    batch_size: int = 32
    freeze_epochs: int = 20
    lr_decoder: float = 2e-5
    lr_encoder: float = 5e-6
    lr_pseudo: float = 2e-3
    weight_decay: float = 1e-4
    clip_norm: float = 1.0
    checkpoint_every: int = 25

    # KL annealing
    beta_floor_value: float = 1e-8
    beta_floor_until: int = 50
    beta_ramp_until: int = 130
    beta_ramp_target: float = 5e-8

    # loss weights
    lambda_diff: float = 1.0
    lambda_recon: float = 5.0
    lambda_spec: float = 0.1
    lambda_deriv: float = 0.1
    lambda_amp: float = 2.0
    lambda_ptp: float = 1.0

    # ablation / experimentation hooks
    kl_beta_zero: bool = False          # force beta == 0 for all epochs
    zero_aux_losses: bool = False       # zero every auxiliary lambda
    prior_kind: str = "vamp"            # "vamp" or "standard" normal prior
    condition_on_pooled: bool = False   # FiLM from pooled latent instead of full
    pooled_variance: str = "direct"       # "direct" (pool variances) or "pushforward"
    freeze_beta: float = 0.0            # optional small beta during encoder freeze

    # RR estimator
    rr_widths: tuple[int, ...] = (32, 64, 128, 128)
    rr_stem_channels: int = 32
    rr_epochs: int = 40
    rr_lr: float = 1e-3

    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(
                    f"config key {f.name!r} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"config key {f.name!r} must be finite, "
                                  f"got {value!r}")
            ints = {"int": [value], "tuple[int, ...]": value}.get(f.type, [])
            low = 0 if f.name in ZERO_ALLOWED else 1
            if any(v < low for v in ints):
                raise ConfigError(f"config key {f.name!r} must be >= {low}, "
                                  f"got {value!r}")
            if f.name in CHANNEL_KEYS and any(v > MAX_CHANNELS for v in ints):
                raise ConfigError(f"config key {f.name!r} must be <= "
                                  f"{MAX_CHANNELS}, got {value!r}")
        if 256 * self.width_factor > MAX_CHANNELS:
            raise ConfigError(f"config key 'width_factor' gives widths above "
                              f"{MAX_CHANNELS}, got {self.width_factor!r}")
        if self.time_embed_dim % 2:
            raise ConfigError("config key 'time_embed_dim' must be even")
        channels = (*self.widths, self.rr_stem_channels, *self.rr_widths)
        if any(c % self.groupnorm_groups for c in channels):
            raise ConfigError(
                f"config key 'groupnorm_groups' ({self.groupnorm_groups}) "
                f"must divide every channel count, got {channels}")
        if self.profile not in {"full", "desk"}:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.window_len % 4 != 0:
            raise ConfigError("window_len must be divisible by 4")
        if self.latent_len * 4 != self.window_len:
            raise ConfigError("latent_len must equal window_len / 4")
        if self.latent_len % self.pooled_len != 0:
            raise ConfigError("latent_len must be divisible by pooled_len")
        if self.diffusion_steps < MIN_DIFFUSION_STEPS:
            raise ConfigError(
                f"diffusion_steps must be >= {MIN_DIFFUSION_STEPS}")
        if not 1 <= self.ddim_steps <= self.diffusion_steps:
            raise ConfigError("ddim_steps must be in 1..diffusion_steps")
        if self.epochs > 0 and self.freeze_epochs >= self.epochs:
            raise ConfigError("freeze_epochs must be < epochs")
        if not (self.freeze_epochs < self.beta_floor_until < self.beta_ramp_until):
            raise ConfigError("require freeze < floor_until < ramp_until")
        if self.prior_kind not in {"vamp", "standard"}:
            raise ConfigError(f"unknown prior_kind {self.prior_kind!r}")
        if self.pooled_variance not in {"direct", "pushforward"}:
            raise ConfigError(f"unknown pooled_variance {self.pooled_variance!r}")
        if not (0 < self.band_lo_hz < self.band_hi_hz < self.fs / 2):
            raise ConfigError("band edges must satisfy 0 < lo < hi < fs/2")
        self.rr_widths = tuple(self.rr_widths)

    # ------------------------------------------------------------------
    @property
    def widths(self) -> tuple[int, int, int]:
        """Channels of the three encoder stages and U-Net levels."""
        return tuple(max(4, int(round(c * self.width_factor)))
                     for c in (64, 128, 256))

    @property
    def band(self) -> tuple[float, float]:
        """(lo, hi) Hz of the bandpass applied before peak detection."""
        return (self.band_lo_hz, self.band_hi_hz)

    @property
    def peak_params(self) -> tuple[float, float, float]:
        """Positional (min_distance_s, prominence_frac, height_percentile)
        of :func:`vampdiff.signal.detect_peaks`."""
        return (self.peak_min_distance_s, self.peak_prominence_frac,
                self.peak_height_percentile)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["rr_widths"] = list(self.rr_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from None
        return cls.from_dict(d)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json(Path(path).read_text())

    def save(self, path) -> None:
        with atomic_open(path) as f:
            f.write(self.to_json() + "\n")


def desk_config(**overrides) -> RunConfig:
    """CPU-scale profile preserving the full profile's structural ratios."""
    base = dict(
        profile="desk",
        fs=75.0,
        window_len=768,
        latent_len=192,
        latent_channels=32,
        pooled_len=8,
        width_factor=0.125,
        pseudo_inputs=16,
        diffusion_steps=50,
        ddim_steps=25,
        epochs=60,
        batch_size=16,
        freeze_epochs=6,
        beta_floor_until=15,
        beta_ramp_until=40,
        checkpoint_every=25,
        # desk-scale learning rates: the full-scale rates are too small to
        # move a model within a few hundred steps
        lr_decoder=2e-3,
        lr_encoder=5e-4,
        lr_pseudo=2e-3,
        rr_widths=(8, 16, 32, 32),
        rr_stem_channels=8,
    )
    base.update(overrides)
    return RunConfig(**base)
