"""Deterministic DDIM sampling, reconstruction, generation, interpolation."""
from __future__ import annotations

import numpy as np

from ..numcore import Tensor
from .base import inference
from .schedule import DiffusionSchedule


class SamplerError(Exception):
    pass


def ddim_timesteps(T: int, n_steps: int) -> np.ndarray:
    """Uniform-stride decreasing timestep subsequence from T down to 1."""
    if not 1 <= n_steps <= T:
        raise SamplerError(f"n_steps={n_steps} outside 1..{T}")
    ts = np.round(np.linspace(T, 1, n_steps)).astype(int)
    ts = np.unique(ts)[::-1]
    return ts


def ddim_sample(predict_x0, sched: DiffusionSchedule, cond, x_T: np.ndarray,
                n_steps: int) -> np.ndarray:
    """Deterministic (eta = 0) reverse pass under clean-signal prediction.

    ``predict_x0(x_t, t, cond)`` maps a noisy batch [B,1,L] at timestep
    ``t``, a one-entry array that every row shares, to a clean-signal
    estimate; call it inside :func:`~vampdiff.model.base.inference`.
    ``cond`` is the rows' conditioning, built once by the caller and passed
    unchanged to every step. The update runs in float64 whatever the
    predictor's dtype. Returns the final x_0 array.
    """
    ts = ddim_timesteps(sched.T, n_steps)
    x = np.asarray(x_T, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != 1:
        raise SamplerError(f"x_T must be [B,1,L], got {x.shape}")
    for i, t in enumerate(ts):
        t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
        ab_t = sched.alpha_bar(int(t))
        ab_p = sched.alpha_bar(t_prev)
        x0_hat = predict_x0(Tensor(x), ts[i:i + 1], cond).data
        eps_hat = (x - np.sqrt(ab_t) * x0_hat) / np.sqrt(1.0 - ab_t)
        if t_prev == 0:
            x = x0_hat
        else:
            x = np.sqrt(ab_p) * x0_hat + np.sqrt(1.0 - ab_p) * eps_hat
    return np.asarray(x, dtype=np.float64)


def seeded_noise(shape: tuple, seed: int, index: int = 0) -> np.ndarray:
    """Deterministic standard-normal draw keyed by (seed, index)."""
    return np.random.default_rng((seed, index)).standard_normal(shape)


# Rows per DDIM decode: it bounds memory and changes no output byte. The
# float32 decode allocates about 0.33 MB a row at its peak at the desk
# profile and 12 MB at the full one.
BATCH = 16


def _decode_rows(model, latent, keys, seed: int, denorm: bool) -> np.ndarray:
    """DDIM-decode one row per entry of ``keys``, ``BATCH`` rows at a time,
    inside ``inference(model)``: ``latent(rows)`` gives the latent of a
    range of rows, and row j starts from the terminal noise keyed by
    ``(seed, keys[j])``. Each chunk's conditioning is built once, used by
    all its DDIM steps and released before the next chunk's. In original
    units when ``denorm`` and the model carries normalization stats."""
    L = model.config.window_len
    outs = []
    for start in range(0, len(keys), BATCH):
        rows = range(start, min(start + BATCH, len(keys)))
        x_T = np.stack([seeded_noise((1, L), seed, keys[j]) for j in rows])
        outs.append(ddim_sample(model.predict_x0, model.schedule,
                                model.condition(latent(rows)), x_T,
                                model.config.ddim_steps))
    out = np.concatenate(outs, axis=0)
    if denorm and model.norm_stats is not None:
        out = model.norm_stats.denormalize(out)
    return out


def reconstruct(model, x: np.ndarray, seed: int = 0,
                denorm: bool = True) -> np.ndarray:
    """Encode each window of a normalized [N,1,L] batch to its posterior
    mean and run the reverse pass, with terminal noise keyed as in
    :func:`generate`. Returns [N,1,L], in original units when ``denorm``
    and the model carries normalization stats."""
    x = np.asarray(x, dtype=np.float64)

    def posterior_mean(rows):
        return model.encode(Tensor(x[rows])).mu
    with inference(model):
        return _decode_rows(model, posterior_mean, range(x.shape[0]), seed,
                            denorm)


def generate(model, n: int, seed: int = 0, denorm: bool = True) -> np.ndarray:
    """Draw n windows: pick pseudo-input components uniformly, sample the
    full-resolution latent from the component posterior, then decode."""
    if n < 1:
        raise SamplerError("n must be >= 1")
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, model.pseudo.K, size=n)
    with inference(model):
        post = model.encode(model.pseudo.as_batch())

        def component_draw(rows):
            mu, logvar = post.mu.data[ks[rows]], post.logvar.data[ks[rows]]
            eps = rng.standard_normal(mu.shape)
            return Tensor((mu + np.exp(0.5 * logvar) * eps).astype(mu.dtype))
        return _decode_rows(model, component_draw, range(n), seed, denorm)


def decode_shared_noise(model, z: Tensor, seed: int,
                        denorm: bool = True) -> np.ndarray:
    """Decode every latent row of ``z`` from the one terminal draw keyed by
    ``(seed, 0)``, so that rows differ by their latent alone."""
    with inference(model):
        return _decode_rows(model, lambda rows: Tensor(z.data[rows]),
                            [0] * z.shape[0], seed, denorm)


def interpolate_latent(model, x_a: np.ndarray, x_b: np.ndarray,
                       alphas, seed: int = 0,
                       denorm: bool = True) -> np.ndarray:
    """Decode convex combinations of two windows' posterior-mean latents.

    Every step shares one terminal-noise draw so differences come from the
    latent alone. Returns [len(alphas), 1, L].
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise SamplerError("alphas must be a nonempty 1-D sequence")
    outside = alphas[~((alphas >= 0) & (alphas <= 1))]
    if outside.size:
        raise SamplerError(f"alpha {outside[0]} must lie in [0, 1]")
    pair = np.stack([np.asarray(x_a, dtype=np.float64),
                     np.asarray(x_b, dtype=np.float64)])[:, None, :]
    with inference(model):
        za, zb = model.encode(Tensor(pair)).mu.data
        z = np.stack([(1 - a) * za + a * zb for a in alphas]).astype(za.dtype)
        return _decode_rows(model, lambda rows: Tensor(z[rows]),
                            [0] * alphas.size, seed, denorm)
