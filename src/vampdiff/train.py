"""Optimizer, joint training loop, and the respiratory-rate regressor."""
from __future__ import annotations

import csv
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .checkpoint import save_model
from .config import RunConfig
from .losses import beta_at, total_loss
from .model import (
    VampDiffModel,
    forward_diffuse,
    kl_pooled,
    reparameterize,
    stratified_init,
)
from .model.base import ParamModule
from .numcore import Tensor, no_grad, reshape, rmean, silu, square, sub
from . import signal as sg


class TrainError(Exception):
    pass


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay and per-group learning rates."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-4):
        # groups: list of {"params": [Tensor], "lr": float,
        #                  "weight_decay": optional float}
        self.groups = []
        seen = set()
        for g in groups:
            params = list(g["params"])
            for p in params:
                if id(p) in seen:
                    raise TrainError("parameter appears in multiple groups")
                seen.add(id(p))
            self.groups.append({
                "params": params,
                "lr": float(g["lr"]),
                "weight_decay": float(g.get("weight_decay", weight_decay)),
                "m": [np.zeros_like(p.data) for p in params],
                "v": [np.zeros_like(p.data) for p in params],
            })
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for g in self.groups:
            for p, m, v in zip(g["params"], g["m"], g["v"]):
                grad = p.grad
                if grad is None:
                    continue
                m *= self.b1
                m += (1 - self.b1) * grad
                v *= self.b2
                v += (1 - self.b2) * grad * grad
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p.data = p.data - g["lr"] * (update
                                             + g["weight_decay"] * p.data)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


# ----------------------------------------------------------------------
# joint training
# ----------------------------------------------------------------------

def make_optimizer(model: VampDiffModel, config: RunConfig) -> AdamW:
    groups = model.param_groups()
    return AdamW([
        {"params": groups["decoder"], "lr": config.lr_decoder},
        {"params": groups["encoder"], "lr": config.lr_encoder},
        {"params": groups["pseudo"], "lr": config.lr_pseudo,
         "weight_decay": 0.0},
    ], weight_decay=config.weight_decay)


def train_step(model: VampDiffModel, opt: AdamW, x0: np.ndarray,
               epoch: int, rng: np.random.Generator) -> dict:
    """One joint update on a normalized batch x0 of shape [B, 1, L].

    During the encoder-freeze phase the latent is computed without
    gradient tracking, the KL term is skipped, and encoder gradients are
    guaranteed to be identically zero.
    """
    config = model.config
    sched = model.schedule
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 3 or x0.shape[1] != 1:
        raise TrainError(f"batch must be [B,1,L], got {x0.shape}")
    B = x0.shape[0]
    frozen = epoch <= config.freeze_epochs
    beta = beta_at(epoch, config)

    noise = rng.standard_normal(
        (B, config.latent_channels, config.latent_len))
    with no_grad() if frozen else nullcontext():
        post = model.encode(Tensor(x0))
        z = reparameterize(post, Tensor(noise))

    t = rng.integers(1, sched.T + 1, size=B)
    eps = rng.standard_normal(x0.shape)
    x_t = forward_diffuse(Tensor(x0), t, Tensor(eps), sched)

    x0_hat = model.predict_x0(x_t, t, model.condition(z))

    # KL enters whenever its coefficient is nonzero; during the freeze the
    # posterior is already detached and encoder gradients are nulled below
    kl_term = None
    if beta != 0.0:
        kl_term = kl_pooled(
            post, z, model.pseudo, model.encoder, config.pooled_len,
            rng=rng, variance_mode=config.pooled_variance,
            prior_kind=config.prior_kind)
    loss, breakdown = total_loss(Tensor(x0), x0_hat, t, sched, config,
                                 kl_term=kl_term, beta=beta)
    if not np.isfinite(loss.data):
        raise TrainError(f"non-finite loss at epoch {epoch}: {breakdown}")

    model.zero_grads()
    loss.backward()
    if frozen:
        for p in model.encoder.params():
            p.grad = None
    breakdown["grad_norm"] = clip_global_norm(model.params(),
                                              config.clip_norm)
    opt.step()
    return breakdown


LOG_FIELDS = ["epoch", "total", "diffusion", "recon", "spectral", "deriv",
              "amp", "ptp", "kl", "beta", "grad_norm"]


def fit(model: VampDiffModel, x_train: np.ndarray,
        out_dir: str | Path | None = None, progress=None) -> list[dict]:
    """Seeded epoch loop over normalized windows x_train [N, L].

    Writes ``training_log.csv`` and periodic checkpoints into out_dir
    when given. Fully deterministic for a fixed config seed.
    """
    config = model.config
    x_train = np.asarray(x_train, dtype=np.float64)
    if x_train.ndim != 2 or x_train.shape[1] != config.window_len:
        raise TrainError(
            f"x_train must be [N, {config.window_len}], got {x_train.shape}")
    N = x_train.shape[0]
    if N < 1:
        raise TrainError("empty training set")
    opt = make_optimizer(model, config)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    history: list[dict] = []
    rows: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng((config.seed, epoch))
        order = rng.permutation(N)
        sums: dict[str, float] = {}
        n_batches = 0
        for start in range(0, N, config.batch_size):
            batch = x_train[order[start:start + config.batch_size]]
            br = train_step(model, opt, batch[:, None, :], epoch, rng)
            n_batches += 1
            for k, val in br.items():
                sums[k] = sums.get(k, 0.0) + val
        mean = {k: val / n_batches for k, val in sums.items()}
        mean["epoch"] = epoch
        history.append(mean)
        if progress is not None:
            progress(mean)
        rows.append({f: mean.get(f, "") for f in LOG_FIELDS})
        if out_dir is not None:
            if epoch % config.checkpoint_every == 0 or epoch == config.epochs:
                save_model(out_dir / f"checkpoint_ep{epoch:04d}.vdp", model,
                           meta={"epoch": epoch})
    if out_dir is not None:
        with atomic_open(out_dir / "training_log.csv") as f:
            writer = csv.DictWriter(f, fieldnames=LOG_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        save_model(out_dir / "model.vdp", model,
                   meta={"epoch": config.epochs})
    return history


def build_model(config: RunConfig,
                train_windows: list[sg.SignalWindow] | None = None,
                norm_stats: sg.NormStats | None = None) -> VampDiffModel:
    """Construct a model, stratifying pseudo-inputs over real windows when
    a training set is supplied."""
    pseudo_init = None
    if train_windows is not None:
        pseudo_init = stratified_init(
            config.pseudo_inputs, train_windows,
            band=config.band, peak_params=config.peak_params)
    model = VampDiffModel(config, rng=np.random.default_rng(config.seed),
                          pseudo_init=pseudo_init)
    model.norm_stats = norm_stats
    return model


# ----------------------------------------------------------------------
# respiratory-rate regressor
# ----------------------------------------------------------------------

class RRNet(ParamModule):
    """Dilated 1-D convnet regressing breaths/min from a PPG window; stage
    i dilates by 2 ** i."""

    def __init__(self, stem_channels: int, widths, groups: int,
                 rng: np.random.Generator):
        super().__init__()
        self.depth = len(widths)
        self.groups = groups
        self.add_conv("stem", rng, 1, stem_channels, 11)
        cin = stem_channels
        for i, w in enumerate(widths):
            self.add_conv(f"stage{i}", rng, cin, w, 3)
            self.add_norm(f"gn{i}", w)
            cin = w
        self.add_linear("fc1", rng, cin, cin)
        self.add_linear("fc2", rng, cin, 1)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.conv("stem", x, stride=2)
        for i in range(self.depth):
            h = silu(self.norm(f"gn{i}",
                               self.conv(f"stage{i}", h, dilation=2 ** i)))
        pooled = rmean(h, axes=2)  # global average pool -> [B, C]
        out = self.linear("fc2", silu(self.linear("fc1", pooled)))
        return reshape(out, (out.shape[0],))

    @classmethod
    def from_config(cls, config: RunConfig,
                    rng: np.random.Generator | None = None) -> "RRNet":
        """The regressor that ``config``'s rr_* settings describe."""
        return cls(config.rr_stem_channels, config.rr_widths,
                   config.groupnorm_groups, rng or np.random.default_rng(0))


def train_rr_estimator(x: np.ndarray, y: np.ndarray, config: RunConfig,
                       progress=None) -> RRNet:
    """Fit the RR regressor with Adam on mean squared error.

    x: [N, L] normalized windows; y: [N] breaths/min labels.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise TrainError("x must be [N, L] aligned with y")
    net = RRNet.from_config(config,
                            rng=np.random.default_rng(config.seed + 1))
    opt = AdamW([{"params": net.params(), "lr": config.rr_lr,
                  "weight_decay": 0.0}])
    N = x.shape[0]
    for epoch in range(1, config.rr_epochs + 1):
        rng = np.random.default_rng((config.seed, 7919, epoch))
        order = rng.permutation(N)
        losses = []
        for start in range(0, N, config.batch_size):
            sel = order[start:start + config.batch_size]
            pred = net(Tensor(x[sel][:, None, :]))
            loss = rmean(square(sub(pred, Tensor(y[sel]))))
            if not np.isfinite(loss.data):
                raise TrainError(f"non-finite RR loss at epoch {epoch}")
            net.zero_grads()
            loss.backward()
            clip_global_norm(net.params(), config.clip_norm)
            opt.step()
            losses.append(float(loss.data))
        if progress is not None:
            progress({"epoch": epoch, "mse": float(np.mean(losses))})
    return net
