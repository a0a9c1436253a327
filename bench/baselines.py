"""Micro-measurements behind the baseline numbers in ROADMAP "Recent".

    python3 bench/baselines.py CKPT DATA_DIR OUT.json

Loads a trained checkpoint and the training split of DATA_DIR and times,
each as the median of a few repeats after one warm-up call:

* one desk ``train_step`` at B=16, frozen (epoch 1) and unfrozen with the
  KL active (first epoch after the freeze);
* one no-grad U-Net forward at B=1 and B=16;
* ``reconstruct`` (encode + 25 DDIM steps) in ms per window at B=1 and
  B=16.

It also walks the autodiff graph of each step from the loss: nodes with
and without leaves (parameters and constant inputs), and the bytes of the
arrays the non-leaf nodes own.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from vampdiff.checkpoint import load_model
from vampdiff.cli import load_windows
from vampdiff.model import reconstruct
from vampdiff.numcore import Tensor, no_grad
from vampdiff.train import make_optimizer, train_step


def _median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def graph_stats(root: Tensor) -> dict:
    seen, stack = set(), [root]
    nodes = nonleaf = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += 1
        if t._prev:
            nonleaf += 1
            if t.data.flags.owndata:
                nbytes += t.data.nbytes
            stack.extend(t._prev)
    return {"nodes_all": nodes, "nodes_nonleaf": nonleaf,
            "activation_mb": nbytes / 2 ** 20}


def _step_graph(model, opt, x0, epoch) -> dict:
    """Run one train_step and return the graph stats of its loss."""
    captured = {}
    original = Tensor.backward

    def capture(self):
        captured.update(graph_stats(self))
        return original(self)

    Tensor.backward = capture
    try:
        train_step(model, opt, x0, epoch, np.random.default_rng(0))
    finally:
        Tensor.backward = original
    return captured


def measure(ckpt: str, data_dir: str) -> dict:
    model, _ = load_model(ckpt)
    config = model.config
    windows, _ = load_windows(f"{data_dir}/train", config)
    ns = model.norm_stats
    xs = np.stack([w.samples for w in windows[:16]])
    x16 = ((xs - ns.mu_train) / ns.sigma_train)[:, None, :]
    opt = make_optimizer(model, config)
    out = {}
    for label, epoch in (("frozen", 1), ("unfrozen", config.freeze_epochs + 1)):
        g = _step_graph(model, opt, x16, epoch)
        rng = np.random.default_rng(1)
        out[f"train_step_{label}_ms"] = _median_ms(
            lambda: train_step(model, opt, x16, epoch, rng), 3)
        out[f"graph_nodes_nonleaf_{label}"] = g["nodes_nonleaf"]
        out[f"graph_nodes_all_{label}"] = g["nodes_all"]
        out[f"activation_mb_{label}"] = g["activation_mb"]

    rng = np.random.default_rng(2)
    L, T = config.window_len, config.latent_len
    for B, repeats in ((1, 10), (16, 5)):
        x_t = Tensor(rng.standard_normal((B, 1, L)))
        z = Tensor(rng.standard_normal((B, config.latent_channels, T)))
        t = np.full(B, config.diffusion_steps // 2)
        with no_grad():
            out[f"unet_fwd_b{B}_ms"] = _median_ms(
                lambda: model.unet(x_t, t, z), repeats)
    for B, repeats in ((1, 3), (16, 2)):
        out[f"reconstruct_b{B}_ms_per_window"] = _median_ms(
            lambda: reconstruct(model, x16[:B], seed=0), repeats) / B
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4:
        print("usage: baselines.py CKPT DATA_DIR OUT.json", file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[3], "w") as f:
        json.dump(measure(sys.argv[1], sys.argv[2]), f)
