"""The names and call shapes that the benchmark under ``bench/`` binds to.

``bench/tracer.py`` patches program functions and methods by name, and its
wrappers call ``ddim_sample`` and ``train_step`` with positional arguments.
A rename or a changed signature makes every traced benchmark run fail; this
test fails first. A traced ``evaluate`` must also decode exactly the windows
``bench/workloads.py`` counts, in one sampler call per window set, and
write the same bytes as an untraced one.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import vampdiff.cli  # the tracer patches only modules already loaded
from vampdiff import signal as sg
from vampdiff.checkpoint import save_checkpoint, save_model
from vampdiff.config import desk_config
from vampdiff.model import VampDiffModel
from vampdiff.model.sampler import ddim_sample, ddim_timesteps
from vampdiff.train import RRNet, make_optimizer, train_step

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def tiny_config():
    return desk_config(window_len=64, latent_len=16, latent_channels=4,
                       pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                       epochs=2, batch_size=2, freeze_epochs=1,
                       beta_floor_until=2, beta_ramp_until=3, ddim_steps=3,
                       checkpoint_every=10, fs=75.0)


def traced_targets(tracer_mod):
    """(owner, attribute, original) for every name the tracer patches."""
    ops = sys.modules["vampdiff.numcore.ops"]
    unet = sys.modules["vampdiff.model.unet"]
    functions = [getattr(unet if name == "rsum_slice" else ops, name)
                 for name in tracer_mod.OP_CATEGORY]
    functions += [getattr(sys.modules[mod], attr)
                  for mod, attr, _ in tracer_mod.FUNCTIONS]
    targets = []
    for fn in functions:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("vampdiff"):
                continue
            targets += [(mod, attr, fn) for attr, value in vars(mod).items()
                        if value is fn]
    for mod, cls_name, meth, _ in tracer_mod.METHODS:
        cls = getattr(sys.modules[mod], cls_name)
        targets.append((cls, meth, cls.__dict__[meth]))
    return targets


def test_wrapped_signatures_accept_positional_calls():
    inspect.signature(ddim_sample).bind("predict_x0", "sched", "z", "x_T",
                                        "n_steps")
    inspect.signature(train_step).bind("model", "opt", "x0", "epoch", "rng")
    inspect.signature(vampdiff.cli.load_windows).bind("data_dir", "config")


def test_install_patches_and_uninstall_restores(tmp_path):
    tracer_mod = load_bench("tracer")
    targets = traced_targets(tracer_mod)

    cfg = tiny_config()
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.0, 1.0)
    ckpt = tmp_path / "model.vdp"
    save_model(ckpt, model, meta={"epoch": 0})

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for owner, attr, original in targets:
            patched = getattr(owner, attr)
            assert patched is not original, f"{owner.__name__}.{attr}"
            assert patched.__wrapped__ is original
        rc = vampdiff.cli.main(["generate", "--ckpt", str(ckpt), "--num", "2",
                                "--seed", "1",
                                "--out", str(tmp_path / "gen.csv")])
        assert rc == 0
        generate_calls = dict(tracer.calls)
        opt = make_optimizer(model, cfg)
        x0 = np.random.default_rng(1).normal(size=(2, 1, cfg.window_len))
        sys.modules["vampdiff.train"].train_step(
            model, opt, x0, 2, np.random.default_rng(2))
    finally:
        tracer.uninstall()

    for owner, attr, original in targets:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    report = tracer.report()
    assert report["sampler_batches"] == [2]
    assert len(report["steps"]) == 1
    for span in ("conv1d", "groupnorm", "model.unet.film",
                 "model.unet.level0", "model.unet.level1",
                 "model.unet.level2", "model.sampler.ddim_sample",
                 "train.train_step", "numcore.backward"):
        assert report["calls"].get(span, 0) > 0, span
    assert report["bwd_self_s"].get("conv1d", 0.0) > 0.0
    # every layer op reaches the tracer: one encoder pass over the
    # pseudo-inputs (5 convs, 3 norms), the 3 FiLM convs once for the one
    # decode chunk, then per DDIM step one U-Net pass (26 convs, 21 norms,
    # 2 time-MLP + 10 tproj linears)
    n_t = len(ddim_timesteps(cfg.diffusion_steps, cfg.ddim_steps))
    assert generate_calls["conv1d"] == 26 * n_t + 3 + 5
    assert generate_calls["groupnorm"] == 21 * n_t + 3
    assert generate_calls["linear"] == 12 * n_t



def test_traced_evaluate_matches_workload_count_and_bytes(tmp_path):
    workloads = load_bench("workloads")
    tracer_mod = load_bench("tracer")
    cfg = desk_config(window_len=256, latent_len=64, latent_channels=4,
                      width_factor=0.0625, pseudo_inputs=3, ddim_steps=3,
                      rr_widths=(4, 4), rr_stem_channels=4)
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.0, 1.0)
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    save_model(fixture / "model.vdp", model, meta={"epoch": 0})
    save_checkpoint(fixture / "rr.vdp", cfg,
                    RRNet.from_config(cfg).state_arrays(),
                    norm_stats=model.norm_stats, meta={"kind": "rr"})
    data = tmp_path / "data"
    vampdiff.cli.synth_dataset(cfg, data, n_patients=3,
                               duration_s=2 * cfg.window_len / cfg.fs)
    scale = workloads.Scale(config={}, train_epochs=1, fixture_epochs=1,
                            gen_num=2, eval_gen_n=2)
    ctx = workloads.Context(scale=scale, seed=1, work=tmp_path,
                            fixture=fixture, data=data)
    evaluate = workloads.Evaluate()
    evaluate.prepare(ctx)

    assert vampdiff.cli.main(evaluate.command(ctx, tmp_path / "plain")) == 0
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        rc = vampdiff.cli.main(evaluate.command(ctx, tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert rc == 0

    batches = tracer.report()["sampler_batches"]
    assert sum(batches) == evaluate.windows(ctx)
    # one decode per window set, in report order: reconstruction,
    # generation, clean and corrupted anomaly scoring, RR consistency
    n = evaluate.n_test
    n_corrupted = min(max(4, n // 3), n)
    assert batches == [n, scale.eval_gen_n, n, n_corrupted, n]
    plain = sorted((tmp_path / "plain" / "reports").iterdir())
    assert "rr_consistency.csv" in [p.name for p in plain]
    traced = tmp_path / "traced" / "reports"
    assert sorted(p.name for p in traced.iterdir()) == [p.name for p in plain]
    for p in plain:
        assert (traced / p.name).read_bytes() == p.read_bytes(), p.name
