"""Optimizer, training-step, persistence, and determinism tests."""
import json

import numpy as np
import pytest

from vampdiff.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from vampdiff.config import desk_config
from vampdiff.losses import diffusion_loss
from vampdiff.model import VampDiffModel
from vampdiff.numcore import Tensor, rsum, square
from vampdiff.train import (
    AdamW,
    RRNet,
    TrainError,
    clip_global_norm,
    fit,
    make_optimizer,
    train_rr_estimator,
    train_step,
)


def tiny_config(**overrides):
    base = dict(window_len=64, latent_len=16, latent_channels=4,
                pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                epochs=3, batch_size=2, freeze_epochs=1,
                beta_floor_until=2, beta_ramp_until=3,
                checkpoint_every=10, fs=75.0,
                rr_widths=(4, 4), rr_stem_channels=4, rr_epochs=2)
    base.update(overrides)
    return desk_config(**base)


class TestAdamW:
    def test_matches_manual_reference(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW([{"params": [p], "lr": 0.1, "weight_decay": 0.01}])
        ref = p.data.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        rng = np.random.default_rng(0)
        for step in range(1, 4):
            g = rng.normal(size=2)
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** step)
            vhat = v / (1 - 0.999 ** step)
            ref = ref - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.01 * ref)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([{"params": [p], "lr": 0.1}])
        opt.step()
        np.testing.assert_array_equal(p.data, 1.0)

    def test_duplicate_param_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TrainError):
            AdamW([{"params": [p], "lr": 0.1},
                   {"params": [p], "lr": 0.2}])


class TestClip:
    def test_scales_down_to_max_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([4.0])
        norm = clip_global_norm([a, b], 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
        assert total == pytest.approx(1.0)

    def test_leaves_small_gradients_alone(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        assert clip_global_norm([a], 1.0) == pytest.approx(0.5)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])


class TestTrainStep:
    def make(self, **overrides):
        cfg = tiny_config(**overrides)
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        return cfg, model, make_optimizer(model, cfg)

    def batch(self, cfg, seed=0):
        return np.random.default_rng(seed).normal(
            size=(2, 1, cfg.window_len))

    def test_frozen_epoch_keeps_encoder_fixed(self):
        cfg, model, opt = self.make()
        before = {n: t.data.copy() for n, t in model.encoder.named_params()}
        dec_before = model.unet._params["in_conv.kernel"].data.copy()
        train_step(model, opt, self.batch(cfg), epoch=1,
                   rng=np.random.default_rng(1))
        for n, t in model.encoder.named_params():
            assert t.grad is None
            np.testing.assert_array_equal(t.data, before[n])
        assert np.abs(
            model.unet._params["in_conv.kernel"].data - dec_before).max() > 0

    def test_unfrozen_epoch_updates_encoder_and_has_kl(self):
        cfg, model, opt = self.make()
        before = model.encoder._params["conv1.kernel"].data.copy()
        br = train_step(model, opt, self.batch(cfg), epoch=3,
                        rng=np.random.default_rng(2))
        assert "kl" in br and np.isfinite(br["kl"])
        assert np.abs(
            model.encoder._params["conv1.kernel"].data - before).max() > 0

    def test_step_is_deterministic(self):
        results = []
        for _ in range(2):
            cfg, model, opt = self.make()
            br = train_step(model, opt, self.batch(cfg), epoch=2,
                            rng=np.random.default_rng(3))
            results.append((br["total"],
                            model.unet._params["in_conv.kernel"].data.copy()))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_nan_batch_aborts(self):
        cfg, model, opt = self.make()
        bad = self.batch(cfg)
        bad[0, 0, 0] = np.nan
        with pytest.raises(TrainError):
            train_step(model, opt, bad, epoch=1,
                       rng=np.random.default_rng(4))

    def test_ablation_flags_run(self):
        for flags in ({"kl_beta_zero": True}, {"zero_aux_losses": True},
                      {"prior_kind": "standard"},
                      {"condition_on_pooled": True},
                      {"pooled_variance": "pushforward"}):
            cfg, model, opt = self.make(**flags)
            br = train_step(model, opt, self.batch(cfg), epoch=3,
                            rng=np.random.default_rng(5))
            assert np.isfinite(br["total"])

    def test_pure_diffusion_ablation_matches_standalone(self):
        """With the KL and auxiliary terms disabled the step's loss equals a
        freestanding diffusion objective computed from the same draws."""
        cfg, model, opt = self.make(kl_beta_zero=True, zero_aux_losses=True)
        x0 = self.batch(cfg, seed=6)
        rng = np.random.default_rng(7)
        # replay the step's random draws
        noise = rng.standard_normal((2, cfg.latent_channels, cfg.latent_len))
        t = rng.integers(1, cfg.diffusion_steps + 1, size=2)
        eps = rng.standard_normal(x0.shape)
        sched = model.schedule
        ab = np.array([sched.alpha_bar(int(ti)) for ti in t])[:, None, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        from vampdiff.model import reparameterize
        from vampdiff.numcore import no_grad
        with no_grad():
            post = model.encode(Tensor(x0))
            z = reparameterize(post, Tensor(noise))
            x0_hat = model.predict_x0(Tensor(x_t), t, model.condition(z))
            standalone = diffusion_loss(x0_hat, Tensor(x0), t, sched).data
        br = train_step(model, opt, x0, epoch=3,
                        rng=np.random.default_rng(7))
        assert br["total"] == pytest.approx(float(standalone), abs=1e-12)


class TestFit:
    def test_history_logs_and_determinism(self, tmp_path):
        cfg = tiny_config()
        x = np.random.default_rng(0).normal(size=(4, cfg.window_len))
        outs = []
        for run in range(2):
            model = VampDiffModel(cfg, rng=np.random.default_rng(cfg.seed))
            out = tmp_path / f"run{run}"
            hist = fit(model, x, out_dir=out)
            assert len(hist) == cfg.epochs
            assert (out / "training_log.csv").exists()
            assert (out / "model.vdp").exists()
            outs.append((out / "model.vdp").read_bytes())
        assert outs[0] == outs[1]

    def test_rejects_wrong_width(self):
        cfg = tiny_config()
        model = VampDiffModel(cfg)
        with pytest.raises(TrainError):
            fit(model, np.zeros((2, cfg.window_len + 4)))


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        cfg = tiny_config()
        arrays = {"a.b": np.random.default_rng(0).normal(size=(3, 2)),
                  "c": np.array(1.5)}
        p1, p2 = tmp_path / "x.vdp", tmp_path / "y.vdp"
        save_checkpoint(p1, cfg, arrays, meta={"epoch": 3})
        cfg2, arrs, ns, meta = load_checkpoint(p1)
        save_checkpoint(p2, cfg2, arrs, norm_stats=ns, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()
        assert meta == {"epoch": 3}
        assert cfg2.to_dict() == cfg.to_dict()

    def test_model_round_trip(self, tmp_path):
        cfg = tiny_config()
        model = VampDiffModel(cfg, rng=np.random.default_rng(1))
        from vampdiff.signal import NormStats
        model.norm_stats = NormStats(0.25, 1.75)
        p = tmp_path / "m.vdp"
        save_model(p, model, meta={"epoch": 1})
        loaded, meta = load_model(p)
        assert meta == {"epoch": 1}
        assert loaded.norm_stats.sigma_train == pytest.approx(1.75)
        for (na, a), (nb, b) in zip(model.named_params(),
                                    loaded.named_params()):
            assert na == nb
            np.testing.assert_allclose(b.data, a.data.astype(np.float32),
                                       rtol=0)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.vdp"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @pytest.mark.parametrize("key", ["config", "arrays"])
    def test_manifest_missing_key_rejected(self, tmp_path, key):
        p = tmp_path / "model.vdp"
        save_checkpoint(p, tiny_config(), {"w": np.zeros(2)})
        raw = p.read_bytes()
        blob_len = int.from_bytes(raw[8:16], "little")
        manifest = json.loads(raw[16:16 + blob_len])
        del manifest[key]
        blob = json.dumps(manifest).encode()
        p.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                      + raw[16 + blob_len:])
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(p)

    @pytest.mark.parametrize("shift", [-4, 4])
    def test_offsets_must_tile_the_payload(self, tmp_path, shift):
        p = tmp_path / "model.vdp"
        save_checkpoint(p, tiny_config(), {"a": np.ones(3), "b": np.ones(2)})
        raw = p.read_bytes()
        blob_len = int.from_bytes(raw[8:16], "little")
        manifest = json.loads(raw[16:16 + blob_len])
        manifest["arrays"][1]["offset"] += shift
        blob = json.dumps(manifest).encode()
        p.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                      + raw[16 + blob_len:])
        with pytest.raises(CheckpointError, match="'b' at offset"):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "model.vdp"
        save_checkpoint(p, tiny_config(), {"w": np.zeros(2)})
        p.write_bytes(p.read_bytes() + b"\x00" * 7)
        with pytest.raises(CheckpointError, match="7 bytes after"):
            load_checkpoint(p)

    def test_misshaped_parameter_rejected(self, tmp_path):
        cfg = tiny_config()
        arrays = VampDiffModel(cfg).state_arrays()
        arrays["encoder.conv1.bias"] = np.zeros(1)
        p = tmp_path / "model.vdp"
        save_checkpoint(p, cfg, arrays)
        with pytest.raises(CheckpointError, match="encoder.conv1.bias"):
            load_model(p)


class TestRRNet:
    def test_shapes_and_training_reduces_loss(self):
        cfg = tiny_config()
        rng = np.random.default_rng(0)
        # trivially learnable target: scaled window mean
        x = rng.normal(size=(8, cfg.window_len))
        y = 10.0 + x.mean(axis=1)
        net = RRNet(stem_channels=cfg.rr_stem_channels, widths=cfg.rr_widths,
                    groups=2, rng=np.random.default_rng(1))
        pred0 = net(Tensor(x[:, None, :]))
        assert pred0.shape == (8,)
        mse0 = float(np.mean((pred0.data - y) ** 2))
        cfg2 = tiny_config(rr_epochs=10)
        net2 = train_rr_estimator(x, y, cfg2)
        pred1 = net2(Tensor(x[:, None, :]))
        mse1 = float(np.mean((pred1.data - y) ** 2))
        assert mse1 < mse0

    def test_rr_gradients_flow(self):
        net = RRNet(stem_channels=4, widths=(4, 4), groups=2,
                    rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 64)))
        rsum(square(net(x))).backward()
        for name, p in net.named_params():
            assert p.grad is not None and np.isfinite(p.grad).all(), name
