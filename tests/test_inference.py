"""The float32 decode: every no-grad model forward runs on float32 copies
of the float64 parameters, which come back unchanged afterwards."""
import numpy as np
import pytest

from vampdiff import signal as sg
from vampdiff.checkpoint import load_model, save_model
from vampdiff.config import desk_config
from vampdiff.model import (
    UNet,
    VampDiffModel,
    generate,
    interpolate_latent,
    reconstruct,
)
from vampdiff.model.base import inference
from vampdiff.numcore import DimensionError


def tiny_model():
    cfg = desk_config(window_len=64, latent_len=16, latent_channels=4,
                      pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                      ddim_steps=4)
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.5, 2.0)
    return model


def windows(model, n, seed=1):
    return np.random.default_rng(seed).normal(
        size=(n, 1, model.config.window_len))


def snapshot(model):
    return {name: t.data.copy() for name, t in model.named_params()}


def assert_params_unchanged(model, before):
    for name, t in model.named_params():
        assert t.data.dtype == np.float64, name
        assert t.data.tobytes() == before[name].tobytes(), name


DECODES = {
    "generate": lambda m: generate(m, 3, seed=2),
    "reconstruct": lambda m: reconstruct(m, windows(m, 3), seed=2),
    "interpolate_latent": lambda m: interpolate_latent(
        m, *windows(m, 2)[:, 0], [0.0, 0.5, 1.0], seed=2),
}


@pytest.mark.parametrize("decode", sorted(DECODES))
def test_decode_restores_float64_parameters(decode):
    model = tiny_model()
    before = snapshot(model)
    out = DECODES[decode](model)
    assert out.dtype == np.float64 and np.isfinite(out).all()
    assert_params_unchanged(model, before)


@pytest.mark.parametrize("decode", sorted(DECODES))
def test_decode_restores_parameters_when_it_raises(decode, monkeypatch):
    model = tiny_model()
    before = snapshot(model)
    calls = []

    def failing_step(x_t, t, z):
        calls.append(t[0])
        if len(calls) == 2:
            raise RuntimeError("step 2 fails")
        return VampDiffModel.predict_x0(model, x_t, t, z)
    monkeypatch.setattr(model, "predict_x0", failing_step)
    with pytest.raises(RuntimeError, match="step 2 fails"):
        DECODES[decode](model)
    assert len(calls) == 2
    assert_params_unchanged(model, before)


def test_wrong_window_length_restores_parameters():
    model = tiny_model()
    before = snapshot(model)
    bad = np.zeros((2, 1, model.config.window_len + 2))
    with pytest.raises(DimensionError):
        reconstruct(model, bad)
    assert_params_unchanged(model, before)


def test_scope_swaps_in_float32_and_turns_off_the_graph():
    model = tiny_model()
    with inference(model):
        assert all(t.data.dtype == np.float32 for t in model.params())
        post = model.encode(model.pseudo.as_batch())
    assert post.mu.data.dtype == np.float32
    assert not post.mu.requires_grad and post.mu.is_leaf()


def test_unet_runs_float32_inside_a_real_decode(monkeypatch):
    model = tiny_model()
    seen = []
    forward = UNet.__call__

    def spy(self, x_t, t, film):
        out = forward(self, x_t, t, film)
        film_dtypes = {p.data.dtype for pair in film for p in pair}
        seen.append((*film_dtypes, out.data.dtype))
        return out
    monkeypatch.setattr(UNet, "__call__", spy)
    generate(model, 2, seed=0)
    reconstruct(model, windows(model, 2), seed=0)
    assert len(seen) == 2 * model.config.ddim_steps
    assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}


def test_loaded_checkpoint_decodes_like_the_model_in_memory(tmp_path):
    """Both decode from the float32 weights the checkpoint stores."""
    model = tiny_model()
    save_model(tmp_path / "model.vdp", model)
    loaded, _ = load_model(tmp_path / "model.vdp")
    x = windows(model, 3)
    for m_out, l_out in ((generate(model, 3, seed=4),
                          generate(loaded, 3, seed=4)),
                         (reconstruct(model, x, seed=4),
                          reconstruct(loaded, x, seed=4))):
        assert m_out.tobytes() == l_out.tobytes()
