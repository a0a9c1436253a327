"""A window's decode depends only on its latent and its terminal noise, not
on the rows that share its DDIM batch, so ``sampler.BATCH`` bounds memory
and changes no output byte. Checked on a real (randomly initialized)
model, where float32 GEMMs over different row counts would round apart."""
import numpy as np
import pytest

from vampdiff import evaluation as ev
from vampdiff import signal as sg
from vampdiff.config import desk_config
from vampdiff.model import (
    VampDiffModel,
    generate,
    interpolate_latent,
    reconstruct,
    sampler,
)
from vampdiff.model.sampler import decode_shared_noise
from vampdiff.numcore import DimensionError, Tensor, no_grad

N = 20  # crosses a batch boundary at BATCH = 3 and at BATCH = 16


@pytest.fixture(scope="module")
def model():
    cfg = desk_config(window_len=64, latent_len=16, latent_channels=4,
                      pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                      ddim_steps=4)
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.5, 2.0)
    return model


def windows(model, n):
    return np.random.default_rng(1).normal(
        size=(n, 1, model.config.window_len))


def latents(model, n):
    c, t = model.config.latent_channels, model.config.latent_len
    return Tensor(np.random.default_rng(2).normal(size=(n, c, t)).astype(
        np.float32))


DECODES = {
    "generate": lambda m: generate(m, N, seed=2),
    "reconstruct": lambda m: reconstruct(m, windows(m, N), seed=2),
    "interpolate_latent": lambda m: interpolate_latent(
        m, *windows(m, 2)[:, 0], np.linspace(0.0, 1.0, N), seed=2),
    "decode_shared_noise": lambda m: decode_shared_noise(
        m, latents(m, N), seed=2),
}


def spy_batches(monkeypatch):
    """Record the latent rows of every ``ddim_sample`` call."""
    batches = []
    ddim = sampler.ddim_sample

    def spy(predict, sched, z, x_T, steps):
        batches.append(z.shape[0])
        return ddim(predict, sched, z, x_T, steps)
    monkeypatch.setattr(sampler, "ddim_sample", spy)
    return batches


@pytest.mark.parametrize("decode", sorted(DECODES))
def test_decode_bytes_do_not_depend_on_batch(model, decode, monkeypatch):
    outs = {}
    for batch in (1, 3, 16):
        monkeypatch.setattr(sampler, "BATCH", batch)
        outs[batch] = DECODES[decode](model).tobytes()
    assert outs[3] == outs[1]
    assert outs[16] == outs[1]


@pytest.mark.parametrize("decode", ["interpolate_latent",
                                    "decode_shared_noise"])
def test_shared_noise_row_decodes_as_if_alone(model, decode):
    """Each row of a shared-noise decode equals that row decoded alone."""
    if decode == "interpolate_latent":
        pair = windows(model, 2)[:, 0]
        alphas = np.linspace(0.0, 1.0, N)
        full = interpolate_latent(model, *pair, alphas, seed=2)
        alone = [interpolate_latent(model, *pair, alphas[j:j + 1], seed=2)
                 for j in range(N)]
    else:
        z = latents(model, N)
        full = decode_shared_noise(model, z, seed=2)
        alone = [decode_shared_noise(model, Tensor(z.data[j:j + 1]), seed=2)
                 for j in range(N)]
    for j, row in enumerate(alone):
        assert np.array_equal(full[j], row[0]), j


def test_row_keeps_its_bytes_when_the_batch_grows(model):
    """Row 16 decodes alone in the second batch of 17 rows and beside
    row 17 in the second batch of 18."""
    x = windows(model, 18)
    assert sampler.BATCH == 16
    a = reconstruct(model, x[:17], seed=3)
    b = reconstruct(model, x[:18], seed=3)
    assert np.array_equal(a[16], b[16])
    assert np.array_equal(a, b[:17])


def test_interpolation_decodes_batch_rows_at_a_time(model, monkeypatch):
    batches = spy_batches(monkeypatch)
    alphas = np.linspace(0.0, 1.0, sampler.BATCH + 3)
    out = interpolate_latent(model, *windows(model, 2)[:, 0], alphas)
    assert batches == [sampler.BATCH, 3]
    assert out.shape == (sampler.BATCH + 3, 1, model.config.window_len)


def test_sensitivity_ratio_makes_one_two_row_decode(model, monkeypatch):
    batches = spy_batches(monkeypatch)
    ratio = ev.sensitivity_ratio(windows(model, 1)[0, 0], model, seed=4)
    assert batches == [2]
    assert np.isfinite(ratio) and ratio > 0


def test_unet_shared_t_matches_one_t_per_row(model):
    x_t, z = Tensor(windows(model, 3)), latents(model, 3)
    with no_grad():
        shared = model.unet(x_t, np.array([7]), z).data
        per_row = model.unet(x_t, np.full(3, 7), z).data
    np.testing.assert_allclose(shared, per_row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [[7, 7], []])
def test_unet_rejects_t_of_another_length(model, t):
    x_t, z = Tensor(windows(model, 3)), latents(model, 3)
    with no_grad(), pytest.raises(DimensionError,
                                  match=f"t has {len(t)} entries"):
        model.unet(x_t, np.array(t, dtype=int), z)
