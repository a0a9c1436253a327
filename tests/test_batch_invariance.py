"""A window's decode depends only on its latent and its terminal noise, not
on the rows that share its DDIM batch, so ``sampler.BATCH`` bounds memory
and changes no output byte; and conditioning each chunk once gives the
bytes of conditioning at every DDIM step. Checked on a real (randomly
initialized) model, where float32 GEMMs over different row counts would
round apart."""
import numpy as np
import pytest

from vampdiff import evaluation as ev
from vampdiff import signal as sg
from vampdiff.config import desk_config
from vampdiff.model import (
    UNet,
    VampDiffModel,
    generate,
    interpolate_latent,
    reconstruct,
    sampler,
)
from vampdiff.model.sampler import decode_shared_noise
from vampdiff.numcore import DimensionError, Tensor, no_grad

N = 20  # crosses a batch boundary at BATCH = 3 and at BATCH = 16


def tiny_model(condition_on_pooled=False):
    cfg = desk_config(window_len=64, latent_len=16, latent_channels=4,
                      pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                      ddim_steps=4, condition_on_pooled=condition_on_pooled)
    model = VampDiffModel(cfg, rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.5, 2.0)
    return model


@pytest.fixture(scope="module")
def model():
    return tiny_model()


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
    """Record the rows of every ``ddim_sample`` call."""
    batches = []
    ddim = sampler.ddim_sample

    def spy(predict, sched, cond, x_T, steps):
        batches.append(x_T.shape[0])
        return ddim(predict, sched, cond, x_T, steps)
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
        cond = model.condition(z)
        shared = model.unet(x_t, np.array([7]), cond).data
        per_row = model.unet(x_t, np.full(3, 7), cond).data
    np.testing.assert_allclose(shared, per_row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [[7, 7], []])
def test_unet_rejects_t_of_another_length(model, t):
    x_t, z = Tensor(windows(model, 3)), latents(model, 3)
    with no_grad(), pytest.raises(DimensionError,
                                  match=f"t has {len(t)} entries"):
        model.unet(x_t, np.array(t, dtype=int), model.condition(z))


def narrow_level0(cond):
    (gamma, beta), *rest = cond
    return ((Tensor(gamma.data[:, 1:]), Tensor(beta.data[:, 1:])), *rest)


MISMATCHED = {  # conditioning that does not fit 3 rows of length 64
    "batch": lambda m: m.condition(latents(m, 1)),
    "channels": lambda m: narrow_level0(m.condition(latents(m, 3))),
    "lengths": lambda m: m.unet.condition(latents(m, 3), 32),
}


@pytest.mark.parametrize("kind", sorted(MISMATCHED))
def test_unet_rejects_conditioning_of_another_shape(model, kind):
    x_t = Tensor(windows(model, 3))
    with no_grad():
        cond = MISMATCHED[kind](model)
        bad = cond[0][0].shape
        with pytest.raises(DimensionError) as err:
            model.unet(x_t, np.array([7]), cond)
    assert str(bad) in str(err.value)
    assert f"x_t {x_t.shape}" in str(err.value)


def test_unet_conditions_a_bare_latent_itself(model):
    x_t, z = Tensor(windows(model, 3)), latents(model, 3)
    with no_grad():
        bare = model.unet(x_t, np.array([7]), z).data
        cond = model.unet(x_t, np.array([7]),
                          model.unet.condition(z, x_t.shape[2])).data
    assert bare.tobytes() == cond.tobytes()


def test_predict_x0_refuses_a_bare_latent(model):
    x_t, z = Tensor(windows(model, 3)), latents(model, 3)
    with no_grad(), pytest.raises(TypeError, match="model.condition"):
        model.predict_x0(x_t, np.array([7]), z)


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("decode", ["decode_shared_noise", "generate",
                                    "reconstruct"])
def test_conditioning_once_matches_every_step(decode, pooled, monkeypatch):
    """Reference: ``condition`` hands the latent through and every DDIM
    step builds the conditioning anew from it."""
    m = tiny_model(condition_on_pooled=pooled)
    once = DECODES[decode](m)
    monkeypatch.setattr(m, "condition", lambda z: z)
    monkeypatch.setattr(m, "predict_x0", lambda x_t, t, z: (
        VampDiffModel.predict_x0(m, x_t, t, VampDiffModel.condition(m, z))))
    assert DECODES[decode](m).tobytes() == once.tobytes()


def test_film_runs_once_per_decode_chunk(model, monkeypatch):
    levels = []
    film = UNet._film_params

    def spy(self, lvl, z, length):
        levels.append(lvl)
        return film(self, lvl, z, length)
    monkeypatch.setattr(UNet, "_film_params", spy)
    assert sampler.BATCH == 16 and model.config.ddim_steps > 1
    generate(model, N, seed=2)
    assert levels == [0, 1, 2] * 2
