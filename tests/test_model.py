"""Tests for schedule, encoder, prior, and denoiser components.

Oracles: closed-form Gaussian identities, brute-force numpy densities,
Monte-Carlo statistics, and central finite differences.
"""
import hashlib

import numpy as np
import pytest

from vampdiff.config import MIN_DIFFUSION_STEPS, ConfigError, desk_config
from vampdiff.numcore import Tensor, rsum, scale, square
from vampdiff.model import (
    DiffusionSchedule,
    Encoder,
    LatentPosterior,
    PriorError,
    PseudoInputs,
    ScheduleError,
    UNet,
    VampDiffModel,
    forward_diffuse,
    kl_pooled,
    kl_weight,
    pool,
    pooled_posterior,
    posterior_mean_exact,
    reparameterize,
    sinusoidal_embedding,
    standard_normal_logpdf,
    stratified_init,
    vamp_components,
    vampprior_logpdf,
)
from vampdiff.model.base import ParamModule
from vampdiff.model.prior import _diag_gauss_logpdf
from vampdiff.train import RRNet
from vampdiff import signal as sg


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

class TestSchedule:
    def test_endpoints_scale_with_T(self):
        s100 = DiffusionSchedule(100)
        assert s100.beta(1) == pytest.approx(1e-3)
        assert s100.beta(100) == pytest.approx(0.2)
        s50 = DiffusionSchedule(50)
        assert s50.beta(1) == pytest.approx(2e-3)
        assert s50.beta(50) == pytest.approx(0.4)

    def test_alpha_bar_monotone_and_small_at_T(self):
        for T in (50, 100):
            s = DiffusionSchedule(T)
            bars = [s.alpha_bar(t) for t in range(T + 1)]
            assert bars[0] == 1.0
            assert all(b1 > b2 for b1, b2 in zip(bars, bars[1:]))
            assert bars[-1] < 0.05

    def test_posterior_var_formula(self):
        s = DiffusionSchedule(50)
        for t in (2, 17, 50):
            expect = (1 - s.alpha_bar(t - 1)) * s.beta(t) / (1 - s.alpha_bar(t))
            assert s.posterior_var(t) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ScheduleError):
            s.posterior_var(1)

    def test_kl_identity_matches_gaussian_kl(self):
        """KL between same-variance reverse posteriors centered on two clean
        signals equals w_t * squared distance, exactly."""
        rng = np.random.default_rng(3)
        s = DiffusionSchedule(50)
        for t in (2, 10, 30, 50):
            x0 = rng.normal(size=7)
            x0h = rng.normal(size=7)
            xt = rng.normal(size=7)
            mu_a = posterior_mean_exact(xt, x0, t, s)
            mu_b = posterior_mean_exact(xt, x0h, t, s)
            kl = np.sum((mu_a - mu_b) ** 2) / (2 * s.posterior_var(t))
            ident = kl_weight(t, s) * np.sum((x0 - x0h) ** 2)
            assert kl == pytest.approx(ident, rel=1e-12)

    def test_forward_diffuse_values_and_grad(self):
        rng = np.random.default_rng(5)
        s = DiffusionSchedule(50)
        x0 = Tensor(rng.normal(size=(2, 1, 8)), requires_grad=True)
        eps = Tensor(rng.normal(size=(2, 1, 8)))
        t = 20
        xt = forward_diffuse(x0, t, eps, s)
        ab = s.alpha_bar(t)
        np.testing.assert_allclose(
            xt.data, np.sqrt(ab) * x0.data + np.sqrt(1 - ab) * eps.data,
            rtol=1e-12)
        rsum(xt).backward()
        np.testing.assert_allclose(x0.grad, np.sqrt(ab), rtol=1e-12)

    def test_t_range_checks(self):
        s = DiffusionSchedule(25)
        with pytest.raises(ScheduleError):
            s.beta(0)
        with pytest.raises(ScheduleError):
            s.beta(26)
        assert s.alpha_bar(0) == 1.0

    def test_shortest_schedule_is_the_config_bound(self):
        # beta_T = 20 / T must stay below 1
        assert DiffusionSchedule(MIN_DIFFUSION_STEPS).beta(
            MIN_DIFFUSION_STEPS) < 1.0
        with pytest.raises(ScheduleError):
            DiffusionSchedule(MIN_DIFFUSION_STEPS - 1)
        with pytest.raises(ConfigError, match="diffusion_steps"):
            desk_config(diffusion_steps=MIN_DIFFUSION_STEPS - 1, ddim_steps=5)


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------

def tiny_encoder(latent=3, widths=(8, 8, 8), seed=0):
    return Encoder(latent, widths=widths, groups=2,
                   rng=np.random.default_rng(seed))


class TestEncoder:
    def test_output_shapes(self):
        enc = tiny_encoder()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 32)))
        post = enc(x)
        assert post.mu.shape == (2, 3, 8)
        assert post.logvar.shape == (2, 3, 8)

    def test_zero_heads_give_standard_posterior(self):
        enc = tiny_encoder()
        enc._params["head_mu.kernel"].data[:] = 0
        enc._params["head_logvar.kernel"].data[:] = 0
        post = enc(Tensor(np.random.default_rng(1).normal(size=(1, 1, 16))))
        np.testing.assert_array_equal(post.mu.data, 0.0)
        np.testing.assert_array_equal(post.logvar.data, 0.0)

    def test_logvar_clamped(self):
        enc = tiny_encoder()
        enc._params["head_logvar.kernel"].data[:] = 0
        enc._params["head_logvar.bias"].data[:] = 100.0
        post = enc(Tensor(np.random.default_rng(1).normal(size=(1, 1, 16))))
        np.testing.assert_array_equal(post.logvar.data, 10.0)

    def test_gradients_reach_first_conv(self):
        enc = tiny_encoder()
        post = enc(Tensor(np.random.default_rng(2).normal(size=(2, 1, 16))))
        rsum(square(post.mu)).backward()
        g = enc._params["conv1.kernel"].grad
        assert g is not None and np.abs(g).max() > 0

    def test_reparameterize_zero_noise_is_mean(self):
        mu = Tensor(np.arange(6.0).reshape(1, 2, 3))
        lv = Tensor(np.zeros((1, 2, 3)))
        z = reparameterize(LatentPosterior(mu, lv), Tensor(np.zeros((1, 2, 3))))
        np.testing.assert_array_equal(z.data, mu.data)

    def test_reparameterize_moments(self):
        rng = np.random.default_rng(7)
        mu = Tensor(np.array([[[1.5, -2.0]]]))
        lv = Tensor(np.array([[[np.log(4.0), np.log(0.25)]]]))
        post = LatentPosterior(mu, lv)
        draws = np.stack([
            reparameterize(post, Tensor(rng.standard_normal((1, 1, 2)))).data
            for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0).ravel(), [1.5, -2.0],
                                   atol=0.05)
        np.testing.assert_allclose(draws.var(axis=0).ravel(), [4.0, 0.25],
                                   rtol=0.05)

    def test_pool_values_and_identity(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_array_equal(pool(x, 2).data, [[[1.5, 3.5]]])
        assert pool(x, 4) is x

    def test_pool_backward_spreads_uniformly(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 4), requires_grad=True)
        rsum(pool(x, 2)).backward()
        np.testing.assert_allclose(x.grad, 0.5)


# ----------------------------------------------------------------------
# prior
# ----------------------------------------------------------------------

def gauss_logpdf_np(z, mu, var):
    return -0.5 * np.sum(np.log(2 * np.pi * var) + (z - mu) ** 2 / var)


class TestPrior:
    def test_pooled_posterior_modes(self):
        mu = Tensor(np.array([[[1.0, 3.0, 5.0, 7.0]]]))
        lv = Tensor(np.log(np.array([[[1.0, 3.0, 2.0, 6.0]]])))
        post = LatentPosterior(mu, lv)
        m, v = pooled_posterior(post, 2, "direct")
        np.testing.assert_allclose(m.data, [[[2.0, 6.0]]])
        np.testing.assert_allclose(v.data, [[[2.0, 4.0]]])
        _, v2 = pooled_posterior(post, 2, "pushforward")
        np.testing.assert_allclose(v2.data, [[[1.0, 2.0]]])
        with pytest.raises(PriorError):
            pooled_posterior(post, 2, "nope")

    def test_diag_gauss_logpdf_oracle(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(2, 3, 4))
        mu = rng.normal(size=(2, 3, 4))
        var = rng.uniform(0.2, 2.0, size=(2, 3, 4))
        got = _diag_gauss_logpdf(Tensor(z), Tensor(mu), Tensor(var))
        want = [gauss_logpdf_np(z[b], mu[b], var[b]) for b in range(2)]
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_standard_normal_logpdf_oracle(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(3, 2, 5))
        got = standard_normal_logpdf(Tensor(z))
        want = [gauss_logpdf_np(z[b], 0.0, 1.0) for b in range(3)]
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_vampprior_matches_bruteforce_mixture(self):
        rng = np.random.default_rng(13)
        enc = tiny_encoder(latent=2)
        pseudo = PseudoInputs(3, 16, rng=np.random.default_rng(14))
        z = Tensor(rng.normal(size=(4, 2, 2)))
        got = vampprior_logpdf(z, pseudo, enc, pooled_len=2)
        mu_k, var_k = vamp_components(pseudo, enc, 2)
        want = np.empty(4)
        for b in range(4):
            comps = [gauss_logpdf_np(z.data[b], mu_k.data[k], var_k.data[k])
                     for k in range(3)]
            want[b] = np.log(np.mean(np.exp(comps)))
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_vampprior_single_component_is_plain_gaussian(self):
        rng = np.random.default_rng(15)
        enc = tiny_encoder(latent=2)
        pseudo = PseudoInputs(1, 16, rng=np.random.default_rng(16))
        z = Tensor(rng.normal(size=(2, 2, 2)))
        got = vampprior_logpdf(z, pseudo, enc, pooled_len=2)
        mu_k, var_k = vamp_components(pseudo, enc, 2)
        want = [gauss_logpdf_np(z.data[b], mu_k.data[0], var_k.data[0])
                for b in range(2)]
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_kl_standard_prior_self_is_zero(self):
        """q == N(0, I) pooled at full resolution makes every MC term vanish."""
        mu = Tensor(np.zeros((2, 3, 4)))
        lv = Tensor(np.zeros((2, 3, 4)))
        post = LatentPosterior(mu, lv)
        kl = kl_pooled(post, None, None, None, pooled_len=4, mc_samples=5,
                       rng=np.random.default_rng(0), prior_kind="standard")
        assert kl.data == pytest.approx(0.0, abs=1e-12)

    def test_kl_standard_prior_matches_closed_form(self):
        rng = np.random.default_rng(21)
        mu = rng.normal(size=(2, 3, 4)) * 0.7
        lv = rng.uniform(-1.0, 0.7, size=(2, 3, 4))
        post = LatentPosterior(Tensor(mu), Tensor(lv))
        var = np.exp(lv)
        closed = 0.5 * np.sum(var + mu ** 2 - 1 - lv, axis=(1, 2)).mean()
        est = kl_pooled(post, None, None, None, pooled_len=4,
                        mc_samples=20000, rng=np.random.default_rng(22),
                        prior_kind="standard")
        assert est.data == pytest.approx(closed, abs=0.15)

    def test_kl_vamp_gradients_reach_pseudo_inputs(self):
        rng = np.random.default_rng(23)
        enc = tiny_encoder(latent=2)
        pseudo = PseudoInputs(3, 16, rng=np.random.default_rng(24))
        mu = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        lv = Tensor(np.zeros((2, 2, 4)))
        post = LatentPosterior(mu, lv)
        z = reparameterize(post, Tensor(rng.standard_normal((2, 2, 4))))
        kl = kl_pooled(post, z, pseudo, enc, pooled_len=2)
        kl.backward()
        assert np.abs(pseudo.u.grad).max() > 0
        assert np.abs(mu.grad).max() > 0

    def test_stratified_init_picks_real_windows_across_strata(self):
        fs, dur = 75.0, 10.24
        windows = []
        rng = np.random.default_rng(31)
        for i in range(24):
            hr = 60.0 + 80.0 * (i % 6) / 5.0
            amp = 0.5 if i % 2 == 0 else 3.0
            x = sg.synth_ppg(fs=fs, duration_s=dur, hr_bpm=hr, rr_bpm=15.0,
                             amp=amp, seed=int(rng.integers(1 << 30)))
            windows.append(sg.SignalWindow(x, fs))
        cfg = desk_config()
        u = stratified_init(4, windows, cfg.band, cfg.peak_params)
        assert u.shape == (4, windows[0].samples.size)
        train = {w.samples.tobytes() for w in windows}
        assert all(row.tobytes() in train for row in u)
        ptps = sorted(np.ptp(row) for row in u)
        assert ptps[0] < 1.5 < ptps[-1]  # both amplitude strata present

    def test_stratified_init_requires_enough_windows(self):
        x = sg.synth_ppg(fs=75.0, duration_s=10.24, hr_bpm=80.0, rr_bpm=15.0)
        w = sg.SignalWindow(x, 75.0)
        cfg = desk_config()
        with pytest.raises(PriorError):
            stratified_init(3, [w, w], cfg.band, cfg.peak_params)


# ----------------------------------------------------------------------
# denoiser
# ----------------------------------------------------------------------

def tiny_unet(seed=0):
    return UNet(3, channels=(4, 4, 4), time_dim=8, groups=2,
                rng=np.random.default_rng(seed))


class TestUNet:
    def test_sinusoidal_embedding(self):
        e = sinusoidal_embedding(np.array([0.0, 1.0]), 8)
        assert e.shape == (2, 8)
        np.testing.assert_allclose(e[0, :4], 0.0)
        np.testing.assert_allclose(e[0, 4:], 1.0)
        assert e[1, 0] == pytest.approx(np.sin(1.0))

    def test_output_shape_matches_input(self):
        net = tiny_unet()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 16)))
        z = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        out = net(x, np.array([3, 7]), z)
        assert out.shape == (2, 1, 16)

    def test_deterministic(self):
        net = tiny_unet()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 16)))
        z = Tensor(np.random.default_rng(1).normal(size=(1, 3, 4)))
        a = net(x, np.array([5]), z).data
        b = net(x, np.array([5]), z).data
        np.testing.assert_array_equal(a, b)

    def test_sensitive_to_latent_and_time(self):
        net = tiny_unet()
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 1, 16)))
        z1 = Tensor(rng.normal(size=(1, 3, 4)))
        z2 = Tensor(rng.normal(size=(1, 3, 4)))
        base = net(x, np.array([5]), z1).data
        assert np.abs(net(x, np.array([5]), z2).data - base).max() > 1e-8
        assert np.abs(net(x, np.array([9]), z1).data - base).max() > 1e-8

    def test_gradients_reach_all_parameter_families(self):
        net = tiny_unet()
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 1, 16)))
        z = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = net(x, np.array([4, 11]), z)
        rsum(square(out)).backward()
        for name in ("in_conv.kernel", "film0.kernel", "film2.bias",
                     "temb.fc1.weight", "res2d0.conv_a.kernel",
                     "res0u1.conv_b.kernel", "down1.kernel", "up0.kernel",
                     "out_conv.kernel", "out_gn.gamma"):
            g = net._params[name].grad
            assert g is not None and np.abs(g).max() > 0, name
        assert z.grad is not None and np.abs(z.grad).max() > 0

    def test_finite_difference_spot_check(self):
        """Central differences on a handful of parameter entries."""
        net = tiny_unet(seed=4)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 16)))
        z = Tensor(rng.normal(size=(1, 3, 4)))
        t = np.array([6])

        def loss_value():
            return 0.5 * np.sum(net(x, t, z).data ** 2)

        out = net(x, t, z)
        scale(rsum(square(out)), 0.5).backward()
        h = 1e-5
        for name in ("film1.kernel", "down0.kernel", "temb.fc2.weight",
                     "res0d0.conv_b.kernel"):
            p = net._params[name]
            flat = p.data.reshape(-1)
            idx = rng.choice(flat.size, size=3, replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                hi = loss_value()
                flat[i] = orig - h
                lo = loss_value()
                flat[i] = orig
                num = (hi - lo) / (2 * h)
                ana = p.grad.reshape(-1)[i]
                denom = max(abs(num), abs(ana), 1e-7)
                assert abs(num - ana) / denom < 1e-4, (name, i)

    def test_film_bias_initialization(self):
        net = tiny_unet()
        b = net._params["film0.bias"].data
        np.testing.assert_array_equal(b[:4], 1.0)
        np.testing.assert_array_equal(b[4:], 0.0)


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------

def param_layout(module):
    """(count, digest of the ordered "name shape" lines, digest of the
    float64 values) over ``module.named_params()``."""
    names, values = hashlib.sha256(), hashlib.sha256()
    n = 0
    for name, t in module.named_params():
        n += 1
        names.update(f"{name} {t.shape}\n".encode())
        values.update(t.data.astype("<f8").tobytes())
    return n, names.hexdigest()[:16], values.hexdigest()[:16]


class TestLayers:
    def test_parameter_layout_and_init_are_pinned(self):
        # checkpoint array names, their order (clip_global_norm sums in it)
        # and every init draw; a change here changes checkpoint bytes
        model = VampDiffModel(desk_config(), rng=np.random.default_rng(3))
        assert param_layout(model) == (141, "fa96abe0765178f1",
                                       "346dc284dfef9064")
        rr = RRNet.from_config(desk_config(), rng=np.random.default_rng(4))
        assert param_layout(rr) == (22, "2b136ccfdee5d5d8",
                                    "cfad3ab2d3c7a85b")

    @pytest.mark.parametrize("k", [1, 3, 5, 11])
    @pytest.mark.parametrize("dilation", [1, 2, 8])
    def test_conv_keeps_length(self, k, dilation):
        m = ParamModule()
        m.add_conv("c", np.random.default_rng(0), 2, 3, k)
        assert [n for n, _ in m.named_params()] == ["c.kernel", "c.bias"]
        for L in (1, 7, 16, 33):
            x = Tensor(np.random.default_rng(L).normal(size=(2, 2, L)))
            assert m.conv("c", x, dilation=dilation).shape == (2, 3, L)
            assert m.conv("c", x, stride=2, dilation=dilation).shape == (
                2, 3, -(-L // 2))


# ----------------------------------------------------------------------
# assembled model
# ----------------------------------------------------------------------

class TestVampDiffModel:
    def test_shapes_and_param_groups(self):
        cfg = desk_config()
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, cfg.window_len)))
        post = model.encode(x)
        assert post.mu.shape == (1, cfg.latent_channels, cfg.latent_len)
        z = reparameterize(post, Tensor(np.zeros(post.mu.shape)))
        out = model.predict_x0(x, np.array([10]), model.condition(z))
        assert out.shape == (1, 1, cfg.window_len)
        groups = model.param_groups()
        ids = [id(p) for ps in groups.values() for p in ps]
        assert len(ids) == len(set(ids))
        assert len(ids) == len(model.params())

    def test_predict_x0_gradient_reaches_encoder_through_latent(self):
        cfg = desk_config(width_factor=0.0625)
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(
            size=(1, 1, cfg.window_len)))
        post = model.encode(x)
        z = reparameterize(post, Tensor(np.zeros(post.mu.shape)))
        out = model.predict_x0(x, np.array([10]), model.condition(z))
        rsum(square(out)).backward()
        enc_grads = [p.grad for p in model.encoder.params()]
        assert any(g is not None and np.abs(g).max() > 0 for g in enc_grads)

    def test_untrained_reconstruct_is_finite_and_shaped(self):
        from vampdiff.model import reconstruct

        cfg = desk_config(width_factor=0.0625, ddim_steps=5)
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        model.norm_stats = sg.NormStats(0.0, 1.0)
        x = np.random.default_rng(2).normal(size=(2, 1, cfg.window_len))
        out = reconstruct(model, x, seed=0)
        assert out.shape == (2, 1, cfg.window_len)
        assert np.isfinite(out).all()
