"""Acceptance gates.

Criteria 1-6, 8, 9 are oracle/property checks that run in seconds to a
few minutes. Criterion 7 trains a desk-profile model on a synthetic
dataset end-to-end (several minutes of CPU) and checks reconstruction,
generation, latent-sensitivity, corruption-detection, and interpolation
trends; one PASS line is printed per sub-criterion.
"""
import subprocess
import sys

import numpy as np
import pytest

from gradcheck import check_grads

from vampdiff import evaluation as ev
from vampdiff import signal as sg
from vampdiff.checkpoint import load_checkpoint, load_model, save_checkpoint
from vampdiff.cli import (
    load_windows,
    main as cli_main,
    make_corruption_benchmark,
    norm_stats_of,
    synth_dataset,
)
from vampdiff.config import desk_config
from vampdiff.losses import (
    amp_loss,
    deriv_loss,
    diffusion_loss,
    ptp_loss,
    smooth_l1,
    spectral_loss,
)
from vampdiff.model import (
    DiffusionSchedule,
    Encoder,
    LatentPosterior,
    PseudoInputs,
    VampDiffModel,
    ddim_sample,
    forward_diffuse,
    kl_pooled,
    kl_weight,
    posterior_mean_exact,
    reparameterize,
    vamp_components,
    vampprior_logpdf,
)
from vampdiff.model import generate as model_generate
from vampdiff.numcore import (
    Tensor,
    add,
    conv1d,
    exp,
    groupnorm,
    huber,
    linear,
    log,
    log1p,
    rdft,
    resample_linear,
    rmax,
    rmean,
    rmin,
    rstd,
    rsum,
    silu,
    sqrt,
    square,
)
from vampdiff.train import fit, make_optimizer, train_step


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ----------------------------------------------------------------------
# 1. gradient suite
# ----------------------------------------------------------------------

class TestCriterion1Gradients:
    N_CASES = 50

    def test_elementwise_ops(self):
        rng = np.random.default_rng(10)
        specs = [
            (silu, lambda x: x), (exp, lambda x: x),
            (log, lambda x: np.abs(x) + 0.5),
            (log1p, lambda x: np.abs(x)),
            (square, lambda x: x), (sqrt, lambda x: np.abs(x) + 0.5),
            (huber, lambda x: x),
        ]
        for fn, dom in specs:
            for _ in range(self.N_CASES):
                x = Tensor(dom(rng.normal(size=(3, 4))), requires_grad=True)
                check_grads(lambda a: rsum(fn(a)), [x])
        report("1 elementwise gradients: PASS")

    def test_reductions(self):
        rng = np.random.default_rng(11)
        for op in (rsum, rmean, rmax, rmin, rstd):
            for _ in range(self.N_CASES):
                x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
                check_grads(lambda a: rsum(square(op(a, axes=1))), [x])
        report("1 reduction gradients: PASS")

    def test_linear_and_conv(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N_CASES):
            x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True)
            check_grads(lambda a, ww, bb: rsum(square(linear(a, ww, bb))),
                        [x, w, b])
        for _ in range(self.N_CASES):
            stride = int(rng.integers(1, 3))
            dil = int(rng.integers(1, 3))
            x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
            k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            check_grads(
                lambda a, kk, bb: rsum(square(conv1d(
                    a, kk, bb, stride=stride, dilation=dil, padding=2))),
                [x, k, b])
        report("1 linear/conv1d gradients: PASS")

    def test_groupnorm_rdft_resample(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_CASES):
            x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
            g = Tensor(rng.normal(size=4) + 1.5, requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            check_grads(
                lambda a, gg, bb: rsum(square(groupnorm(a, 2, gg, bb))),
                [x, g, b], rel_tol=1e-3)
        for _ in range(self.N_CASES):
            x = Tensor(rng.normal(size=(2, 1, 16)), requires_grad=True)

            def logmag(a):
                re, im = rdft(a)
                return rsum(log1p(sqrt(add(add(square(re), square(im)),
                                           Tensor(np.full((1, 1, 1),
                                                          1e-12))))))
            check_grads(logmag, [x], rel_tol=1e-3)
        for _ in range(self.N_CASES):
            x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
            t_out = int(rng.choice([4, 6, 8, 12]))
            check_grads(lambda a: rsum(square(resample_linear(a, t_out))),
                        [x])
        report("1 groupnorm/rdft/resample gradients: PASS")

    def test_morphology_losses(self):
        rng = np.random.default_rng(14)
        for fn in (smooth_l1, spectral_loss, deriv_loss, amp_loss, ptp_loss):
            for _ in range(self.N_CASES):
                pred = Tensor(rng.normal(size=(2, 1, 10)) * 2,
                              requires_grad=True)
                tgt = Tensor(rng.normal(size=(2, 1, 10)))
                out = fn(pred, tgt)
                out.backward()
                ana = pred.grad.copy()
                # central differences at a few coordinates (max/min based
                # losses are piecewise; random points are smooth a.s.)
                h = 1e-6
                for idx in rng.choice(20, size=4, replace=False):
                    flat = pred.data.reshape(-1)
                    orig = flat[idx]
                    flat[idx] = orig + h
                    hi = float(fn(Tensor(pred.data), tgt).data)
                    flat[idx] = orig - h
                    lo = float(fn(Tensor(pred.data), tgt).data)
                    flat[idx] = orig
                    num = (hi - lo) / (2 * h)
                    # floor absorbs central-difference roundoff (~1e-4/h
                    # of machine eps) on coordinates with zero gradient
                    denom = max(abs(num), abs(ana.reshape(-1)[idx]), 1e-3)
                    assert abs(num - ana.reshape(-1)[idx]) / denom < 1e-3
        report("1 morphology-loss gradients: PASS")

    def test_kl_pooled_path(self):
        rng = np.random.default_rng(15)
        enc = Encoder(2, widths=(4, 4, 4), groups=2,
                      rng=np.random.default_rng(0))
        pseudo = PseudoInputs(2, 16, rng=np.random.default_rng(1))
        for trial in range(5):
            mu = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
            lv = Tensor(rng.normal(size=(2, 2, 4)) * 0.3, requires_grad=True)
            noise = Tensor(rng.standard_normal((2, 2, 4)))

            def kl_fn(m, l):
                post = LatentPosterior(m, l)
                z = reparameterize(post, noise)
                return kl_pooled(post, z, pseudo, enc, pooled_len=2)
            check_grads(kl_fn, [mu, lv], rel_tol=1e-3)
        report("1 kl_pooled gradients: PASS")


# ----------------------------------------------------------------------
# 2-5. closed-form identities and sampler contracts
# ----------------------------------------------------------------------

class TestCriterion2KLIdentity:
    def test_identity_all_t(self):
        rng = np.random.default_rng(20)
        sched = DiffusionSchedule(50)
        worst = 0.0
        for _ in range(100):
            x0 = rng.normal(size=7)
            x0h = rng.normal(size=7)
            xt = rng.normal(size=7)
            for t in range(2, sched.T + 1):
                var = sched.posterior_var(t)
                mu_a = posterior_mean_exact(xt, x0, t, sched)
                mu_b = posterior_mean_exact(xt, x0h, t, sched)
                kl = np.sum((mu_a - mu_b) ** 2) / (2 * var)
                ident = kl_weight(t, sched) * np.sum((x0 - x0h) ** 2)
                worst = max(worst, abs(kl - ident) / max(abs(kl), 1.0))
        assert worst < 1e-10
        report(f"2 reverse-posterior KL identity worst rel err "
               f"{worst:.2e}: PASS")


class TestCriterion3ForwardMarginal:
    def test_moments(self):
        sched = DiffusionSchedule(50)
        rng = np.random.default_rng(30)
        n = 100_000
        x0_val = 0.7
        for t in (1, 25, 50):
            ab = sched.alpha_bar(t)
            eps = rng.standard_normal(n)
            x0 = Tensor(np.full((n, 1, 1), x0_val))
            xt = forward_diffuse(x0, t, Tensor(eps.reshape(n, 1, 1)),
                                 sched).data.ravel()
            want_mean = np.sqrt(ab) * x0_val
            want_var = 1.0 - ab
            se_mean = np.sqrt(want_var / n)
            se_var = want_var * np.sqrt(2.0 / (n - 1))
            assert abs(xt.mean() - want_mean) < 3 * se_mean, t
            assert abs(xt.var() - want_var) < 3 * se_var, t
        report("3 forward-process marginal moments within 3 SE: PASS")


class TestCriterion4VampOracle:
    def test_k1_closed_form(self):
        """K=1 KL against the diagonal-Gaussian closed form at 1e5 draws."""
        rng = np.random.default_rng(40)
        enc = Encoder(2, widths=(4, 4, 4), groups=2,
                      rng=np.random.default_rng(2))
        pseudo = PseudoInputs(1, 16, rng=np.random.default_rng(3))
        mu = Tensor(rng.normal(size=(1, 2, 4)) * 0.5)
        lv = Tensor(rng.uniform(-0.8, 0.5, size=(1, 2, 4)))
        post = LatentPosterior(mu, lv)
        mu_k, var_k = vamp_components(pseudo, enc, 4)
        mq, vq = mu.data[0], np.exp(lv.data[0])
        mp, vp = mu_k.data[0], var_k.data[0]
        closed = 0.5 * np.sum(vq / vp + (mp - mq) ** 2 / vp - 1
                              + np.log(vp) - np.log(vq))
        n = 100_000
        # per-sample KL integrand statistics for the standard-error bound
        zrng = np.random.default_rng(41)
        z = mq + np.sqrt(vq) * zrng.standard_normal((n,) + mq.shape)
        logq = -0.5 * np.sum(np.log(2 * np.pi * vq) + (z - mq) ** 2 / vq,
                             axis=(1, 2))
        logp = -0.5 * np.sum(np.log(2 * np.pi * vp) + (z - mp) ** 2 / vp,
                             axis=(1, 2))
        diffs = logq - logp
        est = kl_pooled(post, None, pseudo, enc, pooled_len=4,
                        mc_samples=2000, rng=np.random.default_rng(42)).data
        se = diffs.std() / np.sqrt(2000)
        assert abs(float(est) - closed) < 3 * se + 1e-9
        # and the direct numpy 1e5-sample estimate agrees too
        assert abs(diffs.mean() - closed) < 3 * diffs.std() / np.sqrt(n)
        report("4 K=1 pooled KL matches closed form within 3 SE: PASS")

    def test_mixture_direct_sum(self):
        rng = np.random.default_rng(43)
        enc = Encoder(2, widths=(4, 4, 4), groups=2,
                      rng=np.random.default_rng(4))
        pseudo = PseudoInputs(5, 16, rng=np.random.default_rng(5))
        z = Tensor(rng.normal(size=(6, 2, 4)))
        got = vampprior_logpdf(z, pseudo, enc, pooled_len=4)
        mu_k, var_k = vamp_components(pseudo, enc, 4)
        for b in range(6):
            comps = [
                -0.5 * np.sum(np.log(2 * np.pi * var_k.data[k])
                              + (z.data[b] - mu_k.data[k]) ** 2
                              / var_k.data[k])
                for k in range(5)]
            want = np.log(np.mean(np.exp(comps)))
            assert abs(got.data[b] - want) < 1e-10
        report("4 mixture log-density matches direct summation: PASS")

    def test_k4_nonnegativity(self):
        rng = np.random.default_rng(44)
        enc = Encoder(2, widths=(4, 4, 4), groups=2,
                      rng=np.random.default_rng(6))
        pseudo = PseudoInputs(4, 16, rng=np.random.default_rng(7))
        mu = Tensor(rng.normal(size=(1, 2, 4)) * 0.5)
        lv = Tensor(rng.uniform(-0.5, 0.5, size=(1, 2, 4)))
        post = LatentPosterior(mu, lv)
        n = 10_000
        est = kl_pooled(post, None, pseudo, enc, pooled_len=4,
                        mc_samples=n, rng=np.random.default_rng(45)).data
        # conservative SE bound from a smaller pilot
        pilot = [kl_pooled(post, None, pseudo, enc, pooled_len=4,
                           mc_samples=1,
                           rng=np.random.default_rng(100 + i)).data
                 for i in range(200)]
        se = np.std(pilot) / np.sqrt(n)
        assert float(est) >= -5 * se
        report("4 K=4 mixture KL nonnegative within MC error: PASS")


class TestCriterion5DDIM:
    def test_contracts(self):
        sched = DiffusionSchedule(50)
        rng = np.random.default_rng(50)
        const = rng.normal(size=(1, 1, 8))

        def predict_const(x_t, t, z):
            return Tensor(const.copy())

        x_T = rng.normal(size=(1, 1, 8))
        one = ddim_sample(predict_const, sched, None, x_T, 1)
        np.testing.assert_array_equal(one, const)
        for n_steps in (7, 25, 50):
            out = ddim_sample(predict_const, sched, None, x_T, n_steps)
            np.testing.assert_allclose(out, const, atol=1e-12)
        A = rng.normal(size=(8, 8)) * 0.1

        def predict_lin(x_t, t, z):
            return Tensor(x_t.data @ A)

        a = ddim_sample(predict_lin, sched, None, x_T, 25)
        b = ddim_sample(predict_lin, sched, None, x_T.copy(), 25)
        np.testing.assert_array_equal(a, b)
        report("5 DDIM single-step / fixed-point / determinism: PASS")


# ----------------------------------------------------------------------
# 6. signal and metric oracles
# ----------------------------------------------------------------------

class TestCriterion6Oracles:
    def test_peaks_and_hr_exact(self):
        fs = 100.0
        x = np.zeros(400)
        x[[50, 150, 250, 350]] = 1.0
        w = sg.SignalWindow(x, fs)
        peaks = sg.detect_peaks(w, 0.35, 0.1, 60.0)
        np.testing.assert_array_equal(peaks, [50, 150, 250, 350])
        hr, ibi = sg.estimate_hr(peaks, fs)
        assert hr == pytest.approx(60.0) and ibi == pytest.approx(1.0)
        report("6 peak detector and HR exact on impulse trains: PASS")

    def test_metric_bruteforce(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            a = rng.integers(0, 8, size=n).astype(float)
            b = rng.integers(0, 8, size=int(rng.integers(2, 50))).astype(
                float)
            pooled = np.concatenate([a, b])
            brute = max(abs((a <= p).mean() - (b <= p).mean())
                        for p in pooled)
            assert ev.ks_statistic(a, b) == pytest.approx(brute, abs=1e-12)
            y = rng.integers(0, 2, size=n)
            if 0 < y.sum() < n:
                pos = a[y == 1]
                neg = a[y == 0]
                pairs = sum(1.0 if p > q else 0.5 if p == q else 0.0
                            for p in pos for q in neg)
                assert ev.auroc(a, y) == pytest.approx(
                    pairs / (len(pos) * len(neg)), abs=1e-12)
            c = rng.normal(size=n)
            d = rng.normal(size=n)
            # brute-force average ranks via pairwise comparison
            ra = np.array([(np.sum(c < v) + (np.sum(c == v) + 1) / 2)
                           for v in c])
            rb = np.array([(np.sum(d < v) + (np.sum(d == v) + 1) / 2)
                           for v in d])
            want = ev.pearson(ra, rb)
            assert ev.spearman(c, d) == pytest.approx(want, abs=1e-12)
        report("6 KS/AUROC/Spearman match brute force: PASS")


# ----------------------------------------------------------------------
# 7. desk-scale end-to-end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg = desk_config()
    synth_dataset(cfg, root / "data", n_patients=12, seed=0)
    # train in a subprocess so its working memory is returned to the OS
    # before the evaluation phase of the suite
    proc = subprocess.run(
        [sys.executable, "-m", "vampdiff.cli", "train",
         "--data", str(root / "data"), "--out", str(root / "run")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    model, _ = load_model(root / "run" / "model.vdp")
    train_w, _ = load_windows(root / "data" / "train", cfg)
    test_w, _ = load_windows(root / "data" / "test", cfg)
    stats = norm_stats_of(train_w)
    return {"cfg": cfg, "model": model, "root": root, "train_w": train_w,
            "test_w": test_w, "stats": stats}


class TestCriterion7DeskEndToEnd:
    def test_a_reconstruction(self, desk):
        rep = ev.reconstruction_report(desk["model"], desk["test_w"], seed=0)
        agg = rep.aggregate()
        report(f"7a held-out Pearson {agg['pearson_r_mean']:.4f} (> 0.95), "
               f"HR err {agg['hr_err_mean']:.2f} bpm (< 5): "
               f"{'PASS' if agg['pearson_r_mean'] > 0.95 else 'FAIL'}")
        assert agg["pearson_r_mean"] > 0.95
        assert agg["hr_err_mean"] < 5.0

    def test_bc_generation(self, desk):
        gen = ev.generation_report(desk["model"], 200, desk["train_w"],
                                   seed=0)
        desk["gen"] = gen
        report(f"7b peak fraction {gen.peak_fraction:.3f} (>= 0.8): "
               f"{'PASS' if gen.peak_fraction >= 0.8 else 'FAIL'}")
        report(f"7c HR gap {gen.hr_gap:.2f} bpm (< 15): "
               f"{'PASS' if gen.hr_gap < 15 else 'FAIL'}")
        assert gen.peak_fraction >= 0.8
        assert gen.hr_gap is not None and gen.hr_gap < 15.0

    def test_d_latent_sensitivity(self, desk):
        stats = desk["stats"]
        rhos = []
        for i, w in enumerate(desk["test_w"][:5]):
            xn = (w.samples - stats.mu_train) / stats.sigma_train
            rhos.append(ev.sensitivity_ratio(xn, desk["model"], seed=i))
        rho = float(np.mean(rhos))
        report(f"7d latent sensitivity rho {rho:.3f} (> 0.05): "
               f"{'PASS' if rho > 0.05 else 'FAIL'}")
        assert rho > 0.05

    def test_e_corruption_detection(self, desk):
        model = desk["model"]
        clean = desk["test_w"]
        noise_spec = sg.CorruptionSpec("noise", noise_sigma=0.5)
        corrupted = [("noise", sg.corrupt(w, noise_spec, seed=100 + i))
                     for i, w in enumerate(clean)]
        clean_scores = ev.anomaly_scores(model, clean, seed=0)[0]
        corr_scores = ev.anomaly_scores(model, [w for _, w in corrupted],
                                        seed=1000)[0]
        scores = np.concatenate([clean_scores, corr_scores])
        labels = np.array([0] * len(clean_scores) + [1] * len(corr_scores))
        a = ev.auroc(scores, labels)
        med_ok = np.median(corr_scores) > np.median(clean_scores)
        report(f"7e noise-corruption AUROC {a:.3f} (>= 0.95), corrupted "
               f"median > clean median: "
               f"{'PASS' if a >= 0.95 and med_ok else 'FAIL'}")
        assert a >= 0.95
        assert med_ok

    def test_f_interpolation_endpoints(self, desk):
        cfg = desk["cfg"]
        scored = []
        for w in desk["test_w"]:
            r = ev._hr_of(w, cfg)
            if r is not None:
                scored.append((r[0], w))
        scored.sort(key=lambda p: p[0])
        (hr_lo, lo), (hr_hi, hi) = scored[0], scored[-1]
        sweep = ev.interpolation_sweep(lo, hi, desk["model"],
                                       [0.0, 0.5, 1.0], seed=0)
        d_lo = abs(sweep[0][1] - hr_lo)
        d_hi = abs(sweep[-1][1] - hr_hi)
        report(f"7f interpolation endpoint errors {d_lo:.2f}/{d_hi:.2f} bpm "
               f"(< 10): {'PASS' if max(d_lo, d_hi) < 10 else 'FAIL'}")
        assert d_lo < 10.0 and d_hi < 10.0


# ----------------------------------------------------------------------
# 8. ablation hooks
# ----------------------------------------------------------------------

def _tiny(**overrides):
    base = dict(window_len=64, latent_len=16, latent_channels=4,
                pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                epochs=3, batch_size=2, freeze_epochs=1,
                beta_floor_until=2, beta_ramp_until=3, ddim_steps=5,
                checkpoint_every=10, fs=75.0,
                rr_widths=(4, 4), rr_stem_channels=4, rr_epochs=1)
    base.update(overrides)
    return desk_config(**base)


class TestCriterion8Ablations:
    def test_hooks_run_end_to_end(self):
        x = np.random.default_rng(0).normal(size=(4, 64))
        for flags in ({"kl_beta_zero": True}, {"zero_aux_losses": True},
                      {"prior_kind": "standard"},
                      {"condition_on_pooled": True}):
            cfg = _tiny(**flags)
            model = VampDiffModel(cfg, rng=np.random.default_rng(0))
            model.norm_stats = sg.NormStats(0.0, 1.0)
            hist = fit(model, x)
            assert len(hist) == cfg.epochs
            out = model_generate(model, 2, seed=0)
            assert np.isfinite(out).all()
        report("8 ablation hooks run end-to-end: PASS")

    def test_pooled_conditioning_changes_output(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 64))
        z = np.random.default_rng(2).normal(size=(1, 4, 16))
        outs = []
        for flag in (False, True):
            cfg = _tiny(condition_on_pooled=flag)
            model = VampDiffModel(cfg, rng=np.random.default_rng(3))
            outs.append(model.predict_x0(Tensor(x), np.array([5]),
                                         model.condition(Tensor(z))).data)
        assert np.abs(outs[0] - outs[1]).max() > 0
        report("8 pooled-conditioning ablation alters decoding: PASS")

    def test_beta0_lambda0_equals_pure_diffusion(self):
        cfg = _tiny(kl_beta_zero=True, zero_aux_losses=True)
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        opt = make_optimizer(model, cfg)
        x0 = np.random.default_rng(4).normal(size=(2, 1, 64))
        for epoch in (2, 3):
            rng_replay = np.random.default_rng((99, epoch))
            noise = rng_replay.standard_normal(
                (2, cfg.latent_channels, cfg.latent_len))
            t = rng_replay.integers(1, cfg.diffusion_steps + 1, size=2)
            eps = rng_replay.standard_normal(x0.shape)
            sched = model.schedule
            ab = np.array([sched.alpha_bar(int(ti))
                           for ti in t])[:, None, None]
            x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
            from vampdiff.numcore import no_grad
            with no_grad():
                post = model.encode(Tensor(x0))
                z = reparameterize(post, Tensor(noise))
                x0_hat = model.predict_x0(Tensor(x_t), t,
                                          model.condition(z))
                standalone = float(
                    diffusion_loss(x0_hat, Tensor(x0), t, sched).data)
            br = train_step(model, opt, x0, epoch=epoch,
                            rng=np.random.default_rng((99, epoch)))
            assert abs(br["total"] - standalone) < 1e-12
        report("8 beta=0 + lambda=0 equals standalone diffusion step "
               "to 1e-12: PASS")


# ----------------------------------------------------------------------
# 9. determinism & persistence
# ----------------------------------------------------------------------

class TestCriterion9Determinism:
    def test_training_checkpoints_byte_identical(self, tmp_path):
        cfg = _tiny()
        x = np.random.default_rng(0).normal(size=(4, 64))
        blobs = []
        for run in range(2):
            model = VampDiffModel(cfg, rng=np.random.default_rng(cfg.seed))
            out = tmp_path / f"r{run}"
            fit(model, x, out_dir=out)
            blobs.append((out / "model.vdp").read_bytes())
        assert blobs[0] == blobs[1]
        report("9 identical seeds give byte-identical checkpoints: PASS")

    def test_generation_csv_byte_identical(self, desk, tmp_path):
        ckpt = desk["root"] / "run" / "model.vdp"
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli_main(["generate", "--ckpt", str(ckpt), "--num", "3",
                           "--seed", "11", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report("9 generation CSV byte-identical across runs: PASS")

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = _tiny()
        arrays = {"w": np.random.default_rng(5).normal(size=(4, 3))}
        p1, p2 = tmp_path / "a.vdp", tmp_path / "b.vdp"
        save_checkpoint(p1, cfg, arrays, norm_stats=sg.NormStats(0.1, 2.0),
                        meta={"k": 1})
        c2, a2, n2, m2 = load_checkpoint(p1)
        save_checkpoint(p2, c2, a2, norm_stats=n2, meta=m2)
        assert p1.read_bytes() == p2.read_bytes()
        report("9 checkpoint save-load-save bit-identical: PASS")
