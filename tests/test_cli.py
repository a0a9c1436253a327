"""CLI: CSV ingestion, synthetic datasets, and subcommand behavior."""
import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vampdiff import signal as sg
from vampdiff.checkpoint import save_checkpoint, save_model
from vampdiff.cli import (
    IngestError,
    ingest,
    load_windows,
    main,
    norm_stats_of,
    synth_dataset,
    write_recording_csv,
)
from vampdiff.config import ConfigError, desk_config
from vampdiff.model import VampDiffModel


def tiny_config(**overrides):
    base = dict(window_len=64, latent_len=16, latent_channels=4,
                pooled_len=8, width_factor=0.0625, pseudo_inputs=3,
                epochs=2, batch_size=2, freeze_epochs=1,
                beta_floor_until=2, beta_ramp_until=3, ddim_steps=5,
                checkpoint_every=10, fs=75.0,
                rr_widths=(4, 4), rr_stem_channels=4, rr_epochs=1)
    base.update(overrides)
    return desk_config(**base)


class TestIngest:
    def test_two_row_file_with_config_fs(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ppg\n0.0\n1.0\n")
        recs = ingest(p, fs=75.0)
        assert len(recs) == 1
        np.testing.assert_array_equal(recs[0].ppg, [0.0, 1.0])
        assert recs[0].fs == 75.0 and recs[0].co2 is None

    def test_fs_comment_overrides(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("# fs=50\nppg,co2\n0.5,1.0\n0.6,1.1\n")
        rec = ingest(p)[0]
        assert rec.fs == 50.0
        np.testing.assert_array_equal(rec.co2, [1.0, 1.1])

    def test_missing_ppg_column_names_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo\n1.0\n")
        with pytest.raises(IngestError, match="bad.csv"):
            ingest(p, fs=75.0)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("# fs=75\nppg\n0.0\nnope\n")
        with pytest.raises(IngestError, match=r"a\.csv:4"):
            ingest(p)

    @pytest.mark.parametrize("cells", ["ppg\n0.0\nnan\n",
                                       "ppg,co2\n0.0,1.0\n1.0,inf\n",
                                       "ppg\n0.0\n-inf\n"])
    def test_non_finite_cell_reports_line(self, tmp_path, cells):
        p = tmp_path / "a.csv"
        p.write_text("# fs=75\n" + cells)
        with pytest.raises(IngestError, match=r"a\.csv:4: non-finite cell"):
            ingest(p)

    def test_missing_fs_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ppg\n0.0\n")
        with pytest.raises(IngestError, match="sample rate"):
            ingest(p)

    def test_round_trip_precision(self, tmp_path):
        x = sg.synth_ppg(fs=75.0, duration_s=4.0, hr_bpm=90.0, rr_bpm=15.0,
                         seed=3)
        p = tmp_path / "w.csv"
        write_recording_csv(p, 75.0, x)
        rec = ingest(p)[0]
        assert np.abs(rec.ppg - x).max() < 1e-9


class TestSynthDataset:
    def test_patient_split_and_windows(self, tmp_path):
        cfg = desk_config()
        synth_dataset(cfg, tmp_path, n_patients=6, seed=0)
        for split, count in (("train", 4), ("val", 1), ("test", 1)):
            files = list((tmp_path / split).glob("*.csv"))
            assert len(files) == count, split
        windows, labels = load_windows(tmp_path / "train", cfg)
        assert len(windows) >= 4
        assert all(w.samples.size == cfg.window_len for w in windows)
        assert any(lb is not None for lb in labels)
        stats = norm_stats_of(windows)
        assert stats.sigma_train > 0

    def test_deterministic(self, tmp_path):
        cfg = desk_config()
        synth_dataset(cfg, tmp_path / "a", n_patients=3, seed=5)
        synth_dataset(cfg, tmp_path / "b", n_patients=3, seed=5)
        fa = sorted((tmp_path / "a").rglob("*.csv"))
        fb = sorted((tmp_path / "b").rglob("*.csv"))
        assert [f.read_bytes() for f in fa] == [f.read_bytes() for f in fb]


def edit_manifest(raw: bytes, edit) -> bytes:
    """A checkpoint container whose JSON manifest ``edit`` changed in
    place, with the payload kept."""
    n = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16:16 + n])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + n:]


class TestCommands:
    def make_ckpt(self, tmp_path):
        cfg = tiny_config()
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        model.norm_stats = sg.NormStats(0.0, 1.0)
        path = tmp_path / "model.vdp"
        save_model(path, model, meta={"epoch": 0})
        return path

    def test_generate_byte_deterministic(self, tmp_path):
        ckpt = self.make_ckpt(tmp_path)
        outs = []
        for name in ("g1.csv", "g2.csv"):
            out = tmp_path / name
            rc = main(["generate", "--ckpt", str(ckpt), "--num", "2",
                       "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header.startswith("# fs=") and "seed=7" in header
        assert len(outs[0].decode().splitlines()) == 3

    def test_corrupt_command_identity_clip(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        x = sg.synth_ppg(fs=75.0, duration_s=4.0, hr_bpm=90.0, rr_bpm=15.0,
                         seed=0)
        write_recording_csv(data / "r0.csv", 75.0, x)
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "clip", "clip_fraction": 1.0}')
        out = tmp_path / "out"
        rc = main(["corrupt", "--data", str(data), "--spec", str(spec),
                   "--out", str(out)])
        assert rc == 0
        rec = ingest(out / "r0.csv")[0]
        assert np.abs(rec.ppg - x).max() < 1e-9

    def corrupt_with(self, tmp_path, spec_text):
        data = tmp_path / "data"
        data.mkdir(exist_ok=True)
        x = sg.synth_ppg(fs=75.0, duration_s=4.0, hr_bpm=90.0, rr_bpm=15.0,
                         seed=0)
        write_recording_csv(data / "r0.csv", 75.0, x)
        spec = tmp_path / "spec.json"
        spec.write_text(spec_text)
        out = tmp_path / "out"
        rc = main(["corrupt", "--data", str(data), "--spec", str(spec),
                   "--out", str(out)])
        return rc, spec, out

    @pytest.mark.parametrize("spec_text,needle", [
        ('{"kind": "noise", "sigma": 0.3}', "unknown key 'sigma'"),
        ('[{"kind": "noise"}]', "must be a JSON object"),
        ('{"noise_sigma": 0.3}', "missing key 'kind'"),
        ('{"kind": ["noise"]}', "unknown corruption kind ['noise']"),
        ('{"kind": "noise", "noise_sigma": "x"}',
         "noise_sigma must be a finite number, got 'x'"),
        ('{"kind": "noise", "noise_sigma": NaN}',
         "noise_sigma must be a finite number, got nan"),
        ('{"kind": "baseline", "wander_amp": -Infinity}',
         "wander_amp must be a finite number, got -inf"),
        ('{"kind": "clip", "clip_fraction": true}',
         "clip_fraction must be a finite number, got True"),
        ('{"kind": "noise", "noise_sigma": null}',
         "noise_sigma must be a finite number, got None"),
        ('{"kind": "noise", "noise_sigma": 0.3', "Expecting"),
    ])
    def test_bad_corruption_spec_is_a_clean_error(self, tmp_path, capsys,
                                                  spec_text, needle):
        rc, spec, out = self.corrupt_with(tmp_path, spec_text)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR {spec}: ")
        assert needle in err[0]
        assert not out.exists()

    def test_integer_spec_value_is_accepted(self, tmp_path):
        rc, _, out = self.corrupt_with(
            tmp_path, '{"kind": "clip", "clip_fraction": 1}')
        assert rc == 0 and (out / "r0.csv").is_file()

    def interpolate_with(self, tmp_path, alphas):
        cfg = tiny_config(window_len=256, latent_len=64, pooled_len=16,
                          ddim_steps=2)
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        model.norm_stats = sg.NormStats(0.0, 1.0)
        ckpt = tmp_path / "model.vdp"
        save_model(ckpt, model, meta={"epoch": 0})
        for name, hr in (("lo.csv", 60.0), ("hi.csv", 90.0)):
            x = sg.synth_ppg(fs=cfg.fs, duration_s=4.0, hr_bpm=hr,
                             rr_bpm=15.0, seed=0)
            write_recording_csv(tmp_path / name, cfg.fs, x)
        out = tmp_path / "interp.csv"
        rc = main(["interpolate", "--ckpt", str(ckpt),
                   "--lo", str(tmp_path / "lo.csv"),
                   "--hi", str(tmp_path / "hi.csv"),
                   f"--alphas={alphas}", "--out", str(out)])
        return rc, out

    def test_interpolate_writes_one_row_per_alpha(self, tmp_path):
        rc, out = self.interpolate_with(tmp_path, "1,0,0.5")
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,hr_bpm"
        assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "0.5", "1.0"]

    @pytest.mark.parametrize("alphas,needle", [
        ("abc", "'abc'"), ("0,,1", "''"), ("0,nan,1", "alpha nan "),
        ("0,inf", "alpha inf "), ("0,1.5", "alpha 1.5 "),
        ("-0.25,1", "alpha -0.25 "),
    ])
    def test_bad_alphas_are_a_clean_error(self, tmp_path, capsys, alphas,
                                          needle):
        rc, out = self.interpolate_with(tmp_path, alphas)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ")
        assert needle in err[0]
        assert not out.exists()

    def test_bad_inputs_exit_nonzero(self, tmp_path, capsys):
        rc = main(["generate", "--ckpt", str(tmp_path / "missing.vdp"),
                   "--num", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "ERROR" in capsys.readouterr().err

    def test_junk_checkpoint_is_a_clean_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.vdp"
        junk.write_bytes(b"not a checkpoint at all")
        rc = main(["generate", "--ckpt", str(junk), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "junk.vdp" in err
        assert not (tmp_path / "o.csv").exists()

    def test_trailing_bytes_are_a_clean_error(self, tmp_path, capsys):
        ckpt = self.make_ckpt(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes() + b"\x00" * 7)
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "7 bytes after" in err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_parameter_is_a_clean_error(self, tmp_path, capsys):
        cfg = tiny_config()
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        arrays = model.state_arrays()
        del arrays["unet.out_conv.bias"]
        ckpt = tmp_path / "model.vdp"
        save_checkpoint(ckpt, cfg, arrays, norm_stats=sg.NormStats(0.0, 1.0))
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "unet.out_conv.bias" in err

    @pytest.mark.parametrize("where", ["array", "mu_train", "sigma_train"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_checkpoint_is_a_clean_error(self, tmp_path, capsys,
                                                    where, bad):
        cfg = tiny_config()
        model = VampDiffModel(cfg, rng=np.random.default_rng(0))
        arrays = model.state_arrays()
        stats = {"mu_train": 0.0, "sigma_train": 1.0}
        if where == "array":
            arrays["unet.out_conv.kernel"].flat[3] = bad
        else:
            stats[where] = bad
        ckpt = tmp_path / "model.vdp"
        save_checkpoint(ckpt, cfg, arrays, norm_stats=sg.NormStats(**stats))
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        name = "unet.out_conv.kernel" if where == "array" else where
        assert err.startswith("ERROR ") and "model.vdp" in err and name in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("edit,field", [
        (lambda m: m["arrays"][0].pop("shape"), "shape"),
        (lambda m: m["arrays"][0].pop("offset"), "offset"),
        (lambda m: m["arrays"][0].update(shape=[-1]), "shape"),
        (lambda m: m["arrays"][0].update(name=3), "name"),
        (lambda m: m.update(arrays={"a": 1}), "arrays"),
        (lambda m: m.update(norm_stats=[0.0, 1.0]), "norm_stats"),
        (lambda m: m.update(config=5), "config"),
        (lambda m: m.update(meta=[]), "meta"),
        (lambda m: m["config"].update(window_len="abc"), "window_len"),
    ])
    def test_malformed_manifest_is_a_clean_error(self, tmp_path, capsys,
                                                 edit, field):
        ckpt = self.make_ckpt(tmp_path)
        ckpt.write_bytes(edit_manifest(ckpt.read_bytes(), edit))
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "model.vdp" in err
        assert f"{field!r}" in err
        assert not (tmp_path / "o.csv").exists()

    def test_unexpected_parameter_is_a_clean_error(self, tmp_path, capsys):
        model = VampDiffModel(desk_config(), rng=np.random.default_rng(0))
        arrays = {**model.state_arrays(), "unet.nonexistent": np.zeros(3)}
        ckpt = tmp_path / "model.vdp"
        save_checkpoint(ckpt, model.config, arrays,
                        norm_stats=sg.NormStats(0.0, 1.0))
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "unet.nonexistent" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("steps", [
        {"diffusion_steps": 1, "ddim_steps": 1},
        {"ddim_steps": 0},
        {"diffusion_steps": 30, "ddim_steps": 31},
    ])
    def test_bad_step_counts_are_a_clean_error(self, tmp_path, capsys, steps):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**desk_config().to_dict(), **steps}))
        rc = main(["train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "steps" in err

    @pytest.mark.parametrize("key,value", [
        ("fs", "75"), ("window_len", "abc"), ("window_len", 768.0),
        ("rr_widths", "abc"), ("rr_widths", [8, 16.5]), ("lr_decoder", None),
        ("seed", True), ("kl_beta_zero", 1), ("profile", 3),
    ])
    def test_wrongly_typed_config_is_a_clean_error(self, tmp_path, capsys,
                                                   key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**desk_config().to_dict(), key: value}))
        rc = main(["train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"ERROR config key {key!r} must be ")

    @pytest.mark.parametrize("key,value", [
        ("pooled_len", 0), ("groupnorm_groups", 0), ("groupnorm_groups", -1),
        ("latent_channels", 0), ("latent_channels", -1),
        ("time_embed_dim", 0), ("time_embed_dim", -1), ("seed", -1),
        ("width_factor", float("nan")), ("width_factor", 1e308),
        ("groupnorm_groups", 3), ("checkpoint_every", 0),
        ("lr_decoder", float("nan")), ("time_embed_dim", 7),
        ("width_factor", 1e10), ("latent_channels", 10 ** 12),
        ("rr_widths", [4, 10 ** 9]),
    ])
    def test_out_of_range_config_is_a_clean_error(self, tmp_path, capsys,
                                                  key, value):
        """From a ``train --config`` file and from a checkpoint manifest,
        before any data is read or any output written."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**tiny_config().to_dict(), key: value}))
        rc = main(["train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ERROR config key {key!r}")
        ckpt = self.make_ckpt(tmp_path)
        ckpt.write_bytes(edit_manifest(
            ckpt.read_bytes(), lambda m: m["config"].update({key: value})))
        rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and "model.vdp" in err
        assert f"config key {key!r}" in err
        assert not (tmp_path / "o.csv").exists()

    def test_int_in_a_float_field_is_kept(self):
        from vampdiff.config import RunConfig
        d = {**desk_config().to_dict(), "fs": 75, "lr_decoder": 1}
        assert RunConfig.from_dict(d).to_dict() == d
        with pytest.raises(ConfigError, match="must be an object"):
            RunConfig.from_dict([d])

    def test_schedule_out_of_range_is_a_clean_error(self, tmp_path, capsys):
        # the linear schedule's beta_T = 0.02 * 1000 / T reaches 1 below 21
        # steps; the config rejects that before any data is read
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**tiny_config().to_dict(),
                                 "diffusion_steps": 10}))
        rc = main(["train", "--config", str(p), "--data",
                   str(tmp_path / "missing"), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "ERROR diffusion_steps must be >= 21")

    def test_config_round_trip_fixed_point(self, tmp_path):
        cfg = desk_config()
        p = tmp_path / "c.json"
        cfg.save(p)
        from vampdiff.config import RunConfig
        again = RunConfig.load(p)
        assert again.to_json() == cfg.to_json()

    def command_args(self, tmp_path, command):
        """Valid arguments for ``command`` over a tiny checkpoint and a
        one-recording directory, and the output path it would write."""
        ckpt = self.make_ckpt(tmp_path)
        data = tmp_path / "data"
        data.mkdir()
        x = sg.synth_ppg(fs=75.0, duration_s=4.0, hr_bpm=90.0, rr_bpm=15.0,
                         seed=0)
        write_recording_csv(data / "r0.csv", 75.0, x)
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "noise", "noise_sigma": 0.3}')
        out = tmp_path / "out"
        rec = str(data / "r0.csv")
        return {
            "synth": ["--out", str(out), "--patients", "3"],
            "generate": ["--ckpt", str(ckpt), "--num", "1",
                         "--out", str(out)],
            "reconstruct": ["--ckpt", str(ckpt), "--data", str(data),
                            "--out", str(out)],
            "evaluate": ["--ckpt", str(ckpt), "--data", str(data),
                         "--gen-n", "1", "--report", str(out)],
            "corrupt": ["--data", str(data), "--spec", str(spec),
                        "--out", str(out)],
            "interpolate": ["--ckpt", str(ckpt), "--lo", rec, "--hi", rec,
                            "--out", str(out)],
        }[command], out

    @pytest.mark.parametrize("command", ["synth", "generate", "reconstruct",
                                         "evaluate", "corrupt",
                                         "interpolate"])
    def test_negative_seed_is_a_clean_error(self, tmp_path, capsys, command):
        args, out = self.command_args(tmp_path, command)
        assert main([command, *args, "--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR --seed must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *[("synth", "--duration", v) for v in ("-1", "inf", "nan", "0")],
        *[("corrupt", "--fs", v) for v in ("nan", "-5", "0", "inf")],
    ])
    def test_bad_duration_and_fs_are_a_clean_error(self, tmp_path, capsys,
                                                   command, flag, value):
        args, out = self.command_args(tmp_path, command)
        assert main([command, *args, flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR {flag} must be a finite number > 0, "
                       f"got {float(value)}"]
        assert not out.exists()

    def test_zero_seed_and_a_positive_fs_are_accepted(self, tmp_path):
        args, out = self.command_args(tmp_path, "corrupt")
        assert main(["corrupt", *args, "--seed", "0", "--fs", "50"]) == 0
        assert (out / "r0.csv").is_file()


# ----------------------------------------------------------------------
# checkpoint fuzzing
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def tiny_checkpoint() -> bytes:
    model = VampDiffModel(tiny_config(), rng=np.random.default_rng(0))
    model.norm_stats = sg.NormStats(0.0, 1.0)
    with tempfile.TemporaryDirectory() as d:
        save_model(Path(d) / "model.vdp", model, meta={"epoch": 0})
        return (Path(d) / "model.vdp").read_bytes()


def generate_from(raw: bytes) -> tuple[int, str, str | None]:
    """(exit code, stderr, output CSV or None) of ``generate`` on a
    container holding ``raw``; an exception escaping ``main`` fails the
    caller's test."""
    with tempfile.TemporaryDirectory() as d:
        ckpt, out = Path(d) / "model.vdp", Path(d) / "gen.csv"
        ckpt.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["generate", "--ckpt", str(ckpt), "--num", "1",
                       "--out", str(out)])
        return rc, err.getvalue(), out.read_text() if out.exists() else None


def assert_clean_error(rc, err, out):
    assert rc == 1
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert "model.vdp" in err
    assert out is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_checkpoint_is_a_clean_error(data):
    """Cut anywhere (header, manifest or payload), a container is refused
    with a one-line error naming it, never a traceback.

    Flipped payload bytes are not fuzzed: the container has no checksum,
    so a flipped byte loads as a different finite float (or is refused as
    non-finite) and cannot be told from a trained weight.
    """
    raw = tiny_checkpoint()
    assert_clean_error(*generate_from(raw[:data.draw(
        st.integers(0, len(raw) - 1))]))


MANIFEST_FIELDS = ([("config", key) for key in sorted(tiny_config().to_dict())]
                   + [("norm_stats", "mu_train"),
                      ("norm_stats", "sigma_train"), ("meta", "epoch")])


def broken(value, how):
    if how == "retype":
        return [value] if isinstance(value, str) else str(value)
    if how == "negative":
        numeric = isinstance(value, (int, float)) and not isinstance(value,
                                                                   bool)
        return -abs(value) - 1 if numeric else -1
    return {"nan": float("nan"), "none": None}[how]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MANIFEST_FIELDS),
       st.sampled_from(["delete", "retype", "nan", "none", "negative"]))
def test_mutated_manifest_field_never_escapes(field, how):
    """A deleted, retyped, NaN, null or negative ``config``, ``norm_stats``
    or ``meta`` field is either refused with a one-line error naming the
    container or, where the value is one the program accepts (a negative
    ``mu_train``, a loss weight or learning rate that generation does not
    read, a deleted key whose default fits the arrays, any ``meta``
    value), generates finite windows. It never ends in a traceback."""
    section, key = field

    def edit(manifest):
        if how == "delete":
            del manifest[section][key]
        else:
            manifest[section][key] = broken(manifest[section][key], how)
    rc, err, out = generate_from(edit_manifest(tiny_checkpoint(), edit))
    if rc == 0:
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        assert np.isfinite(np.array(rows[0].split(","), dtype=float)).all()
    else:
        assert_clean_error(rc, err, out)
