"""Command-line interface: data ingestion, synthesis, training, sampling,
and evaluation workflows over CSV recordings and checkpoint containers."""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import evaluation as ev
from . import signal as sg
from .atomic import atomic_open
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    load_params,
    save_checkpoint,
)
from .config import ConfigError, RunConfig, desk_config
from .model import generate as model_generate
from .model.prior import PriorError
from .model.sampler import SamplerError
from .model.schedule import ScheduleError
from .train import RRNet, TrainError, build_model, fit, train_rr_estimator


class IngestError(Exception):
    pass


# ----------------------------------------------------------------------
# CSV recordings
# ----------------------------------------------------------------------

@dataclass
class Recording:
    rec_id: str
    fs: float
    ppg: np.ndarray
    co2: Optional[np.ndarray] = None


def _parse_csv(path: Path, fs: float | None) -> Recording:
    with open(path, newline="") as f:
        first = f.readline()
        if first.startswith("#"):
            comment = first[1:].strip()
            if comment.startswith("fs="):
                try:
                    fs = float(comment[3:])
                except ValueError:
                    raise IngestError(
                        f"{path}: malformed sample-rate comment {first!r}")
            header_line = f.readline()
        else:
            header_line = first
        if fs is None:
            raise IngestError(
                f"{path}: sample rate missing (no config fs and no '# fs=' "
                "comment)")
        header = [h.strip() for h in header_line.strip().split(",")]
        if "ppg" not in header:
            raise IngestError(f"{path}: missing required 'ppg' column")
        ppg_col = header.index("ppg")
        co2_col = header.index("co2") if "co2" in header else None
        ppg, co2 = [], []
        lineno = 2 if first.startswith("#") else 1
        for row in csv.reader(f):
            lineno += 1
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(header)} cells, "
                    f"got {len(row)}")
            try:
                ppg.append(float(row[ppg_col]))
                if co2_col is not None:
                    co2.append(float(row[co2_col]))
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-numeric cell")
            if not math.isfinite(ppg[-1]) or (
                    co2 and not math.isfinite(co2[-1])):
                raise IngestError(f"{path}:{lineno}: non-finite cell")
    if not ppg:
        raise IngestError(f"{path}: no samples")
    return Recording(
        rec_id=path.stem, fs=fs, ppg=np.asarray(ppg),
        co2=np.asarray(co2) if co2_col is not None else None)


def ingest(path, fs: float | None = None) -> list[Recording]:
    """Parse one CSV file or every *.csv in a directory."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.csv"))
        if not files:
            raise IngestError(f"{p}: no CSV files found")
    elif p.is_file():
        files = [p]
    else:
        raise IngestError(f"{p}: no such file or directory")
    return [_parse_csv(f, fs) for f in files]


def write_recording_csv(path, fs: float, ppg: np.ndarray,
                        co2: np.ndarray | None = None) -> None:
    with atomic_open(path) as f:
        f.write(f"# fs={fs:g}\n")
        if co2 is None:
            f.write("ppg\n")
            for v in ppg:
                f.write(f"{v:.10f}\n")
        else:
            f.write("ppg,co2\n")
            for v, c in zip(ppg, co2):
                f.write(f"{v:.10f},{c:.10f}\n")


# ----------------------------------------------------------------------
# synthetic dataset
# ----------------------------------------------------------------------

def synth_dataset(config: RunConfig, out_dir, n_patients: int = 12,
                  duration_s: float | None = None, seed: int = 0) -> None:
    """Write a patient-split synthetic dataset (train/val/test dirs)."""
    out_dir = Path(out_dir)
    if duration_s is None:
        duration_s = 6.0 * config.window_len / config.fs
    n_test = max(1, n_patients // 6)
    n_val = max(1, n_patients // 6)
    if n_patients < n_test + n_val + 1:
        raise IngestError("need at least 3 synthetic patients")
    for pid in range(n_patients):
        rng = np.random.default_rng((seed, pid))
        hr = float(rng.uniform(55.0, 150.0))
        rr = float(rng.uniform(8.0, 30.0))
        amp = float(rng.uniform(0.5, 2.0))
        ppg = sg.synth_ppg(fs=config.fs, duration_s=duration_s, hr_bpm=hr,
                           rr_bpm=rr, amp=amp, seed=int(rng.integers(1 << 30)))
        t = np.arange(ppg.size) / config.fs
        co2 = np.sin(2 * np.pi * rr * t / 60.0)
        split = ("test" if pid < n_test
                 else "val" if pid < n_test + n_val else "train")
        d = out_dir / split
        d.mkdir(parents=True, exist_ok=True)
        write_recording_csv(d / f"patient{pid:03d}.csv", config.fs, ppg, co2)


# ----------------------------------------------------------------------
# dataset preparation
# ----------------------------------------------------------------------

def load_windows(data_dir, config: RunConfig):
    """Ingest a recording directory and cut quality-checked windows.

    Returns (windows, rr_labels) where rr_labels[i] is the CO2-derived
    breaths/min for windows[i] or None.
    """
    recs = ingest(data_dir, fs=config.fs)
    windows, labels = [], []
    for rec in recs:
        wins = sg.segment(
            rec.ppg, rec.fs, config.window_len, config.overlap_frac,
            quality_min_peaks=config.quality_min_peaks,
            source_id=rec.rec_id, band=config.band,
            peak_params=config.peak_params)
        for w in wins:
            windows.append(w)
            label = None
            if rec.co2 is not None:
                seg = rec.co2[w.start_index:w.start_index + config.window_len]
                label = sg.rr_from_co2(seg, rec.fs)
            labels.append(label)
    if not windows:
        raise IngestError(f"{data_dir}: no usable windows")
    return windows, labels


def norm_stats_of(windows) -> sg.NormStats:
    data = np.concatenate([w.samples for w in windows])
    return sg.NormStats(float(data.mean()), float(data.std()))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.load(args.config)
    return desk_config()


def cmd_synth(args) -> int:
    config = _load_config(args)
    synth_dataset(config, args.out, n_patients=args.patients,
                  duration_s=args.duration, seed=args.seed)
    print(f"wrote synthetic dataset to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    train_windows, train_labels = load_windows(Path(args.data) / "train",
                                               config)
    stats = norm_stats_of(train_windows)
    xn = stats.normalize(np.stack([w.samples for w in train_windows]))
    norm_windows = [sg.SignalWindow(row, config.fs) for row in xn]
    model = build_model(config, train_windows=norm_windows, norm_stats=stats)
    out = Path(args.out)

    def progress(row):
        print(f"epoch {row['epoch']:4d}  loss {row['total']:.5f}")

    fit(model, xn, out_dir=out, progress=progress if args.verbose else None)
    if args.rr_estimator:
        pairs = [(x, y) for x, y in zip(xn, train_labels) if y is not None]
        if not pairs:
            raise IngestError("no RR labels available for the estimator")
        rx = np.stack([p[0] for p in pairs])
        ry = np.array([p[1] for p in pairs])
        net = train_rr_estimator(rx, ry, config)
        save_checkpoint(out / "rr.vdp", config, net.state_arrays(),
                        norm_stats=stats, meta={"kind": "rr"})
    print(f"wrote model to {out / 'model.vdp'}")
    return 0


def _load_rr_net(path) -> RRNet:
    config, arrays, _, _ = load_checkpoint(path)
    net = RRNet.from_config(config)
    load_params(net, arrays, path)
    return net


def cmd_generate(args) -> int:
    model, _ = load_model(args.ckpt)
    out = model_generate(model, args.num, seed=args.seed)
    with atomic_open(args.out) as f:
        f.write(f"# fs={model.config.fs:g} num={args.num} seed={args.seed}\n")
        for i in range(out.shape[0]):
            f.write(",".join(f"{v:.10f}" for v in out[i, 0]) + "\n")
    print(f"wrote {args.num} generated windows to {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    model, _ = load_model(args.ckpt)
    windows, _ = load_windows(args.data, model.config)
    report = ev.reconstruction_report(model, windows, seed=args.seed)
    with atomic_open(args.out) as f:
        writer = csv.writer(f)
        writer.writerow(["source_id", "start_index", "mae", "rmse",
                         "pearson_r", "hr_err", "ibi_mae"])
        for w, rec in zip(windows, report.records):
            writer.writerow([w.source_id, w.start_index,
                             f"{rec['mae']:.8f}", f"{rec['rmse']:.8f}",
                             f"{rec['pearson_r']:.8f}",
                             "" if rec["hr_err"] is None
                             else f"{rec['hr_err']:.5f}",
                             "" if rec["ibi_mae"] is None
                             else f"{rec['ibi_mae']:.6f}"])
    agg = report.aggregate()
    print(f"reconstruction: pearson {agg['pearson_r_mean']:.4f}  "
          f"mae {agg['mae_mean']:.5f}")
    return 0


def _write_kv_csv(path, rows) -> None:
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for k, v in rows:
            writer.writerow([k, "" if v is None else v])


def _histogram_csv(path, values, n_bins: int = 20) -> None:
    values = np.asarray([v for v in values if v is not None], dtype=float)
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["bin_left", "bin_right", "count"])
        if values.size:
            counts, edges = np.histogram(values, bins=n_bins)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                writer.writerow([f"{lo:.6f}", f"{hi:.6f}", int(c)])


def make_corruption_benchmark(windows, seed: int = 0):
    """Seeded ~25% anomalous subset, one quarter per corruption kind."""
    rng = np.random.default_rng((seed, 3))
    n_corr = max(4, len(windows) // 3)
    sel = rng.choice(len(windows), size=min(n_corr, len(windows)),
                     replace=False)
    kinds = ["noise", "baseline", "clip", "flatline"]
    specs = {
        "noise": sg.CorruptionSpec("noise", noise_sigma=0.5),
        "baseline": sg.CorruptionSpec("baseline", wander_amp=1.0,
                                      wander_freq_hz=0.1),
        "clip": sg.CorruptionSpec("clip", clip_fraction=0.4),
        "flatline": sg.CorruptionSpec("flatline", flatline_start_frac=0.4,
                                      flatline_duration_frac=0.25),
    }
    corrupted = []
    for i, idx in enumerate(sel):
        kind = kinds[i % len(kinds)]
        corrupted.append((kind, sg.corrupt(windows[int(idx)], specs[kind],
                                           seed=seed + int(idx))))
    return corrupted


def cmd_evaluate(args) -> int:
    model, _ = load_model(args.ckpt)
    config = model.config
    report_dir = Path(args.report)
    report_dir.mkdir(parents=True, exist_ok=True)
    windows, labels = load_windows(args.data, config)

    recon = ev.reconstruction_report(model, windows, seed=args.seed)
    agg = recon.aggregate()
    _write_kv_csv(report_dir / "recon_report.csv", sorted(agg.items()))

    gen = ev.generation_report(model, args.gen_n, windows, seed=args.seed)
    _write_kv_csv(report_dir / "gen_report.csv", [
        ("n_generated", args.gen_n),
        ("peak_fraction", gen.peak_fraction),
        ("hr_gap", gen.hr_gap),
        ("ks_hr", gen.ks_hr),
        ("ks_ptp", gen.ks_ptp),
        ("ks_std", gen.ks_std),
        ("mean_pairwise_dist", gen.mean_pairwise_dist),
    ])
    _histogram_csv(report_dir / "hr_hist_generated.csv", gen.hr)

    corrupted = make_corruption_benchmark(windows, seed=args.seed)
    anom = ev.anomaly_report(model, windows, corrupted, seed=args.seed)
    rows = [("auroc_mae", anom.auroc_mae), ("auprc_mae", anom.auprc_mae),
            ("tpr5_mae", anom.tpr5_mae), ("auroc_corr", anom.auroc_corr)]
    for kind, d in anom.per_kind.items():
        rows += [(f"{kind}_{k}", v) for k, v in d.items()]
    _write_kv_csv(report_dir / "anomaly_report.csv", rows)

    if args.rr_ckpt:
        net = _load_rr_net(args.rr_ckpt)
        rr = ev.rr_consistency(windows, labels, model, net, seed=args.seed)
        _write_kv_csv(report_dir / "rr_consistency.csv", [
            ("mean_abs_delta", rr["mean_abs_delta"]),
            ("mae_real", rr["mae_real"]),
            ("mae_recon", rr["mae_recon"]),
        ])
        _histogram_csv(report_dir / "rr_hist_real.csv",
                       [r["pred_real"] for r in rr["records"]])
    print(f"wrote evaluation reports to {report_dir}")
    return 0


def _read_spec(path: Path) -> sg.CorruptionSpec:
    """The corruption spec in the JSON object at ``path``; every error
    names the file."""
    try:
        spec = json.loads(path.read_text())
        if not isinstance(spec, dict):
            raise sg.ParameterError("a spec must be a JSON object")
        unknown = set(spec) - {f.name for f in fields(sg.CorruptionSpec)}
        if unknown:
            raise sg.ParameterError(f"unknown key {min(unknown)!r}")
        if "kind" not in spec:
            raise sg.ParameterError("missing key 'kind'")
        return sg.CorruptionSpec(**spec)
    except (UnicodeDecodeError, json.JSONDecodeError, sg.SignalError) as e:
        raise IngestError(f"{path}: {e}") from None


def cmd_corrupt(args) -> int:
    spec = _read_spec(Path(args.spec))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = ingest(args.data, fs=args.fs)
    for rec in recs:
        w = sg.SignalWindow(rec.ppg, rec.fs, source_id=rec.rec_id)
        corrupted = sg.corrupt(w, spec, seed=args.seed)
        write_recording_csv(out_dir / f"{rec.rec_id}.csv", rec.fs,
                            corrupted.samples, rec.co2)
    print(f"wrote {len(recs)} corrupted recordings to {out_dir}")
    return 0


def cmd_interpolate(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
    except ValueError as e:
        raise SamplerError(f"--alphas: {e}") from None
    model, _ = load_model(args.ckpt)
    config = model.config

    def first_window(path):
        rec = ingest(path, fs=config.fs)[0]
        if rec.ppg.size < config.window_len:
            raise IngestError(f"{path}: shorter than one window")
        return sg.SignalWindow(rec.ppg[:config.window_len], rec.fs)

    sweep = ev.interpolation_sweep(first_window(args.lo),
                                   first_window(args.hi), model,
                                   alphas, seed=args.seed)
    with atomic_open(args.out) as f:
        writer = csv.writer(f)
        writer.writerow(["alpha", "hr_bpm"])
        for alpha, hr in sweep:
            writer.writerow([alpha, "" if hr is None else f"{hr:.5f}"])
    print(f"wrote interpolation sweep to {args.out}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vampdiff",
        description="Latent-diffusion PPG modeling: train, sample, evaluate.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write a synthetic patient-split dataset")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--patients", type=int, default=12)
    sp.add_argument("--duration", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train a model on a dataset directory")
    tp.add_argument("--config")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--rr-estimator", action="store_true")
    tp.add_argument("--verbose", action="store_true")
    tp.set_defaults(func=cmd_train)

    gp = sub.add_parser("generate", help="sample windows from a checkpoint")
    gp.add_argument("--ckpt", required=True)
    gp.add_argument("--num", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", required=True)
    gp.set_defaults(func=cmd_generate)

    rp = sub.add_parser("reconstruct", help="reconstruct a dataset's windows")
    rp.add_argument("--ckpt", required=True)
    rp.add_argument("--data", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--seed", type=int, default=0)
    rp.set_defaults(func=cmd_reconstruct)

    ep = sub.add_parser("evaluate", help="emit all evaluation reports")
    ep.add_argument("--ckpt", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--report", required=True)
    ep.add_argument("--gen-n", type=int, default=64)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--rr-ckpt")
    ep.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("corrupt", help="apply a corruption spec to recordings")
    cp.add_argument("--data", required=True)
    cp.add_argument("--spec", required=True)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--fs", type=float, default=None)
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_corrupt)

    ip = sub.add_parser("interpolate", help="latent interpolation sweep")
    ip.add_argument("--ckpt", required=True)
    ip.add_argument("--lo", required=True)
    ip.add_argument("--hi", required=True)
    ip.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    ip.add_argument("--seed", type=int, default=0)
    ip.add_argument("--out", required=True)
    ip.set_defaults(func=cmd_interpolate)
    return p


def _bad_argument(args) -> str | None:
    """Why a parsed numeric flag is out of range, or None if none is."""
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    for flag in ("duration", "fs"):
        v = getattr(args, flag, None)
        if v is not None and not (math.isfinite(v) and v > 0):
            return f"--{flag} must be a finite number > 0, got {v}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bad = _bad_argument(args)
    if bad:
        print(f"ERROR {bad}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (IngestError, ConfigError, sg.SignalError, ev.EvalError,
            CheckpointError, SamplerError, PriorError, ScheduleError,
            TrainError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
