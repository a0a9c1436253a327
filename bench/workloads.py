"""The three benchmark workloads: what each runs through the vampdiff CLI,
how many windows one run processes, how its outputs are checked, and the
seeded quality numbers read from them.

Every workload runs against files the benchmark generated from its seed
(a synthetic patient-split dataset) and a fixture checkpoint trained once
per source tree; the program sees nothing else.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vampdiff import signal as sg
from vampdiff.checkpoint import load_model
from vampdiff.cli import load_windows
from vampdiff.config import RunConfig, desk_config

# Short schedule: epoch 1 runs in the encoder-freeze phase, epoch 2 with
# the encoder unfrozen and the VampPrior KL active (beta at its floor).
SCHEDULE = dict(freeze_epochs=1, beta_floor_until=2, beta_ramp_until=3)
FIXTURE_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale.  ``desk`` is what the benchmark
    measures; ``tiny`` only exercises the harness in its self-tests."""
    config: dict
    train_epochs: int
    fixture_epochs: int
    gen_num: int
    eval_gen_n: int
    # quality floors checked at this scale (empty: quality not checked)
    gates: dict = field(default_factory=dict)

    def run_config(self, epochs: int) -> RunConfig:
        return desk_config(**self.config, **SCHEDULE, epochs=epochs,
                           checkpoint_every=epochs)


SCALES = {
    "desk": Scale(config={}, train_epochs=2, fixture_epochs=12, gen_num=32,
                  eval_gen_n=4,
                  gates={"final_loss_below_first_epoch": True,
                         "gen_peak_fraction": 0.5, "recon_pearson": 0.8}),
    "tiny": Scale(config=dict(window_len=256, latent_len=64,
                              latent_channels=4, width_factor=0.0625,
                              pseudo_inputs=3,
                              ddim_steps=5, batch_size=8, rr_widths=(4, 4),
                              rr_stem_channels=4, rr_epochs=1),
                  train_epochs=2, fixture_epochs=2, gen_num=4,
                  eval_gen_n=2),
}


@dataclass
class Context:
    """Inputs of one benchmark run."""
    scale: Scale
    seed: int
    work: Path            # work directory of this run
    fixture: Path         # holds model.vdp and rr.vdp
    data: Path | None = None  # synthesized dataset (set by set-up)

    @property
    def train_config_path(self) -> Path:
        return self.work / "train_config.json"


def _finite_cells(path: Path, skip_columns: int = 0) -> list[str]:
    """Problems with a CSV whose cells after ``skip_columns`` must be
    empty or finite numbers."""
    problems = []
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        return [f"{path.name}: no data rows"]
    for lineno, row in enumerate(rows[1:], start=2):
        for cell in row[skip_columns:]:
            if cell == "":
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{path.name}:{lineno}: bad cell {cell!r}")
    return problems


def _kv_csv(path: Path) -> dict:
    with open(path, newline="") as f:
        return {row["metric"]: row["value"] for row in csv.DictReader(f)}


class Workload:
    """One workload; the reasons for each are in BENCHMARK.json."""
    name = ""

    def setup_args(self, ctx: Context) -> list[str]:
        """Extra ``vampdiff synth`` arguments for this workload's dataset."""
        return []

    def prepare(self, ctx: Context) -> None:
        """Work out sizes from the synthesized inputs (not timed)."""

    def command(self, ctx: Context, out: Path) -> list[str]:
        raise NotImplementedError

    def windows(self, ctx: Context) -> int:
        """Windows one command processes, for ``windows_per_s``."""
        raise NotImplementedError

    def check(self, ctx: Context, out: Path) -> list[str]:
        raise NotImplementedError

    def quality(self, ctx: Context, out: Path) -> dict:
        raise NotImplementedError

    def gate(self, ctx: Context, out: Path, quality: dict) -> list[str]:
        """Problems with the quality numbers at scales that check them."""
        return []


class Train(Workload):
    name = "train"

    def prepare(self, ctx):
        config = RunConfig.load(ctx.train_config_path)
        self.n_windows = len(load_windows(ctx.data / "train", config)[0])

    def command(self, ctx, out):
        return ["train", "--config", str(ctx.train_config_path),
                "--data", str(ctx.data), "--out", str(out)]

    def windows(self, ctx):
        return self.n_windows * ctx.scale.train_epochs

    def _log(self, out):
        with open(out / "training_log.csv", newline="") as f:
            return list(csv.DictReader(f))

    def check(self, ctx, out):
        log = out / "training_log.csv"
        if not log.is_file():
            return ["training_log.csv missing"]
        problems = _finite_cells(log)
        epochs = [row["epoch"] for row in self._log(out)]
        want = [str(e) for e in range(1, ctx.scale.train_epochs + 1)]
        if epochs != want:
            problems.append(f"training_log.csv epochs {epochs} != {want}")
        try:
            model, _ = load_model(out / "model.vdp")
        except Exception as e:  # any failure to load is an output error
            return problems + [f"model.vdp does not load: {e!r}"]
        if not all(np.isfinite(p.data).all() for p in model.params()):
            problems.append("model.vdp holds non-finite parameters")
        return problems

    def quality(self, ctx, out):
        return {"final_loss": float(self._log(out)[-1]["total"])}

    def gate(self, ctx, out, q):
        first = float(self._log(out)[0]["total"])
        if (ctx.scale.gates.get("final_loss_below_first_epoch")
                and not q["final_loss"] < first):
            return [f"loss did not fall: {first:.4f} -> "
                    f"{q['final_loss']:.4f}"]
        return []


class Generate(Workload):
    name = "generate"

    def prepare(self, ctx):
        self.model_config = load_model(ctx.fixture / "model.vdp")[0].config

    def command(self, ctx, out):
        return ["generate", "--ckpt", str(ctx.fixture / "model.vdp"),
                "--num", str(ctx.scale.gen_num), "--seed", str(ctx.seed),
                "--out", str(out / "gen.csv")]

    def windows(self, ctx):
        return ctx.scale.gen_num

    def _rows(self, out):
        with open(out / "gen.csv") as f:
            header = f.readline()
            return header, [line.strip().split(",") for line in f]

    def check(self, ctx, out):
        if not (out / "gen.csv").is_file():
            return ["gen.csv missing"]
        header, rows = self._rows(out)
        problems = []
        if not header.startswith("# fs="):
            problems.append(f"gen.csv header {header!r}")
        if len(rows) != ctx.scale.gen_num:
            problems.append(f"gen.csv has {len(rows)} rows, "
                            f"want {ctx.scale.gen_num}")
        L = self.model_config.window_len
        for i, row in enumerate(rows):
            try:
                vals = np.array([float(v) for v in row])
            except ValueError:
                problems.append(f"gen.csv row {i + 2}: non-numeric cell")
                continue
            if vals.size != L or not np.isfinite(vals).all():
                problems.append(f"gen.csv row {i + 2}: {vals.size} values "
                                f"(want {L}) or non-finite")
        return problems

    def quality(self, ctx, out):
        c = self.model_config
        _, rows = self._rows(out)
        with_peaks = 0
        for row in rows:
            w = sg.SignalWindow(np.array([float(v) for v in row]), c.fs)
            filt = sg.bandpass(w, c.band_lo_hz, c.band_hi_hz)
            peaks = sg.detect_peaks(filt, c.peak_min_distance_s,
                                    c.peak_prominence_frac,
                                    c.peak_height_percentile)
            with_peaks += len(peaks) >= 2
        return {"gen_peak_fraction": with_peaks / len(rows)}

    def gate(self, ctx, out, q):
        floor = ctx.scale.gates.get("gen_peak_fraction")
        if floor is not None and q["gen_peak_fraction"] < floor:
            return [f"gen_peak_fraction {q['gen_peak_fraction']:.3f} "
                    f"< {floor}"]
        return []


# metric,value reports (first column is a name) and numeric histograms
KV_REPORTS = ("recon_report.csv", "gen_report.csv", "anomaly_report.csv",
              "rr_consistency.csv")
HISTOGRAMS = ("hr_hist_generated.csv", "rr_hist_real.csv")


class Evaluate(Workload):
    name = "evaluate"

    def setup_args(self, ctx):
        # recordings of two window lengths give 3 windows per patient, so
        # one evaluate command takes seconds rather than tens of seconds
        c = ctx.scale.run_config(ctx.scale.train_epochs)
        return ["--duration", f"{2 * c.window_len / c.fs:.6f}"]

    def prepare(self, ctx):
        config = load_model(ctx.fixture / "model.vdp")[0].config
        self.n_test = len(load_windows(ctx.data / "test", config)[0])

    def command(self, ctx, out):
        return ["evaluate", "--ckpt", str(ctx.fixture / "model.vdp"),
                "--data", str(ctx.data / "test"),
                "--report", str(out / "reports"),
                "--gen-n", str(ctx.scale.eval_gen_n),
                "--seed", str(ctx.seed),
                "--rr-ckpt", str(ctx.fixture / "rr.vdp")]

    def windows(self, ctx):
        # reconstruction report, anomaly scoring of the clean windows and
        # of the corrupted subset, generation report, RR consistency
        n = self.n_test
        n_corrupted = min(max(4, n // 3), n)
        return n + (n + n_corrupted) + ctx.scale.eval_gen_n + n

    def check(self, ctx, out):
        problems = []
        for name in KV_REPORTS + HISTOGRAMS:
            path = out / "reports" / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            problems += _finite_cells(path, int(name in KV_REPORTS))
        if problems:
            return problems
        recon = _kv_csv(out / "reports" / "recon_report.csv")
        if int(recon["n_windows"]) != self.n_test:
            problems.append(f"recon_report n_windows {recon['n_windows']} "
                            f"!= {self.n_test}")
        for name, key in (("recon_report.csv", "pearson_r_mean"),
                          ("anomaly_report.csv", "auroc_mae")):
            if _kv_csv(out / "reports" / name).get(key, "") == "":
                problems.append(f"{name}: {key} empty")
        return problems

    def quality(self, ctx, out):
        recon = _kv_csv(out / "reports" / "recon_report.csv")
        anom = _kv_csv(out / "reports" / "anomaly_report.csv")
        return {"recon_pearson": float(recon["pearson_r_mean"]),
                "anomaly_auroc": float(anom["auroc_mae"])}

    def gate(self, ctx, out, q):
        floor = ctx.scale.gates.get("recon_pearson")
        if floor is not None and q["recon_pearson"] < floor:
            return [f"recon_pearson {q['recon_pearson']:.3f} < {floor}"]
        return []


WORKLOADS = {w.name: w for w in (Train(), Generate(), Evaluate())}
