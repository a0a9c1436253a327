"""vampdiff benchmark: run one workload through the real CLI and report it.

    python3 bench/run.py --workload {train,generate,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each command the benchmark
starts is its own single-threaded process (BLAS pinned to one thread) and
the benchmark waits for it before starting the next, so the numbers
measure the program and not the scheduler.

* Build (once per source tree, cached under ``.bench_build/``): train the
  fixture checkpoint that ``generate`` and ``evaluate`` load.
* Set-up (timed as ``setup_s``): synthesize the seeded dataset with
  ``vampdiff synth``; median of five set-ups, interleaved with the
  measured commands so both see the same host conditions.
* ``--trace 0``: repeat the workload's command until ``--seconds`` have
  passed, check every command's outputs, and report the end-to-end
  metrics as medians over the repeats.
* ``--trace 1``: run the command once untraced and once under the
  outside-in tracer (``traced_cli.py``), require byte-identical outputs,
  run the ROADMAP baseline micro-measurements (``baselines.py``) and
  report the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import OP_CATEGORY

# pin every BLAS / OpenMP pool to one thread before numpy is imported,
# here and in every child (children inherit this environment)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "vampdiff"
COMMAND_TIMEOUT_S = 150
SETUP_REPEATS = 5
MIN_REPEATS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
QUALITY_UNITS = {"final_loss": "1", "gen_peak_fraction": "ratio",
                 "recon_pearson": "1", "anomaly_auroc": "1"}
OP_CATEGORIES = tuple(dict.fromkeys(OP_CATEGORY.values()))
BASELINES = {  # baselines.py key -> unit
    "train_step_frozen_ms": "ms", "train_step_unfrozen_ms": "ms",
    "unet_fwd_b1_ms": "ms", "unet_fwd_b16_ms": "ms",
    "reconstruct_b1_ms_per_window": "ms", "reconstruct_b16_ms_per_window": "ms",
    "graph_nodes_nonleaf_frozen": "count", "graph_nodes_nonleaf_unfrozen": "count",
    "graph_nodes_all_frozen": "count", "graph_nodes_all_unfrozen": "count",
    "activation_mb_frozen": "MB", "activation_mb_unfrozen": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for cat in OP_CATEGORIES:
        units[f"numcore.{cat}.fwd_ms"] = "ms"
        units[f"numcore.{cat}.bwd_ms"] = "ms"
        units[f"numcore.{cat}.calls"] = "count"
    units.update({
        "numcore.groupnorm.fwd_incl_ms": "ms",
        "numcore.groupnorm.bwd_incl_ms": "ms",
        "numcore.backward_ms": "ms", "numcore.graph_nodes": "count",
        "numcore.activation_mb": "MB", "numcore.coverage": "ratio",
        "model.encoder.fwd_ms": "ms", "model.unet.fwd_ms": "ms",
        "model.unet.film_ms": "ms", "model.unet.level0_ms": "ms",
        "model.unet.level1_ms": "ms", "model.unet.level2_ms": "ms",
        "model.prior.kl_ms": "ms", "model.sampler.ms_per_window": "ms",
        "model.sampler.calls": "count", "model.sampler.batch_mean": "count",
        "losses.total_loss_ms": "ms", "train.step_ms.p50": "ms",
        "train.step_ms.tail": "ms", "train.optimizer_ms": "ms",
        "train.clip_ms": "ms", "checkpoint.save_ms": "ms",
        "checkpoint.load_ms": "ms",
        "evaluation.reconstruction_report_ms": "ms",
        "evaluation.anomaly_report_ms": "ms",
        "evaluation.generation_report_ms": "ms",
        "evaluation.rr_consistency_ms": "ms",
        "signal.bandpass_ms": "ms", "signal.detect_peaks_ms": "ms",
        "signal.segment_ms": "ms", "cli.ingest_ms": "ms",
        "trace.overhead_frac": "ratio",
    })
    units.update({f"baseline.{k}": u for k, u in BASELINES.items()})
    units.update({f"quality.{k}": u for k, u in QUALITY_UNITS.items()})
    return units


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall s, peak RSS MB).

    Wall time runs from spawn to exit; peak RSS is the child's own
    ``ru_maxrss`` from ``wait4``.  A child still running after
    COMMAND_TIMEOUT_S is killed.
    """
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=f,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "vampdiff.cli", *args]


def log_tail(log: Path, n: int = 3) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-n:])


# ----------------------------------------------------------------------
# environment, build, set-up
# ----------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "load_before": list(os.getloadavg())}


def source_key(scale_name: str) -> str:
    """Hash of the program's sources and the fixture's definition."""
    h = hashlib.sha256(scale_name.encode())
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_fixture(scale_name: str, scale, work: Path) -> tuple[Path, float]:
    """Train the fixture checkpoint unless this source tree has one.

    Returns (fixture dir, build seconds; 0 when cached).
    """
    from workloads import FIXTURE_SEED

    fixture = BUILD / f"fixture-{scale_name}-{source_key(scale_name)}"
    if (fixture / "model.vdp").is_file() and (fixture / "rr.vdp").is_file():
        return fixture, 0.0
    t0 = time.perf_counter()
    build = work / "fixture"
    build.mkdir(parents=True)
    cfg = build / "config.json"
    scale.run_config(scale.fixture_epochs).save(cfg)
    steps = [
        ["synth", "--config", str(cfg), "--out", str(build / "data"),
         "--seed", str(FIXTURE_SEED)],
        ["train", "--config", str(cfg), "--data", str(build / "data"),
         "--out", str(build / "run"), "--rr-estimator"],
    ]
    for step in steps:
        rc, _, _ = spawn(cli(step), build / "build.log")
        if rc != 0:
            raise RuntimeError(f"fixture build failed ({step[0]}): "
                               f"{log_tail(build / 'build.log')}")
    staged = work / "fixture-staged"
    staged.mkdir()
    for name in ("model.vdp", "rr.vdp"):
        shutil.copyfile(build / "run" / name, staged / name)
    try:
        staged.rename(fixture)
    except OSError:  # another run finished the same build first
        pass
    return fixture, time.perf_counter() - t0


class Setup:
    """The run's set-up: synthesize the seeded dataset with ``vampdiff
    synth``.  Each call is one timed set-up; the first copy is the run's
    input and every later copy must have the same bytes."""

    def __init__(self, ctx, workload):
        self.ctx, self.workload = ctx, workload
        self.walls: list[float] = []
        self.digest = None

    def __call__(self) -> None:
        ctx = self.ctx
        out = ctx.work / f"data{len(self.walls)}"
        log = ctx.work / "setup.log"
        rc, wall, _ = spawn(cli(["synth", "--config",
                                 str(ctx.train_config_path),
                                 "--out", str(out), "--seed", str(ctx.seed),
                                 *self.workload.setup_args(ctx)]), log)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {log_tail(log)}")
        digest = tree_digest(out)
        if self.digest is None:
            self.digest, ctx.data = digest, out
        elif digest != self.digest:
            raise RuntimeError("set-up is not deterministic")
        else:
            shutil.rmtree(out)
        self.walls.append(wall)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def check_outputs(ctx, workload, out: Path) -> tuple[list[str], dict]:
    problems = workload.check(ctx, out)
    if problems:
        return problems, {}
    quality = workload.quality(ctx, out)
    return workload.gate(ctx, out, quality), quality


def timed_run(ctx, workload, seconds: float, setup: Setup) -> dict:
    walls, rsss, problems_all = [], [], []
    failed = attempted = 0
    reference = quality = None
    t_start = time.perf_counter()
    # at least MIN_REPEATS commands; after that, start another only if it
    # should finish within the run's ``seconds``
    while (attempted < MIN_REPEATS or time.perf_counter() - t_start
           + statistics.median(walls) <= seconds):
        out = ctx.work / f"rep{attempted}"
        out.mkdir()
        rc, wall, rss = spawn(cli(workload.command(ctx, out)),
                              ctx.work / "cmd.log")
        attempted += 1
        walls.append(wall)
        rsss.append(rss)
        if rc != 0:
            problems = [f"exit code {rc}: {log_tail(ctx.work / 'cmd.log')}"]
        else:
            problems, q = check_outputs(ctx, workload, out)
            digest = tree_digest(out)
            if reference is None:
                reference, quality = digest, q
            elif digest != reference:
                problems.append("outputs differ from the first repeat")
            shutil.rmtree(out)
        if problems:
            failed += 1
            problems_all += [f"repeat {attempted}: {p}" for p in problems]
        # set-ups interleave with the commands so both see the same host
        if len(setup.walls) < SETUP_REPEATS:
            setup()
    while len(setup.walls) < SETUP_REPEATS:
        setup()
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup.walls),
        "wall_s": wall,
        "windows_per_s": workload.windows(ctx) / wall,
        "peak_rss_mb": statistics.median(rsss),
    }
    return {"metrics": metrics, "quality": quality or {},
            "attempted": attempted, "failed": failed,
            "problems": problems_all,
            "info": {"repeats": attempted, "wall_s_all": walls,
                     "windows_per_command": workload.windows(ctx)}}


def traced_run(ctx, workload) -> dict:
    problems = []
    plain, traced = ctx.work / "untraced", ctx.work / "traced"
    trace_json, baseline_json = ctx.work / "trace.json", ctx.work / "bl.json"
    plain.mkdir()
    traced.mkdir()
    runs = [
        ("untraced", cli(workload.command(ctx, plain))),
        ("traced", [sys.executable, str(BENCH / "traced_cli.py"),
                    str(trace_json), "--", *workload.command(ctx, traced)]),
        ("baselines", [sys.executable, str(BENCH / "baselines.py"),
                       str(ctx.fixture / "model.vdp"), str(ctx.data),
                       str(baseline_json)]),
    ]
    walls, failed = {}, 0
    for name, argv in runs:
        log = ctx.work / f"{name}.log"
        rc, walls[name], _ = spawn(argv, log)
        if rc != 0:
            failed += 1
            problems.append(f"{name}: exit code {rc}: {log_tail(log)}")
    quality = {}
    if not failed:
        for out in (plain, traced):
            p, quality = check_outputs(ctx, workload, out)
            problems += [f"{out.name}: {x}" for x in p]
        if tree_digest(plain) != tree_digest(traced):
            problems.append("traced outputs differ from untraced outputs")
    if failed or problems:
        return {"metrics": {}, "quality": quality, "attempted": len(runs),
                "failed": max(failed, 1), "problems": problems, "info": {}}
    trace = json.loads(trace_json.read_text())
    decoded = sum(trace["sampler_batches"])
    if workload.name != "train" and decoded != workload.windows(ctx):
        problems.append(f"tracer saw {decoded} DDIM windows, windows_per_s "
                        f"counts {workload.windows(ctx)}")
    metrics = per_layer_metrics(
        trace, json.loads(baseline_json.read_text()), quality,
        walls["traced"] / walls["untraced"] - 1.0)
    return {"metrics": metrics, "quality": quality, "attempted": len(runs),
            "failed": int(bool(problems)), "problems": problems,
            "info": {"untraced_wall_s": walls["untraced"],
                     "traced_wall_s": walls["traced"]}}


def per_layer_metrics(trace: dict, baselines: dict, quality: dict,
                      overhead: float) -> dict:
    incl, self_s, calls = trace["incl_s"], trace["self_s"], trace["calls"]
    bwd_self, bwd_root = trace["bwd_self_s"], trace["bwd_root_s"]
    steps, batches = trace["steps"], trace["sampler_batches"]
    def ms(totals, key):
        return totals.get(key, 0.0) * 1e3

    m = {}
    for cat in OP_CATEGORIES:
        ops = [op for op, c in OP_CATEGORY.items() if c == cat]
        m[f"numcore.{cat}.fwd_ms"] = sum(ms(self_s, op) for op in ops)
        m[f"numcore.{cat}.bwd_ms"] = sum(ms(bwd_self, op) for op in ops)
        m[f"numcore.{cat}.calls"] = sum(calls.get(op, 0) for op in ops)
    m["numcore.groupnorm.fwd_incl_ms"] = ms(incl, "groupnorm")
    m["numcore.groupnorm.bwd_incl_ms"] = ms(bwd_root, "groupnorm")

    def step_mean(key):
        return statistics.fmean(s[key] for s in steps) if steps else 0.0

    n_steps = max(len(steps), 1)
    step_ms = [s["ms"] for s in steps] or [0.0]
    m.update({
        "numcore.backward_ms": step_mean("backward_ms"),
        "numcore.graph_nodes": step_mean("graph_nodes"),
        "numcore.activation_mb": step_mean("activation_mb"),
        "numcore.coverage": (trace["hot_op_s"] / trace["hot_s"]
                             if trace["hot_s"] else 0.0),
        "model.encoder.fwd_ms": ms(incl, "model.encoder.fwd"),
        "model.unet.fwd_ms": ms(incl, "model.unet.fwd"),
        "model.unet.film_ms": ms(incl, "model.unet.film"),
        **{f"model.unet.level{lv}_ms": ms(incl, f"model.unet.level{lv}")
           for lv in range(3)},
        "model.prior.kl_ms": ms(incl, "model.prior.kl"),
        "model.sampler.ms_per_window": (
            ms(incl, "model.sampler.ddim_sample") / sum(batches)
            if batches else 0.0),
        "model.sampler.calls": len(batches),
        "model.sampler.batch_mean": (statistics.fmean(batches)
                                     if batches else 0.0),
        "losses.total_loss_ms": ms(incl, "losses.total_loss"),
        "train.step_ms.p50": statistics.median(step_ms),
        "train.step_ms.tail": max(step_ms),
        "train.optimizer_ms": ms(incl, "train.optimizer") / n_steps,
        "train.clip_ms": ms(incl, "train.clip") / n_steps,
        "checkpoint.save_ms": ms(incl, "checkpoint.save"),
        "checkpoint.load_ms": ms(incl, "checkpoint.load"),
        **{f"evaluation.{k}_ms": ms(incl, f"evaluation.{k}") for k in (
            "reconstruction_report", "anomaly_report", "generation_report",
            "rr_consistency")},
        **{f"signal.{k}_ms": ms(self_s, f"signal.{k}")
           for k in ("bandpass", "detect_peaks", "segment")},
        "cli.ingest_ms": ms(incl, "cli.ingest"),
        "trace.overhead_frac": overhead,
    })
    m.update({f"baseline.{k}": baselines[k] for k in BASELINES})
    m.update({f"quality.{k}": quality.get(k, 0.0) for k in QUALITY_UNITS})
    return m


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "generate", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                   help="tiny: small model for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so children are stopped and the
    # run's work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "vampdiff" / "cli.py").is_file():
        print(f"error: {SRC / 'vampdiff'} not found; run from a vampdiff "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SCALES, WORKLOADS, Context

    env = environment()
    scale = SCALES[args.scale]
    workload = WORKLOADS[args.workload]
    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        fixture, build_s = ensure_fixture(args.scale, scale, work)
        ctx = Context(scale=scale, seed=args.seed, work=work, fixture=fixture)
        scale.run_config(scale.train_epochs).save(ctx.train_config_path)
        setup = Setup(ctx, workload)
        setup()
        workload.prepare(ctx)
        if args.trace:
            result = traced_run(ctx, workload)
            units = per_layer_units()
        else:
            result = timed_run(ctx, workload, args.seconds, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["load_after"] = list(os.getloadavg())
    env["loaded_host"] = max(env["load_before"][0], env["load_after"][0]) \
        > env["cpus_usable"] - 0.5

    print(f"env {json.dumps(env, sort_keys=True)}")
    if env["loaded_host"]:
        print("WARNING host was loaded during this run; timings may be "
              "inflated")
    print(f"build_s {build_s:.3f} s ({'cached' if not build_s else 'built'})")
    print(f"info {json.dumps(result['info'])}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, value in result["quality"].items():
        print(f"quality {name} {value:.6g} {QUALITY_UNITS[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric error_rate {failed / attempted:.6g} ratio lower")
    metrics = {}
    for name, unit in units.items():
        if name not in result["metrics"]:
            continue
        value = float(result["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value:.6g} {unit}")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
