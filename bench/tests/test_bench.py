"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

The smoke runs use the ``tiny`` scale, so they check the harness and not
the numbers; the coverage test traces a desk-scale training command.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SCALES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_end_to_end_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units()


def _run(argv, log):
    rc, _, _ = run.spawn(argv, log)
    assert rc == 0, log.read_text()


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    cfg = tmp_path / "config.json"
    SCALES["tiny"].run_config(2).save(cfg)
    data = tmp_path / "data"
    log = tmp_path / "log"
    _run(run.cli(["synth", "--config", str(cfg), "--out", str(data)]), log)
    traced_cli = [sys.executable, str(BENCH / "traced_cli.py"),
                  str(tmp_path / "trace.json"), "--"]
    for prefix, name in ((run.cli([]), "plain"), (traced_cli, "traced")):
        out = tmp_path / name
        _run(prefix + ["train", "--config", str(cfg), "--data", str(data),
                       "--out", str(out / "run")], log)
        _run(prefix + ["generate", "--ckpt", str(out / "run" / "model.vdp"),
                       "--num", "3", "--seed", "5",
                       "--out", str(out / "gen.csv")], log)
    assert run.tree_digest(tmp_path / "plain") \
        == run.tree_digest(tmp_path / "traced")
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["calls"]["conv1d"] > 0 and trace["sampler_batches"] == [3]


def _bindings():
    import vampdiff.cli  # noqa: F401  (loads every traced module)

    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name.startswith("vampdiff") and mod is not None
            for attr, value in vars(mod).items()
            if callable(value)} | {
        (cls.__name__, meth): cls.__dict__[meth]
        for cls, meth in _traced_methods()}


def _traced_methods():
    from tracer import METHODS

    return [(getattr(sys.modules[m], c), meth) for m, c, meth, _ in METHODS]


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    patched = _bindings()
    tracer.uninstall()
    after = _bindings()
    assert any(patched[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)


def test_train_coverage_at_desk_scale(tmp_path):
    cfg = tmp_path / "config.json"
    SCALES["desk"].run_config(SCALES["desk"].train_epochs).save(cfg)
    data = tmp_path / "data"
    log = tmp_path / "log"
    _run(run.cli(["synth", "--config", str(cfg), "--out", str(data)]), log)
    _run([sys.executable, str(BENCH / "traced_cli.py"),
          str(tmp_path / "trace.json"), "--", "train", "--config", str(cfg),
          "--data", str(data), "--out", str(tmp_path / "run")], log)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert len(trace["steps"]) == 12
    assert trace["hot_op_s"] / trace["hot_s"] >= 0.9
