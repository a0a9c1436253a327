"""Output files are replaced atomically: a write that fails part-way
leaves the previous file intact and no temporary file behind."""
import os

import numpy as np
import pytest

import vampdiff.atomic
from vampdiff.atomic import atomic_open
from vampdiff.checkpoint import save_checkpoint
from vampdiff.cli import _histogram_csv, _write_kv_csv, write_recording_csv
from vampdiff.config import desk_config

WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(
        path, desk_config(), {"a": np.full(300, v)}),
    "recording": lambda path, v: write_recording_csv(
        path, 75.0, np.full(40, v)),
    "kv_report": lambda path, v: _write_kv_csv(
        path, [(f"m{i}", v) for i in range(40)]),
    "histogram": lambda path, v: _histogram_csv(path, np.arange(40.0) * v),
    "config": lambda path, v: desk_config(seed=int(v)).save(path),
}


class FailingFile:
    """A file whose writes fail, as on a full disk, once 16 bytes or
    characters are in."""

    def __init__(self, f):
        self.f, self.n = f, 0

    def write(self, data):
        if self.n + len(data) > 16:
            self.f.write(data[:16 - self.n])
            raise OSError(28, "No space left on device")
        self.n += len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out"
    WRITERS[writer](path, 1.0)
    before = path.read_bytes()
    monkeypatch.setattr(vampdiff.atomic, "open",
                        lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](path, 2.0)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out"]


def test_successful_write_replaces_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_open(path) as f:
        f.write("new\r\n")
        assert path.read_text() == "old\n"
    assert path.read_bytes() == b"new\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert path.stat().st_mode == plain.stat().st_mode
