"""Single-file checkpoint container.

Layout: 8-byte magic, 8-byte little-endian manifest length, UTF-8 JSON
manifest, then one contiguous little-endian float32 payload holding every
array in manifest order. Writing the same state twice yields byte-identical
files.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .config import ConfigError, RunConfig
from .signal import NormStats, ParameterError

MAGIC = b"VAMPDIF1"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, config: RunConfig, arrays: dict,
                    norm_stats: NormStats | None = None,
                    meta: dict | None = None) -> None:
    """Write config, named float arrays, and optional scalar metadata."""
    entries = []
    payload = bytearray()
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float32))
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset})
        raw = arr.astype("<f4").tobytes()
        payload.extend(raw)
        offset += len(raw)
    manifest = {
        "config": config.to_dict(),
        "arrays": entries,
        "norm_stats": (None if norm_stats is None
                       else {"mu_train": norm_stats.mu_train,
                             "sigma_train": norm_stats.sigma_train}),
        "meta": meta or {},
    }
    blob = json.dumps(manifest, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        f.write(bytes(payload))


def _check_manifest(path, manifest) -> None:
    """Reject a manifest whose structure :func:`load_checkpoint` cannot
    walk, naming the field."""
    for key in ("config", "arrays"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise CheckpointError(f"{path}: manifest has no {key!r}")
    for key, kinds, what in (("config", dict, "an object"),
                             ("meta", dict, "an object"),
                             ("norm_stats", (dict, type(None)),
                              "an object or null"),
                             ("arrays", list, "a list")):
        value = manifest.get(key, {})
        if not isinstance(value, kinds):
            raise CheckpointError(f"{path}: manifest {key!r} must be {what}, "
                                  f"got {type(value).__name__}")
    for i, entry in enumerate(manifest["arrays"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: array entry {i} has no string "
                                  "'name'")
        shape, offset = entry.get("shape"), entry.get("offset")
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: array {name!r}: 'shape' must be "
                                  f"a list of non-negative ints, got {shape!r}")
        if type(offset) is not int:
            raise CheckpointError(f"{path}: array {name!r}: 'offset' must be "
                                  f"an int, got {offset!r}")


def load_checkpoint(path):
    """Read a container back; returns (config, arrays, norm_stats, meta).

    A NaN or infinite array value or norm statistic is a
    :class:`CheckpointError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint container")
    blob_len = int.from_bytes(raw[8:16], "little")
    if 16 + blob_len > len(raw):
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[16:16 + blob_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt manifest: {e}") from None
    _check_manifest(path, manifest)
    try:
        config = RunConfig.from_dict(manifest["config"])
    except ConfigError as e:
        raise CheckpointError(f"{path}: manifest config: {e}") from None
    payload = raw[16 + blob_len:]
    arrays = {}
    end = 0
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start != end:
            raise CheckpointError(f"{path}: array {entry['name']!r} at offset "
                                  f"{start}, expected {end}")
        end = start + 4 * count
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload for "
                                  f"{entry['name']!r}")
        arr = np.frombuffer(
            payload[start:end], dtype="<f4").reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {entry['name']!r} has "
                                  "non-finite values")
        arrays[entry["name"]] = arr
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} bytes after the "
                              "last array")
    ns = manifest.get("norm_stats")
    norm_stats = None
    if ns is not None:
        for key in ("mu_train", "sigma_train"):
            value = ns.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise CheckpointError(f"{path}: norm_stats {key!r} is not a "
                                      "finite number")
        try:
            norm_stats = NormStats(ns["mu_train"], ns["sigma_train"])
        except ParameterError as e:
            raise CheckpointError(f"{path}: norm_stats: {e}") from None
    return config, arrays, norm_stats, manifest.get("meta", {})


def load_params(module, arrays: dict, path) -> None:
    """Copy checkpoint arrays into ``module``'s parameters; a missing or
    mis-shaped parameter is a :class:`CheckpointError`."""
    try:
        module.load_state_arrays(arrays)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: {e.args[0]}") from None


def save_model(path, model, meta: dict | None = None) -> None:
    save_checkpoint(path, model.config, model.state_arrays(),
                    norm_stats=model.norm_stats, meta=meta)


def load_model(path):
    """Rebuild a model from a container written by :func:`save_model`."""
    from .model import VampDiffModel
    config, arrays, norm_stats, meta = load_checkpoint(path)
    model = VampDiffModel(config)
    load_params(model, arrays, path)
    model.norm_stats = norm_stats
    return model, meta
