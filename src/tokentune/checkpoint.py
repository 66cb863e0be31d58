"""Checkpoints: a JSON header line plus little-endian raw float payload.

The header records the format version, the model config, dtype, an
ordered manifest of parameter names, shapes, and frozen flags, and, for a
model with LoRA factors, its `lora_scaling`; the payload is the raw bytes
of each array in manifest order, factors included. The header also
records the payload's sha256. Round-trips are bit-exact. A malformed
header, a version other than `VERSION`, a missing or mismatched payload
hash, or a payload whose length does not match the manifest raises
:class:`CheckpointError`. So does a manifest other than the table
`model.param_specs` gives for the config, in its order and shapes, with
LoRA factors, if any, on the weights that carry them on layer 0 and at
their rank r >= 1; and a `lora_scaling` that is not a positive number
exactly when factors are present. A save replaces the file at its path
only once the new file is written in full.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .model import TARGET_SUFFIXES, Parameter, TransformerModel, param_specs

MAGIC = "tokentune-checkpoint"
#: 2 since LoRA factors are stored as parameters: a reader of version 1
#: would drop them
VERSION = 2


class CheckpointError(ValueError):
    pass


_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


def _is_dim(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


# checks per manifest field, run before loading reads any of them
_ENTRY = {"name": lambda value: isinstance(value, str),
          "rows": _is_dim, "cols": _is_dim,
          "frozen": lambda value: isinstance(value, bool)}


def _payload_dtype(header: dict) -> np.dtype:
    name = header.get("dtype")
    if not isinstance(name, str) or name not in _DTYPE_TAGS:
        raise CheckpointError(f"unsupported checkpoint dtype {name!r}")
    return np.dtype(_DTYPE_TAGS[name])


def _entries(header: dict) -> list[dict]:
    """The header's manifest: a list of entries, each passing `_ENTRY`,
    with no name twice."""
    entries = header.get("params")
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint header has no 'params' list")
    for entry in entries:
        if not (isinstance(entry, dict)
                and all(check(entry.get(field))
                        for field, check in _ENTRY.items())):
            raise CheckpointError(f"bad 'params' entry in checkpoint "
                                  f"header: {entry!r}")
    if len({entry["name"] for entry in entries}) != len(entries):
        raise CheckpointError("checkpoint manifest names a parameter twice")
    return entries


def _check_manifest(config: ModelConfig,
                    shapes: dict[str, tuple[int, int]]) -> bool:
    """Refuse a manifest, name -> (rows, cols), other than the table
    `param_specs(config, targets, r)`, where the targets are the weights
    with a '.lora_a' factor on layer 0 and r is the rank of the first;
    return whether it holds factors."""
    ranks = {t: shapes[f"layers.0.{suffix}.lora_a"][1]
             for t, suffix in TARGET_SUFFIXES.items()
             if f"layers.0.{suffix}.lora_a" in shapes}
    r = next(iter(ranks.values()), 0)
    if ranks and r < 1:
        raise CheckpointError(f"LoRA factors of rank {r}")
    want = {name: (rows, cols) for name, (rows, cols, _)
            in param_specs(config, tuple(ranks), r).items()}
    for got, made in itertools.zip_longest(shapes.items(), want.items()):
        if got != made:
            raise CheckpointError(f"checkpoint has {got or 'nothing'} "
                                  f"where its config makes "
                                  f"{made or 'nothing'}")
    return bool(ranks)


def _lora_scaling(header: dict, factors: bool) -> float | None:
    """The header's `lora_scaling`: a positive number with factors, absent
    without them."""
    if not factors:
        if "lora_scaling" in header:
            raise CheckpointError("checkpoint has a lora_scaling but no "
                                  "LoRA factors")
        return None
    value = header.get("lora_scaling")
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise CheckpointError(f"LoRA factors need a positive lora_scaling, "
                              f"not {value!r}")
    return float(value)


def _model_config(header: dict) -> ModelConfig:
    fields = header.get("config")
    if not isinstance(fields, dict):
        raise CheckpointError("checkpoint header has no 'config' object")
    try:
        return ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad model config in checkpoint header: "
                              f"{exc}") from exc


def _write(path, header: dict, arrays: list[np.ndarray]) -> None:
    """Write `header`, with the payload's sha256 added, and the payload to
    a temporary file beside `path`, then swap it in with os.replace: a
    write that fails partway leaves the earlier file at `path` as it was,
    and removes the temporary one."""
    path = Path(path)
    payload = b"".join(np.ascontiguousarray(arr).astype(
        arr.dtype.newbyteorder("<"), copy=False).tobytes() for arr in arrays)
    digest = hashlib.sha256(payload).hexdigest()
    blob = json.dumps({**header, "sha256": digest},
                      sort_keys=True).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob + b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path) -> tuple[dict, bytes]:
    p = Path(path)
    if not p.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = p.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"corrupted checkpoint (no header): {path}")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupted checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != MAGIC:
        raise CheckpointError(f"not a {MAGIC} file: {path}")
    version = header.get("version")
    if type(version) is not int or version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r} "
                              f"(expected {VERSION}): {path}")
    payload = raw[nl + 1:]
    expected = header.get("sha256")
    if not isinstance(expected, str):
        raise CheckpointError(f"checkpoint header has no payload sha256: "
                              f"{path}")
    if hashlib.sha256(payload).hexdigest() != expected:
        raise CheckpointError(f"checkpoint payload does not match its "
                              f"sha256: {path}")
    return header, payload


def save_model(model: TransformerModel, path) -> None:
    dtype = np.dtype(model.dtype)
    entries = []
    arrays = []
    for name, p in model.params.items():
        entries.append({"name": name, "rows": int(p.value.shape[0]),
                        "cols": int(p.value.shape[1]),
                        "frozen": bool(p.frozen)})
        arrays.append(p.value)
    header = {
        "format": MAGIC,
        "version": VERSION,
        "dtype": dtype.name,
        "config": dataclasses.asdict(model.config),
        "params": entries,
    }
    if model.lora_scaling is not None:
        header["lora_scaling"] = model.lora_scaling
    _write(path, header, arrays)


def _params(payload: bytes, tag: np.dtype,
            entries: list[dict]) -> dict[str, Parameter]:
    """The parameters the manifest `entries` lists, read in order from
    `payload`, which must hold exactly their arrays: no fewer bytes and no
    more."""
    params = {}
    offset = 0
    for e in entries:
        size = e["rows"] * e["cols"] * tag.itemsize
        chunk = payload[offset:offset + size]
        if len(chunk) != size:
            raise CheckpointError(f"truncated payload at '{e['name']}'")
        value = np.frombuffer(chunk, dtype=tag).reshape(e["rows"], e["cols"])
        params[e["name"]] = Parameter(value.copy(), frozen=e["frozen"])
        offset += size
    if offset != len(payload):
        raise CheckpointError("payload length does not match manifest")
    return params


def load_model(path) -> TransformerModel:
    header, payload = _read(path)
    config = _model_config(header)
    tag = _payload_dtype(header)
    entries = _entries(header)
    factors = _check_manifest(
        config, {e["name"]: (e["rows"], e["cols"]) for e in entries})
    return TransformerModel(config, _params(payload, tag, entries),
                            _lora_scaling(header, factors))
