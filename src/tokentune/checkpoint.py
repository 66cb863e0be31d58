"""Checkpoints: a JSON header line plus little-endian raw float payload.

The header records the format version, the model config, dtype, and an
ordered manifest of parameter names, shapes, and frozen flags; the
payload is the raw bytes of each array in manifest order. The header also
records the payload's sha256. Round-trips are bit-exact. Adapter-only
checkpoints use the same container with their own manifest. A malformed
header, a version other than `VERSION`, a missing or mismatched payload
hash, or a payload whose length does not match the manifest raises
:class:`CheckpointError`. A save replaces the file at its path only once
the new file is written in full.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .adapters import LoraAdapter
from .config import ModelConfig
from .model import Parameter, TransformerModel

MODEL_MAGIC = "tokentune-checkpoint"
ADAPTER_MAGIC = "tokentune-adapters"
VERSION = 1


class CheckpointError(ValueError):
    pass


_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


def _is_dim(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _is_str(value) -> bool:
    return isinstance(value, str)


# checks per manifest field, run before loading reads any of them
_MODEL_ENTRY = {"name": _is_str, "rows": _is_dim, "cols": _is_dim,
                "frozen": lambda value: isinstance(value, bool)}
_ADAPTER_ENTRY = {"target": _is_str,
                  "r": lambda value: _is_dim(value) and value > 0,
                  "alpha": lambda value: isinstance(value, (int, float))
                  and not isinstance(value, bool),
                  "a_rows": _is_dim, "a_cols": _is_dim,
                  "b_rows": _is_dim, "b_cols": _is_dim}


def _payload_dtype(header: dict) -> np.dtype:
    name = header.get("dtype")
    if not isinstance(name, str) or name not in _DTYPE_TAGS:
        raise CheckpointError(f"unsupported checkpoint dtype {name!r}")
    return np.dtype(_DTYPE_TAGS[name])


def _entries(header: dict, key: str, schema: dict) -> list[dict]:
    """header[key]: a list of manifest entries, each passing `schema`."""
    entries = header.get(key)
    if not isinstance(entries, list):
        raise CheckpointError(f"checkpoint header has no '{key}' list")
    for entry in entries:
        if not (isinstance(entry, dict)
                and all(check(entry.get(field))
                        for field, check in schema.items())):
            raise CheckpointError(f"bad '{key}' entry in checkpoint "
                                  f"header: {entry!r}")
    return entries


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


def _read(path, magic: str) -> tuple[dict, bytes]:
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
    if not isinstance(header, dict) or header.get("format") != magic:
        raise CheckpointError(f"not a {magic} file: {path}")
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
    for name, p in model.param_items():
        entries.append({"name": name, "rows": int(p.value.shape[0]),
                        "cols": int(p.value.shape[1]),
                        "frozen": bool(p.frozen)})
        arrays.append(p.value)
    header = {
        "format": MODEL_MAGIC,
        "version": VERSION,
        "dtype": dtype.name,
        "config": dataclasses.asdict(model.config),
        "params": entries,
    }
    _write(path, header, arrays)


def _arrays(payload: bytes, tag: np.dtype, blocks) -> list[np.ndarray]:
    """Copies of the arrays `blocks` lists, as (name, rows, cols) in
    payload order, read from `payload`, which must hold exactly these
    arrays: no fewer bytes and no more."""
    arrays = []
    offset = 0
    for name, rows, cols in blocks:
        size = rows * cols * tag.itemsize
        chunk = payload[offset:offset + size]
        if len(chunk) != size:
            raise CheckpointError(f"truncated payload at '{name}'")
        arrays.append(np.frombuffer(chunk, dtype=tag).reshape(rows,
                                                              cols).copy())
        offset += size
    if offset != len(payload):
        raise CheckpointError("payload length does not match manifest")
    return arrays


def load_model(path) -> TransformerModel:
    header, payload = _read(path, MODEL_MAGIC)
    config = _model_config(header)
    tag = _payload_dtype(header)
    entries = _entries(header, "params", _MODEL_ENTRY)
    arrays = _arrays(payload, tag,
                     [(e["name"], e["rows"], e["cols"]) for e in entries])
    params = {e["name"]: Parameter(arr, frozen=bool(e["frozen"]))
              for e, arr in zip(entries, arrays)}
    return TransformerModel(config, params)


def save_adapters(model: TransformerModel, path) -> None:
    if not model.adapters:
        raise CheckpointError("model has no adapters to save")
    entries = []
    arrays = []
    for name, ad in model.adapters.items():
        entries.append({"target": name, "r": ad.r, "alpha": ad.alpha,
                        "a_rows": int(ad.a.shape[0]),
                        "a_cols": int(ad.a.shape[1]),
                        "b_rows": int(ad.b.shape[0]),
                        "b_cols": int(ad.b.shape[1])})
        arrays.extend([ad.a, ad.b])
    header = {
        "format": ADAPTER_MAGIC,
        "version": VERSION,
        "dtype": np.dtype(model.dtype).name,
        "adapters": entries,
    }
    _write(path, header, arrays)


def load_adapters(model: TransformerModel, path) -> TransformerModel:
    """Attach saved adapter factors onto a matching base model."""
    header, payload = _read(path, ADAPTER_MAGIC)
    tag = _payload_dtype(header)
    entries = _entries(header, "adapters", _ADAPTER_ENTRY)
    blocks = []
    for entry in entries:
        target = entry["target"]
        if target not in model.params:
            raise CheckpointError(f"adapter target '{target}' missing from model")
        base = model.param(target).value
        if base.shape != (entry["a_rows"], entry["b_cols"]):
            raise CheckpointError(f"adapter '{target}' shape mismatch with base")
        blocks += [(f"{target}.lora_a", entry["a_rows"], entry["a_cols"]),
                   (f"{target}.lora_b", entry["b_rows"], entry["b_cols"])]
    arrays = _arrays(payload, tag, blocks)
    for entry, a, b in zip(entries, arrays[0::2], arrays[1::2]):
        target = entry["target"]
        model.adapters[target] = LoraAdapter(
            target=target, a=a, b=b,
            scaling=float(entry["alpha"]) / float(entry["r"]),
            r=int(entry["r"]), alpha=float(entry["alpha"]))
    for p in model.params.values():
        p.frozen = True
    return model
