"""Checkpoints: a JSON header line plus little-endian raw float payload.

The header holds the format, `VERSION`, the dtype and the model config,
and, for a model with LoRA factors, `lora = {targets, r, scaling}`. It
names no parameter: the payload is every array of the table
`model.param_specs(config, targets, r)`, in its order. The header's sha256
covers its other fields (JSON, sorted keys) and then the payload, so an
edit to either is refused. Round-trips are bit-exact, the LoRA scaling
included, so a loaded model trains what the saved one did.

`save_model` refuses, writing nothing, a model whose parameters (names,
order, shapes, dtype) are not that table for the targets and rank r of
its layer-0 factors. `load_model` raises
:class:`CheckpointError` for a malformed header, a version other than
`VERSION`, a bad dtype, config or `lora` block, a missing or mismatched
sha256, a payload shorter or longer than the table, and a path that is
no regular file. A save replaces the file at its path only once the new
file is written in full.
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

from .config import ModelConfig, targets_fault
from .model import TARGET_SUFFIXES, TransformerModel, param_specs

MAGIC = "tokentune-checkpoint"
#: 3 since the header names no parameter and its sha256 covers the header
VERSION = 3


class CheckpointError(ValueError):
    pass


_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _table(header: dict):
    """The config, payload dtype, parameter table and LoRA scaling (None
    without factors) a header describes."""
    name = header.get("dtype")
    if not isinstance(name, str) or name not in _DTYPE_TAGS:
        raise CheckpointError(f"unsupported checkpoint dtype {name!r}")
    fields = header.get("config")
    if not isinstance(fields, dict):
        raise CheckpointError("checkpoint header has no 'config' object")
    try:
        config = ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad model config in checkpoint header: "
                              f"{exc}") from exc
    tag = np.dtype(_DTYPE_TAGS[name])
    if "lora" not in header:
        return config, tag, param_specs(config), None
    lora = header["lora"]
    if not isinstance(lora, dict) or set(lora) != {"targets", "r", "scaling"}:
        raise CheckpointError(f"checkpoint lora block must hold targets, r "
                              f"and scaling, not {lora!r}")
    targets, r, scaling = lora["targets"], lora["r"], lora["scaling"]
    if fault := targets_fault(targets):
        raise CheckpointError(f"checkpoint lora targets {fault}")
    if type(r) is not int or r < 1:
        raise CheckpointError(f"checkpoint lora r must be an integer >= 1, "
                              f"not {r!r}")
    if isinstance(scaling, bool) or not isinstance(scaling, (int, float)) \
            or not math.isfinite(scaling) or scaling <= 0:
        raise CheckpointError(f"checkpoint lora scaling must be a positive "
                              f"number, not {scaling!r}")
    return config, tag, param_specs(config, tuple(targets), r), float(scaling)


def save_model(model: TransformerModel, path) -> None:
    dtype = np.dtype(model.dtype)
    header = {"format": MAGIC, "version": VERSION, "dtype": dtype.name,
              "config": dataclasses.asdict(model.config)}
    ranks = {t: model.params[f"layers.0.{suffix}.lora_a"].shape[1]
             for t, suffix in TARGET_SUFFIXES.items()
             if f"layers.0.{suffix}.lora_a" in model.params}
    if ranks or model.lora_scaling is not None:
        header["lora"] = {"targets": list(ranks),
                          "r": next(iter(ranks.values()), 0),
                          "scaling": model.lora_scaling}
    _, tag, specs, _ = _table(header)
    got = [(name, arr.shape, arr.dtype.name)
           for name, arr in model.params.items()]
    want = [(name, (rows, cols), dtype.name)
            for name, (rows, cols, _) in specs.items()]
    for have, made in itertools.zip_longest(got, want):
        if have != made:
            raise CheckpointError(f"model has {have or 'nothing'} where its "
                                  f"config makes {made or 'nothing'}")
    arrays = [np.ascontiguousarray(arr, dtype=tag)
              for arr in model.params.values()]
    digest = hashlib.sha256(_canonical(header))
    for arr in arrays:
        digest.update(arr)
    header["sha256"] = digest.hexdigest()
    # written beside `path`, then swapped in: a write that fails partway
    # leaves the earlier file at `path` as it was
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_canonical(header) + b"\n")
            for arr in arrays:
                fh.write(arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path) -> TransformerModel:
    """The model saved at `path`; each array is read from the file into its
    own buffer, and hashed as it is read."""
    if not Path(path).is_file():
        raise CheckpointError(f"no checkpoint file at {path}")
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"corrupted checkpoint header: {exc}") \
                from exc
        if not line.endswith(b"\n") or not isinstance(header, dict) \
                or header.get("format") != MAGIC:
            raise CheckpointError(f"not a {MAGIC} file: {path}")
        version = header.get("version")
        if type(version) is not int or version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version "
                                  f"{version!r} (expected {VERSION}): {path}")
        expected = header.pop("sha256", None)
        if not isinstance(expected, str):
            raise CheckpointError(f"checkpoint header has no sha256: {path}")
        config, tag, specs, scaling = _table(header)
        digest = hashlib.sha256(_canonical(header))
        params = {}
        for name, (rows, cols, _) in specs.items():
            params[name] = value = np.empty((rows, cols), dtype=tag)
            if fh.readinto(value) != value.nbytes:
                raise CheckpointError(f"truncated payload at '{name}': {path}")
            digest.update(value)
        if fh.read(1):
            raise CheckpointError(f"payload longer than its config's "
                                  f"parameters: {path}")
    if digest.hexdigest() != expected:
        raise CheckpointError(f"checkpoint does not match its sha256: {path}")
    return TransformerModel(config, params, scaling)
