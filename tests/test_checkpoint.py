"""Checkpoints: bit-exact round trips, and CheckpointError (exit code 2
from `tokentune eval`) for every fault in a header read back."""

import errno
import hashlib
import json

import numpy as np
import pytest

from tokentune import checkpoint
from tokentune.adapters import attach
from tokentune.checkpoint import (CheckpointError, load_adapters, load_model,
                                  save_adapters, save_model)
from tokentune.cli import EXIT_BAD_CONFIG, main
from tokentune.config import ModelConfig
from tokentune.model import build_model


def tiny_model(dtype="float64"):
    cfg = ModelConfig(vocab_size=11, max_positions=8, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=False, n_classes=3)
    return build_model(cfg, seed=5, dtype=dtype)


def rewrite_header(path, edit):
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_round_trip_is_bit_exact(tmp_path, dtype):
    model = tiny_model(dtype)
    model.params["head.w1"].frozen = True
    save_model(model, tmp_path / "m.ckpt")
    loaded = load_model(tmp_path / "m.ckpt")
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        q = loaded.params[name]
        assert q.value.dtype == p.value.dtype and q.frozen == p.frozen
        assert np.array_equal(q.value, p.value)


def test_adapter_round_trip_is_bit_exact(tmp_path):
    model = attach(tiny_model(), ("w1", "w_q"), r=2, alpha=4.0, seed=1)
    for ad in model.adapters.values():
        ad.b += 0.25
    save_adapters(model, tmp_path / "a.ckpt")
    loaded = load_adapters(tiny_model(), tmp_path / "a.ckpt")
    assert list(loaded.adapters) == list(model.adapters)
    for name, ad in model.adapters.items():
        got = loaded.adapters[name]
        assert np.array_equal(got.a, ad.a) and np.array_equal(got.b, ad.b)
        assert (got.r, got.alpha, got.scaling) == (ad.r, ad.alpha, ad.scaling)


def _unknown_config_key(h):
    h["config"]["bogus"] = 1


def _unsupported_dtype(h):
    h["dtype"] = "float16"


def _missing_params(h):
    del h["params"]


def _bad_config_value(h):
    h["config"]["n_heads"] = 3


def _entry_without_shape(h):
    del h["params"][0]["rows"]


HEADER_FAULTS = [_unknown_config_key, _unsupported_dtype, _missing_params,
                 _bad_config_value, _entry_without_shape]


@pytest.mark.parametrize("fault", HEADER_FAULTS,
                         ids=lambda f: f.__name__.strip("_"))
def test_model_header_fault_raises_checkpoint_error(tmp_path, fault):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError):
        load_model(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(dtype="float16"),
    lambda h: h.pop("adapters"),
    lambda h: h["adapters"][0].update(r=0),
], ids=["dtype-float16", "no-adapters", "rank-0"])
def test_adapter_header_fault_raises_checkpoint_error(tmp_path, edit):
    path = tmp_path / "a.ckpt"
    save_adapters(attach(tiny_model(), ("w1",), r=2, seed=1), path)
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError):
        load_adapters(tiny_model(), path)


@pytest.mark.parametrize("fault", HEADER_FAULTS[:3],
                         ids=lambda f: f.__name__.strip("_"))
def test_eval_exits_with_code_2_on_a_header_fault(tmp_path, capsys, fault):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, fault)
    config = tmp_path / "run.json"
    config.write_text("{}")
    code = main(["eval", "--config", str(config), "--checkpoint", str(path)])
    assert code == EXIT_BAD_CONFIG
    assert "checkpoint error" in capsys.readouterr().err


VERSION_FAULTS = {"missing": lambda h: h.pop("version"),
                  "2": lambda h: h.update(version=2),
                  "string-1": lambda h: h.update(version="1")}


@pytest.mark.parametrize("fault", VERSION_FAULTS.values(),
                         ids=VERSION_FAULTS.keys())
def test_another_version_raises_checkpoint_error(tmp_path, capsys, fault):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)
    adapters = tmp_path / "a.ckpt"
    save_adapters(attach(tiny_model(), ("w1",), r=2, seed=1), adapters)
    rewrite_header(adapters, fault)
    with pytest.raises(CheckpointError, match="version"):
        load_adapters(tiny_model(), adapters)
    config = tmp_path / "run.json"
    config.write_text("{}")
    save_model(tiny_model(), tmp_path / "ok.ckpt")
    for args in (["--checkpoint", str(path)],
                 ["--checkpoint", str(tmp_path / "ok.ckpt"),
                  "--adapters", str(adapters)]):
        assert main(["eval", "--config", str(config), *args]) \
            == EXIT_BAD_CONFIG
        assert "version" in capsys.readouterr().err


def flip_payload_byte(path, offset=5):
    """Invert every bit of one payload byte, `offset` bytes past the
    header line."""
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"\n") + 1 + offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_flipped_payload_byte_raises_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    flip_payload_byte(path)
    with pytest.raises(CheckpointError, match="sha256"):
        load_model(path)
    adapters = tmp_path / "a.ckpt"
    save_adapters(attach(tiny_model(), ("w1",), r=2, seed=1), adapters)
    flip_payload_byte(adapters)
    with pytest.raises(CheckpointError, match="sha256"):
        load_adapters(tiny_model(), adapters)


@pytest.mark.parametrize("kind", ["model", "adapters"])
def test_header_without_payload_hash_raises_checkpoint_error(tmp_path, kind):
    path = tmp_path / "c.ckpt"
    if kind == "model":
        save_model(tiny_model(), path)
    else:
        save_adapters(attach(tiny_model(), ("w1",), r=2, seed=1), path)
    rewrite_header(path, lambda h: h.pop("sha256"))
    with pytest.raises(CheckpointError, match="sha256"):
        if kind == "model":
            load_model(path)
        else:
            load_adapters(tiny_model(), path)


def resize_payload(path, trailing: bytes = b"", cut: int = 0):
    """Append `trailing` bytes to the payload or drop its last `cut`,
    and rewrite the header's sha256 to match, so only the manifest can
    tell."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    payload = raw[nl + 1:len(raw) - cut] + trailing
    header = json.loads(raw[:nl])
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("fault,message", [
    ({"trailing": bytes(8)}, "payload length does not match manifest"),
    ({"cut": 8}, "truncated payload"),
], ids=["trailing", "truncated"])
@pytest.mark.parametrize("kind", ["model", "adapters"])
def test_payload_not_matching_its_manifest_raises_checkpoint_error(
        tmp_path, kind, fault, message):
    path = tmp_path / "c.ckpt"
    if kind == "model":
        save_model(tiny_model(), path)
    else:
        save_adapters(attach(tiny_model(), ("w1",), r=2, seed=1), path)
    resize_payload(path, **fault)
    base = tiny_model()
    with pytest.raises(CheckpointError, match=message):
        if kind == "model":
            load_model(path)
        else:
            load_adapters(base, path)
    # a refused adapter file leaves the base model as it was
    assert not base.adapters
    assert not any(p.frozen for p in base.params.values())


@pytest.mark.parametrize("flipped", ["checkpoint", "adapters"])
def test_eval_exits_with_code_2_on_a_flipped_payload_byte(tmp_path, capsys,
                                                         flipped):
    path = tmp_path / "m.ckpt"
    adapters = tmp_path / "a.ckpt"
    model = tiny_model()
    save_model(model, path)
    save_adapters(attach(model, ("w1",), r=2, seed=1), adapters)
    flip_payload_byte(path if flipped == "checkpoint" else adapters)
    config = tmp_path / "run.json"
    config.write_text("{}")
    code = main(["eval", "--config", str(config), "--checkpoint", str(path),
                 "--adapters", str(adapters)])
    assert code == EXIT_BAD_CONFIG
    assert "sha256" in capsys.readouterr().err


class FullDisk:
    """A file that takes its first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        if self.writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    model = tiny_model()
    save_model(model, path)
    saved = {name: p.value.copy() for name, p in model.params.items()}
    for p in model.params.values():
        p.value += 1.0
    monkeypatch.setattr(checkpoint, "open",
                        lambda name, mode: FullDisk(open(name, mode)),
                        raising=False)
    with pytest.raises(OSError) as err:
        save_model(model, path)
    assert err.value.errno == errno.ENOSPC
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [path]
    loaded = load_model(path)
    for name, value in saved.items():
        assert np.array_equal(loaded.params[name].value, value)
