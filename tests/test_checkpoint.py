"""Checkpoints: bit-exact round trips, CheckpointError from a save of
parameters the config does not make, and CheckpointError (exit code 2 from
`tokentune eval`) for every fault in a file read back."""

import errno
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from tokentune import checkpoint
from tokentune.adapters import attach
from tokentune.checkpoint import CheckpointError, load_model, save_model
from tokentune.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from tokentune.config import ModelConfig, RunConfig, TaskConfig, TrainConfig
from tokentune.model import build_model
from tokentune.optimize import run_training


def tiny_model(dtype="float64", n_layers=1):
    cfg = ModelConfig(vocab_size=11, max_positions=8, d_model=8, n_heads=2,
                      d_ff=12, n_layers=n_layers, causal=False, n_classes=3)
    return build_model(cfg, seed=5, dtype=dtype)


def write_checkpoint(path, header, payload):
    """Write `header` and `payload`, with the header's sha256 set to the
    digest of its other fields (sorted-key JSON) and the payload."""
    header.pop("sha256", None)
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode()
                            + payload).hexdigest()
    path.write_bytes(json.dumps({**header, "sha256": digest}).encode()
                     + b"\n" + payload)


def rewrite_header(path, edit, rehash=True):
    """Apply `edit` to the header and, if `rehash`, recompute its sha256,
    so that only the check under test can tell."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    if rehash:
        write_checkpoint(path, header, raw[nl + 1:])
    else:
        path.write_bytes(json.dumps(header).encode() + raw[nl:])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_round_trip_is_bit_exact(tmp_path, dtype):
    model = tiny_model(dtype)
    save_model(model, tmp_path / "m.ckpt")
    loaded = load_model(tmp_path / "m.ckpt")
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name, arr in model.params.items():
        got = loaded.params[name]
        assert got.dtype == arr.dtype
        assert loaded.trains(name) == model.trains(name)
        assert np.array_equal(got, arr)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_attached_model_round_trip_is_bit_exact(tmp_path, dtype):
    # a scaling of 5/3 has no short binary expansion
    model = attach(tiny_model(dtype), ("w1", "w_q"), r=3, alpha=5.0, seed=1)
    for name, arr in model.params.items():
        if name.endswith(".lora_b"):
            arr += 0.25
    save_model(model, tmp_path / "m.ckpt")
    loaded = load_model(tmp_path / "m.ckpt")
    assert loaded.lora_scaling == model.lora_scaling == 5.0 / 3.0
    assert list(loaded.params) == list(model.params)
    for name, arr in model.params.items():
        got = loaded.params[name]
        assert got.dtype == arr.dtype
        assert loaded.trains(name) == model.trains(name)
        assert np.array_equal(got, arr)


def test_plain_model_has_no_lora_scaling(tmp_path):
    save_model(tiny_model(), tmp_path / "m.ckpt")
    assert "lora" not in json.loads(
        (tmp_path / "m.ckpt").read_bytes().split(b"\n")[0])
    assert load_model(tmp_path / "m.ckpt").lora_scaling is None


def _unknown_config_key(h):
    h["config"]["bogus"] = 1


def _unsupported_dtype(h):
    h["dtype"] = "float16"


def _missing_config(h):
    del h["config"]


def _bad_config_value(h):
    h["config"]["n_heads"] = 3


def _float_dimension(h):
    # the table alone would take it: 8.0 == 8
    h["config"]["d_model"] = 8.0


def _integer_causal(h):
    h["config"]["causal"] = 0


HEADER_FAULTS = [_unknown_config_key, _unsupported_dtype, _missing_config,
                 _bad_config_value, _float_dimension, _integer_causal]


@pytest.mark.parametrize("fault", HEADER_FAULTS,
                         ids=lambda f: f.__name__.strip("_"))
def test_model_header_fault_raises_checkpoint_error(tmp_path, fault):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError):
        load_model(path)


def lora_model():
    return attach(tiny_model(), ("w1", "w_q"), r=2, alpha=4.0, seed=1)


def _missing(params):
    del params["head.w2"]


def _extra(params):
    params["head.w3"] = np.zeros((8, 3))


def _reshaped(params):
    params["layers.0.ffn.w1"] = np.zeros((16, 7))


def _orphan_lora_b(params):
    lora = lora_model().params
    params["layers.0.ffn.w1.lora_b"] = lora["layers.0.ffn.w1.lora_b"]


def _factor_without_base(params):
    lora = lora_model().params
    for name in ("layers.0.ffn.w1.lora_a", "layers.0.ffn.w1.lora_b"):
        params[name] = lora[name]
    del params["layers.0.ffn.w1"]


def _factor_on_a_bias(params):
    params["layers.0.ffn.b1.lora_a"] = np.zeros((1, 2))
    params["layers.0.ffn.b1.lora_b"] = np.zeros((2, 12))


def _factor_of_rank_0(params):
    params["layers.0.ffn.w1.lora_a"] = np.zeros((8, 0))
    params["layers.0.ffn.w1.lora_b"] = np.zeros((0, 12))


def _factors_of_two_ranks(params):
    params["layers.0.ffn.w1.lora_a"] = np.zeros((8, 2))
    params["layers.0.ffn.w1.lora_b"] = np.zeros((3, 12))


def _factors_on_layer_1_only(params):
    params["layers.1.ffn.w1.lora_a"] = np.zeros((8, 2))
    params["layers.1.ffn.w1.lora_b"] = np.zeros((2, 12))


def _two_weights_at_two_ranks(params):
    # one lora_scaling, alpha / r, presumes one r
    for i in range(2):
        for w, r, (d_in, d_out) in (("ffn.w1", 2, (8, 12)),
                                    ("attn.w_q", 3, (8, 8))):
            name = f"layers.{i}.{w}"
            params[f"{name}.lora_a"] = np.zeros((d_in, r))
            params[f"{name}.lora_b"] = np.zeros((r, d_out))


def _reordered(params):
    params["tok_emb"] = params.pop("tok_emb")


def _another_dtype(params):
    params["head.w1"] = params["head.w1"].astype(np.float32)


MANIFEST_FAULTS = [_missing, _extra, _reshaped, _orphan_lora_b,
                   _factor_without_base, _factor_on_a_bias,
                   _factor_of_rank_0, _factors_of_two_ranks,
                   _factors_on_layer_1_only, _two_weights_at_two_ranks,
                   _reordered, _another_dtype]


@pytest.mark.parametrize("fault", MANIFEST_FAULTS,
                         ids=lambda f: f.__name__.strip("_"))
def test_parameters_its_config_does_not_make_raise_checkpoint_error(
        tmp_path, fault):
    # parameters the forward would fail on or ignore, or attach not make,
    # with the scaling attach sets beside factors: saving them writes
    # nothing and keeps the earlier file
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    earlier = path.read_bytes()
    model = tiny_model(n_layers=2)
    fault(model.params)
    if any(".lora_" in name for name in model.params):
        model.lora_scaling = 2.0
    with pytest.raises(CheckpointError):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == earlier


def test_a_header_edit_that_keeps_every_shape_is_refused(tmp_path):
    # 4 heads of width 2 have the parameters of 2 heads of width 4
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, lambda h: h["config"].update(n_heads=4),
                   rehash=False)
    with pytest.raises(CheckpointError, match="sha256"):
        load_model(path)


def test_loading_peaks_near_the_file_size(tmp_path):
    cfg = ModelConfig(vocab_size=257, max_positions=64, d_model=128,
                      n_heads=4, d_ff=256, n_layers=2, causal=True,
                      n_classes=None)
    path = tmp_path / "m.ckpt"
    save_model(attach(build_model(cfg), ("w1", "w_q"), r=4), path)
    size = path.stat().st_size
    assert size >= 1 << 20
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size


def test_loading_draws_nothing(tmp_path, monkeypatch):
    model = attach(tiny_model(n_layers=2), ("w2", "w_v"), r=2, seed=1)
    save_model(model, tmp_path / "m.ckpt")

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_model(tmp_path / "m.ckpt")
    assert list(loaded.params) == list(model.params)
    assert loaded.lora_scaling == model.lora_scaling


def lora_edit(**fields):
    return lambda h: h["lora"].update(fields)


SCALING_FAULTS = {
    "missing": (lora_model, lambda h: h["lora"].pop("scaling")),
    "without-factors": (tiny_model, lambda h: h.update(
        lora={"targets": [], "r": 2, "scaling": 2.0})),
    "zero": (lora_model, lora_edit(scaling=0)),
    "negative": (lora_model, lora_edit(scaling=-1.0)),
    "nan": (lora_model, lora_edit(scaling=float("nan"))),
    "bool": (lora_model, lora_edit(scaling=True)),
    "string": (lora_model, lora_edit(scaling="2")),
}


@pytest.mark.parametrize("make,fault", SCALING_FAULTS.values(),
                         ids=SCALING_FAULTS.keys())
def test_bad_lora_scaling_raises_checkpoint_error(tmp_path, make, fault):
    path = tmp_path / "m.ckpt"
    save_model(make(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError, match="lora"):
        load_model(path)


LORA_FAULTS = {
    "not-an-object": lambda h: h.update(lora=[["w1", "w_q"], 2, 2.0]),
    "extra-field": lora_edit(alpha=4.0),
    "rank-0": lora_edit(r=0),
    "bool-rank": lora_edit(r=True),
    "float-rank": lora_edit(r=2.0),
    "unknown-target": lora_edit(targets=["w1", "w3"]),
    "repeated-target": lora_edit(targets=["w1", "w1"]),
    "string-targets": lora_edit(targets="w1"),
}


@pytest.mark.parametrize("fault", LORA_FAULTS.values(), ids=LORA_FAULTS.keys())
def test_bad_lora_block_exits_with_code_2(tmp_path, capsys, fault):
    path = tmp_path / "m.ckpt"
    save_model(lora_model(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError, match="lora"):
        load_model(path)
    config = tmp_path / "run.json"
    config.write_text("{}")
    assert main(["eval", "--config", str(config), "--checkpoint", str(path)]) \
        == EXIT_BAD_CONFIG
    assert "checkpoint error" in capsys.readouterr().err


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


def test_eval_exits_with_code_2_on_a_checkpoint_path_that_is_a_directory(
        tmp_path, capsys):
    # a run directory, passed in place of the model.ckpt inside it
    with pytest.raises(CheckpointError, match="no checkpoint file"):
        load_model(tmp_path)
    config = tmp_path / "run.json"
    config.write_text("{}")
    code = main(["eval", "--config", str(config),
                 "--checkpoint", str(tmp_path)])
    assert code == EXIT_BAD_CONFIG
    assert "checkpoint error" in capsys.readouterr().err


VERSION_FAULTS = {"missing": lambda h: h.pop("version"),
                  "1": lambda h: h.update(version=1),
                  "2": lambda h: h.update(version=2),
                  "string-2": lambda h: h.update(version="2"),
                  "string-3": lambda h: h.update(version="3")}


@pytest.mark.parametrize("fault", VERSION_FAULTS.values(),
                         ids=VERSION_FAULTS.keys())
def test_another_version_raises_checkpoint_error(tmp_path, capsys, fault):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, fault)
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)
    config = tmp_path / "run.json"
    config.write_text("{}")
    assert main(["eval", "--config", str(config), "--checkpoint", str(path)]) \
        == EXIT_BAD_CONFIG
    assert "version" in capsys.readouterr().err


def test_a_version_3_checkpoint_is_refused(tmp_path, capsys):
    # version 3 was trained with erf-GELU, which the tanh form replaced
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, lambda h: h.update(version=3))
    with pytest.raises(CheckpointError, match=r"version 3 \(expected 4\)"):
        load_model(path)
    config = tmp_path / "run.json"
    config.write_text("{}")
    assert main(["eval", "--config", str(config), "--checkpoint", str(path)]) \
        == EXIT_BAD_CONFIG
    assert "version 3 (expected 4)" in capsys.readouterr().err


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


def test_header_without_payload_hash_raises_checkpoint_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_model(tiny_model(), path)
    rewrite_header(path, lambda h: h.pop("sha256"), rehash=False)
    with pytest.raises(CheckpointError, match="sha256"):
        load_model(path)


def resize_payload(path, trailing: bytes = b"", cut: int = 0):
    """Append `trailing` bytes to the payload or drop its last `cut`,
    and rewrite the header's sha256 to match, so only the length the
    config's parameter table gives can tell."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    write_checkpoint(path, json.loads(raw[:nl]),
                     raw[nl + 1:len(raw) - cut] + trailing)


@pytest.mark.parametrize("fault,message", [
    ({"trailing": bytes(8)}, "payload longer than"),
    ({"cut": 8}, "truncated payload"),
], ids=["trailing", "truncated"])
def test_payload_not_matching_its_manifest_raises_checkpoint_error(
        tmp_path, fault, message):
    path = tmp_path / "c.ckpt"
    save_model(tiny_model(), path)
    resize_payload(path, **fault)
    with pytest.raises(CheckpointError, match=message):
        load_model(path)


def test_eval_exits_with_code_2_on_a_flipped_payload_byte(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_model(lora_model(), path)
    flip_payload_byte(path)
    config = tmp_path / "run.json"
    config.write_text("{}")
    code = main(["eval", "--config", str(config), "--checkpoint", str(path)])
    assert code == EXIT_BAD_CONFIG
    assert "sha256" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ["lora", "tokentune+lora"])
def test_eval_of_an_adapter_run_reads_its_model_checkpoint_alone(
        tmp_path, capsys, regime):
    # the model checkpoint holds the trained factors beside the base
    cfg = RunConfig(
        model=ModelConfig(vocab_size=32, max_positions=16, d_model=8,
                          n_heads=2, d_ff=12, n_layers=1),
        train=TrainConfig(regime=regime, k=4 if regime != "lora" else None,
                          batch_size=3, learning_rate=1e-2, seed=4),
        task=TaskConfig(n_train=6, n_test=3, seq_len=12))
    run = tmp_path / "run"
    result = run_training(cfg, run)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg.to_dict()))
    assert sorted(p.name for p in run.iterdir()) == [
        "config.json", "eval.json", "memory.json", "metrics.jsonl",
        "model.ckpt", "timings.jsonl"]
    assert main(["eval", "--config", str(config),
                 "--checkpoint", result.checkpoint_path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == result.eval_metrics
    assert json.loads((run / "eval.json").read_text()) == result.eval_metrics


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
    saved = {name: arr.copy() for name, arr in model.params.items()}
    for arr in model.params.values():
        arr += 1.0
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
        assert np.array_equal(loaded.params[name], value)
