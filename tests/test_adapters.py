"""Low-rank adapter semantics: zero-init identity, trainability surface,
the factors' places in the parameter table, and frozen-base
immutability."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tokentune.adapters import AdapterError, attach
from tokentune.config import ModelConfig, TrainConfig
from tokentune.engine import Tape
from tokentune.model import build_model, forward_hidden
from tokentune.optimize import AdamState, Trainer, adam_step


def cfg_for(causal=False):
    return ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                       d_ff=12, n_layers=2, causal=causal,
                       n_classes=None if causal else 2)


def seq_for(seed=0, n=6):
    r = np.random.default_rng(seed)
    ids = r.integers(2, 13, size=n)
    ids[0] = 1
    return ids


def hidden_values(model, seq):
    t = Tape()
    with t.no_grad():
        return forward_hidden(t, model, seq).value


def test_zero_init_adapter_is_bitwise_identity():
    base = build_model(cfg_for(), seed=0, dtype="float64")
    seq = seq_for()
    before = hidden_values(base, seq)
    attach(base, ("w1", "w2"), r=4, alpha=8.0)
    after = hidden_values(base, seq)
    assert np.array_equal(before, after)


def test_full_rank_adapter_can_represent_any_delta():
    model = build_model(cfg_for(), seed=1, dtype="float64")
    name = "layers.0.ffn.w1"
    w = model.param(name)
    d_in, d_out = w.shape
    delta = np.random.default_rng(3).normal(size=(d_in, d_out))
    attach(model, ("w1",), r=d_in, alpha=float(d_in))  # scaling = 1
    model.params[f"{name}.lora_a"] = np.eye(d_in)
    model.params[f"{name}.lora_b"] = delta.copy()
    x = np.random.default_rng(4).normal(size=(3, d_in))
    t = Tape()
    from tokentune.model import affine
    out = affine(t, model, t.constant(x), name).value
    assert np.abs(out - x @ (w + delta)).max() < 1e-12


def test_gradstore_contains_only_adapter_factors():
    model = build_model(cfg_for(), seed=2, dtype="float64")
    attach(model, ("w1", "w2"), r=2, alpha=4.0)
    seq = seq_for(2)
    from tokentune.model import loss_classification_rows
    tape = Tape()
    h = forward_hidden(tape, model, seq)
    loss = loss_classification_rows(tape, model, h, 1)
    grads = tape.backward(loss)
    assert grads  # nontrivial
    assert all(name.endswith((".lora_a", ".lora_b")) for name in grads)


def test_attach_stores_each_factor_pair_as_parameters_after_its_weight():
    model = attach(build_model(cfg_for(), seed=9), ("w2", "w1"), r=3,
                   alpha=6.0)
    assert model.lora_scaling == 2.0
    names = list(model.params)
    for i in range(2):
        for w, (d_in, d_out) in (("w1", (8, 12)), ("w2", (12, 8))):
            base = f"layers.{i}.ffn.{w}"
            at = names.index(base)
            assert names[at + 1:at + 3] == [f"{base}.lora_a",
                                            f"{base}.lora_b"]
            assert model.param(f"{base}.lora_a").shape == (d_in, 3)
            assert model.param(f"{base}.lora_b").shape == (3, d_out)
    assert [name for name, _ in model.trainable_arrays()] \
        == [name for name in names if ".lora_" in name]
    with pytest.raises(AdapterError, match="already attached"):
        attach(model, ("w1",), r=2)


@pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan])
def test_a_scaling_not_above_0_errors(alpha):
    model = build_model(cfg_for(), seed=6)
    with pytest.raises(AdapterError, match="alpha"):
        attach(model, ("w1",), r=2, alpha=alpha)
    assert model.lora_scaling is None


def test_unknown_target_errors():
    model = build_model(cfg_for(), seed=6)
    with pytest.raises(AdapterError):
        attach(model, ("w1", "nonsense"), r=2, alpha=4.0)


def test_frozen_base_never_changes_across_optimizer_steps():
    model = build_model(cfg_for(), seed=7, dtype="float64")
    attach(model, ("w1", "w2"), r=2, alpha=4.0)
    snapshot = {name: arr.copy() for name, arr in model.params.items()
                if not model.trains(name)}
    assert len(snapshot) == len(build_model(cfg_for()).params)

    from tokentune.data import gen_classification
    data = gen_classification(8, 8, 2, 0.2, seed=0, vocab_size=13)
    cfg = TrainConfig(regime="lora", batch_size=4, learning_rate=1e-2,
                      dtype="float64")
    trainer = Trainer(model, cfg, "classification")
    for _ in range(4):
        trainer.train_step(data[:4])
    for name, value in snapshot.items():
        assert np.array_equal(model.param(name), value), name
    moved = [name for name, arr in model.params.items()
             if name.endswith(".lora_b") and np.abs(arr).max() > 0]
    assert moved  # the factors actually trained


def adapter_adam_elements(r):
    model = build_model(cfg_for(), seed=8, dtype="float64")
    attach(model, ("w1", "w2"), r=r, alpha=2.0 * r)
    return AdamState(model).element_count()


def test_optimizer_state_scales_with_rank_not_product():
    cfg = cfg_for()
    d, dff, layers = cfg.d_model, cfg.d_ff, cfg.n_layers
    # Adam keeps m and v for each trainable array: the factors of w1
    # (d x r, r x dff) and w2 (dff x r, r x d) here, the dense d x dff w1 and
    # dff x d w2 without adapters. Factors are smaller only below the bound.
    dense_state_elements = 2 * layers * (d * dff * 2)
    bound = Fraction(d * dff, d + dff)  # 24/5 for the 8 x 12 fixture
    r_low, r_high = math.ceil(bound) - 1, math.ceil(bound)

    count = adapter_adam_elements(r_low)
    assert count == 2 * layers * (r_low * (d + dff) + r_low * (dff + d))
    assert adapter_adam_elements(2 * r_low) == 2 * count
    assert r_low < bound
    assert count < dense_state_elements
    for r in (r_high, 2 * r_low):
        assert r >= bound
        assert adapter_adam_elements(r) >= dense_state_elements, r
