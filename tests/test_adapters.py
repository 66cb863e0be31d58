"""Low-rank adapter semantics: zero-init identity, trainability surface,
merging, and frozen-base immutability."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tokentune.adapters import AdapterError, attach, merge
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
    w = model.param(name).value
    d_in, d_out = w.shape
    delta = np.random.default_rng(3).normal(size=(d_in, d_out))
    attach(model, ("w1",), r=d_in, alpha=float(d_in))  # scaling = 1
    model.adapters[name].a = np.eye(d_in)
    model.adapters[name].b = delta.copy()
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


def test_merge_preserves_forward_within_float32_tolerance():
    model = build_model(cfg_for(), seed=3, dtype="float32")
    attach(model, ("w1", "w2", "w_q"), r=2, alpha=4.0)
    r = np.random.default_rng(5)
    for ad in model.adapters.values():
        ad.b += r.normal(0, 0.05, ad.b.shape).astype(np.float32)
    seq = seq_for(3)
    adapted = hidden_values(model, seq)
    merge(model)
    merged = hidden_values(model, seq)
    assert not model.adapters
    assert np.abs(adapted - merged).max() < 1e-6


def test_merge_zero_adapter_keeps_base_bitwise():
    model = build_model(cfg_for(), seed=4, dtype="float32")
    attach(model, ("w2",), r=2, alpha=4.0)
    before = model.param("layers.0.ffn.w2").value.copy()
    merge(model)
    assert np.array_equal(model.param("layers.0.ffn.w2").value, before)


def test_double_merge_errors():
    model = build_model(cfg_for(), seed=5, dtype="float32")
    attach(model, ("w1",), r=2, alpha=4.0)
    merge(model)
    with pytest.raises(AdapterError):
        merge(model)


def test_unknown_target_errors():
    model = build_model(cfg_for(), seed=6)
    with pytest.raises(AdapterError):
        attach(model, ("w1", "nonsense"), r=2, alpha=4.0)


def test_frozen_base_never_changes_across_optimizer_steps():
    model = build_model(cfg_for(), seed=7, dtype="float64")
    attach(model, ("w1", "w2"), r=2, alpha=4.0)
    snapshot = {name: p.value.copy() for name, p in model.param_items()}

    from tokentune.data import gen_classification
    data = gen_classification(8, 8, 2, 0.2, seed=0, vocab_size=13)
    cfg = TrainConfig(regime="lora", batch_size=4, learning_rate=1e-2,
                      dtype="float64")
    trainer = Trainer(model, cfg, "classification")
    for _ in range(4):
        trainer.train_step(data[:4])
    for name, p in model.param_items():
        assert np.array_equal(p.value, snapshot[name]), name
    moved = [n for n, ad in model.adapters.items()
             if np.abs(ad.b).max() > 0]
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
