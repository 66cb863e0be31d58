"""The selective pipeline: value preservation, full-selection identity,
cache scaling, and the two training objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokentune.config import (LORA_TARGETS, REGIMES, SELECTIVE_REGIMES,
                              ModelConfig, TrainConfig)
from tokentune.data import Example, lm_example
from tokentune.engine import Tape
from tokentune.memprofile import build_regime_model
from tokentune.model import (ModelError, build_model, forward_hidden,
                             loss_lm_rows)
from tokentune.optimize import Trainer
from tokentune.partition import TokenPartition, select_positions
from tokentune.selective import (every_position, loss_classification,
                                 loss_lm, split_hidden, tokentune_forward)


def cfg_for(causal=False, n_layers=2, **kw):
    base = dict(vocab_size=13, max_positions=32, d_model=8, n_heads=2,
                d_ff=12, n_layers=n_layers, causal=causal,
                n_classes=None if causal else 3)
    base.update(kw)
    return ModelConfig(**base)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 424242]))


def random_seq(rng, n, causal):
    ids = rng.integers(2, 13, size=n)
    if not causal:
        ids[0] = 1
    return ids


def plain_values(model, seq):
    t = Tape()
    with t.no_grad():
        return forward_hidden(t, model, seq).value


def selective_values(model, seq, partition):
    t = Tape()
    with t.no_grad():
        split = tokentune_forward(t, model, seq, partition)
        return split.h_g.value, split


# ---- value preservation --------------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_value_preservation_any_k(seed):
    r = rng_for(seed)
    causal = bool(r.integers(2))
    model = build_model(cfg_for(causal), seed=int(r.integers(1 << 30)),
                        dtype="float64")
    n = int(r.integers(4, 10))
    seq = random_seq(r, n, causal)
    k = int(r.integers(1, n + 1))
    mode = "lm" if causal else "classification"
    partition = select_positions(n, k, mode, int(r.integers(1 << 30)))
    selected, _ = selective_values(model, seq, partition)
    plain = plain_values(model, seq)
    assert np.abs(plain[partition.selected] - selected).max() < 1e-12


def test_zero_layer_model_returns_split_embeddings():
    model = build_model(cfg_for(n_layers=1), seed=0, dtype="float64")
    model.config.n_layers = 0  # skip every layer: output = embeddings
    seq = np.array([1, 5, 7, 2])
    partition = select_positions(4, 2, "classification", rng_seed=3)
    t = Tape()
    split = tokentune_forward(t, model, seq, partition)
    from tokentune.model import embed
    t2 = Tape()
    emb = embed(t2, model, seq).value
    assert np.array_equal(split.h_g.value, emb[partition.selected])
    assert np.array_equal(split.h_gbar.value, emb[partition.unselected])


def test_full_selection_forward_is_bitwise_equal():
    model = build_model(cfg_for(), seed=5, dtype="float64")
    seq = random_seq(rng_for(5), 6, causal=False)
    partition = select_positions(6, 6, "classification", rng_seed=1)
    selected, split = selective_values(model, seq, partition)
    assert split.h_gbar is None
    assert np.array_equal(selected, plain_values(model, seq))


# ---- the last layer's unselected rows stop at their keys and values -----------

@pytest.mark.parametrize("mode", ["lm", "classification"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime", REGIMES)
def test_the_last_layers_unselected_rows_stop_at_their_keys_and_values(
        regime, dtype, mode):
    causal = mode == "lm"
    train = TrainConfig(regime=regime,
                        k=3 if regime in SELECTIVE_REGIMES else None,
                        seed=8, dtype=dtype, lora_targets=LORA_TARGETS)
    model = build_regime_model(cfg_for(causal), train)
    seq = random_seq(rng_for(8), 10, causal)
    example = lm_example(seq) if causal else Example(seq, label=2)
    trainer = Trainer(model, train, mode)
    partition = trainer.partition_for(seq, 0)

    tape = Tape()
    trainer._example_loss(tape, example)
    last = model.config.n_layers - 1
    attention = [node for node in tape.nodes if node.op == "attention"]
    # one attention per layer for the selected queries, and one for the
    # unselected queries of every layer but the last
    assert len(attention) == (2 * last + 1 if partition.unselected.size
                              else last + 1)
    # the last layer's feed-forward block runs on the selected rows alone:
    # every op it records is tracked
    assert not [node for node in tape.nodes
                if node.label == f"layer.{last}.ffn" and node.inputs
                and not node.requires_grad]


@pytest.mark.parametrize("mode", ["lm", "classification"])
@pytest.mark.parametrize("regime", REGIMES)
def test_every_affine_of_a_training_example_is_one_node(regime, mode):
    # base weight, LoRA delta and bias: no matmul, scale or bias add
    # node, tracked or not
    causal = mode == "lm"
    train = TrainConfig(regime=regime,
                        k=3 if regime in SELECTIVE_REGIMES else None,
                        seed=8, dtype="float64", lora_targets=LORA_TARGETS)
    model = build_regime_model(cfg_for(causal), train)
    seq = random_seq(rng_for(8), 10, causal)
    tape = Tape()
    Trainer(model, train, mode)._example_loss(
        tape, lm_example(seq) if causal else Example(seq, label=2))
    assert not [node for node in tape.nodes
                if node.op == "matmul" or node.meta.get("fn") == "scale"
                or node.op == "add" and node.meta["broadcast"]]
    affines = [node for node in tape.nodes if node.op == "affine"]
    assert any(node.requires_grad for node in affines)
    # in the adapter regimes every layer's affine reads its factors
    adapted = sum("scaling" in node.meta for node in affines)
    assert adapted == (0 if model.lora_scaling is None else sum(
        1 for node in affines if node.label.startswith("layer.")))


# ---- full selection ------------------------------------------------------------

@pytest.mark.parametrize("mode", ["classification", "lm"])
def test_selecting_every_position_is_the_full_regime_partition(mode):
    # the full regime's gradients are checked against the independent
    # reference by verify's full-selection identity
    n = 7
    seq = random_seq(rng_for(6), n, causal=mode == "lm")
    full = every_position(seq)
    for seed in range(5):
        p = select_positions(n, n, mode, rng_seed=seed)
        assert np.array_equal(p.selected, full.selected)
        assert np.array_equal(p.unselected, full.unselected)


# ---- hand-derived attention gradient ---------------------------------------------

def test_attention_value_gradient_hand_case():
    """k=1, n=2, one head: with the second row unselected, dW_V must be
    h_sel^T (p_sel * upstream) where p_sel is the selected query's attention
    row; the unselected row contributes nothing."""
    cfg = ModelConfig(vocab_size=5, max_positions=4, d_model=2, n_heads=1,
                      d_ff=2, n_layers=1, causal=False, n_classes=2)
    model = build_model(cfg, seed=8, dtype="float64")
    r = rng_for(8)
    # strip the layer down to attention only: identity-ish norm, zero ffn
    model.param("layers.0.norm1.scale")[...] = 1.0
    model.param("layers.0.norm1.shift")[...] = 0.0
    model.param("layers.0.ffn.w1")[...] = 0.0
    model.param("layers.0.ffn.w2")[...] = 0.0
    for b in ("b_q", "b_k", "b_v", "b_o"):
        model.param(f"layers.0.attn.{b}")[...] = 0.0
    model.param("layers.0.attn.w_o")[...] = np.eye(2)

    seq = np.array([1, 2])
    partition = TokenPartition(selected=np.array([0]),
                               unselected=np.array([1]))
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    # loss = sum of the selected row after the attention residual
    loss = tape.matmul(tape.mean_rows(split.h_g),
                       tape.constant(np.ones((2, 1))))
    grads = tape.backward(loss)

    # hand computation
    from tokentune.model import embed
    t2 = Tape()
    h = embed(t2, model, seq).value
    def norm_rows(x):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5)
    a = norm_rows(h)
    wq = model.param("layers.0.attn.w_q")
    wk = model.param("layers.0.attn.w_k")
    q = a @ wq
    k = a @ wk
    # key order is [unselected, selected]
    scores = q[:1] @ np.vstack([k[1:], k[:1]]).T / np.sqrt(2)
    e = np.exp(scores - scores.max())
    p = e / e.sum()
    upstream = np.ones((1, 2))  # d(loss)/d(attn out row)
    # dW_V receives contributions only through the selected value row
    dwv_hand = a[:1].T @ (p[0, 1] * upstream)
    assert np.abs(grads["layers.0.attn.w_v"] - dwv_hand).max() < 1e-12


# ---- cache scaling ----------------------------------------------------------------

def _ffn_w1_node(tape, model):
    w1_node_idx = None
    for node in tape.nodes:
        if node.op == "param" and node.name == "layers.0.ffn.w1":
            w1_node_idx = node.idx
    for node in tape.nodes:
        if node.op == "affine" and any(i.idx == w1_node_idx
                                       for i in node.inputs):
            if node.requires_grad:
                return node
    return None


def _run_tt(model, n, k, seed=0):
    seq = np.r_[1, 2 + np.arange(n - 1) % 7]
    partition = TokenPartition(selected=np.arange(k),
                               unselected=np.arange(k, n))
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss_classification(tape, model, split, 0)
    return tape


def test_w1_backward_cache_is_k_by_d_model_independent_of_rest():
    model = build_model(cfg_for(n_layers=1), seed=9, dtype="float64")
    d = model.config.d_model
    for n, k in [(6, 2), (10, 2), (14, 2), (10, 5)]:
        tape = _run_tt(model, n, k)
        node = _ffn_w1_node(tape, model)
        # W1's backward rebuilds its input from norm2's saves, so the k x d
        # rows entering W1's gradient (and k inverse stds) are charged to
        # norm2, and W1's affine retains only W1 (not its bias)
        norm2, w1, _ = node.inputs
        assert norm2.op == "layer_norm"
        assert norm2.fresh_bytes == (k * d + k) * 8
        assert node.retains == (w1.idx,) and node.fresh_bytes == 0


def test_cache_strictly_smaller_than_full_selection():
    model = build_model(cfg_for(n_layers=1, d_model=4, n_heads=2, d_ff=8),
                        seed=10, dtype="float64")
    small = _run_tt(model, 8, 2).cached_activation_elements()
    full = _run_tt(model, 8, 8).cached_activation_elements()
    assert small < full


def test_attention_cache_linear_in_n_at_fixed_k():
    model = build_model(cfg_for(n_layers=1), seed=11, dtype="float64")
    counts = []
    # whole bytes of the bit-packed visibility mask: n a multiple of 8
    for n in (8, 16, 24):
        tape = _run_tt(model, n, 3)
        attn = sum(c for (label, _), c in tape.cache_breakdown().items()
                   if ".attn" in label)
        counts.append(attn)
    assert counts[1] - counts[0] == counts[2] - counts[1]
    assert counts[0] < counts[1] < counts[2]


# ---- objectives ---------------------------------------------------------------------

def test_loss_classification_zero_logits_is_ln2():
    cfg = cfg_for(n_classes=2)
    model = build_model(cfg, seed=12, dtype="float64")
    model.param("head.w2")[...] = 0.0
    model.param("head.b2")[...] = 0.0
    seq = random_seq(rng_for(12), 6, causal=False)
    partition = select_positions(6, 3, "classification", rng_seed=4)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss = loss_classification(tape, model, split, 0)
    assert abs(float(loss.value[0, 0]) - np.log(2.0)) < 1e-12


def test_loss_classification_decreases_with_margin():
    cfg = cfg_for(n_classes=2)
    model = build_model(cfg, seed=13, dtype="float64")
    seq = random_seq(rng_for(13), 6, causal=False)
    partition = select_positions(6, 3, "classification", rng_seed=5)
    losses = []
    for margin in (0.0, 2.0, 8.0):
        model.params["head.b2"] = np.array([[margin, 0.0]])
        model.param("head.w2")[...] = 0.0
        tape = Tape()
        split = tokentune_forward(tape, model, seq, partition)
        losses.append(float(loss_classification(tape, model, split,
                                                0).value[0, 0]))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-3


def test_loss_lm_uniform_logits_is_k_ln_v():
    cfg = cfg_for(causal=True)
    model = build_model(cfg, seed=14, dtype="float64")
    model.param("head.w_lm")[...] = 0.0
    n = 6
    seq = random_seq(rng_for(14), n, causal=True)
    targets = lm_example(seq).targets
    partition = select_positions(n, 3, "lm", rng_seed=6)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss, n_terms = loss_lm(tape, model, split, targets)
    assert float(loss.value[0, 0]) == pytest.approx(
        n_terms * np.log(cfg.vocab_size), rel=1e-12)


def test_loss_lm_all_predictable_matches_plain_pipeline():
    cfg = cfg_for(causal=True)
    model = build_model(cfg, seed=15, dtype="float64")
    n = 7
    seq = random_seq(rng_for(15), n, causal=True)
    targets = lm_example(seq).targets
    partition = TokenPartition(selected=np.arange(n - 1),
                               unselected=np.array([n - 1]))
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss, n_terms = loss_lm(tape, model, split, targets)
    assert n_terms == n - 1

    t2 = Tape()
    h = forward_hidden(t2, model, seq)
    plain = loss_lm_rows(t2, model, t2.select_rows(h, np.arange(n - 1)),
                         targets[:n - 1])
    assert abs(float(loss.value[0, 0]) - float(plain.value[0, 0])) < 1e-10


def test_loss_lm_gradient_flows_only_through_selected_rows():
    cfg = cfg_for(causal=True)
    model = build_model(cfg, seed=16, dtype="float64")
    n = 6
    seq = random_seq(rng_for(16), n, causal=True)
    targets = lm_example(seq).targets
    partition = select_positions(n, 2, "lm", rng_seed=7)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss, _ = loss_lm(tape, model, split, targets)
    grads = tape.backward(loss)

    # per-row oracle: dW_lm = sum over selected target rows of
    # h_row^T (softmax - onehot)
    t2 = Tape()
    with t2.no_grad():
        h = forward_hidden(t2, model, seq).value
    w = model.param("head.w_lm")
    dw = np.zeros_like(w)
    for p in partition.selected:
        if targets[p] < 0:
            continue
        logits = h[p:p + 1] @ w
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        probs[0, targets[p]] -= 1.0
        dw += h[p:p + 1].T @ probs
    assert np.abs(grads["head.w_lm"] - dw).max() < 1e-10


def test_loss_lm_errors_when_no_selected_row_has_target():
    cfg = cfg_for(causal=True)
    model = build_model(cfg, seed=17, dtype="float64")
    seq = random_seq(rng_for(17), 4, causal=True)
    targets = np.full(4, -1, dtype=np.intp)  # no targets anywhere
    partition = select_positions(4, 2, "lm", rng_seed=8)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    with pytest.raises(ModelError):
        loss_lm(tape, model, split, targets)


def test_invalid_label_errors():
    model = build_model(cfg_for(), seed=18, dtype="float64")
    seq = random_seq(rng_for(18), 5, causal=False)
    partition = select_positions(5, 2, "classification", rng_seed=9)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    with pytest.raises(ModelError):
        loss_classification(tape, model, split, 99)


def test_split_hidden_mismatch_errors():
    from tokentune.partition import SelectionError
    model = build_model(cfg_for(), seed=19, dtype="float64")
    partition = select_positions(6, 2, "classification", rng_seed=10)
    tape = Tape()
    h = tape.input(np.zeros((4, 8)))
    with pytest.raises(SelectionError):
        split_hidden(tape, h, partition)
