"""The selective pipeline: value preservation, full-selection identity,
cache scaling, and the two training objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokentune import engine
from tokentune.config import (LORA_TARGETS, REGIMES, SELECTIVE_REGIMES,
                              ModelConfig, TrainConfig)
from tokentune.data import Example, lm_example
from tokentune.engine import Tape
from tokentune.memprofile import build_regime_model, retained_bytes_law
from tokentune.model import (ModelError, build_model, forward_hidden,
                             loss_lm_rows)
from tokentune.optimize import Trainer
from tokentune.partition import TokenPartition, select_positions
from tokentune.selective import (every_position, loss_classification,
                                 loss_lm, tokentune_forward)
from tokentune.verify import (GRAD_TOL, grads_max_rel_err,
                              stopgrad_reference_backward)


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
    trainer._example_loss(tape, example, partition)
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
@pytest.mark.parametrize("regime", SELECTIVE_REGIMES)
def test_a_layers_keys_and_values_join_position_order_in_one_op_each(
        regime, mode):
    causal = mode == "lm"
    train = TrainConfig(regime=regime, k=3, seed=9, dtype="float64",
                        lora_targets=LORA_TARGETS)
    model = build_regime_model(cfg_for(causal), train)
    seq = random_seq(rng_for(9), 10, causal)
    trainer = Trainer(model, train, mode)
    partition = trainer.partition_for(seq, 0)
    tape = Tape()
    trainer._example_loss(
        tape, lm_example(seq) if causal else Example(seq, label=2),
        partition)
    for layer in range(model.config.n_layers):
        region = [node for node in tape.nodes
                  if node.label == f"layer.{layer}.attn"]
        joins = [node for node in region if node.op == "concat_rows"]
        assert len(joins) == 2
        assert not [node for node in region if node.op == "select_rows"]
        for join in joins:
            unselected, selected = join.meta["rows"]
            assert np.array_equal(unselected, partition.unselected)
            assert np.array_equal(selected, partition.selected)
            assert [part.op for part in join.inputs] == ["affine", "affine"]
        # every attention of the layer reads those joins as its K and V
        for attention in (node for node in region if node.op == "attention"):
            assert list(attention.inputs[1:]) == joins


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
    trainer = Trainer(model, train, mode)
    trainer._example_loss(
        tape, lm_example(seq) if causal else Example(seq, label=2),
        trainer.partition_for(seq, 0))
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
        # norm2, and W1's affine retains only W1 and its bias, parameters
        # from which the GELU's reader rebuilds W1's output
        norm2, w1, b1 = node.inputs
        assert norm2.op == "layer_norm"
        assert norm2.fresh_bytes == (k * d + k) * 8
        assert node.retains == (w1.idx, b1.idx) and node.fresh_bytes == 0
        assert node.idx not in engine._retained_for_backward(tape)


#: (regime, LoRA targets, feed-forward blocks whose pre-activation is
#: rebuilt) at two layers. A tracked W1 rebuilds its output over a norm
#: either way: over a tracked norm from the norm's saves, and over an
#: untracked one (layer 0's, with nothing adapted before it) from the
#: norm's input, which W1 and the GELU save. With W2 neither trained nor
#: adapted, W2's backward rebuilds nothing and the GELU's own backward
#: rebuilds its input.
PRE_ACTIVATION_CASES = [
    ("full", None, 2),
    ("tokentune", None, 2),
    ("lora", ("w1", "w2"), 2),
    ("lora", ("w_q", "w_v"), 2),
    ("tokentune+lora", ("w1",), 2),
    ("tokentune+lora", ("w_q", "w1"), 2),
]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime,targets,rebuilt", PRE_ACTIVATION_CASES,
                         ids=lambda v: "-".join(v) if isinstance(v, tuple)
                         else None)
def test_ffn_pre_activation_rebuilt_gives_the_saved_gradients_bit_for_bit(
        monkeypatch, regime, targets, rebuilt, dtype):
    cfg = cfg_for(causal=True, max_positions=12)
    train = TrainConfig(regime=regime, k=4 if regime in SELECTIVE_REGIMES
                        else None, seed=8, dtype=dtype,
                        lora_targets=targets or ("w1", "w2"))
    model = build_regime_model(cfg, train)
    # biases and LoRA B factors start at zero: move every parameter, so
    # that a rebuild without either would show
    r = rng_for(31)
    for arr in model.params.values():
        arr += r.normal(0.0, 0.1, arr.shape).astype(dtype)
    example = lm_example(random_seq(rng_for(30), 12, causal=True))

    def run():
        trainer = Trainer(model, train, "lm")
        partition = trainer.partition_for(example.seq, 0)
        tape = Tape()
        loss, _ = trainer._example_loss(tape, example, partition)
        retained = engine.simulate_peak_bytes(tape)[1]
        return partition.k, retained, tape.backward(loss)

    rows, retained, grads = run()
    rebuilds = engine._rebuilt_in_backward
    with monkeypatch.context() as patched:
        # the policy that saves the pre-activation: no W1 output (the
        # only d_ff wide affine) is rebuilt, so each GELU saves its input
        patched.setattr(engine, "_rebuilt_in_backward",
                        lambda node: rebuilds(node) and not (
                            node.op == "affine"
                            and node.shape[1] == cfg.d_ff))
        _, saved, saved_grads = run()
    itemsize = np.dtype(dtype).itemsize
    assert retained == saved - rebuilt * rows * cfg.d_ff * itemsize
    assert grads and sorted(grads) == sorted(saved_grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, saved_grads[name]), name


#: (regime, LoRA targets): the adapter regimes adapt the key and value
#: affines, so that their factors' gradients pass through the rebuild
KV_CASES = [
    ("full", None),
    ("tokentune", None),
    ("lora", ("w_k", "w_v")),
    ("tokentune+lora", ("w_k", "w_v")),
]
KV_N = 14


def _kv_case(regime, targets, dtype, mode):
    """(model, train config, example) of one rebuild case: KV_N positions,
    4 selected in the selective regimes, every parameter moved off its
    init so that a rebuild that dropped a bias or a LoRA delta shows."""
    cfg = cfg_for(causal=mode == "lm")
    train = TrainConfig(regime=regime, k=4 if regime in SELECTIVE_REGIMES
                        else None, seed=8, dtype=dtype,
                        lora_targets=targets or ("w1", "w2"))
    model = build_regime_model(cfg, train)
    r = rng_for(41)
    for arr in model.params.values():
        arr += r.normal(0.0, 0.1, arr.shape).astype(dtype)
    seq = random_seq(rng_for(40), KV_N, causal=mode == "lm")
    example = lm_example(seq) if mode == "lm" else Example(seq=seq, label=1)
    return model, train, example


def _kv_run(model, train, example, mode):
    """(partition, bytes retained for backward, gradients, tape) of one
    example as the trainer records it."""
    trainer = Trainer(model, train, mode)
    partition = trainer.partition_for(example.seq, 0)
    tape = Tape()
    loss, _ = trainer._example_loss(tape, example, partition)
    retained = engine.simulate_peak_bytes(tape)[1]
    return partition, retained, tape.backward(loss), tape


@pytest.mark.parametrize("mode", ["lm", "classification"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime,targets", KV_CASES,
                         ids=lambda v: "-".join(v) if isinstance(v, tuple)
                         else None)
def test_keys_and_values_rebuilt_give_the_saved_gradients_bit_for_bit(
        monkeypatch, regime, targets, dtype, mode):
    model, train, example = _kv_case(regime, targets, dtype, mode)
    partition, retained, grads, _ = _kv_run(model, train, example, mode)
    rebuilds = engine._rebuilt_in_backward
    with monkeypatch.context() as patched:
        # the policy that saves them: attention keeps its concat key and
        # value operands
        patched.setattr(engine, "_rebuilt_in_backward",
                        lambda node: node.op != "concat_rows"
                        and rebuilds(node))
        _, saved, saved_grads, _ = _kv_run(model, train, example, mode)
    assert grads and sorted(grads) == sorted(saved_grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, saved_grads[name]), name
    # each layer's attention gives up its n x d keys and values for its
    # saved (n - k) x d unselected input rows; with every position
    # selected there is no concat, and nothing changes
    cfg = model.config
    rows = 0 if regime not in SELECTIVE_REGIMES else (
        2 * KV_N - partition.unselected.size)
    assert retained == saved - cfg.n_layers * rows * cfg.d_model \
        * np.dtype(dtype).itemsize


@pytest.mark.parametrize("mode", ["lm", "classification"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime,targets", [
    ("tokentune", None), ("tokentune+lora", ("w_k", "w_v")),
    ("tokentune+lora", ("w1", "w2"))],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_no_tokentune_tape_retains_full_length_keys_or_values(
        regime, targets, dtype, mode):
    # no output live at backward entry and no saved array has a row per
    # position: what each layer keeps of its unselected rows is their
    # (n - k) x d input
    model, train, example = _kv_case(regime, targets, dtype, mode)
    trainer = Trainer(model, train, mode)
    partition = trainer.partition_for(example.seq, 0)
    tape = Tape()
    trainer._example_loss(tape, example, partition)
    # (no parameter has KV_N rows either)
    assert not any(n.op == "param" and n.shape[0] == KV_N
                   for n in tape.nodes)
    live = engine._retained_for_backward(tape)
    assert live and all(tape.nodes[i].shape[0] < KV_N for i in live)
    saves = [arr for node in tape.nodes for _, arr in node._saved_arrays or ()]
    assert saves and all(arr.shape[0] < KV_N for arr in saves)
    # each layer's attention saves its unselected input rows as the root
    # its keys and values are rebuilt from
    roots = [(node, arr) for node in tape.nodes
             for role, arr in node._saved_arrays or () if role == "root"]
    if regime == "tokentune":
        assert {arr.shape for _, arr in roots} \
            == {(partition.unselected.size, model.config.d_model)}
        assert [node.op for node, _ in roots] \
            == ["attention"] * model.config.n_layers


def test_each_kept_output_is_charged_to_its_first_keeper():
    # an output that two tracked readers save is charged to the first
    t = Tape()
    h = t.add(t.input(np.ones((2, 3))), t.input(np.ones((2, 3))))
    w = t.param("w", np.ones((3, 4)))
    with t.region("first"):
        first = t.matmul(h, w)
    with t.region("second"):
        second = t.matmul(h, w)
    out = t.add(first, second)
    assert t.retained_bytes() == {("first", "matmul"): h.value.nbytes,
                                  ("", "add"): out.value.nbytes}
    # each layer's attention is the first keeper of its queries and of
    # the unselected layer input its keys and values are rebuilt from
    model, train, example = _kv_case("tokentune", None, "float64", "lm")
    partition, _, _, tape = _kv_run(model, train, example, "lm")
    ledger = tape.retained_bytes()
    d, u = model.config.d_model, partition.unselected.size
    attentions = [node for node in tape.nodes
                  if node.op == "attention" and node.requires_grad]
    assert len(attentions) == model.config.n_layers
    for node in attentions:
        q = node.inputs[0]
        assert ledger[(node.label, "attention")] \
            == node.fresh_bytes + q.nbytes + u * d * 8


@pytest.mark.parametrize("mode", ["lm", "classification"])
@pytest.mark.parametrize("regime,targets", [
    ("tokentune", None), ("tokentune+lora", ("w_k", "w_v"))],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_rebuilt_keys_and_values_match_the_stop_gradient_oracle(
        regime, targets, mode):
    model, train, example = _kv_case(regime, targets, "float64", mode)
    partition, _, grads, _ = _kv_run(model, train, example, mode)
    loss_spec = (mode, example.targets if mode == "lm" else example.label)
    oracle = stopgrad_reference_backward(model, example.seq, partition,
                                         loss_spec)
    assert grads_max_rel_err(grads, oracle) <= GRAD_TOL


def test_cache_strictly_smaller_than_full_selection():
    model = build_model(cfg_for(n_layers=1, d_model=4, n_heads=2, d_ff=8),
                        seed=10, dtype="float64")
    small = sum(_run_tt(model, 8, 2).retained_bytes().values())
    full = sum(_run_tt(model, 8, 8).retained_bytes().values())
    intercept, per_position, _ = retained_bytes_law(model.config, 8, 8)
    # with every position selected there is no unselected input to keep,
    # and the keys and values (8 x 4 each) are saved, not rebuilt
    assert small == intercept + 2 * per_position
    assert full == intercept + 8 * per_position + 2 * 8 * 4 * 8
    assert small < full


def test_attention_cache_linear_in_n_at_fixed_k():
    model = build_model(cfg_for(n_layers=1), seed=11, dtype="float64")
    counts = []
    for n in (8, 16, 24):
        tape = _run_tt(model, n, 3)
        counts.append(sum(nbytes for (label, _), nbytes
                          in tape.retained_bytes().items()
                          if ".attn" in label))
    # each position adds one unselected input row (d = 8), which the
    # attention saves to rebuild its keys and values from
    assert counts[1] - counts[0] == counts[2] - counts[1] == 8 * 8 * 8


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


def test_forward_refuses_a_partition_of_another_length():
    from tokentune.partition import SelectionError
    model = build_model(cfg_for(), seed=19, dtype="float64")
    partition = select_positions(6, 2, "classification", rng_seed=10)
    with pytest.raises(SelectionError):
        tokentune_forward(Tape(), model, np.arange(4), partition)
