"""Transformer building blocks vs hand-rolled numpy oracles."""

import numpy as np
import pytest

from tokentune import model as model_module
from tokentune.adapters import attach
from tokentune.config import ModelConfig
from tokentune.data import Example
from tokentune.engine import Tape
from tokentune.model import (FFN_BLOCK_ROWS, ModelError, build_model,
                             embed, ffn,
                             forward_hidden, lm_logits,
                             loss_classification_rows)
from tokentune.optimize import evaluate
from tokentune.partition import TokenPartition
from tokentune.selective import (split_hidden, tokentune_attention,
                                 tokentune_ffn)


def tiny_config(**kw):
    base = dict(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                d_ff=12, n_layers=2, causal=False, n_classes=3)
    base.update(kw)
    return ModelConfig(**base)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 5150]))


# ---- embeddings --------------------------------------------------------------

def test_embed_zero_tables_give_zero_matrix():
    model = build_model(tiny_config(), seed=0, dtype="float64")
    model.param("tok_emb").value[...] = 0.0
    model.param("pos_emb").value[...] = 0.0
    t = Tape()
    out = embed(t, model, np.array([1, 2, 3]))
    assert np.array_equal(out.value, np.zeros((3, 8)))


def test_embed_single_token_is_sum_of_table_rows():
    model = build_model(tiny_config(), seed=2, dtype="float64")
    seq = np.array([3])
    t = Tape()
    out = embed(t, model, seq).value
    expected = (model.param("tok_emb").value[3]
                + model.param("pos_emb").value[0])
    assert np.array_equal(out[0], expected)


def test_embed_range_errors():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ModelError):
        embed(Tape(), model, np.array([99]))
    with pytest.raises(ModelError):
        embed(Tape(), model,
              np.ones(model.config.max_positions + 1, dtype=np.intp))


# ---- attention ----------------------------------------------------------------

def one_group(tape, h):
    """`h` as the split of full fine-tuning: every row selected, none
    unselected."""
    partition = TokenPartition(selected=np.arange(len(h)),
                               unselected=np.empty(0, dtype=np.intp))
    return split_hidden(tape, tape.input(h), partition)


def attention_layer(model, layer, h):
    """h + attention(norm1(h)): the one-group split's attention update."""
    t = Tape()
    split = tokentune_attention(t, model, layer, one_group(t, h))
    assert split.h_gbar is None
    return split.h_g.value


def norm_vals(model, layer, x, which):
    scale = model.param(f"layers.{layer}.norm{which}.scale").value
    shift = model.param(f"layers.{layer}.norm{which}.shift").value
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * scale + shift


def _dense_attention_oracle(h, model, layer, causal):
    """Independent multi-head attention implementation."""
    cfg = model.config
    p = {name: model.param(name).value
         for name in model.params}
    base = f"layers.{layer}.attn"
    q = h @ p[f"{base}.w_q"] + p[f"{base}.b_q"]
    k = h @ p[f"{base}.w_k"] + p[f"{base}.b_k"]
    v = h @ p[f"{base}.w_v"] + p[f"{base}.b_v"]
    dh = cfg.head_dim
    outs = []
    for i in range(cfg.n_heads):
        qs, ks, vs = (m[:, i * dh:(i + 1) * dh] for m in (q, k, v))
        scores = qs @ ks.T / np.sqrt(dh)
        for r in range(len(h)):
            for c in range(len(h)):
                if causal and c > r:
                    scores[r, c] = -1e30
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        outs.append(probs @ vs)
    return np.concatenate(outs, axis=1) @ p[f"{base}.w_o"] + p[f"{base}.b_o"]


def test_attention_single_token_is_value_projection():
    model = build_model(tiny_config(n_heads=1), seed=3, dtype="float64")
    h = rng_for(3).normal(size=(1, 8))
    out = attention_layer(model, 0, h)
    base = "layers.0.attn"
    v = norm_vals(model, 0, h, 1) @ model.param(f"{base}.w_v").value \
        + model.param(f"{base}.b_v").value
    expected = h + v @ model.param(f"{base}.w_o").value \
        + model.param(f"{base}.b_o").value
    assert np.allclose(out, expected, atol=1e-14)


def attend_keys(q_row, k, v, n_heads):
    """One query's multi-head attention over exactly the keys given."""
    dh = q_row.size // n_heads
    outs = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = k[:, cols] @ q_row[cols] / np.sqrt(dh)
        e = np.exp(scores - scores.max())
        outs.append(e / e.sum() @ v[:, cols])
    return np.concatenate(outs)


def test_causal_query_at_position_zero_reads_only_key_zero():
    r = rng_for(3)
    q, k, v = (r.normal(size=(3, 8)) for _ in range(3))
    t = Tape()
    out = t.attention(t.input(q), t.input(k), t.input(v), np.arange(3),
                      True, 2).value
    assert np.array_equal(out[0], v[0])


@pytest.mark.parametrize("causal", [True, False],
                         ids=["causal", "bidirectional"])
def test_query_reads_the_keys_up_to_its_position_whatever_its_row(causal):
    # queries stored out of position order, over 5 keys
    positions = np.array([2, 0, 4, 1])
    r = rng_for(8)
    q = r.normal(size=(4, 8))
    k, v = (r.normal(size=(5, 8)) for _ in range(2))
    t = Tape()
    out = t.attention(t.input(q), t.input(k), t.input(v), positions,
                      causal, 2).value
    for row, p in enumerate(positions):
        seen = p + 1 if causal else 5
        want = attend_keys(q[row], k[:seen], v[:seen], 2)
        assert np.abs(out[row] - want).max() < 1e-12, (row, p)
    if causal:
        assert np.array_equal(out[1], v[0])


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_matches_dense_oracle(causal, n_heads):
    model = build_model(tiny_config(n_heads=n_heads, causal=causal,
                                    n_classes=None if causal else 3),
                        seed=4, dtype="float64")
    h = rng_for(4).normal(size=(3, 8))
    got = attention_layer(model, 0, h)
    want = h + _dense_attention_oracle(norm_vals(model, 0, h, 1), model, 0,
                                       causal)
    assert np.abs(got - want).max() < 1e-12


# ---- full layers ---------------------------------------------------------------

def test_zero_weight_layers_are_identity():
    model = build_model(tiny_config(n_layers=3), seed=6, dtype="float64")
    for name, p in model.param_items():
        if ".attn.w_" in name or ".ffn.w" in name:
            p.value[...] = 0.0
        if name.endswith((".b_q", ".b_k", ".b_v", ".b_o", ".b1", ".b2")):
            p.value[...] = 0.0
    h = rng_for(6).normal(size=(4, 8))
    t = Tape()
    split = one_group(t, h)
    for layer in range(3):
        split = tokentune_attention(t, model, layer, split)
        split = tokentune_ffn(t, model, layer, split)
    assert np.array_equal(split.h_g.value, h)


@pytest.mark.parametrize("block_rows", [FFN_BLOCK_ROWS, 64])
@pytest.mark.parametrize("lora", [False, True], ids=["plain", "lora"])
@pytest.mark.parametrize("rows", [5, 65, 129, 449])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_no_grad_ffn_in_row_blocks_equals_the_whole_array_ffn(
        monkeypatch, dtype, rows, lora, block_rows):
    # at the benchmark's FFN widths, where the BLAS kernels are the ones
    # training runs; a tracked FFN always runs as one block, and so does
    # an FFN with adapters: w2's LoRA product, 449 x 1024 GELU rows times
    # its 1024 x 4 factor A, differs from the same product over 225- and
    # 224-row blocks in the last bits
    monkeypatch.setattr(model_module, "FFN_BLOCK_ROWS", block_rows)
    cfg = tiny_config(d_model=256, n_heads=8, d_ff=1024, n_layers=1)
    model = build_model(cfg, seed=16, dtype=dtype)
    r = rng_for(16)
    if lora:
        attach(model, ("w1", "w2"), r=4, alpha=8.0, seed=16)
        for ad in model.adapters.values():  # B starts at zero
            ad.b[...] = r.normal(0.0, 0.02, ad.b.shape)
    h = r.normal(size=(rows, 256)).astype(dtype)
    whole = Tape()
    want = ffn(whole, model, 0, whole.input(h)).value
    blocked = Tape()
    with blocked.no_grad():
        got = ffn(blocked, model, 0, blocked.input(h))
    assert np.array_equal(got.value, want)
    count = 1 if lora else -(-rows // block_rows)
    if count == 1:
        assert got.op == "add"
    else:
        sizes = got.node.meta["sizes"]
        assert got.op == "concat_rows" and len(sizes) == count
        assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 32


def test_split_layer_composes_attention_and_ffn():
    from scipy.special import erf
    model = build_model(tiny_config(n_layers=1), seed=7, dtype="float64")
    h = rng_for(7).normal(size=(2, 8))
    t = Tape()
    split = tokentune_attention(t, model, 0, one_group(t, h))
    got = tokentune_ffn(t, model, 0, split).h_g.value

    mid = h + _dense_attention_oracle(norm_vals(model, 0, h, 1), model, 0,
                                      False)
    z = norm_vals(model, 0, mid, 2) @ model.param("layers.0.ffn.w1").value \
        + model.param("layers.0.ffn.b1").value
    g = 0.5 * z * (1 + erf(z / np.sqrt(2)))
    want = mid + g @ model.param("layers.0.ffn.w2").value \
        + model.param("layers.0.ffn.b2").value
    assert np.abs(got - want).max() < 1e-12


def test_causal_logits_invariant_to_future_tokens():
    cfg = tiny_config(causal=True, n_classes=None)
    model = build_model(cfg, seed=9, dtype="float64")
    r = rng_for(9)
    ids = r.integers(0, 13, size=6)
    ids2 = ids.copy()
    ids2[4:] = (ids2[4:] + 5) % 13
    h1 = _hidden(model, ids)
    h2 = _hidden(model, ids2)
    t = Tape()
    logits1 = lm_logits(t, model, t.input(h1[:4])).value
    t2 = Tape()
    logits2 = lm_logits(t2, model, t2.input(h2[:4])).value
    assert np.array_equal(logits1, logits2)


def _hidden(model, ids):
    t = Tape()
    with t.no_grad():
        return forward_hidden(t, model, ids).value


# ---- heads ---------------------------------------------------------------------

def pooled_nll(model, rows, label):
    """The training head's loss: `loss_classification_rows` over `rows`."""
    t = Tape()
    return loss_classification_rows(t, model, t.input(rows),
                                    label).value[0, 0]


def test_classify_single_row_is_identity_pooling():
    model = build_model(tiny_config(), seed=10, dtype="float64")
    row = rng_for(10).normal(size=(1, 8))
    two = np.vstack([row, row])
    for label in range(3):
        assert np.isclose(pooled_nll(model, row, label),
                          pooled_nll(model, two, label), rtol=0, atol=1e-15)


def test_classify_zero_logits_give_log_half():
    cfg = tiny_config(n_classes=2)
    model = build_model(cfg, seed=11, dtype="float64")
    model.param("head.w2").value[...] = 0.0
    model.param("head.b2").value[...] = 0.0
    h = rng_for(11).normal(size=(3, 8))
    for label in range(2):
        assert np.isclose(pooled_nll(model, h, label), -np.log(0.5))


def eval_hits(model, seq):
    """`evaluate`'s accuracy on `seq` under each label: 1.0 for the label
    it predicts, 0.0 for every other."""
    return [evaluate(model, [Example(seq=seq, label=label)],
                     "classification")["accuracy"] for label in range(3)]


def training_head_hits(model, rows):
    """The same per-label hits from the training head's loss over `rows`:
    the predicted label is the one with the least loss."""
    nll = [pooled_nll(model, rows, label) for label in range(3)]
    return [float(label == int(np.argmin(nll))) for label in range(3)]


def test_eval_pooling_over_all_rows_matches_the_training_head():
    model = build_model(tiny_config(), seed=12, dtype="float64")
    ids = np.array([1, 4, 7, 5, 9])
    hits = eval_hits(model, ids)
    assert sorted(hits) == [0.0, 0.0, 1.0]
    assert hits == training_head_hits(model, _hidden(model, ids))


def test_eval_errors_on_an_empty_sequence():
    model = build_model(tiny_config(), seed=13, dtype="float64")
    with pytest.raises(ModelError):
        eval_hits(model, np.empty(0, np.intp))


def test_lm_logits_zero_hidden_uniform_and_onehot_copies():
    cfg = tiny_config(causal=True, n_classes=None)
    model = build_model(cfg, seed=14, dtype="float64")
    t = Tape()
    zero_logits = lm_logits(t, model, t.input(np.zeros((2, 8)))).value
    assert np.array_equal(zero_logits, np.zeros((2, 13)))

    w = np.zeros((8, 13))
    w[2, 5] = 1.0
    model.param("head.w_lm").value = w
    t2 = Tape()
    h = rng_for(14).normal(size=(3, 8))
    out = lm_logits(t2, model, t2.input(h)).value
    assert np.array_equal(out[:, 5], h[:, 2])


def test_lm_logits_match_plain_matmul():
    cfg = tiny_config(causal=True, n_classes=None)
    model = build_model(cfg, seed=15, dtype="float64")
    h = rng_for(15).normal(size=(4, 8))
    t = Tape()
    got = lm_logits(t, model, t.input(h)).value
    assert np.array_equal(got, h @ model.param("head.w_lm").value)
