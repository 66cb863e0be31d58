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
                             loss_classification_rows, norm, param_specs)
from tokentune.optimize import evaluate
from tokentune.partition import TokenPartition
from tokentune.selective import (SplitHidden, tokentune_attention,
                                 tokentune_ffn)


def tiny_config(**kw):
    base = dict(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                d_ff=12, n_layers=2, causal=False, n_classes=3)
    base.update(kw)
    return ModelConfig(**base)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 5150]))


# ---- the parameter table -----------------------------------------------------

def table(params):
    return [(name, p.shape) for name, p in params.items()]


def shapes(specs):
    return [(name, (rows, cols)) for name, (rows, cols, _) in specs.items()]


@pytest.mark.parametrize("causal", [False, True])
def test_build_model_and_attach_make_the_parameter_table(causal):
    cfg = tiny_config(causal=causal, n_classes=None if causal else 3)
    model = build_model(cfg, seed=1, dtype="float64")
    specs = param_specs(cfg)
    assert table(model.params) == shapes(specs)
    for name, (_, _, init) in specs.items():
        value = model.param(name)
        assert {"normal": value.std() > 0, "zeros": not value.any(),
                "ones": (value == 1).all()}[init], name
    # the table's factor places do not depend on the order of the targets
    attach(model, ("w_o", "w1"), r=3)
    specs = param_specs(cfg, ("w1", "w_o"), 3)
    assert table(model.params) == shapes(specs)
    for name, (_, _, init) in specs.items():
        assert model.trains(name) == (".lora_" in name)
        assert (init == "lora") == name.endswith(".lora_a")
        if name.endswith(".lora_b"):
            assert init == "zeros" and not model.param(name).any()
    assert sum(name.endswith(".lora_a") for name in specs) == 2 * 2


# ---- embeddings --------------------------------------------------------------

def test_embed_zero_tables_give_zero_matrix():
    model = build_model(tiny_config(), seed=0, dtype="float64")
    model.param("tok_emb")[...] = 0.0
    model.param("pos_emb")[...] = 0.0
    t = Tape()
    out = embed(t, model, np.array([1, 2, 3]))
    assert np.array_equal(out.value, np.zeros((3, 8)))


def test_embed_single_token_is_sum_of_table_rows():
    model = build_model(tiny_config(), seed=2, dtype="float64")
    seq = np.array([3])
    t = Tape()
    out = embed(t, model, seq).value
    expected = (model.param("tok_emb")[3]
                + model.param("pos_emb")[0])
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
    return SplitHidden(tape.input(h), None, partition)


def attention_layer(model, layer, h):
    """h + attention(norm1(h)): the one-group split's attention update."""
    t = Tape()
    split = tokentune_attention(t, model, layer, one_group(t, h))
    assert split.h_gbar is None
    return split.h_g.value


def norm_vals(model, layer, x, which):
    scale = model.param(f"layers.{layer}.norm{which}.scale")
    shift = model.param(f"layers.{layer}.norm{which}.shift")
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * scale + shift


def _dense_attention_oracle(h, model, layer, causal):
    """Independent multi-head attention implementation."""
    cfg = model.config
    p = {name: model.param(name)
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
    v = norm_vals(model, 0, h, 1) @ model.param(f"{base}.w_v") \
        + model.param(f"{base}.b_v")
    expected = h + v @ model.param(f"{base}.w_o") \
        + model.param(f"{base}.b_o")
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
    for name, arr in model.params.items():
        if ".attn.w_" in name or ".ffn.w" in name:
            arr[...] = 0.0
        if name.endswith((".b_q", ".b_k", ".b_v", ".b_o", ".b1", ".b2")):
            arr[...] = 0.0
    h = rng_for(6).normal(size=(4, 8))
    t = Tape()
    split = one_group(t, h)
    for layer in range(3):
        split = tokentune_attention(t, model, layer, split)
        split = tokentune_ffn(t, model, layer, split)
    assert np.array_equal(split.h_g.value, h)


@pytest.mark.parametrize("tracked", [False, True], ids=["no_grad", "tracked"])
@pytest.mark.parametrize("block_rows", [FFN_BLOCK_ROWS, 64])
@pytest.mark.parametrize("lora", [False, True], ids=["plain", "lora"])
@pytest.mark.parametrize("rows", [5, 65, 129, 449])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_ffn_in_row_blocks_equals_the_whole_array_ffn(
        monkeypatch, dtype, rows, lora, block_rows, tracked):
    # at the benchmark's FFN widths, where the BLAS kernels are the ones
    # training runs, over a layer norm's rows as in the model, against
    # one block of all rows. Values and the input's gradient are
    # separable by row, so the blocks change neither; weight gradients
    # are sums over the blocks, rounded accordingly. An adapted FFN runs
    # in the same blocks, but a LoRA factor's narrow product (w2's: 449 x
    # 1024 GELU rows times its 1024 x 4 factor A) can differ from the
    # same product over 225- and 224-row blocks in the last bits
    cfg = tiny_config(d_model=256, n_heads=8, d_ff=1024, n_layers=1)
    model = build_model(cfg, seed=16, dtype=dtype)
    r = rng_for(16)
    if lora:
        attach(model, ("w1", "w2"), r=4, alpha=8.0, seed=16)
        for name, arr in model.params.items():  # B starts at zero
            if name.endswith(".lora_b"):
                arr[...] = r.normal(0.0, 0.02, arr.shape)
    h = r.normal(size=(rows, 256)).astype(dtype)
    targets = r.integers(0, 256, size=rows)

    def run(block):
        monkeypatch.setattr(model_module, "FFN_BLOCK_ROWS", block)
        tape = Tape()
        x = tape.input(h)
        if not tracked:
            with tape.no_grad():
                return ffn(tape, model, 0, norm(tape, model, 0, 2, x)), {}
        out = ffn(tape, model, 0, norm(tape, model, 0, 2, x))
        grads = tape.backward(tape.cross_entropy(out, targets))
        return out, {"x": tape.grad_of(x), **grads}

    want, want_grads = run(rows)
    got, got_grads = run(block_rows)
    tol = 1e-6 if dtype == "float32" else 1e-15
    if lora:
        err = np.abs(got.value - want.value).max()
        assert err <= tol * np.abs(want.value).max()
    else:
        assert np.array_equal(got.value, want.value)
    for name, value in want_grads.items():
        if lora or name.startswith("layers."):
            err = np.abs(got_grads[name] - value).max()
            assert err <= 10 * tol * np.abs(value).max(), (name, err)
        else:
            assert np.array_equal(got_grads[name], value), name
    count = -(-rows // block_rows)
    if count == 1:
        assert got.op == "affine"
    else:
        sizes = [part.shape[0] for part in got.node.inputs]
        assert got.op == "concat_rows" and len(sizes) == count
        assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 32


def test_split_layer_composes_attention_and_ffn():
    model = build_model(tiny_config(n_layers=1), seed=7, dtype="float64")
    h = rng_for(7).normal(size=(2, 8))
    t = Tape()
    split = tokentune_attention(t, model, 0, one_group(t, h))
    got = tokentune_ffn(t, model, 0, split).h_g.value

    mid = h + _dense_attention_oracle(norm_vals(model, 0, h, 1), model, 0,
                                      False)
    z = norm_vals(model, 0, mid, 2) @ model.param("layers.0.ffn.w1") \
        + model.param("layers.0.ffn.b1")
    g = 0.5 * z * (1 + np.tanh(np.sqrt(2 / np.pi) * (z + 0.044715 * z**3)))
    want = mid + g @ model.param("layers.0.ffn.w2") \
        + model.param("layers.0.ffn.b2")
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
    model.param("head.w2")[...] = 0.0
    model.param("head.b2")[...] = 0.0
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


def test_eval_pooling_over_every_row_matches_the_training_head():
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
    model.params["head.w_lm"] = w
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
    assert np.array_equal(got, h @ model.param("head.w_lm"))
