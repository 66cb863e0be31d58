"""Transformer encoder/decoder built from tape primitives.

Pre-norm residual blocks with GELU feed-forward, learned absolute position
embeddings (row i of a sequence is position i), multi-head attention
(causal for a language model: a query sees no later position), and either
a classifier head (one hidden layer MLP over a mean-pooled
representation) or a tied-nothing language-model projection.

These are the on-tape builders of `selective.tokentune_forward`, the one
layer loop: full fine-tuning, LoRA and evaluation run it with every
position selected (TokenTune with k = n), and `forward_hidden` is that
forward's rows in position order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .engine import Tape, Tensor

INIT_STD = 0.02

#: Rows per block of a feed-forward block run without gradients. Nothing
#: is saved then, so rows are independent, and running near-equal row
#: blocks of at most this many rows bounds the two rows x d_ff arrays
#: live at once. Every block has more than half this many rows: with
#: OpenBLAS, products of 1-3 rows can differ from the whole array's in
#: the last bits, while the FFN's products of 4 or more rows are equal to
#: them bit for bit. A LoRA factor's narrow product (rows x d_in times
#: d_in x rank) is not: its last bits can change with the row count, so
#: a layer with an adapter on w1 or w2 runs its FFN whole.
FFN_BLOCK_ROWS = 256


class ModelError(ValueError):
    pass


@dataclass
class Parameter:
    value: np.ndarray
    frozen: bool = False

    @property
    def shape(self):
        return self.value.shape


class TransformerModel:
    """Named parameter store plus the config; adapters attach by name."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params
        self.adapters: dict[str, object] = {}  # target param name -> adapter

    def param(self, name: str) -> Parameter:
        if name not in self.params:
            raise ModelError(f"unknown parameter '{name}'")
        return self.params[name]

    def param_items(self):
        return list(self.params.items())

    def trainable_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Arrays the optimizer may update, in a fixed order.

        Adapter factors appear as '<target>.lora_a' / '<target>.lora_b',
        matching the names the tape reports gradients under.
        """
        out = []
        for name, p in self.params.items():
            if not p.frozen:
                out.append((name, p.value))
            ad = self.adapters.get(name)
            if ad is not None:
                out.append((f"{name}.lora_a", ad.a))
                out.append((f"{name}.lora_b", ad.b))
        return out

    def total_param_elements(self) -> int:
        total = sum(p.value.size for p in self.params.values())
        for ad in self.adapters.values():
            total += ad.a.size + ad.b.size
        return total

    def trainable_elements(self) -> int:
        return sum(arr.size for _, arr in self.trainable_arrays())

    @property
    def dtype(self):
        return next(iter(self.params.values())).value.dtype

    def astype(self, dtype) -> "TransformerModel":
        clone = TransformerModel(self.config, {
            name: Parameter(p.value.astype(dtype), p.frozen)
            for name, p in self.params.items()
        })
        for target, ad in self.adapters.items():
            clone.adapters[target] = ad.astype(dtype)
        return clone


def layer_param_names(i: int) -> list[str]:
    base = f"layers.{i}"
    return [
        f"{base}.attn.w_q", f"{base}.attn.b_q",
        f"{base}.attn.w_k", f"{base}.attn.b_k",
        f"{base}.attn.w_v", f"{base}.attn.b_v",
        f"{base}.attn.w_o", f"{base}.attn.b_o",
        f"{base}.norm1.scale", f"{base}.norm1.shift",
        f"{base}.norm2.scale", f"{base}.norm2.shift",
        f"{base}.ffn.w1", f"{base}.ffn.b1",
        f"{base}.ffn.w2", f"{base}.ffn.b2",
    ]


def build_model(config: ModelConfig, seed: int = 0,
                dtype: str = "float32") -> TransformerModel:
    """Fresh model: normal(0, 0.02) weights, zero biases/shifts, unit scales."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70CE]))
    npdtype = np.dtype(dtype)
    d, dff = config.d_model, config.d_ff

    def w(rows, cols):
        return Parameter(rng.normal(0.0, INIT_STD, (rows, cols)).astype(npdtype))

    def zeros(cols):
        return Parameter(np.zeros((1, cols), dtype=npdtype))

    def ones(cols):
        return Parameter(np.ones((1, cols), dtype=npdtype))

    params: dict[str, Parameter] = {}
    params["tok_emb"] = w(config.vocab_size, d)
    params["pos_emb"] = w(config.max_positions, d)
    for i in range(config.n_layers):
        base = f"layers.{i}"
        for suffix in ("q", "k", "v", "o"):
            params[f"{base}.attn.w_{suffix}"] = w(d, d)
            params[f"{base}.attn.b_{suffix}"] = zeros(d)
        params[f"{base}.norm1.scale"] = ones(d)
        params[f"{base}.norm1.shift"] = zeros(d)
        params[f"{base}.norm2.scale"] = ones(d)
        params[f"{base}.norm2.shift"] = zeros(d)
        params[f"{base}.ffn.w1"] = w(d, dff)
        params[f"{base}.ffn.b1"] = zeros(dff)
        params[f"{base}.ffn.w2"] = w(dff, d)
        params[f"{base}.ffn.b2"] = zeros(d)
    if config.causal:
        params["head.w_lm"] = w(d, config.vocab_size)
    else:
        params["head.w1"] = w(d, d)
        params["head.b1"] = zeros(d)
        params["head.w2"] = w(d, config.n_classes)
        params["head.b2"] = zeros(config.n_classes)
    return TransformerModel(config, params)


# ---- on-tape building blocks ----------------------------------------------

def _param_node(tape: Tape, model: TransformerModel, name: str) -> Tensor:
    p = model.param(name)
    return tape.param(name, p.value, trainable=not p.frozen)


def affine(tape: Tape, model: TransformerModel, x: Tensor, w_name: str,
           b_name: str | None = None) -> Tensor:
    """x @ W (+ low-rank delta if an adapter is attached) (+ bias)."""
    w = _param_node(tape, model, w_name)
    z = tape.matmul(x, w)
    ad = model.adapters.get(w_name)
    if ad is not None:
        a = tape.param(f"{w_name}.lora_a", ad.a, trainable=True)
        b = tape.param(f"{w_name}.lora_b", ad.b, trainable=True)
        delta = tape.scale(tape.matmul(tape.matmul(x, a), b), ad.scaling)
        z = tape.add(z, delta)
    if b_name is not None:
        z = tape.add(z, _param_node(tape, model, b_name))
    return z


def attend_heads(tape: Tape, q: Tensor, k: Tensor, v: Tensor,
                 positions: np.ndarray, causal: bool, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product mix; shared by every attention variant."""
    return tape.attention(q, k, v, positions, causal, n_heads)


def qkv(tape: Tape, model: TransformerModel, layer: int,
        h_n: Tensor) -> list[Tensor]:
    """The query, key and value affines of layer `layer` over normalized
    rows."""
    base = f"layers.{layer}.attn"
    return [affine(tape, model, h_n, f"{base}.w_{x}", f"{base}.b_{x}")
            for x in "qkv"]


def attend_project(tape: Tape, model: TransformerModel, layer: int,
                   q: Tensor, k: Tensor, v: Tensor,
                   positions: np.ndarray) -> Tensor:
    """Attention of `q`, the queries at `positions`, over `k`/`v`, key j
    at position j; then the output affine."""
    base = f"layers.{layer}.attn"
    cfg = model.config
    mixed = attend_heads(tape, q, k, v, positions, cfg.causal, cfg.n_heads)
    return affine(tape, model, mixed, f"{base}.w_o", f"{base}.b_o")


def _ffn_rows(tape: Tape, model: TransformerModel, layer: int,
              h: Tensor) -> Tensor:
    base = f"layers.{layer}.ffn"
    # no local for the pre-GELU value, so a no-grad forward frees it as
    # soon as GELU has read it
    hidden = tape.gelu(affine(tape, model, h, f"{base}.w1", f"{base}.b1"))
    return affine(tape, model, hidden, f"{base}.w2", f"{base}.b2")


def ffn(tape: Tape, model: TransformerModel, layer: int, h: Tensor) -> Tensor:
    """GELU feed-forward block. Without gradients and adapters it runs
    over near-equal blocks of at most FFN_BLOCK_ROWS rows, joined by
    `concat_rows`: the same builders and values, with one block's hidden
    arrays alive at a time instead of all rows'."""
    base = f"layers.{layer}.ffn"
    rows = h.value.shape[0]
    count = -(-rows // FFN_BLOCK_ROWS)
    if tape.grad_enabled or count < 2 or f"{base}.w1" in model.adapters \
            or f"{base}.w2" in model.adapters:
        return _ffn_rows(tape, model, layer, h)
    bounds = [rows * i // count for i in range(count + 1)]
    return tape.concat_rows([
        _ffn_rows(tape, model, layer, tape.select_rows(h, np.arange(r0, r1)))
        for r0, r1 in zip(bounds, bounds[1:])])


def norm(tape: Tape, model: TransformerModel, layer: int, which: int,
         h: Tensor) -> Tensor:
    base = f"layers.{layer}.norm{which}"
    return tape.layer_norm(h, _param_node(tape, model, f"{base}.scale"),
                           _param_node(tape, model, f"{base}.shift"))


def embed(tape: Tape, model: TransformerModel, seq: np.ndarray) -> Tensor:
    """Token plus position embeddings of a sequence, given as its token
    ids (id i at position i); every forward enters the model here."""
    ids = np.asarray(seq, np.intp)
    cfg = model.config
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ModelError(f"token id out of range for vocab {cfg.vocab_size}")
    if len(ids) > cfg.max_positions:
        raise ModelError(f"{len(ids)} positions exceed max_positions "
                         f"{cfg.max_positions}")
    with tape.region("embed"):
        tok = tape.select_rows(_param_node(tape, model, "tok_emb"), ids)
        pos = tape.select_rows(_param_node(tape, model, "pos_emb"),
                               np.arange(len(ids)))
        return tape.add(tok, pos)


def forward_hidden(tape: Tape, model: TransformerModel,
                   seq: np.ndarray) -> Tensor:
    """The forward of full fine-tuning and evaluation: TokenTune's forward
    with every position selected, one row per position."""
    from .selective import every_position, restore_hidden, tokentune_forward
    return restore_hidden(tape, tokentune_forward(tape, model, seq,
                                                  every_position(seq)))


# ---- heads and losses ------------------------------------------------------

def class_logits(tape: Tape, model: TransformerModel,
                 h_rows: Tensor) -> Tensor:
    """Class logits of the mean of `h_rows` through the one-hidden-layer
    MLP head; the training loss and evaluation share it."""
    if h_rows.value.shape[0] < 1:
        raise ModelError("classification pooling needs at least one row")
    with tape.region("head"):
        pooled = tape.mean_rows(h_rows)
        hidden = tape.gelu(affine(tape, model, pooled, "head.w1", "head.b1"))
        return affine(tape, model, hidden, "head.w2", "head.b2")


def loss_classification_rows(tape: Tape, model: TransformerModel,
                             h_rows: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of `label` from mean-pooled rows."""
    n_classes = model.config.n_classes
    if not 0 <= label < n_classes:
        raise ModelError(f"label {label} out of range for {n_classes} classes")
    logits = class_logits(tape, model, h_rows)
    with tape.region("head"):
        return tape.cross_entropy(logits, [label])


def lm_logits(tape: Tape, model: TransformerModel, h_rows: Tensor) -> Tensor:
    with tape.region("head"):
        return affine(tape, model, h_rows, "head.w_lm")


def loss_lm_rows(tape: Tape, model: TransformerModel, h_rows: Tensor,
                 targets) -> Tensor:
    """Summed next-token cross-entropy for the given rows."""
    targets = np.asarray(targets, dtype=np.intp)
    if targets.size == 0:
        raise ModelError("language-model loss needs at least one target row")
    logits = lm_logits(tape, model, h_rows)
    with tape.region("head"):
        return tape.cross_entropy(logits, targets)


# ---- value-level head application (evaluation paths) -----------------------

def log_softmax(values: np.ndarray) -> np.ndarray:
    zmax = values.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(values - zmax).sum(axis=1, keepdims=True))
    return values - lse
