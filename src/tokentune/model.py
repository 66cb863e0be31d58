"""Transformer encoder/decoder built from tape primitives.

Pre-norm residual blocks with GELU feed-forward, learned absolute position
embeddings (row i of a sequence is position i), multi-head attention
(causal for a language model: a query sees no later position), and either
a classifier head (one hidden layer MLP over a mean-pooled
representation) or a tied-nothing language-model projection.

These are the on-tape builders of `selective.tokentune_forward`, the one
layer loop: full fine-tuning, LoRA and evaluation run it with every
position selected (TokenTune with k = n), and `forward_hidden` is that
forward's selected rows, one per position in position order.
"""

from __future__ import annotations

import numpy as np

from .config import LORA_TARGETS, ModelConfig
from .engine import Tape, Tensor

INIT_STD = 0.02

#: Rows per block of a feed-forward block, with or without gradients or
#: adapters: over more rows it runs in near-equal row blocks of at most
#: this many, so one block's rows x d_ff arrays are live at a time, in
#: forward and in W2's backward, which rebuilds a block's pre-activation,
#: writes its GELU output over it and forms the derivative. A block saves
#: no rows of its own: its W1 affine reads rows of a layer norm's output,
#: which backward rebuilds, and without gradients GELU writes over the
#: pre-activation. Values and input gradients are separable by row, so
#: the blocks change none of their bits; weight gradients are sums over
#: the blocks and may round differently.
#: Every block has more than half this many rows: with OpenBLAS, products
#: of 1-3 rows can differ from the whole array's in the last bits, while
#: the base weights' products of 4 or more rows are equal to them bit for
#: bit. A LoRA factor's narrow product (rows x d_in times d_in x rank) can
#: change in its last bits with the row count, so an adapted block's rows
#: may too.
FFN_BLOCK_ROWS = 256


class ModelError(ValueError):
    pass


class TransformerModel:
    """Named parameter arrays plus the config. An adapted weight W has its
    LoRA factors beside it as '<W>.lora_a' and '<W>.lora_b', scaled by
    `lora_scaling` (alpha/r; None without adapters)."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 lora_scaling: float | None = None):
        self.config = config
        self.params = params
        self.lora_scaling = lora_scaling

    def param(self, name: str) -> np.ndarray:
        if name not in self.params:
            raise ModelError(f"unknown parameter '{name}'")
        return self.params[name]

    def trains(self, name: str) -> bool:
        """Whether the optimizer updates parameter `name`: every parameter
        of a model without factors, only the factors of one with them."""
        return self.lora_scaling is None \
            or name.endswith((".lora_a", ".lora_b"))

    def trainable_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Arrays the optimizer may update, in parameter order."""
        return [(name, arr) for name, arr in self.params.items()
                if self.trains(name)]

    def total_param_elements(self) -> int:
        return sum(arr.size for arr in self.params.values())

    def trainable_elements(self) -> int:
        return sum(arr.size for _, arr in self.trainable_arrays())

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def astype(self, dtype) -> "TransformerModel":
        return TransformerModel(self.config, {
            name: arr.astype(dtype) for name, arr in self.params.items()},
            self.lora_scaling)


#: target keyword -> per-layer suffix of the weight a LoRA factor pair adapts
TARGET_SUFFIXES = {t: f"{'attn' if t.startswith('w_') else 'ffn'}.{t}"
                   for t in LORA_TARGETS}


def param_specs(config: ModelConfig, targets=(),
                r: int = 0) -> dict[str, tuple[int, int, str]]:
    """Every parameter of a model of `config`, name -> (rows, cols, init),
    in storage order: the one list of names and shapes. `init` is
    'normal' (normal(0, INIT_STD)), 'zeros', 'ones' or 'lora' (a LoRA A
    factor). Each weight W (d_in x d_out) a keyword of `targets` names is
    followed by its '<W>.lora_a' (d_in x r, 'lora') and '<W>.lora_b'
    (r x d_out, 'zeros')."""
    d, dff = config.d_model, config.d_ff
    adapted = {TARGET_SUFFIXES[t] for t in targets}
    specs: dict[str, tuple[int, int, str]] = {}

    def add(name, rows, cols, init="normal"):
        specs[name] = (rows, cols, init)
        if name.startswith("layers.") and name.split(".", 2)[2] in adapted:
            specs[f"{name}.lora_a"] = (rows, r, "lora")
            specs[f"{name}.lora_b"] = (r, cols, "zeros")

    add("tok_emb", config.vocab_size, d)
    add("pos_emb", config.max_positions, d)
    for i in range(config.n_layers):
        base = f"layers.{i}"
        for x in "qkvo":
            add(f"{base}.attn.w_{x}", d, d)
            add(f"{base}.attn.b_{x}", 1, d, "zeros")
        for x in "12":
            add(f"{base}.norm{x}.scale", 1, d, "ones")
            add(f"{base}.norm{x}.shift", 1, d, "zeros")
        for x, rows, cols in (("1", d, dff), ("2", dff, d)):
            add(f"{base}.ffn.w{x}", rows, cols)
            add(f"{base}.ffn.b{x}", 1, cols, "zeros")
    if config.causal:
        add("head.w_lm", d, config.vocab_size)
    else:
        for x, cols in (("1", d), ("2", config.n_classes)):
            add(f"head.w{x}", d, cols)
            add(f"head.b{x}", 1, cols, "zeros")
    return specs


def build_model(config: ModelConfig, seed: int = 0,
                dtype: str = "float32") -> TransformerModel:
    """Fresh model of `param_specs`' table: normal(0, INIT_STD) weights,
    drawn in table order, zero biases/shifts, unit scales."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70CE]))
    npdtype = np.dtype(dtype)
    params = {}
    for name, (rows, cols, init) in param_specs(config).items():
        value = (rng.normal(0.0, INIT_STD, (rows, cols)) if init == "normal"
                 else np.full((rows, cols), float(init == "ones")))
        params[name] = value.astype(npdtype)
    return TransformerModel(config, params)


# ---- on-tape building blocks ----------------------------------------------

def _param_node(tape: Tape, model: TransformerModel, name: str) -> Tensor:
    return tape.param(name, model.param(name), trainable=model.trains(name))


def affine(tape: Tape, model: TransformerModel, x: Tensor, w_name: str,
           b_name: str | None = None) -> Tensor:
    """x @ W (+ low-rank delta if W has LoRA factors) (+ bias): one
    `Tape.affine` node, tracked or not, which sums the three in one array
    and differentiates them in its own backward rule."""
    w = _param_node(tape, model, w_name)
    lora = None
    if f"{w_name}.lora_a" in model.params:
        lora = (_param_node(tape, model, f"{w_name}.lora_a"),
                _param_node(tape, model, f"{w_name}.lora_b"),
                model.lora_scaling)
    bias = None if b_name is None else _param_node(tape, model, b_name)
    return tape.affine(x, w, bias, lora)


def attend_heads(tape: Tape, q: Tensor, k: Tensor, v: Tensor,
                 positions: np.ndarray, causal: bool, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product mix; shared by every attention variant."""
    return tape.attention(q, k, v, positions, causal, n_heads)


def qkv(tape: Tape, model: TransformerModel, layer: int, h_n: Tensor,
        which: str = "qkv") -> list[Tensor]:
    """The query, key and value affines of layer `layer` over normalized
    rows, or those of them `which` names, in that order."""
    base = f"layers.{layer}.attn"
    return [affine(tape, model, h_n, f"{base}.w_{x}", f"{base}.b_{x}")
            for x in which]


def attend_project(tape: Tape, model: TransformerModel, layer: int,
                   q: Tensor, k: Tensor, v: Tensor,
                   positions: np.ndarray) -> Tensor:
    """Attention of `q`, the queries at `positions`, over `k`/`v`, key j
    at position j; then the output affine, with `k` and `v` no longer
    held here."""
    base = f"layers.{layer}.attn"
    cfg = model.config
    mixed = attend_heads(tape, q, k, v, positions, cfg.causal, cfg.n_heads)
    del q, k, v
    return affine(tape, model, mixed, f"{base}.w_o", f"{base}.b_o")


def _ffn_rows(tape: Tape, model: TransformerModel, layer: int,
              h: Tensor) -> Tensor:
    base = f"layers.{layer}.ffn"
    hidden = affine(tape, model, h, f"{base}.w1", f"{base}.b1")
    # a row block's copy dies here, before GELU and the w2 affine run;
    # without gradients nothing else reads the pre-GELU value, so GELU
    # writes over it, and otherwise the rebinding frees it once GELU has
    # read it
    del h
    hidden = tape.gelu(hidden, in_place=not tape.grad_enabled)
    return affine(tape, model, hidden, f"{base}.w2", f"{base}.b2")


def ffn(tape: Tape, model: TransformerModel, layer: int, h: Tensor) -> Tensor:
    """GELU feed-forward block, over near-equal blocks of at most
    FFN_BLOCK_ROWS rows of `h`, each a `select_rows`, joined by
    `concat_rows`: the same builders, tracked or not, with one block's
    hidden arrays alive at a time instead of all rows'."""
    rows = h.value.shape[0]
    count = -(-rows // FFN_BLOCK_ROWS)
    if count < 2:
        return _ffn_rows(tape, model, layer, h)
    bounds = [rows * i // count for i in range(count + 1)]
    return tape.concat_rows([
        _ffn_rows(tape, model, layer, tape.select_rows(h, slice(r0, r1)))
        for r0, r1 in zip(bounds, bounds[1:])])


def norm(tape: Tape, model: TransformerModel, layer: int, which: int,
         h: Tensor) -> Tensor:
    base = f"layers.{layer}.norm{which}"
    return tape.layer_norm(h, _param_node(tape, model, f"{base}.scale"),
                           _param_node(tape, model, f"{base}.shift"))


def embed(tape: Tape, model: TransformerModel, seq: np.ndarray,
          positions=None) -> Tensor:
    """Token plus position embeddings of a sequence, given as its token
    ids (id i at position i), at `positions` (all, in order, by default):
    row j is position positions[j]. Every forward enters the model
    here."""
    ids = np.asarray(seq, np.intp)
    cfg = model.config
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ModelError(f"token id out of range for vocab {cfg.vocab_size}")
    if len(ids) > cfg.max_positions:
        raise ModelError(f"{len(ids)} positions exceed max_positions "
                         f"{cfg.max_positions}")
    if positions is None:
        positions = np.arange(len(ids))
    else:
        ids = ids[positions]
    with tape.region("embed"):
        tok = tape.select_rows(_param_node(tape, model, "tok_emb"), ids)
        pos = tape.select_rows(_param_node(tape, model, "pos_emb"),
                               positions)
        return tape.add(tok, pos)


def forward_hidden(tape: Tape, model: TransformerModel,
                   seq: np.ndarray) -> Tensor:
    """The forward of full fine-tuning and evaluation: TokenTune's forward
    with every position selected, whose selected rows are already in
    position order, one per position."""
    from .selective import every_position, tokentune_forward
    return tokentune_forward(tape, model, seq, every_position(seq)).h_g


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
