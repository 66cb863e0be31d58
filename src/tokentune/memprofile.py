"""Engine-accounted memory decomposition and sweeps.

Memory is attributed from the engine's own accounting, not process RSS:
the parameter, gradient, and optimizer-state categories come from element
counts of the model and Adam state; the activation category is the bytes
one example's tape retains for backward, split by layer and by op
(engine.Tape.retained_bytes), and the peak comes from a liveness replay of
each recorded tape (engine.simulate_peak_bytes). Examples run one at a
time, so both are per example: the largest over the step's batch. Bytes
are exact integers. `retained_bytes_law` states tokentune's activation
bytes in closed form, and a tokentune run's report sets the ledger's
figure beside it.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adapters import attach
from .config import (ADAPTER_REGIMES, REGIMES, SELECTIVE_REGIMES,
                     ModelConfig, TaskConfig, TrainConfig)
from .data import BYTE_VOCAB, Example, lm_example
from .model import TransformerModel, build_model
from .optimize import Trainer
from .partition import resolve_k


def build_regime_model(cfg: ModelConfig,
                       train: TrainConfig) -> TransformerModel:
    """The model a run of `train` starts from: fresh weights from its seed,
    in its dtype, with its LoRA factors attached in the adapter regimes."""
    model = build_model(cfg, seed=train.seed, dtype=train.dtype)
    if train.regime in ADAPTER_REGIMES:
        attach(model, train.lora_targets, train.lora_r, train.lora_alpha,
               seed=train.seed)
    return model


def lm_profile_batch(n: int, batch: int, seed: int = 0,
                     vocab_size: int = BYTE_VOCAB) -> list[Example]:
    """Deterministic random `lm_example` windows of ids below `vocab_size`
    (bytes by default)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3E3]))
    return [lm_example(rng.integers(0, vocab_size, size=n))
            for _ in range(batch)]


def retained_bytes_law(cfg: ModelConfig, n: int,
                       itemsize: int) -> tuple[int, int, int]:
    """(intercept, per selected position, per loss row): the bytes
    tokentune retains for backward over a sequence of n positions, k < n
    of them selected, of which `rows` are loss rows (a language model's
    selected positions with a next-token target; classification has
    none), are intercept + per_position * k + per_row * rows, read off
    what each op saves (Korthikanti et al. 2022 count the same way).

    Every layer's attention saves that layer's n - k unselected input
    rows, from which backward rebuilds its keys and values, and the
    1 x 1 loss is the last node: L n d s + s, less d s per layer for
    each selected position, whose input row is not kept. Per selected
    position and layer it keeps the query affine's output (attention
    reads it), the attention output (W_o reads it), one log-sum-exp per
    head, each layer norm's normalized row and inverse std, and, if
    causal, a copy of the row's position: with the -d, (3d + heads + 2)
    s (+ 8). The keys and values and the feed-forward block's norm
    output, pre-activation and GELU output are rebuilt in backward. Per
    loss row: the row the LM affine reads and its softmax
    probabilities. A classification head keeps its pooled row, the GELU
    input and the class probabilities whatever k is."""
    d, layers = cfg.d_model, cfg.n_layers
    intercept = layers * n * d * itemsize + itemsize
    per_position = (3 * d + cfg.n_heads + 2) * itemsize
    if cfg.causal:
        per_position += np.dtype(np.intp).itemsize
        return (intercept, layers * per_position,
                (d + cfg.vocab_size) * itemsize)
    return (intercept + (2 * d + cfg.n_classes) * itemsize,
            layers * per_position, 0)


def memory_report(model: TransformerModel, trainer: Trainer,
                  metrics: dict) -> dict:
    """``memory.json`` of the step that returned `metrics`: its activation
    and peak bytes, and the activation bytes by layer and by op of the
    example that set them (``trainer.activation_breakdown``), which each
    sum to the activation bytes. In the tokentune regime, with positions
    left unselected, ``law_activations_bytes`` is
    :func:`retained_bytes_law`'s figure for that example and
    ``activations_differ_from_law`` whether the ledger's differs; both
    are None otherwise."""
    width = np.dtype(model.dtype).itemsize
    law = None
    shape = trainer.activation_example
    if trainer.cfg.regime == "tokentune" and shape and shape[1] < shape[0]:
        n, k, rows = shape
        intercept, per_position, per_row = retained_bytes_law(
            model.config, n, width)
        law = intercept + per_position * k + per_row * rows
    per_layer: dict[str, int] = {}
    per_op: dict[str, int] = {}
    for (label, op), nbytes in trainer.activation_breakdown.items():
        layer = label.split(".attn")[0].split(".ffn")[0] or "other"
        per_layer[layer] = per_layer.get(layer, 0) + nbytes
        per_op[op] = per_op.get(op, 0) + nbytes
    return {
        "params_bytes": model.total_param_elements() * width,
        "grads_bytes": model.trainable_elements() * width,
        "optimizer_bytes": trainer.state.element_count() * width,
        "activations_bytes": metrics["activation_bytes"],
        "peak_bytes": metrics["peak_bytes"],
        "law_activations_bytes": law,
        "activations_differ_from_law": (
            None if law is None else law != metrics["activation_bytes"]),
        "per_layer": dict(sorted(per_layer.items())),
        "per_op": dict(sorted(per_op.items())),
    }


BYTE_COLUMNS = ("params_bytes", "grads_bytes", "optimizer_bytes",
                "activations_bytes", "peak_bytes")
SWEEP_COLUMNS = ("regime", "n", "k", "batch") + BYTE_COLUMNS
#: the selection ratios a sweep profiles each selective regime at
RATIOS = (0.125, 0.25, 0.5, 1.0)


def sweep_report(model: ModelConfig, train: TrainConfig, n: int,
                 batch: int = 1, regimes=REGIMES, ratios=RATIOS,
                 out_path=None) -> list[dict]:
    """Profile one language-model train step of `batch` windows of `n`
    tokens per point: each regime in order, and each selective one at each
    selection ratio. A point is the run's configs with its regime and
    ratio, ``max_positions = n`` and a causal LM head; the configs check
    every point before any step runs. A row's k is the k its step
    selected, n in a regime that selects every position. Writes a CSV
    table when out_path is given (header always, even for no regime).
    A window of `n` tokens is checked as a task's `seq_len` is: a window
    of one token has no next-token target, so no step would record a
    tape."""
    TaskConfig(seq_len=n)
    cfg = replace(model, max_positions=n, causal=True, n_classes=None)
    points = []
    for regime in regimes:
        for ratio in ratios if regime in SELECTIVE_REGIMES else (None,):
            k = n if ratio is None else resolve_k(None, ratio, n)
            points.append((k, replace(
                train, regime=regime, k=None, selection_ratio=ratio,
                batch_size=batch, accumulation_steps=1)))
    examples = lm_profile_batch(n, batch, seed=train.seed,
                                vocab_size=min(cfg.vocab_size, BYTE_VOCAB))
    rows = []
    for k, train_cfg in points:
        run_model = build_regime_model(cfg, train_cfg)
        trainer = Trainer(run_model, train_cfg, "lm")
        report = memory_report(run_model, trainer,
                               trainer.train_step(examples))
        rows.append({"regime": train_cfg.regime, "n": n, "k": k,
                     "batch": batch,
                     **{col: report[col] for col in BYTE_COLUMNS}})
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows
