"""Engine-accounted memory decomposition and sweeps.

Memory is attributed from the engine's own accounting, not process RSS:
the parameter, gradient, and optimizer-state categories come from element
counts of the model and Adam state; the activation category is the bytes
one example's tape retains for backward, split by layer and by op
(engine.Tape.retained_bytes), and the peak comes from a liveness replay of
each recorded tape (engine.simulate_peak_bytes). Examples run one at a
time, so both are per example: the largest over the step's batch. Bytes
are exact integers.
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from .adapters import attach
from .config import (ADAPTER_REGIMES, REGIMES, SELECTIVE_REGIMES,
                     ModelConfig, TrainConfig)
from .data import BYTE_VOCAB, Example
from .model import TransformerModel, build_model
from .optimize import Trainer


def build_regime_model(regime: str, cfg: ModelConfig, seed: int = 0,
                       dtype: str = "float32",
                       lora_targets=("w1", "w2"), lora_r: int = 8,
                       lora_alpha: float = 16.0) -> TransformerModel:
    model = build_model(cfg, seed=seed, dtype=dtype)
    if regime in ADAPTER_REGIMES:
        attach(model, lora_targets, lora_r, lora_alpha, seed=seed)
    return model


def lm_profile_batch(n: int, batch: int, seed: int = 0,
                     vocab_size: int = BYTE_VOCAB) -> list[Example]:
    """Deterministic random windows of ids below `vocab_size` (bytes by
    default) with shifted targets."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3E3]))
    out = []
    for _ in range(batch):
        ids = rng.integers(0, vocab_size, size=n)
        targets = np.full(n, -1, dtype=np.intp)
        targets[:-1] = ids[1:]
        out.append(Example(seq=ids, targets=targets))
    return out


def memory_report(model: TransformerModel, trainer: Trainer,
                  metrics: dict | None) -> dict:
    """``memory.json`` of the step that returned `metrics` (None: no step
    ran): its activation and peak bytes, and the activation bytes by layer
    and by op of the example that set them (``trainer.activation_breakdown``),
    which each sum to the activation bytes."""
    width = np.dtype(model.dtype).itemsize
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
        "activations_bytes": metrics["activation_bytes"] if metrics else 0,
        "peak_bytes": metrics["peak_bytes"] if metrics else 0,
        "per_layer": dict(sorted(per_layer.items())),
        "per_op": dict(sorted(per_op.items())),
    }


BYTE_COLUMNS = ("params_bytes", "grads_bytes", "optimizer_bytes",
                "activations_bytes", "peak_bytes")
SWEEP_COLUMNS = ("regime", "n", "k", "batch") + BYTE_COLUMNS


def sweep_report(grid, model: ModelConfig, train: TrainConfig,
                 out_path=None) -> list[dict]:
    """Profile one language-model train step at every grid point {regime,
    n, k, batch}: the run's configs with the point's values, ``max_positions
    = n`` and a causal LM head. A selective regime needs a k in 1..n, so
    that a row's k is the k its step selected; the other regimes select
    nothing, and a k of None is reported as n. Writes a CSV
    table when out_path is given (header always, even for an empty grid)."""
    rows = []
    for point in grid:
        regime = point["regime"]
        if regime not in REGIMES:
            raise ValueError(f"unknown regime '{regime}'")
        n = int(point["n"])
        batch = int(point.get("batch", 1))
        selective = regime in SELECTIVE_REGIMES
        k = point.get("k")
        if selective and (k is None or not 1 <= int(k) <= n):
            raise ValueError(f"grid point {point} needs k in 1..{n} for "
                             f"regime '{regime}'")
        cfg = replace(model, max_positions=n, causal=True, n_classes=None)
        train_cfg = replace(train, regime=regime,
                            k=int(k) if selective else None,
                            selection_ratio=None, batch_size=batch,
                            accumulation_steps=1)
        run_model = build_regime_model(
            regime, cfg, seed=train.seed, dtype=train.dtype,
            lora_targets=train.lora_targets, lora_r=train.lora_r,
            lora_alpha=train.lora_alpha)
        trainer = Trainer(run_model, train_cfg, "lm")
        metrics = trainer.train_step(lm_profile_batch(
            n, batch, seed=train.seed,
            vocab_size=min(cfg.vocab_size, BYTE_VOCAB)))
        report = memory_report(run_model, trainer, metrics)
        rows.append({"regime": regime, "n": n,
                     "k": int(k) if k is not None else n, "batch": batch,
                     **{col: report[col] for col in BYTE_COLUMNS}})
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    return rows
