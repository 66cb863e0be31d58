"""Adam, gradient accumulation, the training loop, and evaluation.

Every regime runs per-example tapes of one forward,
`selective.tokentune_forward`, with gradients accumulated in a fixed
order; the optimizer applies once per accumulation window. The selective
regimes draw k positions per example; full, LoRA and evaluation select
every position. A loss is a sum of terms, one per classification example
and one per selected target token (language modeling), and the step loss
and the update are divided by the number of terms, so magnitudes stay
comparable across selection sizes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import SELECTIVE_REGIMES, RunConfig, TrainConfig
from .engine import Tape, simulate_peak_bytes
from .model import TransformerModel, class_logits, forward_hidden, log_softmax
from .partition import TokenPartition, resolve_k, select_positions
from .selective import (every_position, loss_classification, loss_lm,
                        tokentune_forward)

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class StepError(RuntimeError):
    pass


def _zeros_per_trainable(model: TransformerModel) -> dict[str, np.ndarray]:
    """A zero array shaped like each trainable array, in memory the
    allocator hands out already zeroed, so it costs nothing until written."""
    return {name: np.zeros(arr.shape, arr.dtype)
            for name, arr in model.trainable_arrays()}


class AdamState:
    """First/second moments for every trainable array; none for the base
    weights a LoRA model leaves frozen, which makes adapter runs cheap."""

    def __init__(self, model: TransformerModel):
        self.m = _zeros_per_trainable(model)
        self.v = _zeros_per_trainable(model)
        self.t = 0

    def element_count(self) -> int:
        return sum(a.size for a in self.m.values()) + \
            sum(a.size for a in self.v.values())


def adam_step(model: TransformerModel, grads: dict[str, np.ndarray],
              state: AdamState, lr: float, weight_decay: float = 0.0,
              grad_scale: float = 1.0) -> None:
    """Bias-corrected Adam update in place; decoupled weight decay.

    Each gradient is multiplied by `grad_scale` as it is read, one array
    at a time; `grads` itself is left unchanged. Every temporary lives in
    one of two scratch arrays the size of the largest trainable array, and
    the operations run in the order of the textbook expression
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr ((m / c1) / (sqrt(v / c2) + eps) + wd p), so the result is the
    same bit for bit.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    arrays = model.trainable_arrays()
    size = max((arr.size for _, arr in arrays), default=0)
    scratch = (np.empty(size, model.dtype), np.empty(size, model.dtype))
    for name, arr in arrays:
        g = grads.get(name)
        if g is not None and g.shape != arr.shape:
            raise StepError(f"gradient shape {g.shape} != parameter shape "
                            f"{arr.shape} for '{name}'")
        a, b = (buf[:arr.size].reshape(arr.shape) for buf in scratch)
        if g is None:
            a.fill(0.0)
            g = a
        elif grad_scale != 1.0:
            g = np.multiply(g, grad_scale, out=a)
        # min and max propagate NaN and reach +-Inf without allocating
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise StepError(f"non-finite gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=b)
        v *= BETA2
        np.multiply(g, g, out=b)
        b *= 1.0 - BETA2
        v += b
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPSILON
        update = np.divide(m, bc1, out=a)
        update /= b
        if weight_decay:
            update += np.multiply(arr, weight_decay, out=b)
        update *= lr
        arr -= update


def global_norm(arrays, scale: float) -> float:
    """scale times the L2 norm of all `arrays` together, accumulated in
    float64 (one dot product per array; nothing the size of an array is
    allocated for float64 input)."""
    sq = 0.0
    for a in arrays:
        flat = a.reshape(-1).astype(np.float64, copy=False)
        sq += float(np.dot(flat, flat))
    return math.sqrt(sq) * scale


def _derived_seed(base_seed: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence([base_seed, stream, index])
    return int(ss.generate_state(1)[0])


class Trainer:
    """Owns the optimizer state and the accumulation window."""

    def __init__(self, model: TransformerModel, cfg: TrainConfig,
                 task_kind: str):
        self.model = model
        self.cfg = cfg
        self.task_kind = task_kind
        self.state = AdamState(model)
        self.accum = _zeros_per_trainable(model)
        self.micro_step = 0
        self.example_counter = 0
        self._window_terms = 0
        #: bytes retained for backward by (region, op), of the example
        #: that set the last step's ``activation_bytes``
        self.activation_breakdown: dict[tuple[str, str], int] = {}

    @property
    def selective(self) -> bool:
        return self.cfg.regime in SELECTIVE_REGIMES

    def partition_for(self, seq: np.ndarray,
                      example_index: int) -> TokenPartition:
        """Fresh uniform selection per example, seeded from the run seed,
        in the selective regimes; every position otherwise."""
        if not self.selective:
            return every_position(seq)
        k = resolve_k(self.cfg.k, self.cfg.selection_ratio, len(seq))
        mode = "classification" if self.task_kind == "classification" else "lm"
        seed = _derived_seed(self.cfg.seed, 0x5E7EC7, example_index)
        return select_positions(len(seq), k, mode, seed)

    def _example_loss(self, tape: Tape, example) -> tuple[object, int]:
        """Record forward+loss for one example; returns (loss node, #terms):
        one term for a classification example, one per selected target
        token for a language-model one, and (None, 0) for a language-model
        example whose selection has no next-token target, which adds no
        term and no gradient. The loss reads the selected rows that
        `tokentune_forward` returns."""
        partition = self.partition_for(example.seq, self.example_counter)
        lm = self.task_kind != "classification"
        if lm and (np.asarray(example.targets)[partition.selected] < 0).all():
            return None, 0
        split = tokentune_forward(tape, self.model, example.seq, partition)
        if lm:
            return loss_lm(tape, self.model, split, example.targets)
        return loss_classification(tape, self.model, split, example.label), 1

    def train_step(self, batch, tape_hook=None) -> dict:
        """One micro-batch: per-example forward/backward, ordered gradient
        accumulation, and an Adam update when the window closes.

        Examples run one at a time, so the memory figures are per example:
        ``activation_bytes`` is the largest over the batch of the bytes
        retained for backward, and ``peak_bytes`` the persistent bytes
        plus the largest tape peak (see ``engine.simulate_peak_bytes``).
        Backward adds each parameter gradient into ``self.accum`` as it
        completes, so an example that fails partway through backward
        leaves part of its gradient there."""
        if not batch:
            raise StepError("empty batch")
        t0 = time.perf_counter()
        activation_bytes = 0
        breakdown: dict[tuple[str, str], int] = {}
        peak_tape = 0
        loss_sum = 0.0
        term_sum = 0
        for i, example in enumerate(batch):
            tape = Tape()
            try:
                loss_node, n_terms = self._example_loss(tape, example)
            except Exception:
                self.example_counter += 1
                raise
            if loss_node is None:
                self.example_counter += 1
                continue
            loss_value = float(loss_node.value[0, 0])
            if not np.isfinite(loss_value):
                raise StepError(f"non-finite loss at example {i} of batch "
                                f"(global example {self.example_counter})")
            tape.backward(loss_node, into=self.accum)
            peak, retained = simulate_peak_bytes(tape)
            peak_tape = max(peak_tape, peak)
            if retained > activation_bytes:
                activation_bytes = retained
                breakdown = tape.retained_bytes()
            if tape_hook is not None:
                tape_hook(tape)
            # Drop this example's graph before the next one is recorded,
            # so a step's peak is one example's, not two.
            del tape, loss_node
            loss_sum += loss_value
            term_sum += n_terms
            self._window_terms += n_terms
            self.example_counter += 1

        self.micro_step += 1
        self.activation_breakdown = breakdown
        grad_norm = 0.0
        if self.micro_step % self.cfg.accumulation_steps == 0:
            scale = 1.0 / max(self._window_terms, 1)
            grad_norm = global_norm(self.accum.values(), scale)
            adam_step(self.model, self.accum, self.state,
                      self.cfg.learning_rate, self.cfg.weight_decay,
                      grad_scale=scale)
            for g in self.accum.values():
                g[...] = 0.0
            self._window_terms = 0

        width = np.dtype(self.model.dtype).itemsize
        persistent = (self.model.total_param_elements()
                      + self.model.trainable_elements()
                      + self.state.element_count()) * width
        return {
            "step": self.micro_step,
            "loss": loss_sum / max(term_sum, 1),
            "grad_norm": grad_norm,
            "activation_bytes": activation_bytes,
            "peak_bytes": persistent + peak_tape,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }


# ---- evaluation -------------------------------------------------------------

def eval_hidden(model: TransformerModel, seq: np.ndarray) -> np.ndarray:
    """Forward values, one row per position; nothing is tracked or
    cached."""
    tape = Tape()
    with tape.no_grad():
        return forward_hidden(tape, model, seq).value


def evaluate(model: TransformerModel, dataset, task_kind: str) -> dict:
    """Classification accuracy (the training head pooled over all rows,
    run without gradients) or language model perplexity over every
    predictable position; no selection."""
    if not dataset:
        raise StepError("empty evaluation dataset")
    if task_kind == "classification":
        correct = 0
        for example in dataset:
            tape = Tape()
            with tape.no_grad():
                h = forward_hidden(tape, model, example.seq)
                logits = class_logits(tape, model, h).value
            if int(np.argmax(logits[0])) == example.label:
                correct += 1
        return {"accuracy": correct / len(dataset), "n": len(dataset)}
    total_nll = 0.0
    total_terms = 0
    w_lm = model.param("head.w_lm")
    for example in dataset:
        h = eval_hidden(model, example.seq)
        t = np.asarray(example.targets)
        rows = np.flatnonzero(t >= 0)
        if rows.size == 0:
            continue
        logp = log_softmax(h[rows].astype(np.float64) @ w_lm.astype(np.float64))
        total_nll += float(-logp[np.arange(rows.size), t[rows]].sum())
        total_terms += int(rows.size)
    if total_terms == 0:
        raise StepError("no predictable positions in evaluation dataset")
    return {"perplexity": float(np.exp(total_nll / total_terms)),
            "nll": total_nll / total_terms, "n_terms": total_terms}


# ---- full run orchestration --------------------------------------------------

@dataclass
class RunResult:
    metrics_path: str
    checkpoint_path: str
    eval_metrics: dict
    steps: int


def _epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A, epoch]))
    return rng.permutation(n)


def run_training(cfg: RunConfig, out_dir) -> RunResult:
    """Train per the config; writes metrics.jsonl, timings.jsonl, the final
    checkpoint, a memory report, and the resolved config into out_dir."""
    from pathlib import Path

    from . import __version__
    from .checkpoint import save_model
    from .data import build_task_datasets
    from .memprofile import build_regime_model, memory_report

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model = build_regime_model(cfg.model, cfg.train)

    train_set, test_set = build_task_datasets(cfg.task, cfg.model)
    task_kind = cfg.task.kind
    trainer = Trainer(model, cfg.train, task_kind)

    resolved = cfg.to_dict()
    resolved["code_version"] = __version__
    (out / "config.json").write_text(json.dumps(resolved, indent=2) + "\n",
                                     encoding="utf-8")

    metrics_path = out / "metrics.jsonl"
    timings_path = out / "timings.jsonl"
    stop = False
    with open(metrics_path, "w", encoding="utf-8") as mfh, \
            open(timings_path, "w", encoding="utf-8") as tfh:
        for epoch in range(cfg.train.epochs):
            order = _epoch_order(len(train_set), cfg.train.seed, epoch)
            for start in range(0, len(order), cfg.train.batch_size):
                batch = [train_set[j]
                         for j in order[start:start + cfg.train.batch_size]]
                metrics = trainer.train_step(batch)
                wall_ms = metrics.pop("wall_ms")
                mfh.write(json.dumps(metrics, sort_keys=True) + "\n")
                tfh.write(json.dumps({"step": metrics["step"],
                                      "wall_ms": wall_ms}) + "\n")
                if (cfg.train.max_steps is not None
                        and trainer.micro_step >= cfg.train.max_steps):
                    stop = True
                    break
            if stop:
                break

    eval_metrics = evaluate(model, test_set, task_kind)
    ckpt_path = out / "model.ckpt"
    save_model(model, ckpt_path)
    # the configs refuse zero epochs, steps and windows, so at least one
    # step ran and `metrics` holds the last one
    report = memory_report(model, trainer, metrics)
    (out / "memory.json").write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    (out / "eval.json").write_text(json.dumps(eval_metrics, indent=2) + "\n",
                                   encoding="utf-8")
    return RunResult(str(metrics_path), str(ckpt_path), eval_metrics,
                     trainer.micro_step)
