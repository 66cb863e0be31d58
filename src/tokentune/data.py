"""Synthetic desk-scale datasets: a majority-marker classification generator
and a byte-level language modeling corpus loader.

Classification sequences start with a reserved CLS token; the label is the
majority class among planted class-marker tokens, so a counting model can
solve the task exactly and difficulty only controls how mixed the marker
counts are. All generators are pure given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig, TaskConfig

CLS_ID = 1
FIRST_MARKER_ID = 2
#: Token ids of the byte language model: id b is the byte value b.
BYTE_VOCAB = 256


class DataError(ValueError):
    pass


@dataclass
class Example:
    """One sequence, as its token ids (id i at position i), with a class
    label or next-token targets."""

    seq: np.ndarray
    label: int | None = None
    targets: np.ndarray | None = None  # by position; -1 = no target


def gen_classification(n_examples: int, seq_len: int, n_classes: int,
                       difficulty: float, seed: int,
                       vocab_size: int = 32) -> list[Example]:
    """Majority-class sequences: position 0 is CLS, roughly half of the
    remaining positions carry class markers drawn mostly from one class,
    the rest are distractor noise. The label is the realized majority
    (ties are resampled), so exact counting always recovers it."""
    if n_examples < 1 or seq_len < 2 or n_classes < 2:
        raise DataError("need n_examples >= 1, seq_len >= 2, n_classes >= 2")
    if not 0.0 <= difficulty < 1.0:
        raise DataError("difficulty must be in [0, 1)")
    if vocab_size < FIRST_MARKER_ID + n_classes + 1:
        raise DataError(f"vocab {vocab_size} too small for {n_classes} "
                        f"classes plus distractors")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1A55]))
    n_body = seq_len - 1
    distractors = np.arange(FIRST_MARKER_ID + n_classes, vocab_size)
    p_own = (1.0 - difficulty) + difficulty / n_classes
    examples: list[Example] = []
    while len(examples) < n_examples:
        intended = int(rng.integers(n_classes))
        is_marker = rng.random(n_body) < 0.5
        own = rng.random(n_body) < p_own
        other = rng.integers(1, n_classes, size=n_body)
        marker_class = np.where(own, intended,
                                (intended + other) % n_classes)
        body = rng.choice(distractors, size=n_body)
        body[is_marker] = FIRST_MARKER_ID + marker_class[is_marker]
        counts = np.bincount(marker_class[is_marker], minlength=n_classes)
        top = counts.max()
        if top == 0 or (counts == top).sum() > 1:
            continue  # tie: draw a fresh example from the same stream
        label = int(counts.argmax())
        ids = np.concatenate([[CLS_ID], body])
        examples.append(Example(seq=ids, label=label))
    return examples


# ---- language modeling -------------------------------------------------------

def lm_example(ids: np.ndarray) -> Example:
    """A language-model window: position i's target is id i + 1, and the
    last position has none (-1)."""
    targets = np.full(len(ids), -1, dtype=np.intp)
    targets[:-1] = ids[1:]
    return Example(seq=ids, targets=targets)


def load_lm_corpus(path, seq_len: int) -> list[Example]:
    """Non-overlapping windows of `seq_len` bytes, each an `lm_example`."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"corpus file not found: {path}")
    if p.is_dir():
        raise DataError(f"corpus path is a directory: {path}")
    raw = p.read_bytes()
    if len(raw) == 0:
        raise DataError(f"corpus file is empty: {path}")
    if len(raw) < seq_len:
        raise DataError(f"corpus ({len(raw)} bytes) shorter than "
                        f"seq_len {seq_len}")
    ids_all = np.frombuffer(raw, np.uint8).astype(np.intp)
    return [lm_example(ids_all[start:start + seq_len])
            for start in range(0, len(raw) - seq_len + 1, seq_len)]


_WORDS = {
    "noun": ["cat", "dog", "bird", "tree", "river", "stone", "cloud",
             "house", "road", "ship"],
    "verb": ["sees", "finds", "follows", "passes", "watches", "holds",
             "meets", "leaves"],
    "adj": ["small", "old", "quiet", "bright", "green", "heavy", "quick",
            "plain"],
}


def synthetic_text(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic english-like filler text with strong local structure."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E57]))
    chunks = []
    total = 0
    while total < n_bytes:
        adj1, adj2 = rng.choice(_WORDS["adj"], size=2)
        noun1, noun2 = rng.choice(_WORDS["noun"], size=2)
        verb = rng.choice(_WORDS["verb"])
        sentence = f"the {adj1} {noun1} {verb} the {adj2} {noun2}. "
        chunks.append(sentence)
        total += len(sentence)
    return "".join(chunks).encode("ascii")[:n_bytes]


# ---- task assembly -----------------------------------------------------------

def build_task_datasets(task: TaskConfig, model_cfg: ModelConfig):
    """(train, test) example lists for a task, validated against the model."""
    if task.seq_len > model_cfg.max_positions:
        raise DataError(f"seq_len {task.seq_len} exceeds model "
                        f"max_positions {model_cfg.max_positions}")
    if task.kind == "classification":
        if model_cfg.causal:
            raise DataError("classification task needs a bidirectional model")
        n_classes = model_cfg.n_classes
        train = gen_classification(task.n_train, task.seq_len, n_classes,
                                   task.difficulty, task.data_seed,
                                   vocab_size=model_cfg.vocab_size)
        test = gen_classification(task.n_test, task.seq_len, n_classes,
                                  task.difficulty, task.data_seed + 1,
                                  vocab_size=model_cfg.vocab_size)
        return train, test
    if not model_cfg.causal:
        raise DataError("language modeling needs a causal model")
    if model_cfg.vocab_size < BYTE_VOCAB:
        raise DataError(f"byte LM needs vocab_size >= {BYTE_VOCAB}")
    windows = load_lm_corpus(task.corpus_path, task.seq_len)
    n_eval = min(task.eval_windows, max(1, len(windows) // 10))
    if len(windows) <= n_eval:
        raise DataError("corpus too small to hold out evaluation windows")
    return windows[:-n_eval], windows[-n_eval:]
