"""Adam's in-place update against the textbook formula, evaluation
against a direct log-softmax and the training heads, and a train step
without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_softmax

from tokentune.config import ModelConfig, TrainConfig
from tokentune.data import gen_classification, lm_example
from tokentune.engine import Tape
from tokentune.model import (build_model, class_logits, forward_hidden,
                             loss_lm_rows)
from tokentune.memprofile import lm_profile_batch
from tokentune.optimize import (BETA1, BETA2, EPSILON, AdamState, StepError,
                                Trainer, adam_step, evaluate)
from tokentune.partition import TokenPartition


def small_model(dtype):
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=True, n_classes=None)
    return build_model(cfg, seed=2, dtype=dtype)


def reference_adam(params, grads, m, v, t, lr, weight_decay, grad_scale):
    """The update as one expression per line, a fresh array per operation."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, arr in params.items():
        g = grads.get(name)
        g = np.zeros_like(arr) if g is None else g * grad_scale
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + EPSILON)
        if weight_decay:
            update = update + weight_decay * arr
        params[name] = arr - lr * update


@pytest.mark.parametrize("grad_scale", [1.0, 0.37])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_the_formula(dtype, weight_decay, grad_scale):
    model = small_model(dtype)
    state = AdamState(model)
    params = {name: arr.copy() for name, arr in model.trainable_arrays()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    r = np.random.default_rng(3)
    missing = "layers.0.ffn.b2"
    for step in range(1, 4):
        grads = {name: (r.normal(size=arr.shape)
                        * 10.0 ** r.integers(-4, 2)).astype(dtype)
                 for name, arr in params.items() if name != missing}
        adam_step(model, grads, state, lr=1e-2, weight_decay=weight_decay,
                  grad_scale=grad_scale)
        reference_adam(params, grads, m, v, step, 1e-2, weight_decay,
                       grad_scale)
    for name, arr in model.trainable_arrays():
        assert arr.dtype == params[name].dtype
        assert (arr == params[name]).all(), name
        assert (state.m[name] == m[name]).all(), name
        assert (state.v[name] == v[name]).all(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_step_rejects_non_finite_gradients(bad):
    model = small_model("float64")
    grads = {name: np.zeros_like(arr)
             for name, arr in model.trainable_arrays()}
    grads["layers.0.ffn.w1"][3, 4] = bad
    with pytest.raises(StepError, match="non-finite"):
        adam_step(model, grads, AdamState(model), lr=1e-3)


def test_adam_step_rejects_overflow_from_the_gradient_scale():
    model = small_model("float32")
    grads = {"layers.0.ffn.w1": np.full((8, 12), 1e38, np.float32)}
    with pytest.raises(StepError, match="non-finite"), \
            np.errstate(over="ignore"):
        adam_step(model, grads, AdamState(model), lr=1e-3, grad_scale=10.0)


def test_adam_step_rejects_a_misshapen_gradient():
    model = small_model("float64")
    grads = {"layers.0.ffn.w1": np.zeros((12, 8))}
    with pytest.raises(StepError, match="shape"):
        adam_step(model, grads, AdamState(model), lr=1e-3)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime", ["full", "tokentune"])
def test_two_accumulated_micro_steps_equal_one_step_of_both_batches(
        regime, dtype):
    batch = lm_profile_batch(12, 4, seed=8, vocab_size=13)

    def trained(batches, accumulation):
        model = small_model(dtype)
        trainer = Trainer(model, TrainConfig(
            regime=regime, k=3 if regime == "tokentune" else None,
            batch_size=len(batches[0]), accumulation_steps=accumulation,
            learning_rate=1e-2, weight_decay=0.01, seed=8, dtype=dtype),
            "lm")
        norms = [trainer.train_step(b)["grad_norm"] for b in batches]
        return model, norms

    split, split_norms = trained([batch[:2], batch[2:]], 2)
    whole, whole_norms = trained([batch], 1)
    assert split_norms[0] == 0.0 and split_norms[1] == whole_norms[0] > 0
    for name, arr in whole.params.items():
        assert np.array_equal(split.params[name], arr), name


@pytest.mark.parametrize("regime,k,grad_tokens", [
    ("full", None, 4 + 5 + 3),  # every position of every example
    ("tokentune", 2, 3 * 2),  # k of each: each has a target among two
])
def test_a_step_counts_its_tokens_and_those_with_gradient(regime, k,
                                                          grad_tokens):
    trainer = Trainer(small_model("float64"),
                      TrainConfig(regime=regime, k=k, batch_size=3, seed=3,
                                  dtype="float64"), "lm")
    batch = [lm_example(np.array(ids))
             for ids in ([3, 7, 1, 9], [2, 5, 8, 4, 6], [1, 1, 2])]
    metrics = trainer.train_step(batch)
    assert metrics["loss_terms"] > 0
    assert (metrics["tokens_seen"], metrics["grad_tokens"]) \
        == (4 + 5 + 3, grad_tokens)


def test_an_example_without_loss_terms_adds_no_tokens_with_gradient():
    # only the last position, which has no next token, is selected in the
    # first example; the second selects two positions, of which only the
    # first has a target: one loss term, two tokens with gradient
    trainer = Trainer(small_model("float64"),
                      TrainConfig(regime="tokentune", k=1, batch_size=2,
                                  seed=3, dtype="float64"), "lm")
    lone, pair = TokenPartition(selected=np.array([3]),
                                unselected=np.array([0, 1, 2])), \
        TokenPartition(selected=np.array([0, 2]), unselected=np.array([1]))
    first, second = (lm_example(np.array(ids))
                     for ids in ([3, 7, 1, 9], [2, 5, 8]))
    trainer.partition_for = lambda seq, index: lone if len(seq) == 4 \
        else pair
    metrics = trainer.train_step([first])
    assert metrics["loss_terms"] == 0
    assert (metrics["tokens_seen"], metrics["grad_tokens"]) == (4, 0)
    metrics = trainer.train_step([first, second])
    assert metrics["loss_terms"] == 1
    assert (metrics["tokens_seen"], metrics["grad_tokens"]) == (4 + 3, 2)


def test_a_window_without_loss_terms_takes_no_step():
    # n = 4 and k = 1: once the only selected position is the last one,
    # which has no next token, the window holds no loss term
    model = small_model("float64")
    trainer = Trainer(model, TrainConfig(regime="tokentune", k=1,
                                         batch_size=1, learning_rate=0.1,
                                         seed=3, dtype="float64"), "lm")
    example = lm_example(np.array([3, 7, 1, 9]))
    assert trainer.train_step([example])["grad_norm"] > 0  # moments set
    trainer.partition_for = lambda seq, index: TokenPartition(
        selected=np.array([3]), unselected=np.array([0, 1, 2]))
    state = trainer.state
    held = [{name: arr.copy() for name, arr in arrays.items()}
            for arrays in (model.params, state.m, state.v)]
    t = state.t
    assert trainer.train_step([example])["grad_norm"] == 0.0
    assert state.t == t
    for before, arrays in zip(held, (model.params, state.m, state.v)):
        for name, arr in arrays.items():
            assert np.array_equal(arr, before[name]), name


def lm_windows(model, n_windows=3, n=9):
    r = np.random.default_rng(5)
    windows = [lm_example(r.integers(0, model.config.vocab_size, size=n))
               for _ in range(n_windows)]
    windows[1].targets[2] = -1  # a row without a target inside a window
    return windows


def test_lm_evaluation_is_the_mean_nll_of_every_target_row():
    model = small_model("float64")
    windows = lm_windows(model)
    w_lm = model.param("head.w_lm")
    nll, rows = 0.0, 0
    for example in windows:
        tape = Tape()
        h = forward_hidden(tape, model, example.seq).value
        logp = log_softmax(h @ w_lm, axis=1)
        for i, target in enumerate(example.targets):
            if target >= 0:
                nll -= logp[i, target]
                rows += 1
    metrics = evaluate(model, windows, "lm")
    assert metrics["n_terms"] == rows == 3 * 8 - 1
    assert metrics["nll"] == pytest.approx(nll / rows, rel=1e-12)
    assert metrics["perplexity"] == np.exp(metrics["nll"])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_lm_evaluation_sums_the_training_loss_of_every_target_row(dtype):
    model = small_model(dtype)
    windows = lm_windows(model)
    nll, rows = 0.0, 0
    for example in windows:
        tape = Tape()
        with tape.no_grad():
            h = forward_hidden(tape, model, example.seq).value
            keep = example.targets >= 0
            loss = loss_lm_rows(tape, model, tape.input(h[keep]),
                                example.targets[keep])
        nll += float(loss.value[0, 0])
        rows += int(keep.sum())
    metrics = evaluate(model, windows, "lm")
    assert metrics["n_terms"] == rows
    assert metrics["nll"] == nll / rows


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_classification_accuracy_is_the_training_heads_argmax(dtype):
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=False, n_classes=3)
    model = build_model(cfg, seed=2, dtype=dtype)
    examples = gen_classification(30, 12, 3, 0.5, seed=5, vocab_size=13)
    hits = 0
    for example in examples:
        tape = Tape()
        with tape.no_grad():
            h = forward_hidden(tape, model, example.seq)
            logits = class_logits(tape, model, h).value
        hits += int(np.argmax(logits[0])) == example.label
    metrics = evaluate(model, examples, "classification")
    # 11 of 30, as evaluation counted before it shared `eval_hidden`
    assert hits == 11
    assert metrics == {"accuracy": hits / 30, "n": 30}


def test_lm_evaluation_needs_a_target():
    model = small_model("float64")
    with pytest.raises(StepError, match="empty"):
        evaluate(model, [], "lm")
    windows = lm_windows(model)
    for example in windows:
        example.targets[:] = -1
    with pytest.raises(StepError, match="no predictable positions"):
        evaluate(model, windows, "lm")


#: Every tokentune module imported, then one tokentune train step, with
#: scipy unimportable: it is a test dependency only.
WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import tokentune
for module in pkgutil.iter_modules(tokentune.__path__):
    importlib.import_module("tokentune." + module.name)
from tokentune.config import ModelConfig, TrainConfig
from tokentune.memprofile import lm_profile_batch
from tokentune.model import build_model
from tokentune.optimize import Trainer
cfg = ModelConfig(vocab_size=257, max_positions=16, d_model=8, n_heads=2,
                  d_ff=12, n_layers=1, causal=True, n_classes=None)
trainer = Trainer(build_model(cfg, seed=1),
                  TrainConfig(regime="tokentune", k=4, batch_size=2,
                              learning_rate=1e-3, seed=1), "lm")
print(trainer.train_step(lm_profile_batch(16, 2, seed=1))["loss"])
"""


def test_a_train_step_runs_without_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path
               else os.pathsep.join([src, path]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert np.isfinite(float(done.stdout))
