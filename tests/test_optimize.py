"""Adam's in-place update against the textbook formula, and language
model evaluation against a direct log-softmax."""

import numpy as np
import pytest
from scipy.special import log_softmax

from tokentune.config import ModelConfig
from tokentune.data import lm_example
from tokentune.engine import Tape
from tokentune.model import build_model, forward_hidden
from tokentune.optimize import (BETA1, BETA2, EPSILON, AdamState, StepError,
                                adam_step, evaluate)


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


def test_lm_evaluation_needs_a_target():
    model = small_model("float64")
    with pytest.raises(StepError, match="empty"):
        evaluate(model, [], "lm")
    windows = lm_windows(model)
    for example in windows:
        example.targets[:] = -1
    with pytest.raises(StepError, match="no predictable positions"):
        evaluate(model, windows, "lm")
