"""Measured memory: the bytes a run really holds, read with `tracemalloc`,
against the engine's own liveness replay (`simulate_peak_bytes`), the
train step's gradient accumulator that backward streams into, and the
scratch memory of attention's backward and of Adam.

The replay counts arrays only. The graph itself (node records, their
metadata and index arrays) is real memory it does not count, so a
measured figure may exceed the replay by up to GRAPH_BYTES_PER_NODE per
recorded node, on top of the relative tolerance REL_TOL either way.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from tokentune import engine
from tokentune.config import (REGIMES, SELECTIVE_REGIMES, ModelConfig,
                              TrainConfig)
from tokentune.engine import (ATTENTION_BLOCK_ROWS, Tape, gelu_array,
                              simulate_peak_bytes)
from tokentune.memprofile import build_regime_model, lm_profile_batch
from tokentune.model import FFN_BLOCK_ROWS, build_model, forward_hidden
from tokentune.model import ffn as ffn_block
from tokentune.optimize import (AdamState, Trainer, adam_step, eval_hidden,
                                global_norm)
from tokentune.partition import TokenPartition
from tokentune.selective import loss_lm, tokentune_forward

N = 128
K = N // 8
REL_TOL = 0.02
GRAPH_BYTES_PER_NODE = 1024
#: A two-example step may exceed a one-example step by this share.
STEP_PEAK_TOL = 0.10
#: Elements in numpy's ufunc buffer, which a broadcast add (an affine's
#: bias) allocates once per call.
UFUNC_BUFFER_ELEMENTS = 8192


def lm_config():
    return ModelConfig(vocab_size=257, max_positions=N, d_model=64,
                       n_heads=4, d_ff=256, n_layers=2, causal=True,
                       n_classes=None)


@pytest.fixture(scope="module")
def model():
    return build_model(lm_config(), seed=3, dtype="float64")


@pytest.fixture(scope="module")
def example():
    return lm_profile_batch(N, 1, seed=3)[0]


class Traced:
    """`tracemalloc` around a block: ``live()`` and ``peak()`` are bytes
    above the level at entry."""

    def __enter__(self):
        gc.collect()
        tracemalloc.start()
        self.base = tracemalloc.get_traced_memory()[0]
        return self

    def live(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.base

    def peak(self) -> int:
        return tracemalloc.get_traced_memory()[1] - self.base

    def __exit__(self, *exc):
        tracemalloc.stop()
        return False


def record_loss(tape, model, example, regime):
    """Forward and loss for one example; only the loss handle survives."""
    if regime == "full":
        selected = np.arange(N)
    else:
        selected = np.sort(np.random.default_rng(3).choice(N, K,
                                                           replace=False))
    partition = TokenPartition(selected=selected,
                               unselected=np.setdiff1d(np.arange(N),
                                                       selected))
    split = tokentune_forward(tape, model, example.seq, partition)
    return loss_lm(tape, model, split, example.targets)[0]


def live_at_backward_entry(model, example, regime):
    """(measured, accounted, node count) at the moment backward would
    start."""
    with Traced() as traced:
        tape = Tape()
        loss = record_loss(tape, model, example, regime)
        measured = traced.live()
    accounted = simulate_peak_bytes(tape)[1]
    tape.backward(loss)
    return measured, accounted, len(tape.nodes)


def assert_matches_replay(measured, accounted, nodes):
    assert measured >= accounted * (1 - REL_TOL), (measured, accounted)
    assert measured <= accounted * (1 + REL_TOL) \
        + GRAPH_BYTES_PER_NODE * nodes, (measured, accounted, nodes)


@pytest.mark.parametrize("regime", ["full", "tokentune"])
def test_bytes_live_at_backward_entry_match_the_replay(model, example,
                                                       regime):
    assert_matches_replay(*live_at_backward_entry(model, example, regime))


def test_tokentune_holds_less_than_full_by_the_accounted_ratio(model,
                                                               example):
    tt_measured, tt_accounted, tt_nodes = \
        live_at_backward_entry(model, example, "tokentune")
    full_measured, full_accounted, _ = \
        live_at_backward_entry(model, example, "full")
    accounted_ratio = tt_accounted / full_accounted
    assert accounted_ratio < 0.5
    # the graph allowance, relative to full's bytes, bounds the drift
    slack = REL_TOL + GRAPH_BYTES_PER_NODE * tt_nodes / full_accounted
    assert abs(tt_measured / full_measured - accounted_ratio) <= slack


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("regime", ["full", "tokentune"])
def test_each_tracked_layer_norm_output_leaves_the_retained_set(
        monkeypatch, model, example, regime, dtype):
    # every tracked norm output here is read by affines only (Q, K, V or
    # W1), whose backward rebuilds it from the norm's saves; so is every
    # tracked GELU output (W2), which the same switch turns off
    model = model.astype(dtype)

    def retained():
        tape = Tape()
        record_loss(tape, model, example, regime)
        return simulate_peak_bytes(tape)[1]

    rebuilt = retained()
    with monkeypatch.context() as patched:
        # the policy without the rebuild: the affine saves its x
        patched.setattr(engine, "_rebuilt_in_backward", lambda node: False)
        saved = retained()
    cfg = model.config
    rows = N if regime == "full" else K
    norm_output = rows * cfg.d_model * np.dtype(dtype).itemsize
    gelu_output = rows * cfg.d_ff * np.dtype(dtype).itemsize
    assert rebuilt == saved - cfg.n_layers * (2 * norm_output + gelu_output)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime", REGIMES)
def test_breakdown_sums_to_the_replays_retained_bytes(regime, dtype):
    # 20 keys pack into 3 mask bytes per query row: not whole elements
    n = 20
    cfg = ModelConfig(max_positions=n, d_model=16, n_heads=2, d_ff=64,
                      n_layers=2, causal=True, n_classes=None)
    selective = regime in SELECTIVE_REGIMES
    train = TrainConfig(regime=regime, k=5 if selective else None, seed=5,
                        dtype=dtype)
    model = build_regime_model(cfg, train)
    trainer = Trainer(model, train, "lm")
    itemsize = np.dtype(dtype).itemsize
    sums = []

    def hook(tape):
        sums.append((sum(tape.cache_breakdown().values()) * itemsize,
                     tape.cached_activation_elements() * itemsize,
                     sum(tape.retained_bytes().values()),
                     simulate_peak_bytes(tape)[1]))

    metrics = trainer.train_step(lm_profile_batch(n, 2, seed=5),
                                 tape_hook=hook)
    assert len(sums) == 2
    for breakdown, elements, nbytes, replay in sums:
        assert breakdown == elements == nbytes == replay
    assert metrics["activation_bytes"] == max(s[-1] for s in sums)
    assert sum(trainer.activation_breakdown.values()) \
        == metrics["activation_bytes"]


def test_no_grad_forward_keeps_only_its_output(model, example):
    with Traced() as traced:
        tape = Tape()
        with tape.no_grad():
            out = forward_hidden(tape, model, example.seq)
        measured = traced.live()
    # nothing is saved: the last node's output alone counts
    assert tape.retained_bytes() == {(out.label, out.op): out.value.nbytes}
    assert out.value.nbytes <= measured \
        <= out.value.nbytes + GRAPH_BYTES_PER_NODE * len(tape.nodes)


def test_eval_hidden_never_holds_the_whole_forward(model, example):
    # the base is a closed form of the config's shapes, so it moves with
    # neither what backward saves nor how many nodes the ops are recorded
    # as: every layer's (heads, n, n) attention probabilities, which a
    # forward that keeps its values holds at the least
    cfg = model.config
    n = len(example.seq)
    whole = cfg.n_layers * cfg.n_heads * n * n * model.dtype.itemsize
    tape = Tape()
    forward_hidden(tape, model, example.seq)
    with Traced() as traced:
        h = eval_hidden(model, example.seq)
        peak = traced.peak()
        after = traced.live()
    # what stays beyond the output is small objects the interpreter keeps
    # for reuse, within the graph allowance
    assert h.nbytes <= after \
        <= h.nbytes + GRAPH_BYTES_PER_NODE * len(tape.nodes)
    assert peak < whole, (peak, whole)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tokentune_step_peaks_at_one_unselected_ffn_block_above_backward_entry(
        monkeypatch, dtype):
    # Above what backward starts from, a step holds only the widest op of
    # the unselected (no-grad) path in flight: the FFN's two hidden arrays
    # for one row block, four (n - k) x d row arrays (the residual, the
    # FFN's input and two outputs in flight) and one ufunc buffer. Dead
    # projections kept through unselected attention, an m x n float mask
    # or a scaled copy of q would each add (n - k) x d arrays to it.
    cfg = lm_config()
    itemsize = np.dtype(dtype).itemsize
    block = min(N - K, FFN_BLOCK_ROWS)
    bound = (2 * block * cfg.d_ff + 4 * (N - K) * cfg.d_model
             + UFUNC_BUFFER_ELEMENTS) * itemsize
    batch = lm_profile_batch(N, 1, seed=3)
    trainer = Trainer(build_model(cfg, seed=3, dtype=dtype),
                      TrainConfig(regime="tokentune", k=K, batch_size=1,
                                  learning_rate=1e-3, seed=3, dtype=dtype),
                      "lm")
    trainer.train_step(batch)  # first step allocates nothing new
    entry = []
    backward = Tape.backward
    with Traced() as traced:
        def timed_backward(tape, *args, **kwargs):
            entry.append(traced.live())
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(Tape, "backward", timed_backward)
        trainer.train_step(batch)
        peak = traced.peak()
    assert len(entry) == 1
    assert peak - entry[0] <= bound, (peak, entry[0], bound)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("k", [N // 16, N // 8, N // 4, N // 2])
def test_tokentune_lora_step_peaks_no_higher_than_tokentune(dtype, k):
    # adapters add factors and their products but train far fewer
    # parameters, so their step should hold no more at any k
    batch = lm_profile_batch(N, 1, seed=3)

    def step_peak(regime):
        train = TrainConfig(regime=regime, k=k, batch_size=1,
                            learning_rate=1e-3, seed=3, dtype=dtype)
        trainer = Trainer(build_regime_model(lm_config(), train), train,
                          "lm")
        trainer.train_step(batch)  # first step allocates nothing new
        with Traced() as traced:
            trainer.train_step(batch)
            return traced.peak()

    tokentune = step_peak("tokentune")
    assert step_peak("tokentune+lora") <= tokentune, tokentune


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_ffn_holds_one_row_block_of_hidden_arrays(dtype):
    rows, d, d_ff = 2 * FFN_BLOCK_ROWS + 1, 64, 1024
    cfg = ModelConfig(vocab_size=257, max_positions=8, d_model=d, n_heads=2,
                      d_ff=d_ff, n_layers=1, causal=True, n_classes=None)
    model = build_model(cfg, seed=10, dtype=dtype)
    tape = Tape()
    x = tape.input(np.random.default_rng(10).normal(size=(rows, d))
                   .astype(dtype))
    with Traced() as traced:
        with tape.no_grad():
            out = ffn_block(tape, model, 0, x)
        peak = traced.peak()
    itemsize = np.dtype(dtype).itemsize
    sizes = out.node.meta["sizes"]
    assert out.op == "concat_rows" and len(sizes) == 3
    hidden = max(sizes) * d_ff * itemsize
    # beside one block's two hidden arrays and the output: the finished
    # blocks' outputs awaiting the concat, the block's own row arrays, a
    # ufunc buffer and the graph's records (the whole-array FFN held two
    # rows x d_ff arrays, three times as much)
    slack = (2 * rows * d + UFUNC_BUFFER_ELEMENTS) * itemsize \
        + GRAPH_BYTES_PER_NODE * len(tape.nodes)
    assert peak <= out.value.nbytes + 2 * hidden + slack, (peak, hidden)


@pytest.mark.parametrize("regime", ["full", "tokentune"])
def test_two_example_step_peaks_like_one_example_step(regime):
    model_cfg = lm_config()
    batch = lm_profile_batch(N, 2, seed=4)

    def step_peak(examples):
        model = build_model(model_cfg, seed=4, dtype="float64")
        cfg = TrainConfig(regime=regime, k=K if regime == "tokentune"
                          else None, batch_size=len(examples),
                          learning_rate=1e-3, seed=4, dtype="float64")
        trainer = Trainer(model, cfg, "lm")
        trainer.train_step(examples)  # first step allocates nothing new
        with Traced() as traced:
            trainer.train_step(examples)
            return traced.peak()

    one = step_peak(batch[:1])
    two = step_peak(batch)
    assert two <= one * (1 + STEP_PEAK_TOL), (one, two)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_forward_allocates_only_its_output(dtype):
    x = np.random.default_rng(6).normal(size=(512, 1024)).astype(dtype)
    with Traced() as traced:
        y = gelu_array(x)
        peak = traced.peak()
    assert y.nbytes <= peak <= y.nbytes + GRAPH_BYTES_PER_NODE, peak


def test_backward_holds_no_parameter_gradient_past_its_node(model, example):
    # TokenTune at k = n/8; in the full regime at these shapes attention's
    # backward block buffers alone outweigh the parameter gradients
    tape = Tape()
    loss = record_loss(tape, model, example, "tokentune")
    accum = {name: np.zeros_like(arr)
             for name, arr in model.trainable_arrays()}
    grad_bytes = sum(arr.nbytes for arr in accum.values())
    with Traced() as traced:
        tape.backward(loss, into=accum)
        peak = traced.peak()
    assert peak < grad_bytes, (peak, grad_bytes)


@pytest.mark.parametrize("regime", ["full", "tokentune"])
def test_step_accumulates_the_sum_of_backward_gradients_bitwise(regime):
    batch = lm_profile_batch(N, 2, seed=5)

    def trainer():
        model = build_model(lm_config(), seed=5, dtype="float64")
        cfg = TrainConfig(regime=regime, k=K if regime == "tokentune"
                          else None, batch_size=2, accumulation_steps=2,
                          learning_rate=1e-3, seed=5, dtype="float64")
        return Trainer(model, cfg, "lm")

    stepped = trainer()
    stepped.train_step(batch)  # the window stays open: no Adam update yet
    ref = trainer()
    expected = {name: np.zeros_like(acc) for name, acc in ref.accum.items()}
    for example in batch:
        tape = Tape()
        loss, _ = ref._example_loss(tape, example)
        for name, g in tape.backward(loss).items():
            expected[name] += g
        ref.example_counter += 1
    assert all(acc.any() for acc in stepped.accum.values())
    for name, acc in expected.items():
        assert np.array_equal(stepped.accum[name], acc), name


def test_global_norm_matches_the_scaled_float64_sum_of_squares():
    r = np.random.default_rng(7)
    arrays = [r.normal(size=shape) * 10.0 ** r.integers(-3, 3)
              for shape in ((64, 257), (1, 64), (256, 64), (128, 64))]
    scale = 1.0 / 37
    old = np.sqrt(sum(float(((a * scale).astype(np.float64) ** 2).sum())
                      for a in arrays))
    assert abs(global_norm(arrays, scale) - old) <= 1e-12 * old
    assert global_norm([], scale) == 0.0


@pytest.mark.parametrize("heads, d", [(4, 32), (8, 64)])
def test_attention_backward_holds_one_heads_block_buffers(heads, d):
    # causal 150 x 150 in three row blocks; the largest block is rows
    # 64:128 over keys :128. Backward runs one head at a time, so its
    # buffers do not grow with the number of heads
    m = 150
    r = np.random.default_rng(8)
    tape = Tape()
    q, k, v = (tape.input(r.normal(size=(m, d))) for _ in range(3))
    out = tape.attention(q, k, v, np.arange(m), True, heads)
    loss = tape.matmul(tape.mean_rows(out), tape.constant(np.ones((d, 1))))
    with Traced() as traced:
        tape.backward(loss)
        peak = traced.peak()
    hi = 2 * ATTENTION_BLOCK_ROWS
    rows_by_keys = ATTENTION_BLOCK_ROWS * hi * 8
    operand = m * d * 8
    # p, dp and dp * p, and the block's mask; the gradients of q, k and
    # v, the upstream gradient, and room for the head's scaled queries,
    # the two per-head products added into dk and dv, and small arrays
    assert peak <= 4 * rows_by_keys + 8 * operand, peak


def test_ffn_backward_holds_two_hidden_arrays_above_the_retained_set():
    # W2's backward rebuilds GELU's output and derivative, forms dW2 from
    # the output and frees it before it forms dX; GELU's backward then
    # multiplies dX into the derivative in place
    rows, d, d_ff = 256, 16, 256
    cfg = ModelConfig(vocab_size=257, max_positions=8, d_model=d, n_heads=2,
                      d_ff=d_ff, n_layers=1, causal=True, n_classes=None)
    model = build_model(cfg, seed=9, dtype="float64")
    r = np.random.default_rng(9)
    tape = Tape()
    x = tape.input(r.normal(size=(rows, d)))
    out = ffn_block(tape, model, 0, x)
    loss = tape.cross_entropy(out, r.integers(0, d, size=rows))
    with Traced() as traced:
        tape.backward(loss)
        peak = traced.peak()
    hidden = rows * d_ff * 8
    # beside the two: the gradients of x, W1 and W2 (each under a
    # sixteenth of a hidden array), the upstream gradient and softmax
    # probabilities of the loss, and the small ones
    assert peak <= 2 * hidden + 6 * rows * d * 8, (peak, hidden)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_holds_two_scratch_arrays(dtype):
    model = build_model(lm_config(), seed=6, dtype=dtype)
    state = AdamState(model)
    r = np.random.default_rng(6)
    grads = {name: r.normal(size=arr.shape).astype(dtype)
             for name, arr in model.trainable_arrays()}
    largest = max(arr.nbytes for _, arr in model.trainable_arrays())
    with Traced() as traced:
        adam_step(model, grads, state, lr=1e-3, weight_decay=0.01,
                  grad_scale=0.5)
        peak = traced.peak()
    # the allowance covers the list of (name, array) pairs and scalars
    assert peak <= 2 * largest + 16 * 1024, (peak, largest)
