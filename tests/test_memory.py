"""Measured memory: the bytes a run really holds, read with `tracemalloc`,
against the engine's own liveness replay (`simulate_peak_bytes`), the
train step's gradient accumulator that backward streams into, and the
scratch memory of attention's backward, of the GELU pass and of Adam.

The replay counts arrays only. The graph itself (node records, their
metadata and index arrays) is real memory it does not count, so a
measured figure may exceed the replay by up to GRAPH_BYTES_PER_NODE per
recorded node, on top of the relative tolerance REL_TOL either way.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
# np.unique imports numpy.ma on its first call; imported here, that
# one-time import falls in no measured window
import numpy.ma  # noqa: F401
import pytest

from tokentune import engine, optimize
from tokentune.config import (REGIMES, SELECTIVE_REGIMES, ModelConfig,
                              TrainConfig)
from tokentune.engine import (ATTENTION_BLOCK_ROWS, Tape, gelu_array,
                              simulate_peak_bytes)
from tokentune.memprofile import (build_regime_model, lm_profile_batch,
                                  retained_bytes_law)
from tokentune.model import FFN_BLOCK_ROWS, build_model, forward_hidden
from tokentune.model import ffn as ffn_block
from tokentune.model import norm as norm_block
from tokentune.optimize import (NORM_BLOCK, AdamState, Trainer, adam_step,
                                eval_hidden, evaluate, global_norm)
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
    # tracked GELU output (W2) and every W1 output, the pre-activation a
    # GELU reads, which the same switch turns off; so, in tokentune, are
    # the n x d keys and values, which each layer's attention rebuilds
    # from its saved (n - k) x d unselected input rows
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
    gelu_output = pre_activation = rows * cfg.d_ff * np.dtype(dtype).itemsize
    keys_values = root_input = 0
    if regime == "tokentune":
        keys_values = 2 * N * cfg.d_model * np.dtype(dtype).itemsize
        root_input = (N - K) * cfg.d_model * np.dtype(dtype).itemsize
    assert rebuilt == saved - cfg.n_layers * (
        2 * norm_output + gelu_output + pre_activation + keys_values
        - root_input)


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


def lm_law(cfg, n, itemsize):
    """(intercept, slope) of `retained_bytes_law` for a language model
    whose k selected positions each have a next-token target."""
    intercept, per_position, per_row = retained_bytes_law(cfg, n, itemsize)
    return intercept, per_position + per_row


def tokentune_tape(model, example, k):
    """A tape of the forward and loss with k positions selected among
    those with a next-token target (all but the last)."""
    n = len(example.seq)
    selected = np.sort(np.random.default_rng(k).choice(n - 1, k,
                                                       replace=False))
    partition = TokenPartition(selected=selected, unselected=np.setdiff1d(
        np.arange(n), selected))
    tape = Tape()
    split = tokentune_forward(tape, model, example.seq, partition)
    loss_lm(tape, model, split, example.targets)
    return tape


def tokentune_retained_bytes(model, example, k):
    """Bytes retained for backward by `tokentune_tape`."""
    return sum(tokentune_tape(model, example, k).retained_bytes().values())


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tokentune_retained_bytes_follow_the_law_in_k(model, example, dtype):
    model = model.astype(dtype)
    intercept, slope = lm_law(model.config, N, np.dtype(dtype).itemsize)
    for k in (1, 2, 5, K, 3 * K, N - 1):
        assert tokentune_retained_bytes(model, example, k) \
            == intercept + slope * k, k


def test_retained_bytes_law_at_the_benchmark_shapes():
    # byte LM, n=512, d=256, 8 heads, 4 layers, d_ff=1024, float32; the
    # law was 4,194,308 + 35,012 k while each GELU saved its 4 x d_ff
    # input bytes, then 4,194,308 + 18,628 k while each layer kept its
    # n x d keys and values
    n = 512
    cfg = ModelConfig(vocab_size=257, max_positions=n, d_model=256,
                      n_heads=8, d_ff=1024, n_layers=4, causal=True,
                      n_classes=None)
    intercept, slope = lm_law(cfg, n, 4)
    assert (intercept, slope) == (2_097_156, 14_532)
    model = build_model(cfg, seed=3, dtype="float32")
    example = lm_profile_batch(n, 1, seed=3)[0]
    for k in (1, 64):
        assert tokentune_retained_bytes(model, example, k) \
            == intercept + slope * k, k


def test_retained_bytes_follow_the_law_past_one_ffn_block():
    # k = 320 selected rows run each tracked feed-forward block in two row
    # blocks; a block's W1 affine reads rows of the layer norm's output,
    # which backward rebuilds, so no block saves any rows of its own
    n, k = 512, 320
    cfg = ModelConfig(vocab_size=257, max_positions=n, d_model=16,
                      n_heads=2, d_ff=32, n_layers=2, causal=True,
                      n_classes=None)
    model = build_model(cfg, seed=3, dtype="float32")
    example = lm_profile_batch(n, 1, seed=3)[0]
    intercept, slope = lm_law(cfg, n, 4)
    tape = tokentune_tape(model, example, k)
    assert sum(tape.retained_bytes().values()) == intercept + slope * k
    blocks = [node for node in tape.nodes if node.op == "affine"
              and node.requires_grad and node.label.endswith(".ffn")
              and node.inputs[0].op == "select_rows"]
    assert k > FFN_BLOCK_ROWS and len(blocks) == 2 * cfg.n_layers


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


@pytest.mark.parametrize("regime", REGIMES)
def test_evaluation_tapes_retain_and_pin_nothing(monkeypatch, regime):
    # no node of an evaluation keeps a save or a retained output (a
    # rebuild's root included): its untracked norms and affines hold weak
    # references only, and the last node's output is all a tape's ledger
    # charges
    cfg = replace(lm_config(), max_positions=20, d_model=16, d_ff=32)
    train = TrainConfig(regime=regime, k=5, seed=5)
    model = build_regime_model(cfg, train)
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(optimize, "Tape", RecordingTape)
    batch = lm_profile_batch(20, 2, seed=5)
    evaluate(model, batch, "lm")
    eval_hidden(model, batch[0].seq)
    assert len(tapes) == 5  # a head tape and a hidden tape per example
    for tape in tapes:
        assert tape.nodes and not any(
            (node.requires_grad and node.op != "param")
            or node._saved_arrays is not None
            or node.retains or node.fresh_bytes
            for node in tape.nodes)
        last = tape.nodes[-1]
        assert tape.retained_bytes() == {(last.label, last.op): last.nbytes}


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
    # the unselected (no-grad) path in flight: the FFN's one hidden array
    # for one row block (GELU writes over the pre-activation) and its GELU
    # pass's row block of scratch, four (n - k) x d row arrays (the
    # residual, the FFN's input and two outputs in flight) and one ufunc
    # buffer. Dead projections kept through unselected attention, an
    # m x n float mask or a scaled copy of q would each add to it. Here
    # the unselected attention's one group of scores (all 4 heads, at
    # n = 128) is about as wide as the FFN block, so a second hidden
    # array shows in test_no_grad_ffn_holds_one_row_block_of_hidden_arrays
    # rather than here.
    cfg = lm_config()
    itemsize = np.dtype(dtype).itemsize
    block = min(N - K, FFN_BLOCK_ROWS)
    bound = (block * cfg.d_ff + 4 * (N - K) * cfg.d_model
             + UFUNC_BUFFER_ELEMENTS) * itemsize + engine.GELU_BLOCK_BYTES
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
@pytest.mark.parametrize("n, d_ff, k", [
    *(pytest.param(N, 256, k, id=str(k))
      for k in (N // 16, N // 8, N // 4, N // 2)),
    # 300 unselected rows: two FFN row blocks, adapted or not
    pytest.param(320, 512, 20, id="n320-20")])
def test_tokentune_lora_step_peaks_no_higher_than_tokentune(dtype, n, d_ff,
                                                            k):
    # adapters add factors and their products but train far fewer
    # parameters, so their step should hold no more at any k
    cfg = replace(lm_config(), max_positions=n, d_ff=d_ff)
    batch = lm_profile_batch(n, 1, seed=3)

    def step_peak(regime):
        train = TrainConfig(regime=regime, k=k, batch_size=1,
                            learning_rate=1e-3, seed=3, dtype=dtype)
        trainer = Trainer(build_regime_model(cfg, train), train, "lm")
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
    sizes = [part.shape[0] for part in out.node.inputs]
    assert out.op == "concat_rows" and len(sizes) == 3
    hidden = max(sizes) * d_ff * itemsize
    # beside one block's hidden array (GELU writes over the pre-activation)
    # and the output: GELU's row block of scratch, the finished blocks'
    # outputs awaiting the concat, the block's own row arrays, a ufunc
    # buffer and the graph's records (the whole-array FFN held two rows x
    # d_ff arrays, six times as much)
    slack = (2 * rows * d + UFUNC_BUFFER_ELEMENTS) * itemsize \
        + engine.GELU_BLOCK_BYTES + GRAPH_BYTES_PER_NODE * len(tape.nodes)
    assert peak <= out.value.nbytes + hidden + slack, (peak, hidden)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_parts_hold_two_outputs_and_one_row_block_of_scratch(dtype):
    x = np.random.default_rng(6).normal(size=(512, 1024)).astype(dtype)
    with Traced() as traced:
        value, deriv = engine._gelu_parts(x)
        peak = traced.peak()
    row = x[:1].nbytes
    scratch = min(len(x), max(1, engine.GELU_BLOCK_BYTES // row)) * row
    assert scratch < x.nbytes // 8
    # beside the arrays, the row-block views of x, the outputs and the
    # scratch: about 160 bytes each, four live and four being made
    assert 2 * x.nbytes + scratch <= peak \
        <= 2 * x.nbytes + scratch + 2 * GRAPH_BYTES_PER_NODE, peak


def test_backward_holds_no_parameter_gradient_past_its_node(monkeypatch,
                                                            model, example):
    # TokenTune at k = n/8, whose parameter leaves are recorded at their
    # first use, in the unselected (no-grad) path, long before their
    # tracked readers: each rule adds its parameter gradients into the
    # accumulator, so none is ever pending in the sweep. In the full
    # regime at these shapes attention's backward block buffers alone
    # outweigh the parameter gradients
    tape = Tape()
    loss = record_loss(tape, model, example, "tokentune")
    params = {node.idx for node in tape.nodes if node.op == "param"}
    pending = []
    backprop = Tape._backprop

    def checked(self, node, g, grads):
        backprop(self, node, g, grads)
        pending.extend(params & grads.keys())

    monkeypatch.setattr(Tape, "_backprop", checked)
    accum = {name: np.zeros_like(arr)
             for name, arr in model.trainable_arrays()}
    grad_bytes = sum(arr.nbytes for arr in accum.values())
    with Traced() as traced:
        tape.backward(loss, into=accum)
        peak = traced.peak()
    assert pending == []
    assert all(np.any(accum[node.name]) for node in tape.nodes
               if node.op == "param" and node.requires_grad)
    assert peak < grad_bytes, (peak, grad_bytes)


def test_adapted_affine_backward_makes_no_scaled_copy_of_g():
    # dB = s (xa^T g) and dxa = s (g B^T): no rows x d_out copy g * s;
    # at s = 2 the gradients are those of scaling g first, bit for bit
    rows, d_in, d_out, rank, s = 512, 16, 512, 4, 2.0
    r = np.random.default_rng(12)
    tape = Tape()
    x = tape.input(r.normal(size=(rows, d_in)))
    w = tape.param("w", r.normal(size=(d_in, d_out)), trainable=False)
    a = tape.param("a", r.normal(size=(d_in, rank)))
    b = tape.param("b", r.normal(size=(rank, d_out)))
    out = tape.affine(x, w, None, (a, b, s))
    g = r.normal(size=(rows, d_out))
    grads = {}
    with Traced() as traced:
        tape._backprop(out.node, g, engine._SweepGradients(grads))
        peak = traced.peak()
    xa = x.value @ a.value
    dxa = (g * s) @ b.value.T
    assert np.array_equal(grads["b"], xa.T @ (g * s))
    assert np.array_equal(grads["a"], x.value.T @ dxa)
    # beside the gradients of b, a and x (the two terms of x's and their
    # sum), dxa, and the small ones: far below a copy of g
    assert peak < g.nbytes // 4, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal", [True, False],
                         ids=["causal", "bidirectional"])
def test_attention_forward_holds_one_head_groups_score_block(dtype, causal):
    # every position a query, so a causal block's diagonal tile is
    # ATTENTION_BLOCK_ROWS square
    n, d, heads = 512, 256, 8
    r = np.random.default_rng(13)
    tape = Tape()
    q, k, v = (tape.input(r.normal(size=(n, d)).astype(dtype))
               for _ in range(3))
    with tape.no_grad(), Traced() as traced:
        out = tape.attention(q, k, v, np.arange(n), causal, heads)
        peak = traced.peak()
    itemsize = np.dtype(dtype).itemsize
    rows = ATTENTION_BLOCK_ROWS
    lse = heads * n * itemsize
    scores = engine.ATTENTION_SCORE_BYTES
    # a block of all heads' scores, as before, is 4 or 8 times as much
    assert 4 * scores <= heads * rows * n * itemsize
    # beside the output, the lse and one group's scores: scaled queries
    # of at most a block's rows and heads (no fewer bytes here than the
    # iteration buffers of a tile mask's comparison of positions, formed
    # while no queries are held), two diagonal tiles' booleans, the
    # block's row sums, the positions, and the records of the node, its
    # blocks and their head groups
    assert rows * d * itemsize >= 2 * rows * rows * 8
    slack = (rows * d + rows * heads) * itemsize + 2 * rows * rows \
        + n * 8 + GRAPH_BYTES_PER_NODE * (1 + n // rows)
    assert peak <= out.value.nbytes + lse + scores + slack, peak


def test_unselected_keys_and_values_die_before_their_output_affine(
        monkeypatch, model, example):
    # the unselected queries' attention is the last to read a layer's
    # joined keys and values: they die when it returns, before its W_o
    # affine runs
    joined: dict[str, list] = {}
    concat, affine = Tape.concat_rows, Tape.affine

    def recording_concat(self, parts, rows=None):
        out = concat(self, parts, rows)
        if self._label().endswith(".attn"):
            joined.setdefault(self._label(), []).append(weakref.ref(out.value))
        return out

    seen = []

    def checking_affine(self, x, w, bias=None, lora=None):
        if w.name.endswith(".attn.w_o") and not self.grad_enabled:
            seen.append([ref() is None for ref in joined[self._label()]])
        return affine(self, x, w, bias, lora)

    monkeypatch.setattr(Tape, "concat_rows", recording_concat)
    monkeypatch.setattr(Tape, "affine", checking_affine)
    record_loss(Tape(), model, example, "tokentune")
    # every layer but the last has unselected queries
    assert seen == [[True, True]] * (model.config.n_layers - 1)


def test_attention_backward_frees_its_root_before_its_head_loop(
        monkeypatch, model, example):
    # the unselected layer input that a tracked attention saves to rebuild
    # its keys and values dies once the norms are rebuilt from it
    tape = Tape()
    loss = record_loss(tape, model, example, "tokentune")
    roots = {node.idx: weakref.ref(dict(node._saved_arrays)["root"])
             for node in tape.nodes
             if node.op == "attention" and node.requires_grad}
    assert len(roots) == model.config.n_layers
    current, freed = [], []
    attention, key_gradient = Tape._backprop_attention, \
        engine._KeyGradient.__init__

    def tracking(self, node, *args):
        current.append(node.idx)
        return attention(self, node, *args)

    def checking(self, node, width):
        freed.append(roots[current[-1]]() is None)
        key_gradient(self, node, width)

    monkeypatch.setattr(Tape, "_backprop_attention", tracking)
    monkeypatch.setattr(engine._KeyGradient, "__init__", checking)
    tape.backward(loss)
    assert sorted(set(current)) == sorted(roots)
    assert freed and all(freed)


def benchmark_step_peak(regime, k=None):
    """`tracemalloc`'s peak over one warmed step of one example at the
    lm-long benchmark workload's shapes, float32."""
    cfg = ModelConfig(vocab_size=257, max_positions=512, d_model=256,
                      n_heads=8, d_ff=1024, n_layers=4, causal=True,
                      n_classes=None)
    train = TrainConfig(regime=regime, k=k, batch_size=1,
                        learning_rate=3e-4, seed=11, dtype="float32")
    trainer = Trainer(build_model(cfg, seed=11, dtype="float32"), train,
                      "lm")
    batch = lm_profile_batch(512, 1, seed=11)
    trainer.train_step(batch)  # first step allocates nothing new
    with Traced() as traced:
        trainer.train_step(batch)
        return traced.peak()


def test_tokentune_step_peak_at_the_benchmark_shapes():
    # k = 64: the unselected path's transients (a head group's attention
    # scores, one FFN hidden array per row block) and attention's backward
    # rebuild stay under this bound, 4.85 MB
    peak = benchmark_step_peak("tokentune", 64)
    assert peak <= 4_850_000, peak


def test_full_step_peak_at_the_benchmark_shapes():
    # every position selected: W2's backward rebuilds one 256-row block's
    # pre-activation, GELU output (over it) and derivative at a time,
    # above the 13.7 MB retained set, so the step stays under this bound,
    # 17.5 MB
    peak = benchmark_step_peak("full")
    assert peak <= 17_500_000, peak


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
        loss, _ = ref._example_loss(
            tape, example, ref.partition_for(example.seq,
                                             ref.example_counter))
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


def test_global_norm_squares_float32_in_float64_blocks():
    # the largest array is 16 blocks; whole, its float64 copy would be
    # 2 MB
    r = np.random.default_rng(8)
    arrays = [r.normal(size=shape).astype(np.float32)
              for shape in ((300, 257), (1, 64), (1024, 256))]
    want = np.linalg.norm(np.concatenate(
        [a.astype(np.float64).reshape(-1) for a in arrays])) / 37
    with Traced() as traced:
        got = global_norm(arrays, 1.0 / 37)
        peak = traced.peak()
    assert abs(got - want) <= 1e-12 * want
    assert peak < 2 * NORM_BLOCK * 8, peak


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


def test_attention_backward_forms_key_rows_only_for_tracked_parts():
    # TokenTune's selected queries, k = 8 of n = 256, over keys and
    # values joined from an untracked and a tracked part: backward forms
    # their gradients at the 8 tracked rows, so no n x d array (an n x d
    # dk or dv) is ever held
    n, k, d = 256, 8, 128
    r = np.random.default_rng(10)
    selected = np.sort(r.choice(n, k, replace=False))
    unselected = np.setdiff1d(np.arange(n), selected)
    tape = Tape()
    q = tape.input(r.normal(size=(k, d)))
    keys, values = (tape.concat_rows([tape.constant(r.normal(size=(n - k, d))),
                                      tape.input(r.normal(size=(k, d)))],
                                     (unselected, selected))
                    for _ in range(2))
    out = tape.attention(q, keys, values, selected, True, 8)
    loss = tape.matmul(tape.mean_rows(out), tape.constant(np.ones((d, 1))))
    with Traced() as traced:
        tape.backward(loss)
        peak = traced.peak()
    assert peak < n * d * 8, peak


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


def test_tracked_ffn_backward_holds_one_row_blocks_hidden_arrays():
    # over a layer norm's rows, as in the model, in three row blocks: W2's
    # backward rebuilds one block's pre-activation at a time and writes
    # GELU's output over it, beside the derivative: two of a block's
    # hidden arrays, not all rows' three (4.5 times as much)
    rows, d, d_ff = 2 * FFN_BLOCK_ROWS + 1, 16, 256
    cfg = ModelConfig(vocab_size=257, max_positions=8, d_model=d, n_heads=2,
                      d_ff=d_ff, n_layers=1, causal=True, n_classes=None)
    model = build_model(cfg, seed=9, dtype="float64")
    r = np.random.default_rng(9)
    tape = Tape()
    x = tape.input(r.normal(size=(rows, d)))
    out = ffn_block(tape, model, 0, norm_block(tape, model, 0, 2, x))
    loss = tape.cross_entropy(out, r.integers(0, d, size=rows))
    with Traced() as traced:
        tape.backward(loss)
        peak = traced.peak()
    sizes = [part.shape[0] for part in out.node.inputs]
    assert out.op == "concat_rows" and len(sizes) == 3
    block = max(sizes) * d_ff * 8
    # beside the two: the pass's two row blocks of scratch, a weight
    # gradient's product, the loss's gradient, the layer norm's pending
    # gradient and the small ones
    bound = 2 * block + 2 * engine.GELU_BLOCK_BYTES + d * d_ff * 8 \
        + 3 * rows * d * 8
    assert bound < 2 * rows * d_ff * 8
    assert peak <= bound, (peak, block)


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
