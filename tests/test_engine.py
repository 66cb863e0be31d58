"""Engine tests: primitive semantics, scope rules, the accounting of what
backward retains, and backward correctness against central finite
differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokentune import engine
from tokentune.adapters import attach
from tokentune.config import ModelConfig
from tokentune.engine import (ATTENTION_BLOCK_ROWS, MASK_VALUE,
                              BackwardError, NonFiniteError, ShapeError,
                              Tape, gelu_array, simulate_peak_bytes)
from tokentune.model import build_model
from tokentune.model import ffn as ffn_block
from tokentune.verify import (_CacheUntrackedTape, finite_diff_grad,
                              relative_error)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 77]))


# ---- forward values ---------------------------------------------------------

def test_matmul_of_ones_caches_both_operands():
    t = Tape()
    c = t.matmul(t.input(np.ones((2, 3))), t.input(np.ones((3, 4))))
    assert np.array_equal(c.value, np.full((2, 4), 3.0))
    # both operands, and the output, which backward would start from
    assert t.cached_activation_elements() == 6 + 12 + 8


def test_matmul_in_disabled_scope_same_values_zero_cache():
    t1 = Tape()
    out1 = t1.matmul(t1.input(np.ones((2, 3))), t1.input(np.ones((3, 4))))
    t2 = Tape()
    with t2.no_grad():
        out2 = t2.matmul(t2.input(np.ones((2, 3))), t2.input(np.ones((3, 4))))
    assert np.array_equal(out1.value, out2.value)
    assert out2.retains == () and out2.fresh_bytes == 0
    # the output alone: it is the last node, which backward would start from
    assert t2.cached_activation_elements() == 8


def test_softmax_symmetric_row():
    t = Tape()
    out = t.softmax_rows(t.input(np.array([[0.0, 0.0]])))
    assert np.allclose(out.value, [[0.5, 0.5]])


def test_softmax_rows_sum_to_one_and_masked_entries_vanish():
    t = Tape()
    scores = np.array([[1.0, 2.0, -1e30], [0.5, -1e30, -1e30]])
    p = t.softmax_rows(t.input(scores)).value
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert p[0, 2] == 0.0 and p[1, 1] == 0.0


def test_empty_tape_cached_elements_zero():
    assert Tape().cached_activation_elements() == 0


def test_scope_restored_on_error_and_nested_query():
    t = Tape()
    assert t.grad_enabled
    with t.no_grad():
        assert not t.grad_enabled
        with t.no_grad():
            assert not t.grad_enabled
        assert not t.grad_enabled
    assert t.grad_enabled
    with pytest.raises(RuntimeError):
        with t.no_grad():
            raise RuntimeError("boom")
    assert t.grad_enabled


def test_disabled_body_matmul_caches_nothing():
    t = Tape()
    a = t.input(rng_for(0).normal(size=(3, 3)))
    with t.no_grad():
        node = t.matmul(a, a)
    assert node.retains == () and node.fresh_bytes == 0
    assert not node.requires_grad


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_outputs_identical_with_and_without_tracking(seed):
    r = rng_for(seed)
    x = r.normal(size=(3, 4))
    w = r.normal(size=(4, 4))

    def run(disabled):
        t = Tape()
        xn, wn = t.input(x), t.input(w)
        if disabled:
            with t.no_grad():
                return t.softmax_rows(t.gelu(t.matmul(xn, wn))).value
        return t.softmax_rows(t.gelu(t.matmul(xn, wn))).value

    assert np.array_equal(run(False), run(True))


# ---- backward ---------------------------------------------------------------

def test_linear_loss_gradient_is_broadcast_input():
    # loss = sum(W x): dL/dW[i, j] = x[j]
    x = np.array([[1.0], [2.0], [3.0]])
    t = Tape()
    w = t.param("w", rng_for(1).normal(size=(2, 3)))
    prod = t.matmul(w, t.constant(x))
    loss = t.matmul(t.mean_rows(prod), t.constant(np.array([[2.0]])))
    grads = t.backward(loss)
    assert np.allclose(grads["w"], np.tile(x.T, (2, 1)))


def test_backward_twice_errors():
    t = Tape()
    a = t.input(np.ones((1, 1)))
    loss = t.matmul(a, a)
    t.backward(loss)
    with pytest.raises(BackwardError):
        t.backward(loss)


def test_backward_needs_scalar_loss():
    t = Tape()
    a = t.input(np.ones((2, 2)))
    with pytest.raises(BackwardError):
        t.backward(a)


def test_disabled_node_contributes_exactly_zero():
    """A node recorded under a disabled scope must behave exactly like the
    same value substituted as a constant."""
    r = rng_for(3)
    x = r.normal(size=(2, 3))
    w1 = r.normal(size=(3, 3))
    w2 = r.normal(size=(3, 1))

    def grads(disable):
        t = Tape()
        w1n = t.param("w1", w1)
        w2n = t.param("w2", w2)
        xn = t.input(x)
        if disable:
            with t.no_grad():
                mid = t.gelu(t.matmul(xn, w1n))
        else:
            mid = t.constant(gelu_array(x @ w1))
        out = t.matmul(mid, w2n)
        return t.backward(t.mean_rows(out))

    g_disabled = grads(True)
    g_const = grads(False)
    assert "w1" not in g_disabled and "w1" not in g_const
    assert np.array_equal(g_disabled["w2"], g_const["w2"])


def test_dense_layer_matches_hand_formula_with_disabled_rows():
    """Two-row dense layer; the second row's output is recorded under a
    disabled scope. dW must equal h_sel^T (dL/da_sel * gelu'(z_sel))."""
    r = rng_for(4)
    h = r.normal(size=(2, 2))
    w = r.normal(size=(2, 2))
    b = r.normal(size=(1, 2))
    t = Tape()
    wn, bn = t.param("w", w), t.param("b", b)
    hn = t.constant(h)
    sel = t.gelu(t.add(t.matmul(t.select_rows(hn, [0]), wn), bn))
    with t.no_grad():
        unsel = t.gelu(t.add(t.matmul(t.select_rows(hn, [1]), wn), bn))
    both = t.concat_rows([sel, unsel])
    loss = t.matmul(t.mean_rows(both), t.constant(np.ones((2, 1))))
    grads = t.backward(loss)

    z = h[:1] @ w + b
    upstream = np.full((1, 2), 0.5)  # mean over 2 rows, then sum of coords
    eps = 1e-7
    sigma_prime = (gelu_array(z + eps) - gelu_array(z - eps)) / (2 * eps)
    dw_hand = h[:1].T @ (upstream * sigma_prime)
    db_hand = upstream * sigma_prime
    assert relative_error(grads["w"], dw_hand) < 1e-6
    assert relative_error(grads["b"], db_hand) < 1e-6


# ---- random-graph finite differences ----------------------------------------

def _build_graph(params, data, dtype):
    """Deterministic little graph touching every differentiable primitive."""
    t = Tape()
    x = t.input(data["x"].astype(dtype))
    w1 = t.param("w1", params["w1"])
    b1 = t.param("b1", params["b1"])
    gamma = t.param("gamma", params["gamma"])
    beta = t.param("beta", params["beta"])
    w2 = t.param("w2", params["w2"])
    h = t.add(t.matmul(x, w1), b1)
    h = t.layer_norm(h, gamma, beta)
    h = t.gelu(h)
    att = t.softmax_rows(t.scale(t.matmul(h, h, transpose_b=True), 0.7))
    h = t.matmul(att, h)
    h = t.concat_cols([t.select_cols(h, [0, 1]), t.select_cols(h, [2, 3])])
    h = t.concat_rows([t.select_rows(h, [0]), t.select_rows(h, [1, 2])])
    pooled = t.mean_rows(h)
    logits = t.matmul(pooled, w2)
    return t, t.cross_entropy(logits, data["targets"])


def _graph_case(seed, dtype):
    r = rng_for(seed)
    d = 4
    params = {
        "w1": r.normal(0, 0.8, (d, d)).astype(dtype),
        "b1": r.normal(0, 0.5, (1, d)).astype(dtype),
        "gamma": (1.0 + 0.2 * r.normal(size=(1, d))).astype(dtype),
        "beta": r.normal(0, 0.3, (1, d)).astype(dtype),
        "w2": r.normal(0, 0.8, (d, 5)).astype(dtype),
    }
    data = {"x": r.normal(0, 1.0, (3, d)), "targets": [int(r.integers(5))]}
    return params, data


@pytest.mark.parametrize("seed", range(100))
def test_backward_matches_finite_differences_float64(seed):
    params, data = _graph_case(seed, np.float64)
    tape, loss = _build_graph(params, data, np.float64)
    analytic = tape.backward(loss)
    step = 1e-5

    def loss_value():
        _, node = _build_graph(params, data, np.float64)
        return float(node.value[0, 0])

    # The central-difference oracle itself resolves gradients only down to
    # ~|L|*ulp/(2*step); below that, disagreement is oracle noise, not an
    # engine error. 64 ulp-equivalents gives a safe deterministic floor.
    noise_floor = 64.0 * abs(loss_value()) * 2.0 ** -53 / (2.0 * step)
    numeric = finite_diff_grad(loss_value, params, step=step)
    for name, (coords, values) in numeric.items():
        a = analytic[name].reshape(-1)[coords]
        bound = noise_floor + 1e-6 * np.maximum(np.abs(a), np.abs(values))
        worst = np.max(np.abs(a - values) - bound)
        assert worst <= 0, f"{name}: exceeds fd tolerance by {worst} (seed {seed})"


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_float32_backward_matches_float64_numeric_oracle(seed):
    params64, data = _graph_case(seed, np.float64)
    params32 = {k: v.astype(np.float32) for k, v in params64.items()}
    tape, loss = _build_graph(params32, data, np.float32)
    analytic = tape.backward(loss)

    def loss_value():
        _, node = _build_graph(params64, data, np.float64)
        return float(node.value[0, 0])

    numeric = finite_diff_grad(loss_value, params64, step=1e-5)
    for name, (coords, values) in numeric.items():
        rel = relative_error(
            analytic[name].astype(np.float64).reshape(-1)[coords], values)
        assert rel < 1e-4, f"{name}: rel err {rel} (seed {seed})"


# ---- ledger properties --------------------------------------------------------

def test_cache_ledger_monotone_in_tracked_set():
    r = rng_for(9)
    x = r.normal(size=(4, 4))
    w = r.normal(size=(4, 4))

    def cached(track_x, track_w):
        t = Tape()
        xn = t.input(x, requires_grad=track_x)
        wn = t.input(w, requires_grad=track_w)
        t.gelu(t.matmul(xn, wn))
        return t.cached_activation_elements()

    # the GELU's output (the last node); then w and the GELU's input; then x
    assert (cached(False, False), cached(True, False), cached(True, True)) \
        == (16, 16 + 16 + 16, 16 + 16 + 16 + 16)


def test_param_saves_are_not_charged_to_the_activation_ledger():
    t = Tape()
    x = t.input(np.ones((2, 3)))
    w = t.param("w", np.ones((3, 4)), trainable=False)
    out = t.matmul(x, w)
    # only w is saved (for dL/dx); it is a parameter, so only the output
    # (the last node) is charged
    assert out.retains == (w.idx,)
    assert t.cached_activation_elements() == 2 * 4


def test_live_cache_returns_to_zero_after_backward():
    r = rng_for(10)
    t = Tape()
    x = t.input(r.normal(size=(3, 3)))
    w = t.param("w", r.normal(size=(3, 1)))
    loss = t.mean_rows(t.matmul(t.gelu(x), w))
    loss = t.matmul(loss, t.constant(np.ones((1, 1))))
    # the GELU, the matmul by w, the matmul by the constant
    assert [node.op for node in t.nodes if node._saved_arrays] \
        == ["elementwise", "matmul", "matmul"]
    before = t.retained_bytes()
    t.backward(loss)
    assert [node for node in t.nodes if node._saved_arrays] == []
    assert t.retained_bytes() == before  # the accounting persists


def test_cache_untracked_tape_inflates_retained_bytes_only():
    r = rng_for(11)
    x = r.normal(size=(3, 3))

    def run(tape):
        with tape.no_grad():
            out = tape.gelu(tape.matmul(tape.input(x), tape.input(x)))
        return out.value, tape.cached_activation_elements()

    v_off, c_off = run(Tape())
    v_on, c_on = run(_CacheUntrackedTape())
    assert np.array_equal(v_off, v_on)
    # the GELU's output (the last node); with the mutant also the matmul's
    # output, which the GELU saves (no matmul operand needs a gradient)
    assert (c_off, c_on) == (9, 9 + 9)


# ---- errors -------------------------------------------------------------------

def test_shape_error_names_op_and_shapes():
    t = Tape()
    with pytest.raises(ShapeError) as err:
        t.matmul(t.input(np.ones((2, 3))), t.input(np.ones((2, 3))))
    assert "matmul" in str(err.value)
    assert "(2, 3)" in str(err.value)


def test_non_finite_output_raises():
    t = Tape()
    big = t.input(np.full((1, 1), 1e308))
    # the overflow is the point; the tape, not numpy, must report it
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        t.matmul(t.scale(big, 1e100), t.constant(np.ones((1, 1))))


def chain_affine(t, x, w, bias, lora):
    """The affine as the chain of matmul, scale and add nodes that states
    it, as verify's reference forward records it."""
    z = t.matmul(x, w)
    if lora is not None:
        a, b, s = lora
        z = t.add(z, t.scale(t.matmul(t.matmul(x, a), b), s))
    return t.add(z, bias)


AFFINE_ROWS, AFFINE_IN, AFFINE_OUT, AFFINE_RANK = 37, 24, 40, 3


def affine_readers(dtype, source, trains, record):
    """(tape, source leaf, the readers' (x, w, bias, lora) operands, their
    outputs, loss): three `record` affines of one x (a tracked input, or
    a tracked layer norm's or GELU's output of it), joined by concat_cols
    into a cross-entropy. `trains` is "w" (w and bias train; "lora-w"
    adds frozen factors) or "factors" (a, b and bias train, w is
    frozen)."""
    r = rng_for(40)
    t = Tape()
    leaf = t.input(r.normal(size=(AFFINE_ROWS, AFFINE_IN)).astype(dtype))
    if source == "norm":
        x = t.layer_norm(leaf, t.param("gamma", (1.0 + 0.3 * r.normal(
            size=(1, AFFINE_IN))).astype(dtype)),
            t.param("beta", r.normal(size=(1, AFFINE_IN)).astype(dtype)))
    elif source == "gelu":
        x = t.gelu(leaf)
    else:
        x = leaf

    def param(name, shape, trainable=True):
        return t.param(name, r.normal(size=shape).astype(dtype),
                       trainable=trainable)

    operands = []
    for i in range(3):
        w = param(f"w{i}", (AFFINE_IN, AFFINE_OUT), trains != "factors")
        lora = None
        if trains != "w":
            lora = (param(f"a{i}", (AFFINE_IN, AFFINE_RANK),
                          trains == "factors"),
                    param(f"b{i}", (AFFINE_RANK, AFFINE_OUT),
                          trains == "factors"), 1.75)
        operands.append((x, w, param(f"bias{i}", (1, AFFINE_OUT)), lora))
    outs = [record(t, *args) for args in operands]
    targets = r.integers(0, 3 * AFFINE_OUT, size=AFFINE_ROWS)
    loss = t.cross_entropy(t.concat_cols(outs), targets)
    return t, leaf, operands, outs, loss


@pytest.mark.parametrize("trains", ["w", "lora-w", "factors"])
@pytest.mark.parametrize("source", ["input", "norm", "gelu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_is_one_node_equal_to_its_chain_in_value_and_gradient(
        dtype, source, trains):
    t, leaf, operands, outs, loss = affine_readers(dtype, source, trains,
                                                   Tape.affine)
    ref, ref_leaf, _, ref_outs, ref_loss = affine_readers(
        dtype, source, trains, chain_affine)
    x = operands[0][0]
    # past x, one node per affine and no chain node
    assert [out.op for out in outs] == ["affine"] * 3
    assert {node.op for node in t.nodes[x.idx + 1:]} \
        == {"param", "affine", "concat_cols", "cross_entropy"}
    for got, want in zip(outs, ref_outs):
        assert bits(got.value) == bits(want.value)
    # the chain's x @ a node is the affine's fresh save, and only the
    # chain's matmuls save a norm's or GELU's output, which the affine's
    # backward rebuilds
    rebuilt = 0 if source == "input" else x.nbytes
    assert simulate_peak_bytes(t)[1] == simulate_peak_bytes(ref)[1] - rebuilt
    grads, ref_grads = t.backward(loss), ref.backward(ref_loss)
    trained = ("a", "b") if trains == "factors" else ("w",)
    assert {name.rstrip("012") for name in grads} \
        == {*trained, "bias"} | ({"gamma", "beta"} if source == "norm"
                                 else set())
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert bits(grads[name]) == bits(ref_grads[name]), name
    assert bits(t.grad_of(leaf)) == bits(ref.grad_of(ref_leaf))
    # without gradients it is one untracked node that saves nothing
    before = len(t.nodes)
    with t.no_grad():
        untracked = t.affine(*operands[0])
    assert len(t.nodes) == before + 1
    assert untracked.op == "affine" and not untracked.requires_grad
    assert untracked.retains == () and untracked.fresh_bytes == 0
    assert bits(untracked.value) == bits(ref_outs[0].value)


def test_no_grad_affine_keeps_the_matmul_and_finiteness_checks():
    t = Tape()
    x = t.input(np.ones((2, 3)))
    with t.no_grad():
        with pytest.raises(ShapeError, match="affine"):
            t.affine(x, t.input(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="dtype"):
            t.affine(x, t.input(np.ones((3, 4), np.float32)))
        with pytest.raises(ShapeError, match="bias"):
            t.affine(x, t.input(np.ones((3, 4))), t.input(np.ones((1, 3))))
        with pytest.raises(ShapeError, match="LoRA"):
            t.affine(x, t.input(np.ones((3, 4))), None,
                     (t.input(np.ones((3, 2))), t.input(np.ones((2, 5))),
                      1.0))
        big = t.input(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            t.affine(big, t.input(np.full((1, 1), 10.0)))


def test_cross_entropy_target_range_checked():
    t = Tape()
    with pytest.raises(ShapeError):
        t.cross_entropy(t.input(np.zeros((1, 3))), [5])


# ---- hypothesis round trips -----------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_select_concat_round_trip_bitwise(seed, rows, cols):
    r = rng_for(seed)
    x = r.normal(size=(rows, cols))
    perm = r.permutation(rows)
    t = Tape()
    xn = t.input(x)
    selected = t.select_rows(xn, perm)
    back = t.select_rows(selected, np.argsort(perm))
    assert np.array_equal(back.value, x)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_layer_norm_rows_standardized(seed):
    r = rng_for(seed)
    x = r.normal(2.0, 3.0, size=(4, 8))
    t = Tape()
    out = t.layer_norm(t.input(x), t.constant(np.ones((1, 8))),
                       t.constant(np.zeros((1, 8))))
    assert np.allclose(out.value.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(out.value.std(axis=1), 1.0, atol=1e-3)


@pytest.mark.parametrize("idx", [[1, 3, 1, 1, 0, 3], [4, 0, 2, 1]],
                         ids=["repeated", "distinct"])
def test_select_rows_backward_scatters_like_add_at(idx):
    r = rng_for(13)
    x = r.normal(size=(5, 3))
    targets = r.integers(0, 3, size=len(idx))
    direct = Tape()
    rows = direct.input(x[idx])
    direct.backward(direct.cross_entropy(rows, targets))
    expected = np.zeros_like(x)
    np.add.at(expected, idx, direct.grad_of(rows))
    t = Tape()
    grads = t.backward(t.cross_entropy(t.select_rows(t.param("x", x), idx),
                                       targets))
    assert np.array_equal(grads["x"], expected)


def test_simulate_peak_counts_retained_saves():
    r = rng_for(12)
    t = Tape()
    x = t.input(r.normal(size=(4, 4)))
    h = t.gelu(t.matmul(x, x))
    t.mean_rows(h)
    peak, retained = simulate_peak_bytes(t)
    assert peak >= retained > 0


# ---- layer norm output rebuilt in backward --------------------------------------

NORM_ROWS, NORM_WIDTH = 5, 6


def norm_graph(dtype, readers, tracked_norm=True):
    """(tape, norm output, loss, reader weights by name): a layer norm of a
    tracked input with trainable scale and shift, read by one node per
    entry of `readers` ("affine" by a trainable weight, or "gelu"), summed
    into a cross-entropy. An untracked norm is recorded under no_grad."""
    r = rng_for(13)
    x = r.normal(size=(NORM_ROWS, NORM_WIDTH)).astype(dtype)
    gamma = (1.0 + 0.3 * r.normal(size=(1, NORM_WIDTH))).astype(dtype)
    beta = r.normal(0.0, 0.5, (1, NORM_WIDTH)).astype(dtype)
    t = Tape()
    args = (t.input(x), t.param("gamma", gamma), t.param("beta", beta))
    if tracked_norm:
        y = t.layer_norm(*args)
    else:
        with t.no_grad():
            y = t.layer_norm(*args)
    weights = {}
    outs = []
    for i, reader in enumerate(readers):
        if reader == "affine":
            w = weights[f"w{i}"] = r.normal(
                size=(NORM_WIDTH, NORM_WIDTH)).astype(dtype)
            outs.append(t.affine(y, t.param(f"w{i}", w)))
        else:
            outs.append(t.gelu(y))
    h = outs[0]
    for out in outs[1:]:
        h = t.add(h, out)
    targets = r.integers(0, NORM_WIDTH, size=NORM_ROWS)
    return t, y, t.cross_entropy(h, targets), weights


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_on_a_tracked_layer_norm_gets_dw_from_the_forward_output(
        dtype):
    t, y, loss, weights = norm_graph(dtype, ["affine"])
    (z,) = (node for node in t.nodes if node.op == "affine")
    # w, for dL/dy; y is not saved
    assert z.retains == (z.inputs[1].idx,) and z.fresh_bytes == 0
    dw = t.backward(loss)["w0"]
    # the forward's output as a leaf, which the matmul saves: dW = y^T g
    ref = Tape()
    z_ref = ref.matmul(ref.input(y.value), ref.param("w0", weights["w0"]))
    loss_ref = ref.cross_entropy(z_ref, loss.meta["targets"])
    assert loss_ref.value[0, 0] == loss.value[0, 0]
    assert np.array_equal(dw, ref.backward(loss_ref)["w0"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("readers,tracked_norm,kept", [
    (["affine"], True, False),
    (["affine", "affine", "affine"], True, False),
    (["affine", "gelu"], True, True),  # gelu reads the output itself
    (["affine"], False, True),  # no norm saves to rebuild from
], ids=["one-affine", "three-affines", "affine-and-gelu", "untracked-norm"])
def test_norm_output_leaves_the_retained_set_iff_only_affines_rebuild_it(
        monkeypatch, dtype, readers, tracked_norm, kept):
    retained = simulate_peak_bytes(norm_graph(dtype, readers,
                                              tracked_norm)[0])[1]
    with monkeypatch.context() as patched:
        # the policy without the rebuild: the affine saves its x
        patched.setattr(engine, "_rebuilt_in_backward", lambda node: False)
        saved = simulate_peak_bytes(norm_graph(dtype, readers,
                                               tracked_norm)[0])[1]
    norm_output = NORM_ROWS * NORM_WIDTH * np.dtype(dtype).itemsize
    assert retained == saved - (0 if kept else norm_output)


# ---- GELU output rebuilt in backward --------------------------------------------

GELU_ROWS, GELU_WIDTH = 7, 6


def old_gelu_backward(x, g):
    """The GELU backward rule from before the rebuild, kept as an oracle:
    g * (phi + x * dens), phi = 0.5 * (1 + erf(x / sqrt 2)), dens the
    standard normal density at x."""
    out = np.multiply(x, engine._INV_SQRT2)
    engine.erf(out, out=out)
    out += 1.0
    out *= 0.5
    dens = np.multiply(x, -0.5)
    dens *= x
    np.exp(dens, out=dens)
    dens *= engine._INV_SQRT2PI
    dens *= x
    out += dens
    out *= g
    return out


def gelu_input(scale, dtype):
    """GELU_ROWS x GELU_WIDTH normal draws at `scale`, with ±40, 0 and
    ±1e-30 written into the first row."""
    z = rng_for(14).normal(0.0, scale, (GELU_ROWS, GELU_WIDTH))
    z[0, :5] = [40.0, -40.0, 0.0, 1e-30, -1e-30]
    return z.astype(dtype)


def gelu_graph(dtype, z, readers, depth=1):
    """(tape, the GELU input leaf, the outermost GELU, loss, reader
    weights by name): `depth` nested GELUs of a tracked input, the
    outermost read by one node per entry of `readers` ("affine" by a
    trainable weight, "frozen" for a frozen one, or "gelu"), summed into a
    cross-entropy."""
    r = rng_for(15)
    t = Tape()
    x = t.input(z)
    h = x
    for _ in range(depth):
        h = t.gelu(h)
    weights = {}
    outs = []
    for i, reader in enumerate(readers):
        if reader == "gelu":
            outs.append(t.gelu(h))
            continue
        w = weights[f"w{i}"] = r.normal(
            size=(GELU_WIDTH, GELU_WIDTH)).astype(dtype)
        outs.append(t.affine(h, t.param(f"w{i}", w,
                                        trainable=reader == "affine")))
    out = outs[0]
    for other in outs[1:]:
        out = t.add(out, other)
    targets = r.integers(0, GELU_WIDTH, size=GELU_ROWS)
    return t, x, h, t.cross_entropy(out, targets), weights


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
def test_gelu_rebuild_output_equals_the_forward_bit_for_bit(dtype, scale):
    z = gelu_input(scale, dtype)
    out, deriv = engine._gelu_parts(z)
    assert bits(out) == bits(gelu_array(z))
    g = rng_for(16).normal(size=z.shape).astype(dtype)
    deriv *= g
    assert bits(deriv) == bits(old_gelu_backward(z, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("reader", ["affine", "frozen"])
def test_gelu_rebuild_gives_the_saved_output_gradients_bit_for_bit(
        dtype, scale, reader):
    # a trainable reader rebuilds the output and leaves the derivative; a
    # frozen one rebuilds nothing, and GELU's backward forms it itself
    z = gelu_input(scale, dtype)
    t, x, h, loss, weights = gelu_graph(dtype, z, [reader])
    grads = t.backward(loss)
    dz = t.grad_of(x)
    # the forward's output as a leaf, which the matmul saves
    ref = Tape()
    h_ref = ref.input(h.value)
    y_ref = ref.matmul(h_ref, ref.param("w0", weights["w0"],
                                        trainable=reader == "affine"))
    ref_grads = ref.backward(ref.cross_entropy(y_ref, loss.meta["targets"]))
    if reader == "affine":
        assert bits(grads["w0"]) == bits(ref_grads["w0"])
    else:
        assert not grads
    assert bits(dz) == bits(old_gelu_backward(z, ref.grad_of(h_ref)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("readers,depth,dropped", [
    (["affine"], 1, True),
    (["affine", "affine"], 1, True),  # rebuilt once per reader, kept never
    (["frozen"], 1, False),  # a frozen weight's affine saves no x anyway
    (["affine", "gelu"], 1, False),  # the second GELU saves it as input
    (["affine"], 2, True),  # the inner GELU's output is the outer's input
], ids=["one-affine", "two-affines", "frozen", "affine-and-gelu", "nested"])
def test_gelu_output_leaves_the_retained_set_iff_only_affines_rebuild_it(
        monkeypatch, dtype, readers, depth, dropped):
    z = gelu_input(1.0, dtype)
    t, _, h, _, _ = gelu_graph(dtype, z, readers, depth)
    retained = simulate_peak_bytes(t)[1]
    kept = engine._retained_for_backward(t)
    with monkeypatch.context() as patched:
        # the policy without the rebuild: the affine saves its x
        patched.setattr(engine, "_rebuilt_in_backward", lambda node: False)
        saved = simulate_peak_bytes(gelu_graph(dtype, z, readers,
                                               depth)[0])[1]
    assert retained == saved - (h.nbytes if dropped else 0)
    # only a GELU reading it keeps the output
    assert (h.idx in kept) == ("gelu" in readers)
    gelus = [node for node in t.nodes if node.meta.get("fn") == "gelu"]
    # every GELU input is still retained: x, and for "nested" the inner
    # GELU's output
    assert all(node.inputs[0].idx in kept for node in gelus)


def gelu_model_config():
    return ModelConfig(vocab_size=13, max_positions=16, d_model=8,
                       n_heads=2, d_ff=12, n_layers=1, causal=False,
                       n_classes=2)


def ffn_graph(model, x):
    """(tape, loss): layer 0's FFN on a tracked input, projected by a
    constant and summed into a cross-entropy."""
    r = rng_for(18)
    t = Tape()
    h = ffn_block(t, model, 0, t.input(x.astype(model.dtype)))
    proj = t.constant(r.normal(size=(8, 3)).astype(model.dtype))
    targets = r.integers(0, 3, size=x.shape[0])
    return t, t.cross_entropy(t.matmul(h, proj), targets)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tracked_ffn_forward_and_backward_run_erf_twice(monkeypatch, dtype):
    # once in GELU's forward, once where W2's backward rebuilds its
    # output; GELU's backward takes the derivative that pass left
    model = build_model(gelu_model_config(), seed=2, dtype=dtype)
    calls = []
    real_erf = engine.erf

    def counting_erf(*args, **kwargs):
        calls.append(1)
        return real_erf(*args, **kwargs)

    monkeypatch.setattr(engine, "erf", counting_erf)
    t, loss = ffn_graph(model, rng_for(17).normal(size=(GELU_ROWS, 8)))
    grads = t.backward(loss)
    assert len(calls) == 2
    assert {"layers.0.ffn.w1", "layers.0.ffn.w2"} <= set(grads)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_ffn_with_adapters_on_w1_and_w2_matches_finite_differences(dtype):
    # W2 is frozen, so its factor A's gradient is what rebuilds the GELU
    # output; finite differences run on the float64 model, and a float32
    # model's gradients are held to them as float32 backward is elsewhere
    r = rng_for(19)
    model64 = build_model(gelu_model_config(), seed=2, dtype="float64")
    attach(model64, ("w1", "w2"), r=2, alpha=4.0, seed=1)
    for name, arr in model64.params.items():
        if name.endswith(".lora_a"):
            arr *= 14.0
        elif name.endswith(".lora_b"):
            arr += r.normal(0, 0.5, arr.shape)
    x = r.normal(size=(GELU_ROWS, 8))
    model = model64.astype(dtype)
    t, loss = ffn_graph(model, x)
    analytic = t.backward(loss)
    assert sorted(analytic) == sorted(
        f"layers.0.ffn.{w}.lora_{f}" for w in ("w1", "w2") for f in "ab")
    arrays = {name: model64.param(name) for name in sorted(analytic)}

    def loss_value():
        return float(ffn_graph(model64, x)[1].value[0, 0])

    step = 1e-5
    noise_floor = 64.0 * abs(loss_value()) * 2.0 ** -53 / (2.0 * step)
    for name, (coords, values) in finite_diff_grad(loss_value, arrays,
                                                   step=step).items():
        a = analytic[name].astype(np.float64).reshape(-1)[coords]
        if dtype == "float64":
            bound = noise_floor + 1e-6 * np.maximum(np.abs(a), np.abs(values))
            assert np.all(np.abs(a - values) <= bound), name
        else:
            assert relative_error(a, values) < 1e-4, name


# ---- multi-head attention -------------------------------------------------------

def per_head_attention(t, q, k, v, positions, causal, n_heads):
    """The per-head composition that `Tape.attention` records as one node,
    with the additive mask that hides, if `causal`, every key past its
    query's position."""
    head_dim = q.value.shape[1] // n_heads
    later = np.arange(k.value.shape[0])[None, :] > positions[:, None]
    mask_node = t.constant(np.where(later & causal, MASK_VALUE, 0.0))
    outs = []
    for h in range(n_heads):
        cols = np.arange(h * head_dim, (h + 1) * head_dim)
        qh, kh, vh = (t.select_cols(x, cols) for x in (q, k, v))
        scores = t.matmul(t.scale(qh, 1.0 / np.sqrt(head_dim)), kh,
                          transpose_b=True)
        outs.append(t.matmul(t.softmax_rows(t.add(scores, mask_node)), vh))
    return t.concat_cols(outs)


D_ATT = 8


def last_positions(m, n):
    """Query i at key position n - m + i: the last m of n positions."""
    return n - m + np.arange(m)


def default_shape(case):
    return (3, 7) if case != "all-tracked" else (5, 5)


def attention_case(case, n_heads, attend, shape=None, positions=None,
                   causal=True):
    """(tape, output, loss, tracked input leaves by name) for one operand
    pattern, m queries over n keys (`shape`), at the last m positions
    unless `positions` are given; every array is float64."""
    r = rng_for(40)
    m, n = shape or default_shape(case)
    t = Tape()
    if case == "all-tracked":
        q, k, v = (t.input(r.normal(size=(m, D_ATT))) for _ in range(3))
        inputs = {"q": q, "k": k, "v": v}
    elif case == "selected":
        # TokenTune's selected queries: tracked rows of q, k, v from one
        # input, with constant unselected keys and values before them
        x = t.input(r.normal(size=(m, D_ATT)))
        inputs = {"x": x}
        q, k_g, v_g = (t.matmul(x, t.param(name,
                                           r.normal(size=(D_ATT, D_ATT))))
                       for name in ("wq", "wk", "wv"))
        k = t.concat_rows([t.constant(r.normal(size=(n - m, D_ATT))), k_g])
        v = t.concat_rows([t.constant(r.normal(size=(n - m, D_ATT))), v_g])
    else:  # untracked queries over tracked keys and values
        q = t.constant(r.normal(size=(m, D_ATT)))
        k, v = (t.input(r.normal(size=(n, D_ATT))) for _ in range(2))
        inputs = {"k": k, "v": v}
    out = attend(t, q, k, v,
                 last_positions(m, n) if positions is None else positions,
                 causal, n_heads)
    logits = t.matmul(out, t.constant(r.normal(size=(D_ATT, 3))))
    return t, out, t.cross_entropy(logits, r.integers(0, 3, size=m)), inputs


def tracked_grads(t, loss, inputs):
    grads = t.backward(loss)
    grads.update((name, t.grad_of(x)) for name, x in inputs.items())
    return grads


def compare_with_per_head(case, n_heads, **kw):
    """Check `Tape.attention`'s output and gradients against the per-head
    composition; returns the bytes each tape retains for backward (ours,
    the composition's)."""
    ref_tape, ref_out, ref_loss, ref_inputs = attention_case(
        case, n_heads, per_head_attention, **kw)
    tape, out, loss, inputs = attention_case(case, n_heads, Tape.attention,
                                             **kw)
    assert relative_error(out.value, ref_out.value) <= 1e-12
    retained = simulate_peak_bytes(tape)[1], simulate_peak_bytes(ref_tape)[1]
    ref = tracked_grads(ref_tape, ref_loss, ref_inputs)
    ours = tracked_grads(tape, loss, inputs)
    assert sorted(ours) == sorted(ref)
    for name in ref:
        assert relative_error(ours[name], ref[name]) <= 1e-10, name
    return retained


def retained_with_row_statistics(case, n_heads, ref, shape, causal=True):
    """The bytes `Tape.attention` retains for backward, from the per-head
    composition's (`ref`): the composition keeps every head's m x n float64
    probabilities, the node keeps each (head, row)'s softmax max and sum
    and, if causal, the m query positions (8 bytes each) instead. With
    constant queries the node also keeps k, to rebuild the probabilities,
    which the composition never reads."""
    m, n = shape
    keys = n * D_ATT * 8 if case == "untracked-q" else 0
    return (ref - n_heads * m * n * 8 + 2 * n_heads * m * 8
            + (8 * m if causal else 0) + keys)


@pytest.mark.parametrize("n_heads", [1, 4])
@pytest.mark.parametrize("case", ["all-tracked", "selected", "untracked-q"])
def test_attention_matches_the_per_head_composition(case, n_heads):
    ours, ref = compare_with_per_head(case, n_heads)
    assert ours == retained_with_row_statistics(case, n_heads, ref,
                                                default_shape(case))


def row_blocks(m):
    return [(r0, min(r0 + ATTENTION_BLOCK_ROWS, m))
            for r0 in range(0, m, ATTENTION_BLOCK_ROWS)]


@pytest.mark.parametrize("n_heads", [1, 4])
@pytest.mark.parametrize("case,shape", [("all-tracked", (150, 150)),
                                        ("selected", (70, 150)),
                                        ("untracked-q", (70, 150))],
                         ids=["all-tracked-150x150", "selected-70x150",
                              "untracked-q-70x150"])
def test_multi_block_attention_saves_row_stats_not_probs(
        case, shape, n_heads):
    ours, ref = compare_with_per_head(case, n_heads, shape=shape)
    # block skipping changes the work, not what is saved: the statistics
    # and the positions cover every row whatever keys each block reads
    assert len(row_blocks(shape[0])) > 1
    assert ours == retained_with_row_statistics(case, n_heads, ref, shape)


@pytest.mark.parametrize("n_heads", [1, 4])
def test_bidirectional_attention_reads_every_key_and_saves_no_positions(
        n_heads):
    shape = (150, 150)
    ours, ref = compare_with_per_head("all-tracked", n_heads, shape=shape,
                                      causal=False)
    assert ours == retained_with_row_statistics("all-tracked", n_heads, ref,
                                                shape, causal=False)
    out = attention_case("all-tracked", n_heads, Tape.attention,
                         shape=shape, causal=False)[1]
    assert [hi for _, _, hi in out.node.meta["spans"]] == [150] * 3


@pytest.mark.parametrize("n_heads", [1, 4])
def test_keys_past_every_query_are_skipped_and_get_no_weight(n_heads):
    # queries at positions < 140 over 150 keys, rows not in position
    # order: the last block reads keys :140, and keys 140: get no weight
    m = n = 150
    positions = np.arange(m) % 140
    ours, ref = compare_with_per_head("all-tracked", n_heads, shape=(m, n),
                                      positions=positions)
    assert ours == retained_with_row_statistics("all-tracked", n_heads, ref,
                                                (m, n))
    out = attention_case("all-tracked", n_heads, Tape.attention,
                         shape=(m, n), positions=positions)[1]
    assert [hi for _, _, hi in out.node.meta["spans"]] == [64, 128, 140]


@pytest.mark.parametrize("causal", [True, False],
                         ids=["causal", "bidirectional"])
def test_attention_untracked_matches_tracked_and_caches_nothing(causal):
    r = rng_for(41)
    q, k, v = (r.normal(size=(4, D_ATT)) for _ in range(3))
    tracked = Tape()
    out = tracked.attention(*(tracked.input(x) for x in (q, k, v)),
                            np.arange(4), causal, 4)
    untracked = Tape()
    with untracked.no_grad():
        out_ng = untracked.attention(*(untracked.input(x) for x in (q, k, v)),
                                     np.arange(4), causal, 4)
    assert np.array_equal(out.value, out_ng.value)
    # the output alone, the last node
    assert untracked.retained_bytes() == {("", "attention"): 4 * D_ATT * 8}
    # row max and sum per head, if causal the 4 query positions, then q,
    # k, v and the output
    assert out.fresh_bytes == 2 * 4 * 4 * 8 + (4 * 8 if causal else 0)
    assert tracked.retained_bytes() == {("", "attention"): out.fresh_bytes
                                        + 4 * D_ATT * 8,
                                        ("", "input"): 3 * 4 * D_ATT * 8}


def attention_finite_differences(m):
    """(name, analytic, numeric) per operand of a causal m x m attention
    under a summed cross-entropy."""
    r = rng_for(42)
    arrays = {name: r.normal(size=(m, D_ATT)) for name in ("q", "k", "v")}
    w = r.normal(size=(D_ATT, 3))
    targets = r.integers(0, 3, size=m)

    def build():
        t = Tape()
        q, k, v = (t.param(name, arrays[name]) for name in ("q", "k", "v"))
        out = t.attention(q, k, v, np.arange(m), True, 2)
        return t, t.cross_entropy(t.matmul(out, t.constant(w)), targets)

    tape, loss = build()
    analytic = tape.backward(loss)
    numeric = finite_diff_grad(lambda: float(build()[1].value[0, 0]), arrays)
    return [(name, analytic[name].reshape(-1)[coords], values)
            for name, (coords, values) in numeric.items()]


def test_attention_backward_matches_finite_differences():
    for name, analytic, numeric in attention_finite_differences(6):
        assert relative_error(analytic, numeric) < 1e-6, name


def test_attention_backward_matches_finite_differences_over_two_blocks():
    # The 70-row loss (about 77 nats) leaves central differences about
    # 1e-9 of absolute noise, so the error is taken relative to each
    # gradient's largest entry: entries near 1e-6 cannot be resolved.
    for name, analytic, numeric in attention_finite_differences(
            ATTENTION_BLOCK_ROWS + 6):
        err = np.abs(analytic - numeric).max() / np.abs(numeric).max()
        assert err < 1e-6, name


def test_attention_rejects_bad_shapes_and_overflowing_scores():
    t = Tape()
    q = t.input(np.ones((3, D_ATT)))
    kv = t.input(np.ones((5, D_ATT)))
    with pytest.raises(ShapeError) as err:
        t.attention(q, kv, kv, np.arange(3), True, 3)
    assert err.value.op == "attention"
    huge = t.input(np.full((3, D_ATT), 1e200))
    with pytest.raises(NonFiniteError) as err, np.errstate(over="ignore"):
        t.attention(huge, huge, huge, np.arange(3), True, 2)
    assert err.value.op == "attention"


@pytest.mark.parametrize("causal", [True, False],
                         ids=["causal", "bidirectional"])
@pytest.mark.parametrize("positions", [
    np.arange(4),                        # one per key, not per query
    np.arange(2),                        # one short
    np.arange(3).reshape(3, 1),          # 2-D
    np.arange(3.0),                      # float
    np.array([True, False, True]),       # a row of a boolean mask
    np.array([-1, 0, 1]),                # negative
    np.array([2, 3, 5]),                 # past the last of 5 keys
], ids=["long", "short", "2-d", "float", "boolean", "negative", "past-n"])
def test_attention_rejects_positions_that_are_not_one_key_per_query(
        positions, causal):
    t = Tape()
    q = t.input(np.ones((3, D_ATT)))
    kv = t.input(np.ones((5, D_ATT)))
    with pytest.raises(ShapeError) as err:
        t.attention(q, kv, kv, positions, causal, 2)
    assert err.value.op == "attention"
    assert t.nodes[-1] is kv.node  # nothing was recorded
