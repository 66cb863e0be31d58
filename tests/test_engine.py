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
                              BackwardError, EngineError, NonFiniteError,
                              ShapeError, Tape, gelu_array,
                              simulate_peak_bytes)
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
    # both operands, whose first keeper is the matmul, and the output,
    # which backward would start from
    assert t.retained_bytes() == {("", "matmul"): (6 + 12 + 8) * 8}


def test_matmul_in_disabled_scope_same_values_zero_cache():
    t1 = Tape()
    out1 = t1.matmul(t1.input(np.ones((2, 3))), t1.input(np.ones((3, 4))))
    t2 = Tape()
    with t2.no_grad():
        out2 = t2.matmul(t2.input(np.ones((2, 3))), t2.input(np.ones((3, 4))))
    assert np.array_equal(out1.value, out2.value)
    assert out2.retains == () and out2.fresh_bytes == 0
    # the output alone: it is the last node, which backward would start from
    assert t2.retained_bytes() == {("", "matmul"): 8 * 8}


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
    assert Tape().retained_bytes() == {}


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
        return sum(t.retained_bytes().values())

    # the GELU's output (the last node); then w and the GELU's input; then x
    assert (cached(False, False), cached(True, False), cached(True, True)) \
        == (16 * 8, (16 + 16 + 16) * 8, (16 + 16 + 16 + 16) * 8)


def test_param_saves_are_not_charged_to_the_activation_ledger():
    t = Tape()
    x = t.input(np.ones((2, 3)))
    w = t.param("w", np.ones((3, 4)), trainable=False)
    out = t.matmul(x, w)
    # only w is saved (for dL/dx); it is a parameter, so only the output
    # (the last node) is charged
    assert out.retains == (w.idx,)
    assert t.retained_bytes() == {("", "matmul"): 2 * 4 * 8}


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
        return out.value, sum(tape.retained_bytes().values())

    v_off, c_off = run(Tape())
    v_on, c_on = run(_CacheUntrackedTape())
    assert np.array_equal(v_off, v_on)
    # the GELU's output (the last node); with the mutant also the matmul's
    # output, which the GELU saves (no matmul operand needs a gradient)
    assert (c_off, c_on) == (9 * 8, (9 + 9) * 8)


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


def affine_readers(dtype, source, trains, record, scaling=2.0):
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
                          trains == "factors"), scaling)
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


@pytest.mark.parametrize("trains", ["lora-w", "factors"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_off_a_power_of_two_scaling_matches_its_chain_to_rounding(
        dtype, trains):
    # the backward scales the rank-wide products, where the chain scales
    # g: exact, so bit for bit, only for a power-of-two scaling
    t, leaf, _, outs, loss = affine_readers(dtype, "input", trains,
                                            Tape.affine, scaling=1.75)
    ref, ref_leaf, _, ref_outs, ref_loss = affine_readers(
        dtype, "input", trains, chain_affine, scaling=1.75)
    for got, want in zip(outs, ref_outs):
        assert bits(got.value) == bits(want.value)
    grads, ref_grads = t.backward(loss), ref.backward(ref_loss)
    # to rounding: within 50 units in the last place of the largest entry
    tol = 50 * np.finfo(dtype).eps
    pairs = [(grads[name], ref_grads[name]) for name in grads]
    for got, want in pairs + [(t.grad_of(leaf), ref.grad_of(ref_leaf))]:
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


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


@pytest.mark.parametrize("idx", [[1, 3, 1, 1, 0, 3], [4, 0, 2, 1],
                                 slice(1, 4)],
                         ids=["repeated", "distinct", "slice"])
def test_select_rows_backward_scatters_like_add_at(idx):
    r = rng_for(13)
    x = r.normal(size=(5, 3))
    targets = r.integers(0, 3, size=x[idx].shape[0])
    direct = Tape()
    rows = direct.input(x[idx])
    direct.backward(direct.cross_entropy(rows, targets))
    expected = np.zeros_like(x)
    np.add.at(expected, idx, direct.grad_of(rows))
    t = Tape()
    grads = t.backward(t.cross_entropy(t.select_rows(t.param("x", x), idx),
                                       targets))
    assert np.array_equal(grads["x"], expected)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_concat_rows_at_rows_equals_concat_then_reorder(seed, n, cut):
    # part i at rows[i] in one node is the stacked parts reordered by the
    # argsort of their rows, bit for bit in value and in gradient
    r = rng_for(seed)
    perm = r.permutation(n)
    rows = (np.sort(perm[:cut % n]), np.sort(perm[cut % n:]))
    x = r.normal(size=(n, 3))
    targets = r.integers(0, 3, size=n)

    def run(merge):
        t = Tape()
        parts = [t.param(f"p{i}", x[rows_i]) for i, rows_i in enumerate(rows)]
        out = merge(t, parts)
        return out.value, t.backward(t.cross_entropy(out, targets))

    order = np.argsort(np.concatenate(rows), kind="stable")
    want, want_grads = run(lambda t, parts: t.select_rows(
        t.concat_rows(parts), order))
    got, got_grads = run(lambda t, parts: t.concat_rows(parts, rows))
    assert np.array_equal(got, want)
    assert np.array_equal(got, x)
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert np.array_equal(got_grads[name], want_grads[name])


def test_concat_rows_gives_an_untracked_part_no_gradient(monkeypatch):
    r = rng_for(18)
    t = Tape()
    tracked = t.param("x", r.normal(size=(2, 3)))
    const = t.constant(r.normal(size=(3, 3)))
    out = t.concat_rows([const, tracked], (np.array([0, 2, 4]),
                                           np.array([1, 3])))
    taken = []
    real_accum = Tape._accum

    def recording_accum(grads, node, contrib):
        taken.append((node.idx, contrib.shape))
        real_accum(grads, node, contrib)

    monkeypatch.setattr(Tape, "_accum", staticmethod(recording_accum))
    grads = t.backward(t.cross_entropy(out, [0, 1, 2, 0, 1]))
    assert (const.node.idx, (3, 3)) not in taken
    assert (tracked.node.idx, (2, 3)) in taken
    assert set(grads) == {"x"} and grads["x"].shape == (2, 3)


@pytest.mark.parametrize("rows", [
    ([0, 1, 1], [3, 4]),      # a row twice, 2 missing
    ([0, 1, 2], [3]),         # a part's rows one short, 4 missing
    ([0, 1, 2], [3, 5]),      # past the last row
    ([-1, 1, 2], [3, 4]),     # below 0
    ([0, 1, 2, 3], [4]),      # lengths swapped between the parts
    ([[0, 1, 2]], [3, 4]),    # not 1-D
    ([0.0, 1.0, 2.0], [3, 4]),  # not integers
    ([0, 1, 2],),             # one row set for two parts
], ids=["duplicate", "missing", "past-end", "negative", "wrong-length",
        "2-d", "float", "too-few"])
def test_concat_rows_refuses_rows_that_do_not_place_each_row_once(rows):
    t = Tape()
    parts = [t.input(np.zeros((3, 2))), t.input(np.ones((2, 2)))]
    with pytest.raises(ShapeError, match="concat_rows"):
        t.concat_rows(parts, tuple(np.array(r) for r in rows))


@pytest.mark.parametrize("other", [np.zeros((2, 3)),
                                   np.zeros((2, 2), np.float32)],
                         ids=["width", "dtype"])
def test_concat_rows_refuses_parts_of_another_width_or_dtype(other):
    t = Tape()
    with pytest.raises(ShapeError, match="concat_rows"):
        t.concat_rows([t.input(np.zeros((3, 2))), t.input(other)])


def test_untracked_cross_entropy_equals_tracked_with_one_exp(monkeypatch):
    r = rng_for(19)
    logits = r.normal(size=(5, 7)).astype(np.float32)
    targets = r.integers(0, 7, size=5)
    tracked = Tape()
    want = tracked.cross_entropy(tracked.input(logits), targets)
    exps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            exps.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(engine, "np", CountingNumpy())
    untracked = Tape()
    with untracked.no_grad():
        got = untracked.cross_entropy(untracked.input(logits), targets)
    assert np.array_equal(got.value, want.value)
    assert exps == [logits.shape]
    assert got.retains == () and got.fresh_bytes == 0


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
    (["affine", "gelu"], True, False),  # the GELU rebuilds it as input
    (["affine"], False, True),  # no norm saves to rebuild from
], ids=["one-affine", "three-affines", "affine-and-gelu", "untracked-norm"])
def test_norm_output_leaves_the_retained_set_iff_only_affines_rebuild_it(
        monkeypatch, dtype, readers, tracked_norm, kept):
    t, _, loss, _ = norm_graph(dtype, readers, tracked_norm)
    retained = simulate_peak_bytes(t)[1]
    with monkeypatch.context() as patched:
        # the policy without the rebuild: an affine saves its x, a GELU
        # its input
        patched.setattr(engine, "_rebuilt_in_backward", lambda node: False)
        ref, _, ref_loss, _ = norm_graph(dtype, readers, tracked_norm)
        saved = simulate_peak_bytes(ref)[1]
        ref_grads = ref.backward(ref_loss)
    norm_output = NORM_ROWS * NORM_WIDTH * np.dtype(dtype).itemsize
    assert retained == saved - (0 if kept else norm_output)
    grads = t.backward(loss)
    assert sorted(grads) == sorted(ref_grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name


# ---- GELU output rebuilt in backward --------------------------------------------

GELU_ROWS, GELU_WIDTH = 7, 6


def gelu_backward_oracle(x, g):
    """The tanh-form GELU backward rule on the whole array, in plain numpy,
    kept as an oracle: g * (0.5 (1 + t) + (1 - t * t) p x), with
    t = tanh(c (x + a x^3)) and p = 0.5c (1 + 3a x^2), x^2 capped, in the
    order of operations of the engine's row-block pass, so that neither
    the blocks nor the rebuild may move a bit."""
    c, a = engine._GELU_C, engine._GELU_A
    t = np.tanh((x * x * (a * c) + c) * x)
    p = np.minimum(x * x, engine._GELU_SQUARE_CAP) * (1.5 * a * c) \
        + 0.5 * c
    return (p * (1.0 - t * t) * x + (t + 1.0) * 0.5) * g


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
    assert bits(deriv) == bits(gelu_backward_oracle(z, g))


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
    assert bits(dz) == bits(gelu_backward_oracle(z, ref.grad_of(h_ref)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("readers,depth,dropped", [
    (["affine"], 1, 1),
    (["affine", "affine"], 1, 1),  # rebuilt once per reader, kept never
    (["frozen"], 1, 0),  # a frozen weight's affine saves no x anyway
    (["affine", "gelu"], 1, 1),  # the second GELU rebuilds it as input
    (["affine"], 2, 2),  # and so does the outer GELU its inner's output
], ids=["one-affine", "two-affines", "frozen", "affine-and-gelu", "nested"])
def test_gelu_output_leaves_the_retained_set_iff_only_affines_rebuild_it(
        monkeypatch, dtype, readers, depth, dropped):
    z = gelu_input(1.0, dtype)
    t, x, h, loss, _ = gelu_graph(dtype, z, readers, depth)
    retained = simulate_peak_bytes(t)[1]
    kept = engine._retained_for_backward(t)
    with monkeypatch.context() as patched:
        # the policy without the rebuild: an affine saves its x, a GELU
        # its input
        patched.setattr(engine, "_rebuilt_in_backward", lambda node: False)
        ref, ref_x, _, ref_loss, _ = gelu_graph(dtype, z, readers, depth)
        saved = simulate_peak_bytes(ref)[1]
        ref_grads = ref.backward(ref_loss)
    assert retained == saved - dropped * h.nbytes
    # no reader keeps a GELU's output; only the input leaf x is retained
    gelus = [node for node in t.nodes if node.meta.get("fn") == "gelu"]
    assert {node.idx for node in gelus}.isdisjoint(kept)
    assert x.idx in kept
    grads = t.backward(loss)
    assert sorted(grads) == sorted(ref_grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name
    assert np.array_equal(t.grad_of(x), ref.grad_of(ref_x))


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
def test_tracked_ffn_forward_and_backward_run_the_gelu_pass_twice(
        monkeypatch, dtype):
    # once in GELU's forward (value only), once where W2's backward
    # rebuilds its output (value and derivative); GELU's backward takes
    # the derivative that pass left
    model = build_model(gelu_model_config(), seed=2, dtype=dtype)
    calls = []
    real_pass = engine._gelu_pass

    def counting_pass(x, derivative, *rest):
        calls.append(derivative)
        return real_pass(x, derivative, *rest)

    monkeypatch.setattr(engine, "_gelu_pass", counting_pass)
    t, loss = ffn_graph(model, rng_for(17).normal(size=(GELU_ROWS, 8)))
    grads = t.backward(loss)
    assert calls == [False, True]
    assert {"layers.0.ffn.w1", "layers.0.ffn.w2"} <= set(grads)


def test_gelu_derivative_matches_central_differences_of_the_value():
    # relative to the derivative's largest magnitude: in the negative tail
    # 1 + tanh(u) cancels (as 1 + erf did), so there the value, and any
    # difference quotient of it, is exact only to about 1e-16 absolute
    x = np.linspace(-10.0, 10.0, 21 * 101).reshape(21, 101)
    step = 1e-5
    fd = (gelu_array(x + step) - gelu_array(x - step)) / (2 * step)
    deriv = engine._gelu_parts(x)[1]
    assert np.abs(deriv - fd).max() <= 1e-8 * np.abs(fd).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_pass_is_bit_equal_whole_or_in_row_blocks(monkeypatch, dtype):
    z = rng_for(20).normal(0.0, 3.0, (37, 50)).astype(dtype)
    z[0, :5] = [40.0, -40.0, 0.0, 1e-30, -1e-30]
    monkeypatch.setattr(engine, "GELU_BLOCK_BYTES", z.nbytes)
    whole = engine._gelu_parts(z)
    whole_value = gelu_array(z)
    # blocks of 5 rows, the last of 2
    monkeypatch.setattr(engine, "GELU_BLOCK_BYTES", 5 * z[:1].nbytes)
    blocked = engine._gelu_parts(z)
    # in place: each block formed in scratch, then written over z's,
    # with the derivative too (as a rebuild of a tracked GELU forms them)
    over = z.copy()
    assert gelu_array(over, in_place=True) is over
    parts_over = z.copy()
    value, deriv = engine._gelu_pass(parts_over, True, in_place=True)
    assert value is parts_over
    assert bits(whole_value) == bits(whole[0]) == bits(blocked[0]) \
        == bits(gelu_array(z)) == bits(over) == bits(value)
    assert bits(whole[1]) == bits(blocked[1]) == bits(deriv)


def test_gelu_writes_in_place_only_over_an_untracked_input():
    t = Tape()
    x = t.input(np.ones((2, 3)))
    with pytest.raises(EngineError):
        t.gelu(x, in_place=True)
    with t.no_grad():
        out = t.gelu(t.add(x, x), in_place=True)
    assert not out.requires_grad
    assert bits(out.value) == bits(gelu_array(np.full((2, 3), 2.0)))


@pytest.mark.parametrize("dtype,big", [
    (np.float32, [1e14, 1e20, 3e38]),  # a x^3 overflows; then x^2 too
    (np.float64, [1e104, 1e200, 1e308]),
], ids=["float32", "float64"])
def test_gelu_saturates_where_its_polynomial_overflows(dtype, big):
    # tanh(u) is +-1 there, so the value is x or 0 and the derivative 1
    # or 0; (1 - tanh(u)^2) * inf would be NaN, where erf's form gave 0
    x = np.array([big, [-b for b in big]], dtype=dtype)
    with np.errstate(over="ignore"):  # numpy's warning of x^2 or x^3
        value, deriv = engine._gelu_parts(x)
        forward = gelu_array(x)
    assert bits(forward) == bits(value)
    assert np.array_equal(value[0], x[0]) and not value[1].any()
    assert (deriv[0] == 1.0).all() and not deriv[1].any()


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
    probabilities, the node keeps each (head, row)'s log-sum-exp and, if
    causal, the m query positions (8 bytes each) instead. With constant
    queries the node also keeps k, to rebuild the probabilities, which the
    composition never reads."""
    m, n = shape
    keys = n * D_ATT * 8 if case == "untracked-q" else 0
    return (ref - n_heads * m * n * 8 + n_heads * m * 8
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
    # a log-sum-exp per head and row, if causal the 4 query positions,
    # then q, k and v, whose first keeper is the attention, and the output
    assert out.fresh_bytes == 4 * 4 * 8 + (4 * 8 if causal else 0)
    assert tracked.retained_bytes() == {("", "attention"): out.fresh_bytes
                                        + 4 * 4 * D_ATT * 8}


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


#: Where the one non-finite score lies, as (causal, query row, key), for
#: queries at positions 4 and 5 over 6 keys: a causal block of them
#: masks only its diagonal tile, keys 4:6.
BAD_SCORE_AT = {"causal-tile": (True, 1, 5), "causal-masked": (True, 0, 5),
                "causal-left-of-tile": (True, 0, 1),
                "bidirectional": (False, 0, 5)}


@pytest.mark.parametrize("at", sorted(BAD_SCORE_AT))
@pytest.mark.parametrize("bad", ["+inf", "-inf", "nan"])
def test_attention_refuses_a_non_finite_score(bad, at):
    # float64 overflow makes the one score: 1e200 * 1e200 is inf, and
    # inf + -inf is nan; every other score is 0
    causal, row, key = BAD_SCORE_AT[at]
    big = 1e200
    q, k = np.zeros((2, D_ATT)), np.zeros((6, D_ATT))
    q[row, :2] = big
    k[key, :2] = {"+inf": (big, big), "-inf": (-big, -big),
                  "nan": (big, -big)}[bad]
    t = Tape()
    with pytest.raises(NonFiniteError) as err, \
            np.errstate(over="ignore", invalid="ignore"):
        t.attention(t.constant(q), t.constant(k),
                    t.constant(np.ones((6, D_ATT))), np.array([4, 5]),
                    causal, 2)
    assert err.value.op == "attention"
    assert "scores of rows 0:2" in str(err.value)


#: Parts of a 150-row key (and value) concat, as (tracked, row count):
#: the parts' rows split a permutation of the positions.
KEY_PARTS = {"untracked-tracked": ((False, 80), (True, 70)),
             "untracked-two-tracked": ((False, 60), (True, 50), (True, 40)),
             "two-tracked": ((True, 90), (True, 60))}


@pytest.mark.parametrize("case", sorted(KEY_PARTS))
def test_attention_hands_key_and_value_rows_straight_to_tracked_parts(
        case, monkeypatch):
    # a TokenTune layer's attention: queries at the tracked positions,
    # causal, over keys and values joined from parts at their positions;
    # each tracked part gets the rows a dense n x d gradient would give
    # it, and neither the concat nor an untracked part gets anything
    r = rng_for(43)
    n = 150
    order = r.permutation(n)
    bounds = np.cumsum([0] + [size for _, size in KEY_PARTS[case]])
    rows = [np.sort(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    tracked = [flag for flag, _ in KEY_PARTS[case]]
    positions = np.sort(np.concatenate(
        [rs for rs, flag in zip(rows, tracked) if flag]))
    qv, kv, vv = (r.normal(size=(len(positions) if x == "q" else n, D_ATT))
                  for x in "qkv")
    w = r.normal(size=(D_ATT, 3))
    targets = r.integers(0, 3, size=len(positions))

    def run(keys_and_values):
        t = Tape()
        q = t.input(qv)
        k, v, leaves = keys_and_values(t)
        out = t.attention(q, k, v, positions, True, 2)
        loss = t.cross_entropy(t.matmul(out, t.constant(w)), targets)
        return t, loss, q, k, v, leaves

    def dense(t):
        k, v = t.input(kv), t.input(vv)
        return k, v, (k, v)

    def joined(t):
        parts = [[t.input(x[rs]) if flag else t.constant(x[rs])
                  for rs, flag in zip(rows, tracked)] for x in (kv, vv)]
        return (t.concat_rows(parts[0], rows), t.concat_rows(parts[1], rows),
                parts)

    t, loss, q_dense, k_dense, v_dense, _ = run(dense)
    t.backward(loss)
    want = {"q": t.grad_of(q_dense), "k": t.grad_of(k_dense),
            "v": t.grad_of(v_dense)}

    fed = []
    accum = Tape._accum

    def recording(grads, node, contrib):
        fed.append(node.idx)
        accum(grads, node, contrib)

    t, loss, q, k, v, parts = run(joined)
    monkeypatch.setattr(Tape, "_accum", staticmethod(recording))
    t.backward(loss)
    assert relative_error(t.grad_of(q), want["q"]) <= 1e-12
    assert k.node.idx not in fed and v.node.idx not in fed
    for name, joined_parts in zip("kv", parts):
        for part, rs, flag in zip(joined_parts, rows, tracked):
            if flag:
                # formed from p's columns at the part's rows, the sums
                # round apart from the dense gradient's, so they agree to
                # 1e-12 of the largest entry
                got, rows_of_dense = t.grad_of(part), want[name][rs]
                assert np.abs(got - rows_of_dense).max() \
                    <= 1e-12 * np.abs(rows_of_dense).max(), name
            else:
                assert part.node.idx not in fed, name


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
