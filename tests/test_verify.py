"""Oracle machinery: finite differences, the stop-gradient reference, and
mutation sensitivity of the named properties."""

import numpy as np
import pytest

from tokentune import model as model_module
from tokentune.adapters import attach
from tokentune.config import ADAPTER_REGIMES, SELECTIVE_REGIMES, ModelConfig
from tokentune.data import lm_example
from tokentune.engine import ATTENTION_BLOCK_ROWS, Tape, gelu_array
from tokentune.model import build_model
from tokentune.partition import TokenPartition, select_positions
from tokentune.selective import every_position, loss_lm, tokentune_forward
from tokentune.verify import (MUTANTS, PROPERTY_CACHE, PROPERTY_STOPGRAD,
                              PROPERTY_VALUE, _mutant_forward, _StopContext,
                              _selective_backward, _stop_rows,
                              _value_preservation_diff,
                              cache_scaling_check, equivalence_suite,
                              finite_diff_grad, finite_difference_check,
                              grads_max_rel_err, gradcheck_fixture,
                              relative_error, run_gradcheck,
                              stopgrad_reference_backward)


def test_finite_diff_quadratic_loss_gradient_is_theta():
    theta = np.array([[0.3, -1.2, 2.0]])
    arrays = {"theta": theta}

    def loss():
        return float(0.5 * (theta ** 2).sum())

    coords, values = finite_diff_grad(loss, arrays, step=1e-5)["theta"]
    assert relative_error(values, theta.reshape(-1)[coords]) < 1e-10


def test_finite_diff_subsamples_large_arrays_deterministically():
    big = np.zeros((80, 80))
    arrays = {"big": big}

    def loss():
        return float(big.sum())

    a = finite_diff_grad(loss, arrays, step=1e-5, rng_seed=5)["big"]
    b = finite_diff_grad(loss, arrays, step=1e-5, rng_seed=5)["big"]
    assert a[0].size == 256
    assert np.array_equal(a[0], b[0])
    assert np.allclose(a[1], 1.0, atol=1e-9)


def test_fd_check_on_fixture_passes_at_1e6():
    model, seq, partition, loss_spec = gradcheck_fixture()
    report = finite_difference_check(model, seq, partition, loss_spec)
    assert report.passed
    assert report.worst()[1] < 1e-6


def test_fd_check_on_fixture_with_adapters_passes_at_1e6():
    # w_q's and w1's adapters read norm1's and norm2's outputs, which their
    # backward rebuilds from the norms' saves
    from tokentune.adapters import attach
    model, seq, partition, loss_spec = gradcheck_fixture()
    attach(model, ("w1", "w2", "w_q", "w_v"), r=2, alpha=4.0, seed=1)
    # warmed up like the fixture's weights, so no gradient entry sinks
    # into the central differences' noise
    r = np.random.default_rng(5)
    for name, arr in model.params.items():
        if name.endswith(".lora_a"):
            arr *= 14.0
        elif name.endswith(".lora_b"):
            arr += r.normal(0, 0.5, arr.shape)
    report = finite_difference_check(model, seq, partition, loss_spec)
    assert report.passed
    assert report.worst()[1] < 1e-6


def test_frozen_parameter_absent_from_gradstore_but_probed_nonzero():
    from tokentune.adapters import attach
    from tokentune.selective import loss_classification, tokentune_forward
    model, seq, partition, loss_spec = gradcheck_fixture()
    attach(model, ("w_q",), r=2, alpha=4.0, seed=1)
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    grads = tape.backward(loss_classification(tape, model, split,
                                              loss_spec[1]))
    assert "layers.0.attn.w_q" not in grads
    assert "layers.0.attn.w_q.lora_a" in grads

    # the loss itself still depends on the frozen weight: freezing is an
    # optimizer contract, not zero influence
    def loss_value():
        t = Tape()
        with t.no_grad():
            s = tokentune_forward(t, model, seq, partition)
            return float(loss_classification(t, model, s,
                                             loss_spec[1]).value[0, 0])

    probe = {"w_q": model.param("layers.0.attn.w_q")}
    _, values = finite_diff_grad(loss_value, probe, step=1e-5)["w_q"]
    assert np.abs(values).max() > 1e-6


# ---- stop-row machinery -------------------------------------------------------

def test_stop_rows_preserves_values_and_cuts_gradients():
    r = np.random.default_rng(0)
    x = r.normal(size=(4, 3))
    w = r.normal(size=(3, 3))
    tape = Tape()
    # stop rows {1, 3} of a tracked tensor
    h = tape.matmul(tape.constant(x), tape.param("w2", w))
    stopped = _stop_rows(tape, h, np.array([1, 3]), _StopContext())
    assert np.array_equal(stopped.value, h.value)
    loss = tape.matmul(tape.mean_rows(stopped), tape.constant(np.ones((3, 1))))
    grads = tape.backward(loss)
    # rows 1 and 3 contribute nothing: dW2 = x[{0,2}]^T @ upstream
    upstream = np.full((2, 3), 0.25)
    assert np.allclose(grads["w2"], x[[0, 2]].T @ upstream, atol=1e-15)


def test_dense_layer_oracle_matches_closed_form():
    """One dense layer, rows {1} stopped: dW = h_sel^T (dL/da_sel * gelu')
    padded with zeros from the stopped row."""
    r = np.random.default_rng(1)
    h = r.normal(size=(2, 3))
    w = r.normal(size=(3, 3))
    b = r.normal(size=(1, 3))
    tape = Tape()
    wn, bn = tape.param("w", w), tape.param("b", b)
    a = tape.gelu(tape.add(tape.matmul(tape.constant(h), wn), bn))
    a = _stop_rows(tape, a, np.array([1]), _StopContext())
    loss = tape.matmul(tape.mean_rows(a), tape.constant(np.ones((3, 1))))
    grads = tape.backward(loss)

    z = h[:1] @ w + b
    eps = 1e-7
    sigma_prime = (gelu_array(z + eps) - gelu_array(z - eps)) / (2 * eps)
    upstream = np.full((1, 3), 0.5)
    assert relative_error(grads["w"], h[:1].T @ (upstream * sigma_prime)) < 1e-6
    assert relative_error(grads["b"], upstream * sigma_prime) < 1e-6


def test_oracle_equals_plain_backward_when_nothing_stopped():
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=2, causal=False, n_classes=3)
    model = build_model(cfg, seed=21, dtype="float64")
    seq = np.array([1, 3, 8, 2, 11])
    partition = select_positions(5, 5, "classification", rng_seed=0)
    from tokentune.verify import _full_backward
    oracle = stopgrad_reference_backward(model, seq, partition,
                                         ("classification", 2))
    full = _full_backward(model, seq, ("classification", 2))
    assert grads_max_rel_err(oracle, full) < 1e-12


def test_equivalence_suite_default_grid_passes(tmp_path):
    out = tmp_path / "report.jsonl"
    res = equivalence_suite(n_configs=16, seed=0, out_path=out)
    assert res["all_pass"], res["failures"][:2]
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(res["records"])
    import json
    rec = json.loads(lines[0])
    assert {"grid_point", "property", "max_rel_err", "pass"} <= set(rec)


def test_a_case_without_a_selected_target_has_no_gradient_records():
    # case 51 of seed 2 is a language-model case with n = 6, k = 1 and
    # position 5, the last, selected: its selection has no next-token
    # target, so it has no loss to differentiate
    res = equivalence_suite(n_configs=52, seed=2)
    assert res["all_pass"], res["failures"][:2]
    last = [r for r in res["records"] if r["grid_point"]["index"] == 51]
    assert [r["property"] for r in last] == [PROPERTY_VALUE]
    assert last[0]["grid_point"]["k"] == 1
    assert len(res["records"]) == 3 * 52 - 2


def test_mutation_track_unselected_kv_caught_by_stopgrad_property():
    res = equivalence_suite(n_configs=10, seed=0,
                            mutant="track-unselected-kv")
    failed_props = {r["property"] for r in res["failures"]}
    assert PROPERTY_STOPGRAD in failed_props
    assert PROPERTY_VALUE not in failed_props  # values are untouched


def test_mutation_track_unselected_kv_caught_on_a_one_layer_dropped_path():
    # the trainer's forward stops a one-layer model's unselected rows at
    # their keys and values, which still come from the patched builder
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=True, n_classes=None)
    model = build_model(cfg, seed=23, dtype="float64")
    seq = np.random.default_rng(23).integers(0, 13, size=9)
    partition = TokenPartition(selected=np.array([4, 6, 7]),
                               unselected=np.array([0, 1, 2, 3, 5, 8]))
    loss_spec = ("lm", lm_example(seq).targets)
    oracle = stopgrad_reference_backward(model, seq, partition, loss_spec)
    clean = _selective_backward(model, seq, partition, loss_spec)
    assert grads_max_rel_err(clean, oracle) <= 1e-10
    mutated = _selective_backward(model, seq, partition, loss_spec,
                                  "track-unselected-kv")
    assert grads_max_rel_err(mutated, oracle) > 1e-6


def test_mutation_cache_unselected_rows_caught_only_by_ledger():
    res = equivalence_suite(n_configs=10, seed=0,
                            mutant="cache-unselected-rows")
    assert res["all_pass"]  # values and gradients are unaffected
    assert cache_scaling_check("cache-unselected-rows")["pass"] is False
    assert cache_scaling_check(None)["pass"] is True


def test_mutation_mask_from_storage_order_breaks_value_preservation():
    res = equivalence_suite(n_configs=10, seed=0,
                            mutant="mask-from-storage-order")
    failed_props = {r["property"] for r in res["failures"]}
    assert PROPERTY_VALUE in failed_props


def test_run_gradcheck_clean_and_mutated():
    clean = run_gradcheck(n_configs=8, seed=0)
    assert clean["all_pass"] and clean["failed_properties"] == []
    for bug, expected in [
        ("track-unselected-kv", [PROPERTY_STOPGRAD, PROPERTY_CACHE]),
        ("cache-unselected-rows", [PROPERTY_CACHE]),
        ("mask-from-storage-order", [PROPERTY_STOPGRAD, PROPERTY_VALUE]),
    ]:
        rep = run_gradcheck(n_configs=8, seed=0, mutant=bug)
        assert not rep["all_pass"]
        assert rep["failed_properties"] == expected, (bug, rep)


def test_cache_property_is_the_law_and_k_tracked_rows():
    # the clean forward retains the law's bytes at every point, and no
    # tracked op but a concat_rows has more than k rows
    clean = cache_scaling_check(None)["points"]
    assert [(p["n"], p["k"]) for p in clean] \
        == [(8, 3), (16, 3), (24, 3), (12, 2), (12, 4), (12, 6)]
    assert all(p["ledger_bytes"] == p["law_bytes"]
               and p["over_wide_op"] is None for p in clean)
    # tracking the unselected rows' key and value affines keeps the same
    # bytes but makes their n - k rows tracked, seen wherever n - k > k
    kv = cache_scaling_check("track-unselected-kv")["points"]
    assert [p["ledger_bytes"] for p in kv] == [p["law_bytes"] for p in clean]
    assert [p["over_wide_op"] is not None for p in kv] \
        == [p["n"] - p["k"] > p["k"] for p in kv]
    # keeping untracked nodes' saves adds bytes at every point
    rows = cache_scaling_check("cache-unselected-rows")["points"]
    assert all(p["ledger_bytes"] > p["law_bytes"]
               and p["over_wide_op"] is None for p in rows)


def test_gradcheck_prints_the_cache_points_when_the_property_fails(capsys):
    from tokentune.cli import main
    assert main(["gradcheck", "--n-configs", "1",
                 "--inject-bug", "cache-unselected-rows"]) == 1
    out = capsys.readouterr().out
    points = cache_scaling_check("cache-unselected-rows")["points"]
    for p in points:
        assert (f"  cache: n={p['n']} k={p['k']}: ledger {p['ledger_bytes']}"
                f" B, law {p['law_bytes']} B, first over-wide tracked op "
                "None") in out
    assert main(["gradcheck", "--n-configs", "1"]) == 0
    assert "cache:" not in capsys.readouterr().out


def test_mutant_patches_are_scoped_and_names_are_one_list():
    from tokentune import selective
    from tokentune.cli import build_parser
    originals = (selective._unselected_qkv, selective.attend_project)
    for mutant in MUTANTS:
        equivalence_suite(n_configs=2, seed=0, mutant=mutant)
        assert (selective._unselected_qkv, selective.attend_project) \
            == originals, mutant
        args = build_parser().parse_args(["gradcheck", "--inject-bug",
                                          mutant])
        assert args.mutant == mutant
    with pytest.raises(ValueError, match="unknown mutant"):
        equivalence_suite(n_configs=1, seed=0, mutant="no-such-mutant")
    with pytest.raises(ValueError, match="unknown mutant"):
        cache_scaling_check("no-such-mutant")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gradcheck", "--inject-bug",
                                   "no-such-mutant"])


@pytest.mark.parametrize("argv", [["--set", "x=1"], ["--config", "run.json"]])
def test_gradcheck_rejects_config_flags(argv):
    from tokentune.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", *argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("count", ["0", "-5"])
def test_gradcheck_exits_with_code_2_on_no_configurations(capsys, count):
    # a suite of no configuration checks nothing, so it cannot pass
    from tokentune.cli import main
    assert main(["gradcheck", "--n-configs", count]) == 2
    captured = capsys.readouterr()
    assert f"--n-configs {count}" in captured.err
    assert "PASS" not in captured.out


def test_lora_composition_gradients_match_oracle():
    from tokentune.adapters import attach
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=2, causal=True, n_classes=None)
    model = build_model(cfg, seed=31, dtype="float64")
    attach(model, ("w1", "w2", "w_q", "w_v"), r=2, alpha=4.0, seed=1)
    r = np.random.default_rng(2)
    # move B off zero so adapter gradients are nontrivial
    for name, arr in model.params.items():
        if name.endswith(".lora_b"):
            arr += r.normal(0, 0.1, arr.shape)
    n = 7
    seq = r.integers(0, 13, size=n)
    targets = lm_example(seq).targets
    partition = select_positions(n, 3, "lm", rng_seed=4)

    from tokentune.selective import loss_lm, tokentune_forward
    tape = Tape()
    split = tokentune_forward(tape, model, seq, partition)
    loss, _ = loss_lm(tape, model, split, targets)
    tt = tape.backward(loss)
    oracle = stopgrad_reference_backward(model, seq, partition,
                                         ("lm", targets))
    assert set(tt) == set(oracle)
    assert all(".lora_" in name for name in tt)
    assert grads_max_rel_err(tt, oracle) < 1e-10


LONG_N = 2 * ATTENTION_BLOCK_ROWS + 22  # three blocks of query rows


def long_lm_case(k):
    cfg = ModelConfig(vocab_size=19, max_positions=LONG_N, d_model=8,
                      n_heads=2, d_ff=12, n_layers=2, causal=True,
                      n_classes=None)
    model = build_model(cfg, seed=17, dtype="float64")
    ids = np.random.default_rng(5).integers(0, 19, size=LONG_N)
    targets = lm_example(ids).targets
    partition = select_positions(LONG_N, k, "lm", rng_seed=9)
    return model, ids, partition, targets


@pytest.mark.parametrize("k", [70, LONG_N])
def test_tokentune_matches_the_oracle_across_attention_blocks(k):
    model, seq, partition, targets = long_lm_case(k)
    # each tracked attention node saves a float64 log-sum-exp per (head,
    # selected query) and the selected queries' positions, for any
    # selection
    fresh = model.config.n_heads * k * 8 + 8 * k
    other = select_positions(LONG_N, k, "lm", rng_seed=10)
    assert k == LONG_N or not np.array_equal(other.selected,
                                             partition.selected)
    for part in (other, partition):  # backward runs on the last tape
        tape = Tape()
        split = tokentune_forward(tape, model, seq, part)
        loss, _ = loss_lm(tape, model, split, targets)
        attention = [node for node in tape.nodes
                     if node.op == "attention" and node.requires_grad]
        assert len(attention) == model.config.n_layers
        assert [node.fresh_bytes for node in attention] \
            == [fresh] * model.config.n_layers
    tt = tape.backward(loss)
    oracle = stopgrad_reference_backward(model, seq, partition,
                                         ("lm", targets))
    assert set(tt) == set(oracle)
    assert grads_max_rel_err(tt, oracle) <= 1e-10


def test_mask_from_storage_order_still_breaks_values_at_long_lengths():
    model, seq, partition, _ = long_lm_case(70)
    assert _value_preservation_diff(model, seq, partition) < 1e-12
    assert _value_preservation_diff(model, seq, partition,
                                    "mask-from-storage-order") > 1e-6


# ---- feed-forward row blocks with gradients ----------------------------------

#: Rows per feed-forward block in these tests: every tracked FFN below is
#: split, into blocks of at least 4 rows (the real FFN_BLOCK_ROWS needs
#: n > 256)
SMALL_BLOCK_ROWS = 8


def tracked_ffn_blocks(tape):
    """The row blocks of the tracked feed-forward blocks on `tape`: the
    select_rows each tracked W1 affine reads (an untracked one, of an
    untracked norm, when only the affine's adapter trains)."""
    return [node.inputs[0] for node in tape.nodes if node.requires_grad
            and node.op == "affine" and node.label.endswith(".ffn")
            and node.inputs[0].op == "select_rows"]


def blocked_ffn_case(regime):
    """A 40-position LM case, 20 selected in the selective regimes. With
    adapters on w1 and w2 only, layer 0's attention and its second norm
    are untracked, so layer 0's blocks read rows of an untracked norm."""
    n = 40
    cfg = ModelConfig(vocab_size=19, max_positions=n, d_model=8, n_heads=2,
                      d_ff=12, n_layers=2, causal=True, n_classes=None)
    model = build_model(cfg, seed=21, dtype="float64")
    r = np.random.default_rng(21)
    if regime in ADAPTER_REGIMES:
        attach(model, ("w1", "w2"), r=2, alpha=4.0, seed=21)
        for name, arr in model.params.items():  # B starts at zero
            if name.endswith(".lora_b"):
                arr += r.normal(0, 0.1, arr.shape)
    seq = r.integers(0, 19, size=n)
    partition = select_positions(n, 20, "lm", rng_seed=22) \
        if regime in SELECTIVE_REGIMES else every_position(seq)
    return model, seq, partition, ("lm", lm_example(seq).targets)


@pytest.mark.parametrize("regime", ["full", "tokentune", "lora",
                                    "tokentune+lora"])
def test_tracked_ffn_in_row_blocks_matches_the_oracle(monkeypatch, regime):
    monkeypatch.setattr(model_module, "FFN_BLOCK_ROWS", SMALL_BLOCK_ROWS)
    model, seq, partition, loss_spec = blocked_ffn_case(regime)
    blocks = tracked_ffn_blocks(_mutant_forward(model, seq, partition)[0])
    assert {node.label for node in blocks} \
        == {f"layer.{i}.ffn" for i in range(model.config.n_layers)}
    assert len(blocks) == model.config.n_layers \
        * -(-partition.k // SMALL_BLOCK_ROWS)
    assert min(node.shape[0] for node in blocks) >= 4
    tt = _selective_backward(model, seq, partition, loss_spec)
    oracle = stopgrad_reference_backward(model, seq, partition, loss_spec)
    assert set(tt) == set(oracle)
    assert grads_max_rel_err(tt, oracle) <= 1e-10


def test_tracked_ffn_in_row_blocks_passes_the_finite_difference_check(
        monkeypatch):
    # the fixture's warmed weights over 12 positions, 8 selected: two
    # blocks of 4 rows. (The selection of rng_seed 11 leaves one bias
    # gradient near 1e-6, where the check flags the correct gradient with
    # or without blocks, as central differences cannot resolve it.)
    monkeypatch.setattr(model_module, "FFN_BLOCK_ROWS", 4)
    model, _, _, loss_spec = gradcheck_fixture()
    seq = np.array([1, 4, 7, 5, 9, 3, 2, 8, 6, 10, 4, 11])
    partition = select_positions(12, 8, "classification", rng_seed=12)
    blocks = tracked_ffn_blocks(_mutant_forward(model, seq, partition)[0])
    assert [node.shape[0] for node in blocks] == [4, 4]
    report = finite_difference_check(model, seq, partition, loss_spec)
    assert report.passed
    assert report.worst()[1] < 1e-6
