"""Oracles pinning down the selective-backprop semantics.

`stopgrad_reference_backward` is a deliberately naive reference: it runs a
plain, unsplit forward pass and re-enters every unselected-path tensor as a
constant, then differentiates with full tracking. It shares nothing with
the selective pipeline beyond the tape primitives themselves (its own
embedding, affine, attention, mask, and head code), so agreement between
the two is evidence, not tautology. Its `_ref_affine` is the one place an
affine is still recorded as its chain of matmul, scale and add nodes: the
model records each affine as one `Tape.affine` node, whose backward rule
shares no code with those nodes'.

`finite_diff_grad` provides the numeric gradient oracle, and
`equivalence_suite` sweeps random small configurations asserting the three
core properties: value preservation (the selective forward's selected
rows equal the plain forward's rows at those positions), stop-gradient
equivalence, and full-selection identity (the full regime's gradients
against the reference with nothing stopped). `cache_scaling_check` holds
the bytes retained for backward to `memprofile.retained_bytes_law`, and
every tracked op but a concat_rows to k rows. Everything here runs at
float64 with fixed seeds.

`MUTANTS` names deliberately broken pipelines that some property must
catch. Each lives here, as a `Tape` subclass or a scoped patch of the
selective module, applied around the forward under test, never around a
reference.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from . import selective
from .adapters import attach
from .config import ModelConfig
from .data import lm_example
from .engine import MASK_VALUE, Tape
from .memprofile import retained_bytes_law
from .model import (TransformerModel, attend_project, build_model,
                    forward_hidden, norm, param_specs, qkv)
from .partition import SelectionError, TokenPartition, select_positions
from .selective import (every_position, loss_classification, loss_lm,
                        tokentune_forward)

REL_FLOOR = 1e-8
SUBSAMPLE_THRESHOLD = 4096
SUBSAMPLE_COORDS = 256
#: `equivalence_suite` bounds: the largest relative error a value check
#: and a gradient check may show and pass.
VALUE_TOL = 1e-12
GRAD_TOL = 1e-10

PROPERTY_VALUE = "value-preservation"
PROPERTY_STOPGRAD = "stopgrad-equivalence"
PROPERTY_FULL = "full-selection-identity"
PROPERTY_CACHE = "cache-scaling"
PROPERTY_FD = "finite-difference"

MUTANTS = ("track-unselected-kv", "cache-unselected-rows",
           "mask-from-storage-order")


def relative_error(a, b) -> float:
    """max |a-b| / max(|a|, |b|, 1e-8), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)
    if a.size == 0:
        return 0.0
    return float((np.abs(a - b) / denom).max())


def grads_max_rel_err(ga: dict, gb: dict) -> float:
    worst = 0.0
    for name in sorted(set(ga) | set(gb)):
        a = ga.get(name)
        b = gb.get(name)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        worst = max(worst, relative_error(a, b))
    return worst


# ---- finite differences ------------------------------------------------------

def finite_diff_grad(loss_fn, arrays: dict[str, np.ndarray],
                     step: float = 1e-5, rng_seed: int = 0):
    """Central differences per coordinate, in place with exact restore.

    Arrays above SUBSAMPLE_THRESHOLD elements are probed at a fixed-seed
    random subset of SUBSAMPLE_COORDS coordinates. Returns
    {name: (flat coordinates, numeric gradient values)}.
    """
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xFD]))
    out = {}
    for name, arr in arrays.items():
        if arr.size > SUBSAMPLE_THRESHOLD:
            coords = np.sort(rng.choice(arr.size, size=SUBSAMPLE_COORDS,
                                        replace=False))
        else:
            coords = np.arange(arr.size)
        values = np.empty(coords.size, dtype=np.float64)
        flat = arr.reshape(-1)
        for j, c in enumerate(coords):
            orig = flat[c]
            flat[c] = orig + step
            up = loss_fn()
            flat[c] = orig - step
            down = loss_fn()
            flat[c] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise FloatingPointError(
                    f"non-finite loss while probing '{name}' coord {c}")
            values[j] = (up - down) / (2.0 * step)
        out[name] = (coords, values)
    return out


@dataclass
class GradCheckReport:
    tolerance: float
    per_param: dict = field(default_factory=dict)
    passed: bool = True

    def record(self, name, coords, numeric, analytic_flat):
        analytic = analytic_flat[coords]
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           REL_FLOOR)
        rel = np.abs(analytic - numeric) / denom
        worst = int(np.argmax(rel)) if rel.size else 0
        entry = {
            "max_rel_err": float(rel.max()) if rel.size else 0.0,
            "argmax_coord": int(coords[worst]) if rel.size else -1,
            "analytic": float(analytic[worst]) if rel.size else 0.0,
            "numeric": float(numeric[worst]) if rel.size else 0.0,
        }
        self.per_param[name] = entry
        if entry["max_rel_err"] >= self.tolerance:
            self.passed = False

    def worst(self):
        if not self.per_param:
            return None
        name = max(self.per_param, key=lambda n: self.per_param[n]["max_rel_err"])
        return name, self.per_param[name]["max_rel_err"]


def finite_difference_check(model: TransformerModel, seq: np.ndarray,
                            partition: TokenPartition, loss_spec,
                            tolerance: float = 1e-6,
                            step: float = 1e-5) -> GradCheckReport:
    """Selective-pipeline analytic gradients vs central differences of the
    stopped-path loss.

    The selective gradient is, by definition, the exact gradient of the
    loss in which every unselected-path tensor is a constant. Plain finite
    differences of the raw loss would re-derive those tensors under each
    perturbation and measure the method's approximation error instead of
    the implementation's correctness, so the numeric oracle freezes the
    unselected-path tensors at their unperturbed values and differentiates
    that replay (built from this module's independent reference forward).
    """
    if model.dtype != np.float64:
        raise ValueError("gradient checking requires a float64 model")

    analytic = _selective_backward(model, seq, partition, loss_spec)

    capture = _StopContext(capture=[])
    base_tape = Tape()
    with base_tape.no_grad():
        base = float(_reference_forward(base_tape, model, seq, partition,
                                        loss_spec, capture).value[0, 0])
    frozen = capture.capture

    def loss_value() -> float:
        t = Tape()
        with t.no_grad():
            node = _reference_forward(t, model, seq, partition, loss_spec,
                                      _StopContext(frozen=frozen))
        return float(node.value[0, 0])

    if abs(loss_value() - base) > 1e-12 * max(1.0, abs(base)):
        raise AssertionError("frozen replay does not reproduce the loss")

    arrays = dict(model.trainable_arrays())
    numeric = finite_diff_grad(loss_value, arrays, step=step)
    report = GradCheckReport(tolerance=tolerance)
    for name, (coords, values) in numeric.items():
        analytic_flat = analytic.get(name)
        if analytic_flat is None:
            analytic_flat = np.zeros(arrays[name].size)
        report.record(name, coords, values, analytic_flat.reshape(-1))
    return report


# ---- the stop-gradient reference forward/backward ----------------------------

class _StopContext:
    """How unselected rows enter the reference forward: recorded under a
    disabled scope (default), captured for later replay, or substituted
    from a previous capture (the frozen-path loss)."""

    def __init__(self, capture=None, frozen=None):
        self.capture = capture
        self.frozen = frozen
        self._idx = 0

    def stopped_rows(self, tape: Tape, x, rows):
        if self.frozen is not None:
            node = tape.constant(self.frozen[self._idx])
            self._idx += 1
            return node
        with tape.no_grad():
            node = tape.select_rows(x, rows)
        if self.capture is not None:
            self.capture.append(node.value)
        return node


def _stop_rows(tape: Tape, x, rows: np.ndarray, ctx: _StopContext):
    """Re-enter the given rows of x as constants; values are unchanged
    (unless the context substitutes frozen values from a capture)."""
    if rows.size == 0:
        return x
    n = x.value.shape[0]
    keep = np.setdiff1d(np.arange(n), rows)
    kept = tape.select_rows(x, keep)
    stopped = ctx.stopped_rows(tape, x, rows)
    merged = tape.concat_rows([kept, stopped])
    inv = np.argsort(np.concatenate([keep, rows]), kind="stable")
    return tape.select_rows(merged, inv)


def _ref_param(tape: Tape, model: TransformerModel, name: str):
    return tape.param(name, model.param(name), trainable=model.trains(name))


def _ref_affine(tape: Tape, model: TransformerModel, x, w_name,
                b_name=None):
    z = tape.matmul(x, _ref_param(tape, model, w_name))
    if f"{w_name}.lora_a" in model.params:
        a = _ref_param(tape, model, f"{w_name}.lora_a")
        b = _ref_param(tape, model, f"{w_name}.lora_b")
        z = tape.add(z, tape.scale(tape.matmul(tape.matmul(x, a), b),
                                   model.lora_scaling))
    if b_name is not None:
        z = tape.add(z, _ref_param(tape, model, b_name))
    return z


def _ref_mask(n, causal, dtype) -> np.ndarray:
    mask = np.zeros((n, n), dtype=dtype)
    if causal:
        mask[np.triu_indices(n, 1)] = MASK_VALUE
    return mask


def _reference_forward(tape: Tape, model: TransformerModel,
                       seq: np.ndarray, partition: TokenPartition,
                       loss_spec, ctx: _StopContext | None = None):
    """Plain unsplit forward with constant substitution on every tensor the
    unselected path produces; returns the loss node."""
    cfg = model.config
    ctx = ctx or _StopContext()
    n = len(seq)
    stop, keep = partition.unselected, partition.selected
    if partition.n_positions != n:
        raise SelectionError(f"partition of {partition.n_positions} "
                             f"positions for {n} tokens")

    def stopped(x):
        return _stop_rows(tape, x, stop, ctx)

    tok = tape.select_rows(_ref_param(tape, model, "tok_emb"), seq)
    pos = tape.select_rows(_ref_param(tape, model, "pos_emb"), np.arange(n))
    h = stopped(tape.add(tok, pos))

    n_heads = cfg.n_heads
    head_dim = cfg.head_dim
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    mask = tape.constant(_ref_mask(n, cfg.causal, h.value.dtype))

    def norm(x, which, layer):
        base = f"layers.{layer}.norm{which}"
        return tape.layer_norm(x, _ref_param(tape, model, f"{base}.scale"),
                               _ref_param(tape, model, f"{base}.shift"))

    for layer in range(cfg.n_layers):
        base = f"layers.{layer}.attn"
        a = stopped(norm(h, 1, layer))
        q = stopped(_ref_affine(tape, model, a, f"{base}.w_q", f"{base}.b_q"))
        k = stopped(_ref_affine(tape, model, a, f"{base}.w_k", f"{base}.b_k"))
        v = stopped(_ref_affine(tape, model, a, f"{base}.w_v", f"{base}.b_v"))
        heads = []
        for i in range(n_heads):
            cols = np.arange(i * head_dim, (i + 1) * head_dim)
            qh = tape.select_cols(q, cols)
            kh = tape.select_cols(k, cols)
            vh = tape.select_cols(v, cols)
            scores = tape.add(
                tape.matmul(tape.scale(qh, inv_sqrt), kh, transpose_b=True),
                mask)
            probs = stopped(tape.softmax_rows(scores))
            heads.append(tape.matmul(probs, vh))
        mixed = stopped(tape.concat_cols(heads))
        proj = stopped(_ref_affine(tape, model, mixed, f"{base}.w_o",
                                   f"{base}.b_o"))
        h = stopped(tape.add(h, proj))

        fbase = f"layers.{layer}.ffn"
        f_in = stopped(norm(h, 2, layer))
        z1 = stopped(_ref_affine(tape, model, f_in, f"{fbase}.w1",
                                 f"{fbase}.b1"))
        act = stopped(tape.gelu(z1))
        z2 = stopped(_ref_affine(tape, model, act, f"{fbase}.w2",
                                 f"{fbase}.b2"))
        h = stopped(tape.add(h, z2))

    if loss_spec[0] == "classification":
        label = loss_spec[1]
        pooled = tape.mean_rows(tape.select_rows(h, keep))
        hidden = tape.gelu(_ref_affine(tape, model, pooled, "head.w1",
                                       "head.b1"))
        logits = _ref_affine(tape, model, hidden, "head.w2", "head.b2")
        return tape.cross_entropy(logits, [label])
    targets_by_position = np.asarray(loss_spec[1])
    t = targets_by_position[keep]
    valid = t >= 0
    if not valid.any():
        raise ValueError("no selected position has a next-token target")
    rows = keep[valid]
    logits = _ref_affine(tape, model, tape.select_rows(h, rows), "head.w_lm")
    return tape.cross_entropy(logits, t[valid])


def stopgrad_reference_backward(model: TransformerModel, seq: np.ndarray,
                                partition: TokenPartition, loss_spec):
    """Gradients of the reference forward under full tracking."""
    tape = Tape()
    loss = _reference_forward(tape, model, seq, partition, loss_spec)
    return tape.backward(loss)


# ---- property evaluation ------------------------------------------------------

def _random_case(rng, lora: bool, causal: bool):
    n = int(rng.integers(4, 17))
    layers = int(rng.integers(1, 4))
    d = 8
    cfg = ModelConfig(vocab_size=19, max_positions=32, d_model=d, n_heads=2,
                      d_ff=12, n_layers=layers, causal=causal,
                      n_classes=None if causal else 3)
    model = build_model(cfg, seed=int(rng.integers(1 << 30)), dtype="float64")
    if lora:
        attach(model, ("w1", "w2", "w_q", "w_v"), r=2, alpha=4.0,
               seed=int(rng.integers(1 << 30)))
    ids = rng.integers(2, cfg.vocab_size, size=n)
    if not causal:
        ids[0] = 1
    k = int(rng.integers(1, n + 1))
    mode = "lm" if causal else "classification"
    partition = select_positions(n, k, mode, int(rng.integers(1 << 30)))
    if causal:
        loss_spec = ("lm", lm_example(ids).targets)
    else:
        loss_spec = ("classification", int(rng.integers(cfg.n_classes)))
    return model, ids, partition, loss_spec


class _CacheUntrackedTape(Tape):
    """The `cache-unselected-rows` mutant: nodes recorded without
    gradients keep their saves too, so the unselected rows are retained
    for a backward that never reads them (values and gradients are
    unaffected)."""

    def _record(self, op, value, inputs, meta=None, saves=(), rebuilt=(),
                weak=()):
        out = super()._record(op, value, inputs, meta, saves, rebuilt, weak)
        if not out.requires_grad:
            out.node.keep_saves(value, inputs, saves)
        return out


def _tracked_unselected_qkv(tape, model, layer, h_gbar, which="qkv"):
    """The `track-unselected-kv` mutant of `selective._unselected_qkv`:
    the unselected rows' Q/K/V affines are recorded with gradients."""
    with tape.no_grad():
        h_n = norm(tape, model, layer, 1, h_gbar)
    return qkv(tape, model, layer, h_n, which)


def _storage_order_attend_project(tape, model, layer, q, k, v, positions):
    """The `mask-from-storage-order` mutant of `selective.attend_project`:
    each block's query rows are numbered 0, 1, ... instead of by
    position."""
    return attend_project(tape, model, layer, q, k, v,
                          np.arange(len(positions)))


_PATCHES = {
    "track-unselected-kv": ("_unselected_qkv", _tracked_unselected_qkv),
    "mask-from-storage-order": ("attend_project",
                                _storage_order_attend_project)}


def _mutant_forward(model, seq, partition, mutant=None):
    """(tape, split) of the selective forward with `mutant` applied."""
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant '{mutant}'")
    tape = _CacheUntrackedTape() if mutant == "cache-unselected-rows" \
        else Tape()
    with mock.patch.object(selective, *_PATCHES[mutant]) \
            if mutant in _PATCHES else nullcontext():
        return tape, tokentune_forward(tape, model, seq, partition)


def _selective_backward(model, seq, partition, loss_spec, mutant=None):
    """Gradients of the selective forward and its loss."""
    tape, split = _mutant_forward(model, seq, partition, mutant)
    if loss_spec[0] == "classification":
        loss = loss_classification(tape, model, split, loss_spec[1])
    else:
        loss = loss_lm(tape, model, split, loss_spec[1])[0]
    return tape.backward(loss)


def _full_backward(model, seq, loss_spec, mutant=None):
    """The full regime's gradients: every position selected."""
    return _selective_backward(model, seq, every_position(seq), loss_spec,
                               mutant)


def _value_preservation_diff(model, seq, partition, mutant=None) -> float:
    """Max abs difference between the selective forward's selected rows
    and the full forward's (`forward_hidden`, unmutated) rows at the same
    positions. Those are every row a loss, gradient or evaluation reads;
    earlier layers' unselected rows enter them through the keys and
    values the selected queries attend to."""
    plain_tape = Tape()
    with plain_tape.no_grad():
        plain = forward_hidden(plain_tape, model, seq).value
    _, split = _mutant_forward(model, seq, partition, mutant)
    return float(np.abs(plain[partition.selected] - split.h_g.value).max())


def equivalence_suite(n_configs: int = 50, seed: int = 0,
                      mutant: str | None = None,
                      out_path=None) -> dict:
    """Random small configurations x {value preservation, stop-gradient
    equivalence, full-selection identity}; one record per property check.

    A language-model case whose selection has no next-token target has no
    loss, so, as in training, it gets no gradient records."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE001]))
    records = []
    for idx in range(n_configs):
        causal = bool(idx % 2)
        lora = bool((idx // 2) % 2)
        model, seq, partition, loss_spec = _random_case(rng, lora, causal)
        point = {"index": idx, "n": len(seq), "k": partition.k,
                 "layers": model.config.n_layers, "causal": causal,
                 "lora": lora, "mode": loss_spec[0]}

        diff = _value_preservation_diff(model, seq, partition, mutant)
        records.append({"grid_point": point, "property": PROPERTY_VALUE,
                        "max_rel_err": diff, "pass": bool(diff < VALUE_TOL)})
        if loss_spec[0] == "lm" \
                and (loss_spec[1][partition.selected] < 0).all():
            continue

        tt = _selective_backward(model, seq, partition, loss_spec, mutant)
        oracle = stopgrad_reference_backward(model, seq, partition, loss_spec)
        err = grads_max_rel_err(tt, oracle)
        records.append({"grid_point": point, "property": PROPERTY_STOPGRAD,
                        "max_rel_err": err, "pass": bool(err < GRAD_TOL)})

        full = _full_backward(model, seq, loss_spec, mutant)
        oracle = stopgrad_reference_backward(model, seq, every_position(seq),
                                             loss_spec)
        err = grads_max_rel_err(full, oracle)
        records.append({"grid_point": point, "property": PROPERTY_FULL,
                        "max_rel_err": err, "pass": bool(err < GRAD_TOL)})
    failures = [r for r in records if not r["pass"]]
    result = {"records": records, "all_pass": not failures,
              "failures": failures}
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
    return result


def _cache_point(model, n: int, k: int, mutant=None) -> dict:
    """One selective forward as the trainer runs it, and its loss, at n
    positions of which the first k are selected: the bytes its ledger
    retains for backward, the law's bytes, and the first tracked op (not
    a leaf or a concat_rows) with more than k rows, or None."""
    seq = np.r_[1, 2 + np.arange(n - 1) % 7]
    partition = TokenPartition(selected=np.arange(k),
                               unselected=np.arange(k, n))
    tape, split = _mutant_forward(model, seq, partition, mutant)
    loss_classification(tape, model, split, 0)
    intercept, per_position, _ = retained_bytes_law(model.config, n,
                                                    model.dtype.itemsize)
    wide = next((node for node in tape.nodes if node.requires_grad
                 and node.inputs and node.op != "concat_rows"
                 and node.shape[0] > k), None)
    return {"n": n, "k": k,
            "ledger_bytes": sum(tape.retained_bytes().values()),
            "law_bytes": intercept + per_position * k,
            "over_wide_op": None if wide is None else
            f"{wide.label or '-'} {wide.op} ({wide.shape[0]} rows)"}


def cache_scaling_check(mutant: str | None = None) -> dict:
    """At n = 8, 16, 24 with k = 3 and at k = 2, 4, 6 with n = 12, the
    bytes retained for backward must equal
    :func:`memprofile.retained_bytes_law`'s, exactly, and no tracked op
    but a concat_rows (a layer's keys or values, whose unselected rows
    are constants) may have more than k rows: gradients flow through the
    k selected tokens only."""
    cfg = ModelConfig(vocab_size=19, max_positions=64, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=False, n_classes=2)
    model = build_model(cfg, seed=7, dtype="float64")
    points = [_cache_point(model, n, k, mutant) for n, k in
              ((8, 3), (16, 3), (24, 3), (12, 2), (12, 4), (12, 6))]
    ok = all(p["ledger_bytes"] == p["law_bytes"] and p["over_wide_op"] is None
             for p in points)
    return {"property": PROPERTY_CACHE, "pass": ok, "points": points}


def gradcheck_fixture():
    """The fixed tiny configuration for numeric gradient checking.

    A cold 0.02-std init leaves attention gradients around 1e-9, below what
    central differences at step 1e-5 can resolve; warmed-up weights keep
    every coordinate comfortably above the oracle's noise floor while
    avoiding softmax/gelu saturation.
    """
    cfg = ModelConfig(vocab_size=13, max_positions=16, d_model=8, n_heads=2,
                      d_ff=12, n_layers=1, causal=False, n_classes=2)
    model = build_model(cfg, seed=3, dtype="float64")
    r = np.random.default_rng(103)
    for (_, _, init), arr in zip(param_specs(cfg).values(),
                                 model.params.values()):
        if init == "normal":
            arr *= 14.0
        else:
            arr += r.normal(0, 0.2, arr.shape)
    seq = np.array([1, 4, 7, 5, 9, 3])
    partition = select_positions(6, 2, "classification", rng_seed=11)
    return model, seq, partition, ("classification", 1)


def run_gradcheck(n_configs: int = 20, seed: int = 0,
                  mutant: str | None = None) -> dict:
    """The named-property battery behind the gradcheck command."""
    suite = equivalence_suite(n_configs=n_configs, seed=seed,
                              mutant=mutant)
    cache = cache_scaling_check(mutant)

    model, seq, partition, loss_spec = gradcheck_fixture()
    fd = finite_difference_check(model, seq, partition, loss_spec)

    failed = sorted({r["property"] for r in suite["failures"]})
    if not cache["pass"]:
        failed.append(PROPERTY_CACHE)
    if not fd.passed:
        failed.append(PROPERTY_FD)
    worst = fd.worst()
    return {
        "all_pass": not failed,
        "failed_properties": failed,
        "suite_records": len(suite["records"]),
        "suite_failures": suite["failures"][:5],
        "cache": cache,
        "fd_max_rel_err": worst[1] if worst else 0.0,
        "fd_worst_param": worst[0] if worst else None,
    }
