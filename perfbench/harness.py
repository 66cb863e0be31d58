"""One benchmark run of one workload, in one process.

The loop is closed with one caller: each `Trainer.train_step` starts when
the previous one returns. Warm-up steps run first. The untraced run
installs no wrapper while it times; the memory pass and the traced run
install `tracing.Tracer` wrappers and are never timed for end-to-end
numbers. Every time is calibrated to the reference host speed by
`Reference`.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np

import tokentune as tt
import tokentune.data
import tokentune.engine
import tokentune.model
import tokentune.optimize
import tokentune.partition
import tokentune.selective
import tokentune.verify
from tokentune.config import ModelConfig, TaskConfig, TrainConfig
from tracing import Tracer
from workloads import Workload

#: Share of timed seconds spent in train steps; the rest runs evaluation.
TRAIN_SHARE = 0.75
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
#: Norm-wise relative gradient tolerance of the float64 stop-gradient check.
GRAD_TOL = 1e-10
REGION_KINDS = ("embed", "attn", "ffn", "head")
PATH_SPANS = {"model.affine", "model.norm", "model.ffn", "model.attend_heads"}
FORWARD_SPANS = {"selective.forward", "model.forward"}
#: The reference kernel's wall time in ms at the reference speed: about its
#: time in the fast phases of a shared 2-vCPU Xeon VM at 2.1 GHz, with one
#: BLAS thread and numpy 2.4. Calibrated times read as times at that speed.
REF_MS = 12.5


class Reference:
    """Fixed work whose wall time tracks the host's momentary speed.

    On a shared host the benchmark runs 20-40% slower in phases lasting
    seconds to minutes, with the load of the host's other tenants, which
    moves a run's median step time by more than any regression bound.
    The kernel is timed just before each timed operation (`sample`), and
    once after the last. An operation's calibrated time is its wall time
    times `factor`: REF_MS over the median of the three kernel times
    around it (before the previous operation, just before it, just after
    it), so it reads as its time at the reference speed.

    The kernel is a float32 matmul of the workloads' FFN shape, fresh
    8 MB arrays (page faults and zeroing, as a step's activations cause)
    and an interpreted Python loop. Of the parts tried, these tracked
    both workloads best: over five lm-long-full runs at one busy time,
    the quartile spread of the median step time was 35% of it in wall
    time and 3% in calibrated time (eval throughput: 33% and 4%). A
    softmax and a GELU over activation-sized arrays, and small-array
    numpy calls, tracked them less well and were left out.

    The kernel is the benchmark's own, so a change to tokentune moves
    calibrated times as it moves wall times. What slows the kernel too,
    such as a busy thread left running, is cancelled out.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((512, 256), dtype=np.float32)
        self.b = rng.standard_normal((256, 1024), dtype=np.float32)
        self.out = np.empty((512, 1024), dtype=np.float32)
        self.ms: list[float] = []
        self._kernel()  # the first call pays numpy's lazy set-up

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.matmul(self.a, self.b, out=self.out)
        total = 0
        for i in range(40000):
            total += i
        for _ in range(4):
            _ = np.ones((2048, 1024), dtype=np.float32)
        return (time.perf_counter() - t0) * 1000.0

    def sample(self) -> int:
        """Time the kernel now; returns the sample's index."""
        self.ms.append(self._kernel())
        return len(self.ms) - 1

    def factor(self, idx: int) -> float:
        """REF_MS over the median of sample ``idx`` and its neighbours."""
        return REF_MS / statistics.median(self.ms[max(0, idx - 1):idx + 2])


class Checks:
    """Attempted and failed operations: train steps and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Setup:
    train: list
    test: list
    model: object
    trainer: object
    data_s: float
    model_s: float
    total_s: float


def configs(w: Workload, seed: int, directory):
    """Model, train and task configs. The seed is the train seed and the
    seed of the synthetic corpus, written to ``directory`` and holding
    exactly n_train + n_eval windows."""
    corpus = f"{directory}/corpus.txt"
    with open(corpus, "wb") as fh:
        fh.write(tt.data.synthetic_text((w.n_train + w.n_eval) * w.seq_len,
                                        seed))
    model_cfg = ModelConfig(
        max_positions=w.seq_len, d_model=w.d_model, n_heads=w.n_heads,
        d_ff=w.d_ff, n_layers=w.n_layers, causal=True, n_classes=None)
    train_cfg = TrainConfig(
        regime=w.regime, k=w.k, batch_size=w.batch,
        learning_rate=w.learning_rate, seed=seed, dtype="float32")
    task_cfg = TaskConfig(kind="lm", seq_len=w.seq_len, corpus_path=corpus,
                          eval_windows=w.n_eval)
    return model_cfg, train_cfg, task_cfg


def setup(w: Workload, model_cfg, train_cfg, task_cfg) -> Setup:
    t0 = time.perf_counter()
    train, test = tt.data.build_task_datasets(task_cfg, model_cfg)
    t1 = time.perf_counter()
    model = tt.model.build_model(model_cfg, seed=train_cfg.seed,
                                 dtype=train_cfg.dtype)
    t2 = time.perf_counter()
    trainer = tt.optimize.Trainer(model, train_cfg, task_cfg.kind)
    t3 = time.perf_counter()
    return Setup(train, test, model, trainer, t1 - t0, t2 - t1, t3 - t0)


def batches(train: list, batch: int, seed: int):
    """Endless micro-batches, reshuffled each epoch from the seed."""
    epoch = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C,
                                                            epoch]))
        order = rng.permutation(len(train))
        for start in range(0, len(order) - batch + 1, batch):
            yield [train[j] for j in order[start:start + batch]]
        epoch += 1


def train_once(trainer, batch, checks: Checks, hook=None) -> tuple:
    """(ms, loss) of one step; a failed step reads (nan, nan)."""
    t0 = time.perf_counter()
    try:
        result = trainer.train_step(batch, tape_hook=hook)
    except Exception:  # the loop keeps running; the failure is counted
        traceback.print_exc()
        checks.record(False, f"train step {trainer.micro_step + 1}")
        return float("nan"), float("nan")
    ms = (time.perf_counter() - t0) * 1000.0
    loss = float(result["loss"])
    checks.record(bool(np.isfinite(loss)), f"finite loss, step "
                                            f"{trainer.micro_step}")
    return ms, loss


def eval_once(s: Setup, checks: Checks) -> float:
    """Tokens per second of one `evaluate` pass over the held-out set."""
    tokens = sum(len(ex.seq) for ex in s.test)
    t0 = time.perf_counter()
    result = tt.optimize.evaluate(s.model, s.test, "lm")
    dt = time.perf_counter() - t0
    ok = checks.record(bool(np.isfinite(result["nll"])), "finite eval nll")
    return tokens / dt if ok else float("nan")


def timed_window(s: Setup, stream, checks: Checks, ref: Reference,
                 until: float, min_steps: int, hook=None, add_setup=None,
                 tracer: Tracer | None = None):
    """Train steps with evaluation passes interleaved, so that both see
    the same stretch of machine time; evaluation gets 1 - TRAIN_SHARE of
    it. A `Reference` sample precedes each, and its index goes to a
    ``tracer`` for the spans the operation opens. Returns ([(sample, wall
    ms, loss)] per step, [(sample, wall tokens/s)] per eval pass).

    The host's speed drifts over seconds, so set-up is sampled across the
    window too: ``add_setup``, when given, runs SETUP_REPEATS - 1 times
    at evenly spaced moments, after the set-up made before the window.
    """
    steps, rates = [], []
    train_s = eval_s = 0.0
    setups = 1 if add_setup is not None else SETUP_REPEATS
    start = time.perf_counter()
    while (len(steps) < min_steps or not rates
           or time.perf_counter() < until):
        t0 = time.perf_counter()
        if setups < SETUP_REPEATS and \
                t0 - start >= setups * (until - start) / SETUP_REPEATS:
            add_setup()
            setups += 1
            continue
        idx = ref.sample()
        if tracer is not None:
            tracer.ref_index = idx
        t0 = time.perf_counter()
        if eval_s * TRAIN_SHARE <= train_s * (1.0 - TRAIN_SHARE):
            rates.append((idx, eval_once(s, checks)))
            eval_s += time.perf_counter() - t0
        else:
            ms, loss = train_once(s.trainer, next(stream), checks, hook)
            steps.append((idx, ms, loss))
            train_s += time.perf_counter() - t0
    ref.sample()  # the "just after" sample of the last operation
    return steps, rates


def finite(values) -> list[float]:
    return [v for v in values if np.isfinite(v)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): p90, or the highest
    percentile with at least 10 samples beyond it, and never below p50."""
    n = len(samples)
    q = max(50.0, min(90.0, 100.0 * (n - 10) / n))
    value = float(np.percentile(samples, q))
    return value, q, int(sum(x > value for x in samples))


def norm_rel_err(got: dict, ref: dict) -> float:
    """Worst per-parameter ||got - ref|| / max(||got||, ||ref||, floor),
    with verify's 1e-8 elementwise floor scaled to the parameter's size.

    `verify.grads_max_rel_err` is elementwise; at d=256, n=512 its worst
    entries are gradients of ~1e-9 whose float64 rounding alone reads
    ~1e-10, so the norm-wise error is the gate and the elementwise one is
    reported beside it.
    """
    if not got or set(got) != set(ref):
        return float("inf")
    worst = 0.0
    for name, g in got.items():
        r = ref[name]
        scale = max(np.linalg.norm(g), np.linalg.norm(r),
                    tt.verify.REL_FLOOR * np.sqrt(g.size))
        worst = max(worst, float(np.linalg.norm(g - r) / scale))
    return worst


def gradient_check(s: Setup) -> tuple[float, float]:
    """(norm-wise, elementwise) relative error, in float64, of one
    example's selective gradients against the stop-gradient reference."""
    model64 = s.model.astype(np.float64)
    example = s.train[0]
    partition = s.trainer.partition_for(example.seq, 0)
    tape = tt.engine.Tape()
    split = tt.selective.tokentune_forward(tape, model64, example.seq,
                                           partition)
    loss = tt.selective.loss_lm(tape, model64, split, example.targets)[0]
    got = tape.backward(loss)
    del tape, split, loss
    ref = tt.verify.stopgrad_reference_backward(model64, example.seq,
                                                partition,
                                                ("lm", example.targets))
    return norm_rel_err(got, ref), tt.verify.grads_max_rel_err(got, ref)


def region_kind(label: str) -> str:
    return label.rsplit(".", 1)[-1] if label else "none"


def memory_pass(s: Setup, batch, full_trace: bool) -> dict:
    """`tracemalloc` over one train step: peak above the pre-step
    baseline, bytes live at the first example's backward entry, and with
    ``full_trace`` measured forward bytes per region."""
    gc.collect()
    tracer = Tracer(measure_memory=True)
    only = None if full_trace else {"engine.backward"}
    tracemalloc.start()
    try:
        with tracer.installed(tt, only):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            s.trainer.train_step(batch)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    first_backward = tracer.named("engine.backward")[0]
    out = {"peak_bytes": peak,
           "activation_bytes": first_backward.mem_start - base}
    if full_trace:
        regions: dict[str, int] = {}
        for span in tracer.named("region"):
            if span.end <= first_backward.start:
                label = span.attrs["label"]
                regions[label] = (regions.get(label, 0)
                                  + span.mem_end - span.mem_start)
        out["region_bytes"] = regions
        out["accounted"] = tracer.named("engine.simulate_peak")[0].attrs
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def step_totals(tracer: Tracer, steps: list[int], predicate) -> list[float]:
    """Per train step, the summed calibrated ms of spans under it that
    match."""
    totals = {idx: 0.0 for idx in steps}
    for span in tracer.spans:
        if span.root in totals and span.name != "optimize.train_step" \
                and predicate(span):
            totals[span.root] += tracer.scaled_ms(span)
    return [totals[idx] for idx in steps]


def traced_metrics(tracer: Tracer, s: Setup, w: Workload,
                   ledger: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced steps and eval."""
    steps = [i for i, sp in enumerate(tracer.spans)
             if sp.name == "optimize.train_step"]
    child_ms = {idx: 0.0 for idx in steps}
    for span in tracer.spans:
        if span.parent in child_ms:
            child_ms[span.parent] += span.ms
    self_ms = [(tracer.spans[i].ms - child_ms[i]) * tracer.factor_of(i)
               for i in steps]

    def per_step(name):
        return median_or_zero(step_totals(tracer, steps,
                                          lambda sp: sp.name == name))

    def path_ms(grad: bool) -> float:
        def top_path_span(sp):
            return (sp.name in PATH_SPANS and sp.attrs["grad"] == grad
                    and tracer.spans[sp.parent].name not in PATH_SPANS
                    and tracer.has_ancestor(sp, FORWARD_SPANS))
        return median_or_zero(step_totals(tracer, steps, top_path_span))

    def region_ms(kind: str) -> float:
        def match(sp):
            return sp.name == "region" and \
                region_kind(sp.attrs["label"]) == kind
        return median_or_zero(step_totals(tracer, steps, match))

    examples = len(steps) * w.batch
    train_spans = [sp for sp in tracer.spans if sp.root in child_ms]
    attend_calls = sum(sp.name == "model.attend_heads" for sp in train_spans)
    selects = [sp.attrs for sp in train_spans
               if sp.name == "partition.select"]
    tokens_seen = examples * w.seq_len
    grad_tokens = sum(a["k"] for a in selects) if w.selective \
        else tokens_seen
    eval_ms = [tracer.scaled_ms(sp)
               for sp in tracer.named("optimize.eval_hidden")
               if sp.root not in child_ms]
    itemsize = np.dtype(s.model.dtype).itemsize
    peaks = [sp.attrs for sp in train_spans
             if sp.name == "engine.simulate_peak"]
    metrics = {
        "optimize.adam_ms": per_step("optimize.adam_step"),
        "optimize.step_self_ms": median_or_zero(self_ms),
        "optimize.eval_ms_per_example": median_or_zero(eval_ms),
        "selective.forward_ms": per_step("selective.forward"),
        "selective.selected_path_ms": path_ms(True),
        "selective.unselected_path_ms": path_ms(False),
        "model.forward_ms": per_step("model.forward"),
        "model.attend_heads_ms": per_step("model.attend_heads"),
        "model.attend_heads_calls": attend_calls / examples,
        "model.loss_ms": per_step("model.loss"),
        "engine.backward_ms": per_step("engine.backward"),
        "engine.nodes_per_example": ledger["nodes"] / ledger["examples"],
        "engine.simulate_peak_ms": per_step("engine.simulate_peak"),
        "engine.ledger_ms": per_step("engine.ledger"),
        "engine.ledger_bytes": ledger["elements"] * itemsize
        / ledger["examples"],
        "engine.accounted_peak_bytes": median_or_zero(p["peak"]
                                                      for p in peaks),
        "engine.accounted_retained_bytes": median_or_zero(p["retained"]
                                                          for p in peaks),
        "partition.select_ms": per_step("partition.select"),
        "partition.grad_token_share": grad_tokens / tokens_seen,
        "adapters.trainable_elements": s.model.trainable_elements(),
        "optimize.adam_state_bytes": s.trainer.state.element_count()
        * itemsize,
    }
    for kind in REGION_KINDS:
        metrics[f"model.region_ms.{kind}"] = region_ms(kind)
        metrics[f"engine.ledger_bytes.{kind}"] = (
            ledger["by_kind"].get(kind, 0) * itemsize / ledger["examples"])
    info = {"traced_steps": len(steps), "traced_examples": examples,
            "grad_tokens": grad_tokens, "tokens_seen": tokens_seen,
            "eval_hidden_calls": len(eval_ms)}
    return metrics, info


class LedgerHook:
    """Tape hook for traced steps: node count and the per-region ledger."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stats = {"examples": 0, "nodes": 0, "elements": 0,
                      "by_kind": {}, "by_label": {}}

    def __call__(self, tape) -> None:
        with self.tracer.span("bench.hook"):
            st = self.stats
            st["examples"] += 1
            st["nodes"] += len(tape.nodes)
            for (label, _op), count in tape.cache_breakdown().items():
                kind = region_kind(label)
                st["by_kind"][kind] = st["by_kind"].get(kind, 0) + count
                st["by_label"][label] = st["by_label"].get(label, 0) + count
                st["elements"] += count


def run(w: Workload, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    """One run; returns the result object the benchmark prints last."""
    checks = Checks()
    model_cfg, train_cfg, task_cfg = configs(w, seed, workdir)
    ref = Reference()
    setups = []  # (sample, data s, model s, total s) per set-up

    def add_setup() -> Setup:
        idx = ref.sample()
        fresh = setup(w, model_cfg, train_cfg, task_cfg)
        setups.append((idx, fresh.data_s, fresh.model_s, fresh.total_s))
        return fresh

    def calibrated_setup(column: int) -> float:
        return statistics.median(t[column] * ref.factor(t[0])
                                 for t in setups)

    def calibrated_ms(steps) -> list[float]:
        return finite(ms * ref.factor(idx) for idx, ms, _ in steps)

    s = add_setup()
    stream = batches(s.train, w.batch, seed)

    first_loss = train_once(s.trainer, next(stream), checks)[1]
    for _ in range(w.warmup_steps - 1):
        train_once(s.trainer, next(stream), checks)
    start = time.perf_counter()
    info: dict = {"seed": seed, "trace": int(trace)}
    if not trace:
        timed, eval_rates = timed_window(s, stream, checks, ref,
                                         start + seconds, w.loss_steps,
                                         add_setup=add_setup)
        step_ms = calibrated_ms(timed)
        p90, q, beyond = tail(step_ms)
        window = [loss for _, _, loss in
                  timed[w.loss_steps - w.loss_window:w.loss_steps]]
        loss_final = float(np.mean(window))
        checks.record(bool(loss_final < first_loss),
                      f"loss_final {loss_final} < first loss {first_loss}")
        mem = memory_pass(s, next(stream), full_trace=False)
        metrics = {
            "step_ms_p50": float(statistics.median(step_ms)),
            "step_ms_p90": p90,
            "train_tokens_per_s": len(step_ms) * w.batch * w.seq_len
            / (sum(step_ms) / 1000.0),
            "eval_tokens_per_s": float(statistics.median(
                finite(rate / ref.factor(idx) for idx, rate in eval_rates))),
            "peak_bytes": mem["peak_bytes"],
            "activation_bytes": mem["activation_bytes"],
            "loss_final": loss_final,
            "setup_s": calibrated_setup(3),
        }
        info.update(timed_steps=len(step_ms), step_ms_p90_percentile=q,
                    step_ms_p90_beyond=beyond, eval_passes=len(eval_rates),
                    first_loss=first_loss,
                    wall_step_ms_p50=statistics.median(
                        finite(ms for _, ms, _ in timed)),
                    wall_eval_tokens_per_s=statistics.median(
                        finite(rate for _, rate in eval_rates)))
    else:
        plain, _ = timed_window(s, stream, checks, ref, start + seconds / 2,
                                1, add_setup=add_setup)
        tracer = Tracer(factor=ref.factor)
        hook = LedgerHook(tracer)
        with tracer.installed(tt):
            traced, _ = timed_window(s, stream, checks, ref,
                                     start + seconds, 1, hook,
                                     tracer=tracer)
        plain_p50 = statistics.median(calibrated_ms(plain))
        traced_p50 = statistics.median(calibrated_ms(traced))
        metrics, layer_info = traced_metrics(tracer, s, w, hook.stats)
        mem = memory_pass(s, next(stream), full_trace=True)
        by_kind = {k: 0 for k in REGION_KINDS}
        for label, nbytes in mem["region_bytes"].items():
            by_kind[region_kind(label)] = by_kind.get(region_kind(label), 0) \
                + nbytes
        retained = mem["accounted"]["retained"]
        metrics.update({
            "trace_overhead": traced_p50 / plain_p50,
            "mem.measured_over_accounted": mem["activation_bytes"] / retained,
            "data.build_s": calibrated_setup(1),
            "model.build_s": calibrated_setup(2),
        })
        for kind in REGION_KINDS:
            metrics[f"mem.region_bytes.{kind}"] = by_kind[kind]
        info.update(layer_info)
        info.update(untraced_steps=len(plain), untraced_step_ms_p50=plain_p50,
                    traced_step_ms_p50=traced_p50,
                    measured_activation_bytes=mem["activation_bytes"],
                    accounted_retained_bytes=retained,
                    mem_region_bytes=mem["region_bytes"],
                    ledger_bytes_by_region={
                        k: v * np.dtype(s.model.dtype).itemsize
                        / hook.stats["examples"]
                        for k, v in hook.stats["by_label"].items()})

    if w.selective:
        err, elementwise = gradient_check(s)
        info["stopgrad_norm_rel_err"] = err
        info["stopgrad_elementwise_rel_err"] = elementwise
        checks.record(err <= GRAD_TOL,
                      f"stop-gradient reference rel err {err} <= {GRAD_TOL}")
    info.update(ref_ms=REF_MS, ref_samples=len(ref.ms),
                ref_wall_ms_p50=statistics.median(ref.ms),
                ref_wall_ms_range=[min(ref.ms), max(ref.ms)],
                wall_setup_s=statistics.median(t[3] for t in setups))
    info.update(setups=len(setups), attempted=checks.attempted,
                failed=checks.failed,
                failed_share=checks.failed / checks.attempted,
                failures=checks.failures)
    return {"info": info, "correct": checks.failed == 0,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": metrics}
