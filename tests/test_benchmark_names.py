"""The traced benchmark wraps tokentune functions by name and its tape
hook reads the tape's breakdown in elements; each name it lists must
exist, and the hook's bytes must be the replay's, or only a traced
benchmark run would notice."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import tokentune
import tokentune.engine
import tokentune.model
import tokentune.optimize
import tokentune.partition
import tokentune.selective
from tokentune.config import ModelConfig, TrainConfig
from tokentune.engine import simulate_peak_bytes
from tokentune.memprofile import build_regime_model, lm_profile_batch
from tokentune.optimize import Trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as the module `name`, as the benchmark's own
    imports (``from tracing import Tracer``) see it."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_tokentune(monkeypatch):
    traced = load_perfbench(monkeypatch, "tracing").traced_functions(tokentune)
    assert traced
    for owner, attr, span, _, _ in traced:
        assert callable(getattr(owner, attr, None)), \
            f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_ledger_hook_elements_are_the_replays_retained_bytes(monkeypatch):
    for name in ("tracing", "workloads"):
        load_perfbench(monkeypatch, name)
    harness = load_perfbench(monkeypatch, "harness")
    hook = harness.LedgerHook(harness.Tracer())
    retained = []

    def both(tape):
        hook(tape)
        retained.append(simulate_peak_bytes(tape)[1])

    n, dtype = 20, "float32"
    cfg = ModelConfig(max_positions=n, d_model=16, n_heads=2, d_ff=64,
                      n_layers=2, causal=True, n_classes=None)
    train = TrainConfig(regime="tokentune", k=5, seed=6, dtype=dtype)
    trainer = Trainer(build_regime_model(cfg, train), train, "lm")
    trainer.train_step(lm_profile_batch(n, 2, seed=6), tape_hook=both)
    assert hook.stats["examples"] == len(retained) == 2
    assert hook.stats["elements"] * np.dtype(dtype).itemsize == sum(retained)
