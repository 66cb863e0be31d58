"""The traced benchmark wraps tokentune functions by name; each name it
lists must exist, or only the traced benchmark run would notice."""

import importlib.util
import sys
from pathlib import Path

import tokentune
import tokentune.engine
import tokentune.model
import tokentune.optimize
import tokentune.partition
import tokentune.selective

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_tokentune(monkeypatch):
    traced = load_tracing(monkeypatch).traced_functions(tokentune)
    assert traced
    for owner, attr, span, _, _ in traced:
        assert callable(getattr(owner, attr, None)), \
            f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"
