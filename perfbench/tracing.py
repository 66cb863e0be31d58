"""Spans recorded around public tokentune names, from outside the package.

`Tracer.install` replaces each traced function with a wrapper wherever a
tokentune module binds it (a name imported with ``from .model import
affine`` is a second binding of the same object), and `Tracer.uninstall`
puts the originals back. A span is (name, start, end, parent, root,
attrs); ``root`` is the outermost span it ran under, so per-step totals
are sums over the spans that share a train-step root. With
``measure_memory`` each span also records `tracemalloc`'s current bytes
at entry and exit. A root span records the tracer's ``ref_index`` when
it opens; ``factor(ref_index)`` is the host-speed factor that
`scaled_ms` multiplies the times under it by.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    root: int = -1
    attrs: dict = field(default_factory=dict)
    mem_start: int = 0
    mem_end: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _grad_attr(args, kwargs) -> dict:
    # model builders take the tape first; record which path they served.
    return {"grad": bool(args[0].grad_enabled)}


def _partition_note(result) -> dict:
    return {"k": result.k, "n": result.n_positions}


def _peak_note(result) -> dict:
    return {"peak": int(result[0]), "retained": int(result[1])}


def traced_functions(tt):
    """(owner, attribute, span name, attrs-from-args, note-from-result).

    ``tt`` is the imported tokentune package; its submodules are the
    owners of each name.
    """
    return [
        (tt.optimize.Trainer, "train_step", "optimize.train_step", None, None),
        (tt.optimize, "adam_step", "optimize.adam_step", None, None),
        (tt.optimize, "evaluate", "optimize.evaluate", None, None),
        (tt.optimize, "eval_hidden", "optimize.eval_hidden", None, None),
        (tt.selective, "tokentune_forward", "selective.forward", None, None),
        (tt.model, "forward_hidden", "model.forward", None, None),
        (tt.model, "affine", "model.affine", _grad_attr, None),
        (tt.model, "norm", "model.norm", _grad_attr, None),
        (tt.model, "ffn", "model.ffn", _grad_attr, None),
        (tt.model, "attend_heads", "model.attend_heads", _grad_attr, None),
        (tt.model, "loss_lm_rows", "model.loss", None, None),
        (tt.engine.Tape, "backward", "engine.backward", None, None),
        (tt.engine.Tape, "cached_activation_elements", "engine.ledger",
         None, None),
        (tt.engine, "simulate_peak_bytes", "engine.simulate_peak", None,
         _peak_note),
        (tt.partition, "select_positions", "partition.select", None,
         _partition_note),
    ]


class Tracer:
    def __init__(self, measure_memory: bool = False, factor=None):
        self.spans: list[Span] = []
        self.measure_memory = measure_memory
        self.factor = factor or (lambda ref_index: 1.0)
        self.ref_index = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _mem(self) -> int:
        return tracemalloc.get_traced_memory()[0] if self.measure_memory else 0

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else idx
        span = Span(name, 0.0, parent=parent, root=root, attrs=attrs or {})
        if parent < 0:
            span.attrs["ref_index"] = self.ref_index
        span.mem_start = self._mem()
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.mem_end = self._mem()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.open(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name, attrs_fn=None, note_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            idx = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note_fn is not None:
                tracer.spans[idx].attrs.update(note_fn(result))
            return result
        return traced

    def wrap_region(self, region_cm):
        """`Tape.region` is a context manager; its span covers the body."""
        tracer = self

        @contextmanager
        def region(tape, label):
            idx = tracer.open("region", {"label": label})
            try:
                with region_cm(tape, label):
                    yield tape
            finally:
                tracer.close(idx)
        return region

    # ---- installing ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tokentune"
                                   or mod_name.startswith("tokentune.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self, tt, only: set[str] | None = None) -> None:
        """Wrap every traced function, or only the spans named in `only`
        (then `Tape.region` is left alone too)."""
        for owner, attr, name, attrs_fn, note_fn in traced_functions(tt):
            if only is not None and name not in only:
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, attrs_fn, note_fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
            else:
                self._rebind(original, wrapped)
        if only is not None:
            return
        tape_cls = tt.engine.Tape
        region = tape_cls.region
        tape_cls.region = self.wrap_region(region)
        self._restore.append((tape_cls, "region", region))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self, tt, only: set[str] | None = None):
        self.install(tt, only)
        try:
            yield self
        finally:
            self.uninstall()

    # ---- queries ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def factor_of(self, idx: int) -> float:
        root = self.spans[self.spans[idx].root]
        return self.factor(root.attrs["ref_index"])

    def scaled_ms(self, span: Span) -> float:
        return span.ms * self.factor_of(span.root)

    def has_ancestor(self, span: Span, names: set[str]) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False
