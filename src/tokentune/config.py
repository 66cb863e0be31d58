"""Dataclass configs for models, training runs, and tasks.

A RunConfig is a plain JSON document; `--set key=value` dot-path overrides
apply to the document before the config is built, with bare field names
accepted when unambiguous.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        self.message = message
        super().__init__(f"config field '{field_name}': {message}")


REGIMES = ("full", "tokentune", "lora", "tokentune+lora")
SELECTIVE_REGIMES = ("tokentune", "tokentune+lora")
ADAPTER_REGIMES = ("lora", "tokentune+lora")
DTYPES = ("float32", "float64")


#: the keywords of the weights a LoRA factor pair can adapt
LORA_TARGETS = ("w1", "w2", "w_q", "w_k", "w_v", "w_o")


def targets_fault(targets) -> str | None:
    """Why `targets` is not a non-empty list of distinct `LORA_TARGETS`;
    None if it is one."""
    if not isinstance(targets, (tuple, list)) or not targets:
        return f"must be a non-empty list of {LORA_TARGETS}, not {targets!r}"
    unknown = [t for t in targets if t not in LORA_TARGETS]
    if unknown:
        return f"unknown target(s) {unknown}; expected some of {LORA_TARGETS}"
    if len(set(targets)) != len(targets):
        return f"names a target twice: {list(targets)}"
    return None


# field type (without '| None') -> (what it must hold, its check)
_KINDS = {"str": ("a string", lambda v: isinstance(v, str)),
          "bool": ("a bool", lambda v: isinstance(v, bool)),
          "int": ("an integer", lambda v: isinstance(v, numbers.Integral)
                  and not isinstance(v, bool)),
          "float": ("a finite number", lambda v: isinstance(v, numbers.Real)
                    and not isinstance(v, bool) and math.isfinite(v))}


def _check_types(config, section: str = "") -> None:
    """Refuse a field typed str, bool, int or float whose value is no
    string, no bool, no integer (Python or NumPy) or no finite real
    number; a bool is neither of the last two, and a field typed
    `X | None` also takes None. A checked int or float field is stored as
    a Python int or float, so a NumPy scalar never reaches JSON. Fields
    are named `<section>.<field>`, or bare without a section."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if kind not in _KINDS or (value is None and kind != f.type):
            continue
        wanted, check = _KINDS[kind]
        if not check(value):
            raise ConfigError(f"{section}.{f.name}" if section else f.name,
                              f"must be {wanted}, not {value!r}")
        if kind in ("int", "float"):
            setattr(config, f.name, int(value) if kind == "int"
                    else float(value))


def _check_at_least(config, section: str, names, floor: int = 1) -> None:
    """Refuse any of the number fields `names` below `floor` (None
    passes)."""
    for name in names:
        value = getattr(config, name)
        if value is not None and value < floor:
            raise ConfigError(f"{section}.{name}",
                              f"must be >= {floor}, not {value}")


@dataclass
class ModelConfig:
    vocab_size: int = 257
    max_positions: int = 256
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_layers: int = 2
    causal: bool = False
    n_classes: int | None = 2

    def __post_init__(self):
        _check_types(self, "model")
        _check_at_least(self, "model", ("vocab_size", "max_positions",
                                        "d_model", "n_heads", "d_ff",
                                        "n_layers"))
        if self.d_model % self.n_heads != 0:
            raise ConfigError("model.n_heads",
                              f"d_model={self.d_model} not divisible by "
                              f"n_heads={self.n_heads}")
        if not self.causal and (self.n_classes is None or self.n_classes < 2):
            raise ConfigError("model.n_classes",
                              "classification model needs n_classes >= 2")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class TrainConfig:
    regime: str = "full"
    k: int | None = None
    selection_ratio: float | None = None
    batch_size: int = 8
    accumulation_steps: int = 1
    epochs: int = 1
    max_steps: int | None = None
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0
    dtype: str = "float32"
    lora_targets: tuple[str, ...] = ("w1", "w2")
    lora_r: int = 8
    lora_alpha: float = 16.0

    def __post_init__(self):
        _check_types(self, "train")
        if isinstance(self.lora_targets, str):
            self.lora_targets = (self.lora_targets,)
        if fault := targets_fault(self.lora_targets):
            raise ConfigError("train.lora_targets", fault)
        if self.regime not in REGIMES:
            raise ConfigError("train.regime", f"must be one of {REGIMES}, "
                                              f"not {self.regime!r}")
        if self.dtype not in DTYPES:
            raise ConfigError("train.dtype", f"must be one of {DTYPES}, "
                                             f"not {self.dtype!r}")
        if self.selection_ratio is not None \
                and not 0.0 < self.selection_ratio <= 1.0:
            raise ConfigError("train.selection_ratio",
                              f"must be in (0, 1], not {self.selection_ratio}")
        _check_at_least(self, "train", ("k", "accumulation_steps",
                                        "batch_size", "epochs", "max_steps",
                                        "lora_r"))
        _check_at_least(self, "train", ("seed", "weight_decay"), floor=0)
        for name in ("learning_rate", "lora_alpha"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"train.{name}",
                                  f"must be > 0, not {getattr(self, name)}")
        if self.k is not None and self.selection_ratio is not None:
            raise ConfigError("train.selection_ratio",
                              f"set k={self.k} or selection_ratio="
                              f"{self.selection_ratio}, not both")
        if self.regime in SELECTIVE_REGIMES and self.k is None \
                and self.selection_ratio is None:
            raise ConfigError("train.k",
                              "tokentune regimes need k or selection_ratio")


@dataclass
class TaskConfig:
    kind: str = "classification"       # classification | lm
    # classification task
    n_train: int = 5000
    n_test: int = 1000
    seq_len: int = 128
    difficulty: float = 0.2
    data_seed: int = 1234
    # lm task
    corpus_path: str | None = None
    eval_windows: int = 128

    def __post_init__(self):
        _check_types(self, "task")
        if self.kind not in ("classification", "lm"):
            raise ConfigError("task.kind", f"must be 'classification' or "
                                           f"'lm', not {self.kind!r}")
        _check_at_least(self, "task", ("seq_len",), floor=2)
        _check_at_least(self, "task", ("eval_windows",))
        _check_at_least(self, "task", ("data_seed",), floor=0)
        if self.kind == "lm" and not self.corpus_path:
            raise ConfigError("task.corpus_path", "lm task needs a corpus file")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    out_dir: str = "runs/latest"

    def __post_init__(self):
        _check_types(self)
        if not self.out_dir:
            raise ConfigError("out_dir", "must be a non-empty path")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {"model", "train", "task", "out_dir"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config section")
        try:
            return cls(
                model=_build(ModelConfig, doc.get("model", {}), "model"),
                train=_build(TrainConfig, doc.get("train", {}), "train"),
                task=_build(TaskConfig, doc.get("task", {}), "task"),
                out_dir=doc.get("out_dir", "runs/latest"),
            )
        except TypeError as exc:
            raise ConfigError("(root)", str(exc)) from exc


def _build(cls, section: dict, section_name: str):
    if not isinstance(section, dict):
        raise ConfigError(section_name, "must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - names
    if unknown:
        raise ConfigError(f"{section_name}.{sorted(unknown)[0]}", "unknown field")
    fixed = dict(section)
    for f in dataclasses.fields(cls):
        if f.name in fixed and isinstance(fixed[f.name], list):
            fixed[f.name] = tuple(fixed[f.name])
    return cls(**fixed)


def load_run_config(path: str, overrides=()) -> RunConfig:
    """The run config of the JSON file at `path` with the `key=value`
    `overrides` applied to the file's document, built and checked once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("(file)", f"config file not found: {path}")
    except IsADirectoryError:
        raise ConfigError("(file)", f"config path is a directory: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("(file)", "top-level config must be an object")
    return RunConfig.from_dict(apply_overrides(doc, overrides))


def _coerce(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    if "," in text:
        return [_coerce(part) for part in text.split(",")]
    return text


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `key=value` strings to a config dict: `out_dir`, a
    `section.field` dot path into the model, train or task section, or a
    bare field name that one section alone has."""
    sections = {"model": ModelConfig, "train": TrainConfig, "task": TaskConfig}
    out = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, _, raw = item.partition("=")
        value = _coerce(raw)
        if key == "out_dir":
            out["out_dir"] = value
            continue
        if "." in key:
            section, _, fname = key.partition(".")
            if section not in sections:
                raise ConfigError(key, "unknown section")
        else:
            hits = [s for s, cls in sections.items()
                    if key in {f.name for f in dataclasses.fields(cls)}]
            if not hits:
                raise ConfigError(key, "unknown field")
            if len(hits) > 1:
                raise ConfigError(key, f"ambiguous; qualify as one of "
                                       f"{[h + '.' + key for h in hits]}")
            section, fname = hits[0], key
        fields = out.setdefault(section, {})
        if not isinstance(fields, dict):
            raise ConfigError(section, "must be an object")
        fields[fname] = value
    return out
