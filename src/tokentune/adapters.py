"""Low-rank adapters: frozen base weights plus trainable rank-r factors.

Adapting a weight W (d_in x d_out) adds two trainable parameters beside
it, `<W>.lora_a` (d_in x r) and `<W>.lora_b` (r x d_out), as listed in
`model.param_specs`, and sets the model's `lora_scaling` to alpha/r. The
adapted forward computes x @ W + (alpha/r) * (x @ A) @ B without
materializing the combined weight, so the extra activation cache per
adapted matrix stays at the rank-r intermediate. B starts at zero, making
the initial delta exactly zero. Rank-r factors of a d_in x d_out matrix
hold r * (d_in + d_out) elements, fewer than the dense matrix only when
r < d_in * d_out / (d_in + d_out).
"""

from __future__ import annotations

import numpy as np

from .config import targets_fault
from .model import TARGET_SUFFIXES, TransformerModel, param_specs

ADAPTER_INIT_STD = 0.02


class AdapterError(ValueError):
    pass


def attach(model: TransformerModel, targets=("w1", "w2"), r: int = 8,
           alpha: float = 16.0, seed: int = 0) -> TransformerModel:
    """Add factors on `targets`, placed as `param_specs(config, targets, r)`
    lists them, and the scaling alpha/r, which freezes every base parameter;
    the A factors are drawn layer by layer, in the order of `targets`."""
    if r < 1:
        raise AdapterError("rank must be >= 1")
    if not alpha > 0:
        raise AdapterError(f"alpha must be > 0, not {alpha!r}")
    if model.lora_scaling is not None:
        raise AdapterError("adapters already attached")
    if fault := targets_fault(targets):
        raise AdapterError(f"adapter targets: {fault}")
    specs = param_specs(model.config, targets, r)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10BA]))
    dtype = model.dtype
    a_names = [f"layers.{i}.{TARGET_SUFFIXES[t]}.lora_a"
               for i in range(model.config.n_layers) for t in targets]
    drawn = {name: rng.normal(0.0, ADAPTER_INIT_STD,
                              specs[name][:2]).astype(dtype)
             for name in a_names}
    model.params = {name: model.params[name] if name in model.params
                    else drawn[name] if init == "lora"
                    else np.zeros((rows, cols), dtype=dtype)
                    for name, (rows, cols, init) in specs.items()}
    model.lora_scaling = float(alpha) / float(r)
    return model
