"""Low-rank adapters: frozen base weights plus trainable rank-r factors.

Adapting a weight W (d_in x d_out) adds two ordinary trainable parameters
beside it, `<W>.lora_a` (d_in x r) and `<W>.lora_b` (r x d_out), and sets
the model's `lora_scaling` to alpha/r. The adapted forward computes
x @ W + (alpha/r) * (x @ A) @ B without ever materializing the combined
weight, so the extra activation cache per adapted matrix stays at the
rank-r intermediate. B starts at zero, making the initial delta exactly
zero. Rank-r factors of a d_in x d_out matrix hold r * (d_in + d_out)
elements, fewer than the dense matrix only when
r < d_in * d_out / (d_in + d_out).
"""

from __future__ import annotations

import numpy as np

from .model import Parameter, TransformerModel

ADAPTER_INIT_STD = 0.02

#: target keyword -> per-layer parameter suffix
TARGET_SUFFIXES = {
    "w1": "ffn.w1",
    "w2": "ffn.w2",
    "w_q": "attn.w_q",
    "w_k": "attn.w_k",
    "w_v": "attn.w_v",
    "w_o": "attn.w_o",
}


class AdapterError(ValueError):
    pass


def attach(model: TransformerModel, targets=("w1", "w2"), r: int = 8,
           alpha: float = 16.0, seed: int = 0) -> TransformerModel:
    """Freeze every base parameter and add trainable factors on `targets`.

    The factors are drawn layer by layer, in target order, and each pair
    is stored right after its weight."""
    if r < 1:
        raise AdapterError("rank must be >= 1")
    if model.lora_scaling is not None:
        raise AdapterError("adapters already attached")
    unknown = [t for t in targets if t not in TARGET_SUFFIXES]
    if unknown:
        raise AdapterError(f"unknown adapter target(s) {unknown}; "
                           f"expected a subset of {sorted(TARGET_SUFFIXES)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10BA]))
    dtype = model.dtype
    factors = {}
    for i in range(model.config.n_layers):
        for t in targets:
            name = f"layers.{i}.{TARGET_SUFFIXES[t]}"
            d_in, d_out = model.param(name).shape
            factors[name] = (
                rng.normal(0.0, ADAPTER_INIT_STD, (d_in, r)).astype(dtype),
                np.zeros((r, d_out), dtype=dtype))
    params = {}
    for name, p in model.params.items():
        p.frozen = True
        params[name] = p
        if name in factors:
            a, b = factors[name]
            params[f"{name}.lora_a"] = Parameter(a)
            params[f"{name}.lora_b"] = Parameter(b)
    model.params = params
    model.lora_scaling = float(alpha) / float(r)
    return model


def merge(model: TransformerModel) -> TransformerModel:
    """Fold every adapter delta into its frozen base weight."""
    if model.lora_scaling is None:
        raise AdapterError("no adapters attached (already merged?)")
    for name in [n for n in model.params if n.endswith(".lora_a")]:
        target = name[:-len(".lora_a")]
        a = model.params.pop(name).value
        b = model.params.pop(f"{target}.lora_b").value
        p = model.param(target)
        p.value = p.value + (a @ b) * np.asarray(model.lora_scaling,
                                                 dtype=a.dtype)
    model.lora_scaling = None
    return model
