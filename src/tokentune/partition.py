"""Selection of the tuned position subset.

A partition divides the positions 0..n-1 of one sequence into a `selected`
set (gradients flow, activations cached) and its `unselected` complement
(treated as constants). Classification always keeps position 0 selected
so the pooled representation can be tuned from the first token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class TokenPartition:
    selected: np.ndarray     # sorted positions, gradients enabled
    unselected: np.ndarray   # sorted positions, constants
    clamped: bool = False    # True when k exceeded the sequence length

    def __post_init__(self):
        sel = np.asarray(self.selected, dtype=np.intp)
        unsel = np.asarray(self.unselected, dtype=np.intp)
        object.__setattr__(self, "selected", np.sort(sel))
        object.__setattr__(self, "unselected", np.sort(unsel))
        if self.selected.size < 1:
            raise SelectionError("a partition needs at least one selected position")
        if np.intersect1d(self.selected, self.unselected).size:
            raise SelectionError("selected and unselected overlap")
        both = np.concatenate([self.selected, self.unselected])
        if np.unique(both).size != both.size:
            raise SelectionError("duplicate positions in partition")

    @property
    def k(self) -> int:
        return int(self.selected.size)

    @property
    def n_positions(self) -> int:
        return int(self.selected.size + self.unselected.size)


def resolve_k(k: int | None, ratio: float | None, n: int) -> int:
    """Absolute count wins; a ratio rounds half-up with a floor of 1."""
    if k is None and ratio is None:
        raise SelectionError("need k or a selection ratio")
    if k is None:
        k = int(np.floor(ratio * n + 0.5))
    return max(1, int(k))


def select_positions(n: int, k: int, mode: str,
                     rng_seed: int = 0) -> TokenPartition:
    """Uniform sample of k of the positions 0..n-1, deterministic per seed.

    Classification mode forces position 0 into the selection and samples
    the remaining k-1 from the other positions. k larger than n clamps
    (reported on the returned partition).
    """
    if mode not in ("classification", "lm"):
        raise SelectionError(f"unknown selection mode '{mode}'")
    if k < 1:
        raise SelectionError("k must be >= 1")
    if n < 1:
        raise SelectionError("no positions to select from")

    candidates = np.arange(n)
    clamped = k > n
    k_eff = min(k, n)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x5E1E]))
    if mode == "classification":
        picked = rng.choice(candidates[1:], size=k_eff - 1, replace=False)
        selected = np.concatenate([[0], picked])
    else:
        selected = rng.choice(candidates, size=k_eff, replace=False)
    selected = np.sort(selected.astype(np.intp))
    unselected = np.setdiff1d(candidates, selected)
    return TokenPartition(selected=selected, unselected=unselected,
                          clamped=clamped)
