"""Selection of the tuned position subset.

A partition divides the positions 0..n-1 of one sequence into a `selected`
set (gradients flow, activations cached) and its `unselected` complement
(treated as constants). Classification always keeps position 0 selected
so the pooled representation can be tuned from the first token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class TokenPartition:
    """The one check of a selection: at least one selected position, and
    the two sorted sets hold each of 0..n-1 exactly once. `key_order`, the
    argsort that checks it, puts rows of [unselected; selected] in order."""

    selected: np.ndarray     # sorted positions, gradients enabled
    unselected: np.ndarray   # sorted positions, constants
    key_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        selected = np.sort(np.asarray(self.selected, dtype=np.intp))
        unselected = np.sort(np.asarray(self.unselected, dtype=np.intp))
        if selected.size < 1:
            raise SelectionError("a partition needs at least one selected position")
        both = np.concatenate([unselected, selected])
        order = np.argsort(both, kind="stable")
        if not np.array_equal(both[order], np.arange(both.size)):
            raise SelectionError(
                f"selected and unselected positions do not cover "
                f"0..{both.size - 1} exactly once")
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "unselected", unselected)
        object.__setattr__(self, "key_order", order)

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
    the remaining k-1 from the other positions. k larger than n selects
    every position.
    """
    if mode not in ("classification", "lm"):
        raise SelectionError(f"unknown selection mode '{mode}'")
    if k < 1:
        raise SelectionError("k must be >= 1")
    if n < 1:
        raise SelectionError("no positions to select from")

    candidates = np.arange(n)
    k_eff = min(k, n)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x5E1E]))
    if mode == "classification":
        picked = rng.choice(candidates[1:], size=k_eff - 1, replace=False)
        selected = np.concatenate([[0], picked])
    else:
        selected = rng.choice(candidates, size=k_eff, replace=False)
    return TokenPartition(selected=selected,
                          unselected=np.setdiff1d(candidates, selected))
