"""Selection of the tuned position subset and row split/restore bookkeeping.

A partition divides the unpadded original positions of one sequence into a
`selected` set (gradients flow, activations cached) and its `unselected`
complement (treated as constants). Classification always keeps position 0
selected so the pooled representation can be tuned from the first token.
Selection never draws padding positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class TokenPartition:
    selected: np.ndarray     # sorted original positions, gradients enabled
    unselected: np.ndarray   # sorted original positions, constants
    seed: int | None = None
    clamped: bool = False    # True when k exceeded the unpadded count

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


def resolve_k(k: int | None, ratio: float | None, n_unpadded: int) -> int:
    """Absolute count wins; a ratio rounds half-up with a floor of 1."""
    if k is None and ratio is None:
        raise SelectionError("need k or a selection ratio")
    if k is None:
        k = int(np.floor(ratio * n_unpadded + 0.5))
    return max(1, int(k))


def select_positions(n: int, k: int, mode: str, pad_mask=None,
                     rng_seed: int = 0) -> TokenPartition:
    """Uniform sample of k unpadded positions, deterministic per seed.

    Classification mode forces position 0 into the selection and samples
    the remaining k-1 from the other unpadded positions. k larger than the
    unpadded count clamps (reported on the returned partition).
    """
    if mode not in ("classification", "lm"):
        raise SelectionError(f"unknown selection mode '{mode}'")
    if k < 1:
        raise SelectionError("k must be >= 1")
    if pad_mask is None:
        pad_mask = np.ones(n, dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape[0] != n:
        raise SelectionError("pad mask length must equal n")
    candidates = np.flatnonzero(pad_mask)
    if candidates.size == 0:
        raise SelectionError("no unpadded positions to select from")

    clamped = k > candidates.size
    k_eff = min(k, int(candidates.size))
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x5E1E]))
    if mode == "classification":
        if not pad_mask[0]:
            raise SelectionError("classification requires position 0 unpadded")
        rest = candidates[candidates != 0]
        picked = rng.choice(rest, size=k_eff - 1, replace=False)
        selected = np.concatenate([[0], picked])
    else:
        selected = rng.choice(candidates, size=k_eff, replace=False)
    selected = np.sort(selected.astype(np.intp))
    unselected = np.setdiff1d(candidates, selected)
    return TokenPartition(selected=selected, unselected=unselected,
                          seed=rng_seed, clamped=clamped)


def partition_rows(partition: TokenPartition, storage_positions=None):
    """Map a partition to storage-row indices.

    Returns (rows_selected, rows_unselected, restore_idx): the storage rows
    of each group, ordered by ascending original position, plus the index
    that re-sorts the concatenated [selected; unselected] block back into
    storage order.
    """
    if storage_positions is None:
        storage_positions = np.arange(partition.n_positions)
    storage_positions = np.asarray(storage_positions, dtype=np.intp)
    pos_to_row = {int(p): i for i, p in enumerate(storage_positions)}
    try:
        rows_sel = np.array([pos_to_row[int(p)] for p in partition.selected],
                            dtype=np.intp)
        rows_unsel = np.array([pos_to_row[int(p)] for p in partition.unselected],
                              dtype=np.intp)
    except KeyError as exc:
        raise SelectionError(f"position {exc} not present in storage") from exc
    perm = np.concatenate([rows_sel, rows_unsel])
    restore_idx = np.argsort(perm, kind="stable")
    return rows_sel, rows_unsel, restore_idx

