"""Token-selective forward pass: gradients flow only through chosen rows.

Hidden states are split into a selected block (tracked, activations cached)
and an unselected block recorded under a disabled-gradient scope (values
identical, nothing cached, constants during backward). Attention lets the
selected queries attend over the unselected and selected keys and values,
merged into position order, so forward values do not depend on the
selection; only gradient availability and what backward retains change.

This is the only layer loop. Full fine-tuning, LoRA and evaluation run it
with `every_position`, which selects every position and leaves the
unselected block empty (TokenTune with k = n). Row i of a sequence's
hidden states is position i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tape, Tensor
from .model import (ModelError, TokenSequence, TransformerModel,
                    attend_project, embed,
                    loss_classification_rows, loss_lm_rows, qkv)
from .model import ffn as ffn_block
from .model import norm as norm_block
from .partition import SelectionError, TokenPartition


def every_position(seq: TokenSequence) -> TokenPartition:
    """The partition of full fine-tuning and evaluation: every position
    selected, none unselected."""
    if len(seq) == 0:
        raise ModelError("a forward needs at least one position")
    return TokenPartition(selected=np.arange(len(seq)),
                          unselected=np.empty(0, dtype=np.intp))


@dataclass
class SplitHidden:
    """Hidden states split into selected / unselected row blocks."""

    h_g: Tensor
    h_gbar: Tensor | None
    positions_g: np.ndarray
    positions_gbar: np.ndarray
    # puts rows of [unselected; selected] in position order; one array
    # shared by every layer's key and value reorder and by the restore
    key_order: np.ndarray

    def with_blocks(self, h_g: Tensor, h_gbar: Tensor | None) -> "SplitHidden":
        return SplitHidden(h_g, h_gbar, self.positions_g,
                           self.positions_gbar, self.key_order)


def split_hidden(tape: Tape, h: Tensor,
                 partition: TokenPartition) -> SplitHidden:
    """Select partition rows out of `h`, whose row i is position i; the
    unselected block is recorded under a disabled scope and therefore
    enters the graph as a constant."""
    rows = h.value.shape[0]
    both = np.concatenate([partition.unselected, partition.selected])
    if both.size != rows or both.min() < 0 or both.max() >= rows:
        raise SelectionError(
            f"partition does not cover exactly rows 0..{rows - 1} of the "
            f"matrix")
    h_g = tape.select_rows(h, partition.selected)
    h_gbar = None
    if partition.unselected.size:
        with tape.no_grad():
            h_gbar = tape.select_rows(h, partition.unselected)
    return SplitHidden(h_g, h_gbar, partition.selected.copy(),
                       partition.unselected.copy(),
                       np.argsort(both, kind="stable"))


def restore_hidden(tape: Tape, split: SplitHidden) -> Tensor:
    """The rows in position order: the selected block itself when nothing
    is unselected, else an exact copy of both blocks reordered."""
    if split.h_gbar is None:
        return split.h_g
    return tape.select_rows(tape.concat_rows([split.h_gbar, split.h_g]),
                            split.key_order)


def _unselected_qkv(tape: Tape, model: TransformerModel, layer: int,
                    h_gbar: Tensor) -> list[Tensor]:
    """Q, K and V of the unselected rows, as constants; the normalized
    rows die on return."""
    with tape.no_grad():
        return qkv(tape, model, layer,
                   norm_block(tape, model, layer, 1, h_gbar))


def tokentune_attention(tape: Tape, model: TransformerModel, layer: int,
                        split: SplitHidden) -> SplitHidden:
    """Residual attention update; unselected K/V/queries are constants.

    Each handle is dropped at its last use, so the unselected path's
    attention runs without the selected path's dead arrays. With no
    unselected rows the selected keys and values are used as they are."""
    with tape.region(f"layer.{layer}.attn"):
        q_g, k_g, v_g = qkv(tape, model, layer,
                            norm_block(tape, model, layer, 1, split.h_g))
        if split.h_gbar is not None:
            q_gb, k_gb, v_gb = _unselected_qkv(tape, model, layer,
                                               split.h_gbar)
            # keys in position order, so a causal block of queries sees a
            # prefix of them and attention skips the rest
            order = split.key_order
            keys = tape.select_rows(tape.concat_rows([k_gb, k_g]), order)
            vals = tape.select_rows(tape.concat_rows([v_gb, v_g]), order)
            del k_gb, v_gb
        else:
            keys, vals = k_g, v_g
        del k_g, v_g

        new_g = tape.add(split.h_g, attend_project(
            tape, model, layer, q_g, keys, vals, split.positions_g))
        del q_g

        new_gbar = None
        if split.h_gbar is not None:
            with tape.no_grad():
                new_gbar = tape.add(split.h_gbar, attend_project(
                    tape, model, layer, q_gb, keys, vals,
                    split.positions_gbar))
    return split.with_blocks(new_g, new_gbar)


def tokentune_ffn(tape: Tape, model: TransformerModel, layer: int,
                  split: SplitHidden) -> SplitHidden:
    """Residual feed-forward update; normalization follows the same split.

    The unselected rows run first: their hidden arrays, the widest
    transients of a TokenTune step, then peak before the selected rows
    of this layer have saved anything for backward."""
    with tape.region(f"layer.{layer}.ffn"):
        new_gbar = None
        if split.h_gbar is not None:
            with tape.no_grad():
                new_gbar = tape.add(split.h_gbar, ffn_block(
                    tape, model, layer,
                    norm_block(tape, model, layer, 2, split.h_gbar)))
        new_g = tape.add(split.h_g, ffn_block(
            tape, model, layer, norm_block(tape, model, layer, 2, split.h_g)))
    return split.with_blocks(new_g, new_gbar)


def tokentune_forward(tape: Tape, model: TransformerModel,
                      seq: TokenSequence,
                      partition: TokenPartition) -> SplitHidden:
    """Embed, split, then run every layer with the two-group update."""
    # the embedding is passed on, not kept: the split's row blocks are
    # copies, so it dies once they are made
    split = split_hidden(tape, embed(tape, model, seq), partition)
    for i in range(model.config.n_layers):
        split = tokentune_attention(tape, model, i, split)
        split = tokentune_ffn(tape, model, i, split)
    return split


# ---- objectives ------------------------------------------------------------

def loss_classification(tape: Tape, model: TransformerModel,
                        split: SplitHidden, label: int) -> Tensor:
    """Cross-entropy on the class distribution pooled over selected rows."""
    return loss_classification_rows(tape, model, split.h_g, label)


def loss_lm(tape: Tape, model: TransformerModel, split: SplitHidden,
            targets_by_position: np.ndarray) -> tuple[Tensor, int]:
    """Summed next-token cross-entropy over selected rows with targets.

    `targets_by_position[p]` is the token at position p+1, or -1 when
    there is none (the last position). A selected row with no target
    simply contributes no term. Returns (loss node, number of
    contributing rows).
    """
    targets_by_position = np.asarray(targets_by_position)
    t = targets_by_position[split.positions_g]
    valid = t >= 0
    if not valid.any():
        raise ModelError("no selected position has a next-token target")
    rows = np.flatnonzero(valid)
    h_rows = tape.select_rows(split.h_g, rows)
    return loss_lm_rows(tape, model, h_rows, t[valid]), int(rows.size)
