"""Token-selective forward pass: gradients flow only through chosen rows.

Hidden states are split into a selected block (tracked, activations cached)
and an unselected block recorded under a disabled-gradient scope (values
identical, nothing cached, constants during backward). Attention lets the
selected queries attend over the unselected and selected keys and values,
merged into position order by the partition's `key_order`, so forward
values do not depend on the selection; only gradient availability and
what backward retains change. A sequence is its array of token ids.

This is the only layer loop. Full fine-tuning, LoRA and evaluation run it
with `every_position`, which selects every position and leaves the
unselected block empty (TokenTune with k = n). Row i of a sequence's
hidden states is position i.

The unselected rows are constants that only the selected queries' keys
and values read, and every loss and evaluation reads the selected rows
alone. So the last layer's unselected rows stop at their keys and
values: their queries, attention output and feed-forward block are never
computed, and the returned split's `h_g` is all the forward yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tape, Tensor
from .model import (ModelError, TransformerModel, attend_project, embed,
                    loss_classification_rows, loss_lm_rows, qkv)
from .model import ffn as ffn_block
from .model import norm as norm_block
from .partition import SelectionError, TokenPartition


def every_position(seq: np.ndarray) -> TokenPartition:
    """The partition of full fine-tuning and evaluation: every position
    selected, none unselected."""
    if len(seq) == 0:
        raise ModelError("a forward needs at least one position")
    return TokenPartition(selected=np.arange(len(seq)),
                          unselected=np.empty(0, dtype=np.intp))


@dataclass
class SplitHidden:
    """Hidden states split into selected / unselected row blocks; the
    partition gives each block's positions and the `key_order` every
    layer's key and value reorder shares."""

    h_g: Tensor
    h_gbar: Tensor | None
    partition: TokenPartition


def split_hidden(tape: Tape, h: Tensor,
                 partition: TokenPartition) -> SplitHidden:
    """Select partition rows out of `h`, whose row i is position i; the
    unselected block is recorded under a disabled scope and therefore
    enters the graph as a constant. The partition checked its coverage
    when it was built, so only its length is compared with `h`'s."""
    rows = h.value.shape[0]
    if partition.n_positions != rows:
        raise SelectionError(f"partition of {partition.n_positions} "
                             f"positions for a matrix of {rows} rows")
    h_g = tape.select_rows(h, partition.selected)
    h_gbar = None
    if partition.unselected.size:
        with tape.no_grad():
            h_gbar = tape.select_rows(h, partition.unselected)
    return SplitHidden(h_g, h_gbar, partition)


def _unselected_qkv(tape: Tape, model: TransformerModel, layer: int,
                    h_gbar: Tensor, which: str = "qkv") -> list[Tensor]:
    """Q, K and V of the unselected rows, or those `which` names, as
    constants; the normalized rows die on return."""
    with tape.no_grad():
        return qkv(tape, model, layer,
                   norm_block(tape, model, layer, 1, h_gbar), which)


def tokentune_attention(tape: Tape, model: TransformerModel, layer: int,
                        split: SplitHidden) -> SplitHidden:
    """Residual attention update; unselected K/V/queries are constants.

    Each handle is dropped at its last use, so the unselected path's
    attention runs without the selected path's dead arrays. With no
    unselected rows the selected keys and values are used as they are.
    In the last layer nothing reads the unselected rows past their keys
    and values: they get no query and no attention of theirs, and the
    returned split has no unselected block."""
    with tape.region(f"layer.{layer}.attn"):
        q_g, k_g, v_g = qkv(tape, model, layer,
                            norm_block(tape, model, layer, 1, split.h_g))
        q_gb = []  # the unselected queries; the last layer has none
        if split.h_gbar is not None:
            *q_gb, k_gb, v_gb = _unselected_qkv(
                tape, model, layer, split.h_gbar,
                "kv" if layer == model.config.n_layers - 1 else "qkv")
            # keys in position order, so a causal block of queries sees a
            # prefix of them and attention skips the rest
            order = split.partition.key_order
            keys = tape.select_rows(tape.concat_rows([k_gb, k_g]), order)
            vals = tape.select_rows(tape.concat_rows([v_gb, v_g]), order)
            del k_gb, v_gb
        else:
            keys, vals = k_g, v_g
        del k_g, v_g

        new_g = tape.add(split.h_g, attend_project(
            tape, model, layer, q_g, keys, vals, split.partition.selected))
        del q_g

        new_gbar = None
        if q_gb:
            with tape.no_grad():
                new_gbar = tape.add(split.h_gbar, attend_project(
                    tape, model, layer, q_gb.pop(), keys, vals,
                    split.partition.unselected))
    return SplitHidden(new_g, new_gbar, split.partition)


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
    return SplitHidden(new_g, new_gbar, split.partition)


def tokentune_forward(tape: Tape, model: TransformerModel, seq: np.ndarray,
                      partition: TokenPartition) -> SplitHidden:
    """Embed, split, then run every layer with the two-group update.

    The last layer's unselected rows stop after their norm and their key
    and value affines, so with at least one layer the returned split has
    no unselected block: its selected rows are what a loss reads."""
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
    t = targets_by_position[split.partition.selected]
    valid = t >= 0
    if not valid.any():
        raise ModelError("no selected position has a next-token target")
    rows = np.flatnonzero(valid)
    h_rows = tape.select_rows(split.h_g, rows)
    return loss_lm_rows(tape, model, h_rows, t[valid]), int(rows.size)
