"""Selection statistics and the embedding split into the partition's
blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tokentune.config import ModelConfig
from tokentune.engine import Tape
from tokentune.model import build_model, embed
from tokentune.partition import (SelectionError, TokenPartition,
                                 resolve_k, select_positions)
from tokentune.selective import embed_split

MODEL = build_model(ModelConfig(vocab_size=11, max_positions=12, d_model=5,
                                n_heads=1, d_ff=6, n_layers=1, causal=True,
                                n_classes=None), seed=4, dtype="float64")


def embedding(seq):
    """The whole sequence's embedding, row i at position i."""
    return embed(Tape(), MODEL, seq).value


def test_full_selection_has_empty_complement():
    p = select_positions(5, 5, "lm", rng_seed=0)
    assert np.array_equal(p.selected, np.arange(5))
    assert p.unselected.size == 0


def test_classification_always_includes_position_zero():
    for seed in range(1000):
        p = select_positions(10, 3, "classification", rng_seed=seed)
        assert 0 in p.selected


def test_lm_selection_frequencies_uniform():
    n, k, draws = 10, 3, 100_000
    counts = np.zeros(n)
    for seed in range(draws):
        counts[select_positions(n, k, "lm", rng_seed=seed).selected] += 1
    freq = counts / draws
    assert np.abs(freq - k / n).max() < 0.01
    expected = np.full(n, draws * k / n)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(chi2, df=n - 1))
    assert p_value > 0.001


def test_selection_is_deterministic_per_seed():
    a = select_positions(12, 4, "lm", rng_seed=42)
    b = select_positions(12, 4, "lm", rng_seed=42)
    assert np.array_equal(a.selected, b.selected)
    c = select_positions(12, 4, "lm", rng_seed=43)
    assert not np.array_equal(a.selected, c.selected)


def test_clamp_reported():
    p = select_positions(4, 6, "lm", rng_seed=0)
    assert p.k == 4
    assert set(p.selected.tolist()) <= {0, 1, 2, 3}


def test_selection_errors():
    with pytest.raises(SelectionError):
        select_positions(4, 0, "lm", rng_seed=0)
    with pytest.raises(SelectionError):
        select_positions(0, 2, "lm", rng_seed=0)
    with pytest.raises(SelectionError):
        TokenPartition(selected=np.array([], dtype=np.intp),
                       unselected=np.array([0, 1]))


@pytest.mark.parametrize("selected, unselected", [
    ([0, 1], [1, 2]),     # overlap
    ([0, 0], [1]),        # a position twice in one set
    ([-1, 0], [1]),       # below 0
    ([0, 3], [1]),        # a gap: 2 missing
    ([0, 3], [1, 4]),     # n positions, but 2 missing and 4 past n-1
])
def test_partition_not_covering_each_position_once_is_refused(selected,
                                                              unselected):
    with pytest.raises(SelectionError, match="exactly once"):
        TokenPartition(selected=np.array(selected),
                       unselected=np.array(unselected))


def test_blocks_rejoin_position_order_at_the_partition_positions():
    p = TokenPartition(selected=np.array([3, 0]),
                       unselected=np.array([4, 1, 2]))
    assert np.array_equal(p.selected, [0, 3])
    assert np.array_equal(p.unselected, [1, 2, 4])
    seq = np.array([7, 3, 3, 10, 0])
    tape = Tape()
    split = embed_split(tape, MODEL, seq, p)
    assert split.h_g.requires_grad and not split.h_gbar.requires_grad
    merged = tape.concat_rows([split.h_gbar, split.h_g],
                              (p.unselected, p.selected))
    assert np.array_equal(merged.value, embedding(seq))


def test_split_with_nothing_unselected_is_the_hidden_itself():
    p = select_positions(4, 4, "lm", rng_seed=0)
    seq = np.array([1, 2, 9, 4])
    whole, tape = Tape(), Tape()
    embed(whole, MODEL, seq)
    split = embed_split(tape, MODEL, seq, p)
    assert split.h_gbar is None
    assert np.array_equal(split.h_g.value, embedding(seq))
    assert [n.op for n in tape.nodes] == [n.op for n in whole.nodes]


def test_resolve_k_rounds_half_up_with_floor_one():
    assert resolve_k(None, 0.25, 10) == 3   # 2.5 rounds up
    assert resolve_k(None, 0.24, 10) == 2
    assert resolve_k(None, 0.01, 10) == 1
    assert resolve_k(7, 0.5, 10) == 7       # absolute k wins
    with pytest.raises(SelectionError):
        resolve_k(None, None, 10)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_split_restore_round_trip_bitwise(seed, n):
    r = np.random.default_rng(seed)
    k = int(r.integers(1, n + 1))
    p = select_positions(n, k, "lm", rng_seed=seed)
    seq = r.integers(0, 11, size=n)
    h = embedding(seq)
    split = embed_split(Tape(), MODEL, seq, p)
    assert split.h_g.value.shape == (k, 5)
    if k < n:
        assert np.array_equal(split.h_gbar.value, h[p.unselected])
    else:
        assert split.h_gbar is None
    assert np.array_equal(split.h_g.value, h[p.selected])


def test_split_length_mismatch_errors():
    p = select_positions(4, 2, "lm", rng_seed=0)
    with pytest.raises(SelectionError):
        embed_split(Tape(), MODEL, np.zeros(3, np.intp), p)
