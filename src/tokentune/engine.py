"""Reverse-mode autodiff over dense 2-D float matrices with exact
activation-cache accounting.

Every operation is recorded on a :class:`Tape`, and each one returns a
:class:`Tensor` handle to model code. The handle owns the op's output
array; the tape's graph holds only :class:`Node` records (op, inputs,
shape, dtype, metadata) and, for nodes that require gradients, the arrays
their backward rule reads ("saves"). An output therefore lives exactly as
long as model code holds its handle or a backward save refers to it:
CPython frees every other forward value as soon as its last handle drops,
so the bytes live at backward entry are the retained set that
:func:`simulate_peak_bytes` models (the freeing rule of Chen et al. 2016),
not every value the forward pass made.

What backward keeps is read off the saves themselves. A tracked node
records, when its op hands the tape its saves, the nodes whose output
arrays a save *is* (an operand's array, the op's own output, or a root
that backward rebuilds an operand from, below): ``retains``; and the
bytes of every other save, arrays the op allocated for backward alone:
``fresh_bytes``. Each kept output has one owner, the first node that
keeps it, and each fresh save the node that saved it. Each op's save
policy is thus stated once, in the op, and both
:func:`simulate_peak_bytes` and :meth:`Tape.retained_bytes` read it from
the nodes. Parameters can be retained but are resident regardless of
backward, so neither charges them.

Cache policy per primitive, as (what backward reads):
    matmul         lhs iff rhs needs grad, rhs iff lhs needs grad
    add            nothing (gradient passes through / column-sums)
    affine         x @ w, its LoRA delta ((x @ a) @ b) * s and its bias
                   summed in one array, one node. Tracked, it saves w, a,
                   b and the bias (references to parameters); x iff w or
                   a needs grad, except a rebuilt x (below): backward
                   forms dA and dW from it and frees it before dX; and
                   x @ a (fresh, rows x rank) iff b needs grad
    elementwise    gelu (tanh form): its input (a reference), except a
                   rebuilt input. The pass that rebuilds its output for a
                   reader also yields its derivative, which its backward
                   then multiplies by g in place; unread by such a
                   reader, it runs that pass itself, over its input
                   rebuilt if unsaved. The pass writes the output over a
                   rebuilt input, which nothing else holds.
                   scale: nothing (constant factor)
    softmax_rows   its output, not its input
    attention      saves per (head, query row) the softmax's log-sum-exp
                   (one fresh heads x rows array), if causal a copy of
                   the queries' positions (8 bytes per row), q always, k
                   always and v iff q or k needs grad (references, not
                   copies), except a key or value operand that is a
                   rebuilt concat_rows (below), of which it saves the
                   roots. Backward rebuilds each block's probabilities
                   from them one head at a time (Dao et al. 2022; Dao
                   2023), and forms key and value gradient rows only for
                   the tracked parts of a concat_rows operand
    layer_norm     normalized input, per-row inverse std, the scale and
                   shift vectors; untracked, a weak reference to its
                   input and to those vectors, which keeps nothing alive
    select/concat  nothing (integer metadata: the selected indices, or
                   each part's output rows, and the input's shape)
    mean_rows      nothing
    cross_entropy  the softmax probabilities (log-softmax is fused)

Rebuilt, not saved (the recompute trade of Chen et al. 2016, in the
selective form of Korthikanti et al. 2022): the output of a layer_norm,
a select_rows of it (a feed-forward row block's input, of which only the
block's rows are rebuilt), the output of a tracked GELU, or of an affine
whose x is itself rebuilt (a feed-forward block's pre-activation, or a
key or value affine), wherever an affine reads it as x or a GELU as
input; and a concat_rows of such outputs wherever attention reads it as
its keys or values, so that TokenTune keeps no n x d keys or values.
The reader's backward rebuilds it bit for bit with the forward's own
expression: a tracked node from its saves, an untracked layer norm from
its input, an untracked affine from its weak references to its
parameters. The input of each untracked layer norm on the way (a
layer's unselected rows) is a root: the reader saves it, so it is
retained like any other save, and charged to the reader unless an
earlier node keeps it. An attention whose keys and
values are affine outputs (every position selected: no concat) still
saves them, as rebuilding them too cost 7-9% of a full fine-tuning
step.

Transients die at their last reader as well, and no op holds more than
a block of scores or hidden rows beyond its operands and output: a
forward attention block holds one group of heads' scores at a time, at
most ATTENTION_SCORE_BYTES, and divides its rows of the output by the
row sums once, where they are contiguous; a feed-forward block runs in
row blocks (``model.FFN_BLOCK_ROWS``), tracked or not; an untracked GELU
may write over its input (a no-grad feed-forward block's
pre-activation, which nothing else reads), and a GELU's backward writes
its output over a rebuilt input; an adapted affine adds its LoRA delta
in row blocks, and its backward scales the rank-wide products instead
of copying g; each backward rule adds a parameter's gradient into the
caller's accumulator as it forms it; and an attention's backward frees
its roots once the norms are rebuilt from them, and its keys, values
and per-head buffers before it hands its gradients on.

Nodes recorded while gradients are disabled (`with tape.no_grad(): ...`)
have ``requires_grad = False``, save nothing, and act as constants during
backward; a no-grad forward keeps nothing beyond the handles its caller
holds. Recording and backward are single-threaded per tape; independent
tapes are safe to use concurrently.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager

import numpy as np

#: The tanh form of GELU (Hendrycks & Gimpel 2016, arXiv 1606.08415):
#: 0.5 * x * (1 + tanh(u)), u = sqrt(2 / pi) * (x + 0.044715 * x**3).
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
#: x**2 is capped here where it enters the derivative. From |x| = 8 on,
#: far below the cap, tanh(u) is +-1 exactly in float32 and float64, so
#: the capped term is multiplied by 1 - tanh(u)**2 = 0: an x**2 that
#: overflows gives 0, not inf * 0 = NaN.
_GELU_SQUARE_CAP = 1e4
#: Bytes of x per row block of the GELU pass: a block's arrays stay in
#: cache across the pass's dozen elementwise ops.
GELU_BLOCK_BYTES = 64 * 1024

#: Bytes of z per row block of an affine's LoRA delta (:func:`_affine_sum`).
LORA_BLOCK_BYTES = 64 * 1024

#: Pre-softmax mask value, a masked key's score (or added to it); finite
#: (keeps matrices NaN/Inf-free) but large enough that exp() underflows to
#: exactly 0 in float32/float64.
MASK_VALUE = -1e30

#: Query rows per attention block. A causal block computes and
#: backpropagates scores only up to the last key any of its rows can see,
#: so wholly masked key tiles (most of a causal mask's upper triangle) cost
#: nothing, as in FlashAttention's block skipping (Dao et al. 2022), and
#: it masks only its diagonal tile.
ATTENTION_BLOCK_ROWS = 64

#: Bytes of scores a forward attention block holds at a time: its heads
#: run in near-equal groups whose rows x keys scores fit in this many
#: bytes, or one head at a time when one head's do not, in one reused
#: buffer (:func:`_head_groups`). Each head's products are the same
#: batched or not, so the values do not depend on the grouping.
ATTENTION_SCORE_BYTES = 256 * 1024

#: Added to a layer norm's variance before its inverse square root.
LAYER_NORM_EPS = 1e-5


def _gelu_pass(x: np.ndarray, derivative: bool, in_place: bool = False):
    """(GELU(x), GELU'(x) if `derivative` else None) in the tanh form,
    from one pass over row blocks of x of GELU_BLOCK_BYTES each; with
    `in_place`, the value is written over x, a block at a time.

    With t = tanh(u), c = _GELU_C and a = _GELU_A, the value is
    0.5 * (1 + t) * x and the derivative
    0.5 * (1 + t) + (1 - t * t) * 0.5c (1 + 3a x**2) * x, its x**2 capped
    at _GELU_SQUARE_CAP. Each element sees the same ops in the same
    order, so the value is bit for bit the same with or without the
    derivative, whole or in blocks, and in place or not. Besides its
    outputs the pass allocates only one block of scratch that every block
    reuses, for the derivative, and one for a value formed in place,
    which is copied over its block of x once formed. An |x| for which a
    x**3 overflows (about 2e13 in float32) raises numpy's overflow
    warning, and still gives a finite value and a derivative of 0 or 1."""
    value = x if in_place else np.empty_like(x)
    deriv = np.empty_like(x) if derivative else None
    rows = max(1, GELU_BLOCK_BYTES // max(1, x[:1].nbytes))
    scratch = np.empty_like(x[:rows]) if derivative else None
    work = np.empty_like(x[:rows]) if in_place else None
    for r0 in range(0, x.shape[0], rows):
        xb = x[r0:r0 + rows]
        h = value[r0:r0 + rows] if work is None else work[:len(xb)]
        np.multiply(xb, xb, out=h)
        if derivative:
            d = deriv[r0:r0 + rows]
            np.minimum(h, _GELU_SQUARE_CAP, out=d)
            d *= 1.5 * _GELU_A * _GELU_C
            d += 0.5 * _GELU_C
        h *= _GELU_A * _GELU_C
        h += _GELU_C
        h *= xb
        np.tanh(h, out=h)
        if derivative:
            s = scratch[:len(xb)]
            np.multiply(h, h, out=s)
            np.subtract(1.0, s, out=s)
            d *= s
            d *= xb
        h += 1.0
        h *= 0.5
        if derivative:
            d += h
        h *= xb
        if work is not None:
            xb[...] = h
    return value, deriv


def gelu_array(x: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Tanh-form GELU on a plain array: the value of `Tape.gelu`. It
    allocates only its output, or with `in_place` only one row block,
    and writes the value over x (:func:`_gelu_pass`)."""
    return _gelu_pass(x, False, in_place)[0]


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GELU(x), GELU'(x)) from one :func:`_gelu_pass`, in two arrays
    and one row-block scratch; the output equals :func:`gelu_array` bit
    for bit."""
    return _gelu_pass(x, True)


def _all_finite(x: np.ndarray) -> bool:
    """True when `x` holds no NaN or Inf. Its min and max carry any NaN
    and are the Infs if there are any, so no x-sized boolean array is
    made."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, n_heads * w) -> (n_heads, rows, w) view (a copy only when
    `x` is not contiguous)."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def _attention_spans(positions, m: int,
                     n: int) -> tuple[tuple[int, int, int], ...]:
    """(r0, r1, hi) per block of ATTENTION_BLOCK_ROWS query rows: rows
    r0:r1 read keys :hi, one past the block's last position for causal
    queries at `positions`, or all n keys when `positions` is None."""
    rows = ATTENTION_BLOCK_ROWS
    return tuple((r0, min(r0 + rows, m), n if positions is None
                  else int(positions[r0:r0 + rows].max()) + 1)
                 for r0 in range(0, m, rows))


def _head_groups(n_heads: int, cells: int, itemsize: int) -> list[slice]:
    """Near-equal slices of n_heads heads, each holding at most
    ATTENTION_SCORE_BYTES of scores at `cells` (rows x keys) per head, or
    one head each when a head's alone are more."""
    fit = max(1, ATTENTION_SCORE_BYTES // max(1, cells * itemsize))
    count = -(-n_heads // fit)
    bounds = [n_heads * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _tile_mask(positions, hi: int) -> tuple[int, np.ndarray]:
    """(lo, blocked) of one block of causal queries at `positions` over
    its first hi keys. lo is the block's smallest position, so every query
    of the block sees keys :lo and only the diagonal tile, keys lo:hi,
    needs a mask: rows x (hi - lo) booleans, True where a key lies past
    the query's position. Its scores are set to MASK_VALUE there
    (:func:`_mask_tile`)."""
    lo = int(positions.min())
    return lo, np.arange(lo, hi) > positions[:, None]


def _mask_tile(scores: np.ndarray, tile) -> None:
    """Set the scores (..., rows, hi) of the keys past each query's
    position to MASK_VALUE, for a causal block's `tile` from
    :func:`_tile_mask`. It writes in place without the iteration buffers
    an add into the strided tile would take; exp sends the masked scores
    to 0 either way, so the values are those of adding the mask."""
    lo, blocked = tile
    np.copyto(scores[..., lo:], scores.dtype.type(MASK_VALUE), where=blocked)


class _KeyGradient:
    """The gradient an attention backward forms for its key or value
    operand `node`, one head's columns (`width` wide) at a time.

    When `node` is a concat_rows, only the output rows of its tracked
    parts are formed, sorted (``rows``), and :meth:`contributions` hands
    each part its rows, so the concat node gets nothing from attention (a
    reach-through like :func:`_rebuilt_in_backward`'s). Otherwise every
    row is formed, for `node` itself (``rows`` None)."""

    __slots__ = ("node", "rows", "parts", "grad", "head")

    def __init__(self, node: Node, width: int):
        self.node, self.rows, self.parts = node, None, None
        if node.op == "concat_rows":
            positions = np.arange(node.shape[0])
            tracked = [(part, positions[r]) for part, r
                       in zip(node.inputs, node.meta["rows"])
                       if part.requires_grad]
            self.rows = np.sort(np.concatenate([r for _, r in tracked]))
            self.parts = [(part, np.searchsorted(self.rows, r))
                          for part, r in tracked]
        count = node.shape[0] if self.rows is None else self.rows.size
        self.grad = np.empty((count, node.shape[1]), node.dtype)
        self.head = np.empty((count, width), node.dtype)

    def add(self, p: np.ndarray, x: np.ndarray) -> None:
        """head += p^T x over the formed rows among p's keys (its
        columns): all of p when every row is formed."""
        if self.rows is None:
            self.head[:p.shape[1]] += p.T @ x
        else:
            cut = int(np.searchsorted(self.rows, p.shape[1]))
            self.head[:cut] += p[:, self.rows[:cut]].T @ x

    def contributions(self):
        """(node, gradient) pairs: `node` and the whole gradient, or each
        tracked part and its rows of it."""
        if self.parts is None:
            return [(self.node, self.grad)]
        return [(part, self.grad[idx]) for part, idx in self.parts]


def _rebuilt_in_backward(node: Node) -> bool:
    """True for a node whose output a reader's backward rebuilds instead
    of the reader saving it (:func:`_rebuilt_output`): a layer_norm, a
    tracked one from its saves and an untracked one from its input, which
    the reader saves (:func:`_rebuild_roots`); a select_rows of a
    layer_norm; a tracked GELU; an affine whose x is itself rebuilt; and a
    concat_rows whose every part is."""
    if node.op == "concat_rows":
        return all(_rebuilt_in_backward(part) for part in node.inputs)
    if node.op == "select_rows":
        return node.inputs[0].op == "layer_norm"
    return (node.op == "layer_norm"
            or (node.requires_grad and node.meta.get("fn") == "gelu")
            or (node.op == "affine" and _rebuilt_in_backward(node.inputs[0])))


def _untracked_norms(node: Node) -> list[Node]:
    """The untracked layer norms a rebuild of `node` (one
    :func:`_rebuilt_in_backward` names) passes through."""
    if node.op == "concat_rows":
        return [norm for part in node.inputs
                for norm in _untracked_norms(part)]
    if node.op == "layer_norm":
        return [] if node.requires_grad else [node]
    x = node.inputs[0]
    return _untracked_norms(x) if _rebuilt_in_backward(x) else []


def _rebuild_roots(node: Node) -> list[Tensor]:
    """Handles on the arrays a rebuild of `node` (one
    :func:`_rebuilt_in_backward` names) reads that no save holds: the
    input of each untracked layer norm it passes through, on the node
    that made it. A reader that does not save `node` keeps these alive
    in its saves; tracked nodes' own saves hold the rest."""
    return [Tensor(dict(norm._weak_arrays)["input"](), norm.inputs[0])
            for norm in _untracked_norms(node)]


def _rebuilt_output(node: Node, norms: dict | None = None) -> np.ndarray:
    """The output of a node :func:`_rebuilt_in_backward` names, rebuilt
    so that it equals the forward's bit for bit, each with the forward's
    own expression: a tracked layer norm's from its saves, an untracked
    one's from its input (:func:`_layer_norm`), or only the rows a
    select_rows of it takes (:func:`_layer_norm_rows`); an affine's
    (:func:`_affine_sum`) over its rebuilt x, which dies once the sum is
    formed; a concat's parts, all rebuilt before they are put at their
    rows (:func:`_placed`); a GELU's from one pass over its input, saved
    or rebuilt, a rebuilt one written over (:func:`_gelu_parts_of`). That
    pass adds the GELU's derivative, which is left on the GELU's saves for
    its own backward, next on this path (another rebuild replaces it).
    `norms`, if given, keeps each layer
    norm output rebuilt under it by node id, so that readers of one norm
    (a layer's keys and values) rebuild it once. A tracked node's rebuild
    reads its saves, an untracked one's what its weak references reach."""
    if node.op == "concat_rows":
        return _placed(node, [_rebuilt_output(part, norms)
                              for part in node.inputs])
    if node.op == "select_rows":
        return _layer_norm_rows(node.inputs[0], node.meta["idx"])
    if node.op == "layer_norm":
        if norms is not None and node.idx in norms:
            return norms[node.idx]
        out = _layer_norm_rows(node, slice(None))
        if norms is not None:
            norms[node.idx] = out
        return out
    saved = _rebuild_reads(node)
    if node.op == "affine":
        lora = (None if "a" not in saved
                else (saved["a"], saved["b"], node.meta["scaling"]))
        return _affine_sum(_rebuilt_output(node.inputs[0], norms),
                           saved["w"], saved.get("bias"), lora)[0]
    out, saved["derivative"] = _gelu_parts_of(node, saved)
    node._saved_arrays = tuple(saved.items())
    return out


def _rebuild_reads(node: Node) -> dict:
    """The arrays a rebuild of `node`'s output reads, by role: a tracked
    node's saves, or what an untracked one's weak references reach."""
    return (dict(node._saved_arrays) if node.requires_grad
            else {role: ref() for role, ref in node._weak_arrays})


def _layer_norm_rows(node: Node, rows) -> np.ndarray:
    """Rows `rows` of layer norm `node`'s output, only those formed: a
    tracked norm's from its saves, an untracked one's from its input. A
    layer norm works row by row, so each row equals the whole output's
    bit for bit."""
    saved = _rebuild_reads(node)
    if "input" in saved:
        return _layer_norm(saved["input"][rows], saved["scale"],
                           saved["shift"])[0]
    return _layer_norm_output(saved["normalized"][rows], saved["scale"],
                              saved["shift"])


def _placed(node: Node, parts: list[np.ndarray]) -> np.ndarray:
    """The output of concat_rows `node` from its parts' arrays."""
    out = np.empty(node.shape, node.dtype)
    for part, rows in zip(parts, node.meta["rows"]):
        out[rows] = part
    return out


def _gelu_parts_of(node: Node, saved: dict) -> tuple[np.ndarray,
                                                     np.ndarray]:
    """A tracked GELU's (output, derivative) from one :func:`_gelu_pass`
    over its input: its save, or rebuilt when backward can rebuild it
    (:func:`_rebuilt_in_backward`). A rebuilt input is an array of the
    pass's own, so the output is written over it, and the pass holds two
    arrays of the input's size, not three."""
    x = saved.get("input")
    if x is None:
        return _gelu_pass(_rebuilt_output(node.inputs[0]), True,
                          in_place=True)
    return _gelu_parts(x)


def _affine_sum(x, w, bias, lora) -> tuple[np.ndarray, np.ndarray | None]:
    """(x @ w, plus ((x @ a) @ b) * s for `lora` = (a, b, s), plus a 1-row
    `bias`, in one array; x @ a, or None without `lora`). The ufuncs and
    their order are those of the chain of matmul, scale and add nodes that
    states the same sum, with the sums taken in place, so the values are
    equal bit for bit; the forward and the rebuild both form it here. The
    delta is formed and added in near-equal row blocks of at most
    LORA_BLOCK_BYTES and at least 4 rows, so it never holds a second array
    of z's size (its rank-wide product is the same per row whole or in
    such blocks, bar odd output widths in float64)."""
    z = x @ w
    xa = None
    if lora is not None:
        a, b, s = lora
        xa = x @ a
        rows = len(z)
        count = max(1, min(rows // 4, -(-z.nbytes // LORA_BLOCK_BYTES)))
        bounds = [rows * i // count for i in range(count + 1)]
        for r0, r1 in zip(bounds, bounds[1:]):
            t = xa[r0:r1] @ b
            t *= s
            z[r0:r1] += t
            del t
    if bias is not None:
        z += bias
    return z, xa


def _layer_norm(x, gamma, beta) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
    """(output, normalized input, per-row inverse std) of a layer norm of
    x: the forward's expression, which an untracked norm's rebuild
    repeats bit for bit."""
    mu = x.mean(axis=1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv  # centred input, normalized in place
    return _layer_norm_output(xhat, gamma, beta), xhat, inv


def _layer_norm_output(xhat, gamma, beta) -> np.ndarray:
    """xhat * gamma + beta, adding beta in place into the product: the
    same values as the two-temporary expression, with one array."""
    out = xhat * gamma
    out += beta
    return out


def _check_product(op: str, a: np.ndarray, b: np.ndarray,
                   transpose_b: bool = False) -> None:
    """Refuse a product a @ b whose inner sizes or dtypes differ."""
    if a.shape[1] != b.shape[0]:
        rhs = f"{b.T.shape} (transposed rhs)" if transpose_b else b.shape
        raise ShapeError(op, f"{a.shape} x {rhs}")
    if a.dtype != b.dtype:
        raise ShapeError(op, f"dtype mismatch {a.dtype} vs {b.dtype}")


def _scatter_rows(out: np.ndarray, idx, g: np.ndarray) -> None:
    """out[idx] += g for a zeroed `out`: plain assignment when `idx` is a
    slice or has no repeats, np.add.at (much slower) only when it does."""
    if isinstance(idx, slice) or np.unique(idx).size == idx.size:
        out[idx] = g
    else:
        np.add.at(out, idx, g)


class EngineError(Exception):
    """Base class for engine failures."""


class ShapeError(EngineError):
    """Operand shapes do not conform to an op's signature."""

    def __init__(self, op: str, detail: str):
        self.op = op
        self.detail = detail
        super().__init__(f"{op}: {detail}")


class NonFiniteError(EngineError):
    """An op produced NaN or Inf."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        super().__init__(f"{op}: non-finite output{': ' + detail if detail else ''}")


class BackwardError(EngineError):
    """Backward pass misuse (non-scalar loss, repeated backward, ...)."""


def as_matrix(data, dtype=None) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float array (the engine's Matrix)."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError("as_matrix", f"expected 2-D data, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class _SweepGradients(dict):
    """A reverse sweep's gradients of non-parameter nodes, by node id,
    each pending until the sweep reaches its node, and `into`, the
    parameter gradients by name, to which :meth:`add_to_parameter` adds
    each parameter's contribution as its rule forms it."""

    __slots__ = ("into",)

    def __init__(self, into: dict[str, np.ndarray]):
        super().__init__()
        self.into = into

    def add_to_parameter(self, name: str, contrib: np.ndarray) -> None:
        """into[name] += contrib, in place. A missing name gets a copy:
        `contrib` may be an array another rule still reads (a gradient
        passed through), which a later in-place add must not change."""
        acc = self.into.get(name)
        if acc is None:
            self.into[name] = contrib.copy()
        else:
            acc += contrib


class Node:
    """One recorded operation (or leaf) in the tape's graph.

    A node holds what backward and the memory model read: the op, its
    input nodes, the output's shape and dtype, and metadata, but never the
    output array, which only its :class:`Tensor` handle owns.
    ``_saved_arrays`` holds the (role, array) pairs backward reads and is
    released as backward consumes the node; ``retains`` (node ids) and
    ``fresh_bytes`` account for them and persist (:meth:`keep_saves`).
    An untracked layer_norm or affine holds instead ``_weak_arrays``,
    (role, weak reference) pairs to the arrays a rebuild of its output
    reads, which keep nothing alive.
    """

    __slots__ = (
        "idx", "op", "shape", "dtype", "requires_grad", "inputs", "meta",
        "retains", "fresh_bytes", "_saved_arrays", "_weak_arrays",
        "label", "name",
    )

    def __init__(self, idx, op, shape, dtype, requires_grad, inputs=(),
                 meta=None, label="", name=None):
        self.idx = idx
        self.op = op
        self.shape = shape
        self.dtype = dtype
        self.requires_grad = requires_grad
        self.inputs = tuple(inputs)
        self.meta = meta or {}
        self.retains = ()
        self.fresh_bytes = 0
        self._saved_arrays = None
        self._weak_arrays = ()
        self.label = label
        self.name = name

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * self.dtype.itemsize

    def keep_saves(self, value: np.ndarray, handles, saves) -> None:
        """Hold `saves`, the (role, array) pairs backward reads, and record
        what they keep alive: a save that is this node's output `value` or
        the array of one of `handles` (the operands, and any root an
        operand's rebuild reads) retains that node's output; any other
        save is an allocation of its own, counted in ``fresh_bytes``."""
        self._saved_arrays = tuple(saves)
        owners = [(value, self.idx)] + [(t.value, t.node.idx) for t in handles]
        retains = []
        for _, arr in saves:
            idx = next((i for v, i in owners if v is arr), None)
            if idx is None:
                self.fresh_bytes += arr.nbytes
            elif idx not in retains:
                retains.append(idx)
        self.retains = tuple(retains)

    def __repr__(self):
        return (f"Node({self.idx}, {self.op}, shape={self.shape}, "
                f"grad={self.requires_grad})")


class Tensor:
    """Model code's handle on a node: the output array and its node.

    Every other attribute (``idx``, ``op``, ``retains``, ...) reads
    through to the node.
    """

    __slots__ = ("value", "node")

    def __init__(self, value: np.ndarray, node: Node):
        self.value = value
        self.node = node

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    def __getattr__(self, name):
        return getattr(self.node, name)

    def __repr__(self):
        return f"Tensor({self.node!r})"


class Tape:
    """Ordered record of a computation, in topological order by
    construction."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._grad_stack = [True]
        self._label_stack: list[str] = []
        self._params_by_name: dict[str, Tensor] = {}
        self._backward_done = False
        self._leaf_grads: dict[int, np.ndarray] = {}

    # ---- scopes ----------------------------------------------------------

    @property
    def grad_enabled(self) -> bool:
        return self._grad_stack[-1]

    @contextmanager
    def no_grad(self):
        self._grad_stack.append(False)
        try:
            yield self
        finally:
            self._grad_stack.pop()

    @contextmanager
    def region(self, label: str):
        """Attribute nodes recorded inside to `label` (memory breakdowns)."""
        self._label_stack.append(label)
        try:
            yield self
        finally:
            self._label_stack.pop()

    def _label(self) -> str:
        return ".".join(self._label_stack)

    # ---- leaves ----------------------------------------------------------

    def _add_leaf(self, op, value, requires_grad, name=None) -> Tensor:
        node = Node(len(self.nodes), op, value.shape, value.dtype,
                    requires_grad, label=self._label(), name=name)
        self.nodes.append(node)
        return Tensor(value, node)

    def param(self, name: str, value: np.ndarray,
              trainable: bool = True) -> Tensor:
        """Register a model parameter leaf; repeated requests are deduped."""
        existing = self._params_by_name.get(name)
        if existing is not None:
            return existing
        node = self._add_leaf("param", as_matrix(value), trainable, name=name)
        self._params_by_name[name] = node
        return node

    def constant(self, value) -> Tensor:
        return self._add_leaf("const", as_matrix(value), False)

    def input(self, value, requires_grad: bool = True) -> Tensor:
        arr = as_matrix(value)
        if not _all_finite(arr):
            raise NonFiniteError("input")
        return self._add_leaf("input", arr, requires_grad and self.grad_enabled)

    # ---- recording helper ------------------------------------------------

    def _record(self, op, value, inputs, meta=None, saves=(), rebuilt=(),
                weak=()) -> Tensor:
        """Append an op node; it keeps `saves` only if it requires grad.

        `inputs` are the operands' handles; the node keeps their nodes
        only. `saves` is a list of (role, array) pairs, what this op's
        backward rule reads. `rebuilt` are the operands it reads but does
        not save, as backward rebuilds them: a tracked node saves their
        roots (:func:`_rebuild_roots`), each once, as "root". `weak` are
        (role, array) pairs an untracked node holds by weak reference, for
        a rebuild of its output.
        """
        if not _all_finite(value):
            raise NonFiniteError(op)
        tracked = self.grad_enabled and any(i.requires_grad for i in inputs)
        node = Node(len(self.nodes), op, value.shape, value.dtype, tracked,
                    (i.node for i in inputs), meta, label=self._label())
        if tracked:
            roots = list({root.node.idx: root for t in rebuilt
                          for root in _rebuild_roots(t.node)}.values())
            node.keep_saves(value, [*inputs, *roots],
                            [*saves, *(("root", r.value) for r in roots)])
        else:
            node._weak_arrays = tuple((role, weakref.ref(arr))
                                      for role, arr in weak)
        self.nodes.append(node)
        return Tensor(value, node)

    # ---- primitives ------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor,
               transpose_b: bool = False) -> Tensor:
        bv = b.value.T if transpose_b else b.value
        _check_product("matmul", a.value, bv, transpose_b)
        saves = []
        if a.requires_grad:
            saves.append(("rhs", b.value))
        if b.requires_grad:
            saves.append(("lhs", a.value))
        return self._record("matmul", a.value @ bv, (a, b),
                            {"transpose_b": transpose_b}, saves)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise add; `b` may be a 1-row vector broadcast over rows."""
        if b.value.shape == a.value.shape:
            broadcast = False
        elif b.value.shape == (1, a.value.shape[1]):
            broadcast = True
        else:
            raise ShapeError("add", f"{a.value.shape} + {b.value.shape}")
        out = a.value + b.value
        return self._record("add", out, (a, b), {"broadcast": broadcast})

    def affine(self, x: Tensor, w: Tensor, bias: Tensor | None = None,
               lora: tuple[Tensor, Tensor, float] | None = None) -> Tensor:
        """x @ w, plus ((x @ a) @ b) * s for `lora` = (a, b, s), plus a
        1-row `bias`, formed in one output array (:func:`_affine_sum`, as
        is its rebuild) and recorded as one node; backward applies the
        rules of the chain of nodes that states the same sum in the
        chain's order (:meth:`_backprop_affine`). The saves are listed in
        the module docstring."""
        _check_product("affine", x.value, w.value)
        inputs = [x, w]
        saves = [("w", w.value)]
        meta = {}
        needs_x = w.requires_grad
        factors = None
        if lora is not None:
            a, b, s = lora
            factors = (a.value, b.value, float(s))
            meta["scaling"] = factors[2]
            _check_product("affine", x.value, a.value)
            _check_product("affine", a.value, b.value)
            if b.value.shape[1] != w.value.shape[1]:
                raise ShapeError("affine", f"LoRA factor {b.value.shape} "
                                           f"for output width "
                                           f"{w.value.shape[1]}")
            inputs += [a, b]
            saves += [("a", a.value), ("b", b.value)]
            needs_x = needs_x or a.requires_grad
        if bias is not None:
            if bias.value.shape != (1, w.value.shape[1]) \
                    or bias.value.dtype != x.value.dtype:
                raise ShapeError("affine", f"bias {bias.value.shape} "
                                           f"{bias.value.dtype} for output "
                                           f"width {w.value.shape[1]} "
                                           f"{x.value.dtype}")
            inputs.append(bias)
            saves.append(("bias", bias.value))
        z, xa = _affine_sum(x.value, w.value,
                            None if bias is None else bias.value, factors)
        params = list(saves)  # what a rebuild of the output reads
        rebuilt = [x] if needs_x and _rebuilt_in_backward(x.node) else []
        if factors is not None and b.requires_grad:
            saves.append(("xa", xa))
        if needs_x and not rebuilt:
            saves.append(("x", x.value))
        return self._record("affine", z, inputs, meta, saves, rebuilt,
                            params)

    def scale(self, a: Tensor, c: float) -> Tensor:
        return self._record("elementwise", a.value * float(c), (a,),
                            {"fn": "scale", "c": float(c)})

    def gelu(self, a: Tensor, in_place: bool = False) -> Tensor:
        """Tanh-form GELU of `a`. With `in_place`, for an untracked op
        only, the output is written over a's array, which the caller
        gives up: the op then holds one row block beside it, not a second
        array of a's size."""
        if in_place and self.grad_enabled and a.requires_grad:
            raise EngineError("gelu: in place only without gradients")
        rebuilt = [a] if _rebuilt_in_backward(a.node) else []
        saves = [] if rebuilt else [("input", a.value)]
        return self._record("elementwise", gelu_array(a.value, in_place),
                            (a,), {"fn": "gelu", "in_place": in_place},
                            saves, rebuilt)

    def softmax_rows(self, a: Tensor) -> Tensor:
        z = a.value - a.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        return self._record("softmax_rows", p, (a,),
                            saves=[("probs", p)])

    def attention(self, q: Tensor, k: Tensor, v: Tensor, positions,
                  causal: bool, n_heads: int) -> Tensor:
        """Multi-head scaled dot-product attention, recorded as one node.

        Head h reads column block h of q (m x d), k and v (n x d). Key j
        is position j, and `positions` holds the positions of the m
        query rows: a query sees every key, or if `causal` the keys at
        its position and before. Query rows run in blocks of
        ATTENTION_BLOCK_ROWS over only the keys some row of the block
        sees (:func:`_attention_spans`), and a block's heads in groups
        (:func:`_head_groups`), each group in one batched matmul into one
        reused buffer of at most ATTENTION_SCORE_BYTES. Only a causal
        block's diagonal tile is masked (:func:`_tile_mask`): a key past
        a query's position gets the score MASK_VALUE. Unless
        scale * max |q_i| * max |k_j| shows that no score can overflow,
        each group's scores are checked before they are masked, so
        NonFiniteError names any block with a non-finite score. The
        unnormalized probabilities multiply v, and once all its groups
        are done, a block's rows of the output are divided by the row
        sums (Dao et al. 2022), where they are contiguous: numpy
        allocates fewer iteration buffers for that than for a head
        group's strided columns. A tracked node saves each (head, row)'s
        log-sum-exp, max + log(sum), and, if causal, a copy of
        `positions`, from which backward rebuilds the probabilities.
        """
        qv, kv, vv = q.value, k.value, v.value
        positions = np.asarray(positions)
        m, d = qv.shape
        n = kv.shape[0]
        if kv.shape[1] != d or vv.shape != kv.shape \
                or positions.shape != (m,):
            raise ShapeError("attention",
                             f"q {qv.shape}, k {kv.shape}, v {vv.shape}, "
                             f"positions {positions.shape}")
        if not np.issubdtype(positions.dtype, np.integer) or (m and (
                positions.min() < 0 or positions.max() >= n)):
            raise ShapeError("attention",
                             f"positions must be integers in 0..{n - 1}")
        if not qv.dtype == kv.dtype == vv.dtype:
            raise ShapeError("attention",
                             f"dtype mismatch q {qv.dtype}, k {kv.dtype}, "
                             f"v {vv.dtype}")
        if n_heads < 1 or d % n_heads:
            raise ShapeError("attention",
                             f"width {d} not divisible by {n_heads} heads")
        scale = 1.0 / math.sqrt(d // n_heads)
        # a causal node keeps its own copy of the positions; a
        # bidirectional query sees every key
        positions = positions.astype(np.intp) if causal else None
        spans = _attention_spans(positions, m, n)
        lse = np.empty((n_heads, m), qv.dtype)
        out = np.empty((m, d), qv.dtype)
        qh = _heads(qv, n_heads)
        kt = _heads(kv, n_heads).transpose(0, 2, 1)
        vh, oh = _heads(vv, n_heads), _heads(out, n_heads)
        # |score| <= scale |q_i| |k_j|; with that bound far below the
        # dtype's largest value (and the squared norms finite) no score can
        # be non-finite, and the blocks skip checking theirs
        squares = [float(np.einsum("ij,ij->i", x, x).max(initial=0.0))
                   for x in (qv, kv)]
        check = not (scale * math.sqrt(squares[0] * squares[1])
                     < np.finfo(qv.dtype).max / 4)
        groups = [_head_groups(n_heads, (r1 - r0) * hi, qv.dtype.itemsize)
                  for r0, r1, hi in spans]
        buf = np.empty(max(((h.stop - h.start) * (r1 - r0) * hi
                            for (r0, r1, hi), heads in zip(spans, groups)
                            for h in heads), default=0), qv.dtype)
        # a block's row sums by row and head: its rows of the output are
        # divided by them at once, where they are contiguous
        sums = np.empty((min(m, ATTENTION_BLOCK_ROWS), n_heads), qv.dtype)
        for (r0, r1, hi), heads in zip(spans, groups):
            tile = None if positions is None \
                else _tile_mask(positions[r0:r1], hi)
            for h in heads:
                s = buf[:(h.stop - h.start) * (r1 - r0) * hi].reshape(
                    h.stop - h.start, r1 - r0, hi)
                # q is scaled a group's block at a time: the product is
                # elementwise, so the values are those of scaling all of
                # q, without its copy
                np.matmul(qh[h, r0:r1] * scale, kt[h, :, :hi], out=s)
                # before the mask, which would overwrite a masked key's
                if check and not _all_finite(s):
                    raise NonFiniteError("attention",
                                         f"scores of rows {r0}:{r1}")
                if tile is not None:
                    _mask_tile(s, tile)
                top = s.max(axis=2, keepdims=True)
                s -= top
                np.exp(s, out=s)
                total = s.sum(axis=2)
                np.matmul(s, vh[h, :hi], out=oh[h, r0:r1])
                sums[:r1 - r0, h] = total.T
                np.log(total, out=lse[h, r0:r1])
                lse[h, r0:r1] += top[..., 0]
                del top, total  # before the next group's scaled queries
            block = out[r0:r1].reshape(r1 - r0, n_heads, -1)
            block /= sums[:r1 - r0, :, None]
        saves = [("lse", lse), ("q", qv)]
        if positions is not None:
            saves.append(("positions", positions))
        rebuilt = []
        read = [("k", k), ("v", v)] if q.requires_grad or k.requires_grad \
            else [("k", k)]
        for role, x in read:
            if x.node.op == "concat_rows" and _rebuilt_in_backward(x.node):
                rebuilt.append(x)
            else:
                saves.append((role, x.value))
        return self._record("attention", out, (q, k, v),
                            {"n_heads": n_heads, "scale": scale,
                             "spans": spans}, saves, rebuilt)

    def layer_norm(self, x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
        d = x.value.shape[1]
        if gamma.value.shape != (1, d) or beta.value.shape != (1, d):
            raise ShapeError("layer_norm",
                             f"x {x.value.shape}, scale {gamma.value.shape}, "
                             f"shift {beta.value.shape}")
        out, xhat, inv = _layer_norm(x.value, gamma.value, beta.value)
        params = [("scale", gamma.value), ("shift", beta.value)]
        return self._record("layer_norm", out, (x, gamma, beta),
                            saves=[("normalized", xhat), ("inv_std", inv)]
                            + params, weak=[("input", x.value)] + params)

    def select_rows(self, a: Tensor, idx) -> Tensor:
        """A copy of rows `idx` of `a`: a 1-D index array, or a slice (a
        feed-forward row block's, which the node keeps in a few bytes)."""
        if isinstance(idx, slice):
            return self._record("select_rows", a.value[idx].copy(), (a,),
                                {"idx": idx})
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError("select_rows", f"index must be 1-D, got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
            raise ShapeError("select_rows",
                             f"index out of range for {a.value.shape[0]} rows")
        return self._record("select_rows", a.value[idx], (a,), {"idx": idx})

    def select_cols(self, a: Tensor, idx) -> Tensor:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError("select_cols", f"index must be 1-D, got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[1]):
            raise ShapeError("select_cols",
                             f"index out of range for {a.value.shape[1]} cols")
        return self._record("select_cols",
                            np.ascontiguousarray(a.value[:, idx]), (a,),
                            {"idx": idx})

    def concat_rows(self, parts: list[Tensor], rows=None) -> Tensor:
        """The parts' rows in one matrix: part i at output rows `rows[i]`,
        1-D int arrays that together place each output row exactly once,
        or, with no `rows`, stacked in order."""
        if not parts:
            raise ShapeError("concat_rows", "no parts")
        cols, dtype = parts[0].shape[1], parts[0].dtype
        if any(p.shape[1] != cols or p.dtype != dtype for p in parts):
            raise ShapeError("concat_rows", "column or dtype mismatch: "
                             f"{[(p.shape, p.dtype) for p in parts]}")
        bounds = np.cumsum([0] + [p.shape[0] for p in parts]).tolist()
        if rows is None:
            rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        elif ([np.shape(r) for r in rows] != [p.shape[:1] for p in parts]
              or np.concatenate(rows).dtype.kind not in "iu"
              or not np.array_equal(np.sort(np.concatenate(rows)),
                                    np.arange(bounds[-1]))):
            raise ShapeError("concat_rows", "rows do not place each row once")
        out = np.empty((bounds[-1], cols), dtype)
        for part, r in zip(parts, rows):
            out[r] = part.value
        return self._record("concat_rows", out, parts, {"rows": rows})

    def concat_cols(self, parts: list[Tensor]) -> Tensor:
        if not parts:
            raise ShapeError("concat_cols", "no parts")
        rows = parts[0].value.shape[0]
        if any(p.value.shape[0] != rows for p in parts):
            raise ShapeError("concat_cols",
                             f"row mismatch: {[p.value.shape for p in parts]}")
        out = np.concatenate([p.value for p in parts], axis=1)
        sizes = [p.value.shape[1] for p in parts]
        return self._record("concat_cols", out, parts, {"sizes": sizes})

    def mean_rows(self, a: Tensor) -> Tensor:
        n = a.value.shape[0]
        if n == 0:
            raise ShapeError("mean_rows", "empty matrix")
        return self._record("mean_rows", a.value.mean(axis=0, keepdims=True),
                            (a,), {"n": n})

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        """Summed negative log-likelihood over rows; log-softmax is fused.
        The probabilities backward reads are formed only when the node is
        tracked."""
        t = np.asarray(targets, dtype=np.intp).reshape(-1)
        m, v = logits.value.shape
        if t.shape[0] != m:
            raise ShapeError("cross_entropy",
                             f"{m} logit rows vs {t.shape[0]} targets")
        if m == 0:
            raise ShapeError("cross_entropy", "no rows")
        if t.min() < 0 or t.max() >= v:
            raise ShapeError("cross_entropy", f"target out of range for {v} classes")
        zmax = logits.value.max(axis=1, keepdims=True)
        lse = zmax + np.log(np.exp(logits.value - zmax).sum(axis=1, keepdims=True))
        picked = logits.value[np.arange(m), t].reshape(-1, 1)
        loss = np.array([[(lse - picked).sum()]], dtype=logits.value.dtype)
        saves = []
        if self.grad_enabled and logits.requires_grad:
            saves.append(("probs", np.exp(logits.value - lse)))
        return self._record("cross_entropy", loss, (logits,),
                            {"targets": t}, saves=saves)

    # ---- backward --------------------------------------------------------

    def backward(self, loss: Tensor,
                 into: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """Reverse accumulation from a scalar loss node.

        Each trainable parameter's gradient is added into ``into[name]``
        in place (or stored there, if the name is missing) inside the
        backward rule that forms it (:class:`_SweepGradients`), so no
        parameter gradient waits for the sweep to reach the parameter's
        leaf, which is recorded at the parameter's first use. Returns
        `into`, or a fresh dict of the gradients, keyed by name, when none
        is passed. If an exception stops the sweep, `into` keeps what was
        already added. Nodes with ``requires_grad = False`` are
        constants: their inputs receive no contribution. Gradients w.r.t.
        tracked non-parameter leaves are kept for inspection via
        :meth:`grad_of`.
        """
        if self._backward_done:
            raise BackwardError("backward already ran on this tape; re-record first")
        if loss.value.shape != (1, 1):
            raise BackwardError(f"loss must be 1x1, got {loss.value.shape}")
        if not loss.requires_grad:
            raise BackwardError("loss does not require grad")
        self._backward_done = True

        store = {} if into is None else into
        grads = _SweepGradients(store)
        grads[loss.node.idx] = np.ones((1, 1), dtype=loss.value.dtype)
        self._leaf_grads = {}

        for node in reversed(self.nodes):
            g = grads.pop(node.idx, None)
            if g is None or not node.requires_grad:
                continue
            if node.op == "input":
                self._leaf_grads[node.idx] = g
            else:
                self._backprop(node, g, grads)
                node._saved_arrays = None  # release the activation cache
        return store

    def grad_of(self, t: Tensor):
        """Gradient accumulated for a tracked input leaf (after backward)."""
        return self._leaf_grads.get(t.node.idx)

    @staticmethod
    def _accum(grads: _SweepGradients, node, contrib):
        if not node.requires_grad:
            return
        if node.op == "param":
            grads.add_to_parameter(node.name, contrib)
            return
        prev = grads.get(node.idx)
        # First write keeps the (possibly aliased) array; merging allocates.
        grads[node.idx] = contrib if prev is None else prev + contrib

    def _backprop(self, node: Node, g: np.ndarray, grads) -> None:
        op = node.op
        saved = dict(node._saved_arrays or ())
        if op == "matmul":
            a, b = node.inputs
            tb = node.meta["transpose_b"]
            if b.requires_grad:
                lhs = saved["lhs"]
                self._accum(grads, b, g.T @ lhs if tb else lhs.T @ g)
            if a.requires_grad:
                rhs = saved["rhs"]
                self._accum(grads, a, g @ rhs if tb else g @ rhs.T)
        elif op == "affine":
            self._backprop_affine(node, g, saved, grads)
        elif op == "add":
            a, b = node.inputs
            self._accum(grads, a, g)
            if b.requires_grad:
                self._accum(grads, b,
                            g.sum(axis=0, keepdims=True) if node.meta["broadcast"] else g)
        elif op == "elementwise":
            (a,) = node.inputs
            fn = node.meta["fn"]
            if fn == "scale":
                self._accum(grads, a, g * node.meta["c"])
            elif fn == "gelu":
                # left by a rebuild of this GELU's output, if any
                deriv = saved.get("derivative")
                if deriv is None:
                    deriv = _gelu_parts_of(node, saved)[1]
                deriv *= g
                self._accum(grads, a, deriv)
            else:  # pragma: no cover - guarded at record time
                raise BackwardError(f"unknown elementwise fn {fn}")
        elif op == "softmax_rows":
            (a,) = node.inputs
            p = saved["probs"]
            dot = (g * p).sum(axis=1, keepdims=True)
            self._accum(grads, a, p * (g - dot))
        elif op == "attention":
            self._backprop_attention(node, g, saved, grads)
        elif op == "layer_norm":
            x, gamma, beta = node.inputs
            xhat = saved["normalized"]
            inv = saved["inv_std"]
            if gamma.requires_grad:
                self._accum(grads, gamma, (g * xhat).sum(axis=0, keepdims=True))
            if beta.requires_grad:
                self._accum(grads, beta, g.sum(axis=0, keepdims=True))
            if x.requires_grad:
                gs = saved["scale"]
                dxhat = g * gs
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
                self._accum(grads, x, inv * (dxhat - m1 - xhat * m2))
        elif op == "select_rows":
            (a,) = node.inputs
            da = np.zeros(a.shape, a.dtype)
            _scatter_rows(da, node.meta["idx"], g)
            self._accum(grads, a, da)
        elif op == "select_cols":
            (a,) = node.inputs
            da = np.zeros(a.shape, a.dtype)
            _scatter_rows(da.T, node.meta["idx"], g.T)
            self._accum(grads, a, da)
        elif op == "concat_rows":
            for part, r in zip(node.inputs, node.meta["rows"]):
                if part.requires_grad:
                    self._accum(grads, part, g[r])
        elif op == "concat_cols":
            offset = 0
            for part, size in zip(node.inputs, node.meta["sizes"]):
                self._accum(grads, part,
                            np.ascontiguousarray(g[:, offset:offset + size]))
                offset += size
        elif op == "mean_rows":
            (a,) = node.inputs
            n = node.meta["n"]
            self._accum(grads, a, np.repeat(g / n, n, axis=0))
        elif op == "cross_entropy":
            (logits,) = node.inputs
            p = saved["probs"]
            t = node.meta["targets"]
            gval = float(g[0, 0])
            dl = p * gval
            dl[np.arange(t.shape[0]), t] -= gval
            self._accum(grads, logits, dl)
        else:  # pragma: no cover
            raise BackwardError(f"no backward rule for op {op}")

    def _backprop_affine(self, node: Node, g: np.ndarray, saved,
                         grads) -> None:
        """The rules of the chain of nodes that states an affine, in its
        backward order: the bias add (column sums of g); with LoRA the
        delta's add, scale and two matmuls, dB = s (xa^T g),
        dxa = s (g B^T), dA = x^T dxa, dx += dxa A^T; then the base
        matmul, dW = x^T g, dx += g W^T. Each term of dx is its own
        accumulation, in that order, so x's gradient sums its readers'
        terms in the chain's order, bit for bit. The scale is applied to
        the rank-wide products, not to g, so no rows x d_out copy of g is
        made; for a power-of-two s (the default alpha / r = 2) scaling is
        exact and the values are the chain's (which scales g first) bit
        for bit, for another s they may differ in the last bit. A rebuilt
        x is formed once, for dA and dW, and freed before dx."""
        x, w, *rest = node.inputs
        s = node.meta.get("scaling")
        a, b = rest[:2] if s is not None else (None, None)
        bias = rest[-1] if len(rest) in (1, 3) else None
        train_a = a is not None and a.requires_grad
        if bias is not None and bias.requires_grad:
            self._accum(grads, bias, g.sum(axis=0, keepdims=True))
        dxa = None
        if s is not None and b.requires_grad:
            db = saved["xa"].T @ g
            db *= s
            self._accum(grads, b, db)
        if s is not None and (x.requires_grad or train_a):
            dxa = g @ saved["b"].T
            dxa *= s
        if w.requires_grad or train_a:
            xv = (_rebuilt_output(x) if _rebuilt_in_backward(x)
                  else saved["x"])
            if train_a:
                self._accum(grads, a, xv.T @ dxa)
            if w.requires_grad:
                self._accum(grads, w, xv.T @ g)
            del xv
        if x.requires_grad:
            if dxa is not None:
                self._accum(grads, x, dxa @ saved["a"].T)
            self._accum(grads, x, g @ saved["w"].T)

    def _backprop_attention(self, node: Node, g: np.ndarray, saved,
                            grads) -> None:
        """FlashAttention-2's backward (Dao 2023), head by head. Head h
        reads columns h * w:(h + 1) * w of each operand (w the head
        width), copied once into contiguous [scale * q | -lse_h]
        (m x (w + 1)), [k | 1] (n x (w + 1)), v and g, so that one
        matmul of a block's rows of the first by the first hi rows of
        the second is the scores minus the log-sum-exp; after the
        diagonal tile's mask (if causal) its exp is the block's p. As
        lse is rounded to the dtype, p's rows sum to 1 only to within
        about |lse| units in the last place, one factor per row. Dividing
        g and D by the row sums z (one product of p with [k | 1]'s
        column of ones) cancels it, which keeps the gradients as
        accurate as from a saved max and sum: dv_h += p^T (g / z),
        dp = (g / z) v^T, D = rowsum(dp * p) / z, p *= dp - D,
        dq_h = scale * p k and dk_h += p^T (scale * q). Two rows x hi
        buffers of the largest block, p and dp, serve every (head,
        block), and each head writes its columns of dq, dk and dv once.
        A key or value operand that is a concat_rows gets gradient rows
        only for its tracked parts' rows, added straight into those parts
        (:class:`_KeyGradient`). One the node did not save is rebuilt
        first (:func:`_rebuilt_output`), keys and values sharing each
        rebuilt norm output. The untracked norms are rebuilt before
        anything else, so the roots are freed before the keys are formed;
        the values' parts are formed before their buffer, and the norms
        freed in between. The keys, values and per-head buffers die
        before the gradients are handed on."""
        q, k, v = node.inputs
        n_heads = node.meta["n_heads"]
        scale = node.meta["scale"]
        spans = node.meta["spans"]
        positions = saved.get("positions")
        lse, qv, kv, vv = saved["lse"], saved["q"], saved.get("k"), \
            saved.get("v")
        needs_v = q.requires_grad or k.requires_grad
        rebuilt = ([k] if kv is None else []) \
            + ([v] if vv is None and needs_v else [])
        norms = {}
        for x in rebuilt:
            for norm in _untracked_norms(x):
                _rebuilt_output(norm, norms)
        # no rebuild reads a root past here: free them
        node._saved_arrays = None
        saved.pop("root", None)
        if kv is None:
            kv = _rebuilt_output(k, norms)
        if vv is None and needs_v:
            parts = [_rebuilt_output(part, norms) for part in v.inputs]
            norms.clear()
            vv = _placed(v, parts)
            del parts
        del norms
        m, n = q.shape[0], k.shape[0]
        w = q.shape[1] // n_heads
        dtype = node.dtype
        tiles = [None if positions is None
                 else _tile_mask(positions[r0:r1], hi)
                 for r0, r1, hi in spans]
        dq = np.empty(q.shape, dtype) if q.requires_grad else None
        dq_h = np.empty((m, w), dtype) if dq is not None else None
        key, val = (_KeyGradient(x, w) if x.requires_grad else None
                    for x in (k, v))
        formed = [grad for grad in (key, val) if grad is not None]
        size = max(((r1 - r0) * hi for r0, r1, hi in spans), default=0)
        p_buf, dp_buf = np.empty(size, dtype), np.empty(size, dtype)
        qa, ka = np.empty((m, w + 1), dtype), np.empty((n, w + 1), dtype)
        ka[:, w] = 1
        gh = np.empty((m, w), dtype)
        vh = (np.empty((n, w), dtype) if dq is not None or key is not None
              else None)
        for h in range(n_heads):
            c = slice(h * w, (h + 1) * w)
            np.multiply(qv[:, c], scale, out=qa[:, :w])
            np.negative(lse[h], out=qa[:, w])
            ka[:, :w] = kv[:, c]
            gh[:] = g[:, c]
            if vh is not None:
                vh[:] = vv[:, c]
            for grad in formed:
                grad.head.fill(0)
            for (r0, r1, hi), tile in zip(spans, tiles):
                p, dp = (buf[:(r1 - r0) * hi].reshape(r1 - r0, hi)
                         for buf in (p_buf, dp_buf))
                np.matmul(qa[r0:r1], ka[:hi].T, out=p)
                if tile is not None:
                    _mask_tile(p, tile)
                np.exp(p, out=p)
                total = (p @ ka[:hi, w])[:, None]
                gb = gh[r0:r1] / total
                if val is not None:
                    val.add(p, gb)
                if vh is None:
                    continue
                np.matmul(gb, vh[:hi].T, out=dp)
                dp -= np.einsum("ij,ij->i", dp, p)[:, None] / total
                p *= dp
                if dq is not None:
                    np.matmul(p, ka[:hi, :w], out=dq_h[r0:r1])
                if key is not None:
                    key.add(p, qa[r0:r1, :w])
            if dq is not None:
                np.multiply(dq_h, scale, out=dq[:, c])
            for grad in formed:
                grad.grad[:, c] = grad.head
        del kv, vv, tiles, dq_h, p_buf, dp_buf, qa, ka, gh, vh
        for grad in formed:
            grad.head = None
        if dq is not None:
            self._accum(grads, q, dq)
        for grad in formed:
            for x, contrib in grad.contributions():
                self._accum(grads, x, contrib)

    # ---- introspection ---------------------------------------------------

    def retained_bytes(self) -> dict[tuple[str, str], int]:
        """Bytes live at backward entry by (region label, op kind): each
        retained output once, charged to the first node that keeps it
        (:func:`_retained_for_backward`), and each fresh save, charged to
        the node that saved it. The last node (the loss) counts, so the
        values sum to ``simulate_peak_bytes(tape)[1]``. Read off the
        nodes, so the same before and after backward."""
        live = _retained_for_backward(self)
        out: dict[tuple[str, str], int] = {}

        def charge(node, nbytes):
            if nbytes:
                key = (node.label, node.op)
                out[key] = out.get(key, 0) + nbytes

        for node in self.nodes:
            charge(node, node.fresh_bytes)
            if node.idx in live and node.op != "param":
                charge(live[node.idx], node.nbytes)
        return out

    def cache_breakdown(self) -> dict[tuple[str, str], float]:
        """:meth:`retained_bytes` in elements of the tape's float type
        (bytes / itemsize), the unit the benchmark's tape hook multiplies
        back into bytes."""
        if not self.nodes:
            return {}
        itemsize = self.nodes[-1].dtype.itemsize
        return {key: nbytes / itemsize
                for key, nbytes in self.retained_bytes().items()}

    def cached_activation_elements(self) -> float:
        """Sum of :meth:`cache_breakdown`."""
        return sum(self.cache_breakdown().values())


def _retained_for_backward(tape: Tape) -> dict[int, Node]:
    """The ids of the nodes whose output is live at backward entry, each
    mapped to the node its bytes are charged to: each output a save
    retains, to the first node that keeps it (the maker, if it saves its
    own output), and the last (the loss, which backward starts from), to
    itself."""
    live: dict[int, Node] = {}
    for node in tape.nodes:
        for idx in node.retains:
            live.setdefault(idx, node)
    if tape.nodes:
        live.setdefault(tape.nodes[-1].idx, tape.nodes[-1])
    return live


def simulate_peak_bytes(tape: Tape) -> tuple[int, int]:
    """Engine-accounted live-allocation model for one tape.

    Replays the forward pass the way this engine frees memory: an output
    dies with its last handle unless a save retains it (``Node.retains``),
    and each node adds its saves' own allocations (``Node.fresh_bytes``)
    when it is recorded. Model code is assumed to drop a handle once its
    last consumer is recorded, or at once if nothing consumes it, except
    the last node's (the loss, which backward starts from). Returns (peak
    bytes, bytes retained at the end of the forward pass, which
    :meth:`Tape.retained_bytes` breaks down). The backward phase is
    modeled as the retained set plus two transient gradient buffers of the
    largest node; parameter gradients are not charged, since each backward
    rule adds them into the caller's accumulator as it forms them.
    Parameters are excluded (accounted as persistent elsewhere); constants
    count until their last use. A node that writes over its input (an
    untracked GELU in place) takes over the input's bytes. A feed-forward
    block, with or without gradients, is recorded as row blocks
    (``model.FFN_BLOCK_ROWS``) joined by concat_rows, its GELU in place
    without gradients, so the replay sees one block's hidden arrays live
    at a time, as they are.
    Temporaries inside an op are not modeled: softmax buffers,
    attention's block buffers (sized by the largest block: in forward one
    head group's ATTENTION_BLOCK_ROWS x hi scores, at most
    ATTENTION_SCORE_BYTES unless one head's are more, its scaled queries
    and its row sums, in backward two ATTENTION_BLOCK_ROWS x hi head
    buffers), its causal diagonal-tile masks (rows x (hi - lo) booleans
    per block: one or two in forward, every block's in backward), in
    backward one head's columns of q (with the log-sum-exp), k, v and g,
    and its key and value gradients at their formed rows (with one head's
    columns of each), an affine's LoRA delta (one row block of
    LORA_BLOCK_BYTES in forward; in backward only the rank-wide
    products), a layer norm's or
    GELU's output that an affine's backward rebuilds (one rows x cols
    array, freed once that affine's weight or factor gradients are
    formed), a GELU's rebuilt input, the feed-forward pre-activation
    (a row block's rows x d_ff, over which the GELU output is written),
    and the layer norm rows it is rebuilt from (rows x d, freed once the
    pre-activation is formed), live from W2's backward, or the GELU's
    own, until the GELU's parts are formed, the norm outputs an
    attention rebuilds its keys and values from ((n - k) x d and k x d,
    with an untracked norm's centred input and its square while it is
    formed; the untracked ones first, after which its roots are freed),
    the keys and values (n x d each, each from its parts, all rebuilt
    before they are put in place: the unselected (n - k) x d and the
    selected k x d; the norms are freed once the values' parts are
    formed), live until its head loop ends, the GELU derivative that a
    rebuild or the GELU's own backward forms (one rows x cols array, held
    until it becomes the GELU's input gradient), the scratch of the
    pass that forms it and of a value it forms in place (one row block of
    GELU_BLOCK_BYTES or one row each, freed when the pass returns), and a
    select_rows's input gradient (the input's shape, one per feed-forward
    row block, summed into the input's pending gradient).
    """
    last_use: dict[int, int] = {}
    for node in tape.nodes:
        last_use[node.idx] = node.idx
        for inp in node.inputs:
            last_use[inp.idx] = node.idx
    retained = _retained_for_backward(tape)

    running = 0
    peak = 0
    max_node_bytes = 0
    for node in tape.nodes:
        nbytes = node.nbytes
        max_node_bytes = max(max_node_bytes, nbytes)
        taken = node.inputs[0] if node.meta.get("in_place") else None
        if node.op != "param" and taken is None:
            running += nbytes
        running += node.fresh_bytes
        peak = max(peak, running)
        for dead in {*node.inputs, node}:
            if (last_use[dead.idx] == node.idx and dead.op != "param"
                    and dead.idx not in retained and dead is not taken):
                running -= dead.nbytes
    retained_end = running
    peak = max(peak, retained_end + 2 * max_node_bytes)
    return peak, retained_end
