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
arrays a save *is* (an operand's array or the op's own output):
``retains``; and the bytes of every other save, arrays the op allocated
for backward alone: ``fresh_bytes``. Each op's save policy is thus stated
once, in the op, and both :func:`simulate_peak_bytes` and
:meth:`Tape.retained_bytes` read it from the nodes. Parameters can be
retained but are resident regardless of backward, so neither charges
them.

Cache policy per primitive, as (what backward reads):
    matmul         lhs iff rhs needs grad, rhs iff lhs needs grad
    add            nothing (gradient passes through / column-sums)
    affine         x @ w, its LoRA delta ((x @ a) @ b) * s and its bias
                   summed in one array, one node. Tracked, it saves w, a
                   and b (references to parameters); x iff w or a needs
                   grad, except an x that is a tracked layer_norm's or
                   GELU's output: backward rebuilds that from the node's
                   saves, bit for bit (the recompute trade of Chen et al.
                   2016), forms dA and dW from it and frees it before dX;
                   and x @ a (fresh, rows x rank) iff b needs grad
    elementwise    gelu: its input (a reference). The erf pass that
                   rebuilds its output for an affine also yields its
                   derivative, which its backward then multiplies by g in
                   place; unread by such an affine, it runs that pass
                   itself. scale: nothing (constant factor)
    softmax_rows   its output, not its input
    attention      saves per (head, query row) the softmax max and sum
                   (two fresh heads x rows arrays), if causal a copy of
                   the queries' positions (8 bytes per row), q and k
                   always, v iff q or k needs grad (references, not
                   copies). Backward rebuilds each block's probabilities
                   from them one head at a time (Dao et al. 2022)
    layer_norm     normalized input, per-row inverse std, the scale and
                   shift vectors
    select/concat  nothing (integer metadata and the input's shape)
    mean_rows      nothing
    cross_entropy  the softmax probabilities (log-softmax is fused)

Nodes recorded while gradients are disabled (`with tape.no_grad(): ...`)
have ``requires_grad = False``, save nothing, and act as constants during
backward; a no-grad forward keeps nothing beyond the handles its caller
holds. Recording and backward are single-threaded per tape; independent
tapes are safe to use concurrently.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Additive pre-softmax mask value; finite (keeps matrices NaN/Inf-free)
#: but large enough that exp() underflows to exactly 0 in float32/float64.
MASK_VALUE = -1e30

#: Query rows per attention block. A causal block computes and
#: backpropagates scores only up to the last key any of its rows can see,
#: so wholly masked key tiles (most of a causal mask's upper triangle) cost
#: nothing, as in FlashAttention's block skipping (Dao et al. 2022).
ATTENTION_BLOCK_ROWS = 64

#: Added to a layer norm's variance before its inverse square root.
LAYER_NORM_EPS = 1e-5


def gelu_array(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU on a plain array: the value of `Tape.gelu`.

    0.5 * x * (1 + erf(x / sqrt 2)), computed in place in its output, so it
    allocates nothing else; halving is exact, so the result equals the
    three-temporary expression bit for bit."""
    out = np.multiply(x, _INV_SQRT2)
    erf(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GELU(x), GELU'(x)) from one erf pass, in two arrays.

    With phi = 0.5 * (1 + erf(x / sqrt 2)) and dens the standard normal
    density at x, the output phi * x equals :func:`gelu_array` bit for bit
    (halving is exact outside the subnormal range), and the derivative
    phi + x * dens keeps the order of operations of that expression
    (addition commutes exactly), so g * derivative is unchanged too."""
    phi = np.multiply(x, _INV_SQRT2)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    deriv = np.multiply(x, -0.5)
    deriv *= x
    np.exp(deriv, out=deriv)
    deriv *= _INV_SQRT2PI
    deriv *= x
    deriv += phi
    phi *= x
    return phi, deriv


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


def _block_mask(positions, hi: int, dtype) -> np.ndarray:
    """The additive causal mask of one block of queries at `positions`
    over its first hi keys (rows x hi): 0 where a key lies at or before
    the query's position, MASK_VALUE past it. Formed once per block, and
    added to every head's scores."""
    zero, blocked = dtype.type(0), dtype.type(MASK_VALUE)
    return np.where(np.arange(hi) <= positions[:, None], zero, blocked)


def _block_scores(qb, kt, mask, out) -> None:
    """Scores of one block of scaled queries `qb` against the first hi
    keys into `out`: qb k^T, plus the block's `mask` when it has one.
    `qb` is heads x rows x head width with `kt` heads x head width x keys
    (the forward, every head at once), or rows x head width with
    head width x keys (the backward, one head). The two pass one head's
    operands to the same matmul, so their probabilities agree bit for
    bit."""
    np.matmul(qb, kt[..., :out.shape[-1]], out=out)
    if mask is not None:
        out += mask


def _rebuilt_in_backward(node: Node) -> bool:
    """True for a tracked layer_norm or GELU: an affine reading its output
    as x does not save it, and the affine's backward rebuilds it from the
    node's saves (:func:`_rebuilt_output`)."""
    return node.requires_grad and (node.op == "layer_norm"
                                   or node.meta.get("fn") == "gelu")


def _rebuilt_output(node: Node) -> np.ndarray:
    """The output of a node :func:`_rebuilt_in_backward` names, rebuilt
    from its saves so that it equals the forward's bit for bit: a layer
    norm's with the forward's own expression, a GELU's from the erf pass
    of :func:`_gelu_parts`. That pass also yields the GELU's derivative,
    which is left on the GELU's saves for its own backward, next on this
    path (another affine's rebuild replaces it)."""
    saved = dict(node._saved_arrays)
    if node.op == "layer_norm":
        return _layer_norm_output(saved["normalized"], saved["scale"],
                                  saved["shift"])
    out, deriv = _gelu_parts(saved["input"])
    node._saved_arrays = [("input", saved["input"]), ("derivative", deriv)]
    return out


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


def _scatter_rows(out: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """out[idx] += g for a zeroed `out`: plain assignment when `idx` has no
    repeats, np.add.at (much slower) only when it does."""
    if np.unique(idx).size == idx.size:
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


class Node:
    """One recorded operation (or leaf) in the tape's graph.

    A node holds what backward and the memory model read: the op, its
    input nodes, the output's shape and dtype, and metadata, but never the
    output array, which only its :class:`Tensor` handle owns.
    ``_saved_arrays`` holds the (role, array) pairs backward reads and is
    released as backward consumes the node; ``retains`` (node ids) and
    ``fresh_bytes`` account for them and persist (:meth:`keep_saves`).
    """

    __slots__ = (
        "idx", "op", "shape", "dtype", "requires_grad", "inputs", "meta",
        "retains", "fresh_bytes", "_saved_arrays", "label", "name",
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
        self.label = label
        self.name = name

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * self.dtype.itemsize

    def keep_saves(self, value: np.ndarray, inputs, saves) -> None:
        """Hold `saves`, the (role, array) pairs backward reads, and record
        what they keep alive: a save that is this node's output `value` or
        an operand's array (`inputs` are the operands' handles) retains
        that node's output; any other save is an allocation of its own,
        counted in ``fresh_bytes``."""
        self._saved_arrays = saves
        owners = [(value, self.idx)] + [(t.value, t.node.idx) for t in inputs]
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

    def _record(self, op, value, inputs, meta=None, saves=()) -> Tensor:
        """Append an op node; it keeps `saves` only if it requires grad.

        `inputs` are the operands' handles; the node keeps their nodes
        only. `saves` is a list of (role, array) pairs, what this op's
        backward rule reads.
        """
        if not _all_finite(value):
            raise NonFiniteError(op)
        tracked = self.grad_enabled and any(i.requires_grad for i in inputs)
        node = Node(len(self.nodes), op, value.shape, value.dtype, tracked,
                    (i.node for i in inputs), meta, label=self._label())
        if tracked:
            node.keep_saves(value, inputs, saves)
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
        1-row `bias`, formed in one output array and recorded as one node.

        The ufuncs and their order are those of the chain of matmul, scale
        and add nodes that states the same sum, with the sums taken in
        place, so the values are equal bit for bit; backward applies the
        chain's rules in the chain's order (:meth:`_backprop_affine`). The
        saves are listed in the module docstring."""
        _check_product("affine", x.value, w.value)
        z = x.value @ w.value
        inputs = [x, w]
        saves = [("w", w.value)]
        meta = {}
        needs_x = w.requires_grad
        if lora is not None:
            a, b, s = lora
            _check_product("affine", x.value, a.value)
            _check_product("affine", a.value, b.value)
            if b.value.shape[1] != z.shape[1]:
                raise ShapeError("affine", f"LoRA factor {b.value.shape} "
                                           f"for output {z.shape}")
            xa = x.value @ a.value
            t = xa @ b.value
            t *= float(s)
            z += t
            del t
            inputs += [a, b]
            saves += [("a", a.value), ("b", b.value)]
            if b.requires_grad:
                saves.append(("xa", xa))
            del xa
            meta["scaling"] = float(s)
            needs_x = needs_x or a.requires_grad
        if bias is not None:
            if bias.value.shape != (1, z.shape[1]) \
                    or bias.value.dtype != z.dtype:
                raise ShapeError("affine", f"bias {bias.value.shape} "
                                           f"{bias.value.dtype} for output "
                                           f"{z.shape} {z.dtype}")
            z += bias.value
            inputs.append(bias)
        if needs_x and not _rebuilt_in_backward(x.node):
            saves.append(("x", x.value))
        return self._record("affine", z, inputs, meta, saves)

    def scale(self, a: Tensor, c: float) -> Tensor:
        return self._record("elementwise", a.value * float(c), (a,),
                            {"fn": "scale", "c": float(c)})

    def gelu(self, a: Tensor) -> Tensor:
        x = a.value
        return self._record("elementwise", gelu_array(x), (a,), {"fn": "gelu"},
                            saves=[("input", x)])

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
        ATTENTION_BLOCK_ROWS, every head in one batched matmul, over only
        the keys some row of the block sees (:func:`_attention_spans`),
        in one reused block buffer; a key past a query's position gets
        the score MASK_VALUE. A tracked node saves each (head, row)'s
        softmax max and sum and, if causal, a copy of `positions`, from
        which backward rebuilds the probabilities.
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
        row_max = np.empty((n_heads, m), qv.dtype)
        row_sum = np.empty((n_heads, m), qv.dtype)
        out = np.empty((m, d), qv.dtype)
        qh = _heads(qv, n_heads)
        kt = _heads(kv, n_heads).transpose(0, 2, 1)
        vh, oh = _heads(vv, n_heads), _heads(out, n_heads)
        buf = np.empty(max((n_heads * (r1 - r0) * hi for r0, r1, hi in spans),
                           default=0), qv.dtype)
        for r0, r1, hi in spans:
            s = buf[:n_heads * (r1 - r0) * hi].reshape(n_heads, r1 - r0, hi)
            mask = (None if positions is None
                    else _block_mask(positions[r0:r1], hi, qv.dtype))
            # q is scaled a block at a time: the product is elementwise, so
            # the values are those of scaling all of q, without its copy
            _block_scores(qh[:, r0:r1] * scale, kt, mask, s)
            if not _all_finite(s):
                raise NonFiniteError("attention", f"scores of rows {r0}:{r1}")
            top = s.max(axis=2, keepdims=True)
            s -= top
            np.exp(s, out=s)
            total = s.sum(axis=2, keepdims=True)
            s /= total
            row_max[:, r0:r1] = top[..., 0]
            row_sum[:, r0:r1] = total[..., 0]
            np.matmul(s, vh[:, :hi], out=oh[:, r0:r1])
        saves = [("row_max", row_max), ("row_sum", row_sum),
                 ("q", qv), ("k", kv)]
        if positions is not None:
            saves.append(("positions", positions))
        if q.requires_grad or k.requires_grad:
            saves.append(("v", vv))
        return self._record("attention", out, (q, k, v),
                            {"n_heads": n_heads, "scale": scale,
                             "spans": spans}, saves)

    def layer_norm(self, x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
        d = x.value.shape[1]
        if gamma.value.shape != (1, d) or beta.value.shape != (1, d):
            raise ShapeError("layer_norm",
                             f"x {x.value.shape}, scale {gamma.value.shape}, "
                             f"shift {beta.value.shape}")
        mu = x.value.mean(axis=1, keepdims=True)
        xhat = x.value - mu
        var = (xhat * xhat).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat *= inv  # centred input, normalized in place
        out = _layer_norm_output(xhat, gamma.value, beta.value)
        saves = [("normalized", xhat), ("inv_std", inv),
                 ("scale", gamma.value), ("shift", beta.value)]
        return self._record("layer_norm", out, (x, gamma, beta),
                            saves=saves)

    def select_rows(self, a: Tensor, idx) -> Tensor:
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

    def concat_rows(self, parts: list[Tensor]) -> Tensor:
        if not parts:
            raise ShapeError("concat_rows", "no parts")
        cols = parts[0].value.shape[1]
        if any(p.value.shape[1] != cols for p in parts):
            raise ShapeError("concat_rows",
                             f"column mismatch: {[p.value.shape for p in parts]}")
        out = np.concatenate([p.value for p in parts], axis=0)
        sizes = [p.value.shape[0] for p in parts]
        return self._record("concat_rows", out, parts, {"sizes": sizes})

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
        """Summed negative log-likelihood over rows; log-softmax is fused."""
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
        probs = np.exp(logits.value - lse)
        return self._record("cross_entropy", loss, (logits,),
                            {"targets": t}, saves=[("probs", probs)])

    # ---- backward --------------------------------------------------------

    def backward(self, loss: Tensor,
                 into: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """Reverse accumulation from a scalar loss node.

        Each trainable parameter's gradient is added into ``into[name]``
        in place (or stored there, if the name is missing) as soon as the
        reverse sweep reaches the parameter, so no parameter gradient is
        held past its own node. Returns `into`, or a fresh dict of the
        gradients, keyed by name, when none is passed. If an exception
        stops the sweep, `into` keeps what was already added. Nodes with
        ``requires_grad = False`` are constants: their inputs receive no
        contribution. Gradients w.r.t. tracked non-parameter leaves are
        kept for inspection via :meth:`grad_of`.
        """
        if self._backward_done:
            raise BackwardError("backward already ran on this tape; re-record first")
        if loss.value.shape != (1, 1):
            raise BackwardError(f"loss must be 1x1, got {loss.value.shape}")
        if not loss.requires_grad:
            raise BackwardError("loss does not require grad")
        self._backward_done = True

        grads: dict[int, np.ndarray] = {
            loss.node.idx: np.ones((1, 1), dtype=loss.value.dtype)
        }
        store = {} if into is None else into
        self._leaf_grads = {}

        for node in reversed(self.nodes):
            g = grads.pop(node.idx, None)
            if g is None or not node.requires_grad:
                continue
            if node.op == "param":
                acc = store.get(node.name)
                if acc is None:
                    store[node.name] = g
                else:
                    acc += g
            elif node.op == "input":
                self._leaf_grads[node.idx] = g
            elif node.op == "const":
                pass
            else:
                self._backprop(node, g, grads)
                node._saved_arrays = None  # release the activation cache
        return store

    def grad_of(self, t: Tensor):
        """Gradient accumulated for a tracked input leaf (after backward)."""
        return self._leaf_grads.get(t.node.idx)

    @staticmethod
    def _accum(grads, node, contrib):
        if not node.requires_grad:
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
                # left by an affine's rebuild of this GELU's output, if any
                deriv = saved.get("derivative")
                if deriv is None:
                    deriv = _gelu_parts(saved["input"])[1]
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
            offset = 0
            for part, size in zip(node.inputs, node.meta["sizes"]):
                self._accum(grads, part, g[offset:offset + size])
                offset += size
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
        delta's add, scale and two matmuls, gs = g * s, dB = xa^T gs,
        dxa = gs B^T, dA = x^T dxa, dx += dxa A^T; then the base matmul,
        dW = x^T g, dx += g W^T. Each term of dx is its own accumulation,
        in that order, so x's gradient sums its readers' terms in the
        chain's order, bit for bit. A rebuilt x is formed once, for dA
        and dW, and freed before dx."""
        x, w, *rest = node.inputs
        s = node.meta.get("scaling")
        a, b = rest[:2] if s is not None else (None, None)
        bias = rest[-1] if len(rest) in (1, 3) else None
        train_a = a is not None and a.requires_grad
        if bias is not None and bias.requires_grad:
            self._accum(grads, bias, g.sum(axis=0, keepdims=True))
        dxa = None
        if s is not None and (x.requires_grad or train_a or b.requires_grad):
            gs = g * s
            if b.requires_grad:
                self._accum(grads, b, saved["xa"].T @ gs)
            if x.requires_grad or train_a:
                dxa = gs @ saved["b"].T
            del gs
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
        """Per row block, one head at a time, on 2-D slices over the
        block's first `hi` keys: rebuild p with the forward's own ops
        from q, k, the block's mask (if causal) and the saved row max and
        sum, then dv += p^T g, dp = g v^T,
        ds = p * (dp - rowsum(dp * p)), dq = scale * ds k,
        dk += ds^T (scale * q). Head h reads and writes columns
        h * w:(h + 1) * w of each operand and gradient (w the head
        width). Three rows x hi buffers of the largest block, for p, dp
        and dp * p, serve every (block, head), and p is overwritten with
        ds."""
        q, k, v = node.inputs
        n_heads = node.meta["n_heads"]
        scale = node.meta["scale"]
        spans = node.meta["spans"]
        positions = saved.get("positions")
        row_max, row_sum = saved["row_max"], saved["row_sum"]
        qv, kv, vv = saved["q"], saved["k"], saved.get("v")
        dq = np.empty(q.shape, q.dtype) if q.requires_grad else None
        dk = np.zeros(k.shape, k.dtype) if k.requires_grad else None
        dv = np.zeros(v.shape, v.dtype) if v.requires_grad else None
        w = q.shape[1] // n_heads
        size = max(((r1 - r0) * hi for r0, r1, hi in spans), default=0)
        p_buf, dp_buf, dpp_buf = (np.empty(size, node.dtype)
                                  for _ in range(3))
        for r0, r1, hi in spans:
            p, dp, dp_p = (buf[:(r1 - r0) * hi].reshape(r1 - r0, hi)
                           for buf in (p_buf, dp_buf, dpp_buf))
            mask = (None if positions is None
                    else _block_mask(positions[r0:r1], hi, node.dtype))
            for h in range(n_heads):
                c = slice(h * w, (h + 1) * w)
                qb = qv[r0:r1, c] * scale
                _block_scores(qb, kv[:, c].T, mask, p)
                p -= row_max[h, r0:r1, None]
                np.exp(p, out=p)
                p /= row_sum[h, r0:r1, None]
                gb = g[r0:r1, c]
                if dv is not None:
                    dv[:hi, c] += p.T @ gb
                if dq is None and dk is None:
                    continue
                np.matmul(gb, vv[:hi, c].T, out=dp)
                np.multiply(dp, p, out=dp_p)
                dp -= dp_p.sum(axis=1, keepdims=True)
                p *= dp
                if dq is not None:
                    np.matmul(p, kv[:hi, c], out=dq[r0:r1, c])
                if dk is not None:
                    dk[:hi, c] += p.T @ qb
        if dq is not None:
            dq *= scale
        for inp, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                self._accum(grads, inp, grad)

    # ---- introspection ---------------------------------------------------

    def retained_bytes(self) -> dict[tuple[str, str], int]:
        """Bytes live at backward entry by (region label, op kind): each
        retained output once, charged to the node that made it, and each
        fresh save, charged to the node that saved it. The last node (the
        loss) counts, so the values sum to ``simulate_peak_bytes(tape)[1]``.
        Read off the nodes, so the same before and after backward."""
        live = _retained_for_backward(self)
        out: dict[tuple[str, str], int] = {}
        for node in self.nodes:
            nbytes = node.fresh_bytes
            if node.idx in live and node.op != "param":
                nbytes += node.nbytes
            if nbytes:
                key = (node.label, node.op)
                out[key] = out.get(key, 0) + nbytes
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


def _retained_for_backward(tape: Tape) -> set[int]:
    """Ids of the nodes whose output is live at backward entry: each one a
    save retains, and the last (the loss, which backward starts from)."""
    live = {idx for node in tape.nodes for idx in node.retains}
    if tape.nodes:
        live.add(tape.nodes[-1].idx)
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
    largest node; parameter gradients are not charged, since backward adds
    each into the caller's accumulator as soon as it is complete.
    Parameters are excluded (accounted as persistent elsewhere); constants
    count until their last use. A feed-forward block run without gradients
    is recorded as row blocks (``model.FFN_BLOCK_ROWS``) joined by
    concat_rows, so the replay sees one block's hidden arrays live at a
    time, as they are.
    Temporaries inside an op are not modeled: softmax buffers,
    attention's block buffers (sized by the largest block: in forward one
    heads x ATTENTION_BLOCK_ROWS x hi block, in backward three
    ATTENTION_BLOCK_ROWS x hi head buffers), the scaled queries and a
    causal block's additive mask (ATTENTION_BLOCK_ROWS x hi), an affine's
    LoRA delta (one output-sized array in forward, and g * s in
    backward), a layer norm's or GELU's output that an affine's backward
    rebuilds (one rows x cols array, freed once that affine's weight or
    factor gradients are formed), and the GELU derivative that this
    rebuild or the GELU's own backward forms (one rows x cols array, held
    until it becomes the GELU's input gradient).
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
        if node.op != "param":
            running += nbytes
        running += node.fresh_bytes
        peak = max(peak, running)
        for dead in {*node.inputs, node}:
            if (last_use[dead.idx] == node.idx and dead.op != "param"
                    and dead.idx not in retained):
                running -= dead.nbytes
    retained_end = running
    peak = max(peak, retained_end + 2 * max_node_bytes)
    return peak, retained_end
