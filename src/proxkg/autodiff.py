"""Minimal dense-tensor engine with reverse-mode gradient accumulation.

Tensors wrap contiguous numpy arrays (float64 by default). A tensor holds its
``data``, ``requires_grad`` and ``grad``; a differentiable op gives its output
a graph node, which holds no array: the op's backward closure, its parents'
nodes and a released flag. Each closure captures only the arrays its backward
reads (``tanh`` its output, ``affine`` x and W, ``edge_sum`` the tables only
when the weights need a gradient), so an intermediate that no backward reads
is freed as soon as the forward drops it. A backward lets go of an array once
it has read it: ``affine`` computes x^T g and drops x before it allocates
g W^T, and ``conv2d`` drops its input columns before the column gradient.

``backward()`` on a scalar root walks the nodes in reverse topological order
and releases the graph as it goes: each node drops its closure and its parents
when the walk reaches it, so what the closure captured is freed as soon as its
backward is done. A graph is walked once: a later ``backward()`` that reaches a
released node raises ``RuntimeError``. A leaf, a tensor that requires a
gradient and is no op's output, gets a node on first use that refers to it
weakly. Once every node that takes a leaf as a parent has been released,
whether or not that node's backward ran, the walk adds the leaf's gradient to
its ``grad`` and calls ``backward``'s optional callback with the leaf, so a
caller can update each parameter as soon as its gradient is final.

A backward owns the gradient ``g`` it receives and may overwrite it, so
``tanh``, ``relu``, ``dropout`` and ``conv2d_relu`` scale ``g`` in place and
the walk sums a node's gradients with ``+=``. The one op that passes ``g`` to
two parents, ``add``, gives its second parent a copy.

Each op takes the one operand form the model sends and rejects any other in
its forward pass: ``add`` and ``mul`` take operands of one shape, and only
``affine``'s bias, one value per output column, broadcasts. Message passing
runs on two edge ops over a message given as terms, a list of (table, ids)
pairs whose rows sum to each edge's message: ``edge_sum`` (one SpMM per term,
with CSR matrices built by ``_csr`` straight from the edge arrays) and
``edge_dot`` (an SDDMM that gathers the anchor rows once per block of edges
for all the terms), each the other's backward. Any edge order is correct;
edges sorted by destination are the fast case. ``encoder.RelationalAdjacency``
sorts the train edges so once, and each step's edge-dropout view (its
``kept``) selects along that order, so no step sorts.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy import sparse

DEFAULT_DTYPE = np.float64


class _Node:
    """A tensor's place in the graph; it holds no array.

    ``backward`` maps the output's gradient to one gradient, or None, per
    parent; ``parents`` holds each parent's node in that order, None for a
    constant. A leaf's node has no backward, and ``leaf`` refers weakly to
    its tensor. ``released`` is set once the walk has passed the node.
    """

    __slots__ = ("backward", "parents", "released", "leaf")

    def __init__(self, backward=None, parents=(), leaf=None):
        self.backward = backward
        self.parents = parents
        self.released = False
        self.leaf = leaf


class Tensor:
    """Dense n-d array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, _node=None):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = _node

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # The node's closure and parents, as attributes of the tensor: perfbench/spans.py and
    # tools/opsplit.py wrap an op's backward by assigning out._backward.
    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, backward):
        if self._node is None:
            self._node = _Node()
        self._node.backward = backward

    @property
    def _parents(self):
        return () if self._node is None else self._node.parents

    @_parents.setter
    def _parents(self, parents):
        if self._node is None:
            self._node = _Node()
        self._node.parents = parents

    def backward(self, on_leaf=None):
        """Accumulate gradients of this scalar into all reachable leaves, releasing the graph.

        ``on_leaf``, if given, is called with each leaf as soon as every node
        that takes it as a parent has been released; its ``grad`` is final then.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.data.shape}")
        root = _graph_node(self)
        if root is None:
            return
        if root.leaf is not None:
            _finish_leaf(root, np.ones_like(self.data), on_leaf)
            return
        topo, uses = _topo_order(root)
        grads = {id(root): np.ones_like(self.data)}
        while topo:
            _run_last(topo, grads, uses, on_leaf)


def _graph_node(t: Tensor) -> _Node | None:
    """t's node: its op's, or its leaf node, made on first use, if t requires a gradient.

    None for a constant.
    """
    if t._node is None and t.requires_grad:
        t._node = _Node(leaf=weakref.ref(t))
    return t._node


def _topo_order(root: _Node) -> tuple[list, dict]:
    """Every op node reachable from root, each after all of its parents, and for each
    leaf node reached the number of parent slots of those nodes that name it.

    Raises RuntimeError on a node an earlier backward has released, whose
    gradient could no longer reach the leaves.
    """
    topo, uses = [], {}
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.released:
            raise RuntimeError("backward already ran through this tensor; rebuild the graph first")
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is None:
                continue
            if p.leaf is not None:
                uses[id(p)] = uses.get(id(p), 0) + 1
            elif id(p) not in visited:
                stack.append((p, False))
    return topo, uses


def _run_last(topo: list, grads: dict, uses: dict, on_leaf) -> None:
    """Pop the last node of topo, release it, run its backward and hand each parent its gradient.

    A function of its own, so no reference to the closure or the gradients
    outlives the call. The node drops its closure and parents before the
    backward runs, and the closure is let go as soon as it returns, so what
    it captured is freed then. A leaf whose last consumer this node was is
    finished: see ``_finish_leaf``.
    """
    node = topo.pop()
    g = grads.pop(id(node), None)
    backward, parents = node.backward, node.parents
    node.backward, node.parents, node.released = None, (), True
    parent_grads = [None] * len(parents) if g is None else backward(g)
    del backward, g
    for parent, pg in zip(parents, parent_grads, strict=True):
        if parent is None:
            continue
        key = id(parent)
        if pg is not None:
            if key in grads:
                grads[key] += pg
            else:
                grads[key] = pg
        if parent.leaf is not None:
            uses[key] -= 1
            if not uses[key]:
                del uses[key]
                _finish_leaf(parent, grads.pop(key, None), on_leaf)


def _finish_leaf(node: _Node, g, on_leaf) -> None:
    """Add g, if any, to the leaf's ``grad`` and call ``on_leaf`` with the leaf.

    A leaf its caller has dropped is skipped: nothing can read its gradient.
    """
    tensor = node.leaf()
    if tensor is None:
        return
    if g is not None:
        tensor.grad = g if tensor.grad is None else tensor.grad + g
    if on_leaf is not None:
        on_leaf(tensor)


def _needs_grad(*tensors):
    """Whether an op on these records a node; on a released one it does, so backward raises."""
    return any(t.requires_grad or t._node is not None for t in tensors)


def _make(data, parents, backward):
    """The op's output; it gets a node of ``backward`` over ``parents`` if one of them needs a
    gradient. ``backward`` returns one gradient, or None, per parent, in order."""
    if _needs_grad(*parents):
        return Tensor(data, _node=_Node(backward, tuple(_graph_node(p) for p in parents)))
    return Tensor(data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op} expects operands of one shape, got {a.data.shape} and {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = a.data + b.data

    def bw(g):
        return [g, g.copy()]

    return _make(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    x, y = a.data, b.data
    out = x * y

    def bw(g):
        return [g * y, g * x]

    return _make(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bw(g):
        return [g * c]

    return _make(out, (a,), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a + (-b), which is a - b bit for bit; kept because perfbench/spans.py traces it by name."""
    return add(a, scale(b, -1.0))


def affine(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W + b, the bias added in place to the fresh product so the output is written once.

    b, if given, holds one value per column of W and is added to every row
    of the product. The backward is x^T g, then, with x let go, g W^T and
    the column sum of g.
    """
    if x.data.ndim != 2 or W.data.ndim != 2:
        raise ValueError("affine expects 2-d operands")
    if x.data.shape[1] != W.data.shape[0]:
        raise ValueError(f"affine inner dims differ: {x.data.shape} vs {W.data.shape}")
    if b is not None and b.data.shape != W.data.shape[1:]:
        raise ValueError(f"affine expects a bias of shape {W.data.shape[1:]}, got {b.data.shape}")
    rows, weights, bias = x.data, W.data, b is not None
    out = rows @ weights
    if bias:
        out += b.data

    def bw(g):
        nonlocal rows
        g_weights = rows.T @ g
        rows = None             # read: x is not alive beside g W^T
        grads = [g @ weights.T, g_weights]
        return grads + [g.sum(axis=0)] if bias else grads

    return _make(out, (x, W, b) if bias else (x, W), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b: ``affine`` without a bias."""
    return affine(a, b)


def transpose(a: Tensor) -> Tensor:
    out = a.data.T

    def bw(g):
        return [g.T]

    return _make(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    in_shape = a.data.shape

    def bw(g):
        return [g.reshape(in_shape)]

    return _make(out, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bw(g):
        return np.split(g, offsets, axis=axis)

    return _make(out, tuple(tensors), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    in_shape = a.data.shape

    def bw(g):
        if axis is None:
            return [np.broadcast_to(g, in_shape).copy()]
        return [np.broadcast_to(np.expand_dims(g, axis), in_shape).copy()]

    return _make(out, (a,), bw)


def mean(a: Tensor) -> Tensor:
    """tsum(a) / a.data.size as a scale; kept because perfbench/spans.py traces it by name."""
    return scale(tsum(a), 1.0 / a.data.size)


def log(a: Tensor) -> Tensor:
    x = a.data
    out = np.log(x)

    def bw(g):
        return [g / x]

    return _make(out, (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def bw(g):
        return [g * inside]

    return _make(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        slope = out * out
        np.subtract(1.0, slope, out=slope)
        g *= slope
        return [g]

    return _make(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); the backward reads the output, which is positive exactly where a is."""
    out = np.maximum(a.data, 0.0)

    def bw(g):
        g *= out > 0.0
        return [g]

    return _make(out, (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, in two temporaries.

    z = exp(-|x|) never overflows: 1 / (1 + z) where x >= 0, z / (1 + z) elsewhere.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.where(x >= 0, 1.0, z)
    z += 1.0
    out /= z
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bw(g):
        return [g * out * (1.0 - out)]

    return _make(out, (a,), bw)


def bce_with_logits(logits: Tensor, targets, floor: float = 0.0) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against the constant targets
    t = floor + targets, ``targets`` being a SciPy sparse [B, n] array.

    Each cell is max(x, 0) - t x + log1p(exp(-|x|)), computed from the logit
    x, so it neither overflows nor saturates: a confidently wrong cell keeps
    its full loss and gradient. The backward over the N cells is (sigmoid(x) - t) g / N.
    """
    x = logits.data
    if x.shape != targets.shape:
        raise ValueError(f"logits {x.shape} and targets {targets.shape} differ in shape")
    t = sparse.coo_array(targets)
    t.sum_duplicates()              # one stored value per cell, so forward and backward agree
    at = (t.row, t.col)
    cells = np.abs(x)
    np.negative(cells, out=cells)
    np.exp(cells, out=cells)
    np.log1p(cells, out=cells)
    tmp = np.maximum(x, 0.0)
    cells += tmp
    np.multiply(x, floor, out=tmp)
    cells -= tmp
    cells[at] -= t.data * x[at]
    out = cells.mean()
    answers = t.data

    def bw(g):
        grad = _sigmoid(x)
        grad -= floor
        grad[at] -= answers
        grad *= g / x.size
        return [grad]

    return _make(out, (logits,), bw)


MASK_BLOCK = 2 ** 16     # uniform draws per block of a dropout mask: a 512 KiB scratch array


def _keep_mask(shape, rate: float, key: tuple[int, int] | None, layer_id: int):
    """Dropout's keep mask for (seed, layer_id, step), or None when nothing drops.

    Nothing drops without a key (evaluation) or at rate 0. The mask depends
    only on (seed, layer_id, step), so replays are bit-identical regardless
    of execution order or thread count. It is filled MASK_BLOCK cells at a
    time from one Philox stream, so no float64 array the size of the mask
    is made.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if key is None or rate == 0.0:
        return None
    seed, step = key
    words = [seed & 0xFFFFFFFFFFFFFFFF, (layer_id & 0xFFFFFFFF) << 32 | (step & 0xFFFFFFFF)]
    rng = np.random.Generator(np.random.Philox(key=np.array(words, dtype=np.uint64)))
    keep = np.empty(shape, dtype=bool)      # one byte per cell
    cells = keep.reshape(-1)
    draws = np.empty(max(1, min(cells.size, MASK_BLOCK)))
    for s in range(0, cells.size, len(draws)):
        block = draws[:cells.size - s]
        rng.random(out=block)               # the stream goes on where the last block stopped
        np.greater_equal(block, rate, out=cells[s:s + len(block)])
    return keep


def dropout(a: Tensor, rate: float, key: tuple[int, int] | None, layer_id: int) -> Tensor:
    """Inverted dropout with a counter-based generator, keyed by (seed, step).

    Without a key (evaluation) the op is the identity. The backward scales g
    in place by the same factor and mask.
    """
    keep = _keep_mask(a.data.shape, rate, key, layer_id)
    if keep is None:
        return a
    factor = 1.0 / (1.0 - rate)
    out = a.data * factor
    out *= keep

    def bw(g):
        g *= factor
        g *= keep
        return [g]

    return _make(out, (a,), bw)


def _row_ids(ids, n: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError("row id out of range")
    return ids


def _csr(values, rows, cols, shape) -> sparse.csr_array:
    """The CSR array holding values[k] at (rows[k], cols[k]), duplicate cells kept apart.

    indptr is the running sum of a bincount of rows, so neither SciPy's COO
    conversion nor its per-row column sort runs; rows out of order are first
    put in order by a stable argsort. Each row keeps its entries in edge order.
    """
    rows = np.asarray(rows)
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        values, rows, cols = values[order], rows[order], cols[order]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_array((values, cols, indptr), shape=shape)


def gather_rows(table: Tensor, ids) -> Tensor:
    """The rows ids of a 2-d table; the backward is A^T @ g, A the CSR array with 1 at (k, ids[k]).

    Each table row sums its gradients in index order, bit for bit as np.add.at.
    """
    if table.data.ndim != 2 or np.ndim(ids) != 1:
        raise ValueError(f"gather_rows expects a 2-d table and 1-d ids: {table.data.shape}, {np.shape(ids)}")
    n = table.data.shape[0]
    ids = _row_ids(ids, n)
    out = table.data[ids]

    def bw(g):
        A = _csr(np.ones(len(ids)), np.arange(len(ids)), ids, (len(ids), n))
        return [A.T @ g]

    return _make(out, (table,), bw)


ROW_BLOCK_BYTES = 2 ** 19   # each of _row_dots' two gathered [rows, d] float64 blocks: 512 KiB,
                            # so both stay in a 1 MiB or larger L2 cache (327 rows at d=200)


def _row_dots(a, ia, terms) -> np.ndarray:
    """out[k] = <a[ia[k]], b[ib[k]]> summed over the (b, ib) pairs of terms, term by term.

    A block of edges at a time, the a rows are gathered once into one
    preallocated block and each term's rows in turn into the other. The ids
    are already range-checked, so np.take clips nothing and writes in place.
    """
    n, d = len(ia), a.shape[1]
    size = max(1, min(n, ROW_BLOCK_BYTES // (8 * max(d, 1))))
    rows_a, rows_b = np.empty((size, d)), np.empty((size, d))
    out, dots = np.empty(n, dtype=DEFAULT_DTYPE), np.empty(size)
    for s in range(0, n, size):
        block, m = slice(s, s + size), min(size, n - s)
        np.take(a, ia[block], axis=0, out=rows_a[:m], mode="clip")
        for t, (b, ib) in enumerate(terms):
            np.take(b, ib[block], axis=0, out=rows_b[:m], mode="clip")
            dot = np.einsum("ij,ij->i", rows_a[:m], rows_b[:m], out=dots[:m] if t else out[block])
            if t:
                out[block] += dot
    return out


def _products_sum(mats, tables) -> np.ndarray:
    """The sum of the sparse-dense products mats[t] @ tables[t], in term order."""
    out = mats[0] @ tables[0]
    for A, table in zip(mats[1:], tables[1:]):
        out += A @ table
    return out


def _edge_terms(terms, n_edges: int, op: str, width: int | None = None) -> list:
    """terms with range-checked ids: 2-d tables of one width (``width`` if given), one id per edge."""
    if not terms:
        raise ValueError(f"{op} expects at least one (table, ids) term")
    shape = terms[0][0].data.shape[1:] if width is None else (width,)
    checked = []
    for table, ids in terms:
        if table.data.ndim != 2 or table.data.shape[1:] != shape:
            raise ValueError(f"{op} expects 2-d tables of one width, got {table.data.shape}")
        ids = _row_ids(ids, table.data.shape[0])
        if ids.shape != (n_edges,):
            raise ValueError(f"{op} expects one row id of each table per edge")
        checked.append((table, ids))
    return checked


def edge_sum(weights: Tensor, dst, terms, n: int) -> Tensor:
    """out[i] = sum of weights[k] * message[k] over the edges k with dst[k] = i,
    message[k] being the sum of table[ids[k]] over the (table, ids) terms.

    One SpMM per term with the [n, len(table)] CSR matrix holding weights[k]
    at (dst[k], ids[k]). The backward is A^T @ g for each table and, only
    when the weights need a gradient, the per-edge row dot <g[dst[k]],
    message[k]> (an SDDMM, see edge_dot).
    """
    dst = _row_ids(dst, n)
    if weights.data.shape != dst.shape:
        raise ValueError("edge_sum expects one weight per edge")
    terms = _edge_terms(terms, len(dst), "edge_sum")
    tables = tuple(table for table, _ in terms)
    mats = [_csr(weights.data, dst, ids, (n, table.data.shape[0])) for table, ids in terms]
    out = _products_sum(mats, [table.data for table in tables])
    rows = [(table.data, ids) for table, ids in terms] if _needs_grad(weights) else None

    def bw(g):
        g_weights = None if rows is None else _row_dots(g, dst, rows)
        return [A.T @ g for A in mats] + [g_weights]

    return _make(out, tables + (weights,), bw)


def edge_dot(a: Tensor, ia, terms) -> Tensor:
    """out[k] = <a[ia[k]], message[k]>, message[k] being the sum of table[ids[k]] over the
    (table, ids) terms: an SDDMM that gathers a's rows once per block of edges.

    The backward is the SpMMs S @ table and S^T @ a per term (see edge_sum),
    with the [len(a), len(table)] CSR matrix S holding g[k] at (ia[k], ids[k]).
    """
    if a.data.ndim != 2:
        raise ValueError("edge_dot expects a 2-d anchor table")
    ia = _row_ids(ia, a.data.shape[0])
    terms = _edge_terms(terms, len(ia), "edge_dot", a.data.shape[1])
    anchors, rows = a.data, [(table.data, ids) for table, ids in terms]
    out = _row_dots(anchors, ia, rows)

    def bw(g):
        mats = [_csr(g, ia, ids, (len(anchors), len(table))) for table, ids in rows]
        g_a = _products_sum(mats, [table for table, _ in rows])
        return [g_a] + [S.T @ anchors for S in mats]

    return _make(out, (a,) + tuple(table for table, _ in terms), bw)


def segment_weighted_sum(values: Tensor, weights: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment sum of weights[i] * values[i]; empty segments give zero rows.

    The edge_sum of one edge per value row. Nothing in proxkg calls it; it
    stays because perfbench/spans.py traces it by name.
    """
    return edge_sum(weights, segments, [(values, np.arange(values.data.shape[0]))], num_segments)


def segment_softmax(scores: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax within each segment, with per-segment max subtraction."""
    segments = np.asarray(segments, dtype=np.int64)
    if scores.data.ndim != 1 or scores.data.shape[0] != segments.shape[0]:
        raise ValueError("scores must be 1-d and align with segments")
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, scores.data)
    ex = np.exp(scores.data - seg_max[segments])
    denom = np.bincount(segments, weights=ex, minlength=num_segments)
    out = ex / denom[segments]

    def bw(g):
        dot = np.bincount(segments, weights=g * out, minlength=num_segments)
        return [out * (g - dot[segments])]

    return _make(out, (scores,), bw)


def conv2d(inp: Tensor, filters: Tensor) -> Tensor:
    """Valid 2-d cross-correlation, stride 1, no padding.

    inp: [B, C_in, H, W], filters: [C_out, C_in, k, k] -> [B, C_out, H-k+1, W-k+1].
    The forward is one batched GEMM, filters [C_out, C_in*k*k] times the
    [B, C_in*k*k, oh*ow] columns of the window view, so the output is
    C-contiguous and flattens per row without a copy. The backward mirrors
    it with two GEMMs: the filter gradient is g [B, C_out, oh*ow] contracted
    with those columns over the batch and the positions, and then, with the
    columns let go, the column gradient filters^T @ g is added back onto the
    k x k input cells each window covers (the adjoint of the window map).
    """
    if inp.data.ndim != 4 or filters.data.ndim != 4:
        raise ValueError("conv2d expects 4-d input and filters")
    B, C_in, H, W = inp.data.shape
    f_shape = C_out, C_in_f, kh, kw = filters.data.shape
    if C_in != C_in_f:
        raise ValueError(f"channel mismatch: input {C_in}, filters {C_in_f}")
    if kh > H or kw > W:
        raise ValueError(f"kernel {kh}x{kw} larger than input {H}x{W}")
    windows = np.lib.stride_tricks.sliding_window_view(inp.data, (kh, kw), axis=(2, 3))
    oh, ow = windows.shape[2:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(B, C_in * kh * kw, oh * ow)
    flat_filters = filters.data.reshape(C_out, C_in * kh * kw)
    out = np.matmul(flat_filters, cols).reshape(B, C_out, oh, ow)

    def bw(g):
        nonlocal cols
        g = g.reshape(B, C_out, oh * ow)
        g_filters = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(f_shape)
        cols = None             # read: the columns are not alive beside their gradient
        g_cols = np.matmul(flat_filters.T, g).reshape(B, C_in, kh, kw, oh, ow)
        g_inp = np.zeros((B, C_in, H, W))
        for i, j in np.ndindex(kh, kw):
            g_inp[:, :, i:i + oh, j:j + ow] += g_cols[:, :, i, j]
        return [g_inp, g_filters]

    return _make(out, (inp, filters), bw)


def conv2d_relu(inp: Tensor, filters: Tensor, rate: float = 0.0,
                key: tuple[int, int] | None = None, layer_id: int = 0) -> Tensor:
    """dropout(relu(conv2d(inp, filters)), rate, key, layer_id), all in place on the
    convolution's fresh output.

    conv2d's backward reads only the input windows and the filters, never its
    output, so the map is written once. When a graph is recorded the op keeps
    one boolean mask, the cells still positive after dropout, and the
    backward scales g in place by the dropout factor and that mask before
    passing it on to conv2d's backward.
    """
    conv = conv2d(inp, filters)
    out = np.maximum(conv.data, 0.0, out=conv.data)
    keep = _keep_mask(out.shape, rate, key, layer_id)
    factor = 1.0
    if keep is not None:
        factor = 1.0 / (1.0 - rate)
        out *= factor
        out *= keep
    if not _needs_grad(inp, filters):
        return Tensor(out)
    live = out > 0.0
    conv_backward = conv._backward      # not conv itself, which would keep out alive

    def bw(g):
        if factor != 1.0:       # scaling by 1.0 would change nothing
            g *= factor
        g *= live
        return conv_backward(g)

    return _make(out, (inp, filters), bw)
