"""Minimal dense-tensor engine with reverse-mode gradient accumulation.

Tensors wrap contiguous numpy arrays (float64 by default). Every
differentiable op records a backward closure on the output tensor;
``backward()`` on a scalar root walks the graph in reverse topological
order and accumulates gradients into every ``requires_grad`` leaf.

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

import numpy as np
from scipy import sparse

DEFAULT_DTYPE = np.float64


class Tensor:
    """Dense n-d array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_backward_done")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.data.shape}")
        if self._backward_done:
            raise RuntimeError("backward already ran on this tensor; rebuild the graph first")
        self._backward_done = True

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if pg is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg


def _needs_grad(*tensors):
    return any(t.requires_grad or t._parents for t in tensors)


def _make(data, parents, backward):
    if any(_needs_grad(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op} expects operands of one shape, got {a.data.shape} and {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = a.data + b.data

    def bw(g):
        return [(a, g), (b, g)]

    return _make(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = a.data * b.data

    def bw(g):
        return [(a, g * b.data), (b, g * a.data)]

    return _make(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bw(g):
        return [(a, g * c)]

    return _make(out, (a,), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a + (-b), which is a - b bit for bit; kept because perfbench/spans.py traces it by name."""
    return add(a, scale(b, -1.0))


def affine(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W + b, the bias added in place to the fresh product so the output is written once.

    b, if given, holds one value per column of W and is added to every row
    of the product. The backward is g W^T, x^T g and the column sum of g.
    """
    if x.data.ndim != 2 or W.data.ndim != 2:
        raise ValueError("affine expects 2-d operands")
    if x.data.shape[1] != W.data.shape[0]:
        raise ValueError(f"affine inner dims differ: {x.data.shape} vs {W.data.shape}")
    if b is not None and b.data.shape != W.data.shape[1:]:
        raise ValueError(f"affine expects a bias of shape {W.data.shape[1:]}, got {b.data.shape}")
    out = x.data @ W.data
    if b is not None:
        out += b.data

    def bw(g):
        grads = [(x, g @ W.data.T), (W, x.data.T @ g)]
        if b is not None:
            grads.append((b, g.sum(axis=0)))
        return grads

    return _make(out, (x, W) if b is None else (x, W, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b: ``affine`` without a bias."""
    return affine(a, b)


def transpose(a: Tensor) -> Tensor:
    out = a.data.T

    def bw(g):
        return [(a, g.T)]

    return _make(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        return [(a, g.reshape(a.data.shape))]

    return _make(out, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return list(zip(tensors, np.split(g, offsets[1:-1], axis=axis)))

    return _make(out, tuple(tensors), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.data.shape).copy())]
        return [(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())]

    return _make(out, (a,), bw)


def mean(a: Tensor) -> Tensor:
    """tsum(a) / a.data.size as a scale; kept because perfbench/spans.py traces it by name."""
    return scale(tsum(a), 1.0 / a.data.size)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def bw(g):
        return [(a, g / a.data)]

    return _make(out, (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def bw(g):
        return [(a, g * inside)]

    return _make(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        return [(a, g * (1.0 - out * out))]

    return _make(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bw(g):
        return [(a, g * (a.data > 0.0))]

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
        return [(a, g * out * (1.0 - out))]

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

    def bw(g):
        grad = _sigmoid(x)
        grad -= floor
        grad[at] -= t.data
        grad *= g / x.size
        return [(logits, grad)]

    return _make(out, (logits,), bw)


def dropout(a: Tensor, rate: float, key: tuple[int, int] | None, layer_id: int) -> Tensor:
    """Inverted dropout with a counter-based generator, keyed by (seed, step).

    Without a key (evaluation) the op is the identity. The mask depends only on
    (seed, layer_id, step), so replays are bit-identical regardless of
    execution order or thread count.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if key is None or rate == 0.0:
        return a
    seed, step = key
    words = [seed & 0xFFFFFFFFFFFFFFFF, (layer_id & 0xFFFFFFFF) << 32 | (step & 0xFFFFFFFF)]
    rng = np.random.Generator(np.random.Philox(key=np.array(words, dtype=np.uint64)))
    keep = rng.random(a.data.shape) >= rate     # one byte per cell
    factor = 1.0 / (1.0 - rate)
    out = a.data * factor
    out *= keep

    def bw(g):
        grad = g * factor
        grad *= keep
        return [(a, grad)]

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
        return [(table, A.T @ g)]

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
    tables = [table for table, _ in terms]
    mats = [_csr(weights.data, dst, ids, (n, table.data.shape[0])) for table, ids in terms]
    out = _products_sum(mats, [table.data for table in tables])

    def bw(g):
        g_weights = None
        if _needs_grad(weights):
            g_weights = _row_dots(g, dst, [(table.data, ids) for table, ids in terms])
        return [(table, A.T @ g) for A, table in zip(mats, tables)] + [(weights, g_weights)]

    return _make(out, tuple(tables) + (weights,), bw)


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
    tables = [table for table, _ in terms]
    out = _row_dots(a.data, ia, [(table.data, ids) for table, ids in terms])

    def bw(g):
        mats = [_csr(g, ia, ids, (a.data.shape[0], table.data.shape[0])) for table, ids in terms]
        g_a = _products_sum(mats, [table.data for table in tables])
        return [(a, g_a)] + [(table, S.T @ a.data) for S, table in zip(mats, tables)]

    return _make(out, (a,) + tuple(tables), bw)


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
        return [(scores, out * (g - dot[segments]))]

    return _make(out, (scores,), bw)


def conv2d(inp: Tensor, filters: Tensor) -> Tensor:
    """Valid 2-d cross-correlation, stride 1, no padding.

    inp: [B, C_in, H, W], filters: [C_out, C_in, k, k] -> [B, C_out, H-k+1, W-k+1].
    The forward is one batched GEMM, filters [C_out, C_in*k*k] times the
    [B, C_in*k*k, oh*ow] columns of the window view, so the output is
    C-contiguous and flattens per row without a copy. The backward mirrors
    it with two GEMMs: the filter gradient is g [B, C_out, oh*ow] contracted
    with those columns over the batch and the positions, and the column
    gradient filters^T @ g is added back onto the k x k input cells each
    window covers (the adjoint of the window map).
    """
    if inp.data.ndim != 4 or filters.data.ndim != 4:
        raise ValueError("conv2d expects 4-d input and filters")
    B, C_in, H, W = inp.data.shape
    C_out, C_in_f, kh, kw = filters.data.shape
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
        g = g.reshape(B, C_out, oh * ow)
        g_filters = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(filters.data.shape)
        g_cols = np.matmul(flat_filters.T, g).reshape(B, C_in, kh, kw, oh, ow)
        g_inp = np.zeros_like(inp.data)
        for i, j in np.ndindex(kh, kw):
            g_inp[:, :, i:i + oh, j:j + ow] += g_cols[:, :, i, j]
        return [(inp, g_inp), (filters, g_filters)]

    return _make(out, (inp, filters), bw)


def conv2d_relu(inp: Tensor, filters: Tensor) -> Tensor:
    """relu(conv2d(inp, filters)), clamping the convolution's fresh output in place.

    conv2d's backward reads only the input windows and the filters, never its
    output, so the map is written once. The backward is g * (out > 0) passed
    on to conv2d's backward.
    """
    conv = conv2d(inp, filters)
    out = np.maximum(conv.data, 0.0, out=conv.data)

    def bw(g):
        return conv._backward(g * (out > 0.0))

    return _make(out, (inp, filters), bw)
