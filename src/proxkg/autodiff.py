"""Minimal dense-tensor engine with reverse-mode gradient accumulation.

Tensors wrap contiguous numpy arrays (float64 by default). Every
differentiable op records a backward closure on the output tensor;
``backward()`` on a scalar root walks the graph in reverse topological
order and accumulates gradients into every ``requires_grad`` leaf.

Broadcasting is restricted to the numpy trailing-dimension rule; anything
the model does not need is rejected early. Message passing runs on two edge
ops, ``edge_sum`` (an SpMM with a ``scipy.sparse`` CSR matrix) and
``edge_dot`` (an SDDMM in fixed-size edge chunks), each the other's backward.
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

    def zero_grad(self):
        self.grad = None
        self._backward_done = False

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


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data, parents, backward):
    if any(_needs_grad(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return _make(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        return [
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        ]

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

    b, if given, broadcasts over the rows of the product. The backward is
    g W^T, x^T g and the row sum of g.
    """
    if x.data.ndim != 2 or W.data.ndim != 2:
        raise ValueError("affine expects 2-d operands")
    if x.data.shape[1] != W.data.shape[0]:
        raise ValueError(f"affine inner dims differ: {x.data.shape} vs {W.data.shape}")
    out = x.data @ W.data
    if b is not None:
        out += b.data

    def bw(g):
        grads = [(x, g @ W.data.T), (W, x.data.T @ g)]
        if b is not None:
            grads.append((b, _unbroadcast(g, b.data.shape)))
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
    n = a.data.size
    out = a.data.mean()

    def bw(g):
        return [(a, np.full(a.data.shape, g / n))]

    return _make(out, (a,), bw)


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


def dropout(a: Tensor, rate: float, seed: int, layer_id: int, step: int, training: bool) -> Tensor:
    """Inverted dropout with a counter-based generator.

    The mask depends only on (seed, layer_id, step), so replays are
    bit-identical regardless of execution order or thread count.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return a
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, ((layer_id & 0xFFFFFFFF) << 32) | (step & 0xFFFFFFFF)],
                   dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = a.data * mask

    def bw(g):
        return [(a, g * mask)]

    return _make(out, (a,), bw)


def _row_ids(ids, n: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError("row id out of range")
    return ids


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup; the backward is A^T @ g with the CSR matrix A holding 1 at (k, ids[k]).

    As in edge_sum, each row sums its gradients in index order, bit for bit as np.add.at.
    """
    n = table.data.shape[0]
    ids = _row_ids(ids, n)
    out = table.data[ids]

    def bw(g):
        A = sparse.csr_array((np.ones(len(ids)), (np.arange(len(ids)), ids)), shape=(len(ids), n))
        rows = g.reshape(len(ids), int(np.prod(table.data.shape[1:])))
        return [(table, (A.T @ rows).reshape(table.data.shape))]

    return _make(out, (table,), bw)


EDGE_CHUNK = 1024   # edges per block of _row_dots: two [EDGE_CHUNK, d] float64 row blocks,
                    # 1024 x d x 8 bytes each, so 1.6 MB at d=200 and 4 MB at d=500


def _row_dots(a, ia, b, ib) -> np.ndarray:
    """out[k] = <a[ia[k]], b[ib[k]]>, gathering EDGE_CHUNK row pairs at a time."""
    out = np.empty(len(ia), dtype=DEFAULT_DTYPE)
    for s in range(0, len(ia), EDGE_CHUNK):
        block = slice(s, s + EDGE_CHUNK)
        out[block] = np.einsum("ij,ij->i", a[ia[block]], b[ib[block]])
    return out


def edge_sum(weights: Tensor, dst, src, x: Tensor, n: int) -> Tensor:
    """out[i] = sum of weights[k] * x[src[k]] over the edges k with dst[k] = i.

    An SpMM with the [n, len(x)] CSR matrix A holding weights[k] at
    (dst[k], src[k]), which sums duplicate pairs. The backward is A^T @ g for
    x and, only when the weights need a gradient, the per-edge row dot
    <g[dst[k]], x[src[k]]> (an SDDMM, see edge_dot).
    """
    if x.data.ndim != 2:
        raise ValueError("edge_sum expects a 2-d table")
    dst, src = _row_ids(dst, n), _row_ids(src, x.data.shape[0])
    if weights.data.shape != dst.shape or src.shape != dst.shape:
        raise ValueError("edge_sum expects one weight, dst and src per edge")
    A = sparse.csr_array((weights.data, (dst, src)), shape=(n, x.data.shape[0]))
    out = A @ x.data

    def bw(g):
        g_weights = _row_dots(g, dst, x.data, src) if _needs_grad(weights) else None
        return [(x, A.T @ g), (weights, g_weights)]

    return _make(out, (x, weights), bw)


def edge_dot(a: Tensor, ia, b: Tensor, ib) -> Tensor:
    """out[k] = <a[ia[k]], b[ib[k]]>: an SDDMM, computed EDGE_CHUNK edges at a time.

    The backward is the two SpMMs S @ b and S^T @ a (see edge_sum), with the
    [len(a), len(b)] CSR matrix S holding g[k] at (ia[k], ib[k]).
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ValueError("edge_dot expects two 2-d tables of the same width")
    ia, ib = _row_ids(ia, a.data.shape[0]), _row_ids(ib, b.data.shape[0])
    if ia.shape != ib.shape:
        raise ValueError("edge_dot expects one row id of each table per edge")
    out = _row_dots(a.data, ia, b.data, ib)

    def bw(g):
        S = sparse.csr_array((g, (ia, ib)), shape=(a.data.shape[0], b.data.shape[0]))
        return [(a, S @ b.data), (b, S.T @ a.data)]

    return _make(out, (a, b), bw)


def segment_weighted_sum(values: Tensor, weights: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment sum of weights[i] * values[i]; empty segments give zero rows.

    The edge_sum of one edge per value row. Nothing in proxkg calls it; it
    stays because perfbench/spans.py traces it by name.
    """
    return edge_sum(weights, segments, np.arange(values.data.shape[0]), values, num_segments)


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
    C-contiguous and flattens per row without a copy. The backward is the
    adjoint of the window map: each window's gradient, g contracted with the
    filters, is added back onto the k x k input cells it covers.
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
    out = np.matmul(filters.data.reshape(C_out, C_in * kh * kw), cols).reshape(B, C_out, oh, ow)

    def bw(g):
        g_filters = np.einsum("bchwij,bohw->ocij", windows, g, optimize=True)
        g_windows = np.einsum("bohw,ocij->bchwij", g, filters.data, optimize=True)
        g_inp = np.zeros_like(inp.data)
        for i, j in np.ndindex(kh, kw):
            g_inp[:, :, i:i + oh, j:j + ow] += g_windows[..., i, j]
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
