import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import proxkg.autodiff as ad
from proxkg.autodiff import Tensor


def finite_diff(fn, x, h=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        g[i] = (up - down) / (2 * h)
    return grad


def check_gradient(build, arrays, tol=1e-4):
    """Compare reverse-mode gradients of sum(build(*tensors)) with finite differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = ad.tsum(out) if out.data.ndim else out
    loss.backward()
    for k, (t, a) in enumerate(zip(tensors, arrays)):
        def scalar(x, k=k):
            args = [Tensor(arr.copy()) for arr in arrays]
            args[k] = Tensor(x)
            res = build(*args)
            return float(res.data.sum())
        num = finite_diff(scalar, a.copy())
        denom = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(t.grad - num) / denom) < tol, f"arg {k} gradient mismatch"


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_matmul_identity(rng):
    B = rng.uniform(-1, 1, (2, 3))
    out = ad.matmul(Tensor(np.eye(2)), Tensor(B))
    assert np.allclose(out.data, B)
    zero = ad.matmul(Tensor(np.zeros((2, 2))), Tensor(B))
    assert np.all(zero.data == 0)


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient(rng):
    A = rng.uniform(-1, 1, (3, 4))
    B = rng.uniform(-1, 1, (4, 2))
    check_gradient(lambda a, b: ad.matmul(a, b), [A, B])


def test_transpose_is_a_view(rng):
    t = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    out = ad.transpose(t)
    assert np.shares_memory(out.data, t.data)
    assert np.array_equal(out.data, t.data.T)
    check_gradient(lambda a: ad.transpose(a), [t.data])


def test_elementwise_identities(rng):
    e = rng.uniform(-1, 1, (4, 3))
    assert np.allclose(ad.add(Tensor(e), Tensor(np.zeros_like(e))).data, e)
    assert np.allclose(ad.mul(Tensor(e), Tensor(np.ones_like(e))).data, e)
    assert np.allclose(ad.sub(Tensor(e), Tensor(e)).data, 0)


def test_elementwise_gradients(rng):
    A = rng.uniform(-1, 1, (3, 4))
    B = rng.uniform(-1, 1, (3, 4))
    for op in (ad.add, ad.sub, ad.mul):
        check_gradient(op, [A, B])


def test_incompatible_shapes():
    """Each op takes one operand form and raises on any other in its forward pass."""
    def ones(*shape):
        return Tensor(np.ones(shape))

    for build in (lambda: ad.add(ones(2, 3), ones(2, 4)),
                  lambda: ad.add(ones(3, 4), ones(4)),
                  lambda: ad.mul(ones(3, 4), ones(4)),
                  lambda: ad.affine(ones(2, 4), ones(4, 3), ones(2, 3)),
                  lambda: ad.gather_rows(ones(3, 2, 2), [0, 2]),
                  lambda: ad.gather_rows(ones(3, 2), [[0, 2]])):
        with pytest.raises(ValueError):
            build()


def test_gather_rows_duplicates(rng):
    table = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    out = ad.gather_rows(table, [0, 0])
    ad.tsum(out).backward()
    assert np.allclose(table.grad[0], 2.0)
    assert np.allclose(table.grad[1:], 0.0)


def test_gather_rows_empty(rng):
    out = ad.gather_rows(Tensor(rng.uniform(-1, 1, (4, 3))), [])
    assert out.shape == (0, 3)


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        ad.gather_rows(Tensor(np.ones((2, 2))), [2])


def test_gather_rows_gradient(rng):
    table = rng.uniform(-1, 1, (5, 3))
    ids = [0, 2, 2, 4]
    check_gradient(lambda t: ad.gather_rows(t, ids), [table])


@pytest.mark.parametrize("n, ids, trailing", [
    (4, [3, 0, 3, 1, 0, 3], (5,)),      # duplicate and unsorted ids
    (4, [], (5,)),                      # no ids: a zero table
    (1, [0, 0, 0], (3,)),               # single-row table
])
def test_scatter_rows_matches_add_at(rng, n, ids, trailing):
    ids = np.asarray(ids, dtype=np.int64)
    magnitude = 10.0 ** rng.integers(-8, 8, len(ids))       # so that summation order shows
    rows = rng.uniform(-1, 1, (len(ids),) + trailing) * magnitude.reshape((-1,) + (1,) * len(trailing))
    want = np.zeros((n,) + trailing)
    np.add.at(want, ids, rows)
    out = ad.gather_rows(Tensor(np.zeros((n,) + trailing), requires_grad=True), ids)
    [(_, got)] = out._backward(rows)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_edge_dot_values(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (5, 3))
    ia, ib = [3, 0, 3, 1, 2], [4, 4, 0, 1, 2]
    out = ad.edge_dot(Tensor(a), ia, [(Tensor(b), ib)])
    assert np.allclose(out.data, (a[ia] * b[ib]).sum(axis=1), rtol=1e-15, atol=1e-15)


def test_edge_dot_chunks_do_not_change_values(rng, monkeypatch):
    a, b = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (2, 4))
    ia, ib, ic = rng.integers(0, 6, 11), rng.integers(0, 6, 11), rng.integers(0, 2, 11)
    terms = [(Tensor(a), ib), (Tensor(b), ic)]
    whole = ad.edge_dot(Tensor(a), ia, terms).data
    monkeypatch.setattr(ad, "ROW_BLOCK_BYTES", 3 * 4 * 8)      # blocks of 3 rows of width 4
    assert np.array_equal(ad.edge_dot(Tensor(a), ia, terms).data, whole)


def test_edge_dot_gradient(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (5, 3))
    ia, ib = [3, 0, 3, 1, 3], [0, 2, 0, 4, 1]      # the pair (3, 0) twice
    weights = Tensor(np.arange(1.0, 6.0))          # break symmetry
    check_gradient(lambda x, y: ad.mul(ad.edge_dot(x, ia, [(y, ib)]), weights), [a, b])
    # one table on both sides
    check_gradient(lambda x: ad.mul(ad.edge_dot(x, [0, 1, 2], [(x, [1, 1, 3])]), Tensor(weights.data[:3])),
                   [a])


def test_edge_dot_out_of_range():
    for ia, ib in (([2], [0]), ([-1], [0]), ([0], [3]), ([0], [-1])):
        with pytest.raises(IndexError):
            ad.edge_dot(Tensor(np.ones((2, 2))), ia, [(Tensor(np.ones((3, 2))), ib)])


def test_edge_dot_empty(rng):
    a = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    out = ad.edge_dot(a, [], [(b, [])])
    assert out.shape == (0,)
    ad.add(ad.tsum(out), ad.tsum(a)).backward()
    assert np.array_equal(a.grad, np.ones((4, 3)))
    assert np.array_equal(b.grad, np.zeros((2, 3)))


# the pair (dst 2, src 3) three times, and a fourth output row that no edge reaches
EDGE_DST, EDGE_SRC = [2, 0, 2, 1, 2, 2], [3, 1, 3, 0, 0, 3]


def test_edge_sum_duplicate_pairs(rng):
    x = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, 6)
    g = rng.uniform(-1, 1, (4, 3))
    want, want_x = np.zeros((4, 3)), np.zeros((4, 3))
    for k, (d, s) in enumerate(zip(EDGE_DST, EDGE_SRC)):
        want[d] += w[k] * x[s]
        want_x[s] += w[k] * g[d]
    live = ad.edge_sum(Tensor(w, requires_grad=True), EDGE_DST,
                       [(Tensor(x, requires_grad=True), EDGE_SRC)], 4)
    assert np.allclose(live.data, want, rtol=1e-14, atol=1e-15)
    (_, x_grad), (_, w_grad) = live._backward(g)
    assert np.allclose(x_grad, want_x, rtol=1e-14, atol=1e-15)
    # CSR sums the three (2, 3) entries, but each edge keeps its own weight gradient
    assert w_grad.shape == (6,)
    assert np.allclose(w_grad, (g[EDGE_DST] * x[EDGE_SRC]).sum(axis=1), rtol=1e-15, atol=1e-15)


def test_edge_sum_constant_weights(rng):
    x = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, 6)
    g = rng.uniform(-1, 1, (4, 3))
    const = ad.edge_sum(Tensor(w), EDGE_DST, [(Tensor(x, requires_grad=True), EDGE_SRC)], 4)
    (_, x_grad), (_, w_grad) = const._backward(g)
    assert w_grad is None
    live = ad.edge_sum(Tensor(w, requires_grad=True), EDGE_DST,
                       [(Tensor(x, requires_grad=True), EDGE_SRC)], 4)
    assert np.array_equal(x_grad, live._backward(g)[0][1])


def test_edge_sum_gradient(rng):
    x = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, 6)
    mix = Tensor(rng.uniform(-1, 1, (5, 3)))       # break symmetry; row 4 gets no edge
    check_gradient(lambda wt, xt: ad.mul(ad.edge_sum(wt, EDGE_DST, [(xt, EDGE_SRC)], 5), mix), [w, x])
    check_gradient(lambda xt: ad.mul(ad.edge_sum(Tensor(w), EDGE_DST, [(xt, EDGE_SRC)], 5), mix), [x])


def test_edge_sum_out_of_range():
    x = Tensor(np.ones((2, 2)))
    assert ad.edge_sum(Tensor(np.ones(1)), [2], [(x, [1])], 3).data[2].tolist() == [1.0, 1.0]
    for dst, src in (([3], [0]), ([-1], [0]), ([0], [2]), ([0], [-1])):
        with pytest.raises(IndexError):
            ad.edge_sum(Tensor(np.ones(1)), dst, [(x, src)], 3)


def test_edge_sum_empty(rng):
    x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w = Tensor(np.zeros(0), requires_grad=True)
    out = ad.edge_sum(w, [], [(x, [])], 3)
    assert np.array_equal(out.data, np.zeros((3, 3)))
    ad.add(ad.tsum(out), ad.tsum(x)).backward()
    assert np.array_equal(x.grad, np.ones((4, 3)))
    assert w.grad.shape == (0,)


def test_segment_weighted_sum_constant_weights(rng):
    values = rng.uniform(-1, 1, (6, 3))
    weights = rng.uniform(-1, 1, 6)
    segs = np.array([2, 0, 2, 1, 0, 2])
    g = rng.uniform(-1, 1, (3, 3))
    const = ad.segment_weighted_sum(Tensor(values, requires_grad=True), Tensor(weights), segs, 3)
    (_, v_grad), (_, w_grad) = const._backward(g)
    assert np.array_equal(v_grad, g[segs] * weights[:, None])
    assert w_grad is None
    live = ad.segment_weighted_sum(Tensor(values, requires_grad=True),
                                   Tensor(weights, requires_grad=True), segs, 3)
    (_, v_grad_live), (_, w_grad_live) = live._backward(g)
    assert np.array_equal(v_grad, v_grad_live)
    assert np.allclose(w_grad_live, (g[segs] * values).sum(axis=1), rtol=1e-15, atol=1e-15)


def test_segment_weighted_sum_convex(rng):
    v = rng.uniform(-1, 1, 3)
    values = Tensor(np.stack([v, v]))
    out = ad.segment_weighted_sum(values, Tensor(np.array([0.5, 0.5])), [0, 0], 1)
    assert np.allclose(out.data[0], v)


def test_segment_weighted_sum_empty_segment():
    out = ad.segment_weighted_sum(Tensor(np.ones((1, 2))), Tensor(np.ones(1)), [1], 3)
    assert np.allclose(out.data[0], 0)
    assert np.allclose(out.data[2], 0)
    assert np.allclose(out.data[1], 1)


def test_segment_weighted_sum_gradient(rng):
    values = rng.uniform(-1, 1, (6, 3))
    weights = rng.uniform(-1, 1, 6)
    segs = [0, 1, 1, 2, 2, 2]
    check_gradient(lambda v, w: ad.segment_weighted_sum(v, w, segs, 4), [values, weights])


def test_segment_softmax_basics():
    out = ad.segment_softmax(Tensor(np.array([1.0, 1.0])), [0, 0], 1)
    assert np.allclose(out.data, [0.5, 0.5])
    single = ad.segment_softmax(Tensor(np.array([3.7])), [0], 1)
    assert np.allclose(single.data, [1.0])


def test_segment_softmax_shift_invariance(rng):
    scores = rng.uniform(-1, 1, 7)
    segs = [0, 0, 1, 1, 1, 2, 2]
    a = ad.segment_softmax(Tensor(scores), segs, 3).data
    b = ad.segment_softmax(Tensor(scores + 100.0), segs, 3).data
    assert np.allclose(a, b, atol=1e-12)


def test_segment_softmax_normalization(rng):
    scores = rng.uniform(-5, 5, 20)
    segs = np.sort(rng.integers(0, 5, 20))
    out = ad.segment_softmax(Tensor(scores), segs, 5).data
    assert np.all(out >= 0)
    sums = np.bincount(segs, weights=out, minlength=5)
    for s in sums[np.bincount(segs, minlength=5) > 0]:
        assert abs(s - 1.0) < 1e-12


def test_segment_softmax_gradient(rng):
    scores = rng.uniform(-1, 1, 6)
    segs = [0, 0, 0, 1, 1, 2]

    def build(s):
        soft = ad.segment_softmax(s, segs, 3)
        return ad.mul(soft, Tensor(np.arange(1.0, 7.0)))  # break symmetry

    check_gradient(build, [scores])


def test_conv2d_one_by_one_kernel(rng):
    x = rng.uniform(-1, 1, (2, 3, 4, 5))
    f = np.zeros((3, 3, 1, 1))
    for c in range(3):
        f[c, c, 0, 0] = 1.0
    out = ad.conv2d(Tensor(x), Tensor(f))
    assert np.allclose(out.data, x)
    zero = ad.conv2d(Tensor(x), Tensor(np.zeros((2, 3, 2, 2))))
    assert np.all(zero.data == 0)


def test_conv2d_output_shape(rng):
    for H, W, k in [(4, 4, 3), (5, 7, 2), (3, 3, 3), (8, 5, 4)]:
        out = ad.conv2d(Tensor(np.zeros((1, 2, H, W))), Tensor(np.zeros((3, 2, k, k))))
        assert out.shape == (1, 3, H - k + 1, W - k + 1)


def test_conv2d_kernel_too_large():
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


def test_conv2d_gradient(rng):
    x = rng.uniform(-1, 1, (2, 2, 5, 4))
    f = rng.uniform(-1, 1, (3, 2, 2, 2))
    check_gradient(ad.conv2d, [x, f])


def conv2d_reference(x, f, g):
    """Forward, input gradient and filter gradient of a valid cross-correlation, the input
    gradient computed as the full convolution of the padded g with the flipped filters."""
    kh, kw = f.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", windows, f, optimize=True)
    g_filters = np.einsum("bchwij,bohw->ocij", windows, g, optimize=True)
    g_pad = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    g_windows = np.lib.stride_tricks.sliding_window_view(g_pad, (kh, kw), axis=(2, 3))
    g_inp = np.einsum("bohwij,ocij->bchw", g_windows, f[:, :, ::-1, ::-1], optimize=True)
    return out, g_inp, g_filters


@pytest.mark.parametrize("x_shape, f_shape", [
    ((3, 2, 6, 5), (4, 2, 3, 3)),
    ((2, 3, 4, 7), (2, 3, 2, 2)),
    ((2, 2, 5, 4), (3, 2, 1, 1)),
    ((4, 1, 20, 20), (32, 1, 3, 3)),      # the decoder's stacked input at dim=200
])
def test_conv2d_matches_pad_and_flip_reference(rng, x_shape, f_shape):
    x, f = rng.normal(size=x_shape), rng.normal(size=f_shape)
    out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(f, requires_grad=True))
    g = rng.normal(size=out.shape)
    (_, g_inp), (_, g_filters) = out._backward(g)
    ref_out, ref_inp, ref_filters = conv2d_reference(x, f, g)
    if x_shape[1] == 1:       # one input channel: the GEMM sums the k*k taps in einsum's order
        assert np.array_equal(out.data, ref_out)
    else:
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-12)
    assert np.array_equal(g_filters, ref_filters)
    np.testing.assert_allclose(g_inp, ref_inp, rtol=1e-12, atol=1e-12 * np.abs(ref_inp).max())


def test_conv2d_backward_peak_memory(rng):
    """The input gradient needs no [B, C_out, H, W, k, k] copy of g."""
    x = Tensor(rng.normal(size=(8, 1, 20, 20)), requires_grad=True)
    f = Tensor(rng.normal(size=(32, 1, 3, 3)), requires_grad=True)
    out = ad.conv2d(x, f)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        out._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * g.nbytes


def test_conv2d_output_flattens_without_a_copy(rng):
    """The output is C-ordered, so the decoder's per-row flatten is a view."""
    out = ad.conv2d(Tensor(rng.normal(size=(4, 1, 20, 20))), Tensor(rng.normal(size=(32, 1, 3, 3))))
    assert out.data.flags.c_contiguous
    assert np.shares_memory(ad.reshape(out, (4, -1)).data, out.data)


def test_conv2d_relu_matches_relu_of_conv2d_bit_for_bit(rng):
    x, f = rng.normal(size=(3, 2, 6, 5)), rng.normal(size=(4, 2, 3, 3))
    fused_inputs = [Tensor(x, requires_grad=True), Tensor(f, requires_grad=True)]
    chained_inputs = [Tensor(x, requires_grad=True), Tensor(f, requires_grad=True)]
    fused = ad.conv2d_relu(*fused_inputs)
    chained = ad.relu(ad.conv2d(*chained_inputs))
    assert np.array_equal(fused.data, chained.data)
    weights = Tensor(rng.normal(size=fused.shape))
    ad.tsum(ad.mul(fused, weights)).backward()
    ad.tsum(ad.mul(chained, weights)).backward()
    for a, b in zip(fused_inputs, chained_inputs):
        assert np.array_equal(a.grad, b.grad)


def test_affine_matches_add_of_matmul_bit_for_bit(rng):
    x, W, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    out = ad.affine(*[Tensor(a, requires_grad=True) for a in (x, W, b)])
    assert np.array_equal(out.data, x @ W + b)
    g = rng.normal(size=out.shape)
    grads = [grad for _, grad in out._backward(g)]
    for got, want in zip(grads, (g @ W.T, x.T @ g, g.sum(axis=0)), strict=True):
        assert np.array_equal(got, want)


def test_affine_shape_errors():
    with pytest.raises(ValueError):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def test_activation_values():
    assert ad.tanh(Tensor(np.zeros(3))).data.sum() == 0
    assert np.allclose(ad.sigmoid(Tensor(np.zeros(3))).data, 0.5)
    assert np.allclose(ad.relu(Tensor(np.array([-1.0, 2.0]))).data, [0.0, 2.0])


def _two_branch_sigmoid(x):
    # the masked two-branch formula sigmoid replaced, kept as the reference
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_two_branch_formula(rng):
    edges = np.array([0.0, 1e-300, 36.8, 745.0, 800.0])
    x = np.concatenate([edges, -edges, rng.normal(0.0, 3.0, (64, 37)).ravel()])
    with np.errstate(over="raise"):
        out = ad.sigmoid(Tensor(x)).data
        ref = _two_branch_sigmoid(x)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    assert out[0] == 0.5 and out[len(edges)] == 0.5


def test_bce_with_logits_extreme_logits(rng):
    edges = np.array([0.0, 1e-300, 36.8, 745.0, 800.0])
    x = np.concatenate([edges, -edges, rng.normal(0.0, 3.0, 90)]).reshape(4, 25)
    t = rng.uniform(0.0, 1.0, x.shape)
    logits = Tensor(x, requires_grad=True)
    with np.errstate(over="raise"):
        loss = ad.bce_with_logits(logits, sparse.csr_array(t))
        loss.backward()
    direct = np.mean(np.maximum(x, 0.0) - t * x + np.log1p(np.exp(-np.abs(x))))
    assert float(loss.data) == pytest.approx(direct, rel=1e-14)
    assert np.allclose(logits.grad, (_two_branch_sigmoid(x) - t) / x.size, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        ad.bce_with_logits(logits, sparse.csr_array(t[:, :-1]))


def test_bce_with_logits_smoothed_sparse_matches_dense(rng):
    eps, n = 0.1, 9
    x = rng.normal(0.0, 3.0, (4, n))
    hot = (rng.uniform(0, 1, x.shape) > 0.6).astype(float)
    hot[2, 3] = 1.0
    rows, cols = np.nonzero(hot)
    data = np.where((rows == 2) & (cols == 3), 0.25, 1.0)
    # cell (2, 3) is stored twice, holding 1/4 and 3/4 of its mass
    rows, cols, data = np.append(rows, 2), np.append(cols, 3), np.append(data, 0.75)
    answers = sparse.coo_array((data * (1 - eps), (rows, cols)), shape=x.shape)
    logits = Tensor(x, requires_grad=True)
    loss = ad.bce_with_logits(logits, answers, eps / n)
    loss.backward()
    t = eps / n + (1 - eps) * hot
    dense = np.mean(np.maximum(x, 0.0) - t * x + np.log1p(np.exp(-np.abs(x))))
    assert float(loss.data) == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert np.allclose(logits.grad, (_two_branch_sigmoid(x) - t) / x.size, rtol=1e-12, atol=0.0)


def test_activation_gradients(rng):
    x = rng.uniform(-1, 1, (3, 4))
    for op in (ad.tanh, ad.sigmoid):
        check_gradient(op, [x])
    # keep relu inputs away from the kink
    x_away = np.where(np.abs(x) < 1e-3, 0.5, x)
    check_gradient(ad.relu, [x_away])


def test_dropout_identity_cases(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 4)))
    assert ad.dropout(x, 0.0, (1, 3), 2) is x
    assert ad.dropout(x, 0.5, None, 2) is x


def test_dropout_deterministic_and_scaled(rng):
    x = Tensor(np.ones((50, 50)))
    a = ad.dropout(x, 0.3, key=(9, 4), layer_id=1).data
    b = ad.dropout(x, 0.3, key=(9, 4), layer_id=1).data
    assert np.array_equal(a, b)
    c = ad.dropout(x, 0.3, key=(9, 5), layer_id=1).data
    assert not np.array_equal(a, c)
    kept = a[a != 0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert abs((a != 0).mean() - 0.7) < 0.05


@pytest.mark.parametrize("seed, layer_id, step", [(9, 1, 4), (0, 103, 0), (2 ** 40, 102, 7)])
def test_dropout_mask_is_the_keyed_philox_draw(seed, layer_id, step):
    """Keyed by (seed, step), the mask is Philox's draw under the words (seed, layer_id:step)."""
    x = Tensor(np.ones((6, 7)))
    got = ad.dropout(x, 0.3, (seed, step), layer_id).data
    rng = np.random.Generator(np.random.Philox(key=[seed, layer_id << 32 | step]))
    assert np.array_equal(got, (rng.random((6, 7)) >= 0.3) * (1.0 / 0.7))


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    ad.tsum(x).backward()
    assert np.allclose(x.grad, 1.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(x, x).backward()


def test_backward_twice_raises(rng):
    x = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    loss = ad.tsum(x)
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_disconnected_leaf_zero_gradient(rng):
    x = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    ad.tsum(x).backward()
    assert y.grad is None


def test_backward_linearity(rng):
    x0 = rng.uniform(-1, 1, (3, 3))

    def grad_of(scale_f, scale_g):
        x = Tensor(x0.copy(), requires_grad=True)
        f = ad.tsum(ad.tanh(x))
        g = ad.tsum(ad.mul(x, x))
        ad.add(ad.scale(f, scale_f), ad.scale(g, scale_g)).backward()
        return x.grad

    combined = grad_of(2.0, 3.0)
    assert np.allclose(combined, 2.0 * grad_of(1.0, 0.0) + 3.0 * grad_of(0.0, 1.0), atol=1e-12)


def test_duplicate_use_accumulates(rng):
    x = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    ad.tsum(ad.add(x, x)).backward()
    assert np.allclose(x.grad, 2.0)


def test_concat_gradients_are_views_of_g(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    out = ad.concat([a, b], axis=1)
    g = rng.normal(size=out.shape)
    (ta, ga), (tb, gb) = out._backward(g)
    assert ta is a and tb is b
    assert np.shares_memory(ga, g) and np.shares_memory(gb, g)
    assert np.array_equal(ga, g[:, :2]) and np.array_equal(gb, g[:, 2:])


def test_reshape_concat_transpose_gradients(rng):
    A = rng.uniform(-1, 1, (2, 6))
    B = rng.uniform(-1, 1, (2, 6))

    def build(a, b):
        joined = ad.concat([a, b], axis=1)
        return ad.transpose(ad.reshape(joined, (4, 6)))

    check_gradient(build, [A, B])


def test_log_clip_mean_gradients(rng):
    x = rng.uniform(0.2, 0.8, (3, 4))
    check_gradient(lambda t: ad.log(t), [x])
    check_gradient(lambda t: ad.mean(ad.clip(t, 0.05, 0.95)), [x])
