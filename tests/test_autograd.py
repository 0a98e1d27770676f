"""Finite-difference checks and contracts for the tensor library."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import gradcheck, scalarizer
from mtvlm.autograd import (
    ParameterSet, Tensor, concat, conv2d, cosine_similarity, embedding,
    layer_norm, linear, no_grad, take,
)
from mtvlm.errors import ContractError, ShapeError


def rng_for(seed):
    return np.random.default_rng(seed)


def away_from_zero(x, margin=0.1):
    # keeps relu and similar kinks differentiable at the probe points
    return x + margin * np.sign(x) + (x == 0.0) * margin


# -- construction -------------------------------------------------------------

def test_scalar_tensor_stays_zero_dim():
    assert Tensor(1.5).shape == ()
    assert Tensor(np.asarray(2.0)).shape == ()
    assert Tensor(np.float64(3.0)).item() == 3.0


def test_noncontiguous_input_is_normalized():
    t = Tensor(np.arange(6.0).reshape(2, 3).T)
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (3, 2)


def test_item_rejects_vectors():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


# -- elementwise and structural gradients --------------------------------------

def test_grad_add_sub_neg_mul():
    r = rng_for(0)
    a = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(3, 4)))
    reduce = scalarizer((3, 4), r)
    gradcheck(lambda: reduce(a + b), [a, b])
    gradcheck(lambda: reduce(a - b), [a, b])
    gradcheck(lambda: reduce(Tensor(np.zeros((3, 4))) - a), [a])   # negation
    gradcheck(lambda: reduce(a * b), [a, b])


def test_grad_scale_by_float():
    r = rng_for(1)
    a = Tensor(r.normal(size=(2, 3)))
    reduce = scalarizer((2, 3), r)
    gradcheck(lambda: reduce(a.scale(-2.5)), [a])


def test_grad_matmul_linear():
    r = rng_for(2)
    x = Tensor(r.normal(size=(3, 5)))
    w = Tensor(r.normal(size=(4, 5)))
    b = Tensor(r.normal(size=4))
    m = Tensor(r.normal(size=(5, 2)))
    gradcheck(lambda: scalarizer((3, 2), rng_for(20))(x @ m), [x, m])
    xb = Tensor(r.normal(size=(2, 3, 5)))
    mb = Tensor(r.normal(size=(2, 5, 4)))
    gradcheck(lambda: scalarizer((2, 3, 4), rng_for(23))(xb @ mb), [xb, mb])
    gradcheck(lambda: scalarizer((3, 4), rng_for(21))(linear(x, w, b)), [x, w, b])
    gradcheck(lambda: scalarizer((3, 4), rng_for(22))(linear(x, w)), [x, w])


def test_grad_relu_sum():
    r = rng_for(3)
    a = Tensor(away_from_zero(r.normal(size=(4, 4))))
    reduce = scalarizer((4, 4), r)
    gradcheck(lambda: reduce(a.relu()), [a])
    gradcheck(lambda: a.sum(), [a])


def test_grad_reshape_transpose_narrow():
    r = rng_for(4)
    a = Tensor(r.normal(size=(2, 3, 4)))
    gradcheck(lambda: scalarizer((4, 6), rng_for(40))(a.reshape(4, 6)), [a])
    gradcheck(lambda: scalarizer((4, 2, 3), rng_for(41))(a.transpose(2, 0, 1)), [a])
    gradcheck(lambda: scalarizer((2, 2, 4), rng_for(42))(a.narrow(1, 1, 2)), [a])


def test_grad_softmax_log_softmax():
    r = rng_for(5)
    a = Tensor(r.normal(size=(3, 5)))
    gradcheck(lambda: scalarizer((3, 5), rng_for(50))(a.softmax()), [a])
    gradcheck(lambda: scalarizer((3, 5), rng_for(51))(a.log_softmax()), [a])
    gradcheck(lambda: scalarizer((3, 5), rng_for(52))(a.softmax(axis=0)), [a])


def test_grad_concat():
    r = rng_for(6)
    a = Tensor(r.normal(size=(2, 3)))
    b = Tensor(r.normal(size=(1, 3)))
    c = Tensor(r.normal(size=(2, 2)))
    gradcheck(lambda: scalarizer((3, 3), rng_for(60))(concat([a, b], axis=0)), [a, b])
    gradcheck(lambda: scalarizer((2, 5), rng_for(61))(concat([a, c], axis=1)), [a, c])


def test_grad_conv2d():
    r = rng_for(7)
    x = Tensor(r.normal(size=(2, 4, 4)))
    w1 = Tensor(r.normal(size=(3, 2, 1, 1)))
    w3 = Tensor(r.normal(size=(3, 2, 3, 3)))
    b = Tensor(r.normal(size=3))
    gradcheck(lambda: scalarizer((3, 4, 4), rng_for(70))(conv2d(x, w1, b)), [x, w1, b])
    gradcheck(lambda: scalarizer((3, 2, 2), rng_for(71))(conv2d(x, w3)), [x, w3])
    gradcheck(lambda: scalarizer((3, 4, 4), rng_for(72))(conv2d(x, w3, b, padding=1)),
              [x, w3, b])


def test_grad_conv2d_batched():
    r = rng_for(9)
    x = Tensor(r.normal(size=(2, 2, 4, 4)))
    w1 = Tensor(r.normal(size=(3, 2, 1, 1)))
    w3 = Tensor(r.normal(size=(3, 2, 3, 3)))
    b = Tensor(r.normal(size=3))
    gradcheck(lambda: scalarizer((2, 3, 4, 4), rng_for(73))(conv2d(x, w1, b)), [x, w1, b])
    gradcheck(lambda: scalarizer((2, 3, 6, 6), rng_for(74))(conv2d(x, w1, padding=1)),
              [x, w1])
    gradcheck(lambda: scalarizer((2, 3, 2, 2), rng_for(75))(conv2d(x, w3, b)), [x, w3, b])
    gradcheck(lambda: scalarizer((2, 3, 4, 4), rng_for(76))(conv2d(x, w3, b, padding=1)),
              [x, w3, b])


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1)])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv2d_batch_matches_single_sample_calls(k, padding, batch):
    r = rng_for(30 + 4 * k + padding + batch)
    xs = r.normal(size=(batch, 3, 5, 4))
    w = Tensor(r.normal(size=(2, 3, k, k)), requires_grad=True)
    b = Tensor(r.normal(size=2), requires_grad=True)
    x = Tensor(xs, requires_grad=True)
    out = conv2d(x, w, b, padding=padding)
    g = r.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    got = out.data, x.grad, w.grad, b.grad

    # the same weights, one sample at a time; their gradients add up
    w.grad = b.grad = None
    outs, dxs = [], []
    for xi, gi in zip(xs, g):
        xi = Tensor(xi, requires_grad=True)
        yi = conv2d(xi, w, b, padding=padding)
        (yi * Tensor(gi)).sum().backward()
        outs.append(yi.data)
        dxs.append(xi.grad)
    want = np.stack(outs), np.stack(dxs), w.grad, b.grad
    for a, e in zip(got, want):
        assert a.shape == e.shape
        np.testing.assert_allclose(a, e, rtol=0, atol=1e-12)


def test_grad_cosine_similarity():
    r = rng_for(8)
    a = Tensor(r.normal(size=6))
    b = Tensor(r.normal(size=6))
    gradcheck(lambda: cosine_similarity(a, b), [a, b])


def test_cosine_clamped_branch_closed_form():
    # finite differences would leave the clamp region, so compare against
    # the documented constant-norm derivative instead
    a = Tensor(np.array([1.0, 2.0, -1.0]), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = cosine_similarity(a, b)
    assert out.item() == 0.0
    out.backward()
    denom = float(np.sqrt(a.data @ a.data)) * 1e-8
    np.testing.assert_allclose(b.grad, a.data / denom)
    np.testing.assert_allclose(a.grad, np.zeros(3))


def test_cosine_self_similarity_is_exactly_one():
    r = rng_for(9)
    for dim in (1, 2, 5, 16, 64):
        for _ in range(10):
            v = r.normal(size=dim) * r.uniform(0.1, 100)
            assert cosine_similarity(Tensor(v), Tensor(v.copy())).item() == 1.0


@given(st.integers(0, 2**32 - 1))
def test_cosine_bounded(seed):
    r = rng_for(seed)
    dim = int(r.integers(1, 8))
    a = r.normal(size=dim)
    b = r.normal(size=dim)
    c = cosine_similarity(Tensor(a), Tensor(b)).item()
    assert abs(c) <= 1.0 + 1e-12


def cosine_rows_case(r):
    """Five (a, b) row pairs: two generic, one identical pair, one with a
    zero (clamped) row in b and one with a zero row in a. The zero rows are
    constants, because finite differences would leave the clamp region."""
    a_top = Tensor(r.normal(size=(4, 5)))
    b_top = Tensor(np.concatenate([r.normal(size=(2, 5)), a_top.data[2:3]]))
    b_last = Tensor(r.normal(size=(1, 5)))
    zero = Tensor(np.zeros((1, 5)))

    def rows():
        return (concat([a_top, zero], axis=0),
                concat([b_top, zero, b_last], axis=0))

    return rows, [a_top, b_top, b_last]


def test_grad_cosine_similarity_rows():
    r = rng_for(13)
    rows, leaves = cosine_rows_case(r)
    a, b = rows()
    c = cosine_similarity(a, b)
    assert c.shape == (5,)
    assert c.data[2] == 1.0 and c.data[3] == 0.0 and c.data[4] == 0.0
    reduce = scalarizer((5,), r)
    gradcheck(lambda: reduce(cosine_similarity(*rows())), leaves)


def test_cosine_rows_match_the_vector_op_row_by_row():
    # every row, clamped ones included, gets what the 1-d op gives it
    r = rng_for(14)
    rows, _ = cosine_rows_case(r)
    a, b = (Tensor(t.data, requires_grad=True) for t in rows())
    g = r.normal(size=5)
    c = cosine_similarity(a, b)
    (c * Tensor(g)).sum().backward()
    for i in range(5):
        u = Tensor(a.data[i], requires_grad=True)
        v = Tensor(b.data[i], requires_grad=True)
        ci = cosine_similarity(u, v)
        ci.scale(g[i]).backward()
        assert c.data[i] == ci.item()
        np.testing.assert_array_equal(a.grad[i], u.grad)
        np.testing.assert_array_equal(b.grad[i], v.grad)


def test_cosine_identical_rows_are_exactly_one():
    r = rng_for(15)
    for dim in (1, 2, 5, 16, 64):
        m = r.normal(size=(7, dim)) * r.uniform(0.1, 100, size=(7, 1))
        c = cosine_similarity(Tensor(m), Tensor(m.copy()))
        assert c.data.tolist() == [1.0] * 7


def test_cosine_similarity_shape_errors():
    with pytest.raises(ShapeError):
        cosine_similarity(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        cosine_similarity(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        cosine_similarity(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 2, 3))))
    with pytest.raises(ShapeError):
        cosine_similarity(Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0)))


def conv2d_per_tap(x, w, b, padding, g):
    """Plain numpy per-tap conv2d: the output and, for upstream gradient
    ``g``, the gradients of x, w and b."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    out = np.zeros((w.shape[0], ho, wo))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            patch = xp[:, i:i + ho, j:j + wo]
            out += np.tensordot(w[:, :, i, j], patch, axes=([1], [0]))
            dw[:, :, i, j] = np.tensordot(g, patch, axes=([1, 2], [1, 2]))
            dxp[:, i:i + ho, j:j + wo] += np.tensordot(w[:, :, i, j], g, axes=([0], [0]))
    dx = dxp[:, padding:padding + x.shape[1], padding:padding + x.shape[2]]
    return out + b[:, None, None], dx, dw, g.sum(axis=(1, 2))


@pytest.mark.parametrize("k,padding", [(1, 0), (1, 1), (3, 0), (3, 1)])
def test_conv2d_matches_per_tap_reference(k, padding):
    r = rng_for(16 + 2 * k + padding)
    x = Tensor(r.normal(size=(3, 5, 6)), requires_grad=True)
    w = Tensor(r.normal(size=(4, 3, k, k)), requires_grad=True)
    b = Tensor(r.normal(size=4), requires_grad=True)
    out = conv2d(x, w, b, padding=padding)
    g = r.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    want = conv2d_per_tap(x.data, w.data, b.data, padding, g)
    for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_grad_embedding_scatter_adds_repeats():
    r = rng_for(10)
    table = Tensor(r.normal(size=(5, 3)))
    ids = [1, 3, 1, 0, 1]
    reduce = scalarizer((5, 3), r)
    gradcheck(lambda: reduce(embedding(table, ids)), [table])


def test_grad_layer_norm():
    r = rng_for(11)
    x = Tensor(r.normal(size=(4, 6)))
    gain = Tensor(r.uniform(0.5, 1.5, size=6))
    bias = Tensor(r.normal(size=6))
    reduce = scalarizer((4, 6), r)
    gradcheck(lambda: reduce(layer_norm(x, gain, bias)), [x, gain, bias])


def test_grad_take_with_duplicates():
    r = rng_for(12)
    t = Tensor(r.normal(size=(4, 5)))
    rows, cols = [0, 2, 0, 3], [1, 4, 1, 0]
    reduce = scalarizer((4,), r)
    gradcheck(lambda: reduce(take(t, rows, cols)), [t])


# -- rewritten ops against their former implementations ---------------------------
#
# Each reference is the earlier numpy code of an op: its forward, and its
# backward for an upstream gradient g. The current ops reorder that work to
# allocate less, and must still agree with it byte for byte.

def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(x.ndim - 1))
    gg = g * gain
    m1 = gg.mean(axis=-1, keepdims=True)
    m2 = (gg * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias,
            [inv * (gg - m1 - xhat * m2), (g * xhat).sum(axis=lead), g.sum(axis=lead)])


def ref_softmax(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, [y * (g - (g * y).sum(axis=axis, keepdims=True))]


def ref_log_softmax(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logz
    soft = np.exp(out)
    return out, [g - soft * g.sum(axis=axis, keepdims=True)]


def ref_concat(xs, g, axis):
    offsets = np.cumsum([0] + [x.shape[axis] for x in xs])
    grads = [np.take(g, range(lo, hi), axis=axis) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return np.concatenate(xs, axis=axis), grads


def ref_transpose(x, g, axes):
    inverse = tuple(np.argsort(axes))
    return (np.ascontiguousarray(x.transpose(axes)),
            [np.ascontiguousarray(g.transpose(inverse))])


def ref_relu(x, g):
    mask = x > 0.0
    return np.where(mask, x, 0.0), [g * mask]


def ref_embedding(table, ids, g):
    dt = np.zeros_like(table)
    np.add.at(dt, ids, g)
    return table[ids], [dt]


def ref_take(t, rows, cols, g):
    dt = np.zeros_like(t)
    np.add.at(dt, (rows, cols), g)
    return t[rows, cols], [dt]


# signed zeros, subnormals, the smallest normals and infinities
RELU_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                       2.2250738585072014e-308, -2.2250738585072014e-308, np.inf, -np.inf])


def gather_indices(r, name, case, rows, width):
    """Case 0 repeats indices, case 1 has distinct ones, and case 2 gives
    ``embedding`` no ids and ``take`` one entry picked many times."""
    if name == "embedding":
        if case == 0:
            return (r.integers(0, rows, size=2 * rows + 3),)
        if case == 1:
            return (r.permutation(rows)[:int(r.integers(1, rows + 1))],)
        return (np.zeros(0, dtype=np.int64),)
    if case == 0:
        n = rows * width + 5
        return r.integers(0, rows, size=n), r.integers(0, width, size=n)
    if case == 1:
        flat = r.permutation(rows * width)[:int(r.integers(1, rows * width + 1))]
        return flat // width, flat % width
    return np.full(9, rows - 1), np.full(9, width // 2)


def rewritten_case(name, r, rows, width, case):
    """(op on leaf tensors, reference on their arrays, leaf arrays)."""
    scale = 10.0 ** r.uniform(-2, 2)
    x = r.normal(size=(rows, width)) * scale + r.normal()
    if name == "relu":
        edge = r.random(x.shape) < 0.3
        x[edge] = r.choice(RELU_EDGES, size=int(edge.sum()))
        return lambda t: t[0].relu(), lambda a, g: ref_relu(a[0], g), [x]
    if name == "embedding":
        (ids,) = gather_indices(r, name, case % 3, rows, width)
        return (lambda t: embedding(t[0], ids), lambda a, g: ref_embedding(a[0], ids, g),
                [x])
    if name == "take":
        picks = gather_indices(r, name, case % 3, rows, width)
        return lambda t: take(t[0], *picks), lambda a, g: ref_take(a[0], *picks, g), [x]
    if name == "layer_norm":
        return (lambda t: layer_norm(*t), lambda a, g: ref_layer_norm(*a, g),
                [x, r.uniform(0.5, 1.5, size=width), r.normal(size=width)])
    if name in ("softmax", "log_softmax"):
        axis = int(r.integers(-1, 1))
        ref = ref_softmax if name == "softmax" else ref_log_softmax
        if rows % 2 == 0 and r.integers(2):      # attention's 4-d scores
            x = x.reshape(rows // 2, 2, 1, width).transpose(0, 2, 1, 3).copy()
        return (lambda t: getattr(t[0], name)(axis=axis),
                lambda a, g: ref(a[0], g, axis), [x])
    if name == "concat":
        axis = int(r.integers(0, 2))
        widths = [width, int(r.integers(1, 9))]
        xs = [r.normal(size=(rows, w) if axis else (w, rows)) * scale for w in widths]
        return (lambda t: concat(t, axis=axis), lambda a, g: ref_concat(a, g, axis), xs)
    axes = tuple(int(i) for i in r.permutation(4))
    x4 = x.reshape(rows, 1, width, 1)
    return (lambda t: t[0].transpose(axes), lambda a, g: ref_transpose(a[0], g, axes), [x4])


@pytest.mark.parametrize("width", [8, 16, 64, 65])
@pytest.mark.parametrize("name", ["layer_norm", "softmax", "log_softmax", "concat",
                                  "transpose", "relu", "embedding", "take"])
def test_rewritten_op_matches_its_former_code_byte_for_byte(name, width):
    r = rng_for(1000 * len(name) + width)
    for case, rows in enumerate([1, 2, 64] + [int(n) for n in r.integers(1, 65, size=5)]):
        op, ref, arrays = rewritten_case(name, r, rows, width, case)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(leaves)
        g = r.normal(size=out.shape)
        if name in ("embedding", "take"):       # scatters must add -0.0 as add.at does
            g[r.random(g.shape) < 0.3] = -0.0
        with np.errstate(invalid="ignore"):     # relu's +inf times g of either sign
            (out * Tensor(g)).sum().backward()
        want, grads = ref([a.copy() for a in arrays], g)
        assert out.data.tobytes() == np.ascontiguousarray(want).tobytes()
        for leaf, grad in zip(leaves, grads):
            assert leaf.grad.shape == grad.shape
            assert leaf.grad.tobytes() == np.ascontiguousarray(grad).tobytes()
        with no_grad():
            assert op(leaves).data.tobytes() == out.data.tobytes()


def test_relu_propagates_nan():
    x = Tensor(np.array([np.nan, -np.nan, 1.0, -1.0, 0.0]), requires_grad=True)
    out = x.relu()
    assert np.isnan(out.data[:2]).all()
    assert out.data[2:].tolist() == [1.0, 0.0, 0.0]
    (out * Tensor(np.ones(5))).sum().backward()
    assert x.grad.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


# -- tape semantics -------------------------------------------------------------

def test_repeated_backward_accumulates():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    x.grad = None
    loss.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_sets_grad_on_leaves_only():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    sq = x * x
    prod = sq * w
    loss = prod.sum()
    loss.backward()
    assert sq.grad is None and prod.grad is None and loss.grad is None
    assert sq._pass_grad is None and prod._pass_grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data * w.data)
    np.testing.assert_array_equal(w.grad, x.data * x.data)


def test_writing_into_one_leaf_grad_never_changes_another():
    # add sends the same upstream array to both inputs; concat and reshape
    # hand on views of it; a leaf used twice accumulates
    r = rng_for(31)
    a, b, c, d, e = (Tensor(r.normal(size=(2, 3)), requires_grad=True) for _ in range(5))
    s = Tensor(np.asarray(1.5), requires_grad=True)
    y = concat([a + b, (c + a).reshape(3, 2).reshape(2, 3)]).scale(1.5).sum() + (d + e).sum() + s
    y.backward()
    leaves = [a, b, c, d, e, s]
    before = [t.grad.copy() for t in leaves]
    for i, t in enumerate(leaves):
        t.grad[...] = 7.0 + i
        for other, old in zip(leaves[i + 1:], before[i + 1:]):
            np.testing.assert_array_equal(other.grad, old)


def test_diamond_reuse_sums_both_paths():
    x = Tensor(np.array([0.5, -1.5]), requires_grad=True)
    y = (x * x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_constants_stay_off_the_tape():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    out = (a * b).sum()
    assert not out.requires_grad
    with pytest.raises(ContractError):
        out.backward()


def test_frozen_parent_receives_no_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([5.0, 6.0])
    (a * frozen).sum().backward()
    assert frozen.grad is None
    np.testing.assert_array_equal(a.grad, frozen.data)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_deep_chain_does_not_recurse():
    x = Tensor(np.asarray(1.0), requires_grad=True)
    y = x
    one = Tensor(np.asarray(1.0))
    for _ in range(3000):
        y = y + one
    y.backward()
    assert x.grad == 1.0


def test_detach_copies_and_leaves_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    d.data[0] = 99.0
    assert x.data[0] == 1.0


def test_narrow_copies_its_slice():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    n = x.narrow(0, 0, 1)
    n.data[0, 0] = 42.0
    assert x.data[0, 0] == 0.0


# -- no_grad ----------------------------------------------------------------------

def every_op():
    """One call of every op on fresh leaves that require gradients."""
    r = rng_for(30)

    def leaf(*shape):
        return Tensor(r.normal(size=shape), requires_grad=True)

    a, b, w, x = leaf(3, 4), leaf(3, 4), leaf(4, 2), leaf(2, 5, 5)
    u, v, k, kb = leaf(6), leaf(6), leaf(3, 2, 3, 3), leaf(3)
    xb = leaf(2, 2, 4, 3)
    return {
        "add": lambda: a + b, "sub": lambda: a - b,
        "add_0d": lambda: a.sum() + b.sum(),
        "mul": lambda: a * b, "scale": lambda: a.scale(0.3),
        "matmul": lambda: a @ w, "relu": lambda: a.relu(), "sum": lambda: a.sum(),
        "reshape": lambda: a.reshape(2, 6), "transpose": lambda: a.transpose(),
        "narrow": lambda: a.narrow(1, 1, 2), "softmax": lambda: a.softmax(axis=0),
        "log_softmax": lambda: a.log_softmax(), "concat": lambda: concat([a, b]),
        "linear": lambda: linear(a, w.transpose(), u.narrow(0, 0, 2)),
        "conv2d": lambda: conv2d(x, k, kb, padding=1),
        "conv2d_batched": lambda: conv2d(xb, k, kb, padding=1),
        "cosine_similarity": lambda: cosine_similarity(u, v),
        "embedding": lambda: embedding(a, [2, 0, 2]),
        "layer_norm": lambda: layer_norm(a, u.narrow(0, 0, 4), v.narrow(0, 2, 4)),
        "take": lambda: take(a, [0, 2], [3, 1]),
    }


@pytest.mark.parametrize("name", sorted(every_op()))
def test_no_grad_records_nothing_and_computes_the_same(name):
    op = every_op()[name]
    taped = op()
    assert taped.requires_grad
    with no_grad():
        quiet = op()
    assert not quiet.requires_grad
    assert quiet._parents == () and quiet._backward is None
    assert quiet.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("name", sorted(every_op()))
def test_every_op_returns_a_fresh_contiguous_float64_array(name):
    # results skip Tensor.__init__, so each op must hand over such an array;
    # only reshape's result is a view of its input
    op = every_op()[name]
    taped = op()
    with no_grad():
        quiet = op()
    for t in (taped, quiet):
        assert type(t.data) is np.ndarray
        assert t.data.dtype == np.float64 and t.data.flags["C_CONTIGUOUS"]
        assert t.grad is None and t._pass_grad is None
        aliased = [np.shares_memory(t.data, p.data) for p in taped._parents]
        assert aliased == [name == "reshape"] * len(aliased)


def test_no_grad_restores_recording_on_exit_and_on_raise():
    a = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not (a * a).requires_grad      # an inner block keeps the outer one
    assert (a * a).requires_grad
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("boom")
    assert (a * a).requires_grad
    ((a * a).sum()).backward()
    assert a.grad.tolist() == [2.0, 2.0]


# -- shape and contract errors ---------------------------------------------------

def test_shape_errors():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)) @ Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        a @ a
    with pytest.raises(ShapeError):
        a.reshape(5)
    with pytest.raises(ShapeError):
        a.transpose(0, 0)
    with pytest.raises(ShapeError):
        a.narrow(2, 0, 1)
    with pytest.raises(ShapeError):
        a.narrow(0, 1, 5)
    with pytest.raises(ShapeError):
        a.narrow(0, 0, 0)


@pytest.mark.parametrize("factor", [np.asarray(2.0), np.array([1.0, 2.0])],
                         ids=["0-d", "1-d"])
def test_scale_takes_no_tensor_factor(factor):
    # a factor on the tape would need a gradient that scale does not send
    with pytest.raises(TypeError):
        Tensor(np.ones((2, 3))).scale(Tensor(factor, requires_grad=True))


@pytest.mark.parametrize("shape", [(-2, -3), (-1, -6), (2, -1), (-1,), (-6,), (3, -2)])
def test_reshape_rejects_every_negative_dimension(shape):
    a = Tensor(np.arange(6.0), requires_grad=True)
    with pytest.raises(ShapeError):
        a.reshape(*shape)
    with pytest.raises(ShapeError):
        a.reshape(shape)


def test_matmul_shape_errors():
    batched = Tensor(np.ones((2, 3, 5)))
    with pytest.raises(ShapeError):
        batched @ Tensor(np.ones((5, 4)))                   # mixed rank
    with pytest.raises(ShapeError):
        Tensor(np.ones((3, 5))) @ Tensor(np.ones((2, 5, 4)))
    with pytest.raises(ShapeError):
        batched @ Tensor(np.ones((3, 5, 4)))                # batch dims differ
    with pytest.raises(ShapeError):
        batched @ Tensor(np.ones((2, 4, 4)))                # inner dims differ
    with pytest.raises(ShapeError):
        Tensor(np.ones((3, 5))) @ Tensor(np.ones(5))        # 1-d operand
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))
    assert (batched @ Tensor(np.ones((2, 5, 4)))).shape == (2, 3, 4)


def test_linear_conv_validation():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((4, 3))), Tensor(np.ones(3)))
    img = Tensor(np.ones((2, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d(img, Tensor(np.ones((3, 2, 2, 2))))          # even kernel
    with pytest.raises(ShapeError):
        conv2d(img, Tensor(np.ones((3, 5, 3, 3))))          # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(img, Tensor(np.ones((3, 2, 3, 3))), padding=-1)
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((2, 1, 1))), Tensor(np.ones((3, 2, 3, 3))))
    with pytest.raises(ShapeError):
        conv2d(img, Tensor(np.ones((3, 2, 3, 3))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match=r"\(B, C, H, W\)"):
        conv2d(Tensor(np.ones((1, 2, 2, 4, 4))), Tensor(np.ones((3, 2, 1, 1))))
    with pytest.raises(ShapeError, match="channels disagree"):
        conv2d(Tensor(np.ones((2, 2, 4, 4))), Tensor(np.ones((3, 5, 1, 1))))


def test_gather_validation():
    t = Tensor(np.ones((3, 4)))
    with pytest.raises(ContractError):
        embedding(t, [0, 7])
    with pytest.raises(ContractError):
        take(t, [], [])
    with pytest.raises(ContractError):
        take(t, [0], [9])
    with pytest.raises(ShapeError):
        take(t, [0, 1], [0])
    with pytest.raises(ContractError):
        concat([])
    with pytest.raises(ShapeError):
        concat([t, Tensor(np.ones(4))])
    with pytest.raises(ShapeError):
        layer_norm(t, Tensor(np.ones(3)), Tensor(np.ones(4)))


# -- parameter registry ----------------------------------------------------------

def test_parameter_set_basics():
    ps = ParameterSet()
    w = ps.add("lm.head.weight", np.ones((2, 2)))
    ps.add("lm.head.bias", np.zeros(2))
    ps.add("encoder.proj.weight", np.ones((2, 2)))
    assert list(ps.state()) == ["lm.head.weight", "lm.head.bias", "encoder.proj.weight"]
    with pytest.raises(ContractError):
        ps.add("lm.head.weight", np.ones(1))
    assert w.requires_grad and ps["lm.head.weight"] is w


def test_freeze_and_trainable():
    ps = ParameterSet()
    ps.add("encoder.w", np.ones(2))
    ps.add("lm.w", np.ones(2))
    assert ps.freeze(()) == []
    frozen = ps.freeze(("encoder.",))
    assert frozen == ["encoder.w"]
    assert ps.trainable() == [ps["lm.w"]]


def test_state_roundtrip_and_strictness():
    ps = ParameterSet()
    ps.add("a", np.array([1.0, 2.0]))
    ps.add("b", np.array([[3.0]]))
    snap = ps.state()
    snap["a"][0] = -1.0      # state() must copy
    assert ps["a"].data[0] == 1.0

    other = ParameterSet()
    other.add("a", np.zeros(2))
    other.add("b", np.zeros((1, 1)))
    other.load_state({"a": np.array([-1.0, 2.0]), "b": np.array([[3.0]])})
    assert other["a"].data[0] == -1.0
    with pytest.raises(ContractError):
        other.load_state({"a": np.zeros(2)})
    with pytest.raises(ContractError):
        other.load_state({"a": np.zeros(2), "b": np.zeros((1, 1)), "zz": np.zeros(1)})
    other.load_state({"zz": np.zeros(1)}, strict=False)    # ignored
    with pytest.raises(ShapeError):
        other.load_state({"a": np.zeros(3), "b": np.zeros((1, 1))})


def test_load_state_copies_the_callers_arrays():
    ps = ParameterSet()
    ps.add("w", np.zeros(2))
    state = {"w": np.array([1.0, 2.0])}
    ps.load_state(state)
    state["w"][0] = -5.0
    assert ps["w"].data.tolist() == [1.0, 2.0]
    ps["w"].data[1] = 7.0
    assert state["w"].tolist() == [-5.0, 2.0]


def test_zero_grads_clears_every_parameter():
    ps = ParameterSet()
    p = ps.add("w", np.array([2.0]))
    (p * p).sum().backward()
    assert p.grad is not None
    ps.zero_grads()
    assert p.grad is None
