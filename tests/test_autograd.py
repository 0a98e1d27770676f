"""Finite-difference checks and contracts for the tensor library."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import gradcheck, scalarizer
from mtvlm.autograd import (
    ParameterSet, Tensor, concat, conv2d, cosine_similarity, embedding,
    layer_norm, linear, take,
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
    gradcheck(lambda: reduce(-a), [a])
    gradcheck(lambda: reduce(a * b), [a, b])


def test_grad_scale_by_float_and_scalar_tensor():
    r = rng_for(1)
    a = Tensor(r.normal(size=(2, 3)))
    s = Tensor(np.asarray(0.7))
    reduce = scalarizer((2, 3), r)
    gradcheck(lambda: reduce(a.scale(-2.5)), [a])
    gradcheck(lambda: reduce(a.scale(s)), [a, s])


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


# -- tape semantics -------------------------------------------------------------

def test_repeated_backward_accumulates():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


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
    with pytest.raises(ShapeError):
        a.scale(Tensor([1.0, 2.0]))


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
    assert len(ps) == 3
    assert "lm.head.bias" in ps
    assert [p.name for p in ps.with_prefix("lm.")] == ["lm.head.weight", "lm.head.bias"]
    with pytest.raises(ContractError):
        ps.add("lm.head.weight", np.ones(1))
    assert w.tensor.requires_grad


def test_freeze_and_trainable():
    ps = ParameterSet()
    ps.add("encoder.w", np.ones(2))
    ps.add("lm.w", np.ones(2))
    assert ps.freeze(()) == []
    frozen = ps.freeze(("encoder.",))
    assert frozen == ["encoder.w"]
    assert [p.name for p in ps.trainable()] == ["lm.w"]


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


def test_zero_grads_clears_every_parameter():
    ps = ParameterSet()
    p = ps.add("w", np.array([2.0]))
    (p.tensor * p.tensor).sum().backward()
    assert p.grad is not None
    ps.zero_grads()
    assert p.grad is None
