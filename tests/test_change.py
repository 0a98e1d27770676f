"""Change extraction: hand oracles, identity collapse, gradient checks."""

import numpy as np
import pytest

from gradcheck import gradcheck, scalarizer, tape_nodes
from mtvlm.autograd import ParameterSet, Tensor, conv2d
from mtvlm.change import (
    ChangeFeatureMap, DualTimeFeatures, FusionParams, SpatialEnhanceParams,
    change_extract, fuse, spatial_enhance, tokens_to_grid,
)
from mtvlm.errors import ShapeError


def make_params(d_v, seed=0):
    ps = ParameterSet()
    sp = SpatialEnhanceParams(ps, d_v)
    fp = FusionParams(ps, d_v, np.random.default_rng(seed))
    return ps, sp, fp


def enhance_oracle(f1, f2, w, grid):
    """Plain numpy re-derivation of the distance-embedded concatenation."""
    rows = []
    for a, b in zip(f1, f2):
        denom = np.sqrt((a @ a) * (b @ b))
        dist = 1.0 - (a @ b) / denom
        rows.append(dist * w + np.concatenate([a, b]))
    out = np.stack(rows)
    h, wd = grid
    return out.T.reshape(out.shape[1], h, wd)


# -- grid rearrangement ----------------------------------------------------------

def test_tokens_to_grid_known_layout():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    g = tokens_to_grid(t, (2, 2))
    np.testing.assert_array_equal(
        g.data, [[[1.0, 3.0], [5.0, 7.0]], [[2.0, 4.0], [6.0, 8.0]]])


def test_grid_roundtrip():
    r = np.random.default_rng(1)
    t = Tensor(r.normal(size=(6, 3)))
    g = tokens_to_grid(t, (2, 3))
    np.testing.assert_array_equal(g.data.reshape(3, 6).T, t.data)


def test_batched_grid_roundtrip_matches_each_sample():
    r = np.random.default_rng(12)
    t = Tensor(r.normal(size=(3, 6, 2)))
    g = tokens_to_grid(t, (2, 3))
    assert g.shape == (3, 2, 2, 3)
    for b in range(3):
        one = tokens_to_grid(Tensor(t.data[b]), (2, 3))
        assert g.data[b].tobytes() == one.data.tobytes()
    np.testing.assert_array_equal(g.data.reshape(3, 2, 6).transpose(0, 2, 1), t.data)


def test_grid_shape_errors():
    with pytest.raises(ShapeError):
        tokens_to_grid(Tensor(np.ones((4, 2))), (3, 2))
    with pytest.raises(ShapeError):
        tokens_to_grid(Tensor(np.ones(4)), (2, 2))
    with pytest.raises(ShapeError):
        tokens_to_grid(Tensor(np.ones((1, 2, 4, 2))), (2, 2))


def test_dual_time_validation():
    ok = np.ones((4, 3))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(ok), Tensor(np.ones((4, 2))), (2, 2))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(np.ones(4)), Tensor(np.ones(4)), (2, 2))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(ok), Tensor(ok.copy()), (3, 2))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 6, 3))), (2, 2))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 4, 3))), (3, 2))
    with pytest.raises(ShapeError):
        DualTimeFeatures(Tensor(np.ones((1, 2, 4, 3))), Tensor(np.ones((1, 2, 4, 3))), (2, 2))


# -- enhancement oracle ------------------------------------------------------------

def test_spatial_enhance_matches_numpy_oracle():
    r = np.random.default_rng(2)
    f1 = r.normal(size=(4, 3)) + 0.5
    f2 = r.normal(size=(4, 3)) - 0.5
    ps, sp, _ = make_params(3)
    sp.w_embed.data = r.normal(size=6)
    d = DualTimeFeatures(Tensor(f1), Tensor(f2), (2, 2))
    got = spatial_enhance(d, sp)
    np.testing.assert_allclose(
        got.data, enhance_oracle(f1, f2, sp.w_embed.data, (2, 2)),
        rtol=1e-13, atol=1e-13)


def test_spatial_enhance_single_position_fixture():
    # cos([3,4],[4,3]) = 24/25, so dist = 0.04 scales the embedding
    ps, sp, _ = make_params(2)
    sp.w_embed.data = np.array([1.0, 2.0, 3.0, -1.0])
    d = DualTimeFeatures(Tensor([[3.0, 4.0]]), Tensor([[4.0, 3.0]]), (1, 1))
    out = spatial_enhance(d, sp)
    np.testing.assert_allclose(
        out.data.reshape(4), [3.04, 4.08, 4.12, 2.96], atol=1e-12)


def test_spatial_enhance_rejects_wrong_embedding_width():
    ps = ParameterSet()
    sp = SpatialEnhanceParams(ps, 4)
    d = DualTimeFeatures(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 3))), (2, 2))
    with pytest.raises(ShapeError):
        spatial_enhance(d, sp)


def test_spatial_enhance_tape_size_is_independent_of_grid():
    sizes = set()
    for grid in ((1, 1), (2, 2), (3, 4), (6, 6)):
        r = np.random.default_rng(sum(grid))
        n = grid[0] * grid[1]
        ps, sp, _ = make_params(3)
        sp.w_embed.data = r.normal(size=6)
        f1 = Tensor(r.normal(size=(n, 3)), requires_grad=True)
        f2 = Tensor(r.normal(size=(n, 3)), requires_grad=True)
        sizes.add(tape_nodes(spatial_enhance(DualTimeFeatures(f1, f2, grid), sp)))
    assert len(sizes) == 1


# -- identity collapse ---------------------------------------------------------------

def test_identical_frames_collapse_to_concat_bit_exactly():
    r = np.random.default_rng(3)
    for trial in range(20):
        d_v = int(r.integers(1, 5))
        h, w = int(r.integers(1, 4)), int(r.integers(1, 4))
        f = r.normal(size=(h * w, d_v))
        ps, sp, _ = make_params(d_v, seed=trial)
        sp.w_embed.data = r.normal(size=2 * d_v)   # nonzero on purpose
        d = DualTimeFeatures(Tensor(f), Tensor(f.copy()), (h, w))
        got = spatial_enhance(d, sp)
        want = np.concatenate([f, f], axis=1).T.reshape(2 * d_v, h, w)
        assert got.data.tobytes() == want.tobytes()


def test_zeroed_module_reduces_to_halving_conv_bit_exactly():
    r = np.random.default_rng(4)
    for trial in range(20):
        d_v = int(r.integers(1, 5))
        h, w = int(r.integers(1, 4)), int(r.integers(1, 4))
        f1 = r.normal(size=(h * w, d_v))
        f2 = r.normal(size=(h * w, d_v))
        ps, sp, fp = make_params(d_v, seed=100 + trial)
        fp.conv1_w.data = np.zeros_like(fp.conv1_w.data)
        fp.conv2_w.data = np.zeros_like(fp.conv2_w.data)
        fp.conv3_w.data = np.zeros_like(fp.conv3_w.data)
        d = DualTimeFeatures(Tensor(f1), Tensor(f2), (h, w))
        got = change_extract(d, sp, fp)
        rearranged = Tensor(np.concatenate([f1, f2], axis=1).T.reshape(2 * d_v, h, w))
        want = conv2d(rearranged, fp.conv_half_w, fp.conv_half_b)
        assert got.values.data.tobytes() == want.data.tobytes()


def test_fresh_init_block_contributes_nothing():
    # conv3 starts at zero, so an untouched module is exactly the halving conv
    r = np.random.default_rng(5)
    ps, sp, fp = make_params(3, seed=9)
    f1, f2 = r.normal(size=(4, 3)), r.normal(size=(4, 3))
    d = DualTimeFeatures(Tensor(f1), Tensor(f2), (2, 2))
    got = change_extract(d, sp, fp)
    want = conv2d(spatial_enhance(d, sp), fp.conv_half_w, fp.conv_half_b)
    assert got.values.data.tobytes() == want.data.tobytes()


# -- fusion -----------------------------------------------------------------------

def test_fuse_output_shape_and_type():
    ps, sp, fp = make_params(2)
    out = fuse(Tensor(np.random.default_rng(6).normal(size=(4, 3, 2))), fp)
    assert isinstance(out, ChangeFeatureMap)
    assert out.values.shape == (2, 3, 2)


def test_fuse_rejects_wrong_depth():
    ps, sp, fp = make_params(2)
    with pytest.raises(ShapeError):
        fuse(Tensor(np.ones((3, 2, 2))), fp)
    with pytest.raises(ShapeError):
        fuse(Tensor(np.ones((4, 4))), fp)


def test_batched_change_extract_matches_each_pair():
    # one identical pair among changed ones: the batch keeps its collapse
    r = np.random.default_rng(13)
    d_v, grid = 3, (2, 4)
    ps, sp, fp = make_params(d_v, seed=14)
    sp.w_embed.data = r.normal(size=2 * d_v)
    fp.conv3_w.data = r.normal(size=fp.conv3_w.data.shape) * 0.1
    f1 = r.normal(size=(3, 8, d_v))
    f2 = r.normal(size=(3, 8, d_v))
    f2[1] = f1[1]
    batched = DualTimeFeatures(Tensor(f1), Tensor(f2), grid)
    enhanced = spatial_enhance(batched, sp)
    fused = change_extract(batched, sp, fp).values
    assert enhanced.shape == (3, 2 * d_v, 2, 4) and fused.shape == (3, d_v, 2, 4)
    for b in range(3):
        one = DualTimeFeatures(Tensor(f1[b]), Tensor(f2[b]), grid)
        assert enhanced.data[b].tobytes() == spatial_enhance(one, sp).data.tobytes()
        np.testing.assert_allclose(fused.data[b], change_extract(one, sp, fp).values.data,
                                   rtol=0, atol=1e-12)
    concat = np.concatenate([f1[1], f1[1]], axis=1).T.reshape(2 * d_v, *grid)
    assert enhanced.data[1].tobytes() == concat.tobytes()


# -- gradients through the whole module ----------------------------------------------

def test_change_extract_gradcheck():
    r = np.random.default_rng(7)
    d_v = 2
    ps, sp, fp = make_params(d_v, seed=11)
    sp.w_embed.data = r.normal(size=2 * d_v) * 0.1
    f1 = Tensor(r.normal(size=(4, d_v)) + 1.0)
    f2 = Tensor(r.normal(size=(4, d_v)) - 1.0)
    leaves = [f1, f2] + [p for p in ps.values()]
    reduce = scalarizer((d_v, 2, 2), r)

    def loss():
        d = DualTimeFeatures(f1, f2, (2, 2))
        return reduce(change_extract(d, sp, fp).values)

    gradcheck(loss, leaves)
