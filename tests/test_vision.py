"""Encoder stub, downsampling, projector, pixel files, frame sampling."""

import json

import numpy as np
import pytest

from gradcheck import gradcheck, scalarizer
from mtvlm.autograd import ParameterSet, Tensor
from mtvlm.change import ChangeFeatureMap
from mtvlm.errors import ConfigurationError, ContractError, ShapeError
from mtvlm.vision import (
    EncoderConfig, PatchLinearEncoder, Projector, VisualFeatures, VisualInput,
    downsample, embed_change, load_visual, patchify, read_pixels,
    sample_frames, write_pixels,
)


def patchify_oracle(frame, d_p):
    c, h, w = frame.shape
    out = []
    for gy in range(h // d_p):
        for gx in range(w // d_p):
            patch = frame[:, gy * d_p:(gy + 1) * d_p, gx * d_p:(gx + 1) * d_p]
            out.append(patch.reshape(-1))
    return np.stack(out)


def downsample_oracle(tokens, h, w):
    d = tokens.shape[1]
    g = tokens.reshape(h, w, d)
    rows = []
    for y in range(0, h, 2):
        for x in range(0, w, 2):
            rows.append(np.concatenate([g[y, x], g[y, x + 1],
                                        g[y + 1, x], g[y + 1, x + 1]]))
    return np.stack(rows)


# -- visual inputs ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_visual_input_rejects_non_finite_pixels(bad):
    frames = np.zeros((1, 3, 4, 4))
    frames[0, 1, 2, 3] = bad
    with pytest.raises(ContractError, match="finite"):
        VisualInput("single", frames)


def test_visual_input_validation():
    ok = np.zeros((1, 3, 4, 4))
    VisualInput("single", ok)
    with pytest.raises(ContractError):
        VisualInput("mosaic", ok)
    with pytest.raises(ContractError):
        VisualInput("single", np.zeros((2, 3, 4, 4)))
    with pytest.raises(ContractError):
        VisualInput("pair", ok)
    with pytest.raises(ShapeError):
        VisualInput("single", np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeError):
        VisualInput("single", np.zeros((3, 4, 4)))
    with pytest.raises(ContractError):
        VisualInput("single", np.full((1, 3, 4, 4), 1.5))
    with pytest.raises(ContractError):
        VisualInput("single", np.full((1, 3, 4, 4), -0.1))


def test_content_hash_frozen_and_sensitive():
    vi = VisualInput("single", np.zeros((1, 3, 2, 2)))
    assert vi.content_hash() == (
        "09769bfe79f44d12b6624e8a70a841a1001d4bfb726d0b341939374e1a1acf34")
    bumped = np.zeros((1, 3, 2, 2))
    bumped[0, 0, 0, 0] = 1.0
    assert VisualInput("single", bumped).content_hash() != vi.content_hash()
    pair = VisualInput("pair", np.zeros((2, 3, 2, 2)))
    video = VisualInput("video", np.zeros((2, 3, 2, 2)))
    assert pair.content_hash() != video.content_hash()


# -- patchify and encoder -----------------------------------------------------------

def test_patchify_matches_loop_oracle():
    r = np.random.default_rng(0)
    frame = r.uniform(size=(3, 6, 4))
    np.testing.assert_array_equal(patchify(frame, 2), patchify_oracle(frame, 2))


def test_patchify_channel_major_layout():
    frame = np.zeros((3, 2, 2))
    frame[0] = [[1.0, 2.0], [3.0, 4.0]]
    frame[1] = 10.0 + frame[0]
    frame[2] = 20.0 + frame[0]
    np.testing.assert_array_equal(
        patchify(frame, 2)[0],
        [1, 2, 3, 4, 11, 12, 13, 14, 21, 22, 23, 24])


def test_encoder_deterministic_and_matches_linear_oracle():
    cfg = EncoderConfig(d_p=2, d_v=5)
    enc1 = PatchLinearEncoder(cfg, ParameterSet(), np.random.default_rng(3))
    enc2 = PatchLinearEncoder(cfg, ParameterSet(), np.random.default_rng(3))
    np.testing.assert_array_equal(enc1.weight.data, enc2.weight.data)

    vi = VisualInput("single", np.random.default_rng(4).uniform(size=(1, 3, 4, 6)))
    feats = enc1.encode(vi)
    assert feats.grid == (2, 3)
    want = patchify_oracle(vi.frames[0], 2) @ enc1.weight.data.T + enc1.bias.data
    np.testing.assert_allclose(feats.per_frame[0].data, want, rtol=1e-12)


def test_encoder_rejects_indivisible_frames():
    enc = PatchLinearEncoder(EncoderConfig(d_p=3, d_v=2), ParameterSet(),
                             np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        enc.encode(VisualInput("single", np.zeros((1, 3, 4, 6))))


def test_encoder_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(d_p=0, d_v=4)


# -- downsampling --------------------------------------------------------------------

def test_downsample_matches_loop_oracle():
    r = np.random.default_rng(5)
    tokens = r.normal(size=(16, 3))
    feats = VisualFeatures(per_frame=[Tensor(tokens)], grid=(4, 4))
    out = downsample(feats)
    assert len(out) == 1 and out[0].shape == (4, 12)
    np.testing.assert_array_equal(out[0].data, downsample_oracle(tokens, 4, 4))


def test_downsample_neighborhood_order():
    # token value encodes its grid position, so the 2x2 gather is visible
    tokens = np.arange(4.0).reshape(4, 1)
    feats = VisualFeatures(per_frame=[Tensor(tokens)], grid=(2, 2))
    np.testing.assert_array_equal(downsample(feats)[0].data, [[0.0, 1.0, 2.0, 3.0]])


def test_downsample_rejects_odd_grids():
    with pytest.raises(ConfigurationError):
        downsample(VisualFeatures(per_frame=[Tensor(np.ones((6, 2)))], grid=(3, 2)))
    with pytest.raises(ConfigurationError):
        downsample(VisualFeatures(per_frame=[Tensor(np.ones((6, 2)))], grid=(2, 3)))


# -- projector -------------------------------------------------------------------------

def test_projector_shapes_and_units():
    ps = ParameterSet()
    proj = Projector(d_v=2, dim=6, params=ps, rng=np.random.default_rng(6))
    frames = [Tensor(np.random.default_rng(7).normal(size=(3, 8))) for _ in range(2)]
    emb = proj.project(frames)
    assert emb.values.shape == (6, 6)
    assert emb.per_unit == 3
    units = emb.units()
    assert len(units) == 2 and units[0].shape == (3, 6)
    np.testing.assert_array_equal(emb.values.data[3:], units[1].data)


def test_projector_validation():
    proj = Projector(d_v=2, dim=4, params=ParameterSet(),
                     rng=np.random.default_rng(8))
    with pytest.raises(ContractError):
        proj.project([])
    with pytest.raises(ShapeError):
        proj.project([Tensor(np.ones((3, 6)))])
    with pytest.raises(ShapeError):
        proj.project([Tensor(np.ones((3, 8))), Tensor(np.ones((2, 8)))])


def test_projector_gradcheck():
    r = np.random.default_rng(9)
    ps = ParameterSet()
    proj = Projector(d_v=1, dim=3, params=ps, rng=r)
    x = Tensor(r.normal(size=(2, 4)))
    reduce = scalarizer((2, 3), r)
    gradcheck(lambda: reduce(proj.project([x]).values),
              [x] + [p.tensor for p in ps.values()])


def test_embed_change_is_one_unit():
    ps = ParameterSet()
    proj = Projector(d_v=3, dim=5, params=ps, rng=np.random.default_rng(10))
    fmap = ChangeFeatureMap(values=Tensor(np.random.default_rng(11).normal(size=(3, 4, 2))))
    emb = embed_change(fmap, proj)
    assert emb.per_unit == 2 and emb.values.shape == (2, 5)
    assert len(emb.units()) == 1


# -- frame sampling ----------------------------------------------------------------------

def test_sample_frames_identity_and_fixtures():
    frames = np.arange(10.0).reshape(10, 1)
    assert sample_frames(frames, 10) is frames
    np.testing.assert_array_equal(sample_frames(frames, 4).reshape(4), [0, 3, 6, 9])
    two = np.arange(2.0).reshape(2, 1)
    np.testing.assert_array_equal(sample_frames(two, 5).reshape(5), [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(sample_frames(frames, 1).reshape(1), [0])
    with pytest.raises(ConfigurationError):
        sample_frames(frames, 0)


# -- pixel files --------------------------------------------------------------------------

def test_pixels_roundtrip(tmp_path):
    frames = np.random.default_rng(12).uniform(size=(2, 3, 4, 4))
    path = tmp_path / "x.f64"
    write_pixels(path, frames)
    back = read_pixels(path)
    assert back.tobytes() == frames.tobytes()
    assert back.dtype == np.float64


def test_pixels_write_validation(tmp_path):
    with pytest.raises(ShapeError):
        write_pixels(tmp_path / "bad.f64", np.zeros((3, 4, 4)))
    with pytest.raises(ShapeError):
        write_pixels(tmp_path / "bad.f64", np.zeros((1, 2, 4, 4)))


def test_pixels_payload_mismatch(tmp_path):
    path = tmp_path / "x.f64"
    write_pixels(path, np.zeros((1, 3, 2, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContractError, match="payload"):
        read_pixels(path)


@pytest.mark.parametrize("sidecar", [
    [1, 3, 2, 2], "k=1", None,                               # not an object
    {"channels": 3, "h": 2, "w": 2},                         # missing k
    {"k": 1, "h": 2, "w": 2},                                # missing channels
    {"k": -1, "channels": 3, "h": -2, "w": 2},
    {"k": 0, "channels": 3, "h": 2, "w": 2},
    {"k": 1, "channels": 1, "h": 2, "w": 6},                 # right byte count
    {"k": 1.0, "channels": 3, "h": 2, "w": 2},
    {"k": True, "channels": 3, "h": 2, "w": 2},
    {"k": "1", "channels": 3, "h": 2, "w": 2},
])
def test_pixels_sidecar_rejected(tmp_path, sidecar):
    path = tmp_path / "x.f64"
    write_pixels(path, np.zeros((1, 3, 2, 2)))
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(ContractError, match="sidecar"):
        read_pixels(path)


def test_pixels_sidecar_size_is_not_wrapped(tmp_path):
    path = tmp_path / "x.f64"
    path.write_bytes(b"")
    # 2**40 * 3 * 2**30 * 8 bytes is 0 in int64 arithmetic
    path.with_suffix(".json").write_text(
        json.dumps({"k": 2 ** 40, "channels": 3, "h": 2 ** 30, "w": 1}))
    with pytest.raises(ContractError, match="payload"):
        read_pixels(path)


def test_load_visual_pair_and_video_sampling(tmp_path):
    r = np.random.default_rng(13)
    for i in range(6):
        write_pixels(tmp_path / f"f{i}.f64", r.uniform(size=(1, 3, 4, 4)))
    pair = load_visual("pair", ["f0.f64", "f1.f64"], base_dir=tmp_path)
    assert pair.kind == "pair" and pair.k == 2
    vid = load_visual("video", [f"f{i}.f64" for i in range(6)],
                      base_dir=tmp_path, max_frames=3)
    assert vid.k == 3
    full = load_visual("video", [f"f{i}.f64" for i in range(6)], base_dir=tmp_path)
    assert full.k == 6
    np.testing.assert_array_equal(vid.frames[0], full.frames[0])
    np.testing.assert_array_equal(vid.frames[-1], full.frames[-1])
