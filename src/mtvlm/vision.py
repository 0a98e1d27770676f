"""Visual encoding and projection into the language model's embedding space.

The encoder here is a deterministic stand-in: non-overlapping patchify
followed by a frozen seeded linear map. Anything exposing ``encode`` with
the same output contract (one (k, L_V, D_V) tensor of a record's k frames
plus a grid) can replace it. All k frames run through each stage at once:

* ``downsample``: parameter-free 2x2 space-to-depth on the token grid,
  L_V -> L_d = L_V/4 tokens of depth 4*D_V;
* ``Projector``: a two-layer MLP mapping each token to width D_P;
* ``embed_change``: runs fused change maps, one or a batch, through the
  same space-to-depth and projector.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterSet, Tensor, concat, linear
from .change import (ChangeFeatureMap, DualTimeFeatures, FusionParams,
                     SpatialEnhanceParams, change_extract, tokens_to_grid)
from .errors import ConfigurationError, ContractError, ShapeError
from .fileio import read_text, write_atomic

KINDS = ("single", "pair", "video")


@dataclass
class VisualInput:
    """Raw pixels for one sample: k frames of 3 x h x w in [0, 1]."""

    kind: str
    frames: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown visual kind {self.kind!r}")
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 4 or self.frames.shape[1] != 3:
            raise ShapeError(f"frames must be (k, 3, h, w), got {self.frames.shape}")
        if 0 in self.frames.shape[2:]:
            raise ShapeError(f"frames must have positive h and w, got {self.frames.shape}")
        k = self.frames.shape[0]
        if self.kind == "single" and k != 1:
            raise ContractError(f"single input needs 1 frame, got {k}")
        if self.kind == "pair" and k != 2:
            raise ContractError(f"pair input needs 2 frames, got {k}")
        if k < 1:
            raise ContractError("visual input with no frames")
        if not np.isfinite(self.frames).all():
            raise ContractError("pixel values must be finite")
        if self.frames.min() < 0.0 or self.frames.max() > 1.0:
            raise ContractError("pixel values must lie in [0, 1]")

    @property
    def k(self) -> int:
        return self.frames.shape[0]

    def content_hash(self) -> str:
        """Stable hex digest of kind, shape, and pixel bytes."""
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(np.asarray(self.frames.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.frames, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass
class VisualFeatures:
    frames: Tensor            # (k, L_V, D_V): frame after frame
    grid: tuple[int, int]


@dataclass
class VisualEmbeddings:
    """Projected visual tokens: (k * L_d) x D_P, L_d rows per unit."""

    values: Tensor
    per_unit: int

    def units(self) -> list[Tensor]:
        n = self.values.shape[0] // self.per_unit
        return [self.values.narrow(0, i * self.per_unit, self.per_unit) for i in range(n)]


def patchify(frames: np.ndarray, d_p: int) -> np.ndarray:
    """Split (..., 3, h, w) frames into row-major d_p x d_p patches, each
    flattened channel-major to a row of 3*d_p*d_p, frame after frame."""
    *_, c, h, w = frames.shape
    x = frames.reshape(-1, c, h // d_p, d_p, w // d_p, d_p)
    x = x.transpose(0, 2, 4, 1, 3, 5)       # (frame, gh, gw, c, d_p, d_p)
    return np.ascontiguousarray(x).reshape(-1, c * d_p * d_p)


class PatchLinearEncoder:
    """Patchify + one frozen linear projection. Deterministic for a seed."""

    def __init__(self, d_p: int, d_v: int, params: ParameterSet,
                 rng: np.random.Generator):
        if d_p < 1 or d_v < 1:
            raise ConfigurationError(f"encoder dims must be positive, got d_p={d_p}, d_v={d_v}")
        self.d_p, self.d_v = d_p, d_v     # patch side, feature depth
        width = 3 * d_p * d_p
        self.weight = params.add("encoder.proj.weight",
                                 rng.normal(0.0, 1.0 / np.sqrt(width), (d_v, width)))
        self.bias = params.add("encoder.proj.bias", np.zeros(d_v))

    def encode(self, vi: VisualInput) -> VisualFeatures:
        d_p = self.d_p
        _, _, h, w = vi.frames.shape
        if h % d_p or w % d_p:
            raise ConfigurationError(
                f"frame size {h}x{w} is not divisible by patch size {d_p}")
        gh, gw = h // d_p, w // d_p
        feats = linear(Tensor(patchify(vi.frames, d_p)), self.weight, self.bias)
        return VisualFeatures(frames=feats.reshape(vi.k, gh * gw, self.d_v), grid=(gh, gw))


def _space_to_depth(maps: Tensor) -> Tensor:
    """2x2 space-to-depth of a (D, H, W) map or a (B, D, H, W) batch of
    them into (B*L_d, 4*D) rows, map after map, L_d = (H/2)*(W/2).

    Each row concatenates its 2x2 neighborhood depth-wise in top-left,
    top-right, bottom-left, bottom-right order.
    """
    *lead, d, h, w = maps.shape
    for side, n in (("height", h), ("width", w)):
        if n % 2:
            raise ConfigurationError(f"downsample needs an even grid {side}, got {n}")
    x = maps.reshape(math.prod(lead), d, h // 2, 2, w // 2, 2)
    return x.transpose(0, 2, 4, 3, 5, 1).reshape(maps.data.size // (4 * d), 4 * d)


def downsample(f: VisualFeatures) -> Tensor:
    """2x2 space-to-depth on every frame at once: (k, L_V, D_V) ->
    (k*L_d, 4*D_V), frame after frame."""
    return _space_to_depth(tokens_to_grid(f.frames, f.grid))


class Projector:
    """Two-layer token-wise MLP from depth 4*D_V to the LM width D_P."""

    def __init__(self, d_v: int, dim: int, params: ParameterSet,
                 rng: np.random.Generator):
        self.d_v = d_v
        self.dim = dim
        d_in = 4 * d_v
        self.fc1_w = params.add("projector.fc1.weight",
                                rng.normal(0.0, 1.0 / np.sqrt(d_in), (dim, d_in)))
        self.fc1_b = params.add("projector.fc1.bias", np.zeros(dim))
        self.fc2_w = params.add("projector.fc2.weight",
                                rng.normal(0.0, 1.0 / np.sqrt(dim), (dim, dim)))
        self.fc2_b = params.add("projector.fc2.bias", np.zeros(dim))

    def project(self, f_d: list[Tensor]) -> VisualEmbeddings:
        """(L_d, 4*D_V) units, all through one fc1/relu/fc2 pass."""
        if not f_d:
            raise ContractError("project called with no frames")
        per_unit = f_d[0].shape[0]
        for t in f_d:
            if t.shape[1] != 4 * self.d_v:
                raise ShapeError(
                    f"projector expects depth {4 * self.d_v}, got {t.shape}")
            if t.shape[0] != per_unit:
                raise ShapeError("frames disagree on token count")
        x = f_d[0] if len(f_d) == 1 else concat(f_d, axis=0)
        hidden = linear(x, self.fc1_w, self.fc1_b).relu()
        return VisualEmbeddings(values=linear(hidden, self.fc2_w, self.fc2_b),
                                per_unit=per_unit)


def _embed(rows: Tensor, grid: tuple[int, int], projector: Projector) -> VisualEmbeddings:
    """Project space-to-depth rows of maps on ``grid``, one unit per map."""
    h, w = grid
    return VisualEmbeddings(values=projector.project([rows]).values,
                            per_unit=(h // 2) * (w // 2))


def embed_change(fmap: ChangeFeatureMap, projector: Projector) -> VisualEmbeddings:
    """Project a change map exactly like a single image, one unit per map.

    A (B, D, H, W) batch goes through ``downsample``'s space-to-depth into
    B*L_d rows and one pass of the projector.
    """
    return _embed(_space_to_depth(fmap.values), fmap.values.shape[-2:], projector)


class VisualPath:
    """Encoder, spatial enhance, fusion and projector, drawn from ``rng`` in
    that order, so both training stages start from the same visual weights."""

    def __init__(self, params: ParameterSet, rng: np.random.Generator, *,
                 patch: int, d_v: int, dim: int):
        self.encoder = PatchLinearEncoder(patch, d_v, params, rng)
        self.enhance = SpatialEnhanceParams(params, d_v)
        self.fusion = FusionParams(params, d_v, rng)
        self.projector = Projector(d_v, dim, params, rng)

    def frame_embeddings(self, feats: VisualFeatures) -> VisualEmbeddings:
        """Every encoded frame as one projected unit, all through one pass."""
        return _embed(downsample(feats), feats.grid, self.projector)

    def change_embeddings(self, feats: list[VisualFeatures]) -> VisualEmbeddings:
        """Encoded pairs, two frames each and all on one grid, as one
        projected change unit per pair, through one change extraction."""
        grid = feats[0].grid
        if any(f.grid != grid for f in feats):
            raise ShapeError(f"pairs on grids {sorted({f.grid for f in feats})} "
                             "cannot share a change extraction")
        _, l_v, d_v = feats[0].frames.shape
        # (2, B*L_V, D_V): each time point's frames of all pairs, pair after pair
        times = concat([f.frames for f in feats], axis=1)
        f1, f2 = (times.narrow(0, i, 1).reshape(len(feats), l_v, d_v) for i in (0, 1))
        dual = DualTimeFeatures(f1=f1, f2=f2, grid=grid)
        return embed_change(change_extract(dual, self.enhance, self.fusion),
                            self.projector)


def sample_frames(frames: np.ndarray, k: int) -> np.ndarray:
    """Uniform temporal sampling of (T, ...) down (or up) to k frames."""
    t = frames.shape[0]
    if k < 1:
        raise ConfigurationError(f"frame count must be positive, got {k}")
    if t == k:
        return frames
    idx = np.round(np.linspace(0, t - 1, k)).astype(int)
    return frames[idx]


# -- pixel fixtures -----------------------------------------------------------

def write_pixels(path: str | Path, frames: np.ndarray) -> None:
    """Raw little-endian f64 dump plus a JSON sidecar with the shape and the
    payload's crc32, each replaced whole (the payload first), so neither is
    left truncated and a payload left beside an older sidecar is rejected."""
    path = Path(path)
    frames = np.ascontiguousarray(frames, dtype="<f8")
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ShapeError(f"pixel files hold (k, 3, h, w), got {frames.shape}")
    k, _, h, w = frames.shape
    payload = frames.tobytes()
    write_atomic(path, payload)
    sidecar = {"k": int(k), "channels": 3, "h": int(h), "w": int(w),
               "crc32": zlib.crc32(payload)}
    write_atomic(path.with_suffix(".json"), json.dumps(sidecar, sort_keys=True))


def read_pixels(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        sidecar = json.loads(read_text(path.with_suffix(".json"), ContractError))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: sidecar is not valid JSON: {exc}") from exc
    shape = tuple(sidecar.get(key) if isinstance(sidecar, dict) else None
                  for key in ("k", "channels", "h", "w"))
    if not all(type(n) is int and n > 0 for n in shape) or shape[1] != 3:
        raise ContractError(
            f"{path}: sidecar must give positive int k, h, w and channels 3, got {sidecar!r}")
    expected = math.prod(shape) * 8
    blob = path.read_bytes()
    if len(blob) != expected:
        raise ContractError(
            f"{path}: payload is {len(blob)} bytes, sidecar {shape} needs {expected}")
    crc = zlib.crc32(blob)
    if type(sidecar.get("crc32")) is not int or sidecar["crc32"] != crc:
        raise ContractError(
            f"{path}: payload crc32 is {crc}, sidecar gives {sidecar.get('crc32')!r}")
    return np.frombuffer(blob, dtype="<f8").reshape(shape).copy()


def load_visual(kind: str, refs: list[str | Path], base_dir: str | Path | None = None,
                max_frames: int | None = None) -> VisualInput:
    """Assemble a VisualInput from one pixel file per frame reference, all
    holding frames of one size."""
    if not refs:
        raise ContractError(f"{kind} input has no frame references")
    base = Path(base_dir) if base_dir is not None else None
    paths = [base / p if base is not None and not p.is_absolute() else p
             for p in map(Path, refs)]
    frames = [read_pixels(p) for p in paths]
    for p, arr in zip(paths, frames):
        if arr.shape[1:] != frames[0].shape[1:]:
            raise ContractError(f"{p}: frames of shape {arr.shape[1:]} do not match "
                                f"{paths[0]}'s {frames[0].shape[1:]}")
    stacked = np.concatenate(frames, axis=0)
    if kind == "video" and max_frames is not None and stacked.shape[0] > max_frames:
        stacked = sample_frames(stacked, max_frames)
    return VisualInput(kind=kind, frames=stacked)
