"""Visual encoding and projection into the language model's embedding space.

The encoder here is a deterministic stand-in: non-overlapping patchify
followed by a frozen seeded linear map. Anything exposing ``encode`` with
the same output contract (per-frame (L_V, D_V) features plus a grid) can
replace it. Downstream of the encoder:

* ``downsample``: parameter-free 2x2 space-to-depth, L_V -> L_d = L_V/4
  tokens of depth 4*D_V;
* ``Projector``: a two-layer MLP mapping each token to width D_P;
* ``embed_change``: runs a fused change map through the same two stages.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterSet, Tensor, concat, linear
from .change import ChangeFeatureMap, grid_to_tokens
from .errors import ConfigurationError, ContractError, ShapeError

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
class EncoderConfig:
    d_p: int   # patch side
    d_v: int   # feature depth

    def __post_init__(self):
        if self.d_p < 1 or self.d_v < 1:
            raise ConfigurationError(f"encoder dims must be positive, got {self}")


@dataclass
class VisualFeatures:
    per_frame: list[Tensor]   # k tensors, each (L_V, D_V)
    grid: tuple[int, int]


@dataclass
class VisualEmbeddings:
    """Projected visual tokens: (k * L_d) x D_P, L_d rows per unit."""

    values: Tensor
    per_unit: int

    def units(self) -> list[Tensor]:
        n = self.values.shape[0] // self.per_unit
        return [self.values.narrow(0, i * self.per_unit, self.per_unit) for i in range(n)]


def patchify(frame: np.ndarray, d_p: int) -> np.ndarray:
    """Split (3, h, w) into row-major d_p x d_p patches, each flattened
    channel-major to length 3*d_p*d_p."""
    c, h, w = frame.shape
    gh, gw = h // d_p, w // d_p
    x = frame.reshape(c, gh, d_p, gw, d_p)
    x = x.transpose(1, 3, 0, 2, 4)          # (gh, gw, c, d_p, d_p)
    return np.ascontiguousarray(x).reshape(gh * gw, c * d_p * d_p)


class PatchLinearEncoder:
    """Patchify + one frozen linear projection. Deterministic for a seed."""

    def __init__(self, cfg: EncoderConfig, params: ParameterSet,
                 rng: np.random.Generator, prefix: str = "encoder."):
        self.cfg = cfg
        width = 3 * cfg.d_p * cfg.d_p
        self.weight = params.add(prefix + "proj.weight",
                                 rng.normal(0.0, 1.0 / np.sqrt(width), (cfg.d_v, width)))
        self.bias = params.add(prefix + "proj.bias", np.zeros(cfg.d_v))

    def encode(self, vi: VisualInput) -> VisualFeatures:
        d_p = self.cfg.d_p
        _, _, h, w = vi.frames.shape
        if h % d_p or w % d_p:
            raise ConfigurationError(
                f"frame size {h}x{w} is not divisible by patch size {d_p}")
        feats = [linear(Tensor(patchify(f, d_p)), self.weight.tensor, self.bias.tensor)
                 for f in vi.frames]
        return VisualFeatures(per_frame=feats, grid=(h // d_p, w // d_p))


def downsample(f: VisualFeatures) -> list[Tensor]:
    """2x2 space-to-depth on every frame: (L_V, D_V) -> (L_d, 4*D_V).

    Each output token concatenates its 2x2 neighborhood depth-wise in
    top-left, top-right, bottom-left, bottom-right order.
    """
    h, w = f.grid
    if h % 2:
        raise ConfigurationError(f"downsample needs an even grid height, got {h}")
    if w % 2:
        raise ConfigurationError(f"downsample needs an even grid width, got {w}")
    out = []
    for t in f.per_frame:
        d = t.shape[1]
        x = t.reshape(h // 2, 2, w // 2, 2, d)
        x = x.transpose(0, 2, 1, 3, 4)
        out.append(x.reshape((h // 2) * (w // 2), 4 * d))
    return out


class Projector:
    """Two-layer token-wise MLP from depth 4*D_V to the LM width D_P."""

    def __init__(self, d_v: int, dim: int, params: ParameterSet,
                 rng: np.random.Generator, prefix: str = "projector."):
        self.d_v = d_v
        self.dim = dim
        d_in = 4 * d_v
        self.fc1_w = params.add(prefix + "fc1.weight",
                                rng.normal(0.0, 1.0 / np.sqrt(d_in), (dim, d_in)))
        self.fc1_b = params.add(prefix + "fc1.bias", np.zeros(dim))
        self.fc2_w = params.add(prefix + "fc2.weight",
                                rng.normal(0.0, 1.0 / np.sqrt(dim), (dim, dim)))
        self.fc2_b = params.add(prefix + "fc2.bias", np.zeros(dim))

    def project(self, f_d: list[Tensor]) -> VisualEmbeddings:
        if not f_d:
            raise ContractError("project called with no frames")
        per_unit = f_d[0].shape[0]
        outs = []
        for t in f_d:
            if t.shape[1] != 4 * self.d_v:
                raise ShapeError(
                    f"projector expects depth {4 * self.d_v}, got {t.shape}")
            if t.shape[0] != per_unit:
                raise ShapeError("frames disagree on token count")
            hidden = linear(t, self.fc1_w.tensor, self.fc1_b.tensor).relu()
            outs.append(linear(hidden, self.fc2_w.tensor, self.fc2_b.tensor))
        return VisualEmbeddings(values=concat(outs, axis=0), per_unit=per_unit)


def embed_change(fmap: ChangeFeatureMap, projector: Projector) -> VisualEmbeddings:
    """Project a change map exactly like a single image."""
    d, h, w = fmap.values.shape
    tokens = grid_to_tokens(fmap.values)
    feats = VisualFeatures(per_frame=[tokens], grid=(h, w))
    return projector.project(downsample(feats))


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
    """Raw little-endian f64 dump plus a JSON sidecar with the shape."""
    path = Path(path)
    frames = np.ascontiguousarray(frames, dtype="<f8")
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ShapeError(f"pixel files hold (k, 3, h, w), got {frames.shape}")
    k, _, h, w = frames.shape
    path.write_bytes(frames.tobytes())
    sidecar = {"k": int(k), "channels": 3, "h": int(h), "w": int(w)}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_pixels(path: str | Path) -> np.ndarray:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
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
    return np.frombuffer(blob, dtype="<f8").reshape(shape).copy()


def load_visual(kind: str, refs: list[str | Path], base_dir: str | Path | None = None,
                max_frames: int | None = None) -> VisualInput:
    """Assemble a VisualInput from one pixel file per frame reference."""
    base = Path(base_dir) if base_dir is not None else None
    frames = []
    for ref in refs:
        p = Path(ref)
        if base is not None and not p.is_absolute():
            p = base / p
        arr = read_pixels(p)
        frames.append(arr)
    stacked = np.concatenate(frames, axis=0)
    if kind == "video" and max_frames is not None and stacked.shape[0] > max_frames:
        stacked = sample_frames(stacked, max_frames)
    return VisualInput(kind=kind, frames=stacked)
