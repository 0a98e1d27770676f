"""Change extraction: dual-time feature fusion with a distance embedding.

Given patch features of the same scene at two times, the module enhances
the concatenated features with a learned embedding of the per-position
cosine distance, then fuses them down to single-image depth with a small
convolutional stack carrying two residual paths:

    enhanced(pos) = dist(pos) * w_embed + concat(f1, f2)(pos)
    mid           = conv_half(enhanced)          # 1x1, 2*D_V -> D_V
    F'            = mid + block(mid)             # 1x1 -> relu -> 3x3 -> relu -> 1x1

``dist = 1 - cos`` vanishes exactly when the two frames carry identical
features, so an unchanged scene passes through as a plain concatenation.

Every step takes an optional leading batch axis: B pairs on one grid run
through one cosine, one concatenation and one call per conv, as rows and
maps stacked along that axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ParameterSet, Tensor, concat, conv2d, cosine_similarity
from .errors import ShapeError


@dataclass
class DualTimeFeatures:
    """Patch features of the two time points plus their spatial grid:
    (L_V, D_V) each for one pair, or (B, L_V, D_V) for a batch of B pairs."""

    f1: Tensor
    f2: Tensor
    grid: tuple[int, int]

    def __post_init__(self):
        if self.f1.shape != self.f2.shape:
            raise ShapeError(
                f"dual-time features disagree: {self.f1.shape} vs {self.f2.shape}")
        if self.f1.ndim not in (2, 3):
            raise ShapeError(
                f"features must be (L_V, D_V) or (B, L_V, D_V), got {self.f1.shape}")
        h, w = self.grid
        if h * w != self.f1.shape[-2]:
            raise ShapeError(
                f"grid {self.grid} implies {h * w} positions, features have {self.f1.shape[-2]}")


@dataclass
class ChangeFeatureMap:
    """Fused change features, one D_V-deep map over the patch grid per pair."""

    values: Tensor  # (D_V, H', W'), or (B, D_V, H', W') for a batch


class SpatialEnhanceParams:
    """The learned projection of the scalar cosine distance.

    Starts at zero so that the enhancement is initially a no-op on top of
    the concatenation residual.
    """

    def __init__(self, params: ParameterSet, d_v: int):
        self.d_v = d_v
        self.w_embed = params.add("change.enhance.w_embed", np.zeros(2 * d_v))


class FusionParams:
    """Parameters of the halving conv and the three-layer residual block.

    The final 1x1 of the block starts at zero, so fusion begins as the
    plain halving projection; conv weights elsewhere start as small
    uniform noise.
    """

    def __init__(self, params: ParameterSet, d_v: int, rng: np.random.Generator):
        self.d_v = d_v
        prefix = "change.fusion."

        def u(shape):
            return rng.uniform(-0.02, 0.02, size=shape)

        self.conv_half_w = params.add(prefix + "conv_half.weight", u((d_v, 2 * d_v, 1, 1)))
        self.conv_half_b = params.add(prefix + "conv_half.bias", np.zeros(d_v))
        self.conv1_w = params.add(prefix + "conv1.weight", u((d_v, d_v, 1, 1)))
        self.conv1_b = params.add(prefix + "conv1.bias", np.zeros(d_v))
        self.conv2_w = params.add(prefix + "conv2.weight", u((d_v, d_v, 3, 3)))
        self.conv2_b = params.add(prefix + "conv2.bias", np.zeros(d_v))
        self.conv3_w = params.add(prefix + "conv3.weight", np.zeros((d_v, d_v, 1, 1)))
        self.conv3_b = params.add(prefix + "conv3.bias", np.zeros(d_v))


def tokens_to_grid(t: Tensor, grid: tuple[int, int]) -> Tensor:
    """Rearrange (L, D) patch tokens to a (D, H, W) map, row-major; a
    (B, L, D) batch becomes (B, D, H, W)."""
    h, w = grid
    if t.ndim not in (2, 3) or t.shape[-2] != h * w:
        raise ShapeError(f"cannot arrange {t.shape} onto grid {grid}")
    *lead, _, d = t.shape
    return t.transpose(*range(len(lead)), t.ndim - 1, t.ndim - 2).reshape(*lead, d, h, w)


def spatial_enhance(d: DualTimeFeatures, p: SpatialEnhanceParams) -> Tensor:
    """Distance-embedded concatenation of the two time points.

    Returns a (2*D_V, H', W') tensor on the tape, or (B, 2*D_V, H', W') for
    a batch, whose B*L_V positions run as the rows of one cosine and one
    concatenation.
    """
    *lead, l_v, d_v = d.f1.shape
    if p.w_embed.data.shape != (2 * d_v,):
        raise ShapeError(
            f"w_embed has {p.w_embed.data.shape}, features need ({2 * d_v},)")
    rows = l_v * (lead[0] if lead else 1)
    f1, f2 = d.f1.reshape(rows, d_v), d.f2.reshape(rows, d_v)
    dist = (Tensor(np.ones(rows)) - cosine_similarity(f1, f2)).reshape(rows, 1)
    embedded = dist @ p.w_embed.reshape(1, 2 * d_v)
    enhanced = embedded + concat([f1, f2], axis=1)
    return tokens_to_grid(enhanced.reshape(*lead, l_v, 2 * d_v), d.grid)


def fuse(enhanced: Tensor, p: FusionParams) -> ChangeFeatureMap:
    """Halve the depth, then add the three-layer conv refinement, over one
    map or a (B, 2*D_V, H, W) batch of them."""
    if enhanced.ndim not in (3, 4) or enhanced.shape[-3] != 2 * p.d_v:
        raise ShapeError(
            f"fuse expects ([B,] {2 * p.d_v}, H, W), got {enhanced.shape}")
    mid = conv2d(enhanced, p.conv_half_w, p.conv_half_b)
    block = conv2d(mid, p.conv1_w, p.conv1_b).relu()
    block = conv2d(block, p.conv2_w, p.conv2_b, padding=1).relu()
    block = conv2d(block, p.conv3_w, p.conv3_b)
    return ChangeFeatureMap(values=mid + block)


def change_extract(d: DualTimeFeatures, sp: SpatialEnhanceParams,
                   fp: FusionParams) -> ChangeFeatureMap:
    """Full change extraction: enhance, then fuse. Output (D_V, H', W'), or
    (B, D_V, H', W') for batched features."""
    return fuse(spatial_enhance(d, sp), fp)
