"""Marker-based packing of visual embeddings into the text sequence.

A tokenized prompt carries visual marker tokens. ``pack`` replaces each
marker, in order, with the L_d embedding rows of the matching visual
unit, producing the interleaved sequence the language model consumes.
Row counts obey N = text_len + markers * L_d.

The row layout is defined once, by ``row_layout``: each packed row is a
``("text", token position)`` or ``("visual", unit index)`` entry. ``pack``
stores it as the segment map and fills every row with one ``embedding``
gather over the text rows stacked on the units' rows; ``supervision_mask``
derives the loss mask from the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, concat, embedding
from .errors import ContractError, ShapeError

MARKER_IMAGE = "⟨image⟩"
MARKER_CHANGE = "⟨Change Feature⟩"


class PackingError(ValueError):
    """Marker slots and supplied visual units disagree."""


def frame_marker(index: int) -> str:
    """The 1-based marker token for video frame ``index``."""
    if index < 1:
        raise ContractError(f"frame markers are 1-based, got {index}")
    return f"⟨Frame {index}⟩"


def markers_for(kind: str, k: int) -> str:
    """The marker fragment opening a prompt of the given visual kind."""
    if kind == "single":
        if k != 1:
            raise ContractError(f"single takes one frame, got k={k}")
        return MARKER_IMAGE
    if kind == "pair":
        if k != 2:
            raise ContractError(f"pair takes two frames, got k={k}")
        return MARKER_CHANGE
    if kind == "video":
        if k < 1:
            raise ContractError(f"video needs at least one frame, got k={k}")
        return "".join(frame_marker(i) for i in range(1, k + 1))
    raise ContractError(f"unknown visual kind {kind!r}")


@dataclass(frozen=True)
class Marker:
    kind: str                 # "image" | "change_feature" | "frame"
    frame: int | None = None  # 1-based for kind == "frame"

    def __post_init__(self):
        if self.kind not in ("image", "change_feature", "frame"):
            raise ContractError(f"unknown marker kind {self.kind!r}")
        if (self.kind == "frame") != (self.frame is not None):
            raise ContractError(f"frame index only valid on frame markers: {self}")


def marker_for_token(token: str) -> Marker | None:
    """Classify a surface token as a marker, or None for plain text."""
    if token == MARKER_IMAGE:
        return Marker("image")
    if token == MARKER_CHANGE:
        return Marker("change_feature")
    if token.startswith("⟨Frame ") and token.endswith("⟩"):
        inner = token[len("⟨Frame "):-1]
        if inner.isdigit() and int(inner) >= 1:
            return Marker("frame", int(inner))
    return None


@dataclass
class TokenizedPrompt:
    """Token ids plus the positions and kinds of the visual markers."""

    tokens: list[int]
    marker_slots: list[tuple[int, Marker]]
    text_len: int

    def __post_init__(self):
        prev = -1
        for pos, marker in self.marker_slots:
            if not isinstance(marker, Marker):
                raise ContractError(f"marker slot at {pos} carries {marker!r}")
            if pos <= prev:
                raise ContractError("marker slot positions must be strictly increasing")
            if not (0 <= pos < len(self.tokens)):
                raise ContractError(
                    f"marker slot {pos} out of bounds for {len(self.tokens)} tokens")
            prev = pos
        if self.text_len != len(self.tokens) - len(self.marker_slots):
            raise ContractError(
                f"text_len {self.text_len} inconsistent with {len(self.tokens)} tokens "
                f"and {len(self.marker_slots)} markers")


@dataclass
class PackedSequence:
    """The interleaved model input: embeddings, loss mask, provenance."""

    embeddings: Tensor                       # (N, D_P)
    loss_mask: np.ndarray                    # (N,) bool, true only on answer rows
    segment_map: list[tuple[str, int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]


def row_layout(prompt: TokenizedPrompt, l_d: int) -> list[tuple[str, int]]:
    """Each packed row's source in row order: ``("text", token position)``
    per plain token, then ``l_d`` rows of ``("visual", unit index)`` per slot."""
    unit_at = {pos: i for i, (pos, _) in enumerate(prompt.marker_slots)}
    layout: list[tuple[str, int]] = []
    for pos in range(len(prompt.tokens)):
        if pos in unit_at:
            layout.extend([("visual", unit_at[pos])] * l_d)
        else:
            layout.append(("text", pos))
    return layout


def pack(prompt: TokenizedPrompt, text_embeddings: Tensor,
         units: list[Tensor]) -> PackedSequence:
    """Replace each marker slot, in order, with its unit's embedding rows."""
    slots = prompt.marker_slots
    if len(slots) != len(units):
        raise PackingError(
            f"expected {len(slots)} visual units for {len(slots)} markers, "
            f"found {len(units)}")
    if text_embeddings.ndim != 2 or text_embeddings.shape[0] != prompt.text_len:
        raise ShapeError(
            f"text embeddings {text_embeddings.shape} do not cover "
            f"text_len={prompt.text_len}")
    for u in units:
        if u.ndim != 2:
            raise ShapeError(f"visual unit must be 2-d, got {u.shape}")
        if u.shape[1] != text_embeddings.shape[1]:
            raise ShapeError(
                f"unit width {u.shape} vs text width {text_embeddings.shape}")
    l_ds = sorted({u.shape[0] for u in units})
    if len(l_ds) > 1:
        raise ShapeError(f"visual units disagree on L_d: {l_ds}")
    l_d = l_ds[0] if l_ds else 0

    segment_map = row_layout(prompt, l_d)
    # text rows, then the units' rows: the layout keeps each group in order
    is_text = np.array([src == "text" for src, _ in segment_map], dtype=bool)
    rows = np.where(is_text, np.cumsum(is_text) - 1,
                    prompt.text_len + np.cumsum(~is_text) - 1)
    embeddings = embedding(concat([text_embeddings, *units], axis=0), rows)
    return PackedSequence(embeddings=embeddings,
                          loss_mask=np.zeros(embeddings.shape[0], dtype=bool),
                          segment_map=segment_map)


def supervision_mask(prompt: TokenizedPrompt, answer_token_span: tuple[int, int],
                     l_d: int) -> np.ndarray:
    """Row-level mask that is true exactly on the answer's text tokens.

    ``answer_token_span`` is a half-open (start, end) range over token
    positions; it must not contain marker slots.
    """
    start, end = answer_token_span
    if not (0 <= start <= end <= len(prompt.tokens)):
        raise ContractError(
            f"answer span {answer_token_span} out of bounds for "
            f"{len(prompt.tokens)} tokens")
    mask = np.array([src == "text" and start <= pos < end
                     for src, pos in row_layout(prompt, l_d)], dtype=bool)
    if mask.sum() != end - start:
        raise ContractError(f"answer span {answer_token_span} crosses a visual marker")
    return mask


def debug_dump(ps: PackedSequence, prompt: TokenizedPrompt) -> dict:
    """JSON-ready per-row annotation used by the inspect command."""
    rows = []
    for i, (source, idx) in enumerate(ps.segment_map):
        entry: dict = {"index": i, "source": source, "loss": bool(ps.loss_mask[i])}
        if source == "text":
            entry["token"] = int(prompt.tokens[idx])
        else:
            entry["unit"] = int(idx)
        rows.append(entry)
    return {"n": ps.n, "text_len": prompt.text_len,
            "markers": len(prompt.marker_slots), "rows": rows}
