"""Word-level tokenizer and a tiny causal language model.

The tokenizer splits on whitespace, keeps punctuation as single tokens,
and treats visual markers like "⟨Frame 2⟩" as atomic. Detokenization
joins tokens with single spaces, so the round trip is the identity on
canonical (single-spaced) in-vocab text; rendered prompts may use other
whitespace, which tokenization canonicalizes.

The model is a stack of pre-norm causal self-attention blocks over
float64 autograd tensors: big enough to overfit the synthetic tasks,
small enough that finite-difference gradient checks stay cheap.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterSet, Tensor, embedding, layer_norm, linear
from .errors import ConfigurationError, ContractError, SequenceLengthError
from .packing import (MARKER_CHANGE, MARKER_IMAGE, Marker, TokenizedPrompt,
                      frame_marker, marker_for_token)

PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"

_TOKEN_RE = re.compile(r"⟨[^⟩]*⟩|\w+|[^\w\s]")


class Vocab:
    """Token/id bijection with pad, bos, eos, and marker specials."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ContractError("vocab contains duplicate tokens")
        for special in (PAD, BOS, EOS):
            if special not in self.index:
                raise ContractError(f"vocab is missing special token {special!r}")
        self.pad_id = self.index[PAD]
        self.bos_id = self.index[BOS]
        self.eos_id = self.index[EOS]

    def __len__(self) -> int:
        return len(self.tokens)

    @staticmethod
    def split(text: str) -> list[str]:
        return _TOKEN_RE.findall(text)

    @classmethod
    def from_texts(cls, texts: list[str], max_frames: int = 8) -> "Vocab":
        specials = [PAD, BOS, EOS, MARKER_IMAGE, MARKER_CHANGE]
        specials += [frame_marker(i) for i in range(1, max_frames + 1)]
        words = sorted({tok for text in texts for tok in cls.split(text)}
                       - set(specials))
        return cls(specials + words)

    def encode(self, text: str) -> list[int]:
        ids = []
        for tok in self.split(text):
            if tok not in self.index:
                raise ContractError(f"token {tok!r} is not in the vocabulary")
            ids.append(self.index[tok])
        return ids

    def decode(self, ids: list[int], skip_special: bool = True) -> str:
        skip = {self.pad_id, self.bos_id, self.eos_id} if skip_special else set()
        return " ".join(self.tokens[i] for i in ids if i not in skip)

    def tokenize_prompt(self, text: str, add_bos: bool = True) -> TokenizedPrompt:
        """Tokenize and locate visual marker slots."""
        ids: list[int] = [self.bos_id] if add_bos else []
        slots: list[tuple[int, Marker]] = []
        for tok in self.split(text):
            if tok not in self.index:
                raise ContractError(f"token {tok!r} is not in the vocabulary")
            marker = marker_for_token(tok)
            if marker is not None:
                slots.append((len(ids), marker))
            ids.append(self.index[tok])
        return TokenizedPrompt(tokens=ids, marker_slots=slots,
                               text_len=len(ids) - len(slots))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.tokens, ensure_ascii=False),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class LMConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 4
    max_seq: int = 512

    def __post_init__(self):
        if self.dim % self.heads:
            raise ConfigurationError(
                f"width {self.dim} is not divisible by {self.heads} heads")
        if min(self.dim, self.layers, self.heads, self.max_seq) < 1:
            raise ConfigurationError(f"nonpositive LM dimension in {self}")


class TinyCausalLM:
    """Decoder-only transformer over pre-packed embedding rows."""

    def __init__(self, cfg: LMConfig, vocab_size: int, params: ParameterSet,
                 rng: np.random.Generator, prefix: str = "lm."):
        self.cfg = cfg
        self.vocab_size = vocab_size
        d = cfg.dim

        def n(shape, scale=0.02):
            return rng.normal(0.0, scale, shape)

        add = params.add
        self.embed = add(prefix + "embed.weight", n((vocab_size, d)))
        self.pos = add(prefix + "pos.weight", n((cfg.max_seq, d)))
        self.blocks = []
        for i in range(cfg.layers):
            b = prefix + f"block{i}."
            self.blocks.append({
                "ln1_g": add(b + "ln1.gain", np.ones(d)),
                "ln1_b": add(b + "ln1.bias", np.zeros(d)),
                "wq": add(b + "attn.wq.weight", n((d, d))),
                "bq": add(b + "attn.wq.bias", np.zeros(d)),
                "wk": add(b + "attn.wk.weight", n((d, d))),
                "bk": add(b + "attn.wk.bias", np.zeros(d)),
                "wv": add(b + "attn.wv.weight", n((d, d))),
                "bv": add(b + "attn.wv.bias", np.zeros(d)),
                "wo": add(b + "attn.wo.weight", n((d, d))),
                "bo": add(b + "attn.wo.bias", np.zeros(d)),
                "ln2_g": add(b + "ln2.gain", np.ones(d)),
                "ln2_b": add(b + "ln2.bias", np.zeros(d)),
                "fc1_w": add(b + "mlp.fc1.weight", n((4 * d, d))),
                "fc1_b": add(b + "mlp.fc1.bias", np.zeros(4 * d)),
                "fc2_w": add(b + "mlp.fc2.weight", n((d, 4 * d))),
                "fc2_b": add(b + "mlp.fc2.bias", np.zeros(d)),
            })
        self.lnf_g = add(prefix + "ln_f.gain", np.ones(d))
        self.lnf_b = add(prefix + "ln_f.bias", np.zeros(d))
        self.head_w = add(prefix + "head.weight", n((vocab_size, d)))
        self.head_b = add(prefix + "head.bias", np.zeros(vocab_size))
        self._masks: dict[int, np.ndarray] = {}

    def embed_ids(self, ids: list[int]) -> Tensor:
        return embedding(self.embed.tensor, ids)

    def _causal_mask(self, n: int) -> np.ndarray:
        if n not in self._masks:
            self._masks[n] = np.triu(np.full((n, n), -1e9), k=1)
        return self._masks[n]

    def _attention(self, x: Tensor, b: dict, mask: Tensor) -> Tensor:
        """All heads at once: q and v as (heads, n, dh), k as (heads, dh, n)
        and ``mask`` as (heads, n, n)."""
        n, d = x.shape
        heads = self.cfg.heads
        dh = d // heads
        q, k, v = (linear(x, b["w" + c].tensor, b["b" + c].tensor).reshape(n, heads, dh)
                   for c in "qkv")
        scores = q.transpose(1, 0, 2).matmul(k.transpose(1, 2, 0)).scale(1.0 / np.sqrt(dh)) + mask
        out = scores.softmax(axis=-1).matmul(v.transpose(1, 0, 2))
        return linear(out.transpose(1, 0, 2).reshape(n, d), b["wo"].tensor, b["bo"].tensor)

    def forward(self, embeddings: Tensor) -> Tensor:
        """Map (N, D_P) input rows to (N, vocab) logits, causally."""
        if embeddings.ndim != 2 or embeddings.shape[1] != self.cfg.dim:
            raise ConfigurationError(
                f"LM expects (N, {self.cfg.dim}) embeddings, got {embeddings.shape}")
        n = embeddings.shape[0]
        if n > self.cfg.max_seq:
            raise SequenceLengthError(
                f"sequence of {n} rows exceeds max_seq={self.cfg.max_seq}")
        x = embeddings + self.pos.tensor.narrow(0, 0, n)
        # expanded per call, not cached: decoding sees a new n at every step
        mask = Tensor(np.broadcast_to(self._causal_mask(n), (self.cfg.heads, n, n)))
        for b in self.blocks:
            h = x + self._attention(layer_norm(x, b["ln1_g"].tensor, b["ln1_b"].tensor), b, mask)
            m = layer_norm(h, b["ln2_g"].tensor, b["ln2_b"].tensor)
            m = linear(m, b["fc1_w"].tensor, b["fc1_b"].tensor).relu()
            m = linear(m, b["fc2_w"].tensor, b["fc2_b"].tensor)
            x = h + m
        x = layer_norm(x, self.lnf_g.tensor, self.lnf_b.tensor)
        return linear(x, self.head_w.tensor, self.head_b.tensor)

    def generate(self, prefix: Tensor, max_new: int, eos_id: int) -> list[int]:
        """Greedy decoding; ties break toward the lowest token id."""
        if max_new < 1:
            raise ContractError(f"max_new must be >= 1, got {max_new}")
        rows = Tensor(prefix.data.copy())
        out: list[int] = []
        for _ in range(max_new):
            if rows.shape[0] >= self.cfg.max_seq:
                break
            logits = self.forward(rows)
            nxt = int(np.argmax(logits.data[-1]))
            if nxt == eos_id:
                break
            out.append(nxt)
            rows = Tensor(np.concatenate([rows.data, self.embed.data[nxt:nxt + 1]]))
        return out


# -- deterministic clue stub ---------------------------------------------------

CLUE_TABLES = {
    "single": (
        "a small settlement with scattered buildings",
        "an area of farmland crossed by a road",
        "a stretch of bare ground with sparse vegetation",
        "a residential block beside open ground",
    ),
    "pair": (
        "some buildings appear along the road",
        "the scene appears unchanged overall",
        "a new structure occupies the open ground",
        "vegetation gives way to construction",
    ),
    "video": (
        "a small object moves steadily across the scene",
        "the scene shows little visible motion",
        "an object follows a curved path",
        "activity concentrated near the center of the frame",
    ),
}


def clue_for_hash(kind: str, h: int) -> str:
    table = CLUE_TABLES.get(kind)
    if table is None:
        raise ContractError(f"no clue table for kind {kind!r}")
    return table[h % len(table)]


def stub_clue(vi, p_g: str = "") -> str:
    """Canned clue chosen by the input's content hash. ``p_g`` is accepted
    for interface parity with real generators and does not affect the stub."""
    return clue_for_hash(vi.kind, int(vi.content_hash(), 16))
