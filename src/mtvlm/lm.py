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
from typing import Sequence

import numpy as np

from .autograd import (ParameterSet, Tensor, concat, embedding, layer_norm, linear,
                       no_grad)
from .errors import ConfigurationError, ContractError, SequenceLengthError
from .fileio import read_text, write_atomic
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

    def decode(self, ids: list[int]) -> str:
        """Join the tokens of ``ids`` by spaces, leaving out pad, bos and eos."""
        skip = {self.pad_id, self.bos_id, self.eos_id}
        return " ".join(self.tokens[i] for i in ids if i not in skip)

    def tokenize_prompt(self, text: str) -> TokenizedPrompt:
        """Tokenize after a leading bos and locate visual marker slots."""
        ids: list[int] = [self.bos_id]
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
        write_atomic(path, json.dumps(self.tokens, ensure_ascii=False))

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """Read a JSON list of token strings, as ``save`` writes it."""
        try:
            tokens = json.loads(read_text(path, ContractError))
        except json.JSONDecodeError as exc:
            raise ContractError(f"{path}: {exc}") from exc
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ContractError(f"{path}: a vocab file holds a JSON list of strings")
        return cls(tokens)


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
        self._masks: dict[tuple[int, int], np.ndarray] = {}

    def embed_ids(self, ids: list[int]) -> Tensor:
        return embedding(self.embed, ids)

    def _causal_mask(self, past: int, n: int) -> np.ndarray:
        """Rows past:past+n of the (past+n)-square causal mask. A decode step
        keeps one row, not the whole square, for each length it reaches."""
        if (past, n) not in self._masks:
            self._masks[past, n] = np.triu(np.full((n, past + n), -1e9), k=past + 1)
        return self._masks[past, n]

    def _attention(self, x: Tensor, b: dict, mask: Tensor, kv: list | None) -> Tensor:
        """All heads of all segments at once. With s segments of n rows each,
        q is (s, heads, n, dh), k is (s, heads, dh, t), v is (s, heads, t, dh)
        and ``mask`` is (s, heads, n, t). ``kv`` is the block's cache slot or
        None (always None when s > 1): the ``[k, v]`` rows of the t - n
        earlier positions (empty on the first call), to which the new rows
        are appended."""
        s = mask.shape[0]
        rows, d = x.shape
        n = rows // s
        heads = self.cfg.heads
        dh = d // heads
        q, k, v = (linear(x, b["w" + c], b["b" + c]) for c in "qkv")
        if kv is not None:
            if kv:
                k, v = concat([kv[0], k]), concat([kv[1], v])
            kv[:] = k, v
        t = k.shape[0] // s
        q = q.reshape(s, n, heads, dh).transpose(0, 2, 1, 3)
        k = k.reshape(s, t, heads, dh).transpose(0, 2, 3, 1)
        v = v.reshape(s, t, heads, dh).transpose(0, 2, 1, 3)
        scores = q.matmul(k).scale(1.0 / np.sqrt(dh)) + mask
        out = scores.softmax(axis=-1).matmul(v)
        return linear(out.transpose(0, 2, 1, 3).reshape(rows, d), b["wo"], b["bo"])

    def forward(self, embeddings: Tensor, cache: list | None = None,
                lengths: Sequence[int] | None = None,
                rows: Sequence[int] | None = None) -> Tensor:
        """Map (N, D_P) input rows to (N, vocab) logits, causally.

        With ``rows`` (indices into the N input rows) only those rows' logits
        come out, in that order: the one gather after the final norm keeps
        just them, so the head and everything after it skip the other rows.

        With ``lengths`` the rows are segments laid end to end: independent
        sequences of those lengths, each attending only to its own earlier
        rows, with positions restarting at 0. Inside, one gather lays them
        out as (segments, T) slots, T the longest length. A short segment's
        pad slots repeat its first row after all its real rows, so the
        causal mask keeps them out of every real row and they receive zero
        gradient; one gather after the final norm takes the real rows back.

        With ``cache`` (a list, empty on the first call) the rows continue the
        sequence whose per-block keys and values the cache holds, and their
        own keys and values are appended to it. ``cache`` takes one segment,
        so it cannot come with ``lengths``.
        """
        if embeddings.ndim != 2 or embeddings.shape[1] != self.cfg.dim:
            raise ConfigurationError(
                f"LM expects (N, {self.cfg.dim}) embeddings, got {embeddings.shape}")
        n = embeddings.shape[0]
        s, t = 1, n
        if lengths is not None:
            if cache is not None:
                raise ContractError("forward takes lengths or a cache, not both")
            lengths = np.asarray(lengths)
            if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not lengths.size \
                    or lengths.min() < 1 or lengths.sum() != n:
                raise ContractError(
                    f"segment lengths {lengths.tolist()} must be >= 1 and sum to {n} rows")
            s, t = lengths.size, int(lengths.max())
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or rows.size and (rows.min() < 0 or rows.max() >= n):
                raise ContractError(f"logit rows must be 1-d indices into {n} rows")
        past = cache[0][0].shape[0] if cache else 0
        if past + t > self.cfg.max_seq:
            raise SequenceLengthError(
                f"sequence of {past + t} rows exceeds max_seq={self.cfg.max_seq}")
        if cache == []:
            cache.extend([] for _ in self.blocks)
        pos = self.pos.narrow(0, past, t)
        if s == 1:
            x = embeddings + pos
        else:
            slot = np.arange(t)
            real = slot < lengths[:, None]
            starts = np.cumsum(lengths) - lengths
            src = np.where(real, starts[:, None] + slot, starts[:, None])
            x = embedding(embeddings, src.ravel()) + embedding(pos, np.tile(slot, s))
        # expanded per call, not cached: decoding sees a new length at every step
        mask = Tensor(np.broadcast_to(self._causal_mask(past, t),
                                      (s, self.cfg.heads, t, past + t)))
        for i, b in enumerate(self.blocks):
            a = layer_norm(x, b["ln1_g"], b["ln1_b"])
            h = x + self._attention(a, b, mask, None if cache is None else cache[i])
            m = layer_norm(h, b["ln2_g"], b["ln2_b"])
            m = linear(m, b["fc1_w"], b["fc1_b"]).relu()
            m = linear(m, b["fc2_w"], b["fc2_b"])
            x = h + m
        x = layer_norm(x, self.lnf_g, self.lnf_b)
        if s > 1:
            keep = np.flatnonzero(real)
            x = embedding(x, keep if rows is None else keep[rows])
        elif rows is not None:
            x = embedding(x, rows)
        return linear(x, self.head_w, self.head_b)

    def generate(self, prefix: Tensor, max_new: int, eos_id: int) -> list[int]:
        """Greedy decoding; ties break toward the lowest token id.

        Runs without a tape. The prefix goes through ``forward`` once, and
        each later step feeds only the newest token's row against a KV cache
        that lives for this call. Only the last row's logits are computed:
        the prefix call asks ``forward`` for that row alone. Decoding stops
        when the sequence fills ``max_seq`` rows; a prefix longer than that
        is a SequenceLengthError.
        """
        if max_new < 1:
            raise ContractError(f"max_new must be >= 1, got {max_new}")
        if prefix.shape[0] > self.cfg.max_seq:
            raise SequenceLengthError(
                f"prefix of {prefix.shape[0]} rows exceeds max_seq={self.cfg.max_seq}")
        x, cache = prefix, []
        out: list[int] = []
        with no_grad():
            for _ in range(max_new):
                if prefix.shape[0] + len(out) >= self.cfg.max_seq:
                    break
                last = [x.shape[0] - 1] if x.shape[0] > 1 else None
                nxt = int(np.argmax(self.forward(x, cache, rows=last).data[-1]))
                if nxt == eos_id:
                    break
                out.append(nxt)
                x = Tensor(self.embed.data[nxt:nxt + 1])
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
