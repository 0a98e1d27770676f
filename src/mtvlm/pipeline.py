"""Model assembly: one object owning the visual path, prompts, and LM.

The packing order is fixed: render the prompt (markers, task tag,
instruction, optional clue), tokenize it, embed the plain-text tokens,
then substitute each marker slot with its visual unit's rows. Pair
inputs normally route through change extraction to a single unit; with
the change module disabled they fall back to two frame units behind
video-style markers, which is the ablation control.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterSet, Tensor, no_grad
from .blas import one_thread
from .data import (CAPTION_CHANGED, CAPTION_UNCHANGED, ERA_LABELS,
                   SYNTH_ANSWER_SUFFIX, SYNTH_PAIR_INSTRUCTION,
                   SYNTH_QUESTIONS, SYNTH_VIDEO_CLASSES,
                   SYNTH_VIDEO_INSTRUCTION, SampleRecord)
from .errors import ConfigurationError, ContractError
from .lm import CLUE_TABLES, LMConfig, TinyCausalLM, Vocab, stub_clue
from .packing import TokenizedPrompt, pack, row_layout, supervision_mask
from .prompting import (CLUE_PROMPTS, TASK_TAGS, ClueCache,
                        ClueUnavailableError, build_prompt, generate_clue,
                        instruction_for_dataset)
from .vision import VisualInput, VisualPath, load_visual

# Words the synthetic generators can emit in instructions or answers,
# so a model never meets an out-of-vocabulary token on its own data.
_BASE_LEXICON = (
    "yes no zero one two three four red green blue gray circle circles "
    "square squares shape shapes how many are there is any what color "
    "the in image more than answer one word or a short phrase describe "
    "this remote sensing detail please identify whether obvious changes "
    "classify given video following classes static linear circular scene "
    "captured by uav clue"
)


@dataclass
class PipelineConfig:
    patch: int = 8
    d_v: int = 16
    dim: int = 64
    lm_layers: int = 2
    lm_heads: int = 4
    max_seq: int = 512
    video_frames: int = 4
    use_change_module: bool = True
    use_clues: bool = True
    gen_max_new: int = 24
    seed: int = 0

    def __post_init__(self):
        for name in ("patch", "d_v", "dim", "lm_layers", "lm_heads",
                     "max_seq", "video_frames", "gen_max_new"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")


def build_vocab(records: list[SampleRecord], max_frames: int = 8) -> Vocab:
    """Closed vocabulary over everything the pipeline can render or emit."""
    texts = [_BASE_LEXICON, "Clue :"]
    texts += list(CLUE_TABLES["single"] + CLUE_TABLES["pair"] + CLUE_TABLES["video"])
    texts += [CAPTION_CHANGED, CAPTION_UNCHANGED]
    texts += list(SYNTH_VIDEO_CLASSES) + list(ERA_LABELS)
    texts += list(SYNTH_QUESTIONS) + [SYNTH_ANSWER_SUFFIX,
                                      SYNTH_PAIR_INSTRUCTION,
                                      SYNTH_VIDEO_INSTRUCTION]
    texts += list(CLUE_PROMPTS.values()) + list(TASK_TAGS.values())
    for r in records:
        texts.append(instruction_for_dataset(r.dataset_tag, r))
        texts.append(r.target)
        texts += r.references or []
    return Vocab.from_texts(texts, max_frames=max_frames)


class MultiTemporalModel:
    """Encoder + change module + projector + LM over a shared ParameterSet."""

    def __init__(self, cfg: PipelineConfig, vocab: Vocab,
                 data_dir: str | Path | None = None, clue_generator=stub_clue,
                 clue_cache: ClueCache | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.data_dir = data_dir
        self.clue_generator = clue_generator
        self.clue_cache = clue_cache if clue_cache is not None else ClueCache()
        self.params = ParameterSet()
        rng = np.random.default_rng(cfg.seed)
        self.visual = VisualPath(self.params, rng, patch=cfg.patch,
                                 d_v=cfg.d_v, dim=cfg.dim)
        self.lm = TinyCausalLM(LMConfig(dim=cfg.dim, layers=cfg.lm_layers,
                                        heads=cfg.lm_heads, max_seq=cfg.max_seq),
                               len(vocab), self.params, rng)
        self._visual_inputs: dict[str, VisualInput] = {}
        self._unit_cache: dict[str, list[Tensor]] = {}
        self._prompt_cache: dict[str, str] = {}

    @classmethod
    def build(cls, cfg: PipelineConfig, records: list[SampleRecord],
              data_dir: str | Path | None = None, **kw) -> "MultiTemporalModel":
        frames = max(cfg.video_frames, 8)
        return cls(cfg, build_vocab(records, max_frames=frames), data_dir, **kw)

    # -- visual path -------------------------------------------------------

    def visual_input(self, record: SampleRecord) -> VisualInput:
        if record.id not in self._visual_inputs:
            self._visual_inputs[record.id] = load_visual(
                record.kind, record.visual_refs, self.data_dir,
                max_frames=self.cfg.video_frames if record.kind == "video" else None)
        return self._visual_inputs[record.id]

    def _compute_units(self, record: SampleRecord) -> list[Tensor]:
        vi = self.visual_input(record)
        feats = self.visual.encoder.encode(vi)
        if record.kind == "pair" and self.cfg.use_change_module:
            return self.visual.change_embeddings([feats]).units()
        return self.visual.frame_embeddings(feats).units()

    def _visual_frozen(self) -> bool:
        return all(not p.requires_grad for n, p in self.params.items()
                   if n.startswith(("encoder.", "change.", "projector.")))

    def visual_units(self, record: SampleRecord) -> list[Tensor]:
        """The record's visual units, one per marker slot.

        While the visual side is frozen they are constants, so they are
        cached per record and never recomputed. The cache is not told of a
        later ``params.load_state``: load parameters before the first call.
        """
        if not self._visual_frozen():
            return self._compute_units(record)
        if record.id not in self._unit_cache:
            self._unit_cache[record.id] = [u.detach()
                                           for u in self._compute_units(record)]
        return self._unit_cache[record.id]

    # -- prompting ---------------------------------------------------------

    def clue_for(self, record: SampleRecord) -> str | None:
        if not self.cfg.use_clues:
            return None
        try:
            return generate_clue(self.clue_generator, self.visual_input(record),
                                 self.clue_cache)
        except ClueUnavailableError:
            return None

    def render_prompt(self, record: SampleRecord) -> str:
        if record.id in self._prompt_cache:
            return self._prompt_cache[record.id]
        instruction = instruction_for_dataset(record.dataset_tag, record)
        marker_kind = None
        if record.kind == "pair" and not self.cfg.use_change_module:
            marker_kind = "video"
        k = {"single": 1, "pair": 2}.get(record.kind,
                                         self.visual_input(record).k)
        text = build_prompt(record.kind, k, instruction, self.clue_for(record),
                            marker_kind=marker_kind)
        self._prompt_cache[record.id] = text
        return text

    # -- packed examples -----------------------------------------------------

    def packed_example(self, record: SampleRecord, answer_ids: list[int]):
        """Pack a record plus already-encoded answer tokens; the packed
        loss mask is true exactly on the answer's rows.

        Returns (packed, full prompt, prompt token count, rows per unit).
        """
        prompt = self.vocab.tokenize_prompt(self.render_prompt(record))
        tokens = prompt.tokens + answer_ids
        full = TokenizedPrompt(tokens=tokens, marker_slots=prompt.marker_slots,
                               text_len=prompt.text_len + len(answer_ids))
        units = self.visual_units(record)
        l_d = units[0].shape[0]
        text_ids = [tokens[pos] for src, pos in row_layout(full, l_d)
                    if src == "text"]
        packed = pack(full, self.lm.embed_ids(text_ids), units)
        packed.loss_mask = supervision_mask(full, (len(prompt.tokens), len(tokens)), l_d)
        return packed, full, len(prompt.tokens), l_d

    def training_example(self, record: SampleRecord):
        """Packed rows, whose loss mask is true on the answer's rows, and
        per-row target ids."""
        if not record.target:
            raise ContractError(f"record {record.id} has an empty target")
        answer_ids = self.vocab.encode(record.target) + [self.vocab.eos_id]
        packed, full, _, _ = self.packed_example(record, answer_ids)
        targets = [full.tokens[idx] if src == "text" else 0
                   for src, idx in packed.segment_map]
        return packed, targets

    def training_examples(self, records: list[SampleRecord]) -> list:
        """``training_example`` of each record, in order."""
        return [self.training_example(r) for r in records]

    def predict(self, record: SampleRecord) -> str:
        """Greedy answer for one record. The whole request, visual units and
        packing included, runs without a tape and on one BLAS thread
        (``blas.one_thread``)."""
        with no_grad(), one_thread():
            packed, _, _, _ = self.packed_example(record, [])
            ids = self.lm.generate(packed.embeddings, self.cfg.gen_max_new,
                                   self.vocab.eos_id)
        return self.vocab.decode(ids)
