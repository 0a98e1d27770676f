"""The benchmark's three workloads, driven through mtvlm's public API.

Each workload is a closed loop with one client: it runs one chunk (a short
training run, or one infer-and-eval pass) and starts the next only when the
previous one has returned. ``set_up`` builds all inputs from the seed;
``chunk`` does one unit of measured work and returns a ``Chunk``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from mtvlm import checkpoint, metrics
from mtvlm.data import (SYNTH_VIDEO_CLASSES, load_manifest, mix, save_manifest,
                        synth_generate)
from mtvlm.errors import DivergenceError
from mtvlm.lm import Vocab
from mtvlm.pipeline import MultiTemporalModel, PipelineConfig
from mtvlm.training import (JOINT_FREEZE, TrainConfig, pretrain_change_module,
                            train_joint)

KINDS = ("single", "pair", "video")

# The ablation battery's recipe (`mtvlm ablate`): batch 4, peak lr 3e-3,
# 5% warmup, 24 training records per kind. The measured loop runs it in
# chunks of CHUNK_STEPS steps, each chunk a complete schedule.
ABLATE = dict(batch_size=4, max_lr=3e-3, warmup_ratio=0.05)
PER_KIND = 24
CHUNK_STEPS = {"joint": 20, "stage1": 30}

# Criterion 08's recipe and corpus shape, trained after a stage-1 warmup.
OVERFIT = dict(batch_size=8, max_lr=3e-3, warmup_ratio=0.03)
OVERFIT_PER_KIND = {"single": 12, "pair": 10, "video": 10}
# Synthetic pairs are "changed" (3-token caption) or not (5 tokens) by a
# coin flip, so the decode requests keep half of each: otherwise the
# latency percentiles jump with the seed's share of long captions.
PAIR_CANDIDATES = 40
DECODE_STAGE1_STEPS = 100
DECODE_JOINT_STEPS = 200
CORRECT_SHARE = 0.9         # criterion 08: greedy output matches 90% of targets

LOSS_FALL = 0.5             # a training run must at least halve its loss


@dataclass
class Chunk:
    ops: int                                    # steps or requests done
    failed: int = 0
    request_ms: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # filled in by the measuring loop
    wall: float = 0.0
    step_ms: list[float] = field(default_factory=list)
    tokens: int = 0


def corpus(counts: dict[str, int], seed: int, workdir: Path):
    """Synthesize records as `mtvlm synth-data` does and read the manifest
    back as the training and inference commands do."""
    records = [r for kind, n in counts.items()
               for r in synth_generate(kind, n, seed, workdir)]
    save_manifest(workdir / "manifest.jsonl", records)
    return load_manifest(workdir / "manifest.jsonl")


def _finite_losses(log: list[dict]) -> int:
    return sum(not math.isfinite(row["loss"]) for row in log)


class Joint:
    """Stage-2 joint tuning (`train_joint`) on the three-kind mix."""

    name = "joint"
    setup_reps = 9
    ops_kind = "step"
    expected_spans = (
        "pipeline.training_example", "pipeline.packed_example", "packing.pack",
        "lm.forward", "training.loss", "autograd.backward", "training.adamw",
        *(f"autograd.op.{op}" for op in ("linear", "matmul", "softmax",
                                         "log_softmax", "narrow", "concat",
                                         "layer_norm", "embedding", "take")))

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = TrainConfig(total_steps=CHUNK_STEPS["joint"], seed=seed,
                               freeze=JOINT_FREEZE, **ABLATE)

    def set_up(self, workdir: Path) -> None:
        records = corpus(dict.fromkeys(KINDS, PER_KIND), self.seed, workdir)
        self.mixed = mix([records], self.seed)
        self.model = MultiTemporalModel.build(PipelineConfig(seed=self.seed),
                                              self.mixed.records, workdir)
        # the visual side is frozen, so these fill the per-record caches
        self.model.params.freeze(JOINT_FREEZE)
        for r in self.mixed.records:
            self.model.visual_units(r)
            self.model.render_prompt(r)
        self.first_loss = self.last_loss = None

    def chunk(self) -> Chunk:
        try:
            log = train_joint(self.model, self.mixed, self.cfg)
        except DivergenceError as exc:
            return Chunk(ops=1, failed=1, notes=[f"divergence: {exc}"])
        if self.first_loss is None:
            self.first_loss = log[0]["loss"]
        self.last_loss = log[-1]["loss"]
        return Chunk(ops=len(log), failed=_finite_losses(log))

    def run_failures(self) -> list[str]:
        """The loss over all chunks since set-up must fall by LOSS_FALL."""
        if self.last_loss is None or not self.last_loss <= (1 - LOSS_FALL) * self.first_loss:
            return [f"joint loss {self.first_loss} -> {self.last_loss} "
                    f"did not fall by {LOSS_FALL:.0%}"]
        return []

    @classmethod
    def probe(cls, seed: int, steps: int, workdir: Path) -> list[float]:
        """Losses of the first ``steps`` steps from a fresh set-up."""
        wl = cls(seed)
        wl.set_up(workdir)
        cfg = TrainConfig(total_steps=steps, seed=seed, freeze=JOINT_FREEZE, **ABLATE)
        return [row["loss"] for row in train_joint(wl.model, wl.mixed, cfg)]


class Stage1:
    """Change-module pretraining (`pretrain_change_module`) on pair records."""

    name = "stage1"
    setup_reps = 9
    ops_kind = "step"
    expected_spans = (
        "vision.load_visual", "vision.encode", "change.extract",
        "vision.embed_change", "lm.forward", "training.loss",
        "autograd.backward", "training.adamw",
        *(f"autograd.op.{op}" for op in ("linear", "matmul", "softmax",
                                         "log_softmax", "narrow", "concat",
                                         "layer_norm", "embedding", "take",
                                         "conv2d", "cosine_similarity")))

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = TrainConfig(total_steps=CHUNK_STEPS["stage1"], seed=seed, **ABLATE)

    def set_up(self, workdir: Path) -> None:
        # the corpus joint tuning uses; stage 1 trains on its pair records,
        # as `mtvlm pretrain-change --manifest` does
        self.workdir = workdir
        records = corpus(dict.fromkeys(KINDS, PER_KIND), self.seed, workdir)
        self.pairs = [r for r in records if r.kind == "pair"]

    def chunk(self) -> Chunk:
        # every chunk is a complete pretraining run from a fresh caption head
        try:
            _, log = pretrain_change_module(self.pairs, self.cfg, self.workdir)
        except DivergenceError as exc:
            return Chunk(ops=1, failed=1, notes=[f"divergence: {exc}"])
        failed = _finite_losses(log)
        notes = []
        if not log[-1]["loss"] <= (1 - LOSS_FALL) * log[0]["loss"]:
            failed += 1
            notes.append(f"stage1 loss {log[0]['loss']} -> {log[-1]['loss']} "
                         f"did not fall by {LOSS_FALL:.0%}")
        return Chunk(ops=len(log), failed=failed, notes=notes)

    def run_failures(self) -> list[str]:
        return []   # checked per chunk

    @classmethod
    def probe(cls, seed: int, steps: int, workdir: Path) -> list[float]:
        wl = cls(seed)
        wl.set_up(workdir)
        cfg = TrainConfig(total_steps=steps, seed=seed, **ABLATE)
        return [row["loss"] for row in pretrain_change_module(wl.pairs, cfg, workdir)[1]]


class Decode:
    """`mtvlm infer` then `mtvlm eval`: greedy prediction for every record
    of the three kinds from a checkpoint read back from disk, then scoring."""

    name = "decode"
    setup_reps = 1          # set-up trains a model; it runs once per run
    ops_kind = "request"
    expected_spans = (
        "checkpoint.read", "pipeline.packed_example", "packing.pack",
        "vision.load_visual", "vision.encode", "change.extract",
        "vision.embed_change", "prompting.generate_clue", "lm.generate",
        "lm.forward", "metrics.score",
        *(f"autograd.op.{op}" for op in ("linear", "matmul", "softmax",
                                         "narrow", "concat", "layer_norm",
                                         "embedding", "conv2d",
                                         "cosine_similarity")))

    def __init__(self, seed: int):
        self.seed = seed

    def run_failures(self) -> list[str]:
        return []   # checked per pass

    def set_up(self, workdir: Path) -> None:
        """Two-stage training on criterion 08's corpus shape, as `mtvlm
        pretrain-change` then `mtvlm train --init` would run it."""
        self.workdir = workdir
        records = corpus({**OVERFIT_PER_KIND, "pair": PAIR_CANDIDATES}, self.seed, workdir)
        half = OVERFIT_PER_KIND["pair"] // 2
        pairs = ([r for r in records if r.kind == "pair" and r.changed][:half]
                 + [r for r in records if r.kind == "pair" and not r.changed][:half])
        self.records = ([r for r in records if r.kind == "single"] + pairs
                        + [r for r in records if r.kind == "video"])
        stage1, _ = pretrain_change_module(
            pairs, TrainConfig(total_steps=DECODE_STAGE1_STEPS, seed=self.seed,
                               **ABLATE), workdir)
        mixed = mix([self.records], self.seed)
        self.pipe_cfg = PipelineConfig(seed=self.seed)
        model = MultiTemporalModel.build(self.pipe_cfg, mixed.records, workdir)
        model.params.load_state(stage1, strict=False)
        train_joint(model, mixed,
                    TrainConfig(total_steps=DECODE_JOINT_STEPS, seed=self.seed,
                                freeze=JOINT_FREEZE, **OVERFIT),
                    checkpoint_path=workdir / "model.ckpt")
        model.vocab.save(workdir / "vocab.json")

    def chunk(self) -> Chunk:
        model = MultiTemporalModel(self.pipe_cfg,
                                   Vocab.load(self.workdir / "vocab.json"),
                                   self.workdir)
        model.params.load_state(checkpoint.read_checkpoint(self.workdir / "model.ckpt"),
                                strict=True)
        preds, request_ms = [], []
        for r in self.records:
            t = time.perf_counter()
            preds.append(model.predict(r))
            request_ms.append((time.perf_counter() - t) * 1e3)
        out = Chunk(ops=len(preds), request_ms=request_ms)
        wrong = sum(p != r.target for p, r in zip(preds, self.records))
        if len(preds) - wrong < math.ceil(CORRECT_SHARE * len(preds)):
            out.failed += wrong
            out.notes.append(f"{wrong} of {len(preds)} predictions wrong")
        bad_scores = self._score(preds)
        out.failed += len(bad_scores)
        out.notes += bad_scores
        return out

    def _score(self, preds: list[str]) -> list[str]:
        """Score each task as `mtvlm eval` does and cross-check the scores
        against exact matches counted here."""
        by_kind = {k: [(p, r) for p, r in zip(preds, self.records) if r.kind == k]
                   for k in KINDS}
        vqa = metrics.vqa_accuracy([
            metrics.VQARecord(category=r.category or "other", prediction=p, gold=r.target)
            for p, r in by_kind["single"]])
        cider = metrics.cider_d([
            metrics.CaptionEntry(candidate=p, references=r.references or [r.target])
            for p, r in by_kind["pair"]])
        video = metrics.classification_report(
            [(p, r.target) for p, r in by_kind["video"]], SYNTH_VIDEO_CLASSES,
            strict=False)

        def exact(kind):
            pairs = by_kind[kind]
            return sum(p == r.target for p, r in pairs) / len(pairs)

        problems = []
        for label, score, floor in (("vqa micro", vqa.get("micro"), exact("single")),
                                    ("video accuracy", video.get("overall_accuracy"),
                                     exact("video")),
                                    ("cider-d", cider.get("cider_d"), 0.0)):
            if not (isinstance(score, float) and math.isfinite(score)
                    and score >= floor - 1e-12):
                problems.append(f"{label} {score!r} below exact-match share {floor}")
        return problems


WORKLOADS = {wl.name: wl for wl in (Joint, Stage1, Decode)}
