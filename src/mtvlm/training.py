"""Two-stage optimization: change-module pretraining and joint tuning.

Stage 1 trains the change-extraction module (plus the projector) against
captions through a throwaway single-layer transformer head, with the
patch encoder frozen. Stage 2 tunes the language model on the mixed
instruction data with the whole visual side frozen.

Both stages run one optimizer loop, ``_fit``, with the schedule (linear
warmup into cosine decay), AdamW and the next-token cross entropy below.
Each step's loss is ``_batch_loss``: one forward of the model's ``lm``
(the caption head, in stage 1) over the rows of the batch's
``training_examples``.
Both build their visual side as a ``vision.VisualPath``, so they draw the
same initial visual weights for the same seed and dims.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterSet, Tensor, concat, take
from .blas import one_thread
from .checkpoint import write_checkpoint
from .data import MixedDataset, SampleRecord
from .errors import ConfigurationError, ContractError, DivergenceError
from .fileio import write_atomic
from .lm import LMConfig, TinyCausalLM, Vocab
from .packing import PackedSequence
from .vision import VisualFeatures, VisualPath, load_visual


@dataclass
class TrainConfig:
    max_lr: float = 1e-4
    min_lr: float = 0.0
    warmup_ratio: float = 0.03
    # Full-scale published run: batch 128 for 3,858 steps. Desk runs
    # override both; the defaults document the reference setting.
    total_steps: int = 3858
    batch_size: int = 128
    seed: int = 0
    freeze: tuple[str, ...] = ()
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigurationError(
                f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.min_lr > self.max_lr:
            raise ConfigurationError(
                f"min_lr {self.min_lr} exceeds max_lr {self.max_lr}")
        if self.total_steps < 0:
            raise ConfigurationError(f"negative total_steps {self.total_steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_steps > 0 and self.warmup_steps >= self.total_steps:
            raise ConfigurationError(
                f"warmup ({self.warmup_steps} steps) spans the whole run")
        # AdamW and clipping run on without complaint on these, but train wrong:
        # a negative clip flips every gradient, a zero one zeroes them all
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ConfigurationError(
                f"grad_clip must be finite and > 0, got {self.grad_clip}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigurationError(f"eps must be finite and > 0, got {self.eps}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigurationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    @property
    def warmup_steps(self) -> int:
        return round(self.warmup_ratio * self.total_steps)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to max_lr, then cosine decay to min_lr."""
    if not 0 <= step <= cfg.total_steps:
        raise ContractError(
            f"step {step} outside [0, {cfg.total_steps}]")
    w = cfg.warmup_steps
    if step < w:
        return cfg.max_lr * step / w
    decay = cfg.total_steps - w
    if decay == 0:      # total_steps == 0: the schedule is the single step 0
        return cfg.max_lr
    frac = (step - w) / decay
    return cfg.min_lr + 0.5 * (cfg.max_lr - cfg.min_lr) * (1.0 + math.cos(math.pi * frac))


def cross_entropy_next_token(logits: Tensor, targets: list[int],
                             mask: np.ndarray, lengths: list[int] | None = None) -> Tensor:
    """Mean -log p(target[i]) under logits[i-1], over mask-true positions.

    The n positions are segments of ``lengths`` laid end to end (one segment
    of all n by default), as ``TinyCausalLM.forward`` takes them: the loss
    is the mean over segments of each segment's mean, so no segment's first
    row may be masked and every segment needs a masked row. ``logits`` holds
    either a row per position or only the rows the loss reads, the row
    before each mask-true position in order, as ``forward(...,
    rows=np.flatnonzero(mask) - 1)`` returns them. Position 0 is never
    masked, so the two row counts always differ.
    """
    mask = np.asarray(mask, dtype=bool)
    n = len(targets)
    lengths = [n] if lengths is None else lengths
    positions = np.flatnonzero(mask)
    if mask.shape != (n,) or sum(lengths) != n \
            or logits.shape[0] not in (n, positions.size):
        raise ContractError(
            f"logits rows {logits.shape[0]}, targets {n}, mask {mask.shape}, "
            f"lengths {lengths} disagree")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if mask[starts[starts < n]].any():
        raise ContractError("position 0 of a segment has no preceding logits to predict it")
    segment = np.searchsorted(ends, positions, side="right")
    counts = np.bincount(segment, minlength=len(ends))
    if not counts.all():
        raise ContractError(f"loss mask selects no positions in segments "
                            f"{np.flatnonzero(counts == 0).tolist()}")
    rows = positions - 1 if logits.shape[0] == n else np.arange(positions.size)
    logp = logits.log_softmax(axis=-1)
    picked = take(logp, rows, np.asarray(targets)[positions])
    return (picked * Tensor(-1.0 / (len(ends) * counts[segment]))).sum()


class AdamW:
    """Decoupled weight decay; parameters without gradients are skipped.

    ``m`` and ``v`` are updated in place, through one pair of scratch
    buffers sized to the largest parameter and shared by all of them (each
    parameter gets its views once, here), in the arithmetic order of
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``p - lr*update - lr*wd*p``. Each step still gives ``p.data`` a fresh
    array, so an array a caller holds is never written."""

    def __init__(self, params: list[Tensor], cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        bufs = np.empty(size), np.empty(size)
        self._scratch = [tuple(buf[:p.data.size].reshape(p.data.shape) for buf in bufs)
                         for p in self.params]

    def step(self, lr: float) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            if g is None:
                continue
            np.add(np.multiply(m, c.beta1, out=m),
                   np.multiply(g, 1.0 - c.beta1, out=a), out=m)
            np.multiply(np.multiply(g, 1.0 - c.beta2, out=a), g, out=a)
            np.add(np.multiply(v, c.beta2, out=v), a, out=v)
            np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), c.eps, out=a)
            np.divide(np.divide(m, bc1, out=b), a, out=b)       # the update
            data = np.subtract(p.data, np.multiply(b, lr, out=b), out=np.empty_like(p.data))
            p.data = np.subtract(data, np.multiply(p.data, lr * c.weight_decay, out=a),
                                 out=data)


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global l2 norm is at most max_norm."""
    total = 0.0
    grads = [p for p in params if p.grad is not None]
    for p in grads:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in grads:
            p.grad = p.grad * scale
    return norm


def write_log(path: str | Path, log: list[dict]) -> None:
    write_atomic(path, "".join(json.dumps(row) + "\n" for row in log))


def _fit(model, records: list[SampleRecord], cfg: TrainConfig) -> list[dict]:
    """The optimizer loop of both stages: per step, ``_batch_loss`` on the
    next batch of ``records``, taken cyclically, then backward, clipping
    and AdamW. Each step's graph is dropped before the next step builds
    its own. Runs on one BLAS thread (``blas.one_thread``). Returns the
    log."""
    opt = AdamW(model.params.trainable(), cfg)
    log: list[dict] = []
    n = len(records)
    size = min(cfg.batch_size, n)
    with one_thread():
        for step in range(cfg.total_steps):
            model.params.zero_grads()
            loss = _batch_loss(model, [records[(step * size + j) % n] for j in range(size)])
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(step - 1)
            loss.backward()
            del loss
            if cfg.grad_clip is not None:
                clip_gradients(model.params.trainable(), cfg.grad_clip)
            lr = lr_at(step, cfg)
            opt.step(lr)
            log.append({"step": step, "lr": lr, "loss": value})
    return log


# -- stage 1: change-module pretraining ----------------------------------------

class _CaptionStub:
    """The model's visual path under a single-layer caption head, over
    frozen encoder features. Lives only for the duration of pretraining,
    and so does its cache of each record's encoded frames: the encoder is
    frozen, so they are constants of the run."""

    def __init__(self, records: list[SampleRecord], base_dir, seed: int, *,
                 patch: int, d_v: int, dim: int, heads: int, max_seq: int):
        self.params = ParameterSet()
        rng = np.random.default_rng(seed)
        self.visual = VisualPath(self.params, rng, patch=patch, d_v=d_v, dim=dim)
        self.vocab = Vocab.from_texts([r.target for r in records])
        self.lm = TinyCausalLM(LMConfig(dim=dim, layers=1, heads=heads,
                                        max_seq=max_seq),
                               len(self.vocab), self.params, rng,
                               prefix="caphead.")
        self.params.freeze(("encoder.",))
        self.base_dir = base_dir
        self._features: dict[tuple[str, ...], VisualFeatures] = {}

    def _encoded(self, record: SampleRecord) -> VisualFeatures:
        key = tuple(record.visual_refs)
        if key not in self._features:
            vi = load_visual(record.kind, record.visual_refs, self.base_dir)
            self._features[key] = self.visual.encoder.encode(vi)
        return self._features[key]

    def training_examples(self, records: list[SampleRecord]) -> list:
        """Each pair's change unit, then bos, caption and eos, as
        ``_batch_loss`` takes them. The pairs go through one change
        extraction per grid, which is one for pairs of one frame size."""
        feats = [self._encoded(r) for r in records]
        units: list = [None] * len(records)
        by_grid: dict[tuple[int, int], list[int]] = {}
        for i, f in enumerate(feats):
            by_grid.setdefault(f.grid, []).append(i)
        for idx in by_grid.values():
            emb = self.visual.change_embeddings([feats[i] for i in idx])
            for i, unit in zip(idx, emb.units()):
                units[i] = unit
        examples = []
        for record, unit in zip(records, units):
            ids = [self.vocab.bos_id] + self.vocab.encode(record.target) \
                + [self.vocab.eos_id]
            rows = concat([unit, self.lm.embed_ids(ids)], axis=0)
            n_vis = unit.shape[0]
            targets = [0] * n_vis + ids
            mask = np.zeros(len(targets), dtype=bool)
            mask[n_vis + 1:] = True        # supervise everything after bos
            examples.append((PackedSequence(rows, mask), targets))
        return examples


def pretrain_change_module(records: list[SampleRecord], cfg: TrainConfig,
                           base_dir: str | Path, *, patch: int = 8,
                           d_v: int = 16, dim: int = 64, heads: int = 4,
                           max_seq: int = 128):
    """Caption-supervised warmup of the change module.

    Returns (state, log): state holds the trained change.* and projector.*
    arrays, ready to seed joint tuning; the caption head is dropped. The
    visual weights start where ``MultiTemporalModel`` with the same seed
    and dims starts them. Stage 1 always freezes the encoder and nothing
    else: ``cfg.freeze`` is not read here. Raises DivergenceError on a
    non-finite loss.
    """
    if not records:
        raise ContractError("pretraining needs at least one record")
    bad = [r.id for r in records if r.kind != "pair"]
    if bad:
        raise ContractError(f"pretraining expects pair records, got {bad[:3]}")
    stub = _CaptionStub(records, base_dir, cfg.seed, patch=patch, d_v=d_v,
                        dim=dim, heads=heads, max_seq=max_seq)
    log = _fit(stub, records, cfg)
    state = {name: arr for name, arr in stub.params.state().items()
             if name.startswith(("change.", "projector."))}
    return state, log


# -- stage 2: joint instruction tuning ------------------------------------------

JOINT_FREEZE = ("encoder.", "change.", "projector.")


def train_joint(model, dataset: MixedDataset | list[SampleRecord],
                cfg: TrainConfig, *, log_path: str | Path | None = None,
                checkpoint_path: str | Path | None = None) -> list[dict]:
    """Tune the unfrozen parameters on the mixed dataset.

    ``model`` supplies ``params``, ``lm``, and ``training_examples(records)``
    returning one (packed sequence, target ids) per record, in order; the
    loss reads the rows where the packed sequence's ``loss_mask`` is true.
    Records are consumed cyclically in the dataset's mixed order. Raises
    DivergenceError on a non-finite loss; the checkpoint and log are only
    written after a clean run.
    """
    records = dataset.records if isinstance(dataset, MixedDataset) else list(dataset)
    if not records:
        raise ContractError("training needs at least one record")
    model.params.freeze(cfg.freeze)
    log = _fit(model, records, cfg)
    if checkpoint_path is not None:
        write_checkpoint(checkpoint_path, model.params.state())
    if log_path is not None:
        write_log(log_path, log)
    return log


def _batch_loss(model, batch: list[SampleRecord]) -> Tensor:
    """One LM forward over the batch's packed rows laid end to end, and the
    mean of the per-record answer losses. The forward returns logits only
    for the rows the loss reads."""
    examples = model.training_examples(batch)
    lengths = [packed.embeddings.shape[0] for packed, _ in examples]
    mask = np.concatenate([packed.loss_mask for packed, _ in examples])
    logits = model.lm.forward(concat([packed.embeddings for packed, _ in examples]),
                              lengths=lengths, rows=np.flatnonzero(mask) - 1)
    return cross_entropy_next_token(logits, [t for _, targets in examples for t in targets],
                                    mask, lengths)
