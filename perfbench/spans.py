"""Timing hooks placed on mtvlm's public functions from outside the package.

Nothing under ``src/`` knows about these hooks. ``Hooks.wrap`` rebinds a
function or method everywhere the loaded ``mtvlm`` modules refer to it, and
``Hooks.close`` puts the originals back. Two users sit on top of it:

* ``Meter`` is always on. It marks step, decode-step and token boundaries,
  which the end-to-end metrics need, at the cost of two clock reads per mark.
* ``Recorder`` is on only in a traced run. It keeps, per layer span, the
  inclusive time and the number of calls, plus the counters named in the
  README (rows, tape nodes, cache hits), aggregated in memory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import mtvlm.autograd as autograd
import mtvlm.change as change
import mtvlm.checkpoint as checkpoint
import mtvlm.metrics as metrics
import mtvlm.packing as packing
import mtvlm.prompting as prompting
import mtvlm.training as training
import mtvlm.vision as vision
from mtvlm.lm import TinyCausalLM
from mtvlm.pipeline import MultiTemporalModel

OPS = ("linear", "matmul", "softmax", "log_softmax", "narrow", "concat",
       "layer_norm", "embedding", "take", "conv2d", "cosine_similarity")

# span name -> (owner, attribute) of the public function it times
SPANS = {
    "pipeline.training_example": (MultiTemporalModel, "training_example"),
    "pipeline.packed_example": (MultiTemporalModel, "packed_example"),
    "packing.pack": (packing, "pack"),
    "lm.forward": (TinyCausalLM, "forward"),
    "lm.generate": (TinyCausalLM, "generate"),
    "training.loss": (training, "cross_entropy_next_token"),
    "autograd.backward": (autograd.Tensor, "backward"),
    "training.adamw": (training.AdamW, "step"),
    "vision.load_visual": (vision, "load_visual"),
    "vision.encode": (vision.PatchLinearEncoder, "encode"),
    "change.extract": (change, "change_extract"),
    "vision.embed_change": (vision, "embed_change"),
    "prompting.generate_clue": (prompting, "generate_clue"),
    "checkpoint.write": (checkpoint, "write_checkpoint"),
    "checkpoint.read": (checkpoint, "read_checkpoint"),
    "metrics.score": [(metrics, "vqa_accuracy"), (metrics, "cider_d"),
                      (metrics, "classification_report")],
}

_TENSOR_METHODS = ("matmul", "softmax", "log_softmax", "narrow")


def _mtvlm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mtvlm" or name.startswith("mtvlm."))]


class Hooks:
    """Rebinds functions inside the mtvlm modules and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        For a module function, every other mtvlm module that imported the
        same object under some name is rebound too, so ``from .autograd
        import linear`` call sites go through the wrapper as well.
        """
        orig = vars(owner)[attr]
        wrapper = functools.wraps(orig)(make(orig))
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [(m, k) for m in _mtvlm_modules() for k, v in vars(m).items()
                      if v is orig and (m, k) != (owner, attr)]
        for site, name in sites:
            self._undo.append((site, name, orig))
            setattr(site, name, wrapper)

    def close(self) -> None:
        while self._undo:
            site, name, orig = self._undo.pop()
            setattr(site, name, orig)


def tape_nodes(root) -> int:
    """Tensors reachable from ``root`` through ``_parents`` on the tape,
    walked the way ``Tensor.backward`` walks them."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Meter:
    """Step, decode-step and token marks for the end-to-end metrics.

    A training step ends when ``AdamW.step`` returns; it starts where the
    previous one ended, or at ``start_chunk``. A decode step is one LM
    forward inside ``generate``, measured from one forward's start to the
    next (the first from the start of ``generate``, the last to its end).
    """

    def __init__(self, hooks: Hooks):
        self.step_ms: list[float] = []
        self.decode_step_ms: list[float] = []
        self.rows = 0
        self.tokens = 0
        self._last = self._gen_start = time.perf_counter()
        self._in_generate = False
        self._marks: list[float] = []
        hooks.wrap(training.AdamW, "step", self._adamw)
        hooks.wrap(TinyCausalLM, "forward", self._forward)
        hooks.wrap(TinyCausalLM, "generate", self._generate)

    def start_chunk(self) -> None:
        """Forget earlier marks and start timing the next step now."""
        self.step_ms, self.decode_step_ms = [], []
        self.rows = self.tokens = 0
        self._last = time.perf_counter()

    def _adamw(self, orig):
        def step(*args, **kwargs):
            out = orig(*args, **kwargs)
            now = time.perf_counter()
            self.step_ms.append((now - self._last) * 1e3)
            self._last = now
            return out
        return step

    def _forward(self, orig):
        def forward(lm, embeddings, *args, **kwargs):
            if self._in_generate:
                now = time.perf_counter()
                if self._marks:
                    self.decode_step_ms.append((now - self._marks[-1]) * 1e3)
                    self._marks.append(now)
                else:
                    self._marks.append(self._gen_start)
            self.rows += embeddings.shape[0]
            return orig(lm, embeddings, *args, **kwargs)
        return forward

    def _generate(self, orig):
        def generate(*args, **kwargs):
            self._in_generate = True
            self._marks = []
            self._gen_start = time.perf_counter()
            try:
                ids = orig(*args, **kwargs)
            finally:
                self._in_generate = False
            if self._marks:
                now = time.perf_counter()
                self.decode_step_ms.append((now - self._marks[-1]) * 1e3)
            self.tokens += len(ids)
            return ids
        return generate


class Recorder:
    """Per-span inclusive time and calls, plus layer counters."""

    def __init__(self, hooks: Hooks):
        self.ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._generating = 0
        for name, targets in SPANS.items():
            for owner, attr in (targets if isinstance(targets, list) else [targets]):
                hooks.wrap(owner, attr, self._span(name))
        for op in OPS:
            owner = autograd.Tensor if op in _TENSOR_METHODS else autograd
            hooks.wrap(owner, op, self._op("autograd.op." + op))
        hooks.wrap(MultiTemporalModel, "visual_units", self._visual_units)
        hooks.wrap(prompting.ClueCache, "get", self._clue_get)
        hooks.wrap(TinyCausalLM, "forward", self._forward)
        hooks.wrap(TinyCausalLM, "generate", self._generate)
        hooks.wrap(autograd.Tensor, "backward", self._backward)

    def snapshot(self) -> dict:
        return {"ns": Counter(self.ns), "calls": Counter(self.calls),
                "counts": Counter(self.counts)}

    def _span(self, name: str):
        def make(orig):
            def timed(*args, **kwargs):
                t = time.perf_counter_ns()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.ns[name] += time.perf_counter_ns() - t
                    self.calls[name] += 1
            return timed
        return make

    def _op(self, name: str):
        """Forward time of an autograd op, plus the time of its backward
        closure when the tape later runs it."""
        def make(orig):
            def timed(*args, **kwargs):
                t = time.perf_counter_ns()
                out = orig(*args, **kwargs)
                self.ns[name] += time.perf_counter_ns() - t
                self.calls[name] += 1
                bw = out._backward
                if bw is not None:
                    def timed_backward(g):
                        t0 = time.perf_counter_ns()
                        try:
                            bw(g)
                        finally:
                            self.ns[name] += time.perf_counter_ns() - t0
                    out._backward = timed_backward
                return out
            return timed
        return make

    def _visual_units(self, orig):
        # a call that never reaches the encoder was served from the unit cache
        def visual_units(*args, **kwargs):
            before = self.calls["vision.encode"]
            out = orig(*args, **kwargs)
            self.counts["pipeline.unit_cache_calls"] += 1
            if self.calls["vision.encode"] == before:
                self.counts["pipeline.unit_cache_hits"] += 1
            return out
        return visual_units

    def _clue_get(self, orig):
        def get(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.counts["prompting.clue_cache_calls"] += 1
            if out is not None:
                self.counts["prompting.clue_cache_hits"] += 1
            return out
        return get

    def _forward(self, orig):
        def forward(lm, embeddings, *args, **kwargs):
            logits = orig(lm, embeddings, *args, **kwargs)
            self.counts["lm.forward_rows"] += embeddings.shape[0]
            if self._generating:
                self.counts["lm.generate_rows"] += embeddings.shape[0]
                self.counts["autograd.forward_tapes"] += 1
                self.counts["autograd.forward_tape_nodes"] += tape_nodes(logits)
            return logits
        return forward

    def _generate(self, orig):
        def generate(*args, **kwargs):
            self._generating += 1
            try:
                ids = orig(*args, **kwargs)
            finally:
                self._generating -= 1
            self.counts["lm.tokens_generated"] += len(ids)
            return ids
        return generate

    def _backward(self, orig):
        def backward(loss, *args, **kwargs):
            self.counts["autograd.backward_tapes"] += 1
            self.counts["autograd.backward_tape_nodes"] += tape_nodes(loss)
            return orig(loss, *args, **kwargs)
        return backward


def window(later: dict, earlier: dict) -> dict:
    """What a recorder saw between two snapshots."""
    return {k: later[k] - earlier[k] for k in later}


def count_metrics(w: dict) -> dict[str, float]:
    """The count metrics of one window; these must repeat exactly."""
    calls, counts = w["calls"], w["counts"]
    out = {
        "pipeline.unit_cache_calls": counts["pipeline.unit_cache_calls"],
        "lm.forward_calls": calls["lm.forward"],
        "lm.forward_rows": counts["lm.forward_rows"],
        "lm.tokens_generated": counts["lm.tokens_generated"],
        "vision.load_visual_calls": calls["vision.load_visual"],
        "prompting.clue_cache_calls": counts["prompting.clue_cache_calls"],
    }
    out["pipeline.unit_cache_hit_ratio"] = _ratio(
        counts["pipeline.unit_cache_hits"], counts["pipeline.unit_cache_calls"])
    out["prompting.clue_cache_hit_ratio"] = _ratio(
        counts["prompting.clue_cache_hits"], counts["prompting.clue_cache_calls"])
    out["lm.rows_per_token"] = _ratio(counts["lm.generate_rows"],
                                      counts["lm.tokens_generated"])
    if counts["autograd.backward_tapes"]:
        out["autograd.tape_nodes"] = _ratio(counts["autograd.backward_tape_nodes"],
                                            counts["autograd.backward_tapes"])
    else:
        out["autograd.tape_nodes"] = _ratio(counts["autograd.forward_tape_nodes"],
                                            counts["autograd.forward_tapes"])
    for op in OPS:
        out[f"autograd.op.{op}.calls"] = calls["autograd.op." + op]
    return out


def time_metrics(w: dict, ops: int) -> dict[str, float]:
    """Inclusive milliseconds per workload operation for every span except
    the checkpoint write, which happens only in set-up."""
    out = {f"{n}_ms": w["ns"][n] / 1e6 / ops for n in SPANS if n != "checkpoint.write"}
    out.update({f"autograd.op.{op}.ms": w["ns"]["autograd.op." + op] / 1e6 / ops
                for op in OPS})
    return out


def _ratio(num: int, base: int) -> float:
    return num / base if base else 0.0
