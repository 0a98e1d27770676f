"""Evaluation kernels: VQA accuracy, CIDEr-D, classification precision.

All functions are pure and deterministic. The CIDEr-D implementation
follows the standard consensus formulation: n-grams for n = 1..4,
candidate counts clipped at the per-image reference maximum, ln(N/df)
idf weights, a min-clipped cosine per reference, a gaussian length
penalty with sigma 6, and a x10 scale. Constants sit in CiderConfig.
"""

from __future__ import annotations

import json
import math
import string
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractError

VQA_CATEGORIES = ("presence", "comparison", "rural_urban")


def normalize_answer(s: str) -> str:
    """Lowercase, trim, drop terminal punctuation, collapse whitespace."""
    s = " ".join(s.lower().split())
    return s.rstrip(string.punctuation).rstrip()


@dataclass
class VQARecord:
    category: str
    prediction: str
    gold: str


def vqa_accuracy(records: list[VQARecord]) -> dict:
    """Exact-match accuracy after normalization, sliced by category.

    micro weights every question equally; macro averages the category
    accuracies. The rendered table labels micro "Avg. Accuracy".
    """
    if not records:
        raise ContractError("vqa_accuracy needs at least one record")
    correct: Counter = Counter()
    total: Counter = Counter()
    for r in records:
        total[r.category] += 1
        if normalize_answer(r.prediction) == normalize_answer(r.gold):
            correct[r.category] += 1
    per_category = {c: correct[c] / total[c] for c in total}
    micro = sum(correct.values()) / sum(total.values())
    macro = sum(per_category.values()) / len(per_category)
    return {"per_category": per_category, "micro": micro, "macro": macro,
            "counts": dict(total)}


def render_vqa_table(report: dict) -> str:
    """Category columns in the standard order, then the micro average."""
    cats = [c for c in VQA_CATEGORIES if c in report["per_category"]]
    cats += sorted(c for c in report["per_category"] if c not in VQA_CATEGORIES)
    headers = [c.replace("rural_urban", "Rural/Urban").replace("_", " ").title()
               for c in cats] + ["Avg. Accuracy"]
    values = [f"{100.0 * report['per_category'][c]:.2f}" for c in cats]
    values.append(f"{100.0 * report['micro']:.2f}")
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + row


# -- change captioning ----------------------------------------------------------

@dataclass
class CaptionEntry:
    candidate: str
    references: list[str]

    def __post_init__(self):
        if not self.references:
            raise ContractError("caption entry with no references")


@dataclass
class CiderConfig:
    n_max: int = 4
    sigma: float = 6.0
    scale: float = 10.0


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def cider_d(entries: list[CaptionEntry], cfg: CiderConfig = CiderConfig()) -> dict:
    """Corpus and per-image CIDEr-D scores.

    Document frequencies count, per n-gram, the images in whose
    references it occurs; idf = ln(corpus / max(df, 1)). An image whose
    candidate or references tokenize to nothing scores 0 with a warning.
    """
    if not entries:
        raise ContractError("cider_d needs at least one image")
    corpus = len(entries)
    tokenized = [(normalize_answer(e.candidate).split(),
                  [normalize_answer(r).split() for r in e.references])
                 for e in entries]
    df = [Counter() for _ in range(cfg.n_max)]
    for _, refs in tokenized:
        for n in range(1, cfg.n_max + 1):
            seen = set()
            for ref in refs:
                seen.update(_ngrams(ref, n))
            for g in seen:
                df[n - 1][g] += 1
    idf = [{g: math.log(corpus / max(c, 1)) for g, c in level.items()}
           for level in df]

    per_image = []
    for cand, refs in tokenized:
        if not cand or any(not r for r in refs):
            warnings.warn("empty candidate or reference; image scores 0")
            per_image.append(0.0)
            continue
        acc = 0.0
        for n in range(1, cfg.n_max + 1):
            weights = idf[n - 1]
            cand_counts = _ngrams(cand, n)
            ref_counts = [_ngrams(r, n) for r in refs]
            clip = Counter()
            for rc in ref_counts:
                for g, c in rc.items():
                    clip[g] = max(clip[g], c)
            clipped = {g: min(c, clip[g]) for g, c in cand_counts.items()}
            for rc, ref in zip(ref_counts, refs):
                acc += _similarity(clipped, dict(rc), weights,
                                   len(cand), len(ref), cfg.sigma)
        per_image.append(cfg.scale * acc / (cfg.n_max * len(refs)))
    return {"cider_d": sum(per_image) / corpus, "per_image": per_image}


def _similarity(cand: dict, ref: dict, idf: dict, l_c: int, l_r: int,
                sigma: float) -> float:
    vc = {g: c * idf.get(g, 0.0) for g, c in cand.items()}
    vr = {g: c * idf.get(g, 0.0) for g, c in ref.items()}
    nc = math.sqrt(sum(v * v for v in vc.values()))
    nr = math.sqrt(sum(v * v for v in vr.values()))
    if nc == 0.0 or nr == 0.0:
        return 0.0
    # identical vectors and lengths collapse to exactly 1 by definition;
    # dividing by sqrt(s)^2 instead would cost an ulp
    if cand == ref and l_c == l_r:
        return 1.0
    dot = sum(min(vc[g], vr[g]) * vr[g] for g in vc if g in vr)
    penalty = math.exp(-((l_c - l_r) ** 2) / (2.0 * sigma * sigma))
    return (dot / (nc * nr)) * penalty


# -- video classification --------------------------------------------------------

def classification_report(pairs: list[tuple[str, str]], labels: tuple[str, ...] | list[str],
                          strict: bool = True) -> dict:
    """Per-class precision TP/(TP+FP) and overall accuracy.

    Classes that were never predicted are omitted from the precision map
    rather than scored 0. Gold labels outside the declared set always
    raise; predictions outside it raise when strict, otherwise they only
    count against accuracy (useful for free-form model output).
    """
    if not pairs:
        raise ContractError("classification_report needs at least one pair")
    label_set = set(labels)
    if len(label_set) != len(labels):
        raise ContractError("duplicate labels in the declared set")
    tp: Counter = Counter()
    predicted: Counter = Counter()
    gold_counts: Counter = Counter()
    for pred, gold in pairs:
        if gold not in label_set:
            raise ContractError(f"gold label {gold!r} is not in the declared set")
        if pred not in label_set:
            if strict:
                raise ContractError(
                    f"predicted label {pred!r} is not in the declared set")
            gold_counts[gold] += 1
            continue
        predicted[pred] += 1
        gold_counts[gold] += 1
        if pred == gold:
            tp[pred] += 1
    precision = {c: tp[c] / predicted[c] for c in labels if predicted[c] > 0}
    oa = sum(tp.values()) / len(pairs)
    return {"precision": precision, "overall_accuracy": oa,
            "support": {c: gold_counts[c] for c in labels if gold_counts[c] > 0},
            "labels": list(labels)}


def render_classification_table(report: dict) -> str:
    """One row per declared label, in declared order, then the OA line."""
    rows = []
    for label in report["labels"]:
        p = report["precision"].get(label)
        shown = f"{100.0 * p:.2f}" if p is not None else "-"
        rows.append((label, shown))
    width = max(len(r[0]) for r in rows)
    lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
    lines.append(f"{'OA'.ljust(width)}  {100.0 * report['overall_accuracy']:.2f}")
    return "\n".join(lines)


# -- prediction files -------------------------------------------------------------

def read_predictions(path: str | Path) -> list[dict]:
    """JSONL rows {id, category?, prediction, gold | references} of strings,
    with references a list of strings."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractError(f"{path}: line {lineno}: {exc}") from exc
            if not isinstance(row, dict) or "id" not in row or "prediction" not in row:
                raise ContractError(
                    f"{path}: line {lineno}: rows need to be objects with 'id' and 'prediction'")
            bad = [k for k in ("id", "prediction", "gold", "category")
                   if k in row and not isinstance(row[k], str)]
            refs = row.get("references", [])
            if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
                bad.append("references")
            if bad:
                raise ContractError(f"{path}: line {lineno}: {bad} must be strings "
                                    "(references a list of strings)")
            rows.append(row)
    if not rows:
        raise ContractError(f"{path}: no prediction rows")
    return rows


def write_predictions(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
