"""Manifests, dataset mixing, split accounting, and synthetic data.

Manifests are JSONL, one record per line, UTF-8, with the fields of
:class:`SampleRecord`. Optional keys (``references``, ``split``,
``category``, ``changed``) extend the core schema; unknown keys are
rejected so typos surface early.

The synthetic generator draws fully seeded toy scenes so the whole
pipeline can be trained and evaluated on one CPU core: colored-shape
question answering, injected-rectangle change captioning, and moving-dot
trajectory classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .errors import ContractError
from .fileio import read_text, write_atomic
from .vision import write_pixels

# Video scene label set, in the order the classification report uses.
ERA_LABELS = (
    "post-earthquake", "flood", "fire", "landslide", "mudslide",
    "traffic collision", "traffic congestion", "harvesting", "ploughing",
    "constructing", "police chase", "conflict", "baseball", "basketball",
    "boating", "cycling", "running", "soccer", "swimming", "car racing",
    "party", "concert", "parade/protest", "religious activity", "non-event",
)

SYNTH_VIDEO_CLASSES = ("static", "linear", "circular")

CAPTION_CHANGED = "a building appears"
CAPTION_UNCHANGED = "the two scenes seem identical"

SYNTH_QUESTIONS = ("Is there a circle?", "Is there a square?",
                   "Are there more circles than squares?")
SYNTH_ANSWER_SUFFIX = " Answer in one word or a short phrase."
# LEVIR-CC's change-captioning instruction, which synthetic pairs carry too
SYNTH_PAIR_INSTRUCTION = ("Please identify whether there are obvious remote "
                          "sensing image changes.")
SYNTH_VIDEO_INSTRUCTION = ("Classify the given video in one of the following "
                           "classes. Classes: " + ", ".join(SYNTH_VIDEO_CLASSES) + ".")

_KIND_REFS = {"single": 1, "pair": 2}


class ManifestError(ValueError):
    """A manifest failed to parse or violated a record invariant."""


@dataclass
class SampleRecord:
    id: str
    dataset_tag: str
    kind: str
    visual_refs: list[str]
    instruction: str
    target: str
    references: list[str] | None = None
    split: str | None = None
    category: str | None = None
    changed: bool | None = None

    def validate(self) -> None:
        if not self.id:
            raise ManifestError("record field 'id' is empty")
        if self.kind not in ("single", "pair", "video"):
            raise ManifestError(f"record {self.id}: unknown kind {self.kind!r}")
        known = self.dataset_tag in ("geochat", "levircc", "era")
        if not known and not self.dataset_tag.startswith("synthetic-"):
            raise ManifestError(
                f"record {self.id}: unknown dataset_tag {self.dataset_tag!r}")
        want = _KIND_REFS.get(self.kind)
        got = len(self.visual_refs)
        if want is not None and got != want:
            raise ManifestError(
                f"record {self.id}: field 'visual_refs' has {got} entries, "
                f"kind {self.kind} needs {want}")
        if self.kind == "video" and got < 1:
            raise ManifestError(f"record {self.id}: field 'visual_refs' is empty")
        if self.dataset_tag == "levircc":
            n_refs = len(self.references or [])
            if n_refs != 5:
                raise ManifestError(
                    f"record {self.id}: field 'references' has {n_refs} captions, "
                    f"levircc requires exactly 5")
        if not self.instruction:
            raise ManifestError(f"record {self.id}: field 'instruction' is empty")

    def to_json(self) -> str:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(d, sort_keys=True, ensure_ascii=False)


_RECORD_KEYS = {f.name for f in fields(SampleRecord)}


def load_manifest(path: str | Path) -> list[SampleRecord]:
    """Load and validate a JSONL manifest; all line errors are reported."""
    path = Path(path)
    records: list[SampleRecord] = []
    errors: list[str] = []
    for lineno, line in enumerate(read_text(path, ManifestError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON ({e.msg})")
            continue
        if not isinstance(raw, dict):
            errors.append(f"line {lineno}: expected a JSON object, got {type(raw).__name__}")
            continue
        unknown = set(raw) - _RECORD_KEYS
        if unknown:
            errors.append(f"line {lineno}: unknown fields {sorted(unknown)}")
            continue
        try:
            rec = SampleRecord(**raw)
            rec.validate()
        except (TypeError, ManifestError) as e:
            errors.append(f"line {lineno}: {e}")
            continue
        records.append(rec)
    if errors:
        raise ManifestError(f"{path}: " + "; ".join(errors))
    return records


def save_manifest(path: str | Path, records: list[SampleRecord]) -> None:
    write_atomic(path, "\n".join(r.to_json() for r in records) + "\n")


# -- mixing -------------------------------------------------------------------

@dataclass
class MixedDataset:
    records: list[SampleRecord]
    order: np.ndarray
    seed: int


def mix(datasets: list[list[SampleRecord]], seed: int) -> MixedDataset:
    """Uniform seeded shuffle of the concatenated datasets."""
    union = [r for ds in datasets for r in ds]
    if not union:
        raise ContractError("mix of an empty union")
    order = np.random.default_rng(seed).permutation(len(union))
    return MixedDataset(records=[union[i] for i in order], order=order, seed=seed)


# -- split accounting ---------------------------------------------------------

@dataclass
class SplitSpec:
    """Expected split shape of a dataset, for validation."""

    total: int | None = None
    counts: dict[str, int] = field(default_factory=dict)
    fractions: dict[str, float] = field(default_factory=dict)
    fraction_tol: float = 0.005
    label_set: tuple[str, ...] | None = None
    # split name -> (changed, unchanged) record counts
    changed_counts: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.fractions:
            s = sum(self.fractions.values())
            if abs(s - 1.0) > 0.005:
                raise ContractError(f"split fractions sum to {s}, not 1")


LEVIRCC_SPLITS = SplitSpec(
    total=10_077,
    counts={"test": 1_929},
    fractions={"train": 0.676, "val": 0.132, "test": 0.192},
    changed_counts={"test": (964, 965)},
)
ERA_SPLITS = SplitSpec(
    total=2_864,
    counts={"test": 1_391},
    fractions={"train": 0.514, "test": 0.486},
    label_set=ERA_LABELS,
)
GEOCHAT_SPLITS = SplitSpec(total=306_000)


def validate_splits(by_split: dict[str, list[SampleRecord]], spec: SplitSpec) -> dict:
    """Check observed split counts against a spec; returns the tally."""
    counts = {name: len(records) for name, records in by_split.items()}
    total = sum(counts.values())
    problems: list[str] = []
    if spec.total is not None and total != spec.total:
        problems.append(f"total {total}, expected {spec.total}")
    for name, want in spec.counts.items():
        got = counts.get(name, 0)
        if got != want:
            problems.append(f"split {name}: {got} records, expected {want}")
    fractions = {name: c / total for name, c in counts.items()} if total else {}
    for name, want in spec.fractions.items():
        got = fractions.get(name, 0.0)
        if abs(got - want) > spec.fraction_tol:
            problems.append(f"split {name}: fraction {got:.4f}, expected {want}")
    if spec.label_set is not None:
        seen = {r.target for records in by_split.values() for r in records}
        missing = set(spec.label_set) - seen
        extra = seen - set(spec.label_set)
        if missing:
            problems.append(f"labels never seen: {sorted(missing)}")
        if extra:
            problems.append(f"labels outside the declared set: {sorted(extra)}")
    changed_tally: dict[str, tuple[int, int]] = {}
    for name, (want_changed, want_unchanged) in spec.changed_counts.items():
        records = by_split.get(name, [])
        flags = [r.changed for r in records]
        if any(f is None for f in flags):
            problems.append(f"split {name}: records lack the 'changed' flag")
            continue
        n_changed = sum(1 for f in flags if f)
        n_unchanged = len(flags) - n_changed
        changed_tally[name] = (n_changed, n_unchanged)
        if (n_changed, n_unchanged) != (want_changed, want_unchanged):
            problems.append(
                f"split {name}: {n_changed} changed / {n_unchanged} unchanged, "
                f"expected {want_changed}/{want_unchanged}")
    if problems:
        raise ManifestError("split validation failed: " + "; ".join(problems))
    report = {"total": total, "counts": counts,
              "fractions": {k: round(v, 6) for k, v in fractions.items()}}
    if changed_tally:
        report["changed"] = {k: list(v) for k, v in changed_tally.items()}
    return report


def group_by_split(records: list[SampleRecord]) -> dict[str, list[SampleRecord]]:
    out: dict[str, list[SampleRecord]] = {}
    for r in records:
        out.setdefault(r.split or "train", []).append(r)
    return out


# -- synthetic data -----------------------------------------------------------

def _blank_scene(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    bg = rng.uniform(0.05, 0.25, size=3)
    return np.tile(bg[:, None, None], (1, h, w))


def _draw_circle(img: np.ndarray, cy: int, cx: int, r: int, color: np.ndarray) -> None:
    h, w = img.shape[1:]
    yy, xx = np.mgrid[0:h, 0:w]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    img[:, mask] = color[:, None]

def _draw_square(img: np.ndarray, cy: int, cx: int, r: int, color: np.ndarray) -> None:
    h, w = img.shape[1:]
    yy, xx = np.mgrid[0:h, 0:w]
    mask = np.maximum(np.abs(yy - cy), np.abs(xx - cx)) <= r
    img[:, mask] = color[:, None]


def _rand_center(rng: np.random.Generator, h: int, w: int, margin: int) -> tuple[int, int]:
    return (int(rng.integers(margin, h - margin)),
            int(rng.integers(margin, w - margin)))


def _synth_single(rng, h, w):
    img = _blank_scene(rng, h, w)
    n_circles = int(rng.integers(0, 3))
    n_squares = int(rng.integers(0, 3))
    for _ in range(n_circles):
        cy, cx = _rand_center(rng, h, w, 6)
        _draw_circle(img, cy, cx, int(rng.integers(3, 6)), rng.uniform(0.4, 1.0, 3))
    for _ in range(n_squares):
        cy, cx = _rand_center(rng, h, w, 6)
        _draw_square(img, cy, cx, int(rng.integers(3, 6)), rng.uniform(0.4, 1.0, 3))
    qtype = int(rng.integers(0, 3))
    if qtype == 0:
        yes, category = n_circles > 0, "presence"
    elif qtype == 1:
        yes, category = n_squares > 0, "presence"
    else:
        yes, category = n_circles > n_squares, "comparison"
    instruction = SYNTH_QUESTIONS[qtype] + SYNTH_ANSWER_SUFFIX
    return img[None], instruction, ("yes" if yes else "no"), category


def _synth_pair(rng, h, w):
    before = _blank_scene(rng, h, w)
    for _ in range(int(rng.integers(1, 3))):
        cy, cx = _rand_center(rng, h, w, 6)
        _draw_square(before, cy, cx, int(rng.integers(2, 5)), rng.uniform(0.3, 0.7, 3))
    after = before.copy()
    changed = bool(rng.integers(0, 2))
    if changed:
        cy, cx = _rand_center(rng, h, w, 7)
        _draw_square(after, cy, cx, int(rng.integers(3, 7)), rng.uniform(0.6, 1.0, 3))
        caption = CAPTION_CHANGED
    else:
        caption = CAPTION_UNCHANGED
    return np.stack([before, after]), caption, changed


def _synth_video(rng, h, w, k):
    cls = SYNTH_VIDEO_CLASSES[int(rng.integers(0, len(SYNTH_VIDEO_CLASSES)))]
    base = _blank_scene(rng, h, w)
    color = rng.uniform(0.6, 1.0, 3)
    frames = []
    cy, cx = _rand_center(rng, h, w, 9)
    if cls == "linear":
        vy = float(rng.uniform(-3.0, 3.0))
        vx = float(rng.uniform(1.5, 3.5)) * (1 if rng.integers(0, 2) else -1)
    radius = float(rng.uniform(5.0, 9.0))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    for t in range(k):
        img = base.copy()
        if cls == "static":
            y, x = cy, cx
        elif cls == "linear":
            y, x = cy + vy * t, cx + vx * t
        else:
            angle = phase + 2 * np.pi * t / k
            y = cy + radius * np.sin(angle)
            x = cx + radius * np.cos(angle)
        y = int(np.clip(y, 3, h - 4))
        x = int(np.clip(x, 3, w - 4))
        _draw_circle(img, y, x, 2, color)
        frames.append(img)
    return np.stack(frames), SYNTH_VIDEO_INSTRUCTION, cls


def synth_generate(kind: str, n: int, seed: int, out_dir: str | Path,
                   k: int = 4, h: int = 32, w: int = 32,
                   split: str = "train") -> list[SampleRecord]:
    """Write n seeded synthetic records of one kind plus their pixel files.

    Returns the records; the manifest itself is written by the caller (or
    the CLI) so several kinds can share a directory.
    """
    if n < 1:
        raise ContractError(f"synth_generate needs n >= 1, got {n}")
    if kind not in ("single", "pair", "video"):
        raise ContractError(f"unknown synthetic kind {kind!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        rec_id = f"{kind}-s{seed}-{i:03d}"
        if kind == "single":
            frames, instruction, target, category = _synth_single(rng, h, w)
            extra = {"category": category}
        elif kind == "pair":
            frames, target, changed = _synth_pair(rng, h, w)
            instruction = SYNTH_PAIR_INSTRUCTION
            extra = {"references": [target], "changed": changed}
        else:
            frames, instruction, target = _synth_video(rng, h, w, k)
            extra = {}
        refs = []
        for j in range(frames.shape[0]):
            name = f"{rec_id}-f{j}.f64"
            write_pixels(out_dir / name, frames[j:j + 1])
            refs.append(name)
        records.append(SampleRecord(
            id=rec_id, dataset_tag=f"synthetic-{kind}", kind=kind,
            visual_refs=refs, instruction=instruction, target=target,
            split=split, **extra))
    return records
