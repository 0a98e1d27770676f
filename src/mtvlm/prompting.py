"""Prompt assembly: clue prompts, task tags, instructions, and the template.

A rendered prompt is, in order: the visual marker fragment, a newline,
the task tag, a space, the task instruction, and (when a clue is
available) a trailing " Clue: <clue text>". Clue generation is an
enhancement: if the generator fails, callers fall back to the clue-free
rendering rather than failing the task.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable

from .data import ERA_LABELS, SYNTH_PAIR_INSTRUCTION
from .errors import ContractError
from .fileio import read_text, write_atomic
from .packing import markers_for
from .vision import VisualInput

# Fixed prompts handed to the clue-generating base model, keyed by kind.
CLUE_PROMPTS = {
    "single": "Describe this remote sensing image in detail.",
    "pair": SYNTH_PAIR_INSTRUCTION,
    "video": "Please classify the scene in this video captured by the UAV.",
}

TASK_TAGS = {
    "single": "Single image understanding:",
    "pair": "Remote sensing change captioning:",
    "video": "Video scene classification:",
}

LEVIRCC_INSTRUCTION = SYNTH_PAIR_INSTRUCTION
ERA_INSTRUCTION = ("Classify the given video in one of the following classes. "
                   "Classes: " + ", ".join(ERA_LABELS) + ".")

# A generator maps (visual input, generation prompt) to a clue string.
ClueGenerator = Callable[[VisualInput, str], str]


class ClueUnavailableError(RuntimeError):
    """The clue generator failed; build the prompt without a clue."""


def clue_prompt_for(kind: str) -> str:
    try:
        return CLUE_PROMPTS[kind]
    except KeyError:
        raise ContractError(f"no clue prompt for kind {kind!r}") from None


def task_tag_for(kind: str) -> str:
    try:
        return TASK_TAGS[kind]
    except KeyError:
        raise ContractError(f"no task tag for kind {kind!r}") from None


def instruction_for_dataset(dataset_tag: str, record) -> str:
    """Table-driven instruction policy per training dataset."""
    if dataset_tag == "geochat" or dataset_tag.startswith("synthetic-"):
        return record.instruction
    if dataset_tag == "levircc":
        return LEVIRCC_INSTRUCTION
    if dataset_tag == "era":
        return ERA_INSTRUCTION
    raise ContractError(f"no instruction policy for dataset {dataset_tag!r}")


def build_prompt(kind: str, k: int, instruction: str, clue: str | None = None,
                 marker_kind: str | None = None) -> str:
    """Render the full prompt string.

    ``marker_kind`` overrides the marker fragment's kind while keeping the
    task tag; the ablation harness uses it to feed a pair through plain
    frame markers.
    """
    if not instruction:
        raise ContractError("prompt instruction must be nonempty")
    markers = markers_for(marker_kind or kind, k)
    rendered = f"{markers}\n{task_tag_for(kind)} {instruction}"
    if clue:
        rendered += f" Clue: {clue}"
    return rendered


class ClueCache:
    """In-memory clue cache keyed by (input hash, generation prompt).

    Thread-safe insert with last-write-wins; persisted as JSONL rows of
    {input_hash, p_g, clue}.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()

    def get(self, input_hash: str, p_g: str) -> str | None:
        return self._entries.get((input_hash, p_g))

    def put(self, input_hash: str, p_g: str, clue: str) -> None:
        with self._lock:
            self._entries[(input_hash, p_g)] = clue

    def __len__(self) -> int:
        return len(self._entries)

    def save(self, path: str | Path) -> None:
        lines = [json.dumps({"input_hash": h, "p_g": p, "clue": c},
                            sort_keys=True, ensure_ascii=False)
                 for (h, p), c in sorted(self._entries.items())]
        write_atomic(path, "".join(line + "\n" for line in lines))

    @classmethod
    def load(cls, path: str | Path) -> "ClueCache":
        """Read the rows ``save`` writes; blank lines are skipped."""
        cache = cls()
        lines = read_text(path, ContractError).split("\n")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractError(f"{path}: line {lineno}: {exc}") from exc
            if not isinstance(row, dict) or not all(
                    isinstance(row.get(k), str) for k in ("input_hash", "p_g", "clue")):
                raise ContractError(f"{path}: line {lineno}: rows need to be objects "
                                    "with string 'input_hash', 'p_g' and 'clue'")
            cache.put(row["input_hash"], row["p_g"], row["clue"])
        return cache


def generate_clue(gen: ClueGenerator, vi: VisualInput,
                  cache: ClueCache | None = None) -> str:
    """Run the clue generator for an input, consulting the cache first.

    Raises ClueUnavailableError when the generator fails; an empty string
    return means "no clue" and is passed through unchanged.
    """
    p_g = clue_prompt_for(vi.kind)
    key = vi.content_hash()
    if cache is not None:
        hit = cache.get(key, p_g)
        if hit is not None:
            return hit
    try:
        clue = gen(vi, p_g)
    except Exception as e:
        raise ClueUnavailableError(f"clue generator failed: {e}") from e
    if not isinstance(clue, str):
        raise ClueUnavailableError(f"clue generator returned {type(clue).__name__}")
    if cache is not None:
        cache.put(key, p_g, clue)
    return clue
