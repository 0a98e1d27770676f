"""Prompt rendering is byte-frozen; clues only ever append a suffix."""

import threading

import numpy as np
import pytest

from mtvlm.data import ERA_LABELS
from mtvlm.errors import ContractError
from mtvlm.prompting import (
    CLUE_PROMPTS, ERA_INSTRUCTION, LEVIRCC_INSTRUCTION, TASK_TAGS, ClueCache,
    ClueUnavailableError, build_prompt, clue_prompt_for, generate_clue,
    instruction_for_dataset, task_tag_for,
)
from mtvlm.vision import VisualInput


def test_clue_prompt_literals():
    assert CLUE_PROMPTS["single"] == "Describe this remote sensing image in detail."
    assert CLUE_PROMPTS["pair"] == ("Please identify whether there are obvious "
                                    "remote sensing image changes.")
    assert CLUE_PROMPTS["video"] == ("Please classify the scene in this video "
                                     "captured by the UAV.")


def test_task_tag_literals():
    assert TASK_TAGS == {
        "single": "Single image understanding:",
        "pair": "Remote sensing change captioning:",
        "video": "Video scene classification:",
    }


def test_dataset_instruction_literals():
    assert LEVIRCC_INSTRUCTION == CLUE_PROMPTS["pair"]
    assert ERA_INSTRUCTION == (
        "Classify the given video in one of the following classes. Classes: "
        + ", ".join(ERA_LABELS) + ".")
    assert ERA_INSTRUCTION.count(",") == len(ERA_LABELS) - 1


def test_lookup_errors():
    with pytest.raises(ContractError):
        clue_prompt_for("stereo")
    with pytest.raises(ContractError):
        task_tag_for("stereo")
    with pytest.raises(ContractError):
        instruction_for_dataset("imagenet", None)


class _Rec:
    instruction = "Count the ships."


def test_instruction_policy():
    assert instruction_for_dataset("geochat", _Rec()) == "Count the ships."
    assert instruction_for_dataset("synthetic-single", _Rec()) == "Count the ships."
    assert instruction_for_dataset("levircc", _Rec()) == LEVIRCC_INSTRUCTION
    assert instruction_for_dataset("era", _Rec()) == ERA_INSTRUCTION


def test_build_prompt_rendering():
    assert build_prompt("single", 1, "Count the ships.") == (
        "⟨image⟩\nSingle image understanding: Count the ships.")
    assert build_prompt("pair", 2, LEVIRCC_INSTRUCTION) == (
        "⟨Change Feature⟩\nRemote sensing change captioning: Please identify "
        "whether there are obvious remote sensing image changes.")
    assert build_prompt("video", 2, "Name the scene.") == (
        "⟨Frame 1⟩⟨Frame 2⟩\nVideo scene classification: Name the scene.")


def test_clue_changes_only_the_suffix():
    plain = build_prompt("pair", 2, LEVIRCC_INSTRUCTION)
    clued = build_prompt("pair", 2, LEVIRCC_INSTRUCTION, clue="a road was built")
    assert clued == plain + " Clue: a road was built"
    # empty clue means no clue
    assert build_prompt("pair", 2, LEVIRCC_INSTRUCTION, clue="") == plain


def test_marker_kind_override_keeps_tag():
    p = build_prompt("pair", 2, LEVIRCC_INSTRUCTION, marker_kind="video")
    assert p.startswith("⟨Frame 1⟩⟨Frame 2⟩\nRemote sensing change captioning:")


def test_build_prompt_errors():
    with pytest.raises(ContractError):
        build_prompt("single", 1, "")
    with pytest.raises(ContractError):
        build_prompt("stereo", 1, "x")
    with pytest.raises(ContractError):
        build_prompt("single", 2, "x")


# -- clue cache ---------------------------------------------------------------

def test_clue_cache_roundtrip(tmp_path):
    cache = ClueCache()
    assert cache.get("h1", "p") is None
    cache.put("h1", "p", "first")
    cache.put("h2", "p", "second")
    cache.put("h1", "p", "replaced")     # last write wins
    assert len(cache) == 2
    assert cache.get("h1", "p") == "replaced"

    path = tmp_path / "clues.jsonl"
    cache.save(path)
    again = ClueCache.load(path)
    assert len(again) == 2
    assert again.get("h2", "p") == "second"

    # sorted keys make the save byte-stable
    cache.save(tmp_path / "b.jsonl")
    assert path.read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"],
                         ids=["line-sep", "para-sep", "nel"])
def test_clue_cache_roundtrips_unicode_line_breaks(tmp_path, sep):
    # json.dumps(ensure_ascii=False) leaves these unescaped inside a string,
    # so load must split rows on "\n" alone
    cache = ClueCache()
    cache.put("h1", "p", f"a{sep}b")
    cache.put("h2", "p", "plain")
    path = tmp_path / "clues.jsonl"
    cache.save(path)
    again = ClueCache.load(path)
    assert len(again) == 2
    assert again.get("h1", "p") == f"a{sep}b"
    assert again.get("h2", "p") == "plain"


def test_clue_cache_empty_save(tmp_path):
    p = tmp_path / "empty.jsonl"
    ClueCache().save(p)
    assert p.read_text() == ""
    assert len(ClueCache.load(p)) == 0


@pytest.mark.parametrize("line", [
    "{}", "[]", '"clue"', "{broken", '{"input_hash": "h", "p_g": "p"}',
    '{"input_hash": ["h"], "p_g": "p", "clue": "c"}',
    '{"input_hash": "h", "p_g": 3, "clue": "c"}',
    '{"input_hash": "h", "p_g": "p", "clue": null}'])
def test_clue_cache_load_rejects_bad_rows(tmp_path, line):
    path = tmp_path / "clues.jsonl"
    good = '{"clue": "c", "input_hash": "h", "p_g": "p"}'
    path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ContractError, match="line 3"):
        ClueCache.load(path)


def test_clue_cache_thread_hammer():
    cache = ClueCache()

    def worker(i):
        for j in range(200):
            cache.put(f"h{j % 20}", "p", f"clue-{i}-{j}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) == 20
    for j in range(20):
        assert cache.get(f"h{j}", "p").startswith("clue-")


# -- clue generation -------------------------------------------------------------

def _vi():
    return VisualInput("single", np.zeros((1, 3, 2, 2)))


def test_generate_clue_uses_cache_first():
    cache = ClueCache()
    cache.put(_vi().content_hash(), CLUE_PROMPTS["single"], "cached clue")

    def explode(vi, p_g):
        raise AssertionError("generator must not run on a cache hit")

    assert generate_clue(explode, _vi(), cache) == "cached clue"


def test_generate_clue_caches_result():
    cache = ClueCache()
    calls = []

    def gen(vi, p_g):
        calls.append(p_g)
        return "fresh clue"

    assert generate_clue(gen, _vi(), cache) == "fresh clue"
    assert generate_clue(gen, _vi(), cache) == "fresh clue"
    assert calls == [CLUE_PROMPTS["single"]]
    assert cache.get(_vi().content_hash(), CLUE_PROMPTS["single"]) == "fresh clue"


def test_generate_clue_failure_modes():
    with pytest.raises(ClueUnavailableError):
        generate_clue(lambda vi, p: 1 / 0, _vi())
    with pytest.raises(ClueUnavailableError):
        generate_clue(lambda vi, p: 42, _vi())


def test_generate_clue_empty_string_passthrough():
    assert generate_clue(lambda vi, p: "", _vi()) == ""
