"""Manifest schema, mixing, split accounting, and the synthetic generator."""

import json

import numpy as np
import pytest

from mtvlm.data import (
    CAPTION_CHANGED, CAPTION_UNCHANGED, ERA_LABELS, ERA_SPLITS,
    GEOCHAT_SPLITS, LEVIRCC_SPLITS, ManifestError, SampleRecord, SplitSpec,
    SYNTH_VIDEO_CLASSES, group_by_split, load_manifest, mix, save_manifest,
    synth_generate, validate_splits,
)
from mtvlm.errors import ContractError
from mtvlm.vision import read_pixels


def rec(**overrides) -> SampleRecord:
    base = dict(id="r0", dataset_tag="geochat", kind="single",
                visual_refs=["a.f64"], instruction="Say hi.", target="hi")
    base.update(overrides)
    return SampleRecord(**base)


# -- record validation -------------------------------------------------------

def test_record_happy_paths():
    rec().validate()
    rec(dataset_tag="synthetic-pair", kind="pair",
        visual_refs=["a", "b"], references=["x"], changed=True).validate()
    rec(dataset_tag="era", kind="video", visual_refs=["a", "b", "c"]).validate()
    rec(dataset_tag="levircc", kind="pair", visual_refs=["a", "b"],
        references=["c1", "c2", "c3", "c4", "c5"]).validate()


@pytest.mark.parametrize("bad, match", [
    (dict(id=""), "id"),
    (dict(kind="stereo"), "kind"),
    (dict(dataset_tag="imagenet"), "dataset_tag"),
    (dict(visual_refs=["a", "b"]), "visual_refs"),
    (dict(kind="pair", visual_refs=["a"]), "visual_refs"),
    (dict(kind="video", visual_refs=[]), "visual_refs"),
    (dict(instruction=""), "instruction"),
    (dict(dataset_tag="levircc", kind="pair", visual_refs=["a", "b"],
          references=["only", "four", "refs", "here"]), "references"),
    (dict(dataset_tag="levircc", kind="pair", visual_refs=["a", "b"]),
     "references"),
])
def test_record_validation_errors(bad, match):
    with pytest.raises(ManifestError, match=match):
        rec(**bad).validate()


def test_record_json_drops_unset_fields():
    d = json.loads(rec().to_json())
    assert set(d) == {"id", "dataset_tag", "kind", "visual_refs",
                      "instruction", "target"}
    d = json.loads(rec(split="test", changed=False).to_json())
    assert d["split"] == "test" and d["changed"] is False


# -- manifests ----------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    records = [rec(id=f"r{i}") for i in range(4)]
    path = tmp_path / "m.jsonl"
    save_manifest(path, records)
    again = load_manifest(path)
    assert [r.id for r in again] == ["r0", "r1", "r2", "r3"]
    assert again[0] == records[0]


def test_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(rec().to_json() + "\n\n\n" + rec(id="r1").to_json() + "\n")
    assert len(load_manifest(path)) == 2


def test_manifest_reports_every_bad_line(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [
        "{not json",
        json.dumps({"id": "x", "dataset_tag": "geochat", "kind": "single",
                    "visual_refs": ["a"], "instruction": "q", "target": "t",
                    "banana": 1}),
        rec(kind="stereo").to_json(),
        json.dumps({"id": "y"}),           # missing required fields
        rec(id="good").to_json(),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    msg = str(err.value)
    assert "line 1" in msg and "invalid JSON" in msg
    assert "line 2" in msg and "banana" in msg
    assert "line 3" in msg and "line 4" in msg
    assert "line 5" not in msg


@pytest.mark.parametrize("line", ["5", "null", "[[1]]"])
def test_manifest_line_that_is_not_an_object_is_a_line_error(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text(rec().to_json() + "\n" + line + "\n")
    with pytest.raises(ManifestError, match="line 2: expected a JSON object"):
        load_manifest(path)


# -- mixing --------------------------------------------------------------------

def test_mix_is_a_seeded_permutation():
    a = [rec(id=f"a{i}") for i in range(7)]
    b = [rec(id=f"b{i}") for i in range(5)]
    m1 = mix([a, b], seed=3)
    m2 = mix([a, b], seed=3)
    assert [r.id for r in m1.records] == [r.id for r in m2.records]
    assert sorted(r.id for r in m1.records) == sorted(r.id for r in a + b)
    assert sorted(m1.order.tolist()) == list(range(12))
    assert [r.id for r in mix([a, b], seed=4).records] != [r.id for r in m1.records]
    expected = np.random.default_rng(3).permutation(12)
    assert m1.order.tolist() == expected.tolist()


def test_mix_rejects_empty_union():
    with pytest.raises(ContractError):
        mix([[], []], seed=0)


# -- split accounting ----------------------------------------------------------

def levircc_shaped() -> dict[str, list[SampleRecord]]:
    def r(i, split, changed):
        return rec(id=f"l{split}{i}", dataset_tag="levircc", kind="pair",
                   visual_refs=["a", "b"], references=["c"] * 5,
                   split=split, changed=changed)
    return {
        "train": [r(i, "train", i % 2 == 0) for i in range(6815)],
        "val": [r(i, "val", i % 2 == 0) for i in range(1333)],
        "test": [r(i, "test", i < 964) for i in range(1929)],
    }


def era_shaped() -> dict[str, list[SampleRecord]]:
    def r(i, split):
        return rec(id=f"e{split}{i}", dataset_tag="era", kind="video",
                   visual_refs=["a", "b"], split=split,
                   target=ERA_LABELS[i % len(ERA_LABELS)])
    return {"train": [r(i, "train") for i in range(1473)],
            "test": [r(i, "test") for i in range(1391)]}


def test_levircc_split_spec():
    report = validate_splits(levircc_shaped(), LEVIRCC_SPLITS)
    assert report["total"] == 10_077
    assert report["counts"] == {"train": 6815, "val": 1333, "test": 1929}
    assert report["changed"] == {"test": [964, 965]}


def test_era_split_spec():
    report = validate_splits(era_shaped(), ERA_SPLITS)
    assert report["total"] == 2_864
    assert report["counts"]["test"] == 1_391
    assert len(ERA_LABELS) == 25


def test_geochat_split_spec_total_only():
    by = {"train": [rec(id=f"g{i}") for i in range(10)]}
    with pytest.raises(ManifestError, match="total 10, expected 306000"):
        validate_splits(by, GEOCHAT_SPLITS)
    validate_splits(by, SplitSpec(total=10))


def test_split_failures_are_specific():
    by = levircc_shaped()
    by["test"] = by["test"][:-1]
    with pytest.raises(ManifestError, match="split test: 1928 records"):
        validate_splits(by, LEVIRCC_SPLITS)

    by = levircc_shaped()
    by["test"][0].changed = None
    with pytest.raises(ManifestError, match="lack the 'changed' flag"):
        validate_splits(by, LEVIRCC_SPLITS)

    by = levircc_shaped()
    by["test"][0].changed = False
    with pytest.raises(ManifestError, match="963 changed / 966 unchanged"):
        validate_splits(by, LEVIRCC_SPLITS)

    by = era_shaped()
    for r in by["train"] + by["test"]:
        if r.target == "non-event":
            r.target = "fire"
    with pytest.raises(ManifestError, match="never seen.*non-event"):
        validate_splits(by, ERA_SPLITS)

    by = era_shaped()
    by["test"][0].target = "meteor strike"
    with pytest.raises(ManifestError, match="outside the declared set"):
        validate_splits(by, ERA_SPLITS)


def test_split_fraction_tolerance():
    spec = SplitSpec(fractions={"train": 0.7, "test": 0.3}, fraction_tol=0.01)
    by = {"train": [rec(id=f"a{i}") for i in range(70)],
          "test": [rec(id=f"b{i}") for i in range(30)]}
    validate_splits(by, spec)
    by["train"].append(rec(id="extra"))
    by["test"].extend(rec(id=f"c{i}") for i in range(4))
    with pytest.raises(ManifestError, match="fraction"):
        validate_splits(by, spec)


def test_split_spec_fraction_sum_check():
    with pytest.raises(ContractError, match="sum"):
        SplitSpec(fractions={"train": 0.5, "test": 0.4})


def test_group_by_split_defaults_to_train():
    rows = [rec(id="a", split="test"), rec(id="b"), rec(id="c", split=None)]
    grouped = group_by_split(rows)
    assert [r.id for r in grouped["test"]] == ["a"]
    assert [r.id for r in grouped["train"]] == ["b", "c"]


# -- synthetic generator ---------------------------------------------------------

def test_synth_generate_validation(tmp_path):
    with pytest.raises(ContractError):
        synth_generate("single", 0, 0, tmp_path)
    with pytest.raises(ContractError):
        synth_generate("stereo", 1, 0, tmp_path)


def test_synth_records_validate_and_load(tmp_path):
    for kind, n_refs in (("single", 1), ("pair", 2), ("video", 4)):
        records = synth_generate(kind, 3, seed=5, out_dir=tmp_path, k=4)
        assert len(records) == 3
        for r in records:
            r.validate()
            assert r.dataset_tag == f"synthetic-{kind}"
            assert len(r.visual_refs) == n_refs
            assert r.split == "train"
            for ref in r.visual_refs:
                frames = read_pixels(tmp_path / ref)
                assert frames.shape == (1, 3, 32, 32)
                assert 0.0 <= frames.min() and frames.max() <= 1.0


def test_synth_generate_is_deterministic(tmp_path):
    a = synth_generate("pair", 4, seed=9, out_dir=tmp_path / "a")
    b = synth_generate("pair", 4, seed=9, out_dir=tmp_path / "b")
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    for ra in a:
        for ref in ra.visual_refs:
            assert (tmp_path / "a" / ref).read_bytes() == \
                (tmp_path / "b" / ref).read_bytes()
    c = synth_generate("pair", 4, seed=10, out_dir=tmp_path / "c")
    assert [r.to_json() for r in c] != [r.to_json() for r in a]


def test_synth_pair_semantics(tmp_path):
    records = synth_generate("pair", 12, seed=2, out_dir=tmp_path)
    assert {r.changed for r in records} == {True, False}
    for r in records:
        before = read_pixels(tmp_path / r.visual_refs[0])
        after = read_pixels(tmp_path / r.visual_refs[1])
        assert r.references == [r.target]
        if r.changed:
            assert r.target == CAPTION_CHANGED
            assert not np.array_equal(before, after)
        else:
            assert r.target == CAPTION_UNCHANGED
            # unchanged means bit-identical frames, not merely close
            assert before.tobytes() == after.tobytes()


def test_synth_video_semantics(tmp_path):
    records = synth_generate("video", 6, seed=3, out_dir=tmp_path, k=5)
    for r in records:
        assert r.target in SYNTH_VIDEO_CLASSES
        assert len(r.visual_refs) == 5
