"""Metric kernels against hand fixtures and independent brute-force oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mtvlm.errors import ContractError
from mtvlm import metrics
from mtvlm.metrics import (
    CaptionEntry, VQARecord, cider_d, classification_report,
    normalize_answer, read_predictions, render_classification_table,
    render_vqa_table, vqa_accuracy, write_predictions,
)


# -- answer normalization ---------------------------------------------------------

@pytest.mark.parametrize("raw, want", [
    ("  Yes. ", "yes"),
    ("YES", "yes"),
    ("a  b\tc", "a b c"),
    ("no!!", "no"),
    ("don't", "don't"),
    ("Rural/Urban", "rural/urban"),
    ("two words.  ", "two words"),
    ("", ""),
    ("...", ""),
])
def test_normalize_answer(raw, want):
    assert normalize_answer(raw) == want


# -- vqa accuracy ------------------------------------------------------------------

def vqa_fixture():
    recs = [VQARecord("presence", "yes", "yes"),
            VQARecord("presence", "Yes.", "yes"),
            VQARecord("presence", "no", "no"),
            VQARecord("presence", "no", "yes"),
            VQARecord("comparison", "no", "no")]
    return recs


def test_vqa_accuracy_exact_fixture():
    report = vqa_accuracy(vqa_fixture())
    assert report["per_category"] == {"presence": 0.75, "comparison": 1.0}
    assert report["micro"] == 0.8
    assert report["macro"] == 0.875
    assert report["counts"] == {"presence": 4, "comparison": 1}


def test_vqa_accuracy_rejects_empty():
    with pytest.raises(ContractError):
        vqa_accuracy([])


@given(st.lists(st.tuples(st.sampled_from(["presence", "comparison", "other"]),
                          st.sampled_from(["yes", "no", "Yes.", "maybe"]),
                          st.sampled_from(["yes", "no"])),
                min_size=1, max_size=40))
def test_vqa_accuracy_matches_brute_force(rows):
    records = [VQARecord(c, p, g) for c, p, g in rows]
    report = vqa_accuracy(records)

    cats = {r.category for r in records}
    per = {}
    hits = 0
    for c in cats:
        sub = [r for r in records if r.category == c]
        ok = sum(1 for r in sub
                 if normalize_answer(r.prediction) == normalize_answer(r.gold))
        per[c] = Fraction(ok, len(sub))
        hits += ok
    assert report["micro"] == pytest.approx(float(Fraction(hits, len(records))),
                                            rel=1e-12)
    macro = sum(per.values()) / len(per)
    assert report["macro"] == pytest.approx(float(macro), rel=1e-12)
    for c in cats:
        assert report["per_category"][c] == pytest.approx(float(per[c]), rel=1e-12)


def test_vqa_table_rendering():
    table = render_vqa_table(vqa_accuracy(vqa_fixture()))
    head, row = table.splitlines()
    assert "Presence" in head and "Comparison" in head
    assert "Avg. Accuracy" in head
    assert "75.00" in row and "100.00" in row and "80.00" in row

    with_ru = vqa_fixture() + [VQARecord("rural_urban", "yes", "yes")]
    head = render_vqa_table(vqa_accuracy(with_ru)).splitlines()[0]
    assert "Rural/Urban" in head
    assert head.index("Presence") < head.index("Comparison") < \
        head.index("Rural/Urban") < head.index("Avg. Accuracy")


# -- cider-d ----------------------------------------------------------------------

def cider_oracle(entries, n_max=4, sigma=6.0, scale=10.0):
    """Independent dict-based reimplementation used only as a test oracle."""
    toks = [(normalize_answer(e.candidate).split(),
             [normalize_answer(r).split() for r in e.references])
            for e in entries]
    corpus = len(entries)

    def counts(t, n):
        c = {}
        for i in range(len(t) - n + 1):
            g = tuple(t[i:i + n])
            c[g] = c.get(g, 0) + 1
        return c

    df = [{} for _ in range(n_max)]
    for _, refs in toks:
        for n in range(1, n_max + 1):
            seen = set()
            for ref in refs:
                seen.update(counts(ref, n))
            for g in seen:
                df[n - 1][g] = df[n - 1].get(g, 0) + 1

    scores = []
    for cand, refs in toks:
        if not cand or any(not r for r in refs):
            scores.append(0.0)
            continue
        total = 0.0
        for n in range(1, n_max + 1):
            idf = {g: math.log(corpus / max(c, 1)) for g, c in df[n - 1].items()}
            cc = counts(cand, n)
            rcs = [counts(r, n) for r in refs]
            clipped = {g: min(c, max(rc.get(g, 0) for rc in rcs))
                       for g, c in cc.items()}
            for rc, ref in zip(rcs, refs):
                vc = {g: c * idf.get(g, 0.0) for g, c in clipped.items()}
                vr = {g: c * idf.get(g, 0.0) for g, c in rc.items()}
                nc = math.sqrt(sum(v * v for v in vc.values()))
                nr = math.sqrt(sum(v * v for v in vr.values()))
                if nc == 0.0 or nr == 0.0:
                    continue
                dot = sum(min(vc[g], vr[g]) * vr[g] for g in vr if g in vc)
                pen = math.exp(-((len(cand) - len(ref)) ** 2)
                               / (2.0 * sigma * sigma))
                total += (dot / (nc * nr)) * pen
        scores.append(scale * total / (n_max * len(refs)))
    return sum(scores) / corpus, scores


def test_cider_disjoint_vocabulary_scores_zero():
    entries = [CaptionEntry("a b c d", ["e f g h"]),
               CaptionEntry("i j k l", ["m n o p"])]
    report = cider_d(entries)
    assert report["per_image"] == [0.0, 0.0]
    assert report["cider_d"] == 0.0


def test_cider_unique_perfect_match_is_ten():
    entries = [
        CaptionEntry("red tower stands alone tonight",
                     ["red tower stands alone tonight"]),
        CaptionEntry("green fields roll gently westward",
                     ["green fields roll gently westward"]),
    ]
    report = cider_d(entries)
    assert report["per_image"] == [10.0, 10.0]
    assert report["cider_d"] == 10.0


def test_cider_single_image_corpus_is_zero():
    # with one image every idf is ln(1) = 0, so the score collapses
    report = cider_d([CaptionEntry("a tall building", ["a tall building"])])
    assert report["per_image"] == [0.0]
    assert report["cider_d"] == 0.0


def three_image_entries():
    return [
        CaptionEntry("a road runs between the houses",
                     ["a road runs between small houses",
                      "the road passes the houses"]),
        CaptionEntry("the road crosses the road",
                     ["the road crosses the river",
                      "a road crosses the road again"]),
        CaptionEntry("an empty field",
                     ["an empty field with grass", "bare open field"]),
    ]


def test_cider_matches_brute_force_oracle():
    entries = three_image_entries()
    report = cider_d(entries)
    want_corpus, want_scores = cider_oracle(entries)
    assert report["cider_d"] == pytest.approx(want_corpus, abs=1e-6)
    for got, want in zip(report["per_image"], want_scores):
        assert got == pytest.approx(want, abs=1e-6)
    assert report["per_image"][0] > 0.0


def test_cider_is_permutation_invariant():
    entries = three_image_entries()
    base = cider_d(entries)
    perm = cider_d([entries[2], entries[0], entries[1]])
    assert perm["cider_d"] == pytest.approx(base["cider_d"], rel=1e-12)
    assert perm["per_image"][1] == pytest.approx(base["per_image"][0], rel=1e-12)


def test_cider_empty_candidate_warns_and_scores_zero():
    entries = [CaptionEntry("...", ["a house appears"]),
               CaptionEntry("a house appears", ["a house appears"])]
    with pytest.warns(UserWarning, match="empty candidate"):
        report = cider_d(entries)
    assert report["per_image"][0] == 0.0


def test_cider_config_is_explicit():
    assert (metrics.CIDER_N_MAX, metrics.CIDER_SIGMA, metrics.CIDER_SCALE) == (4, 6.0, 10.0)


def test_caption_entry_validation():
    with pytest.raises(ContractError):
        CaptionEntry("a", [])
    with pytest.raises(ContractError):
        cider_d([])


# -- classification ---------------------------------------------------------------

def test_classification_exact_fixture():
    pairs = [("a", "a"), ("a", "b"), ("b", "b")]
    report = classification_report(pairs, ("a", "b", "c"))
    assert report["precision"] == {"a": 0.5, "b": 1.0}
    assert "c" not in report["precision"]        # never predicted
    assert report["overall_accuracy"] == 2 / 3
    assert report["support"] == {"a": 1, "b": 2}


def test_classification_strict_and_lenient():
    pairs = [("mystery", "a"), ("a", "a")]
    with pytest.raises(ContractError, match="predicted label"):
        classification_report(pairs, ("a", "b"))
    report = classification_report(pairs, ("a", "b"), strict=False)
    assert report["precision"] == {"a": 1.0}
    assert report["overall_accuracy"] == 0.5

    with pytest.raises(ContractError, match="gold label"):
        classification_report([("a", "mystery")], ("a", "b"), strict=False)


def test_classification_validation():
    with pytest.raises(ContractError, match="duplicate"):
        classification_report([("a", "a")], ("a", "a"))
    with pytest.raises(ContractError):
        classification_report([], ("a",))


def test_classification_table_rendering():
    report = classification_report([("a", "a"), ("a", "b"), ("b", "b")],
                                   ("a", "b", "c"))
    lines = render_classification_table(report).splitlines()
    assert lines[0].startswith("a") and lines[0].endswith("50.00")
    assert lines[1].endswith("100.00")
    assert lines[2].split() == ["c", "-"]
    assert lines[3].split() == ["OA", "66.67"]


# -- prediction files ----------------------------------------------------------------

def test_prediction_file_roundtrip(tmp_path):
    rows = [{"id": "a", "prediction": "yes", "gold": "yes", "category": "presence"},
            {"id": "b", "prediction": "a road", "references": ["a road"]}]
    path = tmp_path / "pred.jsonl"
    write_predictions(path, rows)
    assert read_predictions(path) == rows


def test_prediction_file_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ContractError, match="'id' and 'prediction'"):
        read_predictions(path)
    path.write_text("{broken\n")
    with pytest.raises(ContractError, match="line 1"):
        read_predictions(path)
    path.write_text("\n\n")
    with pytest.raises(ContractError, match="no prediction rows"):
        read_predictions(path)
