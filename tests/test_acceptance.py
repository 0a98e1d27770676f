"""Acceptance battery: ten numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the verdict
lines stream). The two training criteria (08, 09) dominate the runtime;
the whole battery stays well inside the stated single-core budgets.
"""

import contextlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gradcheck import gradcheck, scalarizer
from packing_oracle import packing_law_violations
from mtvlm.autograd import ParameterSet, Tensor, conv2d
from mtvlm.change import (DualTimeFeatures, FusionParams,
                          SpatialEnhanceParams, change_extract,
                          spatial_enhance)
from mtvlm.cli import main
from mtvlm.data import (SplitSpec, group_by_split, save_manifest,
                        synth_generate, validate_splits)
from mtvlm.errors import ContractError
from mtvlm.lm import LMConfig, TinyCausalLM
from mtvlm.metrics import (CaptionEntry, VQARecord, cider_d,
                           classification_report, normalize_answer,
                           vqa_accuracy)
from mtvlm.packing import Marker, TokenizedPrompt, pack, supervision_mask
from mtvlm.prompting import (CLUE_PROMPTS, ERA_INSTRUCTION,
                             LEVIRCC_INSTRUCTION, TASK_TAGS, build_prompt)
from mtvlm.training import TrainConfig, lr_at
from mtvlm.vision import Projector

from test_data import era_shaped, levircc_shaped
from test_metrics import cider_oracle, three_image_entries


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Expose the capture fixture so verdicts can bypass fd capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


@contextlib.contextmanager
def criterion(number: int, name: str):
    """Print one ACCEPTANCE line per criterion, visible despite capture."""
    def emit(verdict: str) -> None:
        ctx = (contextlib.nullcontext() if _CAPTURE is None
               else _CAPTURE.disabled())
        with ctx:
            print(f"\nACCEPTANCE {number:02d} {name}: {verdict}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


# -- 1: finite-difference gradient suite -----------------------------------------

def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite vs central differences"):
        start = time.monotonic()
        instances = 0
        r = np.random.default_rng(1001)

        for trial in range(8):                      # change extraction
            d_v = int(r.integers(1, 5))
            h, w = int(r.integers(1, 5)), int(r.integers(1, 5))
            ps = ParameterSet()
            sp = SpatialEnhanceParams(ps, d_v)
            fp = FusionParams(ps, d_v, np.random.default_rng(trial))
            sp.w_embed.data = r.normal(size=2 * d_v) * 0.1
            f1 = Tensor(r.normal(size=(h * w, d_v)) + 1.0)
            f2 = Tensor(r.normal(size=(h * w, d_v)) - 1.0)
            leaves = [f1, f2] + [p for p in ps.values()]
            reduce = scalarizer((d_v, h, w), r)

            def loss():
                d = DualTimeFeatures(f1, f2, (h, w))
                return reduce(change_extract(d, sp, fp).values)

            gradcheck(loss, leaves)
            instances += 1

        for trial in range(6):                      # projector
            d_v = int(r.integers(1, 5))
            dim = int(r.integers(2, 9))
            l_d = int(r.integers(1, 5))
            ps = ParameterSet()
            proj = Projector(d_v, dim, ps, np.random.default_rng(50 + trial))
            x = Tensor(r.normal(size=(l_d, 4 * d_v)))
            leaves = [x] + [p for p in ps.values()]
            reduce = scalarizer((l_d, dim), r)
            gradcheck(lambda: reduce(proj.project([x]).values), leaves)
            instances += 1

        for trial in range(6):                      # 2-layer LM stub
            dim = 4 if trial % 2 else 8
            n = int(r.integers(2, 5))
            ps = ParameterSet()
            model = TinyCausalLM(LMConfig(dim=dim, layers=2, heads=2, max_seq=8),
                                 6, ps, np.random.default_rng(90 + trial))
            rows = Tensor(r.normal(size=(n, dim)))
            names = ["lm.pos.weight", "lm.block0.attn.wq.weight",
                     "lm.block0.mlp.fc1.weight", "lm.block1.attn.wv.weight",
                     "lm.block1.mlp.fc2.weight", "lm.ln_f.gain",
                     "lm.head.weight", "lm.block0.ln1.gain",
                     "lm.block1.attn.wo.weight"]
            picked = [names[(trial + i) % len(names)] for i in range(3)]
            leaves = [rows] + [ps[p] for p in picked]
            reduce = scalarizer((n, 6), r)
            gradcheck(lambda: reduce(model.forward(rows)), leaves)
            instances += 1

        elapsed = time.monotonic() - start
        assert instances >= 20
        assert elapsed < 120.0


# -- 2: identity-collapse invariants ------------------------------------------------

def test_criterion_02_identity_collapse():
    with criterion(2, "identity collapse is bit-exact"):
        r = np.random.default_rng(1002)
        for trial in range(50):         # f1 = f2 kills the distance term
            d_v = int(r.integers(1, 6))
            h, w = int(r.integers(1, 5)), int(r.integers(1, 5))
            f = r.normal(size=(h * w, d_v))
            ps = ParameterSet()
            sp = SpatialEnhanceParams(ps, d_v)
            sp.w_embed.data = r.normal(size=2 * d_v)    # nonzero on purpose
            d = DualTimeFeatures(Tensor(f), Tensor(f.copy()), (h, w))
            got = spatial_enhance(d, sp)
            want = np.concatenate([f, f], axis=1).T.reshape(2 * d_v, h, w)
            assert got.data.tobytes() == want.tobytes()

        for trial in range(50):         # zeroed module is the halving conv
            d_v = int(r.integers(1, 6))
            h, w = int(r.integers(1, 5)), int(r.integers(1, 5))
            f1 = r.normal(size=(h * w, d_v))
            f2 = r.normal(size=(h * w, d_v))
            ps = ParameterSet()
            sp = SpatialEnhanceParams(ps, d_v)          # w_embed starts zero
            fp = FusionParams(ps, d_v, np.random.default_rng(trial))
            fp.conv1_w.data = np.zeros_like(fp.conv1_w.data)
            fp.conv2_w.data = np.zeros_like(fp.conv2_w.data)
            fp.conv3_w.data = np.zeros_like(fp.conv3_w.data)
            d = DualTimeFeatures(Tensor(f1), Tensor(f2), (h, w))
            got = change_extract(d, sp, fp)
            stacked = Tensor(np.concatenate([f1, f2], axis=1).T.reshape(2 * d_v, h, w))
            want = conv2d(stacked, fp.conv_half_w, fp.conv_half_b)
            assert got.values.data.tobytes() == want.data.tobytes()


# -- 3: packing conservation over 1000 prompts ----------------------------------------

def test_criterion_03_packing_conservation():
    with criterion(3, "packing conservation on 1000 random prompts"):
        r = np.random.default_rng(1003)
        for _ in range(1000):
            length = int(r.integers(1, 19))
            kinds = r.choice(list("ttticf"), size=length)
            l_d = int(r.integers(1, 6))
            dim = int(r.integers(1, 5))
            tokens, slots = [], []
            frame = 1
            for pos, p in enumerate(kinds):
                tokens.append(int(r.integers(0, 99)))
                if p == "i":
                    slots.append((pos, Marker("image")))
                elif p == "c":
                    slots.append((pos, Marker("change_feature")))
                elif p == "f":
                    slots.append((pos, Marker("frame", frame)))
                    frame += 1
            prompt = TokenizedPrompt(tokens=tokens, marker_slots=slots,
                                     text_len=length - len(slots))
            text = Tensor(np.arange(100.0, 100.0 + prompt.text_len)
                          .reshape(-1, 1).repeat(dim, axis=1)
                          if prompt.text_len else np.zeros((0, dim)))
            units = [Tensor(np.full((l_d, dim), float(i)))
                     for i in range(len(slots))]
            ps = pack(prompt, text, units)

            assert ps.n == prompt.text_len + len(slots) * l_d
            assert packing_law_violations(ps, prompt, l_d) == []

            marker_at = {pos: i for i, (pos, _) in enumerate(slots)}
            expected, text_row = [], 0
            for pos in range(length):
                if pos in marker_at:
                    expected.extend([float(marker_at[pos])] * l_d)
                else:
                    expected.append(100.0 + text_row)
                    text_row += 1
            assert ps.embeddings.data[:, 0].tolist() == expected

            text_positions = [p for p in range(length) if p not in marker_at]
            if text_positions:
                span = (text_positions[-1], text_positions[-1] + 1)
                mask = supervision_mask(prompt, span, l_d)
                assert mask.sum() == 1
                for row, (src, _) in enumerate(ps.segment_map):
                    if src == "visual":
                        assert not mask[row]


# -- 4: prompt fidelity -------------------------------------------------------------

def test_criterion_04_prompt_fidelity():
    with criterion(4, "prompt strings byte-exact, clue adds only a suffix"):
        assert TASK_TAGS == {
            "single": "Single image understanding:",
            "pair": "Remote sensing change captioning:",
            "video": "Video scene classification:",
        }
        assert CLUE_PROMPTS == {
            "single": "Describe this remote sensing image in detail.",
            "pair": ("Please identify whether there are obvious remote "
                     "sensing image changes."),
            "video": "Please classify the scene in this video captured by the UAV.",
        }
        assert LEVIRCC_INSTRUCTION == CLUE_PROMPTS["pair"]
        assert ERA_INSTRUCTION.startswith(
            "Classify the given video in one of the following classes. Classes: "
            "post-earthquake, flood, fire,")
        assert ERA_INSTRUCTION.endswith("religious activity, non-event.")

        assert build_prompt("pair", 2, LEVIRCC_INSTRUCTION) == (
            "⟨Change Feature⟩\nRemote sensing change captioning: Please "
            "identify whether there are obvious remote sensing image changes.")
        assert build_prompt("single", 1, "Count the ships.") == (
            "⟨image⟩\nSingle image understanding: Count the ships.")
        assert build_prompt("video", 3, ERA_INSTRUCTION) == (
            f"⟨Frame 1⟩⟨Frame 2⟩⟨Frame 3⟩\nVideo scene classification: "
            f"{ERA_INSTRUCTION}")

        cases = [("single", 1, "Count the ships."),
                 ("pair", 2, LEVIRCC_INSTRUCTION),
                 ("video", 4, ERA_INSTRUCTION)]
        for kind, k, instruction in cases:
            plain = build_prompt(kind, k, instruction)
            clued = build_prompt(kind, k, instruction, clue="water levels rose")
            assert clued == plain + " Clue: water levels rose"


# -- 5: cider-d oracle fixtures -------------------------------------------------------

def test_criterion_05_cider_fixtures():
    with criterion(5, "CIDEr-D hand fixtures"):
        disjoint = cider_d([CaptionEntry("a b c d", ["e f g h"]),
                            CaptionEntry("i j k l", ["m n o p"])])
        assert disjoint["cider_d"] == 0.0

        unique = cider_d([
            CaptionEntry("red tower stands alone tonight",
                         ["red tower stands alone tonight"]),
            CaptionEntry("green fields roll gently westward",
                         ["green fields roll gently westward"])])
        assert unique["per_image"] == [10.0, 10.0]
        assert unique["cider_d"] == 10.0

        degenerate = cider_d([CaptionEntry("a tall building",
                                           ["a tall building"])])
        assert degenerate["cider_d"] == 0.0

        entries = three_image_entries()
        got = cider_d(entries)
        want_corpus, want_scores = cider_oracle(entries)
        assert got["cider_d"] == pytest.approx(want_corpus, abs=1e-6)
        for a, b in zip(got["per_image"], want_scores):
            assert a == pytest.approx(b, abs=1e-6)


# -- 6: metric arithmetic vs brute force ----------------------------------------------

def test_criterion_06_metric_brute_force():
    with criterion(6, "metrics match brute force on 500+ record sets"):
        fixture = vqa_accuracy([VQARecord("presence", "yes", "yes"),
                                VQARecord("presence", "Yes.", "yes"),
                                VQARecord("presence", "no", "no"),
                                VQARecord("presence", "no", "yes"),
                                VQARecord("comparison", "no", "no")])
        assert fixture["per_category"] == {"presence": 0.75, "comparison": 1.0}
        assert fixture["micro"] == 0.8 and fixture["macro"] == 0.875

        r = np.random.default_rng(1006)
        cats = ("presence", "comparison", "rural_urban")
        answers = ("yes", "no", "Yes.", "maybe")
        for _ in range(500):
            n = int(r.integers(1, 25))
            records = [VQARecord(cats[r.integers(0, 3)],
                                 answers[r.integers(0, 4)],
                                 answers[r.integers(0, 2)])
                       for _ in range(n)]
            report = vqa_accuracy(records)
            seen = {rec.category for rec in records}
            per, hits = {}, 0
            for c in seen:
                sub = [x for x in records if x.category == c]
                ok = sum(1 for x in sub if normalize_answer(x.prediction)
                         == normalize_answer(x.gold))
                per[c] = Fraction(ok, len(sub))
                hits += ok
            assert report["micro"] == pytest.approx(hits / n, rel=1e-12)
            assert report["macro"] == pytest.approx(
                float(sum(per.values()) / len(per)), rel=1e-12)
            for c, frac in per.items():
                assert report["per_category"][c] == pytest.approx(
                    float(frac), rel=1e-12)

        labels = ("a", "b", "c", "d")
        for _ in range(500):
            n = int(r.integers(1, 25))
            pairs = [(("a", "b", "c", "d", "junk")[r.integers(0, 5)],
                      labels[r.integers(0, 4)]) for _ in range(n)]
            report = classification_report(pairs, labels, strict=False)
            tp, fp = {}, {}
            correct = 0
            for pred, gold in pairs:
                if pred not in labels:
                    continue
                if pred == gold:
                    tp[pred] = tp.get(pred, 0) + 1
                    correct += 1
                else:
                    fp[pred] = fp.get(pred, 0) + 1
            assert report["overall_accuracy"] == pytest.approx(correct / n,
                                                               rel=1e-12)
            for c in labels:
                denom = tp.get(c, 0) + fp.get(c, 0)
                if denom == 0:
                    assert c not in report["precision"]
                else:
                    assert report["precision"][c] == pytest.approx(
                        tp.get(c, 0) / denom, rel=1e-12)


# -- 7: schedule exactness --------------------------------------------------------------

def test_criterion_07_schedule():
    with criterion(7, "schedule endpoints, midpoint, monotonicity"):
        configs = [TrainConfig(max_lr=1.0, min_lr=0.0, warmup_ratio=0.1,
                               total_steps=1000),
                   TrainConfig(max_lr=3e-3, min_lr=1e-5, warmup_ratio=0.05,
                               total_steps=240),
                   TrainConfig(max_lr=0.2, min_lr=0.02, warmup_ratio=0.0,
                               total_steps=100),
                   TrainConfig(max_lr=5e-4, min_lr=0.0, warmup_ratio=0.25,
                               total_steps=64),
                   TrainConfig(max_lr=1e-4, min_lr=0.0, warmup_ratio=0.03,
                               total_steps=3858)]
        for cfg in configs:
            w = cfg.warmup_steps
            assert abs(lr_at(w, cfg) - cfg.max_lr) <= 1e-15
            assert abs(lr_at(cfg.total_steps, cfg) - cfg.min_lr) <= 1e-15
            span = cfg.total_steps - w
            if span % 2 == 0:
                mid = (cfg.max_lr + cfg.min_lr) / 2
                assert abs(lr_at(w + span // 2, cfg) - mid) <= 1e-15
            values = [lr_at(s, cfg) for s in range(w, cfg.total_steps + 1)]
            assert all(b <= a for a, b in zip(values, values[1:]))
            for k in range(w):
                assert lr_at(k, cfg) == cfg.max_lr * k / w
            with pytest.raises(ContractError):
                lr_at(cfg.total_steps + 1, cfg)


# -- 8: end-to-end overfit through the CLI ------------------------------------------------

OVERFIT = ("total_steps=300", "batch_size=8", "max_lr=3e-3",
           "warmup_ratio=0.03", "seed=0")


def test_criterion_08_overfit(tmp_path):
    with criterion(8, "32-sample overfit, 300 steps, seed 0"):
        start = time.monotonic()
        data = tmp_path / "data"
        records = (synth_generate("single", 12, 11, data)
                   + synth_generate("pair", 10, 12, data)
                   + synth_generate("video", 10, 13, data))
        assert len(records) == 32
        save_manifest(data / "manifest.jsonl", records)

        run = tmp_path / "run"
        argv = ["train", "--manifest", str(data / "manifest.jsonl"),
                "--out", str(run)]
        for item in OVERFIT:
            argv += ["--override", item]
        assert main(argv) == 0

        log = [json.loads(line) for line in
               (run / "train_log.jsonl").read_text().splitlines()]
        assert len(log) == 300
        assert log[-1]["loss"] <= 0.1 * log[0]["loss"]

        targets = {r.id: r.target for r in records}
        matched = total = 0
        for task in ("vqa", "cc", "video"):
            pred = tmp_path / f"pred_{task}.jsonl"
            assert main(["infer", "--task", task,
                         "--checkpoint", str(run / "model.ckpt"),
                         "--manifest", str(data / "manifest.jsonl"),
                         "--out", str(pred)]) == 0
            for line in pred.read_text().splitlines():
                row = json.loads(line)
                total += 1
                matched += row["prediction"] == targets[row["id"]]
        elapsed = time.monotonic() - start
        assert total == 32
        assert matched >= math.ceil(0.9 * total)
        assert elapsed < 600.0


# -- 9: ablation battery -----------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_ablation(tmp_path):
    with criterion(9, "ablation battery, change module helps pairs"):
        out = tmp_path / "ablation"
        assert main(["ablate", "--out", str(out), "--seeds", "0,1,2",
                     "--steps", "400", "--per-kind", "24",
                     "--eval-n", "16"]) == 0
        report = json.loads((out / "ablation.json").read_text())
        assert set(report["mean"]) == {"joint", "individual", "no-change",
                                       "no-clue"}
        assert report["seeds"] == [0, 1, 2]
        for scores in report["mean"].values():
            assert set(scores) == {"single", "pair", "video"}
        # directional check: keeping the change module must not hurt the
        # change-caption split, averaged over the three seeds
        assert report["mean"]["joint"]["pair"] >= report["mean"]["no-change"]["pair"]

        table = (out / "ablation.txt").read_text().splitlines()
        assert table[0].split() == ["config", "single-acc", "pair-cider",
                                    "video-oa"]
        assert len(table) == 5


# -- 10: manifest split accounting ----------------------------------------------------------

def test_criterion_10_split_accounting(tmp_path):
    with criterion(10, "published split counts and synthetic declarations"):
        from mtvlm.data import ERA_SPLITS, LEVIRCC_SPLITS

        report = validate_splits(levircc_shaped(), LEVIRCC_SPLITS)
        assert report["total"] == 10_077
        assert report["counts"]["test"] == 1_929
        assert report["changed"]["test"] == [964, 965]

        report = validate_splits(era_shaped(), ERA_SPLITS)
        assert report["total"] == 2_864
        assert report["counts"]["test"] == 1_391
        assert len(ERA_SPLITS.label_set) == 25

        records = (synth_generate("single", 5, 1, tmp_path)
                   + synth_generate("pair", 7, 2, tmp_path)
                   + synth_generate("video", 4, 3, tmp_path, split="test"))
        by_split = group_by_split(records)
        validate_splits(by_split, SplitSpec(
            total=16, counts={"train": 12, "test": 4}))

        pairs = [r for r in records if r.kind == "pair"]
        changed = sum(1 for r in pairs if r.changed)
        validate_splits({"train": pairs}, SplitSpec(
            total=7, changed_counts={"train": (changed, 7 - changed)}))
