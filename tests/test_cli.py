"""Exit codes, config resolution, and every subcommand through tmp dirs."""

import dataclasses
import json

import pytest

from mtvlm.checkpoint import read_checkpoint
from mtvlm.cli import (RunConfig, load_run_config, main, pipeline_config,
                       resolved_seed, train_config)
from mtvlm.data import load_manifest, mix
from mtvlm.errors import ConfigurationError
from mtvlm.metrics import write_predictions
from mtvlm.pipeline import MultiTemporalModel
from mtvlm.training import lr_at

# small dims keep in-process CLI runs near-instant
TINY = ("d_v=4", "dim=16", "lm_layers=1", "lm_heads=2", "max_seq=160", "seed=0")


def overrides(*extra):
    out = []
    for item in TINY + extra:
        out += ["--override", item]
    return out


def synth(tmp_path, name="data", kinds="single,pair,video", n=3, seed=5):
    out = tmp_path / name
    code = main(["synth-data", "--kind", kinds, "--n", str(n),
                 "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out


# -- config resolution -------------------------------------------------------------

def test_config_precedence(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"dim": 32, "max_lr": 0.5}))
    cfg = load_run_config(str(path), ["dim=24", "use_clues=false"])
    assert cfg.dim == 24           # flag beats file
    assert cfg.max_lr == 0.5       # file beats default
    assert cfg.use_clues is False
    assert cfg.total_steps == RunConfig.total_steps


def test_config_coercions():
    cfg = load_run_config(None, ["freeze=lm.,encoder.", "grad_clip=none",
                                 "use_change_module=1", "seed=null"])
    assert cfg.freeze == ("lm.", "encoder.")
    assert cfg.grad_clip is None
    assert cfg.use_change_module is True
    assert cfg.seed is None


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_run_config(str(tmp_path / "nope.json"), [])
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_run_config(str(bad), [])
    bad.write_text(json.dumps({"banana": 1}))
    with pytest.raises(ConfigurationError, match="banana"):
        load_run_config(str(bad), [])
    with pytest.raises(ConfigurationError, match="K=V"):
        load_run_config(None, ["dim"])
    with pytest.raises(ConfigurationError, match="unknown config field"):
        load_run_config(None, ["banana=1"])
    with pytest.raises(ConfigurationError, match="true/false"):
        load_run_config(None, ["use_clues=perhaps"])
    with pytest.raises(ConfigurationError, match="bad value"):
        load_run_config(None, ["dim=tall"])


@pytest.mark.parametrize("content", [
    5, [1], "dim", None,                                # not an object
    {"freeze": 3}, {"freeze": "lm."}, {"freeze": [1]},
    {"total_steps": "abc"}, {"total_steps": 2.5}, {"dim": True},
    {"use_clues": "no"}, {"use_clues": 0},
    {"max_lr": "fast"}, {"grad_clip": [1.0]}, {"seed": "7"}, {"lm_heads": None},
])
def test_config_file_type_rejections(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ConfigurationError, match="config"):
        load_run_config(str(path), [])
    code = main(["lr-curve", "--config", str(path), "--out", str(tmp_path / "lr.csv")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_config_file_written_by_train_loads(tmp_path):
    path = tmp_path / "config.json"
    cfg = RunConfig(max_lr=1, grad_clip=1.0, freeze=("lm.",))
    path.write_text(json.dumps(dataclasses.asdict(cfg)))   # freeze as a list, seed null
    assert load_run_config(str(path), []) == cfg
    path.write_text(json.dumps(dataclasses.asdict(RunConfig())))
    assert load_run_config(str(path), []) == RunConfig()


def test_seed_resolution(monkeypatch):
    assert resolved_seed(RunConfig(seed=4)) == 4
    monkeypatch.delenv("URSK_SEED", raising=False)
    assert resolved_seed(RunConfig()) == 0
    monkeypatch.setenv("URSK_SEED", "11")
    assert resolved_seed(RunConfig()) == 11
    assert resolved_seed(RunConfig(seed=4)) == 4       # explicit wins
    monkeypatch.setenv("URSK_SEED", "zebra")
    with pytest.raises(ConfigurationError, match="URSK_SEED"):
        resolved_seed(RunConfig())


# -- exit codes ----------------------------------------------------------------------

def test_usage_errors_exit_64(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth-data", "--kind", "single", "--n", "0",
              "--out", str(tmp_path)])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["synth-data", "--kind", "hologram", "--n", "1",
              "--out", str(tmp_path)])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 64


def test_missing_config_exits_2_with_path(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = main(["train", "--config", str(missing),
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_missing_manifest_exits_2(tmp_path, capsys):
    code = main(["train", "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_divergence_exits_3(tmp_path, capsys):
    data = synth(tmp_path, kinds="single", n=2)
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "run"),
                 *overrides("max_lr=nan", "total_steps=3", "batch_size=2")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


# -- synth-data -----------------------------------------------------------------------

def test_synth_data_rerun_is_byte_identical(tmp_path):
    a = synth(tmp_path, "a")
    b = synth(tmp_path, "b")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = synth(tmp_path, "c", seed=6)
    assert (a / "manifest.jsonl").read_bytes() != (c / "manifest.jsonl").read_bytes()


def test_synth_data_seed_env_fallback(tmp_path, monkeypatch):
    explicit = synth(tmp_path, "explicit", kinds="single", n=2, seed=7)
    monkeypatch.setenv("URSK_SEED", "7")
    implicit = tmp_path / "implicit"
    assert main(["synth-data", "--kind", "single", "--n", "2",
                 "--out", str(implicit)]) == 0
    assert (implicit / "manifest.jsonl").read_text() == \
        (explicit / "manifest.jsonl").read_text()


def test_synth_data_split_and_frames(tmp_path):
    out = tmp_path / "vid"
    assert main(["synth-data", "--kind", "video", "--n", "2", "--seed", "1",
                 "--out", str(out), "--split", "test", "--frames", "6"]) == 0
    records = load_manifest(out / "manifest.jsonl")
    assert all(r.split == "test" for r in records)
    assert all(len(r.visual_refs) == 6 for r in records)


# -- training ---------------------------------------------------------------------------

def test_zero_lr_train_leaves_parameters_at_init(tmp_path):
    data = synth(tmp_path, kinds="single,pair", n=2)
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(run),
                 *overrides("max_lr=0", "min_lr=0", "total_steps=4",
                            "batch_size=2")])
    assert code == 0
    trained = read_checkpoint(run / "model.ckpt")

    cfg = load_run_config(str(run / "config.json"), [])
    mixed = mix([load_manifest(data / "manifest.jsonl")], 0)
    fresh = MultiTemporalModel.build(pipeline_config(cfg), mixed.records, data)
    for name, arr in fresh.params.state().items():
        assert trained[name].tobytes() == arr.tobytes()


def test_train_writes_run_directory(tmp_path):
    data = synth(tmp_path, kinds="single", n=2)
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(run),
                 *overrides("total_steps=4", "batch_size=2", "max_lr=1e-3")])
    assert code == 0
    for name in ("model.ckpt", "train_log.jsonl", "vocab.json", "config.json"):
        assert (run / name).is_file()
    log = [json.loads(l) for l in
           (run / "train_log.jsonl").read_text().splitlines()]
    assert [row["step"] for row in log] == [0, 1, 2, 3]


def test_pretrain_then_train_with_init(tmp_path):
    data = synth(tmp_path, kinds="single,pair", n=3)
    stage1 = tmp_path / "stage1"
    code = main(["pretrain-change", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(stage1),
                 *overrides("total_steps=4", "batch_size=2", "max_lr=1e-3")])
    assert code == 0
    warm = read_checkpoint(stage1 / "stage1.ckpt")
    assert all(k.startswith(("change.", "projector.")) for k in warm)

    run = tmp_path / "run"
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(run), "--init", str(stage1 / "stage1.ckpt"),
                 *overrides("total_steps=4", "batch_size=2", "max_lr=1e-3")])
    assert code == 0
    final = read_checkpoint(run / "model.ckpt")
    # the default freeze pins the warm-started arrays through stage 2
    for name, arr in warm.items():
        assert final[name].tobytes() == arr.tobytes()


# -- inference and eval --------------------------------------------------------------

def trained_run(tmp_path, kinds="single", n=3, steps=30):
    data = synth(tmp_path, kinds=kinds, n=n)
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(run),
                 *overrides(f"total_steps={steps}", "batch_size=3",
                            "max_lr=3e-3", "warmup_ratio=0.1")])
    assert code == 0
    return data, run


def test_infer_writes_prediction_rows(tmp_path):
    data, run = trained_run(tmp_path)
    pred = tmp_path / "pred.jsonl"
    code = main(["infer", "--task", "vqa",
                 "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(pred), "--max-new", "4"])
    assert code == 0
    rows = [json.loads(l) for l in pred.read_text().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"id", "prediction", "category", "gold"}


def test_infer_missing_model_files_exit_2(tmp_path, capsys):
    data = synth(tmp_path, kinds="single", n=2)
    code = main(["infer", "--task", "vqa",
                 "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                 "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert "missing model file" in capsys.readouterr().err


def test_infer_rejects_kindless_manifest(tmp_path, capsys):
    data, run = trained_run(tmp_path)
    code = main(["infer", "--task", "video",
                 "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2


def test_eval_vqa_through_files(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    write_predictions(pred, [
        {"id": "a", "category": "presence", "prediction": "yes", "gold": "yes"},
        {"id": "b", "category": "presence", "prediction": "Yes.", "gold": "yes"},
        {"id": "c", "category": "presence", "prediction": "no", "gold": "no"},
        {"id": "d", "category": "presence", "prediction": "no", "gold": "yes"},
        {"id": "e", "category": "comparison", "prediction": "no", "gold": "no"},
    ])
    out = tmp_path / "report"
    assert main(["eval", "--task", "vqa", "--predictions", str(pred),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["per_category"] == {"presence": 0.75, "comparison": 1.0}
    assert report["micro"] == 0.8 and report["macro"] == 0.875
    assert "Avg. Accuracy" in (out / "report.txt").read_text()


def test_eval_cc_through_files(tmp_path):
    pred = tmp_path / "pred.jsonl"
    write_predictions(pred, [
        {"id": "a", "prediction": "red tower stands alone tonight",
         "references": ["red tower stands alone tonight"]},
        {"id": "b", "prediction": "green fields roll gently westward",
         "references": ["green fields roll gently westward"]},
    ])
    out = tmp_path / "report"
    assert main(["eval", "--task", "cc", "--predictions", str(pred),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["cider_d"] == 10.0
    assert (out / "report.txt").read_text().startswith("CIDEr-D: 10.0000")


def test_eval_video_lenient_through_files(tmp_path):
    pred = tmp_path / "pred.jsonl"
    write_predictions(pred, [
        {"id": "a", "prediction": "static", "gold": "static"},
        {"id": "b", "prediction": "gibberish output", "gold": "linear"},
    ])
    out = tmp_path / "report"
    code = main(["eval", "--task", "video", "--predictions", str(pred),
                 "--out", str(out), "--labels", "synthetic-video"])
    assert code == 2        # strict mode rejects the free-form prediction
    assert main(["eval", "--task", "video", "--predictions", str(pred),
                 "--out", str(out), "--labels", "synthetic-video",
                 "--lenient"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == 0.5
    assert report["precision"] == {"static": 1.0}


def test_eval_missing_gold_exits_2(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    write_predictions(pred, [{"id": "a", "prediction": "x"}])
    assert main(["eval", "--task", "vqa", "--predictions", str(pred),
                 "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("row", [
    ["a", "x"],                                                  # not an object
    {"id": 1, "prediction": "x", "gold": "x"},
    {"id": "a", "prediction": ["x"], "gold": "x"},
    {"id": "a", "prediction": "x", "gold": 3},
    {"id": "a", "prediction": "x", "gold": "x", "category": None},
    {"id": "a", "prediction": "a b", "references": "a b"},
    {"id": "a", "prediction": "a b", "references": ["a b", 7]},
])
@pytest.mark.parametrize("task", ["vqa", "cc", "video"])
def test_eval_rejects_mistyped_rows(tmp_path, capsys, row, task):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code = main(["eval", "--task", task, "--predictions", str(pred),
                 "--out", str(tmp_path / "r"), "--labels", "synthetic-video"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err


# -- inspection ------------------------------------------------------------------------

def test_inspect_pack_conservation(tmp_path):
    data = synth(tmp_path, kinds="pair", n=2)
    rec_id = load_manifest(data / "manifest.jsonl")[0].id
    out = tmp_path / "pack.json"
    code = main(["inspect-pack", "--manifest", str(data / "manifest.jsonl"),
                 "--id", rec_id, "--out", str(out), *overrides()])
    assert code == 0
    dump = json.loads(out.read_text())
    assert dump["id"] == rec_id
    assert dump["n"] == dump["text_len"] + dump["markers"] * dump["l_d"]
    assert len(dump["rows"]) == dump["n"]
    sources = [row["source"] for row in dump["rows"]]
    assert sources.count("visual") == dump["markers"] * dump["l_d"]


def test_inspect_pack_unknown_id_exits_2(tmp_path, capsys):
    data = synth(tmp_path, kinds="pair", n=2)
    assert main(["inspect-pack", "--manifest", str(data / "manifest.jsonl"),
                 "--id", "ghost", "--out", str(tmp_path / "x.json"),
                 *overrides()]) == 2


# -- lr-curve -----------------------------------------------------------------------------

def test_lr_curve_endpoints(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["lr-curve", "--out", str(out),
                 "--override", "max_lr=0.2", "--override", "min_lr=0.02",
                 "--override", "total_steps=100",
                 "--override", "warmup_ratio=0.1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,lr"
    assert len(lines) == 102
    cfg = train_config(load_run_config(None, ["max_lr=0.2", "min_lr=0.02",
                                              "total_steps=100",
                                              "warmup_ratio=0.1"]))
    for text in lines[1:]:
        step, lr = text.split(",")
        assert float(lr) == lr_at(int(step), cfg)
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[11].split(",")[1]) == 0.2
    assert abs(float(lines[-1].split(",")[1]) - 0.02) <= 1e-15


def test_lr_curve_zero_steps(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["lr-curve", "--out", str(out),
                 "--override", "max_lr=0.2", "--override", "total_steps=0"])
    assert code == 0
    assert out.read_text().splitlines() == ["step,lr", "0,0.2"]


# -- ablate -------------------------------------------------------------------------------

def test_ablate_plumbing(tmp_path):
    out = tmp_path / "ablation"
    code = main(["ablate", "--out", str(out), "--seeds", "0",
                 "--configs", "joint,no-change", "--per-kind", "2",
                 "--eval-n", "2", "--steps", "2", *overrides()])
    assert code == 0
    report = json.loads((out / "ablation.json").read_text())
    assert report["seeds"] == [0]
    assert set(report["mean"]) == {"joint", "no-change"}
    for scores in report["mean"].values():
        assert set(scores) == {"single", "pair", "video"}
    table = (out / "ablation.txt").read_text().splitlines()
    assert table[0].split() == ["config", "single-acc", "pair-cider", "video-oa"]
    assert len(table) == 3


def test_ablate_rejects_unknown_config(tmp_path, capsys):
    assert main(["ablate", "--out", str(tmp_path / "x"), "--seeds", "0",
                 "--configs", "joint,mystery", *overrides()]) == 2
