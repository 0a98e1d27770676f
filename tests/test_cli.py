"""Exit codes, config resolution, and every subcommand through tmp dirs."""

import dataclasses
import json
import typing

import numpy as np
import pytest

from mtvlm import cli, fileio
from mtvlm.checkpoint import read_checkpoint, write_checkpoint
from mtvlm.cli import (RunConfig, load_run_config, main, pipeline_config,
                       resolved_seed, train_config)
from mtvlm.data import load_manifest, mix, save_manifest
from mtvlm.errors import ConfigurationError
from mtvlm.metrics import write_predictions
from mtvlm.pipeline import MultiTemporalModel, PipelineConfig
from mtvlm.training import JOINT_FREEZE, TrainConfig, lr_at
from mtvlm.vision import write_pixels
from test_fileio import HalfWrite

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


# A non-default value per RunConfig field, valid for TrainConfig/PipelineConfig
FIELD_VALUES = {
    "max_lr": 0.5, "min_lr": 1e-05, "warmup_ratio": 0.1, "total_steps": 100,
    "batch_size": 8, "weight_decay": 0.1, "beta1": 0.8, "beta2": 0.99,
    "eps": 1e-06, "grad_clip": 2.5, "freeze": ("lm.", "encoder."), "patch": 4,
    "d_v": 8, "dim": 32, "lm_layers": 3, "lm_heads": 2, "max_seq": 256,
    "video_frames": 6, "use_change_module": False, "use_clues": False,
    "gen_max_new": 12, "seed": 7,
}


def test_run_config_fields_are_derived():
    run = {f.name: f for f in dataclasses.fields(RunConfig)}
    hints = typing.get_type_hints(RunConfig)
    assert sorted(run) == sorted(FIELD_VALUES)
    for cls in (TrainConfig, PipelineConfig):
        cls_hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name not in ("freeze", "seed"):
                assert hints[f.name] == cls_hints[f.name], f.name
                assert run[f.name].default == f.default, f.name
    assert hints["freeze"] == typing.get_type_hints(TrainConfig)["freeze"]
    assert RunConfig.freeze == JOINT_FREEZE
    assert hints["seed"] == int | None and RunConfig.seed is None
    supported = (bool, int, float, tuple[str, ...])
    for name, hint in hints.items():       # the kinds _coerce/_from_json read
        args = typing.get_args(hint)
        assert (args[0] if type(None) in args else hint) in supported, name


def test_run_config_splits_into_train_and_pipeline_configs(monkeypatch):
    monkeypatch.delenv("URSK_SEED", raising=False)
    assert train_config(RunConfig()) == TrainConfig(freeze=JOINT_FREEZE)
    assert pipeline_config(RunConfig()) == PipelineConfig()
    cfg = RunConfig(**FIELD_VALUES)
    for target in (train_config(cfg), pipeline_config(cfg)):
        for f in dataclasses.fields(target):
            assert getattr(target, f.name) == FIELD_VALUES[f.name], f.name
    monkeypatch.setenv("URSK_SEED", "11")
    assert train_config(RunConfig()).seed == pipeline_config(RunConfig()).seed == 11


def _override_text(value):
    if isinstance(value, bool):
        return str(value).lower()
    return ",".join(value) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("name", sorted(FIELD_VALUES))
def test_every_field_round_trips(tmp_path, name):
    value = FIELD_VALUES[name]
    want = dataclasses.replace(RunConfig(), **{name: value})
    assert load_run_config(None, [f"{name}={_override_text(value)}"]) == want
    path = tmp_path / "run.json"
    path.write_text(json.dumps({name: value}))
    assert load_run_config(str(path), []) == want
    target = train_config(want) if name in TrainConfig.__dataclass_fields__ \
        else pipeline_config(want)
    assert getattr(target, name) == value


# config.json as the hand-written RunConfig of earlier versions wrote it
PARENT_KEY_ORDER = (
    "max_lr", "min_lr", "warmup_ratio", "total_steps", "batch_size",
    "weight_decay", "beta1", "beta2", "eps", "grad_clip", "freeze", "patch",
    "d_v", "dim", "lm_layers", "lm_heads", "max_seq", "video_frames",
    "use_change_module", "use_clues", "gen_max_new", "seed",
)


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(**FIELD_VALUES)])
def test_config_file_in_parent_key_order_loads(tmp_path, cfg):
    values = dataclasses.asdict(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: values[k] for k in PARENT_KEY_ORDER}, indent=2))
    assert load_run_config(str(path), []) == cfg


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


@pytest.mark.parametrize("line", ["5", "null", "[[1]]"])
def test_manifest_line_that_is_not_an_object_exits_2(tmp_path, capsys, line):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(line + "\n")
    code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1: expected a JSON object" in err
    assert "Traceback" not in err


def test_non_utf8_manifest_exits_2_naming_the_file(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(b"\xff{}\n")
    code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "Traceback" not in err


def test_divergence_exits_3(tmp_path, capsys):
    data = synth(tmp_path, kinds="single", n=2)
    code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "run"),
                 *overrides("max_lr=nan", "total_steps=3", "batch_size=2")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_pretrain_divergence_exits_3_and_writes_nothing(tmp_path, capsys):
    data = synth(tmp_path, kinds="pair", n=2)
    out = tmp_path / "stage1"
    code = main(["pretrain-change", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(out),
                 *overrides("max_lr=nan", "warmup_ratio=0", "total_steps=3",
                            "batch_size=2")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "stage1.ckpt").exists()
    assert not (out / "pretrain_log.jsonl").exists()


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


def test_infer_rejects_bad_vocab_file(tmp_path, capsys):
    data, run = trained_run(tmp_path, steps=2)
    for content in ("5", '["<pad>", "<bos>", "<eos>", 7]', '{"a": 1}', "[oops"):
        (run / "vocab.json").write_text(content, encoding="utf-8")
        code = main(["infer", "--task", "vqa",
                     "--checkpoint", str(run / "model.ckpt"),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert code == 2, content
        assert "vocab.json" in err and "Traceback" not in err
        assert not (tmp_path / "p.jsonl").exists()


def test_infer_on_frames_of_different_sizes_exits_2_naming_the_file(tmp_path, capsys):
    data, run = trained_run(tmp_path, kinds="pair", steps=2)
    record = load_manifest(data / "manifest.jsonl")[0]
    odd = data / record.visual_refs[1]
    write_pixels(odd, np.zeros((1, 3, 16, 16)))
    code = main(["infer", "--task", "cc",
                 "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert odd.name in err and "Traceback" not in err


def test_infer_on_a_record_longer_than_max_seq_exits_2(tmp_path, capsys):
    data = synth(tmp_path, kinds="single,video", n=2)
    singles = [r for r in load_manifest(data / "manifest.jsonl") if r.kind == "single"]
    save_manifest(data / "single.jsonl", singles)
    run = tmp_path / "run"
    # single records fit in 40 rows; a 4-frame video prompt does not
    assert main(["train", "--manifest", str(data / "single.jsonl"), "--out", str(run),
                 *overrides("max_seq=40", "total_steps=2", "batch_size=2")]) == 0
    pred = tmp_path / "p.jsonl"
    code = main(["infer", "--task", "video",
                 "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.jsonl"), "--out", str(pred)])
    err = capsys.readouterr().err
    assert code == 2
    assert "exceeds max_seq=40" in err and "Traceback" not in err
    assert not pred.exists()


def test_infer_on_a_checkpoint_holding_nan_exits_2(tmp_path, capsys):
    data, run = trained_run(tmp_path, steps=2)
    state = read_checkpoint(run / "model.ckpt")
    state["lm.ln_f.gain"][:] = np.nan
    bad = run / "nan.ckpt"                  # beside the run's config and vocab
    write_checkpoint(bad, state)
    pred = tmp_path / "p.jsonl"
    code = main(["infer", "--task", "vqa", "--checkpoint", str(bad),
                 "--manifest", str(data / "manifest.jsonl"), "--out", str(pred)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'lm.ln_f.gain' holds NaN or inf" in err and "Traceback" not in err
    assert not pred.exists()


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


def test_inspect_pack_marks_the_answer_rows(tmp_path):
    data = synth(tmp_path, kinds="pair", n=2, seed=7)
    records = load_manifest(data / "manifest.jsonl")
    out = tmp_path / "pack.json"
    assert main(["inspect-pack", "--manifest", str(data / "manifest.jsonl"),
                 "--id", records[0].id, "--out", str(out), *overrides()]) == 0
    rows = json.loads(out.read_text())["rows"]
    vocab = MultiTemporalModel.build(pipeline_config(load_run_config(None, list(TINY))),
                                     records).vocab
    answer = vocab.encode(records[0].target) + [vocab.eos_id]
    loss_rows = [row for row in rows if row["loss"]]
    assert [row["source"] for row in loss_rows] == ["text"] * len(answer)
    assert [row["token"] for row in loss_rows] == answer
    assert loss_rows == rows[-len(answer):]


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


def test_lr_curve_rejects_negative_grad_clip(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["lr-curve", "--out", str(out), "--override", "grad_clip=-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "grad_clip" in err and "Traceback" not in err
    assert not out.exists()


def test_lr_curve_failed_write_leaves_previous_csv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curve.csv"
    assert main(["lr-curve", "--out", str(out), "--override", "total_steps=10"]) == 0
    before = out.read_bytes()
    monkeypatch.setattr(fileio, "open", lambda *a, **k: HalfWrite(open(*a, **k)),
                        raising=False)
    assert main(["lr-curve", "--out", str(out), "--override", "total_steps=20"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


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


class _StageOneSeen(Exception):
    pass


def ablate_stage1_config(tmp_path, monkeypatch, *args):
    """The TrainConfig that ``ablate`` hands to stage 1 (the run stops there)."""
    seen = []

    def capture(records, cfg, *a, **kw):
        seen.append(cfg)
        raise _StageOneSeen

    monkeypatch.setattr(cli, "pretrain_change_module", capture)
    with pytest.raises(_StageOneSeen):
        main(["ablate", "--out", str(tmp_path / "ablation"), "--seeds", "0",
              "--per-kind", "2", "--eval-n", "2", "--steps", "7", *args])
    return seen[0]


def test_ablate_trains_with_the_battery_recipe_by_default(tmp_path, monkeypatch):
    # criterion 09 sets none of the recipe's fields
    assert ablate_stage1_config(tmp_path, monkeypatch) == TrainConfig(
        max_lr=3e-3, warmup_ratio=0.05, total_steps=7, batch_size=4, seed=0,
        freeze=JOINT_FREEZE)


def test_ablate_keeps_explicit_recipe_values(tmp_path, monkeypatch):
    got = ablate_stage1_config(tmp_path, monkeypatch, "--override", "max_lr=1e-4",
                               "--override", "batch_size=2",
                               "--override", "warmup_ratio=0.1")
    assert (got.max_lr, got.batch_size, got.warmup_ratio) == (1e-4, 2, 0.1)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_lr": 1e-4, "batch_size": 3, "warmup_ratio": 0.2}))
    got = ablate_stage1_config(tmp_path, monkeypatch, "--config", str(path),
                               "--override", "batch_size=5")
    assert (got.max_lr, got.batch_size, got.warmup_ratio) == (1e-4, 5, 0.2)
    assert got.total_steps == 7


def test_ablate_rejects_unknown_config(tmp_path, capsys):
    assert main(["ablate", "--out", str(tmp_path / "x"), "--seeds", "0",
                 "--configs", "joint,mystery", *overrides()]) == 2


@pytest.mark.parametrize("seeds", ["", ","])
def test_ablate_rejects_an_empty_seed_list_as_usage(tmp_path, capsys, seeds):
    out = tmp_path / "ablation"
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--out", str(out), "--seeds", seeds, *overrides()])
    assert err.value.code == 64
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "ablation.json").exists()


@pytest.mark.parametrize("configs", ["", ","])
def test_ablate_rejects_an_empty_config_list(tmp_path, capsys, configs):
    out = tmp_path / "ablation"
    assert main(["ablate", "--out", str(out), "--seeds", "0",
                 "--configs", configs, *overrides()]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "ablation.json").exists()


@pytest.mark.parametrize("seeds", ["0,0", "1,0,1", "0,00"])
def test_ablate_rejects_a_repeated_seed_as_usage(tmp_path, capsys, seeds):
    # a repeated seed would train and average the same cells twice
    out = tmp_path / "ablation"
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--out", str(out), "--seeds", seeds, *overrides()])
    assert err.value.code == 64
    stderr = capsys.readouterr().err
    assert "repeats a seed" in stderr and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("configs", ["joint,joint", "joint,no-clue,joint"])
def test_ablate_rejects_a_repeated_config_name(tmp_path, monkeypatch, capsys, configs):
    monkeypatch.setattr(cli, "pretrain_change_module", None)  # never reached
    out = tmp_path / "ablation"
    assert main(["ablate", "--out", str(out), "--seeds", "0",
                 "--configs", configs, *overrides()]) == 2
    stderr = capsys.readouterr().err
    assert "repeat" in stderr and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("extra", [(), ("use_change_module=false",)],
                         ids=["default", "no-change-module-override"])
def test_ablate_cells_that_start_from_stage_one(tmp_path, monkeypatch, extra):
    # Stage 1 warms change module and projector: joint and no-clue start from
    # it, individual only for its pair model, no-change never; a config
    # override of the change module does not move any of these.
    real_pretrain = cli.pretrain_change_module
    stage1 = {}

    def pretrain(*args, **kwargs):
        state, log = real_pretrain(*args, **kwargs)
        # shifted, so a cold model can never match it by chance
        stage1.update((n, a + 0.5) for n, a in state.items())
        return dict(stage1), log

    cells = []

    def train_joint(model, mixed, cfg, **kwargs):
        state = model.params.state()
        shared = [n for n in stage1 if n in state]
        warm = bool(shared) and all(np.array_equal(state[n], stage1[n]) for n in shared)
        cells.append((tuple(sorted({r.kind for r in mixed.records})), warm))
        return []

    monkeypatch.setattr(cli, "pretrain_change_module", pretrain)
    monkeypatch.setattr(cli, "train_joint", train_joint)
    assert main(["ablate", "--out", str(tmp_path / "ablation"), "--seeds", "0",
                 "--per-kind", "2", "--eval-n", "1", "--steps", "2",
                 *overrides("gen_max_new=4", *extra)]) == 0
    every = ("pair", "single", "video")
    assert cells == [(every, True),                           # joint
                     (("single",), False), (("pair",), True),  # individual
                     (("video",), False),
                     (every, False),                          # no-change
                     (every, True)]                           # no-clue


@pytest.mark.parametrize("freeze", ["", "change.,projector.", "encoder."])
def test_pretrain_rejects_a_freeze_it_would_ignore(tmp_path, capsys, freeze):
    data = synth(tmp_path, kinds="pair", n=2)
    out = tmp_path / "stage1"
    code = main(["pretrain-change", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(out),
                 *overrides("total_steps=2", "batch_size=2", f"freeze={freeze}")])
    assert code == 2
    err = capsys.readouterr().err
    assert "freeze" in err and "Traceback" not in err
    assert not out.exists()


def test_pretrain_accepts_a_config_file_with_the_default_freeze(tmp_path):
    data = synth(tmp_path, kinds="pair", n=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"freeze": list(JOINT_FREEZE), "total_steps": 2,
                                  "batch_size": 2}))
    code = main(["pretrain-change", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(tmp_path / "stage1"), "--config", str(config),
                 *overrides()])
    assert code == 0
    assert (tmp_path / "stage1" / "stage1.ckpt").exists()
