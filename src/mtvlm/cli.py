"""Single-binary command line: data synthesis, training, eval, inspection.

Exit codes: 0 success, 2 I/O or configuration problem, 3 numeric abort
(divergence), 64 usage. Config values resolve as flags > config file >
defaults, with the URSK_SEED environment variable as a last-resort seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from .checkpoint import read_checkpoint, write_checkpoint
from .data import (ERA_LABELS, SYNTH_VIDEO_CLASSES, load_manifest, mix,
                   save_manifest, synth_generate)
from .errors import ConfigurationError, DivergenceError
from .fileio import read_text, write_atomic
from .lm import Vocab
from .metrics import (CaptionEntry, VQARecord, cider_d, classification_report,
                      read_predictions, render_classification_table,
                      render_vqa_table, vqa_accuracy, write_predictions)
from .packing import debug_dump
from .pipeline import MultiTemporalModel, PipelineConfig
from .training import (JOINT_FREEZE, TrainConfig, lr_at,
                       pretrain_change_module, train_joint, write_log)

# RunConfig is the union of the TrainConfig and PipelineConfig fields, hints
# and defaults. The CLI sets two defaults of its own: the joint-tuning freeze
# list, and seed None so that resolved_seed can fall back to URSK_SEED.
_HINTS = {name: hint for cls in (TrainConfig, PipelineConfig)
          for name, hint in typing.get_type_hints(cls).items() if name != "seed"}
_HINTS["seed"] = int | None
_DEFAULTS = {f.name: f.default for cls in (TrainConfig, PipelineConfig)
             for f in dataclasses.fields(cls)} | {"freeze": JOINT_FREEZE, "seed": None}

RunConfig = dataclasses.make_dataclass(
    "RunConfig", [(name, hint, _DEFAULTS[name]) for name, hint in _HINTS.items()],
    namespace={"__module__": __name__,
               "__doc__": "Flat experiment config: optimization, model dims, and toggles."})


def _kind(name: str) -> tuple[object, bool]:
    """A field's hint without its ``| None``, and whether it takes None."""
    args = typing.get_args(_HINTS[name])
    return (args[0], True) if type(None) in args else (_HINTS[name], False)


def _coerce(name: str, raw: str):
    kind, nullable = _kind(name)
    if nullable and raw.lower() in ("none", "null"):
        return None
    if kind == tuple[str, ...]:
        return tuple(part for part in raw.split(",") if part)
    if kind is bool:
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ConfigurationError(f"{name} expects true/false, got {raw!r}")
        return raw.lower() in ("true", "1", "yes")
    return kind(raw)        # int or float


def _from_json(name: str, value):
    """A config-file value as RunConfig holds it, if its JSON type fits the field."""
    kind, nullable = _kind(name)
    if value is None and nullable:
        return None
    if kind == tuple[str, ...]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif kind is bool:
        ok = isinstance(value, bool)
    else:
        kinds = int if kind is int else (int, float)
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok:
        raise ConfigurationError(f"config field {name} cannot be {value!r}")
    return tuple(value) if kind == tuple[str, ...] else value


def load_run_config(path: str | None, overrides: list[str],
                    base: dict | None = None) -> RunConfig:
    """Defaults (with a command's own ``base`` values over them), then the
    JSON file, then k=v override flags."""
    values = dataclasses.asdict(RunConfig()) | (base or {})
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {p}")
        try:
            file_values = json.loads(read_text(p, ConfigurationError))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {p} is not valid JSON: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigurationError(f"config file {p} must hold a JSON object")
        unknown = set(file_values) - set(values)
        if unknown:
            raise ConfigurationError(
                f"config file {p} has unknown fields: {sorted(unknown)}")
        values.update((k, _from_json(k, v)) for k, v in file_values.items())
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"--override expects K=V, got {item!r}")
        name, raw = item.split("=", 1)
        if name not in values:
            raise ConfigurationError(f"unknown config field {name!r}")
        try:
            values[name] = _coerce(name, raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {name}: {exc}")
    return RunConfig(**values)


def resolved_seed(cfg: RunConfig) -> int:
    if cfg.seed is not None:
        return cfg.seed
    env = os.environ.get("URSK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"URSK_SEED must be an integer, got {env!r}")
    return 0


def _split(cls, cfg: RunConfig):
    """``cls`` from its own fields of ``cfg``, with the seed resolved."""
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)}
    return cls(**{**values, "seed": resolved_seed(cfg)})


def train_config(cfg: RunConfig) -> TrainConfig:
    return _split(TrainConfig, cfg)


def pipeline_config(cfg: RunConfig) -> PipelineConfig:
    return _split(PipelineConfig, cfg)


# -- argument plumbing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, per the exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _kind_list(raw: str) -> list[str]:
    kinds = [k for k in raw.split(",") if k]
    bad = [k for k in kinds if k not in ("single", "pair", "video")]
    if bad or not kinds:
        raise argparse.ArgumentTypeError(
            "kinds are single, pair, video (comma separated)")
    return kinds


def _seed_list(raw: str) -> list[int]:
    try:
        seeds = [int(s) for s in raw.split(",") if s]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError("expects comma-separated integers")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeats a seed: {raw!r}")
    return seeds


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields")
    p.add_argument("--override", action="append", default=[], metavar="K=V",
                   help="override one config field (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtvlm",
                     description="multi-temporal vision-language pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate synthetic records")
    p.add_argument("--kind", type=_kind_list, required=True,
                   help="single, pair, video, or a comma list")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="records per kind")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to URSK_SEED, then 0")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--frames", type=_positive_int, default=4,
                   help="frames per video record")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("pretrain-change", help="stage-1 change-module warmup")
    _add_config_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain_change)

    p = sub.add_parser("train", help="joint instruction tuning")
    _add_config_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="stage-1 checkpoint to start from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run the pipeline over a manifest")
    p.add_argument("--task", choices=tuple(_TASKS), required=True)
    p.add_argument("--checkpoint", required=True,
                   help="model.ckpt written by train (vocab/config beside it)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.add_argument("--max-new", type=_positive_int, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a predictions file")
    p.add_argument("--task", choices=tuple(_TASKS), required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--labels", default="era",
                   help="era, synthetic-video, or a comma list")
    p.add_argument("--lenient", action="store_true",
                   help="out-of-set predictions count as wrong, not fatal")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-pack", help="dump one packed sequence")
    _add_config_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_inspect_pack)

    p = sub.add_parser("lr-curve", help="emit the schedule as CSV")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lr_curve)

    p = sub.add_parser("ablate", help="train/eval the standard config battery")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=_seed_list, default=[0, 1, 2])
    p.add_argument("--configs", default=",".join(ABLATIONS))
    p.add_argument("--per-kind", type=_positive_int, default=8,
                   help="training records per kind")
    p.add_argument("--eval-n", type=_positive_int, default=8,
                   help="held-out records per kind")
    p.add_argument("--steps", type=_positive_int, default=120)
    p.set_defaults(func=cmd_ablate)
    return parser


# -- commands ---------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    out = Path(args.out)
    seed = args.seed if args.seed is not None else resolved_seed(RunConfig())
    records = []
    for kind in args.kind:
        records += synth_generate(kind, args.n, seed, out,
                                  k=args.frames, split=args.split)
    save_manifest(out / "manifest.jsonl", records)
    print(f"wrote {len(records)} records to {out / 'manifest.jsonl'}")
    return 0


def _pretrain(pairs, cfg: RunConfig, data_dir: Path):
    """Stage 1 on ``pairs`` with ``cfg``'s optimizer settings and model dims."""
    return pretrain_change_module(
        pairs, train_config(cfg), data_dir, patch=cfg.patch, d_v=cfg.d_v,
        dim=cfg.dim, heads=cfg.lm_heads, max_seq=cfg.max_seq)


def cmd_pretrain_change(args) -> int:
    cfg = load_run_config(args.config, args.override)
    if cfg.freeze != _DEFAULTS["freeze"]:
        raise ConfigurationError(
            f"pretrain-change always freezes the encoder alone; it cannot take "
            f"freeze={','.join(cfg.freeze)}")
    records = load_manifest(args.manifest)
    pairs = [r for r in records if r.kind == "pair"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state, log = _pretrain(pairs, cfg, Path(args.manifest).parent)
    write_checkpoint(out / "stage1.ckpt", state)
    write_log(out / "pretrain_log.jsonl", log)
    if log:
        print(f"pretrain: step {log[-1]['step']} loss {log[-1]['loss']:.4f}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.override)
    records = load_manifest(args.manifest)
    mixed = mix([records], resolved_seed(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = MultiTemporalModel.build(pipeline_config(cfg), mixed.records,
                                     Path(args.manifest).parent)
    if args.init:
        model.params.load_state(read_checkpoint(args.init), strict=False)
    log = train_joint(model, mixed, train_config(cfg),
                      log_path=out / "train_log.jsonl",
                      checkpoint_path=out / "model.ckpt")
    model.vocab.save(out / "vocab.json")
    write_atomic(out / "config.json", json.dumps(dataclasses.asdict(cfg), indent=2))
    if log:
        print(f"train: step {log[-1]['step']} loss {log[-1]['loss']:.4f}")
    return 0


# Each task's record kind, the predictions-row field that holds its gold
# answer, and the report entry that ``ablate`` scores it by.
_TASKS = {"vqa": ("single", "gold", "micro"),
          "cc": ("pair", "references", "cider_d"),
          "video": ("video", "gold", "overall_accuracy")}


def _load_model(checkpoint: str | Path, data_dir: Path,
                max_new: int | None) -> MultiTemporalModel:
    ckpt = Path(checkpoint)
    run_dir = ckpt.parent
    config_path = run_dir / "config.json"
    vocab_path = run_dir / "vocab.json"
    for needed in (ckpt, config_path, vocab_path):
        if not needed.is_file():
            raise ConfigurationError(f"missing model file: {needed}")
    cfg = load_run_config(config_path, [])
    pipe_cfg = pipeline_config(cfg)
    if max_new is not None:
        pipe_cfg.gen_max_new = max_new
    model = MultiTemporalModel(pipe_cfg, Vocab.load(vocab_path), data_dir)
    model.params.load_state(read_checkpoint(ckpt), strict=True)
    return model


def _prediction_rows(task: str, model: MultiTemporalModel, records) -> list[dict]:
    """One predictions-file row per record: its prediction and gold answer."""
    field = _TASKS[task][1]
    rows = []
    for r in records:
        row = {"id": r.id, "prediction": model.predict(r)}
        if task == "vqa":
            row["category"] = r.category or "other"
        row[field] = r.target if field == "gold" else r.references or [r.target]
        rows.append(row)
    return rows


def cmd_infer(args) -> int:
    kind = _TASKS[args.task][0]
    records = [r for r in load_manifest(args.manifest) if r.kind == kind]
    if not records:
        raise ConfigurationError(
            f"manifest {args.manifest} has no records of kind {kind!r}")
    model = _load_model(args.checkpoint, Path(args.manifest).parent,
                        args.max_new)
    rows = _prediction_rows(args.task, model, records)
    write_predictions(args.out, rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def _labels_for(raw: str) -> tuple[str, ...]:
    if raw == "era":
        return ERA_LABELS
    if raw == "synthetic-video":
        return SYNTH_VIDEO_CLASSES
    return tuple(part for part in raw.split(",") if part)


def _score(task: str, rows: list[dict], labels: tuple[str, ...],
           strict: bool) -> tuple[dict, str]:
    """``task``'s report on predictions rows, and its text table."""
    if task == "vqa":
        report = vqa_accuracy([VQARecord(category=row.get("category", "other"),
                                         prediction=row["prediction"], gold=row["gold"])
                               for row in rows])
        return report, render_vqa_table(report)
    if task == "cc":
        report = cider_d([CaptionEntry(candidate=row["prediction"],
                                       references=row["references"]) for row in rows])
        return report, f"CIDEr-D: {report['cider_d']:.4f}"
    report = classification_report([(row["prediction"], row["gold"]) for row in rows],
                                   labels, strict=strict)
    return report, render_classification_table(report)


def cmd_eval(args) -> int:
    rows = read_predictions(args.predictions)
    needed = _TASKS[args.task][1]
    missing = [row["id"] for row in rows if needed not in row]
    if missing:
        raise ConfigurationError(
            f"{args.predictions}: rows missing {needed!r}: {missing[:3]}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report, text = _score(args.task, rows, _labels_for(args.labels),
                          strict=not args.lenient)
    write_atomic(out / "report.json", json.dumps(report, indent=2))
    write_atomic(out / "report.txt", text + "\n")
    print(text)
    return 0


def cmd_inspect_pack(args) -> int:
    cfg = load_run_config(args.config, args.override)
    records = load_manifest(args.manifest)
    matches = [r for r in records if r.id == args.id]
    if not matches:
        raise ConfigurationError(f"no record {args.id!r} in {args.manifest}")
    record = matches[0]
    model = MultiTemporalModel.build(pipeline_config(cfg), records,
                                     Path(args.manifest).parent)
    answer_ids = model.vocab.encode(record.target) + [model.vocab.eos_id]
    packed, full, prompt_len, l_d = model.packed_example(record, answer_ids)
    dump = debug_dump(packed, full)
    dump["id"] = record.id
    dump["l_d"] = l_d
    dump["prompt_tokens"] = prompt_len
    text = json.dumps(dump, indent=2)
    if args.out:
        write_atomic(args.out, text + "\n")
    else:
        print(text)
    return 0


def cmd_lr_curve(args) -> int:
    cfg = train_config(load_run_config(args.config, args.override))
    lines = ["step,lr"]
    for step in range(cfg.total_steps + 1):
        lines.append(f"{step},{lr_at(step, cfg)!r}")
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {cfg.total_steps + 1} schedule points to {args.out}")
    return 0


# -- ablation battery ---------------------------------------------------------------

# Each ablation config: its RunConfig changes, and its cells. A cell is one
# model, trained and scored on a group of kinds, that starts either cold or
# from the seed's stage-1 warmup of change module and projector. The warm
# start is set per config, not read from the RunConfig, so an override of
# use_change_module still leaves joint's projector warm.
_KINDS = tuple(kind for kind, _, _ in _TASKS.values())
ABLATIONS = {
    "joint": ({}, [(_KINDS, True)]),
    "individual": ({}, [(("single",), False), (("pair",), True), (("video",), False)]),
    "no-change": ({"use_change_module": False}, [(_KINDS, False)]),
    "no-clue": ({"use_clues": False}, [(_KINDS, True)]),
}

# the battery's recipe; a config file or --override still sets any of these
ABLATE_RECIPE = {"batch_size": 4, "max_lr": 3e-3, "warmup_ratio": 0.05}


def _ablation_cell(run: RunConfig, train_records, eval_by_kind, data_dir: Path,
                   init: dict | None) -> dict[str, float]:
    """Train one model from ``init`` (or cold) and score it on each kind's
    held-out records, as ``infer`` then ``eval --labels synthetic-video
    --lenient`` would."""
    mixed = mix([train_records], run.seed)
    model = MultiTemporalModel.build(pipeline_config(run),
                                     mixed.records + sum(eval_by_kind.values(), []),
                                     data_dir)
    if init:
        model.params.load_state(init, strict=False)
    train_joint(model, mixed, train_config(run))
    return {kind: _score(task, _prediction_rows(task, model, eval_by_kind[kind]),
                         SYNTH_VIDEO_CLASSES, strict=False)[0][headline]
            for task, (kind, _, headline) in _TASKS.items() if kind in eval_by_kind}


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.override, base=ABLATE_RECIPE)
    cfg = dataclasses.replace(cfg, total_steps=args.steps)
    wanted = [c for c in args.configs.split(",") if c]
    bad = [c for c in wanted if c not in ABLATIONS]
    if bad or not wanted:
        raise ConfigurationError(
            f"ablation configs are {','.join(ABLATIONS)}; got {args.configs!r}")
    if len(set(wanted)) != len(wanted):
        raise ConfigurationError(f"ablation configs repeat a name: {args.configs!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    per_seed: dict[str, list[dict]] = {c: [] for c in wanted}
    for seed in args.seeds:
        run = dataclasses.replace(cfg, seed=seed)
        data_dir = out / "data" / f"seed{seed}"
        train_by_kind = {k: synth_generate(k, args.per_kind, 100 + seed, data_dir)
                         for k in _KINDS}
        eval_by_kind = {k: synth_generate(k, args.eval_n, 200 + seed, data_dir,
                                          split="test")
                        for k in _KINDS}
        stage1 = None
        if any(warm for c in wanted for _, warm in ABLATIONS[c][1]):
            stage1, _ = _pretrain(train_by_kind["pair"], run, data_dir)
        for name in wanted:
            changes, cells = ABLATIONS[name]
            scores = {}
            for kinds, warm in cells:
                scores.update(_ablation_cell(
                    dataclasses.replace(run, **changes),
                    sum((train_by_kind[k] for k in kinds), []),
                    {k: eval_by_kind[k] for k in kinds}, data_dir,
                    stage1 if warm else None))
            per_seed[name].append(scores)
    averaged = {name: {k: sum(s[k] for s in runs) / len(runs)
                       for k in runs[0]}
                for name, runs in per_seed.items()}
    report = {"seeds": args.seeds, "per_seed": per_seed, "mean": averaged}
    write_atomic(out / "ablation.json", json.dumps(report, indent=2))
    text = _render_ablation(averaged)
    write_atomic(out / "ablation.txt", text + "\n")
    print(text)
    return 0


def _render_ablation(averaged: dict[str, dict[str, float]]) -> str:
    headers = ["config", "single-acc", "pair-cider", "video-oa"]
    rows = []
    for name, scores in averaged.items():
        rows.append([name,
                     f"{scores.get('single', float('nan')):.3f}",
                     f"{scores.get('pair', float('nan')):.3f}",
                     f"{scores.get('video', float('nan')):.3f}"])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
