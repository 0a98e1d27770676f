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
from dataclasses import dataclass
from pathlib import Path

from .checkpoint import read_checkpoint, write_checkpoint
from .data import (ERA_LABELS, SYNTH_VIDEO_CLASSES, load_manifest, mix,
                   save_manifest, synth_generate)
from .errors import ConfigurationError, DivergenceError
from .lm import Vocab
from .metrics import (CaptionEntry, VQARecord, cider_d, classification_report,
                      read_predictions, render_classification_table,
                      render_vqa_table, vqa_accuracy, write_predictions)
from .packing import debug_dump
from .pipeline import MultiTemporalModel, PipelineConfig
from .training import (JOINT_FREEZE, TrainConfig, lr_at,
                       pretrain_change_module, train_joint, write_log)


@dataclass
class RunConfig:
    """Flat experiment config: optimization, model dims, and toggles."""

    max_lr: float = 1e-4
    min_lr: float = 0.0
    warmup_ratio: float = 0.03
    total_steps: int = 3858
    batch_size: int = 128
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None
    freeze: tuple[str, ...] = JOINT_FREEZE
    patch: int = 8
    d_v: int = 16
    dim: int = 64
    lm_layers: int = 2
    lm_heads: int = 4
    max_seq: int = 512
    video_frames: int = 4
    use_change_module: bool = True
    use_clues: bool = True
    gen_max_new: int = 24
    seed: int | None = None


_FLOAT_FIELDS = {"max_lr", "min_lr", "warmup_ratio", "weight_decay",
                 "beta1", "beta2", "eps", "grad_clip"}
_INT_FIELDS = {"total_steps", "batch_size", "patch", "d_v", "dim", "lm_layers",
               "lm_heads", "max_seq", "video_frames", "gen_max_new", "seed"}
_BOOL_FIELDS = {"use_change_module", "use_clues"}


def _coerce(name: str, raw: str):
    if name in ("grad_clip", "seed") and raw.lower() in ("none", "null"):
        return None
    if name == "freeze":
        return tuple(part for part in raw.split(",") if part)
    if name in _BOOL_FIELDS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{name} expects true/false, got {raw!r}")
    if name in _INT_FIELDS:
        return int(raw)
    if name in _FLOAT_FIELDS:
        return float(raw)
    raise ConfigurationError(f"unknown config field {name!r}")


def _from_json(name: str, value):
    """A config-file value as RunConfig holds it, if its JSON type fits the field."""
    if value is None and name in ("grad_clip", "seed"):
        return None
    if name == "freeze":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif name in _BOOL_FIELDS:
        ok = isinstance(value, bool)
    else:
        kinds = int if name in _INT_FIELDS else (int, float)
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok:
        raise ConfigurationError(f"config field {name} cannot be {value!r}")
    return tuple(value) if name == "freeze" else value


def load_run_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Defaults, then the JSON file, then k=v override flags."""
    values = dataclasses.asdict(RunConfig())
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {p}")
        try:
            file_values = json.loads(p.read_text(encoding="utf-8"))
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


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(max_lr=cfg.max_lr, min_lr=cfg.min_lr,
                       warmup_ratio=cfg.warmup_ratio,
                       total_steps=cfg.total_steps, batch_size=cfg.batch_size,
                       seed=resolved_seed(cfg), freeze=tuple(cfg.freeze),
                       weight_decay=cfg.weight_decay, beta1=cfg.beta1,
                       beta2=cfg.beta2, eps=cfg.eps, grad_clip=cfg.grad_clip)


def pipeline_config(cfg: RunConfig) -> PipelineConfig:
    return PipelineConfig(patch=cfg.patch, d_v=cfg.d_v, dim=cfg.dim,
                          lm_layers=cfg.lm_layers, lm_heads=cfg.lm_heads,
                          max_seq=cfg.max_seq, video_frames=cfg.video_frames,
                          use_change_module=cfg.use_change_module,
                          use_clues=cfg.use_clues,
                          gen_max_new=cfg.gen_max_new, seed=resolved_seed(cfg))


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
        return [int(s) for s in raw.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError("expects comma-separated integers")


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
    p.add_argument("--task", choices=("vqa", "cc", "video"), required=True)
    p.add_argument("--checkpoint", required=True,
                   help="model.ckpt written by train (vocab/config beside it)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.add_argument("--max-new", type=_positive_int, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a predictions file")
    p.add_argument("--task", choices=("vqa", "cc", "video"), required=True)
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
    p.add_argument("--configs", default="joint,individual,no-change,no-clue")
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


def cmd_pretrain_change(args) -> int:
    cfg = load_run_config(args.config, args.override)
    records = load_manifest(args.manifest)
    pairs = [r for r in records if r.kind == "pair"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state, log = pretrain_change_module(
        pairs, train_config(cfg), Path(args.manifest).parent,
        patch=cfg.patch, d_v=cfg.d_v, dim=cfg.dim, heads=cfg.lm_heads,
        max_seq=cfg.max_seq)
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
    (out / "config.json").write_text(
        json.dumps(dataclasses.asdict(cfg), indent=2), encoding="utf-8")
    if log:
        print(f"train: step {log[-1]['step']} loss {log[-1]['loss']:.4f}")
    return 0


_TASK_KIND = {"vqa": "single", "cc": "pair", "video": "video"}


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


def cmd_infer(args) -> int:
    kind = _TASK_KIND[args.task]
    records = [r for r in load_manifest(args.manifest) if r.kind == kind]
    if not records:
        raise ConfigurationError(
            f"manifest {args.manifest} has no records of kind {kind!r}")
    model = _load_model(args.checkpoint, Path(args.manifest).parent,
                        args.max_new)
    rows = []
    for r in records:
        row = {"id": r.id, "prediction": model.predict(r)}
        if args.task == "vqa":
            row["category"] = r.category or "other"
            row["gold"] = r.target
        elif args.task == "cc":
            row["references"] = r.references or [r.target]
        else:
            row["gold"] = r.target
        rows.append(row)
    write_predictions(args.out, rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def _labels_for(raw: str) -> tuple[str, ...]:
    if raw == "era":
        return ERA_LABELS
    if raw == "synthetic-video":
        return SYNTH_VIDEO_CLASSES
    return tuple(part for part in raw.split(",") if part)


def cmd_eval(args) -> int:
    rows = read_predictions(args.predictions)
    needed = "references" if args.task == "cc" else "gold"
    missing = [row["id"] for row in rows if needed not in row]
    if missing:
        raise ConfigurationError(
            f"{args.predictions}: rows missing {needed!r}: {missing[:3]}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.task == "vqa":
        records = [VQARecord(category=row.get("category", "other"),
                             prediction=row["prediction"], gold=row["gold"])
                   for row in rows]
        report = vqa_accuracy(records)
        text = render_vqa_table(report)
    elif args.task == "cc":
        entries = [CaptionEntry(candidate=row["prediction"],
                                references=row["references"]) for row in rows]
        report = cider_d(entries)
        text = f"CIDEr-D: {report['cider_d']:.4f}"
    else:
        pairs = [(row["prediction"], row["gold"]) for row in rows]
        report = classification_report(pairs, _labels_for(args.labels),
                                       strict=not args.lenient)
        text = render_classification_table(report)
    (out / "report.json").write_text(json.dumps(report, indent=2),
                                     encoding="utf-8")
    (out / "report.txt").write_text(text + "\n", encoding="utf-8")
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
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_lr_curve(args) -> int:
    cfg = train_config(load_run_config(args.config, args.override))
    lines = ["step,lr"]
    for step in range(cfg.total_steps + 1):
        lines.append(f"{step},{lr_at(step, cfg)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {cfg.total_steps + 1} schedule points to {args.out}")
    return 0


# -- ablation battery ---------------------------------------------------------------

def _eval_single(model, records) -> float:
    recs = [VQARecord(category=r.category or "other",
                      prediction=model.predict(r), gold=r.target)
            for r in records]
    return vqa_accuracy(recs)["micro"]


def _eval_pair(model, records) -> float:
    entries = [CaptionEntry(candidate=model.predict(r),
                            references=r.references or [r.target])
               for r in records]
    return cider_d(entries)["cider_d"]


def _eval_video(model, records) -> float:
    pairs = [(model.predict(r), r.target) for r in records]
    report = classification_report(pairs, SYNTH_VIDEO_CLASSES, strict=False)
    return report["overall_accuracy"]


_EVALS = {"single": _eval_single, "pair": _eval_pair, "video": _eval_video}


def _train_eval_once(cfg: RunConfig, train_records, eval_by_kind, data_dir,
                     seed: int, init: dict | None = None) -> dict[str, float]:
    run = dataclasses.replace(cfg, seed=seed)
    mixed = mix([train_records], seed)
    model = MultiTemporalModel.build(pipeline_config(run),
                                     mixed.records + sum(eval_by_kind.values(), []),
                                     data_dir)
    if init:
        model.params.load_state(init, strict=False)
    train_joint(model, mixed, train_config(run))
    return {kind: _EVALS[kind](model, recs)
            for kind, recs in eval_by_kind.items() if recs}


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.override)
    cfg = dataclasses.replace(cfg, total_steps=args.steps, batch_size=4,
                              max_lr=3e-3 if cfg.max_lr == RunConfig.max_lr else cfg.max_lr,
                              warmup_ratio=0.05)
    wanted = [c for c in args.configs.split(",") if c]
    known = ("joint", "individual", "no-change", "no-clue")
    bad = [c for c in wanted if c not in known]
    if bad:
        raise ConfigurationError(f"unknown ablation configs: {bad}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kinds = ("single", "pair", "video")
    per_seed: dict[str, list[dict]] = {c: [] for c in wanted}
    for seed in args.seeds:
        data_dir = out / "data" / f"seed{seed}"
        train_by_kind = {k: synth_generate(k, args.per_kind, 100 + seed, data_dir)
                         for k in kinds}
        eval_by_kind = {k: synth_generate(k, args.eval_n, 200 + seed, data_dir,
                                          split="test")
                        for k in kinds}
        train_all = sum(train_by_kind.values(), [])
        # configs that keep the change module start from a stage-1 warmup of
        # change + projector on the pair subset, mirroring the two-stage recipe
        stage1: dict | None = None
        if any(c != "no-change" for c in wanted):
            s1 = dataclasses.replace(train_config(cfg), seed=seed)
            stage1, _ = pretrain_change_module(
                train_by_kind["pair"], s1, data_dir,
                patch=cfg.patch, d_v=cfg.d_v, dim=cfg.dim,
                heads=cfg.lm_heads, max_seq=cfg.max_seq)
        for name in wanted:
            if name == "joint":
                scores = _train_eval_once(cfg, train_all, eval_by_kind,
                                          data_dir, seed, init=stage1)
            elif name == "no-change":
                run = dataclasses.replace(cfg, use_change_module=False)
                scores = _train_eval_once(run, train_all, eval_by_kind,
                                          data_dir, seed)
            elif name == "no-clue":
                run = dataclasses.replace(cfg, use_clues=False)
                scores = _train_eval_once(run, train_all, eval_by_kind,
                                          data_dir, seed, init=stage1)
            else:
                scores = {}
                for k in kinds:
                    scores.update(_train_eval_once(
                        cfg, train_by_kind[k], {k: eval_by_kind[k]},
                        data_dir, seed,
                        init=stage1 if k == "pair" else None))
            per_seed[name].append(scores)
    averaged = {name: {k: sum(s[k] for s in runs) / len(runs)
                       for k in runs[0]}
                for name, runs in per_seed.items()}
    report = {"seeds": args.seeds, "per_seed": per_seed, "mean": averaged}
    (out / "ablation.json").write_text(json.dumps(report, indent=2),
                                       encoding="utf-8")
    text = _render_ablation(averaged)
    (out / "ablation.txt").write_text(text + "\n", encoding="utf-8")
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
