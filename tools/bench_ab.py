"""A/B benchmark runner: a committed base ref against the checkout's HEAD.

    python3 tools/bench_ab.py --base HEAD~1 --workloads decode --seeds 82-91 \
        --seconds 10 --trace-seed 7 --out BENCH_21.json

Run it from the repository root, after committing the change. The base
ref and HEAD are each extracted with ``git archive`` into sibling
directories of one scratch directory, which is deleted afterwards, so both
sides run from the same kind of location and no git metadata changes.
Uncommitted edits are not measured. For each workload and seed,
``perfbench/run.py`` runs once on each side, and the side that runs first
alternates from pair to pair. The last stdout line of each run is its
result; the CPU seconds and minor page faults of its process are added
to it. ``summarise`` turns the pairs into medians, quartiles, per-pair
ratios, win counts and a verdict against each bound in BENCHMARK.json;
README's "A/B reports" section describes the file it writes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("base", "change")
# per-layer units whose values must repeat exactly between equal programs
COUNT_UNITS = ("count", "ratio", "rows/token")
# a gain needs this share of pairs won, as in the benchmark's own rule
WIN_SHARE = 0.9
# what each run cost its whole process, set-up included, from getrusage
RUSAGE_FIELDS = ("cpu_s", "minor_faults")


# -- pure summary ----------------------------------------------------------------

def parse_seeds(text: str) -> list[int]:
    """``"82-85,90"`` -> ``[82, 83, 84, 85, 90]``."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct and non-empty, got {text!r}")
    return seeds


def first_side(pair_index: int) -> str:
    """Which side runs first in a pair: base, change, base, ..."""
    return SIDES[pair_index % 2]


def result_line(stdout: str) -> dict:
    """The result object perfbench prints as its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _side_stats(values: list[float]) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def verdict(base: list[float], change: list[float], wins: int, higher: bool,
            bound: float) -> str:
    """One metric's verdict over the pairs used.

    ``worse``: the change's median is worse than the base's by more than
    ``bound``, relative to the base median. ``gain``: the change won at least
    nine tenths of the pairs and its median is better by more than the base
    runs' interquartile range. ``unresolved``: the base runs spread wider
    than ``bound`` and not every change run beats every base run. Otherwise
    ``within bound``.
    """
    b, c = statistics.median(base), statistics.median(change)
    scale = abs(b) or 1.0
    worse_by = ((b - c) if higher else (c - b)) / scale
    if worse_by > bound:
        return "worse"
    q1, q3 = _quartiles(base)
    if worse_by < 0 and wins >= math.ceil(WIN_SHARE * len(base)) and abs(c - b) > q3 - q1:
        return "gain"
    every_change_better = (min(change) > max(base)) if higher else (max(change) < min(base))
    if (q3 - q1) / scale > bound and not every_change_better:
        return "unresolved"
    return "within bound"


def _rusage_medians(results: list[dict]) -> dict:
    """Median of each ``RUSAGE_FIELDS`` value over the results that carry
    one (``run_perfbench`` adds them as ``rusage``)."""
    usage = [r["rusage"] for r in results if "rusage" in r]
    return {k: statistics.median(u[k] for u in usage) for k in RUSAGE_FIELDS} if usage else {}


def summarise_workload(pairs: list[dict], spec: dict) -> dict:
    """Summary of one workload's pairs.

    Each pair is ``{"seed", "first", "base", "change"}`` with perfbench
    result objects on both sides. A pair where either side is not
    ``correct`` is listed under ``excluded`` and left out of every metric.
    """
    def correct(p):
        return all(p[s].get("correct") is True for s in SIDES)

    used = [p for p in pairs if correct(p)]
    out = {
        "seeds": [p["seed"] for p in pairs],
        "pairs_run": len(pairs),
        "pairs_used": len(used),
        "excluded": [{"seed": p["seed"], **{f"{s}_correct": p[s].get("correct")
                                            for s in SIDES}}
                     for p in pairs if not correct(p)],
        "failed_ops": {s: sum(p[s].get("failed", 0) for p in pairs) for s in SIDES},
        "rusage": {s: _rusage_medians([p[s] for p in used]) for s in SIDES},
        "metrics": {},
    }
    for m in spec["end_to_end"]:
        name = m["name"]
        values = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                  for p in used
                  if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not values:
            continue
        higher = m["better"] == "higher"
        base = [b for b, _ in values]
        change = [c for _, c in values]
        ratios = [c / b if b else None for b, c in values]
        wins = sum((c > b) if higher else (c < b) for b, c in values)
        known = [r for r in ratios if r is not None]
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": _side_stats(base), "change": _side_stats(change),
            "ratios": ratios,
            "ratio_median": statistics.median(known) if known else None,
            "wins": wins,
            "verdict": verdict(base, change, wins, higher, m["bound"]),
        }
    return out


def count_mismatches(base: dict, change: dict, spec: dict) -> list[str]:
    """Per-layer count metrics of two traced results that differ or that
    only one side reports."""
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    got = [(base["metrics"].get(n), change["metrics"].get(n)) for n in names]
    return [n for n, (b, c) in zip(names, got)
            if (b is None) != (c is None) or (b is not None and b["value"] != c["value"])]


def summarise(pairs: list[dict], spec: dict, traced: list[dict] = ()) -> dict:
    """Per-workload summaries of every pair, plus each traced comparison.

    ``pairs`` items carry a ``"workload"`` key besides those
    ``summarise_workload`` reads; ``traced`` items are ``{"workload", "seed",
    "base", "change"}`` with traced perfbench results.
    """
    out = {}
    for name in dict.fromkeys(p["workload"] for p in pairs):
        out[name] = summarise_workload([p for p in pairs if p["workload"] == name], spec)
    for t in traced:
        out.setdefault(t["workload"], {})["traced"] = {
            "seed": t["seed"],
            **{f"{s}_correct": t[s].get("correct") for s in SIDES},
            "count_mismatches": count_mismatches(t["base"], t["change"], spec),
            **{s: {k: v["value"] for k, v in t[s].get("metrics", {}).items()} for s in SIDES},
        }
    return out


# -- running -----------------------------------------------------------------------

def extract(repo: Path, ref: str, dest: Path) -> str:
    """Write the tree of ``ref`` into ``dest``; returns the commit id."""
    commit = _git(repo, "rev-parse", "--verify", ref + "^{commit}").strip()
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def run_perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run, with what its process cost under ``rusage``; a
    run that crashes counts as not correct."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
             "minor_faults": after.ru_minflt - before.ru_minflt}
    try:
        if proc.returncode:
            raise ValueError(f"exit {proc.returncode}")
        result = result_line(proc.stdout)
    except ValueError as e:     # json.JSONDecodeError is a ValueError
        result = {"correct": False, "failed": 1, "metrics": {},
                  "error": f"{e}: {proc.stderr.strip()[-500:]}"}
    return {**result, "rusage": usage}


def host_record() -> dict:
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "blas_env": {k: os.environ.get(k) for k in blas}}


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", required=True, help='e.g. "82-91" or "1,5,9"')
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also run each side traced once on this seed")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    seconds = args.seconds or spec["run_seconds"]

    dirty = bool(_git(repo, "status", "--porcelain", "--untracked-files=no"))
    if dirty:
        print("warning: uncommitted edits are not measured; the change side "
              "runs HEAD", file=sys.stderr)
    host = {"before": host_record()}
    scratch = Path(tempfile.mkdtemp(prefix="bench_ab_"))
    trees = {side: scratch / side for side in SIDES}
    try:
        commits = {side: extract(repo, ref, trees[side])
                   for side, ref in zip(SIDES, (args.base, "HEAD"))}
        pairs, traced = [], []
        for wl in workloads:
            for i, seed in enumerate(seeds):
                pair = {"workload": wl, "seed": seed, "first": first_side(i)}
                for side in (SIDES if pair["first"] == "base" else SIDES[::-1]):
                    pair[side] = run_perfbench(trees[side], wl, seed, seconds, 0)
                print(f"{wl} seed {seed}: " + ", ".join(
                    f"{s} correct={pair[s].get('correct')}" for s in SIDES), file=sys.stderr)
                pairs.append(pair)
            if args.trace_seed is not None:
                traced.append({"workload": wl, "seed": args.trace_seed,
                               **{s: run_perfbench(trees[s], wl, args.trace_seed, seconds, 1)
                                  for s in SIDES}})
        lines = {side: src_lines(trees[side]) for side in SIDES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host["after"] = host_record()

    report = {
        "base": {"ref": args.base, "commit": commits["base"]},
        "change": {"commit": commits["change"], "dirty": dirty},
        "seconds": seconds,
        "host": host,
        "src_lines": {**lines, "net": lines["change"] - lines["base"]},
        "workloads": summarise(pairs, spec, traced),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
