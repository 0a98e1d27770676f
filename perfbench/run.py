"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload joint --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program under test is imported from
./src and scratch files go to ./.bench_work (removed on exit). The last
line of stdout is the result; the line before it holds the environment,
sample counts and check notes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"

# reference losses at fixed steps, recorded with --record-reference
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 100
REFERENCE_STEPS = 10
# relative drift allowed from the reference: room for float summation
# order (BLAS thread split, a batched op), far below any real change
REFERENCE_RTOL = 1e-9

# a traced run compares its first two measured chunks
MIN_CHUNKS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_p90": "ms", "tokens_per_s": "1/s", "request_ms_p50": "ms",
    "request_ms_p90": "ms", "peak_rss_mb": "MB",
}
HIGHER_IS_BETTER = {"steps_per_s", "tokens_per_s"}


def _program_present() -> bool:
    """Import mtvlm from ./src and nowhere else."""
    if not (SRC / "mtvlm" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import mtvlm
    return Path(mtvlm.__file__).resolve().parent == (SRC / "mtvlm").resolve()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of ./.git, read from its files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mtvlm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


class Phase:
    """One measured loop: a warm-up chunk, then chunks until time is up."""

    def __init__(self, wl, meter, seconds: int, recorder=None):
        warm = wl.chunk()
        self.attempted, self.failed = warm.ops, warm.failed
        self.notes = list(warm.notes)
        self.snaps = [recorder.snapshot()] if recorder else []
        self.chunks = []
        start = time.perf_counter()
        while len(self.chunks) < MIN_CHUNKS or time.perf_counter() - start < seconds:
            meter.start_chunk()
            t = time.perf_counter()
            chunk = wl.chunk()
            chunk.wall = time.perf_counter() - t
            if recorder:
                self.snaps.append(recorder.snapshot())
            if wl.ops_kind == "step":
                chunk.step_ms = chunk.request_ms = meter.step_ms
                chunk.tokens = meter.rows
                if len(meter.step_ms) != chunk.ops:
                    chunk.failed += 1
                    chunk.notes.append(f"{len(meter.step_ms)} AdamW.step marks "
                                       f"for {chunk.ops} steps")
            else:
                chunk.step_ms, chunk.tokens = meter.decode_step_ms, meter.tokens
                if not chunk.step_ms or not chunk.tokens:
                    chunk.failed += 1
                    chunk.notes.append("generate produced no decode steps or tokens")
            self.chunks.append(chunk)
        self.ops = sum(c.ops for c in self.chunks)
        self.attempted += self.ops
        self.failed += sum(c.failed for c in self.chunks)
        self.notes += [n for c in self.chunks for n in c.notes]
        for note in wl.run_failures():
            self.fail(note)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """Time metrics that measure the program rather than its neighbours.

        Every chunk does the same work in the same order, but on a shared
        2-core host a chunk can run 1.5x to 5x slower while neighbours
        contend for the cores. So throughputs are the median over chunks,
        and each step or request position takes its median over chunks
        before the percentiles are taken across positions.
        """
        def throughput(count):
            return statistics.median(count(c) / c.wall for c in self.chunks)

        def typical(times):
            n = min(len(t) for t in times)
            return np.median([t[:n] for t in times], axis=0)

        steps = typical([c.step_ms for c in self.chunks])
        requests = typical([c.request_ms for c in self.chunks])
        return {
            "setup_s": setup_s,
            "steps_per_s": throughput(lambda c: len(c.step_ms)),
            "step_ms_p50": _pct(steps, 50),
            "step_ms_p90": _pct(steps, 90),
            "tokens_per_s": throughput(lambda c: c.tokens),
            "request_ms_p50": _pct(requests, 50),
            "request_ms_p90": _pct(requests, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def samples(self) -> dict:
        """Sample counts behind the time metrics, and every chunk's time."""
        return {"chunks": len(self.chunks),
                "steps": sum(len(c.step_ms) for c in self.chunks),
                "requests": sum(len(c.request_ms) for c in self.chunks),
                "tokens": sum(c.tokens for c in self.chunks),
                "chunk_s": [round(c.wall, 4) for c in self.chunks]}


def set_up(wl, workdir: Path, reps: int) -> float:
    """Median wall time of ``reps`` complete set-ups; the last one is kept."""
    times = []
    for i in range(reps):
        d = Path(tempfile.mkdtemp(prefix="setup", dir=workdir))
        t = time.perf_counter()
        wl.set_up(d)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probe_reference(wl_cls, workdir: Path) -> list[str]:
    """Losses at fixed steps on the reference seed against reference.json."""
    if not hasattr(wl_cls, "probe"):
        return []
    ref = json.loads(REFERENCE.read_text())[wl_cls.name]
    d = workdir / "probe"
    d.mkdir()
    got = wl_cls.probe(ref["seed"], len(ref["losses"]), d)
    bad = [i for i, (g, r) in enumerate(zip(got, ref["losses"]))
           if not abs(g - r) <= REFERENCE_RTOL * abs(r)]
    if len(got) != len(ref["losses"]) or bad:
        return [f"{wl_cls.name} reference drift at steps {bad}: {got} vs {ref['losses']}"]
    return []


def record_reference(workloads, workdir: Path) -> None:
    ref = {}
    for name in ("joint", "stage1"):
        d = workdir / name
        d.mkdir()
        ref[name] = {"seed": REFERENCE_SEED,
                     "losses": workloads[name].probe(REFERENCE_SEED, REFERENCE_STEPS, d)}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def run(wl, args, workdir: Path) -> tuple[dict, dict]:
    import spans

    notes = probe_reference(type(wl), workdir)
    hooks = spans.Hooks()
    try:
        setup_s = set_up(wl, workdir, wl.setup_reps)
        meter = spans.Meter(hooks)
        plain = Phase(wl, meter, args.seconds)
        values = plain.end_to_end(setup_s)
        info = {"samples": plain.samples()}
        attempted, failed = plain.attempted, plain.failed + len(notes)
        notes += plain.notes
        if args.trace:
            recorder = spans.Recorder(hooks)
            before = recorder.snapshot()
            traced_setup_s = set_up(wl, workdir, 1)
            in_setup = spans.window(recorder.snapshot(), before)
            traced = Phase(wl, meter, args.seconds, recorder)
            values = layer_metrics(wl, traced, in_setup, values,
                                   traced.end_to_end(traced_setup_s))
            info["traced_samples"] = traced.samples()
            attempted += traced.attempted
            failed += traced.failed
            notes += traced.notes
    finally:
        hooks.close()
    unit = _layer_unit if args.trace else END_TO_END_UNITS.get
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()}}
    info["notes"] = notes
    return result, info


def layer_metrics(wl, phase: Phase, in_setup: dict, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced phase, with its coverage guard."""
    import spans

    first = spans.window(phase.snaps[1], phase.snaps[0])
    second = spans.window(phase.snaps[2], phase.snaps[1])
    counts = spans.count_metrics(first)
    repeat = spans.count_metrics(second)
    for name in wl.expected_spans:
        if first["calls"][name] < 1:
            phase.fail(f"span {name} did not fire on {wl.name}")
    for name, value in counts.items():
        if repeat[name] != value:
            phase.fail(f"count {name} changed between chunks: {value} then {repeat[name]}")
    if phase.chunks[0].ops != phase.chunks[1].ops:
        phase.fail("chunks disagree on their number of operations")
    out = dict(counts)
    out["trace.window_ops"] = phase.chunks[0].ops
    out.update(spans.time_metrics(spans.window(phase.snaps[-1], phase.snaps[0]),
                                  phase.ops))
    writes = in_setup["calls"]["checkpoint.write"]
    out["checkpoint.write_ms"] = (in_setup["ns"]["checkpoint.write"] / 1e6 / writes
                                  if writes else 0.0)
    for name, value in plain.items():
        # how much worse the traced value is, in % of the untraced one
        worse = value - traced[name] if name in HIGHER_IS_BETTER else traced[name] - value
        out[f"overhead.{name}"] = 100.0 * worse / value
    return out


def _layer_unit(name: str) -> str:
    if name.startswith("overhead."):
        return "%"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "lm.rows_per_token":
        return "rows/token"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("joint", "stage1", "decode"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this source tree")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not _program_present():
        print(f"error: no mtvlm package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.record_reference:
            record_reference(WORKLOADS, workdir)
            return 0
        result, info = run(WORKLOADS[args.workload](args.seed), args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), **info}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
