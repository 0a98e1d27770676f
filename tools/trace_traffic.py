"""Which code under src/mtvlm the commands and the benchmark workloads run.

    python3 tools/trace_traffic.py

Run it from the repository root; it takes no flags. In a temporary
directory, under ``sys.settrace``, it replays:

* every CLI command: ``synth-data`` for three kinds, ``pretrain-change``,
  ``train --init``, ``infer`` and ``eval`` for ``vqa``, ``cc`` and
  ``video``, ``inspect-pack``, ``lr-curve``, and ``ablate --seeds 0
  --steps 3``;
* one ``set_up`` and one ``chunk`` of each perfbench workload.

Each command must exit 0; what they print goes to stderr. Then, for each
module of the package, it prints the functions never entered and, in the
functions that were, the lines never run. A line counts when the compiler gave it bytecode. Tracing
starts before ``mtvlm`` is imported, so module-level lines count too.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mtvlm"
# training runs of the replayed commands: a few steps at a small batch
SHORT_RUN = ("total_steps=3", "batch_size=4")


# -- pure report -------------------------------------------------------------------

def _lines(code: CodeType) -> set[int]:
    """The lines ``code`` itself has bytecode on. A function's header line is
    left out: it runs in the enclosing code, which defines the function."""
    lines = {line for _, _, line in code.co_lines() if line}     # 0: module start
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def _ranges(lines: set[int]) -> str:
    """``{3, 4, 5, 9}`` -> ``"3-5, 9"``."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(code: CodeType, ran: set[int], entered: set[tuple[str, int]]) -> list[str]:
    """Text lines for one compiled module: each named function never
    entered (keyed by qualified name and first line, as ``entered`` holds
    them), then the lines never run in the code that was entered, its
    lambdas and comprehensions included. Empty when everything ran."""
    if ("<module>", code.co_firstlineno) not in entered:
        return ["  never imported"]
    skipped: list[tuple[int, str]] = []
    missed: set[int] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        named = not c.co_name.startswith("<")
        if named and (c.co_qualname, c.co_firstlineno) not in entered:
            skipped.append((c.co_firstlineno, c.co_qualname))
            continue
        missed |= _lines(c) - ran
        stack += [k for k in c.co_consts if isinstance(k, CodeType)]
    out = []
    if skipped:
        out.append("  never entered: " + ", ".join(
            f"{name} (line {line})" for line, name in sorted(skipped)))
    if missed:
        out.append(f"  lines never run: {_ranges(missed)}")
    return out


# -- replay --------------------------------------------------------------------------

class Tracer:
    """Lines run and functions entered, per file under the package."""

    def __init__(self):
        self.ran: dict[str, set[int]] = {}
        self.entered: dict[str, set[tuple[str, int]]] = {}
        self._prefix = str(PACKAGE) + "/"

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        self.entered.setdefault(code.co_filename, set()).add(
            (code.co_qualname, code.co_firstlineno))
        ran = self.ran.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local


def _replay(work: Path) -> None:
    """Every command, then each workload's set-up and one chunk."""
    from mtvlm.cli import main

    def run(*argv: str, short: bool = False) -> None:
        extra = [a for item in SHORT_RUN for a in ("--override", item)] if short else []
        if main([*argv, *extra]) != 0:
            raise SystemExit(f"trace_traffic: `mtvlm {' '.join(argv)}` failed")

    data, manifest = work / "data", str(work / "data" / "manifest.jsonl")
    run("synth-data", "--kind", "single,pair,video", "--n", "4", "--seed", "5",
        "--out", str(data))
    run("pretrain-change", "--manifest", manifest, "--out", str(work / "stage1"), short=True)
    run("train", "--manifest", manifest, "--out", str(work / "run"),
        "--init", str(work / "stage1" / "stage1.ckpt"), short=True)
    for task, labels in (("vqa", []), ("cc", []),
                         ("video", ["--labels", "synthetic-video", "--lenient"])):
        preds = str(work / f"{task}.jsonl")
        run("infer", "--task", task, "--checkpoint", str(work / "run" / "model.ckpt"),
            "--manifest", manifest, "--out", preds)
        run("eval", "--task", task, "--predictions", preds, "--out", str(work / task),
            *labels)
    from mtvlm.data import load_manifest
    run("inspect-pack", "--manifest", manifest, "--id", load_manifest(manifest)[0].id,
        "--out", str(work / "pack.json"))
    run("lr-curve", "--out", str(work / "lr.csv"), "--override", "total_steps=20")
    run("ablate", "--out", str(work / "ablation"), "--seeds", "0", "--steps", "3")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for cls in (workloads.Joint, workloads.Stage1, workloads.Decode):
        wl = cls(seed=0)
        wl.set_up(work / cls.name)
        if wl.chunk().failed:
            raise SystemExit(f"trace_traffic: a {cls.name} chunk failed")


def main() -> int:
    tracer = Tracer()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        sys.settrace(tracer)
        try:
            _replay(Path(tmp))
        finally:
            sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        lines = report(code, tracer.ran.get(str(path), set()),
                       tracer.entered.get(str(path), set()))
        print(f"{path.relative_to(ROOT / 'src')}:", *(lines or ["  all run"]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
