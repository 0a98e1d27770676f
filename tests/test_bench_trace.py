"""The benchmark's traced-run guards, run inside the unit suite.

A traced run of ``perfbench/run.py`` fails when a span its workload
expects never fires, when a count differs between two measured chunks,
or when a chunk's ``AdamW.step`` marks do not match its steps. This test
runs the same checks through ``perfbench/run.py``, ``spans.py`` and
``workloads.py`` (loaded read-only), with the shortest measured phase the
harness allows, so a change that trips them shows here before a benchmark
run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, as_name):
    spec = importlib.util.spec_from_file_location(as_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# run.layer_metrics imports spans by its plain name
spans = sys.modules.get("spans") or _load("spans", "spans")
workloads = _load("workloads", "perfbench_workloads_traced")
bench = _load("run", "perfbench_run_traced")


@pytest.mark.parametrize("name", ["joint", "stage1"])
def test_traced_phase_passes_the_benchmark_guards(tmp_path, name):
    wl = workloads.WORKLOADS[name](1)
    hooks = spans.Hooks()
    try:
        meter = spans.Meter(hooks)
        recorder = spans.Recorder(hooks)
        before = recorder.snapshot()
        setup_s = bench.set_up(wl, tmp_path, 1)
        in_setup = spans.window(recorder.snapshot(), before)
        phase = bench.Phase(wl, meter, 0, recorder)
        timings = phase.end_to_end(setup_s)
        values = bench.layer_metrics(wl, phase, in_setup, timings, timings)
    finally:
        hooks.close()
    assert phase.failed == 0, phase.notes
    assert phase.notes == []
    assert values["lm.forward_calls"] == values["trace.window_ops"]     # one per step
    assert values["trace.window_ops"] == workloads.CHUNK_STEPS[name]
