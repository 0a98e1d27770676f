"""The benchmark's reference-drift gate, run inside the unit suite.

``perfbench/run.py`` trains 10 steps of the ``joint`` and ``stage1``
workloads on ``reference.json``'s seed before it measures anything, and
counts the run as failed when a loss moves by more than a relative 1e-9.
This test runs the same probes through ``perfbench/workloads.py`` (loaded
read-only), so a change to the arithmetic shows here before a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
bench = _load("run")
REFERENCE = json.loads(bench.REFERENCE.read_text())


@pytest.mark.parametrize("name", ["joint", "stage1"])
def test_probe_losses_match_reference(tmp_path, name):
    ref = REFERENCE[name]
    got = workloads.WORKLOADS[name].probe(ref["seed"], len(ref["losses"]), tmp_path)
    assert len(got) == len(ref["losses"])
    for step, (g, r) in enumerate(zip(got, ref["losses"])):
        assert abs(g - r) <= bench.REFERENCE_RTOL * abs(r), (
            f"{name} step {step}: loss {g!r} drifted from reference {r!r}")
