"""The A/B driver's summary, fed canned perfbench result lines.

No test here runs the benchmark: ``summarise`` and its helpers are pure,
and ``main`` runs with extraction, git and perfbench replaced by fakes.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def line(correct=True, failed=0, **values):
    """A result line as perfbench prints it."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}})


def pair(seed, base, change, workload="decode", index=0):
    return {"workload": workload, "seed": seed, "first": bench_ab.first_side(index),
            "base": bench_ab.result_line('{"info": {}}\n' + base),
            "change": bench_ab.result_line('{"info": {}}\n' + change)}


def test_parse_seeds():
    assert bench_ab.parse_seeds("82-85,90") == [82, 83, 84, 85, 90]
    assert bench_ab.parse_seeds("7") == [7]
    for bad in ("", "3,3", "1-3,2"):
        with pytest.raises(ValueError):
            bench_ab.parse_seeds(bad)


def test_sides_alternate_which_runs_first():
    assert [bench_ab.first_side(i) for i in range(4)] == ["base", "change"] * 2


def test_result_line_is_the_last_stdout_line():
    assert bench_ab.result_line('{"info": 1}\n{"correct": true}\n') == {"correct": True}
    with pytest.raises(ValueError):
        bench_ab.result_line("")


def test_a_clear_gain_is_a_gain_with_its_medians_quartiles_and_ratios():
    pairs = [pair(s, line(tokens_per_s=100.0 + s, peak_rss_mb=70.0),
                  line(tokens_per_s=130.0 + s, peak_rss_mb=70.0), index=s)
             for s in range(10)]
    out = bench_ab.summarise(pairs, SPEC)["decode"]
    assert out["pairs_run"] == out["pairs_used"] == 10 and out["excluded"] == []
    tps = out["metrics"]["tokens_per_s"]
    assert tps["base"]["median"] == 104.5 and tps["change"]["median"] == 134.5
    assert (tps["base"]["q1"], tps["base"]["q3"]) == (102.25, 106.75)
    assert tps["ratios"] == [(130.0 + s) / (100.0 + s) for s in range(10)]
    assert tps["wins"] == 10 and tps["verdict"] == "gain"
    assert tps["bound"] == 0.25 and tps["better"] == "higher"
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["verdict"] == "within bound"
    assert set(out["metrics"]) == {"tokens_per_s", "peak_rss_mb"}


def test_eight_wins_of_ten_is_no_gain():
    pairs = [pair(s, line(tokens_per_s=100.0), line(tokens_per_s=140.0 if s < 8 else 90.0))
             for s in range(10)]
    tps = bench_ab.summarise(pairs, SPEC)["decode"]["metrics"]["tokens_per_s"]
    assert tps["wins"] == 8 and tps["verdict"] == "within bound"


def test_a_pair_with_an_incorrect_side_is_listed_and_left_out():
    pairs = [pair(1, line(tokens_per_s=100.0), line(tokens_per_s=120.0)),
             pair(2, line(correct=False, failed=125, tokens_per_s=10.0),
                  line(tokens_per_s=120.0)),
             pair(3, line(tokens_per_s=100.0), line(correct=False, tokens_per_s=1.0)),
             pair(4, line(tokens_per_s=102.0), line(tokens_per_s=121.0))]
    out = bench_ab.summarise(pairs, SPEC)["decode"]
    assert out["pairs_run"] == 4 and out["pairs_used"] == 2
    assert out["excluded"] == [
        {"seed": 2, "base_correct": False, "change_correct": True},
        {"seed": 3, "base_correct": True, "change_correct": False}]
    assert out["failed_ops"] == {"base": 125, "change": 0}
    tps = out["metrics"]["tokens_per_s"]
    assert tps["base"]["values"] == [100.0, 102.0]
    assert tps["change"]["values"] == [120.0, 121.0]


@pytest.mark.parametrize("base,change,want", [
    ([10.0] * 6, [13.0] * 6, "worse"),                       # 30% slower > 0.25
    ([10.0] * 6, [12.0] * 6, "within bound"),                # 20% slower
    ([6.0, 8.0, 10.0, 12.0, 14.0, 16.0], [11.0] * 6, "unresolved"),
    ([6.0, 8.0, 10.0, 12.0, 14.0, 16.0], [5.0] * 6, "gain"),
])
def test_lower_is_better_verdicts(base, change, want):
    pairs = [pair(i, line(step_ms_p50=b), line(step_ms_p50=c))
             for i, (b, c) in enumerate(zip(base, change))]
    got = bench_ab.summarise(pairs, SPEC)["decode"]["metrics"]["step_ms_p50"]
    assert got["verdict"] == want


def test_each_sides_cpu_seconds_and_minor_faults_are_medians_over_the_pairs_used():
    def with_usage(text, cpu_s, faults):
        return json.dumps({**json.loads(text),
                           "rusage": {"cpu_s": cpu_s, "minor_faults": faults}})

    pairs = [pair(s, with_usage(line(steps_per_s=1.0), 20.0 + s, 9000 + 100 * s),
                  with_usage(line(steps_per_s=1.0), 19.0 + s, 8000 + 10 * s), index=s)
             for s in range(4)]
    pairs.append(pair(9, with_usage(line(correct=False), 99.0, 10**6),
                      with_usage(line(), 99.0, 10**6)))
    out = bench_ab.summarise(pairs, SPEC)["decode"]
    assert out["rusage"] == {"base": {"cpu_s": 21.5, "minor_faults": 9150},
                             "change": {"cpu_s": 20.5, "minor_faults": 8015}}
    # result lines without rusage, as the other tests feed, give no medians
    bare = bench_ab.summarise([pair(1, line(), line())], SPEC)["decode"]
    assert bare["rusage"] == {"base": {}, "change": {}}


def test_a_run_records_the_cpu_seconds_and_minor_faults_of_its_process(monkeypatch):
    readings = iter([SimpleNamespace(ru_utime=1.5, ru_stime=0.25, ru_minflt=100),
                     SimpleNamespace(ru_utime=12.0, ru_stime=1.0, ru_minflt=4100)])
    monkeypatch.setattr(bench_ab.resource, "getrusage", lambda who: next(readings))
    monkeypatch.setattr(bench_ab.subprocess, "run", lambda *a, **k: SimpleNamespace(
        returncode=0, stdout=line(steps_per_s=2.0) + "\n", stderr=""))
    got = bench_ab.run_perfbench(ROOT, "joint", 1, 10, 0)
    assert got["correct"] is True and got["metrics"]["steps_per_s"]["value"] == 2.0
    assert got["rusage"] == {"cpu_s": 11.25, "minor_faults": 4000}


def test_traced_counts_that_differ_are_named():
    base = {"correct": True, "metrics": {"autograd.tape_nodes": {"value": 110},
                                         "autograd.op.linear.calls": {"value": 30},
                                         "lm.forward_ms": {"value": 5.0}}}
    same = json.loads(json.dumps(base))
    same["metrics"]["lm.forward_ms"]["value"] = 4.0        # a time, not a count
    assert bench_ab.count_mismatches(base, same, SPEC) == []
    moved = json.loads(json.dumps(same))
    moved["metrics"]["autograd.tape_nodes"]["value"] = 103
    del moved["metrics"]["autograd.op.linear.calls"]
    assert bench_ab.count_mismatches(base, moved, SPEC) == [
        "autograd.tape_nodes", "autograd.op.linear.calls"]
    out = bench_ab.summarise([], SPEC, [{"workload": "joint", "seed": 1,
                                         "base": base, "change": moved}])
    assert out["joint"]["traced"]["count_mismatches"] == [
        "autograd.tape_nodes", "autograd.op.linear.calls"]
    assert out["joint"]["traced"]["change"]["autograd.tape_nodes"] == 103


def test_both_sides_run_from_sibling_extracts_of_base_and_head(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    extracted, ran = {}, set()

    def extract(repo, ref, dest):
        extracted[ref] = dest
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "m.py").write_text("x = 1\n" * (3 if ref == "HEAD" else 2))
        return "commit-of-" + ref

    def run_perfbench(tree, workload, seed, seconds, trace):
        ran.add(tree)
        return json.loads(line(steps_per_s=1.0))

    git_calls = []
    monkeypatch.setattr(bench_ab, "extract", extract)
    monkeypatch.setattr(bench_ab, "run_perfbench", run_perfbench)
    monkeypatch.setattr(bench_ab, "_git", lambda repo, *args: git_calls.append(args) or "")
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--base", "HEAD~1", "--workloads", "joint", "--seeds", "1-2",
                          "--trace-seed", "7", "--out", str(out)]) == 0
    assert set(extracted) == {"HEAD~1", "HEAD"}
    base, change = extracted["HEAD~1"], extracted["HEAD"]
    assert base != change and base.parent == change.parent
    assert ran == {base, change}
    assert ROOT.resolve() not in {base.resolve(), change.resolve(), base.parent.resolve()}
    assert not base.parent.exists()         # the scratch directory is removed
    report = json.loads(out.read_text())
    assert report["base"] == {"ref": "HEAD~1", "commit": "commit-of-HEAD~1"}
    assert report["change"] == {"commit": "commit-of-HEAD", "dirty": False}
    assert report["src_lines"] == {"base": 2, "change": 3, "net": 1}
    assert git_calls == [("status", "--porcelain", "--untracked-files=no")]


def test_uncommitted_edits_are_flagged_and_warned_about(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench_ab, "extract", lambda repo, ref, dest: ref)
    monkeypatch.setattr(bench_ab, "run_perfbench", lambda *a: json.loads(line()))
    monkeypatch.setattr(bench_ab, "_git", lambda repo, *args: " M src/mtvlm/lm.py\n")
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--base", "HEAD~1", "--workloads", "joint", "--seeds", "1",
                          "--out", str(out)]) == 0
    assert json.loads(out.read_text())["change"]["dirty"] is True
    assert "uncommitted edits are not measured" in capsys.readouterr().err
