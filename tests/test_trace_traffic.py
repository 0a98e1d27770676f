"""The traffic tracer's report, fed a compiled snippet and canned trace sets.

No test here replays the commands: ``report`` is pure, and the sets stand
in for what ``Tracer`` records.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("trace_traffic",
                                               ROOT / "tools" / "trace_traffic.py")
trace_traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_traffic)

SNIPPET = '''\
def used(x):
    if x:
        return 1
    return [i for i in range(x)]


def unused():
    return 2


class K:
    def method(self):
        return 3
'''
CODE = compile(SNIPPET, "snippet.py", "exec")
IMPORTED = {("<module>", 1), ("K", 11)}
DEFINED = {1, 7, 11, 12}          # the lines import runs


def test_report_names_functions_never_entered_and_lines_never_run():
    got = trace_traffic.report(CODE, DEFINED | {2, 3}, IMPORTED | {("used", 1)})
    assert got == ["  never entered: unused (line 7), K.method (line 12)",
                   "  lines never run: 4"]


def test_report_is_empty_when_everything_ran():
    entered = IMPORTED | {("used", 1), ("unused", 7), ("K.method", 12)}
    assert trace_traffic.report(CODE, DEFINED | {2, 3, 4, 8, 13}, entered) == []


def test_report_of_a_module_never_imported_is_one_line():
    assert trace_traffic.report(CODE, set(), set()) == ["  never imported"]


def test_line_ranges():
    assert trace_traffic._ranges({3, 4, 5, 9, 11, 12}) == "3-5, 9, 11-12"
    assert trace_traffic._ranges(set()) == ""
