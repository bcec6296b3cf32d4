"""Every input of the benchmark's correctness record still gives its output.

perfbench/expected.json holds, for each bundled scenario and each pool
input of the benchmark's workloads, the exit code and the digests of the
files the program wrote (and of the input itself), or of a break check's
result.  The test runs every one of those inputs through the benchmark's
own Runner, as ``perfbench/run.py --record`` does, and lists each key whose
exit code or digests moved.
"""

import json
from pathlib import Path

import cantorwalk.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _moved(expected: dict, observed: dict) -> list:
    """The fields of one record entry that differ, files one by one."""
    fields = sorted(k for k in expected.keys() | observed.keys()
                    if k != "files" and expected.get(k) != observed.get(k))
    old, new = expected.get("files", {}), observed.get("files", {})
    return fields + sorted(f"files/{f}" for f in old.keys() | new.keys()
                           if old.get(f) != new.get(f))


def test_every_recorded_input_gives_its_recorded_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads
    record = json.loads((PERFBENCH / "expected.json").read_text())
    runner = run.Runner(cantorwalk, None, tmp_path)
    groups = [("bundled", workloads.bundled_items())] + [
        (name, w.all_items()) for name, w in workloads.WORKLOADS.items()]
    assert sorted(k for k in record if k != "format") == sorted(g for g, _ in groups)
    moved = []
    for group, items in groups:
        assert sorted(it.key for it in items) == sorted(record[group]), group
        for item in items:
            runner.run(item)
            if diff := _moved(record[group][item.key], runner.observed[item.key]):
                moved.append(f"{item.key}: {', '.join(diff)}")
    assert not moved, "\n".join(moved)
