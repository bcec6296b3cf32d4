"""Smoke test of the benchmark itself: ``python3 perfbench/run.py --smoke``.

Runs every workload at minimum size (one period of cycles, which holds every
input class), untraced and traced, each in
its own process as the benchmark is normally run, and checks:

* the last line holds exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every output correct;
* every end-to-end metric (untraced) or per-layer metric (traced) named in
  BENCHMARK.json is in it with its unit, and every metric name the benchmark
  defines is printed on a line of its own with its unit;
* in the traced run, the per-layer self times plus the harness's own time add
  up to the traced wall time, short of it by exactly the tracer's own
  bookkeeping time, and that shortfall is no more than the measured tracing
  overhead (with 0.10 of slack: on shared CPUs the overhead ratio itself
  varies by that much from run to run);
* with only BENCHMARK.json and the benchmark's files present, the benchmark
  exits with an error and prints no result.

It also re-runs the inputs kept out of the pools for a known program defect
and says whether each still fails; that is a note, not a smoke failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# printed on every untraced run besides the gated ones (README.md says why
# each is not gated)
REPORTED = {"items_per_s.wall": "1/s", "probe_s.p50": "s",
            "item_s.p50": "s", "item_s.tail": "s", "verify_s.p50": "s",
            "verify_s.tail": "s", "undecided_frac": "ratio",
            "failed_frac": "ratio"}
SELF_TIMES = ("space.region_self_s", "space.ifs_descent_self_s", "maps.self_s",
              "walk.self_s", "certify.self_s", "measure_solver.self_s",
              "giet.self_s", "serialize.self_s", "cli.self_s", "harness.self_s")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _check_run(workload, trace, spec) -> list:
    p = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
              "--trace", str(trace)])
    where = f"{workload} trace={trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stderr}"]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last-line keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(wanted))} "
                        "differ from BENCHMARK.json")
    for name, unit in {**wanted, **({} if trace else REPORTED)}.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
        if name in wanted and metrics.get(name, {}).get("unit") != unit:
            problems.append(f"{where}: {name} has no value in unit {unit}")
    if trace and not problems:
        value = {k: v["value"] for k, v in metrics.items()}
        wall = value["trace.wall_s"]
        shortfall = 1 - sum(value[k] for k in SELF_TIMES) / wall
        allowed = max(value["trace_overhead"] - 1, 0) + 0.10
        if abs(shortfall - value["trace.self_s"] / wall) > 1e-6:
            problems.append(f"{where}: {shortfall:.4f} of the traced wall time "
                            "is attributed to no layer")
        if shortfall > allowed:
            problems.append(f"{where}: tracer bookkeeping is {shortfall:.4f} of "
                            f"the traced wall time, more than the overhead "
                            f"allows ({allowed:.4f})")
    print(f"smoke {where}: {'ok' if not problems else 'FAILED'}", file=sys.stderr)
    return problems


def _check_without_program() -> list:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        p = _run(["--workload", "certify_both", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (p.stdout.strip().splitlines() or [""])[-1]
    if p.returncode == 0 or last.startswith("{"):
        return [f"without the program: exit {p.returncode}, last line {last!r}"]
    return []


def _known_defects() -> list:
    import run
    from workloads import known_defects
    work = HERE / "_work" / "defects"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = run.Runner(run.import_program(), None, work)
        outcomes = [runner.run(item) for item in known_defects()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [f"{o.key}: " + (f"still fails ({o.note})" if not o.ok else
                            "passes now; return it to the pool and re-record")
            for o in outcomes]


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            problems += _check_run(workload, trace, spec)
    problems += _check_without_program()
    for note in _known_defects():
        print(f"smoke: known defect {note}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0
