"""cantorwalk benchmark: one workload timed end to end, or traced per layer.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload certify_both --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke    # every workload at minimum size
    python3 perfbench/run.py --record   # rewrite expected.json (see README.md)

One process runs the workload closed loop, one item at a time.  The program
is driven only through its public entry points: ``cli.main`` for scenarios
and their ``verify``, the ``maps`` functions for break_words.  Every output is
checked against ``expected.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit, with
the facts needed to compare runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RECORD = HERE / "expected.json"

SETUP_REPEATS = 7
DIGEST_HEX = 24
TAIL_BEYOND = 10
CAP = 1.4           # a run stops early past CAP times its nominal length
PROBE_STEPS = 600
PROBE_REF_S = 0.010  # probe time that defines a reference second (README.md)
PROBE_EVERY = 0.5    # seconds between probes inside an item

SETUP_CODE = ("import time; t = time.perf_counter(); import cantorwalk.cli; "
              "d = time.perf_counter() - t; import cantorwalk; "
              "print(d); print(cantorwalk.__file__)")

clock = time.perf_counter


class BenchError(RuntimeError):
    pass


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


# ---------------------------------------------------------------------------
# the program under test


def program_present() -> bool:
    return (SRC / "cantorwalk" / "cli.py").is_file()


def import_program():
    """The cantorwalk package from this checkout's src/, never another copy."""
    sys.path.insert(0, str(SRC))
    import cantorwalk
    import cantorwalk.cli
    if not Path(cantorwalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported cantorwalk from {cantorwalk.__file__}, "
                         f"not from {SRC}")
    return cantorwalk


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Seconds to ``import cantorwalk.cli`` in a fresh interpreter, once per
    repeat; each child is waited for before the next starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(repeats):
        p = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                           env=env, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise BenchError(f"import failed in a fresh interpreter:\n{p.stderr}")
        seconds, path = p.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"fresh interpreter imported {path}")
        times.append(float(seconds))
    return times


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (checkout is not a git repository)"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return p.stdout.strip() or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "cantorwalk").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# machine speed


def probe():
    """A fixed piece of pure-Python exact arithmetic and small container
    work, about PROBE_REF_S on a 2 GHz Xeon vCPU, with the garbage collector
    off so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc, counts = Fraction(0), {}
        for i in range(1, PROBE_STEPS):
            acc = (acc + Fraction(i * 7 + 1, 3 ** (i % 20) + 1) * Fraction(2, 3)) % 5
            key = (i % 97, str(i % 13))
            counts[key] = counts.get(key, 0) + 1
            sorted(((i * 31) % 17, (i * 7) % 11, i % 5))
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Seconds of the work between probes, in wall and reference seconds.

    The shared machine's speed swings by up to 2x for seconds at a time.  The
    probe runs at every ``mark()`` and, from a timer signal, every
    PROBE_EVERY seconds in between, also inside an item.  The time between
    two probes is converted to reference seconds by PROBE_REF_S over the
    geometric mean of the two probe times; probe time itself is counted in
    neither total (README.md, "Reference seconds")."""

    def __init__(self):
        self.wall = self.ref = 0.0
        self.probed = 0.0   # seconds spent in probes
        self.probes = []
        self._end = self._last = None
        self._busy = False

    def work_clock(self) -> float:
        """``clock()`` less the time spent in probes, for timing items."""
        return clock() - self.probed

    def _probe(self, *_):
        if self._busy:      # a timer signal during a probe or a pause
            return
        self._busy = True
        t0 = clock()
        probe()
        t1 = clock()
        p = t1 - t0
        self.probed += p
        if self._end is not None:
            self.wall += t0 - self._end
            self.ref += (t0 - self._end) * PROBE_REF_S / math.sqrt(self._last * p)
        self._end, self._last = t1, p
        self.probes.append(p)
        self._busy = False

    def mark(self) -> tuple:
        """(wall, reference) seconds so far, after a fresh probe."""
        self._probe()
        return self.wall, self.ref

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._resume()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _resume(self):
        self._end = None    # the time since the last probe is not work
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)

    @contextlib.contextmanager
    def paused(self):
        """Neither probe nor count the time inside the block."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        self._busy = True   # a signal still pending is ignored
        try:
            yield
        finally:
            self._busy = False
            self._resume()


# ---------------------------------------------------------------------------
# running and checking items


@dataclass
class Outcome:
    key: str
    ok: bool
    code: object            # exit code; None for break_words
    item_s: float
    verify_s: float = None  # set when the item wrote a certificate
    note: str = ""


class Runner:
    """Runs items through the program's public entry points and checks each
    output against the record."""

    def __init__(self, cw, record, work: Path, item_clock=clock):
        """``record`` maps input keys to recorded outputs; None skips the
        comparison (when the record is being made).  ``item_clock`` times
        items and ``verify``."""
        from workloads import A1, A2
        self.cli, self.maps = cw.cli, cw.maps
        self.record = record
        self.clock = item_clock
        self.observed = {}
        self.out = work / "out"
        self.scenario = work / "scenario.json"
        self.out.mkdir(parents=True)
        m = cw.maps
        space = cw.space.ternary_cantor(3)
        a1, a2 = (m.from_prefix_table(m.PrefixTable(tuple(map(tuple, t))),
                                      space, label=(n,))
                  for n, t in (("A1", A1), ("A2", A2)))
        self.letters = (a1, m.invert(a1), a2, m.invert(a2))

    def run(self, item) -> Outcome:
        if item.command == "break-words":
            return self._words(item)
        return self._scenario(item)

    def _call(self, argv):
        """(exit code, seconds, error) of one ``cli.main`` call."""
        buf = io.StringIO()
        err = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = self.clock()
            try:
                code = self.cli.main(argv)
            except SystemExit as e:
                code, err = e.code, f"SystemExit({e.code}): {buf.getvalue()}"
            except Exception:
                code, err = None, traceback.format_exc()
            t1 = self.clock()
        return code, t1 - t0, err

    def _check(self, item, observed, err, problem="") -> tuple:
        """(ok, note): no error, a sound output, and the recorded bytes."""
        self.observed[item.key] = observed
        if err:
            return False, err.strip().splitlines()[-1]
        if problem:
            return False, problem
        if self.record is None:
            return True, ""
        expected = self.record.get(item.key)
        if expected is None:
            return False, "input not in the record"
        if observed != expected:
            return False, f"observed {observed} != recorded {expected}"
        return True, ""

    def _scenario(self, item) -> Outcome:
        for f in self.out.iterdir():
            f.unlink()
        if item.bundled:
            source, stem = item.bundled, item.bundled
        else:
            self.scenario.write_text(item.text)
            source, stem = str(self.scenario), "item"
        code, item_s, err = self._call(
            [item.command, source, "--out", str(self.out), *item.flags])
        files = {}
        for f in sorted(self.out.iterdir()):
            suffix = f.name[len(stem) + 1:]
            if suffix != "meta.json":   # carries written_at
                files[suffix] = digest(f.read_bytes())
        verify_s, problem = None, ""
        if code not in (0, 2):
            problem = f"exit {code}"
        if "certificate.json" in files and err is None:
            vcode, verify_s, err = self._call(
                ["verify", str(self.out / f"{stem}_certificate.json")])
            if vcode != 0:
                problem = f"verify exit {vcode}"
        observed = {"exit": code, "files": files}
        if not item.bundled:
            observed["input"] = digest(item.text + " ".join(item.flags))
        ok, note = self._check(item, observed, err, problem)
        return Outcome(item.key, ok, code, item_s, verify_s, note)

    def _word(self, letters):
        w = self.letters[letters[0]]
        for j in letters[1:]:
            w = self.maps.compose(self.letters[j], w)
        return w

    def _words(self, item) -> Outcome:
        """Criterion 2: every break pair of h∘g is a break pair of g or has
        an endpoint in g^-1(breaks of h)."""
        g_txt, h_txt = item.text.split("|")
        m = self.maps
        err = None
        t0 = self.clock()
        try:
            g = self._word([int(x) for x in g_txt.split()])
            h = self._word([int(x) for x in h_txt.split()])
            gi = m.invert(g)
            allowed = set(m.break_pairs(g))
            pulled = {m.apply(gi, p) for p in m.break_points(h)}
            hg = m.break_pairs(m.compose(h, g))
        except Exception:
            err = traceback.format_exc()
        item_s = self.clock() - t0
        if err:
            return Outcome(item.key, False, None, item_s, note=err.strip().splitlines()[-1])
        outside = [bp for bp in hg if bp not in allowed
                   and bp.a not in pulled and bp.b not in pulled]

        def pairs(bps):
            return " ".join(f"{bp.a}:{bp.b}" for bp in sorted(bps))

        text = "\n".join([f"g {pairs(allowed)}", f"hg {pairs(hg)}",
                          "pulled " + " ".join(map(str, sorted(pulled)))])
        observed = {"input": digest(item.text), "result": digest(text)}
        problem = (f"{len(outside)} break pairs of h∘g outside the allowed set"
                   if outside else "")
        ok, note = self._check(item, observed, None, problem)
        return Outcome(item.key, ok, None, item_s, note=note)


@dataclass
class Phase:
    outcomes: list = field(default_factory=list)
    items: list = field(default_factory=list)
    wall: float = 0.0       # seconds of the items, checks and verify included
    ref: float = 0.0        # the same in reference seconds; 0 without a meter
    probes: list = field(default_factory=list)
    setup: list = field(default_factory=list)


def setup_schedule(n_cycles: int, repeats: int = SETUP_REPEATS) -> list:
    """Cycle boundaries (0: before the first cycle) at which the set-up
    samples are taken, spread evenly over the run so that their median is
    not one moment's machine speed."""
    return [round(i * n_cycles / (repeats - 1)) for i in range(repeats)]


def timed_phase(run, cycles, n_cycles: int, cap: float = float("inf"),
                meter: Meter = None, setup_at=()) -> Phase:
    """Run ``n_cycles`` cycles, closed loop, one item at a time; stop early,
    at a cycle boundary, only past ``cap`` seconds.

    With a ``meter``, it probes the machine's speed between items and inside
    them, and the phase's seconds leave the probes out.  A set-up
    sample is taken, untimed and unprobed, at each cycle boundary listed in
    ``setup_at``; those after an early stop are taken at the stop."""
    ph = Phase()
    t_start = clock()
    with meter or contextlib.nullcontext():

        def boundary(c, last=False):
            n = sum(1 for b in setup_at if b == c or (last and b > c))
            if n:
                with meter.paused():
                    ph.setup += measure_setup(n)

        boundary(0)
        for c, cycle in zip(range(1, n_cycles + 1), cycles):
            for item in cycle:
                t0 = clock()
                ph.outcomes.append(run(item))
                ph.items.append(item)
                if not meter:
                    ph.wall += clock() - t0
            stop = clock() - t_start > cap
            boundary(c, last=stop)
            if stop:
                break
        if meter:
            ph.wall, ph.ref = meter.mark()
            ph.probes = meter.probes
    return ph


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile, n beyond): the highest percentile with at least
    TAIL_BEYOND values above it; the maximum when there are too few."""
    v = sorted(values)
    n = len(v)
    if n > TAIL_BEYOND:
        return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return v[-1], 100.0, 0


def timing(prefix, values):
    """Median and tail lines for a list of seconds."""
    if not values:
        return {f"{prefix}.p50": (None, "s", "no samples"),
                f"{prefix}.tail": (None, "s", "no samples")}
    t, pct, beyond = tail(values)
    return {f"{prefix}.p50": (statistics.median(values), "s", f"n={len(values)}"),
            f"{prefix}.tail": (t, "s", f"p{pct:.1f}: {beyond} of {len(values)} beyond")}


def end_to_end(setup, phase):
    outcomes, wall = phase.outcomes, phase.wall
    n = len(outcomes)
    undecided = sum(1 for o in outcomes if o.code == 2)
    failed = sum(1 for o in outcomes if not o.ok)
    m = {}
    if setup:
        m["setup_s"] = (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh-interpreter imports")
    m.update(timing("item_s", [o.item_s for o in outcomes]))
    m["items_per_s"] = (n / phase.ref, "1/s",
                        f"{n} items in {phase.ref:.2f} reference s")
    m["items_per_s.wall"] = (n / wall, "1/s", f"{n} items in {wall:.2f} s")
    m["probe_s.p50"] = (statistics.median(phase.probes), "s",
                        f"median of {len(phase.probes)} probes; reference "
                        f"{PROBE_REF_S} s")
    m.update(timing("verify_s", [o.verify_s for o in outcomes
                                 if o.verify_s is not None]))
    m["undecided_frac"] = (undecided / n, "ratio", f"{undecided} of {n} exit 2")
    m["failed_frac"] = (failed / n, "ratio", f"{failed} of {n}")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "ru_maxrss of this process")
    return m


# ---------------------------------------------------------------------------
# one benchmark run


def context(name, seed, seconds, trace, why):
    import numpy
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": why,
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "platform": platform.platform(),
        "limits": (f"{nproc} CPUs shared with other tenants; wall-clock time "
                   "of this process only; no hardware counters and no "
                   "system-wide tracing"),
        "loop": "closed loop, one item at a time, one process",
    }


def load_record() -> dict:
    return json.loads(RECORD.read_text()) if RECORD.is_file() else {}


def benchmark(name, seed, seconds, trace, bench_spec) -> dict:
    from workloads import WARM_PAIR, WORKLOADS, bundled_items
    workload = WORKLOADS[name]
    period = sum(workload.cycle_seconds)
    cw = import_program()
    record = load_record()
    rec = dict(record.get(name, {}))
    rec.update(record.get("bundled", {}))
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        meter = Meter()
        runner = Runner(cw, rec, work, meter.work_clock)
        # warm lazy state outside every timed region: the bundled-scenario
        # lookup, the first Philox draw, csv and tempfile, verify, the break
        # check (its warm-up pair is not in the record, so not checked)
        bundled = [runner.run(it) for it in bundled_items()]
        runner.run(WARM_PAIR)
        probe()
        gc.collect()
        if not trace:
            n_cycles = workload.n_cycles(seconds)
            phase = timed_phase(
                runner.run, workload.cycles(seed), n_cycles,
                CAP * max(seconds, period), meter,
                setup_at=setup_schedule(n_cycles))
            setup = phase.setup
            metrics = end_to_end(setup, phase)
            outcomes = phase.outcomes
            reported = {m["name"] for m in bench_spec["end_to_end"]}
            extra = {}
        else:
            phase = timed_phase(
                runner.run, workload.cycles(seed), workload.n_cycles(seconds / 2),
                CAP * max(seconds / 2, period), meter)
            items, setup = phase.items, []
            more, more_bundled, wall_t, layer, dump = traced_phase(runner, items)
            outcomes = phase.outcomes + more
            bundled += more_bundled
            metrics = end_to_end(None, phase)
            metrics.update({k: (v, u, "") for k, (v, u) in layer.items()})
            metrics["trace_overhead"] = (wall_t / phase.wall, "ratio",
                                         f"traced {wall_t:.2f} s / untraced "
                                         f"{phase.wall:.2f} s, same {len(items)} items")
            reported = {m["name"] for m in bench_spec["per_layer"]}
            extra = {"trace": dump}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [o for o in outcomes if not o.ok]
    bundled_failed = [o for o in bundled if not o.ok]
    why = next(w["why"] for w in bench_spec["workloads"] if w["name"] == name)
    return {"context": context(name, seed, seconds, trace, why),
            "metrics": metrics, "reported": reported,
            "attempted": len(outcomes), "failed": failed, "outcomes": outcomes,
            "bundled_failed": bundled_failed,
            "setup_samples": setup, "probes": phase.probes, **extra}


def traced_phase(runner, items):
    """The bundled scenarios, then the given items again, under the tracer.

    Returns (item outcomes, bundled outcomes, seconds for the items,
    per-layer metrics, trace dump)."""
    from tracer import Tracer
    from workloads import bundled_items
    tracer = Tracer()
    tracer.install()
    try:
        run = tracer.wrap_harness(runner.run, "harness.item")
        tracer.start()
        bundled = [run(it) for it in bundled_items()]
        phase = timed_phase(run, [items], 1)
        wall = tracer.stop()
    finally:
        tracer.uninstall()
    return (phase.outcomes, bundled, phase.wall, tracer.layer_metrics(wall),
            tracer.dump())


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report(result) -> int:
    ctx = result["context"]
    print(f"# cantorwalk benchmark: workload={ctx['workload']} seed={ctx['seed']} "
          f"seconds={ctx['seconds']} trace={ctx['trace']}")
    for k in ("why", "git_sha", "src_sha256", "python", "numpy", "nproc",
              "platform", "loop", "limits"):
        print(f"# {k}: {ctx[k]}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"{name:30s} {fmt(value):>24s} {unit:6s} {note}")
    for o in result["failed"] + result["bundled_failed"]:
        print(f"# FAILED {o.key}: {o.note}")
    stem = f"{ctx['workload']}-seed{ctx['seed']}-trace{ctx['trace']}"
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    detail = {"context": ctx,
              "metrics": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in result["metrics"].items()},
              "attempted": result["attempted"],
              "outcomes": [vars(o) for o in result["outcomes"]],
              "failed": [vars(o) for o in result["failed"]],
              "bundled_failed": [vars(o) for o in result["bundled_failed"]],
              "setup_samples": result["setup_samples"],
              "probes": result["probes"]}
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if "trace" in result:
        (out / f"{stem}-spans.json").write_text(json.dumps(result["trace"]))
    print(f"# details: {(out / stem).relative_to(ROOT)}.json")
    failed = len(result["failed"])
    line = {"correct": failed == 0 and not result["bundled_failed"],
            "attempted": result["attempted"], "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in result["metrics"].items()
                        if k in result["reported"]}}
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# the record


def record_all() -> int:
    """Run every pool input once and write what the program produced as the
    record.  Only sound outputs are recorded: exit 0 or 2, certificates that
    verify, no break-check violations.  Unsound inputs are listed and make
    the command fail; the record is then left unchanged."""
    from workloads import WORKLOADS, bundled_items
    cw = import_program()
    work = WORK / f"record-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out = {"format": 1}
    unsound = []
    try:
        runner = Runner(cw, None, work)
        groups = [("bundled", bundled_items())] + \
            [(n, w.all_items()) for n, w in WORKLOADS.items()]
        for group, items in groups:
            t0 = clock()
            for item in items:
                o = runner.run(item)
                if not o.ok:
                    unsound.append(f"{item.key}: {o.note}")
                out.setdefault(group, {})[item.key] = runner.observed[item.key]
            print(f"recorded {group}: {len(items)} inputs in "
                  f"{clock() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if unsound:
        print("unsound outputs, record not written:", *unsound, sep="\n  ")
        return 1
    RECORD.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at minimum size and check the output")
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args(argv)
    if not program_present():
        print(f"error: no cantorwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        from smoke import smoke
        return smoke()
    if args.record:
        return record_all()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return report(benchmark(args.workload, args.seed, args.seconds,
                            args.trace, bench_spec))


if __name__ == "__main__":
    sys.exit(main())
