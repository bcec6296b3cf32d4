"""Scenario batch front end.

A scenario is a JSON document (rationals as "p/q") naming a space, the
generators and the budgets; each invocation runs one scenario and writes
its report, certificate and optional CSV series atomically.  Exit codes:
0 certificate produced or diagnostics completed, 1 bad input, 2 undecided
within budget.  Reports carry no timestamps (a sibling .meta.json does),
so equal runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from typing import NamedTuple

from .rational import clip, exact, rat, rat_str
from .space import CompactSet, ternary_cantor
from .maps import PrefixTable, from_prefix_table, invert
from .giet import blow_up
from .walk import (Trajectory, estimate_entropy, estimate_stationary_measure,
                   global_contraction_report, invariance_residual, make_model)
from .certify import (UnalignedMeasure, UnprovedMeasure, assemble_free_pair,
                      find_morse_smale, solve_invariant_measure)
from . import serialize as ser

# the budgets each kind reads, with their defaults; a depth of None is the
# space's depth
BUDGETS = {"simulate": {"n": 40, "eps": "1/27", "depth": None},
           "certify-free": {"n": 40, "runs": 100, "eps": "1/27", "max_len": 6},
           "find-measure": {"depth": None, "d_max": 6},
           "morse-smale": {"n": 40, "runs": 100, "eps": "1/27"},
           "giet-blowup": {}}

SCENARIO_KEYS = {"kind", "space", "generators", "include_inverses",
                 "probabilities", "seed", "budgets", "giets", "blowup", "output"}
# the scenario fields each kind does not read, which it refuses
UNREAD = {"simulate": ("giets", "blowup"), "certify-free": ("giets", "blowup"),
          "find-measure": ("probabilities", "giets", "blowup"),
          "morse-smale": ("giets", "blowup"),
          "giet-blowup": ("generators", "include_inverses", "probabilities")}


class ScenarioError(ValueError):
    pass


class Scenario(NamedTuple):
    kind: str
    space: CompactSet  # None for giet-blowup
    generators: dict  # name -> PAHomeo
    probabilities: tuple  # Fractions aligned with generators; None: uniform
    seed: int
    budgets: dict
    giets: tuple  # PAHomeos, each on its giet's interval
    blowup: dict
    output: str


def parse_scenario(text: str) -> Scenario:
    """The scenario a JSON document states, with its space, generators
    (inverses appended when asked), walk law, giets and blow-up built."""
    try:
        obj = ser.only_keys(json.loads(text), SCENARIO_KEYS, "scenario")
        kind = obj.get("kind")
        if kind not in BUDGETS:
            raise ScenarioError(f"field 'kind': {clip(kind)} not one of {tuple(BUDGETS)}")
        # giet-blowup reads no space, so it needs none; it accepts an empty one
        spec = obj.get("space", {} if kind == "giet-blowup" else None)
        if not isinstance(spec, dict):
            raise ScenarioError("field 'space': missing or not an object")
        unread = [f for f in UNREAD[kind] if f in obj]
        if kind == "giet-blowup" and spec:
            unread.append("space")
        if unread:
            raise ScenarioError(f"field {unread[0]!r} is not read by {kind}")
        for key in ("budgets", "blowup"):
            if not isinstance(obj.get(key, {}), dict):
                raise ScenarioError(f"field {key!r}: {clip(obj[key])} is not an object")
        space, gens, probs, giets, blowup = None, {}, None, (), {}
        if kind == "giet-blowup":
            giets = tuple(ser.giet_from_obj(g) for g in obj.get("giets", ()))
            if not giets:
                raise ScenarioError("giet-blowup needs at least one giet")
            blowup = ser.only_keys(obj.get("blowup", {}), {"L", "rho"}, "blowup")
            blowup = {"L": exact(blowup.get("L", 3), int, "blowup 'L'"),
                      "rho": rat(blowup.get("rho", "1/3"))}
        else:
            if spec.get("ifs") == "ternary":
                ser.only_keys(spec, {"ifs", "depth"}, "space")
                space = ternary_cantor(exact(spec.get("depth", 3), int, "field 'space.depth'"))
            elif isinstance(spec.get("ifs"), str):
                raise ScenarioError(f"unknown space shorthand {clip(spec['ifs'])}")
            else:
                space = ser.space_from_obj(spec)
            for g in obj.get("generators", ()):
                ser.only_keys(g, {"name", "table" if "table" in g else "branches"}, "generator")
                name = exact(g["name"], str, "generator name")
                if name in gens:
                    raise ScenarioError(f"duplicate generator name {clip(name)}")
                if "table" in g:
                    rows = [ser._values(r, f"generator {clip(name)} table row", 3)
                            for r in g["table"]]
                    table = PrefixTable(tuple(
                        (src, dst, exact(sign, int, f"generator {clip(name)} orientation"))
                        for src, dst, sign in rows))
                    gens[name] = from_prefix_table(table, space, label=(name,))
                else:
                    gens[name] = ser.map_from_obj(
                        space, {"label": [name], "branches": g["branches"]})
            if not gens:
                raise ScenarioError("field 'generators': missing or empty")
            if exact(obj.get("include_inverses", False), bool, "field 'include_inverses'"):
                inverses = {n + "^-1": invert(g) for n, g in gens.items()}
                clash = sorted(inverses.keys() & gens.keys())
                if clash:
                    raise ScenarioError(f"duplicate generator names {clash}")
                gens.update(inverses)
            probs = obj.get("probabilities")
            if isinstance(probs, dict):
                if probs.keys() != gens.keys():
                    raise ScenarioError(
                        "probabilities must name every generator once: "
                        f"{sorted(probs.keys() ^ gens.keys())} unmatched")
                probs = [probs[n] for n in gens]
            if probs is not None:
                probs = tuple(rat(p) for p in ser._values(probs, "field 'probabilities'"))
                if sum(probs) != 1:
                    raise ScenarioError(
                        f"probabilities sum {rat_str(sum(probs))}, not 1")
        budgets = dict(obj.get("budgets", {}))
        for k, v in budgets.items():
            if k not in BUDGETS[kind]:
                raise ScenarioError(f"unknown budget key {k!r} for {kind}")
            if k == "eps":
                budgets[k] = rat(v)
            elif (k, v) != ("depth", None):
                exact(v, int, f"budget {k!r}")
        output = obj.get("output", "scenario")
        if os.path.basename(output) != output or output in ("", ".", ".."):
            raise ScenarioError(f"field 'output': {clip(output)} is not a file name")
        return Scenario(kind=kind, space=space, generators=gens,
                        probabilities=probs, seed=exact(obj.get("seed", 0), int, "field 'seed'"),
                        budgets=budgets, giets=giets, blowup=blowup,
                        output=output)
    except (KeyError, TypeError, AttributeError, IndexError,
            json.JSONDecodeError, RecursionError) as e:
        raise ScenarioError(f"malformed scenario ({type(e).__name__}: {e})") from None

# ---------------------------------------------------------------------------
# scenario execution


def _budget(s: Scenario) -> dict:
    """The budgets the scenario's kind reads: its defaults, then the
    scenario's budgets; a depth left unset is the space's."""
    out = {**BUDGETS[s.kind], **s.budgets}
    if "depth" in out and out["depth"] is None:
        out["depth"] = s.space.depth
    for k in ("n", "runs", "max_len"):
        if k in out and out[k] < 1:
            raise ScenarioError(f"budget {k!r}: {out[k]} is below 1")
    return out


def run_scenario(s: Scenario, out_dir: str, emit_series: bool):
    """(exit_code, verdict line); writes report/certificate/meta files."""
    bud = _budget(s)
    seed, stem = s.seed, s.output

    def done(code: int, line: str, **documents):
        """Write each document as <stem>_<name>.json, then the meta file."""
        for name, obj in documents.items():
            ser.write_json_atomic(os.path.join(out_dir, f"{stem}_{name}.json"),
                                  obj)
        ser.write_meta(os.path.join(out_dir, f"{stem}_meta.json"),
                       {"scenario_kind": s.kind})
        return code, line

    if s.kind == "giet-blowup":
        result = blow_up(s.giets, s.blowup["L"], s.blowup["rho"])
        tag = "exact" if result.exact else "inexact"
        return done(0, f"BLOWUP ({len(result.blown_points)} points, {tag})",
                    report={"kind": s.kind, "seed": seed,
                            "blown_points": len(result.blown_points),
                            "exact": result.exact,
                            "defects": list(result.defects)},
                    blowup=ser.blowup_to_scenario(result))

    if s.kind == "find-measure":
        res = solve_invariant_measure(s.generators, bud["depth"], bud["d_max"])
        if res:
            return done(0, (f"INVARIANT MEASURE (depth {res.depth}, "
                            f"consistent to {res.consistency_depth})"),
                        certificate=ser.certificate_to_obj(res),
                        report={"kind": s.kind, "seed": seed, "depth": res.depth,
                                "masses": [rat_str(m) for m in res.masses],
                                "consistency_depth": res.consistency_depth})
        if isinstance(res, UnalignedMeasure):
            return done(2, f"undecided: generators not cell-aligned at any depth <= {res.d_max}",
                        report={"kind": s.kind, "seed": seed, "budget": "d_max",
                                "d_max": res.d_max})
        if isinstance(res, UnprovedMeasure):
            return done(2, (f"undecided: {res.skipped} invariance equations "
                            f"not expressible at depth {res.depth}"),
                        report={"kind": s.kind, "seed": seed, "depth": res.depth,
                                "skipped": res.skipped})
        return done(0, f"INFEASIBLE (no invariant cell measure at depth {res.depth})",
                    report={"kind": s.kind, "seed": seed, "depth": res.depth,
                            "infeasible": True, "gap": rat_str(res.gap)})

    model = make_model(s.space, s.generators, s.probabilities, seed)

    if s.kind == "simulate":
        mu = estimate_stationary_measure(model, bud["n"] * 25, bud["depth"])
        masses = {}  # region pieces -> mass, map branches -> cell images; this run only
        avg, per_gen = invariance_residual(mu, model, masses)
        h = estimate_entropy(mu, model, masses)
        t = Trajectory(model, stream=0)
        rep = global_contraction_report(t, bud["depth"], bud["n"], bud["eps"])
        if emit_series:
            _emit_diameter_series(out_dir, stem, rep.scan.diameters)
        report = {"kind": s.kind, "seed": seed, "depth": bud["depth"],
                  "stationary_masses": [float(m) for m in mu.masses],
                  # the float residual splits every preimage, so it skips
                  # no equation
                  "residual": {"averaged": float(avg),
                               "per_generator": float(per_gen), "skipped": 0},
                  "entropy": h,
                  "contraction": {"F": [rat_str(f) for f in rep.F],
                                  "p": rep.p, "lambda": rep.lambda_fit}}
        return done(0, (f"SIMULATED (entropy {h:.4f}, "
                        f"p {'inf' if rep.p is None else rep.p})"),
                    report=report)

    if s.kind == "certify-free":
        cert = assemble_free_pair(model, bud["eps"], max_len=bud["max_len"],
                                  runs=bud["runs"], n_max=bud["n"])
        if cert:
            return done(0, "FREE (ping-pong verified)",
                        certificate=ser.certificate_to_obj(cert),
                        report={"kind": s.kind, "seed": seed, "verified": True,
                                "a1": list(cert.a1.label),
                                "a2": list(cert.a2.label)})
        return done(2, "undecided within budget",
                    report={"kind": s.kind, "seed": seed, "verified": False,
                            "stage": cert.stage, "flag": cert.flag})

    # morse-smale
    cert = find_morse_smale(model, bud["eps"], n_max=bud["n"], runs=bud["runs"])
    if cert:
        return done(0, f"MORSE-SMALE ({len(cert.periodic)} periodic points)",
                    certificate=ser.certificate_to_obj(cert),
                    report={"kind": s.kind, "seed": seed,
                            "word": list(cert.g.label),
                            "periodic": [[rat_str(x), p, rat_str(m)]
                                         for x, p, m in cert.periodic]})
    return done(2, "undecided within budget",
                report={"kind": s.kind, "seed": seed, "found": False})


def _emit_diameter_series(out_dir, stem, diameters):
    """Per-step image diameter of every depth-d cell, as plot-ready CSV; the
    diameters are int pairs, each written as the float of its Fraction.
    Each row ends in CRLF, and no field needs quoting, as csv.writer writes it."""
    field = functools.cache(lambda p: repr(p[0] / p[1]))  # once per distinct diameter
    lines = [",".join(["step"] + [f"diam_cell_{i}" for i in range(len(diameters))])]
    lines += (",".join([str(k), *map(field, row)]) for k, row in enumerate(zip(*diameters)))
    ser.write_text_atomic(os.path.join(out_dir, f"{stem}_series.csv"),
                          "\r\n".join(lines) + "\r\n")


# ---------------------------------------------------------------------------
# entry point


def _load_scenario_text(name: str) -> str:
    if os.path.exists(name):
        with open(name) as fh:
            return fh.read()
    base = name if name.endswith(".json") else name + ".json"
    pkg = resources.files("cantorwalk") / "scenarios" / base
    if pkg.is_file():
        return pkg.read_text()
    raise ScenarioError(f"scenario {name!r} not found on disk or bundled")


def _usage_error(message):
    """argparse's error hook: a usage error is bad input, exit 1."""
    raise ScenarioError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One subcommand per kind, each with only the flags that kind reads:
    --runs and --depth where it reads that budget, --emit-series on
    simulate."""
    ap = argparse.ArgumentParser(
        prog="cantorwalk",
        description="Random-walk diagnostics and Tits-alternative "
                    "certificates on compact subsets of the line.")
    ap.error = _usage_error
    sub = ap.add_subparsers(dest="command", required=True)
    for kind, budgets in BUDGETS.items():
        p = sub.add_parser(kind)
        p.error = _usage_error
        p.add_argument("scenario", help="scenario file or bundled name")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".", metavar="DIR")
        for flag in ("runs", "depth"):
            if flag in budgets:
                p.add_argument(f"--{flag}", type=int)
        if kind == "simulate":
            p.add_argument("--emit-series", action="store_true")
    pv = sub.add_parser("verify")
    pv.error = _usage_error
    pv.add_argument("certificate", help="certificate file to re-check")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            with open(args.certificate) as fh:
                try:
                    obj = json.load(fh)
                except RecursionError as e:  # nesting too deep to decode
                    raise ser.SerializeError(f"malformed certificate ({e})") from None
            verdict = ser.verify_certificate(obj)
            if verdict:
                print("VERIFIED")
                return 0
            print(f"INVALID ({verdict.reason})")
            return 1
        scn = parse_scenario(_load_scenario_text(args.scenario))
        if scn.kind != args.command:
            raise ScenarioError(
                f"scenario kind {scn.kind!r} does not match "
                f"command {args.command!r}")
        flags = vars(args)
        budgets = {k: flags[k] for k in ("runs", "depth") if flags.get(k) is not None}
        scn = scn._replace(seed=scn.seed if args.seed is None else args.seed,
                           budgets={**scn.budgets, **budgets})
        code, line = run_scenario(scn, args.out, flags.get("emit_series", False))
        print(line)
        return code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
