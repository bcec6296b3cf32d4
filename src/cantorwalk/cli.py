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
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from .rational import rat, rat_str
from .space import CompactSet, ternary_cantor
from .maps import PrefixTable, from_prefix_table, invert
from .giet import blow_up
from .walk import (Trajectory, estimate_entropy, estimate_stationary_measure,
                   global_contraction_report, invariance_residual, make_model)
from .certify import (Budgets, assemble_free_pair, find_morse_smale,
                      solve_invariant_measure)
from . import serialize as ser

KINDS = ("simulate", "certify-free", "find-measure", "morse-smale",
         "giet-blowup")

DEFAULT_BUDGETS = {"n": 40, "runs": 100, "eps": "1/27", "max_len": 6,
                   "d_max": 6, "depth": None}

BUDGET_ENV = "CANTORWALK_BUDGET"


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    kind: str
    space: CompactSet = None  # None for giet-blowup
    generators: dict = field(default_factory=dict)  # name -> PAHomeo
    probabilities: tuple = None  # Fractions aligned with generators; None: uniform
    seed: int = 0
    budgets: dict = field(default_factory=dict)
    giets: tuple = ()  # of giet.Giet
    blowup: dict = field(default_factory=dict)
    output: str = "scenario"


def _env_budgets() -> dict:
    raw = os.environ.get(BUDGET_ENV, "")
    out = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ScenarioError(f"bad {BUDGET_ENV} entry {part!r}")
        k, v = part.split("=", 1)
        if k not in DEFAULT_BUDGETS:
            raise ScenarioError(f"unknown budget key {k!r} in {BUDGET_ENV}")
        out[k] = v if k == "eps" else int(v)
    return out


def parse_scenario(text: str) -> Scenario:
    """The scenario a JSON document states, with its space, generators
    (inverses appended when asked), walk law, giets and blow-up built."""
    try:
        obj = json.loads(text)
        kind = obj.get("kind")
        if kind not in KINDS:
            raise ScenarioError(f"field 'kind': {kind!r} not one of {KINDS}")
        spec = obj.get("space")
        if not isinstance(spec, dict):
            raise ScenarioError("field 'space': missing or not an object")
        space, gens, probs = None, {}, None
        if kind != "giet-blowup":
            if spec.get("ifs") == "ternary":
                space = ternary_cantor(int(spec.get("depth", 3)))
            elif isinstance(spec.get("ifs"), str):
                raise ScenarioError(f"unknown space shorthand {spec['ifs']!r}")
            else:
                space = ser.space_from_obj(spec)
            for g in obj.get("generators", ()):
                name = g["name"]
                if name in gens:
                    raise ScenarioError(f"duplicate generator name {name!r}")
                if "table" in g:
                    table = PrefixTable(tuple(
                        (row[0], row[1], int(row[2])) for row in g["table"]))
                    gens[name] = from_prefix_table(table, space, label=(name,))
                else:
                    gens[name] = ser.map_from_obj(
                        space, {"label": [name], "branches": g["branches"]})
            if not gens:
                raise ScenarioError("field 'generators': missing or empty")
            if obj.get("include_inverses"):
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
                probs = tuple(rat(p) for p in probs)
                if sum(probs) != 1:
                    raise ScenarioError(
                        f"probabilities sum {rat_str(sum(probs))}, not 1")
        budgets = dict(obj.get("budgets", {}))
        for k, v in budgets.items():
            if k not in DEFAULT_BUDGETS:
                raise ScenarioError(f"unknown budget key {k!r}")
            if k == "eps":
                budgets[k] = rat(v)
            elif type(v) is not int and (k, v) != ("depth", None):
                raise ScenarioError(f"budget {k!r}: {v!r} is not an integer")
        giets = tuple(ser.giet_from_obj(g) for g in obj.get("giets", ()))
        if kind == "giet-blowup" and not giets:
            raise ScenarioError("giet-blowup needs at least one giet")
        blowup = dict(obj.get("blowup", {}))
        if type(blowup.get("L", 3)) is not int:
            raise ScenarioError(f"blowup 'L': {blowup['L']!r} is not an integer")
        if "rho" in blowup:
            blowup["rho"] = rat(blowup["rho"])
        output = obj.get("output", "scenario")
        if os.path.basename(output) != output or output in ("", ".", ".."):
            raise ScenarioError(f"field 'output': {output!r} is not a file name")
        return Scenario(kind=kind, space=space, generators=gens,
                        probabilities=probs, seed=int(obj.get("seed", 0)),
                        budgets=budgets, giets=giets, blowup=blowup,
                        output=output)
    except (KeyError, TypeError, AttributeError, IndexError,
            json.JSONDecodeError) as e:
        raise ScenarioError(f"malformed scenario ({type(e).__name__}: {e})") from None

# ---------------------------------------------------------------------------
# scenario execution


def _budget(s: Scenario, overrides: dict) -> dict:
    out = dict(DEFAULT_BUDGETS)
    out.update(_env_budgets())
    out.update(s.budgets)
    out.update({k: v for k, v in overrides.items() if v is not None})
    return out


def run_scenario(s: Scenario, out_dir: str = ".", emit_series: bool = False,
                 seed: int = None, runs: int = None, depth: int = None):
    """(exit_code, verdict line); writes report/certificate/meta files."""
    bud = _budget(s, {"runs": runs, "depth": depth})
    seed = s.seed if seed is None else seed
    stem = s.output
    eps = rat(bud["eps"])

    def done(code: int, line: str, **documents):
        """Write each document as <stem>_<name>.json, then the meta file."""
        for name, obj in documents.items():
            ser.write_json_atomic(os.path.join(out_dir, f"{stem}_{name}.json"),
                                  obj)
        ser.write_meta(os.path.join(out_dir, f"{stem}_meta.json"),
                       {"scenario_kind": s.kind})
        return code, line

    if s.kind == "giet-blowup":
        result = blow_up(s.giets, s.blowup.get("L", 3), s.blowup.get("rho", "1/3"))
        tag = "exact" if result.exact else "inexact"
        return done(0, f"BLOWUP ({len(result.blown_points)} points, {tag})",
                    report={"kind": s.kind, "seed": seed,
                            "blown_points": len(result.blown_points),
                            "exact": result.exact,
                            "defects": list(result.defects)},
                    blowup=ser.blowup_to_scenario(result))

    model = make_model(s.space, s.generators, s.probabilities, seed)
    depth_eff = s.space.depth if bud["depth"] is None else bud["depth"]

    if s.kind == "simulate":
        mu = estimate_stationary_measure(model, bud["n"] * 25, depth_eff)
        avg, per_gen, skipped = invariance_residual(mu, model)
        ent = estimate_entropy(mu, model)
        t = Trajectory(model, stream=0)
        rep = global_contraction_report(t, depth_eff, bud["n"], eps)
        if emit_series:
            _emit_diameter_series(out_dir, stem, rep.scan.diameters)
        report = {"kind": s.kind, "seed": seed, "depth": depth_eff,
                  "stationary_masses": [float(m) for m in mu.masses],
                  "residual": {"averaged": float(avg),
                               "per_generator": float(per_gen),
                               "skipped": skipped},
                  "entropy": ent.h_estimate,
                  "contraction": {"F": [rat_str(f) for f in rep.F],
                                  "p": rep.p, "lambda": rep.lambda_fit}}
        return done(0, (f"SIMULATED (entropy {ent.h_estimate:.4f}, "
                        f"p {'inf' if rep.p is None else rep.p})"),
                    report=report)

    if s.kind == "certify-free":
        budgets = Budgets(max_len=bud["max_len"], runs=bud["runs"],
                          n_max=bud["n"])
        cert = assemble_free_pair(model, eps, budgets)
        if cert:
            return done(0, "FREE (ping-pong verified)",
                        certificate=ser.certificate_to_obj(cert),
                        report={"kind": s.kind, "seed": seed, "verified": True,
                                "a1": list(cert.a1.label),
                                "a2": list(cert.a2.label)})
        return done(2, "undecided within budget",
                    report={"kind": s.kind, "seed": seed, "verified": False,
                            "stage": cert.stage, "flag": cert.flag})

    if s.kind == "find-measure":
        res = solve_invariant_measure(s.generators, depth_eff, bud["d_max"])
        if res:
            return done(0, (f"INVARIANT MEASURE (depth {res.depth}, "
                            f"consistent to {res.consistency_depth})"),
                        certificate=ser.certificate_to_obj(res, s.generators),
                        report={"kind": s.kind, "seed": seed, "depth": res.depth,
                                "masses": [rat_str(m) for m in res.measure.masses],
                                "consistency_depth": res.consistency_depth})
        return done(0, f"INFEASIBLE (no invariant cell measure at depth {res.depth})",
                    report={"kind": s.kind, "seed": seed, "depth": res.depth,
                            "infeasible": True, "gap": rat_str(res.gap)})

    # morse-smale
    cert = find_morse_smale(model, eps, n_max=bud["n"], runs=bud["runs"])
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
    """Per-step image diameter of every depth-d cell, as plot-ready CSV."""
    path = os.path.join(out_dir, f"{stem}_series.csv")
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + [f"diam_cell_{i}" for i in range(len(diameters))])
        for k, row in enumerate(zip(*diameters)):
            w.writerow([k] + [float(d) for d in row])
    os.replace(tmp, path)


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cantorwalk",
        description="Random-walk diagnostics and Tits-alternative "
                    "certificates on compact subsets of the line.")
    sub = ap.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("scenario", help="scenario file or bundled name")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--out", default=".", metavar="DIR")
        p.add_argument("--emit-series", action="store_true")
    pv = sub.add_parser("verify")
    pv.add_argument("certificate", help="certificate file to re-check")
    args = ap.parse_args(argv)

    try:
        if args.command == "verify":
            with open(args.certificate) as fh:
                obj = json.load(fh)
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
        code, line = run_scenario(scn, out_dir=args.out,
                                  emit_series=args.emit_series,
                                  seed=args.seed, runs=args.runs,
                                  depth=args.depth)
        print(line)
        return code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
