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
from typing import Callable, NamedTuple

from .rational import clip, coprime_fraction, exact, rat, rat_str
from .space import CompactSet, ternary_cantor
from .maps import PrefixTable, from_prefix_table, invert
from .giet import blow_up, giet_from_branches
from .walk import (Trajectory, estimate_entropy, estimate_stationary_measure,
                   global_contraction_report, invariance_residual, make_model)
from .certify import (UnalignedMeasure, UnprovedMeasure, assemble_free_pair,
                      find_morse_smale, solve_invariant_measure)
from . import serialize as ser

# the fields of a scenario that some kind reads, beside kind, seed, budgets
# and output; a kind refuses each one it does not read, the first in this order
FIELDS = ("generators", "include_inverses", "probabilities", "giets", "blowup", "space")


class ScenarioError(ValueError):
    pass


class Scenario(NamedTuple):
    kind: str
    seed: int
    budgets: dict
    output: str
    space: CompactSet  # None for giet-blowup
    generators: dict  # name -> PAHomeo
    probabilities: tuple  # Fractions aligned with generators; None: uniform
    giets: tuple  # PAHomeos, each on its giet's interval
    blowup: dict


def parse_scenario(text: str) -> Scenario:
    """The scenario a JSON document states, with the fields its kind reads
    built by its row of KINDS."""
    try:
        obj = ser.only_keys(json.loads(text), {"kind", "seed", "budgets", "output", *FIELDS},
                            "scenario")
        kind = obj.get("kind")
        if kind not in KINDS:
            raise ScenarioError(f"field 'kind': {clip(kind)} not one of {tuple(KINDS)}")
        row = KINDS[kind]
        # a kind that reads no space needs none, and accepts an empty one
        spec = obj.get("space", None if "space" in row.fields else {})
        if not isinstance(spec, dict):
            raise ScenarioError("field 'space': missing or not an object")
        unread = [f for f in FIELDS
                  if f not in row.fields and (spec if f == "space" else f in obj)]
        if unread:
            raise ScenarioError(f"field {unread[0]!r} is not read by {kind}")
        for key in ("budgets", "blowup"):
            if not isinstance(obj.get(key, {}), dict):
                raise ScenarioError(f"field {key!r}: {clip(obj[key])} is not an object")
        built, budgets = row.read(obj), dict(obj.get("budgets", {}))
        for k, v in budgets.items():
            if k not in row.budgets:
                raise ScenarioError(f"unknown budget key {k!r} for {kind}")
            if k == "eps":
                budgets[k] = rat(v)
            elif (k, v) != ("depth", None):
                exact(v, int, f"budget {k!r}")
        output = obj.get("output", "scenario")
        if os.path.basename(output) != output or output in ("", ".", ".."):
            raise ScenarioError(f"field 'output': {clip(output)} is not a file name")
        return Scenario(kind=kind, seed=exact(obj.get("seed", 0), int, "field 'seed'"),
                        budgets=budgets, output=output, **built)
    except (KeyError, TypeError, AttributeError, IndexError,
            json.JSONDecodeError, RecursionError) as e:
        raise ScenarioError(f"malformed scenario ({type(e).__name__}: {e})") from None


def _read_action(obj: dict) -> dict:
    """The space, the generators (inverses appended when asked) and the walk
    law of a kind that runs generators on a space."""
    spec, gens = obj["space"], {}
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
            rows = [ser._values(r, f"generator {clip(name)} table row", 3) for r in g["table"]]
            table = PrefixTable(tuple(
                (src, dst, exact(sign, int, f"generator {clip(name)} orientation"))
                for src, dst, sign in rows))
            gens[name] = from_prefix_table(table, space, label=(name,))
        else:
            gens[name] = ser.map_from_obj(space, {"label": [name], "branches": g["branches"]})
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
            raise ScenarioError("probabilities must name every generator once: "
                                f"{sorted(probs.keys() ^ gens.keys())} unmatched")
        probs = [probs[n] for n in gens]
    if probs is not None:
        probs = tuple(rat(p) for p in ser._values(probs, "field 'probabilities'"))
        if sum(probs) != 1:
            raise ScenarioError(f"probabilities sum {rat_str(sum(probs))}, not 1")
    return {"space": space, "generators": gens, "probabilities": probs, "giets": (), "blowup": {}}


def _read_giets(obj: dict) -> dict:
    """The giets, each a PAHomeo on its interval, and the blow-up's L and rho."""
    giets = tuple(giet_from_branches(
        ser._values(ser.only_keys(g, {"interval", "branches"}, "giet")["interval"],
                    "giet interval", 2),
        [[coprime_fraction(*p) for p in ser._branch_from_obj(b)] for b in g["branches"]])
        for g in obj.get("giets", ()))
    if not giets:
        raise ScenarioError("giet-blowup needs at least one giet")
    blowup = ser.only_keys(obj.get("blowup", {}), {"L", "rho"}, "blowup")
    return {"space": None, "generators": {}, "probabilities": None, "giets": giets,
            "blowup": {"L": exact(blowup.get("L", 3), int, "blowup 'L'"),
                       "rho": rat(blowup.get("rho", "1/3"))}}

# ---------------------------------------------------------------------------
# scenario execution: a runner takes the scenario, its budgets and --emit-series,
# and returns (exit code, verdict line, {file name suffix: JSON object or text})


def _report(s: Scenario, **fields) -> dict:
    return {"kind": s.kind, "seed": s.seed, **fields}


def _run_simulate(s: Scenario, bud: dict, emit_series: bool):
    model = make_model(s.space, s.generators, s.probabilities, s.seed)
    mu = estimate_stationary_measure(model, bud["n"] * 25, bud["depth"])
    masses = {}  # region pieces -> mass, map branches -> cell images; this run only
    avg, per_gen = invariance_residual(mu, model, masses)
    h = estimate_entropy(mu, model, masses)
    rep = global_contraction_report(Trajectory(model, stream=0), bud["depth"], bud["n"],
                                    bud["eps"])
    documents = {"report.json": _report(
        s, depth=bud["depth"], stationary_masses=[float(m) for m in mu.masses], entropy=h,
        # the float residual splits every preimage, so it skips no equation
        residual={"averaged": float(avg), "per_generator": float(per_gen), "skipped": 0},
        contraction={"F": [rat_str(f) for f in rep.F], "p": rep.p, "lambda": rep.lambda_fit})}
    if emit_series:
        documents["series.csv"] = _diameter_series(rep.scan.diameters)
    return 0, f"SIMULATED (entropy {h:.4f}, p {'inf' if rep.p is None else rep.p})", documents


def _run_certify_free(s: Scenario, bud: dict, _):
    cert = assemble_free_pair(make_model(s.space, s.generators, s.probabilities, s.seed),
                              bud["eps"], max_len=bud["max_len"], runs=bud["runs"], n_max=bud["n"])
    if not cert:
        return 2, "undecided within budget", {"report.json": _report(
            s, verified=False, stage=cert.stage, flag=cert.flag)}
    return 0, "FREE (ping-pong verified)", {
        "certificate.json": ser.certificate_to_obj(cert),
        "report.json": _report(s, verified=True, a1=list(cert.a1.label), a2=list(cert.a2.label))}


def _run_find_measure(s: Scenario, bud: dict, _):
    res = solve_invariant_measure(s.generators, bud["depth"], bud["d_max"])
    if isinstance(res, UnalignedMeasure):
        return 2, f"undecided: generators not cell-aligned at any depth <= {res.d_max}", {
            "report.json": _report(s, budget="d_max", d_max=res.d_max)}
    if isinstance(res, UnprovedMeasure):
        return 2, (f"undecided: {res.skipped} invariance equations not expressible at "
                   f"depth {res.depth}"), {
            "report.json": _report(s, depth=res.depth, skipped=res.skipped)}
    if not res:
        return 0, f"INFEASIBLE (no invariant cell measure at depth {res.depth})", {
            "report.json": _report(s, depth=res.depth, infeasible=True, gap=rat_str(res.gap))}
    return 0, f"INVARIANT MEASURE (depth {res.depth}, consistent to {res.consistency_depth})", {
        "certificate.json": ser.certificate_to_obj(res),
        "report.json": _report(s, depth=res.depth, masses=[rat_str(m) for m in res.masses],
                               consistency_depth=res.consistency_depth)}


def _run_morse_smale(s: Scenario, bud: dict, _):
    cert = find_morse_smale(make_model(s.space, s.generators, s.probabilities, s.seed),
                            bud["eps"], n_max=bud["n"], runs=bud["runs"])
    if not cert:
        return 2, "undecided within budget", {"report.json": _report(s, found=False)}
    return 0, f"MORSE-SMALE ({len(cert.periodic)} periodic points)", {
        "certificate.json": ser.certificate_to_obj(cert),
        "report.json": _report(s, word=list(cert.g.label), periodic=[
            [rat_str(x), p, rat_str(m)] for x, p, m in cert.periodic])}


def _run_giet_blowup(s: Scenario, bud: dict, _):
    res = blow_up(s.giets, s.blowup["L"], s.blowup["rho"])
    points, defects = len(res.blown_points), list(res.defects)
    return 0, f"BLOWUP ({points} points, {'exact' if res.exact else 'inexact'})", {
        "report.json": _report(s, blown_points=points, exact=res.exact, defects=defects),
        # the space and the induced maps, as a certificate writes them
        "blowup.json": {"space": ser.space_to_obj(res.space), "exact": res.exact,
                        "maps": [ser.map_to_obj(g) for g in res.induced], "defects": defects,
                        "blown_points": [[rat_str(c), rat_str(a)] for c, a in res.blown_points],
                        "jumps": [[rat_str(c), rat_str(v)] for c, v in res.jumps]}}


class Kind(NamedTuple):
    budgets: dict  # budget -> default; a depth of None is the space's
    fields: tuple  # the FIELDS it reads
    read: Callable  # scenario object -> the Scenario fields past output
    run: Callable  # the runner
    flags: tuple = ()  # its switches beyond --seed, --out, --runs and --depth


ACTION = ("space", "generators", "include_inverses", "probabilities")
# README.md's table of kinds mirrors the budgets and flags of these rows
KINDS = {"simulate": Kind({"n": 40, "eps": "1/27", "depth": None}, ACTION, _read_action,
                          _run_simulate, ("--emit-series",)),
         "certify-free": Kind({"n": 40, "runs": 100, "eps": "1/27", "max_len": 6}, ACTION,
                              _read_action, _run_certify_free),
         "find-measure": Kind({"depth": None, "d_max": 6}, ACTION[:3], _read_action,
                              _run_find_measure),
         "morse-smale": Kind({"n": 40, "runs": 100, "eps": "1/27"}, ACTION, _read_action,
                             _run_morse_smale),
         "giet-blowup": Kind({}, ("giets", "blowup"), _read_giets, _run_giet_blowup)}


def _budget(s: Scenario) -> dict:
    """The budgets the scenario's kind reads: its defaults, then the
    scenario's budgets; a depth left unset is the space's."""
    out = {**KINDS[s.kind].budgets, **s.budgets}
    if "depth" in out and out["depth"] is None:
        out["depth"] = s.space.depth
    for k in ("n", "runs", "max_len"):
        if k in out and out[k] < 1:
            raise ScenarioError(f"budget {k!r}: {out[k]} is below 1")
    return out


def run_scenario(s: Scenario, out_dir: str, emit_series: bool):
    """(exit_code, verdict line); writes the kind's documents, each as
    <output>_<name>, then the meta file."""
    code, line, documents = KINDS[s.kind].run(s, _budget(s), emit_series)
    for name, doc in documents.items():
        ser.write_text_atomic(os.path.join(out_dir, f"{s.output}_{name}"),
                              doc if isinstance(doc, str) else ser.dumps(doc))
    ser.write_meta(os.path.join(out_dir, f"{s.output}_meta.json"), {"scenario_kind": s.kind})
    return code, line


def _diameter_series(diameters) -> str:
    """Per-step image diameter of every depth-d cell, as plot-ready CSV; the
    diameters are int pairs, each written as the float of its Fraction.
    Each row ends in CRLF, and no field needs quoting, as csv.writer writes it."""
    field = functools.cache(lambda p: repr(p[0] / p[1]))  # once per distinct diameter
    lines = [",".join(["step"] + [f"diam_cell_{i}" for i in range(len(diameters))])]
    lines += (",".join([str(k), *map(field, row)]) for k, row in enumerate(zip(*diameters)))
    return "\r\n".join(lines) + "\r\n"


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
    --runs and --depth where it reads that budget, and its row's flags."""
    ap = argparse.ArgumentParser(prog="cantorwalk", description="Random-walk diagnostics and "
                                 "Tits-alternative certificates on compact subsets of the line.")
    ap.error = _usage_error
    sub = ap.add_subparsers(dest="command", required=True)
    for kind, row in KINDS.items():
        p = sub.add_parser(kind)
        p.error = _usage_error
        p.add_argument("scenario", help="scenario file or bundled name")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".", metavar="DIR")
        for flag in ("runs", "depth"):
            if flag in row.budgets:
                p.add_argument(f"--{flag}", type=int)
        for flag in row.flags:
            p.add_argument(flag, action="store_true")
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
            print("VERIFIED" if verdict else f"INVALID ({verdict.reason})")
            return 0 if verdict else 1
        scn = parse_scenario(_load_scenario_text(args.scenario))
        if scn.kind != args.command:
            raise ScenarioError(f"scenario kind {scn.kind!r} does not match "
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
