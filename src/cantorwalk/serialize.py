"""Exact JSON serialization for spaces, maps, regions and certificates.

Rationals travel as "p/q" strings, so round-trips are lossless.  Reports
are written with sorted keys and no timestamps (metadata lives in a
sibling file), which makes equal runs byte-identical.  Every certificate
file is self-contained: it carries the space, the maps and the regions
needed to re-verify it from scratch.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

from .rational import RationalError, pair_str, rat, rat_str
from .space import CompactSet, Ifs, Piece, Region, SpaceError
from .maps import Branch, PAHomeo, pa_homeo
from .giet import BlowUpResult, Giet, giet_from_branches
from .walk import CellMeasure
from . import certify as cert_mod
from .certify import (FiniteOrbitCertificate, InvariantMeasureCertificate,
                      MorseSmaleCertificate, PingPongCertificate, Verdict)


class SerializeError(ValueError):
    pass


def _q(x) -> str:
    return rat_str(rat(x))


def _exact(v, kind: type, what: str):
    """v, when its type is kind itself (a bool is no int here)."""
    if type(v) is not kind:
        raise TypeError(f"{what} {v!r} is not {kind.__name__}")
    return v


# ---------------------------------------------------------------------------
# spaces, maps, regions


def space_to_obj(space: CompactSet) -> dict:
    obj = {"intervals": [[pair_str(l), pair_str(r)] for l, r in space.ends]}
    if space.ifs is not None:
        obj["ifs"] = {"ratios": [_q(v) for v in space.ifs.ratios],
                      "offsets": [_q(v) for v in space.ifs.offsets],
                      "symbols": list(space.ifs.symbols)}
        obj["depth"] = space.depth
    return obj


def space_from_obj(obj: dict) -> CompactSet:
    if "ifs" in obj:
        ifs = Ifs(tuple(rat(v) for v in obj["ifs"]["ratios"]),
                  tuple(rat(v) for v in obj["ifs"]["offsets"]),
                  tuple(obj["ifs"]["symbols"]))
        return CompactSet.from_ifs(ifs, _exact(obj["depth"], int, "depth"))
    K = CompactSet.from_intervals([(rat(l), rat(r)) for l, r in obj["intervals"]])
    for l, r in K.intervals:
        if l == r:
            # a map could carry no branch over it: branches are cut at K's gaps
            raise SerializeError(f"space interval [{_q(l)}, {_q(r)}] is a single point")
    return K


def map_to_obj(f: PAHomeo) -> dict:
    return {"label": list(f.label),
            "branches": [{"src": [pair_str(lo), pair_str(hi)],
                          "slope": pair_str(s), "offset": pair_str(o)}
                         for lo, hi, s, o, _, _ in f.branches]}


def map_from_obj(space: CompactSet, obj: dict) -> PAHomeo:
    branches = [Branch(rat(b["src"][0]), rat(b["src"][1]),
                       rat(b["slope"]), rat(b["offset"]))
                for b in obj["branches"]]
    return pa_homeo(space, branches, label=tuple(obj["label"]))


def region_to_obj(reg: Region) -> dict:
    return {"pieces": [{"lo": pair_str(lo), "hi": pair_str(hi),
                        "lo_closed": lc, "hi_closed": hc}
                       for lo, hi, lc, hc in reg.pieces]}


def region_from_obj(space: CompactSet, obj: dict) -> Region:
    return Region.from_pieces(space, [
        Piece(rat(p["lo"]), rat(p["hi"]), _exact(p["lo_closed"], bool, "lo_closed"),
              _exact(p["hi_closed"], bool, "hi_closed")) for p in obj["pieces"]])


def giet_from_obj(obj: dict) -> Giet:
    return giet_from_branches(
        (rat(obj["interval"][0]), rat(obj["interval"][1])),
        [(rat(b["src"][0]), rat(b["src"][1]), rat(b["slope"]),
          rat(b["offset"])) for b in obj["branches"]])


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert) -> dict:
    """Self-contained certificate document."""
    if isinstance(cert, PingPongCertificate):
        return {"type": "ping-pong",
                "space": space_to_obj(cert.a1.space),
                "a1": map_to_obj(cert.a1), "a2": map_to_obj(cert.a2),
                "A1": region_to_obj(cert.A1), "B1": region_to_obj(cert.B1),
                "A2": region_to_obj(cert.A2), "B2": region_to_obj(cert.B2)}
    if isinstance(cert, InvariantMeasureCertificate):
        return {"type": "invariant-measure",
                "space": space_to_obj(cert.gens[0].space),
                "generators": [map_to_obj(g) for g in cert.gens],
                "depth": cert.depth,
                "masses": [_q(m) for m in cert.measure.masses],
                "consistency_depth": cert.consistency_depth}
    if isinstance(cert, FiniteOrbitCertificate):
        return {"type": "finite-orbit",
                "space": space_to_obj(cert.gens[0].space),
                "generators": [map_to_obj(g) for g in cert.gens],
                "orbit": [_q(p) for p in cert.orbit]}
    if isinstance(cert, MorseSmaleCertificate):
        return {"type": "morse-smale",
                "space": space_to_obj(cert.g.space),
                "g": map_to_obj(cert.g),
                "periodic": [[_q(x), per, _q(m)] for x, per, m in cert.periodic],
                "A": region_to_obj(cert.A), "B": region_to_obj(cert.B)}
    raise SerializeError(f"unknown certificate {type(cert).__name__}")


def _generators_from_obj(space: CompactSet, objs) -> tuple:
    """The generator maps in order; none, or a repeated label, is refused."""
    gens = tuple(map_from_obj(space, g) for g in objs)
    if not gens:
        raise SerializeError("malformed certificate (no generators)")
    names = ["-".join(g.label) or f"g{i}" for i, g in enumerate(gens)]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SerializeError(f"duplicate generator label {name!r}")
    return gens


def certificate_from_obj(obj: dict):
    """The certificate a document states; a document of the wrong shape
    raises SerializeError."""
    try:
        kind = obj.get("type")
        space = space_from_obj(obj["space"])
        if kind == "ping-pong":
            return PingPongCertificate(
                map_from_obj(space, obj["a1"]), map_from_obj(space, obj["a2"]),
                region_from_obj(space, obj["A1"]), region_from_obj(space, obj["B1"]),
                region_from_obj(space, obj["A2"]), region_from_obj(space, obj["B2"]))
        if kind == "invariant-measure":
            gens = _generators_from_obj(space, obj["generators"])
            masses = tuple(rat(m) for m in obj["masses"])
            depth = _exact(obj["depth"], int, "depth")
            return InvariantMeasureCertificate(
                gens, depth, CellMeasure(depth, masses, True),
                _exact(obj["consistency_depth"], int, "consistency_depth"))
        if kind == "finite-orbit":
            gens = _generators_from_obj(space, obj["generators"])
            orbit = tuple(sorted({rat(p) for p in obj["orbit"]}))
            for p in orbit:
                if not space.contains(p):
                    raise SpaceError(f"point {p} not in the ambient set")
            return FiniteOrbitCertificate(gens, orbit)
        if kind == "morse-smale":
            g = map_from_obj(space, obj["g"])
            periodic = tuple((rat(x), _exact(per, int, "period"), rat(m))
                             for x, per, m in obj["periodic"])
            return MorseSmaleCertificate(g, periodic,
                                         region_from_obj(space, obj["A"]),
                                         region_from_obj(space, obj["B"]))
    except (KeyError, TypeError, AttributeError, IndexError, RationalError) as e:
        raise SerializeError(
            f"malformed certificate ({type(e).__name__}: {e})") from None
    raise SerializeError(f"unknown certificate type {kind!r}")


def verify_certificate(obj: dict) -> Verdict:
    """Re-verify a serialized certificate from scratch, exactly.  Each
    verifier is read off the certify module at call time, so a rebinding
    of its name takes effect."""
    cert = certificate_from_obj(obj)
    if isinstance(cert, PingPongCertificate):
        return cert_mod.verify_ping_pong(cert)
    if isinstance(cert, InvariantMeasureCertificate):
        return cert_mod.verify_invariant_measure(cert)
    if isinstance(cert, FiniteOrbitCertificate):
        return cert_mod.verify_finite_orbit(cert)
    return cert_mod.verify_morse_smale(cert)


def blowup_to_scenario(result: BlowUpResult) -> dict:
    """Space + induced maps, consumable by the walk and certify modules."""
    return {"space": space_to_obj(result.space),
            "maps": [map_to_obj(g) for g in result.induced],
            "blown_points": [[_q(c), _q(a)] for c, a in result.blown_points],
            "jumps": [[_q(c), _q(v)] for c, v in result.jumps],
            "exact": result.exact,
            "defects": list(result.defects)}


# ---------------------------------------------------------------------------
# canonical output


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, dumps(obj))


def write_text_atomic(path: str, text: str) -> None:
    """Replace path with the text as given, through a temp file beside it
    that, as open() does, takes mode 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_meta(path: str, extra: dict = None) -> None:
    meta = {"written_at": datetime.now(timezone.utc).isoformat()}
    if extra:
        meta.update(extra)
    write_json_atomic(path, meta)
