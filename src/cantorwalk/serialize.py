"""Exact JSON serialization for spaces, maps, regions and certificates.

Rationals travel as "p/q" strings, so round-trips are lossless.  Reports
are written with sorted keys and no timestamps (metadata lives in a
sibling file), which makes equal runs byte-identical.  Every certificate
file is self-contained: it carries the space, the maps and the regions
needed to re-verify it from scratch.  Each certificate type is a row of
CERTIFICATES; every reader refuses a key that it does not name.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .rational import (RationalError, as_pair, clip, coprime_fraction, exact, pair_str, rat,
                       rat_str, read_pair)
from .space import CompactSet, Ifs, Piece, Region, SpaceError
from .maps import Branch, PAHomeo, pa_homeo
from .verify import (FiniteOrbitCertificate, InvariantMeasureCertificate, MorseSmaleCertificate,
                     PingPongCertificate, Verdict, verify_finite_orbit, verify_invariant_measure,
                     verify_morse_smale, verify_ping_pong)


class SerializeError(ValueError):
    pass


def _fraction(value):
    """rat(value), through read_pair."""
    return coprime_fraction(*read_pair(value))


def _values(v, what: str, n: Optional[int] = None) -> list:
    """v, when it is a JSON list, of n values when n is given: a string or
    an object, read as a list, would give its characters or its keys."""
    if type(v) is not list or n is not None and len(v) != n:
        raise SerializeError(f"{what}: {clip(v)} is not a list" + (f" of {n} values" if n else ""))
    return v


def only_keys(obj: dict, keys: set, what: str) -> dict:
    """obj, a JSON object, when it holds no key but the given ones."""
    if not obj.keys() <= keys:
        raise SerializeError(f"unknown {what} key {clip(min(obj.keys() - keys))}")
    return obj


# ---------------------------------------------------------------------------
# spaces, maps, regions


def space_to_obj(space: CompactSet) -> dict:
    obj = {"intervals": [[pair_str(l), pair_str(r)] for l, r in space.ends]}
    if space.ifs is not None:
        obj["ifs"] = {"ratios": [rat_str(v) for v in space.ifs.ratios],
                      "offsets": [rat_str(v) for v in space.ifs.offsets],
                      "symbols": list(space.ifs.symbols)}
        obj["depth"] = space.depth
    return obj


def space_from_obj(obj: dict) -> CompactSet:
    if "ifs" in obj:
        only_keys(obj, {"ifs", "depth", "intervals"}, "space")
        spec = only_keys(obj["ifs"], {"ratios", "offsets", "symbols"}, "ifs")
        ratios, offsets, symbols = (_values(spec[k], f"ifs {k}")
                                    for k in ("ratios", "offsets", "symbols"))
        ifs = Ifs(tuple(map(rat, ratios)), tuple(map(rat, offsets)), tuple(symbols))
        K = CompactSet.from_ifs(ifs, exact(obj["depth"], int, "depth"))
        # the intervals follow from the IFS: they may be left out, not changed
        if "intervals" in obj and obj["intervals"] != [
                [pair_str(l), pair_str(r)] for l, r in K.ends]:
            raise SerializeError(f"space intervals are not the IFS's at depth {K.depth}")
        return K
    only_keys(obj, {"intervals"}, "space")
    K = CompactSet.from_intervals([_values(iv, "space interval", 2) for iv in obj["intervals"]])
    for l, r in K.intervals:
        if l == r:
            # a map could carry no branch over it: branches are cut at K's gaps
            raise SerializeError(f"space interval [{clip(l)}, {clip(r)}] is a single point")
    return K


def map_to_obj(f: PAHomeo) -> dict:
    return {"label": list(f.label),
            "branches": [{"src": [pair_str(lo), pair_str(hi)],
                          "slope": pair_str(s), "offset": pair_str(o)}
                         for lo, hi, s, o, _, _ in f.branches]}


def _branch_from_obj(b: dict) -> tuple:
    """(lo, hi, slope, offset) of a map's or a giet's branch, as int pairs."""
    only_keys(b, {"src", "slope", "offset"}, "branch")
    return (*map(read_pair, _values(b["src"], "branch src", 2)),
            read_pair(b["slope"]), read_pair(b["offset"]))


def map_from_obj(space: CompactSet, obj: dict) -> PAHomeo:
    only_keys(obj, {"label", "branches"}, "map")
    return pa_homeo(space, [Branch(*_branch_from_obj(b)) for b in obj["branches"]],
                    label=tuple(exact(w, str, "label") for w in _values(obj["label"], "label")))


def region_to_obj(reg: Region) -> dict:
    return {"pieces": [{"lo": pair_str(lo), "hi": pair_str(hi),
                        "lo_closed": lc, "hi_closed": hc}
                       for lo, hi, lc, hc in reg.pieces]}


def region_from_obj(space: CompactSet, obj: dict) -> Region:
    pieces = [only_keys(p, {"lo", "hi", "lo_closed", "hi_closed"}, "piece")
              for p in only_keys(obj, {"pieces"}, "region")["pieces"]]
    return Region.from_pieces(space, [
        Piece._make((read_pair(p["lo"]), read_pair(p["hi"]),
                     exact(p["lo_closed"], bool, "lo_closed"),
                     exact(p["hi_closed"], bool, "hi_closed"))) for p in pieces])


# ---------------------------------------------------------------------------
# certificates


def _generators_from_obj(space: CompactSet, objs) -> tuple:
    """The generator maps in order; none, or a repeated label, is refused."""
    gens = tuple(map_from_obj(space, g) for g in objs)
    if not gens:
        raise SerializeError("malformed certificate (no generators)")
    names = ["-".join(g.label) or f"g{i}" for i, g in enumerate(gens)]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SerializeError(f"duplicate generator label {clip(name)}")
    return gens


def _orbit_from_obj(space: CompactSet, objs) -> tuple:
    orbit = tuple(sorted({_fraction(p) for p in _values(objs, "orbit")}))
    for p in orbit:
        if not space._holds(as_pair(p)):
            raise SpaceError(f"point {clip(p)} not in the ambient set")
    return orbit


# the (write, read) codecs of certificate fields: write takes the field, read
# the space and the field's JSON value.  _int(key) is the codec of an int field,
# _rationals(key) of a list of rationals
def _int(key: str) -> tuple:
    return int, lambda space, v: exact(v, int, key)


def _rationals(key: str) -> tuple:
    return (lambda xs: [rat_str(x) for x in xs],
            lambda space, v: tuple(map(_fraction, _values(v, key))))


MAP, REGION = (map_to_obj, map_from_obj), (region_to_obj, region_from_obj)
GENERATORS = (lambda gens: [map_to_obj(g) for g in gens], _generators_from_obj)
PERIODIC = (lambda ps: [[rat_str(x), per, rat_str(m)] for x, per, m in ps],
            lambda space, v: tuple((_fraction(x), exact(per, int, "period"), _fraction(m))
                                   for x, per, m in (_values(e, "periodic entry", 3) for e in v)))

# type -> (class, verifier, the JSON key and codec of each field in order);
# a document holds these keys, "type" and "space"
CERTIFICATES = {
    "ping-pong": (PingPongCertificate, verify_ping_pong,
                  (("a1", MAP), ("a2", MAP), ("A1", REGION), ("B1", REGION),
                   ("A2", REGION), ("B2", REGION))),
    "invariant-measure": (InvariantMeasureCertificate, verify_invariant_measure,
                          (("generators", GENERATORS), ("depth", _int("depth")),
                           ("masses", _rationals("masses")),
                           ("consistency_depth", _int("consistency_depth")))),
    "finite-orbit": (FiniteOrbitCertificate, verify_finite_orbit,
                     (("generators", GENERATORS),
                      ("orbit", (_rationals("orbit")[0], _orbit_from_obj)))),
    "morse-smale": (MorseSmaleCertificate, verify_morse_smale,
                    (("g", MAP), ("periodic", PERIODIC), ("A", REGION), ("B", REGION))),
}


def certificate_to_obj(cert) -> dict:
    """Self-contained certificate document."""
    kind = next(k for k, row in CERTIFICATES.items() if row[0] is type(cert))
    # the first field is a map, or the tuple of generator maps
    space = (cert[0] if isinstance(cert[0], PAHomeo) else cert[0][0]).space
    return {"type": kind, "space": space_to_obj(space),
            **{key: write(v) for (key, (write, _)), v in zip(CERTIFICATES[kind][2], cert)}}


def certificate_from_obj(obj: dict):
    """The certificate a document states; a document of the wrong shape
    raises SerializeError."""
    try:
        kind = obj.get("type")
        if kind not in CERTIFICATES:
            raise SerializeError(f"unknown certificate type {clip(kind)}")
        cls, _, fields = CERTIFICATES[kind]
        only_keys(obj, {"type", "space", *(key for key, _ in fields)}, "certificate")
        space = space_from_obj(obj["space"])
        return cls(*(read(space, obj[key]) for key, (_, read) in fields))
    except (KeyError, TypeError, AttributeError, IndexError, RationalError) as e:
        raise SerializeError(
            f"malformed certificate ({type(e).__name__}: {e})") from None


def verify_certificate(obj: dict) -> Verdict:
    """Re-verify a serialized certificate from scratch, exactly."""
    cert = certificate_from_obj(obj)
    return CERTIFICATES[obj["type"]][1](cert)


# ---------------------------------------------------------------------------
# canonical output


# json's text for the values whose repr it does not write
JSON_NAMES = {"None": "null", "True": "true", "False": "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(x, pad: str) -> str:
    """x, of plain JSON types, as json.dumps(x, indent=2, sort_keys=True)
    writes it, its lines after the first indented by pad."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or isinstance(x, (int, float)):
        return JSON_NAMES.get(text := repr(x), text)
    inner = pad + "  "
    if isinstance(x, dict):
        items, ends = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(x.items())], "{}"
    elif isinstance(x, (list, tuple)):
        items, ends = [_encode(v, inner) for v in x], "[]"
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return (f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"
            if items else ends)


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), ended by a newline."""
    return _encode(obj, "") + "\n"


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


def write_meta(path: str, extra: dict) -> None:
    write_json_atomic(path, {"written_at": datetime.now(timezone.utc).isoformat(), **extra})
