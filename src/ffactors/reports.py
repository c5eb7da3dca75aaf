"""Machine-readable run reports and certificate rechecking.

A report is a JSON document with a stable field order: command, parameters,
seed, instance digest, the embedded normalized instance, verdicts, a list
of certificates, and timing.  Every embedded certificate can be re-verified
from the report alone, without rerunning any search; comparisons between
reports ignore the timing block.
"""

from __future__ import annotations

import json
import time

from .graph import DegreeSpec, Graph
from .instances import instance_digest, parse_instance, serialize_instance, text_digest
from .solver import FactorSubgraph, verify_factor
from .tutte import SubsetPair, deficiency


def factor_certificate(factor: FactorSubgraph) -> dict:
    return {"type": "factor", "edges": [list(e) for e in factor.edges]}


def ab_factor_certificate(factor: FactorSubgraph, a: int, b: int) -> dict:
    return {"type": "ab_factor", "a": a, "b": b, "edges": [list(e) for e in factor.edges]}


def violating_pair_certificate(report) -> dict:
    out = {"type": "violating_pair"}
    out.update(report.to_dict())
    return out


def build_report(
    command: str,
    parameters: dict,
    seed: int | None,
    instance: tuple[Graph, DegreeSpec] | None,
    verdicts: dict,
    certificates: list[dict],
    started: float | None = None,
) -> dict:
    doc = {
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "seed": seed,
    }
    if instance is not None:
        text = serialize_instance(*instance)
        doc["instance_digest"] = text_digest(text)
        doc["instance"] = text
    else:
        doc["instance_digest"] = None
        doc["instance"] = None
    doc["verdicts"] = verdicts
    doc["certificates"] = certificates
    doc["timing"] = {
        "seconds": None if started is None else round(time.monotonic() - started, 6)
    }
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def strip_timing(doc: dict) -> dict:
    out = dict(doc)
    out.pop("timing", None)
    return out


_PAIR_TERMS = ("f_s", "f_t", "degree_term", "h", "delta")

# per command, the verdict that its certificates stand for: the report must
# claim (key, value) iff it carries a certificate of one of these types
_CLAIMS = {
    "solve": ("factor_exists", True, ("factor",)),
    "audit": ("violating_pair_found", True, ("violating_pair",)),
    "verify-theorem": ("confirmation", "confirmed", ("factor", "ab_factor")),
}


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, int) for v in value)


def _factor_of(cert: dict, i: int) -> FactorSubgraph:
    edges = cert.get("edges")
    if not (isinstance(edges, list)
            and all(_is_int_list(e) and len(e) == 2 for e in edges)):
        raise ValueError(f"certificate {i}: 'edges' must be a list of vertex pairs")
    return FactorSubgraph(tuple(tuple(e) for e in edges))


def recheck_report(doc: dict) -> list[str]:
    """Re-verify every certificate embedded in a report, and that the
    report's verdict claims a factor or a violating pair exactly when it
    carries a certificate for one.

    Returns a list of failure descriptions; empty means everything checks.
    A malformed report (not an object, a certificate with a missing or
    mistyped field, or verdicts that are not an object) raises ValueError
    instead.
    """
    certificates = doc.get("certificates", []) if isinstance(doc, dict) else None
    if not isinstance(certificates, list):
        raise ValueError("report is not an object with a list of certificates")
    failures: list[str] = []
    params = doc.get("parameters")
    if not isinstance(params, dict):
        params = {}
    instance_text = doc.get("instance")
    g = f = None
    if instance_text:
        if not isinstance(instance_text, str):
            raise ValueError("embedded instance is not a string")
        g, f = parse_instance(instance_text)
        if doc.get("instance_digest") != instance_digest(g, f):
            failures.append("instance digest does not match embedded instance")
    for i, cert in enumerate(certificates):
        if not isinstance(cert, dict):
            raise ValueError(f"certificate {i}: not an object")
        kind = cert.get("type")
        if g is None:
            failures.append(f"certificate {i}: no embedded instance to check against")
            continue
        if kind == "factor":
            target = f.values
            if (doc.get("command"), params.get("name")) == ("verify-theorem",
                                                            "regular_connectivity"):
                # that checker's factor is an r-factor, whatever the instance's f
                r = params.get("r")
                if not isinstance(r, int):
                    raise ValueError(f"certificate {i}: the report's 'r' must be an integer")
                target = (r,) * g.n
            if not verify_factor(g, target, target, _factor_of(cert, i)):
                failures.append(f"certificate {i}: edge set is not an f-factor")
        elif kind == "ab_factor":
            factor = _factor_of(cert, i)
            a, b = cert.get("a"), cert.get("b")
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"certificate {i}: needs integers 'a' and 'b'")
            if (params.get("a"), params.get("b")) != (a, b):
                failures.append(f"certificate {i}: bounds a={a}, b={b} are not "
                                "the report's parameters")
            if not verify_factor(g, (a,) * g.n, (b,) * g.n, factor):
                failures.append(f"certificate {i}: edge set is not an [{a},{b}]-factor")
        elif kind == "violating_pair":
            if not (_is_int_list(cert.get("s")) and _is_int_list(cert.get("t"))
                    and all(isinstance(cert.get(key), int) for key in _PAIR_TERMS)):
                raise ValueError(f"certificate {i}: needs vertex lists 's' and 't' "
                                 f"and integers {', '.join(map(repr, _PAIR_TERMS))}")
            rep = deficiency(g, SubsetPair.of(g, cert["s"], cert["t"]), f).to_dict()
            for key in _PAIR_TERMS:
                if rep[key] != cert[key]:
                    failures.append(
                        f"certificate {i}: recomputed {key}="
                        f"{rep[key]} != recorded {cert[key]}"
                    )
            if rep["delta"] >= 0:
                failures.append(
                    f"certificate {i}: recorded pair has nonnegative deficiency"
                )
        else:
            failures.append(f"certificate {i}: unknown type {kind!r}")
    command = doc.get("command")
    if isinstance(command, str) and command in _CLAIMS:
        key, value, kinds = _CLAIMS[command]
        verdicts = doc.get("verdicts")
        if not isinstance(verdicts, dict):
            raise ValueError("the report's 'verdicts' must be an object")
        got = verdicts.get(key)
        claimed = type(got) is type(value) and got == value
        if claimed != any(cert.get("type") in kinds for cert in certificates):
            failures.append(f"verdict {key}={got!r} does not match the certificates")
    return failures
