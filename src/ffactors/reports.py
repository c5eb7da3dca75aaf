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
from types import SimpleNamespace

from .graph import DegreeSpec, Graph
from .instances import instance_digest, parse_instance, serialize_instance, text_digest
from .solver import FactorSubgraph, verify_factor
from .theorems import THEOREMS
from .tutte import deficiency


def factor_certificate(factor: FactorSubgraph) -> dict:
    return {"type": "factor", "edges": [list(e) for e in factor.edges]}


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

# per command, the claim that its certificates stand for: the report's
# section must hold (key, value) iff it carries a certificate of one of these
# types
_CLAIMS = {
    "solve": ("verdicts", "factor_exists", True, ("factor",)),
    "audit": ("verdicts", "violating_pair_found", True, ("violating_pair",)),
    "verify-theorem": ("verdicts", "confirmation", "confirmed", ("factor",)),
    "gen": ("parameters", "nonexistence_reason", "deficiency", ("violating_pair",)),
}


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _factor_of(cert: dict, i: int) -> FactorSubgraph:
    edges = cert.get("edges")
    if not (isinstance(edges, list)
            and all(_is_int_list(e) and len(e) == 2 for e in edges)):
        raise ValueError(f"certificate {i}: 'edges' must be a list of vertex pairs")
    return FactorSubgraph(tuple(tuple(e) for e in edges))


def _theorem(params: dict):
    """The theorem that a ``verify-theorem`` report's parameters name."""
    name = params.get("name")
    theorem = THEOREMS.get(name) if isinstance(name, str) else None
    if theorem is None:
        raise ValueError("the report's 'name' must be a theorem id")
    return theorem


def _theorem_verdict_failures(verdicts: dict, params: dict) -> list[str]:
    """A ``verify-theorem`` report's verdicts must name its theorem and follow
    from its hypothesis rows, as ``Theorem.run`` derives them: the hypotheses
    are met iff every row is satisfied, a prediction is made iff they are
    met, a met prediction is the theorem's conclusion, and only a met
    prediction is confirmed or refuted."""
    rows = verdicts.get("hypotheses")
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and isinstance(row.get("satisfied"), bool) for row in rows)):
        raise ValueError("the report's 'hypotheses' must be a list of rows with a "
                         "boolean 'satisfied'")
    met = all(row["satisfied"] for row in rows)
    failures = []
    theorem, name = verdicts.get("theorem"), params.get("name")
    if theorem != name:
        failures.append(f"verdicts.theorem={theorem!r} does not match parameters.name={name!r}")
    got = verdicts.get("hypotheses_met")
    if not (isinstance(got, bool) and got == met):
        failures.append(f"verdicts.hypotheses_met={got!r} does not match the hypothesis rows")
    prediction = verdicts.get("prediction")
    if (prediction == "no prediction") == met:
        failures.append(f"verdicts.prediction={prediction!r} does not match the hypothesis rows")
    elif met and prediction != (
            expected := _theorem(params).conclusion(SimpleNamespace(**params))):
        failures.append(f"verdicts.prediction={prediction!r} is not the conclusion {expected!r}")
    if verdicts.get("confirmation") is not None and not met:
        failures.append("verdicts.confirmation is set, but not every hypothesis row is satisfied")
    return failures


def recheck_report(doc: dict) -> list[str]:
    """Re-verify every certificate embedded in a report, and that the
    report claims a factor or a violating pair exactly when it carries a
    certificate for one: in its verdicts, or for ``gen`` in its
    parameters' nonexistence reason.

    A ``verify-theorem`` report's verdicts must also name its theorem and
    agree with its hypothesis rows.

    Returns a list of failure descriptions; empty means everything checks.
    A malformed report (not an object, a certificate with a missing or
    mistyped field, a factor whose claimed bounds cannot be read, a claim
    section that is not an object, or hypothesis rows without a boolean
    'satisfied') raises ValueError instead.
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
            lo, hi = (_theorem(params).bounds(g.n, f, SimpleNamespace(**params))
                      if doc.get("command") == "verify-theorem" else (f.values, f.values))
            if not verify_factor(g, lo, hi, _factor_of(cert, i)):
                failures.append(f"certificate {i}: edge set is not the claimed factor")
        elif kind == "violating_pair":
            if not (_is_int_list(cert.get("s")) and _is_int_list(cert.get("t"))
                    and all(type(cert.get(key)) is int for key in _PAIR_TERMS)):
                raise ValueError(f"certificate {i}: needs vertex lists 's' and 't' "
                                 f"and integers {', '.join(map(repr, _PAIR_TERMS))}")
            rep = deficiency(g, cert["s"], cert["t"], f)
            for key in _PAIR_TERMS:
                if getattr(rep, key) != cert[key]:
                    failures.append(f"certificate {i}: recomputed {key}="
                                    f"{getattr(rep, key)} != recorded {cert[key]}")
            if rep.delta >= 0:
                failures.append(f"certificate {i}: recorded pair has nonnegative deficiency")
        else:
            failures.append(f"certificate {i}: unknown type {kind!r}")
    command = doc.get("command")
    if isinstance(command, str) and command in _CLAIMS:
        section, key, value, kinds = _CLAIMS[command]
        claims = doc.get(section)
        if not isinstance(claims, dict):
            raise ValueError(f"the report's {section!r} must be an object")
        got = claims.get(key)
        claimed = type(got) is type(value) and got == value
        if claimed != any(cert.get("type") in kinds for cert in certificates):
            failures.append(f"{section}.{key}={got!r} does not match the certificates")
        if command == "verify-theorem":
            failures += _theorem_verdict_failures(claims, params)
    return failures
