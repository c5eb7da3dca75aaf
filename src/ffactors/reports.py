"""Machine-readable run reports and certificate rechecking.

A report is a JSON document with a stable field order: command, parameters,
seed, instance digest, the embedded normalized instance, verdicts, a list
of certificates, and timing.  Every embedded certificate can be re-verified
from the report alone, without rerunning any search, and the verdicts of
a ``solve``, ``audit``, ``gen`` or ``verify-theorem`` report are
re-derived by ``verdicts_of``, the same function that writes them;
comparisons between reports ignore the timing block.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from .graph import DegreeSpec, Graph
from .instances import instance_digest, parse_instance, serialize_instance, text_digest
from .solver import FactorSubgraph, verify_factor
from .theorems import THEOREMS, Hypothesis, HypothesisReport
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
_ROW_KEYS = {"name", "observed", "satisfied"}

# The audit pair is a minimum at every n; the label only splits n at this
# size because bench/checks.py still demands that split (ROADMAP item 1).
AUDIT_EXACT_MAX_N = 15


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


def verdicts_of(command: str, n: int, params: dict, certs: list[dict],
                rows: list | None = None) -> dict:
    """The verdicts that a ``solve``, ``audit``, ``gen`` or ``verify-theorem``
    report on n vertices with these parameters and certificates must carry.

    A factor or a pair is claimed exactly when a certificate carries it.  A
    ``verify-theorem`` report's verdicts follow from its hypothesis rows as
    ``Theorem.run`` derives them: the theorem named in its parameters, a
    prediction only when every row is satisfied, and with ``confirm`` a met
    prediction confirmed iff a factor certificate is present.  Rows that
    are not objects with exactly a name, an observation and a boolean
    'satisfied' raise ValueError.
    """
    kinds = [cert.get("type") for cert in certs]
    if command == "solve":
        return {"factor_exists": "factor" in kinds}
    if command == "audit":
        found = "violating_pair" in kinds
        return {"mode": "exact" if n <= AUDIT_EXACT_MAX_N else "heuristic",
                "violating_pair_found": found,
                "conclusion": "f-factor does not exist" if found else "no violating pair exists"}
    if command == "gen":
        return {"generated": True}
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and row.keys() == _ROW_KEYS
            and isinstance(row["satisfied"], bool) for row in rows)):
        raise ValueError("the report's 'hypotheses' must be a list of rows with a "
                         "'name', an 'observed' and a boolean 'satisfied'")
    conclusion = _theorem(params).conclusion(SimpleNamespace(**params))
    report = HypothesisReport(params["name"], conclusion, [Hypothesis(**row) for row in rows])
    if params.get("confirm") is True and report.hypotheses_met:
        report.confirmation = "confirmed" if "factor" in kinds else "refuted"
    return report.to_dict()


def recheck_report(doc: dict) -> list[str]:
    """Re-verify every certificate embedded in a report, and re-derive the
    verdicts of a ``solve``, ``audit``, ``gen`` or ``verify-theorem`` report
    with ``verdicts_of``: each key of the recorded verdict object must equal
    the derived one, JSON type included.  A ``gen`` report must also give
    "deficiency" as its parameters' nonexistence reason exactly when it
    carries a violating pair.

    Returns a list of failure descriptions; empty means everything checks.
    A malformed report (not an object, a certificate with a missing or
    mistyped field, a factor whose claimed bounds cannot be read, verdicts
    or parameters that are not objects, or malformed hypothesis rows)
    raises ValueError instead.
    """
    certificates = doc.get("certificates", []) if isinstance(doc, dict) else None
    if not isinstance(certificates, list):
        raise ValueError("report is not an object with a list of certificates")
    failures: list[str] = []
    command, params, verdicts = doc.get("command"), doc.get("parameters"), doc.get("verdicts")
    derived = command in ("solve", "audit", "gen", "verify-theorem")
    for section, value in (("parameters", params), ("verdicts", verdicts)):
        if derived and not isinstance(value, dict):
            raise ValueError(f"the report's {section!r} must be an object")
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
                      if command == "verify-theorem" else (f.values, f.values))
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
    if not derived:
        return failures
    if g is None:
        return failures + ["verdicts: no embedded instance to check against"]
    want = verdicts_of(command, g.n, params, certificates, verdicts.get("hypotheses"))
    for key in {**want, **verdicts}:
        # compared as JSON text: 1 matches neither true nor 1.0, and the
        # order of an object's keys does not count
        got, expected = (json.dumps(side[key], sort_keys=True) if key in side else "(absent)"
                         for side in (verdicts, want))
        if got != expected:
            failures.append(f"verdicts.{key}={got} does not match {expected}")
    reason = params.get("nonexistence_reason")
    if command == "gen" and (reason == "deficiency") != any(
            cert.get("type") == "violating_pair" for cert in certificates):
        failures.append(f"parameters.nonexistence_reason={reason!r} does not match "
                        "the certificates")
    return failures
