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
from fractions import Fraction
from types import SimpleNamespace

from .graph import DegreeSpec, Graph, components
from .instances import parse_instance, serialize_instance, text_digest
from .invariants import vertex_connectivity
from .solver import FactorSubgraph, verify_factor
from .theorems import THEOREMS
from .tutte import DeficiencyReport, deficiency


def certificates(result: FactorSubgraph | DeficiencyReport | None) -> list[dict]:
    """The certificate list of a report on ``result``: a factor's edges, a
    violating pair with its deficiency terms, or nothing for None."""
    if result is None:
        return []
    if isinstance(result, FactorSubgraph):
        return [{"type": "factor", "edges": [list(e) for e in result.edges]}]
    return [{"type": "violating_pair", **result.to_dict()}]


def build_report(
    command: str,
    parameters: dict,
    seed: int | None,
    instance: tuple[Graph, DegreeSpec] | None,
    verdicts: dict,
    certificates: list[dict],
    started: float | None = None,
) -> dict:
    text = None if instance is None else serialize_instance(*instance)
    return {
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "seed": seed,
        "instance_digest": None if text is None else text_digest(text),
        "instance": text,
        "verdicts": verdicts,
        "certificates": certificates,
        "timing": {"seconds": None if started is None
                   else round(time.monotonic() - started, 6)},
    }


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def strip_timing(doc: dict) -> dict:
    out = dict(doc)
    out.pop("timing", None)
    return out


_PAIR_TERMS = ("f_s", "f_t", "degree_term", "h", "delta")
_ROW_KEYS = {"name", "observed", "satisfied"}

# The one certificate kind a report of each command may carry, at most once;
# a command outside this table makes the report malformed.
_CERT_KIND = {"solve": "factor", "verify-theorem": "factor", "audit": "violating_pair",
              "gen": "violating_pair", "invariants": None, "fuzz": None}

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


def _alpha_failures(g: Graph, alpha, witness) -> list[str]:
    """Why ``witness`` is not an independent set of ``alpha`` vertices of g,
    by its vertices' adjacency lists; this proves alpha >= value only."""
    if not (type(alpha) is int and _is_int_list(witness)
            and all(0 <= v < g.n for v in witness)):
        raise ValueError("verdicts: 'alpha' must be an integer and 'alpha_witness' "
                         "a list of the instance's vertices")
    chosen, failures = set(witness), []
    if len(chosen) < len(witness):
        failures.append("verdicts.alpha_witness repeats a vertex")
    if any(u in chosen for v in chosen for u in g.adj[v]):
        failures.append("verdicts.alpha_witness holds two adjacent vertices")
    if len(witness) != alpha:
        failures.append(f"verdicts.alpha={alpha} but its witness has {len(witness)} vertices")
    return failures


def _ratio_failures(g: Graph, key: str, value, witness, weight) -> list[str]:
    """Why ``witness`` does not show the toughness-type ``value`` of g:
    "infinity" carries a null witness, a finite value a cutset S (at least
    two components of G - S, by ``components``) with |S| / weight(those
    components) equal to it exactly.  This proves min <= value only; no
    cutset scan runs."""
    try:
        ratio = None if value == "infinity" else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        ratio = False
    if not (isinstance(value, str) and ratio is not False and (witness is None or (
            _is_int_list(witness) and all(0 <= v < g.n for v in witness)))):
        raise ValueError(f"verdicts: {key!r} must be \"infinity\" or a fraction and "
                         f"'{key}_witness' null or a list of the instance's vertices")
    if (ratio is None) != (witness is None):
        return [f"verdicts.{key}={value} but its witness is {json.dumps(witness)}"]
    if ratio is None:
        return []
    if len(set(witness)) < len(witness):
        return [f"verdicts.{key}_witness repeats a vertex"]
    comps = components(g, witness)
    if len(comps) < 2:
        return [f"verdicts.{key}_witness leaves G - S connected"]
    w = weight(comps)
    if not w or Fraction(len(witness), w) != ratio:
        return [f"verdicts.{key}={value} but its witness gives {len(witness)}/{w}"]
    return []


def _invariants_failures(g: Graph, f: DegreeSpec, verdicts: dict) -> list[str]:
    """Why an ``invariants`` report's verdicts do not check against (g, f):
    n and m, where given, are read off g, kappa is recomputed capped at
    its value + 1, which proves it from both sides, and the alpha and
    (odd-)toughness witnesses are checked by ``_alpha_failures`` and
    ``_ratio_failures``, with c(G - S) and h'(G - S), the number of
    components with an odd f-sum, as the toughness weights."""
    failures = [f"verdicts.{key}={json.dumps(verdicts[key])} does not match {want}"
                for key, want in (("n", g.n), ("m", g.m))
                if key in verdicts and json.dumps(verdicts[key]) != str(want)]
    if "kappa" in verdicts:
        kappa = verdicts["kappa"]
        if not (type(kappa) is int and kappa >= 0):
            raise ValueError("verdicts: 'kappa' must be a nonnegative integer")
        if (got := vertex_connectivity(g, kappa + 1)) != kappa:
            failures.append(f"verdicts.kappa={kappa} but min(kappa, {kappa + 1}) = {got}")
    if "alpha" in verdicts:
        failures += _alpha_failures(g, verdicts["alpha"], verdicts.get("alpha_witness"))
    for key, weight in (("toughness", len), ("odd_toughness", lambda comps: sum(
            sum(f.values[v] for v in c) & 1 for c in comps))):
        if key in verdicts:
            failures += _ratio_failures(g, key, verdicts[key],
                                        verdicts.get(f"{key}_witness"), weight)
    return failures


def _theorem(params: dict):
    """The theorem that a ``verify-theorem`` report's parameters name, and
    the parameters as a namespace; a, b, r and star_order must be integers."""
    name = params.get("name")
    theorem = THEOREMS.get(name) if isinstance(name, str) else None
    if theorem is None:
        raise ValueError("the report's 'name' must be a theorem id")
    for key in ("a", "b", "r", "star_order"):
        if type(params.get(key)) is not int:
            raise ValueError(f"parameter {key!r} must be an integer")
    return theorem, SimpleNamespace(**params)


def verdicts_of(command: str, g: Graph, f: DegreeSpec, params: dict, certs: list[dict],
                rows: list | None = None) -> dict:
    """The verdicts that a ``solve``, ``audit``, ``gen`` or ``verify-theorem``
    report on (g, f) with these parameters and certificates must carry.

    A factor or a pair is claimed exactly when a certificate carries it.  A
    ``verify-theorem`` report's rows are ``Theorem.check``'s for the theorem
    its parameters name, with each exponential row that runs (every
    polynomial row holds) taken from ``rows`` by name; with ``confirm``, a met prediction is
    confirmed iff a factor certificate is present.  Malformed ``rows``
    raise ValueError.
    """
    kinds = [cert.get("type") for cert in certs]
    if command == "solve":
        return {"factor_exists": "factor" in kinds}
    if command == "audit":
        found = "violating_pair" in kinds
        return {"mode": "exact" if g.n <= AUDIT_EXACT_MAX_N else "heuristic",
                "violating_pair_found": found,
                "conclusion": "f-factor does not exist" if found else "no violating pair exists"}
    if command == "gen":
        return {"generated": True}
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and row.keys() == _ROW_KEYS and isinstance(row["name"], str)
            and isinstance(row["observed"], str) and isinstance(row["satisfied"], bool)
            for row in rows)):
        raise ValueError("the report's 'hypotheses' must be a list of rows with a string "
                         "'name' and 'observed' and a boolean 'satisfied'")
    theorem, namespace = _theorem(params)
    report = theorem.check(g, f, namespace, rows)
    if params.get("confirm") is True and report.hypotheses_met:
        report.confirmation = "confirmed" if "factor" in kinds else "refuted"
    return report.to_dict()


def recheck_report(doc: dict) -> list[str]:
    """Re-verify every certificate embedded in a report, and re-derive the
    verdicts of a ``solve``, ``audit``, ``gen`` or ``verify-theorem`` report
    with ``verdicts_of``: each key of the recorded verdict object must equal
    the derived one, JSON type included.  A report carries at most one
    certificate, of the kind ``_CERT_KIND`` gives its command.  A ``gen``
    report must also give "deficiency" as its parameters' nonexistence
    reason exactly when it carries a violating pair, and a ``verify-theorem``
    report's parameters must lie in its theorem's domain.  An ``invariants``
    report's n, m and kappa must be the instance's, and its alpha and
    (odd-)toughness witnesses must show their values, by
    ``_invariants_failures``: a witness proves alpha >= value and
    toughness <= value only.

    Returns a list of failure descriptions; empty means everything checks.
    A malformed report (not an object, a command outside ``_CERT_KIND``, a
    certificate or witness with a missing or mistyped field, verdicts
    or parameters of a non-``fuzz`` report that are not objects, a theorem
    id, a, b, r or star_order of the wrong type, or malformed hypothesis
    rows) raises ValueError instead.
    """
    certificates = doc.get("certificates", []) if isinstance(doc, dict) else None
    if not isinstance(certificates, list):
        raise ValueError("report is not an object with a list of certificates")
    command, params, verdicts = doc.get("command"), doc.get("parameters"), doc.get("verdicts")
    if not (isinstance(command, str) and command in _CERT_KIND):
        raise ValueError(f"the report's 'command' must be one of {', '.join(_CERT_KIND)}")
    failures = ([f"certificates: {command} reports carry at most one, "
                 f"got {len(certificates)}"] if len(certificates) > 1 else [])
    for section, value in (("parameters", params), ("verdicts", verdicts)):
        if command != "fuzz" and not isinstance(value, dict):
            raise ValueError(f"the report's {section!r} must be an object")
    theorem, namespace = _theorem(params) if command == "verify-theorem" else (None, None)
    instance_text = doc.get("instance")
    g = f = None
    if instance_text:
        if not isinstance(instance_text, str):
            raise ValueError("embedded instance is not a string")
        g, f = parse_instance(instance_text)
        if doc.get("instance_digest") != text_digest(instance_text):
            failures.append("instance digest does not match embedded instance")
    for i, cert in enumerate(certificates):
        if not isinstance(cert, dict):
            raise ValueError(f"certificate {i}: not an object")
        kind = cert.get("type")
        if kind != _CERT_KIND[command]:
            failures.append(f"certificate {i}: type {kind!r} is foreign to {command} reports")
            continue
        if g is None:
            failures.append(f"certificate {i}: no embedded instance to check against")
            continue
        if kind == "factor":
            lo, hi = theorem.bounds(g.n, f, namespace) if theorem else (f.values, f.values)
            if not verify_factor(g, lo, hi, _factor_of(cert, i)):
                failures.append(f"certificate {i}: edge set is not the claimed factor")
        elif not (_is_int_list(cert.get("s")) and _is_int_list(cert.get("t"))
                  and all(type(cert.get(key)) is int for key in _PAIR_TERMS)):
            raise ValueError(f"certificate {i}: needs vertex lists 's' and 't' "
                             f"and integers {', '.join(map(repr, _PAIR_TERMS))}")
        else:
            rep = deficiency(g, cert["s"], cert["t"], f)
            for key in _PAIR_TERMS:
                if getattr(rep, key) != cert[key]:
                    failures.append(f"certificate {i}: recomputed {key}="
                                    f"{getattr(rep, key)} != recorded {cert[key]}")
            if rep.delta >= 0:
                failures.append(f"certificate {i}: recorded pair has nonnegative deficiency")
    if command == "fuzz":
        return failures
    if g is None:
        return failures + ["verdicts: no embedded instance to check against"]
    if command == "invariants":
        return failures + _invariants_failures(g, f, verdicts)
    if theorem and (need := theorem.outside(namespace)):
        return failures + [f"parameters: {need}"]
    want = verdicts_of(command, g, f, params, certificates, verdicts.get("hypotheses"))
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
