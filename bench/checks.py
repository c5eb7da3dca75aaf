"""Independent correctness checks of the program's reports.

Nothing here imports ``ffactors``: instances are re-parsed from the files
the benchmark wrote, deficiencies and odd-component counts are recomputed
by a short implementation of Tutte's formula, and alpha and kappa come
from networkx.  Each check either recomputes a reported quantity or tests
a property every correct answer has; none compares with a stored copy of
an earlier output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class Graph:
    """The benchmark's own reading of an instance file."""

    def __init__(self, text: str):
        self.n = 0
        self.edges = []
        f = {}
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "p":
                self.n = int(parts[2])
            elif parts[0] == "e":
                self.edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "f":
                f[int(parts[1])] = int(parts[2])
        self.adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.f = [f[v] for v in range(self.n)]

    def min_degree(self) -> int:
        return min(len(a) for a in self.adj)

    def components(self, removed: set) -> list:
        seen = set(removed)
        out = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            for v in comp:
                for u in self.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
            out.append(comp)
        return out


def deficiency(g: Graph, s, t) -> dict:
    """Every term of delta(S, T) = f(S) - f(T) + sum_{v in T} d_{G-S}(v) - h(S, T),
    where h counts components C of G - (S u T) with f(C) + e(C, T) odd."""
    s, t = set(s), set(t)
    if s & t:
        raise ValueError("S and T overlap")
    f_s = sum(g.f[v] for v in s)
    f_t = sum(g.f[v] for v in t)
    degree_term = sum(len(g.adj[v] - s) for v in t)
    h = 0
    for comp in g.components(s | t):
        parity = sum(g.f[v] + len(g.adj[v] & t) for v in comp)
        h += parity % 2
    return {"f_s": f_s, "f_t": f_t, "degree_term": degree_term, "h": h,
            "delta": f_s - f_t + degree_term - h}


def odd_ratio(g: Graph, s) -> tuple:
    """(number of components of G - S, |S| / h'(G - S) or None), where h'
    counts the components with an odd f-sum."""
    comps = g.components(set(s))
    odd = sum(1 for c in comps if sum(g.f[v] for v in c) % 2)
    return len(comps), (Fraction(len(s), odd) if odd else None)


def odd_toughness_violation(g: Graph, a: int, kappa: int):
    """A cutset S with at least two components in G - S and a|S| < h'(G - S),
    or None when odd-toughness >= 1/a.

    h' <= n - |S|, so only |S| < n / (a + 1) can violate, and a cutset has at
    least kappa vertices; the scan covers every size in between.
    """
    size = max(1, kappa)
    while a * size < g.n - size:
        for s in combinations(range(g.n), size):
            comps = g.components(set(s))
            if len(comps) < 2:
                continue
            odd = sum(1 for c in comps if sum(g.f[v] for v in c) % 2)
            if a * size < odd:
                return s
        size += 1
    return None


def is_factor(g: Graph, edges) -> bool:
    """The edges are distinct edges of G and give every vertex v degree f(v)."""
    seen = set()
    deg = [0] * g.n
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen or v not in g.adj[u]:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return deg == g.f


def nx_graph(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class References:
    """alpha and kappa from networkx, and the odd-toughness decision, each
    computed once per instance, after the timed loop."""

    def __init__(self):
        self.cache = {}

    def _get(self, kind, key, compute):
        if (kind, key) not in self.cache:
            self.cache[(kind, key)] = compute()
        return self.cache[(kind, key)]

    def alpha(self, g: Graph, key) -> int:
        def compute():
            import networkx as nx

            _, weight = nx.max_weight_clique(nx.complement(nx_graph(g)), weight=None)
            return weight
        return self._get("alpha", key, compute)

    def kappa(self, g: Graph, key) -> int:
        def compute():
            import networkx as nx

            return nx.node_connectivity(nx_graph(g))
        return self._get("kappa", key, compute)

    def odd_violation(self, g: Graph, key, a: int):
        return self._get(("odd", a), key,
                         lambda: odd_toughness_violation(g, a, self.kappa(g, key)))


def _stability_bound(a: int, b: int, delta: int) -> Fraction:
    return Fraction(4 * a * (delta - b), (b + 1) ** 2)


def check(op, rc: int, doc: dict, refs: References) -> list:
    """Problems found in one operation's exit code and report; empty when
    the report is right."""
    inst = op.instance
    g = Graph(inst.text)
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(f"{op.key}: {what}")

    need(doc.get("instance") == inst.text, "embedded instance differs from the file")
    verdicts = doc.get("verdicts", {})
    certs = doc.get("certificates", [])
    factors = [c["edges"] for c in certs if c.get("type") == "factor"]
    for edges in factors:
        need(is_factor(g, edges), "factor certificate is not an f-factor")

    if op.kind == "solve":
        exists = "pair" not in inst.known
        need(rc == (0 if exists else 1), f"exit code {rc}")
        need(verdicts.get("factor_exists") is exists, "wrong existence verdict")
        need(len(factors) == (1 if exists else 0), "factor certificate count")
        if not exists:
            s, t = inst.known["pair"]
            need(deficiency(g, s, t)["delta"] < 0, "construction witness has delta >= 0")

    elif op.kind == "audit":
        need(rc == 0, f"exit code {rc}")
        exact = g.n <= 15
        need(verdicts.get("mode") == ("exact" if exact else "heuristic"), "search mode")
        pairs = [c for c in certs if c.get("type") == "violating_pair"]
        need(verdicts.get("violating_pair_found") is bool(pairs), "verdict without certificate")
        for cert in pairs:
            recomputed = deficiency(g, cert["s"], cert["t"])
            need(recomputed["delta"] < 0, "reported pair has delta >= 0")
            for term, value in recomputed.items():
                need(cert.get(term) == value, f"reported {term} differs from recomputed")
        if inst.known.get("planted"):
            need(not pairs, "violating pair reported although a factor exists")
        if "pair" in inst.known:
            s, t = inst.known["pair"]
            need(deficiency(g, s, t)["delta"] < 0, "construction witness has delta >= 0")
            if exact:
                need(bool(pairs), "exact search missed a violating pair")

    elif op.kind in ("main", "kappa_corollary"):
        need(rc == 0, f"exit code {rc}")
        a, b = op.params["a"], op.params["b"]
        hyps = {h["name"]: h["satisfied"] for h in verdicts.get("hypotheses", [])}
        delta = g.min_degree()
        connected = len(g.components(set())) == 1
        need(hyps.get("connected") is connected, "connected hypothesis")
        need(hyps.get("a_at_least_1") is (a >= 1), "a_at_least_1 hypothesis")
        need(hyps.get("b_at_least_2") is (b >= 2), "b_at_least_2 hypothesis")
        need(hyps.get("min_degree") is (delta >= b), "min_degree hypothesis")
        need(hyps.get("f_range") is all(a <= x <= b for x in g.f), "f_range hypothesis")
        need(hyps.get("f_total_even") is (sum(g.f) % 2 == 0), "parity hypothesis")
        evaluated = connected and b >= 2 and a >= 1 and delta >= b
        if evaluated:
            alpha = refs.alpha(g, inst.path)
            bound = _stability_bound(a, b, delta)
            if op.kind == "kappa_corollary":
                bound = min(bound, Fraction(a * refs.kappa(g, inst.path)))
            need(hyps.get("stability") is (alpha <= bound), "stability hypothesis")
            if op.kind == "main":
                tough = refs.odd_violation(g, inst.path, a) is None
                need(hyps.get("odd_toughness") is tough, "odd-toughness hypothesis")
        met = all(hyps.values())
        need(verdicts.get("hypotheses_met") is met, "hypotheses_met")
        need(verdicts.get("confirmation") != "refuted", "confirmation refuted")
        if met:
            need(verdicts.get("confirmation") == "confirmed", "met but not confirmed")
            need(len(factors) == 1, "confirmed without a factor certificate")
        if op.params.get("g0_desk"):
            need(hyps.get("stability") is True, "g0 desk: stability should hold")
            failing = [name for name, ok in hyps.items() if not ok]
            need(failing == ["odd_toughness"], f"g0 desk: failing hypotheses {failing}")

    elif op.kind == "odd_toughness":
        need(rc == 0, f"exit code {rc}")
        a = op.params["a"]
        value, witness = verdicts.get("odd_toughness"), verdicts.get("odd_toughness_witness")
        if witness is None:
            need(value == "infinity", "finite odd-toughness without a witness")
            tough = True
        else:
            comps, ratio = odd_ratio(g, witness)
            need(comps >= 2 and ratio is not None and str(ratio) == value,
                 f"witness gives {ratio}, reported {value}")
            tough = ratio is None or ratio >= Fraction(1, a)
        violation = refs.odd_violation(g, inst.path, a)
        need(tough is (violation is None), "odd-toughness disagrees with the cutset scan")

    elif op.kind == "alpha_kappa":
        need(rc == 0, f"exit code {rc}")
        witness = verdicts.get("alpha_witness", [])
        need(verdicts.get("alpha") == refs.alpha(g, inst.path), "alpha differs from networkx")
        need(len(set(witness)) == verdicts.get("alpha"), "alpha witness size")
        need(all(v not in g.adj[u] for u, v in combinations(witness, 2)),
             "alpha witness is not independent")
        need(verdicts.get("kappa") == refs.kappa(g, inst.path), "kappa differs from networkx")

    else:
        problems.append(f"{op.key}: no check for kind {op.kind!r}")
    return problems
