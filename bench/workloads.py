"""Seeded instance generation and the fixed operation list of each workload.

Every instance is built through the program's own generators
(``instances.random_connected_graph``, ``instances.random_degree_spec``,
``constructions.build_g0`` / ``build_g1``, ``graph.build_graph``) and
written with ``instances.serialize_instance``; the program only ever sees
the resulting files.  What the benchmark knows about an instance by
construction (a planted factor, a violating pair) travels alongside it in
``Instance.known`` and is used by the independent checks, never by the
program.

A workload is a fixed list of *rounds*; every round has the same
composition of operation kinds and fresh instances.  A run executes the
whole list once, so every run of a workload does the same amount of work
in the same order, whatever the program's speed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve", "audit", "main_theorem", "invariants")

# Seconds one round takes untraced on the reference machine (2 cores,
# Python 3.11).  A run holds as many rounds as fit in --seconds there; the
# count depends only on --seconds, never on a clock.
NOMINAL_ROUND_S = {
    "solve": 1.6,
    "audit": 1.4,
    "main_theorem": 1.05,
    "invariants": 1.45,
}


@dataclass
class Instance:
    """One instance file and what the benchmark knows about it by
    construction: ``planted`` (a factor exists), ``pair`` (an (S, T) with
    negative deficiency), or neither."""

    name: str
    path: str
    text: str
    known: dict = field(default_factory=dict)


@dataclass
class Op:
    """One timed operation: ``ffactors <argv> --out <report>`` followed by
    ``ffactors recheck <report>``."""

    key: str
    kind: str
    argv: list
    report: str
    instance: Instance
    params: dict = field(default_factory=dict)


class Builder:
    """Writes instances into ``workdir`` and hands out unique op keys."""

    def __init__(self, ff, workload: str, seed: int, workdir: str):
        self.ff = ff
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.count = 0

    def int_seed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def instance(self, name, g, f, **known) -> Instance:
        text = self.ff.instances.serialize_instance(g, f)
        path = os.path.join(self.workdir, f"{self.count:04d}-{name}.inst")
        self.count += 1
        with open(path, "w") as fh:
            fh.write(text)
        return Instance(name, path, text, known)

    def op(self, kind: str, inst: Instance, argv: list, **params) -> Op:
        key = os.path.splitext(os.path.basename(inst.path))[0] + "-" + kind
        report = os.path.join(self.workdir, key + ".json")
        full = argv + ["--out", report]
        return Op(key, kind, full, report, inst, params)

    # graph families ---------------------------------------------------

    def connected(self, n: int, p: float):
        return self.ff.instances.random_connected_graph(n, p, self.int_seed())

    def min_degree_at_least(self, g, low: int):
        """Add edges from every vertex of degree < low to random others."""
        edges = set(g.edges())
        deg = [g.degree(v) for v in range(g.n)]
        for v in range(g.n):
            while deg[v] < low:
                u = self.rng.randrange(g.n)
                e = (min(u, v), max(u, v))
                if u != v and e not in edges:
                    edges.add(e)
                    deg[u] += 1
                    deg[v] += 1
        return self.ff.graph.build_graph(g.n, sorted(edges))

    def planted(self, name: str, n: int, p: float, q: float) -> Instance:
        """G(n, p) with f(v) = degree of v in a random spanning subgraph
        that keeps each edge with probability q: a factor exists."""
        g = self.connected(n, p)
        deg = [0] * g.n
        for u, v in g.edges():
            if self.rng.random() < q:
                deg[u] += 1
                deg[v] += 1
        f = self.ff.graph.DegreeSpec(tuple(deg))
        return self.instance(name, g, f, planted=True)

    def barrier(self, name: str, k: int, sizes: list, p: float, q: float) -> Instance:
        """A cutset S of k vertices joined to len(sizes) random connected
        components, each with an odd f-sum, and f(S) = len(sizes) - 2.

        delta(S, {}) = f(S) - #odd components = -2, so no factor exists;
        f(X) is even and f <= d, so the solver fails only in the matcher.
        """
        ff = self.ff
        comps = len(sizes)
        edges = []
        f = [0] * k
        for u in range(k):
            for v in range(u + 1, k):
                if self.rng.random() < 0.5:
                    edges.append((u, v))
        offset = k
        for size in sizes:
            c = self.connected(size, p)
            local = [0] * size
            for u, v in c.edges():
                edges.append((u + offset, v + offset))
                if self.rng.random() < q:
                    local[u] += 1
                    local[v] += 1
            anchors = self.rng.sample(range(size), min(size, 2))
            for s in range(k):
                for a in anchors[: 1 + (s % 2)]:
                    edges.append((s, a + offset))
            if sum(local) % 2 == 0:
                # anchors[0] has an edge to S that the planted part never
                # uses, so one more unit of f stays within its degree
                local[anchors[0]] += 1
            f += local
            offset += size
        g = ff.graph.build_graph(offset, edges)
        budget = comps - 2
        for s in range(k):
            take = min(budget, g.degree(s))
            f[s] = take
            budget -= take
        if budget:
            raise ValueError("cutset degree too small for f(S)")
        spec = ff.graph.DegreeSpec(tuple(f))
        return self.instance(name, g, spec, pair=(list(range(k)), []))

    def bridged(self, name: str, k: int, p: float, c: int, q: float) -> Instance:
        """Two G(k, p) blobs joined only through a clique C of c vertices,
        each joined to every blob vertex with probability q.

        Removing C separates the blobs, so kappa <= c; with dense blobs
        delta is high enough that a*kappa, not 4a(delta-b)/(b+1)^2, is the
        binding term of the kappa corollary's stability bound, and alpha
        (about two per blob) sits near it, so the hypotheses often hold.
        """
        edges = []
        for offset in (0, k):
            for u in range(k):
                for v in range(u + 1, k):
                    if self.rng.random() < p:
                        edges.append((offset + u, offset + v))
        for i in range(c):
            s = 2 * k + i
            edges.extend((s, 2 * k + j) for j in range(i + 1, c))
            edges.extend((s, v) for v in range(2 * k) if self.rng.random() < q)
        g = self.ff.graph.build_graph(2 * k + c, edges)
        f = self.ff.instances.random_degree_spec(g, 1, 2, self.int_seed())
        return self.instance(name, g, f)

    def construction(self, name: str, built) -> Instance:
        known = {}
        if built.witness_pair is not None:
            known["pair"] = (list(built.witness_pair.s), list(built.witness_pair.t))
        return self.instance(name, built.graph, built.spec, **known)


# Infeasible members of the paper's sharpness families used by ``solve``;
# every one has an even f(X), f <= d and a deficiency witness.
G0_G1_MEMBERS = (
    ("g0", dict(a=2, b=3, k=1, delta=12, p=4)),   # the g0 desk instance
    ("g0", dict(a=1, b=3, k=1, delta=14, p=3)),
    ("g1", dict(a=2, b=4, r=2, delta=24, alpha=10)),
)


def _solve_round(b: Builder, r: int) -> list:
    ops = []
    for j in range(3):
        # the gadget has about n * d^2 / 2 edges for average degree d, so
        # d shrinks as n grows to keep operations of like size
        n = b.rng.randint(60, 200)
        avg_degree = (14400 / n) ** 0.5 * b.rng.uniform(0.9, 1.1)
        inst = b.planted(f"planted{n}", n, avg_degree / (n - 1), 0.5)
        ops.append(b.op("solve", inst, ["solve", inst.path]))
    comps = b.rng.randint(3, 5)
    sizes = [b.rng.randint(15, 35) for _ in range(comps)]
    inst = b.barrier(f"barrier{sum(sizes) + 1}", 1, sizes, 0.35, 0.5)
    ops.append(b.op("solve", inst, ["solve", inst.path]))
    family, params = G0_G1_MEMBERS[r % len(G0_G1_MEMBERS)]
    build = b.ff.constructions.build_g0 if family == "g0" else b.ff.constructions.build_g1
    inst = b.construction(family, build(**params))
    ops.append(b.op("solve", inst, ["solve", inst.path]))
    return ops


def _audit_round(b: Builder) -> list:
    def exact_planted():
        return b.planted("exact-planted", 10, b.rng.uniform(0.3, 0.6), 0.5)

    def exact_barrier():
        k = b.rng.randint(1, 2)
        rest = 10 - k
        first = b.rng.randint(2, rest - 4)
        second = b.rng.randint(2, rest - first - 2)
        return b.barrier("exact-barrier", k, [first, second, rest - first - second], 0.6, 0.5)

    def heuristic_planted():
        n = b.rng.randint(60, 90)
        return b.planted(f"heur-planted{n}", n, 6 / (n - 1), 0.5)

    def heuristic_barrier():
        sizes = [b.rng.randint(18, 28) for _ in range(3)]
        return b.barrier(f"heur-barrier{sum(sizes) + 1}", 1, sizes, 0.3, 0.5)

    ops = []
    for make in (exact_planted, exact_barrier, exact_planted, heuristic_planted,
                 exact_barrier, heuristic_barrier):
        inst = make()
        ops.append(b.op("audit", inst, ["audit", inst.path]))
    return ops


def _main_theorem_round(b: Builder, g0_desk: Instance) -> list:
    ff = b.ff
    ops = []
    for j in range(6):
        g = b.connected(16, b.rng.uniform(0.7, 0.85))
        f = ff.instances.random_degree_spec(g, 1, 2, b.int_seed())
        inst = b.instance("dense16", g, f)
        if j == 5:
            ops.append(b.op("odd_toughness", inst,
                            ["invariants", inst.path, "--odd-toughness"], a=1))
        else:
            ops.append(b.op("main", inst,
                            ["verify-theorem", "main", inst.path, "--a", "1",
                             "--b", "2", "--confirm"], a=1, b=2))
    ops.append(b.op("main", g0_desk,
                    ["verify-theorem", "main", g0_desk.path, "--a", "2",
                     "--b", "3", "--confirm"], a=2, b=3, g0_desk=True))
    return ops


def _invariants_round(b: Builder) -> list:
    ff = b.ff
    ops = []
    # sparse graphs make alpha's branch and bound work, medium ones make
    # kappa's flows work; each shape meets each command once per round
    for kind, (n_lo, n_hi, degree) in (("alpha_kappa", (48, 54, 6)),
                                       ("kappa_corollary", (36, 42, 10)),
                                       ("alpha_kappa", (36, 42, 10)),
                                       ("kappa_corollary", (48, 54, 6))):
        n = b.rng.randint(n_lo, n_hi)
        g = b.min_degree_at_least(b.connected(n, degree / (n - 1)), 2)
        f = ff.instances.random_degree_spec(g, 1, 2, b.int_seed())
        inst = b.instance(f"sparse{n}" if degree == 6 else f"medium{n}", g, f)
        if kind == "alpha_kappa":
            ops.append(b.op(kind, inst, ["invariants", inst.path, "--alpha", "--kappa"]))
        else:
            ops.append(b.op(kind, inst, _corollary_argv(inst), a=1, b=2))
    # on sparse and medium graphs alpha is far above the bound, so the
    # corollary never holds there; on bridged graphs kappa = 4 is the
    # binding term and the hypotheses mostly hold, so a wrong kappa flips
    # the verdict and --confirm runs the solver
    inst = b.bridged("bridged32", 14, 0.97, 4, 0.8)
    ops.append(b.op("kappa_corollary", inst, _corollary_argv(inst), a=1, b=2))
    return ops


def _corollary_argv(inst: Instance) -> list:
    return ["verify-theorem", "kappa_corollary", inst.path,
            "--a", "1", "--b", "2", "--confirm"]


def round_count(workload: str, seconds: float) -> int:
    """Rounds in one run: those that fit in ``seconds`` untraced on the
    reference machine."""
    return max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))


def build(ff, workload: str, seed: int, seconds: float, workdir: str) -> list:
    """The rounds of ``workload`` for ``seed``, written to ``workdir``;
    their number depends only on ``seconds``."""
    b = Builder(ff, workload, seed, workdir)
    rounds = round_count(workload, seconds)
    if workload == "solve":
        return [_solve_round(b, r) for r in range(rounds)]
    if workload == "audit":
        return [_audit_round(b) for _ in range(rounds)]
    if workload == "main_theorem":
        desk = b.construction("g0desk", ff.constructions.g0_desk_instance())
        return [_main_theorem_round(b, desk) for _ in range(rounds)]
    if workload == "invariants":
        return [_invariants_round(b) for _ in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")
