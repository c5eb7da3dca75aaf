"""Instance file format and seeded random instance generation.

The textual format is DIMACS-style:

    c optional comment lines
    p ffactor <n> <m>
    e <u> <v>            one line per edge, 0-based indices
    f <v> <value>        per-vertex target degree
    default-f <value>    fallback for vertices without an f line

Serialization emits the normal form: header, sorted edge lines, then an
explicit sorted f line for every vertex.  Parsing the normal form and
re-serializing is the identity.
"""

from __future__ import annotations

import hashlib
import random

from .graph import DegreeSpec, Graph, build_graph, is_connected


# every line type with its exact fields
_LINE_FORMS = {
    "p": ("p", "ffactor", "<n>", "<m>"),
    "e": ("e", "<u>", "<v>"),
    "f": ("f", "<v>", "<value>"),
    "default-f": ("default-f", "<value>"),
}


def parse_instance(text: str) -> tuple[Graph, DegreeSpec]:
    """Parse an instance document; errors name the offending line."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    f_values: dict[int, int] = {}
    default_f: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            form = _LINE_FORMS.get(parts[0])
            if form is None:
                raise ValueError(f"unknown line type {parts[0]!r}")
            if len(parts) != len(form) or (parts[0] == "p" and parts[1] != "ffactor"):
                raise ValueError(f"expected '{' '.join(form)}'")
            if parts[0] == "p":
                if n is not None:
                    raise ValueError("duplicate problem line")
                n, declared_m = int(parts[2]), int(parts[3])
            elif parts[0] == "e":
                if n is None:
                    raise ValueError("edge before problem line")
                u, v = int(parts[1]), int(parts[2])
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"vertex out of range in edge ({u},{v})")
                edges.append((u, v))
            elif parts[0] == "f":
                if n is None:
                    raise ValueError("f line before problem line")
                v, value = int(parts[1]), int(parts[2])
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range")
                if v in f_values:
                    raise ValueError(f"duplicate f assignment for vertex {v}")
                f_values[v] = value
            elif parts[0] == "default-f":
                if default_f is not None:
                    raise ValueError("duplicate default-f line")
                default_f = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing problem line")
    g = build_graph(n, edges)
    if g.m != declared_m:
        raise ValueError(
            f"problem line declares m={declared_m} but document has {g.m} "
            "distinct edges"
        )
    values = []
    for v in range(n):
        if v in f_values:
            values.append(f_values[v])
        elif default_f is not None:
            values.append(default_f)
        else:
            raise ValueError(f"no target degree for vertex {v} and no default-f")
    return g, DegreeSpec(tuple(values))


def serialize_instance(g: Graph, f: DegreeSpec) -> str:
    """Normal-form serialization: sorted edges, explicit sorted f lines."""
    if len(f.values) != g.n:
        raise ValueError("degree spec length mismatch")
    lines = [f"p ffactor {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    lines += [f"f {v} {f.values[v]}" for v in range(g.n)]
    return "\n".join(lines) + "\n"


def instance_digest(g: Graph, f: DegreeSpec) -> str:
    """Content hash of the normalized serialization."""
    return hashlib.sha256(serialize_instance(g, f).encode()).hexdigest()


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_connected_graph(n: int, p: float, seed: int, max_tries: int = 200) -> Graph:
    """Resample G(n, p) until connected; errors after max_tries attempts."""
    for attempt in range(max_tries):
        g = random_graph(n, p, seed + attempt * 7919)
        if is_connected(g) and g.n > 0:
            return g
    raise ValueError(
        f"no connected sample in {max_tries} tries for n={n}, p={p}"
    )


def random_degree_spec(g: Graph, a: int, b: int, seed: int) -> DegreeSpec:
    """Uniform f(x) in [a, b], with the parity of f(X) repaired by adjusting
    the lowest-index adjustable vertex by one.

    Errors when a == b and the forced total is odd (parity unrepairable).
    """
    if a > b:
        raise ValueError("need a <= b")
    if a < 0:
        raise ValueError("need a >= 0")
    rng = random.Random(seed)
    values = [rng.randint(a, b) for _ in range(g.n)]
    if sum(values) % 2 == 1:
        for v in range(g.n):
            if values[v] > a:
                values[v] -= 1
                break
            if values[v] < b:
                values[v] += 1
                break
        else:
            raise ValueError("cannot repair parity: all targets pinned at a == b")
    return DegreeSpec(tuple(values), a, b)
