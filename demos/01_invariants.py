"""Walk through the exact graph invariants on a few classical graphs.

Every value below is computed with exact integer or rational arithmetic;
the toughness values come back as Fractions with a witness cutset.
"""

from ffactors import (
    constant_spec,
    cycle,
    empty_graph,
    join,
    odd_toughness,
    petersen_graph,
    stability_number,
    star,
    toughness,
    vertex_connectivity,
)


def show(name, g):
    alpha, witness = stability_number(g)
    kappa = vertex_connectivity(g)
    tough = toughness(g)
    print(f"{name}: n={g.n} m={g.m}")
    print(f"  alpha = {alpha}  (independent set {witness})")
    print(f"  kappa = {kappa}")
    print(f"  toughness = {tough}  (cutset {tough.witness})")


show("Petersen", petersen_graph())
show("C_6", cycle(6))
show("K_{3,3}", join(empty_graph(3), empty_graph(3)))
show("star K_{1,4}", star(4))

# odd-toughness depends on the target degrees, not just the graph
g = star(3)
f = constant_spec(g, 1)
value = odd_toughness(g, f)
print(f"\nclaw with f = 1: odd-toughness = {value}, cutset {value.witness}")
print("removing the hub leaves 3 components with odd target sum, ratio 1/3")
