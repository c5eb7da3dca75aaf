"""Solve for an f-factor, then audit a graph that has none.

The solver reduces to maximum matching in a degree gadget; the audit
reads a deficient pair (S, T) off the same gadget's maximum matching, a
standalone certificate of nonexistence that anyone can recheck by
re-evaluating five terms.
"""

from ffactors import (
    DegreeSpec,
    constant_spec,
    cycle,
    deficiency,
    find_f_factor,
    find_violating_pair,
    petersen_graph,
    verify_f_factor,
)

# the Petersen graph is 3-regular, so f = 3 asks for the whole graph
g = petersen_graph()
f = constant_spec(g, 3)
factor = find_f_factor(g, f)
print(f"Petersen, f = 3: factor with {len(factor.edges)} edges")
print(f"  verifies: {verify_f_factor(g, f, factor)}")

# a 2-factor of the Petersen graph is a disjoint union of cycles
f = constant_spec(g, 2)
factor = find_f_factor(g, f)
print(f"Petersen, f = 2: factor edges {factor.edges}")

# C_4 with one vertex asking for degree 4: impossible, and the audit
# produces a certificate of minimum deficiency, read off the gadget's
# maximum matching (its delta is minus the number of exposed vertices)
g = cycle(4)
f = DegreeSpec((2, 2, 2, 4))
assert find_f_factor(g, f) is None
rep = find_violating_pair(g, f)
print(f"\nC_4 with f = (2,2,2,4): no factor")
print(f"  certificate S={rep.s} T={rep.t} delta={rep.delta}")

# rechecking is just re-evaluating the deficiency at the named pair
again = deficiency(g, rep.s, rep.t, f)
print(f"  recheck: delta = {again.delta} "
      f"(f(S)={again.f_s} f(T)={again.f_t} "
      f"deg={again.degree_term} h={again.h})")
