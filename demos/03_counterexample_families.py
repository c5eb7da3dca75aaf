"""Build the two parameterized counterexample families.

Family g0 shows that a stability-number bound alone cannot force an
f-factor without the odd-toughness condition: the instance meets the
stability hypothesis yet a single small cutset kills it.  Family g1
shows the stability bound itself is close to tight.
"""

from fractions import Fraction

from ffactors import (
    build_g1,
    find_f_factor,
    g0_desk_instance,
    is_t_odd_tough,
    odd_component_count,
    stability_bound,
)

built = g0_desk_instance()
g, f = built.graph, built.spec
a, b, k, delta, p = (built.params[x] for x in ("a", "b", "k", "delta", "p"))
print(f"g0(a={a}, b={b}, k={k}, delta={delta}, p={p}): n={g.n} m={g.m}")
print(f"  alpha = {built.expected_alpha}, "
      f"stability bound = {stability_bound(a, b, delta)}")
print(f"  hypothesis met: {built.extras['stability_hypothesis_met']}")

# the cutset S (the first k vertices) leaves p components of odd f-sum
ratio = Fraction(k, odd_component_count(g, range(k), f))
print(f"  cutset of size {k} gives ratio {ratio} < 1/{a}, "
      f"so odd-toughness fails: "
      f"{not is_t_odd_tough(g, f, Fraction(1, a))}")

pair = built.witness_pair
print(f"  witness pair S={pair.s} T={pair.t} has delta = {pair.delta}")
print(f"  solver agrees, no factor: {find_f_factor(g, f) is None}")

built = build_g1(1, 3, 2, 5, 2)
g = built.graph
print(f"\ng1(a=1, b=3, r=2, delta=5, alpha=2): n={g.n} m={g.m}")
print(f"  alpha = {built.expected_alpha} exceeds the "
      f"threshold {built.extras['threshold']}")
print(f"  witness pair delta = {built.witness_pair.delta}")
print(f"  no factor: {find_f_factor(g, built.spec) is None}")
