"""Exact toolkit for f-factor existence in simple graphs.

Core pieces: an immutable graph representation with structured builders,
exact invariants (stability number, connectivity, toughness and
odd-toughness as rationals), deficiency certificates for nonexistence, a
constructive solver via the factor-to-matching gadget, hypothesis checkers
for the sufficient conditions, two counterexample-style instance families,
and a certificate-carrying CLI.
"""

from .graph import (
    DegreeSpec,
    Graph,
    build_graph,
    complete_graph,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
    is_star_free,
    join,
    min_degree,
    path,
    petersen_graph,
    star,
)
from .invariants import (
    ToughnessValue,
    is_t_odd_tough,
    odd_component_count,
    odd_toughness,
    stability_number,
    toughness,
    vertex_connectivity,
)
from .tutte import (
    DeficiencyReport,
    deficiency,
    find_violating_pair,
)
from .solver import (
    FactorSubgraph,
    find_f_factor,
    find_factor,
    tutte_gadget,
    verify_f_factor,
    verify_factor,
)
from .constructions import (
    ConstructionReport,
    build_g0,
    build_g1,
    g0_desk_instance,
    stability_bound,
)
from .theorems import (
    THEOREMS,
    CampaignReport,
    HypothesisReport,
    check_corollary_kappa,
    check_main_theorem,
    check_stability_conjecture,
    check_theorem_ab_factor,
    check_theorem_claw_free,
    check_theorem_min_degree,
    check_theorem_regular_connectivity,
    empirical_validate,
)
from .instances import (
    instance_digest,
    parse_instance,
    random_connected_graph,
    random_degree_spec,
    random_graph,
    serialize_instance,
)

__version__ = "0.1.0"
