"""Check theorem hypotheses on concrete instances and run a fuzz campaign.

Each checker evaluates every hypothesis separately.  Run through its
``THEOREMS`` entry with ``confirm`` set, a met prediction is confirmed by
actually constructing the factor that the theorem predicts.  The campaign
runs seeded random trials and reports any discrepancy between prediction
and solver outcome (there should never be one).
"""

from types import SimpleNamespace

from ffactors import (
    THEOREMS,
    check_main_theorem,
    complete_graph,
    constant_spec,
    empirical_validate,
    g0_desk_instance,
)
from ffactors.invariants import TOUGHNESS_MAX_N

# the parameters verify-theorem reads, as its command line would set them
params = SimpleNamespace(a=2, b=2, r=1, star_order=3, confirm=True,
                         toughness_max_n=TOUGHNESS_MAX_N)

# K_5 with f = 2: every hypothesis of the main existence result holds
g = complete_graph(5)
report = THEOREMS["main"].run(g, constant_spec(g, 2), params)
print("K_5, f = 2, main theorem:")
for h in report.hypotheses:
    print(f"  {h.name}: {'ok' if h.satisfied else 'FAIL'} ({h.observed})")
print(f"  conclusion: {report.conclusion}, "
      f"confirmation: {report.confirmation}")

# the g0 family fails exactly one hypothesis: odd-toughness
built = g0_desk_instance()
report = check_main_theorem(built.graph, built.spec, 2, 3)
failed = [h.name for h in report.hypotheses if not h.satisfied]
print(f"\ng0 desk instance fails only: {failed}")

# regular-graph criterion with r = 1 on K_4: a perfect matching
report = THEOREMS["regular_connectivity"].run(complete_graph(4), None, params)
print(f"\nK_4 1-factor check: met={report.hypotheses_met}, "
      f"confirmation={report.confirmation}")

# seeded campaign: 200 random instances, prediction vs solver
campaign = empirical_validate("main", 200, seed=7)
print(f"\nfuzz campaign, 200 trials: {campaign.hypotheses_met} met all "
      f"hypotheses, {len(campaign.discrepancies)} discrepancies")
