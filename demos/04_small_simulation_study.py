"""A desk-scale parameter-recovery study.

Simulates repeated cohorts from a known frailty model, refits each one,
and summarises bias, empirical spread, mean reported standard error, and
Wald coverage per parameter.  The full-size study uses n=5000 subjects and
hundreds of replicates; here we shrink both so the script runs in under a
minute while exercising the same machinery.
"""

import numpy as np

from exhaz import (
    generate_cohort,
    resolve_life_table,
    run_aim1,
    sc1_scenario,
    true_net_survival_curve,
)
from exhaz.simulation import resolve_dropout

scenario = sc1_scenario(n=400, M=12, seed=909)
table = resolve_life_table(scenario.life_table)
print(f"scenario {scenario.name}: n={scenario.n}, M={scenario.M}, "
      f"true b={scenario.frailty_b}")

# 1 - one simulated cohort, to show what the study iterates over; the
#     drop-out rate is calibrated once on the life table, then any number
#     of replicates can be drawn
resolved = resolve_dropout(scenario, table)
cohort = generate_cohort(resolved, 0, table)
events = int(cohort.status.sum())
print(f"one cohort: {events}/{cohort.n} excess-hazard or background deaths "
      f"({1 - events / cohort.n:.0%} censored)")

# 2 - the recovery study itself
result = run_aim1(scenario, table)
tab = result.table
print(f"\nanalysed {tab.analysed} of {scenario.M} replicates "
      f"(excluded {tab.excluded})")
hdr = f"{'parameter':>12} {'truth':>7} {'bias':>8} {'emp sd':>8} {'mean se':>8} {'cover':>6}"
print(hdr)
for i, name in enumerate(tab.names):
    print(f"{name:>12} {tab.true_values[i]:7.3f} {tab.bias[i]:8.3f} "
          f"{tab.emp_sd[i]:8.3f} {tab.mean_se[i]:8.3f} {tab.coverage[i]:6.2f}")

# 3 - the estimand behind the reference curve: net survival for a subject
#     with all covariates at reference values, frailty integrated out
grid = np.linspace(0.0, 5.0, 6)
truth = true_net_survival_curve(scenario, grid, reference=True)
print("\nreference-subject net survival truth:", np.round(truth.estimate, 4))
