"""Fitting excess-hazard models to a cohort and estimating net survival.

Uses the bundled synthetic lung cohort and life table.  Fits a classical
model and a gamma-frailty model on the same covariates, compares them by
AIC, and turns the winning fit into population and stage-specific net
survival curves with Monte-Carlo confidence bands.
"""

from pathlib import Path

import numpy as np

from exhaz import (
    ModelSpec,
    aic_compare,
    fit,
    load_life_table,
    load_patient_csv,
    net_survival_mc_ci,
    wald_ci,
)

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

table = load_life_table(DATA / "lifetable_synthetic.csv")
cohort = load_patient_csv(DATA / "lung_synthetic.csv")
print(f"cohort: n={cohort.n}, events={int(cohort.status.sum())}, "
      f"columns={list(cohort.columns)}")

x_names = ("agec", "imd", "stage2", "stage3", "stage4", "cvd", "copd")
data = cohort.with_covariates(x_names, ("agec",))

# 1 - classical vs gamma-frailty fits on identical covariates
fits = []
for frailty in ("none", "gamma"):
    spec = ModelSpec(baseline="pgw", frailty=frailty)
    res = fit(data, table, spec, label=frailty)
    fits.append(res)
    print(f"{frailty:>6}: loglik={res.loglik:9.3f}  aic={res.aic:9.3f}  "
          f"converged={res.convergence.converged}")

ranking = aic_compare(fits)
best = ranking[0]
print("AIC ranking:", [(f.label, round(f.aic, 2)) for f in ranking])

# 2 - parameter table for the winning model
ci = wald_ci(best, level=0.95)
print(f"\n{'parameter':>10} {'est':>8} {'lower':>8} {'upper':>8}")
for name, est, lo, hi in zip(ci.names, ci.estimates, ci.lower, ci.upper):
    print(f"{name:>10} {est:8.3f} {lo:8.3f} {hi:8.3f}")
for note in ci.notes:
    print("note:", note)

# 3 - population net survival (average over the cohort's covariates)
grid = np.linspace(0.0, 5.0, 11)
(curve,) = net_survival_mc_ci(data, best, grid)
print("\npopulation net survival:")
for t, s in zip(grid, curve.estimate):
    print(f"  t={t:3.1f}: {s:.3f}")

# 4 - stage-specific curves with Monte-Carlo uncertainty bands; one call
# evaluates each parameter draw once and shares it between the four stages
stage = cohort.columns["stage"]
groups = [(f"stage {label}", stage == label) for label in sorted(set(stage))]
bands = net_survival_mc_ci(data, best, grid, groups, level=0.95, draws=500, seed=11)
print("\n5-year net survival by stage (95% bands, 500 draws):")
for (label, sel), band in zip(groups, bands):
    print(f"  {label}: {band.estimate[-1]:.3f} "
          f"[{band.lower[-1]:.3f}, {band.upper[-1]:.3f}]  (n={sel.sum()})")
