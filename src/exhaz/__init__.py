"""Excess-hazard regression with individual heterogeneity.

Fits classical and frailty excess-hazard (relative-survival) models on
cohort data keyed to background life tables, estimates net survival with
Monte-Carlo uncertainty, and runs reproducible simulation studies.  The
command-line entry point lives in :mod:`exhaz.cli`.
"""

from .baseline import LogNormalParams, PGWParams, get_family
from .datasets import (
    load_patient_csv,
    synthetic_life_table,
    synthetic_lung_cohort,
    write_bundled_data,
    write_life_table_csv,
    write_patient_csv,
)
from .inference import (
    Dataset,
    FitResult,
    ModelSpec,
    WaldIntervals,
    aic_compare,
    fit,
    wald_ci,
)
from .lifetable import (
    LifeTable,
    LifeTableKey,
    load_life_table,
    sample_other_cause_time,
)
from .model import (
    CovariateMapping,
    FrailtySpec,
    GHParams,
    excess_cum_hazard,
    excess_hazard,
    marginal_all_cause_survival,
    marginal_hazard,
    marginal_net_survival,
    simulate_event_time,
)
from .netsurvival import (
    NetSurvivalCurve,
    default_grid,
    net_survival_mc_ci,
)
from .simulation import (
    AgeMixture,
    Aim1Result,
    Aim2Result,
    PerformanceTable,
    Scenario,
    TruthGroup,
    generate_cohort,
    load_scenario,
    resolve_life_table,
    run_aim1,
    run_aim2,
    save_scenario,
    sc1_scenario,
    true_net_survival_curve,
    two_group_scenario,
    two_group_true_curves,
)

__version__ = "0.1.0"

__all__ = [
    "AgeMixture",
    "Aim1Result",
    "Aim2Result",
    "CovariateMapping",
    "Dataset",
    "FitResult",
    "FrailtySpec",
    "GHParams",
    "LifeTable",
    "LifeTableKey",
    "LogNormalParams",
    "ModelSpec",
    "NetSurvivalCurve",
    "PGWParams",
    "PerformanceTable",
    "Scenario",
    "TruthGroup",
    "WaldIntervals",
    "aic_compare",
    "default_grid",
    "excess_cum_hazard",
    "excess_hazard",
    "fit",
    "generate_cohort",
    "get_family",
    "load_life_table",
    "load_patient_csv",
    "load_scenario",
    "marginal_all_cause_survival",
    "marginal_hazard",
    "marginal_net_survival",
    "net_survival_mc_ci",
    "resolve_life_table",
    "run_aim1",
    "run_aim2",
    "sample_other_cause_time",
    "save_scenario",
    "sc1_scenario",
    "simulate_event_time",
    "synthetic_life_table",
    "synthetic_lung_cohort",
    "true_net_survival_curve",
    "two_group_scenario",
    "two_group_true_curves",
    "wald_ci",
    "write_bundled_data",
    "write_life_table_csv",
    "write_patient_csv",
    "__version__",
]
