"""Scenario-driven cohort simulation and desk-scale study harnesses.

Cohorts are generated by the additive all-cause mechanism: an excess-model
event time (inverse-transform, with an optional frailty draw per subject), an
other-cause time sampled from a life table, and censoring by the minimum of
an exponential drop-out time and an administrative horizon.  The observed
status is the all-cause death indicator.

A scenario holds one truth group, or two selected by a binary grouping
covariate.  Two study harnesses share one replicate loop: a
parameter-recovery study on a one-group scenario (bias / coverage /
SE-calibration table) and a two-group study that quantifies how omitting a
heterogeneous covariate biases subgroup net survival under pooled fits
compared with per-group stratified fits.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import lifetable as lt
from .baseline import get_family
from .datasets import _stratum_labels, _write_text, write_csv
from .inference import Dataset, ModelSpec, _param_names, fit
from .model import FrailtySpec, GHParams, _frailty_form, simulate_event_time
from .netsurvival import NetSurvivalCurve, _curve_values, default_grid

Z975 = 1.959963984540054
_PILOT_N = 20000  # subjects in the pilot cohort that calibrates drop-out
_TRUTH_SEED = 2718  # seeds the covariate draws that truth curves average over
_TRUTH_CHUNK = 20000  # rows per block of a truth curve; sets its summation order
_TRUTH_DRAWS = 100000  # covariate draws a truth curve averages over

__all__ = [
    "AgeMixture",
    "TruthGroup",
    "Scenario",
    "PerformanceTable",
    "Aim1Result",
    "Aim2Result",
    "sc1_scenario",
    "two_group_scenario",
    "load_scenario",
    "save_scenario",
    "generate_cohort",
    "calibrate_dropout",
    "resolve_dropout",
    "replicate_seed",
    "run_aim1",
    "run_aim2",
    "true_net_survival_curve",
    "two_group_true_curves",
]


# -- covariate machinery -----------------------------------------------------

@dataclass(frozen=True)
class AgeMixture:
    """Mixture of uniform age bands; ages enter the model standardised."""

    bounds: tuple = ((30.0, 65.0), (65.0, 75.0), (75.0, 85.0))
    probs: tuple = (0.25, 0.35, 0.40)

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.bounds) != len(self.probs):
            raise ValueError("age mixture needs one probability per band")
        # each test is false for NaN, so NaN is refused
        if not (all(p >= 0.0 for p in self.probs) and abs(sum(self.probs) - 1.0) <= 1e-12):
            raise ValueError(f"age mixture probs {self.probs} must be >= 0 and sum to 1")
        if not all(-math.inf < lo < hi < math.inf for lo, hi in self.bounds):
            raise ValueError(f"age mixture bounds {self.bounds} must be finite bands lo < hi")

    @property
    def mean(self) -> float:
        return sum(p * (lo + hi) / 2.0 for (lo, hi), p in zip(self.bounds, self.probs))

    @property
    def sd(self) -> float:
        second = sum(
            p * ((hi - lo) ** 2 / 12.0 + ((lo + hi) / 2.0) ** 2)
            for (lo, hi), p in zip(self.bounds, self.probs)
        )
        return math.sqrt(second - self.mean**2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(len(self.bounds), size=n, p=self.probs)
        lo = np.array([b[0] for b in self.bounds])[comp]
        hi = np.array([b[1] for b in self.bounds])[comp]
        return lo + rng.random(n) * (hi - lo)

    def standardise(self, age) -> np.ndarray:
        return (np.asarray(age, dtype=float) - self.mean) / self.sd


# -- scenario definitions ----------------------------------------------------

@dataclass(frozen=True)
class TruthGroup:
    """One generating model: natural baseline parameters ``theta`` and the
    time-level (``alpha``) and hazard-level (``beta``) effects of every
    covariate, ordered like :attr:`Scenario.covariate_names`."""

    theta: tuple
    alpha: tuple
    beta: tuple


@dataclass(frozen=True)
class Scenario:
    """A simulation design: covariate laws, one or two truth groups, censoring.

    Covariates are standardised age ``agec`` and then one binary per
    ``(name, p)`` entry of ``binary_probs``.  With two truth groups the
    first binary selects each subject's group by its value, and a later
    binary may give ``p`` as a ``(group 0, group 1)`` pair.  The groups
    share the baseline family and the frailty law.  ``censoring_target`` is
    ``("dropout", share)``, the share of subjects lost to drop-out, or
    ``("censoring", share)``, the overall censored share; the drop-out rate
    is calibrated to it when ``dropout_rate`` is None.
    """

    name: str = "sc1"
    n: int = 5000
    M: int = 200
    baseline: str = "pgw"
    groups: tuple = (TruthGroup((0.75, 1.75, 8.0), (1.0,) * 4, (1.0,) * 4),)
    frailty_family: str = "gamma"
    frailty_b: float = 0.5
    binary_probs: tuple = (("sex", 0.5), ("x1", 0.5), ("x2", 0.5))
    age_mixture: AgeMixture = field(default_factory=AgeMixture)
    dropout_rate: float | None = None
    censoring_target: tuple = ("dropout", 0.05)
    admin_censor: float = 5.0
    year: float = 2012.0
    seed: int = 20120
    life_table: str = "builtin:synthetic"

    def __post_init__(self):
        if self.n < 1 or self.M < 1:
            raise ValueError("n and M must be positive")
        if self.n > 10**7:  # refused before any cohort array is allocated
            raise ValueError(f"n = {self.n} is above the cap of 10000000 subjects")
        if not 0.0 < self.admin_censor < math.inf:
            raise ValueError(f"admin_censor must be positive and finite, got {self.admin_censor!r}")
        if not math.isfinite(self.year):
            raise ValueError(f"year must be finite, got {self.year!r}")
        if self.seed < 0:  # SeedSequence refuses it only when a replicate is drawn
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        share, target = self.censoring_target
        if share not in ("dropout", "censoring") or not (0.0 <= target < 1.0):
            raise ValueError(f"censoring_target must be ('dropout' or 'censoring', a share "
                             f"in [0, 1)), got {share}_target = {target!r}")
        if self.dropout_rate is not None and not 0.0 <= self.dropout_rate < math.inf:
            raise ValueError(f"dropout_rate must be >= 0 and finite, got {self.dropout_rate!r}")
        two = len(self.groups) == 2
        if not (len(self.groups) == 1 or (two and self.binary_probs)):
            raise ValueError("a scenario has one truth group, or two selected by "
                             "its first binary covariate")
        names = self.covariate_names
        for j, name in enumerate(names):
            if name in names[:j]:
                raise ValueError(f"covariate {name!r} is named twice; the covariates are "
                                 "agec and one binary per distinct name")
        for j, (name, p) in enumerate(self.binary_probs):
            pair_ok = not isinstance(p, tuple) or (two and j > 0 and len(p) == 2)
            if not pair_ok or not all(0.0 <= v <= 1.0 for v in np.atleast_1d(p)):
                raise ValueError(
                    f"binary {name!r}: p must lie in [0, 1]; a per-group pair needs "
                    "two truth groups and must follow the grouping covariate"
                )
        k = 1 + len(self.binary_probs)
        if any(len(g.alpha) != k or len(g.beta) != k for g in self.groups):
            raise ValueError(
                f"alpha/beta must have {k} entries (agec plus each binary)"
            )
        for g in range(len(self.groups)):  # building the truth validates it
            self.group_params(g)
        self.true_frailty()

    @property
    def covariate_names(self) -> tuple:
        return ("agec",) + tuple(name for name, _ in self.binary_probs)

    @property
    def group_labels(self) -> tuple:
        """Labels of a two-group design's groups, e.g. ``("sex0", "sex1")``."""
        return tuple(f"{self.covariate_names[1]}{g}" for g in range(len(self.groups)))

    @property
    def group_weights(self) -> tuple:
        """Population share of each truth group."""
        if len(self.groups) == 1:
            return (1.0,)
        p = self.binary_probs[0][1]
        return (1.0 - p, p)

    def group_of(self, x: np.ndarray) -> np.ndarray:
        """Truth-group index of each row of a covariate matrix whose second
        column is the grouping covariate."""
        if len(self.groups) == 1:
            return np.zeros(x.shape[0], dtype=int)
        return (x[:, 1] > 0.5).astype(int)

    def group_params(self, g: int = 0) -> GHParams:
        truth = self.groups[g]
        theta = get_family(self.baseline).from_natural(truth.theta)
        return GHParams(theta, truth.alpha, truth.beta)

    def true_frailty(self) -> FrailtySpec:
        return FrailtySpec(self.frailty_family, self.frailty_b)


def sc1_scenario(n: int = 5000, M: int = 200, seed: int = 20120, b: float = 0.5) -> Scenario:
    """The fully specified recovery scenario: PGW(0.75, 1.75, 8), gamma
    frailty of variance ``b``, unit effects on all four covariates."""
    return Scenario(name="sc1", n=n, M=M, seed=seed, frailty_b=b)


def two_group_scenario(variant: int = 2, n: int = 5000, M: int = 100,
                       seed: int = 40220) -> Scenario:
    """Two sex-defined subpopulations with different baselines and effects.

    Covariates are (agec, sex, x1), and x1 is more common when sex = 1.  The
    generating model has no frailty: heterogeneity in the fitted models
    arises from omitting x1 and from pooling the two baselines.  Variant 1
    has mildly different baselines (third shape 5 vs 3), variant 2 markedly
    different (5 vs 0.75).  Calibration targets 65% censored overall.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    theta0 = (0.5, 1.5, 3.0) if variant == 1 else (0.5, 1.5, 0.75)
    return Scenario(
        name=f"two-group-{variant}", n=n, M=M, seed=seed,
        groups=(TruthGroup(theta0, (0.7, 0.7, 0.25), (0.5, 0.5, 0.25)),
                TruthGroup((0.5, 1.5, 5.0), (0.7, 0.7, 0.5), (1.0, 0.5, 1.0))),
        frailty_family="none", frailty_b=0.0,
        binary_probs=(("sex", 0.6), ("x1", (0.4, 0.8))),
        censoring_target=("censoring", 0.65),
    )


# -- cohort generation ---------------------------------------------------------

def resolve_life_table(ref: str) -> lt.LifeTable:
    """Resolve a scenario's life-table reference: ``builtin:synthetic`` or a CSV path."""
    if ref == "builtin:synthetic":
        from .datasets import synthetic_life_table

        return synthetic_life_table()
    return lt.load_life_table(ref)


def _draw_covariates(s, rng: np.random.Generator, n: int):
    """Sample the covariate matrix (ordered as ``s.covariate_names``) and raw age.

    Columns are drawn in order, so a per-group probability is looked up by
    the grouping column drawn before it.
    """
    age = s.age_mixture.sample(rng, n)
    cols = [s.age_mixture.standardise(age)]
    for _, p in s.binary_probs:
        if isinstance(p, tuple):
            p = np.asarray(p)[cols[1].astype(int)]
        cols.append((rng.random(n) < p).astype(float))
    return np.column_stack(cols), age


def _event_times(s, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Latent excess-model event times, each subject under its group's truth."""
    n = x.shape[0]
    u = np.clip(rng.random(n), 2.0**-53, None)
    lam = _frailty_form(s.frailty_family, s.frailty_b).sample(s.frailty_b, rng, n)
    group = s.group_of(x)
    tc = np.empty(n)
    for g in range(len(s.groups)):
        mask = group == g
        xg = x[mask]
        tc[mask] = simulate_event_time(u[mask], xg, xg, s.group_params(g), lam[mask])
    return tc


def _all_cause_latent(s, rng: np.random.Generator, n: int, table: lt.LifeTable):
    """Covariates, raw ages, strata, and latent all-cause death times.

    Follow-up must start and end inside the life table's coverage: before
    it the table's first rates would stand in silently, and past it the
    sampler has no other-cause rates and returns ``+inf``.  An all-zero
    table (background mortality off) has no deaths to lose and is exempt.
    """
    bounds = s.age_mixture.bounds
    edges = (("year", s.year, table.year_range),
             ("top [age] bound", max(hi for _, hi in bounds), table.age_range),
             ("bottom [age] bound", min(lo for lo, _ in bounds), table.age_range))
    for name, start, (lo, hi) in edges if table._grid.any() else ():
        if start < lo:
            raise ValueError(f"{name} {start:g} precedes the life table's coverage {lo}-{hi + 1}")
        if start + s.admin_censor > hi + 1:
            raise ValueError(f"{name} {start:g} + admin_censor {s.admin_censor:g} outlives "
                             f"the life table's coverage {lo}-{hi + 1}")
    x, age = _draw_covariates(s, rng, n)
    tc = _event_times(s, rng, x)
    names = list(s.covariate_names)  # each stratum column is the same-named covariate
    for name in table.stratum_schema:
        if name not in names:
            raise ValueError(f"life-table stratum column {name!r} has no matching covariate")
    strata = _stratum_labels(x[:, [names.index(name) for name in table.stratum_schema]])
    # a death after min(tc, admin) changes no observed time, status or calibration gap
    tp = lt.sample_other_cause_time(table, age, s.year, strata, rng.random(n),
                                    before=np.minimum(tc, s.admin_censor))
    return x, age, strata, np.minimum(tc, tp)


def calibrate_dropout(s, table: lt.LifeTable) -> float:
    """Exponential censoring rate matching the scenario's censoring target.

    The ``"dropout"`` share is ``E[1 - exp(-r * min(T, admin))]``, the
    share of subjects whose follow-up ends by drop-out; the ``"censoring"``
    share is ``1 - E[1{T <= admin} exp(-r T)]``, the overall censored share
    (``T`` is the latent all-cause death time).  Both use a deterministic
    pilot cohort of ``_PILOT_N`` subjects and Brent's method in ``r`` on [1e-10, 1e4]
    per year (``xtol = rtol = 1e-12``); a target out of its reach raises ValueError.
    """
    share, target = s.censoring_target
    if target <= 0.0:
        return 0.0
    rng = np.random.default_rng(np.random.SeedSequence([int(s.seed), 0xD407]))
    _, _, _, t_death = _all_cause_latent(s, rng, _PILOT_N, table)
    if share == "dropout":
        t_other = np.minimum(t_death, s.admin_censor)

        def gap(rate):
            return float(np.mean(-np.expm1(-rate * t_other))) - target

    else:
        inside = t_death <= s.admin_censor

        def gap(rate):
            uncensored = np.where(inside, np.exp(-rate * t_death), 0.0)
            return 1.0 - float(np.mean(uncensored)) - target

    if gap(1e-10) >= 0.0:  # target already met without random censoring
        return 0.0
    if (miss := gap(1e4)) < 0.0:
        raise ValueError(f"{share} target {target} is out of reach ({-miss:.2g} short at rate 1e4)")
    return _brentq(gap, 1e-10, 1e4, xtol=1e-12, rtol=1e-12)


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Brent's (1973, ch. 4) root of f in [a, b]: scipy's ``brentq.c`` op for op, bit for bit."""
    xpre, xcur, xblk, fblk, spre, scur = a, b, 0.0, 0.0, 0.0, 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a!r}) and f({b!r}) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with contextlib.suppress(ZeroDivisionError):  # C's x / 0 is inf or nan: bisect
                if xpre == xblk:  # secant interpolation
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)  # a short step, or bisect
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps (last x {xcur!r})")


def resolve_dropout(s, table: lt.LifeTable):
    """The scenario with ``dropout_rate`` set, calibrated on ``table`` if it was None."""
    if s.dropout_rate is not None:
        return s
    return dataclasses.replace(s, dropout_rate=calibrate_dropout(s, table))


def replicate_seed(s, r: int) -> np.random.SeedSequence:
    """Seed of replicate ``r``: the ``r``-th ``SeedSequence`` child of the
    scenario seed, as ``SeedSequence(s.seed).spawn(s.M)[r]`` would give."""
    return np.random.SeedSequence(s.seed, spawn_key=(r,))


def generate_cohort(s, replicate_seed, table: lt.LifeTable) -> Dataset:
    """Simulate one cohort under a resolved scenario's truth.

    Call ``resolve_dropout(s, table)`` once, then draw any number of
    replicates.  ``replicate_seed`` may be an integer or a ``SeedSequence``
    child.  The observed time is ``min(event, other-cause, drop-out, admin)``
    and the status flag is the all-cause death indicator; a time that is not
    positive raises ``ValueError`` naming its record.
    """
    if s.dropout_rate is None:
        raise ValueError("dropout_rate is unresolved: call resolve_dropout(s, table) first")
    rng = np.random.default_rng(replicate_seed)
    x, age, strata, t_death = _all_cause_latent(s, rng, s.n, table)
    if s.dropout_rate > 0.0:
        censor = np.minimum(
            rng.exponential(1.0 / s.dropout_rate, size=s.n), s.admin_censor
        )
    else:
        censor = np.full(s.n, s.admin_censor)
    names = s.covariate_names
    return Dataset(
        time=np.minimum(t_death, censor),
        status=(t_death <= censor).astype(int),
        columns=dict(zip(names, x.T)),
        x_names=names,
        w_names=names,
        age=age,
        year=np.full(s.n, s.year),
        strata=strata,
        stratum_names=table.stratum_schema,
    )


# -- truth curves --------------------------------------------------------------

def _averaged_truth_curve(x, grid, g: GHParams, fr: FrailtySpec) -> np.ndarray:
    """Covariate-averaged net survival under known parameters, in blocks of
    ``_TRUTH_CHUNK`` rows."""
    total = np.zeros(len(grid))
    for start in range(0, x.shape[0], _TRUTH_CHUNK):
        block = x[start : start + _TRUTH_CHUNK]
        total += _curve_values(block, block, grid, g, fr) * block.shape[0]
    return total / x.shape[0]


def _truth_curves(s: Scenario, grid):
    """Each truth group's covariate-averaged curve, and their population
    mixture weighted by the groups' shares."""
    x, _ = _draw_covariates(s, np.random.default_rng(_TRUTH_SEED), _TRUTH_DRAWS)
    group = s.group_of(x)
    per_group = [
        _averaged_truth_curve(x[group == g], grid, s.group_params(g), s.true_frailty())
        for g in range(len(s.groups))
    ]
    return per_group, sum(w * c for w, c in zip(s.group_weights, per_group))


def true_net_survival_curve(s: Scenario, reference: bool = False) -> NetSurvivalCurve:
    """Scenario truth on :func:`default_grid`: covariate-averaged marginal net survival,
    or the reference curve at all-zero covariates (group 0) when ``reference`` is set."""
    grid = default_grid()
    if reference:
        zero = np.zeros((1, len(s.covariate_names)))
        values = _curve_values(zero, zero, grid, s.group_params(0), s.true_frailty())
        return NetSurvivalCurve(time=grid, estimate=values, label="reference",
                                model="truth")
    _, values = _truth_curves(s, grid)
    return NetSurvivalCurve(time=grid, estimate=values, label="population",
                            model="truth")


def two_group_true_curves(s: Scenario) -> dict:
    """Truth curves (population and per group) of a two-group scenario on :func:`default_grid`."""
    grid = default_grid()
    per_group, population = _truth_curves(s, grid)
    curves = dict(zip(s.group_labels, per_group), population=population)
    return {
        label: NetSurvivalCurve(time=grid, estimate=vals, label=label, model="truth")
        for label, vals in curves.items()
    }


# -- the replicate loop both studies share ---------------------------------------

def _replicates(s: Scenario, table: lt.LifeTable, designs, analyse):
    """Simulate and fit the scenario's ``M`` replicates; returns the kept
    ``analyse`` results and the excluded count.  Every 25th replicate
    writes ``replicate m/M done`` to stderr.

    Replicate ``m`` draws its cohort from the ``m``-th child of the scenario
    seed, fits each ``key: (dataset, spec)`` of ``designs(cohort)`` in order,
    and passes ``{key: (dataset, fit)}`` to ``analyse``.  A ``ValueError``
    from a fit, or ``None`` from ``analyse``, excludes the replicate.
    ``generate_cohort`` and ``fit`` are looked up at call time, so they can
    be instrumented.
    """
    rows, excluded = [], 0
    for m in range(s.M):
        plan = designs(generate_cohort(s, replicate_seed(s, m), table))
        try:
            fits = {key: (d, fit(d, table, spec)) for key, (d, spec) in plan.items()}
        except ValueError:
            fits = None
        row = None if fits is None else analyse(fits)
        if row is None:
            excluded += 1
        else:
            rows.append(row)
        if (m + 1) % 25 == 0:
            print(f"  replicate {m + 1}/{s.M} done", file=sys.stderr, flush=True)
    if not rows:
        raise RuntimeError("all replicates were excluded; nothing to summarise")
    return rows, excluded


# -- parameter-recovery study --------------------------------------------------

@dataclass(frozen=True, eq=False)
class PerformanceTable:
    """Per-parameter recovery metrics over analysed replicates."""

    scenario_name: str
    names: tuple
    true_values: np.ndarray
    mean_mle: np.ndarray
    bias: np.ndarray
    median_mle: np.ndarray
    coverage: np.ndarray
    mean_se: np.ndarray
    emp_sd: np.ndarray
    analysed: int
    excluded: int

    def write_csv(self, path) -> None:
        k = len(self.names)
        write_csv(path, ("parameter", "true", "mean_mle", "bias", "median_mle", "coverage",
                         "mean_se", "emp_sd", "analysed", "excluded"),
                  [self.names, self.true_values, self.mean_mle, self.bias,
                   self.median_mle, self.coverage, self.mean_se, self.emp_sd,
                   [self.analysed] * k, [self.excluded] * k])

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario_name}: {self.analysed} analysed, "
            f"{self.excluded} excluded",
            f"{'parameter':<14}{'true':>9}{'mean':>9}{'bias':>9}{'median':>9}"
            f"{'cover':>9}{'mean SE':>9}{'emp SD':>9}",
        ]
        for j, name in enumerate(self.names):
            lines.append(
                f"{name:<14}"
                f"{self.true_values[j]:>9.3f}{self.mean_mle[j]:>9.3f}"
                f"{self.bias[j]:>9.3f}{self.median_mle[j]:>9.3f}"
                f"{self.coverage[j]:>9.3f}{self.mean_se[j]:>9.3f}"
                f"{self.emp_sd[j]:>9.3f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Aim1Result:
    """Recovery study output: the metrics table plus per-replicate extras."""

    scenario: Scenario
    table: PerformanceTable
    estimates: np.ndarray  # (analysed, k) natural scale
    std_errors: np.ndarray  # (analysed, k) natural scale
    reference_curves: np.ndarray  # (analysed, len(default_grid()))
    aic_frailty: np.ndarray | None = None
    aic_classical: np.ndarray | None = None


def _true_vectors(s: Scenario):
    """Truth on the natural and transformed scales, ordered like fit output."""
    (truth,) = s.groups
    b = [s.frailty_b] if s.frailty_family != "none" else []
    log_b = [math.log(v) if v > 0.0 else -math.inf for v in b]
    theta = get_family(s.baseline).to_transformed(s.group_params().theta)
    nat = np.concatenate([truth.theta, truth.alpha, truth.beta, b])
    return nat, np.concatenate([theta, truth.alpha, truth.beta, log_b])


def run_aim1(s: Scenario, table: lt.LifeTable, *, fit_both: bool = False) -> Aim1Result:
    """Repeatedly simulate and refit the correctly specified model.

    Produces a :class:`PerformanceTable` (bias, coverage at 95%, SE
    calibration) and each analysed replicate's fitted all-zero-covariate
    curve on :func:`default_grid`; with ``fit_both`` an
    unshared-heterogeneity-free fit is run alongside for
    information-criterion comparisons.
    """
    if len(s.groups) != 1:
        raise ValueError("the recovery study needs a scenario with one truth group")
    s = resolve_dropout(s, table)
    names = s.covariate_names
    specs = {"main": ModelSpec(s.baseline, s.frailty_family)}
    if fit_both:
        specs["alt"] = ModelSpec(s.baseline, "none")
    nat_true, trans_true = _true_vectors(s)
    grid = default_grid()
    zero = np.zeros((1, len(names)))

    def designs(data):
        return {key: (data, spec) for key, spec in specs.items()}

    def analyse(fits):
        res = fits["main"][1]
        est = res.natural_estimates()
        se_nat = res.std_errors_natural
        if not (
            res.convergence.converged
            and res.se_valid
            and np.all(np.isfinite(est))
            and np.all(np.isfinite(se_nat))
        ):
            return None
        with np.errstate(invalid="ignore"):
            hit = np.abs(trans_true - res.psi) <= Z975 * res.std_errors
        hit = np.where(np.isfinite(trans_true), hit.astype(float), np.nan)
        alt = fits["alt"][1] if fit_both else None
        aics = (res.aic, alt.aic) if alt is not None and alt.convergence.converged else None
        return est, se_nat, hit, aics, _curve_values(zero, zero, grid, res.params, res.frailty)

    rows, excluded = _replicates(s, table, designs, analyse)
    est, ses, hits = (np.vstack([row[i] for row in rows]) for i in range(3))
    aics = [row[3] for row in rows if row[3] is not None]
    emp_sd = (
        est.std(axis=0, ddof=1)
        if est.shape[0] > 1
        else np.full(est.shape[1], math.nan)
    )
    perf = PerformanceTable(
        scenario_name=s.name,
        names=_param_names(specs["main"], names, names)[1],
        true_values=nat_true,
        mean_mle=est.mean(axis=0),
        bias=est.mean(axis=0) - nat_true,
        median_mle=np.median(est, axis=0),
        # a parameter's hits are all NaN (truth at -inf) or none are
        coverage=hits.mean(axis=0),
        mean_se=ses.mean(axis=0),
        emp_sd=emp_sd,
        analysed=est.shape[0],
        excluded=excluded,
    )
    return Aim1Result(
        scenario=s,
        table=perf,
        estimates=est,
        std_errors=ses,
        reference_curves=np.vstack([row[4] for row in rows]),
        aic_frailty=np.array([a for a, _ in aics]) if fit_both else None,
        aic_classical=np.array([c for _, c in aics]) if fit_both else None,
    )


# -- two-group misspecification study -------------------------------------------

@dataclass(frozen=True, eq=False)
class Aim2Result:
    """Pooled-versus-stratified comparison of subgroup curves on :func:`default_grid`."""

    scenario: Scenario
    truth: dict  # label -> np.ndarray
    mean_curves: dict  # (analysis, model, group) -> np.ndarray
    mean_sup_dev: dict  # (analysis, model, group) -> float
    analysed: int
    excluded: int

    def sup_dev_of_mean(self, key) -> float:
        """Max absolute deviation of the replicate-averaged curve from truth."""
        return float(np.max(np.abs(self.mean_curves[key] - self.truth[key[2]])))

    def write_summary_csv(self, path) -> None:
        keys = sorted(self.mean_sup_dev)
        write_csv(path, ("analysis", "model", "group", "mean_sup_dev", "sup_dev_of_mean",
                         "analysed", "excluded"),
                  [*zip(*keys), [self.mean_sup_dev[key] for key in keys],
                   [self.sup_dev_of_mean(key) for key in keys],
                   [self.analysed] * len(keys), [self.excluded] * len(keys)])

    def write_curves_csv(self, path) -> None:
        rows = [(*key, t, tv, fv) for key in sorted(self.mean_curves)
                for t, tv, fv in zip(default_grid().tolist(), self.truth[key[2]].tolist(),
                                     self.mean_curves[key].tolist())]
        write_csv(path, ("analysis", "model", "group", "time", "truth", "mean_fitted"),
                  list(zip(*rows)))

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario.name}: {self.analysed} analysed, "
            f"{self.excluded} excluded",
            f"{'analysis':<12}{'model':<12}{'group':<12}{'sup dev':>9}",
        ]
        for key in sorted(self.mean_sup_dev):
            analysis, model, group = key
            lines.append(
                f"{analysis:<12}{model:<12}{group:<12}{self.mean_sup_dev[key]:>9.3f}"
            )
        return "\n".join(lines)


def run_aim2(s: Scenario, table: lt.LifeTable) -> Aim2Result:
    """Quantify subgroup net-survival bias from pooling two populations.

    Each replicate is fitted six ways, always omitting the binaries after
    the grouping covariate: pooled (classical and frailty) on agec and the
    grouping covariate, and per-group stratified (classical and frailty) on
    agec alone.  Curves are compared against the scenario truth by the
    maximum absolute deviation over :func:`default_grid`, averaged across
    replicates.
    """
    if len(s.groups) != 2:
        raise ValueError("the two-group study needs a scenario with two truth groups")
    s = resolve_dropout(s, table)
    grid = default_grid()
    truth = {label: curve.estimate for label, curve in two_group_true_curves(s).items()}
    specs = {"classical": ModelSpec("pgw", "none"), "frailty": ModelSpec("pgw", "gamma")}

    def designs(data):
        pooled = data.with_covariates(s.covariate_names[:2], s.covariate_names[:2])
        group = s.group_of(data.x)
        strata = [data.subset(group == g).with_covariates(("agec",), ("agec",))
                  for g in range(2)]
        out = {("pooled", model, "population"): (pooled, spec)
               for model, spec in specs.items()}
        out.update({("stratified", model, label): (strata[g], spec)
                    for model, spec in specs.items()
                    for g, label in enumerate(s.group_labels)})
        return out

    def analyse(fits):
        if not all(res.convergence.converged for _, res in fits.values()):
            return None
        curves = {}
        for (analysis, model, label), (d, res) in fits.items():
            labels, rows = [label], [None]
            if analysis == "pooled":  # the pooled fit also gives each group's curve
                group = s.group_of(d.x)
                labels += s.group_labels
                rows += [np.flatnonzero(group == g) for g in range(len(s.group_labels))]
            values = _curve_values(d.x, d.w, grid, res.params, res.frailty, rows)
            curves.update({(analysis, model, lab): row for lab, row in zip(labels, values)})
        return curves

    rows, excluded = _replicates(s, table, designs, analyse)
    n = len(rows)
    return Aim2Result(
        scenario=s,
        truth=truth,
        mean_curves={key: sum(r[key] for r in rows) / n for key in rows[0]},
        mean_sup_dev={
            key: sum(float(np.max(np.abs(r[key] - truth[key[2]]))) for r in rows) / n
            for key in rows[0]
        },
        analysed=n,
        excluded=excluded,
    )


# -- scenario files --------------------------------------------------------------

def _fmt_floats(values, sep: str = ", ") -> str:
    return sep.join(repr(float(v)) for v in values)


def _parse_floats(text: str, sep: str = ",") -> tuple:
    return tuple(float(v) for v in text.split(sep) if v.strip())


def _parse_binary(text: str) -> tuple:
    """``name:p`` or ``name:p0/p1`` items, as ``[covariates] binary`` lists them."""
    binary = []
    for item in filter(str.strip, text.split(",")):
        name, sep, p = item.partition(":")
        if not sep:
            raise ValueError(f"expected 'name:p', got {item.strip()!r}")
        p = _parse_floats(p, "/")
        binary.append((name.strip(), p if len(p) != 1 else p[0]))
    return tuple(binary)


def save_scenario(path, s) -> None:
    """Write any scenario to an INI file (round-trips with :func:`load_scenario`).

    ``[truth]`` holds the baseline family and the frailty law the truth
    groups share.  One group's ``theta``/``alpha``/``beta`` are written in
    ``[truth]`` too; two groups get one ``[truth.<label>]`` section each,
    labelled as in :attr:`Scenario.group_labels`.  ``[covariates]`` lists
    each binary as ``name:p``, or ``name:p0/p1`` for a per-group pair.
    """
    share, target = s.censoring_target
    cp = configparser.ConfigParser()
    cp["scenario"] = {
        "name": s.name,
        "n": str(s.n),
        "replicates": str(s.M),
        "seed": str(s.seed),
        "admin_censor": repr(float(s.admin_censor)),
        "year": repr(float(s.year)),
        "dropout_rate": "auto" if s.dropout_rate is None else repr(float(s.dropout_rate)),
        "life_table": s.life_table,
        f"{share}_target": repr(float(target)),
    }
    cp["age"] = {
        "bounds": ", ".join(_fmt_floats(band, ":") for band in s.age_mixture.bounds),
        "probs": _fmt_floats(s.age_mixture.probs),
    }
    truths = [{"theta": _fmt_floats(g.theta), "alpha": _fmt_floats(g.alpha),
               "beta": _fmt_floats(g.beta)} for g in s.groups]
    one = len(s.groups) == 1
    cp["truth"] = {"baseline": s.baseline, **(truths[0] if one else {}),
                   "frailty": s.frailty_family, "b": repr(float(s.frailty_b))}
    if not one:
        cp.read_dict({f"truth.{label}": t for label, t in zip(s.group_labels, truths)})
    cp["covariates"] = {"binary": ", ".join(f"{name}:{_fmt_floats(np.atleast_1d(p), '/')}"
                                            for name, p in s.binary_probs)}
    text = io.StringIO()
    cp.write(text)
    _write_text(path, text.getvalue())


def load_scenario(path) -> Scenario:
    """Read a scenario INI file in the form :func:`save_scenario` writes.

    Every section and key is required; a missing one, or a value that does
    not parse, raises ``ValueError`` naming it, and so does a value that
    :class:`Scenario` refuses.  No message names the file; the command line
    adds its path.  ``[truth.<label>]`` sections mark a two-group file.
    """
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:  # no ValueError; its path is left to the caller
            text = str(exc).replace(repr(fh.name), "the file")
            raise ValueError(" ".join(text.split())) from None

    def get(section: str, key: str, convert=str):
        if section not in cp:
            raise ValueError(f"missing [{section}] section")
        if key not in cp[section]:
            raise ValueError(f"[{section}] is missing key {key!r}")
        try:
            return convert(cp[section][key].strip())
        except (ValueError, configparser.Error) as exc:  # a stray % is an interpolation error
            raise ValueError(f"[{section}] {key}: {exc}") from None

    dropout = get("scenario", "dropout_rate", lambda v: None if v == "auto" else float(v))
    share = "censoring" if "censoring_target" in cp["scenario"] else "dropout"
    fields = dict(
        name=get("scenario", "name"),
        n=get("scenario", "n", int),
        M=get("scenario", "replicates", int),
        seed=get("scenario", "seed", int),
        admin_censor=get("scenario", "admin_censor", float),
        year=get("scenario", "year", float),
        dropout_rate=dropout,
        censoring_target=(share, get("scenario", f"{share}_target", float)),
        life_table=get("scenario", "life_table"),
        age_mixture=AgeMixture(
            bounds=get("age", "bounds", lambda v: tuple(
                (lo, hi) for lo, hi in (_parse_floats(band, ":") for band in v.split(",")))),
            probs=get("age", "probs", _parse_floats),
        ),
        baseline=get("truth", "baseline"),
        frailty_family=get("truth", "frailty"),
        frailty_b=get("truth", "b", float),
    )
    binary = get("covariates", "binary", _parse_binary)
    # two groups are labelled by the first binary, as in Scenario.group_labels
    two = [f"truth.{name}{g}" for name, _ in binary[:1] for g in (0, 1)]
    sections = two if any(sec.startswith("truth.") for sec in cp) else ["truth"]
    keys = ("theta", "alpha", "beta")
    groups = tuple(TruthGroup(*(get(sec, key, _parse_floats) for key in keys)) for sec in sections)
    return Scenario(**fields, binary_probs=binary, groups=groups)
