"""The workloads: seeded inputs, the timed units and their checks.

Every workload is a closed loop with one caller: a unit starts only after the
previous one has finished, as for an analyst or a study script waiting on
each result.  Inputs are generated from the seed before timing starts.

Seeds fold onto ``N_SETS`` input sets (``seed % N_SETS``) whose reference
outputs, recorded at the seed commit by ``make_references.py``, are stored in
``references.json``.  ``HELD_OUT_SEED`` selects one more set that no timing
run used while the benchmark was tuned, for checking later claims.
"""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from exhaz import cli, datasets, inference, simulation
from exhaz.model import CovariateMapping

clock = time.perf_counter

N_SETS = 8
HELD_OUT_SEED = 1_000_003
SETUP_REPEATS = 3

# Tolerances of the checks against stored references.  They admit last-digit
# drift from a changed optimiser or summation order, and catch anything a
# user would read differently: a log-likelihood at an optimum, an AIC, a
# survival probability or a study summary moving by more than a thousandth.
LOGLIK_ATOL = 1e-3
AIC_ATOL = 2e-3
CURVE_ATOL = 1e-3

WORKFLOW_X = "agec,imd,stage2,stage3,stage4,cvd,copd"
WORKFLOW_FITS = (
    ("c_full", "none", WORKFLOW_X),
    ("f_full", "gamma", WORKFLOW_X),
    ("c_nostage", "none", "agec,imd,cvd,copd"),
    ("f_nostage", "gamma", "agec,imd,cvd,copd"),
    ("c_base", "none", "agec,imd"),
    ("f_base", "gamma", "agec,imd"),
    ("c_null", "none", None),
    ("f_null", "gamma", None),
)
GRID_COVARIATES = {
    "full": ("agec", "imd", "stage2", "stage3", "stage4", "cvd", "copd"),
    "nostage": ("agec", "imd", "cvd", "copd"),
}
GRID_BASELINES = ("pgw", "lognormal")
GRID_FRAILTIES = ("none", "gamma", "ig")

# Seconds one study replicate took at the seed commit on a 2-vCPU machine;
# a study run asks ``exhaz bench`` for about ``--seconds`` of replicates.
NOMINAL_REPLICATE_S = {"recovery_sc1": 0.6, "two_group": 0.8}


def input_set(seed: int) -> int:
    return N_SETS if seed == HELD_OUT_SEED else seed % N_SETS


def replicates_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_REPLICATE_S[workload]))


@dataclass
class Unit:
    """One timed unit.  ``errors`` are failed correctness checks; ``failures``
    are operations that failed with outputs matching the reference (a fit
    that did not converge, an excluded replicate).  Both fail the unit; only
    errors make the run incorrect."""

    start: float
    end: float = 0.0
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    obs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    tracer: object = None  # tracing.Tracer when traced
    refs: dict | None = None  # None records observations instead of checking

    @property
    def set_index(self) -> int:
        return input_set(self.seed)


@dataclass
class Outcome:
    setup_samples: list  # seconds of each repetition of the set-up work
    units: list
    timed_end: float  # the timed phase runs from the first unit's start to here
    cpu_s: float  # process CPU seconds over the timed phase
    run_errors: list = field(default_factory=list)  # failures that fail every unit
    record: dict = field(default_factory=dict)  # reference values (record mode)
    details: dict = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return self.timed_end - self.units[0].start


def _quiet():
    """Send the CLI's progress lines to stderr; stdout ends with the result."""
    return contextlib.redirect_stdout(sys.stderr)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def _close(a: float, b: float, atol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol


def _timed_loop(ctx: Context, body) -> tuple:
    """Run ``body(i)`` as units until ``ctx.seconds`` have passed (at least one).

    Returns the units and the process CPU seconds spent in them.
    """
    units = []
    cpu0 = _cpu()
    deadline = None
    while True:
        i = len(units)
        span = ctx.tracer.begin_unit(i) if ctx.tracer else None
        unit = Unit(start=clock())
        if deadline is None:
            deadline = unit.start + ctx.seconds
        try:
            unit.obs = body(i)
        except Exception as exc:  # a failing unit is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            unit.errors.append(f"{type(exc).__name__}: {exc}")
        unit.end = clock()
        if span is not None:
            ctx.tracer.end_unit(span)
        units.append(unit)
        if unit.end >= deadline:
            return units, _cpu() - cpu0


def _repeat_setup(ctx: Context, step, repeats: int = SETUP_REPEATS) -> list:
    samples = []
    for _ in range(repeats):
        t0 = clock()
        step()
        samples.append(clock() - t0)
    return samples


# -- lung-cohort inputs -------------------------------------------------------------

def lung_seed(set_index: int) -> int:
    """Set 0 uses the seed of the bundled demo cohort."""
    return 2012 + set_index


def _write_lung_inputs(ctx: Context) -> tuple:
    data_dir = ctx.work / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    table_csv = data_dir / "lifetable_synthetic.csv"
    lung_csv = data_dir / "lung_synthetic.csv"
    table = datasets.synthetic_life_table()
    datasets.write_life_table_csv(table_csv, table)
    cohort = datasets.synthetic_lung_cohort(seed=lung_seed(ctx.set_index), table=table)
    datasets.write_patient_csv(lung_csv, cohort)
    return table_csv, lung_csv


def _bundled_data_errors(ctx: Context, written) -> list:
    """With set 0 the regenerated inputs must equal ``demos/data`` byte for byte."""
    if ctx.set_index != 0:
        return []
    errors = []
    for path in written:
        bundled = ctx.root / "demos" / "data" / path.name
        if not bundled.is_file() or not filecmp.cmp(path, bundled, shallow=False):
            errors.append(f"{path.name} differs from demos/data/{path.name}")
    return errors


# -- cohort_workflow -------------------------------------------------------------

def _workflow_unit(table_csv, lung_csv, out: Path) -> None:
    fits = []
    for label, frailty, x in WORKFLOW_FITS:
        args = ["fit", "--data", str(lung_csv), "--lifetable", str(table_csv),
                "--baseline", "pgw", "--frailty", frailty, "--label", label,
                "--out", str(out / label)]
        if x is not None:
            args += ["--x", x, "--w", "agec"]
        _cli(args)
        fits.append(str(out / label / "fit.json"))
    _cli(["compare", *fits, "--out", str(out / "aic")])
    best = (out / "aic" / "compare.csv").read_text().splitlines()[1].split(",")[1]
    _cli(["netsurv", "--data", str(lung_csv), "--fit", str(out / best / "fit.json"),
          "--by", "stage", "--grid", "0:5:26", "--draws", "400", "--seed", "11",
          "--out", str(out / "curves")])


def _cli(args) -> None:
    with _quiet():
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"exhaz {args[0]} exited with code {code}")


def _read_workflow(out: Path) -> dict:
    obs = {"loglik": {}, "converged": {}, "se_valid": {}}
    for label, _, _ in WORKFLOW_FITS:
        payload = json.loads((out / label / "fit.json").read_text())
        obs["loglik"][label] = payload["loglik"]
        obs["converged"][label] = payload["converged"]
        obs["se_valid"][label] = payload["se_valid"]
    rows = (out / "aic" / "compare.csv").read_text().splitlines()[1:]
    obs["ranking"] = [row.split(",")[1] for row in rows]
    curves = {}
    for row in (out / "curves" / "curves.csv").read_text().splitlines()[1:]:
        label, _, _, est, lo, hi = row.split(",")
        curves.setdefault(label, []).append([float(est), float(lo), float(hi)])
    obs["curves"] = curves
    return obs


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _same_tree(a: Path, b: Path) -> list:
    """Files that differ between two output trees (byte comparison)."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return ["file lists differ"]
    return [str(n) for n in names_a if not filecmp.cmp(a / n, b / n, shallow=False)]


def _check_fits(obs: dict, ref: dict) -> list:
    """Log-likelihoods of fits converged here and in the reference, and the
    AIC ranking."""
    errors = []
    for label, ll in ref["loglik"].items():
        got = obs["loglik"].get(label, math.nan)
        both = obs["converged"].get(label) and ref["converged"][label]
        if both and not _close(got, ll, LOGLIK_ATOL):
            errors.append(f"{label}: loglik {got!r} != reference {ll!r}")
    if obs["ranking"] != ref["ranking"]:
        errors.append(f"AIC ranking {obs['ranking']} != reference {ref['ranking']}")
    return errors


def _check_workflow(obs: dict, ref: dict) -> list:
    errors = _check_fits(obs, ref)
    if sorted(obs["curves"]) != sorted(ref["curves"]):
        return errors + ["curve labels differ from the reference"]
    for label, rows in ref["curves"].items():
        diff = np.max(np.abs(np.asarray(obs["curves"][label]) - np.asarray(rows)))
        if not diff <= CURVE_ATOL:
            errors.append(f"curve {label}: max deviation {diff:.3g} from reference")
    return errors


def _not_converged(obs: dict) -> list:
    return [f"{label}: fit did not converge" for label, ok in obs["converged"].items()
            if not ok]


def run_cohort_workflow(ctx: Context) -> Outcome:
    inputs = []
    samples = _repeat_setup(ctx, lambda: inputs.append(_write_lung_inputs(ctx)))
    table_csv, lung_csv = inputs[-1]
    run_errors = _bundled_data_errors(ctx, inputs[-1])

    units, cpu = _timed_loop(
        ctx, lambda i: _workflow_unit(table_csv, lung_csv, ctx.work / f"unit{i}")
    )
    outcome = Outcome(samples, units, units[-1].end, cpu, run_errors)
    first = ctx.work / "unit0"
    for i, unit in enumerate(units):
        out = ctx.work / f"unit{i}"
        if unit.errors:
            continue
        unit.obs = _read_workflow(out)
        unit.failures += _not_converged(unit.obs)
        if ctx.tracer:
            ctx.tracer.counters[(i, "cli.bytes_written")] += _tree_bytes(out)
        if i > 0:
            unit.errors += [f"{name} differs from the first unit's output"
                            for name in _same_tree(first, out)]
        if ctx.refs is not None:
            unit.errors += _check_workflow(unit.obs, ctx.refs)
    outcome.record = units[0].obs
    outcome.details["se_invalid_fits"] = _se_invalid(units)
    return outcome


def _se_invalid(units) -> list:
    """Fits whose standard errors are invalid, as at a frailty variance on its
    boundary: reported, not counted as failures."""
    obs = next((u.obs for u in units if u.obs), {})
    return sorted(label for label, ok in obs.get("se_valid", {}).items() if not ok)


# -- model_grid -------------------------------------------------------------------

def _grid_unit(cohort, table) -> dict:
    fits = []
    for cov_name, x_names in GRID_COVARIATES.items():
        data = cohort.with_covariates(x_names, ("agec",))
        mapping = CovariateMapping(x_names, ("agec",))
        for baseline in GRID_BASELINES:
            for frailty in GRID_FRAILTIES:
                spec = inference.ModelSpec(baseline, frailty, mapping)
                fits.append(inference.fit(data, table, spec,
                                          label=f"{baseline}-{frailty}-{cov_name}"))
    ranked = inference.aic_compare(fits)
    inference.wald_ci(ranked[0])
    return {
        "loglik": {f.label: f.loglik for f in fits},
        "converged": {f.label: f.convergence.converged for f in fits},
        "se_valid": {f.label: f.se_valid for f in fits},
        "ranking": [f.label for f in ranked],
    }


def run_model_grid(ctx: Context) -> Outcome:
    state = {}

    def setup():
        state["table"] = datasets.synthetic_life_table()
        state["cohort"] = datasets.synthetic_lung_cohort(
            seed=lung_seed(ctx.set_index), table=state["table"])

    samples = _repeat_setup(ctx, setup)
    units, cpu = _timed_loop(ctx, lambda i: _grid_unit(state["cohort"], state["table"]))
    outcome = Outcome(samples, units, units[-1].end, cpu)
    for unit in units:
        if unit.errors:
            continue
        unit.failures += _not_converged(unit.obs)
        if ctx.refs is not None:
            unit.errors += _check_fits(unit.obs, ctx.refs)
    outcome.record = units[0].obs
    outcome.details["se_invalid_fits"] = _se_invalid(units)
    return outcome


# -- study workloads: one `exhaz bench` run, one unit per replicate -------------------

class _ReplicateProbe:
    """Marks a unit at each replicate's cohort draw and keeps each fit's result.

    Installed on ``exhaz.simulation`` for every study run, traced or not,
    since replicates happen inside one ``exhaz bench`` call.
    """

    def __init__(self, ctx: Context, patches):
        self.ctx = ctx
        self.units: list = []
        self._span = None
        self.cpu_start = 0.0
        self.study_result = None
        sim = simulation
        generate, fit_fn = sim.generate_cohort, sim.fit

        def generate_cohort(*args, **kwargs):
            self._next_unit()
            return generate(*args, **kwargs)

        def fit(*args, **kwargs):
            try:
                res = fit_fn(*args, **kwargs)
            except Exception as exc:
                self.units[-1].failures.append(f"fit raised {type(exc).__name__}: {exc}")
                raise
            self.units[-1].obs.setdefault("fits", []).append(_fit_summary(res))
            return res

        patches.set(sim, "generate_cohort", generate_cohort)
        patches.set(sim, "fit", fit)
        for name in ("run_aim1", "run_aim2"):
            patches.set(sim, name, self._closing(getattr(sim, name)))

    def _next_unit(self):
        self._end_unit()
        if not self.units:
            self.cpu_start = _cpu()
        tracer = self.ctx.tracer
        self._span = tracer.begin_unit(len(self.units)) if tracer else None
        self.units.append(Unit(start=clock()))

    def _end_unit(self):
        if self.units and not self.units[-1].end:
            self.units[-1].end = clock()
            if self._span is not None:
                self.ctx.tracer.end_unit(self._span)
                self._span = None

    def _closing(self, run_study):
        def study(*args, **kwargs):
            try:
                self.study_result = run_study(*args, **kwargs)
            finally:
                self._end_unit()
            return self.study_result
        return study


def _fit_summary(res) -> dict:
    se_nat = res.std_errors_natural
    with np.errstate(all="ignore"):
        try:
            est_ok = bool(np.all(np.isfinite(res.natural_estimates())))
        except OverflowError:
            est_ok = False
    return {
        "loglik": res.loglik,
        "aic": res.aic,
        "converged": bool(res.convergence.converged),
        "usable": bool(res.convergence.converged and res.se_valid and se_nat is not None
                       and est_ok and np.all(np.isfinite(se_nat))),
    }


def _scenario_path(ctx: Context, workload: str):
    m = replicates_for(workload, ctx.seconds)
    if workload == "recovery_sc1":
        s = simulation.sc1_scenario(n=5000, M=m, seed=20120 + ctx.set_index)
    else:
        s = simulation.two_group_scenario(variant=2, n=5000, M=m, seed=40220 + ctx.set_index)
    path = ctx.work / f"{workload}.ini"
    simulation.save_scenario(path, s)
    return path, m


def _study_setup(path: Path, truth_curves: bool) -> None:
    """What ``exhaz bench`` does before its first replicate, called directly."""
    s = simulation.load_scenario(path)
    table = simulation.resolve_life_table(s.life_table)
    s = dataclasses.replace(s, dropout_rate=simulation.calibrate_dropout(s, table))
    if truth_curves:
        simulation.two_group_true_curves(s)


def _run_study(ctx: Context, workload: str, args: list, patches) -> Outcome:
    path, m = _scenario_path(ctx, workload)
    samples = _repeat_setup(ctx, lambda: _study_setup(path, workload == "two_group"),
                            repeats=SETUP_REPEATS - 1)
    probe = _ReplicateProbe(ctx, patches)
    out = ctx.work / "bench"
    t0 = clock()
    run_errors = []
    try:
        _cli(["bench", "--scenario", str(path), "--out", str(out), *args])
    except Exception as exc:  # the whole study failed: every replicate fails
        traceback.print_exc(file=sys.stderr)
        run_errors.append(f"{type(exc).__name__}: {exc}")
    end = clock()
    units = probe.units
    if not units:
        units = [Unit(start=t0, end=end, errors=["no replicate started"])]
    outcome = Outcome(samples + [units[0].start - t0], units, end, _cpu() - probe.cpu_start,
                      run_errors)
    if len(units) != m:
        outcome.run_errors.append(f"{len(units)} replicates ran, scenario asked for {m}")
    result = probe.study_result
    if result is not None:
        excluded = result.table.excluded if workload == "recovery_sc1" else result.excluded
        outcome.details["excluded"] = excluded
        outcome.details["replicates"] = len(units)
    if ctx.tracer:
        written = _tree_bytes(out) if out.exists() else 0
        for i in range(len(units)):
            ctx.tracer.counters[(i, "cli.bytes_written")] += written / len(units)
    outcome.details["out"] = out
    return outcome


def _check_replicates(ctx: Context, outcome: Outcome, column: int, atol: float) -> None:
    """Compare each replicate's fits, as ``[loglik, aic, converged]``, with the
    reference: ``column`` of every fit converged in both must agree."""
    replicates = outcome.record.setdefault("replicates", [])
    for m, unit in enumerate(outcome.units):
        fits = [[f["loglik"], f["aic"], f["converged"]] for f in unit.obs.get("fits", [])]
        replicates.append(fits)
        unit.failures += [f"fit {j} did not converge" for j, f in enumerate(fits) if not f[2]]
        if ctx.refs is None:
            continue
        ref = ctx.refs["replicates"][m]
        if len(fits) != len(ref):
            unit.errors.append(f"{len(fits)} fits, reference has {len(ref)}")
        unit.errors += [
            f"fit {j}: {got[column]!r} != reference {want[column]!r}"
            for j, (got, want) in enumerate(zip(fits, ref))
            if got[2] and want[2] and not _close(got[column], want[column], atol)
        ]


def run_recovery_sc1(ctx: Context, patches) -> Outcome:
    outcome = _run_study(ctx, "recovery_sc1", ["--fit-both"], patches)
    if outcome.run_errors:
        return outcome
    _check_replicates(ctx, outcome, 1, AIC_ATOL)
    listed = []  # the rows aic.csv must hold: replicates kept, classical fit converged
    for unit in outcome.units:
        fits = unit.obs.get("fits", [])
        if len(fits) == 2 and not fits[0]["usable"]:
            unit.failures.append("replicate excluded from the study")
        elif len(fits) == 2 and fits[1]["converged"]:
            listed.append([fits[0]["aic"], fits[1]["aic"]])
    if _read_csv_floats(outcome.details["out"] / "aic.csv") != listed:
        outcome.run_errors.append("aic.csv does not list the replicates' fitted AICs")
    return outcome


def _read_csv_floats(path: Path) -> list:
    lines = path.read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def _read_summary(path: Path) -> list:
    rows = []
    for line in path.read_text().splitlines()[1:]:
        analysis, model, group, dev, dev_mean, analysed, excluded = line.split(",")
        rows.append([analysis, model, group, float(dev), float(dev_mean),
                     int(analysed), int(excluded)])
    return rows


def _check_summary(rows: list, ref: list) -> list:
    if [r[:3] + r[5:] for r in rows] != [r[:3] + r[5:] for r in ref]:
        return ["aim2_summary.csv rows or counts differ from the reference"]
    worst = max(abs(a - b) for r, q in zip(rows, ref) for a, b in zip(r[3:5], q[3:5]))
    if not worst <= CURVE_ATOL:
        return [f"aim2_summary.csv deviates from the reference by {worst:.3g}"]
    return []


def run_two_group(ctx: Context, patches) -> Outcome:
    outcome = _run_study(ctx, "two_group", [], patches)
    if outcome.run_errors:
        return outcome
    _check_replicates(ctx, outcome, 0, LOGLIK_ATOL)
    summary = _read_summary(outcome.details["out"] / "aim2_summary.csv")
    m = len(outcome.units)
    outcome.record["summary"] = {str(m): summary}
    if ctx.refs is not None:
        outcome.run_errors += _check_summary(summary, ctx.refs["summary"][str(m)])
    return outcome


# -- simulate_sc1: `exhaz simulate` for a batch of replicate cohorts per unit -------

SIMULATE_REPLICATES = 8  # one unit writes the scenario's replicates 0..7


def _simulate_unit(path: Path, out: Path) -> list:
    digests = []
    for replicate in range(SIMULATE_REPLICATES):
        _cli(["simulate", "--scenario", str(path), "--replicate", str(replicate),
              "--out", str(out)])
        digests.append(hashlib.sha256((out / "cohort.csv").read_bytes()).hexdigest())
    return digests


def run_simulate_sc1(ctx: Context) -> Outcome:
    """The scenario file carries the calibrated drop-out rate, as a user's
    would after one calibration: repeated calls then simulate only."""
    s = simulation.sc1_scenario(n=5000, M=SIMULATE_REPLICATES, seed=20120 + ctx.set_index)
    table = simulation.resolve_life_table(s.life_table)
    rates = []
    samples = _repeat_setup(ctx, lambda: rates.append(simulation.calibrate_dropout(s, table)))
    path = ctx.work / "sc1.ini"
    simulation.save_scenario(path, dataclasses.replace(s, dropout_rate=rates[-1]))
    out = ctx.work / "out"

    units, cpu = _timed_loop(ctx, lambda i: {"sha256": _simulate_unit(path, out)})
    outcome = Outcome(samples, units, units[-1].end, cpu)
    for i, unit in enumerate(units):
        if ctx.tracer:
            ctx.tracer.counters[(i, "cli.bytes_written")] += (
                SIMULATE_REPLICATES * (out / "cohort.csv").stat().st_size)
        if ctx.refs is not None and not unit.errors:
            unit.errors += [f"cohort.csv of replicate {r} differs from the reference"
                            for r, (got, want) in enumerate(zip(unit.obs["sha256"],
                                                                ctx.refs["sha256"]))
                            if got != want]
    outcome.record = units[0].obs
    return outcome


def reference_gaps(workload: str, refs: dict, seconds: float) -> str | None:
    """Why the stored references cannot check a run of this length, if so."""
    if workload == "recovery_sc1":
        m = replicates_for(workload, seconds)
        if len(refs["replicates"]) < m:
            return f"references cover {len(refs['replicates'])} replicates, run needs {m}"
    if workload == "two_group":
        m = replicates_for(workload, seconds)
        if len(refs["replicates"]) < m or str(m) not in refs["summary"]:
            return f"no reference summary for {m} replicates"
    return None


def run(workload: str, ctx: Context, patches) -> Outcome:
    if workload == "cohort_workflow":
        return run_cohort_workflow(ctx)
    if workload == "model_grid":
        return run_model_grid(ctx)
    if workload == "recovery_sc1":
        return run_recovery_sc1(ctx, patches)
    if workload == "two_group":
        return run_two_group(ctx, patches)
    if workload == "simulate_sc1":
        return run_simulate_sc1(ctx)
    raise ValueError(f"unknown workload {workload!r}")
