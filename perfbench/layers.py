"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Unless a row says otherwise, a metric is a mean per timed unit: calls,
inclusive seconds (``.s``), self seconds (``.self_s``) or array elements
(``.elems``).  ``<layer>.self_s`` sums the self time of all of a layer's
spans; with ``unaccounted_s`` they add up to the traced unit time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import UNIT, layer_of, self_times

E2E = "unit_p50_s"
LOW, HIGH = "lower", "higher"

# (name, unit, better, what it should move, on which workloads)
PER_LAYER = (
    ("cli.fit.s", "s", LOW, E2E, "cohort_workflow"),
    ("cli.compare.s", "s", LOW, E2E, "cohort_workflow"),
    ("cli.netsurv.s", "s", LOW, E2E, "cohort_workflow"),
    ("cli.bench.s", "s", LOW, "setup_s, units_per_s", "recovery_sc1, two_group"),
    ("cli.simulate.s", "s", LOW, E2E, "simulate_sc1"),
    ("cli.self_s", "s", LOW, E2E, "cohort_workflow"),
    ("cli.bytes_written", "bytes", LOW, E2E, "cohort_workflow"),
    ("datasets.load_patient_csv.calls", "count", LOW, E2E, "cohort_workflow"),
    ("datasets.load_patient_csv.s", "s", LOW, E2E, "cohort_workflow"),
    ("datasets.load_patient_csv.rows", "count", LOW, E2E, "cohort_workflow"),
    ("datasets.write_patient_csv.s", "s", LOW, E2E, "simulate_sc1"),
    ("datasets.self_s", "s", LOW, E2E, "cohort_workflow, simulate_sc1"),
    ("lifetable.sample_other_cause_time.calls", "count", LOW, E2E + ", setup_s",
     "simulate_sc1, recovery_sc1, two_group"),
    ("lifetable.sample_other_cause_time.s", "s", LOW, E2E + ", setup_s",
     "simulate_sc1, recovery_sc1, two_group"),
    ("lifetable.rates_at.calls", "count", LOW, E2E, "all"),
    ("lifetable.rates_at.s", "s", LOW, E2E, "all"),
    ("lifetable.rates_at.elems", "count", LOW, E2E, "all"),
    ("lifetable.stratum_codes.calls", "count", LOW, E2E, "all"),
    ("lifetable.stratum_codes.s", "s", LOW, E2E, "all"),
    ("lifetable.stratum_codes.elems", "count", LOW, E2E, "all"),
    ("lifetable.load_life_table.calls", "count", LOW, E2E, "cohort_workflow"),
    ("lifetable.load_life_table.s", "s", LOW, E2E, "cohort_workflow"),
    ("lifetable.self_s", "s", LOW, E2E, "simulate_sc1, recovery_sc1, two_group"),
    ("baseline.cum_block.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.cum_block.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.cum_block.elems", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.haz_block.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.haz_block.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.haz_block.elems", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("baseline.cum_hazard.calls", "count", LOW, E2E + ", setup_s", "cohort_workflow, two_group"),
    ("baseline.cum_hazard.s", "s", LOW, E2E + ", setup_s", "cohort_workflow, two_group"),
    ("baseline.cum_hazard.elems", "count", LOW, E2E + ", setup_s", "cohort_workflow, two_group"),
    ("baseline.self_s", "s", LOW, E2E, "model_grid, cohort_workflow"),
    ("model.laplace.calls", "count", LOW, E2E, "cohort_workflow"),
    ("model.laplace.s", "s", LOW, E2E, "cohort_workflow"),
    ("model.laplace.elems", "count", LOW, E2E, "cohort_workflow"),
    ("model.simulate_event_time.calls", "count", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("model.simulate_event_time.s", "s", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("model.self_s", "s", LOW, E2E, "cohort_workflow"),
    ("inference.fit.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.fit.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.fit.self_s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.minimize.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.minimize.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.minimize.nfev", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.minimize.nit", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.value_and_grad.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.value_and_grad.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.optimizer_s_per_eval", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.hessian.calls", "count", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.hessian.s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.attempts_per_fit", "ratio", LOW, E2E, "model_grid, recovery_sc1"),
    ("inference.converged_ratio", "ratio", HIGH, E2E, "model_grid, recovery_sc1"),
    ("inference.se_valid_ratio", "ratio", HIGH, E2E, "model_grid, recovery_sc1"),
    ("inference.self_s", "s", LOW, E2E, "model_grid, recovery_sc1"),
    ("netsurvival.mc_ci.calls", "count", LOW, E2E, "cohort_workflow"),
    ("netsurvival.mc_ci.s", "s", LOW, E2E, "cohort_workflow"),
    ("netsurvival.curve_evals", "count", LOW, E2E, "cohort_workflow"),
    ("netsurvival.s_per_draw", "s", LOW, E2E, "cohort_workflow"),
    ("netsurvival.draw_accept_ratio", "ratio", HIGH, E2E, "cohort_workflow"),
    ("netsurvival.point_curve.calls", "count", LOW, E2E, "two_group"),
    ("netsurvival.point_curve.s", "s", LOW, E2E, "two_group"),
    ("netsurvival.self_s", "s", LOW, E2E, "cohort_workflow, two_group"),
    ("simulation.generate_cohort.calls", "count", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("simulation.generate_cohort.s", "s", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("simulation.generate_cohort.self_s", "s", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("simulation.calibrate_dropout.s", "s", LOW, "setup_s", "simulate_sc1, recovery_sc1"),
    ("simulation.true_curves.s", "s", LOW, "setup_s", "two_group"),
    ("simulation.excluded_ratio", "ratio", LOW, "failed share", "recovery_sc1, two_group"),
    ("simulation.self_s", "s", LOW, E2E, "simulate_sc1, recovery_sc1"),
    ("process.cpu_per_wall", "ratio", LOW, E2E, "model_grid, recovery_sc1"),
    ("trace.unit_p50_s", "s", LOW, E2E, "all (traced; minus untraced = overhead)"),
    ("unaccounted_s", "s", LOW, E2E, "all"),
)

# Set-up-only calls: seconds per call over the whole run, not per unit.
PER_CALL = ("cli.bench", "simulation.calibrate_dropout", "simulation.true_curves")
MC = "netsurvival.mc_ci"
CURVE = "netsurvival.point_curve"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def compute(tracer, unit_durations, cpu_per_wall: float, excluded_ratio: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced run."""
    n = len(unit_durations)
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    mc_sid = tracer._ids.get(MC)
    in_mc = [False] * len(tracer.start)
    total: dict = defaultdict(float)
    per_call: dict = defaultdict(list)
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        in_mc[i] = p >= 0 and (in_mc[p] or tracer.name[p] == mc_sid)
        name = names[tracer.name[i]]
        duration = tracer.end[i] - tracer.start[i]
        if name in PER_CALL:
            per_call[name].append(duration)
        if tracer.unit[i] < 0:
            continue
        if name == CURVE and in_mc[i]:
            total["netsurvival.curve_evals"] += 1
            name = "netsurvival.curve_eval"
        total[name + ".calls"] += 1
        total[name + ".s"] += duration
        total[name + ".self_s"] += selfs[i]
        total[name + ".elems"] += tracer.elems[i]
        total[("unaccounted" if name == UNIT else layer_of(name)) + ".layer_self_s"] += selfs[i]
    for (unit, counter), value in tracer.counters.items():
        if unit >= 0:
            total[counter] += value

    draws = total["netsurvival.curve_evals"] - total[MC + ".calls"]
    derived = {
        "inference.minimize.nfev": total["inference.nfev"],
        "inference.minimize.nit": total["inference.nit"],
        "datasets.load_patient_csv.rows": total["datasets.rows"],
    }
    for layer in ("cli", "datasets", "lifetable", "baseline", "model", "inference",
                  "netsurvival", "simulation"):
        derived[layer + ".self_s"] = total[layer + ".layer_self_s"]
    derived["unaccounted_s"] = total["unaccounted.layer_self_s"]

    out = {}
    for name, *_ in PER_LAYER:
        if name in derived:
            out[name] = derived[name] / n
        elif name.removesuffix(".s") in PER_CALL:
            calls = per_call.get(name.removesuffix(".s"), [])
            out[name] = statistics.fmean(calls) if calls else 0.0
        else:
            out[name] = total[name] / n
    fits = total["inference.fit.calls"]
    out.update({  # ratios over the whole timed phase
        "inference.optimizer_s_per_eval": _ratio(total["inference.minimize.self_s"],
                                                 total["inference.nfev"]),
        "inference.attempts_per_fit": _ratio(total["inference.attempts"], fits),
        "inference.converged_ratio": _ratio(total["inference.converged"], fits),
        "inference.se_valid_ratio": _ratio(total["inference.se_valid"], fits),
        "netsurvival.s_per_draw": _ratio(total[MC + ".s"], draws),
        "netsurvival.draw_accept_ratio": _ratio(total["netsurvival.draws_kept"], draws),
        "simulation.excluded_ratio": excluded_ratio,
        "process.cpu_per_wall": cpu_per_wall,
        "trace.unit_p50_s": statistics.median(unit_durations),
    })
    return out
