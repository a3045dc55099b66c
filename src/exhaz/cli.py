"""Command-line front end: fitting, net survival, and simulation studies.

Commands
--------
fit       maximum-likelihood excess-hazard fit; writes ``estimates.csv``,
          ``fit.json`` and ``summary.txt``
netsurv   population / subgroup net-survival curves, optionally with
          Monte-Carlo confidence bands
simulate  write one simulated cohort from a scenario file
bench     run a scenario's replicate study and write its report tables
compare   rank saved fits of the same dataset by AIC

Machine-readable CSVs carry 17 significant digits; ``summary.txt`` files
round to 3 decimals.  Every command is a pure function of its input files
and seeds, so reruns are byte-identical.  Exit codes: 0 success, 2 usage
error, 3 input/schema error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datasets
from . import lifetable as lt
from . import netsurvival as ns
from . import simulation as sim
from .inference import (
    FitResult,
    ModelSpec,
    OptimizerOptions,
    aic_compare,
    fit,
    wald_ci,
)
from .model import CovariateMapping

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own convention
EXIT_DATA = 3
EXIT_NOCONV = 4

FULL_GRID_SIZES = (500, 1000, 2000, 5000)
FULL_REPLICATES = 1000
# desk-scale seconds per subject and replicate, by the number of truth groups
FULL_SECONDS_PER_SUBJECT = {1: 9e-5, 2: 1.7e-4}


@dataclass
class RunConfig:
    """Resolved command-line request; one instance drives one command."""

    command: str
    data: str | None = None
    lifetable: str | None = None
    baseline: str = "pgw"
    frailty: str = "none"
    x: tuple = ()
    w: tuple = ()
    seed: int | None = None
    out: str | None = None
    grid: str | None = None
    draws: int = 0
    level: float = 0.95
    scenario: str | None = None
    full: bool = False
    fit_path: str | None = None
    by: str | None = None
    replicate: int = 0
    label: str = ""
    maxiter: int | None = None
    multistart: int | None = None
    fit_both: bool = False
    fits: tuple = ()


# -- small helpers ---------------------------------------------------------------

def _parse_columns(text: str) -> tuple:
    if not text or text.strip().lower() in ("", "none"):
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_grid(text: str) -> np.ndarray:
    """Time grid in ``start:stop:count`` form, e.g. ``0:5:101``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be 'start:stop:count', got {text!r}") from None
    if count < 2 or stop <= start or start < 0.0:
        raise ValueError(f"grid {text!r} must satisfy 0 <= start < stop, count >= 2")
    return np.linspace(start, stop, count)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _options(cfg: RunConfig) -> OptimizerOptions:
    kwargs = {}
    if cfg.maxiter is not None:
        kwargs["maxiter"] = cfg.maxiter
    if cfg.multistart is not None:
        kwargs["multistart"] = cfg.multistart
    return OptimizerOptions(**kwargs)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- fit -------------------------------------------------------------------------

def _estimates_csv(res: FitResult, level: float) -> str:
    lines = ["parameter,estimate,std_error,ci_lower,ci_upper"]
    est = res.natural_estimates()
    if res.se_valid:
        ci = wald_ci(res, level)
        for name, e, se, lo, hi in zip(
            res.natural_names, est, res.std_errors_natural, ci.lower, ci.upper
        ):
            lines.append(f"{name},{_fmt(e)},{_fmt(se)},{_fmt(lo)},{_fmt(hi)}")
    else:
        for name, e in zip(res.natural_names, est):
            lines.append(f"{name},{_fmt(e)},,,")
    return "\n".join(lines) + "\n"


def _fit_summary(res: FitResult, level: float) -> str:
    est = res.natural_estimates()
    lines = [
        f"model: {res.label or res.spec.label()}",
        f"baseline={res.spec.baseline} frailty={res.spec.frailty}",
        f"x columns: {', '.join(res.x_names) or '(none)'}",
        f"w columns: {', '.join(res.w_names) or '(none)'}",
        f"n = {res.n}, events = {res.n_events}",
        f"log-likelihood = {res.loglik:.3f}, AIC = {res.aic:.3f} "
        f"({res.n_params} parameters)",
        f"converged: {res.convergence.converged} "
        f"(iterations {res.convergence.iterations}, "
        f"attempts {res.convergence.attempts})",
        "",
    ]
    if res.se_valid:
        ci = wald_ci(res, level)
        pct = f"{100 * level:g}%"
        lines.append(
            f"{'parameter':<14}{'estimate':>10}{'std err':>10}"
            f"{pct + ' CI':>24}"
        )
        for name, e, se, lo, hi in zip(
            res.natural_names, est, res.std_errors_natural, ci.lower, ci.upper
        ):
            lines.append(
                f"{name:<14}{e:>10.3f}{se:>10.3f}{'[' + format(lo, '.3f'):>12}, "
                f"{format(hi, '.3f') + ']':>10}"
            )
        for note in ci.notes:
            lines.append(f"note: {note}")
    else:
        lines.append(f"{'parameter':<14}{'estimate':>10}   (standard errors unavailable)")
        for name, e in zip(res.natural_names, est):
            lines.append(f"{name:<14}{e:>10.3f}")
    for msg in res.convergence.messages:
        lines.append(f"note: {msg}")
    return "\n".join(lines) + "\n"


def cmd_fit(cfg: RunConfig) -> int:
    data = datasets.load_patient_csv(cfg.data).with_covariates(cfg.x, cfg.w)
    table = lt.load_life_table(cfg.lifetable)
    spec = ModelSpec(cfg.baseline, cfg.frailty, CovariateMapping(cfg.x, cfg.w))
    res = fit(data, table, spec, options=_options(cfg), label=cfg.label)
    out = _out_dir(cfg)
    _write_text(out / "estimates.csv", _estimates_csv(res, cfg.level))
    _write_text(
        out / "fit.json", json.dumps(res.to_json_dict(), indent=2) + "\n"
    )
    _write_text(out / "summary.txt", _fit_summary(res, cfg.level))
    print(
        f"{res.label or res.spec.label()}: loglik={res.loglik:.3f} "
        f"aic={res.aic:.3f} converged={res.convergence.converged}"
    )
    return EXIT_OK if res.convergence.converged else EXIT_NOCONV


# -- net survival ------------------------------------------------------------------

def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in str(text))


def _column_values(data, name: str) -> np.ndarray:
    if name in data.extras:
        return np.asarray(data.extras[name])
    if name in data.x_names:
        return data.x[:, list(data.x_names).index(name)]
    if name in data.w_names:
        return data.w[:, list(data.w_names).index(name)]
    if name in data.stratum_names:
        j = list(data.stratum_names).index(name)
        return np.array([s[j] for s in data.strata], dtype=object)
    raise datasets.DataFormatError(f"unknown subgroup column {name!r}")


def _curve_csv(curve: ns.NetSurvivalCurve) -> str:
    banded = curve.lower is not None
    header = "time,estimate,lower,upper" if banded else "time,estimate"
    lines = [header]
    for j, t in enumerate(curve.time):
        row = [_fmt(t), _fmt(curve.estimate[j])]
        if banded:
            row += [_fmt(curve.lower[j]), _fmt(curve.upper[j])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _combined_csv(curves) -> str:
    lines = ["label,model,time,estimate,lower,upper"]
    for curve in curves:
        banded = curve.lower is not None
        for j, t in enumerate(curve.time):
            lo = _fmt(curve.lower[j]) if banded else ""
            hi = _fmt(curve.upper[j]) if banded else ""
            lines.append(
                f"{curve.label},{curve.model},{_fmt(t)},"
                f"{_fmt(curve.estimate[j])},{lo},{hi}"
            )
    return "\n".join(lines) + "\n"


def cmd_netsurv(cfg: RunConfig) -> int:
    full = datasets.load_patient_csv(cfg.data)
    if cfg.fit_path:
        payload = json.loads(Path(cfg.fit_path).read_text(encoding="utf-8"))
        res = FitResult.from_json_dict(payload)
        data = full.with_covariates(res.x_names, res.w_names)
    else:
        data = full.with_covariates(cfg.x, cfg.w)
        table = lt.load_life_table(cfg.lifetable)
        spec = ModelSpec(cfg.baseline, cfg.frailty, CovariateMapping(cfg.x, cfg.w))
        res = fit(data, table, spec, options=_options(cfg))
        if not res.convergence.converged:
            print("error: model fit did not converge; curves not written",
                  file=sys.stderr)
            return EXIT_NOCONV

    grid = _parse_grid(cfg.grid) if cfg.grid else ns.default_grid()

    def one_curve(selector, label):
        if cfg.draws > 0:
            return ns.net_survival_mc_ci(
                data, res, grid, level=cfg.level, draws=cfg.draws,
                seed=cfg.seed, selector=selector, label=label,
            )
        if selector is None:
            return ns.population_net_survival(data, res, grid, label=label)
        return ns.subgroup_net_survival(data, res, grid, selector=selector,
                                        label=label)

    curves = [one_curve(None, "population")]
    if cfg.by:
        values = _column_values(data, cfg.by)
        if values.dtype == object:
            as_str = np.array([str(v) for v in values])
            pairs = [(val, as_str == val) for val in sorted(set(as_str))]
        else:
            pairs = [(f"{val:g}", values == val) for val in np.unique(values)]
        for val, mask in pairs:
            curves.append(one_curve(mask, f"{cfg.by}={val}"))

    out = _out_dir(cfg)
    for curve in curves:
        _write_text(out / f"curve_{_slug(curve.label)}.csv", _curve_csv(curve))
    _write_text(out / "curves.csv", _combined_csv(curves))
    print(f"wrote {len(curves)} curve(s) on a {grid.size}-point grid to {out}")
    return EXIT_OK


# -- simulation ---------------------------------------------------------------------

def _load_scenario_inputs(cfg: RunConfig):
    s = sim.load_scenario(cfg.scenario)
    table = sim.resolve_life_table(s.life_table)
    return sim.resolve_dropout(s, table), table


def cmd_simulate(cfg: RunConfig) -> int:
    s, table = _load_scenario_inputs(cfg)
    if not 0 <= cfg.replicate < s.M:
        raise ValueError(
            f"replicate index {cfg.replicate} outside 0..{s.M - 1} "
            f"(scenario has M = {s.M})"
        )
    child = np.random.SeedSequence(s.seed).spawn(s.M)[cfg.replicate]
    cohort = sim.generate_cohort(s, child, table)
    out = _out_dir(cfg)
    datasets.write_patient_csv(out / "cohort.csv", cohort)
    events = int(cohort.status.sum())
    print(
        f"wrote cohort.csv: scenario {s.name}, replicate {cfg.replicate}, "
        f"n={cohort.n}, events={events}, censored share={1 - events / cohort.n:.3f}"
    )
    return EXIT_OK


def _write_aic_csv(path: Path, result: sim.Aim1Result) -> None:
    lines = ["aic_frailty,aic_classical"]
    for af, ac in zip(result.aic_frailty, result.aic_classical):
        lines.append(f"{_fmt(af)},{_fmt(ac)}")
    _write_text(path, "\n".join(lines) + "\n")


def _run_study(s, table, cfg: RunConfig, out: Path, suffix: str) -> str:
    """Run the scenario's study and write its tables; returns its summary.

    One truth group runs the recovery study, two the pooled-versus-stratified
    study.
    """
    if len(s.groups) == 1:
        r = sim.run_aim1(s, table, fit_both=cfg.fit_both, progress=cfg.full)
        r.table.write_csv(out / f"metrics{suffix}.csv")
        if cfg.fit_both:
            _write_aic_csv(out / f"aic{suffix}.csv", r)
        return r.table.summary()
    r = sim.run_aim2(s, table, progress=cfg.full)
    r.write_summary_csv(out / f"aim2_summary{suffix}.csv")
    r.write_curves_csv(out / f"aim2_curves{suffix}.csv")
    return r.summary()


def cmd_bench(cfg: RunConfig) -> int:
    s, table = _load_scenario_inputs(cfg)
    out = _out_dir(cfg)
    runs = [s]
    if cfg.full:
        sizes = FULL_GRID_SIZES if len(s.groups) == 1 else (s.n,)
        runs = [dataclasses.replace(s, n=n, M=FULL_REPLICATES) for n in sizes]
        seconds = sum(FULL_SECONDS_PER_SUBJECT[len(s.groups)] * r.n * r.M for r in runs)
        print(
            f"warning: --full runs {len(runs)} cohort size(s) x M={FULL_REPLICATES}; "
            f"estimated runtime ~{seconds / 60.0:.0f} min",
            file=sys.stderr,
        )
    summaries = []
    for r in runs:
        suffix = f"_n{r.n}" if len(runs) > 1 else ""
        summary = _run_study(r, table, cfg, out, suffix)
        summaries.append(f"n = {r.n}\n{summary}" if suffix else summary)
    text = "\n\n".join(summaries)
    _write_text(out / "summary.txt", text + "\n")
    print(text)
    return EXIT_OK


# -- model comparison ----------------------------------------------------------------

def cmd_compare(cfg: RunConfig) -> int:
    results = []
    for path in cfg.fits:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        results.append(FitResult.from_json_dict(payload))
    ranked = aic_compare(results)
    best = ranked[0].aic
    lines = ["rank,label,baseline,frailty,n_params,loglik,aic,delta_aic"]
    rows = []
    for i, r in enumerate(ranked, start=1):
        label = r.label or r.spec.label()
        lines.append(
            f"{i},{label},{r.spec.baseline},{r.spec.frailty},{r.n_params},"
            f"{_fmt(r.loglik)},{_fmt(r.aic)},{_fmt(r.aic - best)}"
        )
        rows.append(f"{i:>4}  {label:<24} AIC {r.aic:.3f}  (+{r.aic - best:.3f})")
    out = _out_dir(cfg)
    _write_text(out / "compare.csv", "\n".join(lines) + "\n")
    print("\n".join(rows))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exhaz",
        description="Excess-hazard regression with individual heterogeneity: "
                    "fitting, net survival, and simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, required_data=True):
        p.add_argument("--data", required=required_data,
                       help="patient CSV (time,status,<covariates>,age,year,<strata>)")
        p.add_argument("--lifetable", help="life-table CSV (age,year,<strata>,rate)")
        p.add_argument("--baseline", choices=("pgw", "lognormal"), default=None,
                       help="baseline hazard family (default pgw)")
        p.add_argument("--frailty", choices=("none", "gamma", "ig"), default=None,
                       help="heterogeneity family (default none)")
        p.add_argument("--x", default=None,
                       help="comma-separated hazard-level covariate columns")
        p.add_argument("--w", default=None,
                       help="comma-separated time-scale covariate columns")
        p.add_argument("--maxiter", type=int, default=None)
        p.add_argument("--multistart", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit one excess-hazard model")
    add_model_flags(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--label", default="")

    p_net = sub.add_parser("netsurv", help="net-survival curves for a cohort")
    add_model_flags(p_net)
    p_net.add_argument("--fit", dest="fit_path", default=None,
                       help="reuse a saved fit.json instead of refitting")
    p_net.add_argument("--out", required=True)
    p_net.add_argument("--grid", default=None, help="time grid start:stop:count")
    p_net.add_argument("--draws", type=int, default=0,
                       help="Monte-Carlo band draws (0 = no bands)")
    p_net.add_argument("--level", type=float, default=0.95)
    p_net.add_argument("--seed", type=int, default=None)
    p_net.add_argument("--by", default=None,
                       help="column whose distinct values define subgroups")

    p_sim = sub.add_parser("simulate", help="write one simulated cohort")
    p_sim.add_argument("--scenario", required=True, help="scenario .ini file")
    p_sim.add_argument("--replicate", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run a scenario's replicate study")
    p_bench.add_argument("--scenario", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--fit-both", dest="fit_both", action="store_true",
                         help="also fit the no-heterogeneity model (AIC table)")
    p_bench.add_argument("--full", action="store_true",
                         help="publication-scale grid (slow; prints an estimate)")

    p_cmp = sub.add_parser("compare", help="rank saved fits by AIC")
    p_cmp.add_argument("fits", nargs="+", help="fit.json files from the same data")
    p_cmp.add_argument("--out", required=True)
    return parser


def _runconfig(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    ns_dict = vars(args)
    cfg = RunConfig(command=args.command)
    for field in dataclasses.fields(RunConfig):
        if field.name in ns_dict and ns_dict[field.name] is not None:
            setattr(cfg, field.name, ns_dict[field.name])
    if cfg.command in ("fit", "netsurv"):
        model_flags = [
            name for name in ("baseline", "frailty", "x", "w")
            if ns_dict.get(name) is not None
        ]
        if cfg.command == "netsurv" and cfg.fit_path:
            # The saved fit defines the model; duplicating it is ambiguous.
            if model_flags or ns_dict.get("lifetable"):
                parser.error(
                    "--fit conflicts with --baseline/--frailty/--x/--w/--lifetable: "
                    "the saved fit already defines the model"
                )
        else:
            if ns_dict.get("lifetable") is None:
                parser.error("--lifetable is required when fitting")
            cfg.baseline = ns_dict.get("baseline") or "pgw"
            cfg.frailty = ns_dict.get("frailty") or "none"
            cfg.x = _parse_columns(ns_dict.get("x") or "")
            cfg.w = _parse_columns(ns_dict.get("w") or "")
    if cfg.command == "netsurv" and cfg.draws > 0 and cfg.seed is None:
        parser.error("--seed is required when --draws requests Monte-Carlo bands")
    if cfg.command == "compare":
        cfg.fits = tuple(ns_dict["fits"])
    return cfg


_HANDLERS = {
    "fit": cmd_fit,
    "netsurv": cmd_netsurv,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _runconfig(args, parser)
    try:
        return _HANDLERS[cfg.command](cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:  # includes DataFormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    raise SystemExit(main())
