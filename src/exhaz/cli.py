"""Command-line front end: fitting, net survival, and simulation studies.

Commands
--------
fit       maximum-likelihood excess-hazard fit; writes ``estimates.csv``,
          ``fit.json`` and ``summary.txt``
netsurv   population / subgroup net-survival curves from a saved fit,
          optionally with Monte-Carlo confidence bands
simulate  write one simulated cohort from a scenario file
bench     run a scenario's replicate study and write its report tables
compare   rank saved fits of the same dataset by AIC

Every CSV has one format (``datasets.write_csv``): LF line endings, floats
with 17 significant digits, and an empty cell where a value is unavailable
(standard errors of a fit without valid ones, bands of a curve without
them); ``summary.txt`` files round to 3 decimals.  Every command is a pure
function of its input files and seeds, so reruns are byte-identical.  Exit
codes: 0 success, 2 usage error, 3 input/schema error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets
from . import lifetable as lt
from . import netsurvival as ns
from . import simulation as sim
from .inference import (
    FitResult,
    ModelSpec,
    WaldIntervals,
    aic_compare,
    fit,
    wald_ci,
)
from .baseline import _FAMILIES
from .model import FRAILTY_FAMILIES

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NOCONV = 4


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
    for name, value in (("start", start), ("stop", stop)):
        if not np.isfinite(value):
            raise ValueError(f"grid {text!r}: {name} is {value}")
    if count < 2 or stop <= start or start < 0.0:
        raise ValueError(f"grid {text!r} must satisfy 0 <= start < stop, count >= 2")
    if count > 10**5:  # refused before linspace allocates it
        raise ValueError(f"--grid {text!r}: count {count} is above the cap of 100000 points")
    return np.linspace(start, stop, count)


def _read(path, load):
    """``load(path)``; an input error (a ``ValueError``, or a ``RuntimeError`` for a
    fit that did not converge) is raised again prefixed with ``path``."""
    try:
        return load(path)
    except (ValueError, RuntimeError) as exc:  # includes DataFormatError, JSONDecodeError
        raise (ValueError if isinstance(exc, ValueError) else RuntimeError)(
            f"{path}: {exc}") from None


def _read_cohort(path, x_names, w_names):
    return _read(path, lambda p: datasets.load_patient_csv(p).with_covariates(x_names, w_names))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- fit -------------------------------------------------------------------------

def _estimates_csv(path: Path, res: FitResult, ci: WaldIntervals | None) -> None:
    spread = ([res.std_errors_natural, ci.lower, ci.upper] if ci is not None
              else [[None] * len(res.natural_names)] * 3)
    datasets.write_csv(path, ("parameter", "estimate", "std_error", "ci_lower", "ci_upper"),
                       [res.natural_names, res.natural_estimates(), *spread])


def _fit_summary(res: FitResult, ci: WaldIntervals | None) -> str:
    est = res.natural_estimates()
    lines = [
        f"model: {res.label}",
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
    if ci is not None:
        pct = f"{100 * ci.level:g}%"
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


def cmd_fit(args: argparse.Namespace) -> int:
    data = _read_cohort(args.data, args.x, args.w)
    table = _read(args.lifetable, lt.load_life_table)
    res = fit(data, table, ModelSpec(args.baseline, args.frailty), label=args.label)
    ci = wald_ci(res, args.level) if res.se_valid else None
    out = _out_dir(args)
    _estimates_csv(out / "estimates.csv", res, ci)
    datasets._write_text(out / "fit.json", json.dumps(res.to_json_dict(), indent=2) + "\n")
    datasets._write_text(out / "summary.txt", _fit_summary(res, ci))
    print(f"{res.label}: loglik={res.loglik:.3f} aic={res.aic:.3f} "
          f"converged={res.convergence.converged}")
    return EXIT_OK if res.convergence.converged else EXIT_NOCONV


# -- net survival ------------------------------------------------------------------

def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in str(text))


def _column_values(data, name: str) -> np.ndarray:
    if name in data.columns:
        return data.columns[name]
    if name in data.stratum_names:
        return data.strata[:, data.stratum_names.index(name)]
    raise datasets.DataFormatError(f"unknown subgroup column {name!r}")


def _number_label(val) -> str:
    """``val`` to 6 significant digits when that reads back as ``val``, else
    every digit, so distinct values never share a label."""
    short = f"{val:g}"
    return short if float(short) == val else repr(float(val))


def _subgroups(data, by) -> list:
    """The population group and, with ``--by``, one ``(label, mask)`` group per
    value of the column; two labels that share a curve file name are refused."""
    groups = [("population", None)]
    if by:
        values = _column_values(data, by)
        if values.dtype.kind in "OU":
            as_str = np.array([str(v) for v in values])
            groups += [(f"{by}={val}", as_str == val) for val in sorted(set(as_str))]
        else:
            groups += [(f"{by}={_number_label(val)}", values == val)
                       for val in np.unique(values)]
    files = {}
    for label, _ in groups:
        name = f"curve_{_slug(label)}.csv"
        if name in files:
            raise datasets.DataFormatError(
                f"subgroups {files[name]!r} and {label!r} would both be written to {name}")
        files[name] = label
    return groups


def _curve_csv(path: Path, curve: ns.NetSurvivalCurve) -> None:
    header, columns = ["time", "estimate"], [curve.time, curve.estimate]
    if curve.lower is not None:
        header += ["lower", "upper"]
        columns += [curve.lower, curve.upper]
    datasets.write_csv(path, header, columns)


def _combined_csv(path: Path, curves) -> None:
    columns = [[] for _ in range(6)]
    for curve in curves:
        m = len(curve.time)
        band = [None] * m
        parts = ([curve.label] * m, [curve.model] * m, curve.time.tolist(),
                 curve.estimate.tolist(),
                 band if curve.lower is None else curve.lower.tolist(),
                 band if curve.upper is None else curve.upper.tolist())
        for column, part in zip(columns, parts):
            column.extend(part)
    datasets.write_csv(path, ("label", "model", "time", "estimate", "lower", "upper"),
                       columns)


def _load_fit(path) -> FitResult:
    return FitResult.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _curve_fit(path, draws: int) -> FitResult:
    """A saved fit that can give curves, and bands when ``draws`` asks for them."""
    res = _load_fit(path)
    if not res.convergence.converged:
        raise RuntimeError("saved fit did not converge; curves not written")
    if draws and not res.se_valid:
        raise ValueError("fit has no valid covariance; Monte-Carlo bands unavailable")
    return res


def cmd_netsurv(args: argparse.Namespace) -> int:
    res = _read(args.fit_path, lambda p: _curve_fit(p, args.draws))
    data = _read_cohort(args.data, res.x_names, res.w_names)
    if res.data_fingerprint != data.fingerprint():
        # applying a fit to another cohort is a legitimate standardisation
        print(f"warning: {args.fit_path} was fitted on data with fingerprint "
              f"{res.data_fingerprint}, but {args.data} has fingerprint "
              f"{data.fingerprint()}; applying the saved fit anyway", file=sys.stderr)
    grid = _parse_grid(args.grid) if args.grid else ns.default_grid()
    groups = _subgroups(data, args.by)
    try:
        curves = ns.net_survival_mc_ci(data, res, grid, groups, level=args.level,
                                       draws=args.draws, seed=args.seed)
    except np.linalg.LinAlgError as exc:  # raised only by the bands' Cholesky factor
        raise ValueError(f"{args.fit_path}: covariance has no Cholesky factor ({exc}); "
                         "Monte-Carlo bands unavailable") from None
    rejected = curves[0].rejected_draws
    if rejected:
        print(f"rejected {rejected} of {args.draws + rejected} parameter draws",
              file=sys.stderr)

    out = _out_dir(args)
    for curve in curves:
        _curve_csv(out / f"curve_{_slug(curve.label)}.csv", curve)
    _combined_csv(out / "curves.csv", curves)
    print(f"wrote {len(curves)} curve(s) on a {grid.size}-point grid to {out}")
    return EXIT_OK


# -- simulation ---------------------------------------------------------------------

def _load_scenario_inputs(args: argparse.Namespace):
    s = _read(args.scenario, sim.load_scenario)
    table = _read(s.life_table, sim.resolve_life_table)
    return _read(args.scenario, lambda _: sim.resolve_dropout(s, table)), table


def cmd_simulate(args: argparse.Namespace) -> int:
    s, table = _load_scenario_inputs(args)
    if not 0 <= args.replicate < s.M:
        raise ValueError(
            f"replicate index {args.replicate} outside 0..{s.M - 1} "
            f"(scenario has M = {s.M})"
        )
    seed = sim.replicate_seed(s, args.replicate)
    cohort = _read(args.scenario, lambda _: sim.generate_cohort(s, seed, table))
    out = _out_dir(args)
    datasets.write_patient_csv(out / "cohort.csv", cohort)
    events = int(cohort.status.sum())
    print(
        f"wrote cohort.csv: scenario {s.name}, replicate {args.replicate}, "
        f"n={cohort.n}, events={events}, censored share={1 - events / cohort.n:.3f}"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the scenario's study and write its tables and summary.

    One truth group runs the recovery study, two the pooled-versus-stratified
    study.
    """
    s, table = _load_scenario_inputs(args)
    if args.fit_both and len(s.groups) != 1:
        raise ValueError(f"--fit-both needs a one-group scenario, but {args.scenario} "
                         "has two truth groups")
    out = _out_dir(args)
    if len(s.groups) == 1:
        r = sim.run_aim1(s, table, fit_both=args.fit_both)
        r.table.write_csv(out / "metrics.csv")
        if args.fit_both:
            datasets.write_csv(out / "aic.csv", ("aic_frailty", "aic_classical"),
                               [r.aic_frailty, r.aic_classical])
        text = r.table.summary()
    else:
        r = sim.run_aim2(s, table)
        r.write_summary_csv(out / "aim2_summary.csv")
        r.write_curves_csv(out / "aim2_curves.csv")
        text = r.summary()
    datasets._write_text(out / "summary.txt", text + "\n")
    print(text)
    return EXIT_OK


# -- model comparison ----------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> int:
    ranked = aic_compare([_read(path, _load_fit) for path in args.fits])
    best = ranked[0].aic
    datasets.write_csv(
        _out_dir(args) / "compare.csv",
        ("rank", "label", "baseline", "frailty", "n_params", "loglik", "aic", "delta_aic"),
        [range(1, len(ranked) + 1), [r.label for r in ranked], [r.spec.baseline for r in ranked],
         [r.spec.frailty for r in ranked], [r.n_params for r in ranked],
         [float(r.loglik) for r in ranked], [r.aic for r in ranked],
         [r.aic - best for r in ranked]],
    )
    for i, r in enumerate(ranked, start=1):
        print(f"{i:>4}  {r.label:<24} AIC {r.aic:.3f}  (+{r.aic - best:.3f})")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exhaz",
        description="Excess-hazard regression with individual heterogeneity: "
                    "fitting, net survival, and simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one excess-hazard model")
    p_fit.add_argument("--data", required=True,
                       help="patient CSV (time,status,<covariates>,age,year,<strata>)")
    p_fit.add_argument("--lifetable", required=True,
                       help="life-table CSV (age,year,<strata>,rate)")
    p_fit.add_argument("--baseline", choices=tuple(_FAMILIES), default="pgw",
                       help="baseline hazard family (default pgw)")
    p_fit.add_argument("--frailty", choices=FRAILTY_FAMILIES, default="none",
                       help="heterogeneity family (default none)")
    p_fit.add_argument("--x", type=_parse_columns, default=(),
                       help="comma-separated hazard-level covariate columns")
    p_fit.add_argument("--w", type=_parse_columns, default=(),
                       help="comma-separated time-scale covariate columns")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--label", default="")

    p_net = sub.add_parser("netsurv", help="net-survival curves from a saved fit")
    p_net.add_argument("--data", required=True,
                       help="patient CSV whose subjects the curves average over")
    p_net.add_argument("--fit", dest="fit_path", required=True,
                       help="fit.json written by 'exhaz fit'")
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
                         help="also fit the no-heterogeneity model (AIC table; "
                              "one-group scenarios only)")

    p_cmp = sub.add_parser("compare", help="rank saved fits by AIC")
    p_cmp.add_argument("fits", nargs="+", help="fit.json files from the same data")
    p_cmp.add_argument("--out", required=True)
    return parser


def _runconfig(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Reject flag combinations that argparse cannot express."""
    if args.command == "netsurv" and args.draws > 0 and args.seed is None:
        parser.error("--seed is required when --draws requests Monte-Carlo bands")
    return args


_HANDLERS = {
    "fit": cmd_fit,
    "netsurv": cmd_netsurv,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = _runconfig(parser.parse_args(argv), parser)
    try:
        if "level" in args and not 0.0 < args.level < 1.0:  # before any file is read
            raise ValueError(f"--level {args.level!r} must be in (0, 1)")
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # includes DataFormatError, FileNotFoundError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    raise SystemExit(main())
