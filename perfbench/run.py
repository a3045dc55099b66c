"""Run one exhaz benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cohort_workflow --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
there, never from an installed copy.  Scratch files, results and traces go
to ``.perfbench/`` in the checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Each result is also saved, with the environment it was measured in, under
``.perfbench/results/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORKLOADS = ("cohort_workflow", "simulate_sc1", "recovery_sc1", "two_group", "model_grid")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package(root: Path):
    """Import ``exhaz`` from the checkout's ``src/``; exit 2 if it is not there."""
    src = root / "src"
    if not (src / "exhaz" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'exhaz'} not found; run from the root of an exhaz checkout")
    sys.path.insert(0, str(src))
    import exhaz
    import exhaz.cli  # noqa: F401  (every module, so tracing can find each binding)

    if Path(exhaz.__file__).resolve().parent != (src / "exhaz").resolve():
        sys.exit(f"error: imported exhaz from {exhaz.__file__}, not from {src}")


def load_references(workload: str, seed: int, seconds: float) -> dict:
    import workloads as wl

    try:
        refs = json.loads(REFERENCES.read_text())[workload][str(wl.input_set(seed))]
    except (OSError, KeyError, ValueError) as exc:
        sys.exit(f"error: no stored references for {workload} (input set "
                 f"{wl.input_set(seed)}): {exc!r}")
    gap = wl.reference_gaps(workload, refs, seconds)
    if gap:
        sys.exit(f"error: {gap}; record them with perfbench/make_references.py")
    return refs


def execute(workload: str, seed: int, seconds: float, traced: bool, refs, root: Path):
    """Run a workload; returns ``(outcome, tracer)``.  ``refs=None`` records."""
    import tracing
    import workloads as wl

    work = root / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if traced else None
    patches = tracing.Patches()
    try:
        if tracer:
            tracing.install_tracing(tracer, patches)
        ctx = wl.Context(root=root, work=work, seed=seed, seconds=seconds,
                         tracer=tracer, refs=refs)
        outcome = wl.run(workload, ctx, patches)
    finally:
        patches.undo()
        shutil.rmtree(work, ignore_errors=True)
    return outcome, tracer


def end_to_end(outcome, import_s: float) -> dict:
    import measure

    durations = [u.duration for u in outcome.units]
    return {
        "setup_s": import_s + measure.median(outcome.setup_samples),
        "units_per_s": len(durations) / outcome.timed_s,
        "unit_p50_s": measure.median(durations),
        "unit_tail_s": measure.tail(durations)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_s": "s", "unit_tail_s": "s",
         "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import envinfo

    load_start = envinfo.load_average()
    import_package(root)
    import_s = time.perf_counter() - PROCESS_START
    import layers
    import measure
    import tracing
    import workloads

    refs = load_references(args.workload, args.seed, args.seconds)
    outcome, tracer = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                              refs, root)

    durations = [u.duration for u in outcome.units]
    outcomes = [outcome.run_errors + u.errors + u.failures for u in outcome.units]
    attempted, failed, share = measure.failed_share(outcomes)
    correct = not outcome.run_errors and not any(u.errors for u in outcome.units)
    replicates = outcome.details.get("replicates", 0)
    excluded_ratio = outcome.details.get("excluded", 0) / replicates if replicates else 0.0
    if tracer:
        metrics = layers.compute(tracer, durations, outcome.cpu_s / outcome.timed_s,
                                 excluded_ratio)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    else:
        metrics = end_to_end(outcome, import_s)
        units = UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    tail_value, beyond = measure.tail(durations)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": workloads.input_set(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "failed_share": share,
        "failures": sorted({reason for reasons in outcomes for reason in reasons})[:20],
        "unit_tail_beyond": beyond,
        "unit_durations_s": durations,
        "import_s": import_s,
        "setup_samples_s": outcome.setup_samples,
        "cpu_per_wall": outcome.cpu_s / outcome.timed_s,
        "se_invalid_fits": outcome.details.get("se_invalid_fits", []),
        "excluded_ratio": excluded_ratio,
        "environment": {**envinfo.environment(), "load_start": load_start,
                        "load_end": envinfo.load_average()},
    }
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        breakdown = tracing.unit_breakdown(tracer)
        record["units_breakdown"] = breakdown
        record["max_closure_error_s"] = max(abs(u["closure_error_s"]) for u in breakdown.values())
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_csv_gz(traces / f"{stem}.csv.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: {attempted} units, {failed} failed "
          f"(failed_share {share:.3f}); unit_tail_s has {beyond} units beyond it",
          file=sys.stderr)
    for reason in record["failures"]:
        print(f"  failure: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
