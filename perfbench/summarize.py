"""Run every workload on several seeds and write the series to a BENCH file.

    python3 perfbench/summarize.py --runs 10 --out perfbench/BENCH_seed.json

Run from the root of a checkout.  Runs are sequential fresh processes of
``run.py`` with seeds ``1..runs``.  For each workload the file keeps every
run's end-to-end metrics, their median, quartiles and spread (quartile
distance over median, the rule the bounds in ``BENCHMARK.json`` apply to),
one traced run's per-layer metrics, and the tracing overhead: the traced
``unit_p50_s`` minus the untraced median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

ROOT = Path.cwd()


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((ROOT / ".perfbench" / "results" / f"{stem}.json").read_text())
    return {"result": result, "environment": record["environment"],
            "unit_tail_beyond": record["unit_tail_beyond"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [one_run(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, args.runs + 1)]
        entry = {"correct": all(r["result"]["correct"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "unit_tail_beyond": [r["unit_tail_beyond"] for r in runs],
                 "metrics": {}}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": measure.spread(values), "bound": bound, "values": values,
            }
        if args.traced:
            traced = [one_run(workload, seed, spec["run_seconds"], 1)
                      for seed in range(1, args.traced + 1)]
            layers = {name: statistics.median(r["result"]["metrics"][name]["value"]
                                              for r in traced)
                      for name in traced[0]["result"]["metrics"]}
            entry["per_layer"] = layers
            entry["tracing_overhead_s"] = (layers["trace.unit_p50_s"]
                                           - entry["metrics"]["unit_p50_s"]["median"])
        entry["environment"] = runs[0]["environment"]
        summary["workloads"][workload] = entry
        print(workload, json.dumps({k: [round(v["median"], 4), round(v["spread"], 4)]
                                    for k, v in entry["metrics"].items()}), flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
