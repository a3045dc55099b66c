"""Record the reference outputs the benchmark checks every unit against.

    python3 perfbench/make_references.py [--workload NAME ...] [--seconds S ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  For each workload and input set (plus the held-out set) it runs
the workload untimed, fails if any unit fails, and stores what the checks
compare in ``perfbench/references.json``: log-likelihoods, AIC rankings and
curves, per-replicate AICs or log-likelihoods, and the two-group summary
for the replicate counts that the given ``--seconds`` values ask for
(by default the benchmark's ``run_seconds`` and the self-test's 1 s).
"""

import argparse
import json
import sys
from pathlib import Path

import run

SELFTEST_SECONDS = 1.0


def dump(store: dict) -> str:
    """JSON with one line per workload and input set."""
    blocks = []
    for workload in sorted(store):
        sets = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                           for k, v in sorted(store[workload].items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{sets}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    root = Path.cwd()
    run_seconds = float(json.loads((root / "BENCHMARK.json").read_text())["run_seconds"])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seconds", action="append", type=float)
    args = p.parse_args(argv)
    run.import_package(root)
    import workloads as wl

    store = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    seconds = sorted(set(args.seconds or (run_seconds, SELFTEST_SECONDS)), reverse=True)
    seeds = list(range(wl.N_SETS)) + [wl.HELD_OUT_SEED]
    for workload in args.workload or run.WORKLOADS:
        per_set = store.setdefault(workload, {})
        for seed in seeds:
            entry = {}
            # loops need one unit; studies need every replicate count asked for
            lengths = seconds if workload in wl.NOMINAL_REPLICATE_S else [0.0]
            for s in lengths:
                outcome, _ = run.execute(workload, seed, s, False, None, root)
                errors = outcome.run_errors + [e for u in outcome.units for e in u.errors]
                if errors:
                    sys.exit(f"{workload} seed {seed}: {errors[:5]}")
                failures = [f for u in outcome.units for f in u.failures]
                if failures:
                    print(f"{workload} seed {seed} (reference keeps them): {failures}",
                          file=sys.stderr)
                record = outcome.record
                if "summary" in record:
                    entry.setdefault("summary", {}).update(record.pop("summary"))
                for key, value in record.items():
                    if key not in entry or len(value) > len(entry[key]):
                        entry[key] = value
            per_set[str(wl.input_set(seed))] = entry
            print(f"{workload} set {wl.input_set(seed)} recorded", file=sys.stderr)
        run.REFERENCES.write_text(dump(store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
