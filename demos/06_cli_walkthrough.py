"""The command-line interface, end to end.

Every operation in the earlier demos is also reachable from the `exhaz`
console script (or `python -m exhaz.cli`).  This walkthrough shells out the
same way a user would: fit two models, compare them by AIC, produce net
survival curves with uncertainty bands, and draw a simulated cohort from a
scenario file.  Outputs land in demos/output/cli/.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
OUT = HERE / "output" / "cli"
OUT.mkdir(parents=True, exist_ok=True)


def run(*args):
    cmd = [sys.executable, "-m", "exhaz.cli", *map(str, args)]
    print("\n$ exhaz", " ".join(map(str, args)))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        raise SystemExit(f"command failed with exit code {proc.returncode}")
    return proc


covs = "agec,imd,stage2,stage3,stage4,cvd,copd"

# 1 - fit a classical and a gamma-frailty model
run("fit", "--data", DATA / "lung_synthetic.csv",
    "--lifetable", DATA / "lifetable_synthetic.csv",
    "--baseline", "pgw", "--frailty", "none",
    "--x", covs, "--w", "agec",
    "--out", OUT / "classical")
run("fit", "--data", DATA / "lung_synthetic.csv",
    "--lifetable", DATA / "lifetable_synthetic.csv",
    "--baseline", "pgw", "--frailty", "gamma",
    "--x", covs, "--w", "agec",
    "--out", OUT / "frailty")
print((OUT / "frailty" / "summary.txt").read_text())

# 2 - rank the fits by AIC
run("compare", OUT / "classical" / "fit.json", OUT / "frailty" / "fit.json",
    "--out", OUT / "compare")
print((OUT / "compare" / "compare.csv").read_text())

# 3 - net survival by stage, from the saved fit;
#     --draws and --seed switch on Monte-Carlo confidence bands
run("netsurv", "--data", DATA / "lung_synthetic.csv",
    "--fit", OUT / "frailty" / "fit.json",
    "--by", "stage", "--grid", "0:5:11",
    "--draws", "300", "--seed", "7",
    "--out", OUT / "netsurv")
lines = (OUT / "netsurv" / "curves.csv").read_text().splitlines()
print("\n".join(lines[:3] + ["..."] + lines[-2:]))

# 4 - draw one replicate cohort from a bundled scenario file
run("simulate", "--scenario", HERE / "scenarios" / "sc1_small.ini",
    "--replicate", "0", "--out", OUT / "sim")
head = (OUT / "sim" / "cohort.csv").read_text().splitlines()
print("\n".join(head[:4]))
print(f"({len(head) - 1} rows)")

print("\nall outputs under", OUT)
