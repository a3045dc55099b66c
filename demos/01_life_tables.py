"""Background mortality from life tables: lookups, survival, sampling.

A life table is a grid of one-year hazard rates indexed by integer age,
calendar year, and optional demographic strata (here: sex).  During
follow-up a subject moves diagonally through the grid — both attained age
and calendar year advance with time — and the package integrates the rates
along that diagonal.
"""

import numpy as np

from exhaz import (
    LifeTableKey,
    load_life_table,
    sample_other_cause_time,
    synthetic_life_table,
)
from exhaz.lifetable import pop_cum_hazard, pop_hazard

# 1 - the bundled synthetic table (ages 0-99, years 2010-2019, sex strata)
table = synthetic_life_table()
print(f"ages {table.age_range}, years {table.year_range}, "
      f"strata {table.stratum_schema}")

key = LifeTableKey(age=71.3, year=2012.0, stratum=("1",))
for t in (0.0, 0.5, 2.0, 4.9):
    rate = pop_hazard(table, key, t)
    print(f"  t={t:3.1f}: attained age {key.age + t:5.1f}, rate {rate:.5f}")

# 2 - cumulative background hazard and the implied background survival
grid = np.linspace(0.0, 5.0, 6)
hp = pop_cum_hazard(table, key, grid)
print("background survival:", np.round(np.exp(-hp), 4))

# 3 - sampling other-cause death times by inverting the diagonal hazard
rng = np.random.default_rng(7)
times = sample_other_cause_time(table, np.full(10_000, key.age), key.year,
                                [key.stratum] * 10_000, rng.random(10_000))
draws = times[np.isfinite(times)]  # +inf = alive at the end of table support
share = 1 - len(draws) / 10_000
print(f"sampled 10000 subjects aged {key.age}: "
      f"{share:.1%} outlive the table horizon")
print(f"mean other-cause death time (deaths only): {np.mean(draws):.2f} years")

# 4 - the same table, serialised and re-read
if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    from exhaz import write_life_table_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_life_table_csv(path, table)
        again = Path(tmp) / "again.csv"
        write_life_table_csv(again, load_life_table(path))
        print("CSV round trip exact:", again.read_bytes() == path.read_bytes())
