"""Bundled synthetic inputs and the CSV formats used by the command line.

Real national life tables and registry cohorts are not redistributable, so
the repository ships deterministic synthetic stand-ins with the same shapes:
a complete age x year x sex background-mortality grid, and a lung-style
cohort with standardised age, a deprivation score, stage dummies, and two
comorbidity flags.  The writers and readers here round-trip those objects.

Patient CSV layout: ``time,status,<covariates...>,age,year,<stratum cols>``.
Covariate columns that fail numeric parsing become label columns (usable for
subgrouping but not as model covariates); covariates keep their file order.
Patient files are read as life tables are, by ``lifetable._read_csv``, which
skips blank and ``#`` lines.

Every CSV the package writes goes through :func:`write_csv`: LF line
endings, floats with 17 significant digits (an exact round trip), and an
empty cell where a value is unavailable.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import lifetable as lt
from .baseline import PGWParams
from .inference import Dataset
from .model import GHParams, _GammaFrailty, simulate_event_time

LUNG_AGE_CENTER = 71.5
LUNG_AGE_SCALE = 10.0
STAGE_LABELS = ("I", "II", "III", "IV")


class DataFormatError(ValueError):
    """Raised when a patient CSV does not match the documented layout."""


# -- the one text writer (UTF-8, LF on every platform) and the one CSV writer --------

def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_float_cell = "%.17g".__mod__  # 17 significant digits: an exact round trip


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return _float_cell(float(value))


def _column_cells(column) -> list:
    """Cells of one column; a numeric numpy column formats each distinct value once."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            # keyed on the bits: by value -0.0 == 0.0 (cells -0 and 0) and NaN payloads merge
            keys = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
            distinct, inverse = np.unique(keys, return_inverse=True)
            cells = list(map(_float_cell, distinct.view(np.float64).tolist()))
            return np.array(cells, dtype=object)[inverse].tolist()
        if column.dtype.kind in "iu":
            distinct, inverse = np.unique(column, return_inverse=True)
            return np.array(list(map(str, distinct.tolist())), dtype=object)[inverse].tolist()
        column = column.tolist()
    return [_cell(v) for v in column]


def _stratum_labels(values: np.ndarray) -> np.ndarray:
    """Stratum labels of an (n, k) numeric array, one a value: ``str(int(round(v)))``
    (``np.rint`` rounds half to even, as ``round`` does)."""
    return np.rint(values).astype(np.int64).astype(str)


def write_csv(path, header, columns) -> None:
    """Write a CSV file from a header and equal-length columns.

    Floats are written with 17 significant digits, integers with ``str``
    and strings as they are; ``None`` marks an unavailable value and gives
    an empty cell.  Lines end in LF.  A header of another width than
    ``columns`` raises ``ValueError``.
    """
    if len(header) != len(columns):
        raise ValueError(f"header names {len(header)} columns, got {len(columns)}")
    cells = [_column_cells(col) for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    _write_text(path, "\n".join(lines) + "\n")


# -- synthetic life table ------------------------------------------------------

def synthetic_life_table() -> lt.LifeTable:
    """Deterministic sex-stratified background-mortality grid over ages
    0-99 and calendar years 2010-2019.

    Rates rise log-linearly with age above 35 from a small floor, carry a
    constant between-sex factor, and improve mildly by calendar year.
    """
    # math.exp per age: np.exp can differ from it in the last bit
    base = np.array([0.0004 + 0.00022 * math.exp(0.088 * max(a - 35, 0)) for a in range(100)])
    trend = 1.0 - 0.004 * np.arange(10)
    rates = base[:, None, None] * np.array([1.0, 1.28]) * trend[:, None]  # (age, year, sex)
    ages, years, sex = np.indices(rates.shape).reshape(3, -1)
    return lt.LifeTable.from_columns(ages, years + 2010, sex.astype(str)[:, None],
                                     rates.ravel(), stratum_schema=("sex",))


def write_life_table_csv(path, table: lt.LifeTable) -> None:
    """Serialise a life table in the loader's ``age,year,...,rate`` layout,
    one row per grid cell in (age, year, stratum) order."""
    ages, years, codes = (idx.ravel() for idx in np.indices(table._grid.shape))
    write_csv(path, ("age", "year") + table.stratum_schema + ("rate",),
              [ages + table.age_range[0], years + table.year_range[0],
               *table.stratum_labels(codes).T, table._grid.ravel()])


# -- synthetic lung-style cohort -------------------------------------------------

def synthetic_lung_cohort(n: int = 4000, seed: int = 2012, *,
                          table: lt.LifeTable) -> Dataset:
    """Deterministic cohort mimicking a lung-cancer registry extract.

    Columns: standardised age ``agec``, standardised deprivation ``imd``,
    stage dummies ``stage2..stage4`` (stage I is the reference), comorbidity
    flags ``cvd`` and ``copd`` (together the x columns, with ``agec`` the w
    column), then a ``stage`` label column.  Event times follow a known
    excess-hazard model with gamma heterogeneity on top of the background
    rates of ``table``, with light drop-out and an administrative horizon of
    5 years.
    """
    rng = np.random.default_rng(seed)
    age = np.clip(rng.normal(LUNG_AGE_CENTER, LUNG_AGE_SCALE, n), 40.0, 95.0)
    agec = (age - LUNG_AGE_CENTER) / LUNG_AGE_SCALE
    imd = rng.normal(0.0, 1.0, n)
    stage_idx = rng.choice(4, size=n, p=(0.17, 0.08, 0.22, 0.53))
    cvd = (rng.random(n) < 0.13).astype(float)
    copd = (rng.random(n) < 0.22).astype(float)
    sex = (rng.random(n) < 0.45).astype(float)  # life-table stratum only

    columns = {"agec": agec, "imd": imd,
               **{f"stage{k + 1}": (stage_idx == k).astype(float) for k in (1, 2, 3)},
               "cvd": cvd, "copd": copd}
    x_names = tuple(columns)
    x = np.column_stack(list(columns.values()))
    w = agec.reshape(-1, 1)
    truth = GHParams(
        theta=PGWParams(2.1, 0.95, 1.6),
        alpha=(0.35,),
        beta=(0.35, 0.18, 0.55, 1.15, 1.9, 0.12, 0.2),
    )
    lam = _GammaFrailty.sample(0.75, rng, n)
    u = np.clip(rng.random(n), 2.0**-53, None)
    t_event = simulate_event_time(u, x, w, truth, lam)

    year = 2012.0
    strata = _stratum_labels(sex[:, None])
    # every censoring time is at most 5 years, so a later death changes nothing
    t_bg = lt.sample_other_cause_time(table, age, year, strata, rng.random(n),
                                      before=np.minimum(t_event, 5.0))
    t_death = np.minimum(t_event, t_bg)
    censor = np.minimum(rng.exponential(1.0 / 0.03, size=n), 5.0)
    columns["stage"] = np.array([STAGE_LABELS[i] for i in stage_idx], dtype=object)

    return Dataset(
        time=np.minimum(t_death, censor),
        status=(t_death <= censor).astype(int),
        columns=columns,
        x_names=x_names,
        w_names=("agec",),
        age=age,
        year=np.full(n, year),
        strata=strata,
        stratum_names=table.stratum_schema,
    )


# -- patient CSV round trip -------------------------------------------------------

def write_patient_csv(path, data: Dataset) -> None:
    """Write a cohort in the documented patient CSV layout.

    The covariate block is ``data.columns``, in its order; floats carry full
    precision.
    """
    write_csv(path, ["time", "status", *data.columns, "age", "year", *data.stratum_names],
              [data.time, data.status, *data.columns.values(), data.age, data.year,
               *data.strata.T])


def load_patient_csv(source) -> Dataset:
    """Parse a patient CSV; the layout is self-describing.

    The header must start ``time,status`` and contain adjacent ``age,year``
    columns; anything between is a covariate, anything after is a life-table
    stratum column.  Every covariate becomes a column of the cohort, in file
    order, and every numeric one an x column; a column that is not fully
    numeric is kept as labels.  Blank and ``#`` lines are skipped; a repeated
    name or a malformed field raises :class:`DataFormatError` naming it.
    The loader only parses; :class:`Dataset` checks each record, naming its
    file line.  No message names the file; the command line adds its path.
    """
    header, _, columns, lines = lt._read_csv(source, DataFormatError)
    if not header:
        raise DataFormatError("patient file contains no rows")
    if header[:2] != ["time", "status"]:
        raise DataFormatError(
            f"header must start with 'time,status', got {','.join(header[:2])!r}"
        )
    try:
        idx_age = header.index("age")
    except ValueError:
        raise DataFormatError("header is missing the 'age' column") from None
    if idx_age + 1 >= len(header) or header[idx_age + 1] != "year":
        raise DataFormatError("the 'year' column must directly follow 'age'")
    stratum_names = tuple(header[idx_age + 2 :])
    for names in (header[: idx_age + 2], stratum_names):  # a covariate may name a stratum
        if repeated := [name for i, name in enumerate(names) if name in names[:i]]:
            raise DataFormatError(f"header names column {repeated[0]!r} more than once")
    if not lines:
        raise DataFormatError("patient file contains no data rows")

    def number(idx: int) -> np.ndarray:
        return lt._parse_column(columns[idx], float, lambda i: DataFormatError(
            f"row {lines[i]}: column {header[idx]!r} is not numeric: {columns[idx][i]!r}"))

    covariates = {}
    for name, raw in zip(header[2:idx_age], columns[2:idx_age]):
        try:
            covariates[name] = np.array(raw, dtype=float)
        except ValueError:
            covariates[name] = np.array([v.strip() for v in raw], dtype=object)

    try:
        return Dataset(
            time=number(0),
            status=number(1),
            columns=covariates,
            x_names=[name for name, col in covariates.items() if col.dtype == float],
            w_names=(),
            age=number(idx_age),
            year=number(idx_age + 1),
            strata=lt._stripped_labels(columns[idx_age + 2 :], len(lines)),
            stratum_names=stratum_names,
            rows=lines,
        )
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


# -- bundled demo inputs ------------------------------------------------------------

def write_bundled_data(root) -> list:
    """Regenerate the bundled demo inputs under ``root`` (returns the paths).

    Writes the synthetic life table, the lung-style cohort, and the shipped
    scenario files; every file is a pure function of fixed seeds, so reruns
    are byte-identical.
    """
    from .simulation import (Scenario, TruthGroup, save_scenario, sc1_scenario,
                             two_group_scenario)

    root = Path(root)
    data_dir = root / "data"
    scen_dir = root / "scenarios"
    data_dir.mkdir(parents=True, exist_ok=True)
    scen_dir.mkdir(parents=True, exist_ok=True)

    written = []
    table = synthetic_life_table()
    path = data_dir / "lifetable_synthetic.csv"
    write_life_table_csv(path, table)
    written.append(path)

    cohort = synthetic_lung_cohort(table=table)
    path = data_dir / "lung_synthetic.csv"
    write_patient_csv(path, cohort)
    written.append(path)

    scenarios = {
        "sc1.ini": sc1_scenario(),
        "sc1_small.ini": sc1_scenario(n=500, M=200, seed=20121),
        "sc1_null.ini": sc1_scenario(b=0.0, seed=20122),
        "two_group_1.ini": two_group_scenario(variant=1),
        "two_group_2.ini": two_group_scenario(variant=2),
        # configurable stand-ins for further single-truth designs
        "sc2_standin.ini": Scenario(
            name="sc2-standin", n=1000, M=100, baseline="lognormal",
            groups=(TruthGroup((0.3, 0.9), (0.5, 0.4, 0.3, 0.2),
                               (0.6, 0.5, 0.4, 0.3)),),
            frailty_family="ig", frailty_b=0.8, seed=20123,
        ),
        "sc3_standin.ini": Scenario(
            name="sc3-standin", n=1000, M=100, baseline="pgw",
            groups=(TruthGroup((1.2, 0.9, 2.5), (0.4, 0.3, 0.2, 0.1),
                               (0.8, 0.6, 0.4, 0.2)),),
            frailty_family="gamma", frailty_b=1.0, seed=20124,
        ),
    }
    for fname, scenario in scenarios.items():
        path = scen_dir / fname
        save_scenario(path, scenario)
        written.append(path)
    return written
