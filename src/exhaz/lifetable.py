"""Life-table ingestion and population (background) mortality lookups.

A life table stores expected mortality hazards (deaths per person-year) on a
grid of 1-year age bands, 1-year calendar bands, and optional demographic
strata (e.g. sex).  Lookups use attained age and attained calendar year with
floor semantics, clamping at the table edges.

CSV format: header ``age,year,<stratum columns...>,rate``; one row per grid
cell; lines starting with ``#`` are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np


class LifeTableError(ValueError):
    """Raised for malformed life-table files or unresolvable lookups."""


@dataclass(frozen=True)
class LifeTableKey:
    """Demographics fixing a life-table trajectory: age/year at diagnosis and stratum."""

    age: float
    year: float
    stratum: tuple[str, ...] = ()


class OtherCauseTime(NamedTuple):
    time: float
    truncated: bool


@dataclass(frozen=True, eq=False)
class LifeTable:
    """Immutable gridded life table.

    Attributes
    ----------
    age_range, year_range : tuple of int
        Inclusive band ranges covered by the grid.
    stratum_schema : tuple of str
        Names of the stratum variables, in column order.

    The rates live in ``_grid[age - age_range[0], year - year_range[0], code]``,
    where ``_combo_index`` maps each stratum tuple to its code, in sorted order.
    """

    age_range: tuple[int, int]
    year_range: tuple[int, int]
    stratum_schema: tuple[str, ...]
    _grid: np.ndarray = field(repr=False)
    _combo_index: dict = field(repr=False)

    @classmethod
    def from_entries(cls, entries, stratum_schema=()):
        """Build a table from an entries mapping, validating grid completeness."""
        if not entries:
            raise LifeTableError("life table has no entries")
        stratum_schema = tuple(stratum_schema)
        ages = sorted({k[0] for k in entries})
        years = sorted({k[1] for k in entries})
        a0, a1 = ages[0], ages[-1]
        y0, y1 = years[0], years[-1]
        domains = [sorted({k[2][j] for k in entries}) for j in range(len(stratum_schema))]
        combos = [()]
        for dom in domains:
            combos = [c + (v,) for c in combos for v in dom]
        combo_index = {c: i for i, c in enumerate(combos)}
        grid = np.empty((a1 - a0 + 1, y1 - y0 + 1, len(combos)))
        grid.fill(np.nan)
        for (a, y, strat), rate in entries.items():
            if not (math.isfinite(rate) and rate >= 0.0):
                raise LifeTableError(f"negative or non-finite rate for {(a, y, strat)}")
            if len(strat) != len(stratum_schema):
                raise LifeTableError(
                    f"stratum {strat!r} does not match schema {stratum_schema}"
                )
            grid[a - a0, y - y0, combo_index[strat]] = rate
        if np.isnan(grid).any():
            a, y, c = [idx[0] for idx in np.nonzero(np.isnan(grid))]
            missing = (int(a) + a0, int(y) + y0, combos[c])
            raise LifeTableError(f"incomplete grid: missing cell {missing}")
        return cls(
            age_range=(a0, a1),
            year_range=(y0, y1),
            stratum_schema=stratum_schema,
            _grid=grid,
            _combo_index=combo_index,
        )

    # -- lookups ----------------------------------------------------------

    def stratum_code(self, stratum) -> int:
        """Integer code of one stratum tuple; raises for unknown values."""
        try:
            return self._combo_index[tuple(stratum)]
        except KeyError:
            raise LifeTableError(
                f"stratum {tuple(stratum)!r} not present in life table "
                f"(schema {self.stratum_schema})"
            ) from None

    def stratum_codes(self, strata) -> np.ndarray:
        """Vectorised :meth:`stratum_code` over a sequence of stratum tuples."""
        return np.array([self.stratum_code(s) for s in strata], dtype=np.intp)

    def rates_at(self, ages, years, codes) -> np.ndarray:
        """Rates at ``(floor(age), floor(year), code)`` with edge clamping, vectorised."""
        a0, a1 = self.age_range
        y0, y1 = self.year_range
        ai = np.clip(np.floor(ages).astype(np.intp), a0, a1) - a0
        yi = np.clip(np.floor(years).astype(np.intp), y0, y1) - y0
        return self._grid[ai, yi, codes]

    def support_horizon(self, key: LifeTableKey) -> float:
        """Follow-up time after which the table's declared coverage is exhausted."""
        return max(
            min(self.age_range[1] + 1 - key.age, self.year_range[1] + 1 - key.year), 0.0
        )

    def _segments(self, key: LifeTableKey):
        """Piecewise-constant rate segments of t -> rate(age+t, year+t, stratum).

        Returns ``(knots, cum_hazard_at_knots, segment_rates)``; the final knot
        is the time after which the (clamped) rate stays constant forever.
        """
        code = self.stratum_code(key.stratum)
        end = max(
            self.age_range[1] + 1 - key.age, self.year_range[1] + 1 - key.year, 0.0
        )
        points = {0.0, end}
        for start in (key.age, key.year):
            first = math.floor(start) + 1 - start
            points.update(np.arange(first, end, 1.0).tolist())
        knots = np.array(sorted(p for p in points if 0.0 <= p <= end))
        if len(knots) < 2:
            knots = np.array([0.0])
            rates = np.empty(0)
        else:
            mids = (knots[:-1] + knots[1:]) / 2.0
            rates = self.rates_at(key.age + mids, key.year + mids, code)
        cum = np.concatenate(([0.0], np.cumsum(rates * np.diff(knots))))
        return knots, cum, rates

    def _tail_rate(self, key: LifeTableKey) -> float:
        """Clamped constant rate applying beyond the last segment knot."""
        code = self.stratum_code(key.stratum)
        return float(
            self.rates_at(self.age_range[1] + 1.0, self.year_range[1] + 1.0, code)
        )


def load_life_table(source) -> LifeTable:
    """Parse a life-table CSV (path, file object, or iterable of lines).

    Errors (malformed row, negative rate, duplicate key, grid hole) are
    reported with the offending row number.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = list(source)

    header = None
    entries = {}
    stratum_schema = ()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = fields
            if len(header) < 3 or header[0] != "age" or header[1] != "year" or header[-1] != "rate":
                raise LifeTableError(
                    f"row {lineno}: header must be 'age,year,<stratum columns...>,rate', "
                    f"got {line!r}"
                )
            stratum_schema = tuple(header[2:-1])
            continue
        if len(fields) != len(header):
            raise LifeTableError(
                f"row {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        try:
            age = int(fields[0])
            year = int(fields[1])
            rate = float(fields[-1])
        except ValueError:
            raise LifeTableError(f"row {lineno}: malformed numeric field in {line!r}") from None
        if not math.isfinite(rate) or rate < 0.0:
            raise LifeTableError(f"row {lineno}: negative or non-finite rate {fields[-1]}")
        key = (age, year, tuple(fields[2:-1]))
        if key in entries:
            raise LifeTableError(f"row {lineno}: duplicate cell {key}")
        entries[key] = rate
    if header is None or not entries:
        raise LifeTableError("life-table file contains no data rows")
    return LifeTable.from_entries(entries, stratum_schema)


def pop_hazard(table: LifeTable, key: LifeTableKey, t):
    """Population hazard at follow-up time ``t >= 0`` (vectorised in ``t``)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("pop_hazard requires t >= 0")
    code = table.stratum_code(key.stratum)
    return table.rates_at(key.age + t, key.year + t, code)


def pop_cum_hazard(table: LifeTable, key: LifeTableKey, t):
    """Integral of :func:`pop_hazard` over ``[0, t]`` (exact, piecewise linear)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("pop_cum_hazard requires t >= 0")
    knots, cum, _ = table._segments(key)
    out = np.interp(t, knots, cum)
    beyond = t > knots[-1]
    if np.any(beyond):
        out = np.where(beyond, cum[-1] + table._tail_rate(key) * (t - knots[-1]), out)
    return out


def sample_other_cause_time(table: LifeTable, key: LifeTableKey, u) -> OtherCauseTime:
    """Invert the background cumulative hazard at target ``-log(1-u)``.

    Returns the exact solution of ``pop_cum_hazard(t) = -log(1-u)``; if the
    table's declared coverage ends first, returns the coverage horizon with
    ``truncated=True``.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    target = -math.log1p(-u)
    knots, cum, rates = table._segments(key)
    horizon = table.support_horizon(key)
    max_cum = float(np.interp(horizon, knots, cum))
    if target > max_cum or horizon == 0.0:
        return OtherCauseTime(horizon, True)
    idx = int(np.searchsorted(cum, target, side="right")) - 1
    idx = min(max(idx, 0), len(rates) - 1)
    remaining = target - cum[idx]
    if rates[idx] > 0.0:
        t = knots[idx] + remaining / rates[idx]
    else:
        t = knots[idx]
    return OtherCauseTime(min(float(t), horizon), False)


def sample_other_cause_times(table: LifeTable, ages, year: float, strata, u) -> np.ndarray:
    """Other-cause death times of subjects diagnosed in calendar ``year``,
    one uniform draw ``u`` each.

    A draw truncated by the table's declared coverage becomes ``+inf``:
    callers keep their follow-up inside the coverage, so the substitution
    never reaches observed data.
    """
    out = np.empty(len(u))
    for i in range(len(u)):
        res = sample_other_cause_time(
            table, LifeTableKey(float(ages[i]), float(year), strata[i]), float(u[i])
        )
        out[i] = math.inf if res.truncated else res.time
    return out
