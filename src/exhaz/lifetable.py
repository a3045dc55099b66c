"""Life-table ingestion and population (background) mortality lookups.

A life table stores expected mortality hazards (deaths per person-year) on a
grid of 1-year age bands, 1-year calendar bands, and optional demographic
strata (e.g. sex).  Lookups use attained age and attained calendar year with
floor semantics, clamping at the table edges.

One vectorised sampler, :func:`sample_other_cause_time`, inverts many subjects'
cumulative hazards at once.  A draw past the table's declared coverage becomes
``+inf``; simulated cohorts refuse follow-up that outlives the coverage.  Its
``before`` contract: a draw later than ``before[i]`` may come back ``+inf``
(such a subject is screened out by a rate bound, never inverted), and every
other draw is exact to the bit.

CSV format: header ``age,year,<stratum columns...>,rate``; one row per grid
cell.  :func:`_read_csv`, which reads patient files too, skips blank and ``#`` lines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import _domain

_BLOCK = 1024  # subjects per sampling block; bounds the knot matrices' memory


@dataclass(frozen=True)
class LifeTableKey:
    """Demographics fixing a life-table trajectory: age/year at diagnosis and stratum."""

    age: float
    year: float
    stratum: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class LifeTable:
    """Immutable gridded life table.

    Attributes
    ----------
    age_range, year_range : tuple of int
        Inclusive band ranges covered by the grid.
    stratum_schema : tuple of str
        Names of the k stratum variables, in column order.

    Strata are (n, k) arrays of str labels, one column per stratum variable.
    A row's code reads its labels' positions in ``_domains`` (each column's
    sorted labels) as one mixed-radix number, the first column most
    significant; a leading digit of radix 1 codes every row 0 when k = 0.
    The rates live in ``_grid[age - age_range[0], year - year_range[0], code]``.
    """

    age_range: tuple[int, int]
    year_range: tuple[int, int]
    stratum_schema: tuple[str, ...]
    _grid: np.ndarray = field(repr=False)
    _domains: tuple = field(repr=False)

    @classmethod
    def from_columns(cls, ages, years, strata, rates, stratum_schema=(), rows=None):
        """Build a table from one entry per grid cell: integer ``ages`` and
        ``years``, an (n, k) array (or n row tuples) of ``strata`` labels with
        k = ``len(stratum_schema)``, and one rate each.  Errors name entry i
        as row ``rows[i]`` (by default i + 1)."""
        stratum_schema = tuple(stratum_schema)
        ages, years = np.asarray(ages, dtype=np.int64), np.asarray(years, dtype=np.int64)
        rates = np.asarray(rates, dtype=float)
        n = len(rates)
        if n == 0:
            raise ValueError("life table has no entries")
        rows = range(1, n + 1) if rows is None else rows
        strata = _label_array(strata, n, stratum_schema, lambda i: f"row {rows[i]}")
        bad = np.flatnonzero(~(np.isfinite(rates) & (rates >= 0.0)))
        if bad.size:
            raise ValueError(f"row {rows[bad[0]]}: negative or non-finite rate {rates[bad[0]]}")
        columns = [np.unique(col, return_inverse=True) for col in strata.T]
        domains = tuple(values for values, _ in columns)
        radix = (1, *map(len, domains))
        code = np.ravel_multi_index((np.zeros(n, np.intp), *(i for _, i in columns)), radix)
        n_codes = math.prod(radix)
        age_values, age_rank = np.unique(ages, return_inverse=True)
        year_values, year_rank = np.unique(years, return_inverse=True)
        cells, first = np.unique((age_rank * len(year_values) + year_rank) * n_codes + code,
                                 return_index=True)
        if len(cells) < n:
            i = np.setdiff1d(np.arange(n), first)[0]  # the first entry repeating a cell
            raise ValueError(f"row {rows[i]}: duplicate cell "
                             f"{(int(ages[i]), int(years[i]), tuple(strata[i].tolist()))}")
        (a0, a1), (y0, y1) = age_values[[0, -1]].tolist(), year_values[[0, -1]].tolist()
        table = cls((a0, a1), (y0, y1), stratum_schema, rates[first], domains)
        if n != (a1 - a0 + 1) * (y1 - y0 + 1) * n_codes:
            # walk the grid beside the sorted cells to the first hole; product() would build
            # the ranges, so the walk is a generator
            have = zip(ages[first].tolist(), years[first].tolist(), code[first].tolist())
            grid = ((a, y, c) for a in range(a0, a1 + 1) for y in range(y0, y1 + 1)
                    for c in range(n_codes))
            a, y, c = next(want for want, got in zip(grid, [*have, None]) if want != got)
            labels = tuple(table.stratum_labels([c])[0].tolist())
            raise ValueError(f"incomplete grid: missing cell {(a, y, labels)}")
        return replace(table, _grid=table._grid.reshape(a1 - a0 + 1, y1 - y0 + 1, n_codes))

    # -- lookups ----------------------------------------------------------

    def stratum_codes(self, strata) -> np.ndarray:
        """Codes of an (n, k) array (or n row tuples) of stratum labels; an unknown
        label raises naming its 0-based record, its column and the column's labels."""
        strata = _label_array(strata, len(strata), self.stratum_schema,
                              lambda i: f"record {i} (0-based)")
        index = [np.searchsorted(d, col) for d, col in zip(self._domains, strata.T)]
        unknown = [d[np.minimum(i, len(d) - 1)] != col
                   for d, i, col in zip(self._domains, index, strata.T)]
        if np.any(unknown):
            i, j = np.argwhere(np.transpose(unknown))[0]  # the first record, then column
            raise ValueError(
                f"record {i} (0-based): {self.stratum_schema[j]} {strata[i, j].item()!r} is not "
                f"a stratum label of the life table (labels {', '.join(self._domains[j])})")
        return np.ravel_multi_index((np.zeros(len(strata), np.intp), *index),
                                    (1, *map(len, self._domains)))

    def stratum_labels(self, codes) -> np.ndarray:
        """The (n, k) label array of ``codes``, inverting :meth:`stratum_codes`."""
        index = np.unravel_index(codes, (1, *map(len, self._domains)))[1:]
        labels = np.array([d[i] for d, i in zip(self._domains, index)], dtype=str)
        return labels.reshape(len(self._domains), len(codes)).T

    def rates_at(self, ages, years, codes) -> np.ndarray:
        """Rates at ``(floor(age), floor(year), code)`` with edge clamping, vectorised."""
        a0, a1 = self.age_range
        y0, y1 = self.year_range
        # clipped before the cast, which would wrap a value beyond intp's range
        ai = np.clip(np.floor(ages), a0, a1).astype(np.intp) - a0
        yi = np.clip(np.floor(years), y0, y1).astype(np.intp) - y0
        return self._grid[ai, yi, codes]

    def _segment_rows(self, ages, years, codes, stop):
        """Piecewise-constant rate segments of t -> rate(age+t, year+t, code), one row each.

        Row i's knots are 0, each band-edge crossing of its age or year, and the
        time after which both are clamped (then the corner rate applies), up
        to its second knot at or past ``stop[i]``.  Returns ``(knots, cum,
        rates, count)``; columns past ``count[i]`` repeat row i's last knot.
        """
        ages, years, codes, stop = np.broadcast_arrays(ages, years, codes, stop)
        end = np.maximum(np.maximum(self.age_range[1] + 1 - ages, self.year_range[1] + 1 - years), 0)
        col = np.arange(int(np.ceil(min(end.max(), stop.max()))) + 3)
        parts = [np.zeros((len(ages), 1)), end[:, None]]
        for start in (ages, years):
            first = (np.floor(start) + 1 - start)[:, None]
            # first + i * ((first + 1) - first) is how np.arange(first, end, 1.0)
            # fills, which differs from first + i for ages below 1
            seq = first + col * ((first + 1.0) - first)
            seq[(col >= np.ceil(end[:, None] - first)) | (seq > end[:, None])] = np.inf
            parts.append(seq)
        knots = np.sort(np.concatenate(parts, axis=1), axis=1)
        knots[:, 1:][knots[:, 1:] == knots[:, :-1]] = np.inf  # drop exact repeats
        knots.sort(axis=1)
        count = np.minimum(np.isfinite(knots).sum(axis=1),
                           (knots < stop[:, None]).sum(axis=1) + 2)
        cols = np.minimum(np.arange(max(count.max(), 2)), count[:, None] - 1)
        knots = np.take_along_axis(knots, cols, axis=1)
        mids = (knots[:, :-1] + knots[:, 1:]) / 2.0
        rates = self.rates_at(ages[:, None] + mids, years[:, None] + mids, codes[:, None])
        steps = np.cumsum(rates * np.diff(knots, axis=1), axis=1)
        cum = np.concatenate((np.zeros((len(ages), 1)), steps), axis=1)
        return knots, cum, rates, count


def _label_array(strata, n: int, schema, where) -> np.ndarray:
    """``strata`` as an (n, k) array of str labels, k = ``len(schema)``, from
    such an array or n row tuples.  Ragged rows raise ``ValueError`` naming the
    first of another width as ``where(i)``; another shape names the expected one.
    Labels that arrive as Python objects may not hold a NUL character, which
    numpy's str dtype would drop from the end; a str array has none left to find."""
    try:
        labels = np.asarray(strata, dtype=str)
    except ValueError:  # ragged rows
        for i, row in enumerate(strata):
            if len(row) != len(schema):
                raise ValueError(f"{where(i)}: stratum {tuple(map(str, row))!r} does not "
                                 f"match schema {schema}") from None
        raise
    labels = labels.reshape(0, len(schema)) if labels.shape == (0,) else labels
    if labels.shape != (n, len(schema)):
        raise ValueError(f"strata must be an (n, k) = ({n}, {len(schema)}) array of labels, "
                         f"one per column of schema {schema}, got shape {labels.shape}")
    if not (isinstance(strata, np.ndarray) and strata.dtype.kind == "U"):
        for i, row in enumerate(strata):
            for name, label in zip(schema, row):
                if "\x00" in str(label):
                    raise ValueError(
                        f"{where(i)}: {name} label {str(label)!r} has a NUL character")
    return labels


def _read_csv(source):
    """Read a CSV (a path, or a text stream such as an open file) into columns.

    Skips blank lines and lines whose first non-space character is ``#``.
    Returns the stripped header names (empty without a header), its file
    line, one list of unstripped cells per column and each row's file line.
    A row with the wrong field count raises ``ValueError``, and so does a NUL
    character, which numpy's str arrays would drop from the end of a label."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        text = source.read().splitlines()
    kept = [i for i, line in enumerate(text, start=1)
            if (stripped := line.lstrip()) and stripped[0] != "#"]
    if not kept:
        return [], 0, [], []
    header = [name.strip() for name in text[kept[0] - 1].split(",")]
    lines, body = kept[1:], [text[i - 1] for i in kept[1:]]
    width = np.fromiter(map(str.count, body, itertools.repeat(",")), np.intp, len(body)) + 1
    bad = np.flatnonzero(width != len(header))
    if bad.size:
        raise ValueError(
            f"row {lines[bad[0]]}: expected {len(header)} fields, got {width[bad[0]]}")
    joined = ",".join(body)
    if "\x00" in joined:
        i = next(i for i, row in zip(lines, body) if "\x00" in row)
        raise ValueError(f"row {i}: NUL character")
    # every row has len(header) cells, so column j is every len(header)-th cell
    cells = joined.split(",") if body else []
    return header, kept[0], [cells[j::len(header)] for j in range(len(header))], lines


def _parse_column(cells, dtype, error):
    """Cells as a ``dtype`` array; numpy parses each str cell with ``float()``
    or ``int()``, bit for bit.  The first cell ``i`` it refuses (unparsable,
    or an integer outside int64) raises ``error(i)``."""
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for i, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                raise error(i) from None
        raise


def _stripped_labels(columns, n: int) -> np.ndarray:
    """The (n, len(columns)) array of ``columns``' cells, stripped: stratum labels."""
    return np.char.strip(np.array(columns, dtype=str).reshape(len(columns), n)).T


def load_life_table(source) -> LifeTable:
    """Parse a life-table CSV (a path, or a text stream such as an open file).

    Errors (malformed row, negative rate, duplicate cell) name the file
    line; a grid hole names the first missing cell.
    """
    header, header_line, columns, lines = _read_csv(source)
    if header and (len(header) < 3 or header[:2] != ["age", "year"] or header[-1] != "rate"):
        raise ValueError(
            f"row {header_line}: header must be 'age,year,<stratum columns...>,rate', "
            f"got {','.join(header)!r}"
        )
    if not lines:
        raise ValueError("life-table file contains no data rows")

    def malformed(i):
        row = ",".join(column[i] for column in columns).strip()
        return ValueError(f"row {lines[i]}: malformed numeric field in {row!r}")

    ages, years = (_parse_column(col, np.int64, malformed) for col in columns[:2])
    rates = _parse_column(columns[-1], float, malformed)
    return LifeTable.from_columns(ages, years, _stripped_labels(columns[2:-1], len(lines)),
                                  rates, header[2:-1], rows=lines)


def pop_hazard(table: LifeTable, key: LifeTableKey, t):
    """Population hazard at follow-up time ``t >= 0`` (vectorised in ``t``)."""
    t = _domain(t, "pop_hazard requires t >= 0")
    code = table.stratum_codes([key.stratum])[0]
    return table.rates_at(key.age + t, key.year + t, code)


def pop_cum_hazard(table: LifeTable, key: LifeTableKey, t):
    """Integral of :func:`pop_hazard` over ``[0, t]`` (exact, piecewise linear)."""
    t = _domain(t, "pop_cum_hazard requires t >= 0")
    code = table.stratum_codes([key.stratum])[0]
    knots, cum, _, count = table._segment_rows(np.array([key.age]), key.year, code, np.inf)
    knots, cum = knots[0, :count[0]], cum[0, :count[0]]
    out = np.interp(t, knots, cum)
    beyond = t > knots[-1]
    if np.any(beyond):
        out = np.where(beyond, cum[-1] + table._grid[-1, -1, code] * (t - knots[-1]), out)
    return out


def sample_other_cause_time(table: LifeTable, ages, year: float, strata, u,
                            before=None) -> np.ndarray:
    """Other-cause death times of subjects diagnosed in calendar ``year``, one draw ``u`` each.

    ``strata`` is an (n, k) array (or n row tuples) of the subjects' stratum labels.
    Each time solves ``pop_cum_hazard(t) = -log(1-u)`` exactly.  A draw that
    outlives the table's declared coverage (until age or year leaves its last
    band) becomes ``+inf``; simulated cohorts keep follow-up inside coverage.

    ``before`` (a scalar or one value per subject; None or non-finite means
    the coverage) marks the time after which a caller ignores the draw: a
    draw later than ``before[i]`` may come back ``+inf``.  Every other draw
    keeps every bit of its exact time.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    ages = np.asarray(ages, dtype=float)
    codes = table.stratum_codes(strata)
    bad = np.flatnonzero(~np.isfinite(ages))
    if bad.size:
        raise ValueError(f"record {bad[0]} (0-based): age {ages[bad[0]]} is not finite")
    if not math.isfinite(year):
        raise ValueError(f"year {year} is not finite")
    # screen: over [0, stop] the cumulative hazard is at most stop * r_max, with
    # r_max the largest rate of any year and stratum in the age bands floor(age)
    # to floor(age + stop) + 1 (the extra band absorbs the rounding of the
    # knots); a target above that, with a margin for rounding, is reached later
    horizon = np.maximum(
        np.minimum(table.age_range[1] + 1 - ages, table.year_range[1] + 1 - year), 0.0)
    before = np.asarray(np.inf if before is None else before, dtype=float)
    stop = np.maximum(np.where(np.isfinite(before), np.minimum(before, horizon), horizon), 0.0)
    a0, n_bands = table.age_range[0], table._grid.shape[0]
    first = np.clip(np.floor(ages) - a0, 0, n_bands - 1)
    end = np.clip(np.floor(ages + stop) + 2 - a0, 1, n_bands)
    # the even entries reduce band_max[first:end], first < end; the odd ones are discarded
    band_max = np.append(table._grid.max(axis=(1, 2)), 0.0)
    bounds = np.column_stack((first, end)).astype(np.intp).ravel()
    r_max = np.maximum.reduceat(band_max, bounds)[::2]
    with np.errstate(over="ignore"):  # a bound past the largest double screens nobody out
        rows = np.flatnonzero(-np.log1p(-u) <= stop * r_max * (1.0 + 1e-9))
    # math.log1p, not np.log1p, which differs from it in the last bit on some u
    target = np.array([-math.log1p(-v) for v in u[rows].tolist()])
    out = np.full(len(u), np.inf)
    for lo in range(0, len(rows), _BLOCK):
        b = rows[lo:lo + _BLOCK]
        out[b] = _invert_rows(table, ages[b], year, codes[b], target[lo:lo + _BLOCK],
                              horizon[b])
    return out


def _invert_rows(table, ages, year, codes, target, horizon) -> np.ndarray:
    """Solve each row's cumulative hazard for ``target`` within the table's
    coverage, which ends ``horizon`` after each row's start."""
    knots, cum, rates, count = table._segment_rows(ages, year, codes, horizon)
    rows = np.arange(len(ages))
    # cumulative hazard at the horizon, by np.interp's arithmetic
    j = np.minimum((knots <= horizon[:, None]).sum(axis=1), count) - 1
    nxt = np.minimum(j + 1, count - 1)
    xj, yj = knots[rows, j], cum[rows, j]
    dx = np.where(nxt > j, knots[rows, nxt] - xj, 1.0)
    slope = (cum[rows, nxt] - yj) / dx
    max_cum = np.where(xj == horizon, yj, slope * (horizon - xj) + yj)
    # the segment holding the target: the last knot with cum <= target,
    # clamped to the last real segment
    idx = np.minimum((cum <= target[:, None]).sum(axis=1) - 1, np.maximum(count - 2, 0))
    rate = rates[rows, idx]
    step = (target - cum[rows, idx]) / np.where(rate > 0.0, rate, 1.0)
    t = knots[rows, idx] + np.where(rate > 0.0, step, 0.0)
    truncated = (target > max_cum) | (horizon == 0.0)
    return np.where(truncated, np.inf, np.minimum(t, horizon))
