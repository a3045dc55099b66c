"""Life-table parsing, lookups, exact cumulative-hazard integration, sampling.

Derived oracle values frozen here: for a two-band table with rate 0.01 at
age 70 and 0.03 at age 71, a subject aged 70.5 accumulates 0.5*0.01 +
0.5*0.03 = 0.02 of background hazard over one year, and the inverse at
target 0.015 is t = 0.5 + (0.015-0.005)/0.03 = 5/6 (checked against a
root-find on the forward function).
"""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from exhaz import lifetable as lt

from conftest import build_table


@pytest.fixture(scope="module")
def banded_table():
    """Rates that change at every integer crossing, so draws traverse many bands."""
    return build_table(lambda a, y, s: 0.08 + 0.01 * ((a + y) % 5),
                       range(40, 101), range(2000, 2071), [()], ())


def two_band_table():
    return build_table(
        lambda a, y, s: {70: 0.01, 71: 0.03}.get(a, 0.05),
        range(70, 73),
        range(2010, 2016),
        [()],
        (),
    )


class TestLoader:
    def test_small_grid_parses(self):
        text = "\n".join(
            [
                "# synthetic mini table",
                "age,year,rate",
                "70,2010,0.01",
                "70,2011,0.02",
                "71,2010,0.03",
                "71,2011,0.04",
            ]
        )
        table = lt.load_life_table(io.StringIO(text))
        assert table.age_range == (70, 71)
        assert table.year_range == (2010, 2011)
        rates = table.rates_at(np.array([70, 70, 71, 71]), np.array([2010, 2011, 2010, 2011]),
                               table.stratum_codes([()])[0])
        np.testing.assert_array_equal(rates, [0.01, 0.02, 0.03, 0.04])

    def test_stratified_parse_and_lookup(self):
        text = "\n".join(
            [
                "age,year,sex,rate",
                "60,2010,0,0.010",
                "60,2010,1,0.008",
                "61,2010,0,0.012",
                "61,2010,1,0.009",
            ]
        )
        table = lt.load_life_table(io.StringIO(text))
        assert table.stratum_schema == ("sex",)
        key = lt.LifeTableKey(60.0, 2010.0, ("1",))
        assert lt.pop_hazard(table, key, 0.0) == 0.008

    def test_missing_cell_reports_key(self):
        text = "age,year,rate\n70,2010,0.01\n70,2011,0.02\n71,2010,0.03\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "incomplete grid: missing cell (71, 2011, ())"

    def test_negative_rate_reports_row(self):
        text = "age,year,rate\n70,2010,0.01\n70,2011,-0.01\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: negative or non-finite rate -0.01"

    def test_duplicate_key_reports_row(self):
        text = "age,year,rate\n70,2010,0.01\n70,2010,0.02\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: duplicate cell (70, 2010, ())"

    def test_malformed_row_reports_row(self):
        text = "age,year,rate\n70,2010,0.01\nseventy,2011,0.02\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: malformed numeric field in 'seventy,2011,0.02'"

    def test_wrong_field_count_reports_row(self):
        text = "age,year,rate\n70,2010,0.01,9\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 2: expected 3 fields, got 4"

    def test_nul_character_reports_row(self):
        # a str array drops a trailing NUL, so sex '1\0' would read as '1'
        text = "age,year,sex,rate\n70,2010,0,0.01\n70,2010,1\x00,0.02\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: NUL character"

    def test_bad_header(self):
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO("age,rate\n70,0.01\n"))
        assert str(exc.value) == (
            "row 1: header must be 'age,year,<stratum columns...>,rate', got 'age,rate'")

    def test_empty_file(self):
        for text in ("# nothing here\n", "age,year,rate\n"):
            with pytest.raises(lt.LifeTableError) as exc:
                lt.load_life_table(io.StringIO(text))
            assert str(exc.value) == "life-table file contains no data rows"

    def test_blank_and_comment_lines_keep_file_line_numbers(self):
        text = "# exported table\nage,year,rate\n70,2010,0.01\n\n  # a note\n71,2010,-0.5\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 6: negative or non-finite rate -0.5"

    # whitespace, a sign, a digit separator and non-ASCII digits, all of
    # which int() and float() accept
    EDGE_INTS = (" 70", "+71", "1_0", "\u0667\u0660")

    def test_int_columns_parse_as_int_bit_for_bit(self):
        got = lt._parse_column(self.EDGE_INTS, np.int64, AssertionError)
        assert got.dtype == np.int64
        assert got.tolist() == [int(c) for c in self.EDGE_INTS]

    @pytest.mark.parametrize("cell", EDGE_INTS)
    def test_edge_cells_load_as_int_and_float_give_them(self, cell):
        table = lt.load_life_table(["age,year,rate\n", f"{cell},{cell},{cell}\n"])
        assert table.age_range == table.year_range == (int(cell), int(cell))
        assert table._grid.tobytes() == np.float64(float(cell)).tobytes()

    def test_fractional_age_is_refused_naming_its_row(self):
        text = "age,year,rate\n70,2010,0.01\n70.5,2011,0.02\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: malformed numeric field in '70.5,2011,0.02'"

    def test_padded_stratum_value_is_the_same_cell(self):
        text = "age,year,sex,rate\n70,2010, 0 ,0.01\n70,2010,0,0.02\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "row 3: duplicate cell (70, 2010, ('0',))"

    def test_huge_age_span_names_the_missing_cell_without_allocating(self):
        # the grid this would need (7 PiB) used to be allocated before the
        # hole was found, so the loader raised MemoryError
        text = "age,year,rate\n0,2010,0.01\n1000000000000000,2010,0.01\n"
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "incomplete grid: missing cell (1, 2010, ())"

    def test_wide_age_span_allocates_no_grid(self):
        import tracemalloc

        text = "age,year,rate\n0,2010,0.01\n10000000,2010,0.01\n"
        tracemalloc.start()
        try:
            with pytest.raises(lt.LifeTableError, match=r"missing cell \(1, 2010, \(\)\)"):
                lt.load_life_table(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 10**7-band grid would take 80 MB

    def test_first_missing_cell_in_grid_order(self):
        # rows out of order; the hole is the first absent (age, year, stratum)
        rows = [(a, y, s) for a in (71, 70) for y in (2011, 2010) for s in ("b", "a")]
        rows.remove((71, 2010, "a"))
        rows.remove((70, 2011, "b"))
        text = "age,year,sex,rate\n" + "".join(f"{a},{y},{s},0.01\n" for a, y, s in rows)
        with pytest.raises(lt.LifeTableError) as exc:
            lt.load_life_table(io.StringIO(text))
        assert str(exc.value) == "incomplete grid: missing cell (70, 2011, ('b',))"

    def test_from_columns_equals_the_table_loaded_from_its_csv(self):
        # two stratum columns whose values come in unsorted order, and the
        # rows shuffled: the codes still follow each column's sorted values
        cells = [(a, y, (sex, region)) for a in (41, 40) for y in (2001, 2000, 2002)
                 for sex in ("1", "0") for region in ("north", "east", "south")]
        order = np.random.default_rng(3).permutation(len(cells))
        cells = [cells[i] for i in order]
        rates = [0.001 * (a - 39) + 1e-4 * (y - 2000) + 1e-5 * len(r[1]) + 1e-6 * int(r[0])
                 for a, y, r in cells]
        built = lt.LifeTable.from_columns(*zip(*cells), rates, ("sex", "region"))
        text = "age,year,sex,region,rate\n" + "".join(
            f"{a},{y},{s},{r},{rate!r}\n" for (a, y, (s, r)), rate in zip(cells, rates))
        loaded = lt.load_life_table(io.StringIO(text))
        for table in (built, loaded):
            assert table.age_range == (40, 41) and table.year_range == (2000, 2002)
            assert table.stratum_schema == ("sex", "region")
            codes = np.arange(6)
            assert table.stratum_labels(codes).tolist() == [
                [s, r] for s in ("0", "1") for r in ("east", "north", "south")]
            np.testing.assert_array_equal(table.stratum_codes(table.stratum_labels(codes)), codes)
        assert built._grid.tobytes() == loaded._grid.tobytes()
        for (a, y, strat), rate in zip(cells, rates):
            assert built.rates_at(a, y, built.stratum_codes([strat])[0]) == rate

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([], [], [], []), "life table has no entries"),
            (([70, 71], [2010, 2010], [("0",), ("0", "x")], [0.01, 0.02]),
             "row 2: stratum ('0', 'x') does not match schema ('sex',)"),
            (([70, 71], [2010, 2010], [("0",), ("0",)], [0.01, -1.0]),
             "row 2: negative or non-finite rate -1.0"),
            (([70, 71, 70], [2010, 2010, 2010], [("0",)] * 3, [0.01, 0.02, 0.03]),
             "row 3: duplicate cell (70, 2010, ('0',))"),
            # numpy's str dtype drops a trailing NUL, which made 'a\0' a duplicate of 'a'
            (([70, 70], [2010, 2010], [("a",), ("a\x00",)], [0.01, 0.02]),
             "row 2: sex label 'a\\x00' has a NUL character"),
        ],
        ids=["empty", "stratum-width", "negative-rate", "duplicate", "nul-label"],
    )
    def test_from_columns_names_the_bad_entry(self, columns, message):
        with pytest.raises(lt.LifeTableError) as exc:
            lt.LifeTable.from_columns(*columns, stratum_schema=("sex",))
        assert str(exc.value) == message


class TestStratumCodes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(0, 3))
    def test_codes_follow_the_mixed_radix_rule(self, data, k):
        label = st.text(alphabet="01ab _", min_size=1, max_size=3)
        domains = [sorted(data.draw(st.sets(label, min_size=1, max_size=3))) for _ in range(k)]
        combos = list(itertools.product(*domains))
        cells = data.draw(st.permutations(combos))
        table = lt.LifeTable.from_columns([70] * len(cells), [2010] * len(cells), cells,
                                          [1e-3 * (1 + combos.index(c)) for c in cells],
                                          [f"s{j}" for j in range(k)])
        rows = data.draw(st.lists(st.sampled_from(combos), min_size=1, max_size=20))

        def reference(row):  # sorted labels per column, the first column most significant
            code = 0
            for domain, value in zip(domains, row):
                code = code * len(domain) + domain.index(value)
            return code

        codes = table.stratum_codes(rows)
        assert codes.tolist() == [reference(row) for row in rows]
        np.testing.assert_array_equal(table.stratum_codes(np.array(rows, dtype=str)
                                                          .reshape(len(rows), k)), codes)
        assert table.stratum_labels(codes).tolist() == [list(row) for row in rows]
        assert table.rates_at(70, 2010, codes).tolist() == [1e-3 * (1 + c) for c in codes]
        if k:
            i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, k - 1))
            rows[i] = rows[i][:j] + ("Z",) + rows[i][j + 1:]
            with pytest.raises(lt.LifeTableError) as exc:
                table.stratum_codes(rows)
            assert str(exc.value) == (f"record {i} (0-based): s{j} 'Z' is not a stratum label "
                                      f"of the life table (labels {', '.join(domains[j])})")


    def test_nul_in_a_label_is_refused(self, sex_table):
        # numpy's str dtype would drop the trailing NUL and code sex '1'
        with pytest.raises(lt.LifeTableError) as exc:
            sex_table.stratum_codes([("0",), ("1\x00",)])
        assert str(exc.value) == "record 1 (0-based): sex label '1\\x00' has a NUL character"


class TestPopHazard:
    def test_floor_arithmetic(self):
        # age 70.2 + 0.9 = 71.1 -> band 71; year 2012.0 + 0.9 -> band 2012
        table = build_table(
            lambda a, y, s: 0.001 * a + 1e-6 * (y - 2010),
            range(69, 75),
            range(2010, 2016),
            [()],
            (),
        )
        key = lt.LifeTableKey(70.2, 2012.0)
        expected = 0.001 * 71 + 1e-6 * (2012 - 2010)
        assert lt.pop_hazard(table, key, 0.9) == pytest.approx(expected, rel=1e-14)

    def test_clamping_beyond_max_age(self):
        table = build_table(lambda a, y, s: 0.001 * a, range(70, 73), range(2010, 2012), [()], ())
        key = lt.LifeTableKey(72.5, 2010.0)
        # age 72.5 + 4 = 76.5 clamps to band 72
        assert lt.pop_hazard(table, key, 4.0) == pytest.approx(0.072, rel=1e-14)

    def test_constant_table(self, flat_table):
        key = lt.LifeTableKey(40.0, 2005.0)
        t = np.linspace(0.0, 30.0, 7)
        np.testing.assert_allclose(lt.pop_hazard(flat_table, key, t), 0.02)

    def test_unknown_stratum(self, sex_table):
        with pytest.raises(lt.LifeTableError, match="stratum"):
            lt.pop_hazard(sex_table, lt.LifeTableKey(60.0, 2010.0, ("2",)), 1.0)


class TestPopCumHazard:
    def test_constant_rate(self, flat_table):
        key = lt.LifeTableKey(40.0, 2005.0)
        assert lt.pop_cum_hazard(flat_table, key, 5.0) == pytest.approx(0.1, rel=1e-14)
        assert lt.pop_cum_hazard(flat_table, key, 0.0) == 0.0

    def test_two_band_oracle(self):
        table = two_band_table()
        key = lt.LifeTableKey(70.5, 2012.0)
        assert lt.pop_cum_hazard(table, key, 1.0) == pytest.approx(0.02, abs=1e-15)

    def test_matches_riemann_sum(self, sex_table):
        rng = np.random.default_rng(10)
        for _ in range(5):
            key = lt.LifeTableKey(
                rng.uniform(40, 90), rng.uniform(2009, 2018), (str(rng.integers(2)),)
            )
            t = rng.uniform(0.5, 8.0)
            grid = np.linspace(0.0, t, 40001)
            mids = (grid[:-1] + grid[1:]) / 2
            riemann = float(np.sum(lt.pop_hazard(sex_table, key, mids)) * (grid[1] - grid[0]))
            # midpoint rule is exact except in cells straddling a band knot
            assert lt.pop_cum_hazard(sex_table, key, t) == pytest.approx(riemann, rel=1e-4)

    def test_piecewise_linear_derivative(self, sex_table):
        # at band interiors d/dt pop_cum_hazard = pop_hazard
        key = lt.LifeTableKey(63.3, 2011.2, ("0",))
        h = 1e-7
        for t in [0.25, 1.4, 2.55, 3.35]:
            fd = (
                lt.pop_cum_hazard(sex_table, key, t + h)
                - lt.pop_cum_hazard(sex_table, key, t - h)
            ) / (2 * h)
            assert fd == pytest.approx(float(lt.pop_hazard(sex_table, key, t)), rel=1e-8)

    def test_monotone_vectorised(self, sex_table):
        key = lt.LifeTableKey(77.7, 2013.4, ("1",))
        t = np.linspace(0.0, 40.0, 500)  # extends past table coverage
        vals = lt.pop_cum_hazard(sex_table, key, t)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_beyond_coverage_uses_clamped_rate(self):
        table = two_band_table()  # ages 70-72, years 2010-2015, rate 0.05 at 72
        key = lt.LifeTableKey(72.0, 2015.0)
        # both dimensions exhausted after 1 year; constant 0.05 thereafter
        v2 = lt.pop_cum_hazard(table, key, 2.0)
        v5 = lt.pop_cum_hazard(table, key, 5.0)
        assert v5 - v2 == pytest.approx(0.05 * 3.0, rel=1e-12)


def steep_table():
    """Rate 0.5 over ages 0-59 and years 2000-2059: draws end well inside coverage."""
    return build_table(lambda a, y, s: 0.5, range(0, 60), range(2000, 2060), [()], ())


def one_time(table, key, u):
    """Other-cause time of one subject, by a one-row call of the sampler."""
    return lt.sample_other_cause_time(table, [key.age], key.year, [key.stratum], [u])[0]


# Frozen draws, as float.hex so that a change in the last bit shows.  Each row:
# table ("sex" is the sex_table fixture), age, year, stratum, u, time.  They
# cover an integer age (age and year knots coincide), fractional years, ages
# below 1, horizon 0 (age or year past the table), truncated draws (+inf), u
# near 0 and near 1, and both strata.  The two rows aged about 0.005 move by one
# ulp if knots are built as first + i instead of np.arange's fill, or if the
# target uses np.log1p instead of math.log1p.
PINNED_DRAWS = [
    ("sex", 70.0, 2012.0, ("0",), 0.05, "0x1.1e3443d4dd45cp+2"),
    ("sex", 70.0, 2012.0, ("1",), 0.05, "0x1.4800d2ebdfa59p+2"),
    ("sex", 63.3, 2011.2, ("1",), 0.05, "0x1.f3942f12d0645p+2"),
    ("sex", 55.7, 2009.6, ("1",), 1e-12, "0x1.b18b3f260f7c0p-32"),
    ("sex", 0.3, 2008.9, ("0",), 0.01, "0x1.419c59ef935bbp+2"),
    ("sex", 98.6, 2010.4, ("1",), 0.1, "0x1.42ac3a9a1cfc8p+0"),
    ("sex", 81.0, 2013.37, ("0",), 0.1, "0x1.f446d036123acp+1"),
    ("sex", 100.5, 2012.0, ("0",), 0.5, "inf"),
    ("sex", 60.0, 2020.5, ("1",), 0.5, "inf"),
    ("sex", 85.25, 2015.0, ("0",), 0.999, "inf"),
    ("sex", 0.004776, 2008.9, ("0",), 0.008436, "0x1.0f18dbaf8c384p+2"),
    ("steep", 0.005167, 2003.25, (), 0.287835, "0x1.5b97a426f4a0ap-1"),
    ("steep", 12.4, 2000.0, (), 0.999999999, "0x1.4b927f3a57808p+5"),
    ("steep", 0.7, 2003.25, (), 0.6, "0x1.d5240f0e0e077p+0"),
    ("steep", 12.4, 2000.0, (), 0.9999999999999999, "inf"),
]


class TestSampleOtherCause:
    def test_pinned_draws(self, sex_table):
        tables = {"sex": sex_table, "steep": steep_table()}
        for name, age, year, stratum, u, expected in PINNED_DRAWS:
            t = one_time(tables[name], lt.LifeTableKey(age, year, stratum), u)
            assert t.hex() == expected, (name, age, year, stratum, u)

    def test_exponential_inversion(self, flat_table):
        key = lt.LifeTableKey(40.0, 2005.0)
        u = 1.0 - math.exp(-0.1)  # target -log(1-u) = 0.1 under r = 0.02
        assert one_time(flat_table, key, u) == pytest.approx(5.0, rel=1e-12)

    def test_two_band_oracle(self):
        table = two_band_table()
        key = lt.LifeTableKey(70.5, 2012.0)
        u = 1.0 - math.exp(-0.015)
        assert one_time(table, key, u) == pytest.approx(5.0 / 6.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(age=st.floats(45.0, 55.0), year=st.floats(2005.0, 2015.0),
           u=st.floats(1e-6, 0.97))
    def test_round_trip(self, banded_table, age, year, u):
        # coverage of at least 46 years at rates >= 0.08 holds a cumulative
        # hazard above -log(0.03), so no target here is truncated
        key = lt.LifeTableKey(age, year)
        t = one_time(banded_table, key, u)
        assert math.isfinite(t)
        back = float(lt.pop_cum_hazard(banded_table, key, t))
        assert back == pytest.approx(-math.log1p(-u), rel=1e-10, abs=1e-12)

    def test_truncation_flag(self):
        table = build_table(lambda a, y, s: 0.001, range(70, 72), range(2010, 2012), [()], ())
        key = lt.LifeTableKey(70.0, 2010.0)
        # target ~6.9 >> the min(72-70, 2012-2010) = 2 years of coverage
        assert one_time(table, key, 0.999) == math.inf
        assert one_time(table, key, 0.001) < 2.0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           year=st.floats(2005.0, 2021.0))
    def test_many_subjects_match_one_at_a_time(self, sex_table, n, seed, year):
        # n beyond the 1,024-row sampling block crosses a block edge; ages and
        # years run past the table, so truncated draws (+inf) and horizon-0
        # subjects are included
        rng = np.random.default_rng(seed)
        ages = rng.uniform(0.0, 105.0, n)
        ages[::7] = np.floor(ages[::7])
        strata = [(str(v),) for v in rng.integers(0, 2, n)]
        u = rng.random(n)
        times = lt.sample_other_cause_time(sex_table, ages, year, strata, u)
        one = [lt.sample_other_cause_time(sex_table, ages[i:i + 1], year, strata[i:i + 1],
                                          u[i:i + 1])[0] for i in range(n)]
        assert times.tobytes() == np.array(one).tobytes()

    def test_empirical_distribution_constant_rate(self):
        # rate 0.5 over 60 years of coverage: cumulative hazard reaches 30,
        # so no uniform draw from a 53-bit generator can hit the horizon
        table = steep_table()
        rng = np.random.default_rng(12)
        n = 100_000
        draws = lt.sample_other_cause_time(table, np.zeros(n), 2000.0, [()] * n,
                                           rng.uniform(1e-12, 1.0, size=n))
        stat = stats.kstest(draws, lambda x: 1.0 - np.exp(-0.5 * x)).statistic
        crit_1pct = 1.63 / math.sqrt(draws.size)
        assert stat < crit_1pct

    def test_u_domain(self, flat_table):
        key = lt.LifeTableKey(40.0, 2005.0)
        for bad in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                one_time(flat_table, key, bad)
        with pytest.raises(ValueError, match="strictly inside"):
            lt.sample_other_cause_time(flat_table, [40.0, 41.0], 2005.0, [(), ()], [0.5, 1.0])
