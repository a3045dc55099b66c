"""Bundled synthetic inputs and the patient/life-table CSV formats."""

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhaz import datasets
from exhaz import lifetable as lt
from exhaz import netsurvival as ns
from exhaz import simulation as sim
from exhaz.baseline import PGWParams
from exhaz.inference import Dataset, ModelSpec, fit

from conftest import simulate_ph_cohort


@pytest.fixture(scope="module")
def synth_table():
    return datasets.synthetic_life_table()


@pytest.fixture(scope="module")
def lung(synth_table):
    return datasets.synthetic_lung_cohort(600, seed=5, table=synth_table)


def rate(table, age, year, sex):
    return float(table.rates_at(age, year, table.stratum_codes([(sex,)])[0]))


def csv_bytes(table, path):
    datasets.write_life_table_csv(path, table)
    return path.read_bytes()


class TestSyntheticLifeTable:
    def test_grid_is_complete(self, tmp_path, synth_table):
        assert len(csv_bytes(synth_table, tmp_path / "t.csv").splitlines()) == 1 + 100 * 10 * 2
        ages, years = (a.ravel() for a in np.meshgrid(np.arange(100), np.arange(2010, 2020)))
        codes = synth_table.stratum_codes([("0",), ("1",)])
        rates = np.concatenate([synth_table.rates_at(ages, years, c) for c in codes])
        assert synth_table.age_range == (0, 99)
        assert synth_table.year_range == (2010, 2019)
        assert synth_table.stratum_schema == ("sex",)
        assert np.all(rates > 0.0)

    def test_rate_structure(self, synth_table):
        young = rate(synth_table, 50, 2012, "0")
        old = rate(synth_table, 80, 2012, "0")
        assert old > young
        men = rate(synth_table, 70, 2012, "1")
        women = rate(synth_table, 70, 2012, "0")
        assert men / women == pytest.approx(1.28, rel=1e-12)
        later = rate(synth_table, 70, 2018, "0")
        assert later < women  # rates drift down over calendar time

    def test_deterministic(self, tmp_path):
        a = datasets.synthetic_life_table()
        b = datasets.synthetic_life_table()
        assert csv_bytes(a, tmp_path / "a.csv") == csv_bytes(b, tmp_path / "b.csv")

    def test_csv_round_trip(self, tmp_path, synth_table):
        path = tmp_path / "table.csv"
        datasets.write_life_table_csv(path, synth_table)
        loaded = lt.load_life_table(path)
        assert csv_bytes(loaded, tmp_path / "again.csv") == path.read_bytes()
        assert loaded.stratum_schema == synth_table.stratum_schema
        assert loaded.age_range == synth_table.age_range


class TestSyntheticLungCohort:
    def test_shapes_and_names(self, lung):
        assert lung.n == 600
        assert lung.x_names == ("agec", "imd", "stage2", "stage3", "stage4",
                                "cvd", "copd")
        assert lung.w_names == ("agec",)
        np.testing.assert_array_equal(lung.w[:, 0], lung.x[:, 0])
        assert set(lung.columns["stage"]) <= set(datasets.STAGE_LABELS)
        # Stage dummies agree with the label column (stage I = all zeros).
        dummies = lung.x[:, 2:5]
        labels = lung.columns["stage"]
        assert np.all((dummies.sum(axis=1) == 0) == (labels == "I"))

    def test_deterministic(self, synth_table):
        a = datasets.synthetic_lung_cohort(300, seed=9, table=synth_table)
        b = datasets.synthetic_lung_cohort(300, seed=9, table=synth_table)
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.x, b.x)
        c = datasets.synthetic_lung_cohort(300, seed=10, table=synth_table)
        assert not np.array_equal(a.time, c.time)

    def test_observation_window(self, lung):
        assert np.all(lung.time > 0.0)
        assert np.all(lung.time <= 5.0)
        assert 0.5 < lung.status.mean() < 0.95


class TestPatientCsv:
    def test_round_trip(self, tmp_path, lung):
        path = tmp_path / "cohort.csv"
        datasets.write_patient_csv(path, lung)
        loaded = datasets.load_patient_csv(path)
        np.testing.assert_array_equal(loaded.time, lung.time)
        np.testing.assert_array_equal(loaded.status, lung.status)
        assert loaded.x_names == lung.x_names
        np.testing.assert_array_equal(loaded.x, lung.x)
        np.testing.assert_array_equal(loaded.age, lung.age)
        np.testing.assert_array_equal(loaded.year, lung.year)
        np.testing.assert_array_equal(loaded.strata, lung.strata)
        assert loaded.stratum_names == lung.stratum_names
        assert list(loaded.columns["stage"]) == list(lung.columns["stage"])
        assert loaded.w.shape == (lung.n, 0)

    @pytest.mark.parametrize("names", [(), ("sex", "region")], ids=["none", "two"])
    def test_stratum_columns_round_trip_byte_for_byte(self, tmp_path, names):
        k = len(names)
        combos = [("1", "south"), ("1", "north"), ("0", "south"), ("0", "north")][::1 if k else 4]
        cells = [(a, y, combo[:k]) for a in (61, 60) for y in (2011, 2010) for combo in combos]
        table = lt.LifeTable.from_columns(*zip(*cells), 1e-3 * np.arange(1, len(cells) + 1),
                                          names)
        n = 7
        strata = np.array([["0", "north"], ["1", "south"], ["1", "north"], ["0", "south"],
                           ["0", "north"], ["1", "north"], ["1", "south"]])[:, :k]
        cohort = Dataset(time=np.linspace(0.5, 3.5, n), status=np.arange(n) % 2,
                         columns={"z": np.linspace(-1.0, 1.0, n)}, x_names=("z",),
                         w_names=(), age=np.full(n, 60.5), year=np.full(n, 2010.25),
                         strata=strata, stratum_names=names)
        for write, load, obj in ((datasets.write_life_table_csv, lt.load_life_table, table),
                                 (datasets.write_patient_csv, datasets.load_patient_csv, cohort)):
            write(tmp_path / "a.csv", obj)
            write(tmp_path / "b.csv", load(tmp_path / "a.csv"))
            assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        header = (tmp_path / "b.csv").read_text().splitlines()[0]
        assert header == ",".join(("time", "status", "z", "age", "year") + names)
        loaded = datasets.load_patient_csv(tmp_path / "b.csv")
        np.testing.assert_array_equal(loaded.strata, strata)
        np.testing.assert_array_equal(table.stratum_codes(loaded.strata),
                                      table.stratum_codes([tuple(row) for row in strata]))

    def test_fingerprints_are_pinned(self):
        # saved fit.json files carry the fingerprint of the cohort they were fitted on
        bundled = Path(__file__).resolve().parents[1] / "demos" / "data" / "lung_synthetic.csv"
        assert datasets.load_patient_csv(bundled).fingerprint() == "78bc681ded66bb46"
        no_strata = simulate_ph_cohort(50, PGWParams(1, 1, 1), np.array([0.1, 0.2]), 0.5, 3)
        assert no_strata.strata.shape == (50, 0)
        assert no_strata.fingerprint() == "13a9859443c213a5"

    def test_stream_source(self, tmp_path, lung):
        path = tmp_path / "cohort.csv"
        datasets.write_patient_csv(path, lung)
        with open(path, encoding="utf-8") as fh:
            loaded = datasets.load_patient_csv(fh)
        assert loaded.n == lung.n

    # whitespace, signed zero, digit separators, nan, overflow, underflow, a
    # subnormal and non-ASCII digits, all of which float() accepts
    EDGE_CELLS = (" 1.5", "-0", "1_000", "nan", "1e400", "-1e400", "1e-400",
                  "4.9e-324", "0.1", "+2 ", "\u0661\u0662")

    def test_columns_parse_as_float_bit_for_bit(self):
        got = lt._parse_column(self.EDGE_CELLS, float, AssertionError)
        want = np.array([float(c) for c in self.EDGE_CELLS])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_edge_cells_load_as_float_gives_them(self):
        text = ("time,status,z,age,year\n 1.5,1,-0,1_000,2012\n"
                "2,0,1e-400,61 ,+2013\n")
        loaded = datasets.load_patient_csv(io.StringIO(text))
        np.testing.assert_array_equal(loaded.time, [1.5, 2.0])
        assert np.signbit(loaded.x[0, 0]) and not np.signbit(loaded.x[1, 0])
        np.testing.assert_array_equal(loaded.age, [1000.0, 61.0])
        np.testing.assert_array_equal(loaded.year, [2012.0, 2013.0])

    @pytest.mark.parametrize("column", range(4))
    def test_unparsable_cell_is_named_with_its_row(self, column):
        name = ("time", "status", "age", "year")[column]
        cells = ["1", "1", "60", "2012"]
        cells[column] = " 6o "
        text = "time,status,age,year\n1,0,61,2012\n" + ",".join(cells) + "\n"
        with pytest.raises(datasets.DataFormatError) as exc:
            datasets.load_patient_csv(io.StringIO(text))
        assert str(exc.value) == f"row 3: column {name!r} is not numeric: ' 6o '"

    @pytest.mark.parametrize("text, message", [
        ("time,status,age,year\n1,1,60,2012\n\n2,0,nan,2012\n",
         "row 4: age must be finite, got nan"),
        ("time,status,age,year\n1,1,60,2012\n\n2,1,61\n", "row 4: expected 4 fields, got 3"),
        ("# cohort extract\ntime,status,age,year\n1,1,60,2012\n  # a note\n2,0,6o,2012\n",
         "row 5: column 'age' is not numeric: '6o'"),
        # a str array drops a trailing NUL, so sex '1\0' would read as '1'
        ("time,status,age,year,sex\n1,1,60,2012,0\n\n2,0,61,2012,1\x00\n",
         "row 4: NUL character"),
    ], ids=["blank-line", "blank-line-field-count", "comment-lines", "nul-label"])
    def test_errors_name_the_file_line_past_blank_and_comment_lines(self, text, message):
        with pytest.raises(datasets.DataFormatError) as exc:
            datasets.load_patient_csv(io.StringIO(text))
        assert str(exc.value) == message

    def test_comment_lines_are_skipped(self):
        plain = "time,status,age,year,sex\n1,1,60,2012,0\n2,0,61,2013,1\n"
        commented = ("# cohort extract\ntime,status,age,year,sex\n1,1,60,2012,0\n"
                     "   # a note\n2,0,61,2013,1\n#\n")
        a = datasets.load_patient_csv(io.StringIO(plain))
        b = datasets.load_patient_csv(io.StringIO(commented))
        for name in ("time", "status", "age", "year"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.strata, [["0"], ["1"]])
        np.testing.assert_array_equal(b.strata, a.strata)

    @pytest.mark.parametrize("header, name", [
        ("time,status,x,x,age,year", "x"),
        ("time,status,lab,x,lab,age,year", "lab"),
        ("time,status,age,year,sex,sex", "sex"),
        ("time,status,time,age,year", "time"),
    ], ids=["covariate", "label", "stratum", "required"])
    def test_repeated_column_name_is_refused_at_the_header(self, header, name):
        cell = {"time": "1", "status": "1", "age": "60", "year": "2012", "x": "0.5",
                "lab": "a", "sex": "0"}
        row = ",".join(cell[h] for h in header.split(","))
        with pytest.raises(datasets.DataFormatError) as exc:
            datasets.load_patient_csv(io.StringIO(f"{header}\n{row}\n{row}\n"))
        assert str(exc.value) == f"header names column {name!r} more than once"

    def test_covariate_may_share_its_name_with_a_stratum(self):
        # simulated cohorts carry sex both as a covariate and as the table's stratum
        text = "time,status,sex,age,year,sex\n1,1,1,60,2012,1\n2,0,0,61,2012,0\n"
        loaded = datasets.load_patient_csv(io.StringIO(text))
        assert loaded.x_names == ("sex",) and loaded.stratum_names == ("sex",)

    def test_a_label_column_before_a_numeric_one_keeps_its_place(self, tmp_path):
        # the writer put the x columns first, so stage moved behind z
        text = ("time,status,stage,z,age,year,sex\n0.5,1,I,0.5,60,2010,0\n"
                "1.25,0,IV,-2,61.5,2011,1\n")
        (tmp_path / "a.csv").write_text(text)
        loaded = datasets.load_patient_csv(tmp_path / "a.csv")
        assert list(loaded.columns) == ["stage", "z"] and loaded.x_names == ("z",)
        datasets.write_patient_csv(tmp_path / "b.csv", loaded)
        assert (tmp_path / "b.csv").read_text() == text

    def test_partially_numeric_column_becomes_labels(self):
        text = "time,status,z,age,year\n1.0,1,1.5,60,2012\n2.0,0,oops,61,2012\n"
        loaded = datasets.load_patient_csv(io.StringIO(text))
        assert loaded.x_names == ()
        assert list(loaded.columns["z"]) == ["1.5", "oops"]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "no rows"),
            ("time,status,age,year\n", "no data rows"),
            ("time,stat,age,year\n1,1,60,2012\n", "must start with 'time,status'"),
            ("time,status,agec,year\n1,1,0.1,2012\n", "missing the 'age'"),
            (
                "time,status,age,agec,year\n1,1,60,0.1,2012\n",
                "'year' column must directly follow 'age'",
            ),
            ("time,status,age,year\nabc,1,60,2012\n", "column 'time' is not numeric"),
            ("time,status,age,year\n1,2,60,2012\n", "row 2: status must be 0 or 1, got 2.0"),
            ("time,status,age,year\n1,1,60\n", "row 2: expected 4 fields, got 3"),
            ("time,status,age,year\n1,1,60,2012\n2,1,61\n", "row 3"),
            ("time,status,age,year\n-1,1,60,2012\n", "time"),
            ("time,status,age,year\n1,1,60,2012\n1,0,nan,2012\n",
             "row 3: age must be finite, got nan"),
            ("time,status,age,year\n1,1,60,inf\n", "row 2: year must be finite, got inf"),
            ("time,status,age,year\n1,1,60,2012\n2,0,1e400,2012\n",
             "row 3: age must be finite, got inf"),
            ("time,status,age,year\nnan,1,60,2012\n",
             "row 2: time must be positive and finite, got nan"),
            ("time,status,age,year\n1,1,60,2012\n-2,0,61,2012\n",
             "row 3: time must be positive and finite, got -2.0"),
            ("time,status,x,age,year\n1,1,0.5,60,2012\n2,0,inf,61,2012\n",
             "row 3: covariate 'x' must be finite, got inf"),
        ],
    )
    def test_malformed_inputs(self, text, match):
        with pytest.raises(datasets.DataFormatError, match=match):
            datasets.load_patient_csv(io.StringIO(text))


class TestCsvWriter:
    def test_cells_by_type(self, tmp_path):
        path = tmp_path / "t.csv"
        datasets.write_csv(path, ("label", "status", "value", "maybe"), [
            np.array(["a", "b", "c"], dtype=object),
            np.array([1, 0, 1], dtype=np.int8),
            np.array([0.1, np.inf, -np.inf]),
            [None, 2, 1.5],
        ])
        assert path.read_text(encoding="utf-8").splitlines() == [
            "label,status,value,maybe",
            "a,1,0.10000000000000001,",
            "b,0,inf,2",
            "c,1,-inf,1.5",
        ]

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        datasets.write_csv(path, ("a", "b"), [[1.0, 2.0], ["x", "y"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"a,b\n1,x\n2,y\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        datasets.write_csv(path, ("a", "b"), [np.empty(0), np.empty(0)])
        assert path.read_bytes() == b"a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            datasets.write_csv(tmp_path / "t.csv", ("a", "b"), [[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("header", [("a",), ("a", "b", "c")])
    def test_header_of_another_width_is_refused(self, tmp_path, header):
        # a file whose rows are wider or narrower than its header would not load
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"header names {len(header)} columns, got 2"):
            datasets.write_csv(path, header, [[1.0], [2.0]])
        assert not path.exists()

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_floats_round_trip_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        datasets.write_csv(path, ("array", "list"), [np.array(values), values])
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [float(a) for a, _ in rows] == values
        assert [float(b) for _, b in rows] == values


# Values that format to distinct cells although some compare equal (-0.0 and
# 0.0) or unequal to themselves (two NaN payloads), plus infinities, a
# subnormal and floats past 2**53.
_CELL_POOL = (
    -0.0, 0.0, np.nan, np.array([0x7FF8000000000001]).view(np.float64)[0],
    np.inf, -np.inf, 5e-324, 1e16, 1e17, 0.1, 2012.0,
)


def _assert_cells_match_each_value(path, columns):
    datasets.write_csv(path, [f"c{j}" for j in range(len(columns))], columns)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for j, col in enumerate(columns):
        cell = (lambda v: "%.17g" % float(v)) if col.dtype.kind == "f" else str
        assert [row[j] for row in rows] == [cell(v) for v in col.tolist()], col.dtype


class TestColumnCells:
    """A numeric column formats each distinct value once; every cell must
    still read exactly as that value formatted on its own."""

    @pytest.mark.parametrize("value", _CELL_POOL, ids=repr)
    def test_one_value_repeated(self, tmp_path, value):
        col = np.full(4, value)
        _assert_cells_match_each_value(tmp_path / "t.csv", [col, col.astype(np.float32)])

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, len(_CELL_POOL) - 1),
                                    st.sampled_from([-128, -1, 0, 1, 127])), max_size=40))
    def test_mixed_values(self, tmp_path_factory, picks):
        x = np.zeros((len(picks), 3))
        x[:, 1] = [_CELL_POOL[i] for i, _ in picks]
        ints = np.array([k for _, k in picks], dtype=np.int8)
        _assert_cells_match_each_value(tmp_path_factory.mktemp("csv") / "t.csv",
                                       [x[:, 1], x[:, 1].astype(np.float32), ints,
                                        ints.astype(np.uint64), x[:, 0]])


class TestStratumLabels:
    @pytest.mark.parametrize("columns", [
        [np.array([0.0, 1.0, 1.0, 0.0, 1.0])],
        [np.array([-3.0, 2.0, 7.0, 2.5, 3.5, -0.0, 0.9999999, 1e-9, 12.0])],
        [np.array([0.0, 1.0, 1.0]), np.array([4.0, 2.0, 4.0])],
        [np.array([1.0])],
        [np.array([]), np.array([])],
    ], ids=["binary", "integers", "two-columns", "one-row", "no-rows"])
    def test_labels_equal_rounding_each_value(self, columns):
        n = columns[0].size
        expected = [[str(int(round(col[i]))) for col in columns] for i in range(n)]
        labels = datasets._stratum_labels(np.column_stack(columns))
        assert labels.shape == (n, len(columns))
        assert labels.tolist() == expected

    def test_no_stratum_columns(self):
        assert datasets._stratum_labels(np.empty((3, 0))).shape == (3, 0)


class TestBundledData:
    def test_writes_expected_files(self, tmp_path):
        written = datasets.write_bundled_data(tmp_path)
        names = sorted(p.name for p in written)
        assert "lifetable_synthetic.csv" in names
        assert "lung_synthetic.csv" in names
        assert sum(n.endswith(".ini") for n in names) == 7
        assert all(p.exists() for p in written)

    def test_reruns_are_byte_identical(self, tmp_path):
        first = datasets.write_bundled_data(tmp_path / "a")
        second = datasets.write_bundled_data(tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_matches_checked_in_files(self, tmp_path):
        demos = Path(__file__).resolve().parents[1] / "demos"
        written = datasets.write_bundled_data(tmp_path)
        checked_in = sorted(p.relative_to(demos) for sub in ("data", "scenarios")
                            for p in (demos / sub).iterdir())
        assert sorted(p.relative_to(tmp_path) for p in written) == checked_in
        for rel in checked_in:
            assert (tmp_path / rel).read_bytes() == (demos / rel).read_bytes(), rel

    def test_scenarios_match_factories(self, tmp_path):
        written = {p.name: p for p in datasets.write_bundled_data(tmp_path)}
        assert sim.load_scenario(written["sc1.ini"]) == sim.sc1_scenario()
        assert sim.load_scenario(written["two_group_2.ini"]) == sim.two_group_scenario(2)
        null = sim.load_scenario(written["sc1_null.ini"])
        assert null.frailty_b == 0.0

    def test_bundled_inputs_load(self, tmp_path, synth_table):
        written = {p.name: p for p in datasets.write_bundled_data(tmp_path)}
        table = lt.load_life_table(written["lifetable_synthetic.csv"])
        assert csv_bytes(table, tmp_path / "a.csv") == csv_bytes(synth_table, tmp_path / "b.csv")
        cohort = datasets.load_patient_csv(written["lung_synthetic.csv"])
        assert cohort.n == 4000
        assert cohort.x_names == ("agec", "imd", "stage2", "stage3", "stage4",
                                  "cvd", "copd")


class TestStageSubgroupBands:
    def test_stage1_band_width_at_one_year(self, synth_table):
        # Registry-scale cohort: the 95% band for the best-prognosis stage
        # should be a few percentage points wide one year in.
        data = datasets.synthetic_lung_cohort(14_000, seed=2012, table=synth_table)
        res = fit(data, synth_table, ModelSpec("pgw", "gamma"))
        assert res.convergence.converged and res.se_valid
        grid = np.array([0.0, 1.0, 2.0])
        (curve,) = ns.net_survival_mc_ci(
            data, res, grid, [("stage=I", data.columns["stage"] == "I")], draws=400, seed=7,
        )
        width = curve.upper - curve.lower
        assert width[0] == 0.0
        assert 0.015 <= width[1] <= 0.045
        assert np.all(curve.lower <= curve.estimate + 1e-12)
        assert np.all(curve.estimate <= curve.upper + 1e-12)
