"""Command-line interface: outputs, exit codes, determinism, ambiguity rules."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from exhaz import cli, datasets
from exhaz import netsurvival as ns
from exhaz.inference import FitResult
from exhaz import simulation as sim


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small cohort + life table on disk, plus two saved fits."""
    root = tmp_path_factory.mktemp("cli-inputs")
    table = datasets.synthetic_life_table()
    cohort = datasets.synthetic_lung_cohort(500, seed=5, table=table)
    data_csv = root / "cohort.csv"
    table_csv = root / "table.csv"
    datasets.write_patient_csv(data_csv, cohort)
    datasets.write_life_table_csv(table_csv, table)

    fits = {}
    for name, frailty in (("classical", "none"), ("frailty", "gamma")):
        out = root / f"fit-{name}"
        code = cli.main([
            "fit", "--data", str(data_csv), "--lifetable", str(table_csv),
            "--baseline", "pgw", "--frailty", frailty,
            "--x", "agec,imd,stage2,stage3,stage4,cvd,copd", "--w", "agec",
            "--label", name, "--out", str(out),
        ])
        assert code == 0
        fits[name] = out
    return {"data": data_csv, "table": table_csv, "fits": fits, "root": root}


class TestFit:
    def test_outputs(self, inputs):
        out = inputs["fits"]["frailty"]
        lines = (out / "estimates.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,estimate,std_error,ci_lower,ci_upper"
        assert len(lines) == 1 + 12  # 3 baseline + 1 alpha + 7 beta + b
        payload = json.loads((out / "fit.json").read_text())
        assert payload["frailty"] == "gamma"
        assert payload["converged"] is True
        summary = (out / "summary.txt").read_text()
        assert "AIC" in summary and "b" in summary

    def test_invalid_standard_errors_leave_cells_empty(self, inputs, tmp_path):
        payload = json.loads((inputs["fits"]["frailty"] / "fit.json").read_text())
        res = dataclasses.replace(FitResult.from_json_dict(payload), covariance=None)
        path = tmp_path / "estimates.csv"
        cli._estimates_csv(path, res, 0.95)
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "parameter,estimate,std_error,ci_lower,ci_upper"
        assert lines[-1] == "" and len(lines) == 2 + len(res.natural_names)
        for line, name, value in zip(lines[1:], res.natural_names, res.natural_estimates()):
            cells = line.split(",")
            assert cells[0] == name and float(cells[1]) == value
            assert cells[2:] == ["", "", ""]

    def test_missing_column_exit_code(self, inputs, tmp_path, capsys):
        code = cli.main([
            "fit", "--data", str(inputs["data"]), "--lifetable", str(inputs["table"]),
            "--x", "agec,bogus", "--w", "agec", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "bogus" in capsys.readouterr().err

    def test_stratum_column_must_match_the_table(self, inputs, tmp_path, capsys):
        lines = inputs["data"].read_text().splitlines(True)
        assert lines[0].rstrip("\n").endswith(",sex")
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(lines[0].replace(",sex\n", ",region\n") + "".join(lines[1:]))
        code = cli.main([
            "fit", "--data", str(renamed), "--lifetable", str(inputs["table"]),
            "--x", "agec", "--w", "agec", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "('region',) do not match the life table's stratum schema ('sex',)" in (
            capsys.readouterr().err)

    def test_rerun_is_byte_identical(self, inputs, tmp_path):
        args = [
            "fit", "--data", str(inputs["data"]), "--lifetable", str(inputs["table"]),
            "--frailty", "gamma",
            "--x", "agec,imd,stage2,stage3,stage4,cvd,copd", "--w", "agec",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        for name in ("estimates.csv", "fit.json", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCompare:
    def test_ranking(self, inputs, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main([
            "compare",
            str(inputs["fits"]["classical"] / "fit.json"),
            str(inputs["fits"]["frailty"] / "fit.json"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[0].startswith("rank,label,")
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[6]) <= float(second[6])  # AIC ascending
        assert float(first[7]) == 0.0

    def test_mixed_datasets_rejected(self, inputs, tmp_path, capsys):
        other_csv = tmp_path / "other.csv"
        table = datasets.synthetic_life_table()
        datasets.write_patient_csv(
            other_csv, datasets.synthetic_lung_cohort(300, seed=8, table=table)
        )
        out = tmp_path / "otherfit"
        assert cli.main([
            "fit", "--data", str(other_csv), "--lifetable", str(inputs["table"]),
            "--x", "agec", "--w", "agec", "--out", str(out),
        ]) == 0
        code = cli.main([
            "compare", str(out / "fit.json"),
            str(inputs["fits"]["frailty"] / "fit.json"),
            "--out", str(tmp_path / "cmp2"),
        ])
        assert code == 3
        assert "different datasets" in capsys.readouterr().err


class TestNetsurv:
    def test_reuse_matches_refit(self, inputs, tmp_path):
        reuse, refit = tmp_path / "reuse", tmp_path / "refit"
        assert cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:11", "--out", str(reuse),
        ]) == 0
        assert cli.main([
            "netsurv", "--data", str(inputs["data"]), "--lifetable", str(inputs["table"]),
            "--frailty", "gamma",
            "--x", "agec,imd,stage2,stage3,stage4,cvd,copd", "--w", "agec",
            "--grid", "0:5:11", "--out", str(refit),
        ]) == 0
        assert (reuse / "curve_population.csv").read_bytes() == (
            refit / "curve_population.csv"
        ).read_bytes()

    def test_subgroups_and_bands(self, inputs, tmp_path):
        out = tmp_path / "bands"
        code = cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:6", "--draws", "150", "--seed", "11",
            "--by", "stage", "--out", str(out),
        ])
        assert code == 0
        assert (out / "curve_population.csv").exists()
        for label in ("I", "II", "III", "IV"):
            path = out / f"curve_stage-{label}.csv"
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "time,estimate,lower,upper"
            first = lines[1].split(",")
            assert float(first[1]) == 1.0  # survival starts at 1
        combined = (out / "curves.csv").read_text().strip().splitlines()
        assert combined[0] == "label,model,time,estimate,lower,upper"
        assert len(combined) == 1 + 5 * 6
        # bands bracket the estimate
        for line in combined[1:]:
            parts = line.split(",")
            est, lo, hi = float(parts[3]), float(parts[4]), float(parts[5])
            assert lo <= est + 1e-12 and est <= hi + 1e-12

    def test_band_rerun_is_byte_identical(self, inputs, tmp_path):
        args = [
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:6", "--draws", "150", "--seed", "11",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    @pytest.mark.parametrize("draws", ["-5", "50"])
    def test_band_draws_out_of_range_are_an_input_error(self, inputs, tmp_path, capsys, draws):
        # a negative count used to write unbanded curves and exit 0
        code = cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--draws", draws, "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert f"draws must be 0 (no bands) or at least 100, got {draws}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o" / "curves.csv").exists()

    def test_seed_required_for_bands(self, inputs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "netsurv", "--data", str(inputs["data"]),
                "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
                "--draws", "200", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_fit_flag_conflicts_with_model_flags(self, inputs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "netsurv", "--data", str(inputs["data"]),
                "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
                "--baseline", "pgw", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_saved_fit_on_another_cohort_warns(self, inputs, tmp_path, capsys):
        other = tmp_path / "other.csv"
        cohort = datasets.synthetic_lung_cohort(300, seed=6,
                                                table=datasets.synthetic_life_table())
        datasets.write_patient_csv(other, cohort)
        fit_json = inputs["fits"]["frailty"] / "fit.json"
        args = ["netsurv", "--fit", str(fit_json), "--grid", "0:5:6"]
        assert cli.main(args + ["--data", str(inputs["data"]),
                                "--out", str(tmp_path / "same")]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(args + ["--data", str(other), "--out", str(tmp_path / "other")]) == 0
        err = capsys.readouterr().err
        saved = json.loads(fit_json.read_text())["data_fingerprint"]
        assert err.startswith("warning:")
        assert saved in err and cohort.fingerprint() in err and saved != cohort.fingerprint()
        written = sorted(p.name for p in (tmp_path / "other").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "same").iterdir())

    def test_unbanded_curves_leave_band_cells_empty(self, inputs, tmp_path):
        out = tmp_path / "plain"
        assert cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["classical"] / "fit.json"),
            "--grid", "0:5:6", "--by", "cvd", "--out", str(out),
        ]) == 0
        lines = (out / "curve_population.csv").read_text().splitlines()
        assert lines[0] == "time,estimate" and len(lines) == 7
        combined = (out / "curves.csv").read_text().splitlines()
        assert len(combined) == 1 + 3 * 6
        for line in combined[1:]:
            label, model, t, est, lo, hi = line.split(",")
            assert lo == hi == "" and 0.0 <= float(est) <= 1.0

    def test_subgroups_sharing_a_file_name_are_refused(self, inputs, tmp_path, capsys):
        # "I I" and "I-I" both give curve_stage-I-I.csv: one curve used to
        # overwrite the other, and the command exited 0
        data = tmp_path / "slugs.csv"
        data.write_text(inputs["data"].read_text().replace(",II,", ",I I,")
                        .replace(",III,", ",I-I,"))
        code = cli.main([
            "netsurv", "--data", str(data),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:6", "--by", "stage", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert ("subgroups 'stage=I I' and 'stage=I-I' would both be written to "
                "curve_stage-I-I.csv") in err
        assert not (tmp_path / "o").exists()

    def test_numeric_values_equal_to_six_digits_get_distinct_labels(self, inputs, tmp_path):
        # both values print as 0.123456 with :g, so their curves used to share
        # a label and a file name, and the command exited 3
        lines = inputs["data"].read_text().splitlines()[:61]
        col = lines[0].split(",").index("imd")
        values = ("0.1234561", "0.1234564", "0.5")
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[col] = values[i % 3]
            lines[i] = ",".join(cells)
        data = tmp_path / "imd.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = cli.main([
            "netsurv", "--data", str(data),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:1:3", "--by", "imd", "--out", str(out),
        ])
        assert code == 0
        assert sorted(p.name for p in out.glob("curve_*.csv")) == [
            "curve_imd-0.1234561.csv", "curve_imd-0.1234564.csv", "curve_imd-0.5.csv",
            "curve_population.csv"]
        labels = [row.split(",")[0] for row in (out / "curves.csv").read_text().splitlines()]
        assert sorted(set(labels[1:])) == ["imd=0.1234561", "imd=0.1234564", "imd=0.5",
                                           "population"]

    def test_bad_grid_is_schema_error(self, inputs, tmp_path, capsys):
        code = cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "grid" in capsys.readouterr().err

    def test_non_finite_grid_is_schema_error(self, inputs, tmp_path, capsys):
        # a nan start used to write nan rows to curves.csv and exit 0
        code = cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "nan:1:5", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "grid 'nan:1:5': start is nan" in capsys.readouterr().err
        assert not (tmp_path / "o" / "curves.csv").exists()

    def test_rejected_draws_reported_on_stderr(self, inputs, tmp_path, capsys, monkeypatch):
        args = [
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:6", "--draws", "100", "--seed", "11",
        ]
        assert cli.main(args + ["--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        real = ns._fill_draws

        def poison(x, w, grid, rows, params, dest, work, draw_ids):
            # the second draw of the first batch, which holds all 100
            real(x, w, grid, rows, params, dest, work, draw_ids)
            if len(params) == 100 and 1 in draw_ids:
                dest[1] = np.nan

        monkeypatch.setattr(ns, "_fill_draws", poison)
        assert cli.main(args + ["--out", str(tmp_path / "poisoned")]) == 0
        assert "rejected 1 of 101 parameter draws" in capsys.readouterr().err
        assert (tmp_path / "poisoned" / "curves.csv").exists()


class TestGridParsing:
    def test_accepts_start_stop_count(self):
        np.testing.assert_allclose(cli._parse_grid("0:5:11"), np.linspace(0, 5, 11))

    @pytest.mark.parametrize("text", ["0:5", "a:b:c", "2:1:5", "-1:5:3", "0:5:1", "0:inf:5"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            cli._parse_grid(text)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "small.ini"
    sim.save_scenario(path, sim.sc1_scenario(n=120, M=3, seed=2024))
    return path


class TestSimulate:
    def test_writes_cohort(self, scenario_file, tmp_path):
        out = tmp_path / "rep1"
        code = cli.main([
            "simulate", "--scenario", str(scenario_file),
            "--replicate", "1", "--out", str(out),
        ])
        assert code == 0
        cohort = datasets.load_patient_csv(out / "cohort.csv")
        assert cohort.n == 120
        assert set(np.unique(cohort.status)) <= {0, 1}
        assert cohort.x_names == ("agec", "sex", "x1", "x2")

    def test_rerun_is_byte_identical(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--scenario", str(scenario_file), "--replicate", "2"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()

    def test_bundled_scenario_cohort_bytes_are_pinned(self, tmp_path):
        # pinned, so that no rewrite of the sampler, the stratum labels or
        # the CSV writer can change a byte of a simulated cohort
        scenario = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "sc1_small.ini"
        assert cli.main(["simulate", "--scenario", str(scenario), "--replicate", "0",
                         "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "cohort.csv").read_bytes()).hexdigest() == (
            "a26dbe162bbf50f7d2aa1b2506e4dd7943da9acbd33a4c08612f5bfae3248d44")

    def test_replicate_out_of_range(self, scenario_file, tmp_path, capsys):
        code = cli.main([
            "simulate", "--scenario", str(scenario_file),
            "--replicate", "3", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "replicate index" in capsys.readouterr().err

    def test_incomplete_scenario_file_is_an_input_error(self, scenario_file, tmp_path,
                                                         capsys):
        cut = tmp_path / "cut.ini"
        cut.write_text("".join(line for line in scenario_file.read_text().splitlines(True)
                               if not line.startswith("n = ")))
        code = cli.main(["simulate", "--scenario", str(cut), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[scenario] is missing key 'n'" in capsys.readouterr().err

    def test_follow_up_past_the_life_table_is_an_input_error(self, tmp_path, capsys):
        for year, message in (
            (2018.0, "year 2018 + admin_censor 5 outlives the life table's coverage 2010-2020"),
            (2005.0, "year 2005 precedes the life table's coverage 2010-2020"),
        ):
            path = tmp_path / f"y{year:g}.ini"
            sim.save_scenario(path, dataclasses.replace(sim.sc1_scenario(n=120, M=1),
                                                        year=year))
            code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == 3
            assert message in capsys.readouterr().err
            assert not (tmp_path / "o" / "cohort.csv").exists()

    def test_retired_two_group_layout_is_an_input_error(self, tmp_path, capsys):
        old = tmp_path / "old.ini"
        old.write_text(
            "[scenario]\nkind = aim2\nname = two-group-2\nn = 800\nreplicates = 1\n"
            "seed = 606\nadmin_censor = 5.0\nyear = 2012.0\ndropout_rate = auto\n"
            "life_table = builtin:synthetic\ncensoring_target = 0.65\n\n"
            "[age]\nbounds = 30.0:65.0, 65.0:75.0, 75.0:85.0\nprobs = 0.25, 0.35, 0.4\n\n"
            "[groups]\np_sex1 = 0.6\np_x1_sex1 = 0.8\np_x1_sex0 = 0.4\n\n"
            "[truth.sex1]\ntheta = 0.5, 1.5, 5.0\nalpha = 0.7, 0.7, 0.5\nbeta = 1.0, 0.5, 1.0\n\n"
            "[truth.sex0]\ntheta = 0.5, 1.5, 0.75\nalpha = 0.7, 0.7, 0.25\n"
            "beta = 0.5, 0.5, 0.25\n",
            encoding="utf-8",
        )
        code = cli.main(["simulate", "--scenario", str(old), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "missing [truth] section" in capsys.readouterr().err

    def test_scenario_owns_the_seed(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "simulate", "--scenario", str(scenario_file),
                "--seed", "7", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2


class TestBench:
    def test_recovery_scenario_outputs(self, tmp_path):
        scen = tmp_path / "mini.ini"
        sim.save_scenario(scen, sim.sc1_scenario(n=250, M=2, seed=77))
        out = tmp_path / "bench"
        code = cli.main([
            "bench", "--scenario", str(scen), "--fit-both", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("parameter,true,mean_mle,bias")
        assert len(lines) == 1 + 12
        aic = (out / "aic.csv").read_text().strip().splitlines()
        assert aic[0] == "aic_frailty,aic_classical"
        assert 2 <= len(aic) <= 3
        assert "sc1" in (out / "summary.txt").read_text()

    def test_two_group_scenario_outputs(self, tmp_path):
        scen = tmp_path / "two.ini"
        sim.save_scenario(scen, sim.two_group_scenario(2, n=800, M=1, seed=606))
        out = tmp_path / "bench2"
        code = cli.main(["bench", "--scenario", str(scen), "--out", str(out)])
        assert code == 0
        lines = (out / "aim2_summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10  # 6 pooled + 4 stratified rows
        assert (out / "aim2_curves.csv").exists()

    @pytest.mark.parametrize("variant", ["gamma", "lognormal"])
    def test_two_group_scenarios_beyond_pgw_without_frailty(self, tmp_path, variant):
        s = sim.two_group_scenario(2, n=400, M=2, seed=606)
        if variant == "gamma":
            s = dataclasses.replace(s, frailty_family="gamma", frailty_b=0.5)
        else:
            s = dataclasses.replace(s, baseline="lognormal", groups=(
                sim.TruthGroup((0.3, 0.9), (0.7, 0.7, 0.25), (0.5, 0.5, 0.25)),
                sim.TruthGroup((-0.5, 0.4), (0.7, 0.7, 0.5), (1.0, 0.5, 1.0))))
        scen = tmp_path / "two.ini"
        sim.save_scenario(scen, s)
        assert cli.main(["simulate", "--scenario", str(scen), "--replicate", "1",
                         "--out", str(tmp_path / "sim")]) == 0
        assert datasets.load_patient_csv(tmp_path / "sim" / "cohort.csv").n == 400
        assert cli.main(["bench", "--scenario", str(scen), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "aim2_summary.csv").exists()

    def test_full_flag_warns_before_launch(self, tmp_path, capsys, monkeypatch):
        scen = tmp_path / "mini.ini"
        sim.save_scenario(scen, sim.sc1_scenario(n=250, M=2, seed=77))
        seen = {}

        def stub(scenario, table, **kwargs):
            seen["n"], seen["M"] = scenario.n, scenario.M
            raise RuntimeError("stubbed out")

        monkeypatch.setattr(cli.sim, "run_aim1", stub)
        code = cli.main([
            "bench", "--scenario", str(scen), "--full", "--out", str(tmp_path / "o"),
        ])
        assert code == 4  # the stub aborted the launch
        err = capsys.readouterr().err
        assert "estimated runtime" in err
        assert seen == {"n": 500, "M": 1000}
