"""Command-line interface: outputs, exit codes, determinism, usage rules."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exhaz import cli, datasets
from exhaz import netsurvival as ns
from exhaz.inference import FitResult
from exhaz import simulation as sim


SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
BUNDLED = Path(__file__).resolve().parents[1] / "demos" / "data"


# SHA-256 of cohort.csv for the first and last replicate of each shipped scenario
PINNED_COHORTS = [
    ("sc1", 0, "9232a486e473c8e9fa8b8a34fc1cb402ae6e4df16b62a684b1d13b5c8d14e3da"),
    ("sc1", 199, "5215ed767f0385637f98fa6874e21dc71ea2e060973ba38cdb20299f9b6dcc13"),
    ("sc1_null", 0, "1a7f1289e461a9dd76848519ec27719b490239085999107926401d94e0dedf34"),
    ("sc1_null", 199, "76d94df75430f1a4fc097e5d41db3277a2514a09c1269334ffed0e666240e121"),
    ("sc1_small", 0, "a26dbe162bbf50f7d2aa1b2506e4dd7943da9acbd33a4c08612f5bfae3248d44"),
    ("sc1_small", 199, "503f872900c61ef36b0eb533ec24e5c100c850832616516ea3b5573ed1dad431"),
    ("sc2_standin", 0, "8772b8fb26f0f5c62954c790a958d8208787a80dc97bf9472565825d21fa9af0"),
    ("sc2_standin", 99, "adb2fcb7c3a187628a760aa62c75a249170a156184bac82a2168926470376a5a"),
    ("sc3_standin", 0, "6dc1f5978985f6c64d131b8c8fb16ad25d280b953a84a18fe27875e4c0dbed85"),
    ("sc3_standin", 99, "ddad03472a48259445721356f9ffafa1b6cd781d9ef3d59d3c3b65c354245dd7"),
    ("two_group_1", 0, "b23ec5087d69a40e0af856419a763dc8dfb076061a19ea0bc288a615a4660d23"),
    ("two_group_1", 99, "9425f6847465dad7e57af37ed08cb949ddf645155a4607991ce59ac7745ae421"),
    ("two_group_2", 0, "a7f58cbfacb1f0ee7d058729ab8b2013175d765e3b6e4729ac8e664d5f5d18a2"),
    ("two_group_2", 99, "6d4536b75b1b61a50b769d7815fa59b385035a88efcaff1f37f97d70dff5259e"),
]


def _scipy_after(argv, cwd) -> str:
    """``cli.main(argv)``'s exit code and the scipy modules it loaded, run in a
    fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; from exhaz import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.stdout.strip().splitlines()[-1]


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


@pytest.fixture(scope="module")
def agec_fit(inputs):
    """A classical fit with x = w = agec: 5 parameters."""
    out = inputs["root"] / "fit-agec"
    assert cli.main(["fit", "--data", str(inputs["data"]), "--lifetable", str(inputs["table"]),
                     "--x", "agec", "--w", "agec", "--out", str(out)]) == 0
    return out


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

    @pytest.mark.parametrize("flag", ["--x", "--w"])
    def test_a_label_column_is_refused_by_name(self, tmp_path, capsys, flag):
        # the fit used to exit 3 with numpy's "could not convert string to
        # float: 'IV'", naming no column
        code = cli.main(["fit", "--data", str(BUNDLED / "lung_synthetic.csv"),
                         "--lifetable", str(BUNDLED / "lifetable_synthetic.csv"),
                         flag, "stage", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {flag[2:]}_names: column 'stage' holds labels, not numbers\n")
        assert not (tmp_path / "o").exists()

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

    def test_unknown_stratum_label_names_its_record(self, tmp_path, capsys):
        bundled = Path(__file__).resolve().parents[1] / "demos" / "data"
        lines = (bundled / "lung_synthetic.csv").read_text().splitlines(True)
        assert lines[0].rstrip("\n").endswith(",sex") and lines[4].endswith(",0\n")
        lines[4] = lines[4][:-2] + "2\n"  # record 3 (0-based)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("".join(lines))
        code = cli.main([
            "fit", "--data", str(cohort), "--lifetable", str(bundled / "lifetable_synthetic.csv"),
            "--x", "agec", "--w", "agec", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err == ("error: record 3 (0-based): sex '2' is not a stratum "
                                           "label of the life table (labels 0, 1)\n")

    def test_life_table_with_a_huge_age_span_is_an_input_error(self, inputs, tmp_path,
                                                               capsys):
        # the loader used to allocate the 7 PiB grid first: a MemoryError
        # traceback instead of exit 3
        table = tmp_path / "table.csv"
        table.write_text("age,year,rate\n0,2010,0.01\n1000000000000000,2010,0.01\n")
        code = cli.main([
            "fit", "--data", str(inputs["data"]), "--lifetable", str(table),
            "--x", "agec", "--w", "agec", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "incomplete grid: missing cell (1, 2010, ())" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "netsurv"])
    @pytest.mark.parametrize("flag", [("--multistart", "3"), ("--maxiter", "5")])
    def test_optimiser_flags_are_gone(self, inputs, tmp_path, capsys, command, flag):
        # the optimiser's iteration cap and restart count are fixed
        model = (["--lifetable", str(inputs["table"])] if command == "fit"
                 else ["--fit", str(inputs["fits"]["frailty"] / "fit.json")])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--data", str(inputs["data"]), *model, *flag,
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_model_defaults(self):
        args = cli.build_parser().parse_args(
            ["fit", "--data", "d.csv", "--lifetable", "t.csv", "--out", "o"])
        assert (args.baseline, args.frailty, args.x, args.w) == ("pgw", "none", (), ())
        args = cli.build_parser().parse_args(
            ["fit", "--data", "d.csv", "--lifetable", "t.csv", "--out", "o",
             "--x", "agec, imd", "--w", "none"])
        assert (args.x, args.w) == (("agec", "imd"), ())

    def test_lifetable_is_required(self, inputs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--data", str(inputs["data"]), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "required: --lifetable" in capsys.readouterr().err

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

    def test_compare_loads_no_scipy(self, inputs, tmp_path):
        fits = [str(inputs["fits"][name] / "fit.json") for name in ("classical", "frailty")]
        assert _scipy_after(["compare", *fits, "--out", str(tmp_path / "cmp")],
                            tmp_path) == "0 []"

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

    @pytest.mark.parametrize("flag", [("--lifetable", "table.csv"), ("--baseline", "pgw"),
                                      ("--frailty", "gamma"), ("--x", "agec"), ("--w", "agec")],
                             ids=lambda flag: flag[0][2:])
    def test_model_flags_are_gone(self, inputs, tmp_path, capsys, flag):
        # curves come from a saved fit only; netsurv has no model to define
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "netsurv", "--data", str(inputs["data"]),
                "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
                *flag, "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_fit_is_required(self, inputs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["netsurv", "--data", str(inputs["data"]), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "required: --fit" in capsys.readouterr().err

    def test_unbanded_curves_load_no_scipy(self, inputs, tmp_path):
        args = ["netsurv", "--data", str(inputs["data"]),
                "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
                "--grid", "0:5:6", "--out", str(tmp_path / "o")]
        assert _scipy_after(args, tmp_path) == "0 []"

    def test_bands_load_linalg_but_never_optimize(self, inputs, tmp_path):
        args = ["netsurv", "--data", str(inputs["data"]),
                "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
                "--grid", "0:5:6", "--draws", "100", "--seed", "1", "--out", str(tmp_path / "o")]
        code, modules = _scipy_after(args, tmp_path).split(" ", 1)
        modules = ast.literal_eval(modules)
        assert code == "0" and "scipy.linalg" in modules
        assert not [m for m in modules if m.startswith("scipy.optimize")]

    def test_unconverged_saved_fit_is_refused(self, inputs, tmp_path, capsys):
        # exhaz fit writes fit.json even when it exits 4; its curves used to
        # be drawn and the command exited 0
        payload = json.loads((inputs["fits"]["frailty"] / "fit.json").read_text())
        saved = tmp_path / "fit.json"
        saved.write_text(json.dumps({**payload, "converged": False}))
        code = cli.main(["netsurv", "--data", str(inputs["data"]), "--fit", str(saved),
                         "--grid", "0:5:6", "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: {saved}: saved fit did not converge; curves not written\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["netsurv", "compare"])
    @pytest.mark.parametrize("edit, message", [
        (lambda p: [p], "saved fit must be a JSON object, got list"),
        (lambda p: {k: v for k, v in p.items() if k != "loglik"},
         "saved fit lacks field(s) loglik"),
        (lambda p: {**p, "psi": p["psi"][:-1]},
         "saved fit field 'psi' must have shape (5,) for its model and covariates, "
         "got shape (4,)"),
        (lambda p: {**p, "covariance": p["covariance"][:-1]},
         "saved fit field 'covariance' must have shape (5, 5) for its model and "
         "covariates, got shape (4, 5)"),
        (lambda p: {**p, "covariance": [[1.0], "a"]},
         "saved fit field 'covariance' must have shape (5, 5) for its model and "
         "covariates, got a value that is not an array of numbers"),
        (lambda p: {**p, "baseline": ["pgw"]},
         "saved fit field 'baseline' must be a string, got list"),
        (lambda p: {**p, "messages": 5},
         "saved fit field 'messages' must be a list of strings, got int"),
        (lambda p: {**p, "loglik": "x"}, "saved fit field 'loglik' must be a number, got str"),
        (lambda p: {**p, "x_names": "agec"},
         "saved fit field 'x_names' must be a list of strings, got str"),
        (lambda p: {**p, "n": "4000"}, "saved fit field 'n' must be an integer, got str"),
        (lambda p: {**p, "converged": "yes"},
         "saved fit field 'converged' must be a boolean, got str"),
        (lambda p: {**p, "psi": p["psi"][:2] + [math.nan] + p["psi"][3:]},
         "saved fit field 'psi' must be finite, got nan at index [2]"),
        (lambda p: {**p, "covariance": p["covariance"][:1]
                    + [p["covariance"][1][:3] + [-math.inf] + p["covariance"][1][4:]]
                    + p["covariance"][2:]},
         "saved fit field 'covariance' must be finite, got -inf at index [1, 3]"),
    ], ids=["list", "missing-key", "short-psi", "short-covariance", "ragged-covariance",
            "list-baseline", "number-messages", "string-loglik", "string-x-names",
            "string-n", "string-converged", "nan-psi", "inf-covariance"])
    def test_malformed_saved_fit_is_an_input_error(self, inputs, agec_fit, tmp_path, capsys,
                                                   command, edit, message):
        # a missing key and a JSON list used to raise tracebacks; a psi one
        # entry short drew curves with an empty beta and exited 0
        saved = tmp_path / "fit.json"
        saved.write_text(json.dumps(edit(json.loads((agec_fit / "fit.json").read_text()))))
        argv = (["netsurv", "--data", str(inputs["data"]), "--fit", str(saved)]
                if command == "netsurv" else ["compare", str(saved)])
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {saved}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_covariance_without_a_cholesky_factor_is_an_input_error(self, inputs, agec_fit,
                                                                     tmp_path, capsys):
        # such a covariance used to be clipped to a factor that gave bands
        # with lower = upper = estimate
        payload = json.loads((agec_fit / "fit.json").read_text())
        cov = payload["covariance"]
        cov[0][1] = cov[1][0] = 10.0 * math.sqrt(cov[0][0] * cov[1][1])
        saved = tmp_path / "fit.json"
        saved.write_text(json.dumps(payload))
        code = cli.main(["netsurv", "--data", str(inputs["data"]), "--fit", str(saved),
                         "--grid", "0:1:3", "--draws", "100", "--seed", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {saved}: covariance has no Cholesky factor (")
        assert err.endswith("); Monte-Carlo bands unavailable\n")
        assert not (tmp_path / "o").exists()

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

    def test_grid_above_the_cap_is_an_input_error(self, inputs, tmp_path, capsys):
        # 1e11 points used to end in a MemoryError traceback (exit 1)
        code = cli.main([
            "netsurv", "--data", str(inputs["data"]),
            "--fit", str(inputs["fits"]["frailty"] / "fit.json"),
            "--grid", "0:5:100000000000", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err == ("error: --grid '0:5:100000000000': count "
                                           "100000000000 is above the cap of 100000 points\n")
        assert not (tmp_path / "o").exists()

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


class TestOutOfRangeDraws:
    """Band draws of a gamma fit of the bundled cohort whose variance of one
    log-scale entry is scaled up: some draws leave the parameter range."""

    @pytest.fixture(scope="class")
    def saved_fit(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("out-of-range")
        assert cli.main(["fit", "--data", str(BUNDLED / "lung_synthetic.csv"),
                         "--lifetable", str(BUNDLED / "lifetable_synthetic.csv"),
                         "--frailty", "gamma", "--x", "agec,imd", "--w", "agec",
                         "--out", str(out)]) == 0
        return json.loads((out / "fit.json").read_text())

    @pytest.mark.parametrize("entry, factor", [("log_b", 1e7), ("log_gamma", 1e6)])
    def test_draws_outside_the_range_are_rejected(self, saved_fit, tmp_path, capsys,
                                                  entry, factor):
        # log_b: math.exp of a draw overflowed, an uncaught OverflowError;
        # log_gamma: a draw below -745 gave gamma = 0.0, which PGWParams refuses,
        # and the command exited 3
        payload = json.loads(json.dumps(saved_fit))
        j = payload["transformed_names"].index(entry)
        payload["covariance"][j][j] *= factor
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["netsurv", "--data", str(BUNDLED / "lung_synthetic.csv"),
                         "--fit", str(path), "--draws", "100", "--seed", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 0
        err = capsys.readouterr().err
        rejected = int(err.split()[1])
        assert rejected > 0 and err == (
            f"rejected {rejected} of {100 + rejected} parameter draws\n")
        assert (tmp_path / "o" / "curves.csv").exists()


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

    def test_a_zero_time_is_an_input_error(self, tmp_path, capsys):
        # beta = 1e300 makes an excess hazard overflow and an event time 0;
        # a silent floor used to write such times as 1e-12 and exit 0
        path = tmp_path / "huge.ini"
        sim.save_scenario(path, sim.sc1_scenario(n=120, M=1))
        path.write_text("".join("beta = 1e300, 1.0, 1.0, 1.0\n" if line.startswith("beta = ")
                                else line for line in path.read_text().splitlines(True)))
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: record ")
        assert err.endswith(" (0-based): time must be positive and finite, got 0.0\n")
        assert not (tmp_path / "o" / "cohort.csv").exists()

    def test_rerun_is_byte_identical(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--scenario", str(scenario_file), "--replicate", "2"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()

    def test_bundled_scenario_cohort_bytes_are_pinned(self, tmp_path):
        # pinned, so that no rewrite of the sampler, the stratum labels or
        # the CSV writer can change a byte of a simulated cohort; the first and
        # last replicate of every shipped design cover the lognormal, IG,
        # two-group and null truths and both drop-out calibrations
        for name, replicate, digest in PINNED_COHORTS:
            out = tmp_path / f"{name}-{replicate}"
            assert cli.main(["simulate", "--scenario", str(SCENARIOS / f"{name}.ini"),
                             "--replicate", str(replicate), "--out", str(out)]) == 0
            assert hashlib.sha256((out / "cohort.csv").read_bytes()).hexdigest() == digest, (
                name, replicate)

    def test_cohort_size_above_the_cap_is_an_input_error(self, tmp_path, capsys):
        # 1e14 subjects used to end in a MemoryError traceback (exit 1)
        path = tmp_path / "huge_n.ini"
        path.write_text((SCENARIOS / "sc1.ini").read_text().replace(
            "n = 5000\n", "n = 100000000000000\n"))
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: n = 100000000000000 is above the cap of 10000000 subjects\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["sc1", "two_group_1"])
    def test_pgw_simulation_loads_no_scipy(self, name, tmp_path):
        # the drop-out calibration's root finder is the package's own
        args = ["simulate", "--scenario", str(SCENARIOS / f"{name}.ini"), "--replicate", "0",
                "--out", str(tmp_path / "out")]
        assert _scipy_after(args, tmp_path) == "0 []"

    def test_unreachable_dropout_target_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "far.ini"
        sim.save_scenario(path, dataclasses.replace(
            sim.sc1_scenario(n=120, M=1), censoring_target=("dropout", 0.99999999999)))
        code = cli.main(["simulate", "--scenario", str(path), "--replicate", "0",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "dropout target 0.99999999999 is out of reach" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key", ["dropout_rate", "admin_censor", "year"])
    def test_non_finite_scenario_value_is_an_input_error(self, tmp_path, capsys, key):
        # a NaN drop-out rate used to draw the cohort with no drop-out, and a
        # NaN horizon or year to fail deep inside the calibration
        path = tmp_path / "nan.ini"
        sim.save_scenario(path, sim.sc1_scenario(n=120, M=1))
        path.write_text("".join(f"{key} = nan\n" if line.startswith(f"{key} = ") else line
                                for line in path.read_text().splitlines(True)))
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"error: {key} must be " in capsys.readouterr().err
        assert not (tmp_path / "o" / "cohort.csv").exists()

    @pytest.mark.parametrize("key, value", [("probs", "nan, 0.35, 0.4"),
                                            ("bounds", "nan:65.0, 65.0:75.0, 75.0:85.0")])
    def test_non_finite_age_mixture_is_an_input_error(self, tmp_path, capsys, key, value):
        # NaN passed every [age] check and failed later inside numpy, naming no key
        path = tmp_path / "nan.ini"
        sim.save_scenario(path, sim.sc1_scenario(n=120, M=1))
        path.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                                for line in path.read_text().splitlines(True)))
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"error: age mixture {key} " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["zero", "none"])
    def test_unknown_builtin_life_table_is_an_input_error(self, tmp_path, capsys, name):
        # builtin:synthetic is the one built-in table; any other name is read as a path
        path = tmp_path / "table.ini"
        sim.save_scenario(path, dataclasses.replace(sim.sc1_scenario(n=120, M=1),
                                                    life_table=f"builtin:{name}"))
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"'builtin:{name}'" in capsys.readouterr().err
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

    def test_fit_both_on_a_two_group_scenario_is_an_input_error(self, tmp_path, capsys):
        # the flag used to be ignored: the two-group study fits no AIC pair
        scen = tmp_path / "two.ini"
        sim.save_scenario(scen, sim.two_group_scenario(2, n=400, M=1, seed=606))
        code = cli.main(["bench", "--scenario", str(scen), "--fit-both",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --fit-both needs a one-group scenario, but {scen} has two truth groups\n")
        assert not (tmp_path / "o").exists()

    def test_full_flag_is_gone(self, tmp_path, capsys):
        # a study's size is its scenario's n and replicates
        scen = tmp_path / "mini.ini"
        sim.save_scenario(scen, sim.sc1_scenario(n=250, M=2, seed=77))
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--scenario", str(scen), "--full", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --full" in capsys.readouterr().err
