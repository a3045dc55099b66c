"""Every input file passes one boundary: a mutated field either leaves a command
working (exit 0, nothing on stderr) or fails it with an error that names the
file and the row, key or field (exit 3, or 4 for a saved fit that did not
converge).  A fit that does not converge on mutated data exits 4 and says so
on stdout.  No other exception escapes ``cli.main``.

Each case mutates one field of a valid input: a patient CSV or life-table CSV
read by ``exhaz fit``, a scenario INI (and the life-table CSV it names) read
by ``exhaz simulate``, or a ``fit.json`` read by ``exhaz compare`` and
``exhaz netsurv``.  The examples are derandomised, so every run tries the same
cases.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exhaz import cli
from exhaz import simulation as sim

# non-finite, negative, huge, empty and wrong-type cells of a CSV or INI value
TEXT_MUTATIONS = ("nan", "inf", "-inf", "-1", "-0.5", "0", "1e308", "99999999999999999999",
                  "", "abc")
# the same for a JSON value, and "changed": the field moved off what the fit writes
JSON_MUTATIONS = ("nan", "-1", "huge", "empty", "string", "list", "null", "changed")
# each case writes its own files over the last case's in tmp_path
CASES = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
# a fit that does not converge exits 4 and says so on stdout, not stderr
NOT_CONVERGED = re.compile(r"converged=False\n$")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small life table, a scenario that simulates on it, a cohort drawn from
    the scenario, and a fit of that cohort."""
    root = tmp_path_factory.mktemp("boundary")
    table_csv = root / "table.csv"
    rows = [f"{a},{y},{s},{0.001 * (1 + a - 60) * (1.2 if s else 1.0):g}"
            for a in range(60, 73) for y in range(2010, 2015) for s in (0, 1)]
    table_csv.write_text("age,year,sex,rate\n" + "\n".join(rows) + "\n")
    scenario = sim.Scenario(
        name="boundary", n=40, M=2, groups=(sim.TruthGroup((0.75, 1.75, 8.0), (0.5, 0.5),
                                                           (1.0, 0.5)),),
        binary_probs=(("sex", 0.5),), dropout_rate=0.05, admin_censor=2.0, seed=7,
        age_mixture=sim.AgeMixture(((60.0, 65.0), (65.0, 70.0)), (0.5, 0.5)),
        life_table=str(table_csv))
    ini = root / "scenario.ini"
    sim.save_scenario(ini, scenario)
    assert cli.main(["simulate", "--scenario", str(ini), "--out", str(root)]) == 0
    fit_dir = root / "fit"
    assert cli.main(["fit", "--data", str(root / "cohort.csv"), "--lifetable", str(table_csv),
                     "--x", "agec,sex", "--w", "agec", "--out", str(fit_dir)]) == 0
    return {"root": root, "table": table_csv, "scenario": ini, "cohort": root / "cohort.csv",
            "fit": fit_dir / "fit.json"}


def run(capsys, argv):
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def assert_boundary(code, out, err, path, names, allow=None):
    """Exit 0 with an empty stderr (or one ``allow`` warning), a fit that did
    not converge, or exit 3/4 with one error line naming ``path`` and one of
    ``names`` (a row, key or field)."""
    if code == 0:
        assert err == "" or (allow is not None and allow.match(err)), err
    elif code == 4 and not err:
        assert NOT_CONVERGED.search(out), out
    else:
        assert code in (3, 4), (code, err)
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert any(name in err for name in names), (names, err)


def mutate_csv(path, dest, row, column, value):
    """``path`` with the cell of data row ``row`` (0-based) in ``column`` replaced."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    line = 1 + row % (len(lines) - 1)
    cells = lines[line].split(",")
    cells[column % len(header)] = value
    lines[line] = ",".join(cells)
    dest.write_text("\n".join(lines) + "\n")
    return line + 1, header[column % len(header)]


# the patient columns: time,status,agec,sex,age,year and the stratum sex; an
# unknown stratum label is refused by the fit, which names the cohort's file
# and the stratum column
@CASES
@given(row=st.integers(0, 39), column=st.integers(0, 6), value=st.sampled_from(TEXT_MUTATIONS))
@example(row=1, column=0, value="-2")  # a bad time via --data
@example(row=3, column=1, value="2")
@example(row=5, column=2, value="abc")  # a covariate column that reads as labels
@example(row=2, column=6, value="2")  # a stratum label the life table lacks
def test_a_mutated_patient_csv(files, tmp_path, capsys, row, column, value):
    data = tmp_path / "cohort.csv"
    line, name = mutate_csv(files["cohort"], data, row, column, value)
    result = run(capsys, ["fit", "--data", data, "--lifetable", files["table"],
                          "--x", "agec,sex", "--w", "agec", "--out", tmp_path / "o"])
    assert_boundary(*result, data, [f"row {line}", f"'{name}'", f" {name} "])


@CASES
@given(row=st.integers(0, 129), column=st.integers(0, 3), value=st.sampled_from(TEXT_MUTATIONS))
@example(row=0, column=3, value="-1.0")  # a negative rate via --lifetable
@example(row=7, column=0, value="59")  # a repeated cell
@example(row=7, column=2, value="2")  # a third sex leaves the grid incomplete
def test_a_mutated_life_table(files, tmp_path, capsys, row, column, value):
    table = tmp_path / "table.csv"
    line, _ = mutate_csv(files["table"], table, row, column, value)
    result = run(capsys, ["fit", "--data", files["cohort"], "--lifetable", table,
                          "--x", "agec,sex", "--w", "agec", "--out", tmp_path / "o"])
    assert_boundary(*result, table, [f"row {line}", "missing cell"])


# every key but life_table, which is a path: a wrong one is an OSError naming it
INI_KEYS = ("name", "n", "replicates", "seed", "admin_censor", "year", "dropout_rate",
            "dropout_target", "bounds", "probs", "baseline", "theta", "alpha", "beta",
            "frailty", "b", "binary")


@CASES
@given(key=st.sampled_from(INI_KEYS), value=st.sampled_from(TEXT_MUTATIONS))
@example(key="n", value="0")  # a scenario with n = 0
@example(key="name", value="50%")  # configparser's interpolation refuses a lone %
@example(key="beta", value="1e300, 1.0")  # an event time that underflows to 0
def test_a_mutated_scenario(files, tmp_path, capsys, key, value):
    ini = tmp_path / "scenario.ini"
    text = files["scenario"].read_text()
    assert f"\n{key} = " in text
    ini.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                           for line in text.splitlines(True)))
    result = run(capsys, ["simulate", "--scenario", ini, "--out", tmp_path / "o"])
    names = {"bounds": "age mixture", "probs": "age mixture", "replicates": "M",
             "binary": "'name:p'", "b": "frailty variance", "theta": "baseline needs"}
    # an error a key causes downstream names what the key sets
    assert_boundary(*result, ini, [key, names.get(key, key), "record "])


@pytest.mark.parametrize("text, message", [
    ("garbage\n", "File contains no section headers. file: the file, line: 1 'garbage\\n'"),
    ("[scenario]\nn = 1\nn = 2\n",
     "While reading from the file [line 3]: option 'n' in section 'scenario' already exists"),
    ("[scenario]\nn = 1\nworse\n", "Source contains parsing errors: the file [line 3]: 'worse\\n'"),
], ids=["no-section", "repeated-key", "no-key"])
def test_a_malformed_scenario_line(tmp_path, capsys, text, message):
    # configparser's errors are no ValueError, so they used to escape as tracebacks
    ini = tmp_path / "scenario.ini"
    ini.write_text(text)
    assert run(capsys, ["simulate", "--scenario", ini, "--out", tmp_path / "o"]) == (
        3, "", f"error: {ini}: {message}\n")


@CASES
@given(row=st.integers(0, 129), column=st.integers(0, 3), value=st.sampled_from(TEXT_MUTATIONS))
@example(row=4, column=3, value="nan")  # a scenario whose life_table CSV is bad
def test_a_mutated_scenario_life_table(files, tmp_path, capsys, row, column, value):
    table = tmp_path / "table.csv"
    line, _ = mutate_csv(files["table"], table, row, column, value)
    ini = tmp_path / "scenario.ini"
    ini.write_text(files["scenario"].read_text().replace(str(files["table"]), str(table)))
    result = run(capsys, ["simulate", "--scenario", ini, "--out", tmp_path / "o"])
    assert_boundary(*result, table, [f"row {line}", "missing cell"])


def _json_mutation(value, how):
    return {"nan": float("nan"), "-1": -1, "huge": 1e308, "empty": "", "string": "abc",
            "list": [], "null": None,
            "changed": (not value if isinstance(value, bool)
                        else value + 1 if isinstance(value, (int, float))
                        else value + "x" if isinstance(value, str)
                        else value[:-1] if value else ["x"])}[how]


FIT_KEYS = ("baseline", "frailty", "x_names", "w_names", "psi", "transformed_names",
            "natural_names", "loglik", "n_params", "covariance", "se_valid", "converged",
            "iterations", "gradient_norm", "messages", "attempts", "n", "n_events",
            "data_fingerprint", "label")
# netsurv applies a fit to another cohort with a warning, which is not an error
FINGERPRINT_WARNING = re.compile(r"warning: .* was fitted on data with fingerprint .*\n$")


@CASES
@given(key=st.sampled_from(FIT_KEYS), how=st.sampled_from(JSON_MUTATIONS),
       command=st.sampled_from(["compare", "netsurv"]))
@example(key="se_valid", how="changed", command="compare")
@example(key="se_valid", how="changed", command="netsurv")
@example(key="n_params", how="huge", command="compare")
@example(key="n_params", how="changed", command="netsurv")
@example(key="natural_names", how="changed", command="netsurv")
def test_a_mutated_saved_fit(files, tmp_path, capsys, key, how, command):
    payload = json.loads(files["fit"].read_text())
    assert list(payload) == list(FIT_KEYS)
    payload[key] = _json_mutation(payload[key], how)
    saved = tmp_path / "fit.json"
    saved.write_text(json.dumps(payload))
    argv = (["compare", saved] if command == "compare" else
            ["netsurv", "--data", files["cohort"], "--fit", saved, "--grid", "0:1:3"])
    result = run(capsys, argv + ["--out", tmp_path / "o"])
    # a field can be refused for another's sake: psi's shape follows the model
    # and covariate names, se_valid follows covariance
    assert_boundary(*result, saved, [key, "saved fit field '", "did not converge"],
                    allow=FINGERPRINT_WARNING)


@pytest.mark.parametrize("payload_edit, message", [
    (lambda p: {**p, "se_valid": False},
     "saved fit field 'se_valid' must be true for the fit it describes, got false"),
    (lambda p: {**p, "n_params": 99},
     "saved fit field 'n_params' must be 6 for the fit it describes, got 99"),
    (lambda p: {k: v for k, v in p.items() if k != "natural_names"},
     "saved fit lacks field(s) natural_names"),
], ids=["se-valid", "n-params", "no-natural-names"])
@pytest.mark.parametrize("command", ["compare", "netsurv"])
def test_a_saved_fit_must_agree_with_what_it_describes(files, tmp_path, capsys, payload_edit,
                                                       message, command):
    # such files used to load silently: one with "se_valid": false and
    # "n_params": 99 as a fit with valid standard errors and 5 parameters
    saved = tmp_path / "fit.json"
    saved.write_text(json.dumps(payload_edit(json.loads(files["fit"].read_text()))))
    argv = (["compare", saved] if command == "compare" else
            ["netsurv", "--data", files["cohort"], "--fit", saved, "--grid", "0:1:3"])
    assert run(capsys, argv + ["--out", tmp_path / "o"]) == (3, "", f"error: {saved}: {message}\n")
    assert not (tmp_path / "o").exists()


def test_a_written_fit_loads_and_writes_back_the_same_fields(files):
    payload = json.loads(files["fit"].read_text())
    assert cli.FitResult.from_json_dict(payload).to_json_dict() == payload


# each flag's value on an otherwise valid command line; --grid also mutates
# one of its start:stop:count parts
FLAGS = {"--grid": "0:1:3", "--draws": "100", "--level": "0.9", "--seed": "1", "--by": "sex",
         "--replicate": "1"}
# an informational line that a run with bands may print
REJECTED_DRAWS = re.compile(r"rejected \d+ of \d+ parameter draws\n$")


@settings(CASES, max_examples=120)
@given(flag=st.sampled_from(sorted(FLAGS)), value=st.sampled_from(TEXT_MUTATIONS),
       part=st.sampled_from([None, 0, 1, 2]))
@example(flag="--by", value="nope", part=None)  # a column the cohort lacks
@example(flag="--by", value="", part=None)  # an empty --by used to mean no --by
@example(flag="--grid", value="", part=None)  # an empty --grid used to mean the default grid
@example(flag="--by", value="agec", part=None)  # one curve per numeric value
@example(flag="--seed", value="-1", part=None)  # numpy refused it without naming the flag
@example(flag="--draws", value="99999999999999999999", part=None)  # past numpy's array size
@example(flag="--draws", value="0", part=None)  # no bands, so the seed goes unused
@example(flag="--draws", value="-1", part=None)  # the library's message named no flag
@example(flag="--draws", value="50", part=None)
@example(flag="--grid", value="99999999999999999999", part=2)  # a count above the cap
@example(flag="--grid", value="1e308", part=1)  # a stop beyond the follow-up
def test_a_mutated_flag(files, tmp_path, capsys, flag, value, part):
    if part is not None and flag == "--grid":
        parts = FLAGS[flag].split(":")
        parts[part] = value
        value = ":".join(parts)
    if flag == "--replicate":
        argv = ["simulate", "--scenario", files["scenario"]]
    else:
        argv = ["netsurv", "--data", files["cohort"], "--fit", files["fit"]]
    for name, default in FLAGS.items():
        if name != "--replicate" and argv[0] == "netsurv" or name == flag:
            argv += [name, value if name == flag else default]
    try:
        code, out, err = run(capsys, argv + ["--out", tmp_path / "o"])
    except SystemExit as exc:  # argparse's usage error
        code, (out, err) = exc.code, capsys.readouterr()
    if code == 0:
        assert err == "" or REJECTED_DRAWS.match(err), err
    elif code == 2:  # argparse's usage error names the flag
        assert f"argument {flag}: " in err or "--seed is required" in err, err
    else:
        # exit 3, naming the flag: dashed, or bare at the start of the message
        assert code == 3 and err.count("\n") == 1, (code, err)
        assert flag in err or err.startswith(f"error: {flag[2:]}"), err


@pytest.mark.parametrize("flag, value, message", [
    ("--draws", "-1", "--draws must be 0 (no bands) or at least 100, got -1"),
    ("--draws", "50", "--draws must be 0 (no bands) or at least 100, got 50"),
    ("--draws", "100001", "--draws 100001 is above the cap of 100000 draws"),
    ("--grid", "0:5:1", "grid '0:5:1' must satisfy 0 <= start < stop, count >= 2"),
    ("--grid", "0:5", "grid must be 'start:stop:count', got '0:5'"),
    ("--seed", "-1", "--seed -1 must be non-negative"),
    ("--level", "1", "--level 1.0 must be in (0, 1)"),
], ids=["draws-negative", "draws-below-100", "draws-above-cap", "grid-one-point",
        "grid-two-parts", "seed-negative", "level-one"])
def test_a_bad_flag_is_refused_before_any_file_is_read(tmp_path, capsys, flag, value, message):
    # --draws and --grid were checked only after the fit and the cohort were
    # read, so a missing file hid them
    argv = ["netsurv", "--data", tmp_path / "missing.csv", "--fit", tmp_path / "missing.json",
            "--seed", "1", flag, value, "--out", tmp_path / "o"]
    assert run(capsys, argv) == (3, "", f"error: {message}\n")
    assert not (tmp_path / "o").exists()
