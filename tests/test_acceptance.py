"""End-to-end acceptance checks (long-running).

Each numbered test prints one `[criterion N] PASS/FAIL` line summarising
the quantity checked and its tolerance; the numbering matches the
acceptance checklist in README.md.  The recovery-study fixtures at the
bottom of the module are shared across several criteria and dominate the
runtime (a few minutes in total on one core); everything else is seconds.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
"""

import math
import time

import numpy as np
import pytest

from exhaz import cli
from exhaz import datasets
from exhaz import simulation as sim
from exhaz.baseline import PGWParams, pgw_cum_hazard
from exhaz.inference import loglik_frailty
from exhaz.lifetable import LifeTableKey
from exhaz.model import (
    FrailtySpec,
    GHParams,
    excess_cum_hazard,
    marginal_all_cause_survival,
    marginal_hazard,
    marginal_net_survival,
    simulate_event_time,
)
from exhaz.netsurvival import default_grid

from conftest import build_table, random_dataset

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def rand_gh(rng, p, p_t):
    """Random hazard parameters covering rising, falling and heavy tails."""
    theta = PGWParams(
        rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.0), rng.uniform(0.8, 5.0)
    )
    return GHParams(theta, tuple(rng.normal(0, 0.3, p_t)), tuple(rng.normal(0, 0.3, p)))


@pytest.fixture(scope="module")
def wide_table():
    return build_table(
        lambda a, y, s: 0.002 * math.exp(0.07 * max(a - 40, 0)),
        range(0, 120),
        range(2000, 2040),
        [()],
        (),
    )


class TestClosedFormChecks:
    def test_1_frailty_likelihood_matches_classical_limit(self, wide_table):
        t0 = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(20):
            data = random_dataset(200, 2, 1, seed=1000 + i, with_strata=False)
            g = rand_gh(rng, 2, 1)
            lf = loglik_frailty(data, wide_table, g, FrailtySpec("gamma", 1e-10))
            lc = loglik_frailty(data, wide_table, g, FrailtySpec())
            worst = max(worst, abs(lf - lc))
        elapsed = time.time() - t0
        report(
            1,
            worst <= 1e-6 and elapsed < 5.0,
            f"max |dloglik| = {worst:.3g} (tol 1e-6), {elapsed:.2f}s (< 5s)",
        )

    def test_2_marginal_survival_matches_mc_integration(self):
        t0 = time.time()
        rng = np.random.default_rng(202)
        worst_z = 0.0
        samplers = (
            ("gamma", lambda b, k: rng.gamma(1.0 / b, b, size=k)),
            ("ig", lambda b, k: rng.wald(1.0, 1.0 / b, size=k)),
        )
        for family, sampler in samplers:
            for _ in range(20):
                g = rand_gh(rng, 2, 1)
                x = rng.normal(0, 0.5, 2)
                w = x[:1]
                t = rng.uniform(0.2, 5.0)
                b = rng.uniform(0.2, 1.5)
                he = float(excess_cum_hazard(t, x, w, g))
                analytic = float(
                    marginal_net_survival(t, x, w, g, FrailtySpec(family, b))
                )
                draws = np.exp(-sampler(b, 1_000_000) * he)
                se = draws.std(ddof=1) / 1000.0
                worst_z = max(worst_z, abs(analytic - draws.mean()) / se)
        elapsed = time.time() - t0
        report(
            2,
            worst_z <= 3.0 and elapsed < 30.0,
            f"worst |z| = {worst_z:.2f} over 40 points x 1e6 draws (tol 3), "
            f"{elapsed:.2f}s (< 30s)",
        )

    def test_3_simulated_times_match_their_law(self):
        rng = np.random.default_rng(303)
        n = 100_000
        worst_d, worst_rt = 0.0, 0.0
        for _ in range(5):
            g = rand_gh(rng, 2, 1)
            xrow = rng.normal(0, 0.5, 2)
            x = np.tile(xrow, (n, 1))
            w = x[:, :1]
            lam = rng.uniform(0.4, 2.0)
            u = rng.uniform(2.0**-53, 1 - 1e-12, size=n)
            t = simulate_event_time(u, x, w, g, lam)
            rt = np.max(np.abs(lam * excess_cum_hazard(t, x, w, g) + np.log1p(-u)))
            worst_rt = max(worst_rt, float(rt))
            ts = np.sort(t)
            cdf = 1.0 - np.exp(-lam * excess_cum_hazard(ts, x, w, g))
            ranks = np.arange(1, n + 1)
            d = max(
                float(np.max(np.abs(cdf - ranks / n))),
                float(np.max(np.abs(cdf - (ranks - 1) / n))),
            )
            worst_d = max(worst_d, d)
        crit = 1.63 / math.sqrt(n)  # KS critical value at the 1% level
        report(
            3,
            worst_d < crit and worst_rt <= 1e-10,
            f"worst KS D = {worst_d:.5f} (1% crit {crit:.5f}); "
            f"worst inverse round trip = {worst_rt:.2e} (tol 1e-10)",
        )

    def test_4_marginal_hazard_is_minus_dlog_survival(self, wide_table):
        rng = np.random.default_rng(404)
        h = 1e-6
        worst_rel = 0.0
        count = 0
        while count < 50:
            g = rand_gh(rng, 2, 1)
            fam = ("none", "gamma", "ig")[count % 3]
            f = FrailtySpec(fam, rng.uniform(0.3, 1.2) if fam != "none" else 0.0)
            x = rng.normal(0, 0.5, 2)
            w = x[:1]
            age = rng.uniform(45.0, 80.0)
            t = rng.uniform(0.05, 4.9)
            # keep the difference stencil away from the life-table year kinks
            frac_a, frac_t = (age + t) % 1.0, t % 1.0
            if min(frac_a, frac_t) < 0.01 or max(frac_a, frac_t) > 0.99:
                continue
            key = LifeTableKey(age, 2012.0, ())
            sp = marginal_all_cause_survival(t + h, x, w, key, wide_table, g, f)
            sm = marginal_all_cause_survival(t - h, x, w, key, wide_table, g, f)
            deriv = -(math.log(sp) - math.log(sm)) / (2 * h)
            hz = float(marginal_hazard(t, x, w, key, wide_table, g, f))
            worst_rel = max(worst_rel, abs(deriv - hz) / abs(hz))
            count += 1
        report(
            4,
            worst_rel <= 1e-5,
            f"worst relative gap = {worst_rel:.2e} at 50 points (tol 1e-5)",
        )


# ---------------------------------------------------------------------------
# Recovery-study fixtures shared by criteria 5-9.  Each one simulates and
# refits M replicate cohorts; results are deterministic in the scenario seed.
# ---------------------------------------------------------------------------

DURATIONS = {}


def _timed_aim1(key, scenario, table, **kw):
    t0 = time.time()
    res = sim.run_aim1(scenario, table, **kw)
    DURATIONS[key] = time.time() - t0
    return res


@pytest.fixture(scope="module")
def synth_table():
    return datasets.synthetic_life_table()


@pytest.fixture(scope="module")
def sc1_n500(synth_table):
    scenario = sim.sc1_scenario(n=500, M=200)
    return _timed_aim1("n500", scenario, synth_table)


@pytest.fixture(scope="module")
def sc1_n1000(synth_table):
    return _timed_aim1("n1000", sim.sc1_scenario(n=1000, M=200), synth_table)


@pytest.fixture(scope="module")
def sc1_n2000(synth_table):
    return _timed_aim1("n2000", sim.sc1_scenario(n=2000, M=200), synth_table)


@pytest.fixture(scope="module")
def sc1_n5000(synth_table):
    scenario = sim.sc1_scenario(n=5000, M=200)
    return _timed_aim1("n5000", scenario, synth_table, fit_both=True)


@pytest.fixture(scope="module")
def sc1_null(synth_table):
    scenario = sim.sc1_scenario(n=5000, M=200, b=0.0, seed=20122)
    return _timed_aim1("null", scenario, synth_table, fit_both=True)


@pytest.fixture(scope="module")
def two_group_run(synth_table):
    t0 = time.time()
    res = sim.run_aim2(sim.two_group_scenario(2, n=5000, M=100), synth_table)
    DURATIONS["aim2"] = time.time() - t0
    return res


class TestRecoveryStudies:
    def test_5_large_sample_recovery_bands(self, sc1_n5000):
        tab = sc1_n5000.table
        names = list(tab.names)
        problems = []
        for i, name in enumerate(names):
            if name.startswith("beta") and abs(tab.bias[i]) > 0.02:
                problems.append(f"{name} bias {tab.bias[i]:+.4f} > 0.02")
            if name == "b" and abs(tab.bias[i]) > 0.12:
                problems.append(f"b bias {tab.bias[i]:+.4f} > 0.12")
            if not 0.90 <= tab.coverage[i] <= 0.98 + 1e-12:
                problems.append(f"{name} coverage {tab.coverage[i]:.3f}")
            ratio = tab.mean_se[i] / tab.emp_sd[i]
            if not 0.85 <= ratio <= 1.15:
                problems.append(f"{name} se/sd {ratio:.3f}")
        elapsed = DURATIONS["n5000"]
        ok = not problems and elapsed < 1800.0
        max_beta = max(
            abs(tab.bias[i]) for i, n in enumerate(names) if n.startswith("beta")
        )
        cov = tab.coverage
        report(
            5,
            ok,
            f"n=5000 M=200: max |beta bias| {max_beta:.4f} (tol 0.02), "
            f"b bias {tab.bias[names.index('b')]:+.4f} (tol 0.12), coverage "
            f"[{cov.min():.3f}, {cov.max():.3f}] in [0.90, 0.98], all mean-SE "
            f"within 15% of emp SD, {elapsed:.0f}s (< 1800s)"
            + ("; " + "; ".join(problems) if problems else ""),
        )

    def test_6_small_sample_heterogeneity_bias(self, sc1_n500, sc1_n5000):
        small, large = sc1_n500.table, sc1_n5000.table
        i_s = list(small.names).index("b")
        i_l = list(large.names).index("b")
        mean_small = small.mean_mle[i_s]
        bias_small, bias_large = small.bias[i_s], large.bias[i_l]
        # n=500 bias magnitude within +-50% of the expected 0.731
        in_band = 0.5 * 0.731 <= bias_small <= 1.5 * 0.731
        ok = (
            mean_small > 0.5
            and bias_small >= 0.3
            and in_band
            and abs(bias_large) < bias_small
        )
        report(
            6,
            ok,
            f"n=500: mean b-hat {mean_small:.3f} (> 0.5), bias {bias_small:+.3f} "
            f"(>= 0.3, within [0.366, 1.097]); n=5000 bias {bias_large:+.3f} "
            f"strictly smaller",
        )

    def test_7_reference_curve_recovered_on_average(self, sc1_n500):
        grid = default_grid()
        avg = np.asarray(sc1_n500.reference_curves).mean(axis=0)
        theta = PGWParams(*sc1_n500.scenario.groups[0].theta)
        b = sc1_n500.scenario.frailty_b
        h0 = np.array([pgw_cum_hazard(t, theta) for t in grid])
        truth = (1.0 + b * h0) ** (-1.0 / b)
        sup = float(np.max(np.abs(avg - truth)))
        report(
            7,
            sup <= 0.02,
            f"avg fitted reference-group net survival vs closed form: "
            f"sup-distance {sup:.4f} over {grid.size} grid points (tol 0.02)",
        )

    def test_9_aic_prefers_true_model_class(self, sc1_n5000, sc1_null):
        af = np.asarray(sc1_n5000.aic_frailty)
        ac = np.asarray(sc1_n5000.aic_classical)
        both = np.isfinite(af) & np.isfinite(ac)
        m = sc1_n5000.scenario.M
        share_frailty = float(np.sum(af[both] < ac[both])) / m

        af0 = np.asarray(sc1_null.aic_frailty)
        ac0 = np.asarray(sc1_null.aic_classical)
        both0 = np.isfinite(af0) & np.isfinite(ac0)
        m0 = sc1_null.scenario.M
        share_classical = float(np.sum(ac0[both0] <= af0[both0])) / m0

        report(
            9,
            share_frailty >= 0.80 and share_classical >= 0.60,
            f"heterogeneous truth: frailty wins AIC {share_frailty:.1%} of "
            f"{m} (>= 80%); homogeneous truth: classical wins or ties "
            f"{share_classical:.1%} of {m0} (>= 60%)",
        )

    def test_bias_shrinks_with_sample_size(
        self, sc1_n500, sc1_n1000, sc1_n2000, sc1_n5000
    ):
        """|bias| of the shape and heterogeneity parameters is nonincreasing
        across n in {500, 1000, 2000, 5000}; one adjacent violation of at most
        10% relative size is tolerated per parameter (Monte-Carlo noise)."""
        runs = [sc1_n500, sc1_n1000, sc1_n2000, sc1_n5000]
        for pname in ("sigma", "gamma", "b"):
            vals = []
            for r in runs:
                idx = list(r.table.names).index(pname)
                vals.append(abs(r.table.bias[idx]))
            violations = [
                (vals[j + 1] - vals[j]) / max(vals[j], 1e-12)
                for j in range(3)
                if vals[j + 1] > vals[j]
            ]
            assert len(violations) <= 1, f"{pname}: |bias| path {vals}"
            assert all(v <= 0.10 for v in violations), f"{pname}: {vals}"


class TestStratification:
    def test_8_pooled_deviation_at_least_twice_stratified(self, two_group_run):
        dev = two_group_run.mean_sup_dev
        ratios = {}
        for model in ("classical", "frailty"):
            pooled = np.mean([dev[("pooled", model, g)] for g in ("sex0", "sex1")])
            strat = np.mean([dev[("stratified", model, g)] for g in ("sex0", "sex1")])
            ratios[model] = pooled / strat
        report(
            8,
            all(r >= 2.0 for r in ratios.values()),
            "pooled / stratified mean sup-deviation from group truths: "
            + ", ".join(f"{m} {r:.2f}x" for m, r in ratios.items())
            + " (>= 2x, n=5000, M=100)",
        )


# ---------------------------------------------------------------------------
# Criterion 10: the full cohort workflow through the CLI, twice, byte-compared
# ---------------------------------------------------------------------------

FULL_X = "agec,imd,stage2,stage3,stage4,cvd,copd"
WORKFLOW_FITS = (
    ("c_full", "none", FULL_X),
    ("f_full", "gamma", FULL_X),
    ("c_nostage", "none", "agec,imd,cvd,copd"),
    ("f_nostage", "gamma", "agec,imd,cvd,copd"),
    ("c_base", "none", "agec,imd"),
    ("f_base", "gamma", "agec,imd"),
    ("c_null", "none", None),
    ("f_null", "gamma", None),
)


def _run_workflow(data_csv, table_csv, outdir):
    fit_paths = []
    for name, frailty, x in WORKFLOW_FITS:
        args = [
            "fit",
            "--data", str(data_csv),
            "--lifetable", str(table_csv),
            "--baseline", "pgw",
            "--frailty", frailty,
            "--label", name,
            "--out", str(outdir / name),
        ]
        if x is not None:
            args += ["--x", x, "--w", "agec"]
        assert cli.main(args) == 0, f"fit {name} failed"
        fit_paths.append(outdir / name / "fit.json")

    assert cli.main(
        ["compare", *map(str, fit_paths), "--out", str(outdir / "aic")]
    ) == 0
    best_label = (
        (outdir / "aic" / "compare.csv").read_text().splitlines()[1].split(",")[1]
    )

    assert cli.main(
        [
            "netsurv",
            "--data", str(data_csv),
            "--fit", str(outdir / best_label / "fit.json"),
            "--by", "stage",
            "--grid", "0:5:26",
            "--draws", "400",
            "--seed", "11",
            "--out", str(outdir / "curves"),
        ]
    ) == 0
    return best_label


class TestCohortWorkflow:
    def test_10_workflow_runs_and_is_byte_reproducible(self, tmp_path):
        t0 = time.time()
        datasets.write_bundled_data(tmp_path)
        data_csv = tmp_path / "data" / "lung_synthetic.csv"
        table_csv = tmp_path / "data" / "lifetable_synthetic.csv"

        best = []
        for run in ("run1", "run2"):
            outdir = tmp_path / run
            outdir.mkdir()
            best.append(_run_workflow(data_csv, table_csv, outdir))

        files1 = sorted(
            p.relative_to(tmp_path / "run1")
            for p in (tmp_path / "run1").rglob("*")
            if p.is_file()
        )
        files2 = sorted(
            p.relative_to(tmp_path / "run2")
            for p in (tmp_path / "run2").rglob("*")
            if p.is_file()
        )
        assert files1 == files2 and best[0] == best[1]
        diffs = [
            str(rel)
            for rel in files1
            if (tmp_path / "run1" / rel).read_bytes()
            != (tmp_path / "run2" / rel).read_bytes()
        ]
        elapsed = time.time() - t0
        n_curve_files = len(
            [f for f in files1 if f.parts[0] == "curves" and f.name != "curves.csv"]
        )
        report(
            10,
            not diffs and elapsed < 600.0 and n_curve_files == 5,
            f"8 fits + AIC table (winner {best[0]}) + {n_curve_files} net-survival "
            f"curves with MC bands in {elapsed:.0f}s (< 600s); "
            f"{len(files1)} output files byte-identical across reruns"
            + ("; differing: " + ", ".join(diffs) if diffs else ""),
        )
