"""Cohort simulation: covariate laws, censoring calibration, study harnesses."""

import configparser
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from exhaz import datasets, inference
from exhaz import simulation as sim
from exhaz.baseline import PGWParams, pgw_cum_hazard, pgw_quantile
from exhaz.inference import ModelSpec, fit
from exhaz.model import CovariateMapping
from exhaz.netsurvival import default_grid

from conftest import build_table


@pytest.fixture(scope="module")
def synth_table():
    return datasets.synthetic_life_table()


@pytest.fixture(scope="module")
def zero_wide():
    """All-zero rates (no background mortality) for ages 0-119, years 2000-2079."""
    return build_table(lambda a, y, s: 0.0, range(120), range(2000, 2080), [()], ())


class TestAgeMixture:
    def test_moments_match_closed_form(self):
        mix = sim.AgeMixture()
        # Independent arithmetic for a three-band piecewise-uniform law.
        mean = 0.25 * 47.5 + 0.35 * 70.0 + 0.40 * 80.0
        second = (
            0.25 * ((65 - 30) ** 2 / 12 + 47.5**2)
            + 0.35 * ((75 - 65) ** 2 / 12 + 70.0**2)
            + 0.40 * ((85 - 75) ** 2 / 12 + 80.0**2)
        )
        assert mix.mean == pytest.approx(mean, abs=1e-12)
        assert mix.sd == pytest.approx(math.sqrt(second - mean**2), rel=1e-12)

    def test_sample_law(self):
        mix = sim.AgeMixture()
        rng = np.random.default_rng(41)
        ages = mix.sample(rng, 200_000)
        assert ages.min() >= 30.0 and ages.max() <= 85.0
        assert abs(np.mean(ages < 65.0) - 0.25) < 0.005
        assert abs(np.mean((ages >= 65.0) & (ages < 75.0)) - 0.35) < 0.005
        assert abs(ages.mean() - mix.mean) < 3.5 * mix.sd / math.sqrt(200_000)

    def test_standardise(self):
        mix = sim.AgeMixture()
        assert mix.standardise(mix.mean) == pytest.approx(0.0, abs=1e-12)
        assert mix.standardise(mix.mean + mix.sd) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.AgeMixture(probs=(0.5, 0.3, 0.3))
        with pytest.raises(ValueError):
            sim.AgeMixture(bounds=((65, 30), (65, 75), (75, 85)))
        with pytest.raises(ValueError):
            sim.AgeMixture(bounds=((30, 65), (65, 75)), probs=(0.5, 0.3, 0.2))


class TestScenarios:
    def test_effect_length_validation(self):
        sc1_theta = (0.75, 1.75, 8.0)
        with pytest.raises(ValueError, match="alpha/beta"):
            sim.Scenario(groups=(sim.TruthGroup(sc1_theta, (1.0, 1.0), (1.0,) * 4),))
        two = sim.two_group_scenario(2)
        with pytest.raises(ValueError, match="3 entries"):
            dataclasses.replace(two, groups=(two.groups[0], sim.TruthGroup(
                (0.5, 1.5, 5.0), (0.7, 0.7, 0.5), (1.0,))))
        with pytest.raises(ValueError):
            sim.Scenario(frailty_family="weird")
        for bad_b in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"frailty variance .*got {bad_b!r}"):
                sim.Scenario(frailty_b=bad_b)
        with pytest.raises(ValueError, match="lognormal baseline needs \\(mu, sd\\)"):
            sim.Scenario(baseline="lognormal")
        with pytest.raises(ValueError):
            sim.Scenario(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            dataclasses.replace(two, censoring_target=("censoring", 1.0))
        with pytest.raises(ValueError):
            sim.Scenario(censoring_target=("events", 0.1))

    def test_group_structure_validation(self):
        two = sim.two_group_scenario(2)
        with pytest.raises(ValueError, match="truth group"):
            dataclasses.replace(two, groups=two.groups * 2)
        with pytest.raises(ValueError, match="per-group pair"):
            sim.Scenario(binary_probs=(("sex", 0.5), ("x1", (0.4, 0.8)), ("x2", 0.5)))
        with pytest.raises(ValueError, match="per-group pair"):
            dataclasses.replace(two, binary_probs=(("sex", (0.5, 0.5)), ("x1", 0.5)))
        with pytest.raises(ValueError, match=r"'x1': p must lie in \[0, 1\]"):
            dataclasses.replace(two, binary_probs=(("sex", 0.6), ("x1", (0.4, 1.2))))

    @pytest.mark.parametrize("binary", [(("sex", 0.5), ("sex", 0.5), ("x2", 0.5)),
                                        (("sex", 0.5), ("agec", 0.5), ("x2", 0.5))],
                             ids=["binary-twice", "binary-agec"])
    def test_repeated_covariate_name_is_refused(self, binary):
        # a repeated name used to give cohort.csv one column for two covariates
        with pytest.raises(ValueError, match=f"covariate {binary[1][0]!r} is named twice"):
            sim.Scenario(binary_probs=binary)

    def test_factories(self):
        s = sim.sc1_scenario(n=123, M=7, seed=9, b=0.25)
        assert (s.n, s.M, s.seed, s.frailty_b) == (123, 7, 9, 0.25)
        assert s.covariate_names == ("agec", "sex", "x1", "x2")
        assert sim.two_group_scenario(1).groups[0].theta == (0.5, 1.5, 3.0)
        assert sim.two_group_scenario(2).groups[0].theta == (0.5, 1.5, 0.75)
        with pytest.raises(ValueError):
            sim.two_group_scenario(3)

    def test_truth_accessors(self):
        s = sim.sc1_scenario()
        g = s.group_params()
        assert isinstance(g.theta, PGWParams)
        assert tuple(g.alpha) == (1.0, 1.0, 1.0, 1.0)
        fr = s.true_frailty()
        assert (fr.family, fr.b) == ("gamma", 0.5)
        two = sim.two_group_scenario(2)
        assert two.group_params(1).theta.gamma == 5.0
        assert two.group_params(0).theta.gamma == 0.75


class TestScenarioFiles:
    @pytest.mark.parametrize(
        "scenario",
        [
            sim.sc1_scenario(),
            sim.sc1_scenario(n=500, M=200, seed=20121),
            sim.sc1_scenario(b=0.0, seed=20122),
            dataclasses.replace(
                sim.sc1_scenario(), dropout_rate=0.019, baseline="pgw"
            ),
            sim.Scenario(
                name="standin",
                baseline="lognormal",
                groups=(sim.TruthGroup((0.3, 0.9), (1.0,) * 4, (1.0,) * 4),),
                frailty_family="ig",
                frailty_b=0.8,
                censoring_target=("censoring", 0.5),
            ),
            sim.two_group_scenario(1),
            sim.two_group_scenario(2, n=800, M=5, seed=77),
            dataclasses.replace(sim.two_group_scenario(2), frailty_family="gamma",
                                frailty_b=0.5),
            dataclasses.replace(
                sim.two_group_scenario(1),
                baseline="lognormal",
                groups=(sim.TruthGroup((0.3, 0.9), (0.7, 0.7, 0.25), (0.5, 0.5, 0.25)),
                        sim.TruthGroup((-0.5, 0.4), (0.7, 0.7, 0.5), (1.0, 0.5, 1.0))),
                binary_probs=(("sex", 0.6), ("x1", 0.3)),
            ),
        ],
        ids=["sc1", "sc1-small", "sc1-null", "fixed-dropout", "standin", "two1", "two2",
             "two-gamma", "two-lognormal"],
    )
    def test_round_trip(self, tmp_path, scenario):
        path = tmp_path / "scenario.ini"
        sim.save_scenario(path, scenario)
        assert sim.load_scenario(path) == scenario

    def test_load_errors(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[other]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="scenario"):
            sim.load_scenario(path)
        path.write_text("[scenario]\nname = x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"\[scenario\] is missing key"):
            sim.load_scenario(path)

    def _saved_without(self, tmp_path, scenario, section, key=None, value=None):
        """Save ``scenario`` without ``section`` or its ``key``, or with ``key = value``."""
        path = tmp_path / "cut.ini"
        sim.save_scenario(path, scenario)
        cp = configparser.ConfigParser()
        cp.read(path, encoding="utf-8")
        if key is None:
            cp.remove_section(section)
        elif value is None:
            cp.remove_option(section, key)
        else:
            cp.set(section, key, value)
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        return path

    def test_missing_section_is_named(self, tmp_path):
        path = self._saved_without(tmp_path, sim.sc1_scenario(), "truth")
        with pytest.raises(ValueError, match=r"missing \[truth\] section"):
            sim.load_scenario(path)

    @pytest.mark.parametrize(
        "scenario, section, key, value, message",
        [
            (sim.sc1_scenario(), "scenario", "n", None, r"\[scenario\] is missing key 'n'"),
            (sim.two_group_scenario(2), "truth.sex0", "theta", None,
             r"\[truth\.sex0\] is missing key 'theta'"),
            (sim.sc1_scenario(), "scenario", "n", "ten",
             r"\[scenario\] n: invalid literal for int\(\) with base 10: 'ten'"),
            (sim.sc1_scenario(), "covariates", "binary", "sex",
             r"\[covariates\] binary: expected 'name:p', got 'sex'"),
            (sim.sc1_scenario(), "age", "bounds", "30.0, 65.0:85.0",
             r"\[age\] bounds: not enough values to unpack"),
        ],
        ids=["n", "group-theta", "n-malformed", "binary-malformed", "age-band-malformed"],
    )
    def test_missing_key_is_named(self, tmp_path, scenario, section, key, value, message):
        path = self._saved_without(tmp_path, scenario, section, key, value)
        with pytest.raises(ValueError, match=message):
            sim.load_scenario(path)

    def test_missing_group_section_is_named(self, tmp_path):
        path = self._saved_without(tmp_path, sim.two_group_scenario(2), "truth.sex0")
        with pytest.raises(ValueError, match=r"missing \[truth\.sex0\] section"):
            sim.load_scenario(path)


class TestCohorts:
    def test_unresolved_scenario_is_refused(self, synth_table):
        # the drop-out rate is calibrated once, by resolve_dropout, not per cohort
        with pytest.raises(ValueError, match=r"call resolve_dropout\(s, table\) first"):
            sim.generate_cohort(sim.sc1_scenario(n=50), 0, synth_table)

    @pytest.mark.parametrize("name, args", [
        ("calibrate_dropout", ()), ("resolve_dropout", ()), ("generate_cohort", (0,)),
        ("run_aim1", ()), ("run_aim2", ()),
    ])
    def test_life_table_is_required(self, name, args):
        # no function loads s.life_table behind the caller's back
        with pytest.raises(TypeError, match="required positional argument: 'table'"):
            getattr(sim, name)(sim.sc1_scenario(n=50, M=1), *args)

    @pytest.mark.parametrize("seed", [20120, 20121])
    @pytest.mark.parametrize("M", [8, 1000])
    def test_replicate_seed_is_the_spawned_child(self, seed, M):
        s = sim.sc1_scenario(M=M, seed=seed)
        children = np.random.SeedSequence(seed).spawn(M)
        for r in (0, 3, M - 1):
            want, got = children[r], sim.replicate_seed(s, r)
            assert got.generate_state(8).tolist() == want.generate_state(8).tolist()
            assert (np.random.default_rng(got).random(16).tolist()
                    == np.random.default_rng(want).random(16).tolist())

    def test_deterministic_given_seed(self, synth_table):
        s = sim.resolve_dropout(sim.sc1_scenario(n=500), synth_table)
        d1 = sim.generate_cohort(s, 7, synth_table)
        d2 = sim.generate_cohort(s, 7, synth_table)
        assert np.array_equal(d1.time, d2.time)
        assert np.array_equal(d1.status, d2.status)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.age, d2.age)
        np.testing.assert_array_equal(d1.strata, d2.strata)
        d3 = sim.generate_cohort(s, 8, synth_table)
        assert not np.array_equal(d1.time, d3.time)

    def test_accounting_and_bounds(self, synth_table):
        s = sim.resolve_dropout(sim.sc1_scenario(n=1000), synth_table)
        d = sim.generate_cohort(s, 3, synth_table)
        assert set(np.unique(d.status)) <= {0, 1}
        events = int((d.status == 1).sum())
        censored = int((d.status == 0).sum())
        assert events + censored == 1000
        assert np.all(d.time > 0.0)
        assert np.all(d.time <= s.admin_censor + 1e-12)
        assert d.x_names == ("agec", "sex", "x1", "x2")
        assert d.stratum_names == ("sex",)
        # Life-table strata mirror the sex covariate.
        sex = d.x[:, 1]
        assert d.strata.tolist() == [[str(int(v))] for v in sex]

    @pytest.mark.parametrize(
        "change, first_age, message",
        [
            (dict(year=2018.0), 0, r"year 2018 \+ admin_censor 5 outlives .* 2010-2020"),
            (dict(age_mixture=sim.AgeMixture(bounds=((30.0, 65.0), (65.0, 75.0), (75.0, 97.0)))),
             0, r"top \[age\] bound 97 \+ admin_censor 5 outlives .* 0-100"),
            (dict(year=2005.0), 0, r"year 2005 precedes .* 2010-2020"),
            ({}, 40, r"bottom \[age\] bound 30 precedes .* 40-100"),
        ],
        ids=["year", "age", "year-before", "age-before"],
    )
    def test_follow_up_past_the_life_table_is_refused(self, synth_table, change, first_age,
                                                      message):
        # outside its coverage the table has no other-cause rates: past it
        # other-cause deaths would silently stop, and before it the first
        # rates would stand in; calibration and cohorts both refuse
        table = synth_table if first_age == 0 else build_table(
            lambda a, y, st: 0.01, range(first_age, 100), range(2010, 2020),
            [("0",), ("1",)], ("sex",))
        s = dataclasses.replace(sim.sc1_scenario(n=200, M=1), **change)
        with pytest.raises(ValueError, match=message):
            sim.generate_cohort(dataclasses.replace(s, dropout_rate=0.05), 0, table)
        with pytest.raises(ValueError, match=message):
            sim.calibrate_dropout(s, table)
        # follow-up ending exactly where the coverage ends is accepted
        edge = dataclasses.replace(sim.sc1_scenario(n=200, M=1), year=2015.0)
        edge = sim.resolve_dropout(edge, synth_table)
        assert sim.generate_cohort(edge, 0, synth_table).time.size == 200

    def test_recovery_scenario_censoring_share(self, synth_table):
        s = sim.resolve_dropout(sim.sc1_scenario(n=4000), synth_table)
        d = sim.generate_cohort(s, 11, synth_table)
        censored = 1.0 - d.status.mean()
        assert 0.35 <= censored <= 0.50

    def test_dropout_share_near_target(self, synth_table):
        s = dataclasses.replace(sim.sc1_scenario(), n=20_000)
        resolved = sim.resolve_dropout(s, synth_table)
        assert resolved.dropout_rate > 0.0
        d = sim.generate_cohort(resolved, 5, synth_table)
        dropout = float(np.mean((d.status == 0) & (d.time < s.admin_censor - 1e-9)))
        assert abs(dropout - s.censoring_target[1]) < 0.012

    def test_two_group_censoring_share(self, synth_table):
        s = sim.resolve_dropout(sim.two_group_scenario(2, n=5000), synth_table)
        d = sim.generate_cohort(s, 13, synth_table)
        assert abs((1.0 - d.status.mean()) - s.censoring_target[1]) < 0.03

    def test_two_group_covariate_law(self):
        s = sim.two_group_scenario(2)
        rng = np.random.default_rng(99)
        x, age = sim._draw_covariates(s, rng, 100_000)
        sex = x[:, 1]
        x1 = x[:, 2]
        assert abs(sex.mean() - 0.6) < 0.006
        assert abs(x1[sex == 1.0].mean() - 0.8) < 0.006
        assert abs(x1[sex == 0.0].mean() - 0.4) < 0.010
        assert abs(x[:, 0].mean()) < 0.012  # standardised age
        assert np.all((age >= 30.0) & (age <= 85.0))

    def test_stratum_mismatch_raises(self):
        table = build_table(
            lambda a, y, s: 0.01, range(0, 110), range(2000, 2030),
            [("a",), ("b",)], ("region",),
        )
        s = dataclasses.replace(sim.sc1_scenario(n=50), dropout_rate=0.0)
        with pytest.raises(ValueError, match="region"):
            sim.generate_cohort(s, 1, table)

    def test_no_background_no_dropout_matches_net_law(self, zero_wide):
        # With background mortality off and censoring pushed out, observed
        # times follow the frailty-marginal mixture law of the cohort's own
        # covariates; check with a Kolmogorov-Smirnov test at the 1% level.
        n = 6000
        s = sim.Scenario(
            name="ks", n=n, M=1, censoring_target=("dropout", 0.0), admin_censor=1e9, seed=314,
        )
        d = sim.generate_cohort(sim.resolve_dropout(s, zero_wide), 42, zero_wide)
        # The net-time law has a polynomial upper tail, so a handful of draws
        # can outlive even this horizon; they sit above every event time and
        # drop out of the comparison below without disturbing it.
        assert int(d.status.sum()) >= n - 10

        theta = PGWParams(*s.groups[0].theta)
        alpha = np.asarray(s.groups[0].alpha)
        beta = np.asarray(s.groups[0].beta)
        scale = np.exp(d.x @ alpha)
        factor = np.exp(d.x @ beta - d.x @ alpha)
        t = np.sort(d.time[d.status == 1])
        cdf = np.empty(t.size)
        for start in range(0, t.size, 750):
            block = t[start:start + 750]
            he = pgw_cum_hazard(np.outer(scale, block), theta) * factor[:, None]
            cdf[start:start + 750] = 1.0 - np.mean((1.0 + 0.5 * he) ** -2.0, axis=0)
        ranks = np.arange(1, t.size + 1)
        dist = max(
            float(np.max(np.abs(cdf - ranks / n))),
            float(np.max(np.abs(cdf - (ranks - 1) / n))),
        )
        assert dist < 1.63 / math.sqrt(n)


class TestDropoutCalibration:
    def test_zero_target_gives_zero_rate(self, synth_table):
        s = dataclasses.replace(sim.sc1_scenario(), censoring_target=("dropout", 0.0))
        assert sim.calibrate_dropout(s, synth_table) == 0.0

    def test_calibration_is_reproducible(self, synth_table):
        s = sim.sc1_scenario()
        r1 = sim.calibrate_dropout(s, synth_table)
        r2 = sim.calibrate_dropout(s, synth_table)
        assert r1 == r2 and r1 > 0.0

    def test_resolve_keeps_explicit_rate(self, synth_table):
        s = dataclasses.replace(sim.sc1_scenario(), dropout_rate=0.25)
        assert sim.resolve_dropout(s, synth_table) is s

    def test_two_group_rate_positive(self, synth_table):
        s = sim.two_group_scenario(2)
        assert sim.calibrate_dropout(s, synth_table) > 0.0

    def test_each_table_gets_its_own_rate(self, synth_table, zero_wide):
        s = sim.sc1_scenario(seed=4242)
        with_deaths = sim.resolve_dropout(s, synth_table).dropout_rate
        without = sim.resolve_dropout(s, zero_wide).dropout_rate
        assert with_deaths != without
        assert with_deaths == sim.calibrate_dropout(s, synth_table)
        assert without == sim.calibrate_dropout(s, zero_wide)

    def test_target_met_by_administrative_censoring_gives_zero_rate(self, synth_table):
        # sc1 censors well over 1% of its cohort at the horizon alone
        s = dataclasses.replace(sim.sc1_scenario(), censoring_target=("censoring", 0.01))
        assert sim.calibrate_dropout(s, synth_table) == 0.0

    @pytest.mark.parametrize("share", ["dropout", "censoring"])
    def test_unreachable_target_names_itself(self, synth_table, share):
        s = dataclasses.replace(sim.sc1_scenario(), censoring_target=(share, 0.99999999999))
        with pytest.raises(ValueError, match=rf"^{share} target 0\.99999999999 is out of "
                                             r"reach \(6\.1e-08 short at rate 1e4\)$"):
            sim.calibrate_dropout(s, synth_table)


def _monotone_gaps(rng, count):
    """(f, a, b) with f monotone on [a, b] and one sign change inside."""
    shapes = [math.log, math.sqrt, math.atan, lambda x: x / (1.0 + x),
              lambda x: -math.exp(-x), lambda x: x**3]
    for _ in range(count):
        if rng.random() < 0.3:  # the calibration's own form on a random pilot
            t = rng.exponential(10.0 ** rng.uniform(-1.0, 1.0), size=int(rng.integers(5, 200)))
            target = float(rng.uniform(0.01, 0.95))
            yield (lambda r, t=t, c=target: float(np.mean(-np.expm1(-r * t))) - c), 1e-10, 1e4
            continue
        if rng.random() < 0.2:  # a clipped ramp: flat ends make brentq.c divide by zero
            r, k, c = (10.0 ** rng.uniform(lo, hi) for lo, hi in ((-3, 3), (-2, 4), (-8, 0)))
            yield (lambda x, r=r, k=k, c=c: max(min(k * (x - r), c), -c)), 1e-10, 1e4
            continue
        g = shapes[int(rng.integers(len(shapes)))]
        root = 10.0 ** rng.uniform(-6.0, 3.0)
        a = root * 10.0 ** -rng.uniform(0.0, 4.0) if rng.random() < 0.95 else root
        b = root * 10.0 ** rng.uniform(0.01, 4.0)
        k = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-3.0, 3.0)
        yield (lambda x, g=g, r=root, k=k: k * (g(x) - g(r))), a, b


class TestBrentPort:
    """``simulation._brentq`` returns ``scipy.optimize.brentq``'s root bit for bit."""

    TOLERANCES = [(1e-12, 1e-12), (2e-12, 4 * float(np.finfo(float).eps)), (1e-6, 1e-9)]

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parents[1] / "demos" / "scenarios").glob("*.ini")),
        ids=lambda p: p.stem)
    def test_shipped_calibrations(self, path, monkeypatch):
        port, roots = sim._brentq, []

        def both(f, a, b, xtol, rtol, maxiter=100):
            roots.append((port(f, a, b, xtol, rtol, maxiter).hex(),
                          optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter).hex()))
            return float.fromhex(roots[-1][0])

        monkeypatch.setattr(sim, "_brentq", both)
        s = dataclasses.replace(sim.load_scenario(path), dropout_rate=None)
        assert sim.calibrate_dropout(s, sim.resolve_life_table(s.life_table)) > 0.0
        assert len(roots) == 1 and roots[0][0] == roots[0][1]

    def test_seeded_sweep_of_monotone_gaps(self):
        rng = np.random.default_rng(73)
        for i, (f, a, b) in enumerate(_monotone_gaps(rng, 1500)):
            xtol, rtol = self.TOLERANCES[i % len(self.TOLERANCES)]
            want = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
            assert sim._brentq(f, a, b, xtol, rtol).hex() == want.hex(), (i, a, b)

    def test_same_sign_at_both_ends_is_refused(self):
        for f, a, b in [(lambda x: x - 5.0, 0.0, 1.0), (lambda x: 5.0 - x, 0.0, 1.0)]:
            with pytest.raises(ValueError, match="different signs"):
                optimize.brentq(f, a, b)
            with pytest.raises(ValueError, match="different signs"):
                sim._brentq(f, a, b, 1e-12, 1e-12)

    def test_step_budget_runs_out_where_scipys_does(self):
        f = lambda x: math.atan(x - 0.3)  # noqa: E731
        outcomes = []
        for maxiter in range(1, 60):
            try:
                want = optimize.brentq(f, 0.0, 1e4, xtol=1e-12, rtol=1e-12, maxiter=maxiter)
            except RuntimeError:
                with pytest.raises(RuntimeError, match=f"in {maxiter} steps"):
                    sim._brentq(f, 0.0, 1e4, 1e-12, 1e-12, maxiter)
                outcomes.append("raised")
                continue
            assert sim._brentq(f, 0.0, 1e4, 1e-12, 1e-12, maxiter).hex() == want.hex()
            outcomes.append("root")
        assert outcomes[0] == "raised" and outcomes[-1] == "root"


class TestTruthCurves:
    def test_reference_curve_closed_form(self):
        s = sim.sc1_scenario()
        grid = np.linspace(0.0, 5.0, 41)
        curve = sim.true_net_survival_curve(s, grid, reference=True)
        h0 = pgw_cum_hazard(grid, PGWParams(0.75, 1.75, 8.0))
        np.testing.assert_allclose(curve.estimate, (1.0 + 0.5 * h0) ** -2.0, rtol=1e-12)
        assert curve.estimate[0] == 1.0

    def test_population_truth_matches_event_draws(self):
        # Large-sample empirical survival of simulated net event times agrees
        # with the covariate-averaged analytic curve.
        s = sim.sc1_scenario()
        grid = np.linspace(0.0, 5.0, 26)
        truth = sim.true_net_survival_curve(s, grid).estimate
        theta = PGWParams(*s.groups[0].theta)
        alpha = np.asarray(s.groups[0].alpha)
        beta = np.asarray(s.groups[0].beta)
        rng = np.random.default_rng(915)
        counts = np.zeros(grid.size)
        chunk, reps = 200_000, 5
        for _ in range(reps):
            x, _ = sim._draw_covariates(s, rng, chunk)
            v = rng.gamma(1.0 / s.frailty_b, s.frailty_b, size=chunk)
            u = rng.random(chunk)
            eta_w = x @ alpha
            q = -np.log1p(-u) / (v * np.exp(x @ beta - eta_w))
            tnet = pgw_quantile(q, theta) * np.exp(-eta_w)
            counts += (tnet[:, None] > grid[None, :]).sum(axis=0)
        emp = counts / (chunk * reps)
        assert float(np.max(np.abs(emp - truth))) <= 0.005
        assert truth[0] == 1.0

    def test_two_group_truth_mixture(self):
        s = sim.two_group_scenario(2)
        grid = np.linspace(0.0, 5.0, 21)
        curves = sim.two_group_true_curves(s, grid)
        mix = 0.6 * curves["sex1"].estimate + 0.4 * curves["sex0"].estimate
        np.testing.assert_allclose(curves["population"].estimate, mix, rtol=1e-14)
        for curve in curves.values():
            assert curve.estimate[0] == 1.0
            assert np.all(np.diff(curve.estimate) <= 1e-12)


class TestRecoveryStudy:
    def test_single_replicate_is_degenerate(self, synth_table):
        s = sim.sc1_scenario(n=600, M=1, seed=977)
        r = sim.run_aim1(s, synth_table)
        assert (r.table.analysed, r.table.excluded) == (1, 0)

        resolved = sim.resolve_dropout(s, synth_table)
        child = np.random.SeedSequence(s.seed).spawn(1)[0]
        data = sim.generate_cohort(resolved, child, synth_table)
        names = s.covariate_names
        spec = ModelSpec("pgw", "gamma", CovariateMapping(names, names))
        res = fit(data, synth_table, spec)
        np.testing.assert_array_equal(r.estimates[0], res.natural_estimates())
        np.testing.assert_array_equal(r.table.mean_mle, r.estimates[0])
        np.testing.assert_array_equal(
            r.table.bias, r.estimates[0] - r.table.true_values
        )
        assert np.all(np.isnan(r.table.emp_sd))
        assert set(np.unique(r.table.coverage)) <= {0.0, 1.0}
        assert r.table.names == (
            "sigma", "nu", "gamma",
            "alpha:agec", "alpha:sex", "alpha:x1", "alpha:x2",
            "beta:agec", "beta:sex", "beta:x1", "beta:x2", "b",
        )

    def test_repeat_runs_are_identical(self, synth_table):
        s = sim.sc1_scenario(n=300, M=3, seed=31)
        r1 = sim.run_aim1(s, synth_table)
        r2 = sim.run_aim1(s, synth_table)
        np.testing.assert_array_equal(r1.estimates, r2.estimates)
        np.testing.assert_array_equal(r1.std_errors, r2.std_errors)
        np.testing.assert_array_equal(r1.table.coverage, r2.table.coverage)
        assert r1.table.excluded == r2.table.excluded

    def test_fit_both_and_reference_curves(self, synth_table):
        # every recovery study records its reference curves on default_grid()
        grid = default_grid()
        s = sim.sc1_scenario(n=300, M=2, seed=814)
        r = sim.run_aim1(s, synth_table, fit_both=True)
        np.testing.assert_array_equal(r.reference_grid, grid)
        assert r.aic_frailty is not None and r.aic_classical is not None
        assert len(r.aic_frailty) == len(r.aic_classical) <= 2
        assert np.all(np.isfinite(r.aic_frailty))
        assert r.reference_curves.shape == (r.table.analysed, grid.size)
        assert np.all(r.reference_curves[:, 0] == 1.0)
        assert np.all(np.diff(r.reference_curves, axis=1) <= 1e-12)

    def test_every_25th_replicate_is_reported_on_stderr(self, synth_table, capsys):
        s = dataclasses.replace(sim.sc1_scenario(n=20, M=25, seed=3), dropout_rate=0.0)
        rows, excluded = sim._replicates(s, synth_table, lambda cohort: {},
                                         lambda fits: len(fits))
        assert (rows, excluded) == ([0] * 25, 0)
        out, err = capsys.readouterr()
        assert (out, err) == ("", "  replicate 25/25 done\n")

    def test_a_fit_that_raises_excludes_its_replicate(self, synth_table, monkeypatch):
        # fit is looked up at call time, as the benchmark's probe relies on
        calls = []

        def fit_raising_once(data, table, spec):
            calls.append(data.n)
            if len(calls) == 2:
                raise ValueError("dataset has no events; the model is not identifiable")
            return "fitted"

        monkeypatch.setattr(sim, "fit", fit_raising_once)
        s = dataclasses.replace(sim.sc1_scenario(n=20, M=3, seed=3), dropout_rate=0.0)
        rows, excluded = sim._replicates(s, synth_table,
                                         lambda cohort: {"main": (cohort, ModelSpec())},
                                         lambda fits: fits["main"][1])
        assert calls == [20, 20, 20]
        assert (rows, excluded) == (["fitted", "fitted"], 1)

    def test_all_excluded_raises(self, synth_table, monkeypatch):
        # one iteration and one restart leave every fit unconverged
        monkeypatch.setattr(inference, "_MAXITER", 1)
        monkeypatch.setattr(inference, "_RESTARTS", 1)
        s = sim.sc1_scenario(n=200, M=2, seed=4)
        with pytest.raises(RuntimeError, match="excluded"):
            sim.run_aim1(s, synth_table)

    def test_metrics_csv_round_trip(self, synth_table, tmp_path):
        s = sim.sc1_scenario(n=300, M=2, seed=55)
        r = sim.run_aim1(s, synth_table)
        path = tmp_path / "metrics.csv"
        r.table.write_csv(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["parameter", "true", "mean_mle", "bias"]
        assert len(lines) == 1 + len(r.table.names)
        row = lines[1].split(",")
        assert row[0] == "sigma"
        assert float(row[2]) == r.table.mean_mle[0]
        assert "sc1" in r.table.summary()


@pytest.fixture(scope="module")
def small_run(synth_table):
    s = sim.two_group_scenario(2, n=800, M=2, seed=606)
    return sim.run_aim2(s, synth_table)


class TestTwoGroupStudy:
    def test_keys_and_ranges(self, small_run):
        expected = {
            ("pooled", model, group)
            for model in ("classical", "frailty")
            for group in ("population", "sex1", "sex0")
        } | {
            ("stratified", model, group)
            for model in ("classical", "frailty")
            for group in ("sex1", "sex0")
        }
        assert set(small_run.mean_curves) == expected
        assert set(small_run.mean_sup_dev) == expected
        assert small_run.analysed + small_run.excluded == 2
        for vals in small_run.mean_curves.values():
            assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))
            assert np.all(np.diff(vals) <= 1e-12)
        for key in expected:
            assert small_run.sup_dev_of_mean(key) <= small_run.mean_sup_dev[key] + 1e-12

    def test_repeat_runs_are_identical(self, small_run, synth_table):
        again = sim.run_aim2(small_run.scenario, synth_table)
        assert again.analysed == small_run.analysed
        for key, val in small_run.mean_sup_dev.items():
            assert again.mean_sup_dev[key] == val

    def test_csv_outputs(self, small_run, tmp_path):
        summary = tmp_path / "summary.csv"
        curves = tmp_path / "curves.csv"
        small_run.write_summary_csv(summary)
        small_run.write_curves_csv(curves)
        lines = summary.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("analysis,model,group,mean_sup_dev")
        assert len(lines) == 1 + len(small_run.mean_sup_dev)
        first = lines[1].split(",")
        key = (first[0], first[1], first[2])
        assert float(first[3]) == small_run.mean_sup_dev[key]
        curve_lines = curves.read_text(encoding="utf-8").strip().splitlines()
        assert len(curve_lines) == 1 + len(small_run.mean_curves) * small_run.grid.size

    def test_stratified_tracks_subgroup_truth(self, synth_table):
        # Mildly different baselines: per-group fits recover each group's
        # net-survival curve closely even though x1 is omitted.
        s = sim.two_group_scenario(1, n=3000, M=30, seed=71)
        r = sim.run_aim2(s, synth_table)
        assert r.analysed >= 25
        for model in ("classical", "frailty"):
            for group in ("sex1", "sex0"):
                assert r.sup_dev_of_mean(("stratified", model, group)) <= 0.02
