"""Cohort-average net-survival curves and Monte-Carlo confidence bands."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from exhaz import inference as inf
from exhaz import model as mdl
from exhaz import netsurvival as ns
from exhaz.baseline import LogNormalParams, PGWParams, family_of_params

from conftest import simulate_ph_cohort


@pytest.fixture(scope="module")
def cohort(zero_table):
    return simulate_ph_cohort(600, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                              b=0.5, seed=31)


@pytest.fixture(scope="module")
def fit_classical(cohort, zero_table):
    return inf.fit(cohort, zero_table, inf.ModelSpec("pgw", "none"))


@pytest.fixture(scope="module")
def fit_gamma(cohort, zero_table):
    return inf.fit(cohort, zero_table, inf.ModelSpec("pgw", "gamma"))


def one_curve(data, fit, grid=None, mask=None, label="population", **kw):
    """The single curve of a one-group call."""
    (curve,) = ns.net_survival_mc_ci(data, fit, grid, [(label, mask)], **kw)
    return curve


class TestPointCurves:
    def test_starts_at_one(self, cohort, fit_classical, fit_gamma):
        for fit in (fit_classical, fit_gamma):
            (curve,) = ns.net_survival_mc_ci(cohort, fit)
            assert curve.time[0] == 0.0
            assert curve.estimate[0] == 1.0

    def test_default_grid(self, cohort, fit_classical):
        (curve,) = ns.net_survival_mc_ci(cohort, fit_classical)
        assert curve.time.shape == (101,)
        assert curve.time[-1] == 5.0
        assert curve.lower is None and curve.upper is None
        assert curve.label == "population"

    def test_single_record_equals_individual_curve(self, cohort, fit_gamma):
        idx = int(np.argmax(cohort.time))  # full-follow-up record keeps the grid valid
        one = cohort.subset(np.arange(cohort.n) == idx)
        grid = np.linspace(0.0, 4.0, 21)
        curve = one_curve(one, fit_gamma, grid)
        expected = mdl.marginal_net_survival(
            grid, one.x[0], one.w[0], fit_gamma.params, fit_gamma.frailty
        )
        np.testing.assert_allclose(curve.estimate, expected, rtol=1e-14)

    def test_extreme_pair_averages_to_half(self, fit_classical):
        # one record with essentially no excess hazard, one with huge excess
        # hazard: the average curve sits at 1/2
        data = inf.Dataset(
            time=[5.0, 5.0],
            status=[1, 1],
            columns={"x0": [-10.0, 10.0], "x1": [0.0, 0.0]},
            x_names=("x0", "x1"),
            w_names=(),
            age=[60.0, 60.0],
            year=[2012.0, 2012.0],
            strata=((), ()),
        )
        # unit exponential baseline (log sigma = log nu = log gamma = 0), beta = (5, 0)
        crafted = dataclasses.replace(fit_classical, psi=np.array([0.0, 0.0, 0.0, 5.0, 0.0]))
        curve = one_curve(data, crafted, np.array([0.0, 2.0, 4.0]))
        assert curve.estimate[0] == 1.0
        np.testing.assert_allclose(curve.estimate[1:], 0.5, atol=1e-6)

    def test_monotone_nonincreasing_exactly(self, cohort, fit_classical, fit_gamma):
        for fit in (fit_classical, fit_gamma):
            curve = one_curve(cohort, fit)
            assert np.all(np.diff(curve.estimate) <= 0.0)
            assert np.all((curve.estimate >= 0.0) & (curve.estimate <= 1.0))

    def test_partition_decomposition(self, cohort, fit_gamma):
        mask = cohort.x[:, 1] == 1.0
        pop, c1, c0 = ns.net_survival_mc_ci(
            cohort, fit_gamma, groups=[("population", None), ("g1", mask), ("g0", ~mask)]
        )
        assert (pop.label, c1.label, c0.label) == ("population", "g1", "g0")
        n1, n0 = int(mask.sum()), int((~mask).sum())
        combined = (n1 * c1.estimate + n0 * c0.estimate) / (n1 + n0)
        np.testing.assert_allclose(combined, pop.estimate, atol=1e-12)

    def test_all_selector_equals_population(self, cohort, fit_classical):
        pop = one_curve(cohort, fit_classical)
        sub = one_curve(cohort, fit_classical, mask=np.ones(cohort.n, dtype=bool))
        np.testing.assert_array_equal(sub.estimate, pop.estimate)

    def test_group_curve_equals_curve_of_its_rows(self, cohort, fit_gamma):
        # a masked group averages the same per-subject values as a cohort of
        # just its rows
        mask = cohort.x[:, 1] == 0.0
        _, masked = ns.net_survival_mc_ci(
            cohort, fit_gamma, groups=[("population", None), ("women", mask)]
        )
        alone = one_curve(cohort.subset(mask), fit_gamma, label="women")
        np.testing.assert_array_equal(masked.estimate, alone.estimate)

    def test_frailty_dominates_classical_at_fixed_parameters(self, cohort, fit_classical):
        # Jensen: for identical excess-hazard parameters, averaging over the
        # frailty can only raise net survival
        with_frailty = dataclasses.replace(
            fit_classical, spec=inf.ModelSpec("pgw", "gamma"),
            psi=np.append(fit_classical.psi, math.log(0.7)),
        )
        base = one_curve(cohort, fit_classical)
        mixed = one_curve(cohort, with_frailty)
        assert np.all(mixed.estimate - base.estimate >= -1e-12)
        assert np.all(mixed.estimate[1:] > base.estimate[1:])

    def test_model_tag_and_label(self, cohort, fit_gamma):
        curve = one_curve(cohort, fit_gamma, mask=cohort.x[:, 1] == 1.0, label="men")
        assert curve.model == "pgw+gamma"
        assert curve.label == "men"

    def test_errors(self, cohort, fit_classical):
        empty = cohort.subset(np.zeros(cohort.n, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            ns.net_survival_mc_ci(empty, fit_classical)
        with pytest.raises(ValueError, match="group 'nobody' picks no rows"):
            one_curve(cohort, fit_classical, mask=np.zeros(cohort.n, dtype=bool),
                      label="nobody")
        with pytest.raises(ValueError, match=r"group 'short': mask has shape \(599,\), "
                                             r"but the dataset has 600 rows"):
            ns.net_survival_mc_ci(cohort, fit_classical, groups=[
                ("population", None), ("short", np.ones(cohort.n - 1, dtype=bool))])
        # row indices used to be cast to a mask of every row but row 0
        with pytest.raises(ValueError, match="group 'g': mask must be booleans, one a row, "
                                             "got int64"):
            one_curve(cohort, fit_classical, mask=np.arange(cohort.n), label="g")
        with pytest.raises(ValueError, match="beyond"):
            ns.net_survival_mc_ci(cohort, fit_classical, np.array([0.0, 80.0]))
        with pytest.raises(ValueError, match="nondecreasing"):
            ns.net_survival_mc_ci(cohort, fit_classical, np.array([2.0, 1.0]))
        for grid in (np.array([]), np.array([[0.0, 1.0]])):
            with pytest.raises(ValueError) as info:
                ns.net_survival_mc_ci(cohort, fit_classical, grid)
            assert str(info.value) == "grid must be a non-empty 1-d array of times"
        with pytest.raises(ValueError) as info:
            ns.net_survival_mc_ci(cohort, fit_classical, np.array([-0.5, 1.0]))
        assert str(info.value) == "grid times must be >= 0"
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ns.NetSurvivalCurve(np.array([0.0]), np.array([1.5]))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(time=[0.0, math.nan]), "time is not finite at index 1"),
        (dict(estimate=[math.nan, 0.5]), "estimate is not finite at index 0"),
        (dict(estimate=[1.0, math.inf]), "estimate is not finite at index 1"),
        (dict(lower=[0.9], upper=[1.0, 0.6]), r"lower has shape \(1,\), but time has \(2,\)"),
        (dict(lower=[0.9, 0.4], upper=[1.0, 0.6, 0.7]), "upper has shape"),
        (dict(lower=[0.9, -0.1], upper=[1.0, 0.6]), r"lower must lie in \[0, 1\]"),
        (dict(lower=[0.9, 0.4], upper=[1.2, 0.6]), r"upper must lie in \[0, 1\]"),
        (dict(lower=[0.9, math.nan], upper=[1.0, 0.6]), "lower is not finite at index 1"),
        (dict(lower=[0.9, 0.7], upper=[1.0, 0.6]), "lower band exceeds upper band"),
        (dict(lower=[0.9, 0.4]), "lower and upper bands must be given together"),
        (dict(upper=[1.0, 0.6]), "lower and upper bands must be given together"),
        (dict(time=[0.0, math.nan], estimate=[math.nan, 0.5], lower=[2.0], upper=[-1.0]),
         "time is not finite"),
    ], ids=["nan-time", "nan-estimate", "inf-estimate", "short-lower", "long-upper",
            "negative-lower", "upper-above-one", "nan-lower", "crossed-bands",
            "lower-alone", "upper-alone", "all-at-once"])
    def test_invalid_curve_names_the_field(self, kwargs, match):
        # every comparison with nan is false, so a range check alone let nan through
        with pytest.raises(ValueError, match=match):
            ns.NetSurvivalCurve(**{"time": [0.0, 1.0], "estimate": [1.0, 0.5], **kwargs})

    def test_non_finite_grid_time_is_named(self, cohort, fit_gamma):
        # a nan time used to pass every comparison and, with bands, to be
        # reported only after 10x the draws as an ill-conditioned covariance
        for bad, name in ((math.nan, "nan"), (math.inf, "inf")):
            with pytest.raises(ValueError, match=f"grid time 1 is {name}"):
                ns.net_survival_mc_ci(cohort, fit_gamma, np.array([0.0, bad, 1.0]),
                                      draws=100, seed=1)
            with pytest.raises(ValueError, match=f"grid time 1 is {name}"):
                ns.net_survival_mc_ci(cohort, fit_gamma, np.array([0.0, bad, 1.0]))


def _whole_matrix(x, w, grid, g, fr):
    """The individual curves as one (m, n) expression, one row per grid time."""
    fam = family_of_params(g.theta)
    eta_w = w @ g.alpha if g.alpha.shape[0] else np.zeros(w.shape[0])
    eta_x = x @ g.beta if g.beta.shape[0] else np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        he = fam.cum_hazard_grid(grid, eta_w, g.theta) * np.exp(eta_x - eta_w)
        return np.exp(-he) if fr.family == "none" else mdl.laplace(fr, he)


THETAS = pytest.mark.parametrize("theta", [PGWParams(1.5, 1.1, 1.3), LogNormalParams(0.2, 0.9)],
                                 ids=["pgw", "lognormal"])


class TestRowBlocks:
    @THETAS
    @pytest.mark.parametrize("fr", [mdl.FrailtySpec("none"), mdl.FrailtySpec("gamma", 0.7),
                                    mdl.FrailtySpec("ig", 0.7),
                                    mdl.FrailtySpec("gamma", mdl.B_ZERO_THRESHOLD / 10)],
                             ids=["none", "gamma", "ig", "gamma-b0"])
    @pytest.mark.parametrize("m", [1, 101])
    def test_blocks_equal_the_whole_matrix_bit_for_bit(self, theta, fr, m):
        grid = np.array([2.5]) if m == 1 else np.linspace(0.0, 5.0, m)
        cols = max(1, ns._BLOCK // m)
        r = np.random.default_rng(m)
        g = mdl.GHParams(theta, alpha=[0.4], beta=[0.5, -0.3, 0.8])
        for n in (1, cols - 1, cols + 1, 3 * cols + 5):
            x = r.normal(size=(n, 3))
            w = x[:, :1].copy()
            mask = r.random(n) < 0.5
            mask[0] = True
            rows = np.flatnonzero(mask)
            whole = _whole_matrix(x, w, grid, g, fr)
            out = np.full((m, n), np.nan)
            np.testing.assert_array_equal(ns._curve_values(x, w, grid, g, fr),
                                          whole.sum(axis=1) / n)
            means = ns._group_means(ns._individual_curves(x, w, grid, g, fr, out),
                                    [None, rows])
            np.testing.assert_array_equal(out, whole)
            np.testing.assert_array_equal(means[0], whole.sum(axis=1) / n)
            group = np.ascontiguousarray(whole[:, mask])
            np.testing.assert_array_equal(means[1], group.sum(axis=1) / rows.shape[0])
            # a second call overwrites the work array, never the first result
            first = means.copy()
            other = mdl.GHParams(theta, alpha=[-0.2], beta=[1.0, 0.1, -0.5])
            again = ns._group_means(ns._individual_curves(x, w, grid, other, fr, out),
                                    [None, rows])
            np.testing.assert_array_equal(means, first)
            np.testing.assert_array_equal(out, _whole_matrix(x, w, grid, other, fr))
            assert not np.shares_memory(means, out) and not np.shares_memory(again, out)

    @THETAS
    @pytest.mark.parametrize("fr", [mdl.FrailtySpec("none"), mdl.FrailtySpec("gamma", 0.7),
                                    mdl.FrailtySpec("ig", 0.7)], ids=["none", "gamma", "ig"])
    def test_individual_curves_match_the_point_formulas(self, theta, fr):
        # the log-time kernel against H0(t e^{w'alpha}) e^{x'beta - w'alpha}
        # evaluated subject by subject
        grid = np.linspace(0.0, 5.0, 26)
        r = np.random.default_rng(17)
        g = mdl.GHParams(theta, alpha=[0.4, -0.3], beta=[0.5, -0.3, 0.8])
        n = ns._BLOCK // grid.shape[0] + 7  # two blocks
        x = r.normal(size=(n, 3))
        w = np.column_stack([x[:, 0], r.normal(size=n)])
        out = np.empty((grid.shape[0], n))
        ns._individual_curves(x, w, grid, g, fr, out)
        expected = np.column_stack([mdl.marginal_net_survival(grid, x[i], w[i], g, fr)
                                    for i in range(n)])
        assert np.all(out[0] == 1.0)
        np.testing.assert_allclose(out, expected, rtol=1e-13)


class TestTimeZero:
    """H_E(0) = 0 for every subject, also where e^{x'beta - w'alpha} overflows
    (H0(0) * inf used to give nan)."""

    @pytest.mark.parametrize("fr", [mdl.FrailtySpec("none"), mdl.FrailtySpec("gamma", 0.7),
                                    mdl.FrailtySpec("ig", 0.7)], ids=["none", "gamma", "ig"])
    def test_an_overflowing_scale_leaves_time_zero_at_one(self, fr):
        grid = np.array([0.0, 0.0, 1.0, 2.5])
        g = mdl.GHParams(PGWParams(1.5, 1.1, 1.3), alpha=[0.2], beta=[1.0])
        x, w = np.array([[0.5], [800.0]]), np.array([[0.3], [0.0]])
        out = ns._individual_curves(x, w, grid, g, fr, np.empty((4, 2)))
        assert np.all(out[:2] == 1.0)
        np.testing.assert_array_equal(out[:, 0], _whole_matrix(x[:1], w[:1], grid, g, fr)[:, 0])
        np.testing.assert_array_equal(out[2:, 1], [0.0, 0.0])

    def test_gamma_band_draws_with_an_overflowing_subject_are_kept(self, cohort, fit_gamma):
        assert fit_gamma.params.beta[0] > 0.1
        x0 = cohort.columns["x0"].copy()
        x0[0] = 5000.0  # e^{x'beta} overflows at the estimate and at every draw
        data = dataclasses.replace(cohort, columns={**cohort.columns, "x0": x0})
        grid = np.linspace(0.0, 2.0, 5)
        (curve,) = ns.net_survival_mc_ci(data, fit_gamma, grid, draws=100, seed=3)
        assert curve.rejected_draws == 0
        assert curve.estimate[0] == curve.lower[0] == curve.upper[0] == 1.0

    def test_ig_band_draws_with_an_overflowing_subject_are_kept(self, cohort, fit_gamma):
        # the gamma fit's estimate and covariance read as an inverse-Gaussian
        # fit; L(inf) used to be nan, so its point curve was refused as not finite
        fit_ig = dataclasses.replace(fit_gamma, spec=inf.ModelSpec("pgw", "ig"), label="")
        x0 = cohort.columns["x0"].copy()
        x0[0] = 5000.0
        data = dataclasses.replace(cohort, columns={**cohort.columns, "x0": x0})
        (curve,) = ns.net_survival_mc_ci(data, fit_ig, np.linspace(0.0, 2.0, 5), draws=100,
                                         seed=3)
        assert curve.rejected_draws == 0
        assert np.all(np.isfinite(curve.estimate)) and curve.estimate[0] == 1.0


class TestMonteCarloBands:
    def test_band_geometry(self, cohort, fit_gamma):
        (curve,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=300, seed=5)
        assert curve.lower is not None and curve.upper is not None
        assert np.all(curve.lower <= curve.upper)
        assert np.all((curve.lower >= 0.0) & (curve.upper <= 1.0))
        # 95% bands around a converged fit enclose the plug-in curve
        assert np.all(curve.lower <= curve.estimate + 1e-12)
        assert np.all(curve.estimate <= curve.upper + 1e-12)
        assert np.all(np.diff(curve.estimate) <= 0.0)
        assert np.all(np.diff(curve.lower) <= 1e-15)
        assert np.all(np.diff(curve.upper) <= 1e-15)

    def test_deterministic_given_seed(self, cohort, fit_gamma):
        (a,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=200, seed=9)
        (b,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=200, seed=9)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        (c,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=200, seed=10)
        assert not np.array_equal(a.lower, c.lower)

    def test_levels_nest_for_shared_draws(self, cohort, fit_gamma):
        (wide,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=200, seed=11, level=0.9)
        (narrow,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=200, seed=11, level=0.5)
        assert np.all(wide.lower <= narrow.lower + 1e-15)
        assert np.all(narrow.upper <= wide.upper + 1e-15)

    def test_degenerate_covariance_collapses_bands(self, cohort, fit_gamma):
        tiny = dataclasses.replace(fit_gamma, covariance=fit_gamma.covariance * 1e-12)
        (curve,) = ns.net_survival_mc_ci(cohort, tiny, draws=150, seed=12)
        assert float(np.max(curve.upper - curve.lower)) < 1e-4
        assert float(np.max(np.abs(curve.estimate - curve.lower))) < 1e-4

    def test_subgroup_bands(self, cohort, fit_gamma):
        curve = one_curve(cohort, fit_gamma, mask=cohort.x[:, 1] == 0.0, label="women",
                          draws=150, seed=13)
        assert curve.label == "women"
        assert np.all(curve.lower <= curve.upper)

    def test_groups_share_the_population_draws(self, cohort, fit_gamma):
        # adding groups to a call leaves its population curve and bands as
        # they are, bit for bit
        men = cohort.x[:, 1] == 1.0
        (alone,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=150, seed=14)
        pop, m, f = ns.net_survival_mc_ci(
            cohort, fit_gamma, draws=150, seed=14,
            groups=[("population", None), ("men", men), ("women", ~men)],
        )
        for field in ("time", "estimate", "lower", "upper"):
            np.testing.assert_array_equal(getattr(pop, field), getattr(alone, field))
        assert (m.label, f.label) == ("men", "women")
        # each group's band is that group's quantile over the same draws
        (m_alone,) = ns.net_survival_mc_ci(cohort, fit_gamma, draws=150, seed=14,
                                            groups=[("men", men)])
        np.testing.assert_array_equal(m.lower, m_alone.lower)
        np.testing.assert_array_equal(m.upper, m_alone.upper)

    def test_draw_poisoned_for_one_group_is_dropped_for_all(self, cohort, fit_gamma,
                                                            monkeypatch):
        # draws 2 and 6 come back non-finite for the "men" group only; the
        # population band must drop them too.  Draws are poisoned by index in
        # their batch, which does not depend on which worker evaluates them:
        # the first batch holds the 100 requested draws, the second the 2
        # drawn again
        men = cohort.x[:, 1] == 1.0
        real = ns._fill_draws
        returned = {}  # (batch size, index in the batch) -> the draw's group means

        def poison(x, w, grid, rows, params, dest, work, draw_ids):
            real(x, w, grid, rows, params, dest, work, draw_ids)
            for k in draw_ids:
                if len(params) == 100 and k in (2, 6):
                    dest[k, 1, -1] = np.nan
                returned[len(params), k] = dest[k].copy()

        monkeypatch.setattr(ns, "_fill_draws", poison)
        pop, m = ns.net_survival_mc_ci(cohort, fit_gamma, draws=100, seed=15,
                                       groups=[("population", None), ("men", men)])
        poisoned = [(100, 2), (100, 6)]
        assert set(returned) == {(100, k) for k in range(100)} | {(2, 0), (2, 1)}
        assert all(np.all(np.isfinite(returned[key][0])) for key in poisoned)
        kept = np.stack([v for key, v in returned.items() if key not in poisoned])
        tail = (1.0 - 0.95) / 2.0  # as the function computes it, not the literal 0.025
        for g, curve in enumerate((pop, m)):
            np.testing.assert_array_equal(curve.lower, np.quantile(kept[:, g], tail, axis=0))
            np.testing.assert_array_equal(curve.upper,
                                          np.quantile(kept[:, g], 1.0 - tail, axis=0))
        assert pop.rejected_draws == m.rejected_draws == 2
        # keeping draws 2 and 6 for the population would have moved its band
        with_all = np.stack([v[0] for v in returned.values()])
        assert not np.array_equal(pop.lower, np.quantile(with_all, tail, axis=0))

    def test_draws_outside_the_parameter_range_are_rejected(self, cohort, fit_gamma,
                                                            monkeypatch):
        # log gamma and log b drawn with sd 1000: exp of an entry above 709
        # overflows, and below -745 gives a PGW gamma of 0, which PGWParams
        # refuses; either error used to abort the band
        var = np.diag(fit_gamma.covariance).copy()
        var[[2, -1]] = 1000.0**2
        wide = dataclasses.replace(fit_gamma, covariance=np.diag(var))
        real = ns._draw_params
        outcomes = []

        def classify(psi, *args):
            try:
                inf._unpack(psi, *args)
            except (OverflowError, ValueError) as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append("ok")
            return real(psi, *args)

        monkeypatch.setattr(ns, "_draw_params", classify)
        (curve,) = ns.net_survival_mc_ci(cohort, wide, draws=100, seed=16)
        assert {"OverflowError", "ValueError"} <= set(outcomes)
        assert curve.rejected_draws == len(outcomes) - 100
        assert curve.rejected_draws >= len(outcomes) - outcomes.count("ok")

    def test_errors(self, cohort, fit_gamma):
        for draws in (50, -5, 1):
            with pytest.raises(ValueError, match=f"draws must be 0 .* at least 100, got {draws}"):
                ns.net_survival_mc_ci(cohort, fit_gamma, draws=draws, seed=1)
        with pytest.raises(ValueError, match="level"):
            ns.net_survival_mc_ci(cohort, fit_gamma, level=0.0, draws=200, seed=1)
        broken = dataclasses.replace(fit_gamma, covariance=None)
        with pytest.raises(ValueError, match="covariance"):
            ns.net_survival_mc_ci(cohort, broken, draws=200, seed=1)
        # point curves need no covariance
        (curve,) = ns.net_survival_mc_ci(cohort, broken)
        assert curve.lower is None


def _wide_alpha_fit(template, theta, frailty):
    """A fit of (x0, x1) with w = x0 at fixed parameters whose covariance
    draws alpha with standard deviation 250: where alpha x0 < -709 for some
    subject, e^{x'beta - w'alpha} overflows while H0(t e^{w'alpha}) underflows
    to 0, so the draw's curves are nan after t = 0 and it is rejected."""
    fam = family_of_params(theta)
    b = [math.log(0.7)] if frailty != "none" else []
    psi = np.concatenate([fam.to_transformed(theta), [0.3, 0.4, -0.6], b])
    sd = np.concatenate([np.full(fam.n_params, 0.05), [250.0, 0.05, 0.05], [0.1] * len(b)])
    return dataclasses.replace(template, spec=inf.ModelSpec(fam.name, frailty), psi=psi,
                               covariance=np.diag(sd**2), w_names=("x0",))


class TestBandWorkers:
    @THETAS
    @pytest.mark.parametrize("frailty", ["none", "gamma", "ig"])
    def test_bands_do_not_depend_on_the_worker_count(self, cohort, fit_classical, theta,
                                                     frailty, monkeypatch):
        data = cohort.with_covariates(cohort.x_names, ("x0",))
        fit = _wide_alpha_fit(fit_classical, theta, frailty)
        men = cohort.x[:, 1] == 1.0
        groups = [("population", None), ("men", men), ("women", ~men)]
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(ns, "_worker_count", lambda workers=workers: workers)
            runs.append(ns.net_survival_mc_ci(data, fit, np.linspace(0.0, 5.0, 11), groups,
                                              draws=100, seed=16))
        one, three = runs
        assert one[0].rejected_draws > 0  # rejected draws were drawn again
        for a, b in zip(one, three):
            for field in ("estimate", "lower", "upper"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            assert a.rejected_draws == b.rejected_draws

    def test_more_workers_than_cpus_switching_often_match_one(self, cohort, fit_gamma,
                                                              monkeypatch):
        # 8 threads handing the interpreter over every few microseconds: a
        # draw written to a shared row, or a row left unwritten, shows here
        men = cohort.x[:, 1] == 1.0
        runs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 8):
                monkeypatch.setattr(ns, "_worker_count", lambda workers=workers: workers)
                runs.append(ns.net_survival_mc_ci(cohort, fit_gamma, draws=150, seed=17,
                                                  groups=[("population", None), ("men", men)]))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.lower, b.lower)
            np.testing.assert_array_equal(a.upper, b.upper)

    def test_worker_count_follows_the_cpus_up_to_the_cap(self, monkeypatch):
        assert 1 <= ns._worker_count() <= ns._MAX_WORKERS
        monkeypatch.setattr(ns.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ns._worker_count() == 1
        monkeypatch.delattr(ns.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ns.os, "cpu_count", lambda: 16)
        assert ns._worker_count() == ns._MAX_WORKERS
        monkeypatch.setattr(ns.os, "cpu_count", lambda: None)
        assert ns._worker_count() == 1
