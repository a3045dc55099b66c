"""Likelihood values, gradients, optimisation, and uncertainty reporting.

Likelihood oracles are computed inside the tests from plain closed forms
(math module only) so that the vectorised implementation is checked against
an independent construction.  Frozen scalar anchors:

* a single censored record with cumulative excess hazard 1 under gamma
  frailty of variance 0.5 contributes  -2*log(1.5)  to the log-likelihood;
* a single event at t = 2 with unit exponential excess hazard and zero
  background contributes  -2.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhaz import inference as inf
from exhaz import model as mdl
from exhaz.baseline import LogNormalParams, PGWParams

from conftest import random_dataset, simulate_ph_cohort

Z975 = 1.959963984540054

BASELINES = ["pgw", "lognormal"]
FRAILTIES = ["none", "gamma", "ig"]
CLASSICAL = mdl.FrailtySpec()  # no frailty: the classical likelihood


def one_record_dataset(time, status, table_year=2012.0):
    return inf.Dataset(
        time=[time],
        status=[status],
        columns={},
        x_names=(),
        w_names=(),
        age=[60.0],
        year=[table_year],
        strata=((),),
    )


def exp_unit_params():
    # PGW with sigma = nu = gamma = 1 is the unit exponential
    return mdl.GHParams(PGWParams(1.0, 1.0, 1.0), alpha=np.zeros(0), beta=np.zeros(0))


def random_params(rng, baseline, p, p_t):
    """Hazard parameters of either family, drawn from ``rng``."""
    if baseline == "pgw":
        theta = PGWParams(rng.uniform(0.5, 2.5), rng.uniform(0.6, 2.0), rng.uniform(0.5, 4.0))
    else:
        theta = LogNormalParams(rng.uniform(-0.5, 1.5), rng.uniform(0.4, 1.5))
    return mdl.GHParams(theta, alpha=rng.normal(0, 0.3, p_t), beta=rng.normal(0, 0.4, p))


class TestLoglikOracles:
    def test_censored_record_is_minus_cum_hazard(self, flat_table):
        g = mdl.GHParams(PGWParams(2.0, 1.3, 1.7), alpha=np.zeros(0), beta=np.zeros(0))
        d = one_record_dataset(3.0, 0)
        expected = -float(mdl.excess_cum_hazard(3.0, [], [], g))
        assert inf.loglik_frailty(d, flat_table, g, CLASSICAL) == pytest.approx(expected,
                                                                               rel=1e-14)

    def test_event_unit_exponential_zero_background(self, zero_table):
        d = one_record_dataset(2.0, 1)
        # log h_E(2) - H_E(2) = log 1 - 2
        assert inf.loglik_frailty(d, zero_table, exp_unit_params(), CLASSICAL) == pytest.approx(
            -2.0, rel=1e-15
        )

    def test_censored_gamma_frailty_frozen(self, zero_table):
        d = one_record_dataset(1.0, 0)
        val = inf.loglik_frailty(
            d, zero_table, exp_unit_params(), mdl.FrailtySpec("gamma", 0.5)
        )
        assert val == pytest.approx(-2.0 * math.log(1.5), rel=1e-14)

    def test_fifty_record_straight_line_oracle(self, sex_table):
        data = random_dataset(50, p=3, p_t=2, seed=5)
        g = mdl.GHParams(PGWParams(1.8, 1.2, 2.0), alpha=[0.3, -0.2], beta=[0.5, -0.4, 0.2])
        sigma, nu, gamma = 1.8, 1.2, 2.0

        def rate(a, y, s):  # mirrors the sex_table fixture
            base = 0.002 * math.exp(0.08 * max(a - 50, 0))
            return base * (0.85 if s == ("1",) else 1.0)

        def oracle(fr):
            total = 0.0
            for i in range(data.n):
                t = float(data.time[i])
                eta_w = sum(float(data.w[i, j]) * [0.3, -0.2][j] for j in range(2))
                eta_x = sum(float(data.x[i, j]) * [0.5, -0.4, 0.2][j] for j in range(3))
                s = t * math.exp(eta_w)
                H0 = (1.0 + (s / sigma) ** nu) ** (1.0 / gamma) - 1.0
                HE = H0 * math.exp(eta_x - eta_w)
                if fr is None:
                    term = -HE
                else:
                    term = -math.log(1.0 + fr.b * HE) / fr.b
                if data.status[i] == 1:
                    a_band = min(int(math.floor(data.age[i] + t)), 99)
                    y_band = min(int(math.floor(data.year[i] + t)), 2019)
                    hp = rate(a_band, y_band, tuple(data.strata[i]))
                    h0 = (
                        nu
                        / (gamma * sigma**nu)
                        * s ** (nu - 1.0)
                        * (1.0 + (s / sigma) ** nu) ** (1.0 / gamma - 1.0)
                    )
                    hE = h0 * math.exp(eta_x)
                    if fr is None:
                        term += math.log(hp + hE)
                    else:
                        term += math.log(hp + hE / (1.0 + fr.b * HE))
                total += term
            return total

        assert inf.loglik_frailty(data, sex_table, g, CLASSICAL) == pytest.approx(
            oracle(None), rel=1e-10
        )
        fr = mdl.FrailtySpec("gamma", 0.7)
        assert inf.loglik_frailty(data, sex_table, g, fr) == pytest.approx(
            oracle(fr), rel=1e-10
        )

    @pytest.mark.parametrize("baseline", BASELINES)
    @pytest.mark.parametrize("frailty", FRAILTIES)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           b=st.floats(0.0, mdl.B_ZERO_THRESHOLD, exclude_max=True))
    def test_tiny_variance_matches_classical_exactly(self, sex_table, baseline, frailty,
                                                     seed, b):
        rng = np.random.default_rng(seed)
        data = random_dataset(80, p=2, p_t=1, seed=seed)
        g = random_params(rng, baseline, 2, 1)
        assert (
            inf.loglik_frailty(data, sex_table, g, mdl.FrailtySpec(frailty, b))
            == inf.loglik_frailty(data, sex_table, g, CLASSICAL)
        )

    def test_event_record_monte_carlo_marginalisation(self, flat_table):
        # exp of the one-record frailty log-likelihood must equal
        # E_V[(h_P + V h_E) exp(-V H_E)] estimated by simulation
        d = one_record_dataset(2.0, 1)
        g = exp_unit_params()
        b = 0.6
        val = inf.loglik_frailty(d, flat_table, g, mdl.FrailtySpec("gamma", b))
        rng = np.random.default_rng(99)
        v = rng.gamma(1.0 / b, b, size=1_000_000)
        draws = (0.02 + v * 1.0) * np.exp(-v * 2.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(math.exp(val) - draws.mean()) < 3 * se

    @pytest.mark.parametrize("baseline", BASELINES)
    @pytest.mark.parametrize("frailty", FRAILTIES)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 500))
    def test_permutation_invariance_is_exact(self, sex_table, baseline, frailty, seed, n):
        rng = np.random.default_rng(seed)
        data = random_dataset(n, p=3, p_t=2, seed=seed)
        perm = rng.permutation(data.n)
        shuffled = inf.Dataset(
            time=data.time[perm],
            status=data.status[perm],
            columns={name: col[perm] for name, col in data.columns.items()},
            x_names=data.x_names,
            w_names=data.w_names,
            age=data.age[perm],
            year=data.year[perm],
            strata=data.strata[perm],
            stratum_names=data.stratum_names,
        )
        g = random_params(rng, baseline, 3, 2)
        fr = mdl.FrailtySpec(frailty, rng.uniform(0.05, 2.0))
        assert (inf.loglik_frailty(data, sex_table, g, fr)
                == inf.loglik_frailty(shuffled, sex_table, g, fr))

    def test_nonfinite_parameters_give_minus_inf(self, zero_table):
        d = one_record_dataset(2.0, 1)
        bad = mdl.GHParams(PGWParams(1e-300, 10.0, 1e-8), alpha=np.zeros(0), beta=np.zeros(0))
        assert inf.loglik_frailty(d, zero_table, bad, CLASSICAL) == -math.inf


class TestObjectiveAndGradient:
    @pytest.mark.parametrize("baseline", BASELINES)
    @pytest.mark.parametrize("frailty", FRAILTIES)
    def test_analytic_gradient_matches_central_differences(
        self, sex_table, baseline, frailty
    ):
        data = random_dataset(120, p=3, p_t=2, seed=9)
        ctx = inf._FitContext(data, sex_table, baseline, frailty)
        rng = np.random.default_rng(10)
        psi = rng.normal(scale=0.3, size=ctx.n_params)
        _, grad = ctx.value_and_grad(psi)
        h = 1e-6
        for j in range(ctx.n_params):
            e = np.zeros(ctx.n_params)
            e[j] = h
            fd = (ctx.value(psi + e) - ctx.value(psi - e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=5e-6, abs=5e-7)

    @pytest.mark.parametrize("baseline", BASELINES)
    @pytest.mark.parametrize("frailty", FRAILTIES)
    def test_objective_matches_public_loglik(self, sex_table, baseline, frailty):
        data = random_dataset(200, p=2, p_t=1, seed=11)
        ctx = inf._FitContext(data, sex_table, baseline, frailty)
        theta = [0.4, 0.1, -0.2] if baseline == "pgw" else [0.4, -0.2]
        log_b = [math.log(0.8)] if frailty != "none" else []
        psi = np.array(theta + [0.15, 0.3, -0.25] + log_b)
        g, fr = inf._unpack(psi, ctx.fam, frailty, 1, 2)
        assert ctx.value(psi) == pytest.approx(-inf.loglik_frailty(data, sex_table, g, fr),
                                               rel=1e-12)

    def test_penalty_at_nonfinite_point(self, sex_table):
        data = random_dataset(30, p=1, p_t=0, seed=12)
        ctx = inf._FitContext(data, sex_table, "pgw", "none")
        val, grad = ctx.value_and_grad(np.array([800.0, 800.0, 800.0, 0.0]))
        assert val == inf._PENALTY
        assert np.all(grad == 0.0)


class TestFit:
    def test_classical_self_consistency(self, zero_table):
        theta = PGWParams(1.5, 1.1, 1.3)
        beta = np.array([0.4, -0.6])
        data = simulate_ph_cohort(4000, theta, beta, b=0.0, seed=13)
        res = inf.fit(data, zero_table, inf.ModelSpec("pgw", "none"))
        assert res.convergence.converged
        assert res.se_valid
        truth = np.array([1.5, 1.1, 1.3, 0.4, -0.6])
        est = res.natural_estimates()
        np.testing.assert_array_less(np.abs(est - truth), 3.0 * res.std_errors_natural)
        # in-sample, the MLE cannot do worse than the generating values
        ll_truth = inf.loglik_frailty(
            data, zero_table, mdl.GHParams(theta, np.zeros(0), beta), CLASSICAL
        )
        assert res.loglik >= ll_truth - 1e-6

    def test_frailty_self_consistency(self, zero_table):
        theta = PGWParams(1.5, 1.1, 1.3)
        beta = np.array([0.5, -0.5])
        data = simulate_ph_cohort(4000, theta, beta, b=0.5, seed=14)
        res = inf.fit(data, zero_table, inf.ModelSpec("pgw", "gamma"))
        assert res.convergence.converged
        assert res.se_valid
        truth = np.array([1.5, 1.1, 1.3, 0.5, -0.5, 0.5])
        est = res.natural_estimates()
        np.testing.assert_array_less(np.abs(est - truth), 3.0 * res.std_errors_natural)
        assert res.natural_names[-1] == "b"

    def test_boundary_variance_collapses_to_classical(self, zero_table):
        data = simulate_ph_cohort(1500, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                                  b=0.0, seed=15)
        classical = inf.fit(data, zero_table, inf.ModelSpec("pgw", "none"))
        frailty = inf.fit(data, zero_table, inf.ModelSpec("pgw", "gamma"))
        assert frailty.frailty.b < 0.05
        assert abs(frailty.loglik - classical.loglik) < 0.5
        ranked = inf.aic_compare([classical, frailty])
        assert ranked[0].spec.frailty == "none"

    def test_covariate_rescaling_equivariance(self, zero_table):
        data = simulate_ph_cohort(1200, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                                  b=0.0, seed=16)
        scaled = inf.Dataset(
            time=data.time,
            status=data.status,
            columns={"x0": data.columns["x0"] * 10.0, "x1": data.columns["x1"]},
            x_names=data.x_names,
            w_names=data.w_names,
            age=data.age,
            year=data.year,
            strata=data.strata,
        )
        res = inf.fit(data, zero_table, inf.ModelSpec("pgw", "none"))
        res_scaled = inf.fit(scaled, zero_table, inf.ModelSpec("pgw", "none"))
        assert res_scaled.params.beta[0] == pytest.approx(res.params.beta[0] / 10.0, abs=2e-4)
        assert res_scaled.params.beta[1] == pytest.approx(res.params.beta[1], abs=2e-4)
        assert res_scaled.loglik == pytest.approx(res.loglik, abs=1e-6)

    def test_fit_error_conditions(self, zero_table):
        with pytest.raises(ValueError, match="empty"):
            inf.fit(
                inf.Dataset(
                    time=np.empty(0), status=np.empty(0, dtype=int),
                    columns={"x0": np.empty(0)}, x_names=("x0",), w_names=(), age=np.empty(0),
                    year=np.empty(0), strata=(),
                ),
                zero_table,
                inf.ModelSpec("pgw", "none"),
            )
        data = simulate_ph_cohort(40, PGWParams(1.5, 1.1, 1.3), np.array([0.0, 0.0]),
                                  b=0.0, seed=19)
        no_events = inf.Dataset(
            time=data.time, status=np.zeros(40, dtype=int), columns=data.columns,
            x_names=data.x_names, w_names=data.w_names, age=data.age,
            year=data.year, strata=data.strata,
        )
        with pytest.raises(ValueError, match="events"):
            inf.fit(no_events, zero_table, inf.ModelSpec("pgw", "none"))
        bad_map = inf.ModelSpec(
            "pgw", "none", mapping=mdl.CovariateMapping(("other",), ())
        )
        with pytest.raises(ValueError, match="mapping"):
            inf.fit(data, zero_table, bad_map)

    def test_stratum_columns_must_match_the_table(self, sex_table):
        data = dataclasses.replace(random_dataset(40, 1, 0, seed=3), stratum_names=("region",))
        with pytest.raises(ValueError, match=r"\('region',\) do not match .* \('sex',\)"):
            inf.fit(data, sex_table, inf.ModelSpec("pgw", "none"))

    @pytest.mark.parametrize("baseline, frailty, se_valid", [
        ("pgw", "gamma", True),
        ("lognormal", "ig", True),
        ("pgw", "none", True),
        ("pgw", "gamma", False),
    ], ids=["pgw+gamma", "lognormal+ig", "classical", "invalid-se"])
    def test_json_round_trip(self, zero_table, baseline, frailty, se_valid):
        data = simulate_ph_cohort(300, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                                  b=0.5, seed=20)
        res = inf.fit(data, zero_table, inf.ModelSpec(baseline, frailty), label="demo")
        if not se_valid:
            res = dataclasses.replace(res, covariance=None)
        assert res.se_valid is se_valid
        payload = res.to_json_dict()
        back = inf.FitResult.from_json_dict(json.loads(json.dumps(payload)))
        assert back.to_json_dict() == payload
        assert back.label == "demo" and back.aic == res.aic
        for name in ("std_errors", "std_errors_natural"):
            if se_valid:
                np.testing.assert_array_equal(getattr(back, name), getattr(res, name))
            else:
                assert getattr(back, name) is None


class TestRestartRule:
    """``fit``'s optimiser policy, driven by scripted L-BFGS-B results: each
    attempt ends at the same point with a scripted objective and status."""

    @pytest.fixture(scope="class")
    def setting(self, zero_table):
        data = simulate_ph_cohort(300, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                                  b=0.0, seed=21)
        return data, zero_table, inf.fit(data, zero_table, inf.ModelSpec("pgw", "none")).psi

    @staticmethod
    def run(monkeypatch, setting, script):
        from scipy.optimize import OptimizeResult
        data, table, psi_hat = setting
        starts = []

        def scripted(ctx, psi0, *args):
            starts.append(np.array(psi0))
            fun, success = script[len(starts) - 1] if len(starts) <= len(script) else (
                math.nan, False)
            return OptimizeResult(x=psi_hat.copy(), fun=fun, success=success,
                                  message=f"attempt {len(starts)}", nit=len(starts),
                                  jac=np.zeros_like(psi_hat))

        monkeypatch.setattr(inf, "_minimize", scripted)
        return inf.fit(data, table, inf.ModelSpec("pgw", "none")), starts

    RECOVERED = "multistart recovered a converged optimum"
    KEPT = "multistart kept the best non-converged optimum"

    @pytest.mark.parametrize("script, fun, converged, notes", [
        ([(10.0, True)], 10.0, True, ()),
        ([(12.0, False), (11.0, True)], 11.0, True, (RECOVERED,)),
        # an abnormal point better by at most 0.25 loses to the converged one
        ([(9.75, False), (10.0, True)], 10.0, True, (RECOVERED,)),
        ([(9.5, False), (10.0, True)], 9.5, False, (KEPT,)),
        # a penalty or non-finite objective is never kept, even when flagged a success
        ([(inf._PENALTY, True), (-math.inf, False), (math.nan, True), (12.0, False),
          (math.inf, True), (2 * inf._PENALTY, False)], 12.0, False, (KEPT,)),
    ], ids=["first-success", "rescue", "converged-within-margin", "abnormal-beyond-margin",
            "penalty-and-non-finite"])
    def test_kept_attempt(self, monkeypatch, setting, script, fun, converged, notes):
        res, starts = self.run(monkeypatch, setting, script)
        assert res.convergence.attempts == len(starts) == len(script)
        assert res.loglik == -fun and res.convergence.converged is converged
        first = () if len(script) == 1 else ("initial optimisation failed: attempt 1",)
        assert res.convergence.messages == first + notes

    def test_every_attempt_failing_returns_the_start(self, monkeypatch, setting):
        res, starts = self.run(monkeypatch, setting, [])
        # five jittered restarts at most, each from the first start plus N(0, 0.3^2)
        # noise drawn from one stream seeded 0
        assert res.convergence.attempts == len(starts) == 6
        rng = np.random.default_rng(0)
        for start in starts[1:]:
            np.testing.assert_array_equal(start, starts[0] + rng.normal(scale=0.3,
                                                                        size=len(start)))
        assert not res.convergence.converged and res.convergence.iterations == 0
        np.testing.assert_array_equal(res.psi, starts[0])
        assert res.convergence.messages[:2] == (
            "initial optimisation failed: attempt 1",
            "optimisation failed from every start; returning start values")

    def test_ph_start_messages_are_labelled(self, monkeypatch, setting):
        # a frailty fit starts from the PH submodel's fit; that stage's restart
        # messages used to read like the final stage's, while attempts counted
        # only the final stage
        from scipy.optimize import OptimizeResult
        data, table, _ = setting
        stages = []

        def scripted(ctx, psi0):
            stages.append(ctx.frailty)
            return OptimizeResult(x=np.array(psi0), fun=10.0, success=len(stages) > 1,
                                  message=f"attempt {len(stages)}", nit=1,
                                  jac=np.zeros_like(psi0))

        monkeypatch.setattr(inf, "_minimize", scripted)
        res = inf.fit(data, table, inf.ModelSpec("pgw", "gamma"))
        assert stages == ["none", "none", "gamma"]
        assert res.convergence.attempts == 1 and res.convergence.converged
        assert res.convergence.messages[:2] == (
            "PH start: initial optimisation failed: attempt 1",
            f"PH start: {self.RECOVERED}")
        assert not any("optimisation failed" in m for m in res.convergence.messages[2:])

    def test_simulated_replicate_is_rescued_by_one_restart(self):
        from exhaz import datasets
        from exhaz import simulation as sim
        table = datasets.synthetic_life_table()
        s = sim.resolve_dropout(sim.sc1_scenario(n=500, M=40, seed=20121), table)
        data = sim.generate_cohort(s, sim.replicate_seed(s, 19), table)
        names = s.covariate_names
        res = inf.fit(data, table, inf.ModelSpec("pgw", "gamma",
                                                 mdl.CovariateMapping(names, names)))
        assert res.convergence.attempts == 2 and res.convergence.converged
        assert res.convergence.messages[0].startswith("initial optimisation failed: ")
        assert res.convergence.messages[1] == self.RECOVERED


class TestHessian:
    def test_quadratic_oracle_both_modes(self):
        # gradient of 0.5 p'Ap is Ap, whose Hessian is A
        A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])
        psi = np.array([0.3, -1.2, 0.7])
        expected = np.linalg.inv(A)
        cov, msg = inf.hessian_std_errors(lambda p: A @ p, psi)
        assert cov is not None and msg == ""
        np.testing.assert_allclose(cov, expected, rtol=1e-6)
        np.testing.assert_allclose(np.sqrt(np.diag(cov)), np.sqrt(np.diag(expected)), rtol=1e-6)

    def test_exponential_fisher_information(self):
        # d events over total time tau: negloglik(psi) = e^psi * tau - d * psi,
        # minimised at psi = log(d/tau) with curvature d, so SE = 1/sqrt(d)
        d, tau = 40.0, 80.0
        grad = lambda p: np.array([math.exp(p[0]) * tau - d])
        psi = np.array([math.log(d / tau)])
        cov, _ = inf.hessian_std_errors(grad, psi)
        assert math.sqrt(cov[0, 0]) == pytest.approx(1.0 / math.sqrt(d), rel=1e-7)

    def test_non_positive_definite_flags_invalid(self):
        # gradient of -0.5 p'p
        cov, msg = inf.hessian_std_errors(lambda p: -p, np.array([0.1, -0.2]))
        assert cov is None
        assert msg == "Hessian not positive definite"

    def test_non_finite_hessian_flags_invalid(self):
        cov, msg = inf.hessian_std_errors(lambda p: np.full_like(p, np.nan), np.array([0.1]))
        assert cov is None and msg == "non-finite Hessian"

    def test_non_finite_standard_errors_flag_invalid(self):
        # a curvature of 1e-310 factors, but its inverse overflows to inf
        cov, msg = inf.hessian_std_errors(lambda p: 1e-310 * p, np.array([0.0]))
        assert cov is None and msg == "non-finite standard errors"


@pytest.fixture(scope="module")
def gamma_fit(zero_table):
    data = simulate_ph_cohort(800, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                              b=0.5, seed=22)
    return inf.fit(data, zero_table, inf.ModelSpec("pgw", "gamma"))


class TestWaldAndAic:
    def test_overflowing_limit_maps_to_inf(self):
        # a log-normal + IG fit at the b -> 0 boundary: log b near -17.7 with
        # a valid SE near 5400, so the upper limit of b overflows exp
        psi = np.array([0.1, math.log(0.9), math.log(2e-8)])
        se = np.array([0.1, 0.1, 5378.0])
        res = inf.FitResult(
            spec=inf.ModelSpec("lognormal", "ig"),
            psi=psi,
            covariance=np.diag(se**2),
            loglik=-100.0,
            convergence=inf.Convergence(True, 10, 1e-7, ()),
            n=100,
            n_events=50,
            data_fingerprint="0" * 16,
            x_names=(),
            w_names=(),
        )
        ci = inf.wald_ci(res)
        assert ci.upper[2] == math.inf
        assert ci.lower[2] == 0.0
        assert math.isfinite(ci.upper[1])
        np.testing.assert_array_equal(ci.estimates, [0.1, 0.9, math.exp(psi[2])])
        assert any("boundary" in note for note in ci.notes)

    def test_interval_geometry(self, gamma_fit):
        ci = inf.wald_ci(gamma_fit, level=0.95)
        j = list(ci.names).index("beta:x0")  # identity-mapped parameter
        half = Z975 * gamma_fit.std_errors[j]
        assert ci.upper[j] - ci.lower[j] == pytest.approx(2 * half, rel=1e-12)
        assert ci.estimates[j] == pytest.approx(gamma_fit.psi[j], rel=1e-12)

    def test_log_scale_parameters_map_through_exp(self, gamma_fit):
        ci = inf.wald_ci(gamma_fit, level=0.95)
        j = list(ci.names).index("b")
        k = list(gamma_fit.transformed_names).index("log_b")
        assert ci.lower[j] == pytest.approx(
            math.exp(gamma_fit.psi[k] - Z975 * gamma_fit.std_errors[k]), rel=1e-12
        )
        assert ci.upper[j] == pytest.approx(
            math.exp(gamma_fit.psi[k] + Z975 * gamma_fit.std_errors[k]), rel=1e-12
        )
        assert ci.lower[j] > 0.0

    def test_level_changes_width(self, gamma_fit):
        ci95 = inf.wald_ci(gamma_fit, 0.95)
        ci80 = inf.wald_ci(gamma_fit, 0.80)
        assert np.all(ci80.upper - ci80.lower < ci95.upper - ci95.lower)
        with pytest.raises(ValueError, match="level"):
            inf.wald_ci(gamma_fit, 1.2)

    def test_invalid_se_raises(self, gamma_fit):
        broken = dataclasses.replace(gamma_fit, covariance=None)
        with pytest.raises(ValueError, match="standard errors"):
            inf.wald_ci(broken)

    def test_boundary_note(self, gamma_fit):
        near_zero = dataclasses.replace(
            gamma_fit, psi=np.append(gamma_fit.psi[:-1], math.log(0.001))
        )
        notes = inf.wald_ci(near_zero).notes
        assert any("boundary" in n for n in notes)
        assert inf.wald_ci(gamma_fit).notes == ()

    def test_package_import_leaves_scipy_stats_out(self):
        # each scipy submodule is imported by the function that calls it, on
        # first use; importing them all would add most of a second to every
        # CLI call
        src = Path(inf.__file__).resolve().parents[1]
        code = ("import sys, exhaz.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "[]"

    def test_aic_definition(self, gamma_fit):
        assert gamma_fit.aic == pytest.approx(
            2 * gamma_fit.n_params - 2 * gamma_fit.loglik, rel=1e-15
        )

    def test_aic_tie_breaks_on_parameter_count(self, gamma_fit):
        slim = dataclasses.replace(gamma_fit, spec=inf.ModelSpec("pgw", "none"),
                                   psi=gamma_fit.psi[:-1], loglik=gamma_fit.loglik - 1.0)
        # equal AIC by construction; fewer parameters must rank first
        assert slim.aic == gamma_fit.aic
        assert inf.aic_compare([gamma_fit, slim])[0] is slim

    def test_aic_requires_same_dataset(self, gamma_fit, zero_table):
        other = inf.fit(
            simulate_ph_cohort(200, PGWParams(1.5, 1.1, 1.3), np.array([0.4, -0.6]),
                               b=0.0, seed=23),
            zero_table,
            inf.ModelSpec("pgw", "none"),
        )
        with pytest.raises(ValueError, match="different datasets"):
            inf.aic_compare([gamma_fit, other])
        with pytest.raises(ValueError, match="no fits"):
            inf.aic_compare([])


class TestDatasetUtilities:
    def test_subset(self):
        data = random_dataset(40, p=2, p_t=0, seed=25)
        mask = data.x[:, 0] > 0
        sub = data.subset(mask)
        assert sub.n == int(mask.sum())
        np.testing.assert_array_equal(sub.time, data.time[mask])
        assert sub.fingerprint() != data.fingerprint()

    @pytest.mark.parametrize("mask, message", [
        ([True, False], "got bool of shape (2,)"),
        ([0, 2, 3], "got int64 of shape (3,)"),
        (np.ones((3, 1), dtype=bool), "got bool of shape (3, 1)"),
    ], ids=["too-short", "integers", "two-dimensional"])
    def test_subset_refuses_a_mask_that_is_not_n_booleans(self, mask, message):
        # a short mask used to keep its leading rows, and integers were cast to bool
        data = random_dataset(3, p=1, p_t=0, seed=25)
        with pytest.raises(ValueError) as info:
            data.subset(mask)
        assert str(info.value) == ("subset mask must be a boolean array of shape (3,), "
                                   + message)

    def test_with_covariates_reselects_from_pool(self):
        data = random_dataset(30, p=3, p_t=2, seed=26)
        out = data.with_covariates(("x2", "x0"), ("x1",))
        np.testing.assert_array_equal(out.x[:, 0], data.x[:, 2])
        np.testing.assert_array_equal(out.x[:, 1], data.x[:, 0])
        np.testing.assert_array_equal(out.w[:, 0], data.x[:, 1])
        with pytest.raises(ValueError) as info:
            data.with_covariates(("nope",), ())
        assert str(info.value) == "x_names: unknown covariate column 'nope'"

    def test_columns_survive_subsetting(self):
        data = random_dataset(20, p=2, p_t=1, seed=27)
        stage = np.array(["I"] * 10 + ["II"] * 10)
        with_label = dataclasses.replace(data, columns={**data.columns, "stage": stage})
        sub = with_label.subset(stage == "II")
        assert list(sub.columns) == ["x0", "x1", "stage"]
        assert list(sub.columns["stage"]) == ["II"] * 10
        np.testing.assert_array_equal(sub.columns["x1"], data.columns["x1"][10:])
        np.testing.assert_array_equal(sub.x, data.x[10:])
        np.testing.assert_array_equal(sub.w, data.w[10:])

    @pytest.mark.parametrize("label", ["x", "w"])
    def test_a_label_column_is_refused_as_a_covariate(self, label):
        # np.column_stack of the pool raised numpy's "could not convert string
        # to float", naming no column
        data = random_dataset(4, p=1, p_t=0, seed=27)
        data = dataclasses.replace(data, columns={**data.columns,
                                                  "stage": np.array(["I", "IV"] * 2)})
        names = {"x": (("stage",), ()), "w": (("x0",), ("stage",))}[label]
        with pytest.raises(ValueError) as info:
            data.with_covariates(*names)
        assert str(info.value) == f"{label}_names: column 'stage' holds labels, not numbers"

    def test_strata_are_one_label_array(self):
        data = random_dataset(6, p=1, p_t=0, seed=29)
        assert data.strata.shape == (6, 1) and data.strata.dtype.kind == "U"
        np.testing.assert_array_equal(data.subset([True, False] * 3).strata, data.strata[::2])
        rows = dataclasses.replace(data, strata=[tuple(row) for row in data.strata])
        np.testing.assert_array_equal(rows.strata, data.strata)
        assert rows.fingerprint() == data.fingerprint()

    @pytest.mark.parametrize("strata, message", [
        ([("0", "1"), ("1", "0")],
         "strata must be an (n, k) = (2, 1) array of labels, one per column of schema "
         "('sex',), got shape (2, 2)"),
        ([("0", "1"), ("1", "0"), ("0",)],
         "record 0 (0-based): stratum ('0', '1') does not match schema ('sex',)"),
        ([("1",), ("0",), ()],
         "record 2 (0-based): stratum () does not match schema ('sex',)"),
        ([("1",)], "strata must be an (n, k) = (2, 1) array of labels, one per column of "
                   "schema ('sex',), got shape (1, 1)"),
    ], ids=["two-labels-a-row", "ragged", "ragged-late", "too-few-rows"])
    def test_strata_of_another_shape_are_refused(self, strata, message):
        # write_patient_csv would give such a cohort more or fewer cells a row than
        # its header names, or drop labels: a file that its own reader refuses
        n = max(len(strata), 2)
        with pytest.raises(ValueError) as info:
            inf.Dataset(time=np.ones(n), status=np.zeros(n, dtype=int), columns={},
                        x_names=(), w_names=(), age=np.full(n, 60.0),
                        year=np.full(n, 2012.0), strata=strata, stratum_names=("sex",))
        assert str(info.value) == message

    def test_nul_in_a_label_is_refused(self):
        # numpy's str dtype would drop the trailing NUL and store sex '1'
        with pytest.raises(ValueError) as info:
            inf.Dataset(time=[1.0], status=[1], columns={}, x_names=(), w_names=(),
                        age=[60.0], year=[2012.0],
                        strata=[("1\x00",)], stratum_names=("sex",))
        assert str(info.value) == "record 0 (0-based): sex label '1\\x00' has a NUL character"

    def test_empty_dataset_with_strata_reaches_the_fit(self, sex_table):
        empty = inf.Dataset(time=np.empty(0), status=np.empty(0, dtype=int), columns={},
                            x_names=(), w_names=(), age=np.empty(0), year=np.empty(0), strata=(),
                            stratum_names=("sex",))
        assert empty.strata.shape == (0, 1)
        with pytest.raises(ValueError, match="dataset is empty"):
            inf.fit(empty, sex_table, inf.ModelSpec("pgw", "none"))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match=r"record 0 \(0-based\): time must be positive"):
            one_record_dataset(-1.0, 0)
        with pytest.raises(ValueError, match=r"record 0 \(0-based\): status must be 0 or 1"):
            one_record_dataset(1.0, 2)
        with pytest.raises(ValueError, match=r"record 0 \(0-based\): year must be finite"):
            one_record_dataset(1.0, 1, table_year=math.inf)

    @pytest.mark.parametrize("column, value, message", [
        ("time", math.nan, "time must be positive and finite, got nan"),
        ("status", 0.5, "status must be 0 or 1, got 0.5"),
        ("x", math.inf, "covariate 'x1' must be finite, got inf"),
        ("w", -math.inf, "covariate 'x0' must be finite, got -inf"),
        ("age", math.nan, "age must be finite, got nan"),
        ("year", math.inf, "year must be finite, got inf"),
    ])
    def test_errors_name_the_record_and_column(self, column, value, message):
        # "x"/"w": the last column that x_names/w_names pick
        data = random_dataset(5, p=2, p_t=1, seed=28)
        if column in ("x", "w"):
            name = getattr(data, f"{column}_names")[-1]
            values = data.columns[name].copy()
            values[3] = value
            change = {"columns": {**data.columns, name: values}}
        else:
            values = np.array(getattr(data, column), dtype=float)
            values[3] = value
            change = {column: values}
        with pytest.raises(ValueError) as info:
            dataclasses.replace(data, **change)
        assert str(info.value) == f"record 3 (0-based): {message}"

    @pytest.mark.parametrize("name, value, w_names, message", [
        ("x0", np.zeros(3), (), "column 'x0' must have n = 2 rows, got shape (3,)"),
        ("v", np.zeros(1), ("v",), "column 'v' must have n = 2 rows, got shape (1,)"),
        ("stage", np.array(["I", "II", "I"]), (),
         "column 'stage' must have n = 2 rows, got shape (3,)"),
    ], ids=["x", "w", "labels"])
    def test_a_column_of_another_row_count_is_refused(self, name, value, w_names, message):
        # an x of 3 rows beside n = 2 was accepted, and fit then raised IndexError
        data = random_dataset(2, p=1, p_t=0, seed=30)
        with pytest.raises(ValueError) as info:
            dataclasses.replace(data, columns={**data.columns, name: value}, w_names=w_names)
        assert str(info.value) == message

    @pytest.mark.parametrize("x_names, w_names, message", [
        (("x0", "x0"), (), "x_names repeats a name: ('x0', 'x0')"),
        (("x1",), ("x0", "x0"), "w_names repeats a name: ('x0', 'x0')"),
    ])
    def test_a_name_repeated_within_x_or_w_is_refused(self, x_names, w_names, message):
        # a repeated x column was accepted, and fit then reported convergence
        # with a Hessian that is not positive definite
        data = random_dataset(20, p=2, p_t=1, seed=31)
        with pytest.raises(ValueError) as info:
            data.with_covariates(x_names, w_names)
        assert str(info.value) == message
        both = data.with_covariates(("x0", "x1"), ("x0",))  # one name in x and w is legal
        assert both.x_names == ("x0", "x1") and both.w_names == ("x0",)
