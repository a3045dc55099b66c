"""Baseline hazard families: closed forms against independent oracles.

Frozen oracle values were computed independently with 40-digit arithmetic:
the PGW hazard at t=1 for (sigma, nu, gamma) = (0.75, 1.75, 8) via numeric
differentiation of the cumulative hazard, and the cumulative hazard via
adaptive quadrature of the closed-form hazard; the Log-Normal values at
t=1.5 for (mu, sd) = (0.2, 0.9) likewise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from exhaz import baseline as bl

PGW_ORACLE = bl.PGWParams(0.75, 1.75, 8.0)
PGW_HAZARD_AT_1 = 0.1540348682604285
PGW_CUMHAZ_AT_1 = 0.1297854380378198

LN_ORACLE = bl.LogNormalParams(0.2, 0.9)
LN_CUMHAZ_AT_15 = 0.8923090428440582
LN_HAZARD_AT_15 = 0.7027224402874539


class TestPGW:
    def test_exponential_reduction(self):
        p = bl.PGWParams(1.0, 1.0, 1.0)
        assert bl.pgw_hazard(3.0, p) == pytest.approx(1.0, abs=1e-12)
        assert bl.pgw_cum_hazard(2.0, p) == pytest.approx(2.0, abs=1e-12)
        assert bl.pgw_quantile(2.0, p) == pytest.approx(2.0, abs=1e-12)

    def test_weibull_reduction_gamma_one(self):
        # gamma = 1 must match the plain Weibull hazard (nu/sigma^nu) t^(nu-1)
        p = bl.PGWParams(2.0, 2.0, 1.0)
        assert bl.pgw_hazard(1.0, p) == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(20):
            sigma, nu = rng.uniform(0.3, 3.0, size=2)
            t = rng.uniform(0.05, 6.0)
            p = bl.PGWParams(sigma, nu, 1.0)
            weib_h = (nu / sigma**nu) * t ** (nu - 1.0)
            weib_H = (t / sigma) ** nu
            assert bl.pgw_hazard(t, p) == pytest.approx(weib_h, rel=1e-12)
            assert bl.pgw_cum_hazard(t, p) == pytest.approx(weib_H, rel=1e-12)

    def test_frozen_point_values(self):
        assert bl.pgw_hazard(1.0, PGW_ORACLE) == pytest.approx(PGW_HAZARD_AT_1, rel=1e-13)
        assert bl.pgw_cum_hazard(1.0, PGW_ORACLE) == pytest.approx(PGW_CUMHAZ_AT_1, rel=1e-13)

    def test_cum_hazard_matches_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = bl.PGWParams(*rng.uniform(0.4, 4.0, size=3))
            t = rng.uniform(0.2, 5.0)
            val, err = integrate.quad(lambda u: float(bl.pgw_hazard(u, p)), 0.0, t,
                                      limit=200)
            assert bl.pgw_cum_hazard(t, p) == pytest.approx(val, rel=1e-8)

    def test_boundaries(self):
        assert bl.pgw_cum_hazard(0.0, PGW_ORACLE) == 0.0
        assert bl.pgw_quantile(0.0, PGW_ORACLE) == 0.0
        with pytest.raises(ValueError):
            bl.pgw_hazard(0.0, PGW_ORACLE)
        with pytest.raises(ValueError):
            bl.pgw_cum_hazard(-0.1, PGW_ORACLE)
        with pytest.raises(ValueError):
            bl.pgw_quantile(-1.0, PGW_ORACLE)

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(0.3, 5.0), nu=st.floats(0.3, 5.0), gamma=st.floats(0.3, 5.0),
           t=st.floats(0.01, 8.0), q=st.floats(0.01, 5.0))
    def test_quantile_round_trip(self, sigma, nu, gamma, t, q):
        p = bl.PGWParams(sigma, nu, gamma)
        assert bl.pgw_quantile(bl.pgw_cum_hazard(t, p), p) == pytest.approx(t, rel=1e-9)
        assert bl.pgw_cum_hazard(bl.pgw_quantile(q, p), p) == pytest.approx(q, rel=1e-10)

    def test_invalid_params_rejected(self):
        for bad in [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, float("nan"))]:
            with pytest.raises(ValueError):
                bl.PGWParams(*bad)


class TestLogNormal:
    def test_boundaries_and_median(self):
        p = bl.LogNormalParams(0.7, 1.3)
        assert bl.lognormal_cum_hazard(0.0, p) == pytest.approx(0.0, abs=1e-15)
        # at the median exp(mu): survival 0.5, cumulative hazard log 2
        assert bl.lognormal_cum_hazard(np.exp(0.7), p) == pytest.approx(
            np.log(2.0), rel=1e-12
        )

    def test_frozen_point_values(self):
        assert bl.lognormal_cum_hazard(1.5, LN_ORACLE) == pytest.approx(
            LN_CUMHAZ_AT_15, rel=1e-13
        )
        assert bl.lognormal_hazard(1.5, LN_ORACLE) == pytest.approx(
            LN_HAZARD_AT_15, rel=1e-13
        )

    def test_hazard_matches_cum_hazard_derivative(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(20):
            p = bl.LogNormalParams(rng.uniform(-0.5, 1.0), rng.uniform(0.4, 1.6))
            t = rng.uniform(0.2, 6.0)
            fd = (bl.lognormal_cum_hazard(t + h, p) - bl.lognormal_cum_hazard(t - h, p)) / (
                2 * h
            )
            assert bl.lognormal_hazard(t, p) == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(-0.5, 1.0), sd=st.floats(0.4, 1.6), t=st.floats(0.05, 8.0))
    def test_quantile_round_trip(self, mu, sd, t):
        p = bl.LogNormalParams(mu, sd)
        q = bl.lognormal_cum_hazard(t, p)
        assert bl.lognormal_quantile(q, p) == pytest.approx(t, rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            bl.LogNormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            bl.LogNormalParams(float("inf"), 1.0)


class TestFamilyInterface:
    @pytest.mark.parametrize("name", ["pgw", "lognormal"])
    def test_hazard_is_cum_hazard_derivative(self, name):
        fam = bl.get_family(name)
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(50):
            if name == "pgw":
                p = bl.PGWParams(*rng.uniform(0.4, 3.5, size=3))
            else:
                p = bl.LogNormalParams(rng.uniform(-0.5, 1.0), rng.uniform(0.4, 1.6))
            t = rng.uniform(0.2, 5.0)
            fd = (fam.cum_hazard(t + h, p) - fam.cum_hazard(t - h, p)) / (2 * h)
            assert fam.hazard(t, p) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("name", ["pgw", "lognormal"])
    def test_transform_round_trip(self, name):
        fam = bl.get_family(name)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=fam.n_params)
        p = fam.from_transformed(psi)
        np.testing.assert_allclose(fam.to_transformed(p), psi, rtol=1e-12)

    @pytest.mark.parametrize("name", ["pgw", "lognormal"])
    def test_blocks_match_point_functions(self, name):
        """cum_block/haz_block values agree with the plain hazard functions."""
        fam = bl.get_family(name)
        rng = np.random.default_rng(8)
        psi = rng.normal(scale=0.5, size=fam.n_params)
        p = fam.from_transformed(psi)
        s = rng.uniform(0.1, 6.0, size=40)
        H0, s_h0, _ = fam.cum_block(s, psi)
        h0, _, _ = fam.haz_block(s, psi)
        np.testing.assert_allclose(H0, fam.cum_hazard(s, p), rtol=1e-12)
        np.testing.assert_allclose(h0, fam.hazard(s, p), rtol=1e-12)
        np.testing.assert_allclose(s_h0, s * fam.hazard(s, p), rtol=1e-12)

    @pytest.mark.parametrize("name", ["pgw", "lognormal"])
    def test_grid_kernel_matches_point_function(self, name):
        """cum_hazard_grid is H0(grid_j e^{eta_w_i}) laid out (m, k)."""
        fam = bl.get_family(name)
        rng = np.random.default_rng(10)
        p = fam.from_transformed(rng.normal(scale=0.5, size=fam.n_params))
        grid = np.linspace(0.0, 5.0, 11)  # 0 gives H0 = 0 exactly
        eta_w = rng.normal(size=30)
        grid_h0 = fam.cum_hazard_grid(grid, eta_w, p)
        assert grid_h0.shape == (11, 30)
        assert np.all(grid_h0[0] == 0.0)
        point = fam.cum_hazard(grid[:, None] * np.exp(eta_w), p)
        np.testing.assert_allclose(grid_h0, point, rtol=1e-13)
        with pytest.raises(ValueError, match="t >= 0"):
            fam.cum_hazard_grid(np.array([0.0, -1.0]), eta_w, p)

    def test_pgw_grid_kernel_finite_where_its_factors_overflow(self):
        # nu * eta_w = 800 > 709, so e^{nu eta_w} overflows and
        # e^{nu (log t - log sigma)} underflows, yet z = (t e^{eta_w} / sigma)^nu
        # is of order 1: a single exp of the log-time sum keeps it finite
        p = bl.PGWParams(1e200, 2.0, 1.3)
        eta_w = np.array([400.0])
        assert p.nu * eta_w[0] > 709.0
        grid = np.array([0.0, 1.0, 1e26, 2e26, 4e26])
        grid_h0 = bl.PGW.cum_hazard_grid(grid, eta_w, p)
        assert np.all(np.isfinite(grid_h0))
        point = bl.pgw_cum_hazard(grid * np.exp(eta_w[0]), p)
        assert np.all(np.isfinite(point)) and point[-1] > 1.0
        np.testing.assert_allclose(grid_h0[:, 0], point, rtol=1e-12)

    @pytest.mark.parametrize("name", ["pgw", "lognormal"])
    def test_block_gradients_match_finite_differences(self, name):
        fam = bl.get_family(name)
        rng = np.random.default_rng(9)
        s = rng.uniform(0.2, 5.0, size=10)
        h = 1e-6
        for _ in range(5):
            psi = rng.normal(scale=0.5, size=fam.n_params)
            _, _, dH0 = fam.cum_block(s, psi)
            _, dlog_h0, dlogs = fam.haz_block(s, psi)
            for j in range(fam.n_params):
                e = np.zeros(fam.n_params)
                e[j] = h
                Hp = fam.cum_block(s, psi + e)[0]
                Hm = fam.cum_block(s, psi - e)[0]
                np.testing.assert_allclose(dH0[j], (Hp - Hm) / (2 * h), rtol=2e-5,
                                           atol=1e-9)
                hp = np.log(fam.haz_block(s, psi + e)[0])
                hm = np.log(fam.haz_block(s, psi - e)[0])
                np.testing.assert_allclose(dlog_h0[j], (hp - hm) / (2 * h), rtol=2e-5,
                                           atol=1e-9)
            lp = np.log(fam.haz_block(s * (1 + h), psi)[0])
            lm = np.log(fam.haz_block(s * (1 - h), psi)[0])
            dlog_step = np.log1p(h) - np.log1p(-h)
            np.testing.assert_allclose(dlogs, (lp - lm) / dlog_step, rtol=5e-5,
                                       atol=1e-8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            bl.get_family("weibull")
