"""Excess-hazard structure, frailty transforms, and marginal quantities.

Derived oracle values frozen here (computed independently from textbook
closed forms before the implementation existed):

* gamma Laplace transform at variance 0.5, argument 1.0:  (1 + 0.5)^-2 = 4/9
* inverse-Gaussian Laplace at variance 0.8, argument 2.0:
  exp((1 - sqrt(4.2)) / 0.8) = 0.26935159950354903
* inverse-Gaussian survivor frailty mean at the same point:
  1/sqrt(4.2) = 0.48795003647426655
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from exhaz import lifetable as lt
from exhaz import model as mdl
from exhaz.baseline import (
    LOGNORMAL,
    PGW,
    LogNormalParams,
    PGWParams,
    pgw_cum_hazard,
    pgw_hazard,
    pgw_quantile,
)

IG_LAPLACE_08_20 = 0.26935159950354903
IG_WEIGHT_08_20 = 0.48795003647426655


def gh_pgw():
    return mdl.GHParams(
        theta=PGWParams(sigma=2.0, nu=1.3, gamma=2.5),
        alpha=[0.4, -0.25],
        beta=[0.7, -0.3, 0.2],
    )


def gh_lognormal():
    return mdl.GHParams(
        theta=LogNormalParams(mu=0.5, sd=0.9),
        alpha=[0.4, -0.25],
        beta=[0.7, -0.3, 0.2],
    )


X0 = np.array([0.5, 1.0, -0.8])
W0 = np.array([0.5, 1.0])


class TestSpecs:
    def test_frailty_family_validated(self):
        with pytest.raises(ValueError, match="frailty family"):
            mdl.FrailtySpec("weibull", 0.5)

    def test_frailty_variance_validated(self):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                mdl.FrailtySpec("gamma", bad)

    def test_mapping_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            mdl.CovariateMapping(x_names=("age", "age"), w_names=())

    def test_gh_params_finite(self):
        with pytest.raises(ValueError, match="finite"):
            mdl.GHParams(PGWParams(1, 1, 1), alpha=[np.inf], beta=[0.0])


class TestGHStructure:
    def test_null_effects_reduce_to_baseline(self):
        t = np.linspace(0.1, 6.0, 25)
        for g, fam in [(gh_pgw(), PGW), (gh_lognormal(), LOGNORMAL)]:
            g0 = mdl.GHParams(g.theta, alpha=np.zeros(2), beta=np.zeros(3))
            np.testing.assert_allclose(
                mdl.excess_hazard(t, X0, W0, g0), fam.hazard(t, g.theta), rtol=1e-14
            )
            np.testing.assert_allclose(
                mdl.excess_cum_hazard(t, X0, W0, g0), fam.cum_hazard(t, g.theta), rtol=1e-14
            )

    def test_proportional_hazards_ratio(self):
        g = mdl.GHParams(gh_pgw().theta, alpha=np.zeros(2), beta=[0.7, -0.3, 0.2])
        xa = np.array([1.0, 0.0, 2.0])
        xb = np.array([0.0, 1.0, -1.0])
        t = np.linspace(0.05, 8.0, 20)
        ratio = mdl.excess_hazard(t, xa, W0, g) / mdl.excess_hazard(t, xb, W0, g)
        expected = math.exp((xa - xb) @ np.array([0.7, -0.3, 0.2]))
        np.testing.assert_allclose(ratio, expected, rtol=1e-12)

    def test_accelerated_hazards_form(self):
        g = mdl.GHParams(gh_pgw().theta, alpha=[0.4, -0.25], beta=np.zeros(3))
        t = np.linspace(0.1, 5.0, 20)
        ew = math.exp(W0 @ np.array([0.4, -0.25]))
        np.testing.assert_allclose(
            mdl.excess_hazard(t, X0, W0, g), pgw_hazard(t * ew, g.theta), rtol=1e-13
        )
        np.testing.assert_allclose(
            mdl.excess_cum_hazard(t, X0, W0, g),
            pgw_cum_hazard(t * ew, g.theta) / ew,
            rtol=1e-13,
        )

    def test_aft_time_scaling(self):
        # alpha = beta on shared covariates: survival is a pure time rescale
        coef = np.array([0.3, -0.6])
        g = mdl.GHParams(gh_pgw().theta, alpha=coef, beta=coef)
        x = np.array([1.2, 0.4])
        t = np.linspace(0.1, 5.0, 20)
        ex = math.exp(x @ coef)
        np.testing.assert_allclose(
            mdl.excess_cum_hazard(t, x, x, g), pgw_cum_hazard(t * ex, g.theta), rtol=1e-12
        )

    def test_aft_exponential_flat_hazard(self):
        # exponential baseline: AFT collapses to hazard e^{x'beta}, flat in t
        coef = np.array([0.5, -0.2, 0.9])
        g = mdl.GHParams(PGWParams(sigma=1.0, nu=1.0, gamma=1.0), alpha=coef, beta=coef)
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.normal(size=3)
            t = rng.uniform(0.05, 10.0)
            assert mdl.excess_hazard(t, x, x, g) == pytest.approx(
                math.exp(x @ coef), rel=1e-12
            )

    def test_cum_hazard_matches_quadrature(self):
        for g in (gh_pgw(), gh_lognormal()):
            for t in (0.7, 2.4, 6.0):
                val, err = integrate.quad(
                    lambda u: float(mdl.excess_hazard(u, X0, W0, g)), 0.0, t, limit=200
                )
                assert float(mdl.excess_cum_hazard(t, X0, W0, g)) == pytest.approx(
                    val, rel=1e-8
                )

    def test_hazard_is_cum_hazard_derivative(self):
        g = gh_lognormal()
        h = 1e-6
        for t in (0.3, 1.1, 3.7):
            fd = (
                mdl.excess_cum_hazard(t + h, X0, W0, g)
                - mdl.excess_cum_hazard(t - h, X0, W0, g)
            ) / (2 * h)
            assert fd == pytest.approx(float(mdl.excess_hazard(t, X0, W0, g)), rel=1e-6)

    def test_per_record_vectorisation(self):
        g = gh_pgw()
        rng = np.random.default_rng(3)
        t = rng.uniform(0.1, 4.0, size=15)
        x = rng.normal(size=(15, 3))
        w = rng.normal(size=(15, 2))
        batch = mdl.excess_hazard(t, x, w, g)
        single = [float(mdl.excess_hazard(t[i], x[i], w[i], g)) for i in range(15)]
        np.testing.assert_allclose(batch, single, rtol=1e-14)

    def test_domain_and_dimension_errors(self):
        g = gh_pgw()
        with pytest.raises(ValueError, match="t > 0"):
            mdl.excess_hazard(0.0, X0, W0, g)
        with pytest.raises(ValueError, match="t >= 0"):
            mdl.excess_cum_hazard(-1.0, X0, W0, g)
        with pytest.raises(ValueError, match="entries"):
            mdl.excess_hazard(1.0, np.ones(2), W0, g)
        with pytest.raises(ValueError) as info:
            mdl.excess_cum_hazard(1.0, X0, np.ones(3), g)
        assert str(info.value) == "w has 3 entries but alpha has 2"


class TestLaplace:
    def test_gamma_frozen_value(self):
        f = mdl.FrailtySpec("gamma", 0.5)
        assert float(mdl.laplace(f, 1.0)) == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_gamma_matches_textbook_form(self):
        f = mdl.FrailtySpec("gamma", 0.7)
        s = np.linspace(0.0, 20.0, 30)
        np.testing.assert_allclose(mdl.laplace(f, s), (1 + 0.7 * s) ** (-1 / 0.7), rtol=1e-12)

    def test_ig_frozen_value(self):
        f = mdl.FrailtySpec("ig", 0.8)
        assert float(mdl.laplace(f, 2.0)) == pytest.approx(IG_LAPLACE_08_20, rel=1e-14)

    def test_ig_matches_textbook_form(self):
        f = mdl.FrailtySpec("ig", 1.3)
        s = np.linspace(0.0, 20.0, 30)
        expected = np.exp((1 - np.sqrt(1 + 2 * 1.3 * s)) / 1.3)
        np.testing.assert_allclose(mdl.laplace(f, s), expected, rtol=1e-12)

    def test_ig_monte_carlo_oracle(self):
        b, s = 0.8, 2.0
        rng = np.random.default_rng(123)
        draws = np.exp(-s * rng.wald(1.0, 1.0 / b, size=1_000_000))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - IG_LAPLACE_08_20) < 3 * se
        assert float(mdl.laplace(mdl.FrailtySpec("ig", b), s)) == pytest.approx(
            IG_LAPLACE_08_20, rel=1e-14
        )

    def test_tiny_variance_is_exact_limit(self):
        s = np.linspace(0.0, 30.0, 50)
        for family in ("gamma", "ig"):
            f = mdl.FrailtySpec(family, 1e-9)
            assert np.array_equal(mdl.laplace(f, s), np.exp(-s))
            assert np.array_equal(mdl.laplace_log_deriv(f, s), np.ones_like(s))

    def test_unit_mass_at_zero(self):
        for family, b in (("gamma", 0.5), ("ig", 0.8)):
            f = mdl.FrailtySpec(family, b)
            assert float(mdl.laplace(f, 0.0)) == 1.0
            assert float(mdl.laplace_log_deriv(f, 0.0)) == 1.0

    def test_jensen_bound(self):
        s = np.linspace(0.01, 15.0, 40)
        for family, b in (("gamma", 0.5), ("ig", 0.8)):
            f = mdl.FrailtySpec(family, b)
            assert np.all(mdl.laplace(f, s) > np.exp(-s))

    @pytest.mark.parametrize("b, s, log_l", [(2.0, np.inf, -np.inf), (2.0, 1e308, -1.0e154),
                                             (2.0, 5e307, -7.071067811865475244e153)])
    def test_ig_laplace_where_its_root_overflows(self, b, s, log_l):
        # 1 + sqrt(1 + 2bs) overflows: log L used to be nan at the first two
        # points and -0.0 (L = 1) at the third; log_l is a 50-digit reference
        form = mdl._frailty_form("ig", b)
        got = form.log_laplace(b, np.array([s, 1.0]))
        assert got[0] == pytest.approx(log_l, rel=1e-15)
        assert got[1] == form.log_laplace(b, np.array([1.0]))[0]
        assert mdl.laplace(mdl.FrailtySpec("ig", b), s) == 0.0

    @pytest.mark.parametrize("family, b, s, log_l", [
        ("gamma", 1e304, 1e5, -7.1149879373516015952e-302),
        ("gamma", 2.0, 1e308, -354.944677911363008),
        ("gamma", 1e5, 1e304, -0.007114987937351601163),
        ("gamma", 2.0, 1.7976931348623157e308, -355.23793003697197102),
        ("ig", 0.7, 1e308, -1.6903085094570332179e154),
        ("ig", 0.5, 1.7976931348623157e308, -2.6815615859885192711e154),
    ])
    def test_log_laplace_where_a_product_with_s_overflows(self, family, b, s, log_l):
        # b s (gamma) or -2 s (ig) overflows while log L is finite: log L used
        # to be -inf; log_l is a 50-digit mpmath reference
        form = mdl._frailty_form(family, b)
        for out in (None, "own"):
            cells = np.array([s, 1.0, np.inf])
            got = form.log_laplace(b, cells, out=None if out is None else cells)
            assert got[0] == pytest.approx(log_l, rel=1e-12)
            assert got[1] == form.log_laplace(b, np.array([1.0]))[0]
            assert got[2] == -np.inf
        assert float(mdl.laplace(mdl.FrailtySpec(family, b), s)) == pytest.approx(
            math.exp(log_l), rel=1e-12)

    @pytest.mark.parametrize("family", ["gamma", "ig"])
    def test_a_numpy_scalar_variance_gives_the_same_bits(self, family):
        # below b = 0.5 the gamma law's overflow threshold is inf, which a
        # numpy scalar b must reach without a RuntimeWarning
        s = np.array([0.0, 1e-300, 0.7, 1e300, 1.7976931348623157e308, np.inf])
        expected = mdl.laplace(mdl.FrailtySpec(family, 0.3), s)
        got = mdl.laplace(mdl.FrailtySpec(family, np.float64(0.3)), s)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("family", ["none", "gamma", "ig"])
    def test_log_laplace_out_is_bit_identical(self, family):
        # out= writes the allocating call's bits into a new array, into its
        # own argument, and into a column block of a larger array
        form = mdl._frailty_form(family, 0.7)
        big = np.random.default_rng(21).exponential(2.0, size=(7, 40))
        big[0, 11:16] = (0.0, 1e-300, 1e300, np.inf, np.nan)
        s = big[:, 11:29]
        assert not s.flags.c_contiguous
        with np.errstate(all="ignore"):
            expected = form.log_laplace(0.7, s.copy())
            fresh = np.empty_like(expected)
            assert form.log_laplace(0.7, s, out=fresh) is fresh
            np.testing.assert_array_equal(fresh, expected)
            own = s.copy()
            form.log_laplace(0.7, own, out=own)
            np.testing.assert_array_equal(own, expected)
            whole = big.copy()
            block = whole[:, 11:29]
            form.log_laplace(0.7, block, out=block)
        np.testing.assert_array_equal(whole[:, 11:29], expected)
        np.testing.assert_array_equal(np.delete(whole, np.s_[11:29], axis=1),
                                      np.delete(big, np.s_[11:29], axis=1))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mdl.laplace(mdl.FrailtySpec("gamma", 0.5), -0.1)
        with pytest.raises(ValueError):
            mdl.laplace(mdl.FrailtySpec("none"), 1.0)
        for family in ("none", "gamma", "ig"):
            with pytest.raises(ValueError) as info:
                mdl.laplace_log_deriv(mdl.FrailtySpec(family, 0.5), np.array([1.0, -0.1]))
            assert str(info.value) == "laplace_log_deriv requires s >= 0"

    @pytest.mark.parametrize("b, s, dw_dlogb_ref, dll_dlogb_ref", [
        (2.0, 1e308, -4.9999999999999999451e-309, 354.444677911363008),
        (2.0, 1.7976931348623157e308, -2.7813423231340020377e-309, 354.73793003697197102),
        (1e5, 1e304, -1.0000000000000000607e-309, 0.007104987937351601163),
        (1e10, 1e300, -9.999999999999999475e-311, 7.128013788281541621e-8),
        (1e300, 1e304, -1.0000000000000000082e-604, 1.3897613961684035202e-297),
    ], ids=["b2-s1e308", "b2-smax", "b1e5-s1e304", "b1e10-s1e300", "b1e300-s1e304"])
    def test_gamma_derivatives_where_b_s_overflows(self, b, s, dw_dlogb_ref, dll_dlogb_ref):
        # d weight/d log b was -b s weight^2 = inf * 0 = nan there, and the
        # s weight term of d log L/d log b was 0, not about 1/b; the references
        # are 50-digit mpmath values of -bs/(1+bs)^2 and log1p(bs)/b - s/(1+bs)
        form = mdl._frailty_form("gamma", b)
        cells = np.array([s, 1.0, 0.0, np.inf])
        with np.errstate(all="ignore"):
            log_lap = form.log_laplace(b, cells)
            w = form.weight(b, cells)
            dw_ds, dw_dlogb, dll_dlogb = form.weight_derivs(b, cells, log_lap, w)
            # every other cell keeps the closed forms' bits, nan at s = inf included
            np.testing.assert_array_equal(dw_dlogb[1:], -b * cells[1:] * w[1:]**2)
            np.testing.assert_array_equal(dll_dlogb[1:], -log_lap[1:] - cells[1:] * w[1:])
        assert dw_dlogb[0] == pytest.approx(dw_dlogb_ref, rel=1e-12, abs=1e-320)
        assert dll_dlogb[0] == pytest.approx(dll_dlogb_ref, rel=1e-12)
        assert dw_ds[0] == 0.0

    def test_weight_closed_forms(self):
        s = np.linspace(0.0, 12.0, 25)
        np.testing.assert_allclose(
            mdl.laplace_log_deriv(mdl.FrailtySpec("gamma", 0.6), s),
            1.0 / (1.0 + 0.6 * s),
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            mdl.laplace_log_deriv(mdl.FrailtySpec("ig", 0.8), s),
            1.0 / np.sqrt(1.0 + 1.6 * s),
            rtol=1e-14,
        )
        assert float(
            mdl.laplace_log_deriv(mdl.FrailtySpec("ig", 0.8), 2.0)
        ) == pytest.approx(IG_WEIGHT_08_20, rel=1e-14)

    def test_weight_is_minus_dlog_laplace(self):
        h = 1e-6
        for family, b in (("gamma", 0.4), ("ig", 1.1)):
            f = mdl.FrailtySpec(family, b)
            for s in (0.3, 1.7, 6.0):
                fd = -(
                    math.log(float(mdl.laplace(f, s + h)))
                    - math.log(float(mdl.laplace(f, s - h)))
                ) / (2 * h)
                assert fd == pytest.approx(float(mdl.laplace_log_deriv(f, s)), rel=1e-7)

    def test_weight_nonincreasing(self):
        s = np.linspace(0.0, 10.0, 50)
        for family in ("gamma", "ig"):
            w = mdl.laplace_log_deriv(mdl.FrailtySpec(family, 0.9), s)
            assert np.all(np.diff(w) < 0)


class TestFrailtySamples:
    @pytest.mark.parametrize("family, b, replaced", [
        ("gamma", 0.75, lambda rng, n: rng.gamma(1.0 / 0.75, 0.75, size=n)),
        ("ig", 0.8, lambda rng, n: rng.wald(1.0, 1.0 / 0.8, size=n)),
    ], ids=["gamma", "ig"])
    def test_each_law_draws_the_bits_of_its_generator_call(self, family, b, replaced):
        law = mdl._frailty_form(family, b)
        rng, same = np.random.default_rng(41), np.random.default_rng(41)
        assert law.sample(b, rng, 1000).tobytes() == replaced(same, 1000).tobytes()
        assert rng.bit_generator.state == same.bit_generator.state

    @pytest.mark.parametrize("family, b", [("none", 0.0), ("gamma", mdl.B_ZERO_THRESHOLD / 2),
                                           ("ig", 0.0)])
    def test_no_frailty_law_gives_ones_and_draws_nothing(self, family, b):
        law = mdl._frailty_form(family, b)
        assert law is mdl._NoFrailty
        rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
        np.testing.assert_array_equal(law.sample(b, rng, 7), np.ones(7))
        assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("f", [mdl.FrailtySpec("none"), mdl.FrailtySpec("gamma", 0.5),
                                   mdl.FrailtySpec("ig", 1.2)], ids=["none", "gamma", "ig"])
    def test_net_survival_is_the_laws_laplace_transform(self, f):
        g = gh_pgw()
        t = np.linspace(0.0, 8.0, 41)
        he = mdl.excess_cum_hazard(t, X0, W0, g)
        expected = np.exp(-he) if f.family == "none" else mdl.laplace(f, he)
        assert mdl.marginal_net_survival(t, X0, W0, g, f).tobytes() == expected.tobytes()


class TestMarginalQuantities:
    def test_net_survival_starts_at_one(self):
        g = gh_pgw()
        for f in (mdl.FrailtySpec("none"), mdl.FrailtySpec("gamma", 0.5)):
            assert float(mdl.marginal_net_survival(0.0, X0, W0, g, f)) == 1.0

    def test_net_survival_monotone_in_time(self):
        g = gh_pgw()
        t = np.linspace(0.0, 8.0, 80)
        for f in (mdl.FrailtySpec("gamma", 0.5), mdl.FrailtySpec("ig", 1.2)):
            sn = mdl.marginal_net_survival(t, X0, W0, g, f)
            assert np.all(np.diff(sn) < 0)

    def test_net_survival_increases_with_heterogeneity(self):
        g = gh_pgw()
        t = 2.0
        for family in ("gamma", "ig"):
            vals = [
                float(mdl.marginal_net_survival(t, X0, W0, g, mdl.FrailtySpec(family, b)))
                for b in (0.1, 0.5, 1.0, 2.0)
            ]
            assert np.all(np.diff(vals) > 0)

    def test_marginal_hazard_none_is_population_plus_excess(self, flat_table):
        g = gh_pgw()
        key = lt.LifeTableKey(55.0, 2012.0)
        t = np.linspace(0.1, 4.9, 15)
        expected = lt.pop_hazard(flat_table, key, t) + mdl.excess_hazard(t, X0, W0, g)
        np.testing.assert_array_equal(
            mdl.marginal_hazard(t, X0, W0, key, flat_table, g, mdl.FrailtySpec("none")),
            expected,
        )

    def test_marginal_hazard_halves_excess_at_known_point(self, flat_table):
        # gamma variance 0.5: survivor frailty mean is 1/(1 + 0.5 * H_E); at the
        # time where H_E = 2 the excess contribution is scaled by exactly 0.5
        g = gh_pgw()
        key = lt.LifeTableKey(55.0, 2012.0)
        eta_w = float(W0 @ g.alpha)
        eta_x = float(X0 @ g.beta)
        s_star = pgw_quantile(2.0 * math.exp(eta_w - eta_x), g.theta)
        t_star = float(s_star * math.exp(-eta_w))
        assert float(mdl.excess_cum_hazard(t_star, X0, W0, g)) == pytest.approx(2.0, rel=1e-12)
        mh = float(
            mdl.marginal_hazard(
                t_star, X0, W0, key, flat_table, g, mdl.FrailtySpec("gamma", 0.5)
            )
        )
        expected = 0.02 + 0.5 * float(mdl.excess_hazard(t_star, X0, W0, g))
        assert mh == pytest.approx(expected, rel=1e-12)

    def test_marginal_hazard_ig_weight(self, zero_table):
        g = gh_lognormal()
        key = lt.LifeTableKey(60.0, 2012.0)
        f = mdl.FrailtySpec("ig", 0.8)
        t = np.linspace(0.2, 4.0, 10)
        he = mdl.excess_cum_hazard(t, X0, W0, g)
        expected = mdl.excess_hazard(t, X0, W0, g) / np.sqrt(1.0 + 1.6 * he)
        np.testing.assert_allclose(
            mdl.marginal_hazard(t, X0, W0, key, zero_table, g, f), expected, rtol=1e-13
        )

    def test_all_cause_survival_factorises(self, flat_table):
        g = gh_pgw()
        key = lt.LifeTableKey(55.0, 2012.0)
        f = mdl.FrailtySpec("gamma", 0.5)
        t = np.linspace(0.0, 4.5, 12)
        expected = np.exp(-0.02 * t) * mdl.marginal_net_survival(t, X0, W0, g, f)
        np.testing.assert_allclose(
            mdl.marginal_all_cause_survival(t, X0, W0, key, flat_table, g, f),
            expected,
            rtol=1e-13,
        )

    def test_all_cause_survival_zero_table_is_net(self, zero_table):
        g = gh_pgw()
        key = lt.LifeTableKey(55.0, 2012.0)
        f = mdl.FrailtySpec("ig", 0.7)
        t = np.linspace(0.0, 4.5, 12)
        np.testing.assert_allclose(
            mdl.marginal_all_cause_survival(t, X0, W0, key, zero_table, g, f),
            mdl.marginal_net_survival(t, X0, W0, g, f),
            rtol=1e-14,
        )

    def test_all_cause_survival_monte_carlo_oracle(self, flat_table):
        # S(t) = E_V[exp(-dH_P - V * H_E)] with V ~ gamma(mean 1, var b)
        g = gh_pgw()
        key = lt.LifeTableKey(55.0, 2012.0)
        b, t = 0.5, 2.5
        he = float(mdl.excess_cum_hazard(t, X0, W0, g))
        rng = np.random.default_rng(77)
        draws = math.exp(-0.02 * t) * np.exp(-he * rng.gamma(1.0 / b, b, size=1_000_000))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        val = float(
            mdl.marginal_all_cause_survival(
                t, X0, W0, key, flat_table, g, mdl.FrailtySpec("gamma", b)
            )
        )
        assert abs(val - draws.mean()) < 3 * se

    def test_marginal_hazard_is_survival_log_derivative(self, flat_table):
        g = gh_lognormal()
        key = lt.LifeTableKey(48.7, 2011.3)
        f = mdl.FrailtySpec("gamma", 0.8)
        h = 1e-6
        for t in (0.4, 1.3, 3.2):
            lo = float(mdl.marginal_all_cause_survival(t - h, X0, W0, key, flat_table, g, f))
            hi = float(mdl.marginal_all_cause_survival(t + h, X0, W0, key, flat_table, g, f))
            fd = -(math.log(hi) - math.log(lo)) / (2 * h)
            mh = float(mdl.marginal_hazard(t, X0, W0, key, flat_table, g, f))
            assert fd == pytest.approx(mh, rel=1e-6)

class TestSimulateEventTime:
    def test_reduces_to_baseline_quantile(self):
        u = np.array([0.1, 0.37, 0.8, 0.99])
        target = -np.log1p(-u)
        g = mdl.GHParams(PGWParams(2.0, 1.3, 2.5), alpha=np.zeros(2), beta=np.zeros(3))
        np.testing.assert_allclose(
            mdl.simulate_event_time(u, X0, W0, g),
            pgw_quantile(target, g.theta),
            rtol=1e-14,
        )
        gl = mdl.GHParams(LogNormalParams(0.5, 0.9), alpha=np.zeros(2), beta=np.zeros(3))
        np.testing.assert_allclose(
            mdl.simulate_event_time(u, X0, W0, gl),
            np.exp(0.5 + 0.9 * stats.norm.ppf(u)),
            rtol=1e-12,
        )

    def test_round_trip_identity(self):
        # lam * H_E(t) must reproduce -log(1-u) for random configurations
        rng = np.random.default_rng(31)
        for i in range(100):
            if i % 2 == 0:
                theta = PGWParams(rng.uniform(0.5, 3), rng.uniform(0.6, 2.5),
                                  rng.uniform(0.5, 6))
            else:
                theta = LogNormalParams(rng.uniform(-1, 1), rng.uniform(0.4, 1.5))
            g = mdl.GHParams(theta, alpha=rng.normal(scale=0.5, size=2),
                             beta=rng.normal(scale=0.5, size=3))
            x = rng.normal(size=3)
            w = rng.normal(size=2)
            u = rng.uniform(0.01, 0.99)
            lam = rng.uniform(0.2, 5.0)
            t = float(mdl.simulate_event_time(u, x, w, g, lam))
            back = lam * float(mdl.excess_cum_hazard(t, x, w, g))
            assert back == pytest.approx(-math.log1p(-u), rel=1e-10)

    def test_small_u_gives_small_time(self):
        g = gh_pgw()
        t = float(mdl.simulate_event_time(1e-12, X0, W0, g))
        assert 0.0 <= t < 1e-3

    def test_kolmogorov_smirnov_against_conditional_survival(self):
        g = gh_lognormal()
        lam = 1.7
        rng = np.random.default_rng(32)
        draws = mdl.simulate_event_time(rng.uniform(1e-12, 1.0, 100_000), X0, W0, g, lam)

        def cdf(t):
            return -np.expm1(-lam * mdl.excess_cum_hazard(t, X0, W0, g))

        stat = stats.kstest(draws, cdf).statistic
        assert stat < 1.63 / math.sqrt(draws.size)

    def test_domain_errors(self):
        g = gh_pgw()
        for bad_u in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="u must"):
                mdl.simulate_event_time(bad_u, X0, W0, g)
        with pytest.raises(ValueError, match="frailty value"):
            mdl.simulate_event_time(0.5, X0, W0, g, lam=0.0)
