"""Excess-hazard model core.

The excess hazard follows a general hazard (GH) structure

    h_E(t; x, w) = h0(t * e^{w'alpha}; theta) * e^{x'beta},
    H_E(t; x, w) = H0(t * e^{w'alpha}; theta) * e^{x'beta - w'alpha},

which nests proportional hazards (alpha = 0), accelerated hazards
(beta = 0), and accelerated failure time (alpha = beta with w = x).

Unobserved individual heterogeneity enters as a positive unit-mean frailty
multiplying the excess hazard.  Marginal (frailty-integrated) quantities are
closed forms in the frailty Laplace transform L(s):

    marginal net survival      = L(H_E(t)),
    marginal excess hazard     = (-L'/L)(H_E(t)) * h_E(t),
    marginal all-cause survival = exp(-[H_P(age+t) - H_P(age)]) * L(H_E(t)).

Gamma and inverse Gaussian frailty families are supported; the mean is
hard-coded to 1 for identifiability, so the single parameter ``b`` is the
frailty variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lifetable as lt
from .baseline import family_of_params

#: below this variance the frailty is treated as the exact no-frailty limit
B_ZERO_THRESHOLD = 1e-8

# -- the closed forms of each frailty family ----------------------------------
# Each family gives log L(s) and the conditional frailty mean -L'/L(s) (the
# weight), written once here.  For the likelihood gradient, ``weight_derivs``
# adds d weight/ds, d weight/d log b and d log L/d log b; d log L/ds is
# -weight for every family.  ``log_laplace(b, s, out=)`` writes into ``out``,
# which may be ``s`` itself, with the operations of the allocating call in
# the same order, so its values are bit-identical to it.

class _NoFrailty:
    """No frailty, and the exact limit of both families as b -> 0."""

    @staticmethod
    def log_laplace(b, s, out=None):
        return np.negative(s, out=out)

    @staticmethod
    def weight(b, s):
        return np.ones_like(s)

    @staticmethod
    def weight_derivs(b, s, log_lap, weight):
        zeros = np.zeros_like(s)
        return zeros, zeros, zeros


class _GammaFrailty:
    """Gamma frailty with unit mean and variance b: L(s) = (1 + b s)^(-1/b)
    and -L'/L(s) = 1/(1 + b s)."""

    @staticmethod
    def log_laplace(b, s, out=None):
        return np.divide(np.negative(np.log1p(np.multiply(b, s, out=out), out=out), out=out),
                         b, out=out)

    @staticmethod
    def weight(b, s):
        return 1.0 / (1.0 + b * s)

    @staticmethod
    def weight_derivs(b, s, log_lap, weight):
        return -b * weight**2, -b * s * weight**2, -log_lap - s * weight


class _InverseGaussianFrailty:
    """Inverse Gaussian frailty with unit mean and variance b:
    L(s) = exp((1 - sqrt(1 + 2bs))/b), in the rationalised form
    exp(-2s / (1 + sqrt(1 + 2bs))), and -L'/L(s) = 1/sqrt(1 + 2bs)."""

    @staticmethod
    def log_laplace(b, s, out=None):
        # the root is the one temporary: out may be s, which the root reads
        root = np.multiply(2.0 * b, s, out=np.empty_like(s, dtype=float))
        root = np.add(1.0, np.sqrt(np.add(1.0, root, out=root), out=root), out=root)
        return np.divide(np.multiply(-2.0, s, out=out), root, out=out)

    @staticmethod
    def weight(b, s):
        return 1.0 / np.sqrt(1.0 + 2.0 * b * s)

    @staticmethod
    def weight_derivs(b, s, log_lap, weight):
        # the cube of the root, not of the weight, keeps the fits' bits
        root = np.sqrt(1.0 + 2.0 * b * s)
        return -b / root**3, -b * s / root**3, -log_lap - s / root


_FRAILTY_FORMS = {"gamma": _GammaFrailty, "ig": _InverseGaussianFrailty}
FRAILTY_FAMILIES = ("none", *_FRAILTY_FORMS)


def _frailty_form(family: str, b: float):
    """The closed forms of ``family`` at variance ``b``; the no-frailty limit
    below ``B_ZERO_THRESHOLD``."""
    if family == "none" or b < B_ZERO_THRESHOLD:
        return _NoFrailty
    return _FRAILTY_FORMS[family]


@dataclass(frozen=True)
class FrailtySpec:
    """Frailty family (``none``/``gamma``/``ig``) and variance ``b`` (mean fixed at 1)."""

    family: str = "none"
    b: float = 0.0

    def __post_init__(self):
        if self.family not in FRAILTY_FAMILIES:
            raise ValueError(
                f"unknown frailty family {self.family!r}; choose from {FRAILTY_FAMILIES}"
            )
        if self.family != "none" and not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"frailty variance must be >= 0 and finite, got {self.b!r}")


@dataclass(frozen=True)
class CovariateMapping:
    """Names of the hazard-level (``x``) and time-level (``w``) covariate columns."""

    x_names: tuple = ()
    w_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x_names", tuple(self.x_names))
        object.__setattr__(self, "w_names", tuple(self.w_names))
        for label, names in (("x", self.x_names), ("w", self.w_names)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate column in {label} mapping: {names}")


@dataclass(frozen=True, eq=False)
class GHParams:
    """General-hazard parameters: baseline block plus time-level and hazard-level effects."""

    theta: object  # PGWParams or LogNormalParams
    alpha: np.ndarray = ()
    beta: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise ValueError("GH coefficients must be finite")


def _effects(g: GHParams, x, w):
    """Linear predictors (w'alpha, x'beta) with dimension checks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if x.shape[-1] != g.beta.shape[0] and g.beta.shape[0] > 0:
        raise ValueError(f"x has {x.shape[-1]} entries but beta has {g.beta.shape[0]}")
    if w.shape[-1] != g.alpha.shape[0] and g.alpha.shape[0] > 0:
        raise ValueError(f"w has {w.shape[-1]} entries but alpha has {g.alpha.shape[0]}")
    eta_w = w @ g.alpha if g.alpha.shape[0] else np.zeros(w.shape[:-1])
    eta_x = x @ g.beta if g.beta.shape[0] else np.zeros(x.shape[:-1])
    return eta_w, eta_x


def excess_hazard(t, x, w, g: GHParams):
    """GH excess hazard h0(t e^{w'alpha}) e^{x'beta} at ``t > 0``."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("excess_hazard requires t > 0")
    eta_w, eta_x = _effects(g, x, w)
    fam = family_of_params(g.theta)
    return fam.hazard(t * np.exp(eta_w), g.theta) * np.exp(eta_x)


def excess_cum_hazard(t, x, w, g: GHParams):
    """GH cumulative excess hazard H0(t e^{w'alpha}) e^{x'beta - w'alpha} at ``t >= 0``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("excess_cum_hazard requires t >= 0")
    eta_w, eta_x = _effects(g, x, w)
    fam = family_of_params(g.theta)
    return fam.cum_hazard(t * np.exp(eta_w), g.theta) * np.exp(eta_x - eta_w)


def laplace(f: FrailtySpec, s):
    """Frailty Laplace transform L(s) = E[exp(-s * frailty)] for ``s >= 0``,
    from the family's closed form; variances below ``B_ZERO_THRESHOLD`` use
    the exact no-frailty limit exp(-s).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("laplace requires s >= 0")
    if f.family == "none":
        raise ValueError("laplace requires a frailty family (gamma or ig)")
    return np.exp(_frailty_form(f.family, f.b).log_laplace(f.b, s))


def laplace_log_deriv(f: FrailtySpec, s):
    """Conditional frailty mean among survivors, -L'(s)/L(s), for ``s >= 0``.

    Equals 1 at s = 0 (unit mean) and is nonincreasing in s (survivor
    selection); 1 throughout without frailty.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("laplace_log_deriv requires s >= 0")
    return _frailty_form(f.family, f.b).weight(f.b, s)


def marginal_net_survival(t, x, w, g: GHParams, f: FrailtySpec):
    """Frailty-marginalised net survival L(H_E(t)); exp(-H_E) when family is none."""
    he = excess_cum_hazard(t, x, w, g)
    if f.family == "none":
        return np.exp(-he)
    return laplace(f, he)


def marginal_hazard(t, x, w, key: lt.LifeTableKey, table: lt.LifeTable, g: GHParams,
                    f: FrailtySpec):
    """Observable (all-cause) marginal hazard h_P + E[frailty | alive] * h_E at ``t > 0``."""
    weight = laplace_log_deriv(f, excess_cum_hazard(t, x, w, g))
    return lt.pop_hazard(table, key, t) + weight * excess_hazard(t, x, w, g)


def marginal_all_cause_survival(t, x, w, key: lt.LifeTableKey, table: lt.LifeTable,
                                g: GHParams, f: FrailtySpec):
    """Marginal all-cause survival exp(-Delta H_P(t)) * marginal net survival."""
    return np.exp(-lt.pop_cum_hazard(table, key, t)) * marginal_net_survival(t, x, w, g, f)


def simulate_event_time(u, x, w, g: GHParams, lam=1.0):
    """Inverse-transform draw of the excess-model event time.

    ``u`` is a uniform(0,1) draw and ``lam`` the (positive) frailty value of
    the subject; ``lam = 1`` gives the no-frailty model.  The cumulative-
    hazard target is q = -log(1-u) * e^{w'alpha - x'beta} / lam and the
    returned time is quantile(q) / e^{w'alpha}, so that
    lam * H_E(t) = -log(1-u) holds exactly.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    if np.any(lam <= 0.0):
        raise ValueError("frailty value must be positive")
    eta_w, eta_x = _effects(g, x, w)
    # an overflowing e^{w'alpha - x'beta} gives q = inf and quantile(inf) = inf, the
    # exact no-excess-death limit; an underflowing one gives time 0, which Dataset
    # refuses naming the record
    with np.errstate(over="ignore"):
        q = -np.log1p(-u) * np.exp(eta_w - eta_x) / lam
    fam = family_of_params(g.theta)
    return fam.quantile(q, g.theta) * np.exp(-eta_w)
