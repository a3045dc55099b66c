"""Parametric baseline hazard families.

Two families are provided:

* Power Generalised Weibull (PGW): a three-parameter family whose hazard
  can be increasing, decreasing, unimodal, or bathtub-shaped.
* Log-Normal: a two-parameter family with a unimodal hazard.

Each family's ``hazard``, ``cum_hazard`` and ``quantile`` (the inverse of
the cumulative hazard) are the point functions of this module themselves,
``pgw_hazard`` and so on.  Each family adds the derivative blocks used by
the fitting routines (gradients with respect to the transformed parameter
scale, where positive parameters are optimised on the log scale).

Where each formula is written:

* PGW h0: ``_pgw_hazard_terms``, read by ``pgw_hazard`` and ``haz_block``.
* PGW H0 from z = (s/sigma)^nu: ``_pgw_cum_from_z``, read by
  ``pgw_cum_hazard`` and ``cum_hazard_grid``.  ``cum_block`` (fits) keeps
  its own expression, since merging it would change the bytes of every fit.
* Log-Normal H0 from zeta = (log s - mu) / sd: ``_lognormal_cum_from_zeta``,
  read by ``_lognormal_terms`` (zeta and H0) and ``cum_hazard_grid``;
  ``_lognormal_terms`` and ``_mills_ratio`` (phi/Phibar) are read by the
  point functions and both blocks.
* H0 on a grid of times for many subjects, H0(t_j e^{w_i'alpha}):
  ``cum_hazard_grid`` of each family, from the log-time sum
  log t_j + w_i'alpha, so no (subject, time) cell takes a ``pow``.  With
  ``out=`` it writes the matrix into a given (m, k) array, a column block of
  a larger one included, through ``_pgw_cum_from_z`` and
  ``_lognormal_cum_from_zeta`` with ``out=``; every element sees the same
  operations in the same order, so it is bit-identical to the allocating
  call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_positive(**named):
    for name, value in named.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _domain(values, message: str, zero: bool = True) -> np.ndarray:
    """``values`` as a float array; a negative value, or a zero one unless
    ``zero``, raises ``ValueError(message)``.  NaN passes."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0 if zero else values <= 0.0):
        raise ValueError(message)
    return values


@dataclass(frozen=True)
class PGWParams:
    """Power Generalised Weibull parameters (scale ``sigma``, shapes ``nu``, ``gamma``)."""

    sigma: float
    nu: float
    gamma: float

    def __post_init__(self):
        _require_positive(sigma=self.sigma, nu=self.nu, gamma=self.gamma)


@dataclass(frozen=True)
class LogNormalParams:
    """Log-Normal parameters: mean ``mu`` and standard deviation ``sd`` of log-time."""

    mu: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        _require_positive(sd=self.sd)


def _pgw_hazard_terms(s, sigma, nu, gamma):
    """log(s/sigma), z = (s/sigma)^nu and the hazard h0(s)."""
    ls = np.log(s / sigma)
    z = np.exp(nu * ls)
    return ls, z, nu * z * np.exp((1.0 / gamma - 1.0) * np.log1p(z)) / (gamma * s)


def pgw_hazard(t, p: PGWParams):
    """Baseline hazard of the PGW family at time ``t > 0``.

    h0(t) = (nu / (gamma * sigma^nu)) * t^(nu-1) * (1 + (t/sigma)^nu)^(1/gamma - 1)
    """
    t = _domain(t, "hazard requires t > 0", zero=False)
    return _pgw_hazard_terms(t, p.sigma, p.nu, p.gamma)[2]


def pgw_cum_hazard(t, p: PGWParams):
    """Cumulative baseline hazard H0(t) = (1 + (t/sigma)^nu)^(1/gamma) - 1 for ``t >= 0``."""
    t = _domain(t, "cumulative hazard requires t >= 0")
    return _pgw_cum_from_z((t / p.sigma) ** p.nu, p.gamma)


def _pgw_cum_from_z(z, gamma, out=None):
    """PGW H0 = (1 + z)^(1/gamma) - 1 from z = (s/sigma)^nu, into ``out`` if given."""
    # expm1 keeps accuracy when the whole expression is close to zero
    # cum_block keeps its own H0: one shared form would change the fits' bytes
    return np.expm1(np.divide(np.log1p(z, out=out), gamma, out=out), out=out)


def pgw_quantile(q, p: PGWParams):
    """Inverse of ``pgw_cum_hazard``: the time t with H0(t) = q, for ``q >= 0``.

    Closed form: t = sigma * ((1+q)^gamma - 1)^(1/nu).
    """
    q = _domain(q, "quantile requires q >= 0")
    return p.sigma * np.expm1(p.gamma * np.log1p(q)) ** (1.0 / p.nu)


def _lognormal_terms(s, mu, sd):
    """zeta = (log s - mu) / sd and the cumulative hazard H0 at s."""
    zeta = (np.log(s) - mu) / sd
    return zeta, _lognormal_cum_from_zeta(zeta)


def _lognormal_cum_from_zeta(zeta, out=None):
    """Log-Normal H0 = -log Phibar(zeta) from zeta = (log s - mu) / sd, into
    ``out`` if given."""
    from scipy import special
    return np.negative(special.log_ndtr(np.negative(zeta, out=out), out=out), out=out)


def _mills_ratio(zeta, H0):
    """phi(zeta) / Phibar(zeta), in log space for stability in the tails."""
    return np.exp(-0.5 * zeta**2 - 0.5 * math.log(2.0 * math.pi) + H0)


def lognormal_cum_hazard(t, p: LogNormalParams):
    """Cumulative hazard -log S(t) of the Log-Normal family for ``t >= 0``."""
    t = _domain(t, "cumulative hazard requires t >= 0")
    with np.errstate(divide="ignore"):  # log(0) -> -inf gives H(0) = 0
        return _lognormal_terms(t, p.mu, p.sd)[1]


def lognormal_hazard(t, p: LogNormalParams):
    """Hazard of the Log-Normal family at ``t > 0``: pdf(t) / survival(t)."""
    t = _domain(t, "hazard requires t > 0", zero=False)
    return _mills_ratio(*_lognormal_terms(t, p.mu, p.sd)) / (p.sd * t)


def lognormal_quantile(q, p: LogNormalParams):
    """Inverse of ``lognormal_cum_hazard``: t = exp(mu + sd * Phi^{-1}(1 - e^{-q}))."""
    from scipy import special
    q = _domain(q, "quantile requires q >= 0")
    # beyond the median 1 - e^{-q} nears 1, so invert the survival e^{-q} instead
    with np.errstate(divide="ignore"):  # ndtri(0) = -inf gives t = 0 at q = 0
        z = np.where(q >= math.log(2.0), -special.ndtri(np.exp(-q)),
                     special.ndtri(-np.expm1(-q)))
    return np.exp(p.mu + p.sd * z)


def _log_grid(grid):
    """log of a 1-d array of times >= 0, with log 0 = -inf (where H0 is 0)."""
    with np.errstate(divide="ignore"):
        return np.log(_domain(grid, "cumulative hazard requires t >= 0"))


class _Family:
    """What the families share: a parameter block from natural values."""

    def from_natural(self, theta):
        """The parameter block of a sequence of natural-scale values."""
        theta = tuple(float(v) for v in theta)
        if len(theta) != self.n_params:
            raise ValueError(f"{self.name} baseline needs ({', '.join(self.natural_names)})")
        return self.params_type(*theta)


class _PGWFamily(_Family):
    """PGW family plus the derivative blocks used by the optimiser.

    The transformed scale is (log sigma, log nu, log gamma).
    """

    name = "pgw"
    params_type = PGWParams
    n_params = 3
    natural_names = ("sigma", "nu", "gamma")
    transformed_names = ("log_sigma", "log_nu", "log_gamma")

    @staticmethod
    def from_transformed(psi):
        return PGWParams(math.exp(psi[0]), math.exp(psi[1]), math.exp(psi[2]))

    @staticmethod
    def to_transformed(p: PGWParams):
        return np.array([math.log(p.sigma), math.log(p.nu), math.log(p.gamma)])

    hazard = staticmethod(pgw_hazard)
    cum_hazard = staticmethod(pgw_cum_hazard)
    quantile = staticmethod(pgw_quantile)

    @staticmethod
    def cum_hazard_grid(grid, eta_w, p, out=None):
        """The (m, k) matrix H0(grid_j e^{eta_w_i}) for m grid times and k
        subjects, written into ``out`` if given.

        log z = nu (log grid_j - log sigma) + nu eta_w_i is an outer sum taken
        to z by one ``exp``; a product of two exponentiated factors would
        overflow where z itself is finite.
        """
        log_z = np.add((p.nu * (_log_grid(grid) - math.log(p.sigma)))[:, None],
                       p.nu * eta_w, out=out)
        return _pgw_cum_from_z(np.exp(log_z, out=log_z), p.gamma, out=log_z)

    @staticmethod
    def cum_block(s, psi):
        """H0(s), s*h0(s), and the gradient of H0 w.r.t. transformed parameters.

        Returns ``(H0, s_h0, dH0)`` with ``dH0`` of shape ``(3, len(s))``.
        """
        sigma, nu, gamma = np.exp(psi)
        ls = np.log(s / sigma)
        z = np.exp(nu * ls)
        A = 1.0 + z
        Ag = np.exp(np.log1p(z) / gamma)  # A^(1/gamma)
        H0 = Ag - 1.0
        common = Ag / A / gamma  # (1/gamma) A^(1/gamma - 1)
        s_h0 = nu * z * common
        dH0 = np.empty((3, s.shape[0]))
        dH0[0] = -nu * z * common
        dH0[1] = nu * ls * z * common
        dH0[2] = -Ag * np.log1p(z) / gamma
        return H0, s_h0, dH0

    @staticmethod
    def haz_block(s, psi):
        """h0(s), d log h0 / d(transformed params), and d log h0 / d log s.

        Returns ``(h0, dlog_h0, dlog_h0_dlogs)`` with ``dlog_h0`` of shape
        ``(3, len(s))``.
        """
        sigma, nu, gamma = np.exp(psi)
        ls, z, h0 = _pgw_hazard_terms(s, sigma, nu, gamma)
        A = 1.0 + z
        ginv = 1.0 / gamma
        frac = (ginv - 1.0) * z / A
        dlog = np.empty((3, s.shape[0]))
        dlog[0] = -nu * (1.0 + frac)
        dlog[1] = 1.0 + nu * ls * (1.0 + frac)
        dlog[2] = -1.0 - ginv * np.log1p(z)
        dlogs = nu - 1.0 + nu * frac
        return h0, dlog, dlogs

    @staticmethod
    def default_transformed_init(times):
        """Moment-free starting values: sigma at the median time, shapes at 1."""
        med = float(np.median(times))
        return np.array([math.log(max(med, 1e-8)), 0.0, 0.0])


class _LogNormalFamily(_Family):
    """Log-Normal family; transformed scale is (mu, log sd)."""

    name = "lognormal"
    params_type = LogNormalParams
    n_params = 2
    natural_names = ("mu", "sd")
    transformed_names = ("mu", "log_sd")

    @staticmethod
    def from_transformed(psi):
        return LogNormalParams(float(psi[0]), math.exp(psi[1]))

    @staticmethod
    def to_transformed(p: LogNormalParams):
        return np.array([p.mu, math.log(p.sd)])

    hazard = staticmethod(lognormal_hazard)
    cum_hazard = staticmethod(lognormal_cum_hazard)
    quantile = staticmethod(lognormal_quantile)

    @staticmethod
    def cum_hazard_grid(grid, eta_w, p, out=None):
        """The (m, k) matrix H0(grid_j e^{eta_w_i}) for m grid times and k
        subjects, from zeta = (log grid_j - mu + eta_w_i) / sd, written into
        ``out`` if given."""
        zeta = np.add((_log_grid(grid) - p.mu)[:, None], eta_w, out=out)
        return _lognormal_cum_from_zeta(np.divide(zeta, p.sd, out=zeta), out=zeta)

    @staticmethod
    def cum_block(s, psi):
        mu, sd = psi[0], math.exp(psi[1])
        zeta, H0 = _lognormal_terms(s, mu, sd)
        r = _mills_ratio(zeta, H0)
        s_h0 = r / sd
        dH0 = np.empty((2, s.shape[0]))
        dH0[0] = -r / sd
        dH0[1] = -zeta * r
        return H0, s_h0, dH0

    @staticmethod
    def haz_block(s, psi):
        mu, sd = psi[0], math.exp(psi[1])
        zeta, H0 = _lognormal_terms(s, mu, sd)
        r = _mills_ratio(zeta, H0)
        h0 = r / (sd * s)
        dlog = np.empty((2, s.shape[0]))
        dlog[0] = (zeta - r) / sd
        dlog[1] = zeta**2 - 1.0 - zeta * r
        dlogs = (r - zeta) / sd - 1.0
        return h0, dlog, dlogs

    @staticmethod
    def default_transformed_init(times):
        logs = np.log(times)
        sd = float(np.std(logs))
        return np.array([float(np.mean(logs)), math.log(max(sd, 1e-3))])


PGW = _PGWFamily()
LOGNORMAL = _LogNormalFamily()

_FAMILIES = {"pgw": PGW, "lognormal": LOGNORMAL}


def get_family(name: str):
    """Look up a baseline family by name (``"pgw"`` or ``"lognormal"``)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


def family_of_params(p):
    """Return the family object matching a parameter block instance."""
    for fam in _FAMILIES.values():
        if isinstance(p, fam.params_type):
            return fam
    raise TypeError(f"unsupported baseline parameter block: {type(p).__name__}")
