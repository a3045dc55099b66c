"""Population and subgroup net-survival curves with Monte-Carlo bands.

A cohort-level net-survival curve is the pointwise average of the individual
net-survival curves implied by a fitted model:

    classical fit:  (1/n) sum_i exp(-H_E(t; x_i, w_i))
    frailty fit:    (1/n) sum_i L(H_E(t; x_i, w_i))

where L is the fitted frailty family's Laplace transform.  Uncertainty bands
come from resampling the parameter vector from its asymptotic normal
distribution on the transformed scale and recomputing the curve per draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .baseline import family_of_params, get_family
from .inference import Dataset, FitResult, _unpack
from .model import FrailtySpec, GHParams, laplace

__all__ = [
    "NetSurvivalCurve",
    "default_grid",
    "population_net_survival",
    "subgroup_net_survival",
    "net_survival_mc_ci",
]


def default_grid() -> np.ndarray:
    """101 equally spaced points on [0, 5] years."""
    return np.linspace(0.0, 5.0, 101)


@dataclass(frozen=True)
class NetSurvivalCurve:
    """Averaged net-survival estimates on a time grid, with optional bands."""

    time: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    label: str = "population"
    model: str = ""

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        est = np.asarray(self.estimate, dtype=float)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "estimate", est)
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float))
        if time.shape != est.shape:
            raise ValueError("time and estimate grids differ in length")
        if np.any(est < 0.0) or np.any(est > 1.0):
            raise ValueError("net survival estimates must lie in [0, 1]")


def _validate_grid(data: Dataset, grid) -> np.ndarray:
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise ValueError("grid must be a non-empty 1-d array of times")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nondecreasing")
    if np.any(grid < 0.0):
        raise ValueError("grid times must be >= 0")
    if grid[-1] > float(np.max(data.time)) + 1e-9:
        raise ValueError(
            f"grid extends to {grid[-1]:g} years, beyond the maximum "
            f"follow-up {float(np.max(data.time)):g}"
        )
    return grid


def _as_mask(data: Dataset, selector) -> np.ndarray:
    if selector is None:
        return np.ones(data.n, dtype=bool)
    mask = np.asarray(selector, dtype=bool)
    if mask.shape != (data.n,):
        raise ValueError("selector mask length does not match the dataset")
    return mask


def _selected_rows(data: Dataset, grid, selector):
    """The checked grid and the ``(x, w)`` rows that ``selector`` picks."""
    if data.n == 0:
        raise ValueError("dataset is empty")
    grid = _validate_grid(data, grid)
    mask = _as_mask(data, selector)
    if not mask.any():
        raise ValueError("selector picked an empty subgroup")
    return grid, data.x[mask], data.w[mask]


def _curve_values(x, w, grid, g: GHParams, fr: FrailtySpec) -> np.ndarray:
    """Average net survival over the rows of (x, w) at each grid time."""
    fam = family_of_params(g.theta)
    eta_w = w @ g.alpha if g.alpha.shape[0] else np.zeros(w.shape[0])
    eta_x = x @ g.beta if g.beta.shape[0] else np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        s = grid[None, :] * np.exp(eta_w)[:, None]
        he = fam.cum_hazard(s, g.theta) * np.exp(eta_x - eta_w)[:, None]
        # laplace takes the b -> 0 limit itself, but needs a frailty family
        individual = np.exp(-he) if fr.family == "none" else laplace(fr, he)
    return individual.mean(axis=0)


def population_net_survival(data: Dataset, fit: FitResult, grid=None,
                            label: str = "population") -> NetSurvivalCurve:
    """Cohort-average net-survival curve under the fitted parameters."""
    return subgroup_net_survival(data, fit, grid, label=label)


def subgroup_net_survival(data: Dataset, fit: FitResult, grid=None, selector=None,
                          label: str = "subgroup") -> NetSurvivalCurve:
    """Average net survival restricted to the rows picked by ``selector``.

    ``selector`` is a boolean mask of length n (e.g. ``data.extras["stage"]
    == "I"``); ``None`` picks every row.
    """
    grid, x, w = _selected_rows(data, grid, selector)
    values = _curve_values(x, w, grid, fit.params, fit.frailty)
    return NetSurvivalCurve(grid, values, label=label, model=fit.spec.label())


def net_survival_mc_ci(data: Dataset, fit: FitResult, grid=None, level: float = 0.95,
                       draws: int = 1000, seed: int = 0, selector=None,
                       label: str = "population") -> NetSurvivalCurve:
    """Curve with pointwise Monte-Carlo confidence bands.

    Parameter vectors are sampled from N(psi_hat, covariance) on the
    transformed scale; each draw's curve is recomputed and the bands are the
    empirical (1-level)/2 and (1+level)/2 quantiles per grid point.  Draws
    producing non-finite curves are rejected and resampled, up to ten times
    the requested count.  ``selector`` restricts the curve to a subgroup as
    in :func:`subgroup_net_survival`.
    """
    if not fit.se_valid:
        raise ValueError("fit has no valid covariance; Monte-Carlo bands unavailable")
    if draws < 100:
        raise ValueError("draws must be at least 100")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    grid, x, w = _selected_rows(data, grid, selector)
    estimate = _curve_values(x, w, grid, fit.params, fit.frailty)

    cov = 0.5 * (fit.covariance + fit.covariance.T)
    try:
        chol = linalg.cholesky(cov, lower=True)
    except linalg.LinAlgError:
        vals, vecs = linalg.eigh(cov)
        chol = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    fam = get_family(fit.spec.baseline)
    p_t, p = len(fit.w_names), len(fit.x_names)
    rng = np.random.default_rng(seed)
    kept = np.empty((draws, grid.shape[0]))
    n_kept = 0
    attempted = 0
    cap = 10 * draws
    while n_kept < draws:
        if attempted >= cap:
            raise RuntimeError(
                f"rejected too many parameter draws ({attempted}); "
                "covariance may be ill-conditioned"
            )
        batch = min(draws - n_kept, cap - attempted)
        z = rng.standard_normal((batch, fit.psi.shape[0]))
        psis = fit.psi[None, :] + z @ chol.T
        attempted += batch
        for row in psis:
            g, fr = _unpack(row, fam, fit.spec.frailty, p_t, p)
            curve = _curve_values(x, w, grid, g, fr)
            if np.all(np.isfinite(curve)):
                kept[n_kept] = curve
                n_kept += 1
                if n_kept == draws:
                    break
    tau = 1.0 - level
    lower = np.quantile(kept, tau / 2.0, axis=0)
    upper = np.quantile(kept, 1.0 - tau / 2.0, axis=0)
    return NetSurvivalCurve(
        grid, estimate, lower=lower, upper=upper, label=label, model=fit.spec.label()
    )
