"""Population and subgroup net-survival curves with Monte-Carlo bands.

A group's net-survival curve is the pointwise average of the individual
net-survival curves implied by a fitted model over the group's rows:

    classical fit:  (1/n) sum_i exp(-H_E(t; x_i, w_i))
    frailty fit:    (1/n) sum_i L(H_E(t; x_i, w_i))

where L is the fitted frailty family's Laplace transform.  One function,
:func:`net_survival_mc_ci`, builds the curves of any number of groups
(row masks, the whole cohort included) from one evaluation of every
subject's curve.  Uncertainty bands come from resampling the parameter
vector from its asymptotic normal distribution on the transformed scale;
each draw is evaluated once and shared by every group's band.

Each curve evaluation fills an (m, n) work array of individual curves, one
row per grid time and one column per subject, a block of about ``_BLOCK``
elements at a time.  A block is computed in place in its slice of the work
array, with no (m, n)-sized temporary: the baseline family's
``cum_hazard_grid(..., out=)`` writes H0, the covariate scale multiplies it,
and the frailty form's ``log_laplace(..., out=)`` and ``exp`` turn it into
L(H_E).  In log time, H_E(t) = H0(t e^{w'alpha}) e^{x'beta - w'alpha} is
separable, log(t e^{w'alpha}) = log t + w'alpha, so no cell takes a
``pow``.  Each element sees the same operations, in the same order, as in a
whole-matrix expression, so the curves are bit-identical to one.

A banded call draws each batch of parameter vectors in the calling thread,
then splits the batch's draws between up to ``_MAX_WORKERS`` workers, one
per CPU the process may run on: the calling thread and a pool of threads.
numpy releases the GIL inside the block operations.  Each worker owns a
work array and writes the group means of its draws, a disjoint set, into
their own rows; a draw outside the parameter range is written as NaN.
Non-finite draws are then rejected in draw order, so the kept draws,
``rejected_draws`` and every band are the same bytes for any number of
workers.  Workers call only untraced helpers
(``_individual_curves``, ``_group_means``), never ``_curve_values``: the
benchmark's tracer wraps calls with one stack of open spans, which spans
opened from several threads would corrupt.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import family_of_params, get_family
from .inference import Dataset, FitResult, _unpack
from .model import FrailtySpec, GHParams, _effects, _frailty_form

__all__ = [
    "NetSurvivalCurve",
    "default_grid",
    "net_survival_mc_ci",
]

# Elements per block of individual curves: 2**17 floats, 1 MB, so a cohort of
# a few thousand on a coarse grid is one block that stays in cache.
_BLOCK = 2**17
# Band workers at most: each holds its own (m, n) work array.
_MAX_WORKERS = 4


def default_grid() -> np.ndarray:
    """101 equally spaced points on [0, 5] years."""
    return np.linspace(0.0, 5.0, 101)


@dataclass(frozen=True)
class NetSurvivalCurve:
    """Averaged net-survival estimates on a time grid, with optional bands.

    ``rejected_draws`` counts the Monte-Carlo parameter draws dropped from
    the bands because they left the parameter range or some group's curve
    was non-finite.
    """

    time: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    label: str = "population"
    model: str = ""
    rejected_draws: int = 0

    def __post_init__(self):
        if (self.lower is None) != (self.upper is None):
            raise ValueError("lower and upper bands must be given together")
        names = ("time", "estimate") + (("lower", "upper") if self.lower is not None else ())
        for name in names:
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if v.shape != self.time.shape:
                raise ValueError(f"{name} has shape {v.shape}, but time has {self.time.shape}")
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValueError(f"{name} is not finite at index {bad[0]}")
            if name != "time" and (np.any(v < 0.0) or np.any(v > 1.0)):
                raise ValueError(f"net survival {name} must lie in [0, 1]")
        if self.lower is not None and np.any(self.lower > self.upper):
            raise ValueError("lower band exceeds upper band")


def _validate_grid(data: Dataset, grid) -> np.ndarray:
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise ValueError("grid must be a non-empty 1-d array of times")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"grid time {bad[0]} is {grid[bad[0]]}")
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


def _group_rows(data: Dataset, groups):
    """The labels of ``groups`` and the row indices of their checked masks
    (``None``: every row)."""
    labels, rows = [], []
    for label, mask in groups:
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (data.n,):
                raise ValueError(f"group {label!r}: mask has shape {mask.shape}, "
                                 f"but the dataset has {data.n} rows")
            if not mask.any():
                raise ValueError(f"group {label!r} picks no rows")
        labels.append(label)
        rows.append(None if mask is None else np.flatnonzero(mask))
    return labels, rows


def _individual_curves(x, w, grid, g: GHParams, fr: FrailtySpec, out) -> np.ndarray:
    """Fill the (m, n) array ``out`` with the individual curves L(H_E(t_j; x_i,
    w_i)), one row per grid time, in place, in blocks of ``max(1, _BLOCK //
    m)`` subjects; returns ``out``.  H_E is 0 at grid time 0, also where the
    covariate scale overflows (where H0(0) * inf would be nan)."""
    fam = family_of_params(g.theta)
    form = _frailty_form(fr.family, fr.b)
    eta_w, eta_x = _effects(g, x, w)
    m, n = out.shape
    cols = max(1, _BLOCK // m)
    at_zero = grid == 0.0
    with np.errstate(all="ignore"):
        scale_x = np.exp(eta_x - eta_w)
        for a in range(0, n, cols):
            block = out[:, a:a + cols]
            fam.cum_hazard_grid(grid, eta_w[a:a + cols], g.theta, out=block)
            np.multiply(block, scale_x[a:a + cols], out=block)
            block[at_zero] = 0.0
            np.exp(form.log_laplace(fr.b, block, out=block), out=block)
    return out


def _group_means(individual: np.ndarray, groups) -> np.ndarray:
    """Row means of the individual curves: one, or with ``groups`` one per
    group, an array of column indices (``None``: every column), stacked into
    a (len(groups), m) array that never shares memory with ``individual``."""
    n = individual.shape[1]
    # take copies a group's columns C-contiguously, so its sums are those of a
    # dataset holding only its rows, bit for bit; a boolean index gives F order
    if groups is None:
        return individual.sum(axis=1) / n
    return np.stack([individual.sum(axis=1) / n if rows is None
                     else individual.take(rows, axis=1).sum(axis=1) / rows.shape[0]
                     for rows in groups])


def _curve_values(x, w, grid, g: GHParams, fr: FrailtySpec, groups=None) -> np.ndarray:
    """Average net survival over the rows of (x, w) at each grid time: the
    :func:`_group_means` of a new (m, n) matrix of individual curves."""
    out = np.empty((grid.shape[0], x.shape[0]))
    return _group_means(_individual_curves(x, w, grid, g, fr, out), groups)


def _worker_count() -> int:
    """Workers for a band: the CPUs this process may run on, at most
    ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _draw_params(psi, fam, frailty: str, p_t: int, p: int):
    """``_unpack`` of one band draw, or None when the draw leaves the parameter
    range: a log-scale entry overflows, or a parameter block refuses 0 or inf."""
    try:
        return _unpack(psi, fam, frailty, p_t, p)
    except (OverflowError, ValueError):
        return None


def _fill_draws(x, w, grid, rows, params, dest, work, draw_ids) -> None:
    """Write the group means of draw ``params[k] = (g, fr)`` into ``dest[k]``
    for each k in ``draw_ids``, building each draw's curves in ``work``.

    One band worker's share of a batch: it calls no traced function, and
    sets its own error state, since numpy's is per thread.
    """
    with np.errstate(all="ignore"):
        for k in draw_ids:
            if params[k] is None:  # outside the parameter range: rejected
                dest[k] = np.nan
                continue
            g, fr = params[k]
            dest[k] = _group_means(_individual_curves(x, w, grid, g, fr, work), rows)


def net_survival_mc_ci(data: Dataset, fit: FitResult, grid=None, groups=None,
                       level: float = 0.95, draws: int = 0,
                       seed: int = 0) -> list[NetSurvivalCurve]:
    """Net-survival curves for groups of rows, optionally with Monte-Carlo bands.

    ``groups`` is a sequence of ``(label, mask)`` pairs, one curve each, in
    order; a mask is a boolean array of length n (e.g. ``data.columns["stage"]
    == "I"``) and ``None`` picks every row.  ``groups=None`` means
    ``[("population", None)]``.

    ``draws=0`` gives point curves.  ``draws >= 100`` adds pointwise bands:
    parameter vectors are sampled from N(psi_hat, covariance) on the
    transformed scale, every group's curve is recomputed from each draw in
    one pass, and the bands are the empirical (1-level)/2 and (1+level)/2
    quantiles per grid point.  A draw that leaves the parameter range (a
    log-scale entry whose exp overflows, or a parameter of 0 or inf), or
    whose curve is non-finite for any group, is rejected for all groups, so
    every band rests on the same draws; every curve is exactly 1 at time 0,
    even where e^{x'beta - w'alpha} overflows.  Rejected draws are resampled,
    up to ten times the requested count, and each banded curve's
    ``rejected_draws`` counts them.  A covariance without a Cholesky factor
    raises ``LinAlgError``, a ``ValueError``.
    """
    if draws != 0 and draws < 100:
        raise ValueError(f"draws must be 0 (no bands) or at least 100, got {draws}")
    if draws and not fit.se_valid:
        raise ValueError("fit has no valid covariance; Monte-Carlo bands unavailable")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    if data.n == 0:
        raise ValueError("dataset is empty")
    grid = _validate_grid(data, grid)
    labels, rows = _group_rows(data, [("population", None)] if groups is None else groups)
    estimates = _curve_values(data.x, data.w, grid, fit.params, fit.frailty, rows)
    model = fit.spec.label()
    if draws == 0:
        return [NetSurvivalCurve(grid, est, label=label, model=model)
                for label, est in zip(labels, estimates)]
    from scipy import linalg
    chol = linalg.cholesky(0.5 * (fit.covariance + fit.covariance.T), lower=True)
    fam = get_family(fit.spec.baseline)
    p_t, p = len(fit.w_names), len(fit.x_names)
    rng = np.random.default_rng(seed)
    kept = np.empty((draws,) + estimates.shape)
    n_kept = rejected = 0
    cap = 10 * draws
    cpus = _worker_count()
    works = [np.empty((grid.shape[0], data.n)) for _ in range(min(cpus, draws))]
    # the calling thread is worker 0; the pool runs the others
    with ThreadPoolExecutor(max_workers=max(1, cpus - 1)) as pool:
        while n_kept < draws:
            attempted = n_kept + rejected
            if attempted >= cap:
                raise RuntimeError(
                    f"rejected too many parameter draws ({attempted}); "
                    "covariance may be ill-conditioned"
                )
            batch = min(draws - n_kept, cap - attempted)
            z = rng.standard_normal((batch, fit.psi.shape[0]))
            psis = fit.psi[None, :] + z @ chol.T
            params = [_draw_params(row, fam, fit.spec.frailty, p_t, p) for row in psis]
            # the batch fits in the rows not yet kept; its finite draws are
            # moved up over the rejected ones, in draw order
            dest = kept[n_kept:n_kept + batch]
            workers = min(cpus, batch)
            jobs = [pool.submit(_fill_draws, data.x, data.w, grid, rows, params, dest,
                                works[i], range(i, batch, workers)) for i in range(1, workers)]
            _fill_draws(data.x, data.w, grid, rows, params, dest, works[0],
                        range(0, batch, workers))
            for job in jobs:
                job.result()
            finite = np.isfinite(dest).all(axis=(1, 2))
            good = int(finite.sum())
            dest[:good] = dest[finite]
            n_kept += good
            rejected += batch - good
    tau = 1.0 - level
    lower = np.quantile(kept, tau / 2.0, axis=0)
    upper = np.quantile(kept, 1.0 - tau / 2.0, axis=0)
    return [NetSurvivalCurve(grid, est, lower=lo, upper=hi, label=label, model=model,
                             rejected_draws=rejected)
            for label, est, lo, hi in zip(labels, estimates, lower, upper)]
