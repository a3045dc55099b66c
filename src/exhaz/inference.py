"""Likelihood evaluation, maximum-likelihood fitting, and Wald inference.

Fitting maximises the excess-hazard log-likelihood over a transformed
parameter vector ``psi`` in which positive parameters (baseline scale and
shapes, the frailty variance, the Log-Normal sd) are represented on the log
scale and regression coefficients are untransformed, so the optimisation is
unconstrained.  The default initialisation is two-stage: a proportional
hazards submodel (no time-level effects, no frailty) is fitted first and the
full model starts from its solution with ``alpha = 0`` and ``b = 1``.

Likelihood forms (the parameter-free background survival factor is dropped):

    classical:  sum_i [ d_i log(hP_i + hE_i(t_i)) - HE_i(t_i) ]
    frailty:    sum_i [ d_i log(hP_i + wgt(HE_i) hE_i) + log L(HE_i) ]

where ``wgt = -L'/L`` is the conditional frailty mean among survivors.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import lifetable as lt
from .baseline import family_of_params, get_family
from .model import (
    CovariateMapping,
    FrailtySpec,
    GHParams,
    _frailty_form,
)

_PENALTY = 1e10  # objective value returned to the optimiser at non-finite points


# -- data containers -------------------------------------------------------

def _require_each(name: str, ok: np.ndarray, values: np.ndarray, rule: str, where) -> None:
    """Raise for the first record i where ``ok`` fails, naming it ``where(i)``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{where(i)}: {name} must be {rule}, got {values.tolist()[i]!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-oriented cohort data.

    ``columns`` maps each covariate name to its n values: numbers, or str
    labels (e.g. a stage label) that can only split subgroups.  ``x`` stacks
    the numeric columns ``x_names`` (hazard-level covariates) and ``w`` those
    of ``w_names`` (time-level covariates); both are built here, and a name
    may be in both.  ``age``/``year``/``strata`` form each subject's
    life-table key.  ``strata`` is an (n, k) array of str labels, one column
    per name in ``stratum_names`` (n row tuples convert); the life table
    codes each row as described in :class:`~exhaz.lifetable.LifeTable`.
    Every column has n rows, and no name repeats within ``x_names`` or
    within ``w_names``.  Each record rule lives here alone; its error names
    record i as row ``rows[i]`` (init-only: a loader's file lines) or else as
    ``record i (0-based)``.
    """

    time: np.ndarray
    status: np.ndarray
    columns: dict
    x_names: tuple
    w_names: tuple
    age: np.ndarray
    year: np.ndarray
    strata: np.ndarray
    stratum_names: tuple = ()
    rows: InitVar[object] = None
    x: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self, rows):
        def where(i):
            return f"record {i} (0-based)" if rows is None else f"row {rows[i]}"

        time = np.ascontiguousarray(self.time, dtype=float)
        _require_each("time", np.isfinite(time) & (time > 0.0), time, "positive and finite", where)
        status = np.asarray(self.status)
        _require_each("status", (status == 0) | (status == 1), status, "0 or 1", where)
        status = np.ascontiguousarray(status, dtype=np.int8)
        n = time.shape[0]
        columns = {}
        for name, values in self.columns.items():
            col = np.asarray(values)
            if col.dtype.kind in "biuf":
                col = np.ascontiguousarray(col, dtype=float)
                _require_each(f"covariate {name!r}", np.isfinite(col), col, "finite", where)
            if col.shape != (n,):
                raise ValueError(f"column {name!r} must have n = {n} rows, "
                                 f"got shape {col.shape}")
            columns[name] = col
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "age", np.ascontiguousarray(self.age, dtype=float))
        object.__setattr__(self, "year", np.ascontiguousarray(self.year, dtype=float))
        object.__setattr__(self, "stratum_names", tuple(self.stratum_names))
        for label, names in (("x", tuple(self.x_names)), ("w", tuple(self.w_names))):
            if len(set(names)) != len(names):
                raise ValueError(f"{label}_names repeats a name: {names!r}")
            for name in names:
                if name not in columns:
                    raise ValueError(f"{label}_names: unknown covariate column {name!r}")
                if columns[name].dtype.kind != "f":
                    raise ValueError(f"{label}_names: column {name!r} holds labels, "
                                     "not numbers")
            object.__setattr__(self, f"{label}_names", names)
            object.__setattr__(self, label, np.column_stack([columns[name] for name in names])
                               if names else np.empty((n, 0)))
        for name in ("status", "age", "year"):
            shape = np.shape(getattr(self, name))
            if shape[:1] != (n,):
                raise ValueError(f"{name} must have n = {n} rows, got shape {shape}")
        object.__setattr__(self, "strata", lt._label_array(
            self.strata, n, self.stratum_names, where, ValueError))
        for arr_name in ("age", "year"):
            values = getattr(self, arr_name)
            _require_each(arr_name, np.isfinite(values), values, "finite", where)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.status.sum())

    def subset(self, mask) -> "Dataset":
        """Row subset for a boolean mask of shape (n,) (used for subgroup analyses)."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n,):
            raise ValueError(f"subset mask must be a boolean array of shape ({self.n},), "
                             f"got {mask.dtype} of shape {mask.shape}")
        idx = np.nonzero(mask)[0]
        return replace(
            self, time=self.time[idx], status=self.status[idx],
            columns={name: col[idx] for name, col in self.columns.items()},
            age=self.age[idx], year=self.year[idx], strata=self.strata[idx],
        )

    def with_covariates(self, x_names, w_names) -> "Dataset":
        """The cohort with ``x`` and ``w`` built from the columns ``x_names``
        and ``w_names``."""
        return replace(self, x_names=x_names, w_names=w_names)

    def fingerprint(self) -> str:
        """Stable hash of the observations; used to guard AIC comparisons.

        Only the response data enter the hash (times, statuses, life-table
        keys) so that fits with different covariate subsets of one cohort
        remain comparable, while fits on different cohorts are rejected.
        """
        h = hashlib.sha256()
        for arr in (self.time, self.status.astype(np.int8), self.age, self.year):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update("|".join(map(",".join, self.strata.tolist())).encode())
        return h.hexdigest()[:16]


# -- model definition ---------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Baseline family + frailty family (+ optional covariate mapping)."""

    baseline: str = "pgw"
    frailty: str = "none"
    mapping: CovariateMapping | None = None

    def __post_init__(self):
        get_family(self.baseline)
        FrailtySpec(self.frailty)

    @property
    def has_frailty(self) -> bool:
        return self.frailty != "none"

    def label(self) -> str:
        return f"{self.baseline}+{self.frailty}"


_GTOL = 1e-6  # L-BFGS-B projected-gradient tolerance
_FTOL = 1e-12  # L-BFGS-B relative objective-change tolerance
_MAXITER = 2000  # L-BFGS-B iteration cap
_RESTARTS = 5  # jittered restarts at most, after a failed first attempt
_JITTER_SD = 0.3  # sd of the normal jitter of each restart's start
_JITTER_SEED = 0  # seed of the restart jitter, so fits are reproducible


@dataclass(frozen=True)
class Convergence:
    """The final stage's outcome and L-BFGS-B ``attempts``; ``messages`` also
    holds the PH start stage's, prefixed ``PH start: ``."""

    converged: bool
    iterations: int
    gradient_norm: float
    messages: tuple
    attempts: int = 1


@dataclass(frozen=True, eq=False)
class FitResult:
    """Maximum-likelihood fit: the estimate ``psi`` on the transformed scale,
    its covariance (``None`` when the Hessian gave no valid one), and what
    the fit saw.  Everything else, standard errors and their validity too, is
    derived from these; an empty ``label`` becomes ``spec.label()``."""

    spec: ModelSpec
    psi: np.ndarray
    covariance: np.ndarray | None
    loglik: float
    convergence: Convergence
    n: int
    n_events: int
    data_fingerprint: str
    x_names: tuple
    w_names: tuple
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.spec.label())

    @property
    def params(self) -> GHParams:
        return self._unpacked()[0]

    @property
    def frailty(self) -> FrailtySpec:
        return self._unpacked()[1]

    def _unpacked(self):
        return _unpack(self.psi, get_family(self.spec.baseline), self.spec.frailty,
                       len(self.w_names), len(self.x_names))

    @property
    def transformed_names(self) -> tuple:
        return _param_names(self.spec, self.w_names, self.x_names)[0]

    @property
    def natural_names(self) -> tuple:
        return _param_names(self.spec, self.w_names, self.x_names)[1]

    @property
    def n_params(self) -> int:
        return self.psi.shape[0]

    @property
    def se_valid(self) -> bool:
        return self.covariance is not None

    @property
    def std_errors(self) -> np.ndarray | None:
        """Standard errors on the transformed scale."""
        return None if self.covariance is None else np.sqrt(np.diag(self.covariance))

    @property
    def std_errors_natural(self) -> np.ndarray | None:
        """Delta-method standard errors on the natural scale."""
        se = self.std_errors
        return None if se is None else se * _to_natural(self.psi, self.transformed_names)[1]

    @property
    def aic(self) -> float:
        return 2.0 * self.n_params - 2.0 * self.loglik

    def natural_estimates(self) -> np.ndarray:
        return _to_natural(self.psi, self.transformed_names)[0]

    def to_json_dict(self) -> dict:
        return {key: value(self) for key, _, _, value in _FIT_FIELDS}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        """Inverse of ``to_json_dict``; a ``ValueError`` names a bad field.  Every
        written field is required, with its JSON type, and must be what the loaded
        fit writes back, so a derived one (``n_params``, ``se_valid``, the names)
        must agree with the rest.  Other keys are ignored."""
        if not isinstance(d, dict):
            raise ValueError(f"saved fit must be a JSON object, got {type(d).__name__}")
        missing = [key for key, *_ in _FIT_FIELDS if key not in d]
        if missing:
            raise ValueError(f"saved fit lacks field(s) {', '.join(missing)}")
        for key, kind, is_kind, _ in _FIT_FIELDS:
            if not is_kind(d[key]):
                raise ValueError(f"saved fit field {key!r} must be {kind}, "
                                 f"got {type(d[key]).__name__}")
        spec = ModelSpec(baseline=d["baseline"], frailty=d["frailty"])
        k = len(_param_names(spec, d["w_names"], d["x_names"])[0])
        res = cls(
            spec=spec,
            psi=_float_field(d, "psi", (k,)),
            covariance=None if d["covariance"] is None
            else _float_field(d, "covariance", (k, k)),
            loglik=float(_float_field(d, "loglik", ())),
            convergence=Convergence(
                converged=d["converged"],
                iterations=d["iterations"],
                gradient_norm=d["gradient_norm"],
                messages=tuple(d["messages"]),
                attempts=d["attempts"],
            ),
            n=d["n"],
            n_events=d["n_events"],
            data_fingerprint=d["data_fingerprint"],
            x_names=tuple(d["x_names"]),
            w_names=tuple(d["w_names"]),
            label=d["label"],
        )
        for key, _, _, value in _FIT_FIELDS:
            want, got = value(res), d[key]
            if want != got and json.dumps(want) != json.dumps(got):  # NaN equals NaN here
                raise ValueError(f"saved fit field {key!r} must be {json.dumps(want)} "
                                 f"for the fit it describes, got {json.dumps(got)}")
        return res


_STRING = ("a string", lambda v: isinstance(v, str))
_STRINGS = ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v))
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_BOOLEAN = ("a boolean", lambda v: isinstance(v, bool))

# every field of a saved fit, in written order: (key, JSON type, its test, the
# value a FitResult writes); the numbers of psi, covariance and loglik are checked after
_FIT_FIELDS = (
    ("baseline", *_STRING, lambda r: r.spec.baseline),
    ("frailty", *_STRING, lambda r: r.spec.frailty),
    ("x_names", *_STRINGS, lambda r: list(r.x_names)),
    ("w_names", *_STRINGS, lambda r: list(r.w_names)),
    ("psi", "a list", lambda v: isinstance(v, list), lambda r: [float(v) for v in r.psi]),
    ("transformed_names", *_STRINGS, lambda r: list(r.transformed_names)),
    ("natural_names", *_STRINGS, lambda r: list(r.natural_names)),
    ("loglik", *_NUMBER, lambda r: float(r.loglik)),
    ("n_params", *_INTEGER, lambda r: r.n_params),
    ("covariance", "a list or null", lambda v: v is None or isinstance(v, list),
     lambda r: None if r.covariance is None
     else [[float(v) for v in row] for row in r.covariance]),
    ("se_valid", *_BOOLEAN, lambda r: r.se_valid),
    ("converged", *_BOOLEAN, lambda r: r.convergence.converged),
    ("iterations", *_INTEGER, lambda r: r.convergence.iterations),
    ("gradient_norm", *_NUMBER, lambda r: float(r.convergence.gradient_norm)),
    ("messages", *_STRINGS, lambda r: list(r.convergence.messages)),
    ("attempts", *_INTEGER, lambda r: r.convergence.attempts),
    ("n", *_INTEGER, lambda r: r.n),
    ("n_events", *_INTEGER, lambda r: r.n_events),
    ("data_fingerprint", *_STRING, lambda r: r.data_fingerprint),
    ("label", *_STRING, lambda r: r.label),
)


def _float_field(d: dict, key: str, shape: tuple) -> np.ndarray:
    """``d[key]`` as a finite float array of ``shape``, the shape the model implies."""
    try:
        arr = np.array(d[key], dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        arr = None
    if arr is None or arr.shape != shape:
        got = "a value that is not an array of numbers" if arr is None else f"shape {arr.shape}"
        raise ValueError(f"saved fit field {key!r} must have shape {shape} for its "
                         f"model and covariates, got {got}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        at = f" at index {bad[0].tolist()}" if arr.ndim else ""
        raise ValueError(f"saved fit field {key!r} must be finite, got "
                         f"{float(arr[tuple(bad[0])])}{at}")
    return arr


# -- parameter packing -------------------------------------------------------

def _param_names(spec: ModelSpec, w_names, x_names) -> tuple:
    """Names of the entries of ``psi`` and of their natural-scale values.

    A ``log_`` prefix marks a log-scale entry; its natural name drops it.
    """
    names = [*get_family(spec.baseline).transformed_names,
             *(f"alpha:{n}" for n in w_names), *(f"beta:{n}" for n in x_names)]
    if spec.has_frailty:
        names.append("log_b")
    return tuple(names), tuple(name.removeprefix("log_") for name in names)


def _exp(v: float) -> float:
    """``math.exp``, with overflow mapped to ``inf`` (an unbounded limit)."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _to_natural(psi, transformed_names):
    """Natural-scale values of ``psi`` and their derivatives d(natural)/d(psi):
    exp of each ``log_`` entry, the identity elsewhere."""
    is_log = [name.startswith("log_") for name in transformed_names]
    deriv = np.array([_exp(v) if log else 1.0 for log, v in zip(is_log, psi)])
    return np.where(is_log, deriv, psi), deriv


def _unpack(psi, fam, frailty: str, p_t: int, p: int):
    k = fam.n_params
    theta = fam.from_transformed(psi[:k])
    alpha = np.array(psi[k:k + p_t])
    beta = np.array(psi[k + p_t:k + p_t + p])
    g = GHParams(theta=theta, alpha=alpha, beta=beta)
    if frailty == "none":
        return g, FrailtySpec("none", 0.0)
    return g, FrailtySpec(frailty, math.exp(psi[k + p_t + p]))


# -- likelihood ---------------------------------------------------------------

class _FitContext:
    """Precomputed per-dataset arrays shared by every objective evaluation."""

    def __init__(self, data: Dataset, table: lt.LifeTable, baseline: str, frailty: str):
        if data.stratum_names != table.stratum_schema:
            raise ValueError(f"stratum columns {data.stratum_names} do not match the life "
                             f"table's stratum schema {table.stratum_schema}")
        self.fam = get_family(baseline)
        self.frailty = frailty
        self.t = data.time
        self.X = data.x
        self.W = data.w
        self.ev = data.status.astype(bool)
        codes = table.stratum_codes(data.strata)
        at = data.time[self.ev]
        self.hp_ev = table.rates_at(data.age[self.ev] + at, data.year[self.ev] + at,
                                    codes[self.ev])
        self.X_ev = self.X[self.ev]
        self.W_ev = self.W[self.ev]
        self.k_theta = self.fam.n_params
        self.p_t = self.W.shape[1]
        self.p = self.X.shape[1]
        self.n_params = self.k_theta + self.p_t + self.p + (frailty != "none")

    def _forward(self, psi, b):
        """The likelihood's forward pass at transformed ``psi``, with frailty
        variance ``b`` (ignored without frailty).

        Returns the per-record ``log L(HE)`` (``-HE`` without frailty; a
        fresh array), the event denominators ``hP + wgt * hE``, and the
        pieces the gradient reuses.  Call under ``np.errstate(all="ignore")``.
        """
        k, p_t, p = self.k_theta, self.p_t, self.p
        theta_t = psi[:k]
        alpha = psi[k:k + p_t]
        beta = psi[k + p_t:k + p_t + p]
        ev = self.ev
        eta_w = self.W @ alpha if p_t else np.zeros(self.t.shape[0])
        eta_x = self.X @ beta if p else np.zeros(self.t.shape[0])
        s = self.t * np.exp(eta_w)
        H0, s_h0, dH0 = self.fam.cum_block(s, theta_t)
        e_xw = np.exp(eta_x - eta_w)
        HE = H0 * e_xw
        h0_ev, dlog_h0, dlogs = self.fam.haz_block(s[ev], theta_t)
        hE_ev = h0_ev * np.exp(eta_x[ev])
        form = _frailty_form(self.frailty, b)
        log_lap = form.log_laplace(b, HE)
        wgt = form.weight(b, HE)
        D_ev = self.hp_ev + wgt[ev] * hE_ev  # a unit weight leaves hE unchanged
        return log_lap, D_ev, (form, wgt, HE, hE_ev, e_xw, s_h0, dH0, dlog_h0, dlogs)

    def value_and_grad(self, psi):
        """Negative log-likelihood and its gradient at transformed ``psi``."""
        k, p_t, p = self.k_theta, self.p_t, self.p
        ev = self.ev
        has_b = self.frailty != "none"
        if has_b and psi[-1] > 700.0:  # exp would overflow; treat as infeasible
            return _PENALTY, np.zeros(self.n_params)
        b = math.exp(psi[-1]) if has_b else 0.0
        with np.errstate(all="ignore"):
            log_lap, D_ev, parts = self._forward(psi, b)
            form, wgt, HE, hE_ev, e_xw, s_h0, dH0, dlog_h0, dlogs = parts
            loglik = np.sum(np.log(D_ev)) + np.sum(log_lap)
            if not np.isfinite(loglik):
                return _PENALTY, np.zeros(self.n_params)

            # dl/d(hE) * hE at events, and dl/d(HE) at all records
            dw_dhe, dw_dlogb, dll_dlogb = form.weight_derivs(b, HE, log_lap, wgt)
            a_ev = wgt[ev] * hE_ev / D_ev
            r2 = -wgt
            r2[ev] += hE_ev * dw_dhe[ev] / D_ev

            grad = np.empty(self.n_params)
            grad[:k] = dlog_h0 @ a_ev + dH0 @ (r2 * e_xw)
            if p_t:
                grad[k:k + p_t] = self.W_ev.T @ (a_ev * dlogs) + self.W.T @ (
                    r2 * (s_h0 * e_xw - HE)
                )
            if p:
                grad[k + p_t:k + p_t + p] = self.X_ev.T @ a_ev + self.X.T @ (r2 * HE)
            if has_b:
                grad[-1] = np.sum(hE_ev * dw_dlogb[ev] / D_ev) + np.sum(dll_dlogb)

            if not np.all(np.isfinite(grad)):
                return _PENALTY, np.zeros(self.n_params)
            return -float(loglik), -grad

    def value(self, psi):
        return self.value_and_grad(psi)[0]


def loglik_frailty(data: Dataset, table: lt.LifeTable, g: GHParams,
                   fr: FrailtySpec) -> float:
    """Log-likelihood (background factor dropped) under frailty ``fr``; with
    ``FrailtySpec()`` it is the classical model's, its limit as b -> 0.

    A ``math.fsum`` over the per-record terms of the fit context's forward
    pass, so the value is exactly invariant to record permutation; ``-inf``
    when any term is non-finite.  ``fr.b`` is used as given, so a variance
    below ``B_ZERO_THRESHOLD`` gives exactly the classical value.
    """
    if g.alpha.shape[0] != data.w.shape[1] or g.beta.shape[0] != data.x.shape[1]:
        raise ValueError("alpha/beta lengths must match the dataset's w/x columns")
    fam = family_of_params(g.theta)
    ctx = _FitContext(data, table, fam.name, fr.family)
    psi = np.concatenate([fam.to_transformed(g.theta), g.alpha, g.beta])
    with np.errstate(all="ignore"):
        terms, D_ev, _ = ctx._forward(psi, fr.b)
        terms[ctx.ev] += np.log(D_ev)
    if not np.all(np.isfinite(terms)):
        return float("-inf")
    return math.fsum(terms.tolist())


# -- Hessian, intervals, AIC --------------------------------------------------

def hessian_std_errors(grad, psi):
    """Covariance from a central-difference Hessian at ``psi``.

    The Hessian is built by differencing the gradient ``grad`` of the
    negative log-likelihood with steps ``h_j = max(1e-4, 1e-4 |psi_j|)``.
    Returns ``(covariance, "")``, or ``(None, reason)`` instead of raising
    for a non-finite, asymmetric or non-positive-definite Hessian or
    non-finite standard errors; :class:`FitResult` derives the rest.
    """
    from scipy import linalg
    psi = np.asarray(psi, dtype=float)
    k = psi.shape[0]
    h = np.maximum(1e-4, 1e-4 * np.abs(psi))
    H = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = h[j]
        H[:, j] = (np.asarray(grad(psi + e)) - np.asarray(grad(psi - e))) / (2.0 * h[j])
    if not np.all(np.isfinite(H)):
        return None, "non-finite Hessian"
    asym = float(np.max(np.abs(H - H.T)))
    scale = float(np.max(np.abs(H)))
    # gradient differencing carries direction-dependent truncation error
    if scale > 0 and asym > 1e-4 * scale:
        return None, "asymmetric Hessian"
    H = 0.5 * (H + H.T)
    try:
        cov = linalg.cho_solve(linalg.cho_factor(H), np.eye(k))
    except linalg.LinAlgError:
        return None, "Hessian not positive definite"
    if not np.all(np.isfinite(np.sqrt(np.diag(cov)))):
        return None, "non-finite standard errors"
    return cov, ""


@dataclass(frozen=True)
class WaldIntervals:
    """Natural-scale point estimates and Wald intervals, plus caveat notes."""

    names: tuple
    estimates: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    notes: tuple = ()


def wald_ci(result: FitResult, level: float = 0.95) -> WaldIntervals:
    """Wald intervals built on the transformed scale and mapped back through exp.

    Raises :class:`ValueError` when the fit's standard errors are invalid.
    """
    from scipy import special
    if not result.se_valid:
        raise ValueError("fit has no valid standard errors; intervals unavailable")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    z = special.ndtri(0.5 + level / 2.0)
    names, se = result.transformed_names, result.std_errors
    est = result.natural_estimates()
    lo = _to_natural(result.psi - z * se, names)[0]
    hi = _to_natural(result.psi + z * se, names)[0]
    notes = []
    if result.spec.has_frailty and result.frailty.b < 0.02:
        notes.append(
            "frailty variance estimate is near the b=0 boundary; "
            "Wald intervals on log b may be unreliable"
        )
    return WaldIntervals(
        names=result.natural_names,
        estimates=est,
        lower=lo,
        upper=hi,
        level=level,
        notes=tuple(notes),
    )


def aic_compare(fits) -> list:
    """Rank fits by AIC ascending, ties broken by fewer parameters.

    All fits must come from the same dataset (checked via fingerprints).
    """
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to compare")
    prints = {f.data_fingerprint for f in fits}
    if len(prints) > 1:
        raise ValueError("fits were produced on different datasets; AIC not comparable")
    return sorted(fits, key=lambda f: (f.aic, f.n_params))


# -- fitting -------------------------------------------------------------------

def _minimize(ctx: _FitContext, psi0):
    from scipy import optimize  # minimize is looked up per call, so perfbench can wrap it
    return optimize.minimize(
        ctx.value_and_grad, psi0, jac=True, method="L-BFGS-B",
        options={"maxiter": _MAXITER, "ftol": _FTOL, "gtol": _GTOL},
    )


def _clean(res) -> bool:
    """Whether an attempt converged to a finite objective below the penalty."""
    return bool(res.success and np.isfinite(res.fun) and res.fun < _PENALTY)


def _optimize_with_restarts(ctx, psi0):
    """First attempt from psi0; while the last attempt is not clean, up to
    ``_RESTARTS`` restarts from psi0 plus normal jitter.

    Returns ``(best, attempts, messages)``.  ``best`` has the lowest finite
    objective seen (``None`` if there is none), but a cleanly converged
    optimum is preferred whenever its objective is within a small margin of
    the best abnormal termination (line searches often die on flat frailty
    ridges at points statistically indistinguishable from the converged one).
    """
    runs = [_minimize(ctx, psi0)]
    rng = np.random.default_rng(_JITTER_SEED)
    while not _clean(runs[-1]) and len(runs) <= _RESTARTS:
        runs.append(_minimize(ctx, psi0 + rng.normal(scale=_JITTER_SD, size=psi0.shape[0])))
    finite = [res for res in runs if np.isfinite(res.fun) and res.fun < _PENALTY]
    best = min(finite, key=lambda res: res.fun, default=None)
    best_ok = min((res for res in finite if res.success), key=lambda res: res.fun, default=None)
    # Prefer a cleanly converged point unless the abnormal one is better by
    # more than a quarter likelihood unit (flat-ridge drift is smaller).
    if best_ok is not None and best_ok.fun <= best.fun + 0.25:
        best = best_ok
    messages = []
    if not _clean(runs[0]):
        messages.append(f"initial optimisation failed: {runs[0].message}")
        if best is not None:
            messages.append("multistart recovered a converged optimum" if best.success
                            else "multistart kept the best non-converged optimum")
    return best, len(runs), messages


def fit(data: Dataset, table: lt.LifeTable, spec: ModelSpec, label: str = "") -> FitResult:
    """Maximum-likelihood fit of a classical or frailty excess-hazard model.

    Parameters
    ----------
    data, table : cohort and life table.
    spec : ModelSpec
        Baseline family, frailty family, optional covariate mapping (must
        match the dataset's x/w columns when given).
    label : free-text tag carried into reports; empty gives ``spec.label()``.

    The optimiser is L-BFGS-B with analytic gradients, capped at
    ``_MAXITER`` iterations, with up to ``_RESTARTS`` jittered restarts
    after a failed first attempt.  Non-convergence and invalid standard
    errors are reported through the result's ``convergence`` and
    ``se_valid`` fields rather than raised.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    if data.n_events == 0:
        raise ValueError("dataset has no events; the model is not identifiable")
    if spec.mapping is not None:
        if tuple(spec.mapping.x_names) != data.x_names or tuple(
            spec.mapping.w_names
        ) != data.w_names:
            raise ValueError("spec covariate mapping does not match dataset columns")
    fam = get_family(spec.baseline)
    ctx = _FitContext(data, table, spec.baseline, spec.frailty)
    messages: list[str] = []

    # start of the proportional-hazards submodel (alpha = 0, no frailty)
    ph0 = np.concatenate([fam.default_transformed_init(data.time), np.zeros(ctx.p)])
    if spec.has_frailty or ctx.p_t > 0:
        # stage 1: fit the PH submodel
        ph_ctx = _FitContext(
            data.with_covariates(data.x_names, ()), table, spec.baseline, "none"
        )
        ph_best, _, ph_msgs = _optimize_with_restarts(ph_ctx, ph0)
        messages.extend(f"PH start: {msg}" for msg in ph_msgs)
        if ph_best is None:
            theta_beta = ph0
            messages.append("PH initialisation failed; falling back to default start")
        else:
            theta_beta = ph_best.x
        psi0 = np.concatenate(
            [
                theta_beta[:ctx.k_theta],
                np.zeros(ctx.p_t),
                theta_beta[ctx.k_theta:],
                np.zeros(1) if spec.has_frailty else np.zeros(0),  # start at b = 1
            ]
        )
    else:
        # the requested model *is* the PH submodel; one stage suffices
        psi0 = ph0

    best, attempts, opt_msgs = _optimize_with_restarts(ctx, psi0)
    messages.extend(opt_msgs)

    if best is None:
        psi_hat = psi0
        converged = False
        iterations = 0
        grad_norm = float("inf")
        messages.append("optimisation failed from every start; returning start values")
        loglik_val = -ctx.value(psi_hat)
    else:
        psi_hat = best.x
        converged = bool(best.success) and bool(np.isfinite(best.fun))
        iterations = int(best.nit)
        jac = np.atleast_1d(np.asarray(best.jac, dtype=float))
        grad_norm = float(np.max(np.abs(jac))) if np.all(np.isfinite(jac)) else float("inf")
        loglik_val = -float(best.fun)

    cov, se_msg = hessian_std_errors(lambda q: ctx.value_and_grad(q)[1], psi_hat)
    if cov is None:
        messages.append(f"standard errors invalid: {se_msg}")

    return FitResult(
        spec=spec,
        psi=np.array(psi_hat, dtype=float),
        covariance=cov,
        loglik=loglik_val,
        convergence=Convergence(
            converged=converged,
            iterations=iterations,
            gradient_norm=grad_norm,
            messages=tuple(messages),
            attempts=attempts,
        ),
        n=data.n,
        n_events=data.n_events,
        data_fingerprint=data.fingerprint(),
        x_names=data.x_names,
        w_names=data.w_names,
        label=label,
    )
