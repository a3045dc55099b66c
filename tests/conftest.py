"""Shared fixtures: small life tables and synthetic cohorts."""

import numpy as np
import pytest

from exhaz import inference as inf
from exhaz import lifetable as lt


def build_table(rate_fn, ages, years, strata=(("",),), schema=()):
    """Construct a LifeTable from a rate function of (age, year, stratum)."""
    cells = [(a, y, tuple(s)) for a in ages for y in years for s in strata]
    a, y, s = zip(*cells)
    return lt.LifeTable.from_columns(a, y, s, [rate_fn(*cell) for cell in cells], schema)


@pytest.fixture(scope="session")
def flat_table():
    """Constant-rate table, r = 0.02, no strata, wide coverage."""
    return build_table(lambda a, y, s: 0.02, range(0, 120), range(2000, 2040), [()], ())


@pytest.fixture(scope="session")
def zero_table():
    """All-zero rates: background mortality switched off."""
    return build_table(lambda a, y, s: 0.0, range(0, 120), range(2000, 2040), [()], ())


@pytest.fixture(scope="session")
def sex_table():
    """Age-increasing rates with a sex stratum ('0'/'1')."""

    def rate(a, y, s):
        base = 0.002 * np.exp(0.08 * max(a - 50, 0))
        return base * (0.85 if s == ("1",) else 1.0)

    return build_table(rate, range(0, 100), range(2008, 2020), [("0",), ("1",)], ("sex",))


def random_dataset(n, p, p_t, seed, with_strata=True, year=2012.0, status_rate=0.6):
    """Arbitrary small cohort for likelihood-level tests (not model-simulated)."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, p)) * 0.5
    time = np.clip(r.gamma(2.0, 1.5, size=n), 0.05, 12.0)
    status = (r.random(n) < status_rate).astype(int)
    age = r.uniform(52, 80, size=n)
    strata = tuple((str(int(r.random() < 0.5)),) for _ in range(n)) if with_strata else ((),) * n
    return inf.Dataset(
        time=time,
        status=status,
        columns={f"x{i}": x[:, i] for i in range(p)},
        x_names=tuple(f"x{i}" for i in range(p)),
        w_names=tuple(f"x{i}" for i in range(p_t)),
        age=age,
        year=np.full(n, year),
        strata=strata,
        stratum_names=("sex",) if with_strata else (),
    )

def simulate_ph_cohort(n, theta, beta, b, seed, admin=5.0):
    """Proportional-hazards cohort with optional gamma frailty, no background."""
    from exhaz.baseline import pgw_quantile

    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.normal(size=n) * 0.5, rng.integers(0, 2, size=n).astype(float)])
    eta = x @ beta
    v = rng.gamma(1.0 / b, b, size=n) if b > 0 else np.ones(n)
    q = -np.log1p(-rng.random(n)) / (v * np.exp(eta))
    t = np.maximum(pgw_quantile(q, theta), 1e-9)
    return inf.Dataset(
        time=np.minimum(t, admin),
        status=(t <= admin).astype(int),
        columns={"x0": x[:, 0], "x1": x[:, 1]},
        x_names=("x0", "x1"),
        w_names=(),
        age=np.full(n, 60.0),
        year=np.full(n, 2012.0),
        strata=((),) * n,
    )
