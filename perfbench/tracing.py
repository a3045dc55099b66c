"""Spans recorded around calls into each exhaz module, and their arithmetic.

The benchmark never edits the package: it replaces module and class
attributes at run time with wrappers that record a span per call.  A span
holds its name, start, end, parent span and the unit it belongs to (unit -1
is set-up).  Spans stay in memory in flat arrays and are written out once,
after the run.

Self time of a span is its duration minus the part of its interval that its
child spans cover.  Because every span inside a unit descends from that
unit's root span, the self times of a unit's spans sum to the unit's
duration; the root's own self time is the unit's ``unaccounted`` remainder.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

UNIT = "unit"
PACKAGE = "exhaz"

# (owner, attribute, span name, elems) for every traced call.  ``owner`` is a
# module or class path inside the package; ``elems`` picks the argument whose
# length is the work size (None: no size).  Module functions are replaced in
# every package module that imported them by name.
TRACED = (
    ("cli", "cmd_fit", "cli.fit", None),
    ("cli", "cmd_compare", "cli.compare", None),
    ("cli", "cmd_netsurv", "cli.netsurv", None),
    ("cli", "cmd_bench", "cli.bench", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("datasets", "load_patient_csv", "datasets.load_patient_csv", None),
    ("datasets", "write_patient_csv", "datasets.write_patient_csv", None),
    ("lifetable", "load_life_table", "lifetable.load_life_table", None),
    ("lifetable", "sample_other_cause_time", "lifetable.sample_other_cause_time", None),
    ("lifetable.LifeTable", "rates_at", "lifetable.rates_at", 1),
    ("lifetable.LifeTable", "stratum_codes", "lifetable.stratum_codes", 1),
    ("baseline._PGWFamily", "cum_block", "baseline.cum_block", 0),
    ("baseline._PGWFamily", "haz_block", "baseline.haz_block", 0),
    ("baseline._LogNormalFamily", "cum_block", "baseline.cum_block", 0),
    ("baseline._LogNormalFamily", "haz_block", "baseline.haz_block", 0),
    ("baseline", "pgw_cum_hazard", "baseline.cum_hazard", 0),
    ("baseline", "lognormal_cum_hazard", "baseline.cum_hazard", 0),
    ("model", "laplace", "model.laplace", 1),
    ("model", "simulate_event_time", "model.simulate_event_time", None),
    ("inference", "fit", "inference.fit", None),
    ("inference._FitContext", "value_and_grad", "inference.value_and_grad", None),
    ("inference", "hessian_std_errors", "inference.hessian", None),
    ("netsurvival", "net_survival_mc_ci", "netsurvival.mc_ci", None),
    ("netsurvival", "_curve_values", "netsurvival.point_curve", None),
    ("simulation", "generate_cohort", "simulation.generate_cohort", None),
    ("simulation", "calibrate_dropout", "simulation.calibrate_dropout", None),
    ("simulation", "two_group_true_curves", "simulation.true_curves", None),
    ("simulation", "true_net_survival_curve", "simulation.true_curves", None),
)
# scipy's optimiser is timed where the package calls it.
MINIMIZE = "inference.minimize"


def _size(value) -> int:
    try:
        return len(value) if not hasattr(value, "size") else int(value.size)
    except TypeError:
        return 1


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.unit_id = -1
        # counters[(unit, name)] are totals reported by the wrapped calls
        self.counters: dict = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid: int, elems: int = 0) -> int:
        i = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit.append(self.unit_id)
        self.elems.append(elems)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        top = self.stack.pop()
        if top != i:
            raise RuntimeError(f"span {i} closed while span {top} was open")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.unit_id, name)] += value

    def begin_unit(self, unit_id: int) -> int:
        self.unit_id = unit_id
        return self.open(self.name_id(UNIT))

    def end_unit(self, span: int) -> None:
        self.close(span)
        self.unit_id = -1

    def wrap(self, name: str, fn, elems=None, on_result=None):
        sid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(sid, _size(args[elems]) if elems is not None else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,name,parent,unit,start,end,elems\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.unit[i]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.elems[i]}\n"
                )


# -- patching --------------------------------------------------------------------

class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, replacement) -> int:
        """Rebind ``original`` to ``replacement`` in every loaded package module,
        and in the handler table of the CLI; returns the number of bindings."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    n += 1
                elif attr == "_HANDLERS":  # the CLI's command table
                    for key, item in list(value.items()):
                        if item is original:
                            self._saved.append((value, key, item))
                            value[key] = replacement
                            n += 1
        return n

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def _resolve(path: str):
    module_name, _, cls = path.partition(".")
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    return module, (getattr(module, cls) if cls else None)


def patch_callable(patches: Patches, owner_path: str, attr: str, make):
    """Replace ``owner_path.attr`` by ``make(original)``; class attributes keep
    their static-method or plain-method kind."""
    module, cls = _resolve(owner_path)
    if cls is None:
        original = getattr(module, attr)
        n = patches.replace_function(original, make(original))
        if n == 0:
            raise RuntimeError(f"{owner_path}.{attr} is bound nowhere")
        return
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, staticmethod):
        patches.set(cls, attr, staticmethod(make(raw.__func__)))
    else:
        patches.set(cls, attr, make(raw))


def install_tracing(tracer: Tracer, patches: Patches) -> None:
    """Wrap every call listed in :data:`TRACED`, plus ``scipy.optimize.minimize``
    and the counters that ride on the wrapped calls' results."""
    import scipy.optimize

    on_result = {
        "inference.fit": _count_fit(tracer),
        "datasets.load_patient_csv": lambda r, a, k: tracer.count("datasets.rows", r.n),
        "netsurvival.mc_ci": _count_draws(tracer),
    }
    for owner, attr, name, elems in TRACED:
        patch_callable(
            patches, owner, attr,
            lambda fn, name=name, elems=elems: tracer.wrap(
                name, fn, elems, on_result.get(name)
            ),
        )

    def count_minimize(res, args, kwargs):
        tracer.count("inference.nfev", res.nfev)
        tracer.count("inference.nit", res.nit)

    patches.set(scipy.optimize, "minimize",
                tracer.wrap(MINIMIZE, scipy.optimize.minimize, None, count_minimize))


def _count_draws(tracer: Tracer):
    from exhaz.netsurvival import net_survival_mc_ci

    signature = inspect.signature(net_survival_mc_ci)

    def count(res, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count("netsurvival.draws_kept", bound.arguments["draws"])
    return count


def _count_fit(tracer: Tracer):
    def count(res, args, kwargs):
        tracer.count("inference.attempts", res.convergence.attempts)
        tracer.count("inference.converged", bool(res.convergence.converged))
        tracer.count("inference.se_valid", bool(res.se_valid))
    return count


# -- arithmetic over recorded spans ---------------------------------------------

def self_times(start, end, parent) -> list:
    """Self time of each span: duration minus the union of its children's
    intervals clipped to the span."""
    n = len(start)
    children: dict = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered
    return out


def layer_of(name: str) -> str:
    return "unaccounted" if name == UNIT else name.split(".", 1)[0]


def unit_breakdown(tracer: Tracer) -> dict:
    """Per unit: traced duration, self time per layer and ``unaccounted``."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    units: dict = {}
    unit_sid = tracer._ids.get(UNIT)
    for i in range(len(tracer.start)):
        u = tracer.unit[i]
        if u < 0:
            continue
        row = units.setdefault(u, {"duration_s": 0.0, "self_s": defaultdict(float)})
        if tracer.name[i] == unit_sid:
            row["duration_s"] = tracer.end[i] - tracer.start[i]
        row["self_s"][layer_of(tracer.names[tracer.name[i]])] += selfs[i]
    for row in units.values():
        row["self_s"] = dict(row["self_s"])
        row["closure_error_s"] = sum(row["self_s"].values()) - row["duration_s"]
    return units
