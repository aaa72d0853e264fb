"""Run-time spans around seqot's public functions, installed from outside.

Nothing in ``seqot`` is edited.  ``Instrument`` rebinds every public
function at every place a module holds it -- including the names one module
imports from another, such as ``seqot.gibbs.sinkhorn`` -- to a wrapper that
times the call as a span.  Spans nest: a span's self time is its duration
minus the part its child spans cover, so the exact LP's own model building
shows apart from the HiGHS call below it.  ``Instrument.restore`` puts the
original objects back.

Only public names are wrapped: the names in each seqot module's ``__all__``,
the CLI entry point ``cli.run_experiment``, ``gibbs.EmpiricalMap.evaluate``
and scipy's ``linprog`` as bound in ``seqot.ot`` and ``seqot.invariance``.
A name that a later refactor removes is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
import types
from collections import defaultdict

MODULES = ("measures", "ot", "invariance", "bounds", "processes", "gibbs",
           "cli", "svgplot")
# public entry points that are not listed in an __all__
EXTRA_FUNCTIONS = (("cli", "run_experiment"),)
METHODS = (("gibbs", "EmpiricalMap", "evaluate"),)
# a third-party function spanned under the seqot module that binds it
FOREIGN_BINDINGS = (("ot", "linprog"), ("invariance", "linprog"))
REPORT_FILES = ("report.json", "data.csv", "plot.svg")


class Tracer:
    """Aggregated spans and counters, kept in memory for one run.

    ``label`` names the operation class running now (for example the
    Sinkhorn-branch lattice experiment); self time is also kept per label.
    ``covered`` is the time the reported metrics account for: the self time
    of a span reported as ``<span>.self_s``, and all time inside a span
    reported as ``<span>.s``.  ``reported`` names those metrics.
    """

    def __init__(self, reported=()):
        self.reported = set(reported)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.label_self = defaultdict(lambda: defaultdict(float))
        self.counters = defaultdict(float)
        self.covered = 0.0
        self.label = ""
        self.last = 0.0  # duration of the span that ended last
        self._stack = []

    def span(self, name, fn, args, kwargs):
        inside = bool(self._stack) and self._stack[-1][1]
        frame = [0.0, inside or f"{name}.s" in self.reported]  # child time, busy reported
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            own = dt - frame[0]
            if frame[1] or f"{name}.self_s" in self.reported:
                self.covered += own
            self.calls[name] += 1
            self.busy[name] += dt
            self.self_time[name] += own
            self.label_self[self.label][name] += own
            self.last = dt


def _bind(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments


def _uniform(m) -> bool:
    w = getattr(m, "weights", None)
    return w is not None and len(w) > 0 and bool((w == w[0]).all())


# counters recorded after a successful call: (tracer, fn, args, kwargs, result)
def _count_exact(tr, fn, args, kwargs, res):
    tr.counters["ot.solve_discrete_ot.iterations"] += max(getattr(res, "iterations", 0), 0)
    a = _bind(fn, args, kwargs) or {}
    mu, nu = a.get("mu"), a.get("nu")
    uniform = (mu is not None and nu is not None and len(mu) == len(nu)
               and _uniform(mu) and _uniform(nu))
    cls = "uniform" if uniform else "weighted"
    tr.counters[f"ot.solve_discrete_ot.{cls}.s"] += tr.last


def _count_sinkhorn(tr, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs) or {}
    it = getattr(res, "iterations", 0)
    tr.counters["ot.sinkhorn.iterations"] += it
    tr.counters["ot.sinkhorn.converged"] += bool(getattr(res, "converged", False))
    mu, nu = a.get("mu"), a.get("nu")
    if mu is not None and nu is not None:
        # computed, not measured: two n*m float64 matrix-vector products a sweep
        tr.counters["ot.sinkhorn.matvec_bytes"] += it * 2 * len(mu) * len(nu) * 8


def _count_mcmc(tr, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs) or {}
    cfg = a.get("config")
    if cfg is None or "n" not in a or "num_samples" not in a:
        return
    chains = cfg.num_chains
    sweeps = cfg.burn_in + math.ceil(a["num_samples"] / chains) * cfg.thinning
    tr.counters["gibbs.sample_periodic_gibbs.site_updates"] += (
        sweeps * (2 * a["n"] + 1) * chains)


def _count_evaluate(tr, fn, args, kwargs, res):
    tr.counters["gibbs.EmpiricalMap.evaluate.points"] += len(res)


def _count_invariant(tr, fn, args, kwargs, res):
    tr.counters["invariance.n_orbits"] += getattr(res, "n_orbits", 0)
    plan = getattr(res, "plan", None)
    if plan is not None:
        tr.counters["invariance.pairs"] += plan.weights.size


def _count_report(tr, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs) or {}
    out = getattr(a.get("config"), "output_dir", None)
    for f in REPORT_FILES if out else ():
        path = os.path.join(out, f)
        if os.path.exists(path):
            tr.counters["cli.report_bytes"] += os.path.getsize(path)


COUNTERS = {
    "ot.solve_discrete_ot": _count_exact,
    "ot.sinkhorn": _count_sinkhorn,
    "gibbs.sample_periodic_gibbs": _count_mcmc,
    "gibbs.EmpiricalMap.evaluate": _count_evaluate,
    "invariance.solve_invariant_ot": _count_invariant,
    "cli.run_experiment": _count_report,
}


def public_functions(pkg) -> dict:
    """id(function) -> (function, span name) for seqot's public functions."""
    found = {}
    for short in MODULES:
        mod = getattr(pkg, short, None)
        if mod is None:
            continue
        names = list(getattr(mod, "__all__", ()))
        names += [n for m, n in EXTRA_FUNCTIONS if m == short]
        for name in names:
            obj = getattr(mod, name, None)
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith(pkg.__name__):
                span = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                found[id(obj)] = (obj, span)
    return found


class Instrument:
    """Rebinds seqot's public functions; ``restore`` undoes it.

    With a tracer, every public function becomes a span.  ``checks`` maps a
    binding ``(module, name)`` to ``check(args, kwargs, result) -> problems``;
    checked bindings are wrapped even without a tracer, and the problems they
    find collect in ``self.problems``.
    """

    def __init__(self, pkg, tracer: Tracer | None = None, checks: dict | None = None):
        self.pkg = pkg
        self.tracer = tracer
        self.checks = checks or {}
        self.problems = []
        self._saved = []
        self._install()

    def _wrap(self, fn, span, check):
        tracer, problems, count = self.tracer, self.problems, COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.span(span, fn, args, kwargs)
                if count is not None:
                    count(tracer, fn, args, kwargs, result)
            if check is not None:
                problems.extend(check(args, kwargs, result))
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self):
        pkg = self.pkg
        functions = public_functions(pkg)
        modules = [(pkg.__name__, pkg)] + [
            (short, getattr(pkg, short)) for short in MODULES if hasattr(pkg, short)]
        for short, mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = functions.get(id(val))  # ids are unique among live objects
                if hit is None:
                    continue
                check = self.checks.get((short, attr))
                if self.tracer is not None or check is not None:
                    self._set(mod, attr, self._wrap(val, hit[1], check))
        if self.tracer is None:
            return
        for short, attr in FOREIGN_BINDINGS:
            mod = getattr(pkg, short, None)
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._set(mod, attr, self._wrap(fn, f"{short}.{attr}", None))
        for short, cls_name, meth in METHODS:
            cls = getattr(getattr(pkg, short, None), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if isinstance(fn, types.FunctionType):
                self._set(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}", None))

    def restore(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
