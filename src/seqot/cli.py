"""Batch experiment harness: one subcommand per experiment, config-file driven.

Verbs: ``run <config.json>``, ``validate <config.json>``, ``list-experiments``.
Each run writes report.json (all computed quantities and assertions), data.csv
(tabular series) and plot.svg into the output directory, atomically.  Exit
codes: 0 all assertions pass, 1 assertion failure, 2 config rejected by
``validate`` or unparsable, 3 runtime failure.  The same config and seed
reproduce report.json byte-for-byte apart from its timestamp field.

Every param is declared once, in ``EXPERIMENTS``: its default and the parser
that turns its JSON value into what the runner reads, plus a few named cross
checks over several params.  ``validate`` reports one check per param and
one per cross check; ``run`` applies the same checks first and hands the
parsed values to the runner.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from . import bounds as _bounds
from . import gibbs as _gibbs
from . import invariance as _inv
from . import processes as _proc
from .measures import DiscreteMeasure, gaussian1d, mixture_grid
from .ot import solve_discrete_ot
from .svgplot import line_plot_svg

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    seed: int | None
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config is a JSON object, got {raw!r}")
        allowed = {"experiment", "params", "seed", "output_dir"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("missing 'experiment'")
        name = raw["experiment"]
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; "
                              f"known: {sorted(EXPERIMENTS)}")
        entry = EXPERIMENTS[name]
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params must be an object, got {params!r}")
        bad = set(params) - set(entry.defaults)
        if bad:
            raise ConfigError(f"unknown params for {name}: {sorted(bad)}")
        merged = {**entry.defaults, **params}
        seed = raw.get("seed")
        if entry.stochastic and seed is None:
            raise ConfigError(f"experiment {name} is stochastic: a seed is required")
        if seed is not None:
            try:
                _integer(0)(seed)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"seed: {e}")
        # an empty OUTPUT_DIR counts as unset
        out = os.environ.get("OUTPUT_DIR") or raw.get("output_dir", ".")
        if not isinstance(out, str) or not out:
            raise ConfigError(f"output_dir must be a nonempty path, got {out!r}")
        return cls(name, merged, seed, out)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot parse config {path}: {e}")
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# param parsers: each takes a param's JSON value and returns what the runner
# reads, raising KeyError, TypeError or ValueError on a malformed value


def _real(low: float = -math.inf, strict: bool = False, kind=(int, float)):
    """A finite number of ``kind``, never a bool, >= low (> low when strict)."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is int else "a real number"
            raise TypeError(f"expected {noun}, got {value!r}")
        if (isinstance(value, float) and not math.isfinite(value)) or value < low \
                or (strict and value == low):
            raise ValueError(f"expected a finite value {'>' if strict else '>='} {low}, "
                             f"got {value}")
        return value
    return parse


def _integer(low: int):
    return _real(low, kind=int)


def _list_of(item):
    """A nonempty list, each entry parsed by ``item``."""
    def parse(value):
        if not isinstance(value, list) or not value:
            raise TypeError(f"expected a nonempty list, got {value!r}")
        return [item(v) for v in value]
    return parse


def _one_of(*names):
    def parse(value):
        if value not in names:
            raise ValueError(f"expected one of {names}, got {value!r}")
        return value
    return parse


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


_positive = _real(0, strict=True)
_reals, _positives = _list_of(_real()), _list_of(_positive)


def _group_spec(value):
    """A group name (trivial, sN, cN) or {dim, generators}; a cross check
    resolves it with ``_group_by_name``."""
    if not isinstance(value, (str, dict)):
        raise TypeError(f"group must be a name or a generator dict, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# cross checks: conditions over several parsed params.  Each raises ValueError
# when it fails and may return derived values (a resolved group, a built
# potential) that the runner reads under new names.


class Check(NamedTuple):
    name: str
    reads: tuple            # params that must parse before the check runs
    test: callable          # parsed params -> derived values or None


def _invariant_group(p) -> dict:
    if p["instance"] == "worked_s2":
        return {"action": _inv.symmetric_group(2)}
    return {"action": _group_by_name(p["group"])}


def _no_map_group(p) -> dict:
    group = _group_by_name(p["group"] or f"s{p['d']}", dim=p["d"])
    _need(group.dim == p["d"], f"group acts on {group.dim} coordinates, d is {p['d']}")
    return {"action": group}


def _certified_k(p) -> None:
    cert = _bounds.log_concavity_constant(p["target"])
    _need(p["K"] <= cert + 1e-9, f"K={p['K']} exceeds the certified constant {cert:.6g}")


# ---------------------------------------------------------------------------
# experiment runners, each after the nested parsers of its params: a runner
# takes the parsed params and the seed and returns (results, series,
# assertions); results is a dict or a result dataclass, which _to_jsonable
# writes out field by field


def _group_by_name(spec, dim: int = None) -> _inv.GroupAction:
    """Resolve a group param: a short name or exactly {dim, generators}."""
    if isinstance(spec, dict):
        _need(set(spec) == {"dim", "generators"},
              f"a group dict has exactly the keys dim and generators, got {sorted(spec)}")
        return _inv.GroupAction(_integer(1)(spec["dim"]), spec["generators"])
    if spec == "trivial":
        return _inv.trivial_group(dim or 2)
    if spec[:1] in ("s", "c"):
        order = _integer(1)(int(spec[1:]))
        return (_inv.symmetric_group if spec[0] == "s" else _inv.cyclic_group)(order)
    raise ConfigError(f"unknown group name {spec!r}")


def _random_invariant_pair(group, rng, n_orbits):
    def one():
        pts, ws = [], []
        seen = set()
        for _ in range(n_orbits):
            x = np.round(rng.normal(size=group.dim), 3)
            orbit = sorted({tuple(x[p]) for p in group.elements} - seen)
            if not orbit:
                continue
            seen.update(orbit)
            w = rng.random() + 0.1
            pts.extend(orbit)
            ws.extend([w] * len(orbit))
        return DiscreteMeasure(np.array(pts), np.array(ws))

    return one(), one()


def run_ot_basic(params, seed):
    rng = np.random.default_rng(seed)
    values, gaps, sizes = [], [], []
    assertions = []
    for k in range(params["num_instances"]):
        n = int(rng.integers(2, params["max_atoms"] + 1))
        m = int(rng.integers(2, params["max_atoms"] + 1))
        d = int(rng.integers(1, params["max_dim"] + 1))
        mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.random(n) + 1e-3)
        nu = DiscreteMeasure(rng.normal(size=(m, d)), rng.random(m) + 1e-3)
        res = solve_discrete_ot(mu, nu)
        gap = abs(res.gap)
        values.append(res.value)
        gaps.append(gap)
        sizes.append(n * m)
        assertions.append({
            "name": f"duality_gap_instance_{k}",
            "passed": bool(gap <= 1e-9 * (1 + abs(res.value))),
            "detail": f"gap={gap:.3e}",
        })
    results = {"values": values, "gaps": gaps, "max_gap": max(gaps),
               "sizes": sizes}
    series = {"instance": list(range(len(values))), "value": values, "gap": gaps}
    return results, series, assertions


def _invariant_pair(params, seed):
    """The measure pair of an invariant experiment: the worked S2 instance or
    random invariant orbits."""
    if params["instance"] == "worked_s2":
        return (DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
                DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5]))
    return _random_invariant_pair(params["action"], np.random.default_rng(seed),
                                  params["orbits"])


def run_invariant_duality(params, seed):
    group = params["action"]
    mu, nu = _invariant_pair(params, seed)
    primal = _inv.solve_invariant_ot(mu, nu, group)
    dual = _inv.invariant_duality_value(mu, nu, group)
    gap = abs(primal.value - dual.value)
    results = {"primal": primal.value, "dual": dual.value, "gap": gap,
               "orbits": primal.n_orbits, "group_order": len(group)}
    assertions = [
        {"name": "weak_duality", "passed": bool(primal.value >= dual.value - 1e-9),
         "detail": f"primal={primal.value:.12g} dual={dual.value:.12g}"},
        {"name": "strong_duality_gap", "passed": bool(gap <= 1e-8),
         "detail": f"gap={gap:.3e}"},
    ]
    if params["instance"] == "worked_s2":
        assertions.append({"name": "worked_value_half",
                           "passed": bool(abs(primal.value - 0.5) <= 1e-9),
                           "detail": f"primal={primal.value:.12g}"})
    series = {"quantity": ["primal", "dual"], "value": [primal.value, dual.value]}
    return results, series, assertions


def run_transitive_identity(params, seed):
    mu, nu = _invariant_pair(params, seed)
    rep = _inv.transitive_identity_check(mu, nu, params["action"])
    assertions = [
        {"name": "identity_relative_difference",
         "passed": bool(rep.relative_difference <= 1e-8),
         "detail": f"rel={rep.relative_difference:.3e}"},
        {"name": "per_coordinate_costs_equal",
         "passed": bool(rep.per_coordinate_spread <= 1e-8),
         "detail": f"spread={rep.per_coordinate_spread:.3e}"},
    ]
    if params["instance"] == "worked_s2":
        assertions.append({
            "name": "worked_values_1_and_half",
            "passed": bool(abs(rep.full_value - 1.0) <= 1e-9
                           and abs(rep.invariant_single_value - 0.5) <= 1e-9),
            "detail": f"full={rep.full_value:.12g} single={rep.invariant_single_value:.12g}"})
    series = {"coordinate": list(range(len(rep.per_coordinate_costs))),
              "per_coordinate_cost": rep.per_coordinate_costs.tolist()}
    return rep, series, assertions


def _measure_1d(spec: dict) -> DiscreteMeasure:
    return DiscreteMeasure(np.asarray(_reals(spec["points"]), dtype=float)[:, None],
                           np.asarray(_list_of(_real(0))(spec["weights"]), dtype=float))


def run_no_map(params, seed):
    rep = _inv.no_map_counterexample(params["a"], params["b"], params["d"],
                                     params["action"])
    if rep.components_identical:
        assertions = [{"name": "identical_components_give_a_map",
                       "passed": rep.is_map,
                       "detail": f"concentration={rep.concentration}"}]
    else:
        assertions = [{"name": "no_map_concentration_below_0.99",
                       "passed": bool(rep.concentration < 0.99),
                       "detail": f"concentration={rep.concentration}"}]
    series = {"quantity": ["value", "concentration"],
              "value": [rep.value, rep.concentration]}
    return rep, series, assertions


def run_quasi_product(params, seed):
    base = _proc.ProductSpec([gaussian1d(0, 1)] * params["dim"])
    a = params["source_tilt_strength"]
    f = _proc.Tilt(2, lambda x: np.exp(a * x[:, 0] * x[:, 1]))
    bstr = params["target_tilt_strength"]
    g = _proc.Tilt(1, lambda y: np.exp(-bstr * (y[:, 0] - 0.5) ** 2),
                   log_curvature_bound=0.0)
    rep = _proc.quasi_product_approx(
        _proc.QuasiProductSpec(base, f), _proc.QuasiProductSpec(base, g),
        n_list=params["n_list"], nodes=params["nodes"])
    assertions = []
    for row in rep.diagonal_rows:
        if "skipped" in row:
            continue
        assertions.append({"name": f"diagonal_entropy_control_n{row['n']}",
                           "passed": row["passed"],
                           "detail": f"lhs={row['lhs']:.4e} ent={row['entropy']:.4e}"})
    for row in rep.pair_rows:
        if "skipped" in row:
            continue
        assertions.append({"name": f"pair_bound_m{row['m']}_n{row['n']}",
                           "passed": row["passed"],
                           "detail": f"D={row['D']:.4e} bound={row['bound']:.4e}"})
    pairs = [r for r in rep.pair_rows if "D" in r]
    series = {"m": [r["m"] for r in pairs], "D": [r["D"] for r in pairs],
              "bound": [r["bound"] for r in pairs]}
    return rep, series, assertions


def _components(spec: dict):
    """Weights, means and sigmas of a Gaussian mixture, one each per component."""
    w, m = _positives(spec["weights"]), _reals(spec["means"])
    s = _positives(spec["sigmas"])
    _need(len(w) == len(m) == len(s), "weights, means and sigmas differ in length")
    return w, m, s


def _mixture_from(spec: dict) -> _proc.MixtureSpec:
    weights, means, sigmas = _components(spec)
    return _proc.MixtureSpec(weights, [gaussian1d(m, s) for m, s in zip(means, sigmas)])


def run_definetti(params, seed):
    pi_mu, pi_nu = params["mu"], params["nu"]
    res = _proc.definetti_ot(pi_mu, pi_nu, resolution=params["resolution"])
    results = {"value": res.value, "assignment": res.assignment,
               "ground_cost": res.ground_cost, "concentration": res.concentration}
    assertions = [{"name": "outer_value_nonnegative", "passed": bool(res.value >= 0),
                   "detail": f"value={res.value:.6g}"}]
    k = len(pi_mu)
    if k == len(pi_nu) and k <= 6 and np.allclose(pi_mu.weights, pi_nu.weights):
        best = min(float(np.dot(pi_mu.weights,
                                res.ground_cost[np.arange(k), list(perm)]))
                   for perm in itertools.permutations(range(k)))
        assertions.append({"name": "matches_bruteforce_matching",
                           "passed": bool(abs(res.value - best) <= 1e-9),
                           "detail": f"value={res.value:.6g} bruteforce={best:.6g}"})
    series = {"pair": [f"{i}-{j}" for i in range(k) for j in range(len(pi_nu))],
              "ground_cost": [float(c) for row in res.ground_cost for c in row]}
    return results, series, assertions


def run_mixture_entropy(params, seed):
    rep = _proc.mixture_entropy_bound_check(params["mixture"], params["m"], params["n"],
                                            params["samples"], seed)
    assertions = [{"name": "entropy_below_log_inverse_min_weight",
                   "passed": rep.passed,
                   "detail": f"estimate={rep.estimate:.5f} bound={rep.bound:.5f} "
                             f"se={rep.standard_error:.5f}"}]
    series = {"quantity": ["estimate", "bound"],
              "value": [rep.estimate, rep.bound]}
    return rep, series, assertions


def _law_1d(spec: dict):
    if "sigma" in spec:
        return gaussian1d(_real()(spec["mean"]), _positive(spec["sigma"]))
    return mixture_grid(*_components(spec), lo=spec.get("lo", -14.0),
                        hi=spec.get("hi", 14.0))


def run_talagrand(params, seed):
    rep = _bounds.talagrand_gap(params["mu"], params["nu"], params["target"],
                                K=params["K"])
    assertions = [{"name": "entropy_dominates_map_gap",
                   "passed": rep.passed,
                   "detail": f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}"}]
    series = {"quantity": ["lhs", "rhs", "slack"],
              "value": [rep.lhs, rep.rhs, rep.slack]}
    return rep, series, assertions


def _grid_1d(spec: dict):
    """A 1D law on a grid: a Gaussian is a one-component mixture on [-14, 14]."""
    if "sigma" in spec:
        spec = {"weights": [1.0], "means": [spec["mean"]], "sigmas": [spec["sigma"]]}
    return _law_1d(spec)


def run_lemma21(params, seed):
    rep = _bounds.lemma21_check(params["mu"], params["nu"],
                                t=params["t"], epsilon=params["epsilon"],
                                p=params["p"], q=params["q"])
    assertions = [
        {"name": "increment_estimate", "passed": rep.increment_holds,
         "detail": f"lhs={rep.lhs_increment:.6g} rhs={rep.rhs_increment:.6g}"},
        {"name": "linearization_estimate", "passed": rep.linearization_holds,
         "detail": f"lhs={rep.lhs_linearization:.6g} rhs={rep.rhs_linearization:.6g}"},
    ]
    series = {"quantity": ["lhs_increment", "rhs_increment",
                           "lhs_linearization", "rhs_linearization"],
              "value": [rep.lhs_increment, rep.rhs_increment,
                        rep.lhs_linearization, rep.rhs_linearization]}
    return rep, series, assertions


def _gibbs_spec_from(p) -> dict:
    """The quartic potential with the given coupling, or V_coeffs, W_coeffs and
    gibbs_params; a failed probe raises GibbsAssumptionError naming it."""
    if p["V_coeffs"] is None:
        return {"spec": _gibbs.quartic_spec(p["coupling"])}
    _need(None not in (p["W_coeffs"], p["gibbs_params"]),
          "V_coeffs needs W_coeffs and gibbs_params")
    return {"spec": _gibbs.GibbsSpec(p["V_coeffs"], p["W_coeffs"], p["gibbs_params"])}


def run_gibbs_cauchy(params, seed):
    rep = _gibbs.cauchy_convergence_experiment(
        params["spec"], m_list=params["m_list"], n=params["n"],
        samples=params["samples"], epsilon=params["epsilon"], seed=seed,
        ot_points=params["ot_points"], replicates=params["replicates"])
    assertions = [{"name": f"entropy_transport_bound_m{row.m}", "passed": row.passed,
                   "detail": f"D_corr={row.d_corrected:.4e} bound={row.bound:.4e} "
                             f"se={row.se_d:.4e}"}
                  for row in rep.rows]
    series = {"m": [r.m for r in rep.rows],
              "D_corrected": [r.d_corrected for r in rep.rows],
              "bound": [r.bound for r in rep.rows],
              "D_raw": [r.d_raw for r in rep.rows],
              "D_null": [r.d_null for r in rep.rows]}
    return rep, series, assertions


@dataclass(frozen=True)
class ExperimentEntry:
    runner: callable
    stochastic: bool
    params: dict  # name -> (default, parse)
    backed_by: tuple  # dotted paths of the module operations this exercises
    checks: tuple = ()  # cross checks, run in order

    @property
    def defaults(self) -> dict:
        return {name: default for name, (default, _) in self.params.items()}


_INSTANCE = ("worked_s2", _one_of("worked_s2", "random"))
_GROUP_CLOSURE = Check("group closure within cap", ("instance", "group"),
                       _invariant_group)

EXPERIMENTS = {
    "ot_basic": ExperimentEntry(
        run_ot_basic, True,
        {"num_instances": (20, _integer(1)), "max_atoms": (50, _integer(2)),
         "max_dim": (3, _integer(1))},
        ("seqot.ot.solve_discrete_ot",)),
    "invariant_duality": ExperimentEntry(
        run_invariant_duality, True,
        {"instance": _INSTANCE, "group": ("s2", _group_spec),
         "orbits": (3, _integer(1))},
        ("seqot.invariance.solve_invariant_ot",
         "seqot.invariance.invariant_duality_value"), (_GROUP_CLOSURE,)),
    "transitive_identity": ExperimentEntry(
        run_transitive_identity, True,
        {"instance": _INSTANCE, "group": ("c3", _group_spec),
         "orbits": (3, _integer(1))},
        ("seqot.invariance.transitive_identity_check",),
        (_GROUP_CLOSURE,
         Check("group acts transitively", ("action",),
               lambda p: _need(p["action"].transitive, "the group is not transitive")))),
    "no_map": ExperimentEntry(
        run_no_map, False,
        {"a": ({"points": [0.0, 1.0], "weights": [0.5, 0.5]}, _measure_1d),
         "b": ({"points": [0.0, 2.0], "weights": [0.5, 0.5]}, _measure_1d),
         "d": (2, _integer(1)), "group": ("s2", _optional(_group_spec))},
        ("seqot.invariance.no_map_counterexample",),
        (Check("group closure within cap", ("group", "d"), _no_map_group),)),
    "quasi_product": ExperimentEntry(
        run_quasi_product, False,
        # the source tilt reads two coordinates; the target tilt's curvature
        # bound 0 holds for a strength >= 0
        {"dim": (3, _integer(2)), "source_tilt_strength": (0.3, _real()),
         "target_tilt_strength": (0.2, _real(0)),
         "n_list": ([1, 2, 3], _list_of(_integer(1))), "nodes": (16, _integer(2))},
        ("seqot.processes.quasi_product_approx",)),
    "definetti": ExperimentEntry(
        run_definetti, False,
        {"mu": ({"weights": [0.5, 0.5], "means": [0.0, 4.0], "sigmas": [1.0, 1.0]},
                _mixture_from),
         "nu": ({"weights": [0.5, 0.5], "means": [1.0, 5.0], "sigmas": [1.0, 1.0]},
                _mixture_from),
         "resolution": (10_000, _integer(2))},
        ("seqot.processes.definetti_ot",)),
    "mixture_entropy": ExperimentEntry(
        run_mixture_entropy, True,
        {"mixture": ({"weights": [0.5, 0.5], "means": [0.0, 3.0],
                      "sigmas": [1.0, 1.0]}, _mixture_from),
         "m": (2, _integer(1)), "n": (4, _integer(1)),
         "samples": (100_000, _integer(2))},
        ("seqot.processes.mixture_entropy_bound_check",),
        (Check("block split valid", ("m", "n"),
               lambda p: _need(p["m"] < p["n"], "need 0 < m < n")),)),
    "talagrand": ExperimentEntry(
        run_talagrand, False,
        {"mu": ({"mean": 1.0, "sigma": 1.0}, _law_1d),
         "nu": ({"mean": 0.0, "sigma": 1.0}, _law_1d),
         "target": ({"mean": 0.0, "sigma": 1.0}, _law_1d), "K": (1.0, _real(0))},
        ("seqot.bounds.talagrand_gap",),
        (Check("target uniformly log-concave", ("target", "K"), _certified_k),)),
    "lemma21": ExperimentEntry(
        run_lemma21, False,
        # the increment estimate raises |.| to the power 1 + epsilon > 0
        {"mu": ({"mean": 0.0, "sigma": 1.0}, _grid_1d),
         "nu": ({"mean": 0.0, "sigma": 1.0}, _grid_1d),
         "t": (0.1, _real(0)), "epsilon": (1.0, _real(-1, strict=True)),
         "p": (2.0, _real(1)), "q": (2.0, _real(1))},
        ("seqot.bounds.lemma21_check",),
        (Check("p and q are conjugate exponents", ("p", "q"),
               lambda p: _bounds._check_conjugate(p["p"], p["q"])),)),
    "gibbs_cauchy": ExperimentEntry(
        run_gibbs_cauchy, True,
        {"coupling": (0.0, _real()), "n": (2, _integer(1)),
         "m_list": ([1], _list_of(_integer(0))), "samples": (1500, _integer(1)),
         "ot_points": (300, _integer(1)), "epsilon": (0.1, _positive),
         "replicates": (3, _integer(2)),  # two at least for a standard error
         "V_coeffs": (None, _optional(_reals)),
         "W_coeffs": (None, _optional(_list_of(_reals))),
         "gibbs_params": (None, _optional(lambda spec: _gibbs.GibbsParams(**spec)))},
        ("seqot.gibbs.cauchy_convergence_experiment",
         "seqot.gibbs.entropy_mn_estimate"),
        (Check("block half-widths satisfy 0 <= m < n", ("n", "m_list"),
               lambda p: _need(max(p["m_list"]) < p["n"], "some m is >= n")),
         Check("replicate blocks fit in the sample",
               ("replicates", "ot_points", "samples"),
               lambda p: _need(p["replicates"] * p["ot_points"] <= p["samples"],
                               "need replicates * ot_points <= samples")),
         Check("Gibbs assumption checklist", ("coupling", "V_coeffs", "W_coeffs",
                                              "gibbs_params"), _gibbs_spec_from))),
}


# ---------------------------------------------------------------------------
# one parse for validate and run

_MALFORMED = (KeyError, TypeError, ValueError)


def _parse(config: ExperimentConfig):
    """Parse the params through the experiment's spec, then run the cross
    checks whose params all parsed.  Returns the parsed and derived values,
    and one check per param and per cross check run."""
    entry = EXPERIMENTS[config.experiment]
    parsed, checks = {}, []

    def record(name, error=None):
        checks.append({"check": name, "passed": error is None,
                       "detail": "" if error is None else str(error)})

    for name, (_, parse) in entry.params.items():
        try:
            parsed[name] = parse(config.params[name])
            record(f"param {name}")
        except _MALFORMED as e:
            record(f"param {name}", e)
    for check in entry.checks:
        if not set(check.reads) <= parsed.keys():
            continue
        try:
            parsed.update(check.test(parsed) or {})
            record(check.name)
        except _MALFORMED as e:
            # a Gibbs probe names the assumption that failed
            record(getattr(e, "name", check.name), e)
    return parsed, checks


def validate_config(config: ExperimentConfig) -> list:
    """One check per param and per cross check; never raises."""
    return _parse(config)[1]


def parse_params(config: ExperimentConfig) -> dict:
    """The parsed params a runner takes; ConfigError when a check fails."""
    parsed, checks = _parse(config)
    failed = [f"{c['check']} ({c['detail']})" for c in checks if not c["passed"]]
    if failed:
        raise ConfigError(f"failed checks: {'; '.join(failed)}")
    return parsed


# ---------------------------------------------------------------------------
# run: report writing


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_jsonable(obj):
    """The one conversion of results to JSON: a result dataclass becomes a
    dict of all its fields, numpy values become Python scalars and lists."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_csv(path: str, series: dict) -> None:
    cols = list(series)
    rows = max((len(v) for v in series.values()), default=0)
    lines = [",".join(cols)]
    for r in range(rows):
        lines.append(",".join(
            str(series[c][r]) if r < len(series[c]) else "" for c in cols))
    _atomic_write(path, "\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig) -> int:
    params = parse_params(config)
    os.makedirs(config.output_dir, exist_ok=True)
    runner = EXPERIMENTS[config.experiment].runner
    results, series, assertions = runner(params, config.seed)
    passed = all(a["passed"] for a in assertions)
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": config.experiment,
        "params": _to_jsonable(config.params),
        "seed": config.seed,
        "results": _to_jsonable(results),
        "assertions": _to_jsonable(assertions),
        "passed": passed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _atomic_write(os.path.join(config.output_dir, "report.json"),
                  json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_csv(os.path.join(config.output_dir, "data.csv"), series)
    numeric = {
        k: (list(range(len(v))), [float(x) for x in v])
        for k, v in series.items()
        if v and all(isinstance(x, (int, float, np.floating, np.integer)) for x in v)
    }
    svg = line_plot_svg(numeric, title=config.experiment)
    _atomic_write(os.path.join(config.output_dir, "plot.svg"), svg)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqot", description="transport experiment harness")
    sub = parser.add_subparsers(dest="verb", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")
    sub.add_parser("list-experiments", help="list known experiments")
    args = parser.parse_args(argv)

    if args.verb == "list-experiments":
        for name in sorted(EXPERIMENTS):
            entry = EXPERIMENTS[name]
            kind = "stochastic" if entry.stochastic else "deterministic"
            print(f"{name:22s} {kind:14s} backed by {', '.join(entry.backed_by)}")
        return 0

    try:
        config = ExperimentConfig.from_file(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        checks = validate_config(config)
        ok = all(c["passed"] for c in checks)
        print(json.dumps({"experiment": config.experiment, "ok": ok,
                          "checks": checks}, indent=2, sort_keys=True))
        return 0 if ok else 2

    try:
        return run_experiment(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure: distinct exit code per contract
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
