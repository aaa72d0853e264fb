"""Batch experiment harness: one subcommand per experiment, config-file driven.

Verbs: ``run <config.json>``, ``validate <config.json>``, ``list-experiments``.
Each run writes report.json (all computed quantities and assertions), data.csv
(tabular series) and plot.svg into the output directory, atomically.  Exit
codes: 0 all assertions pass, 1 assertion failure, 2 config rejected by
``validate`` or unparsable, 3 runtime failure.  The same config and seed
reproduce report.json byte-for-byte apart from its timestamp field.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass

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
        params = dict(raw.get("params", {}))
        bad = set(params) - set(entry.defaults)
        if bad:
            raise ConfigError(f"unknown params for {name}: {sorted(bad)}")
        merged = {**entry.defaults, **params}
        seed = raw.get("seed")
        if entry.stochastic and seed is None:
            raise ConfigError(f"experiment {name} is stochastic: a seed is required")
        if seed is not None and not isinstance(seed, int):
            raise ConfigError("seed must be an integer")
        out = os.environ.get("OUTPUT_DIR", raw.get("output_dir", "."))
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
# experiment runners: each returns (results, series, assertions); results is a
# dict or a result dataclass, which _to_jsonable writes out field by field


def _group_by_name(spec, dim: int = None) -> _inv.GroupAction:
    """Resolve a group param: a short name or {dim, generators[, max_size]}."""
    if isinstance(spec, dict):
        return _inv.closure_from_generators(
            spec["dim"], spec["generators"],
            max_size=spec.get("max_size", _inv.MAX_GROUP_SIZE))
    name = spec
    if not isinstance(name, str):
        raise ConfigError(f"group must be a name or a generator dict, got {name!r}")
    if name == "trivial":
        return _inv.trivial_group(dim or 2)
    if name.startswith("s"):
        return _inv.symmetric_group(int(name[1:]))
    if name.startswith("c"):
        return _inv.cyclic_group(int(name[1:]))
    raise ConfigError(f"unknown group name {name!r}")


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


def _worked_s2_instance():
    mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
    return mu, nu, _inv.symmetric_group(2)


def run_invariant_duality(params, seed):
    if params["instance"] == "worked_s2":
        mu, nu, group = _worked_s2_instance()
    else:
        group = _group_by_name(params["group"])
        rng = np.random.default_rng(seed)
        mu, nu = _random_invariant_pair(group, rng, params["orbits"])
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
    if params["instance"] == "worked_s2":
        mu, nu, group = _worked_s2_instance()
    else:
        group = _group_by_name(params["group"])
        if not group.transitive:
            raise ConfigError("transitive_identity needs a transitive group")
        rng = np.random.default_rng(seed)
        mu, nu = _random_invariant_pair(group, rng, params["orbits"])
    rep = _inv.transitive_identity_check(mu, nu, group)
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
    return DiscreteMeasure(np.asarray(spec["points"], dtype=float)[:, None],
                           np.asarray(spec["weights"], dtype=float))


def run_no_map(params, seed):
    a = _measure_1d(params["a"])
    b = _measure_1d(params["b"])
    d = params["d"]
    group = _group_by_name(params["group"] or f"s{d}", dim=d)
    rep = _inv.no_map_counterexample(a, b, d, group)
    if rep.components_identical:
        assertions = [{"name": "identical_components_give_a_map",
                       "passed": bool(rep.concentration >= 1.0 - 1e-12),
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


def _mixture_from(spec: dict) -> _proc.MixtureSpec:
    comps = [gaussian1d(m, s) for m, s in zip(spec["means"], spec["sigmas"])]
    return _proc.MixtureSpec(spec["weights"], comps)


def run_definetti(params, seed):
    pi_mu = _mixture_from(params["mu"])
    pi_nu = _mixture_from(params["nu"])
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
    mix = _mixture_from(params["mixture"])
    rep = _proc.mixture_entropy_bound_check(mix, params["m"], params["n"],
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
        return gaussian1d(spec["mean"], spec["sigma"])
    return mixture_grid(spec["weights"], spec["means"], spec["sigmas"],
                        lo=spec.get("lo", -14.0), hi=spec.get("hi", 14.0))


def run_talagrand(params, seed):
    rep = _bounds.talagrand_gap(_law_1d(params["mu"]), _law_1d(params["nu"]),
                                _law_1d(params["target"]), K=params["K"])
    assertions = [{"name": "entropy_dominates_map_gap",
                   "passed": bool(rep.slack >= -1e-8),
                   "detail": f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}"}]
    series = {"quantity": ["lhs", "rhs", "slack"],
              "value": [rep.lhs, rep.rhs, rep.slack]}
    return rep, series, assertions


def run_lemma21(params, seed):
    def grid_of(spec):
        law = _law_1d(spec)
        if hasattr(law, "nodes"):
            return law
        return mixture_grid([1.0], [spec["mean"]], [spec["sigma"]], lo=-14, hi=14)

    rep = _bounds.lemma21_check(grid_of(params["mu"]), grid_of(params["nu"]),
                                t=params["t"], epsilon=params["epsilon"],
                                p=params["p"], q=params["q"])
    assertions = [
        {"name": "increment_estimate", "passed":
         bool(rep.lhs_increment <= rep.rhs_increment * (1 + 1e-6) + 1e-300),
         "detail": f"lhs={rep.lhs_increment:.6g} rhs={rep.rhs_increment:.6g}"},
        {"name": "linearization_estimate", "passed":
         bool(rep.lhs_linearization <= rep.rhs_linearization * (1 + 1e-6) + 1e-15),
         "detail": f"lhs={rep.lhs_linearization:.6g} rhs={rep.rhs_linearization:.6g}"},
    ]
    series = {"quantity": ["lhs_increment", "rhs_increment",
                           "lhs_linearization", "rhs_linearization"],
              "value": [rep.lhs_increment, rep.rhs_increment,
                        rep.lhs_linearization, rep.rhs_linearization]}
    return rep, series, assertions


def _gibbs_spec_from(params) -> _gibbs.GibbsSpec:
    if params["V_coeffs"] is not None:
        return _gibbs.GibbsSpec(params["V_coeffs"], params["W_coeffs"],
                                _gibbs.GibbsParams(**params["gibbs_params"]))
    return _gibbs.quartic_spec(params["coupling"])


def run_gibbs_cauchy(params, seed):
    spec = _gibbs_spec_from(params)
    rep = _gibbs.cauchy_convergence_experiment(
        spec, m_list=params["m_list"], n=params["n"], samples=params["samples"],
        epsilon=params["epsilon"], seed=seed, ot_points=params["ot_points"],
        replicates=params["replicates"])
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
    defaults: dict
    backed_by: tuple  # dotted paths of the module operations this exercises


EXPERIMENTS = {
    "ot_basic": ExperimentEntry(
        run_ot_basic, True,
        {"num_instances": 20, "max_atoms": 50, "max_dim": 3},
        ("seqot.ot.solve_discrete_ot",)),
    "invariant_duality": ExperimentEntry(
        run_invariant_duality, True,
        {"instance": "worked_s2", "group": "s2", "orbits": 3},
        ("seqot.invariance.solve_invariant_ot",
         "seqot.invariance.invariant_duality_value")),
    "transitive_identity": ExperimentEntry(
        run_transitive_identity, True,
        {"instance": "worked_s2", "group": "c3", "orbits": 3},
        ("seqot.invariance.transitive_identity_check",)),
    "no_map": ExperimentEntry(
        run_no_map, False,
        {"a": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
         "b": {"points": [0.0, 2.0], "weights": [0.5, 0.5]},
         "d": 2, "group": "s2"},
        ("seqot.invariance.no_map_counterexample",)),
    "quasi_product": ExperimentEntry(
        run_quasi_product, False,
        {"dim": 3, "source_tilt_strength": 0.3, "target_tilt_strength": 0.2,
         "n_list": [1, 2, 3], "nodes": 16},
        ("seqot.processes.quasi_product_approx",
         "seqot.processes.diagonal_transport")),
    "definetti": ExperimentEntry(
        run_definetti, False,
        {"mu": {"weights": [0.5, 0.5], "means": [0.0, 4.0], "sigmas": [1.0, 1.0]},
         "nu": {"weights": [0.5, 0.5], "means": [1.0, 5.0], "sigmas": [1.0, 1.0]},
         "resolution": 10_000},
        ("seqot.processes.definetti_ot",)),
    "mixture_entropy": ExperimentEntry(
        run_mixture_entropy, True,
        {"mixture": {"weights": [0.5, 0.5], "means": [0.0, 3.0],
                     "sigmas": [1.0, 1.0]},
         "m": 2, "n": 4, "samples": 100_000},
        ("seqot.processes.mixture_entropy_bound_check",)),
    "talagrand": ExperimentEntry(
        run_talagrand, False,
        {"mu": {"mean": 1.0, "sigma": 1.0}, "nu": {"mean": 0.0, "sigma": 1.0},
         "target": {"mean": 0.0, "sigma": 1.0}, "K": 1.0},
        ("seqot.bounds.talagrand_gap", "seqot.bounds.relative_entropy")),
    "lemma21": ExperimentEntry(
        run_lemma21, False,
        {"mu": {"mean": 0.0, "sigma": 1.0}, "nu": {"mean": 0.0, "sigma": 1.0},
         "t": 0.1, "epsilon": 1.0, "p": 2.0, "q": 2.0},
        ("seqot.bounds.lemma21_check", "seqot.bounds.assumption_A_probe")),
    "gibbs_cauchy": ExperimentEntry(
        run_gibbs_cauchy, True,
        {"coupling": 0.0, "n": 2, "m_list": [1], "samples": 1500,
         "ot_points": 300, "epsilon": 0.1, "replicates": 3,
         "V_coeffs": None, "W_coeffs": None, "gibbs_params": None},
        ("seqot.gibbs.cauchy_convergence_experiment",
         "seqot.gibbs.sample_periodic_gibbs",
         "seqot.gibbs.entropy_mn_estimate")),
}


# ---------------------------------------------------------------------------
# validate: precondition checks without running


def _int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and value >= low


def validate_config(config: ExperimentConfig) -> list:
    """Hypothesis/precondition diagnostics for a parsed config."""
    checks = []

    def add(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    name = config.experiment
    params = config.params
    # a malformed nested param fails the check that reads it; it never raises
    malformed = (KeyError, TypeError, ValueError)
    if name == "gibbs_cauchy":
        try:
            spec = _gibbs_spec_from(params)
            for label in spec.assumption_checklist():
                add(label, True)
        except _gibbs.GibbsAssumptionError as e:
            add(e.name, False, str(e))
        except malformed as e:
            add("potential specification well formed", False, str(e))
        add("ring half-width n is an integer >= 1", _int_at_least(params["n"], 1))
        try:
            add("block half-widths satisfy 0 <= m < n",
                all(_int_at_least(m, 0) and m < params["n"] for m in params["m_list"]))
        except malformed as e:
            add("block half-widths satisfy 0 <= m < n", False, str(e))
        add("at least one transport point per replicate",
            _int_at_least(params["ot_points"], 1))
        add("at least two replicates for a standard error",
            _int_at_least(params["replicates"], 2))
        try:
            add("replicate blocks fit in the sample",
                params["replicates"] * params["ot_points"] <= params["samples"])
        except malformed as e:
            add("replicate blocks fit in the sample", False, str(e))
    elif name in ("invariant_duality", "transitive_identity"):
        try:
            group = (_inv.symmetric_group(2) if params.get("instance") == "worked_s2"
                     else _group_by_name(params["group"]))
            add("group closure within cap", True, f"order {len(group)}")
            if name == "transitive_identity":
                add("group acts transitively", group.transitive)
        except malformed as e:
            add("group closure within cap", False, str(e))
    elif name == "talagrand":
        try:
            cert = _bounds.log_concavity_constant(_law_1d(params["target"]))
            add("target uniformly log-concave", params["K"] <= cert + 1e-9,
                f"certified constant {cert:.6g}")
        except malformed as e:
            add("target uniformly log-concave", False, str(e))
    elif name == "mixture_entropy":
        try:
            w = params["mixture"]["weights"]
            add("mixture weights positive and normalized",
                all(x > 0 for x in w) and abs(sum(w) - 1.0) < 1e-12)
        except malformed as e:
            add("mixture weights positive and normalized", False, str(e))
        try:
            add("block split valid", 0 < params["m"] < params["n"])
        except malformed as e:
            add("block split valid", False, str(e))
        add("at least two samples for a standard error",
            _int_at_least(params["samples"], 2))
    elif name == "ot_basic":
        add("at least one instance", _int_at_least(params["num_instances"], 1))
        add("atom and dimension bounds valid",
            _int_at_least(params["max_atoms"], 2) and _int_at_least(params["max_dim"], 1),
            "max_atoms >= 2 and max_dim >= 1, as integers")
    elif name == "definetti":
        for key in ("mu", "nu"):
            try:
                _mixture_from(params[key])
                add(f"{key} mixture well formed", True)
            except malformed as e:
                add(f"{key} mixture well formed", False, str(e))
    elif name == "no_map":
        for key in ("a", "b"):
            try:
                _measure_1d(params[key])
                add(f"component {key} is a nonempty 1D law with matching weights", True)
            except malformed as e:
                add(f"component {key} is a nonempty 1D law with matching weights",
                    False, str(e))
    elif name == "quasi_product":
        # the source tilt reads the first two coordinates
        add("dimension covers the tilt width (an integer >= 2)",
            _int_at_least(params["dim"], 2))
        add("at least two nodes per axis", _int_at_least(params["nodes"], 2))
    elif name == "lemma21":
        for key in ("mu", "nu"):
            try:
                _law_1d(params[key])
                add(f"{key} law well formed", True)
            except malformed as e:
                add(f"{key} law well formed", False, str(e))
        try:
            add("shift t is nonnegative", params["t"] >= 0)
        except malformed as e:
            add("shift t is nonnegative", False, str(e))
        try:
            _bounds._check_conjugate(params["p"], params["q"])
            add("p and q are conjugate exponents", True)
        except malformed as e:
            add("p and q are conjugate exponents", False, str(e))
    return checks


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
    os.makedirs(config.output_dir, exist_ok=True)
    entry = EXPERIMENTS[config.experiment]
    results, series, assertions = entry.runner(config.params, config.seed)
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
        failed = [c["check"] for c in validate_config(config) if not c["passed"]]
        if failed:
            print(f"config error: failed checks: {'; '.join(failed)}", file=sys.stderr)
            return 2
        return run_experiment(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure: distinct exit code per contract
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
