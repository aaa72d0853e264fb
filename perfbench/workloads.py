"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is built once per process (its set-up: program objects such as
``GroupAction`` and ``GibbsSpec`` plus a warm-up call) and then yields
rounds.  A round is a fixed mix of operations whose inputs come from
``numpy.random.default_rng([seed, round])``, so the same seed gives the same
inputs.  Each ``Op`` carries the call that is timed and a ``verify`` that
checks its output afterwards, outside the timed region, returning
``(problems, values)``: a list of failed checks and the numbers the
reproducibility test compares.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MARGINAL_TOL = 1e-10   # exact solvers: marginals of the returned plan
GAP_REL_TOL = 1e-9     # exact solvers: gap <= GAP_REL_TOL * (1 + |value|)
INVARIANT_TOL = 1e-8   # invariant primal/dual and transitive identity
# gibbs_cauchy's 3-SE assertion on 3 replicates fails by chance on about 2%
# of seeds (2 of 100 measured); more failures than this rate explains at
# FALSE_ALARM per run count as failed operations
CHANCE_RATE = 0.04
FALSE_ALARM = 1e-4


def load_seqot():
    """Import seqot from this checkout's ``src`` and nowhere else."""
    if not (SRC / "seqot" / "__init__.py").is_file():
        raise FileNotFoundError(f"no seqot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqot
    import seqot.cli  # not imported by the package itself

    if Path(seqot.__file__).resolve().parent != SRC / "seqot":
        raise ImportError(f"seqot was imported from {seqot.__file__}, not {SRC}")
    return seqot


@dataclass
class Op:
    label: str                      # operation class, e.g. "weighted" or "S5"
    call: Callable[[], object]      # the timed operation
    verify: Callable[[object], tuple]  # result -> (problems, values)
    statistical: bool = False       # values[1] is False when an assertion failed by chance
    config: dict = field(default_factory=dict)  # reported with a failure


def chance_limit(n: int) -> int:
    """Most assertion failures among ``n`` statistical operations that chance
    explains: the least L with P(X > L) < FALSE_ALARM, X ~ Binomial(n, CHANCE_RATE)."""
    p, below, limit = CHANCE_RATE, 0.0, -1
    while 1.0 - below >= FALSE_ALARM and limit < n:
        limit += 1
        below += math.comb(n, limit) * p ** limit * (1.0 - p) ** (n - limit)
    return limit


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _sqdist(x, y):
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)


def _marginal_error(weights, mu, nu) -> float:
    return max(float(np.abs(weights.sum(axis=1) - mu.weights).max()),
               float(np.abs(weights.sum(axis=0) - nu.weights).max()))


def exact_problems(mu, nu, res) -> list:
    """Re-certify an exact solve from its plan and duals alone."""
    tol = GAP_REL_TOL * (1.0 + abs(res.value))
    c = _sqdist(mu.points, nu.points)
    w = res.plan.weights
    phi, psi = res.dual.phi, res.dual.psi
    problems = []
    err = _marginal_error(w, mu, nu)
    if err > MARGINAL_TOL:
        problems.append(f"exact plan marginal error {err:.2e}")
    primal = float(np.sum(w * c))
    dual = float(mu.weights @ phi + nu.weights @ psi)
    if abs(primal - res.value) > tol:
        problems.append(f"reported value {res.value!r} != plan cost {primal!r}")
    if abs(primal - dual) > tol:
        problems.append(f"duality gap {primal - dual:.2e} over {tol:.2e}")
    infeas = float(np.max(phi[:, None] + psi[None, :] - c))
    if infeas > tol:
        problems.append(f"dual infeasible by {infeas:.2e}")
    return problems


def _check_exact_binding(args, kwargs, res):
    mu = kwargs.get("mu", args[0] if args else None)
    nu = kwargs.get("nu", args[1] if len(args) > 1 else None)
    return exact_problems(mu, nu, res)


def _check_sinkhorn_binding(args, kwargs, res):
    mu = kwargs.get("mu", args[0] if args else None)
    nu = kwargs.get("nu", args[1] if len(args) > 1 else None)
    problems = [] if res.converged else ["sinkhorn did not converge"]
    err = _marginal_error(res.plan.weights, mu, nu)
    if err > MARGINAL_TOL:
        problems.append(f"sinkhorn plan marginal error {err:.2e}")
    return problems


def _experiment_verify(out_dir: str, statistical: bool):
    """Checks of one ``run_experiment``: exit code 0 and a parseable report.

    A statistical experiment may also return 1, a reported assertion
    failure: its 3-SE test fails by chance on a few percent of seeds.  It
    must then agree with its report, and the run counts such operations
    against ``chance_limit``.  Values: the digest of the report without its
    timestamp, and whether it passed.
    """

    def verify(rc):
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as e:
            return [f"run_experiment returned {rc}; report.json unreadable: {e}"], ()
        passed = report.get("passed")
        problems = []
        if rc != 0 and not (statistical and rc == 1):
            problems.append(f"run_experiment returned {rc}")
        if passed is not (rc == 0):
            problems.append(f"report.json says passed={passed} with exit code {rc}")
        if passed is not all(a["passed"] for a in report.get("assertions", ())):
            problems.append("report.json verdict disagrees with its assertions")
        for name in ("data.csv", "plot.svg"):
            if not os.path.isfile(os.path.join(out_dir, name)):
                problems.append(f"{name} missing")
        report.pop("timestamp", None)
        canonical = json.dumps(report, sort_keys=True).encode()
        return problems, (hashlib.sha256(canonical).hexdigest(), passed is True)

    return verify


def _experiment_op(cli, label, raw, out_dir, statistical=False) -> Op:
    config = cli.ExperimentConfig.from_dict({**raw, "output_dir": out_dir})
    return Op(label, lambda: cli.run_experiment(config),
              _experiment_verify(out_dir, statistical), statistical, {"config": raw})


def _seed_of(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _random_invariant_measure(sq, rng, group, n_orbits, tie=False):
    """Random invariant measure: n_orbits random orbits, one weight each.

    With ``tie`` the first two coordinates of each orbit point are equal,
    which halves the orbit under a symmetric group.
    """
    pts, ws, seen = [], [], set()
    for _ in range(n_orbits):
        x = np.round(rng.normal(size=group.dim), 3)
        if tie:
            x[1] = x[0]
        orbit = sorted({tuple(x[p]) for p in group.elements} - seen)
        seen.update(orbit)
        pts.extend(orbit)
        ws.extend([rng.random() + 0.1] * len(orbit))
    return sq.DiscreteMeasure(np.array(pts), np.array(ws))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    # bindings whose results are checked inside an operation, see Instrument
    internal_checks: dict = {}

    def __init__(self, sq, seed: int, work_dir: str):
        self.sq = sq
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, k: int):
        return np.random.default_rng([self.seed, k])

    def round(self, k: int) -> list:
        raise NotImplementedError


class ExactLP(Workload):
    name = "exact_lp"
    why = ("exact solves, where the LP and any assignment fast path do the "
           "work; the weighted class bypasses that fast path")
    WEIGHTED = 20          # criterion-01 shape: n, m in [2, 200], d in 1..4
    # fixed uniform sizes a round: solve time grows like n^2.7, so a drawn n
    # in [100, 500] would let one operation swing a round 3x.  Two solves at
    # n = 300 keep op_ms_tail (the 11th-largest time) among them for 4 to
    # 10 rounds a run, not on the edge between two sizes
    UNIFORM_SIZES = (150, 300, 300, 450)

    def __init__(self, sq, seed, work_dir):
        super().__init__(sq, seed, work_dir)
        warm = sq.DiscreteMeasure(np.arange(10.0).reshape(5, 2))
        sq.ot.solve_discrete_ot(warm, warm)

    def _op(self, label, mu, nu) -> Op:
        ot = self.sq.ot

        def verify(res):
            return exact_problems(mu, nu, res), (res.value,)

        return Op(label, lambda: ot.solve_discrete_ot(mu, nu), verify)

    def round(self, k):
        rng = self.rng(k)
        sq = self.sq
        ops = []
        # stratified sizes: strata (i, 7i + 3 mod q) of n and m form a rank-1
        # lattice that covers the criterion-01 square evenly, so every round
        # holds about the same work
        q = self.WEIGHTED
        for i in range(q):
            n = 2 + int((i + rng.random()) * 199 / q)
            m = 2 + int(((7 * i + 3) % q + rng.random()) * 199 / q)
            d = 1 + i % 4
            mu = sq.DiscreteMeasure(rng.normal(size=(n, d)), rng.random(n) + 1e-3)
            nu = sq.DiscreteMeasure(rng.normal(size=(m, d)), rng.random(m) + 1e-3)
            ops.append(self._op("weighted", mu, nu))
        for n in self.UNIFORM_SIZES:
            d = int(rng.integers(3, 10))
            mu = sq.empirical_from_samples(rng.normal(size=(n, d)))
            nu = sq.empirical_from_samples(rng.normal(size=(n, d)))
            ops.append(self._op("uniform", mu, nu))
        return [ops[i] for i in rng.permutation(len(ops))]


class LatticeCauchy(Workload):
    name = "lattice_cauchy"
    why = ("gibbs_cauchy experiments through both the LP and the Sinkhorn branch: "
           "the only MCMC and Sinkhorn traffic")
    # ot_points <= 300 takes the exact-LP branch of the empirical maps,
    # ot_points > 300 the entropic (Sinkhorn) branch.  LP: the default
    # config with ot_points 100, not 300 (19 s a run); Sinkhorn: criterion
    # 11 (coupling 0.1) scaled down.  Two LP-branch runs a round keep the
    # median operation inside one class.
    LP = {"coupling": 0.0, "n": 2, "m_list": [1], "ot_points": 100,
          "samples": 300, "replicates": 3}
    SINKHORN = {**LP, "coupling": 0.1, "ot_points": 600, "samples": 1800}
    CONFIGS = (("lp", LP), ("sinkhorn", SINKHORN), ("lp", LP))
    internal_checks = {("gibbs", "solve_discrete_ot"): _check_exact_binding,
                       ("gibbs", "sinkhorn"): _check_sinkhorn_binding}

    def __init__(self, sq, seed, work_dir):
        super().__init__(sq, seed, work_dir)
        # the specs the experiments build, with their assumption probes
        sq.quartic_spec(self.SINKHORN["coupling"]).zero_coupling_clone()
        sq.quartic_spec(self.LP["coupling"])

    def round(self, k):
        rng = self.rng(k)
        return [_experiment_op(self.sq.cli, label,
                               {"experiment": "gibbs_cauchy", "seed": _seed_of(rng),
                                "params": params},
                               os.path.join(self.work_dir, f"{label}-{i}"),
                               statistical=True)
                for i, (label, params) in enumerate(self.CONFIGS)]


class InvariantOrbits(Workload):
    name = "invariant_orbits"
    why = ("invariant primal, dual and transitive identity under S3-S5 and "
           "C4-C6, bound by orbit labelling and index maps")
    # (group, orbits per measure, ops per round); every group here is
    # transitive, so each op also runs the transitive identity check.  S5
    # orbit points tie two coordinates: 60 atoms an orbit, not 120, keeps an
    # S5 op near a second, so a run holds many of them.  Per op S3 < C4 < C5
    # < C6 < S4 < S5 in time; four ops below C6 and four above put op_ms_p50
    # in the middle of the C6 ops, not on the edge between two groups
    MIX = (("S3", 14, 1), ("S4", 4, 2), ("S5", 1, 2),
           ("C4", 24, 2), ("C5", 20, 1), ("C6", 18, 2))

    def __init__(self, sq, seed, work_dir):
        super().__init__(sq, seed, work_dir)
        self.groups = {
            name: (sq.symmetric_group if name[0] == "S" else sq.cyclic_group)(int(name[1:]))
            for name, _, _ in self.MIX}
        g = self.groups["S3"]
        warm = _random_invariant_measure(sq, np.random.default_rng(0), g, 1)
        sq.invariance.solve_invariant_ot(warm, warm, g)

    def _op(self, label, mu, nu, group) -> Op:
        inv = self.sq.invariance

        def call():
            return (inv.solve_invariant_ot(mu, nu, group),
                    inv.invariant_duality_value(mu, nu, group),
                    inv.transitive_identity_check(mu, nu, group))

        def verify(res):
            primal, dual, ident = res
            problems = []
            if abs(primal.value - dual.value) > INVARIANT_TOL:
                problems.append(f"|primal - dual| = {abs(primal.value - dual.value):.2e}")
            if ident.relative_difference > INVARIANT_TOL:
                problems.append(f"transitive identity off by {ident.relative_difference:.2e}")
            if ident.per_coordinate_spread > INVARIANT_TOL:
                problems.append(f"per-coordinate spread {ident.per_coordinate_spread:.2e}")
            return problems, (primal.value, dual.value, ident.full_value,
                              ident.invariant_single_value)

        return Op(label, call, verify)

    def round(self, k):
        rng = self.rng(k)
        ops = []
        for name, orbits, count in self.MIX:
            g = self.groups[name]
            tie = name == "S5"
            for _ in range(count):
                mu = _random_invariant_measure(self.sq, rng, g, orbits, tie)
                nu = _random_invariant_measure(self.sq, rng, g, orbits, tie)
                ops.append(self._op(name, mu, nu, g))
        return ops


class HarnessSweep(Workload):
    name = "harness_sweep"
    why = ("the nine non-lattice seqot run experiments in-process, each "
           "writing its report: bounds, processes and cli report writing")
    # ops per round; quasi_product (about 0.5 s an op) and ot_basic (0.1 s)
    # each take under a third of a round, mixture_entropy about a fifth
    MIX = (("quasi_product", 1), ("ot_basic", 5), ("invariant_duality", 8),
           ("transitive_identity", 8), ("no_map", 8), ("definetti", 8),
           ("mixture_entropy", 5), ("talagrand", 12), ("lemma21", 12))
    GROUPS = ("s2", "s3", "c3", "c4", "c5")

    def _params(self, name, rng):
        u = rng.uniform
        if name == "quasi_product":
            return {"source_tilt_strength": u(0.1, 0.5), "target_tilt_strength": u(0.1, 0.4)}
        if name == "ot_basic":
            return {}
        if name == "invariant_duality":
            return {"instance": "random", "group": self.GROUPS[rng.integers(5)],
                    "orbits": int(rng.integers(2, 9))}
        if name == "transitive_identity":
            return {"instance": "random", "group": self.GROUPS[rng.integers(5)],
                    "orbits": 3}
        if name == "no_map":
            d = int(rng.integers(2, 4))
            a, b = np.sort(u(-1.0, 1.0, 2)), np.sort(u(-1.0, 3.0, 2))
            return {"a": {"points": a.tolist(), "weights": [0.5, 0.5]},
                    "b": {"points": b.tolist(), "weights": [0.5, 0.5]},
                    "d": d, "group": f"s{d}"}
        if name == "definetti":
            def mix():
                return {"weights": [0.5, 0.5], "means": np.sort(u(-1.0, 5.0, 2)).tolist(),
                        "sigmas": u(0.8, 1.2, 2).tolist()}
            return {"mu": mix(), "nu": mix()}
        if name == "mixture_entropy":
            w = u(0.3, 0.7)
            return {"mixture": {"weights": [w, 1.0 - w], "means": [0.0, u(2.0, 4.0)],
                                "sigmas": [1.0, 1.0]}}
        if name == "talagrand":  # criterion-06 distribution
            w = u(0.25, 0.75)
            sigma = u(0.9, 1.2)
            return {"mu": {"weights": [w, 1.0 - w], "means": u(-1.5, 1.5, 2).tolist(),
                           "sigmas": u(0.8, 1.3, 2).tolist(), "lo": -14.0, "hi": 14.0},
                    "nu": {"weights": [0.5, 0.5], "means": u(-1.0, 1.0, 2).tolist(),
                           "sigmas": u(0.9, 1.25, 2).tolist(), "lo": -14.0, "hi": 14.0},
                    "target": {"mean": 0.0, "sigma": sigma}, "K": 1.0 / sigma ** 2}
        if name == "lemma21":  # criterion-07 distribution
            w = u(0.2, 0.8)
            return {"mu": {"weights": [w, 1.0 - w], "means": u(-1.0, 1.0, 2).tolist(),
                           "sigmas": u(0.8, 1.4, 2).tolist(), "lo": -16.0, "hi": 16.0},
                    "nu": {"mean": u(-0.5, 0.5), "sigma": u(0.9, 1.3)},
                    "t": u(0.02, 0.2), "epsilon": 1.0, "p": 2.0, "q": 2.0}
        raise KeyError(name)

    def round(self, k):
        rng = self.rng(k)
        cli = self.sq.cli
        ops = []
        for name, count in self.MIX:
            for i in range(count):
                raw = {"experiment": name, "params": self._params(name, rng)}
                if cli.EXPERIMENTS[name].stochastic:
                    raw["seed"] = _seed_of(rng)
                out = os.path.join(self.work_dir, f"{name}-{i}")
                ops.append(_experiment_op(cli, name, raw, out))
        return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {w.name: w for w in (ExactLP, LatticeCauchy, InvariantOrbits, HarnessSweep)}
