"""Acceptance suite: every criterion at its stated tolerance, one line each.

Closed-form and brute-force oracles sit next to the assertions they certify;
tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from seqot import gibbs
from seqot.bounds import lemma21_check, talagrand_gap
from seqot.cli import ExperimentConfig, _random_invariant_pair, run_experiment
from seqot.gibbs import (
    cauchy_convergence_experiment,
    cyclic_symmetrize,
    empirical_map_to_gaussian,
    equivariance_check,
    quartic_spec,
    sample_periodic_gibbs,
)
from seqot.invariance import (
    cyclic_group,
    invariant_duality_value,
    no_map_counterexample,
    solve_invariant_ot,
    symmetric_group,
    transitive_identity_check,
)
from seqot.measures import (
    DiscreteMeasure,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
    mixture_grid,
)
from seqot.ot import quantile_transport_1d, solve_discrete_ot
from seqot.processes import MixtureSpec, definetti_ot, mixture_entropy_bound_check


def record(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exact_solver_gap_and_runtime():
    rng = np.random.default_rng(20240801)
    worst_gap_rel = 0.0
    worst_time = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(2, 201))
        d = int(rng.integers(1, 5))
        mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.random(n) + 1e-3)
        nu = DiscreteMeasure(rng.normal(size=(m, d)), rng.random(m) + 1e-3)
        t0 = time.perf_counter()
        res = solve_discrete_ot(mu, nu)
        elapsed = time.perf_counter() - t0
        worst_gap_rel = max(worst_gap_rel, abs(res.gap) / (1 + abs(res.value)))
        worst_time = max(worst_time, elapsed)
    record(1, "exact solver duality gap on 200 random instances",
           worst_gap_rel <= 1e-9 and worst_time < 1.0,
           f"worst relative gap {worst_gap_rel:.2e}, worst time {worst_time:.3f}s")


def test_criterion_02_one_dimensional_consistency():
    rng = np.random.default_rng(7121)
    worst_lp = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        mu = DiscreteMeasure(rng.normal(size=(n, 1)), rng.random(n) + 1e-3)
        nu = DiscreteMeasure(rng.normal(size=(m, 1)), rng.random(m) + 1e-3)
        lp = solve_discrete_ot(mu, nu).value
        quick = quantile_transport_1d(mu, nu).w2sq
        worst_lp = max(worst_lp, abs(lp - quick))
    worst_gauss = 0.0
    for _ in range(10):
        m1, m2 = rng.uniform(-2, 2, size=2)
        s1, s2 = rng.uniform(0.7, 1.4, size=2)
        got = quantile_transport_1d(gaussian_grid(m1, s1), gaussian_grid(m2, s2),
                                    resolution=10_000).w2sq
        want = gaussian_w2(gaussian1d(m1, s1), gaussian1d(m2, s2))
        worst_gauss = max(worst_gauss, abs(got - want))
    record(2, "1D quantile transport consistency",
           worst_lp <= 1e-6 and worst_gauss <= 1e-4,
           f"max |quantile-LP| {worst_lp:.2e}, max |quantile-closed form| {worst_gauss:.2e}")


def test_criterion_03_invariant_duality_50_instances():
    rng = np.random.default_rng(99173)
    groups = [symmetric_group(2), symmetric_group(3), cyclic_group(2),
              cyclic_group(3), cyclic_group(4), cyclic_group(5)]
    worst_gap = 0.0
    worst_time = 0.0
    for k in range(50):
        group = groups[k % len(groups)]
        n_orbits = int(rng.integers(2, max(3, 60 // len(group))))
        mu, nu = _random_invariant_pair(group, rng, n_orbits)
        t0 = time.perf_counter()
        primal = solve_invariant_ot(mu, nu, group)
        dual = invariant_duality_value(mu, nu, group)
        elapsed = time.perf_counter() - t0
        assert primal.value >= dual.value - 1e-9
        worst_gap = max(worst_gap, abs(primal.value - dual.value))
        worst_time = max(worst_time, elapsed)
    record(3, "invariant Kantorovich duality on 50 instances",
           worst_gap <= 1e-8 and worst_time < 5.0,
           f"worst |primal-dual| {worst_gap:.2e}, worst time {worst_time:.2f}s")


def test_criterion_04_transitive_identity_20_instances():
    rng = np.random.default_rng(5523)
    # the worked d=2 instance with known values (1, 1/2)
    mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
    rep = transitive_identity_check(mu, nu, symmetric_group(2))
    worked_ok = (abs(rep.full_value - 1.0) <= 1e-9
                 and abs(rep.invariant_single_value - 0.5) <= 1e-9)
    groups = [symmetric_group(2), symmetric_group(3), cyclic_group(3),
              cyclic_group(4), cyclic_group(5)]
    worst_rel = rep.relative_difference
    for k in range(19):
        group = groups[k % len(groups)]
        mu_k, nu_k = _random_invariant_pair(group, rng, 3)
        rep_k = transitive_identity_check(mu_k, nu_k, group)
        worst_rel = max(worst_rel, rep_k.relative_difference)
    record(4, "transitive-group cost identity on 20 instances",
           worked_ok and worst_rel <= 1e-8,
           f"worked values ({rep.full_value:.10g}, {rep.invariant_single_value:.10g}), "
           f"worst relative difference {worst_rel:.2e}")


def test_criterion_05_no_map_counterexample():
    a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    b = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    distinct = no_map_counterexample(a, b, 2, symmetric_group(2))
    identical = no_map_counterexample(a, a, 2, symmetric_group(2))
    record(5, "mixture-target invariant plan is not a map",
           distinct.concentration < 0.99 and identical.concentration == 1.0,
           f"distinct components concentration {distinct.concentration:.4f}, "
           f"identical components {identical.concentration:.4f}")


def test_criterion_06_talagrand_bound_100_instances():
    rng = np.random.default_rng(314159)
    worst_slack = np.inf
    for _ in range(100):
        means = rng.uniform(-1.5, 1.5, size=2)
        sigs = rng.uniform(0.8, 1.3, size=2)
        w = rng.uniform(0.25, 0.75)
        mu = mixture_grid([w, 1 - w], means, sigs, lo=-14, hi=14)
        nu = mixture_grid([0.5, 0.5], rng.uniform(-1, 1, 2),
                          rng.uniform(0.9, 1.25, 2), lo=-14, hi=14)
        t_sigma = rng.uniform(0.9, 1.2)
        rep = talagrand_gap(mu, nu, gaussian1d(0.0, t_sigma), K=1.0 / t_sigma ** 2)
        worst_slack = min(worst_slack, rep.slack)
    eq_ok = True
    eq_detail = []
    for a in (0.5, 1.0, 2.0):
        rep = talagrand_gap(gaussian1d(a, 1), gaussian1d(0, 1), gaussian1d(0, 1), K=1.0)
        eq_ok &= (abs(rep.lhs - a * a / 2) <= 1e-6 and abs(rep.rhs - a * a / 2) <= 1e-6)
        eq_detail.append(f"{rep.lhs:.8f}")
    record(6, "entropy dominates squared map gap (100 randomized instances)",
           worst_slack >= -1e-8 and eq_ok,
           f"worst slack {worst_slack:.3e}, equality-case lhs values {eq_detail}")


def test_criterion_07_shift_estimates_100_instances():
    rng = np.random.default_rng(2718)
    worst_rel_1 = np.inf
    worst_rel_2 = np.inf
    for _ in range(100):
        means = rng.uniform(-1.0, 1.0, size=2)
        sigs = rng.uniform(0.8, 1.4, size=2)
        w = rng.uniform(0.2, 0.8)
        mu = mixture_grid([w, 1 - w], means, sigs, lo=-16, hi=16, resolution=10_000)
        x = np.linspace(-16, 16, 10_000)
        nsig = rng.uniform(0.9, 1.3)
        nmean = rng.uniform(-0.5, 0.5)
        from seqot.measures import Grid1D
        nu = Grid1D(x, np.exp(-0.5 * ((x - nmean) / nsig) ** 2))
        t = rng.uniform(0.02, 0.2)
        rep = lemma21_check(mu, nu, t=t, epsilon=1.0, p=2.0, q=2.0)
        worst_rel_1 = min(worst_rel_1,
                          (rep.rhs_increment - rep.lhs_increment) / max(rep.rhs_increment, 1e-300))
        worst_rel_2 = min(worst_rel_2,
                          (rep.rhs_linearization - rep.lhs_linearization) / max(rep.rhs_linearization, 1e-300))
    record(7, "potential shift estimates (100 randomized instances)",
           worst_rel_1 >= -1e-6 and worst_rel_2 >= -1e-6,
           f"worst relative slack: increment {worst_rel_1:.3e}, "
           f"linearization {worst_rel_2:.3e}")


def test_criterion_08_mixture_entropy_bound():
    mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
    t0 = time.perf_counter()
    rep = mixture_entropy_bound_check(mix, m=2, n=4, samples=100_000, seed=60623)
    elapsed = time.perf_counter() - t0
    bound_ok = rep.estimate <= math.log(2.0) + 3 * rep.standard_error
    record(8, "mixture decoupling entropy below -log(min weight)",
           bound_ok and rep.bound == pytest.approx(math.log(2.0)) and elapsed < 30.0,
           f"estimate {rep.estimate:.5f} <= log 2 = {math.log(2.0):.5f} "
           f"(+3se), runtime {elapsed:.1f}s")


def test_criterion_09_mixture_transport_matchings():
    pi_mu = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(4, 1)])
    pi_nu = MixtureSpec([0.5, 0.5], [gaussian1d(1, 1), gaussian1d(5, 1)])
    res = definetti_ot(pi_mu, pi_nu)
    # brute force over both matchings of the same ground costs
    costs = {perm: 0.5 * sum(res.ground_cost[k, perm[k]] for k in range(2))
             for perm in itertools.permutations(range(2))}
    monotone = costs[(0, 1)]
    cross = costs[(1, 0)]
    matching_ok = (abs(res.value - min(costs.values())) <= 1e-9
                   and abs(monotone - 1.0) <= 1e-3 and abs(cross - 17.0) <= 2e-2
                   and list(res.assignment) == [0, 1])
    # one-atom mixtures reduce exactly to the squared 1D transport
    one_mu = MixtureSpec([1.0], [gaussian1d(0, 1)])
    one_nu = MixtureSpec([1.0], [gaussian1d(1, 1)])
    one = definetti_ot(one_mu, one_nu)
    oracle = quantile_transport_1d(gaussian_grid(0, 1), gaussian_grid(1, 1)).w2sq
    one_ok = one.value == one.ground_cost[0, 0] and abs(one.value - oracle) <= 1e-12
    record(9, "mixture transport: monotone vs cross matching",
           matching_ok and one_ok,
           f"outer value {res.value:.5f} (monotone {monotone:.5f}, cross {cross:.4f}); "
           f"one-atom value {one.value:.5f}")


def test_criterion_10_gibbs_product_oracle():
    chains = gibbs.NUM_CHAINS
    keep = 312  # 312 * 64 = 19968 states of 5 sites ~ 1e5 site draws
    spec = quartic_spec(0.0)
    sample = sample_periodic_gibbs(spec, 2, keep * chains, seed=8114)
    per_chain = sample.states.reshape(keep, chains, 5)
    chain_m2 = (per_chain ** 2).mean(axis=(0, 2))
    se = chain_m2.std(ddof=1) / math.sqrt(chains)
    m2 = float((sample.states ** 2).mean())
    # quadrature oracle for E[x^2] under exp(-x^4), cross-checked in closed form
    x = np.linspace(-4.0, 4.0, 200_001)
    w = np.exp(-x ** 4)
    oracle = float(np.trapezoid(x ** 2 * w, x) / np.trapezoid(w, x))
    assert abs(oracle - gamma_fn(0.75) / gamma_fn(0.25)) <= 1e-6
    moment_ok = abs(m2 - oracle) <= 3 * se

    base = sample_periodic_gibbs(spec, 2, 250, seed=8214)
    sym = cyclic_symmetrize(base)
    gt = np.random.default_rng(8314).standard_normal((250, 5))
    gt_sym = np.concatenate([np.roll(gt, k, axis=1) for k in range(5)])
    emap = empirical_map_to_gaussian(sym.states, gt_sym, epsilon=0.1, seed=84,
                                     tol=1e-6)
    equi = equivariance_check(emap)
    equi_ok = equi.max_delta <= max(3 * equi.max_standard_error, 1e-10)

    cauchy = cauchy_convergence_experiment(spec, m_list=[1], n=2, samples=1500,
                                           epsilon=0.1, seed=8414, ot_points=300,
                                           replicates=3)
    row = cauchy.rows[0]
    d_ok = abs(row.d_corrected) <= 3 * row.se_d and row.entropy == 0.0
    record(10, "zero-coupling ring reduces to its product oracle",
           moment_ok and equi_ok and d_ok,
           f"second moment {m2:.5f} vs {oracle:.5f} (3se {3*se:.5f}); "
           f"equivariance delta {equi.max_delta:.2e}; "
           f"D_corr {row.d_corrected:+.4f} (3se {3*row.se_d:.4f})")


def test_criterion_11_entropy_transport_bound_weak_coupling():
    t0 = time.perf_counter()
    rep = cauchy_convergence_experiment(quartic_spec(0.1), m_list=[1, 2], n=4,
                                        samples=10_000, epsilon=0.1, seed=2024,
                                        ot_points=2000, replicates=3)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"m={r.m}: D_corr={r.d_corrected:+.4f} bound={r.bound:.4f} 3se={3*r.se_d:.4f}"
        for r in rep.rows)
    record(11, "entropy-transport bound on the weak-coupling ring",
           rep.passed and elapsed < 600.0,
           detail + f"; runtime {elapsed:.0f}s")


def test_criterion_12_reproducibility(tmp_path):
    def canonical(path):
        with open(path) as fh:
            data = json.load(fh)
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    specs = [
        {"experiment": "talagrand"},
        {"experiment": "ot_basic", "seed": 11,
         "params": {"num_instances": 10, "max_atoms": 30}},
        {"experiment": "gibbs_cauchy", "seed": 907},
    ]
    all_ok = True
    for raw in specs:
        dirs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{raw['experiment']}_{tag}")
            cfg = ExperimentConfig.from_dict({**raw, "output_dir": out})
            run_experiment(cfg)
            dirs.append(out)
        same = (canonical(os.path.join(dirs[0], "report.json"))
                == canonical(os.path.join(dirs[1], "report.json")))
        all_ok &= same
    record(12, "identical config and seed give byte-identical reports",
           all_ok, f"{len(specs)} experiments re-run and compared")
