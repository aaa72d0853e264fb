import itertools
import json
import re

import numpy as np
import pytest

from seqot.invariance import (
    GroupAction,
    _merge_atoms,
    close_support,
    closure_from_generators,
    cyclic_group,
    first_coordinate_cost,
    haar_project,
    invariant_duality_value,
    no_map_counterexample,
    product_power,
    solve_invariant_ot,
    symmetric_group,
    symmetrize_coupling,
    transitive_identity_check,
    trivial_group,
)
from seqot.measures import DiscreteMeasure
from seqot.ot import Coupling, _lp_result, cost_matrix, solve_discrete_ot


def worked_instance():
    mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
    return mu, nu, symmetric_group(2)


def random_invariant_measure(rng, group, n_orbits=3, scale=1.0):
    """Random G-invariant measure built by orbit closure with per-orbit weights."""
    pts, ws = [], []
    seen = set()
    for _ in range(n_orbits):
        x = np.round(rng.normal(scale=scale, size=group.dim), 3)
        orbit = {tuple(x[p]) for p in group.elements}
        orbit -= seen
        if not orbit:
            continue
        seen |= orbit
        w = rng.random() + 0.1
        for o in sorted(orbit):
            pts.append(o)
            ws.append(w)
    return DiscreteMeasure(np.array(pts), np.array(ws))


class TestGroups:
    def test_cyclic_from_generator(self):
        g = closure_from_generators(3, [[1, 2, 0]])
        assert len(g) == 3
        assert g.transitive

    def test_s3_from_transpositions(self):
        # oracle: enumerate all compositions independently
        g = closure_from_generators(3, [[1, 0, 2], [0, 2, 1]])
        assert len(g) == 6
        want = {p for p in itertools.permutations(range(3))}
        assert {tuple(e) for e in g.elements} == want

    def test_trivial_group(self):
        g = trivial_group(4)
        assert len(g) == 1
        assert not g.transitive

    @pytest.mark.parametrize("group", [
        *(symmetric_group(d) for d in (2, 3, 4, 5)), *(cyclic_group(d) for d in range(2, 7)),
        trivial_group(2), closure_from_generators(3, [[1, 0, 2]])], ids=repr)
    def test_transitive_matches_reach_table(self, group):
        # reach[i, j]: some element sends coordinate i to slot j
        reach = np.zeros((group.dim, group.dim), dtype=bool)
        for p in group.elements:
            for j, i in enumerate(p):
                reach[i, j] = True
        assert group.transitive == bool(reach.all())

    def test_closure_cap(self):
        # S8 has 40,320 elements, past the cap of MAX_GROUP_SIZE = 5,040
        with pytest.raises(ValueError, match="MAX_GROUP_SIZE"):
            closure_from_generators(8, [np.roll(np.arange(8), 1), [1, 0, 2, 3, 4, 5, 6, 7]])

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupAction(3, [[0, 1, 2], [1, 2, 0]])  # missing inverse/closure
        with pytest.raises(ValueError):
            GroupAction(2, [[0, 0]])

    @pytest.mark.parametrize("row", [[1.5, 0.2], [0.0, 1.0, 2.5], [True, False],
                                     [False, True]])
    def test_non_integer_entries_rejected(self, row):
        # a cast to intp truncated these to a permutation
        rows = [list(range(len(row))), row]
        with pytest.raises(ValueError, match=f"not a permutation .*{re.escape(str(row))}"):
            closure_from_generators(len(row), rows)
        with pytest.raises(ValueError, match=f"not a permutation .*{re.escape(str(row))}"):
            GroupAction(len(row), rows)

    @pytest.mark.parametrize("make", [symmetric_group, cyclic_group, trivial_group])
    @pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0])
    def test_dim_must_be_a_positive_integer(self, make, dim):
        # dim 0 built an empty group; 2.5 and 2.0 raised a TypeError from
        # itertools or numpy, and -1 a mismatch of element length
        with pytest.raises(ValueError, match=f"group dim must be an integer >= 1, got {dim}"):
            make(dim)

    def test_integral_float_entries_accepted(self):
        assert len(closure_from_generators(3, [[1.0, 2.0, 0.0]])) == 3


class TestHaarProject:
    def stable_points(self, group, rng, n=4):
        m = close_support(
            DiscreteMeasure(rng.normal(size=(n, group.dim))), group)
        return m.points

    def test_invariant_function_fixed(self):
        g = cyclic_group(3)
        pts = self.stable_points(g, np.random.default_rng(0))
        f = np.sum(pts, axis=1)  # symmetric, hence invariant
        assert np.allclose(haar_project(f, pts, g), f)

    def test_coordinate_average(self):
        g = cyclic_group(3)
        pts = self.stable_points(g, np.random.default_rng(1))
        f = pts[:, 0]
        want = pts.mean(axis=1)
        assert np.allclose(haar_project(f, pts, g), want)

    def test_idempotent_linear_nonexpansive(self):
        g = symmetric_group(3)
        rng = np.random.default_rng(2)
        pts = self.stable_points(g, rng)
        f = rng.normal(size=pts.shape[0])
        h = rng.normal(size=pts.shape[0])
        pf = haar_project(f, pts, g)
        assert np.allclose(haar_project(pf, pts, g), pf, atol=1e-12)
        assert np.allclose(haar_project(2 * f + h, pts, g),
                           2 * pf + haar_project(h, pts, g), atol=1e-12)
        assert np.max(np.abs(pf)) <= np.max(np.abs(f)) + 1e-15
        # the residual averages to zero over every orbit
        resid = f - pf
        assert abs(haar_project(resid, pts, g)).max() < 1e-12

    def test_unstable_point_set_rejected(self):
        g = cyclic_group(3)
        pts = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            haar_project(np.array([1.0]), pts, g)
        with pytest.raises(ValueError, match="dimension"):
            haar_project(np.array([1.0]), pts[:, :2], g)
        # one point as a vector, not a (1, 3) table
        with pytest.raises(ValueError, match=r"dimension mismatch: points of shape \(3,\)"):
            haar_project(np.zeros(3), pts[0], g)

    @pytest.mark.parametrize("n_values", [2, 4])
    def test_length_mismatch_named(self, n_values):
        # a shorter table raised IndexError in numpy, a longer one a
        # broadcast error
        g = cyclic_group(3)
        pts = self.stable_points(g, np.random.default_rng(3), n=1)
        assert len(pts) == 3
        with pytest.raises(ValueError, match=f"{n_values} values for 3 points"):
            haar_project(np.zeros(n_values), pts, g)


class TestSymmetrize:
    def test_invariant_plan_unchanged(self):
        mu, nu, g = worked_instance()
        res = solve_invariant_ot(mu, nu, g)
        again = symmetrize_coupling(res.plan, g)
        assert np.allclose(again.weights, res.plan.weights, atol=1e-14)

    def test_cost_preserved_for_invariant_cost(self):
        mu, nu, g = worked_instance()
        full = solve_discrete_ot(mu, nu)
        sym = symmetrize_coupling(full.plan, g)
        cost = np.sum(sym.weights * cost_matrix(sym.source, sym.target))
        assert cost == pytest.approx(full.value, abs=1e-12)
        assert np.allclose(sym.weights.sum(1), mu.weights)
        assert np.allclose(sym.weights.sum(0), nu.weights)

    def test_asymmetric_feasible_plan_becomes_invariant(self):
        from seqot.invariance import _index_maps

        g = symmetric_group(2)
        rng = np.random.default_rng(3)
        m = random_invariant_measure(rng, g)
        nu = random_invariant_measure(rng, g)
        # a feasible but deliberately asymmetric plan: greedy north-west fill
        a, b = m.weights.copy(), nu.weights.copy()
        w = np.zeros((a.size, b.size))
        i = j = 0
        while i < a.size and j < b.size:
            q = min(a[i], b[j])
            w[i, j] = q
            a[i] -= q
            b[j] -= q
            if a[i] <= 1e-15:
                i += 1
            if j < b.size and b[j] <= 1e-15:
                j += 1
        sym = symmetrize_coupling(Coupling(m, nu, w), g)
        # invariance under every element, checked elementwise
        smap = _index_maps(m.points, g)
        tmap = _index_maps(nu.points, g)
        for gi in range(len(g)):
            assert np.allclose(sym.weights[np.ix_(smap[gi], tmap[gi])],
                               sym.weights, atol=1e-14)

    def test_non_invariant_marginal_rejected(self):
        g = symmetric_group(2)
        mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.7, 0.3])
        nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
        plan = Coupling(mu, nu, np.outer(mu.weights, nu.weights))
        with pytest.raises(ValueError):
            symmetrize_coupling(plan, g)


class TestInvariantLP:
    def test_worked_instance_value_half(self):
        # oracle: only two invariant matchings exist, with costs 1/2 and 5/2
        mu, nu, g = worked_instance()
        res = solve_invariant_ot(mu, nu, g)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_identical_marginals_zero_diagonal(self):
        g = symmetric_group(2)
        m = random_invariant_measure(np.random.default_rng(5), g)
        res = solve_invariant_ot(m, m, g)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_trivial_group_reduces_to_plain_ot(self):
        rng = np.random.default_rng(6)
        mu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.random(6) + 0.1)
        nu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.random(5) + 0.1)
        g = trivial_group(2)
        inv = solve_invariant_ot(mu, nu, g)
        plain = solve_discrete_ot(mu, nu, cost=first_coordinate_cost)
        assert inv.value == pytest.approx(plain.value, abs=1e-9)

    def test_duality_on_worked_instance(self):
        mu, nu, g = worked_instance()
        dual = invariant_duality_value(mu, nu, g)
        assert dual.value == pytest.approx(0.5, abs=1e-9)

    def test_duality_trivial_group_matches_standard(self):
        rng = np.random.default_rng(7)
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.random(5) + 0.1)
        nu = DiscreteMeasure(rng.normal(size=(4, 2)), rng.random(4) + 0.1)
        g = trivial_group(2)
        dual = invariant_duality_value(mu, nu, g, cost="sqeuclidean")
        plain = solve_discrete_ot(mu, nu)
        assert dual.value == pytest.approx(plain.value, abs=1e-9)

    def test_primal_equals_dual_random_groups(self):
        rng = np.random.default_rng(8)
        for gidx, g in enumerate([symmetric_group(2), symmetric_group(3),
                                  symmetric_group(4), cyclic_group(3),
                                  cyclic_group(4), cyclic_group(6)]):
            mu = random_invariant_measure(rng, g)
            nu = random_invariant_measure(rng, g)
            primal = solve_invariant_ot(mu, nu, g)
            dual = invariant_duality_value(mu, nu, g)
            assert primal.value >= dual.value - 1e-9
            assert primal.value == pytest.approx(dual.value, abs=1e-8), f"group {gidx}"

    def test_non_invariant_marginal_rejected_by_solver(self):
        g = symmetric_group(2)
        mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.7, 0.3])
        nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="invariant"):
            solve_invariant_ot(mu, nu, g)
        with pytest.raises(ValueError, match="invariant"):
            invariant_duality_value(mu, nu, g)

    @pytest.mark.parametrize("spread, value", [(2e-10, None), (1e-11, 0.5)])
    def test_orbit_weight_spread_within_marginal_tolerance(self, spread, value):
        # an invariant plan gives both atoms of the orbit their mean weight, so
        # a spread of 2e-10 missed Coupling's 1e-10 marginal tolerance deep in
        # the solve; it is now rejected up front, and 1e-11 still solves
        g = symmetric_group(2)
        mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5 + spread, 0.5 - spread])
        nu = DiscreteMeasure([[1.0, 1.0]], [1.0])
        for solve in (solve_invariant_ot, invariant_duality_value):
            if value is None:
                with pytest.raises(ValueError, match="marginal is not invariant"):
                    solve(mu, nu, g)
            else:
                assert solve(mu, nu, g).value == pytest.approx(value, abs=1e-12)

    def test_invariant_cost_projection_noop(self):
        # cost already invariant: cbar = c and values coincide
        mu, nu, g = worked_instance()
        dual = invariant_duality_value(mu, nu, g, cost="sqeuclidean")
        primal = solve_invariant_ot(mu, nu, g, cost="sqeuclidean")
        assert dual.value == pytest.approx(primal.value, abs=1e-9)
        c = (np.sum(primal.plan.source.points**2, 1)[:, None]
             + np.sum(primal.plan.target.points**2, 1)[None, :]
             - 2 * primal.plan.source.points @ primal.plan.target.points.T)
        assert np.allclose(dual.projected_cost, c, atol=1e-12)

    def test_optimality_survives_averaging(self):
        rng = np.random.default_rng(9)
        g = cyclic_group(3)
        mu = random_invariant_measure(rng, g)
        nu = random_invariant_measure(rng, g)
        full = solve_discrete_ot(mu, nu)
        sym = symmetrize_coupling(full.plan, g)
        cost = np.sum(sym.weights * cost_matrix(sym.source, sym.target))
        assert cost == pytest.approx(full.value, abs=1e-9)


class TestTransitiveIdentity:
    def test_worked_instance(self):
        mu, nu, g = worked_instance()
        rep = transitive_identity_check(mu, nu, g)
        assert rep.full_value == pytest.approx(1.0, abs=1e-9)
        assert rep.invariant_single_value == pytest.approx(0.5, abs=1e-9)
        assert rep.relative_difference <= 1e-8
        assert rep.per_coordinate_spread <= 1e-8

    def test_identical_marginals(self):
        g = cyclic_group(3)
        m = random_invariant_measure(np.random.default_rng(10), g)
        rep = transitive_identity_check(m, m, g)
        assert rep.full_value == pytest.approx(0.0, abs=1e-10)
        assert rep.dim_times_invariant == pytest.approx(0.0, abs=1e-10)

    def test_cyclic_c3_orbit_instance(self):
        rng = np.random.default_rng(11)
        g = cyclic_group(3)
        mu = random_invariant_measure(rng, g, n_orbits=2)
        nu = random_invariant_measure(rng, g, n_orbits=2)
        rep = transitive_identity_check(mu, nu, g)
        assert rep.relative_difference <= 1e-8
        assert rep.per_coordinate_spread <= 1e-8

    def test_non_transitive_group_rejected(self):
        g = trivial_group(2)
        mu, nu, _ = worked_instance()
        with pytest.raises(ValueError):
            transitive_identity_check(mu, nu, g)


class TestNoMap:
    def test_distinct_components_split(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        b = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        rep = no_map_counterexample(a, b, 2, symmetric_group(2))
        assert rep.concentration < 1.0
        assert not rep.is_map
        assert not rep.components_identical

    def test_identical_components_diagonal(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        rep = no_map_counterexample(a, a, 2, symmetric_group(2))
        assert rep.components_identical
        assert rep.concentration == pytest.approx(1.0)
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_trivial_group_d1_reports(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        b = DiscreteMeasure([[0.5], [1.5]], [0.5, 0.5])
        rep = no_map_counterexample(a, b, 1, trivial_group(1))
        assert 0.0 <= rep.concentration <= 1.0


def test_product_power_weights():
    a = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
    p = product_power(a, 2)
    assert len(p) == 4
    lookup = {tuple(pt): w for pt, w in zip(p.points, p.weights)}
    assert lookup[(0.0, 0.0)] == pytest.approx(0.0625)
    assert lookup[(1.0, 1.0)] == pytest.approx(0.5625)
    assert lookup[(0.0, 1.0)] == pytest.approx(0.1875)


def test_product_power_matches_its_meshgrid_definition():
    # the atom order and weights of the per-coordinate meshgrid loop, bit for bit
    rng = np.random.default_rng(5)
    a = DiscreteMeasure(rng.normal(size=(3, 1)), rng.random(3) + 0.1)
    for d in (1, 2, 3):
        p = product_power(a, d)
        grids = np.meshgrid(*([np.arange(3)] * d), indexing="ij")
        want = np.ones(3 ** d)
        for g in grids:
            want *= a.weights[g.ravel()]
        assert np.array_equal(p.points, a.points[np.stack([g.ravel() for g in grids], 1), 0])
        assert p.weights.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [0, -1, 2.5])
def test_product_power_needs_a_positive_power(d):
    a = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
    with pytest.raises(ValueError, match="d >= 1"):
        product_power(a, d)
    with pytest.raises(ValueError, match="d >= 1"):
        no_map_counterexample(a, a, d, trivial_group(1))


@pytest.mark.parametrize("seed", range(6))
def test_trivial_group_orbit_lp_is_the_exact_lp(seed):
    # every pair its own orbit: the invariant LP is the exact LP on the same
    # constraint layout, so HiGHS returns the same plan
    rng = np.random.default_rng(seed)
    n, m, dim = rng.integers(2, 9), rng.integers(2, 9), int(rng.integers(1, 4))
    mu = DiscreteMeasure(rng.normal(size=(n, dim)), rng.random(n) + 0.1)
    nu = DiscreteMeasure(rng.normal(size=(m, dim)), rng.random(m) + 0.1)
    res = solve_invariant_ot(mu, nu, trivial_group(dim))
    assert res.n_orbits == n * m
    lp = _lp_result(mu, nu, cost_matrix(mu, nu, first_coordinate_cost), 0.0)
    assert res.plan.weights.tobytes() == lp.plan.weights.tobytes()


def test_merge_atoms():
    m = DiscreteMeasure([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5],
                        normalize=False, prune=False)
    merged = _merge_atoms(m)
    assert len(merged) == 2
    assert merged.weights.sum() == pytest.approx(1.0)


def test_invariant_lp_meets_coupling_marginal_tolerance(tmp_path, monkeypatch):
    # at HiGHS's default 1e-7 feasibility tolerance this C5 instance missed a
    # row marginal by 9.9e-8, above the 1e-10 that Coupling enforces
    from seqot.cli import main

    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "experiment": "invariant_duality", "seed": 1723191204,
        "params": {"instance": "random", "group": "c5", "orbits": 7},
        "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(cfg)]) == 0
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert abs(results["primal"] - results["dual"]) <= 1e-8
