import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot.measures import (
    DiscreteMeasure,
    Grid1D,
    empirical_from_samples,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
)
from seqot.ot import (
    DUAL_FEAS_TOL,
    GAP_TOL,
    MARGINAL_TOL,
    Coupling,
    _HIGHS_OPTIONS,
    barycentric_map,
    check_cyclical_monotonicity,
    cost_matrix,
    graph_concentration,
    quantile_transport_1d,
    sinkhorn,
    solve_discrete_ot,
)


def delta(*coords):
    return DiscreteMeasure([list(coords)])


def random_instance(rng, max_atoms=40, max_dim=3):
    n = int(rng.integers(1, max_atoms + 1))
    m = int(rng.integers(1, max_atoms + 1))
    d = int(rng.integers(1, max_dim + 1))
    mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.random(n) + 1e-3)
    nu = DiscreteMeasure(rng.normal(size=(m, d)), rng.random(m) + 1e-3)
    return mu, nu


class TestExactSolver:
    def test_identity_plan(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        res = solve_discrete_ot(mu, mu)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.plan.weights, np.diag([0.5, 0.5]))

    def test_single_source_splits(self):
        mu = delta(0.0, 0.0)
        nu = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        res = solve_discrete_ot(mu, nu)
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.plan.weights, [[0.5, 0.5]])
        assert abs(res.gap) <= 1e-9 * (1 + abs(res.value))

    def test_forced_merge(self):
        mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        res = solve_discrete_ot(mu, delta(1.0))
        assert res.value == pytest.approx(1.0)

    def test_gap_certificate_random(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            mu, nu = random_instance(rng)
            res = solve_discrete_ot(mu, nu)
            dual_value = res.dual.value(mu, nu)
            assert res.value >= dual_value - 1e-9 * (1 + abs(res.value))
            assert abs(res.gap) <= 1e-9 * (1 + abs(res.value))
            c = (np.sum(mu.points**2, 1)[:, None] + np.sum(nu.points**2, 1)[None, :]
                 - 2 * mu.points @ nu.points.T)
            assert res.dual.feasibility_violation(c) <= 1e-9

    def test_inner_product_form_bridge(self):
        rng = np.random.default_rng(31)
        mu, nu = random_instance(rng, max_atoms=12)
        res = solve_discrete_ot(mu, nu)
        f, g = res.dual.to_inner_product_form(mu, nu)
        inner = mu.points @ nu.points.T
        assert np.min(f[:, None] + g[None, :] - inner) >= -1e-9


class TestQuantileTransport:
    def test_gaussian_shift(self):
        m = quantile_transport_1d(gaussian_grid(0, 1), gaussian_grid(1, 1))
        assert m.w2sq == pytest.approx(1.0, abs=2e-4)
        # the map is x + 1 away from the extreme tails
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(m(xs), xs + 1, atol=1e-3)

    def test_uniform_dilation(self):
        mu = Grid1D([0.0, 1.0], [1.0, 1.0])
        nu = Grid1D([0.0, 2.0], [0.5, 0.5])
        m = quantile_transport_1d(mu, nu)
        assert m.w2sq == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_discrete_atoms_exact(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        m = quantile_transport_1d(mu, nu)
        assert m.w2sq == 0.5
        assert m(0.0) == 0.0 and m(1.0) == 2.0

    def test_matches_lp_on_random_discrete(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mu, nu = random_instance(rng, max_atoms=50, max_dim=1)
            got = quantile_transport_1d(mu, nu).w2sq
            want = solve_discrete_ot(mu, nu).value
            assert got == pytest.approx(want, abs=1e-6)

    def test_matches_gaussian_w2(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            m1, m2 = rng.uniform(-2, 2, size=2)
            s1, s2 = rng.uniform(0.7, 1.4, size=2)
            got = quantile_transport_1d(gaussian_grid(m1, s1), gaussian_grid(m2, s2)).w2sq
            want = gaussian_w2(gaussian1d(m1, s1), gaussian1d(m2, s2))
            assert got == pytest.approx(want, abs=1e-4)


# small random weighted instances, up to 8 x 8 atoms in up to 3 dimensions
small_instances = st.builds(
    lambda seed: random_instance(np.random.default_rng(seed), max_atoms=8),
    st.integers(0, 2 ** 32 - 1))


def degenerate_instance(seed, kind):
    """A weighted instance of up to 8 x 8 atoms with degenerate structure:
    integer-grid points (many tied costs), duplicate atoms carrying different
    weights, or weights spread over 1e-6..1."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(2, 9, size=2))
    d = int(rng.integers(1, 4))
    if kind == "integer":
        x, y = rng.integers(0, 3, size=(n, d)), rng.integers(0, 3, size=(m, d))
    elif kind == "duplicates":
        pool = rng.normal(size=(3, d))
        x, y = pool[rng.integers(0, 3, size=n)], pool[rng.integers(0, 3, size=m)]
    else:
        x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    if kind == "spread":
        a, b = 10.0 ** rng.uniform(-6, 0, size=n), 10.0 ** rng.uniform(-6, 0, size=m)
    else:
        a, b = rng.random(n) + 1e-3, rng.random(m) + 1e-3
    return DiscreteMeasure(x, a), DiscreteMeasure(y, b)


weighted_instances = st.one_of(
    small_instances,
    st.builds(degenerate_instance, st.integers(0, 2 ** 32 - 1),
              st.sampled_from(["integer", "duplicates", "spread"])))


def highs_value(mu, nu, c):
    """Optimal value of the transportation LP from a separate HiGHS solve, with
    its presolve on."""
    n, m = c.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs",
                  options={**_HIGHS_OPTIONS, "presolve": True})
    assert res.status == 0
    return res.fun


def assert_exact_certificates(mu, nu, res):
    c = cost_matrix(mu, nu)
    w = res.plan.weights
    tol = GAP_TOL * (1 + abs(res.value))
    assert np.max(np.abs(w.sum(axis=1) - mu.weights)) <= MARGINAL_TOL
    assert np.max(np.abs(w.sum(axis=0) - nu.weights)) <= MARGINAL_TOL
    assert res.dual.feasibility_violation(c) <= DUAL_FEAS_TOL
    assert abs(res.gap) <= tol
    assert res.gap == res.value - res.dual.value(mu, nu)  # signed, not |gap|
    # the value equals a direct HiGHS solve of the same cost
    assert abs(res.value - highs_value(mu, nu, c)) <= tol


@settings(max_examples=120, deadline=None)
@given(weighted_instances)
def test_exact_solver_certificates(instance):
    mu, nu = instance
    assert_exact_certificates(mu, nu, solve_discrete_ot(mu, nu))


def uniform_clouds(seed, n, d, kind):
    """Two n-point uniform clouds: Gaussian, integer-valued (ties in cost) or
    with duplicate atoms (zero-length cycles among the recovered duals)."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        x, y = rng.integers(0, 3, size=(2, n, d)).astype(float)
    elif kind == "duplicates":
        pool = rng.normal(size=(max(1, n // 3), d))
        x, y = pool[rng.integers(0, len(pool), size=(2, n))]
    else:
        x, y = rng.normal(size=(2, n, d))
    return empirical_from_samples(x), empirical_from_samples(y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 3),
       st.sampled_from(["gaussian", "integer", "duplicates"]))
def test_assignment_path_matches_lp_with_certificates(seed, n, d, kind):
    mu, nu = uniform_clouds(seed, n, d, kind)
    res = solve_discrete_ot(mu, nu)
    assert res.method == "assignment"
    assert 1 <= res.iterations <= n
    assert_exact_certificates(mu, nu, res)


class TestAssignmentPath:
    def test_identical_clouds_identity_plan(self):
        mu = DiscreteMeasure(np.random.default_rng(8).normal(size=(30, 2)))
        res = solve_discrete_ot(mu, mu)
        assert res.method == "assignment"
        assert res.value == 0.0
        assert np.array_equal(res.plan.weights, np.diag(mu.weights))
        assert_exact_certificates(mu, mu, res)

    def test_all_equal_source_points(self):
        # every permutation is optimal; the duals still certify the value
        rng = np.random.default_rng(9)
        mu = empirical_from_samples(np.ones((20, 2)))
        nu = empirical_from_samples(rng.normal(size=(20, 2)))
        res = solve_discrete_ot(mu, nu)
        assert res.method == "assignment"
        assert res.value == pytest.approx(np.mean(np.sum((nu.points - 1.0) ** 2, axis=1)))
        assert_exact_certificates(mu, nu, res)

    def test_worked_s2_pair(self):
        mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0, 2.0], [2.0, 0.0]], [0.5, 0.5])
        res = solve_discrete_ot(mu, nu)
        assert res.method == "assignment"
        assert res.value == 1.0
        assert np.array_equal(res.plan.weights, np.diag([0.5, 0.5]))
        assert_exact_certificates(mu, nu, res)

    def test_weighted_or_unequal_sizes_take_the_lp(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 2))
        weighted = DiscreteMeasure(pts, rng.random(6) + 0.1)
        uniform = DiscreteMeasure(rng.normal(size=(6, 2)))
        smaller = DiscreteMeasure(rng.normal(size=(5, 2)))
        for mu, nu in ((weighted, uniform), (uniform, weighted), (uniform, smaller)):
            res = solve_discrete_ot(mu, nu)
            assert res.method == "lp"
            assert_exact_certificates(mu, nu, res)
        assert solve_discrete_ot(delta(0.0, 0.0), uniform).method == "product"


@settings(max_examples=40, deadline=None)
@given(small_instances, st.sampled_from([1e-3, 1e-2]))
def test_sinkhorn_cost_within_entropic_bound_of_lp(instance, epsilon):
    mu, nu = instance
    lp = solve_discrete_ot(mu, nu).value
    res = sinkhorn(mu, nu, epsilon=epsilon)
    c = cost_matrix(mu, nu)
    assert lp <= res.value + 1e-9
    assert res.value <= (lp + epsilon * np.log(len(mu) * len(nu))
                         + 2 * np.max(c) * res.marginal_violation)


class TestSinkhorn:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_epsilon(self, epsilon):
        mu = DiscreteMeasure([[0.0], [1.0]])
        nu = DiscreteMeasure([[0.5], [2.0]])
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn(mu, nu, epsilon=epsilon)

    def test_identical_measures_near_zero(self):
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.normal(size=(10, 2)))
        res = sinkhorn(mu, mu, epsilon=1e-3)
        assert res.converged
        assert res.value < 1e-2

    def test_epsilon_ladder_decreases_to_lp(self):
        rng = np.random.default_rng(19)
        mu = DiscreteMeasure(rng.normal(size=(12, 2)))
        nu = DiscreteMeasure(rng.normal(size=(14, 2)) + 0.5)
        lp = solve_discrete_ot(mu, nu).value
        values = [sinkhorn(mu, nu, epsilon=e).value for e in (1.0, 0.1, 0.01)]
        assert values[0] >= values[1] >= values[2] >= lp - 1e-9
        assert values[2] == pytest.approx(lp, abs=0.05)

    def test_single_atom_product_plan(self):
        mu = delta(0.0)
        nu = DiscreteMeasure([[1.0], [2.0]], [0.25, 0.75])
        for eps in (1.0, 0.01):
            res = sinkhorn(mu, nu, epsilon=eps)
            assert np.allclose(res.plan.weights, [[0.25, 0.75]])

    def test_marginals_exact_after_rounding(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.normal(size=(15, 2)), rng.random(15) + 0.1)
        nu = DiscreteMeasure(rng.normal(size=(11, 2)), rng.random(11) + 0.1)
        res = sinkhorn(mu, nu, epsilon=0.05)
        assert np.max(np.abs(res.plan.weights.sum(1) - mu.weights)) < 1e-12
        assert np.max(np.abs(res.plan.weights.sum(0) - nu.weights)) < 1e-12

    # sha256 of the plan, f and g bytes and the iteration count, recorded
    # before the kernels were built in place (numpy 2.4, x86-64); "shifted"
    # absorbs twice and "1d" five times, the latter without converging
    @staticmethod
    def _pinned_instances():
        rng = np.random.default_rng(3)
        yield ("weighted", DiscreteMeasure(rng.normal(size=(15, 2)), rng.random(15) + 0.1),
               DiscreteMeasure(rng.normal(size=(11, 2)), rng.random(11) + 0.1), 0.05,
               "1112f27b501ca90f5a8432278e0b040e66f7887f7c13f58a6529de22803569bb")
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.normal(size=(10, 2)))
        yield ("identical", mu, mu, 1e-3,
               "6c99db479c065ec56b8b63dfcd94501d2dc7ab600b9b2973b747fe5067d7e49b")
        rng = np.random.default_rng(19)
        yield ("shifted", DiscreteMeasure(rng.normal(size=(12, 2))),
               DiscreteMeasure(rng.normal(size=(14, 2)) + 0.5), 0.01,
               "22eb031ea82049326e43c6b5496921226ccb04a1f725858885e596d98132d019")
        rng = np.random.default_rng(41)
        yield ("1d", DiscreteMeasure(rng.normal(size=(60, 1)), rng.random(60) + 0.05),
               DiscreteMeasure(2.0 * rng.normal(size=(50, 1))), 1e-4,
               "74e35063b477d373275b9ccee1fc68c96b0283eb769a81b2e9d12f576222644f")

    def test_output_bits_pinned(self):
        for name, mu, nu, eps, digest in self._pinned_instances():
            res = sinkhorn(mu, nu, epsilon=eps)
            data = b"".join(np.ascontiguousarray(a).tobytes()
                            for a in (res.plan.weights, res.f, res.g))
            data += str(res.iterations).encode()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_nonconvergence_is_flagged(self):
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure(rng.normal(size=(8, 1)))
        nu = DiscreteMeasure(rng.normal(size=(9, 1)))
        res = sinkhorn(mu, nu, epsilon=1e-4, max_iter=3, tol=1e-14)
        assert not res.converged
        assert res.marginal_violation > 1e-14


class TestDiagnostics:
    def test_barycentric_permutation(self):
        src = DiscreteMeasure([[0.0], [1.0], [2.0]])
        tgt = DiscreteMeasure([[5.0], [3.0], [4.0]])
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1 / 3
        plan = Coupling(src, tgt, w)
        assert np.allclose(barycentric_map(plan), [[3.0], [4.0], [5.0]])
        assert graph_concentration(plan) == 1.0

    def test_barycentric_split_mean(self):
        res = solve_discrete_ot(delta(0.0, 0.0),
                                DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]))
        assert np.allclose(barycentric_map(res.plan), [[0.5, 0.5]])

    def test_barycentric_entropic_vs_quantile_oracle(self):
        # product instance built by a common shift: the optimal plan is the
        # identity pairing, whose coordinate maps are the 1D quantile maps
        rng = np.random.default_rng(23)
        xs = rng.standard_normal((100, 2))
        shift = np.array([1.0, 0.0])
        mu = empirical_from_samples(xs)
        nu = empirical_from_samples(xs + shift)
        res = sinkhorn(mu, nu, epsilon=0.01)
        tmap = barycentric_map(res.plan)
        for k in range(2):
            q = quantile_transport_1d(
                empirical_from_samples(xs[:, [k]]),
                empirical_from_samples(xs[:, [k]] + shift[k]))
            rms = np.sqrt(np.mean((tmap[:, k] - q(xs[:, k])) ** 2))
            assert rms < 0.1

    def test_cyclical_monotonicity_optimal_passes(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            mu, nu = random_instance(rng, max_atoms=15, max_dim=2)
            res = solve_discrete_ot(mu, nu)
            rep = check_cyclical_monotonicity(res.plan, cycle_length_max=3)
            assert rep.passed, rep.violating_cycle

    def test_swapped_assignment_fails_with_2cycle(self):
        src = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        tgt = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        w = np.array([[0.0, 0.5], [0.5, 0.0]])  # anti-monotone pairing
        rep = check_cyclical_monotonicity(Coupling(src, tgt, w))
        assert not rep.passed
        assert len(rep.violating_cycle) == 2

    def test_single_atom_vacuous_pass(self):
        plan = solve_discrete_ot(delta(0.0), delta(1.0)).plan
        rep = check_cyclical_monotonicity(plan)
        assert rep.passed

    def test_graph_concentration_product_plan(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        plan = Coupling(m, m, np.full((2, 2), 0.25))
        assert graph_concentration(plan, tol=0.1) == 0.0


def test_coupling_marginal_validation():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        Coupling(m, m, np.array([[0.5, 0.0], [0.0, 0.4]]))


def test_size_limit_enforced():
    import seqot.ot as ot_mod

    rng = np.random.default_rng(2)
    mu = DiscreteMeasure(rng.normal(size=(1100, 1)))
    nu = DiscreteMeasure(rng.normal(size=(1100, 1)))
    with pytest.raises(ValueError, match="size limit"):
        solve_discrete_ot(mu, nu)
    assert 1100 * 1100 > ot_mod.MAX_LP_CELLS


def test_zero_mass_row_rejected():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    plan = Coupling(m, m, np.diag([0.5, 0.5]))
    broken = Coupling(m, m, np.array([[0.5, 0.5], [0.0, 0.0]]), check=False)
    assert barycentric_map(plan).shape == (2, 1)
    with pytest.raises(ValueError):
        barycentric_map(broken)


def test_mass_mismatch_rejected():
    mu = DiscreteMeasure([[0.0]], normalize=False, weights=[1.0])
    bad = DiscreteMeasure.__new__(DiscreteMeasure)
    # build an unnormalized measure bypassing checks to simulate drift
    bad.points = np.array([[1.0]])
    bad.weights = np.array([0.5])
    bad.dim = 1
    with pytest.raises(ValueError):
        solve_discrete_ot(mu, bad)
