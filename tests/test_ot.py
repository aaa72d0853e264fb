import hashlib
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot.measures import (
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    empirical_from_samples,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
)
from seqot import invariance, ot
from seqot.cli import _random_invariant_pair
from seqot.invariance import cyclic_group, symmetric_group
from seqot.ot import (
    GAP_TOL,
    MARGINAL_TOL,
    Coupling,
    _HIGHS_OPTIONS,
    _round_to_marginals,
    barycentric_map,
    check_cyclical_monotonicity,
    cost_matrix,
    graph_concentration,
    quantile_transport_1d,
    sinkhorn,
    solve_discrete_ot,
)
from seqot.processes import MixtureSpec, definetti_ot

DUAL_FEAS_TOL = 1e-9


def feasibility_violation(dual, c):
    """max_ij phi_i + psi_j - c_ij: positive where the dual pair is infeasible."""
    return float(np.max(dual.phi[:, None] + dual.psi[None, :] - c))


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
            assert feasibility_violation(res.dual, c) <= 1e-9

    @pytest.mark.parametrize("solve", [solve_discrete_ot, sinkhorn])
    def test_mismatched_dimensions_named(self, solve):
        mu = DiscreteMeasure([[0.0], [1.0]])
        nu = DiscreteMeasure([[0.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError, match="dimension 1 and 2"):
            solve(mu, nu)


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
        # the cost as a table keeps the solve off the monotone path, which
        # shares its staircase with quantile_transport_1d
        rng = np.random.default_rng(7)
        for _ in range(25):
            mu, nu = random_instance(rng, max_atoms=50, max_dim=1)
            got = quantile_transport_1d(mu, nu).w2sq
            want = solve_discrete_ot(mu, nu, cost=cost_matrix(mu, nu))
            assert want.method == "lp"
            assert got == pytest.approx(want.value, abs=1e-6)

    def test_matches_gaussian_w2(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            m1, m2 = rng.uniform(-2, 2, size=2)
            s1, s2 = rng.uniform(0.7, 1.4, size=2)
            got = quantile_transport_1d(gaussian_grid(m1, s1), gaussian_grid(m2, s2)).w2sq
            want = gaussian_w2(gaussian1d(m1, s1), gaussian1d(m2, s2))
            assert got == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("resolution", [500, 10_000])
    def test_gaussian_reads_as_its_tabulated_grid(self, resolution):
        # a 1-D Gaussian raised "cannot interpret GaussianSpec as a 1D law"
        got = quantile_transport_1d(gaussian1d(0, 1), gaussian1d(1, 1.5), resolution)
        want = quantile_transport_1d(gaussian_grid(0, 1, resolution=resolution),
                                     gaussian_grid(1, 1.5, resolution=resolution),
                                     resolution)
        for field in ("x", "y", "mass"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.w2sq == want.w2sq

    def test_multidimensional_gaussian_named(self):
        plane = GaussianSpec([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="GaussianSpec of dimension 2"):
            quantile_transport_1d(plane, gaussian1d(0, 1))

    @pytest.mark.parametrize("resolution", [0, -3, 1, 2.5])
    @pytest.mark.parametrize("solve", [
        pytest.param(lambda r: quantile_transport_1d(gaussian_grid(0, 1), gaussian_grid(1, 1),
                                                     resolution=r), id="grids"),
        pytest.param(lambda r: quantile_transport_1d(delta(0.0), delta(1.0), resolution=r),
                     id="discrete"),
        pytest.param(lambda r: definetti_ot(
            MixtureSpec([1.0], [gaussian1d(1, 1)]),
            MixtureSpec([1.0], [gaussian1d(0, 1)]), resolution=r), id="definetti"),
    ])
    def test_bad_resolution_named(self, solve, resolution):
        with pytest.raises(ValueError, match="resolution"):
            solve(resolution)


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


def assert_certified(mu, nu, res):
    """Exact marginals, feasible duals and a signed gap within tolerance."""
    c = cost_matrix(mu, nu)
    w = res.plan.weights
    assert np.max(np.abs(w.sum(axis=1) - mu.weights)) <= MARGINAL_TOL
    assert np.max(np.abs(w.sum(axis=0) - nu.weights)) <= MARGINAL_TOL
    assert feasibility_violation(res.dual, c) <= DUAL_FEAS_TOL
    assert abs(res.gap) <= GAP_TOL * (1 + abs(res.value))
    assert res.gap == res.value - res.dual.value(mu, nu)  # signed, not |gap|


def assert_exact_certificates(mu, nu, res):
    assert_certified(mu, nu, res)
    # the value equals a direct HiGHS solve of the same cost
    c = cost_matrix(mu, nu)
    assert abs(res.value - highs_value(mu, nu, c)) <= GAP_TOL * (1 + abs(res.value))


@settings(max_examples=120, deadline=None)
@given(weighted_instances)
def test_exact_solver_certificates(instance):
    mu, nu = instance
    assert_exact_certificates(mu, nu, solve_discrete_ot(mu, nu))


def full_lp(mu, nu, c):
    """The transportation LP on every cell in one HiGHS solve, with the
    solver's options, as the exact LP ran before its shortlist: the
    reference for the shortlist LP.  Returns the plan and its cost."""
    n, m = c.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    assert res.status == 0
    w = np.maximum(res.x.reshape(n, m), 0.0)
    return w, float(np.sum(w * c))


def shortlist_instance(seed, shape, points):
    """A weighted instance larger than the shortlist's 24 cells a row, or
    skinny (2 x 200 and 200 x 2), with Gaussian, integer-grid (tied costs)
    or duplicate atoms, in 1 to 3 dimensions."""
    rng = np.random.default_rng(seed)
    n, m = {"square": rng.integers(25, 81, size=2), "wide": (2, 200),
            "tall": (200, 2)}[shape]
    d = int(rng.integers(1, 4))
    if points == "integer":
        x, y = rng.integers(0, 3, size=(n, d)), rng.integers(0, 3, size=(m, d))
    elif points == "duplicates":
        pool = rng.normal(size=(4, d))
        x, y = pool[rng.integers(0, 4, size=n)], pool[rng.integers(0, 4, size=m)]
    else:
        x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    return (DiscreteMeasure(x, rng.random(n) + 1e-3),
            DiscreteMeasure(y, rng.random(m) + 1e-3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["square", "wide", "tall"]),
       st.sampled_from(["gaussian", "integer", "duplicates"]))
def test_shortlist_lp_matches_the_full_lp(seed, shape, points):
    mu, nu = shortlist_instance(seed, shape, points)
    c = cost_matrix(mu, nu)
    res = ot._lp_result(mu, nu, c, 0.0)
    w, value = full_lp(mu, nu, c)
    assert abs(res.value - value) <= 1e-12 * (1 + abs(value))
    assert_certified(mu, nu, res)
    if points == "gaussian":  # untied costs: one optimal plan
        assert np.allclose(res.plan.weights, w, rtol=0.0, atol=1e-12)


def test_shortlist_grows_to_a_cell_it_did_not_list(monkeypatch):
    # the target cloud lies far along the first axis, so each row first lists
    # the targets of least first coordinate and each column the sources of
    # greatest; the optimal plan, which that shift does not move, also pairs
    # some sources of small first coordinate with targets of large one
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=(40, 2)) * [10.0, 1.0], rng.random(40) + 0.1)
    nu = DiscreteMeasure(rng.normal(size=(40, 2)) * [1.0, 10.0] + [50.0, 0.0],
                         rng.random(40) + 0.1)
    listed = []
    direct = ot.linprog

    def record(c, rows, cols, a, b):
        cells = np.zeros((len(a), len(b)), dtype=bool)
        cells[rows, cols] = True
        listed.append(cells)
        return direct(c, rows, cols, a, b)

    monkeypatch.setattr(ot, "linprog", record)
    res = solve_discrete_ot(mu, nu)
    assert res.method == "lp"
    assert len(listed) >= 2
    support = res.plan.weights > 0
    assert np.any(support & ~listed[0])
    assert np.all(listed[-1][support])
    _, value = full_lp(mu, nu, cost_matrix(mu, nu))
    assert abs(res.value - value) <= 1e-12 * (1 + abs(value))
    assert_certified(mu, nu, res)


def scipy_linprog(c, rows, cols, a, b):
    """The LP of ``ot.linprog`` as a scipy sparse matrix, a unit entry in row
    ``rows[k]`` and one in row ``len(a) + cols[k]`` of column k, through
    ``scipy.optimize.linprog``'s HiGHS wrapper with the solver's options: the
    point, row duals and iteration count."""
    k = len(c)
    a_eq = sparse.coo_matrix(
        (np.ones(2 * k), (np.concatenate([rows, len(a) + np.asarray(cols)]),
                          np.tile(np.arange(k), 2))), shape=(len(a) + len(b), k))
    res = linprog(c, A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0.0, None),
                  method="highs", options=_HIGHS_OPTIONS)
    assert res.status == 0, res.message
    return res.x, res.eqlin.marginals, res.nit


def recorded_lps(solve, *args):
    """Every LP that ``solve(*args)`` hands to ``linprog``, in either module."""
    lps, direct = [], ot.linprog

    def record(*lp):
        lps.append(lp)
        return direct(*lp)

    with mock.patch.object(ot, "linprog", record), \
            mock.patch.object(invariance, "linprog", record):
        solve(*args)
    return lps


def assert_same_bits_as_scipy_linprog(lp):
    got, want = ot.linprog(*lp), scipy_linprog(*lp)
    for g, w in zip(got[:2], want[:2]):
        assert np.array_equal(np.asarray(g, dtype=float).view(np.uint64),
                              np.asarray(w, dtype=float).view(np.uint64))
    assert got[2] == want[2]


def diagonal_atom_pair(name, seed, k):
    """An invariant pair whose source carries an atom on the diagonal, fixed by
    every group element: that atom is an orbit of its own, and the pairs
    (diagonal, g.y) form an orbit no larger than the atom orbit of y, so the
    quotient LP mixes orbits of different sizes."""
    group = {"S3": symmetric_group(3), "S4": symmetric_group(4),
             "C4": cyclic_group(4), "C5": cyclic_group(5)}[name]
    mu, nu = _random_invariant_pair(group, np.random.default_rng(seed), k)
    mu = DiscreteMeasure(np.vstack([mu.points, np.full(group.dim, 0.5)]),
                         np.append(mu.weights, 0.3))
    return mu, nu, group


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["square", "wide", "tall"]),
       st.sampled_from(["gaussian", "integer", "duplicates"]))
def test_direct_highs_matches_scipy_linprog_on_shortlist_lps(seed, shape, points):
    # ot.linprog drives scipy's private HiGHS binding; a scipy release that
    # changes that binding shows here first
    mu, nu = shortlist_instance(seed, shape, points)
    lps = recorded_lps(ot._lp_result, mu, nu, cost_matrix(mu, nu), 0.0)
    assert lps
    for lp in lps:
        assert_same_bits_as_scipy_linprog(lp)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["S3", "S4", "C4", "C5"]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3))
def test_direct_highs_matches_scipy_linprog_on_orbit_lps(name, seed, k):
    mu, nu, group = diagonal_atom_pair(name, seed, k)
    # atom orbits enumerated from coordinates alone
    n_src, n_tgt = (
        len({frozenset(tuple(x[p]) for p in group.elements)
             for x in invariance.close_support(m, group).points})
        for m in (mu, nu))
    # one LP each, the same quotient LP
    (primal,) = recorded_lps(invariance.solve_invariant_ot, mu, nu, group)
    (dual,) = recorded_lps(invariance.invariant_duality_value, mu, nu, group)
    for lp in (primal, dual):
        # a row per source orbit and one per target orbit
        assert (len(lp[3]), len(lp[4])) == (n_src, n_tgt)
        assert_same_bits_as_scipy_linprog(lp)


def two_by_two_lp():
    """The transportation LP of a 2 x 2 table with uniform marginals."""
    rows, cols = np.divmod(np.arange(4), 2)
    return {"c": np.ones(4), "rows": rows, "cols": cols,
            "a": np.full(2, 0.5), "b": np.full(2, 0.5)}


def test_infeasible_lp_raises_naming_the_model_status():
    # rows carry mass 1 and columns mass 2: no plan meets both
    lp = {**two_by_two_lp(), "b": np.array([1.0, 1.0])}
    with pytest.raises(RuntimeError, match="model status is Infeasible"):
        ot.linprog(**lp)


@pytest.mark.parametrize("short", ["c", "rows", "cols"])
def test_lp_vectors_that_do_not_fit_the_matrix_are_named(short):
    # HiGHS would read past the end of a short vector
    lp = two_by_two_lp()
    lp[short] = lp[short][:-1]
    with pytest.raises(ValueError, match="LP vectors do not fit"):
        ot.linprog(**lp)


@pytest.mark.parametrize("field", ["a", "b", "rows", "cols"])
def test_lp_indices_out_of_range_are_named(field):
    # HiGHS would read and write outside its rows: a short a or b leaves an
    # index past the last of its rows, a shifted index falls before the first
    lp = two_by_two_lp()
    lp[field] = lp[field][:-1] if field in ("a", "b") else lp[field] - 1
    kind = "row" if field in ("a", "rows") else "column"
    with pytest.raises(ValueError, match=f"LP {kind} index out of range"):
        ot.linprog(**lp)


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
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 3),
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


def one_dim_instance(seed, n, m, points, weights):
    """Two 1D measures of n and m atoms in unsorted order.

    Points are Gaussian, integer-valued (tied costs) or drawn from three
    values (duplicate atoms).  Weights are random, uniform, or normalized
    here and passed with normalize=False and prune=False, one atom of each
    measure at zero weight.
    """
    rng = np.random.default_rng(seed)
    if points == "integer":
        x, y = rng.integers(0, 3, size=n), rng.integers(0, 3, size=m)
    elif points == "duplicates":
        pool = rng.normal(size=3)
        x, y = pool[rng.integers(0, 3, size=n)], pool[rng.integers(0, 3, size=m)]
    else:
        x, y = rng.normal(size=n), rng.normal(size=m)
    x, y = np.asarray(x, dtype=float)[:, None], np.asarray(y, dtype=float)[:, None]
    if weights == "uniform":
        return DiscreteMeasure(x), DiscreteMeasure(y)
    a, b = rng.random(n) + 1e-3, rng.random(m) + 1e-3
    if weights == "weighted":
        return DiscreteMeasure(x, a), DiscreteMeasure(y, b)
    a[rng.integers(n)] = 0.0
    b[rng.integers(m)] = 0.0
    return (DiscreteMeasure(x, a / a.sum(), normalize=False, prune=False),
            DiscreteMeasure(y, b / b.sum(), normalize=False, prune=False))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 12),
       st.sampled_from(["gaussian", "integer", "duplicates"]),
       st.sampled_from(["weighted", "uniform", "unnormalized"]))
def test_monotone_path_matches_lp_with_certificates(seed, n, m, points, weights):
    # the LP here is called on the same cost table, apart from the dispatcher
    mu, nu = one_dim_instance(seed, n, m, points, weights)
    res = solve_discrete_ot(mu, nu)
    assert res.method == "monotone"
    assert res.iterations == 0
    assert_exact_certificates(mu, nu, res)
    lp = ot._lp_result(mu, nu, cost_matrix(mu, nu), 0.0)
    assert abs(res.value - lp.value) <= 1e-12 * (1 + abs(lp.value))


class TestMonotonePath:
    def test_only_the_quadratic_cost_takes_it(self):
        # the staircase is optimal because the quadratic cost is Monge on
        # sorted atoms; a cost given as a callable or a table is not known to be
        mu, nu = one_dim_instance(4, 7, 9, "gaussian", "weighted")
        c = cost_matrix(mu, nu)
        assert solve_discrete_ot(mu, nu, cost="sqeuclidean").method == "monotone"
        for cost in (c, lambda x, y: (x - y.T) ** 2):
            res = solve_discrete_ot(mu, nu, cost=cost)
            assert res.method == "lp"
            assert res.value == pytest.approx(solve_discrete_ot(mu, nu).value, abs=1e-12)
        square, _ = one_dim_instance(5, 8, 8, "gaussian", "uniform")
        res = solve_discrete_ot(square, square, cost=lambda x, y: np.abs(x - y.T))
        assert res.method == "assignment"

    def test_falls_back_when_the_certificate_misses(self, monkeypatch):
        monkeypatch.setattr(ot, "GAP_TOL", -1.0)  # no gap passes
        mu, nu = one_dim_instance(6, 7, 9, "gaussian", "weighted")
        assert solve_discrete_ot(mu, nu).method == "lp"

    def test_uniform_instance_over_the_lp_cap(self):
        # 1-D uniform transport is a sort: the Bellman-Ford assignment path
        # took 3.5 s and all of its 1001 sweeps on this instance
        rng = np.random.default_rng(2)
        mu = empirical_from_samples(rng.normal(size=(1001, 1)))
        nu = empirical_from_samples(rng.normal(size=(1001, 1)))
        assert len(mu) * len(nu) > ot.MAX_LP_CELLS
        res = solve_discrete_ot(mu, nu)
        assert res.method == "monotone"
        assert_certified(mu, nu, res)
        assert np.count_nonzero(res.plan.weights) == 1001
        sorted_gap = np.sort(mu.points[:, 0]) - np.sort(nu.points[:, 0])
        assert res.value == pytest.approx(np.mean(sorted_gap ** 2), rel=1e-12)

    def test_weighted_instance_over_the_lp_cap(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.normal(size=(1001, 1)), rng.random(1001) + 0.1)
        nu = DiscreteMeasure(rng.normal(size=(1200, 1)), rng.random(1200) + 0.1)
        assert len(mu) * len(nu) > ot.MAX_LP_CELLS
        res = solve_discrete_ot(mu, nu)
        assert res.method == "monotone"
        assert_certified(mu, nu, res)


def test_solver_path_by_instance_shape():
    # a 1-D instance sent back to the LP fails here, not criterion 01's timer
    rng = np.random.default_rng(12)

    def cloud(n, d, weighted):
        return DiscreteMeasure(rng.normal(size=(n, d)),
                               rng.random(n) + 0.1 if weighted else None)

    cases = [
        (cloud(1, 2, False), cloud(7, 2, True), "product"),
        (cloud(7, 1, True), cloud(1, 1, False), "product"),
        (cloud(30, 1, True), cloud(40, 1, True), "monotone"),
        (cloud(30, 1, False), cloud(30, 1, False), "monotone"),
        (cloud(30, 2, False), cloud(30, 2, False), "assignment"),
        (cloud(30, 3, True), cloud(40, 3, True), "lp"),
        (cloud(30, 2, False), cloud(40, 2, False), "lp"),
    ]
    for mu, nu, method in cases:
        res = solve_discrete_ot(mu, nu)
        assert res.method == method
        assert_certified(mu, nu, res)


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


def rebuild_every_rung_sinkhorn(mu, nu, epsilon, max_iter=5000, tol=1e-9):
    """The annealed Sinkhorn loop that takes a fresh exponential of the
    potentials at every epsilon rung and for the plan: the reference for the
    solver, which squares its kernel from rung to rung instead.  Returns
    (plan, f, g, iterations, converged, absorbs)."""
    c = cost_matrix(mu, nu)
    a, b = mu.weights, nu.weights
    ladder = [epsilon]
    while ladder[-1] < float(np.max(c)) / 2 and len(ladder) < 60:
        ladder.append(ladder[-1] * 2.0)
    f, g = np.zeros(len(a)), np.zeros(len(b))
    iterations, absorbs, violation = 0, 0, np.inf
    for stage, eps in enumerate(ladder[::-1]):
        last_stage = stage == len(ladder) - 1
        kernel = np.exp((np.add.outer(f, g) - c) / eps)
        u, v = np.ones(len(a)), np.ones(len(b))
        for it in range(max_iter if last_stage else 12):
            u = 1.0 / np.maximum(kernel @ (v * b), 1e-300)
            v = 1.0 / np.maximum(kernel.T @ (u * a), 1e-300)
            iterations += 1
            if max(np.max(np.abs(np.log(u))), np.max(np.abs(np.log(v)))) > 25.0:
                f, g = f + eps * np.log(u), g + eps * np.log(v)
                kernel = np.exp((np.add.outer(f, g) - c) / eps)
                u, v = np.ones(len(a)), np.ones(len(b))
                absorbs += 1
                continue
            if last_stage and (it % 10 == 9 or it == max_iter - 1):
                violation = 0.5 * float(np.abs(a * u * (kernel @ (v * b)) - a).sum())
                if violation <= tol:
                    break
        f, g = f + eps * np.log(u), g + eps * np.log(v)
    plan = np.exp((np.add.outer(f, g) - c) / epsilon
                  + np.log(a)[:, None] + np.log(b)[None, :])
    plan = Coupling(mu, nu, _round_to_marginals(plan, a, b)).weights
    return plan, f, g, iterations, violation <= tol, absorbs


def sinkhorn_instance(seed, dim, weighted):
    """Two random clouds of 2 to 30 atoms, uniform or with random weights."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(2, 31, size=2))
    a = rng.random(n) + 0.05 if weighted else None
    b = rng.random(m) + 0.05 if weighted else None
    return (DiscreteMeasure(rng.normal(size=(n, dim)), a),
            DiscreteMeasure(1.5 * rng.normal(size=(m, dim)) + 0.5, b))


def assert_matches_rebuild_reference(mu, nu, eps, **kw):
    """Compare the solver with the reference, and return the reference."""
    reference = rebuild_every_rung_sinkhorn(mu, nu, eps, **kw)
    plan, f, g, iterations, converged, _ = reference
    res = sinkhorn(mu, nu, epsilon=eps, **kw)
    assert res.iterations == iterations
    assert res.converged == converged
    assert np.max(np.abs(res.f - f)) <= 1e-12
    assert np.max(np.abs(res.g - g)) <= 1e-12
    # plan entries are a_i b_j exp((f_i + g_j - c_ij) / eps), so an ulp of
    # potentials near 10 moves them by about 1e-15 / eps, over 1e-12 once
    # eps < 1e-3
    assert np.max(np.abs(res.plan.weights - plan)) <= max(1e-12, 1e-15 / eps)
    return reference


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans(),
       st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0]), st.sampled_from([5, 5000]))
def test_sinkhorn_matches_rebuild_reference(seed, dim, weighted, eps, max_iter):
    mu, nu = sinkhorn_instance(seed, dim, weighted)
    assert_matches_rebuild_reference(mu, nu, eps, max_iter=max_iter)


class TestSinkhorn:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_epsilon(self, epsilon):
        mu = DiscreteMeasure([[0.0], [1.0]])
        nu = DiscreteMeasure([[0.5], [2.0]])
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn(mu, nu, epsilon=epsilon)

    @pytest.mark.parametrize("name, value", [
        ("max_iter", 0), ("max_iter", -1), ("max_iter", 2.5),
        ("tol", -1e-9), ("tol", float("nan")),
    ])
    def test_rejects_bad_iteration_or_tolerance(self, name, value):
        mu = DiscreteMeasure([[0.0], [1.0]])
        nu = DiscreteMeasure([[0.5], [2.0]])
        with pytest.raises(ValueError, match=name):
            sinkhorn(mu, nu, **{name: value})

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

    # sha256 of the plan, f and g bytes and the iteration count (numpy 2.4,
    # x86-64): first of the solver, which squares its kernel from rung to
    # rung, then of the rebuild-every-rung reference, which are the solver's
    # bits from before the squaring; "shifted" absorbs twice and "1d" five
    # times, the latter without converging
    @staticmethod
    def _pinned_instances():
        rng = np.random.default_rng(3)
        yield ("weighted", DiscreteMeasure(rng.normal(size=(15, 2)), rng.random(15) + 0.1),
               DiscreteMeasure(rng.normal(size=(11, 2)), rng.random(11) + 0.1), 0.05,
               "8476f252561074dad0517ff6d85f97d77a03817a5a84ac9ed296f0cb18dd7c54",
               "1112f27b501ca90f5a8432278e0b040e66f7887f7c13f58a6529de22803569bb")
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.normal(size=(10, 2)))
        yield ("identical", mu, mu, 1e-3,
               "24b539e969dd497fa1364d0a198ac32814b9630cdffdfe291d9dcf623b5a5248",
               "6c99db479c065ec56b8b63dfcd94501d2dc7ab600b9b2973b747fe5067d7e49b")
        rng = np.random.default_rng(19)
        yield ("shifted", DiscreteMeasure(rng.normal(size=(12, 2))),
               DiscreteMeasure(rng.normal(size=(14, 2)) + 0.5), 0.01,
               "c04208a7aa2d412837ea121088d1d658c2fa3e47d47d2ddeaa559cd9cc09b838",
               "22eb031ea82049326e43c6b5496921226ccb04a1f725858885e596d98132d019")
        rng = np.random.default_rng(41)
        yield ("1d", DiscreteMeasure(rng.normal(size=(60, 1)), rng.random(60) + 0.05),
               DiscreteMeasure(2.0 * rng.normal(size=(50, 1))), 1e-4,
               "315f1abc7036f34bf35e6f31c9862b7e5bec85418b6557380751a61684faf275",
               "74e35063b477d373275b9ccee1fc68c96b0283eb769a81b2e9d12f576222644f")

    @staticmethod
    def _digest(plan, f, g, iterations):
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in (plan, f, g))
        return hashlib.sha256(data + str(iterations).encode()).hexdigest()

    def test_matches_direct_rebuild_reference(self):
        absorbs = {}
        for name, mu, nu, eps, _, reference_digest in self._pinned_instances():
            *bits, _, absorbs[name] = assert_matches_rebuild_reference(mu, nu, eps)
            assert self._digest(*bits) == reference_digest, name
        assert absorbs == {"weighted": 0, "identical": 0, "shifted": 2, "1d": 5}

    def test_kernel_built_once_plus_once_per_absorb(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return exponent(*args)

        exponent = ot._exponent
        monkeypatch.setattr(ot, "_exponent", counted)
        for name, mu, nu, eps, _, _ in self._pinned_instances():
            absorbs = rebuild_every_rung_sinkhorn(mu, nu, eps)[-1]
            calls.clear()
            sinkhorn(mu, nu, epsilon=eps)
            assert len(calls) == 1 + absorbs, name

    def test_output_bits_pinned(self):
        for name, mu, nu, eps, digest, _ in self._pinned_instances():
            res = sinkhorn(mu, nu, epsilon=eps)
            assert self._digest(res.plan.weights, res.f, res.g, res.iterations) == digest, name

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
            rep = check_cyclical_monotonicity(res.plan)
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


def test_size_limit_enforced(monkeypatch):
    # the cap guards the LP alone: weighted instances over it are rejected,
    # and so are uniform ones whose assignment certificate fails
    import seqot.ot as ot_mod

    rng = np.random.default_rng(2)
    assert 1001 * 1001 > ot_mod.MAX_LP_CELLS
    mu = DiscreteMeasure(rng.normal(size=(1001, 2)), rng.random(1001) + 0.1)
    nu = DiscreteMeasure(rng.normal(size=(1001, 2)), rng.random(1001) + 0.1)
    with pytest.raises(ValueError, match="size limit"):
        solve_discrete_ot(mu, nu)
    mu = DiscreteMeasure(rng.normal(size=(1001, 2)))
    monkeypatch.setattr(ot_mod, "_assignment_result", lambda *args: None)
    with pytest.raises(ValueError, match="size limit"):
        solve_discrete_ot(mu, mu)


def test_uniform_instance_over_the_lp_cap_takes_the_assignment_path():
    import seqot.ot as ot_mod

    rng = np.random.default_rng(2)
    mu = DiscreteMeasure(rng.normal(size=(1001, 3)))
    nu = DiscreteMeasure(rng.normal(size=(1001, 3)))
    assert len(mu) * len(nu) > ot_mod.MAX_LP_CELLS
    res = solve_discrete_ot(mu, nu)
    assert res.method == "assignment"
    assert abs(res.gap) <= ot_mod.GAP_TOL * (1 + abs(res.value))
    assert np.count_nonzero(res.plan.weights) == 1001


def test_zero_mass_row_rejected():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    plan = Coupling(m, m, np.diag([0.5, 0.5]))
    # a zero-weight source atom gives a valid coupling with an empty row
    light = DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0], normalize=False, prune=False)
    broken = Coupling(light, m, np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert barycentric_map(plan).shape == (2, 1)
    with pytest.raises(ValueError, match="zero-mass row"):
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
