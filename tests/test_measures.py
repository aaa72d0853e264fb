import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from seqot.measures import (
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    _discrete_quantile_at,
    _logsumexp,
    _quantile_from_grid,
    _row_sum,
    empirical_from_samples,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
    mixture_grid,
)
from seqot.gibbs import GibbsParams, GibbsSpec
from seqot.ot import Coupling, sinkhorn, solve_discrete_ot
from seqot.processes import MixtureSpec


def test_empirical_uniform_weights_and_duplicates():
    m = empirical_from_samples([[0.0], [0.0], [1.0]])
    assert len(m) == 3  # duplicate atoms kept separately
    assert np.allclose(m.weights, 1 / 3)
    assert m.dim == 1


def test_empirical_single_point_is_dirac():
    m = empirical_from_samples([[1.0, 2.0]])
    assert len(m) == 1 and m.dim == 2
    assert np.allclose(m.points[0], [1.0, 2.0])
    assert m.weights[0] == 1.0


def test_empirical_errors():
    with pytest.raises(ValueError):
        empirical_from_samples([])
    with pytest.raises(ValueError):
        empirical_from_samples([[1.0], [1.0, 2.0]])


def test_empirical_gaussian_mean_oracle():
    # seeded Monte Carlo oracle: mean of 1e4 standard normals is within 0.05 of 0
    rng = np.random.default_rng(7)
    m = empirical_from_samples(rng.standard_normal((10_000, 1)))
    assert abs((m.weights @ m.points)[0]) < 0.05


def test_moment_second_moment_oracle():
    rng = np.random.default_rng(11)
    m = empirical_from_samples(rng.standard_normal((100_000, 1)))
    assert abs(m.weights @ m.points[:, 0] ** 2 - 1.0) < 0.02


def test_gaussian_w2_shift_and_scale():
    assert gaussian_w2(gaussian1d(0, 1), gaussian1d(1, 1)) == pytest.approx(1.0)
    assert gaussian_w2(gaussian1d(0, 1), gaussian1d(0, 2)) == pytest.approx(1.0)
    a = GaussianSpec([0, 0], np.eye(2))
    b = GaussianSpec([3, 4], np.eye(2))
    assert gaussian_w2(a, b) == pytest.approx(25.0)


def test_gaussian_w2_metric_properties():
    rng = np.random.default_rng(5)
    specs = []
    for _ in range(6):
        mean = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.3 * np.eye(3)
        specs.append(GaussianSpec(mean, cov))
    for s in specs:
        assert gaussian_w2(s, s) == pytest.approx(0.0, abs=1e-10)
    for i in range(len(specs)):
        for j in range(i):
            assert gaussian_w2(specs[i], specs[j]) == pytest.approx(
                gaussian_w2(specs[j], specs[i]), rel=1e-10, abs=1e-10)
    # triangle inequality on the square root over random triples
    for _ in range(20):
        i, j, k = rng.integers(0, len(specs), size=3)
        dij = math.sqrt(gaussian_w2(specs[i], specs[j]))
        djk = math.sqrt(gaussian_w2(specs[j], specs[k]))
        dik = math.sqrt(gaussian_w2(specs[i], specs[k]))
        assert dik <= dij + djk + 1e-9


def test_gaussian_w2_against_independent_sqrtm_oracle():
    # independent route: scipy's general matrix square root instead of the
    # eigendecomposition used by the implementation
    from scipy.linalg import sqrtm

    rng = np.random.default_rng(77)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        mean_a, mean_b = rng.normal(size=(2, d))
        fa = rng.normal(size=(d, d))
        fb = rng.normal(size=(d, d))
        cov_a = fa @ fa.T + 0.2 * np.eye(d)
        cov_b = fb @ fb.T + 0.2 * np.eye(d)
        ra = np.real(sqrtm(cov_a))
        cross = np.real(sqrtm(ra @ cov_b @ ra))
        want = float(np.sum((mean_a - mean_b) ** 2)
                     + np.trace(cov_a) + np.trace(cov_b) - 2 * np.trace(cross))
        got = gaussian_w2(GaussianSpec(mean_a, cov_a), GaussianSpec(mean_b, cov_b))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec([0, 0], [[1, 0.5], [0.4, 1]])  # not symmetric
    with pytest.raises(ValueError):
        GaussianSpec([0], [[-1.0]])
    with pytest.raises(ValueError):
        gaussian_w2(gaussian1d(0, 1), GaussianSpec([0, 0], np.eye(2)))


def test_quantile_from_grid_uniform_identity():
    g = Grid1D([0.0, 1.0], [1.0, 1.0])
    q = _quantile_from_grid(g, 4)
    assert np.allclose(q, [0.125, 0.375, 0.625, 0.875])


def test_quantile_from_grid_gaussian_median_oracle():
    # quadrature oracle: the median of N(0,1) tabulated on [-8, 8] is 0
    x = np.linspace(-8, 8, 10_000)
    g = Grid1D(x, np.exp(-x ** 2 / 2))
    q = _quantile_from_grid(g, 10_000)
    median = np.interp(0.5, (np.arange(10_000) + 0.5) / 10_000, q)
    assert abs(median) < 1e-4


def test_quantile_from_grid_spike_density_monotone():
    x = np.linspace(-1, 1, 2001)
    dens = np.exp(-((x - 0.5) / 0.01) ** 2) + np.exp(-((x + 0.5) / 0.01) ** 2)
    q = _quantile_from_grid(Grid1D(x, dens), 500)
    assert np.all(np.diff(q) >= 0)


def test_discrete_quantile_flat_runs():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    values = _discrete_quantile_at(m, (np.arange(8) + 0.5) / 8)
    assert set(np.unique(values)) == {0.0, 1.0}
    assert np.all(np.diff(values) >= 0)


def test_constructor_invariants_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 5))
        m = DiscreteMeasure(rng.normal(size=(n, d)), rng.random(n) + 1e-6)
        assert abs(m.weights.sum() - 1.0) < 1e-12
        assert np.all(m.weights >= 0)
        assert m.points.shape[1] == m.dim
    for _ in range(20):
        nodes = np.sort(rng.normal(size=64))
        nodes += np.arange(64) * 1e-9  # enforce strict increase under ties
        g = Grid1D(nodes, rng.random(64) + 1e-3)
        assert abs(np.trapezoid(g.density, g.nodes) - 1.0) < 1e-9


def test_weight_pruning():
    m = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.5, 1e-18])
    assert len(m) == 2


def test_grid_sampling_matches_density():
    g = gaussian_grid(1.0, 2.0, resolution=4001)
    rng = np.random.default_rng(29)
    draws = g.sample(50_000, rng)
    assert abs(np.mean(draws) - 1.0) < 0.05
    assert abs(np.std(draws) - 2.0) < 0.05


NAN, INF = float("nan"), float("inf")
GIBBS = dict(J=1, L=4, N=3, sigma=1, A=3.9, B=1, C=4)
PAIR = DiscreteMeasure([[0.0], [1.0]])


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [0.5, NAN]), "weights",
                 id="measure-nan-weight"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [1.0, INF]), "weights",
                 id="measure-inf-weight"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [0.5, NAN], normalize=False),
                 "weights", id="measure-nan-weight-unnormalized"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [NAN]]), "points", id="measure-nan-point"),
    pytest.param(lambda: Grid1D([0.0, NAN, 2.0], [1.0, 1.0, 1.0]), "nodes",
                 id="grid-nan-node"),
    pytest.param(lambda: Grid1D([0.0, 1.0], [NAN, NAN]), "density", id="grid-nan-density"),
    pytest.param(lambda: GaussianSpec([NAN], [[1.0]]), "mean", id="gaussian-nan-mean"),
    pytest.param(lambda: GibbsParams(**{**GIBBS, "J": NAN}), "parameter J", id="gibbs-nan-J"),
    pytest.param(lambda: GibbsParams(**{**GIBBS, "C": INF}), "parameter C", id="gibbs-inf-C"),
    pytest.param(lambda: GibbsSpec([0, 0, 0, 0, NAN], np.zeros((2, 2)), GibbsParams(**GIBBS)),
                 "v_coeffs", id="gibbs-nan-V"),
    pytest.param(lambda: GibbsSpec([0, 0, 0, 0, 1], [[0.0, NAN], [NAN, 0.0]],
                                   GibbsParams(**GIBBS)), "w_coeffs", id="gibbs-nan-W"),
    pytest.param(lambda: MixtureSpec([0.5, NAN], [gaussian1d(0, 1), gaussian1d(3, 1)]),
                 "weights", id="mixture-nan-weight"),
    pytest.param(lambda: solve_discrete_ot(PAIR, PAIR, cost=[[0.0, NAN], [1.0, 0.0]]),
                 "cost", id="ot-nan-cost"),
    pytest.param(lambda: solve_discrete_ot(DiscreteMeasure([[0.0], [1e200]], [0.3, 0.7]),
                                           PAIR),
                 "cost", id="ot-overflowing-cost",
                 marks=pytest.mark.filterwarnings("ignore:overflow")),
    pytest.param(lambda: sinkhorn(PAIR, PAIR, cost=[[0.0, NAN], [1.0, 0.0]]), "cost",
                 id="sinkhorn-nan-cost"),
    pytest.param(lambda: Coupling(PAIR, PAIR, np.full((2, 2), NAN)), "weights",
                 id="coupling-nan-weight"),
])
def test_non_finite_input_rejected_by_name(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, means, sigmas, resolution, field", [
    pytest.param([1.0, 1.0], [0.0], [1.0], 100, "weights, means and sigmas",
                 id="extra-weight"),
    pytest.param([1.0], [0.0], [1.0, 2.0], 100, "weights, means and sigmas",
                 id="extra-sigma"),
    pytest.param([-1.0, 2.0], [0.0, 1.0], [1.0, 1.0], 100, "weights must be >= 0",
                 id="negative-weight"),
    pytest.param([0.0, 0.0], [0.0, 1.0], [1.0, 1.0], 100, "positive sum", id="zero-sum"),
    pytest.param([1.0], [NAN], [1.0], 100, "means", id="nan-mean"),
    pytest.param([1.0], [0.0], [-1.0], 100, "sigmas", id="negative-sigma"),
    pytest.param([1.0], [0.0], [0.0], 100, "sigmas", id="zero-sigma"),
    pytest.param([1.0], [0.0], [INF], 100, "sigmas", id="infinite-sigma"),
    pytest.param([1.0], [0.0], [1.0], 1.5, "resolution", id="fractional-resolution"),
    pytest.param([1.0], [0.0], [1.0], 1, "resolution", id="one-node"),
])
def test_mixture_grid_inputs_named(weights, means, sigmas, resolution, field):
    # before: zip dropped an extra entry, a bad sigma failed in Grid1D under
    # another name, and a fractional resolution raised numpy's TypeError
    with pytest.raises(ValueError, match=field):
        mixture_grid(weights, means, sigmas, resolution=resolution)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi", [(2.0, -2.0), (1.0, 1.0), (NAN, 1.0), (-1.0, INF),
                                    (None, -100.0), (100.0, None)])
def test_mixture_grid_range_named(lo, hi):
    # before: a reversed or empty range read "nodes must be strictly
    # increasing" and a NaN end "nodes must be finite", naming neither
    with pytest.raises(ValueError, match="lo and hi must be finite with lo < hi"):
        mixture_grid([1.0], [0.0], [1.0], lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# _row_sum and _logsumexp against numpy's and scipy's own reductions


def same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                          np.asarray(want, dtype=float).view(np.uint64))


# values that tie, overflow exp, vanish or poison a row
SPECIAL = [0.0, -0.0, 1.0, -1.0, 700.0, -745.0, 1e308, -1e308,
           math.inf, -math.inf, math.nan]


@st.composite
def term_tables(draw):
    """A term-last (N, k) table with k up to 12 terms, so that sums of 8 and
    more go pairwise.  Bulk values are random on a per-row scale, so that the
    order of a sum shows in its bits; a few cells hold special values, a few
    tie with their row's first term, and a few rows are all -inf."""
    k, n = draw(st.integers(1, 12)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.uniform(-1, 1, (n, k)) * 10.0 ** rng.uniform(-1, 2.5, (n, 1))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1))
    for (i, j), value in draw(st.lists(st.tuples(cells, st.sampled_from(SPECIAL)),
                                       max_size=n)):
        table[i, j] = value
    for i, j in draw(st.lists(cells, max_size=n)):
        table[i, j] = table[i, 0]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        table[i] = -math.inf
    return table


@settings(max_examples=300, deadline=None)
@given(term_tables())
def test_logsumexp_is_scipys_bit_for_bit(table):
    with np.errstate(all="ignore"):
        want = logsumexp(table, axis=1)
    assert same_bits(_logsumexp(np.ascontiguousarray(table.T)), want)


@st.composite
def term_vectors(draw):
    """Up to 3,000 terms, random on one scale, with a few special values."""
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.uniform(-1, 1, size) * 10.0 ** rng.uniform(-1, 2.5)
    for i, value in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.sampled_from(SPECIAL)), max_size=3)):
        v[i] = value
    return v


@settings(max_examples=100, deadline=None)
@given(term_vectors())
def test_logsumexp_of_a_vector_is_scipys_bit_for_bit(v):
    with np.errstate(all="ignore"):
        want = logsumexp(v)
    got = _logsumexp(v)
    assert np.ndim(got) == 0 and same_bits(got, want)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 136, 300])
def test_row_sum_is_numpys_row_order(k):
    # a running sum matches numpy below 8 terms only; wider rows sum pairwise
    rng = np.random.default_rng(k)
    table = rng.standard_normal((500, k)) * 10.0 ** rng.uniform(-8, 8, (500, k))
    table[0] = -0.0  # numpy starts from +0.0
    assert same_bits(_row_sum(np.ascontiguousarray(table.T)), table.sum(axis=1))
    wide = np.concatenate([table, table], axis=1)  # strided column slices
    assert same_bits(_row_sum(np.ascontiguousarray(wide[:, k:].T)),
                     wide[:, k:].sum(axis=1))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: DiscreteMeasure(np.zeros((0, 2))), "points must be a nonempty",
                 id="no-points"),
    # both built a dimension-0 measure
    pytest.param(lambda: DiscreteMeasure([]), "with dim >= 1", id="empty-list"),
    pytest.param(lambda: DiscreteMeasure(np.zeros((3, 0))), "with dim >= 1",
                 id="no-coordinates"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5]), "negative weight",
                 id="negative-weight"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [0.0, 0.0]),
                 "total mass must be positive", id="zero-mass"),
    pytest.param(lambda: DiscreteMeasure([[0.0], [1.0]], [0.3, 0.3], normalize=False),
                 "weights sum to 0.6, not 1", id="unnormalized-mass"),
    pytest.param(lambda: GaussianSpec([0.0, 0.0], [[1.0]]), "covariance shape mismatch",
                 id="covariance-shape"),
    pytest.param(lambda: GaussianSpec([0.0, 0.0], np.eye(2)).sigma,
                 "sigma is defined for 1D Gaussians", id="sigma-of-2d"),
    pytest.param(lambda: Grid1D([0.0, 1.0], [1.0]), "nodes/density must be matching",
                 id="grid-shapes"),
    pytest.param(lambda: Grid1D([1.0, 0.0], [1.0, 1.0]), "strictly increasing",
                 id="grid-decreasing"),
    pytest.param(lambda: Grid1D([0.0, 1.0], [1.0, -1.0]), "density must be nonnegative",
                 id="grid-negative"),
    pytest.param(lambda: Grid1D([0.0, 1.0], [0.0, 0.0]), "density integrates to zero",
                 id="grid-zero"),
    pytest.param(lambda: empirical_from_samples(np.zeros((2, 2, 2))),
                 "samples must share a common dimension", id="samples-3d"),
])
def test_measure_errors_named(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_only_normalized_measures_prune():
    # normalize=False keeps every atom, zero-weight ones too; the default
    # normalizes and prunes them
    kept = DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0], normalize=False)
    assert len(kept) == 2 and kept.weights.tolist() == [1.0, 0.0]
    pruned = DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0])
    assert len(pruned) == 1 and pruned.points.tolist() == [[0.0]]


@pytest.mark.parametrize("k", [8, 9, 20, 129, 300])
def test_row_sum_of_a_strided_slab_view_is_numpys_row_sum(k):
    # every other slab of a larger array: numpy's sum over the last axis of
    # that view, not of a term-last copy, runs in another order
    rng = np.random.default_rng(k)
    table = rng.standard_normal((300, k)) * 10.0 ** rng.uniform(-8, 8, (300, k))
    slabs = np.zeros((2 * k, 300))
    slabs[::2] = table.T
    assert same_bits(_row_sum(slabs[::2]), table.sum(axis=1))
    assert same_bits(_row_sum(table.T), table.sum(axis=1))
