import math

import numpy as np
import pytest

from seqot.measures import (
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    _discrete_quantile_at,
    _quantile_from_grid,
    empirical_from_samples,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
)
from seqot.gibbs import GibbsParams
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
