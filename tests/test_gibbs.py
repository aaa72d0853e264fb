import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly
from scipy.special import gamma as gamma_fn

from seqot import gibbs
from seqot.gibbs import (
    EmpiricalMap,
    GibbsAssumptionError,
    GibbsParams,
    GibbsSpec,
    MCMCConfig,
    cauchy_convergence_experiment,
    cyclic_symmetrize,
    empirical_map_to_gaussian,
    entropy_mn_crosscheck,
    entropy_mn_estimate,
    equivariance_check,
    exp_moment_probe,
    gaussian_site_spec,
    quartic_spec,
    sample_decoupled_product,
    sample_periodic_gibbs,
)
from seqot.measures import Grid1D, _distinct_rows, gaussian_grid
from seqot.ot import Coupling, _lp_result, cost_matrix, quantile_transport_1d


def quartic_second_moment_oracle():
    # quadrature oracle for E[x^2] under the density propto exp(-x^4)
    x = np.linspace(-4.0, 4.0, 200_001)
    w = np.exp(-x ** 4)
    return float(np.trapezoid(x ** 2 * w, x) / np.trapezoid(w, x))


class TestGibbsSpec:
    def test_quartic_passes_probes(self):
        spec = quartic_spec(0.1)
        assert spec.coupled

    def test_asymmetric_pair_potential_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.3  # W(x,y) = 0.3 y, not symmetric
        with pytest.raises(GibbsAssumptionError) as err:
            GibbsSpec([0, 0, 0, 0, 1], w,
                      GibbsParams(J=1, L=4, N=3, sigma=1, A=3.9, B=1, C=4))
        assert "symmetry" in err.value.name

    def test_growth_envelope_violations_named(self):
        with pytest.raises(GibbsAssumptionError) as err:
            # C far too small for V = x^4
            GibbsSpec([0, 0, 0, 0, 1], np.zeros((1, 1)),
                      GibbsParams(J=0.1, L=4, N=3, sigma=1, A=3.9, B=1, C=0.01))
        assert "site growth" in err.value.name
        with pytest.raises(GibbsAssumptionError) as err:
            # coercivity demands more than the quartic delivers
            GibbsSpec([0, 0, 0, 0, 1], np.zeros((1, 1)),
                      GibbsParams(J=0.1, L=4, N=3, sigma=1, A=50.0, B=1, C=4))
        assert "coercivity" in err.value.name
        with pytest.raises(GibbsAssumptionError) as err:
            # strong coupling against a tiny pair envelope
            w = np.zeros((2, 2))
            w[1, 1] = 5.0
            GibbsSpec([0, 0, 0, 0, 1], w,
                      GibbsParams(J=0.001, L=4, N=3, sigma=1, A=3.9, B=1, C=4))
        assert "pair growth" in err.value.name

    def test_zero_coupling_clone(self):
        clone = quartic_spec(0.1).zero_coupling_clone()
        assert not clone.coupled


finite = st.floats(-3.0, 3.0, allow_nan=False, width=64)


@st.composite
def potentials_and_points(draw):
    v = draw(hnp.arrays(float, st.integers(1, 6), elements=finite))
    k = draw(st.integers(1, 4))
    upper = draw(hnp.arrays(float, (k, k), elements=finite))
    w = np.triu(upper) + np.triu(upper, 1).T  # symmetric
    size = draw(st.integers(1, 9))
    x = draw(hnp.arrays(float, size, elements=finite))
    y = draw(hnp.arrays(float, size, elements=finite))
    return v, w, x, y


@settings(max_examples=100, deadline=None)
@given(potentials_and_points())
def test_potentials_equal_numpy_polynomial_bitwise(args):
    v, w, x, y = args
    # bypass the growth probes: only the evaluation order is under test
    spec = GibbsSpec.__new__(GibbsSpec)
    spec.v_coeffs, spec.w_coeffs = v, w
    spec._vp_coeffs = npoly.polyder(v)
    spec._wx_coeffs = npoly.polyder(w, axis=0)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    for a, b in ((x, y), (gx, gy)):
        assert np.array_equal(spec.v(a), npoly.polyval(a, v))
        assert np.array_equal(spec.vp(a), npoly.polyval(a, spec._vp_coeffs))
        assert np.array_equal(spec.w(a, b), npoly.polyval2d(a, b, w))
        assert np.array_equal(spec.wx(a, b), npoly.polyval2d(a, b, spec._wx_coeffs))


class TestSampler:
    # sha256 of the states, acceptance and step bytes, recorded with the
    # numpy.polynomial evaluation and chain-major state (numpy 2.4, x86-64)
    SHORT = MCMCConfig(burn_in=50, thinning=2, adapt_interval=25)
    PINNED = {
        "coupled ring": (
            0.1, 5, gibbs.ring_bonds(5), SHORT,
            "8dec6de5b668c1a98c8737b2ab09c30a92e7e5efac215a2de610d762a86ed401"),
        "coupled path": (
            0.1, 3, gibbs.path_bonds(3), SHORT,
            "e05662cf9ab4b553e5bb5f70a10ea3aa3f38946702912cddfa0c316834000273"),
        "self-bonded site": (
            0.1, 1, gibbs.ring_bonds(1), SHORT,
            "d6d8b3be84e0accbfb5d421834898808ce0575a8c9b4ec9d811f63c846b87d79"),
        "uncoupled ring": (
            0.0, 5, gibbs.ring_bonds(5), SHORT,
            "167e1b2764489927fc3e2952cba09ad729ec51fff24ea640ae0fc8ef56bc759a"),
        "24 chains": (
            0.5, 5, gibbs.ring_bonds(5), replace(SHORT, num_chains=24),
            "4f8fc79dcf9c32ea4a7faa096eb9ede7056fa32b7d1fa2c8e1ee1823b0c5e24e"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_sampler_output_bits_pinned(self, case):
        coupling, sites, bonds, config, digest = self.PINNED[case]
        [out] = gibbs._sample_sites(quartic_spec(coupling), sites, bonds, 300, [77],
                                    config)
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in out)
        assert hashlib.sha256(data).hexdigest() == digest

    @settings(max_examples=30, deadline=None)
    @given(chains=st.integers(1, 64), sites=st.integers(1, 5),
           ring=st.booleans(), coupling=st.sampled_from([0.0, 0.1, 0.5]),
           seeds=st.lists(st.integers(0, 2 ** 40), min_size=2, max_size=4),
           extra=st.integers(0, 63))
    def test_each_lane_is_its_seed_run_alone(self, chains, sites, ring, coupling,
                                             seeds, extra):
        # burn-in spans two adaptations; the sample size leaves a partial
        # last row of chains
        config = MCMCConfig(num_chains=chains, burn_in=10, thinning=2,
                            adapt_interval=5)
        bonds = gibbs.ring_bonds(sites) if ring else gibbs.path_bonds(sites)
        spec = quartic_spec(coupling)
        num_samples = 2 * chains + extra % chains + 1
        lanes = gibbs._sample_sites(spec, sites, bonds, num_samples, seeds, config)
        assert len(lanes) == len(seeds)
        for seed, lane in zip(seeds, lanes):
            [alone] = gibbs._sample_sites(spec, sites, bonds, num_samples, [seed],
                                          config)
            for a, b in zip(lane, alone):
                assert a.shape == b.shape and np.array_equal(a, b)

    def test_bitwise_reproducibility(self):
        a = sample_periodic_gibbs(quartic_spec(0.1), 2, 500, seed=99)
        b = sample_periodic_gibbs(quartic_spec(0.1), 2, 500, seed=99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.acceptance, b.acceptance)

    def test_uncoupled_quartic_moments(self):
        config = MCMCConfig()
        keep = 312  # 312 * 64 chains = 19968 states ~ 1e5 site draws on 5 sites
        s = sample_periodic_gibbs(quartic_spec(0.0), 2, keep * config.num_chains,
                                  seed=7, config=config)
        assert s.tuning_ok
        per_chain = s.states.reshape(keep, config.num_chains, 5)
        chain_mean = per_chain.mean(axis=(0, 2))
        se_mean = chain_mean.std(ddof=1) / math.sqrt(config.num_chains)
        assert abs(s.states.mean()) <= 3 * se_mean
        chain_m2 = (per_chain ** 2).mean(axis=(0, 2))
        se_m2 = chain_m2.std(ddof=1) / math.sqrt(config.num_chains)
        oracle = quartic_second_moment_oracle()
        assert oracle == pytest.approx(gamma_fn(0.75) / gamma_fn(0.25), abs=1e-6)
        assert abs(s.states.mean() ** 2 + s.states.var() - oracle) <= 3 * se_m2 + 1e-3

    def test_coupled_ring_edge_symmetry(self):
        config = MCMCConfig()
        keep = 250
        s = sample_periodic_gibbs(quartic_spec(0.1), 3, keep * config.num_chains,
                                  seed=17, config=config)
        d = 7
        per_chain = s.states.reshape(keep, config.num_chains, d)
        edge_cov = []
        for i in range(d):
            j = (i + 1) % d
            cov_chain = (per_chain[:, :, i] * per_chain[:, :, j]).mean(axis=0)
            edge_cov.append((cov_chain.mean(), cov_chain.std(ddof=1) / math.sqrt(config.num_chains)))
        vals = np.array([v for v, _ in edge_cov])
        ses = np.array([e for _, e in edge_cov])
        # negative lag-1 coupling, statistically equal across all ring edges
        assert np.all(vals < 0)
        assert vals.max() - vals.min() <= 3 * (ses.max() + ses.min()) + 2 * ses.mean()

    def test_tuning_failure_is_flagged(self):
        cfg = MCMCConfig(num_chains=16, burn_in=0, thinning=1, step_init=80.0)
        with pytest.warns(UserWarning):
            s = sample_periodic_gibbs(quartic_spec(0.0), 1, 160, seed=3, config=cfg)
        assert not s.tuning_ok

    def test_exp_moment_probe_stable_in_n(self):
        spec = quartic_spec(0.1)
        maxima = []
        for n in (2, 3):
            s = sample_periodic_gibbs(spec, n, 2000, seed=31 + n)
            probe = exp_moment_probe(s, lam=0.5, power=3.0)
            assert probe["finite"]
            maxima.append(probe["max"])
        # the exponential moment does not blow up as the ring grows
        assert maxima[1] < 2.0 * maxima[0]


class TestCyclicSymmetrize:
    def test_constant_state_fixed(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 4, seed=1)
        s.states = np.full((2, 3), 0.7)
        sym = cyclic_symmetrize(s)
        assert np.allclose(sym.states, 0.7)
        assert sym.states.shape == (6, 3)

    def test_single_state_expansion(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 4, seed=1)
        s.states = np.array([[1.0, 0.0, 0.0]])
        sym = cyclic_symmetrize(s)
        rows = {tuple(r) for r in sym.states}
        assert rows == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_per_coordinate_means_exactly_equal(self):
        s = sample_periodic_gibbs(quartic_spec(0.1), 2, 300, seed=23)
        sym = cyclic_symmetrize(s)
        means = sym.states.mean(axis=0)
        assert np.max(np.abs(means - means[0])) < 1e-15

    def test_random_mode_preserves_count(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 50, seed=2)
        sym = cyclic_symmetrize(s, mode="random", seed=9)
        assert sym.states.shape == s.states.shape


def symmetrized_gaussian_cloud(count, d, seed):
    gt = np.random.default_rng(seed).standard_normal((count, d))
    return np.concatenate([np.roll(gt, k, axis=1) for k in range(d)])


class TestEmpiricalMap:
    def test_identity_instance(self):
        # ring of V(x)=x^2/2 sites with no coupling: the law is the standard
        # Gaussian, so the transport map is the identity
        s = cyclic_symmetrize(sample_periodic_gibbs(gaussian_site_spec(), 1, 2000, seed=3))
        target = symmetrized_gaussian_cloud(2000, 3, 99)
        m = empirical_map_to_gaussian(s.states, target, epsilon=0.1, seed=9, tol=1e-4)
        rms_coord = np.sqrt(np.mean((m.values - m.source_points) ** 2))
        assert rms_coord < 0.1

    def test_uncoupled_matches_quantile_oracle(self):
        s = cyclic_symmetrize(sample_periodic_gibbs(quartic_spec(0.0), 1, 2000, seed=5))
        target = symmetrized_gaussian_cloud(2000, 3, 99)
        m = empirical_map_to_gaussian(s.states, target, epsilon=0.1, seed=11, tol=1e-4)
        x = np.linspace(-3.2, 3.2, 20_001)
        oracle = quantile_transport_1d(Grid1D(x, np.exp(-x ** 4)), gaussian_grid(0, 1))
        for k in range(3):
            rms = np.sqrt(np.mean((m.values[:, k] - oracle(m.source_points[:, k])) ** 2))
            assert rms < 0.1

    def test_single_site_reduces_to_monotone_coupling(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 0, 250, seed=7)
        m = empirical_map_to_gaussian(s.states, 250, seed=13)
        assert m.method == "lp"
        # sorted matching, with each state the MCMC repeats (rejections) sent
        # to the mean of the sorted targets at its ranks
        target = np.random.default_rng(np.random.SeedSequence((13, 0x9a))).standard_normal((250, 1))
        xs = np.sort(s.states[:, 0])
        ys = np.sort(target[:, 0])
        distinct, first, counts = np.unique(xs, return_index=True, return_counts=True)
        assert np.any(counts > 1)
        means = np.add.reduceat(ys, first) / counts
        oracle = means[np.searchsorted(distinct, m.source_points[:, 0])]
        assert np.allclose(m.values[:, 0], oracle, atol=1e-12)

    def test_out_of_sample_extension_continuity(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 400, seed=9)
        m = empirical_map_to_gaussian(s.states, 400, epsilon=0.2, seed=3, tol=1e-6)
        inside = m.evaluate(m.source_points[:5])
        assert np.allclose(inside, m.values[:5], atol=0.05)


def rotate_copies(res):
    """The same optimal plan with each repeated source point's rows handed
    round among its copies: another tie-break of the solver."""
    _, group = _distinct_rows(res.plan.source.points)
    w = res.plan.weights.copy()
    for k in np.flatnonzero(np.bincount(group) > 1):
        rows = np.flatnonzero(group == k)
        w[rows] = w[np.roll(rows, 1)]
    return replace(res, plan=Coupling(res.plan.source, res.plan.target, w))


class TestTieBreakIndependence:
    """The exact-plan map is a function of the optimal plan's mass per
    distinct source point, not of how a solver splits it among copies."""

    def cloud(self):
        s = sample_periodic_gibbs(quartic_spec(0.1), 1, 200, seed=17)
        assert len(_distinct_rows(s.states)[0]) < 200
        return s.states

    def rotated_solver(self, monkeypatch):
        solve = gibbs.solve_discrete_ot
        rotated = []

        def solve_rotated(mu, nu):
            res = solve(mu, nu)
            other = rotate_copies(res)
            rotated.append(not np.array_equal(other.plan.weights, res.plan.weights))
            return other
        monkeypatch.setattr(gibbs, "solve_discrete_ot", solve_rotated)
        return rotated

    def test_values_identical_under_rotated_copies(self, monkeypatch):
        pts = self.cloud()
        base = empirical_map_to_gaussian(pts, 200, seed=5)
        rotated = self.rotated_solver(monkeypatch)
        other = empirical_map_to_gaussian(pts, 200, seed=5)
        assert rotated == [True]
        assert np.array_equal(other.values, base.values)
        # every copy of a point gets the value its nearest-source lookup returns
        assert np.array_equal(other.evaluate(pts), other.values)

    def test_lp_plan_gives_the_same_values(self, monkeypatch):
        pts = self.cloud()
        base = empirical_map_to_gaussian(pts, 200, seed=5)
        assert base.method == "lp"
        monkeypatch.setattr(gibbs, "solve_discrete_ot",
                            lambda mu, nu: _lp_result(mu, nu, cost_matrix(mu, nu), 0.0))
        other = empirical_map_to_gaussian(pts, 200, seed=5)
        # HiGHS masses are 1/n only to within an ulp, so not bit-identical
        assert np.allclose(other.values, base.values, rtol=0, atol=1e-12)
        assert np.array_equal(other.evaluate(pts), other.values)

    def test_d_estimate_identical_under_rotated_copies(self, monkeypatch):
        args = dict(spec=quartic_spec(0.1), m_list=[1], n=2, samples=600,
                    epsilon=0.1, seed=3, ot_points=200, replicates=3)
        base = cauchy_convergence_experiment(**args)
        rotated = self.rotated_solver(monkeypatch)
        assert cauchy_convergence_experiment(**args) == base
        assert any(rotated)


class TestEquivariance:
    def test_symmetrized_sample_is_equivariant(self):
        base = sample_periodic_gibbs(quartic_spec(0.0), 2, 250, seed=21)
        sym = cyclic_symmetrize(base)
        target = symmetrized_gaussian_cloud(250, 5, 33)
        m = empirical_map_to_gaussian(sym.states, target, epsilon=0.1, seed=13, tol=1e-6)
        rep = equivariance_check(m)
        assert rep.max_delta < 1e-12

    def test_broken_instance_flagged(self):
        base = sample_periodic_gibbs(quartic_spec(0.0), 2, 250, seed=21)
        skew = base.states + 0.4 * np.arange(5)[None, :]
        target = symmetrized_gaussian_cloud(250, 5, 33)
        m = empirical_map_to_gaussian(np.tile(skew, (5, 1)), target,
                                      epsilon=0.1, seed=13, tol=1e-6)
        rep = equivariance_check(m)
        assert np.all(rep.delta > 10 * rep.standard_error)
        assert rep.max_delta > 0.5

    def test_single_site_vacuous(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 0, 200, seed=5)
        m = empirical_map_to_gaussian(s.states, 200, seed=3)
        rep = equivariance_check(m)
        assert rep.max_delta == pytest.approx(0.0, abs=1e-20)


    def test_sample_smaller_than_two_batches(self):
        # 40 points cannot fill two batches of the default 32
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 40, seed=5)
        m = empirical_map_to_gaussian(s.states, 40, seed=3)
        rep = equivariance_check(m)
        assert rep.delta.shape == rep.standard_error.shape == (3,)
        assert np.all(np.isfinite(rep.standard_error))

    def test_single_point_rejected(self):
        m = EmpiricalMap(np.zeros((1, 3)), np.zeros((1, 3)), "lp")
        with pytest.raises(ValueError, match="at least 2"):
            equivariance_check(m)


class TestEntropy:
    def test_uncoupled_entropy_exactly_zero(self):
        spec = quartic_spec(0.0)
        s = sample_periodic_gibbs(spec, 2, 1000, seed=11)
        est = entropy_mn_estimate(spec, s, 1)
        assert est.value == 0.0
        assert est.standard_error == 0.0

    def test_weak_coupling_positive_and_crosschecked(self):
        spec = quartic_spec(0.1)
        s = sample_periodic_gibbs(spec, 3, 8000, seed=41)
        direct = entropy_mn_estimate(spec, s, 1)
        assert direct.value >= -3 * direct.standard_error
        assert direct.value > 0
        prod = sample_decoupled_product(spec, 3, 1, 8000, seed=43)
        bridge = entropy_mn_crosscheck(spec, s, 1, prod)
        tol = 3 * (direct.standard_error + bridge.standard_error)
        assert abs(direct.value - bridge.value) <= tol

    def test_m_range_validated(self):
        spec = quartic_spec(0.1)
        s = sample_periodic_gibbs(spec, 2, 100, seed=3)
        with pytest.raises(ValueError):
            entropy_mn_estimate(spec, s, 2)


class TestCauchyExperiment:
    def test_small_uncoupled_instance(self):
        # LP-path smoke test: W = 0 means the true D vanishes and the bound is 0
        rep = cauchy_convergence_experiment(
            quartic_spec(0.0), m_list=[1], n=2, samples=1500, epsilon=0.1,
            seed=907, ot_points=300, replicates=3)
        row = rep.rows[0]
        assert row.entropy == 0.0
        assert row.d_raw > 0  # estimation bias is real and reported
        assert abs(row.d_corrected) <= 3 * row.se_d + 1e-12
        assert rep.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_convergence_experiment(quartic_spec(0.0), m_list=[3], n=2,
                                          samples=100, epsilon=0.1, seed=1,
                                          ot_points=10, replicates=1)
        with pytest.raises(ValueError):
            cauchy_convergence_experiment(quartic_spec(0.0), m_list=[1], n=2,
                                          samples=100, epsilon=0.1, seed=1,
                                          ot_points=90, replicates=2)
