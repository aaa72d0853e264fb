import hashlib
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly
from scipy.special import gamma as gamma_fn, logsumexp

from seqot import gibbs
from seqot.bounds import EntropyEstimate
from seqot.gibbs import (
    EmpiricalMap,
    GibbsAssumptionError,
    GibbsParams,
    GibbsSpec,
    cauchy_convergence_experiment,
    cyclic_symmetrize,
    empirical_map_to_gaussian,
    entropy_mn_estimate,
    equivariance_check,
    quartic_spec,
    sample_periodic_gibbs,
)
from seqot.measures import Grid1D, _distinct_rows, gaussian_grid
from seqot.ot import Coupling, _lp_result, cost_matrix, quantile_transport_1d


def gaussian_site_spec() -> GibbsSpec:
    """V(x) = x^2/2 with no coupling: the ring measure is the standard Gaussian."""
    return GibbsSpec([0, 0, 0.5], np.zeros((1, 1)),
                     GibbsParams(J=0.01, L=2, N=2, sigma=0.25, A=0.5, B=2.0, C=1.5))


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
    SHORT = {"BURN_IN": 50, "THINNING": 2, "ADAPT_INTERVAL": 25}
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
            0.5, 5, gibbs.ring_bonds(5), {**SHORT, "NUM_CHAINS": 24},
            "4f8fc79dcf9c32ea4a7faa096eb9ede7056fa32b7d1fa2c8e1ee1823b0c5e24e"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_sampler_output_bits_pinned(self, case):
        coupling, sites, bonds, constants, digest = self.PINNED[case]
        with mock.patch.multiple(gibbs, **constants):
            [out] = gibbs._sample_sites(quartic_spec(coupling), sites, bonds, 300, [77])
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in out)
        assert hashlib.sha256(data).hexdigest() == digest

    @settings(max_examples=40, deadline=None)
    @given(chains=st.integers(1, 64), sites=st.integers(1, 5),
           ring=st.booleans(), coupling=st.sampled_from([0.0, 0.1, 0.5]),
           seeds=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4),
           null_seeds=st.lists(st.integers(0, 2 ** 40), max_size=3),
           shared=st.booleans(), extra=st.integers(0, 63))
    def test_each_lane_is_its_seed_run_alone(self, chains, sites, ring, coupling,
                                             seeds, null_seeds, shared, extra):
        # burn-in spans two adaptations; the sample size leaves a partial
        # last row of chains.  Lanes of the spec and of its zero-coupling
        # clone share the call; a shared seed is the experiment's
        # common-random-numbers pairing of a main and a control lane
        bonds = gibbs.ring_bonds(sites) if ring else gibbs.path_bonds(sites)
        spec = quartic_spec(coupling)
        null_seeds = seeds[:1] + null_seeds if shared else null_seeds
        num_samples = 2 * chains + extra % chains + 1
        runs = ([(spec, s) for s in seeds]
                + [(spec.zero_coupling_clone(), s) for s in null_seeds])
        with mock.patch.multiple(gibbs, NUM_CHAINS=chains, BURN_IN=10, THINNING=2,
                                 ADAPT_INTERVAL=5):
            lanes = gibbs._sample_sites(spec, sites, bonds, num_samples, seeds,
                                        null_seeds=null_seeds)
            assert len(lanes) == len(runs)
            for (lane_spec, seed), lane in zip(runs, lanes):
                [alone] = gibbs._sample_sites(lane_spec, sites, bonds, num_samples,
                                              [seed])
                for a, b in zip(lane, alone):
                    assert a.shape == b.shape and np.array_equal(a, b)

    def test_bitwise_reproducibility(self):
        a = sample_periodic_gibbs(quartic_spec(0.1), 2, 500, seed=99)
        b = sample_periodic_gibbs(quartic_spec(0.1), 2, 500, seed=99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.acceptance, b.acceptance)

    def test_uncoupled_quartic_moments(self):
        chains = gibbs.NUM_CHAINS
        keep = 312  # 312 * 64 chains = 19968 states ~ 1e5 site draws on 5 sites
        s = sample_periodic_gibbs(quartic_spec(0.0), 2, keep * chains, seed=7)
        assert s.tuning_ok
        per_chain = s.states.reshape(keep, chains, 5)
        chain_mean = per_chain.mean(axis=(0, 2))
        se_mean = chain_mean.std(ddof=1) / math.sqrt(chains)
        assert abs(s.states.mean()) <= 3 * se_mean
        chain_m2 = (per_chain ** 2).mean(axis=(0, 2))
        se_m2 = chain_m2.std(ddof=1) / math.sqrt(chains)
        oracle = quartic_second_moment_oracle()
        assert oracle == pytest.approx(gamma_fn(0.75) / gamma_fn(0.25), abs=1e-6)
        assert abs(s.states.mean() ** 2 + s.states.var() - oracle) <= 3 * se_m2 + 1e-3

    def test_coupled_ring_edge_symmetry(self):
        chains = gibbs.NUM_CHAINS
        keep = 250
        s = sample_periodic_gibbs(quartic_spec(0.1), 3, keep * chains, seed=17)
        d = 7
        per_chain = s.states.reshape(keep, chains, d)
        edge_cov = []
        for i in range(d):
            j = (i + 1) % d
            cov_chain = (per_chain[:, :, i] * per_chain[:, :, j]).mean(axis=0)
            edge_cov.append((cov_chain.mean(), cov_chain.std(ddof=1) / math.sqrt(chains)))
        vals = np.array([v for v, _ in edge_cov])
        ses = np.array([e for _, e in edge_cov])
        # negative lag-1 coupling, statistically equal across all ring edges
        assert np.all(vals < 0)
        assert vals.max() - vals.min() <= 3 * (ses.max() + ses.min()) + 2 * ses.mean()

    def test_tuning_failure_is_flagged(self):
        with mock.patch.multiple(gibbs, NUM_CHAINS=16, BURN_IN=0, THINNING=1,
                                 STEP_INIT=80.0), pytest.warns(UserWarning):
            s = sample_periodic_gibbs(quartic_spec(0.0), 1, 160, seed=3)
        assert not s.tuning_ok

    def test_exp_moment_probe_stable_in_n(self):
        spec = quartic_spec(0.1)
        maxima = []
        for n in (2, 3):
            s = sample_periodic_gibbs(spec, n, 2000, seed=31 + n)
            # per-coordinate means of exp(lam |x_k|^power), lam 0.5, power 3
            means = np.exp(0.5 * np.abs(s.states) ** 3.0).mean(axis=0)
            assert np.all(np.isfinite(means))
            maxima.append(float(means.max()))
        # the exponential moment does not blow up as the ring grows
        assert maxima[1] < 2.0 * maxima[0]


def site_by_site_sample_sites(spec, num_sites, bonds, num_samples, seeds,
                              null_seeds=()):
    """The lockstep sampler as it was before sweeps split into runs of
    unbonded sites, kept verbatim as the reference, at the MCMC constants
    ``gibbs`` holds when called: one site update after another, each drawing
    its lanes' normals and uniforms and tallying its own acceptance."""
    rngs = [np.random.default_rng(np.random.SeedSequence(s))
            for s in [*seeds, *null_seeds]]
    lanes = len(rngs)
    nbrs = gibbs._site_neighbors(num_sites, bonds)
    others = [np.array([j for j, _ in nb if j != i], dtype=np.intp)
              for i, nb in enumerate(nbrs)]
    chains = gibbs.NUM_CHAINS
    width = lanes * chains
    keep_per_chain = -(-num_samples // chains)  # ceil
    steps = np.full((num_sites, lanes), gibbs.STEP_INIT)
    chain_steps = np.repeat(steps, chains, axis=1)  # refreshed at each adaptation
    x = np.empty((num_sites, width))  # site-major; lane k is the k-th column block
    for rng, lane in zip(rngs, np.split(x, lanes, axis=1)):
        lane[:] = rng.standard_normal((chains, num_sites)).T
    x *= 0.5
    pair = np.empty((2, width))  # [proposal; current]
    proposal, current = pair
    rows, step_rows = list(x), list(chain_steps)  # views, updated in place
    noise = np.empty(width)
    unif = np.empty(width)
    acc = np.empty(width, dtype=bool)
    normals = list(zip([rng.standard_normal for rng in rngs], np.split(noise, lanes)))
    uniforms = list(zip([rng.random for rng in rngs], np.split(unif, lanes)))

    # W acts on the columns of spec's own lanes alone; elementwise operations
    # on a column slice give the bits of the same operations on a lane alone
    coupled = len(seeds) * chains if spec.coupled else 0
    head = pair[:, :coupled]
    # acceptance is summed sweep by sweep as the fraction k / chains, which
    # fixes its rounding whatever the chain count
    accept_count = np.zeros((num_sites, lanes))
    accept_total = np.zeros((num_sites, lanes))

    def sweep(adapting: bool):
        tally = accept_count if adapting else accept_total
        for i in range(num_sites):
            for normal, z in normals:
                normal(out=z)
            # step * z + x, the bits of x + step * z
            np.multiply(step_rows[i], noise, out=proposal)
            np.add(proposal, rows[i], out=proposal)
            current[:] = rows[i]
            v = spec.v(pair)
            delta = v[0] - v[1]
            if coupled:
                delta_w = delta[:coupled]
                w_nb = iter(spec.w(head[:, None], x[others[i], :coupled]).swapaxes(0, 1))
                for j, mult in nbrs[i]:
                    if j == i:
                        w_self = spec.w(head, head)
                        delta_w += mult / 2.0 * (w_self[0] - w_self[1])
                    else:
                        w_j = next(w_nb)
                        delta_w += mult * (w_j[0] - w_j[1])
            for uniform, u in uniforms:
                uniform(out=u)
            np.less(unif, np.exp(np.minimum(-delta, 0.0)), out=acc)
            np.copyto(rows[i], proposal, where=acc)
            tally[i] += np.add.reduce(acc.reshape(lanes, chains), axis=1) / chains

    for s in range(gibbs.BURN_IN):
        sweep(adapting=True)
        if (s + 1) % gibbs.ADAPT_INTERVAL == 0:
            rate = accept_count / gibbs.ADAPT_INTERVAL
            steps *= np.exp(0.8 * (rate - gibbs.TARGET_ACCEPT))
            chain_steps[:] = np.repeat(steps, chains, axis=1)
            accept_count[:] = 0.0

    kept = np.empty((lanes, keep_per_chain, chains, num_sites))
    for k in range(keep_per_chain):
        for _ in range(gibbs.THINNING):
            sweep(adapting=False)
        kept[:, k] = x.T.reshape(lanes, chains, num_sites)
    acceptance = accept_total / max(keep_per_chain * gibbs.THINNING, 1)
    return [(kept[k].reshape(keep_per_chain * chains, num_sites)[:num_samples],
             acceptance[:, k].copy(), steps[:, k].copy()) for k in range(lanes)]


def assert_lanes_identical(got, want):
    assert len(got) == len(want)
    for lane, ref in zip(got, want):
        for a, b in zip(lane, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def bond_lists(draw):
    sites = draw(st.integers(1, 8))
    site = st.integers(0, sites - 1)
    return sites, draw(st.lists(st.tuples(site, site), max_size=2 * sites))


class TestRunSplit:
    REFERENCE = {"BURN_IN": 50, "THINNING": 2, "ADAPT_INTERVAL": 25}
    GRAPHS = {"ring": (5, gibbs.ring_bonds(5)), "path": (4, gibbs.path_bonds(4)),
              "one-site ring": (1, gibbs.ring_bonds(1))}
    LANES = {"one lane": ([77], []), "six lanes": ([77, 5, 2 ** 33], [77, 9, 11])}

    @pytest.mark.parametrize("chains", [64, 37])
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("coupling", [0.0, 0.1])
    def test_matches_site_by_site_reference(self, coupling, graph, lanes, chains):
        # burn-in spans two adaptations; the sample size leaves a partial
        # last row of chains; a shared seed pairs a main and a control lane
        sites, bonds = self.GRAPHS[graph]
        seeds, null_seeds = self.LANES[lanes]
        args = (quartic_spec(coupling), sites, bonds, 3 * chains + 7, seeds, null_seeds)
        with mock.patch.multiple(gibbs, **self.REFERENCE, NUM_CHAINS=chains):
            assert_lanes_identical(gibbs._sample_sites(*args),
                                   site_by_site_sample_sites(*args))

    @settings(max_examples=40, deadline=None)
    @given(graph=bond_lists(), coupling=st.sampled_from([0.0, 0.5]),
           null_lanes=st.integers(0, 2))
    def test_any_bond_graph_matches_reference(self, graph, coupling, null_lanes):
        # arbitrary bond lists give coupled runs of several sites, each
        # site's W read against neighbours outside its run
        sites, bonds = graph
        args = (quartic_spec(coupling), sites, bonds, 12, [3, 4],
                list(range(10, 10 + null_lanes)))
        with mock.patch.multiple(gibbs, NUM_CHAINS=5, BURN_IN=6, THINNING=1,
                                 ADAPT_INTERVAL=3):
            assert_lanes_identical(gibbs._sample_sites(*args),
                                   site_by_site_sample_sites(*args))

    @settings(max_examples=200, deadline=None)
    @given(bond_lists())
    def test_runs_are_maximal_unbonded_and_cover_the_sweep(self, graph):
        sites, bonds = graph
        runs = gibbs._site_runs(sites, bonds)
        starts, ends = zip(*runs)
        # consecutive and non-empty, so every site lies in exactly one run
        assert starts[0] == 0 and ends[-1] == sites
        assert list(starts[1:]) == list(ends[:-1])
        assert all(lo < hi for lo, hi in runs)
        pairs = [(a, b) for a, b in bonds if a != b]
        for lo, hi in runs:
            assert not any(lo <= a < hi and lo <= b < hi for a, b in pairs)
        # maximal: a run ends only where the next site bonds into it
        for lo, hi in runs[:-1]:
            assert any(max(a, b) == hi and min(a, b) >= lo for a, b in pairs)
        assert gibbs._site_runs(sites, []) == [(0, sites)]

    @pytest.mark.parametrize("coupling, runs", [(0.0, [(0, 5)]),
                                                (0.1, [(i, i + 1) for i in range(5)])])
    def test_ring_is_one_run_uncoupled_and_one_per_site_coupled(self, monkeypatch,
                                                                coupling, runs):
        seen = []
        split = gibbs._site_runs

        def recorded(num_sites, bonds):
            seen.append(split(num_sites, bonds))
            return seen[-1]
        monkeypatch.setattr(gibbs, "_site_runs", recorded)
        monkeypatch.setattr(gibbs, "NUM_CHAINS", 4)
        monkeypatch.setattr(gibbs, "BURN_IN", 2)
        sample_periodic_gibbs(quartic_spec(coupling), 2, 8, seed=1)
        assert seen == [runs]


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

    @pytest.mark.parametrize("count", [200, 400])  # the LP and entropic branches
    def test_wrong_dimension_named(self, count):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, count, seed=9)
        m = empirical_map_to_gaussian(s.states, count, epsilon=0.2, seed=3)
        assert m.method == ("lp" if count <= gibbs.LP_THRESHOLD else "entropic")
        for bad in (np.zeros((4, 2)), np.zeros((4, 5)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="dimension 3"):
                m.evaluate(bad)
        assert m.evaluate(np.zeros(3)).shape == (1, 3)

    def test_out_of_sample_extension_continuity(self):
        s = sample_periodic_gibbs(quartic_spec(0.0), 1, 400, seed=9)
        m = empirical_map_to_gaussian(s.states, 400, epsilon=0.2, seed=3, tol=1e-6)
        inside = m.evaluate(m.source_points[:5])
        assert np.allclose(inside, m.values[:5], atol=0.05)


def random_entropic_map(rng, m=300, d=3, epsilon=0.07):
    """An entropic EmpiricalMap over a random weighted target cloud with a
    random potential; only the extension's inputs matter."""
    b = rng.random(m) + 0.01
    return EmpiricalMap(np.zeros((1, d)), np.zeros((1, d)), "entropic", epsilon=epsilon,
                        target_points=rng.normal(size=(m, d)),
                        g_potential=rng.normal(scale=0.3, size=m),
                        log_b=np.log(b / b.sum()))


def logsumexp_extension(emp_map, x):
    """The extension as log-weights normalized by scipy's logsumexp, then
    exponentiated: the formula the one-pass softmax replaced."""
    c = np.sum((x[:, None, :] - emp_map.target_points[None, :, :]) ** 2, axis=2)
    logw = (emp_map.g_potential[None, :] - c) / emp_map.epsilon + emp_map.log_b[None, :]
    logw -= logsumexp(logw, axis=1, keepdims=True)
    return np.exp(logw) @ emp_map.target_points


class TestSoftmaxExtension:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_logsumexp_formula(self, seed):
        rng = np.random.default_rng(seed)
        emp_map = random_entropic_map(rng, epsilon=float(rng.uniform(0.02, 0.5)))
        x = rng.normal(scale=1.5, size=(200, 3))
        got = emp_map.evaluate(x)
        assert np.max(np.abs(got - logsumexp_extension(emp_map, x))) <= 1e-13

    def test_far_queries_stay_finite(self):
        # every weight but the largest underflows: the value is that target
        emp_map = random_entropic_map(np.random.default_rng(7), epsilon=0.01)
        direction = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, -1.0], [3.0, 1.0, 1.0]])
        x = 1e3 * direction
        c = np.sum((x[:, None, :] - emp_map.target_points[None, :, :]) ** 2, axis=2)
        nearest = np.argmax((emp_map.g_potential - c) / emp_map.epsilon + emp_map.log_b,
                            axis=1)
        got = emp_map.evaluate(x)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, emp_map.target_points[nearest], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunks_give_the_rows_of_one_block(self, monkeypatch, chunk):
        # BLAS blocks a matrix product by its shape, so a row's last bits may
        # move with the chunk size, and 1 / epsilon magnifies them
        rng = np.random.default_rng(8)
        emp_map = random_entropic_map(rng)
        x = rng.normal(size=(50, 3))
        whole = emp_map.evaluate(x)
        monkeypatch.setattr(gibbs, "EVAL_CHUNK", chunk)
        assert np.max(np.abs(emp_map.evaluate(x) - whole)) <= 1e-13


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


def entropy_mn_crosscheck(spec, sample, m, product_states):
    """Independent bridge estimator of the decoupling entropy, using a sample
    of the decoupled product law: log E_mu[e^Z] = -log E_product[e^-Z]."""
    n = sample.n
    z_mu = gibbs._z_values(spec, sample.states, m, n)
    z_prod = gibbs._z_values(spec, product_states, m, n)

    log_norm = -(logsumexp(-z_prod) - math.log(z_prod.size))
    value = float(log_norm - z_mu.mean())
    _, se1 = gibbs._jackknife_batches(
        z_prod, lambda v: float(-(logsumexp(-v) - math.log(v.size))))
    se2 = float(z_mu.std(ddof=1) / math.sqrt(z_mu.size))
    return EntropyEstimate(value, math.sqrt(se1 ** 2 + se2 ** 2), "monte_carlo",
                           n_samples=z_mu.size + z_prod.size)


def sample_decoupled_product(spec, n, m, num_samples, seed):
    """Sample the decoupled law: the m-ring on the inner block times the
    complementary open chain (bonds along m+1..n, the wrap to -n, up to -m-1)."""
    inner, outer = gibbs._block_slots(n, m)
    states = np.empty((num_samples, 2 * n + 1))
    [(ring, _, _)] = gibbs._sample_sites(spec, len(inner), gibbs.ring_bonds(len(inner)),
                                         num_samples, [seed])
    states[:, inner] = ring
    if outer:
        [(block, _, _)] = gibbs._sample_sites(spec, len(outer),
                                              gibbs.path_bonds(len(outer)),
                                              num_samples, [seed + 1])
        states[:, outer] = block
    return states


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

    # sha256 of repr(rows), recorded with separate samplers for the main and
    # the control run (numpy 2.4, x86-64)
    PINNED_ROWS = {
        0.1: "fbb824efda238bb3f21ccbc7fb54d252b37a083abf5b2b7ff1ea1f691a3f9ca9",
        0.0: "7caa80dfc09f109012b9c4d481a727087f0787097148e89aa1c75c6d9a9e36b0",
    }

    @pytest.mark.parametrize("coupling", PINNED_ROWS)
    def test_rows_pinned(self, monkeypatch, coupling):
        monkeypatch.setattr(gibbs, "NUM_CHAINS", 16)
        monkeypatch.setattr(gibbs, "BURN_IN", 100)
        rep = cauchy_convergence_experiment(
            quartic_spec(coupling), m_list=[0, 1], n=2, samples=600, epsilon=0.1,
            seed=3, ot_points=150, replicates=3)
        digest = hashlib.sha256(repr(rep.rows).encode()).hexdigest()
        assert digest == self.PINNED_ROWS[coupling]

    @pytest.mark.parametrize("coupling", [0.1, 0.0])
    @mock.patch.multiple(gibbs, NUM_CHAINS=8, BURN_IN=0, STEP_INIT=50)
    def test_tuning_warnings_main_then_control(self, coupling):
        spec = quartic_spec(coupling)
        null_seed = 5 if coupling else 5 + 424243
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            sample_periodic_gibbs(spec, 1, 40, 5)
            sample_periodic_gibbs(spec.zero_coupling_clone(), 1, 40, null_seed)
        with warnings.catch_warnings(record=True) as fused:
            warnings.simplefilter("always")
            cauchy_convergence_experiment(spec, m_list=[0], n=1, samples=40,
                                          epsilon=0.1, seed=5, ot_points=20,
                                          replicates=2)
        messages = [str(w.message) for w in fused]
        assert messages == [str(w.message) for w in alone]
        if coupling:
            assert messages == ["MCMC tuning failure: acceptance rates "
                                "[0.025  0.     0.0125]"] * 2
        assert all(w.category is UserWarning and w.filename == __file__ for w in fused)

    def test_one_sampler_call_for_both_runs_per_block(self, monkeypatch):
        calls = []
        sample = gibbs._sample_sites

        def counted(spec, num_sites, bonds, num_samples, seeds, null_seeds=()):
            calls.append((num_sites, len(seeds), len(null_seeds)))
            return sample(spec, num_sites, bonds, num_samples, seeds, null_seeds)
        monkeypatch.setattr(gibbs, "_sample_sites", counted)
        monkeypatch.setattr(gibbs, "NUM_CHAINS", 4)
        monkeypatch.setattr(gibbs, "BURN_IN", 10)
        cauchy_convergence_experiment(
            quartic_spec(0.1), m_list=[1, 0], n=2, samples=60, epsilon=0.1, seed=3,
            ot_points=20, replicates=3)
        # 1 + 2 |m_list| calls: both rings, then ring and path blocks per m
        assert calls == [(5, 1, 1), (1, 3, 3), (3, 3, 3), (4, 3, 3), (2, 3, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_convergence_experiment(quartic_spec(0.0), m_list=[3], n=2,
                                          samples=100, epsilon=0.1, seed=1,
                                          ot_points=10, replicates=1)
        with pytest.raises(ValueError):
            cauchy_convergence_experiment(quartic_spec(0.0), m_list=[1], n=2,
                                          samples=100, epsilon=0.1, seed=1,
                                          ot_points=90, replicates=2)


@pytest.mark.parametrize("run, field, value", [
    ("sampler", "n", 1.5), ("sampler", "n", -1), ("sampler", "num_samples", 2.5),
    ("sampler", "num_samples", 0), ("sampler", "num_samples", -3), ("sampler", "seed", -1),
    ("experiment", "n", 1.5), ("experiment", "samples", 2.5),
    ("experiment", "replicates", 1), ("experiment", "ot_points", 0),
    ("experiment", "seed", -1)])
def test_run_inputs_out_of_range_named(run, field, value):
    # before: a TypeError from range or numpy, numpy's seed error, an empty
    # sample with a false tuning warning, or a NaN standard error
    call, args = {
        "sampler": (sample_periodic_gibbs, dict(n=1, num_samples=8, seed=0)),
        "experiment": (cauchy_convergence_experiment,
                       dict(m_list=[0], n=1, samples=40, epsilon=0.1, seed=5,
                            ot_points=20, replicates=2))}[run]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            call(quartic_spec(0.1), **{**args, field: value})


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_experiment_epsilon_named_on_the_lp_branch(epsilon):
    # at ot_points <= LP_THRESHOLD the exact-LP maps ignore epsilon: before,
    # the run passed and recorded the invalid value in its report
    assert 20 <= gibbs.LP_THRESHOLD
    with pytest.raises(ValueError, match="^epsilon must be finite and positive"):
        cauchy_convergence_experiment(quartic_spec(0.1), m_list=[0], n=1, samples=40,
                                      epsilon=epsilon, seed=5, ot_points=20, replicates=2)
