import hashlib
import itertools
import math
import struct
import warnings

import numpy as np
import pytest

from seqot import ot, processes
from seqot.cli import EXPERIMENTS, run_quasi_product
from seqot import measures
from seqot.measures import Grid1D, gaussian1d, gaussian_grid, mixture_grid
from seqot.processes import (
    HypothesisError,
    MixtureSpec,
    ProductSpec,
    QuasiProductSpec,
    Tilt,
    classify_component,
    definetti_ot,
    diagonal_transport,
    mixture_entropy_bound_check,
    quasi_product_approx,
)
from seqot.ot import quantile_transport_1d


def no_tilt() -> Tilt:
    return Tilt(0, lambda x: np.ones(x.shape[0]))


class TestDiagonalTransport:
    def test_shifted_gaussian_product(self):
        p = ProductSpec([gaussian1d(0, 1), gaussian1d(0, 1)])
        q = ProductSpec([gaussian1d(1, 1), gaussian1d(2, 1)])
        rep = diagonal_transport(p, q)
        assert rep.costs == pytest.approx([1.0, 4.0], abs=2e-4)
        xs = np.linspace(-1.5, 1.5, 7)
        assert np.allclose(rep.maps[0](xs), xs + 1, atol=2e-3)
        assert np.allclose(rep.maps[1](xs), xs + 2, atol=2e-3)

    def test_identical_products(self):
        p = ProductSpec([gaussian1d(0.5, 1.3)] * 3)
        rep = diagonal_transport(p, p)
        assert np.allclose(rep.costs, 0.0, atol=1e-10)

    def test_dilation_exhibits_divergent_tail(self):
        d = 5
        p = ProductSpec([gaussian1d(0, 1)] * d)
        q = ProductSpec([gaussian1d(0, 2)] * d)
        rep = diagonal_transport(p, q)
        assert rep.costs == pytest.approx(np.ones(d), abs=2e-4)
        assert rep.total_cost == pytest.approx(d, abs=d * 2e-4)
        assert rep.tail_cost > 0.9  # nonvanishing per-coordinate cost

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError):
            diagonal_transport(ProductSpec([gaussian1d(0, 1)]),
                               ProductSpec([gaussian1d(0, 1)] * 2))


def gaussian_product(d):
    return ProductSpec([gaussian1d(0, 1)] * d)


class TestQuasiProduct:
    def test_untilted_products_are_diagonal(self):
        mu = QuasiProductSpec(gaussian_product(3), no_tilt())
        nu = QuasiProductSpec(gaussian_product(3), no_tilt())
        rep = quasi_product_approx(mu, nu, n_list=[1, 2, 3])
        for row in rep.diagonal_rows:
            assert row["lhs"] == pytest.approx(0.0, abs=1e-10)
        for row in rep.pair_rows:
            assert row["D"] == pytest.approx(0.0, abs=1e-10)
        assert rep.passed

    def test_single_coordinate_tilt_stabilizes(self):
        # a 1D tilt of the first factor: every pair (m, n) with m >= 1 decouples
        tilt = Tilt(1, lambda x: 1.0 + 0.5 * np.exp(-(x[:, 0] - 0.3) ** 2))
        mu = QuasiProductSpec(gaussian_product(3), tilt)
        nu = QuasiProductSpec(gaussian_product(3), no_tilt())
        rep = quasi_product_approx(mu, nu, n_list=[1, 2, 3], nodes=48)
        for row in rep.pair_rows:
            assert row["D"] == pytest.approx(0.0, abs=1e-12)
            assert row["entropy"] == pytest.approx(0.0, abs=1e-12)
        # the diagonal-vs-optimal control holds with real slack
        for row in rep.diagonal_rows:
            assert row["passed"]
            assert row["entropy"] > 1e-4
        assert rep.passed

    def test_two_coordinate_tilt_pair_bound(self):
        # correlating tilt on (x1, x2) against a log-concave 1-coordinate target tilt
        f = Tilt(2, lambda x: np.exp(0.3 * x[:, 0] * x[:, 1]))
        g = Tilt(1, lambda y: np.exp(-0.2 * (y[:, 0] - 0.5) ** 2),
                 log_curvature_bound=0.0)
        mu = QuasiProductSpec(gaussian_product(3), f)
        nu = QuasiProductSpec(gaussian_product(3), g)
        rep = quasi_product_approx(mu, nu, n_list=[1, 2, 3], nodes=16)
        rows = {(r["m"], r["n"]): r for r in rep.pair_rows if "D" in r}
        assert rows[(2, 3)]["D"] == pytest.approx(0.0, abs=1e-12)
        nontrivial = rows[(1, 2)]
        assert nontrivial["entropy"] > 1e-4
        assert nontrivial["D"] <= nontrivial["bound"] * (1 + 1e-6)
        assert rep.passed

    def test_target_tilt_wider_than_m_is_skipped(self):
        f = Tilt(1, lambda x: 1.0 + 0.2 * np.tanh(x[:, 0]))
        g = Tilt(2, lambda y: np.exp(-0.1 * (y[:, 0] ** 2 + y[:, 1] ** 2)))
        mu = QuasiProductSpec(gaussian_product(3), f)
        nu = QuasiProductSpec(gaussian_product(3), g)
        rep = quasi_product_approx(mu, nu, n_list=[1, 2, 3], nodes=14)
        skipped = [r for r in rep.pair_rows if "skipped" in r]
        assert any(r["m"] == 1 for r in skipped)

    def test_hypothesis_failures_are_numbered(self):
        heavy = mixture_grid([1.0], [0.0], [1.0], lo=-30, hi=30)
        # replace the density by a heavy-tailed one: not uniformly log-concave
        import numpy as _np
        from seqot.measures import Grid1D
        x = _np.linspace(-30, 30, 4001)
        cauchy = Grid1D(x, 1.0 / (1.0 + x ** 2))
        mu = QuasiProductSpec(ProductSpec([cauchy] * 2), no_tilt())
        nu = QuasiProductSpec(ProductSpec([cauchy] * 2), no_tilt())
        with pytest.raises(HypothesisError) as err:
            quasi_product_approx(mu, nu, n_list=[1, 2], nodes=10)
        assert err.value.number == 1
        bad_tilt = Tilt(1, lambda x: np.where(x[:, 0] > 0, 1.0, 0.0))
        mu2 = QuasiProductSpec(gaussian_product(2), bad_tilt)
        with pytest.raises(ValueError):
            quasi_product_approx(mu2, QuasiProductSpec(gaussian_product(2), no_tilt()),
                                 n_list=[1, 2], nodes=10)

    @pytest.mark.parametrize("coords", [-1, 1.5])
    def test_tilt_coords_named(self, coords):
        # Tilt(-1, fn) was accepted and then handed fn every column but the last
        with pytest.raises(ValueError, match=f"tilt coords must be an integer >= 0, got {coords}"):
            Tilt(coords, lambda x: np.ones(x.shape[0]))

    @pytest.mark.parametrize("n_list", [[-1, 0.5], [1, 0], [1, 2.0]])
    def test_n_list_entries_named(self, n_list):
        # before: int() truncated 0.5, and rows for n = -1 and n = 0 were reported
        spec = QuasiProductSpec(gaussian_product(2), no_tilt())
        with pytest.raises(ValueError, match="n_list entry must be an integer >= 1"):
            quasi_product_approx(spec, spec, n_list=n_list, nodes=10)


class TestDeFinetti:
    def test_single_atom_mixture_reduces_to_1d(self):
        pi_mu = MixtureSpec([1.0], [gaussian1d(0, 1)])
        pi_nu = MixtureSpec([1.0], [gaussian1d(1, 1)])
        res = definetti_ot(pi_mu, pi_nu)
        assert res.assignment is not None and list(res.assignment) == [0]
        assert res.value == pytest.approx(1.0, abs=2e-4)
        assert res.value == res.ground_cost[0, 0]

    def test_two_component_monotone_matching(self):
        pi_mu = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(4, 1)])
        pi_nu = MixtureSpec([0.5, 0.5], [gaussian1d(1, 1), gaussian1d(5, 1)])
        res = definetti_ot(pi_mu, pi_nu)
        # brute-force oracle over both matchings of the ground-cost matrix
        best = None
        for perm in itertools.permutations(range(2)):
            val = 0.5 * sum(res.ground_cost[k, perm[k]] for k in range(2))
            best = val if best is None else min(best, val)
        assert res.value == pytest.approx(best, abs=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-3)
        cross = 0.5 * (res.ground_cost[0, 1] + res.ground_cost[1, 0])
        assert cross == pytest.approx(17.0, abs=2e-2)
        assert list(res.assignment) == [0, 1]
        assert res.concentration == 1.0
        assert res.component_maps[0].w2sq == pytest.approx(1.0, abs=1e-3)

    def test_unequal_weights_split_no_assignment(self):
        pi_mu = MixtureSpec([1 / 3, 2 / 3], [gaussian1d(0, 1), gaussian1d(4, 1)])
        pi_nu = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(4, 1)])
        res = definetti_ot(pi_mu, pi_nu)
        assert res.assignment is None
        assert res.concentration < 1.0

    def test_relabeling_invariance(self):
        comps_mu = [gaussian1d(0, 1), gaussian1d(3, 1.2)]
        comps_nu = [gaussian1d(1, 1), gaussian1d(5, 0.9)]
        v1 = definetti_ot(MixtureSpec([0.4, 0.6], comps_mu),
                          MixtureSpec([0.3, 0.7], comps_nu)).value
        v2 = definetti_ot(MixtureSpec([0.6, 0.4], comps_mu[::-1]),
                          MixtureSpec([0.7, 0.3], comps_nu[::-1])).value
        assert v1 == pytest.approx(v2, abs=1e-12)

    @pytest.mark.parametrize("resolution", [500, 10_000])
    def test_ground_cost_and_maps_are_quantile_transport_on_component_grids(
            self, resolution):
        pi_mu = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(4, 1.3)])
        pi_nu = MixtureSpec([0.5, 0.5], [gaussian1d(1, 0.8), gaussian1d(5, 1)])
        res = definetti_ot(pi_mu, pi_nu, resolution=resolution)
        grids = [[gaussian_grid(float(c.mean[0]), c.sigma, resolution=resolution)
                  for c in pi.components] for pi in (pi_mu, pi_nu)]
        for k, a in enumerate(grids[0]):
            for l, b in enumerate(grids[1]):
                want = quantile_transport_1d(a, b, resolution=resolution)
                assert res.ground_cost[k, l] == want.w2sq
                if res.assignment[k] == l:
                    got = res.component_maps[k]
                    for field in ("x", "y", "mass"):
                        assert np.array_equal(getattr(got, field), getattr(want, field))
                    assert got.w2sq == want.w2sq
        assert list(res.assignment) == [0, 1]

    def test_default_resolution_reuses_stored_grids(self, monkeypatch):
        # each Gaussian is tabulated once, by MixtureSpec; definetti_ot at the
        # default resolution reads those tables, at another it tabulates again
        calls = []
        tabulate = measures.gaussian_grid
        monkeypatch.setattr(measures, "gaussian_grid",
                            lambda *a, **k: calls.append(1) or tabulate(*a, **k))
        pi_mu = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(4, 1.3)])
        pi_nu = MixtureSpec([0.5, 0.5], [gaussian1d(1, 0.8), gaussian1d(5, 1)])
        assert len(calls) == 4
        res = definetti_ot(pi_mu, pi_nu)
        assert len(calls) == 4
        definetti_ot(pi_mu, pi_nu, resolution=500)
        assert len(calls) == 8
        want = np.array([[quantile_transport_1d(a, b).w2sq for b in pi_nu.components]
                         for a in pi_mu.components])
        assert np.array_equal(res.ground_cost, want)

    def test_indistinguishable_components_warn(self):
        with pytest.warns(UserWarning):
            MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(0, 1)])


class TestClassify:
    def test_gaussian_path(self):
        rng = np.random.default_rng(42)
        path = rng.standard_normal(1000)
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        res = classify_component(path, mix, [lambda x: x])
        assert res.component == 0
        assert res.margin == pytest.approx(3.0, abs=0.3)
        assert not res.ambiguous

    def test_constant_path_narrow_components(self):
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 0.05), gaussian1d(1, 0.05)])
        res = classify_component(np.zeros(10), mix, [lambda x: x])
        assert res.component == 0
        assert res.margin == pytest.approx(1.0, abs=1e-3)

    def test_single_component(self):
        mix = MixtureSpec([1.0], [gaussian1d(0, 1)])
        res = classify_component(np.ones(5), mix, [lambda x: x])
        assert res.component == 0
        assert res.margin == math.inf

    def test_success_rate_well_separated(self):
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        wins = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            truth = trial % 2
            path = rng.standard_normal(1000) + (3.0 if truth else 0.0)
            if classify_component(path, mix, [lambda x: x]).component == truth:
                wins += 1
        assert wins >= 99

    def test_empty_path_rejected(self):
        mix = MixtureSpec([1.0], [gaussian1d(0, 1)])
        with pytest.raises(ValueError):
            classify_component([], mix, [lambda x: x])

    def test_components_tabulated_once(self, monkeypatch):
        # the build and every classify call each re-tabulated both Gaussians
        calls = []
        tabulate = measures.gaussian_grid
        monkeypatch.setattr(measures, "gaussian_grid",
                            lambda *a, **k: calls.append(1) or tabulate(*a, **k))
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        path = np.random.default_rng(3).standard_normal(200)
        results = [classify_component(path, mix, [lambda x: x, np.square])
                   for _ in range(3)]
        assert len(calls) == 2
        want = [[g.integrate(g.nodes), g.integrate(g.nodes ** 2)]
                for g in (gaussian_grid(0, 1), gaussian_grid(3, 1))]
        emp = [np.mean(path), np.mean(path ** 2)]
        dists = np.sqrt(np.sum((np.array(want) - np.array(emp)) ** 2, axis=1))
        for res in results:
            assert np.array_equal(res.distances, dists)

    def test_tie_reported_as_ambiguous(self):
        with pytest.warns(UserWarning):
            mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(0, 1)])
        res = classify_component(np.zeros(10), mix, [lambda x: x])
        assert res.ambiguous
        assert res.margin < 1e-12


class TestMixtureEntropy:
    def test_single_component_zero(self):
        mix = MixtureSpec([1.0], [gaussian1d(0, 1)])
        rep = mixture_entropy_bound_check(mix, m=1, n=3, samples=500, seed=0)
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)
        assert rep.bound == pytest.approx(0.0, abs=1e-15)
        assert rep.passed

    def test_half_half_bound_is_log2(self):
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        rep = mixture_entropy_bound_check(mix, m=1, n=2, samples=200, seed=1)
        assert rep.bound == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_gaussian_instance(self):
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        rep = mixture_entropy_bound_check(mix, m=2, n=4, samples=100_000, seed=7)
        assert rep.passed
        assert rep.estimate <= rep.bound + 3 * rep.standard_error
        # well-separated components: the estimate approaches log 2 from below
        assert 0.5 < rep.estimate <= rep.bound + 1e-12
        assert rep.n_skipped == 0

    def test_validation(self):
        mix = MixtureSpec([1.0], [gaussian1d(0, 1)])
        with pytest.raises(ValueError):
            mixture_entropy_bound_check(mix, m=3, n=2, samples=10, seed=0)

    @pytest.mark.parametrize("samples", [0, 1, 2.5])
    def test_too_few_samples_named(self, samples):
        # one sample gave standard_error=nan and passed=False, none a
        # misleading "all samples hit zero density"
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        with pytest.raises(ValueError, match="samples must be an integer >= 2"):
            mixture_entropy_bound_check(mix, m=1, n=2, samples=samples, seed=0)

    @pytest.mark.parametrize("m, n, name", [(1.5, 4, "m"), (2, 4.0, "n")])
    def test_non_integer_block_named(self, m, n, name):
        # m=1.5 failed inside numpy slicing, n=4.0 inside np.empty
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mixture_entropy_bound_check(mix, m=m, n=n, samples=100, seed=0)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_bad_seed_named(self, seed):
        # before: numpy's "expected non-negative integer" and a TypeError
        mix = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
            mixture_entropy_bound_check(mix, m=1, n=2, samples=100, seed=seed)

    @staticmethod
    def _comb_mixture():
        """Three grids with bounded supports.  The third has nodes 4 ulps
        apart and zero density on every other node, so its draws land on
        zero-density nodes; where the other two vanish too, the sample is
        skipped."""
        nodes = 1.0 + 4 * np.finfo(float).eps * np.arange(9)
        comb = Grid1D(nodes, np.arange(9) % 2)
        x, y = np.linspace(-2, -1, 11), np.linspace(2, 4, 21)
        return MixtureSpec([0.2, 0.3, 0.5], [Grid1D(x, np.ones_like(x)),
                                             Grid1D(y, 1 - np.abs(y - 3)), comb])

    # sha256 of (estimate, standard_error, n_samples, n_skipped) packed as
    # "<ddqq", recorded with scipy.special.logsumexp over sample-major tables
    PINNED = {
        "default": "ecbbe90ee386133ba46d547b9eb94ce83a8756db0c7c5d1c2ece1bb52b1c3779",
        "grid-skips": "c58854420960e6867994869a32c65aac480f77e8069f72fb9660aca758754100",
        "m9-n18": "6368c10361bbceb4c5491194a3019a78aadb0f7c45c80b16d82779081132ac8b",
    }

    def test_pinned_bits(self):
        two = MixtureSpec([0.5, 0.5], [gaussian1d(0, 1), gaussian1d(3, 1)])
        cases = {"default": (two, 2, 4, 100_000, 0),
                 "grid-skips": (self._comb_mixture(), 2, 4, 20_000, 1),
                 "m9-n18": (two, 9, 18, 20_000, 2)}
        skipped = {}
        for name, (mix, m, n, samples, seed) in cases.items():
            # a skipped sample is counted, not warned about
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rep = mixture_entropy_bound_check(mix, m, n, samples, seed)
            packed = struct.pack("<ddqq", rep.estimate, rep.standard_error,
                                 rep.n_samples, rep.n_skipped)
            assert hashlib.sha256(packed).hexdigest() == self.PINNED[name], name
            skipped[name] = rep.n_skipped
        assert skipped == {"default": 0, "grid-skips": 4121, "m9-n18": 0}


def test_quasi_product_solves_each_split_once(monkeypatch):
    # default run: the block LP plus both sub-block LPs of split 1, which the
    # pairs (1, 2) and (1, 3) share; the pair (2, 3) needs no split
    calls = []
    solve = processes.solve_discrete_ot
    monkeypatch.setattr(processes, "solve_discrete_ot",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    rep, _, _ = run_quasi_product(EXPERIMENTS["quasi_product"].defaults, None)
    assert len(calls) == 3
    first, second = rep.pair_rows[:2]
    assert (first["D"], first["entropy"]) == (second["D"], second["entropy"])


def tilted_specs(width, a, b):
    """Source tilt exp(a * sum_k x_k x_k+1) on the first ``width`` of
    width + 1 standard Gaussian coordinates, target tilt exp(-b (y_1 - 0.5)^2)."""
    base = ProductSpec([gaussian1d(0, 1)] * (width + 1))
    f = Tilt(width, lambda x: np.exp(a * np.sum(x[:, :-1] * x[:, 1:], axis=1)))
    g = Tilt(1, lambda y: np.exp(-b * (y[:, 0] - 0.5) ** 2), log_curvature_bound=0.0)
    return QuasiProductSpec(base, f), QuasiProductSpec(base, g)


class TestQuasiProductBits:
    # sha256 of repr(quasi_product_approx(...)) per (width, nodes, a, b), with
    # the row barycenters as one matrix product (the first digest, swapped in
    # below) and as d matrix-vector products (the second, ot._barycenters).
    # The default run (nodes 16) is in the report digests; these cover
    # N = 100, 196, 900 and a width-3 tilt, where tilt / N and (1 / N) * tilt
    # differ in the last bit
    PINNED = {
        (2, 10, 0.3, 0.2): (
            "168c2ae70aed4d628a72621210ff349b34ed2a320061ee276180cd38cda47eb8",
            "78fae56fc117b1e9df2f7a8180795852fd684ae9aa15a0fd6fff43651104a182"),
        (2, 10, 0.6, 0.1): (
            "62c72e06b6e8d3eaad0051136446c380f6bcb47e1006f778cb89fee8fa292475",
            "9e2e44d9d9bef3d39fb9c7106c9b0773f67f8752ae44c7f39af46e382f33a9c9"),
        (2, 14, 0.3, 0.2): (
            "98d963447e3d6173a2d55a0e09ac19814b8d1a10c9ba635c2bccd1ebe62a2efa",
            "03fdc28b4d511dce4f1bf23f1dd2a60927f8b643d3a1916668048bb5c7ba1aed"),
        (2, 14, 0.6, 0.1): (
            "658bd72c800b146dda9659233f0a2ea693173a2781a1b9b2d86099886d5ee549",
            "9b396617951741ce53a14d1332d7d22f7cc077fcf04fc2835c531edee13cfc10"),
        (2, 30, 0.6, 0.1): (
            "6e3dc88491ca274e28c6f9391baf6c17755e89cfe5b5fd7881fcd27ee916d723",) * 2,
        (3, 8, 0.3, 0.2): (
            "89972c94009deb95131eaadd28cfbf4f59eaccc66895f1bfda99e16b9470e1f6",) * 2,
    }

    @staticmethod
    def digest(width, nodes, a, b):
        rep = quasi_product_approx(*tilted_specs(width, a, b),
                                   n_list=range(1, width + 2), nodes=nodes)
        return hashlib.sha256(repr(rep).encode()).hexdigest()

    @pytest.mark.parametrize("case", PINNED)
    def test_report_bits_pinned(self, case, monkeypatch):
        before, now = self.PINNED[case]
        assert self.digest(*case) == now
        if before != now:
            monkeypatch.setattr(ot, "_barycenters",
                                lambda w, y: (w @ y) / w.sum(axis=1)[:, None])
            assert self.digest(*case) == before
