import math

import numpy as np
import pytest

from seqot.bounds import (
    EntropyEstimate,
    assumption_A_probe,
    lemma21_check,
    log_concavity_constant,
    relative_entropy,
    talagrand_gap,
)
from seqot.measures import (
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    gaussian1d,
    gaussian_grid,
    mixture_grid,
)


def shared_gaussian_grid(mean, sigma, lo=-12.0, hi=12.0, resolution=10_000):
    x = np.linspace(lo, hi, resolution)
    dens = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return Grid1D(x, dens)


class TestRelativeEntropy:
    def test_gaussian_shift_closed_form(self):
        est = relative_entropy(gaussian1d(1, 1), gaussian1d(0, 1))
        assert est.value == pytest.approx(0.5, abs=1e-12)
        assert est.method == "closed_form"

    def test_identical_measures_zero(self):
        assert relative_entropy(gaussian1d(0.3, 1.7), gaussian1d(0.3, 1.7)).value == \
            pytest.approx(0.0, abs=1e-12)
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        assert relative_entropy(m, m).value == 0.0

    def test_discrete_two_term_sum(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)  # = 0.14384...
        assert relative_entropy(mu, nu).value == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(0.14384, abs=1e-5)

    def test_support_violation(self):
        mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0]])
        with pytest.raises(ValueError):
            relative_entropy(mu, nu)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w1 = rng.random(4) + 0.05
            w2 = rng.random(4) + 0.05
            pts = np.arange(4.0)[:, None]
            mu = DiscreteMeasure(pts, w1)
            nu = DiscreteMeasure(pts, w2)
            est = relative_entropy(mu, nu).value
            assert est >= -1e-15
            if np.allclose(mu.weights, nu.weights):
                assert est == pytest.approx(0.0, abs=1e-12)
            else:
                assert est > 0.0

    def test_gaussian_beyond_a_narrower_grid_is_a_support_violation(self):
        # the Gaussian was evaluated on the grid's nodes only, so its mass
        # outside [-5, 5] dropped out and the estimate came out negative
        nu = mixture_grid([1.0], [0.0], [1.0], lo=-5.0, hi=5.0)
        with pytest.raises(ValueError, match="support violation"):
            relative_entropy(gaussian1d(0, 1), nu)

    def test_closed_form_matches_quadrature(self):
        # resolution 1e4 on [-10, 10]: agreement within 1e-5
        mu_g = shared_gaussian_grid(0.5, 1.2, -10, 10)
        nu_g = shared_gaussian_grid(0.0, 1.0, -10, 10)
        closed = relative_entropy(gaussian1d(0.5, 1.2), gaussian1d(0, 1)).value
        quad = relative_entropy(mu_g, nu_g).value
        assert quad == pytest.approx(closed, abs=1e-5)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            EntropyEstimate(0.0, -1.0, "quadrature")
        with pytest.raises(ValueError):
            EntropyEstimate(0.0, 0.0, "monte_carlo", n_samples=0)


class TestLogConcavity:
    def test_gaussian_constant(self):
        assert log_concavity_constant(gaussian1d(0, 1)) == pytest.approx(1.0)
        assert log_concavity_constant(gaussian1d(3, 2)) == pytest.approx(0.25)

    def test_grid_gaussian_constant(self):
        g = gaussian_grid(0, 1, resolution=4001)
        assert log_concavity_constant(g) == pytest.approx(1.0, abs=1e-4)

    def test_unrecognized_family_rejected(self):
        with pytest.raises(ValueError):
            log_concavity_constant(DiscreteMeasure([[0.0]]))


class TestTalagrandGap:
    def test_shifted_gaussian_equality_case(self):
        for a in (0.5, 1.0, 2.0):
            rep = talagrand_gap(gaussian1d(a, 1), gaussian1d(0, 1), gaussian1d(0, 1), K=1.0)
            assert rep.lhs == pytest.approx(a * a / 2, abs=1e-12)
            assert rep.rhs == pytest.approx(a * a / 2, abs=1e-12)
            assert abs(rep.slack) < 1e-6
            assert rep.passed

    def test_equal_measures_both_sides_zero(self):
        rep = talagrand_gap(gaussian1d(0, 1), gaussian1d(0, 1), gaussian1d(0, 1), K=1.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_scale_case_closed_forms(self):
        rep = talagrand_gap(gaussian1d(0, 1.5), gaussian1d(0, 1), gaussian1d(0, 1), K=1.0)
        want_lhs = (1.5 ** 2 - 1 - math.log(1.5 ** 2)) / 2
        assert rep.lhs == pytest.approx(want_lhs, abs=1e-12)
        assert rep.rhs == pytest.approx((1.5 - 1.0) ** 2 / 2, abs=1e-12)
        assert rep.passed

    def test_quadrature_path_on_mixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            means = rng.uniform(-1.5, 1.5, size=2)
            sigs = rng.uniform(0.8, 1.3, size=2)
            w = rng.uniform(0.3, 0.7)
            mu = mixture_grid([w, 1 - w], means, sigs, lo=-14, hi=14)
            nu = mixture_grid([0.5, 0.5], rng.uniform(-1, 1, 2),
                              rng.uniform(0.9, 1.2, 2), lo=-14, hi=14)
            rep = talagrand_gap(mu, nu, gaussian1d(0, 1), K=1.0)
            assert rep.method == "quadrature"
            assert rep.slack >= -1e-8

    def test_overclaimed_K_rejected(self):
        with pytest.raises(ValueError):
            talagrand_gap(gaussian1d(1, 1), gaussian1d(0, 1), gaussian1d(0, 2), K=1.0)

    def test_uncertified_target_rejected(self):
        with pytest.raises(ValueError):
            talagrand_gap(gaussian1d(1, 1), gaussian1d(0, 1),
                          DiscreteMeasure([[0.0]]), K=1.0)


class TestLemma21:
    def test_standard_gaussian_instance(self):
        g = gaussian_grid(0, 1)
        rep = lemma21_check(g, g, t=0.1, epsilon=1.0, p=2.0, q=2.0)
        assert rep.passed
        # closed forms: lhs1 = t^2 + t^4/4, lhs2 = t^2/2
        assert rep.lhs_increment == pytest.approx(0.1 ** 2 + 0.1 ** 4 / 4, rel=1e-3)
        assert rep.lhs_linearization == pytest.approx(0.005, rel=1e-3)
        assert rep.rhs_increment == pytest.approx(
            0.1 ** 2 * math.sqrt(3.0) * math.exp(0.1 ** 2 / 2), rel=1e-3)

    def test_zero_shift_trivial(self):
        g = gaussian_grid(0, 1)
        rep = lemma21_check(g, g, t=0.0, epsilon=1.0, p=2.0, q=2.0)
        assert rep.lhs_increment == pytest.approx(0.0, abs=1e-15)
        assert rep.rhs_increment == pytest.approx(0.0, abs=1e-15)
        assert rep.passed

    def test_scale_pair(self):
        mu = shared_gaussian_grid(0, 1, -20, 20, 20_000)
        nu = shared_gaussian_grid(0, 2, -20, 20, 20_000)
        rep = lemma21_check(mu, nu, t=0.05, epsilon=1.0, p=2.0, q=2.0)
        assert rep.passed

    def test_randomized_mixture_family(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            means = rng.uniform(-1, 1, size=2)
            sigs = rng.uniform(0.8, 1.4, size=2)
            w = rng.uniform(0.2, 0.8)
            mu = mixture_grid([w, 1 - w], means, sigs, lo=-16, hi=16)
            nu = shared_gaussian_grid(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.3),
                                      -16, 16)
            t = rng.uniform(0.01, 0.2)
            rep = lemma21_check(mu, nu, t=t, epsilon=1.0, p=2.0, q=2.0)
            assert rep.lhs_increment <= rep.rhs_increment * (1 + 1e-6)
            assert rep.lhs_linearization <= rep.rhs_linearization * (1 + 1e-6)

    def test_nonconjugate_rejected(self):
        g = gaussian_grid(0, 1)
        with pytest.raises(ValueError):
            lemma21_check(g, g, t=0.1, epsilon=1.0, p=2.0, q=3.0)

    def test_vanishing_density_rejected(self):
        x = np.linspace(0, 1, 101)
        dens = np.where(x < 0.5, 1.0, 0.0) + 1e-320
        dens[-1] = 0.0
        g = Grid1D(x, np.where(x < 0.5, 2.0, 0.0))
        with pytest.raises(ValueError):
            lemma21_check(g, g, t=0.05, epsilon=1.0, p=2.0, q=2.0)


class TestAssumptionA:
    def test_gaussian_decay(self):
        g = gaussian_grid(0, 1)
        rep = assumption_A_probe(g, g, p=2.0, q=2.0, epsilon=1.0,
                                 t_grid=[0.01, 0.1, 1.0])
        assert rep.moment_finite
        assert rep.decays_to_zero
        # for the standard Gaussian, int |e^{beta_s}-1|^2 dmu = e^{s^2} - 1
        want = math.exp(1.0) - 1.0
        assert rep.p_values[-1] == pytest.approx(want, rel=1e-2)

    def test_zero_grid(self):
        g = gaussian_grid(0, 1)
        rep = assumption_A_probe(g, g, p=2.0, q=2.0, epsilon=1.0, t_grid=[0.0])
        assert rep.p_values[0] == 0.0

    def test_heavy_tail_reported_not_asserted(self):
        x = np.linspace(-60, 60, 30_001)
        g = Grid1D(x, 1.0 / (1.0 + x ** 2))
        nu = Grid1D(x, 1.0 / (1.0 + x ** 2))
        rep = assumption_A_probe(g, nu, p=2.0, q=2.0, epsilon=1.0,
                                 t_grid=[0.05, 0.5])
        assert rep.p_values.shape == (2,)
        assert isinstance(rep.decays_to_zero, bool)


class TestNamedErrors:
    def test_gaussian_laws_are_tabulated(self):
        # before: AttributeError, 'GaussianSpec' object has no attribute 'nodes'
        g = gaussian_grid(0, 1)
        assert (lemma21_check(gaussian1d(0, 1), g, 0.1, 1.0, 2.0, 2.0)
                == lemma21_check(g, g, 0.1, 1.0, 2.0, 2.0))
        got = assumption_A_probe(g, gaussian1d(0, 1), 2.0, 2.0, 1.0, [0.1, 1.0])
        want = assumption_A_probe(g, g, 2.0, 2.0, 1.0, [0.1, 1.0])
        assert got.p_values.tobytes() == want.p_values.tobytes()
        assert got.moment == want.moment

    @pytest.mark.parametrize("probe", [False, True])
    def test_discrete_law_named(self, probe):
        g, point = gaussian_grid(0, 1), DiscreteMeasure([[0.0]])
        with pytest.raises(TypeError, match="cannot use DiscreteMeasure as a 1D law"):
            if probe:
                assumption_A_probe(g, point, 2.0, 2.0, 1.0, [0.1])
            else:
                lemma21_check(point, g, 0.1, 1.0, 2.0, 2.0)

    @pytest.mark.parametrize("t, epsilon, p, message", [
        (math.nan, 1.0, 2.0, "t must be finite and nonnegative"),
        (math.inf, 1.0, 2.0, "t must be finite and nonnegative"),
        (-0.1, 1.0, 2.0, "t must be finite and nonnegative"),
        (0.1, -2.0, 2.0, "epsilon must be finite and > -1"),
        (0.1, -1.0, 2.0, "epsilon must be finite and > -1"),
        (0.1, math.nan, 2.0, "epsilon must be finite and > -1"),
        (0.1, 1.0, math.nan, "not conjugate exponents"),
    ])
    def test_lemma21_arguments_named(self, t, epsilon, p, message):
        # before: NaN t and p and epsilon <= -1 returned a report
        g = gaussian_grid(0, 1)
        with pytest.raises(ValueError, match=message):
            lemma21_check(g, g, t, epsilon, p, 2.0)

    @pytest.mark.parametrize("epsilon, t_grid, message", [
        (-2.0, [0.1], "epsilon must be finite and > -1"),
        (1.0, [0.1, math.nan], "shifts must be finite and nonnegative"),
        (1.0, [-0.1], "shifts must be finite and nonnegative"),
    ])
    def test_probe_arguments_named(self, epsilon, t_grid, message):
        g = gaussian_grid(0, 1)
        with pytest.raises(ValueError, match=message):
            assumption_A_probe(g, g, 2.0, 2.0, epsilon, t_grid)

    @pytest.mark.parametrize("K", [math.nan, -1.0, math.inf])
    def test_talagrand_K_named(self, K):
        # before: NaN and negative K passed the certificate comparison
        with pytest.raises(ValueError, match="K must be finite and >= 0"):
            talagrand_gap(gaussian1d(1, 1), gaussian1d(0, 1), gaussian1d(0, 1), K=K)
