"""Independent verification routes for the load-bearing constructions.

Each test re-derives a quantity through a second, structurally different
computation: a full LP with explicit invariance equalities against the orbit
reduction, an exact rank-one factorization for the lattice reweighting
identity, and grid quadrature against the Monte Carlo entropy estimator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from seqot import gibbs
from seqot.cli import _random_invariant_pair
from seqot.gibbs import (
    _z_values,
    entropy_mn_estimate,
    quartic_spec,
    sample_periodic_gibbs,
)
from seqot.invariance import (
    _index_maps,
    _orbits,
    close_support,
    cyclic_group,
    first_coordinate_cost,
    haar_project,
    invariant_duality_value,
    solve_invariant_ot,
    symmetric_group,
    symmetrize_coupling,
)
from seqot.ot import cost_matrix, solve_discrete_ot


def brute_force_invariant_value(mu, nu, group, cost=first_coordinate_cost):
    """Full LP over all pair weights with one invariance equality per pair and
    group element: no orbit aggregation anywhere."""
    mu = close_support(mu, group)
    nu = close_support(nu, group)
    smap = _index_maps(mu.points, group)
    tmap = _index_maps(nu.points, group)
    n, m = len(mu), len(nu)
    c = cost_matrix(mu, nu, cost).ravel()
    rows, cols, data = [], [], []
    r = 0
    for i in range(n):
        for j in range(m):
            rows.append(r)
            cols.append(i * m + j)
            data.append(1.0)
        r += 1
    for j in range(m):
        for i in range(n):
            rows.append(r)
            cols.append(i * m + j)
            data.append(1.0)
        r += 1
    for gi in range(len(group)):
        for i in range(n):
            for j in range(m):
                p = i * m + j
                q = smap[gi, i] * m + tmap[gi, j]
                if q <= p:
                    continue
                rows += [r, r]
                cols += [p, q]
                data += [1.0, -1.0]
                r += 1
    a_eq = sparse.coo_matrix((data, (rows, cols)), shape=(r, n * m)).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights, np.zeros(r - n - m)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_orbit_lp_matches_explicit_invariance_constraints():
    rng = np.random.default_rng(12)
    for group in (symmetric_group(2), cyclic_group(3)):
        mu, nu = _random_invariant_pair(group, rng, 2)
        fast = solve_invariant_ot(mu, nu, group).value
        slow = brute_force_invariant_value(mu, nu, group)
        assert fast == pytest.approx(slow, abs=1e-9)


GROUPS = {f"S{d}": symmetric_group(d) for d in (2, 3, 4)}
GROUPS.update({f"C{d}": cyclic_group(d) for d in (2, 3, 4, 5, 6)})

invariant_problems = st.builds(
    lambda name, seed, k: (GROUPS[name], np.random.default_rng(seed), k),
    st.sampled_from(sorted(GROUPS)), st.integers(0, 2 ** 32 - 1), st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(invariant_problems)
def test_orbit_structure_matches_enumerated_orbits(problem):
    group, rng, k = problem
    mu, nu = _random_invariant_pair(group, rng, k)
    orb = _orbits(mu, nu, group)
    label = orb.pair_label
    for s, t in zip(_index_maps(orb.mu.points, group), _index_maps(orb.nu.points, group)):
        assert np.array_equal(label[np.ix_(s, t)], label)
    # orbits enumerated from coordinates alone, one set of point pairs each
    x, y = orb.mu.points, orb.nu.points
    orbit_sets = {
        frozenset((tuple(x[i][p]), tuple(y[j][p])) for p in group.elements)
        for i in range(len(x)) for j in range(len(y))
    }
    assert orb.pair_reps.size == len(orbit_sets) == label.max() + 1
    value = solve_invariant_ot(mu, nu, group).value
    slow = brute_force_invariant_value(mu, nu, group)
    assert value == pytest.approx(slow, abs=1e-9)
    # the dual of the same quotient LP: its value, exact feasibility of its
    # potentials up to the one rounding of phi + psi, and weak duality
    dual = invariant_duality_value(mu, nu, group)
    assert dual.value == pytest.approx(slow, abs=1e-9)
    phi, psi, cbar = dual.phi_bar[:, None], dual.psi_bar[None, :], dual.projected_cost
    assert np.all(phi + psi - cbar <= np.spacing(np.abs(phi) + np.abs(psi) + np.abs(cbar)))
    assert value - dual.value >= -1e-12 * (1 + abs(value))


def loop_haar_project(values, points, group):
    """The Haar average as a sum over group elements, one element at a time."""
    maps = _index_maps(points, group)
    out = np.zeros_like(values)
    for gi in range(len(group)):
        out += values[maps[gi]]
    return out / len(group)


def loop_average_pairs(table, src_maps, tgt_maps):
    """The diagonal-action average of a pair table, one element at a time."""
    out = np.zeros_like(table)
    for s, t in zip(src_maps, tgt_maps):
        out += table[np.ix_(s, t)]
    return out / src_maps.shape[0]


def assert_orbit_constant(table, src_maps, tgt_maps=None):
    """Bitwise equal on every orbit: unchanged by every group element."""
    for gi, s in enumerate(src_maps):
        moved = table[s] if tgt_maps is None else table[np.ix_(s, tgt_maps[gi])]
        assert np.array_equal(moved, table)


def within_summation_error(got, want, scale, group):
    # the orbit mean and the element loop each sum at most |G| terms of
    # magnitude <= scale, so each is within |G| eps scale of the exact average
    return np.all(np.abs(got - want) <= 2 * len(group) * np.finfo(float).eps * scale)


@settings(max_examples=40, deadline=None)
@given(invariant_problems)
def test_haar_averages_are_orbit_means(problem):
    group, rng, k = problem
    mu, nu = _random_invariant_pair(group, rng, k)
    pts = mu.points
    maps = _index_maps(pts, group)
    table = rng.normal(size=(len(pts), 2))
    for values in (table[:, 0].copy(), table):  # a function and an (n, 2) value table
        fbar = haar_project(values, pts, group)
        assert fbar.shape == values.shape
        assert_orbit_constant(fbar, maps)
        assert within_summation_error(fbar, loop_haar_project(values, pts, group),
                                      loop_haar_project(np.abs(values), pts, group), group)
    # an asymmetric feasible plan: the full optimum of the pair
    plan = solve_discrete_ot(mu, nu).plan
    tmaps = _index_maps(nu.points, group)
    sym = symmetrize_coupling(plan, group).weights
    assert_orbit_constant(sym, maps, tmaps)
    want = loop_average_pairs(plan.weights, maps, tmaps)  # weights >= 0: its own scale
    assert within_summation_error(sym, want, want, group)


def test_reweighting_decouples_ring_blocks_exactly():
    # the reweighted three-site ring density must factorize into the inner
    # single-site block times the outer two-site block: an exact rank-one
    # structure of the matricized density, independent of any sampling
    spec = quartic_spec(0.3)
    g = np.linspace(-1.6, 1.6, 21)
    x_m1, x_0, x_p1 = np.meshgrid(g, g, g, indexing="ij")  # slots -1, 0, +1
    ring_h = (spec.v(x_m1) + spec.v(x_0) + spec.v(x_p1)
              + spec.w(x_m1, x_0) + spec.w(x_0, x_p1) + spec.w(x_p1, x_m1))
    slots = np.stack([x_m1.ravel(), x_0.ravel(), x_p1.ravel()], axis=1)
    z = _z_values(spec, slots, m=0, n=1).reshape(x_0.shape)
    # manual form of the same quantity, written out once
    z_manual = (-spec.w(x_0, x_0) + spec.w(x_0, x_p1) + spec.w(x_m1, x_0))
    assert np.max(np.abs(z - z_manual)) < 1e-12
    reweighted = np.exp(-(ring_h - z))
    mat = reweighted.transpose(1, 0, 2).reshape(21, 21 * 21)
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]
    # while the raw ring density does not factorize
    raw = np.exp(-ring_h).transpose(1, 0, 2).reshape(21, 21 * 21)
    s_raw = np.linalg.svd(raw, compute_uv=False)
    assert s_raw[1] > 1e-6 * s_raw[0]


def test_entropy_estimator_matches_quadrature(monkeypatch):
    spec = quartic_spec(0.3)
    # quadrature route on the three-site ring (m=0 split)
    g = np.linspace(-2.2, 2.2, 81)
    x_m1, x_0, x_p1 = np.meshgrid(g, g, g, indexing="ij")
    ring_h = (spec.v(x_m1) + spec.v(x_0) + spec.v(x_p1)
              + spec.w(x_m1, x_0) + spec.w(x_0, x_p1) + spec.w(x_p1, x_m1))
    dens = np.exp(-ring_h)
    w = dens / dens.sum()
    z = (-spec.w(x_0, x_0) + spec.w(x_0, x_p1) + spec.w(x_m1, x_0))
    ent_quad = float(np.log(np.sum(w * np.exp(z))) - np.sum(w * z))
    assert ent_quad >= 0.0

    monkeypatch.setattr(gibbs, "BURN_IN", 600)
    sample = sample_periodic_gibbs(spec, 1, 20_000, seed=404)
    est = entropy_mn_estimate(spec, sample, 0)
    assert est.value == pytest.approx(ent_quad, abs=4 * est.standard_error + 2e-3)
