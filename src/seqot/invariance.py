"""Finite coordinate-permutation groups acting on measures, functions and plans.

Groups are materialized as explicit element lists (capped at |S_7| = 5040), so
Haar averages and orbit enumeration are exact.  The invariant Kantorovich
problem is solved as an LP over one variable per orbit of support pairs under
the diagonal action, which enforces invariance exactly and shrinks the LP by
roughly a factor |G| (symmetric-LP reduction, Boedi-Herr-Joswig 2013).  Each
problem builds its orbit structure once; a pair (i, j) or an atom is labelled
by the least flat index in its orbit, one vectorized pass per group element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .measures import DiscreteMeasure, _distinct_rows, _find_rows
from .ot import (Coupling, _transport_constraints, cost_matrix, graph_concentration,
                 linprog, solve_discrete_ot)

MAX_GROUP_SIZE = 5040
INVARIANCE_TOL = 1e-9

__all__ = [
    "GroupAction",
    "closure_from_generators",
    "symmetric_group",
    "cyclic_group",
    "trivial_group",
    "haar_project",
    "symmetrize_coupling",
    "solve_invariant_ot",
    "invariant_duality_value",
    "transitive_identity_check",
    "no_map_counterexample",
    "first_coordinate_cost",
    "close_support",
    "merge_atoms",
]


def _permutations(dim: int, rows) -> np.ndarray:
    """Rows of coordinate indices as a (k, dim) intp array of permutations of
    0..dim-1.  A boolean or non-integer entry is rejected, not cast to an
    index; the error names the first bad row."""
    if not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object)  # keeps booleans among integers
    raw = np.atleast_2d(rows)
    if raw.ndim != 2 or raw.shape[1] != dim:
        raise ValueError("element length != dim")
    perms = raw.astype(np.intp)
    boolean = raw.dtype == bool
    if raw.dtype == object:
        boolean = np.vectorize(lambda x: isinstance(x, (bool, np.bool_)),
                               otypes=[bool])(raw).any(axis=1)
    bad = (boolean | ~np.all(raw == perms, axis=1)
           | ~np.all(np.sort(perms, axis=1) == np.arange(dim), axis=1))
    if bad.any():
        raise ValueError(f"not a permutation of 0..{dim-1}: "
                         f"{raw[int(np.argmax(bad))].tolist()}")
    return perms


def _compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # act(compose(p, q), x) = act(p, act(q, x)) with act(p, x)[i] = x[p[i]]
    return q[p]


class GroupAction:
    """A finite group of coordinate permutations of {0..dim-1}.

    ``elements`` is a (k, dim) integer array; the action on a point is
    ``x[p]`` for a row ``p``.  Closure, identity and inverses are verified on
    construction; transitivity is computed, not asserted.
    """

    def __init__(self, dim: int, elements, _verified: bool = False):
        keyed = {e.tobytes(): e for e in _permutations(dim, elements)}
        els = np.array(sorted(keyed.values(), key=lambda e: tuple(e)))
        if np.arange(dim, dtype=np.intp).tobytes() not in keyed:
            raise ValueError("identity not present")
        if not _verified:
            # a set already closed by construction (generator closure, full
            # symmetric group) skips this quadratic re-validation
            for p in els:
                if np.argsort(p).tobytes() not in keyed:
                    raise ValueError("inverse missing; not a group")
                for q in els:
                    if _compose(p, q).tobytes() not in keyed:
                        raise ValueError("not closed under composition")
        self.dim = dim
        self.elements = els
        self.elements.flags.writeable = False
        # reach[i, j]: some element sends coordinate i to slot j
        reach = np.zeros((dim, dim), dtype=bool)
        for p in els:
            reach[p, np.arange(dim)] = True
        self.transitive = bool(reach.all())

    def __len__(self):
        return self.elements.shape[0]

    def __repr__(self):
        return f"GroupAction(dim={self.dim}, order={len(self)}, transitive={self.transitive})"


def closure_from_generators(dim: int, generators) -> GroupAction:
    """Generate the group closure of the given permutations (BFS); a closure
    larger than MAX_GROUP_SIZE elements is an error."""
    gens = _permutations(dim, generators)
    identity = np.arange(dim, dtype=np.intp)
    els = {identity.tobytes(): identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = _compose(g, h)
                key = c.tobytes()
                if key not in els:
                    els[key] = c
                    new.append(c)
                    if len(els) > MAX_GROUP_SIZE:
                        raise ValueError(
                            f"group closure exceeds MAX_GROUP_SIZE={MAX_GROUP_SIZE}")
        frontier = new
    return GroupAction(dim, np.array(list(els.values())), _verified=True)


def symmetric_group(dim: int) -> GroupAction:
    if dim > 7:
        raise ValueError("symmetric group materialization capped at dim 7")
    return GroupAction(dim, np.array(list(itertools.permutations(range(dim)))),
                       _verified=True)


def cyclic_group(dim: int) -> GroupAction:
    shift = np.roll(np.arange(dim), 1)
    return closure_from_generators(dim, [shift])


def trivial_group(dim: int) -> GroupAction:
    return GroupAction(dim, [np.arange(dim)])


# ---------------------------------------------------------------------------
# index maps of the action on a finite point set


def _moved_rows(points: np.ndarray, group: GroupAction) -> np.ndarray:
    """Every point moved by every element, element-major: (|G| * n, dim)."""
    return points[:, group.elements].swapaxes(0, 1).reshape(-1, points.shape[1])


def _index_maps(points: np.ndarray, group: GroupAction) -> np.ndarray:
    """(|G|, n) table: maps[g, a] = index of points[a][p_g] in the set.

    Raises if the set is not stable under the action.  Exact float equality is
    used; permuting coordinates never changes the stored values.
    """
    if points.shape[1] != group.dim:
        raise ValueError("dimension mismatch between points and group")
    maps = _find_rows(points, _moved_rows(points, group))
    if np.any(maps < 0):
        raise ValueError("point set is not stable under the group action")
    return maps.reshape(len(group), points.shape[0])


def close_support(m: DiscreteMeasure, group: GroupAction) -> DiscreteMeasure:
    """Close the support under the action, appending the missing images as
    zero-weight atoms in order of group element, then atom."""
    if m.dim != group.dim:
        raise ValueError("dimension mismatch between measure and group")
    moved = _moved_rows(m.points, group)
    moved = moved[_find_rows(m.points, moved) < 0]
    if moved.shape[0] == 0:
        return m
    extra = moved[_distinct_rows(moved)[0]]
    points = np.vstack([m.points, extra])
    weights = np.concatenate([m.weights, np.zeros(len(extra))])
    return DiscreteMeasure(points, weights, normalize=False, prune=False)


def merge_atoms(m: DiscreteMeasure) -> DiscreteMeasure:
    """Sum the weights of exactly coincident atoms."""
    first, label = _distinct_rows(m.points)
    return DiscreteMeasure(m.points[first], np.bincount(label, weights=m.weights),
                           normalize=False, prune=False)


def _check_invariant_weights(m: DiscreteMeasure, maps: np.ndarray, tol=INVARIANCE_TOL):
    for gi in range(maps.shape[0]):
        if np.max(np.abs(m.weights[maps[gi]] - m.weights)) > tol:
            raise ValueError("marginal is not invariant under the group action")


@dataclass(frozen=True)
class _Orbits:
    """Closed supports, their index maps and orbit labels of one problem.
    Orbits are numbered by their least index; ``pair_reps`` holds those of
    the pair orbits (flat indices i*m + j)."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    src_maps: np.ndarray
    tgt_maps: np.ndarray
    pair_label: np.ndarray
    pair_reps: np.ndarray
    src_label: np.ndarray
    tgt_label: np.ndarray


def _orbits(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction) -> _Orbits:
    mu = close_support(mu, group)
    nu = close_support(nu, group)
    src_maps = _index_maps(mu.points, group)
    tgt_maps = _index_maps(nu.points, group)
    _check_invariant_weights(mu, src_maps)
    _check_invariant_weights(nu, tgt_maps)
    # the orbit of a pair is its image under every element
    m = len(nu)
    least = src_maps[0][:, None] * m + tgt_maps[0]
    for s, t in zip(src_maps[1:], tgt_maps[1:]):
        np.minimum(least, s[:, None] * m + t, out=least)
    pair_reps, pair_label = np.unique(least.ravel(), return_inverse=True)
    return _Orbits(mu, nu, src_maps, tgt_maps, pair_label.reshape(least.shape),
                   pair_reps, np.unique(src_maps.min(axis=0), return_inverse=True)[1],
                   np.unique(tgt_maps.min(axis=0), return_inverse=True)[1])


# ---------------------------------------------------------------------------
# operations


def haar_project(values, points, group: GroupAction) -> np.ndarray:
    """Group-average a function table: (1/|G|) sum_g f(g^-1 x) on every point.

    Idempotent, linear, and sup-norm nonexpansive; the residual f - fbar
    averages to zero over every orbit.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    if len(values) != len(points):
        raise ValueError(f"{len(values)} values for {len(points)} points")
    maps = _index_maps(points, group)
    out = np.zeros_like(values, dtype=float)
    for gi in range(len(group)):
        out += values[maps[gi]]
    return out / len(group)


def _average_pairs(table: np.ndarray, src_maps: np.ndarray, tgt_maps: np.ndarray) -> np.ndarray:
    """Average a table on support pairs over the diagonal action."""
    out = np.zeros_like(table)
    for s, t in zip(src_maps, tgt_maps):
        out += table[np.ix_(s, t)]
    return out / src_maps.shape[0]


def symmetrize_coupling(plan: Coupling, group: GroupAction) -> Coupling:
    """Average g . plan over the group (diagonal action on pairs).

    Requires both marginals invariant and both supports stable; preserves the
    marginals exactly and the cost of any invariant cost function exactly.
    """
    src_maps = _index_maps(plan.source.points, group)
    tgt_maps = _index_maps(plan.target.points, group)
    _check_invariant_weights(plan.source, src_maps)
    _check_invariant_weights(plan.target, tgt_maps)
    return Coupling(plan.source, plan.target,
                    _average_pairs(plan.weights, src_maps, tgt_maps))


def first_coordinate_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x_1 - y_1)^2 on the support product."""
    return (x[:, 0][:, None] - y[:, 0][None, :]) ** 2


@dataclass(frozen=True)
class InvariantOTResult:
    plan: Coupling
    value: float
    n_orbits: int


def _solve_orbit_lp(orb: _Orbits, cost) -> InvariantOTResult:
    label = orb.pair_label
    n_orbits = orb.pair_reps.size
    c = cost_matrix(orb.mu, orb.nu, cost)
    # objective: total cost of one unit of per-pair weight on each orbit
    obj = np.zeros(n_orbits)
    np.add.at(obj, label.ravel(), c.ravel())
    # pair (i, j) adds one unit of its orbit's weight to row i and column j
    a_eq, b_eq = _transport_constraints(label, orb.mu.weights, orb.nu.weights)
    x, _, _, _ = linprog(obj, a_eq, b_eq, b_eq, 0.0)
    plan = Coupling(orb.mu, orb.nu, np.maximum(x[label], 0.0))
    return InvariantOTResult(plan, float(obj @ x), n_orbits)


def solve_invariant_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction,
                       cost=first_coordinate_cost) -> InvariantOTResult:
    """Minimize the cost over couplings invariant under the diagonal action.

    Formulated on orbit-representative variables: an invariant plan is
    constant on each orbit of support pairs, so one LP variable per orbit
    enforces invariance exactly.  The default cost is the single-coordinate
    quadratic (x_1 - y_1)^2.
    """
    return _solve_orbit_lp(_orbits(mu, nu, group), cost)


@dataclass(frozen=True)
class InvariantDualResult:
    value: float
    phi_bar: np.ndarray
    psi_bar: np.ndarray
    projected_cost: np.ndarray


def invariant_duality_value(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction,
                            cost=first_coordinate_cost) -> InvariantDualResult:
    """Maximize int phi dmu + int psi dnu over invariant potentials with
    phi(x) + psi(y) <= cbar(x, y), cbar the Haar projection of the cost under
    the diagonal action.  On finite supports this is the dual LP of
    ``solve_invariant_ot`` and certifies its value.
    """
    orb = _orbits(mu, nu, group)
    cbar = _average_pairs(cost_matrix(orb.mu, orb.nu, cost), orb.src_maps, orb.tgt_maps)
    # invariant potentials are constant on atom orbits: one variable each,
    # and one constraint phi_O + psi_P <= cbar per pair orbit representative
    src_lab, tgt_lab = orb.src_label, orb.tgt_label
    n_src, n_tgt = src_lab.max() + 1, tgt_lab.max() + 1
    n_pairs = orb.pair_reps.size
    ri, rj = np.divmod(orb.pair_reps, len(orb.nu))
    a_ub = sparse.coo_matrix(
        (np.ones(2 * n_pairs),
         (np.concatenate([np.arange(n_pairs), np.arange(n_pairs)]),
          np.concatenate([src_lab[ri], n_src + tgt_lab[rj]]))),
        shape=(n_pairs, n_src + n_tgt)).tocsc()
    b_ub = cbar[ri, rj]
    obj = np.zeros(n_src + n_tgt)
    np.add.at(obj, src_lab, orb.mu.weights)
    np.add.at(obj, n_src + tgt_lab, orb.nu.weights)
    x, _, fun, _ = linprog(-obj, a_ub, np.full(n_pairs, -np.inf), b_ub, -np.inf)
    return InvariantDualResult(float(-fun), x[:n_src][src_lab], x[n_src:][tgt_lab], cbar)


@dataclass(frozen=True)
class TransitiveIdentityReport:
    full_value: float
    invariant_single_value: float
    dim_times_invariant: float
    relative_difference: float
    per_coordinate_costs: np.ndarray
    per_coordinate_spread: float


def transitive_identity_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                              group: GroupAction) -> TransitiveIdentityReport:
    """Compare the full quadratic transport value with d x the invariant
    single-coordinate value, for a transitively acting group.

    Also symmetrizes the full optimal plan (cost-preserving for the invariant
    quadratic cost) and reports the per-coordinate costs, which the identity
    predicts to be equal across coordinates.
    """
    if not group.transitive:
        raise ValueError("the identity requires a transitively acting group")
    orb = _orbits(mu, nu, group)
    mu, nu = orb.mu, orb.nu
    full = solve_discrete_ot(mu, nu)
    inv = _solve_orbit_lp(orb, first_coordinate_cost)
    d = group.dim
    sym_plan = Coupling(mu, nu, _average_pairs(full.plan.weights, orb.src_maps,
                                               orb.tgt_maps))
    per_coord = np.array([
        float(np.sum(sym_plan.weights *
                     (mu.points[:, k][:, None] - nu.points[:, k][None, :]) ** 2))
        for k in range(d)
    ])
    rel = abs(full.value - d * inv.value) / max(1.0, abs(full.value))
    return TransitiveIdentityReport(
        full_value=full.value,
        invariant_single_value=inv.value,
        dim_times_invariant=d * inv.value,
        relative_difference=rel,
        per_coordinate_costs=per_coord,
        per_coordinate_spread=float(per_coord.max() - per_coord.min()),
    )


def product_power(component: DiscreteMeasure, d: int) -> DiscreteMeasure:
    """The d-fold product of a 1D discrete measure."""
    if component.dim != 1:
        raise ValueError("component must be 1D")
    if d < 1:
        raise ValueError(f"product power needs d >= 1, got {d}")
    # atom indices of every product atom, the last coordinate fastest
    idx = np.indices((len(component),) * d).reshape(d, -1)
    weights = np.ones(idx.shape[1])
    for k in range(d):
        weights *= component.weights[idx[k]]
    return DiscreteMeasure(component.points[idx.T, 0], weights, normalize=False,
                           prune=False)


@dataclass(frozen=True)
class NoMapReport:
    value: float
    concentration: float
    is_map: bool
    components_identical: bool


def no_map_counterexample(component_a: DiscreteMeasure, component_b: DiscreteMeasure,
                          d: int, group: GroupAction) -> NoMapReport:
    """Invariant transport of a^d onto (a^d + b^d)/2 and its graph diagnostics.

    For distinct 1D components the optimal invariant plan cannot concentrate
    on a graph, so the reported concentration is expected strictly below 1;
    for identical components it is 1 (the diagonal plan).  Degenerate inputs
    are reported, not raised.
    """
    mu = product_power(component_a, d)
    pb = product_power(component_b, d)
    nu = merge_atoms(DiscreteMeasure(
        np.vstack([mu.points, pb.points]),
        np.concatenate([0.5 * mu.weights, 0.5 * pb.weights]),
        normalize=False, prune=False))
    identical = (len(component_a) == len(component_b)
                 and np.array_equal(component_a.points, component_b.points)
                 and np.array_equal(component_a.weights, component_b.weights))
    res = solve_invariant_ot(mu, nu, group, cost=first_coordinate_cost)
    conc = graph_concentration(res.plan)
    return NoMapReport(res.value, conc, conc >= 1.0 - 1e-12, identical)
