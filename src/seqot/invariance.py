"""Finite coordinate-permutation groups acting on measures, functions and plans.

Groups are closed from generators into element lists (capped at |S_7| = 5040),
so Haar averages and orbit enumeration are exact.  The invariant Kantorovich
problem and its dual are one LP on the orbit quotient, a variable per orbit of
support pairs under the diagonal action and a row per orbit of atoms: about |G|
times smaller each way (symmetric-LP reduction, Boedi-Herr-Joswig 2013).  Each
problem builds its orbit structure once; a pair (i, j) or an atom is labelled
by the least flat index in its orbit, and every Haar average is an orbit mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (DiscreteMeasure, _distinct_rows, _find_rows, _product_grid,
                       _require_integer)
from .ot import (MARGINAL_TOL, Coupling, DualPair, cost_matrix, graph_concentration,
                 linprog, solve_discrete_ot)

MAX_GROUP_SIZE = 5040
# the most weights may differ within an orbit: an invariant plan gives each atom
# its orbit's mean weight, and the solver's error needs the other half
INVARIANCE_TOL = MARGINAL_TOL / 2

__all__ = [
    "GroupAction",
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
]


def _identity(dim: int) -> np.ndarray:
    """The identity of 0..dim-1; every group's dim is checked here."""
    _require_integer("group dim", dim, 1)
    return np.arange(dim, dtype=np.intp)


def _permutations(dim: int, rows) -> np.ndarray:
    """Rows of coordinate indices as a (k, dim) intp array of permutations of
    0..dim-1; an empty list has no rows.  A boolean or non-integer entry is
    rejected, not cast to an index; the error names the first bad row."""
    identity = _identity(dim)
    if not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object)  # keeps booleans among integers
    raw = rows.reshape(0, dim) if rows.shape == (0,) else np.atleast_2d(rows)
    if raw.ndim != 2 or raw.shape[1] != dim:
        raise ValueError("element length != dim")
    perms = raw.astype(np.intp)
    boolean = raw.dtype == bool
    if raw.dtype == object:
        boolean = np.vectorize(lambda x: isinstance(x, (bool, np.bool_)),
                               otypes=[bool])(raw).any(axis=1)
    bad = (boolean | ~np.all(raw == perms, axis=1)
           | ~np.all(np.sort(perms, axis=1) == identity, axis=1))
    if bad.any():
        raise ValueError(f"not a permutation of 0..{dim-1}: "
                         f"{raw[int(np.argmax(bad))].tolist()}")
    return perms


class GroupAction:
    """The finite group of coordinate permutations of {0..dim-1} generated by
    the given permutations: their closure under composition.

    ``elements`` is the (k, dim) integer array of every group element in
    lexicographic order; the action on a point is ``x[p]`` for a row ``p``.
    An element list of a group gives that group and an empty list the trivial
    group.  A closure past MAX_GROUP_SIZE elements is an error; transitivity
    is computed, not asserted.
    """

    def __init__(self, dim: int, generators):
        identity = _identity(dim)
        els, gens = {identity.tobytes(): identity}, []
        for gen in _permutations(dim, generators):
            if gen.tobytes() in els:
                continue  # already generated: an element list closes in few passes
            gens.append(gen)
            frontier = list(els.values())
            while frontier:
                new = []
                for g in gens:
                    for h in frontier:
                        c = h[g]  # g after h: x[c] is x[h][g]
                        key = c.tobytes()
                        if key not in els:
                            els[key] = c
                            new.append(c)
                            if len(els) > MAX_GROUP_SIZE:
                                raise ValueError(
                                    f"group closure exceeds MAX_GROUP_SIZE={MAX_GROUP_SIZE}")
                frontier = new
        self.dim = dim
        self.elements = np.array(sorted(els.values(), key=tuple))
        self.elements.flags.writeable = False
        # in a group, coordinate 0's orbit is everything iff every orbit is
        self.transitive = bool(np.unique(self.elements[:, 0]).size == dim)

    def __len__(self):
        return self.elements.shape[0]

    def __repr__(self):
        return f"GroupAction(dim={self.dim}, order={len(self)}, transitive={self.transitive})"


def symmetric_group(dim: int) -> GroupAction:
    """Every permutation: the closure of the transposition (0 1) and the shift."""
    identity = _identity(dim)
    swap = np.concatenate([identity[1::-1], identity[2:]])  # the identity at dim 1
    return GroupAction(dim, [swap, np.roll(identity, 1)])


def cyclic_group(dim: int) -> GroupAction:
    return GroupAction(dim, [np.roll(_identity(dim), 1)])


def trivial_group(dim: int) -> GroupAction:
    return GroupAction(dim, [])


# ---------------------------------------------------------------------------
# index maps of the action on a finite point set


def _closure(points: np.ndarray, group: GroupAction) -> tuple[np.ndarray, np.ndarray]:
    """The points with their missing images appended (in order of group element,
    then point) and the (|G|, n) table maps[g, a] = index of points[a][p_g].
    Exact float equality is used; permuting coordinates never changes a value.
    """
    if points.ndim != 2 or points.shape[1] != group.dim:
        raise ValueError(f"dimension mismatch: points of shape {points.shape} "
                         f"for a group on {group.dim} coordinates")
    moved = points[:, group.elements].swapaxes(0, 1).reshape(-1, group.dim)
    found = _find_rows(points, moved)
    if np.any(found < 0):  # the closed set is stable: one more search
        moved = moved[found < 0]
        return _closure(np.vstack([points, moved[_distinct_rows(moved)[0]]]), group)
    return points, found.reshape(len(group), points.shape[0])


def _index_maps(points: np.ndarray, group: GroupAction) -> np.ndarray:
    """The index maps of a set; raises if it is not stable under the action."""
    closed, maps = _closure(points, group)
    if closed.shape[0] > points.shape[0]:
        raise ValueError("point set is not stable under the group action")
    return maps


def _closed_support(m: DiscreteMeasure, group: GroupAction):
    """``close_support`` of m and the index maps of the closed support."""
    points, maps = _closure(m.points, group)
    if points.shape[0] > len(m):
        m = DiscreteMeasure(points, np.pad(m.weights, (0, points.shape[0] - len(m))),
                            normalize=False)
    return m, maps


def close_support(m: DiscreteMeasure, group: GroupAction) -> DiscreteMeasure:
    """Close the support under the action, appending the missing images as
    zero-weight atoms in order of group element, then atom."""
    return _closed_support(m, group)[0]


def _merge_atoms(m: DiscreteMeasure) -> DiscreteMeasure:
    """Sum the weights of exactly coincident atoms."""
    first, label = _distinct_rows(m.points)
    return DiscreteMeasure(m.points[first], np.bincount(label, weights=m.weights),
                           normalize=False)


def _check_invariant_weights(weights: np.ndarray, label: np.ndarray):
    """Raise unless the weights spread by at most ``INVARIANCE_TOL`` within each
    atom orbit: any two of its atoms are related by some group element."""
    hi, lo = np.full(label.max() + 1, -np.inf), np.full(label.max() + 1, np.inf)
    np.maximum.at(hi, label, weights)
    np.minimum.at(lo, label, weights)
    if np.max(hi - lo) > INVARIANCE_TOL:
        raise ValueError("marginal is not invariant under the group action")


def _labels(src_maps: np.ndarray, tgt_maps: np.ndarray | None = None):
    """Orbits of atoms, or of support pairs (flat index i*m + j) under the
    diagonal action: each orbit's least index, ascending, and for every atom
    or pair the position of its orbit in that list."""
    if tgt_maps is None:
        least = src_maps.min(axis=0)
    else:
        # the orbit of a pair is its image under every element
        m = tgt_maps.shape[1]
        least = src_maps[0][:, None] * m + tgt_maps[0]
        for s, t in zip(src_maps[1:], tgt_maps[1:]):
            np.minimum(least, s[:, None] * m + t, out=least)
    reps, label = np.unique(least.ravel(), return_inverse=True)
    return reps, label.reshape(least.shape)


def _orbit_mean(table: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The mean of ``table`` over each orbit of ``label``, which labels its
    leading axes, on every entry; trailing axes are averaged one at a time."""
    trailing = table.shape[label.ndim:]
    k, size = int(np.prod(trailing)), np.bincount(label.ravel())
    index = (label.reshape(-1, 1) * k + np.arange(k)).ravel()
    sums = np.bincount(index, table.ravel(), size.size * k).reshape(size.size, k)
    return (sums / size[:, None]).reshape(size.shape + trailing)[label]


@dataclass(frozen=True)
class _Orbits:
    """Closed supports and orbit labels of one problem.  Orbits are numbered
    by their least index; ``pair_reps`` holds those of the pair orbits (flat
    indices i*m + j)."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    pair_label: np.ndarray
    pair_reps: np.ndarray
    src_label: np.ndarray
    tgt_label: np.ndarray


def _orbits(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction) -> _Orbits:
    (mu, src_maps), (nu, tgt_maps) = _closed_support(mu, group), _closed_support(nu, group)
    src_label, tgt_label = _labels(src_maps)[1], _labels(tgt_maps)[1]
    _check_invariant_weights(mu.weights, src_label)
    _check_invariant_weights(nu.weights, tgt_label)
    pair_reps, pair_label = _labels(src_maps, tgt_maps)
    return _Orbits(mu, nu, pair_label, pair_reps, src_label, tgt_label)


# ---------------------------------------------------------------------------
# operations


def haar_project(values, points, group: GroupAction) -> np.ndarray:
    """Group-average a function table, (n,) or (n, k): (1/|G|) sum_g f(g^-1 x)
    is the mean of f over the orbit of x.  Idempotent, linear, sup-norm
    nonexpansive and exactly orbit-constant; f - fbar averages to 0 on orbits.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    if len(values) != len(points):
        raise ValueError(f"{len(values)} values for {len(points)} points")
    return _orbit_mean(values, _labels(_index_maps(points, group))[1])


def symmetrize_coupling(plan: Coupling, group: GroupAction) -> Coupling:
    """Average g . plan over the group: its mean over each orbit of pairs.

    Requires both marginals invariant and both supports stable; preserves the
    marginals exactly and the cost of any invariant cost function exactly.
    """
    label = _orbits(plan.source, plan.target, group).pair_label
    if label.shape != plan.weights.shape:  # closing a support added atoms
        raise ValueError("point set is not stable under the group action")
    return Coupling(plan.source, plan.target, _orbit_mean(plan.weights, label))


def first_coordinate_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x_1 - y_1)^2 on the support product."""
    return (x[:, 0][:, None] - y[:, 0][None, :]) ** 2


@dataclass(frozen=True)
class InvariantOTResult:
    plan: Coupling
    value: float
    n_orbits: int


@dataclass(frozen=True)
class InvariantDualResult:
    value: float
    phi_bar: np.ndarray
    psi_bar: np.ndarray
    projected_cost: np.ndarray


def _solve_quotient(orb: _Orbits, cost) -> tuple[InvariantOTResult, InvariantDualResult]:
    """The invariant problem and its dual from one LP on the orbit quotient:
    y_P, the mass of pair orbit P at its mean cost cbar_P, feeds the rows of
    its source and target atom orbits, which hold the orbit masses.  The plan
    spreads y_P evenly over P; the target row duals on atoms are psi, and phi
    their c-transform under cbar, so the dual pair is exactly feasible."""
    label = orb.pair_label
    size = np.bincount(label.ravel())
    projected = _orbit_mean(cost_matrix(orb.mu, orb.nu, cost), label)
    cbar = projected.ravel()[orb.pair_reps]
    ri, rj = np.divmod(orb.pair_reps, len(orb.nu))
    src_mass = np.bincount(orb.src_label, weights=orb.mu.weights)
    y, lam, _ = linprog(cbar, orb.src_label[ri], orb.tgt_label[rj], src_mass,
                        np.bincount(orb.tgt_label, weights=orb.nu.weights))
    plan = Coupling(orb.mu, orb.nu, np.maximum(y, 0.0)[label] / size[label])
    psi = lam[src_mass.size:][orb.tgt_label]
    dual = DualPair(np.min(projected - psi[None, :], axis=1), psi)
    return (InvariantOTResult(plan, float(cbar @ y), size.size),
            InvariantDualResult(dual.value(orb.mu, orb.nu), dual.phi, psi, projected))


def solve_invariant_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction,
                       cost=first_coordinate_cost) -> InvariantOTResult:
    """Minimize the cost over couplings invariant under the diagonal action.

    An invariant plan is constant on each orbit of support pairs, so it is
    solved as one LP with a variable per pair orbit and a row per atom orbit.
    The default cost is the single-coordinate quadratic (x_1 - y_1)^2.
    """
    return _solve_quotient(_orbits(mu, nu, group), cost)[0]


def invariant_duality_value(mu: DiscreteMeasure, nu: DiscreteMeasure, group: GroupAction,
                            cost=first_coordinate_cost) -> InvariantDualResult:
    """Maximize int phi dmu + int psi dnu over invariant potentials with
    phi(x) + psi(y) <= cbar(x, y), cbar the Haar projection of the cost under
    the diagonal action.  On finite supports these are the row duals of the
    quotient LP of ``solve_invariant_ot``, phi made the c-transform of psi
    under cbar, so the pair is exactly feasible and certifies its value.
    """
    return _solve_quotient(_orbits(mu, nu, group), cost)[1]


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
    inv = _solve_quotient(orb, first_coordinate_cost)[0]
    d = group.dim
    sym_plan = Coupling(mu, nu, _orbit_mean(full.plan.weights, orb.pair_label))
    per_coord = np.array([float(np.sum(sym_plan.weights * first_coordinate_cost(
        mu.points[:, k:], nu.points[:, k:]))) for k in range(d)])
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
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"product power needs an integer d >= 1, got {d!r}")
    return DiscreteMeasure(_product_grid([component.points[:, 0]] * d),
                           np.prod(_product_grid([component.weights] * d), axis=1),
                           normalize=False)


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
    nu = _merge_atoms(DiscreteMeasure(
        np.vstack([mu.points, pb.points]),
        np.concatenate([0.5 * mu.weights, 0.5 * pb.weights]), normalize=False))
    identical = (len(component_a) == len(component_b)
                 and np.array_equal(component_a.points, component_b.points)
                 and np.array_equal(component_a.weights, component_b.weights))
    res = solve_invariant_ot(mu, nu, group, cost=first_coordinate_cost)
    conc = graph_concentration(res.plan)
    return NoMapReport(res.value, conc, conc >= 1.0 - 1e-12, identical)
