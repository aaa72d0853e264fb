"""Discrete Kantorovich solvers and transport-plan diagnostics.

Exact plans come from the transportation LP (HiGHS, on a shortlist of cells
grown by reduced cost); in one dimension under the quadratic cost, from the
north-west-corner staircase on sorted atoms, with duals walked along it; or,
between two uniform measures of equal size, from an assignment solve whose
dual potentials are recovered by Bellman-Ford sweeps over the difference
constraints that complementary slackness leaves.
Every path ends in the same certificate: its column potentials, their
c-transform as the row potentials, so the dual pair is exactly feasible, and
the signed gap.  A fast path whose gap misses the tolerance goes on to the
next path, and the LP comes last.  Entropic plans
come from a stabilized Sinkhorn with epsilon-annealing.  1D transport is
closed form via quantile functions, on the same staircase for two discrete
measures; a grid's quantiles come from the one inverse CDF of its
``Grid1D.cdf_table``.  Plan diagnostics: cyclical monotonicity over every
cycle on the whole support, by one Bellman-Ford relaxation shared with the
assignment duals and settled relative to the cost scale; graph concentration;
row barycenters whose bits do not depend on the BLAS thread count.

Every LP in seqot, here and in ``invariance``, is one call of ``linprog``
below.  It drives scipy's own bundled HiGHS binding,
``scipy.optimize._highspy._core``, with the model as numpy arrays and one
option set built at import, rather than ``scipy.optimize.linprog``: on these
LPs that wrapper's option checks, field-by-field model copy and per-column
loop over bound marginals took longer than HiGHS's simplex itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
# scipy's own build of HiGHS, the solver behind linprog(method="highs")
from scipy.optimize._highspy import _core as _highs

from .measures import (DEFAULT_RESOLUTION, DiscreteMeasure, Grid1D, _coerce_grid,
                       _discrete_quantile_at, _quantile_from_grid, _require_finite,
                       _require_integer, _sorted_cdf)

MARGINAL_TOL = 1e-10
GAP_TOL = 1e-9
# n*m cap of the transportation LP, checked only when an instance reaches it:
# the product, monotone and assignment paths take larger instances (a
# uniform 1001x1001 assignment solves in about half a second)
MAX_LP_CELLS = 1_000_000
# cyclical-monotonicity check: support weight threshold and settle bound (per 1 + max|c|)
CYCLE_SUPPORT_THRESHOLD = 1e-12
CYCLE_TOL = 1e-9
# HiGHS options for every transport LP, passed to HiGHS directly by
# ``linprog`` below.  Feasibility tolerances: the 1e-7 defaults let a
# solution miss the marginals by more than MARGINAL_TOL.  Presolve off: on a
# dense transportation LP it removes only the one redundant equality row and
# no column, yet it and the postsolve re-solve cost about as much as the
# simplex itself.  The dict keeps scipy.optimize.linprog's option form, so
# the tests can solve the same LP through linprog for reference.
_HIGHS_OPTIONS = {"presolve": False,
                  "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}
# the same options plus the ones linprog(method="highs") always sets: dual
# simplex, no debug checks and no log output
_OPTIONS = _highs.HighsOptions()
for _key, _value in {
        **_HIGHS_OPTIONS, "presolve": "off",
        "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
        "highs_debug_level": _highs.HighsDebugLevel.kHighsDebugLevelNone,
        "output_flag": False, "log_to_console": False}.items():
    setattr(_OPTIONS, _key, _value)
# linprog's test of the returned point: bounds and row activity within
# 10 * sqrt(1e-9)
_POINT_TOL = 10 * np.sqrt(1e-9)
# cheapest cells per row and per column that seed the exact LP's shortlist
_SHORTLIST = 24

__all__ = [
    "Coupling",
    "DualPair",
    "OTResult",
    "SinkhornResult",
    "Monotone1DMap",
    "CycleReport",
    "solve_discrete_ot",
    "quantile_transport_1d",
    "sinkhorn",
    "barycentric_map",
    "check_cyclical_monotonicity",
    "graph_concentration",
    "cost_matrix",
]


class Coupling:
    """A joint weight table over two discrete supports with prescribed marginals."""

    def __init__(self, source: DiscreteMeasure, target: DiscreteMeasure, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(source), len(target)):
            raise ValueError("weight table shape mismatch")
        _require_finite("weights", w)
        if np.any(w < -MARGINAL_TOL):
            raise ValueError("negative coupling weight")
        row_err = np.max(np.abs(w.sum(axis=1) - source.weights))
        col_err = np.max(np.abs(w.sum(axis=0) - target.weights))
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise ValueError(
                f"marginal violation: rows {row_err:.3e}, cols {col_err:.3e}")
        if abs(w.sum() - 1.0) > MARGINAL_TOL:
            raise ValueError("total mass != 1")
        w = np.maximum(w, 0.0)
        w.flags.writeable = False
        self.source = source
        self.target = target
        self.weights = w


@dataclass(frozen=True)
class DualPair:
    """Kantorovich potentials for the cost-form dual: phi_i + psi_j <= c_ij.

    For the quadratic cost the inner-product form potentials are the affine
    images F(x) = ||x||^2/2 - phi(x)/2 and G(y) = ||y||^2/2 - psi(y)/2.
    """

    phi: np.ndarray
    psi: np.ndarray

    def value(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return float(mu.weights @ self.phi + nu.weights @ self.psi)


@dataclass(frozen=True)
class OTResult:
    """An exact plan with its certificate.

    ``gap`` is the signed value minus dual value.  ``method`` names the
    branch that solved the instance, and ``iterations`` counts its work:
    0 for "product" and "monotone", Bellman-Ford sweeps for "assignment",
    and for "lp" the HiGHS simplex iterations summed over the rounds of its
    shortlist, whose duals certify the plan on every cell.
    """

    plan: Coupling
    dual: DualPair
    value: float
    gap: float
    iterations: int
    method: str


@dataclass(frozen=True)
class SinkhornResult:
    plan: Coupling
    value: float
    converged: bool
    iterations: int
    marginal_violation: float
    epsilon: float
    f: np.ndarray = field(repr=False, default=None)
    g: np.ndarray = field(repr=False, default=None)


def _sq_dist_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||x_i - y_j||^2 for every pair of rows, as |x|^2 + |y|^2 - 2<x, y>.

    Rounding can leave small negatives; only ``cost_matrix`` clamps them, so
    nearest-point ties and the entropic extension see the unclamped values.
    """
    cross = (2.0 * x) @ y.T
    table = np.add.outer(np.sum(x ** 2, axis=1), np.sum(y ** 2, axis=1))
    table -= cross
    return table


def _is_sqeuclidean(cost) -> bool:
    """Whether a cost spec names the default squared Euclidean cost."""
    return cost is None or (isinstance(cost, str) and cost == "sqeuclidean")


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, cost=None) -> np.ndarray:
    """Evaluate a cost spec on the support product.

    ``cost`` may be None / "sqeuclidean" (squared Euclidean distance), a
    callable c(X, Y) -> (n, m) table, or a precomputed (n, m) array.  Every
    entry must be finite; the squared Euclidean cost needs supports of equal
    dimension.
    """
    if _is_sqeuclidean(cost):
        if mu.dim != nu.dim:
            raise ValueError(f"squared Euclidean cost between measures of "
                             f"dimension {mu.dim} and {nu.dim}")
        c = _sq_dist_table(mu.points, nu.points)
        np.maximum(c, 0.0, out=c)
    elif callable(cost):
        c = np.asarray(cost(mu.points, nu.points), dtype=float)
    else:
        c = np.asarray(cost, dtype=float)
    if c.shape != (len(mu), len(nu)):
        raise ValueError("cost table shape mismatch")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost must be finite on every support pair")
    return c


def _certified(mu, nu, c, w, psi, method, iterations, require_gap):
    """The exact result for plan ``w`` and column potentials ``psi``.

    phi is the c-transform of psi, so the dual pair is exactly feasible, and
    the gap is signed: value minus dual value.  With ``require_gap`` a gap
    over tolerance returns None, before any Coupling is built, so that the
    caller can go on to the next path.
    """
    phi = np.min(c - psi[None, :], axis=1)
    dual = DualPair(phi, psi)
    value = float(np.sum(w * c))
    gap = value - dual.value(mu, nu)
    if require_gap and abs(gap) > GAP_TOL * (1 + abs(value)):
        return None
    return OTResult(Coupling(mu, nu, w), dual, value, gap, iterations, method)


def _product_result(mu, nu, c) -> OTResult:
    # a single-atom marginal forces the product plan; psi = c_0j for a
    # single source atom, else 0, makes the c-transform its exact dual
    psi = c[0, :].copy() if len(mu) == 1 else np.zeros(1)
    return _certified(mu, nu, c, np.outer(mu.weights, nu.weights), psi,
                      "product", 0, False)


def _north_west(cum_a, cum_b):
    """North-west-corner rule on two cumulative mass vectors.

    Their cumulative masses are merged into segments of [0, 1] (those of
    mass 1e-15 or less dropped): each segment carries its mass from the
    first atom whose cumulative mass in ``cum_a`` reaches it to the first
    such atom in ``cum_b``.  Returns per segment the row and column
    (positions in the two vectors), midpoint and mass.  Rows and columns
    never decrease from one segment to the next.
    """
    edges = np.unique(np.concatenate([[0.0], cum_a, cum_b, [1.0]]))
    edges = edges[(edges >= 0) & (edges <= 1)]
    mass = np.diff(edges)
    keep = mass > 1e-15
    mass = mass[keep]
    mid = (edges[:-1] + edges[1:])[keep] / 2.0
    rows = np.minimum(np.searchsorted(cum_a, mid, side="left"), cum_a.size - 1)
    cols = np.minimum(np.searchsorted(cum_b, mid, side="left"), cum_b.size - 1)
    return rows, cols, mid, mass


def _staircase(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """North-west-corner rule on two 1D discrete measures, both supports in
    stable ascending order.  Returns the two orders and ``_north_west``'s
    rows and columns (positions in those orders), midpoints and masses."""
    order_a, cum_a = _sorted_cdf(mu)
    order_b, cum_b = _sorted_cdf(nu)
    return (order_a, order_b) + _north_west(cum_a, cum_b)


def _monotone_result(mu, nu, c) -> OTResult | None:
    """1D quadratic cost: the staircase plan with duals walked along it.

    On sorted supports the quadratic cost table is Monge, so the
    north-west-corner staircase is an optimal plan (Hoffman, "On simple
    linear programming problems", 1963), and the cells of any monotone path
    through it form a dual basis.  The path runs from the first cell to the
    last, down and then across to each staircase cell in turn, so a
    diagonal step, where both cumulative masses meet, and an atom too light
    to carry a segment each get one zero-mass cell.  Setting
    phi_i + psi_j = c_ij along it, each step across from column j to j + 1
    on row i gives psi_{j+1} = psi_j + c_{i,j+1} - c_ij; one c-transform
    then gives phi, exactly feasible.  Returns None when the certified gap
    is over tolerance.
    """
    n, m = c.shape
    order_a, order_b, rows, cols, _, mass = _staircase(mu, nu)
    w = np.zeros((n, m))
    np.add.at(w, (order_a[rows], order_b[cols]), mass)
    # a cell alone in its row carries that row's weight exactly, as the
    # assignment path's cells do: a merged segment's mass, a difference of
    # cumulative sums, may be an ulp off it
    lone = np.flatnonzero(np.count_nonzero(w, axis=1) == 1)
    w[lone, np.argmax(w[lone], axis=1)] = mu.weights[lone]
    # the row on which the path crosses from column j to j + 1 is that of
    # the first path corner past column j
    corner_rows = np.concatenate([[0], rows, [n - 1]])
    corner_cols = np.concatenate([[0], cols, [m - 1]])
    cross = order_a[corner_rows[np.searchsorted(corner_cols, np.arange(m - 1),
                                                side="right")]]
    psi_sorted = np.concatenate(
        [[0.0], np.cumsum(c[cross, order_b[1:]] - c[cross, order_b[:-1]])])
    psi = np.empty(m)
    psi[order_b] = psi_sorted
    return _certified(mu, nu, c, w, psi, "monotone", 0, True)


def _relax(c, rows, cols, settle):
    """Column potentials psi_j <= psi_cols[p] + c_rows[p],j - c_rows[p],cols[p]
    on the support pairs p of cost table c by Bellman-Ford sweeps from 0, edge
    lengths C-ordered a row per column (the edge cols[p] -> cols[p] is exactly
    0).  Returns (psi, sweeps, None) once no psi_j drops by more than
    ``settle``, else, after one sweep per column, (None, sweeps, cycle): the
    pairs in cyclic order of the predecessor cycle reached from the largest
    drop, negative since each predecessor is the argmin of a strict drop."""
    lengths = np.subtract(c[rows].T, c[rows, cols], order="C")
    m = lengths.shape[0]
    nodes = np.arange(m)
    psi, pred = np.zeros(m), np.full(m, -1)
    cand = np.empty_like(lengths)
    for sweep in range(1, m + 1):
        np.add(lengths, psi[cols], out=cand)
        arg = np.argmin(cand, axis=1)
        best = cand[nodes, arg]
        drop = psi - best
        pred[drop > 0] = arg[drop > 0]
        psi = np.minimum(psi, best)
        if np.max(drop) <= settle:
            return psi, sweep, None
    node = np.argmax(drop)
    for _ in range(m):
        node = cols[pred[node]]
    cycle = [pred[node]]
    while cols[cycle[-1]] != node:
        cycle.append(pred[cols[cycle[-1]]])
    return None, m, cycle[::-1]


def _assignment_result(mu, nu, c) -> OTResult | None:
    """Uniform n x n instance: an optimal permutation with recovered duals.

    Complementary slackness phi_i + psi_sigma(i) = c_i,sigma(i) turns dual
    feasibility into ``_relax``'s constraints on the permutation's cells;
    optimality of sigma rules out negative cycles, so its sweeps settle
    within n.  Returns None when they do not or the gap is over tolerance.
    """
    rows, sigma = linear_sum_assignment(c)
    # around a zero-length cycle (duplicate atoms) rounding still shaves an
    # ulp or two off psi each sweep: drops this small are not shorter paths,
    # and the gap check below bounds what stopping on them costs
    settle = 1e-13 * (1.0 + np.max(np.abs(c)))
    psi, sweeps, _ = _relax(c, rows, sigma, settle)
    if psi is None:
        return None
    w = np.zeros(c.shape)
    w[rows, sigma] = mu.weights
    return _certified(mu, nu, c, w, psi, "assignment", sweeps, True)


def linprog(c, rows, cols, a, b):
    """The transportation LP min c @ x over x >= 0 whose variable k puts one
    unit into row sum ``rows[k]`` and one into column sum ``cols[k]``, the
    row sums equal to ``a`` and the column sums to ``b``: one HiGHS solve.

    The constraint matrix goes to HiGHS by columns, two unit entries each,
    laid out by numpy as int32 like a scipy CSC matrix, with ``_OPTIONS``:
    the solve ``scipy.optimize.linprog(method="highs")`` makes on that
    matrix with ``options=_HIGHS_OPTIONS``, without the wrapper's per-call
    option checks and per-column marginal loop.  Vectors that do not fit and
    indices out of range raise ValueError; a HiGHS error, a model status
    other than optimal, or a returned point outside its bounds or rows by
    more than linprog's tolerance raises RuntimeError.  Returns the point,
    the row duals (the ``a`` rows, then the ``b`` rows) and the simplex
    iteration count.  It keeps the name of the scipy function it replaces,
    under which perfbench's tracer times the HiGHS call in ``ot`` and
    ``invariance``.
    """
    # HiGHS reads every entry through raw pointers
    if ((np.ndim(c), np.ndim(a), np.ndim(b)) != (1, 1, 1)
            or not np.shape(rows) == np.shape(cols) == np.shape(c)):
        raise ValueError(f"LP vectors do not fit: shapes {np.shape(c)} of the costs, "
                         f"{np.shape(rows)} and {np.shape(cols)} of the indices")
    n, k = len(a), len(c)
    for name, index, size in (("row", rows, n), ("column", cols, len(b))):
        if k and (np.min(index) < 0 or np.max(index) >= size):
            raise ValueError(f"LP {name} index out of range [0, {size})")
    rhs = np.concatenate([a, b])
    h = _highs._Highs()
    if h.passOptions(_OPTIONS) == _highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the solver options")
    # column starts without the end marker, and every column continuous: the
    # numpy overload rejects an empty integrality array
    indices = np.column_stack([rows, n + np.asarray(cols)]).ravel().astype(np.int32)
    if h.passModel(k, len(rhs), 2 * k, _highs.MatrixFormat.kColwise,
                   _highs.ObjSense.kMinimize, 0.0, c, np.zeros(k), np.full(k, np.inf),
                   rhs, rhs, np.arange(0, 2 * k, 2, dtype=np.int32), indices,
                   np.ones(2 * k), np.zeros(k, dtype=np.int32)) == _highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the LP model")
    run_status = h.run()
    status = h.getModelStatus()
    if run_status == _highs.HighsStatus.kError or status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed: model status is "
                           f"{h.modelStatusToString(status)}")
    solution, info = h.getSolution(), h.getInfo()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    if (np.isnan(x).any() or np.isnan(info.objective_function_value)
            or np.isnan(row).any() or np.any(x < -_POINT_TOL)
            or np.any(np.abs(row - rhs) > _POINT_TOL)):
        raise RuntimeError("LP solver failed: the returned point misses its "
                           f"bounds or rows by more than {_POINT_TOL:.2e}")
    return x, np.array(solution.row_dual), info.simplex_iteration_count


def _lp_result(mu, nu, c) -> OTResult:
    """The transportation LP by column generation on a shortlist of cells.

    The shortlist starts from each row's and each column's ``_SHORTLIST``
    cheapest cells plus the north-west-corner cells in index order, which
    carry a feasible plan, so the restricted LP always has a solution.  Each
    round solves the LP on the listed cells alone; its row and column duals
    price every cell at c_ij - lam_i - lam_j, and each row and each column
    lists its single most negative unlisted cell.  Once no unlisted cell
    prices below -1e-12, the duals are feasible on the whole table and the
    restricted plan is optimal (Gottschlich and Schuhmacher, PLoS ONE
    9(10):e110214, 2014).  Cells are only added, so the loop ends within
    n * m cells; with every cell listed the first round is the full LP.
    """
    n, m = c.shape
    listed = np.zeros((n, m), dtype=bool)
    k = min(_SHORTLIST, m)
    listed[np.arange(n)[:, None], np.argpartition(c, k - 1, axis=1)[:, :k]] = True
    k = min(_SHORTLIST, n)
    listed[np.argpartition(c, k - 1, axis=0)[:k], np.arange(m)[None, :]] = True
    rows, cols, _, _ = _north_west(np.cumsum(mu.weights), np.cumsum(nu.weights))
    listed[rows, cols] = True
    iterations = 0
    while True:
        x, lam, nit = linprog(c[listed], *np.nonzero(listed), mu.weights, nu.weights)
        iterations += nit
        reduced = c - lam[:n, None] - lam[None, n:]
        reduced[listed] = np.inf
        best_col = np.argmin(reduced, axis=1)
        best_row = np.argmin(reduced, axis=0)
        add_rows = np.flatnonzero(reduced[np.arange(n), best_col] < -1e-12)
        add_cols = np.flatnonzero(reduced[best_row, np.arange(m)] < -1e-12)
        if add_rows.size == 0 and add_cols.size == 0:
            break
        listed[add_rows, best_col[add_rows]] = True
        listed[best_row[add_cols], add_cols] = True
    # clean tiny negatives from the solver; the c-transform makes its
    # column duals exactly feasible
    w = np.zeros((n, m))
    w[listed] = np.maximum(x, 0.0)
    return _certified(mu, nu, c, w, lam[n:], "lp", iterations, False)


def solve_discrete_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost=None) -> OTResult:
    """Exact solution of the discrete Monge-Kantorovich problem.

    Solves min sum_ij c_ij pi_ij over couplings of (mu, nu) and returns the
    optimal plan, a feasible dual pair and the optimal value with certified
    signed primal-dual gap |value - dual value| <= 1e-9 * (1 + |value|).
    The paths below are tried in this order, and each ends in the same
    certificate: phi is the c-transform of the path's psi, so the dual pair
    is exactly feasible.  A single-atom marginal gives the product plan,
    whose psi is the cost row of the single source atom, or 0 for a single
    target atom.  Two 1D measures under the default quadratic cost give the
    monotone (north-west-corner) plan on sorted atoms, with duals walked
    along its staircase; the Monge property behind it is known for the
    quadratic cost only, so a callable or table cost takes the general
    paths.  Two uniform measures of equal size give an assignment problem
    (Birkhoff-von Neumann): a permutation from ``linear_sum_assignment``,
    with duals recovered from its difference constraints.  Should the
    monotone or assignment certificate miss the gap tolerance, the instance
    goes on to the next path.  Everything else is the transportation LP
    (HiGHS), solved on a shortlist of cells: each row's and each column's
    cheapest cells and the north-west-corner cells, grown by the most
    negative reduced cost per row and per column until no cell prices below
    -1e-12.  Its final column duals give psi, so the certificate covers
    every cell, not just the listed ones, and ``iterations`` sums the
    simplex iterations of every round.  The LP alone is capped: an
    instance of more than ``MAX_LP_CELLS`` (1e6) cells that reaches it,
    weighted or with a fast path's certificate that failed, raises
    ValueError.
    """
    n, m = len(mu), len(nu)
    fast = [path for path, applies in (
        (_product_result, n == 1 or m == 1),
        (_monotone_result, mu.dim == 1 and nu.dim == 1 and _is_sqeuclidean(cost)),
        (_assignment_result, n == m and np.all(mu.weights == mu.weights[0])
         and np.all(nu.weights == nu.weights[0])),
    ) if applies]
    over_cap = n * m > MAX_LP_CELLS
    if over_cap and not fast:
        # bound for the LP: rejected before its cost table is built
        raise ValueError(f"instance {n}x{m} over the exact-solver size limit")
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("infeasible marginals: mass mismatch")
    c = cost_matrix(mu, nu, cost)
    for path in fast:
        res = path(mu, nu, c)
        if res is not None:
            return res
    if over_cap:
        raise ValueError(f"instance {n}x{m} over the exact-solver size limit")
    return _lp_result(mu, nu, c)


# ---------------------------------------------------------------------------
# one-dimensional closed-form transport


@dataclass(frozen=True)
class Monotone1DMap:
    """The monotone rearrangement between two 1D laws, tabulated on a shared
    quantile grid: x_k = Q_mu(u_k), y_k = Q_nu(u_k), with mass m_k per segment."""

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mass: np.ndarray
    w2sq: float

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.x, self.y)


def _midpoint_map(x: np.ndarray, y: np.ndarray) -> Monotone1DMap:
    """The monotone map pairing two quantile tables read at the same
    midpoints (k-1/2)/r, each of mass 1/r, with the mean squared gap as cost."""
    r = x.size
    return Monotone1DMap((np.arange(r) + 0.5) / r, x, y, np.full(r, 1.0 / r),
                         float(np.mean((y - x) ** 2)))


def quantile_transport_1d(mu, nu, resolution: int = DEFAULT_RESOLUTION) -> Monotone1DMap:
    """Optimal 1D transport T = Q_nu o F_mu with its quadratic cost.

    Each law is a 1D DiscreteMeasure, a Grid1D or a 1D Gaussian, which
    ``measures._coerce_grid`` tabulates at the given resolution.  For a pair
    of discrete measures the shared grid is the merged set of cumulative-mass
    breakpoints, the staircase of ``solve_discrete_ot``'s monotone path, so
    the cost is exact.  Otherwise both quantile functions are read at the
    uniform midpoint grid of the given resolution (a grid's through
    ``Grid1D.cdf_table``) and the cost is the mean of the squared value gaps.
    ``resolution`` must be an integer >= 2.
    """
    _require_integer("resolution", resolution, 2)
    mu, nu = (law if isinstance(law, DiscreteMeasure) else _coerce_grid(law, resolution)
              for law in (mu, nu))
    for law in (mu, nu):
        if isinstance(law, DiscreteMeasure) and law.dim != 1:
            raise ValueError("quantile transport needs 1D measures")

    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        order_a, order_b, rows, cols, mid, mass = _staircase(mu, nu)
        x = mu.points[order_a[rows], 0]
        y = nu.points[order_b[cols], 0]
        w2sq = float(mass @ (y - x) ** 2)
        return Monotone1DMap(mid, x, y, mass, w2sq)

    u = (np.arange(resolution) + 0.5) / resolution
    x, y = (_quantile_from_grid(law, resolution) if isinstance(law, Grid1D)
            else _discrete_quantile_at(law, u) for law in (mu, nu))
    return _midpoint_map(x, y)


# ---------------------------------------------------------------------------
# entropic solver


_ROUND_ROWS = 128  # rows per block of the rounding's rank-1 correction


def _round_to_marginals(p, a, b):
    """Project an almost-feasible plan onto the transportation polytope, in
    place (Altschuler, Weed and Rigollet, arXiv 1705.09634, Algorithm 2)."""
    r = p.sum(axis=1)
    p *= np.minimum(a / np.where(r > 0, r, 1.0), 1.0)[:, None]
    col = p.sum(axis=0)
    p *= np.minimum(b / np.where(col > 0, col, 1.0), 1.0)[None, :]
    ea = a - p.sum(axis=1)
    eb = b - p.sum(axis=0)
    s = ea.sum()
    if s > 1e-300:
        # the rank-1 correction ea eb^T / s, added a block of rows at a time
        # so that no second n x m table is allocated
        for lo in range(0, len(ea), _ROUND_ROWS):
            block = np.multiply.outer(ea[lo:lo + _ROUND_ROWS], eb)
            block /= s
            p[lo:lo + _ROUND_ROWS] += block
    return p


def _exponent(f, g, c, eps, out):
    """(f_i + g_j - c_ij) / eps, written into ``out``."""
    np.add.outer(f, g, out=out)
    out -= c
    out /= eps
    return out


def sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, cost=None, epsilon: float = 0.1,
             max_iter: int = 5000, tol: float = 1e-9) -> SinkhornResult:
    """Entropic-regularized transport: stabilized scaling with epsilon-annealing.

    The regularization is halved from max(C)/2 down to the target epsilon,
    warm-starting the potentials at each stage.  Iterations run on scaling
    vectors u, v against the kernel K_ij = exp((f_i + g_j - c_ij) / eps)
    recentered by the current potentials.  That kernel is built from the
    potentials once, at the first stage.  A stage ends by folding its
    scalings into the potentials, f <- f + eps log u and g <- g + eps log v,
    and since the next stage runs at eps / 2 its kernel is the current one
    scaled and squared, K' = (diag(u) K diag(v)) o (diag(u) K diag(v)),
    with no exponential taken.  Whenever a scaling leaves [e^-25, e^25] it
    is absorbed into the potentials and the kernel rebuilt from them, so
    arbitrarily small epsilon stays finite.  The plan is the last kernel
    scaled to diag(a u) K diag(v b), rounded onto the marginal polytope, so
    it is a valid Coupling; the pre-rounding total-variation violation and
    the iteration count are reported, and non-convergence comes back as
    ``converged=False``, never silently.  ``max_iter`` must be an integer
    >= 1 and ``tol`` finite and positive.
    """
    for name, value in (("epsilon", epsilon), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _require_integer("max_iter", max_iter, 1)
    c = cost_matrix(mu, nu, cost)
    a, b = mu.weights, nu.weights
    if len(mu) == 1 or len(nu) == 1:
        w = np.outer(a, b)
        plan = Coupling(mu, nu, w)
        return SinkhornResult(plan, float(np.sum(w * c)), True, 0, 0.0, epsilon,
                              np.zeros(len(mu)), np.zeros(len(nu)))
    c_scale = float(np.max(c))
    ladder = [epsilon]
    while ladder[-1] < c_scale / 2 and len(ladder) < 60:
        ladder.append(ladder[-1] * 2.0)
    ladder = ladder[::-1]

    f = np.zeros(len(mu))
    g = np.zeros(len(nu))
    total_iter = 0
    violation = np.inf
    # a scaling is folded into the potentials once |log u| or |log v| passes
    # 25, read off K (v b) and K^T (u a) before they are inverted
    lo_cap, hi_cap = np.exp(-25.0), np.exp(25.0)

    kernel = np.empty_like(c)  # every kernel, then the plan, in one buffer
    np.exp(_exponent(f, g, c, ladder[0], kernel), out=kernel)
    for stage, eps in enumerate(ladder):
        last_stage = stage == len(ladder) - 1
        stage_iters = max_iter if last_stage else 12
        if stage:
            kernel *= u[:, None]
            kernel *= v[None, :]
            np.square(kernel, out=kernel)
        u = np.ones(len(mu))
        v = np.ones(len(nu))
        ku = None  # K (v b) from the last row check, reused by the u-update
        for it in range(stage_iters):
            if ku is None:
                ku = kernel @ (v * b)
            u = 1.0 / np.maximum(ku, 1e-300)
            kv = kernel.T @ (u * a)
            v = 1.0 / np.maximum(kv, 1e-300)
            total_iter += 1
            absorb = (ku.min() < lo_cap or ku.max() > hi_cap
                      or kv.min() < lo_cap or kv.max() > hi_cap)
            ku = None  # stale now that v has moved, and after an absorb
            if absorb:
                f = f + eps * np.log(u)
                g = g + eps * np.log(v)
                np.exp(_exponent(f, g, c, eps, kernel), out=kernel)
                u = np.ones(len(mu))
                v = np.ones(len(nu))
                continue
            if last_stage and (it % 10 == 9 or it == stage_iters - 1):
                # columns are exact right after the v-update; the total
                # variation drift lives in the rows
                ku = kernel @ (v * b)
                row = a * u * ku
                violation = 0.5 * float(np.abs(row - a).sum())
                if violation <= tol:
                    break
        f = f + eps * np.log(u)
        g = g + eps * np.log(v)
    converged = violation <= tol
    kernel *= (u * a)[:, None]
    kernel *= (v * b)[None, :]
    p = _round_to_marginals(kernel, a, b)
    plan = Coupling(mu, nu, p)
    return SinkhornResult(plan, float(np.sum(p * c)), converged, total_iter,
                          float(violation), epsilon, f, g)


# ---------------------------------------------------------------------------
# plan diagnostics


def _barycenters(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row barycenters sum_j w_ij y_j / sum_j w_ij, one matrix-vector product
    per column: the bits of a matrix product move with the BLAS threads."""
    return np.stack([w @ col for col in y.T], axis=1) / w.sum(axis=1)[:, None]


def barycentric_map(plan: Coupling) -> np.ndarray:
    """Row-conditional barycenters T(x_i) = sum_j pi_ij y_j / sum_j pi_ij."""
    if np.any(plan.weights.sum(axis=1) <= 0):
        raise ValueError("zero-mass row; barycentric map undefined")
    return _barycenters(plan.weights, plan.target.points)


@dataclass(frozen=True)
class CycleReport:
    passed: bool
    sweeps: int
    slack: float
    violating_cycle: tuple | None


def check_cyclical_monotonicity(plan: Coupling) -> CycleReport:
    """Check cyclical monotonicity of the plan's support for quadratic cost.

    Every cycle on the whole support, by one Bellman-Ford relaxation shared
    with the assignment duals (Villani, *Optimal Transport*, 2009, Thm 5.10).
    A cycle's nodes lose its slack in total each sweep, so any cycle with
    slack below -tol times its length fails, at tol = ``CYCLE_TOL`` * (1 +
    max|c|) as on the assignment path; one comes back as (i, j) pairs in
    cyclic order with its shifted minus assigned cost.  k support pairs over m
    target atoms with k * m > ``MAX_LP_CELLS`` raise ValueError.
    """
    i_idx, j_idx = np.nonzero(plan.weights > CYCLE_SUPPORT_THRESHOLD)
    if i_idx.size * len(plan.target) > MAX_LP_CELLS:
        raise ValueError(f"support of {i_idx.size} pairs over the size limit")
    c = cost_matrix(plan.source, plan.target)
    _, sweeps, cycle = _relax(c, i_idx, j_idx, CYCLE_TOL * (1.0 + np.max(np.abs(c))))
    if cycle is None:
        return CycleReport(True, sweeps, 0.0, None)
    i_cyc, j_cyc = i_idx[cycle], j_idx[cycle]
    slack = np.sum(c[i_cyc, np.roll(j_cyc, -1)]) - np.sum(c[i_cyc, j_cyc])
    return CycleReport(False, sweeps, float(slack),
                       tuple(zip(i_cyc.tolist(), j_cyc.tolist())))


def graph_concentration(plan: Coupling, tol: float = 0.05) -> float:
    """Fraction of source mass whose conditional row law is within TV <= tol
    of a point mass.  Equals 1 exactly when the plan is induced by a map."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    r = plan.weights.sum(axis=1)
    mask = r > 0
    tv = 1.0 - plan.weights[mask].max(axis=1) / r[mask]
    return float(r[mask][tv <= tol].sum() / r[mask].sum())
