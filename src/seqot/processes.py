"""Structured-measure transport: product laws, tilted products, finite mixtures.

Product laws transport diagonally (coordinatewise monotone maps).  A bounded
density tilt on finitely many coordinates is handled by solving discrete
transport on the tilted block and comparing against the diagonal reference
and the block-decoupling entropy.  Exchangeable laws enter through their
finite mixture representation: outer transport between mixing weights with
the squared 1D transport cost as ground cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import _log_second_differences, log_concavity_constant
from .measures import (
    DEFAULT_RESOLUTION,
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    _coerce_grid,
    _logsumexp,
    _product_grid,
    _quantile_from_grid,
    _require_finite,
    _require_integer,
    _row_sum,
)
from .ot import (
    Coupling,
    _midpoint_map,
    barycentric_map,
    graph_concentration,
    quantile_transport_1d,
    solve_discrete_ot,
)

ENTROPY_RTOL = 1e-6  # relative slack of quasi_product_approx's entropy comparisons

__all__ = [
    "ProductSpec",
    "MixtureSpec",
    "Tilt",
    "QuasiProductSpec",
    "diagonal_transport",
    "quasi_product_approx",
    "definetti_ot",
    "classify_component",
    "mixture_entropy_bound_check",
    "HypothesisError",
]


class ProductSpec:
    """A product law: one 1D factor per coordinate, given as a Grid1D or a 1D
    Gaussian and stored as a Grid1D (a Gaussian tabulated by ``gaussian_grid``
    at its default resolution)."""

    def __init__(self, factors):
        factors = [_coerce_grid(f) for f in factors]
        if not factors:
            raise ValueError("at least one factor required")
        self.factors = factors
        self.dim = len(factors)

    def __repr__(self):
        return f"ProductSpec(dim={self.dim})"


@dataclass(frozen=True)
class DiagonalTransportReport:
    maps: list
    costs: np.ndarray
    total_cost: float
    tail_cost: float  # cost of the last coordinate; nonvanishing tail means
                      # the full-sequence cost diverges with the dimension


def diagonal_transport(p: ProductSpec, q: ProductSpec) -> DiagonalTransportReport:
    """Coordinatewise monotone transport between two product laws.

    Returns the per-coordinate maps and squared costs; the truncated total is
    reported together with the last-coordinate cost, which exhibits divergence
    of the sequence-space cost whenever it does not decay.
    """
    if p.dim != q.dim:
        raise ValueError("factor count mismatch")
    maps, costs = [], []
    for fp, fq in zip(p.factors, q.factors):
        m = quantile_transport_1d(fp, fq)
        maps.append(m)
        costs.append(m.w2sq)
    costs = np.array(costs)
    return DiagonalTransportReport(maps, costs, float(costs.sum()), float(costs[-1]))


# ---------------------------------------------------------------------------
# quasi-product approximation


class HypothesisError(ValueError):
    """A hypothesis check failed; carries the failing hypothesis number."""

    def __init__(self, number: int, detail: str):
        super().__init__(f"hypothesis {number} failed: {detail}")
        self.number = number


@dataclass(frozen=True)
class Tilt:
    """A positive bounded density tilt on the first ``coords`` coordinates.

    ``fn`` maps an (N, coords) array to positive values.  For target tilts,
    ``log_curvature_bound`` must certify a lower bound on the eigenvalues of
    -D^2 log fn (0 for log-concave tilts); it enters the uniform log-concavity
    constant of the tilted product.
    """

    coords: int
    fn: callable
    log_curvature_bound: float = 0.0

    def __post_init__(self):
        _require_integer("tilt coords", self.coords, 0)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        if self.coords == 0:
            return np.ones(block.shape[0])
        return np.asarray(self.fn(block[:, :self.coords]), dtype=float)


@dataclass(frozen=True)
class QuasiProductSpec:
    base: ProductSpec
    tilt: Tilt


def _block_cloud(spec: QuasiProductSpec, width: int, nodes: int):
    """Axes, points, tilted weights and tilt of the first ``width`` coordinates' grid."""
    # equal-weight discretization of each factor at its quantile midpoints
    axes = [_quantile_from_grid(spec.base.factors[k], nodes) for k in range(width)]
    points = _product_grid(axes)
    tilt_vals = spec.tilt(points)
    if np.any(tilt_vals <= 0):
        raise ValueError("tilt must be strictly positive")
    weights = (1.0 / points.shape[0]) * tilt_vals  # not tilt / N: other last bits
    return axes, points, weights / weights.sum(), tilt_vals


@dataclass(frozen=True)
class QuasiProductReport:
    k_constant: float
    contraction_bound: float
    tilt_bounds: tuple
    f_log_f: float
    diagonal_rows: list      # per n: the diagonal-vs-optimal entropy control
    pair_rows: list          # per (m, n): D(n, m) against (2/K) Ent
    passed: bool


def quasi_product_approx(mu_spec: QuasiProductSpec, nu_spec: QuasiProductSpec,
                         n_list, nodes: int = 12) -> QuasiProductReport:
    """Finite-dimensional transport of tilted products with entropy control.

    Both laws are a bounded density tilt of a product law, the tilt depending
    on finitely many leading coordinates.  Beyond the widest tilt the optimal
    map is exactly diagonal, so all solves happen on the tilted block.  For
    each n the report compares the diagonal reference map with the block
    transport under the tilt-weighted entropy; for each pair m < n it checks

        D(n, m) = int || T_tilde_m - T_n ||^2 dmu_n  <=  (2/K) Ent(mu_n | mu_m x mu_{m,n})

    with the decoupling entropy computed exactly on the discrete block.
    Hypothesis failures raise HypothesisError with the failing number; an
    ``n_list`` entry that is not an integer >= 1 is a ValueError.
    """
    _require_integer("nodes", nodes, 2)
    n_list = list(n_list)
    for n in n_list:
        _require_integer("n_list entry", n, 1)
    n_list = sorted(map(int, n_list))
    kf, kg = mu_spec.tilt.coords, nu_spec.tilt.coords
    width = max(kf, kg, 1)
    if mu_spec.base.dim < width or nu_spec.base.dim < width:
        raise ValueError("product specs shorter than the tilt width")

    # hypothesis 1: uniform log-concavity of the target factors (+ tilt curvature)
    try:
        factor_k = min(log_concavity_constant(f) for f in nu_spec.base.factors)
    except ValueError as e:
        raise HypothesisError(1, str(e))
    k_const = factor_k + min(0.0, nu_spec.tilt.log_curvature_bound)
    if k_const <= 0:
        raise HypothesisError(1, f"target log-concavity constant {k_const:.3g} <= 0")
    # hypothesis 2: contraction proxy for the inverse diagonal maps
    c0 = min(log_concavity_constant(f) for f in mu_spec.base.factors)
    c1 = max(_max_log_curvature(f) for f in nu_spec.base.factors)
    if c0 <= 0 or not np.isfinite(c1):
        raise HypothesisError(2, f"curvature bounds C0={c0:.3g}, C1={c1:.3g}")
    contraction = math.sqrt(c1 / c0)

    x_axes, x_pts, mu_w, f_vals = _block_cloud(mu_spec, width, nodes)
    y_axes, y_pts, nu_w, g_vals = _block_cloud(nu_spec, width, nodes)
    base_w = 1.0 / x_pts.shape[0]
    # hypothesis 3: 0 < c <= g <= C on the discretization
    g_lo, g_hi = float(np.min(g_vals)), float(np.max(g_vals))
    if g_lo <= 0 or not np.isfinite(g_hi):
        raise HypothesisError(3, f"target tilt bounds [{g_lo:.3g}, {g_hi:.3g}]")
    # hypothesis 4: f log f integrable on the discretization
    flogf = float(np.sum(base_w * f_vals * np.log(f_vals)))
    if not np.isfinite(flogf):
        raise HypothesisError(4, "f log f diverges on the discretization")

    mu_block = DiscreteMeasure(x_pts, mu_w, normalize=False)
    nu_block = DiscreteMeasure(y_pts, nu_w, normalize=False)
    block_res = solve_discrete_ot(mu_block, nu_block)
    t_block = barycentric_map(block_res.plan)

    # diagonal reference: per-axis monotone maps applied coordinatewise
    diag_maps = [quantile_transport_1d(mu_spec.base.factors[k], nu_spec.base.factors[k])
                 for k in range(width)]
    t_diag = np.stack([diag_maps[k](x_pts[:, k]) for k in range(width)], axis=1)

    # per-n entropy control of the diagonal-vs-optimal gap
    w_ratio = f_vals / np.maximum(nu_spec.tilt(t_block), 1e-300)
    wbar = float(np.sum(base_w * w_ratio))
    tilted = base_w * w_ratio / wbar
    lhs_n = 0.5 * k_const * float(np.sum(tilted * np.sum((t_diag - t_block) ** 2, axis=1)))
    ent_n = float(np.sum(tilted * np.log(w_ratio / wbar)))
    diagonal_rows = []
    for n in n_list:
        if n < width:
            diagonal_rows.append({"n": n, "skipped": "n smaller than the tilt width"})
        else:
            diagonal_rows.append({"n": n, "lhs": lhs_n, "entropy": ent_n,
                                  "passed": bool(lhs_n <= ent_n * (1 + ENTROPY_RTOL) + 1e-12)})

    # pairwise comparison: block map vs decoupled (T_m, T_{m,n}) with the
    # exact discrete decoupling entropy
    shape = (nodes,) * width
    split_terms = {}  # split -> (D, entropy); pairs with the same split share it
    pair_rows = []
    for mi, m in enumerate(n_list):
        for n in n_list[mi + 1:]:
            if n < width:
                pair_rows.append({"m": m, "n": n, "skipped":
                                  "n smaller than the tilt width"})
                continue
            if m < kg:
                pair_rows.append({"m": m, "n": n, "skipped":
                                  "target tilt wider than m; no common target"})
                continue
            split = min(m, width)
            if split == width:
                d_val, ent = 0.0, 0.0
            elif split in split_terms:
                d_val, ent = split_terms[split]
            else:
                axes_a = tuple(range(split))
                t_split = np.hstack([_sub_block_map(x_axes, y_axes, mu_w, nu_w, keep)
                                     for keep in (axes_a, tuple(range(split, width)))])
                d_val = float(np.sum(mu_w * np.sum((t_split - t_block) ** 2, axis=1)))
                ent = _decoupling_entropy(mu_w, shape, axes_a)
                split_terms[split] = d_val, ent
            bound = 2.0 / k_const * ent
            pair_rows.append({
                "m": m, "n": n, "D": d_val, "entropy": ent, "bound": bound,
                "passed": bool(d_val <= bound * (1 + ENTROPY_RTOL) + 1e-10),
            })
    passed = all(r.get("passed", True) for r in diagonal_rows + pair_rows)
    return QuasiProductReport(k_const, contraction, (g_lo, g_hi), flogf,
                              diagonal_rows, pair_rows, passed)


def _max_log_curvature(g: Grid1D) -> float:
    second = _log_second_differences(g)
    return float(np.max(second)) if second.size else np.inf


def _sub_block_map(x_axes, y_axes, mu_w, nu_w, keep):
    """Transport map between the marginals on the block axes ``keep``,
    evaluated back at every full-block atom (exact: the support is a product
    grid of the axes)."""
    shape = tuple(len(a) for a in x_axes)  # the target block's too: nodes per axis
    drop = tuple(a for a in range(len(shape)) if a not in keep)
    mu_sub, nu_sub = (DiscreteMeasure(_product_grid([axes[a] for a in keep]),
                                      w.reshape(shape).sum(axis=drop).ravel(),
                                      normalize=False)
                      for axes, w in ((x_axes, mu_w), (y_axes, nu_w)))
    tmap = barycentric_map(solve_discrete_ot(mu_sub, nu_sub).plan)
    # index of each full atom's projection in the marginal product grid
    full = np.unravel_index(np.arange(mu_w.size), shape)
    return tmap[np.ravel_multi_index([full[a] for a in keep], [shape[a] for a in keep])]


def _decoupling_entropy(weights: np.ndarray, shape: tuple, axes_a: tuple) -> float:
    """Exact Ent(W | W_A x W_B) for a product-grid weight table."""
    w = weights.reshape(shape)
    axes_b = tuple(a for a in range(len(shape)) if a not in axes_a)
    wa = w.sum(axis=axes_b, keepdims=True)
    wb = w.sum(axis=axes_a, keepdims=True)
    mask = w > 0
    ratio = w[mask] / (wa * wb + 1e-300)[mask]
    return float(np.sum(w[mask] * np.log(ratio)))


# ---------------------------------------------------------------------------
# De Finetti mixtures


class MixtureSpec:
    """A finite mixture of 1D laws: weights lambda_k plus component measures.

    Components may be Grid1D or 1D Gaussians.  Each is tabulated once, at the
    default resolution, for the moment readers (the indistinguishability
    warning and ``classify_component``) and for ``definetti_ot`` at that
    resolution; ``definetti_ot`` at another resolution tabulates again.
    Components that are indistinguishable through their first three moments
    trigger a warning (classification and outer transport remain well
    defined, the assignment simply stops being unique).
    """

    def __init__(self, weights, components):
        w = np.asarray(weights, dtype=float)
        _require_finite("weights", w)
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if len(components) != w.size:
            raise ValueError("weights/components length mismatch")
        self.weights = w
        self.weights.flags.writeable = False
        self.components = list(components)
        self._grids = [_coerce_grid(c) for c in self.components]
        self._warn_if_indistinguishable()

    def __len__(self):
        return self.weights.size

    def _grids_at(self, resolution):
        """The components as Grid1D at a resolution: the stored tables at the
        default one."""
        if resolution == DEFAULT_RESOLUTION:
            return self._grids
        return [_coerce_grid(c, resolution) for c in self.components]

    def _warn_if_indistinguishable(self):
        moments = [np.array([g.integrate(g.nodes ** p) for p in (1, 2, 3)])
                   for g in self._grids]
        for i in range(len(moments)):
            for j in range(i):
                if np.max(np.abs(moments[i] - moments[j])) < 1e-8:
                    warnings.warn(
                        f"mixture components {j} and {i} are indistinguishable "
                        "through their first three moments", stacklevel=3)
                    return


@dataclass(frozen=True)
class DeFinettiResult:
    outer_plan: Coupling
    value: float
    assignment: np.ndarray | None   # F as an index array when the plan is a permutation
    component_maps: list | None     # the induced diagonal 1D maps, one per component
    ground_cost: np.ndarray
    concentration: float


def definetti_ot(pi_mu: MixtureSpec, pi_nu: MixtureSpec,
                 resolution: int = DEFAULT_RESOLUTION) -> DeFinettiResult:
    """Outer transport between mixing measures with squared 1D transport cost.

    The ground cost W2^2(m_k, p_l) is ``quantile_transport_1d``'s midpoint
    rule on the components' quantile tables at the given resolution, an
    integer >= 2, a Gaussian component being tabulated at that resolution.
    When the optimal outer plan is a permutation, the
    induced assignment F and the per-component diagonal maps are returned;
    otherwise the plan's graph concentration < 1 is the reported evidence that
    no mixture-preserving map exists.
    """
    _require_integer("resolution", resolution, 2)
    qm, qn = ([_quantile_from_grid(g, resolution) for g in pi._grids_at(resolution)]
              for pi in (pi_mu, pi_nu))
    cost = np.array([[_midpoint_map(a, b).w2sq for b in qn] for a in qm])
    outer_mu, outer_nu = (DiscreteMeasure(np.arange(len(pi), dtype=float)[:, None],
                                          pi.weights, normalize=False)
                          for pi in (pi_mu, pi_nu))
    res = solve_discrete_ot(outer_mu, outer_nu, cost=cost)
    plan = res.plan
    conc = graph_concentration(plan, tol=1e-9)
    w = plan.weights
    row_nnz = (w > 1e-12 * np.max(w)).sum(axis=1)
    col_nnz = (w > 1e-12 * np.max(w)).sum(axis=0)
    assignment = None
    maps = None
    if np.all(row_nnz == 1) and np.all(col_nnz <= 1):
        assignment = np.argmax(w, axis=1)
        maps = [_midpoint_map(qm[k], qn[assignment[k]]) for k in range(len(pi_mu))]
    return DeFinettiResult(plan, res.value, assignment, maps, cost, conc)


@dataclass(frozen=True)
class ClassifyResult:
    component: int
    margin: float
    distances: np.ndarray
    empirical_averages: np.ndarray
    ambiguous: bool


def classify_component(path, mixture: MixtureSpec, test_functions) -> ClassifyResult:
    """Nearest mixture component in the test-function moment metric.

    Empirical averages of each test function along the path are compared with
    the component moments; the margin is the gap to the second-nearest
    component (a tie within 1e-12 is reported as ambiguous).
    """
    path = np.asarray(path, dtype=float).ravel()
    if path.size == 0:
        raise ValueError("empty path")
    fs = list(test_functions)
    emp = np.array([float(np.mean(f(path))) for f in fs])
    comp_moments = np.array([[g.integrate(f(g.nodes)) for f in fs]
                             for g in mixture._grids])
    dists = np.sqrt(np.sum((comp_moments - emp[None, :]) ** 2, axis=1))
    order = np.argsort(dists, kind="stable")
    best = int(order[0])
    margin = float(dists[order[1]] - dists[order[0]]) if dists.size > 1 else float("inf")
    return ClassifyResult(best, margin, dists, emp, bool(margin < 1e-12))


@dataclass(frozen=True)
class MixtureEntropyReport:
    estimate: float
    standard_error: float
    bound: float            # -log inf_k lambda_k
    n_samples: int
    n_skipped: int
    passed: bool


def _log_density_table(component, x: np.ndarray) -> np.ndarray:
    """Log density at x: closed form for a Gaussian, else the grid's (-inf
    where it vanishes)."""
    if isinstance(component, GaussianSpec):
        s = component.sigma
        m = float(component.mean[0])
        return -0.5 * ((x - m) / s) ** 2 - math.log(s * math.sqrt(2 * math.pi))
    dens = component.pdf(x)
    out = np.full_like(dens, -np.inf)
    pos = dens > 0
    out[pos] = np.log(dens[pos])
    return out


def mixture_entropy_bound_check(mixture: MixtureSpec, m: int, n: int,
                                samples: int, seed: int) -> MixtureEntropyReport:
    """Monte Carlo check of the block-decoupling entropy bound for mixtures.

    Samples the mixture law on n coordinates, evaluates the closed-form
    density ratio between the joint block law and the product of its first-m
    and last-(n-m) marginals, and checks that the mean log-ratio stays below
    -log(min_k lambda_k).  The ratio is bounded by that constant pointwise, so
    the assertion carries no statistical risk; zero-density samples are
    skipped and counted.  ``m`` and ``n`` are integers with 0 < m < n and
    ``samples`` an integer >= 2, ``seed`` an integer >= 0.

    Log densities are held component-major, one length-``samples`` slab per
    component and coordinate, and reduced by ``measures._row_sum`` and
    ``measures._logsumexp``: the same bits as numpy's row sums and scipy's
    ``logsumexp`` over a sample-major table, without reducing a short axis.
    """
    _require_integer("m", m, 1)
    _require_integer("n", n, 2)
    if not m < n:
        raise ValueError("need 0 < m < n")
    _require_integer("samples", samples, 2)  # two at least for a standard error
    _require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    k = len(mixture)
    comp_idx = rng.choice(k, size=samples, p=mixture.weights)
    coords = np.empty((n, samples))  # the draws, one row per coordinate
    for c in range(k):
        rows = np.flatnonzero(comp_idx == c)
        if rows.size == 0:
            continue
        comp = mixture.components[c]
        if isinstance(comp, GaussianSpec):
            block = (float(comp.mean[0])
                     + comp.sigma * rng.standard_normal((rows.size, n)))
        else:
            block = comp.sample((rows.size, n), rng)
        coords[:, rows] = block.T

    log_lam = np.log(mixture.weights)[:, None]
    # log p_k over the first m coords and log q_k over the rest, per component
    lp = np.empty((k, samples))
    lq = np.empty((k, samples))
    for c in range(k):
        table = _log_density_table(mixture.components[c], coords)
        lp[c] = _row_sum(table[:m])
        lq[c] = _row_sum(table[m:])
    lp += log_lam  # log lambda_k + log p_k, then + log q_k for the joint law
    joint = _logsumexp(lp + lq)
    first = _logsumexp(lp)
    lq += log_lam
    second = _logsumexp(lq)
    with np.errstate(invalid="ignore"):  # -inf - -inf at a skipped sample
        log_rho = joint - first - second
    valid = np.isfinite(log_rho)
    skipped = int(samples - valid.sum())
    vals = log_rho[valid]
    if vals.size == 0:
        raise ValueError("all samples hit zero density")
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    bound = float(-np.min(log_lam))
    return MixtureEntropyReport(est, se, bound, int(vals.size), skipped,
                                bool(est <= bound + 3 * se))
