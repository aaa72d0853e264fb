"""Measure representations: weighted point clouds, 1D grids, Gaussians.

Everything here is a finite-dimensional stand-in for a law on a sequence space:
a fixed truncation dimension is chosen per experiment and the types below carry
the marginals.  All objects are immutable after construction and all operations
are pure.
"""

from __future__ import annotations

import math

import numpy as np

WEIGHT_TOL = 1e-12
PRUNE_TOL = 1e-15

__all__ = [
    "DiscreteMeasure",
    "GaussianSpec",
    "Grid1D",
    "empirical_from_samples",
    "gaussian_w2",
    "gaussian1d",
    "gaussian_grid",
    "mixture_grid",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _require_finite(name: str, values) -> None:
    """ValueError naming the field when any entry is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _require_integer(name: str, value, low: int) -> None:
    """ValueError naming the field unless it is an integer >= low."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


# ---------------------------------------------------------------------------
# reductions over a row of terms, in numpy's and scipy's arithmetic


def _row_sum(terms: np.ndarray):
    """Sum over the first axis in numpy's order for summing one row.

    A vector is that row.  A (k, ...) array holds one slab per term and sums
    like ``np.sum`` over the last axis of the term-last table, bit for bit:
    from +0.0, k < 8 terms one after another, else pairwise with numpy's
    8-way unrolled blocks of at most 128 terms.  Elementwise adds of whole
    slabs replace numpy's strided reduction over a short axis.
    """
    if terms.ndim == 1:
        return np.sum(terms)
    k = terms.shape[0]
    if k < 8:
        total = terms[0] + 0.0
        for t in terms[1:]:
            total += t
        return total
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    lanes = terms[:8].copy()
    full = k - k % 8
    for i in range(8, full, 8):
        lanes += terms[i:i + 8]
    total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
             + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
    for t in terms[full:]:
        total += t
    return total + 0.0


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) over the first axis, bit for bit
    ``scipy.special.logsumexp`` over the last axis of the term-last table.

    scipy's arithmetic: with M the maximum and m the count of terms tied at
    it, s is the sum of exp(a - M) over the other terms and the result is
    log1p(s / m) + log(m) + M; where that is not finite the result is
    log(sum(exp(a))).  Sums go through ``_row_sum``.  Tied terms are zeroed
    by a product with the untied mask: exact where M is finite, and where it
    is not the fallback replaces the result anyway.  Temporaries are updated
    in place, since a fresh large array costs page faults.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum.reduce(a, axis=0)
        tied = a == top
        m = np.count_nonzero(tied, axis=0)
        shifted = np.subtract(a, top)
        np.exp(shifted, out=shifted)
        shifted *= ~tied
        s = np.asarray(_row_sum(shifted))
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s, out=s)
        out += np.log(m)
        out += top
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(_row_sum(np.exp(a))), out)
    return out[()]


class DiscreteMeasure:
    """A probability measure supported on finitely many points of R^dim.

    Weights are normalized to sum to one; atoms with weight below 1e-15 are
    pruned after normalization (unless ``prune=False``, used when zero-weight
    atoms are needed to keep a support closed under a group action).
    Duplicate points are kept as separate atoms.
    """

    def __init__(self, points, weights=None, normalize=True, prune=True):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, dim) array")
        n = points.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights shape {weights.shape} != ({n},)")
        _require_finite("points", points)
        _require_finite("weights", weights)
        if np.any(weights < 0):
            raise ValueError("negative weight")
        total = weights.sum()
        if normalize:
            if total <= 0:
                raise ValueError("total mass must be positive")
            weights = weights / total
        elif abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        if prune and np.any(weights < PRUNE_TOL):
            keep = weights >= PRUNE_TOL
            points, weights = points[keep], weights[keep]
            weights = weights / weights.sum()
        self.points = _freeze(points)
        self.weights = _freeze(weights)
        self.dim = points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"DiscreteMeasure(n={len(self)}, dim={self.dim})"


class GaussianSpec:
    """Gaussian law N(mean, covariance); covariance symmetric positive definite."""

    def __init__(self, mean, covariance):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError("covariance shape mismatch")
        _require_finite("mean", mean)
        _require_finite("covariance", cov)
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance not symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0:
            raise ValueError("covariance not positive definite")
        self.mean = _freeze(mean)
        self.covariance = _freeze(cov)
        self.dim = d

    def __repr__(self):
        return f"GaussianSpec(dim={self.dim})"

    @property
    def sigma(self) -> float:
        """Standard deviation; 1D only."""
        if self.dim != 1:
            raise ValueError("sigma is defined for 1D Gaussians")
        return math.sqrt(self.covariance[0, 0])


class Grid1D:
    """A 1D density tabulated on a strictly increasing node grid.

    The trapezoid integral of ``density`` over ``nodes`` is 1 (normalized on
    construction).  One quadrature rule — trapezoid — is used everywhere.
    """

    def __init__(self, nodes, density):
        nodes = np.asarray(nodes, dtype=float)
        density = np.asarray(density, dtype=float)
        if nodes.ndim != 1 or nodes.shape != density.shape or nodes.size < 2:
            raise ValueError("nodes/density must be matching 1D arrays, length >= 2")
        _require_finite("nodes", nodes)
        _require_finite("density", density)
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(density < 0):
            raise ValueError("density must be nonnegative")
        total = np.trapezoid(density, nodes)
        if total <= 0:
            raise ValueError("density integrates to zero")
        density = density / total
        self.nodes = _freeze(nodes)
        self.density = _freeze(density)

    def __repr__(self):
        return f"Grid1D(n={self.nodes.size}, [{self.nodes[0]:g}, {self.nodes[-1]:g}])"

    def cdf_table(self) -> np.ndarray:
        """Cumulative trapezoid integral of the density at the nodes."""
        x, f = self.nodes, self.density
        incr = 0.5 * np.diff(x) * (f[:-1] + f[1:])
        return np.concatenate([[0.0], np.cumsum(incr)])

    def pdf(self, x) -> np.ndarray:
        return np.interp(x, self.nodes, self.density, left=0.0, right=0.0)

    def integrate(self, values_on_nodes) -> float:
        """Trapezoid integral of ``values * density`` over the grid."""
        return float(np.trapezoid(np.asarray(values_on_nodes) * self.density, self.nodes))

    def sample(self, size, rng) -> np.ndarray:
        """Inverse-CDF sampling from the tabulated density."""
        u = rng.random(size)
        return _invert_cdf(self.nodes, self.cdf_table(), u)


# ---------------------------------------------------------------------------
# atom index: rows of a point array compared byte for byte


def _row_keys(points: np.ndarray) -> np.ndarray:
    """Each row of a float array as one raw-bytes scalar, so equality is exact."""
    a = np.ascontiguousarray(points, dtype=float)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()


def _find_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in ``points`` of each row of ``queries`` (the last of equal rows),
    -1 where there is none."""
    keys = _row_keys(points)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    q = _row_keys(queries)
    pos = np.searchsorted(ordered, q, side="right") - 1
    return np.where(ordered[np.maximum(pos, 0)] == q, order[pos], -1)


def _distinct_rows(points: np.ndarray):
    """Index of the first row of each distinct value, in row order, and for
    every row the position of its value in that list."""
    _, first, inverse = np.unique(_row_keys(points), return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return np.sort(first), rank[inverse.ravel()]


def _invert_cdf(nodes: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Left-continuous generalized inverse of a piecewise-linear CDF."""
    u = np.asarray(u, dtype=float)
    total = cdf[-1]
    uu = np.clip(u * (total if abs(total - 1.0) > 1e-13 else 1.0), 0.0, total)
    idx = np.searchsorted(cdf, uu, side="left")
    idx = np.clip(idx, 0, cdf.size - 1)
    lo = np.maximum(idx - 1, 0)
    denom = cdf[idx] - cdf[lo]
    frac = np.where(denom > 0, (uu - cdf[lo]) / np.where(denom > 0, denom, 1.0), 0.0)
    out = nodes[lo] + frac * (nodes[idx] - nodes[lo])
    # exact hits of a flat CDF run: take the leftmost node (inf of the level set)
    exact = cdf[idx] == uu
    out = np.where(exact, nodes[idx], out)
    return out


def _quantile_from_grid(g: Grid1D, resolution: int) -> np.ndarray:
    """Generalized inverse CDF of ``g`` at the midpoints (k-1/2)/resolution."""
    return _invert_cdf(g.nodes, g.cdf_table(), (np.arange(resolution) + 0.5) / resolution)


def _sorted_cdf(m: DiscreteMeasure):
    """Stable ascending order of a 1D discrete measure's atoms, with the
    cumulative mass up to each atom in that order."""
    order = np.argsort(m.points[:, 0], kind="stable")
    return order, np.cumsum(m.weights[order])


def _discrete_quantile_at(m: DiscreteMeasure, u) -> np.ndarray:
    """Left-continuous generalized inverse of the step CDF of m at u."""
    order, cum = _sorted_cdf(m)
    idx = np.minimum(np.searchsorted(cum, u, side="left"), cum.size - 1)
    return m.points[order[idx], 0]


# ---------------------------------------------------------------------------
# operations


def empirical_from_samples(samples) -> DiscreteMeasure:
    """Uniform empirical measure on the given sample points.

    Duplicate points are retained as separate atoms of weight 1/n.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        raise ValueError("empty sample list")
    if pts.ndim != 2:
        raise ValueError("samples must share a common dimension")
    return DiscreteMeasure(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]),
                           normalize=False, prune=False)


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def gaussian_w2(a: GaussianSpec, b: GaussianSpec) -> float:
    """Squared Bures-Wasserstein distance between two Gaussian laws.

    ||m_a - m_b||^2 + tr(Sa + Sb - 2 (Sa^1/2 Sb Sa^1/2)^1/2); for diagonal
    covariances this is the shift term plus sum_i (sigma_a,i - sigma_b,i)^2.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    shift = float(np.sum((a.mean - b.mean) ** 2))
    ra = _sqrtm_psd(a.covariance)
    cross = _sqrtm_psd(ra @ b.covariance @ ra)
    bures = float(np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * np.trace(cross))
    return shift + max(bures, 0.0)


# ---------------------------------------------------------------------------
# convenience constructors used throughout the experiments

DEFAULT_RADIUS = 10.0
DEFAULT_RESOLUTION = 10_000


def gaussian1d(mean: float, sigma: float) -> GaussianSpec:
    return GaussianSpec([mean], [[sigma ** 2]])


def gaussian_grid(mean: float, sigma: float, *,
                  resolution: int = DEFAULT_RESOLUTION) -> Grid1D:
    """N(mean, sigma^2) tabulated on mean +- DEFAULT_RADIUS*sigma."""
    return mixture_grid([1.0], [mean], [sigma], resolution=resolution)


def _coerce_grid(obj, resolution: int = DEFAULT_RESOLUTION) -> Grid1D:
    """A 1D law with a density as a Grid1D: grids pass through, 1D Gaussians
    are tabulated by ``gaussian_grid``; a Gaussian of another dimension is a
    ValueError naming it."""
    if isinstance(obj, Grid1D):
        return obj
    if isinstance(obj, GaussianSpec):
        if obj.dim != 1:
            raise ValueError(f"a 1D law is needed, got a GaussianSpec of dimension {obj.dim}")
        return gaussian_grid(float(obj.mean[0]), obj.sigma, resolution=resolution)
    raise TypeError(f"cannot use {type(obj).__name__} as a 1D law with density")


def mixture_grid(weights, means, sigmas, lo: float = None, hi: float = None,
                 resolution: int = DEFAULT_RESOLUTION) -> Grid1D:
    """Gaussian mixture density on a common grid covering all components: one
    finite weight (>= 0, positive sum), mean and sigma (> 0) each, finite lo < hi
    and an integer ``resolution`` >= 2, else a ValueError naming the field."""
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if weights.ndim != 1 or not weights.shape == means.shape == sigmas.shape:
        raise ValueError(f"weights, means and sigmas need one entry per component, "
                         f"got shapes {weights.shape}, {means.shape} and {sigmas.shape}")
    for name, values in (("weights", weights), ("means", means), ("sigmas", sigmas)):
        _require_finite(name, values)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be >= 0 with a positive sum")
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be > 0")
    _require_integer("resolution", resolution, 2)
    if lo is None:
        lo = float(np.min(means - DEFAULT_RADIUS * sigmas))
    if hi is None:
        hi = float(np.max(means + DEFAULT_RADIUS * sigmas))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"lo and hi must be finite with lo < hi, got {lo} and {hi}")
    x = np.linspace(lo, hi, resolution)
    dens = np.zeros_like(x)
    for w, mu, s in zip(weights / weights.sum(), means, sigmas):
        dens += w * np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    return Grid1D(x, dens)
