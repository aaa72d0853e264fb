"""Periodic-lattice Gibbs measures: MCMC sampling and transport experiments.

The finite-volume measure on sites -n..n is proportional to
exp(-sum_i V(x_i) + W(x_i, x_{i+1})) on the ring (the site after n is -n).
Samples come from single-site random-walk Metropolis with per-site step
adaptation during burn-in only.  Empirical transport onto the standard
Gaussian uses the entropic solver (exact LP below a size threshold), and the
convergence experiment checks the entropy-transport bound between the ring
map and the decoupled block maps, with a matched zero-coupling control run
for the estimator bias.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import EntropyEstimate
from .measures import (_distinct_rows, _find_rows, _logsumexp, _require_integer,
                       empirical_from_samples)
from .ot import (_barycenters, _sq_dist_table, barycentric_map, sinkhorn,
                 solve_discrete_ot)

PROBE_BOX = 4.0         # the assumption probes sample [-PROBE_BOX, PROBE_BOX]
PROBE_POINTS = 41       # grid points per axis of the envelope probes
LP_THRESHOLD = 300      # empirical maps of at most this many points use the exact LP
EVAL_CHUNK = 1024       # query rows per block of EmpiricalMap.evaluate
EQUIVARIANCE_BATCH = 32  # batch length of the equivariance standard error
MAP_TOL = 1e-4          # Sinkhorn tolerance of the convergence experiment's maps
MAP_MAX_ITER = 4000     # Sinkhorn iteration cap of every empirical map

__all__ = [
    "GibbsParams",
    "GibbsSpec",
    "GibbsAssumptionError",
    "LatticeSample",
    "sample_periodic_gibbs",
    "cyclic_symmetrize",
    "EmpiricalMap",
    "empirical_map_to_gaussian",
    "equivariance_check",
    "entropy_mn_estimate",
    "cauchy_convergence_experiment",
    "quartic_spec",
]


class GibbsAssumptionError(ValueError):
    """A structural assumption on the potentials failed its probe."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


@dataclass(frozen=True)
class GibbsParams:
    J: float
    L: float
    N: float
    sigma: float
    A: float
    B: float
    C: float

    def __post_init__(self):
        for name in ("J", "L", "N", "sigma", "A", "B", "C"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"parameter {name} must be finite and positive")
        if self.N < 2 or self.L < 1:
            raise ValueError("need N >= 2 and L >= 1")


def _horner(c: np.ndarray, x, y=None):
    """sum_k c[k] x^k, or sum_kl c[k, l] x^k y^l with x broadcast against y.

    Horner's rule in numpy.polynomial's operation order (``c[-1] + x*0``,
    then ``c[k] + r*x``; for two variables the pass in x over the rows of c,
    then the pass in y), so every value equals ``polyval``/``polyval2d``'s
    bit for bit, without their per-call dispatch.
    """
    x = np.asarray(x)
    c = c.reshape(c.shape + (1,) * x.ndim)
    r = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        r = c[k] + r * x
    if y is None:
        return r
    y = np.asarray(y)
    s = r[-1] + y * 0
    for k in range(len(r) - 2, -1, -1):
        s = r[k] + s * y
    return s


class GibbsSpec:
    """Polynomial site potential V and symmetric polynomial pair potential W.

    ``v_coeffs`` are ascending coefficients of V; ``w_coeffs`` is a square
    coefficient matrix with W(x, y) = sum c[k, l] x^k y^l, required symmetric.
    The growth envelopes (pair bound with exponent N-1, site bound with
    exponent L, coercivity A|x|^{N+sigma} - B) are probed on a sampled box and
    violations raise GibbsAssumptionError naming the failing assumption.
    """

    def __init__(self, v_coeffs, w_coeffs, params: GibbsParams):
        self.v_coeffs = np.asarray(v_coeffs, dtype=float)
        w = np.atleast_2d(np.asarray(w_coeffs, dtype=float))
        if w.shape[0] != w.shape[1]:
            raise GibbsAssumptionError("pair potential symmetry",
                                       "coefficient matrix must be square")
        self.w_coeffs = w
        self.params = params
        self._vp_coeffs = npoly.polyder(self.v_coeffs)
        self._wx_coeffs = npoly.polyder(self.w_coeffs, axis=0)
        self._check_assumptions()

    # potential evaluation -------------------------------------------------
    def v(self, x):
        return _horner(self.v_coeffs, x)

    def vp(self, x):
        return _horner(self._vp_coeffs, x)

    def w(self, x, y):
        return _horner(self.w_coeffs, x, y)

    def wx(self, x, y):
        return _horner(self._wx_coeffs, x, y)

    @property
    def coupled(self) -> bool:
        return bool(np.any(self.w_coeffs != 0.0))

    def _check_assumptions(self):
        p = self.params
        rng = np.random.default_rng(0)
        xr = rng.uniform(-PROBE_BOX, PROBE_BOX, size=200)
        yr = rng.uniform(-PROBE_BOX, PROBE_BOX, size=200)
        if np.max(np.abs(self.w(xr, yr) - self.w(yr, xr))) > 1e-12:
            raise GibbsAssumptionError("pair potential symmetry",
                                       "W(x, y) != W(y, x)")
        g = np.linspace(-PROBE_BOX, PROBE_BOX, PROBE_POINTS)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        env_pair = p.J * (1.0 + np.abs(gx) + np.abs(gy)) ** (p.N - 1.0)
        if np.any(np.abs(self.w(gx, gy)) > env_pair + 1e-12):
            raise GibbsAssumptionError("pair growth envelope",
                                       "|W| exceeds J(1+|x|+|y|)^(N-1) on the probe box")
        if np.any(np.abs(self.wx(gx, gy)) > env_pair + 1e-12):
            raise GibbsAssumptionError("pair growth envelope",
                                       "|dW/dx| exceeds J(1+|x|+|y|)^(N-1) on the probe box")
        env_site = p.C * (1.0 + np.abs(g)) ** p.L
        if np.any(np.abs(self.v(g)) > env_site + 1e-12):
            raise GibbsAssumptionError("site growth envelope",
                                       "|V| exceeds C(1+|x|)^L on the probe box")
        env_site_d = p.C * (1.0 + np.abs(g)) ** (p.L - 1.0)
        if np.any(np.abs(self.vp(g)) > env_site_d + 1e-12):
            raise GibbsAssumptionError("site growth envelope",
                                       "|V'| exceeds C(1+|x|)^(L-1) on the probe box")
        coercive = self.vp(g) * g - (p.A * np.abs(g) ** (p.N + p.sigma) - p.B)
        if np.any(coercive < -1e-12):
            raise GibbsAssumptionError("coercivity envelope",
                                       "V'(x) x < A|x|^(N+sigma) - B on the probe box")

    def zero_coupling_clone(self) -> "GibbsSpec":
        return GibbsSpec(self.v_coeffs, np.zeros((1, 1)), self.params)


def quartic_spec(coupling: float = 0.0) -> GibbsSpec:
    """V(x) = x^4 with the bilinear pair term coupling * x y."""
    w = np.zeros((2, 2))
    w[1, 1] = coupling
    return GibbsSpec([0, 0, 0, 0, 1], w,
                     GibbsParams(J=max(abs(coupling), 0.01), L=4, N=3, sigma=1,
                                 A=3.9, B=1.0, C=4.0))


# ---------------------------------------------------------------------------
# MCMC


NUM_CHAINS = 64
BURN_IN = 400           # sweeps per chain before any state is kept
THINNING = 2            # sweeps between kept states
STEP_INIT = 0.8
ADAPT_INTERVAL = 25     # sweeps per adaptation window during burn-in
TARGET_ACCEPT = 0.44


@dataclass
class LatticeSample:
    n: int
    states: np.ndarray           # (num_samples, 2n+1)
    seed: int
    acceptance: np.ndarray       # per site, measured after adaptation froze
    ess: np.ndarray              # per coordinate
    steps: np.ndarray
    tuning_ok: bool

    @property
    def num_sites(self) -> int:
        return self.states.shape[1]


def ring_bonds(num_sites: int) -> list:
    """Nearest-neighbour bonds of the periodic ring (wraps the last site to the
    first; a single site couples to itself, per the periodic convention)."""
    if num_sites == 1:
        return [(0, 0)]
    return [(i, i + 1) for i in range(num_sites - 1)] + [(num_sites - 1, 0)]


def path_bonds(num_sites: int) -> list:
    return [(i, i + 1) for i in range(num_sites - 1)]


def _site_neighbors(num_sites: int, bonds) -> list:
    nbrs = [[] for _ in range(num_sites)]
    for a, b in bonds:
        if a == b:
            nbrs[a].append((a, 2.0))  # self-bond counts twice in the energy diff
        else:
            nbrs[a].append((b, 1.0))
            nbrs[b].append((a, 1.0))
    return nbrs


def _site_runs(num_sites: int, bonds) -> list:
    """The sweep order's maximal runs ``(lo, hi)`` of consecutive sites no
    two of which share a bond: a run ends where the next site bonds to one
    of its sites.  No bonds give one run of every site."""
    nbrs = _site_neighbors(num_sites, bonds)
    runs, lo = [], 0
    for i in range(1, num_sites):
        if any(lo <= j < i for j, _ in nbrs[i]):
            runs.append((lo, i))
            lo = i
    runs.append((lo, num_sites))
    return runs


def _sample_sites(spec: GibbsSpec, num_sites: int, bonds, num_samples: int,
                  seeds, null_seeds=()) -> list:
    """Metropolis samplers for exp(-sum V(x_i) - sum_bonds W) on a bond graph,
    one per seed, run in lockstep; returns one (states, acceptance, steps)
    per seed of ``seeds``, then per seed of ``null_seeds``, whose lanes
    sample the zero-coupling clone of ``spec`` (the same V, no W).

    Each seed owns a lane of ``NUM_CHAINS`` independent chains (the MCMC
    constants are read at each call) and its own random stream, drawn in the
    order a sampler run alone draws it, so every lane is bitwise the output
    of its seed and spec alone.  Site sweeps
    are sequential in effect: a sweep splits into the maximal runs of
    consecutive sites no two of which share a bond of the coupled lanes' W
    (``_site_runs``), and as no site of a run sees another's move, updating
    a run at once gives the bits of updating its sites in turn.  An
    uncoupled spec sweeps as one run, a coupled ring or path as runs of one
    site.  Each lane draws a sweep's numbers first, in site order, a site's
    normals before its uniforms, as a site-by-site sweep draws them.  The
    state is held site-major, ``(sites, lanes * chains)``, and each run
    evaluates V once on its stacked [proposal; current] rows for all lanes
    at once, and W per site against all the site's neighbours, on the
    leading column block of the coupled lanes only.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence(s))
            for s in [*seeds, *null_seeds]]
    lanes = len(rngs)
    nbrs = _site_neighbors(num_sites, bonds)
    others = [np.array([j for j, _ in nb if j != i], dtype=np.intp)
              for i, nb in enumerate(nbrs)]
    chains = NUM_CHAINS
    width = lanes * chains
    keep_per_chain = -(-num_samples // chains)  # ceil
    steps = np.full((num_sites, lanes), STEP_INIT)
    chain_steps = np.repeat(steps, chains, axis=1)  # refreshed at each adaptation
    x = np.empty((num_sites, width))  # site-major; lane k is the k-th column block
    for rng, lane in zip(rngs, np.split(x, lanes, axis=1)):
        lane[:] = rng.standard_normal((chains, num_sites)).T
    x *= 0.5
    noise = np.empty((num_sites, width))
    unif = np.empty((num_sites, width))
    acc = np.empty((num_sites, width), dtype=bool)
    draws = [(rng.standard_normal, z, rng.random, u)
             for z_row, u_row in zip(noise, unif)
             for rng, z, u in zip(rngs, np.split(z_row, lanes), np.split(u_row, lanes))]

    # W acts on the columns of spec's own lanes alone; elementwise operations
    # on a column slice give the bits of the same operations on a lane alone
    coupled = len(seeds) * chains if spec.coupled else 0
    runs = []
    for lo, hi in _site_runs(num_sites, bonds if coupled else ()):
        # [proposal; current] of the run's sites, one contiguous block per run:
        # V on a run's slice of a (2, sites, width) block runs slower
        pair = np.empty((2, hi - lo, width))
        heads = [(i, pair[:, i - lo, :coupled]) for i in range(lo, hi)] if coupled else []
        runs.append((heads, pair, *pair, x[lo:hi], chain_steps[lo:hi], noise[lo:hi],
                     unif[lo:hi], acc[lo:hi]))
    # acceptance is summed sweep by sweep as the fraction k / chains, which
    # fixes its rounding whatever the chain count
    accept_count = np.zeros((num_sites, lanes))
    accept_total = np.zeros((num_sites, lanes))

    def sweep(adapting: bool):
        for normal, z, uniform, u in draws:
            normal(out=z)
            uniform(out=u)
        for heads, pair, proposal, current, rows, step_rows, z, u, run_acc in runs:
            # step * z + x, the bits of x + step * z
            np.multiply(step_rows, z, out=proposal)
            np.add(proposal, rows, out=proposal)
            current[:] = rows
            v = spec.v(pair)
            delta = v[0] - v[1]
            for t, (i, head) in enumerate(heads):
                delta_w = delta[t, :coupled]
                w_nb = iter(spec.w(head[:, None], x[others[i], :coupled]).swapaxes(0, 1))
                for j, mult in nbrs[i]:
                    if j == i:
                        w_self = spec.w(head, head)
                        delta_w += mult / 2.0 * (w_self[0] - w_self[1])
                    else:
                        w_j = next(w_nb)
                        delta_w += mult * (w_j[0] - w_j[1])
            np.less(u, np.exp(np.minimum(-delta, 0.0)), out=run_acc)
            np.copyto(rows, proposal, where=run_acc)
        tally = accept_count if adapting else accept_total
        tally += np.add.reduce(acc.reshape(num_sites, lanes, chains), axis=2) / chains

    for s in range(BURN_IN):
        sweep(adapting=True)
        if (s + 1) % ADAPT_INTERVAL == 0:
            rate = accept_count / ADAPT_INTERVAL
            steps *= np.exp(0.8 * (rate - TARGET_ACCEPT))
            chain_steps[:] = np.repeat(steps, chains, axis=1)
            accept_count[:] = 0.0

    kept = np.empty((lanes, keep_per_chain, chains, num_sites))
    for k in range(keep_per_chain):
        for _ in range(THINNING):
            sweep(adapting=False)
        kept[:, k] = x.T.reshape(lanes, chains, num_sites)
    acceptance = accept_total / max(keep_per_chain * THINNING, 1)
    return [(kept[k].reshape(keep_per_chain * chains, num_sites)[:num_samples],
             acceptance[:, k].copy(), steps[:, k].copy()) for k in range(lanes)]


def _batch_means(x: np.ndarray, b: int):
    """Means of the consecutive length-b batches along axis 0, a partial last
    batch dropped, together with the rows those batches cover."""
    nb = x.shape[0] // b
    trimmed = x[: nb * b]
    return trimmed.reshape((nb, b) + x.shape[1:]).mean(axis=1), trimmed


def _ess_per_coordinate(states: np.ndarray, chains: int = None) -> np.ndarray:
    """Batch-means effective sample size per coordinate (batch size ~ sqrt(T)).

    When the chain count is known, rows are de-interleaved first so batches
    run along each chain's own time axis; pooling across chains would hide
    the serial correlation and overstate the ESS.
    """
    n, d = states.shape
    if chains and n % chains == 0 and n // chains >= 4:
        series = states.reshape(n // chains, chains, d)
    else:
        series = states[:, None, :]  # one pooled chain
    b = max(int(math.sqrt(series.shape[0])), 2)
    if series.shape[0] // b < 2:
        return np.full(d, float(n))
    bm, trimmed = _batch_means(series, b)
    var_bm = bm.var(axis=0, ddof=1).mean(axis=0)
    var_x = trimmed.var(axis=0, ddof=1).mean(axis=0)
    tau = np.where(var_x > 0, b * var_bm / np.maximum(var_x, 1e-300), 1.0)
    return n / np.maximum(tau, 1.0)


def sample_periodic_gibbs(spec: GibbsSpec, n: int, num_samples: int,
                          seed: int) -> LatticeSample:
    """Sample the periodic-ring measure on sites -n..n.

    Per-site random-walk Metropolis at the module's MCMC constants, with step
    adaptation during burn-in only (frozen afterwards, preserving detailed
    balance).  Identical seeds give bitwise-identical output.  A
    post-adaptation acceptance rate outside [0.05, 0.95] is flagged as a
    tuning failure and warned about, never silently accepted.  ValueError
    names an ``n`` not an integer >= 0, ``num_samples`` >= 1 or ``seed`` >= 0.
    """
    _require_integer("n", n, 0)
    _require_integer("num_samples", num_samples, 1)
    _require_integer("seed", seed, 0)
    num_sites = 2 * n + 1
    [lane] = _sample_sites(spec, num_sites, ring_bonds(num_sites), num_samples,
                           [seed])
    return _lattice_sample(n, seed, lane)


def _lattice_sample(n: int, seed: int, lane) -> LatticeSample:
    """The ring sample of one sampler lane, with its ESS and tuning flag; a
    tuning failure is warned about at the caller of the caller."""
    states, acceptance, steps = lane
    tuning_ok = bool(np.all((acceptance >= 0.05) & (acceptance <= 0.95)))
    if not tuning_ok:
        warnings.warn(f"MCMC tuning failure: acceptance rates {acceptance}",
                      stacklevel=3)
    return LatticeSample(n, states, seed, acceptance,
                         _ess_per_coordinate(states, NUM_CHAINS), steps, tuning_ok)


def cyclic_symmetrize(sample: LatticeSample) -> LatticeSample:
    """Make the empirical measure exactly shift-invariant by replacing each
    state with all its cyclic shifts."""
    states = np.concatenate([np.roll(sample.states, s, axis=1)
                             for s in range(sample.num_sites)])
    return LatticeSample(sample.n, states, sample.seed, sample.acceptance,
                         _ess_per_coordinate(states), sample.steps, sample.tuning_ok)


# ---------------------------------------------------------------------------
# empirical transport onto the Gaussian


@dataclass
class EmpiricalMap:
    """A transport map estimated at sample points, with out-of-sample extension.

    Entropic estimates extend smoothly through the dual potential on the
    target cloud; exact-LP estimates extend by nearest source point.
    """

    source_points: np.ndarray
    values: np.ndarray
    method: str                       # "lp" | "entropic"
    epsilon: float = 0.0
    target_points: np.ndarray = None
    g_potential: np.ndarray = None
    log_b: np.ndarray = None

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        dim = self.source_points.shape[1]
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValueError(f"points of shape {x.shape}: the map takes points "
                             f"of dimension {dim}")
        if self.method == "entropic":
            out = np.empty((x.shape[0], self.target_points.shape[1]))
            for lo in range(0, x.shape[0], EVAL_CHUNK):
                # softmax over the target cloud of (g_j - c_ij) / eps + log b_j,
                # shifted by its row maximum so the largest weight is 1
                w = _sq_dist_table(x[lo:lo + EVAL_CHUNK], self.target_points)
                np.subtract(self.g_potential, w, out=w)
                w /= self.epsilon
                w += self.log_b
                w -= w.max(axis=1, keepdims=True)
                np.exp(w, out=w)
                out[lo:lo + EVAL_CHUNK] = _barycenters(w, self.target_points)
            return out
        # nearest-source extension for exact plans
        out = np.empty((x.shape[0], self.values.shape[1]))
        for lo in range(0, x.shape[0], EVAL_CHUNK):
            c = _sq_dist_table(x[lo:lo + EVAL_CHUNK], self.source_points)
            out[lo:lo + EVAL_CHUNK] = self.values[np.argmin(c, axis=1)]
        return out


def _merged_barycenters(points: np.ndarray, plan) -> np.ndarray:
    """Barycentric map of the plan with equal source atoms merged, at every row.

    An optimal plan may split the targets of a repeated point among its
    copies in any way; the merged plan's row is the same for all of them, so
    every copy gets the same value and the nearest-source extension no
    longer depends on which copy ``argmin`` picks.
    """
    first, group = _distinct_rows(points)
    merged = np.zeros((first.size, plan.weights.shape[1]))
    np.add.at(merged, group, plan.weights)
    return _barycenters(merged, plan.target.points)[group]


def empirical_map_to_gaussian(points, gaussian_samples, epsilon: float = None,
                              seed: int = 0, tol: float = 1e-6) -> EmpiricalMap:
    """Estimate the transport map from an empirical cloud onto the standard
    Gaussian (entropic plan + barycentric projection; exact plan below the
    size threshold, its map averaged over the copies of each repeated source
    point).  ``gaussian_samples`` is either a target draw count or an
    explicit cloud; unequal counts are equalized by seeded subsampling.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9a)))
    if isinstance(gaussian_samples, (int, np.integer)):
        target = rng.standard_normal((int(gaussian_samples), d))
    else:
        target = np.atleast_2d(np.asarray(gaussian_samples, dtype=float))
    n_s, n_t = points.shape[0], target.shape[0]
    if n_s != n_t:
        keep = min(n_s, n_t)
        if n_s > keep:
            points = points[rng.choice(n_s, size=keep, replace=False)]
        else:
            target = target[rng.choice(n_t, size=keep, replace=False)]
    if epsilon is None:
        sub = points[:: max(1, points.shape[0] // 400)]
        subt = target[:: max(1, target.shape[0] // 400)]
        epsilon = 0.05 * float(np.median(_sq_dist_table(sub, subt)))
    mu = empirical_from_samples(points)
    nu = empirical_from_samples(target)
    if points.shape[0] <= LP_THRESHOLD:
        res = solve_discrete_ot(mu, nu)
        return EmpiricalMap(points, _merged_barycenters(points, res.plan), "lp")
    res = sinkhorn(mu, nu, epsilon=epsilon, max_iter=MAP_MAX_ITER, tol=tol)
    if not res.converged:
        raise RuntimeError(
            f"entropic solver did not converge: violation {res.marginal_violation:.2e}")
    return EmpiricalMap(points, barycentric_map(res.plan), "entropic",
                        epsilon=epsilon, target_points=target,
                        g_potential=res.g, log_b=np.log(nu.weights))


@dataclass(frozen=True)
class EquivarianceReport:
    delta: np.ndarray        # per-coordinate squared L2 discrepancy
    standard_error: np.ndarray
    max_delta: float
    max_standard_error: float


def equivariance_check(emp_map: EmpiricalMap) -> EquivarianceReport:
    """Empirical check that the map intertwines the cyclic shift.

    Compares the i-th component of the map after the shift against the
    (i-1)-th component before it, in squared empirical L2 per coordinate.  On
    a fully symmetrized sample the shifted states are themselves sample
    points, so the comparison uses in-sample values and any discrepancy is
    solver asymmetry; on unsymmetrized samples the out-of-sample extension is
    used and a genuinely non-invariant law shows up as a large delta.
    """
    pts = emp_map.source_points
    n, d = pts.shape
    if d == 1:
        # the shift is the identity map on a single site: vacuous pass
        zero = np.zeros(1)
        return EquivarianceReport(zero, zero, 0.0, 0.0)
    if n < 2:
        raise ValueError("equivariance check needs at least 2 sample points")
    shifted = np.roll(pts, 1, axis=1)
    idx = _find_rows(pts, shifted)
    if np.all(idx >= 0):
        t_shift = emp_map.values[idx]
    else:
        t_shift = emp_map.evaluate(shifted)
    diff_sq = (t_shift - np.roll(emp_map.values, 1, axis=1)) ** 2
    delta = diff_sq.mean(axis=0)
    bm, _ = _batch_means(diff_sq, min(EQUIVARIANCE_BATCH, n // 2))
    se = bm.std(axis=0, ddof=1) / math.sqrt(bm.shape[0])
    return EquivarianceReport(delta, se, float(delta.max()), float(se.max()))


# ---------------------------------------------------------------------------
# decoupling entropy


def _z_values(spec: GibbsSpec, states: np.ndarray, m: int, n: int) -> np.ndarray:
    """Z = -W(x_m, x_-m) + W(x_m, x_{m+1}) + W(x_{-m-1}, x_-m) on ring states."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    pos = lambda lattice: lattice + n
    xm = states[:, pos(m)]
    xmm = states[:, pos(-m)]
    xm1 = states[:, pos(m + 1)]
    xmm1 = states[:, pos(-m - 1)]
    return -spec.w(xm, xmm) + spec.w(xm, xm1) + spec.w(xmm1, xmm)


def _jackknife_batches(values: np.ndarray, stat):
    n = values.shape[0]
    b = max(int(math.sqrt(n)), 2)
    nb = n // b if n // b >= 2 else 2
    splits = np.array_split(np.arange(n), nb)
    full = stat(values)
    leave = np.array([stat(np.delete(values, s)) for s in splits])
    se = math.sqrt(max((nb - 1) / nb * np.sum((leave - leave.mean()) ** 2), 0.0))
    return full, se


def entropy_mn_estimate(spec: GibbsSpec, sample: LatticeSample, m: int):
    """Monte Carlo decoupling entropy between the n-ring law and the product
    of the m-ring law with the complementary block law.

    The explicit reweighting by e^Z decouples the two blocks, so the entropy
    equals log E[e^Z] - E[Z] under the ring law (nonnegative by Jensen).  The
    log-normalizer uses log-mean-exp; the standard error is a batch jackknife.
    """
    z = _z_values(spec, sample.states, m, sample.n)

    def stat(v):
        return float(_logsumexp(v) - math.log(v.size) - v.mean())

    value, se = _jackknife_batches(z, stat)
    return EntropyEstimate(value, se, "monte_carlo", n_samples=z.size)


# ---------------------------------------------------------------------------
# the convergence experiment


def _block_slots(n: int, m: int):
    """Array slots of the inner ring and of the complementary block (in the
    open-chain order used by the block sampler)."""
    inner = list(range(n - m, n + m + 1))
    right = list(range(n + m + 1, 2 * n + 1))  # lattice m+1..n
    left = list(range(0, n - m))               # lattice -n..-m-1
    return inner, right + left


@dataclass(frozen=True)
class CauchyRow:
    m: int
    d_raw: float
    d_null: float
    d_corrected: float
    se_d: float
    entropy: float
    entropy_se: float
    bound: float
    per_site: float
    passed: bool


@dataclass(frozen=True)
class CauchyReport:
    n: int
    rows: list
    replicates: int
    ot_points: int
    epsilon: float
    passed: bool


def _replicate_d(spec: GibbsSpec, ring_states, n: int, m_list, ot_points: int,
                 replicates: int, epsilon: float, seeds) -> list:
    """Per-replicate estimates of D(m) = E || T_n - (T_m ⊕ T_{m,n}) ||^2, one
    dict m -> list per run: the run of ``spec``, then its zero-coupling
    control, with ring states and seeds given in that order."""
    d = 2 * n + 1

    def blocks(bonds, sites, step, shift):
        # every replicate's block of both runs is a lane of one sampler, the
        # control's lanes after the main run's
        main, null = ([s + step * r + shift for r in range(replicates)] for s in seeds)
        lanes = _sample_sites(spec, sites, bonds(sites), ot_points, main,
                              null_seeds=null)
        return lanes[:replicates], lanes[replicates:]

    rings = {m: blocks(ring_bonds, 2 * m + 1, 7919, 13 * m) for m in m_list}
    paths = {m: blocks(path_bonds, d - (2 * m + 1), 15485863, 19 * m) for m in m_list}
    out = []
    for run, (states, seed) in enumerate(zip(ring_states, seeds)):
        d_run = {m: [] for m in m_list}
        for r in range(replicates):
            block = states[r * ot_points: (r + 1) * ot_points]
            t_n = empirical_map_to_gaussian(block, ot_points, epsilon=epsilon,
                                            seed=seed + 101 * r, tol=MAP_TOL)
            for m in m_list:
                inner, outer = _block_slots(n, m)
                t_inner = empirical_map_to_gaussian(rings[m][run][r][0], ot_points,
                                                    epsilon=epsilon, tol=MAP_TOL,
                                                    seed=seed + 104729 * r + 17 * m)
                t_outer = empirical_map_to_gaussian(paths[m][run][r][0], ot_points,
                                                    epsilon=epsilon, tol=MAP_TOL,
                                                    seed=seed + 32452843 * r + 23 * m)
                tilde = np.empty((block.shape[0], d))
                tilde[:, inner] = t_inner.evaluate(block[:, inner])
                tilde[:, outer] = t_outer.evaluate(block[:, outer])
                diff = t_n.values - tilde
                d_run[m].append(float(np.mean(np.sum(diff ** 2, axis=1))))
        out.append(d_run)
    return out


def cauchy_convergence_experiment(spec: GibbsSpec, m_list, n: int, samples: int,
                                  epsilon: float, seed: int, ot_points: int = 2000,
                                  replicates: int = 3) -> CauchyReport:
    """Test the entropy-transport bound D(m) <= 2 Ent on the periodic ring.

    T_n is the empirical map of the ring law onto the Gaussian; the block map
    glues the m-ring map with the complementary chain map.  Because the
    empirical maps carry estimation bias far above the entropy scale, the
    identical pipeline runs on the zero-coupling clone of the spec, for which
    the true D is exactly 0, and the bias-corrected statistic

        D_corr(m) = D_raw(m) - D_null(m)

    is compared against 2 Ent + 3 SE with replicate-based standard errors
    (disjoint sample blocks per replicate).  Raw, null and corrected values
    are all reported.

    The two runs sample as lanes of the same lockstep samplers, each lane on
    its own seed: one call for both rings, then per m one ring-block and one
    path-block call over all replicates of both runs, 1 + 2 |m_list| calls
    in all.  Every lane is bitwise the sample of its seed and spec alone, so
    the report does not depend on this fusion.  A tuning failure of either
    ring run is warned about, the main run's first.  ValueError names an
    ``n`` or ``seed`` not an integer >= 0, ``samples`` or ``ot_points`` >= 1,
    ``replicates`` >= 2 (a standard error needs two), or ``epsilon`` > 0.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    _require_integer("n", n, 0)
    _require_integer("samples", samples, 1)
    _require_integer("ot_points", ot_points, 1)
    _require_integer("replicates", replicates, 2)
    _require_integer("seed", seed, 0)
    m_list = sorted(int(m) for m in m_list)
    if m_list and (m_list[0] < 0 or m_list[-1] >= n):
        raise ValueError("m_list entries must satisfy 0 <= m < n")
    if replicates * ot_points > samples:
        raise ValueError("need replicates * ot_points <= samples")
    # common random numbers couple the control run to the main run and shrink
    # the variance of the corrected statistic; when the spec is already
    # uncoupled the control must instead be an independent replication
    null_seed = seed if spec.coupled else seed + 424243
    num_sites = 2 * n + 1
    main, null = _sample_sites(spec, num_sites, ring_bonds(num_sites), samples,
                               [seed], null_seeds=[null_seed])
    sample = _lattice_sample(n, seed, main)
    null_sample = _lattice_sample(n, null_seed, null)
    d_raw, d_null = _replicate_d(spec, (sample.states, null_sample.states), n,
                                 m_list, ot_points, replicates, epsilon,
                                 (seed, null_seed))

    rows = []
    for m in m_list:
        raw = np.array(d_raw[m])
        null = np.array(d_null[m])
        if spec.coupled:
            # replicate r of the control shares all seeds with replicate r of
            # the main run, so the difference is paired
            diff = raw - null
            corrected = float(diff.mean())
            se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        else:
            corrected = float(raw.mean() - null.mean())
            se = math.sqrt(raw.var(ddof=1) / raw.size + null.var(ddof=1) / null.size)
        ent = entropy_mn_estimate(spec, sample, m)
        bound = 2.0 * ent.value
        total_se = math.sqrt(se ** 2 + (2.0 * ent.standard_error) ** 2)
        rows.append(CauchyRow(
            m=m, d_raw=float(raw.mean()), d_null=float(null.mean()),
            d_corrected=corrected, se_d=se, entropy=ent.value,
            entropy_se=ent.standard_error, bound=bound,
            per_site=corrected / (2 * m + 1),
            passed=bool(corrected <= bound + 3.0 * total_se)))
    return CauchyReport(n, rows, replicates, ot_points, epsilon,
                        all(r.passed for r in rows))
