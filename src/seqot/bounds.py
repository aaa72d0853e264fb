"""Numeric verification of the entropy-transport inequalities.

Relative entropy (closed form for Gaussians, trapezoid quadrature for 1D
grids, direct sums for discrete measures), the Talagrand-type lower bound on
the squared gap between transport maps onto a uniformly log-concave target,
and the shift-density estimates that control increments of the transport
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (DiscreteMeasure, GaussianSpec, Grid1D, _coerce_grid,
                       _distinct_rows, _find_rows, _invert_cdf)

# log-concavity certificate: grid nodes whose density is at most this are left out
CERT_MIN_DENSITY = 1e-12
# shift estimates: densities at most this count as vanishing
SHIFT_MIN_DENSITY = 1e-300
TALAGRAND_TOL = 1e-8      # slack below -TALAGRAND_TOL fails the inequality
LEMMA21_SUP_POINTS = 33   # s-grid of the suprema in lemma21_check
LEMMA21_REL_TOL = 1e-6    # relative slack allowed on each lemma-2.1 estimate
PROBE_SUP_POINTS = 17     # s-grid of the suprema in assumption_A_probe

__all__ = [
    "EntropyEstimate",
    "relative_entropy",
    "talagrand_gap",
    "lemma21_check",
    "assumption_A_probe",
    "log_concavity_constant",
    "TalagrandReport",
    "ShiftEstimateReport",
    "ShiftDecayReport",
]


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    standard_error: float
    method: str  # closed_form | quadrature | monte_carlo
    n_samples: int = 0

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "monte_carlo" and self.n_samples <= 0:
            raise ValueError("monte_carlo estimates must record a sample count")


def _kl_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    # masses of coincident atoms are pooled; terms summed in first-seen order
    p_first, p_label = _distinct_rows(mu.points)
    q_first, q_label = _distinct_rows(nu.points)
    p = np.bincount(p_label, weights=mu.weights).tolist()
    q = np.bincount(q_label, weights=nu.weights).tolist()
    hit = _find_rows(nu.points[q_first], mu.points[p_first])
    total = 0.0
    for w, k in zip(p, hit.tolist()):
        if w <= 0:
            continue
        v = q[k] if k >= 0 else 0.0
        if v <= 0:
            raise ValueError("support violation: an atom of mu lies outside supp(nu)")
        total += w * math.log(w / v)
    return total


def _kl_gaussian(mu: GaussianSpec, nu: GaussianSpec) -> float:
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    d = mu.dim
    cn = np.linalg.cholesky(nu.covariance)
    cm = np.linalg.cholesky(mu.covariance)
    logdet_n = 2.0 * np.sum(np.log(np.diag(cn)))
    logdet_m = 2.0 * np.sum(np.log(np.diag(cm)))
    sol = np.linalg.solve(nu.covariance, mu.covariance)
    dm = nu.mean - mu.mean
    quad = dm @ np.linalg.solve(nu.covariance, dm)
    return 0.5 * float(logdet_n - logdet_m - d + np.trace(sol) + quad)


def _as_grid_pair(mu, nu):
    """Coerce Grid1D/GaussianSpec pairs onto a common node set."""
    def nodes_of(obj):
        if isinstance(obj, Grid1D):
            return obj.nodes
        return None

    base = nodes_of(mu) if nodes_of(mu) is not None else nodes_of(nu)
    if base is None:
        raise TypeError("grid path needs at least one Grid1D input")

    def density_on(obj, x):
        if isinstance(obj, Grid1D):
            return obj.pdf(x)
        if isinstance(obj, GaussianSpec) and obj.dim == 1:
            s = obj.sigma
            return np.exp(-0.5 * ((x - obj.mean[0]) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        raise TypeError(f"cannot evaluate a density for {type(obj).__name__}")

    return base, density_on(mu, base), density_on(nu, base)


def _kl_grid(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    mask = f > 0
    if np.any(mask & (g <= 0)):
        raise ValueError("support violation: mu has density where nu vanishes")
    integrand = np.zeros_like(f)
    integrand[mask] = f[mask] * np.log(f[mask] / g[mask])
    return float(np.trapezoid(integrand, x))


def relative_entropy(mu, nu) -> EntropyEstimate:
    """Kullback-Leibler distance of mu from nu.

    Gaussians use the closed form, 1D grids trapezoid quadrature, discrete
    measures the direct sum over atoms; mu must be absolutely continuous with
    respect to nu on the shared representation.
    """
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        return EntropyEstimate(_kl_discrete(mu, nu), 0.0, "closed_form")
    if isinstance(mu, GaussianSpec) and isinstance(nu, GaussianSpec):
        return EntropyEstimate(_kl_gaussian(mu, nu), 0.0, "closed_form")
    x, f, g = _as_grid_pair(mu, nu)
    return EntropyEstimate(_kl_grid(x, f, g), 0.0, "quadrature")


# ---------------------------------------------------------------------------
# uniform log-concavity certificates


def _log_second_differences(g: Grid1D) -> np.ndarray:
    """Finite-difference (-log density)'' at the interior nodes whose node and
    both neighbours carry density above CERT_MIN_DENSITY, in node order."""
    x, rho = g.nodes, g.density
    mask = rho > CERT_MIN_DENSITY
    v = -np.log(np.where(mask, rho, 1.0))
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    core = mask[:-2] & mask[1:-1] & mask[2:]
    return 2.0 * (v[:-2][core] / (h1[core] * (h1[core] + h2[core]))
                  - v[1:-1][core] / (h1[core] * h2[core])
                  + v[2:][core] / (h2[core] * (h1[core] + h2[core])))


def log_concavity_constant(target) -> float:
    """The largest K with (-log density)'' >= K, for the built-in families.

    Gaussians: K = 1/sigma^2 exactly.  Grid densities: finite-difference
    second derivative of -log(density) over interior nodes where the density
    is above CERT_MIN_DENSITY.  Anything else is rejected rather than silently
    accepted.
    """
    if isinstance(target, GaussianSpec):
        if target.dim != 1:
            raise ValueError("1D targets only")
        return 1.0 / target.covariance[0, 0]
    if isinstance(target, Grid1D):
        second = _log_second_differences(target)
        finite = second[np.isfinite(second)]
        if finite.size == 0:
            raise ValueError("cannot certify log-concavity: no usable interior nodes")
        return float(np.min(finite))
    raise ValueError(
        f"no log-concavity certificate for {type(target).__name__}; "
        "recognized families: GaussianSpec, Grid1D")


# ---------------------------------------------------------------------------
# Talagrand-type gap


@dataclass(frozen=True)
class TalagrandReport:
    lhs: float           # relative entropy of mu w.r.t. nu
    rhs: float           # (K/2) * int (T_mu - T_nu)^2 dmu
    slack: float         # lhs - rhs; the inequality predicts slack >= 0
    K: float
    method: str
    passed: bool
    resolution: int = 0  # quadrature nodes; 0 for the closed-form path


def _grid_cdf(g: Grid1D):
    cdf = g.cdf_table()
    return g.nodes, cdf / cdf[-1]


def _quantile_eval(g: Grid1D, u: np.ndarray) -> np.ndarray:
    nodes, cdf = _grid_cdf(g)
    return _invert_cdf(nodes, cdf, np.clip(u, 0.0, 1.0))


def _transport_map_values(src: Grid1D, target: Grid1D, x: np.ndarray) -> np.ndarray:
    """T(x) = Q_target(F_src(x)) evaluated at the given points."""
    nodes, cdf = _grid_cdf(src)
    u = np.interp(x, nodes, cdf)
    return _quantile_eval(target, u)


def talagrand_gap(mu, nu, target, K: float) -> TalagrandReport:
    """Check Ent_nu(mu/nu) >= (K/2) int (T_mu - T_nu)^2 dmu for a K-uniformly
    log-concave 1D target, T_mu and T_nu the monotone maps onto the target.

    An all-Gaussian triple is evaluated in closed form (the maps are affine),
    anything else by quadrature on the tabulated grids.  K is validated
    against the certificate of the target family; an uncertified target is an
    error, never a silent pass.
    """
    cert = log_concavity_constant(target)
    if K > cert + 1e-9:
        raise ValueError(f"target is only {cert:.6g}-uniformly log-concave; K={K} not certified")

    gaussians = all(isinstance(o, GaussianSpec) and o.dim == 1 for o in (mu, nu, target))
    if gaussians:
        lhs = _kl_gaussian(mu, nu)
        sm, sn, st = mu.sigma, nu.sigma, target.sigma
        mm, mn, mt = float(mu.mean[0]), float(nu.mean[0]), float(target.mean[0])
        # T_mu(x) = mt + st (x - mm)/sm; difference is linear in x
        A = st * (1.0 / sm - 1.0 / sn)
        b = st * (mn / sn - mm / sm)
        rhs = 0.5 * K * (A * A * sm * sm + (A * mm + b) ** 2)
        method = "closed_form"
        resolution = 0
    else:
        gm, gn, gt = _coerce_grid(mu), _coerce_grid(nu), _coerce_grid(target)
        lhs = relative_entropy(gm, gn).value
        x = gm.nodes
        tdiff = _transport_map_values(gm, gt, x) - _transport_map_values(gn, gt, x)
        rhs = 0.5 * K * float(np.trapezoid(tdiff ** 2 * gm.density, x))
        method = "quadrature"
        resolution = int(x.size)
    slack = lhs - rhs
    return TalagrandReport(lhs, rhs, slack, K, method, slack >= -TALAGRAND_TOL,
                           resolution)


# ---------------------------------------------------------------------------
# shift-density estimates


def _check_conjugate(p: float, q: float):
    if p < 1 or q < 1 or abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ValueError(f"(p, q)=({p}, {q}) are not conjugate exponents")


def _shift_ratio_powers(g: Grid1D, s: float):
    """(x window, density on it, density ratio rho(x - s) / rho(x) = e^{beta_s})."""
    x, rho = g.nodes, g.density
    window = x >= x[0] + s
    xs = x[window]
    rho_x = rho[window]
    rho_shift = g.pdf(xs - s)
    if np.any(rho_x <= SHIFT_MIN_DENSITY):
        raise ValueError("density vanishes on the shift window")
    ratio = rho_shift / rho_x
    return xs, rho_x, ratio


@dataclass(frozen=True)
class ShiftEstimateReport:
    lhs_increment: float
    rhs_increment: float
    lhs_linearization: float
    rhs_linearization: float
    slack_increment: float
    slack_linearization: float
    passed: bool
    resolution: int = 0


def lemma21_check(mu: Grid1D, nu: Grid1D, t: float, epsilon: float,
                  p: float, q: float) -> ShiftEstimateReport:
    """Evaluate both shift-increment estimates for the transport potential.

    The potential is the antiderivative of the monotone map T of mu onto nu,
    so phi' = T and phi is convex.  Both sides of

      int |phi(x+t) - phi(x)|^{1+eps} dmu
        <= t^{1+eps} || |y|^{1+eps} ||_{L^p(nu)} sup_s || e^{beta_s} ||_{L^q(mu)}

      int (phi(x+t) - phi(x) - t phi'(x)) dmu
        <= t || y ||_{L^p(nu)} sup_s || e^{beta_s} - 1 ||_{L^q(mu)}

    are computed by trapezoid quadrature, with the shift window clipped to the
    grid interior and the suprema taken over an s-grid of LEMMA21_SUP_POINTS
    points.
    """
    _check_conjugate(p, q)
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = mu.nodes
    tmap = _transport_map_values(mu, nu, x)
    incr = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(x) * (tmap[:-1] + tmap[1:]))])
    phi = incr  # phi(x) = int_{x0}^x T

    window = x <= x[-1] - t
    xs = x[window]
    rho = mu.density[window]
    phi_x = phi[window]
    phi_xt = np.interp(xs + t, x, phi)
    t_x = tmap[window]

    lhs1 = float(np.trapezoid(np.abs(phi_xt - phi_x) ** (1.0 + epsilon) * rho, xs))
    lhs2 = float(np.trapezoid((phi_xt - phi_x - t * t_x) * rho, xs))

    y = nu.nodes
    m1 = float(np.trapezoid(np.abs(y) ** ((1.0 + epsilon) * p) * nu.density, y)) ** (1.0 / p)
    m2 = float(np.trapezoid(np.abs(y) ** p * nu.density, y)) ** (1.0 / p)

    sup_ratio = 0.0
    sup_dist = 0.0
    for s in np.linspace(0.0, t, LEMMA21_SUP_POINTS):
        xw, rho_w, ratio = _shift_ratio_powers(mu, s)
        sup_ratio = max(sup_ratio, float(np.trapezoid(ratio ** q * rho_w, xw)) ** (1.0 / q))
        sup_dist = max(sup_dist, float(np.trapezoid(np.abs(ratio - 1.0) ** q * rho_w, xw)) ** (1.0 / q))

    rhs1 = t ** (1.0 + epsilon) * m1 * sup_ratio
    rhs2 = t * m2 * sup_dist
    ok1 = lhs1 <= rhs1 * (1.0 + LEMMA21_REL_TOL) + 1e-300
    ok2 = lhs2 <= rhs2 * (1.0 + LEMMA21_REL_TOL) + 1e-15
    return ShiftEstimateReport(lhs1, rhs1, lhs2, rhs2,
                               rhs1 - lhs1, rhs2 - lhs2, ok1 and ok2,
                               int(x.size))


@dataclass(frozen=True)
class ShiftDecayReport:
    t_grid: np.ndarray
    p_values: np.ndarray       # sup_{0<=s<=t} int |e^{beta_s} - 1|^q dmu
    moment: float              # int |x|^{(1+eps)p} dnu
    moment_finite: bool
    decays_to_zero: bool       # heuristic: p(t_min) < 0.01 p(t_max)


def assumption_A_probe(mu: Grid1D, nu: Grid1D, p: float, q: float, epsilon: float,
                       t_grid) -> ShiftDecayReport:
    """Tabulate p(t) = sup_{0<=s<=t} int |e^{beta_s} - 1|^q dmu over the given
    shifts, together with the moment int |x|^{(1+eps)p} dnu, and report whether
    p(t) decays to zero numerically.  Report-only; divergence is flagged."""
    _check_conjugate(p, q)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0):
        raise ValueError("shifts must be nonnegative")
    y = nu.nodes
    moment_integrand = np.abs(y) ** ((1.0 + epsilon) * p) * nu.density
    moment = float(np.trapezoid(moment_integrand, y))
    moment_finite = bool(np.isfinite(moment))

    values = np.empty(t_grid.size)
    for k, t in enumerate(t_grid):
        sup = 0.0
        for s in np.linspace(0.0, t, PROBE_SUP_POINTS) if t > 0 else [0.0]:
            xw, rho_w, ratio = _shift_ratio_powers(mu, s)
            val = float(np.trapezoid(np.abs(ratio - 1.0) ** q * rho_w, xw))
            if not np.isfinite(val):
                raise ValueError("shift-density moment overflow on the given grid")
            sup = max(sup, val)
        values[k] = sup

    positive = t_grid > 0
    if positive.sum() >= 2 and values[positive][-1] > 0:
        decays = bool(values[positive][0] < 0.01 * values[positive][-1])
    else:
        decays = bool(np.all(values == 0.0))
    return ShiftDecayReport(t_grid, values, moment, moment_finite, decays)
