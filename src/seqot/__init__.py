"""seqot: finite-dimensional optimal transport for structured laws.

Exact and entropic discrete Kantorovich solvers with certified duality,
group-invariant transport (Haar averaging, orbit-reduced LPs), entropy and
transport-entropy inequalities, product/mixture transport, and periodic
lattice Gibbs experiments.
"""

from .measures import (
    DiscreteMeasure,
    GaussianSpec,
    Grid1D,
    empirical_from_samples,
    gaussian1d,
    gaussian_grid,
    gaussian_w2,
    mixture_grid,
)
from .ot import (
    Coupling,
    DualPair,
    barycentric_map,
    check_cyclical_monotonicity,
    graph_concentration,
    quantile_transport_1d,
    sinkhorn,
    solve_discrete_ot,
)
from .invariance import (
    GroupAction,
    closure_from_generators,
    cyclic_group,
    haar_project,
    invariant_duality_value,
    no_map_counterexample,
    solve_invariant_ot,
    symmetric_group,
    symmetrize_coupling,
    transitive_identity_check,
    trivial_group,
)
from .bounds import (
    EntropyEstimate,
    assumption_A_probe,
    lemma21_check,
    relative_entropy,
    talagrand_gap,
)
from .processes import (
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
from .gibbs import (
    GibbsParams,
    GibbsSpec,
    LatticeSample,
    cauchy_convergence_experiment,
    cyclic_symmetrize,
    empirical_map_to_gaussian,
    entropy_mn_estimate,
    equivariance_check,
    quartic_spec,
    sample_periodic_gibbs,
)

__version__ = "0.1.0"
