"""Periodic-lattice experiments: ring samples, shift equivariance of the
empirical transport map onto the Gaussian, and the entropy bound on the gap
between the ring map and the decoupled block maps.

Runs a reduced version of the full experiment (about a minute).
"""

import numpy as np

from seqot import (
    cauchy_convergence_experiment,
    cyclic_symmetrize,
    empirical_map_to_gaussian,
    entropy_mn_estimate,
    equivariance_check,
    quartic_spec,
    sample_periodic_gibbs,
)

spec = quartic_spec(coupling=0.1)  # raises GibbsAssumptionError on a failed probe
sample = sample_periodic_gibbs(spec, n=3, num_samples=8000, seed=42)
print(f"ring of {sample.num_sites} sites, {sample.states.shape[0]} states; "
      f"acceptance {np.round(sample.acceptance, 2)}")
print(f"per-site second moments {np.round((sample.states ** 2).mean(axis=0), 4)}")

ent = entropy_mn_estimate(spec, sample, m=1)
print(f"decoupling entropy (m=1): {ent.value:.5f} +- {ent.standard_error:.5f}")

# equivariance of the empirical map on a symmetrized sample
base = sample_periodic_gibbs(spec, n=2, num_samples=250, seed=7)
sym = cyclic_symmetrize(base)
target = np.random.default_rng(9).standard_normal((250, 5))
target = np.concatenate([np.roll(target, k, axis=1) for k in range(5)])
emap = empirical_map_to_gaussian(sym.states, target, epsilon=0.1, seed=3, tol=1e-6)
rep = equivariance_check(emap)
print(f"\nshift-equivariance discrepancy per coordinate: "
      f"{np.array2string(rep.delta, precision=2)}")

# the entropy-transport bound, with the zero-coupling control for the
# estimation bias of empirical maps
cauchy = cauchy_convergence_experiment(spec, m_list=[1], n=2, samples=3000,
                                       epsilon=0.1, seed=13, ot_points=500,
                                       replicates=3)
row = cauchy.rows[0]
print(f"\nD_raw={row.d_raw:.4f}  D_null={row.d_null:.4f}  "
      f"D_corrected={row.d_corrected:+.4f} (+-{row.se_d:.4f})")
print(f"entropy bound 2*Ent = {row.bound:.5f}; within bound: {row.passed}")
