"""2-Wasserstein barycenter of three synthetic continuous densities,
solved end to end: cutting-plane bounds, the discrete and pushforward
barycenter candidates, and the sub-optimality certificates.

Bounds are reported on the squared-W2 scale (the cost's measure-dependent
constant is tracked and added back).

Run:  python3 demos/demo_barycenter.py
"""

import numpy as np

from teamsolve import (HatBasis, barycenter_cost, build_box_partition,
                       construct, make_oracle, moment_vector, random_cpwa, run)

rng = np.random.default_rng(7)
N = 3
counts = (4, 4)

spaces = [build_box_partition([(0, 1), (0, 1)], counts) for _ in range(N)]
bases = [HatBasis(s) for s in spaces]
measures = [random_cpwa(s, rng) for s in spaces]
z_space = build_box_partition([(0, 1), (0, 1)], counts)
z_basis = HatBasis(z_space)

model = barycenter_cost([1.0 / N] * N, spaces, z_space, measures)
print("objective constant (sum of weighted second moments): %.6f"
      % model.shift)

eps = 2e-4
gbar = [moment_vector(measures[i], bases[i]) for i in range(N)]
oracle = make_oracle(model, spaces, bases, z_space, z_basis)
result = run(model, gbar, spaces, bases, z_space, z_basis, oracle,
             eps_lsip=eps)
print("cutting plane: %d iterations, certified gap %.2e"
      % (len(result.iterations), result.gap))

report = construct(result, model, measures, spaces, bases, z_space, z_basis,
                   mc_n=20000, mc_repetitions=8, seed=7)
print("barycenter objective bounds (squared-W2 scale):")
print("  lower bound      %.6f" % report.alpha_lb)
print("  pushforward UB   %.6f  (+- %.1e)" % (report.alpha_tilde_ub,
                                              report.alpha_tilde_se))
print("  discrete UB      %.6f  (+- %.1e)" % (report.alpha_hat_ub,
                                              report.alpha_hat_se))
print("certificates: eps_tilde %.5f <= eps_hat %.5f <= eps_theo %.3f"
      % (report.eps_tilde_sub, report.eps_hat_sub, report.eps_theo))
print("discrete barycenter support: %d atoms (bound %d)"
      % (report.nu_hat.n_atoms, report.sparsity_bound))

streams = report.sample_streams(np.random.default_rng(8), 5000)
zb = streams["Z_bar"]
print("pushforward barycenter mass center: (%.3f, %.3f)"
      % (zb[:, 0].mean(), zb[:, 1].mean()))
