"""Business location equilibrium: four employee categories commuting by
foot or rail, one supplier category restocking the outlets.  The quality
measure describes where outlets operate at equilibrium; the transfer
functions are the salary maps.

The station layout follows the shipped example configuration (a vertical
line with two southern stations); densities are synthetic.

Run:  python3 demos/demo_business_location.py
"""

import numpy as np

from teamsolve import (HatBasis, build_box_partition, business_location_cost,
                       construct, make_oracle, moment_vector, random_cpwa,
                       run, transfer_eval)

rng = np.random.default_rng(99)
STATIONS = np.array([[0.0, 2.0], [0.0, 0.75], [0.0, -0.75],
                     [0.0, -1.5], [-1.5, -1.5]])
N = 5

city = [(-2, 2), (-2, 2)]
south = [(-2, 2), (-3, -2)]
spaces = [build_box_partition(city, (2, 2)) for _ in range(4)]
spaces.append(build_box_partition(south, (2, 1)))
bases = [HatBasis(s) for s in spaces]
measures = [random_cpwa(s, rng) for s in spaces]
z_space = build_box_partition(city, (2, 2))
z_basis = HatBasis(z_space)

model = business_location_cost(STATIONS, n_categories=N)
print("walk/train/restock rates: %.3f / %.3f / %.3f"
      % (model.c_walk, model.c_train, model.c_restock))

eps = 2e-4
gbar = [moment_vector(measures[i], bases[i]) for i in range(N)]
oracle = make_oracle(model, spaces, bases, z_space, z_basis)
result = run(model, gbar, spaces, bases, z_space, z_basis, oracle,
             eps_lsip=eps)
print("cutting plane: %d iterations, %d rows, certified gap %.2e"
      % (len(result.iterations), result.n_lp_rows, result.gap))

report = construct(result, model, measures, spaces, bases, z_space, z_basis,
                   mc_n=3000, mc_repetitions=4, seed=3)
print("total commuting + restocking cost bounds:")
print("  lower %.5f   pushforward UB %.5f   discrete UB %.5f"
      % (report.alpha_lb, report.alpha_tilde_ub, report.alpha_hat_ub))
print("certificates: eps_tilde %.4f <= eps_hat %.4f <= eps_theo %.3f"
      % (report.eps_tilde_sub, report.eps_hat_sub, report.eps_theo))
top = np.argsort(report.nu_hat.weights)[::-1][:3]
print("heaviest outlet locations:")
for j in top:
    print("  %s with mass %.3f" % (np.round(report.nu_hat.atoms[j], 3),
                                   report.nu_hat.weights[j]))

# salary maps at a few landmark points: they sum to zero by construction
landmarks = np.array([[0.0, -1.5], [0.0, 2.0], [1.5, 1.5]])
phis = np.stack([transfer_eval(model, i, landmarks, result.solution,
                               spaces, bases) for i in range(N)])
print("transfer functions at landmarks (rows: categories):")
print(np.round(phis, 4))
print("column sums (zero by construction):", np.round(phis.sum(0), 12))
