"""Preference matching with capped affine costs: N categories of agents
with scalar preferences, goods described by two quality variables.  Each
agent scores a good by projecting its quality onto a personal direction;
cost is zero inside a tolerance band, grows linearly, then saturates.

Demonstrates scaling the category count and reading the certificates.

Run:  python3 demos/demo_capped_affine.py
"""

import time

import numpy as np

from teamsolve import (HatBasis, build_box_partition, capped_affine_cost,
                       construct, make_oracle, moment_vector, random_cpwa,
                       run)

rng = np.random.default_rng(321)

for N in (4, 8):
    t0 = time.time()
    s = rng.normal(size=(N, 2))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    kappa1 = rng.uniform(0.05, 0.15, N)
    kappa2 = kappa1 + rng.uniform(0.2, 0.5, N)
    model = capped_affine_cost(s, kappa1, kappa2)

    pref = build_box_partition([(0, 1)], (4,))
    spaces = [pref] * N
    bases = [HatBasis(pref)] * N
    measures = [random_cpwa(pref, rng) for _ in range(N)]
    z_space = build_box_partition([(0, 1), (0, 1)], (3, 3))
    z_basis = HatBasis(z_space)

    eps = 1e-4
    gbar = [moment_vector(measures[i], bases[i]) for i in range(N)]
    oracle = make_oracle(model, spaces, bases, z_space, z_basis)
    result = run(model, gbar, spaces, bases, z_space, z_basis, oracle,
                 eps_lsip=eps)
    report = construct(result, model, measures, spaces, bases, z_space,
                       z_basis, mc_n=4000, mc_repetitions=5, seed=N)
    print("N=%2d: %2d iterations, lb %.5f <= tilde %.5f <= hat %.5f, "
          "eps_hat %.5f (theo %.3f), %.1fs"
          % (N, len(result.iterations), report.alpha_lb,
             report.alpha_tilde_ub, report.alpha_hat_ub,
             report.eps_hat_sub, report.eps_theo, time.time() - t0))
