"""The three W1-optimal coupling constructions used by the equilibrium
assembly: discrete-discrete (LP plan), one-dimensional (comonotone
quantile), and discrete-continuous (an exact plan onto refined cells).

Run:  python3 demos/demo_transport_couplings.py
"""

import numpy as np

from teamsolve import (build_box_partition, ot_discrete, ot_quantile_1d,
                       ot_semidiscrete)
from teamsolve.measures import CpwaDensityMeasure, DiscreteMeasure

rng = np.random.default_rng(1)

# discrete-to-discrete: exact plan via the transport LP
a = DiscreteMeasure(rng.uniform(0, 1, (4, 2)), rng.dirichlet(np.ones(4)))
b = DiscreteMeasure(rng.uniform(0, 1, (6, 2)), rng.dirichlet(np.ones(6)))
coupling, w1 = ot_discrete(a, b)
print("discrete OT: W1 = %.6f, plan support = %d entries"
      % (w1, (coupling.plan > 1e-12).sum()))
# draw source atoms by their weights, then targets given the source
src = rng.choice(a.n_atoms, size=100000, p=a.weights)
tgt = coupling.sample_given_source(rng, src)
print("  sampled mean cost %.6f (matches W1)"
      % np.linalg.norm(a.atoms[src] - tgt, axis=1).mean())

# one-dimensional: spread each atom over its quantile range
half = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
uniform = CpwaDensityMeasure(build_box_partition([(0, 1)], (1,)), [1, 1])
q = ot_quantile_1d(half, uniform)
src = rng.choice(half.n_atoms, size=200000, p=half.weights)
tgt = q.sample_given_source(rng, src)
# each atom takes the half of [0, 1] next to it, at mean distance 1/4
print("quantile coupling: W1 = 0.25, sampled = %.6f"
      % np.abs(half.atoms[src] - tgt).mean())

# discrete-to-continuous: the exact plan from the atoms onto the cells of
# the refined grid, each at its density centroid with its exact mass, then
# exact sampling inside the drawn cell
two = DiscreteMeasure([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5])
square = CpwaDensityMeasure(build_box_partition([(0, 1), (0, 1)], (2, 2)),
                            np.ones(9))
sd = ot_semidiscrete(two, square)
# the plan's cost is the W1 distance from the atoms to the cell centroids
_, cell_cost = ot_discrete(two, sd.plan.target)
print("semi-discrete: %d cells (refinement %d) of masses %s"
      % (len(sd.cell_simplex), sd.refinement,
         np.unique(sd.plan.target.weights)))
print("  cell mass coupled to each atom %s vs weights %s, plan cost %.4f"
      % (sd.est_masses, two.weights, cell_cost))
cond = sd.sample_given_source(rng, np.zeros(5000, dtype=int))
print("  conditional cells of the left atom span x in [%.3f, %.3f]"
      % (cond[:, 0].min(), cond[:, 0].max()))
