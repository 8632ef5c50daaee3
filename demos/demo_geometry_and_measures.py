"""Walkthrough of the geometric layer: box triangulations, hat test
functions, exact moments and the mesh radius.

Run:  python3 demos/demo_geometry_and_measures.py
"""

import numpy as np

from teamsolve import (HatBasis, build_box_partition, epsilon_bar,
                       moment_vector, random_cpwa)
from teamsolve.measures import sample, second_moment

rng = np.random.default_rng(0)

# A 2d box split into a regular grid; each cell becomes d! simplices.
complex = build_box_partition([(-2, 2), (-2, 2)], (4, 4))
print("partition of [-2,2]^2 into a 4x4 grid:")
print("  vertices:", complex.n_vertices, " triangles:", complex.n_simplices)
print("  faces per dimension:", [len(F) for F in complex.faces])
print("  max cell diameter:", complex.cell_diameters().max())

# Hat basis: one piecewise-affine bump per vertex, one vertex dropped.
basis = HatBasis(complex)
print("basis size m =", basis.m, " excluded vertex:",
      complex.vertices[basis.excluded])
x = np.array([0.3, -1.1])
g = basis.eval(x)
print("hat vector at", x, "has", (g > 0).sum(), "active components; sum =",
      round(g.sum(), 12))

# The mesh radius bound that drives the a-priori certificates.
print("epsilon_bar =", epsilon_bar(complex))

# A synthetic continuous piecewise-affine density and its exact moments.
mu = random_cpwa(complex, rng)
moments = moment_vector(mu, basis)
print("moment vector: min %.4f max %.4f sum %.4f" %
      (moments.min(), moments.max(), moments.sum()))
print("exact second moment:", round(second_moment(mu), 6))
pts = sample(mu, rng, 200000)
print("sampled second moment:", round(float((pts ** 2).sum(1).mean()), 6))
