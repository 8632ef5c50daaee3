"""Seeded instance generators for the benchmark workloads.

Each builder takes an instance seed and returns an :class:`Instance`: the
partitions, bases, measures, cost model and oracle that ``teamsolve``'s
pipeline consumes, plus the solver and Monte Carlo settings.  The same seed
always gives the same instance.

A run with workload seed ``s`` uses the instances ``instance_seed(s, j)`` for
``j < Workload.solved``; the first ``Workload.full`` of them go through the
whole pipeline, the rest through moments and the cutting plane only.  Solving
several instances per run averages out how much the cutting-plane iteration
count varies between instances, which would otherwise dominate the spread of
``solve_s`` between seeds.

``teamsolve`` must already be importable (``run.py`` and ``setup_probe.py``
put the checkout's ``src`` on the path).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import teamsolve as ts


@dataclass
class Instance:
    seed: int
    model: object
    measures: list
    x_spaces: list
    x_bases: list
    z_space: object
    z_basis: object
    oracle: object
    eps_lsip: float
    mc_n: int
    mc_repetitions: int
    semidiscrete_params: dict = field(default_factory=dict)
    expect_exact: bool = False

    @property
    def N(self):
        return self.model.N


def _oracle(model, x_spaces, x_bases, z_space, z_basis, eps):
    # the pool settings ``teamsolve run`` uses
    return ts.make_oracle(model, x_spaces, x_bases, z_space, z_basis,
                          pool_margin=10.0 * eps / model.N, pool_cap=32)


def barycenter_discrete(seed):
    """N=3 discrete agent measures (40 uniform atoms each) on FiniteSpaces,
    quality on a Kuhn 6x6 grid of the unit square."""
    rng = np.random.default_rng(seed)
    N, n_atoms, eps = 3, 40, 1e-4
    x_spaces, measures = [], []
    for _ in range(N):
        atoms = rng.uniform(0.0, 1.0, size=(n_atoms, 2))
        w = rng.uniform(0.5, 1.5, size=n_atoms)
        x_spaces.append(ts.FiniteSpace(atoms))
        measures.append(ts.DiscreteMeasure(atoms, w / w.sum()))
    x_bases = [ts.IndicatorBasis(sp) for sp in x_spaces]
    z_space = ts.build_box_partition([(0, 1), (0, 1)], (6, 6))
    z_basis = ts.HatBasis(z_space)
    model = ts.barycenter_cost([1.0 / N] * N, x_spaces, z_space, measures)
    return Instance(seed, model, measures, x_spaces, x_bases, z_space,
                    z_basis,
                    _oracle(model, x_spaces, x_bases, z_space, z_basis, eps),
                    eps, mc_n=10000, mc_repetitions=5, expect_exact=True)


# seeded densities are the demo's times per-vertex factors in [0.9, 1.1]:
# fresh random_cpwa densities move the iteration count and the certificate
# widths between instances by a fifth or more, which would swamp any bound
DENSITY_JITTER = 0.1


def _jittered(measures, rng):
    out = []
    for mu in measures:
        cx = mu.complex
        f = mu.vertex_density * rng.uniform(1.0 - DENSITY_JITTER,
                                            1.0 + DENSITY_JITTER,
                                            size=cx.n_vertices)
        mass = float(np.dot(cx.volumes(), f[cx.simplices].mean(axis=1)))
        out.append(ts.CpwaDensityMeasure(cx, f / mass))
    return out


BUSINESS_STATIONS = [[0.0, 2.0], [0.0, 0.75], [0.0, -0.75], [0.0, -1.5],
                     [-1.5, -1.5]]


def business_location(seed):
    """The business-location demo instance (N=5 on 2x2 city grids, five
    stations) with seeded jitter on the demo's CPWA densities."""
    N, eps = 5, 2e-4
    city = [(-2, 2), (-2, 2)]
    south = [(-2, 2), (-3, -2)]
    x_spaces = [ts.build_box_partition(city, (2, 2)) for _ in range(N - 1)]
    x_spaces.append(ts.build_box_partition(south, (2, 1)))
    x_bases = [ts.HatBasis(sp) for sp in x_spaces]
    demo_rng = np.random.default_rng(99)
    measures = _jittered([ts.random_cpwa(sp, demo_rng) for sp in x_spaces],
                         np.random.default_rng(seed))
    z_space = ts.build_box_partition(city, (2, 2))
    z_basis = ts.HatBasis(z_space)
    model = ts.business_location_cost(np.array(BUSINESS_STATIONS),
                                      n_categories=N)
    return Instance(seed, model, measures, x_spaces, x_bases, z_space,
                    z_basis,
                    _oracle(model, x_spaces, x_bases, z_space, z_basis, eps),
                    eps, mc_n=3000, mc_repetitions=4,
                    semidiscrete_params={"n_iterations": 5000, "batch": 256,
                                         "tol_mass": 5e-2})


def capped_affine(seed):
    """The capped-affine demo at N=8, drawn in the demo's stream order
    (its N=4 instance comes first): directions, tolerance bands and scalar
    type densities on a 4-cell grid of [0, 1], the densities with seeded
    jitter.  Quality on a Kuhn 4x4 grid of the unit square."""
    N, eps = 8, 1e-4
    demo_rng = np.random.default_rng(321)
    pref = ts.build_box_partition([(0, 1)], (4,))
    for n in (4, N):
        s = demo_rng.normal(size=(n, 2))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        kappa1 = demo_rng.uniform(0.05, 0.15, n)
        kappa2 = kappa1 + demo_rng.uniform(0.2, 0.5, n)
        demo_measures = [ts.random_cpwa(pref, demo_rng) for _ in range(n)]
    model = ts.capped_affine_cost(s, kappa1, kappa2)
    x_spaces = [pref] * N
    x_bases = [ts.HatBasis(pref)] * N
    measures = _jittered(demo_measures, np.random.default_rng(seed))
    z_space = ts.build_box_partition([(0, 1), (0, 1)], (4, 4))
    z_basis = ts.HatBasis(z_space)
    return Instance(seed, model, measures, x_spaces, x_bases, z_space,
                    z_basis,
                    _oracle(model, x_spaces, x_bases, z_space, z_basis, eps),
                    eps, mc_n=10000, mc_repetitions=5)


@dataclass(frozen=True)
class Workload:
    build: Callable
    solved: int     # instances solved per pass
    full: int       # of which the first ones also run construct and exports


WORKLOADS = {
    "barycenter-discrete": Workload(barycenter_discrete, solved=3, full=3),
    "business-location": Workload(business_location, solved=40, full=1),
    "capped-affine": Workload(capped_affine, solved=14, full=1),
}


def instance_seed(seed, j):
    return 1000 * int(seed) + j


def build(name, seed, j=0):
    return WORKLOADS[name].build(instance_seed(seed, j))
