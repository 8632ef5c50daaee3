"""W1 coupling constructions between a discrete source and a discrete,
continuous (CPWA), or one-dimensional target.

Three constructions are provided, matching the measure classes the
equilibrium assembly encounters:

* ``ot_discrete`` -- exact transport plan between two finite measures via
  an LP; the conditional rows give the sampler.
* ``ot_quantile_1d`` -- the comonotone construction on the line: the source
  atom of rank j is spread over the target quantile range between the
  cumulative levels F(j-1) and F(j) using an independent uniform.
* ``ot_semidiscrete`` -- the exact plan onto the cells of a refined CPWA
  target, each at its density centroid with its exact mass; the target is
  then sampled exactly inside the drawn cell, so both marginals are exact.

All samplers are read-only after construction and draw from caller-owned
numpy Generators.
"""

from __future__ import annotations

import numpy as np

from .linprog import Csr, solve_min
from .measures import CpwaDensityMeasure, DiscreteMeasure

# cells per axis of the nested grid that semi-discrete plans couple onto
REFINEMENT = 2


class TransportError(RuntimeError):
    pass


def _pairwise_dist(A, B):
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(-1))


class DiscreteCoupling:
    """Transport plan between two discrete measures: ``plan[a, b]`` is the
    mass moved from source atom a to target atom b."""

    def __init__(self, source, target, plan):
        self.source = source
        self.target = target
        self.plan = plan                      # (n1, n2), row sums = source w
        sums = plan.sum(axis=1)
        if not (sums > 0).all():
            # every source atom has a positive weight (``DiscreteMeasure``)
            raise TransportError("a source atom has an empty transport plan "
                                 "row")
        # source row r's positive conditional masses are the flat entries
        # start[r]..last[r]: their target atoms and cumulative sums; adding
        # the zeros in between leaves each sum exactly as it is
        cond = plan / sums[:, None]
        pos = cond > 0
        self._cols = np.nonzero(pos)[1]
        self._cum = np.cumsum(np.where(pos, cond, 0.0), axis=1)[pos]
        counts = pos.sum(axis=1)
        self._last = np.cumsum(counts) - 1
        self._start = self._last - counts + 1
        self._steps = int(counts.max() - 1).bit_length()

    def marginal_residual(self):
        """Largest absolute error of the plan's row and column sums."""
        return float(max(
            np.abs(self.plan.sum(1) - self.source.weights).max(),
            np.abs(self.plan.sum(0) - self.target.weights).max()))

    def columns(self, rng, src_idx):
        """Target atom indices conditionally on source atom indices, one
        uniform per draw: the first entry of the source row whose cumulative
        mass reaches the uniform, or the row's last entry if none does."""
        u = rng.uniform(size=len(src_idx))
        lo, hi = self._start[src_idx], self._last[src_idx]
        # binary search within [lo, hi]; a settled draw (lo == hi) stays
        for _ in range(self._steps):
            mid = (lo + hi) >> 1
            below = self._cum[mid] < u
            lo = np.where(below, np.minimum(mid + 1, hi), lo)
            hi = np.where(below, hi, mid)
        return self._cols[lo]

    def sample_given_source(self, rng, src_idx):
        """Target points conditionally on source atom indices."""
        return self.target.atoms[self.columns(rng, src_idx)]


def ot_discrete(nu1, nu2):
    """Optimal W1 coupling of two discrete measures.

    Returns ``(DiscreteCoupling, w1)``.  The plan solves the transport LP
    exactly; row and column sums reproduce the marginals.
    """
    D = _pairwise_dist(nu1.atoms, nu2.atoms)
    n1, n2 = D.shape
    if n1 == 1:
        plan = nu2.weights[None, :].copy()
    elif n2 == 1:
        plan = nu1.weights[:, None].copy()
    else:
        # row sums, then the column sums but the last, which is
        # redundant; plan entry (a, b) is LP column a * n2 + b
        cols = np.arange(n1 * n2, dtype=np.int32).reshape(n1, n2)
        A_eq = Csr(
            np.concatenate([np.arange(0, n1 * n2, n2, dtype=np.int32),
                            n1 * n2 + n1 * np.arange(n2, dtype=np.int32)]),
            np.concatenate([cols.ravel(), cols[:, :-1].T.ravel()]),
            np.ones(n1 * n2 + n1 * (n2 - 1)), (n1 + n2 - 1, n1 * n2))
        b_eq = np.concatenate([nu1.weights, nu2.weights[:-1]])
        res = solve_min(D.ravel(), A_eq, b_eq)
        plan = np.clip(res.x.reshape(n1, n2), 0.0, None)
        # a source atom the solver left no positive entry sends its weight
        # to its nearest target atom; the marginal check below bounds the
        # drift this adds to that atom's column
        empty = plan.sum(axis=1) == 0
        plan[empty, D[empty].argmin(axis=1)] = nu1.weights[empty]
    # repair solver-tolerance drift so the conditionals are exact
    plan *= (nu1.weights / np.maximum(plan.sum(axis=1), 1e-300))[:, None]
    coupling = DiscreteCoupling(nu1, nu2, plan)
    err = coupling.marginal_residual()
    if err > 1e-8:
        raise TransportError("transport plan marginals off by %.3g" % err)
    return coupling, float((plan * D).sum())


class QuantileCoupling:
    """Comonotone randomized coupling on the line (discrete source)."""

    def __init__(self, nu1, nu2):
        if nu1.dim != 1:
            raise TransportError("source must be one-dimensional")
        if getattr(nu2, "dim", None) != 1:
            raise TransportError("target must be one-dimensional")
        self.source = nu1
        self.target = nu2
        order = np.argsort(nu1.atoms[:, 0], kind="stable")
        self._rank_of_atom = np.empty(nu1.n_atoms, dtype=int)
        self._rank_of_atom[order] = np.arange(nu1.n_atoms)
        cum = np.concatenate([[0.0], np.cumsum(nu1.weights[order])])
        cum[-1] = 1.0
        self._cum = cum                        # F(0..n1) over sorted atoms

    def sample_given_source(self, rng, src_idx):
        r = self._rank_of_atom[src_idx]
        u = rng.uniform(size=len(src_idx))
        t = u * self._cum[r + 1] + (1.0 - u) * self._cum[r]
        return np.asarray(self.target.quantile(t), dtype=float).reshape(-1, 1)


def ot_quantile_1d(nu1, nu2):
    """Comonotone W1-optimal coupling sampler between 1d measures."""
    return QuantileCoupling(nu1, nu2)


class SemidiscreteCoupling:
    """Coupling of a discrete source with a CPWA target through ``plan``, a
    ``DiscreteCoupling`` onto the target's positive-mass cells."""

    def __init__(self, plan, target, cell_simplex):
        self.source = plan.source
        self.target = target
        self.plan = plan
        self.cell_simplex = cell_simplex      # target simplex of each column
        self.est_masses = plan.plan.sum(axis=1)

    def sample_given_source(self, rng, src_idx):
        """Target points conditionally on source atom indices: a cell from
        the atom's plan row, then a point inside that cell."""
        cols = self.plan.columns(rng, src_idx)
        return self.target.sample_cells(rng, self.cell_simplex[cols])


def ot_semidiscrete(nu1, nu2):
    """W1 coupling of a discrete and a CPWA measure with exact marginals.

    The target is carried over unchanged to the nested grid with
    ``REFINEMENT`` times the cells per axis.  The cost of a cell is the
    distance to its density centroid."""
    if not isinstance(nu2, CpwaDensityMeasure):
        raise TransportError("target must be a CPWA density measure")
    cx = nu2.complex.refined(REFINEMENT)
    nu2 = CpwaDensityMeasure(cx, nu2.density(cx.vertices))
    keep = np.flatnonzero(nu2._cell_mass > 0)
    f = nu2.vertex_density[cx.simplices[keep]]            # (m, d+1)
    S = f.sum(axis=1, keepdims=True)
    lam = (S + f) / ((cx.dim + 2) * S)    # centroid of a linear density
    centroids = (lam[:, :, None] * cx._cell_pts[keep]).sum(axis=1)
    cells = DiscreteMeasure(centroids, nu2._cell_mass[keep])
    plan, _ = ot_discrete(nu1, cells)
    return SemidiscreteCoupling(plan, nu2, keep)
