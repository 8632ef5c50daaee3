"""Cutting-plane solver for the parametric matching-for-teams formulation.

The semi-infinite constraint system (one inequality per point of every
type-quality product space) is relaxed to finitely many cuts; each round
solves the relaxed LP together with its dual, asks the global minimization
oracle of every category for the most violated constraints, and adds them
until the certified gap falls below the requested tolerance.

Outputs: an upper bound (the LP value), a lower bound (the LP value minus
the certified violation), a globally feasible parametric solution obtained
by lowering the intercepts to the certified oracle bounds, and finitely
supported dual measures recovered from the LP row multipliers.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import linprog
from .geometry import point_keys

log = logging.getLogger("teamsolve.cutting_plane")

WEIGHT_PRUNE = 1e-12


class CuttingPlaneError(RuntimeError):
    pass


class UnboundedRelaxationError(CuttingPlaneError):
    """The initial LP relaxation is unbounded: the starting cut set does not
    pin down the superlevel sets (zero-mass vertices are the usual cause)."""


class MaxIterationsExceededError(CuttingPlaneError):
    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


@dataclass
class ParametricSolution:
    """Decision vector per category: intercept, type multipliers, quality
    multipliers.  Feasible for the full semi-infinite system whenever the
    intercepts are the certified oracle lower bounds."""
    y0: np.ndarray          # (N,)
    y: list                 # per category, (m_i,)
    w: np.ndarray           # (N, k)


@dataclass
class DualDiscreteMeasures:
    """Finitely supported dual measures, one per category: support pairs
    (x, z) with positive weights summing to one."""
    xs: list                # per category, (q_i, d_i)
    zs: list                # per category, (q_i, d_0)
    weights: list           # per category, (q_i,)

    def plan(self, i):
        """Category i's dual measure as a transport plan ``(zs, xs, P)``:
        the distinct quality atoms (rows) and type atoms (columns), each in
        first-seen order, and the (rows, columns) weights, summing to one."""
        zs, zi = _first_seen(self.zs[i])
        xs, xi = _first_seen(self.xs[i])
        P = np.zeros((len(zs), len(xs)))
        np.add.at(P, (zi, xi), self.weights[i])
        return zs, xs, P / P.sum()


def _first_seen(pts):
    """The distinct rows of ``pts`` by point key in first-seen order, and
    the index of each row's atom among them."""
    index = {}
    inv = np.array([index.setdefault(k, len(index))
                    for k in point_keys(pts)], dtype=int)
    return pts[np.unique(inv, return_index=True)[1]], inv


@dataclass
class IterationRecord:
    r: int
    lp_value: float
    gap: float
    cuts_added: int
    cuts_per_category: list     # cuts_added split by category
    lp_rows: int                # inequality rows of the LP solved this round
    simplex_iterations: int     # warm-started from the previous round
    add_time: float             # appending this round's new rows
    lp_time: float              # HiGHS
    oracle_time: float


@dataclass
class CuttingPlaneResult:
    alpha_ub: float
    alpha_lb: float
    solution: ParametricSolution
    duals: DualDiscreteMeasures
    iterations: list
    n_lp_rows: int
    eps_lsip: float = 0.0

    @property
    def gap(self):
        return self.alpha_ub - self.alpha_lb

    def write_iteration_log(self, path):
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["r", "lp_value", "gap", "cuts_added",
                         "cuts_per_category", "lp_rows", "simplex_iterations",
                         "add_time", "lp_time", "oracle_time"])
            for rec in self.iterations:
                wr.writerow([rec.r, "%.17g" % rec.lp_value, "%.17g" % rec.gap,
                             rec.cuts_added,
                             ";".join(map(str, rec.cuts_per_category)),
                             rec.lp_rows, rec.simplex_iterations,
                             "%.6f" % rec.add_time, "%.6f" % rec.lp_time,
                             "%.6f" % rec.oracle_time])


def default_initial_cuts(x_spaces, z_space):
    """Vertex-product starting cuts: every (type vertex, quality vertex)
    pair per category, as ``(X, Z)`` row arrays in x-major order.  Keeps the
    first relaxation bounded provided every vertex hat carries positive
    measure mass."""
    Zv = z_space.vertices
    return [(np.repeat(sp.vertices, len(Zv), axis=0),
             np.tile(Zv, (sp.n_vertices, 1))) for sp in x_spaces]


def sparsity_bound(m, k):
    """Support-size bound for the discrete quality measure."""
    m = [int(v) for v in np.atleast_1d(m)]
    return int(min(m) + int(k) + 2)


class _CutStore:
    """Per-category cut rows as arrays: points ``X``, ``Z``, test-function
    values ``G = g(X)``, ``H = h(Z)`` and costs ``c``, deduplicated by point
    key."""

    def __init__(self, model, x_bases, z_basis):
        self.model = model
        self.x_bases = x_bases
        self.z_basis = z_basis
        N = model.N
        self.keys = [set() for _ in range(N)]
        self.X = [np.empty((0, b.complex.dim)) for b in x_bases]
        self.Z = [np.empty((0, z_basis.complex.dim)) for _ in range(N)]
        self.G = [np.empty((0, b.m)) for b in x_bases]
        self.H = [np.empty((0, z_basis.m)) for _ in range(N)]
        self.c = [np.empty(0) for _ in range(N)]

    def add(self, i, X, Z):
        """Append the rows of (X, Z) whose keys are new, in order; returns
        how many were added."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        new = []
        for q, key in enumerate(point_keys(np.hstack([X, Z]))):
            if key not in self.keys[i]:
                self.keys[i].add(key)
                new.append(q)
        if not new:
            return 0
        X, Z = X[new], Z[new]
        self.X[i] = np.vstack([self.X[i], X])
        self.Z[i] = np.vstack([self.Z[i], Z])
        self.G[i] = np.vstack([self.G[i], self.x_bases[i].eval_many(X)])
        self.H[i] = np.vstack([self.H[i], self.z_basis.eval_many(Z)])
        self.c[i] = np.concatenate([self.c[i], self.model.eval(i, X, Z)])
        return len(new)


def _relaxation(gbar, k):
    """The relaxed LP (max sense) before any cut: category i's variables are
    its intercept, type multipliers and quality multipliers, and the k
    equality rows sum the quality multipliers over the categories.  Returns
    the model and the column offset of each category's block."""
    N = len(gbar)
    m = [len(g) for g in gbar]
    offsets = np.concatenate([[0], np.cumsum([1 + mi + k for mi in m])])
    c = np.concatenate([np.concatenate([[1.0], gbar[i], np.zeros(k)])
                        for i in range(N)])
    A_eq = sparse.hstack(
        [blk for i in range(N)
         for blk in (sparse.csr_matrix((k, 1 + m[i])), sparse.identity(k))],
        format="csr") if k else None
    return (linprog.LpProblem(c, A_eq=A_eq, b_eq=np.zeros(k) if k else None),
            offsets)


def _add_new_cuts(problem, store, offsets, rows):
    """Append the store's cuts that are not in the model yet: category i's
    rows ``[1 | G_i | H_i] <= c_i`` shifted to its column block.  ``rows[i]``
    gains their inequality row indices, so it stays in store order."""
    for i in range(len(rows)):
        new = slice(len(rows[i]), len(store.c[i]))
        if new.start == new.stop:
            continue
        block = sparse.csr_matrix(np.hstack([
            np.ones((new.stop - new.start, 1)), store.G[i][new],
            store.H[i][new]]))
        block = sparse.csr_matrix(
            (block.data, block.indices + offsets[i], block.indptr),
            shape=(block.shape[0], problem.n))
        rows[i] = np.concatenate([rows[i],
                                  problem.add_rows(block, store.c[i][new])])


def run(model, gbar, x_spaces, x_bases, z_space, z_basis, oracle,
        eps_lsip, initial_cuts=None, max_iterations=10000):
    """Run the cutting-plane loop to an eps_lsip-certified solution.

    Parameters
    ----------
    model : cost model with ``N`` categories and vectorized ``eval``
    gbar : per-category exact moment vectors of the type test functions
    oracle : callable ``oracle(i, y_i, w_i) -> OracleResult``
    eps_lsip : positive target for the certified upper-lower gap
    initial_cuts : per-category ``(X, Z)`` pairs of row arrays, the cut
        points ``(X[q], Z[q])``; defaults to the vertex product of the type
        and quality spaces (``default_initial_cuts``)

    Returns a :class:`CuttingPlaneResult`. Raises
    ``UnboundedRelaxationError`` if the starting relaxation is unbounded and
    ``MaxIterationsExceededError`` (with the current gap) at the iteration cap.
    """
    N = model.N
    if not eps_lsip > 0:
        raise CuttingPlaneError("eps_lsip must be positive")
    if max_iterations < 1:
        raise CuttingPlaneError("max_iterations must be at least 1")
    k = z_basis.m
    store = _CutStore(model, x_bases, z_basis)
    if initial_cuts is None:
        initial_cuts = default_initial_cuts(x_spaces, z_space)
    for i, (X, Z) in enumerate(initial_cuts):
        store.add(i, X, Z)

    problem, offsets = _relaxation(gbar, k)
    rows = [np.empty(0, dtype=int) for _ in range(N)]
    records = []
    for r in range(max_iterations):
        t0 = time.perf_counter()
        _add_new_cuts(problem, store, offsets, rows)
        t_add = time.perf_counter()
        try:
            sol = linprog.solve(problem)
        except linprog.LpUnboundedError as e:
            raise UnboundedRelaxationError(
                "relaxed problem unbounded at iteration %d: %s" % (r, e)) from e
        lp_time = time.perf_counter() - t_add

        y0 = np.array([sol.x[offsets[i]] for i in range(N)])
        y = [sol.x[offsets[i] + 1:offsets[i + 1] - k] for i in range(N)]
        w = np.stack([sol.x[offsets[i + 1] - k:offsets[i + 1]]
                      for i in range(N)])

        t1 = time.perf_counter()
        results = [oracle(i, y[i], w[i]) for i in range(N)]
        oracle_time = time.perf_counter() - t1

        beta_lower = np.array([res.beta_lower for res in results])
        gap = float((y0 - beta_lower).sum())
        added = []
        for i, res in enumerate(results):
            X, Z = zip((res.x, res.z), *res.pool)
            added.append(store.add(i, np.vstack(X), np.vstack(Z)))
        records.append(IterationRecord(
            r, sol.value, gap, sum(added), added, problem.n_ineq,
            sol.iterations, t_add - t0, lp_time, oracle_time))
        log.info("iter %d: lp=%.9g gap=%.3g cuts+%d", r, sol.value, gap,
                 sum(added))

        if gap <= eps_lsip:
            alpha_ub = sol.value
            alpha_lb = sol.value - gap
            solution = ParametricSolution(beta_lower.copy(), y, w)
            duals = _extract_duals(store, [sol.duals_ineq[ri] for ri in rows])
            return CuttingPlaneResult(alpha_ub, alpha_lb, solution, duals,
                                      records, problem.n_ineq, eps_lsip)
    raise MaxIterationsExceededError(
        "no convergence in %d iterations (gap %.3g > %.3g)"
        % (max_iterations, records[-1].gap, eps_lsip), records[-1].gap)


def _extract_duals(store, thetas):
    """Dual measures from the LP row multipliers, pruned and renormalized.

    ``thetas[i]`` are the multipliers of category i's cuts in store order, as
    many as were in the solved LP; the store may have grown since (the
    terminating iteration still appends its cuts).
    """
    xs, zs, ws = [], [], []
    for i, ti in enumerate(thetas):
        keep = np.flatnonzero(ti > WEIGHT_PRUNE)
        if keep.size == 0:
            # numerically massless category; keep the largest row
            keep = np.array([int(np.argmax(ti))])
        wts = ti[keep] / ti[keep].sum()
        xs.append(store.X[i][keep])
        zs.append(store.Z[i][keep])
        ws.append(wts)
    return DualDiscreteMeasures(xs, zs, ws)
