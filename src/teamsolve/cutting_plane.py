"""Cutting-plane solver for the parametric matching-for-teams formulation.

The semi-infinite constraint system (one inequality per point of every
type-quality product space) is relaxed to finitely many cuts; each round
solves the relaxed LP together with its dual, asks the global minimization
oracle of every category for the most violated constraints, and adds them
until the certified gap falls below the requested tolerance.  Between
rounds the live LP keeps at most ``ROW_BUDGET`` inequality rows per column:
past that, the rows with the largest slacks go (exchange method), and the
oracle may offer their cuts again.

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

from . import linprog
from .geometry import first_seen, point_keys

log = logging.getLogger("teamsolve.cutting_plane")

WEIGHT_PRUNE = 1e-12
# inequality rows per LP column kept between rounds; on the dual-form LP
# (linprog.py), 2 made six capped-affine instances take 46 rounds instead
# of 33 and 49% longer, 8 solved barycenter-discrete 25% slower than 4
# (CHANGES.md)
ROW_BUDGET = 4


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
        zs, zi = first_seen(self.zs[i])
        xs, xi = first_seen(self.xs[i])
        P = np.zeros((len(zs), len(xs)))
        np.add.at(P, (zi, xi), self.weights[i])
        return zs, xs, P / P.sum()


@dataclass
class IterationRecord:
    r: int
    lp_value: float
    gap: float
    cuts_added: int
    cuts_per_category: list     # cuts_added split by category
    lp_rows: int                # inequality rows of the LP solved this round
    simplex_iterations: int     # dual simplex in round 0, then primal
                                # simplex from the previous round's basis
    add_time: float             # appending this round's new rows
    lp_time: float              # HiGHS
    oracle_time: float
    rows_dropped: int           # deleted after this round's solve


@dataclass
class CuttingPlaneResult:
    alpha_ub: float
    alpha_lb: float
    solution: ParametricSolution
    duals: DualDiscreteMeasures
    iterations: list
    n_lp_rows: int
    eps_lsip: float

    @property
    def gap(self):
        return self.alpha_ub - self.alpha_lb

    def write_iteration_log(self, path):
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["r", "lp_value", "gap", "cuts_added",
                         "cuts_per_category", "lp_rows", "simplex_iterations",
                         "add_time", "lp_time", "oracle_time",
                         "rows_dropped"])
            for rec in self.iterations:
                wr.writerow([rec.r, "%.17g" % rec.lp_value, "%.17g" % rec.gap,
                             rec.cuts_added,
                             ";".join(map(str, rec.cuts_per_category)),
                             rec.lp_rows, rec.simplex_iterations,
                             "%.6f" % rec.add_time, "%.6f" % rec.lp_time,
                             "%.6f" % rec.oracle_time, rec.rows_dropped])


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
    """Per-category cuts as arrays: points ``X``, ``Z`` and costs ``c``,
    deduplicated by point key.  ``_add_new_cuts`` evaluates the bases at a
    cut's points once, when the cut enters the LP."""

    def __init__(self, model, x_bases, z_basis):
        self.model = model
        self.x_bases = x_bases
        self.z_basis = z_basis
        N = model.N
        self.keys = [set() for _ in range(N)]
        self.X = [np.empty((0, b.complex.dim)) for b in x_bases]
        self.Z = [np.empty((0, z_basis.complex.dim)) for _ in range(N)]
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
        self.c[i] = np.concatenate([self.c[i], self.model.eval(i, X, Z)])
        return len(new)

    def delete(self, i, idx):
        """Drop category i's rows ``idx`` and forget their keys, so that
        ``add`` takes those points again."""
        if len(idx) == 0:
            return
        self.keys[i].difference_update(
            point_keys(np.hstack([self.X[i][idx], self.Z[i][idx]])))
        for part in (self.X, self.Z, self.c):
            part[i] = np.delete(part[i], idx, axis=0)


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
    # equality row l holds a 1 in quality column l of every block
    A_eq = linprog.Csr(
        np.arange(0, k * N + 1, N, dtype=np.int32),
        (offsets[1:, None] - k + np.arange(k)).T.ravel().astype(np.int32),
        np.ones(k * N), (k, offsets[-1])) if k else None
    return linprog.LpProblem(c, A_eq, np.zeros(k) if k else None), offsets


def _add_new_cuts(problem, store, offsets, rows):
    """Append the store's cuts that are not in the model yet: category i's
    rows ``[1 | g_i(X) | h(Z)] <= c_i`` shifted to its column block, the
    bases evaluated on the new points only.  ``rows[i]`` gains their
    inequality row indices, so it stays in store order."""
    for i in range(len(rows)):
        new = slice(len(rows[i]), len(store.c[i]))
        if new.start == new.stop:
            continue
        block = linprog.csr_from_dense(np.hstack([
            np.ones((new.stop - new.start, 1)),
            store.x_bases[i].eval_many(store.X[i][new]),
            store.z_basis.eval_many(store.Z[i][new])]), offsets[i], problem.n)
        rows[i] = np.concatenate([rows[i],
                                  problem.add_rows(block, store.c[i][new])])


def _drop_slack_rows(problem, store, rows, sol):
    """Delete rows of the solved model until at most ``ROW_BUDGET`` per
    column remain or no candidate is left; returns how many went.

    Only rows with positive slack (hence a basic slack and a zero
    multiplier) qualify, the largest slack first and ties in row order, so
    the basis stays optimal and the next solve starts warm.  Their cuts
    leave the store, and ``rows[i]`` follows HiGHS's renumbering.
    """
    excess = problem.n_ineq - ROW_BUDGET * problem.n
    if excess <= 0:
        return 0
    slack = sol.slack_ineq
    cand = np.flatnonzero((slack > 0) & (sol.duals_ineq == 0))
    drop = np.sort(cand[np.argsort(-slack[cand], kind="stable")[:excess]])
    if drop.size == 0:
        return 0
    problem.delete_rows(drop)
    for i, ri in enumerate(rows):
        pos = np.searchsorted(drop, ri)
        gone = drop[np.minimum(pos, len(drop) - 1)] == ri
        store.delete(i, np.flatnonzero(gone))
        rows[i] = ri[~gone] - pos[~gone]
    return len(drop)


def run(model, gbar, x_spaces, x_bases, z_space, z_basis, oracle,
        eps_lsip, max_iterations=10000):
    """Run the cutting-plane loop to an eps_lsip-certified solution.

    Parameters
    ----------
    model : cost model with ``N`` categories and vectorized ``eval``
    gbar : per-category exact moment vectors of the type test functions
    oracle : callable ``oracle(i, y_i, w_i) -> OracleResult``
    eps_lsip : positive target for the certified upper-lower gap

    The first relaxation holds the vertex product of the type and quality
    spaces (``default_initial_cuts``).

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
    for i, (X, Z) in enumerate(default_initial_cuts(x_spaces, z_space)):
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
        done = gap <= eps_lsip
        lp_rows = problem.n_ineq
        dropped = 0 if done else _drop_slack_rows(problem, store, rows, sol)
        records.append(IterationRecord(
            r, sol.value, gap, sum(added), added, lp_rows, sol.iterations,
            t_add - t0, lp_time, oracle_time, dropped))
        log.info("iter %d: lp=%.9g gap=%.3g cuts+%d rows-%d", r, sol.value,
                 gap, sum(added), dropped)

        if done:
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
