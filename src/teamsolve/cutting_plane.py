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
from .geometry import point_key

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

    def objective(self, gbar):
        return float(self.y0.sum()
                     + sum(g @ yi for g, yi in zip(gbar, self.y)))


@dataclass
class DualDiscreteMeasures:
    """Finitely supported dual measures, one per category: support pairs
    (x, z) with positive weights summing to one."""
    xs: list                # per category, (q_i, d_i)
    zs: list                # per category, (q_i, d_0)
    weights: list           # per category, (q_i,)

    def objective(self, model):
        return float(sum(
            (model.eval(i, self.xs[i], self.zs[i]) * self.weights[i]).sum()
            for i in range(len(self.weights))))

    def z_marginal(self, i):
        """Quality marginal of category i as (atoms, weights), deduplicated."""
        return _group_atoms(self.zs[i], self.weights[i])

    def x_marginal(self, i):
        return _group_atoms(self.xs[i], self.weights[i])

    def conditional_x_given_z(self, i):
        """List of (z_atom, x_atoms, probs) rows of the disintegration."""
        rows = {}
        for q in range(len(self.weights[i])):
            rows.setdefault(point_key(self.zs[i][q]), []).append(q)
        out = []
        for key in sorted(rows):
            qs = rows[key]
            wsum = self.weights[i][qs].sum()
            out.append((self.zs[i][qs[0]], self.xs[i][qs],
                        self.weights[i][qs] / wsum))
        return out


def _group_atoms(pts, wts):
    seen = {}
    atoms, weights = [], []
    for q in range(len(wts)):
        k = point_key(pts[q])
        if k in seen:
            weights[seen[k]] += wts[q]
        else:
            seen[k] = len(atoms)
            atoms.append(pts[q])
            weights.append(wts[q])
    atoms = np.asarray(atoms)
    weights = np.asarray(weights)
    return atoms, weights / weights.sum()


@dataclass
class IterationRecord:
    r: int
    lp_value: float
    gap: float
    cuts_added: int
    lp_time: float
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
                         "lp_time", "oracle_time"])
            for rec in self.iterations:
                wr.writerow([rec.r, "%.17g" % rec.lp_value, "%.17g" % rec.gap,
                             rec.cuts_added, "%.6f" % rec.lp_time,
                             "%.6f" % rec.oracle_time])


def default_initial_cuts(x_spaces, z_space):
    """Vertex-product starting cuts: every (type vertex, quality vertex)
    pair per category.  Keeps the first relaxation bounded provided every
    vertex hat carries positive measure mass."""
    K0 = []
    for sp in x_spaces:
        pairs = [(x, z) for x in sp.vertices for z in z_space.vertices]
        K0.append(pairs)
    return K0


def sparsity_bound(m, k):
    """Support-size bound for the discrete quality measure."""
    m = [int(v) for v in np.atleast_1d(m)]
    return int(min(m) + int(k) + 2)


class _CutStore:
    """Per-category cut rows with coordinate-keyed deduplication."""

    def __init__(self, model, x_bases, z_basis):
        self.model = model
        self.x_bases = x_bases
        self.z_basis = z_basis
        N = model.N
        self.keys = [set() for _ in range(N)]
        self.xs = [[] for _ in range(N)]
        self.zs = [[] for _ in range(N)]
        self.g = [[] for _ in range(N)]
        self.h = [[] for _ in range(N)]
        self.c = [[] for _ in range(N)]

    def add(self, i, x, z):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        key = (point_key(x), point_key(z))
        if key in self.keys[i]:
            return 0
        self.keys[i].add(key)
        self.xs[i].append(x)
        self.zs[i].append(z)
        self.g[i].append(self.x_bases[i].eval(x))
        self.h[i].append(self.z_basis.eval(z))
        self.c[i].append(float(self.model.eval(i, x[None], z[None])[0]))
        return 1

    def counts(self):
        return [len(c) for c in self.c]


def _assemble_lp(store, gbar, k):
    """Build the relaxed LP (max sense) from the cut store."""
    N = store.model.N
    m = [len(g) for g in gbar]
    width = [1 + m[i] + k for i in range(N)]
    offsets = np.concatenate([[0], np.cumsum(width)])
    n = int(offsets[-1])
    c = np.zeros(n)
    for i in range(N):
        c[offsets[i]] = 1.0
        c[offsets[i] + 1:offsets[i] + 1 + m[i]] = gbar[i]
    rows, cols, data, rhs = [], [], [], []
    r = 0
    for i in range(N):
        base = offsets[i]
        for q in range(len(store.c[i])):
            rows.append(r); cols.append(base); data.append(1.0)
            gq = store.g[i][q]
            nzg = np.flatnonzero(gq)
            for j in nzg:
                rows.append(r); cols.append(base + 1 + j); data.append(gq[j])
            hq = store.h[i][q]
            nzh = np.flatnonzero(hq)
            for l in nzh:
                rows.append(r); cols.append(base + 1 + m[i] + l)
                data.append(hq[l])
            rhs.append(store.c[i][q])
            r += 1
    A_ub = sparse.csr_matrix((data, (rows, cols)), shape=(r, n))
    b_ub = np.asarray(rhs)
    erow, ecol, edata = [], [], []
    for l in range(k):
        for i in range(N):
            erow.append(l); ecol.append(offsets[i] + 1 + m[i] + l)
            edata.append(1.0)
    A_eq = sparse.csr_matrix((edata, (erow, ecol)), shape=(k, n)) if k else None
    b_eq = np.zeros(k) if k else None
    return linprog.LpProblem(c, A_ub, b_ub, A_eq, b_eq), offsets, m


def run(model, gbar, x_spaces, x_bases, z_space, z_basis, oracle,
        eps_lsip, initial_cuts=None, max_iterations=10000):
    """Run the cutting-plane loop to an eps_lsip-certified solution.

    Parameters
    ----------
    model : cost model with ``N`` categories and vectorized ``eval``
    gbar : per-category exact moment vectors of the type test functions
    oracle : callable ``oracle(i, y_i, w_i) -> OracleResult``
    eps_lsip : positive target for the certified upper-lower gap
    initial_cuts : per-category list of (x, z) pairs; defaults to the
        vertex product of the type and quality spaces

    Returns a :class:`CuttingPlaneResult`. Raises
    ``UnboundedRelaxationError`` if the starting relaxation is unbounded and
    ``MaxIterationsExceededError`` (with the current gap) at the iteration cap.
    """
    N = model.N
    if eps_lsip <= 0:
        raise CuttingPlaneError("eps_lsip must be positive")
    k = z_basis.m
    store = _CutStore(model, x_bases, z_basis)
    if initial_cuts is None:
        initial_cuts = default_initial_cuts(x_spaces, z_space)
    for i in range(N):
        for x, z in initial_cuts[i]:
            store.add(i, x, z)

    records = []
    for r in range(max_iterations):
        t0 = time.perf_counter()
        problem, offsets, m = _assemble_lp(store, gbar, k)
        try:
            sol = linprog.solve(problem)
        except linprog.LpUnboundedError as e:
            raise UnboundedRelaxationError(
                "relaxed problem unbounded at iteration %d: %s" % (r, e)) from e
        lp_time = time.perf_counter() - t0

        y0 = np.array([sol.x[offsets[i]] for i in range(N)])
        y = [sol.x[offsets[i] + 1:offsets[i] + 1 + m[i]] for i in range(N)]
        w = np.stack([sol.x[offsets[i] + 1 + m[i]:offsets[i + 1]]
                      for i in range(N)])

        t1 = time.perf_counter()
        results = [oracle(i, y[i], w[i]) for i in range(N)]
        oracle_time = time.perf_counter() - t1

        beta_lower = np.array([res.beta_lower for res in results])
        gap = float((y0 - beta_lower).sum())
        solved_counts = store.counts()      # rows present in this LP solve
        added = 0
        for i, res in enumerate(results):
            added += store.add(i, res.x, res.z)
            for (px, pz) in res.pool:
                added += store.add(i, px, pz)
        records.append(IterationRecord(r, sol.value, gap, added, lp_time,
                                       oracle_time))
        log.info("iter %d: lp=%.9g gap=%.3g cuts+%d", r, sol.value, gap, added)

        if gap <= eps_lsip:
            alpha_ub = sol.value
            alpha_lb = sol.value - gap
            solution = ParametricSolution(beta_lower.copy(), y, w)
            duals = _extract_duals(store, sol, N, solved_counts)
            return CuttingPlaneResult(alpha_ub, alpha_lb, solution, duals,
                                      records, problem.A_ub.shape[0],
                                      eps_lsip)
    raise MaxIterationsExceededError(
        "no convergence in %d iterations (gap %.3g > %.3g)"
        % (max_iterations, records[-1].gap, eps_lsip), records[-1].gap)


def _extract_duals(store, sol, N, row_counts):
    """Dual measures from the LP row multipliers, pruned and renormalized.

    ``row_counts`` are the per-category cut counts at solve time; the store
    may have grown since (the terminating iteration still appends its cuts).
    """
    theta = sol.duals_ineq
    xs, zs, ws = [], [], []
    pos = 0
    for i in range(N):
        q = row_counts[i]
        ti = theta[pos:pos + q]
        pos += q
        keep = np.flatnonzero(ti > WEIGHT_PRUNE)
        if keep.size == 0:
            # numerically massless category; keep the largest row
            keep = np.array([int(np.argmax(ti))])
        wts = ti[keep] / ti[keep].sum()
        xs.append(np.stack([store.xs[i][j] for j in keep]))
        zs.append(np.stack([store.zs[i][j] for j in keep]))
        ws.append(wts)
    return DualDiscreteMeasures(xs, zs, ws)
