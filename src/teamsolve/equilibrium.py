"""Assembly of approximate matching equilibria from cutting-plane outputs.

Given the solver's feasible parametric solution and discrete dual measures,
this module builds the two candidate equilibria and their certificates:

* the discrete quality measure (the quality marginal of one dual measure),
  with coupled agent samples drawn through a chain of glued transport
  plans -- quality-to-quality W1 coupling, the dual measure as a plan from
  its quality to its type marginal, then a W1 coupling onto the true agent
  measure;
* the pushforward quality measure obtained by mapping coupled agent types
  through the cost-minimizing quality selector;
* Monte Carlo (or exact, for fully discrete data) upper bounds, the lower
  bound inherited from the solver, the sub-optimality certificates (upper
  minus lower), and the a-priori certificate from Lipschitz constants and
  mesh radii.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .cutting_plane import sparsity_bound
from .geometry import epsilon_bar
from .linprog import solve_min
from .measures import CpwaDensityMeasure, DiscreteMeasure, spawn_rngs
from .oracle import type_minima, vertex_exact
from .transport import (DiscreteCoupling, ot_discrete, ot_quantile_1d,
                        ot_semidiscrete)

log = logging.getLogger("teamsolve.equilibrium")

TIE_TOL = 1e-12
# the exact expectations of fully discrete data enumerate at most this many
# type combinations; beyond it the bounds are Monte Carlo estimates
EXACT_COMBO_CAP = 200000


class EquilibriumError(RuntimeError):
    pass


class UnsupportedMeasureClassError(EquilibriumError):
    pass


# ---------------------------------------------------------------------------
# quality selector

# samples per chunk of the quality selector for a family without buffers,
# from a measured table of 256, 512 and 1024 (CHANGES.md)
CHUNK = 256
# bytes of a buffered family's buffers per worker thread: a chunk takes as
# many samples as fit, at the bytes per sample the family states
# (``z_opt_buffers``), but at least CHUNK_MIN: 256 samples of the
# business-location bench's buffers, 12.7 kB each with a fare table (358 of
# 9.1 kB since).  CHUNK_MIN is a floor, not a measured optimum: with N = 100
# capped-affine categories, 384 samples on 2 CPUs took 292 ms in 4-sample
# chunks against 586 ms in 64-sample ones (CHANGES.md; ROADMAP item 8)
CHUNK_BYTES = 3_250_000
CHUNK_MIN = 64


def _lex_argmin(points, values, starts):
    """Per sample, the index of its pick among flat candidates.

    ``points`` is (m, d) and ``values`` (m,), +inf at invalid candidates;
    sample s owns the rows ``starts[s]:starts[s + 1]`` (the last one the
    rows to the end), at least one each.  Among a sample's candidates
    within ``TIE_TOL`` of its minimum, pick the one with the smallest first
    coordinate, then the smallest second, and so on; of exact duplicates
    the lowest index wins.  Only the tied candidates, about one per
    sample, are ranked, and only when some sample has two: by a stable
    sort on the sample, then the coordinates."""
    least = np.minimum.reduceat(values, starts)
    tied = np.flatnonzero(values <= np.repeat(
        least + TIE_TOL, np.diff(starts, append=len(values))))
    if len(tied) == len(starts):
        return tied             # one candidate within reach in every sample
    rows = np.searchsorted(starts, tied, side="right")
    order = np.lexsort((*points[tied].T[::-1], rows))
    first = np.flatnonzero(np.diff(rows[order], prepend=0))
    return tied[order[first]]


def z_opt(model, x_list, z_space):
    """Global minimizer of z -> sum_i c_i(x_i, z) over the quality space.

    Vectorized over samples, one chunk of rows at a time; ``x_list``
    holds one (n, d_i) array per category.  Each chunk's candidates and the
    summed cost at them, flat with each sample's start
    (``CostModel.z_opt_values``), come from the model's
    ``z_vertex_values`` where the quality side is vertex-exact
    (``oracle.vertex_exact``), else from its ``z_opt_values``.  Exact for
    the shipped cost families; ties are broken by the lexicographically
    smallest minimizer among the candidate points (``_lex_argmin``).
    A chunk of a family without buffers holds ``CHUNK`` samples, and one
    of a family with them the samples whose buffers fit in
    ``CHUNK_BYTES``, at the bytes per sample that ``z_opt_buffers``
    states, and at least ``CHUNK_MIN``.

    A family with per-thread buffers runs the chunks on one thread per CPU
    of the process's affinity mask (at most one per chunk); the others,
    whose chunks are mostly Python overhead, run them inline.  Each thread
    fills its own buffers, made once and reused for every chunk it takes,
    and writes its chunks' rows of the output, so the picks do not depend
    on the number of threads.
    """
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    n = x_list[0].shape[0]
    if vertex_exact(model.affine_in_z, z_space):
        values, buffers = model.z_vertex_values, None
    else:
        values, buffers = model.z_opt_values, model.z_opt_buffers(z_space)
    chunk = CHUNK
    if buffers is not None:
        row_bytes, buffers = buffers
        chunk = max(CHUNK_MIN, CHUNK_BYTES // row_bytes)
    out = np.empty((n, z_space.dim))
    per_thread = {}     # thread id -> its buffers

    def select(s0):
        xs = [X[s0:s0 + chunk] for X in x_list]
        if buffers is None:
            pts, vals, starts = values(xs, z_space)
        else:
            work = per_thread.get(threading.get_ident())
            if work is None:
                work = per_thread[threading.get_ident()] = buffers(
                    min(chunk, n))
            pts, vals, starts = values(xs, z_space, work)
        out[s0:s0 + chunk] = pts[_lex_argmin(pts, vals, starts)]

    starts = range(0, n, chunk)
    workers = 1 if buffers is None else min(len(os.sched_getaffinity(0)),
                                            len(starts))
    if workers <= 1:
        for s0 in starts:
            select(s0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(select, starts):
                pass
    return out


# ---------------------------------------------------------------------------
# transfer functions

def transfer_eval(model, i, Z, solution, x_spaces, x_bases):
    """Transfer function of category i on a batch of quality points.

    For i < N-1 this is the exact infimum over the type space of the cost
    minus the parametrized potential (``oracle.type_minima``); the last
    category is the negative sum of the others, making the family sum to
    zero identically.
    """
    N = model.N
    if not 0 <= i < N:
        raise EquilibriumError("category index out of range")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if i == N - 1:
        return transfer_table(model, solution, x_spaces, x_bases, Z)[i]
    return type_minima(model, i, x_spaces[i], x_bases[i], solution.y[i],
                       Z) - solution.y0[i]


def transfer_table(model, solution, x_spaces, x_bases, Z):
    """Every category's transfer function on the quality points ``Z``, as
    an (N, n) array from N-1 type minimizations: row i is
    ``transfer_eval(model, i, Z, ...)``, the last row summed in category
    order as it sums them."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    T = np.zeros((model.N, len(Z)))
    for i in range(model.N - 1):
        T[i] = transfer_eval(model, i, Z, solution, x_spaces, x_bases)
        T[-1] += T[i]
    T[-1] = -T[-1]
    return T


# ---------------------------------------------------------------------------
# a-priori certificate

def eps_theo(eps_lsip, L1, L2, w1_radius_x, w1_radius_h, i_hat):
    """A-priori sub-optimality certificate from Lipschitz constants and the
    W1 radii of the mesh moment classes."""
    L1 = np.atleast_1d(np.asarray(L1, dtype=float))
    L2 = np.atleast_1d(np.asarray(L2, dtype=float))
    rx = np.atleast_1d(np.asarray(w1_radius_x, dtype=float))
    other = np.delete(np.arange(len(L2)), i_hat)
    return float(eps_lsip + (L1 * rx).sum() + L2[other].sum() * w1_radius_h)


# ---------------------------------------------------------------------------
# the equilibrium report and its construction

@dataclass
class EquilibriumReport:
    nu_hat: DiscreteMeasure
    i_hat: int
    alpha_lb: float
    alpha_hat_ub: float
    alpha_hat_se: float
    alpha_tilde_ub: float
    alpha_tilde_se: float
    eps_hat_sub: float
    eps_tilde_sub: float
    eps_theo: float
    shift: float
    exact: bool
    mc_n: int
    mc_repetitions: int
    seed: int
    sparsity_bound: int
    support_reduced: bool
    agent_couplings: list
    _chain: object = field(repr=False)

    def sample_streams(self, rng, n):
        """Coupled sample streams: dict with Z, Z_bar, and per-category
        X_bar arrays (the laws of the two couplings and both quality
        measures)."""
        return self._chain.sample(rng, n)

    def to_json(self):
        return {
            "i_hat": int(self.i_hat),
            "alpha_lb": self.alpha_lb,
            "alpha_hat_ub": self.alpha_hat_ub,
            "alpha_hat_se": self.alpha_hat_se,
            "alpha_tilde_ub": self.alpha_tilde_ub,
            "alpha_tilde_se": self.alpha_tilde_se,
            "eps_hat_sub": self.eps_hat_sub,
            "eps_tilde_sub": self.eps_tilde_sub,
            "eps_theo": self.eps_theo,
            "objective_shift": self.shift,
            "exact_expectations": bool(self.exact),
            "mc": {"n": int(self.mc_n), "repetitions": int(self.mc_repetitions),
                   "seed": int(self.seed)},
            "nu_hat": {"atoms": self.nu_hat.atoms.tolist(),
                       "weights": self.nu_hat.weights.tolist()},
            "sparsity_bound": int(self.sparsity_bound),
            "support_reduced": bool(self.support_reduced),
            "agent_couplings": self.agent_couplings,
        }


class _SamplerChain:
    """Vectorized sampler of the glued couplings: per category the triple
    ``(to_nu, dual, to_mu)`` of couplings nu_hat -> nu_i (quality),
    nu_i -> mu_hat_i (the dual measure) and mu_hat_i -> mu_i (the agent)."""

    def __init__(self, model, nu_hat, links, z_space):
        self.model = model
        self.nu_hat = nu_hat
        self.links = links
        self.z_space = z_space

    def roots(self, rng, n):
        """n draws of the root quality atoms' indices."""
        return rng.choice(self.nu_hat.n_atoms, size=n, p=self.nu_hat.weights)

    def types(self, rng, i, a):
        """Category i's types given the root atoms ``a``, through its own
        link only: the links are independent given the root."""
        to_nu, dual, to_mu = self.links[i]
        return to_mu.sample_given_source(rng, dual.columns(
            rng, to_nu.columns(rng, a)))

    def sample(self, rng, n):
        """n draws of the root atoms, every category's types and the
        quality selector's picks."""
        a = self.roots(rng, n)
        Xbars = [self.types(rng, i, a) for i in range(len(self.links))]
        return {"Z": self.nu_hat.atoms[a], "X_bar": Xbars,
                "Z_bar": z_opt(self.model, Xbars, self.z_space)}


def _reduce_support(atoms, weights, z_basis):
    """Re-express a discrete quality measure on at most k+1 atoms of its own
    support while preserving its test-function moments (basic solution of
    the moment system)."""
    H = z_basis.eval_many(atoms)
    target = weights @ H
    n = len(weights)
    A_eq = np.vstack([np.ones((1, n)), H.T])
    b_eq = np.concatenate([[1.0], target])
    c = np.linalg.norm(atoms, axis=1)    # any objective; a vertex is enough
    res = solve_min(c, A_eq, b_eq)
    w = np.clip(res.x, 0.0, None)
    keep = np.flatnonzero(w > 1e-12)
    w = w[keep] / w[keep].sum()
    return atoms[keep], w


def construct(cp_result, model, measures, x_spaces, x_bases, z_space,
              z_basis, mc_n, mc_repetitions, seed, i_hat="auto",
              semidiscrete_params=None):
    """Build the equilibrium report from cutting-plane outputs.

    ``i_hat`` selects the reference dual measure: ``"auto"`` picks the
    category whose quality marginal minimizes the summed W1 distance to the
    others, solving each unordered pair once (W1 is symmetric); an integer
    (Python or numpy, not a ``bool``) pins it, and anything else is an
    ``EquilibriumError``.  The upper bounds are exact expectations when
    every agent measure is discrete and the enumeration stays within
    ``EXACT_COMBO_CAP`` combinations, else Monte Carlo estimates.
    ``semidiscrete_params`` is accepted for existing callers and has no
    effect: the coupling onto a continuous agent measure of dimension 2 or
    more is exact and has no settings.
    """
    N = model.N
    auto = isinstance(i_hat, str) and i_hat == "auto"
    if not auto and (isinstance(i_hat, bool)
                     or not isinstance(i_hat, (int, np.integer))):
        raise EquilibriumError('i_hat must be "auto" or an integer, not %r'
                               % (i_hat,))
    # each category's dual measure as a plan from its quality marginal nu_i
    # onto its type marginal mu_hat_i
    duals = []
    for i in range(N):
        zs, xs, P = cp_result.duals.plan(i)
        duals.append(DiscreteCoupling(DiscreteMeasure(zs, P.sum(1)),
                                      DiscreteMeasure(xs, P.sum(0)), P))
    nu_measures = [d.source for d in duals]

    pairs = {}      # (i, j) -> the W1 coupling nu_i -> nu_j, for i < j
    if auto:
        W = np.zeros((N, N))
        for i, j in zip(*np.triu_indices(N, 1)):
            pairs[i, j], W[i, j] = ot_discrete(nu_measures[i], nu_measures[j])
            W[j, i] = W[i, j]
        i_hat = np.argmin(W.sum(axis=1))
    i_hat = int(i_hat)
    if not 0 <= i_hat < N:
        raise EquilibriumError("i_hat %d outside [0, %d)" % (i_hat, N))

    bound = sparsity_bound([b.m for b in x_bases], z_basis.m)
    nu_hat = nu_measures[i_hat]
    reduced = nu_hat.n_atoms > bound
    if reduced:
        nu_hat = DiscreteMeasure(*_reduce_support(
            nu_hat.atoms, nu_hat.weights, z_basis))
        log.info("quality support reduced to %d atoms", nu_hat.n_atoms)

    # per category: nu_hat -> nu_i, the dual plan, then mu_hat_i onto the
    # true agent measure, recorded with its kind, refinement and marginal
    # residual
    links = []
    records = []
    for i, dual in enumerate(duals):
        mu_hat, mu = dual.target, measures[i]
        if isinstance(mu, DiscreteMeasure):
            coup = ot_discrete(mu_hat, mu)[0]
            rec = ("discrete", None, coup.marginal_residual())
        elif isinstance(mu, CpwaDensityMeasure) and mu.dim == 1:
            coup = ot_quantile_1d(mu_hat, mu)
            rec = ("quantile", None, 0.0)
        elif isinstance(mu, CpwaDensityMeasure):
            coup = ot_semidiscrete(mu_hat, mu)
            rec = ("cells", coup.refinement, coup.plan.marginal_residual())
        else:
            raise UnsupportedMeasureClassError(
                "measure %d of type %r" % (i, type(mu)))
        # an unreduced nu_hat is nu_measures[i_hat]: its coupling with
        # itself is the diagonal plan, the unique W1 optimum, and the pair
        # loop solved its couplings with the later categories
        if not reduced and i == i_hat:
            to_nu = DiscreteCoupling(nu_hat, nu_hat, np.diag(nu_hat.weights))
        elif not reduced and (i_hat, i) in pairs:
            to_nu = pairs[i_hat, i]
        else:
            to_nu = ot_discrete(nu_hat, dual.source)[0]
        links.append((to_nu, dual, coup))
        records.append(dict(zip(("kind", "refinement", "marginal_residual"),
                                rec)))
    all_discrete = all(r["kind"] == "discrete" for r in records)

    chain = _SamplerChain(model, nu_hat, links, z_space)

    exact = _exact_bounds(model, chain, z_space) if all_discrete else None
    if exact is not None:
        alpha_hat, alpha_tilde = exact
        alpha_hat_se = alpha_tilde_se = 0.0
    else:
        reps = spawn_rngs(seed, mc_repetitions)
        hats = np.empty(mc_repetitions)
        tildes = np.empty(mc_repetitions)
        for r, rng in enumerate(reps):
            S = chain.sample(rng, mc_n)
            hat_v = 0.0
            tilde_v = 0.0
            for i in range(N):
                hat_v += model.eval(i, S["X_bar"][i], S["Z"]).mean()
                tilde_v += model.eval(i, S["X_bar"][i], S["Z_bar"]).mean()
            hats[r] = hat_v
            tildes[r] = tilde_v
        alpha_hat, alpha_tilde = float(hats.mean()), float(tildes.mean())
        alpha_hat_se = alpha_tilde_se = 0.0
        if mc_repetitions > 1:
            alpha_hat_se = float(hats.std(ddof=1) / np.sqrt(mc_repetitions))
            alpha_tilde_se = float(tildes.std(ddof=1)
                                   / np.sqrt(mc_repetitions))

    alpha_lb = cp_result.alpha_lb
    theo = eps_theo(cp_result.eps_lsip, model.L1, model.L2,
                    [epsilon_bar(sp) for sp in x_spaces],
                    epsilon_bar(z_space), i_hat)

    shift = getattr(model, "shift", 0.0)
    return EquilibriumReport(
        nu_hat=nu_hat,
        i_hat=i_hat,
        alpha_lb=alpha_lb + shift,
        alpha_hat_ub=alpha_hat + shift,
        alpha_hat_se=alpha_hat_se,
        alpha_tilde_ub=alpha_tilde + shift,
        alpha_tilde_se=alpha_tilde_se,
        eps_hat_sub=alpha_hat - alpha_lb,
        eps_tilde_sub=alpha_tilde - alpha_lb,
        eps_theo=theo,
        shift=shift,
        exact=exact is not None,
        mc_n=mc_n,
        mc_repetitions=mc_repetitions,
        seed=seed,
        sparsity_bound=bound,
        support_reduced=reduced,
        agent_couplings=records,
        _chain=chain,
    )


def _exact_bounds(model, chain, z_space):
    """Exact expectations ``(hat, tilde)`` for fully discrete data, or None
    when the tilde enumeration would exceed ``EXACT_COMBO_CAP`` type
    combinations.  Category i's law of X_bar given the root quality atom is
    the product of its chain's row-normalised plans (Villani, *Optimal
    Transport: Old and New*, 2009, ch. 1, the gluing lemma)."""
    nu = chain.nu_hat
    kernels = [reduce(np.matmul, [c.plan / c.plan.sum(axis=1, keepdims=True)
                                  for c in link])   # (na, atoms of mu_i)
               for link in chain.links]
    supports = [[np.flatnonzero(K[a] > 1e-15) for K in kernels]
                for a in range(nu.n_atoms)]
    if sum(np.prod([max(len(s), 1) for s in sup]) for sup in supports) \
            > EXACT_COMBO_CAP:
        return None
    atoms = [link[-1].target.atoms for link in chain.links]
    hat = 0.0
    for i, K in enumerate(kernels):
        M = nu.weights[:, None] * K                 # joint (Z, X_bar_i)
        C = model.eval_grid(i, atoms[i], nu.atoms).T
        hat += float((M * C).sum())
    # every (root atom, type combination) with its probability, in one batch
    roots, combos = [], []
    for a, sup in enumerate(supports):
        grid = np.stack(np.meshgrid(*sup, indexing="ij"), axis=-1)
        combos.append(grid.reshape(-1, len(sup)))
        roots.append(np.full(len(combos[-1]), a))
    roots = np.concatenate(roots)
    combos = np.concatenate(combos)
    p = nu.weights[roots]
    for i, K in enumerate(kernels):
        p = p * K[roots, combos[:, i]]
    keep = p > 1e-300
    xs = [atoms[i][combos[keep, i]] for i in range(model.N)]
    zb = z_opt(model, xs, z_space)
    vals = sum(model.eval(i, xs[i], zb) for i in range(model.N))
    return hat, float(p[keep] @ vals)


# ---------------------------------------------------------------------------
# exports

def _write_csv(path, header, table, fmt=None):
    """Write the header and one line per row of the 2-D ``table``, each
    row formatted by ``fmt`` (default: every value as ``%.17g``), with the
    comma separators and CRLF line ends of the csv module."""
    if fmt is None:
        fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in table.tolist()]
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def write_nu_hat_csv(report, path):
    nu = report.nu_hat
    _write_csv(path, ["z%d" % j for j in range(nu.dim)] + ["weight"],
               np.column_stack([nu.atoms, nu.weights]))


def write_coupling_csv(report, rng, n, i, path):
    """Category i's coupled samples: n draws of the root quality atoms,
    then of its types through its own link alone."""
    chain = report._chain
    a = chain.roots(rng, n)
    X, Z = chain.types(rng, i, a), chain.nu_hat.atoms[a]
    _write_csv(path, ["x%d" % j for j in range(X.shape[1])]
               + ["z%d" % j for j in range(Z.shape[1])], np.hstack([X, Z]))


def write_transfer_csv(model, solution, x_spaces, x_bases, z_points, i, path):
    write_transfer_values_csv(
        z_points, transfer_eval(model, i, z_points, solution, x_spaces,
                                x_bases), path)


def write_transfer_values_csv(z_points, phi, path):
    """One transfer function's file: each quality point and its value
    (one row of ``transfer_table``)."""
    z_points = np.atleast_2d(z_points)
    _write_csv(path, ["z%d" % j for j in range(z_points.shape[1])] + ["phi"],
               np.column_stack([z_points, phi]))


def write_nu_tilde_hist_csv(report, rng, n, path):
    """Histogram of the pushforward quality samples: 40 bins per axis over
    the first one or two coordinates, one line per bin in C order."""
    Zb = report.sample_streams(rng, n)["Z_bar"][:, :2]
    h, edges = np.histogramdd(Zb, bins=40)
    cell = np.indices(h.shape).reshape(h.ndim, -1)
    names = [""] if h.ndim == 1 else ["x_", "y_"]
    cols = [e[c + k] for e, c in zip(edges, cell) for k in (0, 1)]
    _write_csv(path, [p + s for p in names for s in ("lo", "hi")] + ["count"],
               np.column_stack(cols + [h.ravel()]),
               "%.17g," * len(cols) + "%d")


def write_report_json(report, path, extra):
    with open(path, "w") as f:
        json.dump({**report.to_json(), **extra}, f, indent=2, sort_keys=True)
