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

def _lex_argmin(points, values):
    """Per-sample argmin with lexicographic tie-break on the point coords.

    ``values`` is (n, p) with +inf at invalid candidates.  Among candidates
    within ``TIE_TOL`` of the sample's minimum, keep those with the smallest
    first coordinate, then the smallest second, and so on; of exact
    duplicates the lowest index wins."""
    keep = values <= values.min(axis=1, keepdims=True) + TIE_TOL
    for l in range(points.shape[2]):
        c = np.where(keep, points[:, :, l], np.inf)
        keep &= c == c.min(axis=1, keepdims=True)
    return keep.argmax(axis=1)


def z_opt(model, x_list, z_space, chunk=1024):
    """Global minimizer of z -> sum_i c_i(x_i, z) over the quality space.

    Vectorized over samples, ``chunk`` rows at a time; ``x_list`` holds
    one (n, d_i) array per category.  Each chunk's candidates and the
    summed cost at them, +inf at invalid ones, come from the model's
    ``z_vertex_values`` where the quality side is vertex-exact
    (``oracle.vertex_exact``), else from its ``z_opt_values``.  Exact for
    the shipped cost families; ties are broken by the lexicographically
    smallest minimizer among the candidate points.
    """
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    n = x_list[0].shape[0]
    values = model.z_vertex_values \
        if vertex_exact(model.affine_in_z, z_space) else model.z_opt_values
    out = np.empty((n, z_space.dim))
    for s0 in range(0, n, chunk):
        sl = slice(s0, min(s0 + chunk, n))
        cand, vals = values([X[sl] for X in x_list], z_space)
        out[sl] = cand[np.arange(len(cand)), _lex_argmin(cand, vals)]
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
        tot = np.zeros(Z.shape[0])
        for j in range(N - 1):
            tot += transfer_eval(model, j, Z, solution, x_spaces, x_bases)
        return -tot
    return type_minima(model, i, x_spaces[i], x_bases[i], solution.y[i],
                       Z) - solution.y0[i]


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
    support_reduced: bool = False
    agent_couplings: list = field(default_factory=list)
    _chain: object = field(default=None, repr=False)

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

    def sample(self, rng, n, with_zbar=True):
        a = rng.choice(self.nu_hat.n_atoms, size=n, p=self.nu_hat.weights)
        Xbars = []
        for to_nu, dual, to_mu in self.links:
            b = to_nu.columns(rng, a)
            Xbars.append(to_mu.sample_given_source(rng, dual.columns(rng, b)))
        out = {"Z": self.nu_hat.atoms[a], "X_bar": Xbars}
        if with_zbar:
            out["Z_bar"] = z_opt(self.model, Xbars, self.z_space)
        return out


def _reduce_support(atoms, weights, z_basis, cap):
    """Re-express a discrete quality measure on at most k+1 atoms of its own
    support while preserving its test-function moments (basic solution of
    the moment system)."""
    H = z_basis.eval_many(atoms)
    target = weights @ H
    n = len(weights)
    A_eq = np.vstack([np.ones((1, n)), H.T])
    b_eq = np.concatenate([[1.0], target])
    c = np.linalg.norm(atoms, axis=1)    # any objective; a vertex is enough
    res = solve_min(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    w = np.clip(res.x, 0.0, None)
    keep = np.flatnonzero(w > 1e-12)
    if len(keep) > cap:
        keep = np.argsort(w)[::-1][:cap]
    w = w[keep] / w[keep].sum()
    return atoms[keep], w


def construct(cp_result, model, measures, x_spaces, x_bases, z_space,
              z_basis, mc_n=100000, mc_repetitions=20, seed=0,
              i_hat="auto", semidiscrete_params=None):
    """Build the equilibrium report from cutting-plane outputs.

    ``i_hat`` selects the reference dual measure: ``"auto"`` picks the
    category whose quality marginal minimizes the summed W1 distance to the
    others; an integer pins it.  The upper bounds are exact expectations
    when every agent measure is discrete and the enumeration stays within
    ``EXACT_COMBO_CAP`` combinations, else Monte Carlo estimates.
    ``semidiscrete_params`` is accepted for existing callers and has no
    effect: the coupling onto a continuous agent measure of dimension 2 or
    more is exact and has no settings.
    """
    N = model.N
    # each category's dual measure as a plan from its quality marginal nu_i
    # onto its type marginal mu_hat_i
    duals = []
    for i in range(N):
        zs, xs, P = cp_result.duals.plan(i)
        duals.append(DiscreteCoupling(DiscreteMeasure(zs, P.sum(1)),
                                      DiscreteMeasure(xs, P.sum(0)), P))
    nu_measures = [d.source for d in duals]

    if i_hat == "auto":
        if N == 1:
            i_hat = 0
        else:
            dsum = np.zeros(N)
            for i in range(N):
                for j in range(N):
                    if i != j:
                        dsum[i] += ot_discrete(nu_measures[i],
                                               nu_measures[j])[1]
            i_hat = int(np.argmin(dsum))
    i_hat = int(i_hat)

    bound = sparsity_bound([b.m for b in x_bases], z_basis.m)
    nu_hat = nu_measures[i_hat]
    reduced = nu_hat.n_atoms > bound
    if reduced:
        nu_hat = DiscreteMeasure(*_reduce_support(
            nu_hat.atoms, nu_hat.weights, z_basis, bound))
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
        links.append((ot_discrete(nu_hat, dual.source)[0], dual, coup))
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
    theo = eps_theo(cp_result.eps_lsip or cp_result.gap, model.L1, model.L2,
                    [epsilon_bar(sp, 0.0) for sp in x_spaces],
                    epsilon_bar(z_space, 0.0), i_hat)

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

def write_nu_hat_csv(report, path):
    import csv
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        d = report.nu_hat.atoms.shape[1]
        wr.writerow(["z%d" % j for j in range(d)] + ["weight"])
        for a, w in zip(report.nu_hat.atoms, report.nu_hat.weights):
            wr.writerow(["%.17g" % v for v in a] + ["%.17g" % w])


def write_coupling_csv(report, rng, n, i, path):
    import csv
    S = report._chain.sample(rng, n, with_zbar=False)
    X = S["X_bar"][i]
    Z = S["Z"]
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["x%d" % j for j in range(X.shape[1])]
                    + ["z%d" % j for j in range(Z.shape[1])])
        for xr, zr in zip(X, Z):
            wr.writerow(["%.17g" % v for v in xr] + ["%.17g" % v for v in zr])


def write_transfer_csv(model, solution, x_spaces, x_bases, z_points, i, path):
    import csv
    phi = transfer_eval(model, i, z_points, solution, x_spaces, x_bases)
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        d = np.atleast_2d(z_points).shape[1]
        wr.writerow(["z%d" % j for j in range(d)] + ["phi"])
        for z, v in zip(np.atleast_2d(z_points), phi):
            wr.writerow(["%.17g" % u for u in z] + ["%.17g" % v])


def write_nu_tilde_hist_csv(report, rng, n, path, bins=40):
    import csv
    S = report.sample_streams(rng, n)
    Zb = S["Z_bar"]
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        if Zb.shape[1] == 1:
            h, edges = np.histogram(Zb[:, 0], bins=bins)
            wr.writerow(["lo", "hi", "count"])
            for j in range(len(h)):
                wr.writerow(["%.17g" % edges[j], "%.17g" % edges[j + 1],
                             int(h[j])])
        else:
            h, ex, ey = np.histogram2d(Zb[:, 0], Zb[:, 1], bins=bins)
            wr.writerow(["x_lo", "x_hi", "y_lo", "y_hi", "count"])
            for a in range(h.shape[0]):
                for b in range(h.shape[1]):
                    wr.writerow(["%.17g" % ex[a], "%.17g" % ex[a + 1],
                                 "%.17g" % ey[b], "%.17g" % ey[b + 1],
                                 int(h[a, b])])


def write_report_json(report, path, extra=None):
    doc = report.to_json()
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
