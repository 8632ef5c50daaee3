"""Assembly of approximate matching equilibria from cutting-plane outputs.

Given the solver's feasible parametric solution and discrete dual measures,
this module builds the two candidate equilibria and their certificates:

* the discrete quality measure (the quality marginal of one dual measure),
  with coupled agent samples generated by a chain of conditional samplers --
  quality-to-quality W1 coupling, the dual disintegration, then a W1
  coupling onto the true agent measure;
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

import numpy as np

from .cutting_plane import sparsity_bound
from .geometry import FiniteSpace, epsilon_bar, point_key
from .linprog import solve_min
from .measures import (CpwaDensityMeasure, DiscreteMeasure, moment_vector,
                       spawn_rngs)
from .oracle import _vertex_multipliers
from .problems import QuadraticBarycenterCost, TabulatedCpwaCost
from .transport import (draw_columns, ot_discrete, ot_quantile_1d,
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

    Vectorized over samples; ``x_list`` holds one (n, d_i) array per
    category.  Exact for the shipped cost families; ties are broken by the
    lexicographically smallest minimizer among the candidate points.  For
    the min-of-convex-terms families the model's ``z_opt_values`` gives the
    candidates of each sample and the summed cost at them, +inf at invalid
    ones.  The capped-affine candidates come from the quality region's
    ``boundary``, not its mesh: the summed cost does not depend on the mesh
    and is affine on each cell of its kink-line arrangement, so its minimum
    and lexicographically smallest minimizer lie at a line/line crossing
    inside the region, a line/boundary-segment crossing or a boundary
    corner.  The business-location candidates are the grid of vertical and
    horizontal kink lines in the box.  The quadratic family's projection of
    an outside weighted mean lies on the boundary for the same reason.
    """
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    n = x_list[0].shape[0]
    # a tabulated cost is biaffine on each cell pair, so a vertex minimizes
    if isinstance(z_space, FiniteSpace) \
            or isinstance(model, TabulatedCpwaCost):
        zs = z_space.vertices
        vals = np.zeros((n, len(zs)))
        for i in range(model.N):
            vals += model.eval_grid(i, x_list[i], zs)
        pts = np.broadcast_to(zs[None], (n,) + zs.shape)
        return zs[_lex_argmin(pts, vals)]
    if isinstance(model, QuadraticBarycenterCost):
        return _z_opt_quadratic(model, x_list, z_space)
    # min-of-convex-terms families: exact candidate arrangements per sample
    out = np.empty((n, z_space.dim))
    for s0 in range(0, n, chunk):
        sl = slice(s0, min(s0 + chunk, n))
        xs = [X[sl] for X in x_list]
        cand, vals = model.z_opt_values(xs, z_space)
        out[sl] = cand[np.arange(len(cand)), _lex_argmin(cand, vals)]
    return out


def _z_opt_quadratic(model, x_list, z_space):
    """Weighted mean, projected onto the quality complex's boundary where
    it falls outside."""
    xbar = np.zeros_like(x_list[0])
    for i in range(model.N):
        xbar += model.lam[i] * x_list[i]
    inside = z_space.covers(xbar)
    out = xbar.copy()
    if not inside.all():
        if z_space.dim > 2:
            raise EquilibriumError(
                "quality selector needs the quality space to contain the "
                "weighted type means in dimension > 2")
        V = z_space.vertices
        corners, segments = z_space.boundary
        C = V[corners]
        e0 = V[segments[:, 0]]
        de = V[segments[:, 1]] - e0
        xs = xbar[~inside]
        # the projection of an outside point onto the region lies on its
        # boundary: the closed segments, with the corners taken exactly
        vv = (C ** 2).sum(1)[None, :] - 2.0 * xs @ C.T
        num = ((xs[:, None, :] - e0[None]) * de[None]).sum(-1)
        t = np.clip(num / (de ** 2).sum(1)[None], 0.0, 1.0)
        ze = e0[None] + t[..., None] * de[None]
        ve = (ze ** 2).sum(-1) - 2.0 * np.einsum("nd,ned->ne", xs, ze)
        pts = np.concatenate(
            [np.broadcast_to(C[None], (len(xs),) + C.shape), ze], axis=1)
        vals = np.concatenate([vv, ve], axis=1)
        pick = _lex_argmin(pts, vals)
        out[~inside] = pts[np.arange(len(xs)), pick]
    return out


# ---------------------------------------------------------------------------
# transfer functions

def transfer_eval(model, i, Z, solution, x_spaces, x_bases):
    """Transfer function of category i on a batch of quality points.

    For i < N-1 this is the exact infimum over the type space of the cost
    minus the parametrized potential; the last category is the negative sum
    of the others, making the family sum to zero identically.
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
    y0 = solution.y0[i]
    y = solution.y[i]
    basis = x_bases[i]
    space = x_spaces[i]
    if isinstance(model, (QuadraticBarycenterCost, TabulatedCpwaCost)) \
            or isinstance(space, FiniteSpace):
        cand = space.vertices
        Yc = _vertex_multipliers(basis, y)
        C = model.eval_grid(i, cand, Z)
        return (C - Yc[:, None]).min(axis=0) - y0
    out = np.empty(Z.shape[0])
    for s, z in enumerate(Z):
        cand = model.transfer_x_candidates(i, z, space)
        g = basis.eval_many(cand)
        vals = model.eval(i, cand, np.broadcast_to(z, (len(cand), len(z)))) \
            - g @ y
        out[s] = vals.min() - y0
    return out


def make_transfer_functions(model, solution, x_spaces, x_bases):
    """List of per-category callables evaluating the transfer functions."""
    def make(i):
        return lambda Z: transfer_eval(model, i, Z, solution, x_spaces,
                                       x_bases)
    return [make(i) for i in range(model.N)]


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
    transfer: list = field(default_factory=list, repr=False)
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
    """Vectorized conditional sampler chain behind the coupled streams."""

    def __init__(self, model, nu_hat, z_couplings, cond_x, xbar_couplings,
                 mu_hat_atoms, z_space):
        self.model = model
        self.nu_hat = nu_hat
        self.z_couplings = z_couplings          # per i: DiscreteCoupling
        self.cond_x = cond_x                    # per i: rows aligned to nu_i
        self.xbar_couplings = xbar_couplings    # per i: coupling onto mu_i
        self.mu_hat_atoms = mu_hat_atoms        # per i
        self.z_space = z_space

    def sample(self, rng, n, with_zbar=True):
        a = rng.choice(self.nu_hat.n_atoms, size=n, p=self.nu_hat.weights)
        Z = self.nu_hat.atoms[a]
        Xbars = []
        for i in range(self.model.N):
            _, b = self.z_couplings[i].sample_given_source(rng, a)
            xi_idx = draw_columns(rng, self.cond_x[i], b)
            Xb = self.xbar_couplings[i].sample_given_source(rng, xi_idx)
            Xbars.append(Xb[0] if isinstance(Xb, tuple) else Xb)
        out = {"Z": Z, "X_bar": Xbars}
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
    duals = cp_result.duals
    nu_parts = [duals.z_marginal(i) for i in range(N)]
    nu_measures = [DiscreteMeasure(a, w) for a, w in nu_parts]

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
    nu_atoms, nu_w = nu_parts[i_hat]
    reduced = False
    if len(nu_w) > bound:
        nu_atoms, nu_w = _reduce_support(nu_atoms, nu_w, z_basis, bound)
        reduced = True
        log.info("quality support reduced to %d atoms", len(nu_w))
    nu_hat = DiscreteMeasure(nu_atoms, nu_w)

    # quality-to-quality couplings
    z_couplings = [ot_discrete(nu_hat, nu_measures[i])[0] for i in range(N)]

    # dual disintegration, aligned with each nu_i's atom order
    cond_x = []
    mu_hat_atoms = []
    for i in range(N):
        zatoms = nu_parts[i][0]
        zkey = {point_key(z): q for q, z in enumerate(zatoms)}
        rows = [None] * len(zatoms)
        mh_atoms, mh_w = duals.x_marginal(i)
        mu_hat_atoms.append(mh_atoms)
        xkey = {point_key(x): q for q, x in enumerate(mh_atoms)}
        for z, xs, probs in duals.conditional_x_given_z(i):
            rows[zkey[point_key(z)]] = (
                np.asarray([xkey[point_key(x)] for x in xs], dtype=int),
                np.cumsum(probs))
        cond_x.append(rows)

    # couplings onto the true agent measures, each with its kind,
    # refinement and marginal residual
    xbar_couplings = []
    records = []
    for i in range(N):
        mu_hat = DiscreteMeasure(mu_hat_atoms[i],
                                 duals.x_marginal(i)[1])
        mu = measures[i]
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
        xbar_couplings.append(coup)
        records.append(dict(zip(("kind", "refinement", "marginal_residual"),
                                rec)))
    all_discrete = all(r["kind"] == "discrete" for r in records)

    chain = _SamplerChain(model, nu_hat, z_couplings, cond_x, xbar_couplings,
                          mu_hat_atoms, z_space)

    exact = _exact_bounds(model, chain, measures, z_space) \
        if all_discrete else None
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


def _exact_bounds(model, chain, measures, z_space):
    """Exact expectations ``(hat, tilde)`` for fully discrete data by
    kernel-chain products, or None when the tilde enumeration would exceed
    ``EXACT_COMBO_CAP`` type combinations."""
    N = model.N
    nu = chain.nu_hat
    na = nu.n_atoms
    # per category: conditional law of X_bar given the root quality atom
    kernels = []
    xbar_atoms = []
    for i in range(N):
        plan = chain.z_couplings[i].plan            # (na, nb)
        K1 = plan / plan.sum(axis=1, keepdims=True)
        K2 = np.zeros((len(chain.cond_x[i]), len(chain.mu_hat_atoms[i])))
        for b, (cols, cum) in enumerate(chain.cond_x[i]):
            K2[b, cols] += np.diff(np.concatenate([[0.0], cum]))
        coup = chain.xbar_couplings[i]
        mu = measures[i]
        K3 = coup.plan / coup.plan.sum(axis=1, keepdims=True)
        kernels.append(K1 @ K2 @ K3)                # (na, n_mu_atoms)
        xbar_atoms.append(mu.atoms)
    total = 0
    for a in range(na):
        sizes = [int((kernels[i][a] > 1e-15).sum()) for i in range(N)]
        prod = 1
        for s in sizes:
            prod *= max(s, 1)
        total += prod
    if total > EXACT_COMBO_CAP:
        return None
    hat = 0.0
    for i in range(N):
        M = nu.weights[:, None] * kernels[i]        # joint (Z, X_bar_i)
        C = model.eval_grid(i, xbar_atoms[i], nu.atoms).T
        hat += float((M * C).sum())
    tilde = 0.0
    import itertools
    for a in range(na):
        supports = [np.flatnonzero(kernels[i][a] > 1e-15) for i in range(N)]
        for combo in itertools.product(*supports):
            p = nu.weights[a]
            for i in range(N):
                p *= kernels[i][a, combo[i]]
            if p <= 1e-300:
                continue
            xs = [xbar_atoms[i][combo[i]][None, :] for i in range(N)]
            zb = z_opt(model, xs, z_space)
            val = sum(float(model.eval(i, xs[i], zb)[0]) for i in range(N))
            tilde += p * val
    return hat, tilde


# ---------------------------------------------------------------------------
# diagnostics

def equilibrium_diagnostics(report, model, measures, x_spaces, x_bases,
                            z_space, z_basis, solution, rng, n=20000,
                            z_grid=None):
    """Empirical residuals of the equilibrium conditions.

    Returns a dict with the marginal moment mismatches of the coupled
    samples, the worst-case absolute sum of the transfer functions on a
    test grid (zero by construction), and the complementarity proxy based
    on a grid-approximated cost transform.
    """
    N = model.N
    S = report._chain.sample(rng, n, with_zbar=False)
    transfers = make_transfer_functions(model, solution, x_spaces, x_bases)
    if z_grid is None:
        z_grid = z_space.vertices
    out = {"marginal_x": [], "marginal_z": [], "zero_sum": 0.0,
           "complementarity": []}
    phi_grid = np.stack([transfers[i](z_grid) for i in range(N)])
    out["zero_sum"] = float(np.abs(phi_grid.sum(axis=0)).max())
    Hz_exact = report.nu_hat.weights @ z_basis.eval_many(report.nu_hat.atoms)
    Hz_emp = z_basis.eval_many(S["Z"]).mean(axis=0)
    for i in range(N):
        g_exact = moment_vector(measures[i], x_bases[i])
        g_emp = x_bases[i].eval_many(S["X_bar"][i]).mean(axis=0)
        out["marginal_x"].append(
            float(np.abs(g_emp - g_exact).max()) if g_exact.size else 0.0)
        out["marginal_z"].append(float(np.abs(Hz_emp - Hz_exact).max()))
        phi_z = transfers[i](S["Z"])
        cost = model.eval(i, S["X_bar"][i], S["Z"])
        # grid-approximated cost transform at the sampled types
        C = np.empty((n, len(z_grid)))
        for q0 in range(0, n, 4096):
            sl = slice(q0, min(q0 + 4096, n))
            C[sl] = model.eval_grid(i, S["X_bar"][i][sl], z_grid)
        phic = (C - phi_grid[i][None, :]).min(axis=1)
        out["complementarity"].append(
            float((cost - phi_z - phic).mean()))
    return out


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
