"""The exact global minimization oracle.

Given a category index i and multipliers (y, w) on the test functions, the
oracle returns a minimizer of

    min over (x, z) of  c_i(x, z) - <g_i(x), y> - <h(z), w>

together with its objective value, the test-function vectors at the
minimizer, a certified lower bound on the true minimum, and a pool of
further low-value pairs to add as cuts.  The oracle is exact: the certified
bound equals the returned value.

``_exact_oracle`` picks one of three candidate generators, each returning
flat ``(vals, X, Z)`` arrays: every type-vertex x quality-vertex pair where
both arguments are vertex-exact (``vertex_exact``: the cost family's
``affine_in_x`` / ``affine_in_z``, or a finite space), the closed-form faces
of the quality complex for the quadratic barycenter cost, and otherwise the
family's oracle terms.  ``_best_and_pool`` turns any generator's candidates
into the optimum and the cut pool.  ``type_minima`` answers the same
minimization over the type space alone at fixed quality points, which the
transfer functions need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import linprog
from .geometry import FiniteSpace, point_key, point_keys
from .problems import (DirectL1Term, QuadraticBarycenterCost, ScalarRampTerm,
                       SeparableL1Term, axis_arrangement_candidates)


class OracleError(RuntimeError):
    pass


class WrongCostModelError(OracleError):
    pass


@dataclass
class OracleResult:
    x: np.ndarray
    z: np.ndarray
    beta_tilde: float
    g_at_x: np.ndarray
    h_at_z: np.ndarray
    beta_lower: float
    pool: list = field(default_factory=list)   # (x, z) pairs incl. the optimum


def vertex_exact(affine, space):
    """Whether the vertices of ``space`` minimize the cost minus any hat
    combination in that argument: the cost family is affine in it on each
    cell (``CostModel.affine_in_x`` / ``affine_in_z``), or the space is
    finite."""
    return affine or isinstance(space, FiniteSpace)


def _vertex_multipliers(basis, coeffs):
    """Per-vertex values of <g(.), coeffs>, zero at the excluded vertex."""
    out = np.zeros(basis.complex.n_vertices)
    out[basis._keep] = coeffs
    return out


def _finalize(model, i, x_basis, z_basis, y, w, x, z, pool, beta_lower):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = x_basis.eval(x)
    h = z_basis.eval(z)
    beta = float(model.eval(i, x[None, :], z[None, :])[0] - g @ y - h @ w)
    return OracleResult(x=x, z=z, beta_tilde=beta, g_at_x=g, h_at_z=h,
                        beta_lower=min(beta_lower, beta), pool=pool)


def _side_minima(space, basis, coeffs, anchor, weight, cache, cache_key):
    """Candidates and values of weight*||. - anchor||_1 - <g(.), coeffs>.

    Returns (points, values) over the exact candidate set for this anchor.
    Basis values at the static candidate set are cached across oracle calls.
    """
    if cache_key not in cache:
        if anchor is None or isinstance(space, FiniteSpace):
            cand = space.vertices
        else:
            cand = axis_arrangement_candidates(space, np.atleast_2d(anchor))
        G = basis.eval_many(cand)
        cache[cache_key] = (cand, G)
    cand, G = cache[cache_key]
    vals = -G @ coeffs
    if anchor is not None and weight != 0.0:
        vals = vals + weight * np.abs(cand - np.asarray(anchor)).sum(axis=1)
    return cand, vals


def _cell_vertex_arrays(space):
    """Per-cell vertex coordinates and indices, treating a finite space as a
    collection of single-point cells."""
    if isinstance(space, FiniteSpace):
        pts = space.vertices[:, None, :]
        idx = np.arange(space.n_vertices)[:, None]
        return pts, idx
    return space._cell_pts, space.simplices


def _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv):
    """Per-(x-cell, z-cell) minima of a coupled convex term plus the
    per-cell affine multiplier parts.

    The cells are given by their vertex coordinates and vertex indices
    (``_cell_vertex_arrays``).  Each pair minimizes in barycentric
    variables (lam, mu) and the term's auxiliary variables.  The pairs
    share no variables, so one block-diagonal LP solves them all.  Returns
    the (nx, nz) value table and the (nx * nz, nv) block solutions,
    x-cell major.
    """
    nx, kx = xi.shape
    nz, kz = zi.shape
    P = nx * nz                              # pairs, x-cell major
    Vx = np.repeat(xp, nz, axis=0)           # (P, kx, d)
    Vz = np.tile(zp, (nx, 1, 1))             # (P, kz, d)
    if isinstance(term, DirectL1Term):
        # |x_l - z_l| <= a_l: one row pair per coordinate l
        d = xp.shape[2]
        aux = np.full(d, term.weight)
        gx = Vx.transpose(0, 2, 1)
        gz = -Vz.transpose(0, 2, 1)
        rhs = 0.0
    elif isinstance(term, ScalarRampTerm):
        # |x - <s, z>| - kappa1 <= r
        aux = np.array([term.slope])
        gx = Vx[:, None, :, 0]
        gz = -(Vz @ term.s)[:, None, :]
        rhs = term.kappa1
    else:
        raise WrongCostModelError("unknown coupled term %r" % term)
    na = len(aux)
    nv = kx + kz + na
    ga = np.broadcast_to(-np.eye(na), (P, na, na))
    plus = np.concatenate([gx, gz, ga], axis=2)
    minus = np.concatenate([-gx, -gz, ga], axis=2)
    ub = np.stack([plus, minus], axis=2).reshape(P, 2 * na, nv)
    eq = np.zeros((2, nv))
    eq[0, :kx] = 1.0
    eq[1, kx:kx + kz] = 1.0
    C = np.concatenate([-np.repeat(Yv[xi], nz, axis=0),
                        -np.tile(Wv[zi], (nx, 1)),
                        np.broadcast_to(aux, (P, na))], axis=1)
    sol = linprog.solve_min(
        C.ravel(),
        A_ub=sparse.block_diag(ub, format="csr"), b_ub=np.full(P * 2 * na, rhs),
        A_eq=sparse.block_diag(np.broadcast_to(eq, (P, 2, nv)), format="csr"),
        b_eq=np.ones(2 * P))
    X = sol.x.reshape(P, nv)
    # one dot product per block: a batched sum rounds differently and
    # reorders near-tied pairs, and with them the offered cuts
    vals = np.array([c @ x for c, x in zip(C, X)])
    return vals.reshape(nx, nz), X


def _anchor_key(side, anchor, space):
    """Cache key of a ``_side_minima`` candidate set."""
    return (side, None if anchor is None else point_key(anchor), id(space))


def type_minima(model, i, x_space, x_basis, y, Z):
    """min over x of c_i(x, z) - <g_i(x), y> at every row z of Z.

    The oracle's global minimization with the quality point held fixed
    and no quality multipliers.  Where the type side is vertex-exact
    (``vertex_exact``) this is the minimum over the type vertices.
    Otherwise it is the minimum over the family's oracle terms: a
    separable term minimizes its type side over its exact candidate set
    and adds its quality side; a coupled term solves the oracle's block LP
    with each quality point as a one-point cell.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Yv = _vertex_multipliers(x_basis, y)
    if vertex_exact(model.affine_in_x, x_space):
        return (model.eval_grid(i, x_space.vertices, Z)
                - Yv[:, None]).min(axis=0)
    xp, xi = _cell_vertex_arrays(x_space)
    cache = {}
    out = np.full(len(Z), np.inf)
    for term in model.oracle_terms(i):
        if isinstance(term, SeparableL1Term):
            vx = _side_minima(x_space, x_basis, y, term.anchor_x,
                              term.weight_x, cache,
                              _anchor_key("x", term.anchor_x, x_space))[1]
            v = vx.min() + term.const
            if term.anchor_z is not None:
                v = v + term.weight_z * np.abs(Z - term.anchor_z).sum(1)
        else:
            v = _coupled_term_values(term, xp, xi, Z[:, None, :],
                                     np.arange(len(Z))[:, None], Yv,
                                     np.zeros(len(Z)))[0].min(axis=0)
        np.minimum(out, v, out=out)
    return out


# ---------------------------------------------------------------------------
# candidate generators: flat (vals, X, Z) arrays

def _vertex_candidates(model, i, x_space, z_space, Yv, Wv):
    """Every type-vertex x quality-vertex pair, x-major."""
    xs, zs = x_space.vertices, z_space.vertices
    vals = model.eval_grid(i, xs, zs) - Yv[:, None] - Wv[None, :]
    return (vals.ravel(), np.repeat(xs, len(zs), axis=0),
            np.tile(zs, (len(xs), 1)))


def _quadratic_candidates(lam, x_space, z_space, Yv, Wv):
    """Closed-form candidates of the squared-distance barycenter cost.

    The cost is affine in x for fixed z, so the x-minimum over each cell
    sits at a vertex; for each x-vertex the strictly convex quadratic in z
    is minimized in closed form over every face (vertices, open edges, open
    cells) of the quality complex.  Faces whose minimizer is not interior
    get +inf.  x-vertex major, and per x-vertex the vertices, edges and
    cells in that order.
    """
    xs = x_space.vertices                              # (nx, d)
    V0 = z_space.vertices
    edges = z_space.edges
    e0 = V0[edges[:, 0]]
    de = V0[edges[:, 1]] - e0
    # per cell C: <h(z), w> = aC + <bC, z> on C
    minv = z_space._minv
    Wc = Wv[z_space.simplices]                         # (m, d+1)
    aC = np.einsum("mk,mk->m", Wc, minv[:, :, 0])
    bC = np.einsum("mk,mkd->md", Wc, minv[:, :, 1:])

    def q(X, Z):
        # lam (||z||^2 - 2 <x, z>) broadcast over matching leading shape
        return lam * ((Z ** 2).sum(-1) - 2.0 * (X * Z).sum(-1))

    # vertices
    vv = q(xs[:, None, :], V0[None]) - Wv[None, :]
    zv = np.broadcast_to(V0[None], (len(xs),) + V0.shape)
    # open edges: hat restricted to an edge is the 1d barycentric pair
    w1 = Wv[edges[:, 0]]
    w2 = Wv[edges[:, 1]]
    num = ((xs[:, None, :] - e0[None]) * de[None]).sum(-1) \
        + (w2 - w1)[None] / (2.0 * lam)
    t = num / (de ** 2).sum(1)[None]
    interior = (t > 1e-12) & (t < 1 - 1e-12)
    tcl = np.clip(t, 0.0, 1.0)
    zedge = e0[None] + tcl[..., None] * de[None]
    ve = q(xs[:, None, :], zedge) - (w1[None] + tcl * (w2 - w1)[None])
    ve = np.where(interior, ve, np.inf)
    # open cells: unconstrained minimizer of the quadratic minus the affine part
    zcell = xs[:, None, :] + bC[None] / (2.0 * lam)
    lamc = np.einsum("mkl,nml->nmk", minv[:, :, 1:], zcell) \
        + minv[None, :, :, 0]
    inside = lamc.min(-1) > 1e-12
    vc = q(xs[:, None, :], zcell) - (aC[None] + (bC[None] * zcell).sum(-1))
    vc = np.where(inside, vc, np.inf)

    vals = np.concatenate([vv, ve, vc], axis=1) - Yv[:, None]
    Z = np.concatenate([zv, zedge, zcell], axis=1)
    return (vals.ravel(), np.repeat(xs, vals.shape[1], axis=0),
            Z.reshape(-1, xs.shape[1]))


def _term_candidates(model, i, x_space, x_basis, z_space, z_basis, y, w,
                     Yv, Wv, cap, cache):
    """Candidates of a cost that is a minimum of convex CPWA terms.

    A separable term pairs the 8 lowest points of each side's exact
    candidate set (``_side_minima``), x-major.  A coupled term (direct
    city-block distance, scalar ramp) keeps the ``max(cap, 8)`` lowest
    per-cell-pair minima of one block-diagonal LP over all cell pairs.
    """
    vals, X, Z = [], [], []
    for term in model.oracle_terms(i):
        if isinstance(term, SeparableL1Term):
            cx, vx = _side_minima(x_space, x_basis, y, term.anchor_x,
                                  term.weight_x, cache,
                                  _anchor_key("x", term.anchor_x, x_space))
            cz, vz = _side_minima(z_space, z_basis, w, term.anchor_z,
                                  term.weight_z, cache,
                                  _anchor_key("z", term.anchor_z, z_space))
            kx = np.argsort(vx)[:8]
            kz = np.argsort(vz)[:8]
            vals.append((vx[kx][:, None] + vz[kz][None, :]
                         + term.const).ravel())
            X.append(np.repeat(cx[kx], len(kz), axis=0))
            Z.append(np.tile(cz[kz], (len(kx), 1)))
        else:
            xp, xi = _cell_vertex_arrays(x_space)
            zp, zi = _cell_vertex_arrays(z_space)
            v, sol = _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv)
            v = v.ravel()
            low = np.argsort(v)[:max(cap, 8)]
            kx, kz = xi.shape[1], zi.shape[1]
            vals.append(v[low])
            # one product per pair: a batched one rounds differently
            X.append(np.array([sol[b, :kx] @ xp[b // len(zi)]
                               for b in low]))
            Z.append(np.array([sol[b, kx:kx + kz] @ zp[b % len(zi)]
                               for b in low]))
    return np.concatenate(vals), np.vstack(X), np.vstack(Z)


def _best_and_pool(vals, X, Z, cap):
    """The optimum's index and the cut pool of flat candidates.

    The finite candidates are ranked by value, stably; the first lowest is
    the optimum.  The pool takes the ranked candidates of distinct point
    keys until it holds ``cap``, keying them ``cap`` at a time, so a call
    keys about as many candidates as it keeps.
    """
    order = np.argsort(vals, kind="stable")
    order = order[np.isfinite(vals[order])]
    if not len(order):
        raise OracleError("no candidate has a finite value")
    pool, seen, step = [], set(), max(cap, 1)
    for s in range(0, len(order), step):
        block = order[s:s + step]
        for q, key in zip(block, point_keys(np.hstack([X[block],
                                                       Z[block]]))):
            if key not in seen:
                seen.add(key)
                pool.append((X[q], Z[q]))
        if len(pool) >= cap:
            break
    return order[0], pool[:cap]


def _exact_oracle(model, i, x_space, x_basis, z_space, z_basis, y, w, cap,
                  cache):
    """One exact oracle call: the candidates of the generator that fits the
    cost family and the spaces, then the optimum and the pool."""
    Yv = _vertex_multipliers(x_basis, y)
    Wv = _vertex_multipliers(z_basis, w)
    if vertex_exact(model.affine_in_x, x_space) \
            and vertex_exact(model.affine_in_z, z_space):
        vals, X, Z = _vertex_candidates(model, i, x_space, z_space, Yv, Wv)
    elif isinstance(model, QuadraticBarycenterCost):
        vals, X, Z = _quadratic_candidates(model.lam[i], x_space, z_space,
                                           Yv, Wv)
    else:
        vals, X, Z = _term_candidates(model, i, x_space, x_basis, z_space,
                                      z_basis, y, w, Yv, Wv, cap, cache)
    b, pool = _best_and_pool(vals, X, Z, cap)
    return _finalize(model, i, x_basis, z_basis, y, w, X[b], Z[b], pool,
                     beta_lower=float(vals[b]))


def make_oracle(model, x_spaces, x_bases, z_space, z_basis,
                pool_margin=0.0, pool_cap=32):
    """The exact oracle of a problem as a callable ``oracle(i, y, w)``.

    Each call enumerates vertex pairs where both arguments are
    vertex-exact, takes the closed-form faces for the quadratic barycenter
    cost, and else the cost family's oracle terms, whose candidate sets
    are cached across calls; it offers at most ``pool_cap`` cuts of
    distinct point keys, the optimum first.  A family with none of these
    raises ``CostModelError`` from ``oracle_terms``.  ``pool_margin`` has
    no effect and is accepted only for callers that still pass it.
    """
    cache = {}

    def oracle(i, y, w):
        return _exact_oracle(model, i, x_spaces[i], x_bases[i], z_space,
                             z_basis, y, w, pool_cap, cache)

    return oracle
