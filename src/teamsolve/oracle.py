"""Global minimization oracles.

Given a category index i and multipliers (y, w) on the test functions, an
oracle returns a minimizer of

    min over (x, z) of  c_i(x, z) - <g_i(x), y> - <h(z), w>

together with its objective value, the test-function vectors at the
minimizer, a certified lower bound on the true minimum, and a pool of
further low-value pairs to add as cuts.  Both oracles are exact: the
certified bound equals the returned value.  ``type_minima`` answers the
same minimization over the type space alone at fixed quality points, which
the transfer functions need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import linprog
from .geometry import FiniteSpace, point_key
from .problems import (BusinessLocationCost, CappedAffineCost, DirectL1Term,
                       QuadraticBarycenterCost, ScalarRampTerm,
                       SeparableL1Term, TabulatedCpwaCost,
                       axis_arrangement_candidates)


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


def _vertex_multipliers(basis, coeffs):
    """Per-vertex values of <g(.), coeffs>, zero at the excluded vertex."""
    out = np.zeros(basis.complex.n_vertices)
    out[basis._keep] = coeffs
    return out


def _finalize(model, i, x_basis, z_basis, y, w, x, z, pool_pairs, beta_lower=None):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = x_basis.eval(x)
    h = z_basis.eval(z)
    beta = float(model.eval(i, x[None, :], z[None, :])[0] - g @ y - h @ w)
    return OracleResult(
        x=x, z=z, beta_tilde=beta, g_at_x=g, h_at_z=h,
        beta_lower=beta if beta_lower is None else min(beta_lower, beta),
        pool=pool_pairs)


def _pool_from_matrix(xs, zs, vals, cap):
    # the pool holds the best ``cap`` candidates: extra cuts are harmless
    # (grow-only LP) and markedly reduce the number of outer iterations
    flat = vals.ravel()
    best = flat.min()
    idx = np.argsort(flat, kind="stable")[:cap]
    nz = vals.shape[1]
    return [(xs[k // nz], zs[k % nz]) for k in idx], best, np.unravel_index(
        int(flat.argmin()), vals.shape)


def _enumeration_oracle(model, i, x_space, x_basis, z_space, z_basis, y, w,
                        cap):
    """Exact oracle by enumeration over vertex/point pairs.

    Valid whenever the objective restricted to every cell pair attains its
    minimum at a vertex pair: finite spaces, tabulated costs (biaffine on
    each cell pair), and the quadratic cost (affine in x) over a finite
    quality space.
    """
    xs = x_space.vertices
    zs = z_space.vertices
    Yv = _vertex_multipliers(x_basis, y)
    Wv = _vertex_multipliers(z_basis, w)
    vals = model.eval_grid(i, xs, zs) - Yv[:, None] - Wv[None, :]
    pool, best, (bi, bj) = _pool_from_matrix(xs, zs, vals, cap)
    return _finalize(model, i, x_basis, z_basis, y, w, xs[bi], zs[bj], pool,
                     beta_lower=float(best))


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


def _coupled_term_candidates(term, x_space, z_space, Yv, Wv, keep):
    """The ``keep`` lowest per-cell-pair minima of a coupled convex term as
    (value, x, z) triples."""
    xp, xi = _cell_vertex_arrays(x_space)
    zp, zi = _cell_vertex_arrays(z_space)
    vals, X = _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv)
    vals = vals.ravel()
    kx, nz, kz = xi.shape[1], zi.shape[0], zi.shape[1]
    out = []
    for b in np.argsort(vals)[:keep]:
        cx, cz = divmod(int(b), nz)
        out.append((vals[b], X[b, :kx] @ xp[cx], X[b, kx:kx + kz] @ zp[cz]))
    return out


def _anchor_key(side, anchor, space):
    """Cache key of a ``_side_minima`` candidate set."""
    return (side, None if anchor is None else point_key(anchor), id(space))


def type_minima(model, i, x_space, x_basis, y, Z):
    """min over x of c_i(x, z) - <g_i(x), y> at every row z of Z.

    The oracle's global minimization with the quality point held fixed
    and no quality multipliers.  Vertex families (tabulated and quadratic
    costs, affine in x on each cell for fixed z) and finite type spaces
    take the minimum over the type vertices.  Min-of-convex-terms families
    take the minimum over their oracle terms: a separable term minimizes
    its type side over its exact candidate set and adds its quality side;
    a coupled term solves the oracle's block LP with each quality point
    as a one-point cell.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Yv = _vertex_multipliers(x_basis, y)
    if isinstance(model, (QuadraticBarycenterCost, TabulatedCpwaCost)) \
            or isinstance(x_space, FiniteSpace):
        return (model.eval_grid(i, x_space.vertices, Z)
                - Yv[:, None]).min(axis=0)
    if not isinstance(model, (BusinessLocationCost, CappedAffineCost)):
        raise WrongCostModelError("cost model lacks a cpwa piece decomposition")
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


def oracle_cell_cpwa(model, i, x_space, x_basis, z_space, z_basis, y, w,
                     pool_cap=32, _cache=None):
    """Exact oracle for costs that are minima of convex CPWA terms.

    Separable terms are minimized by direct evaluation on their kink
    arrangement candidate sets; coupled terms (direct city-block distance,
    scalar ramps) by one block-diagonal LP over all cell pairs.  The
    certified bound equals the returned value.
    """
    if isinstance(model, TabulatedCpwaCost) or (
            isinstance(x_space, FiniteSpace)
            and isinstance(z_space, FiniteSpace)):
        return _enumeration_oracle(model, i, x_space, x_basis, z_space,
                                   z_basis, y, w, pool_cap)
    if not isinstance(model, (BusinessLocationCost, CappedAffineCost)):
        raise WrongCostModelError("cost model lacks a cpwa piece decomposition")
    cache = _cache if _cache is not None else {}
    terms = model.oracle_terms(i)
    candidates = []     # (value, x, z)
    for term in terms:
        if isinstance(term, SeparableL1Term):
            cx, vx = _side_minima(x_space, x_basis, y, term.anchor_x,
                                  term.weight_x, cache,
                                  _anchor_key("x", term.anchor_x, x_space))
            cz, vz = _side_minima(z_space, z_basis, w, term.anchor_z,
                                  term.weight_z, cache,
                                  _anchor_key("z", term.anchor_z, z_space))
            kx = np.argsort(vx)[:8]
            kz = np.argsort(vz)[:8]
            for a in kx:
                for b in kz:
                    candidates.append((vx[a] + vz[b] + term.const, cx[a], cz[b]))
        else:
            candidates += _coupled_term_candidates(
                term, x_space, z_space, _vertex_multipliers(x_basis, y),
                _vertex_multipliers(z_basis, w), max(pool_cap, 8))

    candidates.sort(key=lambda t: t[0])
    best_val, bx, bz = candidates[0]
    pool, seen = [], set()
    for v, px, pz in candidates:
        if len(pool) >= pool_cap:
            break
        key = (point_key(px), point_key(pz))
        if key in seen:
            continue
        seen.add(key)
        pool.append((np.atleast_1d(px), np.atleast_1d(pz)))
    return _finalize(model, i, x_basis, z_basis, y, w, bx, bz, pool,
                     beta_lower=float(best_val))


def oracle_quadratic(model, i, x_space, x_basis, z_space, z_basis, y, w,
                     pool_cap=32):
    """Exact oracle for the squared-distance barycenter cost.

    The cost is affine in x for fixed z, so the x-minimum over each cell sits
    at a vertex; for each x-vertex the strictly convex quadratic in z is
    minimized in closed form over every face (vertices, open edges, open
    cells) of the quality complex.
    """
    if not isinstance(model, QuadraticBarycenterCost):
        raise WrongCostModelError("oracle_quadratic needs the quadratic "
                                  "barycenter cost model")
    if isinstance(z_space, FiniteSpace):
        return _enumeration_oracle(model, i, x_space, x_basis, z_space,
                                   z_basis, y, w, pool_cap)
    lam = model.lam[i]
    xs = x_space.vertices                              # (nx, d)
    Yx = _vertex_multipliers(x_basis, y)
    Wv = _vertex_multipliers(z_basis, w)
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

    cand_vals = []
    cand_pts = []
    # vertices
    vv = q(xs[:, None, :], V0[None]) - Wv[None, :]
    cand_vals.append(vv)
    cand_pts.append(np.broadcast_to(V0[None], (len(xs),) + V0.shape))
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
    cand_vals.append(ve)
    cand_pts.append(zedge)
    # open cells: unconstrained minimizer of the quadratic minus the affine part
    zcell = xs[:, None, :] + bC[None] / (2.0 * lam)
    lamc = np.einsum("mkl,nml->nmk", minv[:, :, 1:], zcell) \
        + minv[None, :, :, 0]
    inside = lamc.min(-1) > 1e-12
    vc = q(xs[:, None, :], zcell) - (aC[None] + (bC[None] * zcell).sum(-1))
    vc = np.where(inside, vc, np.inf)
    cand_vals.append(vc)
    cand_pts.append(zcell)

    allv = np.concatenate([v for v in cand_vals], axis=1) - Yx[:, None]
    allp = np.concatenate([p for p in cand_pts], axis=1)
    flat = allv.ravel()
    best = int(flat.argmin())
    nz = allv.shape[1]
    bx, bz = xs[best // nz], allp[best // nz, best % nz]
    idx = np.argsort(flat, kind="stable")
    idx = idx[np.isfinite(flat[idx])][:pool_cap]
    pool = [(xs[k // nz], allp[k // nz, k % nz]) for k in idx]
    return _finalize(model, i, x_basis, z_basis, y, w, bx, bz, pool,
                     beta_lower=float(flat[best]))


def make_oracle(model, x_spaces, x_bases, z_space, z_basis,
                pool_margin=0.0, pool_cap=32):
    """Dispatching oracle callable with per-instance candidate caches.

    The returned function has the signature ``oracle(i, y, w)``, picks
    the exact oracle matching the cost model and offers at most ``pool_cap``
    cuts per call.  ``pool_margin`` has no effect and is accepted only for
    callers that still pass it.
    """
    cache = {}

    def oracle(i, y, w):
        if isinstance(model, QuadraticBarycenterCost):
            return oracle_quadratic(model, i, x_spaces[i], x_bases[i],
                                    z_space, z_basis, y, w, pool_cap)
        return oracle_cell_cpwa(model, i, x_spaces[i], x_bases[i],
                                z_space, z_basis, y, w, pool_cap,
                                _cache=cache)

    return oracle
