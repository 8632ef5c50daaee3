"""The exact global minimization oracle.

Given a category index i and multipliers (y, w) on the test functions, the
oracle returns a minimizer of

    min over (x, z) of  c_i(x, z) - <g_i(x), y> - <h(z), w>

together with its objective value, a certified lower bound on the true
minimum, and a pool of further low-value pairs to add as cuts.  The oracle
is exact: the certified bound equals the returned value.

``_exact_oracle`` asks the model, never its class, which of three
candidate generators fits, each returning flat ``(vals, X, Z)`` arrays:
every type-vertex x quality-vertex pair where both arguments are
vertex-exact (``vertex_exact``), the family's closed-form minima on every
face of the quality complex at each type vertex (``face_minima``), or
else its oracle terms, a separable term's side taking the
``axis_arrangement_candidates`` of its anchor.  ``_best_and_pool`` turns
the candidates into the optimum and the cut pool.  Every ranking of
candidates is by value, ties in the order of generation: a stable sort,
never numpy's default, whose kernel (and so its ties) varies by CPU.
``type_minima`` answers the minimization over the type space alone at
fixed quality points, which the transfer functions need.

No LP is solved.  A coupled oracle term is convex and affine between its
kink hyperplanes, so on each (type cell, quality cell) pair its minimum
sits at a vertex of the pair cut by them.  Those vertices depend on the
geometry and the kinks only, not on the multipliers, so they are computed
once in closed form and cached, one row per vertex; a call values the
rows with the multipliers and takes the least per pair.  The values the
oracle returns are the objective at points it names, so the certified
bound rests on no solver's tolerances.

Static geometry is cached by content, never by object identity, so equal
meshes share it: a side's candidate set by the side, the anchor's bytes,
the space's vertex and cell arrays and the basis's excluded vertex
(``_side_table``), a coupled term's arrangement vertices by ``_pair_key``.
Each oracle keeps the entries it used; those within
``SHARED_CACHE_BYTES`` also go into one module-level LRU bounded by their
arrays' summed ``nbytes``, which later oracles and ``type_minima`` read.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .geometry import EdgeFrame, FiniteSpace, first_seen, point_keys
from .problems import SeparableL1Term


class OracleError(RuntimeError):
    pass


@dataclass
class OracleResult:
    x: np.ndarray
    z: np.ndarray
    beta_tilde: float
    beta_lower: float
    pool: list          # (x, z) pairs incl. the optimum


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
    return OracleResult(x=x, z=z, beta_tilde=beta,
                        beta_lower=min(beta_lower, beta), pool=pool)


def axis_arrangement_candidates(space, anchors):
    """Candidate minimizer points of a convex PWA function whose kinks lie on
    the axis-aligned hyperplanes through the given anchor points.

    Returns the union over the complex of: cell vertices, intersections of
    the anchor hyperplanes with cell edges, and pairwise hyperplane crossing
    points that land inside the complex.  Minimizing any function that is
    affine between these hyperplanes within each cell is exact on this set.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = space.dim
    levels = [np.unique(anchors[:, l]) for l in range(d)]
    axes = np.concatenate([np.full(len(v), l) for l, v in enumerate(levels)])
    on_edges, hit = EdgeFrame(space, space.edges, np.eye(d)[axes]).crossings(
        np.concatenate(levels))
    pts = [space.vertices, on_edges[hit]]
    if d >= 2:
        crossings = np.array(list(itertools.product(*levels))).reshape(-1, d)
        pts.append(crossings[space.covers(crossings)])
    return first_seen(np.vstack(pts))[0]


# The shared cache of static geometry, least recently used first, and the
# bound on the summed nbytes of its entries' arrays.  It takes no lock: the
# package's only threads are ``z_opt``'s, which call no oracle.
SHARED_CACHE_BYTES = 64 << 20
_shared = OrderedDict()


def _cached(cache, key, build):
    """``cache[key]``, on a miss taken from the shared cache or built.  An
    entry within ``SHARED_CACHE_BYTES`` also goes into the shared cache,
    which then drops its least recently used entries until it is within
    the bound; a larger one stays out, so it flushes nothing."""
    if key not in cache:
        entry = cache[key] = _shared.pop(key, None) or build()
        if sum(a.nbytes for a in entry) <= SHARED_CACHE_BYTES:
            _shared[key] = entry
            total = sum(a.nbytes for e in _shared.values() for a in e)
            while total > SHARED_CACHE_BYTES:
                total -= sum(a.nbytes for a in _shared.popitem(last=False)[1])
    return cache[key]


def _side_candidates(space, basis, anchor):
    """A side's exact candidate set for its anchor and the basis values
    there."""
    if anchor is None or isinstance(space, FiniteSpace):
        cand = space.vertices
    else:
        cand = axis_arrangement_candidates(space, np.atleast_2d(anchor))
    return cand, basis.eval_many(cand)


def _side_table(side, space, basis, coeffs, terms, cache):
    """The 8 lowest points of weight*||. - anchor||_1 - <g(.), coeffs> on
    the exact candidate set of each separable term's ``side``, "x" or "z".

    Each distinct (anchor, weight) is valued and sorted once.  A candidate
    set's cache key is the side, the basis's excluded vertex, the space's
    vertex and cell arrays with their shapes, and the anchor's bytes.
    Returns per term the (n_terms, k) values, lowest first, ties in
    candidate order, and the (n_terms, k, d) points, k the most points a
    side has up to 8; a side with fewer has +inf values after its own.
    """
    key = (side, basis.excluded) + tuple(
        (a.shape, a.tobytes())
        for a in (space.vertices, _cell_vertex_arrays(space)[1]))
    rows = {}
    index = [rows.setdefault((None if a is None else a.tobytes(), wt),
                             (len(rows), a, wt))[0]
             for a, wt in ((getattr(t, "anchor_" + side),
                            getattr(t, "weight_" + side)) for t in terms)]
    lows = []
    for (anchor_key, _), (_, anchor, weight) in rows.items():
        cand, G = _cached(cache, key + (anchor_key,),
                          lambda: _side_candidates(space, basis, anchor))
        vals = -G @ coeffs
        if anchor is not None and weight != 0.0:
            vals = vals + weight * np.abs(cand - anchor).sum(axis=1)
        low = np.argsort(vals, kind="stable")[:8]
        lows.append((cand[low], vals[low]))
    k = max(len(v) for _, v in lows)
    V = np.full((len(lows), k), np.inf)
    P = np.zeros((len(lows), k, space.dim))
    for r, (p, v) in enumerate(lows):
        V[r, :len(v)], P[r, :len(p)] = v, p
    return V[index], P[index]


def _cell_vertex_arrays(space):
    """Per-cell vertex coordinates and indices, treating a finite space as a
    collection of single-point cells."""
    if isinstance(space, FiniteSpace):
        pts = space.vertices[:, None, :]
        idx = np.arange(space.n_vertices)[:, None]
        return pts, idx
    return space._cell_pts, space.simplices


# A kink system whose scaled determinant is at most this is singular: its
# kinks are within this relative angle of parallel to its face, so the
# objective's slope changes along the face by at most this fraction and
# the face's own vertices attain its minimum to within it.
SINGULAR_TOL = 1e-14
# Barycentric weights down to minus this count as nonnegative.  A kept
# vertex is clipped onto its cell pair and valued there, so a generous
# tolerance only adds feasible candidates, while a tight one could drop a
# vertex whose zero weight rounds negative.
WEIGHT_TOL = 1e-9


def _kink_systems(kx, kz, q):
    """The square systems of a (kx-vertex, kz-vertex) cell pair cut by q
    kink hyperplanes, grouped by their number r of kinks.

    A system is a face J of the type cell, a face K of the quality cell
    and r = |J| + |K| - 2 of the kinks.  Per r: the base vertices (j0, k0)
    = (J[0], K[0]), the (ns, r) kink indices, and the (ns, r, kx) and
    (ns, r, kz) coefficients of the face's edge directions: the weights
    are e_j0 + sum_t t_t Dx[t] and e_k0 + sum_t t_t Dz[t].
    """
    def faces(k):
        return [J for n in range(1, k + 1)
                for J in itertools.combinations(range(k), n)]

    groups = {}
    for J in faces(kx):
        for K in faces(kz):
            r = len(J) + len(K) - 2
            for S in itertools.combinations(range(q), r):
                Dx, Dz = np.zeros((r, kx)), np.zeros((r, kz))
                for t, j in enumerate(J[1:]):
                    Dx[t, [j, J[0]]] = 1.0, -1.0
                for t, k in enumerate(K[1:], len(J) - 1):
                    Dz[t, [k, K[0]]] = 1.0, -1.0
                groups.setdefault(r, []).append((J[0], K[0], S, Dx, Dz))
    out = []
    for r in sorted(groups):
        j0, k0, S, Dx, Dz = zip(*groups[r])
        out.append((np.array(j0), np.array(k0),
                    np.array(S, dtype=int).reshape(len(S), r), np.array(Dx),
                    np.array(Dz)))
    return out


def _pair_vertices(term, xp, xi, zp, zi):
    """Every vertex of each cell pair's product polytope cut by the term's
    kink hyperplanes, one row per vertex, and the term's value there.

    Each pair (x-cell a, z-cell b) solves every ``_kink_systems`` system
    in the face's edge parameters t: the r chosen kinks, n . p = c, at
    the base vertex pair plus the edge steps.  A system is singular when
    its determinant is at most ``SINGULAR_TOL`` times the product of its
    kink normals' and edge directions' norms, a bound it cannot exceed;
    its solution, and one with a weight below ``-WEIGHT_TOL``, is no
    vertex.  A system whose kinks have linearly dependent normals is
    singular on every cell pair and is left out before solving.  Returns
    per row, in (x-cell, z-cell, system) order, its cells' global vertex
    indices ``ix``, ``iz``, its weights ``lx``, ``lz`` clipped onto them
    and its value ``T``; and each pair's first row ``start``, as r = 0 is
    never singular and gives every pair rows.
    """
    A, B, c = term.kinks()
    nx, kx, _ = xp.shape
    nz, kz, _ = zp.shape
    ax = xp @ A.T                                   # (nx, kx, q)
    bz = zp @ B.T                                   # (nz, kz, q)
    norms = np.sqrt((A ** 2).sum(1) + (B ** 2).sum(1))
    normals = np.hstack([A, B])
    rows = []
    for system in _kink_systems(kx, kz, len(c)):
        # |det M| is at most the root of the kink normals' Gram determinant
        # times the edge directions' norms: where that root is at most
        # SINGULAR_TOL times the normals' norms, M is singular on every
        # cell pair
        S = system[2]
        NS = normals[S]                             # (ns, r, dx + dz)
        full = (np.linalg.det(NS @ NS.transpose(0, 2, 1))
                > SINGULAR_TOL ** 2 * (norms[S] ** 2).prod(-1))
        if not full.any():
            continue
        j0, k0, S, Dx, Dz = (part[full] for part in system)
        ns = len(j0)
        axS = ax[:, :, S]                           # (nx, kx, ns, r)
        bzS = bz[:, :, S]
        M = (np.einsum("ntk,aknr->anrt", Dx, axS)[:, None]
             + np.einsum("ntk,bknr->bnrt", Dz, bzS)[None])
        rhs = (c[S] - axS[:, j0, np.arange(ns)][:, None]
               - bzS[:, k0, np.arange(ns)][None])
        ex = (np.einsum("ntk,akd->antd", Dx, xp) ** 2).sum(-1)
        ez = (np.einsum("ntk,bkd->bntd", Dz, zp) ** 2).sum(-1)
        scale = (np.sqrt(ex[:, None] + ez[None]).prod(-1)
                 * norms[S].prod(-1))
        singular = np.abs(np.linalg.det(M)) <= SINGULAR_TOL * scale
        M[singular] = np.eye(M.shape[-1])
        t = np.linalg.solve(M, rhs[..., None])[..., 0]
        wx = np.eye(kx)[j0] + np.einsum("abnt,ntk->abnk", t, Dx)
        wz = np.eye(kz)[k0] + np.einsum("abnt,ntk->abnk", t, Dz)
        ok = ~singular & (np.minimum(wx.min(-1), wz.min(-1)) >= -WEIGHT_TOL)
        rows.append((np.nonzero(ok.reshape(nx * nz, ns))[0], wx[ok], wz[ok]))
    pair, lx, lz = (np.concatenate(part) for part in zip(*rows))
    order = np.argsort(pair, kind="stable")   # keeps each pair's systems
    pair = pair[order]
    a, b = np.divmod(pair, nz)
    lx, lz = (np.clip(w[order], 0.0, None) for w in (lx, lz))
    lx, lz = lx / lx.sum(-1, keepdims=True), lz / lz.sum(-1, keepdims=True)
    T = term.eval(np.einsum("nk,nkd->nd", lx, xp[a]),
                  np.einsum("nk,nkd->nd", lz, zp[b]))
    return xi[a], lx, zi[b], lz, T, np.searchsorted(pair, np.arange(nx * nz))


def _pair_key(term, xp, xi, zp, zi):
    """Cache key of ``_pair_vertices``: the term's class and parameters and
    the cells' vertex coordinates and indices, so that equal terms on equal
    cells share one entry."""
    return ((type(term).__name__,)
            + tuple(np.asarray(v).tobytes() for _, v in
                    sorted(vars(term).items()))
            + tuple((a.shape, a.tobytes()) for a in (xp, xi, zp, zi)))


def _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv, cache):
    """Per-(x-cell, z-cell) minima of a coupled convex term plus the
    per-cell affine multiplier parts, and the points that attain them.

    The cells are given by their vertex coordinates and vertex indices
    (``_cell_vertex_arrays``).  On a cell pair the objective is convex and
    affine between the term's kink hyperplanes, so its minimum sits at a
    vertex of the pair cut by them (``_pair_vertices``, cached across
    calls and oracles by ``_cached``).  A call values the rows with the
    multipliers and takes each pair's first least row.  Returns the
    (nx, nz) value table and the (nx * nz, d) points, x-cell major.
    """
    ix, lx, iz, lz, T, start = _cached(
        cache, _pair_key(term, xp, xi, zp, zi),
        lambda: _pair_vertices(term, xp, xi, zp, zi))
    # k innermost: another summation order moves the values' last bits
    vals = (T - np.einsum("nk,nk->n", lx, Yv[ix])
            - np.einsum("nk,nk->n", lz, Wv[iz]))
    low = np.minimum.reduceat(vals, start)
    hit = np.flatnonzero(vals == low.repeat(np.diff(start, append=len(T))))
    first = hit[np.searchsorted(hit, start)]   # each pair's first least row
    return (low.reshape(len(xp), len(zp)),
            np.einsum("nk,nkd->nd", lx[first], xp.repeat(len(zp), 0)),
            np.einsum("nk,nkd->nd", lz[first], np.vstack([zp] * len(xp))))


def type_minima(model, i, x_space, x_basis, y, Z):
    """min over x of c_i(x, z) - <g_i(x), y> at every row z of Z.

    The oracle's global minimization with the quality point held fixed
    and no quality multipliers.  Where the type side is vertex-exact
    (``vertex_exact``) this is the minimum over the type vertices.
    Otherwise it is the minimum over the family's oracle terms: a
    separable term minimizes its type side over its exact candidate set
    and adds its quality side; a coupled term takes the least vertex of
    each (type cell, quality point) pair cut by its kinks, with each
    quality point as a one-point cell, as the oracle does.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Yv = _vertex_multipliers(x_basis, y)
    if vertex_exact(model.affine_in_x, x_space):
        return (model.eval_grid(i, x_space.vertices, Z)
                - Yv[:, None]).min(axis=0)
    xp, xi = _cell_vertex_arrays(x_space)
    terms, cache = model.oracle_terms(i), {}
    sep = [t for t in terms if isinstance(t, SeparableL1Term)]
    # each separable term's least type side, in term order
    lowest = iter(_side_table("x", x_space, x_basis, y, sep, cache)[0][:, 0]
                  if sep else ())
    out = np.full(len(Z), np.inf)
    for term in terms:
        if isinstance(term, SeparableL1Term):
            v = next(lowest) + term.const
            if term.anchor_z is not None:
                v = v + term.weight_z * np.abs(Z - term.anchor_z).sum(1)
        else:
            v = _coupled_term_values(term, xp, xi, Z[:, None, :],
                                     np.arange(len(Z))[:, None], Yv,
                                     np.zeros(len(Z)), cache)[0].min(axis=0)
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


def _face_candidates(model, i, x_space, z_space, Yv, Wv):
    """The family's closed-form face minima (``CostModel.face_minima``) at
    every type vertex, x-vertex major."""
    xs = x_space.vertices
    vals, Z = model.face_minima(i, xs, z_space, Wv)
    vals = vals - Yv[:, None]
    return (vals.ravel(), np.repeat(xs, vals.shape[1], axis=0),
            Z.reshape(-1, xs.shape[1]))


def _lowest(v, k):
    """The first ``k`` of ``np.argsort(v, kind="stable")`` for a ``v``
    without NaN, sorting only the values up to the k-th least."""
    near = (np.flatnonzero(v <= np.partition(v, k - 1)[k - 1])
            if k < len(v) else np.arange(len(v)))
    return near[np.argsort(v[near], kind="stable")[:k]]


def _term_candidates(model, i, x_space, x_basis, z_space, z_basis, y, w,
                     Yv, Wv, cap, cache):
    """Candidates of a cost that is a minimum of convex CPWA terms.

    The separable terms form one block where the first of them stands:
    each distinct side is valued once (``_side_table``), and each term
    pairs the 8 lowest points of its two sides, x-major, in term order.  A
    coupled term (direct city-block distance, scalar ramp) keeps the
    ``max(cap, 8)`` lowest per-cell-pair minima, ties in pair order, each
    the least of the pair's arrangement vertices (``_coupled_term_values``).
    The static geometry of both is cached (``_cached``); no LP is solved.
    """
    parts, sep, at = [], [], 0
    for term in model.oracle_terms(i):
        if isinstance(term, SeparableL1Term):
            at = at if sep else len(parts)
            sep.append(term)
        else:
            xp, xi = _cell_vertex_arrays(x_space)
            zp, zi = _cell_vertex_arrays(z_space)
            v, px, pz = _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv,
                                             cache)
            v = v.ravel()
            low = _lowest(v, max(cap, 8))
            parts.append((v[low], px[low], pz[low]))
    if sep:
        VX, PX = _side_table("x", x_space, x_basis, y, sep, cache)
        VZ, PZ = _side_table("z", z_space, z_basis, w, sep, cache)
        const = np.array([t.const for t in sep])
        kx, kz = VX.shape[1], VZ.shape[1]
        parts.insert(at, (
            (VX[:, :, None] + VZ[:, None, :] + const[:, None, None]).ravel(),
            np.repeat(PX, kz, axis=1).reshape(-1, x_space.dim),
            np.tile(PZ, (1, kx, 1)).reshape(-1, z_space.dim)))
    vals, X, Z = zip(*parts)
    return np.concatenate(vals), np.vstack(X), np.vstack(Z)


def _best_and_pool(vals, X, Z, cap):
    """The optimum's index and the cut pool of flat candidates.

    The finite candidates are ranked by value, ties in candidate order; the
    first is the optimum.  The pool takes the ranked candidates of distinct
    point keys until it holds ``cap``, keying them ``cap`` at a time, so a
    call keys about as many candidates as it keeps.
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
    elif model.face_minima is not None:
        vals, X, Z = _face_candidates(model, i, x_space, z_space, Yv, Wv)
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
    vertex-exact, takes the family's closed-form face minima where it has
    them, and else the cost family's oracle terms, with their static
    geometry cached (``_cached``); it offers at most ``pool_cap`` cuts of
    distinct point keys, the optimum first.  A family with none of these
    raises ``CostModelError`` from ``oracle_terms``.  ``pool_margin`` has
    no effect and is accepted only for callers that still pass it.
    """
    cache = {}

    def oracle(i, y, w):
        return _exact_oracle(model, i, x_spaces[i], x_bases[i], z_space,
                             z_basis, y, w, pool_cap, cache)

    return oracle
