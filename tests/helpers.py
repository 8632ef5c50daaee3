"""Shared test fixtures: independent reference solvers and instance
generators.  These stay deliberately separate from the library paths they
check (dense brute force where the library is structured/sparse)."""

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from teamsolve.equilibrium import TIE_TOL
from teamsolve.geometry import (FiniteSpace, IndicatorBasis,
                                PointOutsideComplexError, SimplicialComplex,
                                build_box_partition, edge_crossings,
                                point_key)
from teamsolve.linprog import (LpError, LpInfeasibleError, LpProblem,
                               LpSolution, LpUnboundedError, _core)
from teamsolve.measures import DiscreteMeasure
from teamsolve.oracle import OracleError, _finalize, _vertex_multipliers
from teamsolve.problems import (BusinessLocationCost, CappedAffineCost,
                                CostModelError, _dedup_points,
                                axis_arrangement_candidates,
                                tabulated_cpwa_cost)


def brute_force_discrete_optimum(model, measures, x_spaces, z_space):
    """Exact optimum of the fully discrete matching problem by one dense LP
    over all couplings and the shared quality measure."""
    N = model.N
    zs = z_space.vertices
    nz = len(zs)
    sizes = [sp.n_vertices for sp in x_spaces]
    n_gamma = sum(s * nz for s in sizes)
    n = n_gamma + nz
    c = np.zeros(n)
    off = 0
    offsets = []
    for i in range(N):
        xs = x_spaces[i].vertices
        XX = np.repeat(xs, nz, axis=0)
        ZZ = np.tile(zs, (len(xs), 1))
        c[off:off + sizes[i] * nz] = model.eval(i, XX, ZZ)
        offsets.append(off)
        off += sizes[i] * nz
    rows = []
    rhs = []
    for i in range(N):
        xs = x_spaces[i].vertices
        mu_w = np.zeros(sizes[i])
        for a, w in zip(measures[i].atoms, measures[i].weights):
            mu_w[locate_scalar(x_spaces[i], a)[0][0]] += w
        for v in range(sizes[i]):
            row = np.zeros(n)
            row[offsets[i] + v * nz: offsets[i] + (v + 1) * nz] = 1.0
            rows.append(row)
            rhs.append(mu_w[v])
        for q in range(nz):
            row = np.zeros(n)
            row[offsets[i] + q: offsets[i] + sizes[i] * nz: nz] = 1.0
            row[n_gamma + q] = -1.0
            rows.append(row)
            rhs.append(0.0)
    row = np.zeros(n)
    row[n_gamma:] = 1.0
    rows.append(row)
    rhs.append(1.0)
    res = scipy_linprog(c, A_eq=np.asarray(rows), b_eq=np.asarray(rhs),
                        bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def enumerate_vertices_max(c, A_ub, b_ub, A_eq=None, b_eq=None, tol=1e-9):
    """Optimal value of a bounded max LP by brute-force basis enumeration."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = [(np.asarray(a, dtype=float), float(b), "ub")
            for a, b in zip(A_ub, b_ub)]
    if A_eq is not None:
        rows += [(np.asarray(a, dtype=float), float(b), "eq")
                 for a, b in zip(A_eq, b_eq)]
    best = -np.inf
    eq_idx = [k for k, r in enumerate(rows) if r[2] == "eq"]
    for combo in itertools.combinations(range(len(rows)), n):
        if any(k not in combo for k in eq_idx):
            continue
        A = np.stack([rows[k][0] for k in combo])
        b = np.asarray([rows[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        feas = all(r[0] @ x <= r[1] + tol if r[2] == "ub"
                   else abs(r[0] @ x - r[1]) <= tol for r in rows)
        if feas:
            best = max(best, float(c @ x))
    return best


def random_bounded_lp(rng, n):
    """Random bounded-feasible max LP with free variables: box rows keep it
    bounded, extra random rows and a random equality add structure."""
    c = rng.normal(size=n)
    A_ub = np.vstack([np.eye(n), -np.eye(n),
                      rng.normal(size=(n, n))])
    b_ub = np.concatenate([np.full(2 * n, 2.0), rng.uniform(1, 3, size=n)])
    if n >= 3 and rng.uniform() < 0.5:
        A_eq = rng.normal(size=(1, n))
        x0 = rng.uniform(-0.5, 0.5, size=n)
        b_eq = A_eq @ x0
        return c, A_ub, b_ub, A_eq, b_eq
    return c, A_ub, b_ub, None, None


def random_discrete_instance(rng, N=None):
    """Random fully discrete matching instance with indicator bases."""
    if N is None:
        N = int(rng.integers(2, 4))
    x_spaces = []
    measures = []
    for _ in range(N):
        nx = int(rng.integers(2, 5))
        pts = np.sort(rng.uniform(0, 1, size=nx))[:, None]
        x_spaces.append(FiniteSpace(pts))
        w = rng.dirichlet(np.ones(nx))
        w = np.maximum(w, 1e-3)
        w /= w.sum()
        measures.append(DiscreteMeasure(pts, w))
    nz = int(rng.integers(2, 6))
    zs = np.sort(rng.uniform(0, 1, size=nz))[:, None]
    z_space = FiniteSpace(zs)
    tables = [rng.uniform(0, 1, size=(sp.n_vertices, nz)) for sp in x_spaces]
    model = tabulated_cpwa_cost(x_spaces, z_space, tables)
    x_bases = [IndicatorBasis(sp) for sp in x_spaces]
    z_basis = IndicatorBasis(z_space)
    return model, measures, x_spaces, x_bases, z_space, z_basis


def locate(complex, x, tol=1e-9):
    """Locate one point of a simplicial complex: ``(simplex_index,
    barycentric)``, the simplex that ``vertex_weights`` picks."""
    V, W = complex.vertex_weights(np.atleast_1d(x)[None], tol)
    return int(np.flatnonzero((complex.simplices == V[0]).all(1))[0]), W[0]


def component_of(basis, v):
    """Index of vertex v's test function in a hat basis, None for the
    excluded vertex."""
    if v == basis.excluded:
        return None
    return int(v) - int(v > basis.excluded)


def parametric_objective(solution, gbar):
    """The dual objective of a parametric solution: its intercepts plus the
    type multipliers against the moments."""
    return float(solution.y0.sum()
                 + sum(g @ yi for g, yi in zip(gbar, solution.y)))


def dual_objective(duals, model):
    """The cost of the dual measures: each category's cost integrated
    against its measure, summed."""
    return float(sum(
        (model.eval(i, duals.xs[i], duals.zs[i]) * duals.weights[i]).sum()
        for i in range(len(duals.weights))))


def rebased_y(basis_from, basis_to, y):
    """Multipliers for a hat basis with a different excluded vertex giving
    the same potential up to an additive constant; returns (y', const) with
    <g'(x), y'> = <g(x), y> - const."""
    v0 = basis_from.excluded
    v1 = basis_to.excluded
    if v0 == v1:
        return y.copy(), 0.0
    cshift = y[component_of(basis_from, v1)]
    yp = np.zeros(basis_to.m)
    for v in range(basis_from.complex.n_vertices):
        comp = component_of(basis_to, v)
        if comp is None:
            continue
        if v == v0:
            yp[comp] = -cshift
        else:
            yp[comp] = y[component_of(basis_from, v)] - cshift
    return yp, cshift


# ---------------------------------------------------------------------------
# certified Lipschitz-grid oracle: a brute-force reference for the exact
# oracles that works for any cost with known Lipschitz constants

class ZeroTauError(OracleError):
    """The grid oracle cannot certify tau = 0."""


def _simplex_lattice(q, d):
    """Barycentric lattice with denominator q on a d-simplex."""
    if d == 1:
        k = np.arange(q + 1)
        return np.stack([q - k, k], axis=1) / q
    pts = []
    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)
    rec([], q, d + 1)
    return np.asarray(pts, dtype=float) / q


def _grad_bound(basis, coeffs):
    """Max cell gradient norm of <g(.), coeffs> over the complex."""
    if isinstance(basis.complex, FiniteSpace):
        return 0.0
    Yv = _vertex_multipliers(basis, coeffs)
    worst = 0.0
    for s, idx in enumerate(basis.complex.simplices):
        G = basis.complex._minv[s][:, 1:]
        worst = max(worst, float(np.linalg.norm(Yv[idx] @ G)))
    return worst


def _grid_points(space, delta):
    """Lattice points covering the space with radius at most delta."""
    if isinstance(space, FiniteSpace):
        return space.vertices
    pts = []
    d = space.dim
    diam = space.cell_diameters()
    for s in range(space.n_simplices):
        q = max(1, int(np.ceil(diam[s] * (d + 1) / max(delta, 1e-15))))
        lam = _simplex_lattice(q, d)
        pts.append(lam @ space._cell_pts[s])
    return np.vstack(pts)


def oracle_lipschitz_grid(model, i, x_space, x_basis, z_space, z_basis, y, w,
                          tau, pool_margin=0.0, pool_cap=32):
    """Certified oracle from objective evaluations on a covering grid.

    The grid spacing is chosen so that the objective's Lipschitz modulus
    (cost constants plus the multiplier-dependent hat moduli) times the
    covering radii stays below tau; the certified bound is the grid minimum
    minus tau.
    """
    if tau <= 0:
        raise ZeroTauError("the grid oracle cannot certify tau = 0")
    Lx = model.L1[i] + _grad_bound(x_basis, y)
    Lz = model.L2[i] + _grad_bound(z_basis, w)
    dx = tau / (2.0 * Lx) if Lx > 0 else np.inf
    dz = tau / (2.0 * Lz) if Lz > 0 else np.inf
    Xg = _grid_points(x_space, dx)
    Zg = _grid_points(z_space, dz)
    Gx = x_basis.eval_many(Xg) @ y
    Hz = z_basis.eval_many(Zg) @ w
    best = np.inf
    bi = bj = 0
    pool_vals = []
    chunk = max(1, int(2e6 // max(len(Zg), 1)))
    for s0 in range(0, len(Xg), chunk):
        xs = Xg[s0:s0 + chunk]
        nz = len(Zg)
        vals = model.eval_grid(i, xs, Zg) - Gx[s0:s0 + chunk, None] \
            - Hz[None, :]
        k = int(vals.argmin())
        if vals.ravel()[k] < best:
            best = float(vals.ravel()[k])
            bi, bj = s0 + k // nz, k % nz
        flat = vals.ravel()
        cut = np.flatnonzero(flat <= best + max(pool_margin, 0.0))
        for kk in cut[np.argsort(flat[cut])][:pool_cap]:
            pool_vals.append((float(flat[kk]), Xg[s0 + kk // nz], Zg[kk % nz]))
    pool_vals.sort(key=lambda t: t[0])
    pool = [(p[1], p[2]) for p in pool_vals
            if p[0] <= best + max(pool_margin, 0.0)][:pool_cap]
    res = _finalize(model, i, x_basis, z_basis, y, w, Xg[bi], Zg[bj], pool,
                    beta_lower=best - tau)
    res.beta_lower = res.beta_tilde - tau
    return res


def assignment_bruteforce_w1(atoms1, atoms2):
    """Exhaustive uniform-weights assignment cost (reference for ot_discrete)."""
    n = len(atoms1)
    D = np.sqrt(((np.atleast_2d(atoms1)[:, None, :]
                  - np.atleast_2d(atoms2)[None, :, :]) ** 2).sum(-1))
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(D[i, perm[i]] for i in range(n)) / n)
    return float(best)


def check_face_property(complex, tol=1e-9):
    """Exhaustively verify that pairwise simplex intersections of a complex
    are common faces.

    For every pair of simplices this solves two small LPs asking for a
    common point whose barycentric weight on the non-shared vertices is
    maximal; the pair passes when no such point exists beyond tolerance.
    Desk-scale only (quadratic in the number of simplices).
    """
    d = complex.dim
    for a in range(complex.n_simplices):
        for b in range(a + 1, complex.n_simplices):
            ia, ib = complex.simplices[a], complex.simplices[b]
            shared = set(ia) & set(ib)
            Va, Vb = complex.vertices[ia], complex.vertices[ib]
            # point x = Va' lam = Vb' mu, lam, mu >= 0, sums 1
            A_eq = np.zeros((d + 2, 2 * (d + 1)))
            A_eq[:d, :d + 1] = Va.T
            A_eq[:d, d + 1:] = -Vb.T
            A_eq[d, :d + 1] = 1.0
            A_eq[d + 1, d + 1:] = 1.0
            b_eq = np.concatenate([np.zeros(d), [1.0, 1.0]])
            for side, idxs in ((0, ia), (1, ib)):
                c = np.zeros(2 * (d + 1))
                off = side * (d + 1)
                for j, v in enumerate(idxs):
                    if v not in shared:
                        c[off + j] = -1.0
                if not c.any():
                    continue
                res = scipy_linprog(c, A_eq=A_eq, b_eq=b_eq,
                                    bounds=[(0, None)] * (2 * (d + 1)),
                                    method="highs")
                if res.status == 0 and -res.fun > tol:
                    return False
    return True


def linprog_reference(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                      bounds=(0, None)):
    """Minimize ``c @ x`` with scipy's ``linprog`` and the options of
    ``teamsolve.linprog`` (dual simplex, feasibility tolerances 1e-10); an
    ``LpSolution`` in the minimization sense, as ``solve_min`` returns it."""
    res = scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        bounds=bounds, method="highs-ds",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        raise LpInfeasibleError(res.message)
    if res.status == 3:
        raise LpUnboundedError(res.message)
    if res.status != 0:
        raise LpError("solver failure: %s" % res.message)
    return LpSolution(
        x=np.asarray(res.x, dtype=float),
        duals_ineq=(np.asarray(res.ineqlin.marginals, dtype=float)
                    if A_ub is not None else np.zeros(0)),
        duals_eq=(np.asarray(res.eqlin.marginals, dtype=float)
                  if A_eq is not None else np.zeros(0)),
        value=float(res.fun),
        iterations=int(getattr(res, "nit", 0)),
    )


def model_lp(problem: LpProblem):
    """The live model's LP read back through ``getLp()``: objective, the
    constraint matrix as CSR in model row order, and the row bounds."""
    lp = problem.highs.getLp()
    mat = lp.a_matrix_
    parts = (np.asarray(mat.value_), np.asarray(mat.index_),
             np.asarray(mat.start_))
    shape = (lp.num_row_, lp.num_col_)
    A = (sparse.csc_matrix(parts, shape=shape)
         if mat.format_ == _core.MatrixFormat.kColwise
         else sparse.csr_matrix(parts, shape=shape))
    return (np.asarray(lp.col_cost_), sparse.csr_matrix(A),
            np.asarray(lp.row_lower_), np.asarray(lp.row_upper_))


def solve_reference(problem: LpProblem):
    """``linprog.solve`` as a cold solve of the model's current LP with
    scipy's ``linprog``: max-sense value and multipliers, the inequality
    multipliers in row-add order."""
    c, A, _, b = model_lp(problem)
    e = problem.n_eq
    sol = linprog_reference(-c, A[e:], b[e:], A[:e] if e else None,
                            b[:e] if e else None, bounds=(None, None))
    sol.value = -sol.value
    sol.duals_ineq = -sol.duals_ineq
    sol.duals_ineq[(sol.duals_ineq < 0) & (sol.duals_ineq > -1e-10)] = 0.0
    sol.duals_eq = -sol.duals_eq
    return sol


def export_mps(problem: LpProblem, path, name="TEAMSOLVE"):
    """Write the live model's LP in fixed MPS format, the max objective
    written as min of its negation (lets an external solver check an LP by
    hand)."""
    c, A, _, b = model_lp(problem)
    e = problem.n_eq
    tags = ["EQ%06d" % r for r in range(e)] + [
        "UB%06d" % r for r in range(A.shape[0] - e)]
    cols = sparse.csc_matrix(A)
    with open(path, "w") as f:
        f.write("NAME          %s\n" % name)
        f.write("ROWS\n N  COST\n")
        for r in range(e, A.shape[0]):
            f.write(" L  %s\n" % tags[r])
        for r in range(e):
            f.write(" E  %s\n" % tags[r])
        f.write("COLUMNS\n")
        for j in range(problem.n):
            col = "X%07d" % j
            if c[j] != 0.0:
                f.write("    %-10s%-10s%15.8e\n" % (col, "COST", -c[j]))
            for p in range(cols.indptr[j], cols.indptr[j + 1]):
                f.write("    %-10s%-10s%15.8e\n"
                        % (col, tags[cols.indices[p]], cols.data[p]))
        f.write("RHS\n")
        for r in list(range(e, A.shape[0])) + list(range(e)):
            f.write("    %-10s%-10s%15.8e\n" % ("RHS", tags[r], b[r]))
        f.write("RANGES\nBOUNDS\n")
        for j in range(problem.n):
            f.write(" FR %-10sX%07d\n" % ("BND", j))
        f.write("ENDATA\n")


# ---------------------------------------------------------------------------
# loop references for the vectorized quality selector

def lex_argmin_loop(points, values, valid):
    """Per-sample argmin with lexicographic tie-break: the tied candidates
    of each sample ranked by a stable ``lexsort`` on their coordinates."""
    vals = np.where(valid, values, np.inf)
    tied = vals <= vals.min(axis=1, keepdims=True) + TIE_TOL
    choice = np.empty(len(vals), dtype=int)
    for s in range(len(vals)):
        idx = np.flatnonzero(tied[s])
        order = np.lexsort(points[s, idx].T[::-1])
        choice[s] = idx[order[0]]
    return choice


def z_opt_dense(model, x_list, z_space, candidates=None):
    """Quality selector of a min-of-convex-terms family, evaluating the cost
    with ``eval`` at every candidate (valid or not) of every sample.
    ``candidates(x_list, z_space)`` gives the candidates and their validity,
    by default those of ``model.z_opt_values`` with valid = finite value."""
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    if candidates is None:
        cand, vals = model.z_opt_values(x_list, z_space)
        valid = np.isfinite(vals)
    else:
        cand, valid = candidates(x_list, z_space)
    k = cand.shape[1]
    vals = np.zeros((len(cand), k))
    for i in range(model.N):
        XX = np.repeat(x_list[i], k, axis=0)
        vals += model.eval(i, XX, cand.reshape(-1, z_space.dim)).reshape(-1, k)
    return cand[np.arange(len(cand)), lex_argmin_loop(cand, vals, valid)]


def z_opt_quadratic(model, x_list, z_space):
    """The barycenter quality selector as a separate pass: the weighted
    mean, projected onto the quality complex's boundary where it falls
    outside.  The reference for ``QuadraticBarycenterCost.z_opt_values``."""
    xbar = np.zeros_like(x_list[0])
    for i in range(model.N):
        xbar += model.lam[i] * x_list[i]
    inside = z_space.covers(xbar)
    out = xbar.copy()
    if not inside.all():
        V = z_space.vertices
        corners, segments = z_space.boundary
        C = V[corners]
        e0 = V[segments[:, 0]]
        de = V[segments[:, 1]] - e0
        xs = xbar[~inside]
        vv = (C ** 2).sum(1)[None, :] - 2.0 * xs @ C.T
        num = ((xs[:, None, :] - e0[None]) * de[None]).sum(-1)
        t = np.clip(num / (de ** 2).sum(1)[None], 0.0, 1.0)
        ze = e0[None] + t[..., None] * de[None]
        ve = (ze ** 2).sum(-1) - 2.0 * np.einsum("nd,ned->ne", xs, ze)
        pts = np.concatenate(
            [np.broadcast_to(C[None], (len(xs),) + C.shape), ze], axis=1)
        vals = np.concatenate([vv, ve], axis=1)
        valid = np.ones(vals.shape, dtype=bool)
        pick = lex_argmin_loop(pts, vals, valid)
        out[~inside] = pts[np.arange(len(xs)), pick]
    return out


def l_shape():
    """The unit square's 4x4 Kuhn grid without its top-right quarter: a
    grid-free complex whose boundary turns inward at (0.5, 0.5)."""
    g = build_box_partition([(0, 1), (0, 1)], (4, 4))
    centroids = g.vertices[g.simplices].mean(axis=1)
    keep = g.simplices[~np.all(centroids > 0.5, axis=1)]
    used, simplices = np.unique(keep, return_inverse=True)
    return SimplicialComplex(g.vertices[used], simplices.reshape(keep.shape))


def mesh_z_opt_candidates(model, X_list, z_space):
    """The capped-affine quality-selector candidates built from the quality
    mesh: every kink line crossed with every edge, every line/line crossing
    inside the region, and every vertex.  The reference for the boundary
    candidates of ``CappedAffineCost._kink_candidates``."""
    n = np.atleast_2d(X_list[0]).shape[0]
    xs = np.concatenate([np.atleast_2d(X)[:, :1] for X in X_list], axis=1)
    # rhs of the 2N lines per sample: (n, N, 2)
    rhs = np.stack([xs - model.kappa1[None, :], xs + model.kappa1[None, :]],
                   axis=2)
    verts = z_space.vertices
    cand = [np.broadcast_to(verts, (n,) + verts.shape)]
    masks = [np.ones((n, verts.shape[0]), dtype=bool)]
    if model.d0 == 1:
        s0 = model.s[:, 0]
        pts = (rhs / s0[None, :, None]).reshape(n, -1, 1)
        cand.append(pts)
        masks.append(z_space.covers(pts.reshape(-1, 1)).reshape(n, -1))
    else:
        # line x edge intersections, lower lines first
        pts, hit = edge_crossings(z_space, z_space.edges, model.s,
                                  rhs.transpose(0, 2, 1))
        cand.append(pts.reshape(n, -1, 2))
        masks.append(hit.reshape(n, -1))
        # line x line intersections across categories
        pair_rows = []
        for a, b in itertools.combinations(range(model.N), 2):
            M = np.stack([model.s[a], model.s[b]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            Minv = np.linalg.inv(M)
            pair_rows.append((a, b, Minv))
        if pair_rows:
            pts_ab = []
            for a, b, Minv in pair_rows:
                for sa in (0, 1):
                    for sb in (0, 1):
                        # rounded as in CappedAffineCost._kink_candidates
                        pts_ab.append(rhs[:, a, sa, None] * Minv[:, 0]
                                      + rhs[:, b, sb, None] * Minv[:, 1])
            pts_ab = np.stack(pts_ab, axis=1)      # (n, P, 2)
            cand.append(pts_ab)
            masks.append(z_space.covers(pts_ab.reshape(-1, 2))
                         .reshape(n, -1))
    return (np.concatenate([np.ascontiguousarray(c) for c in cand], axis=1),
            np.concatenate(masks, axis=1))


def business_z_opt_candidates(model, X_list, z_space):
    """Per-sample candidate minimizer points of z -> sum_i c_i(x_i, z).

    The quality space must be a box grid; the candidate pool is the
    cross product of the vertical/horizontal kink lines (station and
    per-sample type coordinates) clipped into the box.  The static lines
    (stations and box sides) are taken once each: an exact duplicate
    cannot change the lexicographic pick.  The reference for the candidates
    of ``BusinessLocationCost.z_opt_values``.
    """
    if getattr(z_space, "box", None) is None:
        raise CostModelError("business-location z_opt needs a box-grid "
                             "quality space")
    n = np.atleast_2d(X_list[0]).shape[0]
    xs = np.stack([np.atleast_2d(X)[:, :2] for X in X_list], axis=1)  # (n, N, 2)
    pools = []
    for l, side in enumerate(z_space.box):
        static = np.unique(np.clip(np.append(model.stations[:, l], side),
                                   *side))
        pools.append(np.concatenate(
            [np.broadcast_to(static, (n, len(static))),
             np.clip(xs[:, :, l], *side)], axis=1))
    vpool, hpool = pools
    V, H = vpool.shape[1], hpool.shape[1]
    cand = np.empty((n, V * H, 2))
    cand[:, :, 0] = np.repeat(vpool, H, axis=1)
    cand[:, :, 1] = np.tile(hpool, (1, V))
    return cand, np.ones((n, V * H), dtype=bool)


# ---------------------------------------------------------------------------
# one-point-at-a-time references for batched point location, cut storage and
# LP assembly

def unique_edges(complex):
    """(E, 2) vertex-index pairs of all simplex edges, deduplicated through
    a set of pairs and sorted: the reference for ``complex.edges``."""
    pairs = set()
    for simplex in complex.simplices:
        for a, b in itertools.combinations(simplex, 2):
            pairs.add((min(a, b), max(a, b)))
    return np.asarray(sorted(pairs), dtype=int)


def barycentric(complex, s, x):
    """Barycentric coordinates of x in simplex s (no membership check)."""
    q = np.concatenate(([1.0], np.asarray(x, dtype=float)))
    return complex._minv[s] @ q


def _grid_locate_scalar(complex, x, tol):
    lo, widths, counts, perms, _ = complex._grid
    f = (x - lo) / widths
    if np.any(f < -tol / widths.min()) or np.any(f > counts + tol / widths.min()):
        return None, None
    f = np.clip(f, 0.0, counts)
    cell = np.minimum(f.astype(int), counts - 1)
    frac = f - cell
    order = tuple(np.argsort(-frac, kind="stable"))
    s = int(np.ravel_multi_index(cell, counts)) * len(perms) + perms.index(order)
    fs = frac[list(order)]
    lam = np.empty(complex.dim + 1)
    lam[0] = 1.0 - fs[0]
    lam[1:-1] = fs[:-1] - fs[1:]
    lam[-1] = fs[-1]
    lam = np.clip(lam, 0.0, None)
    return s, lam / lam.sum()


def locate_scalar(space, x, tol=1e-9):
    """(vertex indices, weights) of one point: the nearest point of a finite
    space, the Kuhn closed form on a grid, else the first containing simplex
    or the least-violated one.  Raises PointOutsideComplexError beyond tol."""
    x = np.asarray(x, dtype=float)
    if isinstance(space, FiniteSpace):
        d = np.linalg.norm(space.vertices - x, axis=-1)
        j = int(np.argmin(d))
        if d[j] > tol:
            raise PointOutsideComplexError("point %s not in finite space" % x)
        return np.array([j]), np.array([1.0])
    if space._grid is not None:
        s, lam = _grid_locate_scalar(space, x, tol)
        if s is None:
            raise PointOutsideComplexError("point %s outside complex" % x)
        return space.simplices[s], lam
    best, best_lam, best_viol = None, None, np.inf
    for s in range(space.n_simplices):
        lam = barycentric(space, s, x)
        viol = -lam.min()
        if viol < best_viol:
            best, best_lam, best_viol = s, lam, viol
        if viol <= 0.0:
            break
    if best_viol > tol:
        raise PointOutsideComplexError("point %s outside complex" % x)
    lam = np.clip(best_lam, 0.0, None)
    return space.simplices[best], lam / lam.sum()


class CutStoreLoop:
    """Per-cut store: one point location and one cost evaluation per cut."""

    def __init__(self, model, x_bases, z_basis):
        self.model, self.x_bases, self.z_basis = model, x_bases, z_basis
        N = model.N
        self.keys = [set() for _ in range(N)]
        self.X, self.Z, self.G, self.H, self.c = (
            [[] for _ in range(N)] for _ in range(5))

    def add(self, i, x, z):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        key = (point_key(x), point_key(z))
        if key in self.keys[i]:
            return 0
        self.keys[i].add(key)
        self.X[i].append(x)
        self.Z[i].append(z)
        self.G[i].append(self.x_bases[i].eval(x))
        self.H[i].append(self.z_basis.eval(z))
        self.c[i].append(float(self.model.eval(i, x[None], z[None])[0]))
        return 1


def assemble_lp_loop(store, gbar, k):
    """The relaxed cutting-plane LP built one nonzero at a time from the
    rows of a cut store, grouped by category: ``(c, A_ub, b_ub, A_eq,
    b_eq)``."""
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
            gq = store.G[i][q]
            for j in np.flatnonzero(gq):
                rows.append(r); cols.append(base + 1 + j); data.append(gq[j])
            hq = store.H[i][q]
            for l in np.flatnonzero(hq):
                rows.append(r); cols.append(base + 1 + m[i] + l)
                data.append(hq[l])
            rhs.append(store.c[i][q])
            r += 1
    A_ub = sparse.csr_matrix((data, (rows, cols)), shape=(r, n))
    erow, ecol, edata = [], [], []
    for l in range(k):
        for i in range(N):
            erow.append(l); ecol.append(offsets[i] + 1 + m[i] + l)
            edata.append(1.0)
    A_eq = sparse.csr_matrix((edata, (erow, ecol)), shape=(k, n)) if k else None
    b_eq = np.zeros(k) if k else None
    return c, A_ub, np.asarray(rhs), A_eq, b_eq


def business_eval_pair_tensor(model, i, X, Z):
    """Business-location cost with the station route minimum taken over one
    (n, S, S) tensor of station pairs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    direct_w = model.c_restock if i == model.N - 1 else model.c_walk
    direct = direct_w * np.abs(X - Z).sum(1)
    if i == model.N - 1:
        return direct
    U = model.stations
    dxu = model.c_walk * np.abs(X[:, None, :] - U[None]).sum(2)
    dzu = model.c_walk * np.abs(Z[:, None, :] - U[None]).sum(2)
    S = len(U)
    fare = model.c_train * np.abs(np.arange(S)[:, None] - np.arange(S)[None])
    station = (dxu[:, :, None] + dzu[:, None, :] + fare[None]).min(axis=(1, 2))
    return np.minimum(station, direct)


def dual_plan_reference(xs, zs, weights):
    """A dual measure's support pairs summed by point key, with its quality
    and type marginals, each as a dict in first-seen key order and scaled
    to total weight one."""
    pairs, z_marg, x_marg = {}, {}, {}
    total = float(np.sum(weights))
    for x, z, w in zip(xs, zs, weights):
        kz, kx = point_key(z), point_key(x)
        for d, k in ((pairs, (kz, kx)), (z_marg, kz), (x_marg, kx)):
            d[k] = d.get(k, 0.0) + w / total
    return pairs, z_marg, x_marg


def exact_tilde_loop(model, chain, z_space):
    """The exact tilde bound of fully discrete data with one ``z_opt`` call
    and one running sum per (root atom, type combination)."""
    from teamsolve.equilibrium import z_opt
    nu = chain.nu_hat
    kernels = []
    for link in chain.links:
        K = np.eye(nu.n_atoms)
        for coup in link:
            K = K @ (coup.plan / coup.plan.sum(axis=1, keepdims=True))
        kernels.append(K)
    atoms = [link[-1].target.atoms for link in chain.links]
    tilde = 0.0
    for a in range(nu.n_atoms):
        supports = [np.flatnonzero(K[a] > 1e-15) for K in kernels]
        for combo in itertools.product(*supports):
            p = nu.weights[a]
            for K, c in zip(kernels, combo):
                p *= K[a, c]
            if p <= 1e-300:
                continue
            xs = [A[c][None, :] for A, c in zip(atoms, combo)]
            zb = z_opt(model, xs, z_space)
            tilde += p * sum(float(model.eval(i, xs[i], zb)[0])
                             for i in range(model.N))
    return tilde


# ---------------------------------------------------------------------------
# per-point reference for the transfer functions

def transfer_x_candidates(model, i, z, x_space):
    """A finite type set holding a minimizer of x -> c_i(x, z) minus any
    per-cell affine function: the vertices, with the kink arrangement of
    the stations and of z (business location) or the ramp kinks
    <s_i, z> +- kappa1 inside the type interval (capped affine)."""
    if isinstance(x_space, FiniteSpace):
        return x_space.vertices
    if isinstance(model, BusinessLocationCost):
        return _dedup_points(np.vstack([
            axis_arrangement_candidates(x_space, model.stations),
            axis_arrangement_candidates(x_space, np.atleast_2d(z))]))
    if isinstance(model, CappedAffineCost):
        t = float(np.atleast_1d(z) @ model.s[i])
        pts = [x_space.vertices]
        for x in (t - model.kappa1[i], t + model.kappa1[i]):
            p = np.array([[x]])
            if x_space.covers(p)[0]:
                pts.append(p)
        return _dedup_points(np.vstack(pts))
    return x_space.vertices


def transfer_eval_loop(model, i, Z, solution, x_spaces, x_bases):
    """Transfer function of category i, one quality point at a time: the
    cost minus the potential evaluated on ``transfer_x_candidates``; the
    last category is the negative sum of the others."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if i == model.N - 1:
        tot = np.zeros(len(Z))
        for j in range(model.N - 1):
            tot += transfer_eval_loop(model, j, Z, solution, x_spaces,
                                      x_bases)
        return -tot
    out = np.empty(len(Z))
    for s, z in enumerate(Z):
        cand = transfer_x_candidates(model, i, z, x_spaces[i])
        vals = model.eval(i, cand, np.broadcast_to(z, (len(cand), len(z)))) \
            - x_bases[i].eval_many(cand) @ solution.y[i]
        out[s] = vals.min() - solution.y0[i]
    return out
