"""Shared test fixtures: independent reference solvers and instance
generators.  These stay deliberately separate from the library paths they
check (dense brute force where the library is structured/sparse)."""

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from teamsolve.equilibrium import TIE_TOL
from teamsolve.geometry import FiniteSpace, IndicatorBasis
from teamsolve.linprog import LpProblem
from teamsolve.measures import DiscreteMeasure
from teamsolve.oracle import OracleError, _finalize, _vertex_multipliers
from teamsolve.problems import tabulated_cpwa_cost


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
            mu_w[x_spaces[i].locate(a)] += w
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


def rebased_y(basis_from, basis_to, y):
    """Multipliers for a hat basis with a different excluded vertex giving
    the same potential up to an additive constant; returns (y', const) with
    <g'(x), y'> = <g(x), y> - const."""
    v0 = basis_from.excluded
    v1 = basis_to.excluded
    if v0 == v1:
        return y.copy(), 0.0
    cshift = y[basis_from.component_of(v1)]
    yp = np.zeros(basis_to.m)
    for v in range(basis_from.complex.n_vertices):
        comp = basis_to.component_of(v)
        if comp is None:
            continue
        if v == v0:
            yp[comp] = -cshift
        else:
            yp[comp] = y[basis_from.component_of(v)] - cshift
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


def export_mps(problem: LpProblem, path, name="TEAMSOLVE"):
    """Write an LP in fixed MPS format, the max objective written as min of
    its negation (lets an external solver check an LP by hand)."""
    A_ub = problem.A_ub
    A_eq = problem.A_eq
    ub = sparse.csc_matrix(A_ub) if A_ub is not None else None
    eq = sparse.csc_matrix(A_eq) if A_eq is not None else None
    with open(path, "w") as f:
        f.write("NAME          %s\n" % name)
        f.write("ROWS\n N  COST\n")
        if ub is not None:
            for r in range(ub.shape[0]):
                f.write(" L  UB%06d\n" % r)
        if eq is not None:
            for r in range(eq.shape[0]):
                f.write(" E  EQ%06d\n" % r)
        f.write("COLUMNS\n")
        for j in range(problem.n):
            col = "X%07d" % j
            if problem.c[j] != 0.0:
                f.write("    %-10s%-10s%15.8e\n" % (col, "COST", -problem.c[j]))
            for mat, tag in ((ub, "UB"), (eq, "EQ")):
                if mat is None:
                    continue
                start, end = mat.indptr[j], mat.indptr[j + 1]
                for p in range(start, end):
                    f.write("    %-10s%-10s%15.8e\n"
                            % (col, "%s%06d" % (tag, mat.indices[p]), mat.data[p]))
        f.write("RHS\n")
        if ub is not None:
            for r, v in enumerate(np.asarray(problem.b_ub, dtype=float)):
                f.write("    %-10s%-10s%15.8e\n" % ("RHS", "UB%06d" % r, v))
        if eq is not None:
            for r, v in enumerate(np.asarray(problem.b_eq, dtype=float)):
                f.write("    %-10s%-10s%15.8e\n" % ("RHS", "EQ%06d" % r, v))
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


def z_opt_dense(model, x_list, z_space):
    """Quality selector of a min-of-convex-terms family, evaluating the cost
    at every candidate (valid or not) of every sample."""
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    cand, valid = model.z_opt_candidates(x_list, z_space)
    k = cand.shape[1]
    vals = np.zeros((len(cand), k))
    for i in range(model.N):
        XX = np.repeat(x_list[i], k, axis=0)
        vals += model.eval(i, XX, cand.reshape(-1, z_space.dim)).reshape(-1, k)
    return cand[np.arange(len(cand)), lex_argmin_loop(cand, vals, valid)]
