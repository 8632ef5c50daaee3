"""Shared test fixtures: independent reference solvers and instance
generators.  These stay deliberately separate from the library paths they
check (dense brute force where the library is structured/sparse)."""

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from teamsolve import equilibrium, geometry
from teamsolve.equilibrium import TIE_TOL
from teamsolve.geometry import (EdgeFrame, FiniteSpace, GeometryError,
                                HatBasis, IndicatorBasis,
                                PointOutsideComplexError, SimplicialComplex,
                                build_box_partition, first_seen, point_keys)
from teamsolve.linprog import (LpError, LpInfeasibleError, LpProblem,
                               LpSolution, LpUnboundedError, _core)
from teamsolve.measures import DiscreteMeasure
from teamsolve.oracle import (SINGULAR_TOL, WEIGHT_TOL, OracleError,
                              _cell_vertex_arrays, _coupled_term_values,
                              _finalize, _kink_systems, _vertex_multipliers,
                              axis_arrangement_candidates)
from teamsolve.problems import (BusinessLocationCost, CappedAffineCost,
                                CostModelError, DirectL1Term, ScalarRampTerm,
                                SeparableL1Term, _dot, tabulated_cpwa_cost)


def point_key(p):
    """Hashable key of one point (``geometry.point_keys`` of one row)."""
    return point_keys(p)[0]


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


def locate(complex, x):
    """Locate one point of a simplicial complex: ``(simplex_index,
    barycentric)``, the simplex that ``vertex_weights`` picks."""
    V, W = complex.vertex_weights(np.atleast_1d(x)[None])
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


def hat_basis_excluding(complex, v):
    """``HatBasis(complex)`` with vertex v as its excluded vertex: the basis
    takes it from ``geometry._default_excluded``, replaced for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_default_excluded", lambda vertices: v)
        return HatBasis(complex)


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
        slack_ineq=(np.asarray(res.ineqlin.residual, dtype=float)
                    if A_ub is not None else np.zeros(0)),
        value=float(res.fun),
        iterations=int(getattr(res, "nit", 0)),
    )


def coupled_term_values_vertices(term, xp, xi, zp, zi, Yv, Wv):
    """``oracle._coupled_term_values``' (nx, nz) value table, x-cell major,
    with each cell pair's LP solved by enumerating its vertices.

    A pair minimizes over barycentric variables (lam, mu) and the term's
    auxiliary variables, all >= 0, with lam and mu summing to 1 and the
    term's rows bounding the auxiliaries below.  Every choice of as many
    active inequality rows as that leaves free gives a square system; a
    nonsingular one whose solution meets every row to 1e-9 is a vertex.
    Each vertex is valued by the objective at its point, with the weights
    clipped to be >= 0 and renormalized, so the table holds attained
    values and its error rests on no solver's tolerances."""
    nx, kx = xi.shape
    nz, kz = zi.shape
    P = nx * nz
    Vx = np.repeat(xp, nz, axis=0)           # (P, kx, d)
    Vz = np.tile(zp, (nx, 1, 1))             # (P, kz, d)
    if isinstance(term, DirectL1Term):
        # |x_l - z_l| <= a_l: one row pair per coordinate l
        gx, gz, rhs = Vx.transpose(0, 2, 1), -Vz.transpose(0, 2, 1), 0.0
    elif isinstance(term, ScalarRampTerm):
        # |x - <s, z>| - kappa1 <= r
        gx, gz, rhs = Vx[:, None, :, 0], -(Vz @ term.s)[:, None, :], \
            term.kappa1
    else:
        raise TypeError("unknown coupled term %r" % term)
    na = gx.shape[1]
    nv = kx + kz + na
    ga = np.broadcast_to(-np.eye(na), (P, na, na))
    # inequality rows G v <= h: v >= 0, then the term's row pairs
    G = np.concatenate([np.broadcast_to(-np.eye(nv), (P, nv, nv)),
                        np.concatenate([gx, gz, ga], axis=2),
                        np.concatenate([-gx, -gz, ga], axis=2)], axis=1)
    h = np.concatenate([np.zeros(nv), np.full(2 * na, rhs)])
    eq = np.zeros((2, nv))
    eq[0, :kx] = 1.0
    eq[1, kx:kx + kz] = 1.0
    S = np.array(list(itertools.combinations(range(len(h)), nv - 2)))
    M = np.concatenate([np.broadcast_to(eq, (len(S), P, 2, nv)),
                        G[:, S].transpose(1, 0, 2, 3)], axis=2)
    r = np.concatenate([np.ones((len(S), 2)), h[S]], axis=1)
    scale = np.linalg.norm(M, axis=-1).prod(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the LU of an exactly singular system divides by zero
        ok = np.abs(np.linalg.det(M)) > 1e-12 * scale
    M[~ok] = np.eye(nv)
    v = np.linalg.solve(M, np.broadcast_to(r[:, None, :, None],
                                           M.shape[:-1] + (1,)))[..., 0]
    ok &= (np.einsum("pmv,spv->spm", G, v) <= h + 1e-9).all(-1)
    pair = np.nonzero(ok)[1]
    lam = np.clip(v[ok][:, :kx], 0.0, None)
    mu = np.clip(v[ok][:, kx:kx + kz], 0.0, None)
    lam /= lam.sum(1, keepdims=True)
    mu /= mu.sum(1, keepdims=True)
    X = np.einsum("nk,nkd->nd", lam, Vx[pair])
    Z = np.einsum("nk,nkd->nd", mu, Vz[pair])
    vals = (term.eval(X, Z)
            - (lam * np.repeat(Yv[xi], nz, axis=0)[pair]).sum(1)
            - (mu * np.tile(Wv[zi], (nx, 1))[pair]).sum(1))
    best = np.full(P, np.inf)
    np.minimum.at(best, pair, vals)
    return best.reshape(nx, nz)


# ---------------------------------------------------------------------------
# the coupled terms' arrangement vertices as the oracle once tabulated them:
# dense (nx, nz, M, .) tensors, a slot that is no vertex padded with zero
# weights and an infinite value

def pair_vertices_dense(term, xp, zp):
    """Every arrangement vertex of each cell pair, as (nx, nz, M, .)
    weights ``lx``, ``lz``, points ``X``, ``Z`` and values ``T``, over the
    slots of every ``oracle._kink_systems`` system in order; a slot that
    holds no vertex has zero weights and the value +inf."""
    A, B, c = term.kinks()
    nx, kx, _ = xp.shape
    nz, kz, _ = zp.shape
    ax = xp @ A.T                                   # (nx, kx, q)
    bz = zp @ B.T                                   # (nz, kz, q)
    norms = np.sqrt((A ** 2).sum(1) + (B ** 2).sum(1))
    normals = np.hstack([A, B])
    lx, lz, ok = [], [], []
    for system in _kink_systems(kx, kz, len(c)):
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
        lx.append(np.eye(kx)[j0] + np.einsum("abnt,ntk->abnk", t, Dx))
        lz.append(np.eye(kz)[k0] + np.einsum("abnt,ntk->abnk", t, Dz))
        ok.append(~singular & (lx[-1].min(-1) >= -WEIGHT_TOL)
                  & (lz[-1].min(-1) >= -WEIGHT_TOL))
    ok = np.concatenate(ok, axis=2)

    def clipped(w):
        # a vertex's weights clipped onto its simplex, zeros at a non-vertex
        w = np.where(ok[..., None],
                     np.clip(np.concatenate(w, axis=2), 0.0, None), 0.0)
        return w / np.where(ok[..., None], w.sum(-1, keepdims=True), 1.0)

    lx, lz = clipped(lx), clipped(lz)
    X = np.einsum("abmk,akd->abmd", lx, xp)
    Z = np.einsum("abmk,bkd->abmd", lz, zp)
    T = np.where(ok, term.eval(X, Z), np.inf)
    return lx, lz, X, Z, T


def coupled_term_values_dense(term, xp, xi, zp, zi, Yv, Wv):
    """``oracle._coupled_term_values`` over ``pair_vertices_dense``: the
    (nx, nz) value table, the (nx * nz, d) points that attain it, x-cell
    major, the first slot on ties, and the (nx, nz, M) values of every
    slot."""
    lx, lz, X, Z, T = pair_vertices_dense(term, xp, zp)
    vals = (T - np.einsum("abmk,ak->abm", lx, Yv[xi])
            - np.einsum("abmk,bk->abm", lz, Wv[zi]))
    a, b = np.indices(vals.shape[:2])
    m = vals.argmin(axis=2)
    return (vals[a, b, m], X[a, b, m].reshape(-1, X.shape[-1]),
            Z[a, b, m].reshape(-1, Z.shape[-1]), vals)


def lp_problem(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """``LpProblem(c, A_eq, b_eq)`` with the inequality rows
    ``A_ub x <= b_ub``, when given, appended by ``add_rows``, as the
    cutting plane adds its cuts."""
    problem = LpProblem(c, A_eq, b_eq)
    if A_ub is not None:
        problem.add_rows(A_ub, b_ub)
    return problem


def model_lp(problem: LpProblem):
    """The primal LP of the live model, read back through ``getLp()``:
    objective, the constraint matrix as CSR in row order (equality rows
    first), and the row bounds.  The model is the dual form: its rows are
    the primal columns, fixed at the objective, and its columns are the
    primal rows, the free ones equality rows and the nonnegative ones
    inequality rows, with the right-hand sides as costs."""
    lp = problem.highs.getLp()
    mat = lp.a_matrix_
    parts = (np.asarray(mat.value_), np.asarray(mat.index_),
             np.asarray(mat.start_))
    shape = (lp.num_row_, lp.num_col_)
    At = (sparse.csc_matrix(parts, shape=shape)
          if mat.format_ == _core.MatrixFormat.kColwise
          else sparse.csr_matrix(parts, shape=shape))
    c = np.asarray(lp.row_lower_)
    assert np.array_equal(c, np.asarray(lp.row_upper_))
    # a rejected ``addCols`` leaves the column arrays longer than
    # ``num_col_`` until the next solve
    cols = slice(lp.num_col_)
    col_lower = np.asarray(lp.col_lower_)[cols]
    eq = col_lower == -np.inf
    assert np.array_equal(np.flatnonzero(eq), np.arange(problem.n_eq))
    assert np.all(col_lower[~eq] == 0.0)
    assert np.all(np.asarray(lp.col_upper_)[cols] == np.inf)
    b = np.asarray(lp.col_cost_)[cols]
    return c, sparse.csr_matrix(At.T), np.where(eq, b, -np.inf), b


def solve_reference(problem: LpProblem):
    """``linprog.solve`` as a cold solve of the model's current LP with
    scipy's ``linprog``: max-sense multipliers, the inequality multipliers
    and slacks in row-add order, and the value ``c @ x``."""
    c, A, _, b = model_lp(problem)
    e = problem.n_eq
    sol = linprog_reference(-c, A[e:], b[e:], A[:e] if e else None,
                            b[:e] if e else None, bounds=(None, None))
    sol.value = float(c @ sol.x)
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


def lex_argmin_dense(points, values):
    """Per-sample argmin with lexicographic tie-break on the point coords,
    over an (n, p, d) candidate table and its (n, p) values, +inf at
    invalid candidates: among candidates within ``TIE_TOL`` of the
    sample's minimum, keep those with the smallest first coordinate, then
    the smallest second, and so on; of exact duplicates the lowest index
    wins.  The dense form of ``equilibrium._lex_argmin``."""
    keep = values <= values.min(axis=1, keepdims=True) + TIE_TOL
    for l in range(points.shape[2]):
        c = np.where(keep, points[:, :, l], np.inf)
        keep &= c == c.min(axis=1, keepdims=True)
    return keep.argmax(axis=1)


def z_opt_chunked(model, x_list, z_space, chunk):
    """``equilibrium.z_opt`` with ``chunk`` samples a chunk, for a family
    with buffers and for one without: its chunk constants are set for the
    call, ``CHUNK`` and ``CHUNK_MIN`` to ``chunk`` and ``CHUNK_BYTES`` to
    0."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("CHUNK", chunk), ("CHUNK_BYTES", 0),
                            ("CHUNK_MIN", chunk)):
            patch.setattr(equilibrium, name, value)
        return equilibrium.z_opt(model, x_list, z_space)


def selector_values(model, X_list, z_space):
    """``model.z_opt_values`` on one batch, as ``z_opt`` calls it on a
    chunk: with a buffer set of ``z_opt_buffers`` made for the batch when
    the family takes buffers."""
    buffers = model.z_opt_buffers(z_space)
    if buffers is None:
        return model.z_opt_values(X_list, z_space)
    return model.z_opt_values(X_list, z_space,
                              buffers[1](len(np.atleast_2d(X_list[0]))))


def padded_selector_candidates(model, x_list, z_space):
    """``model.z_opt_values``' flat candidates as an (n, p, d) table, each
    sample's in order and padded to the longest, with the (n, p) mask of
    the real ones whose value is finite."""
    pts, vals, starts = selector_values(model, x_list, z_space)
    counts = np.diff(starts, append=len(vals))
    row = np.repeat(np.arange(len(starts)), counts)
    col = np.arange(len(vals)) - np.repeat(starts, counts)
    cand = np.zeros((len(starts), counts.max(), pts.shape[1]))
    valid = np.zeros(cand.shape[:2], dtype=bool)
    cand[row, col] = pts
    valid[row, col] = np.isfinite(vals)
    return cand, valid


def capped_affine_dense_values(model, X_list, z_space):
    """The capped-affine selector's candidates as one (n, k, d) table per
    sample and the summed cost at each, +inf outside the region: the
    boundary's corners, every kink line's crossings with the boundary's
    segments (its points in 1-D) and every crossing of two categories'
    lines, in that order.  The costs are ``eval``'s, added category by
    category.  The dense reference for ``CappedAffineCost.z_opt_values``,
    which values the candidates inside the region only."""
    x = np.concatenate([np.atleast_2d(X)[:, :1] for X in X_list], axis=1)
    n, N, d = len(x), model.N, model.d0
    rhs = np.stack([x - model.kappa1, x + model.kappa1], axis=2)   # (n, N, 2)
    corners, segments = z_space.boundary
    ends = z_space.vertices[corners]
    cand = [np.broadcast_to(ends, (n,) + ends.shape)]
    valid = [np.ones((n, len(ends)), dtype=bool)]
    if d == 1:
        pts = (rhs / model.s[None, :, :1]).reshape(n, -1, 1)
        cand.append(pts)
        valid.append(z_space.covers(pts))
    else:
        pts, hit = EdgeFrame(z_space, segments, model.s).crossings(
            rhs.transpose(0, 2, 1))
        cand.append(pts.reshape(n, -1, d))
        valid.append(hit.reshape(n, -1))
        ia, ib, Ma, Mb = model._line_pairs
        lines = rhs.reshape(n, -1)
        pts = np.empty((n, len(ia), d))
        for l in range(d):
            pts[:, :, l] = lines[:, ia] * Ma[:, l]
            pts[:, :, l] += lines[:, ib] * Mb[:, l]
        cand.append(pts)
        valid.append(z_space.covers(pts))
    cand = np.concatenate([np.ascontiguousarray(c) for c in cand], axis=1)
    valid = np.concatenate(valid, axis=1)
    k = cand.shape[1]
    tot = np.zeros((n, k))
    for i in range(N):
        tot += model.eval(i, np.repeat(x[:, i:i + 1], k, axis=0),
                          cand.reshape(-1, d)).reshape(n, k)
    return cand, np.where(valid, tot, np.inf)


def z_opt_dense(model, x_list, z_space, candidates=None):
    """Quality selector of a min-of-convex-terms family, evaluating the cost
    with ``eval`` at every candidate (valid or not) of every sample.
    ``candidates(x_list, z_space)`` gives the candidates and their validity,
    by default those of ``model.z_opt_values``
    (``padded_selector_candidates``)."""
    x_list = [np.atleast_2d(np.asarray(X, dtype=float)) for X in x_list]
    if candidates is None:
        candidates = partial(padded_selector_candidates, model)
    cand, valid = candidates(x_list, z_space)
    k = cand.shape[1]
    vals = np.zeros((len(cand), k))
    for i in range(model.N):
        XX = np.repeat(x_list[i], k, axis=0)
        vals += model.eval(i, XX, cand.reshape(-1, z_space.dim)).reshape(-1, k)
    return cand[np.arange(len(cand)), lex_argmin_loop(cand, vals, valid)]


def face_minima_every_face(lam, X, frames, Wv):
    """``QuadraticBarycenterCost._face_minima`` with the 0-faces run
    through the general face arithmetic on empty edge parameters, as it
    was before their closed form: per row x of X, lam (||z||^2 - 2 <x, z>)
    minus the hat combination of the vertex values Wv, minimized on each
    face of ``frames`` (``geometry.face_frames``): (n, K) values and
    (n, K, d) points, the faces in their order.

    The hat combination is affine on a face with base point p0 and edge
    rows D, so the objective is a strictly convex quadratic there, least
    at z = p0 + D^T t with t = G (D (x - p0) + dW / (2 lam)), dW the
    steps of Wv along the edges; it is evaluated as G D x + G (dW /
    (2 lam) - D p0), so x enters one product.  The minimum over a union
    of faces is the critical point of the face that holds it in its
    relative interior, so a face whose t is not in the open simplex
    gets +inf.
    """
    n, d = X.shape
    vals, Z = [], []
    for F, p0, D, G, GD in frames:
        w0 = Wv[F[:, 0]]
        dW = Wv[F[:, 1:]] - w0[:, None]                # (f, j)
        shift = dW / (2.0 * lam) - (D @ p0[:, :, None])[..., 0]
        t = ((X @ GD.reshape(-1, d).T).reshape(n, len(F), -1)
             + (G @ shift[:, :, None])[..., 0])        # (n, f, j)
        inside = ((t.min(-1, initial=1.0) > 1e-12)
                  & (t.sum(-1) < 1 - 1e-12))
        z = p0 + _dot(t[..., None, :], D.swapaxes(-1, -2))
        v = (lam * (_dot(z, z) - 2.0 * _dot(X[:, None, :], z))
             - (w0 + _dot(t, dW)))
        vals.append(np.where(inside, v, np.inf))
        Z.append(z)
    return np.concatenate(vals, axis=1), np.concatenate(Z, axis=1)


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
        pts, hit = EdgeFrame(z_space, z_space.edges, model.s).crossings(
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

def unique_faces(complex, j):
    """(F, j+1) vertex indices of all j-faces of the simplices, each sorted
    and deduplicated through a set: the reference for ``complex.faces[j]``
    (``complex.edges`` for j = 1)."""
    faces = set()
    for simplex in complex.simplices:
        for face in itertools.combinations(sorted(simplex.tolist()), j + 1):
            faces.add(face)
    return np.asarray(sorted(faces), dtype=int).reshape(-1, j + 1)


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


def outside_box_any(complex, X, tol):
    """The box grid's membership test as one ``np.any`` reduction per side
    over the (n, d) points X: the reference for
    ``SimplicialComplex._outside_box``."""
    widths = complex._grid[1]
    t = tol * (widths / widths.min())
    return (np.any(X < complex.box[:, 0] - t, axis=1)
            | np.any(X > complex.box[:, 1] + t, axis=1))


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
    cuts of a cut store, grouped by category, with the bases evaluated one
    point at a time: ``(c, A_ub, b_ub, A_eq, b_eq)``."""
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
            gq = store.x_bases[i].eval(store.X[i][q])
            for j in np.flatnonzero(gq):
                rows.append(r); cols.append(base + 1 + j); data.append(gq[j])
            hq = store.z_basis.eval(store.Z[i][q])
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


def _business_walks(model, i, X, Z):
    """(direct, dxu, dzu, fare) of a walking category, with (n, S) walking
    costs to the stations and the (S, S) station-pair fares; None for the
    restocking category, whose cost is ``direct``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    direct_w = model.c_restock if i == model.N - 1 else model.c_walk
    direct = direct_w * np.abs(X - Z).sum(1)
    if i == model.N - 1:
        return direct, None
    U = model.stations
    dxu = model.c_walk * np.abs(X[:, None, :] - U[None]).sum(2)
    dzu = model.c_walk * np.abs(Z[:, None, :] - U[None]).sum(2)
    S = len(U)
    fare = model.c_train * np.abs(np.arange(S)[:, None] - np.arange(S)[None])
    return direct, (dxu, dzu, fare)


def business_eval_pair_tensor(model, i, X, Z):
    """Business-location cost with the station route minimum taken over one
    (n, S, S) tensor of station pairs, grouped as (dxu[j] + fare[j, jp]) +
    dzu[jp]: the ride first, then the walk from its exit station, which is
    ``eval``'s value bit for bit."""
    direct, walks = _business_walks(model, i, X, Z)
    if walks is None:
        return direct
    dxu, dzu, fare = walks
    station = ((dxu[:, :, None] + fare[None]) + dzu[:, None, :]).min(
        axis=(1, 2))
    return np.minimum(station, direct)


def business_eval_walks_first(model, i, X, Z):
    """The same cost grouped as (dxu[j] + dzu[jp]) + fare[j, jp]: both walks
    first, then the fare.  A second reference that agrees with ``eval`` to
    rounding."""
    direct, walks = _business_walks(model, i, X, Z)
    if walks is None:
        return direct
    dxu, dzu, fare = walks
    station = (dxu[:, :, None] + dzu[:, None, :] + fare[None]).min(
        axis=(1, 2))
    return np.minimum(station, direct)


def own_link_draw(chain, rng, n, i):
    """Category i's types and the root quality atoms as a coupling file
    draws them: n root atoms from nu_hat, then category i's link alone
    (nu_hat -> nu_i, the dual plan, then the coupling onto the agent)."""
    nu = chain.nu_hat
    a = rng.choice(nu.n_atoms, size=n, p=nu.weights)
    to_nu, dual, to_mu = chain.links[i]
    b = to_nu.columns(rng, a)
    return to_mu.sample_given_source(rng, dual.columns(rng, b)), nu.atoms[a]


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
        return first_seen(np.vstack([
            axis_arrangement_candidates(x_space, model.stations),
            axis_arrangement_candidates(x_space, np.atleast_2d(z))]))[0]
    if isinstance(model, CappedAffineCost):
        t = float(np.atleast_1d(z) @ model.s[i])
        pts = [x_space.vertices]
        for x in (t - model.kappa1[i], t + model.kappa1[i]):
            p = np.array([[x]])
            if x_space.covers(p)[0]:
                pts.append(p)
        return first_seen(np.vstack(pts))[0]
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


def discrete_moment_vector_dense(measure, basis):
    """Hat moments of a discrete measure as the weighted sum of the dense
    basis rows at its atoms."""
    return measure.weights @ basis.eval_many(measure.atoms)


def cpwa_vertex_moments_loop(measure):
    """Every vertex hat's integral against a CPWA measure, one simplex at a
    time: vol * (sum of f + f_u) / ((d+1)(d+2)) per simplex vertex u."""
    cx = measure.complex
    d = cx.dim
    f = measure.vertex_density
    scale = 1.0 / ((d + 1) * (d + 2))
    out = np.zeros(cx.n_vertices)
    for s, idx in enumerate(cx.simplices):
        fs = f[idx]
        out[idx] += measure._vols[s] * (fs.sum() + fs) * scale
    return out


def cpwa_second_moment_loop(measure):
    """Integral of ||x||^2 against a CPWA measure by the barycentric
    monomial formula, one (simplex, p, q, r) term at a time."""
    cx = measure.complex
    d = cx.dim
    f = measure.vertex_density
    total = 0.0
    for s, idx in enumerate(cx.simplices):
        V = cx.vertices[idx]
        G = V @ V.T
        base = measure._vols[s] * math.factorial(d) / math.factorial(d + 3)
        for p, q, r in itertools.product(range(d + 1), repeat=3):
            mult = 1.0
            if p == q == r:
                mult = 6.0
            elif p == q or q == r or p == r:
                mult = 2.0
            total += G[p, q] * f[idx][r] * base * mult
    return total


# ---------------------------------------------------------------------------
# the d <= 2 quadratic barycenter candidates before the oracle looped over
# the faces of every dimension, kept as the reference for 1-D and 2-D
# quality complexes

def quadratic_candidates_d2(lam, x_space, z_space, Yv, Wv):
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


# ---------------------------------------------------------------------------
# the oracle's term candidates as it built them one term at a time, each
# separable term valuing and sorting both of its sides itself

def term_candidates_per_term(model, i, x_space, x_basis, z_space, z_basis,
                             y, w, cap):
    """Flat (vals, X, Z) candidates of ``oracle._term_candidates``: per
    term in order, a separable term's 8 lowest points of each side paired
    x-major, a coupled term's ``max(cap, 8)`` lowest cell-pair minima, each
    ranked by a stable sort, ties in candidate order."""
    Yv = _vertex_multipliers(x_basis, y)
    Wv = _vertex_multipliers(z_basis, w)

    def side(space, basis, coeffs, anchor, weight):
        if anchor is None or isinstance(space, FiniteSpace):
            cand = space.vertices
        else:
            cand = axis_arrangement_candidates(space, np.atleast_2d(anchor))
        vals = -basis.eval_many(cand) @ coeffs
        if anchor is not None and weight != 0.0:
            vals = vals + weight * np.abs(cand - anchor).sum(axis=1)
        return cand, vals

    vals, X, Z = [], [], []
    for term in model.oracle_terms(i):
        if isinstance(term, SeparableL1Term):
            cx, vx = side(x_space, x_basis, y, term.anchor_x, term.weight_x)
            cz, vz = side(z_space, z_basis, w, term.anchor_z, term.weight_z)
            kx = np.argsort(vx, kind="stable")[:8]
            kz = np.argsort(vz, kind="stable")[:8]
            vals.append((vx[kx][:, None] + vz[kz][None, :]
                         + term.const).ravel())
            X.append(np.repeat(cx[kx], len(kz), axis=0))
            Z.append(np.tile(cz[kz], (len(kx), 1)))
        else:
            xp, xi = _cell_vertex_arrays(x_space)
            zp, zi = _cell_vertex_arrays(z_space)
            v, px, pz = _coupled_term_values(term, xp, xi, zp, zi, Yv, Wv,
                                             {})
            v = v.ravel()
            low = np.argsort(v, kind="stable")[:max(cap, 8)]
            vals.append(v[low])
            X.append(px[low])
            Z.append(pz[low])
    return np.concatenate(vals), np.vstack(X), np.vstack(Z)


# ---------------------------------------------------------------------------
# test- and demo-only API moved out of the package: a-priori partition
# planning, the 1-D W1 quadrature and pair sampling from a coupling

class BudgetError(GeometryError):
    """Raised when the partition-planning error budget is non-positive."""


@dataclass
class PartitionPlan:
    """Cell counts per dimension for each type space and the quality space."""
    type_counts: list
    quality_counts: tuple
    varsigma_bar: float


def plan_partition(eps, eps_par, eps_star, N, L1, L2_bar, type_boxes,
                   quality_box, C_type=None, C_quality=1.0):
    """Per-dimension cell counts guaranteeing a target equilibrium accuracy.

    Parameters
    ----------
    eps, eps_par, eps_star : floats with eps > eps_par + eps_star > 0
        Total accuracy target and the two solver budget components.
    N : number of categories
    L1 : per-category type-space Lipschitz constants
    L2_bar : max quality-space Lipschitz constant
    type_boxes : per-category list of (lo, hi) pairs
    quality_box : list of (lo, hi) pairs
    C_type, C_quality : norm-equivalence constants (>= 1), default 1

    Returns a :class:`PartitionPlan`.  Counts of zero (possible for the
    quality space when N == 1) are clamped to one cell.
    """
    budget = eps - eps_par - eps_star
    if budget <= 0:
        raise BudgetError("eps - eps_par - eps_star must be positive")
    L1 = np.atleast_1d(np.asarray(L1, dtype=float))
    if C_type is None:
        C_type = np.ones(N)
    C_type = np.atleast_1d(np.asarray(C_type, dtype=float))
    type_counts = []
    denoms = []         # side-length norm times Lipschitz weight, per space
    for i in range(N):
        box = np.atleast_2d(np.asarray(type_boxes[i], dtype=float))
        d_i = box.shape[0]
        sides = box[:, 1] - box[:, 0]
        cnt = np.ceil(8.0 * N * L1[i] * sides * C_type[i] * math.sqrt(d_i)
                      / budget).astype(int)
        type_counts.append(tuple(int(c) for c in np.maximum(cnt, 1)))
        denoms.append(float(np.linalg.norm(sides, axis=-1)) * N * L1[i])
    qbox = np.atleast_2d(np.asarray(quality_box, dtype=float))
    d_0 = qbox.shape[0]
    qsides = qbox[:, 1] - qbox[:, 0]
    qcnt = np.ceil(8.0 * (N - 1) * L2_bar * qsides * C_quality * math.sqrt(d_0)
                   / budget).astype(int)
    quality_counts = tuple(int(c) for c in np.maximum(qcnt, 1))

    denoms.append(float(np.linalg.norm(qsides, axis=-1)) * (N - 1) * L2_bar)
    dmax = max(denoms)
    varsigma_bar = math.inf if dmax <= 0 else 0.5 * budget / dmax
    return PartitionPlan(type_counts, quality_counts, varsigma_bar)


def w1_quantile_quadrature(nu1, nu2, n=200001):
    """Reference value of W1 between 1d measures via the quantile formula.

    Midpoint-rule quadrature of |F1^{-1} - F2^{-1}| over the unit interval;
    serves as the independent check of the sampled coupling cost.
    """
    t = (np.arange(n) + 0.5) / n
    q1 = np.asarray(nu1.quantile(t), dtype=float).reshape(-1)
    q2 = np.asarray(nu2.quantile(t), dtype=float).reshape(-1)
    return float(np.abs(q1 - q2).mean())


def sample_pairs(coupling, rng, n):
    """n (source, target) pairs of a coupling: source atoms by their
    weights, then targets by ``sample_given_source``."""
    src = rng.choice(coupling.source.n_atoms, size=n,
                     p=coupling.source.weights)
    return coupling.source.atoms[src], coupling.sample_given_source(rng, src)


def columns_loop(plan, rng, src_idx):
    """``DiscreteCoupling.columns`` as a loop over the distinct source rows:
    each row's positive conditional masses, their cumulative sums, and one
    ``searchsorted`` per row, clamped to the row's last entry."""
    cond = plan / plan.sum(axis=1)[:, None]
    rows = [(np.flatnonzero(c > 0), np.cumsum(c[c > 0])) for c in cond]
    u = rng.uniform(size=len(src_idx))
    out = np.empty(len(src_idx), dtype=int)
    for r in np.unique(src_idx):
        at = src_idx == r
        cols, cum = rows[r]
        out[at] = cols[np.minimum(np.searchsorted(cum, u[at]), len(cum) - 1)]
    return out
