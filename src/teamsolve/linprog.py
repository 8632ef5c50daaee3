"""Finite LP model and solver returning both primal and dual optimizers.

The solver wraps scipy's HiGHS dual simplex.  Simplex (rather than interior
point) matters here: the cutting-plane loop needs *basic* dual solutions so
that the recovered discrete dual measures stay sparse.  Problems are stated
as maximization over free variables with an inequality block ``A x <= b``
and an equality block ``E x = f``; the returned inequality multipliers are
nonnegative and the equality multipliers are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _scipy_linprog

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    """The maximization problem is unbounded above."""


@dataclass
class LpProblem:
    """max <c, x> subject to A_ub x <= b_ub, A_eq x = b_eq, x free."""
    c: np.ndarray
    A_ub: object = None
    b_ub: np.ndarray = None
    A_eq: object = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if n == 0:
            raise LpError("empty problem")
        if not np.all(np.isfinite(self.c)):
            raise LpError("non-finite objective coefficients")
        for A, b, name in ((self.A_ub, self.b_ub, "ub"), (self.A_eq, self.b_eq, "eq")):
            if A is None:
                continue
            if b is None:
                raise LpError("missing b_%s" % name)
            b = np.asarray(b, dtype=float)
            if A.shape != (b.shape[0], n):
                raise LpError("A_%s shape %s inconsistent with n=%d, rows=%d"
                              % (name, A.shape, n, b.shape[0]))

    @property
    def n(self):
        return self.c.shape[0]


@dataclass
class LpSolution:
    x: np.ndarray
    duals_ineq: np.ndarray
    duals_eq: np.ndarray
    value: float
    iterations: int = 0


def solve(problem: LpProblem) -> LpSolution:
    """Solve the maximization problem; duals follow the max-sense convention.

    Raises ``LpInfeasibleError`` / ``LpUnboundedError`` on the respective
    statuses.  An unbounded status typically signals a bad initial
    constraint set in the cutting-plane driver.
    """
    res = _scipy_linprog(
        -problem.c,
        A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=(None, None),
        method="highs-ds",
        options=dict(_HIGHS_OPTIONS),
    )
    if res.status == 2:
        raise LpInfeasibleError(res.message)
    if res.status == 3:
        raise LpUnboundedError(res.message)
    if res.status != 0:
        raise LpError("solver failure: %s" % res.message)
    # scipy reports marginals for the minimization of -c; negate for max sense
    if problem.A_ub is not None:
        duals_ineq = -np.asarray(res.ineqlin.marginals, dtype=float)
        duals_ineq[(duals_ineq < 0) & (duals_ineq > -1e-10)] = 0.0
    else:
        duals_ineq = np.zeros(0)
    if problem.A_eq is not None:
        duals_eq = -np.asarray(res.eqlin.marginals, dtype=float)
    else:
        duals_eq = np.zeros(0)
    return LpSolution(
        x=np.asarray(res.x, dtype=float),
        duals_ineq=duals_ineq,
        duals_eq=duals_eq,
        value=-float(res.fun),
        iterations=int(getattr(res, "nit", 0)),
    )


def solve_min(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """Convenience minimization with bounded variables (transport plans,
    reference LPs); returns the scipy result unchanged."""
    res = _scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                         bounds=bounds, method="highs-ds",
                         options=dict(_HIGHS_OPTIONS))
    if res.status == 2:
        raise LpInfeasibleError(res.message)
    if res.status == 3:
        raise LpUnboundedError(res.message)
    if res.status != 0:
        raise LpError("solver failure: %s" % res.message)
    return res


@dataclass
class BlockLp:
    """Batch of independent small LPs solved as one block-diagonal problem.

    Each block minimizes its own affine objective over its own constraints;
    because the blocks share no variables, the joint optimum solves every
    block at once.  Used by the exact cell-enumeration oracles where
    thousands of tiny LPs arise per call.
    """
    n_vars: list = field(default_factory=list)
    c: list = field(default_factory=list)
    rows_ub: list = field(default_factory=list)   # (col_offsets-local cols, coefs, rhs)
    rows_eq: list = field(default_factory=list)
    offsets: list = field(default_factory=list)
    consts: list = field(default_factory=list)

    def add_block(self, c, ub_rows, eq_rows, const=0.0):
        """Add one block: local objective c, rows as (cols, coefs, rhs)."""
        off = sum(self.n_vars)
        self.offsets.append(off)
        self.n_vars.append(len(c))
        self.c.append(np.asarray(c, dtype=float))
        self.rows_ub.append(ub_rows)
        self.rows_eq.append(eq_rows)
        self.consts.append(const)
        return len(self.n_vars) - 1

    def solve(self):
        """Returns (values, xs): per-block minima (with constants) and solutions."""
        if not self.n_vars:
            return np.zeros(0), []
        ntot = sum(self.n_vars)
        c = np.concatenate(self.c)

        def assemble(kind):
            data, ri, ci, rhs = [], [], [], []
            r = 0
            for b, rows in enumerate(kind):
                off = self.offsets[b]
                for cols, coefs, b_rhs in rows:
                    for cc, vv in zip(cols, coefs):
                        ri.append(r)
                        ci.append(off + cc)
                        data.append(vv)
                    rhs.append(b_rhs)
                    r += 1
            if r == 0:
                return None, None
            A = sparse.csr_matrix((data, (ri, ci)), shape=(r, ntot))
            return A, np.asarray(rhs, dtype=float)

        A_ub, b_ub = assemble(self.rows_ub)
        A_eq, b_eq = assemble(self.rows_eq)
        res = solve_min(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        bounds=(0, None))
        xs, values = [], np.empty(len(self.n_vars))
        for b, off in enumerate(self.offsets):
            xb = res.x[off:off + self.n_vars[b]]
            xs.append(xb)
            values[b] = float(self.c[b] @ xb) + self.consts[b]
        return values, xs
