"""Finite LP model and the one solver call behind every LP of the package.

Every LP goes through one call of scipy's HiGHS dual simplex and comes back
as an ``LpSolution``.  Simplex (rather than interior point) matters here:
the cutting-plane loop needs *basic* dual solutions so that the recovered
discrete dual measures stay sparse.  Two entry points share that call:

* ``solve`` -- the cutting-plane relaxation, stated as maximization over
  free variables with an inequality block ``A x <= b`` and an equality
  block ``E x = f``; the returned inequality multipliers are nonnegative
  and the equality multipliers are free.
* ``solve_min`` -- minimization with variable bounds, for the transport
  plans, the support reduction and the oracles' cell-pair LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


def _highs(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """Minimize ``c @ x`` with scipy's HiGHS dual simplex; the multipliers
    are scipy's (minimization sense)."""
    res = _scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                         bounds=bounds, method="highs-ds",
                         options=dict(_HIGHS_OPTIONS))
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


def solve(problem: LpProblem) -> LpSolution:
    """Solve the maximization problem; duals follow the max-sense convention.

    Raises ``LpInfeasibleError`` / ``LpUnboundedError`` on the respective
    statuses.  An unbounded status typically signals a bad initial
    constraint set in the cutting-plane driver.
    """
    sol = _highs(-problem.c, problem.A_ub, problem.b_ub, problem.A_eq,
                 problem.b_eq, bounds=(None, None))
    # the minimization of -c has negated value and multipliers
    sol.value = -sol.value
    sol.duals_ineq = -sol.duals_ineq
    sol.duals_ineq[(sol.duals_ineq < 0) & (sol.duals_ineq > -1e-10)] = 0.0
    sol.duals_eq = -sol.duals_eq
    return sol


def solve_min(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """Minimization with bounded variables (transport plans, moment
    systems, the oracles' cell-pair LPs); value and multipliers are in the
    minimization sense."""
    return _highs(c, A_ub, b_ub, A_eq, b_eq, bounds)
