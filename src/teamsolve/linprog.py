"""Finite LP model and the one HiGHS binding behind every LP of the package.

Every LP is solved by HiGHS's simplex through scipy's binding
``scipy.optimize._highspy._core._Highs`` and comes back as an
``LpSolution``.  Simplex (rather than interior point) matters here: the
cutting-plane loop needs *basic* dual solutions so that the recovered
discrete dual measures stay sparse.  Two entry points share the binding and
its options (dual simplex, both feasibility tolerances at 1e-10, no output),
the options scipy's ``linprog(method="highs-ds")`` passes:

* ``solve`` -- the cutting-plane relaxation.  ``LpProblem`` is a live model
  of the maximization over free variables x with an equality block
  ``E x = f`` and an inequality block ``A x <= b`` that grows by
  ``add_rows`` and shrinks by ``delete_rows``.  The relaxation has few
  columns and many rows, so HiGHS holds its dual, whose basis is as wide
  as the column count::

      min f'u + b'v   subject to   E'u + A'v = c,   u free, v >= 0.

  The model's rows are the primal columns, fixed at ``c``; its columns are
  the primal rows in add order, so a CSR row of ``A`` goes in as a column
  of the transpose, and deleting primal rows deletes model columns.  The
  first ``solve`` runs the dual simplex; later ones start the primal
  simplex from the model's previous basis, which added columns leave
  primal feasible (they enter nonbasic at zero).  ``solve`` maps the
  solution back: x is the row duals, the multipliers are the column
  values (nonnegative for the inequality rows, free for the equality rows,
  max sense), the slacks ``b - A x`` are the column reduced costs and the
  value is ``c @ x``.  A basic column has a reduced cost of exactly zero,
  so a positive slack marks a nonbasic column at zero; deleting such
  columns leaves the basis primal and dual feasible, and the next
  ``solve`` takes no simplex iteration.
* ``solve_min`` -- min c'x subject to ``A_eq x = b_eq``, x >= 0, the one
  form of the transport plans and the support reduction.  It builds one
  fresh model per call and returns what scipy's ``linprog`` returns for the
  same LP, bit for bit.

Both build their models one way: an empty model, then ``addCols`` and
``addRows``, which take a ``Csr`` block as it is -- its rows as model rows
in ``solve_min``, as model columns of the dual form in ``LpProblem``.  No
matrix is copied column-wise.  The matrices come as ``Csr`` tuples, which
the package builds with numpy entry for entry as scipy would, as scipy CSR
matrices or as dense arrays.  A block HiGHS rejects (an infinite or huge
coefficient) raises ``LpError`` and leaves the model as it was.

The binding is private to scipy.  ``pyproject.toml`` asks for scipy 1.17,
the tested version whose ``_Highs`` has ``addRows``, ``addCols``,
``deleteCols``, ``getBasis`` and ``getSolution().row_dual``; a scipy without
the binding raises ``LpBackendError`` at import.

The binding is loaded alone, from its file in scipy's ``optimize/_highspy``
folder, under its canonical name ``scipy.optimize._highspy._core``.  An
ordinary import would first run ``scipy.optimize``'s package ``__init__``,
which loads linprog's other methods, shgo, special, fft, spatial and more,
and would more than double the time of ``import teamsolve``; the package
imports neither ``scipy.optimize`` nor ``scipy.sparse``.  The loaded module
is not entered in ``sys.modules``: a later ``import scipy.optimize`` then
still imports the binding as a submodule of its package, and CPython's
extension cache hands it this very module object.  (Had it been entered,
that import would find it there and leave ``scipy.optimize._highspy``
without its ``_core`` attribute.)  If scipy's own import came first, its
module is reused.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    """The maximization problem is unbounded above."""


class LpBackendError(LpError):
    """scipy does not provide the HiGHS binding this module runs on."""


def _backend():
    """scipy's HiGHS binding module, loaded without ``scipy.optimize``
    (module docstring); ``LpBackendError`` names the installed scipy when
    it is missing."""
    name = "scipy.optimize._highspy._core"
    folder = pathlib.Path(scipy.__file__).parent / "optimize" / "_highspy"
    if name in sys.modules:
        core, error = sys.modules[name], "its import is blocked"
    else:
        core, error = None, "no extension file _core.* in %s" % folder
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = folder / ("_core" + suffix)
            if path.is_file():
                loader = importlib.machinery.ExtensionFileLoader(
                    name, str(path))
                try:
                    core = importlib.util.module_from_spec(
                        importlib.util.spec_from_loader(name, loader))
                    loader.exec_module(core)
                except ImportError as e:
                    core, error = None, e
                break
    if core is None:
        raise LpBackendError(
            "scipy %s has no HiGHS binding %s (teamsolve needs scipy>=1.17): "
            "%s" % (scipy.__version__, name, error))
    return core


_core = _backend()
_Status = _core.HighsModelStatus

# HiGHS's simplex_strategy values
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4
# what scipy's linprog(method="highs-ds") sets; output_flag goes first so
# that nothing is logged
_OPTIONS = (
    ("output_flag", False),
    ("presolve", "on"),
    ("solver", "simplex"),
    ("simplex_strategy", _DUAL_SIMPLEX),
    ("primal_feasibility_tolerance", 1e-10),
    ("dual_feasibility_tolerance", 1e-10),
)


def _new_highs():
    highs = _core._Highs()
    for name, value in _OPTIONS:
        highs.setOptionValue(name, value)
    return highs


class Csr(NamedTuple):
    """A matrix in compressed sparse rows, as scipy stores one: row r holds
    the entries ``data[indptr[r]:indptr[r + 1]]`` in the columns
    ``indices[indptr[r]:indptr[r + 1]]``."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


def csr_from_dense(D, col_offset=0, n_cols=None):
    """The nonzero entries of the dense matrix ``D`` in row-major order, as
    scipy's ``csr_matrix(D)`` keeps them, moved ``col_offset`` columns to
    the right in a matrix of ``n_cols`` columns (default: ``D``'s)."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    r, c = np.nonzero(D)
    indptr = np.zeros(D.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(r, minlength=D.shape[0]), out=indptr[1:])
    return Csr(indptr, (c + col_offset).astype(np.int32), D[r, c],
               (D.shape[0], D.shape[1] if n_cols is None else n_cols))


def _as_csr(A, n_rows, n, name):
    """``A`` as a ``Csr`` of shape ``(n_rows, n)``: a ``Csr``, or anything
    with its ``indptr``, ``indices`` and ``data`` (a scipy CSR matrix), is
    read as it is, a dense array by its nonzeros."""
    if getattr(A, "format", "csr") != "csr":
        raise LpError("A_%s is a %s matrix, not CSR" % (name, A.format))
    A = (Csr(A.indptr, A.indices, np.asarray(A.data, dtype=float), A.shape)
         if hasattr(A, "indptr") else csr_from_dense(A))
    if tuple(A.shape) != (n_rows, n):
        raise LpError("A_%s shape %s inconsistent with n=%d, rows=%d"
                      % (name, tuple(A.shape), n, n_rows))
    return A


def _no_entries(k):
    """The ``(count, starts, indices, values)`` arguments of ``addRows`` or
    ``addCols`` for ``k`` rows or columns without matrix entries."""
    return 0, np.zeros(k, dtype=np.int32), np.zeros(0, dtype=np.int32), \
        np.zeros(0)


def _accepted(status, what):
    """Raise ``LpError`` when HiGHS rejected ``what`` (a matrix with an
    infinite or huge coefficient, say); it then leaves the model as it
    was."""
    if status == _core.HighsStatus.kError:
        raise LpError("HiGHS rejected " + what)


# the model statuses other than optimal and the errors they mean: of the
# LP itself (``solve_min``) and of the LP whose dual form the model is
# (``solve``), with the prefix of their messages
_PRIMAL_ERRORS = ("", {_Status.kInfeasible: LpInfeasibleError,
                       _Status.kUnbounded: LpUnboundedError})
_DUAL_FORM_ERRORS = ("dual form: ",
                     {_Status.kInfeasible: LpUnboundedError,
                      _Status.kUnbounded: LpInfeasibleError})


def _run(highs, errors):
    """Run HiGHS; returns its solution when the model is optimal, else
    raises the error that ``errors`` maps the status to (``LpError`` when
    it maps none)."""
    highs.run()
    status = highs.getModelStatus()
    if status != _Status.kOptimal:
        prefix, by_status = errors
        raise by_status.get(status, LpError)(
            prefix + highs.modelStatusToString(status))
    return highs.getSolution()


class LpProblem:
    """max <c, x> subject to A_eq x = b_eq, A_ub x <= b_ub, x free, held as
    a live HiGHS model of its dual (module docstring).  Model row j is
    primal column j, fixed at ``c[j]``; model column r is equality row r
    and model column ``n_eq + j`` is inequality row j.  The model starts
    with the equality rows (none when ``A_eq`` is None), ``add_rows``
    appends inequality rows, ``delete_rows`` removes some, and the next
    ``solve`` starts from the basis of the last one."""

    def __init__(self, c, A_eq, b_eq):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        if n == 0:
            raise LpError("empty problem")
        if not np.all(np.isfinite(c)):
            raise LpError("non-finite objective coefficients")
        self.highs = _new_highs()
        _accepted(self.highs.addRows(n, c, c, *_no_entries(n)),
                  "the objective c as row bounds")
        self.c = c
        self.n = n
        self.n_eq = self.n_ineq = 0
        if A_eq is not None:
            self._add(A_eq, b_eq, "eq")
            self.n_eq = len(b_eq)

    def add_rows(self, A_ub, b_ub):
        """Append the inequality rows ``A_ub x <= b_ub``; returns their
        indices among the inequality rows, which index ``duals_ineq``."""
        self._add(A_ub, b_ub, "ub")
        start, self.n_ineq = self.n_ineq, self.highs.getNumCol() - self.n_eq
        return np.arange(start, self.n_ineq)

    def delete_rows(self, ineq_rows):
        """Delete the inequality rows ``ineq_rows`` (indices among the
        inequality rows).  HiGHS renumbers the rest in order: row j becomes
        j minus the number of deleted rows below it.  Deleting only rows
        whose model columns are nonbasic keeps the basis optimal (module
        docstring)."""
        idx = np.unique(np.asarray(ineq_rows, dtype=np.int64))
        if idx.size and not 0 <= idx[0] <= idx[-1] < self.n_ineq:
            raise LpError("inequality rows outside [0, %d)" % self.n_ineq)
        _accepted(self.highs.deleteCols(
            len(idx), (self.n_eq + idx).astype(np.int32)),
            "deleting %d rows" % len(idx))
        self.n_ineq -= len(idx)

    def _add(self, A, b, name):
        """Append the rows ``A x (= or <=) b`` as model columns: a CSR row
        of ``A`` is a column of its transpose, with cost ``b``."""
        if b is None:
            raise LpError("missing b_%s" % name)
        b = np.asarray(b, dtype=float)
        A = _as_csr(A, b.shape[0], self.n, name)
        lower = np.full(len(b), -np.inf if name == "eq" else 0.0)
        _accepted(self.highs.addCols(len(b), b, lower,
                                     np.full(len(b), np.inf), len(A.data),
                                     A.indptr[:-1], A.indices, A.data),
                  "the %d rows of A_%s, b_%s" % (len(b), name, name))


@dataclass
class LpSolution:
    x: np.ndarray
    duals_ineq: np.ndarray
    duals_eq: np.ndarray
    slack_ineq: np.ndarray      # b_ub - A_ub x
    value: float
    iterations: int


def solve(problem: LpProblem) -> LpSolution:
    """Solve the maximization problem from the model's current basis: the
    dual simplex when the model has no valid basis yet, else the primal
    simplex, since columns added after the last solve enter nonbasic at
    zero and leave its basis primal feasible.

    The inequality multipliers and slacks come in row-add order (less the
    deleted rows); the multipliers follow the max-sense convention.  The
    value is ``c @ x``.  Raises ``LpInfeasibleError`` /
    ``LpUnboundedError`` when the primal problem is infeasible / unbounded,
    that is when its dual form is unbounded / infeasible.  (When presolve
    cannot tell the two apart, HiGHS itself solves again without it, since
    its ``allow_unbounded_or_infeasible`` option is off.)  An unbounded
    status typically signals a bad initial constraint set in the
    cutting-plane loop.
    """
    highs = problem.highs
    highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX
                         if highs.getBasis().valid else _DUAL_SIMPLEX)
    sol = _run(highs, _DUAL_FORM_ERRORS)
    x = np.asarray(sol.row_dual, dtype=float)
    multipliers = np.asarray(sol.col_value, dtype=float)
    e = problem.n_eq
    duals_ineq = multipliers[e:]
    duals_ineq[(duals_ineq < 0) & (duals_ineq > -1e-10)] = 0.0
    slack = np.asarray(sol.col_dual, dtype=float)[e:]
    return LpSolution(x, duals_ineq, multipliers[:e], slack,
                      float(problem.c @ x),
                      int(highs.getInfo().simplex_iteration_count))


def solve_min(c, A_eq, b_eq):
    """min <c, x> subject to A_eq x = b_eq, x >= 0 (transport plans, the
    support reduction) as one fresh model: the columns, then the rows as
    CSR.  Value and multipliers are in the minimization sense, bit for bit
    what scipy's ``linprog(method="highs-ds")`` returns for the same LP."""
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    n = c.shape[0]
    if not np.all(np.isfinite(c)):
        raise LpError("non-finite objective coefficients")
    A = _as_csr(A_eq, len(b_eq), n, "eq")
    highs = _new_highs()
    highs.addCols(n, c, np.zeros(n), np.full(n, np.inf), *_no_entries(n))
    _accepted(highs.addRows(len(b_eq), b_eq, b_eq, len(A.data),
                            A.indptr[:-1], A.indices, A.data),
              "the %d rows of A_eq, b_eq" % len(b_eq))
    sol, info = _run(highs, _PRIMAL_ERRORS), highs.getInfo()
    return LpSolution(np.asarray(sol.col_value, dtype=float), np.zeros(0),
                      np.asarray(sol.row_dual, dtype=float), np.zeros(0),
                      float(info.objective_function_value),
                      int(info.simplex_iteration_count))
