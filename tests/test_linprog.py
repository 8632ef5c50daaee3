import os
import re
import sys

import numpy as np
import pytest
import scipy
from scipy import sparse

from helpers import (enumerate_vertices_max, export_mps, linprog_reference,
                     lp_problem, model_lp, random_bounded_lp)
from teamsolve import linprog
from teamsolve.linprog import (LpBackendError, LpError, LpInfeasibleError,
                               LpUnboundedError, solve, solve_min)

TOL = 1e-8


def test_single_constraint():
    s = solve(lp_problem([1.0], sparse.csr_matrix([[1.0]]), [3.0]))
    assert abs(s.value - 3.0) < TOL
    assert abs(s.x[0] - 3.0) < TOL
    assert abs(s.duals_ineq[0] - 1.0) < TOL


def test_equality_coupled():
    s = solve(lp_problem([1.0, 1.0],
                         sparse.csr_matrix([[1.0, 0.0], [0.0, 1.0]]), [1, 1],
                         sparse.csr_matrix([[1.0, -1.0]]), [0.0]))
    assert abs(s.value - 2.0) < TOL
    assert np.allclose(s.x, [1, 1], atol=TOL)


def test_unbounded_and_infeasible():
    with pytest.raises(LpUnboundedError):
        solve(lp_problem([1.0], sparse.csr_matrix([[-1.0]]), [0.0]))
    with pytest.raises(LpInfeasibleError):
        solve(lp_problem([1.0], sparse.csr_matrix([[1.0], [-1.0]]),
                         [1.0, -2.0]))


def test_statuses_map_back_from_the_dual_form():
    # the model is the dual form: an infeasible dual means an unbounded
    # primal, an unbounded dual an infeasible primal, cold or warm
    A_eq = sparse.csr_matrix([[1.0, -1.0]])
    with pytest.raises(LpUnboundedError, match="Infeasible"):
        solve(lp_problem([1.0, 1.0], sparse.csr_matrix([[-1.0, 0.0]]), [0.0],
                         A_eq, [0.0]))
    with pytest.raises(LpInfeasibleError, match="Unbounded"):
        solve(lp_problem([1.0, 1.0], sparse.csr_matrix([[1.0, 0.0],
                                                        [-1.0, 0.0]]),
                         [1.0, -2.0], A_eq, [0.0]))
    # warm: a cut that empties the feasible set, found by the primal
    # simplex from the last basis
    prob = lp_problem([1.0], sparse.csr_matrix([[1.0]]), [1.0])
    assert solve(prob).value == 1.0
    prob.add_rows(sparse.csr_matrix([[-1.0]]), [-2.0])
    with pytest.raises(LpInfeasibleError, match="Unbounded"):
        solve(prob)


def test_undecided_presolve_gets_a_definite_status():
    # 3x <= 0 and -2x <= -3 leave no x.  Presolve alone answers "unbounded
    # or infeasible" for the dual form when it may; with the package's
    # options HiGHS then solves again without presolve, and solve reports
    # the infeasible primal
    A, b = np.array([[3.0], [-2.0]]), [0.0, -3.0]
    undecided = lp_problem([0.0], A, b)
    undecided.highs.setOptionValue("allow_unbounded_or_infeasible", True)
    undecided.highs.run()
    assert undecided.highs.getModelStatus() == \
        linprog._Status.kUnboundedOrInfeasible
    with pytest.raises(LpInfeasibleError, match="Unbounded"):
        solve(lp_problem([0.0], A, b))


def test_value_is_c_dot_x():
    # the value is recomputed from x, so that a lower bound built from
    # x's parts adds up to it exactly
    rng = np.random.default_rng(77)
    for trial in range(50):
        c, A_ub, b_ub, A_eq, b_eq = random_bounded_lp(rng, int(
            rng.integers(2, 7)))
        s = solve(lp_problem(c, A_ub, b_ub, A_eq, b_eq))
        assert s.value == float(c @ s.x), trial


def test_strong_duality_vs_vertex_enumeration():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        c, A_ub, b_ub, A_eq, b_eq = random_bounded_lp(rng, n)
        prob = lp_problem(
            c, sparse.csr_matrix(A_ub), b_ub,
            sparse.csr_matrix(A_eq) if A_eq is not None else None, b_eq)
        s = solve(prob)
        ref = enumerate_vertices_max(c, A_ub, b_ub, A_eq, b_eq)
        assert abs(s.value - ref) < 1e-8, (trial, s.value, ref)
        # dual objective equals primal value
        dual_val = float(s.duals_ineq @ b_ub)
        if A_eq is not None:
            dual_val += float(s.duals_eq @ b_eq)
        assert abs(dual_val - s.value) < 1e-7
        assert s.duals_ineq.min() >= 0.0
        # complementary slackness
        slack = b_ub - A_ub @ s.x
        assert np.abs(s.duals_ineq * slack).max() < 1e-6
        # the minimization form of the same LP: negated value and multipliers
        m = linprog_reference(-c, A_ub, b_ub, A_eq, b_eq, bounds=(None, None))
        assert abs(m.value + s.value) < 1e-8
        assert np.allclose(m.duals_ineq, -s.duals_ineq, atol=1e-8)
        assert np.allclose(m.duals_eq, -s.duals_eq, atol=1e-8)


def test_mps_export(tmp_path):
    prob = lp_problem([1.0, -1.0], sparse.csr_matrix([[1.0, 1.0]]), [2.0],
                      sparse.csr_matrix([[1.0, -1.0]]), [0.5])
    path = os.path.join(tmp_path, "debug.mps")
    export_mps(prob, path)
    text = open(path).read()
    assert text.startswith("NAME")
    assert "ENDATA" in text and "EQ000000" in text


def test_add_rows_warm_start():
    # box rows, then a cut that binds; the equality row stays first
    prob = lp_problem([1.0, 1.0], sparse.csr_matrix(np.eye(2)), [2.0, 2.0],
                      sparse.csr_matrix([[1.0, -1.0]]), [0.0])
    first = solve(prob)
    assert abs(first.value - 4.0) < TOL
    rows = prob.add_rows(sparse.csr_matrix([[1.0, 2.0], [2.0, 1.0]]),
                         [3.0, 6.0])
    assert list(rows) == [2, 3] and prob.n_ineq == 4 and prob.n_eq == 1
    s = solve(prob)
    assert abs(s.value - 2.0) < TOL
    assert np.allclose(s.x, [1.0, 1.0], atol=TOL)
    # multipliers in row-add order: (1, 1) = 1/3 (1, -1) + 2/3 (1, 2)
    assert np.allclose(s.duals_ineq, [0.0, 0.0, 2 / 3, 0.0], atol=TOL)
    assert np.allclose(s.duals_eq, [1 / 3], atol=TOL)
    cold = solve(lp_problem(
        [1.0, 1.0], sparse.csr_matrix([[1, 0], [0, 1], [1, 2], [2, 1]]),
        [2.0, 2.0, 3.0, 6.0], sparse.csr_matrix([[1.0, -1.0]]), [0.0]))
    assert abs(cold.value - s.value) < TOL


def test_delete_rows_renumbers_and_checks_indices():
    # box rows and two slack rows behind the equality row
    prob = lp_problem([1.0, 1.0],
                      sparse.csr_matrix([[1, 0], [0, 1], [1, 1], [2, 1]]),
                      [2.0, 2.0, 5.0, 7.0], sparse.csr_matrix([[1.0, -1.0]]),
                      [0.0])
    first = solve(prob)
    assert np.array_equal(first.slack_ineq, [0.0, 0.0, 1.0, 1.0])
    prob.delete_rows([2])
    # the right-hand sides HiGHS holds, as column costs behind the equality
    assert prob.n_ineq == 3
    assert np.array_equal(model_lp(prob)[3][1:], [2.0, 2.0, 7.0])
    s = solve(prob)
    assert s.iterations == 0 and abs(s.value - 4.0) < TOL
    assert np.array_equal(s.slack_ineq, [0.0, 0.0, 1.0])
    # -1 would name the equality row, 3 is past the last row
    for bad in ([-1], [3]):
        with pytest.raises(LpError, match="outside"):
            prob.delete_rows(bad)
    assert prob.n_ineq == 3 and prob.highs.getNumCol() == 4


def _random_standard_form_lp(rng):
    """min c'x subject to A x = b, x >= 0, with fewer rows than columns and
    about a third of the entries zero.  b is A x0 for some x0 >= 0
    (feasible) or random (often infeasible); c is positive (bounded) or
    random (often unbounded)."""
    n = int(rng.integers(2, 8))
    A = rng.normal(size=(int(rng.integers(1, n)), n))
    A[rng.uniform(size=A.shape) < 1 / 3] = 0.0
    b = (A @ rng.uniform(0.0, 1.0, size=n) if rng.uniform() < 2 / 3
         else rng.normal(size=len(A)))
    c = (rng.uniform(0.1, 1.0, size=n) if rng.uniform() < 1 / 2
         else rng.normal(size=n))
    return c, A, b


def test_solve_min_matches_linprog_reference_bit_for_bit():
    rng = np.random.default_rng(606)
    outcomes = []
    for trial in range(200):
        c, A, b = _random_standard_form_lp(rng)
        try:
            ref = linprog_reference(c, A_eq=A, b_eq=b)
        except LpError as e:
            with pytest.raises(LpError) as got:
                solve_min(c, A, b)
            assert type(got.value) is type(e), trial
            outcomes.append(type(e))
            continue
        got = solve_min(c, A, b)
        for part in ("x", "duals_ineq", "duals_eq", "slack_ineq"):
            assert np.array_equal(getattr(got, part), getattr(ref, part)), \
                (trial, part)
        assert (got.value, got.iterations) == (ref.value, ref.iterations)
        outcomes.append(None)
    # the draws reach each outcome
    assert {None, LpInfeasibleError, LpUnboundedError} == set(outcomes)


def test_rejected_models_raise_lp_error():
    # HiGHS refuses an infinite or huge coefficient and leaves the model as
    # it was; the error names the rows, and is no infeasibility
    with pytest.raises(LpError, match="rejected the 1 rows of A_eq") as e:
        solve_min([1.0, 2.0], [[1.0, np.inf]], [1.0])
    assert type(e.value) is LpError
    prob = lp_problem([1.0, 1.0], np.eye(2), [1.0, 1.0])
    with pytest.raises(LpError, match="rejected the 2 rows of A_ub") as e:
        prob.add_rows([[1.0, 0.0], [1.0, 1e300]], [1.0, 1.0])
    assert type(e.value) is LpError
    assert prob.n_ineq == 2 and prob.highs.getNumCol() == 2
    assert np.array_equal(model_lp(prob)[3], [1.0, 1.0])
    assert solve(prob).value == 2.0
    with pytest.raises(LpError, match="rejected the 1 rows of A_eq"):
        lp_problem([1.0, 1.0], A_eq=[[-np.inf, 1.0]], b_eq=[0.0])
    with pytest.raises(LpError, match="rejected the objective"):
        lp_problem([1.0, 1e300], np.eye(2), [1.0, 1.0])
    # HiGHS would take a NaN cost and report a NaN value
    for bad in (np.nan, np.inf):
        with pytest.raises(LpError, match="non-finite"):
            solve_min([bad, 1.0], [[1.0, 1.0]], [1.0])


def test_missing_binding_raises_backend_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(LpBackendError, match=re.escape(scipy.__version__)):
        linprog._backend()
