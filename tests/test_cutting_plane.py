import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from helpers import (CutStoreLoop, assemble_lp_loop,
                     brute_force_discrete_optimum, dual_objective,
                     dual_plan_reference, lp_problem, model_lp,
                     parametric_objective,
                     point_key, random_discrete_instance, solve_reference)
from teamsolve import cutting_plane, linprog
from teamsolve.geometry import (FiniteSpace, HatBasis, IndicatorBasis,
                                build_box_partition, point_keys)
from teamsolve.measures import DiscreteMeasure, moment_vector
from teamsolve.cutting_plane import (MaxIterationsExceededError,
                                     UnboundedRelaxationError, _add_new_cuts,
                                     _CutStore, _drop_slack_rows, _relaxation,
                                     default_initial_cuts, run,
                                     sparsity_bound)
from teamsolve.oracle import make_oracle
from teamsolve.problems import barycenter_cost, tabulated_cpwa_cost

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _solve_discrete(model, measures, x_spaces, x_bases, z_space, z_basis,
                    eps=1e-6, **kw):
    gbar = [moment_vector(measures[i], x_bases[i])
            for i in range(model.N)]
    oracle = make_oracle(model, x_spaces, x_bases, z_space, z_basis)
    return run(model, gbar, x_spaces, x_bases, z_space, z_basis, oracle,
               eps_lsip=eps, **kw)


def test_discrete_two_category():
    X = FiniteSpace([[0.0], [1.0]])
    Z = FiniteSpace([[0.0], [1.0]])
    bx, bz = IndicatorBasis(X), IndicatorBasis(Z)
    T = np.abs(X.vertices[:, 0:1] - Z.vertices[:, 0][None, :])
    model = tabulated_cpwa_cost([X, X], Z, [T, T])
    mu = [DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[1.0]], [1.0])]
    res = _solve_discrete(model, mu, [X, X], [bx, bx], Z, bz)
    ref = brute_force_discrete_optimum(model, mu, [X, X], Z)
    assert abs(ref - 1.0) < 1e-9
    assert res.alpha_lb - 1e-9 <= ref <= res.alpha_ub + 1e-9
    assert res.gap <= 1e-6


def test_zero_cost_single_iteration():
    X = FiniteSpace([[0.0], [1.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X], X, [np.zeros((2, 2))])
    mu = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])]
    res = _solve_discrete(model, mu, [X], [bx], X, bx)
    assert abs(res.alpha_ub) < 1e-12 and abs(res.alpha_lb) < 1e-12
    assert len(res.iterations) == 1


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(2025)
    for _ in range(8):
        model, mu, xs, xb, zs, zb = random_discrete_instance(rng)
        res = _solve_discrete(model, mu, xs, xb, zs, zb)
        ref = brute_force_discrete_optimum(model, mu, xs, zs)
        assert res.alpha_lb - 1e-8 <= ref <= res.alpha_ub + 1e-8
        assert res.gap <= 1e-6 + 1e-12
        # monotone LP values
        vals = [r.lp_value for r in res.iterations]
        assert all(vals[j + 1] <= vals[j] + 1e-9 for j in range(len(vals) - 1))


def test_dual_measure_invariants():
    rng = np.random.default_rng(77)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res = _solve_discrete(model, mu, xs, xb, zs, zb)
    gbar = [moment_vector(mu[i], xb[i]) for i in range(3)]
    h_moments = []
    for i in range(3):
        w = res.duals.weights[i]
        assert w.min() > 0 and abs(w.sum() - 1) < 1e-12
        g_emp = (xb[i].eval_many(res.duals.xs[i]) * w[:, None]).sum(0)
        assert np.abs(g_emp - gbar[i]).max() < 1e-8
        h_moments.append((zb.eval_many(res.duals.zs[i]) * w[:, None]).sum(0))
    for i in range(1, 3):
        assert np.abs(h_moments[i] - h_moments[0]).max() < 1e-8
    assert dual_objective(res.duals, model) <= res.alpha_ub + 1e-9
    assert np.abs(res.solution.w.sum(axis=0)).max() < 1e-9
    assert abs(parametric_objective(res.solution, gbar) - res.alpha_lb) < 1e-9


def _workload_run(name):
    inst = workloads.build(name, 0)
    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures, inst.x_bases)]
    res = run(inst.model, gbar, inst.x_spaces, inst.x_bases, inst.z_space,
              inst.z_basis, inst.oracle, inst.eps_lsip)
    return res, gbar


def _spy_thetas(monkeypatch):
    """Record the store and the unnormalised per-category row multipliers
    that ``run`` hands to ``_extract_duals``."""
    seen = {}
    extract = cutting_plane._extract_duals

    def spy(store, thetas):
        seen.update(store=store, thetas=thetas)
        return extract(store, thetas)

    monkeypatch.setattr(cutting_plane, "_extract_duals", spy)
    return seen


def _assert_theta_invariants(store, thetas, gbar, tol=1e-9):
    # the dual constraints of y0_i, y_i and w_i: each category's multipliers
    # are a probability vector with type moments gbar_i, and every category
    # has the same quality moments
    h = []
    for i, t in enumerate(thetas):
        q = len(t)
        G = store.x_bases[i].eval_many(store.X[i][:q])
        assert abs(t.sum() - 1.0) <= tol, i
        assert np.abs(t @ G - gbar[i]).max() <= tol, i
        h.append(t @ store.z_basis.eval_many(store.Z[i][:q]))
    for i in range(1, len(h)):
        assert np.abs(h[i] - h[0]).max() <= tol, i


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_row_multiplier_invariants_workloads(name, monkeypatch):
    seen = _spy_thetas(monkeypatch)
    _, gbar = _workload_run(name)
    _assert_theta_invariants(seen["store"], seen["thetas"], gbar)


def test_row_multiplier_invariants_random(monkeypatch):
    seen = _spy_thetas(monkeypatch)
    rng = np.random.default_rng(4711)
    for _ in range(10):
        model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
        _solve_discrete(model, mu, xs, xb, zs, zb)
        gbar = [moment_vector(mu[i], xb[i]) for i in range(3)]
        _assert_theta_invariants(seen["store"], seen["thetas"], gbar)


def test_persistent_and_reference_backends_agree(monkeypatch):
    # the discrete corpus: random instances and barycenter-discrete's first
    rng = np.random.default_rng(2026)
    cases = [random_discrete_instance(rng) for _ in range(6)]
    inst = workloads.build("barycenter-discrete", 0)
    cases.append((inst.model, inst.measures, inst.x_spaces, inst.x_bases,
                  inst.z_space, inst.z_basis))
    eps = [1e-6] * 6 + [inst.eps_lsip]
    live = [_solve_discrete(*case, eps=e) for case, e in zip(cases, eps)]
    monkeypatch.setattr(linprog, "solve", solve_reference)
    cold = [_solve_discrete(*case, eps=e) for case, e in zip(cases, eps)]
    for a, b, e in zip(live, cold, eps):
        assert abs(a.alpha_lb - b.alpha_lb) <= e
        assert abs(a.alpha_ub - b.alpha_ub) <= e
        assert max(a.alpha_lb, b.alpha_lb) <= min(a.alpha_ub, b.alpha_ub)


def test_repeat_runs_identical():
    first, _ = _workload_run("barycenter-discrete")
    again, _ = _workload_run("barycenter-discrete")
    assert first.alpha_lb == again.alpha_lb
    assert len(first.iterations) == len(again.iterations)
    assert first.n_lp_rows == again.n_lp_rows
    for part in ("xs", "zs", "weights"):
        for a, b in zip(getattr(first.duals, part),
                        getattr(again.duals, part)):
            assert np.array_equal(a, b), part


def test_barycenter_two_point_bracket():
    Xa, Xb = FiniteSpace([[0.0, 0.0]]), FiniteSpace([[2.0, 0.0]])
    ba, bb = IndicatorBasis(Xa), IndicatorBasis(Xb)
    Z = build_box_partition([(0, 2), (-0.5, 0.5)], (8, 4))
    bz = HatBasis(Z)
    mu = [DiscreteMeasure([[0.0, 0.0]], [1.0]),
          DiscreteMeasure([[2.0, 0.0]], [1.0])]
    model = barycenter_cost([0.5, 0.5], [Xa, Xb], Z, mu)
    res = _solve_discrete(model, mu, [Xa, Xb], [ba, bb], Z, bz, eps=1e-5)
    # raw optimum of the shifted cost is -1; adding the constant gives 1
    assert res.alpha_lb + model.shift - 1e-9 <= 1.0
    assert res.alpha_ub + model.shift + 1e-9 >= 1.0
    assert res.gap <= 1e-5


def test_unbounded_initial_relaxation(monkeypatch):
    X = FiniteSpace([[0.0], [1.0]])
    Z = FiniteSpace([[0.0], [1.0]])
    bx, bz = IndicatorBasis(X), IndicatorBasis(Z)
    T = np.abs(X.vertices[:, 0:1] - Z.vertices[:, 0][None, :])
    model = tabulated_cpwa_cost([X, X], Z, [T, T])
    mu = [DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[1.0]], [1.0])]
    gbar = [moment_vector(mu[i], bx) for i in range(2)]
    oracle = make_oracle(model, [X, X], [bx, bx], Z, bz)
    # a single starting pair per category leaves w unpinned
    K0 = [(X.vertices[:1], Z.vertices[:1]) for _ in range(2)]
    monkeypatch.setattr(cutting_plane, "default_initial_cuts",
                        lambda x_spaces, z_space: K0)
    with pytest.raises(UnboundedRelaxationError):
        run(model, gbar, [X, X], [bx, bx], Z, bz, oracle, eps_lsip=1e-6)


def test_iteration_cap():
    Xa, Xb = FiniteSpace([[0.0, 0.0]]), FiniteSpace([[2.0, 0.0]])
    ba, bb = IndicatorBasis(Xa), IndicatorBasis(Xb)
    Z = build_box_partition([(0, 2), (-0.5, 0.5)], (4, 2))
    bz = HatBasis(Z)
    mu = [DiscreteMeasure([[0.0, 0.0]], [1.0]),
          DiscreteMeasure([[2.0, 0.0]], [1.0])]
    model = barycenter_cost([0.5, 0.5], [Xa, Xb], Z, mu)
    with pytest.raises(MaxIterationsExceededError) as exc:
        _solve_discrete(model, mu, [Xa, Xb], [ba, bb], Z, bz, eps=1e-9,
                        max_iterations=3)
    assert exc.value.gap > 0


def test_sparsity_bound_values():
    assert sparsity_bound([1], 0) == 3
    assert sparsity_bound([3, 5], 2) == 7
    assert sparsity_bound([49] * 100, 560) == 611


def test_iteration_log_csv(tmp_path):
    X = FiniteSpace([[0.0], [1.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X], X, [np.zeros((2, 2))])
    mu = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])]
    res = _solve_discrete(model, mu, [X], [bx], X, bx)
    path = tmp_path / "iters.csv"
    res.write_iteration_log(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == ("r,lp_value,gap,cuts_added,cuts_per_category,"
                        "lp_rows,simplex_iterations,add_time,lp_time,"
                        "oracle_time,rows_dropped")
    assert len(lines) == 2
    rec = res.iterations[0]
    fields = lines[1].split(",")
    assert fields[3:7] == [
        str(rec.cuts_added), ";".join(map(str, rec.cuts_per_category)),
        str(rec.lp_rows), str(rec.simplex_iterations)]
    assert fields[10] == str(rec.rows_dropped) == "0"
    assert sum(rec.cuts_per_category) == rec.cuts_added


def test_iteration_log_counts_per_category():
    rng = np.random.default_rng(31)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res = _solve_discrete(model, mu, xs, xb, zs, zb)
    assert res.iterations[0].lp_rows == (sum(len(sp.vertices) for sp in xs)
                                         * zs.n_vertices)
    for rec in res.iterations:
        assert len(rec.cuts_per_category) == 3
        assert sum(rec.cuts_per_category) == rec.cuts_added
        assert rec.add_time >= 0 and rec.lp_time >= 0
    _assert_row_accounting(res.iterations)


def _assert_row_accounting(records):
    # the next round's LP: this round's rows, less the dropped ones, plus
    # the new cuts; the final round drops nothing
    for rec, nxt in zip(records, records[1:]):
        assert nxt.lp_rows == rec.lp_rows - rec.rows_dropped + rec.cuts_added
    assert records[-1].rows_dropped == 0


def _assert_same_lp(problem, rows, ref):
    """The model's rows permuted by ``rows`` (category by category, store
    order) are the per-nonzero assembly's, less the entries HiGHS drops as
    numerically zero (at most its ``small_matrix_value``)."""
    c, A, lo, hi = model_lp(problem)
    c_ref, A_ub, b_ub, A_eq, b_eq = ref
    tiny = problem.highs.getOptionValue("small_matrix_value")[1]
    A_ub = A_ub.copy()
    A_ub.data[np.abs(A_ub.data) <= tiny] = 0.0
    A_ub.eliminate_zeros()
    k = problem.n_eq
    perm = k + np.concatenate(rows)
    assert np.array_equal(c, c_ref)
    assert np.array_equal(np.sort(perm), np.arange(k, A.shape[0]))
    assert np.array_equal(hi[perm], b_ub) and np.all(lo[perm] == -np.inf)
    assert np.array_equal(lo[:k], b_eq) and np.array_equal(hi[:k], b_eq)
    for M, B in ((A[perm], A_ub), (A[:k], A_eq)):
        assert M.shape == B.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(M, part), getattr(B, part)), part


def _first_relaxation(name, seed=0):
    """The model of the workload's seed's instance 0, holding its
    vertex-product cuts."""
    inst = workloads.build(name, seed)
    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures, inst.x_bases)]
    store = _CutStore(inst.model, inst.x_bases, inst.z_basis)
    for i, (X, Z) in enumerate(default_initial_cuts(inst.x_spaces,
                                                    inst.z_space)):
        store.add(i, X, Z)
    problem, offsets = _relaxation(gbar, inst.z_basis.m)
    rows = [np.empty(0, dtype=int) for _ in range(inst.N)]
    _add_new_cuts(problem, store, offsets, rows)
    return inst, gbar, store, problem, offsets, rows


def _add_oracle_cuts(inst, store, offsets, sol):
    k = inst.z_basis.m
    for i in range(inst.N):
        y = sol.x[offsets[i] + 1:offsets[i + 1] - k]
        res = inst.oracle(i, y, sol.x[offsets[i + 1] - k:offsets[i + 1]])
        store.add(i, np.vstack([res.x] + [p[0] for p in res.pool]),
                  np.vstack([res.z] + [p[1] for p in res.pool]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_store_keeps_points_not_basis_rows(name):
    # one row per cut in every array the store holds, and no column per
    # type or quality test function
    inst, _, store, *_ = _first_relaxation(name)
    held = [(i, a) for part in vars(store).values() if isinstance(part, list)
            for i, a in enumerate(part) if isinstance(a, np.ndarray)]
    for i, a in held:
        assert a.shape[0] == len(store.c[i]) > 0
        widths = {inst.x_bases[i].m, inst.z_basis.m}
        assert not widths & set(a.shape[1:]), (i, a.shape)
    assert len(held) == 3 * inst.N


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_lp_matches_per_nonzero_assembly(name):
    # instance 0's vertex-product cuts, then one round of oracle cuts
    inst, gbar, store, problem, offsets, rows = _first_relaxation(name)
    k = inst.z_basis.m
    _assert_same_lp(problem, rows, assemble_lp_loop(store, gbar, k))
    sol = linprog.solve(problem)
    _add_oracle_cuts(inst, store, offsets, sol)
    solved = problem.n_ineq
    _add_new_cuts(problem, store, offsets, rows)
    assert problem.n_ineq > solved
    _assert_same_lp(problem, rows, assemble_lp_loop(store, gbar, k))


def test_drop_keeps_the_warm_basis_and_the_row_index():
    inst, gbar, store, problem, offsets, rows = _first_relaxation(
        "barycenter-discrete")
    k = inst.z_basis.m
    budget = cutting_plane.ROW_BUDGET * problem.n
    sol = linprog.solve(problem)
    assert problem.n_ineq > budget
    dropped = _drop_slack_rows(problem, store, rows, sol)
    assert dropped == len(sol.slack_ineq) - budget == 4824
    # the model is the store's cuts, row for row
    _assert_same_lp(problem, rows, assemble_lp_loop(store, gbar, k))
    # the basis stayed optimal: no simplex iteration, the same point
    again = linprog.solve(problem)
    assert again.iterations == 0
    assert abs(again.value - sol.value) <= 1e-12
    assert np.abs(again.x - sol.x).max() <= 1e-12
    # and the new cuts of the next round land behind the renumbered rows
    _add_oracle_cuts(inst, store, offsets, again)
    _add_new_cuts(problem, store, offsets, rows)
    assert problem.n_ineq > budget
    _assert_same_lp(problem, rows, assemble_lp_loop(store, gbar, k))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_resolve_after_a_drop_takes_no_iteration(name):
    # the first four rounds of seeds 0-2, as ``run`` takes them: a drop
    # deletes only nonbasic model columns, so the basis stays optimal
    drops = 0
    for seed in range(3):
        inst, _, store, problem, offsets, rows = _first_relaxation(name, seed)
        for r in range(4):
            sol = linprog.solve(problem)
            assert sol.value == float(problem.c @ sol.x)
            _add_oracle_cuts(inst, store, offsets, sol)
            if _drop_slack_rows(problem, store, rows, sol):
                drops += 1
                again = linprog.solve(problem)
                assert again.iterations == 0, (seed, r)
                assert abs(again.value - sol.value) <= 1e-12, (seed, r)
            _add_new_cuts(problem, store, offsets, rows)
    assert drops >= 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quality_multipliers_sum_to_zero(name):
    # the k equality rows are free model columns; their reduced costs,
    # the residuals of sum_i w_i = 0, are zero up to rounding
    for seed in range(3):
        inst = workloads.build(name, seed)
        gbar = [moment_vector(mu, b)
                for mu, b in zip(inst.measures, inst.x_bases)]
        res = run(inst.model, gbar, inst.x_spaces, inst.x_bases,
                  inst.z_space, inst.z_basis, inst.oracle, inst.eps_lsip)
        assert np.abs(res.solution.w.sum(axis=0)).max() <= 1e-13, seed


class _DeleteLog:
    """Stands in for the cut store: records what ``_drop_slack_rows``
    asks it to delete."""

    def __init__(self):
        self.deleted = []

    def delete(self, i, idx):
        self.deleted.append((i, list(idx)))


def test_drop_leaves_tight_rows_when_candidates_run_out():
    # max x + y: twelve rows through the optimum (1, 1), each priced or
    # tight with a zero multiplier (which ones the degenerate optimum
    # prices is the solver's choice), and three slack rows; the budget of
    # 4 rows per column asks for seven deletions
    tight = [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
    slack = [(1, 0), (0, 1), (1, 1)]
    A = np.array(tight + slack, dtype=float)
    b = np.concatenate([A[:12].sum(1), [2.0, 3.0, 5.0]])
    problem = lp_problem([1.0, 1.0], sparse.csr_matrix(A), b)
    sol = linprog.solve(problem)
    assert np.array_equal(sol.slack_ineq[:12], np.zeros(12))
    priced_or_tight = (sol.duals_ineq > 0) | (sol.slack_ineq == 0)
    assert np.array_equal(np.flatnonzero(priced_or_tight), np.arange(12))
    store, rows = _DeleteLog(), [np.arange(15)]
    assert _drop_slack_rows(problem, store, rows, sol) == 3
    # only the slack rows went; the tight ones stay over the budget
    assert store.deleted == [(0, [12, 13, 14])]
    assert problem.n_ineq == 12 > cutting_plane.ROW_BUDGET * problem.n
    assert np.array_equal(rows[0], np.arange(12))
    assert linprog.solve(problem).iterations == 0


def _spy_drops(monkeypatch):
    """Record every drop of ``run``: the solution it read, the rows it
    deleted and the model's row and column counts after it."""
    drops = []
    delete_rows = linprog.LpProblem.delete_rows
    drop = cutting_plane._drop_slack_rows

    def spy_delete(problem, ineq_rows):
        drops[-1]["deleted"] = np.array(ineq_rows)
        return delete_rows(problem, ineq_rows)

    def spy_drop(problem, store, rows, sol):
        drops.append({"sol": sol, "deleted": np.zeros(0, dtype=int)})
        n = drop(problem, store, rows, sol)
        drops[-1].update(count=n, rows=problem.n_ineq, cols=problem.n)
        return n

    monkeypatch.setattr(linprog.LpProblem, "delete_rows", spy_delete)
    monkeypatch.setattr(cutting_plane, "_drop_slack_rows", spy_drop)
    return drops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_drops_take_basic_slacks_down_to_the_budget(name, monkeypatch):
    drops = _spy_drops(monkeypatch)
    res, _ = _workload_run(name)
    # every round but the last one drops
    assert len(drops) == len(res.iterations) - 1
    assert sum(d["count"] for d in drops) > 0
    for d, rec in zip(drops, res.iterations):
        slack, theta, gone = d["sol"].slack_ineq, d["sol"].duals_ineq, \
            d["deleted"]
        assert len(gone) == d["count"] == rec.rows_dropped
        # never a row with zero slack or a positive multiplier
        assert np.all(slack[gone] > 0) and np.all(theta[gone] == 0)
        kept = np.delete(np.arange(len(slack)), gone)
        assert d["rows"] == len(kept) == rec.lp_rows - rec.rows_dropped
        left = (slack[kept] > 0) & (theta[kept] == 0)
        # down to the budget unless no droppable row is left, the largest
        # slacks first
        assert d["rows"] <= cutting_plane.ROW_BUDGET * d["cols"] \
            or not left.any()
        if left.any() and len(gone):
            assert slack[kept][left].max() <= slack[gone].min()
    _assert_row_accounting(res.iterations)


def test_dropped_cut_offered_again_is_readded(monkeypatch):
    forgotten, readded = {}, []
    delete, add = _CutStore.delete, _CutStore.add

    def spy_delete(store, i, idx):
        forgotten.setdefault(i, set()).update(
            point_keys(np.hstack([store.X[i][idx], store.Z[i][idx]])))
        delete(store, i, idx)

    def spy_add(store, i, X, Z):
        start = len(store.c[i])
        n = add(store, i, X, Z)
        readded.extend(
            key for key in point_keys(np.hstack([store.X[i][start:],
                                                 store.Z[i][start:]]))
            if key in forgotten.get(i, ()))
        return n

    monkeypatch.setattr(_CutStore, "delete", spy_delete)
    monkeypatch.setattr(_CutStore, "add", spy_add)
    res, _ = _workload_run("capped-affine")
    assert readded
    assert res.gap <= workloads.build("capped-affine", 0).eps_lsip


def test_store_delete_forgets_keys():
    X = FiniteSpace([[0.0], [1.0], [2.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X], X, [np.arange(9.0).reshape(3, 3)])
    store = _CutStore(model, [bx], bx)
    P = X.vertices
    assert store.add(0, P, P[::-1]) == 3
    before = {part: getattr(store, part)[0].copy()
              for part in ("X", "Z", "c")}
    store.delete(0, np.array([0, 2]))
    for part, arr in before.items():
        assert np.array_equal(getattr(store, part)[0], arr[[1]]), part
    assert store.keys[0] == {point_key(np.hstack([P[1], P[1]]))}
    # the forgotten cuts come back, behind the kept one
    assert store.add(0, P, P[::-1]) == 2
    assert np.array_equal(store.c[0], before["c"][[1, 0, 2]])


def test_batched_add_matches_single_adds():
    rng = np.random.default_rng(8)
    box = [(-1, 1), (-1, 1)]
    xs = [build_box_partition(box, (2, 2)), FiniteSpace(rng.uniform(-1, 1, (6, 2)))]
    zs = build_box_partition(box, (3, 2))
    xb, zb = [HatBasis(sp) for sp in xs], HatBasis(zs)
    model = barycenter_cost([0.4, 0.6], xs, zs)
    batched = _CutStore(model, xb, zb)
    single = CutStoreLoop(model, xb, zb)
    for i, sp in enumerate(xs):
        X = sp.vertices[rng.integers(0, sp.n_vertices, 40)]
        Z = np.vstack([zs.vertices[rng.integers(0, zs.n_vertices, 30)],
                       rng.uniform(-1, 1, (10, 2))])
        Z[:2, 1] = 0.0
        # repeats within the batch, -0.0 against 0.0, and offsets that the
        # 12-decimal key rounds away
        X[5:10], Z[5:10] = X[:5], Z[:5]
        Z[10:15] = np.where(Z[:5] == 0.0, -0.0, Z[:5])
        X[10:15] = X[:5]
        Z[15:20] = np.clip(Z[:5] + 3e-14, -1, 1)
        X[15:20] = X[:5]
        for lo, hi in ((0, 25), (25, 40), (0, 40)):
            added = batched.add(i, X[lo:hi], Z[lo:hi])
            assert added == sum(single.add(i, x, z)
                                for x, z in zip(X[lo:hi], Z[lo:hi]))
        assert len(batched.c[i]) == len(single.c[i]) < 40
        for part in ("X", "Z", "c"):
            assert np.array_equal(getattr(batched, part)[i],
                                  np.asarray(getattr(single, part)[i])), part
        # the batched bases on the stored points equal the per-point ones
        assert np.array_equal(xb[i].eval_many(batched.X[i]),
                              np.asarray(single.G[i]))
        assert np.array_equal(zb.eval_many(batched.Z[i]),
                              np.asarray(single.H[i]))


def test_non_finite_tolerance_is_rejected():
    X = FiniteSpace([[0.0], [1.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X, X], X, [np.zeros((2, 2))] * 2)
    mu = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2
    for eps in (np.nan, 0.0, -1.0):
        # a NaN gap test never passes, so the loop would run to its cap
        with pytest.raises(cutting_plane.CuttingPlaneError,
                           match="must be positive"):
            _solve_discrete(model, mu, [X, X], [bx, bx], X, bx, eps=eps,
                            max_iterations=3)


def test_iteration_cap_below_one_is_rejected():
    # with no iteration there is no gap to report
    X = FiniteSpace([[0.0], [1.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X, X], X, [np.zeros((2, 2))] * 2)
    mu = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2
    for cap in (0, -1):
        with pytest.raises(cutting_plane.CuttingPlaneError,
                           match="max_iterations must be at least 1"):
            _solve_discrete(model, mu, [X, X], [bx, bx], X, bx,
                            max_iterations=cap)


def _check_plan(duals, i):
    zs, xs, P = duals.plan(i)
    pairs, z_marg, x_marg = dual_plan_reference(
        duals.xs[i], duals.zs[i], duals.weights[i])
    zk = [point_key(z) for z in zs]
    xk = [point_key(x) for x in xs]
    # distinct atoms in first-seen order
    assert zk == list(z_marg) and xk == list(x_marg)
    ref = np.array([[pairs.get((a, b), 0.0) for b in xk] for a in zk])
    assert np.abs(P - ref).max() <= 1e-15
    assert np.abs(P.sum(1) - list(z_marg.values())).max() <= 1e-15
    assert np.abs(P.sum(0) - list(x_marg.values())).max() <= 1e-15


def test_dual_plan_matches_set_reference():
    # shared atoms on both sides, a pair listed twice and unnormalised
    # weights
    rng = np.random.default_rng(78)
    zpool, xpool = rng.uniform(size=(4, 2)), rng.uniform(size=(5, 1))
    zi, xi = rng.integers(0, 4, 30), rng.integers(0, 5, 30)
    zi[-1], xi[-1] = zi[0], xi[0]
    duals = cutting_plane.DualDiscreteMeasures(
        [xpool[xi]], [zpool[zi]], [rng.uniform(0.5, 1.5, 30)])
    _check_plan(duals, 0)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res = _solve_discrete(model, mu, xs, xb, zs, zb)
    for i in range(3):
        _check_plan(res.duals, i)


# numpy's dispatch targets above its x86-64-v2 baseline: disabling them makes
# numpy's default sort take another kernel, which breaks ties otherwise
ABOVE_BASELINE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

SOLVE_TWO_BENCH_INSTANCES = """
    import json
    import teamsolve as ts
    import workloads
    out = []
    for name, j in (("business-location", 0), ("capped-affine", 8)):
        inst = workloads.build(name, 3, j)
        gbar = [ts.moment_vector(mu, b)
                for mu, b in zip(inst.measures, inst.x_bases)]
        cp = ts.cutting_plane.run(inst.model, gbar, inst.x_spaces,
                                  inst.x_bases, inst.z_space, inst.z_basis,
                                  inst.oracle, inst.eps_lsip)
        out.append([len(cp.iterations),
                    [it.lp_rows for it in cp.iterations],
                    cp.alpha_lb.hex(), cp.alpha_ub.hex(),
                    [v.hex() for w in cp.duals.weights for v in w.tolist()]])
    print(json.dumps(out))
"""


def test_the_cuts_do_not_depend_on_numpy_sort_kernels():
    # seed 3's instance 0 of business-location and instance 8 of
    # capped-affine: with numpy's default sort in the oracle, the baseline
    # kernels broke ties otherwise and gave other LP rows, another alpha_lb
    # and, on capped-affine, another round count
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if "X86_V3" not in umath.__cpu_dispatch__ \
            or not umath.__cpu_features__.get("AVX2"):
        pytest.skip("numpy dispatches no sort kernel above x86-64-v2 here")
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for disabled in ("", ",".join(f for f in ABOVE_BASELINE
                                  if f in umath.__cpu_dispatch__)):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(SOLVE_TWO_BENCH_INSTANCES)],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        outputs.append(json.loads(out.stdout))
    assert outputs[0] == outputs[1]
