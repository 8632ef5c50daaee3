import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (CutStoreLoop, assemble_lp_loop,
                     brute_force_discrete_optimum, random_discrete_instance)
from teamsolve import linprog
from teamsolve.geometry import (FiniteSpace, HatBasis, IndicatorBasis,
                                build_box_partition)
from teamsolve.measures import DiscreteMeasure, moment_vector
from teamsolve.cutting_plane import (MaxIterationsExceededError,
                                     UnboundedRelaxationError, _assemble_lp,
                                     _CutStore, default_initial_cuts, run,
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
    assert res.duals.objective(model) <= res.alpha_ub + 1e-9
    assert np.abs(res.solution.w.sum(axis=0)).max() < 1e-9
    assert abs(res.solution.objective(gbar) - res.alpha_lb) < 1e-9


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


def test_unbounded_initial_relaxation():
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
    with pytest.raises(UnboundedRelaxationError):
        run(model, gbar, [X, X], [bx, bx], Z, bz, oracle, eps_lsip=1e-6,
            initial_cuts=K0)


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
    assert lines[0] == ("r,lp_value,gap,cuts_added,lp_rows,"
                        "simplex_iterations,lp_time,oracle_time")
    assert len(lines) == 2


def _assert_same_lp(p, ref):
    assert np.array_equal(p.c, ref.c) and np.array_equal(p.b_ub, ref.b_ub)
    for A, B in ((p.A_ub, ref.A_ub), (p.A_eq, ref.A_eq)):
        assert A.shape == B.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(B, part)), part


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_lp_matches_per_nonzero_assembly(name):
    # instance 0's vertex-product cuts, then one round of oracle cuts
    inst = workloads.build(name, 0)
    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures, inst.x_bases)]
    k = inst.z_basis.m
    store = _CutStore(inst.model, inst.x_bases, inst.z_basis)
    for i, (X, Z) in enumerate(default_initial_cuts(inst.x_spaces,
                                                    inst.z_space)):
        store.add(i, X, Z)
    problem, offsets, m = _assemble_lp(store, gbar, k)
    _assert_same_lp(problem, assemble_lp_loop(store, gbar, k))
    sol = linprog.solve(problem)
    for i in range(inst.N):
        y = sol.x[offsets[i] + 1:offsets[i] + 1 + m[i]]
        res = inst.oracle(i, y, sol.x[offsets[i] + 1 + m[i]:offsets[i + 1]])
        store.add(i, np.vstack([res.x] + [p[0] for p in res.pool]),
                  np.vstack([res.z] + [p[1] for p in res.pool]))
    assert sum(store.counts()) > problem.A_ub.shape[0]
    _assert_same_lp(_assemble_lp(store, gbar, k)[0],
                    assemble_lp_loop(store, gbar, k))


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
        assert batched.counts()[i] == len(single.c[i]) < 40
        for part in ("X", "Z", "G", "H", "c"):
            assert np.array_equal(getattr(batched, part)[i],
                                  np.asarray(getattr(single, part)[i])), part
