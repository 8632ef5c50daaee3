import csv
import json
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from helpers import (brute_force_discrete_optimum, exact_tilde_loop,
                     lex_argmin_dense, lex_argmin_loop, own_link_draw,
                     random_discrete_instance, z_opt_chunked, z_opt_dense)
from teamsolve import equilibrium, transport
from teamsolve.geometry import (FiniteSpace, HatBasis, IndicatorBasis,
                                build_box_partition)
from teamsolve.measures import DiscreteMeasure, moment_vector, random_cpwa
from teamsolve.cutting_plane import ParametricSolution, run
from teamsolve.equilibrium import (TIE_TOL, EquilibriumError, _lex_argmin,
                                   _reduce_support, _write_csv, construct,
                                   eps_theo, transfer_eval,
                                   write_coupling_csv, z_opt)
from teamsolve.oracle import make_oracle
from teamsolve.problems import (barycenter_cost, business_location_cost,
                                capped_affine_cost, tabulated_cpwa_cost)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# the Monte Carlo sizes of the cases below that state none: the exact
# bounds of fully discrete data only record them
MC = {"mc_n": 100000, "mc_repetitions": 20}


def _pipeline(model, mu, xs, xb, zs, zb, eps=1e-6, **kw):
    gbar = [moment_vector(mu[i], xb[i]) for i in range(model.N)]
    oracle = make_oracle(model, xs, xb, zs, zb)
    res = run(model, gbar, xs, xb, zs, zb, oracle, eps_lsip=eps)
    rep = construct(res, model, mu, xs, xb, zs, zb, **kw)
    return res, rep


def test_discrete_exactness():
    rng = np.random.default_rng(31)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=2)
    res, rep = _pipeline(model, mu, xs, xb, zs, zb, seed=3, **MC)
    ref = brute_force_discrete_optimum(model, mu, xs, zs)
    assert rep.exact
    assert rep.eps_hat_sub <= 1e-6 + 1e-9
    assert rep.alpha_lb - 1e-9 <= ref <= rep.alpha_hat_ub + 1e-9
    assert rep.alpha_lb - 1e-12 <= rep.alpha_tilde_ub <= rep.alpha_hat_ub + 1e-12
    assert rep.eps_tilde_sub <= rep.eps_hat_sub + 1e-12 <= rep.eps_theo + 1e-12
    assert rep.nu_hat.n_atoms <= rep.sparsity_bound


def test_zero_cost_everything_zero():
    X = FiniteSpace([[0.0], [1.0]])
    bx = IndicatorBasis(X)
    model = tabulated_cpwa_cost([X], X, [np.zeros((2, 2))])
    mu = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])]
    _, rep = _pipeline(model, mu, [X], [bx], X, bx, seed=0, **MC)
    assert abs(rep.alpha_hat_ub) <= 1e-6 + 1e-12
    assert abs(rep.eps_hat_sub) <= 1e-6 + 1e-12


def test_zopt_barycenter_mean():
    Z = build_box_partition([(0, 2), (-1, 1)], (2, 2))
    model = barycenter_cost([0.5, 0.5],
                            [FiniteSpace([[0.0, 0.0]]),
                             FiniteSpace([[2.0, 0.0]])], Z, None)
    zz = z_opt(model, [np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]])], Z)
    assert np.allclose(zz, [[1.0, 0.0]])
    # outside the quality space: projected onto the boundary
    zz2 = z_opt(model, [np.array([[0.0, 3.0]]), np.array([[2.0, 3.0]])], Z)
    assert np.allclose(zz2, [[1.0, 1.0]])


def test_zopt_tie_break_lexicographic():
    X = FiniteSpace([[0.0], [1.0]])
    Zt = build_box_partition([(0, 1)], (2,))
    T = np.abs(np.array([[0.0], [1.0]]) - Zt.vertices[:, 0][None, :])
    mt = tabulated_cpwa_cost([X, X], Zt, [T, T])
    zo = z_opt(mt, [np.array([[0.0]]), np.array([[1.0]])], Zt)
    assert zo[0, 0] == 0.0
    # capped affine with a huge dead zone: zero cost everywhere
    ca = capped_affine_cost([[1.0, 0.0]], [5.0], [6.0])
    Z2 = build_box_partition([(0, 1), (0, 1)], (1, 1))
    zo2 = z_opt(ca, [np.array([[0.5]])], Z2)
    assert np.allclose(zo2, [[0.0, 0.0]])


def test_zopt_capped_affine_vs_grid():
    rng = np.random.default_rng(32)
    N = 3
    s = rng.normal(size=(N, 2))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    ca = capped_affine_cost(s, [0.05, 0.1, 0.15], [0.4, 0.5, 0.6])
    Z = build_box_partition([(0, 1), (0, 1)], (2, 2))
    g = np.linspace(0, 1, 201)
    GZ = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(5):
        xs = [rng.uniform(0, 1, (1, 1)) for _ in range(N)]
        zo = z_opt(ca, xs, Z)
        vals = np.zeros(len(GZ))
        opt = 0.0
        for i in range(N):
            vals += ca.eval(i, np.broadcast_to(xs[i], (len(GZ), 1)), GZ)
            opt += float(ca.eval(i, xs[i], zo)[0])
        assert opt <= vals.min() + 1e-9


def test_zopt_business_vs_grid():
    rng = np.random.default_rng(41)
    stations = np.array([[0.0, 2.0], [0.0, 0.75], [0.0, -0.75],
                         [0.0, -1.5], [-1.5, -1.5]])
    from teamsolve.problems import business_location_cost
    bl = business_location_cost(stations, n_categories=3)
    Z = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    g = np.linspace(-2, 2, 161)
    GZ = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(5):
        xlist = [rng.uniform(-2, 2, (1, 2)) for _ in range(3)]
        zo = z_opt(bl, xlist, Z)
        opt = sum(float(bl.eval(i, xlist[i], zo)[0]) for i in range(3))
        vals = np.zeros(len(GZ))
        for i in range(3):
            vals += bl.eval(i, np.broadcast_to(xlist[i], (len(GZ), 2)), GZ)
        assert opt <= vals.min() + 1e-9


def test_transfer_trivials_and_zero_sum():
    X = FiniteSpace([[0.0], [1.0]])
    Z = FiniteSpace([[0.0], [1.0]])
    T = np.abs(X.vertices[:, 0:1] - Z.vertices[:, 0][None, :])
    model = tabulated_cpwa_cost([X, X], Z, [T, T])
    sol = ParametricSolution(np.zeros(2), [np.zeros(1), np.zeros(1)],
                             np.zeros((2, 1)))
    phi0 = transfer_eval(model, 0, Z.vertices, sol, [X, X],
                         [IndicatorBasis(X), IndicatorBasis(X)])
    assert np.allclose(phi0, 0.0)
    phi1 = transfer_eval(model, 1, Z.vertices, sol, [X, X],
                         [IndicatorBasis(X), IndicatorBasis(X)])
    assert np.abs(phi0 + phi1).max() == 0.0
    sol5 = ParametricSolution(np.array([-5.0, 0.0]),
                              [np.zeros(1), np.zeros(1)], np.zeros((2, 1)))
    m0 = tabulated_cpwa_cost([X, X], Z, [np.zeros((2, 2)), np.zeros((2, 2))])
    assert np.allclose(
        transfer_eval(m0, 0, Z.vertices, sol5, [X, X],
                      [IndicatorBasis(X), IndicatorBasis(X)]), 5.0)
    with pytest.raises(EquilibriumError):
        transfer_eval(model, 5, Z.vertices, sol, [X, X],
                      [IndicatorBasis(X), IndicatorBasis(X)])


def test_transfer_matches_grid_and_lipschitz():
    rng = np.random.default_rng(33)
    cx = build_box_partition([(0, 1)], (3,))
    bx = HatBasis(cx)
    zc = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bz = HatBasis(zc)
    ca = capped_affine_cost([[0.6, 0.8], [1.0, 0.0]], [0.1, 0.05],
                            [0.5, 0.6])
    sol = ParametricSolution(
        rng.normal(size=2), [rng.normal(size=3), rng.normal(size=3)],
        np.zeros((2, bz.m)))
    grid = np.linspace(0, 1, 2001)[:, None]
    Ggrid = bx.eval_many(grid)
    Zs = rng.uniform(0, 1, size=(60, 2))
    phi = transfer_eval(ca, 0, Zs, sol, [cx, cx], [bx, bx])
    # objective modulus: cost slope + hat gradient (3 cells) times |y|
    mod = ca.L1[0] + 3.0 * np.abs(sol.y[0]).max()
    step = float(grid[1, 0] - grid[0, 0])
    for q, z in enumerate(Zs):
        vals = ca.eval(0, grid, np.broadcast_to(z, (len(grid), 2))) \
            - Ggrid @ sol.y[0] - sol.y0[0]
        assert phi[q] <= vals.min() + 1e-10
        assert vals.min() <= phi[q] + mod * step
    # Lipschitz property of the exact infimum
    Z1 = rng.uniform(0, 1, size=(400, 2))
    Z2 = rng.uniform(0, 1, size=(400, 2))
    p1 = transfer_eval(ca, 0, Z1, sol, [cx, cx], [bx, bx])
    p2 = transfer_eval(ca, 0, Z2, sol, [cx, cx], [bx, bx])
    lip = np.abs(p1 - p2) / np.linalg.norm(Z1 - Z2, axis=1)
    assert lip.max() <= ca.L2[0] + 1e-9


def test_eps_theo_examples():
    assert abs(eps_theo(0.01, [1, 1], [1, 1], [0.1, 0.1], 0.1, 0)
               - 0.31) < 1e-12
    assert eps_theo(0.01, [1, 1], [1, 1], [0, 0], 0.0, 1) == 0.01
    assert abs(eps_theo(0.01, [1.0], [1.0], [0.1], 0.7, 0) - 0.11) < 1e-12


def test_reduce_support_preserves_moments():
    rng = np.random.default_rng(34)
    zc = build_box_partition([(0, 1)], (2,))
    bz = HatBasis(zc)
    atoms = rng.uniform(0, 1, (10, 1))
    w = rng.dirichlet(np.ones(10))
    a2, w2 = _reduce_support(atoms, w, bz)
    assert len(w2) <= bz.m + 1
    H1 = w @ bz.eval_many(atoms)
    H2 = w2 @ bz.eval_many(a2)
    assert np.abs(H1 - H2).max() < 1e-8


def test_bound_ordering_cpwa_instance():
    rng = np.random.default_rng(35)
    N = 2
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    zc = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bz = HatBasis(zc)
    s = np.array([[0.6, 0.8], [1.0, 0.0]])
    model = capped_affine_cost(s, [0.05, 0.1], [0.45, 0.5])
    mu = [random_cpwa(cx, rng) for _ in range(N)]
    res, rep = _pipeline(model, mu, [cx, cx], [bx, bx], zc, bz, eps=1e-4,
                         mc_n=4000, mc_repetitions=6, seed=9)
    slack_h = 3 * rep.alpha_hat_se
    slack_t = 3 * rep.alpha_tilde_se
    assert rep.alpha_lb <= rep.alpha_tilde_ub + slack_t
    assert rep.alpha_tilde_ub <= rep.alpha_hat_ub + slack_t + slack_h
    assert rep.eps_tilde_sub <= rep.eps_hat_sub + slack_t + slack_h
    assert rep.eps_hat_sub <= rep.eps_theo + slack_h
    assert not rep.exact


def test_barycenter_shift_consistency():
    # the shifted upper bound estimates a sum of squared W2 distances and
    # must stay nonnegative up to Monte Carlo noise
    rng = np.random.default_rng(40)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bx = HatBasis(sq)
    mus = [random_cpwa(sq, rng) for _ in range(2)]
    model = barycenter_cost([0.5, 0.5], [sq, sq], sq, mus)
    assert model.shift >= 0
    _, rep = _pipeline(model, mus, [sq, sq], [bx, bx], sq, bx, eps=2e-4,
                       mc_n=4000, mc_repetitions=4, seed=12)
    assert rep.alpha_hat_ub + 3 * rep.alpha_hat_se >= 0.0
    assert rep.alpha_tilde_ub + 3 * rep.alpha_tilde_se >= 0.0


def _no_z_opt(*args, **kwargs):
    raise AssertionError("z_opt called")


def test_zopt_tabulated_box_picks_lexicographic_vertex_minimum():
    # reference: the summed vertex costs of each sample, minimized over the
    # quality vertices with the lexicographically smallest tied vertex
    from teamsolve.problems import full_vertex_weights
    rng = np.random.default_rng(71)
    X = build_box_partition([(0, 1)], (2,))
    Z = build_box_partition([(0, 1), (0, 1)], (2, 2))
    # quarter-step tables make ties common at the type vertices
    tables = [np.round(4 * rng.uniform(size=(3, 9))) / 4 for _ in range(2)]
    mt = tabulated_cpwa_cost([X, X], Z, tables)
    xs = [np.concatenate([X.vertices, rng.uniform(0, 1, (20, 1))])
          for _ in range(2)]
    vals = sum(full_vertex_weights(X, xs[i]) @ tables[i] for i in range(2))
    ref = []
    for row in vals:
        tied = np.flatnonzero(row <= row.min() + 1e-12)
        ref.append(min(tied, key=lambda j: tuple(Z.vertices[j])))
    assert np.array_equal(z_opt(mt, xs, Z), Z.vertices[ref])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_lex_argmin_matches_lexsort_loop():
    rng = np.random.default_rng(72)
    n, p = 500, 12
    for d in (1, 2, 3):
        # half-step coordinates give exact duplicates and shared leading
        # coordinates; random signs turn some zeros into -0.0
        pts = rng.integers(-2, 3, size=(n, p, d)) / 2.0
        pts *= rng.choice([-1.0, 1.0], size=pts.shape)
        # values tied within TIE_TOL, some just outside it
        vals = (rng.integers(0, 3, size=(n, p))
                + rng.choice([0.0, 0.4, 0.9, 1.5], size=(n, p)) * TIE_TOL)
        valid = rng.uniform(size=(n, p)) < 0.7
        valid[:, 0] = True
        ref = lex_argmin_loop(pts, vals, valid)
        dense = np.where(valid, vals, np.inf)
        assert np.array_equal(lex_argmin_dense(pts, dense), ref)
        # every candidate, +inf at the invalid ones, p per sample
        starts = np.arange(n) * p
        got = _lex_argmin(pts.reshape(-1, d), dense.ravel(), starts)
        assert np.array_equal(got - starts, ref)
        # the valid candidates only, as many per sample as it has
        flat = np.flatnonzero(valid)
        starts = np.searchsorted(flat // p, np.arange(n))
        got = _lex_argmin(pts.reshape(-1, d)[flat], vals.ravel()[flat],
                          starts)
        assert np.array_equal(flat[got] - np.arange(n) * p, ref)


def test_zopt_matches_dense_reference():
    rng = np.random.default_rng(73)
    N = 5
    k1 = rng.uniform(0.0, 0.15, N)
    k2 = k1 + rng.uniform(0.2, 0.5, N)
    s2 = rng.normal(size=(N, 2))
    s2[0] = [1.0, 0.0]                 # kink lines along the grid lines
    s2 /= np.linalg.norm(s2, axis=1, keepdims=True)
    Z1 = build_box_partition([(0, 1)], (4,))
    Z2 = build_box_partition([(0, 1), (0, 1)], (4, 4))
    stations = np.array([[0.0, 2.0], [0.0, 0.75], [0.0, -0.75],
                         [0.0, -1.5], [-1.5, -1.5]])
    # (model, quality space, type box [lo, hi]^dim, type dim)
    cases = [(capped_affine_cost(rng.choice([-1.0, 1.0], (N, 1)), k1, k2),
              Z1, 0.0, 1.0, 1),
             (capped_affine_cost(s2, k1, k2), Z2, 0.0, 1.0, 1),
             (business_location_cost(stations, n_categories=3),
              build_box_partition([(-2, 2), (-2, 2)], (4, 4)), -2.0, 2.0, 2)]
    for model, Z, lo, hi, dim in cases:
        # quarter-step types put kinks on vertices and make exact ties
        xs = [np.concatenate([
            lo + (hi - lo) * np.round(4 * rng.uniform(size=(150, dim))) / 4,
            rng.uniform(lo, hi, size=(150, dim))]) for _ in range(model.N)]
        got = z_opt_chunked(model, xs, Z, 64)
        assert np.array_equal(_bits(got), _bits(z_opt_dense(model, xs, Z)))


def test_coupling_csv_draws_no_quality_selection(tmp_path, monkeypatch):
    rng = np.random.default_rng(74)
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    zc = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bz = HatBasis(zc)
    model = capped_affine_cost([[0.6, 0.8], [1.0, 0.0]], [0.05, 0.1],
                               [0.45, 0.5])
    mu = [random_cpwa(cx, rng) for _ in range(2)]
    _, rep = _pipeline(model, mu, [cx, cx], [bx, bx], zc, bz, eps=1e-3,
                       mc_n=500, mc_repetitions=2, seed=9)
    path = tmp_path / "coupling_samples_1.csv"
    monkeypatch.setattr(equilibrium, "z_opt", _no_z_opt)
    write_coupling_csv(rep, np.random.default_rng(3), 300, 1, path)
    monkeypatch.undo()
    X, Z = own_link_draw(rep._chain, np.random.default_rng(3), 300, 1)
    assert path.read_text().splitlines()[0] == "x0,z0,z1"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows, np.hstack([X, Z]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_coupling_csv_bytes_are_an_own_link_draw(name, tmp_path):
    # each export draws the root atoms, then its own category's link alone:
    # the links are independent given the root, so no other link is drawn
    inst = workloads.build(name, 3)
    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures,
                                                  inst.x_bases)]
    cp = run(inst.model, gbar, inst.x_spaces, inst.x_bases, inst.z_space,
             inst.z_basis, inst.oracle, inst.eps_lsip)
    rep = construct(cp, inst.model, inst.measures, inst.x_spaces,
                    inst.x_bases, inst.z_space, inst.z_basis, mc_n=200,
                    mc_repetitions=2, seed=inst.seed,
                    semidiscrete_params=inst.semidiscrete_params)
    ref = tmp_path / "full.csv"
    for i in range(inst.N):
        path = tmp_path / ("coupling_samples_%d.csv" % i)
        write_coupling_csv(rep, np.random.default_rng(100 + i), 500, i, path)
        X, Z = own_link_draw(rep._chain, np.random.default_rng(100 + i), 500,
                             i)
        _write_csv(ref, ["x%d" % j for j in range(X.shape[1])]
                   + ["z%d" % j for j in range(Z.shape[1])],
                   np.hstack([X, Z]))
        assert path.read_bytes() == ref.read_bytes(), i


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    vals = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, -2.5])
    table = np.column_stack([vals, vals[::-1], np.arange(len(vals)) * 1e6])
    ref_path = tmp_path / "ref.csv"
    with open(ref_path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["a", "b", "count"])
        for u, v, k in table:
            wr.writerow(["%.17g" % u, "%.17g" % v, int(k)])
    _write_csv(tmp_path / "fmt.csv", ["a", "b", "count"], table,
               "%.17g,%.17g,%d")
    assert (tmp_path / "fmt.csv").read_bytes() == ref_path.read_bytes()
    # the default format writes every value as %.17g
    with open(ref_path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["a", "b"])
        wr.writerows([["%.17g" % v for v in row] for row in table[:, :2]])
    _write_csv(tmp_path / "all.csv", ["a", "b"], table[:, :2])
    assert (tmp_path / "all.csv").read_bytes() == ref_path.read_bytes()


def test_auto_i_hat_solves_each_pair_once(monkeypatch):
    rng = np.random.default_rng(52)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=4)
    res, _ = _pipeline(model, mu, xs, xb, zs, zb, seed=0, **MC)
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return transport.ot_discrete(*args, **kw)

    monkeypatch.setattr(equilibrium, "ot_discrete", counting)
    auto = construct(res, model, mu, xs, xb, zs, zb, seed=0, i_hat="auto",
                     **MC)
    n_auto = len(calls)
    pinned = construct(res, model, mu, xs, xb, zs, zb, seed=0,
                       i_hat=auto.i_hat, **MC)
    assert pinned.alpha_hat_ub == auto.alpha_hat_ub
    # the 6 pairs, less the 3 - i_hat that stand in for links of nu_hat
    # which the pinned run solves
    assert n_auto - (len(calls) - n_auto) == 4 * 3 // 2 - (3 - auto.i_hat)


def test_unreduced_links_reuse_the_solved_couplings(monkeypatch):
    # nu_hat's coupling with itself is the diagonal plan and its couplings
    # with the later categories are the pair loop's, plan for plan what
    # a new solve gives; the earlier ones are solved anew.  Instance 0 of
    # barycenter-discrete picks the middle category of three.
    inst = workloads.build("barycenter-discrete", 0)
    gbar = [moment_vector(m, b) for m, b in zip(inst.measures, inst.x_bases)]
    res = run(inst.model, gbar, inst.x_spaces, inst.x_bases, inst.z_space,
              inst.z_basis, inst.oracle, inst.eps_lsip)
    args = (inst.model, inst.measures, inst.x_spaces, inst.x_bases,
            inst.z_space, inst.z_basis)
    calls = []

    def counting(nu1, nu2):
        calls.append((nu1, nu2))
        return transport.ot_discrete(nu1, nu2)

    monkeypatch.setattr(equilibrium, "ot_discrete", counting)
    for i_hat in ("auto", 0, 1, 2):
        del calls[:]
        rep = construct(res, *args, mc_n=100, mc_repetitions=1, seed=0,
                        i_hat=i_hat)
        assert not rep.support_reduced
        links = [link[0] for link in rep._chain.links]
        nu_hat = links[rep.i_hat].source
        # the 3 agent couplings, and the 3 pairs and a link per earlier
        # category, or, pinned, a link per other category
        if i_hat == "auto":
            assert rep.i_hat == 1 and len(calls) == 3 + 3 + 1
        else:
            assert len(calls) == 3 + 2
        for i, to_nu in enumerate(links):
            assert to_nu.source is nu_hat
            ref = transport.ot_discrete(nu_hat, to_nu.target)[0].plan
            assert np.array_equal(to_nu.plan, ref), (i_hat, i)
        assert np.array_equal(links[rep.i_hat].plan,
                              np.diag(nu_hat.weights))


def test_out_of_range_i_hat_is_a_typed_error():
    rng = np.random.default_rng(53)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res, _ = _pipeline(model, mu, xs, xb, zs, zb, seed=0, **MC)
    # -1 would index the last category, 3 the end of the list
    for i_hat in (-1, 3):
        with pytest.raises(EquilibriumError, match="i_hat %d" % i_hat):
            construct(res, model, mu, xs, xb, zs, zb, seed=0, i_hat=i_hat,
                      **MC)


@pytest.mark.parametrize("i_hat", [1.5, True, "2"])
def test_non_integer_i_hat_is_a_typed_error(i_hat):
    # int() would take each of these: 1.5 and True as category 1, "2" as 2
    rng = np.random.default_rng(53)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res, _ = _pipeline(model, mu, xs, xb, zs, zb, seed=0, **MC)
    with pytest.raises(EquilibriumError, match="i_hat must be"):
        construct(res, model, mu, xs, xb, zs, zb, seed=0, i_hat=i_hat, **MC)


def test_numpy_integer_i_hat_pins_the_category():
    rng = np.random.default_rng(53)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    res, _ = _pipeline(model, mu, xs, xb, zs, zb, seed=0, **MC)
    assert construct(res, model, mu, xs, xb, zs, zb, seed=0,
                     i_hat=np.int64(2), **MC).i_hat == 2


def test_agent_couplings_recorded():
    # one agent of each coupling kind: discrete, 1-D quantile, and cells on
    # a refined grid
    rng = np.random.default_rng(41)
    fin = FiniteSpace([[0.0], [0.5], [1.0]])
    line = build_box_partition([(0, 1)], (2,))
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    xs = [fin, line, sq]
    mus = [DiscreteMeasure(fin.vertices, [0.2, 0.5, 0.3])] \
        + [random_cpwa(sp, rng) for sp in xs[1:]]
    zs = build_box_partition([(0, 1)], (2,))
    tables = [rng.uniform(0, 1, (sp.n_vertices, zs.n_vertices)) for sp in xs]
    model = tabulated_cpwa_cost(xs, zs, tables)
    bs = [HatBasis(sp) for sp in xs]
    _, rep = _pipeline(model, mus, xs, bs, zs, HatBasis(zs), eps=1e-6,
                       mc_n=500, mc_repetitions=2, seed=5)
    doc = json.loads(json.dumps(rep.to_json()))
    recs = doc["agent_couplings"]
    assert [r["kind"] for r in recs] == ["discrete", "quantile", "cells"]
    assert all(set(r) == {"kind", "marginal_residual"} for r in recs)
    assert recs[1]["marginal_residual"] == 0.0
    assert max(r["marginal_residual"] for r in recs) <= 1e-12


def test_chain_kernels_carry_nu_hat_onto_the_agents():
    # exact versions of a Monte Carlo marginal check: every plan of the
    # chain has exact marginals, the links glue, and nu_hat times the
    # product of the row-normalised plans is the agent measure
    rng = np.random.default_rng(36)
    model, mu, xs, xb, zs, zb = random_discrete_instance(rng, N=3)
    _, rep = _pipeline(model, mu, xs, xb, zs, zb, seed=4, **MC)
    chain = rep._chain
    for i, link in enumerate(chain.links):
        to_nu, dual, to_mu = link
        assert to_nu.source is chain.nu_hat
        assert dual.source is to_nu.target and to_mu.source is dual.target
        assert to_mu.target is mu[i]
        for coup in link:
            assert coup.marginal_residual() <= 1e-12
        K = reduce(np.matmul, [c.plan / c.plan.sum(1, keepdims=True)
                               for c in link])
        assert np.abs(chain.nu_hat.weights @ K - mu[i].weights).max() \
            <= 1e-12


def test_batched_tilde_bound_matches_the_loop():
    # the vertex branch (a tabulated cost) and the quadratic branch (a
    # barycenter of atoms on a box grid) of the quality selector
    rng = np.random.default_rng(37)
    cases = [random_discrete_instance(rng, N=3)]
    pts = [rng.uniform(0, 1, (5, 2)) for _ in range(2)]
    xs = [FiniteSpace(p) for p in pts]
    mu = [DiscreteMeasure(p, rng.dirichlet(np.ones(5))) for p in pts]
    zs = build_box_partition([(0, 1), (0, 1)], (3, 3))
    cases.append((barycenter_cost([0.3, 0.7], xs, zs, mu), mu, xs,
                  [IndicatorBasis(sp) for sp in xs], zs, HatBasis(zs)))
    for model, mu, xs, xb, zs, zb in cases:
        _, rep = _pipeline(model, mu, xs, xb, zs, zb, seed=4, **MC)
        assert rep.exact
        ref = exact_tilde_loop(model, rep._chain, zs) + rep.shift
        assert abs(rep.alpha_tilde_ub - ref) <= 1e-12
