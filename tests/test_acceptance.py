"""Acceptance suite: every criterion prints one pass line and asserts its
stated tolerance.  Randomness runs under a fixed seed matrix; no tolerance
is deferred to runtime calibration."""

import time

import numpy as np

from helpers import (assignment_bruteforce_w1, brute_force_discrete_optimum,
                     component_of, enumerate_vertices_max, locate,
                     lp_problem, random_bounded_lp, random_discrete_instance,
                     sample_pairs, w1_quantile_quadrature)
from teamsolve.geometry import (FiniteSpace, HatBasis, IndicatorBasis,
                                build_box_partition)
from teamsolve.linprog import solve
from teamsolve.measures import (CpwaDensityMeasure, DiscreteMeasure,
                                moment_vector, random_cpwa, second_moment)
from teamsolve.cutting_plane import run, sparsity_bound
from teamsolve.equilibrium import construct, transfer_eval
from teamsolve.oracle import make_oracle
from teamsolve.problems import barycenter_cost, capped_affine_cost
from teamsolve.transport import ot_discrete, ot_quantile_1d, ot_semidiscrete
from scipy import sparse as sp

SEEDS = {
    "discrete": 1001,
    "cpwa_ordering": 777,
    "refinement": 4242,
    "transport": 9090,
    "properties": 5150,
}

# gap and sparsity observations collected across every solver run in this
# module; criteria 2 and 4 assert over the whole corpus at the end
GAPS = []
SPARSITY = []


def _record(res, rep=None):
    GAPS.append((res.gap, res.eps_lsip))
    if rep is not None:
        SPARSITY.append((rep.nu_hat.n_atoms, rep.sparsity_bound))


def _pipeline(model, mus, xs, bs, zc, bz, eps, seed, **kw):
    gbar = [moment_vector(mus[i], bs[i]) for i in range(model.N)]
    oracle = make_oracle(model, xs, bs, zc, bz)
    res = run(model, gbar, xs, bs, zc, bz, oracle, eps_lsip=eps)
    rep = construct(res, model, mus, xs, bs, zc, bz, seed=seed, **kw)
    _record(res, rep)
    return res, rep


def test_criterion_1_discrete_exactness():
    rng = np.random.default_rng(SEEDS["discrete"])
    t0 = time.time()
    for q in range(25):
        N = 2 + (q % 2)
        model, mus, xs, bs, zc, bz = random_discrete_instance(rng, N=N)
        res, rep = _pipeline(model, mus, xs, bs, zc, bz, eps=1e-6, seed=q,
                             mc_n=100000, mc_repetitions=20)
        ref = brute_force_discrete_optimum(model, mus, xs, zc)
        assert res.alpha_lb - 1e-9 <= ref <= res.alpha_ub + 1e-9
        assert rep.eps_hat_sub <= 1e-6 + 1e-9
        assert rep.exact
    elapsed = time.time() - t0
    assert elapsed < 5.0, elapsed
    print("\n[PASS] criterion 1: 25 discrete instances bracket the "
          "brute-force optimum, eps_hat_sub <= 1e-6 + 1e-9 (%.2fs)" % elapsed)


def test_criterion_3_bound_ordering_cpwa():
    rng = np.random.default_rng(SEEDS["cpwa_ordering"])
    N = 5
    cx = build_box_partition([(0, 1)], (2,))
    zc = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bz = HatBasis(zc)
    for q in range(10):
        s = rng.normal(size=(N, 2))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        k1 = rng.uniform(0.03, 0.15, N)
        k2 = k1 + rng.uniform(0.2, 0.5, N)
        model = capped_affine_cost(s, k1, k2)
        xs = [cx] * N
        bs = [HatBasis(cx)] * N
        mus = [random_cpwa(cx, rng) for _ in range(N)]
        res, rep = _pipeline(model, mus, xs, bs, zc, bz, eps=1e-4, seed=q,
                             mc_n=2000, mc_repetitions=5)
        slack = 3.0 * (rep.alpha_hat_se + rep.alpha_tilde_se)
        assert rep.alpha_lb <= rep.alpha_tilde_ub + slack
        assert rep.alpha_tilde_ub <= rep.alpha_hat_ub + slack
        assert rep.eps_tilde_sub <= rep.eps_hat_sub + slack
        assert rep.eps_hat_sub <= rep.eps_theo + slack
    print("[PASS] criterion 3: bound and certificate ordering holds on 10 "
          "random CPWA instances with N=5 (3 MC standard errors)")


def test_criterion_5_two_point_barycenter():
    t0 = time.time()
    Xa, Xb = FiniteSpace([[0.0, 0.0]]), FiniteSpace([[2.0, 0.0]])
    ba, bb = IndicatorBasis(Xa), IndicatorBasis(Xb)
    Z = build_box_partition([(0, 2), (-0.5, 0.5)], (8, 4))
    bz = HatBasis(Z)
    mus = [DiscreteMeasure([[0.0, 0.0]], [1.0]),
           DiscreteMeasure([[2.0, 0.0]], [1.0])]
    model = barycenter_cost([0.5, 0.5], [Xa, Xb], Z, mus)
    res, rep = _pipeline(model, mus, [Xa, Xb], [ba, bb], Z, bz, eps=1e-5,
                         seed=5, mc_n=100000, mc_repetitions=20)
    max_diam = float(Z.cell_diameters().max())
    assert rep.alpha_lb - 1e-9 <= 1.0 <= rep.alpha_hat_ub + 1e-9
    assert rep.alpha_hat_ub - rep.alpha_lb <= 2 * max_diam + 1e-5
    dists = np.linalg.norm(rep.nu_hat.atoms - np.array([1.0, 0.0]), axis=1)
    assert dists[rep.nu_hat.weights > 1e-9].max() <= max_diam + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0, elapsed
    print("[PASS] criterion 5: two-point barycenter brackets 1.0 with gap "
          "%.2e <= %.3f; quality atoms within one cell diameter of (1, 0) "
          "(%.1fs)" % (rep.alpha_hat_ub - rep.alpha_lb,
                       2 * max_diam + 1e-5, elapsed))


def test_criterion_6_transport_oracles():
    rng = np.random.default_rng(SEEDS["transport"])
    # discrete vs exhaustive assignment enumeration
    for n in (2, 3, 4, 5):
        a = rng.uniform(0, 1, (n, 2))
        b = rng.uniform(0, 1, (n, 2))
        u = np.ones(n) / n
        _, w1 = ot_discrete(DiscreteMeasure(a, u), DiscreteMeasure(b, u))
        assert abs(w1 - assignment_bruteforce_w1(a, b)) < 1e-9
    # 1d quantile coupling against quadrature at 1e6 samples
    src = DiscreteMeasure([[0.1], [0.45], [0.8]], [0.25, 0.4, 0.35])
    tgt = random_cpwa(build_box_partition([(0, 1)], (3,)), rng)
    coup = ot_quantile_1d(src, tgt)
    s, t = sample_pairs(coup, rng, 10 ** 6)
    emp = float(np.abs(s[:, 0] - t[:, 0]).mean())
    ref = w1_quantile_quadrature(src, tgt)
    assert abs(emp - ref) < 1e-3, (emp, ref)
    # semi-discrete single atom vs known mean distance to the center
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    usq = CpwaDensityMeasure(sq, np.ones(4))
    da = DiscreteMeasure([[0.5, 0.5]], [1.0])
    sd = ot_semidiscrete(da, usq)
    total, m = 0.0, 10 ** 7
    for _ in range(10):
        y = sd.sample_given_source(rng, np.zeros(m // 10, dtype=int))
        total += np.sqrt(((y - 0.5) ** 2).sum(1)).sum()
    est = total / m
    ref_center = 0.3825978582
    assert abs(est - ref_center) / ref_center < 0.01, est
    print("[PASS] criterion 6: discrete OT matches enumeration; quantile "
          "cost %.6f vs quadrature %.6f; semi-discrete mean distance %.6f "
          "within 1%% of %.6f" % (emp, ref, est, ref_center))


def test_criterion_7_refinement_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(SEEDS["refinement"])
    N = 3
    coarse = build_box_partition([(0, 1), (0, 1)], (2, 2))
    base = [random_cpwa(coarse, rng) for _ in range(N)]
    reports = []
    for lv, counts in enumerate([(2, 2), (4, 4), (8, 8)]):
        fine = build_box_partition([(0, 1), (0, 1)], counts)
        xs, bs, mus = [], [], []
        for i in range(N):
            m = CpwaDensityMeasure(fine, base[i].density(fine.vertices))
            # nested meshes: the measure itself is unchanged across levels
            assert abs(second_moment(m) - second_moment(base[i])) < 1e-9
            xs.append(fine)
            bs.append(HatBasis(fine))
            mus.append(m)
        zc = build_box_partition([(0, 1), (0, 1)], counts)
        bz = HatBasis(zc)
        model = barycenter_cost([1.0 / N] * N, xs, zc, mus)
        res, rep = _pipeline(
            model, mus, xs, bs, zc, bz, eps=2e-4, seed=100 + lv,
            mc_n=20000, mc_repetitions=8)
        reports.append(rep)
    for a, b in zip(reports, reports[1:]):
        slack = 3.0 * (a.alpha_hat_se + b.alpha_hat_se)
        assert b.eps_hat_sub <= a.eps_hat_sub + slack
    for rep in reports:
        assert rep.eps_theo >= rep.eps_hat_sub
    elapsed = time.time() - t0
    assert elapsed < 600.0, elapsed
    print("[PASS] criterion 7: eps_hat_sub nonincreasing over nested meshes "
          "(%s), eps_theo dominates at every level (%.0fs)"
          % (" -> ".join("%.4f" % r.eps_hat_sub for r in reports), elapsed))


def test_criterion_8_property_suites():
    rng = np.random.default_rng(SEEDS["properties"])
    # partition of unity and range of the hat basis
    c = build_box_partition([(-2, 2), (-2, 2)], (4, 4))
    b = HatBasis(c)
    X = rng.uniform(-2, 2, size=(1000, 2))
    G = b.eval_many(X)
    assert G.min() >= 0 and G.sum(1).max() <= 1 + 1e-12
    for x in X[:250]:
        s, lam = locate(c, x)
        dropped = sum(l for v, l in zip(c.simplices[s], lam)
                      if v == b.excluded)
        assert abs(b.eval(x).sum() + dropped - 1.0) < 1e-12
    # hat-vertex identity
    for v in range(c.n_vertices):
        g = b.eval(c.vertices[v])
        if v != b.excluded:
            assert g[component_of(b, v)] == 1.0 and abs(g.sum() - 1) < 1e-12
        else:
            assert np.all(g == 0)
    # measure moments vs Monte Carlo at 1e6 samples, 4 standard errors
    m = random_cpwa(c, rng)
    mv = moment_vector(m, b)
    S = m.sample(rng, 10 ** 6)
    GS = b.eval_many(S)
    se = GS.std(axis=0) / np.sqrt(len(S))
    assert np.abs(GS.mean(axis=0) - mv).max() <= (4 * se + 1e-9).max()
    # LP strong duality against dense vertex enumeration
    lp_rng = np.random.default_rng(SEEDS["properties"] + 1)
    for _ in range(40):
        n = int(lp_rng.integers(2, 7))
        cvec, A_ub, b_ub, A_eq, b_eq = random_bounded_lp(lp_rng, n)
        s = solve(lp_problem(cvec, sp.csr_matrix(A_ub), b_ub,
                             sp.csr_matrix(A_eq) if A_eq is not None else None,
                             b_eq))
        ref = enumerate_vertices_max(cvec, A_ub, b_ub, A_eq, b_eq)
        assert abs(s.value - ref) < 1e-8
    # transfer function zero-sum and Lipschitz checks on a solved instance
    N = 3
    cx = build_box_partition([(0, 1)], (2,))
    zc = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bz = HatBasis(zc)
    s_dirs = rng.normal(size=(N, 2))
    s_dirs /= np.linalg.norm(s_dirs, axis=1, keepdims=True)
    model = capped_affine_cost(s_dirs, [0.05] * N, [0.5] * N)
    xs = [cx] * N
    bs = [HatBasis(cx)] * N
    mus = [random_cpwa(cx, rng) for _ in range(N)]
    res, rep = _pipeline(model, mus, xs, bs, zc, bz, eps=1e-4, seed=8,
                         mc_n=1000, mc_repetitions=3)
    Z1 = rng.uniform(0, 1, size=(1000, 2))
    Z2 = rng.uniform(0, 1, size=(1000, 2))
    total = np.zeros(1000)
    for i in range(N):
        p1 = transfer_eval(model, i, Z1, res.solution, xs, bs)
        total += p1
        if i < N - 1:
            p2 = transfer_eval(model, i, Z2, res.solution, xs, bs)
            d = np.linalg.norm(Z1 - Z2, axis=1)
            assert np.all(np.abs(p1 - p2) <= model.L2[i] * d + 1e-9)
    assert np.abs(total).max() <= 1e-9
    print("[PASS] criterion 8: partition of unity, hat-vertex identity, "
          "moment-vs-MC, LP strong duality, transfer Lipschitz and zero-sum "
          "all hold under the fixed seed matrix")


def test_criterion_2_duality_gap_corpus():
    # collected from every cutting-plane run performed by this module
    assert GAPS, "no runs recorded"
    for gap, eps in GAPS:
        assert gap <= eps + 1e-15
    print("[PASS] criterion 2: all %d runs terminated with "
          "alpha_ub - alpha_lb <= eps_lsip" % len(GAPS))


def test_criterion_4_sparsity_corpus():
    assert SPARSITY, "no reports recorded"
    for n_atoms, bound in SPARSITY:
        assert n_atoms <= bound
    assert sparsity_bound([49] * 100, 560) == 611
    print("[PASS] criterion 4: quality support within min_i m_i + k + 2 on "
          "all %d runs; bound formula gives 611 for m=49, k=560"
          % len(SPARSITY))
