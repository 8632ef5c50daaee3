import numpy as np
import pytest

from helpers import ZeroTauError, oracle_lipschitz_grid, rebased_y
from teamsolve.geometry import (FiniteSpace, GeometryError, HatBasis,
                                IndicatorBasis, SimplicialComplex,
                                build_box_partition)
from teamsolve.oracle import (WrongCostModelError, make_oracle,
                              oracle_cell_cpwa, oracle_quadratic)
from teamsolve.problems import (barycenter_cost, business_location_cost,
                                capped_affine_cost, tabulated_cpwa_cost)


def _grid_reference(model, i, bx, bz, pairs, n=2001, lo=0.0, hi=1.0):
    """Per multiplier pair (y, w), the least of c_i(x, z) - <g(x), y> -
    <h(z), w> over the n x n grid of [lo, hi]^2.  The cost is evaluated once
    per chunk of the grid and shared by all the pairs."""
    g = np.linspace(lo, hi, n)
    Bx, Bz = bx.eval_many(g[:, None]), bz.eval_many(g[:, None])
    GX = [Bx @ y for y, _ in pairs]
    GZ = [Bz @ w for _, w in pairs]
    best = np.full(len(pairs), np.inf)
    chunk = max(1, 2_000_000 // n)
    Ztile = np.tile(g, chunk)[:, None]
    for s0 in range(0, n, chunk):
        xs = g[s0:s0 + chunk]
        k = len(xs)
        V = model.eval(i, np.repeat(xs, n)[:, None], Ztile[:k * n])
        V = V.reshape(k, n)
        for p in range(len(pairs)):
            vals = V - GX[p][s0:s0 + chunk, None] - GZ[p][None, :]
            best[p] = min(best[p], float(vals.min()))
    return best


def test_abs_cost_zero_multipliers():
    cx = build_box_partition([(0, 1)], (1,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.0], [np.inf])
    r = oracle_cell_cpwa(m, 0, cx, bx, cx, bx, np.zeros(1), np.zeros(1))
    assert abs(r.beta_tilde) < 1e-12
    assert r.beta_lower == r.beta_tilde
    assert abs(r.x[0] - r.z[0]) < 1e-12


def test_hat_weight_maximized():
    cx = build_box_partition([(0, 1)], (1,))
    bx = HatBasis(cx)
    m = tabulated_cpwa_cost([cx], cx, [np.zeros((2, 2))])
    r = oracle_cell_cpwa(m, 0, cx, bx, cx, bx, np.array([10.0]), np.zeros(1))
    assert abs(r.beta_tilde + 10.0) < 1e-12
    assert abs(r.x[0] - 1.0) < 1e-12


def test_cell_oracle_vs_grid_search():
    rng = np.random.default_rng(3)
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.1], [0.6])
    # the oracle draws no random numbers, so drawing the pairs first keeps
    # them as they were drawn one per check
    pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(14)]
    refs = _grid_reference(m, 0, bx, bx, pairs, n=10001)
    for (y, w), ref in zip(pairs, refs):
        r = oracle_cell_cpwa(m, 0, cx, bx, cx, bx, y, w)
        assert abs(r.beta_tilde - ref) < 1e-3
        assert r.beta_tilde <= ref + 1e-12


def test_oracle_result_consistency():
    rng = np.random.default_rng(4)
    cx = build_box_partition([(0, 1)], (3,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.05], [0.7])
    y = rng.normal(size=3)
    w = rng.normal(size=3)
    r = oracle_cell_cpwa(m, 0, cx, bx, cx, bx, y, w)
    recomputed = (m.eval(0, r.x[None], r.z[None])[0]
                  - r.g_at_x @ y - r.h_at_z @ w)
    assert abs(recomputed - r.beta_tilde) < 1e-10


def test_quadratic_oracle_unit_square():
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([1.0], [sq], sq)
    r = oracle_quadratic(m, 0, sq, b, sq, b, np.zeros(8), np.zeros(8))
    # brute force grid at step 0.01 gives -2 at x = z = (1, 1)
    assert abs(r.beta_tilde + 2.0) < 1e-9
    assert np.allclose(r.x, [1, 1]) and np.allclose(r.z, [1, 1])
    # uniform weight on all h components shifts the optimum by -W
    r2 = oracle_quadratic(m, 0, sq, b, sq, b, np.zeros(8), 0.7 * np.ones(8))
    assert abs(r2.beta_tilde + 2.7) < 1e-9


def test_quadratic_oracle_vs_dense_grid():
    rng = np.random.default_rng(5)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([0.4, 0.6], [sq, sq], sq)
    g = np.linspace(0, 1, 101)
    GZ = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    HZ = b.eval_many(GZ)
    for trial in range(10):
        i = trial % 2
        y = rng.normal(size=8)
        w = rng.normal(size=8)
        r = oracle_quadratic(m, i, sq, b, sq, b, y, w)
        best = np.inf
        for v in sq.vertices:
            vals = m.eval(i, np.broadcast_to(v, GZ.shape), GZ) \
                - (b.eval(v) @ y) - HZ @ w
            best = min(best, vals.min())
        assert r.beta_lower <= best + 1e-10
        assert r.beta_tilde <= best + 1e-10
        assert best <= r.beta_tilde + 2e-3   # grid resolution slack


def test_wrong_model_errors():
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    b = HatBasis(sq)
    ca = capped_affine_cost([[1.0, 0.0]], [0.1], [0.5])
    with pytest.raises(WrongCostModelError):
        oracle_quadratic(ca, 0, sq, b, sq, b, np.zeros(3), np.zeros(3))
    m = barycenter_cost([1.0], [sq], sq)
    with pytest.raises(WrongCostModelError):
        oracle_cell_cpwa(m, 0, sq, b, sq, b, np.zeros(3), np.zeros(3))


def test_degenerate_space_rejected():
    with pytest.raises(GeometryError):
        SimplicialComplex([[0.0, 0.0]], [[0]])


def test_grid_oracle_contract():
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.1], [0.6])
    y = np.array([0.3, -0.2])
    w = np.array([0.1, 0.4])
    exact = oracle_cell_cpwa(m, 0, cx, bx, cx, bx, y, w)
    for tau in (0.1, 0.01):
        r = oracle_lipschitz_grid(m, 0, cx, bx, cx, bx, y, w, tau=tau)
        assert r.beta_lower <= exact.beta_tilde + 1e-12
        assert exact.beta_tilde <= r.beta_tilde + 1e-12
        assert r.beta_tilde - r.beta_lower <= tau + 1e-12
    with pytest.raises(ZeroTauError):
        oracle_lipschitz_grid(m, 0, cx, bx, cx, bx, y, w, tau=0.0)


def test_grid_oracle_constant_cost():
    cx = build_box_partition([(0, 1)], (1,))
    bx = HatBasis(cx)
    m = tabulated_cpwa_cost([cx], cx, [np.zeros((2, 2))])
    r = oracle_lipschitz_grid(m, 0, cx, bx, cx, bx, np.zeros(1), np.zeros(1),
                              tau=0.25)
    assert r.beta_tilde == 0.0
    assert abs(r.beta_lower + 0.25) < 1e-12


def _assert_grid_agrees(m, i, xs, bx, zs, bz, y, w, tau):
    r_exact = oracle_cell_cpwa(m, i, xs, bx, zs, bz, y, w)
    r_grid = oracle_lipschitz_grid(m, i, xs, bx, zs, bz, y, w, tau=tau)
    assert r_grid.beta_tilde >= r_exact.beta_tilde - 1e-10
    assert r_grid.beta_tilde <= r_exact.beta_tilde + tau + 1e-10


def test_cross_oracle_agreement_random_instances():
    rng = np.random.default_rng(11)
    cx = build_box_partition([(0, 1)], (3,))
    bx = HatBasis(cx)
    for _ in range(20):
        k1 = rng.uniform(0.02, 0.2)
        k2 = k1 + rng.uniform(0.1, 0.6)
        m = capped_affine_cost([[1.0]], [k1], [k2])
        y = rng.normal(scale=0.5, size=3)
        w = rng.normal(scale=0.5, size=3)
        _assert_grid_agrees(m, 0, cx, bx, cx, bx, y, w, tau=0.02)
    # coupled terms in two dimensions: scalar ramps onto a 2-D quality grid
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bsq = HatBasis(sq)
    for _ in range(4):
        angle = rng.uniform(0.0, np.pi / 2)
        k1 = rng.uniform(0.02, 0.2)
        k2 = k1 + rng.uniform(0.1, 0.6)
        m = capped_affine_cost([[np.cos(angle), np.sin(angle)]], [k1], [k2])
        y = rng.normal(scale=0.5, size=bx.m)
        w = rng.normal(scale=0.5, size=bsq.m)
        _assert_grid_agrees(m, 0, cx, bx, sq, bsq, y, w, tau=0.1)
    # direct city-block distance on 2x2 Kuhn grids; the last category's
    # cost is that coupled term alone
    m = business_location_cost([[0.25, 0.75], [0.75, 0.25]], n_categories=2)
    for i in (0, 1):
        y = rng.normal(scale=0.1, size=bsq.m)
        w = rng.normal(scale=0.1, size=bsq.m)
        _assert_grid_agrees(m, i, sq, bsq, sq, bsq, y, w, tau=0.2)


def test_bracketing_invariant_business():
    rng = np.random.default_rng(12)
    xsq = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    zsq = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    bx, bz = HatBasis(xsq), HatBasis(zsq)
    stations = np.array([[0.0, 1.5], [0.0, 0.0], [0.0, -1.5],
                         [1.0, 0.0], [-1.0, 0.0]])
    m = business_location_cost(stations, n_categories=2)
    g = np.linspace(-2, 2, 41)
    GZ = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    HXv = bx.eval_many(GZ)
    HZv = bz.eval_many(GZ)
    for trial in range(6):
        y = rng.normal(scale=0.3, size=bx.m)
        w = rng.normal(scale=0.3, size=bz.m)
        i = int(rng.integers(0, 2))
        r = oracle_cell_cpwa(m, i, xsq, bx, zsq, bz, y, w)
        # dense validation grid never undercuts the certified bound
        sub = GZ[:: 7]
        gx = HXv[::7] @ y
        best = np.inf
        for q, xp in enumerate(sub):
            vals = m.eval(i, np.broadcast_to(xp, GZ.shape), GZ) \
                - gx[q] - HZv @ w
            best = min(best, float(vals.min()))
        assert r.beta_lower <= best + 1e-10
        assert r.beta_tilde <= best + 1e-9


def test_affine_rebasing_invariance():
    # swapping the excluded vertex is an affine re-basing; with the matching
    # multiplier transformation the oracle value shifts by exactly the
    # transported constant
    rng = np.random.default_rng(13)
    cx = build_box_partition([(0, 1)], (3,))
    b0 = HatBasis(cx, excluded_vertex=0)
    b1 = HatBasis(cx, excluded_vertex=2)
    zc = build_box_partition([(0, 1)], (2,))
    bz = HatBasis(zc)
    m = capped_affine_cost([[1.0]], [0.1], [0.6])
    for _ in range(5):
        y = rng.normal(size=b0.m)
        w = rng.normal(size=bz.m)
        yp, const = rebased_y(b0, b1, y)
        # <g'(x), y'> = <g(x), y> - const pointwise, so the minimum shifts
        # by +const; undoing the shift must recover the original value
        r0 = oracle_cell_cpwa(m, 0, cx, b0, zc, bz, y, w)
        r1 = oracle_cell_cpwa(m, 0, cx, b1, zc, bz, yp, w)
        assert abs((r1.beta_tilde - const) - r0.beta_tilde) < 1e-8


def test_pool_contains_optimum():
    rng = np.random.default_rng(14)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([1.0], [sq], sq)
    y = rng.normal(size=8)
    w = rng.normal(size=8)
    r = oracle_quadratic(m, 0, sq, b, sq, b, y, w)
    assert any(np.allclose(px, r.x) and np.allclose(pz, r.z)
               for px, pz in r.pool)
    assert len(r.pool) <= 32
