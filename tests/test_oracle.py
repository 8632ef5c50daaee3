"""The exact oracle through ``make_oracle``: its values against dense
references, the candidate generator each cost family and pair of spaces
takes, and the cut pool it offers."""

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import ZeroTauError, oracle_lipschitz_grid, rebased_y
from teamsolve import cutting_plane, oracle as oracle_module
from teamsolve.equilibrium import z_opt
from teamsolve.geometry import (FiniteSpace, GeometryError, HatBasis,
                                SimplicialComplex, build_box_partition,
                                point_keys)
from teamsolve.measures import moment_vector
from teamsolve.oracle import make_oracle
from teamsolve.problems import (CostModel, CostModelError, barycenter_cost,
                                business_location_cost, capped_affine_cost,
                                tabulated_cpwa_cost)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _oracle(model, x_space, x_basis, z_space, z_basis, pool_cap=32):
    """``make_oracle`` with every category on the same type space."""
    return make_oracle(model, [x_space] * model.N, [x_basis] * model.N,
                       z_space, z_basis, pool_cap=pool_cap)


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
    r = _oracle(m, cx, bx, cx, bx)(0, np.zeros(1), np.zeros(1))
    assert abs(r.beta_tilde) < 1e-12
    assert r.beta_lower == r.beta_tilde
    assert abs(r.x[0] - r.z[0]) < 1e-12


def test_hat_weight_maximized():
    cx = build_box_partition([(0, 1)], (1,))
    bx = HatBasis(cx)
    m = tabulated_cpwa_cost([cx], cx, [np.zeros((2, 2))])
    r = _oracle(m, cx, bx, cx, bx)(0, np.array([10.0]), np.zeros(1))
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
        r = _oracle(m, cx, bx, cx, bx)(0, y, w)
        assert abs(r.beta_tilde - ref) < 1e-3
        assert r.beta_tilde <= ref + 1e-12


def test_oracle_result_consistency():
    rng = np.random.default_rng(4)
    cx = build_box_partition([(0, 1)], (3,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.05], [0.7])
    y = rng.normal(size=3)
    w = rng.normal(size=3)
    r = _oracle(m, cx, bx, cx, bx)(0, y, w)
    recomputed = (m.eval(0, r.x[None], r.z[None])[0]
                  - r.g_at_x @ y - r.h_at_z @ w)
    assert abs(recomputed - r.beta_tilde) < 1e-10


def test_quadratic_oracle_unit_square():
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([1.0], [sq], sq)
    r = _oracle(m, sq, b, sq, b)(0, np.zeros(8), np.zeros(8))
    # brute force grid at step 0.01 gives -2 at x = z = (1, 1)
    assert abs(r.beta_tilde + 2.0) < 1e-9
    assert np.allclose(r.x, [1, 1]) and np.allclose(r.z, [1, 1])
    # uniform weight on all h components shifts the optimum by -W
    r2 = _oracle(m, sq, b, sq, b)(0, np.zeros(8), 0.7 * np.ones(8))
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
        r = _oracle(m, sq, b, sq, b)(i, y, w)
        best = np.inf
        for v in sq.vertices:
            vals = m.eval(i, np.broadcast_to(v, GZ.shape), GZ) \
                - (b.eval(v) @ y) - HZ @ w
            best = min(best, vals.min())
        assert r.beta_lower <= best + 1e-10
        assert r.beta_tilde <= best + 1e-10
        assert best <= r.beta_tilde + 2e-3   # grid resolution slack


class _SquaredGap(CostModel):
    """(x - z)^2 on the line: affine in neither argument, no oracle terms."""

    N = 1

    def eval(self, i, X, Z):
        return ((np.atleast_2d(X) - np.atleast_2d(Z)) ** 2).sum(1)


def test_no_exact_oracle_is_a_typed_error():
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    with pytest.raises(CostModelError, match="_SquaredGap has no exact "
                                             "oracle"):
        _oracle(_SquaredGap(), cx, bx, cx, bx)(0, np.zeros(2), np.zeros(2))
    with pytest.raises(CostModelError, match="no exact oracle"):
        oracle_module.type_minima(_SquaredGap(), 0, cx, bx, np.zeros(2),
                                  [[0.5]])
    with pytest.raises(CostModelError, match="lacks a quality selector"):
        z_opt(_SquaredGap(), [[[0.5]]], cx)
    # finite spaces need no decomposition: their points are the candidates
    pts = FiniteSpace([[0.0], [0.4], [1.0]])
    bp = HatBasis(pts)
    r = _oracle(_SquaredGap(), pts, bp, pts, bp)(0, np.zeros(2), np.zeros(2))
    assert r.beta_tilde == 0.0 and r.x[0] == r.z[0] == 0.0


GENERATORS = ("_vertex_candidates", "_quadratic_candidates",
              "_term_candidates")


def _branch_cases():
    """Per branch: the model, the type and quality spaces, the generator it
    must take and the slack of the dense reference grid, which holds the
    vertices, so the vertex branches must match it exactly."""
    rng = np.random.default_rng(15)
    line = build_box_partition([(0, 1)], (2,))
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    pts1 = FiniteSpace(rng.uniform(size=(7, 1)))
    pts2 = FiniteSpace(rng.uniform(size=(6, 2)))
    return {
        "tabulated": (tabulated_cpwa_cost([line], line,
                                          [rng.normal(size=(3, 3))]),
                      line, line, "_vertex_candidates", 1e-12),
        "finite-finite": (capped_affine_cost([[1.0]], [0.1], [0.6]),
                          pts1, FiniteSpace(rng.uniform(size=(5, 1))),
                          "_vertex_candidates", 1e-12),
        "quadratic-finite-quality": (barycenter_cost([1.0], [sq], pts2), sq,
                                     pts2, "_vertex_candidates", 1e-12),
        "quadratic-faces": (barycenter_cost([1.0], [sq], sq), sq, sq,
                            "_quadratic_candidates", 0.1),
        "terms": (capped_affine_cost([[1.0]], [0.1], [0.6]), line, line,
                  "_term_candidates", 1e-2),
    }


def _dense(space, n):
    """The points of a finite space, else an n-per-axis grid of its box."""
    if isinstance(space, FiniteSpace):
        return space.vertices
    axes = [np.linspace(lo, hi, n) for lo, hi in space.box]
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, space.dim)


@pytest.mark.parametrize("name", sorted(_branch_cases()))
def test_each_branch_is_exact(name, monkeypatch):
    model, xs, zs, generator, slack = _branch_cases()[name]
    taken = []
    for g in GENERATORS:
        def spy(*args, _g=g, _f=getattr(oracle_module, g)):
            taken.append(_g)
            return _f(*args)
        monkeypatch.setattr(oracle_module, g, spy)
    bx, bz = HatBasis(xs), HatBasis(zs)
    n = 401 if xs.dim == 1 else 21
    X, Z = _dense(xs, n), _dense(zs, n)
    GX, HZ = bx.eval_many(X), bz.eval_many(Z)
    C = model.eval_grid(0, X, Z)
    rng = np.random.default_rng(16)
    for _ in range(5):
        y = rng.normal(scale=0.5, size=bx.m)
        w = rng.normal(scale=0.5, size=bz.m)
        r = _oracle(model, xs, bx, zs, bz)(0, y, w)
        ref = float((C - (GX @ y)[:, None] - (HZ @ w)[None, :]).min())
        assert r.beta_lower <= r.beta_tilde <= r.beta_lower + 1e-12
        assert r.beta_tilde <= ref + 1e-10
        assert ref <= r.beta_tilde + slack
        assert np.array_equal(r.pool[0][0], r.x)
        assert np.array_equal(r.pool[0][1], r.z)
        keys = point_keys(np.hstack([np.vstack([p for p, _ in r.pool]),
                                     np.vstack([q for _, q in r.pool])]))
        assert len(set(keys)) == len(keys) <= 32
    assert taken == [generator] * 5


def test_pools_hold_distinct_cuts_in_value_order():
    # the closed-form quadratic faces offer near-coincident candidates: one
    # per face that meets a point, which keys the same
    inst = workloads.build("barycenter-discrete", 1, 2)
    calls = []

    def oracle(i, y, w):
        r = inst.oracle(i, y, w)
        calls.append((i, y, w, r.pool))
        return r

    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures,
                                                  inst.x_bases)]
    cutting_plane.run(inst.model, gbar, inst.x_spaces, inst.x_bases,
                      inst.z_space, inst.z_basis, oracle, inst.eps_lsip)
    assert len(calls) > 30
    for i, y, w, pool in calls:
        X = np.vstack([p for p, _ in pool])
        Z = np.vstack([q for _, q in pool])
        keys = point_keys(np.hstack([X, Z]))
        assert len(set(keys)) == len(keys) <= 32    # the workload's pool_cap
        vals = (inst.model.eval(i, X, Z) - inst.x_bases[i].eval_many(X) @ y
                - inst.z_basis.eval_many(Z) @ w)
        assert np.all(np.diff(vals) >= -1e-12)


def test_degenerate_space_rejected():
    with pytest.raises(GeometryError):
        SimplicialComplex([[0.0, 0.0]], [[0]])


def test_grid_oracle_contract():
    cx = build_box_partition([(0, 1)], (2,))
    bx = HatBasis(cx)
    m = capped_affine_cost([[1.0]], [0.1], [0.6])
    y = np.array([0.3, -0.2])
    w = np.array([0.1, 0.4])
    exact = _oracle(m, cx, bx, cx, bx)(0, y, w)
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
    r_exact = _oracle(m, xs, bx, zs, bz)(i, y, w)
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
        r = _oracle(m, xsq, bx, zsq, bz)(i, y, w)
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
        r0 = _oracle(m, cx, b0, zc, bz)(0, y, w)
        r1 = _oracle(m, cx, b1, zc, bz)(0, yp, w)
        assert abs((r1.beta_tilde - const) - r0.beta_tilde) < 1e-8


def test_pool_contains_optimum():
    rng = np.random.default_rng(14)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([1.0], [sq], sq)
    y = rng.normal(size=8)
    w = rng.normal(size=8)
    r = _oracle(m, sq, b, sq, b)(0, y, w)
    assert any(np.allclose(px, r.x) and np.allclose(pz, r.z)
               for px, pz in r.pool)
    assert len(r.pool) <= 32
    assert _oracle(m, sq, b, sq, b, pool_cap=0)(0, y, w).pool == []
