"""The exact oracle through ``make_oracle``: its values against dense
references, the candidate generator each cost family and pair of spaces
takes, and the cut pool it offers; the coupled terms' closed-form cell-pair
minima against each cell pair's LP, solved by vertex enumeration, and their
flat vertex table against the former dense tensors; the static geometry
shared between oracles by content, and the separable terms' one block
against the former loop over terms; and the one ranking rule, ties in the
order of generation."""

import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (ZeroTauError, axis_arrangement_candidates,
                     coupled_term_values_dense,
                     coupled_term_values_vertices, hat_basis_excluding,
                     oracle_lipschitz_grid, pair_vertices_dense,
                     quadratic_candidates_d2, rebased_y,
                     term_candidates_per_term)
from teamsolve import cutting_plane, oracle as oracle_module
from teamsolve.equilibrium import z_opt
from teamsolve.geometry import (FiniteSpace, GeometryError, HatBasis,
                                build_box_partition, point_keys)
from teamsolve.measures import DiscreteMeasure, moment_vector
from teamsolve.oracle import make_oracle
from teamsolve.problems import (CostModel, CostModelError, DirectL1Term,
                                ScalarRampTerm, SeparableL1Term,
                                barycenter_cost, business_location_cost,
                                capped_affine_cost, tabulated_cpwa_cost)

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
                  - bx.eval(r.x) @ y - bx.eval(r.z) @ w)
    assert abs(recomputed - r.beta_tilde) < 1e-10


def test_quadratic_oracle_unit_square():
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = barycenter_cost([1.0], [sq], sq, None)
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
    m = barycenter_cost([0.4, 0.6], [sq, sq], sq, None)
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


def test_quadratic_oracle_reaches_the_two_faces_of_a_cube():
    # the minimizer (0.7, 0.4, 1.0) is the projection of x onto the cube's
    # top side, in the relative interior of a triangle of the Kuhn grid; no
    # vertex, edge or tetrahedron holds it in its relative interior
    cube = build_box_partition([(0, 1)] * 3, (2, 2, 2))
    xs = FiniteSpace([[0.7, 0.4, 2.0]])
    m = barycenter_cost([0.5, 0.5], [xs, xs], cube, None)
    r = _oracle(m, xs, HatBasis(xs), cube, HatBasis(cube))(
        0, np.zeros(0), np.zeros(cube.n_vertices - 1))
    assert abs(r.beta_lower + 1.825) < 1e-12
    assert abs(r.beta_tilde + 1.825) < 1e-12
    assert np.allclose(r.z, [0.7, 0.4, 1.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), counts=st.lists(st.integers(1, 3), min_size=3,
                                            max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadratic_oracle_projects_onto_the_box(d, counts, seed):
    # with y = w = 0 the objective is lam (||z - x||^2 - ||x||^2), least at
    # the projection p = clip(x, box): lam (||p||^2 - 2 <x, p>).  Each
    # coordinate of x lies outside the box with probability 1/2, so in 3-D
    # p often lies inside a side, in the relative interior of a 2-face.
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, size=d)
    box = np.stack([lo, lo + rng.uniform(0.25, 2.0, size=d)], axis=1)
    x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.uniform(-0.5, 1.5, size=d)
    lam = rng.uniform(0.1, 0.9)
    zs = build_box_partition(box, counts[:d])
    xs = FiniteSpace(x[None])
    m = barycenter_cost([lam, 1.0 - lam], [xs, xs], zs, None)
    r = _oracle(m, xs, HatBasis(xs), zs, HatBasis(zs))(
        0, np.zeros(0), np.zeros(zs.n_vertices - 1))
    p = np.clip(x, box[:, 0], box[:, 1])
    exact = lam * (p @ p - 2.0 * x @ p)
    assert abs(r.beta_lower - exact) <= 1e-12 * max(1.0, abs(exact))
    assert np.allclose(r.z, p, atol=1e-9)


def _finite_rows(vals, X, Z):
    ok = np.isfinite(vals)
    return np.hstack([X[ok], Z[ok], vals[ok, None]])


@pytest.mark.parametrize("space", ["line-1", "line-5", "grid-2x2",
                                   "grid-3x2"])
def test_quadratic_faces_match_the_d2_reference(space):
    # every face's critical point against the former vertex / edge / cell
    # blocks, as sets of (x, z, value) rows, and the same least value
    z_space = {"line-1": lambda: build_box_partition([(0, 1)], (1,)),
               "line-5": lambda: build_box_partition([(-1, 2)], (5,)),
               "grid-2x2": lambda: build_box_partition([(0, 1)] * 2, (2, 2)),
               "grid-3x2": lambda: build_box_partition([(-1, 1), (0, 2)],
                                                       (3, 2))}[space]()
    rng = np.random.default_rng(21)
    d = z_space.dim
    for _ in range(12):
        x_space = FiniteSpace(rng.uniform(-1.5, 2.5, size=(5, d)))
        lam = rng.uniform(0.1, 1.0)
        Yv = rng.normal(scale=0.5, size=x_space.n_vertices)
        Wv = rng.normal(scale=0.5, size=z_space.n_vertices)
        model = barycenter_cost([lam, 1.0 - lam], [x_space] * 2, z_space, None)
        new = oracle_module._face_candidates(model, 0, x_space, z_space, Yv,
                                             Wv)
        ref = quadratic_candidates_d2(lam, x_space, z_space, Yv, Wv)
        A, B = _finite_rows(*new), _finite_rows(*ref)
        gap = np.abs(A[:, None, :] - B[None, :, :]).max(-1)
        assert gap.min(1).max() <= 1e-12 and gap.min(0).max() <= 1e-12
        assert abs(new[0].min() - ref[0].min()) <= 1e-12


def test_three_dimensional_barycenter_bound_holds():
    # alpha_lb stays below 0.0564579, the final LP value when the oracle
    # offers every face: an upper bound on the LSIP optimum.  An oracle
    # that skips the cube's 2-faces reports 0.0588048.
    rng = np.random.default_rng(0)
    x_spaces, measures = [], []
    for _ in range(3):
        atoms = rng.uniform(0.0, 1.0, size=(6, 3))
        w = rng.uniform(0.5, 1.5, size=6)
        x_spaces.append(FiniteSpace(atoms))
        measures.append(DiscreteMeasure(atoms, w / w.sum()))
    x_bases = [HatBasis(sp) for sp in x_spaces]
    cube = build_box_partition([(0, 1)] * 3, (2, 2, 2))
    bz = HatBasis(cube)
    m = barycenter_cost([0.5, 0.3, 0.2], x_spaces, cube, measures)
    oracle = make_oracle(m, x_spaces, x_bases, cube, bz)
    gbar = [moment_vector(mu, b) for mu, b in zip(measures, x_bases)]
    res = cutting_plane.run(m, gbar, x_spaces, x_bases, cube, bz, oracle,
                            1e-6)
    assert res.gap <= 1e-6
    assert res.alpha_lb + m.shift <= 0.0564579


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


GENERATORS = ("_vertex_candidates", "_face_candidates", "_term_candidates")


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
        "quadratic-finite-quality": (barycenter_cost([1.0], [sq], pts2,
                                                     None),
                                     sq, pts2, "_vertex_candidates", 1e-12),
        "quadratic-faces": (barycenter_cost([1.0], [sq], sq, None), sq, sq,
                            "_face_candidates", 0.1),
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
        build_box_partition([(0.0, 1e-10), (0.0, 1e-10)], (1, 1))


class _AnchoredL1(CostModel):
    """||x - anchor||_1, one separable term with an anchor on the type
    side, constant in z; Lipschitz sqrt(d) in x."""

    N = 1

    def __init__(self, anchor):
        self.anchor = anchor
        self.L1 = np.array([np.sqrt(len(anchor))])
        self.L2 = np.zeros(1)

    def eval(self, i, X, Z):
        return np.abs(np.atleast_2d(X) - self.anchor).sum(1)

    def oracle_terms(self, i):
        return [SeparableL1Term(self.anchor, 1.0, None, 0.0, 0.0)]


def test_an_anchored_side_in_three_dimensions_is_exact():
    # ||x - a||_1 - 2 x_3 on the unit cube is least, -1.5, at (0.3, 0.6, 1),
    # where two anchor planes cross a 2-face.  The vertices, the anchor
    # planes' edge crossings and the three planes' crossing reach -1.2 at
    # best; the side's candidates are every vertex of the cube cut by the
    # anchor planes, the 2-face crossings included
    cube = build_box_partition([(0, 1)] * 3, (1, 1, 1))
    line = build_box_partition([(0, 1)], (1,))
    anchor = np.array([0.3, 0.6, 0.5])
    bx, bz = HatBasis(cube), HatBasis(line)
    y = 2.0 * cube.vertices[bx._keep, 2]        # <g(x), y> = 2 x_3
    X = np.random.default_rng(7).uniform(size=(50, 3))
    assert np.allclose(bx.eval_many(X) @ y, 2.0 * X[:, 2])
    model = _AnchoredL1(anchor)
    assert model.eval(0, [[0.3, 0.6, 1.0]], [[0.0]])[0] - 2.0 == -1.5
    r = _oracle(model, cube, bx, line, bz)(0, y, np.zeros(bz.m))
    assert np.allclose(r.x, [0.3, 0.6, 1.0], rtol=0.0, atol=1e-12)
    assert abs(r.beta_lower + 1.5) <= 1e-12
    assert abs(r.beta_tilde + 1.5) <= 1e-12
    cand = oracle_module._side_candidates(cube, bx, anchor)[0]
    assert len(cand) == 48
    assert np.abs(cand - [0.3, 0.6, 1.0]).sum(axis=1).min() <= 1e-12


def _kuhn_grid(dim, data):
    """A Kuhn grid of 1, 2 or 3 dimensions, of at most 3, 2 or 1 cells per
    axis, over a box drawn by hypothesis, its sides at most 1.5, 1.5 or
    0.6 long."""
    counts = data.draw(st.lists(st.integers(1, (3, 2, 1)[dim - 1]),
                                min_size=dim, max_size=dim))
    lo = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                            max_size=dim))
    width = data.draw(st.lists(st.floats(0.5, (1.5, 1.5, 0.6)[dim - 1]),
                               min_size=dim, max_size=dim))
    return build_box_partition([(a, a + b) for a, b in zip(lo, width)],
                               counts)


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_a_separable_side_lies_in_the_grid_oracles_bracket(dim, data):
    # a random anchor, inside the box or near it, and random multipliers:
    # the side's least value lies in the covering grid's certified bracket
    # [grid min - tau, grid min].  The grid's points number about tau^-d,
    # so the cube takes a coarser tau
    xs = _kuhn_grid(dim, data)
    zs = build_box_partition([(0, 1)], (1,))
    lo, hi = xs.box.T
    anchor = np.array([data.draw(st.floats(a - 0.25, b + 0.25))
                       for a, b in zip(lo, hi)])
    bx, bz = HatBasis(xs), HatBasis(zs)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    y, w = rng.normal(scale=0.2, size=bx.m), np.zeros(bz.m)
    model = _AnchoredL1(anchor)
    exact = _oracle(model, xs, bx, zs, bz)(0, y, w)
    tau = 0.1 if dim < 3 else 0.3
    grid = oracle_lipschitz_grid(model, 0, xs, bx, zs, bz, y, w, tau=tau)
    assert grid.beta_lower - 1e-12 <= exact.beta_lower
    assert exact.beta_lower <= grid.beta_tilde + 1e-12
    assert abs(exact.beta_tilde - exact.beta_lower) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), data=st.data())
def test_a_side_holds_the_edge_and_crossing_points_in_one_and_two_d(dim,
                                                                    data):
    # in 1-D and 2-D the enumerator's candidates are the former
    # construction's points: the vertices, the anchor lines' edge
    # crossings and their crossing inside the box, in lexicographic order;
    # anchors on grid lines and vertices too
    xs = _kuhn_grid(dim, data)
    lo, hi = xs.box.T
    on_grid = xs.vertices[data.draw(st.integers(0, xs.n_vertices - 1))]
    anchor = np.array([data.draw(st.one_of(
        st.floats(a - 0.25, b + 0.25), st.just(float(v))))
        for a, b, v in zip(lo, hi, on_grid)])
    cand = oracle_module._side_candidates(xs, HatBasis(xs), anchor)[0]
    ref = axis_arrangement_candidates(xs, anchor[None])
    # the same points up to rounding, so that two of them may swap places
    # in the order where a coordinate differs in the last bit
    gap = np.abs(cand[:, None] - ref[None]).max(axis=-1)
    assert cand.shape == ref.shape
    assert gap.min(axis=0).max() <= 1e-12 and gap.min(axis=1).max() <= 1e-12
    assert np.array_equal(np.lexsort(cand.T[::-1]), np.arange(len(cand)))


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
    b0 = hat_basis_excluding(cx, 0)
    b1 = hat_basis_excluding(cx, 2)
    assert (b0.excluded, b1.excluded) == (0, 2)
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
    m = barycenter_cost([1.0], [sq], sq, None)
    y = rng.normal(size=8)
    w = rng.normal(size=8)
    r = _oracle(m, sq, b, sq, b)(0, y, w)
    assert any(np.allclose(px, r.x) and np.allclose(pz, r.z)
               for px, pz in r.pool)
    assert len(r.pool) <= 32
    assert _oracle(m, sq, b, sq, b, pool_cap=0)(0, y, w).pool == []


# ---------------------------------------------------------------------------
# coupled terms: closed-form cell-pair minima against the pair LPs

# unit directions of a scalar ramp: parallel to the grid's axis edges and
# Kuhn diagonals, where kink systems are singular, or any angle
DIRECTIONS = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8),
                     (np.sqrt(0.5), np.sqrt(0.5)),
                     (np.sqrt(0.5), -np.sqrt(0.5))]),
    st.floats(0.0, 2 * np.pi).map(lambda a: (np.cos(a), np.sin(a))))


def _barycentric(P, X):
    """Weights of each row of X on the vertices of its cell, rows of the
    (n, d+1, d) array P (a one-point cell gives weight 1)."""
    if P.shape[1] == 1:
        assert np.array_equal(P[:, 0], X)
        return np.ones((len(X), 1))
    M = np.concatenate([np.ones(P.shape[:2])[:, None], P.transpose(0, 2, 1)],
                       axis=1)
    rhs = np.concatenate([np.ones((len(X), 1)), X], axis=1)
    return np.linalg.solve(M, rhs[..., None])[..., 0]


def _assert_matches_lp(term, xp, xi, zp, zi, Yv, Wv):
    """Per-pair values at most 1e-12 above those of the pair LPs, solved
    by vertex enumeration, and each returned point in its pair of cells,
    attaining its pair's value.

    The enumeration takes a vertex that meets every row to 1e-9 and
    values it at its weights clipped onto the cells, so it may sit above
    the minimum by what that moves; the other side holds to 1e-9 only."""
    v, X, Z = oracle_module._coupled_term_values(term, xp, xi, zp, zi, Yv,
                                                 Wv, {})
    ref = coupled_term_values_vertices(term, xp, xi, zp, zi, Yv, Wv)
    assert (v - ref).max() <= 1e-12
    assert (ref - v).max() <= 1e-9
    a, b = np.divmod(np.arange(v.size), len(zi))
    lx, lz = _barycentric(xp[a], X), _barycentric(zp[b], Z)
    assert lx.min() >= -1e-9 and lz.min() >= -1e-9
    attained = (term.eval(X, Z) - (lx * Yv[xi[a]]).sum(1)
                - (lz * Wv[zi[b]]).sum(1))
    assert np.abs(attained - v.ravel()).max() <= 1e-12


def test_pair_vertices_leave_out_the_parallel_kink_systems():
    # a ramp's two kinks are parallel: of the 29 systems of a (segment,
    # triangle) pair, the 5 that take both are singular on every pair
    term = ScalarRampTerm([0.6, 0.8], 0.1, 1.0)
    xp, xi = oracle_module._cell_vertex_arrays(
        build_box_partition([(0, 1)], (2,)))
    zp, zi = oracle_module._cell_vertex_arrays(
        build_box_partition([(0, 1), (0, 1)], (2, 2)))
    systems = oracle_module._kink_systems(2, 3, 2)
    both = sum(np.all(S == [0, 1], axis=1).sum() for _, _, S, _, _ in systems
               if S.shape[1] == 2)
    assert sum(len(S) for _, _, S, _, _ in systems) == 29 and both == 5
    a, *_, start = oracle_module._pair_vertices(*term.kinks(), xp, zp)
    # every one of the nx * nz pairs has a first row, and its rows are its
    # 2 x 3 vertex pairs and at most the 24 - 6 solutions of the others
    rows = np.diff(start, append=len(a))
    assert len(start) == len(xp) * len(zp) and start[0] == 0
    assert rows.min() >= 6 and rows.max() <= 24


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 3), nz=st.tuples(st.integers(1, 3),
                                          st.integers(1, 3)),
       s=DIRECTIONS, kappa1=st.one_of(st.just(0.0), st.just(0.25),
                                      st.floats(0.0, 0.5)),
       seed=st.integers(0, 2 ** 32 - 1))
# HiGHS, at 1e-10 tolerances, stopped 2.08e-9 above the closed form here
@example(nx=1, nz=(1, 2), s=(1.0, 1e-9), kappa1=0.0, seed=0)
def test_ramp_cell_pair_minima_match_the_lp(nx, nz, s, kappa1, seed):
    rng = np.random.default_rng(seed)
    x_space = build_box_partition([(0, 1)], (nx,))
    z_space = build_box_partition([(0, 1), (0, 1)], nz)
    term = ScalarRampTerm(s, kappa1, rng.uniform(0.1, 2.0))
    xp, xi = oracle_module._cell_vertex_arrays(x_space)
    zp, zi = oracle_module._cell_vertex_arrays(z_space)
    _assert_matches_lp(term, xp, xi, zp, zi,
                       rng.normal(size=x_space.n_vertices),
                       rng.normal(size=z_space.n_vertices))


@settings(max_examples=25, deadline=None)
@given(nx=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       nz=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       shift=st.sampled_from([0.0, 0.5, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_direct_l1_cell_pair_minima_match_the_lp(nx, nz, shift, seed):
    rng = np.random.default_rng(seed)
    x_space = build_box_partition([(-1, 1), (-1, 1)], nx)
    z_space = build_box_partition([(-1 + shift, 1 + shift), (-1, 1)], nz)
    term = DirectL1Term(rng.uniform(0.1, 2.0), 2)
    xp, xi = oracle_module._cell_vertex_arrays(x_space)
    zp, zi = oracle_module._cell_vertex_arrays(z_space)
    _assert_matches_lp(term, xp, xi, zp, zi,
                       rng.normal(size=x_space.n_vertices),
                       rng.normal(size=z_space.n_vertices))


@settings(max_examples=25, deadline=None)
@given(direct=st.booleans(), s=DIRECTIONS, kappa1=st.sampled_from([0.0, 0.2]),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_one_point_quality_cells_match_the_lp(direct, s, kappa1, n, seed):
    # the ``type_minima`` path: each quality point is a one-point cell,
    # some of them on the grid lines where kinks meet cell vertices
    rng = np.random.default_rng(seed)
    if direct:
        x_space = build_box_partition([(0, 1), (0, 1)], (2, 2))
        term = DirectL1Term(rng.uniform(0.1, 2.0), 2)
    else:
        x_space = build_box_partition([(0, 1)], (3,))
        term = ScalarRampTerm(s, kappa1, rng.uniform(0.1, 2.0))
    Z = np.where(rng.random((n, 2)) < 0.5, rng.integers(0, 3, (n, 2)) / 2,
                 rng.uniform(size=(n, 2)))
    xp, xi = oracle_module._cell_vertex_arrays(x_space)
    _assert_matches_lp(term, xp, xi, Z[:, None, :], np.arange(n)[:, None],
                       rng.normal(size=x_space.n_vertices), np.zeros(n))


def _assert_equals_the_dense_tensors(term, xp, xi, zp, zi, Yv, Wv):
    """The flat table holds the dense tensors' vertices bit for bit, in
    their slot order, and a call returns the values and points of the
    dense argmin, the first slot on ties, bit for bit.  Returns how many
    pairs attain their least value at vertices of distinct points."""
    cache = {}
    got = oracle_module._coupled_term_values(term, xp, xi, zp, zi, Yv, Wv,
                                             cache)
    (table,) = cache.values()
    lx, lz, X, Z, T = pair_vertices_dense(term, xp, zp)
    ok = np.isfinite(T)
    a, b, _ = np.nonzero(ok)
    counts = ok.sum(axis=2).ravel()
    for have, want in zip(table, (xi[a], lx[ok], zi[b], lz[ok], T[ok],
                                  np.cumsum(counts) - counts), strict=True):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()
    want = coupled_term_values_dense(term, xp, xi, zp, zi, Yv, Wv)
    for g, w in zip(got, want[:3], strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    picked = [P.reshape(len(xp), len(zp), 1, -1) for P in got[1:]]
    distinct = (X != picked[0]).any(-1) | (Z != picked[1]).any(-1)
    return int(((want[3] == got[0][..., None]) & distinct).any(-1).sum())


@settings(max_examples=60, deadline=None)
@given(direct=st.booleans(), nx=st.integers(1, 4), nz=st.integers(1, 2),
       points=st.sampled_from(["", "type", "quality"]), s=DIRECTIONS,
       kappa1=st.sampled_from([0.0, 0.2]), zero=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# 32 type cells against 2 quality cells: a per-row sum of another order
# than the einsum's differs from it in the last bit here
@example(direct=True, nx=4, nz=1, points="", s=(1.0, 0.0), kappa1=0.0,
         zero=False, seed=1)
def test_vertex_table_matches_the_dense_tensors(direct, nx, nz, points, s,
                                                kappa1, zero, seed):
    # direct-L1 terms on 2-D cells, ramps on 1-D type cells, and one-point
    # cells on either side; zero multipliers tie vertices at distinct points
    rng = np.random.default_rng(seed)
    if direct:
        x_space = build_box_partition([(0, 1), (0, 1)], (nx, nx))
        term = DirectL1Term(rng.uniform(0.1, 2.0), 2)
    else:
        x_space = build_box_partition([(0, 1)], (nx,))
        term = ScalarRampTerm(s, kappa1, rng.uniform(0.1, 2.0))
    if points == "type":
        x_space = FiniteSpace(x_space.vertices)
    xp, xi = oracle_module._cell_vertex_arrays(x_space)
    if points == "quality":
        Z = np.where(rng.random((5, 2)) < 0.5,
                     rng.integers(0, 3, (5, 2)) / 2, rng.uniform(size=(5, 2)))
        zp, zi = Z[:, None, :], np.arange(5)[:, None]
    else:
        zp, zi = oracle_module._cell_vertex_arrays(
            build_box_partition([(0, 1), (0, 1)], (nz, nz)))
    Yv, Wv = (np.zeros(n) if zero else rng.normal(size=n)
              for n in (xi.max() + 1, zi.max() + 1))
    ties = _assert_equals_the_dense_tensors(term, xp, xi, zp, zi, Yv, Wv)
    if zero and direct and not points:
        # every type cell overlaps some quality cell, where |x - z|_1 = 0
        # at more than one vertex
        assert ties > 0


@settings(max_examples=10, deadline=None)
@given(direct=st.booleans(), s=DIRECTIONS, seed=st.integers(0, 2 ** 32 - 1))
def test_coupled_oracle_against_a_certified_grid(direct, s, seed):
    # the whole oracle inside the bracket of the exhaustive Lipschitz grid,
    # for random multipliers; the grid's size grows with the multipliers'
    # gradients, so the 2-D type space takes smaller ones
    rng = np.random.default_rng(seed)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    bsq = HatBasis(sq)
    if direct:
        m = business_location_cost(rng.uniform(size=(2, 2)), n_categories=2)
        i, xs, bx, tau, scale = int(rng.integers(0, 2)), sq, bsq, 0.2, 0.1
    else:
        k1 = rng.choice([0.0, rng.uniform(0.02, 0.2)])
        m = capped_affine_cost([s], [k1], [k1 + rng.uniform(0.1, 0.6)])
        xs = build_box_partition([(0, 1)], (3,))
        i, bx, tau, scale = 0, HatBasis(xs), 0.1, 0.3
    y = rng.normal(scale=scale, size=bx.m)
    w = rng.normal(scale=scale, size=bsq.m)
    _assert_grid_agrees(m, i, xs, bx, sq, bsq, y, w, tau)


# ---------------------------------------------------------------------------
# static geometry shared by content; the separable terms in one block

@pytest.fixture
def shared(monkeypatch):
    """An empty shared cache of static geometry for this test alone."""
    monkeypatch.setattr(oracle_module, "_shared", OrderedDict())
    return oracle_module._shared


def _count_builds(monkeypatch):
    """Count the calls of the two builders of static geometry: a side's
    candidate set, and the arrangement vertices, which every side on a
    complex takes too, so that ``_pair_vertices`` counts the side builds
    on the business city's complexes and each coupled term's."""
    builds = {}
    for name in ("_side_candidates", "_pair_vertices"):
        builds[name] = 0

        def spy(*args, _name=name, _f=getattr(oracle_module, name)):
            builds[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle_module, name, spy)
    return builds


def _business(stations=workloads.BUSINESS_STATIONS, counts=(2, 2),
              excluded=None, c_walk=0.15, z_counts=(2, 2)):
    """A business-location model on new spaces and bases of the city, two
    categories: the walking one holds both kinds of terms."""
    city = [(-2, 2), (-2, 2)]
    xs = build_box_partition(city, counts)
    zs = build_box_partition(city, z_counts)
    m = business_location_cost(np.array(stations), c_walk=c_walk,
                               n_categories=2)
    bx = HatBasis(xs) if excluded is None else hat_basis_excluding(xs,
                                                                    excluded)
    return m, xs, bx, zs, HatBasis(zs)


def _results(model, xs, bx, zs, bz):
    """A new oracle's results for six seeded multiplier pairs."""
    oracle = _oracle(model, xs, bx, zs, bz)
    rng = np.random.default_rng(23)
    return [oracle(k % 2, rng.normal(scale=0.3, size=bx.m),
                   rng.normal(scale=0.3, size=bz.m)) for k in range(6)]


def _assert_same(a, b):
    for r, q in zip(a, b, strict=True):
        assert np.array_equal(r.x, q.x) and np.array_equal(r.z, q.z)
        assert r.beta_tilde == q.beta_tilde
        assert r.beta_lower == q.beta_lower
        assert len(r.pool) == len(q.pool)
        for (px, pz), (qx, qz) in zip(r.pool, q.pool):
            assert np.array_equal(px, qx) and np.array_equal(pz, qz)


def test_equal_geometry_shares_the_static_candidates(shared, monkeypatch):
    builds = _count_builds(monkeypatch)
    first = _results(*_business())
    assert builds["_side_candidates"] > 0
    assert builds["_pair_vertices"] > builds["_side_candidates"]
    built = dict(builds)
    # equal content in new objects: the second oracle builds nothing
    second = _results(*_business())
    assert builds == built
    _assert_same(first, second)
    # ``type_minima`` takes the side candidate sets from the shared cache
    m, xs, bx, _, _ = _business()
    oracle_module.type_minima(m, 0, xs, bx, np.ones(bx.m), [[0.5, 0.5]])
    assert builds["_side_candidates"] == built["_side_candidates"]


@pytest.mark.parametrize("change,sides,pairs", [
    ({"stations": [[0.0, 2.0], [0.0, 0.75], [0.5, -0.75], [0.0, -1.5],
                   [-1.5, -1.5]]}, True, False),
    ({"excluded": 4}, True, False),
    ({"counts": (3, 2)}, True, True),
    ({"c_walk": 0.2}, False, True),
])
def test_changed_geometry_gets_its_own_entry(shared, monkeypatch, change,
                                             sides, pairs):
    # a moved anchor, another excluded vertex, another mesh or another
    # kink parameter: its own entries, and the results of an empty cache
    _results(*_business())
    entries = len(shared)
    builds = _count_builds(monkeypatch)
    changed = _results(*_business(**change))
    assert (builds["_side_candidates"] > 0) == sides
    assert (builds["_pair_vertices"] > builds["_side_candidates"]) == pairs
    assert len(shared) > entries
    monkeypatch.setattr(oracle_module, "_shared", OrderedDict())
    _assert_same(changed, _results(*_business(**change)))


def test_another_vertex_numbering_gets_its_own_table(shared):
    # equal cell coordinates whose vertices are numbered otherwise: the
    # table holds global vertex indices, so its key holds them too
    term = DirectL1Term(0.5, 2)
    xp, xi = oracle_module._cell_vertex_arrays(
        build_box_partition([(0, 1), (0, 1)], (2, 2)))
    zp, zi = oracle_module._cell_vertex_arrays(
        build_box_partition([(0, 1), (0, 1)], (1, 2)))
    rng = np.random.default_rng(33)
    Yv, Wv = rng.normal(size=xi.max() + 1), rng.normal(size=zi.max() + 1)
    perm = rng.permutation(len(Yv))
    renamed = np.empty_like(Yv)
    renamed[perm] = Yv
    cache = {}
    first = oracle_module._coupled_term_values(term, xp, xi, zp, zi, Yv, Wv,
                                               cache)
    again = oracle_module._coupled_term_values(term, xp, perm[xi], zp, zi,
                                               renamed, Wv, cache)
    assert len(cache) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def _shared_bytes(shared):
    return sum(a.nbytes for entry in shared.values() for a in entry)


@pytest.mark.parametrize("half", [True, False])
def test_a_small_bound_evicts_without_changing_results(shared, monkeypatch,
                                                       half):
    default = _results(*_business())
    bound = _shared_bytes(shared) // 2 if half else 1
    shared.clear()
    monkeypatch.setattr(oracle_module, "SHARED_CACHE_BYTES", bound)
    builds = _count_builds(monkeypatch)
    _assert_same(default, _results(*_business()))
    # an oracle keeps what it used: one build per entry over its six
    # calls, the walking category's 10 sides and each category's pairs
    assert builds == {"_side_candidates": 10, "_pair_vertices": 12}
    if half:
        assert 0 < _shared_bytes(shared) <= bound
    else:
        assert not shared
    _assert_same(default, _results(*_business()))
    if not half:
        assert builds == {"_side_candidates": 20, "_pair_vertices": 24}


def test_a_fine_table_leaves_the_shared_cache_whole(shared, monkeypatch):
    # on 4 x 4 meshes a category's direct-L1 table is 2.3 MB of vertex
    # rows, where the dense tensors took 5.4 MB: over this bound they
    # flushed the whole cache, and an oracle on equal geometry built all of
    # it again
    bound = 5 << 20
    monkeypatch.setattr(oracle_module, "SHARED_CACHE_BYTES", bound)
    m, xs, bx, zs, bz = _business(counts=(4, 4), z_counts=(4, 4))
    term = next(t for t in m.oracle_terms(0) if isinstance(t, DirectL1Term))
    xp, _ = oracle_module._cell_vertex_arrays(xs)
    zp, _ = oracle_module._cell_vertex_arrays(zs)
    assert sum(a.nbytes for a in pair_vertices_dense(term, xp, zp)) > bound
    builds = _count_builds(monkeypatch)
    first = _results(m, xs, bx, zs, bz)
    built = dict(builds)
    assert built["_pair_vertices"] - built["_side_candidates"] == 2
    second = _results(*_business(counts=(4, 4), z_counts=(4, 4)))
    assert builds == built
    _assert_same(first, second)


def test_an_entry_over_the_bound_stays_out_of_the_shared_cache(shared,
                                                              monkeypatch):
    # a 4 x 4 category's direct-L1 table is 2.2 MiB, the side candidate
    # sets a few kB each: under a 1 MiB bound the tables stay with their
    # oracle, and the side sets stay shared instead of being flushed by them
    bound = 1 << 20
    monkeypatch.setattr(oracle_module, "SHARED_CACHE_BYTES", bound)
    builds = _count_builds(monkeypatch)
    first = _results(*_business(counts=(4, 4), z_counts=(4, 4)))
    built = dict(builds)
    assert built == {"_side_candidates": 10, "_pair_vertices": 12}
    assert 0 < _shared_bytes(shared) <= bound
    assert all(sum(a.nbytes for a in entry) <= bound
               for entry in shared.values())
    second = _results(*_business(counts=(4, 4), z_counts=(4, 4)))
    assert builds == {"_side_candidates": 10, "_pair_vertices": 14}
    _assert_same(first, second)


def _block_cases():
    """Per case: the model, its type spaces and bases, and the quality
    space and basis."""
    inst = workloads.build("business-location", 0)
    rng = np.random.default_rng(31)
    five = FiniteSpace(rng.uniform(-2.0, 2.0, size=(5, 2)))
    city = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    square = build_box_partition([(-2, 2), (-2, 2)], (1, 1))
    # a station at a corner of the one-square mesh has 4 candidates, the
    # others more than 8: the block pads the short sides
    uneven = business_location_cost([[-2.0, -2.0], [0.3, 0.6], [1.0, -1.0]],
                                    n_categories=2)
    return {
        "business-location": (inst.model, inst.x_spaces, inst.x_bases,
                              inst.z_space, inst.z_basis),
        "five-point-types": (
            business_location_cost(workloads.BUSINESS_STATIONS,
                                   n_categories=2),
            [five] * 2, [HatBasis(five)] * 2, city, HatBasis(city)),
        "uneven-sides": (uneven, [square] * 2, [HatBasis(square)] * 2,
                         square, HatBasis(square)),
    }


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_separable_block_matches_the_per_term_loop(case):
    model, xs, bxs, zs, bz = _block_cases()[case]
    rng = np.random.default_rng(32)
    for k in range(4 * model.N):
        i = k % model.N
        y = rng.normal(scale=0.3, size=bxs[i].m)
        w = rng.normal(scale=0.3, size=bz.m)
        block = oracle_module._term_candidates(
            model, i, xs[i], bxs[i], zs, bz, y, w,
            oracle_module._vertex_multipliers(bxs[i], y),
            oracle_module._vertex_multipliers(bz, w), 32, {})
        loop = term_candidates_per_term(model, i, xs[i], bxs[i], zs, bz, y,
                                        w, 32)
        if case == "uneven-sides":
            # the walking category's block pads; the restocking one has no
            # separable term
            assert np.isinf(block[0]).any() == (i == 0)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(block, loop))
        b, pool = oracle_module._best_and_pool(*block, 32)
        c, ref = oracle_module._best_and_pool(*loop, 32)
        assert block[0][b] == loop[0][c]
        assert np.array_equal(block[1][b], loop[1][c])
        assert np.array_equal(block[2][b], loop[2][c])
        assert len(pool) == len(ref)
        for (px, pz), (qx, qz) in zip(pool, ref):
            assert np.array_equal(px, qx) and np.array_equal(pz, qz)


# ---------------------------------------------------------------------------
# one ranking rule: by value, ties in the order of generation

def _first_in_order(vals, k):
    """The indices of the k least values, ties in index order, by Python's
    stable sort rather than numpy's."""
    return sorted(range(len(vals)), key=lambda j: vals[j])[:k]


@settings(max_examples=200, deadline=None)
@given(vals=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, np.inf]),
                               st.floats(-1e3, 1e3), st.just(-np.inf)),
                     max_size=300),
       k=st.integers(1, 310))
def test_lowest_is_the_stable_sorts_first_k(vals, k):
    v = np.array(vals, dtype=float)
    low = oracle_module._lowest(v, k)
    assert np.array_equal(low, np.argsort(v, kind="stable")[:k])
    assert low.tolist() == _first_in_order(vals, k)


def test_a_tie_in_a_side_table_goes_to_the_first_candidate():
    # zero multipliers: the values are the L1 distances to the anchor, 1
    # point at 0, then 4, 8 and 8 at equal distances; the 8 lowest take the
    # first of the ties in the candidates' lexicographic order
    space = build_box_partition([(-2, 2), (-2, 2)], (4, 4))
    basis = HatBasis(space)
    anchor = np.zeros(2)
    cand = axis_arrangement_candidates(space, anchor[None])
    assert np.array_equal(
        cand, oracle_module._side_candidates(space, basis, anchor)[0])
    dist = np.abs(cand - anchor).sum(axis=1)
    assert len(cand) > 16 and len(np.unique(dist)) < len(cand) // 2
    term = SeparableL1Term(anchor, 1.0, None, 0.0, 0.0)
    V, P = oracle_module._side_table("x", space, basis, np.zeros(basis.m),
                                     [term], {})
    first = _first_in_order(dist.tolist(), 8)
    assert np.array_equal(V[0], dist[first])
    assert np.array_equal(P[0], cand[first])


def test_a_tie_in_the_coupled_preselection_goes_to_the_first_pair():
    # zero multipliers: every pair of touching cells has the restocking
    # distance 0, hundreds of ties among 1,024 pairs; the 32 kept are the
    # first of them in pair order
    m, xs, bx, zs, bz = _business(counts=(4, 4), z_counts=(4, 4))
    i = m.N - 1
    assert not any(isinstance(t, SeparableL1Term)
                   for t in m.oracle_terms(i))
    y, w = np.zeros(bx.m), np.zeros(bz.m)
    Yv = oracle_module._vertex_multipliers(bx, y)
    Wv = oracle_module._vertex_multipliers(bz, w)
    xp, xi = oracle_module._cell_vertex_arrays(xs)
    zp, zi = oracle_module._cell_vertex_arrays(zs)
    v, px, pz = oracle_module._coupled_term_values(
        m.oracle_terms(i)[0], xp, xi, zp, zi, Yv, Wv, {})
    v = v.ravel()
    assert (v == 0).sum() > 32
    vals, X, Z = oracle_module._term_candidates(m, i, xs, bx, zs, bz, y, w,
                                                Yv, Wv, 32, {})
    first = _first_in_order(v.tolist(), 32)
    assert np.array_equal(vals, v[first])
    assert np.array_equal(X, px[first]) and np.array_equal(Z, pz[first])
