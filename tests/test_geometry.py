import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BudgetError, barycentric, cell_inverses,
                     check_face_property, component_of, edge_crossings,
                     facet_boundary, locate, locate_scalar, outside_box_any,
                     plan_partition, search_locate, unique_faces)
from teamsolve import geometry
from teamsolve.geometry import (FiniteSpace, GeometryError, HatBasis,
                                IndicatorBasis, PointOutsideComplexError,
                                build_box_partition, epsilon_bar)
from teamsolve.problems import TabulatedCpwaCost


def test_interval_split():
    c = build_box_partition([(0, 1)], (2,))
    assert np.allclose(sorted(c.vertices.ravel()), [0, 0.5, 1])
    assert sorted(map(sorted, c.simplices.tolist())) == [[0, 1], [1, 2]]


def test_square_counts():
    c = build_box_partition([(0, 1), (0, 1)], (1, 1))
    assert c.n_vertices == 4 and c.n_simplices == 2
    c2 = build_box_partition([(-2, 2), (-2, 2)], (4, 4))
    assert c2.n_vertices == 25 and c2.n_simplices == 32


def test_box_partition_errors():
    with pytest.raises(GeometryError):
        build_box_partition([(0, 1)], (1, 1))
    with pytest.raises(GeometryError):
        build_box_partition([(0, 0)], (1,))
    with pytest.raises(GeometryError):
        build_box_partition([(0, 1)], (0,))


def test_locate():
    c = build_box_partition([(0, 1)], (2,))
    s, lam = locate(c, [0.25])
    assert s == 0 and np.allclose(lam, [0.5, 0.5])
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    s, lam = locate(sq, [0.0, 0.0])
    assert lam.max() == 1.0 and abs(lam.sum() - 1) < 1e-12
    with pytest.raises(PointOutsideComplexError):
        locate(c, [1.5])


def test_locate_reconstruct():
    rng = np.random.default_rng(0)
    c = build_box_partition([(-2, 2), (-1, 3)], (3, 4))
    X = rng.uniform((-2, -1), (2, 3), size=(500, 2))
    for x in X:
        s, lam = locate(c, x)
        rec = lam @ c.vertices[c.simplices[s]]
        assert np.abs(rec - x).max() < 1e-12


def test_hat_vertex_identity():
    c = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(c)
    for v in range(c.n_vertices):
        g = b.eval(c.vertices[v])
        if v == b.excluded:
            assert np.all(g == 0)
        else:
            e = np.zeros(b.m)
            e[component_of(b, v)] = 1.0
            assert np.allclose(g, e)


def test_hat_edge_midpoint_and_centroid():
    c = build_box_partition([(0, 1), (0, 1)], (1, 1))
    b = HatBasis(c)     # excludes (0, 0)
    # midpoint of an edge between two non-excluded vertices
    v1, v2 = 1, 3
    mid = 0.5 * (c.vertices[v1] + c.vertices[v2])
    g = b.eval(mid)
    assert abs(g[component_of(b, v1)] - 0.5) < 1e-12
    assert abs(g[component_of(b, v2)] - 0.5) < 1e-12
    # centroid of a triangle having the excluded vertex as a corner
    tri = next(s for s in c.simplices if b.excluded in s)
    cen = c.vertices[tri].mean(axis=0)
    g = b.eval(cen)
    others = [v for v in tri if v != b.excluded]
    for v in others:
        assert abs(g[component_of(b, v)] - 1.0 / 3.0) < 1e-12
    assert abs(g.sum() - 2.0 / 3.0) < 1e-12


def test_partition_of_unity_and_range():
    rng = np.random.default_rng(42)
    c = build_box_partition([(-2, 2), (-2, 2)], (4, 4))
    b = HatBasis(c)
    X = rng.uniform(-2, 2, size=(1000, 2))
    G = b.eval_many(X)
    assert G.min() >= 0.0
    assert G.sum(axis=1).max() <= 1.0 + 1e-12
    for x in X[:200]:
        s, lam = locate(c, x)
        excluded_w = 0.0
        for v, l in zip(c.simplices[s], lam):
            if v == b.excluded:
                excluded_w = l
        g = b.eval(x)
        assert abs(g.sum() + excluded_w - 1.0) < 1e-12


def test_face_consistency():
    c = build_box_partition([(0, 1), (0, 1)], (2, 2))
    rng = np.random.default_rng(1)
    # points on shared faces: edges common to two simplices
    edges = c.faces[1]
    for e in edges:
        owners = [s for s in range(c.n_simplices)
                  if e[0] in c.simplices[s] and e[1] in c.simplices[s]]
        if len(owners) < 2:
            continue
        t = rng.uniform(0.1, 0.9)
        x = (1 - t) * c.vertices[e[0]] + t * c.vertices[e[1]]
        vals = []
        for s in owners:
            lam = np.clip(barycentric(c, s, x), 0, None)
            full = np.zeros(c.n_vertices)
            full[c.simplices[s]] = lam / lam.sum()
            vals.append(full)
        assert np.abs(vals[0] - vals[1]).max() < 1e-12


def test_face_property_exhaustive():
    c = build_box_partition([(0, 1), (0, 1)], (2, 2))
    assert check_face_property(c)
    # a broken complex: two overlapping triangles that do not share a face
    bad = SimpleNamespace(
        dim=2, n_simplices=2,
        vertices=np.array([[0, 0], [1, 0], [0, 1], [1.0, 0.4]]),
        simplices=np.array([[0, 1, 2], [0, 1, 3]]))
    assert not check_face_property(bad)


def test_degenerate_simplex_rejected():
    # cells flat to within TOL_GEOM, and a side so short that its vertices
    # have the same point key
    with pytest.raises(GeometryError, match="degenerate simplex 0$"):
        build_box_partition([(0, 1e-10), (0, 1e-10)], (1, 1))
    with pytest.raises(GeometryError, match="duplicate vertices"):
        build_box_partition([(0, 1e-13), (0, 1)], (1, 1))


@pytest.mark.parametrize("box,counts", [
    ([(0, 1), (0, 1)], (6, 6)), ([(-2, 2), (0, 1)], (12, 3)),
    ([(0, 1)], (4,)), ([(0, 1), (0, 2), (0, 3)], (3, 2, 2)),
    ([(0, 1)], (8,)), ([(-2, 2), (0, 1)], (4, 4)),
    ([(0, 2), (0, 1), (-1, 1)], (2, 2, 4))])
def test_cell_inverses_are_the_per_simplex_inverses(box, counts):
    # the Kuhn closed forms from the steps against the generic linear
    # algebra of each simplex: its edges' determinant, its vertices' largest
    # pairwise distance and the norms of the gradients that the inverse of
    # [1; P^T] gives, within 8 ulps.  Where every cell width is a power of
    # two the diameters and gradient norms are bit for bit, and the
    # volumes are the widths' exact product over d!, which numpy's
    # determinant, taken through its logarithm, misses by an ulp
    c = build_box_partition(box, counts)
    minv = cell_inverses(c)
    P = c._cell_pts
    volumes = np.abs(np.linalg.det(P[:, 1:] - P[:, :1])) \
        / math.factorial(c.dim)
    diameters = np.sqrt(((P[:, :, None] - P[:, None]) ** 2).sum(-1)) \
        .max(axis=(1, 2))
    F = np.random.default_rng(sum(counts)).normal(size=(5, c.n_vertices))
    grads = np.linalg.norm(np.einsum("kmi,mid->kmd", F[:, c.simplices],
                                     minv[:, :, 1:]), axis=-1).max()
    got = (c.volumes(), c.cell_diameters(),
           TabulatedCpwaCost._grad_bound(None, c, F))
    for have, want in zip(got, (volumes, diameters, grads), strict=True):
        assert np.all(np.abs(have - want) <= 8 * np.spacing(want))
    widths = c._grid[1]
    if np.array_equal(np.frexp(widths)[0], np.full(c.dim, 0.5)):
        assert np.array_equal(got[0], np.full(c.n_simplices, widths.prod())
                              / math.factorial(c.dim))
        assert np.array_equal(got[1], diameters) and got[2] == grads


def test_epsilon_bar():
    c = build_box_partition([(0, 1)], (2,))
    assert abs(epsilon_bar(c) - 1.0) < 1e-12
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    assert abs(epsilon_bar(sq) - 2 * np.sqrt(2)) < 1e-12
    fs = FiniteSpace([[0.0], [1.0]])
    assert epsilon_bar(fs) == 0.0


def test_plan_partition():
    p = plan_partition(9, 0.5, 0.5, 1, [1.0], 1.0, [[(0, 1)]], [(0, 1)])
    assert p.type_counts == [(1,)]
    p2 = plan_partition(3, 0.5, 0.5, 2, [1.0, 1.0], 1.0,
                        [[(0, 1)], [(0, 1)]], [(0, 1)])
    assert p2.type_counts == [(8,), (8,)]
    assert p2.quality_counts == (4,)
    assert p2.varsigma_bar > 0
    with pytest.raises(BudgetError):
        plan_partition(1.0, 0.5, 0.5, 1, [1.0], 1.0, [[(0, 1)]], [(0, 1)])


def test_indicator_basis():
    fs = FiniteSpace([[0.0], [1.0]])
    b = IndicatorBasis(fs)
    assert b.m == 1
    assert np.allclose(b.eval([1.0]), [1.0])
    assert np.allclose(b.eval([0.0]), [0.0])
    with pytest.raises(PointOutsideComplexError):
        b.eval([0.5])


def _location_cases():
    """(space, points): points on shared faces and vertices, inside, and
    within tol outside the boundary, for 1-, 2- and 3-D grids, the first
    four spaces, and finite spaces."""
    rng = np.random.default_rng(3)
    cases = []
    for box, counts in ((((0, 1),), (4,)), (((-2, 2), (-1, 3)), (3, 4)),
                        (((0, 1), (0, 2)), (2, 3)),
                        (((0, 1), (0, 2), (0, 1)), (2, 2, 2))):
        c = build_box_partition(box, counts)
        lo, hi = c.box.T
        edges = c.faces[1]
        t = rng.uniform(size=(len(edges), 1))
        P = np.vstack([
            rng.uniform(lo, hi, size=(300, len(lo))),
            c.vertices,
            c.vertices[edges[:, 0]] * (1 - t) + c.vertices[edges[:, 1]] * t,
            lo - 0.5e-9, hi + 0.5e-9, lo + 0.0, np.where(lo == 0, -0.0, lo)])
        cases.append((c, P))
    pts = rng.uniform(size=(30, 2))
    near = pts[rng.integers(0, 30, size=60)] + rng.uniform(-4e-10, 4e-10, (60, 2))
    cases.append((FiniteSpace(pts), np.vstack([pts, near])))
    cases.append((FiniteSpace([[0.0], [1.0], [0.5]]),
                  np.array([[1.0], [-0.0], [0.5 + 1e-10], [0.0]])))
    return cases


def test_vertex_weights_matches_scalar_location(monkeypatch):
    for space, P in _location_cases():
        V, W = space.vertex_weights(P)
        for q, x in enumerate(P):
            v_ref, w_ref = locate_scalar(space, x)
            assert np.array_equal(V[q], v_ref)
            assert np.array_equal(W[q], w_ref)
        with monkeypatch.context() as mp:       # blocks of one or a few rows
            mp.setattr(geometry, "LOCATE_BLOCK", 40)
            Vb, Wb = space.vertex_weights(P)
        assert np.array_equal(Vb, V) and np.array_equal(Wb, W)
        b = HatBasis(space)
        G = b.eval_many(P)
        for q in range(0, len(P), 7):
            assert np.array_equal(b.eval(P[q]), G[q])
        # beyond tol: both refuse, in a batch as for one point
        far = P[:1] + 3e-9 if isinstance(space, FiniteSpace) \
            else space.vertices.max(axis=0)[None] + 2e-9
        with pytest.raises(PointOutsideComplexError):
            locate_scalar(space, far[0])
        with pytest.raises(PointOutsideComplexError):
            space.vertex_weights(np.vstack([P, far]))
        with pytest.raises(PointOutsideComplexError):
            b.eval(far[0])


def _located(space, x):
    try:
        space.vertex_weights(x[None])
    except PointOutsideComplexError:
        return False
    return True


def test_covers_matches_vertex_weights():
    rng = np.random.default_rng(17)
    # an unequal-width grid: x cells are 4/3 wide, y cells 1
    sq = build_box_partition([(-2, 2), (-1, 3)], (3, 4))
    found = np.array([[2 + 1.2e-9, 0.5, 0.5]])
    assert sq.covers(found[:, :2])[0] and _located(sq, found[0, :2])
    for space, P in _location_cases()[:4]:
        # shift every point by up to 1e-8 per axis, so that points near the
        # boundary fall on both sides of tol
        step = rng.choice([-1.0, 1.0], size=P.shape) \
            * 10.0 ** rng.uniform(-10.5, -8, size=P.shape)
        Q = np.vstack([P, P + step, found[:, :space.dim]])
        mask = space.covers(Q)
        assert mask.dtype == bool and mask.shape == (len(Q),)
        assert mask.tolist() == [_located(space, q) for q in Q]
        assert mask.any() and not mask.all()


@pytest.mark.parametrize("box,counts", [
    ([(0, 1)], (4,)), ([(-1, 2)], (3,)), ([(0, 1), (0, 1)], (3, 3)),
    ([(-2, 2), (-1, 3)], (3, 4)), ([(0, 1), (0, 2)], (2, 3)),
    ([(0, 1)] * 3, (2, 2, 2)), ([(0, 1), (0, 2), (-1, 0.5)], (2, 1, 3))])
def test_kuhn_location_matches_the_search_over_every_simplex(box, counts):
    # the closed-form location against the search over every simplex: the
    # same weight on every vertex for points inside, on shared faces and
    # at the vertices, the Kuhn simplex's vertices having the weights the
    # search finds in its own containing simplex
    c = build_box_partition(box, counts)
    rng = np.random.default_rng(sum(counts))
    lo, hi = c.box.T
    edges = c.faces[1]
    t = rng.uniform(size=(len(edges), 1))
    P = np.vstack([rng.uniform(lo, hi, size=(400, c.dim)), c.vertices,
                   c.vertices[edges[:, 0]] * (1 - t)
                   + c.vertices[edges[:, 1]] * t])
    ref, viol = search_locate(c, P)
    assert viol.max() <= 1e-14
    V, W = c.vertex_weights(P)
    got = np.zeros_like(ref)
    np.put_along_axis(got, V, W, axis=1)
    assert np.abs(got - ref).max() <= 1e-14
    # the same membership for points at least 1e-7 of a cell width outside
    # the box or inside it: within that band, the search's tolerance is
    # barycentric, the box test's is scaled by the cell widths per axis
    span = hi - lo
    Q = rng.uniform(lo - 0.25 * span, hi + 0.25 * span, size=(2000, c.dim))
    gap = np.minimum(np.abs(Q - lo), np.abs(Q - hi)) / c._grid[1]
    Q = Q[(gap > 1e-7).all(axis=1)]
    inside = c.covers(Q)
    assert inside.any() and not inside.all()
    assert np.array_equal(inside, search_locate(c, Q)[1] <= geometry.TOL_GEOM)


def test_edges_match_set_reference():
    for c in (build_box_partition([(0, 1)], (4,)),
              build_box_partition([(-2, 2), (-1, 3)], (3, 4)),
              build_box_partition([(0, 1), (0, 2)], (2, 3)),
              build_box_partition([(0, 1)] * 3, (2, 1, 2))):
        ref = unique_faces(c, 1)
        assert c.faces[1].dtype == ref.dtype
        assert np.array_equal(c.faces[1], ref)
        assert c.faces[1] is c.faces[1]     # built once


def test_faces_match_set_reference():
    for c in (build_box_partition([(0, 1)], (4,)),
              build_box_partition([(0, 1), (0, 2)], (2, 3)),
              build_box_partition([(0, 1)] * 3, (2, 1, 2))):
        assert len(c.faces) == c.dim + 1
        for j, F in enumerate(c.faces):
            ref = unique_faces(c, j)
            assert F.dtype == ref.dtype
            assert np.array_equal(F, ref)
        assert np.array_equal(c.faces[0][:, 0], np.arange(c.n_vertices))
        assert len(c.faces[c.dim]) == c.n_simplices
        assert c.faces is c.faces
    # the Kuhn cube: 27 vertices, 98 edges, 120 triangles, 48 tetrahedra
    cube = build_box_partition([(0, 1)] * 3, (2, 2, 2))
    assert [len(F) for F in cube.faces] == [27, 98, 120, 48]


def test_box_and_refined():
    c = build_box_partition([(-2, 2), (-1, 3)], (3, 4))
    assert np.array_equal(c.box, [[-2, 2], [-1, 3]])
    f = c.refined(2)
    assert np.array_equal(f.box, c.box)
    assert f.n_simplices == 4 * c.n_simplices
    assert np.allclose(f.volumes().sum(), c.volumes().sum())


def test_edge_crossings():
    rng = np.random.default_rng(23)
    cube = build_box_partition([(0, 1)] * 3, (1, 2, 1))
    for c in (build_box_partition([(0, 1), (0, 2)], (2, 3)), cube):
        normals = rng.normal(size=(6, c.dim))
        normals[0] = np.eye(c.dim)[0]           # parallel to some edges
        offsets = rng.uniform(-0.5, 2.0, size=(5, 6))
        offsets[:, 0] = 0.5
        edges = c.faces[1]
        pts, hit = edge_crossings(c, edges, normals, offsets)
        E = len(edges)
        assert pts.shape == (5, 6, E, c.dim) and hit.shape == (5, 6, E)
        a, b = c.vertices[edges[:, 0]], c.vertices[edges[:, 1]]
        for r in range(5):
            for k in range(6):
                on = pts[r, k, hit[r, k]]
                assert np.allclose(on @ normals[k], offsets[r, k])
                assert c.covers(on).all()
                if k:           # random planes miss the vertices
                    side = (a @ normals[k] - offsets[r, k]) \
                        * (b @ normals[k] - offsets[r, k])
                    assert np.array_equal(hit[r, k], side < 0)
        # x = 0.5 crosses the edges with an end on each side or on it,
        # except the edges that lie in it
        crossed = ((a[:, 0] - 0.5) * (b[:, 0] - 0.5) <= 0) \
            & (a[:, 0] != b[:, 0])
        assert np.array_equal(hit[0, 0], crossed)


def _boundary_points(c):
    """The boundary's corners and segment ends as sorted coordinate
    tuples."""
    corners, segments = c.boundary
    P = [tuple(p) for p in c.vertices.tolist()]
    return (sorted(P[v] for v in corners),
            sorted(tuple(sorted((P[a], P[b]))) for a, b in segments))


def test_boundary_corners_and_sides():
    line = build_box_partition([(0, 1)], (4,))
    assert _boundary_points(line) == ([(0.0,), (1.0,)], [])
    assert line.boundary.segments.shape == (0, 2)
    for box, counts in (([(0, 1), (0, 1)], (4, 4)),
                        ([(-2, 2), (-1, 3)], (3, 4))):
        c = build_box_partition(box, counts)
        (x0, x1), (y0, y1) = box
        sw, nw, se, ne = (x0, y0), (x0, y1), (x1, y0), (x1, y1)
        assert _boundary_points(c) == (
            [sw, nw, se, ne], [(sw, nw), (sw, se), (nw, ne), (se, ne)])


@pytest.mark.parametrize("box,counts", [
    ([(0, 1)], (1,)), ([(-1, 2)], (5,)), ([(0, 1), (0, 1)], (1, 1)),
    ([(0, 1), (0, 1)], (4, 4)), ([(-2, 2), (-1, 3)], (3, 4)),
    ([(0, 1), (0, 2)], (1, 3)), ([(0, 3), (0, 1)], (6, 1))])
def test_closed_form_boundary_matches_the_facet_walk(box, counts):
    # the same arrays as the boundary found from the simplices alone: the
    # facets in one simplex each, their straight runs merged
    c = build_box_partition(box, counts)
    for a, b in zip(c.boundary, facet_boundary(c)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_boundary_format():
    for c in (build_box_partition([(0, 1)], (3,)),
              build_box_partition([(-2, 2), (-1, 3)], (3, 4))):
        corners, segments = c.boundary
        assert c.boundary is c.boundary          # built once
        assert corners.dtype == segments.dtype == c.faces[1].dtype
        assert np.array_equal(corners, np.unique(corners))
        # the format of ``faces[1]``: smaller index first, lexicographic
        # order
        assert np.array_equal(segments, np.unique(np.sort(segments, axis=1),
                                                  axis=0))
        assert np.isin(segments, corners).all()
    with pytest.raises(GeometryError):
        build_box_partition([(0, 1)] * 3, (1, 1, 1)).boundary


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), tol=st.sampled_from([1e-9, 1e-6, 1e-2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_outside_box_matches_the_any_reduction(dim, tol, seed):
    # points within 2 tol (scaled per axis) of every face of the box, some
    # exactly on the tolerance band's edge, and rows of 3-D batches
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2, 1, size=dim)
    box = np.stack([lo, lo + rng.uniform(0.1, 3, size=dim)], axis=1)
    c = build_box_partition(box, rng.integers(1, 5, size=dim))
    widths = (box[:, 1] - box[:, 0]) / c._grid[2]
    t = tol * (widths / widths.min())
    side = box[np.arange(dim), rng.integers(0, 2, size=(600, dim))]
    u = rng.uniform(-2, 2, size=(600, dim))
    u[:100] = rng.choice([-1.0, 0.0, 1.0], size=(100, dim))
    X = side + u * t
    ref = outside_box_any(c, X, tol)
    assert ref.any() and not ref.all()
    assert np.array_equal(c._outside_box(X, tol), ref)
    # ``covers`` reads the tolerance from ``TOL_GEOM`` at call time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "TOL_GEOM", tol)
        assert np.array_equal(c.covers(X), ~ref)
        assert np.array_equal(c.covers(X.reshape(3, 200, dim)),
                              ~ref.reshape(3, 200))
