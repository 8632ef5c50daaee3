"""Simplicial complexes over boxes, finite point spaces, and hat-function test bases.

The solver parametrizes continuous test functions by vertex-interpolation
("hat") functions on a simplicial complex.  This module provides:

* ``SimplicialComplex`` -- a triangulated domain with batched point
  location (``vertex_weights``: containing-simplex vertices and barycentric
  weights), the membership test that location uses (``covers``), its edge
  list (``edges``), its ``boundary`` (corners and straight sides) and, for a
  box grid, its ``box`` and ``refined`` grids,
* ``edge_crossings`` -- where hyperplanes cross given edges of a complex,
* ``build_box_partition`` -- regular grid over a box, each cell triangulated
  by the order-based (Kuhn) triangulation into ``d!`` simplices,
* ``FiniteSpace`` -- a finite point set (degenerate complex of 0-simplices),
  whose ``vertex_weights`` picks the matching point,
* ``HatBasis`` -- the test-function basis with one designated vertex
  excluded; on a finite space it is the indicator basis (``IndicatorBasis``
  names the same class),
* ``point_keys`` / ``point_key`` / ``has_duplicate_rows`` -- the rounding
  key that decides when two points are the same,
* mesh statistics (``epsilon_bar``) and a-priori partition planning
  (``plan_partition``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

TOL_GEOM = 1e-9
# points whose coordinates agree to this many decimals are the same point
DEDUP_DECIMALS = 12


class GeometryError(ValueError):
    pass


class PointOutsideComplexError(GeometryError):
    """Raised when a query point is not covered by any simplex."""


class BudgetError(GeometryError):
    """Raised when the partition-planning error budget is non-positive."""


def point_keys(P):
    """Hashable key of each row of an (n, d) array: its coordinates rounded
    to DEDUP_DECIMALS, all rows in one call."""
    return list(map(tuple, np.round(np.atleast_2d(P), DEDUP_DECIMALS)
                    .tolist()))


def point_key(p):
    """Hashable key of one point."""
    return point_keys(p)[0]


def has_duplicate_rows(P):
    """True when two rows of the (n, d) array P have the same point key."""
    v = np.ascontiguousarray(np.round(P, DEDUP_DECIMALS))
    return np.unique(v.view([('', v.dtype)] * v.shape[1])).shape[0] != len(v)


# point location works through row blocks of about this many elements
LOCATE_BLOCK = 1 << 20


def _row_chunks(n, per_row):
    """Slices of range(n) whose row blocks hold about LOCATE_BLOCK elements
    when each row takes ``per_row``."""
    step = max(1, LOCATE_BLOCK // max(per_row, 1))
    return [slice(a, a + step) for a in range(0, n, step)]


def _raise_outside(X, bad, what):
    if bad.any():
        raise PointOutsideComplexError(
            "point %s %s" % (X[int(np.argmax(bad))], what))


def _norm(v, ord=2):
    """Vector norm along the last axis for norm tag 1, 2 or inf."""
    return np.linalg.norm(np.asarray(v, dtype=float), ord=ord, axis=-1)


class Boundary(NamedTuple):
    """The boundary of a complex: its ``corners``, a (C,) array of vertex
    indices, and its straight ``segments``, (S, 2) vertex-index pairs in the
    format of ``SimplicialComplex.edges``."""
    corners: np.ndarray
    segments: np.ndarray


def _straight_runs(V, edges):
    """Corners and maximal straight runs of a polygonal boundary in the
    plane given as (E, 2) vertex-index pairs.

    A vertex is a corner unless exactly two boundary edges meet there and
    they continue each other in a straight line."""
    nb = [[] for _ in V]
    for a, b in edges.tolist():
        nb[a].append(b)
        nb[b].append(a)

    def turns(v):
        if len(nb[v]) != 2:
            return True
        u, w = V[nb[v]] - V[v]
        return (u @ w >= 0 or abs(u[0] * w[1] - u[1] * w[0])
                > TOL_GEOM * np.linalg.norm(u) * np.linalg.norm(w))

    corners = [v for v in range(len(V)) if nb[v] and turns(v)]
    runs = []
    for c in corners:
        for v in nb[c]:
            prev = c
            while not turns(v):             # on to v's other neighbour
                prev, v = v, sum(nb[v]) - prev
            runs.append(sorted((c, v)))
    return (np.asarray(corners, dtype=int),
            np.unique(np.asarray(runs, dtype=int).reshape(-1, 2), axis=0))


class SimplicialComplex:
    """A finite collection of d-simplices in R^d sharing vertices along faces.

    Parameters
    ----------
    vertices : (n, d) array
        Distinct vertex coordinates.
    simplices : (m, d+1) int array
        Vertex indices of each simplex.  Every simplex must be
        non-degenerate (its d edge vectors are linearly independent).
    """

    def __init__(self, vertices, simplices, _grid=None):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.simplices = np.atleast_2d(np.asarray(simplices, dtype=int))
        self.dim = self.vertices.shape[1]
        if self.simplices.shape[1] != self.dim + 1:
            raise GeometryError(
                "simplices must have dim+1 = %d vertices, got %d"
                % (self.dim + 1, self.simplices.shape[1]))
        self._grid = _grid  # (lo, widths, counts, perms, perm_index) for box grids
        # (d, 2) array of the (lo, hi) sides of a box grid, None otherwise
        self.box = None
        if _grid is not None:
            lo, widths, counts = _grid[:3]
            self.box = np.stack([lo, lo + widths * counts], axis=1)
        self._validate()
        self._build_cell_data()

    def _validate(self):
        if has_duplicate_rows(self.vertices):
            raise GeometryError("duplicate vertices")
        for s, idx in enumerate(self.simplices):
            edges = self.vertices[idx[1:]] - self.vertices[idx[0]]
            scale = max(np.abs(edges).max(), 1.0)
            if abs(np.linalg.det(edges)) <= (TOL_GEOM * scale) ** self.dim:
                raise GeometryError("degenerate simplex %d" % s)

    def _build_cell_data(self):
        # Per-simplex interpolation matrix: lam = Minv @ [1, x]; the columns
        # of Minv[:, 1:] are the gradients of the barycentric coordinates.
        n_s = len(self.simplices)
        d = self.dim
        self._minv = np.empty((n_s, d + 1, d + 1))
        for s, idx in enumerate(self.simplices):
            M = np.empty((d + 1, d + 1))
            M[0, :] = 1.0
            M[1:, :] = self.vertices[idx].T
            self._minv[s] = np.linalg.inv(M)
        self._cell_pts = self.vertices[self.simplices]          # (m, d+1, d)
        diffs = self._cell_pts[:, :, None, :] - self._cell_pts[:, None, :, :]
        self._cell_diam2 = np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_simplices(self):
        return self.simplices.shape[0]

    @cached_property
    def edges(self):
        """(E, 2) vertex-index pairs of the simplex edges, each edge once
        with its smaller index first, in lexicographic order."""
        ends = list(itertools.combinations(range(self.dim + 1), 2))
        pairs = np.sort(self.simplices[:, ends].reshape(-1, 2), axis=1)
        return np.unique(pairs, axis=0)

    @cached_property
    def boundary(self):
        """The complex's :class:`Boundary`, from its simplices alone.

        The boundary facets are the facets (edges in 2-D, vertices in 1-D)
        that lie in exactly one simplex.  In 2-D each straight run of
        boundary edges is merged into one segment, and the corners are the
        boundary vertices where the boundary turns, so a box grid has its
        4 sides and 4 corners and an L-shape keeps its reflex corner.  In
        1-D the corners are the interval ends and there are no segments.
        """
        d = self.dim
        if d > 2:
            raise GeometryError("the boundary is described in dimension 1 "
                                "and 2 only, not %d" % d)
        faces = list(itertools.combinations(range(d + 1), d))
        facets, count = np.unique(
            np.sort(self.simplices[:, faces].reshape(-1, d), axis=1),
            axis=0, return_counts=True)
        facets = facets[count == 1]
        if d == 1:
            return Boundary(facets[:, 0], np.empty((0, 2), dtype=int))
        return Boundary(*_straight_runs(self.vertices, facets))

    def refined(self, factor):
        """The box grid over the same box with ``factor`` times the cells
        per axis."""
        return build_box_partition(self.box, factor * self._grid[2])

    def cell_diameters(self, ord=2):
        """Max pairwise vertex distance per simplex in the given norm."""
        if ord == 2:
            return self._cell_diam2.copy()
        diffs = self._cell_pts[:, :, None, :] - self._cell_pts[:, None, :, :]
        return _norm(diffs, ord).max(axis=(1, 2))

    def vertex_diameter(self, ord=2):
        diffs = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(_norm(diffs, ord).max())

    def volumes(self):
        """Lebesgue volume of each simplex."""
        edges = self._cell_pts[:, 1:, :] - self._cell_pts[:, :1, :]
        dets = np.abs(np.linalg.det(edges))
        return dets / math.factorial(self.dim)

    def vertex_weights(self, X, tol=TOL_GEOM):
        """Locate the rows of an (n, d) array of points in the complex.

        Returns ``(V, W)``, two (n, d+1) arrays: the vertex indices of a
        simplex containing each point and the point's barycentric weights on
        them, clamped to be >= 0 and renormalized to sum to 1.  A grid
        complex uses the closed-form Kuhn location; otherwise the first
        containing simplex wins, or the least-violated one if none contains
        the point.

        Raises
        ------
        PointOutsideComplexError
            If a point is farther than ``tol`` from every simplex.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._grid is not None:
            s, lam = self._kuhn_locate(X)
            bad = self._outside_box(X, tol)
        else:
            s, lam, viol = self._search(X)
            bad = viol > tol
        _raise_outside(X, bad, "outside complex")
        np.clip(lam, 0.0, None, out=lam)
        lam /= lam.sum(axis=1, keepdims=True)
        return self.simplices[s], lam

    def covers(self, X, tol=TOL_GEOM):
        """Mask of the rows of an (n, d) array of points that
        ``vertex_weights`` locates, by the same test."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._grid is not None:
            return ~self._outside_box(X, tol)
        return self._search(X)[2] <= tol

    def _outside_box(self, X, tol):
        """Rows of X farther outside the grid's box than ``tol`` on the
        narrowest axis, scaled by cell width on the others."""
        widths = self._grid[1]
        t = tol * (widths / widths.min())
        return (np.any(X < self.box[:, 0] - t, axis=1)
                | np.any(X > self.box[:, 1] + t, axis=1))

    def _search(self, X):
        """Per row of X: the first simplex containing it, else the least
        violated one, the row's barycentric coordinates there, and their
        violation (minus the smallest coordinate)."""
        n, m = len(X), self.n_simplices
        s = np.empty(n, dtype=int)
        lam = np.empty((n, self.dim + 1))
        viol = np.empty(n)
        q = np.hstack([np.ones((n, 1)), X])
        for sl in _row_chunks(n, m * (self.dim + 1)):
            L = (self._minv @ q[sl, None, :, None])[..., 0]
            v = -L.min(axis=2)
            inside = v <= 0.0
            pick = np.where(inside.any(axis=1), inside.argmax(axis=1),
                            v.argmin(axis=1))
            rows = np.arange(len(pick))
            s[sl], lam[sl], viol[sl] = pick, L[rows, pick], v[rows, pick]
        return s, lam, viol

    def _kuhn_locate(self, X):
        lo, widths, counts, perms, perm_index = self._grid
        f = np.clip((X - lo) / widths, 0.0, counts)
        cell = np.minimum(f.astype(int), counts - 1)
        frac = f - cell
        order = np.argsort(-frac, axis=1, kind="stable")
        fs = np.take_along_axis(frac, order, axis=1)
        lam = np.empty((len(X), self.dim + 1))
        lam[:, 0] = 1.0 - fs[:, 0]
        lam[:, 1:-1] = fs[:, :-1] - fs[:, 1:]
        lam[:, -1] = fs[:, -1]
        s = (np.ravel_multi_index(tuple(cell.T), tuple(counts)) * len(perms)
             + perm_index[tuple(order.T)])
        return s, lam


def build_box_partition(box, counts):
    """Triangulate a d-dimensional box into a regular simplicial grid.

    Parameters
    ----------
    box : sequence of (lo, hi) pairs, one per dimension
    counts : sequence of positive ints, cells per dimension

    Each hyperrectangle cell is triangulated into ``d!`` simplices by the
    order-based (Kuhn) triangulation, which matches faces across cells.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    d = box.shape[0]
    if counts.shape[0] != d:
        raise GeometryError("box has %d dims but counts has %d" % (d, len(counts)))
    if np.any(box[:, 1] - box[:, 0] <= 0):
        raise GeometryError("box sides must have positive length")
    if np.any(counts < 1):
        raise GeometryError("counts must be >= 1")
    lo = box[:, 0]
    widths = (box[:, 1] - box[:, 0]) / counts
    grids = [np.linspace(box[j, 0], box[j, 1], counts[j] + 1) for j in range(d)]
    mesh = np.meshgrid(*grids, indexing="ij")
    vertices = np.stack([m.ravel() for m in mesh], axis=1)
    vshape = tuple(counts + 1)

    perms = list(itertools.permutations(range(d)))
    perm_index = np.zeros((d,) * d, dtype=int)
    for i, p in enumerate(perms):
        perm_index[p] = i
    simplices = []
    for cell in itertools.product(*[range(c) for c in counts]):
        base = np.asarray(cell, dtype=int)
        for perm in perms:
            idx = [np.ravel_multi_index(tuple(base), vshape)]
            k = base.copy()
            for j in perm:
                k[j] += 1
                idx.append(np.ravel_multi_index(tuple(k), vshape))
            simplices.append(idx)
    grid = (lo, widths, counts, perms, perm_index)
    return SimplicialComplex(vertices, np.asarray(simplices), _grid=grid)


def edge_crossings(complex, edges, normals, offsets):
    """Where the hyperplanes <normals[k], z> = offsets[..., k] cross the
    given edges of a complex.

    ``edges`` is (E, 2) vertex-index pairs, such as ``complex.edges`` or
    ``complex.boundary.segments``; ``normals`` is (K, d) and ``offsets``
    (..., K).  Returns ``(points, hit)``: (..., K, E, d) points on each
    edge, with the edge parameter clipped to [0, 1], and the (..., K, E)
    mask of the edges each hyperplane crosses.  An edge parallel to a
    hyperplane is never hit.
    """
    V = complex.vertices
    e0 = V[edges[:, 0]]
    de = V[edges[:, 1]] - e0
    se0 = normals @ e0.T                # (K, E)
    sde = normals @ de.T
    ok = np.abs(sde) > 1e-14
    t = (offsets[..., None] - se0) / np.where(ok, sde, 1.0)
    hit = ok & (t >= -1e-12) & (t <= 1 + 1e-12)
    # in place and C-ordered whatever the layout of ``offsets``: a batch of
    # samples brings thousands of hyperplanes, and callers reshape the points
    np.clip(t, 0, 1, out=t)
    points = np.empty(t.shape + de.shape[1:])
    np.multiply(t[..., None], de, out=points)
    points += e0
    return points, hit


class FiniteSpace:
    """A finite point set, treated as a complex of 0-dimensional cells."""

    def __init__(self, points):
        self.vertices = np.atleast_2d(np.asarray(points, dtype=float))
        if self.vertices.ndim != 2:
            raise GeometryError("points must be a 2d array")
        self.dim = self.vertices.shape[1]
        if has_duplicate_rows(self.vertices):
            raise GeometryError("duplicate points")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def vertex_weights(self, X, tol=TOL_GEOM):
        """Nearest point of each row of an (n, d) array, as (n, 1) arrays of
        point indices and unit weights.

        Raises ``PointOutsideComplexError`` if a row is farther than ``tol``
        from every point.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        j = np.empty(len(X), dtype=int)
        dist = np.empty(len(X))
        for sl in _row_chunks(len(X), self.vertices.size):
            D = _norm(X[sl, None, :] - self.vertices[None], 2)
            j[sl] = D.argmin(axis=1)
            dist[sl] = D.min(axis=1)
        _raise_outside(X, dist > tol, "not in finite space")
        return j[:, None], np.ones((len(X), 1))

    def cell_diameters(self, ord=2):
        return np.zeros(self.n_vertices)

    def vertex_diameter(self, ord=2):
        if self.n_vertices == 1:
            return 0.0
        diffs = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(_norm(diffs, ord).max())


def _default_excluded(vertices):
    """Index of the lexicographically smallest vertex."""
    return int(np.lexsort(vertices.T[::-1])[0])


class HatBasis:
    """Vertex-interpolation test functions on a complex, one vertex dropped.

    The basis value at x is the vector of barycentric weights of the
    non-excluded vertices in a simplex containing x; the excluded vertex's
    weight is implicit (one minus the sum).  On a finite space the weights
    are one-hot, so this is the indicator basis.
    """

    def __init__(self, complex, excluded_vertex=None):
        self.complex = complex
        if excluded_vertex is None:
            excluded_vertex = _default_excluded(complex.vertices)
        self.excluded = int(excluded_vertex)
        if not 0 <= self.excluded < complex.n_vertices:
            raise GeometryError("excluded vertex index out of range")
        self.m = complex.n_vertices - 1
        keep = [v for v in range(complex.n_vertices) if v != self.excluded]
        # vertex index -> component; the excluded vertex gets the spare last
        # column, which eval_many drops
        self._col = np.full(complex.n_vertices, self.m, dtype=int)
        self._col[keep] = np.arange(self.m)
        self._keep = np.asarray(keep, dtype=int)

    @property
    def vertices(self):
        return self.complex.vertices

    def eval(self, x, tol=TOL_GEOM):
        """Basis vector at a single point."""
        return self.eval_many(np.atleast_1d(x)[None], tol)[0]

    def eval_many(self, X, tol=TOL_GEOM):
        """Basis vectors for an (n, d) array of points, (n, m) output."""
        V, W = self.complex.vertex_weights(X, tol)
        out = np.zeros((len(V), self.m + 1))
        out[np.arange(len(V))[:, None], self._col[V]] = W
        return out[:, :self.m]


# a HatBasis on a FiniteSpace is the indicator basis
IndicatorBasis = HatBasis


def epsilon_bar(complex, varsigma, ord=2):
    """Mesh-based upper bound on the W1 radius of a moment class.

    ``2 * (max cell diameter) + (varsigma / 2) * (overall vertex diameter)``
    with distances taken in the given norm.  For a finite space the cell
    diameters are zero.
    """
    if varsigma < 0:
        raise GeometryError("varsigma must be >= 0")
    cd = float(np.max(complex.cell_diameters(ord))) if complex.n_vertices else 0.0
    if varsigma == 0:     # skip the O(n^2) vertex diameter it would weigh
        return 2.0 * cd
    return 2.0 * cd + 0.5 * varsigma * complex.vertex_diameter(ord)


@dataclass
class PartitionPlan:
    """Cell counts per dimension for each type space and the quality space."""
    type_counts: list
    quality_counts: tuple
    varsigma_bar: float


def plan_partition(eps, eps_par, eps_star, N, L1, L2_bar, type_boxes,
                   quality_box, C_type=None, C_quality=1.0, ord=2):
    """Per-dimension cell counts guaranteeing a target equilibrium accuracy.

    Parameters
    ----------
    eps, eps_par, eps_star : floats with eps > eps_par + eps_star > 0
        Total accuracy target and the two solver budget components.
    N : number of categories
    L1 : per-category type-space Lipschitz constants
    L2_bar : max quality-space Lipschitz constant
    type_boxes : per-category list of (lo, hi) pairs
    quality_box : list of (lo, hi) pairs
    C_type, C_quality : norm-equivalence constants (>= 1), default 1
    ord : norm tag used for the side-length vector in the varsigma threshold

    Returns a :class:`PartitionPlan`.  Counts of zero (possible for the
    quality space when N == 1) are clamped to one cell.
    """
    budget = eps - eps_par - eps_star
    if budget <= 0:
        raise BudgetError("eps - eps_par - eps_star must be positive")
    L1 = np.atleast_1d(np.asarray(L1, dtype=float))
    if C_type is None:
        C_type = np.ones(N)
    C_type = np.atleast_1d(np.asarray(C_type, dtype=float))
    type_counts = []
    for i in range(N):
        box = np.atleast_2d(np.asarray(type_boxes[i], dtype=float))
        d_i = box.shape[0]
        sides = box[:, 1] - box[:, 0]
        cnt = np.ceil(8.0 * N * L1[i] * sides * C_type[i] * math.sqrt(d_i)
                      / budget).astype(int)
        type_counts.append(tuple(int(c) for c in np.maximum(cnt, 1)))
    qbox = np.atleast_2d(np.asarray(quality_box, dtype=float))
    d_0 = qbox.shape[0]
    qsides = qbox[:, 1] - qbox[:, 0]
    qcnt = np.ceil(8.0 * (N - 1) * L2_bar * qsides * C_quality * math.sqrt(d_0)
                   / budget).astype(int)
    quality_counts = tuple(int(c) for c in np.maximum(qcnt, 1))

    denoms = [float(_norm(box[:, 1] - box[:, 0], ord)) * N * L1[i]
              for i, box in enumerate(np.atleast_2d(np.asarray(b, dtype=float))
                                      for b in type_boxes)]
    denoms.append(float(_norm(qsides, ord)) * (N - 1) * L2_bar)
    dmax = max(denoms)
    varsigma_bar = math.inf if dmax <= 0 else 0.5 * budget / dmax
    return PartitionPlan(type_counts, quality_counts, varsigma_bar)
