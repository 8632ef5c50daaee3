"""Simplicial complexes over boxes, finite point spaces, and hat-function test bases.

The solver parametrizes continuous test functions by vertex-interpolation
("hat") functions on a simplicial complex.  This module provides:

* ``build_box_partition`` -- regular grid over a box, each cell triangulated
  by the order-based (Kuhn) triangulation into ``d!`` simplices: a
  ``SimplicialComplex``, with batched closed-form point location
  (``vertex_weights``: containing-simplex vertices and barycentric
  weights), the box test that location uses (``covers``), its faces of
  every dimension (``faces``) and their ``face_frames``, its ``box``, the
  box's ``boundary`` (corners and sides), its ``refined`` grids, and its
  simplices' ``volumes`` and ``cell_diameters`` from their Kuhn steps,
* ``EdgeFrame`` -- where hyperplanes cross given edges of a complex, the
  offset-free part built once for repeated batches of offsets,
* ``FiniteSpace`` -- a finite point set (degenerate complex of 0-simplices),
  whose ``vertex_weights`` picks the matching point,
* ``HatBasis`` -- the test-function basis with one designated vertex
  excluded; on a finite space it is the indicator basis (``IndicatorBasis``
  names the same class),
* ``point_keys`` / ``point_key`` / ``has_duplicate_rows`` / ``first_seen``
  -- the rounding key that decides when two points are the same,
* the mesh radius ``epsilon_bar``.
"""

from __future__ import annotations

import itertools
import math
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


def point_keys(P):
    """Hashable key of each row of an (n, d) array: its coordinates rounded
    to DEDUP_DECIMALS, all rows in one call."""
    return list(map(tuple, np.round(np.atleast_2d(P), DEDUP_DECIMALS)
                    .tolist()))


def has_duplicate_rows(P):
    """True when two rows of the (n, d) array P have the same point key."""
    return len(set(point_keys(P))) != len(P)


def first_seen(P):
    """The distinct rows of the (n, d) array P by point key in first-seen
    order, and the index of each row's point among them."""
    index = {}
    inv = np.array([index.setdefault(k, len(index)) for k in point_keys(P)],
                   dtype=int)
    return P[np.unique(inv, return_index=True)[1]], inv


# finite-space location works through row blocks of about this many elements
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


class Boundary(NamedTuple):
    """The boundary of a complex: its ``corners``, a (C,) array of vertex
    indices, and its straight ``segments``, (S, 2) vertex-index pairs in the
    format of ``SimplicialComplex.faces[1]``."""
    corners: np.ndarray
    segments: np.ndarray


def face_frames(V, groups):
    """Per non-empty group of faces, each an (F, j+1) array of vertex
    indices into V: the faces, their base points p0, their (F, j, d) edge
    rows D = p_k - p0, G = (D D^T)^-1 and G D, the map from a point to the
    edge parameters of its projection onto the face's affine hull."""
    out = []
    for F in filter(len, groups):
        p0 = V[F[:, 0]]
        D = V[F[:, 1:]] - p0[:, None]
        G = np.linalg.inv(D @ D.transpose(0, 2, 1))
        out.append((F, p0, D, G, G @ D))
    return out


class SimplicialComplex:
    """The Kuhn triangulation of a regular grid over a box, made by
    ``build_box_partition``: d-simplices in R^d sharing vertices along
    faces.

    Parameters
    ----------
    vertices : (n, d) array
        Distinct vertex coordinates.
    simplices : (m, d+1) int array
        Vertex indices of each simplex, a Kuhn chain: each vertex one
        cell width along one axis from the one before.  Every simplex must
        be non-degenerate (the product of its steps above ``TOL_GEOM``'s
        scale).
    _grid : tuple
        ``(lo, widths, counts, perms, perm_index)`` of the grid.
    """

    def __init__(self, vertices, simplices, _grid):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.simplices = np.atleast_2d(np.asarray(simplices, dtype=int))
        self.dim = self.vertices.shape[1]
        self._grid = _grid
        lo, widths, counts = _grid[:3]
        # (d, 2) array of the (lo, hi) sides of the box
        self.box = np.stack([lo, lo + widths * counts], axis=1)
        # per-axis scale of the membership tolerance (``_outside_box``)
        self._box_slack = widths / widths.min()
        self._cell_pts = self.vertices[self.simplices]          # (m, d+1, d)
        # (m, d) lengths of each chain's steps, one axis each: the edge
        # matrix is a permuted triangle of them, so they give every
        # per-simplex quantity in closed form
        self._steps = np.abs(np.diff(self._cell_pts, axis=1)).sum(-1)
        self._validate()

    def _validate(self):
        if has_duplicate_rows(self.vertices):
            raise GeometryError("duplicate vertices")
        scale = np.maximum(self._steps.max(axis=1), 1.0)
        bad = self._steps.prod(axis=1) <= (TOL_GEOM * scale) ** self.dim
        if bad.any():
            raise GeometryError("degenerate simplex %d" % np.argmax(bad))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_simplices(self):
        return self.simplices.shape[0]

    @cached_property
    def faces(self):
        """The faces of every dimension j = 0..d: ``faces[j]`` is the
        (F_j, j+1) array of the vertex indices of the j-faces, each face
        once with its indices sorted, in lexicographic order."""
        out = []
        for j in range(self.dim + 1):
            ends = list(itertools.combinations(range(self.dim + 1), j + 1))
            out.append(np.unique(np.sort(
                self.simplices[:, ends].reshape(-1, j + 1), axis=1), axis=0))
        return out

    @cached_property
    def face_frames(self):
        """The ``face_frames`` of ``faces``."""
        return face_frames(self.vertices, self.faces)

    @cached_property
    def boundary(self):
        """The box's :class:`Boundary`, from the grid's shape: in 1-D the
        two interval ends and no segments, in 2-D the 4 corners in
        ascending order and the 4 sides."""
        d = self.dim
        if d > 2:
            raise GeometryError("the boundary is described in dimension 1 "
                                "and 2 only, not %d" % d)
        counts = self._grid[2]
        corners = np.ravel_multi_index(
            np.array(list(itertools.product(*[(0, c) for c in counts]))).T,
            tuple(counts + 1))
        if d == 1:
            return Boundary(corners, np.empty((0, 2), dtype=int))
        # the sides join the corners that differ on one axis
        return Boundary(corners, corners[[[0, 1], [0, 2], [1, 3], [2, 3]]])

    def refined(self, factor):
        """The box grid over the same box with ``factor`` times the cells
        per axis."""
        return build_box_partition(self.box, factor * self._grid[2])

    def cell_diameters(self):
        """Max pairwise vertex distance per simplex: its chain's ends'."""
        return np.sqrt((self._steps ** 2).sum(axis=1))

    def volumes(self):
        """Lebesgue volume of each simplex."""
        return self._steps.prod(axis=1) / math.factorial(self.dim)

    def vertex_weights(self, X):
        """Locate the rows of an (n, d) array of points in the complex.

        Returns ``(V, W)``, two (n, d+1) arrays: the vertex indices of a
        simplex containing each point and the point's barycentric weights on
        them, clamped to be >= 0 and renormalized to sum to 1, by the
        closed-form Kuhn location.

        Raises
        ------
        PointOutsideComplexError
            If a point is outside the box by more than ``_outside_box``'s
            tolerance.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s, lam = self._kuhn_locate(X)
        _raise_outside(X, self._outside_box(X, TOL_GEOM), "outside complex")
        np.clip(lam, 0.0, None, out=lam)
        lam /= lam.sum(axis=1, keepdims=True)
        return self.simplices[s], lam

    def covers(self, X):
        """Mask of the points of an (..., d) array, the last axis holding
        the coordinates, that ``vertex_weights`` locates, by the same
        test."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        outside = self._outside_box(X, TOL_GEOM)
        return np.logical_not(outside, out=outside)

    def _outside_box(self, X, tol):
        """Points of the (..., d) array X farther outside the grid's box
        than ``tol`` on the narrowest axis, scaled by cell width on the
        others: one comparison per axis and side, ORed into one mask."""
        t = tol * self._box_slack
        lo = self.box[:, 0] - t
        hi = self.box[:, 1] + t
        out = X[..., 0] < lo[0]
        out |= X[..., 0] > hi[0]
        for l in range(1, self.dim):
            out |= X[..., l] < lo[l]
            out |= X[..., l] > hi[l]
        return out

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


class EdgeFrame:
    """Where the hyperplanes <normals[k], z> = offsets[..., k] cross the
    given edges of a complex, for batches of offsets (``crossings``), into
    buffers the caller reuses.

    ``edges`` is (E, 2) vertex-index pairs, such as ``complex.faces[1]``
    or ``complex.boundary.segments``, and ``normals`` is (K, d).  The frame
    holds what does not depend on the offsets: each hyperplane's value at
    every edge's first end and its step along the edge, and the edges' ends
    and steps per coordinate as (K, E) tables, so that a caller with many
    batches of offsets builds them once."""

    def __init__(self, complex, edges, normals):
        V = complex.vertices
        e0 = V[edges[:, 0]]
        de = V[edges[:, 1]] - e0
        self.se0 = normals @ e0.T                # (K, E)
        sde = normals @ de.T
        self.ok = np.abs(sde) > 1e-14
        self.sde = np.where(self.ok, sde, 1.0)
        # one coordinate at a time against (K, E) tables, so that the inner
        # loop runs over K * E values instead of the d coordinates
        self.e0 = [np.tile(e0[:, l], (len(normals), 1))
                   for l in range(de.shape[1])]
        self.de = [np.tile(de[:, l], (len(normals), 1))
                   for l in range(de.shape[1])]

    def crossings(self, offsets, out):
        """The crossings at the (..., K) offsets, written into ``out``, a
        ``(points, hit, t)`` triple of arrays: the (..., K, E, d) points on
        each edge, with the edge parameter clipped to [0, 1], the
        (..., K, E) mask of the edges each hyperplane crosses, and the
        (..., K, E) edge parameters.  An edge parallel to a hyperplane is
        never hit."""
        points, hit, t = out
        np.subtract(offsets[..., None], self.se0, out=t)
        np.divide(t, self.sde, out=t)
        np.greater_equal(t, -1e-12, out=hit)
        hit &= t <= 1 + 1e-12
        hit &= self.ok
        # in place: a batch of samples brings thousands of hyperplanes
        np.clip(t, 0, 1, out=t)
        for l, (e0, de) in enumerate(zip(self.e0, self.de)):
            np.multiply(t, de, out=points[..., l])
            points[..., l] += e0


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

    def vertex_weights(self, X):
        """Nearest point of each row of an (n, d) array, as (n, 1) arrays of
        point indices and unit weights.

        Raises ``PointOutsideComplexError`` if a row is farther than
        ``TOL_GEOM`` from every point.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        j = np.empty(len(X), dtype=int)
        dist = np.empty(len(X))
        for sl in _row_chunks(len(X), self.vertices.size):
            D = np.linalg.norm(X[sl, None, :] - self.vertices[None], axis=-1)
            j[sl] = D.argmin(axis=1)
            dist[sl] = D.min(axis=1)
        _raise_outside(X, dist > TOL_GEOM, "not in finite space")
        return j[:, None], np.ones((len(X), 1))

    def cell_diameters(self):
        return np.zeros(self.n_vertices)


def _default_excluded(vertices):
    """Index of the lexicographically smallest vertex."""
    return int(np.lexsort(vertices.T[::-1])[0])


class HatBasis:
    """Vertex-interpolation test functions on a complex, one vertex dropped:
    the lexicographically smallest (``_default_excluded``).

    The basis value at x is the vector of barycentric weights of the
    non-excluded vertices in a simplex containing x; the excluded vertex's
    weight is implicit (one minus the sum).  On a finite space the weights
    are one-hot, so this is the indicator basis.
    """

    def __init__(self, complex):
        self.complex = complex
        self.excluded = _default_excluded(complex.vertices)
        self.m = complex.n_vertices - 1
        keep = [v for v in range(complex.n_vertices) if v != self.excluded]
        # vertex index -> component; the excluded vertex gets the spare last
        # column, which eval_many drops
        self._col = np.full(complex.n_vertices, self.m, dtype=int)
        self._col[keep] = np.arange(self.m)
        self._keep = np.asarray(keep, dtype=int)

    def eval(self, x):
        """Basis vector at a single point."""
        return self.eval_many(np.atleast_1d(x)[None])[0]

    def eval_many(self, X):
        """Basis vectors for an (n, d) array of points, (n, m) output."""
        V, W = self.complex.vertex_weights(X)
        out = np.zeros((len(V), self.m + 1))
        out[np.arange(len(V))[:, None], self._col[V]] = W
        return out[:, :self.m]


# a HatBasis on a FiniteSpace is the indicator basis
IndicatorBasis = HatBasis


def epsilon_bar(complex):
    """Mesh-based upper bound on the W1 radius of a moment class: twice the
    largest cell diameter in the Euclidean norm, zero for a finite space."""
    return 2.0 * float(np.max(complex.cell_diameters()))
