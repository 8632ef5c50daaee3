"""Concrete cost models with Lipschitz constants and oracle decompositions.

Four families are shipped:

* ``business_location_cost`` -- commuting costs in a city with a railway
  line: scaled city-block walking plus a station-to-station train fare,
  taking the cheaper of the direct walk and the best station pair; the last
  category pays a pure restocking cost.
* ``barycenter_cost`` -- the 2-Wasserstein barycenter cost written without
  its measure-dependent constant; the constant is tracked separately so
  reported bounds refer to the sum of squared W2 distances.
* ``capped_affine_cost`` -- one-dimensional preference matching with a dead
  zone, a linear ramp and a saturation cap.
* ``tabulated_cpwa_cost`` -- cost given by a value table on vertex pairs,
  extended by barycentric interpolation in both arguments.

Each model carries its Lipschitz constants w.r.t. the Euclidean metric and
the structures that make the global-minimization oracle, the transfer
function evaluation and the pushforward quality selector exact: a min-of-
convex-terms decomposition whose per-term kink arrangements yield finite
candidate sets, or LP-ready coupled pieces.  The candidate sets are built
from the region geometry that ``geometry`` provides: the membership test
``covers``, a complex's ``edges``, ``boundary`` and ``box``, and
``edge_crossings``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import (FiniteSpace, edge_crossings, has_duplicate_rows,
                       point_keys)


class CostModelError(ValueError):
    pass


def full_vertex_weights(space, X):
    """(n, n_vertices) barycentric weight rows of points in a space."""
    V, W = space.vertex_weights(X)
    out = np.zeros((len(V), space.n_vertices))
    np.put_along_axis(out, V, W, axis=1)
    return out


def _dedup_points(P):
    """Rows of the (n, d) array P in order, keeping the first of each point
    key."""
    first = {}
    for q, key in enumerate(point_keys(P)):
        first.setdefault(key, q)
    return P[sorted(first.values())]


def axis_arrangement_candidates(space, anchors):
    """Candidate minimizer points of a convex PWA function whose kinks lie on
    the axis-aligned hyperplanes through the given anchor points.

    Returns the union over the complex of: cell vertices, intersections of
    the anchor hyperplanes with cell edges, and pairwise hyperplane crossing
    points that land inside the complex.  Minimizing any function that is
    affine between these hyperplanes within each cell is exact on this set.
    """
    if isinstance(space, FiniteSpace):
        return space.vertices.copy()
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = space.dim
    levels = [np.unique(anchors[:, l]) for l in range(d)]
    axes = np.concatenate([np.full(len(v), l) for l, v in enumerate(levels)])
    on_edges, hit = edge_crossings(space, space.edges, np.eye(d)[axes],
                                   np.concatenate(levels))
    pts = [space.vertices, on_edges[hit]]
    if d >= 2:
        crossings = np.array(list(itertools.product(*levels))).reshape(-1, d)
        pts.append(crossings[space.covers(crossings)])
    return _dedup_points(np.vstack(pts))


# ---------------------------------------------------------------------------
# oracle term descriptors (min-of-terms decomposition)

class SeparableL1Term:
    """weight_x * ||x - anchor_x||_1 + weight_z * ||z - anchor_z||_1 + const.

    Either side may be absent (anchor None).  Convex, and separable across
    the two arguments, so each side is minimized independently over its own
    complex using the axis arrangement candidates.
    """

    def __init__(self, anchor_x, weight_x, anchor_z, weight_z, const=0.0):
        self.anchor_x = None if anchor_x is None else np.asarray(anchor_x, float)
        self.weight_x = float(weight_x)
        self.anchor_z = None if anchor_z is None else np.asarray(anchor_z, float)
        self.weight_z = float(weight_z)
        self.const = float(const)

    def eval(self, X, Z):
        v = np.full(np.atleast_2d(X).shape[0], self.const)
        if self.anchor_x is not None:
            v = v + self.weight_x * np.abs(np.atleast_2d(X) - self.anchor_x).sum(1)
        if self.anchor_z is not None:
            v = v + self.weight_z * np.abs(np.atleast_2d(Z) - self.anchor_z).sum(1)
        return v


class DirectL1Term:
    """weight * ||x - z||_1 with matching dimensions (coupled; needs an LP)."""

    def __init__(self, weight):
        self.weight = float(weight)

    def eval(self, X, Z):
        return self.weight * np.abs(np.atleast_2d(X) - np.atleast_2d(Z)).sum(1)


class ScalarRampTerm:
    """slope * (|x - <s, z>| - kappa1)^+ for scalar x (coupled; needs an LP)."""

    def __init__(self, s, kappa1, slope):
        self.s = np.atleast_1d(np.asarray(s, dtype=float))
        self.kappa1 = float(kappa1)
        self.slope = float(slope)

    def eval(self, X, Z):
        f = np.atleast_2d(X)[:, 0] - np.atleast_2d(Z) @ self.s
        return self.slope * np.clip(np.abs(f) - self.kappa1, 0.0, None)


# ---------------------------------------------------------------------------

class CostModel:
    """Base class: N categories, eval, Lipschitz constants, objective shift.

    ``affine_in_x`` and ``affine_in_z`` state, per family, that a cell's
    vertices minimize the cost minus any hat combination in that argument
    (the cost is affine in it on each cell); the oracle, ``type_minima``
    and the quality selector then enumerate the vertices on that side.
    """

    shift = 0.0
    affine_in_x = False
    affine_in_z = False

    def eval(self, i, X, Z):
        raise NotImplementedError

    def eval_grid(self, i, X, Z):
        """(len(X), len(Z)) costs of every row of X paired with every row
        of Z."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        nx, nz = len(X), len(Z)
        return self.eval(i, np.repeat(X, nz, axis=0),
                         np.tile(Z, (nx, 1))).reshape(nx, nz)

    def check_lipschitz(self, rng, x_sampler, z_sampler, n=10000, slack=1e-9):
        """Random-pair verification of the declared Lipschitz constants."""
        worst = 0.0
        for i in range(self.N):
            X1, X2 = x_sampler(i, n), x_sampler(i, n)
            Z1, Z2 = z_sampler(n), z_sampler(n)
            lhs = np.abs(self.eval(i, X1, Z1) - self.eval(i, X2, Z2))
            rhs = (self.L1[i] * np.linalg.norm(X1 - X2, axis=1)
                   + self.L2[i] * np.linalg.norm(Z1 - Z2, axis=1))
            worst = max(worst, float((lhs - rhs).max()))
        return worst <= slack, worst

    def oracle_terms(self, i):
        raise CostModelError("%s has no exact oracle: it is not vertex-exact "
                             "in both arguments and lacks a term "
                             "decomposition" % type(self).__name__)

    def z_opt_values(self, X_list, z_space):
        """Candidate minimizers of z -> sum_i c_i(x_i, z) per sample and the
        summed cost at each: (n, k, d) points and (n, k) values, +inf at
        invalid candidates."""
        raise CostModelError("cost model lacks a quality selector")

    def z_vertex_values(self, X_list, z_space):
        """The quality vertices as every sample's candidates and the summed
        cost at each: (n, V, d) points and (n, V) values.  Exact where a
        vertex minimizes z -> sum_i c_i(x_i, z): over a finite quality
        space, or for a family with ``affine_in_z``."""
        zs = z_space.vertices
        n = np.atleast_2d(X_list[0]).shape[0]
        vals = sum(self.eval_grid(i, X_list[i], zs) for i in range(self.N))
        return np.broadcast_to(zs[None], (n,) + zs.shape), vals


class BusinessLocationCost(CostModel):
    """Commuting/restocking costs on a city with a railway line (2d)."""

    def __init__(self, stations, c_walk=0.15, c_train=0.015, c_restock=0.4,
                 n_categories=5):
        self.stations = np.atleast_2d(np.asarray(stations, dtype=float))
        if self.stations.shape[1] != 2:
            raise CostModelError("stations must be 2d points")
        if has_duplicate_rows(self.stations):
            raise CostModelError("stations must be distinct")
        self.c_walk = float(c_walk)
        self.c_train = float(c_train)
        self.c_restock = float(c_restock)
        self.N = int(n_categories)
        sqrt2 = math.sqrt(2.0)
        self.L1 = np.full(self.N, self.c_walk * sqrt2)
        self.L2 = np.full(self.N, self.c_walk * sqrt2)
        self.L1[self.N - 1] = self.c_restock * sqrt2
        self.L2[self.N - 1] = self.c_restock * sqrt2

    def eval(self, i, X, Z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        direct_w = self.c_restock if i == self.N - 1 else self.c_walk
        direct = direct_w * np.abs(X - Z).sum(1)
        if i == self.N - 1:
            return direct
        U = self.stations
        # (S, n) walking costs to each station, then one (n,) route per
        # station pair: no (n, S, S) temporary
        dxu = self.c_walk * (np.abs(X[:, 0] - U[:, :1])
                             + np.abs(X[:, 1] - U[:, 1:]))
        dzu = self.c_walk * (np.abs(Z[:, 0] - U[:, :1])
                             + np.abs(Z[:, 1] - U[:, 1:]))
        station = np.full(len(X), np.inf)
        for j in range(len(U)):
            for jp in range(len(U)):
                route = dxu[j] + dzu[jp] + self.c_train * abs(j - jp)
                np.minimum(station, route, out=station)
        return np.minimum(station, direct)

    def oracle_terms(self, i):
        if i == self.N - 1:
            return [DirectL1Term(self.c_restock)]
        terms = [DirectL1Term(self.c_walk)]
        S = len(self.stations)
        for j in range(S):
            for jp in range(S):
                terms.append(SeparableL1Term(
                    self.stations[j], self.c_walk,
                    self.stations[jp], self.c_walk,
                    self.c_train * abs(j - jp)))
        return terms

    def z_opt_values(self, X_list, z_space):
        """The summed cost on each sample's kink-line grid.

        The quality space must be a box grid.  The candidates are the cross
        product of the vertical/horizontal kink lines (station and
        per-sample type coordinates) clipped into the box, with
        ``cand[:, v*H + h] = (vpool[v], hpool[h])``; the static lines
        (stations and box sides) are taken once each: an exact duplicate
        cannot change the lexicographic pick.  The (n, V, H) table is built
        from per-axis walking costs, with the additions and minimums that
        ``eval`` does on each row, so every entry equals ``eval`` on its
        pair bit for bit.
        """
        if getattr(z_space, "box", None) is None:
            raise CostModelError("business-location z_opt needs a box-grid "
                                 "quality space")
        n = np.atleast_2d(X_list[0]).shape[0]
        xs = np.stack([np.atleast_2d(X)[:, :2] for X in X_list], axis=1)  # (n, N, 2)
        pools = []
        for l, side in enumerate(z_space.box):
            static = np.unique(np.clip(np.append(self.stations[:, l], side),
                                       *side))
            pools.append(np.concatenate(
                [np.broadcast_to(static, (n, len(static))),
                 np.clip(xs[:, :, l], *side)], axis=1))
        vpool, hpool = pools
        V, H = vpool.shape[1], hpool.shape[1]
        cand = np.empty((n, V * H, 2))
        cand[:, :, 0] = np.repeat(vpool, H, axis=1)
        cand[:, :, 1] = np.tile(hpool, (1, V))
        v, h = vpool[:, :, None], hpool[:, None, :]
        U = self.stations
        # (S, n, V, H) quality-side walking costs, shared by the categories
        dzu = self.c_walk * (np.abs(v - U[:, :1, None, None])
                             + np.abs(h - U[:, 1:, None, None]))
        tot = np.zeros((n, V, H))
        station = np.empty((n, V, H))
        route = np.empty((n, V, H))
        for i in range(self.N):
            x0, x1 = xs[:, i, :1, None], xs[:, i, 1:, None]
            direct_w = self.c_restock if i == self.N - 1 else self.c_walk
            direct = direct_w * (np.abs(x0 - v) + np.abs(x1 - h))
            if i == self.N - 1:
                tot += direct
                continue
            dxu = self.c_walk * (np.abs(xs[:, i, 0] - U[:, :1])
                                 + np.abs(xs[:, i, 1] - U[:, 1:]))
            station.fill(np.inf)
            for j in range(len(U)):
                for jp in range(len(U)):
                    np.add(dxu[j, :, None, None], dzu[jp], out=route)
                    np.add(route, self.c_train * abs(j - jp), out=route)
                    np.minimum(station, route, out=station)
            np.minimum(station, direct, out=station)
            tot += station
        return cand, tot.reshape(n, V * H)


class QuadraticBarycenterCost(CostModel):
    """c_i(x, z) = lam_i (||z||^2 - 2 <x, z>), the squared-distance cost with
    its measure-dependent constant removed.  The constant (sum of weighted
    second moments) is kept in ``shift`` so that shifted bounds estimate the
    weighted sum of squared W2 distances."""

    affine_in_x = True

    def __init__(self, weights, x_spaces, z_space, shift=0.0):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise CostModelError("weights must be positive and sum to 1")
        self.lam = w
        self.N = len(w)
        self.shift = float(shift)
        zmax = float(np.linalg.norm(z_space.vertices, axis=1).max())
        self.L1 = 2.0 * w * zmax
        self.L2 = np.empty(self.N)
        for i in range(self.N):
            xmax = float(np.linalg.norm(x_spaces[i].vertices, axis=1).max())
            self.L2[i] = 2.0 * w[i] * (zmax + xmax)

    def eval(self, i, X, Z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self.lam[i] * ((Z ** 2).sum(1) - 2.0 * (X * Z).sum(1))

    def eval_grid(self, i, X, Z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self.lam[i] * ((Z ** 2).sum(1)[None, :] - 2.0 * X @ Z.T)

    def z_opt_values(self, X_list, z_space):
        """Each sample's weighted type mean, then its projection candidates
        onto the quality region's boundary.

        The summed cost is ||z||^2 - 2 <xbar, z> for the weighted mean xbar,
        so its minimizer is xbar where the region covers it and else the
        projection of xbar onto the region, which lies on its boundary: the
        closed straight segments, with the corners taken exactly.  The
        first candidate is xbar, +inf where it lies outside; the corners
        and the segment projections follow, +inf where xbar lies inside.
        """
        xbar = np.zeros_like(X_list[0])
        for i in range(self.N):
            xbar += self.lam[i] * X_list[i]
        inside = z_space.covers(xbar)
        cand = [xbar[:, None, :]]
        vals = [np.where(inside, -(xbar ** 2).sum(1), np.inf)[:, None]]
        if not inside.all():
            if z_space.dim > 2:
                raise CostModelError(
                    "quality selector needs the quality space to contain "
                    "the weighted type means in dimension > 2")
            V = z_space.vertices
            corners, segments = z_space.boundary
            C = V[corners]
            e0 = V[segments[:, 0]]
            de = V[segments[:, 1]] - e0
            xs = xbar[~inside]
            vv = (C ** 2).sum(1)[None, :] - 2.0 * xs @ C.T
            num = ((xs[:, None, :] - e0[None]) * de[None]).sum(-1)
            t = np.clip(num / (de ** 2).sum(1)[None], 0.0, 1.0)
            ze = e0[None] + t[..., None] * de[None]
            ve = (ze ** 2).sum(-1) - 2.0 * np.einsum("nd,ned->ne", xs, ze)
            k = len(C) + len(segments)
            pts = np.zeros((len(xbar), k, xbar.shape[1]))
            pts[~inside] = np.concatenate(
                [np.broadcast_to(C[None], (len(xs),) + C.shape), ze], axis=1)
            pv = np.full((len(xbar), k), np.inf)
            pv[~inside] = np.concatenate([vv, ve], axis=1)
            cand.append(pts)
            vals.append(pv)
        return np.concatenate(cand, axis=1), np.concatenate(vals, axis=1)


class CappedAffineCost(CostModel):
    """c_i(x, z) = (1/N) ((|x - <s_i, z>| ^ kappa2) - kappa1)^+ for scalar
    types; equals min{ramp, saturation constant}, which keeps the oracle and
    the quality selector exact on small candidate sets.

    ``kappa1 = 0`` and ``kappa2 = inf`` are accepted (degenerate instances
    such as a plain |x - <s, z>| cost for cross-checks)."""

    def __init__(self, s_list, kappa1, kappa2):
        self.s = np.atleast_2d(np.asarray(s_list, dtype=float))
        self.N = self.s.shape[0]
        self.d0 = self.s.shape[1]
        if np.any(np.abs(np.linalg.norm(self.s, axis=1) - 1.0) > 1e-9):
            raise CostModelError("direction vectors must be unit length")
        self.kappa1 = np.atleast_1d(np.asarray(kappa1, dtype=float))
        self.kappa2 = np.atleast_1d(np.asarray(kappa2, dtype=float))
        if np.any(self.kappa1 < 0) or np.any(self.kappa2 <= self.kappa1):
            raise CostModelError("need 0 <= kappa1 < kappa2")
        self.L1 = np.full(self.N, 1.0 / self.N)
        self.L2 = np.full(self.N, 1.0 / self.N)

    def eval(self, i, X, Z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        # <s_i, z> one column at a time: a GEMV rounds one row and a batch
        # differently
        sz = Z[:, 0] * self.s[i, 0]
        for j in range(1, self.d0):
            sz = sz + Z[:, j] * self.s[i, j]
        f = np.abs(X[:, 0] - sz)
        return np.clip(np.minimum(f, self.kappa2[i]) - self.kappa1[i],
                       0.0, None) / self.N

    def oracle_terms(self, i):
        terms = [ScalarRampTerm(self.s[i], self.kappa1[i], 1.0 / self.N)]
        if np.isfinite(self.kappa2[i]):
            terms.append(SeparableL1Term(
                None, 0.0, None, 0.0,
                (self.kappa2[i] - self.kappa1[i]) / self.N))
        return terms

    def z_opt_values(self, X_list, z_space):
        """Kink-line arrangement candidates for the summed cost, from the
        quality region's boundary (``_kink_candidates``), and the summed
        cost at each: +inf at the candidates outside the region, and only
        the others evaluated."""
        cand, valid = self._kink_candidates(X_list, z_space)
        r, c = np.nonzero(valid)
        zc = cand[r, c]
        tot = np.zeros(len(r))
        for i in range(self.N):
            tot += self.eval(i, np.atleast_2d(X_list[i])[r], zc)
        vals = np.full(valid.shape, np.inf)
        vals[r, c] = tot
        return cand, vals

    def _kink_candidates(self, X_list, z_space):
        """The candidates and the mask of those inside the region.  A method
        of its own, so that its temporaries are freed before the summed cost
        is evaluated.

        Writing each category cost as min{(|f_i| - kappa1)^+, const}, every
        selection of branches gives a convex function whose only kinks lie
        on the 2N lines <s_i, z> = x_i +- kappa1_i.  It is affine on each
        cell of that line arrangement, and the summed cost does not depend
        on the quality mesh, so its minimum over the region and the
        lexicographically smallest minimizer lie at a vertex of the
        arrangement clipped to the region: a line/line crossing inside the
        region, a line/boundary-segment crossing or a boundary corner (the
        two interval ends in 1-D).  That candidate set is exact."""
        n = np.atleast_2d(X_list[0]).shape[0]
        xs = np.concatenate([np.atleast_2d(X)[:, :1] for X in X_list], axis=1)
        # rhs of the 2N lines per sample: (n, N, 2)
        rhs = np.stack([xs - self.kappa1[None, :], xs + self.kappa1[None, :]],
                       axis=2)
        corners, segments = z_space.boundary
        ends = z_space.vertices[corners]
        cand = [np.broadcast_to(ends, (n,) + ends.shape)]
        masks = [np.ones((n, len(ends)), dtype=bool)]
        if self.d0 == 1:
            s0 = self.s[:, 0]
            pts = (rhs / s0[None, :, None]).reshape(n, -1, 1)
            cand.append(pts)
            masks.append(z_space.covers(pts.reshape(-1, 1)).reshape(n, -1))
        else:
            # line x boundary-segment intersections, lower lines first
            pts, hit = edge_crossings(z_space, segments, self.s,
                                      rhs.transpose(0, 2, 1))
            cand.append(pts.reshape(n, -1, 2))
            masks.append(hit.reshape(n, -1))
            # line x line intersections across categories
            pair_rows = []
            for a, b in itertools.combinations(range(self.N), 2):
                M = np.stack([self.s[a], self.s[b]])
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                Minv = np.linalg.inv(M)
                pair_rows.append((a, b, Minv))
            if pair_rows:
                pts_ab = []
                for a, b, Minv in pair_rows:
                    for sa in (0, 1):
                        for sb in (0, 1):
                            # one column at a time, as in eval: a BLAS
                            # product rounds one row and a batch differently
                            pts_ab.append(rhs[:, a, sa, None] * Minv[:, 0]
                                          + rhs[:, b, sb, None] * Minv[:, 1])
                pts_ab = np.stack(pts_ab, axis=1)      # (n, P, 2)
                cand.append(pts_ab)
                masks.append(z_space.covers(pts_ab.reshape(-1, 2))
                             .reshape(n, -1))
        return (np.concatenate([np.ascontiguousarray(c) for c in cand], axis=1),
                np.concatenate(masks, axis=1))


class TabulatedCpwaCost(CostModel):
    """Cost tabulated on vertex pairs of the type/quality complexes and
    interpolated barycentrically in both arguments."""

    affine_in_x = True
    affine_in_z = True

    def __init__(self, x_spaces, z_space, tables):
        self.N = len(tables)
        self.x_spaces = list(x_spaces)
        self.z_space = z_space
        self.tables = [np.asarray(T, dtype=float) for T in tables]
        for i, T in enumerate(self.tables):
            if T.shape != (x_spaces[i].n_vertices, z_space.n_vertices):
                raise CostModelError("table %d has shape %s" % (i, T.shape))
        self.L1 = np.empty(self.N)
        self.L2 = np.empty(self.N)
        for i in range(self.N):
            self.L1[i], self.L2[i] = self._lipschitz(i)

    def _grad_bound(self, space, values_for_cells):
        """Max euclidean norm over cells of the gradient of the barycentric
        interpolation of per-vertex values; finite spaces use the worst
        pairwise difference quotient instead."""
        if isinstance(space, FiniteSpace):
            V = space.vertices
            if len(V) < 2:
                return 0.0
            dist = np.linalg.norm(V[:, None, :] - V[None], axis=2)
            np.fill_diagonal(dist, np.inf)
            diffs = np.abs(values_for_cells[:, :, None]
                           - values_for_cells[:, None, :])
            return float((diffs / dist[None]).max())
        worst = 0.0
        for s, idx in enumerate(space.simplices):
            G = space._minv[s][:, 1:]          # (d+1, d): grad of lam rows
            vals = values_for_cells[:, idx]    # (k, d+1)
            worst = max(worst, float(np.linalg.norm(vals @ G, axis=1).max()))
        return worst

    def _lipschitz(self, i):
        T = self.tables[i]
        # gradient in x for fixed z: worst over z-vertex mixes is at z-vertices
        l1 = self._grad_bound(self.x_spaces[i], T.T)
        l2 = self._grad_bound(self.z_space, T)
        return max(l1, 1e-12), max(l2, 1e-12)

    def eval(self, i, X, Z):
        Wx = full_vertex_weights(self.x_spaces[i], X)
        Wz = full_vertex_weights(self.z_space, Z)
        return ((Wx @ self.tables[i]) * Wz).sum(1)

    def eval_grid(self, i, X, Z):
        Wx = full_vertex_weights(self.x_spaces[i], X)
        Wz = full_vertex_weights(self.z_space, Z)
        return Wx @ self.tables[i] @ Wz.T


def business_location_cost(stations, c_walk=0.15, c_train=0.015,
                           c_restock=0.4, n_categories=5):
    """Build the business-location cost model (defaults as configured)."""
    return BusinessLocationCost(stations, c_walk, c_train, c_restock,
                                n_categories)


def barycenter_cost(weights, x_spaces, z_space, measures=None,
                    shift_accounting=True):
    """Build the 2-Wasserstein barycenter cost model.

    When ``shift_accounting`` is on and the measures are supplied, the
    objective constant -- the weighted sum of exact second moments -- is
    computed and stored on the model so bounds can be reported on the
    squared-W2 scale.
    """
    shift = 0.0
    if shift_accounting and measures is not None:
        from .measures import second_moment
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        shift = float(sum(w[i] * second_moment(m) for i, m in enumerate(measures)))
    return QuadraticBarycenterCost(weights, x_spaces, z_space, shift)


def capped_affine_cost(s_list, kappa1, kappa2):
    """Build the capped-affine preference matching cost model."""
    return CappedAffineCost(s_list, kappa1, kappa2)


def tabulated_cpwa_cost(x_spaces, z_space, tables):
    """Build a tabulated CPWA cost model from vertex-pair value tables."""
    return TabulatedCpwaCost(x_spaces, z_space, tables)
