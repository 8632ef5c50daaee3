"""Concrete cost models with Lipschitz constants and oracle decompositions.

Four families are shipped:

* ``business_location_cost`` -- commuting costs in a city with a railway
  line: scaled city-block walking plus a station-to-station train fare,
  taking the cheaper of the direct walk and the best station pair; the last
  category pays a pure restocking cost.
* ``barycenter_cost`` -- the 2-Wasserstein barycenter cost written without
  its measure-dependent constant, tracked separately so reported bounds
  refer to the sum of squared W2 distances; one closed-form minimization on
  the faces of the quality complex (``_face_minima``) serves its oracle
  (``face_minima``) and its quality selector (the boundary's faces).
* ``capped_affine_cost`` -- one-dimensional preference matching with a dead
  zone, a linear ramp and a saturation cap.
* ``tabulated_cpwa_cost`` -- cost given by a value table on vertex pairs,
  extended by barycentric interpolation in both arguments.

Each model carries its Lipschitz constants w.r.t. the Euclidean metric and
what makes the oracle, the transfer functions and the quality selector
exact: vertex exactness (``affine_in_x``, ``affine_in_z``), closed-form
face minima, or a min-of-convex-terms decomposition whose kinks (a
separable term's per-argument kinks, a coupled term's hyperplanes in the
joint space) yield finite candidate sets, built on ``geometry``'s
``covers``, ``boundary``, ``box``, ``EdgeFrame`` and face frames.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .geometry import EdgeFrame, FiniteSpace, has_duplicate_rows


class CostModelError(ValueError):
    pass


def _dot(a, b):
    """``(a * b).sum(-1)`` one column at a time, in numpy's order for an
    axis of fewer than 8 entries (the same bits on the short coordinate and
    edge axes here) without a reduction's per-row cost."""
    cols = [a[..., l] * b[..., l] for l in range(a.shape[-1])]
    return (sum(cols[1:], cols[0]) if cols
            else np.zeros(np.broadcast(a, b).shape[:-1]))


def full_vertex_weights(space, X):
    """(n, n_vertices) barycentric weight rows of points in a space."""
    V, W = space.vertex_weights(X)
    out = np.zeros((len(V), space.n_vertices))
    np.put_along_axis(out, V, W, axis=1)
    return out


# ---------------------------------------------------------------------------
# oracle term descriptors (min-of-terms decomposition)

class SeparableL1Term:
    """weight_x * ||x - anchor_x||_1 + weight_z * ||z - anchor_z||_1 + const.

    Either side may be absent (anchor None).  Convex, and separable across
    the two arguments, so each side is minimized independently over its own
    complex using the axis arrangement candidates.
    """

    def __init__(self, anchor_x, weight_x, anchor_z, weight_z, const):
        self.anchor_x = None if anchor_x is None else np.asarray(anchor_x, float)
        self.weight_x = float(weight_x)
        self.anchor_z = None if anchor_z is None else np.asarray(anchor_z, float)
        self.weight_z = float(weight_z)
        self.const = float(const)


class DirectL1Term:
    """weight * ||x - z||_1 with x and z of dimension ``dim``.

    Coupled: convex, and affine between its kink hyperplanes x_l = z_l.
    """

    def __init__(self, weight, dim):
        self.weight = float(weight)
        self.dim = dim

    def kinks(self):
        """(A, B, c) of the kink hyperplanes A x + B z = c, one per row."""
        return np.eye(self.dim), -np.eye(self.dim), np.zeros(self.dim)

    def eval(self, X, Z):
        return self.weight * np.abs(X - Z).sum(-1)


class ScalarRampTerm:
    """slope * (|x - <s, z>| - kappa1)^+ for scalar x.

    Coupled: convex, and affine between its kink hyperplanes
    x - <s, z> = +-kappa1.
    """

    def __init__(self, s, kappa1, slope):
        self.s = np.atleast_1d(np.asarray(s, dtype=float))
        self.kappa1 = float(kappa1)
        self.slope = float(slope)

    def kinks(self):
        """(A, B, c) of the kink hyperplanes A x + B z = c, one per row."""
        return (np.ones((2, 1)), -np.vstack([self.s, self.s]),
                np.array([self.kappa1, -self.kappa1]))

    def eval(self, X, Z):
        return self.slope * np.maximum(
            np.abs(X[..., 0] - Z @ self.s) - self.kappa1, 0.0)


# ---------------------------------------------------------------------------

class _Scratch:
    """A float array that grows, with an eighth to spare, to the largest
    length asked of it: one worker's room for a chunk whose size is known
    only once its candidates are."""

    def __init__(self):
        self.array = np.empty(0)

    def take(self, size):
        """The first ``size`` entries."""
        if len(self.array) < size:
            self.array = np.empty(size + size // 8)
        return self.array[:size]


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

    def check_lipschitz(self, x_sampler, z_sampler):
        """Random-pair verification of the declared Lipschitz constants on
        10,000 pairs per category, within a slack of 1e-9."""
        worst = 0.0
        for i in range(self.N):
            X1, X2 = x_sampler(i, 10000), x_sampler(i, 10000)
            Z1, Z2 = z_sampler(10000), z_sampler(10000)
            lhs = np.abs(self.eval(i, X1, Z1) - self.eval(i, X2, Z2))
            rhs = (self.L1[i] * np.linalg.norm(X1 - X2, axis=1)
                   + self.L2[i] * np.linalg.norm(Z1 - Z2, axis=1))
            worst = max(worst, float((lhs - rhs).max()))
        return worst <= 1e-9, worst

    def oracle_terms(self, i):
        raise CostModelError("%s has no exact oracle: it is not vertex-exact "
                             "in both arguments and lacks a term "
                             "decomposition" % type(self).__name__)

    # None, or ``face_minima(i, X, z_space, Wv)`` of a family affine in x:
    # per row x of X, c_i(x, .) minus the hat combination of the vertex
    # values Wv minimized on each face of the quality complex, as (n, K)
    # values (+inf off the face) and (n, K, d) points
    face_minima = None

    def z_opt_values(self, X_list, z_space):
        """Candidate minimizers of z -> sum_i c_i(x_i, z) per sample and the
        summed cost at each, flat in sample order: (m, d) points, (m,)
        values (+inf at an invalid candidate) and the (n,) index of each
        sample's first row; every sample has at least one candidate."""
        raise CostModelError("cost model lacks a quality selector")

    def z_opt_buffers(self, z_space):
        """None, or ``(row_bytes, make)``: the bytes of one sample's
        buffers, from which ``z_opt`` sizes its chunks, and ``make(rows)``,
        one worker's fixed-shape buffers for ``z_opt_values`` (its ``work``
        argument) over up to ``rows`` samples.  What the selector needs
        that does not change between chunks of samples is computed here,
        once per selector call; a family that returns None takes no
        buffers."""
        return None

    def z_vertex_values(self, X_list, z_space):
        """The quality vertices as every sample's candidates and the summed
        cost at each, flat as in ``z_opt_values``.  Exact where a vertex
        minimizes z -> sum_i c_i(x_i, z): over a finite quality space, or
        for a family with ``affine_in_z``."""
        zs = z_space.vertices
        n, V = np.atleast_2d(X_list[0]).shape[0], len(zs)
        vals = sum(self.eval_grid(i, X_list[i], zs) for i in range(self.N))
        return np.tile(zs, (n, 1)), vals.reshape(-1), np.arange(0, n * V, V)


class BusinessLocationCost(CostModel):
    """Commuting/restocking costs on a city with a railway line (2d)."""

    def __init__(self, stations, c_walk=0.15, c_train=0.015, c_restock=0.4,
                 n_categories=5):
        self.stations = np.atleast_2d(np.asarray(stations, dtype=float))
        if self.stations.shape[1] != 2:
            raise CostModelError("stations must be 2d points")
        if has_duplicate_rows(self.stations):
            raise CostModelError("stations must be distinct")
        for name, value in (("c_walk", c_walk), ("c_train", c_train),
                            ("c_restock", c_restock)):
            if not (isinstance(value, numbers.Real)
                    and not isinstance(value, bool) and math.isfinite(value)
                    and value >= 0):
                raise CostModelError("%s must be a finite number >= 0, not %r"
                                     % (name, value))
        if (isinstance(n_categories, bool)
                or not isinstance(n_categories, numbers.Integral)
                or n_categories < 1):
            raise CostModelError("n_categories must be an integer >= 1, "
                                 "not %r" % (n_categories,))
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
        """Walking category: the least of the direct walk and the best
        station route, min over exit stations jp of rides[jp] + dzu[jp],
        where rides are ``_rides`` of the walks from x to the stations and
        dzu the walk from jp to z; the last category walks directly at the
        restocking rate."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        direct_w = self.c_restock if i == self.N - 1 else self.c_walk
        direct = direct_w * np.abs(X - Z).sum(1)
        if i == self.N - 1:
            return direct
        U = self.stations
        # (S, n) walking costs to each station: no (n, S, S) temporary
        dxu = self.c_walk * (np.abs(X[:, 0] - U[:, :1])
                             + np.abs(X[:, 1] - U[:, 1:]))
        dzu = self.c_walk * (np.abs(Z[:, 0] - U[:, :1])
                             + np.abs(Z[:, 1] - U[:, 1:]))
        return np.minimum((self._rides(dxu) + dzu).min(axis=0), direct)

    def _rides(self, dxu):
        """The (S, n) cheapest rides from the (S, n) walks ``dxu`` to the
        stations: entry jp is the least over entry stations j of dxu[j] +
        c_train * |j - jp|.  Rounding is monotone, so rides[jp] + dzu[jp]
        is the least over j of (dxu[j] + fare) + dzu[jp]."""
        rides = np.empty_like(dxu)
        for jp, ride in enumerate(rides):
            np.add(dxu[0], self.c_train * jp, out=ride)
            for j in range(1, len(dxu)):
                np.minimum(ride, dxu[j] + self.c_train * abs(j - jp), out=ride)
        return rides

    def oracle_terms(self, i):
        dim = self.stations.shape[1]
        if i == self.N - 1:
            return [DirectL1Term(self.c_restock, dim)]
        terms = [DirectL1Term(self.c_walk, dim)]
        S = len(self.stations)
        for j in range(S):
            for jp in range(S):
                terms.append(SeparableL1Term(
                    self.stations[j], self.c_walk,
                    self.stations[jp], self.c_walk,
                    self.c_train * abs(j - jp)))
        return terms

    def z_opt_buffers(self, z_space):
        """The static kink lines per axis (stations and box sides, clipped
        into the box) and buffers for the (n, V, H) tables and the
        (S, n, V, H) quality-side walking costs.  The quality space must be
        a box grid."""
        if getattr(z_space, "box", None) is None:
            raise CostModelError("business-location z_opt needs a box-grid "
                                 "quality space")
        static = [np.unique(np.clip(np.append(self.stations[:, l], side),
                                    *side))
                  for l, side in enumerate(z_space.box)]
        V, H = (len(p) + self.N for p in static)
        S = len(self.stations)
        row_bytes = 8 * (V * H * (6 + S) + (V + H) * (2 + S) + 2 * S + 1)

        def make(rows):
            w = SimpleNamespace(
                static=[len(p) for p in static],
                starts=np.arange(0, rows * V * H, V * H),
                pools=[np.empty((rows, V)), np.empty((rows, H))],
                cand=np.empty((rows, V * H, 2)),
                dzu=np.empty((S, rows, V, H)), dzv=np.empty((S, rows, V, 1)),
                dzh=np.empty((S, rows, 1, H)), dxu=np.empty((S, rows)),
                dxh=np.empty((S, rows)), dv=np.empty((rows, V, 1)),
                dh=np.empty((rows, 1, H)), direct=np.empty((rows, V, H)),
                station=np.empty((rows, V, H)), route=np.empty((rows, V, H)),
                tot=np.empty((rows, V, H)))
            for pool, p in zip(w.pools, static):
                pool[:, :len(p)] = p
            return w
        return row_bytes, make

    def z_opt_values(self, X_list, z_space, work):
        """The summed cost on each sample's kink-line grid.

        The candidates are the cross product of the vertical/horizontal
        kink lines (station and per-sample type coordinates) clipped into
        the box, with ``cand[:, v*H + h] = (vpool[v], hpool[h])``; the
        static lines (stations and box sides) are taken once each: an exact
        duplicate cannot change the lexicographic pick.  The (n, V, H)
        table is built from per-axis walking costs with ``eval``'s
        grouping: the quality-side walks dzu depend on the quality point
        only, so they are built once per call as an (S, n, V, H) array, and
        each walking category then adds its rides (``_rides``, one per exit
        station and sample) to them, with S additions and S - 1 minimums.
        Every entry equals ``eval`` on its pair bit for bit.  ``work`` is a
        buffer set of ``z_opt_buffers`` for at least n samples, and the
        results are views into it.
        """
        X_list = [np.atleast_2d(X) for X in X_list]
        n, w = len(X_list[0]), work
        for l, (pool, k, side) in enumerate(zip(w.pools, w.static,
                                                z_space.box)):
            for i, X in enumerate(X_list):
                np.clip(X[:, l], *side, out=pool[:n, k + i])
        vpool, hpool = (pool[:n] for pool in w.pools)
        V, H = vpool.shape[1], hpool.shape[1]
        grid = w.cand[:n].reshape(n, V, H, 2)
        grid[..., 0] = vpool[:, :, None]
        grid[..., 1] = hpool[:, None, :]
        v, h = vpool[:, :, None], hpool[:, None, :]
        U = self.stations
        # (S, n, V, H) quality-side walking costs, shared by the categories
        dzv, dzh, dzu = w.dzv[:, :n], w.dzh[:, :n], w.dzu[:, :n]
        direct, station, route, tot = (w.direct[:n], w.station[:n],
                                       w.route[:n], w.tot[:n])
        np.abs(np.subtract(v, U[:, :1, None, None], out=dzv), out=dzv)
        np.abs(np.subtract(h, U[:, 1:, None, None], out=dzh), out=dzh)
        np.multiply(self.c_walk, np.add(dzv, dzh, out=dzu), out=dzu)
        dv, dh, dxu, dxh = w.dv[:n], w.dh[:n], w.dxu[:, :n], w.dxh[:, :n]
        tot.fill(0.0)
        for i, X in enumerate(X_list):
            x0, x1 = X[:, :1, None], X[:, 1:2, None]
            direct_w = self.c_restock if i == self.N - 1 else self.c_walk
            np.abs(np.subtract(x0, v, out=dv), out=dv)
            np.abs(np.subtract(x1, h, out=dh), out=dh)
            np.multiply(direct_w, np.add(dv, dh, out=direct), out=direct)
            if i == self.N - 1:
                tot += direct
                continue
            np.abs(np.subtract(X[:, 0], U[:, :1], out=dxu), out=dxu)
            np.abs(np.subtract(X[:, 1], U[:, 1:], out=dxh), out=dxh)
            np.multiply(self.c_walk, np.add(dxu, dxh, out=dxu), out=dxu)
            rides = self._rides(dxu)[:, :, None, None]
            np.add(rides[0], dzu[0], out=station)
            for jp in range(1, len(U)):
                np.minimum(station, np.add(rides[jp], dzu[jp], out=route),
                           out=station)
            np.minimum(station, direct, out=station)
            tot += station
        return w.cand[:n].reshape(-1, 2), tot.reshape(-1), w.starts[:n]


class QuadraticBarycenterCost(CostModel):
    """c_i(x, z) = lam_i (||z||^2 - 2 <x, z>), the squared-distance cost with
    its measure-dependent constant removed.  The constant (sum of weighted
    second moments) is kept in ``shift`` so that shifted bounds estimate the
    weighted sum of squared W2 distances."""

    affine_in_x = True

    def __init__(self, weights, x_spaces, z_space, shift):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1 or not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise CostModelError("weights must be positive and sum to 1")
        if len(x_spaces) != len(w):
            raise CostModelError("%d weights but %d type spaces"
                                 % (len(w), len(x_spaces)))
        if any(sp.dim != z_space.dim for sp in x_spaces):
            raise CostModelError("every type space needs the quality "
                                 "dimension %d" % z_space.dim)
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

    def face_minima(self, i, X, z_space, Wv):
        """``CostModel.face_minima``: ``_face_minima`` over every face."""
        return self._face_minima(self.lam[i], X, z_space.face_frames, Wv)

    @staticmethod
    def _face_minima(lam, X, frames, Wv):
        """Per row x of X, lam (||z||^2 - 2 <x, z>) minus the hat
        combination of the vertex values Wv, minimized on each face of
        ``frames`` (``geometry.face_frames``): (n, K) values and (n, K, d)
        points, the faces in their order.

        The hat combination is affine on a face with base point p0 and edge
        rows D, so the objective is a strictly convex quadratic there, least
        at z = p0 + D^T t with t = G (D (x - p0) + dW / (2 lam)), dW the
        steps of Wv along the edges; it is evaluated as G D x + G (dW /
        (2 lam) - D p0), so x enters one product.  The minimum over a union
        of faces is the critical point of the face that holds it in its
        relative interior, so a face whose t is not in the open simplex
        gets +inf.  A 0-face is its own minimum, z = p0, valued in closed
        form.
        """
        n, d = X.shape
        vals, Z = [], []
        for F, p0, D, G, GD in frames:
            w0 = Wv[F[:, 0]]
            if not D.shape[1]:
                vals.append(lam * (_dot(p0, p0) - 2.0 * _dot(X[:, None, :], p0))
                            - w0)
                Z.append(np.broadcast_to(p0, (n,) + p0.shape))
                continue
            dW = Wv[F[:, 1:]] - w0[:, None]                # (f, j)
            shift = dW / (2.0 * lam) - (D @ p0[:, :, None])[..., 0]
            t = ((X @ GD.reshape(-1, d).T).reshape(n, len(F), -1)
                 + (G @ shift[:, :, None])[..., 0])        # (n, f, j)
            inside = ((t.min(-1, initial=1.0) > 1e-12)
                      & (t.sum(-1) < 1 - 1e-12))
            z = p0 + _dot(t[..., None, :], D.swapaxes(-1, -2))
            v = (lam * (_dot(z, z) - 2.0 * _dot(X[:, None, :], z))
                 - (w0 + _dot(t, dW)))
            vals.append(np.where(inside, v, np.inf))
            Z.append(z)
        return np.concatenate(vals, axis=1), np.concatenate(Z, axis=1)

    def z_opt_values(self, X_list, z_space):
        """Each sample's weighted type mean, then its projection candidates
        onto the quality region's boundary.

        The summed cost is ||z||^2 - 2 <xbar, z> for the weighted mean xbar,
        so its minimizer is xbar where the region covers it and else its
        projection onto the boundary, the ``_face_minima`` of lam = 1 and no
        multipliers on the corners and segments (``boundary_frames``).  The
        first candidate is xbar, +inf where it lies outside; the boundary
        faces follow, +inf where xbar lies inside.
        """
        xbar = np.zeros_like(X_list[0])
        for i in range(self.N):
            xbar += self.lam[i] * X_list[i]
        inside = z_space.covers(xbar)
        cand = [xbar[:, None, :]]
        vals = [np.where(inside, -_dot(xbar, xbar), np.inf)[:, None]]
        if not inside.all():
            if z_space.dim > 2:
                raise CostModelError(
                    "quality selector needs the quality space to contain "
                    "the weighted type means in dimension > 2")
            out = np.flatnonzero(~inside)
            pv, pts = self._face_minima(1.0, xbar[out],
                                        z_space.boundary_frames,
                                        np.zeros(z_space.n_vertices))
            cand.append(np.zeros((len(xbar),) + pts.shape[1:]))
            cand[-1][out] = pts
            vals.append(np.full((len(xbar), pv.shape[1]), np.inf))
            vals[-1][out] = pv
        vals = np.concatenate(vals, axis=1)
        n, k = vals.shape
        return (np.concatenate(cand, axis=1).reshape(-1, z_space.dim),
                vals.reshape(-1), np.arange(0, n * k, k))


class CappedAffineCost(CostModel):
    """c_i(x, z) = (1/N) ((|x - <s_i, z>| ^ kappa2) - kappa1)^+ for scalar
    types; equals min{ramp, saturation constant}, which keeps the oracle and
    the quality selector exact on small candidate sets.

    ``kappa1`` and ``kappa2`` are one number for every category or one per
    category.  ``kappa1 = 0`` and ``kappa2 = inf`` are accepted (degenerate
    instances such as a plain |x - <s, z>| cost for cross-checks)."""

    def __init__(self, s_list, kappa1, kappa2):
        for name, value in (("s", s_list), ("kappa1", kappa1),
                            ("kappa2", kappa2)):
            # numpy would read True as 1.0
            if any(isinstance(v, (bool, np.bool_))
                   for v in np.asarray(value, dtype=object).flat):
                raise CostModelError("%s must hold numbers, not booleans"
                                     % name)
        self.s = np.atleast_2d(np.asarray(s_list, dtype=float))
        # written so that a NaN fails each test
        if self.s.ndim != 2 or not np.all(
                np.abs(np.linalg.norm(self.s, axis=1) - 1.0) <= 1e-9):
            raise CostModelError("directions must be finite unit vectors")
        self.N, self.d0 = self.s.shape
        self.kappa1 = self._per_category(kappa1, "kappa1")
        self.kappa2 = self._per_category(kappa2, "kappa2")
        if not (np.all(np.isfinite(self.kappa1) & (self.kappa1 >= 0))
                and np.all(self.kappa2 > self.kappa1)):
            raise CostModelError("need finite kappa1 >= 0 and kappa2 > "
                                 "kappa1")
        self.L1 = np.full(self.N, 1.0 / self.N)
        self.L2 = np.full(self.N, 1.0 / self.N)

    def _per_category(self, k, name):
        """One value per category from one number or N of them."""
        k = np.asarray(k, dtype=float)
        if k.ndim > 1 or k.ndim == 1 and len(k) != self.N:
            raise CostModelError("%s must be one number or %d, one per "
                                 "category" % (name, self.N))
        return np.full(self.N, k)

    def eval(self, i, X, Z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n = np.broadcast_shapes((len(X),), (len(Z),))
        return self._ramp(X[:, 0], self._sz(self.s[i], Z, np.empty(n),
                                            np.empty(n)),
                          self.kappa1[i], self.kappa2[i])

    def _sz(self, s, Z, out, tmp):
        """<s, z> at the quality points ``Z``, written into ``out``: for
        one direction s of d numbers, or for c of them as a (d, c, 1)
        array into a (c, points) table; ``tmp`` is scratch of out's shape.
        Summed one column at a time: a GEMV rounds one row and a batch
        differently."""
        np.multiply(s[0], Z[:, 0], out=out)
        for j in range(1, self.d0):
            out += np.multiply(s[j], Z[:, j], out=tmp)
        return out

    def _ramp(self, x, out, kappa1, kappa2):
        """The costs from the <s_i, z> values ``out``, in place:
        (min(|x - <s_i, z>|, kappa2) - kappa1)^+ / N, with the scalar types
        ``x`` and the bands (numbers, or (c, 1) columns of a table)
        broadcast against ``out``."""
        np.abs(np.subtract(x, out, out=out), out=out)
        np.minimum(out, kappa2, out=out)
        np.subtract(out, kappa1, out=out)
        np.maximum(out, 0.0, out=out)
        return np.divide(out, self.N, out=out)

    def oracle_terms(self, i):
        terms = [ScalarRampTerm(self.s[i], self.kappa1[i], 1.0 / self.N)]
        if np.isfinite(self.kappa2[i]):
            terms.append(SeparableL1Term(
                None, 0.0, None, 0.0,
                (self.kappa2[i] - self.kappa1[i]) / self.N))
        return terms

    @cached_property
    def _line_pairs(self):
        """The crossings of the kink lines of two categories with
        non-parallel directions, as ``(ia, ib, Ma, Mb)``: crossing p is
        ``rhs[ia[p]] * Ma[p] + rhs[ib[p]] * Mb[p]``, with ``rhs[2a + 0]``
        and ``rhs[2a + 1]`` the right-hand sides x_a -+ kappa1_a of
        category a's lines and Ma, Mb the columns of inv([s_a; s_b]).
        Pairs in ``itertools.combinations`` order, then the lower line of
        a, then that of b, first."""
        ia, ib, Ma, Mb = [], [], [], []
        for a, b in itertools.combinations(range(self.N), 2):
            M = np.stack([self.s[a], self.s[b]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            Minv = np.linalg.inv(M)
            for sa in (0, 1):
                for sb in (0, 1):
                    ia.append(2 * a + sa)
                    ib.append(2 * b + sb)
                    Ma.append(Minv[:, 0])
                    Mb.append(Minv[:, 1])
        return (np.array(ia, dtype=int), np.array(ib, dtype=int),
                np.reshape(Ma, (-1, self.d0)), np.reshape(Mb, (-1, self.d0)))

    def z_opt_buffers(self, z_space):
        """The boundary's ends and, in 2-D, the line pairs and the frame of
        the boundary's segments, and buffers for k candidates per sample,
        one coordinate at a time: the C ends, then the 2N lines' points
        (1-D) or their crossings with the E segments and the P line pairs'
        crossings (2-D).  The valid candidates' coordinates and their
        tables of types and costs go in a scratch array that grows to the
        largest chunk's need."""
        corners, segments = z_space.boundary
        ends = z_space.vertices[corners]
        N, d, C, E = self.N, self.d0, len(ends), len(segments)
        pairs = self._line_pairs if d > 1 else None
        P = 0 if pairs is None else len(pairs[0])
        k = C + (2 * N if d == 1 else 2 * N * E + P)
        # the segment crossings' edge parameters, then the line pairs' two
        # offsets, share one scratch row per sample
        width = max(2 * N * E, 2 * P)
        # a valid candidate takes its coordinates and a column of each
        # table in the scratch, an eighth to spare, and about as much again
        # in flat indices and the selection's masks; a fifth of the
        # candidates were valid on the bench and on random lines at N = 4
        # to 64, and a quarter is counted
        row_bytes = (8 * (k * d + 3 * N + width + 1) + k
                     + 10 * (d + 2 * N + 2) * k // 4)
        frame = EdgeFrame(z_space, segments, self.s) if d > 1 else None

        def make(rows):
            cand = np.empty((d, rows, k))
            valid = np.empty((rows, k), dtype=bool)
            cand[:, :, :C] = ends.T[:, None]
            valid[:, :C] = True
            crossings = slice(C, C + 2 * N * E)
            shared = np.empty((rows, width))
            return SimpleNamespace(
                frame=frame, pairs=pairs, x=np.empty((N, rows)),
                rhs=np.empty((rows, N, 2)), cand=cand, valid=valid,
                lines_at=slice(C, k), pairs_at=slice(k - P, k),
                # views: the 1-D line points, the 2-D segment crossings
                lines=cand[0, :, C:].reshape(rows, N, 2) if d == 1 else None,
                edges=np.moveaxis(
                    cand[:, :, crossings].reshape(d, rows, 2, N, E), 0, -1),
                hit=valid[:, crossings].reshape(rows, 2, N, E),
                t=shared[:, :2 * N * E].reshape(rows, 2, N, E),
                ra=shared[:, :P], rb=shared[:, P:2 * P],
                samples=np.arange(rows), scratch=_Scratch())
        return row_bytes, make

    def z_opt_values(self, X_list, z_space, work):
        """Kink-line arrangement candidates for the summed cost, from the
        quality region's boundary (``_kink_candidates``): the valid ones,
        those inside the region, and the summed cost at each.

        The categories' costs at the valid candidates are one (N, m) table
        (``_sz``, then ``_ramp``: ``eval``'s operations), summed down its
        rows by one ``np.add.reduce`` along its first axis, which adds the
        rows in order, as ``eval``'s sum over the categories would.  So the
        calls and the Python lines of a chunk do not depend on N.  ``work``
        is a buffer set of ``z_opt_buffers`` for at least n samples, and the
        results are views into it."""
        n, N, d, w = len(X_list[0]), self.N, self.d0, work
        x = np.concatenate(X_list, axis=1, out=w.x[:, :n].T)
        self._kink_candidates(x, z_space, w)
        flat = np.flatnonzero(w.valid[:n])
        m = len(flat)
        scratch = w.scratch.take((d + 2 * N + 1) * m)
        zc = scratch[:d * m].reshape(d, m)
        # the sum, then the categories' costs
        costs = scratch[d * m:(d + N + 1) * m].reshape(N + 1, m)
        types = scratch[(d + N + 1) * m:].reshape(N, m)
        np.take(w.cand[:, :n].reshape(d, -1), flat, axis=1, out=zc,
                mode="clip")
        rows = np.floor_divide(flat, w.valid.shape[1], out=flat)
        self._sz(self.s.T[:, :, None], zc.T, costs[1:], types)
        np.take(w.x[:, :n], rows, axis=1, out=types, mode="clip")
        self._ramp(types, costs[1:], self.kappa1[:, None],
                   self.kappa2[:, None])
        tot = np.add.reduce(costs[1:], axis=0, out=costs[0])
        return zc.T, tot, np.searchsorted(rows, w.samples[:n])

    def _kink_candidates(self, x, z_space, w):
        """Fill ``w.cand`` and ``w.valid`` with the candidates of the
        scalar types ``x`` ((n, N), one column per category) and the mask
        of those inside the region.

        Writing each category cost as min{(|f_i| - kappa1)^+, const}, every
        selection of branches gives a convex function whose only kinks lie
        on the 2N lines <s_i, z> = x_i +- kappa1_i.  It is affine on each
        cell of that line arrangement, and the summed cost does not depend
        on the quality mesh, so its minimum over the region and the
        lexicographically smallest minimizer lie at a vertex of the
        arrangement clipped to the region: a line/line crossing inside the
        region, a line/boundary-segment crossing or a boundary corner (the
        two interval ends in 1-D).  That candidate set is exact."""
        n = len(x)
        rhs = w.rhs[:n]
        np.subtract(x, self.kappa1, out=rhs[:, :, 0])
        np.add(x, self.kappa1, out=rhs[:, :, 1])
        if self.d0 == 1:
            np.divide(rhs, self.s[None, :, :1], out=w.lines[:n])
            w.valid[:n, w.lines_at] = z_space.covers(
                w.cand[0, :n, w.lines_at, None])
            return
        # line x boundary-segment crossings, lower lines first
        w.frame.crossings(rhs.transpose(0, 2, 1),
                          out=(w.edges[:n], w.hit[:n], w.t[:n]))
        # line x line crossings across categories, one column at a time as
        # in eval: a BLAS product rounds one row and a batch differently.
        # The second line's term of a coordinate is scratch in the last
        # coordinate's rows, not yet filled, and for the last in its own
        # offsets
        ia, ib, Ma, Mb = w.pairs
        lines = rhs.reshape(n, -1)
        ra = np.take(lines, ia, axis=1, out=w.ra[:n], mode="clip")
        rb = np.take(lines, ib, axis=1, out=w.rb[:n], mode="clip")
        pts = w.cand[:, :n, w.pairs_at]
        for l in range(self.d0):
            np.multiply(ra, Ma[:, l], out=pts[l])
            pts[l] += np.multiply(rb, Mb[:, l],
                                  out=rb if l == self.d0 - 1 else pts[-1])
        w.valid[:n, w.pairs_at] = z_space.covers(np.moveaxis(pts, 0, -1))


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


def business_location_cost(stations, **kwargs):
    """Build the business-location cost model; the keywords and their
    defaults are ``BusinessLocationCost``'s."""
    return BusinessLocationCost(stations, **kwargs)


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
        if len(measures) != len(w):
            raise CostModelError("%d weights but %d measures"
                                 % (len(w), len(measures)))
        shift = float(sum(w[i] * second_moment(m) for i, m in enumerate(measures)))
    return QuadraticBarycenterCost(weights, x_spaces, z_space, shift)


def capped_affine_cost(s_list, kappa1, kappa2):
    """Build the capped-affine preference matching cost model."""
    return CappedAffineCost(s_list, kappa1, kappa2)


def tabulated_cpwa_cost(x_spaces, z_space, tables):
    """Build a tabulated CPWA cost model from vertex-pair value tables."""
    return TabulatedCpwaCost(x_spaces, z_space, tables)
