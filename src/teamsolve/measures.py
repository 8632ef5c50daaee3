"""Probability measures on type/quality spaces: finite discrete and
continuous piecewise-affine (CPWA) densities on a simplicial complex.

Moments against hat bases are computed in closed form (exact for the
degree-2 integrands that arise from affine density times affine hat), and
sampling is exact: a density's cell, then a Dirichlet mixture of
barycentric weights inside it.  Samplers take a caller-owned numpy Generator
so parallel workers can use independently seeded streams.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (FiniteSpace, PointOutsideComplexError,
                       has_duplicate_rows)

MASS_TOL = 1e-6


class MeasureError(ValueError):
    pass


class SupportOutsideBasisError(MeasureError):
    """Measure support is not covered by the basis complex."""


class DiscreteMeasure:
    """Finitely supported probability measure: atoms with positive weights."""

    def __init__(self, atoms, weights):
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise MeasureError("atoms/weights length mismatch")
        if not (np.isfinite(self.atoms).all()
                and np.isfinite(self.weights).all()):
            raise MeasureError("atoms and weights must be finite")
        if np.any(self.weights <= 0):
            raise MeasureError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            if abs(self.weights.sum() - 1.0) > MASS_TOL:
                raise MeasureError("weights sum to %.6g, not 1" % self.weights.sum())
            self.weights = self.weights / self.weights.sum()
        if has_duplicate_rows(self.atoms):
            raise MeasureError("atoms must be distinct")

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def n_atoms(self):
        return self.atoms.shape[0]

    def sample(self, rng, n):
        idx = rng.choice(self.n_atoms, size=n, p=self.weights)
        return self.atoms[idx]

    def quantile(self, t):
        """Generalized inverse CDF (1d only), inf convention."""
        if self.dim != 1:
            raise MeasureError("quantile requires a one-dimensional measure")
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise MeasureError("quantile level outside [0, 1]")
        order = np.argsort(self.atoms[:, 0], kind="stable")
        pts = self.atoms[order, 0]
        cum = np.cumsum(self.weights[order])
        cum[-1] = 1.0
        idx = np.minimum(np.searchsorted(cum, t, side="left"), len(pts) - 1)
        return pts[idx]


class CpwaDensityMeasure:
    """Absolutely continuous measure whose density is affine on each simplex.

    The density is specified by one nonnegative value per vertex of the
    complex and interpolated barycentrically.  The total mass must be within
    ``MASS_TOL`` of one; it is then normalized exactly.
    """

    def __init__(self, complex, vertex_density):
        self.complex = complex
        f = np.atleast_1d(np.asarray(vertex_density, dtype=float))
        if f.shape[0] != complex.n_vertices:
            raise MeasureError("need one density value per vertex")
        if not np.isfinite(f).all() or np.any(f < 0):
            raise MeasureError("density must be finite and nonnegative at "
                               "every vertex")
        vols = complex.volumes()
        cell_mean = f[complex.simplices].mean(axis=1)
        mass = float(np.dot(vols, cell_mean))
        if abs(mass - 1.0) > MASS_TOL:
            raise MeasureError(
                "density integrates to %.8g; normalize the input (tolerance %g)"
                % (mass, MASS_TOL))
        self.vertex_density = f / mass
        self._cell_mass = vols * cell_mean / mass
        self._vols = vols

    @property
    def dim(self):
        return self.complex.dim

    def density(self, X):
        """Density values at an (n, d) array of covered points."""
        V, W = self.complex.vertex_weights(X)
        return (self.vertex_density[V] * W).sum(axis=1)

    def sample(self, rng, n):
        return self.sample_cells(
            rng, rng.choice(self.complex.n_simplices, size=n,
                            p=self._cell_mass))

    def sample_cells(self, rng, cells):
        """One point per entry of ``cells``, drawn from the density
        restricted to that simplex, from d + 2 uniforms each.

        The density is sum_k f_k lam_k in the barycentric weights lam, and
        each lam_k integrates to the same mass over the simplex, so it is a
        mixture: vertex k with probability f_k / sum f, then lam from
        Dirichlet(1, ..., 2 at k, ..., 1), whose d + 2 uniform spacings
        (``_uniform_barycentric``) have their last one added to part k
        (Devroye, *Non-Uniform Random Variate Generation*, 1986)."""
        n, d = len(cells), self.dim
        cum = np.cumsum(self.vertex_density[self.complex.simplices[cells]],
                        axis=1)
        pick = rng.uniform(size=n) * cum[:, -1]
        k = np.minimum((cum <= pick[:, None]).sum(axis=1), d)
        lam = _uniform_barycentric(rng, n, d + 1)
        lam[np.arange(n), k] += lam[:, -1]
        return (lam[:, :-1, None] * self.complex._cell_pts[cells]).sum(axis=1)

    def _cell_ends(self, cells):
        """Left and right ends of the given 1d cells and the density at
        each end."""
        pts = self.complex._cell_pts[cells, :, 0]   # (n, 2) endpoints
        idx = self.complex.simplices[cells]
        left_first = pts[:, 0] <= pts[:, 1]
        f0 = self.vertex_density[idx[:, 0]]
        f1 = self.vertex_density[idx[:, 1]]
        return (pts.min(axis=1), pts.max(axis=1),
                np.where(left_first, f0, f1), np.where(left_first, f1, f0))

    def quantile(self, t):
        """Generalized inverse CDF for a 1d CPWA measure."""
        if self.dim != 1:
            raise MeasureError("quantile requires a one-dimensional measure")
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise MeasureError("quantile level outside [0, 1]")
        order = np.argsort(self.complex._cell_pts[:, :, 0].min(axis=1),
                           kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(self._cell_mass[order])])
        cum[-1] = 1.0
        last = len(order) - 1
        cell = np.clip(np.searchsorted(cum, t, side="left") - 1, 0, last)
        # points with t exactly at a cumulative boundary belong to the cell to
        # the right under the inf convention, except at t = 1
        right = (t > cum[cell + 1]) & (cell < last)
        cell = cell + right.astype(int)
        a, b, fa, fb = (e[cell] for e in self._cell_ends(order))
        return np.minimum(a + _linear_cdf_inverse(a, b, fa, fb, t - cum[cell]),
                          b)


def _linear_cdf_inverse(a, b, fa, fb, m):
    """Offset from ``a`` at which a density linear from ``fa`` at ``a`` to
    ``fb`` at ``b`` has accumulated mass ``m``: the stable root of the
    quadratic CDF, also for ``fa`` near 0."""
    slope = (fb - fa) / (b - a)
    disc = np.clip(fa * fa + 2.0 * slope * m, 0.0, None)
    denom = fa + np.sqrt(disc)
    return np.where(denom > 0, 2.0 * m / np.where(denom > 0, denom, 1.0), 0.0)


def _uniform_barycentric(rng, n, d):
    """(n, d+1) barycentric weights uniform on the d-simplex: the spacings
    of d sorted uniforms."""
    u = rng.uniform(size=(n, d))
    u.sort(axis=1)
    lam = np.empty((n, d + 1))
    lam[:, 0] = u[:, 0]
    lam[:, 1:-1] = u[:, 1:] - u[:, :-1]
    lam[:, -1] = 1.0 - u[:, -1]
    return lam


def moments_all_vertices(measure, space):
    """Integral of every vertex hat (or indicator) of a space against the
    measure, in closed form.

    Discrete measures: the atoms' barycentric weights, summed per vertex.
    CPWA measures, which must live on ``space``: per simplex, the integral
    of lam_u times the affine density is vol * (sum of f + f_u) / ((d+1)(d+2)).
    """
    out = np.zeros(space.n_vertices)
    if isinstance(measure, CpwaDensityMeasure):
        cx = measure.complex
        if cx is not space and not (
                np.array_equal(cx.vertices, space.vertices)
                and np.array_equal(cx.simplices,
                                   getattr(space, "simplices", None))):
            raise SupportOutsideBasisError(
                "cpwa measure must live on the basis complex")
        f = measure.vertex_density[cx.simplices]            # (m, d+1)
        d = cx.dim
        np.add.at(out, cx.simplices,
                  measure._vols[:, None] * (f.sum(axis=1, keepdims=True) + f)
                  * (1.0 / ((d + 1) * (d + 2))))
        return out
    if not isinstance(measure, DiscreteMeasure):
        raise MeasureError("unsupported measure type %r" % type(measure))
    try:
        V, W = space.vertex_weights(measure.atoms)
    except PointOutsideComplexError as e:
        raise SupportOutsideBasisError(str(e)) from e
    np.add.at(out, V, measure.weights[:, None] * W)
    return out


def moment_vector(measure, basis):
    """Exact moments of the basis functions against the measure: the
    vertex moments (``moments_all_vertices``) of the basis's kept
    vertices."""
    vals = moments_all_vertices(measure, basis.complex)[basis._keep]
    if vals.size and (vals.min() < -1e-12 or vals.sum() > 1.0 + 1e-10):
        raise MeasureError("moment vector outside the probability simplex")
    return np.clip(vals, 0.0, None)


def sample(measure, rng, n):
    """Draw n i.i.d. points from the measure using the given rng stream."""
    if n < 1:
        raise MeasureError("n must be >= 1")
    return measure.sample(rng, n)


def spawn_rngs(seed, n):
    """Independent child generators derived from a master seed."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(n)]


def second_moment(measure):
    """Exact value of the integral of ||x||_2^2 against the measure.

    For CPWA measures the integrand (quadratic times affine density) is a
    degree-3 polynomial per simplex, integrated in closed form via the
    barycentric monomial formula.
    """
    if isinstance(measure, DiscreteMeasure):
        return float(measure.weights @ (measure.atoms ** 2).sum(axis=1))
    if not isinstance(measure, CpwaDensityMeasure):
        raise MeasureError("unsupported measure type %r" % type(measure))
    cx = measure.complex
    d = cx.dim
    k = range(d + 1)
    # integral of lam_p lam_q lam_r over a simplex, per unit of
    # vol * d! / (d+3)!
    mono = np.array([[[(1 + (p == q)) * (1 + (p == r) + (q == r))
                       for r in k] for q in k] for p in k], dtype=float)
    P = cx._cell_pts                                # (m, d+1, d)
    total = np.einsum("spi,sqi,sr,pqr,s->", P, P,
                      measure.vertex_density[cx.simplices], mono,
                      measure._vols, optimize=True)
    return float(total * math.factorial(d) / math.factorial(d + 3))


def random_cpwa(complex, rng):
    """Synthetic CPWA density with Dirichlet-style random vertex weights.

    Test/demo helper only; the densities are generated locally and do not
    correspond to any published dataset.
    """
    f = rng.gamma(1.0, 1.0, size=complex.n_vertices) + 0.05
    vols = complex.volumes()
    mass = float(np.dot(vols, f[complex.simplices].mean(axis=1)))
    return CpwaDensityMeasure(complex, f / mass)


def uniform_points(space, rng, n):
    """n points uniformly distributed over the covered set of a complex,
    or uniformly over the points of a finite space."""
    if isinstance(space, FiniteSpace):
        return space.vertices[rng.integers(0, space.n_vertices, size=n)]
    vols = space.volumes()
    cells = rng.choice(space.n_simplices, size=n, p=vols / vols.sum())
    lam = _uniform_barycentric(rng, n, space.dim)
    return (lam[:, :, None] * space._cell_pts[cells]).sum(axis=1)
