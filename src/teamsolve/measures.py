"""Probability measures on type/quality spaces: finite discrete and
continuous piecewise-affine (CPWA) densities on a simplicial complex.

Moments against hat bases are computed in closed form (exact for the
degree-2 integrands that arise from affine density times affine hat), and
sampling is exact: inverse-CDF in one dimension, envelope rejection inside
higher-dimensional simplices.  Samplers take a caller-owned numpy Generator
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
        order = np.argsort(self.atoms[:, 0])
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
        restricted to that simplex."""
        if self.dim == 1:
            return self._sample_1d(rng, cells)
        return self._sample_reject(rng, cells)

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

    def _sample_1d(self, rng, cells):
        a, b, fa, fb = self._cell_ends(cells)
        m = rng.uniform(size=len(cells)) * ((b - a) * (fa + fb) / 2.0)
        return (a + _linear_cdf_inverse(a, b, fa, fb, m))[:, None]

    def _sample_reject(self, rng, cells):
        n = len(cells)
        d = self.dim
        out = np.empty((n, d))
        pending = np.arange(n)
        fv = self.vertex_density[self.complex.simplices]     # (m, d+1)
        fmax = fv.max(axis=1)
        while pending.size:
            k = pending.size
            lam = _uniform_barycentric(rng, k, d)
            cp = self.complex._cell_pts[cells[pending]]      # (k, d+1, d)
            x = (lam[:, :, None] * cp).sum(axis=1)
            fx = (lam * fv[cells[pending]]).sum(axis=1)
            acc = rng.uniform(size=k) * fmax[cells[pending]] <= fx
            out[pending[acc]] = x[acc]
            pending = pending[~acc]
        return out

    def quantile(self, t):
        """Generalized inverse CDF for a 1d CPWA measure."""
        if self.dim != 1:
            raise MeasureError("quantile requires a one-dimensional measure")
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise MeasureError("quantile level outside [0, 1]")
        order = np.argsort(self.complex._cell_pts[:, :, 0].min(axis=1))
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


def measure_from_json(doc, complex=None):
    """Build a measure from its JSON spec; CPWA specs need the complex."""
    if doc["type"] == "discrete":
        return DiscreteMeasure(np.asarray(doc["atoms"], dtype=float),
                               np.asarray(doc["weights"], dtype=float))
    if doc["type"] == "cpwa":
        if complex is None:
            raise MeasureError("cpwa measure spec needs its complex")
        return CpwaDensityMeasure(complex, np.asarray(doc["vertex_density"],
                                                      dtype=float))
    raise MeasureError("unknown measure type %r" % doc.get("type"))


def _moments_all_vertices_cpwa(measure):
    """Exact integral of every vertex hat function against a CPWA measure."""
    cx = measure.complex
    d = cx.dim
    f = measure.vertex_density
    scale = 1.0 / ((d + 1) * (d + 2))
    out = np.zeros(cx.n_vertices)
    vols = measure._vols
    for s, idx in enumerate(cx.simplices):
        fs = f[idx]
        tot = fs.sum()
        # integral over the cell of lam_u * density = vol*(tot + f_u)*scale
        out[idx] += vols[s] * (tot + fs) * scale
    return out


def moments_all_vertices(measure, space):
    """Integral of every vertex hat (or indicator) against the measure.

    Used to check the positivity precondition for the default initial
    constraint set of the cutting-plane solver.
    """
    if isinstance(measure, CpwaDensityMeasure):
        if measure.complex is not space and not _same_complex(measure.complex, space):
            raise SupportOutsideBasisError("measure lives on a different complex")
        return _moments_all_vertices_cpwa(measure)
    try:
        V, W = space.vertex_weights(measure.atoms)
    except PointOutsideComplexError as e:
        raise SupportOutsideBasisError(str(e)) from e
    out = np.zeros(space.n_vertices)
    np.add.at(out, V, measure.weights[:, None] * W)
    return out


def _same_complex(c1, c2):
    return (c1.vertices.shape == c2.vertices.shape
            and np.array_equal(c1.vertices, c2.vertices)
            and np.array_equal(c1.simplices, c2.simplices))


def moment_vector(measure, basis):
    """Exact moments of the basis functions against the measure.

    Discrete measures: weighted sum of basis values at the atoms.  CPWA
    measures: closed-form per-simplex integrals of (affine density) times
    (affine hat), exact for the degree-2 integrand; the measure must live on
    the basis complex.
    """
    if isinstance(measure, DiscreteMeasure):
        try:
            G = basis.eval_many(measure.atoms)
        except PointOutsideComplexError as e:
            raise SupportOutsideBasisError(str(e)) from e
        vals = measure.weights @ G
    elif isinstance(measure, CpwaDensityMeasure):
        if measure.complex is not basis.complex and not _same_complex(
                measure.complex, basis.complex):
            raise SupportOutsideBasisError(
                "cpwa measure must live on the basis complex")
        allm = _moments_all_vertices_cpwa(measure)
        vals = allm[basis._keep]
    else:
        raise MeasureError("unsupported measure type %r" % type(measure))
    if vals.size and (vals.min() < -1e-12 or vals.sum() > 1.0 + 1e-10):
        raise MeasureError("moment vector outside the probability simplex")
    return np.clip(vals, 0.0, None)


def sample(measure, rng, n):
    """Draw n i.i.d. points from the measure using the given rng stream."""
    if n < 1:
        raise MeasureError("n must be >= 1")
    return measure.sample(rng, n)


def quantile_1d(measure, t):
    """Left-continuous generalized inverse CDF of a one-dimensional measure."""
    return measure.quantile(t)


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
    f = measure.vertex_density
    vols = measure._vols
    dfac = math.factorial(d)
    denom3 = math.factorial(d + 3)
    total = 0.0
    for s, idx in enumerate(cx.simplices):
        V = cx.vertices[idx]                # (d+1, d)
        fs = f[idx]
        G = V @ V.T                         # <v_p, v_q>
        k = d + 1
        # integral of lam_p lam_q lam_r over the simplex
        base = vols[s] * dfac / denom3
        for p in range(k):
            for q in range(k):
                gpq = G[p, q]
                if gpq == 0.0:
                    continue
                for r in range(k):
                    mult = 1.0
                    if p == q == r:
                        mult = 6.0
                    elif p == q or q == r or p == r:
                        mult = 2.0
                    total += gpq * fs[r] * base * mult
    return float(total)


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
