"""W1-optimal coupling constructions between a discrete source and a
discrete, continuous (CPWA), or one-dimensional target.

Three constructions are provided, matching the measure classes the
equilibrium assembly encounters:

* ``ot_discrete`` -- exact transport plan between two finite measures via
  an LP; the conditional rows give the sampler.
* ``ot_quantile_1d`` -- the comonotone construction on the line: the source
  atom of rank j is spread over the target quantile range between the
  cumulative levels F(j-1) and F(j) using an independent uniform.
* ``ot_semidiscrete`` -- stochastic supergradient ascent on the concave
  semi-discrete dual; the optimal potentials induce assignment cells whose
  conditional laws are sampled by rejection.

All samplers are read-only after construction and draw from caller-owned
numpy Generators.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .linprog import solve_min
from .measures import CpwaDensityMeasure, quantile_1d


class TransportError(RuntimeError):
    pass


class CellMassMismatchError(TransportError):
    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


def _pairwise_dist(A, B):
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(-1))


class DiscreteCoupling:
    """Exact coupling matrix between two discrete measures."""

    def __init__(self, source, target, plan, cost):
        self.source = source
        self.target = target
        self.plan = plan                      # (n1, n2), row sums = source w
        self.cost = float(cost)
        rows = plan.sum(axis=1)
        self._cond = plan / rows[:, None]
        self._cond_cum = np.cumsum(self._cond, axis=1)

    def sample_given_source(self, rng, src_idx):
        """Target points conditionally on source atom indices."""
        u = rng.uniform(size=len(src_idx))
        cum = self._cond_cum[src_idx]
        cols = (u[:, None] > cum).sum(axis=1)
        cols = np.minimum(cols, self.plan.shape[1] - 1)
        return self.target.atoms[cols], cols

    def sample_pairs(self, rng, n):
        src = rng.choice(self.source.n_atoms, size=n, p=self.source.weights)
        tgt, _ = self.sample_given_source(rng, src)
        return self.source.atoms[src], tgt


def ot_discrete(nu1, nu2):
    """Optimal W1 coupling of two discrete measures.

    Returns ``(DiscreteCoupling, w1)``.  The plan solves the transport LP
    exactly; row and column sums reproduce the marginals.
    """
    D = _pairwise_dist(nu1.atoms, nu2.atoms)
    n1, n2 = D.shape
    if n1 == 1:
        plan = nu2.weights[None, :].copy()
    elif n2 == 1:
        plan = nu1.weights[:, None].copy()
    else:
        # row sums, then the column sums but the last, which is redundant
        A_eq = sparse.vstack([
            sparse.kron(sparse.eye(n1), np.ones((1, n2)), format="csr"),
            sparse.kron(np.ones((1, n1)), sparse.eye(n2), format="csr")[:-1]],
            format="csr")
        b_eq = np.concatenate([nu1.weights, nu2.weights[:-1]])
        res = solve_min(D.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
        plan = np.clip(res.x.reshape(n1, n2), 0.0, None)
    # repair solver-tolerance drift so the conditionals are exact
    plan *= (nu1.weights / np.maximum(plan.sum(axis=1), 1e-300))[:, None]
    cost = float((plan * D).sum())
    err = max(np.abs(plan.sum(0) - nu2.weights).max(),
              np.abs(plan.sum(1) - nu1.weights).max())
    if err > 1e-8:
        raise TransportError("transport plan marginals off by %.3g" % err)
    return DiscreteCoupling(nu1, nu2, plan, cost), cost


class QuantileCoupling:
    """Comonotone randomized coupling on the line (discrete source)."""

    def __init__(self, nu1, nu2):
        if nu1.dim != 1:
            raise TransportError("source must be one-dimensional")
        if getattr(nu2, "dim", None) != 1:
            raise TransportError("target must be one-dimensional")
        self.source = nu1
        self.target = nu2
        order = np.argsort(nu1.atoms[:, 0])
        self._rank_of_atom = np.empty(nu1.n_atoms, dtype=int)
        self._rank_of_atom[order] = np.arange(nu1.n_atoms)
        cum = np.concatenate([[0.0], np.cumsum(nu1.weights[order])])
        cum[-1] = 1.0
        self._cum = cum                        # F(0..n1) over sorted atoms

    def sample_given_source(self, rng, src_idx):
        r = self._rank_of_atom[src_idx]
        u = rng.uniform(size=len(src_idx))
        t = u * self._cum[r + 1] + (1.0 - u) * self._cum[r]
        return np.asarray(self.target.quantile(t), dtype=float).reshape(-1, 1)

    def sample_pairs(self, rng, n):
        src = rng.choice(self.source.n_atoms, size=n, p=self.source.weights)
        tgt = self.sample_given_source(rng, src)
        return self.source.atoms[src], tgt

    def cost_estimate(self, rng, n):
        s, t = self.sample_pairs(rng, n)
        return float(np.abs(s[:, 0] - t[:, 0]).mean())


def ot_quantile_1d(nu1, nu2):
    """Comonotone W1-optimal coupling sampler between 1d measures."""
    return QuantileCoupling(nu1, nu2)


def w1_quantile_quadrature(nu1, nu2, n=200001):
    """Reference value of W1 between 1d measures via the quantile formula.

    Midpoint-rule quadrature of |F1^{-1} - F2^{-1}| over the unit interval;
    serves as the independent check of the sampled coupling cost.
    """
    t = (np.arange(n) + 0.5) / n
    q1 = np.asarray(quantile_1d(nu1, t), dtype=float).reshape(-1)
    q2 = np.asarray(quantile_1d(nu2, t), dtype=float).reshape(-1)
    return float(np.abs(q1 - q2).mean())


class SemidiscreteCoupling:
    """Coupling of a discrete source with a continuous target from optimal
    (approximately) semi-discrete dual potentials."""

    def __init__(self, nu1, nu2, potentials, est_masses):
        self.source = nu1
        self.target = nu2
        self.potentials = potentials
        self.est_masses = est_masses

    def assign(self, Y):
        """Cell index of each target point (ties to the lowest atom index)."""
        d = _pairwise_dist(Y, self.source.atoms)
        return np.argmax(self.potentials[None, :] - d, axis=1)

    def sample_pairs(self, rng, n):
        Y = self.target.sample(rng, n)
        idx = self.assign(Y)
        return self.source.atoms[idx], Y

    def sample_given_source(self, rng, src_idx, max_trials=100000):
        """Rejection sampling of the conditional target law per source atom."""
        n = len(src_idx)
        out = np.empty((n, self.target.dim))
        pending = np.arange(n)
        trials = 0
        while pending.size:
            k = max(pending.size * 4, 256)
            Y = self.target.sample(rng, k)
            cells = self.assign(Y)
            for i in np.unique(src_idx[pending]):
                want = pending[src_idx[pending] == i]
                got = np.flatnonzero(cells == i)[:len(want)]
                take = min(len(want), len(got))
                if take:
                    out[want[:take]] = Y[got[:take]]
                    pending = np.setdiff1d(pending, want[:take],
                                           assume_unique=True)
            trials += k
            if trials > max_trials * max(n, 1):
                raise TransportError(
                    "rejection sampling stalled; a transport cell has "
                    "near-zero mass")
        return out

    def cost_estimate(self, rng, n):
        s, t = self.sample_pairs(rng, n)
        return float(np.sqrt(((s - t) ** 2).sum(1)).mean())

    def dual_value(self, rng, n):
        """Monte Carlo value of the concave dual at the stored potentials."""
        Y = self.target.sample(rng, n)
        d = _pairwise_dist(Y, self.source.atoms)
        inner = (self.potentials[None, :] - d).max(axis=1)
        return float(self.potentials @ self.source.weights - inner.mean())


def ot_semidiscrete(nu1, nu2, step0=None,
                    n_iterations=20000, batch=256, tol_mass=1e-2,
                    check_samples=100000, rng=None):
    """Approximately W1-optimal coupling of a discrete and a CPWA measure.

    Maximizes the concave semi-discrete dual by averaged stochastic
    supergradient ascent with step ``step0 / sqrt(t)``, then verifies that
    the induced cell masses reproduce the source weights within
    ``tol_mass`` (infinity norm).  Raises ``CellMassMismatchError`` with the
    achieved mismatch otherwise.
    """
    if not isinstance(nu2, CpwaDensityMeasure):
        raise TransportError("target must be a CPWA density measure")
    if rng is None:
        rng = np.random.default_rng(0)
    n1 = nu1.n_atoms
    alpha = nu1.weights
    phi = np.zeros(n1)
    if n1 > 1:
        if step0 is None:
            spread = nu2.complex.vertex_diameter()
            step0 = 0.5 * max(spread, 1e-6)
        avg = np.zeros(n1)
        n_avg = 0
        half = n_iterations // 2
        for t in range(1, n_iterations + 1):
            Y = nu2.sample(rng, batch)
            d = _pairwise_dist(Y, nu1.atoms)
            cells = np.argmax(phi[None, :] - d, axis=1)
            freq = np.bincount(cells, minlength=n1) / batch
            phi += (step0 / np.sqrt(t)) * (alpha - freq)
            phi -= phi.mean()
            if t > half:
                avg += phi
                n_avg += 1
        phi = avg / max(n_avg, 1)
    coupling = SemidiscreteCoupling(nu1, nu2, phi, None)
    Y = nu2.sample(rng, check_samples)
    masses = np.bincount(coupling.assign(Y), minlength=n1) / check_samples
    coupling.est_masses = masses
    mismatch = float(np.abs(masses - alpha).max())
    if mismatch > tol_mass:
        raise CellMassMismatchError(
            "cell masses off by %.4g (> %.4g) after %d iterations"
            % (mismatch, tol_mass, n_iterations), mismatch)
    return coupling
