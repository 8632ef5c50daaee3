import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (assignment_bruteforce_w1, cell_inverses, sample_pairs,
                     w1_quantile_quadrature)
from teamsolve.geometry import build_box_partition
from teamsolve.measures import CpwaDensityMeasure, DiscreteMeasure, random_cpwa
from teamsolve import transport
from teamsolve.transport import (DiscreteCoupling, TransportError, ot_discrete,
                                 ot_quantile_1d, ot_semidiscrete)


def test_discrete_trivials():
    d0 = DiscreteMeasure([[0.0]], [1.0])
    d1 = DiscreteMeasure([[1.0]], [1.0])
    coup, w1 = ot_discrete(d0, d1)
    assert w1 == 1.0 and coup.plan[0, 0] == 1.0
    same = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    _, w0 = ot_discrete(same, same)
    assert abs(w0) < 1e-12
    split = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    _, wc = ot_discrete(split, d1)
    assert abs(wc - 1.0) < 1e-12


def test_discrete_matches_assignment_enumeration():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        a = rng.uniform(0, 1, (n, 2))
        b = rng.uniform(0, 1, (n, 2))
        u = np.ones(n) / n
        _, w1 = ot_discrete(DiscreteMeasure(a, u), DiscreteMeasure(b, u))
        ref = assignment_bruteforce_w1(a, b)
        assert abs(w1 - ref) < 1e-9


def test_discrete_marginals_exact():
    rng = np.random.default_rng(22)
    a = DiscreteMeasure(rng.uniform(0, 1, (4, 2)), rng.dirichlet(np.ones(4)))
    b = DiscreteMeasure(rng.uniform(0, 1, (6, 2)), rng.dirichlet(np.ones(6)))
    coup, _ = ot_discrete(a, b)
    assert np.abs(coup.plan.sum(1) - a.weights).max() < 1e-10
    assert np.abs(coup.plan.sum(0) - b.weights).max() < 1e-10


def test_an_empty_plan_row_goes_to_the_nearest_target(monkeypatch):
    # the solver leaves the light source atom at 1.0, equally far from both
    # targets, an all-zero row: its weight goes to the first of them, and
    # no division by a zero row sum warns
    light = 1e-10
    src = DiscreteMeasure([[0.0], [2.0], [1.0]], [0.5, 0.5 - light, light])
    tgt = DiscreteMeasure([[0.5], [1.5]], [0.5, 0.5])
    plan = np.array([[0.5, 0.0], [0.0, 0.5 - light], [0.0, 0.0]])
    monkeypatch.setattr(transport, "solve_min",
                        lambda c, A_eq, b_eq: SimpleNamespace(x=plan.ravel()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coup, _ = ot_discrete(src, tgt)
    assert coup.plan[2].tolist() == [light, 0.0]
    assert np.array_equal(coup.plan.sum(axis=1), src.weights)
    rng = np.random.default_rng(5)
    assert (coup.columns(rng, np.full(100, 2)) == 0).all()


def test_a_zero_plan_row_is_rejected():
    src = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(TransportError, match="empty transport plan row"):
        DiscreteCoupling(src, src, np.array([[0.5, 0.0], [0.0, 0.0]]))


def test_quantile_coupling_halves():
    rng = np.random.default_rng(23)
    half = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    U = CpwaDensityMeasure(build_box_partition([(0, 1)], (1,)), [1.0, 1.0])
    assert abs(w1_quantile_quadrature(half, U) - 0.25) < 1e-6
    coup = ot_quantile_1d(half, U)
    s, t = sample_pairs(coup, rng, 100000)
    # atom 0 spreads over the first quantile half, atom 1 over the second
    assert t[s[:, 0] == 0.0, 0].max() <= 0.5 + 1e-9
    assert t[s[:, 0] == 1.0, 0].min() >= 0.5 - 1e-9
    assert abs(np.abs(s[:, 0] - t[:, 0]).mean() - 0.25) < 0.005


def test_quantile_coupling_identity_and_center():
    rng = np.random.default_rng(24)
    same = DiscreteMeasure([[0.2], [0.8]], [0.3, 0.7])
    coup = ot_quantile_1d(same, same)
    s, t = sample_pairs(coup, rng, 20000)
    assert np.abs(s - t).max() < 1e-12
    U = CpwaDensityMeasure(build_box_partition([(0, 1)], (1,)), [1.0, 1.0])
    dm = DiscreteMeasure([[0.5]], [1.0])
    assert abs(w1_quantile_quadrature(dm, U) - 0.25) < 1e-6
    coup2 = ot_quantile_1d(dm, U)
    _, t2 = sample_pairs(coup2, rng, 100000)
    # conditional law of the target is the full uniform distribution
    assert abs(t2.mean() - 0.5) < 0.005
    assert abs((t2 <= 0.25).mean() - 0.25) < 0.01


def test_quantile_marginal_preservation():
    rng = np.random.default_rng(25)
    src = DiscreteMeasure([[0.1], [0.4], [0.9]], [0.2, 0.5, 0.3])
    tgt = random_cpwa(build_box_partition([(0, 1)], (3,)), rng)
    coup = ot_quantile_1d(src, tgt)
    s, t = sample_pairs(coup, rng, 100000)
    # source marginal: exact atom frequencies within binomial bands
    for a, w in zip(src.atoms[:, 0], src.weights):
        emp = (s[:, 0] == a).mean()
        assert abs(emp - w) < 4 * np.sqrt(w * (1 - w) / len(s))
    # target marginal: compare mean and cdf points against the measure
    ref = tgt.sample(rng, 100000)[:, 0]
    for q in (0.25, 0.5, 0.75):
        assert abs((t[:, 0] <= q).mean() - (ref <= q).mean()) < 0.01


def test_semidiscrete_single_atom():
    rng = np.random.default_rng(26)
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    usq = CpwaDensityMeasure(sq, np.ones(4))
    da = DiscreteMeasure([[0.5, 0.5]], [1.0])
    coup = ot_semidiscrete(da, usq)
    y = coup.sample_given_source(rng, np.zeros(400000, dtype=int))
    est = np.sqrt(((y - 0.5) ** 2).sum(1)).mean()
    assert abs(est - 0.3825978582) < 0.005


def test_semidiscrete_matches_1d_quantile():
    # two cells refined to four: each atom's plan row is exactly its
    # quantile half, so the coupling is the comonotone one
    rng = np.random.default_rng(27)
    two = DiscreteMeasure([[0.25], [0.75]], [0.5, 0.5])
    U1 = CpwaDensityMeasure(build_box_partition([(0, 1)], (2,)), np.ones(3))
    coup = ot_semidiscrete(two, U1)
    assert coup.target.complex.n_simplices == 2 * transport.REFINEMENT
    cond0 = coup.sample_given_source(rng, np.zeros(200000, dtype=int))
    cond1 = coup.sample_given_source(rng, np.ones(200000, dtype=int))
    assert cond0.max() <= 0.5 and cond1.min() >= 0.5
    est = 0.5 * (np.abs(cond0 - 0.25).mean() + np.abs(cond1 - 0.75).mean())
    ref = w1_quantile_quadrature(two, U1)
    assert abs(ref - 0.125) < 1e-9
    assert abs(est - ref) < 1e-3


def _tiny_atom_coupling():
    rng = np.random.default_rng(28)
    coarse = random_cpwa(build_box_partition([(0, 1), (0, 1)], (2, 2)), rng)
    w = np.concatenate([[1e-4], (1 - 1e-4) * rng.dirichlet(np.ones(4))])
    src = DiscreteMeasure(rng.uniform(0, 1, (5, 2)), w)
    return coarse, src, ot_semidiscrete(src, coarse)


def test_semidiscrete_marginals_exact():
    rng = np.random.default_rng(29)
    coarse, src, coup = _tiny_atom_coupling()
    plan = coup.plan.plan
    masses = coup.target._cell_mass[coup.cell_simplex]
    assert np.abs(plan.sum(1) - src.weights).max() <= 1e-12
    assert np.abs(plan.sum(0) - masses).max() <= 1e-12
    assert np.abs(masses.sum() - 1.0) <= 1e-12
    assert np.abs(coup.est_masses - src.weights).max() <= 1e-12
    # the tiny atom's draws land in the cells of its plan row
    cells = coup.cell_simplex[plan[0] > 0]
    Y = coup.sample_given_source(rng, np.zeros(500, dtype=int))
    q = np.hstack([np.ones((len(Y), 1)), Y])
    lam = np.einsum("sij,nj->nsi", cell_inverses(coup.target.complex)[cells],
                    q)
    assert np.all(lam.min(axis=2).max(axis=1) >= -1e-12)


def test_semidiscrete_refinement_is_nested():
    rng = np.random.default_rng(30)
    coarse, _, coup = _tiny_atom_coupling()
    assert coup.target.complex.n_simplices == 4 * coarse.complex.n_simplices
    X = rng.uniform(0, 1, (2000, 2))
    assert np.allclose(coup.target.density(X), coarse.density(X),
                       rtol=1e-12, atol=1e-12)


def test_semidiscrete_needs_cpwa_target():
    src = DiscreteMeasure([[0.5, 0.5]], [1.0])
    with pytest.raises(TransportError):
        ot_semidiscrete(src, src)


def test_every_coupling_samples_points():
    # discrete, one-dimensional quantile and cell couplings all return an
    # (n, d) array of target points
    rng = np.random.default_rng(31)
    src1 = DiscreteMeasure([[0.2], [0.7]], [0.4, 0.6])
    src2 = DiscreteMeasure([[0.2, 0.3], [0.7, 0.6]], [0.4, 0.6])
    line = random_cpwa(build_box_partition([(0, 1)], (2,)), rng)
    sq = random_cpwa(build_box_partition([(0, 1), (0, 1)], (1, 1)), rng)
    tgt2 = DiscreteMeasure(rng.uniform(size=(3, 2)), [0.2, 0.3, 0.5])
    src_idx = np.array([0, 1, 1, 0, 1])
    for coup, d in ((ot_discrete(src2, tgt2)[0], 2),
                    (ot_quantile_1d(src1, line), 1),
                    (ot_semidiscrete(src2, sq), 2)):
        Y = coup.sample_given_source(rng, src_idx)
        assert isinstance(Y, np.ndarray) and Y.shape == (5, d)
