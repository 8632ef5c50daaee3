import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cpwa_second_moment_loop, cpwa_vertex_moments_loop,
                     discrete_moment_vector_dense)
from teamsolve.geometry import FiniteSpace, HatBasis, build_box_partition
from teamsolve.measures import (CpwaDensityMeasure, DiscreteMeasure,
                                MeasureError, SupportOutsideBasisError,
                                moment_vector, moments_all_vertices,
                                random_cpwa, sample, second_moment,
                                spawn_rngs, uniform_points)


def test_moment_examples():
    c = build_box_partition([(0, 1)], (1,))
    b = HatBasis(c)
    u = CpwaDensityMeasure(c, [1.0, 1.0])
    assert np.allclose(moment_vector(u, b), [0.5])
    c2 = build_box_partition([(0, 1)], (2,))
    b2 = HatBasis(c2)
    u2 = CpwaDensityMeasure(c2, [1.0, 1.0, 1.0])
    assert np.allclose(moment_vector(u2, b2), [0.5, 0.25])
    d = DiscreteMeasure([[0.5]], [1.0])
    assert np.allclose(moment_vector(d, b2), [1.0, 0.0])


def test_moment_support_error():
    c = build_box_partition([(0, 1)], (2,))
    b = HatBasis(c)
    with pytest.raises(SupportOutsideBasisError):
        moment_vector(DiscreteMeasure([[2.0]], [1.0]), b)
    other = build_box_partition([(0, 1)], (3,))
    with pytest.raises(SupportOutsideBasisError):
        moment_vector(CpwaDensityMeasure(other, np.ones(4)), b)


def test_mass_normalization():
    c = build_box_partition([(0, 1)], (1,))
    m = CpwaDensityMeasure(c, [1.0 + 5e-7, 1.0 + 5e-7])
    assert abs(m._cell_mass.sum() - 1.0) < 1e-14
    with pytest.raises(MeasureError):
        CpwaDensityMeasure(c, [2.0, 2.0])
    with pytest.raises(MeasureError):
        CpwaDensityMeasure(c, [-0.1, 2.1])


def test_sampling_examples():
    rng = np.random.default_rng(5)
    d = DiscreteMeasure([[0.7]], [1.0])
    assert np.all(sample(d, rng, 3) == 0.7)
    half = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    s = sample(half, rng, 100000)
    assert 0.49 <= s.mean() <= 0.51
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    u = CpwaDensityMeasure(sq, np.ones(9))
    pts = sample(u, rng, 100000)
    assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.005
    with pytest.raises(MeasureError):
        sample(d, rng, 0)


def test_cpwa_sampling_matches_density():
    rng = np.random.default_rng(6)
    c = build_box_partition([(0, 1)], (2,))
    m = CpwaDensityMeasure(c, [0.0, 1.0, 2.0])
    s = sample(m, rng, 200000)[:, 0]
    # vertex densities (0, 1, 2) interpolate to f(t) = 2t, so F(x) = x^2
    for x in (0.25, 0.5, 0.75):
        assert abs((s <= x).mean() - x * x) < 0.01
    # and the quantile function must invert it
    t = np.array([0.04, 0.25, 0.81])
    assert np.allclose(m.quantile(t), np.sqrt(t), atol=1e-9)


@pytest.mark.parametrize("counts", [(3,), (2, 2), (1, 1, 1)])
def test_cell_samples_follow_the_linear_density(counts):
    # in barycentric weights, the density f restricted to a cell has mean
    # (S + f_k) / ((d + 2) S), S = sum f: per cell and weight, the draws'
    # mean lies within 4 SE of it, and every draw lies in its cell.  One
    # vertex has density 0, so its weight is never drawn as the mixture's
    rng = np.random.default_rng(11)
    cx = build_box_partition([(0, 1)] * len(counts), counts)
    f = rng.gamma(1.0, 1.0, size=cx.n_vertices) + 0.05
    f[0] = 0.0
    mass = float(np.dot(cx.volumes(), f[cx.simplices].mean(axis=1)))
    m = CpwaDensityMeasure(cx, f / mass)
    per_cell, d = 20000, cx.dim
    cells = np.repeat(np.arange(cx.n_simplices), per_cell)
    X = m.sample_cells(rng, cells)
    q = np.hstack([np.ones((len(X), 1)), X])
    lam = np.einsum("nij,nj->ni", cx._minv[cells], q)
    assert lam.min() >= -1e-12
    lam = lam.reshape(cx.n_simplices, per_cell, d + 1)
    fv = m.vertex_density[cx.simplices]
    S = fv.sum(axis=1, keepdims=True)
    centroid = (S + fv) / ((d + 2) * S)
    se = lam.std(axis=1) / np.sqrt(per_cell)
    assert np.all(np.abs(lam.mean(axis=1) - centroid) <= 4 * se)


def test_quantile_conventions():
    c = build_box_partition([(0, 1)], (1,))
    u = CpwaDensityMeasure(c, [1.0, 1.0])
    assert abs(u.quantile(0.25) - 0.25) < 1e-9
    half = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    assert half.quantile(0.5) == 0.0
    assert half.quantile(0.75) == 1.0
    assert half.quantile(0.0) == 0.0
    with pytest.raises(MeasureError):
        half.quantile(1.5)


def test_quantile_monotone():
    rng = np.random.default_rng(7)
    c = build_box_partition([(0, 1)], (3,))
    m = random_cpwa(c, rng)
    t = np.sort(rng.uniform(0, 1, size=200))
    q = m.quantile(t)
    assert np.all(np.diff(q) >= -1e-12)
    d = DiscreteMeasure(rng.uniform(0, 1, (4, 1)), rng.dirichlet(np.ones(4)))
    qd = d.quantile(t)
    assert np.all(np.diff(qd) >= 0)


def test_moment_vs_monte_carlo():
    rng = np.random.default_rng(8)
    sq = build_box_partition([(0, 1), (0, 1)], (2, 2))
    b = HatBasis(sq)
    m = random_cpwa(sq, rng)
    mv = moment_vector(m, b)
    S = m.sample(rng, 200000)
    G = b.eval_many(S)
    se = G.std(axis=0) / np.sqrt(len(S)) + 1e-12
    assert np.abs(G.mean(axis=0) - mv).max() < 4 * se.max() + 1e-4


def test_moments_all_vertices_sums_to_one():
    rng = np.random.default_rng(9)
    c = build_box_partition([(0, 2)], (4,))
    m = random_cpwa(c, rng)
    allm = moments_all_vertices(m, c)
    assert abs(allm.sum() - 1.0) < 1e-10
    fs = FiniteSpace([[0.0], [1.0]])
    d = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
    assert np.allclose(moments_all_vertices(d, fs), [0.25, 0.75])


# a random box grid of dimension 1 to 3, from a seed
grids = st.builds(
    lambda d, seed: _random_grid(d, np.random.default_rng(seed)),
    st.integers(1, 3), st.integers(0, 2 ** 32 - 1))


def _random_grid(d, rng):
    lo = rng.uniform(-2.0, 2.0, size=d)
    box = np.stack([lo, lo + rng.uniform(0.5, 3.0, size=d)], axis=1)
    return build_box_partition(box, rng.integers(1, 4, size=d)), rng


@settings(max_examples=30, deadline=None)
@given(grid=grids)
def test_cpwa_vertex_moments_equal_the_loop(grid):
    c, rng = grid
    m = random_cpwa(c, rng)
    assert np.array_equal(moments_all_vertices(m, c),
                          cpwa_vertex_moments_loop(m))


@settings(max_examples=30, deadline=None)
@given(grid=grids, finite=st.booleans())
def test_discrete_moments_match_the_dense_basis_rows(grid, finite):
    c, rng = grid
    space = FiniteSpace(c.vertices) if finite else c
    n = int(rng.integers(1, space.n_vertices + 1))
    atoms = (space.vertices[rng.choice(space.n_vertices, n, replace=False)]
             if finite else uniform_points(space, rng, n))
    mu = DiscreteMeasure(atoms, rng.dirichlet(np.ones(n)))
    b = HatBasis(space)
    ref = np.clip(discrete_moment_vector_dense(mu, b), 0.0, None)
    assert np.abs(moment_vector(mu, b) - ref).max(initial=0.0) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(grid=grids)
def test_second_moment_matches_the_loop(grid):
    c, rng = grid
    m = random_cpwa(c, rng)
    ref = cpwa_second_moment_loop(m)
    assert abs(second_moment(m) - ref) <= 1e-13 * abs(ref)


def test_second_moment():
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    u = CpwaDensityMeasure(sq, np.ones(4))
    assert abs(second_moment(u) - 2.0 / 3.0) < 1e-12
    d = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    assert second_moment(d) == 2.0


def test_spawned_streams_are_independent():
    r1, r2 = spawn_rngs(123, 2)
    a = r1.uniform(size=5)
    b = r2.uniform(size=5)
    assert not np.allclose(a, b)
    r1b, _ = spawn_rngs(123, 2)
    assert np.allclose(a, r1b.uniform(size=5))


def test_non_finite_inputs_are_rejected():
    for atoms, weights in (([[0.0], [1.0]], [np.nan, 1.0]),
                           ([[0.0], [1.0]], [np.inf, 0.5]),
                           ([[np.inf], [1.0]], [0.5, 0.5]),
                           ([[np.nan]], [1.0])):
        with pytest.raises(MeasureError):
            DiscreteMeasure(atoms, weights)
    c = build_box_partition([(0, 1)], (2,))
    for f in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
        with pytest.raises(MeasureError):
            CpwaDensityMeasure(c, f)
