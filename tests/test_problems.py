import numpy as np
import pytest

from helpers import business_eval_pair_tensor, face_minima_every_face
from teamsolve.geometry import FiniteSpace, build_box_partition
from teamsolve.measures import (CpwaDensityMeasure, DiscreteMeasure,
                                uniform_points)
from teamsolve.problems import (CostModelError, _dot, barycenter_cost,
                                business_location_cost, capped_affine_cost,
                                tabulated_cpwa_cost)

STATIONS = np.array([[0.0, 2.0], [0.0, 0.75], [0.0, -0.75],
                     [0.0, -1.5], [-1.5, -1.5]])


def test_business_defaults_echo():
    m = business_location_cost(STATIONS, n_categories=5)
    assert m.c_walk == 0.15
    assert m.c_train == 0.015
    assert m.c_restock == 0.4
    assert m.N == 5


def test_business_category_count_is_a_required_keyword():
    # it used to default to 5 categories
    with pytest.raises(TypeError, match="n_categories"):
        business_location_cost(STATIONS)
    with pytest.raises(TypeError):
        business_location_cost(STATIONS, 5)


@pytest.mark.parametrize("key", ["c_walk", "c_train", "c_restock"])
def test_business_rates_must_be_numbers_not_booleans(key):
    # True is a numbers.Real and used to build a rate of 1.0
    for value in (True, False, "0.15", float("nan"), -0.1):
        with pytest.raises(CostModelError, match=key):
            business_location_cost(STATIONS, n_categories=5,
                                   **{key: value})


def test_business_trivials():
    m = business_location_cost(STATIONS, n_categories=5)
    z = np.array([[0.3, -0.7]])
    assert m.eval(0, z, z)[0] == 0.0
    assert m.eval(4, z, z)[0] == 0.0
    assert m.eval(0, [[0.0, 0.0]], [[0.0, 0.0]])[0] == 0.0


def test_business_dominated_by_walk():
    m = business_location_cost(STATIONS, n_categories=5)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(5000, 2))
    Z = rng.uniform(-2, 2, size=(5000, 2))
    for i in (0, 3):
        assert np.all(m.eval(i, X, Z)
                      <= m.c_walk * np.abs(X - Z).sum(1) + 1e-12)
    assert np.allclose(m.eval(4, X, Z), m.c_restock * np.abs(X - Z).sum(1))


def test_capped_affine_regimes():
    m = capped_affine_cost([[1.0, 0.0]], [0.2], [0.8])
    z0 = np.array([[0.0, 0.0]])
    # dead zone
    assert m.eval(0, [[0.1]], z0)[0] == 0.0
    # saturation
    assert abs(m.eval(0, [[0.95]], z0)[0] - 0.6) < 1e-12
    # x=1, s=(1,0), z=0, kappa=(0.2, 0.8), N=1: ramp saturates at 0.6
    assert abs(m.eval(0, [[1.0]], z0)[0] - 0.6) < 1e-12
    with pytest.raises(CostModelError):
        capped_affine_cost([[1.0, 0.0]], [0.9], [0.8])
    with pytest.raises(CostModelError):
        capped_affine_cost([[2.0, 0.0]], [0.1], [0.8])


THREE = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]


@pytest.mark.parametrize("s,kappa1,kappa2,key", [
    ([[True, 0], [0, 1]], 0.1, [0.5, 0.6], "s"),
    ([[1, 0], [0, 1]], [0.1, False], 0.5, "kappa1"),
    ([[1, 0], [0, 1]], 0.1, [0.5, True], "kappa2"),
    (np.eye(2), 0.1, np.array([True, True]), "kappa2"),
    (np.eye(2), np.False_, 0.5, "kappa1"),
], ids=["list-s", "list-kappa1", "list-kappa2", "array-kappa2",
        "numpy-scalar-kappa1"])
def test_capped_affine_entries_must_be_numbers_not_booleans(s, kappa1,
                                                            kappa2, key):
    # True used to build a direction entry or a band of 1.0, as it did a
    # business-location rate
    with pytest.raises(CostModelError, match=key):
        capped_affine_cost(s, kappa1, kappa2)


def test_capped_affine_broadcasts_a_scalar_band():
    # one number serves every category, as the same number per category
    m = capped_affine_cost(THREE, 0.1, 0.5)
    ref = capped_affine_cost(THREE, [0.1] * 3, [0.5] * 3)
    X, Z = [[0.3], [0.9]], [[0.2, 0.1], [0.4, 0.4]]
    for i in range(3):
        assert np.array_equal(m.eval(i, X, Z), ref.eval(i, X, Z))
    assert len(m.oracle_terms(2)) == 2


@pytest.mark.parametrize("s,kappa1,kappa2", [
    (THREE, [0.1, 0.1, 0.1, 0.1], 0.5),        # more bands than directions
    (THREE, [0.1], 0.5),                        # one listed band for three
    (THREE, 0.1, [0.5, 0.6]),
    ([[1.0, 0.0]], [[0.1]], 0.5),
    ([[1.0, 0.0]], float("nan"), 0.5),
    ([[1.0, 0.0]], 0.1, float("nan")),
    ([[1.0, 0.0]], float("inf"), float("inf")),
    ([[1.0, 0.0]], -0.1, 0.5),
    ([[1.0, 0.0]], 0.5, 0.5),
    ([[float("nan"), 0.0]], 0.1, 0.5),
    ([[float("inf"), 0.0]], 0.1, 0.5),
    ([[[1.0, 0.0]]], 0.1, 0.5),
])
def test_capped_affine_rejects_what_it_cannot_evaluate(s, kappa1, kappa2):
    with pytest.raises(CostModelError):
        capped_affine_cost(s, kappa1, kappa2)


def test_barycenter_checks_its_type_spaces():
    # one per weight, each of the quality dimension: a 1-D type space used
    # to pass verify and fail inside the solve
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    for spaces in ([sq], [sq] * 3):
        with pytest.raises(CostModelError, match="2 weights but"):
            barycenter_cost([0.5, 0.5], spaces, sq, None)
    with pytest.raises(CostModelError, match="quality dimension 2"):
        barycenter_cost([0.5, 0.5], [sq, FiniteSpace([[0.0]])], sq, None)
    u = CpwaDensityMeasure(sq, np.ones(4))
    with pytest.raises(CostModelError, match="2 weights but 1 measures"):
        barycenter_cost([0.5, 0.5], [sq] * 2, sq, [u])
    with pytest.raises(CostModelError, match="positive"):
        barycenter_cost([float("nan"), 1.0], [sq] * 2, sq, None)


def test_column_dot_has_the_bits_of_numpys_sum():
    # the barycenter face routine sums its short coordinate and edge axes
    # column by column; on axes of up to 7 entries the bits are numpy's
    rng = np.random.default_rng(3)
    for k in range(8):
        a, b = (rng.normal(size=(200, 3, k))
                * 10.0 ** rng.integers(-8, 8, size=(200, 3, k))
                for _ in range(2))
        assert np.array_equal(_dot(a, b), (a * b).sum(-1))
        assert np.array_equal(_dot(a[:, :1], b), (a[:, :1] * b).sum(-1))


@pytest.mark.parametrize("Z", [build_box_partition([(0, 1)], (4,)),
                               build_box_partition([(0, 1), (0, 1)], (6, 6))],
                         ids=["line", "grid"])
def test_zero_faces_in_closed_form_match_the_face_arithmetic(Z):
    # the vertices' values and points, given in closed form, have the bits
    # of the general face arithmetic on empty edge parameters, for types
    # inside the region and outside it (a +-0.05 jitter around its box)
    rng = np.random.default_rng(98)
    X = rng.uniform(-0.02, 1.02, size=(600, Z.dim))
    X += rng.uniform(-0.05, 0.05, size=X.shape)
    X[:100] = np.round(4 * X[:100]) / 4
    inside = Z.covers(X)
    assert inside.any() and not inside.all()
    model = barycenter_cost([0.3, 0.7], [Z, Z], Z, None)
    Wv = rng.normal(size=Z.n_vertices)
    got = model.face_minima(0, X, Z, Wv)
    ref = face_minima_every_face(0.3, X, Z.face_frames, Wv)
    for a, b in zip(got, ref):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_barycenter_shift_and_lipschitz():
    sq = build_box_partition([(0, 1), (0, 1)], (1, 1))
    u = CpwaDensityMeasure(sq, np.ones(4))
    m = barycenter_cost([1.0], [sq], sq, [u])
    assert abs(m.shift - 2.0 / 3.0) < 1e-12
    d1 = DiscreteMeasure([[0.0, 0.0]], [1.0])
    d2 = DiscreteMeasure([[2.0, 0.0]], [1.0])
    z = build_box_partition([(0, 2), (-1, 1)], (2, 2))
    m2 = barycenter_cost([0.5, 0.5], [FiniteSpace([[0.0, 0.0]]),
                                      FiniteSpace([[2.0, 0.0]])], z, [d1, d2])
    assert abs(m2.shift - 2.0) < 1e-12


def test_lipschitz_random_pairs_all_families():
    rng = np.random.default_rng(1)
    xsq = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    zsq = build_box_partition([(-2, 2), (-2, 2)], (2, 2))

    def xs2(i, n):
        return uniform_points(xsq, rng, n)

    def zs2(n):
        return uniform_points(zsq, rng, n)

    bl = business_location_cost(STATIONS, n_categories=5)
    ok, worst = bl.check_lipschitz(xs2, zs2)
    assert ok, worst

    bc = barycenter_cost([0.3, 0.7], [xsq, xsq], zsq, None)
    ok, worst = bc.check_lipschitz(xs2, zs2)
    assert ok, worst

    ca = capped_affine_cost([[0.6, 0.8], [1.0, 0.0]], [0.1, 0.2], [0.5, 0.9])
    zt = build_box_partition([(0, 1), (0, 1)], (2, 2))
    ok, worst = ca.check_lipschitz(
        lambda i, n: rng.uniform(0, 1, (n, 1)),
        lambda n: uniform_points(zt, rng, n))
    assert ok, worst

    tab = tabulated_cpwa_cost(
        [xsq], zsq, [rng.uniform(0, 1, (xsq.n_vertices, zsq.n_vertices))])
    ok, worst = tab.check_lipschitz(xs2, zs2)
    assert ok, worst


def test_tabulated_interpolates_table():
    xs = FiniteSpace([[0.0], [1.0]])
    zs = build_box_partition([(0, 1)], (2,))
    T = np.abs(xs.vertices[:, 0:1] - zs.vertices[:, 0][None, :])
    m = tabulated_cpwa_cost([xs], zs, [T])
    assert abs(m.eval(0, [[0.0]], [[0.25]])[0] - 0.25) < 1e-12
    assert abs(m.eval(0, [[1.0]], [[0.25]])[0] - 0.75) < 1e-12
    with pytest.raises(CostModelError):
        tabulated_cpwa_cost([xs], zs, [np.zeros((3, 3))])


def test_station_validation():
    with pytest.raises(CostModelError):
        business_location_cost([[0.0, 0.0], [0.0, 0.0]], n_categories=2)


@pytest.mark.parametrize("kwargs,match", [
    # a negative walking rate gave L1 = -0.212 and a too small eps_theo
    ({"c_walk": -0.15}, "c_walk"),
    ({"c_train": -1.0}, "c_train"),
    ({"c_restock": float("nan")}, "c_restock"),
    ({"c_walk": float("inf")}, "c_walk"),
    # zero categories raised a bare IndexError
    ({"n_categories": 0}, "n_categories"),
    ({"n_categories": 2.5}, "n_categories")])
def test_business_cost_coefficients_are_validated(kwargs, match):
    with pytest.raises(CostModelError, match=match):
        business_location_cost(STATIONS, **{"n_categories": 5, **kwargs})


def test_business_cost_accepts_zero_coefficients():
    m = business_location_cost(STATIONS, c_walk=0.0, c_train=0.0,
                                c_restock=0.0, n_categories=np.int64(1))
    assert m.N == 1 and np.array_equal(m.L1, [0.0])


def _grid_case(family, space, rng):
    """(model, X, Z) for one cost family with type and quality points drawn
    from a FiniteSpace or from inside a box partition."""
    box = [(-2, 2), (-2, 2)] if family == "business_location" \
        else [(0, 1), (0, 1)]
    xbox = [(0, 1)] if family == "capped_affine" else box
    xs = build_box_partition(xbox, [3] * len(xbox))
    zs = build_box_partition(box, (2, 3))
    X, Z = uniform_points(xs, rng, 5), uniform_points(zs, rng, 6)
    if space == "finite":
        xs, zs = FiniteSpace(X), FiniteSpace(Z)
    if family == "barycenter":
        model = barycenter_cost([0.3, 0.7], [xs, xs], zs, None)
    elif family == "business_location":
        model = business_location_cost(STATIONS, n_categories=2)
    elif family == "capped_affine":
        model = capped_affine_cost([[0.6, 0.8], [1.0, 0.0]], [0.05, 0.1],
                                   [0.4, 0.5])
    else:
        model = tabulated_cpwa_cost(
            [xs, xs], zs,
            [rng.uniform(size=(xs.n_vertices, zs.n_vertices))
             for _ in range(2)])
    return model, X, Z


@pytest.mark.parametrize("space", ["finite", "box"])
@pytest.mark.parametrize("family", ["barycenter", "business_location",
                                    "capped_affine", "tabulated"])
def test_eval_grid_matches_pairwise_eval(family, space):
    model, X, Z = _grid_case(family, space, np.random.default_rng(61))
    for i in range(2):
        grid = model.eval_grid(i, X, Z)
        ref = model.eval(i, np.repeat(X, len(Z), axis=0),
                         np.tile(Z, (len(X), 1))).reshape(len(X), len(Z))
        assert grid.shape == (len(X), len(Z))
        # the GEMM form of the quadratic cost, and the bilinear table form
        # between interior points, round differently from the pairwise sums
        if family == "barycenter" or (family == "tabulated"
                                      and space == "box"):
            assert np.abs(grid - ref).max() <= 1e-12
        else:
            assert np.array_equal(grid, ref)


@pytest.mark.parametrize("family", ["barycenter", "business_location",
                                    "capped_affine", "tabulated"])
def test_eval_is_batch_invariant(family):
    # a cut's cost is evaluated in a batch of cuts: one row alone must give
    # the same bits.  Tabulated costs are checked at vertex pairs, where the
    # barycentric weights are one-hot; between vertices their GEMM is not
    # batch-invariant.
    rng = np.random.default_rng(62)
    model, X, Z = _grid_case(family, "box", rng)
    if family == "tabulated":
        xv, zv = model.x_spaces[0].vertices, model.z_space.vertices
        X = np.repeat(xv, len(zv), axis=0)
        Z = np.tile(zv, (len(xv), 1))
    else:
        X = np.repeat(X, 40, axis=0)
        Z = uniform_points(build_box_partition(
            [(-2, 2), (-2, 2)] if family == "business_location"
            else [(0, 1), (0, 1)], (2, 3)), rng, len(X))
    for i in range(2):
        batch = model.eval(i, X, Z)
        rows = np.array([model.eval(i, X[q:q + 1], Z[q:q + 1])[0]
                         for q in range(len(X))])
        assert np.array_equal(batch, rows)


def test_business_eval_matches_station_pair_tensor():
    m = business_location_cost(STATIONS, n_categories=5)
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(3000, 2))
    Z = np.vstack([rng.uniform(-2, 2, size=(2000, 2)), X[:1000]])
    for i in range(m.N):
        assert np.array_equal(m.eval(i, X, Z),
                              business_eval_pair_tensor(m, i, X, Z))
