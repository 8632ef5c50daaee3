"""The capped-affine quality selector's candidates from the region's boundary
against the mesh candidates they replace.

``helpers.mesh_z_opt_candidates`` keeps the former candidate set: every
kink line crossed with every mesh edge, and every mesh vertex.  The summed
cost does not depend on the mesh, so both sets hold its minimum; ``z_opt``
on the boundary candidates must attain the dense mesh minimum and pick the
same lexicographically smallest minimizer.

The pick is the lexicographically smallest candidate within ``TIE_TOL`` of
the least cost, so it depends on which near-minimizers a set holds, and the
mesh set holds extra ones in two situations:

* a kink line through a mesh vertex, or within a rounding of an axis, meets
  the mesh edges there with a rounding, so the mesh set gains copies of tied
  minimizers an ulp to the left of the exact ones.  The dense pick goes to
  such a copy: the same first coordinate within 1e-15, another second one;
* nearly coincident or nearly parallel lines put mesh crossings within
  ``TIE_TOL`` of the least cost but off the minimizer.

The fixed cases have neither and assert the same point; one case shows the
first situation; the property over arbitrary lines asserts the same least
cost within 1e-15, and picks of equal cost within ``TIE_TOL``.
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (l_shape, mesh_z_opt_candidates, z_opt_dense,
                     z_opt_quadratic)
from teamsolve.equilibrium import TIE_TOL, z_opt
from teamsolve.geometry import (FiniteSpace, SimplicialComplex,
                                build_box_partition)
from teamsolve.problems import (barycenter_cost, capped_affine_cost,
                                tabulated_cpwa_cost)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SQUARE = build_box_partition([(0, 1), (0, 1)], (4, 4))


def _cost(model, xs, P):
    return sum(model.eval(i, xs[i], P) for i in range(model.N))


def _picks(model, xs, Z):
    """The boundary picks and the dense mesh picks, after checking that both
    attain the same cost within ``TIE_TOL``."""
    got = z_opt(model, xs, Z, chunk=64)
    ref = z_opt_dense(model, xs, Z, partial(mesh_z_opt_candidates, model))
    assert np.abs(_cost(model, xs, got) - _cost(model, xs, ref)).max() \
        <= TIE_TOL
    return got, ref


def _min_cost(model, xs, Z, candidates):
    """Per sample, the least summed cost over the valid candidates."""
    cand, valid = candidates(xs, Z)
    k = cand.shape[1]
    vals = _cost(model, [np.repeat(X, k, axis=0) for X in xs],
                 cand.reshape(-1, Z.dim)).reshape(-1, k)
    return np.where(valid, vals, np.inf).min(axis=1)


def _selector_candidates(model, xs, Z):
    """``z_opt_values``' candidates, valid where their value is finite."""
    cand, vals = model.z_opt_values(xs, Z)
    return cand, np.isfinite(vals)


def _types(rng, N, n=400, quarter=False):
    """n uniform scalar types per category on [0, 1]; with ``quarter`` the
    first half is rounded to quarter steps."""
    xs = []
    for _ in range(N):
        X = rng.uniform(size=(n, 1))
        if quarter:
            X[:n // 2] = np.round(4 * X[:n // 2]) / 4
        xs.append(X)
    return xs


def _cases():
    rng = np.random.default_rng(81)
    bench = workloads.build("capped-affine", 3).model
    side = capped_affine_cost([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]],
                              [0.1, 0.05, 0.12], [0.4, 0.5, 0.3])
    line = capped_affine_cost([[1.0], [-1.0], [1.0]], [0.1, 0.25, 0.0],
                              [0.4, 0.5, 0.3])
    free = SimplicialComplex(SQUARE.vertices, SQUARE.simplices)
    return {
        "bench": (bench, SQUARE, _types(rng, 8, 1000, quarter=True)),
        "side-parallel": (side, SQUARE, _types(rng, 3)),
        "d0=1": (line, build_box_partition([(0, 1)], (4,)),
                 _types(rng, 3, quarter=True)),
        "grid-free": (bench, free, _types(rng, 8, quarter=True)),
        "l-shape": (bench, l_shape(), _types(rng, 8, quarter=True)),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_boundary_candidates_pick_the_mesh_point(name):
    model, Z, xs = _cases()[name]
    got, ref = _picks(model, xs, Z)
    assert np.abs(got - ref).max() <= 1e-15


def test_boundary_candidates_count():
    model = workloads.build("capped-affine", 3).model
    xs = _types(np.random.default_rng(82), model.N, 10)
    cand, valid = _selector_candidates(model, xs, SQUARE)
    # 2N lines x 4 sides + 4 C(N, 2) line pairs + 4 corners, at N = 8
    assert cand.shape == (10, 180, 2) and valid.shape == (10, 180)
    assert mesh_z_opt_candidates(model, xs, SQUARE)[0].shape[1] == 1033


def test_lines_through_mesh_vertices_move_within_a_tie():
    # quarter-step types with quarter-step bands put kink lines through mesh
    # vertices; the moved picks are the ulp-left copies described above
    model = capped_affine_cost([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8],
                                [-0.6, 0.8]], [0.0, 0.25, 0.25, 0.0],
                               [0.5, 0.6, 0.5, 0.45])
    xs = _types(np.random.default_rng(83), 4, quarter=True)
    got, ref = _picks(model, xs, SQUARE)
    moved = np.abs(got - ref).max(axis=1) > 1e-15
    assert moved.any() and not moved.all()
    assert np.abs(got[:, 0] - ref[:, 0]).max() <= 1e-15
    # the boundary pick is the exact vertex on the quarter grid
    assert np.array_equal(got[moved], np.round(4 * got[moved]) / 4)


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                st.floats(0.0, 0.3), st.floats(1e-3, 0.5)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_boundary_candidates_property(lines, seed):
    angle, kappa1, band = np.array(lines).T
    s = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    model = capped_affine_cost(s, kappa1, kappa1 + band)
    xs = _types(np.random.default_rng(seed), len(s), 200)
    _picks(model, xs, SQUARE)
    assert np.abs(_min_cost(model, xs, SQUARE,
                            partial(_selector_candidates, model))
                  - _min_cost(model, xs, SQUARE,
                              partial(mesh_z_opt_candidates, model))).max() \
        <= 1e-15


def test_one_sample_picks_as_in_a_batch():
    # kink lines through mesh vertices: unless a line/line crossing rounds
    # the same for one sample as in a batch, this sample picks
    # (0.2499999999999999, 0.75) alone and (0.25, 0.25) in a batch
    model = capped_affine_cost([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8],
                                [-0.6, 0.8]], [0.0, 0.25, 0.25, 0.0],
                               [0.5, 0.6, 0.5, 0.45])
    t = [0.25, 0.5, 0.5, 1.0]
    alone = z_opt(model, [np.array([[v]]) for v in t], SQUARE)
    pair = z_opt(model, [np.array([[v], [v]]) for v in t], SQUARE)
    assert np.array_equal(alone[0], pair[0])
    assert np.array_equal(pair[0], pair[1])


def _chunk_cases():
    """One model per branch of ``z_opt``: the capped-affine candidates, and
    the vertex minimum of a tabulated cost and of a finite quality space."""
    rng = np.random.default_rng(85)
    bench = workloads.build("capped-affine", 3).model
    line = build_box_partition([(0, 1)], (2,))
    # quarter-step tables make ties common at the type vertices
    tables = [np.round(4 * rng.uniform(size=(3, SQUARE.n_vertices))) / 4
              for _ in range(3)]
    return [(bench, SQUARE),
            (tabulated_cpwa_cost([line] * 3, SQUARE, tables), SQUARE),
            (bench, FiniteSpace(rng.uniform(size=(40, 2))))]


def test_picks_do_not_depend_on_the_chunk():
    for seed, (model, Z) in zip((84, 86, 87), _chunk_cases()):
        xs = _types(np.random.default_rng(seed), model.N, 600, quarter=True)
        ref = z_opt(model, xs, Z, chunk=1024)
        for chunk in (1, 64):
            assert np.array_equal(z_opt(model, xs, Z, chunk=chunk), ref)


def test_vertex_branch_evaluates_one_chunk_at_a_time(monkeypatch):
    # the vertex branch builds (n, V) tables, so it must not see all n
    # samples at once either
    for model, Z in _chunk_cases()[1:]:
        rows = []
        grid = model.eval_grid

        def spy(i, X, Zv):
            rows.append(len(X))
            return grid(i, X, Zv)

        monkeypatch.setattr(model, "eval_grid", spy)
        xs = _types(np.random.default_rng(88), model.N, 300)
        z_opt(model, xs, Z, chunk=64)
        assert rows and max(rows) == 64
        monkeypatch.undo()


@pytest.mark.parametrize("dim,Z", [
    (2, SQUARE),
    (1, build_box_partition([(0, 1)], (4,))),
    (2, SimplicialComplex(SQUARE.vertices, SQUARE.simplices)),
    (2, l_shape())])
def test_barycenter_selector_matches_the_projection_pass(dim, Z):
    # the weighted mean where the region covers it, else its projection
    # onto the boundary: the same point bit for bit as the separate pass
    rng = np.random.default_rng(89)
    lam = [0.5, 0.3, 0.2]
    model = barycenter_cost(lam, [Z] * 3, Z)
    xs = [rng.uniform(-0.5, 1.5, size=(500, dim)) for _ in lam]
    for X in xs:
        X[:200] = np.round(4 * X[:200]) / 4
    xbar = sum(w * X for w, X in zip(lam, xs))
    inside = Z.covers(xbar)
    assert inside.any() and not inside.all()
    assert np.array_equal(z_opt(model, xs, Z), z_opt_quadratic(model, xs, Z))
