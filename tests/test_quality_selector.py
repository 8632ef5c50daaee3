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
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (capped_affine_dense_values, l_shape, lex_argmin_dense,
                     mesh_z_opt_candidates, padded_selector_candidates,
                     selector_values, z_opt_chunked, z_opt_dense,
                     z_opt_quadratic)
from teamsolve import equilibrium
from teamsolve.equilibrium import TIE_TOL, z_opt
from teamsolve.geometry import (FiniteSpace, SimplicialComplex,
                                build_box_partition)
from teamsolve.problems import (barycenter_cost, business_location_cost,
                                capped_affine_cost, tabulated_cpwa_cost)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SQUARE = build_box_partition([(0, 1), (0, 1)], (4, 4))


def _cost(model, xs, P):
    return sum(model.eval(i, xs[i], P) for i in range(model.N))


def _picks(model, xs, Z):
    """The boundary picks and the dense mesh picks, after checking that both
    attain the same cost within ``TIE_TOL``."""
    got = z_opt_chunked(model, xs, Z, 64)
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
    return padded_selector_candidates(model, xs, Z)


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
    cand, vals = capped_affine_dense_values(model, xs, SQUARE)
    # 2N lines x 4 sides + 4 C(N, 2) line pairs + 4 corners, at N = 8
    assert cand.shape == (10, 180, 2) and vals.shape == (10, 180)
    assert model.z_opt_buffers(SQUARE)[1](10).valid.shape == (10, 180)
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
        ref = z_opt_chunked(model, xs, Z, 1024)
        for chunk in (1, 64):
            assert np.array_equal(z_opt_chunked(model, xs, Z, chunk), ref)


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
        z_opt_chunked(model, xs, Z, 64)
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


def _family_cases():
    """One model per quality selector, with a type sampler ``draw(rng, n)``:
    capped-affine in 1-D and 2-D, business-location, the barycenter
    projection, and a tabulated cost's quality vertices."""
    rng = np.random.default_rng(90)
    line = build_box_partition([(0, 1)], (4,))
    city = build_box_partition([(-2, 2), (-2, 2)], (2, 2))
    lam = [0.5, 0.3, 0.2]
    tables = [np.round(4 * rng.uniform(size=(5, SQUARE.n_vertices))) / 4
              for _ in range(3)]

    def box_types(rng, n):
        # on a quarter grid, so that kink lines coincide
        return [np.round(4 * rng.uniform(-2, 2, size=(n, 2))) / 4
                for _ in range(3)]

    def means_partly_outside(rng, n):
        return [np.round(4 * rng.uniform(-0.5, 1.5, size=(n, 2))) / 4
                for _ in lam]

    return {
        "capped-affine-1d": (
            capped_affine_cost([[1.0], [-1.0], [1.0]], [0.1, 0.25, 0.0],
                               [0.4, 0.5, 0.3]), line,
            lambda rng, n: _types(rng, 3, n, quarter=True)),
        "capped-affine-2d": (
            workloads.build("capped-affine", 3).model, SQUARE,
            lambda rng, n: _types(rng, 8, n, quarter=True)),
        "business-location": (
            business_location_cost([[-2.0, 0.3], [1.0, -2.0], [0.5, 0.5]],
                                   n_categories=3), city, box_types),
        "quadratic": (barycenter_cost(lam, [SQUARE] * 3, SQUARE), SQUARE,
                      means_partly_outside),
        "tabulated": (
            tabulated_cpwa_cost([build_box_partition([(0, 1)], (4,))] * 3,
                                SQUARE, tables), SQUARE,
            lambda rng, n: _types(rng, 3, n, quarter=True)),
    }


def _cpus(monkeypatch, k):
    """Make ``z_opt`` see k CPUs in the process's affinity mask."""
    monkeypatch.setattr(equilibrium.os, "sched_getaffinity",
                        lambda pid: set(range(k)))


@pytest.mark.parametrize("name", sorted(_family_cases()))
def test_picks_do_not_depend_on_workers_or_chunk(name, monkeypatch):
    # every CPU, then one worker and more workers than CPUs; chunks that
    # hold 1 sample, fewer than a chunk and a last partial chunk
    model, Z, draw = _family_cases()[name]
    xs = draw(np.random.default_rng(91), 1500)
    ref = z_opt(model, xs, Z)
    for k in (1, 3):
        _cpus(monkeypatch, k)
        for chunk in (64, 256, 1024):
            for n in (1, 200, 1500):
                got = z_opt_chunked(model, [X[:n] for X in xs], Z, chunk)
                assert np.array_equal(got, ref[:n]), (k, chunk, n)


def test_z_opt_leaves_no_thread_running(monkeypatch):
    model, Z, draw = _family_cases()["capped-affine-2d"]
    xs = draw(np.random.default_rng(92), 700)
    _cpus(monkeypatch, 3)
    before = threading.active_count()
    z_opt_chunked(model, xs, Z, 64)
    assert threading.active_count() == before


@pytest.mark.parametrize("name", sorted(_family_cases()))
def test_threads_only_for_families_with_buffers(name, monkeypatch):
    # the barycenter projection and the quality vertices take no
    # per-thread buffers, and their chunks run inline
    model, Z, draw = _family_cases()[name]
    xs = draw(np.random.default_rng(95), 700)
    _cpus(monkeypatch, 3)
    pools = []
    pool = equilibrium.ThreadPoolExecutor

    def counted(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(equilibrium, "ThreadPoolExecutor", counted)
    z_opt_chunked(model, xs, Z, 64)
    assert pools == ([] if name in ("quadratic", "tabulated") else [3])


def test_many_threads_with_short_switch_interval(monkeypatch):
    # more threads than cores, switching every microsecond, on 2-sample
    # chunks: a lost or crossed write of a chunk's rows or buffers would
    # move a pick
    for name in ("capped-affine-2d", "business-location"):
        model, Z, draw = _family_cases()[name]
        xs = draw(np.random.default_rng(94), 300)
        _cpus(monkeypatch, 1)
        ref = z_opt_chunked(model, xs, Z, 2)
        _cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = z_opt_chunked(model, xs, Z, 2)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, ref)


def test_direct_selector_call_matches_the_buffered_one():
    # a buffer set reused for a smaller batch gives that batch's rows, as
    # a call on buffers made for the batch does
    for name in ("capped-affine-1d", "capped-affine-2d", "business-location"):
        model, Z, draw = _family_cases()[name]
        xs = draw(np.random.default_rng(93), 300)
        part = [X[:120] for X in xs]
        ref = selector_values(model, part, Z)
        work = model.z_opt_buffers(Z)[1](300)
        model.z_opt_values(xs, Z, work)
        got = model.z_opt_values(part, Z, work)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the capped-affine chunk path against the dense reference

LINE = build_box_partition([(0, 1)], (4,))


def _dense_case(N, d, case, rng):
    """A capped-affine model on the unit interval (d = 1) or square
    (d = 2) and 300 types per category: random directions and bands;
    parallel directions (all of them in 1-D, repeated and opposite ones in
    2-D); kappa1 = 0 with kappa2 = inf; or lines through the region's
    corners, with kappa1 = 0 and types on the corners' values."""
    if d == 1:
        s = rng.choice([-1.0, 1.0], size=(N, 1))
    elif case == "parallel":
        base = rng.normal(size=(max(1, N // 3), 2))
        s = base[rng.integers(0, len(base), N)] * rng.choice([-1, 1], (N, 1))
    elif case == "corners":
        s = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]])[
            rng.integers(0, 4, N)]
    else:
        s = rng.normal(size=(N, 2))
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    k1 = rng.uniform(0.0, 0.2, N)
    k2 = k1 + rng.uniform(0.1, 0.5, N)
    if case in ("kappa-limits", "corners"):
        k1, k2 = np.zeros(N), np.full(N, np.inf)
    n = 300
    if case == "corners":
        Z = LINE if d == 1 else SQUARE
        ends = Z.vertices[Z.boundary[0]]
        xs = [(ends[rng.integers(0, len(ends), (n, 1))] @ s[i])
              for i in range(N)]
        for X in xs:
            X[::3] = rng.uniform(size=(len(X[::3]), 1))
    else:
        xs = _types(rng, N, n, quarter=True)
    return capped_affine_cost(s, k1, k2), xs


DENSE_CASES = [(N, d, case) for N in (1, 2, 8, 32) for d in (1, 2)
               for case in ("random", "parallel", "kappa-limits", "corners")
               if not (d == 1 and case == "parallel")]


@pytest.mark.parametrize("N,d,case", DENSE_CASES)
def test_flat_path_matches_the_dense_reference(N, d, case, monkeypatch):
    # the valid candidates and their values, in order and bit for bit, and
    # the picks for every chunk length and number of workers
    rng = np.random.default_rng(1000 * N + 10 * d + len(case))
    model, xs = _dense_case(N, d, case, rng)
    Z = LINE if d == 1 else SQUARE
    cand, vals = capped_affine_dense_values(model, xs, Z)
    valid = np.isfinite(vals)
    pts, got, starts = selector_values(model, xs, Z)
    assert np.array_equal(pts.view(np.uint64), cand[valid].view(np.uint64))
    assert np.array_equal(got.view(np.uint64), vals[valid].view(np.uint64))
    counts = valid.sum(axis=1)
    assert np.array_equal(starts, np.cumsum(counts) - counts)
    ref = cand[np.arange(len(cand)), lex_argmin_dense(cand, vals)]
    for workers in (1, 2, 3):
        _cpus(monkeypatch, workers)
        for chunk in (1, 64, 256, 1024):
            picks = z_opt_chunked(model, xs, Z, chunk)
            assert np.array_equal(picks.view(np.uint64),
                                  ref.view(np.uint64)), (workers, chunk)


def _teamsolve_lines(call):
    """The number of lines of the package's modules that ``call()`` runs."""
    root = str(Path(equilibrium.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(global_)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_chunk_lines_do_not_depend_on_the_category_count():
    # one 64-sample chunk, on buffers made beforehand (the line pairs are
    # found once per model, by a loop over the category pairs)
    counts = []
    for N in (4, 8, 16, 32):
        rng = np.random.default_rng(N)
        s = rng.normal(size=(N, 2))
        model = capped_affine_cost(s / np.linalg.norm(s, axis=1)[:, None],
                                   0.05, 0.3)
        work = model.z_opt_buffers(SQUARE)[1](64)
        xs = _types(rng, N, 64)
        counts.append(_teamsolve_lines(
            lambda: model.z_opt_values(xs, SQUARE, work)))
    assert len(set(counts)) == 1, counts


def test_add_reduce_down_the_rows_is_the_sequential_sum():
    # the selector sums its (N, m) cost table with one np.add.reduce along
    # the first axis; over a C-ordered table numpy adds the rows in order,
    # the sum eval's category loop makes.  Values over many magnitudes make
    # the order show in the last bits
    rng = np.random.default_rng(96)
    for N in range(2, 101):
        table = rng.lognormal(0.0, 8.0, size=(N, 37))
        table[:, ::5] *= -1.0
        seq = np.zeros(table.shape[1])
        for row in table:
            seq += row
        got = np.add.reduce(table, axis=0, out=np.empty(table.shape[1]))
        assert np.array_equal(got.view(np.uint64), seq.view(np.uint64)), N
        if N >= 8:
            # the data tells the orders apart: the transposed table's
            # contiguous (pairwise) sum differs somewhere
            pairwise = np.ascontiguousarray(table.T).sum(axis=1)
            assert not np.array_equal(pairwise, seq)
