"""The business-location quality selector's cost table against ``eval``.

``BusinessLocationCost.z_opt_values`` fills an (n, V, H) table of the summed
cost on each sample's grid of vertical and horizontal kink lines from
per-axis walking costs.  It does the additions and minimums of ``eval`` on
each row, so its candidates must equal the frozen reference
``helpers.business_z_opt_candidates`` in order and every entry must equal
``eval`` on its (sample, candidate) pair bit for bit.

``eval`` and the table take the station route as rides[jp] + dzu[jp]:
the cheapest ride to each exit station jp (``_rides``, the least over j of
dxu[j] + fare) plus the walk on, so the quality side (dzu) is built once
per chunk and each category adds S rides to it.  A property test holds
them against another grouping, (dxu[j] + dzu[jp]) + fare,
``helpers.business_eval_walks_first``: the values agree to rounding, and
the picks agree wherever the minimum is not tied within ``TIE_TOL``.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (business_eval_walks_first, business_z_opt_candidates,
                     lex_argmin_loop, selector_values, z_opt_chunked)
from teamsolve import equilibrium
from teamsolve.equilibrium import TIE_TOL, z_opt
from teamsolve.geometry import SimplicialComplex, build_box_partition
from teamsolve.problems import CostModelError, business_location_cost

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CITY = build_box_partition([(-2, 2), (-2, 2)], (2, 2))


def _types(rng, x_spaces, n, step=None):
    """n uniform types per category on its space's box; with ``step`` the
    types are rounded to multiples of it, so kink lines coincide."""
    xs = []
    for sp in x_spaces:
        X = rng.uniform(sp.box[:, 0], sp.box[:, 1], size=(n, sp.dim))
        if step is not None:
            X = np.round(X / step) * step
        xs.append(X)
    return xs


def _cases():
    rng = np.random.default_rng(131)
    bench = workloads.build("business-location", 3)
    # a station on each of two box sides and one at a corner
    sides = business_location_cost([[-2.0, 0.3], [1.0, -2.0], [0.5, 0.5],
                                    [2.0, 2.0]], n_categories=3)
    # the bench's restock category lives south of the quality box
    return {
        "bench-uniform": (bench.model, _types(rng, bench.x_spaces, 300)),
        "bench-quarter": (bench.model,
                          _types(rng, bench.x_spaces, 300, 0.25)),
        "bench-half": (bench.model, _types(rng, bench.x_spaces, 300, 0.5)),
        "station-on-side": (sides, _types(rng, [CITY] * 3, 300, 0.25)),
    }


def _table(model, xs):
    """``z_opt_values``' flat candidates and values as (n, k) tables, after
    checking that every sample owns k of them in order."""
    pts, vals, starts = selector_values(model, xs, CITY)
    n = len(xs[0])
    k = len(vals) // n
    assert np.array_equal(starts, np.arange(n) * k)
    return pts.reshape(n, k, 2), vals.reshape(n, k)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_table_candidates_match_reference(name):
    model, xs = _cases()[name]
    cand, vals = _table(model, xs)
    ref, valid = business_z_opt_candidates(model, xs, CITY)
    assert valid.all() and np.isfinite(vals).all()
    assert np.array_equal(cand, ref)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_table_equals_eval_bitwise(name):
    model, xs = _cases()[name]
    cand, vals = _table(model, xs)
    n, k = vals.shape
    tot = np.zeros(n * k)
    for i in range(model.N):
        tot += model.eval(i, np.repeat(xs[i], k, axis=0), cand.reshape(-1, 2))
    assert np.array_equal(vals, tot.reshape(n, k))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_buffers_reused_across_chunk_lengths(name):
    # one buffer set through a full chunk, then a shorter one: no row of
    # the quality-side walks (or any other buffer) may carry over from the
    # first
    model, xs = _cases()[name]
    work = model.z_opt_buffers(CITY)[1](256)
    for rows in (slice(0, 256), slice(256, 293)):
        part = [X[rows] for X in xs]
        got = model.z_opt_values(part, CITY, work)
        ref = selector_values(model, part, CITY)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


# the city box on a quarter lattice: its corners, the other points of its
# sides, and the inner points
LATTICE = np.stack(np.meshgrid(np.arange(-8, 9), np.arange(-8, 9),
                               indexing="ij"), -1).reshape(-1, 2) * 0.25
ON_SIDE = (np.abs(LATTICE) == 2.0).sum(1)
WHERE = {"corner": ON_SIDE == 2, "side": ON_SIDE == 1, "inside": ON_SIDE == 0}


def _some_on(rng, P, U, share=0.3):
    """P with about ``share`` of its rows moved onto random stations."""
    P = P.copy()
    on = rng.random(len(P)) < share
    P[on] = U[rng.integers(len(U), size=on.sum())]
    return P


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 7), first=st.sampled_from(sorted(WHERE)),
       on_lattice=st.booleans(), N=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grouping_agrees_with_walks_first(S, first, on_lattice, N, seed):
    rng = np.random.default_rng(seed)
    # distinct stations; the first on a corner, a side or inside the box
    pick = rng.choice(np.flatnonzero(WHERE[first]))
    rest = np.delete(LATTICE, pick, axis=0)
    if on_lattice:
        rest = rest[rng.choice(len(rest), S - 1, replace=False)]
    else:
        rest = rng.uniform(-2, 2, size=(S - 1, 2))
    U = np.vstack([LATTICE[pick], rest])
    model = business_location_cost(
        U, c_walk=rng.uniform(0.05, 0.3), c_train=rng.uniform(0.0, 0.1),
        c_restock=rng.uniform(0.1, 0.6), n_categories=N)
    xs = [_some_on(rng, rng.uniform(-2, 2, size=(60, 2)), U)
          for _ in range(N)]
    # every category's eval against the former grouping, with type and
    # quality points on stations and quality points at the types
    Z = _some_on(rng, rng.uniform(-2, 2, size=(60, 2)), U)
    for i in range(N):
        for Zi in (Z, xs[i][::-1], xs[i]):
            got = model.eval(i, xs[i], Zi)
            ref = business_eval_walks_first(model, i, xs[i], Zi)
            assert (np.abs(got - ref)
                    <= 4 * np.spacing(np.maximum(got, ref))).all()
    # the picks of the former grouping on the same candidates
    cand, valid = business_z_opt_candidates(model, xs, CITY)
    n, k = valid.shape
    old = sum(business_eval_walks_first(model, i, np.repeat(xs[i], k, axis=0),
                                        cand.reshape(-1, 2))
              for i in range(N)).reshape(n, k)
    ref = cand[np.arange(n), lex_argmin_loop(cand, old, valid)]
    got = z_opt(model, xs, CITY)
    low = old.min(axis=1)
    other = (cand != ref[:, None]).any(axis=2)
    tied = (other & (old <= low[:, None] + 2 * TIE_TOL)).any(axis=1)
    assert np.array_equal(got[~tied], ref[~tied])
    # where tied, the pick costs at most TIE_TOL (plus rounding) over the
    # least cost
    at_pick = sum(business_eval_walks_first(model, i, xs[i][tied], got[tied])
                  for i in range(N))
    assert (at_pick <= low[tied] + TIE_TOL + 1e-14).all()


def test_one_sample_picks_as_in_a_batch():
    model, xs = _cases()["bench-quarter"]
    batch = z_opt(model, xs, CITY)
    alone = np.vstack([z_opt(model, [X[q:q + 1] for X in xs], CITY)
                       for q in range(0, len(batch), 7)])
    assert np.array_equal(alone, batch[::7])


def test_grid_free_quality_space_raises():
    model, xs = _cases()["bench-uniform"]
    free = SimplicialComplex(CITY.vertices, CITY.simplices)
    with pytest.raises(CostModelError, match="needs a box-grid quality space"):
        z_opt(model, xs, free)


def test_error_in_a_worker_reaches_the_caller(monkeypatch):
    # three workers over five chunks; the third chunk's selector call fails,
    # and the caller gets that exception object, with no thread left over
    model, xs = _cases()["bench-uniform"]
    monkeypatch.setattr(equilibrium.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    planted = CostModelError("planted in the third chunk")
    values = model.z_opt_values

    def fail_on_third_chunk(X_list, z_space, work):
        if np.array_equal(X_list[0][0], xs[0][128]):
            raise planted
        return values(X_list, z_space, work)

    monkeypatch.setattr(model, "z_opt_values", fail_on_third_chunk)
    before = threading.active_count()
    with pytest.raises(CostModelError) as caught:
        z_opt_chunked(model, xs, CITY, 64)
    assert caught.value is planted
    assert threading.active_count() == before
