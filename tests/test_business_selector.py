"""The business-location quality selector's cost table against ``eval``.

``BusinessLocationCost.z_opt_values`` fills an (n, V, H) table of the summed
cost on each sample's grid of vertical and horizontal kink lines from
per-axis walking costs.  It does the additions and minimums of ``eval`` on
each row, so its candidates must equal the frozen reference
``helpers.business_z_opt_candidates`` in order and every entry must equal
``eval`` on its (sample, candidate) pair bit for bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import business_z_opt_candidates
from teamsolve.equilibrium import z_opt
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


@pytest.mark.parametrize("name", sorted(_cases()))
def test_table_candidates_match_reference(name):
    model, xs = _cases()[name]
    cand, vals = model.z_opt_values(xs, CITY)
    ref, valid = business_z_opt_candidates(model, xs, CITY)
    assert valid.all() and np.isfinite(vals).all()
    assert np.array_equal(cand, ref)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_table_equals_eval_bitwise(name):
    model, xs = _cases()[name]
    cand, vals = model.z_opt_values(xs, CITY)
    n, k = vals.shape
    tot = np.zeros(n * k)
    for i in range(model.N):
        tot += model.eval(i, np.repeat(xs[i], k, axis=0), cand.reshape(-1, 2))
    assert np.array_equal(vals, tot.reshape(n, k))


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
