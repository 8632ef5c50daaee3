"""Transfer functions from the oracle's exact minimization
(``oracle.type_minima``) against the per-point candidate path they replace,
kept as ``helpers.transfer_eval_loop``, on solved bench instances.

The quality points are the quality vertices, uniform points, and the points
where the per-point candidate sets change: on a station coordinate
(business location), or where <s_i, z> +- kappa1_i lands on a type vertex
(capped affine).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import transfer_eval_loop
from teamsolve.cutting_plane import run
from teamsolve.equilibrium import transfer_eval, transfer_table
from teamsolve.measures import moment_vector

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _solved(name):
    inst = workloads.build(name, 0)
    gbar = [moment_vector(mu, b) for mu, b in zip(inst.measures, inst.x_bases)]
    res = run(inst.model, gbar, inst.x_spaces, inst.x_bases, inst.z_space,
              inst.z_basis, inst.oracle, inst.eps_lsip)
    return inst, res.solution


def _uniform(rng, box, n):
    box = np.asarray(box, dtype=float)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, len(box)))


def _capped_affine_points(inst, rng):
    Z = inst.z_space
    model = inst.model
    pts = [Z.vertices, _uniform(rng, Z.box, 200)]
    u = np.linspace(-1.5, 1.5, 13)
    for i in range(model.N):
        s = model.s[i]
        perp = np.array([-s[1], s[0]])
        for v in inst.x_spaces[i].vertices[:, 0]:
            for t in (v - model.kappa1[i], v + model.kappa1[i]):
                line = t * s + u[:, None] * perp
                pts.append(line[Z.covers(line)])
    return np.vstack(pts)


def _business_points(inst, rng):
    Z = inst.z_space
    U = inst.model.stations
    on_both = np.array([[a, b] for a in np.unique(U[:, 0])
                        for b in np.unique(U[:, 1])])
    on_x = _uniform(rng, Z.box, 20)
    on_x[:, 0] = rng.choice(U[:, 0], 20)
    on_y = _uniform(rng, Z.box, 20)
    on_y[:, 1] = rng.choice(U[:, 1], 20)
    pts = np.vstack([Z.vertices, _uniform(rng, Z.box, 200), U, on_both,
                     on_x, on_y])
    return pts[Z.covers(pts)]


@pytest.mark.parametrize("name,points", [
    ("capped-affine", _capped_affine_points),
    ("business-location", _business_points)])
def test_transfers_match_the_per_point_reference(name, points):
    inst, sol = _solved(name)
    Z = points(inst, np.random.default_rng(90))
    assert len(Z) >= 200 + inst.z_space.n_vertices
    for i in range(inst.N):
        got = transfer_eval(inst.model, i, Z, sol, inst.x_spaces,
                            inst.x_bases)
        ref = transfer_eval_loop(inst.model, i, Z, sol, inst.x_spaces,
                                 inst.x_bases)
        assert np.abs(got - ref).max() <= 1e-12, (i, np.abs(got - ref).max())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_transfer_table_rows_are_transfer_eval(name):
    inst, sol = _solved(name)
    Z = inst.z_space.vertices
    T = transfer_table(inst.model, sol, inst.x_spaces, inst.x_bases, Z)
    assert T.shape == (inst.N, len(Z))
    total = np.zeros(len(Z))
    for i in range(inst.N - 1):
        row = transfer_eval(inst.model, i, Z, sol, inst.x_spaces,
                            inst.x_bases)
        assert np.array_equal(T[i], row), i
        total += row
    # the last row: minus the others' sum, added in category order
    assert np.array_equal(T[-1], -total)
    assert np.array_equal(T[-1], transfer_eval(
        inst.model, inst.N - 1, Z, sol, inst.x_spaces, inst.x_bases))
