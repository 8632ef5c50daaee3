"""The names and call shapes the benchmark in ``perfbench/`` relies on.

The benchmark builds its instances through ``perfbench/workloads.py``, calls
the pipeline stages the way ``perfbench/run.py`` does, and in its traced mode
replaces library names where the calling modules look them up.  A library
change that drops one of them would otherwise only show up as failed
benchmark operations.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import teamsolve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_instance_builds(name):
    inst = workloads.build(name, 0)
    assert inst.N == inst.model.N == len(inst.measures)
    assert callable(inst.oracle)


def test_stage_call_shapes():
    # positional and keyword arguments as perfbench/run.py passes them
    inspect.signature(teamsolve.cutting_plane.run).bind(*range(8))
    inspect.signature(teamsolve.equilibrium.construct).bind(
        *range(7), mc_n=1, mc_repetitions=1, seed=0, semidiscrete_params={})


def test_tracer_installs_and_restores():
    tracer = spans.Tracer("contract")
    originals = (teamsolve.linprog.solve, teamsolve.equilibrium.z_opt,
                 teamsolve.measures.CpwaDensityMeasure.sample)
    tracer.install(teamsolve)
    try:
        assert tracer.installed
        assert teamsolve.linprog.solve is not originals[0]
    finally:
        tracer.restore()
    assert (teamsolve.linprog.solve, teamsolve.equilibrium.z_opt,
            teamsolve.measures.CpwaDensityMeasure.sample) == originals


def test_oracle_solves_no_lp():
    # the oracle's coupled terms take the least of cached arrangement
    # vertices, so neither the oracle nor ``type_minima`` makes a traced
    # ``linprog`` call: its bound rests on no solver's tolerances
    ca = workloads.build("capped-affine", 0)
    bl = workloads.build("business-location", 0)
    tracer = spans.Tracer("contract")
    tracer.install(teamsolve)
    try:
        for inst in (ca, bl):
            inst.oracle(0, np.zeros(inst.x_bases[0].m),
                        np.zeros(inst.z_basis.m))
        teamsolve.oracle.type_minima(ca.model, 0, ca.x_spaces[0],
                                     ca.x_bases[0], np.zeros(ca.x_bases[0].m),
                                     ca.z_space.vertices)
    finally:
        tracer.restore()
    assert tracer.count("linprog.solve_min") == 0
    assert tracer.count("linprog.solve") == 0


def test_traced_solve_counts_one_lp_solve_per_iteration():
    # the persistent model is solved once per cutting-plane round, and the
    # warm-started rounds still report their simplex iterations
    inst = workloads.build("barycenter-discrete", 0)
    gbar = [teamsolve.moment_vector(mu, b)
            for mu, b in zip(inst.measures, inst.x_bases)]
    tracer = spans.Tracer("contract")
    tracer.install(teamsolve)
    try:
        cp = teamsolve.cutting_plane.run(
            inst.model, gbar, inst.x_spaces, inst.x_bases, inst.z_space,
            inst.z_basis, inst.oracle, inst.eps_lsip)
    finally:
        tracer.restore()
    assert tracer.count("linprog.solve") == len(cp.iterations)
    assert tracer.counters["linprog.simplex_iterations"] > 0


def test_business_location_seed_10_constructs():
    # one dual type atom of this instance has weight 0.0015; its coupling
    # onto the continuous agent measure still has exact marginals
    inst = workloads.build("business-location", 10)
    gbar = [teamsolve.moment_vector(mu, b)
            for mu, b in zip(inst.measures, inst.x_bases)]
    cp = teamsolve.cutting_plane.run(inst.model, gbar, inst.x_spaces,
                                     inst.x_bases, inst.z_space, inst.z_basis,
                                     inst.oracle, inst.eps_lsip)
    report = teamsolve.equilibrium.construct(
        cp, inst.model, inst.measures, inst.x_spaces, inst.x_bases,
        inst.z_space, inst.z_basis, mc_n=inst.mc_n,
        mc_repetitions=inst.mc_repetitions, seed=inst.seed)
    recs = report.to_json()["agent_couplings"]
    assert [r["kind"] for r in recs] == ["cells"] * inst.N
    assert max(r["marginal_residual"] for r in recs) <= 1e-12
