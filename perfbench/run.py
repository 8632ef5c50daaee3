#!/usr/bin/env python3
"""Certified-solve benchmark for ``teamsolve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed builds the run's instances (``workloads.py``).  An operation is one
instance taken through ``teamsolve``'s public stages in the order of
``teamsolve.cli.run_pipeline``: moments, cutting plane and, for a full
operation, equilibrium construction and the exports.  A pass runs one
operation per instance; passes repeat until ``--seconds`` have passed (at
least one pass).  Every operation's certificate invariants are checked.  A
failed instance is not run again, and when it was a full one, the next
instance not yet run takes its place in the whole pipeline.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
instance whose whole pipeline completes untraced, then once more with every
layer entry point wrapped, and reports the per-layer metrics and the tracing
overhead; its spans are written to
``.perfbench/trace-<workload>-<seed>.json``.

Every operation ends within ``OPERATION_DEADLINE_S`` and the run within
``RUN_BUDGET_S`` plus the time to print its result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
hold the environment record and one record per operation.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 5
# an operation still running after this many seconds fails, so that a run
# ends within its time limit even when sampling stalls (normal operations
# take under 45 s)
OPERATION_DEADLINE_S = 80
# no operation starts, and a running one fails, once this many seconds of
# the run have passed, so that a run with stalls still ends within 180 s
RUN_BUDGET_S = 165
# an operation needs at least this much of the budget to start
MIN_OPERATION_S = 5
# z_opt may pick a minimizer up to its tie tolerance (1e-12 per sample) above
# the true minimum, so the pushforward bound can exceed the discrete one by
# rounding only
ORDER_TOL = 1e-9
# outputs that repeat exactly for an instance, traced or not
REPEATED = ("alpha_lb", "iterations", "lp_rows", "alpha_hat_ub",
            "eps_hat_sub", "eps_tilde_sub")
STAGES = ("moments", "cutting_plane.run", "equilibrium.construct", "exports")


# ---------------------------------------------------------------------------
# one operation

class OperationDeadline(Exception):
    pass


def _deadline_passed(signum, frame):
    raise OperationDeadline("operation exceeded its deadline")


def operation(ts, inst, tracer, full, reference, out_dir):
    """Solve ``inst``; a full operation then constructs the equilibrium and
    writes the exports, as ``teamsolve run`` does.  Returns (cutting-plane
    result, record, failed checks)."""
    oracle = tracer.wrap_oracle(inst.oracle) if tracer.installed \
        else inst.oracle
    t0 = time.perf_counter()
    with tracer.span("moments"):
        gbar = [ts.moment_vector(mu, b)
                for mu, b in zip(inst.measures, inst.x_bases)]
    with tracer.span("cutting_plane.run"):
        cp = ts.cutting_plane.run(inst.model, gbar, inst.x_spaces,
                                  inst.x_bases, inst.z_space, inst.z_basis,
                                  oracle, inst.eps_lsip)
    rec = {"solve_s": time.perf_counter() - t0,
           "alpha_lb": cp.alpha_lb + inst.model.shift,
           "iterations": len(cp.iterations), "lp_rows": cp.n_lp_rows}
    checks = [
        (cp.gap <= inst.eps_lsip,
         "gap %.6g > eps_lsip %.6g" % (cp.gap, inst.eps_lsip)),
        (reference is None
         or abs(rec["alpha_lb"] - reference) <= inst.eps_lsip,
         "alpha_lb %.9g is more than eps_lsip from the reference %s"
         % (rec["alpha_lb"], reference)),
    ]
    if full:
        with tracer.span("equilibrium.construct"):
            report = ts.equilibrium.construct(
                cp, inst.model, inst.measures, inst.x_spaces, inst.x_bases,
                inst.z_space, inst.z_basis, mc_n=inst.mc_n,
                mc_repetitions=inst.mc_repetitions, seed=inst.seed,
                semidiscrete_params=inst.semidiscrete_params)
        with tracer.span("exports"):
            names = export(ts, inst, cp, report, out_dir)
        rec["total_s"] = time.perf_counter() - t0
        rec.update(alpha_hat_ub=report.alpha_hat_ub,
                   alpha_tilde_ub=report.alpha_tilde_ub,
                   eps_hat_sub=report.eps_hat_sub,
                   eps_tilde_sub=report.eps_tilde_sub)
        checks += report_checks(inst, report)
        checks += [(os.path.getsize(os.path.join(out_dir, name)) > 0,
                    "export %s is empty" % name) for name in names]
    return cp, rec, [message for ok, message in checks if not ok]


def report_checks(inst, report):
    """Certificate invariants of a constructed equilibrium, as
    (holds, message) pairs."""
    checks = [
        (report.alpha_tilde_ub <= report.alpha_hat_ub + ORDER_TOL,
         "alpha_tilde_ub %.9g > alpha_hat_ub %.9g"
         % (report.alpha_tilde_ub, report.alpha_hat_ub)),
        (report.alpha_lb
         <= report.alpha_tilde_ub + 3.0 * report.alpha_tilde_se,
         "alpha_lb %.9g > alpha_tilde_ub %.9g + 3 se %.3g"
         % (report.alpha_lb, report.alpha_tilde_ub, report.alpha_tilde_se)),
        (report.eps_hat_sub <= report.eps_theo,
         "eps_hat_sub %.6g > eps_theo %.6g"
         % (report.eps_hat_sub, report.eps_theo)),
        (report.nu_hat.n_atoms <= report.sparsity_bound,
         "nu_hat has %d atoms > sparsity bound %d"
         % (report.nu_hat.n_atoms, report.sparsity_bound)),
    ]
    if inst.expect_exact:
        checks.append((report.exact, "expected exact expectations"))
    return checks


def export(ts, inst, cp, report, out_dir):
    """The artifact files of ``teamsolve run``, with its sample sizes;
    returns their names."""
    eq = ts.equilibrium
    out = Path(out_dir)
    names = (["iterations.csv", "nu_hat.csv", "nu_tilde_hist.csv",
              "result.json"]
             + ["coupling_samples_%d.csv" % i for i in range(inst.N)]
             + ["transfer_%d.csv" % i for i in range(inst.N)])
    cp.write_iteration_log(out / "iterations.csv")
    eq.write_nu_hat_csv(report, out / "nu_hat.csv")
    rng = np.random.default_rng(inst.seed + 77)
    n_export = min(inst.mc_n, 2000)
    for i in range(inst.N):
        eq.write_coupling_csv(
            report, np.random.default_rng(inst.seed + 100 + i), n_export, i,
            out / ("coupling_samples_%d.csv" % i))
        eq.write_transfer_csv(inst.model, cp.solution, inst.x_spaces,
                              inst.x_bases, inst.z_space.vertices, i,
                              out / ("transfer_%d.csv" % i))
    eq.write_nu_tilde_hist_csv(report, rng, min(inst.mc_n, 20000),
                               out / "nu_tilde_hist.csv")
    k = inst.z_basis.m
    eq.write_report_json(report, out / "result.json", extra={
        "alpha_ub_parametric": cp.alpha_ub + report.shift,
        "lsip_gap": cp.gap,
        "eps_lsip": inst.eps_lsip,
        "iterations": len(cp.iterations),
        "lp_rows": cp.n_lp_rows,
        "lp_width": inst.N * (k + 1) + sum(b.m for b in inst.x_bases),
    })
    return names


def load_reference(workload, seed):
    """Reference ``alpha_lb`` per instance of this run; empty for a seed
    that has none recorded."""
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed), [])


# ---------------------------------------------------------------------------
# environment record

def _openblas_threads(package, pattern, symbols):
    for path in glob.glob(os.path.join(os.path.dirname(package.__file__),
                                       os.pardir, pattern)):
        lib = ctypes.CDLL(path)
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import scipy

    def blas(package, pattern, symbols):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "threads": _openblas_threads(package, pattern, symbols)}

    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        describe = None
    src_lines = 0
    for path in sorted((SRC / "teamsolve").glob("*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np, "numpy.libs/libscipy_openblas*.so",
                           ["scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads"]),
        "scipy_blas": blas(scipy, "scipy.libs/libscipy_openblas*.so",
                           ["scipy_openblas_get_num_threads",
                            "openblas_get_num_threads"]),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_describe": describe,
        "src_teamsolve_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the run

def import_teamsolve():
    """Import ``teamsolve`` from the checkout's ``src``, or return None."""
    if not (SRC / "teamsolve" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no teamsolve sources under %s\n" % SRC)
        return None
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import teamsolve
    if Path(teamsolve.__file__).resolve().parent != SRC / "teamsolve":
        sys.stderr.write("perfbench: imported teamsolve from %s, not from "
                         "the checkout\n" % teamsolve.__file__)
        return None
    return teamsolve


def setup_samples(workload, seed):
    """Cold set-up times (import plus build) from fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(doc["import_s"] + doc["build_s"])
    return out


def per_layer(tracer, cp, total_traced, total_untraced):
    """Per-layer metrics of a traced operation; ``cp`` is None when it
    failed before its cutting-plane result existed."""
    agg = tracer.aggregates
    ctr = tracer.counters
    own = tracer.self_time_by_name()
    iterations = cp.iterations if cp is not None else []
    cuts_added = sum(r.cuts_added for r in iterations)
    offered = ctr["oracle.cuts_offered"]
    s, n = "s", "count"
    return {
        "measures.moment_s": (tracer.total("moments"), s),
        "measures.sample_calls": (agg["measures.sample"]["calls"], n),
        "measures.sample_points": (agg["measures.sample"]["points"], n),
        "measures.sample_s": (agg["measures.sample"]["s"], s),
        "cutting_plane.run_s": (tracer.total("cutting_plane.run"), s),
        "cutting_plane.self_s": (own.get("cutting_plane.run", 0.0), s),
        "cutting_plane.iterations": (len(iterations), n),
        "cutting_plane.lp_rows": (cp.n_lp_rows if cp is not None else 0, n),
        "cutting_plane.cuts_added": (cuts_added, n),
        "linprog.solve_calls": (tracer.count("linprog.solve"), n),
        "linprog.solve_s": (tracer.total("linprog.solve"), s),
        "linprog.simplex_iterations": (
            int(ctr["linprog.simplex_iterations"]), n),
        "linprog.solve_min_calls": (tracer.count("linprog.solve_min"), n),
        "linprog.solve_min_s": (tracer.total("linprog.solve_min"), s),
        "oracle.calls": (tracer.count("oracle"), n),
        "oracle.s": (tracer.total("oracle"), s),
        "oracle.cuts_offered": (int(offered), n),
        "oracle.cut_yield": (cuts_added / offered if offered else 0.0,
                             "ratio"),
        "transport.ot_discrete_calls": (
            tracer.count("transport.ot_discrete"), n),
        "transport.ot_discrete_s": (tracer.total("transport.ot_discrete"), s),
        "transport.ot_quantile_s": (tracer.total("transport.ot_quantile"), s),
        "transport.ot_semidiscrete_s": (
            tracer.total("transport.ot_semidiscrete"), s),
        "transport.sd_mass_mismatch": (ctr["transport.sd_mass_mismatch"],
                                       "mass"),
        "equilibrium.construct_s": (tracer.total("equilibrium.construct"), s),
        "equilibrium.construct_self_s": (
            own.get("equilibrium.construct", 0.0), s),
        "equilibrium.z_opt_calls": (agg["equilibrium.z_opt"]["calls"], n),
        "equilibrium.z_opt_points": (agg["equilibrium.z_opt"]["points"], n),
        "equilibrium.z_opt_s": (agg["equilibrium.z_opt"]["s"], s),
        "equilibrium.exact_bounds_s": (
            tracer.total("equilibrium.exact_bounds"), s),
        "equilibrium.exports_s": (tracer.total("exports"), s),
        "trace.overhead_s": (total_traced - total_untraced, s),
        "trace.unaccounted_s": (
            total_traced - sum(tracer.total(name) for name in STAGES), s),
    }


def main(argv=None):
    t_run = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    ts = import_teamsolve()
    if ts is None:
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s"
                     % ", ".join(workloads.WORKLOADS))

    WORK_DIR.mkdir(exist_ok=True)
    print(json.dumps({"env": environment()}), flush=True)
    wl = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    run_id = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    records = {j: [] for j in range(wl.solved)}   # completed operations
    failed_after = []   # seconds each failed operation ran
    attempted = failed = 0

    def attempt(j, tracer, full):
        """One operation on instance j; returns (cp, record), or
        (None, None) when it failed or the run's budget is spent."""
        nonlocal attempted, failed
        left = RUN_BUDGET_S - (time.perf_counter() - t_run)
        if left < MIN_OPERATION_S:
            return None, None
        attempted += 1
        signal.signal(signal.SIGALRM, _deadline_passed)
        signal.setitimer(signal.ITIMER_REAL,
                         min(OPERATION_DEADLINE_S, left))
        t0 = time.perf_counter()
        try:
            with tracer.span("setup"):
                inst = workloads.build(args.workload, args.seed, j)
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as out_dir:
                cp, rec, bad = operation(
                    ts, inst, tracer, full,
                    reference[j] if j < len(reference) else None, out_dir)
        except Exception as exc:
            traceback.print_exc()
            cp, rec, bad = None, {}, ["raised %s: %s"
                                      % (type(exc).__name__, exc)]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if records[j]:
            bad += ["%s differs from the first operation on this instance"
                    % key for key in REPEATED
                    if key in rec and rec[key] != records[j][0][key]]
        print(json.dumps({"operation": attempted, "instance": j,
                          "traced": tracer.installed, "failures": bad,
                          **rec}), flush=True)
        if bad:
            failed += 1
            failed_after.append(time.perf_counter() - t0)
            return None, None
        if not tracer.installed:
            records[j].append(rec)
        return cp, rec

    def elapsed():
        return time.perf_counter() - t_start

    plain = spans.Tracer(run_id)
    t_start = time.perf_counter()
    metrics = {}
    if args.trace:
        # one instance runs untraced, then once more traced: the first
        # instance whose whole pipeline completes
        traced = next((j for j in range(wl.solved)
                       if attempt(j, plain, True)[1] is not None), None)
        while traced is not None and elapsed() < args.seconds:
            attempt(traced, plain, True)
        tracer = spans.Tracer(run_id + "-traced")
        tracer.install(ts)
        try:
            cp, rec = attempt(0 if traced is None else traced, tracer, True)
        finally:
            tracer.restore()
            tracer.dump(WORK_DIR / ("trace-%s-%d.json"
                                    % (args.workload, args.seed)))
        total_traced = (rec["total_s"] if rec is not None
                        else failed_after[-1] if failed_after else 0.0)
        untraced = [r["total_s"] for r in records.get(traced, [])]
        metrics = per_layer(tracer, cp, total_traced,
                            statistics.median(untraced) if untraced
                            else total_traced)
        # the stage spans must cover the traced total_s up to the tracing
        # overhead
        overhead = metrics["trace.overhead_s"][0]
        unaccounted = metrics["trace.unaccounted_s"][0]
        if rec is not None and abs(unaccounted) > abs(overhead):
            sys.stderr.write("perfbench: stage spans leave %.3g s of the "
                             "traced total_s unaccounted (overhead %.3g s)"
                             "\n" % (unaccounted, overhead))
            failed += 1
    else:
        full = set(range(wl.full))
        given_up = set()    # a failed instance is not run again
        # half the solve-only instances run before the full ones and half
        # after, so that solve_s samples the host's speed, which drifts
        # over seconds to minutes, at two times of the run
        solve_only = list(range(wl.full, wl.solved))
        half = len(solve_only) // 2
        order = solve_only[:half] + list(range(wl.full)) + solve_only[half:]
        while attempted == 0 or elapsed() < args.seconds:
            for j in order:
                if j in given_up:
                    continue
                if attempt(j, plain, j in full)[1] is None:
                    given_up.add(j)
                    if j in full:
                        # the next instance not yet run takes the failed
                        # one's place in the whole pipeline
                        spare = next((k for k in order[order.index(j):]
                                      if k not in full and not records[k]),
                                     None)
                        if spare is not None:
                            full.add(spare)
            if len(given_up) == wl.solved:
                break

        def mean_of_medians(key, js):
            """Mean over instances of the median over their completed
            operations; with none completed, the median time the failed
            operations ran for a time, and infinity (no certificate) for a
            width."""
            done = [j for j in js if records[j]]
            if done:
                return statistics.fmean(statistics.median(
                    r[key] for r in records[j]) for j in done)
            if key.endswith("_s") and failed_after:
                return statistics.median(failed_after)
            return float("inf")

        full = sorted(full)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s": (mean_of_medians("solve_s", range(wl.solved)), "s"),
            "total_s": (mean_of_medians("total_s", full), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "eps_hat_sub": (mean_of_medians("eps_hat_sub", full), "cost"),
            "eps_tilde_sub": (mean_of_medians("eps_tilde_sub", full),
                              "cost"),
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
