"""Batch front end: parse a problem config, run the full pipeline
(partition, moments, cutting-plane solve, equilibrium assembly), and write
machine-readable artifacts.

Subcommands::

    teamsolve run    --config F --out DIR [--seed S]
    teamsolve verify --config F

Set ``TEAMSOLVE_LOG`` to ``error``, ``info`` or ``debug`` to control
logging.  Outputs in the run directory: ``result.json``,
``iterations.csv``, ``nu_hat.csv``, ``coupling_samples_{i}.csv``,
``transfer_{i}.csv``, ``nu_tilde_hist.csv``.  Given the same config and
seed the result is deterministic up to the timing fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
import time

import numpy as np

from . import cutting_plane, equilibrium
from .geometry import (FiniteSpace, HatBasis, PointOutsideComplexError,
                       build_box_partition, epsilon_bar)
from .measures import (CpwaDensityMeasure, DiscreteMeasure, moment_vector,
                       moments_all_vertices, random_cpwa, uniform_points)
from .oracle import make_oracle
from .problems import (barycenter_cost, business_location_cost,
                       capped_affine_cost, tabulated_cpwa_cost)

log = logging.getLogger("teamsolve.cli")


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__("%s: %s" % (path, message))
        self.path = path


# the fields of each family of problem and type of space and measure,
# besides the field that names it
PROBLEM_FIELDS = {"barycenter": ("weights",),
                  "business_location": ("stations", "c_walk", "c_train",
                                        "c_restock"),
                  "capped_affine": ("s", "kappa1", "kappa2"),
                  "tabulated": ("tables",)}
SPACE_FIELDS = {"box": ("box", "counts"), "finite": ("points",)}
MEASURE_FIELDS = {"random_cpwa": ("seed",), "discrete": ("atoms", "weights"),
                  "cpwa": ("vertex_density",)}


def _need(doc, key, path):
    if not isinstance(doc, dict):
        raise ConfigError(path, "need an object")
    if key not in doc:
        raise ConfigError("%s.%s" % (path, key), "missing required field")
    return doc[key]


def _reject_unknown(doc, known, path):
    if not isinstance(doc, dict):
        raise ConfigError(path, "need an object")
    for key in doc:
        if key not in known:
            raise ConfigError("%s.%s" % (path, key), "unknown field")


def _kind(doc, key, fields, what, path):
    """``doc[key]``, one of the kinds in ``fields``, after rejecting the
    fields that kind does not have."""
    kind = _need(doc, key, path)
    if kind not in list(fields):
        raise ConfigError("%s.%s" % (path, key), "unknown %s %r"
                          % (what, kind))
    _reject_unknown(doc, (key,) + fields[kind], path)
    return kind


def _number(value, path, integer=False):
    """A JSON number from the config, an integer where ``integer``; a
    boolean is neither."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(path, "need %s, got %r"
                          % ("an integer" if integer else "a number", value))
    return value


def _count(value, path, least=1):
    """An integer from the config, at least ``least``."""
    if _number(value, path, integer=True) < least:
        raise ConfigError(path, "must be at least %d" % least)
    return value


def _entries(value, path, check):
    """``value`` after ``check`` of each entry of it, a number or a nested
    JSON array of numbers, each at its own path: ``numpy`` would read
    2.5, true or "3" as a number of cells, a coordinate or a weight."""
    if isinstance(value, list):
        for j, v in enumerate(value):
            _entries(v, "%s[%d]" % (path, j), check)
    else:
        check(value, path)
    return value


def _numbers(doc, key, path):
    """``doc[key]``, a number or a nested JSON array of numbers, each entry
    checked at its own path."""
    return _entries(_need(doc, key, path), "%s.%s" % (path, key), _number)


def _build_space(doc, path):
    if _kind(doc, "type", SPACE_FIELDS, "space type", path) == "box":
        build, args = build_box_partition, (
            _numbers(doc, "box", path),
            _entries(_need(doc, "counts", path), path + ".counts", _count))
    else:
        build, args = FiniteSpace, (_numbers(doc, "points", path),)
    try:
        return build(*args)
    except Exception as e:
        raise ConfigError(path, str(e)) from e


def _build_measure(doc, space, seed, path):
    kind = _kind(doc, "type", MEASURE_FIELDS, "measure type", path)
    try:
        if kind == "random_cpwa":
            rng = np.random.default_rng(
                _count(doc.get("seed", seed), path + ".seed", least=0))
            return random_cpwa(space, rng)
        if kind == "discrete":
            return DiscreteMeasure(
                np.asarray(_numbers(doc, "atoms", path), dtype=float),
                np.asarray(_numbers(doc, "weights", path), dtype=float))
        return CpwaDensityMeasure(space, np.asarray(
            _numbers(doc, "vertex_density", path), dtype=float))
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(path, str(e)) from e


class ProblemSetup:
    """Everything the pipeline needs, assembled from a config dict."""

    def __init__(self, config):
        _reject_unknown(config, ("problem", "categories", "quality",
                                 "eps_lsip", "mc", "seed", "i_hat",
                                 "max_iterations"), "$")
        cats = _need(config, "categories", "$")
        if not isinstance(cats, list) or not cats:
            raise ConfigError("$.categories", "need a non-empty list")
        self.N = len(cats)
        seed = _count(config.get("seed", 0), "$.seed", least=0)
        self.seed = seed
        self.x_spaces = []
        self.measures = []
        for i, cat in enumerate(cats):
            base = "$.categories[%d]" % i
            _reject_unknown(cat, ("space", "measure"), base)
            sp = _build_space(_need(cat, "space", base), base + ".space")
            self.x_spaces.append(sp)
            mu = _build_measure(_need(cat, "measure", base), sp,
                                seed + 1000 + i, base + ".measure")
            if mu.dim != sp.dim:
                raise ConfigError(base + ".measure",
                                  "measure dimension %d does not match the "
                                  "space dimension %d" % (mu.dim, sp.dim))
            self.measures.append(mu)
        qdoc = _need(config, "quality", "$")
        _reject_unknown(qdoc, ("space",), "$.quality")
        self.z_space = _build_space(_need(qdoc, "space", "$.quality"),
                                    "$.quality.space")
        self.x_bases = [HatBasis(sp) for sp in self.x_spaces]
        self.z_basis = HatBasis(self.z_space)
        self.model = self._build_model(_need(config, "problem", "$"))
        if self.model.N != self.N:
            raise ConfigError("$.problem",
                              "cost model has %d categories, config has %d"
                              % (self.model.N, self.N))
        self.eps_lsip = float(_number(_need(config, "eps_lsip", "$"),
                                      "$.eps_lsip"))
        if not self.eps_lsip > 0:
            raise ConfigError("$.eps_lsip", "must be positive")
        mc = config.get("mc", {})
        _reject_unknown(mc, ("n", "repetitions"), "$.mc")
        self.mc_n = _count(mc.get("n", 100000), "$.mc.n")
        self.mc_repetitions = _count(mc.get("repetitions", 20),
                                     "$.mc.repetitions")
        self.i_hat = config.get("i_hat", "auto")
        if self.i_hat != "auto":
            _number(self.i_hat, "$.i_hat", integer=True)
            if not 0 <= self.i_hat < self.N:
                raise ConfigError("$.i_hat", "index out of range")
        self.max_iterations = _count(config.get("max_iterations", 10000),
                                     "$.max_iterations")
        self.config = config

    def _build_model(self, doc):
        fam = _kind(doc, "family", PROBLEM_FIELDS, "family", "$.problem")
        try:
            if fam == "barycenter":
                w = (_numbers(doc, "weights", "$.problem") if "weights" in doc
                     else [1.0 / self.N] * self.N)
                return barycenter_cost(w, self.x_spaces, self.z_space,
                                       self.measures)
            if fam == "business_location":
                for where, sp in ([("$.categories[%d].space" % i, sp)
                                   for i, sp in enumerate(self.x_spaces)]
                                  + [("$.quality.space", self.z_space)]):
                    if sp.dim != 2:
                        raise ConfigError(where, "business_location needs "
                                          "2-D spaces")
                return business_location_cost(
                    _numbers(doc, "stations", "$.problem"),
                    n_categories=self.N,
                    **{k: _number(doc[k], "$.problem." + k)
                       for k in ("c_walk", "c_train", "c_restock")
                       if k in doc})
            if fam == "capped_affine":
                model = capped_affine_cost(
                    *(_numbers(doc, k, "$.problem")
                      for k in ("s", "kappa1", "kappa2")))
                wide = [i for i, sp in enumerate(self.x_spaces) if sp.dim > 1]
                if wide:
                    raise ConfigError("$.categories[%d].space" % wide[0],
                                      "capped_affine needs 1-D type spaces")
                if model.d0 != self.z_space.dim:
                    raise ConfigError("$.problem.s", "directions must have "
                                      "the quality dimension")
                # the quality selector walks a grid's boundary, which is
                # described in 1-D and 2-D only
                if model.d0 > 2 and not isinstance(self.z_space, FiniteSpace):
                    raise ConfigError("$.quality.space", "capped_affine needs "
                                      "a 1-D or 2-D grid, or finite points")
                return model
            return tabulated_cpwa_cost(
                self.x_spaces, self.z_space,
                [np.asarray(T, dtype=float)
                 for T in _numbers(doc, "tables", "$.problem")])
        except ConfigError:
            raise
        except Exception as e:
            raise ConfigError("$.problem", str(e)) from e

    def moments(self):
        return [moment_vector(self.measures[i], self.x_bases[i])
                for i in range(self.N)]

    def lp_width(self):
        k = self.z_basis.m
        return self.N * (k + 1) + sum(b.m for b in self.x_bases)


def load_config(path):
    def finite(text):
        # also sees the NaN and Infinity literals Python's json accepts
        value = float(text)
        if not np.isfinite(value):
            raise ConfigError(path, "non-finite number %s" % text)
        return value

    try:
        with open(path) as f:
            return json.load(f, parse_float=finite, parse_constant=finite)
    except OSError as e:
        raise ConfigError(path, "cannot read config: %s" % e) from e
    except json.JSONDecodeError as e:
        raise ConfigError(path, "invalid JSON: %s" % e) from e


def _provenance(config):
    """Identify the inputs: package version, config digest, and the working
    tree's git description when one is available."""
    from . import __version__
    blob = json.dumps(config, sort_keys=True).encode()
    doc = {"package_version": __version__,
           "config_sha256": hashlib.sha256(blob).hexdigest()}
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            doc["git_describe"] = out.stdout.strip()
    except Exception:
        pass
    return doc


def run_pipeline(setup, out_dir):
    """Solve and assemble, and write the artifact files to ``out_dir``."""
    t_total = time.perf_counter()
    gbar = setup.moments()
    oracle = make_oracle(setup.model, setup.x_spaces, setup.x_bases,
                         setup.z_space, setup.z_basis)
    cp_res = cutting_plane.run(
        setup.model, gbar, setup.x_spaces, setup.x_bases, setup.z_space,
        setup.z_basis, oracle, setup.eps_lsip,
        max_iterations=setup.max_iterations)
    t_solve = time.perf_counter() - t_total
    report = equilibrium.construct(
        cp_res, setup.model, setup.measures, setup.x_spaces, setup.x_bases,
        setup.z_space, setup.z_basis, mc_n=setup.mc_n,
        mc_repetitions=setup.mc_repetitions, seed=setup.seed,
        i_hat=setup.i_hat)
    t_total = time.perf_counter() - t_total

    os.makedirs(out_dir, exist_ok=True)
    cp_res.write_iteration_log(os.path.join(out_dir, "iterations.csv"))
    equilibrium.write_nu_hat_csv(report, os.path.join(out_dir, "nu_hat.csv"))
    n_export = min(setup.mc_n, 2000)
    transfers = equilibrium.transfer_table(
        setup.model, cp_res.solution, setup.x_spaces, setup.x_bases,
        setup.z_space.vertices)
    for i in range(setup.N):
        equilibrium.write_coupling_csv(
            report, np.random.default_rng(setup.seed + 100 + i), n_export,
            i, os.path.join(out_dir, "coupling_samples_%d.csv" % i))
        equilibrium.write_transfer_values_csv(
            setup.z_space.vertices, transfers[i],
            os.path.join(out_dir, "transfer_%d.csv" % i))
    equilibrium.write_nu_tilde_hist_csv(
        report, np.random.default_rng(setup.seed + 77), min(setup.mc_n, 20000),
        os.path.join(out_dir, "nu_tilde_hist.csv"))
    timing = {k: sum(getattr(r, k) for r in cp_res.iterations)
              for k in ("add_time", "lp_time", "oracle_time")}
    equilibrium.write_report_json(
        report, os.path.join(out_dir, "result.json"),
        extra={
            "alpha_ub_parametric": cp_res.alpha_ub + report.shift,
            "lsip_gap": cp_res.gap,
            "eps_lsip": setup.eps_lsip,
            "iterations": len(cp_res.iterations),
            "lp_rows": cp_res.n_lp_rows,
            "lp_width": setup.lp_width(),
            "config_echo": setup.config,
            "provenance": _provenance(setup.config),
            "timing": dict(timing, solve_time=t_solve, total_time=t_total),
        })
    return cp_res, report


def verify_setup(setup):
    """Dry-run validation, reported on standard output; returns the number
    of warnings."""
    out, warnings = sys.stdout, 0
    for i, (mu, sp) in enumerate(zip(setup.measures, setup.x_spaces)):
        if isinstance(mu, DiscreteMeasure):
            try:
                sp.vertex_weights(mu.atoms)
            except PointOutsideComplexError as e:
                raise ConfigError("$.categories[%d].measure" % i,
                                  "atom outside the partition: %s" % e) from e
        for v in np.flatnonzero(moments_all_vertices(mu, sp) <= 1e-14):
            warnings += 1
            out.write("warning: category %d vertex %d at %s carries zero "
                      "measure mass\n" % (i, v, sp.vertices[v]))
    rng = np.random.default_rng(setup.seed)
    ok, worst = setup.model.check_lipschitz(
        lambda i, n: uniform_points(setup.x_spaces[i], rng, n),
        lambda n: uniform_points(setup.z_space, rng, n))
    if not ok:
        raise ConfigError("$.problem",
                          "Lipschitz constants violated by %.3g" % worst)
    best_ih = int(np.argmax(setup.model.L2))
    theo = equilibrium.eps_theo(
        setup.eps_lsip, setup.model.L1, setup.model.L2,
        [epsilon_bar(sp) for sp in setup.x_spaces],
        epsilon_bar(setup.z_space), best_ih)
    out.write("lp decision variables n = %d\n" % setup.lp_width())
    out.write("predicted eps_theo (best reference category) = %.6g\n" % theo)
    out.write("verify ok: %d warning(s)\n" % warnings)
    return warnings


def main():
    parser = argparse.ArgumentParser(
        prog="teamsolve",
        description="approximate matching equilibria for N-category "
                    "matching-for-teams problems")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve a problem config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_ver = sub.add_parser("verify", help="validate a config without solving")
    p_ver.add_argument("--config", required=True)
    args = parser.parse_args()
    if args.command == "run" and args.seed is not None and args.seed < 0:
        parser.error("--seed must be at least 0")

    level = os.environ.get("TEAMSOLVE_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(name)s %(levelname)s %(message)s")

    try:
        config = load_config(args.config)
        setup = ProblemSetup(config)
    except ConfigError as e:
        sys.stderr.write("config error at %s\n" % e)
        return 2
    if args.command == "verify":
        try:
            verify_setup(setup)
        except ConfigError as e:
            sys.stderr.write("config error at %s\n" % e)
            return 2
        return 0
    if args.seed is not None:
        setup.seed = args.seed
    try:
        cp_res, report = run_pipeline(setup, args.out)
    except Exception as e:
        sys.stderr.write("solver error [%s]: %s\n" % (type(e).__name__, e))
        return 1
    sys.stdout.write(
        "alpha_lb=%.9g alpha_tilde_ub=%.9g alpha_hat_ub=%.9g "
        "eps_hat_sub=%.3g eps_tilde_sub=%.3g eps_theo=%.3g\n"
        % (report.alpha_lb, report.alpha_tilde_ub, report.alpha_hat_ub,
           report.eps_hat_sub, report.eps_tilde_sub, report.eps_theo))
    return 0


if __name__ == "__main__":
    sys.exit(main())
