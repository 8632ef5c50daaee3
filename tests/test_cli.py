import json
import os
import re
import sys

import pytest

from helpers import brute_force_discrete_optimum
from teamsolve import equilibrium
from teamsolve.cli import (ConfigError, ProblemSetup, load_config, main,
                           run_pipeline, verify_setup)
from teamsolve.problems import barycenter_cost, business_location_cost

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "demos", "configs")


def _load(name):
    return load_config(os.path.join(CONFIGS, name))


def _main(*args):
    """``main()`` on the command line ``teamsolve ARGS``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["teamsolve", *args])
        return main()


def test_run_discrete_tiny(tmp_path):
    setup = ProblemSetup(_load("discrete_tiny.json"))
    out = str(tmp_path / "out")
    cp_res, report = run_pipeline(setup, out_dir=out)
    ref = brute_force_discrete_optimum(setup.model, setup.measures,
                                       setup.x_spaces, setup.z_space)
    assert report.eps_hat_sub <= 1e-6 + 1e-9
    assert report.alpha_lb - 1e-9 <= ref <= report.alpha_hat_ub + 1e-9
    doc = json.load(open(os.path.join(out, "result.json")))
    assert doc["alpha_lb"] <= doc["alpha_tilde_ub"] <= doc["alpha_hat_ub"]
    for f in ("iterations.csv", "nu_hat.csv", "coupling_samples_0.csv",
              "coupling_samples_1.csv", "transfer_0.csv", "transfer_1.csv",
              "nu_tilde_hist.csv"):
        assert os.path.exists(os.path.join(out, f)), f


def _artifacts(out):
    """Every file of a run directory by name, as bytes, less the timings:
    ``result.json``'s ``timing`` block and the ``*_time`` columns of
    ``iterations.csv``."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "result.json":
            doc = json.loads(data)
            doc.pop("timing")
            data = json.dumps(doc, sort_keys=True).encode()
        elif path.name == "iterations.csv":
            rows = [line.split(b",") for line in data.split(b"\r\n")]
            keep = [j for j, name in enumerate(rows[0])
                    if not name.endswith(b"_time")]
            assert len(keep) == len(rows[0]) - 3
            data = b"\r\n".join(b",".join(row[j] for j in keep)
                                 for row in rows if row != [b""])
        files[path.name] = data
    return files


def test_determinism(tmp_path):
    # two runs of each config in one process, the second on the oracle's
    # warm shared cache: every artifact has the same bytes but for the
    # timings.  The shipped configs' agents are single atoms, so a capped
    # config with a density samples its coupling and histogram files.
    capped = dict(_capped_config(), mc={"n": 2000, "repetitions": 2})
    for k, config in enumerate([_load("discrete_tiny.json"),
                                _load("barycenter_two_points.json"), capped]):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / ("%d%s" % (k, tag))
            run_pipeline(ProblemSetup(config), str(out))
            runs.append(_artifacts(out))
        assert sorted(runs[0]) == sorted(runs[1])
        assert len(runs[0]) == 4 + 2 * ProblemSetup(config).N
        for f in runs[0]:
            assert runs[0][f] == runs[1][f], (k, f)


def test_run_pipeline_minimizes_each_type_once(tmp_path, monkeypatch):
    config = _load("discrete_tiny.json")
    config["categories"] *= 2
    config["problem"]["tables"] += [[[0.5, 0.0], [0.25, 1.0]]] * 2
    calls = []
    minima = equilibrium.type_minima

    def counting(model, i, *args):
        calls.append(i)
        return minima(model, i, *args)

    monkeypatch.setattr(equilibrium, "type_minima", counting)
    setup = ProblemSetup(config)
    cp_res, _ = run_pipeline(setup, out_dir=str(tmp_path / "out"))
    # N-1 minimizations for the N transfer files
    assert sorted(calls) == [0, 1, 2]
    for i in range(setup.N):
        ref = tmp_path / ("ref_%d.csv" % i)
        equilibrium.write_transfer_csv(
            setup.model, cp_res.solution, setup.x_spaces, setup.x_bases,
            setup.z_space.vertices, i, ref)
        got = tmp_path / "out" / ("transfer_%d.csv" % i)
        assert got.read_bytes() == ref.read_bytes(), i


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": {"family": "barycenter"}}')
    rc = _main("run", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2
    worse = tmp_path / "worse.json"
    worse.write_text("{nope")
    assert _main("verify", "--config", str(worse)) == 2


def test_config_error_paths():
    with pytest.raises(ConfigError) as e:
        ProblemSetup({"problem": {"family": "barycenter"}})
    assert "categories" in str(e.value)
    with pytest.raises(ConfigError) as e2:
        ProblemSetup({
            "problem": {"family": "nosuch"},
            "categories": [{"space": {"type": "finite", "points": [[0.0]]},
                            "measure": {"type": "discrete", "atoms": [[0.0]],
                                        "weights": [1.0]}}],
            "quality": {"space": {"type": "finite", "points": [[0.0]]}},
            "eps_lsip": 1e-4})
    assert "family" in str(e2.value)


def test_verify_warns_on_zero_mass_vertex(capsys):
    setup = ProblemSetup(_load("discrete_tiny.json"))
    warnings = verify_setup(setup)
    text = capsys.readouterr().out
    assert warnings == 2
    assert "zero measure mass" in text
    assert "lp decision variables n = 6" in text


def test_verify_dimension_mismatch(tmp_path):
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["measure"]["atoms"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError):
        ProblemSetup(cfg)


def test_cli_main_run(tmp_path, capsys):
    rc = _main("run", "--config",
               os.path.join(CONFIGS, "discrete_tiny.json"),
               "--out", str(tmp_path / "o"), "--seed", "3")
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_lb" in out and "eps_theo" in out


def test_cli_verify_ok():
    rc = _main("verify", "--config",
               os.path.join(CONFIGS, "barycenter_two_points.json"))
    assert rc == 0


def test_unknown_config_keys_are_rejected(tmp_path):
    # removed options and misspelled keys must not be silently ignored
    for key, value in (("tau", 5.0), ("threads", 8), ("eps_lsp", 1.0)):
        cfg = _load("discrete_tiny.json")
        cfg[key] = value
        with pytest.raises(ConfigError) as e:
            ProblemSetup(cfg)
        assert e.value.path == "$." + key
    cfg = _load("discrete_tiny.json")
    cfg["mc"]["mcc"] = 10
    with pytest.raises(ConfigError) as e:
        ProblemSetup(cfg)
    assert e.value.path == "$.mc.mcc"
    cfg = _load("discrete_tiny.json")
    cfg.update(tau=5.0, threads=8, eps_lsp=1.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert _main("verify", "--config", str(bad)) == 2


def test_non_finite_numbers_are_rejected(tmp_path, capsys):
    # Python's json reads NaN and Infinity literals: a NaN tolerance or
    # weight must stop at the config, not inside the solver
    cases = []
    cfg = _load("discrete_tiny.json")
    cfg["eps_lsip"] = float("nan")
    cases.append(cfg)
    cfg = _load("barycenter_two_points.json")
    cfg["problem"]["weights"] = [float("nan"), 1.0]
    cases.append(cfg)
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["measure"]["weights"][0] = float("inf")
    cases.append(cfg)
    for k, cfg in enumerate(cases):
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(json.dumps(cfg))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert _main("verify", "--config", str(path)) == 2
        assert "non-finite" in capsys.readouterr().err
    # a literal beyond the float range reads as infinity
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_load("discrete_tiny.json"))
                    .replace('"eps_lsip": 1e-06', '"eps_lsip": 1e999'))
    assert "1e999" in path.read_text()
    with pytest.raises(ConfigError):
        load_config(str(path))
    cfg = _load("discrete_tiny.json")
    cfg["eps_lsip"] = float("nan")
    with pytest.raises(ConfigError) as e:
        ProblemSetup(cfg)
    assert e.value.path == "$.eps_lsip"


def _set(cfg, path, value):
    *parents, key = path.split(".")
    for p in parents:
        cfg = cfg.setdefault(p, {})
    cfg[key] = value


def _rejected(tmp_path, capsys, cfg, path):
    with pytest.raises(ConfigError) as e:
        ProblemSetup(cfg)
    assert e.value.path == "$." + path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert _main("verify", "--config", str(bad)) == 2
    assert "config error at $.%s:" % path in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    ("eps_lsip", "abc"), ("seed", True), ("mc.n", 100.0),
    ("mc.repetitions", "2"), ("i_hat", "x"), ("max_iterations", [10])])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, path, value):
    # integers for the counts and i_hat; a string, a boolean or a list is
    # not read as a number
    cfg = _load("discrete_tiny.json")
    _set(cfg, path, value)
    _rejected(tmp_path, capsys, cfg, path)


@pytest.mark.parametrize("path,value", [
    ("mc.n", -5), ("mc.repetitions", 0), ("max_iterations", 0)])
def test_counts_below_one_are_rejected(tmp_path, capsys, path, value):
    # found by verify, not after the whole solve
    cfg = _load("discrete_tiny.json")
    _set(cfg, path, value)
    _rejected(tmp_path, capsys, cfg, path)


def test_negative_seed_is_rejected(tmp_path, capsys):
    # numpy takes no negative seed: verify used to die in default_rng
    cfg = _load("discrete_tiny.json")
    cfg["seed"] = 0
    assert ProblemSetup(cfg).seed == 0
    cfg["seed"] = -1
    _rejected(tmp_path, capsys, cfg, "seed")
    # a random measure's own seed too, and a boolean is no integer there
    for value in (-1, True):
        cfg = _load("discrete_tiny.json")
        cfg["categories"][0]["space"] = {"type": "box", "box": [[0, 1]],
                                         "counts": [1]}
        cfg["categories"][0]["measure"] = {"type": "random_cpwa",
                                           "seed": value}
        _rejected(tmp_path, capsys, cfg, "categories[0].measure.seed")
    with pytest.raises(SystemExit) as e:
        _main("run", "--config", os.path.join(CONFIGS, "discrete_tiny.json"),
              "--out", str(tmp_path / "o"), "--seed", "-1")
    assert e.value.code == 2
    assert "--seed must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invalid_business_cost_is_rejected(tmp_path, capsys):
    # the cost model's own checks reach the CLI as a config error
    space = {"type": "box", "box": [[-2, 2], [-2, 2]], "counts": [2, 2]}
    cat = {"space": space, "measure": {"type": "discrete",
                                       "atoms": [[0.0, 0.0]],
                                       "weights": [1.0]}}
    cfg = {"problem": {"family": "business_location",
                       "stations": [[0.0, 0.0], [1.0, 1.0]]},
           "categories": [cat, cat], "quality": {"space": space},
           "eps_lsip": 1e-6}
    assert ProblemSetup(cfg).model.N == 2
    cfg["problem"]["c_walk"] = -0.15
    _rejected(tmp_path, capsys, cfg, "problem")


def test_omitted_cost_keys_take_the_family_defaults(tmp_path, capsys):
    # the CLI passes only the optional keys a config gives
    space = {"type": "box", "box": [[-2, 2], [-2, 2]], "counts": [2, 2]}
    cat = {"space": space, "measure": {"type": "discrete",
                                       "atoms": [[0.0, 0.0]],
                                       "weights": [1.0]}}
    cfg = {"problem": {"family": "business_location",
                       "stations": [[0.0, 0.0], [1.0, 1.0]]},
           "categories": [cat, cat], "quality": {"space": space},
           "eps_lsip": 1e-6}
    ref = business_location_cost(cfg["problem"]["stations"], n_categories=2)
    model = ProblemSetup(cfg).model
    assert (model.c_walk, model.c_train, model.c_restock) == (
        ref.c_walk, ref.c_train, ref.c_restock)
    cfg["problem"]["c_train"] = 0.05
    model = ProblemSetup(cfg).model
    assert (model.c_walk, model.c_train) == (ref.c_walk, 0.05)
    cfg = _load("barycenter_two_points.json")
    setup = ProblemSetup(cfg)
    assert setup.model.shift == barycenter_cost(
        [0.5, 0.5], setup.x_spaces, setup.z_space, setup.measures).shift > 0
    # the shift is always accounted for: the key that switched it off is
    # gone, and a config that still has it is refused
    cfg["problem"]["shift_accounting"] = False
    _rejected(tmp_path, capsys, cfg, "problem.shift_accounting")


def _at(cfg, where):
    """The object at a dotted config path such as ``categories[0].space``."""
    for part in where.split("."):
        name, _, index = part.partition("[")
        cfg = cfg[name] if not index else cfg[name][int(index[:-1])]
    return cfg


@pytest.mark.parametrize("where,key", [
    ("problem", "shift_acounting"),
    ("problem", "stations"),                    # a business-location field
    ("categories[1]", "measures"),
    ("categories[0].space", "pionts"),
    ("categories[0].measure", "wieghts"),
    ("quality", "spaces"),
    ("quality.space", "cuonts"),
])
def test_unknown_keys_are_rejected_at_every_level(tmp_path, capsys, where,
                                                  key):
    # a misspelled optional field would otherwise take its default silently
    cfg = _load("barycenter_two_points.json")
    _at(cfg, where)[key] = 1
    _rejected(tmp_path, capsys, cfg, "%s.%s" % (where, key))


def test_unknown_keys_depend_on_the_kind(tmp_path, capsys):
    # each family, space type and measure type has its own fields
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["space"] = {"type": "box", "box": [[0, 1]],
                                     "counts": [1], "points": [[0.0]]}
    _rejected(tmp_path, capsys, cfg, "categories[0].space.points")
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["measure"] = {"type": "random_cpwa", "seed": 1,
                                       "atoms": [[0.0]]}
    _rejected(tmp_path, capsys, cfg, "categories[0].measure.atoms")
    space = {"type": "box", "box": [[-2, 2], [-2, 2]], "counts": [2, 2]}
    cat = {"space": space, "measure": {"type": "discrete",
                                       "atoms": [[0.0, 0.0]],
                                       "weights": [1.0]}}
    cfg = {"problem": {"family": "business_location", "c_wlak": 0.3,
                       "stations": [[0.0, 0.0], [1.0, 1.0]]},
           "categories": [cat, cat], "quality": {"space": space},
           "eps_lsip": 1e-6}
    _rejected(tmp_path, capsys, cfg, "problem.c_wlak")
    # the three typos together stop verify, which used to report "verify ok"
    cfg = _load("barycenter_two_points.json")
    cfg["problem"]["shift_acounting"] = False
    cfg["quality"]["space"]["cuonts"] = [2, 2]
    cfg["categories"][0]["measure"]["wieghts"] = [1.0]
    bad = tmp_path / "typos.json"
    bad.write_text(json.dumps(cfg))
    assert _main("verify", "--config", str(bad)) == 2
    assert "unknown field" in capsys.readouterr().err


def test_invalid_capped_affine_cost_is_rejected(tmp_path, capsys):
    # one band for every category is read as such; a band per category
    # more than the directions is a config error, not an IndexError later
    line = {"type": "box", "box": [[0, 1]], "counts": [2]}
    cat = {"space": line, "measure": {"type": "discrete", "atoms": [[0.5]],
                                      "weights": [1.0]}}
    cfg = {"problem": {"family": "capped_affine",
                       "s": [[1.0], [-1.0], [1.0]], "kappa1": 0.1,
                       "kappa2": 0.5},
           "categories": [cat] * 3, "quality": {"space": line},
           "eps_lsip": 1e-4}
    assert ProblemSetup(cfg).model.kappa1.tolist() == [0.1] * 3
    cfg["problem"]["kappa1"] = [0.1] * 4
    _rejected(tmp_path, capsys, cfg, "problem")
    cfg["problem"]["kappa1"] = 0.1
    cfg["problem"]["s"] = [[1.0], [-1.0], [0.5]]
    _rejected(tmp_path, capsys, cfg, "problem")


def test_capped_affine_spaces_must_fit_the_directions(tmp_path, capsys):
    # a 2-D type space, or directions of another dimension than the quality
    # space, used to pass verify and end run on a numpy ValueError
    cfg = _load("barycenter_two_points.json")
    cfg["problem"] = {"family": "capped_affine",
                      "s": [[1.0, 0.0], [0.0, 1.0]], "kappa1": 0.1,
                      "kappa2": 0.5}
    _rejected(tmp_path, capsys, cfg, "categories[0].space")
    out = str(tmp_path / "out")
    assert _main("run", "--config", str(tmp_path / "bad.json"),
                 "--out", out) == 2
    assert "config error at $.categories[0].space:" in capsys.readouterr().err
    line = {"type": "box", "box": [[0, 1]], "counts": [2]}
    cat = {"space": line, "measure": {"type": "discrete", "atoms": [[0.5]],
                                      "weights": [1.0]}}
    cfg = {"problem": {"family": "capped_affine", "s": [[1.0], [-1.0]],
                       "kappa1": 0.1, "kappa2": 0.5},
           "categories": [cat] * 2,
           "quality": {"space": {"type": "box", "box": [[0, 1], [0, 1]],
                                 "counts": [2, 2]}},
           "eps_lsip": 1e-4}
    _rejected(tmp_path, capsys, cfg, "problem.s")
    assert _main("run", "--config", str(tmp_path / "bad.json"),
                 "--out", out) == 2
    assert "config error at $.problem.s:" in capsys.readouterr().err
    cfg["quality"]["space"] = line
    assert ProblemSetup(cfg).model.d0 == 1


@pytest.mark.parametrize("measure,key", [
    ({"type": "discrete", "atoms": [[0.0]]}, "weights"),
    ({"type": "discrete", "weights": [1.0]}, "atoms"),
    ({"type": "cpwa"}, "vertex_density")])
def test_missing_measure_fields_are_named(tmp_path, capsys, measure, key):
    # the missing field used to come out as the bare KeyError text
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["measure"] = measure
    with pytest.raises(ConfigError, match="missing required field"):
        ProblemSetup(cfg)
    _rejected(tmp_path, capsys, cfg, "categories[0].measure." + key)


def _put(cfg, where, value):
    """Set the entry at a config path such as ``quality.space.box[1][0]``."""
    keys = [int(k) if k.isdigit() else k
            for k in re.findall(r"\w+", where)]
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


@pytest.mark.parametrize("where,value", [
    ("quality.space.counts[0]", 2.5),
    ("quality.space.counts[1]", True),
    ("quality.space.counts[0]", "3"),
    ("quality.space.counts[1]", 0),
    ("quality.space.box[0][1]", "2.0"),
    ("quality.space.box[1][0]", True),
    ("quality.space.box[1][1]", None),
    ("categories[0].space.points[0][0]", "0.0"),
    ("categories[1].space.points[0][1]", False),
])
def test_space_entries_must_be_json_numbers(tmp_path, capsys, where, value):
    # numpy read 2.5 cells as 2, true as 1 and "3" as 3, so a space was
    # built with another mesh than the config states
    cfg = _load("barycenter_two_points.json")
    _put(cfg, where, value)
    _rejected(tmp_path, capsys, cfg, where)
    assert _main("run", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "out")) == 2
    assert "config error at $.%s:" % where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _business_config():
    """Two walking categories and the restocking one on a 2 x 2 city."""
    space = {"type": "box", "box": [[-2, 2], [-2, 2]], "counts": [2, 2]}
    cat = {"space": space, "measure": {"type": "discrete",
                                       "atoms": [[0.0, 0.0]],
                                       "weights": [1.0]}}
    return {"problem": {"family": "business_location",
                        "stations": [[0.0, 1.0], [0.5, -1.0]],
                        "c_walk": 0.15, "c_train": 0.015, "c_restock": 0.4},
            "categories": [cat] * 3, "quality": {"space": space},
            "eps_lsip": 1e-6}


def _capped_config():
    """Two categories on a line, the second with a CPWA density, and a
    square of qualities."""
    line = {"type": "box", "box": [[0, 1]], "counts": [2]}
    return {"problem": {"family": "capped_affine", "s": [[1, 0], [0, 1]],
                        "kappa1": 0.1, "kappa2": [0.5, 0.6]},
            "categories": [
                {"space": line, "measure": {"type": "discrete",
                                            "atoms": [[0.5]],
                                            "weights": [1.0]}},
                {"space": line, "measure": {"type": "cpwa",
                                            "vertex_density": [1, 1, 1]}}],
            "quality": {"space": {"type": "box", "box": [[0, 1], [0, 1]],
                                  "counts": [2, 2]}},
            "eps_lsip": 1e-4}


def _barycenter_config():
    """The shipped two-point barycenter, its weights stated."""
    cfg = _load("barycenter_two_points.json")
    cfg["problem"]["weights"] = [0.5, 0.5]
    return cfg


CONFIGS_BY_NAME = {
    "discrete_tiny": lambda: _load("discrete_tiny.json"),
    "barycenter": _barycenter_config, "business": _business_config,
    "capped": _capped_config}


LINE = {"type": "box", "box": [[-2, 2]], "counts": [2]}


@pytest.mark.parametrize("name,edits,where", [
    ("capped", {"problem.s": [[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]],
                "quality.space": {"type": "box", "box": [[0, 1]] * 3,
                                  "counts": [2, 2, 2]}}, "quality.space"),
    ("business", {"quality.space": LINE}, "quality.space"),
    ("business", {"categories[0].space": LINE,
                  "categories[0].measure.atoms": [[0.0]]},
     "categories[0].space"),
], ids=["capped-3d-quality", "business-1d-quality", "business-1d-type"])
def test_spaces_must_have_the_family_dimension(tmp_path, capsys, name, edits,
                                               where):
    # each passed verify: the capped-affine run stopped after the whole
    # solve, in the quality selector, and business-location's eval ended in
    # an IndexError
    cfg = CONFIGS_BY_NAME[name]()
    for at, value in edits.items():
        _put(cfg, at, value)
    _rejected(tmp_path, capsys, cfg, where)
    assert _main("run", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "out")) == 2
    assert "config error at $.%s:" % where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,where,value", [
    ("discrete_tiny", "categories[0].measure.atoms[0][0]", "0"),
    ("discrete_tiny", "categories[1].measure.weights[0]", True),
    ("discrete_tiny", "problem.tables[0][0][0]", "0"),
    ("discrete_tiny", "problem.tables[0][0][1]", True),
    ("discrete_tiny", "problem.tables[1][1][0]", False),
    ("barycenter", "problem.weights[0]", "0.5"),
    ("barycenter", "problem.shift_accounting", "no"),
    ("barycenter", "problem.shift_accounting", 0),
    ("business", "problem.stations[1][0]", "0.5"),
    ("business", "problem.c_walk", True),
    ("business", "problem.c_train", "0.015"),
    ("business", "problem.c_restock", [0.4]),
    ("capped", "problem.s[0][0]", True),
    ("capped", "problem.kappa1", "0.1"),
    ("capped", "problem.kappa2[1]", True),
    ("capped", "categories[1].measure.vertex_density[2]", "1"),
])
def test_measure_and_cost_entries_must_be_json_numbers(tmp_path, capsys,
                                                       name, where, value):
    # numpy read "0" and true as numbers, a cost model took true as a rate
    # of 1.0, and "no" switched the shift accounting on (the key is gone
    # since, and refused as an unknown field)
    cfg = CONFIGS_BY_NAME[name]()
    assert ProblemSetup(cfg).N >= 2
    _put(cfg, where, value)
    _rejected(tmp_path, capsys, cfg, where)
    assert _main("run", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "out")) == 2
    assert "config error at $.%s:" % where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
