import json
import os

import numpy as np
import pytest

from helpers import brute_force_discrete_optimum
from teamsolve.cli import (ConfigError, ProblemSetup, load_config, main,
                           run_pipeline, verify_setup)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "demos", "configs")


def _load(name):
    return load_config(os.path.join(CONFIGS, name))


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


def test_determinism(tmp_path):
    config = _load("discrete_tiny.json")
    docs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        run_pipeline(ProblemSetup(config), out_dir=out)
        doc = json.load(open(os.path.join(out, "result.json")))
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": {"family": "barycenter"}}')
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    worse = tmp_path / "worse.json"
    worse.write_text("{nope")
    assert main(["verify", "--config", str(worse)]) == 2


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
    import io
    buf = io.StringIO()
    warnings = verify_setup(setup, out=buf)
    text = buf.getvalue()
    assert warnings == 2
    assert "zero measure mass" in text
    assert "lp decision variables n = 6" in text


def test_verify_dimension_mismatch(tmp_path):
    cfg = _load("discrete_tiny.json")
    cfg["categories"][0]["measure"]["atoms"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError):
        ProblemSetup(cfg)


def test_cli_main_run(tmp_path, capsys):
    rc = main(["run", "--config",
               os.path.join(CONFIGS, "discrete_tiny.json"),
               "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_lb" in out and "eps_theo" in out


def test_cli_verify_ok():
    rc = main(["verify", "--config",
               os.path.join(CONFIGS, "barycenter_two_points.json")])
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
    assert main(["verify", "--config", str(bad)]) == 2


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
        assert main(["verify", "--config", str(path)]) == 2
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
    assert main(["verify", "--config", str(bad)]) == 2
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
        main(["run", "--config", os.path.join(CONFIGS, "discrete_tiny.json"),
              "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert e.value.code == 2
    assert "--seed must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
