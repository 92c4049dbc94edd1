import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antizeno.cli import main, run, validate


def inline_three_site():
    return {
        "n_sites": 3,
        "site_energies": [1.0, 10.0, 1.0],
        "couplings": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        "trap_rates": [0.0, 0.0, 0.0],
        "decay_rate": 0.0,
        "initial_site": 2,
    }


def sweep_disorder():
    return {
        "n_sites": 3,
        "topology": "chain",
        "mean_disorder": 10.0,
        "coupling_scale": 1.0,
        "trap_rate": 0.5,
        "decay_rate": 0.001,
    }


def inline_two_site():
    return {
        "n_sites": 2,
        "site_energies": [10.0, 0.0],
        "couplings": [[0.0, 1.0], [1.0, 0.0]],
        "trap_rates": [0.0, 0.5],
        "decay_rate": 0.001,
        "initial_site": 1,
    }


def test_validate_figure2_preset():
    assert validate({"scenario": "figure2"}) == []


def test_validate_figure3_preset():
    assert validate({"scenario": "figure3"}) == []


def test_validate_unknown_scenario():
    diag = validate({"scenario": "figure9"})
    assert len(diag) == 1 and "figure9" in diag[0]


def test_validate_nonpositive_tau():
    diag = validate({"scenario": "efficiency-scan", "model": inline_two_site(), "tau_grid": [0.0, 0.1]})
    assert any("tau must be > 0" in d for d in diag)


def test_validate_asymmetric_couplings():
    model = inline_two_site()
    model["couplings"] = [[0.0, 1.0], [0.5, 0.0]]
    diag = validate({"scenario": "efficiency-scan", "model": model, "tau_grid": [0.1]})
    assert any("couplings[1][2]" in d and "couplings[2][1]" in d for d in diag)


def test_validate_missing_model():
    diag = validate({"scenario": "evolve"})
    assert any("model" in d for d in diag)


def test_validate_crossover_horizon():
    diag = validate({"scenario": "crossover", "model": inline_two_site(), "tau": 0.5, "horizon": 0.1})
    assert any("horizon" in d for d in diag)


def test_run_invalid_config_exits_2(capsys, tmp_path):
    code = run({"scenario": "efficiency-scan", "model": inline_two_site(), "tau_grid": [-1.0], "out": str(tmp_path)})
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "crossover", "model": inline_two_site(), "tau": "0.1", "horizon": 50.0},
        {
            # the minimum-gap disorder sampler cannot draw a 30-site chain
            "scenario": "efficiency-scan",
            "disorder": {
                "n_sites": 30,
                "topology": "chain",
                "mean_disorder": 10.0,
                "coupling_scale": 1.0,
                "trap_rate": 0.5,
                "decay_rate": 0.001,
            },
            "tau_grid": [0.1],
        },
        {"scenario": "concurrence", "model": inline_two_site(), "pair": [1, 5], "times": [0.0, 1.0]},
        {"scenario": "evolve", "model": inline_two_site(), "tau": 0.3, "measured_sites": [7]},
        {"scenario": "concurrence", "model": inline_three_site(), "dynamics": {"kind": "measurement"}},
        {"scenario": "concurrence", "model": inline_three_site(), "dynamics": {"kind": "dephasing"}},
        {"scenario": "concurrence", "model": inline_three_site(), "dynamics": {"kind": "coherent"}},
        {
            "scenario": "concurrence",
            "model": inline_three_site(),
            "dynamics": {"kind": "measurement", "tau": 0.1, "measured_sites": [9]},
        },
        {"scenario": "concurrence", "model": inline_three_site(), "pair": 5},
        {"scenario": "figure3", "two_gammas": ["a"]},
        [{"scenario": "figure2"}],
        {"scenario": "figure3", "times": "0:20"},
        {"scenario": "evolve", "model": inline_two_site(), "times": 5},
        {"scenario": "evolve", "model": inline_two_site(), "times": [-1.0, 1.0]},
        {"scenario": "efficiency-scan", "model": inline_two_site(), "tau_range": [0.1, 1.0]},
        {"scenario": "efficiency-scan", "model": inline_two_site(), "tau_grid": ["a"]},
        {"scenario": "evolve", "model": [1, 2]},
        {"scenario": "efficiency-scan", "disorder": "chain", "tau_grid": [0.1]},
        {"scenario": "sweep", "disorder": {**sweep_disorder(), "colour": "red"}, "seeds": [0], "tau_grid": [0.1]},
        {"scenario": "figure2", "eps_list": [0]},
        {"scenario": "evolve", "model_file": 0},
        # each of these used to raise a traceback
        {"scenario": "figure2", "n_points": None},
        {"scenario": "figure2", "kappa": None},
        {"scenario": "evolve", "model": inline_two_site(), "tau": 0.3, "n_steps": None},
        {"scenario": "evolve", "model": inline_two_site(), "two_gamma": None},
        {"scenario": "evolve", "model": inline_two_site(), "times": []},
        {"scenario": "efficiency-scan", "model": {**inline_two_site(), "n_sites": math.inf}, "tau_grid": [0.1]},
        {"scenario": "sweep", "disorder": {**sweep_disorder(), "n_sites": None}, "seeds": [0], "tau_grid": [0.1]},
        # each of these used to exit 1 as an engine error
        {"scenario": "figure2", "n_points": "a"},
        {"scenario": "figure2", "n_points": 0},
        {"scenario": "figure2", "kappa": -1},
        {"scenario": "figure2", "decay_rate": "x"},
        {"scenario": "evolve", "model": inline_two_site(), "tau": 0.3, "n_steps": -1},
        {"scenario": "evolve", "model": inline_two_site(), "two_gamma": -1},
        {"scenario": "sweep", "disorder": sweep_disorder(), "seeds": [-1], "tau_grid": [0.1]},
        # each of these used to be accepted, truncated or ignored
        {"scenario": "figure2", "tau_grid": [0.1]},
        {"scenario": "evolve", "model": inline_two_site(), "two_gamma": "1"},
        {"scenario": "figure3", "times": {"max": 1.0, "n": 2.5}},
        {"scenario": "efficiency-scan", "model": {**inline_two_site(), "n_sites": 2.7}, "tau_grid": [0.1]},
        {"scenario": "efficiency-scan", "model": {**inline_two_site(), "initial_site": 1.5}, "tau_grid": [0.1]},
        {"scenario": "figure2", "seed": "x"},
    ],
    ids=[
        "crossover-string-tau",
        "disorder-draw-fails",
        "concurrence-pair-range",
        "evolve-sites-range",
        "measurement-without-tau",
        "dephasing-without-two-gamma",
        "unknown-dynamics-kind",
        "dynamics-sites-range",
        "pair-not-a-list",
        "figure3-string-two-gamma",
        "config-is-a-list",
        "times-a-string",
        "times-an-integer",
        "times-negative",
        "tau-range-not-an-object",
        "tau-grid-not-numbers",
        "model-not-an-object",
        "disorder-not-an-object",
        "sweep-disorder-unknown-field",
        "figure2-zero-eps",
        "model-file-not-a-path",
        "figure2-null-n-points",
        "figure2-null-kappa",
        "evolve-null-n-steps",
        "evolve-null-two-gamma",
        "evolve-empty-times",
        "model-infinite-n-sites",
        "sweep-null-disorder-n-sites",
        "figure2-string-n-points",
        "figure2-zero-n-points",
        "figure2-negative-kappa",
        "figure2-string-decay-rate",
        "evolve-negative-n-steps",
        "evolve-negative-two-gamma",
        "sweep-negative-seed",
        "figure2-unused-tau-grid",
        "evolve-string-two-gamma",
        "times-fractional-n",
        "model-fractional-n-sites",
        "model-fractional-initial-site",
        "string-seed",
    ],
)
def test_run_bad_config_exits_2(config, capsys, tmp_path):
    # through main, so the --out override meets every config shape
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: " in capsys.readouterr().err


def test_run_figure3_strong_dephasing(tmp_path):
    # 2 gamma = 1751.05 on the default 2001-point grid: the exact propagation
    # keeps every trace within DensityMatrix's 1e-10 tolerance of 1
    config = {"scenario": "figure3", "two_gammas": [0, 0.1, 10, 1751.05], "out": str(tmp_path)}
    assert run(config) == 0
    assert (tmp_path / "figure3_2gamma1751.05.csv").exists()


def test_run_efficiency_scan(tmp_path):
    config = {
        "scenario": "efficiency-scan",
        "model": inline_two_site(),
        "tau_grid": [0.1, 0.2, 0.3, 0.4],
        "out": str(tmp_path),
    }
    assert run(config) == 0
    scan = (tmp_path / "scan.csv").read_text()
    assert scan.splitlines()[0] == "tau,eps_tau,eta,trapped,dissipated,residual"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == ["scan.csv"]
    assert manifest["config"]["scenario"] == "efficiency-scan"


def test_run_outputs_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        config = {
            "scenario": "sweep",
            "disorder": {
                "n_sites": 3,
                "topology": "complete",
                "mean_disorder": 10.0,
                "coupling_scale": 1.0,
                "trap_rate": 0.5,
                "decay_rate": 0.001,
            },
            "seeds": [0, 1],
            "tau_grid": [0.1, 0.3, 0.5],
            "out": str(out),
        }
        assert run(config) == 0
    for name in ("sweep_seed0.csv", "sweep_seed1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_crossover(tmp_path):
    model = inline_two_site()
    model["trap_rates"] = [0.0, 0.0]
    model["decay_rate"] = 0.0
    config = {"scenario": "crossover", "model": model, "tau": 0.1, "horizon": 50.0, "out": str(tmp_path)}
    assert run(config) == 0
    out = json.loads((tmp_path / "crossover.json").read_text())
    assert out["t_c"] is not None
    assert out["n_c"] * 0.1 == pytest.approx(out["t_c"])


def test_run_evolve_pure_decay(tmp_path):
    # v = 0: populations just decay at 2 (Gamma + kappa_i)
    model = inline_two_site()
    model["couplings"] = [[0.0, 0.0], [0.0, 0.0]]
    model["initial_site"] = 2
    config = {
        "scenario": "evolve",
        "model": model,
        "times": [0.0, 0.5, 1.0],
        "out": str(tmp_path),
    }
    assert run(config) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,trace"
    for line in lines[1:]:
        t, p1, p2, trace = (float(x) for x in line.split(","))
        assert p2 == pytest.approx(np.exp(-2 * (0.001 + 0.5) * t), abs=1e-6)
        assert p1 == pytest.approx(0.0, abs=1e-12)


def test_run_evolve_measured(tmp_path):
    config = {
        "scenario": "evolve",
        "model": inline_two_site(),
        "tau": 0.3,
        "n_steps": 10,
        "out": str(tmp_path),
    }
    assert run(config) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 12


def test_run_figure3_reduced(tmp_path):
    config = {
        "scenario": "figure3",
        "two_gammas": [0.0, 10.0],
        "times": {"max": 2.0, "n": 50},
        "out": str(tmp_path),
    }
    assert run(config) == 0
    assert (tmp_path / "figure3_2gamma0.csv").exists()
    assert (tmp_path / "figure3_2gamma10.csv").exists()
    lines = (tmp_path / "figure3_2gamma0.csv").read_text().splitlines()
    assert lines[0] == "t,concurrence"
    assert len(lines) == 52


def test_run_figure2_reduced(tmp_path, monkeypatch):
    monkeypatch.setenv("ZT_THREADS", "2")
    config = {
        "scenario": "figure2",
        "eps_list": [5.0, 10.0],
        "n_points": 12,
        "out": str(tmp_path),
    }
    assert run(config) == 0
    for eps in (5, 10):
        lines = (tmp_path / f"figure2_eps{eps}.csv").read_text().splitlines()
        assert len(lines) == 13


def test_fan_out_is_serial_unless_zt_threads_is_set(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started without ZT_THREADS")

    monkeypatch.delenv("ZT_THREADS", raising=False)
    monkeypatch.setattr("antizeno.cli.ThreadPoolExecutor", no_pool)
    config = {"scenario": "figure2", "eps_list": [5.0, 10.0], "n_points": 12, "out": str(tmp_path)}
    assert run(config) == 0
    assert len((tmp_path / "figure2_eps10.csv").read_text().splitlines()) == 13


def test_fast_path_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    # a disagreement is an engine error with a diagnostic, not a traceback
    monkeypatch.setattr("antizeno.entanglement._wootters", lambda m: np.zeros(m.shape[:-2]))
    cfg = {"scenario": "concurrence", "model": inline_three_site(), "times": [0.0, 0.5], "out": str(tmp_path)}
    assert run(cfg) == 1
    assert "engine error: fast-path concurrence" in capsys.readouterr().err


def test_main_overrides(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({"scenario": "efficiency-scan", "model": inline_two_site(), "tau_grid": [0.1, 0.2]})
    )
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "scan.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(out)


def test_main_missing_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": "efficiency-scan",
                "model": inline_two_site(),
                "tau_grid": [0.1],
                "out": str(tmp_path / "o"),
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "antizeno.cli", "--config", str(config_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "manifest.json").exists()


def test_integer_model_file_is_not_read_from_stdin(tmp_path):
    # os.path.exists(0) is True (file descriptor 0), so an integer model_file
    # used to read the model from stdin during validation and crash on the
    # runner's second, empty read
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"scenario": "evolve", "model_file": 0, "out": str(tmp_path / "o")}))
    proc = subprocess.run(
        [sys.executable, "-m", "antizeno.cli", "--config", str(config_path)],
        input=json.dumps(inline_two_site()),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "config error: model_file must be a path string" in proc.stderr


def test_out_must_be_a_path(capsys):
    # os.makedirs(5) used to raise a TypeError traceback
    assert run({"scenario": "figure3", "out": 5}) == 2
    assert "config error: out must be a path string" in capsys.readouterr().err


def test_out_that_is_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert run({"scenario": "efficiency-scan", "model": inline_two_site(), "tau_grid": [0.1], "out": str(out)}) == 1
    assert "engine error: " in capsys.readouterr().err


def test_validate_reports_the_first_problem_only():
    diag = validate({"scenario": "figure2", "kappa": None, "n_points": "a"})
    assert diag == ["kappa must be a finite number >= 0, got None"]


# -- fuzz: one key of a small valid config per scenario set to an odd JSON value --
# The values stay small: crossover_time steps horizon / tau times in Python, so
# a tau of 1e-6 would run for hours.
_ODD = st.sampled_from([None, True, False, -1, 0, 0.5, 2.5, 1e3, math.inf, -math.inf, math.nan, "", "1"])
_JSON_VALUES = st.one_of(
    _ODD, st.lists(_ODD, max_size=3), st.dictionaries(st.sampled_from(["max", "n", "kind", "tau"]), _ODD, max_size=2)
)
_LOSSLESS_TWO_SITE = {**inline_two_site(), "trap_rates": [0.0, 0.0], "decay_rate": 0.0}
_FUZZ_BASES = [
    {"scenario": "figure2", "eps_list": [10.0], "n_points": 3},
    {"scenario": "figure3", "two_gammas": [0.0, 10.0], "times": {"max": 1.0, "n": 4}},
    {"scenario": "efficiency-scan", "model": inline_two_site(), "tau_range": {"min": 0.1, "max": 1.0, "n": 3}},
    {"scenario": "evolve", "model": inline_two_site(), "tau": 0.3, "n_steps": 3, "measured_sites": [1, 2]},
    {"scenario": "evolve", "model": inline_two_site(), "two_gamma": 1.0, "t_max": 1.0, "dephased_sites": [1]},
    {
        "scenario": "concurrence",
        "model": inline_three_site(),
        "pair": [1, 3],
        "times": [0.0, 0.5],
        "dynamics": {"kind": "measurement", "tau": 0.1, "measured_sites": [2]},
    },
    {"scenario": "concurrence", "model": inline_three_site(), "dynamics": {"kind": "dephasing", "two_gamma": 1.0}},
    {"scenario": "crossover", "model": _LOSSLESS_TWO_SITE, "tau": 0.1, "horizon": 5.0},
    {"scenario": "sweep", "disorder": sweep_disorder(), "seeds": [0], "tau_grid": [0.1, 0.5], "seed": 1},
]


@st.composite
def fuzzed_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    config["out"] = "out"
    paths = [(k,) for k in dict.fromkeys([*config, "seed"])]
    paths += [(k, sub) for k, v in config.items() if isinstance(v, dict) for sub in v]
    path = draw(st.sampled_from(paths))
    (config if len(path) == 1 else config[path[0]])[path[-1]] = draw(_JSON_VALUES)
    return config


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fuzzed_configs())
def test_fuzzed_config_exits_0_1_or_2(config):
    # 2 exactly when validate objects; never a traceback
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a fuzzed relative "out" lands here
        try:
            with open("config.json", "w") as f:
                json.dump(config, f)
            code = main(["--config", "config.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert (code == 2) == bool(validate(config))
