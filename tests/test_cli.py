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

import antizeno.cli
from antizeno.cli import main, run, validate
from antizeno.transfer import _model_disorder


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


@pytest.mark.parametrize(
    "grid",
    ["[0.1, true]", '[0.1, "0.2"]', "[0.1, null]", "[0.1, NaN]", "[0.1, Infinity]", "[0.1, -Infinity]", "[0.1, 1e400]", "[0.1, 1" + "0" * 400 + "]", "[[0.1, 0.2]]", "[]", "null"],
    ids=["bool", "string", "null-element", "nan", "inf", "minus-inf", "1e400", "huge-int", "nested-list", "empty-list", "null"],
)
def test_tau_grid_checked_in_one_pass_keeps_each_message(grid, capsys, tmp_path):
    # the JSON text as written, so NaN, Infinity and 1e400 reach the check as Python floats
    path = tmp_path / "config.json"
    path.write_text(f'{{"scenario": "efficiency-scan", "model": {json.dumps(inline_two_site())}, "tau_grid": {grid}}}')
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    want = f"config error: tau_grid must be a nonempty list of finite numbers, got {json.loads(grid)!r}\n"
    assert capsys.readouterr().err == want


def test_number_lists_equal_the_per_element_check():
    # what _Object.numbers accepts and returns (floats) is what _number and _bounded give element by element
    lists = [[1, 0.5, 2**60 + 1], [0.0, -1.0, 2.5], [-0.0], [np.float64(0.5)], [np.int64(1)], [0.1, True], [1e308, -1e308]]
    for bound in (None, "> 0", ">= 0", "<= 1", ">= 2"):
        per_element = antizeno.cli._nonempty_list(antizeno.cli._bounded(antizeno.cli._number, bound))
        for x in lists:
            want, reader = per_element(x), antizeno.cli._Object({"x": x}, "")
            if want is None:
                with pytest.raises(antizeno.cli.ConfigError):
                    reader.numbers("x", bound=bound)
            else:
                got = reader.numbers("x", bound=bound)
                assert got == want and all(type(v) is float for v in got)


@pytest.mark.parametrize(
    "config, outputs",
    [
        (
            {"scenario": "efficiency-scan", "disorder": {**sweep_disorder(), "n_sites": 30}, "tau_grid": [0.1]},
            ["scan.csv"],
        ),
        (
            {"scenario": "sweep", "disorder": {**sweep_disorder(), "n_sites": 24}, "seeds": list(range(20)), "tau_grid": [0.1]},
            [f"sweep_seed{s}.csv" for s in range(20)],
        ),
    ],
    ids=["disorder-n30-chain", "sweep-n24-seeds-0-19"],
)
def test_run_large_disorder_exits_0(config, outputs, tmp_path):
    # the rejection sampler gave up on both: exit 2 for the 30-site chain, and
    # exit 1 for every one of these n = 24 seeds
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert all((tmp_path / "out" / name).exists() for name in outputs)


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


def per_line_series_csv(series, path):
    """The per-line concurrence writer that series_to_csv replaced."""
    with open(path, "w", newline="") as f:
        f.write("t,concurrence\n")
        for t, c in zip(series.times, series.values):
            f.write(f"{t:.12g},{c:.12g}\n")


def per_line_trajectory_csv(traj, path):
    """The per-line trajectory writer that trajectory_to_csv replaced."""
    n = traj.populations.shape[1]
    header = "t," + ",".join(f"p_{i}" for i in range(1, n + 1)) + ",trace"
    traces = traj.traces
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for t, row, tr in zip(traj.times, traj.populations, traces):
            cells = [f"{t:.12g}"] + [f"{x:.12g}" for x in row] + [f"{tr:.12g}"]
            f.write(",".join(cells) + "\n")


def per_line_scan_csv(scan, path):
    """The per-line tau-scan writer that scan_to_csv replaced."""
    eps = _model_disorder(scan.model)
    with open(path, "w", newline="") as f:
        f.write("tau,eps_tau,eta,trapped,dissipated,residual\n")
        for t, r in zip(scan.taus, scan.results):
            cells = [t, eps * t, r.eta, r.trapped, r.dissipated, r.residual]
            f.write(",".join(f"{x:.12g}" for x in cells) + "\n")


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "figure3"},
        {"scenario": "evolve", "disorder": dict(sweep_disorder(), n_sites=8, seed=3), "two_gamma": 2.0},
        {"scenario": "evolve", "model": inline_two_site(), "times": [0, 1, 2.5]},
        {"scenario": "evolve", "model": inline_three_site(), "tau": 0.3, "measured_sites": [2], "n_steps": 20},
        {
            "scenario": "efficiency-scan",
            "disorder": dict(sweep_disorder(), n_sites=6, seed=2),
            "tau_range": {"min": 0.01, "max": 2.0, "n": 40},
        },
    ],
    ids=["figure3-preset", "evolve-dephasing-n8", "evolve-time-list", "evolve-measured-states", "efficiency-scan-n6"],
)
def test_csv_writers_equal_the_per_line_writers(config, tmp_path, monkeypatch):
    # each writer the scenario calls also runs its per-line predecessor on the
    # same result; the two files must agree byte for byte
    written = []
    for name, per_line in (
        ("series_to_csv", per_line_series_csv),
        ("trajectory_to_csv", per_line_trajectory_csv),
        ("scan_to_csv", per_line_scan_csv),
    ):

        def both(result, path, writer=getattr(antizeno.cli, name), per_line=per_line):
            writer(result, path)
            per_line(result, path + ".per-line")
            written.append(path)

        monkeypatch.setattr(antizeno.cli, name, both)
    assert run(dict(config, out=str(tmp_path))) == 0
    assert len(written) == (4 if config["scenario"] == "figure3" else 1)
    for path in written:
        with open(path, "rb") as new, open(path + ".per-line", "rb") as old:
            assert new.read() == old.read()


def test_run_figure2_reduced(tmp_path, monkeypatch):
    def figure2(out):
        assert run({"scenario": "figure2", "eps_list": [5.0, 10.0], "n_points": 12, "out": str(out)}) == 0
        return [(out / f"figure2_eps{eps}.csv").read_bytes() for eps in (5, 10)]

    monkeypatch.setenv("ZT_THREADS", "2")
    threaded = figure2(tmp_path / "threaded")
    assert all(len(data.splitlines()) == 13 for data in threaded)
    # the worker threads share eig_system's memo; their files equal a serial run's
    monkeypatch.delenv("ZT_THREADS")
    assert figure2(tmp_path / "serial") == threaded


def test_fan_out_is_serial_unless_zt_threads_is_set(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started without ZT_THREADS")

    monkeypatch.delenv("ZT_THREADS", raising=False)
    monkeypatch.setattr("antizeno.cli.ThreadPoolExecutor", no_pool)
    config = {"scenario": "figure2", "eps_list": [5.0, 10.0], "n_points": 12, "out": str(tmp_path)}
    assert run(config) == 0
    assert len((tmp_path / "figure2_eps10.csv").read_text().splitlines()) == 13


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


_NO_SCIPY = """
import json, os, sys
import numpy as np
import antizeno.cli
from antizeno import (
    DephasingSpec, DisorderSpec, MeasurementChannel, build_chain, build_graph, efficiency_dephasing,
    efficiency_measured, efficiency_no_measurement, integrate_master, optimal_tau, quantum_jump_ensemble, tau_scan,
)
from antizeno.dynamics import propagator, pure_site_state
from antizeno.entanglement import simulate_concurrence

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

assert not scipy_modules(), "import antizeno.cli loaded scipy"
fig3 = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
spec = DephasingSpec(fig3, 5.0, frozenset({2}))
times = np.linspace(0.0, 20.0, 201)
quantum_jump_ensemble(spec, pure_site_state(3, 2), times, n_traj=8, seed=1)
quantum_jump_ensemble(spec, pure_site_state(3, 2), times, n_traj=1, seed=1, mode="periodic")
simulate_concurrence(fig3, "unitary", (1, 3), times)
rho = integrate_master(spec, pure_site_state(3, 2), times)[-1]
assert abs(rho.trace - 1.0) < 1e-10
assert simulate_concurrence(fig3, MeasurementChannel(frozenset({2}), 0.1), (1, 3), times).values.max() > 0.1
# the exceptional-point dimer takes the _expm fallback: exp(-i H_eff t) = e^-t (I - i t N)
ep = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
nil = np.array([[1j, 1.0], [1.0, -1j]])
assert np.max(np.abs(propagator(ep._h_eff, 1.5).matrix - np.exp(-1.5) * (np.eye(2) - 1.5j * nil))) < 1e-13
assert not scipy_modules(), "time evolution loaded scipy"

chain4 = build_chain(4, [10.0, 6.0, 3.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
chain32 = build_graph(DisorderSpec(32, "chain", 10.0, 1.0, 0.5, 0.001, seed=0))
for m in (chain4, chain32):
    assert 0.0 < efficiency_dephasing(DephasingSpec(m, 1.0, frozenset(range(1, m.n_sites + 1)))).eta < 1.0
dimer = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
assert 0.0 < efficiency_no_measurement(dimer).eta < 1.0
# the exceptional point's defective H_eff takes the doubling fallback
assert abs(efficiency_dephasing(DephasingSpec(ep, 0.5, frozenset({1, 2}))).eta - 1.0) < 1e-12
assert not scipy_modules(), "the Poisson efficiencies loaded scipy"

chain = build_chain(3, [0.0, 1.0, 2.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
assert 0.0 < efficiency_measured(chain, 0.5).eta < 1.0
etas = tau_scan(chain32, np.linspace(0.01, 2.0, 5)).etas
assert np.all((0.0 < etas) & (etas < 1.0))
assert 0.0 < optimal_tau(dimer)["eta"] < 1.0
assert np.isfinite(efficiency_measured(ep, 0.1).eta)  # the roundoff-bound eigen path (ROADMAP item 1)
assert not scipy_modules(), "the measured series loaded scipy"

out = sys.argv[1]
disorder = {"n_sites": 8, "topology": "chain", "mean_disorder": 10.0, "coupling_scale": 1.0,
            "trap_rate": 0.5, "decay_rate": 0.001}
configs = [
    {"scenario": "figure2", "n_points": 20},
    {"scenario": "efficiency-scan", "disorder": disorder, "tau_range": {"min": 0.01, "max": 2.0, "n": 10}},
    {"scenario": "sweep", "disorder": disorder, "seeds": [0, 1], "tau_grid": [0.1, 0.5]},
]
for i, config in enumerate(configs):
    path = os.path.join(out, f"run{i}.json")
    with open(path, "w") as f:
        json.dump(config, f)
    assert antizeno.cli.main(["--config", path, "--out", os.path.join(out, str(i))]) == 0
assert not scipy_modules(), "the CLI runs loaded scipy"
"""


def test_scipy_is_loaded_only_by_the_kernels_that_call_it(tmp_path):
    # scipy.linalg costs 0.25-0.33 s of import (its array-API layer loads
    # numpy.f2py, numpy.testing and numpy.ma) and raises peak memory by about
    # 21 MB; the package runs on numpy alone.  In one fresh interpreter, no
    # scipy module is loaded after the import, both jump-ensemble modes,
    # unitary and measured concurrence, the dephased master equation, the
    # exceptional-point propagator, efficiency_dephasing on a 4-site and a
    # 32-site chain and at the exceptional point (the doubling fallback),
    # efficiency_no_measurement on the Fig. 2 dimer, the measured series
    # (efficiency_measured, tau_scan, optimal_tau and the exceptional-point
    # efficiency_measured) and in-process cli.main on figure2, an
    # efficiency-scan and a sweep
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_measured_concurrence_past_2_53_intervals_exits_1(tmp_path, capsys):
    # t / tau = 1e20 wraps an int64 interval count; the run must fail, not write a row
    dynamics = {"kind": "measurement", "tau": 0.1, "measured_sites": [2]}
    config = {"scenario": "concurrence", "model": inline_three_site(), "pair": [1, 3], "times": [0.0, 1e19]}
    assert run({**config, "dynamics": dynamics, "out": str(tmp_path)}) == 1
    assert "engine error: t / tau = 1e+20 reaches 2^53" in capsys.readouterr().err


def test_validate_reports_the_first_problem_only():
    diag = validate({"scenario": "figure2", "kappa": None, "n_points": "a"})
    assert diag == ["kappa must be a finite number >= 0, got None"]


# -- fuzz: one key of a small valid config per scenario set to an odd JSON value --
# The values stay small: crossover_time takes about 25 ns per interval, in
# windows of 4,096 powers, so a horizon / tau of 1e12 would run for hours.
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
