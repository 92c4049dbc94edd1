"""Configuration-driven scenario runner.

Usage:
    antizeno --config run.json [--scenario S] [--seed N] [--out DIR]

A run writes CSV outputs plus a manifest.json echoing the configuration, so
every output directory can be re-run exactly.  ZT_THREADS caps parallel
evaluation of independent scan points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .entanglement import series_to_csv, simulate_concurrence
from .measurement import MeasurementChannel, crossover_time, repeated_measurement_trajectory, trajectory_to_csv
from .model import DisorderSpec, LatticeModel, build_chain, build_graph
from .open_system import DephasingSpec, integrate_master
from .dynamics import populations, pure_site_state
from .transfer import scan_to_csv, tau_scan

SCENARIOS = ("figure2", "figure3", "efficiency-scan", "evolve", "concurrence", "crossover", "sweep")

FIG2_EPS = (5.0, 10.0, 15.0, 20.0)
FIG2_KAPPA = 0.5
FIG2_GAMMA = 0.001
FIG3_TWO_GAMMAS = (0.0, 0.1, 10.0, 1000.0)


def _max_workers() -> int:
    env = os.environ.get("ZT_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _load_model(config, diagnostics=None):
    """Inline model, model file, or disorder spec; returns None on failure."""
    diag = diagnostics if diagnostics is not None else []
    if "model" in config:
        d = config["model"]
        if not isinstance(d, dict):
            diag.append(f"model must be an object, got {d!r}")
            return None
        try:
            c = np.asarray(d.get("couplings", []), dtype=float)
            if c.ndim == 2 and c.shape[0] == c.shape[1]:
                bad = np.argwhere(np.abs(c - c.T) > 1e-12)
                if bad.size:
                    i, j = bad[0]
                    diag.append(f"couplings[{i + 1}][{j + 1}] != couplings[{j + 1}][{i + 1}]")
                    return None
            return LatticeModel.from_dict(d)
        except (TypeError, ValueError, KeyError) as exc:
            diag.append(f"invalid inline model: {exc}")
            return None
    if "model_file" in config:
        path = config["model_file"]
        if not isinstance(path, str):
            # an integer would pass os.path.exists as a file descriptor
            diag.append(f"model_file must be a path string, got {path!r}")
            return None
        if not os.path.exists(path):
            diag.append(f"model_file not found: {path}")
            return None
        try:
            with open(path) as f:
                return LatticeModel.from_dict(json.load(f))
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            diag.append(f"invalid model file {path}: {exc}")
            return None
    if "disorder" in config:
        try:
            return build_graph(_disorder_spec(config))
        except (TypeError, ValueError, RuntimeError) as exc:
            diag.append(f"invalid disorder spec: {exc}")
            return None
    diag.append("scenario requires a model, model_file, or disorder entry")
    return None


def _disorder_spec(config, seed=None) -> DisorderSpec:
    """The config's disorder object as a DisorderSpec.  A given seed overrides
    the object's own, which defaults to the config's.  Raises TypeError or
    ValueError for a malformed object."""
    d = config["disorder"]
    if not isinstance(d, dict):
        raise TypeError(f"disorder must be an object, got {d!r}")
    if seed is None:
        seed = d.get("seed", config.get("seed", 0))
    edges = tuple(tuple(e) for e in d.get("removed_edges", ()))
    return DisorderSpec(**{**d, "seed": seed, "removed_edges": edges})


def _tau_grid(config, diagnostics=None):
    diag = diagnostics if diagnostics is not None else []
    try:
        if "tau_grid" in config:
            grid = np.asarray(config["tau_grid"], dtype=float)
        else:
            g = config.get("tau_range", {})
            if not isinstance(g, dict):
                raise TypeError(f"tau_range must be an object, got {g!r}")
            grid = np.linspace(float(g.get("min", 0.005)), float(g.get("max", 2.0)), int(g.get("n", 60)))
    except (TypeError, ValueError) as exc:
        diag.append(f"invalid tau grid: {exc}")
        return None
    if grid.ndim != 1 or grid.size == 0:
        diag.append("tau grid must be a nonempty list of numbers")
        return None
    ok = np.isfinite(grid) & (grid > 0)
    if not np.all(ok):
        diag.append(f"tau grid contains {grid[~ok][0]:.3g}; the measurement interval tau must be > 0 and finite")
        return None
    if np.any(np.diff(grid) <= 0):
        diag.append("tau grid must be strictly increasing")
        return None
    return grid


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_sites(what, sites, n_sites, diag):
    """Site lists from the config must name sites 1..n_sites of the model."""
    if not isinstance(sites, list) or not sites or not all(_is_int(i) for i in sites):
        diag.append(f"{what} must be a nonempty list of site numbers, got {sites!r}")
    elif any(not 1 <= i <= n_sites for i in sites):
        diag.append(f"{what} {sites} outside the model's sites 1..{n_sites}")


def validate(config) -> list:
    """Diagnostics list; empty iff run() would pass validation.  Never executes engines."""
    if not isinstance(config, dict):
        return [f"the configuration must be a JSON object, got {type(config).__name__}"]
    diag: list = []
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        diag.append(f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}")
        return diag
    model = None
    if scenario in ("efficiency-scan", "evolve", "concurrence", "crossover"):
        model = _load_model(config, diag)
    if scenario in ("figure2", "efficiency-scan", "sweep"):
        if scenario != "figure2" or "tau_grid" in config or "tau_range" in config:
            _tau_grid(config, diag)
    if scenario in ("figure3", "concurrence"):
        _times(config, diagnostics=diag)
    if scenario == "evolve" and config.get("tau") is None:
        _times(config, config.get("t_max", 10.0), 200, diag)
    if scenario == "figure2":
        eps_list = config.get("eps_list", FIG2_EPS)
        if not isinstance(eps_list, (list, tuple)) or not all(_is_number(e) and e > 0 for e in eps_list):
            diag.append(f"figure2 eps_list must be a list of numbers > 0, got {eps_list!r}")
    if scenario == "figure3":
        two_gammas = config.get("two_gammas", FIG3_TWO_GAMMAS)
        if not isinstance(two_gammas, (list, tuple)) or not all(_is_number(g) and g >= 0 for g in two_gammas):
            diag.append(f"figure3 two_gammas must be a list of numbers >= 0, got {two_gammas!r}")
    if scenario == "sweep":
        if "disorder" not in config:
            diag.append("sweep requires a disorder entry")
        else:
            try:
                _disorder_spec(config, seed=0)  # the draw itself happens per seed at run time
            except (TypeError, ValueError) as exc:
                diag.append(f"invalid disorder spec: {exc}")
        seeds = config.get("seeds")
        if not (isinstance(seeds, list) and seeds and all(_is_int(x) for x in seeds)):
            diag.append(f"sweep requires a nonempty list of integer seeds, got {seeds!r}")
    if scenario == "crossover":
        tau = config.get("tau")
        horizon = config.get("horizon")
        tau_ok = _is_number(tau) and tau > 0
        if not tau_ok:
            diag.append(f"crossover requires a number tau > 0, got {tau!r}")
        if not _is_number(horizon) or (tau_ok and horizon < tau):
            diag.append(f"crossover requires a number horizon >= tau, got {horizon!r}")
    if scenario == "evolve":
        tau = config.get("tau")
        if tau is not None and not (_is_number(tau) and tau > 0):
            diag.append(f"evolve: the measurement interval tau must be a number > 0, got {tau!r}")
        for key in ("measured_sites", "dephased_sites"):
            if config.get(key) and model is not None:
                _check_sites(key, config[key], model.n_sites, diag)
    if scenario == "concurrence":
        pair = config.get("pair", [1, 3])
        if not isinstance(pair, list) or len(pair) != 2 or pair[0] == pair[1]:
            diag.append(f"concurrence requires a pair of two distinct sites, got {pair!r}")
        elif model is not None:
            _check_sites("pair", pair, model.n_sites, diag)
        _check_concurrence_dynamics(config.get("dynamics", {"kind": "unitary"}), model, diag)
    return diag


def _check_concurrence_dynamics(dyn, model, diag):
    """The concurrence dynamics entry: its kind and the parameters that kind reads."""
    kind = dyn.get("kind", "unitary") if isinstance(dyn, dict) else None
    if kind == "unitary":
        return
    if kind == "measurement":
        tau = dyn.get("tau")
        if not (_is_number(tau) and tau > 0):
            diag.append(f"measurement dynamics requires a number tau > 0, got {tau!r}")
        sites_key = "measured_sites"
    elif kind == "dephasing":
        two_gamma = dyn.get("two_gamma")
        if not (_is_number(two_gamma) and two_gamma >= 0):
            diag.append(f"dephasing dynamics requires a number two_gamma >= 0, got {two_gamma!r}")
        sites_key = "dephased_sites"
    else:
        diag.append(f"dynamics must be an object with kind unitary, measurement or dephasing, got {dyn!r}")
        return
    if model is not None:
        _check_sites(f"dynamics.{sites_key}", dyn.get(sites_key, [2]), model.n_sites, diag)


def _times(config, default_t_max=20.0, default_n=2000, diagnostics=None):
    """The config's output times: a list, or {"max", "n"} for n + 1 even steps from 0."""
    diag = diagnostics if diagnostics is not None else []
    t = config.get("times")
    if t is None:
        t = {}
    t_max, n = (t.get("max", default_t_max), t.get("n", default_n)) if isinstance(t, dict) else (None, None)
    if isinstance(t, list) and all(_is_number(x) for x in t):
        times = np.asarray(t, dtype=float)
    elif _is_number(t_max) and _is_number(n) and n >= 0:
        times = np.linspace(0.0, float(t_max), int(n) + 1)
    else:
        diag.append(f"times must be a list of numbers or an object with numbers max and n, got {t!r}")
        return None
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        diag.append(f"times must be sorted and nonnegative, got {t!r}")
        return None
    return times


def _run_figure2(config, out_dir):
    eps_list = config.get("eps_list", FIG2_EPS)
    kappa = float(config.get("kappa", FIG2_KAPPA))
    gamma_decay = float(config.get("decay_rate", FIG2_GAMMA))
    n_points = int(config.get("n_points", 80))
    eps_tau = np.linspace(0.05, 20.0, n_points)
    outputs = []

    def one(eps):
        model = build_chain(2, [eps, 0.0], v=1.0, trap_rate=kappa, decay_rate=gamma_decay)
        scan = tau_scan(model, eps_tau / eps)
        name = f"figure2_eps{eps:g}.csv"
        scan_to_csv(scan, os.path.join(out_dir, name))
        return name

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        outputs = list(pool.map(one, eps_list))
    return outputs


def _fig3_model():
    return build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)


def _run_figure3(config, out_dir):
    two_gammas = config.get("two_gammas", FIG3_TWO_GAMMAS)
    times = _times(config)
    model = _fig3_model()
    outputs = []
    for tg in two_gammas:
        if tg == 0:
            series = simulate_concurrence(model, "unitary", (1, 3), times)
        else:
            spec = DephasingSpec(model=model, gamma=tg / 2.0, dephased_sites=frozenset({2}))
            series = simulate_concurrence(model, spec, (1, 3), times)
        name = f"figure3_2gamma{tg:g}.csv"
        series_to_csv(series, os.path.join(out_dir, name))
        outputs.append(name)
    return outputs


def _run_efficiency_scan(config, out_dir):
    model = _load_model(config)
    scan = tau_scan(model, _tau_grid(config))
    scan_to_csv(scan, os.path.join(out_dir, "scan.csv"))
    return ["scan.csv"]


def _run_evolve(config, out_dir):
    model = _load_model(config)
    tau = config.get("tau")
    if tau is not None:
        sites = config.get("measured_sites")
        channel = MeasurementChannel(
            frozenset(sites) if sites else frozenset(range(1, model.n_sites + 1)), float(tau)
        )
        traj = repeated_measurement_trajectory(model, channel, int(config.get("n_steps", 100)))
        trajectory_to_csv(traj, os.path.join(out_dir, "trajectory.csv"))
        return ["trajectory.csv"]
    gamma2 = float(config.get("two_gamma", 0.0))
    times = _times(config, config.get("t_max", 10.0), 200)
    sites = config.get("dephased_sites")
    spec = DephasingSpec(
        model=model,
        gamma=gamma2 / 2.0,
        dephased_sites=frozenset(sites) if sites else frozenset(range(1, model.n_sites + 1)),
    )
    states = integrate_master(spec, pure_site_state(model.n_sites, model.initial_site), times)
    pops = np.array([populations(s) for s in states])
    from .measurement import MeasuredTrajectory

    traj = MeasuredTrajectory(times=times, populations=pops)
    trajectory_to_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    return ["trajectory.csv"]


def _run_concurrence(config, out_dir):
    model = _load_model(config)
    pair = tuple(config.get("pair", (1, 3)))
    times = _times(config)
    dyn = config.get("dynamics", {"kind": "unitary"})
    kind = dyn.get("kind", "unitary")
    if kind == "unitary":
        spec = "unitary"
    elif kind == "measurement":
        sites = dyn.get("measured_sites", [2])
        spec = MeasurementChannel(frozenset(sites), float(dyn["tau"]))
    elif kind == "dephasing":
        sites = dyn.get("dephased_sites", [2])
        spec = DephasingSpec(model=model, gamma=float(dyn["two_gamma"]) / 2.0, dephased_sites=frozenset(sites))
    else:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    series = simulate_concurrence(model, spec, pair, times)
    series_to_csv(series, os.path.join(out_dir, "concurrence.csv"))
    return ["concurrence.csv"]


def _run_crossover(config, out_dir):
    model = _load_model(config)
    result = crossover_time(model, float(config["tau"]), float(config["horizon"]))
    with open(os.path.join(out_dir, "crossover.json"), "w") as f:
        json.dump(result, f, indent=2)
    return ["crossover.json"]


def _run_sweep(config, out_dir):
    seeds = config["seeds"]
    grid = _tau_grid(config)
    outputs = []

    def one(seed):
        scan = tau_scan(build_graph(_disorder_spec(config, seed=seed)), grid)
        name = f"sweep_seed{seed}.csv"
        scan_to_csv(scan, os.path.join(out_dir, name))
        return name

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        outputs = list(pool.map(one, seeds))
    return outputs


_RUNNERS = {
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "efficiency-scan": _run_efficiency_scan,
    "evolve": _run_evolve,
    "concurrence": _run_concurrence,
    "crossover": _run_crossover,
    "sweep": _run_sweep,
}


def run(config) -> int:
    """Validate, execute the scenario, write outputs and the manifest."""
    diagnostics = validate(config)
    if diagnostics:
        for d in diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 2
    out_dir = config.get("out", ".")
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    try:
        outputs = _RUNNERS[config["scenario"]](config, out_dir)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "config": config,
        "version": __version__,
        "seed": config.get("seed"),
        "wall_time_s": round(time.time() - start, 3),
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="antizeno", description="Measurement-enhanced transport scenario runner")
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--scenario", help="override the scenario in the config")
    parser.add_argument("--seed", type=int, help="override the seed in the config")
    parser.add_argument("--out", help="override the output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(config, dict):  # anything else fails validation in run()
        if args.scenario:
            config["scenario"] = args.scenario
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out:
            config["out"] = args.out
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
