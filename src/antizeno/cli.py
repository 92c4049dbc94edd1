"""Configuration-driven scenario runner.

Usage:
    antizeno --config run.json [--scenario S] [--seed N] [--out DIR]

A run writes CSV outputs plus a manifest.json echoing the configuration, so
every output directory can be re-run exactly.  The independent curves of
figure2 and sweep run serially unless ZT_THREADS sets a worker-thread count.

Each scenario has one parse function: it reads every config key once through
the typed readers of ``_Object`` and returns the scenario's jobs with every
argument resolved.  A key that no reader consumes is a config error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .dynamics import populations, pure_site_state
from .entanglement import series_to_csv, simulate_concurrence
from .measurement import MeasuredTrajectory, MeasurementChannel, crossover_time, trajectory_to_csv
from .measurement import repeated_measurement_trajectory
from .model import DisorderSpec, LatticeModel, build_chain, build_graph
from .open_system import DephasingSpec, _master_stack
from .transfer import scan_to_csv, tau_scan

_REQUIRED = object()
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class ConfigError(Exception):
    """A config that no run can use; run() reports it and exits 2."""


def _number(x):
    """x as a finite float, or None for anything else (bool, string, NaN, 1e400)."""
    finite = isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    return float(x) if finite else None


def _integer(x):
    return x if isinstance(x, int) and not isinstance(x, bool) else None


def _path(x):
    return x if isinstance(x, str) and x else None


def _bounded(convert, bound):
    """convert, then None unless the result meets bound ("> 0", ">= 2", "<= 5" or None)."""
    if bound is None:
        return convert
    op, limit = bound.split()
    return lambda x: y if (y := convert(x)) is not None and _COMPARE[op](y, float(limit)) else None


def _finite_list(bound):
    """A check for a nonempty list of finite numbers that meet bound: the list as floats, else None.

    _nonempty_list(_bounded(_number, bound)) in one pass: one type test on every element (what
    _number accepts: int or float, not bool), then one finite-and-bound test over the array."""
    op, limit = bound.split() if bound else (None, None)

    def check(x):
        if not (isinstance(x, list) and x):
            return None
        if not all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in set(map(type, x))):
            return None
        try:
            a = np.array(x, dtype=float)
        except OverflowError:  # an int past the float range
            return None
        return a.tolist() if np.isfinite(a).all() and (op is None or _COMPARE[op](a, float(limit)).all()) else None

    return check


def _nonempty_list(convert):
    def check(x):
        items = [convert(e) for e in x] if isinstance(x, list) and x else [None]
        return None if None in items else items

    return check


class _Object:
    """Typed reads of one JSON object of the config.  Each read marks its key
    used and returns the checked value, or the default when the key is absent;
    any other value, null included, raises ConfigError."""

    def __init__(self, obj, name):
        if not isinstance(obj, dict):
            raise ConfigError(f"{name or 'the configuration'} must be a JSON object, got {obj!r}")
        self.obj, self.name, self.used, self.children = obj, name, set(), []

    def _key(self, key):
        return f"{self.name}.{key}" if self.name else key

    def read(self, key, default, convert, what):
        self.used.add(key)
        x = self.obj.get(key, default)
        if x is _REQUIRED:
            raise ConfigError(f"{self._key(key)} is required: {what}")
        value = convert(x)
        if value is None:
            raise ConfigError(f"{self._key(key)} must be {what}, got {x!r}")
        return value

    def number(self, key, default=_REQUIRED, bound=None):
        return self.read(key, default, _bounded(_number, bound), f"a finite number {bound or ''}".strip())

    def integer(self, key, default=_REQUIRED, bound=None):
        return self.read(key, default, _bounded(_integer, bound), f"an integer {bound or ''}".strip())

    def numbers(self, key, default=_REQUIRED, bound=None):
        what = f"a nonempty list of finite numbers {bound or ''}".strip()
        return self.read(key, default, _finite_list(bound), what)

    def integers(self, key, default=_REQUIRED, bound=None):
        what = f"a nonempty list of integers {bound or ''}".strip()
        return self.read(key, default, _nonempty_list(_bounded(_integer, bound)), what)

    def sites(self, key, n_sites, default=_REQUIRED):
        check = _nonempty_list(_bounded(_bounded(_integer, ">= 1"), f"<= {n_sites}"))
        return self.read(key, default, check, f"a nonempty list of sites in 1..{n_sites}")

    def choice(self, key, options, default=_REQUIRED):
        return self.read(key, default, lambda x: x if x in options else None, "one of " + ", ".join(options))

    def value(self, key, what, default=_REQUIRED):
        """The raw value (null excepted), for a library constructor to check."""
        return self.read(key, default, lambda x: x, what)

    def child(self, key):
        """The nested object at key, {} when absent."""
        self.used.add(key)
        sub = _Object(self.obj.get(key, {}), self._key(key))
        self.children.append(sub)
        return sub

    def unused(self) -> list:
        own = [self._key(k) for k in self.obj if k not in self.used]
        return own + [k for sub in self.children for k in sub.unused()]


def _max_workers() -> int:
    """ZT_THREADS, else 1: on a 2-CPU host serial curves beat a 2-thread pool."""
    env = os.environ.get("ZT_THREADS")
    return max(1, int(env)) if env else 1


def _dump_json(result, path) -> None:
    with open(path, "w") as f:  # one top-level key per line, one write; json's C encoder runs only without indent
        f.write("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in result.items()) + "\n}\n")


def _execute(jobs, out_dir, workers) -> list:
    """Compute and write each (file name, writer, compute) job; the file names in order."""

    def one(job):
        name, writer, compute = job
        writer(compute(), os.path.join(out_dir, name))
        return name

    if workers == 1:
        return [one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, jobs))


def _disorder(c, seed):
    """The disorder object as a DisorderSpec.  Its seed defaults to the config's;
    seed=None reads none, for the sweep, which sets one per run."""
    d = c.child("disorder")
    try:
        return DisorderSpec(
            n_sites=d.integer("n_sites", bound=">= 2"),
            topology=d.value("topology", "a topology name"),
            mean_disorder=d.number("mean_disorder", bound=">= 0"),
            coupling_scale=d.number("coupling_scale", bound="> 0"),
            trap_rate=d.number("trap_rate", bound=">= 0"),
            decay_rate=d.number("decay_rate", bound=">= 0"),
            seed=0 if seed is None else d.integer("seed", seed, ">= 0"),
            removed_edges=d.value("removed_edges", "a list of site pairs", ()),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid disorder spec: {exc}") from None


def _model(c, seed) -> LatticeModel:
    """The model of the config's model, model_file or disorder entry."""
    if "model" in c.obj:
        source, d = "inline model", c.value("model", "an object")
    elif "model_file" in c.obj:
        path = c.read("model_file", _REQUIRED, _path, "a path string")
        source = f"model file {path}"
        try:
            with open(path) as f:
                d = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from None
    elif "disorder" in c.obj:
        try:
            return build_graph(_disorder(c, seed))
        except ValueError as exc:  # an n_sites too large for an array
            raise ConfigError(f"invalid disorder spec: {exc}") from None
    else:
        raise ConfigError("this scenario requires a model, model_file, or disorder entry")
    try:
        return LatticeModel.from_dict(d)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid {source}: {exc}") from None


def _tau_grid(c) -> np.ndarray:
    """tau_grid, or tau_range {min, max, n} (default 0.005 to 2.0 in 60 points)."""
    if "tau_grid" in c.obj:
        grid = np.asarray(c.numbers("tau_grid"))
    else:
        r = c.child("tau_range")
        grid = np.linspace(r.number("min", 0.005), r.number("max", 2.0), r.integer("n", 60, ">= 1"))
    if np.any(grid <= 0):
        raise ConfigError(f"tau grid contains {grid[grid <= 0][0]:.3g}; the measurement interval tau must be > 0")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("tau grid must be strictly increasing")
    return grid


def _times(c, t_max=20.0, n=2000) -> np.ndarray:
    """The output times: a sorted list, or {"max", "n"} for n + 1 even steps from 0."""
    if isinstance(c.obj.get("times"), list):
        times = np.asarray(c.numbers("times", bound=">= 0"))
        if np.any(np.diff(times) < 0):
            raise ConfigError(f"times must be sorted, got {c.obj['times']!r}")
        return times
    t = c.child("times")
    return np.linspace(0.0, t.number("max", t_max, ">= 0"), t.integer("n", n, ">= 0") + 1)


# -- one parse function per scenario: (config reader, seed) -> [(file name, writer, compute)]
def _figure2(c, seed):
    eps_list = c.numbers("eps_list", [5.0, 10.0, 15.0, 20.0], "> 0")
    kappa = c.number("kappa", 0.5, ">= 0")
    gamma_decay = c.number("decay_rate", 0.001, ">= 0")
    eps_tau = np.linspace(0.05, 20.0, c.integer("n_points", 80, ">= 1"))

    def scan(eps):
        return tau_scan(build_chain(2, [eps, 0.0], v=1.0, trap_rate=kappa, decay_rate=gamma_decay), eps_tau / eps)

    return [(f"figure2_eps{eps:g}.csv", scan_to_csv, partial(scan, eps)) for eps in eps_list]


def _figure3(c, seed):
    two_gammas = c.numbers("two_gammas", [0.0, 0.1, 10.0, 1000.0], ">= 0")
    times = _times(c)
    model = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)

    def series(tg):
        spec = "unitary" if tg == 0 else DephasingSpec(model=model, gamma=tg / 2.0, dephased_sites=frozenset({2}))
        return simulate_concurrence(model, spec, (1, 3), times)

    return [(f"figure3_2gamma{tg:g}.csv", series_to_csv, partial(series, tg)) for tg in two_gammas]


def _efficiency_scan(c, seed):
    return [("scan.csv", scan_to_csv, partial(tau_scan, _model(c, seed), _tau_grid(c)))]


def _evolve(c, seed):
    model = _model(c, seed)
    n = model.n_sites
    every_site = list(range(1, n + 1))
    if "tau" in c.obj:  # periodic measurement; otherwise dephasing
        channel = MeasurementChannel(frozenset(c.sites("measured_sites", n, every_site)), c.number("tau", bound="> 0"))
        steps = partial(repeated_measurement_trajectory, model, channel, c.integer("n_steps", 100, ">= 0"))
        return [("trajectory.csv", trajectory_to_csv, steps)]
    gamma = c.number("two_gamma", 0.0, ">= 0") / 2.0
    times = _times(c, c.number("t_max", 10.0, ">= 0"), 200)
    sites = c.sites("dephased_sites", n, every_site)
    spec = DephasingSpec(model=model, gamma=gamma, dephased_sites=frozenset(sites))

    def trajectory():
        states = _master_stack(spec, pure_site_state(n, model.initial_site), times)
        return MeasuredTrajectory(times=times, populations=populations(states))

    return [("trajectory.csv", trajectory_to_csv, trajectory)]


def _concurrence(c, seed):
    model = _model(c, seed)
    n = model.n_sites
    pair = c.sites("pair", n, [1, 3])
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ConfigError(f"pair must be two distinct sites, got {pair!r}")
    times = _times(c)
    dyn = c.child("dynamics")
    kind = dyn.choice("kind", ("unitary", "measurement", "dephasing"), "unitary")
    if kind == "measurement":
        spec = MeasurementChannel(frozenset(dyn.sites("measured_sites", n, [2])), dyn.number("tau", bound="> 0"))
    elif kind == "dephasing":
        gamma = dyn.number("two_gamma", bound=">= 0") / 2.0
        spec = DephasingSpec(model=model, gamma=gamma, dephased_sites=frozenset(dyn.sites("dephased_sites", n, [2])))
    else:
        spec = "unitary"
    return [("concurrence.csv", series_to_csv, partial(simulate_concurrence, model, spec, tuple(pair), times))]


def _crossover(c, seed):
    model = _model(c, seed)
    tau = c.number("tau", bound="> 0")
    horizon = c.number("horizon", bound=f">= {tau!r}")
    return [("crossover.json", _dump_json, partial(crossover_time, model, tau, horizon))]


def _sweep(c, seed):
    spec = _disorder(c, None)
    seeds = c.integers("seeds", bound=">= 0")
    grid = _tau_grid(c)

    def scan(s):
        return tau_scan(build_graph(replace(spec, seed=s)), grid)

    return [(f"sweep_seed{s}.csv", scan_to_csv, partial(scan, s)) for s in seeds]


_PARSERS = {
    "figure2": _figure2,
    "figure3": _figure3,
    "efficiency-scan": _efficiency_scan,
    "evolve": _evolve,
    "concurrence": _concurrence,
    "crossover": _crossover,
    "sweep": _sweep,
}
SCENARIOS = tuple(_PARSERS)
_FAN_OUT = ("figure2", "sweep")  # independent curves, computed on ZT_THREADS worker threads


def _parse(config):
    """(jobs, output directory, whether the jobs fan out); raises ConfigError."""
    c = _Object(config, "")
    scenario = c.choice("scenario", SCENARIOS)
    seed = c.integer("seed", 0, ">= 0")
    out_dir = c.read("out", ".", _path, "a path string")
    jobs = _PARSERS[scenario](c, seed)
    unused = c.unused()
    if unused:
        raise ConfigError(f"{unused[0]} is not read by the {scenario} scenario")
    return jobs, out_dir, scenario in _FAN_OUT


def validate(config) -> list:
    """[] if run() accepts the config, else [the first problem found].  Runs no engine."""
    try:
        _parse(config)
    except ConfigError as exc:
        return [str(exc)]
    return []


def run(config) -> int:
    """Parse the config, execute the scenario, write outputs and the manifest."""
    try:
        jobs, out_dir, fan_out = _parse(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        start = time.time()
        outputs = _execute(jobs, out_dir, _max_workers() if fan_out else 1)
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "config": config,
        "version": __version__,
        "seed": config.get("seed"),
        "wall_time_s": round(time.time() - start, 3),
        "outputs": outputs,
    }
    _dump_json(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


_PARSER = argparse.ArgumentParser(prog="antizeno", description="Measurement-enhanced transport scenario runner")
_PARSER.add_argument("--config", required=True, help="JSON configuration file")
_PARSER.add_argument("--scenario", help="override the scenario in the config")
_PARSER.add_argument("--seed", type=int, help="override the seed in the config")
_PARSER.add_argument("--out", help="override the output directory")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text encoding
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(config, dict):  # anything else fails to parse in run()
        overrides = {"scenario": args.scenario, "seed": args.seed, "out": args.out}
        config.update({key: value for key, value in overrides.items() if value is not None})
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
