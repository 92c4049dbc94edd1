"""Seeded op lists for the three benchmark workloads, with their correctness gate.

An op is one call into a public entry point: ``antizeno.cli.main`` on a config
file written before the clock starts, or one library call.  Library calls go
through module attributes at call time so that the tracer's wrappers apply.
The seed draws every model parameter, disorder seed and trajectory seed; the
number of ops of each kind is fixed, so the cost mix is the same for every
seed.  Each workload has about three small ops per large op, so the median
latency falls inside the small class and p90 inside the large class.

``may_fail`` marks the known-red probes (the exceptional-point dimer and the
n=16 disorder draws): their checks run at full strength and count in
``failed``, but a failure there is a documented defect, not a new one.  The
pooled 3-SE ensemble comparison is marked the same way because a correct
program misses a 3-SE bound on a few percent of seeds.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from antizeno import cli, dynamics, measurement, model, open_system, transfer

UNIT_TOL = 1e-10  # roundoff slack on the [0, 1] bounds
SUM_RULE_TOL = 1e-8

FIG2_EPS = (5.0, 10.0, 15.0, 20.0)
FIG3_TIMES = (1.0, 5.0, 10.0)
FIG3_GAMMA = 5.0


class GateError(Exception):
    """An op's output failed the correctness gate, or the CLI exited non-zero."""


@dataclass
class Op:
    kind: str
    run: Callable[[str], object]  # timed; gets a fresh scratch directory
    check: Callable[[object], None]
    setup: Callable[[str], None] | None = None  # untimed
    may_fail: bool = False


@dataclass
class Workload:
    ops: list  # one pass
    warmup: Op
    once: list = field(default_factory=list)  # run once, before the first pass
    # run after every pass, untimed: (kind, check, may_fail)
    pass_checks: list = field(default_factory=list)


# -- gate ---------------------------------------------------------------------
def _in_unit(what, values):
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise GateError(f"{what}: empty or non-finite")
    if v.min() < -UNIT_TOL or v.max() > 1 + UNIT_TOL:
        raise GateError(f"{what} outside [0, 1]: min {v.min():.6g}, max {v.max():.6g}")


def _sum_rule(trapped, dissipated, residual):
    err = float(np.max(np.abs(np.asarray(trapped) + dissipated + residual - 1.0)))
    if not err <= SUM_RULE_TOL:
        raise GateError(f"trapped + dissipated + residual - 1 = {err:.3g}")


def check_efficiency(res):
    _in_unit("eta", [res.eta])
    _sum_rule(res.trapped, res.dissipated, res.residual)


def _columns(path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    data = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def _outputs(out_dir, pattern, expected):
    paths = sorted(glob.glob(os.path.join(out_dir, pattern)))
    if len(paths) != expected:
        raise GateError(f"expected {expected} {pattern} outputs, found {len(paths)}")
    return paths


def _rows(cols, expected):
    n = len(next(iter(cols.values())))
    if n != expected:
        raise GateError(f"expected {expected} rows, found {n}")


def scan_check(files, rows):
    def check(out_dir):
        for path in _outputs(out_dir, "*.csv", files):
            cols = _columns(path)
            _rows(cols, rows)
            _in_unit("eta", cols["eta"])
            _sum_rule(cols["trapped"], cols["dissipated"], cols["residual"])

    return check


def concurrence_check(files, rows):
    def check(out_dir):
        for path in _outputs(out_dir, "*.csv", files):
            cols = _columns(path)
            _rows(cols, rows)
            _in_unit("concurrence", cols["concurrence"])

    return check


def trajectory_check(rows):
    def check(out_dir):
        (path,) = _outputs(out_dir, "*.csv", 1)
        cols = _columns(path)
        _rows(cols, rows)
        _in_unit("population", np.array([v for k, v in cols.items() if k.startswith("p_")]))
        _in_unit("trace", cols["trace"])

    return check


def crossover_check(out_dir):
    (path,) = _outputs(out_dir, "crossover.json", 1)
    with open(path) as f:
        out = json.load(f)
    _in_unit("p_bar", [out["p_bar"]])
    if out["t_c"] is not None and not (out["n_c"] >= 1 and out["t_c"] > 0):
        raise GateError(f"invalid crossover {out}")


def ensemble_check(n_times, n_sites, pool=None):
    def check(res):
        p = res.mean_populations
        if p.shape != (n_times, n_sites):
            raise GateError(f"ensemble shape {p.shape}")
        _in_unit("population", p)
        _in_unit("trace", p.sum(axis=1))
        if not (np.all(np.isfinite(res.se_populations)) and np.all(res.se_populations >= 0)):
            raise GateError("invalid standard errors")
        if pool is not None:
            pool.append(res)

    return check


def pooled_check(pool, spec, rho0, times):
    """Criterion 08: the pooled ensemble matches the master equation within max(3 SE, 0.01)."""

    def check():
        results, pool[:] = list(pool), []
        n = np.array([r.n_traj for r in results], dtype=float)[:, None, None]
        m = np.array([r.mean_populations for r in results])
        # per-ensemble second moments, undoing se = sqrt(var / (n - 1))
        second = np.array([r.se_populations**2 for r in results]) * (n - 1) + m**2
        total = n.sum()
        mean = (n * m).sum(axis=0) / total
        var = np.maximum((n * second).sum(axis=0) / total - mean**2, 0.0)
        se = np.sqrt(var / (total - 1))
        ref = np.array([dynamics.populations(s) for s in open_system.integrate_master(spec, rho0, times)])
        ratio = float(np.max(np.abs(mean - ref) / np.maximum(3.0 * se, 0.01)))
        if ratio > 1.0:
            raise GateError(f"pooled ensemble of {int(total)} trajectories off by {ratio:.2f} of its bound")

    return check


# -- op builders --------------------------------------------------------------
def cli_op(kind, config, check, may_fail=False) -> Op:
    def setup(d):
        with open(os.path.join(d, "config.json"), "w") as f:
            json.dump(dict(config, out=os.path.join(d, "out")), f)

    def run(d):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["--config", os.path.join(d, "config.json")])
        if rc != 0:
            raise GateError(f"exit {rc}: {err.getvalue().strip()[:160]}")
        return os.path.join(d, "out")

    return Op(kind, run, check, setup, may_fail)


def lib_op(kind, call, check, may_fail=False) -> Op:
    return Op(kind, lambda _d: call(), check, None, may_fail)


def _dimer(eps, kappa, gamma):
    return model.build_chain(2, [eps, 0.0], v=1.0, trap_rate=kappa, decay_rate=gamma)


def _chain(rng, n, trap_rate=0.5, decay_rate=0.001, **kw):
    """Chain with energies falling from ~10 to 0 and seeded interior jitter."""
    eps = rng.uniform(8.0, 12.0)
    e = np.linspace(eps, 0.0, n)
    e[1:-1] += rng.uniform(-0.25, 0.25, n - 2) * eps / (n - 1)
    return model.build_chain(n, e, v=1.0, trap_rate=trap_rate, decay_rate=decay_rate, **kw)


def _fig3_model():
    return model.build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)


def _disorder(rng, n):
    return {
        "n_sites": n,
        "topology": "chain",
        "mean_disorder": float(rng.uniform(8.0, 12.0)),
        "coupling_scale": 1.0,
        "trap_rate": 0.5,
        "decay_rate": 0.001,
    }


def _deph_efficiency(rng, n) -> Op:
    gamma = float(rng.uniform(0.5, 2.0))
    spec = open_system.DephasingSpec(_chain(rng, n), gamma, frozenset(range(1, n + 1)))

    def check(res):
        check_efficiency(res)
        if res.tau is None or abs(res.tau * 2.0 * gamma - 1.0) > 1e-12:
            raise GateError(f"tau {res.tau} is not 1/(2 gamma)")

    return lib_op(f"efficiency_dephasing-n{n}", lambda: open_system.efficiency_dephasing(spec), check)


# -- workloads ----------------------------------------------------------------
def measured_scan(seed: int) -> Workload:
    """Fig. 2 transport under repeated full-site measurement (series path)."""
    rng = np.random.default_rng(seed)
    ops = []
    # small: 43 + 8 + 6 + 8 + 9 + 1 = 75; the 400-point scans are the costliest
    # small kind, and 43 of them put the median well inside their block
    for i in range(43):
        eps = FIG2_EPS[i % 4]
        m = _dimer(eps, rng.uniform(0.4, 0.6), rng.uniform(5e-4, 2e-3))
        grid = np.linspace(0.05, 20.0, 400) / eps
        cfg = {"scenario": "efficiency-scan", "model": m.to_dict(), "tau_grid": grid.tolist()}
        ops.append(cli_op("efficiency-scan-dimer", cfg, scan_check(1, 400)))
    for i in range(8):
        m = _dimer(FIG2_EPS[i % 4], rng.uniform(0.4, 0.6), rng.uniform(5e-4, 2e-3))
        ops.append(lib_op("optimal_tau", lambda m=m: transfer.optimal_tau(m), lambda r: check_efficiency(r["result"])))
    for i in range(6):
        m = _dimer(FIG2_EPS[i % 4], rng.uniform(0.4, 0.6), rng.uniform(5e-4, 2e-3))
        ops.append(lib_op("efficiency_no_measurement", lambda m=m: transfer.efficiency_no_measurement(m), check_efficiency))
    for i in range(8):
        m = _chain(rng, 3 + i % 5, trap_rate=0.0, decay_rate=0.0)
        cfg = {"scenario": "crossover", "model": m.to_dict(), "tau": float(rng.uniform(0.04, 0.06)), "horizon": 4000.0}
        ops.append(cli_op("crossover", cfg, crossover_check))
    for _ in range(9):
        cfg = {
            "scenario": "sweep",
            "disorder": _disorder(rng, 8),
            "seeds": [int(rng.integers(2**31))],
            "tau_range": {"min": 0.01, "max": 1.0, "n": 60},
        }
        ops.append(cli_op("sweep-n8", cfg, scan_check(1, 60)))
    # known red: resonant dimer at its exceptional point (eps = 0, kappa = 2v, Gamma = 0)
    ep = model.build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
    cfg = {"scenario": "efficiency-scan", "model": ep.to_dict(), "tau_range": {"min": 0.05, "max": 2.0, "n": 40}}
    ops.append(cli_op("exceptional-point-dimer", cfg, scan_check(1, 40), may_fail=True))
    # large: 8 + 7 + 10 = 25
    for _ in range(8):
        cfg = {"scenario": "figure2", "n_points": 400, "kappa": float(rng.uniform(0.4, 0.6)), "decay_rate": float(rng.uniform(5e-4, 2e-3))}
        ops.append(cli_op("figure2", cfg, scan_check(4, 400)))
    for _ in range(7):
        cfg = {"scenario": "efficiency-scan", "model": _chain(rng, 32).to_dict(), "tau_range": {"min": 0.01, "max": 2.0, "n": 60}}
        ops.append(cli_op("efficiency-scan-n32", cfg, scan_check(1, 60)))
    # known red: the gap-rejection sampler draws only 4 of disorder seeds 0-9 at n = 16
    for s in range(10):
        cfg = {"scenario": "sweep", "disorder": _disorder(rng, 16), "seeds": [s], "tau_range": {"min": 0.01, "max": 1.0, "n": 60}}
        ops.append(cli_op("sweep-n16", cfg, scan_check(1, 60), may_fail=True))
    warm = {"scenario": "efficiency-scan", "model": _chain(rng, 32).to_dict(), "tau_grid": [0.1, 0.5]}
    return Workload(_shuffled(rng, ops), cli_op("warmup", warm, scan_check(1, 2)))


def dephasing(seed: int) -> Workload:
    """Fig. 3 and the tau = 1/(2 gamma) correspondence through the master equation."""
    rng = np.random.default_rng(seed)
    fig3 = _fig3_model().to_dict()
    ops = []
    # small: 12 + 13 + 20 + 30 = 75
    ops += [_deph_efficiency(rng, 4) for _ in range(12)]
    ops += [_deph_efficiency(rng, 8) for _ in range(13)]
    for _ in range(20):
        cfg = {"scenario": "evolve", "model": _chain(rng, 8).to_dict(), "two_gamma": float(rng.uniform(1.0, 4.0)), "t_max": 10.0}
        ops.append(cli_op("evolve-n8", cfg, trajectory_check(201)))
    for _ in range(30):
        cfg = {
            "scenario": "concurrence",
            "model": fig3,
            "pair": [1, 3],
            "times": {"max": 20.0, "n": 200},
            "dynamics": {"kind": "measurement", "tau": float(rng.uniform(0.095, 0.105)), "measured_sites": [2]},
        }
        ops.append(cli_op("concurrence-measured", cfg, concurrence_check(1, 201)))
    # large: 12 + 3 + 4 + 5, and once per run the n = 32 solve that sets the peak
    # memory.  figure3 and n = 24 cost about the same, and their 17 ops put p90
    # well inside one block; the mix also limits the share of multi-threaded
    # BLAS work, which the speed scaling corrects less well.
    ops += [cli_op("figure3", {"scenario": "figure3"}, concurrence_check(4, 2001)) for _ in range(12)]
    for n, count in ((16, 3), (20, 4), (24, 5)):
        ops += [_deph_efficiency(rng, n) for _ in range(count)]
    once = [_deph_efficiency(rng, 32)]
    warm = {"scenario": "evolve", "model": _chain(rng, 8).to_dict(), "two_gamma": 2.0, "t_max": 10.0}
    return Workload(_shuffled(rng, ops), cli_op("warmup", warm, trajectory_check(201)), once)


def jump_ensemble(seed: int) -> Workload:
    """Quantum-jump unraveling of dephasing (criterion 08): a per-trajectory loop."""
    rng = np.random.default_rng(seed)
    fig3 = open_system.DephasingSpec(_fig3_model(), FIG3_GAMMA, frozenset({2}))
    rho3 = dynamics.pure_site_state(3, 2)
    pool: list = []
    ops = []

    def fig3_op(n_traj, check):
        s = int(rng.integers(2**63))
        return lib_op(
            "poisson-fig3",
            lambda: open_system.quantum_jump_ensemble(fig3, rho3, FIG3_TIMES, n_traj=n_traj, seed=s),
            check,
        )

    # small: 75 ensembles of 36 trajectories, pooled for the criterion-08 check
    ops += [fig3_op(36, ensemble_check(3, 3, pool)) for _ in range(75)]
    # large: 24 ensembles on n = 8 chains dephased on every site, and one periodic run
    rho8 = dynamics.pure_site_state(8, 1)
    for _ in range(24):
        spec = open_system.DephasingSpec(_chain(rng, 8), FIG3_GAMMA, frozenset(range(1, 9)))
        s = int(rng.integers(2**63))
        ops.append(
            lib_op(
                "poisson-n8",
                lambda spec=spec, s=s: open_system.quantum_jump_ensemble(spec, rho8, FIG3_TIMES, n_traj=120, seed=s),
                ensemble_check(3, 8),
            )
        )
    ops.append(_periodic_op(rng))
    warmup = fig3_op(8, ensemble_check(3, 3))
    checks = [("pooled-poisson-fig3", pooled_check(pool, fig3, rho3, FIG3_TIMES), True)]
    return Workload(_shuffled(rng, ops), warmup, pass_checks=checks)


def _periodic_op(rng) -> Op:
    """Periodic resets every tau over 1000 intervals; equal to the measured trajectory."""
    m8 = _chain(rng, 8)
    gamma = float(rng.uniform(4.0, 6.0))
    tau = 1.0 / (2.0 * gamma)
    sites = frozenset({1, 3, 5, 7})
    spec = open_system.DephasingSpec(m8, gamma, sites)
    grid = np.arange(1001) * tau

    def check(res):
        ref = measurement.repeated_measurement_trajectory(m8, measurement.MeasurementChannel(sites, tau), 1000)
        diff = float(np.max(np.abs(res.mean_populations - ref.populations)))
        if diff != 0.0:
            raise GateError(f"periodic mode differs from the measured trajectory by {diff:.3g}")

    return lib_op(
        "periodic-n8",
        lambda: open_system.quantum_jump_ensemble(spec, dynamics.pure_site_state(8, 1), grid, n_traj=1, seed=0, mode="periodic"),
        check,
    )


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {"measured-scan": measured_scan, "dephasing": dephasing, "jump-ensemble": jump_ensemble}
