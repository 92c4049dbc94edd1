"""Dephasing dynamics: master-equation integration and quantum-jump unraveling.

The generator is
    drho/dt = -i (H_eff rho - rho H_eff^dag)
              + 2 gamma (sum_{i in D} P_i rho P_i + Q rho Q - rho),
with Q = I - sum_{i in D} P_i.  The generator L is linear and time
independent, so time series are exact: the vectorized state advances by the
matrix exponential exp(L dt) (scaling and squaring) between requested times.
The transfer efficiency needs only the time integral of the state, which is
one linear solve on the generator.

In the quantum-jump picture (poisson mode), jumps apply the same channel at
rate 2 gamma, so tau = 1/(2 gamma) is the mean interval between channel
applications.  Periodic mode applies the channel exactly every 1/(2 gamma),
which reproduces repeated measurement at that interval by construction.  The
two differ at equal mean interval: E[s^2] = 2 E[s]^2 for exponential
intervals, so the periodic interval with the same Zeno hop rate as dephasing
at rate 2 gamma is 2/(2 gamma).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import (
    DensityMatrix,
    _density_matrices,
    _time_grid,
    density_stack,
    eig_system,
    evolve,
    populations,
    propagator,
)
from .measurement import MeasurementChannel, channel_masks, measured_states
from .model import LatticeModel, _is_integer, effective_hamiltonian
from .transfer import EfficiencyResult, _integrated_result, _require_lossy


@dataclass(frozen=True)
class DephasingSpec:
    """Dephasing at rate gamma on the site set D of a lattice model."""

    model: LatticeModel
    gamma: float
    dephased_sites: frozenset

    def __post_init__(self):
        if self.gamma < 0 or not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite and nonnegative")
        d = frozenset(int(i) for i in self.dephased_sites)
        if self.gamma > 0 and not d:
            raise ValueError("dephased site set must be nonempty when gamma > 0")
        if any(not 1 <= i <= self.model.n_sites for i in d):
            raise ValueError("dephased site out of range")
        object.__setattr__(self, "dephased_sites", d)


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-ensemble averages with per-population standard errors."""

    n_traj: int
    seed: int
    times: np.ndarray
    mean_states: tuple  # DensityMatrix per requested time
    mean_populations: np.ndarray  # (n_times, n_sites)
    se_populations: np.ndarray  # (n_times, n_sites)
    mode: str


def _liouvillian(spec: DephasingSpec) -> np.ndarray:
    """The generator as a matrix on row-major vec(rho)."""
    h = effective_hamiltonian(spec.model).matrix
    n = spec.model.n_sites
    eye = np.eye(n)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
    if spec.gamma > 0:
        # the channel keeps rho_ab iff a == b or neither site is dephased
        _, keep = channel_masks(n, spec.dephased_sites)
        lv[np.diag_indices(n * n)] -= 2.0 * spec.gamma * ~keep.ravel()
    return lv


def integrate_master(spec: DephasingSpec, rho0, times):
    """The dephasing master equation at the requested times (sorted, at or
    after 0), exact to roundoff.

    The generator is linear and time independent, so the state advances by the
    matrix exponential exp(L dt) between consecutive times; one exponential is
    computed per distinct interval.  Returns a list of DensityMatrix, one per
    requested time.  The state is re-symmetrized at each output time.  The
    states fill one (len(times), n, n) stack, whose finiteness, population
    range and DensityMatrix checks run once; the returned objects are views
    of it.
    """
    return _density_matrices(_master_stack(spec, rho0, times))


def _master_stack(spec: DephasingSpec, rho0, times) -> np.ndarray:
    """integrate_master's states as one checked (len(times), n, n) stack."""
    times = _time_grid(times)
    rm = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    n = rm.shape[0]
    if n != spec.model.n_sites:
        raise ValueError("state dimension does not match model")
    lv = _liouvillian(spec)
    # the span stepped before each output: from the last time the state moved
    # to, or 0 where that is at most 1e-15
    spans = np.zeros(times.shape)
    t_now = 0.0
    for i, t_target in enumerate(times):
        if t_target - t_now > 1e-15:
            spans[i] = t_target - t_now
            t_now = t_target
    cache: dict = {}
    out = np.empty((times.size, n, n), dtype=complex)
    z = rm.reshape(-1).astype(complex)
    for i, key in enumerate(np.round(spans, 15).tolist()):
        if spans[i]:
            if key not in cache:
                cache[key] = scipy.linalg.expm(lv * spans[i])
            # not @: after a scipy BLAS call, numpy's @ contends with scipy's separate OpenBLAS thread pool
            z = np.einsum("ij,j->i", cache[key], z)
        r = z.reshape(n, n)
        r = (r + r.conj().T) / 2  # feeds the next step, so it stays per step
        out[i] = r
        z = r.reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite state during integration")
    pops = populations(out)
    if np.any(pops < -1e-8) or np.any(pops > 1 + 1e-8):
        raise ValueError("populations left [0, 1] during integration")
    return density_stack(out)


def efficiency_dephasing(spec: DephasingSpec) -> EfficiencyResult:
    """eta = 2 kappa int p_trap dt under dephasing on all sites.

    The time integral of the state is exact: int_0^inf rho dt = -L^-1 rho(0),
    one dense solve on the generator.  A singular or ill-conditioned generator
    means some mode never decays (a dark state, or sites cut off from every
    loss channel) and raises ValueError.  tau = 1/(2 gamma) is reported: the
    mean interval between the Poisson-timed channel applications.  Periodic
    measurement with the same Zeno hop rate has interval 2/(2 gamma), since
    E[s^2] = 2 E[s]^2 for exponential intervals.
    """
    model = spec.model
    _require_lossy(model)
    if spec.gamma > 0 and spec.dephased_sites != frozenset(range(1, model.n_sites + 1)):
        raise ValueError("transport efficiency is defined for dephasing on all sites")
    n = model.n_sites
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[(model.initial_site - 1) * (n + 1)] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            x = scipy.linalg.solve(_liouvillian(spec), -rho0, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise ValueError(f"non-decaying mode: singular generator ({exc})") from None
    tau = 1.0 / (2.0 * spec.gamma) if spec.gamma > 0 else None
    return _integrated_result(model, np.real(x[:: n + 1]), tau, "master")


def _pure_initial(rho0) -> np.ndarray:
    rm = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    ev, vec = np.linalg.eigh(rm)
    if ev[-1] < np.trace(rm).real - 1e-10:
        raise ValueError("quantum-jump unraveling needs a pure initial state")
    return vec[:, -1] * math.sqrt(max(ev[-1], 0.0))


def quantum_jump_ensemble(
    spec: DephasingSpec, rho0, times, n_traj: int, seed: int, mode: str = "poisson"
) -> EnsembleResult:
    """Stochastic unraveling of the dephasing master equation.

    poisson mode draws exponential waiting times at rate 2 gamma, so
    tau = 1/(2 gamma) is the mean interval between jumps.  periodic mode
    applies the non-selective channel deterministically every 1/(2 gamma)
    through the measurement module, so it reproduces repeated-measurement
    trajectories at that interval exactly.  It is not the periodic counterpart
    of poisson mode: the periodic interval with the same Zeno hop rate is
    2/(2 gamma).  Trajectories carry sub-normalized states under dissipation.

    poisson mode advances all trajectories in lockstep, one row each of an
    (n_traj, n) array of eigenbasis amplitudes: every iteration takes each
    unfinished trajectory to its own next event, a jump or its next output
    time.  The random numbers do not depend on this layout.  Trajectory k
    draws from its own generator, default_rng(SeedSequence(seed).spawn(n_traj)[k]):
    first its initial waiting time, then per jump the uniform that picks the
    site and the next waiting time.  So each trajectory, and the ensemble
    average up to summation order, is the same as when the trajectories run
    one at a time.
    """
    if not (_is_integer(n_traj) and n_traj >= 1):
        raise ValueError(f"n_traj must be an integer >= 1, got {n_traj!r}")
    if mode not in ("poisson", "periodic"):
        raise ValueError(f"unknown mode {mode!r}")
    times = _time_grid(times)
    model = spec.model
    n = model.n_sites
    h = effective_hamiltonian(model).matrix

    if spec.gamma == 0 or mode == "periodic":
        rho = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
        if spec.gamma == 0:
            states = [evolve(propagator(h, t), rho) for t in times]
        else:
            channel = MeasurementChannel(spec.dephased_sites, 1.0 / (2.0 * spec.gamma))
            states = measured_states(h, channel, rho, times)
        pops = np.array([populations(s) for s in states]).reshape(len(times), n)
        return EnsembleResult(
            n_traj=n_traj,
            seed=seed,
            times=times,
            mean_states=tuple(states),
            mean_populations=pops,
            se_populations=np.zeros_like(pops),
            mode=mode,
        )

    # poisson mode: all trajectories advance in lockstep in the eigenbasis of H_eff
    w, v, vinv, _ = eig_system(h)
    if vinv is None:
        raise ValueError("defective effective Hamiltonian; poisson unraveling unsupported here")
    psi0 = _pure_initial(rho0)
    measured, _ = channel_masks(n, spec.dephased_sites)
    d_idx = np.flatnonzero(measured)
    wait = 1.0 / (2.0 * spec.gamma)
    # kept[f] masks the sites a jump keeps when the first f dephased sites miss:
    # row f < |D| keeps d_idx[f], the site that clicks; row |D| (no click) keeps the sites off D
    kept = np.zeros((d_idx.size + 1, n))
    kept[np.arange(d_idx.size), d_idx] = 1.0
    kept[-1] = ~measured
    vt, vinvt = v.T, vinv.T  # row-wise basis changes: psi = phi @ v.T, phi = psi @ vinv.T
    n_times = times.shape[0]
    sum_rho = np.zeros((n_times, n, n), dtype=complex)
    sum_p = np.zeros((n_times, n))
    # the variance accumulates deviations from the first sample at each time, so
    # that it is exactly 0 where every trajectory holds the same state
    shift = np.full((n_times, n), np.nan)
    sum_d = np.zeros((n_times, n))
    sum_d2 = np.zeros((n_times, n))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    # one row per unfinished trajectory; ids[r] is the trajectory (and stream) index of row r
    ids = np.arange(n_traj)
    phi = np.tile(vinv @ psi0, (n_traj, 1))  # eigenbasis amplitudes
    t_now = np.zeros(n_traj)
    t_jump = wait * np.array([g.standard_exponential() for g in rngs])
    ti = np.zeros(n_traj, dtype=np.intp)  # next output index
    while n_times and ids.size:
        # every row advances to its next event: a jump, or its next output time
        t_out = times[ti]
        jumps = t_jump <= t_out
        t_next = np.minimum(t_jump, t_out)
        phi *= np.exp(np.multiply.outer(t_next - t_now, -1j * w))
        t_now = t_next
        n_jumps = np.count_nonzero(jumps)
        if n_jumps:
            # each jumping stream draws the uniform that picks the site, then the next waiting time
            draws = np.array([(rngs[k].random(), rngs[k].standard_exponential()) for k in ids[jumps].tolist()])
            psi = phi[jumps] @ vt
            q = np.abs(psi) ** 2
            norm2 = q.sum(axis=1)
            # the first dephased site whose cumulative probability exceeds u * norm2
            # clicks; the cumulative sums rise, so the sites below it are the misses
            misses = (np.cumsum(q[:, d_idx], axis=1) <= (norm2 * draws[:, 0])[:, None]).sum(axis=1)
            keep = kept[misses]
            rem = np.maximum((q * keep).sum(axis=1), 1e-300)
            phi[jumps] = (psi * (keep * np.sqrt(norm2 / rem)[:, None])) @ vinvt
            t_jump[jumps] += wait * draws[:, 1]  # t_jump == t_now on these rows
        if n_jumps < ids.size:
            out = ~jumps
            psi = phi[out] @ vt
            p = np.abs(psi) ** 2
            t_idx = ti[out]
            for t in np.unique(t_idx):
                sel = t_idx == t
                rows = psi[sel]
                sum_rho[t] += rows.T @ rows.conj()
                sum_p[t] += p[sel].sum(axis=0)
                if np.isnan(shift[t, 0]):
                    shift[t] = p[sel][0]
                d = p[sel] - shift[t]
                sum_d[t] += d.sum(axis=0)
                sum_d2[t] += (d**2).sum(axis=0)
            ti[out] += 1
            running = ti < n_times
            ids, phi, t_now, t_jump, ti = ids[running], phi[running], t_now[running], t_jump[running], ti[running]
    mean_rho = sum_rho / n_traj
    mean_p = sum_p / n_traj
    var = np.maximum(sum_d2 / n_traj - (sum_d / n_traj) ** 2, 0.0)
    se = np.sqrt(var / max(n_traj - 1, 1))
    states = tuple(_density_matrices(density_stack((mean_rho + mean_rho.conj().swapaxes(1, 2)) / 2)))
    return EnsembleResult(
        n_traj=n_traj,
        seed=seed,
        times=times,
        mean_states=states,
        mean_populations=mean_p,
        se_populations=se,
        mode="poisson",
    )


def ensemble_to_csv(result: EnsembleResult, path) -> None:
    """Trajectory CSV schema plus se_p_i columns."""
    n = result.mean_populations.shape[1]
    header = (
        "t,"
        + ",".join(f"p_{i}" for i in range(1, n + 1))
        + ",trace,"
        + ",".join(f"se_p_{i}" for i in range(1, n + 1))
    )
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for ti, t in enumerate(result.times):
            tr = float(result.mean_populations[ti].sum())
            cells = (
                [f"{t:.12g}"]
                + [f"{x:.12g}" for x in result.mean_populations[ti]]
                + [f"{tr:.12g}"]
                + [f"{x:.12g}" for x in result.se_populations[ti]]
            )
            f.write(",".join(cells) + "\n")
