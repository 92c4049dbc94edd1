"""Dephasing dynamics: master-equation integration and quantum-jump unraveling.

The generator is
    drho/dt = -i (H_eff rho - rho H_eff^dag)
              + 2 gamma (sum_{i in D} P_i rho P_i + Q rho Q - rho),
with Q = I - sum_{i in D} P_i.  The generator L is linear and time
independent, so time series are exact: the vectorized state advances by the
matrix exponential exp(L dt) (scaling and squaring) between requested times.
At gamma = 0 (coherent evolution, the unitary case of entanglement's
simulate_concurrence) no generator is built: with rho0 = W diag(lam) W^H of
rank r, rho(t) = Psi(t) diag(lam) Psi(t)^H for the n x r factor
Psi(t) = exp(-i H_eff t) W: about 2 n^2 r work per time where the
propagator and the conjugation by it took 3 n^3 (the checks on each state,
a Cholesky of n^3 / 3 among them, stay).
The transfer efficiency does not need the generator: dephasing on every site
is the measurement channel at Poisson-timed events, so it is the renewal
series of repeated measurement with an exponential interval weight (transfer).

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
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DensityMatrix,
    _chunks,
    _density_matrices,
    _expm,
    _from_real,
    _powers,
    _propagators,
    _time_grid,
    _write_csv,
    density_stack,
    eig_system,
    populations,
)
from .measurement import MeasurementChannel, _measured_stack, channel_masks
from .model import LatticeModel, _is_integer
from .transfer import EfficiencyResult, _poisson_efficiency


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
    h = spec.model._h_eff.matrix
    n = spec.model.n_sites
    eye = np.eye(n)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
    # the channel keeps rho_ab iff a == b or neither site is dephased
    _, keep = channel_masks(n, spec.dephased_sites)
    lv[np.diag_indices(n * n)] -= 2.0 * spec.gamma * ~keep.ravel()
    return lv


def integrate_master(spec: DephasingSpec, rho0, times):
    """The dephasing master equation at the requested times (sorted, at or
    after 0), exact to roundoff.

    The generator is linear and time independent, so the state advances by the
    matrix exponential exp(L dt) between consecutive times.  The distinct times
    fall into runs of one span h: each time lies within 4 of its own ulps of
    the run's first time plus a multiple of h.  A run takes one exponential
    S = exp(L h) and reaches its k-th time as S^k by repeated squaring, so a
    uniform grid takes one exponential and about log2(len(times)) squarings,
    and an irregular list one exponential per span.  Equal times share a
    state.  The state steps as the real vector Re rho + Im rho, and the states
    are rebuilt from it in one (len(times), n, n) stack.  At gamma = 0 the
    stack is Psi diag(lam) Psi^H, Psi(t) = exp(-i H_eff t) W from one stack of
    propagators times the rank factor W of rho0 (see _master_stack), and no
    n x n propagator is formed.  Its finiteness, population range and
    DensityMatrix checks run once.  Returns a list of DensityMatrix, views of
    it, one per time; rho0 is checked as one.
    """
    return _density_matrices(_master_stack(spec, rho0, times))


def _master_stack(spec: DephasingSpec, rho0, times) -> np.ndarray:
    """integrate_master's states as one checked (len(times), n, n) stack.

    At gamma = 0 rho0 is factored once, rho0 = W diag(lam) W^H by eigh, and
    the eigenvalues within eigh's roundoff, |lam| <= n u max|lam|, are
    dropped, so a site state has rank r = 1; the rest keep their sign
    (DensityMatrix admits eigenvalues down to -1e-10).  The (len(times), n, r)
    stack U(t) W comes from dynamics._propagators in one product with
    _mode_table(V, Vinv W), or from the stacked _expm times W where the
    eigenbasis is ill-conditioned.  The states are (x + x^H) / 2 for
    x = U W diag(lam) (U W)^H, Hermitian to the bit, formed a chunk of times at a time into the
    stack, and take every check of the gamma > 0 stack, although they are PSD by
    construction.  At gamma > 0 _from_real rebuilds the stack from ys, whose rows distinct times view."""
    times = _time_grid(times)
    rm = _initial_state(spec, rho0).matrix
    n = rm.shape[0]
    if spec.gamma == 0:
        lam, w = np.linalg.eigh(rm)
        kept = np.abs(lam) > n * 2.0**-53 * np.abs(lam).max(initial=0.0)
        psi = _propagators(spec.model._h_eff, times, w[:, kept])  # U(t) W
        # (x + x^H) / 2 for x = psi diag(lam) psi^H, Hermitian to the bit; the halving is
        # exact, so it is taken into lam, and x is formed a chunk of times at a time
        half, out = lam[kept] / 2, np.empty((times.size, n, n), dtype=complex)
        for c in _chunks(out):
            x = (psi[c] * half) @ psi[c].conj().swapaxes(1, 2)
            np.conjugate(x.swapaxes(1, 2), out=out[c])
            out[c] += x
    else:
        lv = _liouvillian(spec)
        # y = vec(Re rho + Im rho) fixes a Hermitian rho, rho = (y + y^T)/2 + i (y - y^T)/2, and L keeps
        # rho Hermitian, so dy/dt = Re(L vec rho) + Im(L vec rho) = (Re L + Im L P) y, P: vec(x) -> vec(x^T)
        lr = lv.real + lv.imag[:, np.arange(n * n).reshape(n, n).T.reshape(-1)]
        # row j of ys is the state at td[j], the j-th distinct time of 0 and the outputs
        td, row = np.unique(np.concatenate(([0.0], times)), return_inverse=True)
        ys = np.empty((td.size, n * n))
        ys[0] = (rm.real + rm.imag).reshape(-1)
        ulps, s = 4 * np.spacing(td), 0
        while s + 1 < td.size:
            # a run: the times td[s + k], k = 1, 2, ..., within 4 of their own ulps of td[s] + k h;
            # each pass checks the next time alone, then as many more as the run has
            h, count = td[s + 1] - td[s], 2
            while s + count < td.size and abs(td[s + count] - (td[s] + count * h)) <= ulps[s + count]:
                k = np.arange(count + 1, min(2 * count, td.size - s))
                on = np.abs(td[s + k] - (td[s] + k * h)) <= ulps[s + k]
                count += 1 + int(np.append(on, False).argmin())
            ys[s : s + count] = _powers(_expm(lr * h), ys[s], range(count))
            s += count - 1
        ys = ys[td.size - times.size :] if np.all(np.diff(row[1:]) == 1) else ys[row[1:]]
        out = _from_real(ys.reshape(-1, n, n))
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite state during integration")
    pops = populations(out)
    if np.any(pops < -1e-8) or np.any(pops > 1 + 1e-8):
        raise ValueError("populations left [0, 1] during integration")
    return density_stack(out)


def _initial_state(spec: DephasingSpec, rho0) -> DensityMatrix:
    """rho0 checked as a DensityMatrix with the model's dimension."""
    rho = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    if rho.n_sites != spec.model.n_sites:
        raise ValueError("state dimension does not match model")
    return rho


def efficiency_dephasing(spec: DephasingSpec) -> EfficiencyResult:
    """eta = 2 kappa int p_trap dt under dephasing on all sites.

    This is the measurement channel at Poisson-timed events of rate 2 gamma,
    so eta is the renewal series w . (I - T)^-1 p(0) of periodic measurement
    with interval weight exp(-2 gamma s) on [0, inf) (transfer); at gamma = 0
    it is efficiency_no_measurement.  A mode that never decays (a dark state,
    or sites cut off from every loss channel) raises ValueError.
    tau = 1/(2 gamma) is reported: the mean interval between the channel
    events.  Periodic measurement with the same Zeno hop rate has interval
    2/(2 gamma), since E[s^2] = 2 E[s]^2 for exponential intervals.
    """
    model = spec.model
    if spec.gamma > 0 and spec.dephased_sites != frozenset(range(1, model.n_sites + 1)):
        raise ValueError("transport efficiency is defined for dephasing on all sites")
    return _poisson_efficiency(model, 2.0 * spec.gamma, "master")


def _pure_initial(rho0) -> np.ndarray:
    rm = (rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)).matrix
    ev, vec = np.linalg.eigh(rm)
    if ev[-1] < np.trace(rm).real - 1e-10:
        raise ValueError("quantum-jump unraveling needs a pure initial state")
    return vec[:, -1] * math.sqrt(max(ev[-1], 0.0))


_BLOCK = 64  # jumps per trajectory drawn at a time
_PAIRS = 1 << 14  # (trajectory, output time) pairs read at a time
_ROWS = 1024  # trajectories stepped at a time


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
    At gamma = 0 both modes return integrate_master's states.

    poisson mode runs from a pre-drawn schedule of jumps.  The channel's total
    rate is 2 gamma in every state, so the jump times do not depend on the
    state.  Up to _ROWS trajectories run at a time, in blocks of up to _BLOCK
    jumps per trajectory.  Each block is drawn first: the jump times and the
    uniforms that pick the sites.  Then all trajectories step over jump index,
    one row each of eigenbasis amplitudes, and keep their state after each
    jump.  Last, every output time of the block is read off the last jump at
    or before it, in one pass over that history, and summed on an (output
    time, trajectory) grid of up to _PAIRS cells, or one trajectory's outputs
    where that is more.  Memory is O(_ROWS (_BLOCK + 1) n + n_times n^2)
    whatever n_traj is.  The random numbers do not depend on this layout.
    Trajectory k draws from its own generator, default_rng(SeedSequence(seed).spawn(n_traj)[k]),
    a pair of Generator.random() doubles (x1, x2) per jump, _BLOCK pairs in one
    call: the waiting time from the jump before is -log1p(-x1) / (2 gamma),
    the inverse CDF of the exponential, added up in sequence from 0, and x2
    is the uniform that picks the site.  So each trajectory, and the ensemble
    average up to summation order, is the same as when the trajectories run
    one at a time.  A seed reproduces its ensemble bit for bit on one machine
    and to roundoff across machines, since numpy may compute log1p in SIMD
    code.  seed must be an integer >= 0 in every mode.
    """
    if not (_is_integer(n_traj) and n_traj >= 1):
        raise ValueError(f"n_traj must be an integer >= 1, got {n_traj!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if mode not in ("poisson", "periodic"):
        raise ValueError(f"unknown mode {mode!r}")
    times = _time_grid(times)
    rho0 = _initial_state(spec, rho0)
    if spec.gamma > 0 and mode == "poisson":
        sums = _poisson_sums(spec, rho0, times, n_traj, seed)
        mean_rho = sums.rho / n_traj
        stack = density_stack((mean_rho + mean_rho.conj().swapaxes(1, 2)) / 2)
        mean_p = sums.p / n_traj
        var = np.maximum(sums.d2 / n_traj - (sums.d / n_traj) ** 2, 0.0)
        se = np.sqrt(var / max(n_traj - 1, 1))
    else:
        if spec.gamma == 0:
            stack = _master_stack(spec, rho0, times)
        else:
            channel = MeasurementChannel(spec.dephased_sites, 1.0 / (2.0 * spec.gamma))
            stack = _measured_stack(spec.model._h_eff, channel, rho0, times)
        mean_p = populations(stack)
        se = np.zeros_like(mean_p)
    return EnsembleResult(
        n_traj=n_traj,
        seed=seed,
        times=times,
        mean_states=tuple(_density_matrices(stack)),
        mean_populations=mean_p,
        se_populations=se,
        mode=mode,
    )


def _poisson_sums(spec: DephasingSpec, rho0, times, n_traj: int, seed: int) -> _OutputSums:
    """The poisson unraveling's sums over trajectories at each output time, in
    the eigenbasis of H_eff, _ROWS trajectories and _BLOCK jumps per trajectory
    at a time.  Each block draws every unfinished trajectory's next _BLOCK
    jumps with one generator call (_draw_block); a trajectory goes on to the
    next block while all of its jumps fall at or before the last output time."""
    n = spec.model.n_sites
    w, v, vinv, _ = eig_system(spec.model._h_eff)
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
    sums = _OutputSums(n_times, n)
    # outputs are read for this many rows at a time, so at most _PAIRS
    # (row, time) pairs, or one row's n_times where that is more
    rows_per_read = max(1, _PAIRS // max(n_times, 1))
    streams = np.random.SeedSequence(seed)
    for first in range(0, n_traj if n_times else 0, _ROWS):
        # consecutive spawns continue one another, so these are spawn(n_traj)[first:first + _ROWS]
        gens = [np.random.default_rng(s) for s in streams.spawn(min(_ROWS, n_traj - first))]
        # row r of the arrays below is the unfinished trajectory that draws from gens[r]
        phi = np.tile(vinv @ psi0, (len(gens), 1))  # eigenbasis amplitudes just after the last jump
        t_last = np.zeros(len(gens))  # time of the last jump
        t_out = np.zeros(len(gens), dtype=np.intp)  # index of the next output time
        while gens:
            n_rows = len(gens)
            t_jump, u = _draw_block(gens, t_last, wait)
            count = (t_jump <= times[-1]).sum(axis=1)
            # a row whose jumps all fall at or before the last output goes on to the
            # next block; with the rows sorted by jump count, the rows that make
            # jump j are a prefix, and the rows that go on come first
            order = np.argsort(-count, kind="stable")
            gens = [gens[k] for k in order]
            phi, t_last, t_out, t_jump, u, count = (a[order] for a in (phi, t_last, t_out, t_jump, u, count))
            more = count == _BLOCK
            # step: hist[r, j] is row r's state from time t_hist[r, j] on, the
            # block's start for j = 0 and its jump j - 1 of this block after that
            groups = count[0] + 1
            hist = np.empty((n_rows, groups, n), dtype=complex)
            hist[:, 0] = phi
            t_hist = np.column_stack((t_last, t_jump[:, : count[0]]))
            for j, m in enumerate(np.searchsorted(-count, -np.arange(count[0])).tolist()):
                psi = (hist[:m, j] * np.exp(np.multiply.outer(t_hist[:m, j + 1] - t_hist[:m, j], -1j * w))) @ vt
                q = np.abs(psi) ** 2
                norm2 = q.sum(axis=1)
                # the first dephased site whose cumulative probability exceeds u * norm2
                # clicks; the cumulative sums rise, so the sites below it are the misses
                misses = (np.cumsum(q[:, d_idx], axis=1) <= (norm2 * u[:m, j])[:, None]).sum(axis=1)
                keep = kept[misses]
                rem = np.maximum((q * keep).sum(axis=1), 1e-300)
                hist[:m, j + 1] = (psi * (keep * np.sqrt(norm2 / rem)[:, None])) @ vinvt
            # read: group j of row r is the outputs bounds[r, j] to bounds[r, j + 1],
            # which it reads off hist[r, j] (searchsorted side="left" of the jump
            # times); a row that goes on reads those after its last jump here in
            # the next block
            before = np.searchsorted(times, t_jump)  # outputs strictly before each jump
            bounds = np.column_stack((t_out, before, np.where(more, before[:, -1], n_times)))
            starts = bounds[:, :groups].ravel()
            sizes = np.diff(bounds, axis=1)[:, :groups].ravel()
            cells, t_cells = hist.reshape(-1, n), t_hist.ravel()
            for lo in range(0, n_rows * groups, rows_per_read * groups):
                c = sizes[lo : lo + rows_per_read * groups]
                k = np.repeat(np.arange(c.size), c)  # row * groups + group of each pair, from the read's first row
                if k.size:
                    cell = lo + k
                    ip = np.arange(k.size) + np.repeat(starts[lo : lo + c.size] - (np.cumsum(c) - c), c)
                    psi = (cells[cell] * np.exp(np.multiply.outer(times[ip] - t_cells[cell], -1j * w))) @ vt
                    sums.add(ip, k // groups, psi)
            n_rows = np.count_nonzero(more)
            gens = gens[:n_rows]
            # the rows that go on made all _BLOCK jumps, so their last state is in the last group
            phi = hist[:n_rows, -1]
            t_last, t_out = t_jump[:n_rows, -1], before[:n_rows, -1]
    return sums


def _draw_block(gens, t_last, wait) -> tuple:
    """The next _BLOCK jumps of each trajectory, row r drawn from gens[r] with
    one call and counted on from its last jump at t_last[r].  Jump k takes the
    pair of doubles 2k, 2k + 1 of the block: the waiting time from the jump
    before, -log1p(-x) * wait by the inverse CDF of the exponential of mean
    wait, then the uniform that picks the site.  Returns (t_jump, u), each
    (len(gens), _BLOCK); the times add up in sequence, as one at a time."""
    x = np.empty((len(gens), 2 * _BLOCK))
    for r, g in enumerate(gens):
        g.random(out=x[r])
    t_jump = np.cumsum(np.column_stack((t_last, -np.log1p(-x[:, 0::2]) * wait)), axis=1)[:, 1:]
    return t_jump, x[:, 1::2]


class _OutputSums:
    """Sums over trajectories of the states and populations at each output time.

    The population variance accumulates deviations from the first sample at
    each time, so that it is exactly 0 where every trajectory holds the same
    state.
    """

    def __init__(self, n_times: int, n: int):
        self.rho = np.zeros((n_times, n, n), dtype=complex)
        self.p = np.zeros((n_times, n))
        self.shift = np.full((n_times, n), np.nan)
        self.d = np.zeros((n_times, n))
        self.d2 = np.zeros((n_times, n))

    def add(self, idx, row, psi) -> None:
        """Add the state rows psi, psi[k] trajectory row[k]'s state at output
        index idx[k], each (trajectory, output) pair at most once.  The states
        are laid out on an (output, trajectory) grid over the outputs idx
        spans, zero where a trajectory has no state, so that each sum over
        trajectories is one array operation, for the states one batched
        product."""
        lo, n_rows, n = idx.min(), row.max() + 1, psi.shape[1]
        span = slice(lo, idx.max() + 1)
        cell = (idx - lo) * n_rows + row
        grid = np.zeros((span.stop - lo, n_rows, n), dtype=complex)
        grid.reshape(-1, n)[cell] = psi
        held = np.zeros(grid.shape[:2], dtype=bool)
        held.reshape(-1)[cell] = True
        p = np.abs(grid) ** 2
        first = np.isnan(self.shift[span, 0]) & held.any(axis=1)
        self.shift[span][first] = p[first, held[first].argmax(axis=1)]
        d = np.where(held[:, :, None], p - self.shift[span, None], 0.0)
        self.p[span] += p.sum(axis=1)
        self.d[span] += d.sum(axis=1)
        self.d2[span] += (d * d).sum(axis=1)
        self.rho[span] += grid.transpose(0, 2, 1) @ grid.conj()


def ensemble_to_csv(result: EnsembleResult, path) -> None:
    """Trajectory CSV schema plus se_p_i columns."""
    n = result.mean_populations.shape[1]
    header = (
        "t,"
        + ",".join(f"p_{i}" for i in range(1, n + 1))
        + ",trace,"
        + ",".join(f"se_p_{i}" for i in range(1, n + 1))
    )
    p = result.mean_populations
    _write_csv(path, header, np.column_stack((result.times, p, p.sum(axis=1), result.se_populations)))
