"""Non-selective projective measurement channels and repeated-measurement dynamics.

Covers the exact channel (full or partial site sets), the per-interval
transition matrix T_ij = |<i|U(tau)|j>|^2, the small-tau recursion and its
binomial closed form, and Zeno/anti-Zeno crossover detection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DensityMatrix,
    _conjugate,
    _density_matrices,
    _propagators,
    _time_grid,
    _write_csv,
    density_stack,
    perturbative_average,
    populations,
    propagator,
    pure_site_state,
    time_averaged_population,
)
from .errors import OutOfRegimeError
from .model import LatticeModel


@dataclass(frozen=True)
class MeasurementChannel:
    """Repeated non-selective measurement of a site set with interval tau."""

    measured_sites: frozenset
    interval: float

    def __post_init__(self):
        s = frozenset(int(i) for i in self.measured_sites)
        if not s:
            raise ValueError("measured site set must be nonempty")
        if any(i < 1 for i in s):
            raise ValueError("site indices are 1-based")
        if not (np.isfinite(self.interval) and self.interval > 0):
            raise ValueError("measurement interval must be positive and finite")
        object.__setattr__(self, "measured_sites", s)


@dataclass(frozen=True)
class TransitionMatrix:
    """Per-interval hopping probabilities T_ij = |<i|U(tau)|j>|^2."""

    matrix: np.ndarray
    interval: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ValueError("transition matrix has non-finite entries")
        if np.any(m < -1e-12) or np.any(m > 1 + 1e-10):
            raise ValueError("transition probabilities outside [0, 1]")
        if np.any(m.sum(axis=0) > 1 + 1e-10):
            raise ValueError("column sums exceed 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class MeasuredTrajectory:
    """Populations (and optionally full states) sampled at t_k = k tau."""

    times: np.ndarray
    populations: np.ndarray  # (n_steps + 1, n_sites)
    states: tuple | None = None  # DensityMatrix per step when coherences survive

    @property
    def traces(self) -> np.ndarray:
        if self.states is not None:
            return np.array([s.trace for s in self.states])
        return self.populations.sum(axis=1)


def channel_masks(n: int, sites) -> tuple[np.ndarray, np.ndarray]:
    """(measured, keep) for a channel on the 1-based site set of an n-site state:
    measured[i] marks site i + 1, keep[a, b] whether rho_ab survives."""
    measured = np.zeros(n, dtype=bool)
    for i in sites:
        if i > n:
            raise ValueError(f"measured site {i} out of range for {n} sites")
        measured[i - 1] = True
    keep = np.outer(~measured, ~measured)
    np.fill_diagonal(keep, True)
    return measured, keep


def apply_channel(channel: MeasurementChannel, rho) -> DensityMatrix:
    """rho -> sum_{i in S} P_i rho P_i + Q rho Q (trace preserved exactly).

    Coherences among unmeasured sites survive; everything touching a measured
    site collapses to its diagonal.
    """
    rm = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    _, keep = channel_masks(rm.shape[0], channel.measured_sites)
    return DensityMatrix(np.where(keep, rm, 0.0))


def measured_states(h_eff, channel: MeasurementChannel, rho0, times) -> list:
    """States at the sorted times under free evolution with the channel applied
    at every multiple of channel.interval (a time on a multiple is taken just
    after that measurement).  U(tau) and the remainders off that grid take one
    stack of propagators, the remainders one batched conjugation.  The states
    fill one stack that is checked once; the returned objects are views of it."""
    return _density_matrices(_measured_stack(h_eff, channel, rho0, times))


def _measured_stack(h_eff, channel: MeasurementChannel, rho0, times) -> np.ndarray:
    """measured_states as one checked (len(times), n, n) stack.  Each step is
    evolve's and apply_channel's arithmetic on plain arrays, unchecked."""
    times = _time_grid(times)
    tau = channel.interval
    rho = (rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)).matrix
    k_target = _intervals(times, tau)
    rem = times - k_target * tau
    off = np.flatnonzero(rem > 1e-15)
    u = _propagators(h_eff, np.append(tau, rem[off]))  # U(tau), then the off-grid remainders'
    if u.shape[1:] != rho.shape:
        raise ValueError(f"dimension mismatch: U {u.shape[1:]} vs rho {rho.shape}")
    _, keep = channel_masks(rho.shape[0], channel.measured_sites)
    # the channel steps run once up to the last output; each output then reads
    # the state just after its last measurement
    ks, k_index = np.unique(k_target, return_inverse=True)
    after = np.empty((ks.size,) + rho.shape, dtype=complex)
    k_done = 0
    for i, k in enumerate(ks.tolist()):
        while k_done < k:
            rho = np.where(keep, _conjugate(u[0], rho), 0.0)
            k_done += 1
        after[i] = rho
    out = after[k_index]
    out[off] = _conjugate(u[1:], out[off])
    return density_stack(out)


def _intervals(t, tau: float):
    """The number of whole intervals tau in each time t: fl(k tau) / tau can
    fall an ulp below k, and from k = 2^13 on that ulp exceeds an absolute
    1e-12 slack, so the slack is relative."""
    return np.floor(np.asarray(t) / tau * (1 + 1e-12)).astype(np.intp)


def transition_matrix(h_eff, tau: float) -> TransitionMatrix:
    """Site-to-site transfer probabilities over one measurement interval."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    u = propagator(h_eff, tau)
    return TransitionMatrix(np.abs(u.matrix) ** 2, tau)


def repeated_measurement_trajectory(
    model: LatticeModel, channel: MeasurementChannel, n_steps: int
) -> MeasuredTrajectory:
    """Alternate free evolution and the measurement channel for n_steps intervals.

    When every site is measured the state stays diagonal, so the trajectory is
    the exact matrix iteration p(t_k) = T^k p(0); otherwise the full density
    matrix is propagated.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    n = model.n_sites
    tau = channel.interval
    times = np.arange(n_steps + 1) * tau
    if channel.measured_sites == frozenset(range(1, n + 1)):
        traj = np.array(list(itertools.islice(_site_populations(model, tau), n_steps + 1)))
        return MeasuredTrajectory(times=times, populations=traj)
    stack = _measured_stack(model._h_eff, channel, pure_site_state(n, model.initial_site), times)
    return MeasuredTrajectory(times=times, populations=populations(stack), states=tuple(_density_matrices(stack)))


def _site_populations(model: LatticeModel, tau: float):
    """p(k tau) = T^k p(0) for k = 0, 1, 2, ... under measurement of every
    site every tau, starting on the initial site: the state stays diagonal,
    so each interval is one product with T."""
    t = transition_matrix(model._h_eff, tau).matrix
    p = np.zeros(model.n_sites)
    p[model.initial_site - 1] = 1.0
    while True:
        yield p
        p = t @ p


def recursive_step(p, tau: float, v: float) -> np.ndarray:
    """One step of the small-tau hopping recursion on a chain:
    p_i <- (1 - 2 tau^2 v^2) p_i + tau^2 v^2 (p_{i-1} + p_{i+1}),
    with boundary sites losing only tau^2 v^2 per existing neighbor so the
    step conserves probability."""
    p = np.asarray(p, dtype=float)
    w = (tau * v) ** 2
    if tau * v >= 1 / math.sqrt(2):
        raise OutOfRegimeError(f"tau*v = {tau * v:.3g} >= 1/sqrt(2); recursion weights go negative")
    n = p.shape[0]
    deg = np.full(n, 2.0)
    deg[0] = deg[-1] = 1.0
    left = np.concatenate(([0.0], p[:-1]))
    right = np.concatenate((p[1:], [0.0]))
    return (1 - deg * w) * p + w * (left + right)


def binomial_population(L: int, n: int, tau: float, v: float) -> float:
    """Closed-form terminal-site population after n measurement intervals on a
    chain of L hops: C(n, n-L) (1 - 2 tau^2 v^2)^(n-L) (tau^2 v^2)^L.

    This is the closed form of the single-hop recursion (recursive_step): each
    interval either hops one site forward, with weight w = tau^2 v^2, or stays.
    It approximates exact propagation only where both neglected terms are
    small.  An interval of exact dynamics can carry k hops, with weight
    w^k / (k!)^2, of the same total order w^L; their leading relative share is
    L(L-1) / (4(n-L+1)), so near n = L the exact population is larger by a
    tau-independent factor ([x^L] I_0(2 sqrt(x))^n / C(n, L), 2.58 at
    n = L = 3).  Back hops and reflections enter at relative order n tau^2 v^2.
    The regime is therefore L(L-1) / (4(n-L+1)) << 1 and n tau^2 v^2 << 1.
    """
    if n < L:
        raise OutOfRegimeError(f"n = {n} < L = {L}")
    w = (tau * v) ** 2
    if n * w >= 1:
        raise OutOfRegimeError(f"n tau^2 v^2 = {n * w:.3g} >= 1; outside validity regime")
    if n > 50:
        log_c = math.lgamma(n + 1) - math.lgamma(L + 1) - math.lgamma(n - L + 1)
        return math.exp(log_c + (n - L) * math.log1p(-2 * w) + L * math.log(w))
    return float(math.comb(n, n - L) * (1 - 2 * w) ** (n - L) * w**L)


def crossover_time(model: LatticeModel, tau: float, horizon: float) -> dict:
    """First t_n = n tau at which the measured terminal population exceeds the
    no-measurement time average (Zeno -> anti-Zeno crossover).

    Returns a dict with t_c, n_c, p_bar (exact time average over
    T = max(100, 2000 / largest energy gap), or 200 for a resonant model) and,
    for chains, the leading-order p_bar alongside.  t_c is None when no
    crossover occurs within the horizon.
    """
    if not (math.isfinite(horizon) and horizon >= tau):
        raise ValueError("horizon must be finite and at least one interval")
    if np.any(model.trap_rates > 0) or model.decay_rate > 0:
        raise ValueError("crossover analysis requires kappa = Gamma = 0")
    n = model.n_sites
    e = model.site_energies
    gaps = np.abs(e[:, None] - e[None, :])
    max_gap = float(gaps.max())
    # well past 1/eps for any disordered model; generous for near-resonant ones
    t_avg = 200.0 if max_gap == 0 else max(100.0, 2000.0 / max_gap)
    p_bar = time_averaged_population(model, n, t_avg)
    try:
        p_bar_leading = perturbative_average(model)
    except ValueError:
        p_bar_leading = None
    steps = itertools.islice(_site_populations(model, tau), 1, int(_intervals(horizon, tau)) + 1)
    for k, p in enumerate(steps, start=1):
        if p[-1] > p_bar:
            return {"t_c": k * tau, "n_c": k, "p_bar": p_bar, "p_bar_leading": p_bar_leading}
    return {"t_c": None, "n_c": None, "p_bar": p_bar, "p_bar_leading": p_bar_leading}


def trajectory_to_csv(traj: MeasuredTrajectory, path) -> None:
    """Write a trajectory as CSV with header t,p_1,...,p_n,trace."""
    n = traj.populations.shape[1]
    header = "t," + ",".join(f"p_{i}" for i in range(1, n + 1)) + ",trace"
    _write_csv(path, header, np.column_stack((traj.times, traj.populations, traj.traces)))
