"""Non-selective projective measurement channels and repeated-measurement dynamics.

Covers the exact channel (full or partial site sets), the per-interval
transition matrix T_ij = |<i|U(tau)|j>|^2, the small-tau recursion and its
binomial closed form, and Zeno/anti-Zeno crossover detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DensityMatrix,
    _conjugate,
    _density_matrices,
    _from_real,
    _positive_finite,
    _powers,
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
from .model import LatticeModel, _is_integer

_WINDOW = 4096  # crossover_time's rows per window of powers, 32 kB per site
_STEP_CHUNK = 2**14  # _step_matrix's complex entries per piece of its outer product, 256 kB


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
        _positive_finite(self.interval, "measurement interval")
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
        return self.populations.sum(axis=1)


def channel_masks(n: int, sites) -> tuple[np.ndarray, np.ndarray]:
    """(measured, keep) for a channel on the 1-based site set of an n-site state:
    measured[i] marks site i + 1, keep[a, b] whether rho_ab survives."""
    measured = np.zeros(n, dtype=bool)
    for i in sites:
        if not 1 <= i <= n:
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
    after that measurement).  The state just after each needed measurement
    comes from _measured_stack: powers of one real step matrix on the
    subspace the channel leaves, or on large models with few intervals one
    step per interval.  U(tau) and the remainders off that grid take one
    stack of propagators, the remainders one batched conjugation.  The states
    fill one stack that is checked once; the returned objects are views of it."""
    return _density_matrices(_measured_stack(h_eff, channel, rho0, times))


def _measured_stack(h_eff, channel: MeasurementChannel, rho0, times) -> np.ndarray:
    """measured_states as one checked (len(times), n, n) stack.

    Each output reads the state just after its last measurement, k intervals
    in, from the stack of _after_by_powers or _after_by_steps (_by_powers picks
    one from d, n and the largest k alone), which is the output stack itself
    where every output has its own k.  The outputs off the measurement grid
    then take their remainder propagators in one batched conjugation."""
    times = _time_grid(times)
    tau = channel.interval
    rho = (rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)).matrix
    k_target = _intervals(times, tau)
    rem = times - k_target * tau
    off = np.flatnonzero(rem > 1e-15)
    u = _propagators(h_eff, np.append(tau, rem[off]))  # U(tau), then the off-grid remainders'
    if u.shape[1:] != rho.shape:
        raise ValueError(f"dimension mismatch: U {u.shape[1:]} vs rho {rho.shape}")
    n = rho.shape[0]
    measured, keep = channel_masks(n, channel.measured_sites)
    ks, k_index = np.unique(k_target, return_inverse=True)
    by_powers = _by_powers(int(keep.sum()), n, int(ks.max(initial=0)))
    after = _after_by_powers(u[0], measured, keep, rho, ks) if by_powers else _after_by_steps(u[0], keep, rho, ks)
    out = after if ks.size == times.size else after[k_index]  # distinct interval counts: after is the stack
    out[off] = _conjugate(u[1:], out[off])
    return density_stack(out)


def _by_powers(d: int, n: int, k: int) -> bool:
    """Whether k intervals of an n-site model, under a channel that leaves a
    d-dimensional subspace, are cheaper by powers of the d x d step matrix
    (_after_by_powers) than by one conjugation per interval (_after_by_steps).

    The costs, in ns, were timed on a 2-CPU x86-64 container (numpy 2.4.6,
    OpenBLAS).  An interval of _after_by_steps is about 8 us of numpy
    dispatch plus two complex n x n products at 0.75 n^3 ns.  _after_by_powers
    pays about 100 us of fixed work and 10 ns per entry of the step matrix
    that _step_matrix builds (about 9 ns at d = 148-272, 3.5 ns at d = 962, up
    to 14 ns near d = 100), then numpy products at about 80 GFlop/s: ceil(log2 k) squarings
    of d^3 / 40 ns each and at most k rows of d^2 / 40 ns each, then 15 ns for each of the k n^2
    output entries (7-12 ns, 18-30 ns once the arrays pass about 30 MB and each call faults
    in new pages).  At the switch point the powers take 0.95-1.36 times the steps'
    time at n = 14-24 (d = 170-530), 1.5-1.9 times without that last term."""
    steps = k * (8e3 + 0.75 * n**3)
    powers = 1e5 + 10 * d**2 + (math.ceil(math.log2(max(k, 1))) * d**3 + k * d**2) / 40 + 15 * k * n**2
    return powers <= steps


def _after_by_steps(u: np.ndarray, keep: np.ndarray, rho: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """The states just after the ks-th measurements, ks sorted and distinct, as
    a complex (len(ks), n, n) stack: one conjugation by U(tau) and one mask
    per interval, evolve's and apply_channel's arithmetic on plain arrays."""
    after = np.empty((ks.size,) + rho.shape, dtype=complex)
    k_done = 0
    for i, k in enumerate(ks.tolist()):
        while k_done < k:
            rho = np.where(keep, _conjugate(u, rho), 0.0)
            k_done += 1
        after[i] = rho
    return after


def _after_by_powers(u: np.ndarray, measured: np.ndarray, keep: np.ndarray, rho: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """_after_by_steps from powers of one real step matrix, for the channel_masks pair (measured, keep).

    After a measurement the state lies in S_D, spanned by the d entries
    (a, b) that keep marks, and in the coordinates y = Re rho + Im rho of those
    entries one interval is a real d x d matrix M: with vec(U rho U^dag) =
    (U (x) conj U) vec(rho) and rho = (y + y^T)/2 + i (y - y^T)/2 (the
    coordinates of open_system._master_stack),
    M[(a, b), (c, e)] = Re(U_ac conj U_be) + Im(U_ae conj U_bc).
    M comes from _step_matrix, in its block order.  The first interval maps rho
    into S_D (one conjugation and the mask); the state after k >= 1 intervals
    is M^(k-1) of that, from dynamics._powers.
    Squaring reuses each rounding of M: an eigenvalue of M that should be 1
    (a kept trace, or a dark state's) is off by about u, so the states are off
    by about k u, as a scaling of the components that persist.  At k = 10^6
    the trace rose by 1.7e-10 on a lossless 3-site chain and by 1.2e-10 on a
    lossy one from a dark state, where one step per interval stays within
    1e-12 and 4e-15.  The channel never raises the trace, so a state whose
    trace exceeds rho's is scaled down to it.  _from_real writes the states into the stack."""
    n = rho.shape[0]
    a, b = keep.nonzero()
    order = measured[a].argsort(kind="stable")  # a kept entry on a measured site is its diagonal
    a, b = a[order], b[order]
    first = _conjugate(u, rho)[a, b]
    later = np.count_nonzero(ks == 0)  # k = 0 is rho itself, which need not lie in S_D
    step = _step_matrix(u, (~measured).nonzero()[0], measured.nonzero()[0])
    rows = _powers(step, first.real + first.imag, ks[later:] - 1)
    limit, trace = np.trace(rho).real, rows[:, a == b].sum(axis=1)
    rows *= np.divide(limit, trace, out=np.ones_like(trace), where=trace > limit)[:, None]
    y = np.zeros((ks.size - later, n, n))
    y[:, a, b] = rows
    del rows  # before the stack is allocated, so that y and the stack are the peak
    after = np.empty((ks.size, n, n), dtype=complex)
    after[:later] = rho
    _from_real(y, after[later:])
    return after


def _step_matrix(u: np.ndarray, f: np.ndarray, m: np.ndarray) -> np.ndarray:
    """_after_by_powers' real step matrix M[(a, b), (c, e)] = Re(U_ac conj U_be) + Im(U_ae conj U_bc)
    for the sorted unmeasured sites f and measured sites m, over the pairs (a, b) of f, row-major,
    then the diagonals (c, c) of m.

    With V the gather of U on the sites f then m, each block of M is a broadcast product of
    blocks of V and of its conjugate.  On the block f x f, with the outer product Z[a,b,c,e] =
    U_ac conj U_be, M is Re Z plus Im Z with its last two axes swapped; Z is formed a few rows a
    at a time, at most _STEP_CHUNK entries, which stay in cache.  Both terms of a column (c, c)
    are Z[a,b,c] = U_ac conj U_bc, so the block f x m is Re Z + Im Z; the block m x f is Re Z
    plus Im Z with its last two axes swapped for Z[c,a,e] = U_ca conj U_ce, and the block m x m
    is Re(U_ce conj U_ce).  A build takes 15 us at d = 5 and 3-14 ns an entry from d = 50 on."""
    k, kk, fm = f.size, f.size**2, np.concatenate((f, m))
    v = u.take(fm, 0).take(fm, 1)
    vc = v.conj()
    step = np.empty((kk + m.size,) * 2)
    rows, block = max(1, _STEP_CHUNK // max(k, 1) ** 3), step[:kk, :kk]
    for i in range(0, k, rows):
        z = v[i : min(i + rows, k), None, :k, None] * vc[None, :k, None, :k]
        block[i * k : (i + rows) * k] = (z.real + z.imag.swapaxes(2, 3)).reshape(-1, kk)
    z = v[:k, None, k:] * vc[None, :k, k:]
    step[:kk, kk:] = (z.real + z.imag).reshape(kk, m.size)
    z = v[k:, :k, None] * vc[k:, None, :k]
    step[kk:, :kk] = (z.real + z.imag.swapaxes(1, 2)).reshape(m.size, kk)
    step[kk:, kk:] = (v[k:, k:] * vc[k:, k:]).real
    return step


def _intervals(t, tau: float):
    """The number of whole intervals tau in each time t.  A time t = fl(k tau)
    divided by tau is k (1 + e1)(1 + e2) with |e1|, |e2| <= u = 2^-53, so it
    can fall up to about 2u relative below k; scaling by 1 + 4u = 1 + 2^-51,
    the first float past 1 + 2u, lifts it back to k (rounding to the float k
    keeps it there), while a time 4u k or more below k tau still counts
    k - 1.  From t / tau = 2^53 on the count is no longer exact (and soon
    overflows an integer), so it raises."""
    x = np.asarray(t) / tau
    if np.any(x >= 2.0**53):
        raise ValueError(f"t / tau = {float(np.max(x)):.3g} reaches 2^53: the interval count is not exact")
    return np.floor(x * (1 + 2.0**-51)).astype(np.intp)


def transition_matrix(h_eff, tau: float) -> TransitionMatrix:
    """Site-to-site transfer probabilities over one measurement interval."""
    u = propagator(h_eff, _positive_finite(tau))
    return TransitionMatrix(np.abs(u.matrix) ** 2, tau)


def repeated_measurement_trajectory(
    model: LatticeModel, channel: MeasurementChannel, n_steps: int
) -> MeasuredTrajectory:
    """Alternate free evolution and the measurement channel for n_steps intervals.

    When every site is measured the state stays diagonal, so the trajectory is
    the matrix iteration p(t_k) = T^k p(0), reached through dynamics._powers
    and states is None; otherwise the full density matrix is propagated.
    """
    if not (_is_integer(n_steps) and n_steps >= 0):
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    n = model.n_sites
    tau = channel.interval
    times = np.arange(n_steps + 1) * tau
    if channel.measured_sites == frozenset(range(1, n + 1)):
        t, p0 = transition_matrix(model._h_eff, tau).matrix, np.eye(n)[model.initial_site - 1]
        return MeasuredTrajectory(times=times, populations=_powers(t, p0, np.arange(n_steps + 1)))
    stack = _measured_stack(model._h_eff, channel, pure_site_state(n, model.initial_site), times)
    return MeasuredTrajectory(times=times, populations=populations(stack), states=tuple(_density_matrices(stack)))


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
    if not 0 < n * w < 1:  # at 0 the log-domain form has no log(w)
        raise OutOfRegimeError(f"n tau^2 v^2 = {n * w:.3g} is not in (0, 1); outside validity regime")
    log_c = math.lgamma(n + 1) - math.lgamma(L + 1) - math.lgamma(n - L + 1)
    return math.exp(log_c + (n - L) * math.log1p(-2 * w) + L * math.log(w))


def crossover_time(model: LatticeModel, tau: float, horizon: float) -> dict:
    """First t_n = n tau at which the measured terminal population exceeds the
    no-measurement time average (Zeno -> anti-Zeno crossover).

    Returns a dict with t_c, n_c, p_bar (exact time average over
    T = max(100, 2000 / largest energy gap), or 200 for a resonant model) and,
    for chains, the leading-order p_bar alongside.  t_c is None when no
    crossover occurs within the horizon.  p(t_k) = T^k p(0) comes from
    dynamics._powers in windows of _WINDOW rows, each starting from the last
    row of the one before, up to the first window that crosses.  Lossless, T
    is symmetric and doubly stochastic, so T^k p(0) tends to the uniform 1/n
    at the rate mu of _mixing_rate.  After windows 1, 2, 4, 8, ... that do
    not cross, the scan ends with t_c None once _never_above shows that no
    later row, roundoff included, can exceed p_bar (where p_bar > 1/n and
    mu < 1 - 1e-12).  A run that crosses computes the same rows as without
    that check.
    """
    if not (math.isfinite(horizon) and horizon >= tau):
        raise ValueError("horizon must be finite and at least one interval")
    if np.any(model.trap_rates > 0) or model.decay_rate > 0:
        raise ValueError("crossover analysis requires kappa = Gamma = 0")
    n = model.n_sites
    max_gap = float(np.ptp(model.site_energies))
    # well past 1/eps for any disordered model; generous for near-resonant ones
    t_avg = 200.0 if max_gap == 0 else max(100.0, 2000.0 / max_gap)
    p_bar = time_averaged_population(model, n, t_avg)
    try:
        p_bar_leading = perturbative_average(model)
    except ValueError:
        p_bar_leading = None
    t, p = transition_matrix(model._h_eff, tau).matrix, np.eye(n)[model.initial_site - 1]
    k_max, mu = int(_intervals(horizon, tau)), None
    for k0 in range(0, k_max, _WINDOW):
        rows = _powers(t, p, np.arange(1, min(_WINDOW, k_max - k0) + 1))  # p(t_k) for k = k0 + 1, ...
        crossed = np.flatnonzero(rows[:, -1] > p_bar)
        if crossed.size:
            k = k0 + int(crossed[0]) + 1
            return {"t_c": k * tau, "n_c": k, "p_bar": p_bar, "p_bar_leading": p_bar_leading}
        p, done, left = rows[-1], k0 // _WINDOW + 1, k_max - k0 - rows.shape[0]
        if left and not done & (done - 1):  # after windows 1, 2, 4, ...: a check costs a quarter window
            mu = _mixing_rate(t) if mu is None else mu
            if mu < 1 - 1e-12 and _never_above(t, p, p_bar, mu, left):
                break
    return {"t_c": None, "n_c": None, "p_bar": p_bar, "p_bar_leading": p_bar_leading}


def _mixing_rate(t: np.ndarray) -> float:
    """mu = ||P T P||_2, P = I - J / n the projection off the uniform vector: for a symmetric
    doubly stochastic T (lossless, kappa = Gamma = 0) its largest |eigenvalue| there, and for any T
    a bound by which T shrinks a vector of zero sum.  Raised by n u for the norm's own roundoff."""
    n = t.shape[0]
    proj = np.eye(n) - 1.0 / n
    return float(np.linalg.norm(proj @ t @ proj, 2)) + n * 2.0**-53


def _never_above(t: np.ndarray, p: np.ndarray, p_bar: float, mu: float, left: int) -> bool:
    """Whether none of the next `left` rows T^j p that crossover_time computes can exceed p_bar
    at the last site, for the nonnegative T and p and mu = _mixing_rate(t) < 1.

    Exactly, let m_j be the mean of y_j = T^j p and x_j = y_j - m_j.  The column sums 1 + c of T
    give m_j <= m_0 (1 + ||c||_inf)^j <= M, and the row sums 1 + r give ||x_(j+1)||_2 <=
    mu ||x_j||_2 + M ||r - mean r||_2, so for j >= 1 the last entry is at most
    m_j + ||x_j||_2 <= M + mu ||x_0||_2 + M ||r - mean r||_2 / (1 - mu).  The computed rows
    are products of nonnegative factors, each within a factor 1 + gamma_n, gamma_n =
    n u / (1 - n u), of its exact value, and a row j intervals on takes j such factors
    (dynamics._powers squares and multiplies, never subtracts), so it is at most
    (1 + gamma_n)^j times the exact one.  The bound is taken at j = left, with 16 more
    factors for its own roundoff."""
    n, u = p.size, 2.0**-53
    gamma = n * u / (1 - n * u)
    colsum, rowsum = np.add.reduce(t, 0) - 1.0, np.add.reduce(t, 1) - 1.0
    mean = float(p.mean()) * math.exp(left * math.log1p(float(np.abs(colsum).max())))
    drift = mean * float(np.linalg.norm(rowsum - rowsum.mean())) / (1 - mu)
    bound = (mean + mu * float(np.linalg.norm(p - p.mean())) + drift) * math.exp((left + 16) * math.log1p(gamma))
    return bound < p_bar


def trajectory_to_csv(traj: MeasuredTrajectory, path) -> None:
    """Write a trajectory as CSV with header t,p_1,...,p_n,trace."""
    n = traj.populations.shape[1]
    header = "t," + ",".join(f"p_{i}" for i in range(1, n + 1)) + ",trace"
    _write_csv(path, header, np.column_stack((traj.times, traj.populations, traj.traces)))
