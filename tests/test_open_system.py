import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from antizeno import (
    DephasingSpec,
    DisorderSpec,
    MeasurementChannel,
    build_chain,
    build_graph,
    efficiency_dephasing,
    efficiency_no_measurement,
    efficiency_measured,
    integrate_master,
    quantum_jump_ensemble,
    repeated_measurement_trajectory,
)
from antizeno import dynamics, open_system, transfer
from antizeno.dynamics import DensityMatrix, eig_system, evolve, populations, pure_site_state
from antizeno.measurement import channel_masks
from antizeno.model import LatticeModel, effective_hamiltonian
from antizeno.open_system import _BLOCK, _draw_block, _liouvillian, _pure_initial, ensemble_to_csv
from oracles import _poisson_integrals_schur


def fig3_spec(two_gamma, sites=frozenset({2})):
    m = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    return DephasingSpec(model=m, gamma=two_gamma / 2.0, dephased_sites=sites)


def test_master_reduces_to_unitary_at_gamma_zero(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=0.0, dephased_sites=frozenset())
    rho0 = pure_site_state(2, 1)
    out = integrate_master(spec, rho0, [1.0])[0]
    ref = evolve(scipy.linalg.expm(-1j * effective_hamiltonian(two_site_disordered).matrix), rho0)
    assert np.max(np.abs(out.matrix - ref.matrix)) < 1e-12


def test_master_dephased_coherence_closed_form():
    # v = 0 and site 1 dephased: rho_12' = (-i (eps_1 - eps_2) - 2 gamma) rho_12,
    # so from |+><+| the coherence is exp(-i d_eps t - 2 gamma t) / 2
    m = build_chain(2, [6.0, 0.5], v=0.0, trap_rate=0.0, decay_rate=0.0)
    gamma = 0.2
    spec = DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset({1}))
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    times = np.concatenate(([0.0], np.geomspace(1e-3, 8.0, 40), [8.7, 11.0]))
    outs = integrate_master(spec, rho0, times)
    exact = 0.5 * np.exp(-1j * 5.5 * times - 2 * gamma * times)
    assert np.max(np.abs(np.array([s.matrix[0, 1] for s in outs]) - exact)) < 1e-12
    assert max(np.max(np.abs(np.diag(s.matrix) - 0.5)) for s in outs) < 1e-12


def test_master_trace_at_strong_dephasing_on_the_figure3_grid():
    # the Figure-3 grid (2001 points to t = 20) at 2 gamma = 1751.05
    outs = integrate_master(fig3_spec(1751.05), pure_site_state(3, 2), np.linspace(0.0, 20.0, 2001))
    assert max(abs(s.trace - 1.0) for s in outs) <= 1e-12


def test_master_strong_dephasing_freezes_transfer():
    spec = fig3_spec(1000.0)
    out = integrate_master(spec, pure_site_state(3, 2), [1.0])[0]
    p = populations(out)
    assert p[1] > 0.98  # Zeno freezing of the measured site
    assert abs(out.matrix[0, 1]) < 1e-3 and abs(out.matrix[1, 2]) < 1e-3


def test_master_diagonal_fixed_point():
    m = build_chain(3, [3.0, 1.0, 0.0], v=0.0, trap_rate=0.0, decay_rate=0.0)
    spec = DephasingSpec(model=m, gamma=2.0, dephased_sites=frozenset({1, 2, 3}))
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = integrate_master(spec, rho0, [4.0])[0]
    assert np.max(np.abs(out.matrix - rho0)) < 1e-10


def test_master_conserves_trace_and_positivity():
    spec = fig3_spec(10.0)
    outs = integrate_master(spec, pure_site_state(3, 2), [0.5, 2.0, 10.0])
    for s in outs:
        assert abs(s.trace - 1.0) < 1e-8
        assert np.linalg.eigvalsh(s.matrix)[0] >= -1e-8


def test_master_step_size_validation():
    spec = fig3_spec(10.0)
    with pytest.raises(ValueError):
        integrate_master(spec, pure_site_state(3, 2), [2.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_master(spec, pure_site_state(3, 2), [-1.0, 1.0])


def test_dephasing_spec_validation(two_site_disordered):
    with pytest.raises(ValueError):
        DephasingSpec(model=two_site_disordered, gamma=-1.0, dephased_sites=frozenset({1}))
    with pytest.raises(ValueError):
        DephasingSpec(model=two_site_disordered, gamma=1.0, dephased_sites=frozenset())
    with pytest.raises(ValueError):
        DephasingSpec(model=two_site_disordered, gamma=1.0, dephased_sites=frozenset({7}))


def test_jump_single_trajectory_gamma_zero(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=0.0, dephased_sites=frozenset())
    rho0 = pure_site_state(2, 1)
    times = [0.3, 1.1]
    res = quantum_jump_ensemble(spec, rho0, times, n_traj=1, seed=0)
    h = effective_hamiltonian(two_site_disordered)
    for i, t in enumerate(times):
        ref = evolve(scipy.linalg.expm(-1j * h.matrix * t), rho0)
        assert np.max(np.abs(res.mean_states[i].matrix - ref.matrix)) < 1e-12


def test_jump_periodic_matches_measurement_trajectory():
    tau = 0.1
    times = np.arange(0, 21) * tau
    # partial site set: both modules walk the same evolve/apply_channel path,
    # so the sequences are bit-identical
    spec = fig3_spec(10.0)
    res = quantum_jump_ensemble(spec, pure_site_state(3, 2), times, n_traj=1, seed=0, mode="periodic")
    traj = repeated_measurement_trajectory(spec.model, MeasurementChannel(frozenset({2}), tau), 20)
    assert np.max(np.abs(res.mean_populations - traj.populations)) == 0.0
    # full site set: the measurement module switches to its diagonal fast path
    spec_all = fig3_spec(10.0, sites=frozenset({1, 2, 3}))
    res_all = quantum_jump_ensemble(
        spec_all, pure_site_state(3, 2), times, n_traj=1, seed=0, mode="periodic"
    )
    traj_all = repeated_measurement_trajectory(
        spec_all.model, MeasurementChannel(frozenset({1, 2, 3}), tau), 20
    )
    assert np.max(np.abs(res_all.mean_populations - traj_all.populations)) < 1e-12


def test_jump_poisson_matches_master():
    spec = fig3_spec(10.0)
    times = [1.0, 5.0]
    res = quantum_jump_ensemble(spec, pure_site_state(3, 2), times, n_traj=2000, seed=17)
    ref = integrate_master(spec, pure_site_state(3, 2), times)
    for i in range(len(times)):
        dev = np.abs(res.mean_populations[i] - populations(ref[i]))
        bound = np.maximum(3.0 * res.se_populations[i], 0.02)
        assert np.all(dev <= bound)


def reference_poisson_ensemble(spec, rho0, times, n_traj, seed):
    """The poisson unraveling one trajectory at a time: the stream oracle.

    Trajectory k draws from its own generator, spawned from SeedSequence(seed)
    at index k, one Generator.random() double at a time: the first waiting
    time, then (uniform, waiting time) per jump, each waiting time
    -log1p(-x) / (2 gamma) from its double x.  np.log1p, not math.log1p: numpy
    may compute it in SIMD code, which can differ from libm's in the last bit.
    Returns (mean populations, their standard errors, mean states).  The
    variance is taken in two passes over the kept samples, so it is free of
    the cancellation of E[p^2] - E[p]^2 where every trajectory holds nearly
    the same state.
    """
    times = np.asarray(times, dtype=float)
    n = spec.model.n_sites
    w, v, vinv, _ = eig_system(effective_hamiltonian(spec.model).matrix)
    psi0 = _pure_initial(rho0)
    measured, _ = channel_masks(n, spec.dephased_sites)
    d_idx = np.flatnonzero(measured)
    wait = 1.0 / (2.0 * spec.gamma)
    n_times = times.shape[0]
    sum_rho = np.zeros((n_times, n, n), dtype=complex)
    sum_p = np.zeros((n_times, n))
    samples = np.zeros((n_traj, n_times, n))
    streams = np.random.SeedSequence(seed).spawn(n_traj)
    for k in range(n_traj):
        rng = np.random.default_rng(streams[k])
        phi = vinv @ psi0  # state in eigenbasis
        t_now = 0.0
        ti = 0
        t_jump = -np.log1p(-rng.random()) * wait
        while ti < n_times:
            t_next = min(t_jump, times[ti])
            if t_next > t_now:
                phi = np.exp(-1j * w * (t_next - t_now)) * phi
                t_now = t_next
            if t_jump <= times[ti]:
                psi = v @ phi
                norm2 = float(np.real(psi.conj() @ psi))
                probs = np.abs(psi[d_idx]) ** 2
                u = norm2 * rng.random()
                acc = 0.0
                hit = -1
                for j, pj in zip(d_idx, probs):
                    acc += pj
                    if u < acc:
                        hit = j
                        break
                if hit >= 0:
                    new = np.zeros(n, dtype=complex)
                    new[hit] = psi[hit]
                    scale = math.sqrt(norm2 / max(float(np.abs(psi[hit]) ** 2), 1e-300))
                else:
                    new = psi.copy()
                    new[d_idx] = 0.0
                    rem = float(np.real(new.conj() @ new))
                    scale = math.sqrt(norm2 / max(rem, 1e-300))
                psi = new * scale
                phi = vinv @ psi
                t_jump = t_now + -np.log1p(-rng.random()) * wait
            else:
                psi = v @ phi
                sum_rho[ti] += np.outer(psi, psi.conj())
                p = np.abs(psi) ** 2
                sum_p[ti] += p
                samples[k, ti] = p
                ti += 1
    mean_p = sum_p / n_traj
    var = samples.var(axis=0)
    se = np.sqrt(var / max(n_traj - 1, 1))
    return mean_p, se, sum_rho / n_traj


@pytest.mark.parametrize(
    "case",
    [
        "figure3-site2",
        "lossy-chain-all-sites-repeated-times",
        "chain-n8-120-trajectories",
        "figure3-101-times-between-jumps",
        "lossy-chain-across-schedule-blocks",
        "figure3-1001-times-several-reads-per-block",
        "chain-n4-several-trajectory-chunks",
        "lossy-chain-output-before-the-first-jump-across-blocks",
    ],
)
def test_jump_poisson_equals_the_per_trajectory_oracle(case, monkeypatch):
    # the scheduled ensemble must consume every trajectory's stream exactly as
    # the one-at-a-time loop does, so the two agree to roundoff
    if case == "figure3-site2":
        spec, times, n_traj = fig3_spec(10.0), [1.0, 5.0, 10.0], 300
    elif case == "lossy-chain-all-sites-repeated-times":
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=1.5, dephased_sites=frozenset({1, 2, 3, 4}))
        times, n_traj = [0.0, 0.5, 0.5, 3.0], 200
    elif case == "figure3-101-times-between-jumps":
        # a jump every 2 time units on average, so most outputs are read off
        # the same jump as their neighbours
        spec, times, n_traj = fig3_spec(0.5), np.linspace(0.0, 10.0, 101), 100
    elif case == "lossy-chain-across-schedule-blocks":
        # 3 blocks of jumps per trajectory on average; P(fewer than one block) < 1e-20
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=1.5 * _BLOCK / 4.0, dephased_sites=frozenset({2, 3}))
        times, n_traj = [0.5, 2.0, 2.0, 4.0], 60
    elif case == "figure3-1001-times-several-reads-per-block":
        # _PAIRS // 1001 = 16 rows are read at a time, fewer than the 100 rows
        spec, times, n_traj = fig3_spec(10.0), np.linspace(0.0, 10.0, 1001), 100
    elif case == "chain-n4-several-trajectory-chunks":
        # 7 trajectories are stepped at a time, so 60 run in 9 chunks
        monkeypatch.setattr(open_system, "_ROWS", 7)
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=1.5, dephased_sites=frozenset({1, 3}))
        times, n_traj = [0.0, 0.5, 2.0, 4.0], 60
    elif case == "lossy-chain-output-before-the-first-jump-across-blocks":
        # about 3 blocks of jumps per trajectory, and the first output falls
        # before the first jump with probability exp(-0.04) = 0.96
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=20.0, dephased_sites=frozenset({1, 2, 3, 4}))
        times, n_traj = [0.001, 2.5, 5.0], 40
    else:
        m = build_chain(8, np.linspace(0.0, 7.0, 8) % 3.0, v=1.0, trap_rate=0.5, decay_rate=0.01)
        spec = DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset(range(1, 9)))
        times, n_traj = [1.0, 5.0, 10.0], 120
    rho0 = pure_site_state(spec.model.n_sites, spec.model.initial_site)
    res = quantum_jump_ensemble(spec, rho0, times, n_traj=n_traj, seed=2024)
    mean_p, se, mean_rho = reference_poisson_ensemble(spec, rho0, times, n_traj, 2024)
    assert np.max(np.abs(res.mean_populations - mean_p)) <= 1e-12
    # both variances are free of cancellation, so the SEs agree also at and
    # just after t = 0, where every trajectory holds nearly the same state
    var, ref_var = (n_traj - 1) * res.se_populations**2, (n_traj - 1) * se**2
    assert np.max(np.abs(var - ref_var)) <= 1e-12
    assert np.max(np.abs(res.se_populations - se)) <= 1e-12
    states = np.array([s.matrix for s in res.mean_states])
    assert np.max(np.abs(states - (mean_rho + mean_rho.conj().transpose(0, 2, 1)) / 2)) <= 1e-12


def test_drawn_jumps_follow_pairs_of_generator_doubles():
    # per jump the schedule takes two consecutive Generator.random() doubles:
    # the waiting time -log1p(-x1) * wait from the jump before, then the
    # site-picking uniform x2.  Checked bit for bit against a scalar loop over
    # 4 x 2560 jumps, from streams spawned as the ensemble spawns them and
    # drawn a block at a time as the ensemble draws them
    wait, blocks = 0.25, 40
    streams = np.random.SeedSequence(2024).spawn(4)
    gens = [np.random.default_rng(s) for s in streams]
    t_last, t_jump, u = np.zeros(4), [], []
    for _ in range(blocks):
        t, x = _draw_block(gens, t_last, wait)
        assert t.shape == x.shape == (4, _BLOCK)
        t_jump.append(t)
        u.append(x)
        t_last = t[:, -1]
    t_jump, u = np.hstack(t_jump), np.hstack(u)
    for k, stream in enumerate(streams):
        ref = np.random.default_rng(stream)
        t, want_t, want_u = 0.0, [], []
        for _ in range(blocks * _BLOCK):
            t = t + -np.log1p(-ref.random()) * wait
            want_t.append(t)
            want_u.append(ref.random())
        assert t_jump[k].tolist() == want_t
        assert u[k].tolist() == want_u


def test_drawn_waiting_times_and_uniforms_follow_their_laws():
    # the oracle shares the recipe, so it cannot catch a slip in it (a dropped
    # sign in log1p, the rate in place of the mean, one double used twice):
    # 10^5 waiting times against Exp(rate 2 gamma) and the uniforms against
    # U(0, 1), each by a Kolmogorov-Smirnov test at level 1e-4, and the two
    # draws of a jump uncorrelated to 5 standard errors
    wait = 1.0 / (2.0 * 3.5)
    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(99).spawn(100)]
    t_last, waits, u = np.zeros(100), [], []
    for _ in range(-(-1000 // _BLOCK)):
        t, x = _draw_block(gens, t_last, wait)
        waits.append(np.diff(np.column_stack((t_last, t)), axis=1))
        u.append(x)
        t_last = t[:, -1]
    waits, u = np.hstack(waits)[:, :1000].ravel(), np.hstack(u)[:, :1000].ravel()
    assert waits.size == u.size == 10**5
    assert scipy.stats.kstest(waits, scipy.stats.expon(scale=wait).cdf).pvalue > 1e-4
    assert scipy.stats.kstest(u, "uniform").pvalue > 1e-4
    assert abs(np.corrcoef(waits, u)[0, 1]) < 5.0 / math.sqrt(u.size)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_jump_poisson_ensemble_does_not_depend_on_the_block_size(block, monkeypatch):
    # a trajectory uses its pairs in order however many a block draws, so the
    # ensemble is the same up to summation order; the lossy chain makes about
    # 48 jumps per trajectory to t = 4, across outputs between and at jumps
    m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
    spec = DephasingSpec(model=m, gamma=6.0, dephased_sites=frozenset({1, 2, 4}))
    rho0 = pure_site_state(4, 1)
    times = [0.0, 0.05, 0.5, 0.5, 2.0, 4.0]
    ref = quantum_jump_ensemble(spec, rho0, times, n_traj=50, seed=7)
    monkeypatch.setattr(open_system, "_BLOCK", block)
    res = quantum_jump_ensemble(spec, rho0, times, n_traj=50, seed=7)
    assert np.max(np.abs(res.mean_populations - ref.mean_populations)) <= 1e-12
    assert np.max(np.abs(res.se_populations - ref.se_populations)) <= 1e-12
    states, ref_states = (np.array([s.matrix for s in r.mean_states]) for r in (res, ref))
    assert np.max(np.abs(states - ref_states)) <= 1e-12


@pytest.mark.parametrize("case", ["figure3-site2", "lossy-chain-all-sites"])
def test_jump_standard_error_is_zero_at_t0(case):
    # every trajectory holds the initial state at t = 0, so the sample variance
    # there is exactly 0, not the roundoff of E[p^2] - E[p]^2
    if case == "figure3-site2":
        spec = fig3_spec(10.0)
    else:
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=1.5, dephased_sites=frozenset({1, 2, 3, 4}))
    rho0 = pure_site_state(spec.model.n_sites, spec.model.initial_site)
    res = quantum_jump_ensemble(spec, rho0, [0.0, 0.0, 2.0], n_traj=200, seed=2024)
    assert np.all(res.se_populations[:2] == 0.0)
    assert np.all(res.se_populations[2] > 0.0)


def reference_master(spec, rho0, times):
    """The per-state loop that integrate_master replaced: every state checked
    as a DensityMatrix as soon as it is computed."""
    lv = _liouvillian(spec)
    n = spec.model.n_sites
    z = rho0.matrix.reshape(-1)
    states, t_now, cache = [], 0.0, {}
    for t in times:
        span = t - t_now
        if span > 1e-15:
            key = round(span, 15)
            if key not in cache:
                cache[key] = scipy.linalg.expm(lv * span)
            z = cache[key] @ z
            t_now = t
        r = z.reshape(n, n)
        r = (r + r.conj().T) / 2
        z = r.reshape(-1)
        states.append(DensityMatrix(r))
    return states


@pytest.mark.parametrize("case", ["figure3-grid", "lossy-chain-two-sites", "lossy-chain-n12"])
def test_master_states_equal_the_per_state_reference(case):
    times = np.concatenate(([0.0, 0.0], np.linspace(0.1, 10.0, 100), [10.0]))
    if case == "figure3-grid":
        spec, times = fig3_spec(10.0), np.linspace(0.0, 20.0, 2001)
    elif case == "lossy-chain-two-sites":
        m = build_chain(5, [0.0, 2.0, -1.0, 1.5, 0.5], v=1.0, trap_rate=0.3, decay_rate=0.01)
        spec = DephasingSpec(model=m, gamma=0.75, dephased_sites=frozenset({2, 4}))
    else:
        energies = np.random.default_rng(5).uniform(0.0, 5.0, 12).tolist()
        m = build_chain(12, energies, v=1.0, trap_rate=0.3, decay_rate=0.01)
        spec = DephasingSpec(model=m, gamma=0.75, dephased_sites=frozenset(range(1, 13, 2)))
    rho0 = pure_site_state(spec.model.n_sites, spec.model.initial_site)
    states = np.array([s.matrix for s in integrate_master(spec, rho0, times)])
    ref = np.array([s.matrix for s in reference_master(spec, rho0, times)])
    assert states.shape == ref.shape
    assert np.max(np.abs(states - ref)) <= 1e-14


def chain_spec(n=8, gamma=1.0):
    energies = np.random.default_rng(n).uniform(0.0, 10.0, n).tolist()
    m = build_chain(n, energies, v=1.0, trap_rate=0.5, decay_rate=0.001)
    return DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset(range(1, n + 1)))


IRREGULAR_GRID = np.concatenate(([0.0, 0.0], np.linspace(0.1, 10.0, 100), [10.0]))
TWO_RUNS_GRID = np.concatenate((np.linspace(0.0, 1.0, 11), np.linspace(1.5, 3.0, 4)))
# time lists for the Figure-3 model at 2 gamma = 10
GRIDS = {
    "irregular-grid": IRREGULAR_GRID,
    "no-outputs": [],
    "one-at-0": [0.0],
    "one-after-0": [0.7],
    "two": [0.0, 0.7],
    "three-after-0": [0.3, 0.6, 0.9],
    "repeated": [0.5, 0.5, 1.0, 1.0, 1.0, 2.5],
    "grid-after-0": np.linspace(1.0, 3.0, 21),
    "two-runs": TWO_RUNS_GRID,
}


GAMMA0_CHAINS = {"chain-n8-gamma0": 8, "chain-n16-gamma0": 16}


@pytest.mark.parametrize("case", [0.1, 10.0, 1000.0, 1751.05, "chain-n8-evolve-grid", *GAMMA0_CHAINS, *GRIDS])
def test_master_states_equal_a_fresh_exponential(case):
    # every output against exp(L t) vec(rho_0), one exponential per time, with
    # no stepping and no real coordinates.  A number is 2 gamma on the
    # Figure-3 grid; the n = 8 chain runs on the CLI evolve grid.  At gamma = 0
    # the states are conjugations by a stack of propagators, checked on every
    # 20th time of that grid (a 256 x 256 exponential per time at n = 16).
    if case == "chain-n8-evolve-grid":
        spec, times = chain_spec(), np.linspace(0.0, 10.0, 201)
    elif case in GAMMA0_CHAINS:
        spec, times = chain_spec(GAMMA0_CHAINS[case], 0.0), np.linspace(0.0, 10.0, 11)
    elif case in GRIDS:
        spec, times = fig3_spec(10.0), np.asarray(GRIDS[case], dtype=float)
    else:
        spec, times = fig3_spec(case), np.linspace(0.0, 20.0, 2001)
    n = spec.model.n_sites
    rho0 = pure_site_state(n, spec.model.initial_site)
    states = np.array([s.matrix for s in integrate_master(spec, rho0, times)]).reshape(-1, n, n)
    assert states.shape == (times.size, n, n)
    lv = _liouvillian(spec)
    fresh = np.array([scipy.linalg.expm(lv * t) @ rho0.matrix.reshape(-1) for t in times]).reshape(states.shape)
    # Tolerance, to first order in u = 2^-53.  exp is relatively conditioned
    # like ||A|| near a normal A, so the fresh exp(L t) carries about
    # u ||L||_1 t.  The stepped state at t_k is S^j y in a run of span h, with
    # S = exp(L h) carrying u ||L||_1 h; a squaring doubles both the span and
    # the error a power carries, so S^j carries u ||L||_1 j h, and the runs
    # reach t_k with u ||L||_1 t_k, as k single steps did (the run's time
    # t_s + j h lies within the ulp of t_k on these grids, a perturbation of
    # L t of the size its rounding has).  A product on n^2 real coordinates
    # adds at most n^2 u: S^(2^r) takes r squarings, so it carries at most
    # (2^r - 1) n^2 u, and row j is popcount(j) products by such powers, so
    # at most n^2 u j in all, with j <= k.  The entries of a density matrix
    # are at most 1.  So |stepped - fresh| <= u (2 ||L||_1 t_k + n^2 k); it
    # reads at most 0.07, 0.07, 0.30 and 0.36 of that bound on the Figure-3
    # grid at 2 gamma = 0.1, 10, 1000 and 1751.05 (1.1e-13, 1.5e-14, 1.7e-12
    # and 2.2e-12).
    k = np.arange(times.size)
    bound = 2.0**-53 * (2 * np.abs(lv).sum(axis=0).max() * times + rho0.matrix.size * k)
    assert np.all(np.abs(states - fresh).max(axis=(1, 2), initial=0.0) <= bound)
    # the states are rebuilt from real coordinates (symmetrized at gamma = 0), so they are Hermitian to the bit
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    # equal times share one state, bit for bit
    for i in np.flatnonzero(np.diff(times) == 0):
        assert np.array_equal(states[i], states[i + 1])


@pytest.mark.parametrize(
    "times, expected",
    [
        (np.linspace(0.0, 20.0, 2001), 1),
        (np.arange(201) * 0.1, 1),
        # within one ulp of multiples of 0.1 from 0, so one run after the repeated 0
        (IRREGULAR_GRID, 1),
        (TWO_RUNS_GRID, 2),
        (np.concatenate(([0.0, 0.0], np.linspace(0.5, 2.0, 4), [2.0, 2.0], 2.0 + np.arange(1, 6) * 0.25)), 2),
        # one exponential per span: 40 distinct spans, the first from 0
        (np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 40)), 40),
    ],
    ids=["figure3-grid", "arange-grid", "irregular-grid", "two-runs", "repeated-times-between-runs", "random-list"],
)
def test_master_takes_one_exponential_per_run(monkeypatch, times, expected):
    calls = []
    expm = open_system._expm
    monkeypatch.setattr(open_system, "_expm", lambda a: calls.append(a) or expm(a))
    integrate_master(fig3_spec(10.0), pure_site_state(3, 2), times)
    assert len(calls) == expected


@pytest.mark.parametrize("count", range(1, 10))
def test_powers_equal_repeated_products(count):
    # S^k y0 by repeated squaring against k single products, with S a step of
    # the real generator of an n = 8 chain
    spec = chain_spec()
    lv = _liouvillian(spec)
    lr = lv.real + lv.imag[:, np.arange(64).reshape(8, 8).T.reshape(-1)]
    step = scipy.linalg.expm(lr * 0.05)
    y = np.random.default_rng(count).uniform(-1.0, 1.0, 64)
    rows = dynamics._powers(step, y, range(count))
    assert rows.shape == (count, 64) and np.array_equal(rows[0], y)
    expected = [y]
    for _ in range(count - 1):
        expected.append(step @ expected[-1])
    # row k passes through at most 2 k products of length n^2 = 64, the squarings
    # included, each off by at most 64 u times the row sums of |S^j|, at most growth
    growth = max(np.abs(np.linalg.matrix_power(step, k)).sum(axis=1).max() for k in range(count))
    assert np.max(np.abs(rows - np.array(expected))) <= 2.0**-53 * 64 * 2 * count * growth


def test_powers_fill_small_gaps_and_jump_large_ones():
    # gaps of 1 to 3 are filled row by row, a gap of 4 or more is jumped by the
    # binary digits of the gap; every row against an explicit matrix power
    spec = chain_spec()
    lv = _liouvillian(spec)
    lr = lv.real + lv.imag[:, np.arange(64).reshape(8, 8).T.reshape(-1)]
    step = scipy.linalg.expm(lr * 0.05)
    y = np.random.default_rng(0).uniform(-1.0, 1.0, 64)
    ks = [0, 1, 3, 6, 10, 11, 200, 203]
    rows = dynamics._powers(step, y, ks)
    expected = np.array([np.linalg.matrix_power(step, k) @ y for k in ks])
    # as above: at most 2 k products of length 64 per row, here k <= 203
    growth = max(np.abs(np.linalg.matrix_power(step, k)).sum(axis=1).max() for k in range(204))
    assert np.max(np.abs(rows - expected)) <= 2.0**-53 * 64 * 2 * 203 * growth


@pytest.mark.parametrize("rho0", [[[1.0, 1.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]], ids=["non-hermitian", "trace-2"])
def test_master_rejects_an_invalid_initial_state(two_site_disordered, rho0):
    # an array rho0 is checked as a DensityMatrix, not replaced by its Hermitian part
    spec = DephasingSpec(model=two_site_disordered, gamma=1.0, dephased_sites=frozenset({1, 2}))
    with pytest.raises(ValueError, match="not Hermitian|trace 2"):
        integrate_master(spec, np.array(rho0), [0.0, 1.0])


@pytest.mark.parametrize(
    "rho0",
    [
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.7], [0.0, 0.0, 0.0]],
        [[1.2, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ],
    ids=["non-hermitian", "non-psd", "trace-1.5", "two-site"],
)
def test_jump_modes_reject_an_invalid_initial_state_alike(rho0):
    # poisson mode used to read only the lower triangle, so the non-Hermitian
    # array ran as |2><2|; both modes now check an array rho0 as a DensityMatrix,
    # and a 2-site state on the 3-site model as integrate_master does
    spec = fig3_spec(10.0)
    errors = []
    for mode in ("poisson", "periodic"):
        pattern = "not Hermitian|not positive semidefinite|trace 1.5|state dimension does not match model"
        with pytest.raises(ValueError, match=pattern) as err:
            quantum_jump_ensemble(spec, np.array(rho0), [0.0, 1.0], n_traj=4, seed=0, mode=mode)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_jump_standard_error_scaling():
    spec = fig3_spec(10.0)
    ses = []
    for n in [250, 1000, 4000]:
        r = quantum_jump_ensemble(spec, pure_site_state(3, 2), [5.0], n_traj=n, seed=11)
        ses.append(r.se_populations[0, 1])
    assert 1.6 <= ses[0] / ses[1] <= 2.5
    assert 1.6 <= ses[1] / ses[2] <= 2.5


def test_jump_validation(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=1.0, dephased_sites=frozenset({1, 2}))
    rho0 = pure_site_state(2, 1)
    with pytest.raises(ValueError):
        quantum_jump_ensemble(spec, rho0, [1.0], n_traj=0, seed=0)
    with pytest.raises(ValueError):
        quantum_jump_ensemble(spec, rho0, [1.0], n_traj=10, seed=0, mode="brownian")
    mixed = np.eye(2) / 2
    with pytest.raises(ValueError):
        quantum_jump_ensemble(spec, mixed, [1.0], n_traj=10, seed=0)
    for bad in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="n_traj must be an integer"):
            quantum_jump_ensemble(spec, rho0, [1.0], n_traj=bad, seed=0)
    assert quantum_jump_ensemble(spec, rho0, [1.0], n_traj=np.int64(3), seed=0).n_traj == 3
    # an unseeded ensemble cannot be reproduced, so seed is checked in every mode
    for mode in ("poisson", "periodic"):
        for bad in (None, True, -1, 1.5, "3", np.float64(2.0)):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                quantum_jump_ensemble(spec, rho0, [1.0], n_traj=3, seed=bad, mode=mode)
    for seed in (np.int64(5), np.uint64(2**64 - 1)):
        assert quantum_jump_ensemble(spec, rho0, [1.0], n_traj=3, seed=seed).seed == seed
    free = DephasingSpec(model=two_site_disordered, gamma=0.0, dephased_sites=frozenset())
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        quantum_jump_ensemble(free, rho0, [1.0], n_traj=3, seed=None)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("mode", ["poisson", "periodic"])
def test_jump_rejects_non_finite_times(bad, mode):
    # at an infinite output time a poisson trajectory would jump forever
    with pytest.raises(ValueError, match="times must be finite"):
        quantum_jump_ensemble(fig3_spec(10.0), pure_site_state(3, 2), [1.0, bad], n_traj=4, seed=0, mode=mode)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_master_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="times must be finite"):
        integrate_master(fig3_spec(10.0), pure_site_state(3, 2), [bad])


@pytest.mark.parametrize("gamma", [0.0, 5.0])
def test_ensemble_without_times_writes_a_csv(tmp_path, gamma):
    # gamma = 0 evolves unitarily and periodic mode steps the measurement
    # channel; with no output times both give (0, n) arrays, as poisson mode does
    spec = fig3_spec(2.0 * gamma)
    path = tmp_path / "empty.csv"
    for mode in ("poisson", "periodic"):
        res = quantum_jump_ensemble(spec, pure_site_state(3, 2), [], n_traj=3, seed=0, mode=mode)
        assert res.mean_populations.shape == res.se_populations.shape == (0, 3)
        ensemble_to_csv(res, path)
        assert path.read_text().splitlines() == ["t,p_1,p_2,p_3,trace,se_p_1,se_p_2,se_p_3"]


def reference_efficiency_dephasing(spec):
    """The dense generator solve that efficiency_dephasing replaced: the time
    integral of the state is -L^-1 rho(0), one solve on the n^2 x n^2
    Liouvillian.  Returns (trapped, dissipated)."""
    model = spec.model
    n = model.n_sites
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[(model.initial_site - 1) * (n + 1)] = 1.0
    x = scipy.linalg.solve(_liouvillian(spec), -rho0, check_finite=False)
    integrals = np.real(x[:: n + 1])
    return float(2.0 * model.trap_rates @ integrals), float(2.0 * model.decay_rate * integrals.sum())


def test_efficiency_dephasing_gamma_zero(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=0.0, dephased_sites=frozenset())
    r = efficiency_dephasing(spec)
    # the renewal series against the dense generator solve of the same integral
    assert abs(r.eta - reference_efficiency_dephasing(spec)[0]) < 1e-10
    assert r.tau is None
    assert abs(r.trapped + r.dissipated + r.residual - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 1.0, 50.0])
def test_poisson_efficiencies_equal_the_dense_generator_solve(n, gamma):
    # both sides are exact: the Poisson renewal series and -L^-1 rho(0).  The
    # series loses up to about 1e-11 where 1 - rho(T) is small (gamma = 50)
    rng = np.random.default_rng(1000 + n)
    m = build_chain(
        n,
        rng.uniform(0.0, 10.0, n),
        v=1.0,
        trap_rate=float(rng.uniform(0.2, 0.8)),
        decay_rate=float(rng.uniform(0.001, 0.02)),
    )
    spec = DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset(range(1, n + 1)) if gamma else frozenset())
    trapped, dissipated = reference_efficiency_dephasing(spec)
    results = [efficiency_dephasing(spec)] + ([efficiency_no_measurement(m)] if gamma == 0 else [])
    for r in results:
        assert abs(r.eta - trapped) <= 1e-10
        assert abs(r.dissipated - dissipated) <= 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.5, 5.0])
def test_poisson_efficiency_at_the_exceptional_point(gamma):
    # resonant dimer with kappa = 2v and Gamma = 0: H_eff is defective, yet
    # every excitation is trapped, so eta = 1
    m = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
    spec = DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset({1, 2}) if gamma else frozenset())
    results = [efficiency_dephasing(spec)] + ([efficiency_no_measurement(m)] if gamma == 0 else [])
    for r in results:
        assert abs(r.eta - 1.0) <= 1e-12
        assert abs(r.trapped + r.dissipated + r.residual - 1.0) <= 1e-12


@pytest.mark.parametrize("topology", ["chain", "complete"])
@pytest.mark.parametrize("n", [2, 3, 8, 16, 32, 64])
def test_poisson_integrals_on_the_eigenbasis_equal_the_schur_solve(topology, n, monkeypatch):
    # the Schur solve (tests/oracles.py) is the reference.  A Lyapunov solve is accurate to
    # about u kappa_L relative, kappa_L = (||H_eff||_1 + r) / (r + d) with d
    # the slowest pair decay (2 Gamma here), so its own error sets the gap at
    # small r: up to 1e-11 relative at r = 0, where a 40-digit solution of 4
    # such models was 20-200 times closer to the eigen sums than to it.  Here
    # the gap read at most 7.7e-15 kappa_L relative, and 1.1e-14 absolute at
    # r = 2 and 50.  At r = 0 only the initial site's column is formed
    def no_fallback(*args, **kwargs):
        raise AssertionError("a seeded disorder model took the doubling")

    m = build_graph(DisorderSpec(n, topology, 10.0, 1.0, 0.5, 0.001, seed=n))
    h = m._h_eff.matrix
    w = eig_system(h)[0]
    monkeypatch.setattr(transfer, "_interval_integrals_doubling", no_fallback)
    for rate in (0.0, 0.1, 2.0, 50.0):
        a, ref = transfer._poisson_integrals(m, rate), _poisson_integrals_schur(m, rate)
        kappa_l = (np.linalg.norm(h, 1) + rate) / (rate - 2.0 * w.imag.max())
        assert np.count_nonzero(np.any(a != 0.0, axis=0)) == (n if rate > 0 else 1)
        assert np.abs(a - ref).max() <= 1e-13 * kappa_l * np.abs(ref).max()


@pytest.mark.parametrize("kappa, path", [(2.0 + 1e-3, "eigen"), (2.0 + 1e-4, "doubling")])
def test_poisson_efficiency_near_the_exceptional_point(kappa, path, monkeypatch):
    # eps = Gamma = 0, v = 1: cond(V) is 63 at kappa = 2 + 1e-3, under the
    # eigen sums' cutoff of 100, and 200 at kappa = 2 + 1e-4, past it.  Both
    # sides meet the dense generator solve, and eta = 1
    calls = []
    doubling = transfer._interval_integrals_doubling
    monkeypatch.setattr(
        transfer, "_interval_integrals_doubling", lambda *args, **kwargs: calls.append(args) or doubling(*args, **kwargs)
    )
    m = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=kappa, decay_rate=0.0)
    assert (eig_system(m._h_eff.matrix)[3] < dynamics._EIGEN_SUM_COND) == (path == "eigen")
    for gamma in (0.0, 0.5, 5.0):
        spec = DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset({1, 2}) if gamma else frozenset())
        r = efficiency_dephasing(spec)
        assert abs(r.eta - reference_efficiency_dephasing(spec)[0]) <= 1e-10
        assert abs(r.eta - 1.0) <= 1e-10
    assert len(calls) == (3 if path == "doubling" else 0)


def test_efficiency_dephasing_large_chain():
    # n = 48 on all sites: the dense generator would be 2304 x 2304
    n = 48
    rng = np.random.default_rng(48)
    m = build_chain(n, np.linspace(10.0, 0.0, n) + rng.uniform(-0.1, 0.1, n), v=1.0, trap_rate=0.5, decay_rate=0.001)
    r = efficiency_dephasing(DephasingSpec(model=m, gamma=1.0, dephased_sites=frozenset(range(1, n + 1))))
    assert 0.0 <= r.eta <= 1.0
    assert abs(r.trapped + r.dissipated + r.residual - 1.0) <= 1e-10


def test_efficiency_dephasing_against_expm_oracle(rng):
    # eta - eta(T) = 2 kappa int_T^inf p_trap dt lies in [0, tr rho(T)]: what is
    # still in the system at T is later trapped or dissipated.  eta(T) comes
    # from expm of the generator augmented with one integral accumulator per site.
    t_final = 100.0
    for _ in range(8):
        n = int(rng.integers(2, 9))
        m = build_chain(
            n,
            rng.uniform(0.0, 10.0, n),
            v=1.0,
            trap_rate=float(rng.uniform(0.2, 0.8)),
            decay_rate=float(rng.uniform(0.005, 0.02)),
        )
        spec = DephasingSpec(model=m, gamma=float(rng.uniform(0.5, 5.0)), dephased_sites=frozenset(range(1, n + 1)))
        r = efficiency_dephasing(spec)
        aug = np.zeros((n * n + n, n * n + n), dtype=complex)
        aug[: n * n, : n * n] = _liouvillian(spec)
        aug[n * n + np.arange(n), np.arange(n) * (n + 1)] = 1.0
        z0 = np.zeros(n * n + n, dtype=complex)
        z0[0] = 1.0  # rho(0) = |1><1|
        z = scipy.linalg.expm(t_final * aug) @ z0
        eta_t = float(2.0 * m.trap_rates @ np.real(z[n * n :]))
        remaining = float(np.real(np.trace(z[: n * n].reshape(n, n))))
        assert 0.0 <= r.eta - eta_t <= remaining + 1e-12
        assert abs(r.trapped + r.dissipated + r.residual - 1.0) <= 1e-12


def test_efficiency_dephasing_dark_state_raises():
    # equal energies and a trap on the middle site: (|1> - |3>)/sqrt(2) never
    # reaches the trap, so half the initial population stays forever
    c = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = LatticeModel(np.zeros(3), c, np.array([0.0, 0.5, 0.0]), 0.0, 1)
    spec = DephasingSpec(model=m, gamma=0.0, dephased_sites=frozenset())
    with pytest.raises(ValueError, match="non-decaying mode"):
        efficiency_dephasing(spec)
    with pytest.raises(ValueError, match="non-decaying mode"):
        efficiency_no_measurement(m)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_poisson_efficiency_with_an_isolated_lossless_site(gamma):
    # site 3 has no coupling and no loss, so it never decays.  Site 1 never
    # populates it, so free evolution gives eta = 1; under dephasing T has
    # eigenvalue 1 on site 3 and the series raises, as the dense solve did
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 1.0
    m = LatticeModel(np.array([0.0, 1.0, 5.0]), c, np.array([0.0, 0.5, 0.0]), 0.0, 1)
    spec = DephasingSpec(model=m, gamma=gamma, dephased_sites=frozenset({1, 2, 3}) if gamma else frozenset())
    if gamma:
        with pytest.raises(ValueError, match="non-convergent"):
            efficiency_dephasing(spec)
    else:
        assert abs(efficiency_dephasing(spec).eta - 1.0) <= 1e-12
        assert abs(efficiency_no_measurement(m).eta - 1.0) <= 1e-12


def test_efficiency_dephasing_correspondence(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=5.0, dephased_sites=frozenset({1, 2}))
    r = efficiency_dephasing(spec)
    assert r.tau == pytest.approx(0.1)
    assert abs(r.eta - efficiency_measured(two_site_disordered, 0.1).eta) < 0.03
    assert r.method == "master"


def test_efficiency_dephasing_requires_all_sites(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=5.0, dephased_sites=frozenset({2}))
    with pytest.raises(ValueError):
        efficiency_dephasing(spec)


def test_efficiency_dephasing_requires_loss():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    spec = DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset({1, 2}))
    with pytest.raises(ValueError):
        efficiency_dephasing(spec)


def per_line_ensemble_csv(result, path):
    """The per-line ensemble writer that ensemble_to_csv replaced."""
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


def test_ensemble_csv_format(tmp_path):
    spec = fig3_spec(10.0)
    res = quantum_jump_ensemble(spec, pure_site_state(3, 2), [0.5, 1.0], n_traj=50, seed=3)
    path = tmp_path / "ensemble.csv"
    ensemble_to_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,p_3,trace,se_p_1,se_p_2,se_p_3"
    assert len(lines) == 3
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == 0.5
    assert row[4] == pytest.approx(sum(row[1:4]), abs=1e-9)
    # the same bytes as the per-line writer, also on 12 sites, where the
    # trace sums more populations
    m = build_chain(12, np.linspace(0.0, 7.0, 12) % 3.0, v=1.0, trap_rate=0.5, decay_rate=0.01)
    chain = DephasingSpec(model=m, gamma=2.0, dephased_sites=frozenset(range(1, 13, 2)))
    chain_res = quantum_jump_ensemble(chain, pure_site_state(12, 1), np.linspace(0.0, 5.0, 51), n_traj=40, seed=3)
    for result in (res, chain_res):
        ensemble_to_csv(result, path)
        per_line_ensemble_csv(result, tmp_path / "per-line.csv")
        assert path.read_bytes() == (tmp_path / "per-line.csv").read_bytes()
