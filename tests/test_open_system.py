import math

import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    DephasingSpec,
    MeasurementChannel,
    build_chain,
    efficiency_dephasing,
    efficiency_no_measurement,
    efficiency_measured,
    integrate_master,
    quantum_jump_ensemble,
    repeated_measurement_trajectory,
)
from antizeno.dynamics import DensityMatrix, eig_system, evolve, populations, propagator, pure_site_state
from antizeno.measurement import channel_masks
from antizeno.model import LatticeModel, effective_hamiltonian
from antizeno.open_system import _liouvillian, _pure_initial, ensemble_to_csv


def fig3_spec(two_gamma, sites=frozenset({2})):
    m = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    return DephasingSpec(model=m, gamma=two_gamma / 2.0, dephased_sites=sites)


def test_master_reduces_to_unitary_at_gamma_zero(two_site_disordered):
    spec = DephasingSpec(model=two_site_disordered, gamma=0.0, dephased_sites=frozenset())
    rho0 = pure_site_state(2, 1)
    out = integrate_master(spec, rho0, [1.0])[0]
    ref = evolve(propagator(effective_hamiltonian(two_site_disordered), 1.0), rho0)
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
        ref = evolve(propagator(h, t), rho0)
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
    at index k: the first waiting time, then (uniform, waiting time) per jump.
    Returns (mean populations, their standard errors, mean states).
    """
    times = np.asarray(times, dtype=float)
    n = spec.model.n_sites
    w, v, vinv, _ = eig_system(effective_hamiltonian(spec.model).matrix)
    psi0 = _pure_initial(rho0)
    measured, _ = channel_masks(n, spec.dephased_sites)
    d_idx = np.flatnonzero(measured)
    rate = 2.0 * spec.gamma
    n_times = times.shape[0]
    sum_rho = np.zeros((n_times, n, n), dtype=complex)
    sum_p = np.zeros((n_times, n))
    sum_p2 = np.zeros((n_times, n))
    streams = np.random.SeedSequence(seed).spawn(n_traj)
    for k in range(n_traj):
        rng = np.random.default_rng(streams[k])
        phi = vinv @ psi0  # state in eigenbasis
        t_now = 0.0
        ti = 0
        t_jump = rng.exponential(1.0 / rate)
        while ti < n_times:
            t_next = min(t_jump, times[ti])
            if t_next > t_now:
                phi = np.exp(-1j * w * (t_next - t_now)) * phi
                t_now = t_next
            if t_jump <= times[ti]:
                psi = v @ phi
                norm2 = float(np.real(psi.conj() @ psi))
                probs = np.abs(psi[d_idx]) ** 2
                u = rng.uniform(0.0, norm2)
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
                t_jump = t_now + rng.exponential(1.0 / rate)
            else:
                psi = v @ phi
                sum_rho[ti] += np.outer(psi, psi.conj())
                p = np.abs(psi) ** 2
                sum_p[ti] += p
                sum_p2[ti] += p * p
                ti += 1
    mean_p = sum_p / n_traj
    var = np.maximum(sum_p2 / n_traj - mean_p**2, 0.0)
    se = np.sqrt(var / max(n_traj - 1, 1))
    return mean_p, se, sum_rho / n_traj


@pytest.mark.parametrize(
    "case",
    ["figure3-site2", "lossy-chain-all-sites-repeated-times", "chain-n8-120-trajectories"],
)
def test_jump_poisson_equals_the_per_trajectory_oracle(case):
    # the lockstep ensemble must consume every trajectory's stream exactly as
    # the one-at-a-time loop does, so the two agree to roundoff
    if case == "figure3-site2":
        spec, times, n_traj = fig3_spec(10.0), [1.0, 5.0, 10.0], 300
    elif case == "lossy-chain-all-sites-repeated-times":
        m = build_chain(4, [0.0, 3.0, 1.0, 2.0], v=1.0, trap_rate=0.4, decay_rate=0.02)
        spec = DephasingSpec(model=m, gamma=1.5, dephased_sites=frozenset({1, 2, 3, 4}))
        times, n_traj = [0.0, 0.5, 0.5, 3.0], 200
    else:
        m = build_chain(8, np.linspace(0.0, 7.0, 8) % 3.0, v=1.0, trap_rate=0.5, decay_rate=0.01)
        spec = DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset(range(1, 9)))
        times, n_traj = [1.0, 5.0, 10.0], 120
    rho0 = pure_site_state(spec.model.n_sites, spec.model.initial_site)
    res = quantum_jump_ensemble(spec, rho0, times, n_traj=n_traj, seed=2024)
    mean_p, se, mean_rho = reference_poisson_ensemble(spec, rho0, times, n_traj, 2024)
    assert np.max(np.abs(res.mean_populations - mean_p)) <= 1e-12
    # at t = 0 every trajectory holds the initial state, so the sample variance
    # E[p^2] - E[p]^2 is zero up to roundoff of order eps, and the SE taken from
    # it, sqrt(var / (n_traj - 1)), is roundoff noise of up to about 1e-9 in
    # either code.  So the variances are compared at every time, the SEs at t > 0
    var, ref_var = (n_traj - 1) * res.se_populations**2, (n_traj - 1) * se**2
    assert np.max(np.abs(var - ref_var)) <= 1e-12
    later = np.asarray(times) > 0
    assert np.max(np.abs(res.se_populations[later] - se[later])) <= 1e-12
    states = np.array([s.matrix for s in res.mean_states])
    assert np.max(np.abs(states - (mean_rho + mean_rho.conj().transpose(0, 2, 1)) / 2)) <= 1e-12


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


@pytest.mark.parametrize("case", ["figure3-grid", "lossy-chain-two-sites"])
def test_master_states_equal_the_per_state_reference(case):
    if case == "figure3-grid":
        spec, times = fig3_spec(10.0), np.linspace(0.0, 20.0, 2001)
    else:
        m = build_chain(5, [0.0, 2.0, -1.0, 1.5, 0.5], v=1.0, trap_rate=0.3, decay_rate=0.01)
        spec = DephasingSpec(model=m, gamma=0.75, dephased_sites=frozenset({2, 4}))
        times = np.concatenate(([0.0, 0.0], np.linspace(0.1, 10.0, 100), [10.0]))
    rho0 = pure_site_state(spec.model.n_sites, spec.model.initial_site)
    states = np.array([s.matrix for s in integrate_master(spec, rho0, times)])
    ref = np.array([s.matrix for s in reference_master(spec, rho0, times)])
    assert states.shape == ref.shape
    assert np.max(np.abs(states - ref)) <= 1e-14


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
