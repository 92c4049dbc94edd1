import math

import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    MeasurementChannel,
    OutOfRegimeError,
    apply_channel,
    binomial_population,
    build_chain,
    crossover_time,
    recursive_step,
    repeated_measurement_trajectory,
    transition_matrix,
)
from antizeno.dynamics import _EIGEN_COND, DensityMatrix, eig_system, evolve, propagator, pure_site_state
from antizeno.measurement import TransitionMatrix, measured_states, trajectory_to_csv
from antizeno.model import effective_hamiltonian


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_channel_full_set_dephases(rng):
    rho = random_density(rng, 4)
    ch = MeasurementChannel(frozenset([1, 2, 3, 4]), 0.1)
    out = apply_channel(ch, rho)
    assert np.allclose(out.matrix, np.diag(np.diag(rho.matrix)))


def test_channel_idempotent(rng):
    rho = random_density(rng, 3)
    ch = MeasurementChannel(frozenset([2]), 0.1)
    once = apply_channel(ch, rho)
    twice = apply_channel(ch, once)
    assert np.allclose(once.matrix, twice.matrix)


def test_channel_partial_set_keeps_unmeasured_block(rng):
    rho = random_density(rng, 3)
    out = apply_channel(MeasurementChannel(frozenset([2]), 0.1), rho)
    assert out.matrix[0, 2] == rho.matrix[0, 2]  # 1-3 coherence survives
    assert out.matrix[0, 1] == 0.0
    assert out.matrix[1, 2] == 0.0


def test_channel_preserves_trace_and_positivity(rng):
    for _ in range(5):
        rho = random_density(rng, 5)
        out = apply_channel(MeasurementChannel(frozenset([1, 3]), 0.2), rho)
        assert abs(out.trace - rho.trace) < 1e-14
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10


def test_channel_validation():
    with pytest.raises(ValueError):
        MeasurementChannel(frozenset(), 0.1)
    with pytest.raises(ValueError):
        MeasurementChannel(frozenset([0]), 0.1)
    with pytest.raises(ValueError):
        MeasurementChannel(frozenset([1]), 0.0)
    with pytest.raises(ValueError):
        apply_channel(MeasurementChannel(frozenset([5]), 0.1), np.eye(3) / 3)


def test_transition_matrix_short_time_is_identity():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    t = transition_matrix(effective_hamiltonian(m), 1e-6).matrix
    off = t - np.diag(np.diag(t))
    assert np.abs(off).sum() < 1e-10
    assert np.allclose(np.diag(t), 1.0, atol=1e-10)


def test_transition_matrix_rabi():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    h = effective_hamiltonian(m)
    for tau in [0.05, 0.31, 1.0]:
        t = transition_matrix(h, tau).matrix
        expected = (4.0 / 104.0) * np.sin(np.sqrt(104.0) * tau / 2) ** 2
        assert abs(t[1, 0] - expected) < 1e-12


def test_transition_matrix_small_tau_weight():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    tau = 1e-3
    t = transition_matrix(effective_hamiltonian(m), tau).matrix
    assert t[1, 0] == pytest.approx(tau**2, rel=1e-4)


def test_transition_matrix_rejects_nonpositive_tau(two_site_disordered):
    with pytest.raises(ValueError):
        transition_matrix(effective_hamiltonian(two_site_disordered), 0.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_transition_matrix_rejects_non_finite_tau(two_site_disordered, tau):
    # NaN used to give an all-NaN TransitionMatrix
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        transition_matrix(effective_hamiltonian(two_site_disordered), tau)


def test_transition_matrix_rejects_non_finite_entries():
    # NaN passed the [0, 1] range check, since every comparison with it is false
    with pytest.raises(ValueError, match="non-finite"):
        TransitionMatrix(np.full((2, 2), np.nan), 0.1)


def test_trajectory_zero_steps(two_site_disordered):
    traj = repeated_measurement_trajectory(
        two_site_disordered, MeasurementChannel(frozenset([1, 2]), 0.1), 0
    )
    assert np.array_equal(traj.populations, [[1.0, 0.0]])


def test_trajectory_fast_path_matches_density_path():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    ch = MeasurementChannel(frozenset([1, 2]), 0.1)
    traj = repeated_measurement_trajectory(m, ch, 10)
    # reference: explicit evolve/measure loop on the density matrix
    u = propagator(effective_hamiltonian(m), 0.1)
    rho = pure_site_state(2, 1)
    for k in range(1, 11):
        rho = apply_channel(ch, evolve(u, rho))
        assert np.max(np.abs(np.diag(rho.matrix).real - traj.populations[k])) < 1e-12


def test_measured_states_step_count_on_a_long_grid(two_site_disordered):
    # fl(k tau) / tau lands an ulp below k = 20481 at tau = 0.1; the state
    # there must still be taken just after the k-th measurement (diagonal)
    tau, k = 0.1, 20481
    channel = MeasurementChannel(frozenset({1, 2}), tau)
    h = effective_hamiltonian(two_site_disordered)
    (rho,) = measured_states(h, channel, pure_site_state(2, 1), [k * tau])
    assert rho.matrix[0, 1] == 0.0


@pytest.mark.parametrize("times", [[2.0, 1.0], [-0.5], [np.inf], [np.nan]])
def test_measured_states_rejects_bad_times(three_site_degenerate, times):
    # unsorted times used to return the later state under the earlier label
    channel = MeasurementChannel(frozenset({2}), 0.1)
    h = effective_hamiltonian(three_site_degenerate)
    with pytest.raises(ValueError, match="times must be finite, sorted and nonnegative"):
        measured_states(h, channel, pure_site_state(3, 2), times)


def ep_dimer(kappa=2.0):
    # eps = 0, Gamma = 0: kappa = 2v is the exceptional point
    return build_chain(2, [0.0, 0.0], v=1.0, trap_rate=kappa, decay_rate=0.0)


def test_measured_states_take_expm_only_past_the_cutoff(three_site_degenerate, monkeypatch):
    # the Fig. 3 model (cond(V) near 1) takes the eigenbasis and no expm; the
    # exceptional-point dimer (cond(V) = 9.0e7) takes one stacked expm for
    # U(tau) and its remainders; near-EP dimers with cond(V) from 63 up to
    # just under the cutoff take the eigenbasis and agree with expm to 1e-10
    times = np.linspace(0.0, 5.0, 101)
    channel = MeasurementChannel(frozenset({1}), 0.37)
    near = [ep_dimer(2.0 + d) for d in (1e-3, 1e-6, 1e-9, 4.5e-10)]
    conds = [eig_system(m._h_eff)[3] for m in near]
    assert 50 < conds[0] and conds[-1] < _EIGEN_COND < 1.2 * conds[-1]
    refs = [reference_measured_states(m._h_eff, channel, pure_site_state(2, 1), times) for m in near]
    stacks = []
    expm = scipy.linalg.expm

    def counting(a):
        stacks.append(np.shape(a))
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    fig3, fig3_channel = effective_hamiltonian(three_site_degenerate), MeasurementChannel(frozenset({2}), 0.1)
    states = measured_states(fig3, fig3_channel, pure_site_state(3, 2), np.linspace(0.0, 20.0, 2001))
    assert len(states) == 2001 and stacks == []
    for m, ref in zip(near, refs):
        states = measured_states(m._h_eff, channel, pure_site_state(2, 1), times)
        assert np.max(np.abs(np.array([s.matrix for s in states]) - [r.matrix for r in ref])) <= 1e-10
    assert stacks == []
    measured_states(ep_dimer()._h_eff, channel, pure_site_state(2, 1), times)
    assert len(stacks) == 1 and len(stacks[0]) == 3 and stacks[0][0] > 1


def reference_measured_states(h, channel, rho0, times):
    """The per-state loop that measured_states replaced: evolve and
    apply_channel on DensityMatrix at every step, each propagator a fresh
    scipy.linalg.expm."""
    hm = np.asarray(getattr(h, "matrix", h))
    tau = channel.interval
    u = scipy.linalg.expm(-1j * hm * tau)
    rho, k_done, states = rho0, 0, []
    for t in times:
        k_target = int(np.floor(t / tau * (1 + 1e-12)))
        while k_done < k_target:
            rho = apply_channel(channel, evolve(u, rho))
            k_done += 1
        rem = t - k_done * tau
        states.append(rho if rem <= 1e-15 else evolve(scipy.linalg.expm(-1j * hm * rem), rho))
    return states


@pytest.mark.parametrize("case", ["figure3-site2", "lossy-chain-two-sites"])
def test_measured_states_equal_the_per_state_reference(three_site_degenerate, case):
    if case == "figure3-site2":
        model, channel = three_site_degenerate, MeasurementChannel(frozenset({2}), 0.1)
    else:
        model = build_chain(5, [0.0, 2.0, -1.0, 1.5, 0.5], v=1.0, trap_rate=0.3, decay_rate=0.01)
        channel = MeasurementChannel(frozenset({2, 4}), 0.37)
    h = effective_hamiltonian(model)
    rho0 = pure_site_state(model.n_sites, model.initial_site)
    times = np.concatenate(([0.0, 0.0], np.linspace(0.05, 10.0, 200), [10.0]))
    states = np.array([s.matrix for s in measured_states(h, channel, rho0, times)])
    ref = np.array([s.matrix for s in reference_measured_states(h, channel, rho0, times)])
    assert states.shape == ref.shape
    assert np.max(np.abs(states - ref)) <= 1e-14


def test_trajectory_column_sums_contract():
    m = build_chain(3, [10.0, 5.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
    t = transition_matrix(effective_hamiltonian(m), 0.3).matrix
    power = np.eye(3)
    for _ in range(20):
        power = t @ power
        assert np.all(power.sum(axis=0) <= 1 + 1e-10)


def _multi_hop_ratio(L, n):
    """[x^L] I_0(2 sqrt(x))^n / C(n, L): exact-to-binomial ratio of the
    terminal population when an interval may carry k hops with weight
    w^k / (k!)^2 (amplitude (-i v tau)^k / k!) instead of at most one."""
    per_interval = np.array([1.0 / math.factorial(k) ** 2 for k in range(L + 1)])
    poly = np.zeros(L + 1)
    poly[0] = 1.0
    for _ in range(n):
        poly = np.convolve(poly, per_interval)[: L + 1]
    return poly[L] / math.comb(n, L)


def test_trajectory_binomial_regime():
    # terminal population vs the closed-form binomial in its stated regime:
    # both neglected terms L(L-1)/(4(n-L+1)) and n tau^2 v^2 are <= 0.1, so
    # they stay inside the 20% tolerance (n in [17, 250] here)
    tau, v, L = 0.02, 1.0, 3
    w = (tau * v) ** 2
    ns = [n for n in range(L, int(0.1 / w) + 1) if L * (L - 1) / (4 * (n - L + 1)) <= 0.1]
    m = build_chain(L + 1, np.linspace(20.0, 0.0, L + 1), v=v, trap_rate=0.0, decay_rate=0.0)
    ch = MeasurementChannel(frozenset(range(1, L + 2)), tau)
    traj = repeated_measurement_trajectory(m, ch, ns[-1])
    for n in ns:
        exact = traj.populations[n, -1]
        approx = binomial_population(L, n, tau, v)
        assert abs(approx - exact) <= 0.2 * exact, f"n={n}: {approx} vs {exact}"
    # near n = L the multi-hop intervals dominate the error; the ratio follows
    # the Bessel count up to O(n tau^2 v^2) and detuning terms (< 1% here)
    for n in range(L, 3 * L + 1):
        ratio = traj.populations[n, -1] / binomial_population(L, n, tau, v)
        expected = _multi_hop_ratio(L, n)
        assert abs(ratio / expected - 1.0) <= 0.02, f"n={n}: {ratio} vs {expected}"


def test_recursive_step_two_site():
    out = recursive_step([1.0, 0.0], 0.1, 1.0)
    assert np.allclose(out, [0.99, 0.01])


def test_recursive_step_uniform_interior_fixed():
    p = np.full(6, 1.0 / 6.0)
    out = recursive_step(p, 0.1, 1.0)
    assert np.allclose(out[1:-1], p[1:-1])


def test_recursive_step_conserves_probability(rng):
    p = rng.uniform(0, 1, 7)
    p /= p.sum()
    assert recursive_step(p, 0.12, 1.0).sum() == pytest.approx(1.0)


def test_recursive_step_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        recursive_step([1.0, 0.0], 0.8, 1.0)


def test_recursion_error_vanishes_with_tau():
    # at fixed n tau^2 v^2 the recursion approaches the exact T^n propagation
    errs = []
    for tau, n in [(0.02, 50), (0.01, 200), (0.005, 800)]:
        m = build_chain(3, [20.0, 10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
        t = transition_matrix(effective_hamiltonian(m), tau).matrix
        p_exact = np.array([1.0, 0.0, 0.0])
        p_rec = p_exact.copy()
        for _ in range(n):
            p_exact = t @ p_exact
            p_rec = recursive_step(p_rec, tau, 1.0)
        errs.append(abs(p_rec[-1] - p_exact[-1]) / p_exact[-1])
    assert errs[0] > errs[1] > errs[2]


def test_binomial_population_values():
    assert binomial_population(2, 2, 0.1, 1.0) == pytest.approx(1e-4)
    assert binomial_population(1, 5, 0.1, 1.0) == pytest.approx(5 * 0.98**4 * 0.01)
    assert binomial_population(3, 3, 0.05, 1.0) == pytest.approx((0.05**2) ** 3)


def test_binomial_population_log_domain_consistent():
    # the n > 50 log-domain branch continues the direct formula smoothly
    import math

    tau, v, L = 0.02, 1.0, 2
    for n in [51, 80, 200]:
        w = (tau * v) ** 2
        direct = math.comb(n, n - L) * (1 - 2 * w) ** (n - L) * w**L
        assert binomial_population(L, n, tau, v) == pytest.approx(direct, rel=1e-10)


def test_binomial_population_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        binomial_population(3, 2, 0.1, 1.0)
    with pytest.raises(OutOfRegimeError):
        binomial_population(1, 200, 0.1, 1.0)  # n tau^2 v^2 = 2


def test_crossover_two_site():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    out = crossover_time(m, 0.1, horizon=50.0)
    assert out["t_c"] is not None
    # scaling estimate L/(eps^2 tau) = 0.1; exact within a factor of 3
    assert 0.1 / 3 <= out["t_c"] <= 0.1 * 3
    assert out["n_c"] * 0.1 == pytest.approx(out["t_c"])


def test_crossover_keeps_the_interval_that_ends_at_the_horizon():
    # fl(54492 tau) / tau falls an ulp below 54492, more than an absolute
    # 1e-12 slack makes up; the interval that ends at the horizon still counts
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    tau = 0.0006000000000000001
    assert crossover_time(m, tau, horizon=200.0)["n_c"] == 54492
    out = crossover_time(m, tau, horizon=54492 * tau)
    assert out["n_c"] == 54492 and out["t_c"] == 54492 * tau


def test_crossover_no_hopping():
    m = build_chain(2, [10.0, 0.0], v=0.0, trap_rate=0.0, decay_rate=0.0)
    out = crossover_time(m, 0.1, horizon=20.0)
    assert out["t_c"] is None and out["n_c"] is None


def test_crossover_validation():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError):
        crossover_time(m, 0.5, horizon=0.1)
    lossy = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    with pytest.raises(ValueError):
        crossover_time(lossy, 0.1, horizon=10.0)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_crossover_rejects_non_finite_horizon(horizon):
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        crossover_time(m, 0.05, horizon)


def test_crossover_reports_leading_order():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    out = crossover_time(m, 0.1, horizon=50.0)
    assert out["p_bar_leading"] == pytest.approx(0.02)
    assert 0.5 <= out["p_bar"] / out["p_bar_leading"] <= 2.0


def test_trajectory_csv_round_trip(tmp_path):
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
    traj = repeated_measurement_trajectory(m, MeasurementChannel(frozenset([1, 2]), 0.2), 5)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,trace"
    assert len(lines) == 7
    row = [float(x) for x in lines[3].split(",")]
    assert row[0] == pytest.approx(traj.times[2])
    assert row[1:3] == pytest.approx(list(traj.populations[2]), abs=1e-12)
    assert row[3] == pytest.approx(traj.populations[2].sum(), abs=1e-12)
