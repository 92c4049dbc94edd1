import math
import tracemalloc

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
from antizeno import dynamics, measurement
from antizeno.dynamics import _EIGEN_COND, DensityMatrix, eig_system, evolve, propagator, pure_site_state
from antizeno.entanglement import measured_concurrence, simulate_concurrence
from antizeno.measurement import (
    TransitionMatrix,
    _after_by_powers,
    _after_by_steps,
    _by_powers,
    _intervals,
    _step_matrix,
    channel_masks,
    measured_states,
    trajectory_to_csv,
)
from antizeno.model import LatticeModel, effective_hamiltonian
from antizeno.open_system import DephasingSpec, quantum_jump_ensemble


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


@pytest.mark.parametrize("sites", [frozenset([1, 2, 3]), frozenset([2])], ids=["all-sites", "middle-site"])
def test_trajectory_rejects_a_non_integer_step_count(three_site_degenerate, sites):
    # 2.5 used to give 4 rows (or an islice error with every site measured) and True one step
    ch = MeasurementChannel(sites, 0.1)
    for bad in (2.5, True, -1, "3", None, np.float64(2.0)):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 0"):
            repeated_measurement_trajectory(three_site_degenerate, ch, bad)
    assert repeated_measurement_trajectory(three_site_degenerate, ch, np.int64(3)).populations.shape == (4, 3)


def test_trajectory_fast_path_matches_density_path():
    # reference: explicit evolve/measure loop on the density matrix.  Each of
    # the k products with T that p(t_k) stands for, taken as powers or one
    # interval at a time, adds about d u to populations <= 1, so the two
    # paths differ by at most 2 d u k (the largest ratio here is 0.25)
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    ch = MeasurementChannel(frozenset([1, 2]), 0.1)
    n_steps, d = 2000, 2
    traj = repeated_measurement_trajectory(m, ch, n_steps)
    assert traj.states is None
    u = propagator(effective_hamiltonian(m), 0.1)
    rho = pure_site_state(2, 1)
    for k in range(1, n_steps + 1):
        rho = apply_channel(ch, evolve(u, rho))
        assert np.max(np.abs(np.diag(rho.matrix).real - traj.populations[k])) <= 2 * d * 2.0**-53 * k


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
    expm = dynamics._expm

    def counting(a):
        stacks.append(np.shape(a))
        return expm(a)

    monkeypatch.setattr(dynamics, "_expm", counting)
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


def superoperator(h, channel, n):
    """One interval, U(tau) rho U(tau)^dag and then the channel, as an n^2 x n^2
    complex matrix on row-major vec(rho), from scipy.linalg.expm."""
    u = scipy.linalg.expm(-1j * np.asarray(h.matrix) * channel.interval)
    keep = np.ones((n, n), dtype=bool)
    for i in channel.measured_sites:
        keep[i - 1, :] = keep[:, i - 1] = False
        keep[i - 1, i - 1] = True
    return keep.reshape(-1, 1) * np.kron(u, u.conj())


@pytest.mark.parametrize("sites", [{1, 2, 3}, {2}], ids=["all-sites", "middle-site"])
def test_measured_states_on_a_sparse_grid_equal_superoperator_powers(sites):
    # three outputs, 10^5 and 10^6 intervals in: the states come from jumps by
    # powers of the step matrix, and no array grows with the interval count
    # (10^6 rows of d = 5 doubles would be 40 MB)
    model = build_chain(3, [1.0, 4.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    h = effective_hamiltonian(model)
    channel = MeasurementChannel(frozenset(sites), 0.1)
    times = np.array([0.0, 1e5, 1e6]) * channel.interval
    rho0 = pure_site_state(3, 2)
    tracemalloc.start()
    try:
        states = measured_states(h, channel, rho0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    s = superoperator(h, channel, 3)
    assert states[0].matrix.tobytes() == rho0.matrix.tobytes()
    for k, state in zip((10**5, 10**6), states[1:]):
        ref = (np.linalg.matrix_power(s, k) @ rho0.matrix.reshape(-1)).reshape(3, 3)
        # both sides square about log2 k times; an error in M^j grows at most
        # linearly in j on a channel, so each entry is off by about d u k,
        # d <= n^2 = 9 the length of a row product, u = 2^-53
        assert np.max(np.abs(state.matrix - ref)) <= 9 * 2.0**-53 * k


def test_measurement_paths_agree_on_both_sides_of_the_rule():
    # an 8-site chain measured on every other site (d = 4 + 4^2 = 20): the rule
    # steps k_star - 1 intervals one at a time and k_star by powers; the two
    # paths agree on either side, and periodic mode is the measured trajectory
    # bit for bit on both
    rng = np.random.default_rng(8)
    model = build_chain(8, rng.uniform(0.0, 3.0, 8), v=1.0, trap_rate=0.5, decay_rate=0.001)
    sites, gamma = frozenset({1, 3, 5, 7}), 5.0
    tau = 1.0 / (2.0 * gamma)
    channel = MeasurementChannel(sites, tau)
    measured, keep = channel_masks(8, sites)
    k_star = next(k for k in range(1, 10**4) if _by_powers(20, 8, k))
    assert int(keep.sum()) == 20 and k_star > 2
    u = propagator(model._h_eff, tau).matrix
    rho0 = pure_site_state(8, 1)
    spec = DephasingSpec(model, gamma, sites)
    for k in (k_star - 1, k_star):
        assert _by_powers(20, 8, k) == (k == k_star)
        ks = np.arange(k + 1)
        steps = _after_by_steps(u, keep, rho0.matrix, ks)
        powers = _after_by_powers(u, measured, keep, rho0.matrix, ks)
        assert np.max(np.abs(steps - powers)) <= 1e-13
        periodic = quantum_jump_ensemble(spec, rho0, np.arange(k + 1) * tau, n_traj=1, seed=0, mode="periodic")
        traj = repeated_measurement_trajectory(model, channel, k)
        assert np.array_equal(periodic.mean_populations, traj.populations)
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(periodic.mean_states, traj.states))


@pytest.mark.parametrize("site", [0, -1, 4])
def test_channel_masks_reject_sites_outside_one_to_n(site):
    # a site below 1 would otherwise wrap around to the far end of the mask
    with pytest.raises(ValueError, match=f"measured site {site} out of range for 3 sites"):
        channel_masks(3, [site])


@pytest.mark.parametrize(
    "n, sites",
    [(16, {1}), (6, {1, 2, 3, 4, 5}), (6, {1, 2, 3, 4, 5, 6})],
    ids=["d226", "one-unmeasured-site", "every-site-measured"],
)
def test_powers_agree_with_steps_on_both_sides_of_the_rule(n, sites):
    # d = 15^2 + 1 = 226, |F| = 1 (d = 6, the pair block is one diagonal) and |F| = 0
    # (d = n, no pair block), each at the rule's last k by steps and first by powers
    rng = np.random.default_rng(n)
    model = build_chain(n, rng.uniform(0.0, 3.0, n), v=1.0, trap_rate=0.5, decay_rate=0.001)
    measured, keep = channel_masks(n, sites)
    d = int(keep.sum())
    k_star = next(k for k in range(1, 10**4) if _by_powers(d, n, k))
    assert d == (n - len(sites)) ** 2 + len(sites) and k_star > 2
    u = propagator(model._h_eff, 0.1).matrix
    rho0 = pure_site_state(n, 1).matrix
    for k in (k_star - 1, k_star):
        assert _by_powers(d, n, k) == (k == k_star)
        ks = np.arange(k + 1)
        steps = _after_by_steps(u, keep, rho0, ks)
        powers = _after_by_powers(u, measured, keep, rho0, ks)
        # an interval of steps is U r U^dag, whose entries each sum 2n complex
        # products, about 4 n u off on entries of size <= 1; the lossy U is a
        # contraction and the channel a projection, so neither amplifies it: 4 n u k.
        # The powers are off by about d u k, as in the 6,300-interval test below
        assert np.max(np.abs(steps - powers)) <= (d + 4 * n) * 2.0**-53 * k


@pytest.mark.parametrize("n", range(3, 17))
def test_step_matrix_equals_the_gather_form_bit_for_bit(n):
    # M[(a, b), (c, e)] = Re(U_ac conj U_be) + Im(U_ae conj U_bc), gathered entry
    # by entry over the kept pairs in block order (the pairs of unmeasured sites,
    # row-major, then the measured diagonals), on random complex U and channels
    # from one measured site to all of them, with chunks of the outer product
    # down to one row.  That order is np.nonzero(keep)'s up to a permutation
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for size in sorted({1, 2, n // 2, n - 1, n}):
        measured, keep = channel_masks(n, (rng.choice(n, size, replace=False) + 1).tolist())
        f, m = np.flatnonzero(~measured), np.flatnonzero(measured)
        pairs = [(x, y) for x in f for y in f] + [(c, c) for c in m]
        assert sorted(pairs) == list(zip(*np.nonzero(keep)))
        a, b = np.array(pairs).T
        ua, ub = u[a], u[b]
        ubc = ub.conj()
        want = (ua[:, a] * ubc[:, b]).real + (ua[:, b] * ubc[:, a]).imag
        assert np.array_equal(_step_matrix(u, f, m), want)
        for chunk in (1, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measurement, "_STEP_CHUNK", chunk)
                assert np.array_equal(_step_matrix(u, f, m), want)


def test_measured_concurrence_over_6300_intervals(three_site_degenerate):
    # t = 630 on the Fig. 3 model at tau = 0.1: the state after k intervals is
    # M^(k-1) y1 for the d = 5 step matrix M.  Each of the k products that
    # M^(k-1) stands for adds about d u to entries of size <= 1, and a channel
    # does not amplify them, so the entries are off by at most d u k and
    # C = 2 min(|rho_13|, sqrt(p_1 p_3)) by at most 2 d u k = 7.0e-12
    tau, k, d = 0.1, 6300, 5
    times = np.linspace(0.0, k * tau, k + 1)
    series = simulate_concurrence(three_site_degenerate, MeasurementChannel(frozenset({2}), tau), (1, 3), times)
    err = np.max(np.abs(series.values - measured_concurrence(9.0, 1.0, tau, times)))
    assert err <= 2 * d * 2.0**-53 * k


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
    # the log-domain formula equals the direct C(n, n-L) form, from small n on
    tau, v, L = 0.02, 1.0, 2
    for n in [2, 5, 51, 80, 200]:
        w = (tau * v) ** 2
        direct = math.comb(n, n - L) * (1 - 2 * w) ** (n - L) * w**L
        assert binomial_population(L, n, tau, v) == pytest.approx(direct, rel=1e-10)


def test_binomial_population_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        binomial_population(3, 2, 0.1, 1.0)
    with pytest.raises(OutOfRegimeError):
        binomial_population(1, 200, 0.1, 1.0)  # n tau^2 v^2 = 2


def test_binomial_population_without_hopping_is_out_of_regime():
    # tau v = 0 leaves no log(w) for the log-domain form
    with pytest.raises(OutOfRegimeError, match="not in \\(0, 1\\)"):
        binomial_population(1, 5, 0.1, 0.0)


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


def per_interval_crossover(model, tau, horizon, p_bar):
    """The first k <= horizon / tau with (T^k p(0))_n > p_bar, one p <- T p per interval."""
    t = transition_matrix(model._h_eff, tau).matrix
    p = np.eye(model.n_sites)[model.initial_site - 1]
    for k in range(1, int(horizon / tau * (1 + 1e-12)) + 1):
        p = t @ p
        if p[-1] > p_bar:
            return k
    return None


@pytest.mark.parametrize(
    "n, tau, horizon",
    [(n, 0.05, 4000.0) for n in range(3, 8)]  # acceptance 09a's chains
    + [(2, tau, 50.0) for tau in (0.05, 0.1, 0.3)]
    + [(2, 0.0006000000000000001, 200.0)],  # 13 whole windows of powers and a partial one
)
def test_crossover_matches_the_per_interval_loop(n, tau, horizon):
    m = build_chain(n, np.linspace(10.0, 0.0, n), v=1.0, trap_rate=0.0, decay_rate=0.0)
    out = crossover_time(m, tau, horizon)
    assert out["n_c"] == per_interval_crossover(m, tau, horizon, out["p_bar"])


def test_interval_counts_from_2_53_raise(three_site_degenerate):
    # from t / tau = 2^53 on the interval count is not exact, and at 1e20 it
    # wraps an int64: each entry point must raise rather than return a state
    with pytest.raises(ValueError, match="reaches 2\\^53"):
        _intervals(2.0**53, 1.0)
    channel = MeasurementChannel(frozenset({2}), 0.1)
    with pytest.raises(ValueError, match="reaches 2\\^53"):
        measured_states(effective_hamiltonian(three_site_degenerate), channel, pure_site_state(3, 2), [0.0, 1e19])
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError, match="reaches 2\\^53"):
        crossover_time(m, 0.1, horizon=1e300)


def test_interval_counts_near_whole_multiples():
    # fl(k tau) / tau falls at most 2u below k, so the slack 1 + 4u counts k
    # intervals in every t = fl(k tau); the relative 1e-12 slack it replaced
    # counted one interval too many from t / tau = 1e12 on, and one too early
    # just below a whole multiple
    assert _intervals(1e12, 1.0) == 10**12
    assert _intervals(3e12, 1.0) == 3 * 10**12
    assert _intervals(1e6 - 1e-7, 1.0) == 10**6 - 1
    ks = np.arange(2 * 10**5 + 1)
    for tau in (0.1, 0.3, 0.0006000000000000001, 3.7):
        assert np.array_equal(_intervals(ks * tau, tau), ks)


def test_crossover_no_hopping():
    m = build_chain(2, [10.0, 0.0], v=0.0, trap_rate=0.0, decay_rate=0.0)
    out = crossover_time(m, 0.1, horizon=20.0)
    assert out["t_c"] is None and out["n_c"] is None


def _counting_powers(monkeypatch):
    calls = []
    powers = measurement._powers
    monkeypatch.setattr(measurement, "_powers", lambda *args: calls.append(args[2].size) or powers(*args))
    return calls


def test_crossover_that_never_comes_ends_early(resonant_dimer, monkeypatch):
    # lossless and resonant, tau = 0.05: p_bar = 0.50106 while T^k p(0) rises to 1/2 from
    # below.  Scanning all 2e10 intervals took about 10 minutes; after one window,
    # mu = 1 - 2 sin^2(0.05) = 0.995 bounds the rows below p_bar, roundoff included
    calls = _counting_powers(monkeypatch)
    out = crossover_time(resonant_dimer, 0.05, horizon=1e9)
    assert out["t_c"] is None and out["n_c"] is None and out["p_bar"] > 0.501
    assert 1 <= len(calls) <= 2
    assert measurement._mixing_rate(transition_matrix(resonant_dimer._h_eff, 0.05).matrix) == pytest.approx(1 - 2 * np.sin(0.05) ** 2, abs=1e-14)


def test_crossover_scans_a_disconnected_model_to_the_horizon(monkeypatch):
    # site 1 is cut off, and sites 2, 3 form the resonant dimer of the test above (p_bar > 1/2
    # > 1/3): T has the eigenvalue 1 twice, mu = 1, and the rows do not tend to 1/3, so every
    # window of the 12,000 intervals is scanned
    m = LatticeModel([0.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 0.0], 0.0, initial_site=2)
    calls = _counting_powers(monkeypatch)
    out = crossover_time(m, 0.05, horizon=600.0)
    assert out["t_c"] is None and out["p_bar"] > 0.501
    assert calls == [4096, 4096, 12000 - 2 * 4096]


def test_crossover_still_crosses_after_many_windows(monkeypatch):
    # the bound of _never_above holds the scan only where no row can cross: this run crosses
    # in its 14th window, at the interval the per-interval loop finds
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    calls = _counting_powers(monkeypatch)
    assert crossover_time(m, 0.0006000000000000001, horizon=1e6)["n_c"] == 54492
    assert len(calls) == 14


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
