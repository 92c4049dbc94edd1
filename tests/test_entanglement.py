import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    DephasingSpec,
    MeasurementChannel,
    TwoQubitState,
    analytic_concurrence,
    build_chain,
    concurrence,
    measured_concurrence,
    reduce_to_pair,
    repeated_measurement_trajectory,
    simulate_concurrence,
)
from antizeno.dynamics import DensityMatrix, evolve, pure_site_state
from antizeno.entanglement import ConcurrenceSeries, _wootters, _wootters_matrix, series_to_csv
from antizeno.measurement import measured_states
from antizeno.model import effective_hamiltonian
from antizeno.open_system import integrate_master


def bell_state():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
    return TwoQubitState(m, (1, 3))


def test_reduce_pure_excited():
    out = reduce_to_pair(pure_site_state(3, 1), 1, 3)
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0  # |eg>
    assert np.allclose(out.matrix, expected)


def test_reduce_traced_out_site():
    out = reduce_to_pair(pure_site_state(3, 2), 1, 3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0  # |gg>
    assert np.allclose(out.matrix, expected)


def test_reduce_bell_like():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = rho[2, 2] = rho[0, 2] = rho[2, 0] = 0.5
    out = reduce_to_pair(rho, 1, 3)
    assert concurrence(out) == pytest.approx(1.0)


def test_reduce_validation():
    with pytest.raises(ValueError):
        reduce_to_pair(pure_site_state(3, 1), 2, 2)
    with pytest.raises(ValueError):
        reduce_to_pair(pure_site_state(3, 1), 1, 5)


def test_concurrence_product_state():
    m = np.zeros((4, 4), dtype=complex)
    m[2, 2] = 1.0
    assert concurrence(TwoQubitState(m, (1, 2))) == 0.0


def test_concurrence_bell():
    assert concurrence(bell_state()) == pytest.approx(1.0)


def test_concurrence_mixed():
    m = 0.5 * bell_state().matrix.copy()
    m[0, 0] += 0.5
    assert concurrence(TwoQubitState(m, (1, 3))) == pytest.approx(0.5)


@pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-12])
def test_wootters_keeps_small_eigenvalues_of_r(p):
    # (1 - p) |Phi+><Phi+| + (p/2)(|ge><ge| + |eg><eg|) has C = 1 - 2p, and R's
    # small eigenvalues p^2/4 carry the 2p: a cutoff at 1e-14 l1^2 on R's
    # spectrum dropped them below p = 2e-7 and read 1 - p
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = (1 - p) / 2
    m[1, 1] = m[2, 2] = p / 2
    assert abs(concurrence(TwoQubitState(m, (1, 2))) - (1 - 2 * p)) <= 1e-14


def test_concurrence_fast_path_matches_wootters(rng):
    for _ in range(20):
        # random single-excitation reduced state
        a = rng.uniform(0, 1)
        b = rng.uniform(0, 1 - a)
        c_mag = rng.uniform(0, np.sqrt(a * b))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1 - a - b
        m[2, 2], m[1, 1] = a, b
        m[2, 1] = c_mag * phase
        m[1, 2] = np.conj(m[2, 1])
        state = TwoQubitState(m, (1, 2))
        assert concurrence(state) == pytest.approx(_wootters(state.matrix), abs=1e-10)
        assert concurrence(state) == pytest.approx(2 * c_mag, abs=1e-10)


def test_wootters_matrix_equals_the_sigma_y_products(rng):
    # R = m S m* S, S = sigma_y (x) sigma_y, formed by a column permutation and
    # sign, is bit for bit the four-product form, also on states with an empty
    # ee block and on the Figure-3 dephased stacks
    sy_sy = np.array([[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    a = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    m = a @ a.conj().swapaxes(1, 2)
    m[:100, 3, :] = m[:100, :, 3] = 0.0
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    stacks = [m]
    model = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    for two_gamma in (0.1, 10.0, 1000.0):
        spec = DephasingSpec(model=model, gamma=two_gamma / 2.0, dephased_sites=frozenset({2}))
        states = integrate_master(spec, pure_site_state(3, 2), np.linspace(0.0, 20.0, 2001))
        stacks.append(np.array([reduce_to_pair(s, 1, 3).matrix for s in states]))
    for m in stacks:
        assert _wootters_matrix(m).tobytes() == (m @ sy_sy @ m.conj() @ sy_sy).tobytes()


def _count_svd(monkeypatch):
    """Patch np.linalg.svd to record the stack of each call; returns the list."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda r, **kw: calls.append(r) or svd(r, **kw))
    return calls


def test_states_outside_the_block_reach_wootters(rng, monkeypatch):
    # states with no ee weight and no gg coherence, every reduce_to_pair result
    # among them, take the closed form through concurrence(); (|gg> + |ee>)/sqrt 2,
    # full-rank states and a single-excitation state with gg coherence reach
    # Wootters' general form, one SVD each
    phi = np.zeros((4, 4), dtype=complex)
    phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    dense = a @ a.conj().swapaxes(1, 2)
    dense /= np.trace(dense, axis1=1, axis2=2).real[:, None, None]
    w = np.array([0.6, 0.4j, np.sqrt(0.48), 0.0])  # 0.6 |gg> + 0.4i |ge> + sqrt(0.48) |eg>
    gg_coherent = np.outer(w, w.conj())
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0], rho[2, 2], rho[1, 1] = 0.3, 0.5, 0.1
    rho[0, 2] = 0.2 * np.exp(0.3j)
    rho[2, 0] = np.conj(rho[0, 2])
    calls = _count_svd(monkeypatch)
    assert concurrence(bell_state()) == pytest.approx(1.0)
    assert concurrence(reduce_to_pair(rho, 1, 3)) == 2 * abs(rho[0, 2])
    assert concurrence(reduce_to_pair(rho, 3, 2)) == 0.0
    assert not calls
    assert concurrence(TwoQubitState(phi, (1, 2))) == pytest.approx(1.0, abs=1e-12)
    assert [r.shape for r in calls] == [(4, 4)]
    for m in dense:
        assert concurrence(TwoQubitState(m, (1, 2))) == _wootters(m)
    assert concurrence(TwoQubitState(gg_coherent, (1, 2))) == pytest.approx(2 * 0.4 * np.sqrt(0.48), abs=1e-12)
    assert len(calls) == 8  # one per concurrence() and one per _wootters() of the last two lines


def test_simulate_concurrence_rejects_a_spec_of_another_model(three_site_degenerate):
    # the state and its size come from the model argument, the generator from
    # the spec's model: a spec with v = 2 used to evolve the v = 1 chain's state
    other = build_chain(3, [1.0, 10.0, 1.0], v=2.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    with pytest.raises(ValueError, match="model differs"):
        simulate_concurrence(three_site_degenerate, DephasingSpec(other, 5.0, {2}), (1, 3), [0.0, 1.0])
    # an equal copy of the model passes
    copy = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    same = simulate_concurrence(three_site_degenerate, DephasingSpec(copy, 5.0, {2}), (1, 3), [0.0, 1.0])
    ref = simulate_concurrence(three_site_degenerate, DephasingSpec(three_site_degenerate, 5.0, {2}), (1, 3), [0.0, 1.0])
    assert np.array_equal(same.values, ref.values)


def test_concurrence_invariances():
    state = bell_state()
    # global phase on the underlying full state cannot change the reduced state
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = rho[2, 2] = 0.5
    rho[0, 2] = 0.5 * np.exp(0.7j)
    rho[2, 0] = np.conj(rho[0, 2])
    c_ab = concurrence(reduce_to_pair(rho, 1, 3))
    c_ba = concurrence(reduce_to_pair(rho, 3, 1))
    assert c_ab == pytest.approx(c_ba, abs=1e-12)
    assert c_ab == pytest.approx(1.0)
    assert concurrence(state) == pytest.approx(1.0)


def test_two_qubit_state_validation():
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(3), (1, 2))
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(4), (1, 2))  # trace 4
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = bad[1, 1] = 0.5
    bad[0, 1] = 0.9
    bad[1, 0] = 0.9
    with pytest.raises(ValueError):
        TwoQubitState(bad, (1, 2))


def test_analytic_concurrence_values():
    assert analytic_concurrence(9.0, 1.0, 0.0) == 0.0
    # resonance: maximal entanglement at t = pi / (2 sqrt(2) v)
    assert analytic_concurrence(0.0, 1.0, np.pi / np.sqrt(8.0)) == pytest.approx(1.0)
    # eps = 10v: peak 8/108 at t = pi / sqrt(108)
    assert analytic_concurrence(10.0, 1.0, np.pi / np.sqrt(108.0)) == pytest.approx(8.0 / 108.0)


def test_measured_concurrence_at_first_interval():
    tau = 0.2
    assert measured_concurrence(9.0, 1.0, tau, tau) == pytest.approx(
        analytic_concurrence(9.0, 1.0, tau)
    )


@pytest.mark.parametrize("tau", [-0.1, 0.0, np.nan, np.inf])
def test_measured_concurrence_rejects_a_bad_tau(tau):
    # tau = -0.1 used to return a negative "concurrence" (-0.2299 at t = 1),
    # tau = 0 to divide by zero and tau = NaN to return NaN
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        measured_concurrence(9.0, 1.0, tau, 1.0)


def test_measured_concurrence_long_time_limit():
    assert measured_concurrence(9.0, 1.0, 0.1, 1000.0) == pytest.approx(0.5, abs=1e-6)


def test_measured_concurrence_zeno_limit():
    assert measured_concurrence(9.0, 1.0, 1e-3, 1.0) < 0.01


def test_simulated_unitary_matches_analytic(three_site_degenerate):
    times = np.linspace(0.0, 20.0, 2001)
    series = simulate_concurrence(three_site_degenerate, "unitary", (1, 3), times)
    ref = analytic_concurrence(9.0, 1.0, times)
    assert np.max(np.abs(series.values - ref)) < 1e-6
    assert series.provenance == "simulated"


@pytest.mark.parametrize("model_name", ["figure3", "chain5"])
@pytest.mark.parametrize("kind", ["unitary", "measurement", "dephasing"])
def test_simulate_concurrence_equals_the_per_state_composition(three_site_degenerate, kind, model_name):
    # the stacked reduction, checks and Wootters scoring against one state at a time
    if model_name == "figure3":
        model, pair, sites = three_site_degenerate, (1, 3), frozenset({2})
    else:
        model = build_chain(5, [0.0, 2.0, -1.0, 1.5, 0.5], v=1.0, trap_rate=0.3, decay_rate=0.01)
        pair, sites = (2, 5), frozenset({3})
    times = np.linspace(0.0, 10.0, 101)
    h = effective_hamiltonian(model)
    rho0 = pure_site_state(model.n_sites, model.initial_site)
    if kind == "unitary":
        spec, states = "unitary", [evolve(scipy.linalg.expm(-1j * h.matrix * t), rho0) for t in times]
    elif kind == "measurement":
        spec = MeasurementChannel(sites, 0.23)
        states = measured_states(h, spec, rho0, times)
    else:
        spec = DephasingSpec(model=model, gamma=0.75, dephased_sites=sites)
        states = integrate_master(spec, rho0, times)
    ref = np.array([concurrence(reduce_to_pair(DensityMatrix(s.matrix), *pair)) for s in states])
    assert ref.max() > 0.01
    series = simulate_concurrence(model, spec, pair, times)
    assert np.max(np.abs(series.values - ref)) <= 1e-12


def test_simulated_measurement_matches_closed_form(three_site_degenerate):
    tau = 0.05
    times = np.arange(1, 201) * tau
    channel = MeasurementChannel(frozenset({2}), tau)
    series = simulate_concurrence(three_site_degenerate, channel, (1, 3), times)
    ref = measured_concurrence(9.0, 1.0, tau, times)
    assert np.max(np.abs(series.values - ref)) < 1e-8
    # the same stepping as the measured trajectory, bit for bit
    traj = repeated_measurement_trajectory(three_site_degenerate, channel, 200)
    stepped = [concurrence(reduce_to_pair(s, 1, 3)) for s in traj.states[1:]]
    assert np.array_equal(series.values, np.clip(stepped, 0.0, 1.0))


def test_near_pure_measured_state_scores_two_abs_rho_ab():
    # sites 1 and 4 are unmeasured, so their pair state is near pure and R's
    # second eigenvalue, 7.7e-19, fell under the 1e-14 l1^2 cutoff that
    # Wootters through eigvals once had: it read sqrt(p_a p_b) + |rho_ab| there,
    # 8.8e-10 above 2 |rho_ab|
    energies = [0.480854, 1.980386, 1.795775, -0.159819, 1.030915, -0.010309, 0.117249, 1.143143]
    model = build_chain(8, energies, v=1.0, trap_rate=0.3, decay_rate=0.01, initial_site=4)
    channel = MeasurementChannel(frozenset({6}), 0.2)
    value = simulate_concurrence(model, channel, (1, 4), [0.4]).values[0]
    (state,) = measured_states(effective_hamiltonian(model), channel, pure_site_state(8, 4), [0.4])
    assert abs(value - 2 * abs(state.matrix[0, 3])) <= 1e-15
    assert value == concurrence(reduce_to_pair(state, 1, 4))


def test_concurrence_series_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="must be finite"):
        ConcurrenceSeries([0.0, np.nan], [np.nan, 0.5], "simulated")
    with pytest.raises(ValueError, match="must be finite"):
        ConcurrenceSeries([0.0, 1.0], [0.5, np.nan], "simulated")
    with pytest.raises(ValueError, match="must be finite"):
        ConcurrenceSeries([0.0, np.inf], [0.5, 0.5], "simulated")


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_measured_concurrence_when_one_interval_passes_one_half(eps):
    # C(tau) > 1/2 makes 1 - 2 C(tau) negative: its even powers are positive,
    # and its zeroth power gives C = 0 at t = 0
    tau = 0.8 * np.pi / np.sqrt(8.0 + eps * eps)
    assert analytic_concurrence(eps, 1.0, tau) > 0.5
    model = build_chain(3, [0.0, eps, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    times = np.arange(7) * tau
    series = simulate_concurrence(model, MeasurementChannel(frozenset({2}), tau), (1, 3), times)
    assert np.max(np.abs(series.values - measured_concurrence(eps, 1.0, tau, times))) < 1e-8


def test_simulated_dephasing_long_time(three_site_degenerate):
    spec = DephasingSpec(model=three_site_degenerate, gamma=5.0, dephased_sites=frozenset({2}))
    series = simulate_concurrence(three_site_degenerate, spec, (1, 3), [20.0])
    assert series.values[0] == pytest.approx(0.5, abs=0.01)


def test_degeneracy_necessary_for_entanglement():
    times = [20.0]
    degenerate = build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    perturbed = build_chain(3, [1.0, 10.0, 2.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
    c = []
    for m in (degenerate, perturbed):
        spec = DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset({2}))
        c.append(simulate_concurrence(m, spec, (1, 3), times).values[0])
    assert c[1] < c[0]


def test_dark_state_decoupled(three_site_degenerate):
    # the antisymmetric combination (|1> - |3>)/sqrt(2) never gets populated
    h = effective_hamiltonian(three_site_degenerate).matrix
    dark = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    rho0 = pure_site_state(3, 2)
    for t in np.linspace(0.1, 20.0, 40):
        rho = evolve(scipy.linalg.expm(-1j * h * t), rho0)
        overlap = float(np.real(dark @ rho.matrix @ dark))
        assert overlap < 1e-10


def test_simulate_concurrence_validation(three_site_degenerate):
    with pytest.raises(ValueError):
        simulate_concurrence(three_site_degenerate, "unitary", (1, 3), [2.0, 1.0])
    with pytest.raises(ValueError):
        simulate_concurrence(three_site_degenerate, object(), (1, 3), [1.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kind", ["unitary", "measurement", "dephasing"])
def test_simulate_concurrence_rejects_non_finite_times(three_site_degenerate, kind, bad):
    dynamics = {
        "unitary": "unitary",
        "measurement": MeasurementChannel(frozenset({2}), 0.1),
        "dephasing": DephasingSpec(model=three_site_degenerate, gamma=5.0, dephased_sites=frozenset({2})),
    }[kind]
    with pytest.raises(ValueError, match="times must be finite"):
        simulate_concurrence(three_site_degenerate, dynamics, (1, 3), [0.5, bad])


def test_series_csv_format(tmp_path, three_site_degenerate):
    times = np.linspace(0.0, 1.0, 5)
    series = simulate_concurrence(three_site_degenerate, "unitary", (1, 3), times)
    path = tmp_path / "c.csv"
    series_to_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,concurrence"
    assert len(lines) == 6
    row = [float(x) for x in lines[2].split(",")]
    assert row[0] == pytest.approx(times[1])
    assert row[1] == pytest.approx(series.values[1], abs=1e-10)
