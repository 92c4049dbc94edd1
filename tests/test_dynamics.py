import dataclasses
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    DensityMatrix,
    DephasingSpec,
    MeasurementChannel,
    OutOfRegimeError,
    build_chain,
    evolve,
    integrate_master,
    perturbative_average,
    populations,
    propagator,
    pure_site_state,
    quantum_jump_ensemble,
    simulate_concurrence,
    time_averaged_population,
)
from antizeno import dynamics
from antizeno.dynamics import _eig_system, _expm, _from_real, density_stack, eig_system
from antizeno.entanglement import TwoQubitState
from antizeno.measurement import measured_states
from antizeno.model import effective_hamiltonian
from oracles import _from_real_expression


def rabi_p2(eps, v, t):
    """Two-level transfer probability |U_21|^2."""
    omega = np.sqrt(eps**2 + 4 * v**2)
    return (4 * v**2 / omega**2) * np.sin(omega * t / 2) ** 2


def test_propagator_identity_at_t0(two_site_disordered):
    u = propagator(effective_hamiltonian(two_site_disordered), 0.0)
    assert np.allclose(u.matrix, np.eye(2), atol=1e-14)


def test_propagator_full_rabi_transfer(resonant_dimer):
    # Omega = 2v on resonance; complete transfer at Omega t = pi
    u = propagator(effective_hamiltonian(resonant_dimer), np.pi / 2)
    assert abs(abs(u.matrix[1, 0]) ** 2 - 1.0) < 1e-12


def test_propagator_detuned_max_transfer():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    h = effective_hamiltonian(m)
    ts = np.linspace(0.0, 2.0, 4001)
    p = [abs(propagator(h, t).matrix[1, 0]) ** 2 for t in ts]
    assert abs(max(p) - 4.0 / 104.0) < 1e-5


def test_propagator_matches_rabi_formula():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    h = effective_hamiltonian(m)
    for t in [0.1, 0.3, 1.7]:
        assert abs(abs(propagator(h, t).matrix[1, 0]) ** 2 - rabi_p2(10.0, 1.0, t)) < 1e-12


def test_propagator_unitary_when_lossless(three_site_degenerate):
    u = propagator(effective_hamiltonian(three_site_degenerate), 2.3).matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10


def test_propagator_contractive_with_loss(two_site_disordered):
    u = propagator(effective_hamiltonian(two_site_disordered), 5.0).matrix
    assert np.linalg.svd(u, compute_uv=False).max() <= 1 + 1e-10


def test_propagator_methods_agree(rng):
    # propagator vs a scaling-and-squaring oracle on random 8-site models
    for _ in range(5):
        e = rng.uniform(0, 10, 8)
        c = rng.uniform(-1, 1, (8, 8))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 0.0)
        k = rng.uniform(0, 0.5, 8)
        m = build_chain(8, e, v=1.0, trap_rate=0.0, decay_rate=0.0)
        h = effective_hamiltonian(m).matrix + 0j
        h += c - m.couplings  # replace chain couplings with the random graph
        np.fill_diagonal(h, e - 1j * k)
        a = propagator(h, 1.3).matrix
        b = scipy.linalg.expm(-1j * h * 1.3)
        assert np.max(np.abs(a - b)) < 1e-8


def test_propagator_jordan_block_takes_the_series_path():
    # a defective H: eig_system declines the eigenbasis, also from its memo,
    # and exp(-i H t) = e^{-t} [[1, -i t], [0, 1]] exactly
    h = np.array([[-1j, 1.0], [0.0, -1j]])
    assert eig_system(h)[2] is None
    assert eig_system(h)[2] is None
    for t in (0.0, 0.4, 2.5):
        u = propagator(h, t)
        exact = np.exp(-t) * np.array([[1.0, -1j * t], [0.0, 1.0]])
        assert np.max(np.abs(u.matrix - exact)) < 1e-13


def test_eig_system_memo(rng):
    h = effective_hamiltonian(build_chain(6, rng.uniform(0, 10, 6), v=1.0, trap_rate=0.5, decay_rate=0.01)).matrix
    first = eig_system(h)
    again = eig_system(h.copy())
    assert all(x is y for x, y in zip(first[:3], again[:3])) and again[3] == first[3]
    for x in first[:3]:
        with pytest.raises(ValueError):
            x[0] = 0.0
    # the values of a fresh decomposition, bit for bit
    w, v = np.linalg.eig(h)
    assert np.array_equal(first[0], w) and np.array_equal(first[1], v)
    assert np.array_equal(first[2], np.linalg.inv(v)) and first[3] == np.linalg.cond(v)
    # one ulp in one entry is another matrix
    h2 = h.copy()
    h2[0, 0] = np.nextafter(h[0, 0].real, np.inf) + 1j * h[0, 0].imag
    second = eig_system(h2)
    assert second[1] is not first[1] and np.array_equal(second[0], np.linalg.eig(h2)[0])
    assert eig_system(h)[1] is first[1]
    # the memo stays bounded
    for k in range(100):
        eig_system(h + k * np.eye(6))
    info = _eig_system.cache_info()
    assert info.currsize <= info.maxsize == 16


def _same_decomposition(x, y):
    return all(np.array_equal(a, b) for a, b in zip(x[:3], y[:3])) and x[3] == y[3]


def test_eig_system_keeps_an_effective_hamiltonians_decomposition(rng):
    # a frozen EffectiveHamiltonian keeps its result: no byte key after its first call,
    # and the same values as its matrix, an equal copy and a fresh decomposition give
    m = build_chain(6, rng.uniform(0, 10, 6), v=1.0, trap_rate=0.5, decay_rate=0.01)
    heff = effective_hamiltonian(m)
    first = eig_system(heff)
    assert eig_system(heff) is first and eig_system(heff.matrix) is first  # while the byte memo holds it
    copy = effective_hamiltonian(m)
    assert copy is not heff and _same_decomposition(eig_system(copy), first)
    _eig_system.cache_clear()
    assert eig_system(heff) is first and _eig_system.cache_info().currsize == 0
    fresh = eig_system(heff.matrix)
    assert fresh[1] is not first[1] and _same_decomposition(fresh, first)
    assert _same_decomposition(eig_system(effective_hamiltonian(m)), first)
    assert _same_decomposition(eig_system(dataclasses.replace(heff)), first)
    w, v = np.linalg.eig(heff.matrix)
    assert np.array_equal(first[0], w) and np.array_equal(first[1], v)
    # the kept result is not a field: equality, repr and the fields' values are unchanged
    assert [f.name for f in dataclasses.fields(heff)] == ["matrix", "hermitian_part"]
    assert repr(heff) == repr(copy)


def test_eig_system_decomposes_a_writable_array_changed_in_place(rng):
    h = effective_hamiltonian(build_chain(5, rng.uniform(0, 10, 5), v=1.0, trap_rate=0.5, decay_rate=0.01)).matrix.copy()
    first = eig_system(h)
    h[0, 0] += 1.0
    second = eig_system(h)
    assert second[1] is not first[1] and np.array_equal(second[0], np.linalg.eig(h)[0])
    # an EffectiveHamiltonian whose matrix is made writable again takes the byte memo, so a
    # change in place is seen there too; unpickling leaves the matrix read-only, so it is thawed here
    heff = effective_hamiltonian(build_chain(5, rng.uniform(0, 10, 5), v=1.0, trap_rate=0.5, decay_rate=0.01))
    kept = eig_system(heff)
    thawed = pickle.loads(pickle.dumps(heff))
    assert not thawed.matrix.flags.writeable
    thawed.matrix.setflags(write=True)
    assert _same_decomposition(eig_system(thawed), kept)
    thawed.matrix[0, 0] += 1.0
    assert np.array_equal(eig_system(thawed)[0], np.linalg.eig(thawed.matrix)[0])
    assert not np.array_equal(eig_system(thawed)[0], kept[0])


def test_eig_system_on_threads_alternating_two_models():
    # four threads, switching every microsecond, alternate two fresh models from their first call
    # on, over 20 rounds: every call returns its own model's one kept result, with a serial
    # decomposition's values
    barrier = threading.Barrier(4)

    def alternate(models, start):
        barrier.wait(timeout=60)
        return [(i, eig_system(models[i]._h_eff)) for i in [(start + k) % 2 for k in range(50)]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for r in range(20):
                models = [build_chain(8, np.linspace(e + r / 8, 0.0, 8), v=1.0, trap_rate=0.5, decay_rate=0.001) for e in (10.0, 12.0)]
                runs = [fut.result(timeout=60) for fut in [pool.submit(alternate, models, s) for s in range(4)]]
                want = [np.linalg.eig(effective_hamiltonian(m).matrix) for m in models]
                for run in runs:
                    for i, got in run:
                        assert got is models[i]._h_eff.__dict__["_eig"]
                        assert np.array_equal(got[0], want[i][0]) and np.array_equal(got[1], want[i][1])
    finally:
        sys.setswitchinterval(interval)


def test_eig_system_rejects_what_it_cannot_decompose():
    with pytest.raises(np.linalg.LinAlgError):
        eig_system(np.zeros((2, 3)))
    with pytest.raises(np.linalg.LinAlgError):
        eig_system(np.zeros(4))
    _eig_system.cache_clear()
    with pytest.raises(np.linalg.LinAlgError):
        eig_system(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert _eig_system.cache_info().currsize == 0  # a failure is not memoized


def test_propagator_at_the_exceptional_point():
    # resonant dimer with kappa = 2v, Gamma = 0: H_eff = N - iI with N^2 = 0,
    # so exp(-i H_eff t) = e^{-t} (I - i t N) exactly
    m = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
    h = effective_hamiltonian(m).matrix
    nil = h + 1j * np.eye(2)
    assert np.max(np.abs(nil @ nil)) == 0.0
    for t in np.linspace(0.05, 5.0, 100):
        exact = np.exp(-t) * (np.eye(2) - 1j * t * nil)
        assert np.max(np.abs(propagator(h, t).matrix - exact)) < 1e-13


# a signed cyclic permutation: every power of x P has 1-norm x^k, so _expm's eta is x
SIGNED_CYCLE = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


class _Recording(dict):
    """The Pade coefficient table, recording which degrees are read."""

    def __getitem__(self, m):
        self.read.append(m)
        return super().__getitem__(m)


def expm_band_cases():
    for x, degree in ((0.01, 3), (0.2, 5), (0.9, 7), (2.0, 9), (4.0, 13), (40.0, 13)):
        for name, phase in (("real", 1.0), ("complex", np.exp(0.3j)), ("imaginary", 1j)):
            yield pytest.param(x * phase * SIGNED_CYCLE, degree, id=f"{name}-{x}")
    # ||N||_1 = 15, past every theta_m, but N^4 = 0: eta = 0 takes degree 3
    yield pytest.param(np.triu(np.full((4, 4), 5.0), 1), 3, id="nilpotent")


@pytest.mark.parametrize("a, degree", expm_band_cases())
def test_expm_matches_scipy_in_each_degree_band(monkeypatch, a, degree):
    # x P in the band of each Pade degree, the last scaled by 2^-4; ||x P||_1 = x,
    # so degrees 3 to 7 come from Higham's bound on ||a||_1, 9 and 13 from eta.
    # Both are scaling and squaring to a backward error of u; against exp(x P)
    # to 50 digits (mpmath), scipy is off by up to 2.4e-13 of the largest entry
    # (real, x = 4) and _expm by up to 1.5e-14, so they agree to 1e-12 of it
    table = _Recording(dynamics._PADE)
    table.read = []
    monkeypatch.setattr(dynamics, "_PADE", table)
    want = scipy.linalg.expm(a)
    got = _expm(a)
    assert table.read == [degree]
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_expm_stack_shares_the_scaling_of_its_largest_member():
    # members from 1e-6 to 30 times one random complex matrix take the degree
    # and 2^-s of the largest (s = 5); the small ones are squared far more than
    # scipy squares them, and still agree with it to 1e-13 of their largest
    # entry (read: 4.7e-15 at 1e-6, 4.3e-15 at 30)
    rng = np.random.default_rng(1)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    stack = np.array([1e-6 * g, 1e-3 * g, g, 30.0 * g])
    got = _expm(stack)
    for a, e in zip(stack, got):
        want = scipy.linalg.expm(a)
        assert np.max(np.abs(e - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_of_zero_and_of_an_empty_stack():
    for zero in (np.zeros((3, 3)), np.zeros((2, 3, 3), dtype=complex)):
        assert np.array_equal(_expm(zero), scipy.linalg.expm(zero))
        assert np.array_equal(_expm(zero), np.broadcast_to(np.eye(3), zero.shape))
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert _expm(empty).shape == scipy.linalg.expm(empty).shape == (0, 3, 3)


def ep_propagator(t):
    """exp(-i H_eff t) = e^{-t} (I - i t N) of the exceptional-point dimer."""
    nil = np.array([[1j, 1.0], [1.0, -1j]])
    return np.exp(-t) * (np.eye(2) - 1j * t * nil)


@pytest.mark.parametrize("entry", ["measured", "unitary-concurrence", "master", "jump"])
def test_entry_points_at_the_exceptional_point(entry):
    # every engine path built on exp(-i H_eff t) against the closed form at
    # the resonant dimer with kappa = 2v, Gamma = 0 (cond(V) = 9.0e7), to the
    # 1e-13 of test_propagator_at_the_exceptional_point.  The eigenbasis
    # would miss it by up to 1e-8 there.
    m = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
    times = np.linspace(0.0, 5.0, 101)
    rho0 = pure_site_state(2, 1)
    free = DephasingSpec(model=m, gamma=0.0, dephased_sites=frozenset())
    want = np.array([ep_propagator(t) @ rho0.matrix @ ep_propagator(t).conj().T for t in times])
    if entry == "measured":
        # both sites measured every 0.3: just after the k-th measurement the
        # state is diag(T^k e_1), T = |U(0.3)|^2
        tau = 0.3
        k = np.floor(times / tau * (1 + 1e-12)).astype(int)
        p = [np.linalg.matrix_power(np.abs(ep_propagator(tau)) ** 2, j) @ [1.0, 0.0] for j in k]
        u = np.array([ep_propagator(t) for t in times - k * tau])
        want = u @ (np.array(p)[:, :, None] * np.eye(2)) @ u.conj().swapaxes(1, 2)
        got = [s.matrix for s in measured_states(m._h_eff, MeasurementChannel(frozenset({1, 2}), tau), rho0, times)]
    elif entry == "unitary-concurrence":
        # U e_1 = e^{-t} (1 + t, -i t), so C = 2 |rho_12| = 2 t (1 + t) e^{-2t}
        got = simulate_concurrence(m, "unitary", (1, 2), times).values
        want = 2 * times * (1 + times) * np.exp(-2 * times)
    elif entry == "master":
        got = [s.matrix for s in integrate_master(free, rho0, times)]
    else:
        got = [s.matrix for s in quantum_jump_ensemble(free, rho0, times, n_traj=3, seed=0).mean_states]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-13


def test_propagator_rejects_bad_input():
    with pytest.raises(ValueError):
        propagator(np.array([[np.nan, 0], [0, 0]]), 1.0)
    with pytest.raises(ValueError):
        propagator(np.eye(2), -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_propagator_rejects_non_finite_time(two_site_disordered, t):
    # NaN used to give an all-NaN Propagator
    with pytest.raises(ValueError, match="t must be nonnegative and finite"):
        propagator(effective_hamiltonian(two_site_disordered), t)


def test_evolve_identity(two_site_disordered):
    rho = pure_site_state(2, 1)
    out = evolve(np.eye(2), rho)
    assert np.allclose(out.matrix, rho.matrix)


def test_evolve_preserves_trace_lossless(resonant_dimer):
    u = propagator(effective_hamiltonian(resonant_dimer), 0.77)
    out = evolve(u, pure_site_state(2, 1))
    assert abs(out.trace - 1.0) < 1e-12


def test_evolve_decoupled_decay():
    # v=0, kappa=0.5 at site 2: populations decay at rate 2 kappa
    m = build_chain(2, [0.0, 0.0], v=0.0, trap_rate=0.5, decay_rate=0.0)
    u = propagator(effective_hamiltonian(m), 1.0)
    out = evolve(u, pure_site_state(2, 2))
    assert abs(out.trace - np.exp(-1.0)) < 1e-12


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(np.eye(2), pure_site_state(3, 1))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, 0.0]]))  # trace > 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.9], [0.9, 0.0]]))  # negative eigenvalue


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.4], [0.1, 0.5]]),
        np.array([[1.0, 0.9], [0.9, 0.0]]),
        np.array([[1.5, 0.0], [0.0, 0.0]]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
    ],
    ids=["not-hermitian", "negative-eigenvalue", "trace-above-1", "non-finite"],
)
def test_density_stack_rejects_one_bad_member_with_the_density_matrix_message(bad):
    stack = np.array([np.eye(2) / 2, [[0.5, 0.5j], [-0.5j, 0.5]], bad, np.diag([0.3, 0.0])])
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad)
    with pytest.raises(ValueError) as stacked:
        density_stack(stack)
    assert str(stacked.value) == str(single.value)
    checked = density_stack(np.delete(stack, 2, axis=0))
    assert not checked.flags.writeable and np.array_equal(checked, np.delete(stack, 2, axis=0))


@pytest.mark.parametrize("off, ok", [(0.0, True), (0.9e-12, True), (1.1e-12, False)])
def test_density_stack_hermitian_tolerance(off, ok):
    # a stack Hermitian to the bit passes on one comparison, one member off by less
    # than 1e-12 still passes on |m - m^H|, and one off by more fails
    stack = np.array([np.eye(3) / 3, pure_site_state(3, 2).matrix, np.full((3, 3), 0.25)], dtype=complex)
    stack[2, 0, 1] += 1j * off
    if ok:
        assert np.array_equal(density_stack(stack.copy()), stack)
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            density_stack(stack)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 32])
def test_psd_floor_is_the_eigenvalue_floor_in_both_checkers(n, monkeypatch):
    # trace-1 states U diag(low, ...) U^H: the Cholesky pass admits low = -0.9e-10
    # without an eigensolve; -1.1e-10 fails it, and eigvalsh supplies the min eig
    a = np.random.default_rng(n).normal(size=(2, n, n))
    q, _ = np.linalg.qr(a[0] + 1j * a[1])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    for low, ok in ((-0.9e-10, True), (-1.1e-10, False)):
        d = np.linspace(1.0, 2.0, n)
        d[0] = 0.0
        d *= (1.0 - low) / d.sum()
        d[0] = low
        rho = (q * d) @ q.conj().T
        rho = (rho + rho.conj().T) / 2
        stack = np.array([np.eye(n) / n, rho])
        checkers = [(density_stack, f"min eig {low:.3e}")]
        if n == 4:
            checkers.append((lambda s: [TwoQubitState(m, (1, 2)) for m in s], "two-qubit state not positive semidefinite"))
        for check, message in checkers:
            calls.clear()
            if ok:
                check(stack.copy())
                assert not calls
            else:
                with pytest.raises(ValueError, match=message):
                    check(stack.copy())
                assert len(calls) == 1


CHUNK_BAD = {  # 2 x 2 members that fail one check each
    "non-finite": np.array([[0.5, np.nan], [np.nan, 0.5]]),
    "not-hermitian": np.array([[0.5, 0.4], [0.1, 0.5]]),
    "negative-eigenvalue": np.array([[1.0, 0.9], [0.9, 0.0]]),
    "trace-1.5": np.array([[1.5, 0.0], [0.0, 0.0]]),
}


def ten_good_members():
    """Ten 2 x 2 members that pass every check, each different."""
    return np.array([np.diag([1.0 - p, p]) + 0.1j * p * np.array([[0, 1], [-1, 0]]) for p in np.linspace(0.1, 0.5, 10)])


@pytest.mark.parametrize("at", [3, 9], ids=["just-past-a-boundary", "in-the-last-chunk"])
@pytest.mark.parametrize("bad", list(CHUNK_BAD.values()), ids=list(CHUNK_BAD))
def test_chunked_checks_give_the_one_chunk_message(bad, at, monkeypatch):
    # with a budget of three 2 x 2 members (3 x 64 bytes) the chunks are members
    # [0, 3), [3, 6), [6, 9) and [9, 10); the bad member just past the first boundary,
    # or alone in the last chunk, gives the message of the whole stack as one chunk
    # (the default budget) and of DensityMatrix
    stack = ten_good_members()
    stack[at] = bad
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad)
    with pytest.raises(ValueError) as whole:
        density_stack(stack.copy())
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 3 * 64)
    assert dynamics._chunks(stack) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)]
    with pytest.raises(ValueError) as chunked:
        density_stack(stack.copy())
    assert str(chunked.value) == str(whole.value) == str(single.value)
    assert np.array_equal(density_stack(np.delete(stack, at, axis=0)), np.delete(stack, at, axis=0))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({4: 0.2, 7: 0.5}, "min eig -2.000e-01"),  # the first failing chunk's
        ({6: 0.3, 7: 0.5}, "min eig -3.000e-01"),  # the first failing member of its chunk
        ({2: 0.5, 3: 0.2}, "min eig -5.000e-01"),  # across a boundary
        ({1: 0.5, 9: "not-hermitian"}, "not Hermitian"),  # the Hermitian check runs on every chunk first
    ],
)
def test_chunked_checks_report_the_first_failing_member(bad, message, monkeypatch):
    # diag(1 + e, -e) has trace 1 and lowest eigenvalue -e
    stack = ten_good_members()
    for at, e in bad.items():
        stack[at] = CHUNK_BAD[e] if isinstance(e, str) else np.diag([1.0 + e, -e])
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 3 * 64)
    with pytest.raises(ValueError, match=re.escape(message)):
        density_stack(stack)


def test_density_stack_names_the_shape_it_was_given():
    # a square matrix that is not a stack; DensityMatrix checks its own matrix first
    for shape in [(3, 3), (2, 2, 3), (3,)]:
        with pytest.raises(ValueError, match=re.escape(f"density_stack needs an (m, n, n) stack, got shape {shape}")):
            density_stack(np.ones(shape))
    for shape in [(3,), (2, 3), (1, 2, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"density matrix must be square, got shape {shape}")):
            DensityMatrix(np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 1, 1), (5, 3, 3), (40, 16, 16)])
def test_from_real_equals_the_expression(shape):
    # a random real stack with zeros of both signs, rebuilt into a new array and into
    # a slice of a larger one (as _after_by_powers writes after[later:]); == lets the
    # sign of a zero differ and nothing else
    rng = np.random.default_rng(shape[0])
    y = rng.standard_normal(shape)
    y[rng.random(shape) < 0.25] = 0.0
    y[rng.random(shape) < 0.25] = -0.0
    y.flat[:2] = 0.0, -0.0
    ref = _from_real_expression(y)
    assert np.array_equal(_from_real(y), ref)
    after = np.full((shape[0] + 2,) + shape[1:], 7.0 + 7.0j)
    view = after[2:]
    assert _from_real(y, view) is view
    assert np.array_equal(after[2:], ref) and np.all(after[:2] == 7.0 + 7.0j)


def test_populations_basic():
    assert np.array_equal(populations(pure_site_state(4, 1)), [1, 0, 0, 0])
    mixed = DensityMatrix(np.eye(3) / 3)
    assert np.allclose(populations(mixed), [1 / 3] * 3)


def test_populations_after_half_rabi(resonant_dimer):
    u = propagator(effective_hamiltonian(resonant_dimer), np.pi / 4)
    p = populations(evolve(u, pure_site_state(2, 1)))
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_time_averaged_population_two_site():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    avg = time_averaged_population(m, 2, 200.0)
    assert abs(avg - 2.0 / 104.0) < 0.002


def test_time_averaged_population_resonant(resonant_dimer):
    assert abs(time_averaged_population(resonant_dimer, 2, 200.0) - 0.5) < 0.01


def test_time_averaged_population_resonant_closed_form(resonant_dimer):
    # p_2(t) = sin^2(v t), whose average over [0, T] is 1/2 - sin(2 v T) / (4 v T)
    for T in (10.0, 37.3, 200.0):
        exact = 0.5 - np.sin(2 * T) / (4 * T)
        assert abs(time_averaged_population(resonant_dimer, 2, T) - exact) < 1e-12


def test_time_averaged_population_localized_chain():
    m = build_chain(3, [10.0, 17.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    avg = time_averaged_population(m, 3, 400.0)
    assert 0.5 <= avg / perturbative_average(m) <= 2.0


def test_time_averaged_population_validation(resonant_dimer):
    with pytest.raises(ValueError):
        time_averaged_population(resonant_dimer, 2, -1.0)
    with pytest.raises(ValueError):
        time_averaged_population(resonant_dimer, 5, 10.0)


def test_perturbative_average_values():
    m1 = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    assert perturbative_average(m1) == pytest.approx(0.02)
    m2 = build_chain(3, [10.0, 5.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    assert perturbative_average(m2) == pytest.approx(3e-4)


def test_perturbative_average_out_of_regime():
    m = build_chain(2, [0.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(OutOfRegimeError):
        perturbative_average(m)


def test_perturbative_average_requires_chain():
    from antizeno import DisorderSpec, build_graph

    m = build_graph(DisorderSpec(3, "complete", 10.0, 1.0, 0.0, 0.0, seed=0))
    with pytest.raises(ValueError):
        perturbative_average(m)
