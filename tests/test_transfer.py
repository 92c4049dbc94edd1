import copy
import dataclasses
import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    asymptotic_deficit_no_measurement,
    asymptotic_efficiency_max,
    build_chain,
    efficiency_measured,
    efficiency_no_measurement,
    optimal_tau,
    tau_scan,
)
from antizeno import transfer
from antizeno.dynamics import _eig_system, _mode_table, _propagators, eig_system
from antizeno.model import DisorderSpec, LatticeModel, build_graph, effective_hamiltonian
from antizeno.transfer import (
    EfficiencyResult,
    TauScan,
    _interval_integrals_doubling,
    _interval_integrals_eigen,
    _model_terms,
    _periodic_law,
    _series_factors,
    _series_result,
    scan_to_csv,
)
from oracles import _interval_integrals_quadrature


def fig2_model(eps):
    return build_chain(2, [float(eps), 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)


def test_no_measurement_basic(two_site_disordered):
    r = efficiency_no_measurement(two_site_disordered)
    assert 0.0 < r.eta < 1.0
    assert r.eta == r.trapped
    assert r.tau is None
    assert abs(r.trapped + r.dissipated + r.residual - 1.0) < 1e-6


def test_no_measurement_v_zero():
    m = build_chain(2, [10.0, 0.0], v=0.0, trap_rate=0.5, decay_rate=0.001)
    assert efficiency_no_measurement(m).eta == pytest.approx(0.0, abs=1e-12)


def test_no_measurement_no_decay_traps_everything():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    r = efficiency_no_measurement(m)
    assert r.eta == pytest.approx(1.0, abs=1e-9)


def test_no_measurement_requires_loss_channel():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError):
        efficiency_no_measurement(m)


def test_measured_peak(two_site_disordered):
    r = efficiency_measured(two_site_disordered, np.pi / 10.0)
    assert abs(r.eta - 0.98) < 0.01


def test_measured_zeno_suppression(two_site_disordered):
    assert efficiency_measured(two_site_disordered, 1e-3 / 10.0).eta < 0.05


def test_measured_rejects_bad_tau(two_site_disordered):
    with pytest.raises(ValueError):
        efficiency_measured(two_site_disordered, 0.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_measured_rejects_non_finite_tau(two_site_disordered, tau):
    # NaN used to raise LinAlgError, inf to warn and return a result with tau = inf
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        efficiency_measured(two_site_disordered, tau)


def reference_interval_integrals(w, v, vinv, tau):
    """The three-operand einsum form of _interval_integrals_eigen."""
    c = v.T[:, :, None] * vinv[:, None, :]  # c[a, i, j] = V[i,a] Vinv[a,j]
    delta = w[:, None] - w.conj()[None, :]
    small = np.abs(delta) * tau < 1e-10
    safe = np.where(small, 1.0, delta)
    e = np.where(small, tau, (1.0 - np.exp(-1j * safe * tau)) / (1j * safe))
    return np.real(np.einsum("aij,bij,ab->ij", c, c.conj(), e))


def pair_rows(v):
    """P[i,(a,b)] = V[i,a] conj V[i,b] over a <= b in C order: the rows R P
    with R = I, for which _interval_integrals_eigen gives A itself."""
    ia, ib = np.triu_indices(v.shape[0])
    return np.ascontiguousarray(v[:, ia] * v[:, ib].conj())


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("lossless", [False, True])
def test_interval_integrals_equal_the_einsum_and_quadrature_forms(n, lossless):
    # The product form sums the einsum's n^2 terms per entry as n(n+1)/2
    # conjugate pairs, in another order: with O(1) terms and entries at most
    # tau = 2 the roundoff is a few 1e-15 (3.6e-15 at most here).  The
    # 16-node Gauss-Legendre rule on max(4, ceil(tau ||H_eff||_1)) panels
    # (up to 24 here) resolves the frequencies |w_a - w_b| <= 11.5 of these
    # chains far below 1e-10 (2.4e-14 at most here).  The factors are built
    # once and serve every tau; no 0/0 may warn where delta_ab = 0.  The rows
    # P give A itself (L = I); the loss rows L P give L A, zero where the
    # chain is lossless.
    e = np.random.default_rng(n).uniform(0.0, 10.0, n)
    m = build_chain(n, e, v=1.0, trap_rate=0.0 if lossless else 0.5, decay_rate=0.0 if lossless else 0.001)
    h = effective_hamiltonian(m).matrix
    w, v, vinv, _ = eig = eig_system(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = _series_factors(m, eig)
        loss, rows = _model_terms(m)[0], pair_rows(v)
        for tau in (0.01, 0.3, 2.0):
            if lossless:  # real spectrum: the diagonal of E takes the small-delta branch
                assert np.all(np.abs(w.imag) * 2 * tau < 1e-10)
                assert f.min_abs_delta * tau < 1e-10
            e = _periodic_law(f, tau)[0]
            a = _interval_integrals_eigen(rows, e, f.q)
            assert np.max(np.abs(a - reference_interval_integrals(w, v, vinv, tau))) < 1e-13
            assert np.max(np.abs(a - _interval_integrals_quadrature(h, tau))) < 1e-10
            assert np.max(np.abs(_interval_integrals_eigen(f.lp, e, f.q) - loss @ a)) < 1e-13


@pytest.mark.parametrize("topology", ["chain", "complete"])
@pytest.mark.parametrize("n", [2, 3, 8, 16, 32, 64])
def test_doubling_equals_the_eigen_kernel(topology, n):
    # the seeded models of the Poisson eigen-sum test, where the eigen kernel
    # is exact to roundoff.  Poisson law: within 1e-13 kappa_L of the largest
    # entry (kappa_L as there; 1.5e-15 kappa_L at most here; the horizon 1e300
    # leaves the end to the stop rule).  Periodic law:
    # within 1e-13 absolute for tau <= 2 (2.8e-14 at most here, about the
    # eigen kernel's own roundoff), and F(tau) meets scipy's expm to 1e-13
    # (4.4e-15)
    m = build_graph(DisorderSpec(n, topology, 10.0, 1.0, 0.5, 0.001, seed=n))
    h = m._h_eff.matrix
    w, v, _, _ = eig = eig_system(h)
    f, rows = _series_factors(m, eig), pair_rows(v)
    for rate in (0.0, 0.1, 2.0, 50.0):
        ref = transfer._poisson_integrals(m, rate)
        j = slice(None) if rate > 0 else slice(m.initial_site - 1, m.initial_site)
        a = _interval_integrals_doubling(h, j, 1e300, rate, stop=True)[0]
        kappa_l = (np.linalg.norm(h, 1) + rate) / (rate - 2.0 * w.imag.max())
        assert np.abs(a - ref[:, j]).max() <= 1e-13 * kappa_l * np.abs(ref).max()
    for tau in (0.01, 0.3, 2.0):
        a, u = _interval_integrals_doubling(h, slice(None), tau)
        assert np.abs(a - _interval_integrals_eigen(rows, _periodic_law(f, tau)[0], f.q)).max() <= 1e-13
        assert np.abs(u - scipy.linalg.expm(-1j * h * tau)).max() <= 1e-13


def test_measured_takes_the_doubling_path_at_a_defective_h(monkeypatch):
    # the exceptional-point dimer at v = 1.5, kappa = 2v, Gamma = 0 has
    # cond(V) = 1.9e8, past eig_system's cutoff: U and A come from the
    # doubling.  With no decay every excitation is trapped, so eta = 1; the
    # doubling is exact to about 1e-15 at every tau, and the series adds the
    # roundoff of (I - T)^-1, about 1e-14 at tau = 0.05 where 1 - rho(T) ~ 1e-2
    calls = []
    doubling = transfer._interval_integrals_doubling
    monkeypatch.setattr(transfer, "_interval_integrals_doubling", lambda *args: calls.append(args) or doubling(*args))
    m = build_chain(2, [0.0, 0.0], v=1.5, trap_rate=3.0, decay_rate=0.0)
    assert eig_system(m._h_eff.matrix)[2] is None
    taus = (0.05, 0.5, 2.0, 50.0, 200.0)
    for tau in taus:
        r = efficiency_measured(m, tau)
        assert r.dissipated == 0.0 and abs(r.eta - 1.0) <= 1e-12
    assert len(calls) == len(taus)


@pytest.mark.parametrize("tau", [0.1, 1.0])
def test_doubling_at_the_dark_exceptional_point(tau):
    # the resonant 3-site chain with kappa = 2 sqrt 2 on its middle site is an
    # exceptional point (cond(V) = 7.2e7) with a dark mode, (|1> - |3>)/sqrt 2,
    # that never reaches the trap.  Started on site 1, half the excitation
    # lies in it, yet each measurement moves some of it out, so every
    # excitation is trapped: eta = 1.  The eigen kernel, which
    # efficiency_measured keeps here under eig_system's cutoff, reads 3.32 and
    # 1.22; the doubling gets eta = 1 and F(tau) = U(tau) to roundoff
    c = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = LatticeModel(np.zeros(3), c, np.array([0.0, 2.0 * np.sqrt(2.0), 0.0]), 0.0, 1)
    h = m._h_eff.matrix
    a, u = _interval_integrals_doubling(h, slice(None), tau)
    l, eye, start = _model_terms(m)
    trapped, dissipated = _series_result(np.abs(u) ** 2, l @ a, eye, start)
    assert dissipated == 0.0 and abs(trapped - 1.0) <= 1e-12
    assert np.abs(u - _propagators(h, [tau])[0]).max() <= 1e-13


def test_measured_divergent_without_loss():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError, match="non-convergent|efficiency undefined"):
        efficiency_measured(m, 0.3)


@pytest.mark.parametrize("tau", [0.1, 1.0])
def test_measured_divergent_with_an_isolated_lossless_site(tau, monkeypatch):
    # site 3 has no coupling and no loss: column 3 of T sums to 1, so the
    # column-sum bound cannot settle convergence and the spectral radius
    # raises, before the solve that needs I - T nonsingular runs
    solves = []
    monkeypatch.setattr(transfer, "_solve", lambda *args: solves.append(args))
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 1.0
    m = LatticeModel(np.array([0.0, 1.0, 5.0]), c, np.array([0.0, 0.5, 0.0]), 0.0, 1)
    with pytest.raises(ValueError, match="non-convergent"):
        efficiency_measured(m, tau)
    assert solves == []


def test_series_guard_sends_a_nan_to_eigvals(monkeypatch):
    # np.maximum.reduce propagates the NaN, so the column-sum bound does not
    # hold and eigvals rejects T before any solve
    solves = []
    monkeypatch.setattr(transfer, "_solve", lambda *args: solves.append(args))
    t = np.array([[0.1, np.nan], [0.2, 0.3]])
    with pytest.raises(np.linalg.LinAlgError):
        _series_result(t, np.ones((2, 2)), np.eye(2), np.eye(2)[0])
    assert solves == []


@pytest.mark.parametrize("n", range(1, 33))
def test_solve_is_numpy_solve_bit_for_bit(n):
    # _solve calls the gufunc behind np.linalg.solve, on the same arrays
    rng = np.random.default_rng(n)
    for a in (rng.standard_normal((n, n)), np.eye(n) - rng.uniform(0.0, 1.0 / n, (n, n))):
        b = rng.standard_normal(n)
        assert np.array_equal(transfer._solve(a, b), np.linalg.solve(a, b))


def _old_way_series(m, tau):
    """(eta, dissipated) as efficiency_measured formed them before the mode table:
    U = (V exp(-i w tau)) Vinv, then np.linalg.solve, and the bound
    2 n u cond(V) ||(I - T)^-1||_1 on the gap between the two forms."""
    w, v, vinv, cond = eig = eig_system(m._h_eff.matrix)
    f = _series_factors(m, eig)
    e, modes = _periodic_law(f, tau)
    t = np.abs((v * modes) @ vinv) ** 2
    eta, dissipated = _interval_integrals_eigen(f.lp, e, f.q) @ np.linalg.solve(f.eye - t, f.start)
    amplification = np.abs(np.linalg.inv(f.eye - t)).sum(axis=0).max()
    return eta, dissipated, 2 * m.n_sites * 2.0**-53 * cond * amplification


_OLD_WAY_MODELS = [build_graph(DisorderSpec(n, topology, 10.0, 1.0, 0.5, 0.001, seed=n)) for topology in ("chain", "complete") for n in (2, 3, 8, 16, 32)]
_OLD_WAY_MODELS += [build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0 + 10.0**-k, decay_rate=0.0) for k in range(3, 9)]


@pytest.mark.parametrize("m", _OLD_WAY_MODELS, ids=[f"n{m.n_sites}-{i}" for i, m in enumerate(_OLD_WAY_MODELS)])
def test_measured_equals_the_old_propagator_and_solve(m):
    # The two forms of U(tau) = V exp(-i w tau) Vinv round differently: each entry
    # sums n terms of size up to |V[i,a]| |Vinv[a,j]|, so they differ by about
    # n u cond(V), T = |U|^2 by twice that, and (I - T)^-1 carries the gap into
    # eta and dissipated times its 1-norm, which grows in the Zeno regime (small
    # tau) to 8e4 on the 32-site chains.  Seeded chains and complete graphs
    # (n = 2-32) and near-exceptional-point dimers (kappa = 2 + 1e-3 ... 1e-8,
    # cond(V) up to 2e4) read at most 0.55 of that estimate over 25 taus in
    # [0.005, 2]; the test allows twice it.  Both forms lie equally far from
    # eta = 1 at those dimers, which have no decay
    for tau in np.geomspace(0.005, 2.0, 12):
        eta, dissipated, bound = _old_way_series(m, tau)
        r = efficiency_measured(m, tau)
        assert max(abs(r.eta - eta), abs(r.dissipated - dissipated)) <= 2 * bound


def test_mode_table_keeps_propagators_bit_for_bit():
    # _propagators forms U(t) from dynamics._mode_table as it formed it inline, and the
    # periodic factors cache that same table; the Poisson factors build none
    m = build_graph(DisorderSpec(8, "chain", 10.0, 1.0, 0.5, 0.001, seed=4))
    h = m._h_eff.matrix
    w, v, vinv, _ = eig = eig_system(h)
    times = np.array([0.0, 0.3, 0.01, 2.0, 0.3])
    t, at = np.unique(times, return_inverse=True)
    table = (v.T[:, :, None] * vinv[:, None, :]).reshape(8, 64)
    u = (np.exp(np.multiply.outer(t, -1j * w)) @ table).reshape(-1, 8, 8)
    u[t == 0] = np.eye(8)
    assert np.array_equal(_propagators(h, times), u[at])
    transfer._MEMO.__dict__.clear()
    assert _series_factors(m, eig).table is None
    f = _series_factors(m, eig, periodic=True)
    assert np.array_equal(f.table, table) and np.array_equal(_mode_table(v, vinv), table)
    assert _series_factors(m, eig) is f and _series_factors(m, eig, periodic=True) is f


def _fresh_result(m, tau):
    """efficiency_measured with every memo cleared: a new model (its own H_eff),
    a new eigendecomposition and new interval factors."""
    _eig_system.cache_clear()
    transfer._MEMO.__dict__.clear()
    return efficiency_measured(dataclasses.replace(m), tau)


def test_tau_scan_equals_fresh_per_tau_results():
    # on the Fig. 2 grids, a 5-site and a 32-site chain: the memoized factors
    # are the fresh ones, so the arithmetic and the results are the same
    cases = [(fig2_model(eps), np.linspace(0.05, 20.0, 400) / eps) for eps in (5, 10, 15, 20)]
    n5 = build_chain(5, [12.0, 3.0, 7.0, 0.5, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.01)
    n32 = build_chain(32, np.linspace(10.0, 0.0, 32), v=1.0, trap_rate=0.5, decay_rate=0.001)
    cases += [(n5, np.linspace(0.05, 2.0, 9)), (n32, np.linspace(0.01, 2.0, 60))]
    for m, taus in cases:
        scan = tau_scan(m, taus)
        for t, r in zip(taus, scan.results):
            fresh = _fresh_result(m, t)
            assert (r.eta, r.dissipated) == (fresh.eta, fresh.dissipated)


def test_series_factor_memo():
    m = build_chain(6, np.linspace(10.0, 0.0, 6), v=1.0, trap_rate=0.5, decay_rate=0.01)
    eig = eig_system(m._h_eff.matrix)
    f = _series_factors(m, eig)
    assert _series_factors(m, eig_system(m._h_eff.matrix.copy())) is f  # an equal H hits the memo
    # one ulp in one site energy is another H, with its own factors
    e = m.site_energies.copy()
    e[2] = np.nextafter(e[2], np.inf)
    m2 = dataclasses.replace(m, site_energies=e)
    f2 = _series_factors(m2, eig_system(m2._h_eff.matrix))
    assert f2 is not f and not np.array_equal(f2.q, f.q)
    transfer._MEMO.__dict__.clear()
    fresh = _series_factors(m2, eig_system(m2._h_eff.matrix))
    assert fresh is not f2 and all(np.array_equal(x, y) for x, y in zip(fresh, f2))
    # bounded: one entry per thread, the last model and H used
    for k in range(20):
        last = build_chain(6, np.linspace(10.0 + k, 0.0, 6), v=1.0, trap_rate=0.5, decay_rate=0.01)
        tau_scan(last, [0.1, 0.2])
    assert len(vars(transfer._MEMO)) == 1
    assert transfer._MEMO.last[0] is last and transfer._MEMO.last[1] is eig_system(last._h_eff.matrix)


def test_one_exp_gives_both_phases_and_the_pairs_are_cached_read_only():
    # _periodic_law's one exp of the stacked phases equals the two exps it
    # replaced bit for bit, and the pair indices are np.triu_indices(n),
    # shared by every model of that size and not writable
    m = build_graph(DisorderSpec(8, "complete", 10.0, 1.0, 0.5, 0.001, seed=3))
    eig = eig_system(m._h_eff.matrix)
    f, w = _series_factors(m, eig), eig[0]
    for tau in (1e-3, 0.37, 20.0):
        e, modes = _periodic_law(f, tau)
        assert np.array_equal(modes, np.exp(-1j * w * tau))
        assert np.array_equal(e, (np.exp(f.mjdelta * tau) - 1.0) / f.mjdelta)
    ia, ib = transfer._pairs(8)
    assert transfer._pairs(8)[0] is ia
    assert np.array_equal(ia, np.triu_indices(8)[0]) and np.array_equal(ib, np.triu_indices(8)[1])
    with pytest.raises(ValueError):
        ia[0] = 1


def test_series_factor_memo_tells_apart_models_that_share_h():
    # the first two dimers have bit-identical H_eff (the same eig_system
    # result) but another split of the loss between kappa and Gamma; the
    # third differs from the first only in its initial site.  Alternating
    # between them must give each model its own factors
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    models = [
        LatticeModel(np.array([10.0, 0.0]), c, np.array([0.0, 0.5]), 0.001, 1),
        LatticeModel(np.array([10.0, 0.0]), c, np.array([0.001, 0.501]), 0.0, 1),
        LatticeModel(np.array([10.0, 0.0]), c, np.array([0.0, 0.5]), 0.001, 2),
    ]
    assert all(m._h_eff.matrix.tobytes() == models[0]._h_eff.matrix.tobytes() for m in models)
    taus = (0.05, 0.3, 1.0)
    fresh = [[_fresh_result(m, t) for t in taus] for m in models]
    for _ in range(2):
        for m, want in zip(models, fresh):
            for t, r in zip(taus, want):
                got = efficiency_measured(m, t)
                assert (got.eta, got.dissipated) == (r.eta, r.dissipated)
    for t in range(len(taus)):
        results = [(f[t].eta, f[t].dissipated) for f in fresh]
        assert len(set(results)) == 3


def test_tau_scans_on_worker_threads_equal_serial_scans():
    # threads that scan different Hamiltonians at once, switching every
    # microsecond, get the serial results: no thread reads another's factors
    models = [build_chain(n, np.linspace(10.0, 0.0, n), v=1.0, trap_rate=0.5, decay_rate=0.001) for n in (2, 3, 5, 8)]
    models *= 2
    taus = np.linspace(0.02, 1.0, 40)
    serial = [tau_scan(m, taus).etas for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda m: tau_scan(dataclasses.replace(m), taus).etas, m) for m in models]
            threaded = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def test_measured_series_vs_direct_summation(rng):
    # geometric-series closed form against explicit summation over 1e4 intervals
    for _ in range(5):
        n = int(rng.integers(2, 6))
        e = rng.uniform(0, 10, n)
        m = build_chain(
            n, e, v=1.0, trap_rate=float(rng.uniform(0.2, 0.8)), decay_rate=float(rng.uniform(0.005, 0.02))
        )
        tau = float(rng.uniform(0.05, 0.5))
        eta = efficiency_measured(m, tau).eta
        h = effective_hamiltonian(m).matrix
        w, v_, vinv, _ = eig = eig_system(h)
        f = _series_factors(m, eig)
        a = _interval_integrals_eigen(pair_rows(v_), _periodic_law(f, tau)[0], f.q)
        weights = 2.0 * m.trap_rates @ a
        t = np.abs((v_ * np.exp(-1j * w * tau)) @ vinv) ** 2
        p = np.zeros(n)
        p[0] = 1.0
        total = 0.0
        for _ in range(10000):
            total += weights @ p
            p = t @ p
        assert abs(total - eta) < 1e-6


def test_sum_rule_on_measured(two_site_disordered):
    for tau in [0.01, 0.31, 2.0]:
        r = efficiency_measured(two_site_disordered, tau)
        assert abs(r.trapped + r.dissipated + r.residual - 1.0) < 1e-6


def test_tau_scan_single_point(two_site_disordered):
    scan = tau_scan(two_site_disordered, [0.3])
    assert scan.etas[0] == efficiency_measured(two_site_disordered, 0.3).eta


def test_tau_scan_validation(two_site_disordered):
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [])
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [0.0, 0.1])
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [0.2, 0.1])


@pytest.mark.parametrize("grid", [np.linspace(2.0, 0.005, 400), [0.1, 0.2, 0.2, 0.3]])
def test_tau_scan_checks_the_grid_before_any_solve(two_site_disordered, monkeypatch, grid):
    calls = []
    monkeypatch.setattr(transfer, "efficiency_measured", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="strictly increasing"):
        tau_scan(two_site_disordered, grid)
    assert calls == []


def test_tau_scan_result_count_must_match_the_grid(two_site_disordered):
    results = tau_scan(two_site_disordered, [0.1, 0.2, 0.3]).results
    with pytest.raises(ValueError, match="2 results for 3 taus"):
        TauScan(taus=[0.1, 0.2, 0.3], results=results[:2], model=two_site_disordered)


def test_series_results_equal_the_public_constructors():
    # _result skips the frozen dataclass's __init__ and __post_init__; its objects are the
    # public constructor's under ==, hash, repr, replace, copy and pickle, and stay frozen
    fast = transfer._result(0.75, 0.2, 0.3, "series")
    slow = EfficiencyResult(eta=0.75, trapped=0.75, dissipated=0.2, residual=0.0, tau=0.3, method="series")
    assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
    assert dataclasses.replace(fast) == slow and dataclasses.astuple(fast) == dataclasses.astuple(slow)
    assert copy.copy(fast) == slow and copy.deepcopy(fast) == slow
    assert pickle.loads(pickle.dumps(fast)) == slow and pickle.loads(pickle.dumps(slow)) == fast
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.eta = 0.5
    # the public constructor and replace still check eta against the trapped probability
    with pytest.raises(ValueError, match="eta must equal the trapped probability"):
        EfficiencyResult(eta=0.75, trapped=0.7, dissipated=0.2, residual=0.0, tau=0.3, method="series")
    with pytest.raises(ValueError, match="eta must equal the trapped probability"):
        dataclasses.replace(fast, eta=0.5)
    # both laws return such objects
    m = fig2_model(10)
    for r in (efficiency_measured(m, 0.3), efficiency_no_measurement(m)):
        assert r == EfficiencyResult(**dataclasses.asdict(r)) and repr(r) == repr(EfficiencyResult(**dataclasses.asdict(r)))


def test_tau_scan_equals_the_checked_constructor(two_site_disordered):
    # tau_scan builds its TauScan without re-checking its own grid; the fields equal the
    # public constructor's, the grid stays a read-only float copy
    grid = [0.05, 0.1, 0.4, 2.0]
    scan = tau_scan(two_site_disordered, grid)
    checked = TauScan(taus=grid, results=scan.results, model=two_site_disordered)
    assert np.array_equal(scan.taus, checked.taus) and scan.taus.dtype == float and not scan.taus.flags.writeable
    assert scan.results == checked.results and scan.model is checked.model
    assert np.array_equal(scan.etas, [r.eta for r in scan.results]) and scan.etas.dtype == float


@pytest.mark.parametrize("grid", [[[0.1, 0.2]], [0.1, np.nan], [0.1, np.inf]])
def test_tau_scan_rejects_non_grids(two_site_disordered, grid):
    # a 2-D grid used to fail with "truth value ... ambiguous"
    with pytest.raises(ValueError, match="tau grid must be"):
        tau_scan(two_site_disordered, grid)


def test_large_tau_ordering_by_disorder():
    # at eps tau = 20 the curves stack top-to-bottom with increasing eps
    etas = [efficiency_measured(fig2_model(eps), 20.0 / eps).eta for eps in (5, 10, 15, 20)]
    assert etas[0] > etas[1] > etas[2] > etas[3]


def test_optimal_tau_two_site(two_site_disordered):
    out = optimal_tau(two_site_disordered)
    assert 0.5 * np.pi / 10 <= out["tau"] <= 1.5 * np.pi / 10
    assert out["eta"] >= 0.975


def test_optimal_tau_lossless_trap():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert optimal_tau(m)["eta"] == pytest.approx(1.0, abs=1e-6)


def test_optimal_tau_matches_asymptotic_at_eps20():
    m = fig2_model(20)
    out = optimal_tau(m)
    assert abs(out["eta"] - asymptotic_efficiency_max(m)) < 0.01


def test_optimal_tau_on_a_resonant_model_takes_the_given_bracket():
    # eps = 0 has no default bracket, but a given one serves: golden section
    # stops at 1e-4 of its upper end and meets the maximum of a dense scan
    m = build_chain(3, [0.0, 0.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.01)
    with pytest.raises(ValueError, match="default bracket"):
        optimal_tau(m)
    taus = np.linspace(0.1, 5.0, 2001)
    etas = tau_scan(m, taus).etas
    out = optimal_tau(m, bracket=(0.1, 5.0))
    assert abs(out["tau"] - taus[etas.argmax()]) <= 5e-4 + (taus[1] - taus[0])
    assert etas.max() - 1e-9 <= out["eta"] == out["result"].eta
    assert 0.1 < out["tau"] < 5.0 and 0.9 < out["eta"] < 1.0


def test_optimal_tau_bad_bracket(two_site_disordered):
    with pytest.raises(ValueError):
        optimal_tau(two_site_disordered, bracket=(0.5, 0.1))


@pytest.mark.parametrize("bracket", [(0.01, np.inf), (np.nan, 0.5)])
def test_optimal_tau_rejects_non_finite_bracket(two_site_disordered, bracket):
    # (0.01, inf) used to raise LinAlgError
    with pytest.raises(ValueError, match="bracket must be positive and finite"):
        optimal_tau(two_site_disordered, bracket=bracket)


def test_asymptotic_efficiency_max_values():
    assert asymptotic_efficiency_max(fig2_model(10)) == pytest.approx(
        1 - 2 * 0.001 * (2 + np.pi * 10 / 4)
    )
    assert asymptotic_efficiency_max(fig2_model(20)) == pytest.approx(0.9646, abs=5e-5)
    no_decay = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert asymptotic_efficiency_max(no_decay) == 1.0


def test_asymptotic_efficiency_max_warns_out_of_regime():
    with pytest.warns(UserWarning):
        asymptotic_efficiency_max(fig2_model(3))


def test_asymptotic_deficit_values():
    assert asymptotic_deficit_no_measurement(fig2_model(10)) == pytest.approx(0.2)
    no_decay = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert asymptotic_deficit_no_measurement(no_decay) == 0.0


def test_deficit_scaling_ratio():
    for eps in (5, 10, 15, 20):
        m = fig2_model(eps)
        exact = 1.0 - efficiency_no_measurement(m).eta
        assert 0.5 <= exact / asymptotic_deficit_no_measurement(m) <= 2.0


def test_eta_monotone_in_decay_rate():
    prev = None
    for gamma in [0.0005, 0.001, 0.002, 0.005, 0.01]:
        m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=gamma)
        eta = efficiency_measured(m, 0.3).eta
        if prev is not None:
            assert eta <= prev + 1e-12
        prev = eta


def test_chain_deterioration():
    # 1 - eta(tau*) grows with chain length; each increment of order Gamma eps / v^2
    deficits = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for L in range(1, 6):
            m = build_chain(L + 1, np.linspace(10.0, 0.0, L + 1), v=1.0, trap_rate=0.5, decay_rate=0.001)
            # longer chains push the optimum to larger tau than the default bracket
            out = optimal_tau(m) if L <= 4 else optimal_tau(m, bracket=(0.05, 3.0))
            deficits.append(1.0 - out["eta"])
    increments = np.diff(deficits)
    assert np.all(increments > 0)
    assert np.all(increments >= 0.01 / 3)
    assert np.all(increments <= 0.01 * 3)


def test_scan_csv_format(tmp_path, two_site_disordered):
    scan = tau_scan(two_site_disordered, [0.1, 0.2, 0.3])
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,eps_tau,eta,trapped,dissipated,residual"
    assert len(lines) == 4
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == 0.1
    assert row[1] == pytest.approx(1.0)  # eps * tau
    assert row[2] == pytest.approx(scan.etas[0], abs=1e-10)
